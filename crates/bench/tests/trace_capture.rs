//! End-to-end trace capture through the engine.
//!
//! Runs real cycle-level jobs with a [`Trace`] and checks the acceptance
//! properties of the tracing layer: the RAS event stream shows wrong-path
//! corruption followed by repair under the paper's TOS-pointer+contents
//! mechanism, the engine contributes per-job spans, every exporter emits
//! well-formed output, and the simulated events do not depend on the
//! worker count.

use hydra_bench::trace::{Trace, TraceEvent, TraceFilter};
use hydra_bench::{execute, execute_traced, JobOutput, RunSpec, SimJob};
use hydra_pipeline::{CoreConfig, Event, ReturnPredictor};
use hydra_workloads::WorkloadSpec;
use ras_core::RepairPolicy;

/// Runs two real cycle-level jobs into a fresh trace. `filter` keeps
/// the captured volume small (an unfiltered debug-mode run records
/// per-cycle stage and cache events by the hundred thousand).
fn traced_run(workers: usize, filter: &str) -> Trace {
    let spec = WorkloadSpec::test_small();
    let rs = RunSpec {
        seed: 7,
        fast_forward: 200,
        horizon: 2_000,
    };
    let config = CoreConfig::with_return_predictor(ReturnPredictor::Ras {
        entries: 8,
        repair: RepairPolicy::TosPointerAndContents,
    });
    let jobs: Vec<SimJob> = (0..2)
        .map(|i| SimJob::cycle(&spec, 7 + i, config, &rs).tagged("tos+contents"))
        .collect();
    let mut trace = Trace::new(TraceFilter::parse(filter).expect("valid filter"));
    let (outs, report) = execute_traced(&jobs, workers, Some(&mut trace));
    assert_eq!(report.jobs_per_sec.events(), 2);
    // Tracing only observes.
    let (plain, _) = execute(&jobs, workers);
    let stats = |outs: &[JobOutput]| -> Vec<_> {
        outs.iter()
            .map(|o| match o {
                JobOutput::Cycle { stats, .. } => *stats,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    };
    assert_eq!(stats(&outs), stats(&plain));
    trace
}

#[test]
fn ras_stream_shows_corruption_and_repair() {
    let trace = traced_run(1, "ras,branch");
    assert!(trace.events().len() > 0, "a real run records events");

    let mut saves = 0u64;
    let mut repairs = 0u64;
    let mut mispredicts = 0u64;
    let mut first_mispredict_seq = None;
    let mut repaired_after_mispredict = false;
    let mut wrong_path_ras_activity = false;
    for (seq, rec) in trace.events().enumerate() {
        let TraceEvent::Sim { event, .. } = rec else {
            panic!("the filter keeps no engine spans: {rec:?}");
        };
        match *event {
            Event::RasCheckpoint { policy, words, .. } => {
                assert_eq!(policy, "tos+contents");
                // TOS pointer + one entry of contents.
                assert!(words >= 1, "checkpoint carries shadow state");
                saves += 1;
            }
            Event::RasRestore { policy, .. } => {
                assert_eq!(policy, "tos+contents");
                repairs += 1;
                if first_mispredict_seq.is_some_and(|m| seq > m) {
                    repaired_after_mispredict = true;
                }
            }
            Event::BranchResolve {
                mispredict: true, ..
            } => {
                mispredicts += 1;
                first_mispredict_seq.get_or_insert(seq);
            }
            // RAS traffic between speculation and resolution is the
            // corruption the repair mechanisms exist for.
            Event::RasPush { .. } | Event::RasPop { .. }
                if first_mispredict_seq.is_none() && saves > 0 =>
            {
                wrong_path_ras_activity = true;
            }
            _ => {}
        }
    }
    assert!(saves > 0, "branches checkpoint the stack");
    assert!(mispredicts > 0, "the workload mispredicts");
    assert!(repairs > 0, "mispredictions repair the stack");
    assert!(repaired_after_mispredict, "repair follows a misprediction");
    assert!(
        wrong_path_ras_activity,
        "speculative RAS traffic happens between save and resolve"
    );

    // The human-readable timeline narrates the same story.
    let timeline = trace.ras_timeline();
    assert!(timeline.contains("save"), "timeline shows checkpoints");
    assert!(timeline.contains("MISPREDICT"), "timeline shows resolution");
    assert!(timeline.contains("REPAIR"), "timeline shows repair");
}

#[test]
fn engine_spans_and_exporters_are_well_formed() {
    let trace = traced_run(2, "ras,engine");

    let job_spans: Vec<_> = trace
        .events()
        .filter_map(|rec| match rec {
            TraceEvent::JobSpan {
                job, label, dur_us, ..
            } => Some((*job, label.clone(), *dur_us)),
            _ => None,
        })
        .collect();
    assert_eq!(job_spans.len(), 2, "one span per job");
    let jobs: Vec<_> = job_spans.iter().map(|(job, _, _)| *job).collect();
    assert_eq!(jobs, [0, 1], "spans follow plan order");
    for (_, label, _) in &job_spans {
        assert!(label.contains("tos+contents"), "span carries the job label");
    }

    // Chrome export parses strictly and carries every event.
    let chrome = trace.to_chrome_json().to_string();
    let doc = hydra_stats::Json::parse(&chrome).expect("chrome trace is valid JSON");
    let n = doc
        .get("traceEvents")
        .and_then(hydra_stats::Json::as_arr)
        .expect("traceEvents array")
        .len();
    assert!(n > trace.events().len(), "events plus process metadata");

    // NDJSON: every line is a JSON document.
    let mut buf = Vec::new();
    trace.write_ndjson(&mut buf).expect("ndjson writes");
    let text = String::from_utf8(buf).expect("utf-8");
    for line in text.lines() {
        hydra_stats::Json::parse(line).expect("each NDJSON line parses");
    }
}

#[test]
fn simulated_events_do_not_depend_on_the_worker_count() {
    let render = |trace: &Trace| {
        let mut ndjson = Vec::new();
        trace.write_ndjson(&mut ndjson).expect("ndjson writes");
        (ndjson, trace.ras_timeline())
    };
    let serial = traced_run(1, "ras,branch");
    let parallel = traced_run(2, "ras,branch");
    assert!(serial.events().len() > 0);
    assert!(
        render(&serial) == render(&parallel),
        "traces differ across --jobs"
    );
}
