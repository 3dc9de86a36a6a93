//! The parallel experiment-execution engine.
//!
//! Every experiment decomposes into independent [`SimJob`] units — one
//! workload × configuration × seed simulation (or profile / trace-replay)
//! each. [`execute`] fans the units out over a hand-rolled worker pool
//! and merges results **deterministically**: output slot `i` always holds
//! the result of job `i`, regardless of which worker finished it when, so
//! a parallel run's reduced tables are byte-identical to a serial run's.
//!
//! No external dependencies: the pool is `std::thread::scope` plus an
//! atomic work-stealing cursor. Jobs are pure functions of their inputs
//! (most regenerate their workload from `(spec, seed)`; a sweep's resume
//! jobs share one immutable generated workload), which is what makes the
//! fan-out safe and the merge order-independent.
//!
//! Observability rides along: per-job wall time is captured in a
//! [`hydra_stats::Summary`], and throughput ([`hydra_stats::Meter`]s for
//! jobs/sec, simulated cycles/sec, committed instructions/sec) is
//! reported in an [`EngineReport`] the `expt` binary prints to stderr.
//! With a [`Trace`] ([`execute_traced`]), every job records its cores'
//! tapped events into a trace of its own, and the engine appends the job
//! traces to the caller's in plan order, so the simulated part of the
//! trace is independent of `workers` too.

use crate::trace::{run_core, run_system, Trace, TraceEvent};
use hydra_pipeline::{CauseHistogram, Core, CoreConfig, CpiStack, SimStats, System};
use hydra_stats::{Cell, Histogram, Meter, Summary, Table};
use hydra_workloads::{DynamicProfile, Workload, WorkloadSpec};
use ras_core::{RepairPolicy, SyntheticTrace, TraceReplayer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::RunSpec;

/// Exact-bucket ceiling for the per-job wall-time histogram; jobs slower
/// than a minute land in the overflow bucket (still counted, still the
/// max).
const JOB_MS_HIST_CAP: usize = 60_000;

/// One independent unit of simulation work.
///
/// Jobs carry everything needed to run in isolation on any worker
/// thread. Most carry the *workload spec and seed*, not a generated
/// program, so a job is cheap to construct and ship; a sweep's
/// [`JobKind::Resume`] jobs share one generated workload per program
/// through an `Arc` instead, since its planner generates it anyway.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Human-readable identity, e.g. `"gcc × TOS pointer"`; used in
    /// per-job timing reports.
    pub label: String,
    /// What to run.
    pub kind: JobKind,
}

/// The work a [`SimJob`] performs.
// A job is a few hundred bytes and an experiment makes at most a few
// hundred of them, so the Cycle variant's inline CoreConfig is cheaper
// than chasing a Box on every worker.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Cycle-level simulation: generate the workload, fast-forward
    /// `fast_forward` commits with statistics discarded, then measure a
    /// `horizon`-commit window, harvesting the statistics and the
    /// always-on CPI stack and return-mispredict cause histogram.
    Cycle {
        /// Workload generation profile.
        spec: WorkloadSpec,
        /// Workload generation seed.
        seed: u64,
        /// Machine configuration.
        config: CoreConfig,
        /// Commits to run before statistics reset.
        fast_forward: u64,
        /// Commits in the measurement window.
        horizon: u64,
    },
    /// Functional-interpreter profile of a workload (Table 2's call-depth
    /// and instruction-mix columns).
    Profile {
        /// Workload generation profile.
        spec: WorkloadSpec,
        /// Workload generation seed.
        seed: u64,
        /// Instructions to interpret.
        horizon: u64,
    },
    /// Simulated SMT: `config.harts` hardware threads on one core, each
    /// running a sibling workload (same spec, consecutive seeds), sharing
    /// the core's RAS under `config.ras_sharing`. Fast-forwards and
    /// measures per hart, like [`JobKind::Cycle`].
    Smt {
        /// Workload generation profile (shared by all harts).
        spec: WorkloadSpec,
        /// Hart 0's workload seed; hart `i` uses `seed + i`.
        seed: u64,
        /// Machine configuration (`config.harts > 1`).
        config: CoreConfig,
        /// Commits per hart before statistics reset.
        fast_forward: u64,
        /// Commits per hart in the measurement window.
        horizon: u64,
    },
    /// Warm-start cycle simulation: resume a shared quiescent
    /// fast-forward snapshot under a *different* machine configuration
    /// (see [`Core::resume_reconfigured`]) and measure a
    /// `horizon`-commit window. The snapshot is produced once per
    /// workload by the sweep planner and forked across every lattice
    /// point, so the functional fast-forward — identical for all of
    /// them — is paid once instead of per configuration.
    Resume {
        /// The snapshot donor's workload, generated once by the planner
        /// and shared across the lattice (snapshots carry machine state,
        /// not the program image).
        workload: Arc<Workload>,
        /// The quiescent fast-forward snapshot shared across the
        /// lattice (cheap to clone into each job).
        snapshot: Arc<Vec<u8>>,
        /// Machine configuration for this lattice point.
        config: CoreConfig,
        /// Commits in the measurement window.
        horizon: u64,
    },
    /// Trace-model replay on a synthetic speculation trace (the
    /// analytical figure).
    Replay {
        /// Stack capacity.
        capacity: usize,
        /// Repair policy under test.
        policy: RepairPolicy,
        /// Events in the synthetic trace.
        events: usize,
        /// Probability a branch event mispredicts.
        mispredict_rate: f64,
        /// Wrong-path length range (inclusive bounds).
        wrong_path: (usize, usize),
        /// Call density on the wrong path.
        call_density: f64,
        /// Trace seed.
        seed: u64,
    },
}

impl SimJob {
    /// A cycle-level job for `spec` × `config` sized by `rs`.
    pub fn cycle(spec: &WorkloadSpec, seed: u64, config: CoreConfig, rs: &RunSpec) -> Self {
        SimJob {
            label: spec.name.clone(),
            kind: JobKind::Cycle {
                spec: spec.clone(),
                seed,
                config,
                fast_forward: rs.fast_forward,
                horizon: rs.horizon,
            },
        }
    }

    /// Appends ` × {tag}` to the label (configuration identity).
    pub fn tagged(mut self, tag: impl std::fmt::Display) -> Self {
        self.label = format!("{} × {tag}", self.label);
        self
    }

    /// A simulated-SMT job for `spec` × `config` sized by `rs`; hart `i`
    /// runs the sibling workload generated with `seed + i`.
    pub fn smt(spec: &WorkloadSpec, seed: u64, config: CoreConfig, rs: &RunSpec) -> Self {
        SimJob {
            label: format!("{} ×{}smt", spec.name, config.harts),
            kind: JobKind::Smt {
                spec: spec.clone(),
                seed,
                config,
                fast_forward: rs.fast_forward,
                horizon: rs.horizon,
            },
        }
    }

    /// A warm-start job forking a shared fast-forward `snapshot` of
    /// `workload` onto `config` (see [`JobKind::Resume`]).
    pub fn resume(
        workload: Arc<Workload>,
        snapshot: Arc<Vec<u8>>,
        config: CoreConfig,
        horizon: u64,
    ) -> Self {
        SimJob {
            label: workload.name().to_string(),
            kind: JobKind::Resume {
                workload,
                snapshot,
                config,
                horizon,
            },
        }
    }

    /// A functional-profile job for `spec` over `horizon` instructions.
    pub fn profile(spec: &WorkloadSpec, seed: u64, horizon: u64) -> Self {
        SimJob {
            label: format!("{} × profile", spec.name),
            kind: JobKind::Profile {
                spec: spec.clone(),
                seed,
                horizon,
            },
        }
    }
}

/// The result of one [`SimJob`], in the same position as its job.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// From [`JobKind::Cycle`] and [`JobKind::Resume`]: the
    /// measurement-window statistics and the always-on observability
    /// counters covering that window.
    Cycle {
        /// Measurement-window statistics.
        stats: SimStats,
        /// Lost-commit-slot accounting for the window.
        cpi: CpiStack,
        /// Mispredicted-return cause breakdown for the window.
        causes: CauseHistogram,
    },
    /// From [`JobKind::Smt`]: one [`SimStats`] per hart, in hart order.
    /// Per-hart commit counters are private; RAS and cache counters
    /// reflect the shared structures (see [`System::stats`]).
    SmtStats(Vec<SimStats>),
    /// From [`JobKind::Profile`].
    Profile(DynamicProfile),
    /// From [`JobKind::Replay`]: correct-path return hits over the total
    /// scoreable correct-path returns.
    Replay {
        /// Correct-path returns predicted correctly.
        hits: u64,
        /// Correct-path returns in the trace.
        correct: u64,
    },
}

/// Runs one job to completion. Pure: same job, same output, any thread.
pub fn run_job(job: &SimJob) -> JobOutput {
    run_job_traced(job, None)
}

/// A cycle job's output: `stats` plus the core's observability counters.
fn cycle_output(core: &Core, stats: SimStats) -> JobOutput {
    JobOutput::Cycle {
        stats,
        cpi: *core.cpi_stack(),
        causes: core.mispredict_causes(),
    }
}

/// [`run_job`], recording every simulated core's tapped events into
/// `trace` if given. The output is the same either way.
fn run_job_traced(job: &SimJob, mut trace: Option<&mut Trace>) -> JobOutput {
    match &job.kind {
        JobKind::Cycle {
            spec,
            seed,
            config,
            fast_forward,
            horizon,
        } => {
            let w = Workload::generate(spec, *seed).expect("job spec generates");
            let mut core = Core::new(*config, w.program());
            run_core(&mut core, *fast_forward, trace.as_deref_mut());
            core.reset_stats();
            let stats = run_core(&mut core, *horizon, trace);
            cycle_output(&core, stats)
        }
        JobKind::Smt {
            spec,
            seed,
            config,
            fast_forward,
            horizon,
        } => {
            let workloads: Vec<Workload> = (0..config.harts as u64)
                .map(|h| {
                    Workload::generate(spec, seed.wrapping_add(h)).expect("job spec generates")
                })
                .collect();
            let programs: Vec<_> = workloads.iter().map(Workload::program).collect();
            let mut sys = System::new(1, *config, &programs);
            run_system(&mut sys, *fast_forward, trace.as_deref_mut());
            sys.reset_stats();
            JobOutput::SmtStats(run_system(&mut sys, *horizon, trace))
        }
        JobKind::Resume {
            workload,
            snapshot,
            config,
            horizon,
        } => {
            let mut core = Core::resume_reconfigured(snapshot, workload.program(), *config)
                .expect("sweep snapshot is quiescent and matches its workload");
            // A quiescent resume starts with zeroed statistics, so the
            // measurement window begins immediately — no reset needed.
            let stats = run_core(&mut core, *horizon, trace);
            cycle_output(&core, stats)
        }
        JobKind::Profile {
            spec,
            seed,
            horizon,
        } => {
            let w = Workload::generate(spec, *seed).expect("job spec generates");
            JobOutput::Profile(DynamicProfile::measure(&w, *horizon))
        }
        JobKind::Replay {
            capacity,
            policy,
            events,
            mispredict_rate,
            wrong_path,
            call_density,
            seed,
        } => {
            let trace = SyntheticTrace::builder()
                .events(*events)
                .mispredict_rate(*mispredict_rate)
                .wrong_path_len(wrong_path.0, wrong_path.1)
                .wrong_path_call_density(*call_density)
                .seed(*seed)
                .generate();
            let correct = SyntheticTrace::correct_returns(&trace);
            let mut r = TraceReplayer::new(*capacity, *policy);
            r.replay(&trace);
            JobOutput::Replay {
                hits: r.outcome().hits,
                correct,
            }
        }
    }
}

/// Observability for one engine invocation: counts, per-job wall-time
/// distribution, and throughput meters.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall time of each job, in milliseconds, in job order.
    pub job_millis: Vec<f64>,
    /// Jobs completed per second of engine wall time.
    pub jobs_per_sec: Meter,
    /// Simulated cycles per second of engine wall time (cycle jobs only).
    pub sim_cycles_per_sec: Meter,
    /// Committed instructions per second of engine wall time.
    pub sim_instrs_per_sec: Meter,
    /// End-to-end engine wall time.
    pub wall: Duration,
}

impl EngineReport {
    /// Merges `other` into `self` (summing counts and wall time), for
    /// aggregate summaries across experiments.
    pub fn absorb(&mut self, other: &EngineReport) {
        self.workers = self.workers.max(other.workers);
        self.job_millis.extend_from_slice(&other.job_millis);
        self.wall += other.wall;
        self.jobs_per_sec.add(other.jobs_per_sec.events());
        self.sim_cycles_per_sec
            .add(other.sim_cycles_per_sec.events());
        self.sim_instrs_per_sec
            .add(other.sim_instrs_per_sec.events());
        self.jobs_per_sec.set_window(self.wall);
        self.sim_cycles_per_sec.set_window(self.wall);
        self.sim_instrs_per_sec.set_window(self.wall);
    }

    /// The per-job wall-time distribution.
    pub fn job_time_summary(&self) -> Summary {
        let mut s = Summary::new();
        for &ms in &self.job_millis {
            s.record(ms);
        }
        s
    }

    /// The per-job wall-time distribution as an exact-bucket histogram
    /// (millisecond resolution), for percentile reporting.
    pub fn job_time_histogram(&self) -> Histogram {
        let mut h = Histogram::with_cap(JOB_MS_HIST_CAP);
        for &ms in &self.job_millis {
            h.record(ms.round() as u64);
        }
        h
    }

    /// The report as a JSON object for the `BENCH_expt.json` perf
    /// artifact. Every field except `jobs`/`workers` is a wall-clock
    /// measurement, marked by its `_ms` or `_per_sec` suffix.
    pub fn to_json(&self) -> hydra_stats::Json {
        use hydra_stats::Json;
        let times = self.job_time_summary();
        Json::obj([
            ("jobs", Json::int(self.jobs_per_sec.events())),
            ("workers", Json::int(self.workers as u64)),
            ("wall_ms", Json::num(self.wall.as_secs_f64() * 1e3)),
            ("job_ms", times.to_json()),
            ("job_hist_ms", self.job_time_histogram().to_json()),
            ("jobs_per_sec", Json::num(self.jobs_per_sec.per_sec())),
            (
                "sim_cycles_per_sec",
                Json::num(self.sim_cycles_per_sec.per_sec()),
            ),
            (
                "sim_instrs_per_sec",
                Json::num(self.sim_instrs_per_sec.per_sec()),
            ),
        ])
    }

    /// Renders the report as a two-column table for stderr.
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let times = self.job_time_summary();
        let mut t = Table::new(vec!["metric", "value"]);
        t.set_title(title);
        t.add_row(vec![
            Cell::text("jobs"),
            Cell::int(self.jobs_per_sec.events()),
        ]);
        t.add_row(vec![Cell::text("workers"), Cell::int(self.workers as u64)]);
        t.add_row(vec![
            Cell::text("wall time"),
            Cell::text(format!("{:.2?}", self.wall)),
        ]);
        t.add_row(vec![
            Cell::text("job wall time (ms)"),
            Cell::text(format!(
                "mean {:.1} / min {:.1} / max {:.1}",
                times.mean(),
                times.min().unwrap_or(0.0),
                times.max().unwrap_or(0.0),
            )),
        ]);
        let hist = self.job_time_histogram();
        t.add_row(vec![
            Cell::text("job wall time pct (ms)"),
            Cell::text(format!(
                "p50 {} / p95 {} / p99 {} / max {}",
                hist.percentile(50.0).unwrap_or(0),
                hist.percentile(95.0).unwrap_or(0),
                hist.percentile(99.0).unwrap_or(0),
                hist.max().unwrap_or(0),
            )),
        ]);
        t.add_row(vec![
            Cell::text("throughput"),
            Cell::text(format!("{} jobs", self.jobs_per_sec)),
        ]);
        t.add_row(vec![
            Cell::text("sim cycles/sec"),
            Cell::text(format!("{}", self.sim_cycles_per_sec)),
        ]);
        t.add_row(vec![
            Cell::text("sim instrs/sec"),
            Cell::text(format!("{}", self.sim_instrs_per_sec)),
        ]);
        t
    }
}

/// Runs `jobs` on `workers` threads and returns outputs in job order
/// plus an [`EngineReport`].
///
/// Slot `i` of the output always corresponds to `jobs[i]` — merge order
/// is the submission order, never completion order, so results are
/// independent of `workers`.
pub fn execute(jobs: &[SimJob], workers: usize) -> (Vec<JobOutput>, EngineReport) {
    execute_traced(jobs, workers, None)
}

/// Job traces waiting to be appended to the caller's trace in plan
/// order: `next` is the first job not yet appended.
struct Merge<'t> {
    trace: &'t mut Trace,
    next: usize,
    pending: Vec<Option<Trace>>,
}

/// [`execute`], recording each job's tapped events and wall-clock span
/// into `trace` if given. Job traces are appended in plan order as soon
/// as every earlier job's has been, so at most the out-of-order tail is
/// held in memory.
pub fn execute_traced(
    jobs: &[SimJob],
    workers: usize,
    trace: Option<&mut Trace>,
) -> (Vec<JobOutput>, EngineReport) {
    let workers = workers.clamp(1, jobs.len().max(1));
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(JobOutput, Duration)>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let job_trace = trace.as_deref().map(Trace::for_job);
    let merge = trace.map(|trace| {
        Mutex::new(Merge {
            trace,
            next: 0,
            pending: vec![None; jobs.len()],
        })
    });

    std::thread::scope(|scope| {
        let cursor = &cursor;
        let slots = &slots;
        let merge = &merge;
        let job_trace = &job_trace;
        for worker in 0..workers {
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let mut job_trace = job_trace.clone();
                let t0 = Instant::now();
                let start_us = job_trace.as_ref().map_or(0, Trace::now_us);
                let out = run_job_traced(&jobs[i], job_trace.as_mut());
                let took = t0.elapsed();
                if let (Some(m), Some(mut t)) = (merge, job_trace) {
                    t.span(TraceEvent::JobSpan {
                        job: i as u64,
                        worker: worker as u64,
                        label: jobs[i].label.clone(),
                        start_us,
                        dur_us: took.as_micros() as u64,
                    });
                    let mut guard = m.lock().expect("trace merge poisoned");
                    let m = &mut *guard;
                    m.pending[i] = Some(t);
                    while let Some(t) = m.pending.get_mut(m.next).and_then(Option::take) {
                        m.trace.append(t);
                        m.next += 1;
                    }
                }
                *slots[i].lock().expect("job slot poisoned") = Some((out, took));
            });
        }
    });

    let wall = started.elapsed();
    let mut outputs = Vec::with_capacity(jobs.len());
    let mut job_millis = Vec::with_capacity(jobs.len());
    let mut jobs_per_sec = Meter::new();
    let mut sim_cycles_per_sec = Meter::new();
    let mut sim_instrs_per_sec = Meter::new();
    for slot in slots {
        let (out, took) = slot
            .into_inner()
            .expect("job slot poisoned")
            .expect("worker pool ran every job");
        job_millis.push(took.as_secs_f64() * 1e3);
        jobs_per_sec.add(1);
        match &out {
            JobOutput::Cycle { stats: s, .. } => {
                sim_cycles_per_sec.add(s.cycles);
                sim_instrs_per_sec.add(s.committed);
            }
            JobOutput::SmtStats(v) => {
                // Harts advance in lockstep cycles; the machine's wall
                // clock is the busiest hart's.
                sim_cycles_per_sec.add(v.iter().map(|s| s.cycles).max().unwrap_or(0));
                sim_instrs_per_sec.add(v.iter().map(|s| s.committed).sum());
            }
            _ => {}
        }
        outputs.push(out);
    }
    jobs_per_sec.set_window(wall);
    sim_cycles_per_sec.set_window(wall);
    sim_instrs_per_sec.set_window(wall);

    let report = EngineReport {
        workers,
        job_millis,
        jobs_per_sec,
        sim_cycles_per_sec,
        sim_instrs_per_sec,
        wall,
    };
    (outputs, report)
}

/// An ordered cursor over job outputs, used by `Experiment::harvest`
/// implementations to consume results in the same order `plan()` emitted
/// them.
#[derive(Debug)]
pub struct Harvest<'a> {
    outputs: &'a [JobOutput],
    next: usize,
}

impl<'a> Harvest<'a> {
    /// Wraps an output slice.
    pub fn new(outputs: &'a [JobOutput]) -> Self {
        Harvest { outputs, next: 0 }
    }

    fn take(&mut self) -> &'a JobOutput {
        let out = self
            .outputs
            .get(self.next)
            .expect("harvest consumed more outputs than plan() emitted");
        self.next += 1;
        out
    }

    /// The next output, which must be a cycle job's: its stats.
    pub fn stats(&mut self) -> &'a SimStats {
        self.cycle().0
    }

    /// The next output, which must be per-hart SMT stats.
    pub fn smt_stats(&mut self) -> &'a [SimStats] {
        match self.take() {
            JobOutput::SmtStats(s) => s,
            other => panic!("expected SmtStats output, got {other:?}"),
        }
    }

    /// The next output, which must be a cycle job's:
    /// `(stats, cpi stack, cause histogram)`.
    pub fn cycle(&mut self) -> (&'a SimStats, &'a CpiStack, &'a CauseHistogram) {
        match self.take() {
            JobOutput::Cycle { stats, cpi, causes } => (stats, cpi, causes),
            other => panic!("expected Cycle output, got {other:?}"),
        }
    }

    /// The next output, which must be a dynamic profile.
    pub fn profile(&mut self) -> &'a DynamicProfile {
        match self.take() {
            JobOutput::Profile(p) => p,
            other => panic!("expected Profile output, got {other:?}"),
        }
    }

    /// The next output, which must be a trace replay: `(hits, correct)`.
    pub fn replay(&mut self) -> (u64, u64) {
        match self.take() {
            JobOutput::Replay { hits, correct } => (*hits, *correct),
            other => panic!("expected Replay output, got {other:?}"),
        }
    }

    /// Asserts every output was consumed (catches plan/harvest drift).
    pub fn finish(self) {
        assert_eq!(
            self.next,
            self.outputs.len(),
            "harvest consumed {} of {} outputs",
            self.next,
            self.outputs.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_workloads::WorkloadSpec;

    fn tiny_jobs(n: usize) -> Vec<SimJob> {
        let spec = WorkloadSpec::test_small();
        let rs = RunSpec {
            seed: 7,
            fast_forward: 500,
            horizon: 2_000,
        };
        (0..n)
            .map(|i| SimJob::cycle(&spec, 7 + i as u64, CoreConfig::baseline(), &rs))
            .collect()
    }

    #[test]
    fn outputs_follow_submission_order_not_completion_order() {
        let jobs = tiny_jobs(6);
        let (serial, _) = execute(&jobs, 1);
        let (parallel, report) = execute(&jobs, 4);
        assert_eq!(report.workers, 4.min(jobs.len()));
        for (a, b) in serial.iter().zip(&parallel) {
            match (a, b) {
                (JobOutput::Cycle { stats: x, .. }, JobOutput::Cycle { stats: y, .. }) => {
                    assert_eq!(x, y)
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn report_counts_jobs_and_cycles() {
        let jobs = tiny_jobs(3);
        let (outs, report) = execute(&jobs, 2);
        assert_eq!(outs.len(), 3);
        assert_eq!(report.jobs_per_sec.events(), 3);
        assert!(report.sim_cycles_per_sec.events() > 0);
        assert_eq!(report.job_time_summary().count(), 3);
    }

    #[test]
    fn report_to_json_names_every_metric() {
        let jobs = tiny_jobs(2);
        let (_, report) = execute(&jobs, 2);
        let j = report.to_json();
        assert_eq!(j.get("jobs").and_then(hydra_stats::Json::as_num), Some(2.0));
        for key in [
            "workers",
            "wall_ms",
            "job_ms",
            "job_hist_ms",
            "jobs_per_sec",
            "sim_cycles_per_sec",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let hist = j.get("job_hist_ms").expect("histogram object");
        for key in ["count", "p50", "p95", "p99", "max"] {
            assert!(hist.get(key).is_some(), "missing job_hist_ms.{key}");
        }
        assert_eq!(
            hist.get("count").and_then(hydra_stats::Json::as_num),
            Some(2.0)
        );
    }

    #[test]
    fn cycle_jobs_carry_conserving_cpi_stacks() {
        let spec = WorkloadSpec::test_small();
        let rs = RunSpec {
            seed: 7,
            fast_forward: 500,
            horizon: 2_000,
        };
        let config = CoreConfig::baseline();
        let jobs = vec![SimJob::cycle(&spec, 7, config, &rs)];
        let (outs, _) = execute(&jobs, 1);
        let mut h = Harvest::new(&outs);
        let (stats, cpi, causes) = h.cycle();
        assert!(
            cpi.verify(stats.committed, stats.cycles, config.commit_width),
            "cycle job output violates slot conservation"
        );
        // Every mispredicted return was classified.
        assert_eq!(causes.total(), stats.returns - stats.return_hits);
        h.finish();
    }

    #[test]
    fn job_time_histogram_tracks_every_job() {
        let report = EngineReport {
            job_millis: vec![1.2, 3.7, 900.0],
            ..EngineReport::default()
        };
        let h = report.job_time_histogram();
        assert_eq!(h.total(), 3);
        assert_eq!(h.max(), Some(900));
        assert_eq!(h.percentile(50.0), Some(4), "3.7 ms rounds to 4");
    }

    #[test]
    fn harvest_enforces_order_and_exhaustion() {
        let jobs = tiny_jobs(1);
        let (outs, _) = execute(&jobs, 1);
        let mut h = Harvest::new(&outs);
        let _ = h.stats();
        h.finish();
    }
}
