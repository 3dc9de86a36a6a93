//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! The trace maps onto two synthetic processes:
//!
//! * **pid 1 "engine"** — wall-clock rows: one complete (`"X"`) slice
//!   per engine job on its worker's row (tid = worker + 1), plus one
//!   slice per experiment on tid 0. Timestamps are µs since the trace
//!   started.
//! * **pid 2 "simulator"** — simulation-time rows where 1 µs renders
//!   one cycle: instant (`"i"`) events for RAS / branch / squash /
//!   cache activity keyed by path (tid = path), and counter (`"C"`)
//!   tracks for stage occupancy.
//!
//! The two timebases (wall µs vs cycles) share one trace but live in
//! separate processes, so Perfetto keeps them visually apart.

use super::{pop_view, Trace, TraceEvent};
use hydra_pipeline::Event;
use hydra_stats::Json;

const PID_ENGINE: u64 = 1;
const PID_SIM: u64 = 2;

fn meta(name: &str, pid: u64) -> Json {
    Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::int(pid)),
        ("tid", Json::int(0)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

fn complete(name: &str, tid: u64, start_us: u64, dur_us: u64, args: Json) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str("engine")),
        ("ph", Json::str("X")),
        ("ts", Json::int(start_us)),
        ("dur", Json::int(dur_us.max(1))),
        ("pid", Json::int(PID_ENGINE)),
        ("tid", Json::int(tid)),
        ("args", args),
    ])
}

fn instant(name: &str, cat: &str, cycle: u64, tid: u64, args: Json) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("i")),
        ("ts", Json::int(cycle)),
        ("pid", Json::int(PID_SIM)),
        ("tid", Json::int(tid)),
        ("s", Json::str("t")),
        ("args", args),
    ])
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

/// The Chrome rendering of one tapped event, `None` for kinds a trace
/// does not export.
fn sim_event(cycle: u64, hart: u64, event: &Event) -> Option<Json> {
    let row = |path: u32| sim_row(hart, u64::from(path));
    Some(match *event {
        Event::StageSample {
            ruu,
            lsq,
            fetch_queue,
            live_paths,
        } => Json::obj([
            ("name", Json::str("occupancy")),
            ("ph", Json::str("C")),
            ("ts", Json::int(cycle)),
            ("pid", Json::int(PID_SIM)),
            ("tid", Json::int(0)),
            (
                "args",
                Json::obj([
                    ("ruu", Json::int(u64::from(ruu))),
                    ("lsq", Json::int(u64::from(lsq))),
                    ("fetch_queue", Json::int(u64::from(fetch_queue))),
                    ("live_paths", Json::int(u64::from(live_paths))),
                ]),
            ),
        ]),
        Event::RasPush {
            path,
            addr,
            overflow,
            ..
        } => instant(
            if overflow {
                "ras_push(overflow)"
            } else {
                "ras_push"
            },
            "ras",
            cycle,
            row(path),
            Json::obj([("addr", hex(addr))]),
        ),
        Event::RasPop {
            path,
            predicted,
            flags,
            ..
        } => {
            let (addr, valid, underflow) = pop_view(predicted, flags);
            instant(
                if underflow {
                    "ras_pop(underflow)"
                } else {
                    "ras_pop"
                },
                "ras",
                cycle,
                row(path),
                Json::obj([("addr", hex(addr)), ("valid", Json::Bool(valid))]),
            )
        }
        Event::RasCheckpoint {
            path,
            policy,
            words,
            ..
        } => instant(
            "ras_save",
            "ras",
            cycle,
            row(path),
            Json::obj([
                ("policy", Json::str(policy)),
                ("words", Json::int(u64::from(words))),
            ]),
        ),
        Event::RasRestore { path, policy, .. } => instant(
            "ras_repair",
            "ras",
            cycle,
            row(path),
            Json::obj([("policy", Json::str(policy))]),
        ),
        Event::RasFork { parent, child } => instant(
            "ras_fork",
            "ras",
            cycle,
            u64::from(parent),
            Json::obj([("child", Json::int(u64::from(child)))]),
        ),
        Event::ReturnMispredict { pc, cause } => instant(
            "return_mispredict",
            "ras",
            cycle,
            row(0),
            Json::obj([("pc", hex(pc.word())), ("cause", Json::str(cause.label()))]),
        ),
        Event::BranchResolve {
            path,
            pc,
            mispredict,
        } => instant(
            if mispredict { "mispredict" } else { "branch" },
            "branch",
            cycle,
            row(path),
            Json::obj([("pc", hex(pc.word()))]),
        ),
        Event::Squash { path, uops } => instant(
            "squash",
            "squash",
            cycle,
            row(path),
            Json::obj([("uops", Json::int(u64::from(uops)))]),
        ),
        Event::CacheAccess { cache, addr, hit } => instant(
            if hit { "hit" } else { "miss" },
            cache.name(),
            cycle,
            CACHE_ROW,
            Json::obj([("addr", hex(addr))]),
        ),
        Event::Commit { .. }
        | Event::RasRelease { .. }
        | Event::Fetch { .. }
        | Event::Uop { .. } => return None,
    })
}

/// Converts a trace to a Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {..}}`.
pub fn chrome_trace(trace: &Trace) -> Json {
    let mut events = vec![
        meta("engine (wall clock)", PID_ENGINE),
        meta("simulator (1us = 1 cycle)", PID_SIM),
    ];
    for rec in trace.events() {
        let out = match rec {
            TraceEvent::JobSpan {
                job,
                worker,
                label,
                start_us,
                dur_us,
            } => complete(
                label,
                worker + 1,
                *start_us,
                *dur_us,
                Json::obj([("job", Json::int(*job))]),
            ),
            TraceEvent::ExptSpan {
                label,
                start_us,
                dur_us,
            } => complete(label, 0, *start_us, *dur_us, Json::obj::<String>([])),
            TraceEvent::Sim { cycle, hart, event } => {
                match sim_event(*cycle, u64::from(*hart), event) {
                    Some(json) => json,
                    None => continue,
                }
            }
        };
        events.push(out);
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                ("tool", Json::str("hydra-trace")),
                ("dropped_events", Json::int(trace.dropped())),
            ]),
        ),
    ])
}

// Cache events render on their own sim-process row, away from the
// per-path RAS rows (paths are small integers).
const CACHE_ROW: u64 = 1_000;

/// Sim-process row for per-hart, per-path events: each hart gets its own
/// band of path rows so a two-hart capture renders two separate
/// timelines. Hart 0 keeps the historical `tid == path` mapping.
fn sim_row(hart: u64, path: u64) -> u64 {
    hart * 100 + path
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_pipeline::Cache;

    fn sim(cycle: u64, hart: u8, event: Event) -> TraceEvent {
        TraceEvent::Sim { cycle, hart, event }
    }

    #[test]
    fn produces_parseable_trace_event_document() {
        let trace = Trace::of(
            vec![
                TraceEvent::JobSpan {
                    job: 0,
                    worker: 2,
                    label: "gcc/tos+contents".into(),
                    start_us: 100,
                    dur_us: 900,
                },
                TraceEvent::ExptSpan {
                    label: "fig-repair".into(),
                    start_us: 0,
                    dur_us: 1500,
                },
                sim(
                    10,
                    0,
                    Event::RasPush {
                        hart: 0,
                        path: 0,
                        addr: 0x40,
                        overflow: false,
                    },
                ),
                sim(
                    20,
                    1,
                    Event::RasRestore {
                        hart: 1,
                        path: 0,
                        id: 3,
                        policy: "tos+contents",
                    },
                ),
                sim(
                    10,
                    0,
                    Event::StageSample {
                        ruu: 5,
                        lsq: 2,
                        fetch_queue: 3,
                        live_paths: 1,
                    },
                ),
                sim(
                    11,
                    0,
                    Event::CacheAccess {
                        cache: Cache::L1i,
                        addr: 0x80,
                        hit: true,
                    },
                ),
                sim(12, 0, Event::RasRelease { id: 3 }),
            ],
            7,
        );
        let doc = chrome_trace(&trace);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("chrome export is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("top-level traceEvents array");
        // 2 process-name metadata + 6 exported events (releases are not).
        assert_eq!(events.len(), 8);
        // Hart 1's repair lands in hart 1's row band, away from hart 0.
        assert_eq!(events[5].get("tid").and_then(Json::as_num), Some(100.0));
        // Every event carries the required ph/pid/ts-or-M shape.
        for ev in events {
            assert!(ev.get("ph").and_then(Json::as_str).is_some());
            assert!(ev.get("pid").and_then(Json::as_num).is_some());
        }
        assert_eq!(
            parsed
                .get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_num),
            Some(7.0)
        );
    }

    #[test]
    fn job_spans_land_on_engine_process_rows() {
        let trace = Trace::of(
            vec![TraceEvent::JobSpan {
                job: 3,
                worker: 1,
                label: "perl/none".into(),
                start_us: 5,
                dur_us: 0, // zero-length spans are widened to render
            }],
            0,
        );
        let doc = chrome_trace(&trace);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let span = &events[2];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("pid").and_then(Json::as_num), Some(1.0));
        assert_eq!(span.get("tid").and_then(Json::as_num), Some(2.0));
        assert_eq!(span.get("dur").and_then(Json::as_num), Some(1.0));
    }
}
