//! Event traces of experiment runs (`expt --trace`).
//!
//! A trace is a sink on the pipeline's event tap
//! ([`hydra_pipeline::Event`]): each traced job turns the tap on for its
//! core's RAS, branch, squash, stage and cache classes (as filtered),
//! drains it into a [`Trace`] of its own, and the engine appends the
//! job traces in plan order, each followed by the job's wall-clock span.
//! No state is shared between jobs or threads, so the simulation-time
//! part of a trace is the same for any `--jobs`.
//!
//! A trace retains the newest [`RETAINED`] events; older ones are
//! dropped and counted, and every export reports the count, so
//! truncation is never silent. Exports: Chrome trace-event JSON for
//! Perfetto / `chrome://tracing` ([`chrome`]), newline-delimited JSON
//! ([`ndjson`]), and a human-readable RAS timeline ([`timeline`]).
//!
//! Tracing only observes: events are built from values the simulator
//! already computed, so results are byte-identical with and without
//! `--trace`, and while the tap is off each recording site costs one
//! branch.

pub mod chrome;
pub mod ndjson;
pub mod timeline;

use hydra_pipeline::{popflags, Core, Event, EventClass, EventMask, SimStats, Stamped, System};
use hydra_stats::Json;
use std::collections::VecDeque;
use std::time::Instant;

/// Events a trace keeps; the oldest are dropped beyond this.
pub const RETAINED: usize = 1 << 20;

/// Commits per tap drain while a traced core runs, bounding the tap's
/// buffer.
const DRAIN_EVERY: u64 = 4096;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A tapped core event.
    Sim {
        /// The core's cycle.
        cycle: u64,
        /// The core's hardware thread.
        hart: u8,
        /// The event.
        event: Event,
    },
    /// One engine job's wall-clock span.
    JobSpan {
        /// Job index in plan order.
        job: u64,
        /// Worker thread that ran it.
        worker: u64,
        /// Job label (workload/config).
        label: String,
        /// Start, µs since the trace started.
        start_us: u64,
        /// Duration in µs.
        dur_us: u64,
    },
    /// A whole experiment's wall-clock span.
    ExptSpan {
        /// Experiment name.
        label: String,
        /// Start, µs since the trace started.
        start_us: u64,
        /// Duration in µs.
        dur_us: u64,
    },
}

/// A stack pop as the exporters show it: `(addr, valid, underflow)`.
/// An empty prediction is an invalidated entry when the pop-time
/// evidence says so, and an empty stack otherwise.
fn pop_view(predicted: Option<u64>, flags: u8) -> (u64, bool, bool) {
    let underflow = flags & popflags::UNDERFLOW != 0
        || (predicted.is_none() && flags & popflags::INVALID_ENTRY == 0);
    (predicted.unwrap_or(0), predicted.is_some(), underflow)
}

impl TraceEvent {
    /// The event as a JSON object with a `kind` tag and stable field
    /// names, or `None` for tap events traces do not export (commits,
    /// releases, stage marks).
    pub fn to_json(&self) -> Option<Json> {
        let hex = |v: u64| Json::Str(format!("{v:#x}"));
        let kind = |k: &str| ("kind", Json::str(k));
        let (cycle, hart, event) = match self {
            TraceEvent::JobSpan {
                job,
                worker,
                label,
                start_us,
                dur_us,
            } => {
                return Some(Json::obj([
                    kind("job_span"),
                    ("job", Json::int(*job)),
                    ("worker", Json::int(*worker)),
                    ("label", Json::str(label)),
                    ("start_us", Json::int(*start_us)),
                    ("dur_us", Json::int(*dur_us)),
                ]))
            }
            TraceEvent::ExptSpan {
                label,
                start_us,
                dur_us,
            } => {
                return Some(Json::obj([
                    kind("expt_span"),
                    ("label", Json::str(label)),
                    ("start_us", Json::int(*start_us)),
                    ("dur_us", Json::int(*dur_us)),
                ]))
            }
            TraceEvent::Sim { cycle, hart, event } => {
                (Json::int(*cycle), Json::int(u64::from(*hart)), event)
            }
        };
        let path = |p: &u32| ("path", Json::int(u64::from(*p)));
        Some(match *event {
            Event::RasPush {
                path: p,
                addr,
                overflow,
                ..
            } => Json::obj([
                kind("ras_push"),
                ("cycle", cycle),
                ("hart", hart),
                path(&p),
                ("addr", hex(addr)),
                ("overflow", Json::Bool(overflow)),
            ]),
            Event::RasPop {
                path: p,
                predicted,
                flags,
                ..
            } => {
                let (addr, valid, underflow) = pop_view(predicted, flags);
                Json::obj([
                    kind("ras_pop"),
                    ("cycle", cycle),
                    ("hart", hart),
                    path(&p),
                    ("addr", hex(addr)),
                    ("valid", Json::Bool(valid)),
                    ("underflow", Json::Bool(underflow)),
                ])
            }
            Event::RasCheckpoint {
                path: p,
                policy,
                words,
                ..
            } => Json::obj([
                kind("ras_save"),
                ("cycle", cycle),
                ("hart", hart),
                path(&p),
                ("policy", Json::str(policy)),
                ("words", Json::int(u64::from(words))),
            ]),
            Event::RasRestore {
                path: p, policy, ..
            } => Json::obj([
                kind("ras_repair"),
                ("cycle", cycle),
                ("hart", hart),
                path(&p),
                ("policy", Json::str(policy)),
            ]),
            Event::RasFork { parent, child } => Json::obj([
                kind("ras_fork"),
                ("cycle", cycle),
                ("parent", Json::int(u64::from(parent))),
                ("child", Json::int(u64::from(child))),
            ]),
            Event::ReturnMispredict { pc, cause } => Json::obj([
                kind("return_mispredict_cause"),
                ("cycle", cycle),
                ("hart", hart),
                ("pc", hex(pc.word())),
                ("cause", Json::str(cause.label())),
            ]),
            Event::BranchResolve {
                path: p,
                pc,
                mispredict,
            } => Json::obj([
                kind("branch_resolve"),
                ("cycle", cycle),
                ("hart", hart),
                path(&p),
                ("pc", hex(pc.word())),
                ("mispredict", Json::Bool(mispredict)),
            ]),
            Event::Squash { path: p, uops } => Json::obj([
                kind("squash"),
                ("cycle", cycle),
                ("hart", hart),
                path(&p),
                ("uops", Json::int(u64::from(uops))),
            ]),
            Event::StageSample {
                ruu,
                lsq,
                fetch_queue,
                live_paths,
            } => Json::obj([
                kind("stage_sample"),
                ("cycle", cycle),
                ("ruu", Json::int(u64::from(ruu))),
                ("lsq", Json::int(u64::from(lsq))),
                ("fetch_queue", Json::int(u64::from(fetch_queue))),
                ("live_paths", Json::int(u64::from(live_paths))),
            ]),
            Event::CacheAccess { cache, addr, hit } => Json::obj([
                kind("cache_access"),
                ("cycle", cycle),
                ("cache", Json::str(cache.name())),
                ("addr", hex(addr)),
                ("hit", Json::Bool(hit)),
            ]),
            Event::Commit { .. }
            | Event::RasRelease { .. }
            | Event::Fetch { .. }
            | Event::Uop { .. } => return None,
        })
    }
}

/// What a trace records (`--trace-filter`): tap classes plus the
/// engine's wall-clock spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    sim: EventMask,
    engine: bool,
}

/// The `--trace-filter` keywords and the tap classes they name.
const KEYWORDS: [(&str, Option<EventClass>); 6] = [
    ("ras", Some(EventClass::Ras)),
    ("branch", Some(EventClass::Branch)),
    ("squash", Some(EventClass::Squash)),
    ("stage", Some(EventClass::Stage)),
    ("cache", Some(EventClass::Cache)),
    ("engine", None),
];

impl TraceFilter {
    /// Parses a comma-separated keyword list (`ras,branch`); empty or
    /// `all` means every keyword, `none` none. Unknown keywords are
    /// reported back as errors.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = match spec.trim() {
            "" | "all" => "ras,branch,squash,stage,cache,engine",
            "none" => "",
            s => s,
        };
        let mut filter = TraceFilter {
            sim: EventMask::NONE,
            engine: false,
        };
        for word in spec.split(',').map(str::trim).filter(|w| !w.is_empty()) {
            match KEYWORDS.iter().find(|(name, _)| *name == word) {
                Some((_, Some(class))) => filter.sim = filter.sim.with(*class),
                Some((_, None)) => filter.engine = true,
                None => {
                    return Err(format!(
                        "unknown event class `{word}` (expected one of: {}, all, none)",
                        KEYWORDS.map(|(name, _)| name).join(", ")
                    ))
                }
            }
        }
        Ok(filter)
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::parse("all").expect("`all` parses")
    }
}

/// A recorded trace: the newest [`RETAINED`] events, in record order,
/// and the count of older ones dropped.
#[derive(Debug, Clone)]
pub struct Trace {
    filter: TraceFilter,
    start: Instant,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// An empty trace recording what `filter` names; its wall clock
    /// starts now.
    pub fn new(filter: TraceFilter) -> Self {
        Trace {
            filter,
            start: Instant::now(),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// An empty trace with this one's filter and wall clock, for one
    /// job to record into before [`Trace::append`] merges it.
    pub(crate) fn for_job(&self) -> Self {
        Trace {
            events: VecDeque::new(),
            dropped: 0,
            ..*self
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events dropped to keep the trace within [`RETAINED`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Microseconds since the trace started.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == RETAINED {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Records a wall-clock span, if the filter keeps engine events.
    pub fn span(&mut self, span: TraceEvent) {
        if self.filter.engine {
            self.push(span);
        }
    }

    /// Appends `other`'s events (and its dropped count) after this
    /// trace's.
    pub(crate) fn append(&mut self, other: Trace) {
        self.dropped += other.dropped;
        for event in other.events {
            self.push(event);
        }
    }

    fn absorb(&mut self, hart: u8, tapped: &mut Vec<Stamped>) {
        for s in tapped.drain(..) {
            // Releases ride the RAS class for the differential check;
            // traces do not export them.
            if matches!(s.event, Event::RasRelease { .. }) {
                continue;
            }
            self.push(TraceEvent::Sim {
                cycle: s.cycle,
                hart,
                event: s.event,
            });
        }
    }

    /// The trace as a Chrome trace-event JSON document (see [`chrome`]).
    pub fn to_chrome_json(&self) -> Json {
        chrome::chrome_trace(self)
    }

    /// Writes the trace as newline-delimited JSON (see [`ndjson`]).
    pub fn write_ndjson<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        ndjson::write_ndjson(self, w)
    }

    /// The human-readable RAS timeline (see [`timeline`]).
    pub fn ras_timeline(&self) -> String {
        timeline::ras_timeline(self)
    }

    /// A trace holding exactly `events`, for exporter tests.
    #[cfg(test)]
    pub(crate) fn of(events: Vec<TraceEvent>, dropped: u64) -> Self {
        Trace {
            events: events.into(),
            dropped,
            ..Trace::new(TraceFilter::default())
        }
    }
}

/// [`Core::run`], recording the core's tapped events into `trace` if
/// given.
pub fn run_core(core: &mut Core, max_commits: u64, trace: Option<&mut Trace>) -> SimStats {
    let Some(trace) = trace else {
        return core.run(max_commits);
    };
    core.set_tap(trace.filter.sim);
    let hart = core.hart_id().index() as u8;
    let mut tapped = Vec::new();
    let mut committed = core.stats().committed;
    loop {
        let stats = core.run((committed + DRAIN_EVERY).min(max_commits));
        core.drain_tap(&mut tapped);
        trace.absorb(hart, &mut tapped);
        if core.is_halted() || stats.committed >= max_commits {
            return stats;
        }
        committed = stats.committed;
    }
}

/// [`System::run`], recording every hart's tapped events into `trace`
/// if given, in the order the harts stepped.
pub fn run_system(
    sys: &mut System,
    max_commits_per_hart: u64,
    trace: Option<&mut Trace>,
) -> Vec<SimStats> {
    let Some(trace) = trace else {
        return sys.run(max_commits_per_hart);
    };
    for h in 0..sys.harts() {
        sys.hart(h).set_tap(trace.filter.sim);
    }
    let mut tapped = Vec::new();
    while sys.step_round(max_commits_per_hart) {
        for h in 0..sys.harts() {
            let mut hart = sys.hart(h);
            hart.drain_tap(&mut tapped);
            let id = hart.hart_id().index() as u8;
            trace.absorb(id, &mut tapped);
        }
    }
    sys.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_isa::Addr;

    fn sim(event: Event) -> TraceEvent {
        TraceEvent::Sim {
            cycle: 3,
            hart: 1,
            event,
        }
    }

    #[test]
    fn filter_parses_keyword_lists() {
        let f = TraceFilter::parse("ras,branch").unwrap();
        assert!(f.sim.contains(EventClass::Ras));
        assert!(f.sim.contains(EventClass::Branch));
        assert!(!f.sim.contains(EventClass::Stage));
        assert!(!f.engine);
        assert!(TraceFilter::parse("engine").unwrap().engine);
    }

    #[test]
    fn filter_parses_all_none_empty() {
        assert_eq!(TraceFilter::parse("").unwrap(), TraceFilter::default());
        assert_eq!(TraceFilter::parse("all").unwrap(), TraceFilter::default());
        let none = TraceFilter::parse("none").unwrap();
        assert_eq!(none.sim, EventMask::NONE);
        assert!(!none.engine);
        // The tap classes no trace exports stay off under `all`.
        let all = TraceFilter::default();
        assert!(!all.sim.contains(EventClass::Commit));
        assert!(!all.sim.contains(EventClass::Pipe));
    }

    #[test]
    fn filter_rejects_unknown_keywords() {
        let err = TraceFilter::parse("ras,bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn retained_events_are_capped_with_a_dropped_count() {
        let mut t = Trace::new(TraceFilter::default());
        let mut job = t.for_job();
        for id in 0..RETAINED as u64 + 5 {
            job.push(sim(Event::RasRelease { id }));
        }
        assert_eq!(job.dropped(), 5);
        t.span(TraceEvent::ExptSpan {
            label: "x".into(),
            start_us: 0,
            dur_us: 1,
        });
        t.append(job);
        assert_eq!(t.events().len(), RETAINED);
        assert_eq!(
            t.dropped(),
            6,
            "the job's drops plus the span it pushed out"
        );
        assert_eq!(
            t.events().next(),
            Some(&sim(Event::RasRelease { id: 5 })),
            "the newest window survives"
        );
    }

    #[test]
    fn pops_show_invalidated_entries_and_empty_stacks() {
        assert_eq!(pop_view(Some(0x40), 0), (0x40, true, false));
        assert_eq!(
            pop_view(Some(0x40), popflags::UNDERFLOW),
            (0x40, true, true),
            "a stale wrapped read"
        );
        assert_eq!(pop_view(None, popflags::INVALID_ENTRY), (0, false, false));
        assert_eq!(pop_view(None, 0), (0, false, true), "an empty stack");
    }

    #[test]
    fn event_json_round_trips_through_parser() {
        let events = [
            sim(Event::RasPush {
                hart: 1,
                path: 1,
                addr: 0xabc,
                overflow: true,
            }),
            sim(Event::RasRestore {
                hart: 1,
                path: 0,
                id: 4,
                policy: "tos+contents",
            }),
            sim(Event::BranchResolve {
                path: 0,
                pc: Addr::new(0x40),
                mispredict: true,
            }),
            sim(Event::ReturnMispredict {
                pc: Addr::new(0x44),
                cause: hydra_pipeline::MispredictCause::OverflowWrap,
            }),
            TraceEvent::ExptSpan {
                label: "fig-repair".into(),
                start_us: 10,
                dur_us: 250,
            },
        ];
        let kinds = [
            "ras_push",
            "ras_repair",
            "branch_resolve",
            "return_mispredict_cause",
            "expt_span",
        ];
        for (ev, kind) in events.iter().zip(kinds) {
            let text = ev.to_json().expect("exported kind").to_string();
            let parsed = Json::parse(&text).expect("exporter emits valid JSON");
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some(kind));
        }
        assert_eq!(sim(Event::RasRelease { id: 1 }).to_json(), None);
    }
}
