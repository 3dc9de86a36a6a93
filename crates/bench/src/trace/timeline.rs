//! Human-readable RAS timeline dump.
//!
//! A chronological listing of RAS, branch, and squash events — the
//! micro-level story the paper tells: checkpoints saved at branches,
//! wrong-path pushes/pops corrupting the stack, the squash, and the
//! repair putting it back. High-rate stage/cache samples are omitted.

use super::{pop_view, Trace, TraceEvent};
use hydra_pipeline::Event;
use std::fmt::Write;

/// Renders the RAS-relevant slice of `trace` as fixed-width text.
pub fn ras_timeline(trace: &Trace) -> String {
    let mut out = String::new();
    let mut pushes = 0u64;
    let mut pops = 0u64;
    let mut overflows = 0u64;
    let mut underflows = 0u64;
    let mut saves = 0u64;
    let mut repairs = 0u64;
    let mut mispredicts = 0u64;
    let _ = writeln!(
        out,
        "{:>10} {:>4} {:>5} {:<24} detail",
        "cycle", "hart", "path", "event"
    );
    let _ = writeln!(
        out,
        "{:-<10} {:-<4} {:-<5} {:-<24} {:-<24}",
        "", "", "", "", ""
    );
    for rec in trace.events() {
        let TraceEvent::Sim { cycle, hart, event } = rec else {
            continue;
        };
        let (hart, path, name, detail) = match *event {
            Event::RasPush {
                path,
                addr,
                overflow,
                ..
            } => {
                pushes += 1;
                overflows += u64::from(overflow);
                let name = if overflow { "push OVERFLOW" } else { "push" };
                (*hart, path, name, format!("addr={addr:#x}"))
            }
            Event::RasPop {
                path,
                predicted,
                flags,
                ..
            } => {
                let (addr, valid, underflow) = pop_view(predicted, flags);
                pops += 1;
                underflows += u64::from(underflow);
                let name = match (valid, underflow) {
                    (_, true) => "pop UNDERFLOW",
                    (false, _) => "pop (invalidated)",
                    _ => "pop",
                };
                (*hart, path, name, format!("addr={addr:#x}"))
            }
            Event::RasCheckpoint {
                path,
                policy,
                words,
                ..
            } => {
                saves += 1;
                (
                    *hart,
                    path,
                    "save",
                    format!("policy={policy} words={words}"),
                )
            }
            Event::RasRestore { path, policy, .. } => {
                repairs += 1;
                (*hart, path, "REPAIR", format!("policy={policy}"))
            }
            Event::RasFork { parent, child } => (0, parent, "fork", format!("child={child}")),
            Event::BranchResolve {
                path,
                pc,
                mispredict: true,
            } => {
                // Correct branches are noise at this zoom.
                mispredicts += 1;
                (*hart, path, "MISPREDICT", format!("pc={:#x}", pc.word()))
            }
            Event::Squash { path, uops } => (*hart, path, "squash", format!("uops={uops}")),
            _ => continue,
        };
        let _ = writeln!(out, "{cycle:>10} {hart:>4} {path:>5} {name:<24} {detail}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "events: {pushes} pushes ({overflows} overflows), {pops} pops \
         ({underflows} underflows), {saves} saves, {mispredicts} mispredicts, \
         {repairs} repairs"
    );
    if trace.dropped() > 0 {
        let _ = writeln!(
            out,
            "note: ring dropped {} oldest events; this is the tail of the run",
            trace.dropped()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_isa::Addr;

    fn at(cycle: u64, hart: u8, event: Event) -> TraceEvent {
        TraceEvent::Sim { cycle, hart, event }
    }

    fn push(hart: u8, addr: u64) -> Event {
        Event::RasPush {
            hart,
            path: 0,
            addr,
            overflow: false,
        }
    }

    fn save(hart: u8) -> Event {
        Event::RasCheckpoint {
            hart,
            path: 0,
            id: 1,
            policy: "tos+contents",
            words: 2,
        }
    }

    fn repair(hart: u8) -> Event {
        Event::RasRestore {
            hart,
            path: 0,
            id: 1,
            policy: "tos+contents",
        }
    }

    #[test]
    fn shows_corruption_and_repair_sequence() {
        // The paper's core scenario: checkpoint at a branch, wrong-path
        // pop+push corrupting the top entry, mispredict, squash, repair.
        let trace = Trace::of(
            vec![
                at(1, 0, push(0, 0x100)),
                at(2, 0, save(0)),
                at(
                    3,
                    0,
                    Event::RasPop {
                        hart: 0,
                        path: 0,
                        predicted: Some(0x100),
                        flags: 0,
                    },
                ),
                at(4, 0, push(0, 0xbad)),
                at(
                    9,
                    0,
                    Event::BranchResolve {
                        path: 0,
                        pc: Addr::new(0x40),
                        mispredict: true,
                    },
                ),
                at(9, 0, Event::Squash { path: 0, uops: 12 }),
                at(9, 0, repair(0)),
            ],
            0,
        );
        let text = ras_timeline(&trace);
        let save_at = text.find("save").unwrap();
        let bad_at = text.find("0xbad").unwrap();
        let mis_at = text.find("MISPREDICT").unwrap();
        let repair_at = text.find("REPAIR").unwrap();
        assert!(save_at < bad_at && bad_at < mis_at && mis_at < repair_at);
        assert!(text.contains("2 pushes"));
        assert!(text.contains("1 repairs"));
    }

    #[test]
    fn two_hart_capture_is_distinguishable_by_hart_column() {
        // Hart 0 saves and repairs; hart 1's wrong-path push lands in
        // between. The hart column keeps the two stories separable.
        let trace = Trace::of(
            vec![
                at(1, 0, save(0)),
                at(2, 1, push(1, 0xbad)),
                at(3, 0, repair(0)),
            ],
            0,
        );
        let text = ras_timeline(&trace);
        let hart_of = |needle: &str| {
            text.lines()
                .find(|l| l.contains(needle))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
                .unwrap()
        };
        assert_eq!(hart_of("save"), "0");
        assert_eq!(hart_of("0xbad"), "1");
        assert_eq!(hart_of("REPAIR"), "0");
    }

    #[test]
    fn correct_branches_and_samples_are_filtered() {
        let trace = Trace::of(
            vec![
                at(
                    1,
                    0,
                    Event::BranchResolve {
                        path: 0,
                        pc: Addr::new(0x10),
                        mispredict: false,
                    },
                ),
                at(
                    1,
                    0,
                    Event::StageSample {
                        ruu: 1,
                        lsq: 1,
                        fetch_queue: 1,
                        live_paths: 1,
                    },
                ),
            ],
            3,
        );
        let text = ras_timeline(&trace);
        assert!(!text.contains("0x10"));
        assert!(!text.contains("ruu"));
        assert!(text.contains("dropped 3"));
    }
}
