//! Pipeline tracing — a textual Gantt view of instruction flow.
//!
//! SimpleScalar shipped `ptrace` for watching instructions move through
//! the pipeline; this is the equivalent. With [`PipeTrace::CLASSES`]
//! tapped ([`Core::set_tap`](crate::Core::set_tap)), the core records
//! when each micro-op was fetched, dispatched, issued, completed and
//! retired (or squashed); [`PipeTrace::record`] folds those marks into
//! per-micro-op lifetimes, and [`PipeTrace::render_window`] draws the
//! classic stage chart:
//!
//! ```text
//! seq    pc     instruction        |F..DI.X....C|
//! ```
//!
//! with one column per cycle: `F`etch, `D`ispatch, `I`ssue, e`X`ecute
//! complete, `C`ommit (or `s` for the squash point of discarded wrong-path
//! work).

use crate::event::{Event, EventClass, EventMask, Stamped, UopStage};
use hydra_isa::{Addr, Inst};
use std::collections::VecDeque;
use std::fmt;

/// Lifetime timestamps of one traced micro-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopRecord {
    /// Fetch sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: Addr,
    /// The instruction.
    pub inst: Inst,
    /// Cycle fetched.
    pub fetched_at: u64,
    /// Cycle dispatched into the RUU.
    pub dispatched_at: Option<u64>,
    /// Cycle issued to a functional unit.
    pub issued_at: Option<u64>,
    /// Cycle the result became available.
    pub completed_at: Option<u64>,
    /// Cycle retired (committed, or drained if squashed).
    pub retired_at: Option<u64>,
    /// Cycle the micro-op was squashed, if it was wrong-path work.
    pub squashed_at: Option<u64>,
}

impl UopRecord {
    fn new(seq: u64, pc: Addr, inst: Inst, cycle: u64) -> Self {
        UopRecord {
            seq,
            pc,
            inst,
            fetched_at: cycle,
            dispatched_at: None,
            issued_at: None,
            completed_at: None,
            retired_at: None,
            squashed_at: None,
        }
    }
}

/// A bounded record of recent micro-op lifetimes.
///
/// The trace keeps the most recent `capacity` micro-ops; older records
/// are dropped as new ones arrive, so tracing a long run costs constant
/// memory.
#[derive(Debug, Clone)]
pub struct PipeTrace {
    records: VecDeque<UopRecord>,
    capacity: usize,
}

impl PipeTrace {
    /// The tap classes a pipe trace folds.
    pub const CLASSES: EventMask = EventMask::NONE.with(EventClass::Pipe);

    /// An empty trace keeping the most recent `capacity` micro-ops.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be > 0");
        PipeTrace {
            records: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Folds one tapped event in; events outside [`PipeTrace::CLASSES`]
    /// are ignored.
    pub fn record(&mut self, s: &Stamped) {
        match s.event {
            Event::Fetch { seq, pc, inst } => self.on_fetch(seq, pc, inst, s.cycle),
            Event::Uop { seq, stage } => {
                if let Some(r) = self.find(seq) {
                    let at = match stage {
                        UopStage::Dispatch => &mut r.dispatched_at,
                        UopStage::Issue => &mut r.issued_at,
                        UopStage::Complete => &mut r.completed_at,
                        UopStage::Retire => &mut r.retired_at,
                        UopStage::Squash => &mut r.squashed_at,
                    };
                    *at = Some(s.cycle);
                }
            }
            _ => {}
        }
    }

    fn on_fetch(&mut self, seq: u64, pc: Addr, inst: Inst, cycle: u64) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(UopRecord::new(seq, pc, inst, cycle));
    }

    fn find(&mut self, seq: u64) -> Option<&mut UopRecord> {
        // Records are seq-ordered; binary search.
        let idx = self.records.binary_search_by_key(&seq, |r| r.seq).ok()?;
        self.records.get_mut(idx)
    }

    /// The traced records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &UopRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been traced yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the stage chart for micro-ops whose lifetime intersects
    /// `[start_cycle, start_cycle + width)`.
    ///
    /// Stage letters: `F` fetch, `D` dispatch, `I` issue, `X` complete,
    /// `C` commit, `s` squash; `.` marks cycles the micro-op was in
    /// flight between stages.
    pub fn render_window(&self, start_cycle: u64, width: usize) -> String {
        let end = start_cycle + width as u64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6}  {:>8}  {:<28} |cycles {start_cycle}..{end}|\n",
            "seq", "pc", "instruction"
        ));
        for r in &self.records {
            let last = r
                .retired_at
                .or(r.squashed_at)
                .or(r.completed_at)
                .or(r.issued_at)
                .or(r.dispatched_at)
                .unwrap_or(r.fetched_at);
            if last < start_cycle || r.fetched_at >= end {
                continue;
            }
            let mut lane = vec![b' '; width];
            // Fill the in-flight span with dots first, then stage letters.
            let span_start = r.fetched_at.max(start_cycle);
            let span_end = last.min(end - 1);
            for c in span_start..=span_end {
                lane[(c - start_cycle) as usize] = b'.';
            }
            let mut mark = |cycle: Option<u64>, ch: u8| {
                if let Some(c) = cycle {
                    if c >= start_cycle && c < end {
                        let slot = (c - start_cycle) as usize;
                        lane[slot] = ch;
                    }
                }
            };
            mark(Some(r.fetched_at), b'F');
            mark(r.dispatched_at, b'D');
            mark(r.issued_at, b'I');
            mark(r.completed_at, b'X');
            mark(
                r.retired_at,
                if r.squashed_at.is_some() { b's' } else { b'C' },
            );
            if r.retired_at.is_none() {
                mark(r.squashed_at, b's');
            }
            let lane = String::from_utf8(lane).expect("ascii lane");
            let squashed = if r.squashed_at.is_some() {
                " (squashed)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:>6}  {:>8}  {:<28} |{lane}|{squashed}\n",
                r.seq,
                r.pc.to_string(),
                r.inst.to_string(),
            ));
        }
        out
    }
}

impl fmt::Display for PipeTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let start = self.records.front().map(|r| r.fetched_at).unwrap_or(0);
        f.write_str(&self.render_window(start, 80))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(t: &mut PipeTrace, seq: u64, stage: UopStage, cycle: u64) {
        t.record(&Stamped {
            cycle,
            event: Event::Uop { seq, stage },
        });
    }

    fn record_flow(t: &mut PipeTrace, seq: u64, base: u64) {
        t.on_fetch(seq, Addr::new(seq), Inst::Nop, base);
        mark(t, seq, UopStage::Dispatch, base + 3);
        mark(t, seq, UopStage::Issue, base + 4);
        mark(t, seq, UopStage::Complete, base + 5);
        mark(t, seq, UopStage::Retire, base + 7);
    }

    #[test]
    fn records_full_lifetime() {
        let mut t = PipeTrace::new(8);
        record_flow(&mut t, 1, 10);
        let r = t.records().next().unwrap();
        assert_eq!(r.fetched_at, 10);
        assert_eq!(r.dispatched_at, Some(13));
        assert_eq!(r.issued_at, Some(14));
        assert_eq!(r.completed_at, Some(15));
        assert_eq!(r.retired_at, Some(17));
        assert_eq!(r.squashed_at, None);
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut t = PipeTrace::new(2);
        for seq in 1..=3 {
            t.on_fetch(seq, Addr::new(seq), Inst::Nop, seq * 10);
        }
        assert_eq!(t.len(), 2);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    fn render_window_draws_stages() {
        let mut t = PipeTrace::new(8);
        record_flow(&mut t, 1, 10);
        let s = t.render_window(10, 10);
        let lane_line = s.lines().nth(1).unwrap();
        assert!(lane_line.contains("|F..DIX.C  |"), "got: {lane_line}");
    }

    #[test]
    fn squashed_uops_marked() {
        let mut t = PipeTrace::new(8);
        t.on_fetch(5, Addr::new(5), Inst::Nop, 20);
        mark(&mut t, 5, UopStage::Squash, 22);
        mark(&mut t, 5, UopStage::Retire, 25);
        let s = t.render_window(20, 10);
        assert!(s.contains("(squashed)"));
        assert!(s.lines().nth(1).unwrap().contains('s'));
    }

    #[test]
    fn window_filters_unrelated_uops() {
        let mut t = PipeTrace::new(8);
        record_flow(&mut t, 1, 10);
        record_flow(&mut t, 2, 500);
        let s = t.render_window(10, 20);
        assert_eq!(s.lines().count(), 2, "header + one uop: {s}");
    }

    #[test]
    fn display_is_nonempty() {
        let mut t = PipeTrace::new(4);
        record_flow(&mut t, 1, 0);
        assert!(!format!("{t}").is_empty());
        assert!(!t.is_empty());
    }
}
