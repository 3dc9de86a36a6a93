//! In-flight micro-op representation.

use crate::path::PathId;
use crate::ras_unit::CkptHandle;
use crate::stats::ReturnSource;
use hydra_bpred::DirectionPrediction;
use hydra_isa::{Addr, Inst};

/// Execution state of a micro-op in the RUU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UopState {
    /// Dispatched; waiting for operands or an issue slot.
    Waiting,
    /// Issued to a functional unit; completes at the given cycle.
    Issued {
        /// Cycle at which the result becomes available.
        done_at: u64,
    },
    /// Result available; control instructions have been resolved.
    Done,
}

/// Sentinel for "no slot" in slab/LSQ index links.
pub(crate) const NIL: u32 = u32::MAX;

/// A source operand after renaming.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// No operand in this slot.
    #[default]
    None,
    /// Value known at dispatch (architectural, immediate-like, or an
    /// already-completed producer).
    Value(i64),
    /// Waiting on the in-flight producer with sequence number `seq`,
    /// which lives in slab slot `slot` (so reading the operand needs no
    /// search). Only `seq` is serialized; a snapshot decode recovers
    /// `slot` from the slab.
    Pending {
        /// The producer's sequence number.
        seq: u64,
        /// The producer's slab slot.
        slot: u32,
    },
}

/// One in-flight micro-op: an instruction plus everything the pipeline
/// learned about it at fetch (predictions, checkpoints, path) and during
/// execution (values, resolved control flow).
#[derive(Debug, Clone)]
pub(crate) struct Uop {
    /// Global fetch sequence number (unique, monotone).
    pub seq: u64,
    /// The execution path that fetched this micro-op.
    pub path: PathId,
    /// Instruction address.
    pub pc: Addr,
    /// The instruction (a `Nop` stand-in when `wild`).
    pub inst: Inst,
    /// Fetched from outside the program image (a wild wrong-path fetch
    /// after severe RAS corruption); must never commit.
    pub wild: bool,
    /// The next PC fetch predicted after this instruction.
    pub pred_next_pc: Addr,
    /// Direction-predictor state recorded at fetch (conditional branches).
    pub dir_pred: Option<DirectionPrediction>,
    /// The path's speculative global history before this instruction
    /// shifted it (speculation points only; used for history repair).
    pub history_at_fetch: Option<u64>,
    /// Return-address-stack checkpoint taken at this speculation point.
    pub ras_ckpt: Option<CkptHandle>,
    /// Where the return-target prediction came from (returns only).
    pub return_source: Option<ReturnSource>,
    /// Child path forked at this branch (multipath).
    pub forked_child: Option<PathId>,
    /// Renamed source operands.
    pub srcs: [Src; 2],
    /// Execution state.
    pub state: UopState,
    /// Destination value (once executed).
    pub result: Option<i64>,
    /// Resolved next PC (control instructions, once executed).
    pub actual_next_pc: Option<Addr>,
    /// Resolved direction (conditional branches, once executed).
    pub taken_actual: Option<bool>,
    /// Effective address (loads/stores, once address-generated).
    pub mem_addr: Option<u64>,
    /// Value to store (stores, once executed).
    pub store_value: Option<i64>,
    /// Squashed by a misprediction or a losing path; drains without
    /// committing.
    pub squashed: bool,
    /// Control resolution already handled (guards double resolution).
    pub resolved: bool,
    /// Held in the RUU: set at dispatch, cleared when commit (or a
    /// fetch-queue flush) frees the slot. Derived state, not serialized:
    /// a snapshot decode sets it for the RUU's slots.
    pub in_ruu: bool,
    /// Wakeup list: `(consumer slab slot, source index)` pairs registered
    /// at rename time. When this producer completes, these entries are
    /// the candidates for the ready list; when it retires, they are
    /// patched to the concrete value — no window-wide broadcast scan
    /// either time. Entries are validated on use (`srcs[i]` still names
    /// this producer), so stale registrations from recycled slots are
    /// harmless. The buffer's capacity is kept across slot reuse, so
    /// steady state allocates nothing.
    pub consumers: Vec<(u32, u8)>,
    /// This micro-op's LSQ slot ([`NIL`] when it holds none), making
    /// commit- and squash-time LSQ removal O(1) instead of a retain scan.
    pub lsq_slot: u32,
    /// RAS pop-time evidence bits recorded at fetch (returns only; see
    /// [`hydra_obs::popflags`]), used by commit to classify a
    /// misprediction.
    pub pop_flags: u8,
    /// CPI-stack cause this micro-op's commit slot is charged to if it
    /// drains squashed.
    pub squash_cause: hydra_obs::LostCause,
}

impl Uop {
    /// Creates a freshly fetched micro-op with no execution state.
    pub fn new(seq: u64, path: PathId, pc: Addr, inst: Inst, pred_next_pc: Addr) -> Self {
        Uop {
            seq,
            path,
            pc,
            inst,
            wild: false,
            pred_next_pc,
            dir_pred: None,
            history_at_fetch: None,
            ras_ckpt: None,
            return_source: None,
            forked_child: None,
            srcs: [Src::None, Src::None],
            state: UopState::Waiting,
            result: None,
            actual_next_pc: None,
            taken_actual: None,
            mem_addr: None,
            store_value: None,
            squashed: false,
            resolved: false,
            in_ruu: false,
            consumers: Vec::new(),
            lsq_slot: NIL,
            pop_flags: 0,
            squash_cause: hydra_obs::LostCause::Other,
        }
    }

    /// Resets a recycled slab slot to the freshly-fetched state of
    /// [`Uop::new`], keeping the wakeup list's allocated capacity.
    pub fn reset(&mut self, seq: u64, path: PathId, pc: Addr, inst: Inst, pred_next_pc: Addr) {
        let consumers = std::mem::take(&mut self.consumers);
        *self = Uop::new(seq, path, pc, inst, pred_next_pc);
        self.consumers = consumers;
        self.consumers.clear();
    }

    /// Whether this micro-op's result is available.
    pub fn is_done(&self) -> bool {
        self.state == UopState::Done
    }

    /// Whether this is a control transfer needing resolution.
    pub fn is_control(&self) -> bool {
        self.inst.control_kind().is_control()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_uop_defaults() {
        let u = Uop::new(1, PathId::ROOT, Addr::new(4), Inst::Nop, Addr::new(5));
        assert_eq!(u.state, UopState::Waiting);
        assert!(!u.is_done());
        assert!(!u.is_control());
        assert!(!u.squashed);
        assert_eq!(u.srcs, [Src::None, Src::None]);
    }

    #[test]
    fn control_classification() {
        let u = Uop::new(1, PathId::ROOT, Addr::new(4), Inst::Return, Addr::new(9));
        assert!(u.is_control());
    }
}
