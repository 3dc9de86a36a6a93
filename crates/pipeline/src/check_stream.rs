//! The differential-check event stream.
//!
//! When a caller turns the stream on with
//! [`Core::enable_check_stream`](crate::Core::enable_check_stream), the
//! core records one [`CheckEvent`] per architectural commit and per
//! speculative return-address-stack interaction. An external oracle
//! (the `hydra-check` crate) replays the stream against naive reference
//! models: the commit records pin the architectural instruction stream
//! to the `hydra-isa` functional machine, and the RAS records pin every
//! speculative push, pop, checkpoint, restore and release to a textbook
//! reimplementation of the repair policies.
//!
//! The tap is always compiled. While the stream is off each recording
//! site costs one branch on a `None`, so the per-cycle hot path keeps its
//! allocation-free contract.

use crate::stats::ReturnSource;
use hydra_isa::{Addr, Inst};

/// One observation from the running pipeline, in program/stream order.
///
/// RAS events are *speculative*: they happen at fetch (push, pop,
/// checkpoint) and at branch resolution or squash (restore, release),
/// exactly when the hardware structures mutate. Commit events are
/// architectural: squashed micro-ops never produce one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckEvent {
    /// An instruction retired.
    Commit {
        /// Fetch sequence number of the retiring micro-op.
        seq: u64,
        /// Address of the retired instruction.
        pc: Addr,
        /// The instruction itself.
        inst: Inst,
        /// The architecturally correct next program counter.
        next_pc: Addr,
        /// What the front end predicted the next PC would be.
        pred_next_pc: Addr,
        /// For returns, where the predicted target came from.
        return_source: Option<ReturnSource>,
    },
    /// A call pushed a return address at fetch.
    RasPush {
        /// Hardware thread that performed the push.
        hart: u8,
        /// Fetch path that performed the push.
        path: u32,
        /// The pushed (predicted) return address, in words.
        addr: u64,
    },
    /// A return popped the stack at fetch. `predicted` is the stack's
    /// raw answer — `None` when the entry was invalidated (valid-bit
    /// repair) and the front end fell back to the BTB.
    RasPop {
        /// Hardware thread that performed the pop.
        hart: u8,
        /// Fetch path that performed the pop.
        path: u32,
        /// The stack's prediction, before any BTB fallback.
        predicted: Option<u64>,
    },
    /// A speculation point captured a repair checkpoint. Only emitted
    /// when a checkpoint was actually taken (the shadow budget had a
    /// free slot), so replaying the stream models budget exhaustion for
    /// free.
    RasCheckpoint {
        /// Hardware thread that took the checkpoint.
        hart: u8,
        /// Fetch path whose stack was checkpointed.
        path: u32,
        /// Handle identity: the owning micro-op's sequence number.
        id: u64,
    },
    /// A mispredicted speculation point repaired the stack from its
    /// checkpoint.
    RasRestore {
        /// Hardware thread whose stack was repaired.
        hart: u8,
        /// Fetch path whose stack was repaired.
        path: u32,
        /// The checkpoint being consumed.
        id: u64,
    },
    /// A checkpoint was discarded without repair: its speculation point
    /// resolved correctly or was squashed from an older misprediction.
    RasRelease {
        /// The checkpoint being discarded.
        id: u64,
    },
}
