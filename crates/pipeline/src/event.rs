//! The core's event tap: the one instrumentation seam of the pipeline.
//!
//! A caller turns the tap on with
//! [`Core::set_tap`](crate::Core::set_tap), naming the [`EventClass`]es
//! it wants in an [`EventMask`]; the core then records one [`Event`] per
//! observation of those classes, stamped with its cycle, and the caller
//! drains them with [`Core::drain_tap`](crate::Core::drain_tap). Every
//! consumer is a sink over the drained stream:
//!
//! * the `hydra-check` oracles ask for [`EventClass::Commit`] and
//!   [`EventClass::Ras`]: the commit records pin the architectural
//!   instruction stream to the `hydra-isa` functional machine, and the
//!   RAS records pin every speculative push, pop, checkpoint, restore
//!   and release to a textbook reimplementation of the repair policies;
//! * [`PipeTrace`](crate::PipeTrace) folds [`EventClass::Pipe`] marks
//!   into a stage chart;
//! * `expt --trace` exports the RAS, branch, squash, stage and cache
//!   classes as Chrome-trace, NDJSON and RAS-timeline documents.
//!
//! The tap is always compiled. While a class is off, each recording site
//! costs one branch on the mask, so the per-cycle hot path keeps its
//! allocation-free contract.

use crate::stats::ReturnSource;
use hydra_isa::{Addr, Inst};
use hydra_obs::MispredictCause;

/// One observation from the running pipeline, in program/stream order.
///
/// RAS events are *speculative*: they happen at fetch (push, pop,
/// checkpoint) and at branch resolution or squash (restore, release),
/// exactly when the hardware structures mutate. Commit events are
/// architectural: squashed micro-ops never produce one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
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
    /// A call pushed a return address onto a stack at fetch. Machines
    /// without a stack (BTB-only) record none.
    RasPush {
        /// Hardware thread that performed the push.
        hart: u8,
        /// Fetch path that performed the push.
        path: u32,
        /// The pushed (predicted) return address, in words.
        addr: u64,
        /// The push overwrote a live entry (the stack was full).
        overflow: bool,
    },
    /// A return popped the stack at fetch. `predicted` is the stack's
    /// raw answer — `None` when the entry was invalidated (valid-bit
    /// repair) or the stack was empty, and the front end fell back to
    /// the BTB.
    RasPop {
        /// Hardware thread that performed the pop.
        hart: u8,
        /// Fetch path that performed the pop.
        path: u32,
        /// The stack's prediction, before any BTB fallback.
        predicted: Option<u64>,
        /// The pop-time evidence bits ([`hydra_obs::popflags`]).
        flags: u8,
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
        /// Repair policy short name (e.g. `tos+contents`).
        policy: &'static str,
        /// Checkpoint storage cost in 64-bit words.
        words: u32,
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
        /// Repair policy short name.
        policy: &'static str,
    },
    /// A checkpoint was discarded without repair: its speculation point
    /// resolved correctly or was squashed from an older misprediction.
    RasRelease {
        /// The checkpoint being discarded.
        id: u64,
    },
    /// A multipath fork gave `child` its own view of `parent`'s stack.
    RasFork {
        /// Forking path.
        parent: u32,
        /// New path.
        child: u32,
    },
    /// A mispredicted return, classified at commit by the forensics
    /// layer.
    ReturnMispredict {
        /// Return PC.
        pc: Addr,
        /// Proximate cause.
        cause: MispredictCause,
    },
    /// A control instruction resolved at writeback.
    BranchResolve {
        /// Path the branch belongs to.
        path: u32,
        /// Branch PC.
        pc: Addr,
        /// The prediction was wrong (triggers squash + RAS repair).
        mispredict: bool,
    },
    /// Wrong-path work discarded after a misprediction or a lost fork.
    Squash {
        /// Path at the root of the squashed lineage.
        path: u32,
        /// In-flight micro-ops thrown away.
        uops: u32,
    },
    /// Queue occupancy, sampled at the end of every cycle.
    StageSample {
        /// RUU occupancy.
        ruu: u32,
        /// Load/store queue occupancy.
        lsq: u32,
        /// Fetch queue occupancy.
        fetch_queue: u32,
        /// Live speculative paths.
        live_paths: u32,
    },
    /// One first-level cache access.
    CacheAccess {
        /// Which cache.
        cache: Cache,
        /// Accessed (word) address.
        addr: u64,
        /// Hit in the first level.
        hit: bool,
    },
    /// A micro-op entered the fetch queue.
    Fetch {
        /// Fetch sequence number.
        seq: u64,
        /// Instruction address.
        pc: Addr,
        /// The instruction.
        inst: Inst,
    },
    /// A fetched micro-op reached a later stage.
    Uop {
        /// Fetch sequence number.
        seq: u64,
        /// The stage reached.
        stage: UopStage,
    },
}

// The tap buffers events by value: keep them no larger than the commit
// record they grew out of.
const _: () = assert!(std::mem::size_of::<Event>() <= 56);

/// A first-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// Instruction cache (fetch).
    L1i,
    /// Data cache (loads and stores).
    L1d,
}

impl Cache {
    /// Short name (`l1i`, `l1d`).
    pub fn name(self) -> &'static str {
        match self {
            Cache::L1i => "l1i",
            Cache::L1d => "l1d",
        }
    }
}

/// The pipeline stages a [`Event::Uop`] mark records after fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopStage {
    /// Entered the RUU.
    Dispatch,
    /// Issued to a functional unit.
    Issue,
    /// Result became available.
    Complete,
    /// Left the RUU (committed, or drained if squashed).
    Retire,
    /// Marked as wrong-path work.
    Squash,
}

/// Event families, the unit the tap filters by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Architectural commits.
    Commit,
    /// RAS push, pop, checkpoint, restore, release and fork, plus
    /// classified return mispredictions.
    Ras,
    /// Control resolution.
    Branch,
    /// Squashes.
    Squash,
    /// Per-cycle queue occupancy samples.
    Stage,
    /// Cache accesses.
    Cache,
    /// Per-micro-op stage marks.
    Pipe,
}

impl EventClass {
    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

impl Event {
    /// The event's filter class.
    pub fn class(&self) -> EventClass {
        match self {
            Event::Commit { .. } => EventClass::Commit,
            Event::RasPush { .. }
            | Event::RasPop { .. }
            | Event::RasCheckpoint { .. }
            | Event::RasRestore { .. }
            | Event::RasRelease { .. }
            | Event::RasFork { .. }
            | Event::ReturnMispredict { .. } => EventClass::Ras,
            Event::BranchResolve { .. } => EventClass::Branch,
            Event::Squash { .. } => EventClass::Squash,
            Event::StageSample { .. } => EventClass::Stage,
            Event::CacheAccess { .. } => EventClass::Cache,
            Event::Fetch { .. } | Event::Uop { .. } => EventClass::Pipe,
        }
    }
}

/// A set of [`EventClass`]es.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask(u8);

impl EventMask {
    /// No class: the tap is off.
    pub const NONE: EventMask = EventMask(0);

    /// This mask plus `class`.
    pub const fn with(self, class: EventClass) -> Self {
        EventMask(self.0 | class.bit())
    }

    /// Whether `class` is in the mask.
    #[inline]
    pub fn contains(self, class: EventClass) -> bool {
        self.0 & class.bit() != 0
    }
}

/// One tapped event with the cycle it happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    /// The recording core's cycle.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

/// The core's tap: a class mask and the events recorded under it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tap {
    mask: EventMask,
    buf: Vec<Stamped>,
}

impl Tap {
    pub(crate) fn set(&mut self, mask: EventMask) {
        self.mask = mask;
    }

    /// Whether `class` is being recorded, for sites that emit a batch.
    #[inline]
    pub(crate) fn on(&self, class: EventClass) -> bool {
        self.mask.contains(class)
    }

    #[inline]
    pub(crate) fn emit(&mut self, cycle: u64, event: Event) {
        if self.mask.contains(event.class()) {
            self.buf.push(Stamped { cycle, event });
        }
    }

    pub(crate) fn drain(&mut self, into: &mut Vec<Stamped>) {
        into.append(&mut self.buf);
    }
}
