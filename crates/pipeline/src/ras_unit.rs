//! The front end's return-target prediction unit.
//!
//! Wraps the `ras-core` structures into the forms the pipeline needs:
//! single-path, multipath-unified, multipath-per-path, the BTB-only
//! configuration (no stack at all), and the perfect oracle. All pushes
//! and pops happen at fetch — speculatively — which is the whole point of
//! the paper: this is the one predictor that wrong paths corrupt.
//!
//! With more than one hart ([`CoreConfig::harts`]) the unit additionally
//! keys its stacks by hart under the configured
//! [`RasSharing`](crate::RasSharing) mode: `Shared` funnels every hart
//! through one stack (sibling streams corrupt each other — the SMT
//! generalization of the paper's contention problem), `Partitioned`
//! slices the capacity into private per-hart regions, and `Tagged`
//! gives each hart a full-capacity view through per-entry hart tags
//! (idealized: validation guarantees the tag field addresses every
//! hart, so tags never alias).

mod codec;

use crate::config::{CoreConfig, RasSharing, ReturnPredictor};
use crate::path::{HartId, PathId};
use hydra_obs::{popflags, CauseHistogram, MispredictCause};
use ras_core::{
    CheckpointBudget, LinkCheckpoint, RasCheckpoint, RepairPolicy, ReturnAddressStack,
    SelfCheckpointingStack,
};
use std::collections::HashMap;

/// An opaque checkpoint handle held by an in-flight speculation point.
///
/// Obtained from [`RasUnit::checkpoint`] and consumed by
/// [`RasUnit::release`] (correct speculation) or [`RasUnit::restore`]
/// (misprediction repair).
#[derive(Debug, Clone)]
pub struct CkptHandle(Handle);

impl CkptHandle {
    /// The repair policy's short name and the checkpoint's storage cost
    /// in 64-bit words.
    pub fn describe(&self) -> (&'static str, u32) {
        match &self.0 {
            Handle::Real { ckpt, .. } => (ckpt.policy().short_name(), ckpt.storage_words() as u32),
            Handle::Oracle { stack, .. } => ("perfect", stack.len() as u32),
            Handle::Jourdan { .. } => ("self-ckpt", 1),
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    /// A real shadow-state checkpoint for the stack keyed by `path`.
    Real {
        /// Stack key (path, or hart under hart keying) to repair.
        path: PathId,
        /// The saved shadow state.
        ckpt: RasCheckpoint,
    },
    /// A full copy of the oracle stack (the perfect configuration).
    Oracle {
        /// Owning stack key.
        path: PathId,
        /// The saved stack image.
        stack: Vec<u64>,
    },
    /// A self-checkpointing-stack pointer checkpoint.
    Jourdan {
        /// Stack key to repair.
        path: PathId,
        /// The saved pointer.
        ckpt: LinkCheckpoint,
    },
}

#[derive(Debug, Clone)]
enum Mode {
    /// No stack: returns predicted from the BTB only.
    Off,
    /// Perfect per-path software stacks, perfectly repaired.
    Oracle { stacks: HashMap<PathId, Vec<u64>> },
    /// Real hardware stacks.
    Real {
        repair: RepairPolicy,
        /// One stack per path in per-path mode; a single entry keyed by
        /// `PathId::ROOT` in unified/single-path mode.
        stacks: HashMap<PathId, ReturnAddressStack>,
        per_path: bool,
        capacity: usize,
    },
    /// Jourdan-style self-checkpointing stacks.
    Jourdan {
        stacks: HashMap<PathId, SelfCheckpointingStack>,
        per_path: bool,
        capacity: usize,
    },
}

/// Aggregated RAS event counts across all stacks (including stacks of
/// paths that have since died).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RasUnitStats {
    /// Speculative pushes (calls fetched).
    pub pushes: u64,
    /// Speculative pops (returns fetched).
    pub pops: u64,
    /// Pushes that wrapped and overwrote a live entry.
    pub overflows: u64,
    /// Pops from an empty stack.
    pub underflows: u64,
    /// Checkpoint restores (repairs after misprediction).
    pub restores: u64,
    /// Speculation points that found the shadow budget exhausted.
    pub budget_misses: u64,
}

impl RasUnitStats {
    /// Folds one stack's counters into the aggregate.
    fn absorb(&mut self, s: &ras_core::RasStats) {
        self.pushes += s.pushes;
        self.pops += s.pops;
        self.overflows += s.overflows;
        self.underflows += s.underflows;
        self.restores += s.restores;
    }
}

/// The return-target prediction unit.
///
/// Constructed from a [`CoreConfig`]; every operation names the
/// requesting [`HartId`] and [`PathId`] so the unit can route to the
/// right stack under multipath (per-path) or SMT (per-hart) keying.
#[derive(Debug, Clone)]
pub struct RasUnit {
    mode: Mode,
    /// Multi-hart stacks keyed by hart instead of by path
    /// (`Partitioned` / `Tagged` sharing with more than one hart).
    hart_keyed: bool,
    budget: CheckpointBudget,
    stats: RasUnitStats,
    /// Recycled oracle stack images (checkpoints and dead-path stacks):
    /// taking an oracle checkpoint or forking a path reuses a pooled
    /// buffer instead of allocating on the hot path.
    oracle_pool: Vec<Vec<u64>>,
    /// Recycled per-path hardware stacks, reused via `fork_into`.
    real_pool: Vec<ReturnAddressStack>,
    /// Recycled per-path self-checkpointing stacks.
    jourdan_pool: Vec<SelfCheckpointingStack>,
    /// Forensics: the hart whose push/pop last touched the unit, used to
    /// flag cross-hart contention on stacks shared between harts.
    last_accessor: Option<HartId>,
    /// Forensics: per-stack count of frames lost to overflow wraps that
    /// have not yet been consumed by an underflowing pop. Distinguishes
    /// an overflow-wrap underflow from a plain one. Machine state, not a
    /// statistic: survives [`RasUnit::reset_stats`].
    lost_frames: HashMap<PathId, u64>,
    /// Forensics: evidence bits describing the most recent [`RasUnit::pop`]
    /// (see [`hydra_obs::popflags`]). The pipeline snapshots this into the
    /// predicted return uop so commit can classify a misprediction.
    last_pop_flags: u8,
    /// Forensics: per-hart histogram of classified return mispredictions,
    /// recorded by the commit stage via [`RasUnit::record_mispredict`].
    causes: Vec<CauseHistogram>,
}

impl RasUnit {
    /// Builds the unit a core described by `config` needs. The config
    /// should already have passed [`CoreConfig::check`].
    pub fn new(config: &CoreConfig) -> Self {
        let per_path = config
            .multipath
            .map(|mp| mp.stack_policy.is_per_path())
            .unwrap_or(false);
        let hart_keyed = config.harts > 1 && !matches!(config.ras_sharing, RasSharing::Shared);
        // Keys of the eagerly created stacks: one per hart when keyed by
        // hart, else the single unified / root-path stack (per-path
        // multipath stacks appear later via `on_fork`).
        let keys: Vec<PathId> = if hart_keyed {
            (0..config.harts as usize).map(PathId::from_index).collect()
        } else {
            vec![PathId::ROOT]
        };
        // `Partitioned` slices the capacity between harts; `Tagged`
        // (and every single-hart mode) gives each stack full capacity.
        let slice = |entries: usize| -> usize {
            match config.ras_sharing {
                RasSharing::Partitioned if config.harts > 1 => {
                    (entries / config.harts as usize).max(1)
                }
                _ => entries,
            }
        };
        let mode = match config.return_predictor {
            ReturnPredictor::SelfCheckpointing { entries } => {
                let capacity = slice(entries);
                Mode::Jourdan {
                    stacks: keys
                        .iter()
                        .map(|&k| (k, SelfCheckpointingStack::new(capacity)))
                        .collect(),
                    per_path,
                    capacity,
                }
            }
            ReturnPredictor::BtbOnly => Mode::Off,
            ReturnPredictor::Perfect => Mode::Oracle {
                stacks: keys.iter().map(|&k| (k, Vec::new())).collect(),
            },
            ReturnPredictor::Ras { entries, repair } => {
                // In multipath-unified mode the stack policy's repair
                // overrides the single-path policy.
                let repair = match config.multipath {
                    Some(mp) => mp.stack_policy.repair().unwrap_or(repair),
                    None => repair,
                };
                let capacity = slice(entries);
                Mode::Real {
                    repair,
                    stacks: keys
                        .iter()
                        .map(|&k| (k, ReturnAddressStack::new(capacity)))
                        .collect(),
                    per_path,
                    capacity,
                }
            }
        };
        let budget = match config.checkpoint_budget {
            Some(n) => CheckpointBudget::limited(n),
            None => CheckpointBudget::unlimited(),
        };
        RasUnit {
            mode,
            hart_keyed,
            budget,
            stats: RasUnitStats::default(),
            oracle_pool: Vec::new(),
            real_pool: Vec::new(),
            jourdan_pool: Vec::new(),
            last_accessor: None,
            lost_frames: HashMap::new(),
            last_pop_flags: 0,
            causes: vec![CauseHistogram::default(); config.harts as usize],
        }
    }

    /// Whether a stack exists at all (false in the BTB-only config).
    pub fn is_enabled(&self) -> bool {
        !matches!(self.mode, Mode::Off)
    }

    /// The key of the stack a request from `hart` on `path` uses.
    fn stack_key(&self, hart: HartId, path: PathId) -> PathId {
        if self.hart_keyed {
            return PathId::from_index(hart.index());
        }
        match &self.mode {
            Mode::Real {
                per_path: false, ..
            }
            | Mode::Jourdan {
                per_path: false, ..
            } => PathId::ROOT,
            _ => path,
        }
    }

    /// A new path was forked from `parent`: copy the stack in per-path
    /// (and oracle) modes; a unified stack is shared as-is.
    pub fn on_fork(&mut self, parent: PathId, child: PathId) {
        match &mut self.mode {
            Mode::Off => {}
            Mode::Oracle { stacks } => {
                let mut copy = self.oracle_pool.pop().unwrap_or_default();
                copy.clear();
                if let Some(parent_stack) = stacks.get(&parent) {
                    copy.extend_from_slice(parent_stack);
                }
                stacks.insert(child, copy);
            }
            Mode::Real {
                stacks,
                per_path,
                capacity,
                ..
            } => {
                if *per_path {
                    let cap = *capacity;
                    // Fork into a pooled stack when one is available so
                    // the fork path allocates nothing in steady state.
                    let copy = match (stacks.get(&parent), self.real_pool.pop()) {
                        (Some(p), Some(mut pooled)) => {
                            p.fork_into(&mut pooled);
                            pooled
                        }
                        (Some(p), None) => p.fork(),
                        (None, _) => ReturnAddressStack::new(cap),
                    };
                    stacks.insert(child, copy);
                }
            }
            Mode::Jourdan {
                stacks,
                per_path,
                capacity,
            } => {
                if *per_path {
                    let cap = *capacity;
                    let copy = match (stacks.get(&parent), self.jourdan_pool.pop()) {
                        (Some(p), Some(mut pooled)) => {
                            p.fork_into(&mut pooled);
                            pooled
                        }
                        (Some(p), None) => p.fork(),
                        (None, _) => SelfCheckpointingStack::new(cap),
                    };
                    stacks.insert(child, copy);
                }
            }
        }
        // Per-path stacks inherit the parent's outstanding lost-frame
        // debt along with its contents.
        if !self.hart_keyed {
            if let Mode::Real { per_path: true, .. } = self.mode {
                if let Some(&lost) = self.lost_frames.get(&parent) {
                    if lost > 0 {
                        self.lost_frames.insert(child, lost);
                    }
                }
            }
        }
    }

    /// A path died: harvest its private stack into the reuse pool.
    pub fn on_path_death(&mut self, path: PathId) {
        if !self.hart_keyed && path != PathId::ROOT {
            self.lost_frames.remove(&path);
        }
        match &mut self.mode {
            Mode::Off => {}
            Mode::Oracle { stacks } => {
                if let Some(s) = stacks.remove(&path) {
                    self.oracle_pool.push(s);
                }
            }
            Mode::Real {
                stacks, per_path, ..
            } => {
                if *per_path && path != PathId::ROOT {
                    if let Some(s) = stacks.remove(&path) {
                        self.stats.absorb(s.stats());
                        self.real_pool.push(s);
                    }
                }
            }
            Mode::Jourdan {
                stacks, per_path, ..
            } => {
                if *per_path && path != PathId::ROOT {
                    if let Some(s) = stacks.remove(&path) {
                        self.stats.absorb(s.stats());
                        self.jourdan_pool.push(s);
                    }
                }
            }
        }
    }

    /// Push a return address at fetch time (a call by `hart` on `path`).
    /// Returns whether the push overflowed a stack, or `None` when no
    /// stack took it (the BTB-only configuration, or a path without a
    /// stack).
    pub fn push(&mut self, hart: HartId, path: PathId, return_addr: u64) -> Option<bool> {
        let key = self.stack_key(hart, path);
        let overflow = match &mut self.mode {
            Mode::Off => return None,
            Mode::Oracle { stacks } => {
                stacks.entry(key).or_default().push(return_addr);
                Some(false)
            }
            Mode::Real { stacks, .. } => stacks.get_mut(&key).map(|s| {
                let overflow = s.push(return_addr);
                // A push at full depth wraps and destroys the oldest
                // frame; remember it so a later deep pop can be
                // classified as overflow-wrap rather than underflow.
                if overflow {
                    *self.lost_frames.entry(key).or_insert(0) += 1;
                }
                overflow
            }),
            Mode::Jourdan { stacks, .. } => stacks.get_mut(&key).map(|s| s.push(return_addr)),
        };
        self.last_accessor = Some(hart);
        overflow
    }

    /// Pop a predicted return target at fetch time (a return by `hart`
    /// on `path`).
    ///
    /// As a side effect, records pop-time forensics evidence retrievable
    /// via [`RasUnit::last_pop_flags`] until the next pop.
    pub fn pop(&mut self, hart: HartId, path: PathId) -> Option<u64> {
        let key = self.stack_key(hart, path);
        // On a stack shared between harts, an intervening sibling access
        // is evidence the contents were perturbed. Hart-keyed stacks are
        // private, so contention is impossible there by construction.
        let contended = !self.hart_keyed && self.last_accessor.is_some_and(|prev| prev != hart);
        let mut flags = 0u8;
        let out = match &mut self.mode {
            Mode::Off => None,
            Mode::Oracle { stacks } => {
                let r = stacks.get_mut(&key).and_then(Vec::pop);
                if r.is_some() {
                    flags |= popflags::FROM_STACK;
                }
                r
            }
            Mode::Real { stacks, .. } => match stacks.get_mut(&key) {
                Some(s) => {
                    if s.depth() == 0 {
                        flags |= popflags::UNDERFLOW;
                        if let Some(lost) = self.lost_frames.get_mut(&key) {
                            if *lost > 0 {
                                *lost -= 1;
                                flags |= popflags::OVERFLOW_WRAP;
                            }
                        }
                    }
                    let r = s.pop();
                    // The circular stack returns the stale wrapped entry
                    // on underflow (real hardware behavior); `None` means
                    // the entry was invalidated by the repair mechanism
                    // or never written.
                    match r {
                        Some(_) => flags |= popflags::FROM_STACK,
                        None => flags |= popflags::INVALID_ENTRY,
                    }
                    r
                }
                None => None,
            },
            Mode::Jourdan { stacks, .. } => {
                // The self-checkpointing stack keeps its depth internal;
                // classification for this mode is best-effort (hit vs.
                // contention only).
                let r = stacks.get_mut(&key).and_then(|s| s.pop());
                if r.is_some() {
                    flags |= popflags::FROM_STACK;
                }
                r
            }
        };
        if !matches!(self.mode, Mode::Off) {
            if contended {
                flags |= popflags::SMT_CONTENTION;
            }
            self.last_accessor = Some(hart);
        }
        self.last_pop_flags = flags;
        out
    }

    /// Evidence bits from the most recent [`RasUnit::pop`] (see
    /// [`hydra_obs::popflags`]).
    pub fn last_pop_flags(&self) -> u8 {
        self.last_pop_flags
    }

    /// Records a classified return misprediction against `hart`'s
    /// forensics histogram (called by the commit stage).
    pub fn record_mispredict(&mut self, hart: HartId, cause: MispredictCause) {
        if let Some(h) = self.causes.get_mut(hart.index()) {
            h.record(cause);
        }
    }

    /// `hart`'s return-misprediction cause histogram.
    pub fn mispredict_causes(&self, hart: HartId) -> CauseHistogram {
        self.causes.get(hart.index()).copied().unwrap_or_default()
    }

    /// All harts' cause histograms folded together.
    pub fn mispredict_causes_total(&self) -> CauseHistogram {
        let mut out = CauseHistogram::default();
        for h in &self.causes {
            out.absorb(h);
        }
        out
    }

    /// Takes a checkpoint for a speculation point on `path`, consuming a
    /// shadow-budget slot. Returns `None` (and counts a budget miss) when
    /// the shadow storage is exhausted — that branch will speculate
    /// without repair.
    pub fn checkpoint(&mut self, hart: HartId, path: PathId) -> Option<CkptHandle> {
        if matches!(self.mode, Mode::Off) {
            return None;
        }
        if !self.budget.try_acquire() {
            self.stats.budget_misses += 1;
            return None;
        }
        let key = self.stack_key(hart, path);
        match &mut self.mode {
            Mode::Off => unreachable!("handled above"),
            Mode::Oracle { stacks } => {
                let mut image = self.oracle_pool.pop().unwrap_or_default();
                image.clear();
                if let Some(s) = stacks.get(&key) {
                    image.extend_from_slice(s);
                }
                Some(CkptHandle(Handle::Oracle {
                    path: key,
                    stack: image,
                }))
            }
            Mode::Real { stacks, repair, .. } => {
                let repair = *repair;
                stacks.get_mut(&key).map(|s| {
                    CkptHandle(Handle::Real {
                        path: key,
                        ckpt: s.checkpoint(repair),
                    })
                })
            }
            Mode::Jourdan { stacks, .. } => stacks.get_mut(&key).map(|s| {
                CkptHandle(Handle::Jourdan {
                    path: key,
                    ckpt: s.checkpoint(),
                })
            }),
        }
    }

    /// Releases the budget slot of a checkpoint whose branch resolved
    /// correctly or was squashed, recycling any saved stack image.
    pub fn release(&mut self, handle: CkptHandle) {
        self.budget.release();
        if let CkptHandle(Handle::Oracle { stack, .. }) = handle {
            self.oracle_pool.push(stack);
        }
    }

    /// Repairs the owning stack from a checkpoint (mispredicted branch)
    /// and releases the budget slot. Consumes the handle: saved images
    /// move into place (or back to the pool) instead of being cloned.
    pub fn restore(&mut self, handle: CkptHandle) {
        self.budget.release();
        match (&mut self.mode, handle.0) {
            (Mode::Oracle { stacks }, Handle::Oracle { path, stack }) => {
                // The path may have died between checkpoint and restore.
                if let Some(s) = stacks.get_mut(&path) {
                    let displaced = std::mem::replace(s, stack);
                    self.oracle_pool.push(displaced);
                } else {
                    self.oracle_pool.push(stack);
                }
            }
            (Mode::Real { stacks, .. }, Handle::Real { path, ckpt }) => {
                if let Some(s) = stacks.get_mut(&path) {
                    s.restore(&ckpt);
                }
            }
            (Mode::Jourdan { stacks, .. }, Handle::Jourdan { path, ckpt }) => {
                if let Some(s) = stacks.get_mut(&path) {
                    s.restore(&ckpt);
                }
            }
            (Mode::Off, _) => {}
            _ => unreachable!("checkpoint kind matches unit mode"),
        }
    }

    /// Clears accumulated statistics (post-warm-up), keeping all stack
    /// contents and in-flight budget state intact.
    pub fn reset_stats(&mut self) {
        self.stats = RasUnitStats::default();
        for h in &mut self.causes {
            *h = CauseHistogram::default();
        }
        match &mut self.mode {
            Mode::Real { stacks, .. } => {
                for s in stacks.values_mut() {
                    s.reset_stats();
                }
            }
            Mode::Jourdan { stacks, .. } => {
                for s in stacks.values_mut() {
                    s.reset_stats();
                }
            }
            Mode::Off | Mode::Oracle { .. } => {}
        }
    }

    /// Aggregated statistics over all stacks, live and dead.
    pub fn stats(&self) -> RasUnitStats {
        let mut out = self.stats;
        match &self.mode {
            Mode::Real { stacks, .. } => {
                for s in stacks.values() {
                    out.absorb(s.stats());
                }
            }
            Mode::Jourdan { stacks, .. } => {
                for s in stacks.values() {
                    out.absorb(s.stats());
                }
            }
            Mode::Off | Mode::Oracle { .. } => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_core::MultipathStackPolicy;

    const H0: HartId = HartId::H0;

    fn unit(rp: ReturnPredictor) -> RasUnit {
        RasUnit::new(&CoreConfig {
            return_predictor: rp,
            ..CoreConfig::default()
        })
    }

    fn smt_unit(sharing: RasSharing, entries: usize) -> RasUnit {
        RasUnit::new(&CoreConfig {
            return_predictor: ReturnPredictor::Ras {
                entries,
                repair: RepairPolicy::TosPointerAndContents,
            },
            ..CoreConfig::smt(2, sharing)
        })
    }

    #[test]
    fn btb_only_is_disabled() {
        let mut u = unit(ReturnPredictor::BtbOnly);
        assert!(!u.is_enabled());
        u.push(H0, PathId::ROOT, 5);
        assert_eq!(u.pop(H0, PathId::ROOT), None);
        assert!(u.checkpoint(H0, PathId::ROOT).is_none());
    }

    #[test]
    fn real_stack_round_trip_with_repair() {
        let mut u = unit(ReturnPredictor::baseline());
        assert!(u.is_enabled());
        u.push(H0, PathId::ROOT, 0x40);
        let ckpt = u.checkpoint(H0, PathId::ROOT).unwrap();
        assert_eq!(u.pop(H0, PathId::ROOT), Some(0x40)); // wrong path
        u.push(H0, PathId::ROOT, 0xbad);
        u.restore(ckpt);
        assert_eq!(u.pop(H0, PathId::ROOT), Some(0x40));
        assert!(u.stats().restores >= 1);
    }

    #[test]
    fn oracle_checkpoint_is_exact() {
        let mut u = unit(ReturnPredictor::Perfect);
        for a in [1u64, 2, 3] {
            u.push(H0, PathId::ROOT, a);
        }
        let ckpt = u.checkpoint(H0, PathId::ROOT).unwrap();
        u.pop(H0, PathId::ROOT);
        u.pop(H0, PathId::ROOT);
        u.push(H0, PathId::ROOT, 99);
        u.restore(ckpt);
        assert_eq!(u.pop(H0, PathId::ROOT), Some(3));
        assert_eq!(u.pop(H0, PathId::ROOT), Some(2));
        assert_eq!(u.pop(H0, PathId::ROOT), Some(1));
        assert_eq!(u.pop(H0, PathId::ROOT), None);
    }

    #[test]
    fn budget_exhaustion_counts_misses() {
        let mut u = RasUnit::new(&CoreConfig {
            checkpoint_budget: Some(1),
            ..CoreConfig::default()
        });
        let c1 = u.checkpoint(H0, PathId::ROOT).unwrap();
        assert!(u.checkpoint(H0, PathId::ROOT).is_none());
        assert_eq!(u.stats().budget_misses, 1);
        u.release(c1);
        assert!(u.checkpoint(H0, PathId::ROOT).is_some());
    }

    #[test]
    fn per_path_stacks_are_independent() {
        let cfg = CoreConfig::multipath(2, MultipathStackPolicy::PerPath);
        let mut u = RasUnit::new(&cfg);
        u.push(H0, PathId::ROOT, 0x10);
        // Simulate a fork to a fresh id.
        let child = crate::path::PathTable::new(2)
            .fork(PathId::ROOT, 1)
            .unwrap();
        u.on_fork(PathId::ROOT, child);
        u.push(H0, child, 0x20);
        assert_eq!(u.pop(H0, PathId::ROOT), Some(0x10));
        assert_eq!(u.pop(H0, child), Some(0x20));
        assert_eq!(u.pop(H0, child), Some(0x10), "child copied parent's stack");
        u.on_path_death(child);
        // Stats from the dead child's stack were harvested.
        assert!(u.stats().pushes >= 2);
    }

    #[test]
    fn unified_stack_is_shared_across_paths() {
        let cfg = CoreConfig::multipath(
            2,
            MultipathStackPolicy::Unified {
                repair: ras_core::RepairPolicy::None,
            },
        );
        let mut u = RasUnit::new(&cfg);
        let child = crate::path::PathTable::new(2)
            .fork(PathId::ROOT, 1)
            .unwrap();
        u.on_fork(PathId::ROOT, child);
        u.push(H0, PathId::ROOT, 0x10);
        u.push(H0, child, 0x20);
        // Contention: ROOT's pop sees the child's push.
        assert_eq!(u.pop(H0, PathId::ROOT), Some(0x20));
    }

    #[test]
    fn shared_stack_sees_sibling_hart_pushes() {
        let h1 = HartId::new(1);
        let mut u = smt_unit(RasSharing::Shared, 32);
        u.push(H0, PathId::ROOT, 0x10);
        u.push(h1, PathId::ROOT, 0x20);
        // Contention: hart 0 pops hart 1's return address.
        assert_eq!(u.pop(H0, PathId::ROOT), Some(0x20));
        assert_eq!(u.pop(h1, PathId::ROOT), Some(0x10));
    }

    #[test]
    fn partitioned_and_tagged_isolate_harts() {
        for sharing in [RasSharing::Partitioned, RasSharing::Tagged { tag_bits: 1 }] {
            let h1 = HartId::new(1);
            let mut u = smt_unit(sharing, 32);
            u.push(H0, PathId::ROOT, 0x10);
            u.push(h1, PathId::ROOT, 0x20);
            assert_eq!(u.pop(H0, PathId::ROOT), Some(0x10), "{sharing:?}");
            assert_eq!(u.pop(h1, PathId::ROOT), Some(0x20), "{sharing:?}");
            assert_eq!(u.pop(h1, PathId::ROOT), None, "{sharing:?}");
        }
    }

    #[test]
    fn partitioned_slices_capacity_but_tagged_does_not() {
        let h1 = HartId::new(1);
        // 4 entries partitioned across 2 harts -> 2 per hart: the third
        // push wraps and overwrites, so the oldest address is lost.
        let mut part = smt_unit(RasSharing::Partitioned, 4);
        for a in [1u64, 2, 3] {
            part.push(H0, PathId::ROOT, a);
        }
        assert_eq!(part.pop(H0, PathId::ROOT), Some(3));
        assert_eq!(part.pop(H0, PathId::ROOT), Some(2));
        assert!(part.stats().overflows >= 1);
        // Tagged keeps the full 4 entries per hart.
        let mut tag = smt_unit(RasSharing::Tagged { tag_bits: 1 }, 4);
        for a in [1u64, 2, 3] {
            tag.push(h1, PathId::ROOT, a);
        }
        assert_eq!(tag.pop(h1, PathId::ROOT), Some(3));
        assert_eq!(tag.pop(h1, PathId::ROOT), Some(2));
        assert_eq!(tag.pop(h1, PathId::ROOT), Some(1));
        assert_eq!(tag.stats().overflows, 0);
    }

    #[test]
    fn pop_flags_report_underflow_and_overflow_wrap() {
        let mut u = RasUnit::new(&CoreConfig {
            return_predictor: ReturnPredictor::Ras {
                entries: 2,
                repair: RepairPolicy::None,
            },
            ..CoreConfig::default()
        });
        // Underflow on an empty, never-written stack: no stale entry.
        assert_eq!(u.pop(H0, PathId::ROOT), None);
        let f = u.last_pop_flags();
        assert_ne!(f & popflags::UNDERFLOW, 0);
        assert_ne!(f & popflags::INVALID_ENTRY, 0);
        assert_eq!(f & popflags::OVERFLOW_WRAP, 0);
        // Fill, then overflow once: 3 pushes into 2 entries lose a frame.
        for a in [1u64, 2, 3] {
            u.push(H0, PathId::ROOT, a);
        }
        assert_eq!(u.pop(H0, PathId::ROOT), Some(3));
        assert_eq!(u.last_pop_flags(), popflags::FROM_STACK);
        assert_eq!(u.pop(H0, PathId::ROOT), Some(2));
        // The pop for the lost frame underflows into the stale slot and
        // carries the overflow-wrap evidence exactly once.
        let stale = u.pop(H0, PathId::ROOT);
        assert!(stale.is_some(), "circular stack returns the stale entry");
        let f = u.last_pop_flags();
        assert_ne!(f & popflags::UNDERFLOW, 0);
        assert_ne!(f & popflags::OVERFLOW_WRAP, 0);
        u.pop(H0, PathId::ROOT);
        assert_eq!(
            u.last_pop_flags() & popflags::OVERFLOW_WRAP,
            0,
            "lost-frame debt was consumed"
        );
    }

    #[test]
    fn pop_flags_report_shared_hart_contention() {
        let h1 = HartId::new(1);
        let mut u = smt_unit(RasSharing::Shared, 32);
        u.push(H0, PathId::ROOT, 0x10);
        u.push(h1, PathId::ROOT, 0x20);
        u.pop(H0, PathId::ROOT);
        assert_ne!(
            u.last_pop_flags() & popflags::SMT_CONTENTION,
            0,
            "hart 1 touched the shared stack since hart 0's push"
        );
        u.pop(H0, PathId::ROOT);
        assert_eq!(
            u.last_pop_flags() & popflags::SMT_CONTENTION,
            0,
            "back-to-back same-hart pops are not contended"
        );
        // Partitioned stacks are hart-private: never contended.
        let mut p = smt_unit(RasSharing::Partitioned, 32);
        p.push(H0, PathId::ROOT, 0x10);
        p.push(h1, PathId::ROOT, 0x20);
        p.pop(H0, PathId::ROOT);
        assert_eq!(p.last_pop_flags() & popflags::SMT_CONTENTION, 0);
    }

    #[test]
    fn mispredict_cause_histograms_are_per_hart() {
        let h1 = HartId::new(1);
        let mut u = smt_unit(RasSharing::Shared, 32);
        u.record_mispredict(H0, MispredictCause::Underflow);
        u.record_mispredict(h1, MispredictCause::SmtContention);
        u.record_mispredict(h1, MispredictCause::SmtContention);
        assert_eq!(u.mispredict_causes(H0).get(MispredictCause::Underflow), 1);
        assert_eq!(
            u.mispredict_causes(h1).get(MispredictCause::SmtContention),
            2
        );
        assert_eq!(u.mispredict_causes_total().total(), 3);
        u.reset_stats();
        assert_eq!(u.mispredict_causes_total().total(), 0);
    }

    #[test]
    fn checkpoint_repairs_the_owning_hart_stack() {
        let h1 = HartId::new(1);
        let mut u = smt_unit(RasSharing::Partitioned, 32);
        u.push(h1, PathId::ROOT, 0x40);
        let ckpt = u.checkpoint(h1, PathId::ROOT).unwrap();
        assert_eq!(u.pop(h1, PathId::ROOT), Some(0x40));
        u.push(h1, PathId::ROOT, 0xbad);
        u.restore(ckpt);
        assert_eq!(u.pop(h1, PathId::ROOT), Some(0x40), "hart 1 repaired");
        assert_eq!(u.pop(H0, PathId::ROOT), None, "hart 0 untouched");
    }
}
