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
    CheckpointBudget, LinkCheckpoint, RasCheckpoint, RasStats, RepairPolicy, ReturnAddressStack,
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
    Oracle(StackTable<Vec<u64>>),
    /// Real hardware stacks.
    Real {
        repair: RepairPolicy,
        table: StackTable<ReturnAddressStack>,
    },
    /// Jourdan-style self-checkpointing stacks.
    Jourdan(StackTable<SelfCheckpointingStack>),
}

/// Runs `$body` with `$t` bound to the mode's stack table, or yields
/// `$off` when there is none. Each arm is monomorphic: no `dyn`.
macro_rules! with_table {
    ($mode:expr, $t:ident => $body:expr, off => $off:expr) => {
        match $mode {
            Mode::Off => $off,
            Mode::Oracle($t) => $body,
            Mode::Real { table: $t, .. } => $body,
            Mode::Jourdan($t) => $body,
        }
    };
}

/// What a [`StackTable`] needs of the stack kind it holds.
trait PathStack: Sized {
    /// An empty stack of `capacity` entries.
    fn new(capacity: usize) -> Self;
    /// Overwrites `dst` with this stack's contents, zeroing its stats.
    fn copy_into(&self, dst: &mut Self);
    /// The stack's event counters.
    fn stats(&self) -> RasStats;
    /// Zeroes the stack's event counters.
    fn reset_stats(&mut self);
}

/// The two hardware stacks share method names, so one impl fits both.
macro_rules! hardware_path_stack {
    ($($stack:ty),*) => {$(
        impl PathStack for $stack {
            fn new(capacity: usize) -> Self {
                <$stack>::new(capacity)
            }
            fn copy_into(&self, dst: &mut Self) {
                self.fork_into(dst);
            }
            fn stats(&self) -> RasStats {
                *<$stack>::stats(self)
            }
            fn reset_stats(&mut self) {
                <$stack>::reset_stats(self);
            }
        }
    )*};
}

hardware_path_stack!(ReturnAddressStack, SelfCheckpointingStack);

/// The oracle's unbounded software stack. It counts nothing, so oracle
/// machines add nothing to [`RasUnitStats`].
impl PathStack for Vec<u64> {
    fn new(_capacity: usize) -> Self {
        Vec::new()
    }
    fn copy_into(&self, dst: &mut Self) {
        dst.clear();
        dst.extend_from_slice(self);
    }
    fn stats(&self) -> RasStats {
        RasStats::default()
    }
    fn reset_stats(&mut self) {}
}

/// One mode's stacks: a stack per key (path, or hart under hart keying)
/// and the pool that dead stacks return to.
#[derive(Debug, Clone)]
struct StackTable<S> {
    /// One stack per path when `per_path`; else one per hart, or a
    /// single entry keyed by `PathId::ROOT` in unified/single-path mode.
    stacks: HashMap<PathId, S>,
    /// Whether stacks are keyed by path, copied at a fork and dropped at
    /// a path's death (per-path multipath, and always the oracle).
    per_path: bool,
    capacity: usize,
    /// Recycled stacks (and, for the oracle, checkpoint images): a fork
    /// or an oracle checkpoint reuses one instead of allocating on the
    /// hot path.
    pool: Vec<S>,
}

impl<S: PathStack> StackTable<S> {
    fn new(keys: &[PathId], per_path: bool, capacity: usize) -> Self {
        StackTable {
            stacks: keys.iter().map(|&k| (k, S::new(capacity))).collect(),
            per_path,
            capacity,
            pool: Vec::new(),
        }
    }

    /// The key of the stack a request on `path` uses (hart keying is
    /// decided by the unit before this).
    fn key(&self, path: PathId) -> PathId {
        if self.per_path {
            path
        } else {
            PathId::ROOT
        }
    }

    /// Gives `child` a copy of `parent`'s stack, in a pooled buffer when
    /// one is free, so a fork allocates nothing in steady state.
    fn fork(&mut self, parent: PathId, child: PathId) {
        if !self.per_path {
            return;
        }
        let copy = match self.stacks.get(&parent) {
            Some(p) => {
                let mut copy = self.pool.pop().unwrap_or_else(|| S::new(self.capacity));
                p.copy_into(&mut copy);
                copy
            }
            None => S::new(self.capacity),
        };
        self.stacks.insert(child, copy);
    }

    /// Pools the stack of a dead path, keeping its counts in `dead`.
    fn on_death(&mut self, path: PathId, dead: &mut RasUnitStats) {
        if !self.per_path {
            return;
        }
        if let Some(s) = self.stacks.remove(&path) {
            dead.absorb(&s.stats());
            self.pool.push(s);
        }
    }

    /// Adds every live stack's counts to `out`.
    fn absorb_stats(&self, out: &mut RasUnitStats) {
        for s in self.stacks.values() {
            out.absorb(&s.stats());
        }
    }

    fn reset_stats(&mut self) {
        for s in self.stacks.values_mut() {
            s.reset_stats();
        }
    }
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
    fn absorb(&mut self, s: &RasStats) {
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
                Mode::Jourdan(StackTable::new(&keys, per_path, slice(entries)))
            }
            ReturnPredictor::BtbOnly => Mode::Off,
            // The oracle's stacks always follow paths.
            ReturnPredictor::Perfect => Mode::Oracle(StackTable::new(&keys, true, 0)),
            ReturnPredictor::Ras { entries, repair } => {
                // In multipath-unified mode the stack policy's repair
                // overrides the single-path policy.
                let repair = match config.multipath {
                    Some(mp) => mp.stack_policy.repair().unwrap_or(repair),
                    None => repair,
                };
                Mode::Real {
                    repair,
                    table: StackTable::new(&keys, per_path, slice(entries)),
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
        with_table!(&self.mode, t => t.key(path), off => path)
    }

    /// A new path was forked from `parent`: copy the stack in per-path
    /// (and oracle) modes; a unified stack is shared as-is.
    pub fn on_fork(&mut self, parent: PathId, child: PathId) {
        with_table!(&mut self.mode, t => t.fork(parent, child), off => {});
        // Per-path stacks inherit the parent's outstanding lost-frame
        // debt along with its contents.
        let per_path_real = matches!(&self.mode, Mode::Real { table, .. } if table.per_path);
        if per_path_real && !self.hart_keyed {
            if let Some(&lost) = self.lost_frames.get(&parent) {
                if lost > 0 {
                    self.lost_frames.insert(child, lost);
                }
            }
        }
    }

    /// A path died: harvest its private stack into the reuse pool. Only
    /// fork children die, never `PathId::ROOT`.
    pub fn on_path_death(&mut self, path: PathId) {
        debug_assert_ne!(path, PathId::ROOT, "the root path never dies");
        if !self.hart_keyed {
            self.lost_frames.remove(&path);
        }
        with_table!(&mut self.mode, t => t.on_death(path, &mut self.stats), off => {});
    }

    /// Push a return address at fetch time (a call by `hart` on `path`).
    /// Returns whether the push overflowed a stack, or `None` when no
    /// stack took it (the BTB-only configuration, or a path without a
    /// stack).
    pub fn push(&mut self, hart: HartId, path: PathId, return_addr: u64) -> Option<bool> {
        let key = self.stack_key(hart, path);
        let overflow = match &mut self.mode {
            Mode::Off => return None,
            Mode::Oracle(t) => {
                t.stacks.entry(key).or_default().push(return_addr);
                Some(false)
            }
            Mode::Real { table, .. } => table.stacks.get_mut(&key).map(|s| {
                let overflow = s.push(return_addr);
                // A push at full depth wraps and destroys the oldest
                // frame; remember it so a later deep pop can be
                // classified as overflow-wrap rather than underflow.
                if overflow {
                    *self.lost_frames.entry(key).or_insert(0) += 1;
                }
                overflow
            }),
            Mode::Jourdan(t) => t.stacks.get_mut(&key).map(|s| s.push(return_addr)),
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
            Mode::Oracle(t) => {
                let r = t.stacks.get_mut(&key).and_then(Vec::pop);
                if r.is_some() {
                    flags |= popflags::FROM_STACK;
                }
                r
            }
            Mode::Real { table, .. } => match table.stacks.get_mut(&key) {
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
            Mode::Jourdan(t) => {
                // The self-checkpointing stack keeps its depth internal;
                // classification for this mode is best-effort (hit vs.
                // contention only).
                let r = t.stacks.get_mut(&key).and_then(|s| s.pop());
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
            Mode::Oracle(t) => {
                let mut image = t.pool.pop().unwrap_or_default();
                image.clear();
                if let Some(s) = t.stacks.get(&key) {
                    image.extend_from_slice(s);
                }
                Some(CkptHandle(Handle::Oracle {
                    path: key,
                    stack: image,
                }))
            }
            Mode::Real { table, repair } => {
                let repair = *repair;
                table.stacks.get_mut(&key).map(|s| {
                    CkptHandle(Handle::Real {
                        path: key,
                        ckpt: s.checkpoint(repair),
                    })
                })
            }
            Mode::Jourdan(t) => t.stacks.get_mut(&key).map(|s| {
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
        if let (Mode::Oracle(t), Handle::Oracle { stack, .. }) = (&mut self.mode, handle.0) {
            t.pool.push(stack);
        }
    }

    /// Repairs the owning stack from a checkpoint (mispredicted branch)
    /// and releases the budget slot. Consumes the handle: saved images
    /// move into place (or back to the pool) instead of being cloned.
    pub fn restore(&mut self, handle: CkptHandle) {
        self.budget.release();
        match (&mut self.mode, handle.0) {
            (Mode::Oracle(t), Handle::Oracle { path, stack }) => {
                // The path may have died between checkpoint and restore.
                let spare = match t.stacks.get_mut(&path) {
                    Some(s) => std::mem::replace(s, stack),
                    None => stack,
                };
                t.pool.push(spare);
            }
            (Mode::Real { table, .. }, Handle::Real { path, ckpt }) => {
                if let Some(s) = table.stacks.get_mut(&path) {
                    s.restore(&ckpt);
                }
            }
            (Mode::Jourdan(t), Handle::Jourdan { path, ckpt }) => {
                if let Some(s) = t.stacks.get_mut(&path) {
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
        with_table!(&mut self.mode, t => t.reset_stats(), off => {});
    }

    /// Aggregated statistics over all stacks, live and dead.
    pub fn stats(&self) -> RasUnitStats {
        let mut out = self.stats;
        with_table!(&self.mode, t => t.absorb_stats(&mut out), off => {});
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
    fn a_pooled_stack_forks_with_the_parent_contents_and_zeroed_stats() {
        for rp in [
            ReturnPredictor::baseline(),
            ReturnPredictor::SelfCheckpointing { entries: 8 },
            ReturnPredictor::Perfect,
        ] {
            let mut u = RasUnit::new(&CoreConfig {
                return_predictor: rp,
                ..CoreConfig::multipath(2, MultipathStackPolicy::PerPath)
            });
            let pooled = |u: &RasUnit| with_table!(&u.mode, t => t.pool.len(), off => 0);
            let mut paths = crate::path::PathTable::new(2);
            u.push(H0, PathId::ROOT, 0x10);
            u.push(H0, PathId::ROOT, 0x20);
            let a = paths.fork(PathId::ROOT, 1).unwrap();
            u.on_fork(PathId::ROOT, a);
            u.push(H0, a, 0x30);
            assert_eq!(u.pop(H0, a), Some(0x30), "{rp:?}");
            let counted = u.stats();
            paths.kill_subtree(a);
            u.on_path_death(a);
            assert_eq!(u.stats(), counted, "{rp:?}: the dead path's counts stay");
            assert_eq!(pooled(&u), 1, "{rp:?}");

            let b = paths.fork(PathId::ROOT, 2).unwrap();
            u.on_fork(PathId::ROOT, b);
            assert_eq!(pooled(&u), 0, "{rp:?}: the fork reused the pooled stack");
            assert_eq!(
                u.stats(),
                counted,
                "{rp:?}: the reused stack counts nothing yet"
            );
            assert_eq!(u.pop(H0, b), Some(0x20), "{rp:?}");
            assert_eq!(u.pop(H0, b), Some(0x10), "{rp:?}");
            if rp == ReturnPredictor::Perfect {
                assert_eq!(
                    u.stats(),
                    RasUnitStats::default(),
                    "oracle stacks count nothing"
                );
            } else {
                assert_eq!(u.stats().pushes, 3, "{rp:?}");
                assert_eq!(u.stats().pops, 3, "{rp:?}");
            }
        }
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
