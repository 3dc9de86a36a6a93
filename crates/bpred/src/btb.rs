//! The decoupled branch target buffer.

use hydra_isa::Addr;

/// BTB geometry. The default (128 sets × 4 ways = 512 entries) follows
/// the paper's baseline, which decouples the BTB from the direction
/// predictor and allocates entries only for taken branches so a smaller
/// BTB suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl Default for BtbConfig {
    fn default() -> Self {
        BtbConfig { sets: 128, ways: 4 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbEntry {
    tag: u64,
    target: Addr,
    /// Smaller is older; replacement evicts the minimum.
    lru: u64,
}

/// A set-associative branch target buffer.
///
/// Maps branch PCs to their most recent taken target. Updated at commit
/// for taken control transfers (and, in the paper's *BTB-only* return
/// configuration, for returns — which is exactly why returns predict
/// poorly from a BTB: the target changes with the caller).
///
/// # Examples
///
/// ```
/// use hydra_bpred::{Btb, BtbConfig};
/// use hydra_isa::Addr;
///
/// let mut btb = Btb::new(BtbConfig::default());
/// btb.update(Addr::new(10), Addr::new(200));
/// assert_eq!(btb.lookup(Addr::new(10)), Some(Addr::new(200)));
/// assert_eq!(btb.lookup(Addr::new(11)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    config: BtbConfig,
    sets: Vec<Vec<BtbEntry>>,
    clock: u64,
    hits: u64,
    lookups: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: BtbConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        assert!(config.ways > 0, "BTB associativity must be > 0");
        Btb {
            config,
            // Not `vec![Vec::with_capacity(ways); sets]`: `Vec::clone`
            // does not preserve capacity, so every clone would start at
            // zero and allocate lazily on first touch — leaking
            // allocations into the steady-state hot path long after
            // warm-up.
            sets: (0..config.sets)
                .map(|_| Vec::with_capacity(config.ways))
                .collect(),
            clock: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// The geometry in force.
    pub fn config(&self) -> &BtbConfig {
        &self.config
    }

    fn set_index(&self, pc: Addr) -> usize {
        (pc.word() as usize) & (self.config.sets - 1)
    }

    fn tag(pc: Addr) -> u64 {
        pc.word()
    }

    /// Looks up the predicted target for the branch at `pc`.
    ///
    /// A hit refreshes the entry's recency. Lookups and hits are counted
    /// for the front-end statistics.
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.lookups += 1;
        self.clock += 1;
        let set = self.set_index(pc);
        let tag = Btb::tag(pc);
        let clock = self.clock;
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.tag == tag) {
            e.lru = clock;
            self.hits += 1;
            Some(e.target)
        } else {
            None
        }
    }

    /// Peeks at the target without touching recency or statistics.
    pub fn peek(&self, pc: Addr) -> Option<Addr> {
        let set = self.set_index(pc);
        let tag = Btb::tag(pc);
        self.sets[set]
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| e.target)
    }

    /// Installs or refreshes the mapping `pc -> target` (commit-time, for
    /// taken transfers). Evicts the least-recently-used way when the set
    /// is full.
    pub fn update(&mut self, pc: Addr, target: Addr) {
        self.clock += 1;
        let set = self.set_index(pc);
        let tag = Btb::tag(pc);
        let clock = self.clock;
        let ways = self.config.ways;
        let entries = &mut self.sets[set];
        if let Some(e) = entries.iter_mut().find(|e| e.tag == tag) {
            e.target = target;
            e.lru = clock;
            return;
        }
        let new_entry = BtbEntry {
            tag,
            target,
            lru: clock,
        };
        if entries.len() < ways {
            entries.push(new_entry);
        } else {
            let victim = entries
                .iter_mut()
                .min_by_key(|e| e.lru)
                .expect("non-empty set");
            *victim = new_entry;
        }
    }

    /// `(hits, lookups)` counted so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.lookups)
    }

    /// Raw state for external snapshot serializers: per-set rows of
    /// `(tag, target, lru)` plus `(clock, hits, lookups)`.
    #[allow(clippy::type_complexity)]
    pub fn snapshot_state(&self) -> (Vec<Vec<(u64, Addr, u64)>>, u64, u64, u64) {
        let sets = self
            .sets
            .iter()
            .map(|s| s.iter().map(|e| (e.tag, e.target, e.lru)).collect())
            .collect();
        (sets, self.clock, self.hits, self.lookups)
    }

    /// Restores state captured by [`Btb::snapshot_state`] in place,
    /// reusing the per-set allocations. Returns `false` — leaving the BTB
    /// unchanged — when the geometry does not fit this BTB's
    /// configuration.
    pub fn restore_state(
        &mut self,
        sets: &[Vec<(u64, Addr, u64)>],
        clock: u64,
        hits: u64,
        lookups: u64,
    ) -> bool {
        if sets.len() != self.config.sets || sets.iter().any(|s| s.len() > self.config.ways) {
            return false;
        }
        for (dst, src) in self.sets.iter_mut().zip(sets) {
            dst.clear();
            dst.extend(
                src.iter()
                    .map(|&(tag, target, lru)| BtbEntry { tag, target, lru }),
            );
        }
        self.clock = clock;
        self.hits = hits;
        self.lookups = lookups;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Btb {
        Btb::new(BtbConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn miss_then_hit() {
        let mut b = tiny();
        assert_eq!(b.lookup(Addr::new(4)), None);
        b.update(Addr::new(4), Addr::new(100));
        assert_eq!(b.lookup(Addr::new(4)), Some(Addr::new(100)));
        assert_eq!(b.hit_stats(), (1, 2));
    }

    #[test]
    fn update_replaces_target() {
        let mut b = tiny();
        b.update(Addr::new(4), Addr::new(100));
        b.update(Addr::new(4), Addr::new(200));
        assert_eq!(b.peek(Addr::new(4)), Some(Addr::new(200)));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut b = tiny();
        // Addresses 0, 2, 4 all map to set 0 (even words).
        b.update(Addr::new(0), Addr::new(10));
        b.update(Addr::new(2), Addr::new(20));
        // Touch 0 so 2 becomes LRU.
        assert_eq!(b.lookup(Addr::new(0)), Some(Addr::new(10)));
        b.update(Addr::new(4), Addr::new(40)); // evicts 2
        assert_eq!(b.peek(Addr::new(2)), None);
        assert_eq!(b.peek(Addr::new(0)), Some(Addr::new(10)));
        assert_eq!(b.peek(Addr::new(4)), Some(Addr::new(40)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut b = tiny();
        b.update(Addr::new(0), Addr::new(10)); // set 0
        b.update(Addr::new(1), Addr::new(11)); // set 1
        b.update(Addr::new(2), Addr::new(12)); // set 0
        b.update(Addr::new(3), Addr::new(13)); // set 1
        assert_eq!(b.peek(Addr::new(0)), Some(Addr::new(10)));
        assert_eq!(b.peek(Addr::new(3)), Some(Addr::new(13)));
    }

    #[test]
    fn peek_does_not_count() {
        let mut b = tiny();
        b.update(Addr::new(0), Addr::new(10));
        let _ = b.peek(Addr::new(0));
        assert_eq!(b.hit_stats(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_panics() {
        let _ = Btb::new(BtbConfig { sets: 3, ways: 1 });
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_ways_panics() {
        let _ = Btb::new(BtbConfig { sets: 2, ways: 0 });
    }

    #[test]
    fn returns_with_multiple_callers_thrash() {
        // The Table-4 phenomenon in miniature: one return, two callers.
        let mut b = tiny();
        let ret_pc = Addr::new(6);
        let mut hits = 0;
        for i in 0..100u64 {
            let actual = if i % 2 == 0 {
                Addr::new(50)
            } else {
                Addr::new(70)
            };
            if b.lookup(ret_pc) == Some(actual) {
                hits += 1;
            }
            b.update(ret_pc, actual);
        }
        // Strictly alternating callers: the BTB's last-target prediction
        // is always stale.
        assert_eq!(hits, 0);
    }

    #[test]
    fn config_accessor() {
        assert_eq!(tiny().config().ways, 2);
    }
}
