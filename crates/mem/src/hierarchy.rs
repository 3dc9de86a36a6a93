//! The composed two-level hierarchy.

use crate::{Cache, CacheConfig, CacheStats};

/// Configuration of the full memory system.
///
/// Defaults follow the paper's baseline (Table 1): 64 KB-class split L1
/// caches with single-cycle hits, a large unified L2, and a fixed
/// main-memory latency. Sizes are expressed in words (4 bytes each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// Additional cycles for an L2 hit.
    pub l2_latency: u64,
    /// Additional cycles for a main-memory access.
    pub memory_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            // 64 KB: 128 sets x 8 words/line x ... => 128*16*8 words = 64KB.
            l1i: CacheConfig {
                sets: 128,
                ways: 2,
                line_words: 16,
            },
            l1d: CacheConfig {
                sets: 128,
                ways: 2,
                line_words: 16,
            },
            // 2 MB-class unified L2.
            l2: CacheConfig {
                sets: 2048,
                ways: 4,
                line_words: 16,
            },
            l1_latency: 1,
            l2_latency: 12,
            memory_latency: 80,
        }
    }
}

/// The split-L1 / unified-L2 hierarchy the core issues accesses to.
///
/// Instruction fetches go through `L1I -> L2 -> memory`; loads and stores
/// through `L1D -> L2 -> memory`. Every access returns its total latency
/// in cycles and warms the caches it traverses — including wrong-path
/// accesses, which is how the model captures speculative prefetching and
/// pollution.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry is invalid (see [`Cache::new`]).
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs an instruction fetch of the word at `addr_word`; returns
    /// the access latency in cycles.
    pub fn inst_access(&mut self, addr_word: u64) -> u64 {
        if self.l1i.access(addr_word) {
            self.config.l1_latency
        } else if self.l2.access(addr_word) {
            self.config.l1_latency + self.config.l2_latency
        } else {
            self.config.l1_latency + self.config.l2_latency + self.config.memory_latency
        }
    }

    /// Performs a data access (load or store) of the word at `addr_word`;
    /// returns the access latency in cycles. `is_write` only affects
    /// statistics attribution today (the model is write-allocate either
    /// way).
    pub fn data_access(&mut self, addr_word: u64, is_write: bool) -> u64 {
        let _ = is_write;
        if self.l1d.access(addr_word) {
            self.config.l1_latency
        } else if self.l2.access(addr_word) {
            self.config.l1_latency + self.config.l2_latency
        } else {
            self.config.l1_latency + self.config.l2_latency + self.config.memory_latency
        }
    }

    /// Statistics for `(L1I, L1D, L2)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (*self.l1i.stats(), *self.l1d.stats(), *self.l2.stats())
    }

    /// Resets all statistics, keeping cache contents warm (used after a
    /// warm-up phase).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }

    /// Borrowed `(L1I, L1D, L2)` levels, for external snapshot
    /// serializers walking per-cache state.
    pub fn caches(&self) -> (&Cache, &Cache, &Cache) {
        (&self.l1i, &self.l1d, &self.l2)
    }

    /// Mutable `(L1I, L1D, L2)` levels, for restoring per-cache snapshot
    /// state in place.
    pub fn caches_mut(&mut self) -> (&mut Cache, &mut Cache, &mut Cache) {
        (&mut self.l1i, &mut self.l1d, &mut self.l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            l1i: CacheConfig {
                sets: 2,
                ways: 1,
                line_words: 4,
            },
            l1d: CacheConfig {
                sets: 2,
                ways: 1,
                line_words: 4,
            },
            l2: CacheConfig {
                sets: 4,
                ways: 2,
                line_words: 4,
            },
            l1_latency: 1,
            l2_latency: 10,
            memory_latency: 100,
        })
    }

    #[test]
    fn latencies_compose() {
        let mut m = small();
        assert_eq!(m.inst_access(0), 111); // cold: L1 + L2 + mem
        assert_eq!(m.inst_access(0), 1); // L1 hit
                                         // Evict from tiny L1I but it remains in L2.
        m.inst_access(8); // set 0 conflict (line 2 -> set 0)
        assert_eq!(m.inst_access(0), 11); // L1 miss, L2 hit
    }

    #[test]
    fn data_and_inst_caches_are_split() {
        let mut m = small();
        m.inst_access(0);
        // Same address on the data side still cold in L1D but warm in L2.
        assert_eq!(m.data_access(0, false), 11);
    }

    #[test]
    fn writes_allocate() {
        let mut m = small();
        m.data_access(20, true);
        assert_eq!(m.data_access(20, false), 1);
    }

    #[test]
    fn stats_report_all_levels() {
        let mut m = small();
        m.inst_access(0);
        m.data_access(0, false);
        let (i, d, l2) = m.stats();
        assert_eq!(i.accesses, 1);
        assert_eq!(d.accesses, 1);
        assert_eq!(l2.accesses, 2);
        assert_eq!(l2.hits, 1);
        m.reset_stats();
        assert_eq!(m.stats().2.accesses, 0);
    }

    #[test]
    fn default_config_is_sane() {
        let c = HierarchyConfig::default();
        assert!(c.l2.capacity_words() > c.l1i.capacity_words());
        assert!(c.memory_latency > c.l2_latency);
        let m = MemoryHierarchy::new(c);
        assert_eq!(m.config().l1_latency, 1);
    }
}
