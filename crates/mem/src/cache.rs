//! A single set-associative cache level.

/// Geometry of one cache level. Addresses are in words; a line holds
/// `line_words` consecutive words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Words per line (power of two).
    pub line_words: u64,
}

impl CacheConfig {
    /// Total capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_words
    }
}

/// Access statistics for one cache level.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; zero when no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    lru: u64,
}

/// One set-associative, LRU, write-allocate cache level.
///
/// Contents are tags only — the simulator keeps architectural data
/// elsewhere; the cache exists to decide hit or miss.
///
/// # Examples
///
/// ```
/// use hydra_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { sets: 64, ways: 2, line_words: 8 });
/// assert!(!c.access(100)); // cold miss (installs the line)
/// assert!(c.access(100));  // hit
/// assert!(c.access(101));  // same line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_words` is not a power of two, or `ways`
    /// is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        assert!(config.ways > 0, "cache associativity must be > 0");
        assert!(
            config.line_words.is_power_of_two(),
            "cache line size must be a power of two"
        );
        Cache {
            config,
            // Built per-set (not `vec![..; sets]`): cloning a `Vec` does
            // not preserve its capacity, which would push every set's
            // first fills onto the heap mid-run. Full `ways` capacity up
            // front keeps cold-set line installs allocation-free.
            sets: (0..config.sets)
                .map(|_| Vec::with_capacity(config.ways))
                .collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn locate(&self, addr_word: u64) -> (usize, u64) {
        let line_addr = addr_word / self.config.line_words;
        let set = (line_addr as usize) & (self.config.sets - 1);
        let tag = line_addr >> self.config.sets.trailing_zeros();
        (set, tag)
    }

    /// Accesses `addr_word`; returns whether it hit. A miss installs the
    /// line (write-allocate for stores, demand fill for loads/fetches),
    /// evicting the LRU way if needed.
    pub fn access(&mut self, addr_word: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.locate(addr_word);
        let clock = self.clock;
        let ways = self.config.ways;
        let lines = &mut self.sets[set];
        if let Some(line) = lines.iter_mut().find(|l| l.tag == tag) {
            line.lru = clock;
            self.stats.hits += 1;
            return true;
        }
        let line = Line { tag, lru: clock };
        if lines.len() < ways {
            lines.push(line);
        } else {
            let victim = lines.iter_mut().min_by_key(|l| l.lru).expect("non-empty");
            *victim = line;
        }
        false
    }

    /// Whether `addr_word` is resident, without touching state.
    pub fn probe(&self, addr_word: u64) -> bool {
        let (set, tag) = self.locate(addr_word);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Raw state for external snapshot serializers: per-set rows of
    /// `(tag, lru)` plus `(clock, stats)`.
    #[allow(clippy::type_complexity)]
    pub fn snapshot_state(&self) -> (Vec<Vec<(u64, u64)>>, u64, CacheStats) {
        let sets = self
            .sets
            .iter()
            .map(|s| s.iter().map(|l| (l.tag, l.lru)).collect())
            .collect();
        (sets, self.clock, self.stats)
    }

    /// Restores state captured by [`Cache::snapshot_state`] in place,
    /// reusing the per-set allocations. Returns `false` — leaving the
    /// cache unchanged — when the geometry does not fit this cache's
    /// configuration.
    pub fn restore_state(
        &mut self,
        sets: &[Vec<(u64, u64)>],
        clock: u64,
        stats: CacheStats,
    ) -> bool {
        if sets.len() != self.config.sets || sets.iter().any(|s| s.len() > self.config.ways) {
            return false;
        }
        for (dst, src) in self.sets.iter_mut().zip(sets) {
            dst.clear();
            dst.extend(src.iter().map(|&(tag, lru)| Line { tag, lru }));
        }
        self.clock = clock;
        self.stats = stats;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_words: 4,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().hit_rate(), 0.5);
    }

    #[test]
    fn spatial_locality_within_line() {
        let mut c = tiny();
        c.access(8); // line covering words 8..12
        assert!(c.access(9));
        assert!(c.access(11));
        assert!(!c.access(12)); // next line
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Lines at word 0, 16, 32 all map to set 0 (line_addr 0, 4, 8 — even).
        c.access(0);
        c.access(16);
        c.access(0); // refresh 0; 16 becomes LRU
        c.access(32); // evicts 16
        assert!(c.probe(0));
        assert!(!c.probe(16));
        assert!(c.probe(32));
    }

    #[test]
    fn probe_is_pure() {
        let mut c = tiny();
        c.access(0);
        let s = *c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(100));
        assert_eq!(*c.stats(), s);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0), "line still resident");
    }

    #[test]
    fn capacity_words() {
        assert_eq!(tiny().config().capacity_words(), 16);
    }

    #[test]
    fn empty_stats_hit_rate_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_words: 4,
        });
    }
}
