//! JRS-style branch-confidence estimation.

use crate::SaturatingCounter;
use hydra_isa::Addr;

/// Geometry and threshold of the confidence estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidenceConfig {
    /// Table entries (power of two).
    pub entries: usize,
    /// Counter width in bits.
    pub counter_bits: u32,
    /// Counter value at or above which a branch is "high confidence".
    pub threshold: u8,
}

impl Default for ConfidenceConfig {
    fn default() -> Self {
        ConfidenceConfig {
            entries: 1024,
            counter_bits: 4,
            threshold: 12,
        }
    }
}

/// A Jacobsen/Rotenberg/Smith miss-distance-counter confidence estimator.
///
/// Each table entry counts consecutive correct predictions for the
/// branches that map to it; a misprediction resets the counter. A branch
/// whose counter is below the threshold is *low confidence* — the
/// multipath core forks on exactly those branches, as the paper's
/// selective-eager-execution policy prescribes.
///
/// # Examples
///
/// ```
/// use hydra_bpred::{ConfidenceConfig, ConfidenceEstimator};
/// use hydra_isa::Addr;
///
/// let mut ce = ConfidenceEstimator::new(ConfidenceConfig::default());
/// let pc = Addr::new(12);
/// assert!(!ce.is_confident(pc)); // cold: low confidence
/// for _ in 0..16 {
///     ce.update(pc, true);
/// }
/// assert!(ce.is_confident(pc));
/// ce.update(pc, false); // one miss resets
/// assert!(!ce.is_confident(pc));
/// ```
#[derive(Debug, Clone)]
pub struct ConfidenceEstimator {
    config: ConfidenceConfig,
    table: Vec<SaturatingCounter>,
}

impl ConfidenceEstimator {
    /// Creates an estimator with all counters at zero (everything low
    /// confidence until proven predictable).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, or the threshold does
    /// not fit in the counter width.
    pub fn new(config: ConfidenceConfig) -> Self {
        assert!(
            config.entries.is_power_of_two(),
            "confidence table entries must be a power of two"
        );
        let probe = SaturatingCounter::new(config.counter_bits, 0);
        assert!(
            config.threshold <= probe.max(),
            "threshold {} exceeds counter max {}",
            config.threshold,
            probe.max()
        );
        ConfidenceEstimator {
            config,
            table: vec![probe; config.entries],
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ConfidenceConfig {
        &self.config
    }

    fn index(&self, pc: Addr) -> usize {
        (pc.word() as usize) & (self.table.len() - 1)
    }

    /// Whether the branch at `pc` is currently high confidence.
    pub fn is_confident(&self, pc: Addr) -> bool {
        self.table[self.index(pc)].value() >= self.config.threshold
    }

    /// Trains with a resolved branch: `correct` is whether the direction
    /// prediction was right. Called at commit.
    pub fn update(&mut self, pc: Addr, correct: bool) {
        let idx = self.index(pc);
        if correct {
            self.table[idx].increment();
        } else {
            self.table[idx].reset();
        }
    }

    /// Raw counter values for external snapshot serializers.
    pub fn snapshot_state(&self) -> Vec<u8> {
        self.table.iter().map(|c| c.value()).collect()
    }

    /// Restores counter values captured by
    /// [`ConfidenceEstimator::snapshot_state`] in place. Returns `false` —
    /// leaving the table unchanged — when the length or a value does not
    /// fit this estimator's configuration.
    pub fn restore_state(&mut self, values: &[u8]) -> bool {
        let max = SaturatingCounter::new(self.config.counter_bits, 0).max();
        if values.len() != self.table.len() || values.iter().any(|&v| v > max) {
            return false;
        }
        for (c, &v) in self.table.iter_mut().zip(values) {
            *c = SaturatingCounter::from_raw_parts(v, max).expect("validated above");
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ConfidenceEstimator {
        ConfidenceEstimator::new(ConfidenceConfig {
            entries: 16,
            counter_bits: 4,
            threshold: 8,
        })
    }

    #[test]
    fn cold_table_is_low_confidence() {
        let ce = small();
        assert!(!ce.is_confident(Addr::new(0)));
    }

    #[test]
    fn builds_confidence_with_correct_streak() {
        let mut ce = small();
        let pc = Addr::new(5);
        for i in 0..8 {
            assert!(!ce.is_confident(pc), "iteration {i}");
            ce.update(pc, true);
        }
        assert!(ce.is_confident(pc));
    }

    #[test]
    fn miss_resets_confidence() {
        let mut ce = small();
        let pc = Addr::new(5);
        for _ in 0..15 {
            ce.update(pc, true);
        }
        assert!(ce.is_confident(pc));
        ce.update(pc, false);
        assert!(!ce.is_confident(pc));
    }

    #[test]
    fn aliasing_shares_counters() {
        let mut ce = small();
        // 16-entry table: word 1 and word 17 alias.
        for _ in 0..10 {
            ce.update(Addr::new(1), true);
        }
        assert!(ce.is_confident(Addr::new(17)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_entries_panics() {
        let _ = ConfidenceEstimator::new(ConfidenceConfig {
            entries: 10,
            ..ConfidenceConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "exceeds counter max")]
    fn threshold_too_large_panics() {
        let _ = ConfidenceEstimator::new(ConfidenceConfig {
            entries: 16,
            counter_bits: 2,
            threshold: 5,
        });
    }

    #[test]
    fn config_accessor() {
        assert_eq!(small().config().threshold, 8);
    }
}
