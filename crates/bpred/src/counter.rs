//! Saturating counters — the primitive of every table-based predictor.

/// An n-bit saturating up/down counter (1 ≤ n ≤ 8).
///
/// The classic two-bit counter (Smith, ISCA-8) predicts taken when in the
/// upper half of its range. Wider counters are used by confidence
/// estimators.
///
/// # Examples
///
/// ```
/// use hydra_bpred::SaturatingCounter;
///
/// let mut c = SaturatingCounter::two_bit();
/// assert!(!c.is_high()); // initialized weakly not-taken
/// c.increment();
/// c.increment();
/// assert!(c.is_high());
/// c.increment(); // saturates at 3
/// assert_eq!(c.value(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates an `bits`-bit counter starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or if `initial` exceeds
    /// the counter's maximum.
    pub fn new(bits: u32, initial: u8) -> Self {
        assert!((1..=8).contains(&bits), "counter width must be 1..=8 bits");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        SaturatingCounter {
            value: initial,
            max,
        }
    }

    /// The conventional 2-bit counter initialized to weakly-not-taken (1).
    pub fn two_bit() -> Self {
        SaturatingCounter::new(2, 1)
    }

    /// Current value.
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum (saturation) value.
    pub fn max(self) -> u8 {
        self.max
    }

    /// Increments, saturating at the maximum.
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Resets to zero (used by JRS confidence counters on a miss).
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Whether the counter is in the upper half of its range — "predict
    /// taken" for direction counters, "choose component 1" for choosers.
    pub fn is_high(self) -> bool {
        u16::from(self.value) * 2 > u16::from(self.max)
    }

    /// Whether the counter is saturated at its maximum — "high confidence"
    /// for JRS counters.
    pub fn is_saturated(self) -> bool {
        self.value == self.max
    }

    /// Trains the counter toward `outcome` (increment if true).
    pub fn train(&mut self, outcome: bool) {
        if outcome {
            self.increment();
        } else {
            self.decrement();
        }
    }

    /// Raw state for external snapshot serializers: `(value, max)`.
    pub fn raw_parts(self) -> (u8, u8) {
        (self.value, self.max)
    }

    /// Rebuilds a counter from [`SaturatingCounter::raw_parts`] output.
    /// Returns `None` when `max` is not of the form `2^n - 1` (1 ≤ n ≤ 8)
    /// or `value` exceeds it.
    pub fn from_raw_parts(value: u8, max: u8) -> Option<Self> {
        let width_ok = (u16::from(max) + 1).is_power_of_two() && max >= 1;
        (width_ok && value <= max).then_some(SaturatingCounter { value, max })
    }
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        SaturatingCounter::two_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SaturatingCounter::two_bit();
        assert_eq!(c.value(), 1);
        assert!(!c.is_high());
        c.increment(); // 2: weakly taken
        assert!(c.is_high());
        c.increment(); // 3
        c.increment(); // saturate
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
        c.decrement(); // 2
        assert!(c.is_high());
        c.decrement(); // 1
        c.decrement(); // 0
        c.decrement(); // saturate at 0
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn train_moves_toward_outcome() {
        let mut c = SaturatingCounter::two_bit();
        c.train(true);
        c.train(true);
        assert!(c.is_high());
        c.train(false);
        c.train(false);
        c.train(false);
        assert!(!c.is_high());
    }

    #[test]
    fn wide_counter_confidence_semantics() {
        let mut c = SaturatingCounter::new(4, 0);
        assert_eq!(c.max(), 15);
        for _ in 0..15 {
            assert!(!c.is_saturated());
            c.increment();
        }
        assert!(c.is_saturated());
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn one_bit_counter() {
        let mut c = SaturatingCounter::new(1, 0);
        assert!(!c.is_high());
        c.increment();
        assert!(c.is_high());
        assert!(c.is_saturated());
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_bits_panics() {
        let _ = SaturatingCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn nine_bits_panics() {
        let _ = SaturatingCounter::new(9, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn initial_out_of_range_panics() {
        let _ = SaturatingCounter::new(2, 4);
    }

    #[test]
    fn midpoint_is_not_high() {
        // For a 2-bit counter, value 2 of max 3: 2*2=4 > 3 -> high.
        // For a 3-bit counter, value 4 of max 7: 8 > 7 -> high; value 3 is not.
        let c = SaturatingCounter::new(3, 3);
        assert!(!c.is_high());
        let c = SaturatingCounter::new(3, 4);
        assert!(c.is_high());
    }
}
