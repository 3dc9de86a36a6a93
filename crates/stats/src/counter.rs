//! Event counters and derived ratios.

use std::fmt;
use std::ops::AddAssign;

/// A monotonically increasing event counter.
///
/// Counters are the primitive every simulator statistic is built from:
/// instructions committed, branches resolved, stack pushes, and so on.
///
/// # Examples
///
/// ```
/// use hydra_stats::Counter;
///
/// let mut commits = Counter::new();
/// commits.add(3);
/// commits.increment();
/// assert_eq!(commits.value(), 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds a single event.
    pub fn increment(&mut self) {
        self.add(1);
    }

    /// Returns the current count.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

impl From<u64> for Counter {
    fn from(v: u64) -> Self {
        Counter(v)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A ratio of two event counts, e.g. a hit rate or IPC.
///
/// A `Ratio` remembers its numerator and denominator so reports can show
/// both the rate and the underlying population. A zero denominator yields a
/// rate of zero rather than a NaN, which is the convention the experiment
/// tables want (an empty population has "no misses", not an undefined rate).
///
/// # Examples
///
/// ```
/// use hydra_stats::Ratio;
///
/// let r = Ratio::of(99, 100);
/// assert!((r.value() - 0.99).abs() < 1e-12);
/// assert_eq!(format!("{r}"), "99.00%");
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    numerator: u64,
    denominator: u64,
}

impl Ratio {
    /// Creates a ratio of `numerator` over `denominator`.
    pub fn of(numerator: u64, denominator: u64) -> Self {
        Ratio {
            numerator,
            denominator,
        }
    }

    /// Creates a ratio from two counters.
    pub fn from_counters(numerator: Counter, denominator: Counter) -> Self {
        Ratio::of(numerator.value(), denominator.value())
    }

    /// The numerator (event count of interest).
    pub fn numerator(self) -> u64 {
        self.numerator
    }

    /// The denominator (population size).
    pub fn denominator(self) -> u64 {
        self.denominator
    }

    /// The ratio as a fraction in `[0, +inf)`; zero when the denominator is
    /// zero.
    pub fn value(self) -> f64 {
        if self.denominator == 0 {
            0.0
        } else {
            self.numerator as f64 / self.denominator as f64
        }
    }

    /// The ratio expressed as a percentage.
    pub fn percent(self) -> f64 {
        self.value() * 100.0
    }

    /// The complementary ratio `1 - value`, clamped at zero; useful for
    /// turning a hit rate into a miss rate.
    pub fn complement(self) -> Ratio {
        Ratio {
            numerator: self.denominator.saturating_sub(self.numerator),
            denominator: self.denominator,
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_zero() {
        assert_eq!(Counter::new().value(), 0);
        assert_eq!(Counter::default().value(), 0);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(10);
        c.increment();
        c += 5;
        assert_eq!(c.value(), 16);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::from(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn counter_reset() {
        let mut c = Counter::from(42);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn ratio_basic() {
        let r = Ratio::of(1, 4);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.percent(), 25.0);
        assert_eq!(r.numerator(), 1);
        assert_eq!(r.denominator(), 4);
    }

    #[test]
    fn ratio_zero_denominator_is_zero() {
        assert_eq!(Ratio::of(7, 0).value(), 0.0);
    }

    #[test]
    fn ratio_complement() {
        let r = Ratio::of(30, 100).complement();
        assert_eq!(r.numerator(), 70);
        assert_eq!(r.percent(), 70.0);
    }

    #[test]
    fn ratio_complement_clamps() {
        // A numerator larger than the denominator (should not happen, but
        // must not underflow).
        let r = Ratio::of(10, 4).complement();
        assert_eq!(r.numerator(), 0);
    }

    #[test]
    fn ratio_from_counters() {
        let mut hit = Counter::new();
        let mut all = Counter::new();
        hit.add(3);
        all.add(4);
        let r = Ratio::from_counters(hit, all);
        assert_eq!(r.percent(), 75.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Counter::from(12)), "12");
        assert_eq!(format!("{}", Ratio::of(1, 3)), "33.33%");
    }
}
