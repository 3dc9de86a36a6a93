//! Histograms over small unsigned-integer domains.

use std::fmt;

/// A histogram over `u64` sample values.
///
/// Used for call-depth distributions, live-path counts, and RUU occupancy.
/// Buckets are exact values up to a configurable cap; everything at or above
/// the cap lands in a single overflow bucket so the structure stays small
/// even for pathological inputs.
///
/// # Examples
///
/// ```
/// use hydra_stats::Histogram;
///
/// let mut depths = Histogram::with_cap(8);
/// for d in [0u64, 1, 1, 2, 3, 100] {
///     depths.record(d);
/// }
/// assert_eq!(depths.count(1), 2);
/// assert_eq!(depths.overflow(), 1);
/// assert_eq!(depths.total(), 6);
/// assert_eq!(depths.max(), Some(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    max: Option<u64>,
}

impl Histogram {
    /// Creates a histogram with exact buckets for values `0..cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero; a histogram needs at least one exact bucket.
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap > 0, "histogram cap must be at least 1");
        Histogram {
            buckets: vec![0; cap],
            overflow: 0,
            total: 0,
            sum: 0,
            max: None,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
        self.sum += u128::from(value);
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples that had exactly `value` (zero for values at or
    /// above the cap; those are in [`Histogram::overflow`]).
    pub fn count(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Number of samples at or above the cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all recorded samples, or zero if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest sample seen, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// The exact-bucket cap this histogram was built with.
    pub fn cap(&self) -> usize {
        self.buckets.len()
    }

    /// The `p`-th percentile (0–100) by nearest-rank over the exact
    /// buckets, or `None` when empty. Ranks that land in the overflow
    /// bucket resolve to the largest sample seen — the exact value is
    /// gone but the tail stays honest.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        // Clamp into [1, total]: p = 100 on a large population can round
        // up past the last rank in f64, which would skip every bucket.
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut cum = 0u64;
        for (value, count) in self.iter() {
            cum += count;
            if cum >= rank {
                return Some(value);
            }
        }
        self.max
    }

    /// Iterates over `(value, count)` pairs for the exact buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(v, &c)| (v as u64, c))
    }

    /// Raw state for external snapshot serializers:
    /// `(buckets, overflow, total, sum, max)`.
    pub fn raw_parts(&self) -> (&[u64], u64, u64, u128, Option<u64>) {
        (&self.buckets, self.overflow, self.total, self.sum, self.max)
    }

    /// Rebuilds a histogram from [`Histogram::raw_parts`] output. Returns
    /// `None` for an empty bucket vector (a histogram always has at least
    /// one exact bucket).
    pub fn from_raw_parts(
        buckets: Vec<u64>,
        overflow: u64,
        total: u64,
        sum: u128,
        max: Option<u64>,
    ) -> Option<Self> {
        if buckets.is_empty() {
            return None;
        }
        Some(Histogram {
            buckets,
            overflow,
            total,
            sum,
            max,
        })
    }

    /// The histogram as a JSON object with stable field names:
    /// `{"count", "mean", "p50", "p95", "p99", "max", "overflow",
    /// "buckets"}`. The percentiles and `max` are `null` when empty;
    /// `buckets` lists only the non-empty exact buckets as
    /// `[value, count]` pairs so sparse histograms stay small.
    pub fn to_json(&self) -> crate::Json {
        let opt = |v: Option<u64>| v.map(crate::Json::int).unwrap_or(crate::Json::Null);
        crate::Json::obj([
            ("count", crate::Json::int(self.total)),
            ("mean", crate::Json::num(self.mean())),
            ("p50", opt(self.percentile(50.0))),
            ("p95", opt(self.percentile(95.0))),
            ("p99", opt(self.percentile(99.0))),
            ("max", opt(self.max)),
            ("overflow", crate::Json::int(self.overflow)),
            (
                "buckets",
                crate::Json::arr(
                    self.iter()
                        .filter(|&(_, c)| c > 0)
                        .map(|(v, c)| crate::Json::arr([crate::Json::int(v), crate::Json::int(c)])),
                ),
            ),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_cap(64)
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histogram(total={}, mean={:.2}, max={})",
            self.total,
            self.mean(),
            self.max.map_or_else(|| "-".to_string(), |m| m.to_string())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::with_cap(4);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    #[should_panic(expected = "cap must be at least 1")]
    fn zero_cap_panics() {
        let _ = Histogram::with_cap(0);
    }

    #[test]
    fn records_exact_and_overflow() {
        let mut h = Histogram::with_cap(2);
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(2); // at cap -> overflow
        h.record(999);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn mean_and_max() {
        let mut h = Histogram::with_cap(16);
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.max(), Some(6));
    }

    #[test]
    fn iter_walks_buckets_in_order() {
        let mut h = Histogram::with_cap(3);
        h.record(2);
        h.record(2);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 0), (1, 0), (2, 2)]);
    }

    #[test]
    fn display_is_nonempty() {
        let h = Histogram::with_cap(1);
        assert!(!format!("{h}").is_empty());
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut h = Histogram::with_cap(100);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(95.0), Some(95));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(0.0), Some(1));
        // The sample `100` sits at the cap (overflow bucket), so the
        // top rank resolves through the observed max.
        assert_eq!(h.percentile(100.0), Some(100));
    }

    #[test]
    fn percentile_empty_single_and_overflow() {
        assert_eq!(Histogram::with_cap(4).percentile(50.0), None);

        let mut single = Histogram::with_cap(4);
        single.record(2);
        assert_eq!(single.percentile(50.0), Some(2));
        assert_eq!(single.percentile(95.0), Some(2));

        // Ranks past the exact buckets resolve to the observed max.
        let mut h = Histogram::with_cap(2);
        h.record(0);
        h.record(500);
        h.record(900);
        assert_eq!(h.percentile(50.0), Some(900));
    }

    #[test]
    fn percentile_top_rank_on_saturating_buckets() {
        // Every sample lands in the overflow bucket: the exact buckets
        // are empty and every rank — including the q=1.0 edge, where f64
        // rounding can push ceil() past the last rank — must resolve
        // through the observed max, never to None.
        let mut h = Histogram::with_cap(1);
        for _ in 0..3 {
            h.record(u64::MAX);
        }
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        assert_eq!(h.percentile(99.0), Some(u64::MAX));
        assert_eq!(h.percentile(50.0), Some(u64::MAX));

        // A population large enough that (p/100)*total rounds up past
        // total in f64 still clamps back to the last rank.
        let mut big = Histogram::with_cap(2);
        big.record(1);
        big.total = u64::MAX - 1; // simulate a huge sample count
        big.buckets[1] = u64::MAX - 1;
        assert_eq!(big.percentile(100.0), Some(1));
    }

    #[test]
    fn to_json_zero_samples() {
        let h = Histogram::with_cap(4);
        assert_eq!(
            h.to_json().to_string(),
            r#"{"count":0,"mean":0,"p50":null,"p95":null,"p99":null,"max":null,"overflow":0,"buckets":[]}"#
        );
    }

    #[test]
    fn to_json_single_sample() {
        let mut h = Histogram::with_cap(8);
        h.record(3);
        assert_eq!(
            h.to_json().to_string(),
            r#"{"count":1,"mean":3,"p50":3,"p95":3,"p99":3,"max":3,"overflow":0,"buckets":[[3,1]]}"#
        );
    }

    #[test]
    fn to_json_saturating_values_stay_valid_json() {
        let mut h = Histogram::with_cap(2);
        h.record(u64::MAX); // far past the cap: overflow bucket
        h.record(u64::MAX);
        let doc = h.to_json();
        assert_eq!(doc.get("overflow").and_then(crate::Json::as_num), Some(2.0));
        assert_eq!(doc.get("count").and_then(crate::Json::as_num), Some(2.0));
        // The document still parses even with 2^64-scale numbers.
        assert!(crate::Json::parse(&doc.to_string()).is_ok());
    }
}
