//! Streaming summary statistics (Welford's algorithm).

use std::fmt;

/// A streaming mean/variance accumulator.
///
/// Used by the multi-seed experiments to report run-to-run variation
/// without storing every sample. Numerically stable (Welford).
///
/// # Examples
///
/// ```
/// use hydra_stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.stddev() - 2.138).abs() < 0.01);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator; zero for fewer than
    /// two samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The summary as a JSON object with stable field names:
    /// `{"count", "mean", "stddev", "min", "max"}` (`min`/`max` are
    /// `null` when empty).
    pub fn to_json(&self) -> crate::Json {
        let opt = |v: Option<f64>| v.map(crate::Json::num).unwrap_or(crate::Json::Null);
        crate::Json::obj([
            ("count", crate::Json::int(self.count)),
            ("mean", crate::Json::num(self.mean())),
            ("stddev", crate::Json::num(self.stddev())),
            ("min", opt(self.min())),
            ("max", opt(self.max())),
        ])
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} (n={})",
            self.mean(),
            self.stddev(),
            self.count
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn known_distribution() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.stddev() - 2.1380899).abs() < 1e-6);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn constant_samples_have_zero_variance() {
        let s: Summary = std::iter::repeat_n(7.0, 100).collect();
        assert_eq!(s.mean(), 7.0);
        assert!(s.stddev() < 1e-12);
    }

    #[test]
    fn to_json_uses_stable_field_names() {
        let empty = Summary::new().to_json();
        assert_eq!(
            empty.to_string(),
            r#"{"count":0,"mean":0,"stddev":0,"min":null,"max":null}"#
        );
        let s: Summary = [1.0, 3.0].into_iter().collect();
        assert_eq!(
            s.to_json().get("mean").and_then(crate::Json::as_num),
            Some(2.0)
        );
        assert_eq!(
            s.to_json().get("max").and_then(crate::Json::as_num),
            Some(3.0)
        );
    }

    #[test]
    fn to_json_single_sample() {
        let mut s = Summary::new();
        s.record(4.5);
        assert_eq!(
            s.to_json().to_string(),
            r#"{"count":1,"mean":4.5,"stddev":0,"min":4.5,"max":4.5}"#
        );
    }

    #[test]
    fn to_json_saturating_samples_stay_valid_json() {
        // Samples at the extremes of f64 overflow the Welford delta to
        // a non-finite intermediate; Json::num must degrade non-finite
        // values to strings so the document still parses.
        let mut s = Summary::new();
        s.record(f64::MAX);
        s.record(f64::MIN);
        let doc = s.to_json();
        assert!(crate::Json::parse(&doc.to_string()).is_ok());
        assert_eq!(doc.get("count").and_then(crate::Json::as_num), Some(2.0));
    }

    #[test]
    fn display_shows_mean_and_spread() {
        let s: Summary = [1.0, 3.0].into_iter().collect();
        assert_eq!(s.to_string(), "2.000 ± 1.414 (n=2)");
    }
}
