//! Throughput meters: event counts over a wall-clock window.

use crate::Counter;
use std::fmt;
use std::time::Duration;

/// An event counter paired with the wall-clock window it was observed
/// over, yielding a rate.
///
/// The experiment engine uses meters for its run summaries: jobs
/// completed per second, simulated cycles per second, committed
/// instructions per second. The window is set once from a measured
/// elapsed time rather than sampled internally, so a `Meter` stays plain
/// data like every other statistic in this crate.
///
/// # Examples
///
/// ```
/// use hydra_stats::Meter;
/// use std::time::Duration;
///
/// let mut m = Meter::new();
/// m.add(50);
/// m.set_window(Duration::from_millis(250));
/// assert_eq!(m.per_sec(), 200.0);
/// assert_eq!(format!("{m}"), "200.0/s");
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Meter {
    events: Counter,
    window_nanos: u128,
}

impl Meter {
    /// Creates a meter with no events and an empty window.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records `n` events.
    pub fn add(&mut self, n: u64) {
        self.events.add(n);
    }

    /// Sets the observation window.
    pub fn set_window(&mut self, window: Duration) {
        self.window_nanos = window.as_nanos();
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.events.value()
    }

    /// The observation window.
    pub fn window(&self) -> Duration {
        // u128 nanos always round-trip for windows set from a Duration
        // measured on this machine.
        Duration::from_nanos(self.window_nanos as u64)
    }

    /// Events per second over the window; zero for an empty window.
    pub fn per_sec(&self) -> f64 {
        if self.window_nanos == 0 {
            0.0
        } else {
            self.events.value() as f64 * 1e9 / self.window_nanos as f64
        }
    }

    /// The meter as a JSON object with stable field names:
    /// `{"events", "window_ms", "per_sec"}`.
    ///
    /// `window_ms` and `per_sec` are wall-clock measurements; the golden
    /// differ treats `*_ms` / `*_per_sec` fields as timing and compares
    /// them with tolerance rather than exactly.
    pub fn to_json(&self) -> crate::Json {
        crate::Json::obj([
            ("events", crate::Json::int(self.events())),
            (
                "window_ms",
                crate::Json::num(self.window_nanos as f64 / 1e6),
            ),
            ("per_sec", crate::Json::num(self.per_sec())),
        ])
    }
}

impl fmt::Display for Meter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rate = self.per_sec();
        if rate >= 1e6 {
            write!(f, "{:.2}M/s", rate / 1e6)
        } else if rate >= 1e3 {
            write!(f, "{:.1}k/s", rate / 1e3)
        } else {
            write!(f, "{rate:.1}/s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_is_zero_rate() {
        let mut m = Meter::new();
        m.add(10);
        assert_eq!(m.per_sec(), 0.0);
    }

    #[test]
    fn rate_scales_with_window() {
        let mut m = Meter::new();
        m.add(100);
        m.set_window(Duration::from_secs(4));
        assert_eq!(m.per_sec(), 25.0);
        assert_eq!(m.events(), 100);
        assert_eq!(m.window(), Duration::from_secs(4));
    }

    #[test]
    fn to_json_uses_stable_field_names() {
        let mut m = Meter::new();
        m.add(100);
        m.set_window(Duration::from_secs(2));
        assert_eq!(
            m.to_json().to_string(),
            r#"{"events":100,"window_ms":2000,"per_sec":50}"#
        );
    }

    #[test]
    fn to_json_zero_samples() {
        assert_eq!(
            Meter::new().to_json().to_string(),
            r#"{"events":0,"window_ms":0,"per_sec":0}"#
        );
    }

    #[test]
    fn to_json_single_sample() {
        let mut m = Meter::new();
        m.add(1);
        m.set_window(Duration::from_millis(500));
        assert_eq!(
            m.to_json().to_string(),
            r#"{"events":1,"window_ms":500,"per_sec":2}"#
        );
    }

    #[test]
    fn to_json_saturating_counts_stay_valid_json() {
        let mut m = Meter::new();
        m.add(u64::MAX);
        m.add(u64::MAX); // Counter saturates instead of wrapping
        assert_eq!(m.events(), u64::MAX);
        m.set_window(Duration::from_secs(1));
        let doc = m.to_json();
        assert!(crate::Json::parse(&doc.to_string()).is_ok());
        assert_eq!(
            doc.get("events").and_then(crate::Json::as_num),
            Some(u64::MAX as f64)
        );
    }

    #[test]
    fn display_uses_magnitude_suffixes() {
        let mut m = Meter::new();
        m.add(3_000_000);
        m.set_window(Duration::from_secs(1));
        assert_eq!(format!("{m}"), "3.00M/s");
        let mut k = Meter::new();
        k.add(1500);
        k.set_window(Duration::from_secs(1));
        assert_eq!(format!("{k}"), "1.5k/s");
    }
}
