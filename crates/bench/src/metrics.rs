//! A process-wide registry of named counters, gauges, and histograms.
//!
//! Unlike trace events, metrics are always on: they are coarse (one
//! update per job or per run, never per simulated cycle) so the mutex
//! here costs nothing that matters, and `expt --profile` can dump them
//! after any run. Names are dot-separated (`engine.job_ms`); the
//! snapshot sorts them so output is deterministic.

use hydra_stats::{Histogram, Json};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry. Obtain the process-wide instance with [`metrics`].
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// Adds `n` to the named counter (saturating, created at zero).
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock().unwrap();
        let c = inner.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .unwrap()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram, creating it with
    /// exact buckets for `0..cap` on first use (`cap` is ignored after
    /// that).
    pub fn histogram_record(&self, name: &str, value: u64, cap: usize) {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_cap(cap.max(1)))
            .record(value);
    }

    /// A snapshot of every metric as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`, each
    /// sorted by name.
    pub fn to_json(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        Json::obj([
            (
                "counters",
                Json::obj(
                    inner
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::int(*v))),
                ),
            ),
            (
                "gauges",
                Json::obj(inner.gauges.iter().map(|(k, v)| (k.clone(), Json::num(*v)))),
            ),
            (
                "histograms",
                Json::obj(
                    inner
                        .histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json())),
                ),
            ),
        ])
    }

    /// Clears every metric (e.g. between a binary's setup and its
    /// measured phase).
    pub fn reset(&self) {
        *self.inner.lock().unwrap() = Inner::default();
    }
}

/// The process-wide registry.
pub fn metrics() -> &'static Metrics {
    static REGISTRY: OnceLock<Metrics> = OnceLock::new();
    REGISTRY.get_or_init(Metrics::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Use a private registry per test: the global one is shared with
    // every other test in the binary.
    #[test]
    fn counters_accumulate_and_saturate() {
        let m = Metrics::default();
        m.counter_add("t.count", 2);
        m.counter_add("t.count", 3);
        m.counter_add("t.sat", u64::MAX);
        m.counter_add("t.sat", 1);
        let doc = m.to_json();
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("t.count").and_then(Json::as_num), Some(5.0));
        assert_eq!(
            counters.get("t.sat").and_then(Json::as_num),
            Some(u64::MAX as f64)
        );
    }

    #[test]
    fn gauges_keep_latest_and_histograms_aggregate() {
        let m = Metrics::default();
        m.gauge_set("t.g", 1.0);
        m.gauge_set("t.g", 2.5);
        m.histogram_record("t.h", 3, 16);
        m.histogram_record("t.h", 5, 9999); // cap ignored after creation
        let doc = m.to_json();
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("t.g"))
                .and_then(Json::as_num),
            Some(2.5)
        );
        let h = doc.get("histograms").and_then(|h| h.get("t.h")).unwrap();
        assert_eq!(h.get("count").and_then(Json::as_num), Some(2.0));
        assert_eq!(h.get("max").and_then(Json::as_num), Some(5.0));
    }

    #[test]
    fn snapshot_is_sorted_and_parses() {
        let m = Metrics::default();
        m.counter_add("b", 1);
        m.counter_add("a", 1);
        let text = m.to_json().to_string();
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
        assert!(Json::parse(&text).is_ok());
        m.reset();
        assert_eq!(
            m.to_json().to_string(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    fn global_registry_is_shared() {
        metrics().counter_add("test.metrics.global", 1);
        let doc = metrics().to_json();
        assert!(doc
            .get("counters")
            .and_then(|c| c.get("test.metrics.global"))
            .is_some());
    }
}
