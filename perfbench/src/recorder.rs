//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the simulator, around calls into each
//! layer's public functions, so the traced program is the same program
//! the untraced run measures. (The `trace` cargo feature compiles events
//! into the pipeline's hot path and would measure a different program.)
//! Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of an open or closed span in its [`Recorder`].
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `pipeline.run`.
    pub name: &'static str,
    /// The op the call belongs to (`None` for set-up spans).
    pub op: Option<u64>,
    /// The span that made the call.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Calls recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
}

impl Totals {
    /// Mean duration per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// In-memory span recorder. A disabled recorder records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span; returns `None` when recording is off.
    pub fn open(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Call count and total time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.op),
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut r = Recorder::new(true);
        let op = r.open("op", Some(7), None);
        for _ in 0..2 {
            r.leaf("child", Some(7), op, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        r.close(op);
        assert_eq!(r.spans()[1].parent, op);
        let t = r.totals();
        assert_eq!(t["op"].count, 1);
        assert_eq!(t["child"].count, 2);
        assert!(t["op"].total_ns >= t["child"].total_ns);
        assert!(t["child"].mean_ms() >= 1.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.open("op", None, None);
        assert_eq!(id, None);
        r.leaf("child", None, id, || ());
        r.close(id);
        assert!(r.spans().is_empty());
    }
}
