//! Newline-delimited JSON event stream export.
//!
//! One event per line, each a self-contained object with a `kind` tag
//! and a leading `seq` — the format for feeding traces to line-oriented
//! tools (`grep ras_repair`, `jq`-style processors) without loading the
//! whole document. A final `{"kind":"trace_end", ...}` line carries the
//! stream totals so truncated files are detectable.

use super::Trace;
use hydra_stats::Json;
use std::io::{self, Write};

/// Writes `trace` as NDJSON. `seq` counts from the first recorded
/// event, dropped ones included.
pub fn write_ndjson<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    let mut written = 0u64;
    for (seq, ev) in (trace.dropped()..).zip(trace.events()) {
        if let Some(Json::Obj(mut members)) = ev.to_json() {
            members.insert(0, ("seq".to_string(), Json::int(seq)));
            writeln!(w, "{}", Json::Obj(members))?;
            written += 1;
        }
    }
    let end = Json::obj([
        ("kind", Json::str("trace_end")),
        ("events", Json::int(written)),
        ("dropped", Json::int(trace.dropped())),
    ]);
    writeln!(w, "{end}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use hydra_pipeline::Event;

    #[test]
    fn one_valid_json_object_per_line() {
        let sim = |event| TraceEvent::Sim {
            cycle: 1,
            hart: 0,
            event,
        };
        let trace = Trace::of(
            vec![
                sim(Event::RasPush {
                    hart: 0,
                    path: 0,
                    addr: 0x44,
                    overflow: false,
                }),
                sim(Event::RasRestore {
                    hart: 0,
                    path: 0,
                    id: 9,
                    policy: "full",
                }),
            ],
            0,
        );
        let mut out = Vec::new();
        write_ndjson(&trace, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(Json::parse(line).is_ok(), "bad line: {line}");
        }
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("seq").and_then(Json::as_num), Some(0.0));
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("ras_push"));
        let end = Json::parse(lines[2]).unwrap();
        assert_eq!(end.get("kind").and_then(Json::as_str), Some("trace_end"));
        assert_eq!(end.get("events").and_then(Json::as_num), Some(2.0));
    }
}
