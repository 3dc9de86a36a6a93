//! The schema-versioned structured-results layer.
//!
//! Every [`Experiment`] harvests to a typed
//! [`hydra_stats::Table`]; this module projects those tables into
//! machine-readable documents and routes them through a [`ResultSink`]:
//!
//! * [`TextSink`] — the classic fixed-width text tables on stdout;
//! * [`JsonSink`] — one schema-versioned JSON document for the whole run;
//! * [`CsvSink`] — one CSV section per experiment.
//!
//! Two invariants the golden-snapshot harness (see [`crate::golden`])
//! relies on:
//!
//! 1. **Result documents are deterministic.** They contain only values
//!    derived from the simulation (which is a pure function of the run
//!    spec), never wall-clock measurements, so the bytes are identical
//!    for any `--jobs` value and across machines.
//! 2. **Schema changes are versioned.** Every document carries
//!    [`SCHEMA_VERSION`]; the differ refuses to compare across versions.
//!
//! Engine timing lives in a *separate*, explicitly non-deterministic
//! artifact: [`bench_doc`] builds the `BENCH_expt.json` perf-trajectory
//! document (per-experiment throughput from the engine's
//! [`hydra_stats::Meter`]s) so simulator speed can be tracked over time
//! without ever contaminating result goldens.

use hydra_stats::Json;
use std::io::{self, Write};
use std::path::Path;

use crate::engine::EngineReport;
use crate::error::Error;
use crate::experiments::{Experiment, ExperimentRun};
use crate::RunSpec;

/// Version of the structured-results document layout. Bump on any
/// renamed/removed field or reordered member; the golden differ treats a
/// version mismatch as a hard error.
pub const SCHEMA_VERSION: u64 = 1;

/// Output format selected by `expt --format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Fixed-width text tables (the default; byte-identical to the
    /// pre-structured-results `expt` output).
    #[default]
    Table,
    /// One schema-versioned JSON document for the run.
    Json,
    /// One CSV section per experiment.
    Csv,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "table" => Ok(Format::Table),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!(
                "unknown format {other:?} (expected table, json, or csv)"
            )),
        }
    }
}

/// The run-spec header every document carries.
fn run_json(rs: &RunSpec) -> Json {
    Json::obj([
        ("seed", Json::int(rs.seed)),
        ("fast_forward", Json::int(rs.fast_forward)),
        ("horizon", Json::int(rs.horizon)),
    ])
}

/// The deterministic result document for one finished experiment:
/// `{schema_version, experiment, title, run, table}`.
///
/// This is the unit committed under `goldens/<name>.json` and the unit
/// [`crate::golden::check`] compares.
pub fn experiment_doc(experiment: &dyn Experiment, rs: &RunSpec, run: &ExperimentRun) -> Json {
    Json::obj([
        ("schema_version", Json::int(SCHEMA_VERSION)),
        ("experiment", Json::str(experiment.name())),
        ("title", Json::str(experiment.title())),
        ("run", run_json(rs)),
        ("table", run.table.to_json()),
    ])
}

/// The deterministic result document for a whole `expt` invocation:
/// `{schema_version, run, experiments: [...]}` with one
/// [`experiment_doc`]-shaped entry (minus the repeated header) per
/// experiment, in execution order.
pub fn suite_doc(rs: &RunSpec, finished: &[(String, String, ExperimentRun)]) -> Json {
    Json::obj([
        ("schema_version", Json::int(SCHEMA_VERSION)),
        ("run", run_json(rs)),
        (
            "experiments",
            Json::arr(finished.iter().map(|(name, title, run)| {
                Json::obj([
                    ("experiment", Json::str(name)),
                    ("title", Json::str(title)),
                    ("table", run.table.to_json()),
                ])
            })),
        ),
    ])
}

/// The `BENCH_expt.json` perf-trajectory document: engine throughput per
/// experiment plus run totals. **Not deterministic** — every field under
/// `"engine"` is a wall-clock measurement; the golden differ's timing
/// tolerance exists for documents like this one.
pub fn bench_doc(rs: &RunSpec, per_experiment: &[(String, EngineReport)]) -> Json {
    let mut total = EngineReport::default();
    for (_, report) in per_experiment {
        total.absorb(report);
    }
    Json::obj([
        ("schema_version", Json::int(SCHEMA_VERSION)),
        ("run", run_json(rs)),
        (
            "experiments",
            Json::arr(per_experiment.iter().map(|(name, report)| {
                Json::obj([
                    ("experiment", Json::str(name)),
                    ("engine", report.to_json()),
                ])
            })),
        ),
        ("total", total.to_json()),
    ])
}

/// A destination for finished experiments.
///
/// Sinks receive experiments one at a time, in execution order, and may
/// either stream (text, CSV) or buffer until [`ResultSink::finish`]
/// (JSON needs the whole run to close its document). Engine timing is
/// *not* routed through sinks — it goes to stderr and `BENCH_expt.json`
/// so result output stays deterministic.
pub trait ResultSink {
    /// Consumes one finished experiment.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    fn emit(
        &mut self,
        out: &mut dyn Write,
        experiment: &dyn Experiment,
        rs: &RunSpec,
        run: &ExperimentRun,
    ) -> io::Result<()>;

    /// Flushes anything buffered once every experiment has been emitted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    fn finish(&mut self, out: &mut dyn Write, rs: &RunSpec) -> io::Result<()>;
}

/// Streams fixed-width text tables, one blank line between experiments.
#[derive(Debug, Default)]
pub struct TextSink;

impl ResultSink for TextSink {
    fn emit(
        &mut self,
        out: &mut dyn Write,
        _experiment: &dyn Experiment,
        _rs: &RunSpec,
        run: &ExperimentRun,
    ) -> io::Result<()> {
        writeln!(out, "{}", run.table)
    }

    fn finish(&mut self, _out: &mut dyn Write, _rs: &RunSpec) -> io::Result<()> {
        Ok(())
    }
}

/// Buffers every experiment and writes one pretty-printed
/// [`suite_doc`] at the end of the run.
#[derive(Debug, Default)]
pub struct JsonSink {
    finished: Vec<(String, String, ExperimentRun)>,
}

impl ResultSink for JsonSink {
    fn emit(
        &mut self,
        _out: &mut dyn Write,
        experiment: &dyn Experiment,
        _rs: &RunSpec,
        run: &ExperimentRun,
    ) -> io::Result<()> {
        self.finished.push((
            experiment.name().to_string(),
            experiment.title().to_string(),
            run.clone(),
        ));
        Ok(())
    }

    fn finish(&mut self, out: &mut dyn Write, rs: &RunSpec) -> io::Result<()> {
        out.write_all(suite_doc(rs, &self.finished).pretty().as_bytes())
    }
}

/// Streams one CSV section per experiment: a `# name: title` comment
/// line, the table as CSV, then a blank line.
#[derive(Debug, Default)]
pub struct CsvSink;

impl ResultSink for CsvSink {
    fn emit(
        &mut self,
        out: &mut dyn Write,
        experiment: &dyn Experiment,
        _rs: &RunSpec,
        run: &ExperimentRun,
    ) -> io::Result<()> {
        writeln!(out, "# {}: {}", experiment.name(), experiment.title())?;
        out.write_all(run.table.to_csv().as_bytes())?;
        writeln!(out)
    }

    fn finish(&mut self, _out: &mut dyn Write, _rs: &RunSpec) -> io::Result<()> {
        Ok(())
    }
}

/// The sink for a [`Format`].
pub fn sink_for(format: Format) -> Box<dyn ResultSink> {
    match format {
        Format::Table => Box::new(TextSink),
        Format::Json => Box::<JsonSink>::default(),
        Format::Csv => Box::new(CsvSink),
    }
}

/// Writes the per-experiment result documents and the `BENCH_expt.json`
/// perf artifact into `dir` (created if missing).
///
/// One `<experiment-name>.json` per finished experiment — the exact
/// format committed under `goldens/` — plus `BENCH_expt.json`. Pointing
/// this at `goldens/` *is* the golden-regeneration workflow.
///
/// # Errors
///
/// [`Error::Io`] naming the directory creation or file write that
/// failed.
pub fn write_out_dir(
    dir: &Path,
    rs: &RunSpec,
    finished: &[(String, String, ExperimentRun)],
) -> Result<(), Error> {
    std::fs::create_dir_all(dir)
        .map_err(|io| Error::io(format!("creating {}", dir.display()), io))?;
    let write = |path: std::path::PathBuf, contents: String| {
        std::fs::write(&path, contents)
            .map_err(|io| Error::io(format!("writing {}", path.display()), io))
    };
    let mut reports = Vec::new();
    for (name, title, run) in finished {
        let doc = Json::obj([
            ("schema_version", Json::int(SCHEMA_VERSION)),
            ("experiment", Json::str(name)),
            ("title", Json::str(title)),
            ("run", run_json(rs)),
            ("table", run.table.to_json()),
        ]);
        write(dir.join(format!("{name}.json")), doc.pretty())?;
        reports.push((name.clone(), run.report.clone()));
    }
    write(
        dir.join("BENCH_expt.json"),
        bench_doc(rs, &reports).pretty(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::find;
    use crate::run_experiment;

    fn tiny() -> RunSpec {
        RunSpec {
            seed: 7,
            fast_forward: 200,
            horizon: 2_000,
        }
    }

    #[test]
    fn format_parses_and_rejects() {
        assert_eq!("table".parse::<Format>(), Ok(Format::Table));
        assert_eq!("json".parse::<Format>(), Ok(Format::Json));
        assert_eq!("csv".parse::<Format>(), Ok(Format::Csv));
        assert!("yaml".parse::<Format>().is_err());
    }

    #[test]
    fn experiment_doc_carries_schema_and_table() {
        let rs = tiny();
        let e = find("table1").expect("registered");
        let run = run_experiment(e.as_ref(), &rs, 1);
        let doc = experiment_doc(e.as_ref(), &rs, &run);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_num),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("table1"));
        assert_eq!(
            doc.get("run")
                .and_then(|r| r.get("seed"))
                .and_then(Json::as_num),
            Some(7.0)
        );
        let rows = doc
            .get("table")
            .and_then(|t| t.get("rows"))
            .and_then(Json::as_arr)
            .expect("table rows");
        assert!(!rows.is_empty());
    }

    #[test]
    fn json_doc_round_trips_and_has_no_timing_fields() {
        let rs = tiny();
        let e = find("table1").expect("registered");
        let run = run_experiment(e.as_ref(), &rs, 1);
        let doc = experiment_doc(e.as_ref(), &rs, &run);
        let reparsed = Json::parse(&doc.pretty()).expect("pretty output parses");
        assert_eq!(reparsed, doc);
        // Result docs must stay wall-clock-free (determinism contract).
        assert!(!doc.pretty().contains("_ms"));
        assert!(!doc.pretty().contains("per_sec"));
    }

    #[test]
    fn bench_doc_aggregates_engine_reports() {
        let rs = tiny();
        let e = find("fig-analytical").expect("registered");
        let run = run_experiment(e.as_ref(), &rs, 2);
        let doc = bench_doc(&rs, &[("fig-analytical".to_string(), run.report.clone())]);
        let engines = doc.get("experiments").and_then(Json::as_arr).unwrap();
        assert_eq!(engines.len(), 1);
        let jobs = engines[0]
            .get("engine")
            .and_then(|e| e.get("jobs"))
            .and_then(Json::as_num)
            .unwrap();
        assert_eq!(jobs as usize, e.plan(&rs).len());
        assert!(doc.get("total").is_some());
    }

    #[test]
    fn sinks_produce_their_formats() {
        let rs = tiny();
        let e = find("table1").expect("registered");
        let run = run_experiment(e.as_ref(), &rs, 1);

        let mut text = Vec::new();
        let mut sink = sink_for(Format::Table);
        sink.emit(&mut text, e.as_ref(), &rs, &run).unwrap();
        sink.finish(&mut text, &rs).unwrap();
        assert!(String::from_utf8(text).unwrap().contains("RUU"));

        let mut json = Vec::new();
        let mut sink = sink_for(Format::Json);
        sink.emit(&mut json, e.as_ref(), &rs, &run).unwrap();
        sink.finish(&mut json, &rs).unwrap();
        let doc = Json::parse(std::str::from_utf8(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("experiments")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );

        let mut csv = Vec::new();
        let mut sink = sink_for(Format::Csv);
        sink.emit(&mut csv, e.as_ref(), &rs, &run).unwrap();
        sink.finish(&mut csv, &rs).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("# table1:"));
        assert!(csv.contains("parameter,value"));
    }
}
