//! Integration tests for the structured-results layer and the
//! golden-snapshot harness: JSON documents must be byte-identical for
//! any worker count, the committed quick-mode goldens must verify
//! in-process, and the `expt` CLI must speak every format.

use hydra_bench::golden::{check, GoldenError};
use hydra_bench::results::{experiment_doc, sink_for, suite_doc, write_out_dir, Format};
use hydra_bench::{find, run_experiment, RunSpec};
use hydra_stats::Json;
use std::path::PathBuf;
use std::process::Command;

fn tiny() -> RunSpec {
    RunSpec::builder()
        .seed(7)
        .fast_forward(200)
        .horizon(2_000)
        .build()
}

/// The committed goldens at the repository root.
fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
}

#[test]
fn json_document_is_byte_identical_for_any_worker_count() {
    let rs = tiny();
    let e = find("fig-repair").expect("registered");
    let serial = experiment_doc(e.as_ref(), &rs, &run_experiment(e.as_ref(), &rs, 1));
    let parallel = experiment_doc(e.as_ref(), &rs, &run_experiment(e.as_ref(), &rs, 8));
    assert_eq!(serial.pretty(), parallel.pretty());
}

#[test]
fn suite_document_round_trips_through_the_parser() {
    let rs = tiny();
    let finished: Vec<_> = ["table1", "fig-analytical"]
        .iter()
        .map(|name| {
            let e = find(name).expect("registered");
            let run = run_experiment(e.as_ref(), &rs, 2);
            (e.name().to_string(), e.title().to_string(), run)
        })
        .collect();
    let doc = suite_doc(&rs, &finished);
    assert_eq!(Json::parse(&doc.pretty()).expect("parses"), doc);
    let experiments = doc.get("experiments").and_then(Json::as_arr).unwrap();
    assert_eq!(experiments.len(), 2);
}

#[test]
fn committed_goldens_verify_at_quick_sizing() {
    // The full suite takes minutes; spot-check one zero-job experiment,
    // one trace-model experiment, and one real cycle-level experiment
    // against the goldens actually committed in the repository. CI runs
    // `expt --check-golden` over everything.
    let rs = RunSpec::quick();
    for name in ["table1", "fig-analytical", "table2"] {
        let e = find(name).expect("registered");
        if let Err(err) = check(e.as_ref(), &rs, 4, &goldens_dir()) {
            panic!("golden check failed for {name}: {err}");
        }
    }
}

#[test]
fn tampered_golden_is_detected() {
    let rs = RunSpec::quick();
    let e = find("table1").expect("registered");
    // Copy the committed golden, tamper with one result field.
    let golden = std::fs::read_to_string(goldens_dir().join("table1.json")).unwrap();
    let tampered = golden.replacen("64 entries", "65 entries", 1);
    assert_ne!(golden, tampered, "fixture must actually change the doc");
    let dir = std::env::temp_dir().join("hydra-tampered-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("table1.json"), tampered).unwrap();
    match check(e.as_ref(), &rs, 1, &dir) {
        Err(GoldenError::Mismatched(ms)) => {
            assert!(
                ms.iter().any(|m| m.path.starts_with("/table/rows")),
                "{ms:?}"
            );
        }
        other => panic!("expected Mismatched, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_sink_consumes_a_full_run() {
    let rs = tiny();
    let e = find("fig-analytical").expect("registered");
    let run = run_experiment(e.as_ref(), &rs, 2);
    for format in [Format::Table, Format::Json, Format::Csv] {
        let mut sink = sink_for(format);
        let mut out = Vec::new();
        sink.emit(&mut out, e.as_ref(), &rs, &run).unwrap();
        sink.finish(&mut out, &rs).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("wrong-path"), "{format:?}: {text}");
    }
}

#[test]
fn out_dir_gets_result_docs_and_bench_artifact() {
    let rs = tiny();
    let e = find("table1").expect("registered");
    let run = run_experiment(e.as_ref(), &rs, 1);
    let finished = vec![("table1".to_string(), e.title().to_string(), run)];
    let dir = std::env::temp_dir().join("hydra-out-dir-test");
    let _ = std::fs::remove_dir_all(&dir);
    write_out_dir(&dir, &rs, &finished).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(dir.join("table1.json")).unwrap()).unwrap();
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("table1"));
    let bench =
        Json::parse(&std::fs::read_to_string(dir.join("BENCH_expt.json")).unwrap()).unwrap();
    assert!(bench.get("total").and_then(|t| t.get("wall_ms")).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

// --- CLI-level tests (dev-profile binary: stick to zero-job experiments) ---

#[test]
fn cli_format_json_emits_a_parsable_schema_versioned_document() {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["table1", "--format", "json"])
        .env("HYDRA_EXPT_MODE", "quick")
        .output()
        .expect("expt binary runs");
    assert!(out.status.success());
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("stdout is JSON");
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_num),
        Some(hydra_bench::SCHEMA_VERSION as f64)
    );
}

#[test]
fn cli_format_csv_emits_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["table1", "--format", "csv"])
        .env("HYDRA_EXPT_MODE", "quick")
        .output()
        .expect("expt binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("# table1:"), "{text}");
    assert!(text.contains("parameter,value"));
}

#[test]
fn cli_rejects_unknown_format() {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["table1", "--format", "yaml"])
        .output()
        .expect("expt binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("yaml"));
}

#[test]
fn cli_check_golden_passes_for_committed_table1() {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["--check-golden", "table1", "--goldens"])
        .arg(goldens_dir())
        // Must be ignored: golden checks always run the quick spec.
        .env("HYDRA_EXPT_MODE", "full")
        .output()
        .expect("expt binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("golden table1"), "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn cli_check_golden_fails_cleanly_without_goldens() {
    let dir = std::env::temp_dir().join("hydra-no-goldens-here");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["--check-golden", "table1", "--goldens"])
        .arg(&dir)
        .output()
        .expect("expt binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("no golden"));
    let _ = std::fs::remove_dir_all(&dir);
}
