//! Integration tests for the parallel experiment engine and the `expt`
//! CLI: a parallel run must render byte-identical tables to a serial
//! run, `expt --list` must cover the whole registry, both flag spellings
//! parse alike, and `expt run` builds the machine its flags describe.

use hydra_bench::{find, registry, run_experiment, run_job, JobOutput, RunSpec};
use hydra_stats::Json;
use std::process::Command;

fn tiny() -> RunSpec {
    RunSpec::builder()
        .seed(7)
        .fast_forward(200)
        .horizon(2_000)
        .build()
}

#[test]
fn fig_repair_parallel_is_byte_identical_to_serial() {
    let rs = tiny();
    let e = find("fig-repair").expect("fig-repair is registered");
    let serial = run_experiment(e.as_ref(), &rs, 1).table.render();
    let parallel = run_experiment(e.as_ref(), &rs, 8).table.render();
    assert_eq!(serial, parallel);
    // Sanity: the table actually carries simulation results.
    assert!(serial.contains("vortex"));
}

#[test]
fn analytical_parallel_is_byte_identical_to_serial() {
    // The trace-model experiment exercises the Replay job kind.
    let rs = tiny();
    let e = find("fig-analytical").expect("fig-analytical is registered");
    let serial = run_experiment(e.as_ref(), &rs, 1).table.render();
    let parallel = run_experiment(e.as_ref(), &rs, 4).table.render();
    assert_eq!(serial, parallel);
}

#[test]
fn expt_list_covers_every_registered_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .arg("--list")
        .output()
        .expect("expt binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    for e in registry() {
        assert!(
            text.contains(e.name()),
            "expt --list is missing {:?}",
            e.name()
        );
    }
}

#[test]
fn expt_rejects_unknown_names_and_bad_flags() {
    let unknown = Command::new(env!("CARGO_BIN_EXE_expt"))
        .arg("no-such-experiment")
        .output()
        .expect("expt binary runs");
    assert!(!unknown.status.success());
    let err = String::from_utf8(unknown.stderr).expect("utf-8 error");
    assert!(err.contains("no-such-experiment"));

    let bad_jobs = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["table1", "--jobs", "0"])
        .output()
        .expect("expt binary runs");
    assert!(!bad_jobs.status.success());
}

#[test]
fn expt_runs_table1_quickly() {
    // table1 is a configuration dump (zero jobs), so this exercises the
    // full CLI path without a long simulation.
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["table1", "--jobs", "2"])
        .env("HYDRA_EXPT_MODE", "quick")
        .output()
        .expect("expt binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 table");
    assert!(text.contains("baseline machine model"));
}

/// Runs the `expt` binary with `args`; returns (success, stdout, stderr).
fn expt(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(args)
        .output()
        .expect("expt binary runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.success(), text(out.stdout), text(out.stderr))
}

/// `expt run ... --format json` on a short window, parsed.
fn run_json(args: &[&str]) -> Json {
    let mut all = vec!["run", "--warmup", "1000", "--instructions", "5000"];
    all.extend_from_slice(args);
    all.extend_from_slice(&["--format", "json"]);
    let (ok, stdout, stderr) = expt(&all);
    assert!(ok, "expt {all:?} failed: {stderr}");
    Json::parse(&stdout).expect("run prints one JSON document")
}

fn stat(doc: &Json, name: &str) -> f64 {
    doc.get("stats")
        .and_then(|s| s.get(name))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("stats.{name} missing"))
}

/// Asserts that `expt args` fails with a one-line error plus usage.
fn assert_usage_error(args: &[&str]) {
    let (ok, _, stderr) = expt(args);
    assert!(!ok, "expt {args:?} should fail");
    assert!(stderr.starts_with("expt: "), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn jobs_flag_spellings_agree() {
    let (ok_space, space, _) = expt(&["table1", "--jobs", "2"]);
    let (ok_eq, eq, _) = expt(&["table1", "--jobs=2"]);
    assert!(ok_space && ok_eq);
    assert_eq!(space, eq);
    assert!(space.contains("baseline machine model"));
    assert_usage_error(&["table1", "--jobs=0"]);
    assert_usage_error(&["table1", "--list=yes"]);
}

#[test]
fn run_defaults_are_the_paper_baseline() {
    let doc = run_json(&[]);
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("gcc"));
    assert_eq!(doc.get("seed").and_then(Json::as_num), Some(12345.0));
    let explicit = run_json(&[
        "--workload",
        "gcc",
        "--seed",
        "12345",
        "--return-predictor",
        "ras",
        "--repair",
        "tos-pointer-contents",
        "--ras-entries",
        "32",
    ]);
    assert_eq!(doc.get("stats"), explicit.get("stats"));
    assert!(stat(&doc, "committed") >= 5_000.0);
    assert_eq!(stat(&doc, "forks"), 0.0, "single-path by default");
}

#[test]
fn run_full_single_path_line() {
    let args = [
        "run",
        "--workload",
        "li",
        "--seed",
        "7",
        "--warmup",
        "1000",
        "--instructions",
        "5000",
        "--repair",
        "tos-pointer",
        "--ras-entries",
        "8",
        "--budget",
        "4",
    ];
    let (ok, stdout, stderr) = expt(&args);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("workload            : li (seed 7)"),
        "{stdout}"
    );
    assert!(stdout.contains("simulation speed"), "{stdout}");
    let small = run_json(&["--workload", "li", "--seed", "7", "--ras-entries", "8"]);
    let large = run_json(&["--workload", "li", "--seed", "7"]);
    assert!(stat(&small, "ras_overflows") > stat(&large, "ras_overflows"));
}

#[test]
fn run_multipath_and_stack_line() {
    let (ok, stdout, stderr) = expt(&[
        "run",
        "--warmup",
        "1000",
        "--instructions",
        "5000",
        "--multipath",
        "4",
        "--stack",
        "unified-ckpt",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("multipath           :"), "{stdout}");
    let per_path = run_json(&["--multipath", "4"]);
    let unified = run_json(&["--multipath", "4", "--stack", "unified"]);
    assert!(stat(&per_path, "forks") > 0.0);
    assert!(stat(&per_path, "max_live_paths") <= 4.0);
    assert_ne!(per_path.get("stats"), unified.get("stats"));
    assert_usage_error(&["run", "--multipath", "1"]);
}

#[test]
fn run_parses_top_k_repair() {
    let top4 = run_json(&["--repair", "top-4"]);
    assert!(stat(&top4, "returns") > 0.0);
    assert_usage_error(&["run", "--repair", "top-x"]);
    assert_usage_error(&["run", "--repair", "bogus"]);
}

#[test]
fn run_accepts_every_predictor_kind() {
    for kind in ["ras", "self-ckpt", "btb", "perfect"] {
        run_json(&["--return-predictor", kind]);
    }
    let perfect = run_json(&["--return-predictor", "perfect"]);
    assert_eq!(stat(&perfect, "return_hits"), stat(&perfect, "returns"));
    assert_usage_error(&["run", "--return-predictor", "psychic"]);
}

#[test]
fn run_rejects_bad_values_and_unknown_flags_with_usage() {
    assert_usage_error(&["run", "--instructions"]);
    assert_usage_error(&["run", "--seed", "abc"]);
    assert_usage_error(&["run", "--stack", "spaghetti"]);
    assert_usage_error(&["run", "--workload", "nosuch"]);
    assert_usage_error(&["run", "--frobnicate"]);
    assert_usage_error(&["run", "table1"]);
    assert_usage_error(&["run", "--format", "csv"]);
}

#[test]
fn run_parses_trace_flags() {
    assert_usage_error(&["run", "--trace-filter", "bogus"]);
    assert_usage_error(&["run", "--trace"]);
    let path = std::env::temp_dir().join(format!("expt_run_trace_{}.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let (ok, _, stderr) = expt(&[
        "run",
        "--warmup",
        "100",
        "--instructions",
        "1000",
        "--trace",
        path_arg,
        "--trace-filter",
        "ras,branch",
    ]);
    assert!(ok, "{stderr}");
    assert!(path.exists());
    for p in [
        path.clone(),
        path.with_extension("ndjson"),
        path.with_extension("ras.txt"),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn run_btb_only_config_never_touches_the_stack() {
    let doc = run_json(&["--return-predictor", "btb"]);
    assert_eq!(stat(&doc, "ras_pushes"), 0.0);
    assert_eq!(stat(&doc, "return_hits_ras"), 0.0);
    assert!(stat(&doc, "returns") > 0.0);
}

#[test]
fn run_end_to_end_with_golden_check() {
    let (ok, stdout, stderr) = expt(&[
        "run",
        "--workload",
        "compress",
        "--warmup",
        "1000",
        "--instructions",
        "5000",
        "--golden",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("workload            : compress"),
        "{stdout}"
    );
}

#[test]
fn run_json_is_deterministic_apart_from_wall_ms() {
    let strip = |doc: Json| match doc {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .filter(|(k, _)| k != "wall_ms")
                .collect(),
        ),
        other => panic!("expected an object, got {other:?}"),
    };
    let args = ["--workload", "vortex", "--multipath", "2"];
    let first = run_json(&args);
    assert!(first.get("wall_ms").is_some());
    assert_eq!(strip(first), strip(run_json(&args)));
}

#[test]
fn list_names_the_run_workloads() {
    let (ok, stdout, _) = expt(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("expt run"), "{stdout}");
    for spec in hydra_workloads::WorkloadSpec::spec95_suite() {
        assert!(stdout.contains(&format!("\n  {}\n", spec.name)), "{stdout}");
    }
}

/// `--seed` is the suite seed, so an `expt run` line reproduces the
/// matching cell of an experiment table: here quick-mode `fig-repair`'s
/// `li × no repair`. (Not `go`: as the suite's first member its seed
/// equals the suite seed, so it would match even with a wrong
/// derivation.)
#[test]
fn run_reproduces_an_experiment_cell() {
    let rs = RunSpec::quick();
    let experiment = find("fig-repair").expect("fig-repair is registered");
    let job = experiment
        .plan(&rs)
        .into_iter()
        .find(|j| j.label == "li × no repair")
        .expect("fig-repair plans li × no repair");
    let JobOutput::Cycle { stats: cell, .. } = run_job(&job) else {
        panic!("fig-repair runs plain cycle jobs");
    };
    let doc = run_json(&[
        "--workload",
        "li",
        "--seed",
        &rs.seed.to_string(),
        "--warmup",
        &rs.fast_forward.to_string(),
        "--instructions",
        &rs.horizon.to_string(),
        "--return-predictor",
        "ras",
        "--repair",
        "none",
        "--ras-entries",
        "32",
    ]);
    assert_eq!(doc.get("stats"), Some(&cell.to_json()));
}
