//! The benchmark's own tests: output contract, determinism, op-position
//! independence, and coverage of the recorded results.

use std::process::Command;
use std::time::Instant;

use hydra_stats::Json;
use perfbench::recorder::Recorder;
use perfbench::{run, Expected, Inputs, Kind, Options, Report, Scale, INPUT_SETS};

/// Small enough for a test, large enough that every layer does work.
const TINY: Scale = Scale {
    programs: 1,
    fast_forward: 10_000,
    ladder_horizon: 2_000,
    multipath_horizon: 2_000,
    fuzz_cases: 4,
    setup_reps: 2,
    min_ops: 1,
};

fn tiny_run(kind: Kind, trace: bool) -> Report {
    let opts = Options {
        kind,
        seed: 0,
        seconds: 0.0,
        trace,
        scale: TINY,
    };
    run(&opts, None)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks the result line carries exactly the declared metrics.
fn assert_prints(report: &Report, section: &str) {
    let line = Json::parse(&report.json_line()).expect("result line is JSON");
    assert!(line.get("correct").is_some() && line.get("failed").is_some());
    assert!(line.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    let metrics = line.get("metrics").expect("metrics object");
    let wanted = declared(section);
    for (name, unit) in &wanted {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(m.get("value").and_then(Json::as_num).is_some(), "{name}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
    }
    assert_eq!(report.metrics.len(), wanted.len(), "undeclared metrics");
}

#[test]
fn tiny_runs_print_every_declared_metric_with_its_unit() {
    for kind in Kind::ALL {
        let report = tiny_run(kind, false);
        assert!(report.correct, "{}", kind.name());
        assert_prints(&report, "end_to_end");
        let traced = tiny_run(kind, true);
        assert_prints(&traced, "per_layer");
        assert!(!traced.recorder.spans().is_empty());
    }
}

#[test]
fn two_tiny_runs_give_identical_results() {
    for kind in Kind::ALL {
        let (a, b) = (tiny_run(kind, false), tiny_run(kind, false));
        assert_eq!(a.keys, b.keys, "{}", kind.name());
        assert_eq!(a.sim_digest, b.sim_digest);
        for name in ["ipc", "ret_hit_pct"] {
            let value = |r: &Report| r.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert_eq!(value(&a).to_bits(), value(&b).to_bits(), "{name}");
        }
    }
}

#[test]
fn a_result_that_differs_from_the_recorded_one_fails_its_op() {
    let opts = Options {
        kind: Kind::RepairLadder,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: TINY,
    };
    let mut wrong = Expected::default();
    let honest = run(&opts, None);
    let mut keys = honest.keys.clone();
    keys[0] = "0000000000000000".to_string();
    wrong.insert(0, keys, None);
    let report = run(&opts, Some(&wrong));
    assert!(!report.correct);
    assert_eq!(report.failed, 1);
}

#[test]
fn multipath_op_cost_does_not_depend_on_its_position() {
    let scale = Scale {
        programs: 1,
        ..Scale::FULL
    };
    let mut rec = Recorder::new(false);
    let inputs = Inputs::set_up(Kind::Multipath, 0, &scale, &mut rec, None);
    // Op 3 is 4 paths, unified stack: the op with the most forks.
    let timed = |rec: &mut Recorder| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let key = inputs.run_op(3, rec, 0).key();
                (t.elapsed(), key)
            })
            .min()
            .unwrap()
    };
    let (first, first_key) = timed(&mut rec);
    for _ in 0..4 {
        for i in 0..inputs.len() {
            inputs.run_op(i, &mut rec, 0);
        }
    }
    let (last, last_key) = timed(&mut rec);
    assert_eq!(first_key, last_key);
    assert!(
        last < first * 2 && first < last * 2,
        "run first: {first:?}, run last: {last:?}"
    );
}

#[test]
fn recorded_results_cover_every_op_of_every_input_set() {
    for kind in Kind::ALL {
        let table = Expected::committed(kind);
        for set in 0..INPUT_SETS {
            let inputs = Inputs::set_up(kind, set, &Scale::FULL, &mut Recorder::new(false), None);
            let n = inputs.len();
            assert!(table.op(set, n - 1).is_some(), "{} set {set}", kind.name());
            assert!(table.op(set, n).is_none(), "{} set {set}", kind.name());
            assert_eq!(table.sim(set).is_some(), kind == Kind::Fuzz);
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for args in [
        "",
        "--workload bogus --seed 0 --seconds 1 --trace 0",
        "--workload fuzz --seed x --seconds 1 --trace 0",
        "--workload fuzz --seed 0 --seconds 1 --trace 2",
        "--workload fuzz --seed 0 --seconds -1 --trace 0",
        "--workload fuzz --seed 0 --seconds 1",
    ] {
        let out = Command::new(bin)
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
