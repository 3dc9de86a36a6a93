//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics, or per-layer ones with
//! `--trace 1`, each with its unit). A traced run also writes its spans
//! to `out/spans-<workload>-seed<n>.jsonl` in this package.
//!
//! `perfbench --workload <name> --record` prints the expected-results
//! table for every input set instead (see `expected/`).

use std::path::Path;
use std::process::ExitCode;

use perfbench::{record, run, Expected, Kind, Options, Scale};

const USAGE: &str = "usage: perfbench --workload <repair-ladder|multipath|fuzz> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --workload <name> --record";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut record) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if record {
        return Ok(Args {
            kind,
            seed: 0,
            seconds: 0.0,
            trace: false,
            record,
        });
    }
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record(args.kind, &Scale::FULL) {
            Ok(table) => {
                print!(
                    "{}",
                    table.render(&format!(
                        "Expected outcomes of every {} op, one line per input set;\n\
                         regenerate with `perfbench --workload {} --record`.",
                        args.kind.name(),
                        args.kind.name()
                    ))
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = Options {
        kind: args.kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::FULL,
    };
    let expected = Expected::committed(args.kind);
    let report = run(&opts, Some(&expected));
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                args.kind.name(),
                args.seed
            ));
        if let Err(e) = report.recorder.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for m in &report.metrics {
        eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
