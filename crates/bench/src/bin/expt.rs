//! The unified experiment runner.
//!
//! ```text
//! expt --list                      list every experiment
//! expt table1                      run one experiment
//! expt fig-repair table4           run several, in the order given
//! expt all --jobs 8                run everything on 8 worker threads
//! expt all --format json           one schema-versioned JSON document
//! expt all --format csv            CSV sections, one per experiment
//! expt all --out results/          per-experiment JSON + BENCH_expt.json
//! expt --check-golden              diff quick-mode runs against goldens/
//! expt --check-golden table4 --goldens goldens
//! expt run --workload li --repair none --ras-entries 8
//!                                  one workload on one machine
//! expt run --workload vortex --multipath 2 --format json
//! expt perf                        pinned-suite MIPS + allocation rates
//! expt perf --out results/         ... and write BENCH_perf.json
//! expt perf --baseline goldens/perf_baseline.json   fail on >30% MIPS loss
//! expt report --out results/       render results/report.html dashboard
//! expt fuzz                        differential fuzz: pipeline vs references
//! expt fuzz --cases 500 --seed 7   a longer, differently-seeded campaign
//! expt fuzz --replay repro.json    re-run a minimized divergence repro
//! expt sweep --depths 4,8,16,32    warm-start lattice sweep (one fast-forward
//!                                  snapshot per workload, forked per config)
//! ```
//!
//! Results go to **stdout** and are byte-identical for any `--jobs`
//! value in every format (result documents carry no wall-clock fields);
//! engine timing summaries go to **stderr**, and `--out` additionally
//! writes the timing into a `BENCH_expt.json` perf-trajectory artifact.
//! Sizing comes from the environment (`HYDRA_EXPT_MODE=quick`, plus
//! `HYDRA_EXPT_SEED` / `HYDRA_EXPT_FAST_FORWARD` / `HYDRA_EXPT_HORIZON`
//! overrides) — except `--check-golden`, which always runs the quick
//! spec the committed goldens were generated with.
//!
//! Every failure is a typed [`hydra_bench::Error`]; `main` is the single
//! place errors are printed.

use hydra_bench::golden::check;
use hydra_bench::results::{sink_for, write_out_dir, Format};
use hydra_bench::trace::{run_core, Trace, TraceEvent, TraceFilter};
use hydra_bench::{
    info, perf, registry, run_experiment, run_experiment_traced, verbose, EngineReport, Error,
    Experiment, RunSpec,
};
use hydra_pipeline::{Core, CoreConfig, MultipathConfig, ReturnPredictor};
use hydra_stats::Json;
use hydra_workloads::{Workload, WorkloadSpec};
use ras_core::{MultipathStackPolicy, RepairPolicy};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// A counting wrapper around the system allocator. The library side
/// (`hydra_bench::perf`) forbids `unsafe`, so the binary installs the
/// allocator and hands the perf harness a closure over the counter. One
/// relaxed atomic increment per allocation: unmeasurable against a
/// cycle-level simulator, and exactly the observable the perf report's
/// allocs-per-kilocycle column needs.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const USAGE: &str = "usage: expt --list\n\
       expt <name>... | all  [--jobs N] [--format table|json|csv] [--out DIR]\n\
                             [-v|-q] [--trace FILE] [--trace-filter KINDS]\n\
       expt --check-golden [<name>... | all] [--goldens DIR] [--jobs N]\n\
       expt run [--workload NAME] [--seed S] [--warmup N] [--instructions N] [--golden]\n\
                [--return-predictor ras|self-ckpt|btb|perfect] [--ras-entries N]\n\
                [--repair none|valid-bits|tos-pointer|tos-pointer-contents|top-K|full]\n\
                [--budget N] [--multipath N] [--stack unified|unified-ckpt|per-path]\n\
                [--format table|json] [--trace FILE] [--trace-filter KINDS]\n\
       expt perf [--out DIR] [--baseline FILE]\n\
       expt report --out DIR\n\
       expt fuzz [--cases N] [--seed S] [--replay FILE] [--out DIR]\n\
       expt sweep [--depths N,N,...] [--jobs N] [--format table|json|csv] [--out DIR]\n\
       expt --validate-trace FILE";

/// The subcommand words; any other bare word names an experiment.
const COMMANDS: [&str; 5] = ["run", "perf", "report", "fuzz", "sweep"];

/// `--return-predictor` kinds. A stack's size and repair come from
/// `--ras-entries` and `--repair`, which may follow on the command line,
/// so the predictor is built only once parsing is done.
const PREDICTORS: [&str; 4] = ["ras", "self-ckpt", "btb", "perfect"];

/// `--seed`'s default under `expt fuzz`; `expt run` defaults to the
/// suite seed of [`RunSpec::full`].
const FUZZ_SEED: u64 = 0xC0FFEE;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("expt: {err}");
            if matches!(err, Error::Usage(_) | Error::UnknownExperiment(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

struct Cli {
    list: bool,
    command: Option<&'static str>,
    jobs: Option<usize>,
    format: Format,
    out: Option<PathBuf>,
    check_golden: bool,
    goldens: PathBuf,
    baseline: Option<PathBuf>,
    depths: Option<Vec<usize>>,
    cases: u64,
    seed: Option<u64>,
    replay: Option<PathBuf>,
    names: Vec<String>,
    quiet: bool,
    verbose: bool,
    trace: Option<PathBuf>,
    trace_filter: TraceFilter,
    validate_trace: Option<PathBuf>,
    machine: Machine,
}

/// `expt run`'s workload, run length and machine. The defaults are the
/// paper's baseline: gcc on a 32-entry stack with TOS-pointer+contents
/// repair, over the full-size fast-forward and horizon of
/// [`RunSpec::full`].
struct Machine {
    workload: String,
    warmup: u64,
    instructions: u64,
    predictor: &'static str,
    repair: RepairPolicy,
    ras_entries: usize,
    budget: Option<usize>,
    multipath: Option<usize>,
    stack: MultipathStackPolicy,
    golden: bool,
}

impl Default for Machine {
    fn default() -> Self {
        Machine {
            workload: "gcc".to_string(),
            warmup: RunSpec::full().fast_forward,
            instructions: RunSpec::full().horizon,
            predictor: "ras",
            repair: RepairPolicy::TosPointerAndContents,
            ras_entries: 32,
            budget: None,
            multipath: None,
            stack: MultipathStackPolicy::PerPath,
            golden: false,
        }
    }
}

impl Machine {
    /// The core configuration, checked: a zero-entry stack or a
    /// one-path multipath machine is an error, not a panic.
    fn config(&self) -> Result<CoreConfig, Error> {
        let return_predictor = match self.predictor {
            "ras" => ReturnPredictor::Ras {
                entries: self.ras_entries,
                repair: self.repair,
            },
            "self-ckpt" => ReturnPredictor::SelfCheckpointing {
                entries: self.ras_entries,
            },
            "btb" => ReturnPredictor::BtbOnly,
            "perfect" => ReturnPredictor::Perfect,
            other => unreachable!("parse admits only PREDICTORS, not {other:?}"),
        };
        let multipath = self.multipath.map(|max_paths| MultipathConfig {
            max_paths,
            stack_policy: self.stack,
        });
        CoreConfig::builder()
            .return_predictor(return_predictor)
            .checkpoint_budget(self.budget)
            .multipath(multipath)
            .try_build()
            .map_err(|e| Error::Usage(format!("run: {e}")))
    }
}

fn parse(args: &[String]) -> Result<Cli, Error> {
    let mut cli = Cli {
        list: false,
        command: None,
        jobs: None,
        format: Format::Table,
        out: None,
        check_golden: false,
        goldens: PathBuf::from("goldens"),
        baseline: None,
        depths: None,
        cases: 200,
        seed: None,
        replay: None,
        names: Vec::new(),
        quiet: false,
        verbose: false,
        trace: None,
        trace_filter: TraceFilter::default(),
        validate_trace: None,
        machine: Machine::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // `--flag=value` means `--flag value`.
        let (flag, mut inline) = match arg.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => (flag, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |what: &str| {
            inline
                .take()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| Error::Usage(format!("{flag} needs {what}")))
        };
        match flag {
            "--list" | "-l" => cli.list = true,
            "--help" | "-h" => cli.list = true, // --help shows the list too
            "--quiet" | "-q" => cli.quiet = true,
            "--verbose" | "-v" => cli.verbose = true,
            "--check-golden" => cli.check_golden = true,
            "--golden" => cli.machine.golden = true,
            "--trace" => cli.trace = Some(PathBuf::from(value("an output file")?)),
            "--trace-filter" => {
                cli.trace_filter =
                    TraceFilter::parse(&value("event kinds")?).map_err(Error::Usage)?;
            }
            "--validate-trace" => cli.validate_trace = Some(PathBuf::from(value("a file")?)),
            "--jobs" | "-j" => cli.jobs = Some(parse_count("--jobs", &value("a value")?)?),
            "--format" | "-f" => cli.format = value("a value")?.parse().map_err(Error::Usage)?,
            "--out" | "-o" => cli.out = Some(PathBuf::from(value("a directory")?)),
            "--goldens" => cli.goldens = PathBuf::from(value("a directory")?),
            "--baseline" => cli.baseline = Some(PathBuf::from(value("a file")?)),
            "--cases" => cli.cases = parse_u64(flag, &value("a value")?)?,
            "--seed" => cli.seed = Some(parse_u64(flag, &value("a value")?)?),
            "--depths" => cli.depths = Some(parse_depths(&value("a comma-separated list")?)?),
            "--replay" => cli.replay = Some(PathBuf::from(value("a file")?)),
            "--workload" => cli.machine.workload = value("a workload name")?,
            "--warmup" => cli.machine.warmup = parse_u64(flag, &value("a value")?)?,
            "--instructions" => cli.machine.instructions = parse_u64(flag, &value("a value")?)?,
            "--return-predictor" => {
                let kind = value("a kind")?;
                cli.machine.predictor = PREDICTORS
                    .into_iter()
                    .find(|k| *k == kind)
                    .ok_or_else(|| Error::Usage(format!("unknown return predictor {kind:?}")))?;
            }
            "--repair" => cli.machine.repair = parse_repair(&value("a policy")?)?,
            "--ras-entries" => cli.machine.ras_entries = parse_usize(flag, &value("a value")?)?,
            "--budget" => cli.machine.budget = Some(parse_usize(flag, &value("a value")?)?),
            "--multipath" => cli.machine.multipath = Some(parse_usize(flag, &value("a value")?)?),
            "--stack" => {
                cli.machine.stack = match value("an organization")?.as_str() {
                    "unified" => MultipathStackPolicy::Unified {
                        repair: RepairPolicy::None,
                    },
                    "unified-ckpt" => MultipathStackPolicy::Unified {
                        repair: RepairPolicy::TosPointerAndContents,
                    },
                    "per-path" => MultipathStackPolicy::PerPath,
                    other => {
                        return Err(Error::Usage(format!(
                            "unknown stack organization {other:?}"
                        )))
                    }
                }
            }
            a if a.starts_with('-') => return Err(Error::Usage(format!("unknown flag {a:?}"))),
            word => match COMMANDS.into_iter().find(|c| *c == word) {
                Some(command) => {
                    if let Some(first) = cli.command {
                        return Err(Error::Usage(format!(
                            "'{first}' cannot be combined with '{command}'"
                        )));
                    }
                    cli.command = Some(command);
                }
                None => cli.names.push(word.to_string()),
            },
        }
        if inline.is_some() {
            return Err(Error::Usage(format!("{flag} takes no value")));
        }
    }
    Ok(cli)
}

/// Parses a `u64` flag value, accepting decimal or `0x`-prefixed hex
/// (seeds read naturally either way).
fn parse_u64(flag: &str, v: &str) -> Result<u64, Error> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|e| Error::Usage(format!("{flag}: cannot parse {v:?}: {e}")))
}

fn parse_usize(flag: &str, v: &str) -> Result<usize, Error> {
    v.parse()
        .map_err(|e| Error::Usage(format!("{flag}: cannot parse {v:?}: {e}")))
}

/// Parses a `usize` flag value that must be at least 1 (thread counts,
/// stack depths).
fn parse_count(flag: &str, v: &str) -> Result<usize, Error> {
    let n = parse_usize(flag, v)?;
    if n == 0 {
        return Err(Error::Usage(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses the `--depths` comma-separated list of RAS depths (each at
/// least 1).
fn parse_depths(v: &str) -> Result<Vec<usize>, Error> {
    v.split(',')
        .map(|d| parse_count("--depths", d.trim()))
        .collect()
}

/// Parses a `--repair` policy name; `top-K` checkpoints the top K
/// entries.
fn parse_repair(v: &str) -> Result<RepairPolicy, Error> {
    Ok(match v {
        "none" => RepairPolicy::None,
        "valid-bits" => RepairPolicy::ValidBits,
        "tos-pointer" => RepairPolicy::TosPointer,
        "tos-pointer-contents" => RepairPolicy::TosPointerAndContents,
        "full" => RepairPolicy::FullStack,
        other => match other.strip_prefix("top-").map(str::parse) {
            Some(Ok(k)) => RepairPolicy::TopContents { k },
            _ => return Err(Error::Usage(format!("unknown repair policy {other:?}"))),
        },
    })
}

/// Resolves the experiment names on the command line (`all`, or empty in
/// golden mode, selects the whole registry, in registry order).
fn select(names: &[String], default_all: bool) -> Result<Vec<Box<dyn Experiment>>, Error> {
    if names.iter().any(|n| n == "all") {
        if names.len() > 1 {
            return Err(Error::Usage(
                "'all' cannot be combined with experiment names".into(),
            ));
        }
        return Ok(registry());
    }
    if names.is_empty() {
        if default_all {
            return Ok(registry());
        }
        return Err(Error::Usage(
            "name an experiment, or use --list / all".into(),
        ));
    }
    names.iter().map(|n| hydra_bench::lookup(n)).collect()
}

fn run(args: Vec<String>) -> Result<ExitCode, Error> {
    let cli = parse(&args)?;
    hydra_bench::log::set_level(if cli.quiet {
        hydra_bench::log::Level::Quiet
    } else if cli.verbose {
        hydra_bench::log::Level::Verbose
    } else {
        hydra_bench::log::Level::Info
    });

    if let Some(path) = &cli.validate_trace {
        return validate_trace(path);
    }

    if cli.list {
        print_list();
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(command) = cli.command {
        if !cli.names.is_empty() {
            return Err(Error::Usage(format!(
                "'{command}' cannot be combined with experiment names"
            )));
        }
    }
    let workers = cli.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    match cli.command {
        Some("run") => return run_single(&cli),
        Some("perf") => return run_perf(&cli),
        Some("fuzz") => return run_fuzz(&cli),
        Some("sweep") => return run_sweep(&cli, workers),
        Some("report") => {
            let dir = cli.out.as_deref().ok_or_else(|| {
                Error::Usage("'report' needs --out DIR pointing at result documents".into())
            })?;
            let path = hydra_bench::write_report(dir)?;
            println!("wrote {}", path.display());
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }

    if cli.check_golden {
        if cli.trace.is_some() {
            return Err(Error::Usage(
                "--trace cannot be combined with --check-golden".into(),
            ));
        }
        return check_goldens(&cli, workers);
    }

    let mut trace = cli.trace.as_ref().map(|_| Trace::new(cli.trace_filter));
    let selected = select(&cli.names, false)?;
    let rs = RunSpec::from_env()?;

    let mut sink = sink_for(cli.format);
    let mut stdout = std::io::stdout();
    let mut aggregate = EngineReport::default();
    let mut finished = Vec::new();
    for e in &selected {
        verbose!("running {} — {}", e.name(), e.title());
        let t0_us = trace.as_ref().map_or(0, Trace::now_us);
        let result = run_experiment_traced(e.as_ref(), &rs, workers, trace.as_mut());
        if let Some(t) = &mut trace {
            t.span(TraceEvent::ExptSpan {
                label: e.name().to_string(),
                start_us: t0_us,
                dur_us: t.now_us().saturating_sub(t0_us),
            });
        }
        sink.emit(&mut stdout, e.as_ref(), &rs, &result)
            .map_err(|io| Error::io("writing results", io))?;
        info!(
            "{}\n",
            result.report.to_table(format!("engine: {}", e.name()))
        );
        aggregate.absorb(&result.report);
        finished.push((e.name().to_string(), e.title().to_string(), result));
    }
    sink.finish(&mut stdout, &rs)
        .map_err(|io| Error::io("writing results", io))?;
    if selected.len() > 1 {
        info!(
            "{}",
            aggregate.to_table(format!("engine: {} experiments total", selected.len()))
        );
    }
    if let Some(dir) = &cli.out {
        write_out_dir(dir, &rs, &finished)?;
        info!(
            "wrote {} result document(s) + BENCH_expt.json to {}",
            finished.len(),
            dir.display()
        );
    }
    if let (Some(trace), Some(path)) = (&trace, &cli.trace) {
        write_trace(trace, path)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `--list` (and `--help`): usage, the experiment registry, the
/// subcommands, and the workloads `expt run` accepts.
fn print_list() {
    println!("{USAGE}");
    println!();
    println!("experiments:");
    for e in registry() {
        println!("  {:<16} {}", e.name(), e.title());
    }
    println!("  {:<16} every experiment above, in order", "all");
    for (command, what) in [
        ("run", "one workload on one machine configuration"),
        ("perf", "pinned-suite simulator throughput"),
        ("report", "HTML dashboard from an --out result directory"),
        ("fuzz", "differential fuzz: pipeline vs reference models"),
        (
            "sweep",
            "warm-start RAS depth x repair lattice (snapshot-forked)",
        ),
    ] {
        println!("  {command:<16} {what}");
    }
    println!();
    println!("workloads (expt run --workload NAME):");
    for spec in WorkloadSpec::spec95_suite() {
        println!("  {}", spec.name);
    }
    let d = Machine::default();
    println!();
    println!(
        "expt run defaults: --workload {} --seed {} --warmup {} --instructions {}",
        d.workload,
        RunSpec::full().seed,
        d.warmup,
        d.instructions
    );
    println!(
        "                   --return-predictor {} --repair tos-pointer-contents \
         --ras-entries {}",
        d.predictor, d.ras_entries
    );
    println!("                   --stack per-path (with --multipath N)");
}

/// `expt run`: simulates one workload on one machine configuration —
/// `--warmup` commits, a statistics reset, then `--instructions`
/// measured commits — and prints the statistics the paper reports, or
/// with `--format json` a `{workload, seed, stats, wall_ms}` document
/// (`wall_ms` carries the timing suffix the golden differ skips).
fn run_single(cli: &Cli) -> Result<ExitCode, Error> {
    let m = &cli.machine;
    let json = match cli.format {
        Format::Table => false,
        Format::Json => true,
        Format::Csv => return Err(Error::Usage("'run' prints table or json".into())),
    };
    // `--seed` is the suite seed, as in an experiment's `RunSpec`, so a
    // run reproduces the matching cell of any experiment table.
    let seed = cli.seed.unwrap_or(RunSpec::full().seed);
    let (index, spec) = WorkloadSpec::spec95_suite()
        .into_iter()
        .enumerate()
        .find(|(_, s)| s.name == m.workload)
        .ok_or_else(|| Error::Usage(format!("unknown workload {:?} (try --list)", m.workload)))?;
    let workload = Workload::generate(&spec, WorkloadSpec::suite_seed(seed, index))
        .expect("built-in suite generates");
    let mut core = Core::new(m.config()?, workload.program());
    if m.golden {
        core.enable_golden_check();
    }
    let mut trace = cli.trace.as_ref().map(|_| Trace::new(cli.trace_filter));
    let t0 = Instant::now();
    run_core(&mut core, m.warmup, trace.as_mut());
    core.reset_stats();
    let stats = run_core(&mut core, m.instructions, trace.as_mut());
    let elapsed = t0.elapsed();
    if let (Some(trace), Some(path)) = (&trace, &cli.trace) {
        write_trace(trace, path)?;
    }

    if json {
        let doc = Json::obj([
            ("workload", Json::str(&m.workload)),
            ("seed", Json::int(seed)),
            ("stats", stats.to_json()),
            ("wall_ms", Json::num(elapsed.as_secs_f64() * 1e3)),
        ]);
        print!("{}", doc.pretty());
        return Ok(ExitCode::SUCCESS);
    }

    println!("workload            : {} (seed {seed})", m.workload);
    println!("committed           : {}", stats.committed);
    println!("cycles              : {}", stats.cycles);
    println!("IPC                 : {:.4}", stats.ipc());
    println!("branch accuracy     : {}", stats.branch_accuracy());
    println!(
        "returns             : {} ({} hits, rate {})",
        stats.returns,
        stats.return_hits,
        stats.return_hit_rate()
    );
    println!(
        "RAS                 : {} pushes, {} pops, {} overflows, {} underflows, {} repairs",
        stats.ras_pushes,
        stats.ras_pops,
        stats.ras_overflows,
        stats.ras_underflows,
        stats.ras_restores
    );
    if stats.checkpoint_budget_misses > 0 {
        println!("budget misses       : {}", stats.checkpoint_budget_misses);
    }
    if m.multipath.is_some() {
        println!(
            "multipath           : {} forks, {} peak live paths",
            stats.forks, stats.max_live_paths
        );
    }
    println!(
        "wrong-path activity : {} of {} fetched uops squashed ({})",
        stats.squashed_uops,
        stats.fetched_uops,
        stats.squash_fraction()
    );
    let occ = core.occupancy();
    let config = core.config();
    println!(
        "occupancy (mean)    : RUU {:.1}/{}, LSQ {:.1}/{}, fetchq {:.1}/{}",
        occ.ruu.mean(),
        config.ruu_size,
        occ.lsq.mean(),
        config.lsq_size,
        occ.fetch_queue.mean(),
        config.fetch_queue,
    );
    println!(
        "simulation speed    : {:.0} commits/sec",
        stats.committed as f64 / elapsed.as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

/// `expt perf`: measures the pinned suite serially, prints the report
/// table, writes `BENCH_perf.json` under `--out`, and optionally gates
/// against a committed baseline.
fn run_perf(cli: &Cli) -> Result<ExitCode, Error> {
    let rs = RunSpec::from_env()?;
    let alloc_count = || counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    let report = perf::measure(&rs, &alloc_count);
    println!("{}", report.to_table());
    let ff = perf::measure_fast_forward(&rs, perf::FF_MEASURE_INSTRUCTIONS);
    println!("{}", ff.to_table());
    println!(
        "fast-forward speedup vs cycle-level: {:.1}x ({:.1} / {:.3} sim MIPS)",
        ff.mips() / report.mips(),
        ff.mips(),
        report.mips()
    );
    let doc = perf::perf_doc(&rs, &report, &ff);
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir)
            .map_err(|io| Error::io(format!("creating {}", dir.display()), io))?;
        let path = dir.join("BENCH_perf.json");
        std::fs::write(&path, doc.pretty())
            .map_err(|io| Error::io(format!("writing {}", path.display()), io))?;
        info!("wrote {}", path.display());
    }
    if let Some(baseline) = &cli.baseline {
        perf::check_baseline(&doc, baseline, perf::MIPS_REGRESSION_TOLERANCE)?;
        println!(
            "perf baseline ok: {:.3} sim MIPS (floor: {:.0}% of {})",
            report.mips(),
            (1.0 - perf::MIPS_REGRESSION_TOLERANCE) * 100.0,
            baseline.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `expt fuzz`: runs a seeded differential-fuzzing campaign (or replays
/// one repro with `--replay`), writing any minimized divergence to
/// `fuzz_repro.json` under `--out` (default: the current directory).
///
/// Case horizons follow `HYDRA_EXPT_MODE`: `quick` keeps each case small
/// enough for a per-PR CI smoke job; `full` is the nightly depth.
fn run_fuzz(cli: &Cli) -> Result<ExitCode, Error> {
    if let Some(path) = &cli.replay {
        let text = std::fs::read_to_string(path)
            .map_err(|io| Error::io(format!("reading {}", path.display()), io))?;
        let case = hydra_check::case_from_json(&text).map_err(Error::Usage)?;
        let report = hydra_check::run_case(&case).map_err(Error::Usage)?;
        return match report.divergence {
            Some(d) => Err(Error::FuzzDivergence {
                case: 0,
                commits: d.commits,
                what: d.what,
                repro: path.clone(),
            }),
            None => {
                println!(
                    "replay {}: no divergence in {} commits",
                    path.display(),
                    report.commits
                );
                Ok(ExitCode::SUCCESS)
            }
        };
    }

    let rs = RunSpec::from_env()?;
    let opts = hydra_check::FuzzOptions {
        cases: cli.cases,
        seed: cli.seed.unwrap_or(FUZZ_SEED),
        quick: rs.horizon <= RunSpec::quick().horizon,
        ..hydra_check::FuzzOptions::default()
    };
    let outcome = hydra_check::fuzz(&opts).map_err(Error::Usage)?;
    match outcome.failure {
        None => {
            println!(
                "fuzz: {} case(s), seed {:#x}: no divergence",
                outcome.cases_run, opts.seed
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(failure) => {
            let dir = cli.out.clone().unwrap_or_else(|| PathBuf::from("."));
            std::fs::create_dir_all(&dir)
                .map_err(|io| Error::io(format!("creating {}", dir.display()), io))?;
            let path = dir.join("fuzz_repro.json");
            let doc = hydra_check::repro_to_json(&failure.minimized, &failure.divergence);
            std::fs::write(&path, doc.pretty())
                .map_err(|io| Error::io(format!("writing {}", path.display()), io))?;
            eprintln!(
                "fuzz: original divergence (case {}, after {} commits): {}",
                failure.case_index,
                failure.original_divergence.commits,
                failure.original_divergence.what
            );
            Err(Error::FuzzDivergence {
                case: failure.case_index,
                commits: failure.divergence.commits,
                what: failure.divergence.what,
                repro: path,
            })
        }
    }
}

/// `expt sweep`: the warm-start configuration-lattice sweep. Each suite
/// workload is fast-forwarded **once** during planning and snapshotted;
/// the RAS depth × repair lattice then fans out as snapshot-resume jobs
/// through the ordinary parallel engine, so the result document is
/// byte-identical for any `--jobs` value (like every other experiment).
fn run_sweep(cli: &Cli, workers: usize) -> Result<ExitCode, Error> {
    let sweep = match &cli.depths {
        // parse_depths rejected empty lists and zero depths already.
        Some(depths) => hydra_bench::SweepExperiment::new(depths.clone()),
        None => hydra_bench::SweepExperiment::default(),
    };
    let rs = RunSpec::from_env()?;
    verbose!(
        "sweep: {} lattice points per workload, one fast-forward snapshot each",
        sweep.lattice_points()
    );
    let result = run_experiment(&sweep, &rs, workers);
    let mut sink = sink_for(cli.format);
    let mut stdout = std::io::stdout();
    sink.emit(&mut stdout, &sweep, &rs, &result)
        .map_err(|io| Error::io("writing results", io))?;
    sink.finish(&mut stdout, &rs)
        .map_err(|io| Error::io("writing results", io))?;
    info!("{}\n", result.report.to_table("engine: sweep".to_string()));
    if let Some(dir) = &cli.out {
        let finished = vec![("sweep".to_string(), sweep.title().to_string(), result)];
        write_out_dir(dir, &rs, &finished)?;
        info!(
            "wrote 1 result document + BENCH_expt.json to {}",
            dir.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes the three trace artifacts: Chrome trace JSON at `path`, the
/// NDJSON event stream at `path.ndjson`, and the human-readable RAS
/// timeline at `path.ras.txt`.
fn write_trace(trace: &Trace, path: &Path) -> Result<(), Error> {
    let write = |p: &Path, contents: String| {
        std::fs::write(p, contents).map_err(|io| Error::io(format!("writing {}", p.display()), io))
    };
    write(path, trace.to_chrome_json().to_string())?;
    let ndjson = path.with_extension("ndjson");
    let mut buf = Vec::new();
    trace
        .write_ndjson(&mut buf)
        .map_err(|io| Error::io("serialising event stream", io))?;
    write(
        &ndjson,
        String::from_utf8(buf).expect("ndjson output is UTF-8"),
    )?;
    let ras = path.with_extension("ras.txt");
    write(&ras, trace.ras_timeline())?;
    info!(
        "trace: {} event(s), {} dropped -> {} (+ {}, {})",
        trace.events().len(),
        trace.dropped(),
        path.display(),
        ndjson.display(),
        ras.display()
    );
    Ok(())
}

/// `--validate-trace`: strict-parses a Chrome trace file and checks it
/// has a non-empty `traceEvents` array. Used by CI's trace smoke step.
fn validate_trace(path: &Path) -> Result<ExitCode, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|io| Error::io(format!("reading {}", path.display()), io))?;
    let doc = Json::parse(&text)
        .map_err(|e| Error::Usage(format!("{}: invalid JSON: {e}", path.display())))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| Error::Usage(format!("{}: no traceEvents array", path.display())))?;
    if events.is_empty() {
        return Err(Error::Usage(format!(
            "{}: traceEvents is empty",
            path.display()
        )));
    }
    println!("trace {}: {} event(s) ok", path.display(), events.len());
    Ok(ExitCode::SUCCESS)
}

/// `--check-golden`: re-runs experiments at the goldens' quick sizing and
/// diffs each result document against `goldens/<name>.json`.
fn check_goldens(cli: &Cli, workers: usize) -> Result<ExitCode, Error> {
    // Goldens are quick-mode by definition; ignore HYDRA_EXPT_* so the
    // check means the same thing in every environment.
    let rs = RunSpec::quick();
    let selected = select(&cli.names, true)?;
    let mut failures = 0usize;
    for e in &selected {
        match check(e.as_ref(), &rs, workers, &cli.goldens) {
            Ok(()) => println!("golden {:<16} ok", e.name()),
            Err(source) => {
                failures += 1;
                println!("golden {:<16} FAIL", e.name());
                let err = Error::Golden {
                    experiment: e.name().to_string(),
                    source,
                };
                eprintln!("expt: {err}");
            }
        }
    }
    if failures == 0 {
        println!("golden check: {} experiment(s) match", selected.len());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "expt: golden check failed for {failures} of {} experiment(s)",
            selected.len()
        );
        Ok(ExitCode::FAILURE)
    }
}
