//! End-to-end and per-layer benchmark of the HydraScalar simulator.
//!
//! Three closed-loop workloads, each a list of independent *ops* run
//! serially on one thread; an op starts only after the previous one has
//! finished, and every op starts from a fresh core, so an op's cost does
//! not depend on its position in the run:
//!
//! * `repair-ladder` — the eight suite programs × the seven return
//!   predictors of [`hydra_bench::repair_ladder`]. An op forks a
//!   fast-forward snapshot onto its configuration
//!   ([`Core::resume_reconfigured`]) and runs the measurement horizon
//!   ([`Core::run`]): the `expt sweep` job shape.
//! * `multipath` — the same programs and set-up × {2, 4} paths × the
//!   three stack organizations of `fig-multipath`.
//! * `fuzz` — a fixed-seed campaign of quick differential cases
//!   ([`hydra_check::gen_case`] + [`hydra_check::run_case`]), one case
//!   per op.
//!
//! Set-up (before the first op) generates the programs, fast-forwards
//! each on FastCore and saves its snapshot, or draws the fuzz cases. It
//! runs [`Scale::setup_reps`] times and reports the median.
//!
//! Every op's outcome is checked against results recorded in
//! `expected/` (see [`expected`]); a mismatch counts the op as failed.
//! Layer timings come from the benchmark's own [`recorder`], around calls
//! into each layer's public functions, in a separate traced run. See
//! `DESIGN.md` for the layer → end-to-end map and the noise sources the
//! design avoids.

#![forbid(unsafe_code)]

pub mod expected;
pub mod recorder;

use std::collections::BTreeMap;
use std::time::Instant;

use hydra_bench::experiments::suite_specs;
use hydra_bench::{repair_ladder, RunSpec};
use hydra_check::{gen_case, run_case, CaseReport, FuzzCase};
use hydra_obs::{CauseHistogram, CpiStack, LostCause, MispredictCause};
use hydra_pipeline::{Core, CoreConfig, SimStats, System};
use hydra_stats::{content_hash, Json};
use hydra_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ras_core::{MultipathStackPolicy, RepairPolicy};

pub use expected::Expected;
use recorder::{Recorder, SpanId};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-path repair ladder: cycle loop, predictors, RAS repair.
    RepairLadder,
    /// Multipath fetch: path fork/kill and per-path stacks.
    Multipath,
    /// Differential fuzz campaign: the reference models.
    Fuzz,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::RepairLadder, Kind::Multipath, Kind::Fuzz];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RepairLadder => "repair-ladder",
            Kind::Multipath => "multipath",
            Kind::Fuzz => "fuzz",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sets with recorded results. `--seed n` runs input set
/// `n % INPUT_SETS`; set 0 is the default to work against, set 1 the
/// held-out set to recheck a claim on.
///
/// On `repair-ladder` and `multipath`, set `k` measures the suite
/// programs from [`Scale::fast_forward`] + `k` × [`SET_STRIDE`]
/// instructions on: different windows of the same programs. Sets drawn
/// from different program seeds differed by up to 25% in multipath host
/// cost (fork counts vary with the program), far more than the host
/// noise a comparison must see through; windows differ by about 4%.
/// On `fuzz`, set `k` is the campaign drawn from seed `0xC0FFEE + k`.
pub const INPUT_SETS: u64 = 4;

/// Fast-forward distance between the windows of consecutive input sets.
pub const SET_STRIDE: u64 = 100_000;

/// Program-generation seed of the suite (the experiments' default).
const SUITE_SEED: u64 = 12_345;

/// Campaign seed of input set 0 (the fuzzer's default).
const FUZZ_SEED: u64 = 0xC0FFEE;

/// Commits between the fuzzer's check-stream drains; a multi-hart
/// `System` is driven in chunks of this size.
const FUZZ_CHUNK: u64 = 4096;

/// The input set `seed` selects.
pub fn input_set(seed: u64) -> u64 {
    seed % INPUT_SETS
}

/// How much work set-up and each op do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Suite programs used (the suite has eight).
    pub programs: usize,
    /// Instructions each program is fast-forwarded before its snapshot
    /// (input set 0; see [`INPUT_SETS`]).
    pub fast_forward: u64,
    /// Commits per `repair-ladder` op.
    pub ladder_horizon: u64,
    /// Commits per `multipath` op. Kept short: a core's per-commit cost
    /// grows with the number of paths it has ever forked.
    pub multipath_horizon: u64,
    /// Cases in the `fuzz` campaign.
    pub fuzz_cases: u64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest ops a run times, so `op_ms_p90` has ten samples above it.
    pub min_ops: usize,
}

impl Scale {
    /// The scale the recorded results and `BENCHMARK.json` refer to.
    pub const FULL: Scale = Scale {
        programs: 8,
        fast_forward: 4_000_000,
        ladder_horizon: 30_000,
        multipath_horizon: 10_000,
        fuzz_cases: 2_000,
        setup_reps: 9,
        min_ops: 100,
    };
}

/// What one op runs.
#[derive(Debug, Clone)]
enum Op {
    Resume {
        program: usize,
        config: CoreConfig,
        horizon: u64,
    },
    Case(FuzzCase),
}

/// Counts of the set-up work, per set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupCounts {
    programs: u64,
    ff_instructions: u64,
    snapshot_bytes: u64,
}

/// A workload's inputs after set-up: programs with their fast-forward
/// snapshots, and the op list in plan order.
#[derive(Debug)]
pub struct Inputs {
    programs: Vec<(Workload, Vec<u8>)>,
    ops: Vec<Op>,
    counts: SetupCounts,
}

/// The three stack organizations `fig-multipath` compares.
fn multipath_policies() -> [MultipathStackPolicy; 3] {
    [
        MultipathStackPolicy::Unified {
            repair: RepairPolicy::None,
        },
        MultipathStackPolicy::Unified {
            repair: RepairPolicy::TosPointerAndContents,
        },
        MultipathStackPolicy::PerPath,
    ]
}

impl Inputs {
    /// Sets up input set `set` of `kind`, recording set-up spans under
    /// `parent`.
    pub fn set_up(
        kind: Kind,
        set: u64,
        scale: &Scale,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Inputs {
        if kind == Kind::Fuzz {
            let mut rng = StdRng::seed_from_u64(FUZZ_SEED + set);
            let ops = (0..scale.fuzz_cases)
                .map(|i| {
                    let case = rec.leaf("check.gen_case", None, parent, || {
                        gen_case(&mut rng, i, true)
                    });
                    Op::Case(case)
                })
                .collect();
            return Inputs {
                programs: Vec::new(),
                ops,
                counts: SetupCounts::default(),
            };
        }
        let rs = RunSpec::builder().seed(SUITE_SEED).build();
        let fast_forward = scale.fast_forward + set * SET_STRIDE;
        let mut counts = SetupCounts::default();
        let mut programs = Vec::new();
        for (spec, seed) in suite_specs(&rs).into_iter().take(scale.programs) {
            let w = rec
                .leaf("workloads.generate", None, parent, || {
                    Workload::generate(&spec, seed)
                })
                .expect("built-in suite spec generates");
            let mut donor = rec.leaf("pipeline.new", None, parent, || {
                Core::new(CoreConfig::baseline(), w.program())
            });
            counts.ff_instructions += rec.leaf("isa.fast_forward", None, parent, || {
                donor.fast_forward(fast_forward)
            });
            let bytes = rec.leaf("snapshot.encode", None, parent, || donor.save_snapshot());
            counts.snapshot_bytes += bytes.len() as u64;
            programs.push((w, bytes));
        }
        counts.programs = programs.len() as u64;
        let mut ops = Vec::new();
        for program in 0..programs.len() {
            if kind == Kind::RepairLadder {
                for (_, rp) in repair_ladder() {
                    ops.push(Op::Resume {
                        program,
                        config: CoreConfig::with_return_predictor(rp),
                        horizon: scale.ladder_horizon,
                    });
                }
            } else {
                for paths in [2, 4] {
                    for policy in multipath_policies() {
                        ops.push(Op::Resume {
                            program,
                            config: CoreConfig::multipath(paths, policy),
                            horizon: scale.multipath_horizon,
                        });
                    }
                }
            }
        }
        Inputs {
            programs,
            ops,
            counts,
        }
    }

    /// Ops in plan order.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Runs op `index` on a fresh core, recording its spans as op `id`.
    pub fn run_op(&self, index: usize, rec: &mut Recorder, id: u64) -> Outcome {
        let op = rec.open("op", Some(id), None);
        let out = match &self.ops[index] {
            Op::Resume {
                program,
                config,
                horizon,
            } => {
                let (w, bytes) = &self.programs[*program];
                let resumed = rec.leaf("snapshot.decode", Some(id), op, || {
                    Core::resume_reconfigured(bytes, w.program(), *config)
                });
                match resumed {
                    Ok(mut core) => {
                        let stats = rec.leaf("pipeline.run", Some(id), op, || core.run(*horizon));
                        Outcome::Sim(Box::new(SimOutcome {
                            stats,
                            cpi: *core.cpi_stack(),
                            causes: core.mispredict_causes(),
                            paths: config.multipath.map_or(1, |m| m.max_paths),
                            commit_width: config.commit_width,
                        }))
                    }
                    Err(e) => Outcome::Error(e.to_string()),
                }
            }
            Op::Case(case) => {
                let report = rec.leaf("check.run_case", Some(id), op, || run_case(case));
                match report {
                    Ok(report) => Outcome::Case {
                        report,
                        snapshot: case.snapshot_at.is_some() && case.config.harts == 1,
                        multi_hart: case.config.harts > 1,
                    },
                    Err(e) => Outcome::Error(e),
                }
            }
        };
        rec.close(op);
        out
    }
}

/// Simulated results of one cycle-level run.
#[derive(Debug, Clone, Copy)]
pub struct SimOutcome {
    /// The run's statistics.
    pub stats: SimStats,
    /// Its lost commit slots by cause.
    pub cpi: CpiStack,
    /// Its mispredicted returns by cause.
    pub causes: CauseHistogram,
    /// Live path contexts (1 = single path).
    pub paths: usize,
    /// Commit slots per cycle.
    pub commit_width: usize,
}

impl SimOutcome {
    fn doc(&self) -> Json {
        Json::obj([("stats", self.stats.to_json()), ("cpi", self.cpi.to_json())])
    }
}

/// What one op produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A `repair-ladder` or `multipath` op.
    Sim(Box<SimOutcome>),
    /// A fuzz case that ran.
    Case {
        /// Commits and the first divergence, if any.
        report: CaseReport,
        /// The case snapshots, resumes and re-saves mid-run.
        snapshot: bool,
        /// The case runs as a 2-hart `System`.
        multi_hart: bool,
    },
    /// The op could not run.
    Error(String),
}

impl Outcome {
    /// The value checked against the recorded results: a 16-hex-digit
    /// canonical digest of the statistics and CPI stack, or a clean
    /// case's commit count.
    pub fn key(&self) -> String {
        match self {
            Outcome::Sim(s) => short_hash(&s.doc()),
            Outcome::Case { report, .. } if report.divergence.is_none() => {
                report.commits.to_string()
            }
            Outcome::Case { .. } => "diverged".to_string(),
            Outcome::Error(_) => "error".to_string(),
        }
    }

    /// A divergence or an `Err` fails the op whatever was recorded.
    pub fn is_failure(&self) -> bool {
        match self {
            Outcome::Sim(_) => false,
            Outcome::Case { report, .. } => report.divergence.is_some(),
            Outcome::Error(_) => true,
        }
    }

    /// Instructions the op committed at cycle level.
    pub fn committed(&self) -> u64 {
        match self {
            Outcome::Sim(s) => s.stats.committed,
            Outcome::Case { report, .. } => report.commits,
            Outcome::Error(_) => 0,
        }
    }
}

fn short_hash(doc: &Json) -> String {
    content_hash(doc)[..16].to_string()
}

/// Simulated statistics of each hart of a fuzz case's machine, from a
/// plain run of the case's configuration and program(s) without the
/// reference models. `run_case` reports only commits and divergences;
/// this gives the campaign its `ipc` and `ret_hit_pct`. The check
/// stream does not change timing and a mid-run resume is byte-exact, so
/// these are the statistics of the run the case checked.
fn case_stats(case: &FuzzCase) -> Result<Vec<SimOutcome>, String> {
    let config = case.config.to_core_config()?;
    let harts = u64::from(case.config.harts.max(1));
    let workloads = (0..harts)
        .map(|h| Workload::generate(&case.spec, case.workload_seed.wrapping_add(h)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let sim = |stats, cpi, causes| SimOutcome {
        stats,
        cpi,
        causes,
        paths: case.config.multipath_paths.max(1),
        commit_width: config.commit_width,
    };
    if harts == 1 {
        let mut core = Core::new(config, workloads[0].program());
        let stats = core.run(case.horizon);
        return Ok(vec![sim(
            stats,
            *core.cpi_stack(),
            core.mispredict_causes(),
        )]);
    }
    // A System's schedule depends on where each run() stops, so drive it
    // in the same chunks run_case does.
    let programs: Vec<_> = workloads.iter().map(Workload::program).collect();
    let mut sys = System::new(1, config, &programs);
    let (mut target, mut last_total) = (0, u64::MAX);
    let stats = loop {
        target = (target + FUZZ_CHUNK).min(case.horizon);
        let stats = sys.run(target);
        let total: u64 = stats.iter().map(|s| s.committed).sum();
        if stats.iter().all(|s| s.committed >= case.horizon) || total == last_total {
            break stats;
        }
        last_total = total;
    };
    Ok(stats
        .into_iter()
        .enumerate()
        .map(|(h, s)| {
            let mut hart = sys.hart(h);
            sim(s, hart.cpi_stack(), hart.mispredict_causes())
        })
        .collect())
}

/// Work counts summed over one pass of the op list.
#[derive(Debug, Clone, Default)]
struct Sums {
    counters: BTreeMap<&'static str, u64>,
    cpi: CpiStack,
    causes: CauseHistogram,
    slots: u64,
    case_commits: u64,
    snapshot_cases: u64,
    multi_hart_cases: u64,
    divergences: u64,
}

impl Sums {
    fn add_sim(&mut self, s: &SimOutcome) {
        for (name, v) in s.stats.named_counters() {
            *self.counters.entry(name).or_default() += v;
        }
        self.cpi.absorb(&s.cpi);
        self.causes.absorb(&s.causes);
        self.slots += s.stats.cycles * s.commit_width as u64;
    }

    fn add(&mut self, out: &Outcome) {
        match out {
            Outcome::Sim(s) => self.add_sim(s),
            Outcome::Case {
                report,
                snapshot,
                multi_hart,
            } => {
                self.case_commits += report.commits;
                self.snapshot_cases += u64::from(*snapshot);
                self.multi_hart_cases += u64::from(*multi_hart);
                self.divergences += u64::from(report.divergence.is_some());
            }
            Outcome::Error(_) => {}
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Selects the input set (see [`input_set`]).
    pub seed: u64,
    /// Host time the op phase runs for, at least.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work per set-up and per op.
    pub scale: Scale,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// No op failed and the campaign digest (fuzz) matched.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Ops whose outcome failed or differed from the recorded one.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones on a traced run.
    pub metrics: Vec<Metric>,
    /// Outcome keys of the first pass, in plan order.
    pub keys: Vec<String>,
    /// Digest of the fuzz campaign's simulated statistics.
    pub sim_digest: Option<String>,
    /// The spans of a traced run.
    pub recorder: Recorder,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, each value printed with all its digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolated percentile of unsorted samples (`p` in 0..=1).
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set size (`VmHWM`) in megabytes, 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host time and work of the op phase.
#[derive(Debug, Default)]
struct Phase {
    /// Host milliseconds of every untraced run of each op, by plan index.
    untraced_ms: Vec<Vec<f64>>,
    /// The same for traced runs.
    traced_ms: Vec<Vec<f64>>,
    untraced_passes: u64,
    traced_passes: u64,
    /// Instructions the ops of one pass commit at cycle level.
    pass_committed: u64,
    /// Path count of each traced op, by op id.
    op_paths: BTreeMap<u64, usize>,
    /// Simulated cycles of traced ops, by path count.
    traced_cycles: BTreeMap<usize, u64>,
    traced_fetched: u64,
}

/// Quantile of an op's repeated times that stands for its host cost.
///
/// The host's speed drifts by tens of percent over seconds to minutes:
/// mostly a slower, contended state with bursts of a faster one. A
/// mean, median or minimum moves with the share of time spent in
/// bursts; the upper quartile stays in the typical state. Measured on a
/// 2-vCPU Intel Xeon VM, it gave the lowest run-to-run spread in three of
/// four comparisons (see `DESIGN.md`).
const TYPICAL: f64 = 0.75;

/// An op's host time: the [`TYPICAL`] quantile of its repeated times.
fn typical_ms(samples: &[f64]) -> f64 {
    percentile(samples, TYPICAL)
}

/// Host milliseconds of one pass with every op at its typical time.
fn pass_ms(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| typical_ms(s)).sum()
}

/// Runs one benchmark: set-up, then whole passes over the op list until
/// `opts.seconds` have passed. A traced run alternates untraced and
/// traced passes, so `trace.overhead_pct` compares passes taken under
/// the same host conditions. Every op is checked against `expected`
/// when given.
pub fn run(opts: &Options, expected: Option<&Expected>) -> Report {
    let scale = &opts.scale;
    let set = input_set(opts.seed);
    let mut rec = Recorder::new(opts.trace);

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..scale.setup_reps.max(1) {
        drop(inputs.take());
        let t = Instant::now();
        let span = rec.open("setup", None, None);
        inputs = Some(Inputs::set_up(opts.kind, set, scale, &mut rec, span));
        rec.close(span);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    let min_passes = scale.min_ops.div_ceil(inputs.len()).max(1) as u64;
    let mut phase = Phase {
        untraced_ms: vec![Vec::new(); inputs.len()],
        traced_ms: vec![Vec::new(); inputs.len()],
        ..Phase::default()
    };
    let mut sums = Sums::default();
    let mut keys = Vec::new();
    let (mut attempted, mut failed, mut next_id) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for pass in 0.. {
        let traced = opts.trace && pass % 2 == 1;
        rec.set_on(traced);
        for i in 0..inputs.len() {
            let t = Instant::now();
            let out = inputs.run_op(i, &mut rec, next_id);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let key = out.key();
            attempted += 1;
            if out.is_failure() || expected.is_some_and(|e| e.op(set, i) != Some(key.as_str())) {
                failed += 1;
            }
            if pass == 0 {
                keys.push(key);
                sums.add(&out);
                phase.pass_committed += out.committed();
            }
            if traced {
                phase.traced_ms[i].push(ms);
                if let Outcome::Sim(s) = &out {
                    phase.op_paths.insert(next_id, s.paths);
                    *phase.traced_cycles.entry(s.paths).or_default() += s.stats.cycles;
                    phase.traced_fetched += s.stats.fetched_uops;
                }
            } else {
                phase.untraced_ms[i].push(ms);
            }
            next_id += 1;
        }
        if traced {
            phase.traced_passes += 1;
        } else {
            phase.untraced_passes += 1;
        }
        let pairs_done = !opts.trace || phase.traced_passes == phase.untraced_passes;
        if pairs_done
            && phase.untraced_passes >= min_passes
            && start.elapsed().as_secs_f64() >= opts.seconds
        {
            break;
        }
    }
    rec.set_on(false);

    // Fuzz: the campaign's simulated statistics, untimed, once.
    let mut sim_digest = None;
    let mut sim_ok = true;
    if opts.kind == Kind::Fuzz {
        let mut docs = Vec::new();
        for op in &inputs.ops {
            let Op::Case(case) = op else { continue };
            match case_stats(case) {
                Ok(harts) => {
                    for s in &harts {
                        sums.add_sim(s);
                        docs.push(s.doc());
                    }
                }
                Err(_) => sim_ok = false,
            }
        }
        let digest = short_hash(&Json::arr(docs));
        if let Some(e) = expected {
            sim_ok &= e.sim(set) == Some(digest.as_str());
        }
        sim_digest = Some(digest);
    }

    let metrics = if opts.trace {
        layer_metrics(&rec, &inputs, &sums, &phase, scale)
    } else {
        end_to_end_metrics(&setup_s, &sums, &phase)
    };
    Report {
        correct: failed == 0 && sim_ok,
        attempted,
        failed,
        metrics,
        keys,
        sim_digest,
        recorder: rec,
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn end_to_end_metrics(setup_s: &[f64], sums: &Sums, phase: &Phase) -> Vec<Metric> {
    let pass = pass_ms(&phase.untraced_ms);
    let op_typical: Vec<f64> = phase.untraced_ms.iter().map(|s| typical_ms(s)).collect();
    let all_ms: Vec<f64> = phase.untraced_ms.concat();
    vec![
        metric("wall_s", pass / 1e3, "s"),
        metric("setup_s", percentile(setup_s, 0.5), "s"),
        metric(
            "sim_mips",
            ratio(phase.pass_committed as f64, pass) / 1e3,
            "MIPS",
        ),
        metric("op_ms_p50", percentile(&op_typical, 0.5), "ms"),
        metric("op_ms_p90", percentile(&all_ms, 0.9), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "ipc",
            ratio(sums.get("committed") as f64, sums.get("cycles") as f64),
            "instr/cycle",
        ),
        metric(
            "ret_hit_pct",
            100.0 * ratio(sums.get("return_hits") as f64, sums.get("returns") as f64),
            "%",
        ),
    ]
}

fn layer_metrics(
    rec: &Recorder,
    inputs: &Inputs,
    sums: &Sums,
    phase: &Phase,
    scale: &Scale,
) -> Vec<Metric> {
    let totals = rec.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let c = |name: &str| sums.get(name) as f64;
    let counts = inputs.counts;
    let ff = span("isa.fast_forward");
    let run = span("pipeline.run");

    // Cycle-loop host time split by path count (multipath only).
    let mut run_ns_by_paths: BTreeMap<usize, u64> = BTreeMap::new();
    for s in rec.spans().iter().filter(|s| s.name == "pipeline.run") {
        if let Some(paths) = s.op.and_then(|op| phase.op_paths.get(&op)) {
            *run_ns_by_paths.entry(*paths).or_default() += s.ns();
        }
    }
    let ns_per_cycle_at = |paths: usize| {
        ratio(
            run_ns_by_paths.get(&paths).copied().unwrap_or(0) as f64,
            phase.traced_cycles.get(&paths).copied().unwrap_or(0) as f64,
        )
    };
    let traced_cycles: u64 = phase.traced_cycles.values().sum();
    let run_case = span("check.run_case");
    let traced_case_commits = sums.case_commits * phase.traced_passes;

    let mut m = vec![
        metric(
            "workloads.generate_ms",
            span("workloads.generate").mean_ms(),
            "ms",
        ),
        metric("workloads.programs", counts.programs as f64, "count"),
        metric("isa.fast_forward_ms", ff.mean_ms(), "ms"),
        metric(
            "isa.ff_instructions",
            counts.ff_instructions as f64,
            "count",
        ),
        metric(
            "isa.ff_mips",
            ratio(
                (counts.ff_instructions * scale.setup_reps.max(1) as u64) as f64 * 1e3,
                ff.total_ns as f64,
            ),
            "MIPS",
        ),
        metric(
            "snapshot.encode_ms",
            span("snapshot.encode").mean_ms(),
            "ms",
        ),
        metric(
            "snapshot.decode_ms",
            span("snapshot.decode").mean_ms(),
            "ms",
        ),
        metric(
            "snapshot.bytes",
            ratio(counts.snapshot_bytes as f64, counts.programs as f64),
            "bytes",
        ),
        metric("pipeline.new_ms", span("pipeline.new").mean_ms(), "ms"),
        metric("pipeline.run_ms", run.mean_ms(), "ms"),
        metric(
            "pipeline.ns_per_cycle",
            ratio(run.total_ns as f64, traced_cycles as f64),
            "ns",
        ),
        metric(
            "pipeline.ns_per_fetched_uop",
            ratio(run.total_ns as f64, phase.traced_fetched as f64),
            "ns",
        ),
        metric("pipeline.cycles", c("cycles"), "count"),
        metric("pipeline.committed", c("committed"), "count"),
        metric("pipeline.fetched_uops", c("fetched_uops"), "count"),
        metric("pipeline.squashed_uops", c("squashed_uops"), "count"),
        metric(
            "pipeline.squash_ratio",
            ratio(c("squashed_uops"), c("fetched_uops")),
            "ratio",
        ),
        metric("pipeline.forks", c("forks"), "count"),
        metric(
            "pipeline.forks_per_kinst",
            1e3 * ratio(c("forks"), c("committed")),
            "1/kinstr",
        ),
        metric("pipeline.ns_per_cycle.2p", ns_per_cycle_at(2), "ns"),
        metric("pipeline.ns_per_cycle.4p", ns_per_cycle_at(4), "ns"),
        metric("ras.pushes", c("ras_pushes"), "count"),
        metric("ras.pops", c("ras_pops"), "count"),
        metric("ras.restores", c("ras_restores"), "count"),
        metric("ras.overflows", c("ras_overflows"), "count"),
        metric("ras.underflows", c("ras_underflows"), "count"),
        metric("ras.budget_misses", c("checkpoint_budget_misses"), "count"),
        metric("ras.hits_btb", c("return_hits_btb"), "count"),
        metric("bpred.cond_branches", c("cond_branches"), "count"),
        metric(
            "bpred.cond_accuracy_pct",
            100.0
                * ratio(
                    c("cond_branches") - c("cond_mispredictions"),
                    c("cond_branches"),
                ),
            "%",
        ),
        metric(
            "bpred.target_mispredictions",
            c("target_mispredictions"),
            "count",
        ),
    ];
    for cause in LostCause::ALL {
        m.push(metric(
            &format!("obs.lost.{}_pct", cause.label()),
            100.0 * ratio(sums.cpi.get(cause) as f64, sums.slots as f64),
            "%",
        ));
    }
    for cause in MispredictCause::ALL {
        m.push(metric(
            &format!("obs.cause.{}", cause.label()),
            sums.causes.get(cause) as f64,
            "count",
        ));
    }
    m.extend([
        metric("check.gen_case_ms", span("check.gen_case").mean_ms(), "ms"),
        metric("check.run_case_ms", run_case.mean_ms(), "ms"),
        metric("check.commits", sums.case_commits as f64, "count"),
        metric(
            "check.ns_per_commit",
            ratio(run_case.total_ns as f64, traced_case_commits as f64),
            "ns",
        ),
        metric("check.snapshot_cases", sums.snapshot_cases as f64, "count"),
        metric(
            "check.multi_hart_cases",
            sums.multi_hart_cases as f64,
            "count",
        ),
        metric("check.divergences", sums.divergences as f64, "count"),
        metric(
            "trace.overhead_pct",
            100.0 * (ratio(pass_ms(&phase.traced_ms), pass_ms(&phase.untraced_ms)) - 1.0),
            "%",
        ),
    ]);
    m
}

/// Outcome keys of one pass over every input set, for `--record`.
///
/// # Errors
///
/// When an op fails: a failing outcome is never recorded.
pub fn record(kind: Kind, scale: &Scale) -> Result<Expected, String> {
    let mut table = Expected::default();
    for set in 0..INPUT_SETS {
        let opts = Options {
            kind,
            seed: set,
            seconds: 0.0,
            trace: false,
            scale: Scale {
                setup_reps: 1,
                min_ops: 1,
                ..*scale
            },
        };
        let report = run(&opts, None);
        if !report.correct {
            return Err(format!(
                "{}: input set {set}: {} of {} ops failed",
                kind.name(),
                report.failed,
                report.attempted
            ));
        }
        table.insert(set, report.keys, report.sim_digest);
    }
    Ok(table)
}
