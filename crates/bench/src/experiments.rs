//! The unified [`Experiment`] API and its registry.
//!
//! Every artifact of the paper's evaluation is an [`Experiment`]: a named
//! unit that *plans* a batch of independent [`SimJob`]s and *harvests*
//! the job outputs back into a rendered [`Table`]. The plan/harvest
//! split is the programmatic entry point everything else drives — the
//! `expt` CLI, sweeps, and tests all
//! call `plan()`, run the jobs on the engine in [`crate::engine`], and
//! feed the outputs to `harvest()`. `plan()` defines the deterministic
//! job order, `harvest()` consumes outputs in that same order via
//! [`Harvest`], and the result is byte-identical however the jobs were
//! scheduled.
//!
//! [`registry`] lists every experiment; the `expt` binary dispatches on
//! [`Experiment::name`] (`expt --list`, `expt table1`, `expt all`).

use hydra_pipeline::{CoreConfig, RasSharing, ReturnPredictor};
use hydra_stats::{Align, Cell, Summary, Table};
use hydra_workloads::WorkloadSpec;
use ras_core::{MultipathStackPolicy, RepairPolicy};

use crate::engine::{execute_traced, EngineReport, Harvest, JobKind, JobOutput, SimJob};
use crate::error::Error;
use crate::trace::Trace;
use crate::{repair_ladder, RunSpec};

/// One reproducible artifact of the paper's evaluation.
///
/// Implementations plan a batch of [`SimJob`]s and harvest the outputs
/// back into a table; see the module docs. The contract between the two
/// halves: `harvest` must consume outputs in exactly the order `plan`
/// emitted them (enforced by [`Harvest`]), and both halves must be pure
/// functions of `rs` — that purity is what makes a run's result
/// document independent of how its jobs were scheduled.
pub trait Experiment: Sync {
    /// Registry key and CLI name, e.g. `"fig-repair"`.
    fn name(&self) -> &'static str;

    /// One-line description shown by `expt --list`.
    fn title(&self) -> &'static str;

    /// Plans the experiment as independent job units for `rs`, in the
    /// deterministic order `harvest` will consume them.
    fn plan(&self, rs: &RunSpec) -> Vec<SimJob>;

    /// Harvests job outputs (in `plan()` order) into the rendered table.
    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table;
}

/// A finished experiment: the artifact plus engine observability.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The reproduced table or figure.
    pub table: Table,
    /// Engine counters for the run (per-job times, throughput).
    pub report: EngineReport,
}

/// Runs one experiment on `workers` threads.
///
/// The output table is independent of `workers`; only the report's
/// timings change.
pub fn run_experiment(experiment: &dyn Experiment, rs: &RunSpec, workers: usize) -> ExperimentRun {
    run_experiment_traced(experiment, rs, workers, None)
}

/// [`run_experiment`], recording its jobs' events and spans into
/// `trace` if given (see [`execute_traced`]). The table is the same
/// either way.
pub fn run_experiment_traced(
    experiment: &dyn Experiment,
    rs: &RunSpec,
    workers: usize,
    trace: Option<&mut Trace>,
) -> ExperimentRun {
    let jobs = experiment.plan(rs);
    let (outputs, report) = execute_traced(&jobs, workers, trace);
    ExperimentRun {
        table: experiment.harvest(rs, &outputs),
        report,
    }
}

/// Every experiment, in presentation order (the order `expt all` runs).
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Table1),
        Box::new(Table2),
        Box::new(Table4),
        Box::new(FigRepair),
        Box::new(FigSpeedup),
        Box::new(FigDepth),
        Box::new(FigBudget),
        Box::new(FigMultipath),
        Box::new(FigTopk),
        Box::new(FigAnalytical),
        Box::new(FigFrontend),
        Box::new(FigJourdan),
        Box::new(FigSmt),
        Box::new(FigSeeds::default()),
        Box::new(FigCpi),
    ]
}

/// Looks an experiment up by its registry name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// Like [`find`], but reports an unmatched name as a typed
/// [`Error::UnknownExperiment`] instead of `None` — the form binary
/// frontends want.
///
/// # Errors
///
/// [`Error::UnknownExperiment`] when `name` matches no registered
/// experiment.
pub fn lookup(name: &str) -> Result<Box<dyn Experiment>, Error> {
    find(name).ok_or_else(|| Error::UnknownExperiment(name.to_string()))
}

/// The suite's workload specs with their per-benchmark generation seeds
/// ([`WorkloadSpec::suite_seed`]), so jobs can regenerate workloads
/// independently.
pub fn suite_specs(rs: &RunSpec) -> Vec<(WorkloadSpec, u64)> {
    WorkloadSpec::spec95_suite()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, WorkloadSpec::suite_seed(rs.seed, i)))
        .collect()
}

/// **Table 1** — the baseline machine model (a configuration dump; the
/// paper's Table 1 is its machine description). No simulation jobs.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "baseline machine model (configuration dump)"
    }

    fn plan(&self, _rs: &RunSpec) -> Vec<SimJob> {
        Vec::new()
    }

    fn harvest(&self, _rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        Harvest::new(outputs).finish();
        let c = CoreConfig::baseline();
        let mut t = Table::new(vec!["parameter", "value"]);
        t.set_title("Table 1: baseline machine model (Alpha 21264-like)");
        let rows: Vec<(&str, String)> = vec![
            (
                "fetch/dispatch/issue/commit width",
                format!(
                    "{}/{}/{}/{}",
                    c.fetch_width, c.dispatch_width, c.issue_width, c.commit_width
                ),
            ),
            (
                "RUU (register update unit)",
                format!("{} entries", c.ruu_size),
            ),
            ("load/store queue", format!("{} entries", c.lsq_size)),
            (
                "front-end depth",
                format!("{} cycles fetch-to-dispatch", c.decode_latency),
            ),
            (
                "direction predictor",
                format!(
                    "hybrid: {}-entry GAg + {}x{}-bit PAg, {}-entry chooser",
                    1 << c.hybrid.global_history_bits,
                    c.hybrid.local_history_entries,
                    c.hybrid.local_history_bits,
                    1 << c.hybrid.chooser_bits
                ),
            ),
            (
                "BTB",
                format!(
                    "{} sets x {} ways, decoupled (taken branches only)",
                    c.btb.sets, c.btb.ways
                ),
            ),
            (
                "return-address stack",
                "32 entries, TOS pointer+contents repair".to_string(),
            ),
            (
                "L1 I/D caches",
                format!(
                    "{} KB-class each, {}-cycle hit",
                    c.mem.l1i.capacity_words() * 4 / 1024,
                    c.mem.l1_latency
                ),
            ),
            (
                "L2 unified",
                format!(
                    "{} KB-class, +{} cycles",
                    c.mem.l2.capacity_words() * 4 / 1024,
                    c.mem.l2_latency
                ),
            ),
            ("memory", format!("+{} cycles", c.mem.memory_latency)),
            (
                "FU latencies (alu/mul/div/branch/agen)",
                format!(
                    "{}/{}/{}/{}/{}",
                    c.latencies.alu,
                    c.latencies.mul,
                    c.latencies.div,
                    c.latencies.branch,
                    c.latencies.agen
                ),
            ),
        ];
        for (k, v) in rows {
            t.add_row(vec![Cell::text(k), Cell::text(v)]);
        }
        t
    }
}

/// **Table 2** — benchmark characteristics: dynamic instruction mix,
/// branch accuracy, call-depth profile.
pub struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "benchmark characteristics on the baseline machine"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            jobs.push(SimJob::cycle(&spec, seed, CoreConfig::baseline(), rs).tagged("baseline"));
            jobs.push(SimJob::profile(&spec, seed, rs.horizon));
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut t = Table::new(vec![
            "benchmark",
            "committed",
            "cond br %",
            "call %",
            "return %",
            "br accuracy",
            "mean depth",
            "max depth",
            "IPC",
        ]);
        t.set_title("Table 2: benchmark characteristics (baseline machine)");
        for col in 1..=8 {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let s = h.stats();
            let p = h.profile();
            t.add_row(vec![
                Cell::text(&spec.name),
                Cell::int(s.committed),
                Cell::percent(s.cond_branch_fraction().percent()),
                Cell::percent(s.call_fraction().percent()),
                Cell::percent(s.return_fraction().percent()),
                Cell::percent(s.branch_accuracy().percent()),
                Cell::fixed(p.mean_call_depth(), 1),
                Cell::int(p.max_call_depth),
                Cell::fixed(s.ipc(), 3),
            ]);
        }
        h.finish();
        t
    }
}

/// **Table 4** — return-target hit rates with a BTB only versus the
/// baseline stack ("without a return-address stack, return addresses are
/// found in the BTB only a little over half the time").
pub struct Table4;

impl Experiment for Table4 {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn title(&self) -> &'static str {
        "return prediction from the BTB alone vs a repaired stack"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            jobs.push(
                SimJob::cycle(
                    &spec,
                    seed,
                    CoreConfig::with_return_predictor(ReturnPredictor::BtbOnly),
                    rs,
                )
                .tagged("BTB only"),
            );
            jobs.push(SimJob::cycle(&spec, seed, CoreConfig::baseline(), rs).tagged("baseline"));
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut t = Table::new(vec![
            "benchmark",
            "BTB-only hit rate",
            "RAS (ptr+contents) hit rate",
            "BTB-only IPC",
            "RAS IPC",
        ]);
        t.set_title("Table 4: return prediction from the BTB alone vs a repaired stack");
        for col in 1..=4 {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let btb = h.stats();
            let ras = h.stats();
            t.add_row(vec![
                Cell::text(&spec.name),
                Cell::percent(btb.return_hit_rate().percent()),
                Cell::percent(ras.return_hit_rate().percent()),
                Cell::fixed(btb.ipc(), 3),
                Cell::fixed(ras.ipc(), 3),
            ]);
        }
        h.finish();
        t
    }
}

/// **Figure: repair-mechanism hit rates** — return-prediction hit rate per
/// benchmark for every repair mechanism.
pub struct FigRepair;

impl Experiment for FigRepair {
    fn name(&self) -> &'static str {
        "fig-repair"
    }

    fn title(&self) -> &'static str {
        "return hit rate by repair mechanism"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for (tag, rp) in repair_ladder() {
                jobs.push(
                    SimJob::cycle(&spec, seed, CoreConfig::with_return_predictor(rp), rs)
                        .tagged(tag),
                );
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let ladder = repair_ladder();
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        header.extend(ladder.iter().map(|(n, _)| n.to_string()));
        let mut t = Table::new(header);
        t.set_title("Figure (repair): return hit rate by repair mechanism");
        for col in 1..=ladder.len() {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _ in &ladder {
                row.push(Cell::percent(h.stats().return_hit_rate().percent()));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Figure: speedup** — IPC of each mechanism relative to the unrepaired
/// stack (the paper reports up to 8.7% for TOS-pointer+contents, and up
/// to 15% over BTB-only).
pub struct FigSpeedup;

impl Experiment for FigSpeedup {
    fn name(&self) -> &'static str {
        "fig-speedup"
    }

    fn title(&self) -> &'static str {
        "IPC by repair mechanism and repair speedups"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        FigRepair.plan(rs)
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let ladder = repair_ladder();
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        header.extend(ladder.iter().map(|(n, _)| format!("{n} IPC")));
        header.push("p+c vs none".to_string());
        header.push("p+c vs BTB".to_string());
        let mut t = Table::new(header);
        t.set_title("Figure (speedup): IPC by repair mechanism and speedups");
        for col in 1..=ladder.len() + 2 {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            let mut ipcs = Vec::new();
            for _ in &ladder {
                let ipc = h.stats().ipc();
                ipcs.push(ipc);
                row.push(Cell::fixed(ipc, 3));
            }
            // ladder order: [btb, none, vbits, ptr, p+c, full, perfect]
            let speedup_none = (ipcs[4] / ipcs[1] - 1.0) * 100.0;
            let speedup_btb = (ipcs[4] / ipcs[0] - 1.0) * 100.0;
            row.push(Cell::percent(speedup_none));
            row.push(Cell::percent(speedup_btb));
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Figure: stack-depth sensitivity** — hit rate of the repaired stack
/// versus stack size (over/underflow dominate small stacks).
pub struct FigDepth;

/// Stack sizes the depth figure sweeps.
const DEPTH_SIZES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

impl Experiment for FigDepth {
    fn name(&self) -> &'static str {
        "fig-depth"
    }

    fn title(&self) -> &'static str {
        "return hit rate vs stack size (TOS ptr+contents repair)"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for entries in DEPTH_SIZES {
                let rp = ReturnPredictor::Ras {
                    entries,
                    repair: RepairPolicy::TosPointerAndContents,
                };
                jobs.push(
                    SimJob::cycle(&spec, seed, CoreConfig::with_return_predictor(rp), rs)
                        .tagged(format!("{entries} entries")),
                );
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        header.extend(DEPTH_SIZES.iter().map(|s| format!("{s} entries")));
        let mut t = Table::new(header);
        t.set_title("Figure (depth): return hit rate vs stack size (TOS ptr+contents repair)");
        for col in 1..=DEPTH_SIZES.len() {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _ in DEPTH_SIZES {
                row.push(Cell::percent(h.stats().return_hit_rate().percent()));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Figure: shadow-state budget** — effect of limiting in-flight
/// checkpoints (4 as on the R10000, 20 as on the 21264, unlimited).
pub struct FigBudget;

/// Checkpoint budgets the figure compares.
const BUDGETS: [(&str, Option<usize>); 3] = [
    ("4 (R10000)", Some(4)),
    ("20 (21264)", Some(20)),
    ("unlimited", None),
];

impl Experiment for FigBudget {
    fn name(&self) -> &'static str {
        "fig-budget"
    }

    fn title(&self) -> &'static str {
        "checkpoint shadow-storage sensitivity (ptr+contents)"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for (tag, budget) in BUDGETS {
                let cfg = CoreConfig::builder().checkpoint_budget(budget).build();
                jobs.push(SimJob::cycle(&spec, seed, cfg, rs).tagged(tag));
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        for (name, _) in &BUDGETS {
            header.push(format!("{name} hit"));
            header.push(format!("{name} IPC"));
        }
        let mut t = Table::new(header);
        t.set_title("Figure (budget): checkpoint shadow-storage sensitivity (ptr+contents)");
        for col in 1..=BUDGETS.len() * 2 {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _ in &BUDGETS {
                let s = h.stats();
                row.push(Cell::percent(s.return_hit_rate().percent()));
                row.push(Cell::fixed(s.ipc(), 3));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Figure: multipath** — relative performance of stack organizations
/// under 2-path and 4-path execution, normalized to the unified stack
/// (the paper: per-path stacks improve performance by over 25%).
pub struct FigMultipath;

fn multipath_policies() -> [(&'static str, MultipathStackPolicy); 3] {
    [
        (
            "unified",
            MultipathStackPolicy::Unified {
                repair: RepairPolicy::None,
            },
        ),
        (
            "unified+ckpt",
            MultipathStackPolicy::Unified {
                repair: RepairPolicy::TosPointerAndContents,
            },
        ),
        ("per-path", MultipathStackPolicy::PerPath),
    ]
}

impl Experiment for FigMultipath {
    fn name(&self) -> &'static str {
        "fig-multipath"
    }

    fn title(&self) -> &'static str {
        "relative IPC by stack organization under multipath fetch"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for paths in [2usize, 4] {
                for (tag, pol) in multipath_policies() {
                    jobs.push(
                        SimJob::cycle(&spec, seed, CoreConfig::multipath(paths, pol), rs)
                            .tagged(format!("{paths}p {tag}")),
                    );
                }
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let policies = multipath_policies();
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        for paths in [2, 4] {
            for (name, _) in &policies {
                header.push(format!("{paths}p {name}"));
            }
        }
        let mut t = Table::new(header);
        t.set_title(
            "Figure (multipath): relative IPC by stack organization (normalized to unified; hit rate in parens)",
        );
        for col in 1..=6 {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _paths in [2usize, 4] {
                let mut base_ipc = None;
                for _ in &policies {
                    let s = h.stats();
                    let base = *base_ipc.get_or_insert(s.ipc());
                    row.push(Cell::text(format!(
                        "{:.3} ({:.1}%)",
                        s.ipc() / base,
                        s.return_hit_rate().percent()
                    )));
                }
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Ablation: top-k checkpoint contents** — how much of full-stack
/// checkpointing's benefit does saving the top *k* entries capture
/// (the Jourdan-et-al. comparison; `k = 1` is the paper's mechanism).
pub struct FigTopk;

fn topk_ladder() -> [(&'static str, RepairPolicy); 5] {
    [
        ("ptr only", RepairPolicy::TosPointer),
        ("k=1", RepairPolicy::TopContents { k: 1 }),
        ("k=2", RepairPolicy::TopContents { k: 2 }),
        ("k=4", RepairPolicy::TopContents { k: 4 }),
        ("full", RepairPolicy::FullStack),
    ]
}

impl Experiment for FigTopk {
    fn name(&self) -> &'static str {
        "fig-topk"
    }

    fn title(&self) -> &'static str {
        "hit rate vs checkpointed top-of-stack entries"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for (tag, repair) in topk_ladder() {
                let rp = ReturnPredictor::Ras {
                    entries: 32,
                    repair,
                };
                jobs.push(
                    SimJob::cycle(&spec, seed, CoreConfig::with_return_predictor(rp), rs)
                        .tagged(tag),
                );
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let ks = topk_ladder();
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        header.extend(ks.iter().map(|(n, _)| n.to_string()));
        let mut t = Table::new(header);
        t.set_title("Ablation (top-k): hit rate vs checkpointed top-of-stack entries");
        for col in 1..=ks.len() {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _ in &ks {
                row.push(Cell::percent(h.stats().return_hit_rate().percent()));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Ablation: analytical trace model** — repair-policy hit rates versus
/// wrong-path length on synthetic speculation traces (no pipeline).
/// Shows the same mechanism ordering as the cycle-level runs and *why*:
/// longer wrong paths overwrite more than the top-of-stack entry, which
/// is exactly what separates `TosPointerAndContents` from deeper
/// checkpoints.
pub struct FigAnalytical;

fn analytical_policies() -> [(&'static str, RepairPolicy); 5] {
    [
        ("no repair", RepairPolicy::None),
        ("TOS pointer", RepairPolicy::TosPointer),
        ("ptr+contents", RepairPolicy::TosPointerAndContents),
        ("top-4", RepairPolicy::TopContents { k: 4 }),
        ("full", RepairPolicy::FullStack),
    ]
}

/// Wrong-path length ceilings the analytical figure sweeps.
const ANALYTICAL_LENS: [usize; 6] = [4, 8, 16, 32, 64, 128];

impl Experiment for FigAnalytical {
    fn name(&self) -> &'static str {
        "fig-analytical"
    }

    fn title(&self) -> &'static str {
        "hit rate vs wrong-path length on the trace model"
    }

    fn plan(&self, _rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for max_len in ANALYTICAL_LENS {
            for (tag, policy) in analytical_policies() {
                jobs.push(SimJob {
                    label: format!("wrong-path 1..{max_len} × {tag}"),
                    kind: JobKind::Replay {
                        capacity: 32,
                        policy,
                        events: 200_000,
                        mispredict_rate: 0.08,
                        wrong_path: (1, max_len),
                        call_density: 0.10,
                        seed: 42,
                    },
                });
            }
        }
        jobs
    }

    fn harvest(&self, _rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let policies = analytical_policies();
        let mut h = Harvest::new(outputs);
        let mut header = vec!["wrong-path len".to_string()];
        header.extend(policies.iter().map(|(n, _)| n.to_string()));
        let mut t = Table::new(header);
        t.set_title("Ablation (analytical): hit rate vs wrong-path length, trace model");
        for col in 1..=policies.len() {
            t.set_align(col, Align::Right);
        }
        for max_len in ANALYTICAL_LENS {
            let mut row = vec![Cell::text(format!("1..{max_len}"))];
            for _ in &policies {
                // Score only the correct-path returns: wrong-path pops
                // are squashed in a real machine and never scored.
                let (hits, correct) = h.replay();
                row.push(Cell::percent(hits as f64 / correct.max(1) as f64 * 100.0));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Ablation: front-end depth** — the repair mechanism's IPC benefit as
/// the misprediction pipeline penalty grows (deeper front ends make every
/// avoided return misprediction worth more).
pub struct FigFrontend;

/// Fetch-to-dispatch depths the front-end ablation sweeps.
const FRONTEND_DEPTHS: [u64; 4] = [1, 3, 6, 10];

fn frontend_specs(rs: &RunSpec) -> Vec<(WorkloadSpec, u64)> {
    suite_specs(rs)
        .into_iter()
        .filter(|(s, _)| matches!(s.name.as_str(), "gcc" | "li" | "perl" | "vortex"))
        .collect()
}

impl Experiment for FigFrontend {
    fn name(&self) -> &'static str {
        "fig-frontend"
    }

    fn title(&self) -> &'static str {
        "repair speedup vs fetch-to-dispatch depth"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in frontend_specs(rs) {
            for d in FRONTEND_DEPTHS {
                for (tag, repair) in [
                    ("none", RepairPolicy::None),
                    ("p+c", RepairPolicy::TosPointerAndContents),
                ] {
                    let cfg = CoreConfig::builder()
                        .decode_latency(d)
                        .return_predictor(ReturnPredictor::Ras {
                            entries: 32,
                            repair,
                        })
                        .build();
                    jobs.push(
                        SimJob::cycle(&spec, seed, cfg, rs).tagged(format!("depth {d} {tag}")),
                    );
                }
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        for d in FRONTEND_DEPTHS {
            header.push(format!("depth {d}: none"));
            header.push(format!("depth {d}: p+c"));
            header.push(format!("depth {d}: gain"));
        }
        let mut t = Table::new(header);
        t.set_title("Ablation (front end): repair speedup vs fetch-to-dispatch depth");
        for col in 1..=FRONTEND_DEPTHS.len() * 3 {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in frontend_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _ in FRONTEND_DEPTHS {
                let none = h.stats();
                let pc = h.stats();
                row.push(Cell::fixed(none.ipc(), 3));
                row.push(Cell::fixed(pc.ipc(), 3));
                row.push(Cell::percent((pc.ipc() / none.ipc() - 1.0) * 100.0));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Extension: the Jourdan self-checkpointing stack** — hit rate of the
/// pointer-only, popped-entry-preserving organization at several
/// capacities versus the paper's two-word mechanism on a 32-entry stack.
/// Reproduces the paper's related-work claim: self-checkpointing can
/// match full-stack quality but "requires a larger number of stack
/// entries because it preserves popped entries".
pub struct FigJourdan;

fn jourdan_configs() -> [(&'static str, ReturnPredictor); 5] {
    [
        (
            "ptr+contents @32",
            ReturnPredictor::Ras {
                entries: 32,
                repair: RepairPolicy::TosPointerAndContents,
            },
        ),
        (
            "self-ckpt @32",
            ReturnPredictor::SelfCheckpointing { entries: 32 },
        ),
        (
            "self-ckpt @64",
            ReturnPredictor::SelfCheckpointing { entries: 64 },
        ),
        (
            "self-ckpt @128",
            ReturnPredictor::SelfCheckpointing { entries: 128 },
        ),
        (
            "full @32",
            ReturnPredictor::Ras {
                entries: 32,
                repair: RepairPolicy::FullStack,
            },
        ),
    ]
}

impl Experiment for FigJourdan {
    fn name(&self) -> &'static str {
        "fig-jourdan"
    }

    fn title(&self) -> &'static str {
        "self-checkpointing stack vs contents checkpointing"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for (tag, rp) in jourdan_configs() {
                jobs.push(
                    SimJob::cycle(&spec, seed, CoreConfig::with_return_predictor(rp), rs)
                        .tagged(tag),
                );
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let configs = jourdan_configs();
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string()];
        header.extend(configs.iter().map(|(n, _)| n.to_string()));
        let mut t = Table::new(header);
        t.set_title("Extension (Jourdan): self-checkpointing stack vs contents checkpointing");
        for col in 1..=configs.len() {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            let mut row = vec![Cell::text(&spec.name)];
            for _ in &configs {
                row.push(Cell::percent(h.stats().return_hit_rate().percent()));
            }
            t.add_row(row);
        }
        h.finish();
        t
    }
}

/// **Extension: SMT shared-RAS contention** — two hardware threads on
/// one core, each running a sibling workload, with the core's RAS unit
/// shared under three policies: one contended stack (`shared`), half the
/// entries statically per hart (`partitioned`), or full-size per-hart
/// stacks selected by a hart tag (`tagged`). Swept over every repair
/// policy against a single-hart reference: sharing destroys the LIFO
/// call/return discipline the stack depends on — no repair policy can
/// recover what a sibling hart overwrote — while partitioning or tagging
/// restores nearly all of the single-hart hit rate.
pub struct FigSmt;

fn smt_repairs() -> [(&'static str, RepairPolicy); 6] {
    [
        ("no repair", RepairPolicy::None),
        ("valid bits", RepairPolicy::ValidBits),
        ("TOS ptr", RepairPolicy::TosPointer),
        ("ptr+contents", RepairPolicy::TosPointerAndContents),
        ("top-4", RepairPolicy::TopContents { k: 4 }),
        ("full", RepairPolicy::FullStack),
    ]
}

fn smt_sharings() -> [(&'static str, RasSharing); 3] {
    [
        ("shared", RasSharing::Shared),
        ("partitioned", RasSharing::Partitioned),
        ("tagged", RasSharing::Tagged { tag_bits: 1 }),
    ]
}

impl Experiment for FigSmt {
    fn name(&self) -> &'static str {
        "fig-smt"
    }

    fn title(&self) -> &'static str {
        "2-hart SMT: RAS contention by sharing policy and repair"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in frontend_specs(rs) {
            for (rtag, repair) in smt_repairs() {
                let rp = ReturnPredictor::Ras {
                    entries: 32,
                    repair,
                };
                jobs.push(
                    SimJob::cycle(&spec, seed, CoreConfig::with_return_predictor(rp), rs)
                        .tagged(format!("1-hart {rtag}")),
                );
                for (stag, sharing) in smt_sharings() {
                    let cfg = CoreConfig::builder()
                        .harts(2)
                        .ras_sharing(sharing)
                        .return_predictor(rp)
                        .build();
                    jobs.push(SimJob::smt(&spec, seed, cfg, rs).tagged(format!("{stag} {rtag}")));
                }
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut header = vec!["benchmark".to_string(), "repair".to_string()];
        header.push("1-hart hit".to_string());
        for (stag, _) in smt_sharings() {
            header.push(format!("{stag} hit"));
        }
        for (stag, _) in smt_sharings() {
            header.push(format!("{stag} IPC"));
        }
        let mut t = Table::new(header);
        t.set_title(
            "Extension (SMT): 2-hart return hit rate and aggregate IPC by RAS sharing policy",
        );
        for col in 2..=2 + smt_sharings().len() * 2 {
            t.set_align(col, Align::Right);
        }
        // Aggregates over harts: hit rate pools every committed return;
        // IPC sums per-hart throughput (the usual SMT figure of merit).
        let agg_hit = |v: &[hydra_pipeline::SimStats]| {
            let hits: u64 = v.iter().map(|s| s.return_hits).sum();
            let returns: u64 = v.iter().map(|s| s.returns).sum();
            hits as f64 / returns.max(1) as f64 * 100.0
        };
        let agg_ipc = |v: &[hydra_pipeline::SimStats]| v.iter().map(|s| s.ipc()).sum::<f64>();
        for (spec, _) in frontend_specs(rs) {
            for (rtag, _) in smt_repairs() {
                let single = h.stats();
                let mut row = vec![
                    Cell::text(&spec.name),
                    Cell::text(rtag),
                    Cell::percent(single.return_hit_rate().percent()),
                ];
                let mut hits = Vec::new();
                let mut ipcs = Vec::new();
                for _ in smt_sharings() {
                    let v = h.smt_stats();
                    hits.push(agg_hit(v));
                    ipcs.push(agg_ipc(v));
                }
                row.extend(hits.into_iter().map(Cell::percent));
                row.extend(ipcs.into_iter().map(|i| Cell::fixed(i, 3)));
                t.add_row(row);
            }
        }
        h.finish();
        t
    }
}

/// **Robustness: multi-seed repair comparison** — the headline comparison
/// (no repair vs the paper's mechanism vs perfect) repeated across
/// several workload-generation seeds, reported as mean ± stddev. The
/// paper's conclusions should not depend on one synthetic program, and
/// this shows they do not.
pub struct FigSeeds {
    /// Workload-generation seeds the comparison is repeated across.
    pub seeds: Vec<u64>,
}

impl Default for FigSeeds {
    fn default() -> Self {
        FigSeeds {
            seeds: vec![12345, 777, 31337],
        }
    }
}

impl FigSeeds {
    fn repairs() -> [(&'static str, RepairPolicy); 2] {
        [
            ("none", RepairPolicy::None),
            ("p+c", RepairPolicy::TosPointerAndContents),
        ]
    }
}

impl Experiment for FigSeeds {
    fn name(&self) -> &'static str {
        "fig-seeds"
    }

    fn title(&self) -> &'static str {
        "repair comparison across workload seeds (mean ± stddev)"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for spec in WorkloadSpec::spec95_suite() {
            for (i, &seed) in self.seeds.iter().enumerate() {
                let gen_seed = seed.wrapping_add(i as u64);
                for (tag, repair) in Self::repairs() {
                    let rp = ReturnPredictor::Ras {
                        entries: 32,
                        repair,
                    };
                    jobs.push(
                        SimJob::cycle(&spec, gen_seed, CoreConfig::with_return_predictor(rp), rs)
                            .tagged(format!("seed {seed} {tag}")),
                    );
                }
            }
        }
        jobs
    }

    fn harvest(&self, _rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let mut h = Harvest::new(outputs);
        let mut t = Table::new(vec![
            "benchmark",
            "no repair (hit %)",
            "ptr+contents (hit %)",
            "speedup p+c vs none",
        ]);
        t.set_title(format!(
            "Robustness: repair comparison across {} seeds (mean ± stddev)",
            self.seeds.len()
        ));
        for col in 1..=3 {
            t.set_align(col, Align::Right);
        }
        for spec in WorkloadSpec::spec95_suite() {
            let mut none_hit = Summary::new();
            let mut pc_hit = Summary::new();
            let mut speedup = Summary::new();
            for _ in &self.seeds {
                let none = h.stats();
                let pc = h.stats();
                none_hit.record(none.return_hit_rate().percent());
                pc_hit.record(pc.return_hit_rate().percent());
                speedup.record((pc.ipc() / none.ipc() - 1.0) * 100.0);
            }
            t.add_row(vec![
                Cell::text(spec.name.clone()),
                Cell::text(format!("{:.2} ± {:.2}", none_hit.mean(), none_hit.stddev())),
                Cell::text(format!("{:.2} ± {:.2}", pc_hit.mean(), pc_hit.stddev())),
                Cell::text(format!("{:.2}% ± {:.2}", speedup.mean(), speedup.stddev())),
            ]);
        }
        h.finish();
        t
    }
}

/// **Observability: CPI-stack decomposition and return-mispredict
/// forensics** — every suite workload under each repair policy, reporting
/// where the commit slots went (the always-on cycle accounting) and *why*
/// each mispredicted return missed (the pop-time evidence classifier).
/// This turns the paper's aggregate hit rates into causal stories: weak
/// repair shows up as wrong-path-corruption slots charged to
/// `return_mispredict`, valid-bits invalidations as `repair_shortfall`,
/// deep call chains as `overflow_wrap`. The commit-slot percentages in
/// every row sum to 100 by construction (the conservation invariant).
pub struct FigCpi;

impl Experiment for FigCpi {
    fn name(&self) -> &'static str {
        "fig-cpi"
    }

    fn title(&self) -> &'static str {
        "CPI stack and return-mispredict causes by repair policy"
    }

    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for (spec, seed) in suite_specs(rs) {
            for (rtag, repair) in smt_repairs() {
                let rp = ReturnPredictor::Ras {
                    entries: 32,
                    repair,
                };
                jobs.push(
                    SimJob::cycle(&spec, seed, CoreConfig::with_return_predictor(rp), rs)
                        .tagged(rtag),
                );
            }
        }
        jobs
    }

    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        use hydra_pipeline::{LostCause, MispredictCause};
        let mut h = Harvest::new(outputs);
        let mut header = vec![
            "benchmark".to_string(),
            "repair".to_string(),
            "CPI".to_string(),
            "retire %".to_string(),
        ];
        for cause in LostCause::ALL {
            header.push(format!("{} %", cause.label()));
        }
        header.push("ret miss".to_string());
        for cause in MispredictCause::ALL {
            header.push(format!("mc {}", cause.label()));
        }
        let mut t = Table::new(header);
        t.set_title(
            "Observability: commit-slot accounting and mispredicted-return causes \
             (slot %s sum to 100)",
        );
        for col in 2..4 + LostCause::COUNT + 1 + MispredictCause::COUNT {
            t.set_align(col, Align::Right);
        }
        for (spec, _) in suite_specs(rs) {
            for (rtag, repair) in smt_repairs() {
                let (stats, cpi, causes) = h.cycle();
                let width = CoreConfig::with_return_predictor(ReturnPredictor::Ras {
                    entries: 32,
                    repair,
                })
                .commit_width;
                let slots = (stats.cycles * width as u64).max(1);
                let pct = |n: u64| n as f64 / slots as f64 * 100.0;
                let mut row = vec![
                    Cell::text(&spec.name),
                    Cell::text(rtag),
                    Cell::fixed(stats.cycles as f64 / stats.committed.max(1) as f64, 3),
                    Cell::percent(pct(stats.committed)),
                ];
                for cause in LostCause::ALL {
                    row.push(Cell::percent(pct(cpi.get(cause))));
                }
                row.push(Cell::int(stats.returns - stats.return_hits));
                for cause in MispredictCause::ALL {
                    row.push(Cell::int(causes.get(cause)));
                }
                t.add_row(row);
            }
        }
        h.finish();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert!(!names.is_empty());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate experiment names");
    }

    #[test]
    fn find_resolves_every_registry_name() {
        for e in registry() {
            let found = find(e.name()).expect("registered name resolves");
            assert_eq!(found.name(), e.name());
        }
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn job_counts_match_structure() {
        let rs = RunSpec::quick();
        assert_eq!(Table1.plan(&rs).len(), 0);
        assert_eq!(Table2.plan(&rs).len(), 8 * 2);
        assert_eq!(FigRepair.plan(&rs).len(), 8 * repair_ladder().len());
        assert_eq!(FigAnalytical.plan(&rs).len(), 6 * 5);
        assert_eq!(FigSmt.plan(&rs).len(), 4 * 6 * 4);
        assert_eq!(FigSeeds::default().plan(&rs).len(), 8 * 3 * 2);
        assert_eq!(FigCpi.plan(&rs).len(), 8 * 6);
    }
}
