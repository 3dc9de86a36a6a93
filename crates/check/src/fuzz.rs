//! The seeded differential fuzzer.
//!
//! Each case is a random [`WorkloadSpec`] plus a random machine
//! configuration. The optimized pipeline runs the case with its commit
//! and RAS events tapped; the event stream is replayed
//! against the [`RefSim`] in-order simulator (every commit) and, for
//! single-path RAS configurations, against the [`RasOracle`] reference
//! repair models (every speculative stack interaction). Any disagreement
//! is a [`Divergence`].
//!
//! On divergence the fuzzer *shrinks*: it greedily applies
//! spec-simplifying moves (tighten the horizon to just past the
//! divergence, halve the call tree, drop recursion, shrink the stack)
//! and keeps every move that still diverges, producing a minimal repro
//! serializable as replayable JSON ([`repro_to_json`] /
//! [`case_from_json`], surfaced as `expt fuzz --replay FILE`).

use crate::{Divergence, RasOracle, RefSim};
use hydra_pipeline::{
    Core, CoreConfig, Event, EventClass, EventMask, MultipathConfig, RasSharing, ReturnPredictor,
    System,
};
use hydra_stats::Json;
use hydra_workloads::{Workload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_core::{MultipathStackPolicy, RepairPolicy};

/// The tap classes the differential check replays.
const CHECKED: EventMask = EventMask::NONE
    .with(EventClass::Commit)
    .with(EventClass::Ras);

/// The machine-configuration slice of one fuzz case: the knobs the
/// differential check cares about, serializable for replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseConfig {
    /// Return-address-stack capacity.
    pub ras_entries: usize,
    /// Repair policy under test.
    pub repair: RepairPolicy,
    /// Shadow-storage budget (`None` = unlimited).
    pub checkpoint_budget: Option<usize>,
    /// Front-end width (also used for dispatch/issue/commit).
    pub width: usize,
    /// Register-update-unit entries.
    pub ruu_size: usize,
    /// Load/store-queue entries.
    pub lsq_size: usize,
    /// Fetch-queue entries.
    pub fetch_queue: usize,
    /// Front-end depth in cycles.
    pub decode_latency: u64,
    /// Live path contexts; `< 2` means conventional single-path.
    pub multipath_paths: usize,
    /// Per-path stacks (`true`) or one unified stack (`false`) when
    /// multipath.
    pub per_path_stacks: bool,
    /// Hardware threads per core; `> 1` runs the case as 2-hart SMT
    /// (mutually exclusive with multipath).
    pub harts: u8,
    /// How harts share the RAS when `harts > 1`.
    pub ras_sharing: RasSharing,
}

impl CaseConfig {
    /// Whether the RAS reference oracle applies: a single-path machine
    /// predicting returns from a real (non-oracle) stack whose mutation
    /// order the per-engine event streams preserve. `Shared` multi-hart
    /// is excluded: each engine drains its own stream, so the global
    /// cross-hart interleaving on the one physical stack is lost.
    pub fn ras_oracle_applies(&self) -> bool {
        self.multipath_paths < 2
            && (self.harts <= 1 || !matches!(self.ras_sharing, RasSharing::Shared))
    }

    /// Builds the pipeline configuration, rejecting invalid combinations
    /// through the typed builder path.
    pub fn to_core_config(&self) -> Result<CoreConfig, String> {
        let multipath = (self.multipath_paths >= 2).then_some(MultipathConfig {
            max_paths: self.multipath_paths,
            stack_policy: if self.per_path_stacks {
                MultipathStackPolicy::PerPath
            } else {
                MultipathStackPolicy::Unified {
                    repair: self.repair,
                }
            },
        });
        CoreConfig::builder()
            .fetch_width(self.width)
            .dispatch_width(self.width)
            .issue_width(self.width)
            .commit_width(self.width)
            .ruu_size(self.ruu_size)
            .lsq_size(self.lsq_size)
            .fetch_queue(self.fetch_queue)
            .decode_latency(self.decode_latency)
            .return_predictor(ReturnPredictor::Ras {
                entries: self.ras_entries,
                repair: self.repair,
            })
            .checkpoint_budget(self.checkpoint_budget)
            .multipath(multipath)
            .harts(self.harts)
            .ras_sharing(self.ras_sharing)
            .try_build()
            .map_err(|e| format!("invalid fuzz config: {e}"))
    }
}

/// One complete, replayable differential test case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Workload-generation seed.
    pub workload_seed: u64,
    /// Committed-instruction horizon for the pipeline run.
    pub horizon: u64,
    /// Workload shape.
    pub spec: WorkloadSpec,
    /// Machine configuration.
    pub config: CaseConfig,
    /// Commit count at which the run snapshots, re-decodes, and resumes
    /// the pipeline before continuing (`None` = straight through). The
    /// resume is verified byte-stable and the differential check keeps
    /// running on the resumed core, so the snapshot codec is part of
    /// the fuzzed surface. Ignored for multi-hart cases.
    pub snapshot_at: Option<u64>,
}

/// The result of running one case to its horizon.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Instructions the pipeline committed.
    pub commits: u64,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
}

/// Runs one case: optimized pipeline with its commit and RAS events tapped,
/// diffed live against the reference simulator and (where applicable)
/// the RAS oracle.
///
/// `Err` means the case could not run at all (workload generation or
/// configuration rejected) — a fuzzer bug, not a divergence.
pub fn run_case(case: &FuzzCase) -> Result<CaseReport, String> {
    if case.config.harts > 1 {
        return run_case_smt(case);
    }
    let workload = Workload::generate(&case.spec, case.workload_seed)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let config = case.config.to_core_config()?;
    let mut core = Core::new(config, workload.program());
    core.set_tap(CHECKED);
    let mut refsim = RefSim::new(workload.program());
    let mut oracle = case
        .config
        .ras_oracle_applies()
        .then(|| RasOracle::new(case.config.repair, case.config.ras_entries));

    let mut events = Vec::new();
    let mut committed = 0u64;
    let mut pending_snapshot = case.snapshot_at.filter(|&s| s < case.horizon);
    loop {
        // Chunk to the next event boundary: the usual drain interval, or
        // the pending snapshot point if it comes first.
        let mut target = (committed + 4096).min(case.horizon);
        if let Some(s) = pending_snapshot {
            target = target.min(s.max(committed + 1));
        }
        let stats = core.run(target);
        core.drain_tap(&mut events);
        for ev in events.drain(..).map(|s| s.event) {
            if let Event::Commit {
                pc, inst, next_pc, ..
            } = ev
            {
                if let Err(d) = refsim.check_commit(pc, inst, next_pc) {
                    return Ok(CaseReport {
                        commits: stats.committed,
                        divergence: Some(d),
                    });
                }
            }
            if let Some(oracle) = &mut oracle {
                if let Err(d) = oracle.apply(&ev) {
                    return Ok(CaseReport {
                        commits: stats.committed,
                        divergence: Some(d),
                    });
                }
            }
        }
        if stats.committed >= case.horizon || stats.committed == committed {
            return Ok(CaseReport {
                commits: stats.committed,
                divergence: None,
            });
        }
        committed = stats.committed;
        if pending_snapshot.is_some_and(|s| committed >= s) {
            pending_snapshot = None;
            // Serialize, re-decode, and carry on with the resumed core.
            // The tap was drained above, so no events are lost
            // across the swap. A resume that is not byte-stable is a
            // codec divergence in its own right — report it like any
            // other, so it shrinks like any other.
            let bytes = core.save_snapshot();
            core = Core::resume(&bytes, workload.program())
                .map_err(|e| format!("snapshot resume failed: {e}"))?;
            if core.save_snapshot() != bytes {
                return Ok(CaseReport {
                    commits: committed,
                    divergence: Some(Divergence {
                        commits: committed,
                        what: "snapshot/resume: re-encoded snapshot differs from the bytes \
                               it was resumed from"
                            .into(),
                    }),
                });
            }
            core.set_tap(CHECKED);
        }
    }
}

/// Runs a multi-hart case as a one-core SMT [`System`]: each hart gets a
/// sibling workload (same spec, consecutive seeds) and its own reference
/// simulator; each hart's event stream replays against a sharing-aware
/// [`RasOracle`] where the oracle applies (see
/// [`CaseConfig::ras_oracle_applies`]).
fn run_case_smt(case: &FuzzCase) -> Result<CaseReport, String> {
    let harts = case.config.harts as usize;
    let workloads: Vec<Workload> = (0..harts as u64)
        .map(|h| Workload::generate(&case.spec, case.workload_seed.wrapping_add(h)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let config = case.config.to_core_config()?;
    let programs: Vec<_> = workloads.iter().map(Workload::program).collect();
    let mut sys = System::new(1, config, &programs);
    let mut refsims: Vec<RefSim> = workloads.iter().map(|w| RefSim::new(w.program())).collect();
    let mut oracles: Vec<Option<RasOracle>> = (0..harts)
        .map(|_| {
            case.config.ras_oracle_applies().then(|| {
                RasOracle::with_sharing(
                    case.config.repair,
                    case.config.ras_entries,
                    case.config.harts,
                    case.config.ras_sharing,
                )
            })
        })
        .collect();
    for h in 0..harts {
        sys.hart(h).set_tap(CHECKED);
    }

    let mut events = Vec::new();
    let mut target = 0u64;
    let mut last_total = u64::MAX;
    loop {
        target = (target + 4096).min(case.horizon);
        let stats = sys.run(target);
        let commits_high = stats.iter().map(|s| s.committed).max().unwrap_or(0);
        for h in 0..harts {
            sys.hart(h).drain_tap(&mut events);
            for ev in events.drain(..).map(|s| s.event) {
                if let Event::Commit {
                    pc, inst, next_pc, ..
                } = ev
                {
                    if let Err(d) = refsims[h].check_commit(pc, inst, next_pc) {
                        return Ok(CaseReport {
                            commits: commits_high,
                            divergence: Some(Divergence {
                                what: format!("hart {h}: {}", d.what),
                                ..d
                            }),
                        });
                    }
                }
                if let Some(oracle) = &mut oracles[h] {
                    if let Err(d) = oracle.apply(&ev) {
                        return Ok(CaseReport {
                            commits: commits_high,
                            divergence: Some(Divergence {
                                what: format!("hart {h}: {}", d.what),
                                ..d
                            }),
                        });
                    }
                }
            }
        }
        let total: u64 = stats.iter().map(|s| s.committed).sum();
        let all_done = stats.iter().all(|s| s.committed >= case.horizon);
        if all_done || total == last_total {
            return Ok(CaseReport {
                commits: commits_high,
                divergence: None,
            });
        }
        last_total = total;
    }
}

/// Draws one random case. Sizes stay small enough that a case runs in
/// well under a second; `quick` halves the horizon range for CI smoke
/// runs.
pub fn gen_case(rng: &mut StdRng, index: u64, quick: bool) -> FuzzCase {
    let pair = |rng: &mut StdRng, lo: usize, span: usize| {
        let a = rng.gen_range(lo..lo + span);
        let b = rng.gen_range(a..=a + span);
        (a, b)
    };
    let spec = WorkloadSpec {
        name: format!("fuzz-{index}"),
        functions: rng.gen_range(1..=24),
        call_depth: rng.gen_range(1..=6),
        filler: pair(rng, 1, 6),
        segments: pair(rng, 1, 4),
        call_prob: rng.gen_range(0.0..0.5),
        indirect_frac: rng.gen_range(0.0..0.4),
        hard_branch_prob: rng.gen_range(0.0..0.4),
        hard_branch_takenness: rng.gen_range(0.1..0.9),
        easy_branch_prob: rng.gen_range(0.0..0.4),
        loop_prob: rng.gen_range(0.0..0.3),
        loop_iters: {
            let lo = rng.gen_range(1..6);
            (lo, rng.gen_range(lo..=lo + 6))
        },
        mem_prob: rng.gen_range(0.0..0.4),
        recursion_depth: rng.gen_range(0..24),
        mutual_recursion: rng.gen_bool(0.4),
        outer_iterations: rng.gen_range(8..500),
        calls_in_main: rng.gen_range(1..=6),
        call_table_slots: 1usize << rng.gen_range(1..=4),
        data_words: 65_536,
    };
    let choose = |rng: &mut StdRng, opts: &[usize]| opts[rng.gen_range(0..opts.len())];
    let repair = match rng.gen_range(0..7) {
        0 => RepairPolicy::None,
        1 => RepairPolicy::ValidBits,
        2 => RepairPolicy::TosPointer,
        3 => RepairPolicy::TosPointerAndContents,
        4 => RepairPolicy::TopContents {
            k: rng.gen_range(1..=4),
        },
        5 => RepairPolicy::FullStack,
        // Weight the paper's proposed mechanism a little heavier.
        _ => RepairPolicy::TosPointerAndContents,
    };
    // Front-end shape: multipath and SMT are mutually exclusive, so one
    // roll picks conventional (70%), multipath (10%), or 2-hart SMT (20%).
    let shape = rng.gen_range(0..10);
    let multipath_paths = if shape < 1 { rng.gen_range(2..=4) } else { 1 };
    let (harts, ras_sharing) = if (1..3).contains(&shape) {
        let sharing = match rng.gen_range(0..3) {
            0 => RasSharing::Shared,
            1 => RasSharing::Partitioned,
            _ => RasSharing::Tagged {
                tag_bits: rng.gen_range(1..=3),
            },
        };
        (2, sharing)
    } else {
        (1, RasSharing::Shared)
    };
    let config = CaseConfig {
        ras_entries: choose(rng, &[1, 2, 3, 4, 8, 16, 32]),
        repair,
        checkpoint_budget: if rng.gen_bool(0.4) {
            Some(rng.gen_range(1..=16))
        } else {
            None
        },
        width: rng.gen_range(1..=4),
        ruu_size: choose(rng, &[8, 16, 32, 64]),
        lsq_size: choose(rng, &[4, 8, 16, 32]),
        fetch_queue: choose(rng, &[2, 4, 8, 16]),
        decode_latency: rng.gen_range(1..=4),
        multipath_paths,
        per_path_stacks: rng.gen_bool(0.5),
        harts,
        ras_sharing,
    };
    let horizon = if quick {
        rng.gen_range(1_000..8_000)
    } else {
        rng.gen_range(2_000..30_000)
    };
    // ~20% of single-hart cases snapshot/resume mid-run, putting the
    // snapshot codec on the fuzzed surface. Both rolls always happen so
    // the rng stream stays shape-independent.
    let snap = rng.gen_bool(0.2);
    let snap_frac = rng.gen_range(0.1..0.9);
    let snapshot_at = (snap && harts == 1).then(|| ((horizon as f64 * snap_frac) as u64).max(1));
    FuzzCase {
        workload_seed: rng.next_u64(),
        horizon,
        spec,
        config,
        snapshot_at,
    }
}

/// Greedily minimizes a diverging case: applies each simplifying move in
/// turn, keeping it whenever the divergence survives, until a whole pass
/// changes nothing or `max_runs` verification runs are spent. Returns
/// the smallest still-diverging case and its divergence.
pub fn shrink(case: &FuzzCase, divergence: &Divergence, max_runs: usize) -> (FuzzCase, Divergence) {
    type Move = fn(&FuzzCase, &Divergence) -> Option<FuzzCase>;
    let moves: &[Move] = &[
        // Tighten the horizon to just past the divergence point. RAS
        // events lead commit by the in-flight window, so leave margin.
        |c, d| {
            let tight = d.commits + 256;
            (tight < c.horizon).then(|| FuzzCase {
                horizon: tight,
                ..c.clone()
            })
        },
        // Drop the mid-run snapshot point — kept only when the bug is
        // not actually in the snapshot/resume path, so codec repros
        // retain their snapshot point.
        |c, _| {
            c.snapshot_at.is_some().then(|| FuzzCase {
                snapshot_at: None,
                ..c.clone()
            })
        },
        |c, _| {
            (c.spec.outer_iterations > 1).then(|| {
                let mut n = c.clone();
                n.spec.outer_iterations /= 2;
                n.spec.outer_iterations = n.spec.outer_iterations.max(1);
                n
            })
        },
        |c, _| {
            (c.spec.functions > 1).then(|| {
                let mut n = c.clone();
                n.spec.functions /= 2;
                n.spec.functions = n.spec.functions.max(1);
                n
            })
        },
        |c, _| {
            (c.spec.calls_in_main > 1).then(|| {
                let mut n = c.clone();
                n.spec.calls_in_main /= 2;
                n
            })
        },
        |c, _| {
            (c.spec.call_depth > 1).then(|| {
                let mut n = c.clone();
                n.spec.call_depth -= 1;
                n
            })
        },
        |c, _| {
            (c.spec.recursion_depth > 0).then(|| {
                let mut n = c.clone();
                n.spec.recursion_depth /= 2;
                n
            })
        },
        |c, _| {
            c.spec.mutual_recursion.then(|| {
                let mut n = c.clone();
                n.spec.mutual_recursion = false;
                n
            })
        },
        |c, _| {
            (c.spec.segments.1 > 1).then(|| {
                let mut n = c.clone();
                n.spec.segments = (1, c.spec.segments.1 / 2 + 1);
                (n.spec != c.spec).then_some(n)
            })?
        },
        |c, _| {
            (c.spec.filler.1 > 1).then(|| {
                let mut n = c.clone();
                n.spec.filler = (c.spec.filler.0.min(1), c.spec.filler.1 / 2 + 1);
                (n.spec != c.spec).then_some(n)
            })?
        },
        |c, _| {
            (c.spec.loop_prob > 0.0).then(|| {
                let mut n = c.clone();
                n.spec.loop_prob = 0.0;
                n
            })
        },
        |c, _| {
            (c.spec.mem_prob > 0.0).then(|| {
                let mut n = c.clone();
                n.spec.mem_prob = 0.0;
                n
            })
        },
        |c, _| {
            (c.spec.indirect_frac > 0.0).then(|| {
                let mut n = c.clone();
                n.spec.indirect_frac = 0.0;
                n
            })
        },
        |c, _| {
            (c.config.ras_entries > 1).then(|| {
                let mut n = c.clone();
                n.config.ras_entries /= 2;
                n
            })
        },
        // Try collapsing SMT to a single hart — kept only when the bug
        // is not actually about cross-hart interaction.
        |c, _| {
            (c.config.harts > 1).then(|| {
                let mut n = c.clone();
                n.config.harts = 1;
                n.config.ras_sharing = RasSharing::Shared;
                n
            })
        },
    ];
    let mut best = case.clone();
    let mut best_div = divergence.clone();
    let mut runs = 0usize;
    loop {
        let mut improved = false;
        for m in moves {
            if runs >= max_runs {
                return (best, best_div);
            }
            let Some(candidate) = m(&best, &best_div) else {
                continue;
            };
            runs += 1;
            if let Ok(report) = run_case(&candidate) {
                if let Some(d) = report.divergence {
                    best = candidate;
                    best_div = d;
                    improved = true;
                }
            }
        }
        if !improved {
            return (best, best_div);
        }
    }
}

/// A fuzzing failure: the diverging case as generated and as minimized.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Zero-based index of the diverging case.
    pub case_index: u64,
    /// The case exactly as generated.
    pub original: FuzzCase,
    /// The divergence the original case produced.
    pub original_divergence: Divergence,
    /// The shrunken repro.
    pub minimized: FuzzCase,
    /// The divergence the minimized case produces.
    pub divergence: Divergence,
}

/// The outcome of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases executed (stops at the first divergence).
    pub cases_run: u64,
    /// The first divergence found, minimized; `None` means a clean run.
    pub failure: Option<FuzzFailure>,
}

/// Fuzzing campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Cases to generate and run.
    pub cases: u64,
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Smaller horizons for CI smoke runs.
    pub quick: bool,
    /// Verification-run budget for shrinking.
    pub shrink_runs: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 200,
            seed: 0xC0FFEE,
            quick: false,
            shrink_runs: 200,
        }
    }
}

/// Runs a seeded campaign: generates and runs cases until one diverges
/// (then shrinks it and stops) or the case budget is exhausted.
///
/// `Err` means a case could not run at all — a harness bug, distinct
/// from a divergence.
pub fn fuzz(opts: &FuzzOptions) -> Result<FuzzOutcome, String> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    for i in 0..opts.cases {
        let case = gen_case(&mut rng, i, opts.quick);
        let report = run_case(&case).map_err(|e| format!("case {i}: {e}"))?;
        if let Some(d) = report.divergence {
            let (minimized, min_div) = shrink(&case, &d, opts.shrink_runs);
            return Ok(FuzzOutcome {
                cases_run: i + 1,
                failure: Some(FuzzFailure {
                    case_index: i,
                    original: case,
                    original_divergence: d,
                    minimized,
                    divergence: min_div,
                }),
            });
        }
    }
    Ok(FuzzOutcome {
        cases_run: opts.cases,
        failure: None,
    })
}

// --- JSON (de)serialization for replayable repro files ----------------

fn f(v: f64) -> Json {
    Json::num(v)
}

fn spec_to_json(s: &WorkloadSpec) -> Json {
    Json::obj([
        ("name", Json::str(&s.name)),
        ("functions", Json::int(s.functions as u64)),
        ("call_depth", Json::int(s.call_depth as u64)),
        ("filler_min", Json::int(s.filler.0 as u64)),
        ("filler_max", Json::int(s.filler.1 as u64)),
        ("segments_min", Json::int(s.segments.0 as u64)),
        ("segments_max", Json::int(s.segments.1 as u64)),
        ("call_prob", f(s.call_prob)),
        ("indirect_frac", f(s.indirect_frac)),
        ("hard_branch_prob", f(s.hard_branch_prob)),
        ("hard_branch_takenness", f(s.hard_branch_takenness)),
        ("easy_branch_prob", f(s.easy_branch_prob)),
        ("loop_prob", f(s.loop_prob)),
        ("loop_iters_min", Json::int(s.loop_iters.0)),
        ("loop_iters_max", Json::int(s.loop_iters.1)),
        ("mem_prob", f(s.mem_prob)),
        ("recursion_depth", Json::int(s.recursion_depth)),
        ("mutual_recursion", Json::int(s.mutual_recursion as u64)),
        ("outer_iterations", Json::int(s.outer_iterations)),
        ("calls_in_main", Json::int(s.calls_in_main as u64)),
        ("call_table_slots", Json::int(s.call_table_slots as u64)),
        ("data_words", Json::int(s.data_words)),
    ])
}

fn config_to_json(c: &CaseConfig) -> Json {
    let (repair, k) = match c.repair {
        RepairPolicy::TopContents { k } => ("top-k", k as u64),
        other => (other.short_name(), 0),
    };
    Json::obj([
        ("ras_entries", Json::int(c.ras_entries as u64)),
        ("repair", Json::str(repair)),
        ("repair_k", Json::int(k)),
        (
            "checkpoint_budget",
            Json::int(c.checkpoint_budget.map(|b| b as u64).unwrap_or(0)),
        ),
        ("width", Json::int(c.width as u64)),
        ("ruu_size", Json::int(c.ruu_size as u64)),
        ("lsq_size", Json::int(c.lsq_size as u64)),
        ("fetch_queue", Json::int(c.fetch_queue as u64)),
        ("decode_latency", Json::int(c.decode_latency)),
        ("multipath_paths", Json::int(c.multipath_paths as u64)),
        ("per_path_stacks", Json::int(c.per_path_stacks as u64)),
        ("harts", Json::int(c.harts as u64)),
        ("ras_sharing", Json::str(c.ras_sharing.short_name())),
        (
            "ras_tag_bits",
            Json::int(match c.ras_sharing {
                RasSharing::Tagged { tag_bits } => tag_bits as u64,
                _ => 0,
            }),
        ),
    ])
}

/// Serializes a case (plus the divergence it reproduces) as a replayable
/// repro document.
pub fn repro_to_json(case: &FuzzCase, divergence: &Divergence) -> Json {
    Json::obj([
        ("schema", Json::str("hydra-check/repro/v1")),
        (
            "case",
            Json::obj([
                // As a string: JSON numbers are f64 and would round a
                // full-width 64-bit seed.
                ("workload_seed", Json::str(case.workload_seed.to_string())),
                ("horizon", Json::int(case.horizon)),
                // 0 = no mid-run snapshot (the key is absent in repro
                // files written before snapshot-point cases existed).
                ("snapshot_at", Json::int(case.snapshot_at.unwrap_or(0))),
                ("spec", spec_to_json(&case.spec)),
                ("config", config_to_json(&case.config)),
            ]),
        ),
        (
            "divergence",
            Json::obj([
                ("commits", Json::int(divergence.commits)),
                ("what", Json::str(&divergence.what)),
            ]),
        ),
    ])
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .map(|v| v as u64)
        .ok_or_else(|| format!("repro JSON: missing numeric field {key:?}"))
}

fn get_usize(j: &Json, key: &str) -> Result<usize, String> {
    Ok(get_u64(j, key)? as usize)
}

fn get_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("repro JSON: missing numeric field {key:?}"))
}

fn spec_from_json(j: &Json) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec {
        name: j
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("fuzz-replay")
            .to_string(),
        functions: get_usize(j, "functions")?,
        call_depth: get_usize(j, "call_depth")?,
        filler: (get_usize(j, "filler_min")?, get_usize(j, "filler_max")?),
        segments: (get_usize(j, "segments_min")?, get_usize(j, "segments_max")?),
        call_prob: get_f64(j, "call_prob")?,
        indirect_frac: get_f64(j, "indirect_frac")?,
        hard_branch_prob: get_f64(j, "hard_branch_prob")?,
        hard_branch_takenness: get_f64(j, "hard_branch_takenness")?,
        easy_branch_prob: get_f64(j, "easy_branch_prob")?,
        loop_prob: get_f64(j, "loop_prob")?,
        loop_iters: (get_u64(j, "loop_iters_min")?, get_u64(j, "loop_iters_max")?),
        mem_prob: get_f64(j, "mem_prob")?,
        recursion_depth: get_u64(j, "recursion_depth")?,
        mutual_recursion: get_u64(j, "mutual_recursion")? != 0,
        outer_iterations: get_u64(j, "outer_iterations")?,
        calls_in_main: get_usize(j, "calls_in_main")?,
        call_table_slots: get_usize(j, "call_table_slots")?,
        data_words: get_u64(j, "data_words")?,
    })
}

fn config_from_json(j: &Json) -> Result<CaseConfig, String> {
    let repair = match j.get("repair").and_then(Json::as_str) {
        Some("none") => RepairPolicy::None,
        Some("valid-bits") => RepairPolicy::ValidBits,
        Some("tos-ptr") => RepairPolicy::TosPointer,
        Some("tos+contents") => RepairPolicy::TosPointerAndContents,
        Some("top-k") => RepairPolicy::TopContents {
            k: get_usize(j, "repair_k")?,
        },
        Some("full-stack") => RepairPolicy::FullStack,
        other => return Err(format!("repro JSON: unknown repair policy {other:?}")),
    };
    let budget = get_usize(j, "checkpoint_budget")?;
    // Absent in pre-SMT repro files: default to a single hart.
    let harts = j
        .get("harts")
        .and_then(Json::as_num)
        .map(|v| v as u8)
        .unwrap_or(1);
    let ras_sharing = match j.get("ras_sharing").and_then(Json::as_str) {
        None | Some("shared") => RasSharing::Shared,
        Some("partitioned") => RasSharing::Partitioned,
        Some("tagged") => RasSharing::Tagged {
            tag_bits: get_u64(j, "ras_tag_bits")?.max(1) as u8,
        },
        Some(other) => return Err(format!("repro JSON: unknown ras_sharing {other:?}")),
    };
    Ok(CaseConfig {
        ras_entries: get_usize(j, "ras_entries")?,
        repair,
        checkpoint_budget: (budget > 0).then_some(budget),
        width: get_usize(j, "width")?,
        ruu_size: get_usize(j, "ruu_size")?,
        lsq_size: get_usize(j, "lsq_size")?,
        fetch_queue: get_usize(j, "fetch_queue")?,
        decode_latency: get_u64(j, "decode_latency")?,
        multipath_paths: get_usize(j, "multipath_paths")?,
        per_path_stacks: get_u64(j, "per_path_stacks")? != 0,
        harts,
        ras_sharing,
    })
}

/// Parses a case from repro JSON text — either a full repro document
/// (as written by `expt fuzz`) or a bare case object.
pub fn case_from_json(text: &str) -> Result<FuzzCase, String> {
    let doc = Json::parse(text).map_err(|e| format!("repro JSON: {e}"))?;
    let case = doc.get("case").unwrap_or(&doc);
    let seed = match case.get("workload_seed") {
        Some(j) => match (j.as_str(), j.as_num()) {
            (Some(s), _) => s
                .parse::<u64>()
                .map_err(|e| format!("repro JSON: bad workload_seed: {e}"))?,
            (None, Some(n)) => n as u64,
            _ => return Err("repro JSON: bad workload_seed".to_string()),
        },
        None => return Err("repro JSON: missing workload_seed".to_string()),
    };
    Ok(FuzzCase {
        workload_seed: seed,
        horizon: get_u64(case, "horizon")?,
        snapshot_at: case
            .get("snapshot_at")
            .and_then(Json::as_num)
            .map(|v| v as u64)
            .filter(|&v| v > 0),
        spec: spec_from_json(
            case.get("spec")
                .ok_or_else(|| "repro JSON: missing spec".to_string())?,
        )?,
        config: config_from_json(
            case.get("config")
                .ok_or_else(|| "repro JSON: missing config".to_string())?,
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case() -> FuzzCase {
        let mut rng = StdRng::seed_from_u64(7);
        let mut case = gen_case(&mut rng, 0, true);
        case.horizon = 1_500;
        case.config.multipath_paths = 1;
        case
    }

    #[test]
    fn a_generated_case_runs_clean() {
        let report = run_case(&tiny_case()).expect("case runs");
        assert!(report.divergence.is_none(), "{:?}", report.divergence);
        assert!(report.commits > 0);
    }

    #[test]
    fn case_json_round_trips() {
        let case = tiny_case();
        let div = Divergence {
            commits: 42,
            what: "test".into(),
        };
        let text = repro_to_json(&case, &div).pretty();
        let back = case_from_json(&text).expect("parses");
        assert_eq!(back, case);
    }

    #[test]
    fn smt_cases_run_clean_under_every_sharing_mode() {
        for sharing in [
            RasSharing::Shared,
            RasSharing::Partitioned,
            RasSharing::Tagged { tag_bits: 1 },
        ] {
            let mut case = tiny_case();
            case.config.harts = 2;
            case.config.ras_sharing = sharing;
            let report = run_case(&case).expect("case runs");
            assert!(
                report.divergence.is_none(),
                "{sharing:?}: {:?}",
                report.divergence
            );
            assert!(report.commits > 0);
        }
    }

    #[test]
    fn smt_case_json_round_trips() {
        let mut case = tiny_case();
        case.config.harts = 2;
        case.config.ras_sharing = RasSharing::Tagged { tag_bits: 2 };
        let div = Divergence {
            commits: 1,
            what: "test".into(),
        };
        let text = repro_to_json(&case, &div).pretty();
        let back = case_from_json(&text).expect("parses");
        assert_eq!(back, case);
    }

    #[test]
    fn pre_smt_repro_files_default_to_one_hart() {
        let case = tiny_case();
        let div = Divergence {
            commits: 1,
            what: "test".into(),
        };
        // Strip the SMT keys to simulate a repro written before they
        // existed.
        let mut doc = repro_to_json(&case, &div);
        if let Json::Obj(top) = &mut doc {
            for (_, v) in top.iter_mut().filter(|(k, _)| k == "case") {
                if let Json::Obj(case_members) = v {
                    for (_, v2) in case_members.iter_mut().filter(|(k, _)| k == "config") {
                        if let Json::Obj(cfg) = v2 {
                            cfg.retain(|(key, _)| {
                                !["harts", "ras_sharing", "ras_tag_bits"].contains(&key.as_str())
                            });
                        }
                    }
                }
            }
        }
        let back = case_from_json(&doc.pretty()).expect("parses");
        assert_eq!(back.config.harts, 1);
        assert_eq!(back.config.ras_sharing, RasSharing::Shared);
    }

    #[test]
    fn snapshot_point_cases_run_clean() {
        for at in [1, 500, 1_499] {
            let mut case = tiny_case();
            case.snapshot_at = Some(at);
            let report = run_case(&case).expect("case runs");
            assert!(
                report.divergence.is_none(),
                "snapshot at {at}: {:?}",
                report.divergence
            );
            assert!(report.commits > 0);
        }
    }

    #[test]
    fn snapshot_point_round_trips_in_json_and_absent_means_none() {
        let mut case = tiny_case();
        case.snapshot_at = Some(321);
        let div = Divergence {
            commits: 1,
            what: "test".into(),
        };
        let back = case_from_json(&repro_to_json(&case, &div).pretty()).expect("parses");
        assert_eq!(back.snapshot_at, Some(321));

        // Pre-snapshot repro files have no snapshot_at key; 0 and
        // absent both mean straight-through.
        let mut doc = repro_to_json(&case, &div);
        if let Json::Obj(top) = &mut doc {
            for (_, v) in top.iter_mut().filter(|(k, _)| k == "case") {
                if let Json::Obj(members) = v {
                    members.retain(|(key, _)| key != "snapshot_at");
                }
            }
        }
        let back = case_from_json(&doc.pretty()).expect("parses");
        assert_eq!(back.snapshot_at, None);
    }

    /// The differential tier's reason to exist: an injected restore bug
    /// (resume drops every in-flight RAS checkpoint handle) must be
    /// caught, and the shrunken repro must keep its snapshot point —
    /// dropping it makes the divergence vanish, so the shrinker may not
    /// keep that move.
    #[test]
    fn injected_restore_bug_is_caught_and_shrinks_to_a_snapshot_repro() {
        // A pinned call- and mispredict-heavy case so branches with live
        // RAS checkpoint handles are certain to be in flight at the
        // snapshot point (a random tiny case may have none there, hiding
        // the fault).
        let case = FuzzCase {
            workload_seed: 0xDECAF,
            horizon: 1_500,
            spec: WorkloadSpec {
                name: "snapshot-fault".into(),
                functions: 12,
                call_depth: 4,
                filler: (2, 5),
                segments: (2, 4),
                call_prob: 0.4,
                indirect_frac: 0.2,
                hard_branch_prob: 0.35,
                hard_branch_takenness: 0.5,
                easy_branch_prob: 0.2,
                loop_prob: 0.1,
                loop_iters: (2, 5),
                mem_prob: 0.2,
                recursion_depth: 12,
                mutual_recursion: true,
                outer_iterations: 200,
                calls_in_main: 4,
                call_table_slots: 8,
                data_words: 65_536,
            },
            config: CaseConfig {
                ras_entries: 8,
                repair: RepairPolicy::TosPointerAndContents,
                checkpoint_budget: None,
                width: 4,
                ruu_size: 64,
                lsq_size: 16,
                fetch_queue: 8,
                decode_latency: 4,
                multipath_paths: 1,
                per_path_stacks: false,
                harts: 1,
                ras_sharing: RasSharing::Shared,
            },
            snapshot_at: Some(400),
        };
        hydra_pipeline::snapshot::test_faults::set_skip_ras_restore(true);
        let caught = run_case(&case).expect("case runs");
        let Some(d) = caught.divergence else {
            hydra_pipeline::snapshot::test_faults::set_skip_ras_restore(false);
            panic!("injected restore bug went undetected");
        };
        assert!(
            d.what.contains("snapshot"),
            "divergence should implicate the snapshot path: {}",
            d.what
        );
        let (minimized, min_div) = shrink(&case, &d, 60);
        hydra_pipeline::snapshot::test_faults::set_skip_ras_restore(false);
        assert!(
            minimized.snapshot_at.is_some(),
            "shrinking dropped the snapshot point the bug needs"
        );
        assert!(min_div.what.contains("snapshot"), "{}", min_div.what);
        // The healthy codec runs the minimized repro clean.
        let healthy = run_case(&minimized).expect("case runs");
        assert!(healthy.divergence.is_none(), "{:?}", healthy.divergence);
    }

    #[test]
    fn campaign_is_deterministic() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(gen_case(&mut a, 0, true), gen_case(&mut b, 0, true));
    }

    #[test]
    fn short_campaign_finds_no_divergence() {
        let outcome = fuzz(&FuzzOptions {
            cases: 3,
            seed: 99,
            quick: true,
            shrink_runs: 10,
        })
        .expect("campaign runs");
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        assert_eq!(outcome.cases_run, 3);
    }
}
