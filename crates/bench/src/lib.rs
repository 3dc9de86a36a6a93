//! Experiment harness reproducing every table and figure of the paper's
//! evaluation.
//!
//! Each artifact of *"Improving Prediction for Procedure Returns with
//! Return-Address-Stack Repair Mechanisms"* (MICRO-31, 1998) is an
//! [`Experiment`]: a named unit that decomposes into independent
//! [`SimJob`]s (`plan()`) and harvests the outputs back into a rendered
//! [`hydra_stats::Table`] (`harvest()`). The [`registry`] lists them all;
//! the single `expt` binary fronts the registry:
//!
//! ```text
//! expt --list            # every experiment name + description
//! expt table1            # run one experiment
//! expt fig-repair table4 # run several
//! expt all --jobs 8      # run everything on 8 worker threads
//! ```
//!
//! The engine in [`engine`] fans jobs out over a worker pool and merges
//! results in submission order, so the tables printed by a parallel run
//! are **byte-identical** to a serial (`--jobs 1`) run; only the timing
//! summaries on stderr differ.
//!
//! Sizing is controlled by [`RunSpec`]: the paper fast-forwards past
//! initialization and then simulates a representative window; we do the
//! same with a fast-forward phase (machine state kept, statistics
//! dropped) followed by a measurement horizon. Build one explicitly:
//!
//! ```
//! use hydra_bench::RunSpec;
//!
//! let rs = RunSpec::builder()
//!     .seed(7)
//!     .fast_forward(2_000)
//!     .horizon(10_000)
//!     .build();
//! assert_eq!(rs.fast_forward, 2_000);
//! assert_eq!(rs.horizon, 10_000);
//! ```
//!
//! or from the environment with [`RunSpec::from_env`]
//! (`HYDRA_EXPT_MODE=quick` for smoke-sized runs, plus optional
//! `HYDRA_EXPT_SEED` / `HYDRA_EXPT_FAST_FORWARD` / `HYDRA_EXPT_HORIZON`
//! overrides).
//!
//! Results are structured, not just rendered: every experiment's table
//! carries typed cells, and the [`results`] module projects a run into
//! schema-versioned JSON or CSV documents through a
//! [`ResultSink`] (`expt --format json|csv|table`,
//! `expt --out <dir>`). The [`golden`] module diffs fresh documents
//! against committed quick-mode snapshots in `goldens/`
//! (`expt --check-golden`), which is what lets CI catch a silent
//! regression in the repair mechanisms as a structural result drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod experiments;
pub mod golden;
pub mod log;
pub mod perf;
pub mod report;
pub mod results;
pub mod sweep;
pub mod trace;

pub use engine::{
    execute, execute_traced, run_job, EngineReport, Harvest, JobKind, JobOutput, SimJob,
};
pub use error::Error;
pub use experiments::{
    find, lookup, registry, run_experiment, run_experiment_traced, Experiment, ExperimentRun,
};
pub use golden::{diff, GoldenError, Mismatch};
pub use report::{render_report, write_report};
pub use results::{Format, ResultSink, SCHEMA_VERSION};
pub use sweep::SweepExperiment;

use hydra_pipeline::ReturnPredictor;
use hydra_workloads::Workload;
use ras_core::RepairPolicy;

/// Simulation sizing: seed, fast-forward commits, measured commits.
///
/// The field names follow the paper's methodology vocabulary — and every
/// other surface of the harness: the `HYDRA_EXPT_FAST_FORWARD` /
/// `HYDRA_EXPT_HORIZON` environment overrides, the builder setters, and
/// the `fast_forward` / `horizon` keys in every result document's `run`
/// header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload-generation seed.
    pub seed: u64,
    /// Instructions committed before statistics are reset (the
    /// fast-forward phase).
    pub fast_forward: u64,
    /// Instructions committed in the measurement window (the horizon).
    pub horizon: u64,
}

impl RunSpec {
    /// Full-size runs used for EXPERIMENTS.md (about a million committed
    /// instructions per configuration).
    pub fn full() -> Self {
        RunSpec {
            seed: 12345,
            fast_forward: 100_000,
            horizon: 1_000_000,
        }
    }

    /// Reduced runs for benches and smoke tests.
    pub fn quick() -> Self {
        RunSpec {
            seed: 12345,
            fast_forward: 10_000,
            horizon: 60_000,
        }
    }

    /// A builder seeded with the [`RunSpec::full`] defaults.
    pub fn builder() -> RunSpecBuilder {
        RunSpecBuilder {
            spec: RunSpec::full(),
        }
    }

    /// Reads sizing from the environment.
    ///
    /// `HYDRA_EXPT_MODE` selects the base spec (`full` — the default —
    /// or `quick`); `HYDRA_EXPT_SEED`, `HYDRA_EXPT_FAST_FORWARD` and
    /// `HYDRA_EXPT_HORIZON` override individual fields. Malformed values
    /// are reported, not silently defaulted:
    ///
    /// # Errors
    ///
    /// [`RunSpecError::UnknownMode`] for a mode other than `full` /
    /// `quick`, [`RunSpecError::BadNumber`] for an override that does not
    /// parse as a `u64`.
    pub fn from_env() -> Result<Self, RunSpecError> {
        let mut spec = match env_str("HYDRA_EXPT_MODE")? {
            None => RunSpec::full(),
            Some(v) => match v.as_str() {
                "" | "full" => RunSpec::full(),
                "quick" => RunSpec::quick(),
                other => return Err(RunSpecError::UnknownMode(other.to_string())),
            },
        };
        spec.seed = env_u64("HYDRA_EXPT_SEED", spec.seed)?;
        spec.fast_forward = env_u64("HYDRA_EXPT_FAST_FORWARD", spec.fast_forward)?;
        spec.horizon = env_u64("HYDRA_EXPT_HORIZON", spec.horizon)?;
        Ok(spec)
    }
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec::full()
    }
}

/// Builds a [`RunSpec`] field by field; see [`RunSpec::builder`].
#[derive(Debug, Clone, Copy)]
pub struct RunSpecBuilder {
    spec: RunSpec,
}

impl RunSpecBuilder {
    /// Sets the workload-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the fast-forward phase length, in committed instructions.
    pub fn fast_forward(mut self, commits: u64) -> Self {
        self.spec.fast_forward = commits;
        self
    }

    /// Sets the measurement horizon, in committed instructions.
    pub fn horizon(mut self, commits: u64) -> Self {
        self.spec.horizon = commits;
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> RunSpec {
        self.spec
    }
}

/// Why [`RunSpec::from_env`] rejected the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunSpecError {
    /// `HYDRA_EXPT_MODE` was set to something other than `full`/`quick`.
    UnknownMode(String),
    /// A numeric override did not parse as a `u64`.
    BadNumber {
        /// The offending environment variable.
        var: &'static str,
        /// Its value as found.
        value: String,
        /// Parser's explanation.
        reason: String,
    },
    /// A variable was set but is not valid UTF-8.
    NotUnicode(&'static str),
}

impl std::fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSpecError::UnknownMode(m) => write!(
                f,
                "HYDRA_EXPT_MODE: unknown mode {m:?} (expected \"full\" or \"quick\")"
            ),
            RunSpecError::BadNumber { var, value, reason } => {
                write!(f, "{var}: cannot parse {value:?} as u64: {reason}")
            }
            RunSpecError::NotUnicode(var) => write!(f, "{var}: value is not valid UTF-8"),
        }
    }
}

impl std::error::Error for RunSpecError {}

fn env_str(var: &'static str) -> Result<Option<String>, RunSpecError> {
    match std::env::var(var) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(RunSpecError::NotUnicode(var)),
    }
}

fn env_u64(var: &'static str, default: u64) -> Result<u64, RunSpecError> {
    match env_str(var)? {
        None => Ok(default),
        Some(v) => v
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| RunSpecError::BadNumber {
                var,
                value: v.clone(),
                reason: e.to_string(),
            }),
    }
}

/// Generates the eight-benchmark suite for a run spec.
///
/// # Panics
///
/// Panics if generation fails (a bug in the built-in specs).
pub fn suite(rs: &RunSpec) -> Vec<Workload> {
    Workload::spec95_suite(rs.seed).expect("built-in suite generates")
}

/// The single-path return-predictor configurations the paper's evaluation
/// compares, in presentation order.
pub fn repair_ladder() -> Vec<(&'static str, ReturnPredictor)> {
    let ras = |repair| ReturnPredictor::Ras {
        entries: 32,
        repair,
    };
    vec![
        ("BTB only", ReturnPredictor::BtbOnly),
        ("no repair", ras(RepairPolicy::None)),
        ("valid bits", ras(RepairPolicy::ValidBits)),
        ("TOS pointer", ras(RepairPolicy::TosPointer)),
        ("TOS ptr+contents", ras(RepairPolicy::TosPointerAndContents)),
        ("full stack", ras(RepairPolicy::FullStack)),
        ("perfect", ReturnPredictor::Perfect),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunSpec {
        RunSpec {
            seed: 7,
            fast_forward: 2_000,
            horizon: 10_000,
        }
    }

    #[test]
    fn table1_lists_core_parameters() {
        let e = find("table1").expect("registered");
        let t = run_experiment(e.as_ref(), &tiny(), 1).table;
        let r = t.render();
        assert!(r.contains("RUU"));
        assert!(r.contains("64 entries"));
        assert!(r.contains("return-address stack"));
    }

    #[test]
    fn table2_has_all_benchmarks() {
        let e = find("table2").expect("registered");
        let t = run_experiment(e.as_ref(), &tiny(), 1).table;
        assert_eq!(t.row_count(), 8);
        assert!(t.render().contains("vortex"));
    }

    #[test]
    fn repair_ladder_order() {
        let ladder = repair_ladder();
        assert_eq!(ladder.len(), 7);
        assert_eq!(ladder[0].0, "BTB only");
        assert_eq!(ladder[6].0, "perfect");
    }

    #[test]
    fn runspec_modes() {
        assert!(RunSpec::quick().horizon < RunSpec::full().horizon);
        assert_eq!(RunSpec::default(), RunSpec::full());
    }

    #[test]
    fn runspec_builder_sets_every_field() {
        let rs = RunSpec::builder()
            .seed(99)
            .fast_forward(1_000)
            .horizon(5_000)
            .build();
        assert_eq!(
            rs,
            RunSpec {
                seed: 99,
                fast_forward: 1_000,
                horizon: 5_000
            }
        );
        // Defaults come from full().
        assert_eq!(RunSpec::builder().build(), RunSpec::full());
    }

    // One test exercises every from_env case sequentially: the process
    // environment is global, so splitting these across #[test] functions
    // would race under the parallel test runner.
    #[test]
    fn runspec_from_env_modes_overrides_and_errors() {
        let vars = [
            "HYDRA_EXPT_MODE",
            "HYDRA_EXPT_SEED",
            "HYDRA_EXPT_FAST_FORWARD",
            "HYDRA_EXPT_HORIZON",
        ];
        let saved: Vec<_> = vars.iter().map(|v| (v, std::env::var(v).ok())).collect();
        for v in vars {
            std::env::remove_var(v);
        }

        assert_eq!(RunSpec::from_env(), Ok(RunSpec::full()));

        std::env::set_var("HYDRA_EXPT_MODE", "quick");
        assert_eq!(RunSpec::from_env(), Ok(RunSpec::quick()));

        std::env::set_var("HYDRA_EXPT_SEED", "42");
        std::env::set_var("HYDRA_EXPT_HORIZON", "1234");
        let rs = RunSpec::from_env().expect("overrides parse");
        assert_eq!(rs.seed, 42);
        assert_eq!(rs.horizon, 1234);
        assert_eq!(rs.fast_forward, RunSpec::quick().fast_forward);

        std::env::set_var("HYDRA_EXPT_MODE", "warp-speed");
        assert_eq!(
            RunSpec::from_env(),
            Err(RunSpecError::UnknownMode("warp-speed".into()))
        );
        std::env::set_var("HYDRA_EXPT_MODE", "quick");

        std::env::set_var("HYDRA_EXPT_FAST_FORWARD", "lots");
        let err = RunSpec::from_env().expect_err("malformed number rejected");
        match &err {
            RunSpecError::BadNumber { var, value, .. } => {
                assert_eq!(*var, "HYDRA_EXPT_FAST_FORWARD");
                assert_eq!(value, "lots");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("HYDRA_EXPT_FAST_FORWARD"));

        for (v, val) in saved {
            match val {
                Some(s) => std::env::set_var(v, s),
                None => std::env::remove_var(v),
            }
        }
    }
}
