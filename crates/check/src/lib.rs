//! Differential-correctness subsystem for the HydraScalar reproduction.
//!
//! The optimized out-of-order pipeline is the artifact every experiment
//! measures — so its correctness has to be established against something
//! *simpler*, not against itself. This crate provides three layers of
//! ground truth:
//!
//! 1. [`RefSim`] — an in-order reference simulator built directly on the
//!    functional `hydra-isa` machine. It checks the pipeline's
//!    architectural commit stream instruction by instruction, and its
//!    unbounded call stack checks every committed return target.
//! 2. [`RefRas`] / [`RasOracle`] — naive, independently written models of
//!    the return-address stack and each repair policy the paper
//!    evaluates. They replay the pipeline's speculative stack events and
//!    diff the raw prediction at every return.
//! 3. [`fuzz`](fuzz()) — a seeded differential fuzzer that generates
//!    random workloads and machine configurations, runs the optimized
//!    pipeline against both references, and *shrinks* any divergence to
//!    a minimal JSON repro replayable with `expt fuzz --replay`.
//!
//! The pipeline side of the channel is `hydra-pipeline`'s event tap,
//! asked for its commit and RAS classes: always compiled, off until
//! enabled, and one branch per event site while off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fuzz;
mod refras;
mod refsim;

pub use fuzz::{
    case_from_json, fuzz, gen_case, repro_to_json, run_case, shrink, CaseConfig, CaseReport,
    FuzzCase, FuzzFailure, FuzzOptions, FuzzOutcome,
};
pub use refras::{RasOracle, RefCkpt, RefRas};
pub use refsim::RefSim;

/// A disagreement between the optimized pipeline and a reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Architectural commits checked before the disagreement surfaced
    /// (localizes the bug within a long run).
    pub commits: u64,
    /// Human-readable description of what disagreed.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "after {} commits: {}", self.commits, self.what)
    }
}
