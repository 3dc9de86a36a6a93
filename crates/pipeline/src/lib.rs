//! Cycle-level out-of-order pipeline simulator for the HydraScalar
//! reproduction.
//!
//! This crate reproduces the simulation substrate of *"Improving
//! Prediction for Procedure Returns with Return-Address-Stack Repair
//! Mechanisms"* (MICRO-31, 1998): HydraScalar, the authors' enhanced,
//! multipath-capable version of SimpleScalar's `sim-outorder`.
//!
//! The machine ([`Core`]) models, per the paper's Table 1:
//!
//! * a 4-wide fetch engine that predicts at fetch (hybrid direction
//!   predictor, decoupled BTB, return-address stack), fetches through
//!   not-taken branches, stops at taken ones, and — critically —
//!   **keeps fetching down mispredicted paths**, speculatively pushing
//!   and popping the return-address stack as it goes;
//! * a 64-entry register update unit (RUU) and 32-entry load/store queue,
//!   with renaming, store-to-load forwarding, and conservative memory
//!   disambiguation;
//! * branch resolution at writeback with checkpoint-based recovery:
//!   squash the continuation, repair the return-address stack under the
//!   configured [`ras_core::RepairPolicy`], redirect fetch;
//! * commit-time predictor training (wrong paths never train the
//!   predictor tables — only the RAS is speculatively updated, which is
//!   the paper's problem statement);
//! * optional **multipath execution**: forking at low-confidence
//!   branches into bounded path contexts, selective RUU squashing when
//!   branches resolve, and either a unified or per-path return-address
//!   stack ([`ras_core::MultipathStackPolicy`]).
//!
//! # Examples
//!
//! Measuring return-prediction hit rate on a generated workload:
//!
//! ```
//! use hydra_pipeline::{Core, CoreConfig};
//! use hydra_workloads::{Workload, WorkloadSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = Workload::generate(&WorkloadSpec::test_small(), 1)?;
//! let mut core = Core::new(CoreConfig::baseline(), w.program());
//! let stats = core.run(50_000);
//! assert!(stats.returns > 10);
//! assert!(stats.return_hit_rate().percent() > 50.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod event;
mod path;
mod ptrace;
mod ras_unit;
pub mod snapshot;
mod stats;
mod system;
mod uop;

pub use crate::core::{Core, Occupancy};
pub use config::{
    ConfigError, CoreConfig, CoreConfigBuilder, FuLatencies, MultipathConfig, RasSharing,
    ReturnPredictor,
};
pub use event::{Cache, Event, EventClass, EventMask, Stamped, UopStage};
pub use hydra_obs::{
    classify_return_mispredict, popflags, CauseHistogram, CpiStack, LostCause, MispredictCause,
};
pub use path::{HartId, PathId, PathTable};
pub use ptrace::{PipeTrace, UopRecord};
pub use ras_unit::{CkptHandle, RasUnit, RasUnitStats};
pub use snapshot::{SnapError, SNAPSHOT_VERSION};
pub use stats::{ReturnSource, SimStats};
pub use system::{CoreHandle, System};
