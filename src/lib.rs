//! HydraScalar reproduction — return-address-stack repair mechanisms.
//!
//! This is the facade crate of a from-scratch Rust reproduction of
//! *"Improving Prediction for Procedure Returns with Return-Address-Stack
//! Repair Mechanisms"* (Skadron, Ahuja, Martonosi, Clark — MICRO-31,
//! 1998). It re-exports the workspace's crates:
//!
//! * [`ras`] (`ras-core`) — the paper's contribution: the return-address
//!   stack and its repair mechanisms;
//! * [`isa`] (`hydra-isa`) — the MIPS-like virtual ISA, program builder,
//!   and functional emulator;
//! * [`bpred`] (`hydra-bpred`) — hybrid direction predictor, BTB,
//!   confidence estimation;
//! * [`mem`] (`hydra-mem`) — the two-level cache hierarchy;
//! * [`pipeline`] (`hydra-pipeline`) — the cycle-level out-of-order core
//!   with wrong-path execution and multipath forking, plus the
//!   multi-instance [`System`] (SMT / multi-core with a shared,
//!   partitioned, or tagged RAS);
//! * [`workloads`] (`hydra-workloads`) — the SPECint95-like synthetic
//!   benchmark suite;
//! * [`stats`] (`hydra-stats`) — counters and report tables;
//! * [`trace`] (`hydra-trace`) — zero-cost-when-off event tracing,
//!   metrics, and the leveled stderr logger (enable recording with the
//!   `trace` cargo feature);
//! * [`bench`] (`hydra-bench`) — the experiment harness behind the
//!   `expt` binary, the repository's one command line: every table and
//!   figure of the paper as a registered experiment, single-configuration
//!   runs (`expt run`), plus the typed programmatic API ([`Request`] /
//!   [`Response`]).
//!
//! The most commonly used types are also re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use hydrascalar::{Core, CoreConfig, ReturnPredictor, Workload, WorkloadSpec};
//! use hydrascalar::ras::RepairPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a benchmark and run it on two machines: an unrepaired
//! // stack and the paper's TOS-pointer+contents repair. Configurations
//! // are assembled with [`CoreConfig::builder`]; any field left unset
//! // keeps the paper's baseline value.
//! let workload = Workload::generate(&WorkloadSpec::test_small(), 42)?;
//!
//! let ras = |repair| {
//!     CoreConfig::builder()
//!         .return_predictor(ReturnPredictor::Ras { entries: 32, repair })
//!         .build()
//! };
//!
//! let broken = Core::new(ras(RepairPolicy::None), workload.program()).run(50_000);
//! let repaired = Core::new(ras(RepairPolicy::TosPointerAndContents), workload.program())
//!     .run(50_000);
//!
//! assert!(repaired.return_hit_rate().value() >= broken.return_hit_rate().value());
//! # Ok(())
//! # }
//! ```
//!
//! # Multi-instance machines (SMT / multi-core)
//!
//! A [`Core`] is one hardware thread. To model several, build a
//! [`System`]: N cores × M harts per core, sharing one memory hierarchy,
//! with each core's return-address stack run in one of three
//! [`RasSharing`] modes (`Shared`, `Partitioned`, or `Tagged`). A 1×1
//! `System` is bit-exact with a plain `Core`.
//!
//! ```
//! use hydrascalar::{CoreConfig, RasSharing, System, Workload, WorkloadSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two harts on one core, each running its own workload, with the
//! // 32-entry RAS statically partitioned between them.
//! let a = Workload::generate(&WorkloadSpec::test_small(), 1)?;
//! let b = Workload::generate(&WorkloadSpec::test_small(), 2)?;
//!
//! let config = CoreConfig::builder()
//!     .harts(2)
//!     .ras_sharing(RasSharing::Partitioned)
//!     .build();
//! let mut system = System::new(1, config, &[a.program(), b.program()]);
//!
//! let stats = system.run(20_000); // per-hart commit target
//! assert_eq!(stats.len(), 2);
//! for s in &stats {
//!     assert!(s.committed >= 20_000);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Programmatic experiment API
//!
//! The paper's tables and figures are registered experiments, runnable
//! in-process through a schema-versioned [`Request`] / [`Response`]
//! pair. A request is a pure value — (experiment name, run spec) — and
//! because the simulator is deterministic, the response is a pure
//! function of it.
//!
//! ```
//! use hydrascalar::bench::api::handle;
//! use hydrascalar::bench::RunSpec;
//! use hydrascalar::{Request, Response};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let run = RunSpec::builder().seed(7).fast_forward(200).horizon(2_000).build();
//! let request = Request::new("table1", run);
//!
//! // Run the experiment in-process (one worker is plenty here) and get
//! // back the same result document `expt --format json` writes.
//! let response = handle(&request, 1)?;
//! assert_eq!(response.experiment, "table1");
//! assert!(!response.title.is_empty());
//!
//! // Both documents round-trip losslessly.
//! assert_eq!(Response::from_json(&response.to_json()), Ok(response));
//! assert_eq!(Request::from_json(&request.to_json()), Ok(request));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hydra_bench as bench;
pub use hydra_bpred as bpred;
pub use hydra_isa as isa;
pub use hydra_mem as mem;
pub use hydra_pipeline as pipeline;
pub use hydra_stats as stats;
pub use hydra_trace as trace;
pub use hydra_workloads as workloads;
pub use ras_core as ras;

pub use hydra_bench::{Request, Response, RunSpec};
pub use hydra_isa::{Addr, FastCore, FunctionalCore, Inst, Machine, Program, ProgramBuilder, Reg};
pub use hydra_pipeline::{
    Core, CoreConfig, CoreConfigBuilder, CoreHandle, HartId, MultipathConfig, RasSharing,
    ReturnPredictor, SimStats, System,
};
pub use hydra_stats::Json;
pub use hydra_workloads::{DynamicProfile, Workload, WorkloadSpec};
pub use ras_core::{MultipathStackPolicy, RepairPolicy, ReturnAddressStack};
