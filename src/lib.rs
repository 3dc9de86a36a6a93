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
//! * [`bench`] (`hydra-bench`) — the experiment harness behind the
//!   `expt` binary, the repository's one command line: every table and
//!   figure of the paper as a registered experiment, single-configuration
//!   runs (`expt run`), and event traces of runs ([`trace`], a sink on
//!   the pipeline's event tap).
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
//! in-process: look one up by name, size it with a [`RunSpec`], and run
//! it with [`bench::run_experiment`]. Because the simulator is
//! deterministic, the result is a pure function of the experiment and
//! the run spec — the same document `expt --format json` writes.
//!
//! ```
//! use hydrascalar::bench::results::experiment_doc;
//! use hydrascalar::bench::{lookup, run_experiment};
//! use hydrascalar::RunSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let run = RunSpec::builder().seed(7).fast_forward(200).horizon(2_000).build();
//! let experiment = lookup("table1")?;
//!
//! // One worker is plenty here; the result is the same for any count.
//! let result = run_experiment(experiment.as_ref(), &run, 1);
//! assert!(result.table.render().contains("return-address stack"));
//!
//! let doc = experiment_doc(experiment.as_ref(), &run, &result);
//! assert_eq!(doc.get("experiment").and_then(|e| e.as_str()), Some("table1"));
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
pub use hydra_workloads as workloads;
pub use ras_core as ras;

pub use hydra_bench::{trace, RunSpec};
pub use hydra_isa::{Addr, FastCore, FunctionalCore, Inst, Machine, Program, ProgramBuilder, Reg};
pub use hydra_pipeline::{
    Core, CoreConfig, CoreConfigBuilder, CoreHandle, HartId, MultipathConfig, RasSharing,
    ReturnPredictor, SimStats, System,
};
pub use hydra_stats::Json;
pub use hydra_workloads::{DynamicProfile, Workload, WorkloadSpec};
pub use ras_core::{MultipathStackPolicy, RepairPolicy, ReturnAddressStack};
