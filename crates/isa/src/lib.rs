//! A small MIPS-like virtual instruction set for the HydraScalar
//! reproduction.
//!
//! The MICRO-31 1998 paper runs SPECint95 on a MIPS-IV-like virtual ISA via
//! SimpleScalar. This crate provides the equivalent substrate:
//!
//! * the instruction set itself ([`Inst`], [`AluOp`], [`Cond`]),
//! * word-granular addresses ([`Addr`]) and registers ([`Reg`]),
//! * pure, storage-independent semantics ([`semantics`]) shared by the
//!   functional emulator and the out-of-order pipeline,
//! * a label-based [`ProgramBuilder`] that the synthetic workload
//!   generators assemble programs with, and
//! * a functional [`Machine`] emulator — the architectural golden model
//!   the cycle-level simulator is checked against.
//!
//! Control transfers are exposed through [`ControlKind`] exactly the way a
//! fetch engine sees them: calls and returns are architecturally visible
//! (as on Alpha/MIPS, `jal` / `jr $ra`), which is what lets a
//! return-address stack pair them up.
//!
//! # Examples
//!
//! ```
//! use hydra_isa::{AluOp, Machine, ProgramBuilder, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let leaf = b.fresh_label();
//! // main: call leaf; halt
//! b.call(leaf);
//! b.halt();
//! // leaf: r1 = r0 + 7; return
//! b.bind(leaf)?;
//! b.alu_imm(AluOp::Add, Reg::R1, Reg::ZERO, 7);
//! b.ret();
//! let program = b.build()?;
//!
//! let mut m = Machine::new(&program);
//! m.run(100)?;
//! assert_eq!(m.reg(Reg::R1), 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod asm;
mod builder;
mod fastcore;
mod inst;
mod machine;
mod predecode;
mod program;
pub mod semantics;

pub use addr::Addr;
pub use builder::{BuildError, Label, ProgramBuilder};
pub use fastcore::{FastCore, FunctionalCore};
pub use inst::{AluOp, Cond, ControlKind, Inst, Reg};
pub use machine::{ArchState, ExecError, Executed, Machine, Retired};
pub use predecode::{MicroOp, Predecoded, REG_SINK};
pub use program::Program;
