//! The functional (architectural) emulator.

use crate::semantics::{alu, branch_taken, effective_address};
use crate::{Addr, Inst, Program, Reg};
use std::error::Error;
use std::fmt;

/// Execution errors from the functional machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the instruction image. On the functional
    /// (always-correct-path) machine this is a program bug.
    PcOutOfRange {
        /// The offending program counter.
        pc: Addr,
    },
    /// [`Machine::step`] was called after the machine halted.
    Halted,
    /// [`Machine::run`] hit its instruction limit before halting.
    InstructionLimit {
        /// The limit that was reached.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            ExecError::Halted => write!(f, "machine is halted"),
            ExecError::InstructionLimit { limit } => {
                write!(f, "instruction limit of {limit} reached before halt")
            }
        }
    }
}

impl Error for ExecError {}

/// One architecturally retired instruction, as reported by
/// [`Machine::step`].
///
/// This is the golden record the cycle-level simulator's commit stream is
/// compared against, and what trace-level analyses (call-depth profiles,
/// branch statistics) consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Address of the retired instruction.
    pub pc: Addr,
    /// The instruction itself.
    pub inst: Inst,
    /// The architecturally correct next program counter.
    pub next_pc: Addr,
    /// For conditional branches, whether the branch was taken.
    pub taken: Option<bool>,
}

/// The architectural state a program runs on — registers, data memory,
/// program counter and the halted flag — plus the one interpreter of the
/// ISA's semantics, [`ArchState::execute`].
///
/// It owns no program, so a holder that also owns the image (the
/// cycle-level core's golden check) can keep one alongside it; the
/// [`Machine`] pairs it with a borrowed image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Architectural registers; `r0` always reads zero.
    pub regs: [i64; Reg::COUNT],
    /// Data memory, one word per entry.
    pub mem: Vec<i64>,
    /// Address of the next instruction to execute.
    pub pc: Addr,
    /// Whether a `halt` has executed.
    pub halted: bool,
}

/// What [`ArchState::execute`] did with one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executed {
    /// The architecturally correct next program counter.
    pub next_pc: Addr,
    /// For conditional branches, whether the branch was taken.
    pub taken: Option<bool>,
    /// The value computed for the destination register, if the
    /// instruction has one — reported even when the destination is `r0`
    /// and the write is discarded.
    pub dest_value: Option<i64>,
}

impl ArchState {
    /// Program-entry state: zeroed registers and `data_words` words of
    /// zeroed memory, PC at [`Addr::ZERO`].
    pub fn new(data_words: u64) -> Self {
        ArchState {
            regs: [0; Reg::COUNT],
            mem: vec![0; data_words as usize],
            pc: Addr::ZERO,
            halted: false,
        }
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index() as usize]
    }

    /// Writes an architectural register; writes to `r0` are discarded.
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Executes `inst` as the instruction at the current PC and advances
    /// the PC. `halt` sets the halted flag and leaves the PC in place.
    pub fn execute(&mut self, inst: Inst) -> Executed {
        let pc = self.pc;
        let data_words = self.mem.len() as u64;
        let mut next_pc = pc.next();
        let mut taken = None;
        let mut dest_value = None;
        match inst {
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Inst::Alu { op, rd, rs, rt } => {
                let v = alu(op, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
                dest_value = Some(v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = alu(op, self.reg(rs), imm);
                self.set_reg(rd, v);
                dest_value = Some(v);
            }
            Inst::LoadImm { rd, imm } => {
                self.set_reg(rd, imm);
                dest_value = Some(imm);
            }
            Inst::Load { rd, base, offset } => {
                let ea = effective_address(self.reg(base), offset, data_words);
                let v = self.mem[ea as usize];
                self.set_reg(rd, v);
                dest_value = Some(v);
            }
            Inst::Store { rs, base, offset } => {
                let ea = effective_address(self.reg(base), offset, data_words);
                self.mem[ea as usize] = self.reg(rs);
            }
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let t = branch_taken(cond, self.reg(rs), self.reg(rt));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Inst::Jump { target } => next_pc = target,
            Inst::Call { target } => {
                let ra = pc.next().word() as i64;
                self.set_reg(Reg::RA, ra);
                dest_value = Some(ra);
                next_pc = target;
            }
            Inst::CallIndirect { rs } => {
                next_pc = Addr::new(self.reg(rs) as u64);
                let ra = pc.next().word() as i64;
                self.set_reg(Reg::RA, ra);
                dest_value = Some(ra);
            }
            Inst::JumpIndirect { rs } => next_pc = Addr::new(self.reg(rs) as u64),
            Inst::Return => next_pc = Addr::new(self.reg(Reg::RA) as u64),
        }
        self.pc = next_pc;
        Executed {
            next_pc,
            taken,
            dest_value,
        }
    }
}

/// The functional emulator: executes a [`Program`] one instruction at a
/// time with exact architectural semantics and no speculation.
///
/// The out-of-order pipeline uses the same [`semantics`](crate::semantics)
/// functions, so a correct pipeline retires exactly the sequence this
/// machine produces — an invariant the integration tests assert.
///
/// # Examples
///
/// ```
/// use hydra_isa::{Machine, ProgramBuilder, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// b.load_imm(Reg::R1, 41);
/// b.alu_imm(hydra_isa::AluOp::Add, Reg::R1, Reg::R1, 1);
/// b.halt();
/// let program = b.build()?;
/// let mut m = Machine::new(&program);
/// m.run(10)?;
/// assert_eq!(m.reg(Reg::R1), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    state: ArchState,
    retired: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine at the program entry with zeroed registers and
    /// memory.
    pub fn new(program: &'p Program) -> Self {
        Machine {
            program,
            state: ArchState::new(program.data_words()),
            retired: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> Addr {
        self.state.pc
    }

    /// Whether the machine has executed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.state.halted
    }

    /// Number of instructions retired so far.
    pub fn retired_count(&self) -> u64 {
        self.retired
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> i64 {
        self.state.reg(r)
    }

    /// Writes an architectural register; writes to `r0` are discarded.
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        self.state.set_reg(r, value);
    }

    /// Reads a data-memory word (index wrapped into the data segment).
    pub fn mem_word(&self, index: u64) -> i64 {
        let mem = &self.state.mem;
        mem[(index % mem.len() as u64) as usize]
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Executes one instruction and reports what retired.
    ///
    /// The `halt` instruction itself retires normally (it counts toward
    /// [`retired_count`](Machine::retired_count) and any run limit) and
    /// freezes the PC in place: its [`Retired::next_pc`] equals its own
    /// PC. A control transfer may set a PC outside the image without
    /// error; the wild fetch is only detected — and reported with that
    /// PC — on the *next* call.
    ///
    /// These semantics are part of the [`FunctionalCore`] contract and
    /// are replicated exactly by [`FastCore`] (pinned by the lock-step
    /// differential suite in `tests/fastcore_diff.rs`).
    ///
    /// [`FunctionalCore`]: crate::FunctionalCore
    /// [`FastCore`]: crate::FastCore
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Halted`] if the machine already halted, or
    /// [`ExecError::PcOutOfRange`] if the program counter left the image
    /// (a malformed program).
    pub fn step(&mut self) -> Result<Retired, ExecError> {
        if self.state.halted {
            return Err(ExecError::Halted);
        }
        let pc = self.state.pc;
        let inst = self
            .program
            .fetch(pc)
            .ok_or(ExecError::PcOutOfRange { pc })?;
        let done = self.state.execute(inst);
        self.retired += 1;
        Ok(Retired {
            pc,
            inst,
            next_pc: done.next_pc,
            taken: done.taken,
        })
    }

    /// Runs until `halt`, retiring at most `limit` instructions.
    ///
    /// Returns the number of instructions retired by this call.
    ///
    /// Edge cases, pinned by `run_limit_is_an_error` below and identical
    /// in [`FastCore`](crate::FastCore):
    ///
    /// * reaching `limit` without halting is an **error**, even though
    ///   the `limit` instructions did retire —
    ///   [`retired_count`](Machine::retired_count) still advances;
    /// * a `halt` that is exactly the `limit`-th instruction is `Ok`
    ///   (the halt retires within the budget);
    /// * `run(0)` is `Ok(0)` on an already-halted machine and
    ///   `Err(InstructionLimit { limit: 0 })` on a running one.
    ///
    /// For a batch variant where exhausting the budget is *not* an
    /// error, use [`FunctionalCore::advance`](crate::FunctionalCore).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InstructionLimit`] if the limit is reached
    /// before the program halts, or propagates [`ExecError::PcOutOfRange`].
    pub fn run(&mut self, limit: u64) -> Result<u64, ExecError> {
        let mut count = 0;
        while !self.state.halted {
            if count == limit {
                return Err(ExecError::InstructionLimit { limit });
            }
            self.step()?;
            count += 1;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond, ProgramBuilder};

    fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        b.build().unwrap()
    }

    #[test]
    fn arithmetic_and_halt() {
        let p = build(|b| {
            b.load_imm(Reg::R1, 6);
            b.load_imm(Reg::R2, 7);
            b.alu(AluOp::Mul, Reg::R3, Reg::R1, Reg::R2);
            b.halt();
        });
        let mut m = Machine::new(&p);
        let n = m.run(10).unwrap();
        assert_eq!(n, 4);
        assert_eq!(m.reg(Reg::R3), 42);
        assert!(m.is_halted());
        assert_eq!(m.retired_count(), 4);
    }

    #[test]
    fn step_after_halt_errors() {
        let p = build(|b| {
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(1).unwrap();
        assert_eq!(m.step(), Err(ExecError::Halted));
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let p = build(|b| {
            b.load_imm(Reg::ZERO, 99);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn call_and_return_round_trip() {
        let p = build(|b| {
            let f = b.fresh_label();
            b.call(f); // 0
            b.load_imm(Reg::R2, 1); // 1  (return lands here)
            b.halt(); // 2
            b.bind(f).unwrap();
            b.load_imm(Reg::R1, 5); // 3
            b.ret(); // 4
        });
        let mut m = Machine::new(&p);
        let call = m.step().unwrap();
        assert_eq!(call.next_pc, Addr::new(3));
        assert_eq!(m.reg(Reg::RA), 1);
        m.step().unwrap(); // load_imm in callee
        let ret = m.step().unwrap();
        assert_eq!(ret.inst, Inst::Return);
        assert_eq!(ret.next_pc, Addr::new(1));
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::R1), 5);
        assert_eq!(m.reg(Reg::R2), 1);
    }

    #[test]
    fn indirect_call_through_table() {
        let p = build(|b| {
            let f = b.fresh_label();
            b.load_label_addr(Reg::R4, f);
            b.call_indirect(Reg::R4);
            b.halt();
            b.bind(f).unwrap();
            b.load_imm(Reg::R1, 9);
            b.ret();
        });
        let mut m = Machine::new(&p);
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::R1), 9);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let p = build(|b| {
            let skip = b.fresh_label();
            b.load_imm(Reg::R1, 1);
            b.branch(Cond::Eq, Reg::R1, Reg::ZERO, skip); // not taken
            b.load_imm(Reg::R2, 7);
            b.branch(Cond::Ne, Reg::R1, Reg::ZERO, skip); // taken
            b.load_imm(Reg::R2, 100); // skipped
            b.bind(skip).unwrap();
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.step().unwrap();
        let nt = m.step().unwrap();
        assert_eq!(nt.taken, Some(false));
        m.step().unwrap();
        let t = m.step().unwrap();
        assert_eq!(t.taken, Some(true));
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::R2), 7);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let p = build(|b| {
            b.load_imm(Reg::R1, 1234);
            b.load_imm(Reg::R2, 10);
            b.store(Reg::R1, Reg::R2, 5);
            b.load(Reg::R3, Reg::R2, 5);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::R3), 1234);
        assert_eq!(m.mem_word(15), 1234);
    }

    #[test]
    fn recursion_depth_three() {
        // r1 counts down; recursive calls until r1 == 0.
        let p = build(|b| {
            let f = b.fresh_label();
            let base = b.fresh_label();
            b.load_imm(Reg::R1, 3);
            b.call(f);
            b.halt();
            b.bind(f).unwrap();
            b.branch(Cond::Eq, Reg::R1, Reg::ZERO, base);
            b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
            // save ra on the software stack
            b.alu_imm(AluOp::Add, Reg::SP, Reg::SP, 1);
            b.store(Reg::RA, Reg::SP, 0);
            b.call(f);
            b.load(Reg::RA, Reg::SP, 0);
            b.alu_imm(AluOp::Sub, Reg::SP, Reg::SP, 1);
            b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1); // count unwinds
            b.bind(base).unwrap();
            b.ret();
        });
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::R2), 3);
    }

    #[test]
    fn run_limit_is_an_error() {
        let p = build(|b| {
            let spin = b.fresh_label();
            b.bind(spin).unwrap();
            b.jump(spin);
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.run(10), Err(ExecError::InstructionLimit { limit: 10 }));
        assert_eq!(m.retired_count(), 10);
        // run(0) on a machine that has not halted is also a limit error.
        assert_eq!(m.run(0), Err(ExecError::InstructionLimit { limit: 0 }));
    }

    #[test]
    fn run_limit_edge_cases_around_halt() {
        // A halt that is exactly the limit-th instruction still succeeds.
        let p = build(|b| {
            b.nop();
            b.halt();
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.run(2), Ok(2));
        assert_eq!(m.retired_count(), 2);
        // Once halted, any budget (including zero) is trivially met.
        assert_eq!(m.run(0), Ok(0));
        assert_eq!(m.run(100), Ok(0));
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let p = build(|b| {
            b.load_imm(Reg::R1, 999);
            b.jump_indirect(Reg::R1);
        });
        let mut m = Machine::new(&p);
        m.step().unwrap();
        m.step().unwrap(); // jr lands at 999
        assert_eq!(
            m.step(),
            Err(ExecError::PcOutOfRange { pc: Addr::new(999) })
        );
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!ExecError::Halted.to_string().is_empty());
        assert!(ExecError::PcOutOfRange { pc: Addr::new(1) }
            .to_string()
            .contains("0x4"));
        assert!(ExecError::InstructionLimit { limit: 5 }
            .to_string()
            .contains('5'));
    }
}
