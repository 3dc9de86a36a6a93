//! Instruction set definition: registers, ALU operations, branch
//! conditions, instructions, and fetch-visible control-flow classes.

use crate::Addr;
use std::fmt;

/// An architectural integer register, `r0`–`r31`.
///
/// `r0` is hardwired to zero (writes are discarded), `r31` is the link
/// register written by calls and read by returns, and `r29` is the stack
/// pointer by software convention.
///
/// # Examples
///
/// ```
/// use hydra_isa::Reg;
///
/// assert_eq!(Reg::ZERO.index(), 0);
/// assert_eq!(Reg::RA.index(), 31);
/// assert_eq!(Reg::gpr(5), Reg::R5);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 32;

    /// The hardwired zero register `r0`.
    pub const ZERO: Reg = Reg(0);
    /// General register `r1`.
    pub const R1: Reg = Reg(1);
    /// General register `r2`.
    pub const R2: Reg = Reg(2);
    /// General register `r3`.
    pub const R3: Reg = Reg(3);
    /// General register `r4`.
    pub const R4: Reg = Reg(4);
    /// General register `r5`.
    pub const R5: Reg = Reg(5);
    /// General register `r6`.
    pub const R6: Reg = Reg(6);
    /// General register `r7`.
    pub const R7: Reg = Reg(7);
    /// General register `r8`.
    pub const R8: Reg = Reg(8);
    /// The stack pointer `r29` (software convention).
    pub const SP: Reg = Reg(29);
    /// The link (return-address) register `r31`.
    pub const RA: Reg = Reg(31);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn gpr(index: u8) -> Reg {
        assert!(
            (index as usize) < Reg::COUNT,
            "register index {index} out of range"
        );
        Reg(index)
    }

    /// The register's index, `0..32`.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired-zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::ZERO => write!(f, "zero"),
            Reg::RA => write!(f, "ra"),
            Reg::SP => write!(f, "sp"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (long latency).
    Mul,
    /// Division; division by zero yields zero (long latency).
    Div,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `rhs & 63`.
    Sll,
    /// Logical shift right by `rhs & 63`.
    Srl,
    /// Set-if-less-than (signed): `1` if `lhs < rhs` else `0`.
    Slt,
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Slt => "slt",
        };
        f.write_str(s)
    }
}

/// Conditional-branch comparisons between two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Taken if `lhs == rhs`.
    Eq,
    /// Taken if `lhs != rhs`.
    Ne,
    /// Taken if `lhs < rhs` (signed).
    Lt,
    /// Taken if `lhs >= rhs` (signed).
    Ge,
    /// Taken if `lhs <= rhs` (signed).
    Le,
    /// Taken if `lhs > rhs` (signed).
    Gt,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
        };
        f.write_str(s)
    }
}

/// A single instruction.
///
/// The set is deliberately small but complete enough to express the
/// control-flow idioms that drive return-address-stack behaviour: direct
/// and indirect calls, architecturally-marked returns, conditional
/// branches whose outcome depends on computed data, and plain loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stops the machine; only the workload's final instruction.
    Halt,
    /// Three-register ALU operation: `rd = rs op rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Left source.
        rs: Reg,
        /// Right source.
        rt: Reg,
    },
    /// Register-immediate ALU operation: `rd = rs op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Left source.
        rs: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Load immediate: `rd = imm`.
    LoadImm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Load word: `rd = mem[rs + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
    },
    /// Store word: `mem[base + offset] = rs`.
    Store {
        /// Value register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
    },
    /// Conditional direct branch.
    Branch {
        /// Comparison.
        cond: Cond,
        /// Left comparand.
        rs: Reg,
        /// Right comparand.
        rt: Reg,
        /// Taken target.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target address.
        target: Addr,
    },
    /// Direct procedure call (`jal`): jumps to `target`, writes the return
    /// address (`pc + 1`) to [`Reg::RA`].
    Call {
        /// Callee entry point.
        target: Addr,
    },
    /// Indirect procedure call (`jalr`): jumps to the address in `rs`,
    /// writes the return address to [`Reg::RA`].
    CallIndirect {
        /// Register holding the callee address.
        rs: Reg,
    },
    /// Indirect jump (`jr`) that is *not* a return (e.g. a switch table).
    JumpIndirect {
        /// Register holding the target address.
        rs: Reg,
    },
    /// Procedure return (`jr ra`, architecturally marked): jumps to the
    /// address in [`Reg::RA`].
    Return,
}

/// The fetch-visible control-flow class of an instruction.
///
/// This is everything a fetch engine learns from pre-decode: where direct
/// targets point, which transfers are calls (push the return-address
/// stack), which are returns (pop it), and which need a BTB or RAS
/// prediction because the target is not in the instruction bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// Falls through to the next instruction.
    Sequential,
    /// Conditional direct branch with a known taken-target.
    CondBranch {
        /// Target if taken.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target.
        target: Addr,
    },
    /// Direct call: pushes `pc + 1`, jumps to `target`.
    Call {
        /// Callee entry.
        target: Addr,
    },
    /// Indirect call: pushes `pc + 1`; target must be predicted (BTB).
    IndirectCall,
    /// Non-return indirect jump; target must be predicted (BTB).
    IndirectJump,
    /// Return; target predicted by the return-address stack.
    Return,
    /// Program end.
    Halt,
}

impl ControlKind {
    /// Whether this instruction pushes the return-address stack.
    pub fn is_call(self) -> bool {
        matches!(self, ControlKind::Call { .. } | ControlKind::IndirectCall)
    }

    /// Whether this instruction pops the return-address stack.
    pub fn is_return(self) -> bool {
        matches!(self, ControlKind::Return)
    }

    /// Whether this is any control transfer (taken control flow possible).
    pub fn is_control(self) -> bool {
        !matches!(self, ControlKind::Sequential | ControlKind::Halt)
    }

    /// Whether the transfer is unconditional.
    pub fn is_unconditional(self) -> bool {
        matches!(
            self,
            ControlKind::Jump { .. }
                | ControlKind::Call { .. }
                | ControlKind::IndirectCall
                | ControlKind::IndirectJump
                | ControlKind::Return
        )
    }
}

/// The source registers of one instruction, stored inline (no heap).
///
/// Every instruction reads at most two registers, so a fixed `[Reg; 2]`
/// plus a length covers the whole ISA. Dereferences to `[Reg]`, so all
/// slice iteration and comparison idioms work unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcRegs {
    regs: [Reg; 2],
    len: u8,
}

impl SrcRegs {
    fn none() -> Self {
        SrcRegs {
            regs: [Reg::ZERO; 2],
            len: 0,
        }
    }

    fn one(a: Reg) -> Self {
        SrcRegs {
            regs: [a, Reg::ZERO],
            len: 1,
        }
    }

    fn two(a: Reg, b: Reg) -> Self {
        SrcRegs {
            regs: [a, b],
            len: 2,
        }
    }
}

impl std::ops::Deref for SrcRegs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a SrcRegs {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Inst {
    /// The fetch-visible control class of this instruction.
    pub fn control_kind(&self) -> ControlKind {
        match *self {
            Inst::Branch { target, .. } => ControlKind::CondBranch { target },
            Inst::Jump { target } => ControlKind::Jump { target },
            Inst::Call { target } => ControlKind::Call { target },
            Inst::CallIndirect { .. } => ControlKind::IndirectCall,
            Inst::JumpIndirect { .. } => ControlKind::IndirectJump,
            Inst::Return => ControlKind::Return,
            Inst::Halt => ControlKind::Halt,
            _ => ControlKind::Sequential,
        }
    }

    /// Source registers read by this instruction (at most two, in operand
    /// order). Reads of `r0` are included; it always supplies zero.
    ///
    /// Returns an inline fixed-capacity list — this sits on the fetch
    /// stage's per-instruction rename path, which must not heap-allocate.
    pub fn sources(&self) -> SrcRegs {
        match *self {
            Inst::Alu { rs, rt, .. } => SrcRegs::two(rs, rt),
            Inst::AluImm { rs, .. } => SrcRegs::one(rs),
            Inst::Load { base, .. } => SrcRegs::one(base),
            Inst::Store { rs, base, .. } => SrcRegs::two(rs, base),
            Inst::Branch { rs, rt, .. } => SrcRegs::two(rs, rt),
            Inst::CallIndirect { rs } | Inst::JumpIndirect { rs } => SrcRegs::one(rs),
            Inst::Return => SrcRegs::one(Reg::RA),
            _ => SrcRegs::none(),
        }
    }

    /// Destination register written by this instruction, if any. Writes to
    /// `r0` are reported as `None` (they are architecturally discarded).
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Alu { rd, .. } | Inst::AluImm { rd, .. } | Inst::LoadImm { rd, .. } => Some(rd),
            Inst::Load { rd, .. } => Some(rd),
            Inst::Call { .. } | Inst::CallIndirect { .. } => Some(Reg::RA),
            _ => None,
        };
        d.filter(|r| !r.is_zero())
    }

    /// Whether the instruction accesses data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// Whether the instruction is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// Whether the instruction is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// Whether the instruction is a long-latency integer operation
    /// (multiply or divide).
    pub fn is_long_latency(&self) -> bool {
        matches!(
            self,
            Inst::Alu {
                op: AluOp::Mul | AluOp::Div,
                ..
            } | Inst::AluImm {
                op: AluOp::Mul | AluOp::Div,
                ..
            }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::Alu { op, rd, rs, rt } => write!(f, "{op} {rd}, {rs}, {rt}"),
            Inst::AluImm { op, rd, rs, imm } => write!(f, "{op}i {rd}, {rs}, {imm}"),
            Inst::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Load { rd, base, offset } => write!(f, "lw {rd}, {offset}({base})"),
            Inst::Store { rs, base, offset } => write!(f, "sw {rs}, {offset}({base})"),
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => write!(f, "{cond} {rs}, {rt}, {target}"),
            Inst::Jump { target } => write!(f, "j {target}"),
            Inst::Call { target } => write!(f, "jal {target}"),
            Inst::CallIndirect { rs } => write!(f, "jalr {rs}"),
            Inst::JumpIndirect { rs } => write!(f, "jr {rs}"),
            Inst::Return => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_constants() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert!(Reg::ZERO.is_zero());
        assert_eq!(Reg::RA.index(), 31);
        assert_eq!(Reg::SP.index(), 29);
        assert!(!Reg::RA.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::gpr(32);
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg::ZERO.to_string(), "zero");
        assert_eq!(Reg::RA.to_string(), "ra");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::gpr(7).to_string(), "r7");
    }

    #[test]
    fn control_kind_classification() {
        let call = Inst::Call {
            target: Addr::new(4),
        };
        assert!(call.control_kind().is_call());
        assert!(call.control_kind().is_unconditional());
        assert!(Inst::Return.control_kind().is_return());
        assert!(!Inst::Nop.control_kind().is_control());
        assert!(Inst::Branch {
            cond: Cond::Eq,
            rs: Reg::R1,
            rt: Reg::R2,
            target: Addr::ZERO
        }
        .control_kind()
        .is_control());
        assert!(!Inst::Branch {
            cond: Cond::Eq,
            rs: Reg::R1,
            rt: Reg::R2,
            target: Addr::ZERO
        }
        .control_kind()
        .is_unconditional());
        assert!(Inst::CallIndirect { rs: Reg::R3 }.control_kind().is_call());
        assert!(!Inst::JumpIndirect { rs: Reg::R3 }.control_kind().is_call());
    }

    #[test]
    fn sources_and_dest() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rs: Reg::R1,
            rt: Reg::R2,
        };
        assert_eq!(&*i.sources(), [Reg::R1, Reg::R2]);
        assert_eq!(i.dest(), Some(Reg::R3));

        assert_eq!(&*Inst::Return.sources(), [Reg::RA]);
        assert_eq!(Inst::Return.dest(), None);

        let call = Inst::Call {
            target: Addr::new(1),
        };
        assert_eq!(call.dest(), Some(Reg::RA));
        assert!(call.sources().is_empty());
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let i = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs: Reg::R1,
            imm: 1,
        };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn memory_classification() {
        let ld = Inst::Load {
            rd: Reg::R1,
            base: Reg::SP,
            offset: 2,
        };
        let st = Inst::Store {
            rs: Reg::R1,
            base: Reg::SP,
            offset: 2,
        };
        assert!(ld.is_mem() && ld.is_load() && !ld.is_store());
        assert!(st.is_mem() && st.is_store() && !st.is_load());
        assert!(!Inst::Nop.is_mem());
    }

    #[test]
    fn long_latency_classification() {
        let mul = Inst::Alu {
            op: AluOp::Mul,
            rd: Reg::R1,
            rs: Reg::R1,
            rt: Reg::R2,
        };
        assert!(mul.is_long_latency());
        let add = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::R1,
            rs: Reg::R1,
            imm: 3,
        };
        assert!(!add.is_long_latency());
    }

    #[test]
    fn display_disassembly() {
        let i = Inst::Branch {
            cond: Cond::Ne,
            rs: Reg::R1,
            rt: Reg::ZERO,
            target: Addr::new(2),
        };
        assert_eq!(i.to_string(), "bne r1, zero, 0x8");
        assert_eq!(Inst::Return.to_string(), "ret");
    }
}
