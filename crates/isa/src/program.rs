//! Executable program images.

use crate::{Addr, Inst};
use std::fmt;
use std::sync::OnceLock;

/// An executable program image: a flat word-addressed instruction memory
/// plus the size of the data segment it expects.
///
/// Programs are immutable once built (see
/// [`ProgramBuilder`](crate::ProgramBuilder)); the simulator fetches from
/// the image by [`Addr`], including down mispredicted paths.
///
/// # Examples
///
/// ```
/// use hydra_isa::{Addr, Inst, Program};
///
/// let p = Program::new(vec![Inst::Nop, Inst::Halt], 64);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.fetch(Addr::new(1)), Some(Inst::Halt));
/// assert_eq!(p.fetch(Addr::new(99)), None);
/// ```
#[derive(Clone)]
pub struct Program {
    instructions: Vec<Inst>,
    data_words: u64,
    /// [`Program::fingerprint`], computed on first use. A cache, not part
    /// of the image: equality and `Debug` ignore it.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.instructions == other.instructions && self.data_words == other.data_words
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("instructions", &self.instructions)
            .field("data_words", &self.data_words)
            .finish()
    }
}

impl Program {
    /// Creates a program from an instruction list and a data-segment size
    /// in words. Execution starts at [`Addr::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is empty or `data_words` is zero.
    pub fn new(instructions: Vec<Inst>, data_words: u64) -> Self {
        assert!(!instructions.is_empty(), "program must not be empty");
        assert!(data_words > 0, "data segment must be non-empty");
        Program {
            instructions,
            data_words,
            fingerprint: OnceLock::new(),
        }
    }

    /// Fetches the instruction at `addr`, or `None` past the image end.
    ///
    /// Wrong-path fetches past the end are possible in the simulator (a
    /// corrupted return-address stack can produce wild targets); callers
    /// treat `None` as a fetch of [`Inst::Nop`] that will be squashed.
    pub fn fetch(&self, addr: Addr) -> Option<Inst> {
        self.instructions.get(addr.word() as usize).copied()
    }

    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the image is empty (never true for a built program).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Size of the data segment in words.
    pub fn data_words(&self) -> u64 {
        self.data_words
    }

    /// Iterates over `(address, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Inst)> + '_ {
        self.instructions
            .iter()
            .enumerate()
            .map(|(i, &inst)| (Addr::new(i as u64), inst))
    }

    /// Counts instructions matching a predicate; handy for static workload
    /// statistics.
    pub fn count_matching(&self, mut pred: impl FnMut(&Inst) -> bool) -> usize {
        self.instructions.iter().filter(|i| pred(i)).count()
    }

    /// A stable 64-bit fingerprint of the program image (FNV-1a over the
    /// rendered instruction stream and the data-segment size).
    ///
    /// Snapshot/resume uses this to verify that the program supplied at
    /// resume time is the one the snapshot was taken against, without
    /// embedding the whole image in the snapshot.
    ///
    /// Hashing renders every instruction, so the value is computed on
    /// the first call and cached in this image (clones made afterwards
    /// carry it along).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        h.eat(&(self.instructions.len() as u64).to_le_bytes());
        h.eat(&self.data_words.to_le_bytes());
        for inst in &self.instructions {
            use std::fmt::Write as _;
            // Hashes the rendering as it is formatted, with no string
            // buffer in between.
            let _ = write!(h, "{inst:?}");
            h.eat(b";");
        }
        h.0
    }
}

/// FNV-1a state that text can be formatted into.
struct Fnv1a(u64);

impl Fnv1a {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = Program::new(vec![Inst::Nop, Inst::Return, Inst::Halt], 16);
        assert_eq!(p.fetch(Addr::ZERO), Some(Inst::Nop));
        assert_eq!(p.fetch(Addr::new(2)), Some(Inst::Halt));
        assert_eq!(p.fetch(Addr::new(3)), None);
        assert!(!p.is_empty());
        assert_eq!(p.data_words(), 16);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_program_panics() {
        let _ = Program::new(vec![], 16);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_data_panics() {
        let _ = Program::new(vec![Inst::Halt], 0);
    }

    #[test]
    fn cached_fingerprint_is_invisible_to_eq_and_debug() {
        let warm = Program::new(vec![Inst::Nop, Inst::Halt], 8);
        let cold = warm.clone();
        let fp = warm.fingerprint();
        assert_eq!(warm, cold);
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        assert_eq!(cold.fingerprint(), fp);
        assert_eq!(warm.clone().fingerprint(), fp);
    }

    #[test]
    fn iter_yields_addresses_in_order() {
        let p = Program::new(vec![Inst::Nop, Inst::Halt], 1);
        let v: Vec<_> = p.iter().collect();
        assert_eq!(v[0], (Addr::ZERO, Inst::Nop));
        assert_eq!(v[1], (Addr::new(1), Inst::Halt));
    }

    #[test]
    fn count_matching_counts() {
        let p = Program::new(
            vec![
                Inst::Call {
                    target: Addr::new(3),
                },
                Inst::Return,
                Inst::Halt,
                Inst::CallIndirect { rs: Reg::R1 },
            ],
            1,
        );
        assert_eq!(p.count_matching(|i| i.control_kind().is_call()), 2);
        assert_eq!(p.count_matching(|i| i.control_kind().is_return()), 1);
    }
}
