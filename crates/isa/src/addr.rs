//! Word-granular instruction addresses.

use std::fmt;

/// An instruction address, measured in 4-byte words.
///
/// The simulator's instruction memory is word-granular: `Addr(3)` is the
/// fourth instruction in the program image. Predictor index functions want
/// byte addresses (real hardware hashes byte PCs), so [`Addr::byte`]
/// exposes the conventional `word * 4` view.
///
/// # Examples
///
/// ```
/// use hydra_isa::Addr;
///
/// let pc = Addr::new(10);
/// assert_eq!(pc.word(), 10);
/// assert_eq!(pc.byte(), 40);
/// assert_eq!(pc.next(), Addr::new(11));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// The zero address (start of the image).
    pub const ZERO: Addr = Addr(0);

    /// Creates an address from a word index.
    pub fn new(word: u64) -> Self {
        Addr(word)
    }

    /// The word index.
    pub fn word(self) -> u64 {
        self.0
    }

    /// The byte address (`word * 4`), used by predictor hash functions.
    pub fn byte(self) -> u64 {
        self.0 * 4
    }

    /// The sequentially following instruction (the return address of a call
    /// at this address).
    pub fn next(self) -> Addr {
        Addr(self.0 + 1)
    }

    /// Offsets the address by `delta` words (may be negative).
    pub fn offset(self, delta: i64) -> Addr {
        Addr(self.0.wrapping_add(delta as u64))
    }
}

impl From<u64> for Addr {
    fn from(word: u64) -> Self {
        Addr(word)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.byte())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_byte_round_trip() {
        let a = Addr::new(7);
        assert_eq!(a.word(), 7);
        assert_eq!(a.byte(), 28);
    }

    #[test]
    fn next_is_plus_one_word() {
        assert_eq!(Addr::ZERO.next(), Addr::new(1));
    }

    #[test]
    fn offset_signed() {
        assert_eq!(Addr::new(10).offset(-3), Addr::new(7));
        assert_eq!(Addr::new(10).offset(5), Addr::new(15));
    }

    #[test]
    fn ordering_follows_word_index() {
        assert!(Addr::new(1) < Addr::new(2));
    }

    #[test]
    fn display_is_hex_byte_address() {
        assert_eq!(Addr::new(4).to_string(), "0x10");
    }
}
