//! Versioned binary snapshot codec.
//!
//! The simulator's full microarchitectural state — slab micro-ops, RUU and
//! LSQ index links, fetch queue, return-address stacks and their live
//! checkpoint handles, predictor tables, cache tags, and the architectural
//! machine — serializes to a self-describing byte buffer:
//!
//! ```text
//! +----------+---------+------+-----------------------------+----------+
//! | magic 8B | ver u32 | kind | tagged sections (len-prefix) | fnv64 8B |
//! +----------+---------+------+-----------------------------+----------+
//! ```
//!
//! All integers are little-endian. `kind` is 1 for a single [`Core`]
//! snapshot and 2 for a [`System`] (SMT) snapshot. The trailer is an
//! FNV-1a checksum over every preceding byte: FNV's XOR-then-multiply by
//! an odd prime is injective modulo 2^64, so *any* single flipped byte is
//! detected and surfaces as a typed [`SnapError`] — never a panic and
//! never a silently wrong simulator.
//!
//! The program image is **not** embedded; snapshots carry its
//! [`fingerprint`](hydra_isa::Program::fingerprint) and the resume caller
//! supplies the image. This keeps snapshots small (state, not code) and
//! makes stale-image mistakes loud.
//!
//! [`Core`]: crate::Core
//! [`System`]: crate::System

use crate::config::ConfigError;
use crate::path::{HartId, PathId};
use hydra_isa::Addr;
use hydra_obs::LostCause;
use std::collections::HashMap;
use std::fmt;

/// Current snapshot format version. Bumped on any incompatible layout
/// change; older or newer buffers are rejected with
/// [`SnapError::Version`] rather than misread.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Leading magic identifying a HydraScalar snapshot buffer.
pub(crate) const MAGIC: [u8; 8] = *b"HYDRSNAP";

/// Header `kind` byte for a single-core snapshot.
pub(crate) const KIND_CORE: u8 = 1;
/// Header `kind` byte for a multi-core/SMT system snapshot.
pub(crate) const KIND_SYSTEM: u8 = 2;

// Section tags. A core snapshot is the 0x10..0x80 sequence in ascending
// order; a system snapshot is TAG_SYSTEM, then per core the full engine
// sequence per hart followed by TAG_CORE_RAS, then one shared TAG_MEMORY.
pub(crate) const TAG_SYSTEM: u32 = 0x01;
pub(crate) const TAG_CONFIG: u32 = 0x10;
pub(crate) const TAG_ARCH: u32 = 0x20;
pub(crate) const TAG_PREDICTORS: u32 = 0x30;
pub(crate) const TAG_MEMORY: u32 = 0x40;
pub(crate) const TAG_RAS: u32 = 0x50;
pub(crate) const TAG_MACHINE: u32 = 0x60;
pub(crate) const TAG_STATS: u32 = 0x70;
pub(crate) const TAG_GOLDEN: u32 = 0x80;
pub(crate) const TAG_CORE_RAS: u32 = 0x90;

/// Why a snapshot buffer could not be decoded.
///
/// Every malformed input maps to one of these variants; the decoder never
/// panics on untrusted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The buffer ended before the decoder was done (or a length prefix
    /// claimed more bytes than remain).
    Truncated,
    /// The leading magic bytes are not `HYDRSNAP`; this is not a snapshot.
    BadMagic,
    /// The buffer's format version is not [`SNAPSHOT_VERSION`].
    Version {
        /// The version the buffer claimed.
        found: u32,
    },
    /// The buffer is structurally well-formed but semantically invalid;
    /// the payload names the first check that failed.
    Corrupt(&'static str),
    /// Decoding finished with bytes left over — the buffer was produced
    /// by a different writer or spliced.
    TrailingBytes,
    /// The caller's machine configuration is invalid (see
    /// [`CoreConfig::check`](crate::CoreConfig::check)); the snapshot
    /// bytes were not at fault.
    Config(ConfigError),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a HydraScalar snapshot (bad magic)"),
            SnapError::Version { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over `bytes`.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only encoder. Primitives are little-endian; sequences are
/// `u64` count followed by elements.
#[derive(Debug)]
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a buffer with the header for the given `kind`.
    pub(crate) fn new(kind: u8) -> Self {
        let mut w = SnapWriter {
            buf: Vec::with_capacity(4096),
        };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u8(kind);
        w
    }

    /// Appends the checksum trailer and yields the finished buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let sum = fnv64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a section tag followed by a byte-length prefix; call the
    /// returned closure-free API: write fields, then [`end_section`] with
    /// the returned mark to patch the length.
    ///
    /// [`end_section`]: SnapWriter::end_section
    pub(crate) fn begin_section(&mut self, tag: u32) -> usize {
        self.u32(tag);
        let mark = self.buf.len();
        self.u64(0); // placeholder, patched by end_section
        mark
    }

    /// Patches the length prefix written by [`SnapWriter::begin_section`].
    pub(crate) fn end_section(&mut self, mark: usize) {
        let len = (self.buf.len() - mark - 8) as u64;
        self.buf[mark..mark + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes one tagged, length-prefixed section with `body` as its
    /// contents.
    pub(crate) fn section(&mut self, tag: u32, body: impl FnOnce(&mut Self)) {
        let mark = self.begin_section(tag);
        body(self);
        self.end_section(mark);
    }

    /// A length-prefixed sequence: the count, then each element.
    pub(crate) fn seq<T: Snap>(&mut self, items: &[T]) {
        self.usize(items.len());
        for v in items {
            v.encode(self);
        }
    }

    /// A `u8` sequence with count prefix, copied in bulk (predictor
    /// tables are the bulk of a snapshot).
    pub(crate) fn seq_u8(&mut self, items: &[u8]) {
        self.usize(items.len());
        self.buf.extend_from_slice(items);
    }
}

/// Bounds-checked decoder over an untrusted byte buffer.
#[derive(Debug)]
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates magic, version, and trailer checksum; returns the reader
    /// positioned after the header plus the header's `kind` byte. The
    /// checksum trailer is excluded from the readable range.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<(Self, u8), SnapError> {
        // Header (8 + 4 + 1) plus trailer (8).
        if bytes.len() < 21 {
            return Err(if bytes.len() >= 8 && bytes[..8] != MAGIC {
                SnapError::BadMagic
            } else {
                SnapError::Truncated
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let mut trailer = [0u8; 8];
        trailer.copy_from_slice(&bytes[bytes.len() - 8..]);
        if fnv64(body) != u64::from_le_bytes(trailer) {
            return Err(SnapError::Corrupt("checksum mismatch"));
        }
        let mut r = SnapReader { buf: body, pos: 8 };
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::Version { found: version });
        }
        let kind = r.u8()?;
        Ok((r, kind))
    }

    /// Bytes left before the checksum trailer.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`SnapError::TrailingBytes`] unless fully consumed.
    pub(crate) fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes);
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, SnapError> {
        let mut b = [0u8; 16];
        b.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(b))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, SnapError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("count exceeds address space"))
    }

    /// Strict boolean: only 0 and 1 decode, anything else is corruption.
    pub(crate) fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("boolean out of range")),
        }
    }

    /// Reads a sequence count and sanity-checks it against the bytes
    /// remaining (`count * elem_min` must fit) so hostile counts cannot
    /// trigger huge allocations before the decode inevitably fails.
    pub(crate) fn seq_len(&mut self, elem_min: usize) -> Result<usize, SnapError> {
        let count = self.usize()?;
        let need = count
            .checked_mul(elem_min.max(1))
            .ok_or(SnapError::Truncated)?;
        if need > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(count)
    }

    /// Reads a sequence written by [`SnapWriter::seq`].
    pub(crate) fn seq<T: Snap>(&mut self) -> Result<Vec<T>, SnapError> {
        let n = self.seq_len(T::MIN_BYTES)?;
        self.items(n)
    }

    /// Reads `n` elements with no count prefix — a sequence whose count
    /// the caller already read and checked.
    pub(crate) fn items<T: Snap>(&mut self, n: usize) -> Result<Vec<T>, SnapError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }

    /// Reads a `u8` sequence written by [`SnapWriter::seq_u8`].
    pub(crate) fn seq_u8(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.seq_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a section header, checks the tag, and returns the position
    /// where the section must end; pair with
    /// [`SnapReader::end_section`].
    pub(crate) fn expect_section(&mut self, tag: u32) -> Result<usize, SnapError> {
        let found = self.u32()?;
        if found != tag {
            return Err(SnapError::Corrupt("section tag mismatch"));
        }
        let len = self.usize()?;
        let end = self.pos.checked_add(len).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        Ok(end)
    }

    /// Verifies the cursor landed exactly on the section boundary
    /// returned by [`SnapReader::expect_section`].
    pub(crate) fn end_section(&self, end: usize) -> Result<(), SnapError> {
        if self.pos != end {
            return Err(SnapError::Corrupt("section length mismatch"));
        }
        Ok(())
    }

    /// Reads one section written by [`SnapWriter::section`]: checks the
    /// tag, decodes the contents with `body`, and checks that `body`
    /// consumed exactly the section's length.
    pub(crate) fn section<T>(
        &mut self,
        tag: u32,
        body: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let end = self.expect_section(tag)?;
        let v = body(self)?;
        self.end_section(end)?;
        Ok(v)
    }
}

/// One serialized type's wire form, with the encoder and the decoder side
/// by side so they cannot drift apart.
///
/// Decoders validate as they read and fail with a typed [`SnapError`];
/// they never panic on untrusted bytes. State whose decode needs context
/// from the surrounding machine — a capacity to check, the program image,
/// the RAS unit a checkpoint handle belongs to — is not a `Snap` type but
/// a named function next to its encoder.
pub(crate) trait Snap: Sized {
    /// The fewest bytes one encoded value takes. Sequence decoders check
    /// `count × MIN_BYTES` against the bytes left, so a hostile count
    /// fails before it can drive a huge allocation.
    const MIN_BYTES: usize;

    /// Appends this value's wire form.
    fn encode(&self, w: &mut SnapWriter);

    /// Reads one value.
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError>;
}

macro_rules! snap_primitive {
    ($($t:ty => $method:ident, $bytes:literal;)*) => {$(
        impl Snap for $t {
            const MIN_BYTES: usize = $bytes;
            fn encode(&self, w: &mut SnapWriter) {
                w.$method(*self);
            }
            fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
                r.$method()
            }
        }
    )*};
}

// `usize` travels as a `u64` and `bool` as one strict byte.
snap_primitive! {
    u8 => u8, 1;
    u32 => u32, 4;
    u64 => u64, 8;
    u128 => u128, 16;
    i64 => i64, 8;
    usize => usize, 8;
    bool => bool, 1;
}

/// A `bool` tag, then the payload when present.
impl<T: Snap> Snap for Option<T> {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

/// A `u64` count, then the elements.
impl<T: Snap> Snap for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut SnapWriter) {
        w.seq(self);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        r.seq()
    }
}

/// A fixed-length array: the elements with no count.
impl<T: Snap + Default, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn encode(&self, w: &mut SnapWriter) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// An address as its word index.
impl Snap for Addr {
    const MIN_BYTES: usize = 8;
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.word());
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Addr::new(r.u64()?))
    }
}

/// A path as its `u32` index.
impl Snap for PathId {
    const MIN_BYTES: usize = 4;
    fn encode(&self, w: &mut SnapWriter) {
        w.u32(self.index() as u32);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(PathId::from_index(r.u32()? as usize))
    }
}

/// A hart as its `u8` index; range checks against the configured hart
/// count belong to the caller.
impl Snap for HartId {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut SnapWriter) {
        w.u8(self.index() as u8);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(HartId::new(r.u8()?))
    }
}

/// A CPI-stack cause as its index in [`LostCause::ALL`].
impl Snap for LostCause {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut SnapWriter) {
        w.u8(self.index() as u8);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        LostCause::ALL
            .get(r.u8()? as usize)
            .copied()
            .ok_or(SnapError::Corrupt("unknown lost cause"))
    }
}

/// Implements [`Snap`] for a struct whose wire form is the listed fields
/// in the listed order. The declared field types must match the struct's
/// (decode does not compile otherwise), and they give `MIN_BYTES`.
macro_rules! snap_struct {
    ($ty:path { $($field:ident: $fty:ty),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            const MIN_BYTES: usize =
                0 $(+ <$fty as $crate::snapshot::Snap>::MIN_BYTES)*;
            fn encode(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snapshot::Snap::encode(&self.$field, w);)*
            }
            fn decode(
                r: &mut $crate::snapshot::SnapReader,
            ) -> Result<Self, $crate::snapshot::SnapError> {
                Ok(Self {
                    $($field: <$fty as $crate::snapshot::Snap>::decode(r)?,)*
                })
            }
        }
    };
}
pub(crate) use snap_struct;

/// Implements [`Snap`] for an enum whose wire form is a `u8` tag, then
/// the variant's listed fields in order; an unlisted tag decodes as
/// `Corrupt($unknown)`. Struct variants list `{ name: Type, .. }`, tuple
/// variants `(name: Type, ..)`.
macro_rules! snap_enum {
    ($ty:ident, $unknown:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident: $fty:ty),* })?
            $(( $($tfield:ident: $tty:ty),* ))?),* $(,)?
    }) => {
        impl $crate::snapshot::Snap for $ty {
            const MIN_BYTES: usize = 1;
            fn encode(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($tfield),* ))? => {
                        w.u8($tag);
                        $($($crate::snapshot::Snap::encode($field, w);)*)?
                        $($($crate::snapshot::Snap::encode($tfield, w);)*)?
                    })*
                }
            }
            fn decode(
                r: &mut $crate::snapshot::SnapReader,
            ) -> Result<Self, $crate::snapshot::SnapError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant
                        $({ $($field: <$fty as $crate::snapshot::Snap>::decode(r)?),* })?
                        $(( $(<$tty as $crate::snapshot::Snap>::decode(r)?),* ))?,)*
                    _ => return Err($crate::snapshot::SnapError::Corrupt($unknown)),
                })
            }
        }
    };
}
pub(crate) use snap_enum;

/// Writes a `PathId`-keyed map as a count and then `(key, value)` pairs in
/// ascending key order, so equal maps give equal bytes whatever their
/// hash order.
pub(crate) fn encode_sorted_map<V>(
    w: &mut SnapWriter,
    map: &HashMap<PathId, V>,
    mut value: impl FnMut(&mut SnapWriter, &V),
) {
    let mut keys: Vec<PathId> = map.keys().copied().collect();
    keys.sort_unstable();
    w.usize(keys.len());
    for k in keys {
        k.encode(w);
        value(w, &map[&k]);
    }
}

/// Reads [`encode_sorted_map`] output. Keys that are not strictly
/// ascending are rejected as `Corrupt(unsorted)`; `value_min_bytes`
/// sizes the hostile-count guard.
pub(crate) fn decode_sorted_map<V>(
    r: &mut SnapReader,
    value_min_bytes: usize,
    unsorted: &'static str,
    mut value: impl FnMut(&mut SnapReader) -> Result<V, SnapError>,
) -> Result<HashMap<PathId, V>, SnapError> {
    let n = r.seq_len(PathId::MIN_BYTES + value_min_bytes)?;
    let mut map = HashMap::with_capacity(n);
    let mut prev = None;
    for _ in 0..n {
        let key = PathId::decode(r)?;
        if prev.is_some_and(|p| p >= key) {
            return Err(SnapError::Corrupt(unsorted));
        }
        prev = Some(key);
        map.insert(key, value(r)?);
    }
    Ok(map)
}

/// Test helper: encodes `v`, decodes it back, and checks that the decode
/// consumed every byte and that re-encoding the decoded value writes the
/// same bytes — the round-trip property every codec type must have.
#[cfg(test)]
pub(crate) fn assert_round_trip<T>(
    v: &T,
    encode: impl Fn(&mut SnapWriter, &T),
    decode: impl FnOnce(&mut SnapReader) -> Result<T, SnapError>,
) {
    let bytes = {
        let mut w = SnapWriter::new(KIND_CORE);
        encode(&mut w, v);
        w.finish()
    };
    let (mut r, _) = SnapReader::new(&bytes).expect("well-formed buffer");
    let back = decode(&mut r).expect("round trip decodes");
    r.expect_end().expect("decode consumed every byte");
    let mut w = SnapWriter::new(KIND_CORE);
    encode(&mut w, &back);
    assert_eq!(w.finish(), bytes, "re-encoding changed the bytes");
}

/// [`assert_round_trip`] through a type's [`Snap`] impl.
#[cfg(test)]
pub(crate) fn assert_snap_round_trip<T: Snap>(v: &T) {
    assert_round_trip(v, |w, v| v.encode(w), T::decode);
}

/// Test-only fault injection used by the differential fuzz tier to prove
/// it can catch a buggy restore path. Not part of the public API.
#[doc(hidden)]
pub mod test_faults {
    use std::cell::Cell;

    thread_local! {
        static SKIP_RAS_RESTORE: Cell<bool> = const { Cell::new(false) };
    }

    /// When set, `Core::resume` deliberately drops every in-flight RAS
    /// checkpoint handle instead of restoring it — simulating a restore
    /// bug the snapshot differential tier must detect.
    pub fn set_skip_ras_restore(on: bool) {
        SKIP_RAS_RESTORE.with(|f| f.set(on));
    }

    /// Whether the injected restore fault is active on this thread.
    pub fn skip_ras_restore() -> bool {
        SKIP_RAS_RESTORE.with(|f| f.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.u128(u128::MAX / 5);
        w.bool(true);
        w.bool(false);
        Some(9u64).encode(&mut w);
        None::<u64>.encode(&mut w);
        Some(-1i64).encode(&mut w);
        Some(33usize).encode(&mut w);
        w.seq(&[1u64, 2, 3]);
        w.seq_u8(&[4, 5]);
        let bytes = w.finish();

        let (mut r, kind) = SnapReader::new(&bytes).unwrap();
        assert_eq!(kind, KIND_CORE);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.u128().unwrap(), u128::MAX / 5);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
        assert_eq!(Option::<i64>::decode(&mut r).unwrap(), Some(-1));
        assert_eq!(Option::<usize>::decode(&mut r).unwrap(), Some(33));
        assert_eq!(r.seq::<u64>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.seq_u8().unwrap(), vec![4, 5]);
        r.expect_end().unwrap();
    }

    #[test]
    fn sections_nest_and_check() {
        let mut w = SnapWriter::new(KIND_SYSTEM);
        let m = w.begin_section(0x11);
        w.u64(5);
        w.end_section(m);
        let bytes = w.finish();

        let (mut r, kind) = SnapReader::new(&bytes).unwrap();
        assert_eq!(kind, KIND_SYSTEM);
        let end = r.expect_section(0x11).unwrap();
        assert_eq!(r.u64().unwrap(), 5);
        r.end_section(end).unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn wrong_tag_is_corrupt() {
        let mut w = SnapWriter::new(KIND_CORE);
        let m = w.begin_section(0x11);
        w.end_section(m);
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.expect_section(0x22), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SnapWriter::new(KIND_CORE).finish();
        bytes[0] = b'X';
        assert_eq!(SnapReader::new(&bytes).unwrap_err(), SnapError::BadMagic);
    }

    #[test]
    fn version_bump_rejected() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.u64(1);
        let mut bytes = w.finish();
        // Rewrite the version field and fix up the checksum so only the
        // version check can fire.
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapReader::new(&bytes).unwrap_err(),
            SnapError::Version {
                found: SNAPSHOT_VERSION + 1
            }
        );
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.u64(0x1234_5678_9abc_def0);
        w.seq_u8(&[1, 2, 3, 4]);
        let bytes = w.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                SnapReader::new(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_never_panics() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.seq(&[1u64, 2, 3]);
        let bytes = w.finish();
        for len in 0..bytes.len() {
            assert!(SnapReader::new(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn hostile_count_fails_before_allocating() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.u64(u64::MAX); // absurd sequence count
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert!(r.seq::<u64>().is_err());
    }

    #[test]
    fn strict_bool() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.u8(2);
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The generic wire shapes round-trip to the byte.
        #[test]
        fn generic_shapes_round_trip(
            a in proptest::any::<u8>(),
            b in proptest::any::<u32>(),
            c in proptest::any::<u64>(),
            d in proptest::any::<i64>(),
            e in proptest::any::<usize>(),
            f in proptest::any::<bool>(),
            g in proptest::any::<u64>(),
        ) {
            assert_snap_round_trip(&a);
            assert_snap_round_trip(&b);
            assert_snap_round_trip(&c);
            assert_snap_round_trip(&d);
            assert_snap_round_trip(&e);
            assert_snap_round_trip(&f);
            assert_snap_round_trip(&(u128::from(c) << 64 | u128::from(g)));
            assert_snap_round_trip(&f.then_some(d));
            assert_snap_round_trip(&vec![(b, a); a as usize % 5]);
            assert_snap_round_trip(&[c, g, d as u64]);
            assert_snap_round_trip(&(f, e, Some(a)));
            assert_snap_round_trip(&Addr::new(c));
            assert_snap_round_trip(&PathId::from_index(b as usize));
            assert_snap_round_trip(&HartId::new(a));
            assert_snap_round_trip(&LostCause::ALL[a as usize % LostCause::COUNT]);
        }
    }

    #[test]
    fn option_is_a_bool_tag_then_the_payload() {
        let mut w = SnapWriter::new(KIND_CORE);
        Some(7u64).encode(&mut w);
        None::<u64>.encode(&mut w);
        let bytes = w.finish();
        assert_eq!(&bytes[13..bytes.len() - 8], &[1, 7, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn sorted_map_rejects_unsorted_keys() {
        let map: HashMap<PathId, u64> = (0..5).map(|i| (PathId::from_index(i), i as u64)).collect();
        assert_round_trip(
            &map,
            |w, m| encode_sorted_map(w, m, |w, &v| w.u64(v)),
            |r| decode_sorted_map(r, 8, "unsorted", |r| r.u64()),
        );
        let mut w = SnapWriter::new(KIND_CORE);
        w.usize(2);
        for key in [3u32, 1] {
            w.u32(key);
            w.u64(0);
        }
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            decode_sorted_map(&mut r, 8, "unsorted", |r| r.u64()).unwrap_err(),
            SnapError::Corrupt("unsorted")
        );
    }

    #[test]
    fn unknown_lost_cause_is_corrupt() {
        let mut w = SnapWriter::new(KIND_CORE);
        w.u8(LostCause::COUNT as u8);
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            LostCause::decode(&mut r).unwrap_err(),
            SnapError::Corrupt("unknown lost cause")
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapError::Truncated.to_string().contains("truncated"));
        assert!(SnapError::BadMagic.to_string().contains("magic"));
        assert!(SnapError::Version { found: 9 }.to_string().contains('9'));
        assert!(SnapError::Corrupt("x").to_string().contains('x'));
        assert!(SnapError::TrailingBytes.to_string().contains("trailing"));
        assert!(SnapError::Config(ConfigError::EmptyRuu)
            .to_string()
            .contains("RUU"));
    }
}
