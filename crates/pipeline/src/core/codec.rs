//! The core's snapshot codec.
//!
//! Encode order is CONFIG, ARCH, PREDICTORS, MEMORY, RAS, MACHINE, STATS,
//! GOLDEN. Structure (slab capacity, table geometry, queue bounds) derives
//! from the CONFIG section, so decoding builds a fresh `Core::new` and loads
//! state *in place*: every allocation invariant the constructor establishes
//! (slab capacity, reserved wakeup lists, bounded queues) survives a resume,
//! which is what makes resumed runs byte-identical to straight-through ones.
//!
//! Every serialized type has one [`Snap`] impl with its encoder and decoder
//! side by side. State whose decode needs the surrounding machine — a
//! capacity to check, the program image, the RAS unit that owns a
//! checkpoint handle — is a pair of named functions instead.
//!
//! The instruction of each slab micro-op is NOT serialized — only its PC and
//! `wild` flag are, and decode re-derives the instruction from the program
//! image. Free slab slots may therefore decode with a different (stale)
//! instruction than the donor held, which is harmless: `Uop::reset`
//! overwrites every field before a recycled slot is ever read, and since the
//! instruction is never encoded, re-snapshotting still produces identical
//! bytes.

use super::{Core, Lsq, LsqEntry, MapEntry, PathCtx};
use crate::config::{CoreConfig, FuLatencies, MultipathConfig, RasSharing, ReturnPredictor};
use crate::path::{HartId, PathId, PathTable};
use crate::ras_unit::RasUnit;
use crate::snapshot::{
    snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter, KIND_CORE, KIND_SYSTEM,
    TAG_ARCH, TAG_CONFIG, TAG_GOLDEN, TAG_MACHINE, TAG_MEMORY, TAG_PREDICTORS, TAG_RAS, TAG_STATS,
};
use crate::stats::{ReturnSource, SimStats};
use crate::uop::{Src, Uop, UopState, NIL};
use hydra_bpred::{BtbConfig, ConfidenceConfig, DirectionPrediction, HybridConfig, HybridState};
use hydra_isa::{Addr, Inst, Program, Reg};
use hydra_mem::{Cache, CacheConfig, CacheStats, HierarchyConfig, MemoryHierarchy};
use hydra_obs::{CpiStack, LostCause};
use hydra_stats::Histogram;
use ras_core::{MultipathStackPolicy, RepairPolicy};

// --- configuration --------------------------------------------------------

snap_struct!(CacheConfig {
    sets: usize,
    ways: usize,
    line_words: u64,
});

snap_struct!(HybridConfig {
    global_history_bits: u32,
    local_history_entries: usize,
    local_history_bits: u32,
    chooser_bits: u32,
});

snap_struct!(BtbConfig {
    sets: usize,
    ways: usize,
});

snap_struct!(ConfidenceConfig {
    entries: usize,
    counter_bits: u32,
    threshold: u8,
});

snap_struct!(HierarchyConfig {
    l1i: CacheConfig,
    l1d: CacheConfig,
    l2: CacheConfig,
    l1_latency: u64,
    l2_latency: u64,
    memory_latency: u64,
});

snap_struct!(FuLatencies {
    alu: u64,
    mul: u64,
    div: u64,
    branch: u64,
    agen: u64,
});

snap_struct!(MultipathConfig {
    max_paths: usize,
    stack_policy: MultipathStackPolicy,
});

snap_struct!(CoreConfig {
    fetch_width: usize,
    dispatch_width: usize,
    issue_width: usize,
    commit_width: usize,
    ruu_size: usize,
    lsq_size: usize,
    fetch_queue: usize,
    decode_latency: u64,
    return_predictor: ReturnPredictor,
    checkpoint_budget: Option<usize>,
    hybrid: HybridConfig,
    btb: BtbConfig,
    confidence: ConfidenceConfig,
    mem: HierarchyConfig,
    latencies: FuLatencies,
    multipath: Option<MultipathConfig>,
    harts: u8,
    ras_sharing: RasSharing,
});

snap_enum!(ReturnPredictor, "unknown return predictor" {
    0 => Ras { entries: usize, repair: RepairPolicy },
    1 => SelfCheckpointing { entries: usize },
    2 => BtbOnly,
    3 => Perfect,
});

snap_enum!(MultipathStackPolicy, "unknown multipath stack policy" {
    0 => Unified { repair: RepairPolicy },
    1 => PerPath,
});

snap_enum!(RasSharing, "unknown RAS sharing policy" {
    0 => Shared,
    1 => Partitioned,
    2 => Tagged { tag_bits: u8 },
});

// --- predictors, caches and statistics ------------------------------------

/// The direction-predictor tables travel as bulk byte sequences.
impl Snap for HybridState {
    const MIN_BYTES: usize = 40;
    fn encode(&self, w: &mut SnapWriter) {
        w.seq_u8(&self.gag);
        w.seq(&self.pag_histories);
        w.seq_u8(&self.pag_pht);
        w.seq_u8(&self.chooser);
        w.u64(self.global_history);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(HybridState {
            gag: r.seq_u8()?,
            pag_histories: r.seq()?,
            pag_pht: r.seq_u8()?,
            chooser: r.seq_u8()?,
            global_history: r.u64()?,
        })
    }
}

impl Snap for DirectionPrediction {
    const MIN_BYTES: usize = 4 + 4 * 8;
    fn encode(&self, w: &mut SnapWriter) {
        w.bool(self.taken);
        w.bool(self.gag_taken);
        w.bool(self.pag_taken);
        w.bool(self.chose_gag);
        let (gag, pag, chooser, local) = self.index_parts();
        [gag, pag, chooser, local].encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let [taken, gag_taken, pag_taken, chose_gag] = <[bool; 4]>::decode(r)?;
        let [gag, pag, chooser, local] = <[usize; 4]>::decode(r)?;
        Ok(DirectionPrediction::from_snapshot_parts(
            taken, gag_taken, pag_taken, chose_gag, gag, pag, chooser, local,
        ))
    }
}

snap_struct!(CacheStats {
    accesses: u64,
    hits: u64,
});

snap_struct!(SimStats {
    cycles: u64,
    committed: u64,
    fetched_uops: u64,
    squashed_uops: u64,
    cond_branches: u64,
    cond_mispredictions: u64,
    target_mispredictions: u64,
    calls: u64,
    returns: u64,
    return_hits: u64,
    return_hits_ras: u64,
    return_hits_btb: u64,
    return_no_prediction: u64,
    ras_pushes: u64,
    ras_pops: u64,
    ras_overflows: u64,
    ras_underflows: u64,
    ras_restores: u64,
    checkpoint_budget_misses: u64,
    forks: u64,
    max_live_paths: u64,
    l1i_accesses: u64,
    l1i_hits: u64,
    l1d_accesses: u64,
    l1d_hits: u64,
});

/// Lost commit slots per cause, in [`LostCause::ALL`] order.
impl Snap for CpiStack {
    const MIN_BYTES: usize = 8 * LostCause::COUNT;
    fn encode(&self, w: &mut SnapWriter) {
        for cause in LostCause::ALL {
            w.u64(self.get(cause));
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut cpi = CpiStack::default();
        for cause in LostCause::ALL {
            cpi.charge(cause, r.u64()?);
        }
        Ok(cpi)
    }
}

/// A cache's tag state, restored in place so its geometry is checked
/// against the configured one.
fn encode_cache(w: &mut SnapWriter, c: &Cache) {
    let (sets, clock, stats) = c.snapshot_state();
    w.seq(&sets);
    w.u64(clock);
    stats.encode(w);
}

fn decode_cache(r: &mut SnapReader, c: &mut Cache) -> Result<(), SnapError> {
    let sets: Vec<Vec<(u64, u64)>> = r.seq()?;
    let clock = r.u64()?;
    let stats = CacheStats::decode(r)?;
    if !c.restore_state(&sets, clock, stats) {
        return Err(SnapError::Corrupt("cache geometry mismatch"));
    }
    Ok(())
}

/// Serializes a memory hierarchy's state (shared by the `System` codec).
pub(crate) fn encode_memory_state(w: &mut SnapWriter, mem: &MemoryHierarchy) {
    let (l1i, l1d, l2) = mem.caches();
    for c in [l1i, l1d, l2] {
        encode_cache(w, c);
    }
}

/// Restores a memory hierarchy in place from [`encode_memory_state`]
/// output.
pub(crate) fn decode_memory_state(
    r: &mut SnapReader,
    mem: &mut MemoryHierarchy,
) -> Result<(), SnapError> {
    let (l1i, l1d, l2) = mem.caches_mut();
    for c in [l1i, l1d, l2] {
        decode_cache(r, c)?;
    }
    Ok(())
}

/// An occupancy histogram, decoded against the bucket count of the one
/// it replaces.
fn encode_histogram(w: &mut SnapWriter, h: &Histogram) {
    let (buckets, overflow, total, sum, max) = h.raw_parts();
    w.seq(buckets);
    w.u64(overflow);
    w.u64(total);
    w.u128(sum);
    max.encode(w);
}

fn decode_histogram(r: &mut SnapReader, expect_cap: usize) -> Result<Histogram, SnapError> {
    let buckets: Vec<u64> = r.seq()?;
    if buckets.len() != expect_cap {
        return Err(SnapError::Corrupt("histogram capacity mismatch"));
    }
    Histogram::from_raw_parts(buckets, r.u64()?, r.u64()?, r.u128()?, Snap::decode(r)?)
        .ok_or(SnapError::Corrupt("inconsistent histogram"))
}

// --- micro-ops and queues -------------------------------------------------

snap_enum!(ReturnSource, "unknown return source" {
    0 => Ras,
    1 => Btb,
    2 => Fallthrough,
    3 => Oracle,
});

/// A pending operand travels as its producer's seq only: the slot is
/// derived, and [`Core::rebuild_derived`] recovers it from the slab.
impl Snap for Src {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            Src::None => w.u8(0),
            Src::Value(v) => {
                w.u8(1);
                w.i64(v);
            }
            Src::Pending { seq, .. } => {
                w.u8(2);
                w.u64(seq);
            }
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Src::None,
            1 => Src::Value(r.i64()?),
            2 => Src::Pending {
                seq: r.u64()?,
                slot: NIL,
            },
            _ => return Err(SnapError::Corrupt("unknown operand kind")),
        })
    }
}

snap_enum!(UopState, "unknown micro-op state" {
    0 => Waiting,
    1 => Issued { done_at: u64 },
    2 => Done,
});

/// A lower bound on one encoded micro-op, for the slab's count guard.
const UOP_MIN_BYTES: usize = 64;

/// Generous upper bound on a plausible wakeup-list capacity; genuine
/// capacities start at `2 * ruu_size` and double rarely, so anything past
/// this is a hostile count that would only bloat allocation before the
/// checksum-validated decode inevitably fails elsewhere.
const MAX_CONSUMERS_CAP: usize = 1 << 24;

fn encode_uop(w: &mut SnapWriter, u: &Uop) {
    w.u64(u.seq);
    u.path.encode(w);
    u.pc.encode(w);
    w.bool(u.wild);
    u.pred_next_pc.encode(w);
    u.dir_pred.encode(w);
    u.history_at_fetch.encode(w);
    RasUnit::encode_ckpt(w, u.ras_ckpt.as_ref());
    u.return_source.encode(w);
    u.forked_child.encode(w);
    u.srcs.encode(w);
    u.state.encode(w);
    u.result.encode(w);
    u.actual_next_pc.encode(w);
    u.taken_actual.encode(w);
    u.mem_addr.encode(w);
    u.store_value.encode(w);
    w.bool(u.squashed);
    w.bool(u.resolved);
    // The wakeup list's *capacity* is behavioral (it sets the compaction
    // trigger in rename), so it round-trips exactly alongside the
    // contents.
    w.usize(u.consumers.capacity());
    w.seq(&u.consumers);
    w.u32(u.lsq_slot);
    w.u8(u.pop_flags);
    u.squash_cause.encode(w);
}

/// Decodes a micro-op, re-deriving its instruction from `program` and its
/// checkpoint handle against `ras`. The fields below are read in wire
/// order: a struct expression evaluates its fields as written.
fn decode_uop(r: &mut SnapReader, program: &Program, ras: &RasUnit) -> Result<Uop, SnapError> {
    let seq = r.u64()?;
    let path = PathId::decode(r)?;
    let pc = Addr::decode(r)?;
    let wild = r.bool()?;
    let inst = if wild {
        Inst::Nop
    } else {
        program
            .fetch(pc)
            .ok_or(SnapError::Corrupt("micro-op PC outside program image"))?
    };
    Ok(Uop {
        seq,
        path,
        pc,
        inst,
        wild,
        pred_next_pc: Snap::decode(r)?,
        dir_pred: Snap::decode(r)?,
        history_at_fetch: Snap::decode(r)?,
        ras_ckpt: ras.decode_ckpt(r)?,
        return_source: Snap::decode(r)?,
        forked_child: Snap::decode(r)?,
        srcs: Snap::decode(r)?,
        state: Snap::decode(r)?,
        result: Snap::decode(r)?,
        actual_next_pc: Snap::decode(r)?,
        taken_actual: Snap::decode(r)?,
        mem_addr: Snap::decode(r)?,
        store_value: Snap::decode(r)?,
        squashed: r.bool()?,
        resolved: r.bool()?,
        in_ruu: false,
        consumers: decode_consumers(r)?,
        lsq_slot: r.u32()?,
        pop_flags: r.u8()?,
        squash_cause: Snap::decode(r)?,
    })
}

/// A wakeup list, allocated at its recorded capacity.
fn decode_consumers(r: &mut SnapReader) -> Result<Vec<(u32, u8)>, SnapError> {
    let cap = r.usize()?;
    if cap > MAX_CONSUMERS_CAP {
        return Err(SnapError::Corrupt("implausible wakeup-list capacity"));
    }
    let n = r.seq_len(<(u32, u8)>::MIN_BYTES)?;
    if n > cap {
        return Err(SnapError::Corrupt("wakeup list longer than its capacity"));
    }
    let mut consumers = Vec::with_capacity(cap);
    for _ in 0..n {
        consumers.push(Snap::decode(r)?);
    }
    Ok(consumers)
}

snap_struct!(MapEntry {
    seq: u64,
    slot: u32,
});

snap_struct!(PathCtx {
    fetch_pc: Addr,
    stall_until: u64,
    fetch_stopped: bool,
    map: [Option<MapEntry>; Reg::COUNT],
    history: u64,
});

snap_struct!(LsqEntry {
    seq: u64,
    path: PathId,
    is_store: bool,
    addr: Option<u64>,
    value: Option<i64>,
    squashed: bool,
});

fn encode_lsq(w: &mut SnapWriter, l: &Lsq) {
    w.seq(&l.entries);
    for link in l.next.iter().chain(&l.prev) {
        w.u32(*link);
    }
    w.u32(l.head);
    w.u32(l.tail);
    w.seq(&l.free);
    w.usize(l.len);
}

/// Decodes an LSQ of `capacity` slots, checking every link and the free
/// list against it.
fn decode_lsq(r: &mut SnapReader, capacity: usize) -> Result<Lsq, SnapError> {
    let n = r.seq_len(LsqEntry::MIN_BYTES)?;
    if n != capacity {
        return Err(SnapError::Corrupt("LSQ capacity mismatch"));
    }
    let entries = r.items(n)?;
    let next: Vec<u32> = r.items(n)?;
    let prev: Vec<u32> = r.items(n)?;
    let head = r.u32()?;
    let tail = r.u32()?;
    let nf = r.seq_len(u32::MIN_BYTES)?;
    if nf > capacity {
        return Err(SnapError::Corrupt("LSQ free list overflow"));
    }
    let mut free = Vec::with_capacity(capacity);
    for _ in 0..nf {
        free.push(r.u32()?);
    }
    let len = r.usize()?;
    if len != capacity - free.len() {
        return Err(SnapError::Corrupt("LSQ occupancy mismatch"));
    }
    let in_range = |s: u32| s == NIL || (s as usize) < capacity;
    if !next
        .iter()
        .chain(&prev)
        .chain(&free)
        .chain(&[head, tail])
        .all(|&s| in_range(s))
        || free.contains(&NIL)
    {
        return Err(SnapError::Corrupt("LSQ link out of range"));
    }
    Ok(Lsq {
        entries,
        next,
        prev,
        head,
        tail,
        free,
        len,
    })
}

// --- the core -------------------------------------------------------------

impl Core {
    /// Serializes the complete machine state — architectural registers
    /// and memory, predictor tables, cache tags, the return-address
    /// stacks with every in-flight checkpoint handle, the micro-op slab,
    /// RUU/LSQ/fetch-queue links, path tree, statistics and golden-check
    /// position — into the versioned binary snapshot format.
    ///
    /// The program image is *not* embedded; [`Core::resume`] takes it as
    /// an argument and validates its fingerprint. Pipeline tracing and
    /// the differential check stream are not captured: both restore
    /// disabled and can be re-enabled on the resumed core.
    ///
    /// Resuming the snapshot continues the simulation **byte-identically**
    /// to the donor: same commit stream, same statistics, and a
    /// re-snapshot at any later point produces the same bytes the donor
    /// would have.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new(KIND_CORE);
        self.encode_sections(&mut w);
        w.finish()
    }

    /// Writes the eight core sections (shared with the `System` codec).
    pub(crate) fn encode_sections(&self, w: &mut SnapWriter) {
        w.section(TAG_CONFIG, |w| self.config.encode(w));
        w.section(TAG_ARCH, |w| self.encode_arch(w));
        w.section(TAG_PREDICTORS, |w| self.encode_predictors(w));
        w.section(TAG_MEMORY, |w| encode_memory_state(w, &self.memory));
        w.section(TAG_RAS, |w| self.ras.encode_state(w));
        w.section(TAG_MACHINE, |w| self.encode_machine(w));
        w.section(TAG_STATS, |w| self.encode_stats_section(w));
        w.section(TAG_GOLDEN, |w| self.golden.as_ref().map(|g| g.pc).encode(w));
    }

    /// Reconstructs a core from [`Core::save_snapshot`] bytes and the
    /// program image the donor was running.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated, corrupted, or version-skewed buffer
    /// yields a typed [`SnapError`]; the decoder never panics on
    /// untrusted bytes. A snapshot taken from a different program image
    /// is rejected by fingerprint.
    pub fn resume(bytes: &[u8], program: &Program) -> Result<Core, SnapError> {
        let (mut r, kind) = SnapReader::new(bytes)?;
        match kind {
            KIND_CORE => {}
            KIND_SYSTEM => {
                return Err(SnapError::Corrupt(
                    "this is a system snapshot; use System::resume",
                ))
            }
            _ => return Err(SnapError::Corrupt("unknown snapshot kind")),
        }
        let config = Core::decode_config_section(&mut r)?;
        // Fingerprint first, so the core's clone of the image carries the
        // cached value into any later `save_snapshot`.
        let fingerprint = program.fingerprint();
        let mut core = Core::new(config, program);
        core.decode_sections(&mut r, fingerprint)?;
        r.expect_end()?;
        Ok(core)
    }

    /// Forks a *quiescent* snapshot (taken right after
    /// [`Core::fast_forward`], before any cycle simulated) onto a
    /// different machine configuration: the architectural state —
    /// registers, data memory, fetch PC, halted flag, golden-check
    /// enablement — carries over, while the microarchitecture starts
    /// cold under `config`. This is the warm-start sweep primitive: one
    /// functional fast-forward, many machine configurations.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Config`] when `config` is structurally
    /// invalid (see [`CoreConfig::check`]), [`SnapError::Corrupt`] when
    /// the snapshot is not quiescent (it has simulated cycles or holds
    /// in-flight state), plus every decode error [`Core::resume`] can
    /// report.
    pub fn resume_reconfigured(
        bytes: &[u8],
        program: &Program,
        config: CoreConfig,
    ) -> Result<Core, SnapError> {
        config.check().map_err(SnapError::Config)?;
        let donor = Core::resume(bytes, program)?;
        if donor.cycle != 0
            || donor.next_seq != 1
            || !donor.fetch_queue.is_empty()
            || !donor.ruu.is_empty()
            || donor.lsq.len() != 0
            || donor.paths.path_count() != 1
        {
            return Err(SnapError::Corrupt(
                "resume_reconfigured needs a quiescent (fast-forward) snapshot",
            ));
        }
        let mut core = Core::new(config, program);
        core.regfile = donor.regfile;
        core.mem_data = donor.mem_data;
        core.halted = donor.halted;
        core.path_ctx[0] = PathCtx::new(donor.path_ctx[0].fetch_pc);
        if donor.golden.is_some() {
            core.golden = Some(core.golden_at(core.path_ctx[0].fetch_pc));
        }
        Ok(core)
    }

    /// Reads the CONFIG section and validates the decoded configuration
    /// (shared with the `System` codec).
    pub(crate) fn decode_config_section(r: &mut SnapReader) -> Result<CoreConfig, SnapError> {
        let config = r.section(TAG_CONFIG, CoreConfig::decode)?;
        config
            .check()
            .map_err(|_| SnapError::Corrupt("snapshot carries an invalid configuration"))?;
        Ok(config)
    }

    /// Decodes the seven post-CONFIG sections into a freshly constructed
    /// core (shared with the `System` codec). `fingerprint` is the resume
    /// caller's program fingerprint, which the ARCH section must match.
    pub(crate) fn decode_sections(
        &mut self,
        r: &mut SnapReader,
        fingerprint: u64,
    ) -> Result<(), SnapError> {
        r.section(TAG_ARCH, |r| self.decode_arch(r, fingerprint))?;
        r.section(TAG_PREDICTORS, |r| self.decode_predictors(r))?;
        r.section(TAG_MEMORY, |r| decode_memory_state(r, &mut self.memory))?;
        self.ras = r.section(TAG_RAS, |r| RasUnit::decode_state(r, &self.config))?;
        r.section(TAG_MACHINE, |r| self.decode_machine(r))?;
        r.section(TAG_STATS, |r| self.decode_stats_section(r))?;
        if let Some(pc) = r.section(TAG_GOLDEN, Option::<Addr>::decode)? {
            self.golden = Some(self.golden_at(pc));
        }
        Ok(())
    }

    fn encode_arch(&self, w: &mut SnapWriter) {
        w.u64(self.program.fingerprint());
        w.u64(self.program.data_words());
        self.regfile.encode(w);
        w.seq(&self.mem_data);
        w.bool(self.halted);
    }

    fn decode_arch(&mut self, r: &mut SnapReader, fingerprint: u64) -> Result<(), SnapError> {
        if r.u64()? != fingerprint {
            return Err(SnapError::Corrupt(
                "snapshot was taken from a different program image",
            ));
        }
        if r.u64()? != self.program.data_words() {
            return Err(SnapError::Corrupt("data-memory size mismatch"));
        }
        self.regfile = Snap::decode(r)?;
        let n = r.seq_len(i64::MIN_BYTES)?;
        if n != self.mem_data.len() {
            return Err(SnapError::Corrupt("data-memory size mismatch"));
        }
        for slot in &mut self.mem_data {
            *slot = r.i64()?;
        }
        self.halted = r.bool()?;
        Ok(())
    }

    fn encode_predictors(&self, w: &mut SnapWriter) {
        self.hybrid.snapshot_state().encode(w);
        let (sets, clock, hits, lookups) = self.btb.snapshot_state();
        w.seq(&sets);
        [clock, hits, lookups].encode(w);
        w.seq_u8(&self.confidence.snapshot_state());
    }

    fn decode_predictors(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        if !self.hybrid.restore_state(&HybridState::decode(r)?) {
            return Err(SnapError::Corrupt("hybrid predictor geometry mismatch"));
        }
        let sets: Vec<Vec<(u64, Addr, u64)>> = r.seq()?;
        let [clock, hits, lookups] = <[u64; 3]>::decode(r)?;
        if !self.btb.restore_state(&sets, clock, hits, lookups) {
            return Err(SnapError::Corrupt("BTB geometry mismatch"));
        }
        if !self.confidence.restore_state(&r.seq_u8()?) {
            return Err(SnapError::Corrupt("confidence table mismatch"));
        }
        Ok(())
    }

    fn encode_machine(&self, w: &mut SnapWriter) {
        self.hart.encode(w);
        [
            self.cycle,
            self.next_seq,
            self.cycle_base,
            self.last_commit_cycle,
        ]
        .encode(w);
        w.usize(self.fetch_rotor);
        self.pending_refill.encode(w);

        w.usize(self.paths.max_live());
        w.usize(self.paths.path_count());
        for row in self.paths.snapshot_rows() {
            row.encode(w);
        }
        w.seq(&self.path_ctx);

        w.usize(self.slab.len());
        for u in &self.slab {
            encode_uop(w, u);
        }
        w.seq(&self.slab_free);
        w.usize(self.fetch_queue.len());
        for entry in &self.fetch_queue {
            entry.encode(w);
        }
        w.usize(self.ruu.len());
        for &slot in &self.ruu {
            w.u32(slot);
        }
        encode_lsq(w, &self.lsq);
    }

    fn decode_machine(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let hart = HartId::decode(r)?;
        if hart.index() >= self.config.harts as usize {
            return Err(SnapError::Corrupt("hart index out of range"));
        }
        self.hart = hart;
        [
            self.cycle,
            self.next_seq,
            self.cycle_base,
            self.last_commit_cycle,
        ] = Snap::decode(r)?;
        self.fetch_rotor = r.usize()?;
        self.pending_refill = Snap::decode(r)?;

        let max_live = r.usize()?;
        let expected_max = self.config.multipath.map(|m| m.max_paths).unwrap_or(1);
        if max_live != expected_max {
            return Err(SnapError::Corrupt("path capacity does not match config"));
        }
        // The rotor picks among at most `max_live` fetchable paths.
        if self.fetch_rotor >= max_live {
            return Err(SnapError::Corrupt("fetch rotor out of range"));
        }
        self.paths = PathTable::from_snapshot_rows(r.seq()?, max_live)
            .ok_or(SnapError::Corrupt("inconsistent path table"))?;
        let nctx = r.seq_len(PathCtx::MIN_BYTES)?;
        if nctx != self.paths.path_count() {
            return Err(SnapError::Corrupt("path context count mismatch"));
        }
        self.path_ctx = r.items(nctx)?;

        let slab_cap = self.config.fetch_queue + self.config.ruu_size;
        let slot_in_range = |s: u32| {
            if (s as usize) < slab_cap {
                Ok(s)
            } else {
                Err(SnapError::Corrupt("slab index out of range"))
            }
        };
        let nslab = r.seq_len(UOP_MIN_BYTES)?;
        if nslab != slab_cap {
            return Err(SnapError::Corrupt("slab capacity mismatch"));
        }
        let mut slab = Vec::with_capacity(nslab);
        for _ in 0..nslab {
            slab.push(decode_uop(r, &self.program, &self.ras)?);
        }
        self.slab = slab;
        let nfree = r.seq_len(u32::MIN_BYTES)?;
        if nfree > slab_cap {
            return Err(SnapError::Corrupt("slab free list overflow"));
        }
        let mut slab_free = Vec::with_capacity(slab_cap);
        for _ in 0..nfree {
            slab_free.push(slot_in_range(r.u32()?)?);
        }
        self.slab_free = slab_free;

        self.fetch_queue.clear();
        let nfq = r.seq_len(<(u64, u32)>::MIN_BYTES)?;
        if nfq > self.config.fetch_queue {
            return Err(SnapError::Corrupt("fetch queue overflow"));
        }
        for _ in 0..nfq {
            let ready_at = r.u64()?;
            self.fetch_queue
                .push_back((ready_at, slot_in_range(r.u32()?)?));
        }
        self.ruu.clear();
        let nruu = r.seq_len(u32::MIN_BYTES)?;
        if nruu > self.config.ruu_size {
            return Err(SnapError::Corrupt("RUU overflow"));
        }
        for _ in 0..nruu {
            self.ruu.push_back(slot_in_range(r.u32()?)?);
        }
        self.lsq = decode_lsq(r, self.config.lsq_size)?;
        self.rebuild_derived();
        Ok(())
    }

    /// Rebuilds the state a snapshot leaves out: operand producer slots,
    /// RUU membership and the ready list. Seqs are unique per core and a
    /// freed slot keeps its seq until reuse, so a pending operand's
    /// producer is the one slab entry carrying that seq; one no longer in
    /// the slab keeps [`NIL`] and reads as a departed producer.
    fn rebuild_derived(&mut self) {
        for c in 0..self.slab.len() {
            for i in 0..2 {
                if let Src::Pending { seq, .. } = self.slab[c].srcs[i] {
                    let slot = self
                        .slab
                        .iter()
                        .position(|p| p.seq == seq)
                        .map_or(NIL, |p| p as u32);
                    self.slab[c].srcs[i] = Src::Pending { seq, slot };
                }
            }
        }
        for i in 0..self.ruu.len() {
            let slot = self.ruu[i];
            self.slab[slot as usize].in_ruu = true;
        }
        self.ready.clear();
        for i in 0..self.ruu.len() {
            let slot = self.ruu[i];
            if self.is_ready(slot) {
                self.list_ready(self.slab[slot as usize].seq, slot);
            }
        }
    }

    fn encode_stats_section(&self, w: &mut SnapWriter) {
        self.stats.encode(w);
        self.cpi.encode(w);
        let o = &self.occupancy;
        for h in [&o.ruu, &o.lsq, &o.fetch_queue, &o.live_paths] {
            encode_histogram(w, h);
        }
    }

    /// Decodes the statistics into the freshly constructed core, whose
    /// occupancy histograms already have the configured bucket counts.
    fn decode_stats_section(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.stats = SimStats::decode(r)?;
        self.cpi = CpiStack::decode(r)?;
        let o = &mut self.occupancy;
        for h in [
            &mut o.ruu,
            &mut o.lsq,
            &mut o.fetch_queue,
            &mut o.live_paths,
        ] {
            *h = decode_histogram(r, h.raw_parts().0.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::snapshot::{assert_round_trip, assert_snap_round_trip};
    use hydra_workloads::{Workload, WorkloadSpec};

    /// Mid-flight machines covering every return predictor, both
    /// multipath stack organizations and the golden check.
    fn machines() -> Vec<Core> {
        let w = Workload::generate(&WorkloadSpec::test_small(), 4242).expect("generates");
        let with_rp = |rp| {
            let mut c = CoreConfig::baseline();
            c.return_predictor = rp;
            c
        };
        let configs = [
            with_rp(ReturnPredictor::Ras {
                entries: 16,
                repair: RepairPolicy::TosPointerAndContents,
            }),
            CoreConfig::multipath(4, MultipathStackPolicy::PerPath),
            CoreConfig::multipath(
                4,
                MultipathStackPolicy::Unified {
                    repair: RepairPolicy::FullStack,
                },
            ),
            with_rp(ReturnPredictor::SelfCheckpointing { entries: 16 }),
            with_rp(ReturnPredictor::Perfect),
            with_rp(ReturnPredictor::BtbOnly),
        ];
        configs
            .into_iter()
            .map(|config| {
                let mut core = Core::new(config, w.program());
                core.enable_golden_check();
                core.run(1_500);
                core
            })
            .collect()
    }

    #[test]
    fn config_types_round_trip() {
        let mut configs: Vec<CoreConfig> = machines().iter().map(|c| c.config).collect();
        for sharing in [
            RasSharing::Shared,
            RasSharing::Partitioned,
            RasSharing::Tagged { tag_bits: 1 },
        ] {
            configs.push(CoreConfig::smt(2, sharing));
        }
        let mut budgeted = CoreConfig::baseline();
        budgeted.checkpoint_budget = Some(4);
        budgeted.return_predictor = ReturnPredictor::Ras {
            entries: 8,
            repair: RepairPolicy::TopContents { k: 3 },
        };
        configs.push(budgeted);
        for c in &configs {
            assert_snap_round_trip(c);
            assert_snap_round_trip(&c.return_predictor);
            assert_snap_round_trip(&c.ras_sharing);
            assert_snap_round_trip(&c.multipath);
            assert_snap_round_trip(&c.mem);
            assert_snap_round_trip(&c.mem.l2);
            assert_snap_round_trip(&c.hybrid);
            assert_snap_round_trip(&c.btb);
            assert_snap_round_trip(&c.confidence);
            assert_snap_round_trip(&c.latencies);
        }
    }

    #[test]
    fn micro_op_types_round_trip() {
        for core in machines() {
            for u in &core.slab {
                assert_round_trip(u, encode_uop, |r| decode_uop(r, &core.program, &core.ras));
                assert_snap_round_trip(&u.dir_pred);
                assert_snap_round_trip(&u.srcs);
                assert_snap_round_trip(&u.state);
                assert_snap_round_trip(&u.return_source);
                assert_snap_round_trip(&u.squash_cause);
            }
            let cap = core.config.lsq_size;
            assert_round_trip(&core.lsq, encode_lsq, |r| decode_lsq(r, cap));
            for e in &core.lsq.entries {
                assert_snap_round_trip(e);
            }
            for ctx in &core.path_ctx {
                assert_snap_round_trip(ctx);
                for m in ctx.map.iter().flatten() {
                    assert_snap_round_trip(m);
                }
            }
        }
    }

    #[test]
    fn predictor_cache_and_stats_types_round_trip() {
        for core in machines() {
            assert_snap_round_trip(&core.hybrid.snapshot_state());
            assert_snap_round_trip(&core.stats);
            assert_snap_round_trip(&core.cpi);
            let (l1i, l1d, l2) = core.memory.caches();
            for c in [l1i, l1d, l2] {
                assert_snap_round_trip(&c.snapshot_state().2);
                assert_round_trip(c, encode_cache, |r| {
                    let mut fresh = c.clone();
                    decode_cache(r, &mut fresh).map(|()| fresh)
                });
            }
            let o = &core.occupancy;
            for h in [&o.ruu, &o.lsq, &o.fetch_queue, &o.live_paths] {
                let cap = h.raw_parts().0.len();
                assert_round_trip(h, encode_histogram, |r| decode_histogram(r, cap));
            }
            assert_round_trip(
                &core,
                |w, c| w.seq_u8(&c.save_snapshot()),
                |r| Core::resume(&r.seq_u8()?, &core.program),
            );
        }
    }

    #[test]
    fn reconfiguring_onto_an_invalid_config_is_a_typed_error() {
        let w = Workload::generate(&WorkloadSpec::test_small(), 77).expect("generates");
        let mut donor = Core::new(CoreConfig::baseline(), w.program());
        donor.fast_forward(1_000);
        let bytes = donor.save_snapshot();
        let mut bad = CoreConfig::baseline();
        bad.ruu_size = 0;
        let err = Core::resume_reconfigured(&bytes, w.program(), bad)
            .expect_err("an empty RUU is rejected, not a panic");
        assert_eq!(err, SnapError::Config(ConfigError::EmptyRuu));

        // An invalid config inside the snapshot is the bytes' fault and
        // stays `Corrupt`: zero the encoded `ruu_size` (the fifth field
        // of the CONFIG section, after the 13-byte header and the
        // section's tag and length) and re-seal the checksum.
        let mut evil = bytes.clone();
        let at = 13 + 4 + 8 + 4 * 8;
        evil[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        let body = evil.len() - 8;
        let sum = crate::snapshot::fnv64(&evil[..body]);
        evil[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Core::resume_reconfigured(&evil, w.program(), CoreConfig::baseline()).unwrap_err(),
            SnapError::Corrupt("snapshot carries an invalid configuration")
        );
    }
}
