//! The cycle-level out-of-order core.
//!
//! A SimpleScalar-`sim-outorder`-style machine with the two extensions
//! HydraScalar added for the paper: **full wrong-path execution** (the
//! fetch engine follows its predictions down mispredicted paths, and those
//! instructions execute with whatever values renaming gives them, pushing
//! and popping the return-address stack as they go) and **multipath
//! execution** (forking at low-confidence branches).
//!
//! Stage order within [`Core::step`] is reverse-pipeline (commit,
//! writeback/resolve, issue, dispatch, fetch), so results propagate with
//! realistic one-cycle boundaries.
//!
//! Renaming happens at fetch: each path carries a map from architectural
//! register to the sequence number of its latest in-flight producer, and
//! forking a path copies the map. A source operand therefore either names
//! an in-flight producer (`Src::Pending`) or falls back to the
//! architectural register file at issue time — which is correct exactly
//! because commit writes the register file in program order.

mod codec;

pub(crate) use codec::{decode_memory_state, encode_memory_state};

use crate::config::{CoreConfig, ReturnPredictor};
use crate::event::{Cache, Event, EventClass, EventMask, Stamped, Tap, UopStage};
use crate::path::{HartId, PathId, PathTable};
use crate::ras_unit::{CkptHandle, RasUnit};
use crate::stats::{ReturnSource, SimStats};
use crate::uop::{Src, Uop, UopState, NIL};
use hydra_bpred::{Btb, ConfidenceEstimator, HybridPredictor};
use hydra_isa::semantics::{alu, branch_taken, effective_address};
use hydra_isa::{Addr, ArchState, ControlKind, Inst, Program, Reg};
use hydra_mem::MemoryHierarchy;
use hydra_obs::{classify_return_mispredict, CauseHistogram, CpiStack, LostCause};
use hydra_stats::Histogram;
use std::collections::VecDeque;

/// Cycles without a commit after which the simulator declares itself
/// wedged (a simulator bug, not a program property).
const DEADLOCK_HORIZON: u64 = 200_000;

/// A rename-map entry: the latest in-flight producer of a register,
/// identified both by sequence number (for `Src::Pending`) and by slab
/// slot (so wakeup registration at fetch is O(1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MapEntry {
    seq: u64,
    slot: u32,
}

#[derive(Debug, Clone)]
struct PathCtx {
    fetch_pc: Addr,
    stall_until: u64,
    fetch_stopped: bool,
    map: [Option<MapEntry>; Reg::COUNT],
    /// Speculative global branch history: shifted at fetch, repaired on
    /// mispredictions (per-path, so forked arms see opposite last bits).
    history: u64,
}

impl PathCtx {
    fn new(pc: Addr) -> Self {
        PathCtx {
            fetch_pc: pc,
            stall_until: 0,
            fetch_stopped: false,
            map: [None; Reg::COUNT],
            history: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    seq: u64,
    path: PathId,
    is_store: bool,
    addr: Option<u64>,
    value: Option<i64>,
    squashed: bool,
}

impl LsqEntry {
    /// Placeholder for unoccupied slots.
    fn vacant() -> Self {
        LsqEntry {
            seq: 0,
            path: PathId::ROOT,
            is_store: false,
            addr: None,
            value: None,
            squashed: false,
        }
    }
}

/// The load/store queue as an index-linked list over a fixed slab:
/// entries keep queue (= program) order through `next`/`prev` links, and
/// removal by slot — the micro-op records its slot at dispatch — is O(1)
/// instead of a full `retain` scan per commit or squash.
#[derive(Debug, Clone)]
struct Lsq {
    entries: Vec<LsqEntry>,
    next: Vec<u32>,
    prev: Vec<u32>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
    len: usize,
}

impl Lsq {
    fn new(capacity: usize) -> Self {
        Lsq {
            entries: vec![LsqEntry::vacant(); capacity],
            next: vec![NIL; capacity],
            prev: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            free: (0..capacity as u32).rev().collect(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends an entry at the queue tail; returns its slot.
    fn push_back(&mut self, e: LsqEntry) -> u32 {
        let slot = self.free.pop().expect("LSQ slab exhausted");
        self.entries[slot as usize] = e;
        self.next[slot as usize] = NIL;
        self.prev[slot as usize] = self.tail;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
        self.len += 1;
        slot
    }

    /// Unlinks and frees a slot (O(1)).
    fn remove(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
        self.free.push(slot);
        self.len -= 1;
    }
}

/// The simulated processor.
///
/// # Examples
///
/// ```
/// use hydra_isa::{AluOp, ProgramBuilder, Reg};
/// use hydra_pipeline::{Core, CoreConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let f = b.fresh_label();
/// b.call(f);
/// b.halt();
/// b.bind(f)?;
/// b.alu_imm(AluOp::Add, Reg::R1, Reg::ZERO, 5);
/// b.ret();
/// let program = b.build()?;
///
/// let mut core = Core::new(CoreConfig::baseline(), &program);
/// let stats = core.run(1_000);
/// assert!(core.is_halted());
/// assert_eq!(stats.returns, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    config: CoreConfig,
    program: Program,
    /// Which hardware thread this fetch/commit stream is. Always
    /// [`HartId::H0`] for a standalone core; a [`crate::System`] assigns
    /// distinct harts so shared structures can key requests by thread.
    hart: HartId,

    // Architectural state.
    regfile: [i64; Reg::COUNT],
    mem_data: Vec<i64>,
    halted: bool,

    // Predictors and memory.
    hybrid: HybridPredictor,
    btb: Btb,
    confidence: ConfidenceEstimator,
    ras: RasUnit,
    memory: MemoryHierarchy,

    // Machine state.
    cycle: u64,
    next_seq: u64,
    paths: PathTable,
    path_ctx: Vec<PathCtx>,
    fetch_rotor: usize,
    /// The micro-op slab: every in-flight micro-op lives here, and the
    /// fetch queue and RUU hold slot indices into it. Its capacity
    /// (`fetch_queue + ruu_size`) bounds total occupancy, so the free
    /// list can never run dry and the steady-state hot loop performs no
    /// heap allocation per cycle.
    slab: Vec<Uop>,
    slab_free: Vec<u32>,
    fetch_queue: VecDeque<(u64, u32)>,
    ruu: VecDeque<u32>,
    /// The ready list: `(seq, slot)` of every dispatched, unsquashed,
    /// `Waiting` micro-op whose operands are all available, in seq order,
    /// so issue selects oldest-first without walking the RUU. Fed at
    /// dispatch and by the producers' wakeup lists at completion; entries
    /// squashed since are dropped by the next issue. Derived state: a
    /// snapshot decode rebuilds it from the RUU.
    ready: Vec<(u64, u32)>,
    lsq: Lsq,

    stats: SimStats,
    /// Always-on CPI-stack accounting: every commit slot the core fails
    /// to fill is charged to a typed cause here, every cycle, with no
    /// feature gate (see [`Core::cpi_stack`]).
    cpi: CpiStack,
    /// Cause of the squash whose post-recovery refill bubble the front
    /// end is currently serving: set when a conventional misprediction
    /// redirects fetch, cleared by the next retire. While set, empty-RUU
    /// commit slots are charged to this cause instead of fetch
    /// starvation.
    pending_refill: Option<LostCause>,
    /// Cycle count at the last statistics reset (warm-up boundary).
    cycle_base: u64,
    last_commit_cycle: u64,
    /// The optional golden check: an architectural interpreter that
    /// executes every retiring instruction alongside commit, which
    /// compares the micro-op's result and control target against it.
    golden: Option<ArchState>,
    /// The event tap (see [`Core::set_tap`]); off until a caller names
    /// classes, so each recording site costs one branch.
    tap: Tap,
    occupancy: Occupancy,

    // Persistent scratch buffers for squash bookkeeping, taken with
    // `mem::take` while in use so their capacity survives across calls.
    scratch_killed: Vec<PathId>,
    scratch_released: Vec<CkptHandle>,
    scratch_seqs: Vec<u64>,
}

/// Per-cycle occupancy samples of the core's queues (see
/// [`Core::occupancy`]).
#[derive(Debug, Clone)]
pub struct Occupancy {
    /// RUU entries in use, sampled each cycle.
    pub ruu: Histogram,
    /// Load/store-queue entries in use, sampled each cycle.
    pub lsq: Histogram,
    /// Fetch-queue entries in use, sampled each cycle.
    pub fetch_queue: Histogram,
    /// Live execution paths, sampled each cycle.
    pub live_paths: Histogram,
}

impl Occupancy {
    fn new(config: &CoreConfig) -> Self {
        let max_paths = config.multipath.map(|m| m.max_paths).unwrap_or(1);
        Occupancy {
            ruu: Histogram::with_cap(config.ruu_size + 1),
            lsq: Histogram::with_cap(config.lsq_size + 1),
            fetch_queue: Histogram::with_cap(config.fetch_queue + 1),
            live_paths: Histogram::with_cap(max_paths + 1),
        }
    }
}

impl Core {
    /// Creates a core at the program entry with cold predictors and
    /// caches.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`CoreConfig::validate`]).
    pub fn new(config: CoreConfig, program: &Program) -> Self {
        config.validate();
        let max_paths = config.multipath.map(|m| m.max_paths).unwrap_or(1);
        let slab_cap = config.fetch_queue + config.ruu_size;
        Core {
            hart: HartId::H0,
            ras: RasUnit::new(&config),
            hybrid: HybridPredictor::new(config.hybrid),
            btb: Btb::new(config.btb),
            confidence: ConfidenceEstimator::new(config.confidence),
            memory: MemoryHierarchy::new(config.mem),
            program: program.clone(),
            regfile: [0; Reg::COUNT],
            mem_data: vec![0; program.data_words() as usize],
            halted: false,
            cycle: 0,
            next_seq: 1,
            paths: PathTable::new(max_paths),
            path_ctx: vec![PathCtx::new(Addr::ZERO)],
            fetch_rotor: 0,
            slab: (0..slab_cap)
                .map(|_| {
                    let mut u = Uop::new(0, PathId::ROOT, Addr::ZERO, Inst::Nop, Addr::ZERO);
                    // Wakeup lists grow toward a workload-dependent
                    // high-water mark; reserving the window-wide bound
                    // (every RUU entry registering both operands) up
                    // front keeps rename-time registration off the heap.
                    u.consumers.reserve(2 * config.ruu_size);
                    u
                })
                .collect(),
            slab_free: (0..slab_cap as u32).rev().collect(),
            fetch_queue: VecDeque::with_capacity(config.fetch_queue + 1),
            ruu: VecDeque::with_capacity(config.ruu_size + 1),
            // Issue drops stale entries every cycle, so the list never
            // holds more than one window's worth.
            ready: Vec::with_capacity(config.ruu_size),
            lsq: Lsq::new(config.lsq_size),
            stats: SimStats {
                max_live_paths: 1,
                ..SimStats::default()
            },
            cpi: CpiStack::default(),
            pending_refill: None,
            cycle_base: 0,
            last_commit_cycle: 0,
            golden: None,
            tap: Tap::default(),
            occupancy: Occupancy::new(&config),
            scratch_killed: Vec::new(),
            scratch_released: Vec::new(),
            scratch_seqs: Vec::new(),
            config,
        }
    }

    /// Enables the per-commit golden check: every retiring instruction is
    /// compared against an architectural interpreter running alongside.
    /// Slows simulation; intended for tests.
    pub fn enable_golden_check(&mut self) {
        self.golden = Some(ArchState::new(self.program.data_words()));
    }

    /// Sets the classes the event tap records (see [`Event`]);
    /// [`EventMask::NONE`], the default, turns it off. Recorded events
    /// are drained with [`Core::drain_tap`]. The tap only observes:
    /// simulation results are the same with any mask.
    pub fn set_tap(&mut self, mask: EventMask) {
        self.tap.set(mask);
    }

    /// Moves the recorded events into `into` (appending), leaving the
    /// tap empty but on. Call between bounded [`Core::run`] windows to
    /// keep the buffer small.
    pub fn drain_tap(&mut self, into: &mut Vec<Stamped>) {
        self.tap.drain(into);
    }

    /// Records one event if its class is tapped.
    #[inline]
    fn emit(&mut self, event: Event) {
        self.tap.emit(self.cycle, event);
    }

    /// Per-cycle occupancy histograms of the RUU, LSQ, fetch queue and
    /// live path count — the utilization picture behind the IPC numbers.
    pub fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    /// Whether a committed `halt` stopped the machine.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The hardware thread this stream runs as ([`HartId::H0`] unless
    /// assigned by a [`crate::System`]).
    pub fn hart_id(&self) -> HartId {
        self.hart
    }

    /// Assigns this engine's hart identity (used by [`crate::System`]).
    pub(crate) fn set_hart(&mut self, hart: HartId) {
        self.hart = hart;
    }

    /// Swaps this engine's RAS unit with a [`crate::System`]-owned one.
    pub(crate) fn swap_ras(&mut self, other: &mut RasUnit) {
        std::mem::swap(&mut self.ras, other);
    }

    /// Swaps this engine's memory hierarchy with a shared one.
    pub(crate) fn swap_memory(&mut self, other: &mut MemoryHierarchy) {
        std::mem::swap(&mut self.memory, other);
    }

    /// Instructions committed since the last stats reset.
    pub(crate) fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Reads an architectural (committed) register.
    pub fn arch_reg(&self, r: Reg) -> i64 {
        self.regfile[r.index() as usize]
    }

    /// Statistics gathered so far, with predictor/cache/RAS counters
    /// folded in.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycle - self.cycle_base;
        let r = self.ras.stats();
        s.ras_pushes = r.pushes;
        s.ras_pops = r.pops;
        s.ras_overflows = r.overflows;
        s.ras_underflows = r.underflows;
        s.ras_restores = r.restores;
        s.checkpoint_budget_misses = r.budget_misses;
        let (l1i, l1d, _) = self.memory.stats();
        s.l1i_accesses = l1i.accesses;
        s.l1i_hits = l1i.hits;
        s.l1d_accesses = l1d.accesses;
        s.l1d_hits = l1d.hits;
        s
    }

    /// Clears all statistics (committed counts, cache, RAS and predictor
    /// event counters) while keeping the machine state — pipeline
    /// contents, predictor tables, caches — warm. Call after a warm-up
    /// run, as the paper does before its measurement window.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats {
            max_live_paths: self.paths.live_count().max(1) as u64,
            ..SimStats::default()
        };
        self.cycle_base = self.cycle;
        self.memory.reset_stats();
        self.ras.reset_stats();
        self.cpi = CpiStack::default();
        self.occupancy = Occupancy::new(&self.config);
    }

    /// The CPI-stack accounting gathered since the last
    /// [`Core::reset_stats`]: lost commit slots by cause. Together with
    /// [`SimStats::committed`] it conserves issue bandwidth exactly:
    /// `cpi_stack().total_lost() + committed == cycles × commit_width`.
    pub fn cpi_stack(&self) -> &CpiStack {
        &self.cpi
    }

    /// This hart's return-misprediction cause histogram (see
    /// [`hydra_obs::MispredictCause`]).
    pub fn mispredict_causes(&self) -> CauseHistogram {
        self.ras.mispredict_causes(self.hart)
    }

    /// Architecturally fast-forwards a *fresh* core by up to
    /// `max_instructions` on the pre-decoded functional engine
    /// ([`hydra_isa::FastCore`]), then leaves the pipeline ready to
    /// resume cycle-level simulation from the resulting state. Returns
    /// the number of instructions skipped.
    ///
    /// This is the paper-scale fast-forward path: the functional engine
    /// runs orders of magnitude faster than cycle-level simulation, so
    /// 100M-instruction skip windows become practical. The trade-off is
    /// methodological: microarchitectural state (predictors, caches, the
    /// RAS) stays **cold** at the measurement start, whereas cycle-level
    /// fast-forward (`run` + [`Core::reset_stats`], what `expt` does)
    /// warms it. Choose per experiment; the committed goldens all use
    /// the warm variant.
    ///
    /// Skipped instructions do not count toward committed-instruction
    /// statistics. A golden check enabled beforehand is kept in sync.
    ///
    /// # Panics
    ///
    /// Panics if the core has already simulated any cycle (the pipeline
    /// must be empty for state installation to be exact), or if the
    /// program faults during the skip (generated workloads never do).
    pub fn fast_forward(&mut self, max_instructions: u64) -> u64 {
        assert!(
            self.cycle == 0 && self.next_seq == 1 && !self.halted,
            "fast_forward requires a fresh core (no cycles simulated yet)"
        );
        let (skipped, pc, halted, regs, mem) = {
            let mut fc = hydra_isa::FastCore::new(&self.program);
            let skipped = match hydra_isa::FunctionalCore::advance(&mut fc, max_instructions) {
                Ok(n) => n,
                Err(e) => panic!("program faulted during functional fast-forward: {e}"),
            };
            let mut regs = [0i64; Reg::COUNT];
            for (i, slot) in regs.iter_mut().enumerate() {
                *slot = hydra_isa::FunctionalCore::reg(&fc, Reg::gpr(i as u8));
            }
            let mem: Vec<i64> = (0..self.program.data_words())
                .map(|w| hydra_isa::FunctionalCore::mem_word(&fc, w))
                .collect();
            (
                skipped,
                hydra_isa::FunctionalCore::pc(&fc),
                hydra_isa::FunctionalCore::is_halted(&fc),
                regs,
                mem,
            )
        };
        self.regfile = regs;
        self.mem_data = mem;
        self.halted = halted;
        self.path_ctx[0] = PathCtx::new(pc);
        if self.golden.is_some() {
            self.golden = Some(self.golden_at(pc));
        }
        skipped
    }

    /// A golden-check interpreter at `pc` over the committed registers
    /// and memory, for re-seating the check after a fast-forward or a
    /// resume.
    fn golden_at(&self, pc: Addr) -> ArchState {
        ArchState {
            regs: self.regfile,
            mem: self.mem_data.clone(),
            pc,
            halted: self.halted,
        }
    }

    /// Runs until a `halt` commits or `max_commits` instructions have
    /// committed; returns the final statistics.
    ///
    /// # Panics
    ///
    /// Panics if the core wedges (no commit for an implausibly long
    /// time) or, with the golden check enabled, if a committed
    /// instruction diverges from the architectural interpreter — both
    /// indicate simulator bugs.
    pub fn run(&mut self, max_commits: u64) -> SimStats {
        while !self.halted && self.stats.committed < max_commits {
            self.step();
        }
        self.stats()
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.commit();
        self.writeback();
        self.issue();
        self.dispatch();
        self.fetch();
        self.occupancy.ruu.record(self.ruu.len() as u64);
        self.occupancy.lsq.record(self.lsq.len() as u64);
        self.occupancy
            .fetch_queue
            .record(self.fetch_queue.len() as u64);
        self.occupancy
            .live_paths
            .record(self.paths.live_count() as u64);
        self.emit(Event::StageSample {
            ruu: self.ruu.len() as u32,
            lsq: self.lsq.len() as u32,
            fetch_queue: self.fetch_queue.len() as u32,
            live_paths: self.paths.live_count() as u32,
        });
        self.cycle += 1;
        assert!(
            self.cycle - self.last_commit_cycle < DEADLOCK_HORIZON,
            "no commit in {DEADLOCK_HORIZON} cycles: simulator wedged at cycle {}",
            self.cycle
        );
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        let mut slots = self.config.commit_width;
        while slots > 0 {
            let Some(&head) = self.ruu.front() else { break };
            let hu = head as usize;
            if self.slab[hu].squashed {
                // Squashed entries drain through the RUU front consuming
                // retire bandwidth, as the paper's footnote describes;
                // charge the slot to whatever squashed the micro-op.
                let seq = self.slab[hu].seq;
                let cause = self.slab[hu].squash_cause;
                self.ruu.pop_front();
                self.lsq_remove_for(head);
                self.emit(Event::Uop {
                    seq,
                    stage: UopStage::Retire,
                });
                self.free_slot(head);
                self.cpi.charge(cause, 1);
                slots -= 1;
                continue;
            }
            if !self.slab[hu].is_done() {
                break;
            }
            if self.halted {
                break;
            }
            let seq = self.slab[hu].seq;
            self.ruu.pop_front();
            self.lsq_remove_for(head);
            self.emit(Event::Uop {
                seq,
                stage: UopStage::Retire,
            });
            self.retire(head);
            self.free_slot(head);
            slots -= 1;
        }
        // Every slot not consumed above is a lost commit opportunity;
        // charge the whole remainder to one diagnosed cause. Together
        // with the per-uop charges this conserves bandwidth exactly:
        // charged + retired == cycles × commit_width.
        if slots > 0 {
            let cause = self.lost_slot_cause();
            self.cpi.charge(cause, slots as u64);
        }
    }

    /// Diagnoses why commit broke out of its loop with slots to spare,
    /// from the machine state left at the break.
    fn lost_slot_cause(&self) -> LostCause {
        if self.halted {
            return LostCause::Drain;
        }
        if !self.ruu.is_empty() {
            // The head exists but is not done: the window is stalled. If
            // a structure is full the back end is the bottleneck;
            // otherwise it is ordinary execution latency.
            if self.ruu.len() >= self.config.ruu_size || self.lsq.len() >= self.config.lsq_size {
                LostCause::RuuLsqFull
            } else {
                LostCause::Other
            }
        } else if let Some(cause) = self.pending_refill {
            // Empty window while the front end refills after a squash:
            // the bubble belongs to the misprediction being recovered.
            cause
        } else if self
            .paths
            .alive_ids()
            .iter()
            .any(|&p| self.path_ctx[p.index()].stall_until > self.cycle)
        {
            LostCause::IcacheStarve
        } else {
            LostCause::Other
        }
    }

    /// Returns a retired or flushed micro-op's slot to the slab free
    /// list. The slot's contents stay in place (the wakeup list keeps
    /// its buffer) until [`Uop::reset`] on reuse.
    fn free_slot(&mut self, slot: u32) {
        self.slab[slot as usize].in_ruu = false;
        self.slab_free.push(slot);
    }

    /// Drops the LSQ entry belonging to the micro-op in `slot`, if any.
    fn lsq_remove_for(&mut self, slot: u32) {
        let ls = self.slab[slot as usize].lsq_slot;
        if ls != NIL {
            self.lsq.remove(ls);
            self.slab[slot as usize].lsq_slot = NIL;
        }
    }

    fn retire(&mut self, slot: u32) {
        let su = slot as usize;
        let (seq, pc, inst, wild) = {
            let u = &self.slab[su];
            (u.seq, u.pc, u.inst, u.wild)
        };
        let (result, actual_next_pc, taken_actual, dir_pred) = {
            let u = &self.slab[su];
            (u.result, u.actual_next_pc, u.taken_actual, u.dir_pred)
        };
        let (pred_next_pc, return_source, mem_addr, store_value) = {
            let u = &self.slab[su];
            (u.pred_next_pc, u.return_source, u.mem_addr, u.store_value)
        };
        assert!(!wild, "wild (out-of-image) micro-op reached commit");
        self.emit(Event::Commit {
            seq,
            pc,
            inst,
            next_pc: actual_next_pc.unwrap_or_else(|| pc.next()),
            pred_next_pc,
            return_source,
        });
        if let Some(golden) = &mut self.golden {
            assert_eq!(
                golden.pc, pc,
                "commit diverged from golden machine at seq {seq}"
            );
            let done = golden.execute(inst);
            if let Some(v) = done.dest_value {
                assert_eq!(result, Some(v), "result diverged at {pc} ({inst})");
            }
            if inst.control_kind().is_control() {
                assert_eq!(
                    actual_next_pc,
                    Some(done.next_pc),
                    "control target diverged at {pc} ({inst})"
                );
            }
        }

        // Architectural effects.
        if let Some(dest) = inst.dest() {
            let value = result.expect("done uop has result");
            self.regfile[dest.index() as usize] = value;
            // The producer is leaving the window: patch the consumers it
            // registered at rename time to the concrete value — only
            // those, not the whole window — and clear live rename-map
            // entries that still name it, so later fetches read the
            // register file. Entries for since-recycled consumer slots
            // fail the `Pending` check and are skipped; maps of dead
            // paths are rebuilt from scratch if ever revived.
            let pending = Src::Pending { seq, slot };
            let consumers = std::mem::take(&mut self.slab[su].consumers);
            for &(cslot, i) in &consumers {
                let s = &mut self.slab[cslot as usize].srcs[i as usize];
                if *s == pending {
                    *s = Src::Value(value);
                }
            }
            self.slab[su].consumers = consumers;
            let paths = &self.paths;
            let ctxs = &mut self.path_ctx;
            for &p in paths.alive_ids() {
                let m = &mut ctxs[p.index()].map[dest.index() as usize];
                if m.is_some_and(|e| e.seq == seq) {
                    *m = None;
                }
            }
        }
        if inst.is_store() {
            let addr = mem_addr.expect("store has address") as usize;
            self.mem_data[addr] = store_value.expect("store has value");
        }

        // Statistics and predictor training.
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        // A retire means the post-squash refill (if any) has delivered.
        self.pending_refill = None;
        let kind = inst.control_kind();
        match kind {
            ControlKind::Halt => self.halted = true,
            ControlKind::CondBranch { .. } => {
                let taken = taken_actual.expect("resolved branch");
                let pred = dir_pred.expect("conditional branch was predicted");
                let correct = pred.taken == taken;
                self.stats.cond_branches += 1;
                if !correct {
                    self.stats.cond_mispredictions += 1;
                }
                self.hybrid.train(pc, &pred, taken);
                self.confidence.update(pc, correct);
            }
            ControlKind::Call { .. } | ControlKind::IndirectCall => {
                self.stats.calls += 1;
                if kind == ControlKind::IndirectCall {
                    let target = actual_next_pc.expect("resolved call");
                    self.btb.update(pc, target);
                    if pred_next_pc != target {
                        self.stats.target_mispredictions += 1;
                    }
                }
            }
            ControlKind::IndirectJump => {
                let target = actual_next_pc.expect("resolved jump");
                self.btb.update(pc, target);
                if pred_next_pc != target {
                    self.stats.target_mispredictions += 1;
                }
            }
            ControlKind::Return => {
                let target = actual_next_pc.expect("resolved return");
                self.stats.returns += 1;
                let hit = pred_next_pc == target;
                if hit {
                    self.stats.return_hits += 1;
                    match return_source {
                        Some(ReturnSource::Ras) | Some(ReturnSource::Oracle) => {
                            self.stats.return_hits_ras += 1
                        }
                        Some(ReturnSource::Btb) => self.stats.return_hits_btb += 1,
                        _ => {}
                    }
                } else {
                    self.stats.target_mispredictions += 1;
                    // Forensics: classify the misprediction from the
                    // evidence bits the RAS recorded at pop time.
                    let cause = classify_return_mispredict(self.slab[su].pop_flags);
                    self.ras.record_mispredict(self.hart, cause);
                    self.emit(Event::ReturnMispredict { pc, cause });
                }
                if return_source == Some(ReturnSource::Fallthrough) {
                    self.stats.return_no_prediction += 1;
                }
                // Returns occupy BTB entries only when there is no stack.
                if matches!(self.config.return_predictor, ReturnPredictor::BtbOnly) {
                    self.btb.update(pc, target);
                }
            }
            ControlKind::Jump { .. } | ControlKind::Sequential => {}
        }
    }

    // ------------------------------------------------------------------
    // Writeback and control resolution
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        // Walk oldest-first so an older misprediction squashes younger
        // control before it resolves. Resolution never adds or removes
        // RUU entries (squashes only mark flags), so positional
        // iteration is safe and needs no snapshot of completions.
        for i in 0..self.ruu.len() {
            let slot = self.ruu[i];
            let su = slot as usize;
            let done = matches!(
                self.slab[su].state,
                UopState::Issued { done_at } if done_at <= self.cycle
            );
            if !done {
                continue;
            }
            self.slab[su].state = UopState::Done;
            let seq = self.slab[su].seq;
            self.emit(Event::Uop {
                seq,
                stage: UopStage::Complete,
            });
            self.wake_consumers(slot);
            let u = &self.slab[su];
            if u.squashed || !u.is_control() || u.resolved {
                continue;
            }
            self.resolve(slot);
        }
    }

    fn resolve(&mut self, slot: u32) {
        let su = slot as usize;
        let (seq, path, pred_next, actual_next, forked_child) = {
            let u = &mut self.slab[su];
            u.resolved = true;
            (
                u.seq,
                u.path,
                u.pred_next_pc,
                u.actual_next_pc.expect("control uop executed"),
                u.forked_child,
            )
        };
        let correct = pred_next == actual_next;
        self.emit(Event::BranchResolve {
            path: path.index() as u32,
            pc: self.slab[su].pc,
            mispredict: !correct,
        });

        // CPI attribution for anything this resolution squashes: a wrong
        // return is the paper's headline cost, any other wrong control
        // transfer is an ordinary branch mispredict. Multipath forks
        // charge the losing arm the same way — those squashed slots are
        // branch-speculation costs whichever arm wins.
        let kind = self.slab[su].inst.control_kind();
        let cause = if kind == ControlKind::Return {
            LostCause::ReturnMispredict
        } else {
            LostCause::BranchMispredict
        };

        if let Some(child) = forked_child {
            // The losing arm stops and its continuation after the branch
            // is squashed. When the child loses, that continuation is the
            // whole child subtree: its micro-ops all sit after `seq` and
            // its descendants all forked after it. When the parent loses,
            // the child forked at exactly `seq` survives, and the parent's
            // stack is retained: if an even older branch on the parent
            // later mispredicts, the parent is revived as the correct
            // continuation.
            let loser = if correct { child } else { path };
            self.paths.retire_path(loser);
            if correct {
                self.ras.on_path_death(child);
            } else {
                self.path_ctx[path.index()].fetch_stopped = true;
            }
            self.squash_lineage(loser, seq, LostCause::BranchMispredict);
            return;
        }

        // Conventional speculation point.
        let ckpt = self.slab[su].ras_ckpt.take();
        if correct {
            if let Some(handle) = ckpt {
                self.emit(Event::RasRelease { id: seq });
                self.ras.release(handle);
            }
            return;
        }

        // Misprediction: squash the continuation, repair the stack and
        // the speculative branch history, redirect fetch. The path may
        // have been retired by a forked branch younger than this one —
        // that fork (and the subtree that took over) is part of the
        // squashed continuation, so this path fetches again: revive it.
        self.squash_lineage(path, seq, cause);
        // The refill bubble until the next retire belongs to this
        // misprediction, not to fetch starvation.
        self.pending_refill = Some(cause);
        self.paths.revive(path);
        if let Some(handle) = ckpt {
            if self.tap.on(EventClass::Ras) {
                self.emit(Event::RasRestore {
                    hart: self.hart.index() as u8,
                    path: path.index() as u32,
                    id: seq,
                    policy: handle.describe().0,
                });
            }
            self.ras.restore(handle);
        }
        let (history_at_fetch, taken_actual) = {
            let u = &self.slab[su];
            (u.history_at_fetch, u.taken_actual)
        };
        let ctx = &mut self.path_ctx[path.index()];
        ctx.fetch_pc = actual_next;
        ctx.fetch_stopped = false;
        ctx.stall_until = 0;
        if let Some(h) = history_at_fetch {
            // Conditional branches re-insert the now-known outcome; other
            // speculation points (returns, indirect jumps) restore the
            // pre-fetch history unchanged.
            ctx.history = match taken_actual {
                Some(t) => (h << 1) | u64::from(t),
                None => h,
            };
        }
        self.rebuild_map(path);
    }

    /// Squashes every micro-op on the continuation of `base` after
    /// `min_seq`, kills paths forked out of that continuation, and flushes
    /// matching fetch-queue entries. RUU entries drain through commit
    /// later with their lost slot charged to `cause`.
    fn squash_lineage(&mut self, base: PathId, min_seq: u64, cause: LostCause) {
        // Kill paths whose fork chain leaves `base` strictly after
        // `min_seq` — including paths that already stopped fetching
        // (retired fork parents): their in-flight micro-ops are on the
        // squashed lineage too, so `on_lineage` below covers them.
        let mut killed = std::mem::take(&mut self.scratch_killed);
        killed.clear();
        self.paths.kill_forks_after_into(base, min_seq, &mut killed);
        for &q in &killed {
            self.ras.on_path_death(q);
        }
        self.scratch_killed = killed;

        let mut released = std::mem::take(&mut self.scratch_released);
        let mut squashed_seqs = std::mem::take(&mut self.scratch_seqs);
        released.clear();
        squashed_seqs.clear();
        for i in 0..self.ruu.len() {
            let su = self.ruu[i] as usize;
            let (upath, useq, usq) = {
                let u = &self.slab[su];
                (u.path, u.seq, u.squashed)
            };
            if !usq && self.paths.on_lineage(upath, useq, base, min_seq) {
                let handle = {
                    let u = &mut self.slab[su];
                    u.squashed = true;
                    u.squash_cause = cause;
                    u.ras_ckpt.take()
                };
                squashed_seqs.push(useq);
                self.stats.squashed_uops += 1;
                if let Some(handle) = handle {
                    self.emit(Event::RasRelease { id: useq });
                    released.push(handle);
                }
            }
        }
        {
            let paths = &self.paths;
            let lsq = &mut self.lsq;
            let mut s = lsq.head;
            while s != NIL {
                let e = &mut lsq.entries[s as usize];
                if paths.on_lineage(e.path, e.seq, base, min_seq) {
                    e.squashed = true;
                }
                s = lsq.next[s as usize];
            }
        }
        // Flush matching fetch-queue entries entirely (front-end flush),
        // rotating kept entries back so their order is preserved.
        for _ in 0..self.fetch_queue.len() {
            let (ready, slot) = self.fetch_queue.pop_front().expect("counted");
            let su = slot as usize;
            let (upath, useq) = {
                let u = &self.slab[su];
                debug_assert!(
                    !u.squashed,
                    "fetch-queue micro-ops are never marked squashed"
                );
                (u.path, u.seq)
            };
            if self.paths.on_lineage(upath, useq, base, min_seq) {
                squashed_seqs.push(useq);
                self.stats.squashed_uops += 1;
                if let Some(handle) = self.slab[su].ras_ckpt.take() {
                    self.emit(Event::RasRelease { id: useq });
                    released.push(handle);
                }
                self.free_slot(slot);
            } else {
                self.fetch_queue.push_back((ready, slot));
            }
        }
        self.emit(Event::Squash {
            path: base.index() as u32,
            uops: squashed_seqs.len() as u32,
        });
        for handle in released.drain(..) {
            self.ras.release(handle);
        }
        self.scratch_released = released;
        if self.tap.on(EventClass::Pipe) {
            for &seq in &squashed_seqs {
                self.emit(Event::Uop {
                    seq,
                    stage: UopStage::Squash,
                });
            }
        }
        self.scratch_seqs = squashed_seqs;
    }

    /// Rebuilds a path's rename map from the surviving in-flight
    /// micro-ops after a squash.
    fn rebuild_map(&mut self, path: PathId) {
        let mut map = [None; Reg::COUNT];
        let paths = &self.paths;
        let slab = &self.slab;
        let mut scan = |slot: u32| {
            let u = &slab[slot as usize];
            if !u.squashed && paths.visible(u.path, u.seq, path) {
                if let Some(dest) = u.inst.dest() {
                    map[dest.index() as usize] = Some(MapEntry { seq: u.seq, slot });
                }
            }
        };
        for &slot in self.ruu.iter() {
            scan(slot);
        }
        for &(_, slot) in self.fetch_queue.iter() {
            scan(slot);
        }
        self.path_ctx[path.index()].map = map;
    }

    // ------------------------------------------------------------------
    // Issue and execution
    // ------------------------------------------------------------------

    /// The value of a source operand, or `None` while its producer is
    /// still in the RUU and not `Done`. A producer that has left the RUU
    /// reads as 0: its retirement patched every live consumer to
    /// `Src::Value`, so only squashed consumers can still name it, and
    /// those never issue.
    fn operand(&self, src: Src) -> Option<i64> {
        match src {
            Src::None => Some(0),
            Src::Value(v) => Some(v),
            Src::Pending { seq, slot } => match self.slab.get(slot as usize) {
                Some(p) if p.seq == seq && p.in_ruu => {
                    if p.is_done() {
                        Some(p.result.unwrap_or(0))
                    } else {
                        None
                    }
                }
                _ => Some(0),
            },
        }
    }

    /// Both operand values of the micro-op in `slot`, once available.
    fn operands(&self, slot: u32) -> Option<(i64, i64)> {
        let [s0, s1] = self.slab[slot as usize].srcs;
        Some((self.operand(s0)?, self.operand(s1)?))
    }

    /// Whether the micro-op in `slot` belongs on the ready list.
    fn is_ready(&self, slot: u32) -> bool {
        let u = &self.slab[slot as usize];
        u.in_ruu && !u.squashed && u.state == UopState::Waiting && self.operands(slot).is_some()
    }

    /// Lists `(seq, slot)` on the ready list in seq order. A micro-op can
    /// be woken twice (both operands name one producer, or a recycled
    /// slot re-registered next to its stale registration), so an entry
    /// already present is not inserted again.
    fn list_ready(&mut self, seq: u64, slot: u32) {
        if let Err(at) = self.ready.binary_search(&(seq, slot)) {
            debug_assert!(
                self.ready.len() < self.ready.capacity(),
                "ready list overflow"
            );
            self.ready.insert(at, (seq, slot));
        }
    }

    /// Completion-time wakeup: lists every consumer on the producer's
    /// wakeup list that this completion made fully ready. Consumers still
    /// in the fetch queue are listed by dispatch instead.
    fn wake_consumers(&mut self, producer: u32) {
        let pending = Src::Pending {
            seq: self.slab[producer as usize].seq,
            slot: producer,
        };
        let consumers = std::mem::take(&mut self.slab[producer as usize].consumers);
        for &(cslot, i) in &consumers {
            if self.slab[cslot as usize].srcs[i as usize] == pending && self.is_ready(cslot) {
                self.list_ready(self.slab[cslot as usize].seq, cslot);
            }
        }
        self.slab[producer as usize].consumers = consumers;
    }

    /// Debug-build oracle: the live ready-list entries, with their operand
    /// values, must equal what a walk of the whole RUU selects under the
    /// original binary-search operand rule. Allocation-free, so it also
    /// runs inside the steady-state allocation tests.
    #[cfg(debug_assertions)]
    fn check_ready_list(&self) {
        let ruu_index = |seq: u64| {
            self.ruu
                .binary_search_by_key(&seq, |&slot| self.slab[slot as usize].seq)
                .ok()
        };
        let src_value = |src: Src| match src {
            Src::None => Some(0),
            Src::Value(v) => Some(v),
            Src::Pending { seq, .. } => match ruu_index(seq) {
                Some(idx) => {
                    let p = &self.slab[self.ruu[idx] as usize];
                    if p.is_done() {
                        Some(p.result.unwrap_or(0))
                    } else {
                        None
                    }
                }
                None => Some(0),
            },
        };
        let walk = self.ruu.iter().filter_map(|&slot| {
            let u = &self.slab[slot as usize];
            if u.squashed || u.state != UopState::Waiting {
                return None;
            }
            Some((slot, src_value(u.srcs[0])?, src_value(u.srcs[1])?))
        });
        let listed = self.ready.iter().filter_map(|&(seq, slot)| {
            let u = &self.slab[slot as usize];
            if u.seq != seq || u.squashed {
                return None;
            }
            let (a, b) = self.operands(slot)?;
            Some((slot, a, b))
        });
        assert!(
            listed.eq(walk),
            "ready list diverged from the RUU walk at cycle {}",
            self.cycle
        );
    }

    fn issue(&mut self) {
        #[cfg(debug_assertions)]
        self.check_ready_list();
        let mut slots = self.config.issue_width;
        // Oldest-first over the ready list, compacting in place: issued
        // and stale (squashed or recycled) entries are dropped — stale
        // ones on every cycle, even once the issue width is used up, so
        // a drained-then-recycled slot can never issue as the wrong
        // micro-op. A load held back by memory ordering stays listed.
        let mut ready = std::mem::take(&mut self.ready);
        let mut kept = 0;
        for i in 0..ready.len() {
            let (seq, slot) = ready[i];
            let u = &self.slab[slot as usize];
            if u.seq != seq || u.squashed {
                continue;
            }
            if slots > 0 {
                let (a, b) = self
                    .operands(slot)
                    .expect("listed micro-op lost an operand");
                if self.try_execute(slot, a, b) {
                    slots -= 1;
                    continue;
                }
            }
            ready[kept] = (seq, slot);
            kept += 1;
        }
        ready.truncate(kept);
        self.ready = ready;
    }

    /// Attempts to execute the micro-op in slab slot `slot` with operand
    /// values `a`, `b`. Returns false if it must keep waiting (memory
    /// ordering).
    fn try_execute(&mut self, slot: u32, a: i64, b: i64) -> bool {
        let su = slot as usize;
        let (seq, inst, pc, path) = {
            let u = &self.slab[su];
            (u.seq, u.inst, u.pc, u.path)
        };
        let lat = &self.config.latencies;
        let data_words = self.program.data_words();

        let mut result = None;
        let mut actual_next = None;
        let mut taken_actual = None;
        let mut latency = lat.alu;
        let mut mem_addr = None;
        let mut store_value = None;

        match inst {
            Inst::Nop | Inst::Halt => {
                if matches!(inst, Inst::Halt) {
                    actual_next = Some(pc);
                }
            }
            Inst::Alu { op, .. } => {
                result = Some(alu(op, a, b));
                latency = match op {
                    hydra_isa::AluOp::Mul => lat.mul,
                    hydra_isa::AluOp::Div => lat.div,
                    _ => lat.alu,
                };
            }
            Inst::AluImm { op, imm, .. } => {
                result = Some(alu(op, a, imm));
                latency = match op {
                    hydra_isa::AluOp::Mul => lat.mul,
                    hydra_isa::AluOp::Div => lat.div,
                    _ => lat.alu,
                };
            }
            Inst::LoadImm { imm, .. } => result = Some(imm),
            Inst::Load { offset, .. } => {
                let ea = effective_address(a, offset, data_words);
                // Conservative disambiguation: wait until every older
                // visible store knows its address.
                match self.load_forward(seq, path, ea) {
                    LoadOutcome::NotReady => return false,
                    LoadOutcome::Forwarded(v) => {
                        result = Some(v);
                        latency = lat.agen + self.memory.data_access(ea, false);
                    }
                    LoadOutcome::FromMemory => {
                        result = Some(self.mem_data[ea as usize]);
                        latency = lat.agen + self.memory.data_access(ea, false);
                    }
                }
                self.emit(Event::CacheAccess {
                    cache: Cache::L1d,
                    addr: ea,
                    hit: latency - lat.agen <= self.config.mem.l1_latency,
                });
                mem_addr = Some(ea);
            }
            Inst::Store { offset, .. } => {
                // srcs = [value (rs), base]; see dispatch.
                let ea = effective_address(b, offset, data_words);
                mem_addr = Some(ea);
                store_value = Some(a);
                latency = lat.agen + self.memory.data_access(ea, true);
                self.emit(Event::CacheAccess {
                    cache: Cache::L1d,
                    addr: ea,
                    hit: latency - lat.agen <= self.config.mem.l1_latency,
                });
                let ls = self.slab[su].lsq_slot;
                if ls != NIL {
                    let e = &mut self.lsq.entries[ls as usize];
                    e.addr = Some(ea);
                    e.value = Some(a);
                }
            }
            Inst::Branch { cond, target, .. } => {
                let t = branch_taken(cond, a, b);
                taken_actual = Some(t);
                actual_next = Some(if t { target } else { pc.next() });
                latency = lat.branch;
            }
            Inst::Jump { target } => {
                actual_next = Some(target);
                latency = lat.branch;
            }
            Inst::Call { target } => {
                result = Some(pc.next().word() as i64);
                actual_next = Some(target);
                latency = lat.branch;
            }
            Inst::CallIndirect { .. } => {
                result = Some(pc.next().word() as i64);
                actual_next = Some(Addr::new(a as u64));
                latency = lat.branch;
            }
            Inst::JumpIndirect { .. } => {
                actual_next = Some(Addr::new(a as u64));
                latency = lat.branch;
            }
            Inst::Return => {
                actual_next = Some(Addr::new(a as u64));
                latency = lat.branch;
            }
        }

        let u = &mut self.slab[su];
        u.result = result;
        u.actual_next_pc = actual_next;
        u.taken_actual = taken_actual;
        u.mem_addr = mem_addr;
        u.store_value = store_value;
        u.state = UopState::Issued {
            done_at: self.cycle + latency.max(1),
        };
        self.emit(Event::Uop {
            seq,
            stage: UopStage::Issue,
        });
        true
    }

    fn load_forward(&self, seq: u64, path: PathId, ea: u64) -> LoadOutcome {
        let mut forwarded = None;
        // Walk the LSQ in queue (= program) order through the links.
        let mut s = self.lsq.head;
        while s != NIL {
            let e = &self.lsq.entries[s as usize];
            s = self.lsq.next[s as usize];
            if e.seq >= seq {
                // Program order: the rest is this load and younger.
                break;
            }
            if !e.is_store || e.squashed {
                continue;
            }
            if !self.paths.visible(e.path, e.seq, path) {
                continue;
            }
            match e.addr {
                None => return LoadOutcome::NotReady,
                Some(addr) if addr == ea => {
                    forwarded = Some(e.value.expect("executed store has value"));
                }
                Some(_) => {}
            }
        }
        match forwarded {
            Some(v) => LoadOutcome::Forwarded(v),
            None => LoadOutcome::FromMemory,
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut slots = self.config.dispatch_width;
        while slots > 0 {
            let Some(&(ready_at, slot)) = self.fetch_queue.front() else {
                break;
            };
            if ready_at > self.cycle {
                break;
            }
            if self.ruu.len() >= self.config.ruu_size {
                break;
            }
            let needs_lsq = self.slab[slot as usize].inst.is_mem();
            if needs_lsq && self.lsq.len() >= self.config.lsq_size {
                break;
            }
            self.fetch_queue.pop_front();
            let (seq, path, is_store, squashed) = {
                let u = &self.slab[slot as usize];
                (u.seq, u.path, u.inst.is_store(), u.squashed)
            };
            self.emit(Event::Uop {
                seq,
                stage: UopStage::Dispatch,
            });
            if needs_lsq {
                let ls = self.lsq.push_back(LsqEntry {
                    seq,
                    path,
                    is_store,
                    addr: None,
                    value: None,
                    squashed,
                });
                self.slab[slot as usize].lsq_slot = ls;
            }
            self.ruu.push_back(slot);
            self.slab[slot as usize].in_ruu = true;
            // Producers that completed while this micro-op sat in the
            // fetch queue found it undispatched; list it here instead.
            // Dispatch is in seq order, so appending keeps the order.
            if self.is_ready(slot) {
                self.ready.push((seq, slot));
            }
            slots -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch (with fetch-time renaming and speculative RAS update)
    // ------------------------------------------------------------------

    /// Renames one source register of the micro-op in slab slot
    /// `consumer` at fetch time, registering it on the producer's wakeup
    /// list when the operand is pending.
    fn rename_src(&mut self, path: PathId, reg: Reg, consumer: u32, i: u8) {
        let src = if reg.is_zero() {
            Src::Value(0)
        } else {
            match self.path_ctx[path.index()].map[reg.index() as usize] {
                Some(e) => {
                    debug_assert_eq!(
                        self.slab[e.slot as usize].seq, e.seq,
                        "rename map names a recycled slab slot"
                    );
                    // A long-lived producer accumulates stale entries
                    // (squashed consumers whose slots were recycled stay
                    // registered until it retires). When the recycled
                    // buffer fills, drop entries that no longer pass the
                    // patch-time validity check instead of growing the
                    // buffer — this bounds the list by live consumers and
                    // keeps steady-state rename off the heap. Patching
                    // skips stale entries anyway, so behaviour is
                    // unchanged.
                    let pu = e.slot as usize;
                    if self.slab[pu].consumers.len() == self.slab[pu].consumers.capacity() {
                        let mut consumers = std::mem::take(&mut self.slab[pu].consumers);
                        let slab = &self.slab;
                        consumers.retain(|&(c, si)| {
                            slab[c as usize].srcs[si as usize]
                                == Src::Pending {
                                    seq: e.seq,
                                    slot: e.slot,
                                }
                        });
                        self.slab[pu].consumers = consumers;
                    }
                    self.slab[pu].consumers.push((consumer, i));
                    Src::Pending {
                        seq: e.seq,
                        slot: e.slot,
                    }
                }
                None => Src::Value(self.regfile[reg.index() as usize]),
            }
        };
        self.slab[consumer as usize].srcs[i as usize] = src;
    }

    fn fetch(&mut self) {
        if self.halted {
            return;
        }
        // Round-robin path selection over fetchable live paths: count
        // them, advance the rotor, then walk to the rotor-th candidate
        // (two passes over the live list — no candidate buffer).
        let fetchable = |ctx: &PathCtx, cycle: u64| !ctx.fetch_stopped && ctx.stall_until <= cycle;
        let mut count = 0;
        for &p in self.paths.alive_ids() {
            if fetchable(&self.path_ctx[p.index()], self.cycle) {
                count += 1;
            }
        }
        if count == 0 {
            return;
        }
        self.fetch_rotor = (self.fetch_rotor + 1) % count;
        let mut path = PathId::ROOT;
        let mut nth = 0;
        for &p in self.paths.alive_ids() {
            if fetchable(&self.path_ctx[p.index()], self.cycle) {
                if nth == self.fetch_rotor {
                    path = p;
                    break;
                }
                nth += 1;
            }
        }

        let mut fetched = 0;
        while fetched < self.config.fetch_width && self.fetch_queue.len() < self.config.fetch_queue
        {
            let pc = self.path_ctx[path.index()].fetch_pc;
            // Instruction-cache access; a miss stalls this path.
            let lat = self.memory.inst_access(pc.word());
            self.emit(Event::CacheAccess {
                cache: Cache::L1i,
                addr: pc.word(),
                hit: lat <= self.config.mem.l1_latency,
            });
            if lat > self.config.mem.l1_latency {
                self.path_ctx[path.index()].stall_until = self.cycle + lat;
                break;
            }
            let (inst, wild) = match self.program.fetch(pc) {
                Some(i) => (i, false),
                None => (Inst::Nop, true),
            };
            let seq = self.next_seq;
            self.next_seq += 1;

            // Recycle a slab slot in place; the slab's capacity bounds
            // total occupancy, so the free list cannot be empty here.
            let slot = self.slab_free.pop().expect("uop slab exhausted");
            let su = slot as usize;
            self.slab[su].reset(seq, path, pc, inst, pc.next());
            self.slab[su].wild = wild;

            // Rename sources (operand order matters; see `try_execute`),
            // registering this micro-op on each pending producer's
            // wakeup list.
            let srcs = inst.sources();
            match inst {
                Inst::Store { rs, base, .. } => {
                    self.rename_src(path, rs, slot, 0);
                    self.rename_src(path, base, slot, 1);
                }
                _ => {
                    for (i, &r) in srcs.iter().take(2).enumerate() {
                        self.rename_src(path, r, slot, i as u8);
                    }
                }
            }

            // Predict the next PC and update the RAS speculatively.
            let mut stop_block = false;
            let kind = inst.control_kind();
            let next = match kind {
                ControlKind::Sequential => pc.next(),
                ControlKind::Halt => {
                    self.path_ctx[path.index()].fetch_stopped = true;
                    stop_block = true;
                    pc
                }
                ControlKind::CondBranch { target } => {
                    let history = self.path_ctx[path.index()].history;
                    let pred = self.hybrid.predict_with_history(pc, history);
                    self.slab[su].dir_pred = Some(pred);
                    self.slab[su].history_at_fetch = Some(history);
                    self.path_ctx[path.index()].history = (history << 1) | u64::from(pred.taken);
                    let mut forked = false;
                    if self.config.multipath.is_some() && !self.confidence.is_confident(pc) {
                        if let Some(child) = self.paths.fork(path, seq) {
                            // The child fetches the arm we are *not*
                            // following.
                            let other = if pred.taken { pc.next() } else { target };
                            let parent_map = self.path_ctx[path.index()].map;
                            let mut ctx = PathCtx::new(other);
                            ctx.map = parent_map;
                            // The child follows the other arm, so its
                            // speculative history gets the opposite bit.
                            ctx.history = (history << 1) | u64::from(!pred.taken);
                            ctx.stall_until = self.cycle + 1;
                            debug_assert_eq!(self.path_ctx.len(), child.index());
                            self.path_ctx.push(ctx);
                            self.ras.on_fork(path, child);
                            self.emit(Event::RasFork {
                                parent: path.index() as u32,
                                child: child.index() as u32,
                            });
                            self.slab[su].forked_child = Some(child);
                            self.stats.forks += 1;
                            self.stats.max_live_paths = self
                                .stats
                                .max_live_paths
                                .max(self.paths.live_count() as u64);
                            forked = true;
                        }
                    }
                    if !forked {
                        self.checkpoint_ras(su, path);
                    }
                    if pred.taken {
                        stop_block = true;
                        target
                    } else {
                        pc.next()
                    }
                }
                ControlKind::Jump { target } => {
                    stop_block = true;
                    target
                }
                ControlKind::Call { target } => {
                    self.push_ras(path, pc.next().word());
                    stop_block = true;
                    target
                }
                ControlKind::IndirectCall => {
                    self.push_ras(path, pc.next().word());
                    self.checkpoint_ras(su, path);
                    self.slab[su].history_at_fetch = Some(self.path_ctx[path.index()].history);
                    stop_block = true;
                    self.btb.lookup(pc).unwrap_or_else(|| pc.next())
                }
                ControlKind::IndirectJump => {
                    self.checkpoint_ras(su, path);
                    self.slab[su].history_at_fetch = Some(self.path_ctx[path.index()].history);
                    stop_block = true;
                    self.btb.lookup(pc).unwrap_or_else(|| pc.next())
                }
                ControlKind::Return => {
                    let (target, source) = self.predict_return(path, pc);
                    self.slab[su].return_source = Some(source);
                    // Snapshot the RAS's pop-time evidence so commit can
                    // classify a misprediction long after the stack has
                    // moved on.
                    self.slab[su].pop_flags = self.ras.last_pop_flags();
                    self.checkpoint_ras(su, path);
                    self.slab[su].history_at_fetch = Some(self.path_ctx[path.index()].history);
                    stop_block = true;
                    target
                }
            };
            self.slab[su].pred_next_pc = next;
            self.stats.fetched_uops += 1;
            self.emit(Event::Fetch { seq, pc, inst });
            if let Some(dest) = inst.dest() {
                self.path_ctx[path.index()].map[dest.index() as usize] =
                    Some(MapEntry { seq, slot });
            }
            self.fetch_queue
                .push_back((self.cycle + self.config.decode_latency, slot));
            self.path_ctx[path.index()].fetch_pc = next;
            fetched += 1;
            if wild {
                // Stop chasing instructions outside the image; an older
                // misprediction will redirect us.
                self.path_ctx[path.index()].fetch_stopped = true;
                break;
            }
            if stop_block {
                break;
            }
        }
    }

    /// Pushes a call's return address onto `path`'s stack.
    fn push_ras(&mut self, path: PathId, addr: u64) {
        if let Some(overflow) = self.ras.push(self.hart, path, addr) {
            self.emit(Event::RasPush {
                hart: self.hart.index() as u8,
                path: path.index() as u32,
                addr,
                overflow,
            });
        }
    }

    /// Pops `path`'s stack for a return prediction.
    fn pop_ras(&mut self, path: PathId) -> Option<u64> {
        let predicted = self.ras.pop(self.hart, path);
        self.emit(Event::RasPop {
            hart: self.hart.index() as u8,
            path: path.index() as u32,
            predicted,
            flags: self.ras.last_pop_flags(),
        });
        predicted
    }

    /// Takes a repair checkpoint for the speculation point in slab slot
    /// `su`, if the shadow budget has room.
    fn checkpoint_ras(&mut self, su: usize, path: PathId) {
        let ckpt = self.ras.checkpoint(self.hart, path);
        if let Some(handle) = &ckpt {
            if self.tap.on(EventClass::Ras) {
                let (policy, words) = handle.describe();
                self.emit(Event::RasCheckpoint {
                    hart: self.hart.index() as u8,
                    path: path.index() as u32,
                    id: self.slab[su].seq,
                    policy,
                    words,
                });
            }
        }
        self.slab[su].ras_ckpt = ckpt;
    }

    fn predict_return(&mut self, path: PathId, pc: Addr) -> (Addr, ReturnSource) {
        match self.config.return_predictor {
            ReturnPredictor::Perfect => {
                let popped = self.pop_ras(path);
                match popped {
                    Some(t) => (Addr::new(t), ReturnSource::Oracle),
                    None => (pc.next(), ReturnSource::Fallthrough),
                }
            }
            ReturnPredictor::Ras { .. } | ReturnPredictor::SelfCheckpointing { .. } => {
                let popped = self.pop_ras(path);
                match popped {
                    Some(t) => (Addr::new(t), ReturnSource::Ras),
                    // Invalidated entry (valid-bits) or stale slot: fall back
                    // to the BTB, then to sequential.
                    None => match self.btb.lookup(pc) {
                        Some(t) => (t, ReturnSource::Btb),
                        None => (pc.next(), ReturnSource::Fallthrough),
                    },
                }
            }
            ReturnPredictor::BtbOnly => match self.btb.lookup(pc) {
                Some(t) => (t, ReturnSource::Btb),
                None => (pc.next(), ReturnSource::Fallthrough),
            },
        }
    }
}

enum LoadOutcome {
    NotReady,
    Forwarded(i64),
    FromMemory,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FuLatencies, MultipathConfig};
    use hydra_isa::{AluOp, Cond, ProgramBuilder};
    use ras_core::{MultipathStackPolicy, RepairPolicy};

    fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        b.build().unwrap()
    }

    fn run_golden(config: CoreConfig, program: &Program, max: u64) -> (Core, SimStats) {
        let mut core = Core::new(config, program);
        core.enable_golden_check();
        let stats = core.run(max);
        (core, stats)
    }

    #[test]
    fn straight_line_program_commits_in_order() {
        let p = build(|b| {
            b.load_imm(Reg::R1, 6);
            b.load_imm(Reg::R2, 7);
            b.alu(AluOp::Mul, Reg::R3, Reg::R1, Reg::R2);
            b.alu_imm(AluOp::Add, Reg::R4, Reg::R3, 1);
            b.halt();
        });
        let (core, stats) = run_golden(CoreConfig::baseline(), &p, 100);
        assert!(core.is_halted());
        assert_eq!(stats.committed, 5);
        assert_eq!(core.arch_reg(Reg::R3), 42);
        assert_eq!(core.arch_reg(Reg::R4), 43);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn dependent_chain_respects_latency() {
        // 10 dependent multiplies: cycles must exceed 10 * mul latency.
        let p = build(|b| {
            b.load_imm(Reg::R1, 1);
            for _ in 0..10 {
                b.alu_imm(AluOp::Mul, Reg::R1, Reg::R1, 3);
            }
            b.halt();
        });
        let (core, stats) = run_golden(CoreConfig::baseline(), &p, 100);
        assert_eq!(core.arch_reg(Reg::R1), 3i64.pow(10));
        assert!(
            stats.cycles >= 10 * FuLatencies::default().mul,
            "cycles {}",
            stats.cycles
        );
    }

    #[test]
    fn independent_ops_exploit_width() {
        // A predictable loop of independent adds: once caches and the
        // predictor are warm, a 4-wide core must sustain IPC > 1.
        let p = build(|b| {
            let top = b.fresh_label();
            b.load_imm(Reg::R7, 500);
            b.bind(top).unwrap();
            for i in 0..8i64 {
                b.alu_imm(AluOp::Add, Reg::gpr(1 + (i % 6) as u8), Reg::ZERO, i);
            }
            b.alu_imm(AluOp::Sub, Reg::R7, Reg::R7, 1);
            b.branch(Cond::Gt, Reg::R7, Reg::ZERO, top);
            b.halt();
        });
        let (_, stats) = run_golden(CoreConfig::baseline(), &p, 100_000);
        assert!(stats.ipc() > 1.0, "ipc {}", stats.ipc());
    }

    #[test]
    fn loads_and_stores_forward_correctly() {
        let p = build(|b| {
            b.load_imm(Reg::R1, 1234);
            b.load_imm(Reg::R2, 100);
            b.store(Reg::R1, Reg::R2, 0);
            b.load(Reg::R3, Reg::R2, 0); // must forward 1234
            b.alu_imm(AluOp::Add, Reg::R4, Reg::R3, 1);
            b.halt();
        });
        let (core, _) = run_golden(CoreConfig::baseline(), &p, 200);
        assert_eq!(core.arch_reg(Reg::R4), 1235);
    }

    #[test]
    fn call_return_round_trip() {
        let p = build(|b| {
            let f = b.fresh_label();
            b.call(f);
            b.load_imm(Reg::R2, 9);
            b.halt();
            b.bind(f).unwrap();
            b.load_imm(Reg::R1, 5);
            b.ret();
        });
        let (core, stats) = run_golden(CoreConfig::baseline(), &p, 100);
        assert_eq!(core.arch_reg(Reg::R1), 5);
        assert_eq!(core.arch_reg(Reg::R2), 9);
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.return_hits, 1, "RAS predicts the return");
    }

    #[test]
    fn mispredicted_branch_recovers() {
        // A data-dependent branch the cold predictor gets wrong at least
        // once; correctness must be unaffected.
        let p = build(|b| {
            let els = b.fresh_label();
            let done = b.fresh_label();
            b.load_imm(Reg::R1, 1);
            b.branch(Cond::Ne, Reg::R1, Reg::ZERO, els); // taken; cold predicts NT
            b.load_imm(Reg::R2, 111); // wrong path
            b.jump(done);
            b.bind(els).unwrap();
            b.load_imm(Reg::R2, 222);
            b.bind(done).unwrap();
            b.halt();
        });
        let (core, stats) = run_golden(CoreConfig::baseline(), &p, 100);
        assert_eq!(core.arch_reg(Reg::R2), 222);
        assert_eq!(stats.cond_mispredictions, 1);
        assert!(stats.squashed_uops > 0, "wrong path was fetched");
    }

    #[test]
    fn wrong_path_execution_corrupts_unrepaired_ras() {
        // Loop: call f; branch that mispredicts into a region with a
        // return (pops the stack wrongly). With RepairPolicy::None some
        // returns mispredict; with TosPointerAndContents none should.
        fn workload() -> Program {
            build(|b| {
                let f = b.fresh_label();
                let g = b.fresh_label();
                let loop_top = b.fresh_label();
                let after = b.fresh_label();
                b.load_imm(Reg::R5, 200); // loop counter
                b.load_imm(Reg::R6, 0);
                b.bind(loop_top).unwrap();
                b.call(f);
                // alternating branch: mispredicts while cold
                b.alu_imm(AluOp::Xor, Reg::R6, Reg::R6, 1);
                b.branch(Cond::Eq, Reg::R6, Reg::ZERO, after);
                // "then" side contains a call+return pair so the wrong
                // path pops/pushes the RAS when control goes the other way
                b.call(g);
                b.bind(after).unwrap();
                b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
                b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
                b.halt();
                b.bind(f).unwrap();
                b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
                b.ret();
                b.bind(g).unwrap();
                b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
                b.ret();
            })
        }
        let p = workload();
        let none = {
            let cfg = CoreConfig::with_return_predictor(ReturnPredictor::Ras {
                entries: 32,
                repair: RepairPolicy::None,
            });
            let (_, s) = run_golden(cfg, &p, 20_000);
            s
        };
        let repaired = {
            let cfg = CoreConfig::baseline();
            let (_, s) = run_golden(cfg, &p, 20_000);
            s
        };
        assert!(none.returns > 100);
        assert!(
            repaired.return_hit_rate().value() >= none.return_hit_rate().value(),
            "repair must not hurt: {} vs {}",
            repaired.return_hit_rate(),
            none.return_hit_rate()
        );
        assert!(
            repaired.return_hit_rate().percent() > 99.0,
            "ptr+contents repairs everything here: {}",
            repaired.return_hit_rate()
        );
    }

    #[test]
    fn recursion_with_software_stack() {
        let p = build(|b| {
            let f = b.fresh_label();
            let base = b.fresh_label();
            b.load_imm(Reg::R1, 6);
            b.call(f);
            b.halt();
            b.bind(f).unwrap();
            b.branch(Cond::Le, Reg::R1, Reg::ZERO, base);
            b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
            b.alu_imm(AluOp::Add, Reg::SP, Reg::SP, 1);
            b.store(Reg::RA, Reg::SP, 0);
            b.call(f);
            b.load(Reg::RA, Reg::SP, 0);
            b.alu_imm(AluOp::Sub, Reg::SP, Reg::SP, 1);
            b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
            b.bind(base).unwrap();
            b.ret();
        });
        let (core, stats) = run_golden(CoreConfig::baseline(), &p, 10_000);
        assert_eq!(core.arch_reg(Reg::R2), 6);
        assert_eq!(stats.calls, 7);
        assert_eq!(stats.returns, 7);
    }

    #[test]
    fn indirect_call_resolves_via_btb_training() {
        let p = build(|b| {
            let f = b.fresh_label();
            let loop_top = b.fresh_label();
            b.load_imm(Reg::R5, 50);
            b.load_label_addr(Reg::R4, f);
            b.bind(loop_top).unwrap();
            b.call_indirect(Reg::R4);
            b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
            b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
            b.halt();
            b.bind(f).unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.ret();
        });
        let (core, stats) = run_golden(CoreConfig::baseline(), &p, 10_000);
        assert_eq!(core.arch_reg(Reg::R1), 50);
        assert_eq!(stats.calls, 50);
        // After BTB warm-up the indirect target predicts correctly, so
        // only the first few mispredict.
        assert!(stats.target_mispredictions < 10);
    }

    #[test]
    fn btb_only_returns_are_poor_with_two_callers() {
        // One function called from two sites alternately: BTB-only return
        // prediction must do badly; a RAS must be near-perfect.
        fn program() -> Program {
            build(|b| {
                let f = b.fresh_label();
                let loop_top = b.fresh_label();
                b.load_imm(Reg::R5, 100);
                b.bind(loop_top).unwrap();
                b.call(f); // site A
                b.call(f); // site B
                b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
                b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
                b.halt();
                b.bind(f).unwrap();
                b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
                b.ret();
            })
        }
        let p = program();
        let (_, btb_stats) = run_golden(
            CoreConfig::with_return_predictor(ReturnPredictor::BtbOnly),
            &p,
            50_000,
        );
        let (_, ras_stats) = run_golden(CoreConfig::baseline(), &p, 50_000);
        assert!(
            btb_stats.return_hit_rate().percent() < 40.0,
            "alternating callers thrash the BTB: {}",
            btb_stats.return_hit_rate()
        );
        assert!(
            ras_stats.return_hit_rate().percent() > 98.0,
            "RAS pairs calls with returns: {}",
            ras_stats.return_hit_rate()
        );
    }

    #[test]
    fn perfect_return_predictor_never_misses() {
        let p = build(|b| {
            let f = b.fresh_label();
            let loop_top = b.fresh_label();
            b.load_imm(Reg::R5, 60);
            b.bind(loop_top).unwrap();
            b.call(f);
            b.call(f);
            b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
            b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
            b.halt();
            b.bind(f).unwrap();
            b.ret();
        });
        let (_, stats) = run_golden(
            CoreConfig::with_return_predictor(ReturnPredictor::Perfect),
            &p,
            50_000,
        );
        assert_eq!(stats.return_hits, stats.returns);
    }

    #[test]
    fn deep_recursion_overflows_small_stack() {
        // Recursion depth 16 over a 4-entry stack: overflow wraps, the
        // deep returns mispredict, but execution stays correct.
        let p = build(|b| {
            let f = b.fresh_label();
            let base = b.fresh_label();
            b.load_imm(Reg::R1, 16);
            b.call(f);
            b.halt();
            b.bind(f).unwrap();
            b.branch(Cond::Le, Reg::R1, Reg::ZERO, base);
            b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
            b.alu_imm(AluOp::Add, Reg::SP, Reg::SP, 1);
            b.store(Reg::RA, Reg::SP, 0);
            b.call(f);
            b.load(Reg::RA, Reg::SP, 0);
            b.alu_imm(AluOp::Sub, Reg::SP, Reg::SP, 1);
            b.bind(base).unwrap();
            b.ret();
        });
        let cfg = CoreConfig::with_return_predictor(ReturnPredictor::Ras {
            entries: 4,
            repair: RepairPolicy::TosPointerAndContents,
        });
        let (core, stats) = run_golden(cfg, &p, 10_000);
        assert!(core.is_halted());
        assert!(stats.ras_overflows > 0);
        assert!(stats.return_hits < stats.returns);
    }

    #[test]
    fn multipath_forks_and_stays_correct() {
        // Hard-to-predict alternation drives low confidence and forking.
        let p = build(|b| {
            let f = b.fresh_label();
            let after = b.fresh_label();
            let loop_top = b.fresh_label();
            b.load_imm(Reg::R5, 300);
            b.load_imm(Reg::R6, 0);
            b.bind(loop_top).unwrap();
            b.alu_imm(AluOp::Xor, Reg::R6, Reg::R6, 1);
            b.branch(Cond::Eq, Reg::R6, Reg::ZERO, after);
            b.call(f);
            b.bind(after).unwrap();
            b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
            b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
            b.halt();
            b.bind(f).unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.ret();
        });
        let cfg = CoreConfig {
            multipath: Some(MultipathConfig {
                max_paths: 2,
                stack_policy: MultipathStackPolicy::PerPath,
            }),
            ..CoreConfig::default()
        };
        let (core, stats) = run_golden(cfg, &p, 50_000);
        assert!(core.is_halted());
        assert_eq!(core.arch_reg(Reg::R1), 150);
        assert!(stats.forks > 0, "low-confidence branches forked");
        assert_eq!(stats.max_live_paths, 2);
    }

    #[test]
    fn multipath_four_paths_correct() {
        let p = build(|b| {
            let after1 = b.fresh_label();
            let after2 = b.fresh_label();
            let loop_top = b.fresh_label();
            b.load_imm(Reg::R5, 200);
            b.load_imm(Reg::R6, 0);
            b.bind(loop_top).unwrap();
            b.alu_imm(AluOp::Xor, Reg::R6, Reg::R6, 1);
            b.branch(Cond::Eq, Reg::R6, Reg::ZERO, after1);
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.bind(after1).unwrap();
            b.alu_imm(AluOp::Xor, Reg::R7, Reg::R7, 1);
            b.branch(Cond::Ne, Reg::R7, Reg::ZERO, after2);
            b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
            b.bind(after2).unwrap();
            b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
            b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
            b.halt();
        });
        let cfg = CoreConfig::multipath(4, MultipathStackPolicy::PerPath);
        let (core, stats) = run_golden(cfg, &p, 50_000);
        assert!(core.is_halted());
        assert_eq!(core.arch_reg(Reg::R1), 100);
        assert_eq!(core.arch_reg(Reg::R2), 100);
        assert!(stats.forks > 0);
    }

    #[test]
    fn checkpoint_budget_limits_repair() {
        let p = build(|b| {
            b.load_imm(Reg::R1, 1);
            b.halt();
        });
        let cfg = CoreConfig {
            checkpoint_budget: Some(4),
            ..CoreConfig::default()
        };
        let core = Core::new(cfg, &p);
        assert_eq!(core.config().checkpoint_budget, Some(4));
    }

    #[test]
    fn stats_accessors() {
        let p = build(|b| {
            b.halt();
        });
        let mut core = Core::new(CoreConfig::baseline(), &p);
        assert!(!core.is_halted());
        let s = core.run(10);
        assert!(core.is_halted());
        assert_eq!(s.committed, 1);
        assert!(core.cycle() > 0);
    }
}

/// Regression tests for multipath corner cases found by property testing.
#[cfg(test)]
mod multipath_regressions {
    use super::*;
    use hydra_workloads::{Workload, WorkloadSpec};
    use ras_core::MultipathStackPolicy;

    /// The workload shape that exposed both bugs: all-leaf functions,
    /// easy-biased branches, tiny main loop — producing dense chains of
    /// forks where fork parents retire and must later be squashed or
    /// revived by older branches.
    fn nasty_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "regression".to_string(),
            functions: 6,
            call_depth: 1,
            filler: (1, 4),
            segments: (1, 4),
            call_prob: 0.0,
            indirect_frac: 0.0,
            hard_branch_prob: 0.0,
            hard_branch_takenness: 0.5,
            easy_branch_prob: 0.24113697913807106,
            loop_prob: 0.0,
            loop_iters: (2, 5),
            mem_prob: 0.0,
            recursion_depth: 0,
            mutual_recursion: false,
            outer_iterations: 20,
            calls_in_main: 2,
            call_table_slots: 4,
            data_words: 16_384,
        }
    }

    /// Bug 1: a path retired by a younger fork must be *revived* when an
    /// older branch on it mispredicts (otherwise no path fetches and the
    /// core wedges).
    ///
    /// Bug 2: a retired path inside a killed subtree must still have its
    /// in-flight micro-ops squashed (`kill_forks_after_into` must return
    /// subtree membership, not just live paths), or wrong-path micro-ops
    /// commit.
    #[test]
    fn retired_fork_parents_are_revived_and_squashed_correctly() {
        for (seed, paths) in [(10u64, 3usize), (10, 2), (10, 4), (491, 3), (7, 4)] {
            let w = Workload::generate(&nasty_spec(), seed).unwrap();
            let mut core = Core::new(
                CoreConfig::multipath(paths, MultipathStackPolicy::PerPath),
                w.program(),
            );
            core.enable_golden_check();
            let stats = core.run(3_000_000);
            assert!(core.is_halted(), "seed {seed} paths {paths}");
            assert!(stats.committed > 500, "seed {seed} paths {paths}");
        }
    }

    /// The go-like workload that wedged the original multipath
    /// implementation (dense forking under a unified stack).
    #[test]
    fn dense_forking_with_unified_stack_makes_progress() {
        let spec = WorkloadSpec::by_name("go").unwrap();
        let w = Workload::generate(&spec, 12345).unwrap();
        let mut core = Core::new(
            CoreConfig::multipath(
                2,
                MultipathStackPolicy::Unified {
                    repair: ras_core::RepairPolicy::None,
                },
            ),
            w.program(),
        );
        let stats = core.run(120_000);
        // run() finishes the commit group in flight, so it may overshoot
        // by up to commit_width - 1.
        assert!(stats.committed >= 120_000);
        assert!(stats.forks > 0);
    }
}

/// Focused tests of memory ordering, structural stalls and front-end
/// behaviour.
#[cfg(test)]
mod microarch_tests {
    use super::*;
    use hydra_isa::{AluOp, Cond, ProgramBuilder};

    fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        b.build().unwrap()
    }

    #[test]
    fn store_load_aliasing_chain_is_exact() {
        // A chain of stores and loads to aliasing addresses; forwarding
        // and memory ordering must produce exact values.
        let p = build(|b| {
            b.load_imm(Reg::R1, 100); // base
            for i in 0..8i64 {
                b.alu_imm(AluOp::Add, Reg::R2, Reg::ZERO, 10 + i);
                b.store(Reg::R2, Reg::R1, i % 3); // addresses 100..102, reused
                b.load(Reg::R3, Reg::R1, i % 3); // must see the store
                b.alu(AluOp::Add, Reg::R4, Reg::R4, Reg::R3);
            }
            b.halt();
        });
        let mut core = Core::new(CoreConfig::baseline(), &p);
        core.enable_golden_check();
        core.run(1_000);
        // sum of 10..=17
        assert_eq!(core.arch_reg(Reg::R4), (10..18).sum::<i64>());
    }

    #[test]
    fn lsq_pressure_stalls_but_stays_correct() {
        // More memory ops in flight than LSQ entries.
        let p = build(|b| {
            b.load_imm(Reg::R1, 500);
            for i in 0..64i64 {
                b.store(Reg::R1, Reg::ZERO, 200 + i);
                b.load(Reg::R2, Reg::ZERO, 200 + i);
            }
            b.halt();
        });
        let cfg = CoreConfig {
            lsq_size: 2,
            ..CoreConfig::baseline()
        };
        let mut core = Core::new(cfg, &p);
        core.enable_golden_check();
        let stats = core.run(10_000);
        assert!(core.is_halted());
        assert_eq!(stats.committed, 130);
    }

    #[test]
    fn ruu_of_one_serializes_execution() {
        let p = build(|b| {
            for i in 0..10 {
                b.load_imm(Reg::R1, i);
            }
            b.halt();
        });
        let cfg = CoreConfig {
            ruu_size: 1,
            ..CoreConfig::baseline()
        };
        let mut core = Core::new(cfg, &p);
        core.enable_golden_check();
        let stats = core.run(100);
        assert!(core.is_halted());
        assert!(
            stats.ipc() < 1.0,
            "single-entry RUU serializes: {}",
            stats.ipc()
        );
    }

    #[test]
    fn wrong_path_loads_do_not_corrupt_architectural_memory() {
        // A mispredicted branch guards a store; the wrong path executes
        // the store speculatively but it must never reach memory.
        let p = build(|b| {
            let skip = b.fresh_label();
            b.load_imm(Reg::R1, 1);
            b.load_imm(Reg::R2, 0xbad);
            // Cold predictor predicts not-taken; branch is taken, so the
            // store below is wrong-path work.
            b.branch(Cond::Ne, Reg::R1, Reg::ZERO, skip);
            b.store(Reg::R2, Reg::ZERO, 300);
            b.bind(skip).unwrap();
            b.load(Reg::R3, Reg::ZERO, 300);
            b.halt();
        });
        let mut core = Core::new(CoreConfig::baseline(), &p);
        core.enable_golden_check();
        core.run(100);
        assert_eq!(core.arch_reg(Reg::R3), 0, "speculative store squashed");
    }

    #[test]
    fn fetch_queue_flush_discards_wrong_path() {
        // A tight mispredicting loop: squashed fetch-queue entries must
        // not dispatch. Golden check enforces correctness; this test
        // additionally confirms wrong-path uops were actually fetched.
        let p = build(|b| {
            let top = b.fresh_label();
            b.load_imm(Reg::R1, 64);
            b.load_imm(Reg::R2, 0);
            b.bind(top).unwrap();
            b.alu_imm(AluOp::Xor, Reg::R2, Reg::R2, 1);
            // Alternates every iteration: mispredicts often while cold.
            let skip = b.fresh_label();
            b.branch(Cond::Eq, Reg::R2, Reg::ZERO, skip);
            b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 1);
            b.bind(skip).unwrap();
            b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
            b.branch(Cond::Gt, Reg::R1, Reg::ZERO, top);
            b.halt();
        });
        let mut core = Core::new(CoreConfig::baseline(), &p);
        core.enable_golden_check();
        let stats = core.run(10_000);
        assert!(core.is_halted());
        assert_eq!(core.arch_reg(Reg::R3), 32);
        assert!(stats.squashed_uops > 0);
    }

    #[test]
    fn narrow_machine_matches_wide_machine_architecturally() {
        let p = build(|b| {
            let f = b.fresh_label();
            let top = b.fresh_label();
            b.load_imm(Reg::R5, 30);
            b.bind(top).unwrap();
            b.call(f);
            b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
            b.branch(Cond::Gt, Reg::R5, Reg::ZERO, top);
            b.halt();
            b.bind(f).unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 3);
            b.ret();
        });
        let run_width = |w: usize| {
            let cfg = CoreConfig {
                fetch_width: w,
                dispatch_width: w,
                issue_width: w,
                commit_width: w,
                ..CoreConfig::baseline()
            };
            let mut core = Core::new(cfg, &p);
            core.enable_golden_check();
            let s = core.run(10_000);
            (core.arch_reg(Reg::R1), s.cycles)
        };
        let (r1_narrow, cyc_narrow) = run_width(1);
        let (r1_wide, cyc_wide) = run_width(8);
        assert_eq!(r1_narrow, 90);
        assert_eq!(r1_wide, 90);
        assert!(cyc_narrow > cyc_wide, "wider machine is faster");
    }

    #[test]
    fn cold_icache_misses_slow_fetch() {
        let p = build(|b| {
            for i in 0..100 {
                b.load_imm(Reg::R1, i);
            }
            b.halt();
        });
        let run_with_mem = |slow: bool| {
            let mut cfg = CoreConfig::baseline();
            if slow {
                cfg.mem.memory_latency = 500;
            }
            let mut core = Core::new(cfg, &p);
            core.run(1_000).cycles
        };
        assert!(run_with_mem(true) > run_with_mem(false));
    }
}

/// Tests for the Jourdan self-checkpointing configuration.
#[cfg(test)]
mod jourdan_tests {
    use super::*;
    use hydra_isa::{AluOp, Cond, ProgramBuilder};

    fn mispredicting_call_workload() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.fresh_label();
        let g = b.fresh_label();
        let loop_top = b.fresh_label();
        let after = b.fresh_label();
        b.load_imm(Reg::R5, 300);
        b.load_imm(Reg::R6, 0);
        b.bind(loop_top).unwrap();
        b.call(f);
        b.alu_imm(AluOp::Xor, Reg::R6, Reg::R6, 1);
        b.branch(Cond::Eq, Reg::R6, Reg::ZERO, after);
        b.call(g);
        b.bind(after).unwrap();
        b.alu_imm(AluOp::Sub, Reg::R5, Reg::R5, 1);
        b.branch(Cond::Gt, Reg::R5, Reg::ZERO, loop_top);
        b.halt();
        b.bind(f).unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.ret();
        b.bind(g).unwrap();
        b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.ret();
        b.build().unwrap()
    }

    #[test]
    fn self_checkpointing_stack_is_near_perfect_with_headroom() {
        let p = mispredicting_call_workload();
        let cfg =
            CoreConfig::with_return_predictor(ReturnPredictor::SelfCheckpointing { entries: 64 });
        let mut core = Core::new(cfg, &p);
        core.enable_golden_check();
        let stats = core.run(50_000);
        assert!(core.is_halted());
        assert!(stats.returns > 300);
        assert!(
            stats.return_hit_rate().percent() > 99.0,
            "pointer-only repair with preserved entries: {}",
            stats.return_hit_rate()
        );
    }

    #[test]
    fn self_checkpointing_degrades_when_entries_recycle() {
        // With very few entries, wrong-path pushes recycle live chain
        // slots and accuracy drops below the roomy configuration.
        let p = mispredicting_call_workload();
        let run = |entries| {
            let cfg =
                CoreConfig::with_return_predictor(ReturnPredictor::SelfCheckpointing { entries });
            let mut core = Core::new(cfg, &p);
            core.run(50_000).return_hit_rate().value()
        };
        let tiny = run(2);
        let roomy = run(64);
        assert!(roomy >= tiny, "more entries cannot hurt: {tiny} vs {roomy}");
    }

    #[test]
    fn self_checkpointing_matches_golden_under_multipath() {
        let p = mispredicting_call_workload();
        let cfg = CoreConfig {
            return_predictor: ReturnPredictor::SelfCheckpointing { entries: 48 },
            multipath: Some(crate::config::MultipathConfig {
                max_paths: 2,
                stack_policy: ras_core::MultipathStackPolicy::PerPath,
            }),
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, &p);
        core.enable_golden_check();
        core.run(50_000);
        assert!(core.is_halted());
    }
}

/// End-to-end tests of the pipeline tracer against a real run.
#[cfg(test)]
mod ptrace_tests {
    use super::*;
    use crate::PipeTrace;
    use hydra_isa::{AluOp, Cond, ProgramBuilder};

    #[test]
    fn trace_records_every_stage_of_a_real_run() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label();
        b.load_imm(Reg::R1, 20);
        b.load_imm(Reg::R2, 0);
        b.bind(top).unwrap();
        b.alu_imm(AluOp::Xor, Reg::R2, Reg::R2, 1);
        let skip = b.fresh_label();
        b.branch(Cond::Eq, Reg::R2, Reg::ZERO, skip);
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 1);
        b.bind(skip).unwrap();
        b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
        b.branch(Cond::Gt, Reg::R1, Reg::ZERO, top);
        b.halt();
        let p = b.build().unwrap();

        let mut core = Core::new(CoreConfig::baseline(), &p);
        core.set_tap(PipeTrace::CLASSES);
        core.enable_golden_check();
        let stats = core.run(10_000);
        assert!(core.is_halted());

        let mut events = Vec::new();
        core.drain_tap(&mut events);
        let mut trace = PipeTrace::new(10_000);
        for e in &events {
            trace.record(e);
        }
        assert!(!trace.is_empty());
        let mut committed = 0u64;
        let mut squashed = 0u64;
        for r in trace.records() {
            // Stage timestamps are monotone when present.
            let f = r.fetched_at;
            if let Some(d) = r.dispatched_at {
                assert!(d >= f, "dispatch after fetch");
                if let Some(i) = r.issued_at {
                    assert!(i >= d);
                    if let Some(x) = r.completed_at {
                        assert!(x > i, "results take at least a cycle");
                    }
                }
            }
            if let Some(ret) = r.retired_at {
                assert!(ret >= f);
            }
            if r.squashed_at.is_some() {
                squashed += 1;
            } else if r.retired_at.is_some() {
                committed += 1;
            }
        }
        // Every fetched uop was traced: committed + squashed + still in
        // flight at halt account for the totals.
        assert_eq!(committed, stats.committed);
        assert!(squashed > 0, "the alternating branch mispredicted");
        let first = trace.records().next().expect("non-empty").fetched_at;
        let rendered = trace.render_window(first, 80);
        assert!(rendered.contains('F'));
        assert!(rendered.contains('C'));
    }

    #[test]
    fn disabled_trace_is_absent() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut core = Core::new(CoreConfig::baseline(), &p);
        core.run(10);
        let mut events = Vec::new();
        core.drain_tap(&mut events);
        assert!(events.is_empty());
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;
    use hydra_isa::{AluOp, ProgramBuilder};

    #[test]
    fn occupancy_is_sampled_every_cycle() {
        let mut b = ProgramBuilder::new();
        for i in 0..40 {
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, i);
        }
        b.halt();
        let p = b.build().unwrap();
        let mut core = Core::new(CoreConfig::baseline(), &p);
        let stats = core.run(1_000);
        let occ = core.occupancy();
        assert_eq!(occ.ruu.total(), stats.cycles);
        assert_eq!(occ.live_paths.total(), stats.cycles);
        assert!(occ.ruu.mean() > 0.0, "the window was used");
        assert!(occ.ruu.max().unwrap() <= 64);
        assert_eq!(occ.live_paths.max(), Some(1), "single-path run");
    }

    #[test]
    fn reset_stats_clears_occupancy() {
        let mut b = ProgramBuilder::new();
        let spin = b.fresh_label();
        b.bind(spin).unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch(hydra_isa::Cond::Ge, Reg::R1, Reg::ZERO, spin);
        b.halt();
        let p = b.build().unwrap();
        let mut core = Core::new(CoreConfig::baseline(), &p);
        core.run(500);
        core.reset_stats();
        assert_eq!(core.occupancy().ruu.total(), 0);
        core.run(1_000);
        assert!(core.occupancy().ruu.total() > 0);
    }
}

#[cfg(test)]
mod ready_list_tests {
    use super::*;
    use hydra_workloads::{Workload, WorkloadSpec};
    use ras_core::MultipathStackPolicy;

    /// The derived state a resume must rebuild: the ready list, RUU
    /// membership, and every pending operand's producer slot.
    fn assert_derived_state_matches(donor: &Core, resumed: &Core, at: u64) {
        assert_eq!(
            donor.ready, resumed.ready,
            "ready list differs at cycle {at}"
        );
        for (slot, (d, r)) in donor.slab.iter().zip(&resumed.slab).enumerate() {
            assert_eq!(
                d.in_ruu, r.in_ruu,
                "RUU membership of slot {slot} at cycle {at}"
            );
            if d.in_ruu && !d.squashed {
                assert_eq!(d.srcs, r.srcs, "operands of slot {slot} at cycle {at}");
            }
        }
    }

    /// Resumes a copy of `donor` and checks the rebuilt derived state,
    /// then steps both in lockstep to check it keeps tracking.
    fn check_split(donor: &mut Core, program: &Program) {
        let at = donor.cycle();
        let mut resumed = Core::resume(&donor.save_snapshot(), program).expect("resumes");
        assert_derived_state_matches(donor, &resumed, at);
        for _ in 0..50 {
            donor.step();
            resumed.step();
            assert_eq!(
                donor.ready, resumed.ready,
                "ready lists diverge after cycle {at}"
            );
        }
    }

    #[test]
    fn resume_rebuilds_the_ready_list_mid_flight() {
        let w = Workload::generate(&WorkloadSpec::by_name("gcc").expect("known"), 12345)
            .expect("generates");
        let configs = [
            CoreConfig::baseline(),
            CoreConfig::multipath(4, MultipathStackPolicy::PerPath),
        ];
        let mut nonempty = 0;
        for config in configs {
            let mut donor = Core::new(config, w.program());
            for mark in [1_013u64, 2_999, 7_001, 12_345, 20_011] {
                while donor.cycle() < mark {
                    donor.step();
                }
                check_split(&mut donor, w.program());
                // The ready list is usually empty between cycles (issue
                // drains it), so also split where work is left waiting.
                let limit = donor.cycle() + 1_000;
                while donor.ready.is_empty() && donor.cycle() < limit {
                    donor.step();
                }
                if !donor.ready.is_empty() {
                    nonempty += 1;
                }
                check_split(&mut donor, w.program());
            }
        }
        assert!(nonempty > 0, "no split point had a non-empty ready list");
    }
}
