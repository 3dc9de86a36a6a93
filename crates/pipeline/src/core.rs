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

use crate::check_stream::CheckEvent;
use crate::config::{CoreConfig, FuLatencies, MultipathConfig, RasSharing, ReturnPredictor};
use crate::path::{HartId, PathId, PathTable};
use crate::ptrace::PipeTrace;
use crate::ras_unit::{CkptHandle, RasUnit};
use crate::snapshot::{
    test_faults, SnapError, SnapReader, SnapWriter, KIND_CORE, KIND_SYSTEM, TAG_ARCH, TAG_CONFIG,
    TAG_GOLDEN, TAG_MACHINE, TAG_MEMORY, TAG_PREDICTORS, TAG_RAS, TAG_STATS,
};
use crate::stats::{ReturnSource, SimStats};
use crate::uop::{Src, Uop, UopState, NIL};
use hydra_bpred::{
    Btb, BtbConfig, ConfidenceConfig, ConfidenceEstimator, DirectionPrediction, HybridConfig,
    HybridPredictor, HybridState,
};
use hydra_isa::semantics::{alu, branch_taken, effective_address};
use hydra_isa::{Addr, ControlKind, Inst, Program, Reg};
use hydra_mem::{Cache, CacheConfig, CacheStats, HierarchyConfig, MemoryHierarchy};
use hydra_obs::{classify_return_mispredict, CauseHistogram, CpiStack, LostCause};
use hydra_stats::Histogram;
use ras_core::MultipathStackPolicy;
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

/// An in-core architectural interpreter used for the optional golden
/// check: at every commit the retiring micro-op is compared against this
/// machine, which executes the same program with exact semantics.
#[derive(Debug, Clone)]
struct GoldenMachine {
    regs: [i64; Reg::COUNT],
    mem: Vec<i64>,
    pc: Addr,
}

impl GoldenMachine {
    fn new(program: &Program) -> Self {
        GoldenMachine {
            regs: [0; Reg::COUNT],
            mem: vec![0; program.data_words() as usize],
            pc: Addr::ZERO,
        }
    }

    fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Executes the instruction at the golden PC; returns
    /// `(dest_value, next_pc)`.
    fn step(&mut self, inst: Inst, data_words: u64) -> (Option<i64>, Addr) {
        let pc = self.pc;
        let mut next = pc.next();
        let mut dest_val = None;
        match inst {
            Inst::Nop => {}
            Inst::Halt => next = pc,
            Inst::Alu { op, rd, rs, rt } => {
                let v = alu(op, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
                dest_val = Some(v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = alu(op, self.reg(rs), imm);
                self.set_reg(rd, v);
                dest_val = Some(v);
            }
            Inst::LoadImm { rd, imm } => {
                self.set_reg(rd, imm);
                dest_val = Some(imm);
            }
            Inst::Load { rd, base, offset } => {
                let ea = effective_address(self.reg(base), offset, data_words);
                let v = self.mem[ea as usize];
                self.set_reg(rd, v);
                dest_val = Some(v);
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
                if branch_taken(cond, self.reg(rs), self.reg(rt)) {
                    next = target;
                }
            }
            Inst::Jump { target } => next = target,
            Inst::Call { target } => {
                let ra = pc.next().word() as i64;
                self.set_reg(Reg::RA, ra);
                dest_val = Some(ra);
                next = target;
            }
            Inst::CallIndirect { rs } => {
                next = Addr::new(self.reg(rs) as u64);
                let ra = pc.next().word() as i64;
                self.set_reg(Reg::RA, ra);
                dest_val = Some(ra);
            }
            Inst::JumpIndirect { rs } => next = Addr::new(self.reg(rs) as u64),
            Inst::Return => next = Addr::new(self.reg(Reg::RA) as u64),
        }
        self.pc = next;
        (dest_val, next)
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
    golden: Option<GoldenMachine>,
    ptrace: Option<PipeTrace>,
    /// Differential-check event buffer; `None` until enabled, so the
    /// recording sites cost one branch when the feature is compiled in
    /// but the stream is off.
    #[cfg(feature = "commit-stream")]
    check_stream: Option<Vec<CheckEvent>>,
    occupancy: Occupancy,

    // Persistent scratch buffers for squash bookkeeping, taken with
    // `mem::take` while in use so their capacity survives across calls.
    scratch_subtree: Vec<PathId>,
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
            ptrace: None,
            #[cfg(feature = "commit-stream")]
            check_stream: None,
            occupancy: Occupancy::new(&config),
            scratch_subtree: Vec::new(),
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
        self.golden = Some(GoldenMachine::new(&self.program));
    }

    /// Enables recording of the differential-check stream: one
    /// [`CheckEvent`] per commit and per speculative RAS interaction,
    /// drained with [`Core::drain_check_stream`]. Intended for the
    /// `hydra-check` oracles; slows simulation.
    #[cfg(feature = "commit-stream")]
    pub fn enable_check_stream(&mut self) {
        self.check_stream = Some(Vec::new());
    }

    /// Moves the recorded check events into `into` (appending), leaving
    /// the internal buffer empty but enabled. Call between bounded
    /// [`Core::run`] windows to keep the buffer small.
    #[cfg(feature = "commit-stream")]
    pub fn drain_check_stream(&mut self, into: &mut Vec<CheckEvent>) {
        if let Some(buf) = &mut self.check_stream {
            into.append(buf);
        }
    }

    /// Records one check event when the stream is enabled. The
    /// feature-off twin below compiles every call site away entirely.
    #[cfg(feature = "commit-stream")]
    #[inline]
    fn emit_check(&mut self, ev: CheckEvent) {
        if let Some(buf) = &mut self.check_stream {
            buf.push(ev);
        }
    }

    #[cfg(not(feature = "commit-stream"))]
    #[inline(always)]
    fn emit_check(&mut self, _ev: CheckEvent) {}

    /// Enables pipeline tracing: the lifetimes of the most recent
    /// `capacity` micro-ops are recorded and can be rendered as a stage
    /// chart with [`PipeTrace::render_window`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_pipe_trace(&mut self, capacity: usize) {
        self.ptrace = Some(PipeTrace::new(capacity));
    }

    /// The pipeline trace, if tracing is enabled.
    pub fn pipe_trace(&self) -> Option<&PipeTrace> {
        self.ptrace.as_ref()
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
        if let Some(g) = &mut self.golden {
            g.regs = self.regfile;
            g.mem.copy_from_slice(&self.mem_data);
            g.pc = pc;
        }
        skipped
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
        // Publish the cycle and hart so leaf structures (the RAS in
        // ras-core) can timestamp and attribute their own trace events.
        hydra_trace::trace_cycle!(self.cycle);
        hydra_trace::trace_hart!(self.hart.index() as u64);
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
        hydra_trace::trace_event!(hydra_trace::TraceEvent::StageSample {
            cycle: self.cycle,
            ruu: self.ruu.len() as u64,
            lsq: self.lsq.len() as u64,
            fetch_queue: self.fetch_queue.len() as u64,
            live_paths: self.paths.live_count() as u64,
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
                if let Some(t) = &mut self.ptrace {
                    t.on_retire(seq, self.cycle);
                }
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
            if let Some(t) = &mut self.ptrace {
                t.on_retire(seq, self.cycle);
            }
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
        self.emit_check(CheckEvent::Commit {
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
            let (dest_val, next) = golden.step(inst, self.program.data_words());
            if let Some(v) = dest_val {
                assert_eq!(result, Some(v), "result diverged at {pc} ({inst})");
            }
            if inst.control_kind().is_control() {
                assert_eq!(
                    actual_next_pc,
                    Some(next),
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
                    hydra_trace::trace_event!(hydra_trace::TraceEvent::ReturnMispredictCause {
                        cycle: self.cycle,
                        hart: self.hart.index() as u64,
                        pc: pc.word(),
                        cause: cause.label(),
                    });
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
            if let Some(t) = &mut self.ptrace {
                t.on_complete(seq, self.cycle);
            }
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
        hydra_trace::trace_event!(hydra_trace::TraceEvent::BranchResolve {
            cycle: self.cycle,
            hart: self.hart.index() as u64,
            path: path.index() as u64,
            pc: self.slab[su].pc.word(),
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
            if correct {
                // The fetched (predicted) arm wins: the child subtree dies.
                let mut subtree = std::mem::take(&mut self.scratch_subtree);
                subtree.clear();
                self.paths.kill_subtree_into(child, &mut subtree);
                self.squash_paths(&subtree, LostCause::BranchMispredict);
                self.scratch_subtree = subtree;
            } else {
                // The forked arm wins: squash the parent's continuation
                // (strictly younger than the branch; the child forked at
                // exactly `seq` survives) and stop the parent's fetch.
                // The parent's stack is retained: if an even older branch
                // on the parent later mispredicts, the parent is revived
                // as the correct continuation.
                self.squash_lineage(path, seq, LostCause::BranchMispredict);
                self.paths.retire_path(path);
                self.path_ctx[path.index()].fetch_stopped = true;
            }
            return;
        }

        // Conventional speculation point.
        let ckpt = self.slab[su].ras_ckpt.take();
        if correct {
            if let Some(handle) = ckpt {
                self.emit_check(CheckEvent::RasRelease { id: seq });
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
            self.emit_check(CheckEvent::RasRestore {
                hart: self.hart.index() as u8,
                path: path.index() as u32,
                id: seq,
            });
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
                    self.emit_check(CheckEvent::RasRelease { id: useq });
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
            let (upath, useq, usq) = {
                let u = &self.slab[su];
                (u.path, u.seq, u.squashed)
            };
            if !usq && self.paths.on_lineage(upath, useq, base, min_seq) {
                squashed_seqs.push(useq);
                self.stats.squashed_uops += 1;
                if let Some(handle) = self.slab[su].ras_ckpt.take() {
                    self.emit_check(CheckEvent::RasRelease { id: useq });
                    released.push(handle);
                }
                self.free_slot(slot);
            } else {
                self.fetch_queue.push_back((ready, slot));
            }
        }
        hydra_trace::trace_event!(hydra_trace::TraceEvent::Squash {
            cycle: self.cycle,
            hart: self.hart.index() as u64,
            path: base.index() as u64,
            uops: squashed_seqs.len() as u64,
        });
        for handle in released.drain(..) {
            self.ras.release(handle);
        }
        self.scratch_released = released;
        if let Some(t) = &mut self.ptrace {
            for &seq in &squashed_seqs {
                t.on_squash(seq, self.cycle);
            }
        }
        self.scratch_seqs = squashed_seqs;
    }

    /// Squashes every micro-op belonging to the given (killed) paths,
    /// charging their eventual drain slots to `cause`.
    fn squash_paths(&mut self, killed: &[PathId], cause: LostCause) {
        for &q in killed {
            self.ras.on_path_death(q);
        }
        let mut released = std::mem::take(&mut self.scratch_released);
        let mut squashed_seqs = std::mem::take(&mut self.scratch_seqs);
        released.clear();
        squashed_seqs.clear();
        for i in 0..self.ruu.len() {
            let su = self.ruu[i] as usize;
            let (useq, handle) = {
                let u = &mut self.slab[su];
                if u.squashed || !killed.contains(&u.path) {
                    continue;
                }
                u.squashed = true;
                u.squash_cause = cause;
                (u.seq, u.ras_ckpt.take())
            };
            squashed_seqs.push(useq);
            self.stats.squashed_uops += 1;
            if let Some(handle) = handle {
                self.emit_check(CheckEvent::RasRelease { id: useq });
                released.push(handle);
            }
        }
        {
            let lsq = &mut self.lsq;
            let mut s = lsq.head;
            while s != NIL {
                let e = &mut lsq.entries[s as usize];
                if killed.contains(&e.path) {
                    e.squashed = true;
                }
                s = lsq.next[s as usize];
            }
        }
        for _ in 0..self.fetch_queue.len() {
            let (ready, slot) = self.fetch_queue.pop_front().expect("counted");
            let su = slot as usize;
            if killed.contains(&self.slab[su].path) {
                let useq = self.slab[su].seq;
                squashed_seqs.push(useq);
                self.stats.squashed_uops += 1;
                if let Some(handle) = self.slab[su].ras_ckpt.take() {
                    self.emit_check(CheckEvent::RasRelease { id: useq });
                    released.push(handle);
                }
                self.free_slot(slot);
            } else {
                self.fetch_queue.push_back((ready, slot));
            }
        }
        hydra_trace::trace_event!(hydra_trace::TraceEvent::Squash {
            cycle: self.cycle,
            hart: self.hart.index() as u64,
            path: killed.first().map_or(0, |p| p.index() as u64),
            uops: squashed_seqs.len() as u64,
        });
        for handle in released.drain(..) {
            self.ras.release(handle);
        }
        self.scratch_released = released;
        if let Some(t) = &mut self.ptrace {
            for &seq in &squashed_seqs {
                t.on_squash(seq, self.cycle);
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
                hydra_trace::trace_event!(hydra_trace::TraceEvent::CacheAccess {
                    cycle: self.cycle,
                    cache: "l1d",
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
                hydra_trace::trace_event!(hydra_trace::TraceEvent::CacheAccess {
                    cycle: self.cycle,
                    cache: "l1d",
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
        if let Some(t) = &mut self.ptrace {
            t.on_issue(seq, self.cycle);
        }
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
            if let Some(t) = &mut self.ptrace {
                t.on_dispatch(seq, self.cycle);
            }
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
            hydra_trace::trace_event!(hydra_trace::TraceEvent::CacheAccess {
                cycle: self.cycle,
                cache: "l1i",
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
                        self.slab[su].ras_ckpt = self.ras.checkpoint(self.hart, path);
                        if self.slab[su].ras_ckpt.is_some() {
                            self.emit_check(CheckEvent::RasCheckpoint {
                                hart: self.hart.index() as u8,
                                path: path.index() as u32,
                                id: seq,
                            });
                        }
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
                    self.ras.push(self.hart, path, pc.next().word());
                    self.emit_check(CheckEvent::RasPush {
                        hart: self.hart.index() as u8,
                        path: path.index() as u32,
                        addr: pc.next().word(),
                    });
                    stop_block = true;
                    target
                }
                ControlKind::IndirectCall => {
                    self.ras.push(self.hart, path, pc.next().word());
                    self.emit_check(CheckEvent::RasPush {
                        hart: self.hart.index() as u8,
                        path: path.index() as u32,
                        addr: pc.next().word(),
                    });
                    self.slab[su].ras_ckpt = self.ras.checkpoint(self.hart, path);
                    if self.slab[su].ras_ckpt.is_some() {
                        self.emit_check(CheckEvent::RasCheckpoint {
                            hart: self.hart.index() as u8,
                            path: path.index() as u32,
                            id: seq,
                        });
                    }
                    self.slab[su].history_at_fetch = Some(self.path_ctx[path.index()].history);
                    stop_block = true;
                    self.btb.lookup(pc).unwrap_or_else(|| pc.next())
                }
                ControlKind::IndirectJump => {
                    self.slab[su].ras_ckpt = self.ras.checkpoint(self.hart, path);
                    if self.slab[su].ras_ckpt.is_some() {
                        self.emit_check(CheckEvent::RasCheckpoint {
                            hart: self.hart.index() as u8,
                            path: path.index() as u32,
                            id: seq,
                        });
                    }
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
                    self.slab[su].ras_ckpt = self.ras.checkpoint(self.hart, path);
                    if self.slab[su].ras_ckpt.is_some() {
                        self.emit_check(CheckEvent::RasCheckpoint {
                            hart: self.hart.index() as u8,
                            path: path.index() as u32,
                            id: seq,
                        });
                    }
                    self.slab[su].history_at_fetch = Some(self.path_ctx[path.index()].history);
                    stop_block = true;
                    target
                }
            };
            self.slab[su].pred_next_pc = next;
            self.stats.fetched_uops += 1;
            if let Some(t) = &mut self.ptrace {
                t.on_fetch(seq, pc, inst, self.cycle);
            }
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

    fn predict_return(&mut self, path: PathId, pc: Addr) -> (Addr, ReturnSource) {
        match self.config.return_predictor {
            ReturnPredictor::Perfect => {
                let popped = self.ras.pop(self.hart, path);
                self.emit_check(CheckEvent::RasPop {
                    hart: self.hart.index() as u8,
                    path: path.index() as u32,
                    predicted: popped,
                });
                match popped {
                    Some(t) => (Addr::new(t), ReturnSource::Oracle),
                    None => (pc.next(), ReturnSource::Fallthrough),
                }
            }
            ReturnPredictor::Ras { .. } | ReturnPredictor::SelfCheckpointing { .. } => {
                let popped = self.ras.pop(self.hart, path);
                self.emit_check(CheckEvent::RasPop {
                    hart: self.hart.index() as u8,
                    path: path.index() as u32,
                    predicted: popped,
                });
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

// --- snapshot codec -------------------------------------------------------
//
// Encode order is CONFIG, ARCH, PREDICTORS, MEMORY, RAS, MACHINE, STATS,
// GOLDEN. Structure (slab capacity, table geometry, queue bounds) derives
// from the CONFIG section, so decoding builds a fresh `Core::new` and loads
// state *in place*: every allocation invariant the constructor establishes
// (slab capacity, reserved wakeup lists, bounded queues) survives a resume,
// which is what makes resumed runs byte-identical to straight-through ones.
//
// The instruction of each slab micro-op is NOT serialized — only its PC and
// `wild` flag are, and decode re-derives the instruction from the program
// image. Free slab slots may therefore decode with a different (stale)
// instruction than the donor held, which is harmless: `Uop::reset`
// overwrites every field before a recycled slot is ever read, and since the
// instruction is never encoded, re-snapshotting still produces identical
// bytes.

fn encode_addr(w: &mut SnapWriter, a: Addr) {
    w.u64(a.word());
}

fn decode_addr(r: &mut SnapReader) -> Result<Addr, SnapError> {
    Ok(Addr::new(r.u64()?))
}

fn encode_opt_path(w: &mut SnapWriter, p: Option<PathId>) {
    match p {
        Some(p) => {
            w.bool(true);
            w.u32(p.index() as u32);
        }
        None => w.bool(false),
    }
}

fn decode_opt_path(r: &mut SnapReader) -> Result<Option<PathId>, SnapError> {
    Ok(if r.bool()? {
        Some(PathId::from_index(r.u32()? as usize))
    } else {
        None
    })
}

fn encode_lost_cause(w: &mut SnapWriter, c: LostCause) {
    w.u8(c.index() as u8);
}

fn decode_lost_cause(r: &mut SnapReader) -> Result<LostCause, SnapError> {
    let i = r.u8()? as usize;
    LostCause::ALL
        .get(i)
        .copied()
        .ok_or(SnapError::Corrupt("unknown lost cause"))
}

fn encode_cache_config(w: &mut SnapWriter, c: &CacheConfig) {
    w.usize(c.sets);
    w.usize(c.ways);
    w.u64(c.line_words);
}

fn decode_cache_config(r: &mut SnapReader) -> Result<CacheConfig, SnapError> {
    Ok(CacheConfig {
        sets: r.usize()?,
        ways: r.usize()?,
        line_words: r.u64()?,
    })
}

fn encode_return_predictor(w: &mut SnapWriter, p: ReturnPredictor) {
    match p {
        ReturnPredictor::Ras { entries, repair } => {
            w.u8(0);
            w.usize(entries);
            crate::ras_unit::encode_repair_policy(w, repair);
        }
        ReturnPredictor::SelfCheckpointing { entries } => {
            w.u8(1);
            w.usize(entries);
        }
        ReturnPredictor::BtbOnly => w.u8(2),
        ReturnPredictor::Perfect => w.u8(3),
    }
}

fn decode_return_predictor(r: &mut SnapReader) -> Result<ReturnPredictor, SnapError> {
    Ok(match r.u8()? {
        0 => ReturnPredictor::Ras {
            entries: r.usize()?,
            repair: crate::ras_unit::decode_repair_policy(r)?,
        },
        1 => ReturnPredictor::SelfCheckpointing {
            entries: r.usize()?,
        },
        2 => ReturnPredictor::BtbOnly,
        3 => ReturnPredictor::Perfect,
        _ => return Err(SnapError::Corrupt("unknown return predictor")),
    })
}

fn encode_config(w: &mut SnapWriter, c: &CoreConfig) {
    w.usize(c.fetch_width);
    w.usize(c.dispatch_width);
    w.usize(c.issue_width);
    w.usize(c.commit_width);
    w.usize(c.ruu_size);
    w.usize(c.lsq_size);
    w.usize(c.fetch_queue);
    w.u64(c.decode_latency);
    encode_return_predictor(w, c.return_predictor);
    w.opt_usize(c.checkpoint_budget);
    w.u32(c.hybrid.global_history_bits);
    w.usize(c.hybrid.local_history_entries);
    w.u32(c.hybrid.local_history_bits);
    w.u32(c.hybrid.chooser_bits);
    w.usize(c.btb.sets);
    w.usize(c.btb.ways);
    w.usize(c.confidence.entries);
    w.u32(c.confidence.counter_bits);
    w.u8(c.confidence.threshold);
    encode_cache_config(w, &c.mem.l1i);
    encode_cache_config(w, &c.mem.l1d);
    encode_cache_config(w, &c.mem.l2);
    w.u64(c.mem.l1_latency);
    w.u64(c.mem.l2_latency);
    w.u64(c.mem.memory_latency);
    w.u64(c.latencies.alu);
    w.u64(c.latencies.mul);
    w.u64(c.latencies.div);
    w.u64(c.latencies.branch);
    w.u64(c.latencies.agen);
    match c.multipath {
        Some(mp) => {
            w.bool(true);
            w.usize(mp.max_paths);
            match mp.stack_policy {
                MultipathStackPolicy::Unified { repair } => {
                    w.u8(0);
                    crate::ras_unit::encode_repair_policy(w, repair);
                }
                MultipathStackPolicy::PerPath => w.u8(1),
            }
        }
        None => w.bool(false),
    }
    w.u8(c.harts);
    match c.ras_sharing {
        RasSharing::Shared => w.u8(0),
        RasSharing::Partitioned => w.u8(1),
        RasSharing::Tagged { tag_bits } => {
            w.u8(2);
            w.u8(tag_bits);
        }
    }
}

fn decode_config(r: &mut SnapReader) -> Result<CoreConfig, SnapError> {
    let fetch_width = r.usize()?;
    let dispatch_width = r.usize()?;
    let issue_width = r.usize()?;
    let commit_width = r.usize()?;
    let ruu_size = r.usize()?;
    let lsq_size = r.usize()?;
    let fetch_queue = r.usize()?;
    let decode_latency = r.u64()?;
    let return_predictor = decode_return_predictor(r)?;
    let checkpoint_budget = r.opt_usize()?;
    let hybrid = HybridConfig {
        global_history_bits: r.u32()?,
        local_history_entries: r.usize()?,
        local_history_bits: r.u32()?,
        chooser_bits: r.u32()?,
    };
    let btb = BtbConfig {
        sets: r.usize()?,
        ways: r.usize()?,
    };
    let confidence = ConfidenceConfig {
        entries: r.usize()?,
        counter_bits: r.u32()?,
        threshold: r.u8()?,
    };
    let l1i = decode_cache_config(r)?;
    let l1d = decode_cache_config(r)?;
    let l2 = decode_cache_config(r)?;
    let mem = HierarchyConfig {
        l1i,
        l1d,
        l2,
        l1_latency: r.u64()?,
        l2_latency: r.u64()?,
        memory_latency: r.u64()?,
    };
    let latencies = FuLatencies {
        alu: r.u64()?,
        mul: r.u64()?,
        div: r.u64()?,
        branch: r.u64()?,
        agen: r.u64()?,
    };
    let multipath = if r.bool()? {
        let max_paths = r.usize()?;
        let stack_policy = match r.u8()? {
            0 => MultipathStackPolicy::Unified {
                repair: crate::ras_unit::decode_repair_policy(r)?,
            },
            1 => MultipathStackPolicy::PerPath,
            _ => return Err(SnapError::Corrupt("unknown multipath stack policy")),
        };
        Some(MultipathConfig {
            max_paths,
            stack_policy,
        })
    } else {
        None
    };
    let harts = r.u8()?;
    let ras_sharing = match r.u8()? {
        0 => RasSharing::Shared,
        1 => RasSharing::Partitioned,
        2 => RasSharing::Tagged { tag_bits: r.u8()? },
        _ => return Err(SnapError::Corrupt("unknown RAS sharing policy")),
    };
    Ok(CoreConfig {
        fetch_width,
        dispatch_width,
        issue_width,
        commit_width,
        ruu_size,
        lsq_size,
        fetch_queue,
        decode_latency,
        return_predictor,
        checkpoint_budget,
        hybrid,
        btb,
        confidence,
        mem,
        latencies,
        multipath,
        harts,
        ras_sharing,
    })
}

fn encode_cache(w: &mut SnapWriter, c: &Cache) {
    let (sets, clock, stats) = c.snapshot_state();
    w.usize(sets.len());
    for set in &sets {
        w.usize(set.len());
        for &(tag, lru) in set {
            w.u64(tag);
            w.u64(lru);
        }
    }
    w.u64(clock);
    w.u64(stats.accesses);
    w.u64(stats.hits);
}

fn decode_cache(r: &mut SnapReader, c: &mut Cache) -> Result<(), SnapError> {
    let n = r.seq_len(8)?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.seq_len(16)?;
        let mut set = Vec::with_capacity(m);
        for _ in 0..m {
            set.push((r.u64()?, r.u64()?));
        }
        sets.push(set);
    }
    let clock = r.u64()?;
    let stats = CacheStats {
        accesses: r.u64()?,
        hits: r.u64()?,
    };
    if !c.restore_state(&sets, clock, stats) {
        return Err(SnapError::Corrupt("cache geometry mismatch"));
    }
    Ok(())
}

/// Serializes a memory hierarchy's state (shared by the `System` codec).
pub(crate) fn encode_memory_state(w: &mut SnapWriter, mem: &MemoryHierarchy) {
    let (l1i, l1d, l2) = mem.caches();
    encode_cache(w, l1i);
    encode_cache(w, l1d);
    encode_cache(w, l2);
}

/// Restores a memory hierarchy from [`encode_memory_state`] output.
pub(crate) fn decode_memory_state(
    r: &mut SnapReader,
    mem: &mut MemoryHierarchy,
) -> Result<(), SnapError> {
    let (l1i, l1d, l2) = mem.caches_mut();
    decode_cache(r, l1i)?;
    decode_cache(r, l1d)?;
    decode_cache(r, l2)
}

fn encode_histogram(w: &mut SnapWriter, h: &Histogram) {
    let (buckets, overflow, total, sum, max) = h.raw_parts();
    w.seq_u64(buckets);
    w.u64(overflow);
    w.u64(total);
    w.u128(sum);
    w.opt_u64(max);
}

fn decode_histogram(r: &mut SnapReader, expect_cap: usize) -> Result<Histogram, SnapError> {
    let buckets = r.seq_u64()?;
    if buckets.len() != expect_cap {
        return Err(SnapError::Corrupt("histogram capacity mismatch"));
    }
    let overflow = r.u64()?;
    let total = r.u64()?;
    let sum = r.u128()?;
    let max = r.opt_u64()?;
    Histogram::from_raw_parts(buckets, overflow, total, sum, max)
        .ok_or(SnapError::Corrupt("inconsistent histogram"))
}

fn encode_uop(w: &mut SnapWriter, u: &Uop) {
    w.u64(u.seq);
    w.u32(u.path.index() as u32);
    encode_addr(w, u.pc);
    w.bool(u.wild);
    encode_addr(w, u.pred_next_pc);
    match &u.dir_pred {
        Some(d) => {
            w.bool(true);
            w.bool(d.taken);
            w.bool(d.gag_taken);
            w.bool(d.pag_taken);
            w.bool(d.chose_gag);
            let (gag, pag, chooser, local) = d.index_parts();
            w.usize(gag);
            w.usize(pag);
            w.usize(chooser);
            w.usize(local);
        }
        None => w.bool(false),
    }
    w.opt_u64(u.history_at_fetch);
    match &u.ras_ckpt {
        Some(h) => {
            w.bool(true);
            RasUnit::encode_handle(h, w);
        }
        None => w.bool(false),
    }
    match u.return_source {
        Some(s) => {
            w.bool(true);
            w.u8(match s {
                ReturnSource::Ras => 0,
                ReturnSource::Btb => 1,
                ReturnSource::Fallthrough => 2,
                ReturnSource::Oracle => 3,
            });
        }
        None => w.bool(false),
    }
    encode_opt_path(w, u.forked_child);
    for s in &u.srcs {
        match s {
            Src::None => w.u8(0),
            Src::Value(v) => {
                w.u8(1);
                w.i64(*v);
            }
            // The slot is derived: decode recovers it from the slab.
            Src::Pending { seq, .. } => {
                w.u8(2);
                w.u64(*seq);
            }
        }
    }
    match u.state {
        UopState::Waiting => w.u8(0),
        UopState::Issued { done_at } => {
            w.u8(1);
            w.u64(done_at);
        }
        UopState::Done => w.u8(2),
    }
    w.opt_i64(u.result);
    match u.actual_next_pc {
        Some(a) => {
            w.bool(true);
            encode_addr(w, a);
        }
        None => w.bool(false),
    }
    match u.taken_actual {
        Some(b) => {
            w.bool(true);
            w.bool(b);
        }
        None => w.bool(false),
    }
    w.opt_u64(u.mem_addr);
    w.opt_i64(u.store_value);
    w.bool(u.squashed);
    w.bool(u.resolved);
    // The wakeup list's *capacity* is behavioral (it sets the compaction
    // trigger in rename), so it round-trips exactly alongside the
    // contents.
    w.usize(u.consumers.capacity());
    w.usize(u.consumers.len());
    for &(slot, idx) in &u.consumers {
        w.u32(slot);
        w.u8(idx);
    }
    w.u32(u.lsq_slot);
    w.u8(u.pop_flags);
    encode_lost_cause(w, u.squash_cause);
}

/// Generous upper bound on a plausible wakeup-list capacity; genuine
/// capacities start at `2 * ruu_size` and double rarely, so anything past
/// this is a hostile count that would only bloat allocation before the
/// checksum-validated decode inevitably fails elsewhere.
const MAX_CONSUMERS_CAP: usize = 1 << 24;

fn decode_uop(r: &mut SnapReader, program: &Program, ras: &RasUnit) -> Result<Uop, SnapError> {
    let seq = r.u64()?;
    let path = PathId::from_index(r.u32()? as usize);
    let pc = decode_addr(r)?;
    let wild = r.bool()?;
    let inst = if wild {
        Inst::Nop
    } else {
        program
            .fetch(pc)
            .ok_or(SnapError::Corrupt("micro-op PC outside program image"))?
    };
    let pred_next_pc = decode_addr(r)?;
    let dir_pred = if r.bool()? {
        let taken = r.bool()?;
        let gag_taken = r.bool()?;
        let pag_taken = r.bool()?;
        let chose_gag = r.bool()?;
        let gag = r.usize()?;
        let pag = r.usize()?;
        let chooser = r.usize()?;
        let local = r.usize()?;
        Some(DirectionPrediction::from_snapshot_parts(
            taken, gag_taken, pag_taken, chose_gag, gag, pag, chooser, local,
        ))
    } else {
        None
    };
    let history_at_fetch = r.opt_u64()?;
    let ras_ckpt = if r.bool()? {
        let handle = ras.decode_handle(r)?;
        if test_faults::skip_ras_restore() {
            None // injected restore bug for the differential fuzz tier
        } else {
            Some(handle)
        }
    } else {
        None
    };
    let return_source = if r.bool()? {
        Some(match r.u8()? {
            0 => ReturnSource::Ras,
            1 => ReturnSource::Btb,
            2 => ReturnSource::Fallthrough,
            3 => ReturnSource::Oracle,
            _ => return Err(SnapError::Corrupt("unknown return source")),
        })
    } else {
        None
    };
    let forked_child = decode_opt_path(r)?;
    let mut srcs = [Src::None, Src::None];
    for s in &mut srcs {
        *s = match r.u8()? {
            0 => Src::None,
            1 => Src::Value(r.i64()?),
            2 => Src::Pending {
                seq: r.u64()?,
                slot: NIL,
            },
            _ => return Err(SnapError::Corrupt("unknown operand kind")),
        };
    }
    let state = match r.u8()? {
        0 => UopState::Waiting,
        1 => UopState::Issued { done_at: r.u64()? },
        2 => UopState::Done,
        _ => return Err(SnapError::Corrupt("unknown micro-op state")),
    };
    let result = r.opt_i64()?;
    let actual_next_pc = if r.bool()? {
        Some(decode_addr(r)?)
    } else {
        None
    };
    let taken_actual = if r.bool()? { Some(r.bool()?) } else { None };
    let mem_addr = r.opt_u64()?;
    let store_value = r.opt_i64()?;
    let squashed = r.bool()?;
    let resolved = r.bool()?;
    let cap = r.usize()?;
    if cap > MAX_CONSUMERS_CAP {
        return Err(SnapError::Corrupt("implausible wakeup-list capacity"));
    }
    let n = r.seq_len(5)?;
    if n > cap {
        return Err(SnapError::Corrupt("wakeup list longer than its capacity"));
    }
    let mut consumers = Vec::with_capacity(cap);
    for _ in 0..n {
        consumers.push((r.u32()?, r.u8()?));
    }
    let lsq_slot = r.u32()?;
    let pop_flags = r.u8()?;
    let squash_cause = decode_lost_cause(r)?;
    Ok(Uop {
        seq,
        path,
        pc,
        inst,
        wild,
        pred_next_pc,
        dir_pred,
        history_at_fetch,
        ras_ckpt,
        return_source,
        forked_child,
        srcs,
        state,
        result,
        actual_next_pc,
        taken_actual,
        mem_addr,
        store_value,
        squashed,
        resolved,
        in_ruu: false,
        consumers,
        lsq_slot,
        pop_flags,
        squash_cause,
    })
}

fn encode_lsq(w: &mut SnapWriter, l: &Lsq) {
    w.usize(l.entries.len());
    for e in &l.entries {
        w.u64(e.seq);
        w.u32(e.path.index() as u32);
        w.bool(e.is_store);
        w.opt_u64(e.addr);
        w.opt_i64(e.value);
        w.bool(e.squashed);
    }
    for &n in &l.next {
        w.u32(n);
    }
    for &p in &l.prev {
        w.u32(p);
    }
    w.u32(l.head);
    w.u32(l.tail);
    w.usize(l.free.len());
    for &f in &l.free {
        w.u32(f);
    }
    w.usize(l.len);
}

fn decode_lsq(r: &mut SnapReader, capacity: usize) -> Result<Lsq, SnapError> {
    let n = r.seq_len(16)?;
    if n != capacity {
        return Err(SnapError::Corrupt("LSQ capacity mismatch"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(LsqEntry {
            seq: r.u64()?,
            path: PathId::from_index(r.u32()? as usize),
            is_store: r.bool()?,
            addr: r.opt_u64()?,
            value: r.opt_i64()?,
            squashed: r.bool()?,
        });
    }
    let in_range = |s: u32| s == NIL || (s as usize) < capacity;
    let mut next = Vec::with_capacity(n);
    for _ in 0..n {
        next.push(r.u32()?);
    }
    let mut prev = Vec::with_capacity(n);
    for _ in 0..n {
        prev.push(r.u32()?);
    }
    let head = r.u32()?;
    let tail = r.u32()?;
    let nf = r.seq_len(4)?;
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
    if next
        .iter()
        .chain(prev.iter())
        .chain(free.iter())
        .chain([head, tail].iter())
        .any(|&s| !in_range(s))
    {
        return Err(SnapError::Corrupt("LSQ link out of range"));
    }
    if free.contains(&NIL) {
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
        let m = w.begin_section(TAG_CONFIG);
        encode_config(w, &self.config);
        w.end_section(m);

        let m = w.begin_section(TAG_ARCH);
        self.encode_arch(w);
        w.end_section(m);

        let m = w.begin_section(TAG_PREDICTORS);
        self.encode_predictors(w);
        w.end_section(m);

        let m = w.begin_section(TAG_MEMORY);
        encode_memory_state(w, &self.memory);
        w.end_section(m);

        let m = w.begin_section(TAG_RAS);
        self.ras.encode_state(w);
        w.end_section(m);

        let m = w.begin_section(TAG_MACHINE);
        self.encode_machine(w);
        w.end_section(m);

        let m = w.begin_section(TAG_STATS);
        self.encode_stats_section(w);
        w.end_section(m);

        let m = w.begin_section(TAG_GOLDEN);
        match &self.golden {
            Some(g) => {
                w.bool(true);
                encode_addr(w, g.pc);
            }
            None => w.bool(false),
        }
        w.end_section(m);
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
        let mut core = Core::new(config, program);
        core.decode_sections(&mut r)?;
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
    /// Returns [`SnapError::Corrupt`] when the snapshot is not quiescent
    /// (it has simulated cycles or holds in-flight state), plus every
    /// decode error [`Core::resume`] can report.
    ///
    /// # Panics
    ///
    /// Panics if `config` itself is structurally invalid (same contract
    /// as [`Core::new`]; the snapshot bytes never panic).
    pub fn resume_reconfigured(
        bytes: &[u8],
        program: &Program,
        config: CoreConfig,
    ) -> Result<Core, SnapError> {
        config.validate();
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
            let mut g = GoldenMachine::new(program);
            g.regs = core.regfile;
            g.mem.copy_from_slice(&core.mem_data);
            g.pc = core.path_ctx[0].fetch_pc;
            core.golden = Some(g);
        }
        Ok(core)
    }

    /// Reads the CONFIG section and validates the decoded configuration
    /// (shared with the `System` codec).
    pub(crate) fn decode_config_section(r: &mut SnapReader) -> Result<CoreConfig, SnapError> {
        let end = r.expect_section(TAG_CONFIG)?;
        let config = decode_config(r)?;
        r.end_section(end)?;
        config
            .check()
            .map_err(|_| SnapError::Corrupt("snapshot carries an invalid configuration"))?;
        Ok(config)
    }

    /// Decodes the seven post-CONFIG sections into a freshly constructed
    /// core (shared with the `System` codec).
    pub(crate) fn decode_sections(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let end = r.expect_section(TAG_ARCH)?;
        self.decode_arch(r)?;
        r.end_section(end)?;

        let end = r.expect_section(TAG_PREDICTORS)?;
        self.decode_predictors(r)?;
        r.end_section(end)?;

        let end = r.expect_section(TAG_MEMORY)?;
        decode_memory_state(r, &mut self.memory)?;
        r.end_section(end)?;

        let end = r.expect_section(TAG_RAS)?;
        self.ras = RasUnit::decode_state(r, &self.config)?;
        r.end_section(end)?;

        let end = r.expect_section(TAG_MACHINE)?;
        self.decode_machine(r)?;
        r.end_section(end)?;

        let end = r.expect_section(TAG_STATS)?;
        self.decode_stats_section(r)?;
        r.end_section(end)?;

        let end = r.expect_section(TAG_GOLDEN)?;
        if r.bool()? {
            let pc = decode_addr(r)?;
            let mut g = GoldenMachine::new(&self.program);
            g.regs = self.regfile;
            g.mem.copy_from_slice(&self.mem_data);
            g.pc = pc;
            self.golden = Some(g);
        }
        r.end_section(end)?;
        Ok(())
    }

    fn encode_arch(&self, w: &mut SnapWriter) {
        w.u64(self.program.fingerprint());
        w.u64(self.program.data_words());
        for &v in &self.regfile {
            w.i64(v);
        }
        w.usize(self.mem_data.len());
        for &v in &self.mem_data {
            w.i64(v);
        }
        w.bool(self.halted);
    }

    fn decode_arch(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        if r.u64()? != self.program.fingerprint() {
            return Err(SnapError::Corrupt(
                "snapshot was taken from a different program image",
            ));
        }
        if r.u64()? != self.program.data_words() {
            return Err(SnapError::Corrupt("data-memory size mismatch"));
        }
        for slot in &mut self.regfile {
            *slot = r.i64()?;
        }
        let n = r.seq_len(8)?;
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
        let hs = self.hybrid.snapshot_state();
        w.seq_u8(&hs.gag);
        w.usize(hs.pag_histories.len());
        for &h in &hs.pag_histories {
            w.u32(h);
        }
        w.seq_u8(&hs.pag_pht);
        w.seq_u8(&hs.chooser);
        w.u64(hs.global_history);

        let (sets, clock, hits, lookups) = self.btb.snapshot_state();
        w.usize(sets.len());
        for set in &sets {
            w.usize(set.len());
            for &(tag, target, lru) in set {
                w.u64(tag);
                encode_addr(w, target);
                w.u64(lru);
            }
        }
        w.u64(clock);
        w.u64(hits);
        w.u64(lookups);

        w.seq_u8(&self.confidence.snapshot_state());
    }

    fn decode_predictors(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let gag = r.seq_u8()?;
        let n = r.seq_len(4)?;
        let mut pag_histories = Vec::with_capacity(n);
        for _ in 0..n {
            pag_histories.push(r.u32()?);
        }
        let pag_pht = r.seq_u8()?;
        let chooser = r.seq_u8()?;
        let global_history = r.u64()?;
        let state = HybridState {
            gag,
            pag_histories,
            pag_pht,
            chooser,
            global_history,
        };
        if !self.hybrid.restore_state(&state) {
            return Err(SnapError::Corrupt("hybrid predictor geometry mismatch"));
        }

        let n = r.seq_len(8)?;
        let mut sets = Vec::with_capacity(n);
        for _ in 0..n {
            let m = r.seq_len(24)?;
            let mut set = Vec::with_capacity(m);
            for _ in 0..m {
                set.push((r.u64()?, decode_addr(r)?, r.u64()?));
            }
            sets.push(set);
        }
        let clock = r.u64()?;
        let hits = r.u64()?;
        let lookups = r.u64()?;
        if !self.btb.restore_state(&sets, clock, hits, lookups) {
            return Err(SnapError::Corrupt("BTB geometry mismatch"));
        }

        let conf = r.seq_u8()?;
        if !self.confidence.restore_state(&conf) {
            return Err(SnapError::Corrupt("confidence table mismatch"));
        }
        Ok(())
    }

    fn encode_machine(&self, w: &mut SnapWriter) {
        w.u8(self.hart.index() as u8);
        w.u64(self.cycle);
        w.u64(self.next_seq);
        w.u64(self.cycle_base);
        w.u64(self.last_commit_cycle);
        w.usize(self.fetch_rotor);
        match self.pending_refill {
            Some(c) => {
                w.bool(true);
                encode_lost_cause(w, c);
            }
            None => w.bool(false),
        }

        w.usize(self.paths.max_live());
        w.usize(self.paths.path_count());
        for (parent, fork_seq, alive) in self.paths.snapshot_rows() {
            encode_opt_path(w, parent);
            w.u64(fork_seq);
            w.bool(alive);
        }

        w.usize(self.path_ctx.len());
        for ctx in &self.path_ctx {
            encode_addr(w, ctx.fetch_pc);
            w.u64(ctx.stall_until);
            w.bool(ctx.fetch_stopped);
            for m in &ctx.map {
                match m {
                    Some(e) => {
                        w.bool(true);
                        w.u64(e.seq);
                        w.u32(e.slot);
                    }
                    None => w.bool(false),
                }
            }
            w.u64(ctx.history);
        }

        w.usize(self.slab.len());
        for u in &self.slab {
            encode_uop(w, u);
        }
        w.usize(self.slab_free.len());
        for &s in &self.slab_free {
            w.u32(s);
        }

        w.usize(self.fetch_queue.len());
        for &(ready_at, slot) in &self.fetch_queue {
            w.u64(ready_at);
            w.u32(slot);
        }
        w.usize(self.ruu.len());
        for &slot in &self.ruu {
            w.u32(slot);
        }
        encode_lsq(w, &self.lsq);
    }

    fn decode_machine(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let hart = r.u8()?;
        if hart >= self.config.harts {
            return Err(SnapError::Corrupt("hart index out of range"));
        }
        self.hart = HartId::new(hart);
        self.cycle = r.u64()?;
        self.next_seq = r.u64()?;
        self.cycle_base = r.u64()?;
        self.last_commit_cycle = r.u64()?;
        self.fetch_rotor = r.usize()?;
        self.pending_refill = if r.bool()? {
            Some(decode_lost_cause(r)?)
        } else {
            None
        };

        let max_live = r.usize()?;
        let expected_max = self.config.multipath.map(|m| m.max_paths).unwrap_or(1);
        if max_live != expected_max {
            return Err(SnapError::Corrupt("path capacity does not match config"));
        }
        let nrows = r.seq_len(10)?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            rows.push((decode_opt_path(r)?, r.u64()?, r.bool()?));
        }
        self.paths = PathTable::from_snapshot_rows(rows, max_live)
            .ok_or(SnapError::Corrupt("inconsistent path table"))?;

        let nctx = r.seq_len(25 + Reg::COUNT)?;
        if nctx != self.paths.path_count() {
            return Err(SnapError::Corrupt("path context count mismatch"));
        }
        let mut ctxs = Vec::with_capacity(nctx);
        for _ in 0..nctx {
            let fetch_pc = decode_addr(r)?;
            let stall_until = r.u64()?;
            let fetch_stopped = r.bool()?;
            let mut map = [None; Reg::COUNT];
            for m in &mut map {
                if r.bool()? {
                    *m = Some(MapEntry {
                        seq: r.u64()?,
                        slot: r.u32()?,
                    });
                }
            }
            let history = r.u64()?;
            ctxs.push(PathCtx {
                fetch_pc,
                stall_until,
                fetch_stopped,
                map,
                history,
            });
        }
        self.path_ctx = ctxs;

        let slab_cap = self.config.fetch_queue + self.config.ruu_size;
        let in_range = |s: u32| (s as usize) < slab_cap;
        let nslab = r.seq_len(64)?;
        if nslab != slab_cap {
            return Err(SnapError::Corrupt("slab capacity mismatch"));
        }
        let mut slab = Vec::with_capacity(nslab);
        for _ in 0..nslab {
            slab.push(decode_uop(r, &self.program, &self.ras)?);
        }
        self.slab = slab;
        let nfree = r.seq_len(4)?;
        if nfree > slab_cap {
            return Err(SnapError::Corrupt("slab free list overflow"));
        }
        let mut slab_free = Vec::with_capacity(slab_cap);
        for _ in 0..nfree {
            let s = r.u32()?;
            if !in_range(s) {
                return Err(SnapError::Corrupt("slab index out of range"));
            }
            slab_free.push(s);
        }
        self.slab_free = slab_free;

        self.fetch_queue.clear();
        let nfq = r.seq_len(12)?;
        if nfq > self.config.fetch_queue {
            return Err(SnapError::Corrupt("fetch queue overflow"));
        }
        for _ in 0..nfq {
            let ready_at = r.u64()?;
            let slot = r.u32()?;
            if !in_range(slot) {
                return Err(SnapError::Corrupt("slab index out of range"));
            }
            self.fetch_queue.push_back((ready_at, slot));
        }
        self.ruu.clear();
        let nruu = r.seq_len(4)?;
        if nruu > self.config.ruu_size {
            return Err(SnapError::Corrupt("RUU overflow"));
        }
        for _ in 0..nruu {
            let slot = r.u32()?;
            if !in_range(slot) {
                return Err(SnapError::Corrupt("slab index out of range"));
            }
            self.ruu.push_back(slot);
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
        let s = &self.stats;
        for v in [
            s.cycles,
            s.committed,
            s.fetched_uops,
            s.squashed_uops,
            s.cond_branches,
            s.cond_mispredictions,
            s.target_mispredictions,
            s.calls,
            s.returns,
            s.return_hits,
            s.return_hits_ras,
            s.return_hits_btb,
            s.return_no_prediction,
            s.ras_pushes,
            s.ras_pops,
            s.ras_overflows,
            s.ras_underflows,
            s.ras_restores,
            s.checkpoint_budget_misses,
            s.forks,
            s.max_live_paths,
            s.l1i_accesses,
            s.l1i_hits,
            s.l1d_accesses,
            s.l1d_hits,
        ] {
            w.u64(v);
        }
        for cause in LostCause::ALL {
            w.u64(self.cpi.get(cause));
        }
        encode_histogram(w, &self.occupancy.ruu);
        encode_histogram(w, &self.occupancy.lsq);
        encode_histogram(w, &self.occupancy.fetch_queue);
        encode_histogram(w, &self.occupancy.live_paths);
    }

    fn decode_stats_section(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.stats = SimStats {
            cycles: r.u64()?,
            committed: r.u64()?,
            fetched_uops: r.u64()?,
            squashed_uops: r.u64()?,
            cond_branches: r.u64()?,
            cond_mispredictions: r.u64()?,
            target_mispredictions: r.u64()?,
            calls: r.u64()?,
            returns: r.u64()?,
            return_hits: r.u64()?,
            return_hits_ras: r.u64()?,
            return_hits_btb: r.u64()?,
            return_no_prediction: r.u64()?,
            ras_pushes: r.u64()?,
            ras_pops: r.u64()?,
            ras_overflows: r.u64()?,
            ras_underflows: r.u64()?,
            ras_restores: r.u64()?,
            checkpoint_budget_misses: r.u64()?,
            forks: r.u64()?,
            max_live_paths: r.u64()?,
            l1i_accesses: r.u64()?,
            l1i_hits: r.u64()?,
            l1d_accesses: r.u64()?,
            l1d_hits: r.u64()?,
        };
        let mut cpi = CpiStack::default();
        for cause in LostCause::ALL {
            cpi.charge(cause, r.u64()?);
        }
        self.cpi = cpi;
        let max_paths = self.config.multipath.map(|m| m.max_paths).unwrap_or(1);
        self.occupancy.ruu = decode_histogram(r, self.config.ruu_size + 1)?;
        self.occupancy.lsq = decode_histogram(r, self.config.lsq_size + 1)?;
        self.occupancy.fetch_queue = decode_histogram(r, self.config.fetch_queue + 1)?;
        self.occupancy.live_paths = decode_histogram(r, max_paths + 1)?;
        Ok(())
    }
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
    /// in-flight micro-ops squashed (`kill_subtree` must return subtree
    /// membership, not just live paths), or wrong-path micro-ops commit.
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
        core.enable_pipe_trace(10_000);
        core.enable_golden_check();
        let stats = core.run(10_000);
        assert!(core.is_halted());

        let trace = core.pipe_trace().expect("enabled");
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
        assert!(core.pipe_trace().is_none());
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
