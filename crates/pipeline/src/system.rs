//! Multi-instance simulation: N cores × M hardware threads.
//!
//! A [`Core`] is a cheap, self-contained engine for one fetch/commit
//! stream. A [`System`] instantiates several of them and wires up the
//! structures real machines share: every hart on a core shares that
//! core's return-address-stack unit (under the configured
//! [`RasSharing`](crate::RasSharing) policy), and every core in the
//! system shares one memory hierarchy.
//!
//! # How sharing works
//!
//! Each engine owns private copies of the shared structures that are
//! never used once the system is multi-instance. The system keeps the
//! *live* shared RAS unit (per core) and memory hierarchy (per system)
//! in its own fields and swaps them into an engine for exactly the
//! duration of that engine's activation — a plain `mem::swap` of two
//! structs, no allocation, no indirection on the engine's hot path.
//! Harts are stepped round-robin, one cycle each, so sibling streams
//! interleave at cycle granularity like an SMT front end that
//! alternates fetch slots.
//!
//! A 1-core × 1-hart system skips the swapping entirely and drives its
//! single engine's own state, making it bit-for-bit identical to a
//! standalone [`Core`] run — the single-hart experiment goldens do not
//! move when wrapped in a `System`.

use crate::config::CoreConfig;
use crate::core::{decode_memory_state, encode_memory_state, Core};
use crate::event::{EventMask, Stamped};
use crate::path::HartId;
use crate::ras_unit::RasUnit;
use crate::snapshot::{
    SnapError, SnapReader, SnapWriter, KIND_CORE, KIND_SYSTEM, TAG_CORE_RAS, TAG_MEMORY, TAG_SYSTEM,
};
use crate::stats::SimStats;
use hydra_isa::Program;
use hydra_mem::MemoryHierarchy;

/// One core's engines plus the RAS unit its harts share.
#[derive(Debug)]
struct CoreInstance {
    /// One engine per hart: the per-stream pipeline state.
    engines: Vec<Core>,
    /// The live RAS unit shared by this core's harts (swapped into the
    /// active engine; the engines' own units are unused husks).
    ras: RasUnit,
}

/// A simulated machine of `cores × harts` instruction streams sharing
/// a memory hierarchy and, per core, a return-address-stack unit.
///
/// Build one with [`System::new`], drive it with [`System::run`] (or
/// cycle-by-cycle with [`System::step_cycle`]), and read per-hart
/// results with [`System::stats`] or through a [`CoreHandle`].
///
/// ```
/// use hydra_pipeline::{CoreConfig, RasSharing, System};
/// use hydra_isa::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// b.load_imm(hydra_isa::Reg::R1, 7);
/// b.halt();
/// let p = b.build().unwrap();
///
/// // Two harts on one core, contending for one shared RAS.
/// let config = CoreConfig::smt(2, RasSharing::Shared);
/// let mut sys = System::new(1, config, &[&p, &p]);
/// let stats = sys.run(10);
/// assert_eq!(stats.len(), 2);
/// ```
#[derive(Debug)]
pub struct System {
    cores: Vec<CoreInstance>,
    /// The live memory hierarchy shared by every core in the system.
    memory: MemoryHierarchy,
    harts_per_core: usize,
    /// Whether shared structures must be swapped into engines. False
    /// for the 1×1 system, which runs its lone engine's own state.
    shared: bool,
}

impl System {
    /// Builds `cores` cores of `config.harts` hardware threads each.
    /// `programs` supplies one program per hart, in hart-index order
    /// (hart `i` runs on core `i / harts`, local thread `i % harts`).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero, if `programs.len()` differs from
    /// `cores * config.harts`, or if the configuration is invalid (see
    /// [`CoreConfig::validate`]).
    pub fn new(cores: usize, config: CoreConfig, programs: &[&Program]) -> Self {
        assert!(cores > 0, "a system needs at least one core");
        config.validate();
        let harts_per_core = config.harts as usize;
        assert_eq!(
            programs.len(),
            cores * harts_per_core,
            "need one program per hart ({} cores x {} harts)",
            cores,
            harts_per_core
        );
        let mut programs = programs.iter();
        let cores: Vec<CoreInstance> = (0..cores)
            .map(|_| CoreInstance {
                engines: (0..harts_per_core)
                    .map(|local| {
                        let mut e = Core::new(config, programs.next().expect("counted"));
                        e.set_hart(HartId::new(local as u8));
                        e
                    })
                    .collect(),
                ras: RasUnit::new(&config),
            })
            .collect();
        let shared = cores.len() * harts_per_core > 1;
        System {
            cores,
            memory: MemoryHierarchy::new(config.mem),
            harts_per_core,
            shared,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Total number of harts (instruction streams) in the system.
    pub fn harts(&self) -> usize {
        self.cores.len() * self.harts_per_core
    }

    /// Splits a system-wide hart index into (core, local hart).
    fn locate(&self, hart: usize) -> (usize, usize) {
        assert!(hart < self.harts(), "hart {hart} of {}", self.harts());
        (hart / self.harts_per_core, hart % self.harts_per_core)
    }

    /// Runs `f` on hart `hart`'s engine with the shared structures
    /// swapped in (the only state an engine may ever observe them in).
    fn with_engine<R>(&mut self, hart: usize, f: impl FnOnce(&mut Core) -> R) -> R {
        let (c, l) = self.locate(hart);
        if !self.shared {
            return f(&mut self.cores[c].engines[l]);
        }
        let core = &mut self.cores[c];
        core.engines[l].swap_ras(&mut core.ras);
        core.engines[l].swap_memory(&mut self.memory);
        let r = f(&mut core.engines[l]);
        let core = &mut self.cores[c];
        core.engines[l].swap_ras(&mut core.ras);
        core.engines[l].swap_memory(&mut self.memory);
        r
    }

    /// Advances every non-halted hart by one cycle, round-robin in
    /// hart-index order.
    pub fn step_cycle(&mut self) {
        for hart in 0..self.harts() {
            let (c, l) = self.locate(hart);
            if self.cores[c].engines[l].is_halted() {
                continue;
            }
            self.with_engine(hart, Core::step);
        }
    }

    /// Runs until every hart has either committed `max_commits_per_hart`
    /// instructions (since its last stats reset) or halted; returns the
    /// per-hart statistics, in hart-index order.
    ///
    /// Harts that reach their commit target stop being stepped while the
    /// rest continue, so every hart's measurement window covers exactly
    /// its own first `max_commits_per_hart` commits.
    ///
    /// # Panics
    ///
    /// Panics if an engine wedges (see [`Core::run`]).
    pub fn run(&mut self, max_commits_per_hart: u64) -> Vec<SimStats> {
        if !self.shared {
            self.cores[0].engines[0].run(max_commits_per_hart);
            return self.stats();
        }
        while self.step_round(max_commits_per_hart) {}
        self.stats()
    }

    /// One round of [`System::run`]: steps, in hart order, every hart
    /// that has neither halted nor committed `max_commits_per_hart`
    /// instructions. Returns whether any hart stepped; rounds until it
    /// returns `false` are exactly `run`.
    pub fn step_round(&mut self, max_commits_per_hart: u64) -> bool {
        let mut active = false;
        for hart in 0..self.harts() {
            let (c, l) = self.locate(hart);
            let e = &self.cores[c].engines[l];
            if e.is_halted() || e.committed() >= max_commits_per_hart {
                continue;
            }
            self.with_engine(hart, Core::step);
            active = true;
        }
        active
    }

    /// Whether every hart has committed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.engines.iter().all(Core::is_halted))
    }

    /// Per-hart statistics, in hart-index order. RAS counters reflect
    /// the core-shared unit (aggregate over that core's harts) and cache
    /// counters the system-shared hierarchy; committed-instruction
    /// counters (IPC, return hits) are private to each hart.
    pub fn stats(&mut self) -> Vec<SimStats> {
        (0..self.harts())
            .map(|hart| self.with_engine(hart, |e| e.stats()))
            .collect()
    }

    /// Clears every hart's statistics (and the shared units' counters)
    /// while keeping all machine state warm, marking the start of the
    /// measurement window.
    pub fn reset_stats(&mut self) {
        for hart in 0..self.harts() {
            self.with_engine(hart, Core::reset_stats);
        }
    }

    /// A handle on one hart for inspection and per-hart configuration.
    pub fn hart(&mut self, hart: usize) -> CoreHandle<'_> {
        let (core, local) = self.locate(hart);
        CoreHandle {
            sys: self,
            core,
            local,
            hart,
        }
    }

    /// Serializes the whole machine — every hart's engine, each core's
    /// shared return-address-stack unit, and the system-shared memory
    /// hierarchy — into the versioned snapshot format. Resuming with
    /// [`System::resume`] continues the simulation byte-identically to
    /// the donor (see [`Core::save_snapshot`]).
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new(KIND_SYSTEM);
        w.section(TAG_SYSTEM, |w| {
            w.usize(self.cores.len());
            w.usize(self.harts_per_core);
            w.bool(self.shared);
        });
        for core in &self.cores {
            for e in &core.engines {
                e.encode_sections(&mut w);
            }
            w.section(TAG_CORE_RAS, |w| core.ras.encode_state(w));
        }
        w.section(TAG_MEMORY, |w| encode_memory_state(w, &self.memory));
        w.finish()
    }

    /// Reconstructs a system from [`System::save_snapshot`] bytes.
    /// `programs` supplies the same program images, in the same hart
    /// order, that the donor system was built with — each is validated
    /// against the fingerprint recorded in the snapshot.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated, corrupted, or version-skewed buffer
    /// yields a typed [`SnapError`]; the decoder never panics on
    /// untrusted bytes.
    pub fn resume(bytes: &[u8], programs: &[&Program]) -> Result<System, SnapError> {
        let (mut r, kind) = SnapReader::new(bytes)?;
        match kind {
            KIND_SYSTEM => {}
            KIND_CORE => {
                return Err(SnapError::Corrupt(
                    "this is a single-core snapshot; use Core::resume",
                ))
            }
            _ => return Err(SnapError::Corrupt("unknown snapshot kind")),
        }
        let (ncores, harts_per_core, shared) =
            r.section(TAG_SYSTEM, |r| Ok((r.usize()?, r.usize()?, r.bool()?)))?;
        if ncores == 0 || harts_per_core == 0 {
            return Err(SnapError::Corrupt("system snapshot with zero harts"));
        }
        if ncores.saturating_mul(harts_per_core) > r.remaining() {
            return Err(SnapError::Truncated);
        }
        if programs.len() != ncores * harts_per_core {
            return Err(SnapError::Corrupt(
                "program count does not match the snapshot's hart count",
            ));
        }
        if shared != (ncores * harts_per_core > 1) {
            return Err(SnapError::Corrupt("inconsistent sharing flag"));
        }
        let mut first_config: Option<CoreConfig> = None;
        let mut programs = programs.iter();
        let mut cores = Vec::with_capacity(ncores);
        for _ in 0..ncores {
            let mut engines = Vec::with_capacity(harts_per_core);
            for _ in 0..harts_per_core {
                let config = Core::decode_config_section(&mut r)?;
                if config.harts as usize != harts_per_core {
                    return Err(SnapError::Corrupt(
                        "engine hart count disagrees with the system header",
                    ));
                }
                match first_config {
                    None => first_config = Some(config),
                    Some(first) if first != config => {
                        return Err(SnapError::Corrupt("engine configurations differ"))
                    }
                    Some(_) => {}
                }
                let program = programs.next().expect("counted");
                let fingerprint = program.fingerprint();
                let mut e = Core::new(config, program);
                e.decode_sections(&mut r, fingerprint)?;
                engines.push(e);
            }
            let config = first_config.expect("harts_per_core > 0");
            let ras = r.section(TAG_CORE_RAS, |r| RasUnit::decode_state(r, &config))?;
            cores.push(CoreInstance { engines, ras });
        }
        let config = first_config.expect("ncores > 0");
        let mut memory = MemoryHierarchy::new(config.mem);
        r.section(TAG_MEMORY, |r| decode_memory_state(r, &mut memory))?;
        r.expect_end()?;
        Ok(System {
            cores,
            memory,
            harts_per_core,
            shared,
        })
    }
}

/// A borrowed view of one hart in a [`System`].
///
/// Reads that involve shared structures (like [`CoreHandle::stats`])
/// transparently swap them in, so the handle always observes the state
/// the hart itself would.
#[derive(Debug)]
pub struct CoreHandle<'a> {
    sys: &'a mut System,
    core: usize,
    local: usize,
    hart: usize,
}

impl CoreHandle<'_> {
    /// The system-wide hart index this handle views.
    pub fn index(&self) -> usize {
        self.hart
    }

    /// The core this hart runs on.
    pub fn core_index(&self) -> usize {
        self.core
    }

    /// The hart's identity as its core's RAS unit sees it.
    pub fn hart_id(&self) -> HartId {
        self.engine().hart_id()
    }

    /// Whether this hart committed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.engine().is_halted()
    }

    /// Cycles this hart has simulated.
    pub fn cycle(&self) -> u64 {
        self.engine().cycle()
    }

    /// This hart's statistics (see [`System::stats`]).
    pub fn stats(&mut self) -> SimStats {
        self.sys.with_engine(self.hart, |e| e.stats())
    }

    /// This hart's CPI-stack accounting (see [`Core::cpi_stack`]).
    pub fn cpi_stack(&self) -> hydra_obs::CpiStack {
        *self.engine().cpi_stack()
    }

    /// This hart's return-misprediction cause histogram, read from the
    /// core-shared RAS unit (see [`Core::mispredict_causes`]).
    pub fn mispredict_causes(&mut self) -> hydra_obs::CauseHistogram {
        self.sys.with_engine(self.hart, |e| e.mispredict_causes())
    }

    /// Sets the classes this hart's event tap records (see
    /// [`Core::set_tap`]).
    pub fn set_tap(&mut self, mask: EventMask) {
        self.engine_mut().set_tap(mask);
    }

    /// Drains this hart's tapped events into `into` (see
    /// [`Core::drain_tap`]).
    pub fn drain_tap(&mut self, into: &mut Vec<Stamped>) {
        self.engine_mut().drain_tap(into);
    }

    fn engine(&self) -> &Core {
        &self.sys.cores[self.core].engines[self.local]
    }

    fn engine_mut(&mut self) -> &mut Core {
        &mut self.sys.cores[self.core].engines[self.local]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RasSharing, ReturnPredictor};
    use hydra_workloads::{Workload, WorkloadSpec};
    use ras_core::RepairPolicy;

    fn workload(seed: u64) -> Workload {
        Workload::generate(&WorkloadSpec::test_small(), seed).unwrap()
    }

    fn ras_config(sharing: RasSharing, harts: u8) -> CoreConfig {
        let mut c = if harts > 1 {
            CoreConfig::smt(harts, sharing)
        } else {
            CoreConfig::baseline()
        };
        c.return_predictor = ReturnPredictor::Ras {
            entries: 32,
            repair: RepairPolicy::TosPointerAndContents,
        };
        c
    }

    #[test]
    fn single_hart_system_is_bit_exact_with_a_plain_core() {
        let w = workload(42);
        let direct = Core::new(ras_config(RasSharing::Shared, 1), w.program()).run(20_000);
        let mut sys = System::new(1, ras_config(RasSharing::Shared, 1), &[w.program()]);
        let stats = sys.run(20_000);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0], direct);
    }

    #[test]
    fn two_harts_make_progress_and_share_the_ras() {
        let (w0, w1) = (workload(42), workload(43));
        let mut sys = System::new(
            1,
            ras_config(RasSharing::Shared, 2),
            &[w0.program(), w1.program()],
        );
        let stats = sys.run(5_000);
        assert_eq!(stats.len(), 2);
        for (i, s) in stats.iter().enumerate() {
            assert!(s.committed >= 5_000, "hart {i} committed {}", s.committed);
            assert!(s.returns > 0, "hart {i} saw returns");
        }
        // RAS counters come from the one shared unit, so both harts
        // report the same (aggregate) push count.
        assert_eq!(stats[0].ras_pushes, stats[1].ras_pushes);
        assert!(stats[0].ras_pushes > 0);
    }

    #[test]
    fn shared_ras_contention_hurts_return_prediction() {
        let run = |sharing| {
            let (w0, w1) = (workload(42), workload(43));
            let mut sys = System::new(1, ras_config(sharing, 2), &[w0.program(), w1.program()]);
            let stats = sys.run(8_000);
            let hit = |s: &SimStats| s.return_hits as f64 / s.returns.max(1) as f64;
            (hit(&stats[0]) + hit(&stats[1])) / 2.0
        };
        let shared = run(RasSharing::Shared);
        let partitioned = run(RasSharing::Partitioned);
        let tagged = run(RasSharing::Tagged { tag_bits: 1 });
        assert!(
            shared < partitioned && shared < tagged,
            "shared {shared:.3} vs partitioned {partitioned:.3} / tagged {tagged:.3}"
        );
        assert!(partitioned > 0.5, "partitioned recovers: {partitioned:.3}");
    }

    #[test]
    fn two_cores_keep_private_ras_units() {
        let (w0, w1) = (workload(42), workload(43));
        // 2 cores x 1 hart: RAS units are per-core private, memory shared.
        let mut sys = System::new(
            2,
            ras_config(RasSharing::Shared, 1),
            &[w0.program(), w1.program()],
        );
        assert_eq!(sys.cores(), 2);
        assert_eq!(sys.harts(), 2);
        let stats = sys.run(5_000);
        // Private units: each core's counters reflect only its own stream
        // (the two different programs disagree with high probability).
        assert!(stats[0].ras_pushes > 0 && stats[1].ras_pushes > 0);
        let hit = |s: &SimStats| s.return_hits as f64 / s.returns.max(1) as f64;
        assert!(hit(&stats[0]) > 0.5 && hit(&stats[1]) > 0.5);
    }

    #[test]
    fn handles_expose_per_hart_state() {
        let (w0, w1) = (workload(7), workload(8));
        let mut sys = System::new(
            1,
            ras_config(RasSharing::Partitioned, 2),
            &[w0.program(), w1.program()],
        );
        sys.run(1_000);
        let mut h1 = sys.hart(1);
        assert_eq!(h1.index(), 1);
        assert_eq!(h1.core_index(), 0);
        assert_eq!(h1.hart_id(), HartId::new(1));
        assert!(h1.cycle() > 0);
        assert!(h1.stats().committed >= 1_000);
    }

    #[test]
    fn reset_stats_starts_the_measurement_window() {
        let (w0, w1) = (workload(42), workload(43));
        let mut sys = System::new(
            1,
            ras_config(RasSharing::Shared, 2),
            &[w0.program(), w1.program()],
        );
        sys.run(2_000);
        sys.reset_stats();
        let stats = sys.stats();
        assert_eq!(stats[0].committed, 0);
        assert_eq!(stats[0].ras_pushes, 0);
        let stats = sys.run(1_000);
        assert!((1_000..1_500).contains(&stats[0].committed));
    }
}
