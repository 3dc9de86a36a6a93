//! The program generator.
//!
//! Register conventions of generated code (callee may clobber anything
//! except `r14` and `sp` discipline):
//!
//! | register | use |
//! |---|---|
//! | `r1..r7` | ALU filler scratch |
//! | `r8` | function-local loop counter (loop bodies never call) |
//! | `r9` | the global in-program LCG state driving all "random" data |
//! | `r10` | recursion-depth argument |
//! | `r11`, `r12` | branch-test and address temporaries |
//! | `r13` | indirect-call target |
//! | `r14` | `main`'s outer-loop counter (only `main` touches it) |
//! | `sp` (`r29`) | software stack pointer (grows upward from 0) |
//! | `ra` (`r31`) | link register, spilled by non-leaf functions |

use crate::WorkloadSpec;
use hydra_isa::{AluOp, BuildError, Cond, Label, Program, ProgramBuilder, Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Base word address of the global data region.
const GLOBAL_BASE: i64 = 2048;
/// Size mask of the global data region (4096 words).
const GLOBAL_MASK: i64 = 4095;
/// Base word address of the indirect-call table.
const TABLE_BASE: i64 = 8192;

/// Errors from workload generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The assembled program failed to build (generator bug).
    Build(BuildError),
    /// The spec is internally inconsistent.
    BadSpec(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Build(e) => write!(f, "program assembly failed: {e}"),
            GenError::BadSpec(msg) => write!(f, "invalid workload spec: {msg}"),
        }
    }
}

impl Error for GenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenError::Build(e) => Some(e),
            GenError::BadSpec(_) => None,
        }
    }
}

impl From<BuildError> for GenError {
    fn from(e: BuildError) -> Self {
        GenError::Build(e)
    }
}

/// A generated benchmark: the spec it came from, the seed, and the
/// executable program.
///
/// # Examples
///
/// ```
/// use hydra_workloads::{Workload, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Workload::generate(&WorkloadSpec::test_small(), 7)?;
/// assert_eq!(w.name(), "test-small");
/// assert!(w.program().len() > 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    seed: u64,
    program: Program,
}

impl Workload {
    /// Generates the program for `spec` deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::BadSpec`] for inconsistent specs (no functions,
    /// zero call-table slots); [`GenError::Build`] indicates a generator
    /// bug and should not occur.
    pub fn generate(spec: &WorkloadSpec, seed: u64) -> Result<Workload, GenError> {
        if spec.functions == 0 {
            return Err(GenError::BadSpec("spec needs at least one function".into()));
        }
        if spec.call_depth == 0 {
            return Err(GenError::BadSpec("call depth must be at least 1".into()));
        }
        if !spec.call_table_slots.is_power_of_two() {
            return Err(GenError::BadSpec(
                "call table slots must be a power of two".into(),
            ));
        }
        // The generator's memory map: software stack [0, GLOBAL_BASE),
        // globals [GLOBAL_BASE, GLOBAL_BASE + GLOBAL_MASK], call table at
        // TABLE_BASE. Loads and stores wrap modulo the data segment, so a
        // segment smaller than the map folds the regions onto each other
        // (return addresses spilled by prologues would overwrite the call
        // table).
        let needed = TABLE_BASE as u64 + spec.call_table_slots as u64;
        if spec.data_words < needed {
            return Err(GenError::BadSpec(format!(
                "data segment of {} words is smaller than the generator's                  memory map ({needed} words)",
                spec.data_words
            )));
        }
        let program = Generator::new(spec.clone(), seed).emit()?;
        Ok(Workload {
            spec: spec.clone(),
            seed,
            program,
        })
    }

    /// Generates the full eight-benchmark SPECint95 stand-in suite.
    ///
    /// # Errors
    ///
    /// Propagates any [`GenError`]; the built-in suite always succeeds.
    pub fn spec95_suite(seed: u64) -> Result<Vec<Workload>, GenError> {
        WorkloadSpec::spec95_suite()
            .iter()
            .enumerate()
            .map(|(i, s)| Workload::generate(s, WorkloadSpec::suite_seed(seed, i)))
            .collect()
    }

    /// The benchmark's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The generation profile.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The executable program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// A call embedded in a branch's then-block (a *conditional* call site;
/// these give callees bursty, multi-caller return patterns like real
/// code's, which is what defeats BTB-based return prediction).
#[derive(Debug, Clone, Copy)]
enum ThenCall {
    Direct(usize),
    Rec(RecKind),
    Indirect,
}

/// What a body segment contains besides filler.
#[derive(Debug, Clone, Copy)]
enum Feature {
    DirectCall(usize),
    RecursiveCall(RecKind),
    IndirectCall,
    HardBranch {
        threshold: u8,
        then_len: usize,
        then_call: Option<ThenCall>,
    },
    EasyBranch {
        threshold: u8,
        then_len: usize,
        then_call: Option<ThenCall>,
    },
    Loop {
        iters: u64,
        body_len: usize,
    },
    MemOp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecKind {
    Direct,
    Mutual,
}

struct Generator {
    spec: WorkloadSpec,
    rng: StdRng,
    b: ProgramBuilder,
    fn_labels: Vec<Label>,
    fn_levels: Vec<usize>,
    rec_label: Option<Label>,
    mutual_a: Option<Label>,
    rec_mask: i64,
}

impl Generator {
    fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let rec_mask = if spec.recursion_depth > 0 {
            (spec.recursion_depth.next_power_of_two() - 1) as i64
        } else {
            0
        };
        Generator {
            spec,
            rng: StdRng::seed_from_u64(seed),
            b: ProgramBuilder::new(),
            fn_labels: Vec::new(),
            fn_levels: Vec::new(),
            rec_label: None,
            mutual_a: None,
            rec_mask,
        }
    }

    fn emit(mut self) -> Result<Program, GenError> {
        let n = self.spec.functions;
        self.b.set_data_words(self.spec.data_words);
        self.fn_labels = (0..n).map(|_| self.b.fresh_label()).collect();
        self.fn_levels = (0..n)
            .map(|i| i * self.spec.call_depth / n.max(1))
            .collect();
        if self.spec.recursion_depth > 0 {
            self.rec_label = Some(self.b.fresh_label());
        }
        let mutual_b = if self.spec.mutual_recursion && self.spec.recursion_depth > 0 {
            self.mutual_a = Some(self.b.fresh_label());
            Some(self.b.fresh_label())
        } else {
            None
        };

        self.emit_main()?;
        for i in 0..n {
            self.emit_function(i)?;
        }
        if let Some(rec) = self.rec_label {
            self.emit_recursive(rec, None)?;
        }
        if let (Some(a), Some(bl)) = (self.mutual_a, mutual_b) {
            self.emit_recursive(a, Some(bl))?;
            self.emit_recursive(bl, Some(a))?;
        }
        self.b.build().map_err(GenError::from)
    }

    /// Leaf functions (deepest level) used to populate the indirect-call
    /// table.
    fn leaf_candidates(&self) -> Vec<usize> {
        let max_level = *self.fn_levels.iter().max().expect("non-empty");
        (0..self.spec.functions)
            .filter(|&i| self.fn_levels[i] == max_level)
            .collect()
    }

    fn callees_below(&self, level: usize) -> Vec<usize> {
        (0..self.spec.functions)
            .filter(|&i| self.fn_levels[i] > level)
            .collect()
    }

    fn emit_main(&mut self) -> Result<(), GenError> {
        let spec = self.spec.clone();
        self.b.load_imm(Reg::SP, 0);
        let seed_imm = self.rng.gen::<i64>() | 1;
        self.b.load_imm(Reg::gpr(9), seed_imm);
        self.b.load_imm(Reg::gpr(14), spec.outer_iterations as i64);

        // Populate the indirect-call table with leaf functions.
        let leaves = self.leaf_candidates();
        for slot in 0..spec.call_table_slots {
            let f = leaves[self.rng.gen_range(0..leaves.len())];
            let label = self.fn_labels[f];
            self.b.load_label_addr(Reg::gpr(12), label);
            self.b.load_imm(Reg::gpr(11), TABLE_BASE + slot as i64);
            self.b.store(Reg::gpr(12), Reg::gpr(11), 0);
        }

        let top = self.b.fresh_label();
        self.b.bind(top)?;

        // Driver body: a few call sites over level-0 functions, the
        // recursive helpers, and the indirect table.
        // Main's call sites: every level-0 function once (so the whole
        // DAG is reachable), plus the spec's extra random sites.
        let level0: Vec<usize> = (0..spec.functions)
            .filter(|&i| self.fn_levels[i] == 0)
            .collect();
        let mut main_targets: Vec<Option<usize>> = level0.iter().copied().map(Some).collect();
        for _ in 0..spec.calls_in_main {
            main_targets.push(None); // a random site
        }
        for preset in main_targets {
            let filler = self.rng.gen_range(1..=3);
            self.emit_filler(filler);
            // Some sites repeat their call in a short burst loop (counter
            // in r15, which nothing else touches): real programs call the
            // same site repeatedly from loops, which is what gives a BTB
            // partial credit on return targets.
            let burst = if self.rng.gen_bool(0.4) {
                let iters = self
                    .rng
                    .gen_range(spec.loop_iters.0..=spec.loop_iters.1.max(spec.loop_iters.0));
                let top = self.b.fresh_label();
                self.b.load_imm(Reg::gpr(15), iters as i64);
                self.b.bind(top)?;
                Some(top)
            } else {
                None
            };
            let roll: f64 = self.rng.gen();
            if let Some(f) = preset {
                let label = self.fn_labels[f];
                self.b.call(label);
            } else if roll < spec.indirect_frac {
                self.emit_indirect_call();
            } else if roll < spec.indirect_frac + 0.15 && self.rec_label.is_some() {
                let kind = if self.mutual_a.is_some() && self.rng.gen_bool(0.4) {
                    RecKind::Mutual
                } else {
                    RecKind::Direct
                };
                self.emit_recursive_call(kind);
            } else {
                let f = level0[self.rng.gen_range(0..level0.len())];
                let label = self.fn_labels[f];
                self.b.call(label);
            }
            if let Some(top) = burst {
                self.b.alu_imm(AluOp::Sub, Reg::gpr(15), Reg::gpr(15), 1);
                self.b.branch(Cond::Gt, Reg::gpr(15), Reg::ZERO, top);
            }
        }
        self.emit_lcg_advance();

        self.b.alu_imm(AluOp::Sub, Reg::gpr(14), Reg::gpr(14), 1);
        self.b.branch(Cond::Gt, Reg::gpr(14), Reg::ZERO, top);
        self.b.halt();
        Ok(())
    }

    fn emit_function(&mut self, index: usize) -> Result<(), GenError> {
        let spec = self.spec.clone();
        let level = self.fn_levels[index];
        let label = self.fn_labels[index];
        self.b.bind(label)?;

        // Plan the body first so we know whether this function calls.
        let n_segments = self
            .rng
            .gen_range(spec.segments.0..=spec.segments.1.max(spec.segments.0));
        let callees = self.callees_below(level);
        let mut plan: Vec<(usize, Option<Feature>)> = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let filler = self
                .rng
                .gen_range(spec.filler.0..=spec.filler.1.max(spec.filler.0));
            let feature = self.plan_feature(&callees);
            plan.push((filler, feature));
        }
        let has_call = |plan: &[(usize, Option<Feature>)]| {
            plan.iter().any(|(_, f)| {
                matches!(
                    f,
                    Some(
                        Feature::DirectCall(_)
                            | Feature::RecursiveCall(_)
                            | Feature::IndirectCall
                            | Feature::HardBranch {
                                then_call: Some(_),
                                ..
                            }
                            | Feature::EasyBranch {
                                then_call: Some(_),
                                ..
                            }
                    )
                )
            })
        };
        // Connectivity guarantee: a function above the deepest level
        // always calls at least one deeper function, so the whole call
        // graph is live regardless of which segments the dice produced.
        // (Without this, the dynamically hot set collapses to a few
        // shallow functions on unlucky seeds.)
        if !callees.is_empty() && !has_call(&plan) {
            let callee = callees[self.rng.gen_range(0..callees.len())];
            plan.push((1, Some(Feature::DirectCall(callee))));
        }
        let is_leaf = !has_call(&plan);

        if !is_leaf {
            self.emit_prologue();
        }
        for (filler, feature) in plan {
            self.emit_filler(filler);
            if let Some(f) = feature {
                self.emit_feature(f)?;
            }
        }
        if !is_leaf {
            self.emit_epilogue();
        }
        self.b.ret();
        Ok(())
    }

    /// Picks a segment feature from the spec's weights. The weights are
    /// treated as a categorical distribution; any remaining mass is a
    /// plain (filler-only) segment.
    fn plan_feature(&mut self, callees: &[usize]) -> Option<Feature> {
        let spec = &self.spec;
        let weights = [
            spec.call_prob,
            spec.hard_branch_prob,
            spec.easy_branch_prob,
            spec.loop_prob,
            spec.mem_prob,
        ];
        let total: f64 = weights.iter().sum::<f64>().max(1.0);
        let mut roll: f64 = self.rng.gen::<f64>() * total;
        let mut pick = weights.len(); // default: plain segment
        for (i, w) in weights.iter().enumerate() {
            if roll < *w {
                pick = i;
                break;
            }
            roll -= w;
        }
        match pick {
            0 => {
                // A call site: recursive, indirect, or direct.
                if self.rec_label.is_some() && self.rng.gen_bool(self.rec_site_prob()) {
                    let kind = if self.mutual_a.is_some() && self.rng.gen_bool(0.4) {
                        RecKind::Mutual
                    } else {
                        RecKind::Direct
                    };
                    return Some(Feature::RecursiveCall(kind));
                }
                if callees.is_empty() {
                    // Deepest level: no direct or indirect call sites.
                    // (The indirect table holds deepest-level functions;
                    // letting them indirect-call each other would create
                    // unbounded recursive cycles.)
                    return None;
                }
                if self.rng.gen_bool(spec.indirect_frac) {
                    return Some(Feature::IndirectCall);
                }
                let callee = callees[self.rng.gen_range(0..callees.len())];
                Some(Feature::DirectCall(callee))
            }
            1 => {
                let threshold = (spec.hard_branch_takenness * 256.0)
                    .round()
                    .clamp(1.0, 255.0) as u8;
                Some(Feature::HardBranch {
                    threshold,
                    then_len: self.rng.gen_range(1..=3),
                    then_call: self.plan_then_call(callees),
                })
            }
            2 => {
                // Heavily biased: ~2% or ~98% taken.
                let threshold = if self.rng.gen_bool(0.5) { 6 } else { 250 };
                Some(Feature::EasyBranch {
                    threshold,
                    then_len: self.rng.gen_range(1..=3),
                    then_call: self.plan_then_call(callees),
                })
            }
            3 => {
                let iters = self
                    .rng
                    .gen_range(spec.loop_iters.0..=spec.loop_iters.1.max(spec.loop_iters.0));
                Some(Feature::Loop {
                    iters,
                    body_len: self.rng.gen_range(1..=3),
                })
            }
            4 => Some(Feature::MemOp),
            _ => None,
        }
    }

    /// Fraction of call sites that target the recursive helpers, scaled
    /// with the benchmark's recursion depth so shallow-recursion profiles
    /// are not dominated by the helpers' data-dependent base-case branch.
    fn rec_site_prob(&self) -> f64 {
        if self.spec.recursion_depth == 0 {
            0.0
        } else {
            (0.02 + 0.003 * self.spec.recursion_depth as f64).min(0.15)
        }
    }

    /// Decides whether a branch's then-block embeds a call site and of
    /// what kind. Conditional call sites are what give a callee several
    /// dynamically-interleaved callers.
    fn plan_then_call(&mut self, callees: &[usize]) -> Option<ThenCall> {
        if !self.rng.gen_bool(0.20) {
            return None;
        }
        if self.rec_label.is_some() && self.rng.gen_bool(self.rec_site_prob()) {
            let kind = if self.mutual_a.is_some() && self.rng.gen_bool(0.4) {
                RecKind::Mutual
            } else {
                RecKind::Direct
            };
            return Some(ThenCall::Rec(kind));
        }
        if callees.is_empty() {
            return None; // deepest level: see plan_feature
        }
        if self.rng.gen_bool(self.spec.indirect_frac) {
            return Some(ThenCall::Indirect);
        }
        Some(ThenCall::Direct(
            callees[self.rng.gen_range(0..callees.len())],
        ))
    }

    fn emit_feature(&mut self, feature: Feature) -> Result<(), GenError> {
        match feature {
            Feature::DirectCall(callee) => {
                let label = self.fn_labels[callee];
                self.b.call(label);
            }
            Feature::RecursiveCall(kind) => self.emit_recursive_call(kind),
            Feature::IndirectCall => self.emit_indirect_call(),
            Feature::HardBranch {
                threshold,
                then_len,
                then_call,
            }
            | Feature::EasyBranch {
                threshold,
                then_len,
                then_call,
            } => {
                self.emit_lcg_advance();
                self.b.alu_imm(AluOp::Srl, Reg::gpr(11), Reg::gpr(9), 33);
                self.b.alu_imm(AluOp::And, Reg::gpr(11), Reg::gpr(11), 255);
                self.b
                    .alu_imm(AluOp::Slt, Reg::gpr(11), Reg::gpr(11), i64::from(threshold));
                let skip = self.b.fresh_label();
                self.b.branch(Cond::Ne, Reg::gpr(11), Reg::ZERO, skip);
                self.emit_filler(then_len);
                match then_call {
                    Some(ThenCall::Direct(callee)) => {
                        let label = self.fn_labels[callee];
                        self.b.call(label);
                    }
                    Some(ThenCall::Rec(kind)) => self.emit_recursive_call(kind),
                    Some(ThenCall::Indirect) => self.emit_indirect_call(),
                    None => {}
                }
                self.b.bind(skip)?;
            }
            Feature::Loop { iters, body_len } => {
                self.b.load_imm(Reg::gpr(8), iters as i64);
                let top = self.b.fresh_label();
                self.b.bind(top)?;
                self.emit_filler(body_len);
                self.b.alu_imm(AluOp::Sub, Reg::gpr(8), Reg::gpr(8), 1);
                self.b.branch(Cond::Gt, Reg::gpr(8), Reg::ZERO, top);
            }
            Feature::MemOp => {
                self.emit_lcg_advance();
                self.b.alu_imm(AluOp::Srl, Reg::gpr(12), Reg::gpr(9), 17);
                self.b
                    .alu_imm(AluOp::And, Reg::gpr(12), Reg::gpr(12), GLOBAL_MASK);
                self.b
                    .alu_imm(AluOp::Add, Reg::gpr(12), Reg::gpr(12), GLOBAL_BASE);
                self.b.store(Reg::gpr(1), Reg::gpr(12), 0);
                self.b.load(Reg::gpr(2), Reg::gpr(12), 0);
            }
        }
        Ok(())
    }

    fn emit_recursive_call(&mut self, kind: RecKind) {
        // r10 = recursion depth, fixed per call site (drawn at generation
        // time). Depths vary across sites — which is what exercises the
        // return-address stack at different nesting levels — while the
        // helper's base-case branch stays history-predictable, as it is
        // in real recursive code walking similarly-shaped structures.
        let depth = self.rng.gen_range(1..=self.spec.recursion_depth.max(1)) as i64;
        self.b.load_imm(Reg::gpr(10), depth);
        let target = match kind {
            RecKind::Direct => self.rec_label.expect("recursion enabled"),
            RecKind::Mutual => self.mutual_a.expect("mutual recursion enabled"),
        };
        self.b.call(target);
    }

    fn emit_indirect_call(&mut self) {
        self.emit_lcg_advance();
        // Skewed slot selection (AND of two independent bit windows):
        // like real interpreter dispatch, a few hot targets dominate
        // instead of a uniform scramble.
        self.b.alu_imm(AluOp::Srl, Reg::gpr(11), Reg::gpr(9), 21);
        self.b.alu_imm(AluOp::Srl, Reg::gpr(12), Reg::gpr(9), 43);
        self.b
            .alu(AluOp::And, Reg::gpr(11), Reg::gpr(11), Reg::gpr(12));
        self.b.alu_imm(
            AluOp::And,
            Reg::gpr(11),
            Reg::gpr(11),
            self.spec.call_table_slots as i64 - 1,
        );
        self.b
            .alu_imm(AluOp::Add, Reg::gpr(11), Reg::gpr(11), TABLE_BASE);
        self.b.load(Reg::gpr(13), Reg::gpr(11), 0);
        self.b.call_indirect(Reg::gpr(13));
    }

    /// A self- or mutually-recursive helper:
    /// clamp r10; if r10 <= 0 return; save ra; --r10; call peer; restore.
    fn emit_recursive(&mut self, label: Label, peer: Option<Label>) -> Result<(), GenError> {
        self.b.bind(label)?;
        let base = self.b.fresh_label();
        self.b
            .alu_imm(AluOp::And, Reg::gpr(10), Reg::gpr(10), self.rec_mask);
        self.b.branch(Cond::Le, Reg::gpr(10), Reg::ZERO, base);
        self.emit_prologue();
        self.emit_filler(2);
        self.b.alu_imm(AluOp::Sub, Reg::gpr(10), Reg::gpr(10), 1);
        self.b.call(peer.unwrap_or(label));
        self.emit_epilogue();
        self.b.bind(base)?;
        self.b.ret();
        Ok(())
    }

    fn emit_prologue(&mut self) {
        self.b.alu_imm(AluOp::Add, Reg::SP, Reg::SP, 1);
        self.b.store(Reg::RA, Reg::SP, 0);
    }

    fn emit_epilogue(&mut self) {
        self.b.load(Reg::RA, Reg::SP, 0);
        self.b.alu_imm(AluOp::Sub, Reg::SP, Reg::SP, 1);
    }

    /// Advances the in-program pseudo-random state in `r9` with an
    /// xorshift step (all single-cycle operations, so data-dependent
    /// branches resolve at realistic latencies).
    fn emit_lcg_advance(&mut self) {
        let r9 = Reg::gpr(9);
        let r11 = Reg::gpr(11);
        self.b.alu_imm(AluOp::Sll, r11, r9, 13);
        self.b.alu(AluOp::Xor, r9, r9, r11);
        self.b.alu_imm(AluOp::Srl, r11, r9, 7);
        self.b.alu(AluOp::Xor, r9, r9, r11);
        self.b.alu_imm(AluOp::Sll, r11, r9, 17);
        self.b.alu(AluOp::Xor, r9, r9, r11);
    }

    fn emit_filler(&mut self, count: usize) {
        const OPS: [AluOp; 6] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Or,
            AluOp::And,
            AluOp::Sll,
        ];
        for _ in 0..count {
            let rd = Reg::gpr(self.rng.gen_range(1..=7));
            let rs = Reg::gpr(self.rng.gen_range(1..=7));
            if self.rng.gen_bool(0.12) {
                // Occasional long-latency op to exercise the OoO window.
                self.b
                    .alu_imm(AluOp::Mul, rd, rs, self.rng.gen_range(3..=9));
            } else if self.rng.gen_bool(0.5) {
                let rt = Reg::gpr(self.rng.gen_range(1..=7));
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                if op == AluOp::Sll {
                    self.b.alu_imm(AluOp::Sll, rd, rs, self.rng.gen_range(0..8));
                } else {
                    self.b.alu(op, rd, rs, rt);
                }
            } else {
                let op = OPS[self.rng.gen_range(0..5usize)];
                self.b.alu_imm(op, rd, rs, self.rng.gen_range(-64..=64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_isa::{ControlKind, Machine};

    fn small() -> Workload {
        Workload::generate(&WorkloadSpec::test_small(), 42).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(&WorkloadSpec::test_small(), 42).unwrap();
        let b = Workload::generate(&WorkloadSpec::test_small(), 42).unwrap();
        assert_eq!(a.program(), b.program());
        let c = Workload::generate(&WorkloadSpec::test_small(), 43).unwrap();
        assert_ne!(a.program(), c.program());
    }

    #[test]
    fn small_workload_runs_to_halt() {
        let w = small();
        let mut m = Machine::new(w.program());
        let n = m.run(5_000_000).expect("terminates");
        assert!(m.is_halted());
        assert!(n > 5_000, "retired {n}");
    }

    #[test]
    fn program_contains_calls_returns_and_branches() {
        let w = small();
        let p = w.program();
        assert!(p.count_matching(|i| i.control_kind().is_call()) >= 3);
        assert!(p.count_matching(|i| i.control_kind().is_return()) >= 3);
        assert!(
            p.count_matching(|i| matches!(i.control_kind(), ControlKind::CondBranch { .. })) >= 3
        );
    }

    #[test]
    fn dynamic_stream_balances_calls_and_returns() {
        let w = small();
        let mut m = Machine::new(w.program());
        let mut calls = 0u64;
        let mut returns = 0u64;
        let mut depth = 0i64;
        let mut max_depth = 0i64;
        while !m.is_halted() {
            let r = m.step().expect("no faults");
            let ck = r.inst.control_kind();
            if ck.is_call() {
                calls += 1;
                depth += 1;
                max_depth = max_depth.max(depth);
            } else if ck.is_return() {
                returns += 1;
                depth -= 1;
            }
            assert!(depth >= 0, "return without matching call");
            if m.retired_count() > 5_000_000 {
                panic!("runaway");
            }
        }
        assert_eq!(calls, returns, "every call returns");
        assert!(max_depth >= 3, "some nesting: {max_depth}");
        assert!(calls > 100, "plenty of calls: {calls}");
    }

    #[test]
    fn returns_always_match_call_sites() {
        // The golden property the RAS relies on: a return's actual target
        // is the instruction after the matching call.
        let w = small();
        let mut m = Machine::new(w.program());
        let mut shadow = Vec::new();
        while !m.is_halted() {
            let r = m.step().expect("no faults");
            let ck = r.inst.control_kind();
            if ck.is_call() {
                shadow.push(r.pc.next());
            } else if ck.is_return() {
                let expect = shadow.pop().expect("matched");
                assert_eq!(r.next_pc, expect, "return target mismatch at {}", r.pc);
            }
            if m.retired_count() > 5_000_000 {
                panic!("runaway");
            }
        }
    }

    #[test]
    fn suite_generates_and_smoke_runs() {
        let suite = Workload::spec95_suite(1).unwrap();
        assert_eq!(suite.len(), 8);
        for w in &suite {
            let mut m = Machine::new(w.program());
            // Don't run to completion (hundreds of millions of
            // instructions); just smoke-test a slice.
            match m.run(200_000) {
                Ok(_) => {}                                              // tiny benchmark finished
                Err(hydra_isa::ExecError::InstructionLimit { .. }) => {} // expected
                Err(e) => panic!("{}: {e}", w.name()),
            }
            assert!(m.retired_count() > 50_000, "{} too short", w.name());
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut s = WorkloadSpec::test_small();
        s.functions = 0;
        assert!(matches!(
            Workload::generate(&s, 1),
            Err(GenError::BadSpec(_))
        ));
        let mut s = WorkloadSpec::test_small();
        s.call_depth = 0;
        assert!(matches!(
            Workload::generate(&s, 1),
            Err(GenError::BadSpec(_))
        ));
        let mut s = WorkloadSpec::test_small();
        s.call_table_slots = 3;
        assert!(matches!(
            Workload::generate(&s, 1),
            Err(GenError::BadSpec(_))
        ));
    }

    #[test]
    fn accessors() {
        let w = small();
        assert_eq!(w.seed(), 42);
        assert_eq!(w.spec().name, "test-small");
        assert!(!GenError::BadSpec("x".into()).to_string().is_empty());
    }

    #[test]
    fn hard_branches_are_actually_unpredictable() {
        // Measure takenness of dynamic conditional branches; with hard
        // branches present the aggregate should be strictly between the
        // biases.
        let w = small();
        let mut m = Machine::new(w.program());
        let mut taken = 0u64;
        let mut total = 0u64;
        while !m.is_halted() && m.retired_count() < 300_000 {
            let r = m.step().unwrap();
            if let Some(t) = r.taken {
                total += 1;
                taken += u64::from(t);
            }
        }
        assert!(total > 500);
        let rate = taken as f64 / total as f64;
        assert!((0.05..=0.95).contains(&rate), "takenness {rate}");
    }
}

#[cfg(test)]
mod connectivity_tests {
    use super::*;
    use hydra_isa::{ControlKind, Inst};
    use std::collections::HashSet;

    /// Static reachability: every generated function is reachable from
    /// main through direct calls and the indirect-call table.
    #[test]
    fn every_function_is_statically_reachable() {
        for seed in [1u64, 2, 3] {
            for spec in WorkloadSpec::spec95_suite() {
                let w = Workload::generate(&spec, seed).unwrap();
                let p = w.program();
                // Call targets: direct calls + every address materialized
                // by load_label_addr into the table (LoadImm of a code
                // address is only emitted for table setup).
                let mut targets: HashSet<u64> = HashSet::new();
                for (_, inst) in p.iter() {
                    match inst {
                        Inst::Call { target } => {
                            targets.insert(target.word());
                        }
                        Inst::LoadImm { imm, .. } if imm >= 0 && (imm as u64) < p.len() as u64 => {
                            targets.insert(imm as u64);
                        }
                        _ => {}
                    }
                }
                // Function entries: each `ret` ends a function; entries
                // are found by scanning for call targets. Every function
                // entry the generator laid down must be called somewhere:
                // count distinct call targets and compare against the
                // spec's function count (helpers add a few more).
                assert!(
                    targets.len() >= spec.functions.min(8),
                    "{} seed {seed}: only {} distinct call targets",
                    spec.name,
                    targets.len()
                );
            }
        }
    }

    /// Dynamic depth: with connectivity guaranteed, the call tree goes at
    /// least a couple of levels deep on every suite benchmark.
    #[test]
    fn suite_call_trees_are_deep() {
        for spec in WorkloadSpec::spec95_suite() {
            let w = Workload::generate(&spec, 12345).unwrap();
            let mut m = hydra_isa::Machine::new(w.program());
            let mut depth = 0u64;
            let mut max_depth = 0u64;
            while !m.is_halted() && m.retired_count() < 150_000 {
                let r = m.step().unwrap();
                let ck = r.inst.control_kind();
                if ck.is_call() {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                } else if matches!(ck, ControlKind::Return) {
                    depth = depth.saturating_sub(1);
                }
            }
            let floor = if spec.call_depth >= 3 { 3 } else { 2 };
            assert!(
                max_depth >= floor,
                "{}: max call depth {max_depth} < {floor}",
                spec.name
            );
        }
    }

    /// Snapshots carry the program fingerprint, so its value is part of
    /// the snapshot format: pinned for a hand-built image and a suite
    /// program.
    #[test]
    fn program_fingerprints_are_pinned() {
        use hydra_isa::{Inst, Program};
        let tiny = Program::new(vec![Inst::Nop, Inst::Return, Inst::Halt], 64);
        let compress = Workload::generate(&WorkloadSpec::spec95_suite()[3], 7).unwrap();
        assert_eq!(compress.name(), "compress");
        assert_eq!(
            [tiny.fingerprint(), compress.program().fingerprint()],
            [1_466_158_746_611_915_305, 16_064_416_003_149_591_148]
        );
    }
}
