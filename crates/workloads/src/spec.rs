//! Per-benchmark generation profiles.

/// A generation profile: every knob the generator uses to shape a
/// benchmark's control-flow character.
///
/// The eight entries of [`WorkloadSpec::spec95_suite`] model the SPECint95
/// members the paper evaluates. Values were chosen so the *measured*
/// dynamic properties (Table 2 of EXPERIMENTS.md) land near the published
/// SPECint95 characteristics: call densities of roughly 1–2% of
/// instructions, conditional-branch densities near 10–20%, and prediction
/// accuracies ordered go < gcc/ijpeg < compress/li < m88ksim/perl <
/// vortex.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (e.g. `"go"`).
    pub name: String,
    /// Number of generated functions (excluding `main` and the recursive
    /// helpers).
    pub functions: usize,
    /// Depth of the call DAG: functions are assigned levels `0..depth`
    /// and only call deeper levels, so call chains terminate.
    pub call_depth: usize,
    /// Straight-line ALU filler instructions per body segment
    /// `(min, max)`.
    pub filler: (usize, usize),
    /// Body segments per function `(min, max)`. Each segment is filler
    /// plus at most one feature (branch, loop, call, memory op).
    pub segments: (usize, usize),
    /// Weight of call-site segments. The five feature weights form a
    /// categorical distribution over segment contents (any remaining
    /// mass is a plain filler segment); weights are normalized if they
    /// sum past 1.0.
    pub call_prob: f64,
    /// Probability a call site is indirect (through the function-pointer
    /// table of leaf functions).
    pub indirect_frac: f64,
    /// Weight of *hard* (data-dependent) branch segments.
    pub hard_branch_prob: f64,
    /// Taken probability of hard branches (0..1, quantized to /256).
    pub hard_branch_takenness: f64,
    /// Weight of *easy* (heavily biased) branch segments.
    pub easy_branch_prob: f64,
    /// Weight of counted-loop segments (loop bodies never call).
    pub loop_prob: f64,
    /// Loop trip counts `(min, max)`.
    pub loop_iters: (u64, u64),
    /// Weight of load/store segments on the global region.
    pub mem_prob: f64,
    /// Maximum depth of the direct-recursive helper (0 disables it).
    pub recursion_depth: u64,
    /// Whether to generate a mutually-recursive helper pair.
    pub mutual_recursion: bool,
    /// Iterations of the top-level driver loop.
    pub outer_iterations: u64,
    /// Call sites in the driver-loop body.
    pub calls_in_main: usize,
    /// Entries in the indirect-call table (power of two).
    pub call_table_slots: usize,
    /// Data segment size in words.
    pub data_words: u64,
}

impl WorkloadSpec {
    /// A small, fast profile for unit tests and doc examples: a few
    /// functions, shallow recursion, a couple hundred outer iterations.
    pub fn test_small() -> Self {
        WorkloadSpec {
            name: "test-small".to_string(),
            functions: 8,
            call_depth: 3,
            filler: (2, 5),
            segments: (2, 4),
            call_prob: 0.5,
            indirect_frac: 0.2,
            hard_branch_prob: 0.3,
            hard_branch_takenness: 0.4,
            easy_branch_prob: 0.3,
            loop_prob: 0.2,
            loop_iters: (2, 5),
            mem_prob: 0.3,
            recursion_depth: 4,
            mutual_recursion: true,
            outer_iterations: 200,
            calls_in_main: 3,
            call_table_slots: 4,
            data_words: 16_384,
        }
    }

    /// The eight SPECint95 stand-ins the experiments run, in the paper's
    /// customary order.
    pub fn spec95_suite() -> Vec<WorkloadSpec> {
        vec![
            // go: enormous, branchy, hard-to-predict; few calls, shallow.
            WorkloadSpec {
                name: "go".to_string(),
                functions: 24,
                call_depth: 4,
                filler: (3, 8),
                segments: (4, 8),
                call_prob: 0.04,
                indirect_frac: 0.05,
                hard_branch_prob: 0.30,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.15,
                loop_prob: 0.04,
                loop_iters: (2, 6),
                mem_prob: 0.16,
                recursion_depth: 2,
                mutual_recursion: false,
                outer_iterations: 2_000_000,
                calls_in_main: 8,
                call_table_slots: 8,
                data_words: 16_384,
            },
            // m88ksim: simulator main loop; predictable branches, regular
            // moderately deep call chains.
            WorkloadSpec {
                name: "m88ksim".to_string(),
                functions: 28,
                call_depth: 6,
                filler: (3, 7),
                segments: (3, 6),
                call_prob: 0.08,
                indirect_frac: 0.10,
                hard_branch_prob: 0.02,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.32,
                loop_prob: 0.10,
                loop_iters: (3, 8),
                mem_prob: 0.25,
                recursion_depth: 0,
                mutual_recursion: false,
                outer_iterations: 2_000_000,
                calls_in_main: 4,
                call_table_slots: 8,
                data_words: 16_384,
            },
            // gcc: large code, many functions, fan-in everywhere, mixed
            // predictability, recursion (tree walks).
            WorkloadSpec {
                name: "gcc".to_string(),
                functions: 96,
                call_depth: 6,
                filler: (3, 8),
                segments: (3, 7),
                call_prob: 0.04,
                indirect_frac: 0.15,
                hard_branch_prob: 0.10,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.28,
                loop_prob: 0.05,
                loop_iters: (2, 5),
                mem_prob: 0.22,
                recursion_depth: 12,
                mutual_recursion: true,
                outer_iterations: 2_000_000,
                calls_in_main: 4,
                call_table_slots: 16,
                data_words: 16_384,
            },
            // compress: tiny kernel, tight loops, few functions but the
            // ones it has are called from everywhere (bad for BTB
            // returns), moderately predictable.
            WorkloadSpec {
                name: "compress".to_string(),
                functions: 6,
                call_depth: 3,
                filler: (3, 6),
                segments: (3, 6),
                call_prob: 0.10,
                indirect_frac: 0.0,
                hard_branch_prob: 0.12,
                hard_branch_takenness: 0.55,
                easy_branch_prob: 0.25,
                loop_prob: 0.15,
                loop_iters: (4, 12),
                mem_prob: 0.30,
                recursion_depth: 0,
                mutual_recursion: false,
                outer_iterations: 3_000_000,
                calls_in_main: 3,
                call_table_slots: 4,
                data_words: 16_384,
            },
            // li: lisp interpreter; deep direct+mutual recursion, call
            // dominated, fairly predictable branches.
            WorkloadSpec {
                name: "li".to_string(),
                functions: 40,
                call_depth: 5,
                filler: (2, 5),
                segments: (2, 5),
                call_prob: 0.08,
                indirect_frac: 0.20,
                hard_branch_prob: 0.04,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.28,
                loop_prob: 0.04,
                loop_iters: (2, 4),
                mem_prob: 0.15,
                recursion_depth: 24,
                mutual_recursion: true,
                outer_iterations: 2_000_000,
                calls_in_main: 5,
                call_table_slots: 16,
                data_words: 16_384,
            },
            // ijpeg: image kernels; loop-heavy, long straight-line runs,
            // few calls.
            WorkloadSpec {
                name: "ijpeg".to_string(),
                functions: 16,
                call_depth: 4,
                filler: (6, 14),
                segments: (4, 8),
                call_prob: 0.02,
                indirect_frac: 0.05,
                hard_branch_prob: 0.12,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.15,
                loop_prob: 0.20,
                loop_iters: (6, 12),
                mem_prob: 0.28,
                recursion_depth: 0,
                mutual_recursion: false,
                outer_iterations: 2_000_000,
                calls_in_main: 4,
                call_table_slots: 4,
                data_words: 16_384,
            },
            // perl: interpreter dispatch; many indirect calls, deep
            // recursion, predictable-ish branches.
            WorkloadSpec {
                name: "perl".to_string(),
                functions: 56,
                call_depth: 6,
                filler: (2, 6),
                segments: (2, 5),
                call_prob: 0.06,
                indirect_frac: 0.30,
                hard_branch_prob: 0.03,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.30,
                loop_prob: 0.05,
                loop_iters: (2, 5),
                mem_prob: 0.18,
                recursion_depth: 8,
                mutual_recursion: true,
                outer_iterations: 2_000_000,
                calls_in_main: 4,
                call_table_slots: 16,
                data_words: 16_384,
            },
            // vortex: OO database; call-return dominated, deep chains,
            // very predictable branches, heavy fan-in.
            WorkloadSpec {
                name: "vortex".to_string(),
                functions: 20,
                call_depth: 8,
                filler: (3, 9),
                segments: (2, 5),
                call_prob: 0.10,
                indirect_frac: 0.12,
                hard_branch_prob: 0.03,
                hard_branch_takenness: 0.50,
                easy_branch_prob: 0.30,
                loop_prob: 0.05,
                loop_iters: (2, 4),
                mem_prob: 0.18,
                recursion_depth: 0,
                mutual_recursion: false,
                outer_iterations: 2_000_000,
                calls_in_main: 5,
                call_table_slots: 8,
                data_words: 16_384,
            },
        ]
    }

    /// The generation seed of the suite's `index`-th benchmark when the
    /// suite as a whole is generated from `seed`. Every experiment, the
    /// [`Workload::spec95_suite`](crate::Workload::spec95_suite) helper
    /// and `expt run` derive per-benchmark seeds here, so a benchmark
    /// generated for one of them is the same program in all of them.
    pub fn suite_seed(seed: u64, index: usize) -> u64 {
        seed.wrapping_add(index as u64 * 0x9e37_79b9)
    }

    /// Looks up a suite profile by name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        WorkloadSpec::spec95_suite()
            .into_iter()
            .find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_distinct_names() {
        let suite = WorkloadSpec::spec95_suite();
        assert_eq!(suite.len(), 8);
        let mut names: Vec<_> = suite.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn by_name_finds_members() {
        assert!(WorkloadSpec::by_name("gcc").is_some());
        assert!(WorkloadSpec::by_name("nonesuch").is_none());
    }

    #[test]
    fn go_is_least_predictable_vortex_most() {
        let go = WorkloadSpec::by_name("go").unwrap();
        let vortex = WorkloadSpec::by_name("vortex").unwrap();
        assert!(go.hard_branch_prob > vortex.hard_branch_prob);
    }

    #[test]
    fn probabilities_are_in_range() {
        for s in WorkloadSpec::spec95_suite() {
            for p in [
                s.call_prob,
                s.indirect_frac,
                s.hard_branch_prob,
                s.hard_branch_takenness,
                s.easy_branch_prob,
                s.loop_prob,
                s.mem_prob,
            ] {
                assert!((0.0..=1.0).contains(&p), "{}: {p}", s.name);
            }
            assert!(s.call_table_slots.is_power_of_two());
            assert!(s.filler.0 <= s.filler.1);
            assert!(s.segments.0 <= s.segments.1);
            assert!(s.loop_iters.0 <= s.loop_iters.1);
        }
    }
}
