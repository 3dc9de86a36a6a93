//! Architectural (functional) workload profiling.
//!
//! The paper's Table 2 characterizes its benchmarks: dynamic instruction
//! mix, branch behaviour, and call-nesting profile. [`DynamicProfile`]
//! computes the same characterization for a generated workload by running
//! the functional emulator — no pipeline involved, so it measures the
//! *program*, not the machine.

use crate::Workload;
use hydra_isa::{ControlKind, ExecError, FastCore, FunctionalCore};
use hydra_stats::{Histogram, Ratio};
use std::fmt;

/// Dynamic characteristics of a workload over an execution window.
///
/// # Examples
///
/// ```
/// use hydra_workloads::{DynamicProfile, Workload, WorkloadSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Workload::generate(&WorkloadSpec::test_small(), 42)?;
/// let p = DynamicProfile::measure(&w, 2_000_000);
/// assert!(p.halted);
/// assert_eq!(p.calls, p.returns); // the generator's invariant
/// assert!(p.cond_branch_fraction().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicProfile {
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Whether the program halted within the window.
    pub halted: bool,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Conditional branches that were taken.
    pub taken_branches: u64,
    /// Dynamic calls (direct + indirect).
    pub calls: u64,
    /// Dynamic indirect calls.
    pub indirect_calls: u64,
    /// Dynamic returns.
    pub returns: u64,
    /// Dynamic unconditional direct jumps.
    pub jumps: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Call-nesting depth at each return (histogram).
    pub depth_histogram: Histogram,
    /// Deepest call nesting observed.
    pub max_call_depth: u64,
}

impl DynamicProfile {
    /// Profiles `workload` for at most `limit` instructions on the
    /// functional core (the pre-decoded [`FastCore`], observably
    /// identical to `Machine` but an order of magnitude faster — this
    /// loop still steps one instruction at a time because it inspects
    /// every retired record).
    pub fn measure(workload: &Workload, limit: u64) -> DynamicProfile {
        let mut m = FastCore::new(workload.program());
        let mut p = DynamicProfile {
            instructions: 0,
            halted: false,
            cond_branches: 0,
            taken_branches: 0,
            calls: 0,
            indirect_calls: 0,
            returns: 0,
            jumps: 0,
            loads: 0,
            stores: 0,
            depth_histogram: Histogram::with_cap(128),
            max_call_depth: 0,
        };
        let mut depth: u64 = 0;
        while !m.is_halted() && m.retired_count() < limit {
            let r = match m.step() {
                Ok(r) => r,
                Err(ExecError::Halted) => break,
                Err(e) => unreachable!("generated programs do not fault: {e}"),
            };
            p.instructions += 1;
            if r.inst.is_load() {
                p.loads += 1;
            } else if r.inst.is_store() {
                p.stores += 1;
            }
            match r.inst.control_kind() {
                ControlKind::CondBranch { .. } => {
                    p.cond_branches += 1;
                    if r.taken == Some(true) {
                        p.taken_branches += 1;
                    }
                }
                ControlKind::Call { .. } => {
                    p.calls += 1;
                    depth += 1;
                }
                ControlKind::IndirectCall => {
                    p.calls += 1;
                    p.indirect_calls += 1;
                    depth += 1;
                }
                ControlKind::Return => {
                    p.returns += 1;
                    p.depth_histogram.record(depth);
                    depth = depth.saturating_sub(1);
                }
                ControlKind::Jump { .. } => p.jumps += 1,
                _ => {}
            }
            p.max_call_depth = p.max_call_depth.max(depth);
        }
        p.halted = m.is_halted();
        p
    }

    /// Fraction of instructions that are conditional branches.
    pub fn cond_branch_fraction(&self) -> Ratio {
        Ratio::of(self.cond_branches, self.instructions)
    }

    /// Fraction of instructions that are calls.
    pub fn call_fraction(&self) -> Ratio {
        Ratio::of(self.calls, self.instructions)
    }

    /// Fraction of instructions that are returns.
    pub fn return_fraction(&self) -> Ratio {
        Ratio::of(self.returns, self.instructions)
    }

    /// Fraction of instructions that touch data memory.
    pub fn memory_fraction(&self) -> Ratio {
        Ratio::of(self.loads + self.stores, self.instructions)
    }

    /// Taken rate of conditional branches.
    pub fn taken_rate(&self) -> Ratio {
        Ratio::of(self.taken_branches, self.cond_branches)
    }

    /// Fraction of calls that are indirect.
    pub fn indirect_call_fraction(&self) -> Ratio {
        Ratio::of(self.indirect_calls, self.calls)
    }

    /// Mean call-nesting depth at returns.
    pub fn mean_call_depth(&self) -> f64 {
        self.depth_histogram.mean()
    }
}

impl fmt::Display for DynamicProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instrs: {} cond-br ({} taken), {} calls ({} indirect), \
             {} returns, depth mean {:.1} max {}",
            self.instructions,
            self.cond_branch_fraction(),
            self.taken_rate(),
            self.call_fraction(),
            self.indirect_call_fraction(),
            self.return_fraction(),
            self.mean_call_depth(),
            self.max_call_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadSpec;

    fn profile() -> DynamicProfile {
        let w = Workload::generate(&WorkloadSpec::test_small(), 42).unwrap();
        DynamicProfile::measure(&w, 2_000_000)
    }

    #[test]
    fn small_workload_halts_and_balances() {
        let p = profile();
        assert!(p.halted);
        assert_eq!(p.calls, p.returns);
        assert!(p.instructions > 10_000);
    }

    #[test]
    fn fractions_are_consistent() {
        let p = profile();
        assert_eq!(
            p.call_fraction().numerator(),
            p.calls,
            "ratio carries the raw count"
        );
        assert!(p.cond_branch_fraction().value() > 0.01);
        assert!(p.memory_fraction().value() > 0.0);
        assert!(p.taken_rate().value() > 0.0 && p.taken_rate().value() < 1.0);
    }

    #[test]
    fn depth_histogram_matches_counts() {
        let p = profile();
        assert_eq!(p.depth_histogram.total(), p.returns);
        assert!(p.max_call_depth >= 3, "test workload nests calls");
        assert!(p.mean_call_depth() >= 1.0);
    }

    #[test]
    fn limit_truncates_window() {
        let w = Workload::generate(&WorkloadSpec::test_small(), 42).unwrap();
        let p = DynamicProfile::measure(&w, 1_000);
        assert!(!p.halted);
        assert_eq!(p.instructions, 1_000);
    }

    #[test]
    fn indirect_calls_counted_when_present() {
        // perl models interpreter dispatch: 30% of call sites are
        // indirect, so dynamic indirect calls must appear.
        let spec = WorkloadSpec::by_name("perl").unwrap();
        let w = Workload::generate(&spec, 12345).unwrap();
        let p = DynamicProfile::measure(&w, 200_000);
        assert!(p.indirect_calls > 0);
        assert!(p.indirect_call_fraction().value() < 1.0);
    }

    #[test]
    fn display_is_informative() {
        let p = profile();
        let s = p.to_string();
        assert!(s.contains("instrs"));
        assert!(s.contains("returns"));
    }

    #[test]
    fn suite_profiles_have_spec_like_character() {
        // The calibrated suite: call fractions in a plausible SPEC-like
        // band and li clearly the most call-intensive.
        let mut li_calls = 0.0;
        let mut go_calls = 0.0;
        for spec in WorkloadSpec::spec95_suite() {
            let w = Workload::generate(&spec, 12345).unwrap();
            let p = DynamicProfile::measure(&w, 300_000);
            let f = p.call_fraction().value();
            assert!(
                (0.001..0.12).contains(&f),
                "{}: call fraction {f}",
                spec.name
            );
            match spec.name.as_str() {
                "li" => li_calls = f,
                "go" => go_calls = f,
                _ => {}
            }
        }
        assert!(li_calls > go_calls, "li is more call-intensive than go");
    }
}
