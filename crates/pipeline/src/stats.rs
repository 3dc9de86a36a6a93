//! Simulation statistics.

use hydra_stats::Ratio;

/// Where a return-target prediction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnSource {
    /// Popped from the return-address stack.
    Ras,
    /// Looked up in the BTB (BTB-only configuration, or RAS had no
    /// prediction).
    Btb,
    /// No predictor had a target; fetch fell through sequentially.
    Fallthrough,
    /// The perfect-oracle configuration.
    Oracle,
}

/// Aggregated results of one simulation.
///
/// Only committed (correct-path) instructions are counted in the
/// architectural statistics; wrong-path activity shows up in
/// `fetched_uops` / `squashed_uops` and in the cache and RAS event
/// counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Total micro-ops fetched (correct and wrong path).
    pub fetched_uops: u64,
    /// Micro-ops squashed by mispredictions or losing paths.
    pub squashed_uops: u64,

    /// Committed conditional branches.
    pub cond_branches: u64,
    /// Committed conditional branches whose direction was mispredicted.
    pub cond_mispredictions: u64,
    /// Committed control transfers whose *target* was mispredicted
    /// (includes returns and indirect jumps).
    pub target_mispredictions: u64,

    /// Committed calls (direct + indirect).
    pub calls: u64,
    /// Committed returns.
    pub returns: u64,
    /// Committed returns whose predicted target was correct.
    pub return_hits: u64,
    /// Committed returns predicted by the RAS that were correct.
    pub return_hits_ras: u64,
    /// Committed returns predicted from the BTB that were correct.
    pub return_hits_btb: u64,
    /// Committed returns that had no prediction at all.
    pub return_no_prediction: u64,

    /// RAS pushes (speculative, both paths).
    pub ras_pushes: u64,
    /// RAS pops (speculative, both paths).
    pub ras_pops: u64,
    /// RAS overflows.
    pub ras_overflows: u64,
    /// RAS underflows.
    pub ras_underflows: u64,
    /// RAS repairs applied.
    pub ras_restores: u64,
    /// Speculation points that could not take a checkpoint because the
    /// shadow budget was exhausted.
    pub checkpoint_budget_misses: u64,

    /// Paths forked (multipath only).
    pub forks: u64,
    /// Peak simultaneously-live paths.
    pub max_live_paths: u64,

    /// L1 instruction-cache accesses and hits.
    pub l1i_accesses: u64,
    /// L1 instruction-cache hits.
    pub l1i_hits: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache hits.
    pub l1d_hits: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Simulator throughput in millions of committed instructions per
    /// second of host wall time — the "simulated MIPS" metric the perf
    /// harness pins.
    pub fn sim_mips(&self, wall_secs: f64) -> f64 {
        if wall_secs <= 0.0 {
            0.0
        } else {
            self.committed as f64 / wall_secs / 1e6
        }
    }

    /// Conditional-branch direction-prediction accuracy.
    pub fn branch_accuracy(&self) -> Ratio {
        Ratio::of(
            self.cond_branches - self.cond_mispredictions,
            self.cond_branches,
        )
    }

    /// Return-target prediction hit rate (the paper's headline metric).
    pub fn return_hit_rate(&self) -> Ratio {
        Ratio::of(self.return_hits, self.returns)
    }

    /// Fraction of committed instructions that are calls.
    pub fn call_fraction(&self) -> Ratio {
        Ratio::of(self.calls, self.committed)
    }

    /// Fraction of committed instructions that are returns.
    pub fn return_fraction(&self) -> Ratio {
        Ratio::of(self.returns, self.committed)
    }

    /// Fraction of committed instructions that are conditional branches.
    pub fn cond_branch_fraction(&self) -> Ratio {
        Ratio::of(self.cond_branches, self.committed)
    }

    /// Fraction of fetched micro-ops that were squashed.
    pub fn squash_fraction(&self) -> Ratio {
        Ratio::of(self.squashed_uops, self.fetched_uops)
    }

    /// Every raw counter with its **stable serialization name**.
    ///
    /// The names are a public contract: the structured-results layer and
    /// the golden-snapshot harness key on them, so renaming a struct
    /// field must not change the strings here (there is a snapshot test
    /// pinning them).
    pub fn named_counters(&self) -> [(&'static str, u64); 25] {
        [
            ("cycles", self.cycles),
            ("committed", self.committed),
            ("fetched_uops", self.fetched_uops),
            ("squashed_uops", self.squashed_uops),
            ("cond_branches", self.cond_branches),
            ("cond_mispredictions", self.cond_mispredictions),
            ("target_mispredictions", self.target_mispredictions),
            ("calls", self.calls),
            ("returns", self.returns),
            ("return_hits", self.return_hits),
            ("return_hits_ras", self.return_hits_ras),
            ("return_hits_btb", self.return_hits_btb),
            ("return_no_prediction", self.return_no_prediction),
            ("ras_pushes", self.ras_pushes),
            ("ras_pops", self.ras_pops),
            ("ras_overflows", self.ras_overflows),
            ("ras_underflows", self.ras_underflows),
            ("ras_restores", self.ras_restores),
            ("checkpoint_budget_misses", self.checkpoint_budget_misses),
            ("forks", self.forks),
            ("max_live_paths", self.max_live_paths),
            ("l1i_accesses", self.l1i_accesses),
            ("l1i_hits", self.l1i_hits),
            ("l1d_accesses", self.l1d_accesses),
            ("l1d_hits", self.l1d_hits),
        ]
    }

    /// The statistics as a JSON object: every raw counter under its
    /// stable name (see [`SimStats::named_counters`]) plus the derived
    /// headline metrics (`ipc`, `return_hit_rate_pct`,
    /// `branch_accuracy_pct`).
    pub fn to_json(&self) -> hydra_stats::Json {
        use hydra_stats::Json;
        let mut members: Vec<(String, Json)> = self
            .named_counters()
            .iter()
            .map(|&(name, v)| (name.to_string(), Json::int(v)))
            .collect();
        members.push(("ipc".to_string(), Json::num(self.ipc())));
        members.push((
            "return_hit_rate_pct".to_string(),
            Json::num(self.return_hit_rate().percent()),
        ));
        members.push((
            "branch_accuracy_pct".to_string(),
            Json::num(self.branch_accuracy().percent()),
        ));
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn serialization_names_are_stable() {
        // These strings are a serialization contract (goldens and any
        // downstream tooling key on them). Changing a name is a schema
        // change, not a refactor — bump the results schema version if
        // you really mean it.
        let names: Vec<&str> = SimStats::default()
            .named_counters()
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(
            names,
            [
                "cycles",
                "committed",
                "fetched_uops",
                "squashed_uops",
                "cond_branches",
                "cond_mispredictions",
                "target_mispredictions",
                "calls",
                "returns",
                "return_hits",
                "return_hits_ras",
                "return_hits_btb",
                "return_no_prediction",
                "ras_pushes",
                "ras_pops",
                "ras_overflows",
                "ras_underflows",
                "ras_restores",
                "checkpoint_budget_misses",
                "forks",
                "max_live_paths",
                "l1i_accesses",
                "l1i_hits",
                "l1d_accesses",
                "l1d_hits",
            ]
        );
    }

    #[test]
    fn to_json_counts_and_derives() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            returns: 10,
            return_hits: 9,
            ..SimStats::default()
        };
        let j = s.to_json();
        use hydra_stats::Json;
        assert_eq!(j.get("committed"), Some(&Json::Num(250.0)));
        assert_eq!(j.get("ipc"), Some(&Json::Num(2.5)));
        assert_eq!(j.get("return_hit_rate_pct"), Some(&Json::Num(90.0)));
        assert_eq!(j.get("l1d_hits"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn derived_ratios() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            cond_branches: 50,
            cond_mispredictions: 5,
            calls: 10,
            returns: 10,
            return_hits: 9,
            fetched_uops: 400,
            squashed_uops: 100,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.branch_accuracy().percent(), 90.0);
        assert_eq!(s.return_hit_rate().percent(), 90.0);
        assert_eq!(s.call_fraction().percent(), 4.0);
        assert_eq!(s.return_fraction().percent(), 4.0);
        assert_eq!(s.cond_branch_fraction().percent(), 20.0);
        assert_eq!(s.squash_fraction().percent(), 25.0);
    }
}
