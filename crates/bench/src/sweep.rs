//! Warm-start configuration-lattice sweeps.
//!
//! A conventional sweep pays the functional fast-forward once per
//! lattice point even though the fast-forward is *identical* for every
//! configuration of the same workload (it runs the pre-decoded
//! functional core; no machine state is involved). The warm-start sweep
//! exploits the snapshot codec to pay it once per **workload** instead:
//!
//! 1. `plan()` fast-forwards each suite workload once on a scratch core
//!    and serializes the quiescent state ([`Core::save_snapshot`]).
//! 2. Every lattice point of that workload becomes a
//!    [`JobKind::Resume`] job sharing the snapshot bytes and the
//!    generated workload via `Arc` —
//!    the job forks the snapshot onto its own configuration with
//!    [`Core::resume_reconfigured`] and runs only the measurement
//!    window.
//!
//! Determinism is inherited from the engine's ordered merge and from
//! snapshot purity (independent resumes of the same bytes are
//! bit-for-bit identical — see `crates/pipeline/tests/snapshot_resume.rs`),
//! so the harvested table is byte-identical for any `--jobs` value.
//!
//! [`JobKind::Resume`]: crate::engine::JobKind::Resume
//! [`Core::save_snapshot`]: hydra_pipeline::Core::save_snapshot
//! [`Core::resume_reconfigured`]: hydra_pipeline::Core::resume_reconfigured

use hydra_pipeline::{Core, CoreConfig, ReturnPredictor};
use hydra_stats::{Align, Cell, Table};
use hydra_workloads::Workload;
use ras_core::RepairPolicy;
use std::sync::Arc;

use crate::engine::{JobOutput, SimJob};
use crate::experiments::{suite_specs, Experiment};
use crate::RunSpec;

/// RAS depths the sweep forks each snapshot onto when none are given on
/// the command line. With the six repair policies this is the default
/// 24-point configuration lattice.
pub const DEFAULT_DEPTHS: [usize; 4] = [4, 8, 16, 32];

/// The six repair mechanisms spanning the paper's design space, from no
/// repair at all to a full-stack checkpoint per speculation point.
pub fn sweep_repairs() -> [(&'static str, RepairPolicy); 6] {
    [
        ("no repair", RepairPolicy::None),
        ("valid bits", RepairPolicy::ValidBits),
        ("TOS pointer", RepairPolicy::TosPointer),
        ("TOS ptr+contents", RepairPolicy::TosPointerAndContents),
        ("top-2 contents", RepairPolicy::TopContents { k: 2 }),
        ("full stack", RepairPolicy::FullStack),
    ]
}

/// The warm-start sweep over the RAS depth × repair-policy lattice.
///
/// Not part of [`crate::experiments::registry`] — its plan is orders of
/// magnitude wider than the paper figures, so the `expt sweep`
/// subcommand invokes it explicitly (optionally narrowing the depth
/// axis with `--depths`).
pub struct SweepExperiment {
    depths: Vec<usize>,
}

impl Default for SweepExperiment {
    fn default() -> Self {
        SweepExperiment {
            depths: DEFAULT_DEPTHS.to_vec(),
        }
    }
}

impl SweepExperiment {
    /// A sweep over the given RAS depths (× the six repair policies).
    ///
    /// # Panics
    ///
    /// When `depths` is empty or contains a zero depth — both would
    /// plan a meaningless lattice; the CLI validates before calling.
    pub fn new(depths: Vec<usize>) -> Self {
        assert!(
            !depths.is_empty() && depths.iter().all(|&d| d > 0),
            "sweep needs at least one non-zero RAS depth"
        );
        SweepExperiment { depths }
    }

    /// Lattice points per workload (depths × repair policies).
    pub fn lattice_points(&self) -> usize {
        self.depths.len() * sweep_repairs().len()
    }
}

impl Experiment for SweepExperiment {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn title(&self) -> &'static str {
        "warm-start sweep: RAS depth × repair policy, snapshot-forked"
    }

    /// Fast-forwards each suite workload **once**, snapshots the
    /// quiescent state, and fans the configuration lattice out as
    /// [`crate::engine::JobKind::Resume`] jobs sharing those bytes.
    fn plan(&self, rs: &RunSpec) -> Vec<SimJob> {
        let repairs = sweep_repairs();
        let mut jobs = Vec::with_capacity(suite_specs(rs).len() * self.lattice_points());
        for (spec, seed) in suite_specs(rs) {
            let w = Arc::new(Workload::generate(&spec, seed).expect("suite spec generates"));
            // Cache the fingerprint in the shared image before the donor
            // copies it, so the donor's snapshot and every resume job
            // reuse one computation.
            w.program().fingerprint();
            let mut donor = Core::new(CoreConfig::baseline(), w.program());
            donor.fast_forward(rs.fast_forward);
            let snapshot = Arc::new(donor.save_snapshot());
            for &entries in &self.depths {
                for (tag, repair) in repairs {
                    let config =
                        CoreConfig::with_return_predictor(ReturnPredictor::Ras { entries, repair });
                    jobs.push(
                        SimJob::resume(Arc::clone(&w), Arc::clone(&snapshot), config, rs.horizon)
                            .tagged(format!("{entries} × {tag}")),
                    );
                }
            }
        }
        jobs
    }

    /// One row per lattice point: suite-mean return hit rate and IPC
    /// over the eight benchmarks.
    fn harvest(&self, rs: &RunSpec, outputs: &[JobOutput]) -> Table {
        let repairs = sweep_repairs();
        let points = self.lattice_points();
        let workloads = suite_specs(rs).len();

        // plan() is workload-major; accumulate per lattice point.
        let mut hit_sum = vec![0.0f64; points];
        let mut ipc_sum = vec![0.0f64; points];
        let mut h = crate::engine::Harvest::new(outputs);
        for _ in 0..workloads {
            for p in 0..points {
                let s = h.stats();
                hit_sum[p] += s.return_hit_rate().percent();
                ipc_sum[p] += s.ipc();
            }
        }
        h.finish();

        let mut t = Table::new(vec!["RAS depth", "repair", "return hit %", "IPC"]);
        t.set_title(format!(
            "Warm-start sweep: {points}-point lattice, suite means over {workloads} benchmarks"
        ));
        for col in [0, 2, 3] {
            t.set_align(col, Align::Right);
        }
        for (di, &entries) in self.depths.iter().enumerate() {
            for (ri, (tag, _)) in repairs.iter().enumerate() {
                let p = di * repairs.len() + ri;
                t.add_row(vec![
                    Cell::int(entries as u64),
                    Cell::text(*tag),
                    Cell::percent(hit_sum[p] / workloads as f64),
                    Cell::fixed(ipc_sum[p] / workloads as f64, 3),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use crate::experiments::run_experiment;

    fn small_rs() -> RunSpec {
        RunSpec {
            seed: 7,
            fast_forward: 500,
            horizon: 2_000,
        }
    }

    #[test]
    fn plan_fans_the_lattice_out_per_workload() {
        let sweep = SweepExperiment::new(vec![4, 16]);
        let rs = small_rs();
        let jobs = sweep.plan(&rs);
        assert_eq!(jobs.len(), 8 * 2 * 6);
        // Every job of one workload shares the same snapshot and program
        // allocations; the next workload has its own.
        let shared = |job: &SimJob| match &job.kind {
            crate::engine::JobKind::Resume {
                workload, snapshot, ..
            } => (Arc::clone(workload), Arc::clone(snapshot)),
            _ => panic!("sweep plans Resume jobs"),
        };
        let (first_w, first_s) = shared(&jobs[0]);
        for job in &jobs[1..12] {
            let (w, s) = shared(job);
            assert!(Arc::ptr_eq(&first_s, &s), "fast-forward paid twice");
            assert!(Arc::ptr_eq(&first_w, &w), "program generated twice");
        }
        let (next_w, _) = shared(&jobs[12]);
        assert!(!Arc::ptr_eq(&first_w, &next_w));
        assert_ne!(next_w.name(), first_w.name());
    }

    #[test]
    fn default_lattice_has_at_least_24_points() {
        assert!(SweepExperiment::default().lattice_points() >= 24);
    }

    /// The acceptance gate: the harvested table must be byte-identical
    /// whether the lattice runs serially or on a thread pool.
    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let sweep = SweepExperiment::new(vec![4, 16]);
        let rs = small_rs();
        let serial = run_experiment(&sweep, &rs, 1);
        let parallel = run_experiment(&sweep, &rs, 4);
        assert_eq!(
            serial.table.render(),
            parallel.table.render(),
            "sweep output depends on --jobs"
        );
        assert_eq!(serial.table.to_csv(), parallel.table.to_csv());
        assert_eq!(
            serial.table.to_json().to_string(),
            parallel.table.to_json().to_string()
        );
    }

    /// Warm-start must be an optimization, not an approximation: a
    /// resumed lattice point reports exactly the statistics of a fresh
    /// core fast-forwarded under the same configuration.
    #[test]
    fn warm_start_matches_cold_start_statistics() {
        let rs = small_rs();
        let sweep = SweepExperiment::new(vec![8]);
        let jobs = sweep.plan(&rs);
        // First workload's six repair points.
        let (warm, _) = execute(&jobs[..6], 2);
        for (job, out) in jobs[..6].iter().zip(&warm) {
            let crate::engine::JobKind::Resume {
                workload, config, ..
            } = &job.kind
            else {
                panic!("sweep plans Resume jobs");
            };
            let mut cold = Core::new(*config, workload.program());
            cold.fast_forward(rs.fast_forward);
            let cold_stats = cold.run(rs.horizon);
            let JobOutput::Cycle {
                stats: warm_stats, ..
            } = out
            else {
                panic!("resume jobs yield Cycle outputs");
            };
            assert_eq!(
                warm_stats, &cold_stats,
                "warm-start diverged from cold start"
            );
        }
    }
}
