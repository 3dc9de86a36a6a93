//! Snapshot/resume transparency: pausing a simulation at an arbitrary
//! commit count and resuming from the serialized bytes must be
//! *indistinguishable* from running straight through — same tapped
//! commit and RAS events, same final statistics, and a re-snapshot at the end
//! produces the same bytes the uninterrupted run would. The per-commit
//! golden check stays enabled across the split, so the resumed half is
//! architecturally verified instruction by instruction.

use hydra_pipeline::{
    Core, CoreConfig, EventClass, EventMask, RasSharing, ReturnPredictor, SimStats, System,
};
use hydra_workloads::{Workload, WorkloadSpec};
use ras_core::{MultipathStackPolicy, RepairPolicy};

/// The tapped classes compared across the split.
const TAPPED: EventMask = EventMask::NONE
    .with(EventClass::Commit)
    .with(EventClass::Ras);

/// The six RAS repair mechanisms the paper's evaluation sweeps.
fn repair_ladder() -> [RepairPolicy; 6] {
    [
        RepairPolicy::None,
        RepairPolicy::ValidBits,
        RepairPolicy::TosPointer,
        RepairPolicy::TosPointerAndContents,
        RepairPolicy::TopContents { k: 2 },
        RepairPolicy::FullStack,
    ]
}

fn ras_config(repair: RepairPolicy) -> CoreConfig {
    let mut c = CoreConfig::baseline();
    c.return_predictor = ReturnPredictor::Ras {
        entries: 16,
        repair,
    };
    c
}

/// Runs `w` straight through to `total` commits and again split at
/// `split` commits via snapshot/resume, asserting the two runs are
/// byte-identical: equal commit streams, equal final statistics, and
/// equal final snapshot bytes. The golden
/// check is live on both halves, so any architectural divergence on the
/// resumed half panics inside `run`. Returns the donor's statistics at
/// the split point.
fn assert_snapshot_transparent(
    config: CoreConfig,
    w: &Workload,
    split: u64,
    total: u64,
) -> SimStats {
    let mut straight = Core::new(config, w.program());
    straight.enable_golden_check();
    straight.set_tap(TAPPED);
    let straight_stats = straight.run(total);
    let mut straight_events = Vec::new();
    straight.drain_tap(&mut straight_events);

    let mut donor = Core::new(config, w.program());
    donor.enable_golden_check();
    donor.set_tap(TAPPED);
    let split_stats = donor.run(split);
    let mut split_events = Vec::new();
    donor.drain_tap(&mut split_events);
    let bytes = donor.save_snapshot();

    let mut resumed = Core::resume(&bytes, w.program()).expect("snapshot resumes");
    resumed.set_tap(TAPPED);
    let resumed_stats = resumed.run(total);
    resumed.drain_tap(&mut split_events);

    assert_eq!(straight_stats, resumed_stats, "final statistics diverge");
    assert_eq!(
        straight_events, split_events,
        "commit streams diverge across the snapshot point"
    );
    assert_eq!(
        straight.save_snapshot(),
        resumed.save_snapshot(),
        "final machine states diverge"
    );
    split_stats
}

#[test]
fn resume_is_transparent_across_the_suite_and_repair_ladder() {
    for (i, spec) in WorkloadSpec::spec95_suite().into_iter().enumerate() {
        let w = Workload::generate(&spec, 0xC0FFEE + i as u64).expect("suite generates");
        for repair in repair_ladder() {
            assert_snapshot_transparent(ras_config(repair), &w, 1_500, 3_000);
        }
    }
}

#[test]
fn resume_is_transparent_under_self_checkpointing_and_btb_only() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 7).expect("generates");
    for rp in [
        ReturnPredictor::SelfCheckpointing { entries: 16 },
        ReturnPredictor::BtbOnly,
        ReturnPredictor::Perfect,
    ] {
        let mut c = CoreConfig::baseline();
        c.return_predictor = rp;
        assert_snapshot_transparent(c, &w, 2_000, 5_000);
    }
}

#[test]
fn resume_is_transparent_under_multipath() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 11).expect("generates");
    for policy in [
        MultipathStackPolicy::Unified {
            repair: RepairPolicy::TosPointerAndContents,
        },
        MultipathStackPolicy::PerPath,
    ] {
        let at_split =
            assert_snapshot_transparent(CoreConfig::multipath(4, policy), &w, 2_000, 5_000);
        // The path tree's child links are rebuilt on resume, not
        // serialized: a split with forks behind it exercises the rebuild.
        assert!(
            at_split.forks > 0,
            "{policy:?}: no path forked before the split"
        );
    }
}

#[test]
fn resume_is_transparent_mid_flight_not_only_at_round_numbers() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 23).expect("generates");
    let config = ras_config(RepairPolicy::TosPointerAndContents);
    for split in [1, 37, 999, 2_917] {
        assert_snapshot_transparent(config, &w, split, 4_000);
    }
}

#[test]
fn smt_system_snapshot_resumes_byte_identically() {
    let w0 = Workload::generate(&WorkloadSpec::test_small(), 42).expect("generates");
    let w1 = Workload::generate(&WorkloadSpec::test_small(), 43).expect("generates");
    let programs = [w0.program(), w1.program()];
    let mut config = CoreConfig::smt(2, RasSharing::Shared);
    config.return_predictor = ReturnPredictor::Ras {
        entries: 16,
        repair: RepairPolicy::TosPointerAndContents,
    };

    let mut straight = System::new(1, config, &programs);
    let straight_stats = straight.run(4_000);

    // Pause at a *cycle* boundary: a commit-count barrier (`run(n)`)
    // idles harts that reach it early, which is a schedule no straight
    // run ever passes through.
    let mut donor = System::new(1, config, &programs);
    for _ in 0..2_000 {
        donor.step_cycle();
    }
    let bytes = donor.save_snapshot();
    let mut resumed = System::resume(&bytes, &programs).expect("system snapshot resumes");
    let resumed_stats = resumed.run(4_000);

    assert_eq!(straight_stats, resumed_stats, "per-hart statistics diverge");
    assert_eq!(
        straight.save_snapshot(),
        resumed.save_snapshot(),
        "final system states diverge"
    );
}

#[test]
fn two_core_system_snapshot_resumes_byte_identically() {
    let w0 = Workload::generate(&WorkloadSpec::test_small(), 5).expect("generates");
    let w1 = Workload::generate(&WorkloadSpec::test_small(), 6).expect("generates");
    let programs = [w0.program(), w1.program()];
    let config = ras_config(RepairPolicy::TosPointer);

    let mut straight = System::new(2, config, &programs);
    let straight_stats = straight.run(3_000);

    let mut donor = System::new(2, config, &programs);
    for _ in 0..1_500 {
        donor.step_cycle();
    }
    let bytes = donor.save_snapshot();
    let mut resumed = System::resume(&bytes, &programs).expect("resumes");
    assert_eq!(straight_stats, resumed.run(3_000));
    assert_eq!(straight.save_snapshot(), resumed.save_snapshot());
}

/// Two independent resumes of the same bytes must march in lockstep —
/// this is the latent-nondeterminism probe: any iteration-order or
/// allocation-order dependence the decoder smuggled in (hash maps,
/// free-list order, capacity drift) shows up as diverging re-snapshots.
#[test]
fn independent_resumes_are_bit_for_bit_identical() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 99).expect("generates");
    let config = ras_config(RepairPolicy::FullStack);
    let mut donor = Core::new(config, w.program());
    donor.enable_golden_check();
    donor.run(2_500);
    let bytes = donor.save_snapshot();

    let mut a = Core::resume(&bytes, w.program()).expect("resumes");
    let mut b = Core::resume(&bytes, w.program()).expect("resumes");
    assert_eq!(
        a.save_snapshot(),
        b.save_snapshot(),
        "resume is not a pure function"
    );
    let sa = a.run(6_000);
    let sb = b.run(6_000);
    assert_eq!(sa, sb);
    assert_eq!(a.save_snapshot(), b.save_snapshot());
}

#[test]
fn resume_rejects_a_different_program_image() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 1).expect("generates");
    let other = Workload::generate(&WorkloadSpec::test_small(), 2).expect("generates");
    let mut core = Core::new(CoreConfig::baseline(), w.program());
    core.run(500);
    let bytes = core.save_snapshot();
    let err = Core::resume(&bytes, other.program()).expect_err("fingerprint must not match");
    assert!(
        matches!(err, hydra_pipeline::SnapError::Corrupt(_)),
        "got {err:?}"
    );
}

#[test]
fn core_and_system_snapshots_are_not_interchangeable() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 3).expect("generates");
    let core_bytes = Core::new(CoreConfig::baseline(), w.program()).save_snapshot();
    let sys_bytes = System::new(1, CoreConfig::baseline(), &[w.program()]).save_snapshot();
    assert!(System::resume(&core_bytes, &[w.program()]).is_err());
    assert!(Core::resume(&sys_bytes, w.program()).is_err());
}

/// The warm-start primitive: a quiescent fast-forward snapshot forked
/// onto a different machine configuration must behave exactly like
/// fast-forwarding under that configuration from scratch.
#[test]
fn resume_reconfigured_equals_a_fresh_fast_forward() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 77).expect("generates");
    let mut donor = Core::new(CoreConfig::baseline(), w.program());
    donor.enable_golden_check();
    let skipped = donor.fast_forward(10_000);
    assert_eq!(skipped, 10_000);
    let bytes = donor.save_snapshot();

    for entries in [4usize, 32] {
        let config = ras_config(RepairPolicy::TosPointerAndContents);
        let config = {
            let mut c = config;
            c.return_predictor = ReturnPredictor::Ras {
                entries,
                repair: RepairPolicy::TosPointerAndContents,
            };
            c
        };
        let mut direct = Core::new(config, w.program());
        direct.enable_golden_check();
        direct.fast_forward(10_000);
        let direct_stats = direct.run(4_000);

        let mut warm =
            Core::resume_reconfigured(&bytes, w.program(), config).expect("quiescent fork");
        let warm_stats = warm.run(4_000);
        assert_eq!(direct_stats, warm_stats, "RAS depth {entries}");
        assert_eq!(direct.save_snapshot(), warm.save_snapshot());
    }
}

#[test]
fn resume_reconfigured_rejects_a_mid_flight_snapshot() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 8).expect("generates");
    let mut core = Core::new(CoreConfig::baseline(), w.program());
    core.run(800);
    let bytes = core.save_snapshot();
    let err = Core::resume_reconfigured(&bytes, w.program(), CoreConfig::baseline())
        .expect_err("mid-flight snapshots cannot be reconfigured");
    assert!(matches!(err, hydra_pipeline::SnapError::Corrupt(_)));
}
