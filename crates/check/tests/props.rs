//! Property tests pinning the optimized `ras-core` stack to the naive
//! reference models, with the paper's awkward corners — capacity 1, 2
//! and 4 wraparound under over/underflow — exercised both by explicit
//! cases and by random operation streams under every repair policy.

use hydra_check::{RasOracle, RefRas};
use hydra_pipeline::{
    CkptHandle, CoreConfig, Event, HartId, PathId, RasSharing, RasUnit, ReturnPredictor,
};
use proptest::prelude::*;
use ras_core::{RasCheckpoint, RepairPolicy, ReturnAddressStack};

/// The policies under test: everything the paper evaluates plus a
/// mid-size top-k.
const POLICIES: [RepairPolicy; 6] = [
    RepairPolicy::None,
    RepairPolicy::ValidBits,
    RepairPolicy::TosPointer,
    RepairPolicy::TosPointerAndContents,
    RepairPolicy::TopContents { k: 2 },
    RepairPolicy::FullStack,
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Checkpoint,
    Restore,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..1_000_000).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Checkpoint),
            Just(Op::Restore),
        ],
        0..64,
    )
}

/// Drives both stacks through the same op stream, comparing the answer
/// at every pop and the would-be answer after every op.
fn drive(policy: RepairPolicy, depth: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut real = ReturnAddressStack::new(depth);
    let mut reference = RefRas::new(policy, depth);
    let mut ckpts: Vec<(RasCheckpoint, hydra_check::RefCkpt)> = Vec::new();
    for &op in ops {
        match op {
            Op::Push(addr) => {
                real.push(addr);
                reference.push(addr);
            }
            Op::Pop => {
                prop_assert_eq!(real.pop(), reference.pop(), "pop diverged ({policy:?})");
            }
            Op::Checkpoint => {
                ckpts.push((real.checkpoint(policy), reference.checkpoint()));
            }
            Op::Restore => {
                if let Some((rc, fc)) = ckpts.pop() {
                    real.restore(&rc);
                    reference.restore(&fc);
                }
            }
        }
        prop_assert_eq!(real.peek(), reference.peek(), "peek diverged ({policy:?})");
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_streams_agree_at_depth_1(policy_idx in 0usize..POLICIES.len(), ops in ops()) {
        drive(POLICIES[policy_idx], 1, &ops)?;
    }

    #[test]
    fn random_streams_agree_at_depth_2(policy_idx in 0usize..POLICIES.len(), ops in ops()) {
        drive(POLICIES[policy_idx], 2, &ops)?;
    }

    #[test]
    fn random_streams_agree_at_depth_4(policy_idx in 0usize..POLICIES.len(), ops in ops()) {
        drive(POLICIES[policy_idx], 4, &ops)?;
    }
}

/// Overflow at each pinned depth: capacity + 2 pushes must leave the
/// last `capacity` addresses retrievable in LIFO order, then wrap to
/// stale data exactly as the circular hardware buffer does.
#[test]
fn overflow_wraparound_matches_reference_at_small_depths() {
    for depth in [1usize, 2, 4] {
        let mut real = ReturnAddressStack::new(depth);
        let mut reference = RefRas::new(RepairPolicy::TosPointer, depth);
        for addr in 1..=(depth as u64 + 2) {
            real.push(addr * 0x10);
            reference.push(addr * 0x10);
        }
        // Twice around the buffer: the first `depth` pops are real
        // entries, the rest are wrapped stale reads.
        for _ in 0..2 * depth {
            assert_eq!(real.pop(), reference.pop(), "depth {depth}");
        }
    }
}

/// Underflow on a never-written stack: every pop must say "no
/// prediction" (invalid slot) at any depth, and keep saying so.
#[test]
fn underflow_on_empty_stack_matches_reference_at_small_depths() {
    for depth in [1usize, 2, 4] {
        let mut real = ReturnAddressStack::new(depth);
        let mut reference = RefRas::new(RepairPolicy::TosPointer, depth);
        for _ in 0..2 * depth + 1 {
            assert_eq!(real.pop(), reference.pop(), "depth {depth}");
            assert_eq!(real.pop(), None, "depth {depth}: nothing was ever pushed");
        }
    }
}

// --- Two-hart SMT: the pipeline's RAS unit vs the sharing-aware oracle –

/// One hart's action in an interleaved two-hart stream.
#[derive(Debug, Clone, Copy)]
enum SmtOp {
    Push(u64),
    Pop,
    Checkpoint,
    /// Repair from this hart's most recent outstanding checkpoint.
    Restore,
    /// Discard this hart's most recent outstanding checkpoint.
    Release,
}

fn smt_ops() -> impl Strategy<Value = Vec<(u8, SmtOp)>> {
    prop::collection::vec(
        (
            0u8..2,
            prop_oneof![
                (1u64..1_000_000).prop_map(SmtOp::Push),
                Just(SmtOp::Pop),
                Just(SmtOp::Checkpoint),
                Just(SmtOp::Restore),
                Just(SmtOp::Release),
            ],
        ),
        0..96,
    )
}

/// Drives the pipeline's hart-aware [`RasUnit`] and the sharing-aware
/// [`RasOracle`] through the same interleaved two-hart stream. The
/// unit's every pop prediction is fed to the oracle, which diverges on
/// any disagreement with the independent reference model — pinning
/// `Shared` contention, `Partitioned` slicing, and `Tagged` isolation
/// to their textbook semantics.
fn drive_smt(
    policy: RepairPolicy,
    entries: usize,
    sharing: RasSharing,
    ops: &[(u8, SmtOp)],
) -> Result<(), TestCaseError> {
    let config = CoreConfig::builder()
        .harts(2)
        .ras_sharing(sharing)
        .return_predictor(ReturnPredictor::Ras {
            entries,
            repair: policy,
        })
        .checkpoint_budget(None)
        .try_build()
        .expect("2-hart config is valid");
    let mut unit = RasUnit::new(&config);
    let mut oracle = RasOracle::with_sharing(policy, entries, 2, sharing);
    let mut ckpts: [Vec<(u64, CkptHandle)>; 2] = [Vec::new(), Vec::new()];
    let mut next_id = 0u64;
    let feed = |oracle: &mut RasOracle, ev: Event| -> Result<(), TestCaseError> {
        let r = oracle.apply(&ev);
        prop_assert!(
            r.is_ok(),
            "{policy:?}/{sharing:?}/{entries} entries: {}",
            r.unwrap_err()
        );
        Ok(())
    };
    for &(h, op) in ops {
        let hart = HartId::new(h);
        match op {
            SmtOp::Push(addr) => {
                unit.push(hart, PathId::ROOT, addr);
                feed(
                    &mut oracle,
                    Event::RasPush {
                        hart: h,
                        path: 0,
                        addr,
                        overflow: false,
                    },
                )?;
            }
            SmtOp::Pop => {
                let predicted = unit.pop(hart, PathId::ROOT);
                feed(
                    &mut oracle,
                    Event::RasPop {
                        hart: h,
                        path: 0,
                        predicted,
                        flags: 0,
                    },
                )?;
            }
            SmtOp::Checkpoint => {
                if let Some(handle) = unit.checkpoint(hart, PathId::ROOT) {
                    let id = next_id;
                    next_id += 1;
                    feed(
                        &mut oracle,
                        Event::RasCheckpoint {
                            hart: h,
                            path: 0,
                            id,
                            policy: "tos",
                            words: 0,
                        },
                    )?;
                    ckpts[h as usize].push((id, handle));
                }
            }
            SmtOp::Restore => {
                if let Some((id, handle)) = ckpts[h as usize].pop() {
                    unit.restore(handle);
                    feed(
                        &mut oracle,
                        Event::RasRestore {
                            hart: h,
                            path: 0,
                            id,
                            policy: "tos",
                        },
                    )?;
                }
            }
            SmtOp::Release => {
                if let Some((id, handle)) = ckpts[h as usize].pop() {
                    unit.release(handle);
                    feed(&mut oracle, Event::RasRelease { id })?;
                }
            }
        }
    }
    Ok(())
}

/// Stack sizes worth pinning: degenerate partitions (2 entries over two
/// harts = 1 each), the awkward odd slice, and a comfortable size.
const SMT_DEPTHS: [usize; 3] = [2, 5, 16];

proptest! {
    #[test]
    fn two_hart_shared_streams_agree(
        policy_idx in 0usize..POLICIES.len(),
        depth_idx in 0usize..SMT_DEPTHS.len(),
        ops in smt_ops(),
    ) {
        drive_smt(POLICIES[policy_idx], SMT_DEPTHS[depth_idx], RasSharing::Shared, &ops)?;
    }

    #[test]
    fn two_hart_partitioned_streams_agree(
        policy_idx in 0usize..POLICIES.len(),
        depth_idx in 0usize..SMT_DEPTHS.len(),
        ops in smt_ops(),
    ) {
        drive_smt(POLICIES[policy_idx], SMT_DEPTHS[depth_idx], RasSharing::Partitioned, &ops)?;
    }

    #[test]
    fn two_hart_tagged_streams_agree(
        policy_idx in 0usize..POLICIES.len(),
        depth_idx in 0usize..SMT_DEPTHS.len(),
        ops in smt_ops(),
    ) {
        drive_smt(
            POLICIES[policy_idx],
            SMT_DEPTHS[depth_idx],
            RasSharing::Tagged { tag_bits: 1 },
            &ops,
        )?;
    }
}

/// The paper's core scenario at depth 1: one push, a checkpoint, wrong-
/// path pollution, then repair — contents policies recover the entry,
/// pointer-only does not.
#[test]
fn depth_1_repair_recovers_contents_exactly_when_policy_promises() {
    for (policy, expect) in [
        (RepairPolicy::TosPointer, Some(0xBAD)),
        (RepairPolicy::TosPointerAndContents, Some(0x40)),
        (RepairPolicy::FullStack, Some(0x40)),
    ] {
        let mut real = ReturnAddressStack::new(1);
        let mut reference = RefRas::new(policy, 1);
        real.push(0x40);
        reference.push(0x40);
        let rc = real.checkpoint(policy);
        let fc = reference.checkpoint();
        real.pop();
        reference.pop();
        real.push(0xBAD);
        reference.push(0xBAD);
        real.restore(&rc);
        reference.restore(&fc);
        assert_eq!(real.peek(), expect, "{policy:?}");
        assert_eq!(reference.peek(), expect, "{policy:?}");
    }
}
