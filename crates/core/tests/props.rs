//! Property-based tests for the return-address stack and its repair
//! mechanisms.

use proptest::prelude::*;
use ras_core::{CheckpointBudget, RepairPolicy, ReturnAddressStack, SyntheticTrace, TraceReplayer};

/// A random stack operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(1u64..1000).prop_map(Op::Push), Just(Op::Pop),],
        0..64,
    )
}

fn apply(stack: &mut ReturnAddressStack, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Push(v) => {
                stack.push(*v);
            }
            Op::Pop => {
                stack.pop();
            }
        }
    }
}

proptest! {
    /// Depth is always within [0, capacity], and push/pop counts add up.
    #[test]
    fn depth_stays_bounded(capacity in 1usize..64, ops in ops()) {
        let mut s = ReturnAddressStack::new(capacity);
        let mut pushes = 0u64;
        let mut pops = 0u64;
        for op in &ops {
            match op {
                Op::Push(v) => { s.push(*v); pushes += 1; }
                Op::Pop => { s.pop(); pops += 1; }
            }
            prop_assert!(s.depth() <= capacity);
        }
        prop_assert_eq!(s.stats().pushes, pushes);
        prop_assert_eq!(s.stats().pops, pops);
    }

    /// Within capacity and without speculation, the hardware stack is a
    /// perfect LIFO: it matches a Vec model exactly.
    #[test]
    fn matches_vec_model_within_capacity(capacity in 1usize..64, ops in ops()) {
        let mut s = ReturnAddressStack::new(capacity);
        let mut model: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                Op::Push(v) => {
                    if model.len() < capacity {
                        s.push(*v);
                        model.push(*v);
                    }
                }
                Op::Pop => {
                    if !model.is_empty() {
                        prop_assert_eq!(s.pop(), model.pop());
                    }
                }
            }
        }
    }

    /// Full-stack restore returns the stack to *exactly* the checkpointed
    /// state, no matter what happened in between.
    #[test]
    fn full_restore_is_exact(capacity in 1usize..32, before in ops(), wrong in ops()) {
        let mut s = ReturnAddressStack::new(capacity);
        apply(&mut s, &before);
        let snapshot = s.clone();
        let ckpt = s.checkpoint(RepairPolicy::FullStack);
        apply(&mut s, &wrong);
        s.restore(&ckpt);
        // Contents, pointer and depth equal; stats may differ.
        let mut a = s.clone();
        let mut b = snapshot.clone();
        for _ in 0..capacity {
            prop_assert_eq!(a.pop(), b.pop());
        }
        prop_assert_eq!(s.depth(), snapshot.depth());
    }

    /// A restore with *no* intervening activity is observationally a
    /// no-op for every pointer-restoring policy.
    #[test]
    fn restore_without_corruption_is_identity(
        capacity in 1usize..32,
        before in ops(),
        policy_idx in 0usize..5,
    ) {
        let policy = RepairPolicy::EVALUATED[policy_idx];
        let mut s = ReturnAddressStack::new(capacity);
        apply(&mut s, &before);
        let peek_before = s.peek();
        let ckpt = s.checkpoint(policy);
        s.restore(&ckpt);
        prop_assert_eq!(s.peek(), peek_before);
    }

    /// `TopContents{k}` equals `FullStack` whenever the wrong path
    /// disturbs at most the top k entries (net pops+pushes both ≤ k and
    /// never below the checkpoint by more than k).
    #[test]
    fn top_k_equals_full_for_shallow_corruption(
        k in 1usize..5,
        depth in 5usize..16,
        wrong_pops in 0usize..5,
        wrong_pushes in 0usize..5,
    ) {
        prop_assume!(wrong_pops <= k && wrong_pushes <= wrong_pops);
        let capacity = 32;
        let mut a = ReturnAddressStack::new(capacity);
        for i in 0..depth as u64 {
            a.push(0x100 + i);
        }
        let mut b = a.clone();
        let ck_a = a.checkpoint(RepairPolicy::TopContents { k });
        let ck_b = b.checkpoint(RepairPolicy::FullStack);
        for _ in 0..wrong_pops { a.pop(); b.pop(); }
        for i in 0..wrong_pushes as u64 {
            a.push(0xbad + i);
            b.push(0xbad + i);
        }
        a.restore(&ck_a);
        b.restore(&ck_b);
        for _ in 0..depth {
            prop_assert_eq!(a.pop(), b.pop());
        }
    }

    /// Checkpoint storage cost matches the policy's advertised cost.
    #[test]
    fn checkpoint_cost_is_as_advertised(capacity in 1usize..64, policy_idx in 0usize..5) {
        let policy = RepairPolicy::EVALUATED[policy_idx];
        let mut s = ReturnAddressStack::new(capacity);
        s.push(1);
        let ckpt = s.checkpoint(policy);
        prop_assert_eq!(ckpt.storage_words(), policy.checkpoint_words(capacity));
        prop_assert_eq!(ckpt.policy(), policy);
    }

    /// The budget is a faithful counting semaphore.
    #[test]
    fn budget_counting(capacity in 1usize..32, acquires in 1usize..100) {
        let mut b = CheckpointBudget::limited(capacity);
        let mut held = 0usize;
        for _ in 0..acquires {
            if b.try_acquire() {
                held += 1;
            }
            prop_assert!(held <= capacity);
            prop_assert_eq!(b.in_flight(), held);
        }
        prop_assert_eq!(held, acquires.min(capacity));
        b.release_many(held);
        prop_assert_eq!(b.in_flight(), 0);
    }

    /// On synthetic traces, full-stack checkpointing scores every
    /// correct-path return, and the ladder never inverts between the
    /// extremes.
    #[test]
    fn full_repair_is_perfect_on_synthetic_traces(
        seed in 0u64..500,
        mispredict in 0.0f64..0.3,
        wp_hi in 2usize..60,
    ) {
        let trace = SyntheticTrace::builder()
            .events(5_000)
            .mispredict_rate(mispredict)
            .wrong_path_len(1, wp_hi)
            .seed(seed)
            .generate();
        let correct = SyntheticTrace::correct_returns(&trace);

        let mut full = TraceReplayer::new(64, RepairPolicy::FullStack);
        full.replay(&trace);
        prop_assert_eq!(full.outcome().hits, correct);

        let mut none = TraceReplayer::new(64, RepairPolicy::None);
        none.replay(&trace);
        prop_assert!(none.outcome().hits <= full.outcome().hits);
    }
}
