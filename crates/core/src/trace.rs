//! Trace-level evaluation of repair policies.
//!
//! The full cycle-level pipeline (crate `hydra-pipeline`) measures repair
//! mechanisms with real wrong-path execution. This module provides the
//! lightweight complement: replaying a *speculation event trace* against a
//! stack under a chosen policy. It is used by the property-test suite and
//! is a convenient public API for anyone who already has traces of fetch
//! activity (calls, returns, branch checkpoints, squashes).

use crate::{RasCheckpoint, RepairPolicy, ReturnAddressStack};
use std::collections::HashMap;
use std::fmt;

/// One fetch-order speculation event.
///
/// Checkpoint identifiers are chosen by the trace producer; a
/// `ResolveWrong { id }` restores the stack to the matching
/// `Predict { id }` point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A call was fetched; pushes `return_addr`.
    Call {
        /// The address the matching return should target.
        return_addr: u64,
    },
    /// A return was fetched; pops a prediction and scores it against
    /// `actual_target`.
    Return {
        /// The architecturally correct target.
        actual_target: u64,
    },
    /// A conditional branch was predicted; takes checkpoint `id`.
    Predict {
        /// Trace-chosen checkpoint identifier.
        id: u64,
    },
    /// Branch `id` resolved correctly; its checkpoint is discarded.
    ResolveCorrect {
        /// Which branch resolved.
        id: u64,
    },
    /// Branch `id` resolved as mispredicted; the stack is repaired from
    /// its checkpoint.
    ResolveWrong {
        /// Which branch resolved.
        id: u64,
    },
}

/// Aggregated results of a trace replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceOutcome {
    /// Returns replayed.
    pub returns: u64,
    /// Returns whose popped prediction matched the actual target.
    pub hits: u64,
    /// Returns for which the stack had no prediction (invalidated entry).
    pub no_prediction: u64,
}

impl TraceOutcome {
    /// Hit rate over all returns (no-prediction counts as a miss).
    pub fn hit_rate(&self) -> f64 {
        if self.returns == 0 {
            0.0
        } else {
            self.hits as f64 / self.returns as f64
        }
    }
}

impl fmt::Display for TraceOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} returns predicted ({:.2}%)",
            self.hits,
            self.returns,
            self.hit_rate() * 100.0
        )
    }
}

/// Replays speculation event traces against a [`ReturnAddressStack`]
/// under one [`RepairPolicy`].
///
/// # Examples
///
/// A wrong path that pops a good entry, repaired by the paper's mechanism:
///
/// ```
/// use ras_core::{RepairPolicy, TraceEvent, TraceReplayer};
///
/// let mut r = TraceReplayer::new(16, RepairPolicy::TosPointerAndContents);
/// r.replay(&[
///     TraceEvent::Call { return_addr: 0x40 },
///     TraceEvent::Predict { id: 0 },
///     // wrong path: a return and a call that will be squashed
///     TraceEvent::Return { actual_target: 0x40 },
///     TraceEvent::Call { return_addr: 0xbad },
///     TraceEvent::ResolveWrong { id: 0 },
///     // correct path: the real return
///     TraceEvent::Return { actual_target: 0x40 },
/// ]);
/// // Both pops scored; the post-repair one hits.
/// assert_eq!(r.outcome().returns, 2);
/// assert_eq!(r.outcome().hits, 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    ras: ReturnAddressStack,
    policy: RepairPolicy,
    checkpoints: HashMap<u64, RasCheckpoint>,
    outcome: TraceOutcome,
}

impl TraceReplayer {
    /// Creates a replayer over a fresh stack of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: RepairPolicy) -> Self {
        TraceReplayer {
            ras: ReturnAddressStack::new(capacity),
            policy,
            checkpoints: HashMap::new(),
            outcome: TraceOutcome::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RepairPolicy {
        self.policy
    }

    /// The underlying stack (for inspection).
    pub fn stack(&self) -> &ReturnAddressStack {
        &self.ras
    }

    /// Results so far.
    pub fn outcome(&self) -> TraceOutcome {
        self.outcome
    }

    /// Applies a single event.
    pub fn apply(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Call { return_addr } => {
                self.ras.push(return_addr);
            }
            TraceEvent::Return { actual_target } => {
                self.outcome.returns += 1;
                match self.ras.pop() {
                    Some(predicted) if predicted == actual_target => self.outcome.hits += 1,
                    Some(_) => {}
                    None => self.outcome.no_prediction += 1,
                }
            }
            TraceEvent::Predict { id } => {
                let ckpt = self.ras.checkpoint(self.policy);
                self.checkpoints.insert(id, ckpt);
            }
            TraceEvent::ResolveCorrect { id } => {
                self.checkpoints.remove(&id);
            }
            TraceEvent::ResolveWrong { id } => {
                if let Some(ckpt) = self.checkpoints.remove(&id) {
                    self.ras.restore(&ckpt);
                }
            }
        }
    }

    /// Applies a sequence of events.
    pub fn replay(&mut self, events: &[TraceEvent]) {
        for &e in events {
            self.apply(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrong_path_burst(n_pops: usize, n_pushes: usize, id: u64) -> Vec<TraceEvent> {
        let mut v = vec![TraceEvent::Predict { id }];
        for _ in 0..n_pops {
            v.push(TraceEvent::Return {
                actual_target: u64::MAX, // never matches: wrong-path pop
            });
        }
        for i in 0..n_pushes {
            v.push(TraceEvent::Call {
                return_addr: 0xbad0 + i as u64,
            });
        }
        v.push(TraceEvent::ResolveWrong { id });
        v
    }

    /// Nested calls, a wrong path, then unwind the real calls.
    fn scenario(policy: RepairPolicy, pops: usize, pushes: usize) -> TraceOutcome {
        let mut r = TraceReplayer::new(32, policy);
        for d in 0..4u64 {
            r.apply(TraceEvent::Call {
                return_addr: 0x100 + d,
            });
        }
        r.replay(&wrong_path_burst(pops, pushes, 7));
        // Unwind only the 4 real returns; ignore the wrong-path pops in
        // the outcome by measuring fresh.
        let before = r.outcome();
        for d in (0..4u64).rev() {
            r.apply(TraceEvent::Return {
                actual_target: 0x100 + d,
            });
        }
        let after = r.outcome();
        TraceOutcome {
            returns: after.returns - before.returns,
            hits: after.hits - before.hits,
            no_prediction: after.no_prediction - before.no_prediction,
        }
    }

    #[test]
    fn clean_trace_is_perfect_under_any_policy() {
        for policy in RepairPolicy::EVALUATED {
            let mut r = TraceReplayer::new(8, policy);
            for d in 0..5u64 {
                r.apply(TraceEvent::Call { return_addr: d });
            }
            for d in (0..5u64).rev() {
                r.apply(TraceEvent::Return { actual_target: d });
            }
            assert_eq!(r.outcome().hits, 5, "policy {policy}");
            assert_eq!(r.outcome().hit_rate(), 1.0);
        }
    }

    #[test]
    fn no_repair_suffers_from_wrong_path_pop() {
        let o = scenario(RepairPolicy::None, 1, 0);
        assert!(o.hits < 4, "a good entry was lost: {o}");
    }

    #[test]
    fn tos_pointer_repairs_pop_only_corruption() {
        let o = scenario(RepairPolicy::TosPointer, 2, 0);
        assert_eq!(o.hits, 4);
    }

    #[test]
    fn tos_pointer_fails_on_pop_then_push() {
        let o = scenario(RepairPolicy::TosPointer, 1, 1);
        assert_eq!(o.hits, 3, "overwritten top not repaired");
    }

    #[test]
    fn ptr_and_contents_repairs_pop_then_push() {
        let o = scenario(RepairPolicy::TosPointerAndContents, 1, 1);
        assert_eq!(o.hits, 4);
    }

    #[test]
    fn ptr_and_contents_fails_two_deep() {
        let o = scenario(RepairPolicy::TosPointerAndContents, 2, 2);
        assert_eq!(o.hits, 3);
    }

    #[test]
    fn top2_repairs_two_deep() {
        let o = scenario(RepairPolicy::TopContents { k: 2 }, 2, 2);
        assert_eq!(o.hits, 4);
    }

    #[test]
    fn full_stack_repairs_any_burst() {
        for (pops, pushes) in [(4, 4), (4, 8), (0, 32)] {
            let o = scenario(RepairPolicy::FullStack, pops, pushes);
            assert_eq!(o.hits, 4, "pops={pops} pushes={pushes}");
        }
    }

    #[test]
    fn valid_bits_repair_pure_push_corruption() {
        // Wrong path pushes into fresh slots: pointer restore realigns
        // the stack and nothing the correct path needs was overwritten.
        let o = scenario(RepairPolicy::ValidBits, 0, 2);
        assert_eq!(o.hits, 4);
    }

    #[test]
    fn valid_bits_detect_but_cannot_recover_overwrites() {
        // Wrong path pops one entry then pushes over it: the pointer is
        // repaired, and the clobbered slot is *detected* (no prediction)
        // rather than serving the bogus wrong-path address.
        let o = scenario(RepairPolicy::ValidBits, 1, 1);
        assert_eq!(o.hits, 3);
        assert_eq!(o.no_prediction, 1, "the overwritten slot was detected");
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(TraceOutcome::default().hit_rate(), 0.0);
    }

    #[test]
    fn resolve_unknown_id_is_ignored() {
        let mut r = TraceReplayer::new(4, RepairPolicy::FullStack);
        r.apply(TraceEvent::ResolveWrong { id: 99 });
        r.apply(TraceEvent::ResolveCorrect { id: 98 });
        assert_eq!(r.outcome().returns, 0);
    }

    #[test]
    fn accessors() {
        let r = TraceReplayer::new(4, RepairPolicy::TosPointer);
        assert_eq!(r.policy(), RepairPolicy::TosPointer);
        assert_eq!(r.stack().capacity(), 4);
        assert!(!r.outcome().to_string().is_empty());
    }

    #[test]
    fn nested_mispredictions_restore_in_lifo_order() {
        let mut r = TraceReplayer::new(16, RepairPolicy::FullStack);
        r.apply(TraceEvent::Call { return_addr: 0x1 });
        r.apply(TraceEvent::Predict { id: 0 });
        r.apply(TraceEvent::Call {
            return_addr: 0xbad1,
        });
        r.apply(TraceEvent::Predict { id: 1 });
        r.apply(TraceEvent::Call {
            return_addr: 0xbad2,
        });
        // Inner branch wrong, then outer branch wrong.
        r.apply(TraceEvent::ResolveWrong { id: 1 });
        r.apply(TraceEvent::ResolveWrong { id: 0 });
        r.apply(TraceEvent::Return { actual_target: 0x1 });
        assert_eq!(r.outcome().hits, 1);
    }
}
