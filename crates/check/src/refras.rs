//! Naive, textbook reference models of the return-address stack and its
//! repair policies.
//!
//! [`RefRas`] is an *independent* reimplementation of the semantics
//! `ras-core` promises — written for obviousness, not speed, and sharing
//! no code with the optimized structure. [`RasOracle`] replays a
//! [`Event`] stream recorded by the pipeline against a `RefRas`,
//! flagging any return prediction that disagrees with the model.

use crate::Divergence;
use hydra_pipeline::{Event, RasSharing};
use ras_core::RepairPolicy;
use std::collections::HashMap;

/// One slot of the reference stack: an address plus the push counter
/// value and validity tag the valid-bit policy consults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    addr: u64,
    stamp: u64,
    valid: bool,
}

/// Everything a repair needs, saved eagerly: the pointer state plus a
/// copy of whatever entries the policy protects. Produced by
/// [`RefRas::checkpoint`], consumed by [`RefRas::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefCkpt {
    top: usize,
    live: usize,
    stamp: u64,
    saved: Vec<(usize, Slot)>,
}

/// A deliberately naive return-address stack with eager per-policy
/// checkpointing.
///
/// Semantics mirror the hardware structure the paper describes (and
/// `ras-core` implements): a circular buffer whose pushes silently
/// overwrite on overflow and whose pops return stale wrapped data on
/// underflow; `None` comes back only for a slot that was invalidated by
/// valid-bit repair or never written at all.
#[derive(Debug, Clone)]
pub struct RefRas {
    policy: RepairPolicy,
    slots: Vec<Slot>,
    top: usize,
    live: usize,
    stamp: u64,
}

impl RefRas {
    /// Creates an empty reference stack.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(policy: RepairPolicy, capacity: usize) -> Self {
        assert!(capacity > 0, "reference stack capacity must be > 0");
        RefRas {
            policy,
            slots: vec![Slot::default(); capacity],
            top: capacity - 1,
            live: 0,
            stamp: 1,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pushes a predicted return address.
    pub fn push(&mut self, addr: u64) {
        self.top = (self.top + 1) % self.capacity();
        self.slots[self.top] = Slot {
            addr,
            stamp: self.stamp,
            valid: true,
        };
        self.stamp += 1;
        self.live = (self.live + 1).min(self.capacity());
    }

    /// Pops the predicted return target; `None` only for an invalidated
    /// or never-written slot.
    pub fn pop(&mut self) -> Option<u64> {
        let slot = self.slots[self.top];
        self.top = (self.top + self.capacity() - 1) % self.capacity();
        self.live = self.live.saturating_sub(1);
        slot.valid.then_some(slot.addr)
    }

    /// What a pop would return, without popping.
    pub fn peek(&self) -> Option<u64> {
        let slot = self.slots[self.top];
        slot.valid.then_some(slot.addr)
    }

    /// Saves whatever this stack's policy will need for a later repair.
    pub fn checkpoint(&self) -> RefCkpt {
        let saved = match self.policy {
            RepairPolicy::None | RepairPolicy::ValidBits | RepairPolicy::TosPointer => Vec::new(),
            RepairPolicy::TosPointerAndContents => vec![(self.top, self.slots[self.top])],
            RepairPolicy::TopContents { k } => (0..k.min(self.capacity()))
                .map(|i| {
                    let idx = (self.top + self.capacity() - i) % self.capacity();
                    (idx, self.slots[idx])
                })
                .collect(),
            RepairPolicy::FullStack => self.slots.iter().copied().enumerate().collect(),
        };
        RefCkpt {
            top: self.top,
            live: self.live,
            stamp: self.stamp,
            saved,
        }
    }

    /// Repairs the stack from a checkpoint, applying exactly what the
    /// policy promises and nothing more.
    pub fn restore(&mut self, ckpt: &RefCkpt) {
        match self.policy {
            RepairPolicy::None => {}
            RepairPolicy::ValidBits => {
                self.top = ckpt.top;
                self.live = ckpt.live;
                for slot in &mut self.slots {
                    if slot.stamp >= ckpt.stamp {
                        slot.valid = false;
                    }
                }
            }
            RepairPolicy::TosPointer
            | RepairPolicy::TosPointerAndContents
            | RepairPolicy::TopContents { .. }
            | RepairPolicy::FullStack => {
                self.top = ckpt.top;
                self.live = ckpt.live;
                for &(idx, slot) in &ckpt.saved {
                    self.slots[idx] = slot;
                }
            }
        }
    }
}

/// Replays a pipeline-recorded [`Event`] stream against reference
/// stacks, diffing every return prediction.
///
/// The oracle models a *single-path* front end: the optimized pipeline's
/// speculative pushes, pops, checkpoints, restores and releases arrive in
/// the exact order the hardware structures mutated, so a straight replay
/// reproduces the ground-truth prediction at every return. Checkpoints
/// are tracked by the owning micro-op's sequence number; the stream
/// guarantees each is restored or released exactly once.
///
/// Multi-hart streams are modeled too: [`RasOracle::with_sharing`]
/// mirrors the pipeline's [`RasSharing`] policy, keeping one reference
/// stack (`Shared`) or one per hart (`Partitioned` with sliced capacity,
/// `Tagged` with full capacity) and routing each event by its recorded
/// hart. The stream must preserve the true global mutation order across
/// harts — per-engine streams drained separately lose that interleaving
/// and only apply to `Partitioned`/`Tagged`, where harts never touch
/// each other's stack.
#[derive(Debug)]
pub struct RasOracle {
    stacks: Vec<RefRas>,
    /// Checkpoint id → (owning stack, saved state).
    ckpts: HashMap<u64, (usize, RefCkpt)>,
    commits: u64,
}

impl RasOracle {
    /// Creates an oracle for a single stack of `capacity` entries under
    /// `policy` — the single-hart (or `Shared`) shape.
    pub fn new(policy: RepairPolicy, capacity: usize) -> Self {
        RasOracle {
            stacks: vec![RefRas::new(policy, capacity)],
            ckpts: HashMap::new(),
            commits: 0,
        }
    }

    /// Creates an oracle mirroring how `harts` hardware threads share a
    /// `capacity`-entry stack under `sharing` — the same shapes
    /// `hydra_pipeline`'s RAS unit builds.
    ///
    /// # Panics
    ///
    /// Panics if `harts` is zero.
    pub fn with_sharing(
        policy: RepairPolicy,
        capacity: usize,
        harts: u8,
        sharing: RasSharing,
    ) -> Self {
        assert!(harts > 0, "need at least one hart");
        let (count, slice) = match sharing {
            _ if harts == 1 => (1, capacity),
            RasSharing::Shared => (1, capacity),
            RasSharing::Partitioned => (harts as usize, (capacity / harts as usize).max(1)),
            RasSharing::Tagged { .. } => (harts as usize, capacity),
        };
        RasOracle {
            stacks: (0..count).map(|_| RefRas::new(policy, slice)).collect(),
            ckpts: HashMap::new(),
            commits: 0,
        }
    }

    fn diverge(&self, what: String) -> Divergence {
        Divergence {
            commits: self.commits,
            what,
        }
    }

    /// Routes a recorded hart to its reference stack.
    fn route(&self, hart: u8) -> Result<usize, Divergence> {
        if self.stacks.len() == 1 {
            Ok(0)
        } else if (hart as usize) < self.stacks.len() {
            Ok(hart as usize)
        } else {
            Err(self.diverge(format!(
                "event from hart {hart} but the oracle models {} harts",
                self.stacks.len()
            )))
        }
    }

    /// Applies one recorded event; `Err` is a genuine divergence between
    /// the pipeline's stack and the reference model (or an inconsistent
    /// event stream, which is equally a bug).
    pub fn apply(&mut self, ev: &Event) -> Result<(), Divergence> {
        match *ev {
            Event::Commit { .. } => self.commits += 1,
            Event::RasPush {
                hart, path, addr, ..
            } => {
                if path != 0 {
                    return Err(self.diverge(format!("push on unexpected path {path}")));
                }
                let s = self.route(hart)?;
                self.stacks[s].push(addr);
            }
            Event::RasPop {
                hart,
                path,
                predicted,
                ..
            } => {
                if path != 0 {
                    return Err(self.diverge(format!("pop on unexpected path {path}")));
                }
                let s = self.route(hart)?;
                let want = self.stacks[s].pop();
                if want != predicted {
                    return Err(self.diverge(format!(
                        "return prediction diverged on hart {hart}: pipeline stack said \
                         {predicted:?}, reference model says {want:?}"
                    )));
                }
            }
            Event::RasCheckpoint { hart, path, id, .. } => {
                if path != 0 {
                    return Err(self.diverge(format!("checkpoint on unexpected path {path}")));
                }
                let s = self.route(hart)?;
                let saved = (s, self.stacks[s].checkpoint());
                if self.ckpts.insert(id, saved).is_some() {
                    return Err(self.diverge(format!("checkpoint id {id} taken twice")));
                }
            }
            Event::RasRestore { hart, path, id, .. } => {
                if path != 0 {
                    return Err(self.diverge(format!("restore on unexpected path {path}")));
                }
                let here = self.route(hart)?;
                match self.ckpts.remove(&id) {
                    Some((owner, ckpt)) => {
                        if owner != here {
                            return Err(self.diverge(format!(
                                "hart {hart} restored checkpoint {id} owned by stack {owner}"
                            )));
                        }
                        self.stacks[owner].restore(&ckpt);
                    }
                    None => return Err(self.diverge(format!("restore of unknown checkpoint {id}"))),
                }
            }
            Event::RasRelease { id } if self.ckpts.remove(&id).is_none() => {
                return Err(self.diverge(format!("release of unknown checkpoint {id}")));
            }
            _ => {}
        }
        Ok(())
    }

    /// Checkpoints currently outstanding (taken, neither restored nor
    /// released).
    pub fn outstanding(&self) -> usize {
        self.ckpts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_within_capacity() {
        let mut r = RefRas::new(RepairPolicy::TosPointer, 8);
        r.push(1);
        r.push(2);
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None, "never-written slot yields nothing");
    }

    #[test]
    fn overflow_overwrites_oldest_and_underflow_returns_stale() {
        let mut r = RefRas::new(RepairPolicy::TosPointer, 2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3), "wrapped stale read, as hardware does");
    }

    #[test]
    fn valid_bits_invalidate_only_wrong_path_pushes() {
        let mut r = RefRas::new(RepairPolicy::ValidBits, 4);
        r.push(0x10);
        let ckpt = r.checkpoint();
        r.pop();
        r.push(0xbad); // overwrites 0x10's slot
        r.restore(&ckpt);
        assert_eq!(r.peek(), None, "overwritten slot detected, not trusted");
    }

    #[test]
    fn full_stack_restore_is_exact() {
        let mut r = RefRas::new(RepairPolicy::FullStack, 4);
        for a in [1, 2, 3, 4] {
            r.push(a);
        }
        let ckpt = r.checkpoint();
        for _ in 0..4 {
            r.pop();
        }
        for a in [9, 8, 7, 6] {
            r.push(a);
        }
        r.restore(&ckpt);
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
    }

    #[test]
    fn oracle_flags_event_stream_inconsistencies() {
        let mut o = RasOracle::new(RepairPolicy::TosPointer, 4);
        assert!(o
            .apply(&Event::RasRestore {
                hart: 0,
                path: 0,
                id: 7,
                policy: "tos",
            })
            .is_err());
        let mut o = RasOracle::new(RepairPolicy::TosPointer, 4);
        assert!(o.apply(&Event::RasRelease { id: 7 }).is_err());
    }

    #[test]
    fn oracle_accepts_a_consistent_stream() {
        let mut o = RasOracle::new(RepairPolicy::TosPointer, 4);
        let events = [
            Event::RasPush {
                hart: 0,
                path: 0,
                addr: 0x40,
                overflow: false,
            },
            Event::RasCheckpoint {
                hart: 0,
                path: 0,
                id: 1,
                policy: "tos",
                words: 0,
            },
            Event::RasPop {
                hart: 0,
                path: 0,
                predicted: Some(0x40),
                flags: 0,
            },
            Event::RasRestore {
                hart: 0,
                path: 0,
                id: 1,
                policy: "tos",
            },
            Event::RasPop {
                hart: 0,
                path: 0,
                predicted: Some(0x40),
                flags: 0,
            },
        ];
        for ev in &events {
            o.apply(ev).expect("stream is consistent");
        }
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn shared_oracle_interleaves_harts_on_one_stack() {
        let mut o = RasOracle::with_sharing(RepairPolicy::TosPointer, 8, 2, RasSharing::Shared);
        o.apply(&Event::RasPush {
            hart: 0,
            path: 0,
            addr: 0x10,
            overflow: false,
        })
        .unwrap();
        o.apply(&Event::RasPush {
            hart: 1,
            path: 0,
            addr: 0x20,
            overflow: false,
        })
        .unwrap();
        // Hart 0 pops hart 1's entry: the whole contention story.
        o.apply(&Event::RasPop {
            hart: 0,
            path: 0,
            predicted: Some(0x20),
            flags: 0,
        })
        .expect("shared stack is LIFO across harts");
    }

    #[test]
    fn partitioned_oracle_isolates_harts() {
        for sharing in [RasSharing::Partitioned, RasSharing::Tagged { tag_bits: 1 }] {
            let mut o = RasOracle::with_sharing(RepairPolicy::TosPointer, 8, 2, sharing);
            o.apply(&Event::RasPush {
                hart: 0,
                path: 0,
                addr: 0x10,
                overflow: false,
            })
            .unwrap();
            o.apply(&Event::RasPush {
                hart: 1,
                path: 0,
                addr: 0x20,
                overflow: false,
            })
            .unwrap();
            o.apply(&Event::RasPop {
                hart: 0,
                path: 0,
                predicted: Some(0x10),
                flags: 0,
            })
            .unwrap_or_else(|d| panic!("{sharing:?} must isolate harts: {d}"));
        }
    }

    #[test]
    fn cross_hart_restore_is_a_divergence() {
        let mut o =
            RasOracle::with_sharing(RepairPolicy::TosPointer, 8, 2, RasSharing::Partitioned);
        o.apply(&Event::RasCheckpoint {
            hart: 0,
            path: 0,
            id: 3,
            policy: "tos",
            words: 0,
        })
        .unwrap();
        assert!(o
            .apply(&Event::RasRestore {
                hart: 1,
                path: 0,
                id: 3,
                policy: "tos",
            })
            .is_err());
    }

    #[test]
    fn partitioned_capacity_is_sliced() {
        // 4 entries over 2 harts = 2 each: a third push wraps.
        let mut o =
            RasOracle::with_sharing(RepairPolicy::TosPointer, 4, 2, RasSharing::Partitioned);
        for addr in [1u64, 2, 3] {
            o.apply(&Event::RasPush {
                hart: 0,
                path: 0,
                addr,
                overflow: false,
            })
            .unwrap();
        }
        o.apply(&Event::RasPop {
            hart: 0,
            path: 0,
            predicted: Some(3),
            flags: 0,
        })
        .unwrap();
        o.apply(&Event::RasPop {
            hart: 0,
            path: 0,
            predicted: Some(2),
            flags: 0,
        })
        .unwrap();
        o.apply(&Event::RasPop {
            hart: 0,
            path: 0,
            predicted: Some(3),
            flags: 0,
        })
        .expect("two-entry partition wraps to stale data");
    }
}
