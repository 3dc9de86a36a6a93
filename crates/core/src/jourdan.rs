//! The Jourdan et al. self-checkpointing return-address stack.
//!
//! The paper's closest related work (Jourdan, Stark, Hsing, Patt —
//! *"Recovery requirements of branch prediction storage structures..."*,
//! 1997) repairs the stack differently: instead of saving contents at
//! each branch, the stack **never overwrites live entries on pop**. Each
//! entry carries a pointer to the entry below it; a pop merely moves the
//! top-of-stack pointer down the chain, and a push allocates a *fresh*
//! slot linked to the current top. Repairing after a misprediction then
//! needs only the saved TOS pointer — the popped entries are still there.
//!
//! The cost, as the paper notes, is capacity: "[their scheme] requires a
//! larger number of stack entries than the methods proposed here because
//! it preserves popped entries." Wrong-path pushes and long-lived chains
//! consume slots; when allocation wraps around and reuses a slot that a
//! live chain still references, predictions through that chain are lost.
//! [`SelfCheckpointingStack`] detects a clobbered chain head at restore
//! time via per-entry sequence tags (deeper clobbers surface as ordinary
//! mispredictions, as they would in hardware).
//!
//! # Examples
//!
//! ```
//! use ras_core::SelfCheckpointingStack;
//!
//! let mut s = SelfCheckpointingStack::new(16);
//! s.push(0x40);
//! let ckpt = s.checkpoint();
//! // Wrong path pops the entry and pushes garbage...
//! s.pop();
//! s.push(0xdead);
//! // ...but the popped entry was preserved: pointer restore suffices.
//! s.restore(&ckpt);
//! assert_eq!(s.pop(), Some(0x40));
//! ```

use crate::stack::RasStats;

/// Sentinel meaning "no entry" (empty stack / end of chain).
const NONE: usize = usize::MAX;

/// One linked slot of the self-checkpointing stack. Public (with public
/// fields) so external snapshot serializers can walk and rebuild state
/// exactly; `below == usize::MAX` is the end-of-chain sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEntry {
    /// Predicted return address.
    pub addr: u64,
    /// Index of the entry below this one in its chain.
    pub below: usize,
    /// Allocation sequence tag, used to detect slot reuse.
    pub seq: u64,
}

/// A checkpoint of a [`SelfCheckpointingStack`]: just the TOS pointer and
/// its tag — one word of shadow state per branch, like the plain
/// TOS-pointer mechanism, but with full-checkpoint-quality repair as long
/// as the referenced chain has not been recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCheckpoint {
    tos: usize,
    tos_seq: u64,
}

impl LinkCheckpoint {
    /// Raw state for external snapshot serializers: `(tos, tos_seq)`.
    /// `tos == usize::MAX` is the empty sentinel.
    pub fn snapshot_parts(&self) -> (usize, u64) {
        (self.tos, self.tos_seq)
    }

    /// Rebuilds a checkpoint from [`LinkCheckpoint::snapshot_parts`]
    /// output. `capacity` is the owning stack's entry count; an
    /// out-of-range `tos` is rejected so a later restore cannot index
    /// out of bounds.
    pub fn from_snapshot_parts(tos: usize, tos_seq: u64, capacity: usize) -> Option<Self> {
        if tos != NONE && tos >= capacity {
            return None;
        }
        Some(LinkCheckpoint { tos, tos_seq })
    }
}

/// The self-checkpointing (popped-entry-preserving) return-address stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfCheckpointingStack {
    entries: Vec<LinkEntry>,
    tos: usize,
    /// Next slot to allocate (circular).
    alloc: usize,
    next_seq: u64,
    stats: RasStats,
}

impl SelfCheckpointingStack {
    /// Creates a stack with `capacity` physical entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "self-checkpointing stack capacity must be > 0"
        );
        SelfCheckpointingStack {
            entries: vec![
                LinkEntry {
                    addr: 0,
                    below: NONE,
                    seq: 0,
                };
                capacity
            ],
            tos: NONE,
            alloc: 0,
            next_seq: 1,
            stats: RasStats::default(),
        }
    }

    /// Number of physical entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Event statistics. `overflows` counts allocations that recycled a
    /// slot still reachable from the current chain.
    pub fn stats(&self) -> &RasStats {
        &self.stats
    }

    /// Resets the event statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RasStats::default();
    }

    /// Whether `slot` is reachable from the current TOS chain (bounded
    /// walk; used for overflow accounting).
    fn chain_contains(&self, slot: usize) -> bool {
        let mut cur = self.tos;
        for _ in 0..self.capacity() {
            if cur == NONE {
                return false;
            }
            if cur == slot {
                return true;
            }
            cur = self.entries[cur].below;
        }
        false
    }

    /// Pushes a return address into a freshly allocated slot (speculative,
    /// at fetch). Never overwrites the current top — that is the whole
    /// mechanism. Returns whether the push recycled a live entry.
    pub fn push(&mut self, return_addr: u64) -> bool {
        self.stats.pushes += 1;
        let slot = self.alloc;
        self.alloc = (self.alloc + 1) % self.capacity();
        let overflow = self.chain_contains(slot);
        if overflow {
            // Recycling a live entry: the chain below it is damaged.
            self.stats.overflows += 1;
        }
        self.entries[slot] = LinkEntry {
            addr: return_addr,
            below: if self.tos == slot { NONE } else { self.tos },
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.tos = slot;
        overflow
    }

    /// Pops the predicted return target (speculative, at fetch). The
    /// entry is *not* erased — only the pointer moves.
    pub fn pop(&mut self) -> Option<u64> {
        self.stats.pops += 1;
        if self.tos == NONE {
            self.stats.underflows += 1;
            return None;
        }
        let e = self.entries[self.tos];
        self.tos = e.below;
        Some(e.addr)
    }

    /// The prediction a pop would return, without popping.
    pub fn peek(&self) -> Option<u64> {
        (self.tos != NONE).then(|| self.entries[self.tos].addr)
    }

    /// Saves the TOS pointer (one word of shadow state per branch).
    pub fn checkpoint(&mut self) -> LinkCheckpoint {
        self.stats.checkpoints += 1;
        LinkCheckpoint {
            tos: self.tos,
            tos_seq: if self.tos == NONE {
                0
            } else {
                self.entries[self.tos].seq
            },
        }
    }

    /// Repairs the stack after a misprediction by restoring the saved
    /// pointer. If the referenced slot has been recycled since the
    /// checkpoint (detected by its tag), the stack is left empty-at-top —
    /// the chain is gone.
    pub fn restore(&mut self, ckpt: &LinkCheckpoint) {
        self.stats.restores += 1;
        if ckpt.tos == NONE {
            self.tos = NONE;
        } else if self.entries[ckpt.tos].seq == ckpt.tos_seq {
            self.tos = ckpt.tos;
        } else {
            // The checkpointed chain head was recycled by interleaving
            // pushes: nothing to predict from.
            self.tos = NONE;
        }
    }

    /// Creates an independent copy for a forked execution path, with
    /// statistics reset.
    pub fn fork(&self) -> Self {
        let mut copy = self.clone();
        copy.reset_stats();
        copy
    }

    /// Raw state for external snapshot serializers:
    /// `(entries, tos, alloc, next_seq, stats)`.
    pub fn snapshot_parts(&self) -> (&[LinkEntry], usize, usize, u64, RasStats) {
        (
            &self.entries,
            self.tos,
            self.alloc,
            self.next_seq,
            self.stats,
        )
    }

    /// Rebuilds a stack from [`SelfCheckpointingStack::snapshot_parts`]
    /// output. Returns `None` when the parts are inconsistent (empty
    /// entry set, out-of-range pointers or chain links) rather than
    /// building a stack whose later operations would index out of bounds.
    pub fn from_snapshot_parts(
        entries: Vec<LinkEntry>,
        tos: usize,
        alloc: usize,
        next_seq: u64,
        stats: RasStats,
    ) -> Option<Self> {
        let cap = entries.len();
        if cap == 0 || alloc >= cap || (tos != NONE && tos >= cap) {
            return None;
        }
        if entries.iter().any(|e| e.below != NONE && e.below >= cap) {
            return None;
        }
        Some(SelfCheckpointingStack {
            entries,
            tos,
            alloc,
            next_seq,
            stats,
        })
    }

    /// [`SelfCheckpointingStack::fork`] into an existing (pooled) stack:
    /// copies this stack's state over `dst` reusing `dst`'s entry buffer,
    /// so forking a path costs no heap allocation. Statistics on `dst`
    /// are reset, exactly as `fork` does.
    pub fn fork_into(&self, dst: &mut Self) {
        dst.entries.clear();
        dst.entries.extend_from_slice(&self.entries);
        dst.tos = self.tos;
        dst.alloc = self.alloc;
        dst.next_seq = self.next_seq;
        dst.stats = RasStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_without_speculation() {
        let mut s = SelfCheckpointingStack::new(8);
        for a in [1u64, 2, 3] {
            s.push(a);
        }
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
        assert_eq!(s.stats().underflows, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_panics() {
        let _ = SelfCheckpointingStack::new(0);
    }

    #[test]
    fn pointer_restore_repairs_pop_and_push() {
        // The corruption pattern TosPointer alone cannot repair: the
        // wrong path pops a good entry AND pushes over (what would be)
        // its slot. Preserved entries make the pointer sufficient.
        let mut s = SelfCheckpointingStack::new(8);
        s.push(0x10);
        s.push(0x20);
        let ckpt = s.checkpoint();
        s.pop();
        s.pop();
        s.push(0xbad1);
        s.push(0xbad2);
        s.restore(&ckpt);
        assert_eq!(s.pop(), Some(0x20));
        assert_eq!(s.pop(), Some(0x10));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn nested_checkpoints_restore_lifo() {
        let mut s = SelfCheckpointingStack::new(16);
        s.push(1);
        let outer = s.checkpoint();
        s.push(2);
        let inner = s.checkpoint();
        s.pop();
        s.pop();
        s.push(99);
        s.restore(&inner);
        assert_eq!(s.peek(), Some(2));
        s.restore(&outer);
        assert_eq!(s.peek(), Some(1));
    }

    #[test]
    fn recycled_chain_head_is_detected() {
        // Capacity 2: enough wrong-path pushes recycle the checkpointed
        // slot; restore must detect the stale tag and miss safely.
        let mut s = SelfCheckpointingStack::new(2);
        s.push(0x10);
        let ckpt = s.checkpoint();
        s.push(0xbad1); // slot 1
        s.push(0xbad2); // slot 0 — recycles 0x10's slot
        assert!(s.stats().overflows > 0);
        s.restore(&ckpt);
        assert_eq!(s.peek(), None, "clobbered chain yields no prediction");
    }

    #[test]
    fn preserved_entries_cost_capacity() {
        // The same workload on the circular stack needs fewer entries:
        // here, pushes after pops keep consuming fresh slots.
        let mut s = SelfCheckpointingStack::new(4);
        for round in 0..4u64 {
            s.push(round);
            s.pop();
        }
        // 4 pushes with interleaved pops: allocation has wrapped.
        s.push(100);
        s.push(101); // would recycle slot of a *dead* chain: no overflow
        assert_eq!(s.pop(), Some(101));
        assert_eq!(s.pop(), Some(100));
    }

    #[test]
    fn empty_checkpoint_round_trip() {
        let mut s = SelfCheckpointingStack::new(4);
        let ckpt = s.checkpoint();
        s.push(5);
        s.restore(&ckpt);
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn fork_is_independent() {
        let mut s = SelfCheckpointingStack::new(8);
        s.push(7);
        let mut f = s.fork();
        assert_eq!(f.stats().pushes, 0);
        f.push(8);
        assert_eq!(s.peek(), Some(7));
        assert_eq!(f.pop(), Some(8));
        assert_eq!(f.pop(), Some(7));
    }

    #[test]
    fn capacity_accessor() {
        assert_eq!(SelfCheckpointingStack::new(12).capacity(), 12);
    }
}
