//! The hardware return-address stack structure.

use crate::repair::{RasCheckpoint, RepairPolicy, SavedContents};

/// One physical stack entry.
///
/// Besides the predicted return address, each entry carries the push
/// sequence number used by the [`RepairPolicy::ValidBits`] detection
/// mechanism (the "identifiers for each in-flight branch" the paper
/// describes for the Pentium MMX/II scheme) and its validity.
///
/// Public (with public fields) so external snapshot serializers can
/// walk and rebuild stack state exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Predicted return address.
    pub addr: u64,
    /// Push sequence tag (valid-bits detection).
    pub seq: u64,
    /// Whether this entry may produce a prediction.
    pub valid: bool,
}

/// Usage and event statistics for one stack.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RasStats {
    /// Number of pushes.
    pub pushes: u64,
    /// Number of pops.
    pub pops: u64,
    /// Pushes that overwrote a live entry (stack was full).
    pub overflows: u64,
    /// Pops from an (architecturally) empty stack.
    pub underflows: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Restores applied.
    pub restores: u64,
}

/// A hardware-style return-address stack: a circular buffer of predicted
/// return addresses with a top-of-stack (TOS) pointer.
///
/// Matches the structures in real processors (Alpha 21164/21264, Pentium
/// II) as the paper describes them:
///
/// * **push** advances the TOS pointer and writes the entry, silently
///   overwriting the oldest entry when the stack is full (*overflow*);
/// * **pop** reads the entry at TOS and retreats the pointer; popping an
///   architecturally empty stack returns whatever stale value the wrapped
///   pointer finds (*underflow*) rather than faulting;
/// * a saturating depth counter is maintained **for statistics only** — the
///   hardware has no such counter, and prediction behaviour never consults
///   it.
///
/// Repair is performed with [`ReturnAddressStack::checkpoint`] /
/// [`ReturnAddressStack::restore`]; see [`RepairPolicy`] for the menu of
/// mechanisms.
///
/// # Examples
///
/// ```
/// use ras_core::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(4);
/// ras.push(0x100);
/// ras.push(0x200);
/// assert_eq!(ras.pop(), Some(0x200));
/// assert_eq!(ras.pop(), Some(0x100));
/// assert_eq!(ras.stats().underflows, 0);
/// ras.pop(); // empty: underflow, stale data
/// assert_eq!(ras.stats().underflows, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnAddressStack {
    entries: Vec<Entry>,
    tos: usize,
    depth: usize,
    next_seq: u64,
    stats: RasStats,
}

impl ReturnAddressStack {
    /// Creates a stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "return-address stack capacity must be > 0");
        ReturnAddressStack {
            entries: vec![Entry::default(); capacity],
            tos: capacity - 1, // so the first push lands on index 0
            depth: 0,
            next_seq: 1,
            stats: RasStats::default(),
        }
    }

    /// Number of physical entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Architectural depth estimate (saturates at capacity, floors at 0).
    /// Statistics only; the hardware structure never consults it.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Event statistics.
    pub fn stats(&self) -> &RasStats {
        &self.stats
    }

    /// Resets the event statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = RasStats::default();
    }

    /// Pushes a predicted return address (speculative, at fetch).
    /// Returns whether the push overflowed, overwriting a live entry.
    pub fn push(&mut self, return_addr: u64) -> bool {
        self.stats.pushes += 1;
        let overflow = self.depth == self.capacity();
        if overflow {
            self.stats.overflows += 1;
        } else {
            self.depth += 1;
        }
        self.tos = (self.tos + 1) % self.capacity();
        self.entries[self.tos] = Entry {
            addr: return_addr,
            seq: self.next_seq,
            valid: true,
        };
        self.next_seq += 1;
        overflow
    }

    /// Pops the predicted return target (speculative, at fetch).
    ///
    /// Returns `None` only when the entry at TOS has been *invalidated* by
    /// the [`RepairPolicy::ValidBits`] mechanism (the front end then falls
    /// back to the BTB). An architecturally empty stack still returns the
    /// stale wrapped value, as real hardware does — that stale value is
    /// simply likely to be wrong.
    pub fn pop(&mut self) -> Option<u64> {
        self.stats.pops += 1;
        let underflow = self.depth == 0;
        if underflow {
            self.stats.underflows += 1;
        } else {
            self.depth -= 1;
        }
        let entry = self.entries[self.tos];
        self.tos = (self.tos + self.capacity() - 1) % self.capacity();
        entry.valid.then_some(entry.addr)
    }

    /// The prediction a pop would return, without popping.
    pub fn peek(&self) -> Option<u64> {
        let entry = self.entries[self.tos];
        entry.valid.then_some(entry.addr)
    }

    /// Takes a checkpoint sufficient to repair this stack later under
    /// `policy`. Cheap for the pointer policies, O(capacity) only for
    /// [`RepairPolicy::FullStack`].
    pub fn checkpoint(&mut self, policy: RepairPolicy) -> RasCheckpoint {
        self.stats.checkpoints += 1;
        let saved = match policy {
            RepairPolicy::None | RepairPolicy::ValidBits | RepairPolicy::TosPointer => {
                SavedContents::None
            }
            RepairPolicy::TosPointerAndContents => self.save_top_one(),
            RepairPolicy::TopContents { k } => {
                if k.min(self.capacity()) == 1 {
                    self.save_top_one()
                } else {
                    SavedContents::Top(self.save_top(k))
                }
            }
            RepairPolicy::FullStack => SavedContents::Full(self.entries.clone()),
        };
        RasCheckpoint {
            policy,
            tos: self.tos,
            depth: self.depth,
            seq_horizon: self.next_seq,
            saved,
        }
    }

    /// The `k = 1` save, stored inline (no heap allocation per branch).
    fn save_top_one(&self) -> SavedContents {
        SavedContents::TopOne(self.tos, self.entries[self.tos])
    }

    fn save_top(&self, k: usize) -> Vec<(usize, Entry)> {
        let k = k.min(self.capacity());
        (0..k)
            .map(|i| {
                let idx = (self.tos + self.capacity() - i) % self.capacity();
                (idx, self.entries[idx])
            })
            .collect()
    }

    /// Repairs the stack from a checkpoint after a misprediction, applying
    /// exactly what the checkpoint's policy saved:
    ///
    /// * `None` — nothing happens (corruption persists);
    /// * `ValidBits` — the TOS pointer is restored and entries the wrong
    ///   path *overwrote* are invalidated (they yield no prediction
    ///   rather than a bogus target; the lost contents are gone);
    /// * `TosPointer` — TOS pointer (and depth estimate) restored;
    ///   overwritten contents stay corrupt;
    /// * `TosPointerAndContents` / `TopContents` — pointer plus the saved
    ///   top entries restored;
    /// * `FullStack` — the entire stack image restored.
    pub fn restore(&mut self, ckpt: &RasCheckpoint) {
        self.stats.restores += 1;
        match ckpt.policy {
            RepairPolicy::None => {}
            RepairPolicy::ValidBits => {
                // Detection-style repair: the TOS pointer comes back with
                // the branch's shadow fetch state, and the per-entry tags
                // identify slots the wrong path overwrote — those are
                // invalidated (their original contents are gone) so they
                // yield no prediction instead of a bogus target.
                self.tos = ckpt.tos;
                self.depth = ckpt.depth;
                for e in &mut self.entries {
                    if e.seq >= ckpt.seq_horizon {
                        e.valid = false;
                    }
                }
            }
            RepairPolicy::TosPointer => {
                self.tos = ckpt.tos;
                self.depth = ckpt.depth;
            }
            RepairPolicy::TosPointerAndContents
            | RepairPolicy::TopContents { .. }
            | RepairPolicy::FullStack => {
                self.tos = ckpt.tos;
                self.depth = ckpt.depth;
                match &ckpt.saved {
                    SavedContents::None => {}
                    SavedContents::TopOne(idx, entry) => {
                        self.entries[*idx] = *entry;
                    }
                    SavedContents::Top(saved) => {
                        for &(idx, entry) in saved {
                            self.entries[idx] = entry;
                        }
                    }
                    SavedContents::Full(entries) => {
                        self.entries.clone_from(entries);
                    }
                }
            }
        }
    }

    /// Raw state for external snapshot serializers:
    /// `(entries, tos, depth, next_seq, stats)`.
    pub fn snapshot_parts(&self) -> (&[Entry], usize, usize, u64, RasStats) {
        (
            &self.entries,
            self.tos,
            self.depth,
            self.next_seq,
            self.stats,
        )
    }

    /// Rebuilds a stack from [`ReturnAddressStack::snapshot_parts`] output.
    ///
    /// Returns `None` when the parts are inconsistent (empty entry set,
    /// out-of-range pointers) rather than building a stack whose later
    /// operations would index out of bounds.
    pub fn from_snapshot_parts(
        entries: Vec<Entry>,
        tos: usize,
        depth: usize,
        next_seq: u64,
        stats: RasStats,
    ) -> Option<Self> {
        if entries.is_empty() || tos >= entries.len() || depth > entries.len() {
            return None;
        }
        Some(ReturnAddressStack {
            entries,
            tos,
            depth,
            next_seq,
            stats,
        })
    }

    /// Copies this stack over `dst` for a forked execution path (the
    /// per-path-stack organization for multipath processors), reusing
    /// `dst`'s entry buffer so forking a path costs no heap allocation.
    /// Statistics on `dst` are reset so each path accounts its own
    /// events.
    pub fn fork_into(&self, dst: &mut Self) {
        dst.entries.clear();
        dst.entries.extend_from_slice(&self.entries);
        dst.tos = self.tos;
        dst.depth = self.depth;
        dst.next_seq = self.next_seq;
        dst.stats = RasStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut s = ReturnAddressStack::new(8);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_panics() {
        let _ = ReturnAddressStack::new(0);
    }

    #[test]
    fn overflow_wraps_and_overwrites_oldest() {
        let mut s = ReturnAddressStack::new(2);
        s.push(1);
        s.push(2);
        s.push(3); // overwrites 1
        assert_eq!(s.stats().overflows, 1);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        // Architecturally empty; wrapped read returns stale garbage (3's
        // slot), counted as underflow.
        let stale = s.pop();
        assert_eq!(s.stats().underflows, 1);
        assert_eq!(stale, Some(3));
    }

    #[test]
    fn underflow_returns_stale_value_not_none() {
        let mut s = ReturnAddressStack::new(4);
        s.push(7);
        assert_eq!(s.pop(), Some(7));
        // Depth 0 now; pop wraps and reads whatever is there.
        let v = s.pop();
        assert_eq!(s.stats().underflows, 1);
        // Slot was never written -> default invalid entry -> None.
        assert_eq!(v, None);
    }

    #[test]
    fn peek_does_not_modify() {
        let mut s = ReturnAddressStack::new(4);
        s.push(5);
        assert_eq!(s.peek(), Some(5));
        assert_eq!(s.peek(), Some(5));
        assert_eq!(s.depth(), 1);
        assert_eq!(s.stats().pops, 0);
    }

    #[test]
    fn depth_saturates() {
        let mut s = ReturnAddressStack::new(2);
        for i in 0..5 {
            s.push(i);
        }
        assert_eq!(s.depth(), 2);
        for _ in 0..5 {
            s.pop();
        }
        assert_eq!(s.depth(), 0);
        assert_eq!(s.stats().underflows, 3);
    }

    #[test]
    fn no_repair_leaves_corruption() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        let ckpt = s.checkpoint(RepairPolicy::None);
        s.pop();
        s.push(0xbad);
        s.restore(&ckpt);
        assert_eq!(s.peek(), Some(0xbad));
    }

    #[test]
    fn tos_pointer_repairs_pops_but_not_overwrites() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        s.push(0x20);

        // Case 1: wrong path only pops. Pointer restore is enough.
        let ckpt = s.checkpoint(RepairPolicy::TosPointer);
        s.pop();
        s.pop();
        s.restore(&ckpt);
        assert_eq!(s.peek(), Some(0x20));
        assert_eq!(s.depth(), 2);

        // Case 2: wrong path pops then pushes (overwrites 0x20's slot).
        let ckpt = s.checkpoint(RepairPolicy::TosPointer);
        s.pop();
        s.push(0xbad); // lands exactly where 0x20 lived
        s.restore(&ckpt);
        assert_eq!(s.peek(), Some(0xbad), "contents stay corrupt");
    }

    #[test]
    fn tos_pointer_and_contents_repairs_single_overwrite() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        s.push(0x20);
        let ckpt = s.checkpoint(RepairPolicy::TosPointerAndContents);
        s.pop();
        s.push(0xbad);
        s.restore(&ckpt);
        assert_eq!(s.peek(), Some(0x20));
        assert_eq!(s.pop(), Some(0x20));
        assert_eq!(s.pop(), Some(0x10));
    }

    #[test]
    fn tos_pointer_and_contents_cannot_repair_deep_overwrite() {
        // Wrong path pops twice then pushes twice: the entry *below* TOS
        // is also overwritten and only full(er) checkpointing can fix it.
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        s.push(0x20);
        let ckpt = s.checkpoint(RepairPolicy::TosPointerAndContents);
        s.pop();
        s.pop();
        s.push(0xbad1);
        s.push(0xbad2);
        s.restore(&ckpt);
        assert_eq!(s.peek(), Some(0x20), "top entry repaired");
        s.pop();
        assert_eq!(s.peek(), Some(0xbad1), "second entry corrupt");
    }

    #[test]
    fn top_k_contents_repairs_k_deep() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        s.push(0x20);
        let ckpt = s.checkpoint(RepairPolicy::TopContents { k: 2 });
        s.pop();
        s.pop();
        s.push(0xbad1);
        s.push(0xbad2);
        s.restore(&ckpt);
        assert_eq!(s.pop(), Some(0x20));
        assert_eq!(s.pop(), Some(0x10));
    }

    #[test]
    fn top_k_larger_than_capacity_is_clamped() {
        let mut s = ReturnAddressStack::new(2);
        s.push(1);
        let ckpt = s.checkpoint(RepairPolicy::TopContents { k: 100 });
        s.push(2);
        s.push(3);
        s.restore(&ckpt);
        assert_eq!(s.peek(), Some(1));
    }

    #[test]
    fn full_stack_checkpoint_repairs_everything() {
        let mut s = ReturnAddressStack::new(4);
        for a in [1u64, 2, 3, 4] {
            s.push(a);
        }
        let ckpt = s.checkpoint(RepairPolicy::FullStack);
        for _ in 0..4 {
            s.pop();
        }
        for a in [9u64, 8, 7, 6] {
            s.push(a);
        }
        s.restore(&ckpt);
        assert_eq!(s.pop(), Some(4));
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn valid_bits_restore_pointer_and_survive_pure_push() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        let ckpt = s.checkpoint(RepairPolicy::ValidBits);
        s.push(0xbad); // wrong-path push into a fresh slot
        s.restore(&ckpt);
        // The pointer comes back and the old top was not overwritten.
        assert_eq!(s.peek(), Some(0x10));
    }

    #[test]
    fn valid_bits_detect_overwritten_slots() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        let ckpt = s.checkpoint(RepairPolicy::ValidBits);
        s.pop(); // wrong path pops the good entry...
        s.push(0xbad); // ...and overwrites its slot
        s.restore(&ckpt);
        // The pointer is back at the slot, but the tag shows the wrong
        // path clobbered it: detection yields no prediction rather than
        // the bogus 0xbad — contents cannot be recovered.
        assert_eq!(s.peek(), None);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn valid_bits_do_not_invalidate_older_entries() {
        let mut s = ReturnAddressStack::new(8);
        s.push(0x10);
        s.push(0x20);
        let ckpt = s.checkpoint(RepairPolicy::ValidBits);
        s.restore(&ckpt); // nothing pushed on the wrong path
        assert_eq!(s.peek(), Some(0x20));
    }

    #[test]
    fn fork_copies_state_and_resets_stats() {
        let mut s = ReturnAddressStack::new(4);
        s.push(1);
        s.push(2);
        let mut f = ReturnAddressStack::new(4);
        f.push(9);
        s.fork_into(&mut f);
        assert_eq!(f.peek(), Some(2));
        assert_eq!(f.depth(), 2);
        assert_eq!(f.stats().pushes, 0);
        // The two stacks are independent.
        f.push(3);
        assert_eq!(s.peek(), Some(2));
        assert_eq!(f.peek(), Some(3));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut s = ReturnAddressStack::new(4);
        s.push(1);
        s.pop();
        let c = s.checkpoint(RepairPolicy::TosPointer);
        s.restore(&c);
        let st = *s.stats();
        assert_eq!(
            (st.pushes, st.pops, st.checkpoints, st.restores),
            (1, 1, 1, 1)
        );
        s.reset_stats();
        assert_eq!(s.stats().pushes, 0);
    }

    #[test]
    fn capacity_one_stack_works() {
        let mut s = ReturnAddressStack::new(1);
        s.push(5);
        s.push(6); // overwrite
        assert_eq!(s.pop(), Some(6));
        assert_eq!(s.stats().overflows, 1);
    }
}
