//! Repair policies and checkpoints.

use crate::stack::Entry;
use std::fmt;

/// The menu of return-address-stack repair mechanisms the paper evaluates.
///
/// Ordered roughly by hardware cost. See the crate-level documentation for
/// what each repairs and what it leaves corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairPolicy {
    /// No repair at all (the corruption baseline).
    None,
    /// Pentium MMX/II-style detection: per-entry tags let wrong-path
    /// pushes be *invalidated* after a squash; nothing is restored.
    ValidBits,
    /// Save/restore only the top-of-stack pointer (Cyrix patent 5,706,491).
    TosPointer,
    /// Save/restore the TOS pointer **and** the top-of-stack entry — the
    /// paper's proposed mechanism ("nearly 100% hit rates").
    TosPointerAndContents,
    /// Save/restore the TOS pointer and the top `k` entries; `k = 1` is
    /// equivalent to [`RepairPolicy::TosPointerAndContents`].
    TopContents {
        /// How many top entries to save per checkpoint.
        k: usize,
    },
    /// Checkpoint the entire stack per predicted branch (upper limit).
    FullStack,
}

impl RepairPolicy {
    /// All distinct mechanisms the paper's single-path evaluation compares,
    /// in increasing hardware-cost order. (`TopContents` is a sweep knob
    /// rather than a distinct mechanism, so it is not listed.)
    pub const EVALUATED: [RepairPolicy; 5] = [
        RepairPolicy::None,
        RepairPolicy::ValidBits,
        RepairPolicy::TosPointer,
        RepairPolicy::TosPointerAndContents,
        RepairPolicy::FullStack,
    ];

    /// A compact machine-friendly name for trace events and filenames
    /// (the [`fmt::Display`] form has spaces).
    pub fn short_name(self) -> &'static str {
        match self {
            RepairPolicy::None => "none",
            RepairPolicy::ValidBits => "valid-bits",
            RepairPolicy::TosPointer => "tos-ptr",
            RepairPolicy::TosPointerAndContents => "tos+contents",
            RepairPolicy::TopContents { .. } => "top-k",
            RepairPolicy::FullStack => "full-stack",
        }
    }

    /// Words of shadow storage one checkpoint of this policy costs on a
    /// stack with `capacity` entries (the paper's hardware-cost argument:
    /// a TOS pointer is a few bits, full-stack checkpointing is huge).
    pub fn checkpoint_words(self, capacity: usize) -> usize {
        match self {
            RepairPolicy::None => 0,
            RepairPolicy::ValidBits => 0, // tags live in the stack itself
            RepairPolicy::TosPointer => 1,
            RepairPolicy::TosPointerAndContents => 2,
            RepairPolicy::TopContents { k } => 1 + k.min(capacity),
            RepairPolicy::FullStack => 1 + capacity,
        }
    }
}

impl fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairPolicy::None => write!(f, "no repair"),
            RepairPolicy::ValidBits => write!(f, "valid bits"),
            RepairPolicy::TosPointer => write!(f, "TOS pointer"),
            RepairPolicy::TosPointerAndContents => write!(f, "TOS ptr+contents"),
            RepairPolicy::TopContents { k } => write!(f, "top-{k} contents"),
            RepairPolicy::FullStack => write!(f, "full stack"),
        }
    }
}

/// What a checkpoint saved. Public (with public variants) so external
/// snapshot serializers can persist and rebuild in-flight checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SavedContents {
    /// Nothing beyond the pointer fields.
    None,
    /// The single saved top entry — the common (`TosPointerAndContents`,
    /// `TopContents { k: 1 }`) case, stored inline so the per-branch
    /// checkpoint costs no heap allocation on the hot path.
    TopOne(usize, Entry),
    /// `(physical index, entry)` pairs for the saved top entries.
    Top(Vec<(usize, Entry)>),
    /// The full stack image.
    Full(Vec<Entry>),
}

/// Shadow state saved when a branch is predicted, sufficient to repair the
/// stack under the policy it was taken with.
///
/// Created by [`ReturnAddressStack::checkpoint`](crate::ReturnAddressStack::checkpoint)
/// and consumed by
/// [`ReturnAddressStack::restore`](crate::ReturnAddressStack::restore).
/// In a real processor this is the per-branch shadow state distributed
/// near the stack; [`CheckpointBudget`](crate::CheckpointBudget) models its
/// limited capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasCheckpoint {
    pub(crate) policy: RepairPolicy,
    pub(crate) tos: usize,
    pub(crate) depth: usize,
    /// Pushes with `seq >= seq_horizon` happened after this checkpoint.
    pub(crate) seq_horizon: u64,
    pub(crate) saved: SavedContents,
}

impl RasCheckpoint {
    /// The policy this checkpoint was taken under.
    pub fn policy(&self) -> RepairPolicy {
        self.policy
    }

    /// Raw state for external snapshot serializers:
    /// `(policy, tos, depth, seq_horizon, saved)`.
    pub fn snapshot_parts(&self) -> (RepairPolicy, usize, usize, u64, &SavedContents) {
        (
            self.policy,
            self.tos,
            self.depth,
            self.seq_horizon,
            &self.saved,
        )
    }

    /// Rebuilds a checkpoint from [`RasCheckpoint::snapshot_parts`]
    /// output. `capacity` is the owning stack's entry count; out-of-range
    /// pointers or saved-entry indices are rejected so a later restore
    /// cannot index out of bounds.
    pub fn from_snapshot_parts(
        policy: RepairPolicy,
        tos: usize,
        depth: usize,
        seq_horizon: u64,
        saved: SavedContents,
        capacity: usize,
    ) -> Option<Self> {
        if tos >= capacity || depth > capacity {
            return None;
        }
        let saved_ok = match &saved {
            SavedContents::None => true,
            SavedContents::TopOne(idx, _) => *idx < capacity,
            SavedContents::Top(v) => v.iter().all(|(idx, _)| *idx < capacity),
            SavedContents::Full(v) => v.len() == capacity,
        };
        saved_ok.then_some(RasCheckpoint {
            policy,
            tos,
            depth,
            seq_horizon,
            saved,
        })
    }

    /// Words of shadow storage this particular checkpoint occupies.
    pub fn storage_words(&self) -> usize {
        match &self.saved {
            SavedContents::None => match self.policy {
                RepairPolicy::None | RepairPolicy::ValidBits => 0,
                _ => 1,
            },
            SavedContents::TopOne(..) => 2,
            SavedContents::Top(v) => 1 + v.len(),
            SavedContents::Full(v) => 1 + v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReturnAddressStack;

    #[test]
    fn display_names_are_distinct() {
        let mut names: Vec<String> = RepairPolicy::EVALUATED
            .iter()
            .map(|p| p.to_string())
            .collect();
        names.push(RepairPolicy::TopContents { k: 4 }.to_string());
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn short_names_are_distinct_and_space_free() {
        let mut names: Vec<&str> = RepairPolicy::EVALUATED
            .iter()
            .map(|p| p.short_name())
            .collect();
        names.push(RepairPolicy::TopContents { k: 4 }.short_name());
        assert!(names.iter().all(|n| !n.contains(' ')));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn checkpoint_words_ordering() {
        let cap = 32;
        assert_eq!(RepairPolicy::None.checkpoint_words(cap), 0);
        assert_eq!(RepairPolicy::TosPointer.checkpoint_words(cap), 1);
        assert_eq!(RepairPolicy::TosPointerAndContents.checkpoint_words(cap), 2);
        assert_eq!(RepairPolicy::TopContents { k: 4 }.checkpoint_words(cap), 5);
        assert_eq!(RepairPolicy::FullStack.checkpoint_words(cap), cap + 1);
        // TopContents clamps to capacity.
        assert_eq!(RepairPolicy::TopContents { k: 100 }.checkpoint_words(8), 9);
    }

    #[test]
    fn checkpoint_reports_its_policy_and_size() {
        let mut s = ReturnAddressStack::new(16);
        s.push(1);
        let c = s.checkpoint(RepairPolicy::TosPointerAndContents);
        assert_eq!(c.policy(), RepairPolicy::TosPointerAndContents);
        assert_eq!(c.storage_words(), 2);

        let c = s.checkpoint(RepairPolicy::FullStack);
        assert_eq!(c.storage_words(), 17);

        let c = s.checkpoint(RepairPolicy::None);
        assert_eq!(c.storage_words(), 0);

        let c = s.checkpoint(RepairPolicy::TosPointer);
        assert_eq!(c.storage_words(), 1);
    }

    #[test]
    fn evaluated_list_is_cost_ordered() {
        let cap = 32;
        let costs: Vec<usize> = RepairPolicy::EVALUATED
            .iter()
            .map(|p| p.checkpoint_words(cap))
            .collect();
        let mut sorted = costs.clone();
        sorted.sort_unstable();
        assert_eq!(costs, sorted);
    }
}
