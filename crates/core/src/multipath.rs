//! Stack organizations for multipath processors.

use crate::RepairPolicy;
use std::fmt;

/// How a multipath processor organizes its return-address stack(s).
///
/// Multipath execution forks at low-confidence branches and runs both
/// sides simultaneously. The paper shows that with a single **unified**
/// stack, concurrently live paths push and pop over each other and
/// "corruption is almost certain, even with full-stack checkpointing";
/// giving each path its **own** stack ([`MultipathStackPolicy::PerPath`])
/// eliminates the contention entirely and improves performance by more
/// than 25%.
///
/// # Examples
///
/// ```
/// use ras_core::{MultipathStackPolicy, RepairPolicy};
///
/// let unified = MultipathStackPolicy::Unified {
///     repair: RepairPolicy::TosPointerAndContents,
/// };
/// assert!(!unified.is_per_path());
/// assert!(MultipathStackPolicy::PerPath.is_per_path());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultipathStackPolicy {
    /// One stack shared by all live paths, repaired on mispredictions with
    /// the given policy. Forked paths interleave their pushes and pops on
    /// the shared structure.
    Unified {
        /// Repair mechanism applied when a resolved branch squashes a path.
        repair: RepairPolicy,
    },
    /// Each live path owns a private copy of the stack, created by copying
    /// the parent's stack at the fork. Squashing a path simply discards
    /// its copy; no repair is ever needed.
    PerPath,
}

impl MultipathStackPolicy {
    /// Whether each path gets a private stack.
    pub fn is_per_path(self) -> bool {
        matches!(self, MultipathStackPolicy::PerPath)
    }

    /// The repair policy applied on squash, if the organization uses one.
    pub fn repair(self) -> Option<RepairPolicy> {
        match self {
            MultipathStackPolicy::Unified { repair } => Some(repair),
            MultipathStackPolicy::PerPath => None,
        }
    }

    /// The three organizations the paper's multipath evaluation compares.
    pub const EVALUATED: [MultipathStackPolicy; 3] = [
        MultipathStackPolicy::Unified {
            repair: RepairPolicy::None,
        },
        MultipathStackPolicy::Unified {
            repair: RepairPolicy::TosPointerAndContents,
        },
        MultipathStackPolicy::PerPath,
    ];
}

impl fmt::Display for MultipathStackPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultipathStackPolicy::Unified { repair } => write!(f, "unified ({repair})"),
            MultipathStackPolicy::PerPath => write!(f, "per-path stacks"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let u = MultipathStackPolicy::Unified {
            repair: RepairPolicy::FullStack,
        };
        assert!(!u.is_per_path());
        assert_eq!(u.repair(), Some(RepairPolicy::FullStack));
        assert!(MultipathStackPolicy::PerPath.is_per_path());
        assert_eq!(MultipathStackPolicy::PerPath.repair(), None);
    }

    #[test]
    fn evaluated_set_matches_paper() {
        assert_eq!(MultipathStackPolicy::EVALUATED.len(), 3);
        assert!(MultipathStackPolicy::EVALUATED
            .iter()
            .any(|p| p.is_per_path()));
    }

    #[test]
    fn display_distinct() {
        let mut names: Vec<String> = MultipathStackPolicy::EVALUATED
            .iter()
            .map(|p| p.to_string())
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
