//! Shadow-state capacity modeling.

use std::fmt;

/// A counting budget for in-flight branch checkpoints, modeling the
/// limited per-branch shadow storage of real processors.
///
/// The paper notes the MIPS R10000 can shadow only **4** in-flight
/// branches and the Alpha 21264 **20**; when the shadow storage is full
/// the front end must stall (or forgo repair for the excess branches).
/// The pipeline consults this budget at prediction time.
///
/// # Examples
///
/// ```
/// use ras_core::CheckpointBudget;
///
/// let mut budget = CheckpointBudget::limited(2);
/// assert!(budget.try_acquire());
/// assert!(budget.try_acquire());
/// assert!(!budget.try_acquire()); // full: stall or skip repair
/// budget.release();
/// assert!(budget.try_acquire());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointBudget {
    capacity: Option<usize>,
    in_flight: usize,
}

impl CheckpointBudget {
    /// A budget that never runs out (idealized shadow storage).
    pub fn unlimited() -> Self {
        CheckpointBudget {
            capacity: None,
            in_flight: 0,
        }
    }

    /// A budget of exactly `capacity` simultaneous checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use a [`RepairPolicy::None`]
    /// configuration instead of a zero budget).
    ///
    /// [`RepairPolicy::None`]: crate::RepairPolicy::None
    pub fn limited(capacity: usize) -> Self {
        assert!(capacity > 0, "checkpoint budget capacity must be > 0");
        CheckpointBudget {
            capacity: Some(capacity),
            in_flight: 0,
        }
    }

    /// Maximum simultaneous checkpoints, or `None` if unlimited.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Checkpoints currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether another checkpoint can be taken right now.
    pub fn available(&self) -> bool {
        match self.capacity {
            None => true,
            Some(cap) => self.in_flight < cap,
        }
    }

    /// Attempts to reserve one checkpoint slot. Returns `false` (and
    /// reserves nothing) when the shadow storage is full.
    pub fn try_acquire(&mut self) -> bool {
        if self.available() {
            self.in_flight += 1;
            true
        } else {
            false
        }
    }

    /// Releases one slot (the branch resolved or was squashed).
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint is outstanding — that indicates a pipeline
    /// accounting bug.
    pub fn release(&mut self) {
        assert!(self.in_flight > 0, "release without matching acquire");
        self.in_flight -= 1;
    }

    /// Releases `n` slots at once (bulk squash).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` checkpoints are outstanding.
    pub fn release_many(&mut self, n: usize) {
        assert!(self.in_flight >= n, "release of {n} exceeds in-flight");
        self.in_flight -= n;
    }
}

impl Default for CheckpointBudget {
    fn default() -> Self {
        CheckpointBudget::unlimited()
    }
}

impl fmt::Display for CheckpointBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.capacity {
            None => write!(f, "{} in flight (unlimited)", self.in_flight),
            Some(cap) => write!(f, "{}/{cap} in flight", self.in_flight),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut b = CheckpointBudget::unlimited();
        for _ in 0..1000 {
            assert!(b.try_acquire());
        }
        assert_eq!(b.in_flight(), 1000);
        assert_eq!(b.capacity(), None);
    }

    #[test]
    fn limited_exhausts_and_recovers() {
        let mut b = CheckpointBudget::limited(4); // R10000
        for _ in 0..4 {
            assert!(b.try_acquire());
        }
        assert!(!b.try_acquire());
        assert_eq!(b.in_flight(), 4);
        b.release();
        assert!(b.available());
        assert!(b.try_acquire());
    }

    #[test]
    fn release_many_bulk_squash() {
        let mut b = CheckpointBudget::limited(20); // 21264
        for _ in 0..10 {
            b.try_acquire();
        }
        b.release_many(7);
        assert_eq!(b.in_flight(), 3);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn unbalanced_release_panics() {
        CheckpointBudget::unlimited().release();
    }

    #[test]
    #[should_panic(expected = "exceeds in-flight")]
    fn excess_release_many_panics() {
        let mut b = CheckpointBudget::limited(4);
        b.try_acquire();
        b.release_many(2);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_panics() {
        let _ = CheckpointBudget::limited(0);
    }

    #[test]
    fn default_is_unlimited() {
        assert_eq!(CheckpointBudget::default().capacity(), None);
    }

    #[test]
    fn display_both_forms() {
        let mut b = CheckpointBudget::limited(4);
        b.try_acquire();
        assert_eq!(b.to_string(), "1/4 in flight");
        assert!(CheckpointBudget::unlimited()
            .to_string()
            .contains("unlimited"));
    }
}
