//! Property-based tests for the path tree: lineage and visibility are
//! the load-bearing predicates of multipath squashing and renaming.
//!
//! The table answers its queries from child links and stops each walk
//! early, relying on fork seqs rising with creation as the core's single
//! fetch counter guarantees. The brute-force parent walks below are the
//! oracle: they scan every path ever created and walk each ancestor
//! chain to the root, assuming nothing about seq order.

use hydra_pipeline::{PathId, PathTable};
use proptest::prelude::*;

/// A random path-tree schedule. Every action that needs a seq draws a
/// fresh, strictly larger one, as the core's fetch counter does.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Fork from the path with this index (mod paths) after advancing
    /// the seq counter by this step.
    Fork(usize, u64),
    /// Kill the subtree of the path with this index (mod paths).
    Kill(usize),
    /// Stop the path with this index without touching its descendants.
    Retire(usize),
    /// Bring the path with this index back, if a context is free.
    Revive(usize),
    /// Squash the lineage of the path with this index after the seq
    /// this far back from the current one.
    Squash(usize, u64),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    let fork = || (0usize..8, 1u64..10_000).prop_map(|(p, s)| Action::Fork(p, s));
    prop::collection::vec(
        // Forks listed three times: trees need growth to be interesting.
        prop_oneof![
            fork(),
            fork(),
            fork(),
            (0usize..8).prop_map(Action::Kill),
            (0usize..8).prop_map(Action::Retire),
            (0usize..8).prop_map(Action::Revive),
            (0usize..8, 0u64..20_000).prop_map(|(p, b)| Action::Squash(p, b)),
        ],
        0..40,
    )
}

/// Runs a schedule, handing the table to `check` after every action.
/// Returns the table, every path it created, and every seq it used.
fn run(
    max_live: usize,
    schedule: &[Action],
    mut check: impl FnMut(&PathTable),
) -> (PathTable, Vec<PathId>, Vec<u64>) {
    let mut t = PathTable::new(max_live);
    let mut all = vec![PathId::ROOT];
    let mut seqs = vec![0u64];
    let mut seq = 0u64;
    let mut killed = Vec::new();
    for a in schedule {
        match *a {
            Action::Fork(idx, step) => {
                seq += step;
                seqs.push(seq);
                if let Some(child) = t.fork(all[idx % all.len()], seq) {
                    all.push(child);
                }
            }
            Action::Kill(idx) => {
                let victim = all[idx % all.len()];
                if victim != PathId::ROOT {
                    t.kill_subtree(victim);
                }
            }
            Action::Retire(idx) => t.retire_path(all[idx % all.len()]),
            Action::Revive(idx) => {
                if t.live_count() < max_live {
                    t.revive(all[idx % all.len()]);
                }
            }
            Action::Squash(idx, back) => {
                let min_seq = seq.saturating_sub(back);
                seqs.push(min_seq);
                killed.clear();
                t.kill_forks_after_into(all[idx % all.len()], min_seq, &mut killed);
            }
        }
        check(&t);
    }
    (t, all, seqs)
}

fn build(max_live: usize, schedule: &[Action]) -> (PathTable, Vec<PathId>, Vec<u64>) {
    run(max_live, schedule, |_| {})
}

/// Seqs worth querying: every seq the schedule used, its neighbours,
/// and the extremes.
fn probe_seqs(seqs: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = seqs
        .iter()
        .flat_map(|&s| [s.saturating_sub(1), s, s + 1])
        .chain([0, u64::MAX])
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether `descendant` is `ancestor` or transitively forked from it.
fn reference_in_subtree(t: &PathTable, descendant: PathId, ancestor: PathId) -> bool {
    let mut cur = Some(descendant);
    while let Some(p) = cur {
        if p == ancestor {
            return true;
        }
        cur = t.parent(p);
    }
    false
}

/// Lineage by walking the whole chain up to the link that leaves `base`.
fn reference_on_lineage(
    t: &PathTable,
    uop_path: PathId,
    uop_seq: u64,
    base: PathId,
    min_seq: u64,
) -> bool {
    if uop_path == base {
        return uop_seq > min_seq;
    }
    let mut cur = uop_path;
    loop {
        match t.parent(cur) {
            Some(p) if p == base => return t.fork_seq(cur) > min_seq,
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// The ancestor horizons of `path`: `(ancestor, horizon)` pairs meaning
/// micro-ops on `ancestor` with `seq <= horizon` are visible to `path`.
fn reference_visibility(t: &PathTable, path: PathId) -> Vec<(PathId, u64)> {
    let mut out = vec![(path, u64::MAX)];
    let mut cur = path;
    let mut horizon = u64::MAX;
    while let Some(parent) = t.parent(cur) {
        horizon = horizon.min(t.fork_seq(cur));
        out.push((parent, horizon));
        cur = parent;
    }
    out
}

fn reference_visible(t: &PathTable, uop_path: PathId, uop_seq: u64, path: PathId) -> bool {
    reference_visibility(t, path)
        .iter()
        .any(|&(p, horizon)| p == uop_path && uop_seq <= horizon)
}

/// What a lineage squash kills, by scanning every path ever created
/// (`all`, in creation order): each doomed path's subtree in id order,
/// skipping members already listed.
fn reference_doomed(t: &PathTable, all: &[PathId], base: PathId, min_seq: u64) -> Vec<PathId> {
    let mut killed = Vec::new();
    for &q in all {
        if q == base || !reference_on_lineage(t, q, u64::MAX, base, min_seq) {
            continue;
        }
        for &k in all {
            if reference_in_subtree(t, k, q) && !killed.contains(&k) {
                killed.push(k);
            }
        }
    }
    killed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Live count never exceeds the context limit.
    #[test]
    fn live_count_bounded(max_live in 1usize..6, schedule in actions()) {
        let mut worst = 0;
        run(max_live, &schedule, |t| worst = worst.max(t.live_count()));
        prop_assert!(worst <= max_live);
    }

    /// Kill returns exactly the reference subtree in ascending id order,
    /// leaves none of it alive and nothing else dead, and is idempotent.
    #[test]
    fn kill_subtree_matches_reference(schedule in actions()) {
        let (t, all, _) = build(8, &schedule);
        for &victim in &all {
            let mut k = t.clone();
            let expected: Vec<PathId> =
                all.iter().copied().filter(|&p| reference_in_subtree(&t, p, victim)).collect();
            let killed = k.kill_subtree(victim);
            prop_assert_eq!(&killed, &expected);
            for &p in &all {
                prop_assert_eq!(k.is_alive(p), t.is_alive(p) && !expected.contains(&p));
            }
            let again = k.kill_subtree(victim);
            prop_assert_eq!(killed, again, "subtree membership is stable");
        }
    }

    /// A lineage squash kills exactly what the old scan over every path
    /// killed, in the same order, and leaves everything else as it was.
    #[test]
    fn squash_kills_match_reference_scan(schedule in actions()) {
        let (t, all, seqs) = build(8, &schedule);
        for &base in &all {
            for &min_seq in &probe_seqs(&seqs) {
                let mut k = t.clone();
                let mut killed = Vec::new();
                k.kill_forks_after_into(base, min_seq, &mut killed);
                let expected = reference_doomed(&t, &all, base, min_seq);
                prop_assert_eq!(&killed, &expected, "base {} after {}", base, min_seq);
                for &p in &all {
                    prop_assert_eq!(k.is_alive(p), t.is_alive(p) && !expected.contains(&p));
                }
            }
        }
    }

    /// The early-exit lineage and visibility walks agree with the
    /// unbounded reference walks on every (path, seq) pair the schedule
    /// used.
    #[test]
    fn lineage_and_visibility_match_reference(schedule in actions()) {
        let (t, all, seqs) = build(8, &schedule);
        let probes = probe_seqs(&seqs);
        for &uop_path in &all {
            for &uop_seq in &probes {
                for &base in &all {
                    prop_assert_eq!(
                        t.visible(uop_path, uop_seq, base),
                        reference_visible(&t, uop_path, uop_seq, base)
                    );
                    for &min_seq in &probes {
                        prop_assert_eq!(
                            t.on_lineage(uop_path, uop_seq, base, min_seq),
                            reference_on_lineage(&t, uop_path, uop_seq, base, min_seq),
                            "{}@{} on {} after {}", uop_path, uop_seq, base, min_seq
                        );
                    }
                }
            }
        }
    }

    /// Visibility is downward-only: a child sees ancestors' early uops;
    /// an ancestor never sees a descendant's uops.
    #[test]
    fn visibility_is_downward(schedule in actions()) {
        let (t, all, _) = build(8, &schedule);
        for &a in &all {
            for &b in &all {
                if a == b {
                    prop_assert!(t.visible(a, u64::MAX, a), "self always visible");
                    continue;
                }
                if reference_in_subtree(&t, b, a) {
                    // a is an ancestor of b: b sees a's uops up to the
                    // fork horizon, never beyond; a never sees b.
                    prop_assert!(!t.visible(b, 0, a), "{a} must not see descendant {b}");
                    let horizon = reference_visibility(&t, b)
                        .iter()
                        .find(|&&(p, _)| p == a)
                        .map(|&(_, h)| h)
                        .expect("ancestor appears in visibility");
                    prop_assert!(t.visible(a, horizon, b));
                    if horizon < u64::MAX {
                        prop_assert!(!t.visible(a, horizon + 1, b));
                    }
                } else if !reference_in_subtree(&t, a, b) {
                    // Unrelated paths see nothing of each other beyond
                    // common ancestors (which are separate entries).
                    prop_assert!(!t.visible(b, u64::MAX, a) || b == a);
                }
            }
        }
    }

    /// Lineage and visibility interlock: a uop on the post-fork lineage
    /// of (base, s) is exactly one that base's *pre-s* state cannot keep:
    /// it is never visible to any path that forked off base at or before s.
    #[test]
    fn lineage_excludes_prior_forks(schedule in actions()) {
        let (t, all, _) = build(8, &schedule);
        for &child in &all {
            let Some(parent) = t.parent(child) else { continue };
            let fork = t.fork_seq(child);
            // The child itself is never on the parent's lineage at the
            // fork branch (it is the surviving alternate arm)...
            prop_assert!(!t.on_lineage(child, u64::MAX, parent, fork));
            // ...but is on the lineage of any strictly older point.
            if fork > 0 {
                prop_assert!(t.on_lineage(child, u64::MAX, parent, fork - 1));
            }
        }
    }

    /// Revive restores exactly the one path.
    #[test]
    fn revive_restores_single_path(schedule in actions()) {
        let (mut t, all, _) = build(8, &schedule);
        for &p in &all {
            if !t.is_alive(p) {
                t.revive(p);
                prop_assert!(t.is_alive(p));
                t.retire_path(p);
                prop_assert!(!t.is_alive(p));
            }
        }
    }
}
