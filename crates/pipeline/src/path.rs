//! Execution-path bookkeeping for multipath (and single-path) execution.
//!
//! Paths form a tree: forking at a low-confidence branch creates a child
//! path whose `fork_seq` is the forking branch's fetch sequence number.
//! Two questions drive all squash and rename logic, both answered here:
//!
//! * **lineage** — is micro-op *U* part of the continuation of path *P*
//!   after sequence *S*? (Those are the micro-ops a misprediction at
//!   `(P, S)` must squash.)
//! * **visibility** — can path *P* observe micro-op *U*'s result? (*U*
//!   must be on *P* itself, or on an ancestor *before* the fork point
//!   leading toward *P*.)

use std::fmt;

/// Identifies one execution path within a simulation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The initial (architectural) path.
    pub const ROOT: PathId = PathId(0);

    /// Index form, for dense per-path tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The inverse of [`PathId::index`], for iterating dense tables.
    pub(crate) fn from_index(i: usize) -> PathId {
        PathId(i as u32)
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// Identifies one hardware thread (hart) within a core.
///
/// Hart identity flows from the [`crate::System`] scheduler through
/// fetch, prediction and commit so shared structures (the RAS unit
/// under [`crate::RasSharing`]) can attribute every operation to the
/// stream that performed it. A single-stream core is hart 0 throughout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HartId(u8);

impl HartId {
    /// The first (and, on a single-threaded core, only) hart.
    pub const H0: HartId = HartId(0);

    /// Creates a hart id from its index on the core.
    pub fn new(index: u8) -> HartId {
        HartId(index)
    }

    /// Index form, for dense per-hart tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HartId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hart{}", self.0)
    }
}

/// "No path" in a [`PathInfo`] link. Links are bare `u32`s, not
/// `Option<PathId>` (eight bytes each), so a `PathInfo` with three of
/// them stays 24 bytes: the child links cost no memory per path.
const NO_PATH: u32 = u32::MAX;

fn link(index: u32) -> Option<PathId> {
    (index != NO_PATH).then_some(PathId(index))
}

#[derive(Debug, Clone, Copy)]
struct PathInfo {
    fork_seq: u64,
    parent: u32,
    /// Newest child, linked to older ones through their `next_sib`.
    /// Derived from `parent`; never serialized.
    first_child: u32,
    next_sib: u32,
    alive: bool,
}

const _: () = assert!(std::mem::size_of::<PathInfo>() == 24);

impl PathInfo {
    fn new(parent: Option<PathId>, fork_seq: u64, alive: bool) -> Self {
        PathInfo {
            fork_seq,
            parent: parent.map_or(NO_PATH, |p| p.0),
            first_child: NO_PATH,
            next_sib: NO_PATH,
            alive,
        }
    }
}

/// The path tree: creation, death, lineage and visibility queries.
///
/// Paths are never recycled within a simulation (identifiers are dense
/// and monotone), but only up to `max_live` may be alive at once.
///
/// Queries never scan every path ever created. They rely on each fork
/// using a larger seq than every fork before it, as the core's single
/// fetch counter guarantees. Then `fork_seq` strictly falls going up any
/// ancestor chain, and each newest-first child list is sorted by
/// descending `fork_seq`. Every walk stops at the first fork at or
/// before the sequence it asks about, so it costs no more than the forks
/// younger than that sequence.
///
/// # Examples
///
/// ```
/// use hydra_pipeline::{PathId, PathTable};
///
/// let mut t = PathTable::new(2);
/// let child = t.fork(PathId::ROOT, 10).expect("context free");
/// assert!(t.is_alive(child));
/// assert_eq!(t.fork(child, 11), None); // both contexts in use
/// t.kill_subtree(child);
/// assert!(!t.is_alive(child));
/// assert_eq!(t.live_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PathTable {
    paths: Vec<PathInfo>,
    max_live: usize,
    /// Live paths in creation order, maintained incrementally so the
    /// per-cycle fetch loop never scans every path ever created.
    alive_ids: Vec<PathId>,
}

impl PathTable {
    /// Creates a table with the root path alive and room for `max_live`
    /// simultaneous paths.
    ///
    /// # Panics
    ///
    /// Panics if `max_live` is zero.
    pub fn new(max_live: usize) -> Self {
        assert!(max_live > 0, "need at least one live path");
        PathTable {
            paths: vec![PathInfo::new(None, 0, true)],
            max_live,
            alive_ids: vec![PathId::ROOT],
        }
    }

    /// Number of currently live paths.
    pub fn live_count(&self) -> usize {
        self.alive_ids.len()
    }

    /// Number of paths ever created (dense identifier space).
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Whether `path` is alive (may fetch and fork).
    pub fn is_alive(&self, path: PathId) -> bool {
        self.paths[path.index()].alive
    }

    /// Live paths in creation order.
    pub fn alive_paths(&self) -> Vec<PathId> {
        self.alive_ids.clone()
    }

    /// Live paths in creation order, without allocating (the hot-path
    /// form of [`PathTable::alive_paths`]).
    pub fn alive_ids(&self) -> &[PathId] {
        &self.alive_ids
    }

    /// Removes `path` from the live list, keeping creation order.
    fn alive_ids_remove(&mut self, path: PathId) {
        if let Some(pos) = self.alive_ids.iter().position(|&p| p == path) {
            self.alive_ids.remove(pos);
        }
    }

    /// The parent of `path`, if it has one.
    pub fn parent(&self, path: PathId) -> Option<PathId> {
        link(self.paths[path.index()].parent)
    }

    /// The fetch sequence of the branch that forked `path` (0 for root).
    pub fn fork_seq(&self, path: PathId) -> u64 {
        self.paths[path.index()].fork_seq
    }

    /// Forks a child of `parent` at branch sequence `seq`. Returns `None`
    /// when all path contexts are in use or the parent is dead.
    pub fn fork(&mut self, parent: PathId, seq: u64) -> Option<PathId> {
        if !self.is_alive(parent) || self.live_count() >= self.max_live {
            return None;
        }
        let id = PathId(self.paths.len() as u32);
        self.paths.push(PathInfo::new(Some(parent), seq, true));
        self.link_child(id);
        self.alive_ids.push(id); // new ids are largest: order preserved
        Some(id)
    }

    /// Makes `child` the newest entry of its parent's child list.
    fn link_child(&mut self, child: PathId) {
        let parent = self.parent(child).expect("a child has a parent");
        let older = std::mem::replace(&mut self.paths[parent.index()].first_child, child.0);
        self.paths[child.index()].next_sib = older;
    }

    /// Kills `root` and every path forked from it (transitively).
    /// Returns **all** subtree members in ascending id order, including
    /// paths that were already dead (e.g. retired parents whose fork
    /// lost): a squash triggered at the subtree root must discard their
    /// in-flight micro-ops too.
    pub fn kill_subtree(&mut self, root: PathId) -> Vec<PathId> {
        let mut ids = Vec::new();
        self.kill_subtree_into(root, &mut ids);
        ids
    }

    /// [`PathTable::kill_subtree`] appending into a caller-provided
    /// buffer instead of allocating.
    fn kill_subtree_into(&mut self, root: PathId, out: &mut Vec<PathId>) {
        let start = out.len();
        let mut cur = root;
        loop {
            out.push(cur);
            self.retire_path(cur);
            let mut next = link(self.paths[cur.index()].first_child);
            // At a leaf, climb until a subtree member has an older sibling.
            while next.is_none() && cur != root {
                next = link(self.paths[cur.index()].next_sib);
                cur = self.parent(cur).expect("below the root");
            }
            match next {
                Some(p) => cur = p,
                None => break,
            }
        }
        out[start..].sort_unstable();
    }

    /// Kills every path whose fork chain leaves `base` strictly after
    /// `min_seq` — exactly the paths `q != base` with `on_lineage(q, _,
    /// base, min_seq)` — and appends them to `out`: the subtrees of
    /// `base`'s children forked after `min_seq`, oldest child first,
    /// each as [`PathTable::kill_subtree`] returns it. Paths already dead
    /// are included, as there.
    pub fn kill_forks_after_into(&mut self, base: PathId, min_seq: u64, out: &mut Vec<PathId>) {
        // Those children are a prefix of the newest-first list. Stage them
        // in `out`, expand them oldest first, then drop the staging.
        let start = out.len();
        let mut next = link(self.paths[base.index()].first_child);
        while let Some(child) = next.filter(|&c| self.fork_seq(c) > min_seq) {
            out.push(child);
            next = link(self.paths[child.index()].next_sib);
        }
        let staged = out.len();
        for i in (start..staged).rev() {
            let child = out[i];
            self.kill_subtree_into(child, out);
        }
        out.drain(start..staged);
    }

    /// Marks a single path dead without touching its descendants (used
    /// when a forked branch resolves *against* the parent: the parent's
    /// fetch stops but the surviving child subtree lives on).
    pub fn retire_path(&mut self, path: PathId) {
        if self.paths[path.index()].alive {
            self.paths[path.index()].alive = false;
            self.alive_ids_remove(path);
        }
    }

    /// Brings a retired path back to life. Needed when a branch *older*
    /// than the fork that retired the path mispredicts: the squash kills
    /// the subtree that had taken over, and the retired path is the
    /// correct continuation again.
    pub fn revive(&mut self, path: PathId) {
        if !self.paths[path.index()].alive {
            self.paths[path.index()].alive = true;
            let pos = self.alive_ids.partition_point(|&p| p < path);
            self.alive_ids.insert(pos, path);
        }
    }

    /// **Lineage**: is a micro-op at `(uop_path, uop_seq)` part of the
    /// continuation of `base` after sequence `min_seq`?
    ///
    /// True when the micro-op is on `base` itself with `uop_seq >
    /// min_seq`, or on a path whose chain of forks leaves `base` strictly
    /// after `min_seq`. A child forked *exactly at* `min_seq` is the
    /// alternate arm of the resolving branch itself and is **not**
    /// lineage (it survives when the branch resolves against `base`).
    pub fn on_lineage(&self, uop_path: PathId, uop_seq: u64, base: PathId, min_seq: u64) -> bool {
        if uop_path == base {
            return uop_seq > min_seq;
        }
        // Walk up from uop_path to the link that leaves `base`. Fork seqs
        // fall going up, so a link at or before `min_seq` settles it.
        let mut cur = &self.paths[uop_path.index()];
        while cur.fork_seq > min_seq {
            match link(cur.parent) {
                Some(p) if p == base => return true,
                Some(p) => cur = &self.paths[p.index()],
                None => break,
            }
        }
        false
    }

    /// Raw rows for the snapshot serializer: one
    /// `(parent, fork_seq, alive)` triple per path ever created, in
    /// creation order.
    pub(crate) fn snapshot_rows(&self) -> impl Iterator<Item = (Option<PathId>, u64, bool)> + '_ {
        self.paths
            .iter()
            .map(|p| (link(p.parent), p.fork_seq, p.alive))
    }

    /// The `max_live` bound this table was created with.
    pub(crate) fn max_live(&self) -> usize {
        self.max_live
    }

    /// Rebuilds a table from [`PathTable::snapshot_rows`] output.
    /// Returns `None` when the rows are inconsistent: no root, a root
    /// with a parent, a parent reference that is not an earlier path, or
    /// more live paths than `max_live` allows. The live list is
    /// reconstructed from the alive flags — it is always sorted by id,
    /// which is exactly the order the incremental maintenance preserves —
    /// and the child lists by linking the rows in creation order, as
    /// [`PathTable::fork`] did.
    pub(crate) fn from_snapshot_rows(
        rows: Vec<(Option<PathId>, u64, bool)>,
        max_live: usize,
    ) -> Option<Self> {
        if max_live == 0 || rows.is_empty() {
            return None;
        }
        if rows[0].0.is_some() {
            return None;
        }
        let mut table = PathTable {
            paths: Vec::with_capacity(rows.len()),
            max_live,
            alive_ids: Vec::new(),
        };
        for (i, (parent, fork_seq, alive)) in rows.into_iter().enumerate() {
            match parent {
                Some(p) if p.index() >= i => return None,
                None if i > 0 => return None,
                _ => {}
            }
            if alive {
                table.alive_ids.push(PathId(i as u32));
            }
            table.paths.push(PathInfo::new(parent, fork_seq, alive));
            if i > 0 {
                table.link_child(PathId(i as u32));
            }
        }
        if table.alive_ids.len() > max_live {
            return None;
        }
        Some(table)
    }

    /// **Visibility**: whether a micro-op at `(uop_path, uop_seq)` is
    /// visible to `path` — it is on `path` itself, or on an ancestor at
    /// or before the (lowest) fork point on the chain leading to `path`.
    ///
    /// Runs per LSQ entry per load in the core's hot loop, so it walks
    /// the ancestor chain without allocating and stops as soon as the
    /// horizon, which only falls going up, passes below `uop_seq`.
    pub fn visible(&self, uop_path: PathId, uop_seq: u64, path: PathId) -> bool {
        if uop_path == path {
            return true;
        }
        let mut cur = path;
        let mut horizon = u64::MAX;
        while let Some(parent) = self.parent(cur) {
            horizon = horizon.min(self.fork_seq(cur));
            if uop_seq > horizon {
                return false;
            }
            if parent == uop_path {
                return true;
            }
            cur = parent;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_alive() {
        let t = PathTable::new(4);
        assert!(t.is_alive(PathId::ROOT));
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.parent(PathId::ROOT), None);
        assert_eq!(t.alive_paths(), vec![PathId::ROOT]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_live_panics() {
        let _ = PathTable::new(0);
    }

    #[test]
    fn fork_respects_capacity() {
        let mut t = PathTable::new(2);
        let a = t.fork(PathId::ROOT, 5).unwrap();
        assert_eq!(t.fork(PathId::ROOT, 6), None);
        t.kill_subtree(a);
        assert!(t.fork(PathId::ROOT, 7).is_some());
    }

    #[test]
    fn fork_from_dead_parent_fails() {
        let mut t = PathTable::new(4);
        let a = t.fork(PathId::ROOT, 5).unwrap();
        t.kill_subtree(a);
        assert_eq!(t.fork(a, 9), None);
    }

    #[test]
    fn kill_subtree_is_transitive() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 1).unwrap();
        let b = t.fork(a, 2).unwrap();
        let c = t.fork(PathId::ROOT, 3).unwrap();
        let killed = t.kill_subtree(a);
        assert!(killed.contains(&a) && killed.contains(&b));
        assert!(!killed.contains(&c));
        assert!(t.is_alive(c));
        assert!(t.is_alive(PathId::ROOT));
    }

    #[test]
    fn lineage_same_path_uses_seq() {
        let t = PathTable::new(2);
        assert!(t.on_lineage(PathId::ROOT, 11, PathId::ROOT, 10));
        assert!(!t.on_lineage(PathId::ROOT, 10, PathId::ROOT, 10));
        assert!(!t.on_lineage(PathId::ROOT, 9, PathId::ROOT, 10));
    }

    #[test]
    fn lineage_excludes_fork_at_exact_seq() {
        // A branch at seq 10 forks child c. A misprediction resolution of
        // that very branch against ROOT must squash ROOT's younger uops
        // but NOT the child (which becomes the correct continuation).
        let mut t = PathTable::new(4);
        let c = t.fork(PathId::ROOT, 10).unwrap();
        assert!(!t.on_lineage(c, 12, PathId::ROOT, 10));
        // But an older misprediction (seq 5) squashes the child too.
        assert!(t.on_lineage(c, 12, PathId::ROOT, 5));
    }

    #[test]
    fn lineage_transitive_chain() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 20).unwrap();
        let b = t.fork(a, 30).unwrap();
        // b hangs off ROOT through a fork at 20.
        assert!(t.on_lineage(b, 35, PathId::ROOT, 10));
        assert!(!t.on_lineage(b, 35, PathId::ROOT, 20));
        // Relative to a, b forked at 30.
        assert!(t.on_lineage(b, 35, a, 25));
        assert!(!t.on_lineage(b, 35, a, 30));
    }

    #[test]
    fn visibility_horizons() {
        let mut t = PathTable::new(8);
        let a = t.fork(PathId::ROOT, 20).unwrap();
        let b = t.fork(a, 30).unwrap();
        // b sees: itself fully, a up to 30, root up to 20.
        assert!(t.visible(b, 999, b));
        assert!(t.visible(a, 30, b));
        assert!(!t.visible(a, 31, b));
        assert!(t.visible(PathId::ROOT, 20, b));
        assert!(!t.visible(PathId::ROOT, 21, b));
        // a does not see b at all.
        assert!(!t.visible(b, 1, a));
        // Root doesn't see children.
        assert!(!t.visible(a, 1, PathId::ROOT));
    }

    #[test]
    fn snapshot_rows_rebuild_the_child_links() {
        // Forks off several generations with retires and kills between
        // them; seqs rise as the core's fetch counter does.
        let mut t = PathTable::new(4);
        let a = t.fork(PathId::ROOT, 10).unwrap();
        let b = t.fork(a, 20).unwrap();
        let c = t.fork(PathId::ROOT, 30).unwrap();
        t.retire_path(PathId::ROOT);
        let d = t.fork(b, 40).unwrap();
        t.kill_subtree(c);
        let e = t.fork(a, 50).unwrap();
        t.retire_path(a);
        let _f = t.fork(e, 60).unwrap();
        assert_eq!(t.path_count(), 7);
        let r = PathTable::from_snapshot_rows(t.snapshot_rows().collect(), t.max_live())
            .expect("rows are consistent");
        let links = |t: &PathTable| -> Vec<(u32, u32)> {
            t.paths
                .iter()
                .map(|p| (p.first_child, p.next_sib))
                .collect()
        };
        assert_eq!(links(&r), links(&t));
        assert_eq!(r.alive_ids(), t.alive_ids());

        let ids: Vec<PathId> = (0..t.path_count() as u32).map(PathId).collect();
        let seqs = [0, 9, 10, 11, 20, 30, 40, 45, 50, 60, 61, u64::MAX];
        for &p in &ids {
            for &s in &seqs {
                for &q in &ids {
                    assert_eq!(r.visible(q, s, p), t.visible(q, s, p));
                    for &m in &seqs {
                        assert_eq!(r.on_lineage(q, s, p, m), t.on_lineage(q, s, p, m));
                    }
                }
                let (mut tk, mut rk) = (t.clone(), r.clone());
                let (mut tout, mut rout) = (Vec::new(), Vec::new());
                tk.kill_forks_after_into(p, s, &mut tout);
                rk.kill_forks_after_into(p, s, &mut rout);
                assert_eq!(rout, tout);
                assert_eq!(rk.alive_ids(), tk.alive_ids());
            }
            assert_eq!(r.clone().kill_subtree(p), t.clone().kill_subtree(p));
        }
        // The rebuilt table keeps forking where the original left off.
        let (mut tk, mut rk) = (t.clone(), r);
        assert_eq!(rk.fork(d, 70), tk.fork(d, 70));
        assert_eq!(links(&rk), links(&tk));
    }

    #[test]
    fn retire_path_keeps_descendants() {
        let mut t = PathTable::new(4);
        let a = t.fork(PathId::ROOT, 1).unwrap();
        t.retire_path(PathId::ROOT);
        assert!(!t.is_alive(PathId::ROOT));
        assert!(t.is_alive(a));
    }

    #[test]
    fn display_and_index() {
        assert_eq!(PathId::ROOT.to_string(), "path0");
        assert_eq!(PathId::ROOT.index(), 0);
    }

    #[test]
    fn hart_display_and_index() {
        assert_eq!(HartId::H0, HartId::new(0));
        assert_eq!(HartId::new(1).to_string(), "hart1");
        assert_eq!(HartId::new(1).index(), 1);
    }
}
