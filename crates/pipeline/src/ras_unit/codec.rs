//! The RAS unit's snapshot codec.
//!
//! The unit's *structure* (mode, per-path vs. unified, hart keying, budget
//! capacity) is deterministic from the CoreConfig, so only *state* is
//! serialized: stack contents, in-flight budget count, statistics and
//! forensics. The allocation pools are caches and restore empty. HashMaps
//! are written sorted by key so identical states always produce identical
//! bytes — the property the byte-identity differential tier rests on.

use super::{CkptHandle, Handle, Mode, RasUnit, RasUnitStats};
use crate::config::CoreConfig;
use crate::path::PathId;
use crate::snapshot::{
    decode_sorted_map, encode_sorted_map, snap_enum, snap_struct, test_faults, Snap, SnapError,
    SnapReader, SnapWriter,
};
use hydra_obs::{CauseHistogram, MispredictCause};
use ras_core::{
    Entry, LinkCheckpoint, LinkEntry, RasCheckpoint, RasStats, RepairPolicy, ReturnAddressStack,
    SavedContents, SelfCheckpointingStack,
};

snap_struct!(RasStats {
    pushes: u64,
    pops: u64,
    overflows: u64,
    underflows: u64,
    checkpoints: u64,
    restores: u64,
});

snap_struct!(Entry {
    addr: u64,
    seq: u64,
    valid: bool,
});

snap_struct!(LinkEntry {
    addr: u64,
    below: usize,
    seq: u64,
});

snap_struct!(RasUnitStats {
    pushes: u64,
    pops: u64,
    overflows: u64,
    underflows: u64,
    restores: u64,
    budget_misses: u64,
});

snap_enum!(RepairPolicy, "unknown repair policy" {
    0 => None,
    1 => ValidBits,
    2 => TosPointer,
    3 => TosPointerAndContents,
    4 => TopContents { k: usize },
    5 => FullStack,
});

snap_enum!(SavedContents, "unknown saved-contents kind" {
    0 => None,
    1 => TopOne(idx: usize, entry: Entry),
    2 => Top(items: Vec<(usize, Entry)>),
    3 => Full(entries: Vec<Entry>),
});

/// Classified return mispredictions, in [`MispredictCause::ALL`] order.
impl Snap for CauseHistogram {
    const MIN_BYTES: usize = 8 * MispredictCause::COUNT;
    fn encode(&self, w: &mut SnapWriter) {
        for cause in MispredictCause::ALL {
            w.u64(self.get(cause));
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut h = CauseHistogram::default();
        for cause in MispredictCause::ALL {
            h.record_many(cause, r.u64()?);
        }
        Ok(h)
    }
}

/// The raw parts both stack kinds snapshot to: entries, two pointers
/// (TOS and depth, or TOS and allocation), the next sequence number and
/// the counters.
type StackParts<'a, E> = (&'a [E], usize, usize, u64, RasStats);

fn encode_stack<E: Snap>(w: &mut SnapWriter, (entries, a, b, next_seq, stats): StackParts<'_, E>) {
    w.seq(entries);
    w.usize(a);
    w.usize(b);
    w.u64(next_seq);
    stats.encode(w);
}

/// Decodes a stack of exactly `capacity` entries through `build` (the
/// stack kind's `from_snapshot_parts`), which rejects inconsistent
/// pointers as `Corrupt(inconsistent)`.
fn decode_stack<E: Snap, S>(
    r: &mut SnapReader,
    capacity: usize,
    (mismatch, inconsistent): (&'static str, &'static str),
    build: impl FnOnce(Vec<E>, usize, usize, u64, RasStats) -> Option<S>,
) -> Result<S, SnapError> {
    let n = r.seq_len(E::MIN_BYTES)?;
    if n != capacity {
        return Err(SnapError::Corrupt(mismatch));
    }
    let entries = r.items(n)?;
    build(
        entries,
        r.usize()?,
        r.usize()?,
        r.u64()?,
        RasStats::decode(r)?,
    )
    .ok_or(SnapError::Corrupt(inconsistent))
}

/// Per-stack error messages for [`decode_stack`].
const REAL_STACK: (&str, &str) = ("RAS capacity mismatch", "inconsistent RAS state");
const LINK_STACK: (&str, &str) = (
    "self-checkpointing capacity mismatch",
    "inconsistent self-checkpointing state",
);
const UNSORTED_STACKS: &str = "stack keys not sorted";

impl RasUnit {
    fn mode_tag(&self) -> u8 {
        match self.mode {
            Mode::Off => 0,
            Mode::Oracle(_) => 1,
            Mode::Real { .. } => 2,
            Mode::Jourdan(_) => 3,
        }
    }

    /// Serializes the unit's state (not its config-derived structure).
    pub(crate) fn encode_state(&self, w: &mut SnapWriter) {
        w.u8(self.mode_tag());
        match &self.mode {
            Mode::Off => {}
            Mode::Oracle(t) => encode_sorted_map(w, &t.stacks, |w, s| w.seq(s)),
            Mode::Real { table, .. } => {
                encode_sorted_map(w, &table.stacks, |w, s| encode_stack(w, s.snapshot_parts()))
            }
            Mode::Jourdan(t) => {
                encode_sorted_map(w, &t.stacks, |w, s| encode_stack(w, s.snapshot_parts()))
            }
        }
        w.usize(self.budget.in_flight());
        self.stats.encode(w);
        self.last_accessor.encode(w);
        encode_sorted_map(w, &self.lost_frames, |w, &v| w.u64(v));
        w.u8(self.last_pop_flags);
        w.seq(&self.causes);
    }

    /// Rebuilds a unit from `config` (structure) plus encoded state.
    pub(crate) fn decode_state(
        r: &mut SnapReader,
        config: &CoreConfig,
    ) -> Result<RasUnit, SnapError> {
        let mut unit = RasUnit::new(config);
        if r.u8()? != unit.mode_tag() {
            return Err(SnapError::Corrupt("RAS mode does not match config"));
        }
        // Every stack encoding starts with an 8-byte count.
        match &mut unit.mode {
            Mode::Off => {}
            Mode::Oracle(t) => {
                t.stacks = decode_sorted_map(r, 8, UNSORTED_STACKS, |r| r.seq())?;
            }
            Mode::Real { table, .. } => {
                let cap = table.capacity;
                table.stacks = decode_sorted_map(r, 8, UNSORTED_STACKS, |r| {
                    decode_stack(r, cap, REAL_STACK, ReturnAddressStack::from_snapshot_parts)
                })?;
            }
            Mode::Jourdan(t) => {
                let cap = t.capacity;
                t.stacks = decode_sorted_map(r, 8, UNSORTED_STACKS, |r| {
                    decode_stack(
                        r,
                        cap,
                        LINK_STACK,
                        SelfCheckpointingStack::from_snapshot_parts,
                    )
                })?;
            }
        }
        // Each in-flight micro-op holds at most one checkpoint, so a
        // larger count is corrupt (and would replay for ~forever).
        let in_flight = r.usize()?;
        let in_flight_cap = config.harts as usize * (config.fetch_queue + config.ruu_size);
        if in_flight > in_flight_cap {
            return Err(SnapError::Corrupt(
                "in-flight checkpoint count out of range",
            ));
        }
        for _ in 0..in_flight {
            if !unit.budget.try_acquire() {
                return Err(SnapError::Corrupt("checkpoint budget overflow"));
            }
        }
        unit.stats = Snap::decode(r)?;
        unit.last_accessor = Snap::decode(r)?;
        unit.lost_frames = decode_sorted_map(r, 8, "lost-frame keys not sorted", |r| r.u64())?;
        unit.last_pop_flags = r.u8()?;
        let n = r.seq_len(CauseHistogram::MIN_BYTES)?;
        if n != unit.causes.len() {
            return Err(SnapError::Corrupt("cause histogram count mismatch"));
        }
        unit.causes = r.items(n)?;
        Ok(unit)
    }

    /// Serializes a micro-op's optional checkpoint handle.
    pub(crate) fn encode_ckpt(w: &mut SnapWriter, ckpt: Option<&CkptHandle>) {
        w.bool(ckpt.is_some());
        let Some(CkptHandle(handle)) = ckpt else {
            return;
        };
        match handle {
            Handle::Real { path, ckpt } => {
                w.u8(0);
                path.encode(w);
                let (policy, tos, depth, seq_horizon, saved) = ckpt.snapshot_parts();
                policy.encode(w);
                w.usize(tos);
                w.usize(depth);
                w.u64(seq_horizon);
                saved.encode(w);
            }
            Handle::Oracle { path, stack } => {
                w.u8(1);
                path.encode(w);
                w.seq(stack);
            }
            Handle::Jourdan { path, ckpt } => {
                w.u8(2);
                path.encode(w);
                let (tos, tos_seq) = ckpt.snapshot_parts();
                w.usize(tos);
                w.u64(tos_seq);
            }
        }
    }

    /// Decodes an optional checkpoint handle, validating its kind and
    /// geometry against this unit's mode so a later restore cannot
    /// misroute or index out of bounds.
    pub(crate) fn decode_ckpt(&self, r: &mut SnapReader) -> Result<Option<CkptHandle>, SnapError> {
        if !r.bool()? {
            return Ok(None);
        }
        let kind = r.u8()?;
        let path = PathId::decode(r)?;
        let handle = match (&self.mode, kind) {
            (Mode::Real { table, .. }, 0) => Handle::Real {
                path,
                ckpt: RasCheckpoint::from_snapshot_parts(
                    RepairPolicy::decode(r)?,
                    r.usize()?,
                    r.usize()?,
                    r.u64()?,
                    SavedContents::decode(r)?,
                    table.capacity,
                )
                .ok_or(SnapError::Corrupt("inconsistent RAS checkpoint"))?,
            },
            (Mode::Oracle(_), 1) => Handle::Oracle {
                path,
                stack: r.seq()?,
            },
            (Mode::Jourdan(t), 2) => Handle::Jourdan {
                path,
                ckpt: LinkCheckpoint::from_snapshot_parts(r.usize()?, r.u64()?, t.capacity)
                    .ok_or(SnapError::Corrupt("inconsistent link checkpoint"))?,
            },
            _ => {
                return Err(SnapError::Corrupt(
                    "checkpoint kind does not match RAS mode",
                ))
            }
        };
        if test_faults::skip_ras_restore() {
            return Ok(None); // injected restore bug for the differential fuzz tier
        }
        Ok(Some(CkptHandle(handle)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RasSharing, ReturnPredictor};
    use crate::path::{HartId, PathTable};
    use crate::snapshot::{assert_round_trip, assert_snap_round_trip};
    use ras_core::MultipathStackPolicy;

    const REPAIRS: [RepairPolicy; 6] = [
        RepairPolicy::None,
        RepairPolicy::ValidBits,
        RepairPolicy::TosPointer,
        RepairPolicy::TosPointerAndContents,
        RepairPolicy::TopContents { k: 2 },
        RepairPolicy::FullStack,
    ];

    /// A unit under `config` after a fixed mix of pushes, pops, forks,
    /// kills and checkpoints (some released), with the live checkpoints.
    fn exercised(config: &CoreConfig) -> (RasUnit, Vec<CkptHandle>) {
        let mut unit = RasUnit::new(config);
        let mut paths = PathTable::new(config.multipath.map_or(1, |m| m.max_paths));
        let harts = config.harts;
        let mut live = vec![PathId::ROOT];
        let mut ckpts = Vec::new();
        for i in 0..60u64 {
            let hart = HartId::new((i % u64::from(harts)) as u8);
            let path = live[i as usize % live.len()];
            match i % 7 {
                0 | 1 | 4 => drop(unit.push(hart, path, 0x100 + i)),
                2 | 5 => drop(unit.pop(hart, path)),
                3 => {
                    if let Some(c) = unit.checkpoint(hart, path) {
                        ckpts.push(c);
                    }
                }
                _ => {
                    if let Some(child) = paths.fork(path, i) {
                        unit.on_fork(path, child);
                        live.push(child);
                    } else if live.len() > 1 {
                        let dead = live.remove(1);
                        unit.on_path_death(dead);
                    }
                }
            }
            if i % 11 == 10 {
                if let Some(c) = ckpts.pop() {
                    unit.release(c);
                }
            }
        }
        (unit, ckpts)
    }

    fn configs() -> Vec<CoreConfig> {
        let with_rp = |rp| {
            let mut c = CoreConfig::baseline();
            c.return_predictor = rp;
            c
        };
        let mut out: Vec<CoreConfig> = REPAIRS
            .into_iter()
            .map(|repair| with_rp(ReturnPredictor::Ras { entries: 4, repair }))
            .collect();
        out.push(with_rp(ReturnPredictor::SelfCheckpointing { entries: 4 }));
        out.push(with_rp(ReturnPredictor::Perfect));
        out.push(with_rp(ReturnPredictor::BtbOnly));
        out.push(CoreConfig::multipath(4, MultipathStackPolicy::PerPath));
        out.push(CoreConfig::multipath(
            4,
            MultipathStackPolicy::Unified {
                repair: RepairPolicy::TosPointerAndContents,
            },
        ));
        out.push(CoreConfig::smt(2, RasSharing::Partitioned));
        out
    }

    #[test]
    fn unit_state_and_handles_round_trip() {
        for config in configs() {
            let (unit, ckpts) = exercised(&config);
            assert_round_trip(
                &unit,
                |w, u| u.encode_state(w),
                |r| RasUnit::decode_state(r, &config),
            );
            assert_snap_round_trip(&unit.stats);
            assert_snap_round_trip(&unit.causes);
            for c in &ckpts {
                assert_round_trip(
                    &Some(c.clone()),
                    |w, c| RasUnit::encode_ckpt(w, c.as_ref()),
                    |r| unit.decode_ckpt(r),
                );
                if let Handle::Real { ckpt, .. } = &c.0 {
                    let (policy, .., saved) = ckpt.snapshot_parts();
                    assert_snap_round_trip(&policy);
                    assert_snap_round_trip(saved);
                }
            }
            match &unit.mode {
                Mode::Real { table, .. } => {
                    for s in table.stacks.values() {
                        let (entries, .., stats) = s.snapshot_parts();
                        assert_snap_round_trip(&stats);
                        entries.iter().for_each(assert_snap_round_trip);
                        assert_round_trip(
                            s,
                            |w, s| encode_stack(w, s.snapshot_parts()),
                            |r| {
                                decode_stack(
                                    r,
                                    table.capacity,
                                    REAL_STACK,
                                    ReturnAddressStack::from_snapshot_parts,
                                )
                            },
                        );
                    }
                }
                Mode::Jourdan(t) => {
                    for s in t.stacks.values() {
                        s.snapshot_parts().0.iter().for_each(assert_snap_round_trip);
                        assert_round_trip(
                            s,
                            |w, s| encode_stack(w, s.snapshot_parts()),
                            |r| {
                                decode_stack(
                                    r,
                                    t.capacity,
                                    LINK_STACK,
                                    SelfCheckpointingStack::from_snapshot_parts,
                                )
                            },
                        );
                    }
                }
                Mode::Off | Mode::Oracle(_) => {}
            }
        }
    }

    #[test]
    fn every_saved_contents_kind_is_exercised() {
        let kinds: Vec<u8> = configs()
            .iter()
            .flat_map(|c| exercised(c).1)
            .filter_map(|c| match c.0 {
                Handle::Real { ckpt, .. } => Some(match ckpt.snapshot_parts().4 {
                    SavedContents::None => 0,
                    SavedContents::TopOne(..) => 1,
                    SavedContents::Top(_) => 2,
                    SavedContents::Full(_) => 3,
                }),
                _ => None,
            })
            .collect();
        for kind in 0..4 {
            assert!(kinds.contains(&kind), "no checkpoint saved kind {kind}");
        }
    }

    #[test]
    fn a_handle_of_the_wrong_kind_is_corrupt() {
        let (oracle, ckpts) = exercised(&{
            let mut c = CoreConfig::baseline();
            c.return_predictor = ReturnPredictor::Perfect;
            c
        });
        let real = RasUnit::new(&CoreConfig::baseline());
        let mut w = crate::snapshot::SnapWriter::new(crate::snapshot::KIND_CORE);
        RasUnit::encode_ckpt(&mut w, ckpts.first());
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            real.decode_ckpt(&mut r).unwrap_err(),
            SnapError::Corrupt("checkpoint kind does not match RAS mode")
        );
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        assert!(oracle.decode_ckpt(&mut r).unwrap().is_some());
    }
}
