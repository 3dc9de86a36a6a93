//! Hostile-input properties of the snapshot codec: every malformed
//! buffer — truncated, bit-flipped, wrong magic, future version, spliced
//! — must surface as a typed [`SnapError`], never a panic and never a
//! silently wrong machine. Well-formed buffers must round-trip to the
//! byte.

use hydra_pipeline::{Core, CoreConfig, ReturnPredictor, SnapError, SNAPSHOT_VERSION};
use hydra_workloads::{Workload, WorkloadSpec};
use ras_core::RepairPolicy;

fn snapshot_bytes() -> (Vec<u8>, Workload) {
    let w = Workload::generate(&WorkloadSpec::test_small(), 4242).expect("generates");
    let mut c = CoreConfig::baseline();
    c.return_predictor = ReturnPredictor::Ras {
        entries: 16,
        repair: RepairPolicy::TosPointerAndContents,
    };
    let mut core = Core::new(c, w.program());
    core.enable_golden_check();
    core.run(1_500);
    (core.save_snapshot(), w)
}

/// FNV-1a, re-implemented independently so version-skew tests can craft
/// buffers whose trailer checksum is *valid* (isolating the version
/// check from the integrity check).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Replaces the trailer with a checksum matching the (possibly edited)
/// body, keeping the buffer integrity-valid.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let sum = fnv64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn round_trip_is_byte_stable() {
    let (bytes, w) = snapshot_bytes();
    let resumed = Core::resume(&bytes, w.program()).expect("round trip");
    assert_eq!(resumed.save_snapshot(), bytes, "re-encode is not stable");
}

#[test]
fn every_truncated_prefix_is_a_typed_error() {
    let (bytes, w) = snapshot_bytes();
    // All short prefixes (header region) plus a coarse sample of the rest.
    let cuts = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(997))
        .chain([bytes.len() - 1]);
    for cut in cuts {
        match Core::resume(&bytes[..cut], w.program()) {
            Ok(_) => panic!("prefix of {cut} bytes decoded as a full snapshot"),
            Err(
                SnapError::Truncated
                | SnapError::BadMagic
                | SnapError::Corrupt(_)
                | SnapError::TrailingBytes
                | SnapError::Version { .. },
            ) => {}
            Err(other) => panic!("non-exhaustive error {other:?}"),
        }
    }
}

#[test]
fn every_flipped_byte_is_detected() {
    let (bytes, w) = snapshot_bytes();
    // The FNV-1a trailer covers every body byte, so a flip anywhere must
    // be caught. Sample densely in the header and coarsely after.
    let positions = (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(643));
    for pos in positions {
        let mut evil = bytes.clone();
        evil[pos] ^= 0x41;
        let err = Core::resume(&evil, w.program())
            .expect_err(&format!("flip at byte {pos} went undetected"));
        // Header flips may surface as BadMagic; everything else as a
        // checksum (or deeper) Corrupt. Never a panic, never an Ok.
        assert!(
            matches!(
                err,
                SnapError::BadMagic | SnapError::Corrupt(_) | SnapError::Truncated
            ),
            "flip at {pos}: {err:?}"
        );
    }
}

#[test]
fn wrong_magic_is_rejected_as_not_a_snapshot() {
    let (mut bytes, w) = snapshot_bytes();
    bytes[0..8].copy_from_slice(b"NOTSNAPS");
    reseal(&mut bytes);
    assert_eq!(
        Core::resume(&bytes, w.program()).unwrap_err(),
        SnapError::BadMagic
    );
}

#[test]
fn future_version_is_rejected_by_number() {
    let (mut bytes, w) = snapshot_bytes();
    let future = SNAPSHOT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        Core::resume(&bytes, w.program()).unwrap_err(),
        SnapError::Version { found: future }
    );
    let msg = SnapError::Version { found: future }.to_string();
    assert!(
        msg.contains(&future.to_string()) && msg.contains(&SNAPSHOT_VERSION.to_string()),
        "version error must name both versions: {msg}"
    );
}

#[test]
fn spliced_trailing_bytes_are_rejected() {
    let (mut bytes, w) = snapshot_bytes();
    let trailer_at = bytes.len() - 8;
    bytes.splice(trailer_at..trailer_at, [0u8; 16]);
    reseal(&mut bytes);
    let err = Core::resume(&bytes, w.program()).unwrap_err();
    assert!(
        matches!(err, SnapError::TrailingBytes | SnapError::Corrupt(_)),
        "got {err:?}"
    );
}

/// Byte offset of the body of the core snapshot section tagged `tag`:
/// sections follow the 13-byte header as `tag: u32, len: u64, body`.
fn section_body(bytes: &[u8], tag: u32) -> usize {
    let mut at = 13;
    loop {
        let here = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        if here == tag {
            return at + 12;
        }
        at += 12 + len as usize;
    }
}

#[test]
fn hostile_in_flight_checkpoint_count_is_rejected() {
    // A BTB-only machine has an unlimited checkpoint budget; its RAS
    // section is the mode byte, then the in-flight checkpoint count.
    let w = Workload::generate(&WorkloadSpec::test_small(), 4242).expect("generates");
    let config = CoreConfig::with_return_predictor(ReturnPredictor::BtbOnly);
    let mut core = Core::new(config, w.program());
    core.run(500);
    let mut bytes = core.save_snapshot();
    let at = section_body(&bytes, 0x50) + 1;
    assert_eq!(bytes[at..at + 8], [0; 8], "no checkpoint in flight");
    bytes[at..at + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
    reseal(&mut bytes);
    let err = Core::resume(&bytes, w.program()).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
}

#[test]
fn hostile_fetch_rotor_is_rejected() {
    // The machine section starts with the hart byte and four u64
    // counters; the fetch rotor follows.
    let (mut bytes, w) = snapshot_bytes();
    let at = section_body(&bytes, 0x60) + 1 + 32;
    assert_eq!(bytes[at..at + 8], [0; 8], "a single-path rotor is 0");
    bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bytes);
    let err = Core::resume(&bytes, w.program()).unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
}

#[test]
fn empty_and_garbage_buffers_never_panic() {
    let w = Workload::generate(&WorkloadSpec::test_small(), 1).expect("generates");
    assert!(Core::resume(&[], w.program()).is_err());
    assert!(Core::resume(&[0x00; 20], w.program()).is_err());
    assert!(Core::resume(b"HYDRSNAP", w.program()).is_err());
    // Valid header, hostile length prefixes after it.
    let mut evil = Vec::new();
    evil.extend_from_slice(b"HYDRSNAP");
    evil.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    evil.push(1); // KIND_CORE
    evil.extend_from_slice(&0x10u32.to_le_bytes()); // TAG_CONFIG
    evil.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd section length
    evil.extend_from_slice(&[0u8; 8]); // placeholder trailer
    reseal(&mut evil);
    assert!(Core::resume(&evil, w.program()).is_err());
}

/// Mid-flight snapshot bytes of seven machines, pinned as FNV-64 hashes
/// recorded before the codec was rewritten around one `Snap` trait: any
/// change to the encoder, however small, moves a hash. Each machine is
/// stopped with micro-ops, checkpoint handles and (where configured)
/// forked paths in flight, so every section and every handle kind is
/// covered.
#[test]
fn snapshot_bytes_are_pinned() {
    use hydra_pipeline::{RasSharing, System};
    use ras_core::MultipathStackPolicy;

    let w = Workload::generate(&WorkloadSpec::test_small(), 4242).expect("generates");
    let ras16 = ReturnPredictor::Ras {
        entries: 16,
        repair: RepairPolicy::TosPointerAndContents,
    };
    let core_hash = |config: CoreConfig, golden: bool| {
        let mut core = Core::new(config, w.program());
        if golden {
            core.enable_golden_check();
        }
        let stats = core.run(1_500);
        assert!(config.multipath.is_none() || stats.forks > 0, "no fork");
        fnv64(&core.save_snapshot())
    };
    let with_rp = |rp: ReturnPredictor| {
        let mut c = CoreConfig::baseline();
        c.return_predictor = rp;
        c
    };
    let mut got = vec![
        core_hash(with_rp(ras16), true),
        core_hash(
            CoreConfig::multipath(4, MultipathStackPolicy::PerPath),
            false,
        ),
        core_hash(
            CoreConfig::multipath(
                4,
                MultipathStackPolicy::Unified {
                    repair: RepairPolicy::TosPointerAndContents,
                },
            ),
            false,
        ),
        core_hash(
            with_rp(ReturnPredictor::SelfCheckpointing { entries: 16 }),
            false,
        ),
        core_hash(with_rp(ReturnPredictor::Perfect), false),
        core_hash(with_rp(ReturnPredictor::BtbOnly), false),
    ];
    let w1 = Workload::generate(&WorkloadSpec::test_small(), 4243).expect("generates");
    let mut smt = CoreConfig::smt(2, RasSharing::Shared);
    smt.return_predictor = ras16;
    let mut sys = System::new(1, smt, &[w.program(), w1.program()]);
    for _ in 0..1_000 {
        sys.step_cycle();
    }
    got.push(fnv64(&sys.save_snapshot()));
    assert_eq!(
        got,
        [
            12_738_429_373_422_141_459,
            10_320_699_864_995_903_904,
            12_668_699_717_652_933_823,
            3_435_671_608_342_216_440,
            6_665_840_393_333_036_146,
            18_220_206_050_488_739_857,
            1_882_015_800_287_831_591,
        ],
        "snapshot bytes moved: baseline+golden, per-path, unified, \
         self-checkpointing, perfect, BTB-only, 2-hart system"
    );
}
