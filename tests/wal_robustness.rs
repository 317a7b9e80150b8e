//! Property-based robustness tests for the durability subsystem: under
//! *arbitrary* byte mutation or truncation of the WAL and checkpoint
//! files, recovery must
//!
//! * never panic (corruption is data, not a bug),
//! * land on a valid *prefix* of the logged epochs — every frame wholly
//!   before the damage replays, nothing after it leaks through,
//! * quarantine exactly the corrupted tail (byte-accounted), leaving the
//!   truncated log immediately usable.
//!
//! The fixtures build a real WAL (and optionally a checkpoint) with the
//! production writer, then vandalize the files directly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use podium::core::bucket::BucketingConfig;
use podium::core::profile::UserRepository;
use podium::data::synth::synthetic_repository;
use podium::service::recovery::{self, RecoveryReport};
use podium::service::snapshot::{ProfileUpdate, PublishMode};
use podium::service::wal::{self, FsyncPolicy, WalWriter};
use proptest::prelude::*;

const USERS: usize = 40;
const PROPERTIES: usize = 4;
const SCORES_PER_USER: usize = 2;
const REPO_SEED: u64 = 0xD1CE_2020;

fn genesis() -> UserRepository {
    synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, REPO_SEED)
}

/// A fresh scratch dir per proptest case.
fn scratch() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("podium-wal-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn update(i: usize) -> ProfileUpdate {
    ProfileUpdate {
        user: format!("user-{}", i % USERS),
        property: format!("topic-{}", i % PROPERTIES),
        score: Some(((i * 13) % 97) as f64 / 100.0),
    }
}

/// Writes `frames` single-update frames (epoch `i+1` each) into a fresh
/// WAL under `dir`; returns the raw log bytes.
fn build_wal(dir: &std::path::Path, frames: usize) -> Vec<u8> {
    let mut writer = WalWriter::open(dir, FsyncPolicy::Off, 1, 0).expect("open wal");
    for i in 0..frames {
        writer
            .append(i as u64 + 1, vec![update(i)])
            .expect("append frame");
    }
    writer.sync().expect("sync wal");
    std::fs::read(dir.join("wal.log")).expect("read wal back")
}

fn run_recovery(dir: &std::path::Path) -> RecoveryReport {
    let repo = genesis();
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let (_store, _writer, report) =
        recovery::recover(dir, repo, &buckets, PublishMode::Incremental)
            .expect("recovery is total over corrupt input");
    report
}

/// Recovers the logged state and cuts a checkpoint at seq/epoch
/// `frames`, exactly as the live service would. Panics on fixture
/// failure (this is setup, not the property under test).
fn write_fixture_checkpoint(dir: &std::path::Path, frames: usize) {
    let repo = genesis();
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let (_store, writer, report) =
        recovery::recover(dir, repo, &buckets, PublishMode::Incremental).expect("fixture recovery");
    assert_eq!(report.recovered_epoch, frames as u64, "fixture replay");
    let profiles = podium::data::json::profiles_to_json(writer.repo()).expect("profiles serialize");
    recovery::write_checkpoint(dir, frames as u64, frames as u64, &profiles)
        .expect("write checkpoint");
}

/// Frames wholly contained in the first `len` bytes of a valid log.
fn frames_before(bytes: &[u8], len: usize) -> (usize, usize) {
    let scan = wal::scan_frames(bytes);
    let mut frames = 0;
    let mut prefix = 0;
    for (i, &end) in scan.frame_ends.iter().enumerate() {
        if end <= len {
            frames = i + 1;
            prefix = end;
        }
    }
    (frames, prefix)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flip one byte anywhere in the log: every frame before the flip
    /// survives, the flipped frame and everything after is quarantined
    /// byte-for-byte, and the truncated log is exactly the valid prefix.
    #[test]
    fn byte_flip_recovers_the_prefix_and_quarantines_the_tail(
        frames in 1usize..12,
        offset_pick in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let dir = scratch();
        let clean = build_wal(&dir, frames);
        let offset = offset_pick % clean.len();
        let mut bytes = clean.clone();
        bytes[offset] ^= flip; // xor with nonzero: always a real change
        std::fs::write(dir.join("wal.log"), &bytes).expect("write mutated wal");

        let (expect_frames, expect_prefix) = frames_before(&clean, offset);
        let report = run_recovery(&dir);

        prop_assert_eq!(report.replayed_frames, expect_frames as u64);
        prop_assert_eq!(report.recovered_epoch, expect_frames as u64,
            "epoch must be the valid prefix");
        prop_assert!(report.quarantined.is_some(), "damage must be reported");
        prop_assert_eq!(
            report.quarantined_bytes,
            (clean.len() - expect_prefix) as u64,
            "quarantine exactly the corrupted tail"
        );
        let kept = std::fs::read(dir.join("wal.log")).expect("wal after recovery");
        prop_assert_eq!(&kept, &clean[..expect_prefix]);
        let quarantined = std::fs::read(dir.join("wal.quarantine")).expect("quarantine file");
        prop_assert_eq!(&quarantined, &bytes[expect_prefix..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncate the log at an arbitrary byte: frames wholly inside the
    /// cut survive; a partial frame is quarantined; a cut on a frame
    /// boundary is not damage at all.
    #[test]
    fn truncation_recovers_the_prefix(
        frames in 1usize..12,
        cut_pick in 0usize..4096,
    ) {
        let dir = scratch();
        let clean = build_wal(&dir, frames);
        let cut = cut_pick % (clean.len() + 1);
        std::fs::write(dir.join("wal.log"), &clean[..cut]).expect("truncate wal");

        let (expect_frames, expect_prefix) = frames_before(&clean, cut);
        let report = run_recovery(&dir);

        prop_assert_eq!(report.replayed_frames, expect_frames as u64);
        prop_assert_eq!(report.recovered_epoch, expect_frames as u64);
        if cut == expect_prefix {
            prop_assert!(report.quarantined.is_none(),
                "a boundary cut is a clean (shorter) log, not corruption");
        } else {
            prop_assert_eq!(report.quarantined_bytes, (cut - expect_prefix) as u64);
        }
        let kept = std::fs::read(dir.join("wal.log")).expect("wal after recovery");
        prop_assert_eq!(&kept, &clean[..expect_prefix]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Vandalize the *profiles payload* of the newest checkpoint: the CRC
    /// must reject it and recovery must still reach the full logged epoch
    /// through genesis + WAL replay (checkpoints are accelerators, never
    /// required for correctness).
    #[test]
    fn corrupt_checkpoint_payload_falls_back_to_wal_replay(
        frames in 1usize..10,
        offset_pick in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let dir = scratch();
        let _clean = build_wal(&dir, frames);
        write_fixture_checkpoint(&dir, frames);
        let ck_path = recovery::checkpoint_path(&dir, frames as u64);
        let mut ck = std::fs::read(&ck_path).expect("read checkpoint");
        // Flip inside the profiles string: any change there either breaks
        // JSON parsing or fails the CRC — both mean rejection.
        let marker = b"\"profiles\":\"";
        let start = ck
            .windows(marker.len())
            .position(|w| w == marker)
            .expect("profiles field present")
            + marker.len();
        let end = ck.len() - 2; // closing quote + brace
        let offset = start + offset_pick % (end - start);
        ck[offset] ^= flip;
        std::fs::write(&ck_path, &ck).expect("write corrupted checkpoint");

        let report = run_recovery(&dir);
        prop_assert!(report.checkpoints_rejected >= 1, "crc must catch the flip");
        prop_assert_eq!(report.recovered_epoch, frames as u64);
        prop_assert_eq!(report.replayed_frames, frames as u64,
            "rejected checkpoint means replay from genesis");
        prop_assert!(report.quarantined.is_none(), "the wal itself is intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip a byte *anywhere* in the checkpoint file — including the
    /// unchecksummed seq/epoch metadata, which the recovery code treats
    /// as tamper territory. Recovery must stay total: a Result, never a
    /// panic, whatever state the tampering steers it into.
    #[test]
    fn arbitrary_checkpoint_mutation_never_panics(
        frames in 1usize..10,
        offset_pick in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let dir = scratch();
        let _clean = build_wal(&dir, frames);
        write_fixture_checkpoint(&dir, frames);
        let ck_path = recovery::checkpoint_path(&dir, frames as u64);
        let mut ck = std::fs::read(&ck_path).expect("read checkpoint");
        let offset = offset_pick % ck.len();
        ck[offset] ^= flip;
        std::fs::write(&ck_path, &ck).expect("write corrupted checkpoint");

        let report = run_recovery(&dir);
        if report.checkpoints_rejected >= 1 {
            // Rejected: identical to the payload property above.
            prop_assert_eq!(report.recovered_epoch, frames as u64);
            prop_assert_eq!(report.replayed_frames, frames as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary garbage as the whole log: recovery never panics, never
    /// replays anything (no valid first frame means epoch 0), and
    /// accounts for every byte it quarantined.
    #[test]
    fn arbitrary_garbage_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let dir = scratch();
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("wal.log"), &garbage).expect("write garbage");
        let report = run_recovery(&dir);
        // Garbage may accidentally decode as a frame prefix only if it is
        // a checksum-valid encoding — overwhelmingly it is not; either
        // way the report must be internally consistent.
        let kept = std::fs::read(dir.join("wal.log")).expect("wal after recovery");
        prop_assert_eq!(
            kept.len() as u64 + report.quarantined_bytes,
            garbage.len() as u64,
            "every byte is either kept or quarantined"
        );
        prop_assert_eq!(report.wal_bytes, kept.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
