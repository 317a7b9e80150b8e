//! Startup recovery: newest valid checkpoint + WAL suffix replay.
//!
//! A `--data-dir` holds three kinds of files:
//!
//! * `wal.log` — the frame log ([`crate::wal`]), append-only within a run;
//! * `checkpoint-<seq>.json` — periodic full serializations of the
//!   repository plus the epoch and WAL sequence they are current through,
//!   written to a tmp file, fsynced, and atomically renamed into place
//!   (the two newest generations are kept);
//! * `wal.quarantine` — torn or semantically invalid tails recovery
//!   truncated off the log, preserved for inspection instead of deleted.
//!
//! [`recover`] rebuilds serving state in four steps: load the newest
//! checkpoint whose checksum and payload verify (falling back to the
//! older generation, then to the caller's genesis repository); jump the
//! writer to the checkpoint epoch; replay every WAL frame past the
//! checkpoint's sequence through the ordinary apply/publish path, so
//! recovered epochs are built by exactly the code that built them live;
//! and quarantine + truncate whatever tail cannot be replayed. Corruption
//! anywhere — flipped bits, truncation, garbage appends, checkpoint
//! tampering — degrades to an earlier durable state; it never panics and
//! never half-applies a frame (each frame is validated in full before the
//! first update of it is applied).
//!
//! Checkpoints are accelerators, not authorities: the WAL keeps its full
//! history within a data directory's lifetime, so even with every
//! checkpoint rejected the genesis + full-replay path reaches the same
//! state. The log's unbounded growth between runs is a known cost,
//! carried in ROADMAP.md (segment retirement needs a compaction story).

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use podium_core::bucket::PropertyBuckets;
use podium_core::profile::UserRepository;
use serde_json::Value;

use crate::error::ServiceError;
use crate::protocol::{num_u64, string};
use crate::snapshot::{PublishMode, RepositoryWriter, SnapshotStore};
use crate::wal::{frame_checksum, scan_frames, WalFrame, QUARANTINE_FILE, WAL_FILE};

pub use crate::wal::FsyncPolicy;

/// How many checkpoint generations survive pruning.
pub const CHECKPOINT_GENERATIONS: usize = 2;

/// Default `--checkpoint-every`: frames between checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

/// Durable-mode configuration, assembled from `--data-dir`, `--fsync`,
/// and `--checkpoint-every`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Directory holding the WAL, checkpoints, and quarantine file.
    pub data_dir: PathBuf,
    /// When appended frames reach stable storage.
    pub fsync: FsyncPolicy,
    /// Frames between checkpoints; `0` disables periodic checkpoints
    /// (the WAL alone carries recovery).
    pub checkpoint_every: u64,
}

impl DurabilityOptions {
    /// Options with the default policy (`always`) and checkpoint cadence.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// What [`recover`] found and did — surfaced through the `stats` op and
/// the boot-time summary line.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL sequence the loaded checkpoint was current through (0 = none).
    pub checkpoint_seq: u64,
    /// Epoch the loaded checkpoint restored (0 = genesis).
    pub checkpoint_epoch: u64,
    /// Checkpoint files that failed checksum or payload validation.
    pub checkpoints_rejected: u64,
    /// WAL frames replayed past the checkpoint.
    pub replayed_frames: u64,
    /// Profile updates inside those frames.
    pub replayed_updates: u64,
    /// The epoch serving resumes at.
    pub recovered_epoch: u64,
    /// Valid WAL bytes after truncation.
    pub wal_bytes: u64,
    /// The sequence number the next appended frame will carry.
    pub next_seq: u64,
    /// Bytes moved to `wal.quarantine` this recovery.
    pub quarantined_bytes: u64,
    /// Why the tail was quarantined, when one was.
    pub quarantined: Option<String>,
}

fn durability_err(context: &str, path: &Path, e: impl std::fmt::Display) -> ServiceError {
    ServiceError::Durability(format!("{context} {}: {e}", path.display()))
}

/// The checkpoint file name for a WAL sequence.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq}.json"))
}

/// Serializes and durably writes a checkpoint: tmp file, fsync, atomic
/// rename, best-effort directory fsync, then prune to
/// [`CHECKPOINT_GENERATIONS`]. `profiles_json` is the repository as
/// serialized by `podium_data::json::profiles_to_json`.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    epoch: u64,
    profiles_json: &str,
) -> Result<(), ServiceError> {
    let object = Value::Object(vec![
        ("seq".to_owned(), num_u64(seq)),
        ("epoch".to_owned(), num_u64(epoch)),
        (
            "crc".to_owned(),
            num_u64(frame_checksum(profiles_json.as_bytes())),
        ),
        ("profiles".to_owned(), string(profiles_json)),
    ]);
    // podium-lint: allow(expect) — Value trees of strings/numbers always serialize
    let text = serde_json::to_string(&object).expect("checkpoint serialization is infallible");
    let final_path = checkpoint_path(dir, seq);
    let tmp_path = dir.join(format!("checkpoint-{seq}.json.tmp"));
    {
        let mut tmp =
            File::create(&tmp_path).map_err(|e| durability_err("create", &tmp_path, e))?;
        tmp.write_all(text.as_bytes())
            .map_err(|e| durability_err("write", &tmp_path, e))?;
        tmp.sync_data()
            .map_err(|e| durability_err("fsync", &tmp_path, e))?;
    }
    fs::rename(&tmp_path, &final_path).map_err(|e| durability_err("rename", &tmp_path, e))?;
    // Make the rename itself durable where the platform allows opening a
    // directory. Opening the directory is best-effort (not every
    // platform supports it), but once it opens, a failed fsync is a real
    // durability gap — the caller counts it in `checkpoint_failures` and
    // surfaces it through stats, like every other checkpoint error.
    if let Ok(d) = File::open(dir) {
        d.sync_all()
            .map_err(|e| durability_err("fsync-dir", dir, e))?;
    }
    prune_checkpoints(dir);
    Ok(())
}

/// Deletes all but the newest [`CHECKPOINT_GENERATIONS`] checkpoints and
/// any leftover tmp files. Best-effort: pruning failures cost disk, not
/// correctness.
fn prune_checkpoints(dir: &Path) {
    let mut seqs = list_checkpoint_seqs(dir);
    for stale in seqs.split_off(seqs.len().min(CHECKPOINT_GENERATIONS)) {
        // podium-lint: allow(discarded-result) — best-effort pruning: a leftover stale checkpoint costs disk, never correctness
        let _ = fs::remove_file(checkpoint_path(dir, stale));
    }
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("checkpoint-") && name.ends_with(".json.tmp") {
                // podium-lint: allow(discarded-result) — best-effort pruning: a leftover tmp file costs disk, never correctness
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Checkpoint sequences present in `dir`, newest first.
pub fn list_checkpoint_seqs(dir: &Path) -> Vec<u64> {
    let mut seqs = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(middle) = name
                .strip_prefix("checkpoint-")
                .and_then(|r| r.strip_suffix(".json"))
            else {
                continue;
            };
            if let Ok(seq) = middle.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    seqs
}

/// A checkpoint that passed checksum and payload validation.
struct LoadedCheckpoint {
    seq: u64,
    epoch: u64,
    repo: UserRepository,
}

/// Parses and validates one checkpoint file; any violation is a message,
/// never a panic.
fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("not json: {e}"))?;
    let seq = value
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or("missing 'seq'")?;
    let epoch = value
        .get("epoch")
        .and_then(Value::as_u64)
        .ok_or("missing 'epoch'")?;
    let crc = value
        .get("crc")
        .and_then(Value::as_u64)
        .ok_or("missing 'crc'")?;
    let profiles = value
        .get("profiles")
        .and_then(Value::as_str)
        .ok_or("missing 'profiles'")?;
    let actual = frame_checksum(profiles.as_bytes());
    if actual != crc {
        return Err(format!(
            "checksum mismatch (stored {crc:#x}, computed {actual:#x})"
        ));
    }
    let repo = podium_data::json::profiles_from_json(profiles)
        .map_err(|e| format!("profiles payload rejected: {e}"))?;
    Ok(LoadedCheckpoint { seq, epoch, repo })
}

/// Validates one WAL frame against the writer's current state without
/// applying anything: every property must exist, scores must be
/// normalized, and a retraction must name a user that exists (or is
/// created earlier in the same frame). A violation means the frame was
/// durably written against a *different* state — corruption — and the
/// tail starting at this frame is quarantined.
fn validate_frame(writer: &RepositoryWriter, frame: &WalFrame) -> Result<(), String> {
    let mut fresh: HashSet<&str> = HashSet::new();
    for (i, u) in frame.updates.iter().enumerate() {
        if writer.repo().property_id(&u.property).is_none() {
            return Err(format!(
                "frame {} update {i}: unknown property '{}'",
                frame.seq, u.property
            ));
        }
        match u.score {
            Some(s) if !s.is_finite() || !(0.0..=1.0).contains(&s) => {
                return Err(format!(
                    "frame {} update {i}: score {s} outside [0, 1]",
                    frame.seq
                ));
            }
            Some(_) => {
                fresh.insert(u.user.as_str());
            }
            None => {
                if writer.repo().user_by_name(&u.user).is_none() && !fresh.contains(u.user.as_str())
                {
                    return Err(format!(
                        "frame {} update {i}: retraction for unknown user '{}'",
                        frame.seq, u.user
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Appends `tail` to `wal.quarantine` and truncates `wal.log` to
/// `keep_len`, recording both in the report.
fn quarantine_tail(
    dir: &Path,
    wal_bytes: &[u8],
    keep_len: usize,
    reason: String,
    report: &mut RecoveryReport,
) -> Result<(), ServiceError> {
    let tail = wal_bytes.get(keep_len..).unwrap_or_default();
    if !tail.is_empty() {
        let qpath = dir.join(QUARANTINE_FILE);
        let mut q = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&qpath)
            .map_err(|e| durability_err("open", &qpath, e))?;
        q.write_all(tail)
            .map_err(|e| durability_err("write", &qpath, e))?;
        q.sync_data()
            .map_err(|e| durability_err("fsync", &qpath, e))?;
        let wpath = dir.join(WAL_FILE);
        let wal = OpenOptions::new()
            .write(true)
            .open(&wpath)
            .map_err(|e| durability_err("open", &wpath, e))?;
        wal.set_len(u64::try_from(keep_len).unwrap_or(u64::MAX))
            .map_err(|e| durability_err("truncate", &wpath, e))?;
        wal.sync_data()
            .map_err(|e| durability_err("fsync", &wpath, e))?;
    }
    report.quarantined_bytes = u64::try_from(tail.len()).unwrap_or(u64::MAX);
    report.quarantined = Some(reason);
    Ok(())
}

/// Rebuilds serving state from `dir` (see module docs). `genesis` is the
/// repository as loaded from `--profiles` — the state before any durable
/// update; `buckets`/`mode` are the same fit the live service uses, so
/// replayed epochs are built by the identical publish path.
pub fn recover(
    dir: &Path,
    genesis: UserRepository,
    buckets: &PropertyBuckets,
    mode: PublishMode,
) -> Result<(Arc<SnapshotStore>, RepositoryWriter, RecoveryReport), ServiceError> {
    fs::create_dir_all(dir).map_err(|e| durability_err("create data dir", dir, e))?;
    let mut report = RecoveryReport::default();

    // Newest checkpoint that verifies, else older, else genesis.
    let mut loaded: Option<LoadedCheckpoint> = None;
    for seq in list_checkpoint_seqs(dir) {
        match load_checkpoint(&checkpoint_path(dir, seq)) {
            Ok(ck) => {
                loaded = Some(ck);
                break;
            }
            Err(_) => report.checkpoints_rejected += 1,
        }
    }
    // The checkpoint's JSON interns labels in file order, but `buckets`
    // is indexed by genesis's property ids: reload under those ids.
    let (base_repo, ck_seq, ck_epoch) = match loaded {
        Some(ck) => (ck.repo.reindexed_like(&genesis), ck.seq, ck.epoch),
        None => (genesis, 0, 0),
    };
    report.checkpoint_seq = ck_seq;
    report.checkpoint_epoch = ck_epoch;

    let (store, mut writer) = RepositoryWriter::with_mode(base_repo, buckets, mode);
    writer.resume_at_epoch(ck_epoch);

    // Replay the WAL suffix.
    let wal_path = dir.join(WAL_FILE);
    let wal_bytes = match fs::read(&wal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(durability_err("read", &wal_path, e)),
    };
    let scan = scan_frames(&wal_bytes);
    let mut keep_len = scan.valid_len;
    let mut torn = scan.torn;
    // `last_seq` is the replay cursor: it starts at the checkpoint's
    // coverage and advances only over replayed frames. `kept_last_seq` is
    // the sequence of the last frame that *survives in the kept file
    // prefix* — when corruption truncates the log below the checkpoint's
    // coverage the two diverge, and the rotation below keys off the
    // latter (the cursor alone can never fall behind the checkpoint).
    let mut last_seq = ck_seq;
    let mut kept_last_seq = 0u64;
    for (i, frame) in scan.frames.iter().enumerate() {
        if frame.seq <= ck_seq {
            kept_last_seq = frame.seq;
            continue;
        }
        let frame_start = i
            .checked_sub(1)
            .and_then(|p| scan.frame_ends.get(p).copied())
            .unwrap_or(0);
        if frame.seq != last_seq + 1 {
            // The log starts past the checkpoint's coverage: replaying
            // would skip durable updates. Only reachable via tampering.
            keep_len = frame_start;
            torn = Some(format!(
                "frame {} leaves a gap after checkpoint seq {ck_seq}",
                frame.seq
            ));
            break;
        }
        if let Err(reason) = validate_frame(&writer, frame) {
            keep_len = frame_start;
            torn = Some(reason);
            break;
        }
        if !writer.align_next_epoch(frame.epoch) {
            keep_len = frame_start;
            torn = Some(format!(
                "frame {} epoch {} not ahead of recovered epoch {}",
                frame.seq,
                frame.epoch,
                writer.epoch()
            ));
            break;
        }
        for update in &frame.updates {
            // Validated above against the exact state it applies to.
            writer.apply(update).map_err(|e| {
                ServiceError::Durability(format!(
                    "replay of validated frame {} failed: {e}",
                    frame.seq
                ))
            })?;
        }
        writer.publish();
        report.replayed_frames += 1;
        report.replayed_updates += u64::try_from(frame.updates.len()).unwrap_or(u64::MAX);
        last_seq = frame.seq;
        kept_last_seq = frame.seq;
    }
    // Frames accepted by the byte scan but rejected semantically shrink
    // the kept prefix below the scan's.
    if let Some(reason) = torn.clone() {
        quarantine_tail(dir, &wal_bytes, keep_len, reason, &mut report)?;
    }
    // A log whose surviving frames all predate the checkpoint cannot be
    // appended to contiguously: the writer would resume at the
    // checkpoint's sequence and the resulting internal gap would make the
    // *next* restart's scan quarantine every acknowledged frame appended
    // after it. Rotate the survivors into quarantine instead, so the file
    // restarts empty at the checkpoint's sequence (the scanner lets the
    // first frame of a file fix the starting sequence).
    if kept_last_seq < ck_seq && keep_len > 0 {
        let prior = report.quarantined_bytes;
        let kept = wal_bytes.get(..keep_len).unwrap_or_default();
        let reason = format!(
            "log (last surviving seq {kept_last_seq}) behind checkpoint seq {ck_seq}; rotated"
        );
        quarantine_tail(dir, kept, 0, reason, &mut report)?;
        report.quarantined_bytes = report.quarantined_bytes.saturating_add(prior);
        keep_len = 0;
    }

    report.wal_bytes = u64::try_from(keep_len).unwrap_or(u64::MAX);
    report.next_seq = last_seq.saturating_add(1);
    report.recovered_epoch = writer.epoch();
    Ok((store, writer, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ProfileUpdate;
    use crate::wal::{FsyncPolicy, WalWriter};
    use podium_core::bucket::BucketingConfig;
    use podium_data::synth::synthetic_repository;

    fn fixture() -> (UserRepository, PropertyBuckets) {
        let repo = synthetic_repository(40, 4, 2, 0xD1CE_2020);
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        (repo, buckets)
    }

    fn update(user: &str, property: &str, score: Option<f64>) -> ProfileUpdate {
        ProfileUpdate {
            user: user.to_owned(),
            property: property.to_owned(),
            score,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("podium-recovery-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_dir_recovers_genesis() {
        let dir = temp_dir("genesis");
        let (repo, buckets) = fixture();
        let (store, writer, report) =
            recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(report.recovered_epoch, 0);
        assert_eq!(report.next_seq, 1);
        assert_eq!(writer.epoch(), 0);
        assert_eq!(store.load().epoch(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_reaches_the_logged_epochs() {
        let dir = temp_dir("replay");
        let (repo, buckets) = fixture();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        wal.append(1, vec![update("bob", "topic-0", Some(0.9))])
            .unwrap();
        wal.append(2, vec![update("bob", "topic-1", Some(0.1))])
            .unwrap();
        let (store, writer, report) =
            recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(report.replayed_frames, 2);
        assert_eq!(report.replayed_updates, 2);
        assert_eq!(report.recovered_epoch, 2);
        assert_eq!(report.next_seq, 3);
        assert!(report.quarantined.is_none());
        assert_eq!(writer.epoch(), 2);
        let snap = store.load();
        assert!(snap.repo().user_by_name("bob").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_quarantined_and_truncated() {
        let dir = temp_dir("torn");
        let (repo, buckets) = fixture();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        wal.append(1, vec![update("bob", "topic-0", Some(0.9))])
            .unwrap();
        let clean_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let mut bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        bytes.extend_from_slice(b"\x40\x00\x00\x00 torn");
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let (_store, _writer, report) =
            recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(report.replayed_frames, 1);
        assert_eq!(report.recovered_epoch, 1);
        assert!(report.quarantined.is_some());
        assert_eq!(report.quarantined_bytes, 9);
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), clean_len);
        assert!(dir.join(QUARANTINE_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn semantically_invalid_frame_truncates_from_that_frame() {
        let dir = temp_dir("semantic");
        let (repo, buckets) = fixture();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        wal.append(1, vec![update("bob", "topic-0", Some(0.9))])
            .unwrap();
        // Bytewise valid, semantically impossible: unknown property.
        wal.append(2, vec![update("bob", "no-such-topic", Some(0.5))])
            .unwrap();
        let (_store, writer, report) =
            recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(report.replayed_frames, 1);
        assert_eq!(report.recovered_epoch, 1);
        assert_eq!(writer.epoch(), 1);
        assert!(report
            .quarantined
            .as_deref()
            .unwrap()
            .contains("unknown property"));
        // The truncated log replays cleanly next time.
        let (repo2, buckets2) = fixture();
        let (_s, _w, second) = recover(&dir, repo2, &buckets2, PublishMode::Incremental).unwrap();
        assert_eq!(second.replayed_frames, 1);
        assert!(second.quarantined.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every frame names the epoch it published; `0` is never ahead of
    /// the recovered epoch, so replay ends at such a frame like at any
    /// other epoch that goes backwards.
    #[test]
    fn epoch_zero_frame_ends_replay_and_quarantines_the_tail() {
        let dir = temp_dir("epoch-zero");
        let (repo, buckets) = fixture();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        wal.append(1, vec![update("bob", "topic-0", Some(0.9))])
            .unwrap();
        let first_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        wal.append(0, vec![update("bob", "topic-1", Some(0.1))])
            .unwrap();
        wal.append(2, vec![update("carol", "topic-0", Some(0.4))])
            .unwrap();
        let (store, writer, report) =
            recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(report.replayed_frames, 1);
        assert_eq!(report.recovered_epoch, 1);
        assert_eq!(writer.epoch(), 1);
        assert!(store.load().repo().user_by_name("carol").is_none());
        assert!(report
            .quarantined
            .as_deref()
            .unwrap()
            .contains("epoch 0 not ahead"));
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), first_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_skips_replay_and_corrupt_checkpoint_falls_back() {
        let dir = temp_dir("checkpoint");
        let (repo, buckets) = fixture();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        wal.append(1, vec![update("bob", "topic-0", Some(0.9))])
            .unwrap();
        wal.append(2, vec![update("carol", "topic-1", Some(0.2))])
            .unwrap();
        // First recovery, then checkpoint its state at seq 2 / epoch 2.
        let (_s, w, r) = recover(&dir, repo.clone(), &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(r.recovered_epoch, 2);
        let profiles = podium_data::json::profiles_to_json(w.repo()).unwrap();
        write_checkpoint(&dir, 2, 2, &profiles).unwrap();
        drop(w);

        let (_s, w2, r2) = recover(&dir, repo.clone(), &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(r2.checkpoint_seq, 2);
        assert_eq!(r2.checkpoint_epoch, 2);
        assert_eq!(r2.replayed_frames, 0, "checkpoint covers the whole log");
        assert_eq!(r2.recovered_epoch, 2);
        assert_eq!(r2.next_seq, 3);
        assert!(w2.repo().user_by_name("carol").is_some());
        drop(w2);

        // Corrupt the checkpoint: recovery rejects it and replays the WAL.
        let path = checkpoint_path(&dir, 2);
        let mut text = fs::read_to_string(&path).unwrap();
        text = text.replace("bob", "b0b");
        fs::write(&path, text).unwrap();
        let (_s, w3, r3) = recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(r3.checkpoints_rejected, 1);
        assert_eq!(r3.checkpoint_seq, 0);
        assert_eq!(r3.replayed_frames, 2);
        assert_eq!(r3.recovered_epoch, 2);
        assert!(w3.repo().user_by_name("bob").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_truncated_below_checkpoint_rotates_so_future_appends_stay_contiguous() {
        let dir = temp_dir("rotate");
        let (repo, buckets) = fixture();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        wal.append(1, vec![update("bob", "topic-0", Some(0.9))])
            .unwrap();
        wal.append(2, vec![update("carol", "topic-1", Some(0.2))])
            .unwrap();
        drop(wal);
        // Checkpoint covering both frames…
        let (_s, w, _r) = recover(&dir, repo.clone(), &buckets, PublishMode::Incremental).unwrap();
        let profiles = podium_data::json::profiles_to_json(w.repo()).unwrap();
        write_checkpoint(&dir, 2, 2, &profiles).unwrap();
        drop(w);
        // …then frame 2 rots on disk: the byte scan keeps only frame 1,
        // leaving the log's surviving max seq below the checkpoint's.
        let mut bytes = fs::read(dir.join(WAL_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();

        let (_s, w2, r2) = recover(&dir, repo.clone(), &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(r2.checkpoint_seq, 2);
        assert_eq!(r2.recovered_epoch, 2, "the checkpoint carries the state");
        assert_eq!(r2.next_seq, 3);
        // The surviving prefix was rotated away: appending seq 3 after a
        // file ending at seq 1 would strand every later acked frame
        // behind a sequence gap on the following restart.
        assert_eq!(r2.wal_bytes, 0);
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        assert!(
            r2.quarantined
                .as_deref()
                .unwrap()
                .contains("behind checkpoint"),
            "{:?}",
            r2.quarantined
        );
        drop(w2);

        // The next run appends acked frames from next_seq — and a further
        // restart must replay them, not quarantine them.
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, r2.next_seq, 0).unwrap();
        wal.append(3, vec![update("dave", "topic-0", Some(0.4))])
            .unwrap();
        drop(wal);
        let (_s, w3, r3) = recover(&dir, repo, &buckets, PublishMode::Incremental).unwrap();
        assert!(r3.quarantined.is_none(), "{:?}", r3.quarantined);
        assert_eq!(r3.replayed_frames, 1);
        assert_eq!(r3.recovered_epoch, 3);
        assert!(w3.repo().user_by_name("dave").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A genesis built in memory whose property ids do not follow label
    /// order: after a checkpoint restart every bucket set must still sit
    /// on its own property, so the default select is unchanged.
    #[test]
    fn checkpoint_restart_keeps_genesis_property_ids() {
        use crate::snapshot::SelectParams;
        use podium_core::rng::{splitmix64, unit_float};
        use podium_core::weights::{CovScheme, WeightScheme};

        let dir = temp_dir("property-ids");
        let mut genesis = UserRepository::new();
        // Interned in reverse label order; each property's scores span a
        // different range, so adaptive buckets differ per property.
        let props: Vec<_> = (0..6u32)
            .rev()
            .map(|i| (i, genesis.intern_property(format!("topic-{i}"))))
            .collect();
        let mut rng = 0x5EED_u64;
        for u in 0..60 {
            let user = genesis.add_user(format!("user-{u}"));
            for &(i, p) in &props {
                if !splitmix64(&mut rng).is_multiple_of(3) {
                    let score = unit_float(&mut rng) * f64::from(i + 1) / 6.0;
                    genesis.set_score(user, p, score).unwrap();
                }
            }
        }
        let buckets = BucketingConfig::adaptive_default().bucketize(&genesis);
        let params = SelectParams {
            budget: 5,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };

        let (store, mut writer, _) =
            recover(&dir, genesis.clone(), &buckets, PublishMode::Incremental).unwrap();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        let updates = vec![
            update("user-3", "topic-5", Some(0.95)),
            update("user-7", "topic-0", Some(0.05)),
        ];
        wal.append(1, updates.clone()).unwrap();
        for u in &updates {
            writer.apply(u).unwrap();
        }
        writer.publish();
        let live = store.load().select(&params, None).unwrap();
        let profiles = podium_data::json::profiles_to_json(writer.repo()).unwrap();
        write_checkpoint(&dir, 1, writer.epoch(), &profiles).unwrap();
        drop((store, writer, wal));

        let (store, _writer, report) =
            recover(&dir, genesis, &buckets, PublishMode::Incremental).unwrap();
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(report.replayed_frames, 0);
        let recovered = store.load().select(&params, None).unwrap();
        assert_eq!(recovered.names, live.names);
        assert_eq!(recovered.selection.score, live.selection.score);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_two_generations() {
        let dir = temp_dir("prune");
        for seq in [1u64, 5, 9] {
            write_checkpoint(&dir, seq, seq, "{\"users\":[]}").unwrap();
        }
        assert_eq!(list_checkpoint_seqs(&dir), vec![9, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
