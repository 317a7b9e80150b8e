//! Write-ahead log for durable epochs.
//!
//! Every accepted `update-profile` batch is appended to `wal.log` as one
//! **frame** before it becomes visible to readers:
//!
//! ```text
//! [u32 payload_len LE][u64 checksum LE][payload bytes]
//! ```
//!
//! The payload is one line-JSON object mirroring the wire protocol's
//! vocabulary:
//!
//! ```text
//! {"seq":N,"epoch":E,"updates":[{"user":"u","property":"p","score":0.5}]}
//! ```
//!
//! `seq` increases by exactly one per frame across the log's lifetime
//! (checkpoints record the last `seq` they contain, so recovery replays
//! only the suffix). `epoch` is the epoch the batch was published at —
//! `0` means *unassigned*: the batch was accepted under the batched
//! publish policy and recovery assigns the next epoch itself. A `null`
//! score is a retraction, exactly as on the wire.
//!
//! The checksum is a splitmix64-folded CRC: the payload length seeds a
//! splitmix64 state, each little-endian 8-byte chunk (zero-padded tail)
//! is XOR-folded in, and the generator is stepped between chunks. It is
//! not cryptographic; it exists to detect torn writes and bit rot, and a
//! single flipped bit anywhere in the frame changes it.
//!
//! [`scan_frames`] walks a byte buffer frame by frame and stops at the
//! first length, checksum, or payload violation — everything before the
//! stop point is the **valid prefix**, everything after is the torn tail
//! recovery quarantines and truncates. The scanner never panics on any
//! input (see `tests/wal_robustness.rs`).
//!
//! Durability is governed by [`FsyncPolicy`]: `always` fsyncs after every
//! frame (acknowledged updates survive `SIGKILL`), `batch` fsyncs every
//! [`BATCH_SYNC_EVERY`] frames and before each checkpoint (a crash may
//! lose the most recent window), `off` leaves flushing to the OS.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use podium_core::rng::splitmix64;
use serde_json::Value;

use crate::error::ServiceError;
use crate::protocol::{num_u64, string};
use crate::snapshot::ProfileUpdate;

/// The log file name inside a `--data-dir`.
pub const WAL_FILE: &str = "wal.log";

/// Where recovery appends torn tails it truncated off [`WAL_FILE`].
pub const QUARANTINE_FILE: &str = "wal.quarantine";

/// Frames between fsyncs under [`FsyncPolicy::Batch`].
pub const BATCH_SYNC_EVERY: u64 = 32;

/// Upper bound on a single frame's payload; a declared length beyond this
/// is treated as corruption instead of an allocation request.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Bytes of frame header (length + checksum) preceding each payload.
pub const FRAME_HEADER_BYTES: usize = 12;

/// When appended frames are fsynced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every frame: an acknowledged update is durable.
    #[default]
    Always,
    /// Fsync every [`BATCH_SYNC_EVERY`] frames and before checkpoints: a
    /// crash can lose at most the last unsynced window.
    Batch,
    /// Never fsync explicitly; the OS flushes when it pleases.
    Off,
}

impl FsyncPolicy {
    /// Stable lower-case name (`always` / `batch` / `off`).
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        }
    }

    /// Parses the stable name back; `None` for anything else.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

/// The splitmix64-folded CRC of a frame payload (see module docs).
pub fn frame_checksum(payload: &[u8]) -> u64 {
    let mut state = 0x05EE_DF4A_3D00_B1E5_u64 ^ u64::try_from(payload.len()).unwrap_or(u64::MAX);
    let mut folded = splitmix64(&mut state);
    for chunk in payload.chunks(8) {
        let mut word = [0u8; 8];
        if let Some(slot) = word.get_mut(..chunk.len()) {
            slot.copy_from_slice(chunk);
        }
        folded ^= u64::from_le_bytes(word);
        folded ^= splitmix64(&mut state);
        state ^= folded;
    }
    folded
}

/// One durable update batch: what the WAL stores and recovery replays.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// Log-lifetime sequence number, contiguous from 1.
    pub seq: u64,
    /// Epoch the batch was published at; `0` = unassigned (batched
    /// policy), recovery numbers it when it republishes.
    pub epoch: u64,
    /// The accepted updates, in application order.
    pub updates: Vec<ProfileUpdate>,
}

impl WalFrame {
    /// Serializes the frame payload as one line-JSON object.
    pub fn encode_payload(&self) -> String {
        let updates: Vec<Value> = self
            .updates
            .iter()
            .map(|u| {
                Value::Object(vec![
                    ("user".to_owned(), string(u.user.clone())),
                    ("property".to_owned(), string(u.property.clone())),
                    (
                        "score".to_owned(),
                        match u.score {
                            Some(s) => Value::Number(serde_json::Number::Float(s)),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let object = Value::Object(vec![
            ("seq".to_owned(), num_u64(self.seq)),
            ("epoch".to_owned(), num_u64(self.epoch)),
            ("updates".to_owned(), Value::Array(updates)),
        ]);
        // podium-lint: allow(expect) — Value trees of strings/numbers always serialize
        serde_json::to_string(&object).expect("frame payload serialization is infallible")
    }

    /// Parses a frame payload; any structural violation is an error
    /// message (never a panic) so the scanner can classify torn tails.
    pub fn decode_payload(payload: &[u8]) -> Result<WalFrame, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload not utf-8: {e}"))?;
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("payload not json: {e}"))?;
        let seq = value
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or("payload missing 'seq'")?;
        let epoch = value
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or("payload missing 'epoch'")?;
        let raw_updates = value
            .get("updates")
            .and_then(Value::as_array)
            .ok_or("payload missing 'updates'")?;
        let mut updates = Vec::with_capacity(raw_updates.len());
        for entry in raw_updates {
            let user = entry
                .get("user")
                .and_then(Value::as_str)
                .ok_or("update missing 'user'")?;
            let property = entry
                .get("property")
                .and_then(Value::as_str)
                .ok_or("update missing 'property'")?;
            let score = match entry.get("score") {
                Some(Value::Null) => None,
                Some(v) => Some(v.as_f64().ok_or("update score not a number")?),
                None => return Err("update missing 'score'".to_owned()),
            };
            updates.push(ProfileUpdate {
                user: user.to_owned(),
                property: property.to_owned(),
                score,
            });
        }
        Ok(WalFrame {
            seq,
            epoch,
            updates,
        })
    }

    /// Encodes the full on-disk frame: header + payload.
    pub fn encode(&self) -> Result<Vec<u8>, ServiceError> {
        let payload = self.encode_payload();
        let payload = payload.as_bytes();
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|_| payload.len() <= MAX_FRAME_BYTES)
            .ok_or_else(|| {
                ServiceError::Durability(format!(
                    "frame payload too large: {} bytes",
                    payload.len()
                ))
            })?;
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(out)
    }
}

/// What [`scan_frames`] found in a WAL byte buffer.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Frames of the valid prefix, in log order.
    pub frames: Vec<WalFrame>,
    /// `frame_ends[i]` is the byte offset just past frame `i` — recovery
    /// uses it to truncate at a *semantic* violation (a frame that is
    /// bytewise intact but cannot be replayed).
    pub frame_ends: Vec<usize>,
    /// Byte length of the valid prefix; everything past it is torn.
    pub valid_len: usize,
    /// Why scanning stopped early, when it did — the quarantine reason.
    pub torn: Option<String>,
}

/// Walks `bytes` frame by frame, stopping at the first violation: a
/// truncated header, an implausible length, a checksum mismatch, an
/// unparseable payload, or a non-contiguous sequence number. The first
/// frame fixes the starting sequence (a log rotated after a checkpoint
/// starts past 1, see `recovery`); zero is never a valid sequence. Total
/// on arbitrary input; never panics.
pub fn scan_frames(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    let mut offset = 0usize;
    let mut expected_seq: Option<u64> = None;
    while let Some(remaining) = bytes.get(offset..) {
        if remaining.is_empty() {
            break;
        }
        let Some(header) = remaining.get(..FRAME_HEADER_BYTES) else {
            scan.torn = Some(format!(
                "truncated frame header ({} of {FRAME_HEADER_BYTES} bytes)",
                remaining.len()
            ));
            break;
        };
        let mut len_bytes = [0u8; 4];
        let mut crc_bytes = [0u8; 8];
        if let Some(s) = header.get(..4) {
            len_bytes.copy_from_slice(s);
        }
        if let Some(s) = header.get(4..FRAME_HEADER_BYTES) {
            crc_bytes.copy_from_slice(s);
        }
        let declared = usize::try_from(u32::from_le_bytes(len_bytes)).unwrap_or(usize::MAX);
        if declared > MAX_FRAME_BYTES {
            scan.torn = Some(format!("implausible frame length {declared}"));
            break;
        }
        let Some(payload) = remaining.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + declared) else {
            scan.torn = Some(format!(
                "truncated frame payload ({} of {declared} bytes)",
                remaining.len().saturating_sub(FRAME_HEADER_BYTES)
            ));
            break;
        };
        let expected_crc = u64::from_le_bytes(crc_bytes);
        let actual_crc = frame_checksum(payload);
        if expected_crc != actual_crc {
            scan.torn = Some(format!(
                "checksum mismatch (stored {expected_crc:#x}, computed {actual_crc:#x})"
            ));
            break;
        }
        let frame = match WalFrame::decode_payload(payload) {
            Ok(f) => f,
            Err(reason) => {
                scan.torn = Some(reason);
                break;
            }
        };
        let expected = expected_seq.unwrap_or(frame.seq.max(1));
        if frame.seq != expected {
            scan.torn = Some(format!(
                "sequence gap (expected {expected}, found {})",
                frame.seq
            ));
            break;
        }
        expected_seq = Some(expected.saturating_add(1));
        offset += FRAME_HEADER_BYTES + declared;
        scan.valid_len = offset;
        scan.frame_ends.push(offset);
        scan.frames.push(frame);
    }
    scan
}

/// Append-side handle on `wal.log`. Single-writer by construction — the
/// service guards it with the same discipline as the repository writer.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    bytes_written: u64,
    frames_since_sync: u64,
    next_seq: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `dir/wal.log` for appending.
    /// `next_seq` and `existing_bytes` come from recovery's scan of the
    /// valid prefix; a fresh log starts at `(1, 0)`.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        next_seq: u64,
        existing_bytes: u64,
    ) -> Result<Self, ServiceError> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| ServiceError::Durability(format!("open {}: {e}", path.display())))?;
        Ok(Self {
            file,
            path,
            policy,
            bytes_written: existing_bytes,
            frames_since_sync: 0,
            next_seq: next_seq.max(1),
        })
    }

    /// The sequence number the next appended frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total valid bytes in the log (recovered prefix + appends).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Appends one update batch as the next frame and applies the fsync
    /// policy. Returns the frame's assigned sequence number.
    pub fn append(&mut self, epoch: u64, updates: Vec<ProfileUpdate>) -> Result<u64, ServiceError> {
        let frame = WalFrame {
            seq: self.next_seq,
            epoch,
            updates,
        };
        let encoded = frame.encode()?;
        self.file.write_all(&encoded).map_err(|e| {
            ServiceError::Durability(format!("append {}: {e}", self.path.display()))
        })?;
        self.next_seq = self.next_seq.saturating_add(1);
        self.bytes_written = self
            .bytes_written
            .saturating_add(u64::try_from(encoded.len()).unwrap_or(u64::MAX));
        self.frames_since_sync += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch if self.frames_since_sync >= BATCH_SYNC_EVERY => self.sync()?,
            FsyncPolicy::Batch | FsyncPolicy::Off => {}
        }
        Ok(frame.seq)
    }

    /// Forces the log to stable storage, regardless of policy.
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        self.file
            .sync_data()
            .map_err(|e| ServiceError::Durability(format!("fsync {}: {e}", self.path.display())))?;
        self.frames_since_sync = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame(seq: u64) -> WalFrame {
        WalFrame {
            seq,
            epoch: seq,
            updates: vec![
                ProfileUpdate {
                    user: format!("user-{seq}"),
                    property: "topic-0".to_owned(),
                    score: Some(0.25),
                },
                ProfileUpdate {
                    user: "user-x".to_owned(),
                    property: "topic-1".to_owned(),
                    score: None,
                },
            ],
        }
    }

    #[test]
    fn payload_round_trips_including_retractions() {
        let frame = sample_frame(3);
        let payload = frame.encode_payload();
        let back = WalFrame::decode_payload(payload.as_bytes()).unwrap();
        assert_eq!(back, frame);
    }

    /// Pins the on-disk checksum: WAL frames and checkpoints written by
    /// earlier builds must keep verifying.
    #[test]
    fn frame_checksum_is_pinned() {
        let payload = br#"{"seq":7,"epoch":3,"updates":[{"user":"alice","property":"avgRating Mexican","score":0.75}]}"#;
        assert_eq!(frame_checksum(payload), 0x1de4_f93d_7819_1b21);
        assert_eq!(frame_checksum(b""), 0x8216_8a41_d279_0a46);
        assert_eq!(frame_checksum(b"podium"), 0xdc8b_a2c8_8453_423b);
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let frame = sample_frame(1);
        let payload = frame.encode_payload().into_bytes();
        let clean = frame_checksum(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(
                    frame_checksum(&mutated),
                    clean,
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn scan_accepts_a_clean_log_and_stops_at_garbage() {
        let mut log = Vec::new();
        for seq in 1..=4 {
            log.extend_from_slice(&sample_frame(seq).encode().unwrap());
        }
        let clean_len = log.len();
        log.extend_from_slice(b"torn tail garbage");
        let scan = scan_frames(&log);
        assert_eq!(scan.frames.len(), 4);
        assert_eq!(scan.valid_len, clean_len);
        assert!(scan.torn.is_some(), "garbage tail must be reported");
    }

    #[test]
    fn scan_rejects_sequence_gaps() {
        let mut log = Vec::new();
        log.extend_from_slice(&sample_frame(1).encode().unwrap());
        log.extend_from_slice(&sample_frame(3).encode().unwrap());
        let scan = scan_frames(&log);
        assert_eq!(scan.frames.len(), 1, "the gap frame is torn");
        assert!(scan.torn.unwrap().contains("sequence gap"));
    }

    #[test]
    fn scan_of_truncations_never_panics_and_keeps_the_prefix() {
        let mut log = Vec::new();
        for seq in 1..=3 {
            log.extend_from_slice(&sample_frame(seq).encode().unwrap());
        }
        let full = scan_frames(&log);
        assert_eq!(full.frames.len(), 3);
        assert!(full.torn.is_none());
        for cut in 0..log.len() {
            let scan = scan_frames(&log[..cut]);
            assert!(scan.frames.len() <= 3);
            assert!(scan.valid_len <= cut);
            // The valid prefix is exactly the whole frames that fit.
            let rescan = scan_frames(&log[..scan.valid_len]);
            assert_eq!(rescan.frames.len(), scan.frames.len());
            assert!(rescan.torn.is_none());
        }
    }

    #[test]
    fn writer_appends_and_scan_reads_back() {
        let dir = std::env::temp_dir().join(format!("podium-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut writer = WalWriter::open(&dir, FsyncPolicy::Always, 1, 0).unwrap();
        for i in 0..3u64 {
            let seq = writer
                .append(
                    i + 1,
                    vec![ProfileUpdate {
                        user: format!("u{i}"),
                        property: "p".to_owned(),
                        score: Some(0.5),
                    }],
                )
                .unwrap();
            assert_eq!(seq, i + 1);
        }
        assert_eq!(writer.next_seq(), 4);
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(writer.bytes_written(), bytes.len() as u64);
        let scan = scan_frames(&bytes);
        assert_eq!(scan.frames.len(), 3);
        assert!(scan.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_tags_round_trip() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Off] {
            assert_eq!(FsyncPolicy::from_tag(policy.as_str()), Some(policy));
        }
        assert_eq!(FsyncPolicy::from_tag("sometimes"), None);
    }
}
