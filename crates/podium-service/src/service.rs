//! [`PodiumService`]: the embeddable facade tying the snapshot store,
//! writer, executor, and session layer together behind the JSONL protocol.
//!
//! Every select — plain, constrained, `stale_ok`, session-pinned, and the
//! one inside `explain` — takes the same path: the service fixes the
//! request's absolute deadline on arrival, finds the snapshot (the pinned
//! one for a session, else the one a worker captures at dequeue), and
//! makes one [`Snapshot::serve`] call on it. `update-profile` validates,
//! appends to the WAL (when durable), applies, and publishes one epoch
//! per update.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use podium_core::bucket::PropertyBuckets;
use podium_core::explain::SelectionReport;
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use serde_json::Value;

use crate::error::ServiceError;
use crate::executor::QueryExecutor;
use crate::poison;
use crate::protocol::{
    self, error_response, num_f64, num_u64, ok_response, parse_request, string, string_array,
    Request,
};
use crate::recovery::{self, DurabilityOptions, RecoveryReport};
use crate::session::SessionManager;
use crate::snapshot::{
    elapsed_micros, ProfileUpdate, PublishMode, RepositoryWriter, Snapshot, SnapshotStore,
};
use crate::wal::WalWriter;

/// Service sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the query executor.
    pub workers: usize,
    /// Bounded queue capacity (admission control threshold).
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds, for requests that do
    /// not carry a `deadline_ms`.
    pub default_deadline_ms: u64,
    /// How many epochs a session's pinned snapshot may lag the current
    /// epoch before pinned selects and `refine` reject with
    /// `session_retired`. Keeping a long-abandoned session's snapshot
    /// alive pins its whole repository copy in memory; this bounds that.
    /// `u64::MAX` disables retirement.
    pub max_session_lag: u64,
    /// How published epochs are materialized (incremental delta patching
    /// vs full rebuild).
    pub publish_mode: PublishMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_capacity: 256,
            default_deadline_ms: 5000,
            max_session_lag: 1024,
            publish_mode: PublishMode::default(),
        }
    }
}

/// Cumulative (monotone across epochs) memo-cache counters for the
/// `select` path, derived from each [`crate::snapshot::SelectOutcome`]'s
/// `cache_hit`/`stale` flags. They accumulate over the service's lifetime,
/// so dashboards see totals that never reset when an epoch is published.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stale_served: AtomicU64,
}

impl CacheCounters {
    /// `(hits, misses)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Selects served from a carried-forward (stale) memo so far.
    pub fn stale_served(&self) -> u64 {
        self.stale_served.load(Ordering::Relaxed)
    }

    fn record(&self, hit: bool, stale: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if stale {
            self.stale_served.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The mutable half of the durability subsystem: the WAL appender and the
/// checkpoint cadence. Guarded by one mutex; every holder already holds
/// the writer lock (lock order: writer → durability), so WAL appends are
/// serialized in the same order updates are applied.
#[derive(Debug)]
struct DurabilityState {
    wal: WalWriter,
    dir: PathBuf,
    /// Frames between checkpoints; `0` disables periodic checkpoints.
    checkpoint_every: u64,
    frames_since_checkpoint: u64,
}

/// Shared durability handle: WAL + checkpoints behind a mutex, and the
/// lock-free counters the `stats` op reads.
#[derive(Debug)]
pub struct DurabilityHandle {
    inner: Mutex<DurabilityState>,
    wal_bytes: AtomicU64,
    last_checkpoint_epoch: AtomicU64,
    recovery_replayed: AtomicU64,
    checkpoint_failures: AtomicU64,
    last_checkpoint_error: Mutex<Option<String>>,
}

impl DurabilityHandle {
    /// Valid WAL bytes (recovered prefix + this run's appends).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Epoch of the most recent checkpoint (this run's, else the one
    /// recovery loaded).
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.last_checkpoint_epoch.load(Ordering::Relaxed)
    }

    /// WAL frames recovery replayed at startup.
    pub fn recovery_replayed(&self) -> u64 {
        self.recovery_replayed.load(Ordering::Relaxed)
    }

    /// Checkpoint attempts that failed (serialization or I/O). A value
    /// that keeps growing while `last_checkpoint_epoch` stands still
    /// means the WAL — and with it replay time — is growing unboundedly.
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures.load(Ordering::Relaxed)
    }

    /// The most recent checkpoint failure, for operators chasing a
    /// non-zero [`DurabilityHandle::checkpoint_failures`].
    pub fn last_checkpoint_error(&self) -> Option<String> {
        poison::recover(self.last_checkpoint_error.lock()).clone()
    }

    /// [`DurabilityHandle::maybe_checkpoint`] with failures recorded
    /// instead of propagated: a failed checkpoint costs recovery time,
    /// never durability (the WAL has everything), so the live path keeps
    /// serving and surfaces the stall through the `stats` op.
    fn checkpoint_if_due(&self, writer: &RepositoryWriter) {
        if let Err(e) = self.maybe_checkpoint(writer) {
            self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            *poison::recover(self.last_checkpoint_error.lock()) = Some(e.to_string());
        }
    }

    /// Appends one accepted update as a WAL frame and fsyncs per policy.
    /// `epoch` is the epoch the update will publish at. An error here
    /// means the update must NOT be acknowledged.
    fn log_update(&self, epoch: u64, update: &ProfileUpdate) -> Result<(), ServiceError> {
        let mut state = poison::checked(self.inner.lock())?;
        state.wal.append(epoch, vec![update.clone()])?;
        state.frames_since_checkpoint += 1;
        self.wal_bytes
            .store(state.wal.bytes_written(), Ordering::Relaxed);
        Ok(())
    }

    /// Writes a checkpoint when the cadence says so. The caller holds the
    /// writer lock, so the serialized repository is exactly the state at
    /// the WAL's current sequence. Syncs the WAL first so a checkpoint
    /// never claims coverage of frames that were still in page cache.
    fn maybe_checkpoint(&self, writer: &RepositoryWriter) -> Result<(), ServiceError> {
        let mut state = poison::checked(self.inner.lock())?;
        if state.checkpoint_every == 0 || state.frames_since_checkpoint < state.checkpoint_every {
            return Ok(());
        }
        state.wal.sync()?;
        let profiles = podium_data::json::profiles_to_json(writer.repo())
            .map_err(|e| ServiceError::Durability(format!("serialize checkpoint: {e}")))?;
        let seq = state.wal.next_seq().saturating_sub(1);
        recovery::write_checkpoint(&state.dir, seq, writer.epoch(), &profiles)?;
        state.frames_since_checkpoint = 0;
        self.last_checkpoint_epoch
            .store(writer.epoch(), Ordering::Relaxed);
        Ok(())
    }
}

/// Health of one peer (connection label) as tracked by the server side:
/// consecutive failed responses flip it to `degraded`, one success flips
/// it back. Transitions are stamped with the epoch current at the flip.
#[derive(Debug, Clone, Default)]
pub struct PeerHealth {
    /// `true` after [`PEER_DEGRADE_AFTER`] consecutive failures.
    pub degraded: bool,
    /// Failed responses since the last success.
    pub consecutive_failures: u32,
    /// Epoch at the most recent ok↔degraded transition (0 = never).
    pub last_transition_epoch: u64,
    /// Total requests from this peer.
    pub requests: u64,
    /// Total failed responses to this peer.
    pub errors: u64,
}

/// Consecutive failures before a peer is reported `degraded`.
pub const PEER_DEGRADE_AFTER: u32 = 3;

/// Peers tracked at once; the least-recently-active entry is evicted
/// beyond this.
const PEER_REGISTRY_CAP: usize = 64;

/// The serving facade. `Send + Sync`; share it behind an `Arc` between
/// connection handler threads.
#[derive(Debug)]
pub struct PodiumService {
    store: Arc<SnapshotStore>,
    writer: Mutex<RepositoryWriter>,
    executor: QueryExecutor,
    sessions: SessionManager,
    max_session_lag: u64,
    default_deadline: Duration,
    cache_counters: CacheCounters,
    /// WAL + checkpoints; `None` when running volatile (no `--data-dir`).
    durability: Option<DurabilityHandle>,
    /// Per-peer health, keyed by the connection label the transport
    /// passes to [`PodiumService::handle_line_from`].
    peers: Mutex<Vec<(String, PeerHealth)>>,
}

impl PodiumService {
    /// Builds the service: epoch-0 snapshot from `repo` under `buckets`,
    /// then the worker pool.
    pub fn new(repo: UserRepository, buckets: &PropertyBuckets, config: ServiceConfig) -> Self {
        let (store, writer) = RepositoryWriter::with_mode(repo, buckets, config.publish_mode);
        Self::assemble(store, writer, config, None)
    }

    /// [`PodiumService::new`] with durability: recovers the data
    /// directory's state (newest valid checkpoint + WAL suffix replay,
    /// torn tails quarantined), opens the WAL for appending, and from
    /// then on logs every accepted `update-profile` before it is
    /// acknowledged. Returns the service and what recovery found.
    ///
    /// `repo` is the genesis repository (the `--profiles` load); it only
    /// matters on the first start or when every checkpoint is rejected,
    /// since the WAL replays the full update history on top of it.
    pub fn with_durability(
        repo: UserRepository,
        buckets: &PropertyBuckets,
        config: ServiceConfig,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (store, writer, report) =
            recovery::recover(&opts.data_dir, repo, buckets, config.publish_mode)?;
        let wal = WalWriter::open(
            &opts.data_dir,
            opts.fsync,
            report.next_seq,
            report.wal_bytes,
        )?;
        let handle = DurabilityHandle {
            inner: Mutex::new(DurabilityState {
                wal,
                dir: opts.data_dir,
                checkpoint_every: opts.checkpoint_every,
                frames_since_checkpoint: 0,
            }),
            wal_bytes: AtomicU64::new(report.wal_bytes),
            last_checkpoint_epoch: AtomicU64::new(report.checkpoint_epoch),
            recovery_replayed: AtomicU64::new(report.replayed_frames),
            checkpoint_failures: AtomicU64::new(0),
            last_checkpoint_error: Mutex::new(None),
        };
        Ok((Self::assemble(store, writer, config, Some(handle)), report))
    }

    fn assemble(
        store: Arc<SnapshotStore>,
        writer: RepositoryWriter,
        config: ServiceConfig,
        durability: Option<DurabilityHandle>,
    ) -> Self {
        let executor =
            QueryExecutor::new(Arc::clone(&store), config.workers, config.queue_capacity);
        Self {
            store,
            writer: Mutex::new(writer),
            executor,
            sessions: SessionManager::new(),
            max_session_lag: config.max_session_lag,
            default_deadline: Duration::from_millis(config.default_deadline_ms),
            cache_counters: CacheCounters::default(),
            durability,
            peers: Mutex::new(Vec::new()),
        }
    }

    /// The durability handle, when the service runs with a data dir.
    pub fn durability(&self) -> Option<&DurabilityHandle> {
        self.durability.as_ref()
    }

    /// The snapshot store (for embedding callers that read directly).
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// The query executor.
    pub fn executor(&self) -> &QueryExecutor {
        &self.executor
    }

    /// Handles one raw request line, returning the response line (without
    /// trailing newline). Never panics on malformed input — parse and
    /// execution errors map to `{"ok":false,...}` responses.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_classified(line).0
    }

    /// [`PodiumService::handle_line`] plus a structural success flag, so
    /// peer-health classification never re-parses (or prefix-matches) the
    /// serialized wire string.
    fn handle_line_classified(&self, line: &str) -> (String, bool) {
        match parse_request(line) {
            Ok(req) => match self.handle(req) {
                Ok(response) => (response, true),
                Err(e) => (error_response(&e), false),
            },
            Err(e) => (error_response(&e), false),
        }
    }

    /// [`PodiumService::handle_line`] with a peer label (a remote address
    /// or transport name) for per-peer health tracking: consecutive
    /// failure responses degrade the peer, a success recovers it, and the
    /// `stats` op reports the registry.
    pub fn handle_line_from(&self, peer: &str, line: &str) -> String {
        let (response, ok) = self.handle_line_classified(line);
        self.record_peer(peer, ok);
        response
    }

    /// A snapshot of the per-peer health registry.
    pub fn peer_health(&self) -> Vec<(String, PeerHealth)> {
        poison::recover(self.peers.lock()).clone()
    }

    fn record_peer(&self, peer: &str, success: bool) {
        let epoch = self.store.epoch();
        let mut peers = poison::recover(self.peers.lock());
        // The registry stays ordered least- → most-recently-active, so
        // eviction at cap drops the stalest peer — not a long-lived active
        // one that merely connected first.
        let mut entry = match peers.iter().position(|(name, _)| name == peer) {
            Some(pos) => peers.remove(pos),
            None => {
                if peers.len() >= PEER_REGISTRY_CAP {
                    peers.remove(0);
                }
                (peer.to_owned(), PeerHealth::default())
            }
        };
        let health = &mut entry.1;
        health.requests += 1;
        if success {
            health.consecutive_failures = 0;
            if health.degraded {
                health.degraded = false;
                health.last_transition_epoch = epoch;
            }
        } else {
            health.errors += 1;
            health.consecutive_failures = health.consecutive_failures.saturating_add(1);
            if !health.degraded && health.consecutive_failures >= PEER_DEGRADE_AFTER {
                health.degraded = true;
                health.last_transition_epoch = epoch;
            }
        }
        peers.push(entry);
    }

    /// The absolute deadline of a request accepted now: `deadline_ms`,
    /// else the configured default. Fixed before the request queues, so
    /// queue wait counts against it; every computed select polls it, and
    /// a memo hit is served even past it.
    fn deadline(&self, deadline_ms: Option<u64>) -> Instant {
        Instant::now() + deadline_ms.map_or(self.default_deadline, Duration::from_millis)
    }

    /// The snapshot `session` is pinned to, unless the pin has fallen more
    /// than `max_session_lag` epochs behind the current one: then the
    /// session is closed and the request fails with `session_retired`.
    /// The pinned snapshot holds a full repository copy alive, and after
    /// enough churn the client's group ids no longer describe the live
    /// data anyway. Pinned selects and `refine` both go through here.
    fn pinned(&self, session: u64) -> Result<Arc<Snapshot>, ServiceError> {
        let current = self.store.epoch();
        let snapshot = self.sessions.snapshot(session)?;
        let pinned = snapshot.epoch();
        if current.saturating_sub(pinned) > self.max_session_lag {
            self.sessions.close(session)?;
            return Err(ServiceError::SessionRetired {
                session,
                pinned,
                current,
            });
        }
        Ok(snapshot)
    }

    /// Handles a parsed request.
    pub fn handle(&self, request: Request) -> Result<String, ServiceError> {
        match request {
            Request::Select {
                params,
                constraints,
                session,
                deadline_ms,
                stale_ok,
            } => {
                let started = Instant::now();
                let deadline = self.deadline(deadline_ms);
                let outcome = match session {
                    // Session-pinned: serve on the epoch the session was
                    // opened on, outside the session-table lock. The
                    // pinned epoch is the point, so `stale_ok` never
                    // applies there.
                    Some(id) => self.pinned(id)?.serve(
                        &params,
                        constraints.as_ref(),
                        Some(deadline),
                        false,
                    )?,
                    None => self.executor.run(move |snapshot| {
                        snapshot.serve(&params, constraints.as_ref(), Some(deadline), stale_ok)
                    })??,
                };
                self.cache_counters.record(outcome.cache_hit, outcome.stale);
                let mut fields = vec![
                    ("epoch", num_u64(outcome.epoch)),
                    ("users", string_array(&outcome.names)),
                    ("score", num_f64(outcome.selection.score)),
                    ("elapsed_us", num_u64(elapsed_micros(started))),
                ];
                if stale_ok {
                    // Only opted-in clients see the staleness contract
                    // fields; the default response shape is unchanged.
                    fields.push(("stale", Value::Bool(outcome.stale)));
                    fields.push(("certified_score_lb", num_f64(outcome.certified_score_lb)));
                }
                Ok(ok_response(fields))
            }
            Request::Explain { params, top_k } => {
                let deadline = self.deadline(None);
                let report: Result<(u64, Value), ServiceError> =
                    self.executor.run(move |snapshot| {
                        let outcome = snapshot.select(&params, Some(deadline))?;
                        let weights = params.weight.weights(snapshot.groups());
                        let covs = params.cov.cov(snapshot.groups(), params.budget);
                        let inst = DiversificationInstance::new(snapshot.groups(), weights, covs);
                        let report = SelectionReport::build(
                            &inst,
                            snapshot.repo(),
                            &outcome.selection,
                            top_k,
                        );
                        let value = serde_json::to_value(&report).map_err(|e| {
                            ServiceError::BadRequest(format!("report serialization: {e}"))
                        })?;
                        Ok((outcome.epoch, value))
                    })?;
                let (epoch, report) = report?;
                Ok(ok_response(vec![
                    ("epoch", num_u64(epoch)),
                    ("report", report),
                ]))
            }
            Request::OpenSession => {
                let (id, epoch) = self.sessions.open(&self.store);
                Ok(ok_response(vec![
                    ("session", num_u64(id)),
                    ("epoch", num_u64(epoch)),
                ]))
            }
            Request::CloseSession { session } => {
                self.sessions.close(session)?;
                Ok(ok_response(vec![("closed", num_u64(session))]))
            }
            Request::Refine {
                session,
                delta,
                params,
            } => {
                self.pinned(session)?;
                self.sessions.with_session(session, |s| {
                    let custom = s.refine(&delta, params.weight, params.cov, params.budget)?;
                    let names = s.snapshot().user_names(custom.users());
                    Ok(ok_response(vec![
                        ("epoch", num_u64(s.snapshot().epoch())),
                        ("session", num_u64(session)),
                        ("users", string_array(&names)),
                        ("priority_score", num_f64(custom.priority_score())),
                        ("standard_score", num_f64(custom.standard_score())),
                        ("pool_size", num_u64(custom.pool_size as u64)),
                        (
                            "feedback_group_coverage",
                            num_f64(custom.feedback_group_coverage),
                        ),
                    ]))
                })
            }
            Request::UpdateProfile { update } => {
                // A panic mid-`apply` can leave the writer's incremental
                // state inconsistent; refuse further writes rather than
                // publish from it (reads keep serving the last snapshot).
                let mut writer = poison::checked(self.writer.lock())?;
                if let Some(d) = &self.durability {
                    // Write-ahead order: validate against the exact state
                    // the frame will replay against, make it durable, then
                    // apply. Validating first keeps rejected updates out
                    // of the log (replay would quarantine them and every
                    // acked frame behind them); logging before applying
                    // means an append failure leaves the writer untouched,
                    // so a non-durable update can never be published or
                    // checkpointed. A crash between append and ack is
                    // resolved in the client's disfavor, exactly like a
                    // crash between send and ack.
                    writer.validate(&update)?;
                    d.log_update(writer.epoch().saturating_add(1), &update)?;
                }
                let outcome = writer.apply(&update)?;
                let epoch = writer.publish();
                if let Some(d) = &self.durability {
                    // Checkpoints are accelerators: a failed one costs
                    // recovery time, never durability.
                    d.checkpoint_if_due(&writer);
                }
                Ok(ok_response(vec![
                    ("epoch", num_u64(epoch)),
                    ("user", string(update.user)),
                    ("created_user", Value::Bool(outcome.created_user)),
                    ("regrouped", Value::Bool(outcome.regrouped)),
                ]))
            }
            Request::Stats => {
                let snapshot = self.store.load();
                let stats = self.executor.stats();
                let (hits, misses) = self.cache_counters.totals();
                // The epoch-build breakdown lives on the writer; a
                // poisoned writer degrades stats rather than failing them.
                let (publish, mode) = match self.writer.lock() {
                    Ok(w) => (w.publish_stats().clone(), w.mode()),
                    Err(e) => {
                        let w = e.into_inner();
                        (w.publish_stats().clone(), w.mode())
                    }
                };
                let (publish_p50, publish_p99) = publish.latency_percentiles();
                let mode_name = match mode {
                    PublishMode::Incremental => "incremental",
                    PublishMode::FullRebuild => "full_rebuild",
                };
                let peers = Value::Array(
                    self.peer_health()
                        .into_iter()
                        .map(|(name, h)| {
                            Value::Object(vec![
                                ("peer".to_owned(), string(name)),
                                (
                                    "state".to_owned(),
                                    string(if h.degraded { "degraded" } else { "ok" }),
                                ),
                                (
                                    "consecutive_failures".to_owned(),
                                    num_u64(u64::from(h.consecutive_failures)),
                                ),
                                (
                                    "last_transition_epoch".to_owned(),
                                    num_u64(h.last_transition_epoch),
                                ),
                                ("requests".to_owned(), num_u64(h.requests)),
                                ("errors".to_owned(), num_u64(h.errors)),
                            ])
                        })
                        .collect(),
                );
                let (wal_bytes, last_checkpoint_epoch, recovery_replayed, checkpoint_failures) =
                    self.durability
                        .as_ref()
                        .map(|d| {
                            (
                                d.wal_bytes(),
                                d.last_checkpoint_epoch(),
                                d.recovery_replayed(),
                                d.checkpoint_failures(),
                            )
                        })
                        .unwrap_or_default();
                let checkpoint_error = self
                    .durability
                    .as_ref()
                    .and_then(|d| d.last_checkpoint_error());
                let mut fields = vec![
                    ("epoch", num_u64(snapshot.epoch())),
                    ("users", num_u64(snapshot.repo().user_count() as u64)),
                    ("groups", num_u64(snapshot.groups().len() as u64)),
                    ("sessions", num_u64(self.sessions.len() as u64)),
                    ("queue_depth", num_u64(self.executor.queue_depth() as u64)),
                    (
                        "submitted",
                        num_u64(stats.submitted.load(Ordering::Relaxed)),
                    ),
                    ("rejected", num_u64(stats.rejected.load(Ordering::Relaxed))),
                    (
                        "completed",
                        num_u64(stats.completed.load(Ordering::Relaxed)),
                    ),
                    ("cache_hits", num_u64(hits)),
                    ("cache_misses", num_u64(misses)),
                    ("stale_served", num_u64(self.cache_counters.stale_served())),
                    ("publish_mode", string(mode_name.to_owned())),
                    ("publishes", num_u64(publish.publishes)),
                    ("patched_publishes", num_u64(publish.patched_publishes)),
                    ("rebuilt_publishes", num_u64(publish.rebuilt_publishes)),
                    ("memos_carried", num_u64(publish.memos_carried)),
                    ("memos_invalidated", num_u64(publish.memos_invalidated)),
                    (
                        "member_lists_rewritten",
                        num_u64(publish.member_lists_rewritten),
                    ),
                    (
                        "reverse_links_rewritten",
                        num_u64(publish.reverse_links_rewritten),
                    ),
                    ("csr_rows_written", num_u64(publish.csr_rows_written)),
                    (
                        "publish_batch_size",
                        num_u64(publish.last.publish_batch_size),
                    ),
                    ("csr_patch_micros", num_u64(publish.last.csr_patch_micros)),
                    (
                        "full_rebuild_micros",
                        num_u64(publish.last.full_rebuild_micros),
                    ),
                    ("publish_p50_micros", num_u64(publish_p50)),
                    ("publish_p99_micros", num_u64(publish_p99)),
                    ("wal_bytes", num_u64(wal_bytes)),
                    ("last_checkpoint_epoch", num_u64(last_checkpoint_epoch)),
                    ("recovery_replayed", num_u64(recovery_replayed)),
                    ("checkpoint_failures", num_u64(checkpoint_failures)),
                    ("peers", peers),
                ];
                if let Some(e) = checkpoint_error {
                    // Present only once a checkpoint has failed, so the
                    // healthy-path response shape is unchanged.
                    fields.push(("checkpoint_last_error", string(e)));
                }
                Ok(ok_response(fields))
            }
        }
    }
}

// Re-exported for front-ends that pretty-print protocol documentation.
pub use protocol::Request as ProtocolRequest;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SelectParams;
    use podium_core::bucket::BucketingConfig;
    use podium_core::weights::{CovScheme, WeightScheme};

    fn service() -> PodiumService {
        service_with(ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            default_deadline_ms: 2000,
            ..ServiceConfig::default()
        })
    }

    fn service_with(config: ServiceConfig) -> PodiumService {
        let mut repo = UserRepository::new();
        let mex = repo.intern_property("avgRating Mexican");
        let thai = repo.intern_property("avgRating Thai");
        for i in 0..16 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, mex, (i as f64) / 16.0).unwrap();
            if i % 4 == 0 {
                repo.set_score(u, thai, 0.85).unwrap();
            }
        }
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        PodiumService::new(repo, &buckets, config)
    }

    fn parse(line: &str) -> Value {
        serde_json::from_str(line).unwrap()
    }

    #[test]
    fn select_round_trip() {
        let svc = service();
        let resp = parse(&svc.handle_line(r#"{"op":"select","budget":3}"#));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(resp.get("epoch").and_then(Value::as_u64), Some(0));
        assert_eq!(
            resp.get("users").and_then(Value::as_array).unwrap().len(),
            3
        );
        assert!(resp.get("score").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn update_bumps_epoch_and_next_select_sees_it() {
        let svc = service();
        let resp = parse(&svc.handle_line(
            r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":0.97}"#,
        ));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(resp.get("epoch").and_then(Value::as_u64), Some(1));
        let resp = parse(&svc.handle_line(r#"{"op":"select","budget":3}"#));
        assert_eq!(resp.get("epoch").and_then(Value::as_u64), Some(1));
        // Creating a brand-new user works too.
        let resp = parse(&svc.handle_line(
            r#"{"op":"update-profile","user":"newcomer","property":"avgRating Thai","score":0.5}"#,
        ));
        assert_eq!(
            resp.get("created_user").and_then(Value::as_bool),
            Some(true)
        );
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("users").and_then(Value::as_u64), Some(17));
        assert_eq!(stats.get("epoch").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn session_refine_round_trip_is_pinned() {
        let svc = service();
        let open = parse(&svc.handle_line(r#"{"op":"open-session"}"#));
        let session = open.get("session").and_then(Value::as_u64).unwrap();
        assert_eq!(open.get("epoch").and_then(Value::as_u64), Some(0));
        // Updates land while the session is open…
        svc.handle_line(
            r#"{"op":"update-profile","user":"u2","property":"avgRating Thai","score":0.9}"#,
        );
        // …but the session still refines against epoch 0.
        let refine = parse(&svc.handle_line(&format!(
            r#"{{"op":"refine","session":{session},"budget":3,"must_not":[0]}}"#
        )));
        assert_eq!(
            refine.get("ok").and_then(Value::as_bool),
            Some(true),
            "{refine:?}"
        );
        assert_eq!(refine.get("epoch").and_then(Value::as_u64), Some(0));
        assert_eq!(
            refine.get("users").and_then(Value::as_array).unwrap().len(),
            3
        );
        let close =
            parse(&svc.handle_line(&format!(r#"{{"op":"close-session","session":{session}}}"#)));
        assert_eq!(close.get("ok").and_then(Value::as_bool), Some(true));
        let gone = parse(&svc.handle_line(&format!(
            r#"{{"op":"refine","session":{session},"budget":3}}"#
        )));
        assert_eq!(
            gone.get("error").and_then(Value::as_str),
            Some("unknown_session")
        );
    }

    #[test]
    fn explain_reports_top_weight_coverage() {
        let svc = service();
        let resp = parse(&svc.handle_line(r#"{"op":"explain","budget":3,"top_k":5}"#));
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{resp:?}"
        );
        let report = resp.get("report").unwrap();
        assert!(report
            .get("top_weight_coverage")
            .and_then(Value::as_f64)
            .is_some());
        assert_eq!(
            report.get("users").and_then(Value::as_array).unwrap().len(),
            3
        );
    }

    #[test]
    fn stats_expose_monotone_cache_counters_and_queue_depth() {
        let svc = service();
        let read = |svc: &PodiumService, field: &str| {
            parse(&svc.handle_line(r#"{"op":"stats"}"#))
                .get(field)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("stats field '{field}' missing"))
        };
        // Presence, before any select ran.
        for field in ["cache_hits", "cache_misses", "queue_depth"] {
            read(&svc, field);
        }
        let mut last_hits = 0;
        let mut last_misses = 0;
        for round in 0..4 {
            svc.handle_line(r#"{"op":"select","budget":3}"#);
            let hits = read(&svc, "cache_hits");
            let misses = read(&svc, "cache_misses");
            assert!(hits >= last_hits, "round {round}: hits went backwards");
            assert!(
                misses >= last_misses,
                "round {round}: misses went backwards"
            );
            last_hits = hits;
            last_misses = misses;
        }
        // Four identical selects against one epoch: one miss, three hits.
        assert_eq!(last_misses, 1);
        assert_eq!(last_hits, 3);
        // Publishing never resets the totals.
        svc.handle_line(
            r#"{"op":"update-profile","user":"u1","property":"avgRating Thai","score":0.4}"#,
        );
        assert_eq!(read(&svc, "cache_hits"), last_hits);
        assert_eq!(read(&svc, "cache_misses"), last_misses);
    }

    #[test]
    fn refine_on_a_retired_epoch_is_a_typed_error() {
        let mut repo = UserRepository::new();
        let mex = repo.intern_property("avgRating Mexican");
        for i in 0..16 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, mex, (i as f64) / 16.0).unwrap();
        }
        let buckets = podium_core::bucket::BucketingConfig::paper_default().bucketize(&repo);
        let svc = PodiumService::new(
            repo,
            &buckets,
            ServiceConfig {
                workers: 1,
                queue_capacity: 8,
                default_deadline_ms: 2000,
                max_session_lag: 2,
                ..ServiceConfig::default()
            },
        );
        let open = parse(&svc.handle_line(r#"{"op":"open-session"}"#));
        let session = open.get("session").and_then(Value::as_u64).unwrap();
        // Two epochs of lag: still within the allowance.
        for _ in 0..2 {
            svc.handle_line(
                r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":0.5}"#,
            );
        }
        let ok = parse(&svc.handle_line(&format!(
            r#"{{"op":"refine","session":{session},"budget":3}}"#
        )));
        assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true), "{ok:?}");
        // A third publish pushes the pin past the allowance.
        svc.handle_line(
            r#"{"op":"update-profile","user":"u2","property":"avgRating Mexican","score":0.6}"#,
        );
        let retired = parse(&svc.handle_line(&format!(
            r#"{{"op":"refine","session":{session},"budget":3}}"#
        )));
        assert_eq!(
            retired.get("error").and_then(Value::as_str),
            Some("session_retired"),
            "{retired:?}"
        );
        // The retirement closed the session server-side.
        let gone =
            parse(&svc.handle_line(&format!(r#"{{"op":"close-session","session":{session}}}"#)));
        assert_eq!(
            gone.get("error").and_then(Value::as_str),
            Some("unknown_session"),
            "{gone:?}"
        );
    }

    #[test]
    fn stale_ok_select_serves_carried_memo_over_the_wire() {
        let svc = service();
        // Epoch 0: memoize the budget-1 selection (u0 — covers the
        // low-Mexican bucket and the Thai group).
        let before = parse(&svc.handle_line(r#"{"op":"select","budget":1}"#));
        let before_score = before.get("score").and_then(Value::as_f64).unwrap();
        // u11 moves between the two *upper* Mexican buckets: both stay
        // non-empty and neither is covered by the memo, so it carries.
        svc.handle_line(
            r#"{"op":"update-profile","user":"u11","property":"avgRating Mexican","score":0.5}"#,
        );
        // Default read mode recomputes and says nothing about staleness.
        let fresh = parse(&svc.handle_line(r#"{"op":"select","budget":2}"#));
        assert!(fresh.get("stale").is_none());
        assert!(fresh.get("certified_score_lb").is_none());
        // Opted-in read is served from the carried epoch-0 memo.
        let stale = parse(&svc.handle_line(r#"{"op":"select","budget":1,"stale_ok":true}"#));
        assert_eq!(stale.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(stale.get("stale").and_then(Value::as_bool), Some(true));
        assert_eq!(stale.get("epoch").and_then(Value::as_u64), Some(0));
        assert_eq!(
            stale.get("certified_score_lb").and_then(Value::as_f64),
            Some(before_score)
        );
        assert_eq!(
            stale.get("users").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("stale_served").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("memos_carried").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn stats_expose_the_epoch_build_breakdown() {
        let svc = service();
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(
            stats.get("publish_mode").and_then(Value::as_str),
            Some("incremental")
        );
        assert_eq!(stats.get("publishes").and_then(Value::as_u64), Some(0));
        svc.handle_line(
            r#"{"op":"update-profile","user":"u11","property":"avgRating Mexican","score":0.5}"#,
        );
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        for field in [
            "publishes",
            "patched_publishes",
            "rebuilt_publishes",
            "memos_carried",
            "memos_invalidated",
            "member_lists_rewritten",
            "reverse_links_rewritten",
            "csr_rows_written",
            "publish_batch_size",
            "csr_patch_micros",
            "full_rebuild_micros",
            "publish_p50_micros",
            "publish_p99_micros",
            "stale_served",
        ] {
            assert!(
                stats.get(field).and_then(Value::as_u64).is_some(),
                "stats field '{field}' missing: {stats:?}"
            );
        }
        assert_eq!(stats.get("publishes").and_then(Value::as_u64), Some(1));
        assert_eq!(
            stats.get("patched_publishes").and_then(Value::as_u64),
            Some(1),
            "a same-universe single-user move patches the CSR"
        );
        assert_eq!(
            stats.get("publish_batch_size").and_then(Value::as_u64),
            Some(1)
        );
        // u11 left one bucket for another: one row and two member lists.
        for (field, work) in [
            ("csr_rows_written", 1),
            ("reverse_links_rewritten", 1),
            ("member_lists_rewritten", 2),
        ] {
            assert_eq!(
                stats.get(field).and_then(Value::as_u64),
                Some(work),
                "{field}"
            );
        }
    }

    #[test]
    fn durable_service_survives_restart() {
        let dir = std::env::temp_dir().join(format!("podium-svc-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            let mut repo = UserRepository::new();
            let mex = repo.intern_property("avgRating Mexican");
            for i in 0..16 {
                let u = repo.add_user(format!("u{i}"));
                repo.set_score(u, mex, (i as f64) / 16.0).unwrap();
            }
            let buckets = BucketingConfig::paper_default().bucketize(&repo);
            (repo, buckets)
        };
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline_ms: 2000,
            ..ServiceConfig::default()
        };
        let (repo, buckets) = build();
        let (svc, report) =
            PodiumService::with_durability(repo, &buckets, config, DurabilityOptions::new(&dir))
                .unwrap();
        assert_eq!(report.recovered_epoch, 0);
        for (i, user) in ["newbie-a", "newbie-b"].iter().enumerate() {
            let resp = parse(&svc.handle_line(&format!(
                r#"{{"op":"update-profile","user":"{user}","property":"avgRating Mexican","score":0.7}}"#
            )));
            assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
            assert_eq!(
                resp.get("epoch").and_then(Value::as_u64),
                Some(i as u64 + 1)
            );
        }
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert!(stats.get("wal_bytes").and_then(Value::as_u64).unwrap() > 0);
        assert_eq!(
            stats.get("recovery_replayed").and_then(Value::as_u64),
            Some(0)
        );
        drop(svc);

        let (repo, buckets) = build();
        let (svc, report) =
            PodiumService::with_durability(repo, &buckets, config, DurabilityOptions::new(&dir))
                .unwrap();
        assert_eq!(report.replayed_frames, 2);
        assert_eq!(report.recovered_epoch, 2);
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("epoch").and_then(Value::as_u64), Some(2));
        assert_eq!(stats.get("users").and_then(Value::as_u64), Some(18));
        assert_eq!(
            stats.get("recovery_replayed").and_then(Value::as_u64),
            Some(2)
        );
        // The recovered service keeps appending where the log left off.
        let resp = parse(&svc.handle_line(
            r#"{"op":"update-profile","user":"newbie-c","property":"avgRating Mexican","score":0.2}"#,
        ));
        assert_eq!(resp.get("epoch").and_then(Value::as_u64), Some(3));
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_rejected_update_never_reaches_the_wal() {
        let dir = std::env::temp_dir().join(format!("podium-svc-prevalid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            let mut repo = UserRepository::new();
            let mex = repo.intern_property("avgRating Mexican");
            for i in 0..16 {
                let u = repo.add_user(format!("u{i}"));
                repo.set_score(u, mex, (i as f64) / 16.0).unwrap();
            }
            let buckets = BucketingConfig::paper_default().bucketize(&repo);
            (repo, buckets)
        };
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline_ms: 2000,
            ..ServiceConfig::default()
        };
        let (repo, buckets) = build();
        let (svc, _) =
            PodiumService::with_durability(repo, &buckets, config, DurabilityOptions::new(&dir))
                .unwrap();
        // Rejected updates (unknown property, bad score, bad retraction)
        // are validated before the WAL append, so none of them leaves a
        // frame that replay would quarantine.
        for line in [
            r#"{"op":"update-profile","user":"u1","property":"never-bucketed","score":0.5}"#,
            r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":7.0}"#,
            r#"{"op":"update-profile","user":"nobody","property":"avgRating Mexican","score":null}"#,
        ] {
            let resp = parse(&svc.handle_line(line));
            assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        }
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("wal_bytes").and_then(Value::as_u64), Some(0));
        assert_eq!(stats.get("epoch").and_then(Value::as_u64), Some(0));
        // A valid update still logs and publishes…
        let resp = parse(&svc.handle_line(
            r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":0.5}"#,
        ));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        drop(svc);
        // …and the restart replays exactly that one frame.
        let (repo, buckets) = build();
        let (_svc, report) =
            PodiumService::with_durability(repo, &buckets, config, DurabilityOptions::new(&dir))
                .unwrap();
        assert_eq!(report.replayed_frames, 1);
        assert!(report.quarantined.is_none(), "{:?}", report.quarantined);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoints_are_counted_in_stats() {
        let dir = std::env::temp_dir().join(format!("podium-svc-ckfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory squatting on the checkpoint's tmp path makes the
        // tmp-file create fail; with checkpoint_every=1 the first update
        // attempts a checkpoint at seq 1.
        std::fs::create_dir_all(dir.join("checkpoint-1.json.tmp")).unwrap();
        let mut repo = UserRepository::new();
        let mex = repo.intern_property("avgRating Mexican");
        for i in 0..8 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, mex, (i as f64) / 8.0).unwrap();
        }
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let opts = DurabilityOptions {
            checkpoint_every: 1,
            ..DurabilityOptions::new(&dir)
        };
        let (svc, _) = PodiumService::with_durability(
            repo,
            &buckets,
            ServiceConfig {
                workers: 1,
                queue_capacity: 8,
                default_deadline_ms: 2000,
                ..ServiceConfig::default()
            },
            opts,
        )
        .unwrap();
        // The update is still acknowledged — checkpoints are accelerators —
        // but the failure is counted and described instead of swallowed.
        let resp = parse(&svc.handle_line(
            r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":0.9}"#,
        ));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(
            stats.get("checkpoint_failures").and_then(Value::as_u64),
            Some(1)
        );
        assert!(
            stats
                .get("checkpoint_last_error")
                .and_then(Value::as_str)
                .is_some(),
            "{stats:?}"
        );
        assert_eq!(
            stats.get("last_checkpoint_epoch").and_then(Value::as_u64),
            Some(0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peer_registry_evicts_least_recently_active_at_cap() {
        let svc = service();
        for i in 0..PEER_REGISTRY_CAP {
            svc.handle_line_from(&format!("peer-{i}"), r#"{"op":"stats"}"#);
        }
        // Touch the oldest-inserted peer, then overflow the cap: eviction
        // must hit peer-1 (now the stalest), not the still-active peer-0.
        svc.handle_line_from("peer-0", r#"{"op":"stats"}"#);
        svc.handle_line_from("peer-new", r#"{"op":"stats"}"#);
        let peers = svc.peer_health();
        assert_eq!(peers.len(), PEER_REGISTRY_CAP);
        assert!(peers.iter().any(|(n, _)| n == "peer-0"));
        assert!(peers.iter().any(|(n, _)| n == "peer-new"));
        assert!(!peers.iter().any(|(n, _)| n == "peer-1"));
    }

    #[test]
    fn peer_health_degrades_and_recovers_in_stats() {
        let svc = service();
        for _ in 0..PEER_DEGRADE_AFTER {
            svc.handle_line_from("10.0.0.9:1234", "garbage");
        }
        svc.handle_line_from("10.0.0.7:5678", r#"{"op":"select","budget":3}"#);
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        let peers = stats.get("peers").and_then(Value::as_array).unwrap();
        assert_eq!(peers.len(), 2);
        let find = |name: &str| {
            peers
                .iter()
                .find(|p| p.get("peer").and_then(Value::as_str) == Some(name))
                .unwrap_or_else(|| panic!("peer {name} missing: {peers:?}"))
        };
        let bad = find("10.0.0.9:1234");
        assert_eq!(bad.get("state").and_then(Value::as_str), Some("degraded"));
        assert_eq!(
            bad.get("consecutive_failures").and_then(Value::as_u64),
            Some(u64::from(PEER_DEGRADE_AFTER))
        );
        let good = find("10.0.0.7:5678");
        assert_eq!(good.get("state").and_then(Value::as_str), Some("ok"));
        assert_eq!(good.get("errors").and_then(Value::as_u64), Some(0));
        // One success flips the degraded peer back.
        svc.handle_line_from("10.0.0.9:1234", r#"{"op":"select","budget":3}"#);
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        let peers = stats.get("peers").and_then(Value::as_array).unwrap();
        let back = peers
            .iter()
            .find(|p| p.get("peer").and_then(Value::as_str) == Some("10.0.0.9:1234"))
            .unwrap();
        assert_eq!(back.get("state").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            back.get("consecutive_failures").and_then(Value::as_u64),
            Some(0)
        );
    }

    #[test]
    fn constrained_select_round_trip_enforces_quotas_and_types_infeasible() {
        let svc = service();
        let snap = svc.store().load();
        // Smallest group: forcing its floor is satisfiable, exceeding
        // its size is not.
        let (gid, size) = snap
            .groups()
            .iter()
            .map(|(g, grp)| (g, grp.members.len()))
            .min_by_key(|&(_, s)| s)
            .expect("seeded repo has groups");
        let resp = parse(&svc.handle_line(&format!(
            r#"{{"op":"select","budget":3,"constraints":{{"quotas":[{{"group":{},"min_count":1}}],"anneal":{{"seed":7,"steps":50,"t0":0.5,"cooling":0.9}}}}}}"#,
            gid.0
        )));
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{resp:?}"
        );
        assert_eq!(
            resp.get("users").and_then(Value::as_array).map(Vec::len),
            Some(3)
        );
        // Identical constrained request: memo hit on the quota-hashed key.
        svc.handle_line(&format!(
            r#"{{"op":"select","budget":3,"constraints":{{"quotas":[{{"group":{},"min_count":1}}],"anneal":{{"seed":7,"steps":50,"t0":0.5,"cooling":0.9}}}}}}"#,
            gid.0
        ));
        let stats = parse(&svc.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(stats.get("cache_hits").and_then(Value::as_u64), Some(1));
        // A floor the group cannot meet is `infeasible`, not bad_request.
        let resp = parse(&svc.handle_line(&format!(
            r#"{{"op":"select","budget":{},"constraints":{{"quotas":[{{"group":{},"min_count":{}}}]}}}}"#,
            size + 1,
            gid.0,
            size + 1
        )));
        assert_eq!(
            resp.get("error").and_then(Value::as_str),
            Some("infeasible"),
            "{resp:?}"
        );
        // A malformed quota (ratio out of range) is the caller's bug.
        let resp = parse(&svc.handle_line(
            r#"{"op":"select","budget":3,"constraints":{"quotas":[{"group":0,"min_ratio":1.5}]}}"#,
        ));
        assert_eq!(
            resp.get("error").and_then(Value::as_str),
            Some("bad_request"),
            "{resp:?}"
        );
    }

    #[test]
    fn session_pinned_selects_serve_the_opening_epoch() {
        let svc = service();
        let open = parse(&svc.handle_line(r#"{"op":"open-session"}"#));
        let session = open.get("session").and_then(Value::as_u64).unwrap();
        svc.handle_line(
            r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":0.97}"#,
        );
        // Unpinned reads see the new epoch; the pinned one stays on 0.
        let fresh = parse(&svc.handle_line(r#"{"op":"select","budget":3}"#));
        assert_eq!(fresh.get("epoch").and_then(Value::as_u64), Some(1));
        let pinned = parse(&svc.handle_line(&format!(
            r#"{{"op":"select","budget":3,"session":{session}}}"#
        )));
        assert_eq!(
            pinned.get("ok").and_then(Value::as_bool),
            Some(true),
            "{pinned:?}"
        );
        assert_eq!(pinned.get("epoch").and_then(Value::as_u64), Some(0));
        // Constrained + pinned compose.
        let constrained = parse(&svc.handle_line(&format!(
            r#"{{"op":"select","budget":3,"session":{session},"constraints":{{"quotas":[{{"group":0,"min_count":1}}]}}}}"#
        )));
        assert_eq!(
            constrained.get("ok").and_then(Value::as_bool),
            Some(true),
            "{constrained:?}"
        );
        assert_eq!(constrained.get("epoch").and_then(Value::as_u64), Some(0));
        // Unknown sessions are a typed error.
        let gone = parse(&svc.handle_line(r#"{"op":"select","budget":3,"session":99999}"#));
        assert_eq!(
            gone.get("error").and_then(Value::as_str),
            Some("unknown_session")
        );
    }

    #[test]
    fn session_pinned_select_on_a_retired_epoch_is_typed_and_closes() {
        let mut repo = UserRepository::new();
        let mex = repo.intern_property("avgRating Mexican");
        for i in 0..16 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, mex, (i as f64) / 16.0).unwrap();
        }
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let svc = PodiumService::new(
            repo,
            &buckets,
            ServiceConfig {
                workers: 1,
                queue_capacity: 8,
                default_deadline_ms: 2000,
                max_session_lag: 0,
                ..ServiceConfig::default()
            },
        );
        let open = parse(&svc.handle_line(r#"{"op":"open-session"}"#));
        let session = open.get("session").and_then(Value::as_u64).unwrap();
        svc.handle_line(
            r#"{"op":"update-profile","user":"u1","property":"avgRating Mexican","score":0.5}"#,
        );
        let retired = parse(&svc.handle_line(&format!(
            r#"{{"op":"select","budget":3,"session":{session}}}"#
        )));
        assert_eq!(
            retired.get("error").and_then(Value::as_str),
            Some("session_retired"),
            "{retired:?}"
        );
        let gone =
            parse(&svc.handle_line(&format!(r#"{{"op":"close-session","session":{session}}}"#)));
        assert_eq!(
            gone.get("error").and_then(Value::as_str),
            Some("unknown_session"),
            "retirement closed the session server-side"
        );
    }

    /// One deadline rule: with a zero default deadline, every memo miss —
    /// plain, constrained, session-pinned, and `explain`'s — answers
    /// `deadline_exceeded`, while a memoized select is still served.
    #[test]
    fn zero_deadline_fails_every_memo_miss_but_serves_memo_hits() {
        let svc = service_with(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            default_deadline_ms: 0,
            ..ServiceConfig::default()
        });
        let open = parse(&svc.handle_line(r#"{"op":"open-session"}"#));
        let session = open.get("session").and_then(Value::as_u64).unwrap();
        for line in [
            r#"{"op":"select","budget":3}"#.to_owned(),
            r#"{"op":"select","budget":3,"constraints":{"quotas":[{"group":0,"min_count":1}]}}"#
                .to_owned(),
            format!(r#"{{"op":"select","budget":3,"session":{session}}}"#),
            r#"{"op":"explain","budget":3}"#.to_owned(),
        ] {
            let resp = parse(&svc.handle_line(&line));
            assert_eq!(
                resp.get("error").and_then(Value::as_str),
                Some("deadline_exceeded"),
                "{line}: {resp:?}"
            );
        }
        // Memoize budget 2 on the current epoch; the service then serves
        // it past the deadline, to plain selects and `explain` alike.
        let params = SelectParams {
            budget: 2,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        svc.store().load().select(&params, None).unwrap();
        for line in [
            r#"{"op":"select","budget":2}"#,
            r#"{"op":"explain","budget":2}"#,
        ] {
            let resp = parse(&svc.handle_line(line));
            assert_eq!(
                resp.get("ok").and_then(Value::as_bool),
                Some(true),
                "{line}: {resp:?}"
            );
        }
    }

    /// A pinned select serves its session's epoch even under `stale_ok`:
    /// a memo carried into that epoch is never served to it.
    #[test]
    fn pinned_select_with_stale_ok_stays_fresh_on_the_pinned_epoch() {
        let svc = service();
        // Memoize budget 1 on epoch 0; u11's move carries it into epoch 1
        // (see `stale_ok_select_serves_carried_memo_over_the_wire`).
        svc.handle_line(r#"{"op":"select","budget":1}"#);
        svc.handle_line(
            r#"{"op":"update-profile","user":"u11","property":"avgRating Mexican","score":0.5}"#,
        );
        let open = parse(&svc.handle_line(r#"{"op":"open-session"}"#));
        let session = open.get("session").and_then(Value::as_u64).unwrap();
        assert_eq!(open.get("epoch").and_then(Value::as_u64), Some(1));
        let unpinned = parse(&svc.handle_line(r#"{"op":"select","budget":1,"stale_ok":true}"#));
        assert_eq!(unpinned.get("stale").and_then(Value::as_bool), Some(true));
        assert_eq!(unpinned.get("epoch").and_then(Value::as_u64), Some(0));
        let pinned = parse(&svc.handle_line(&format!(
            r#"{{"op":"select","budget":1,"stale_ok":true,"session":{session}}}"#
        )));
        assert_eq!(
            pinned.get("ok").and_then(Value::as_bool),
            Some(true),
            "{pinned:?}"
        );
        assert_eq!(pinned.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(pinned.get("stale").and_then(Value::as_bool), Some(false));
        assert!(pinned.get("certified_score_lb").is_some());
    }

    #[test]
    fn malformed_lines_never_panic() {
        let svc = service();
        for line in [
            "",
            "garbage",
            r#"{"op":"select"}"#,
            r#"{"op":"refine","session":99,"budget":3}"#,
            r#"{"op":"update-profile","user":"u1","property":"nope","score":0.5}"#,
            r#"{"op":"select","budget":0}"#,
        ] {
            let resp = parse(&svc.handle_line(line));
            assert_eq!(
                resp.get("ok").and_then(Value::as_bool),
                Some(false),
                "line {line}"
            );
        }
    }
}
