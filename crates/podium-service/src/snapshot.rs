//! Versioned repository snapshots: immutable epochs published by a single
//! writer, read lock-free-ish by many selectors.
//!
//! A [`Snapshot`] freezes everything a selection needs — the repository
//! (for names and explanations), the [`GroupSet`], and the prebuilt
//! [`CsrGraph`] — under one epoch number. Readers clone an
//! `Arc<Snapshot>` out of the [`SnapshotStore`] and work against it for
//! the rest of the request, so a concurrently published epoch never
//! changes data under a running selection.
//!
//! The [`RepositoryWriter`] is the only mutator. It applies profile
//! updates through [`IncrementalGroups`] (point updates, §9's "incorporate
//! data updates" scenario), then builds the next snapshot on the buffers
//! of a retired epoch whose readers have all finished and swaps it into
//! the store. In the default [`PublishMode::Incremental`] that build is a
//! patch sized by the epoch's delta: the CSR is patched from the previous
//! epoch's, the recycled group set and repository copy are caught up
//! through the deltas of the epochs they missed, and unchanged rows are
//! bulk-copied — with group ids remapped when a slot emptied or filled.
//! Only an epoch that adds users rebuilds. Selection hot paths never wait
//! on the writer; the store's `RwLock` is held only for the duration of an
//! `Arc` clone.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use podium_core::bucket::PropertyBuckets;
use podium_core::engine::{
    constraint_fingerprint, select, AnnealSchedule, CsrGraph, Quota, QuotaSet, SelectSpec,
    Strategy,
};
use podium_core::greedy::Selection;
use podium_core::group::GroupSet;
use podium_core::ids::{PropertyId, UserId};
use podium_core::incremental::{EpochDelta, IncrementalGroups};
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};

use crate::error::ServiceError;
use crate::poison;

/// Parameters of one `select` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectParams {
    /// Budget `B` — the number of users to select.
    pub budget: usize,
    /// Group weight scheme.
    pub weight: WeightScheme,
    /// Coverage scheme.
    pub cov: CovScheme,
    /// Fingerprint of the request's constraint block
    /// ([`SelectConstraints::fingerprint`]); `0` for an unconstrained
    /// select. Part of the memo key, so a constrained and an
    /// unconstrained select at the same epoch — or two selects under
    /// different quotas — never alias in the select cache.
    pub quota_hash: u64,
}

/// The constraint block of a `select` request: hard per-group quota
/// windows, optionally refined by a seeded annealing pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectConstraints {
    /// Quota windows, one per group (validated in the core layer).
    pub quotas: Vec<Quota>,
    /// Anneal schedule; `None` serves the greedy solution as-is.
    pub anneal: Option<AnnealSchedule>,
}

impl SelectConstraints {
    /// Stable fingerprint for memo keys; `0` iff the block constrains
    /// nothing (see [`podium_core::engine::constraint_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        constraint_fingerprint(&self.quotas, self.anneal.as_ref())
    }
}

/// A completed selection together with the epoch it was computed against.
#[derive(Debug, Clone)]
pub struct SelectOutcome {
    /// Epoch of the snapshot the selection ran on.
    pub epoch: u64,
    /// The greedy selection.
    pub selection: Selection<f64>,
    /// Selected user names, resolved against the same snapshot.
    pub names: Vec<String>,
    /// Whether this outcome was served from the snapshot's memo cache
    /// (`true`) or computed fresh (`false`). Service-level cumulative
    /// cache counters are derived from this flag.
    pub cache_hit: bool,
    /// `true` when the outcome was carried forward from an earlier epoch
    /// and served under the bounded-staleness read mode (`stale_ok`):
    /// [`SelectOutcome::epoch`] then names the epoch the selection was
    /// *computed* on, and [`SelectOutcome::certified_score_lb`] is the
    /// score the selection is certified to still achieve on the serving
    /// epoch. Always `false` on the default read path.
    pub stale: bool,
    /// Certified lower bound on the selection's score against the epoch it
    /// was served from. Equal to `selection.score` — exact for a fresh
    /// computation; for a carried outcome the bound holds because carry is
    /// only permitted when no group the selection covers was dirtied by
    /// any intervening delta and no intervening epoch shifted group ids
    /// (covered contributions are unchanged, and newly grown uncovered
    /// groups can only add score).
    pub certified_score_lb: f64,
}

/// How the single writer materializes each published epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PublishMode {
    /// Delta-aware publishing: patch the previous epoch's CSR onto a
    /// recycled buffer, catch the recycled group set and repository copy
    /// up through the deltas they missed, and carry forward unaffected
    /// memoized selects. The published snapshots are bit-identical to
    /// [`PublishMode::FullRebuild`]'s.
    #[default]
    Incremental,
    /// Rebuild every published structure from the incremental state and
    /// clone the repository afresh — the honest baseline the drift
    /// benchmark compares against. No memo carry.
    FullRebuild,
}

/// Build breakdown of one published epoch, exposed through the `stats` op
/// and the drift benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochBuildStats {
    /// Updates applied since the previous publish (the batch this epoch
    /// absorbed).
    pub publish_batch_size: u64,
    /// Microseconds spent patching the previous CSR in place; `0` when
    /// this epoch's CSR was fully rebuilt.
    pub csr_patch_micros: u64,
    /// Microseconds spent rebuilding the CSR from scratch; `0` when this
    /// epoch's CSR was patched.
    pub full_rebuild_micros: u64,
    /// Memoized selects carried forward into this epoch.
    pub memos_carried: u64,
    /// Memoized selects invalidated by this epoch's delta.
    pub memos_invalidated: u64,
    /// Microseconds from publish start until the snapshot was assembled.
    pub publish_micros: u64,
    /// Whether the CSR patch path ran (vs the full-rebuild fallback).
    pub patched: bool,
    /// Whether the group set was patched (vs the full O(edges) rebuild):
    /// a recycled buffer caught up through the deltas of the epochs it is
    /// behind, or else a bulk copy of the previous epoch's caught up
    /// through this epoch's delta.
    pub groups_patched: bool,
    /// Whether the repository copy was produced by replaying the logged
    /// update batches onto a recycled copy (vs a full O(users) copy).
    pub repo_replayed: bool,
    /// Group member lists the group set build wrote element by element:
    /// the dirty groups of the patched span, or every group on a rebuild.
    pub member_lists_rewritten: u64,
    /// Reverse-link rows the group set build wrote element by element: the
    /// users the patched span changed, or every user on a rebuild. Rows
    /// only renumbered because ids shifted are not counted.
    pub reverse_links_rewritten: u64,
    /// CSR user rows written element by element: this epoch's changed
    /// users when patched, every user on a rebuild. Rows only renumbered
    /// because ids shifted are not counted.
    pub csr_rows_written: u64,
}

/// Cumulative writer-side publish statistics.
#[derive(Debug, Clone, Default)]
pub struct PublishStats {
    /// Epochs published.
    pub publishes: u64,
    /// Total updates absorbed across all publishes.
    pub batched_updates: u64,
    /// Publishes that took the CSR patch path.
    pub patched_publishes: u64,
    /// Publishes that fell back to a full rebuild.
    pub rebuilt_publishes: u64,
    /// Memoized selects carried forward, cumulative.
    pub memos_carried: u64,
    /// Memoized selects invalidated, cumulative.
    pub memos_invalidated: u64,
    /// [`EpochBuildStats::member_lists_rewritten`], cumulative.
    pub member_lists_rewritten: u64,
    /// [`EpochBuildStats::reverse_links_rewritten`], cumulative.
    pub reverse_links_rewritten: u64,
    /// [`EpochBuildStats::csr_rows_written`], cumulative.
    pub csr_rows_written: u64,
    /// Breakdown of the most recent publish.
    pub last: EpochBuildStats,
    /// Ring buffer of recent publish latencies in microseconds.
    latencies: Vec<u64>,
    next: usize,
}

/// Publish-latency samples retained for percentile reporting.
const LATENCY_RING_CAP: usize = 512;

/// Elapsed microseconds as `u64`, saturating at ~584k years.
pub(crate) fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl PublishStats {
    fn record(&mut self, build: EpochBuildStats) {
        self.publishes += 1;
        self.batched_updates += build.publish_batch_size;
        if build.patched {
            self.patched_publishes += 1;
        } else {
            self.rebuilt_publishes += 1;
        }
        self.memos_carried += build.memos_carried;
        self.memos_invalidated += build.memos_invalidated;
        self.member_lists_rewritten += build.member_lists_rewritten;
        self.reverse_links_rewritten += build.reverse_links_rewritten;
        self.csr_rows_written += build.csr_rows_written;
        self.last = build;
        if self.latencies.len() < LATENCY_RING_CAP {
            self.latencies.push(build.publish_micros);
        } else {
            // podium-lint: allow(index) — next is reduced modulo the ring capacity just below
            self.latencies[self.next] = build.publish_micros;
        }
        self.next = (self.next + 1) % LATENCY_RING_CAP;
    }

    /// `(p50, p99)` of the retained publish latencies, in microseconds.
    /// `(0, 0)` before the first publish.
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        (rank_percentile(&sorted, 50), rank_percentile(&sorted, 99))
    }
}

/// The `percent`-th percentile of an ascending sample by floor rank: the
/// element at index `(len − 1) · percent / 100`; 0 for an empty sample.
/// Every latency percentile the workspace reports uses this one rule.
pub fn rank_percentile(sorted: &[u64], percent: usize) -> u64 {
    let idx = sorted.len().saturating_sub(1) * percent.min(100) / 100;
    sorted.get(idx).copied().unwrap_or(0)
}

/// An immutable, epoch-numbered view of the repository and its derived
/// selection structures.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    repo: UserRepository,
    groups: GroupSet,
    csr: CsrGraph,
    /// Prebuilt LBS weight vector — the experimental default scheme, so
    /// the per-request cost is one memcpy instead of a group scan.
    lbs_weights: Vec<f64>,
    /// Memoized select outcomes for this epoch, keyed by the full request
    /// parameters. Sound because the snapshot is immutable and lazy greedy
    /// is deterministic: identical parameters against the same epoch can
    /// only ever produce the identical selection. Serving workloads repeat
    /// a small set of parameter combinations, so after one computation per
    /// epoch the hot path degenerates to a lookup + clone; publishing a new
    /// epoch starts from an empty cache, which is exactly the invalidation
    /// the versioning scheme exists to provide.
    select_cache: Mutex<Vec<(SelectParams, SelectOutcome)>>,
    /// Memoized selects carried forward from earlier epochs whose certified
    /// score lower bound is unaffected by the intervening deltas. Served
    /// only under the `stale_ok` read mode; immutable after assembly.
    carried: Vec<(SelectParams, SelectOutcome)>,
}

/// Cap on memoized outcomes per snapshot: parameter combinations are few
/// (budget × weight × cov), so a short linear-scanned list suffices.
const SELECT_CACHE_CAP: usize = 16;

/// Everything the writer hands to [`Snapshot::assemble`] besides the epoch.
#[derive(Debug, Default)]
struct SnapshotParts {
    repo: UserRepository,
    groups: GroupSet,
    csr: CsrGraph,
    carried: Vec<(SelectParams, SelectOutcome)>,
}

impl Snapshot {
    fn assemble(epoch: u64, parts: SnapshotParts) -> Self {
        let lbs_weights = WeightScheme::LinearBySize.weights(&parts.groups);
        Self {
            epoch,
            repo: parts.repo,
            groups: parts.groups,
            csr: parts.csr,
            lbs_weights,
            select_cache: Mutex::new(Vec::new()),
            carried: parts.carried,
        }
    }

    /// The snapshot's epoch: 0 for the initial load, incremented by one
    /// per published update batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen repository.
    pub fn repo(&self) -> &UserRepository {
        &self.repo
    }

    /// The frozen group set.
    pub fn groups(&self) -> &GroupSet {
        &self.groups
    }

    /// The prebuilt CSR adjacency of [`Snapshot::groups`].
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Builds the weight vector for `scheme` — prebuilt for LBS.
    fn weights_for(&self, scheme: WeightScheme) -> Vec<f64> {
        match scheme {
            WeightScheme::LinearBySize => self.lbs_weights.clone(),
            WeightScheme::Identical => vec![1.0; self.groups.len()],
        }
    }

    /// A plain (unconstrained, always-fresh) select: [`Snapshot::serve`]
    /// with no constraints and `stale_ok = false`.
    pub fn select(
        &self,
        params: &SelectParams,
        deadline: Option<Instant>,
    ) -> Result<SelectOutcome, ServiceError> {
        self.serve(params, None, deadline, false)
    }

    /// The one select path: plain, quota-constrained (`constraints`, whose
    /// fingerprint `params.quota_hash` must be), and bounded-staleness
    /// (`stale_ok`) selects all run here.
    ///
    /// A memo hit on this epoch is exact and is served even past
    /// `deadline` — the deadline bounds computation, and a hit costs none.
    /// Under `stale_ok` a memo carried forward from an earlier epoch may
    /// be served next: the outcome is tagged `stale`, keeps the epoch it
    /// was computed on, and certifies
    /// [`SelectOutcome::certified_score_lb`] against this epoch.
    /// Constrained memos are never carried, so a constrained key always
    /// recomputes here. A miss runs CELF on the epoch's CSR, polling
    /// `deadline` before the round-0 scan and after every commit;
    /// a deadline hit maps to [`ServiceError::DeadlineExceeded`] and the
    /// partial prefix is dropped, so no quota floor is ever stranded.
    /// The annealing pass, when scheduled, is step-bounded and runs to
    /// completion.
    pub fn serve(
        &self,
        params: &SelectParams,
        constraints: Option<&SelectConstraints>,
        deadline: Option<Instant>,
        stale_ok: bool,
    ) -> Result<SelectOutcome, ServiceError> {
        debug_assert_eq!(
            params.quota_hash,
            constraints.map_or(0, SelectConstraints::fingerprint),
            "quota hash must fingerprint the constraint block"
        );
        if params.budget == 0 {
            return Err(ServiceError::Core(
                podium_core::error::CoreError::ZeroBudget,
            ));
        }
        if let Some(mut hit) = self.cached(params) {
            hit.cache_hit = true;
            return Ok(hit);
        }
        if stale_ok {
            if let Some((_, carried)) = self.carried.iter().find(|(p, _)| p == params) {
                let mut outcome = carried.clone();
                outcome.cache_hit = true;
                outcome.stale = true;
                return Ok(outcome);
            }
        }
        let quotas = constraints
            .map(|c| QuotaSet::build(c.quotas.clone(), self.groups.len(), params.budget))
            .transpose()
            .map_err(|e| ServiceError::BadRequest(format!("'constraints': {e}")))?;
        let stop = move |_: usize| deadline.is_some_and(|d| Instant::now() >= d);
        let spec = SelectSpec {
            quotas: quotas.as_ref(),
            anneal: constraints.and_then(|c| c.anneal.as_ref()),
            stop: Some(&stop),
            ..SelectSpec::new(params.budget, Strategy::Lazy)
        };
        let weights = self.weights_for(params.weight);
        let covs = params.cov.cov(&self.groups, params.budget);
        let inst = DiversificationInstance::new(&self.groups, weights, covs);
        let selection = select(&inst, &self.csr, &spec)?;
        let names = self.user_names(&selection.users);
        let score = selection.score;
        let outcome = SelectOutcome {
            epoch: self.epoch,
            selection,
            names,
            cache_hit: false,
            stale: false,
            certified_score_lb: score,
        };
        self.memoize(params, &outcome);
        Ok(outcome)
    }

    /// All memoized outcomes reachable on this epoch: fresh entries first,
    /// then still-valid carried ones (fresh wins on parameter collisions).
    fn memo_entries(&self) -> Vec<(SelectParams, SelectOutcome)> {
        let mut out = poison::recover(self.select_cache.lock()).clone();
        for (p, o) in &self.carried {
            if !out.iter().any(|(q, _)| q == p) {
                out.push((*p, o.clone()));
            }
        }
        out
    }

    fn cached(&self, params: &SelectParams) -> Option<SelectOutcome> {
        let cache = poison::recover(self.select_cache.lock());
        cache
            .iter()
            .find(|(p, _)| p == params)
            .map(|(_, outcome)| outcome.clone())
    }

    fn memoize(&self, params: &SelectParams, outcome: &SelectOutcome) {
        let mut cache = poison::recover(self.select_cache.lock());
        if cache.iter().any(|(p, _)| p == params) {
            return; // a concurrent worker raced us to the same miss
        }
        if cache.len() >= SELECT_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((*params, outcome.clone()));
    }

    /// Resolves user ids to names against this snapshot's repository.
    pub fn user_names(&self, users: &[UserId]) -> Vec<String> {
        users
            .iter()
            .map(|&u| {
                self.repo
                    .user_name(u)
                    .map(str::to_owned)
                    .unwrap_or_else(|_| format!("<user {u}>"))
            })
            .collect()
    }
}

/// Holder of the current snapshot; cheap concurrent reads, swap-on-publish.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotStore {
    fn new(initial: Arc<Snapshot>) -> Self {
        Self {
            current: RwLock::new(initial),
        }
    }

    /// Clones out the current snapshot. The read lock is held only for the
    /// `Arc` clone; the caller then works against immutable data.
    pub fn load(&self) -> Arc<Snapshot> {
        poison::recover(self.current.read()).clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Swaps in a new snapshot, returning the previous one.
    fn swap(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        let mut guard = poison::recover(self.current.write());
        std::mem::replace(&mut *guard, next)
    }
}

/// One profile update: set (or retract, with `score: None`) the value of
/// `property` in `user`'s profile. Unknown users are created when setting
/// a score; unknown *properties* are rejected — the bucketing is fixed at
/// fit time (grouping runs offline, §7), so a property that was never
/// bucketed can form no groups. Re-fit and restart to add properties.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileUpdate {
    /// Target user name.
    pub user: String,
    /// Property label, e.g. `"avgRating Mexican"`.
    pub property: String,
    /// `Some(score)` sets; `None` retracts.
    pub score: Option<f64>,
}

/// What applying one update did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Whether a new user record was created for the update.
    pub created_user: bool,
    /// Whether the update changed the group structure (moved the user
    /// between buckets) as opposed to a same-bucket score tweak.
    pub regrouped: bool,
}

/// The single mutator of the repository: applies updates incrementally and
/// publishes immutable snapshots.
///
/// Not `Sync` by design — wrap it in a `Mutex` (as
/// [`crate::service::PodiumService`] does) if updates arrive from several
/// connections; the point is that *publishing* is single-writer while
/// reads scale out through the [`SnapshotStore`].
#[derive(Debug)]
pub struct RepositoryWriter {
    store: Arc<SnapshotStore>,
    repo: UserRepository,
    inc: IncrementalGroups,
    epoch: u64,
    mode: PublishMode,
    /// Updates applied since the last publish (the next epoch's batch).
    pending_updates: u64,
    /// Retired epochs whose buffers we may reclaim once readers drop
    /// their references.
    retired: Vec<Arc<Snapshot>>,
    /// Reclaimed snapshot parts (group set, CSR, repository copy), reused
    /// on the next publish to avoid re-allocating the full membership
    /// structure, adjacency, and repository copy every epoch.
    recycled: Vec<RecycledParts>,
    /// Resolved updates applied since the last publish (the next epoch's
    /// batch), kept so recycled repository copies can be caught up by
    /// replay instead of a full copy. Incremental mode only.
    pending_log: Vec<LoggedUpdate>,
    /// The pending batch outgrew [`UPDATE_LOG_CAP`]; its log was dropped
    /// and the next publish falls back to the full repository copy.
    pending_log_overflow: bool,
    /// Per-epoch publish records (delta + update log), newest last, kept
    /// while a recycled or still-retired buffer might need the span to be
    /// patched or replayed up to the current state.
    history: VecDeque<PublishRecord>,
    stats: PublishStats,
}

/// Reusable buffers reclaimed from a retired snapshot.
#[derive(Debug, Default)]
struct RecycledParts {
    /// Epoch the buffers were published at — the base the group-set patch
    /// and repository replay catch up from. `None` for fresh buffers.
    epoch: Option<u64>,
    groups: GroupSet,
    csr: CsrGraph,
    repo: UserRepository,
}

/// One applied profile update with its names resolved to ids, as logged
/// for repository replay.
#[derive(Debug, Clone)]
struct LoggedUpdate {
    user: UserId,
    property: PropertyId,
    /// `Some` sets, `None` retracts — already validated by `apply`.
    score: Option<f64>,
    /// `Some(name)` when the update created the user record.
    created: Option<String>,
}

/// What one published epoch changed — enough to catch a buffer that is
/// several epochs stale up to the present.
#[derive(Debug)]
struct PublishRecord {
    epoch: u64,
    /// The epoch's delta: its changed users and dirty slots, and whether
    /// it added users or shifted group ids.
    delta: EpochDelta,
    /// The epoch's update batch; `None` when it overflowed the log cap.
    updates: Option<Vec<LoggedUpdate>>,
}

/// Carried memos older than this many epochs are invalidated even if no
/// delta touched their covered groups — the bounded part of bounded
/// staleness.
const MEMO_CARRY_MAX_LAG: u64 = 64;

/// Cap on pooled snapshot parts; beyond double buffering there is nothing
/// to gain.
const RECYCLE_CAP: usize = 2;

/// Largest update batch kept for repository replay: beyond this, catching
/// a recycled copy up by replay stops beating the allocation-reusing full
/// copy, so the log is dropped and the copy path runs instead.
const UPDATE_LOG_CAP: usize = 1024;

/// Publish records retained for stale-buffer catch-up. Recycled buffers
/// are at most a few epochs behind in the steady state; a buffer older
/// than the window is overwritten by a bulk copy of the previous epoch.
const HISTORY_CAP: usize = 16;

impl RepositoryWriter {
    /// Builds the initial epoch-0 snapshot from a loaded repository and a
    /// fixed bucketing, returning the shared store and the writer, in the
    /// default [`PublishMode::Incremental`].
    pub fn new(repo: UserRepository, buckets: &PropertyBuckets) -> (Arc<SnapshotStore>, Self) {
        Self::with_mode(repo, buckets, PublishMode::default())
    }

    /// [`RepositoryWriter::new`] with an explicit publish mode.
    pub fn with_mode(
        repo: UserRepository,
        buckets: &PropertyBuckets,
        mode: PublishMode,
    ) -> (Arc<SnapshotStore>, Self) {
        let inc = IncrementalGroups::build(&repo, buckets);
        let groups = inc.snapshot();
        let csr = inc.snapshot_csr();
        let snap = Arc::new(Snapshot::assemble(
            0,
            SnapshotParts {
                repo: repo.clone(),
                groups,
                csr,
                carried: Vec::new(),
            },
        ));
        let store = Arc::new(SnapshotStore::new(snap));
        let writer = Self {
            store: Arc::clone(&store),
            repo,
            inc,
            epoch: 0,
            mode,
            pending_updates: 0,
            retired: Vec::new(),
            recycled: Vec::new(),
            pending_log: Vec::new(),
            pending_log_overflow: false,
            history: VecDeque::new(),
            stats: PublishStats::default(),
        };
        (store, writer)
    }

    /// The writer's publish mode.
    pub fn mode(&self) -> PublishMode {
        self.mode
    }

    /// Cumulative publish statistics.
    pub fn publish_stats(&self) -> &PublishStats {
        &self.stats
    }

    /// The store this writer publishes to.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// The epoch of the last published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The writer's working repository — what a checkpoint serializes.
    /// Between `apply` and `publish` this is ahead of the published
    /// snapshot; checkpoint callers sync (publish) first.
    pub fn repo(&self) -> &UserRepository {
        &self.repo
    }

    /// Jumps a freshly-built writer to `epoch` by republishing its current
    /// state there, so epochs stay monotone across a recovery. Publishing
    /// with no pending changes is the documented sync-barrier path, and
    /// the epoch jump clears the (empty) history so nothing tries to span
    /// the gap. Returns the published epoch (`epoch` itself, or `0`
    /// untouched when asked for the genesis epoch).
    pub fn resume_at_epoch(&mut self, epoch: u64) -> u64 {
        if epoch == 0 {
            return 0;
        }
        self.epoch = epoch - 1;
        self.history.clear();
        self.publish()
    }

    /// Aligns the *next* publish to land exactly on `epoch`. Returns
    /// `false` when `epoch` is not ahead of the current one (replay would
    /// go backwards — corruption). A jump of more than one clears the
    /// history so incremental catch-up never spans the gap.
    pub fn align_next_epoch(&mut self, epoch: u64) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        if epoch > self.epoch + 1 {
            self.history.clear();
        }
        self.epoch = epoch - 1;
        true
    }

    /// Checks `update` against the current working state without applying
    /// anything: the property must exist, a score must be normalized, and
    /// a retraction must name a user that exists. These are exactly the
    /// failure modes of [`RepositoryWriter::apply`] — the durable path
    /// validates first, appends the WAL frame, then applies, so a frame
    /// that reaches the log is guaranteed to apply (now and at replay).
    pub fn validate(&self, update: &ProfileUpdate) -> Result<(), ServiceError> {
        if self.repo.property_id(&update.property).is_none() {
            return Err(ServiceError::BadRequest(format!(
                "unknown property '{}' (bucketing is fixed at fit time; re-fit to add properties)",
                update.property
            )));
        }
        match update.score {
            Some(s) if !s.is_finite() || !(0.0..=1.0).contains(&s) => Err(
                ServiceError::BadRequest(format!("score {s} outside the normalized [0, 1] range")),
            ),
            None if self.repo.user_by_name(&update.user).is_none() => {
                Err(ServiceError::BadRequest(format!(
                    "cannot retract a score for unknown user '{}'",
                    update.user
                )))
            }
            _ => Ok(()),
        }
    }

    /// Applies one update to the writer's working state. Not visible to
    /// readers until [`RepositoryWriter::publish`]. Fails exactly when
    /// [`RepositoryWriter::validate`] does, before any state is mutated.
    pub fn apply(&mut self, update: &ProfileUpdate) -> Result<ApplyOutcome, ServiceError> {
        let Some(pid) = self.repo.property_id(&update.property) else {
            return Err(ServiceError::BadRequest(format!(
                "unknown property '{}' (bucketing is fixed at fit time; re-fit to add properties)",
                update.property
            )));
        };
        if let Some(s) = update.score {
            if !s.is_finite() || !(0.0..=1.0).contains(&s) {
                return Err(ServiceError::BadRequest(format!(
                    "score {s} outside the normalized [0, 1] range"
                )));
            }
        }
        let (uid, created_user) = match self.repo.user_by_name(&update.user) {
            Some(u) => (u, false),
            None => {
                if update.score.is_none() {
                    return Err(ServiceError::BadRequest(format!(
                        "cannot retract a score for unknown user '{}'",
                        update.user
                    )));
                }
                let u = self.repo.add_user(update.user.clone());
                let mirrored = self.inc.add_user();
                debug_assert_eq!(u, mirrored, "repo and incremental user ids in lockstep");
                (u, true)
            }
        };
        match update.score {
            Some(s) => self
                .repo
                .set_score(uid, pid, s)
                .map_err(ServiceError::Core)?,
            None => {
                self.repo
                    .remove_score(uid, pid)
                    .map_err(ServiceError::Core)?;
            }
        }
        let (old, new) = self.inc.update_score(uid, pid, update.score);
        self.pending_updates += 1;
        if self.mode == PublishMode::Incremental && !self.pending_log_overflow {
            if self.pending_log.len() >= UPDATE_LOG_CAP {
                self.pending_log.clear();
                self.pending_log_overflow = true;
            } else {
                self.pending_log.push(LoggedUpdate {
                    user: uid,
                    property: pid,
                    score: update.score,
                    created: created_user.then(|| update.user.clone()),
                });
            }
        }
        Ok(ApplyOutcome {
            created_user,
            regrouped: old != new,
        })
    }

    /// Materializes the next snapshot from the applied updates and swaps it
    /// into the store. Returns the new epoch. A publish with no pending
    /// changes still bumps the epoch (callers use it as a sync barrier).
    ///
    /// In [`PublishMode::Incremental`] the epoch is built from the batch's
    /// [`EpochDelta`]: the CSR is patched from the previous epoch's on a
    /// recycled buffer, the recycled group set and repository copy are
    /// caught up through the deltas they missed, and memoized selects
    /// covering no dirty group are carried forward with their certified
    /// score lower bound — unless the epoch shifted group ids, since a
    /// memo's coverage counts are indexed by the old ids. An epoch that
    /// adds users rebuilds the CSR and group set.
    pub fn publish(&mut self) -> u64 {
        let started = Instant::now();
        self.epoch += 1;
        let delta = self.inc.take_delta();
        let batch = std::mem::take(&mut self.pending_updates);
        let batch_log = if self.pending_log_overflow {
            self.pending_log_overflow = false;
            None
        } else {
            Some(std::mem::take(&mut self.pending_log))
        };
        let prev = self.store.load();
        let mut parts = self.recycled.pop().unwrap_or_default();

        let mut build = EpochBuildStats {
            publish_batch_size: batch,
            ..EpochBuildStats::default()
        };
        let incremental = self.mode == PublishMode::Incremental;

        // Group set: catch the recycled buffer up through the union of the
        // deltas of every epoch it is behind. A buffer whose span the
        // history does not cover starts over from a bulk copy of the
        // previous epoch's set, one delta behind.
        let base_epoch = parts.epoch;
        let span = if incremental && delta.users_added() == 0 {
            match base_epoch.and_then(|e| self.span_since(e, &delta)) {
                Some(span) if self.inc.patch_groups_into(&span, &mut parts.groups) => Some(span),
                _ => {
                    parts.groups.clone_from(prev.groups());
                    let caught_up = self.inc.patch_groups_into(&delta, &mut parts.groups);
                    caught_up.then(|| delta.clone())
                }
            }
        } else {
            None
        };
        build.groups_patched = span.is_some();
        if let Some(span) = &span {
            build.member_lists_rewritten = count(self.inc.dirty_group_ids(span).len());
            build.reverse_links_rewritten = count(span.changed_users().len());
        } else {
            self.inc.snapshot_into(&mut parts.groups);
            build.member_lists_rewritten = count(parts.groups.len());
            build.reverse_links_rewritten = count(parts.groups.user_count());
        }

        let csr_started = Instant::now();
        let patched = incremental
            && self
                .inc
                .patch_csr_into(&delta, prev.csr(), prev.groups(), &mut parts.csr);
        if patched {
            build.csr_patch_micros = elapsed_micros(csr_started);
            build.csr_rows_written = count(delta.changed_users().len());
        } else {
            self.inc.snapshot_csr_into(&mut parts.csr);
            build.full_rebuild_micros = elapsed_micros(csr_started);
            build.csr_rows_written = count(parts.csr.user_count());
        }
        build.patched = patched;

        let mut carried = Vec::new();
        // A memo's coverage counts are indexed by the ids it was computed
        // under, so nothing carries across an epoch that shifted them.
        if incremental && patched && !delta.universe_changed() {
            let dirty = self.inc.dirty_group_ids(&delta);
            for (p, o) in prev.memo_entries() {
                // Constrained outcomes never carry: a delta can move
                // users into a quota'd group without touching any
                // *covered* group, silently breaking a ceiling on the
                // new epoch. The covers-dirty test below cannot see
                // that, so quota-hashed entries are always recomputed.
                if p.quota_hash != 0 {
                    build.memos_invalidated += 1;
                    continue;
                }
                let expired = o.epoch + MEMO_CARRY_MAX_LAG < self.epoch;
                let covers_dirty = dirty.iter().any(|&g| {
                    o.selection
                        .covered_counts
                        .get(usize::try_from(g).unwrap_or(usize::MAX))
                        .is_some_and(|&c| c > 0)
                });
                if expired || covers_dirty {
                    build.memos_invalidated += 1;
                } else {
                    carried.push((p, o));
                    build.memos_carried += 1;
                }
            }
        } else {
            build.memos_invalidated = u64::try_from(prev.memo_entries().len()).unwrap_or(u64::MAX);
        }

        // Repository copy: replay the logged update batches onto the
        // recycled copy (O(batch) instead of O(users)), falling back to
        // the allocation-reusing full copy.
        build.repo_replayed = incremental
            && base_epoch
                .is_some_and(|e| self.replay_repo_since(e, batch_log.as_deref(), &mut parts.repo));
        let repo = if build.repo_replayed {
            std::mem::take(&mut parts.repo)
        } else if incremental {
            let mut recycled_repo = std::mem::take(&mut parts.repo);
            self.repo.clone_into_repo(&mut recycled_repo);
            recycled_repo
        } else {
            self.repo.clone()
        };

        if incremental {
            self.history.push_back(PublishRecord {
                epoch: self.epoch,
                delta,
                updates: batch_log,
            });
            if self.history.len() > HISTORY_CAP {
                self.history.pop_front();
            }
        }

        build.publish_micros = elapsed_micros(started);
        let snap = Arc::new(Snapshot::assemble(
            self.epoch,
            SnapshotParts {
                repo,
                groups: std::mem::take(&mut parts.groups),
                csr: std::mem::take(&mut parts.csr),
                carried,
            },
        ));
        let swapped = self.store.swap(snap);
        self.retired.push(swapped);
        drop(prev); // release our read pin so reclaim can unwrap it
        self.reclaim();
        self.prune_history();
        self.stats.record(build);
        self.epoch
    }

    /// The publish records of epochs `(base_epoch, current)`, oldest
    /// first; `None` when the history does not cover that span
    /// contiguously.
    fn records_since(
        &self,
        base_epoch: u64,
    ) -> Option<std::collections::vec_deque::Iter<'_, PublishRecord>> {
        let first = base_epoch.checked_add(1)?;
        let missed = usize::try_from(self.epoch.checked_sub(first)?).ok()?;
        let records = self
            .history
            .range(self.history.len().checked_sub(missed)?..);
        records
            .clone()
            .zip(first..)
            .all(|(rec, epoch)| rec.epoch == epoch)
            .then_some(records)
    }

    /// The union of every delta since `base_epoch`: the recorded ones of
    /// `(base_epoch, current)` and the current `delta`. `None` when the
    /// history does not cover the span.
    fn span_since(&self, base_epoch: u64, delta: &EpochDelta) -> Option<EpochDelta> {
        let mut span = delta.clone();
        for rec in self.records_since(base_epoch)? {
            span.absorb(&rec.delta);
        }
        Some(span)
    }

    /// Replays the logged update batches of `(base_epoch, current]` onto
    /// `target` — a repository copy as of `base_epoch` — bringing it up to
    /// the writer's working state. Returns `false` without touching
    /// `target` when the history does not contiguously cover the span or
    /// any batch in it (including the current one) overflowed the log.
    fn replay_repo_since(
        &self,
        base_epoch: u64,
        batch: Option<&[LoggedUpdate]>,
        target: &mut UserRepository,
    ) -> bool {
        let (Some(batch), Some(records)) = (batch, self.records_since(base_epoch)) else {
            return false;
        };
        let Some(span) = records
            .map(|rec| rec.updates.as_deref())
            .collect::<Option<Vec<&[LoggedUpdate]>>>()
        else {
            return false;
        };
        for updates in span {
            replay_updates(updates, target);
        }
        replay_updates(batch, target);
        true
    }

    /// Drops publish records no recycled or still-retired buffer can need
    /// anymore (spans start strictly after a buffer's epoch).
    fn prune_history(&mut self) {
        let oldest_needed = self
            .recycled
            .iter()
            .filter_map(|p| p.epoch)
            .chain(self.retired.iter().map(|s| s.epoch()))
            .min();
        match oldest_needed {
            Some(base) => {
                while self.history.front().is_some_and(|r| r.epoch <= base) {
                    self.history.pop_front();
                }
            }
            None => self.history.clear(),
        }
    }

    /// Moves the buffers of retired snapshots nobody references anymore
    /// into the recycle pool.
    fn reclaim(&mut self) {
        let mut still_referenced = Vec::with_capacity(self.retired.len());
        for snap in self.retired.drain(..) {
            match Arc::try_unwrap(snap) {
                Ok(owned) => {
                    if self.recycled.len() < RECYCLE_CAP {
                        self.recycled.push(RecycledParts {
                            epoch: Some(owned.epoch),
                            groups: owned.groups,
                            csr: owned.csr,
                            repo: owned.repo,
                        });
                    }
                }
                Err(shared) => still_referenced.push(shared),
            }
        }
        self.retired = still_referenced;
    }
}

/// A work count as a `u64` stats counter.
fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Replays one logged batch onto a repository copy. Every operation
/// succeeded against the identical state once, so failures are impossible
/// by construction; they are swallowed (leaving a full-copy-equivalent
/// divergence to the debug assertions) rather than panicking the writer.
fn replay_updates(updates: &[LoggedUpdate], target: &mut UserRepository) {
    for u in updates {
        if let Some(name) = &u.created {
            let got = target.add_user(name.clone());
            debug_assert_eq!(got, u.user, "replay ids in lockstep");
        }
        match u.score {
            Some(s) => {
                let applied = target.set_score(u.user, u.property, s);
                debug_assert!(applied.is_ok(), "replayed set_score cannot fail");
            }
            None => {
                let removed = target.remove_score(u.user, u.property);
                debug_assert!(removed.is_ok(), "replayed remove_score cannot fail");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use podium_core::bucket::BucketingConfig;
    use podium_core::engine::QuotaBound;
    use podium_core::greedy::greedy_select;

    fn sample_repo() -> UserRepository {
        let mut repo = UserRepository::new();
        let mex = repo.intern_property("avgRating Mexican");
        let tokyo = repo.intern_property("livesIn Tokyo");
        for (i, name) in ["Alice", "Bob", "Carol", "David", "Eve", "Frank"]
            .iter()
            .enumerate()
        {
            let u = repo.add_user(*name);
            repo.set_score(u, mex, (i as f64) / 6.0).unwrap();
            if i % 2 == 0 {
                repo.set_score(u, tokyo, 1.0).unwrap();
            }
        }
        repo
    }

    fn writer() -> (Arc<SnapshotStore>, RepositoryWriter) {
        let repo = sample_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        RepositoryWriter::new(repo, &buckets)
    }

    /// Once the recycle pool is filled and the publish history covers the
    /// buffers' staleness span, a steady-state publish takes every fast
    /// path at once: CSR patch, group-set patch, and repository replay.
    #[test]
    fn steady_state_publishes_patch_everything() {
        let (store, mut w) = writer();
        // Frank oscillates between the 0.5 and 0.83 Mexican buckets; both
        // stay non-empty (David holds one, Eve the other), so every delta
        // is patchable.
        for i in 0..6u32 {
            w.apply(&ProfileUpdate {
                user: "Frank".into(),
                property: "avgRating Mexican".into(),
                score: Some(if i % 2 == 0 { 0.5 } else { 0.83 }),
            })
            .unwrap();
            w.publish();
        }
        let build = w.publish_stats().last;
        assert!(build.patched, "CSR was patched");
        assert!(build.groups_patched, "group set was patched in place");
        assert!(build.repo_replayed, "repository was caught up by replay");

        // An unpatchable publish (new user) falls back everywhere but
        // still replays the repository (replay handles user creation).
        w.apply(&ProfileUpdate {
            user: "Grace".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.4),
        })
        .unwrap();
        w.publish();
        let build = w.publish_stats().last;
        assert!(!build.patched);
        assert!(!build.groups_patched);
        assert!(build.repo_replayed, "replay survives user creation");
        assert_eq!(
            store.load().user_names(&[UserId::from_index(6)]),
            vec!["Grace".to_owned()]
        );

        // And the steady state resumes afterwards.
        for _ in 0..3 {
            w.apply(&ProfileUpdate {
                user: "Grace".into(),
                property: "avgRating Mexican".into(),
                score: Some(0.9),
            })
            .unwrap();
            w.apply(&ProfileUpdate {
                user: "Grace".into(),
                property: "avgRating Mexican".into(),
                score: Some(0.4),
            })
            .unwrap();
            w.publish();
        }
        let build = w.publish_stats().last;
        assert!(build.patched && build.groups_patched && build.repo_replayed);
    }

    /// The publish work counters of a steady-state bucket move: Bob
    /// oscillates between the low and high Mexican buckets, each of which
    /// keeps two other members (Alice and Carol, Eve and Frank), and no
    /// reader holds a snapshot. A catch-up rewrites only the changed
    /// users' reverse-link rows and the dirty groups' member lists, not
    /// every member of both slots.
    #[test]
    fn steady_state_publishes_count_only_the_delta() {
        let (_store, mut w) = writer();
        let publishes = 8u64;
        for i in 0..publishes {
            w.apply(&ProfileUpdate {
                user: "Bob".into(),
                property: "avgRating Mexican".into(),
                score: Some(if i % 2 == 0 { 0.9 } else { 0.2 }),
            })
            .unwrap();
            w.publish();
            let build = w.publish_stats().last;
            assert!(build.patched && build.groups_patched, "publish {i}");
            // The first publish has no recycled repository copy to replay.
            assert_eq!(build.repo_replayed, i > 0, "publish {i}");
            // Whatever the recycled buffer's lag, Bob is the span's only
            // changed user and its dirty groups are his two buckets.
            assert_eq!(build.reverse_links_rewritten, 1, "publish {i}");
            assert_eq!(build.member_lists_rewritten, 2, "publish {i}");
            assert_eq!(build.csr_rows_written, 1, "publish {i}");
        }
        let stats = w.publish_stats();
        assert_eq!(stats.reverse_links_rewritten, publishes);
        assert_eq!(stats.member_lists_rewritten, 2 * publishes);
        assert_eq!(stats.csr_rows_written, publishes);
    }

    /// Nothing carries across an epoch that shifts group ids: a memo's
    /// coverage counts are indexed by the ids it was computed under.
    /// David alone holds the middle Mexican bucket, so moving him empties
    /// it (every later id shifts down) and moving him back fills it.
    #[test]
    fn memos_never_carry_across_an_id_shift() {
        let repo = sample_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let (store, mut w) =
            RepositoryWriter::with_mode(repo.clone(), &buckets, PublishMode::Incremental);
        let (s_full, mut w_full) =
            RepositoryWriter::with_mode(repo, &buckets, PublishMode::FullRebuild);
        for (score, groups) in [(0.9, 3), (0.5, 4)] {
            let before = store.load().select(&params1(), None).unwrap();
            assert!(!before.stale);
            let update = ProfileUpdate {
                user: "David".into(),
                property: "avgRating Mexican".into(),
                score: Some(score),
            };
            w.apply(&update).unwrap();
            w_full.apply(&update).unwrap();
            w.publish();
            w_full.publish();
            let snap = store.load();
            assert_eq!(snap.groups().len(), groups, "the slot emptied or filled");
            let build = w.publish_stats().last;
            assert!(build.patched, "an id shift is patched, not rebuilt");
            assert_eq!((build.memos_carried, build.memos_invalidated), (0, 1));
            let served = snap.serve(&params1(), None, None, true).unwrap();
            assert!(
                !served.stale && !served.cache_hit,
                "recomputed, not carried"
            );
            assert_eq!(served.epoch, snap.epoch());
            let reference = s_full.load().select(&params1(), None).unwrap();
            assert_eq!(served.selection, reference.selection);
            assert_eq!(served.names, reference.names);
        }
    }

    /// `validate` must agree with `apply` on every failure mode, or the
    /// durable path's validate → WAL-append → apply ordering could log a
    /// frame that then refuses to apply (live or at replay).
    #[test]
    fn validate_mirrors_apply_verdicts() {
        let cases = [
            ("Alice", "avgRating Mexican", Some(0.7), true),
            ("Newcomer", "avgRating Mexican", Some(0.1), true),
            ("Alice", "avgRating Mexican", None, true),
            ("Alice", "never-bucketed", Some(0.5), false),
            ("Alice", "avgRating Mexican", Some(1.5), false),
            ("Alice", "avgRating Mexican", Some(f64::NAN), false),
            ("Nobody", "avgRating Mexican", None, false),
        ];
        for (user, property, score, expect_ok) in cases {
            // A fresh writer per case: `apply` mutates on success.
            let (_store, mut w) = writer();
            let update = ProfileUpdate {
                user: user.into(),
                property: property.into(),
                score,
            };
            let validated = w.validate(&update);
            let applied = w.apply(&update);
            assert_eq!(
                validated.is_ok(),
                expect_ok,
                "validate({user}, {property}, {score:?})"
            );
            assert_eq!(
                validated.is_ok(),
                applied.is_ok(),
                "validate and apply disagree on ({user}, {property}, {score:?})"
            );
        }
    }

    #[test]
    fn epoch_zero_matches_batch_build() {
        let (store, _w) = writer();
        let snap = store.load();
        assert_eq!(snap.epoch(), 0);
        let repo = sample_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let batch = GroupSet::build(&repo, &buckets);
        assert_eq!(snap.groups().len(), batch.len());
        for ((_, a), (_, b)) in snap.groups().iter().zip(batch.iter()) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn snapshot_select_matches_engine() {
        let (store, _w) = writer();
        let snap = store.load();
        let params = SelectParams {
            budget: 3,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let outcome = snap.select(&params, None).unwrap();
        let inst = DiversificationInstance::from_schemes(
            snap.groups(),
            WeightScheme::LinearBySize,
            CovScheme::Single,
            3,
        );
        let reference = greedy_select(&inst, 3);
        assert_eq!(outcome.selection, reference);
        assert_eq!(outcome.names.len(), 3);
    }

    #[test]
    fn published_epochs_are_isolated_from_later_updates() {
        let (store, mut w) = writer();
        let before = store.load();
        w.apply(&ProfileUpdate {
            user: "Bob".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.95),
        })
        .unwrap();
        assert_eq!(
            store.load().epoch(),
            0,
            "apply without publish stays invisible"
        );
        let e1 = w.publish();
        assert_eq!(e1, 1);
        let after = store.load();
        assert_eq!(after.epoch(), 1);
        // The pinned pre-update snapshot still shows the old score.
        let bob = before.repo().user_by_name("Bob").unwrap();
        let mex = before.repo().property_id("avgRating Mexican").unwrap();
        assert_eq!(before.repo().score(bob, mex), Some(1.0 / 6.0));
        assert_eq!(after.repo().score(bob, mex), Some(0.95));
    }

    #[test]
    fn writer_snapshot_equals_from_scratch_rebuild() {
        let (store, mut w) = writer();
        for (i, (user, score)) in [
            ("Bob", Some(0.95)),
            ("Carol", Some(0.05)),
            ("Grace", Some(0.5)),
            ("Alice", None),
            ("Grace", Some(0.92)),
        ]
        .iter()
        .enumerate()
        {
            w.apply(&ProfileUpdate {
                user: (*user).into(),
                property: "avgRating Mexican".into(),
                score: *score,
            })
            .unwrap();
            let epoch = w.publish();
            assert_eq!(epoch, i as u64 + 1);
        }
        let snap = store.load();
        // Rebuild from the writer's own repository with the same (fixed)
        // bucket boundaries: group sets must agree exactly.
        let initial = sample_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&initial);
        let batch = GroupSet::build(snap.repo(), &buckets);
        assert_eq!(snap.groups().len(), batch.len());
        for ((_, a), (_, b)) in snap.groups().iter().zip(batch.iter()) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.kind, b.kind);
        }
        // CSR mirrors the group set.
        assert_eq!(snap.csr().group_count(), snap.groups().len());
        assert_eq!(snap.csr().user_count(), snap.groups().user_count());
    }

    #[test]
    fn unknown_property_and_bad_scores_rejected() {
        let (_store, mut w) = writer();
        let err = w
            .apply(&ProfileUpdate {
                user: "Alice".into(),
                property: "no such property".into(),
                score: Some(0.4),
            })
            .unwrap_err();
        assert_eq!(err.code(), "bad_request");
        for bad in [f64::NAN, -0.1, 1.7] {
            let err = w
                .apply(&ProfileUpdate {
                    user: "Alice".into(),
                    property: "avgRating Mexican".into(),
                    score: Some(bad),
                })
                .unwrap_err();
            assert_eq!(err.code(), "bad_request", "score {bad}");
        }
        let err = w
            .apply(&ProfileUpdate {
                user: "Nobody".into(),
                property: "avgRating Mexican".into(),
                score: None,
            })
            .unwrap_err();
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn group_set_recycling_reclaims_unreferenced_epochs() {
        let (store, mut w) = writer();
        for i in 0..5 {
            w.apply(&ProfileUpdate {
                user: "Bob".into(),
                property: "avgRating Mexican".into(),
                score: Some(0.1 + 0.15 * i as f64),
            })
            .unwrap();
            w.publish();
        }
        // No outstanding reader references except the current snapshot:
        // the pool should have filled.
        assert!(!w.recycled.is_empty(), "retired epochs were reclaimed");
        assert!(w.recycled.len() <= RECYCLE_CAP);
        assert_eq!(store.load().epoch(), 5);
    }

    #[test]
    fn repeated_selects_hit_the_memo_cache() {
        let (store, _w) = writer();
        let snap = store.load();
        let params = SelectParams {
            budget: 3,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let first = snap.select(&params, None).unwrap();
        let second = snap.select(&params, None).unwrap();
        assert_eq!(first.names, second.names);
        assert_eq!(first.selection, second.selection);
        assert!(!first.cache_hit, "first call computed");
        assert!(second.cache_hit, "second call was a pure hit");
        // Different parameters are separate entries, not collisions.
        let other = SelectParams {
            budget: 2,
            weight: WeightScheme::Identical,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let third = snap.select(&other, None).unwrap();
        assert_eq!(third.selection.users.len(), 2);
        assert!(!third.cache_hit);
    }

    #[test]
    fn memo_cache_does_not_survive_a_publish() {
        let (store, mut w) = writer();
        let params = SelectParams {
            budget: 2,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let before = store.load().select(&params, None).unwrap();
        assert_eq!(before.epoch, 0);
        w.apply(&ProfileUpdate {
            user: "Bob".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.97),
        })
        .unwrap();
        w.publish();
        let snap = store.load();
        let after = snap.select(&params, None).unwrap();
        assert_eq!(after.epoch, 1);
        assert!(!after.cache_hit, "new epoch starts from an empty cache");
        // And the fresh computation really ran against the new data.
        let rebuilt = DiversificationInstance::from_schemes(
            snap.groups(),
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        assert_eq!(after.selection, greedy_select(&rebuilt, 2));
    }

    /// Budget-1 LBS select over [`sample_repo`]: Alice wins (covers the
    /// low-Mexican bucket and the Tokyo group), so updates that dirty
    /// only the *other* Mexican buckets leave the memo carriable.
    fn params1() -> SelectParams {
        SelectParams {
            budget: 1,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        }
    }

    #[test]
    fn stale_ok_serves_carried_memo_with_certificate() {
        let (store, mut w) = writer();
        let before = store.load().select(&params1(), None).unwrap();
        // Frank 0.83 → 0.5 moves him between two Mexican buckets that
        // both stay non-empty: patchable, and disjoint from Alice's
        // covered groups.
        w.apply(&ProfileUpdate {
            user: "Frank".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.5),
        })
        .unwrap();
        w.publish();
        let snap = store.load();
        let build = w.publish_stats().last;
        assert!(build.patched, "delta was patchable");
        assert_eq!(build.memos_carried, 1);
        assert_eq!(build.memos_invalidated, 0);
        // Opted-in read: served from the carried memo, tagged stale,
        // keeping the epoch it was computed on.
        let stale = snap.serve(&params1(), None, None, true).unwrap();
        assert!(stale.stale);
        assert!(stale.cache_hit);
        assert_eq!(stale.epoch, 0);
        assert_eq!(stale.names, before.names);
        assert_eq!(stale.certified_score_lb, before.selection.score);
        // The certificate really is a lower bound on the fresh score.
        let fresh = snap.select(&params1(), None).unwrap();
        assert!(!fresh.stale);
        assert_eq!(fresh.epoch, 1);
        assert!(fresh.selection.score >= stale.certified_score_lb);
    }

    #[test]
    fn memo_covering_a_dirty_group_is_invalidated() {
        let (store, mut w) = writer();
        store.load().select(&params1(), None).unwrap();
        // Bob leaves the low-Mexican bucket that Alice's selection
        // covers: the memo's certificate no longer holds group-wise.
        w.apply(&ProfileUpdate {
            user: "Bob".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.97),
        })
        .unwrap();
        w.publish();
        let snap = store.load();
        let build = w.publish_stats().last;
        assert!(build.patched);
        assert_eq!(build.memos_carried, 0);
        assert_eq!(build.memos_invalidated, 1);
        // Even an opted-in reader gets a fresh computation.
        let out = snap.serve(&params1(), None, None, true).unwrap();
        assert!(!out.stale);
        assert!(!out.cache_hit);
        assert_eq!(out.epoch, 1);
    }

    #[test]
    fn full_rebuild_mode_never_patches_or_carries() {
        let repo = sample_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let (store, mut w) = RepositoryWriter::with_mode(repo, &buckets, PublishMode::FullRebuild);
        store.load().select(&params1(), None).unwrap();
        w.apply(&ProfileUpdate {
            user: "Frank".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.5),
        })
        .unwrap();
        w.publish();
        let snap = store.load();
        let build = w.publish_stats().last;
        assert!(!build.patched);
        assert_eq!(build.csr_patch_micros, 0);
        assert_eq!(build.memos_carried, 0);
        assert_eq!(build.memos_invalidated, 1);
        let out = snap.serve(&params1(), None, None, true).unwrap();
        assert!(!out.stale, "nothing carried to serve stale from");
    }

    #[test]
    fn incremental_publishes_match_full_rebuild_bit_for_bit() {
        let repo = sample_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let (s_inc, mut w_inc) =
            RepositoryWriter::with_mode(repo.clone(), &buckets, PublishMode::Incremental);
        let (s_full, mut w_full) =
            RepositoryWriter::with_mode(repo, &buckets, PublishMode::FullRebuild);
        // Patchable move, new user (unpatchable), retraction, new score —
        // plus an empty-delta publish between steps.
        let script = [
            ("Carol", "avgRating Mexican", Some(0.9)),
            ("Grace", "avgRating Mexican", Some(0.5)),
            ("David", "avgRating Mexican", None),
            ("Frank", "livesIn Tokyo", Some(1.0)),
        ];
        for (step, (user, property, score)) in script.iter().enumerate() {
            let update = ProfileUpdate {
                user: (*user).into(),
                property: (*property).into(),
                score: *score,
            };
            w_inc.apply(&update).unwrap();
            w_full.apply(&update).unwrap();
            w_inc.publish();
            w_full.publish();
            if step == 1 {
                // Empty-delta epoch: publish with nothing pending.
                w_inc.publish();
                w_full.publish();
            }
            for budget in 1..=3 {
                for weight in [WeightScheme::LinearBySize, WeightScheme::Identical] {
                    let p = SelectParams {
                        budget,
                        weight,
                        cov: CovScheme::Single,
                        quota_hash: 0,
                    };
                    let a = s_inc.load().select(&p, None).unwrap();
                    let b = s_full.load().select(&p, None).unwrap();
                    assert_eq!(
                        a.selection, b.selection,
                        "step {step} budget {budget} {weight:?}: users, gains, \
                         score, and coverage must be bit-identical"
                    );
                    assert_eq!(a.names, b.names);
                }
            }
        }
    }

    #[test]
    fn publish_stats_track_batches_and_percentiles() {
        let (_store, mut w) = writer();
        for (user, score) in [("Alice", 0.2), ("Bob", 0.3), ("Carol", 0.44)] {
            w.apply(&ProfileUpdate {
                user: user.into(),
                property: "avgRating Mexican".into(),
                score: Some(score),
            })
            .unwrap();
        }
        w.publish();
        let stats = w.publish_stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.batched_updates, 3);
        assert_eq!(stats.last.publish_batch_size, 3, "one epoch per batch");
        let (p50, p99) = stats.latency_percentiles();
        assert!(p50 <= p99);
        // A full, unsorted ring: floor rank (indices 255 and 505).
        let ring = PublishStats {
            latencies: (0..512).rev().collect(),
            ..PublishStats::default()
        };
        assert_eq!(ring.latency_percentiles(), (255, 505));
    }

    #[test]
    fn constrained_and_unconstrained_memos_never_alias() {
        let (store, _w) = writer();
        let snap = store.load();
        let params = SelectParams {
            budget: 2,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let plain = snap.select(&params, None).unwrap();
        assert!(!plain.cache_hit);
        // Same budget and schemes at the same epoch, but quota'd: the
        // extended memo key keeps this a fresh miss, never `plain`
        // served from the unconstrained entry.
        let constraints = SelectConstraints {
            quotas: vec![Quota {
                group: 0,
                min: QuotaBound::Count(1),
                max: None,
            }],
            anneal: None,
        };
        let cparams = SelectParams {
            quota_hash: constraints.fingerprint(),
            ..params
        };
        assert_ne!(cparams.quota_hash, 0);
        let constrained = snap
            .serve(&cparams, Some(&constraints), None, false)
            .unwrap();
        assert!(!constrained.cache_hit, "constrained select must not alias");
        // Both entries coexist; each repeat is a pure hit on its own key.
        let again = snap.select(&params, None).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.selection, plain.selection);
        let cagain = snap
            .serve(&cparams, Some(&constraints), None, false)
            .unwrap();
        assert!(cagain.cache_hit);
        assert_eq!(cagain.selection, constrained.selection);
    }

    #[test]
    fn constrained_select_enforces_floors_and_types_infeasible() {
        let (store, _w) = writer();
        let snap = store.load();
        // Smallest group in the bucketized seed repo: forcing its floor
        // must pull one of its members into the slate.
        let (gid, size) = snap
            .groups()
            .iter()
            .map(|(g, grp)| (g, grp.members.len()))
            .min_by_key(|&(_, s)| s)
            .expect("seed repo has groups");
        assert!(size < 6, "a proper subset group exists");
        let constraints = SelectConstraints {
            quotas: vec![Quota {
                group: gid.0,
                min: QuotaBound::Count(1),
                max: None,
            }],
            anneal: None,
        };
        let params = SelectParams {
            budget: 2,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: constraints.fingerprint(),
        };
        let outcome = snap
            .serve(&params, Some(&constraints), None, false)
            .unwrap();
        assert!(
            outcome.selection.covered_counts[gid.index()] >= 1,
            "quota floor holds on the returned selection"
        );
        // A floor above the group's size is unmeetable: the typed
        // `infeasible` error names the group, not a generic bad_request.
        let impossible = SelectConstraints {
            quotas: vec![Quota {
                group: gid.0,
                min: QuotaBound::Count(size as u32 + 1),
                max: None,
            }],
            anneal: None,
        };
        let iparams = SelectParams {
            budget: 6,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: impossible.fingerprint(),
        };
        let err = snap
            .serve(&iparams, Some(&impossible), None, false)
            .unwrap_err();
        match err {
            ServiceError::Infeasible { group, .. } => assert_eq!(group, Some(gid.0)),
            other => panic!("expected Infeasible, got {other:?}"),
        }
        // Malformed quotas (unknown group) stay bad_request: a caller
        // bug, distinct from well-formed-but-unsatisfiable.
        let unknown = SelectConstraints {
            quotas: vec![Quota {
                group: snap.groups().len() as u32 + 7,
                min: QuotaBound::Count(1),
                max: None,
            }],
            anneal: None,
        };
        let uparams = SelectParams {
            budget: 2,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: unknown.fingerprint(),
        };
        let err = snap
            .serve(&uparams, Some(&unknown), None, false)
            .unwrap_err();
        assert_eq!(err.code(), "bad_request", "{err:?}");
    }

    #[test]
    fn annealed_outcome_is_memoized_and_never_below_greedy() {
        let (store, _w) = writer();
        let snap = store.load();
        let quotas = vec![Quota {
            group: 0,
            min: QuotaBound::Count(1),
            max: None,
        }];
        let greedy_only = SelectConstraints {
            quotas: quotas.clone(),
            anneal: None,
        };
        let with_anneal = SelectConstraints {
            quotas,
            anneal: Some(AnnealSchedule {
                seed: 0xfeed,
                steps: 64,
                t0: 0.5,
                cooling: 0.9,
            }),
        };
        // Distinct fingerprints: the schedule is part of the memo key.
        assert_ne!(greedy_only.fingerprint(), with_anneal.fingerprint());
        let base = SelectParams {
            budget: 2,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: greedy_only.fingerprint(),
        };
        let greedy = snap.serve(&base, Some(&greedy_only), None, false).unwrap();
        let annealed = snap
            .serve(
                &SelectParams {
                    quota_hash: with_anneal.fingerprint(),
                    ..base
                },
                Some(&with_anneal),
                None,
                false,
            )
            .unwrap();
        assert!(annealed.selection.score >= greedy.selection.score);
        let repeat = snap
            .serve(
                &SelectParams {
                    quota_hash: with_anneal.fingerprint(),
                    ..base
                },
                Some(&with_anneal),
                None,
                false,
            )
            .unwrap();
        assert!(repeat.cache_hit);
        assert_eq!(repeat.selection, annealed.selection);
    }

    #[test]
    fn constrained_memos_are_dropped_at_publish_not_carried() {
        let (store, mut w) = writer();
        let constraints = SelectConstraints {
            quotas: vec![Quota {
                group: 0,
                min: QuotaBound::Count(1),
                max: None,
            }],
            anneal: None,
        };
        let cparams = SelectParams {
            budget: 1,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: constraints.fingerprint(),
        };
        // Memoize both the carriable unconstrained budget-1 select and a
        // constrained one on epoch 0.
        store.load().select(&params1(), None).unwrap();
        store
            .load()
            .serve(&cparams, Some(&constraints), None, false)
            .unwrap();
        // Frank's move keeps the unconstrained memo carriable (see
        // `stale_ok_serves_carried_memo_with_certificate`).
        w.apply(&ProfileUpdate {
            user: "Frank".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.5),
        })
        .unwrap();
        w.publish();
        let snap = store.load();
        let build = w.publish_stats().last;
        assert_eq!(
            build.memos_carried, 1,
            "the unconstrained memo still carries"
        );
        assert_eq!(
            build.memos_invalidated, 1,
            "the constrained memo is dropped: a delta can move users into \
             a quota'd group without touching covered groups"
        );
        // And the stale-ok read of the constrained params recomputes.
        let after = snap
            .serve(&cparams, Some(&constraints), None, true)
            .unwrap();
        assert!(!after.stale);
        assert_eq!(after.epoch, 1);
    }

    #[test]
    fn deadline_in_the_past_maps_to_deadline_exceeded() {
        let (store, _w) = writer();
        let snap = store.load();
        let params = SelectParams {
            budget: 3,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let already_past = Instant::now() - std::time::Duration::from_millis(1);
        let err = snap.select(&params, Some(already_past)).unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
    }
}
