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
//! data updates" scenario), then materializes the next snapshot with
//! [`IncrementalGroups::snapshot_into`] — recycling the group-set
//! allocations of retired epochs whose readers have all finished — and
//! swaps it into the store. Selection hot paths never wait on the writer;
//! the store's `RwLock` is held only for the duration of an `Arc` clone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use podium_core::bucket::PropertyBuckets;
use podium_core::engine::{
    constraint_fingerprint, select, AnnealSchedule, CsrGraph, Quota, QuotaSet, SelectSpec,
    Strategy,
};
use podium_core::greedy::Selection;
use podium_core::group::GroupSet;
use podium_core::ids::{BucketIdx, PropertyId, UserId};
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
    /// any intervening delta (covered contributions are unchanged, and
    /// newly grown uncovered groups can only add score).
    pub certified_score_lb: f64,
}

/// How the single writer materializes each published epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PublishMode {
    /// Delta-aware publishing: patch the previous epoch's CSR in place on
    /// a recycled buffer, maintain warm CELF seed bounds, carry forward
    /// unaffected memoized selects, and recycle the repository copy. The
    /// published snapshots are bit-identical to [`PublishMode::FullRebuild`]'s.
    #[default]
    Incremental,
    /// Rebuild every published structure from the incremental state and
    /// clone the repository afresh — the honest baseline the drift
    /// benchmark compares against. No seeds, no memo carry.
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
    /// Whether the group set was patched in place on a recycled buffer
    /// through the dirty-slot union of the epochs it was behind (vs the
    /// full O(edges) rebuild).
    pub groups_patched: bool,
    /// Whether the repository copy was produced by replaying the logged
    /// update batches onto a recycled copy (vs a full O(users) copy).
    pub repo_replayed: bool,
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
    /// Breakdown of the most recent publish.
    pub last: EpochBuildStats,
    /// Ring buffer of recent publish latencies in microseconds.
    latencies: Vec<u64>,
    next: usize,
}

/// Publish-latency samples retained for percentile reporting.
const LATENCY_RING_CAP: usize = 512;

/// Elapsed microseconds as `u64`, saturating at ~584k years.
fn elapsed_micros(since: Instant) -> u64 {
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
        if self.latencies.is_empty() {
            return (0, 0);
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let at = |q: f64| {
            // podium-lint: allow(as-cast) — ring length ≤ 512: rank arithmetic is exact in f64 and non-negative
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            // podium-lint: allow(index) — idx is clamped to len − 1 and the ring is non-empty here
            sorted[idx.min(sorted.len() - 1)]
        };
        (at(0.50), at(0.99))
    }
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
    /// Warm CELF seed bounds per user under `Identical` weights (empty
    /// when the epoch was published without seeds — cold scan instead).
    seeds_iden: Vec<f64>,
    /// Warm CELF seed bounds per user under `LinearBySize` weights.
    seeds_lbs: Vec<f64>,
    /// Build breakdown of this epoch's publish.
    build: EpochBuildStats,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    carried_hits: AtomicU64,
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
    seeds_iden: Vec<f64>,
    seeds_lbs: Vec<f64>,
    carried: Vec<(SelectParams, SelectOutcome)>,
    build: EpochBuildStats,
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
            seeds_iden: parts.seeds_iden,
            seeds_lbs: parts.seeds_lbs,
            build: parts.build,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            carried_hits: AtomicU64::new(0),
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

    /// Runs lazy greedy against the prebuilt CSR graph, checking `deadline`
    /// between greedy rounds. A deadline hit maps to
    /// [`ServiceError::DeadlineExceeded`]; the partial prefix is discarded.
    pub fn select(
        &self,
        params: &SelectParams,
        deadline: Option<Instant>,
    ) -> Result<SelectOutcome, ServiceError> {
        self.select_with(params, deadline, false)
    }

    /// [`Snapshot::select`] with an explicit read mode. With
    /// `stale_ok = true`, a memoized selection carried forward from an
    /// earlier epoch may be served instead of recomputing: the outcome is
    /// tagged `stale`, keeps the epoch it was computed on, and certifies
    /// [`SelectOutcome::certified_score_lb`] against this epoch. The
    /// default (`false`) path never serves carried outcomes, so existing
    /// behavior is unchanged.
    pub fn select_with(
        &self,
        params: &SelectParams,
        deadline: Option<Instant>,
        stale_ok: bool,
    ) -> Result<SelectOutcome, ServiceError> {
        if params.budget == 0 {
            return Err(ServiceError::Core(
                podium_core::error::CoreError::ZeroBudget,
            ));
        }
        // Memo hit: the result was already computed against this very
        // epoch, so it is exact. Returned even past the deadline — the
        // deadline bounds computation, and a hit costs none.
        if let Some(mut hit) = self.cached(params) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            hit.cache_hit = true;
            return Ok(hit);
        }
        if stale_ok {
            if let Some(hit) = self.carried.iter().find(|(p, _)| p == params) {
                self.carried_hits.fetch_add(1, Ordering::Relaxed);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                let mut outcome = hit.1.clone();
                outcome.cache_hit = true;
                outcome.stale = true;
                return Ok(outcome);
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let seeds = self.seed_pairs(params.weight);
        let stop = move |_: usize| deadline.is_some_and(|d| Instant::now() >= d);
        let spec = SelectSpec {
            warm: seeds.as_deref(),
            stop: Some(&stop),
            ..SelectSpec::new(params.budget, Strategy::Lazy)
        };
        self.compute(params, &spec)
    }

    /// Quota-constrained select against this snapshot, memoized under
    /// the quota-hash-extended [`SelectParams`] key (`params.quota_hash`
    /// must equal `constraints.fingerprint()`).
    ///
    /// Constrained runs are not deadline-interruptible — cutting the
    /// greedy loop short could strand a quota floor — so the deadline
    /// is only checked before computation starts. The annealing pass,
    /// when scheduled, is step-bounded and deterministic; its cost is
    /// bounded by the schedule, not the deadline.
    pub fn select_constrained(
        &self,
        params: &SelectParams,
        constraints: &SelectConstraints,
        deadline: Option<Instant>,
        stale_ok: bool,
    ) -> Result<SelectOutcome, ServiceError> {
        debug_assert_eq!(
            params.quota_hash,
            constraints.fingerprint(),
            "quota hash must fingerprint the constraint block"
        );
        if params.budget == 0 {
            return Err(ServiceError::Core(
                podium_core::error::CoreError::ZeroBudget,
            ));
        }
        if let Some(mut hit) = self.cached(params) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            hit.cache_hit = true;
            return Ok(hit);
        }
        // Constrained outcomes are never carried across epochs (see the
        // publish path), so under `stale_ok` the carried memo can only
        // miss — but the flag still gates nothing else here.
        let _ = stale_ok;
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ServiceError::DeadlineExceeded);
        }
        let quotas = QuotaSet::build(constraints.quotas.clone(), self.groups.len(), params.budget)
            .map_err(|e| ServiceError::BadRequest(format!("'constraints': {e}")))?;
        let spec = SelectSpec {
            quotas: Some(&quotas),
            anneal: constraints.anneal.as_ref(),
            ..SelectSpec::new(params.budget, Strategy::Lazy)
        };
        self.compute(params, &spec)
    }

    /// Runs one memo-missing selection on this epoch and memoizes it.
    fn compute(
        &self,
        params: &SelectParams,
        spec: &SelectSpec<'_, f64>,
    ) -> Result<SelectOutcome, ServiceError> {
        let weights = self.weights_for(params.weight);
        let covs = params.cov.cov(&self.groups, params.budget);
        let inst = DiversificationInstance::new(&self.groups, weights, covs);
        let selection = select(&inst, &self.csr, spec)?;
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

    /// The warm-start seed pairs for `scheme`, when this epoch was
    /// published with seed bounds covering every user.
    fn seed_pairs(&self, scheme: WeightScheme) -> Option<Vec<(u32, f64)>> {
        let bounds = match scheme {
            WeightScheme::Identical => &self.seeds_iden,
            WeightScheme::LinearBySize => &self.seeds_lbs,
        };
        if bounds.len() != self.csr.user_count() {
            return None;
        }
        Some(
            bounds
                .iter()
                .enumerate()
                .map(|(u, &bound)| (UserId::from_index(u).0, bound))
                .collect(),
        )
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

    /// This epoch's build breakdown, as recorded by the publishing writer.
    pub fn build_stats(&self) -> &EpochBuildStats {
        &self.build
    }

    /// Carried (stale-served) memo hits on this epoch.
    pub fn carried_hit_count(&self) -> u64 {
        self.carried_hits.load(Ordering::Relaxed)
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

    /// `(hits, misses)` of the memoized select cache — one miss per
    /// distinct parameter combination per epoch in the steady state.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
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
    /// Whether changes have been applied since the last publish.
    dirty: bool,
    /// Updates applied since the last publish (the next epoch's batch).
    pending_updates: u64,
    /// Warm CELF seed bounds maintained across incremental publishes.
    seeds: SeedState,
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
    /// Per-epoch publish records (dirty slots + update log), newest last,
    /// kept while a recycled or still-retired buffer might need the span
    /// to be patched or replayed up to the current state.
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
    /// Whether the epoch's delta kept the published group universe stable.
    patchable: bool,
    dirty_slots: Vec<(PropertyId, BucketIdx)>,
    /// The epoch's update batch; `None` when it overflowed the log cap.
    updates: Option<Vec<LoggedUpdate>>,
}

/// Writer-side warm-start seed bounds (see
/// [`podium_core::engine::SelectSpec::warm`]): exact for users
/// the delta touched, monotone-slack upper bounds for the rest.
#[derive(Debug, Default)]
struct SeedState {
    iden: Vec<f64>,
    lbs: Vec<f64>,
    /// Incremental publishes since the LBS bounds were last recomputed
    /// exactly; slack accumulates monotonically, so they are rebuilt every
    /// [`LBS_EXACT_REBUILD_EVERY`] epochs to stay tight.
    epochs_since_exact: u32,
}

/// How many slack-maintained publishes may pass before the LBS seed
/// bounds are recomputed exactly.
const LBS_EXACT_REBUILD_EVERY: u32 = 16;

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
/// than the window falls back to the full rebuild/copy paths.
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
        let mut seeds = SeedState::default();
        if mode == PublishMode::Incremental {
            rebuild_seeds_exact(&inc, &mut seeds);
        }
        let snap = Arc::new(Snapshot::assemble(
            0,
            SnapshotParts {
                repo: repo.clone(),
                groups,
                csr,
                seeds_iden: seeds.iden.clone(),
                seeds_lbs: seeds.lbs.clone(),
                carried: Vec::new(),
                build: EpochBuildStats::default(),
            },
        ));
        let store = Arc::new(SnapshotStore::new(snap));
        let writer = Self {
            store: Arc::clone(&store),
            repo,
            inc,
            epoch: 0,
            mode,
            dirty: false,
            pending_updates: 0,
            seeds,
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
        self.dirty = true;
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
    /// [`EpochDelta`]: the CSR is patched in place on a recycled buffer
    /// (falling back to a rebuild when the group universe changed shape),
    /// the repository copy reuses a retired epoch's allocations, warm CELF
    /// seed bounds are maintained per changed user, and memoized selects
    /// covering no dirty group are carried forward with their certified
    /// score lower bound.
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

        // Group set: catch the recycled buffer up through the dirty-slot
        // union of every epoch it is behind; fall back to the full
        // O(edges) rebuild when the span is unpatchable or unknown.
        let base_epoch = parts.epoch;
        let groups_union = if incremental {
            base_epoch.and_then(|e| self.dirty_union_since(e, &delta))
        } else {
            None
        };
        build.groups_patched = groups_union
            .as_deref()
            .is_some_and(|union| self.inc.patch_groups_into(union, &mut parts.groups));
        if !build.groups_patched {
            self.inc.snapshot_into(&mut parts.groups);
        }

        let csr_started = Instant::now();
        let patched = incremental && self.inc.patch_csr_into(&delta, prev.csr(), &mut parts.csr);
        if patched {
            build.csr_patch_micros = elapsed_micros(csr_started);
        } else {
            self.inc.snapshot_csr_into(&mut parts.csr);
            build.full_rebuild_micros = elapsed_micros(csr_started);
        }
        build.patched = patched;

        if incremental {
            self.maintain_seeds(&delta, &prev, patched);
        }

        let mut carried = Vec::new();
        if incremental && patched {
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
                patchable: delta.patchable(),
                dirty_slots: delta.dirty_slots().to_vec(),
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
                seeds_iden: if incremental {
                    self.seeds.iden.clone()
                } else {
                    Vec::new()
                },
                seeds_lbs: if incremental {
                    self.seeds.lbs.clone()
                } else {
                    Vec::new()
                },
                carried,
                build,
            },
        ));
        let swapped = self.store.swap(snap);
        self.retired.push(swapped);
        drop(prev); // release our read pin so reclaim can unwrap it
        self.reclaim();
        self.prune_history();
        self.stats.record(build);
        self.dirty = false;
        self.epoch
    }

    /// The ascending, deduplicated dirty-slot union of every epoch in
    /// `(base_epoch, current)` plus the current `delta` — `None` when the
    /// history does not contiguously cover the span or any epoch in it
    /// (including the current one) changed the group universe.
    fn dirty_union_since(
        &self,
        base_epoch: u64,
        delta: &EpochDelta,
    ) -> Option<Vec<(PropertyId, BucketIdx)>> {
        if !delta.patchable() {
            return None;
        }
        let mut union: Vec<(PropertyId, BucketIdx)> = delta.dirty_slots().to_vec();
        // `self.epoch` is already the epoch being published; walk the
        // records of `base_epoch + 1 ..= self.epoch - 1`, newest first.
        let mut expected = self.epoch.checked_sub(1)?;
        for rec in self.history.iter().rev() {
            if expected == base_epoch {
                break;
            }
            if rec.epoch != expected || !rec.patchable {
                return None;
            }
            union.extend_from_slice(&rec.dirty_slots);
            expected = expected.checked_sub(1)?;
        }
        if expected != base_epoch {
            return None;
        }
        union.sort_unstable();
        union.dedup();
        Some(union)
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
        let Some(batch) = batch else {
            return false;
        };
        let mut span: Vec<&[LoggedUpdate]> = Vec::new();
        let Some(mut expected) = self.epoch.checked_sub(1) else {
            return false;
        };
        for rec in self.history.iter().rev() {
            if expected == base_epoch {
                break;
            }
            let Some(updates) = rec.updates.as_deref() else {
                return false;
            };
            if rec.epoch != expected {
                return false;
            }
            span.push(updates);
            let Some(next) = expected.checked_sub(1) else {
                return false;
            };
            expected = next;
        }
        if expected != base_epoch {
            return false;
        }
        for updates in span.into_iter().rev() {
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

    /// Maintains the warm seed bounds across one incremental publish.
    /// Changed users get exact values; everyone else's LBS bound grows by
    /// the total growth of the dirty groups (a uniform slack that keeps
    /// the bound an upper bound without touching O(n) memberships).
    /// Unpatchable deltas — and every [`LBS_EXACT_REBUILD_EVERY`]-th
    /// publish, to shed accumulated slack — trigger an exact O(E) rebuild.
    fn maintain_seeds(&mut self, delta: &EpochDelta, prev: &Snapshot, patched: bool) {
        let n = self.inc.user_count();
        if !patched
            || self.seeds.iden.len() != n
            || self.seeds.epochs_since_exact >= LBS_EXACT_REBUILD_EVERY
        {
            rebuild_seeds_exact(&self.inc, &mut self.seeds);
            return;
        }
        let dirty_ids = self.inc.dirty_group_ids(delta);
        debug_assert_eq!(
            dirty_ids.len(),
            delta.dirty_slots().len(),
            "patchable deltas have no empty dirty slots"
        );
        let mut slack = 0.0f64;
        for (&(p, b), &g) in delta.dirty_slots().iter().zip(&dirty_ids) {
            let new_len = self.inc.members(p, b).len();
            let old_len = prev
                .csr()
                .members_of(usize::try_from(g).unwrap_or(usize::MAX))
                .len();
            // Group sizes are bounded by the u32 user count, so the
            // growth converts to f64 exactly.
            let grown = new_len.saturating_sub(old_len);
            slack += f64::from(u32::try_from(grown).unwrap_or(u32::MAX));
        }
        if slack > 0.0 {
            let changed = delta.changed_users();
            let mut ci = 0usize;
            for (u, bound) in self.seeds.lbs.iter_mut().enumerate() {
                // podium-lint: allow(index) — guarded by ci < changed.len() in the same condition
                if ci < changed.len() && changed[ci].index() == u {
                    ci += 1;
                    continue;
                }
                *bound += slack;
            }
        }
        for &u in delta.changed_users() {
            let (degree, sizes) = self.inc.seed_gains_of(u);
            // podium-lint: allow(index) — seed vectors are resized to the user count on every publish
            self.seeds.iden[u.index()] = degree;
            // podium-lint: allow(index) — same bound: lbs has one slot per user
            self.seeds.lbs[u.index()] = sizes;
        }
        self.seeds.epochs_since_exact += 1;
    }

    /// Publishes only if updates were applied since the last publish.
    pub fn publish_if_dirty(&mut self) -> Option<u64> {
        self.dirty.then(|| self.publish())
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

/// Recomputes both seed-bound vectors exactly from the incremental state.
fn rebuild_seeds_exact(inc: &IncrementalGroups, seeds: &mut SeedState) {
    let n = inc.user_count();
    seeds.iden.clear();
    seeds.lbs.clear();
    seeds.iden.reserve(n);
    seeds.lbs.reserve(n);
    for u in 0..n {
        let (degree, sizes) = inc.seed_gains_of(UserId::from_index(u));
        seeds.iden.push(degree);
        seeds.lbs.push(sizes);
    }
    seeds.epochs_since_exact = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use podium_core::bucket::BucketingConfig;
    use podium_core::engine::QuotaBound;
    use podium_core::greedy::greedy_select;

    fn seed_repo() -> UserRepository {
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
        let repo = seed_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        RepositoryWriter::new(repo, &buckets)
    }

    /// Once the recycle pool is warm and the publish history covers the
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
        let build = *store.load().build_stats();
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
        let build = *store.load().build_stats();
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
        let build = *store.load().build_stats();
        assert!(build.patched && build.groups_patched && build.repo_replayed);
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
        let repo = seed_repo();
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
        let seed = seed_repo();
        let buckets = BucketingConfig::paper_default().bucketize(&seed);
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
    fn publish_if_dirty_skips_clean_publishes() {
        let (_store, mut w) = writer();
        assert_eq!(w.publish_if_dirty(), None);
        w.apply(&ProfileUpdate {
            user: "Bob".into(),
            property: "avgRating Mexican".into(),
            score: Some(0.9),
        })
        .unwrap();
        assert_eq!(w.publish_if_dirty(), Some(1));
        assert_eq!(w.publish_if_dirty(), None);
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
        assert_eq!(snap.cache_stats(), (1, 1), "second call was a pure hit");
        // Different parameters are separate entries, not collisions.
        let other = SelectParams {
            budget: 2,
            weight: WeightScheme::Identical,
            cov: CovScheme::Single,
            quota_hash: 0,
        };
        let third = snap.select(&other, None).unwrap();
        assert_eq!(third.selection.users.len(), 2);
        assert_eq!(snap.cache_stats(), (1, 2));
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
        assert_eq!(
            snap.cache_stats(),
            (0, 1),
            "new epoch starts from an empty cache"
        );
        // And the fresh computation really ran against the new data.
        let rebuilt = DiversificationInstance::from_schemes(
            snap.groups(),
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        assert_eq!(after.selection, greedy_select(&rebuilt, 2));
    }

    /// Budget-1 LBS select over [`seed_repo`]: Alice wins (covers the
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
        assert!(snap.build_stats().patched, "delta was patchable");
        assert_eq!(snap.build_stats().memos_carried, 1);
        assert_eq!(snap.build_stats().memos_invalidated, 0);
        // Opted-in read: served from the carried memo, tagged stale,
        // keeping the epoch it was computed on.
        let stale = snap.select_with(&params1(), None, true).unwrap();
        assert!(stale.stale);
        assert!(stale.cache_hit);
        assert_eq!(stale.epoch, 0);
        assert_eq!(stale.names, before.names);
        assert_eq!(stale.certified_score_lb, before.selection.score);
        assert_eq!(snap.carried_hit_count(), 1);
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
        assert!(snap.build_stats().patched);
        assert_eq!(snap.build_stats().memos_carried, 0);
        assert_eq!(snap.build_stats().memos_invalidated, 1);
        // Even an opted-in reader gets a fresh computation.
        let out = snap.select_with(&params1(), None, true).unwrap();
        assert!(!out.stale);
        assert!(!out.cache_hit);
        assert_eq!(out.epoch, 1);
        assert_eq!(snap.carried_hit_count(), 0);
    }

    #[test]
    fn full_rebuild_mode_never_patches_or_carries() {
        let repo = seed_repo();
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
        assert!(!snap.build_stats().patched);
        assert_eq!(snap.build_stats().csr_patch_micros, 0);
        assert_eq!(snap.build_stats().memos_carried, 0);
        assert_eq!(snap.build_stats().memos_invalidated, 1);
        let out = snap.select_with(&params1(), None, true).unwrap();
        assert!(!out.stale, "nothing carried to serve stale from");
    }

    #[test]
    fn incremental_publishes_match_full_rebuild_bit_for_bit() {
        let repo = seed_repo();
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
        assert_eq!(snap.cache_stats(), (0, 1));
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
        let constrained = snap.select_constrained(&cparams, &constraints, None, false).unwrap();
        assert!(!constrained.cache_hit, "constrained select must not alias");
        assert_eq!(snap.cache_stats(), (0, 2));
        // Both entries coexist; each repeat is a pure hit on its own key.
        let again = snap.select(&params, None).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.selection, plain.selection);
        let cagain = snap.select_constrained(&cparams, &constraints, None, false).unwrap();
        assert!(cagain.cache_hit);
        assert_eq!(cagain.selection, constrained.selection);
        assert_eq!(snap.cache_stats(), (2, 2));
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
        let outcome = snap.select_constrained(&params, &constraints, None, false).unwrap();
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
            .select_constrained(&iparams, &impossible, None, false)
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
            .select_constrained(&uparams, &unknown, None, false)
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
        let greedy = snap.select_constrained(&base, &greedy_only, None, false).unwrap();
        let annealed = snap
            .select_constrained(
                &SelectParams {
                    quota_hash: with_anneal.fingerprint(),
                    ..base
                },
                &with_anneal,
                None,
                false,
            )
            .unwrap();
        assert!(annealed.selection.score >= greedy.selection.score);
        let repeat = snap
            .select_constrained(
                &SelectParams {
                    quota_hash: with_anneal.fingerprint(),
                    ..base
                },
                &with_anneal,
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
            .select_constrained(&cparams, &constraints, None, false)
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
        assert_eq!(
            snap.build_stats().memos_carried,
            1,
            "the unconstrained memo still carries"
        );
        assert_eq!(
            snap.build_stats().memos_invalidated,
            1,
            "the constrained memo is dropped: a delta can move users into \
             a quota'd group without touching covered groups"
        );
        // And the stale-ok read of the constrained params recomputes.
        let after = snap
            .select_constrained(&cparams, &constraints, None, true)
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
