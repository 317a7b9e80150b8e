//! Incremental group maintenance under profile updates.
//!
//! §9 positions Podium against survey design precisely because it "applies
//! to a given user repository as-is and may be easily executed multiple
//! times, e.g., to incorporate data updates". Rebuilding every group from
//! scratch after each profile change is wasteful when updates trickle in;
//! [`IncrementalGroups`] maintains the bucketed group structure under
//! point updates:
//!
//! * setting or changing a property score moves the user between that
//!   property's bucket groups in `O(log |G_b| + |G_b|)` (sorted-vec
//!   remove/insert);
//! * removing a property score removes the membership;
//! * `snapshot()` materializes a plain [`GroupSet`] (dropping empty
//!   groups) for the selection algorithms.
//!
//! Bucket boundaries themselves stay fixed between re-fits — exactly the
//! prototype's behavior, where the Grouping Module runs "in an offline
//! process" (§7) and selection queries arrive online. Re-fit (re-bucket)
//! when score distributions drift materially.

use crate::bucket::PropertyBuckets;
use crate::engine::CsrGraph;
use crate::group::{non_empty_slots, slot_members, GroupKind, GroupSet};
use crate::ids::{BucketIdx, GroupId, PropertyId, UserId};
use crate::profile::UserRepository;

/// The structural changes accumulated since the last
/// [`IncrementalGroups::take_delta`] — the *profile delta* a publish
/// carries so the serving layer can patch the previous epoch's CSR and
/// invalidate memoized selections per-group instead of globally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochDelta {
    /// Users whose group memberships changed, ascending.
    changed_users: Vec<UserId>,
    /// `(property, bucket)` slots whose member lists changed, ascending.
    dirty_slots: Vec<(PropertyId, BucketIdx)>,
    /// Users appended via [`IncrementalGroups::add_user`].
    users_added: u32,
    /// Some slot crossed the empty/non-empty boundary, so the published
    /// group universe (and every group id after the crossing slot) shifts.
    universe_changed: bool,
}

impl EpochDelta {
    /// No structural change at all since the last `take_delta`.
    pub fn is_empty(&self) -> bool {
        self.changed_users.is_empty() && self.users_added == 0
    }

    /// Users whose memberships changed, ascending.
    pub fn changed_users(&self) -> &[UserId] {
        &self.changed_users
    }

    /// Slots whose member lists changed, ascending `(property, bucket)`.
    pub fn dirty_slots(&self) -> &[(PropertyId, BucketIdx)] {
        &self.dirty_slots
    }

    /// Users appended since the last `take_delta`.
    pub fn users_added(&self) -> u32 {
        self.users_added
    }

    /// Whether the published group universe changed shape.
    pub fn universe_changed(&self) -> bool {
        self.universe_changed
    }

    /// Whether the previous epoch's CSR can be patched in place: the group
    /// universe kept its shape and no users were added, so every published
    /// group id (and the user-offset table's length) is stable.
    pub fn patchable(&self) -> bool {
        !self.universe_changed && self.users_added == 0
    }

    fn note_user(&mut self, u: UserId) {
        if let Err(pos) = self.changed_users.binary_search(&u) {
            self.changed_users.insert(pos, u);
        }
    }

    fn note_slot(&mut self, p: PropertyId, b: BucketIdx, crossed_boundary: bool) {
        if let Err(pos) = self.dirty_slots.binary_search(&(p, b)) {
            self.dirty_slots.insert(pos, (p, b));
        }
        self.universe_changed |= crossed_boundary;
    }
}

/// Bucketed group structure maintained under point updates.
#[derive(Debug, Clone)]
pub struct IncrementalGroups {
    buckets: PropertyBuckets,
    /// `slots[p][b]` = sorted member list of `G_{p,b}` (possibly empty —
    /// unlike [`GroupSet`], empty slots persist so ids stay stable).
    slots: Vec<Vec<Vec<UserId>>>,
    /// Current bucket of each (user, property) membership:
    /// `current[u]` is a sorted list of `(property, bucket)`.
    current: Vec<Vec<(PropertyId, BucketIdx)>>,
    user_count: usize,
    /// Structural changes since the last [`IncrementalGroups::take_delta`].
    delta: EpochDelta,
}

impl IncrementalGroups {
    /// Builds the structure from a repository and a fixed bucketing, with
    /// the same membership walk as [`GroupSet::build`].
    pub fn build(repo: &UserRepository, buckets: &PropertyBuckets) -> Self {
        let slots = slot_members(&repo.property_columns(), buckets, &|_| true);
        // Walking slots in (property, bucket) order leaves every user's
        // list sorted; a user holds at most one slot per profile entry.
        let mut current: Vec<Vec<(PropertyId, BucketIdx)>> = repo
            .iter()
            .map(|(_, profile)| Vec::with_capacity(profile.len()))
            .collect();
        for (p, b, members) in non_empty_slots(&slots) {
            for u in members {
                if let Some(row) = current.get_mut(u.index()) {
                    row.push((p, b));
                }
            }
        }
        Self {
            buckets: buckets.clone(),
            slots,
            current,
            user_count: repo.user_count(),
            delta: EpochDelta::default(),
        }
    }

    /// The structural changes accumulated since the last
    /// [`IncrementalGroups::take_delta`] (or construction).
    pub fn pending_delta(&self) -> &EpochDelta {
        &self.delta
    }

    /// Takes the accumulated delta, resetting the pending one to empty.
    /// Publishers call this once per epoch; the returned delta describes
    /// exactly the changes between the previous `take_delta` point and now.
    pub fn take_delta(&mut self) -> EpochDelta {
        std::mem::take(&mut self.delta)
    }

    /// Number of users tracked.
    pub fn user_count(&self) -> usize {
        self.user_count
    }

    /// Adds a new (empty-profile) user, returning their id.
    pub fn add_user(&mut self) -> UserId {
        let id = UserId::from_index(self.user_count);
        self.user_count += 1;
        self.current.push(Vec::new());
        self.delta.users_added += 1;
        id
    }

    /// Current members of `G_{p,b}` (sorted).
    pub fn members(&self, p: PropertyId, b: BucketIdx) -> &[UserId] {
        self.slots
            .get(p.index())
            .and_then(|s| s.get(b.index()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Applies a score update: `None` removes the property from the user's
    /// profile, `Some(score)` sets it. Returns the `(old, new)` bucket
    /// indices for the affected property, either of which may be `None`.
    ///
    /// # Panics
    /// Panics if `u` or `p` are out of range, or `score` is outside [0, 1].
    pub fn update_score(
        &mut self,
        u: UserId,
        p: PropertyId,
        score: Option<f64>,
    ) -> (Option<BucketIdx>, Option<BucketIdx>) {
        assert!(u.index() < self.user_count, "unknown user {u}");
        assert!(p.index() < self.slots.len(), "unknown property {p}");
        if let Some(s) = score {
            assert!(
                (0.0..=1.0).contains(&s) && s.is_finite(),
                "score out of range"
            );
        }
        let new_bucket = score.and_then(|s| self.buckets.of(p).bucket_of(s));

        // Locate and detach the old membership, if any.
        let memberships = &mut self.current[u.index()];
        let old_idx = memberships.iter().position(|&(q, _)| q == p);
        let old_bucket = old_idx.map(|i| memberships[i].1);
        if old_bucket == new_bucket {
            return (old_bucket, new_bucket); // no structural change
        }
        self.delta.note_user(u);
        if let Some(i) = old_idx {
            let (_, b) = memberships.remove(i);
            let slot = &mut self.slots[p.index()][b.index()];
            if let Ok(pos) = slot.binary_search(&u) {
                slot.remove(pos);
            }
            let emptied = slot.is_empty();
            self.delta.note_slot(p, b, emptied);
        }
        if let Some(b) = new_bucket {
            let slot = &mut self.slots[p.index()][b.index()];
            let was_empty = slot.is_empty();
            if let Err(pos) = slot.binary_search(&u) {
                slot.insert(pos, u);
            }
            self.current[u.index()].push((p, b));
            self.delta.note_slot(p, b, was_empty);
        }
        (old_bucket, new_bucket)
    }

    /// Materializes a [`GroupSet`] of the current non-empty groups, ready
    /// for the selection algorithms. Group labeling and ordering match
    /// [`GroupSet::build`] on an equivalent repository.
    pub fn snapshot(&self) -> GroupSet {
        let mut out = GroupSet::default();
        self.snapshot_into(&mut out);
        out
    }

    /// In-place variant of [`IncrementalGroups::snapshot`]: rebuilds `out`
    /// from the current slots, reusing its member-vector and reverse-link
    /// allocations. A writer that publishes one snapshot per epoch calls
    /// this with the group set it is about to publish (or a recycled
    /// retired one) instead of paying a full from-scratch rebuild when only
    /// a few slots changed.
    pub fn snapshot_into(&self, out: &mut GroupSet) {
        out.assign_simple_memberships(self.user_count, non_empty_slots(&self.slots), &self.buckets);
    }

    /// Materializes the CSR adjacency of the current non-empty groups
    /// directly from the maintained slots — same group ordering as
    /// [`IncrementalGroups::snapshot`], without cloning the member lists
    /// into an intermediate [`GroupSet`]. Pair it with a snapshot taken at
    /// the same time when calling [`crate::engine::select`].
    pub fn snapshot_csr(&self) -> CsrGraph {
        let mut out = CsrGraph::default();
        self.snapshot_csr_into(&mut out);
        out
    }

    /// In-place variant of [`IncrementalGroups::snapshot_csr`]: overwrites
    /// `out` with the CSR of the current non-empty groups, reusing its
    /// buffers. The full-rebuild fallback of the publish path.
    pub fn snapshot_csr_into(&self, out: &mut CsrGraph) {
        let lists = self.non_empty_lists();
        out.assign_from_member_lists(self.user_count, &lists);
    }

    /// Patches `out` into the CSR of the current state using `base` — the
    /// CSR of the state as of the last [`IncrementalGroups::take_delta`] —
    /// and `delta`, the value that `take_delta` returned (or the pending
    /// delta). Per-edge work is spent only on the delta's changed users;
    /// everything else is a bulk copy of `base`. Returns `false`, leaving
    /// `out` untouched, when the delta is not [`EpochDelta::patchable`] or
    /// `base` does not match the expected previous shape — the caller then
    /// falls back to [`IncrementalGroups::snapshot_csr_into`].
    ///
    /// The patched graph is bit-identical to what `snapshot_csr` builds
    /// from scratch.
    pub fn patch_csr_into(&self, delta: &EpochDelta, base: &CsrGraph, out: &mut CsrGraph) -> bool {
        if !delta.patchable() || base.user_count() != self.user_count {
            return false;
        }
        let lists = self.non_empty_lists();
        if lists.len() != base.group_count() {
            return false;
        }
        // Under a patchable delta every slot a changed user belongs to is
        // non-empty (it contains them), so its published rank is defined.
        let ranks = self.slot_ranks();
        let changed: Vec<(u32, Vec<u32>)> = delta
            .changed_users
            .iter()
            .map(|&u| {
                let mut row: Vec<u32> = self.current[u.index()]
                    .iter()
                    .map(|&(p, b)| ranks[p.index()][b.index()])
                    .collect();
                row.sort_unstable();
                (u.0, row)
            })
            .collect();
        out.patch_from(base, &lists, &changed);
        true
    }

    /// Patches `out` — a [`GroupSet`] materialized from an **earlier
    /// epoch of the same published group universe** — up to the current
    /// state. `dirty_slots` must be the ascending, deduplicated union of
    /// the dirty slots of every epoch delta between `out`'s epoch and
    /// now, and each of those deltas must have been
    /// [`EpochDelta::patchable`] (so group ids and the user universe are
    /// stable across the whole span). Work is O(members of dirty slots),
    /// not O(edges): only the dirty member lists and the reverse links of
    /// users appearing in them (old or new) are rewritten.
    ///
    /// Returns `false`, leaving `out` untouched, when the cheap structural
    /// preconditions do not hold (user count, group count, or a dirty
    /// slot's identity/rank mismatch) — the caller then falls back to
    /// [`IncrementalGroups::snapshot_into`]. The patched set compares
    /// group-for-group and link-for-link equal to a from-scratch snapshot.
    pub fn patch_groups_into(
        &self,
        dirty_slots: &[(PropertyId, BucketIdx)],
        out: &mut GroupSet,
    ) -> bool {
        if out.user_count() != self.user_count {
            return false;
        }
        let ranks = self.slot_ranks();
        if out.len() != non_empty_slots(&self.slots).count() {
            return false;
        }
        let mut dirty_ranked: Vec<(usize, &[UserId])> = Vec::with_capacity(dirty_slots.len());
        let mut affected: Vec<UserId> = Vec::new();
        for &(p, b) in dirty_slots {
            let Some(&rank) = ranks.get(p.index()).and_then(|r| r.get(b.index())) else {
                return false;
            };
            if rank == u32::MAX {
                // A dirty slot that is empty now crossed the universe
                // boundary at some point — the span was not patchable.
                return false;
            }
            let members = self.slots[p.index()][b.index()].as_slice();
            let Ok(old) = out.group(GroupId(rank)) else {
                return false;
            };
            if old.kind
                != (GroupKind::Simple {
                    property: p,
                    bucket: b,
                })
            {
                return false;
            }
            affected.extend_from_slice(&old.members);
            affected.extend_from_slice(members);
            dirty_ranked.push((GroupId(rank).index(), members));
        }
        affected.sort_unstable();
        affected.dedup();
        let relink = affected.iter().map(|&u| {
            let mut row: Vec<GroupId> = self.current[u.index()]
                .iter()
                .map(|&(p, b)| GroupId(ranks[p.index()][b.index()]))
                .collect();
            row.sort_unstable();
            (u, row)
        });
        out.patch_simple_memberships(dirty_ranked.iter().copied(), relink);
        true
    }

    /// The published group indices (positions in the snapshot/CSR group
    /// ordering) of the delta's dirty slots, ascending — the groups whose
    /// member lists changed this epoch. Meaningful only while the delta is
    /// [`EpochDelta::patchable`] (otherwise ids have shifted); slots that
    /// are currently empty are skipped.
    pub fn dirty_group_ids(&self, delta: &EpochDelta) -> Vec<u32> {
        let mut dirty = delta.dirty_slots.iter().peekable();
        let mut out = Vec::with_capacity(delta.dirty_slots.len());
        for (rank, (p, b, _)) in (0u32..).zip(non_empty_slots(&self.slots)) {
            while dirty.next_if(|&&key| key < (p, b)).is_some() {}
            if dirty.peek() == Some(&&(p, b)) {
                out.push(rank);
            }
        }
        out
    }

    /// The non-empty slot member lists in published (flat) order.
    fn non_empty_lists(&self) -> Vec<&[UserId]> {
        non_empty_slots(&self.slots)
            .map(|(_, _, members)| members)
            .collect()
    }

    /// The published rank of every slot (`u32::MAX` for empty slots).
    fn slot_ranks(&self) -> Vec<Vec<u32>> {
        let mut ranks: Vec<Vec<u32>> = self
            .slots
            .iter()
            .map(|buckets| vec![u32::MAX; buckets.len()])
            .collect();
        for (rank, (p, b, _)) in (0u32..).zip(non_empty_slots(&self.slots)) {
            if let Some(slot) = ranks.get_mut(p.index()).and_then(|r| r.get_mut(b.index())) {
                *slot = rank;
            }
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketingConfig;

    fn setup() -> (UserRepository, PropertyBuckets, IncrementalGroups) {
        let repo = crate::testutil::table2();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let inc = IncrementalGroups::build(&repo, &buckets);
        (repo, buckets, inc)
    }

    /// Snapshot after building must equal a from-scratch GroupSet.
    fn assert_equivalent(
        inc: &IncrementalGroups,
        repo: &UserRepository,
        buckets: &PropertyBuckets,
    ) {
        let snapshot = inc.snapshot();
        let rebuilt = GroupSet::build(repo, buckets);
        assert_eq!(snapshot.len(), rebuilt.len(), "group counts");
        for ((ga, a), (gb, b)) in snapshot.iter().zip(rebuilt.iter()) {
            assert_eq!(a.members, b.members, "members of {ga} vs {gb}");
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn initial_snapshot_matches_group_set_build() {
        let (repo, buckets, inc) = setup();
        assert_equivalent(&inc, &repo, &buckets);
    }

    #[test]
    fn score_update_moves_user_between_buckets() {
        let (mut repo, buckets, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        // Bob's 0.3 ("low") becomes 0.9 ("high").
        let (old, new) = inc.update_score(bob, mex, Some(0.9));
        assert_ne!(old, new);
        repo.set_score(bob, mex, 0.9).unwrap();
        assert_equivalent(&inc, &repo, &buckets);
    }

    #[test]
    fn same_bucket_update_is_structural_noop() {
        let (repo, _, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let before = inc.snapshot();
        let (old, new) = inc.update_score(bob, mex, Some(0.35)); // still "low"
        assert_eq!(old, new);
        let after = inc.snapshot();
        assert_eq!(before.len(), after.len());
    }

    #[test]
    fn property_removal_and_fresh_insert() {
        let (repo, buckets, mut inc) = setup();
        let alice = repo.user_by_name("Alice").unwrap();
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        inc.update_score(alice, tokyo, None);
        repo.profile(alice).unwrap(); // still exists
                                      // Mirror in the repo:
        let mut mirrored = repo.clone();
        {
            // remove via a fresh profile rebuild
            let mut p = mirrored.profile(alice).unwrap().clone();
            p.remove(tokyo);
            // UserRepository lacks direct profile replacement; emulate by
            // rebuilding a repo copy.
            let mut rebuilt = UserRepository::new();
            for q in 0..mirrored.property_count() {
                rebuilt
                    .intern_property(mirrored.property_label(PropertyId::from_index(q)).unwrap());
            }
            for (u, prof) in mirrored.iter() {
                let nu = rebuilt.add_user(mirrored.user_name(u).unwrap());
                let source = if u == alice { &p } else { prof };
                for (pid, s) in source.iter() {
                    rebuilt.set_score(nu, pid, s).unwrap();
                }
            }
            mirrored = rebuilt;
        }
        assert_equivalent(&inc, &mirrored, &buckets);

        // Fresh insert for a user who never had the property.
        let carol = repo.user_by_name("Carol").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        inc.update_score(carol, mex, Some(0.7));
        let high = buckets.of(mex).bucket_of(0.7).unwrap();
        assert!(inc.members(mex, high).contains(&carol));
    }

    #[test]
    fn new_user_participates_after_updates() {
        let (repo, buckets, mut inc) = setup();
        let frank = inc.add_user();
        assert_eq!(frank.index(), 5);
        let mex = repo.property_id("avgRating Mexican").unwrap();
        inc.update_score(frank, mex, Some(0.95));
        let high = buckets.of(mex).bucket_of(0.95).unwrap();
        assert!(inc.members(mex, high).contains(&frank));
        let snapshot = inc.snapshot();
        assert_eq!(snapshot.user_count(), 6);
        assert!(!snapshot.groups_of(frank).is_empty());
    }

    #[test]
    fn random_update_sequence_matches_rebuild() {
        // Fuzz: apply a deterministic pseudo-random sequence of updates to
        // both the incremental structure and a mirrored repository, then
        // compare snapshots.
        let (mut repo, buckets, mut inc) = setup();
        let props: Vec<PropertyId> = (0..repo.property_count())
            .map(PropertyId::from_index)
            .collect();
        let mut state = 0xFEED_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..200 {
            let u = UserId::from_index(next() % repo.user_count());
            let p = props[next() % props.len()];
            if next() % 5 == 0 {
                inc.update_score(u, p, None);
                // Mirror removal by rebuilding (repo lacks remove; emulate
                // through a scratch profile copy handled below).
                let mut rebuilt = UserRepository::new();
                for q in &props {
                    rebuilt.intern_property(repo.property_label(*q).unwrap());
                }
                for (uu, prof) in repo.iter() {
                    let nu = rebuilt.add_user(repo.user_name(uu).unwrap());
                    for (pid, s) in prof.iter() {
                        if uu == u && pid == p {
                            continue;
                        }
                        rebuilt.set_score(nu, pid, s).unwrap();
                    }
                }
                repo = rebuilt;
            } else {
                let s = (next() % 101) as f64 / 100.0;
                inc.update_score(u, p, Some(s));
                repo.set_score(u, p, s).unwrap();
            }
        }
        assert_equivalent(&inc, &repo, &buckets);
    }

    #[test]
    #[should_panic(expected = "score out of range")]
    fn invalid_score_panics() {
        let (_, _, mut inc) = setup();
        inc.update_score(UserId(0), PropertyId(0), Some(1.5));
    }

    /// `snapshot_into` must agree with `snapshot` both on a fresh target
    /// and when overwriting a stale, differently-shaped target.
    #[test]
    fn snapshot_into_matches_snapshot() {
        let (repo, _, mut inc) = setup();
        let assert_same = |inc: &IncrementalGroups, out: &GroupSet| {
            let fresh = inc.snapshot();
            assert_eq!(out.len(), fresh.len(), "group counts");
            assert_eq!(out.user_count(), fresh.user_count());
            for ((ga, a), (_, b)) in out.iter().zip(fresh.iter()) {
                assert_eq!(a.kind, b.kind, "kind of {ga}");
                assert_eq!(a.members, b.members, "members of {ga}");
            }
            for u in 0..fresh.user_count() {
                let u = UserId::from_index(u);
                assert_eq!(out.groups_of(u), fresh.groups_of(u), "links of {u}");
            }
        };

        let mut out = GroupSet::default();
        inc.snapshot_into(&mut out);
        assert_same(&inc, &out);

        // Mutate: move Bob between buckets, add a user, drop a score, and
        // reuse the previously-populated target.
        let bob = repo.user_by_name("Bob").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        inc.update_score(bob, mex, Some(0.9));
        let alice = repo.user_by_name("Alice").unwrap();
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        inc.update_score(alice, tokyo, None);
        let frank = inc.add_user();
        inc.update_score(frank, mex, Some(0.15));
        inc.snapshot_into(&mut out);
        assert_same(&inc, &out);

        // Shrink back below the reused target's size.
        inc.update_score(frank, mex, None);
        inc.update_score(bob, mex, None);
        inc.snapshot_into(&mut out);
        assert_same(&inc, &out);
    }

    /// Full structural equality against a from-scratch snapshot: groups,
    /// kinds, members, and every reverse-link row.
    fn assert_same_set(inc: &IncrementalGroups, out: &GroupSet) {
        let fresh = inc.snapshot();
        assert_eq!(out.len(), fresh.len(), "group counts");
        assert_eq!(out.user_count(), fresh.user_count());
        for ((ga, a), (_, b)) in out.iter().zip(fresh.iter()) {
            assert_eq!(a.kind, b.kind, "kind of {ga}");
            assert_eq!(a.members, b.members, "members of {ga}");
        }
        for u in 0..fresh.user_count() {
            let u = UserId::from_index(u);
            assert_eq!(out.groups_of(u), fresh.groups_of(u), "links of {u}");
        }
    }

    #[test]
    fn patch_groups_matches_from_scratch_snapshot() {
        let (repo, _, mut inc) = setup();
        let carol = repo.user_by_name("Carol").unwrap();
        let david = repo.user_by_name("David").unwrap();
        let vfc = repo.property_id("visitFreq CheapEats").unwrap();
        let vfm = repo.property_id("visitFreq Mexican").unwrap();

        // The stale buffer is TWO patchable epochs behind: the patch has
        // to catch it up through the union of both deltas' dirty slots.
        let mut stale = inc.snapshot();
        inc.update_score(carol, vfc, Some(0.9));
        let d1 = inc.take_delta();
        assert!(d1.patchable());
        inc.update_score(david, vfm, Some(0.7));
        inc.update_score(carol, vfc, Some(0.15));
        let d2 = inc.take_delta();
        assert!(d2.patchable());

        let mut union: Vec<_> = d1
            .dirty_slots()
            .iter()
            .chain(d2.dirty_slots())
            .copied()
            .collect();
        union.sort_unstable();
        union.dedup();
        assert!(inc.patch_groups_into(&union, &mut stale));
        assert_same_set(&inc, &stale);

        // An empty union over an up-to-date buffer is the identity.
        assert!(inc.patch_groups_into(&[], &mut stale));
        assert_same_set(&inc, &stale);
    }

    #[test]
    fn patch_groups_refuses_structural_mismatches() {
        let (repo, _, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();

        // User-count mismatch: a buffer from before a user was added.
        let mut stale = inc.snapshot();
        let frank = inc.add_user();
        inc.update_score(frank, mex, Some(0.2));
        let delta = inc.take_delta();
        assert!(!delta.patchable());
        let before = stale.clone();
        assert!(!inc.patch_groups_into(delta.dirty_slots(), &mut stale));
        assert_eq!(
            stale.len(),
            before.len(),
            "refused patch leaves out untouched"
        );

        // Group-count mismatch: the universe gained a slot.
        let mut stale = inc.snapshot();
        inc.update_score(bob, mex, None);
        let delta = inc.take_delta();
        if delta.patchable() {
            // Bob shared his bucket, so the universe kept its shape and
            // the patch goes through; dirty a slot that is now empty to
            // exercise the rank guard instead.
            assert!(inc.patch_groups_into(delta.dirty_slots(), &mut stale));
        } else {
            assert!(!inc.patch_groups_into(delta.dirty_slots(), &mut stale));
        }
    }

    #[test]
    fn snapshot_csr_matches_snapshot_group_set() {
        let (repo, _, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        inc.update_score(bob, mex, Some(0.9));
        let frank = inc.add_user();
        inc.update_score(frank, mex, Some(0.2));
        let direct = inc.snapshot_csr();
        let via_set = CsrGraph::from_group_set(&inc.snapshot());
        assert_eq!(direct, via_set);
    }

    #[test]
    fn delta_tracks_changed_users_and_slots() {
        let (repo, buckets, mut inc) = setup();
        assert!(inc.pending_delta().is_empty());

        // Same-bucket update: structurally a no-op, delta stays empty.
        let bob = repo.user_by_name("Bob").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        inc.update_score(bob, mex, Some(0.35));
        assert!(inc.pending_delta().is_empty());

        // Bucket move: Bob and both endpoint slots are recorded.
        inc.update_score(bob, mex, Some(0.9));
        let delta = inc.pending_delta().clone();
        assert_eq!(delta.changed_users(), &[bob]);
        assert_eq!(delta.dirty_slots().len(), 2);
        let high = buckets.of(mex).bucket_of(0.9).unwrap();
        assert!(delta.dirty_slots().contains(&(mex, high)));

        // take_delta drains and resets.
        let taken = inc.take_delta();
        assert_eq!(taken, delta);
        assert!(inc.pending_delta().is_empty());
    }

    #[test]
    fn delta_flags_universe_changes_and_added_users() {
        let (repo, _, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let nyc = repo.property_id("livesIn NYC").unwrap();
        // Bob is the only NYC member: retracting empties the slot.
        inc.update_score(bob, nyc, None);
        assert!(inc.pending_delta().universe_changed());
        assert!(!inc.pending_delta().patchable());
        inc.take_delta();

        let frank = inc.add_user();
        assert_eq!(inc.pending_delta().users_added(), 1);
        assert!(!inc.pending_delta().patchable());
        let _ = frank;
    }

    #[test]
    fn patch_csr_matches_from_scratch_rebuild() {
        let (repo, _, mut inc) = setup();
        let base = inc.snapshot_csr();
        inc.take_delta();

        // A patchable batch: two bucket moves that keep every slot
        // non-empty (the source buckets retain other members, the target
        // buckets already had some).
        let carol = repo.user_by_name("Carol").unwrap();
        let david = repo.user_by_name("David").unwrap();
        let vfc = repo.property_id("visitFreq CheapEats").unwrap();
        let vfm = repo.property_id("visitFreq Mexican").unwrap();
        inc.update_score(carol, vfc, Some(0.9));
        inc.update_score(david, vfm, Some(0.7));
        let delta = inc.take_delta();
        assert!(delta.patchable(), "batch kept the universe shape");

        let mut patched = CsrGraph::default();
        assert!(inc.patch_csr_into(&delta, &base, &mut patched));
        assert_eq!(patched, inc.snapshot_csr(), "patch == from-scratch");

        // The dirty groups name exactly the slots whose members changed.
        let dirty = inc.dirty_group_ids(&delta);
        let fresh = inc.snapshot_csr();
        let differing: Vec<u32> = (0..fresh.group_count() as u32)
            .filter(|&g| base.members_of(g as usize) != fresh.members_of(g as usize))
            .collect();
        assert_eq!(dirty, differing);
    }

    #[test]
    fn patch_csr_refuses_unpatchable_deltas() {
        let (repo, _, mut inc) = setup();
        let base = inc.snapshot_csr();
        inc.take_delta();
        let bob = repo.user_by_name("Bob").unwrap();
        let nyc = repo.property_id("livesIn NYC").unwrap();
        inc.update_score(bob, nyc, None); // empties the NYC slot
        let delta = inc.take_delta();
        let mut out = CsrGraph::default();
        assert!(!inc.patch_csr_into(&delta, &base, &mut out));
        assert_eq!(out, CsrGraph::default(), "target untouched on refusal");
    }

    /// Fuzz: random patchable-and-not update batches; whenever the batch
    /// is patchable the patched CSR must equal the from-scratch build.
    #[test]
    fn random_batches_patch_bit_identically() {
        let (repo, _, mut inc) = setup();
        let props: Vec<PropertyId> = (0..repo.property_count())
            .map(PropertyId::from_index)
            .collect();
        let mut state = 0xD1CE_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut base = inc.snapshot_csr();
        inc.take_delta();
        for _ in 0..60 {
            for _ in 0..1 + next() % 4 {
                let u = UserId::from_index(next() % inc.user_count());
                let p = props[next() % props.len()];
                let s = if next() % 6 == 0 {
                    None
                } else {
                    Some((next() % 101) as f64 / 100.0)
                };
                inc.update_score(u, p, s);
            }
            let delta = inc.take_delta();
            let fresh = inc.snapshot_csr();
            if delta.patchable() {
                let mut patched = CsrGraph::default();
                assert!(inc.patch_csr_into(&delta, &base, &mut patched));
                assert_eq!(patched, fresh, "patched epoch != rebuilt epoch");
            }
            base = fresh;
        }
    }
}
