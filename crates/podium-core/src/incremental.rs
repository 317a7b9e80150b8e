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
//! A publisher does not re-snapshot every epoch. The structure keeps one
//! flat slot → published-id table (the non-empty slots in `(property,
//! bucket)` order are groups `0, 1, …`), and [`EpochDelta`] names the
//! users and slots a batch changed. [`IncrementalGroups::patch_csr_into`]
//! and [`IncrementalGroups::patch_groups_into`] rewrite only those users'
//! rows and those slots' member lists and bulk-copy the rest of an
//! earlier epoch. When a slot empties or fills, every later group id
//! shifts by one; the patches then remap ids as they copy. The only delta
//! they refuse is one that adds users.
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

    /// Whether some slot emptied or filled, shifting published group ids.
    pub fn universe_changed(&self) -> bool {
        self.universe_changed
    }

    /// Folds `later`, the delta of a following epoch, into `self`, which
    /// then describes both epochs' changes at once: what a buffer that is
    /// several epochs behind must catch up on.
    pub fn absorb(&mut self, later: &EpochDelta) {
        self.changed_users.extend_from_slice(&later.changed_users);
        self.changed_users.sort_unstable();
        self.changed_users.dedup();
        self.dirty_slots.extend_from_slice(&later.dirty_slots);
        self.dirty_slots.sort_unstable();
        self.dirty_slots.dedup();
        self.users_added += later.users_added;
        self.universe_changed |= later.universe_changed;
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
    /// Flat index of slot `(p, 0)`; slot `(p, b)` is `first_slot[p] + b`.
    /// The last entry is the number of slots.
    first_slot: Vec<usize>,
    /// Published group id of every slot, flat-indexed; `None` while the
    /// slot is empty. Renumbered only when a slot empties or fills.
    ids: Vec<Option<GroupId>>,
    /// Number of non-empty slots: the published group count.
    group_count: usize,
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
        let first_slot: Vec<usize> = std::iter::once(0)
            .chain(slots.iter().scan(0, |flat, buckets| {
                *flat += buckets.len();
                Some(*flat)
            }))
            .collect();
        let mut inc = Self {
            buckets: buckets.clone(),
            ids: vec![None; first_slot.last().copied().unwrap_or(0)],
            first_slot,
            slots,
            group_count: 0,
            current,
            user_count: repo.user_count(),
            delta: EpochDelta::default(),
        };
        inc.renumber();
        inc
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
        let mut crossed = false;
        if let Some(i) = old_idx {
            let (_, b) = memberships.remove(i);
            let slot = &mut self.slots[p.index()][b.index()];
            if let Ok(pos) = slot.binary_search(&u) {
                slot.remove(pos);
            }
            let emptied = slot.is_empty();
            crossed |= emptied;
            self.delta.note_slot(p, b, emptied);
        }
        if let Some(b) = new_bucket {
            let slot = &mut self.slots[p.index()][b.index()];
            let was_empty = slot.is_empty();
            if let Err(pos) = slot.binary_search(&u) {
                slot.insert(pos, u);
            }
            self.current[u.index()].push((p, b));
            crossed |= was_empty;
            self.delta.note_slot(p, b, was_empty);
        }
        if crossed {
            self.renumber();
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
    /// allocations. The from-scratch reference that
    /// [`IncrementalGroups::patch_groups_into`] must equal, and the
    /// publish path's fallback when an epoch adds users.
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
        let lists: Vec<&[UserId]> = non_empty_slots(&self.slots)
            .map(|(_, _, members)| members)
            .collect();
        out.assign_from_member_lists(self.user_count, &lists);
    }

    /// Patches `out` into the CSR of the current state from `base` and
    /// `base_groups` — the CSR and group set published at the last
    /// [`IncrementalGroups::take_delta`] — and `delta`, the value that
    /// `take_delta` returned. Only the delta's changed users' rows and its
    /// dirty slots' member lists are written element by element; the rest
    /// is bulk-copied from `base`, with group ids remapped (read off
    /// `base_groups`' slots) when a slot emptied or filled. Returns
    /// `false`, leaving `out` untouched, when the delta added users or the
    /// bases do not have the expected shape — the caller then falls back
    /// to [`IncrementalGroups::snapshot_csr_into`].
    ///
    /// The patched graph is bit-identical to what `snapshot_csr` builds
    /// from scratch.
    pub fn patch_csr_into(
        &self,
        delta: &EpochDelta,
        base: &CsrGraph,
        base_groups: &GroupSet,
        out: &mut CsrGraph,
    ) -> bool {
        if delta.users_added > 0
            || base.user_count() != self.user_count
            || base.group_count() != base_groups.len()
        {
            return false;
        }
        let Some(remap) = self.remap_if(delta.universe_changed, base_groups) else {
            return false;
        };
        let fresh: Vec<(u32, &[UserId])> = self
            .fresh_groups(&delta.dirty_slots)
            .map(|(g, _, _, members)| (g.0, members))
            .collect();
        let changed: Vec<(u32, Vec<u32>)> = delta
            .changed_users
            .iter()
            .map(|&u| (u.0, self.links_of(u).into_iter().map(|g| g.0).collect()))
            .collect();
        out.patch_from(base, remap.as_deref(), &fresh, &changed);
        debug_assert_eq!(out.group_count(), self.group_count, "patched group count");
        true
    }

    /// Patches `out` — a group set published from this structure at an
    /// earlier epoch — up to the current state. `span` is the union
    /// ([`EpochDelta::absorb`]) of every epoch delta between `out`'s epoch
    /// and now. Only the span's dirty slots' member lists and its changed
    /// users' reverse-link rows are rewritten; when the span emptied or
    /// filled a slot, the group list shifts around those slots and every
    /// other row's ids are remapped in place.
    ///
    /// Returns `false`, leaving `out` untouched, when the span added users
    /// or `out` does not have the expected shape — the caller then falls
    /// back. The patched set compares group-for-group and link-for-link
    /// equal to a from-scratch snapshot.
    pub fn patch_groups_into(&self, span: &EpochDelta, out: &mut GroupSet) -> bool {
        if span.users_added > 0 || out.user_count() != self.user_count {
            return false;
        }
        let Some(remap) = self.remap_if(span.universe_changed, out) else {
            return false;
        };
        let relink = span.changed_users.iter().map(|&u| (u, self.links_of(u)));
        out.patch_simple_memberships(
            remap.as_deref(),
            self.fresh_groups(&span.dirty_slots),
            relink,
        );
        debug_assert_eq!(out.len(), self.group_count, "patched group count");
        true
    }

    /// The published ids of the delta's dirty slots that are non-empty
    /// now, ascending — the groups whose member lists changed. Meaningful
    /// against an earlier epoch's ids only when the delta did not change
    /// the universe.
    pub fn dirty_group_ids(&self, delta: &EpochDelta) -> Vec<u32> {
        self.fresh_groups(&delta.dirty_slots)
            .map(|(g, ..)| g.0)
            .collect()
    }

    /// The flat index of slot `(p, b)`; `None` if there is no such slot.
    fn flat(&self, p: PropertyId, b: BucketIdx) -> Option<usize> {
        let first = *self.first_slot.get(p.index())?;
        let end = *self.first_slot.get(p.index() + 1)?;
        Some(first + b.index()).filter(|&flat| flat < end)
    }

    /// The published id of slot `(p, b)`; `None` while the slot is empty.
    fn id_of(&self, p: PropertyId, b: BucketIdx) -> Option<GroupId> {
        self.ids.get(self.flat(p, b)?).copied().flatten()
    }

    /// The non-empty slots among `dirty` (ascending, so their ids are
    /// too) with their ids and current members.
    fn fresh_groups<'a>(
        &'a self,
        dirty: &'a [(PropertyId, BucketIdx)],
    ) -> impl Iterator<Item = (GroupId, PropertyId, BucketIdx, &'a [UserId])> + 'a {
        dirty
            .iter()
            .filter_map(|&(p, b)| Some((self.id_of(p, b)?, p, b, self.members(p, b))))
    }

    /// User `u`'s groups as published ids, ascending.
    fn links_of(&self, u: UserId) -> Vec<GroupId> {
        let mut row: Vec<GroupId> = self
            .current
            .get(u.index())
            .into_iter()
            .flatten()
            .filter_map(|&(p, b)| self.id_of(p, b))
            .collect();
        row.sort_unstable();
        row
    }

    /// `Some(None)` when ids did not shift, `Some(Some(remap))` with the
    /// current id of each of `base`'s groups (`u32::MAX` for one whose slot
    /// emptied) when they did. `None` when `base` cannot be a set this
    /// structure published: a group that is not one of its slots, or, with
    /// ids unshifted, a group count that is not the current one.
    fn remap_if(&self, shifted: bool, base: &GroupSet) -> Option<Option<Vec<u32>>> {
        if !shifted {
            return (base.len() == self.group_count).then_some(None);
        }
        let remap = base
            .iter()
            .map(|(_, g)| match g.kind {
                GroupKind::Simple { property, bucket } => {
                    let slot = self.ids.get(self.flat(property, bucket)?)?;
                    Some(slot.map_or(u32::MAX, |id| id.0))
                }
                GroupKind::Complex { .. } => None,
            })
            .collect::<Option<Vec<u32>>>()?;
        Some(Some(remap))
    }

    /// Renumbers the published ids after a slot emptied or filled: the
    /// non-empty slots, in flat order, are groups `0..group_count`.
    fn renumber(&mut self) {
        let mut next = 0usize;
        for (id, members) in self.ids.iter_mut().zip(self.slots.iter().flatten()) {
            *id = (!members.is_empty()).then(|| {
                next += 1;
                GroupId::from_index(next - 1)
            });
        }
        self.group_count = next;
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

        // The stale buffer is TWO epochs behind: the patch has to catch it
        // up through the union of both deltas.
        let mut stale = inc.snapshot();
        inc.update_score(carol, vfc, Some(0.9));
        let mut span = inc.take_delta();
        inc.update_score(david, vfm, Some(0.7));
        inc.update_score(carol, vfc, Some(0.15));
        span.absorb(&inc.take_delta());
        assert!(!span.universe_changed());
        assert_eq!(span.changed_users(), &[carol, david]);
        assert!(inc.patch_groups_into(&span, &mut stale));
        assert_same_set(&inc, &stale);

        // An empty span over an up-to-date buffer is the identity.
        assert!(inc.patch_groups_into(&EpochDelta::default(), &mut stale));
        assert_same_set(&inc, &stale);
    }

    #[test]
    fn patch_groups_remaps_shifted_ids_and_refuses_added_users() {
        let (repo, buckets, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let carol = repo.user_by_name("Carol").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();

        // Two id-shifting epochs behind: Bob leaves the low-Mexican bucket
        // he alone held (every later id shifts down), then Carol fills the
        // empty middle bucket (every later id shifts up).
        let mut stale = inc.snapshot();
        inc.update_score(bob, mex, Some(0.9));
        let mut span = inc.take_delta();
        assert!(span.universe_changed());
        inc.update_score(carol, mex, Some(0.5));
        span.absorb(&inc.take_delta());
        assert!(span.universe_changed());
        let low = buckets.of(mex).bucket_of(0.3).unwrap();
        let mid = buckets.of(mex).bucket_of(0.5).unwrap();
        assert!(inc.members(mex, low).is_empty());
        assert_eq!(inc.members(mex, mid), &[carol]);
        assert!(inc.patch_groups_into(&span, &mut stale));
        assert_same_set(&inc, &stale);

        // A buffer from before a user was added is refused, untouched.
        let mut before = inc.snapshot();
        let frank = inc.add_user();
        inc.update_score(frank, mex, Some(0.2));
        let delta = inc.take_delta();
        assert_eq!(delta.users_added(), 1);
        assert!(!inc.patch_groups_into(&delta, &mut before));
        assert_eq!(before.user_count(), 5, "refused patch leaves out untouched");
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
        // Bob is the only NYC member: retracting empties the slot, and the
        // group set of the epoch before patches across the id shift.
        let mut groups = inc.snapshot();
        inc.update_score(bob, nyc, None);
        let delta = inc.take_delta();
        assert!(delta.universe_changed());
        assert_eq!(delta.users_added(), 0);
        assert!(inc.patch_groups_into(&delta, &mut groups));
        assert_same_set(&inc, &groups);

        // A user-adding delta is flagged and still refused.
        inc.add_user();
        let delta = inc.take_delta();
        assert_eq!(delta.users_added(), 1);
        assert!(!inc.patch_groups_into(&delta, &mut groups));
        assert_eq!(groups.user_count(), 5, "refused patch leaves out untouched");
    }

    #[test]
    fn patch_csr_remaps_id_shifts_and_refuses_added_users() {
        let (repo, _, mut inc) = setup();
        let bob = repo.user_by_name("Bob").unwrap();
        let carol = repo.user_by_name("Carol").unwrap();
        let nyc = repo.property_id("livesIn NYC").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let (base, base_groups) = (inc.snapshot_csr(), inc.snapshot());
        // One delta empties the NYC slot and fills the middle Mexican one.
        inc.update_score(bob, nyc, None);
        inc.update_score(carol, mex, Some(0.5));
        let delta = inc.take_delta();
        assert!(delta.universe_changed());
        let mut patched = CsrGraph::default();
        assert!(inc.patch_csr_into(&delta, &base, &base_groups, &mut patched));
        assert_eq!(patched, inc.snapshot_csr(), "patch == from-scratch");

        let (base, base_groups) = (inc.snapshot_csr(), inc.snapshot());
        inc.add_user();
        let delta = inc.take_delta();
        let mut out = CsrGraph::default();
        assert!(!inc.patch_csr_into(&delta, &base, &base_groups, &mut out));
        assert_eq!(out, CsrGraph::default(), "target untouched on refusal");
    }

    #[test]
    fn patch_csr_matches_from_scratch_rebuild() {
        let (repo, _, mut inc) = setup();
        let (base, base_groups) = (inc.snapshot_csr(), inc.snapshot());
        inc.take_delta();

        // Two bucket moves that keep every slot non-empty (the source
        // buckets retain other members, the target buckets already had
        // some): group ids stay put.
        let carol = repo.user_by_name("Carol").unwrap();
        let david = repo.user_by_name("David").unwrap();
        let vfc = repo.property_id("visitFreq CheapEats").unwrap();
        let vfm = repo.property_id("visitFreq Mexican").unwrap();
        inc.update_score(carol, vfc, Some(0.9));
        inc.update_score(david, vfm, Some(0.7));
        let delta = inc.take_delta();
        assert!(!delta.universe_changed(), "batch kept the universe shape");

        let mut patched = CsrGraph::default();
        assert!(inc.patch_csr_into(&delta, &base, &base_groups, &mut patched));
        assert_eq!(patched, inc.snapshot_csr(), "patch == from-scratch");

        // The dirty groups name exactly the slots whose members changed.
        let dirty = inc.dirty_group_ids(&delta);
        let fresh = inc.snapshot_csr();
        let differing: Vec<u32> = (0..fresh.group_count() as u32)
            .filter(|&g| base.members_of(g as usize) != fresh.members_of(g as usize))
            .collect();
        assert_eq!(dirty, differing);
    }

    /// Fuzz: random update batches — bucket moves, retractions, slots that
    /// empty and fill. Every patched CSR must equal the from-scratch build,
    /// and a group set two epochs behind, caught up through the union of
    /// both deltas, the from-scratch snapshot.
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
        let mut base_groups = inc.snapshot();
        let mut lagging = (inc.snapshot(), EpochDelta::default());
        let mut shifted = 0;
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
            shifted += usize::from(delta.universe_changed());
            let fresh = inc.snapshot_csr();
            let mut patched = CsrGraph::default();
            assert!(inc.patch_csr_into(&delta, &base, &base_groups, &mut patched));
            assert_eq!(patched, fresh, "patched epoch != rebuilt epoch");

            let (mut stale, mut span) = std::mem::take(&mut lagging);
            span.absorb(&delta);
            assert!(inc.patch_groups_into(&span, &mut stale));
            assert_same_set(&inc, &stale);
            lagging = (base_groups, delta);
            base = fresh;
            base_groups = inc.snapshot();
        }
        assert!(shifted > 5, "the fuzz shifts ids ({shifted} epochs)");
    }
}
