//! Simple and complex user groups (paper §3.2, Definitions 3.4–3.5).
//!
//! A *simple group* `G_{p,b}` is the set of users whose score for property
//! `p` falls in bucket `b`. A [`GroupSet`] materializes all non-empty simple
//! groups of a repository under a given bucketing, together with the
//! bidirectional user ↔ group links required by Algorithm 1's data
//! structures (§4, "Data Structures").
//!
//! Complex groups — intersections and unions of simple groups — are modeled
//! by [`GroupExpr`] and can either be evaluated on the fly (used by the
//! intersected-property-coverage metric, §8.2) or materialized into the set.

use serde::{Deserialize, Serialize};

use crate::bucket::{Bucket, PropertyBuckets};
use crate::error::{CoreError, Result};
use crate::ids::{BucketIdx, GroupId, PropertyId, UserId};
use crate::profile::{PropertyColumns, UserRepository};

/// How a group came to be: a simple property × bucket group, or a
/// materialized complex group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupKind {
    /// `G_{p,b}`: users whose score for `property` lies in `bucket`.
    Simple {
        /// The defining property.
        property: PropertyId,
        /// Index of the bucket within the property's bucket set.
        bucket: BucketIdx,
    },
    /// A materialized complex group with a free-form label.
    Complex {
        /// Human-readable description, e.g. `"Tokyo residents ∩ Mexican lovers"`.
        label: String,
    },
}

/// A materialized user group: definition plus sorted member list.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct SimpleGroup {
    /// What defines the group.
    pub kind: GroupKind,
    /// Members, sorted by [`UserId`].
    pub members: Vec<UserId>,
}

impl Clone for SimpleGroup {
    fn clone(&self) -> Self {
        Self {
            kind: self.kind.clone(),
            members: self.members.clone(),
        }
    }

    /// Reuses the member allocation.
    fn clone_from(&mut self, source: &Self) {
        self.kind.clone_from(&source.kind);
        self.members.clone_from(&source.members);
    }
}

impl SimpleGroup {
    /// Group size `|G|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether user `u` belongs to the group (binary search).
    pub fn contains(&self, u: UserId) -> bool {
        self.members.binary_search(&u).is_ok()
    }
}

/// The set of groups `𝒢` over a repository, with bidirectional links.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct GroupSet {
    groups: Vec<SimpleGroup>,
    /// For each user, the (sorted) list of groups they belong to — the
    /// reverse links of §4's data-structure description.
    user_groups: Vec<Vec<GroupId>>,
    /// Copy of the bucket definitions for label rendering.
    buckets: PropertyBuckets,
}

impl Clone for GroupSet {
    fn clone(&self) -> Self {
        Self {
            groups: self.groups.clone(),
            user_groups: self.user_groups.clone(),
            buckets: self.buckets.clone(),
        }
    }

    /// Reuses every member list and reverse-link row allocation: a bulk
    /// copy with no per-edge work. A publisher with no earlier epoch of its
    /// own to patch starts from a copy of the previous one.
    fn clone_from(&mut self, source: &Self) {
        self.groups.clone_from(&source.groups);
        self.user_groups.clone_from(&source.user_groups);
        // Sets of one publisher share their bucketing: compare, not clone.
        if self.buckets != source.buckets {
            self.buckets.clone_from(&source.buckets);
        }
    }
}

impl GroupSet {
    /// Materializes all non-empty simple groups `G_{p,b}` of `repo` under the
    /// bucketing `buckets` (the paper's default `𝒢`, §3.2).
    pub fn build(repo: &UserRepository, buckets: &PropertyBuckets) -> Self {
        Self::build_filtered(repo, buckets, &|_| true)
    }

    /// Like [`GroupSet::build`], but only over properties accepted by
    /// `filter`. This backs the §7 "initial diversification configurations"
    /// feature — e.g. the UI's *Summer Pavilion* configuration "only
    /// considers properties related to a restaurant in that name".
    pub fn build_filtered(
        repo: &UserRepository,
        buckets: &PropertyBuckets,
        filter: &dyn Fn(PropertyId) -> bool,
    ) -> Self {
        Self::from_columns(&repo.property_columns(), buckets, filter)
    }

    /// [`GroupSet::build_filtered`] over columns already built, so a fit
    /// that also bucketizes reads the repository once.
    pub(crate) fn from_columns(
        columns: &PropertyColumns,
        buckets: &PropertyBuckets,
        filter: &dyn Fn(PropertyId) -> bool,
    ) -> Self {
        let slots = slot_members(columns, buckets, filter);
        let mut set = Self::default();
        set.assign_simple_memberships(columns.user_count(), non_empty_slots(&slots), buckets);
        set
    }

    /// Rebuilds `self` from borrowed `(property, bucket, members)` triples,
    /// reusing the existing `groups` and `user_groups` allocations. Triples
    /// must be in ascending `(property, bucket)` order with non-empty,
    /// sorted, deduplicated member lists: the order [`GroupSet::build`]
    /// numbers groups in.
    ///
    /// A writer that publishes one snapshot per epoch
    /// ([`crate::incremental::IncrementalGroups::snapshot_into`]) keeps its
    /// member and reverse-link vectors' capacity across epochs instead of
    /// reallocating them from scratch.
    pub fn assign_simple_memberships<'m>(
        &mut self,
        user_count: usize,
        triples: impl Iterator<Item = (PropertyId, BucketIdx, &'m [UserId])>,
        buckets: &PropertyBuckets,
    ) {
        self.buckets.clone_from(buckets);
        self.user_groups.truncate(user_count);
        for links in &mut self.user_groups {
            links.clear();
        }
        self.user_groups.resize_with(user_count, Vec::new);
        let mut count = 0usize;
        for (property, bucket, members) in triples {
            debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            debug_assert!(!members.is_empty(), "empty groups are dropped");
            let gid = GroupId::from_index(count);
            for &u in members {
                self.user_groups[u.index()].push(gid);
            }
            if let Some(slot) = self.groups.get_mut(count) {
                slot.kind = GroupKind::Simple { property, bucket };
                slot.members.clear();
                slot.members.extend_from_slice(members);
            } else {
                self.groups.push(SimpleGroup {
                    kind: GroupKind::Simple { property, bucket },
                    members: members.to_vec(),
                });
            }
            count += 1;
        }
        self.groups.truncate(count);
    }

    /// Patches `self` — a set of simple groups materialized from an
    /// earlier epoch — up to the current one. When ids shifted, `remap`
    /// maps each group's old id to its new one (`u32::MAX` for a group
    /// whose slot emptied): those groups leave, the rest keep their order,
    /// and every reverse link is renumbered in place. `fresh` then names,
    /// ascending by new id, every group that is new or whose members
    /// changed, and `relink` replaces the reverse-link rows of the users
    /// whose memberships changed. Unaffected member lists and rows, and the
    /// bucket definitions, are untouched: O(|changed|), plus one pass over
    /// the links when ids shifted, where
    /// [`GroupSet::assign_simple_memberships`] is O(|edges|).
    ///
    /// The caller ([`crate::incremental::IncrementalGroups::patch_groups_into`])
    /// guarantees the universe match; indices out of range panic.
    pub(crate) fn patch_simple_memberships<'m>(
        &mut self,
        remap: Option<&[u32]>,
        fresh: impl Iterator<Item = (GroupId, PropertyId, BucketIdx, &'m [UserId])>,
        relink: impl Iterator<Item = (UserId, Vec<GroupId>)>,
    ) {
        if let Some(remap) = remap {
            let mut kept = remap.iter().map(|&g| g != u32::MAX);
            self.groups.retain(|_| kept.next().unwrap_or(false));
            // Rows naming a dropped group belong to changed users and are
            // replaced by `relink` below.
            for row in &mut self.user_groups {
                for g in row.iter_mut() {
                    *g = GroupId(remap[g.index()]);
                }
            }
        }
        for (g, property, bucket, members) in fresh {
            debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            debug_assert!(!members.is_empty(), "empty groups are dropped");
            let kind = GroupKind::Simple { property, bucket };
            if self.groups.get(g.index()).map(|old| &old.kind) != Some(&kind) {
                debug_assert!(remap.is_some(), "only a shift fills a slot");
                self.groups.insert(
                    g.index(),
                    SimpleGroup {
                        kind,
                        members: Vec::new(),
                    },
                );
            }
            let slot = &mut self.groups[g.index()].members;
            slot.clear();
            slot.extend_from_slice(members);
        }
        for (u, links) in relink {
            debug_assert!(links.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            let row = &mut self.user_groups[u.index()];
            row.clear();
            row.extend_from_slice(&links);
        }
    }

    /// Builds a group set directly from member lists (tests, synthetic
    /// instances such as the Set-Cover reduction of Proposition 4.1).
    pub fn from_memberships(user_count: usize, memberships: Vec<Vec<UserId>>) -> Self {
        let mut groups = Vec::with_capacity(memberships.len());
        let mut user_groups: Vec<Vec<GroupId>> = vec![Vec::new(); user_count];
        for (i, mut members) in memberships.into_iter().enumerate() {
            members.sort();
            members.dedup();
            let gid = GroupId::from_index(i);
            for &u in &members {
                user_groups[u.index()].push(gid);
            }
            groups.push(SimpleGroup {
                kind: GroupKind::Complex {
                    label: format!("G{i}"),
                },
                members,
            });
        }
        Self {
            groups,
            user_groups,
            buckets: PropertyBuckets::default(),
        }
    }

    /// Number of groups `|𝒢|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of users the set was built over.
    #[inline]
    pub fn user_count(&self) -> usize {
        self.user_groups.len()
    }

    /// Borrows a group.
    pub fn group(&self, g: GroupId) -> Result<&SimpleGroup> {
        self.groups.get(g.index()).ok_or(CoreError::UnknownGroup(g))
    }

    /// Iterates over `(id, group)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &SimpleGroup)> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (GroupId::from_index(i), g))
    }

    /// All group ids.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = GroupId> {
        (0..self.groups.len()).map(GroupId::from_index)
    }

    /// The groups user `u` belongs to (the forward links of §4).
    pub fn groups_of(&self, u: UserId) -> &[GroupId] {
        self.user_groups
            .get(u.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// `max_G |G|` — appears in the complexity bound of Proposition 4.4.
    pub fn max_group_size(&self) -> usize {
        self.groups.iter().map(SimpleGroup::size).max().unwrap_or(0)
    }

    /// `max_u |{G | u ∈ G}|` — the other factor of the complexity bound.
    pub fn max_groups_per_user(&self) -> usize {
        self.user_groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The bucket that defines simple group `g`, if it is simple.
    pub fn bucket_of_group(&self, g: GroupId) -> Option<&Bucket> {
        match &self.groups.get(g.index())?.kind {
            GroupKind::Simple { property, bucket } => self.buckets.of(*property).bucket(*bucket),
            GroupKind::Complex { .. } => None,
        }
    }

    /// A human-readable label for group `g`, combining the property label and
    /// bucket label as §5 prescribes (e.g. `"high avgRating Mexican"`).
    pub fn label(&self, g: GroupId, repo: &UserRepository) -> String {
        match self.groups.get(g.index()).map(|gr| &gr.kind) {
            Some(GroupKind::Simple { property, bucket }) => {
                let prop = repo
                    .property_label(*property)
                    .unwrap_or("<unknown property>");
                match self.buckets.of(*property).bucket(*bucket) {
                    Some(b) if b.label.is_empty() => prop.to_owned(),
                    Some(b) => format!("{} {}", b.label, prop),
                    None => prop.to_owned(),
                }
            }
            Some(GroupKind::Complex { label }) => label.clone(),
            None => format!("<unknown group {g}>"),
        }
    }

    /// Materializes a complex group from an expression and appends it,
    /// returning its id. The expression is evaluated against the *current*
    /// groups of the set.
    pub fn add_complex(&mut self, label: impl Into<String>, expr: &GroupExpr) -> Result<GroupId> {
        let members = expr.evaluate(self)?;
        let gid = GroupId::from_index(self.groups.len());
        for &u in &members {
            self.user_groups[u.index()].push(gid);
        }
        self.groups.push(SimpleGroup {
            kind: GroupKind::Complex {
                label: label.into(),
            },
            members,
        });
        Ok(gid)
    }

    /// Returns a pruned copy keeping only groups with at least `min_size`
    /// members, and — if `max_groups` is set — only the largest `max_groups`
    /// of those (ties broken by group id). Group ids are re-assigned densely
    /// in the *original* id order of the survivors.
    ///
    /// This is the practical §2 dimensionality lever: dropping near-empty
    /// niche groups shrinks `|𝒢|` (and thus the greedy's update cost)
    /// without materially changing which users cover the population.
    pub fn prune(&self, min_size: usize, max_groups: Option<usize>) -> GroupSet {
        let mut keep: Vec<GroupId> = self
            .iter()
            .filter(|(_, g)| g.size() >= min_size)
            .map(|(id, _)| id)
            .collect();
        if let Some(cap) = max_groups {
            if keep.len() > cap {
                keep.sort_by_key(|&g| (std::cmp::Reverse(self.groups[g.index()].size()), g));
                keep.truncate(cap);
                keep.sort();
            }
        }
        let mut groups = Vec::with_capacity(keep.len());
        let mut user_groups: Vec<Vec<GroupId>> = vec![Vec::new(); self.user_count()];
        for (new_idx, &old) in keep.iter().enumerate() {
            let g = &self.groups[old.index()];
            let gid = GroupId::from_index(new_idx);
            for &u in &g.members {
                user_groups[u.index()].push(gid);
            }
            groups.push(g.clone());
        }
        GroupSet {
            groups,
            user_groups,
            buckets: self.buckets.clone(),
        }
    }

    /// All simple groups defined over `property` (e.g. all buckets of
    /// `β(livesIn …)`), in bucket order.
    pub fn groups_of_property(&self, property: PropertyId) -> Vec<GroupId> {
        self.iter()
            .filter(
                |(_, g)| matches!(g.kind, GroupKind::Simple { property: p, .. } if p == property),
            )
            .map(|(id, _)| id)
            .collect()
    }
}

/// The one membership walk behind every group build: `slots[p][b]` lists
/// the members of `G_{p,b}`, ascending, and is empty when nobody's score
/// falls in bucket `b`. A property without buckets, or one `filter`
/// rejects, gets no slots; `filter` runs at most once per property.
pub(crate) fn slot_members(
    columns: &PropertyColumns,
    buckets: &PropertyBuckets,
    filter: &dyn Fn(PropertyId) -> bool,
) -> Vec<Vec<Vec<UserId>>> {
    columns
        .iter()
        .map(|(p, users, scores)| {
            let set = buckets.of(p);
            if set.is_empty() || !filter(p) {
                return Vec::new();
            }
            let mut slots = vec![Vec::new(); set.len()];
            for (&u, &s) in users.iter().zip(scores) {
                if let Some(members) = set.bucket_of(s).and_then(|b| slots.get_mut(b.index())) {
                    members.push(u);
                }
            }
            slots
        })
        .collect()
}

/// The non-empty slots of `slots` as `(property, bucket, members)`, in
/// `(property, bucket)` order: the `i`-th is published as group `i`.
pub(crate) fn non_empty_slots(
    slots: &[Vec<Vec<UserId>>],
) -> impl Iterator<Item = (PropertyId, BucketIdx, &[UserId])> {
    slots.iter().enumerate().flat_map(|(p, buckets)| {
        buckets
            .iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(move |(b, members)| {
                (
                    PropertyId::from_index(p),
                    BucketIdx::from_index(b),
                    members.as_slice(),
                )
            })
    })
}

/// A complex-group expression over existing groups (§3.2: "Simple user
/// groups can be used to define more complex ones as the intersection or
/// union of a few simple groups").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupExpr {
    /// Reference to an existing group.
    Group(GroupId),
    /// Intersection of sub-expressions.
    And(Vec<GroupExpr>),
    /// Union of sub-expressions.
    Or(Vec<GroupExpr>),
}

impl GroupExpr {
    /// Evaluates to a sorted member list.
    pub fn evaluate(&self, set: &GroupSet) -> Result<Vec<UserId>> {
        match self {
            GroupExpr::Group(g) => Ok(set.group(*g)?.members.clone()),
            GroupExpr::And(parts) => {
                let mut iter = parts.iter();
                let mut acc = match iter.next() {
                    Some(e) => e.evaluate(set)?,
                    None => return Ok(Vec::new()),
                };
                for e in iter {
                    let other = e.evaluate(set)?;
                    acc = intersect_sorted(&acc, &other);
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
            GroupExpr::Or(parts) => {
                let mut acc: Vec<UserId> = Vec::new();
                for e in parts {
                    acc.extend(e.evaluate(set)?);
                }
                acc.sort();
                acc.dedup();
                Ok(acc)
            }
        }
    }
}

/// Intersection of two sorted, deduplicated id lists.
pub fn intersect_sorted(a: &[UserId], b: &[UserId]) -> Vec<UserId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketingConfig;

    /// Builds the repository of the paper's Table 2 (used across tests).
    fn table2_like() -> (UserRepository, GroupSet) {
        let mut repo = UserRepository::new();
        let users: Vec<UserId> = ["Alice", "Bob", "Carol", "David", "Eve"]
            .iter()
            .map(|n| repo.add_user(*n))
            .collect();
        let lives_tokyo = repo.intern_property("livesIn Tokyo");
        let avg_mex = repo.intern_property("avgRating Mexican");
        repo.set_score(users[0], lives_tokyo, 1.0).unwrap();
        repo.set_score(users[3], lives_tokyo, 1.0).unwrap();
        repo.set_score(users[0], avg_mex, 0.95).unwrap();
        repo.set_score(users[1], avg_mex, 0.3).unwrap();
        repo.set_score(users[3], avg_mex, 0.75).unwrap();
        repo.set_score(users[4], avg_mex, 0.8).unwrap();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let groups = GroupSet::build(&repo, &buckets);
        (repo, groups)
    }

    #[test]
    fn builds_example_35_groups() {
        let (repo, groups) = table2_like();
        // Expected: livesIn Tokyo {Alice, David}; avgRating Mexican low {Bob};
        // avgRating Mexican high {Alice, David, Eve}.
        assert_eq!(groups.len(), 3);
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let tokyo_groups = groups.groups_of_property(tokyo);
        assert_eq!(tokyo_groups.len(), 1);
        let g = groups.group(tokyo_groups[0]).unwrap();
        assert_eq!(g.members, vec![UserId(0), UserId(3)]);

        let mex = repo.property_id("avgRating Mexican").unwrap();
        let mex_groups = groups.groups_of_property(mex);
        assert_eq!(mex_groups.len(), 2);
        let sizes: Vec<usize> = mex_groups
            .iter()
            .map(|&g| groups.group(g).unwrap().size())
            .collect();
        assert_eq!(sizes, vec![1, 3], "low {{Bob}}, high {{Alice, David, Eve}}");
    }

    #[test]
    fn bidirectional_links_consistent() {
        let (_, groups) = table2_like();
        for (gid, g) in groups.iter() {
            for &u in &g.members {
                assert!(
                    groups.groups_of(u).contains(&gid),
                    "reverse link missing for {u} in {gid}"
                );
            }
        }
        for u in 0..groups.user_count() {
            let uid = UserId::from_index(u);
            for &gid in groups.groups_of(uid) {
                assert!(groups.group(gid).unwrap().contains(uid));
            }
        }
    }

    #[test]
    fn labels_combine_bucket_and_property() {
        let (repo, groups) = table2_like();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let labels: Vec<String> = groups
            .groups_of_property(mex)
            .into_iter()
            .map(|g| groups.label(g, &repo))
            .collect();
        assert!(labels.contains(&"low avgRating Mexican".to_owned()));
        assert!(labels.contains(&"high avgRating Mexican".to_owned()));
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let tg = groups.groups_of_property(tokyo)[0];
        assert_eq!(
            groups.label(tg, &repo),
            "livesIn Tokyo",
            "Boolean bucket label is empty (§5)"
        );
    }

    #[test]
    fn complex_group_example_35() {
        // "Tokyo residents who are also Mexican food lovers" = {Alice, David}.
        let (repo, mut groups) = table2_like();
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let tg = groups.groups_of_property(tokyo)[0];
        let high_mex = groups
            .groups_of_property(mex)
            .into_iter()
            .find(|&g| groups.group(g).unwrap().size() == 3)
            .unwrap();
        let expr = GroupExpr::And(vec![GroupExpr::Group(tg), GroupExpr::Group(high_mex)]);
        let gid = groups
            .add_complex("Tokyo residents ∩ Mexican food lovers", &expr)
            .unwrap();
        let g = groups.group(gid).unwrap();
        assert_eq!(g.members, vec![UserId(0), UserId(3)]);
        // Reverse links updated.
        assert!(groups.groups_of(UserId(0)).contains(&gid));
    }

    #[test]
    fn or_expression_unions() {
        let (_, groups) = table2_like();
        let expr = GroupExpr::Or(vec![
            GroupExpr::Group(GroupId(0)),
            GroupExpr::Group(GroupId(1)),
            GroupExpr::Group(GroupId(2)),
        ]);
        let members = expr.evaluate(&groups).unwrap();
        // Union of all groups = everyone except Carol (no scored property).
        assert_eq!(members.len(), 4);
        assert!(!members.contains(&UserId(2)));
    }

    #[test]
    fn empty_and_expression() {
        let (_, groups) = table2_like();
        assert!(GroupExpr::And(vec![]).evaluate(&groups).unwrap().is_empty());
    }

    #[test]
    fn unknown_group_errors() {
        let (_, groups) = table2_like();
        assert!(matches!(
            groups.group(GroupId(99)),
            Err(CoreError::UnknownGroup(_))
        ));
        assert!(GroupExpr::Group(GroupId(99)).evaluate(&groups).is_err());
    }

    #[test]
    fn from_memberships_dedups_and_sorts() {
        let set = GroupSet::from_memberships(
            3,
            vec![vec![UserId(2), UserId(0), UserId(2)], vec![UserId(1)]],
        );
        assert_eq!(
            set.group(GroupId(0)).unwrap().members,
            vec![UserId(0), UserId(2)]
        );
        assert_eq!(set.max_group_size(), 2);
        assert_eq!(set.max_groups_per_user(), 1);
    }

    #[test]
    fn intersect_sorted_basics() {
        let a = vec![UserId(1), UserId(3), UserId(5)];
        let b = vec![UserId(2), UserId(3), UserId(5), UserId(7)];
        assert_eq!(intersect_sorted(&a, &b), vec![UserId(3), UserId(5)]);
        assert!(intersect_sorted(&a, &[]).is_empty());
    }

    #[test]
    fn stats_on_table2() {
        let (_, groups) = table2_like();
        assert_eq!(groups.max_group_size(), 3);
        assert_eq!(groups.max_groups_per_user(), 2); // Alice, David
    }

    #[test]
    fn prune_by_min_size() {
        let (_, groups) = table2_like();
        // Sizes: 2 (Tokyo), 1 (mex low), 3 (mex high).
        let pruned = groups.prune(2, None);
        assert_eq!(pruned.len(), 2);
        assert_eq!(pruned.max_group_size(), 3);
        // Reverse links rebuilt consistently.
        for (gid, g) in pruned.iter() {
            for &u in &g.members {
                assert!(pruned.groups_of(u).contains(&gid));
            }
        }
        // Bob (only in the size-1 group) now belongs to no group.
        assert!(pruned.groups_of(UserId(1)).is_empty());
    }

    #[test]
    fn prune_by_max_groups_keeps_largest() {
        let (_, groups) = table2_like();
        let pruned = groups.prune(0, Some(1));
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned.group(GroupId(0)).unwrap().size(), 3, "largest kept");
    }

    #[test]
    fn prune_noop_preserves_everything() {
        let (_, groups) = table2_like();
        let pruned = groups.prune(0, None);
        assert_eq!(pruned.len(), groups.len());
        for (gid, g) in groups.iter() {
            assert_eq!(pruned.group(gid).unwrap().members, g.members);
        }
    }
}
