//! Compressed-sparse-row (CSR) storage of the bipartite user ↔ group graph.
//!
//! [`crate::group::GroupSet`] keeps one `Vec` per group and one `Vec` per
//! user — convenient to build incrementally, but the selection hot loops
//! chase a pointer per adjacency list. [`CsrGraph`] flattens both directions
//! into two offset/adjacency array pairs (ids as raw `u32`), so a candidate
//! scan walks a single contiguous buffer. The group set stays the
//! construction front-end; a `CsrGraph` is derived from it once per
//! selection run (`O(|V| + |E|)`) and is immutable afterwards.
//!
//! A publisher that serves one graph per epoch derives each epoch's graph
//! from the previous one with [`CsrGraph::patch_from`]: unchanged runs of
//! rows and member lists are bulk copies — renumbered through an old → new
//! group-id table when a group emptied or filled — and only the rows and
//! lists the epoch changed are written element by element.

use crate::group::GroupSet;
use crate::ids::UserId;

/// Flat bidirectional adjacency of users and groups.
///
/// Both directions preserve the `GroupSet` ordering: `groups_of(u)` lists
/// group indices in ascending order and `members_of(g)` lists user indices
/// in ascending order, exactly like their nested-`Vec` counterparts — so
/// algorithms ported to CSR traversal visit edges in the same sequence and
/// stay bit-identical to the originals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `user_adj[user_offsets[u]..user_offsets[u + 1]]` = groups of user `u`.
    user_offsets: Vec<u32>,
    user_adj: Vec<u32>,
    /// `group_adj[group_offsets[g]..group_offsets[g + 1]]` = members of `g`.
    group_offsets: Vec<u32>,
    group_adj: Vec<u32>,
}

impl Default for CsrGraph {
    /// The empty graph: no users, no groups, no edges.
    fn default() -> Self {
        Self {
            user_offsets: vec![0],
            user_adj: Vec::new(),
            group_offsets: vec![0],
            group_adj: Vec::new(),
        }
    }
}

impl CsrGraph {
    /// Builds the CSR graph of a group set.
    pub fn from_group_set(groups: &GroupSet) -> Self {
        let lists: Vec<&[UserId]> = groups.iter().map(|(_, g)| g.members.as_slice()).collect();
        Self::from_member_lists(groups.user_count(), &lists)
    }

    /// Builds the CSR graph from one sorted member list per group (groups in
    /// id order) — the shared back-end of [`CsrGraph::from_group_set`] and
    /// [`crate::incremental::IncrementalGroups::snapshot_csr`].
    pub fn from_member_lists(user_count: usize, lists: &[&[UserId]]) -> Self {
        let mut csr = Self::default();
        csr.assign_from_member_lists(user_count, lists);
        csr
    }

    /// In-place variant of [`CsrGraph::from_member_lists`]: overwrites `self`
    /// with the CSR of `lists`, reusing all four buffers. A writer that
    /// publishes one snapshot per epoch calls this on a recycled graph
    /// instead of allocating a fresh one. The result is exactly what
    /// `from_member_lists(user_count, lists)` returns.
    pub fn assign_from_member_lists(&mut self, user_count: usize, lists: &[&[UserId]]) {
        let edges: usize = lists.iter().map(|m| m.len()).sum();
        assert!(
            user_count < u32::MAX as usize,
            "user count exceeds u32 range"
        );
        assert!(
            lists.len() < u32::MAX as usize,
            "group count exceeds u32 range"
        );
        assert!(edges < u32::MAX as usize, "edge count exceeds u32 range");

        // Group side: concatenation of the member lists. Degrees accumulate
        // into `user_offsets[u + 1]` so no scratch vector is needed.
        self.group_offsets.clear();
        self.group_offsets.reserve(lists.len() + 1);
        self.group_offsets.push(0u32);
        self.group_adj.clear();
        self.group_adj.reserve(edges);
        self.user_offsets.clear();
        self.user_offsets.resize(user_count + 1, 0u32);
        for members in lists {
            for &u in *members {
                self.group_adj.push(u.index() as u32);
                self.user_offsets[u.index() + 1] += 1;
            }
            self.group_offsets.push(self.group_adj.len() as u32);
        }
        for i in 1..=user_count {
            self.user_offsets[i] += self.user_offsets[i - 1];
        }

        // User side: counting sort by user, using the offsets themselves as
        // write cursors. Groups are appended in ascending id order, so each
        // user's slice comes out ascending as well.
        self.user_adj.clear();
        self.user_adj.resize(edges, 0u32);
        for (g, members) in lists.iter().enumerate() {
            for &u in *members {
                let c = &mut self.user_offsets[u.index()];
                self.user_adj[*c as usize] = g as u32;
                *c += 1;
            }
        }
        // Each cursor has advanced to the start of the next row; shift the
        // array right by one to restore the offset invariant.
        self.user_offsets.copy_within(0..user_count, 1);
        self.user_offsets[0] = 0;

        debug_assert!(
            self.validate().is_ok(),
            "CSR construction violated its invariants: {}",
            self.validate().unwrap_err()
        );
    }

    /// Patches `self` into the CSR of the next epoch from `base`, the CSR
    /// of the previous epoch over the same users, spending per-edge work
    /// only on what the epoch changed.
    ///
    /// * `remap` maps each `base` group id to its new id, or to `u32::MAX`
    ///   for a group that left; `None` when no id changed.
    /// * `fresh` lists, ascending by new id, the members of every group
    ///   that is new or whose members changed. Every other surviving group
    ///   keeps its `base` members.
    /// * `changed` names, ascending by user, every user whose row differs
    ///   from `base`'s (read through `remap`), with their new row (strictly
    ///   ascending).
    ///
    /// Runs of unchanged groups and users are bulk copies of `base` —
    /// passed through `remap` when ids shifted — and only `fresh` lists and
    /// `changed` rows are written element by element. The result is
    /// bit-identical to `from_member_lists` over the new epoch's lists.
    ///
    /// # Panics
    /// Panics if the changed rows disagree with the member lists on the
    /// edge count.
    pub fn patch_from(
        &mut self,
        base: &CsrGraph,
        remap: Option<&[u32]>,
        fresh: &[(u32, &[UserId])],
        changed: &[(u32, Vec<u32>)],
    ) {
        debug_assert!(
            fresh.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)),
            "fresh groups must be strictly ascending by id"
        );
        debug_assert!(
            changed.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)),
            "changed rows must be strictly ascending by user"
        );
        let offset = |edges: usize| u32::try_from(edges).expect("edge count exceeds u32 range");

        // Group side: merge the surviving base groups, bulk-copied in
        // contiguous runs, with the fresh lists, in new-id order.
        self.group_offsets.clear();
        self.group_offsets.push(0u32);
        self.group_adj.clear();
        self.group_adj.reserve(base.edge_count());
        let mut new_ids = remap.map(|r| r.iter().copied());
        let mut fresh = fresh.iter().peekable();
        let mut run = 0..0usize;
        for (old, bounds) in (0u32..).zip(base.group_offsets.windows(2)) {
            let new = new_ids
                .as_mut()
                .map_or(Some(old), Iterator::next)
                .unwrap_or(u32::MAX);
            let &[lo, hi] = bounds else { continue };
            if new == u32::MAX {
                continue;
            }
            let mut replaced = false;
            while let Some(&(g, members)) = fresh.next_if(|(g, _)| *g <= new) {
                self.copy_group_run(base, &mut run);
                self.group_adj.extend(members.iter().map(|u| u.0));
                self.group_offsets.push(offset(self.group_adj.len()));
                replaced |= g == new;
            }
            if replaced {
                continue;
            }
            let (lo, hi) = (lo as usize, hi as usize);
            if run.end != lo {
                self.copy_group_run(base, &mut run);
                run = lo..lo;
            }
            run.end = hi;
            self.group_offsets
                .push(offset(self.group_adj.len() + run.len()));
        }
        self.copy_group_run(base, &mut run);
        for &(_, members) in fresh {
            self.group_adj.extend(members.iter().map(|u| u.0));
            self.group_offsets.push(offset(self.group_adj.len()));
        }

        // User side: runs of unchanged users are bulk copies of `base`,
        // between which the changed rows are spliced in.
        self.user_offsets.clear();
        self.user_offsets.push(0u32);
        self.user_adj.clear();
        self.user_adj.reserve(self.group_adj.len());
        let mut next = 0usize;
        for (u, row) in changed {
            let u = *u as usize;
            self.copy_user_run(base, next..u, remap);
            self.user_adj.extend_from_slice(row);
            self.user_offsets.push(offset(self.user_adj.len()));
            next = u + 1;
        }
        self.copy_user_run(base, next..base.user_count(), remap);
        assert_eq!(
            self.user_adj.len(),
            self.group_adj.len(),
            "changed rows disagree with the member lists on the edge count"
        );

        debug_assert!(
            self.validate().is_ok(),
            "CSR patch violated the invariants: {}",
            self.validate().unwrap_err()
        );
    }

    /// Appends `base`'s group-side edges in `run` and empties the run at
    /// its end.
    fn copy_group_run(&mut self, base: &CsrGraph, run: &mut std::ops::Range<usize>) {
        self.group_adj
            .extend_from_slice(&base.group_adj[run.clone()]);
        run.start = run.end;
    }

    /// Appends `base`'s rows of the unchanged `users`: their offsets
    /// shifted to follow the rows written so far, their edges renumbered
    /// by `remap`.
    fn copy_user_run(
        &mut self,
        base: &CsrGraph,
        users: std::ops::Range<usize>,
        remap: Option<&[u32]>,
    ) {
        let offsets = &base.user_offsets[users.start..=users.end];
        let (Some(&lo), Some(&hi)) = (offsets.first(), offsets.last()) else {
            return;
        };
        let shift = (self.user_adj.len() as u32).wrapping_sub(lo);
        self.user_offsets
            .extend(offsets.iter().skip(1).map(|&o| o.wrapping_add(shift)));
        let edges = &base.user_adj[lo as usize..hi as usize];
        match remap {
            None => self.user_adj.extend_from_slice(edges),
            Some(remap) => self
                .user_adj
                .extend(edges.iter().map(|&g| remap[g as usize])),
        }
    }

    /// Checks the structural invariants of the CSR representation: offset
    /// arrays start at zero, are non-decreasing, and terminate at their
    /// adjacency length; adjacency ids are in range; every row is strictly
    /// ascending; and the two directions encode the same edge set.
    ///
    /// `O(|E| log deg)`. Construction `debug_assert!`s this, so building the
    /// selection engine under `RUSTFLAGS="-C debug-assertions"` catches
    /// corrupted group data (unsorted or duplicated member lists) before the
    /// greedy loops consume it.
    pub fn validate(&self) -> Result<(), String> {
        let users = self.user_count();
        let groups = self.group_count();
        for (side, offsets, adj, fanout) in [
            ("user", &self.user_offsets, &self.user_adj, groups),
            ("group", &self.group_offsets, &self.group_adj, users),
        ] {
            if offsets.first() != Some(&0) {
                return Err(format!("{side} offsets do not start at 0"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{side} offsets are not non-decreasing"));
            }
            if *offsets.last().expect("offsets are non-empty") as usize != adj.len() {
                return Err(format!(
                    "{side} offsets end at {} but adjacency has {} edges",
                    offsets.last().expect("offsets are non-empty"),
                    adj.len()
                ));
            }
            if let Some(&x) = adj.iter().find(|&&x| x as usize >= fanout) {
                return Err(format!("{side} adjacency id {x} out of range ({fanout})"));
            }
        }
        if self.user_adj.len() != self.group_adj.len() {
            return Err(format!(
                "direction edge counts disagree: {} vs {}",
                self.user_adj.len(),
                self.group_adj.len()
            ));
        }
        for u in 0..users {
            if self.groups_of(u).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("groups_of({u}) is not strictly ascending"));
            }
        }
        for g in 0..groups {
            let members = self.members_of(g);
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("members_of({g}) is not strictly ascending"));
            }
            // Transpose consistency: every (g, u) edge must appear as g in
            // u's (sorted) group row. Combined with equal edge counts this
            // makes the directions encode identical edge sets.
            for &u in members {
                if self
                    .groups_of(u as usize)
                    .binary_search(&(g as u32))
                    .is_err()
                {
                    return Err(format!("edge (g{g}, u{u}) missing from the user direction"));
                }
            }
        }
        Ok(())
    }

    /// Number of users (rows of the user → group direction).
    #[inline]
    pub fn user_count(&self) -> usize {
        self.user_offsets.len() - 1
    }

    /// Number of groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_offsets.len() - 1
    }

    /// Number of membership edges `Σ_G |G|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.user_adj.len()
    }

    /// The group indices user `u` belongs to, ascending.
    #[inline]
    pub fn groups_of(&self, u: usize) -> &[u32] {
        let lo = self.user_offsets[u] as usize;
        let hi = self.user_offsets[u + 1] as usize;
        &self.user_adj[lo..hi]
    }

    /// The member (user) indices of group `g`, ascending.
    #[inline]
    pub fn members_of(&self, g: usize) -> &[u32] {
        let lo = self.group_offsets[g] as usize;
        let hi = self.group_offsets[g + 1] as usize;
        &self.group_adj[lo..hi]
    }

    /// `|{G | u ∈ G}|`.
    #[inline]
    pub fn user_degree(&self, u: usize) -> usize {
        (self.user_offsets[u + 1] - self.user_offsets[u]) as usize
    }

    /// `|G|` for group `g`.
    #[inline]
    pub fn group_size(&self, g: usize) -> usize {
        (self.group_offsets[g + 1] - self.group_offsets[g]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;

    fn demo() -> GroupSet {
        // G0 = {0,1}, G1 = {1,2}, G2 = {3}, G3 = {} is impossible via
        // from_memberships (empty groups still get an id there).
        GroupSet::from_memberships(
            5,
            vec![
                vec![UserId(0), UserId(1)],
                vec![UserId(1), UserId(2)],
                vec![UserId(3)],
            ],
        )
    }

    #[test]
    fn mirrors_group_set_links() {
        let groups = demo();
        let csr = CsrGraph::from_group_set(&groups);
        assert_eq!(csr.user_count(), groups.user_count());
        assert_eq!(csr.group_count(), groups.len());
        assert_eq!(csr.edge_count(), 5);
        for u in 0..groups.user_count() {
            let expect: Vec<u32> = groups
                .groups_of(UserId::from_index(u))
                .iter()
                .map(|g| g.index() as u32)
                .collect();
            assert_eq!(csr.groups_of(u), expect.as_slice(), "user {u}");
            assert_eq!(csr.user_degree(u), expect.len());
        }
        for (gid, g) in groups.iter() {
            let expect: Vec<u32> = g.members.iter().map(|u| u.index() as u32).collect();
            assert_eq!(csr.members_of(gid.index()), expect.as_slice(), "{gid}");
            assert_eq!(csr.group_size(gid.index()), g.size());
        }
    }

    #[test]
    fn adjacency_is_sorted_both_ways() {
        let groups = demo();
        let csr = CsrGraph::from_group_set(&groups);
        for u in 0..csr.user_count() {
            assert!(csr.groups_of(u).windows(2).all(|w| w[0] < w[1]));
        }
        for g in 0..csr.group_count() {
            assert!(csr.members_of(g).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_graph() {
        let groups = GroupSet::from_memberships(0, vec![]);
        let csr = CsrGraph::from_group_set(&groups);
        assert_eq!(csr.user_count(), 0);
        assert_eq!(csr.group_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn validate_accepts_constructed_graphs() {
        for groups in [demo(), GroupSet::from_memberships(0, vec![])] {
            let csr = CsrGraph::from_group_set(&groups);
            assert_eq!(csr.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_corrupted_graphs() {
        let base = CsrGraph::from_group_set(&demo());
        // Out-of-range adjacency id.
        let mut bad = base.clone();
        bad.group_adj[0] = 99;
        assert!(bad.validate().unwrap_err().contains("out of range"));
        // Unsorted member row (swap two members of G0 = {0, 1}).
        let mut bad = base.clone();
        bad.group_adj.swap(0, 1);
        assert!(bad.validate().is_err());
        // Offsets that no longer cover the adjacency.
        let mut bad = base;
        if let Some(o) = bad.user_offsets.last_mut() {
            *o += 1;
        }
        assert!(bad.validate().unwrap_err().contains("offsets"));
    }

    #[test]
    fn default_is_the_valid_empty_graph() {
        let csr = CsrGraph::default();
        assert_eq!(csr.user_count(), 0);
        assert_eq!(csr.group_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.validate(), Ok(()));
        assert_eq!(csr, CsrGraph::from_member_lists(0, &[]));
    }

    #[test]
    fn assign_into_reused_buffer_matches_fresh_build() {
        let big = demo();
        let small =
            GroupSet::from_memberships(2, vec![vec![UserId(0)], vec![UserId(0), UserId(1)]]);
        let mut out = CsrGraph::from_group_set(&big);
        // Overwrite a larger graph with a smaller one and vice versa.
        let small_lists: Vec<&[UserId]> = small.iter().map(|(_, g)| g.members.as_slice()).collect();
        out.assign_from_member_lists(small.user_count(), &small_lists);
        assert_eq!(out, CsrGraph::from_group_set(&small));
        let big_lists: Vec<&[UserId]> = big.iter().map(|(_, g)| g.members.as_slice()).collect();
        out.assign_from_member_lists(big.user_count(), &big_lists);
        assert_eq!(out, CsrGraph::from_group_set(&big));
    }

    #[test]
    fn patch_from_matches_fresh_build() {
        // Base: G0 = {0,1}, G1 = {1,2}, G2 = {3} over 5 users.
        let base = CsrGraph::from_group_set(&demo());
        // New epoch, same universe: user 1 leaves G1, user 4 joins G1 and
        // G2. Changed rows: user 1 -> [0], user 4 -> [1, 2].
        let g0 = [UserId(0), UserId(1)];
        let g1 = [UserId(2), UserId(4)];
        let g2 = [UserId(3), UserId(4)];
        let lists: Vec<&[UserId]> = vec![&g0, &g1, &g2];
        let mut patched = CsrGraph::default();
        patched.patch_from(
            &base,
            None,
            &[(1, &g1), (2, &g2)],
            &[(1, vec![0]), (4, vec![1, 2])],
        );
        assert_eq!(patched, CsrGraph::from_member_lists(5, &lists));

        // An empty delta is the identity.
        let mut same = CsrGraph::default();
        same.patch_from(&base, None, &[], &[]);
        assert_eq!(same, base);
    }

    #[test]
    fn patch_from_remaps_a_shifted_universe() {
        // Base: G0 = {0,1}, G1 = {1,2}, G2 = {3} over 5 users. User 3
        // leaves G2 (it empties and drops out) and joins a new group
        // ordered between G0 and G1, so old G1 becomes G2.
        let base = CsrGraph::from_group_set(&demo());
        let g0 = [UserId(0), UserId(1)];
        let new = [UserId(3)];
        let g2 = [UserId(1), UserId(2)];
        let lists: Vec<&[UserId]> = vec![&g0, &new, &g2];
        let mut patched = CsrGraph::default();
        patched.patch_from(
            &base,
            Some(&[0, 2, u32::MAX]),
            &[(1, &new)],
            &[(3, vec![1])],
        );
        assert_eq!(patched, CsrGraph::from_member_lists(5, &lists));
    }

    #[test]
    fn isolated_users_have_empty_slices() {
        let groups = GroupSet::from_memberships(3, vec![vec![UserId(1)]]);
        let csr = CsrGraph::from_group_set(&groups);
        assert!(csr.groups_of(0).is_empty());
        assert_eq!(csr.groups_of(1), &[0]);
        assert!(csr.groups_of(2).is_empty());
        let _ = GroupId(0);
    }
}
