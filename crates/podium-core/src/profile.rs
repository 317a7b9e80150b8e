//! User profiles and the user repository (paper §3.1).
//!
//! A profile is the tuple `D_u = ⟨P_u, S_u⟩`: the set of properties known for
//! user `u` together with a score in `[0, 1]` for each. Profiles are sparse —
//! a property absent from a profile is *unknown* under the open-world
//! assumption, which is distinct from a property present with score `0.0`
//! (known false, e.g. produced by functional-property inference).
//!
//! The repository interns property labels so that the rest of the pipeline
//! works with dense [`PropertyId`] indices.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::ids::{PropertyId, UserId};

/// A sparse user profile: `(property, score)` pairs sorted by property id.
///
/// Scores are normalized to `[0, 1]` (Definition of user profiles, §3.1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    entries: Vec<(PropertyId, f64)>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known properties `|P_u|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the profile has no known properties.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the score `S_u(p)` if property `p` is known for this user.
    pub fn score(&self, p: PropertyId) -> Option<f64> {
        self.entries
            .binary_search_by_key(&p, |&(q, _)| q)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether property `p` is known for this user (`p ∈ P_u`).
    #[inline]
    pub fn contains(&self, p: PropertyId) -> bool {
        self.score(p).is_some()
    }

    /// Sets (or overwrites) the score of property `p`.
    ///
    /// Returns an error if `score` is outside `[0, 1]` or not finite.
    pub fn set(&mut self, p: PropertyId, score: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&score) || !score.is_finite() {
            return Err(CoreError::ScoreOutOfRange { score, property: p });
        }
        match self.entries.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(i) => self.entries[i].1 = score,
            Err(i) => self.entries.insert(i, (p, score)),
        }
        Ok(())
    }

    /// Removes property `p` from the profile, returning its previous score.
    pub fn remove(&mut self, p: PropertyId) -> Option<f64> {
        match self.entries.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterates over `(property, score)` pairs in increasing property order.
    pub fn iter(&self) -> impl Iterator<Item = (PropertyId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The set of known properties `P_u`, in increasing order.
    pub fn properties(&self) -> impl Iterator<Item = PropertyId> + '_ {
        self.entries.iter().map(|&(p, _)| p)
    }

    /// Jaccard distance between the *property sets* of two profiles:
    /// `1 - |P_u ∩ P_v| / |P_u ∪ P_v|`.
    ///
    /// This is the pairwise distance used by the distance-based S-Model
    /// baseline (§8.3). Two empty profiles have distance `0`.
    pub fn jaccard_distance(&self, other: &Profile) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let mut inter = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = self.entries.len() + other.entries.len() - inter;
        1.0 - inter as f64 / union as f64
    }
}

/// A repository of user profiles with interned property labels (§3.1).
///
/// This is the population `𝒰` from which diverse subsets are selected.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserRepository {
    property_names: Vec<String>,
    #[serde(skip)]
    property_index: HashMap<String, PropertyId>,
    user_names: Vec<String>,
    profiles: Vec<Profile>,
}

impl UserRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites `target` with a copy of `self`, reusing `target`'s
    /// allocations (strings, profile entry vectors, index capacity) where
    /// sizes allow. A single-writer publish loop that snapshots the
    /// repository every epoch calls this with a recycled retired copy: in
    /// the steady state (stable user set, bounded profile churn) the copy
    /// degenerates to memcpys with no allocator traffic, where
    /// `target = self.clone()` would reallocate every string and vector.
    pub fn clone_into_repo(&self, target: &mut UserRepository) {
        target.property_names.clone_from(&self.property_names);
        target.property_index.clone_from(&self.property_index);
        target.user_names.clone_from(&self.user_names);
        // `Profile`'s derived `Clone` has no allocation-reusing
        // `clone_from`, so the entry vectors are recycled by hand.
        target.profiles.truncate(self.profiles.len());
        for (i, profile) in self.profiles.iter().enumerate() {
            match target.profiles.get_mut(i) {
                Some(slot) => slot.entries.clone_from(&profile.entries),
                None => target.profiles.push(profile.clone()),
            }
        }
    }

    /// Rebuilds the label → id index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.property_index = self
            .property_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), PropertyId::from_index(i)))
            .collect();
    }

    /// Number of users `|𝒰|`.
    #[inline]
    pub fn user_count(&self) -> usize {
        self.profiles.len()
    }

    /// Number of distinct interned properties `|𝒫|`.
    #[inline]
    pub fn property_count(&self) -> usize {
        self.property_names.len()
    }

    /// Adds a user with a display name and an empty profile.
    pub fn add_user(&mut self, name: impl Into<String>) -> UserId {
        let id = UserId::from_index(self.profiles.len());
        self.user_names.push(name.into());
        self.profiles.push(Profile::new());
        id
    }

    /// Interns a property label, returning its id (existing or fresh).
    pub fn intern_property(&mut self, label: impl AsRef<str>) -> PropertyId {
        let label = label.as_ref();
        if let Some(&id) = self.property_index.get(label) {
            return id;
        }
        let id = PropertyId::from_index(self.property_names.len());
        self.property_names.push(label.to_owned());
        self.property_index.insert(label.to_owned(), id);
        id
    }

    /// Looks up a property id by label without interning.
    pub fn property_id(&self, label: &str) -> Option<PropertyId> {
        self.property_index.get(label).copied()
    }

    /// The human-readable label of a property (used by explanations, §5).
    pub fn property_label(&self, p: PropertyId) -> Result<&str> {
        self.property_names
            .get(p.index())
            .map(String::as_str)
            .ok_or(CoreError::UnknownProperty(p))
    }

    /// The display name of a user.
    pub fn user_name(&self, u: UserId) -> Result<&str> {
        self.user_names
            .get(u.index())
            .map(String::as_str)
            .ok_or(CoreError::UnknownUser(u))
    }

    /// Finds a user id by display name (linear scan; intended for tests and
    /// small examples).
    pub fn user_by_name(&self, name: &str) -> Option<UserId> {
        self.user_names
            .iter()
            .position(|n| n == name)
            .map(UserId::from_index)
    }

    /// Sets a score in a user's profile.
    pub fn set_score(&mut self, u: UserId, p: PropertyId, score: f64) -> Result<()> {
        if p.index() >= self.property_names.len() {
            return Err(CoreError::UnknownProperty(p));
        }
        let profile = self
            .profiles
            .get_mut(u.index())
            .ok_or(CoreError::UnknownUser(u))?;
        profile.set(p, score)
    }

    /// Removes a score from a user's profile, returning the previous value
    /// if one was set. Removing an absent score is a no-op (`Ok(None)`) —
    /// the counterpart of [`Profile::remove`] at the repository level, used
    /// by update streams that retract opinions.
    pub fn remove_score(&mut self, u: UserId, p: PropertyId) -> Result<Option<f64>> {
        if p.index() >= self.property_names.len() {
            return Err(CoreError::UnknownProperty(p));
        }
        let profile = self
            .profiles
            .get_mut(u.index())
            .ok_or(CoreError::UnknownUser(u))?;
        Ok(profile.remove(p))
    }

    /// Reads a score, if the property is known for the user.
    pub fn score(&self, u: UserId, p: PropertyId) -> Option<f64> {
        self.profiles.get(u.index()).and_then(|pr| pr.score(p))
    }

    /// Borrows a user's profile.
    pub fn profile(&self, u: UserId) -> Result<&Profile> {
        self.profiles
            .get(u.index())
            .ok_or(CoreError::UnknownUser(u))
    }

    /// Iterates over all user ids.
    pub fn users(&self) -> impl ExactSizeIterator<Item = UserId> {
        (0..self.profiles.len()).map(UserId::from_index)
    }

    /// Iterates over `(user, profile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Profile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (UserId::from_index(i), p))
    }

    /// Property support `|p| = |{u ∈ 𝒰 | p ∈ P_u}|` (§3.1 notation).
    pub fn property_support(&self, p: PropertyId) -> usize {
        self.profiles.iter().filter(|pr| pr.contains(p)).count()
    }

    /// Every profile entry regrouped by property, users ascending: one
    /// counting sort, O(|𝒰| + |𝒫| + Σ_u |P_u|).
    pub(crate) fn property_columns(&self) -> PropertyColumns {
        // Start each column where the previous one ends; placing users in
        // order then leaves every cursor at its column's end.
        let mut cursors = vec![0usize; self.property_count()];
        for (p, _) in self.profiles.iter().flat_map(Profile::iter) {
            if let Some(count) = cursors.get_mut(p.index()) {
                *count += 1;
            }
        }
        let mut total = 0;
        for cursor in &mut cursors {
            let count = *cursor;
            *cursor = total;
            total += count;
        }
        let mut users = vec![UserId(0); total];
        let mut scores = vec![0.0; total];
        for (u, profile) in self.iter() {
            for (p, s) in profile.iter() {
                if let Some(at) = cursors.get_mut(p.index()) {
                    if let (Some(user), Some(score)) = (users.get_mut(*at), scores.get_mut(*at)) {
                        *user = u;
                        *score = s;
                    }
                    *at += 1;
                }
            }
        }
        PropertyColumns {
            user_count: self.user_count(),
            ends: cursors,
            users,
            scores,
        }
    }

    /// Average profile size `avg_u |P_u|`.
    pub fn mean_profile_size(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        self.profiles.iter().map(Profile::len).sum::<usize>() as f64 / self.profiles.len() as f64
    }

    /// Largest profile size `max_u |P_u|` (appears in the complexity bound of
    /// Proposition 4.4).
    pub fn max_profile_size(&self) -> usize {
        self.profiles.iter().map(Profile::len).max().unwrap_or(0)
    }

    /// Merges another repository into this one: users are matched by display
    /// name (new users are appended), properties by label, and the *other*
    /// repository's scores win on conflicts (it represents newer data).
    ///
    /// This supports the §9 claim that the approach "applies to a given user
    /// repository as-is and may be easily executed multiple times, e.g., to
    /// incorporate data updates": merge fresh activity in, then re-run the
    /// grouping and selection stages.
    pub fn merge(&mut self, other: &UserRepository) {
        // Property id translation table other -> self.
        let prop_map: Vec<PropertyId> = (0..other.property_count())
            .map(|p| {
                let label = other
                    .property_label(PropertyId::from_index(p))
                    .expect("property ids are dense");
                self.intern_property(label)
            })
            .collect();
        for (ou, profile) in other.iter() {
            let name = other.user_name(ou).expect("user ids are dense");
            let u = self
                .user_by_name(name)
                .unwrap_or_else(|| self.add_user(name));
            for (p, s) in profile.iter() {
                self.set_score(u, prop_map[p.index()], s)
                    .expect("scores were valid in the source repository");
            }
        }
    }

    /// A copy of this repository whose property ids follow `reference`:
    /// every label `reference` interns keeps `reference`'s id, and labels
    /// only this repository knows are appended after them. Users, names,
    /// and scores are unchanged. A repository reloaded from JSON interns
    /// its labels in file order; this lets it reuse per-property state
    /// indexed by the original's ids, such as its bucketing.
    pub fn reindexed_like(&self, reference: &UserRepository) -> UserRepository {
        let mut property_names = reference.property_names.clone();
        let mut property_index = reference.property_index.clone();
        let ids: Vec<PropertyId> = self
            .property_names
            .iter()
            .map(|label| {
                *property_index.entry(label.clone()).or_insert_with(|| {
                    property_names.push(label.clone());
                    PropertyId::from_index(property_names.len() - 1)
                })
            })
            .collect();
        let profiles = self
            .profiles
            .iter()
            .map(|profile| {
                let mut entries: Vec<(PropertyId, f64)> =
                    profile.iter().map(|(p, s)| (ids[p.index()], s)).collect();
                entries.sort_unstable_by_key(|&(p, _)| p);
                Profile { entries }
            })
            .collect();
        UserRepository {
            property_names,
            property_index,
            user_names: self.user_names.clone(),
            profiles,
        }
    }

    /// Returns a new repository restricted to the given users, preserving the
    /// property interning. Used by the customization refinement (§6) and by
    /// scalability experiments that subsample the population.
    pub fn restrict(&self, users: &[UserId]) -> UserRepository {
        let mut out = UserRepository {
            property_names: self.property_names.clone(),
            property_index: self.property_index.clone(),
            user_names: Vec::with_capacity(users.len()),
            profiles: Vec::with_capacity(users.len()),
        };
        for &u in users {
            out.user_names.push(self.user_names[u.index()].clone());
            out.profiles.push(self.profiles[u.index()].clone());
        }
        out
    }
}

/// Column `p` lists `(u, S_u(p))` for every user `u` with `p ∈ P_u`, users
/// ascending. The fit reads properties only through these columns.
#[derive(Debug)]
pub(crate) struct PropertyColumns {
    /// `|𝒰|` of the repository, users without any entry included.
    user_count: usize,
    /// Column `p` ends at `ends[p]` in `users`/`scores` and starts where
    /// column `p - 1` ends.
    ends: Vec<usize>,
    users: Vec<UserId>,
    scores: Vec<f64>,
}

impl PropertyColumns {
    /// Number of users of the repository the columns were built from.
    pub(crate) fn user_count(&self) -> usize {
        self.user_count
    }

    /// Every column as `(property, users, scores)`, in property order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PropertyId, &[UserId], &[f64])> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(p, &end)| {
            let users = self.users.get(start..end).unwrap_or(&[]);
            let scores = self.scores.get(start..end).unwrap_or(&[]);
            start = end;
            (PropertyId::from_index(p), users, scores)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_repo() -> (UserRepository, UserId, UserId, PropertyId, PropertyId) {
        let mut repo = UserRepository::new();
        let a = repo.add_user("Alice");
        let b = repo.add_user("Bob");
        let p = repo.intern_property("livesIn Tokyo");
        let q = repo.intern_property("avgRating Mexican");
        repo.set_score(a, p, 1.0).unwrap();
        repo.set_score(a, q, 0.95).unwrap();
        repo.set_score(b, q, 0.3).unwrap();
        (repo, a, b, p, q)
    }

    #[test]
    fn interning_is_idempotent() {
        let mut repo = UserRepository::new();
        let p1 = repo.intern_property("x");
        let p2 = repo.intern_property("x");
        assert_eq!(p1, p2);
        assert_eq!(repo.property_count(), 1);
    }

    #[test]
    fn scores_roundtrip() {
        let (repo, a, b, p, q) = small_repo();
        assert_eq!(repo.score(a, p), Some(1.0));
        assert_eq!(repo.score(a, q), Some(0.95));
        assert_eq!(repo.score(b, p), None, "open world: unknown, not false");
        assert_eq!(repo.score(b, q), Some(0.3));
    }

    #[test]
    fn score_out_of_range_rejected() {
        let (mut repo, a, _, p, _) = small_repo();
        let err = repo.set_score(a, p, 1.5).unwrap_err();
        assert!(matches!(err, CoreError::ScoreOutOfRange { .. }));
        let err = repo.set_score(a, p, f64::NAN).unwrap_err();
        assert!(matches!(err, CoreError::ScoreOutOfRange { .. }));
    }

    #[test]
    fn unknown_ids_rejected() {
        let (mut repo, _, _, p, _) = small_repo();
        assert!(matches!(
            repo.set_score(UserId(99), p, 0.5),
            Err(CoreError::UnknownUser(_))
        ));
        assert!(matches!(
            repo.set_score(UserId(0), PropertyId(99), 0.5),
            Err(CoreError::UnknownProperty(_))
        ));
    }

    #[test]
    fn property_support_counts_known_only() {
        let (repo, _, _, p, q) = small_repo();
        assert_eq!(repo.property_support(p), 1);
        assert_eq!(repo.property_support(q), 2);
    }

    #[test]
    fn property_columns_regroup_entries_by_property() {
        let (mut repo, a, b, p, q) = small_repo();
        repo.add_user("Carol"); // an empty profile
        let unheld = repo.intern_property("visitFreq Thai");
        let columns = repo.property_columns();
        assert_eq!(columns.user_count(), 3);
        let listed: Vec<(PropertyId, &[UserId], &[f64])> = columns.iter().collect();
        assert_eq!(
            listed,
            vec![
                (p, &[a][..], &[1.0][..]),
                (q, &[a, b][..], &[0.95, 0.3][..]),
                (unheld, &[][..], &[][..]),
            ]
        );
    }

    #[test]
    fn profile_set_overwrites() {
        let mut pr = Profile::new();
        pr.set(PropertyId(3), 0.2).unwrap();
        pr.set(PropertyId(3), 0.8).unwrap();
        assert_eq!(pr.len(), 1);
        assert_eq!(pr.score(PropertyId(3)), Some(0.8));
    }

    #[test]
    fn profile_entries_stay_sorted() {
        let mut pr = Profile::new();
        for p in [5u32, 1, 3, 2, 4] {
            pr.set(PropertyId(p), 0.5).unwrap();
        }
        let props: Vec<u32> = pr.properties().map(|p| p.0).collect();
        assert_eq!(props, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn profile_remove() {
        let mut pr = Profile::new();
        pr.set(PropertyId(1), 0.4).unwrap();
        assert_eq!(pr.remove(PropertyId(1)), Some(0.4));
        assert_eq!(pr.remove(PropertyId(1)), None);
        assert!(pr.is_empty());
    }

    #[test]
    fn jaccard_distance_basic() {
        let mut a = Profile::new();
        let mut b = Profile::new();
        a.set(PropertyId(0), 1.0).unwrap();
        a.set(PropertyId(1), 1.0).unwrap();
        b.set(PropertyId(1), 0.2).unwrap();
        b.set(PropertyId(2), 0.2).unwrap();
        // intersection {1}, union {0,1,2} -> distance 1 - 1/3
        assert!((a.jaccard_distance(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.jaccard_distance(&a), 0.0);
        assert_eq!(Profile::new().jaccard_distance(&Profile::new()), 0.0);
        assert_eq!(a.jaccard_distance(&Profile::new()), 1.0);
    }

    #[test]
    fn restrict_preserves_interning() {
        let (repo, a, b, p, q) = small_repo();
        let sub = repo.restrict(&[b]);
        assert_eq!(sub.user_count(), 1);
        assert_eq!(sub.property_count(), repo.property_count());
        assert_eq!(sub.user_name(UserId(0)).unwrap(), "Bob");
        assert_eq!(sub.score(UserId(0), q), Some(0.3));
        assert_eq!(sub.score(UserId(0), p), None);
        let _ = a;
    }

    #[test]
    fn index_rebuild_restores_lookup() {
        let (repo, _, _, _, q) = small_repo();
        let mut copy = repo.clone();
        copy.property_index.clear();
        copy.rebuild_index();
        assert_eq!(copy.property_id("avgRating Mexican"), Some(q));
    }

    #[test]
    fn user_by_name_lookup() {
        let (repo, a, b, _, _) = small_repo();
        assert_eq!(repo.user_by_name("Alice"), Some(a));
        assert_eq!(repo.user_by_name("Bob"), Some(b));
        assert_eq!(repo.user_by_name("Carol"), None);
    }

    #[test]
    fn sizes() {
        let (repo, _, _, _, _) = small_repo();
        assert_eq!(repo.max_profile_size(), 2);
        assert!((repo.mean_profile_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_users_by_name_and_newer_wins() {
        let (mut base, a, _, _, q) = small_repo();
        let mut update = UserRepository::new();
        let ua = update.add_user("Alice"); // existing user, updated score
        let uc = update.add_user("Carol"); // new user
                                           // Different interning order on purpose.
        let new_prop = update.intern_property("visitFreq Thai");
        let mex = update.intern_property("avgRating Mexican");
        update.set_score(ua, mex, 0.5).unwrap();
        update.set_score(uc, new_prop, 0.7).unwrap();

        base.merge(&update);
        assert_eq!(base.user_count(), 3);
        assert_eq!(base.score(a, q), Some(0.5), "newer score wins");
        let carol = base.user_by_name("Carol").unwrap();
        let thai = base.property_id("visitFreq Thai").unwrap();
        assert_eq!(base.score(carol, thai), Some(0.7));
        // Untouched data survives.
        let tokyo = base.property_id("livesIn Tokyo").unwrap();
        assert_eq!(base.score(a, tokyo), Some(1.0));
    }

    #[test]
    fn merge_is_idempotent() {
        let (mut base, _, _, _, _) = small_repo();
        let snapshot = base.clone();
        base.merge(&snapshot);
        assert_eq!(base.user_count(), snapshot.user_count());
        assert_eq!(base.property_count(), snapshot.property_count());
        for (u, p) in snapshot.iter() {
            assert_eq!(base.profile(u).unwrap(), p);
        }
    }

    #[test]
    fn reindexed_like_keeps_reference_ids_and_appends_new_labels() {
        let mut reference = UserRepository::new();
        let b = reference.intern_property("b");
        let a = reference.intern_property("a");
        let mut loaded = UserRepository::new();
        let u = loaded.add_user("u");
        for (label, score) in [("a", 0.1), ("b", 0.2), ("c", 0.3)] {
            let p = loaded.intern_property(label);
            loaded.set_score(u, p, score).unwrap();
        }
        let out = loaded.reindexed_like(&reference);
        assert_eq!(out.property_id("a"), Some(a));
        assert_eq!(out.property_id("b"), Some(b));
        assert_eq!(out.property_id("c"), Some(PropertyId(2)));
        assert_eq!(out.user_name(UserId(0)).unwrap(), "u");
        assert_eq!(out.score(UserId(0), a), Some(0.1));
        assert_eq!(out.score(UserId(0), b), Some(0.2));
        assert_eq!(out.score(UserId(0), PropertyId(2)), Some(0.3));
    }

    #[test]
    fn merge_into_empty() {
        let (src, _, _, _, _) = small_repo();
        let mut dst = UserRepository::new();
        dst.merge(&src);
        assert_eq!(dst.user_count(), src.user_count());
        assert_eq!(dst.property_count(), src.property_count());
    }

    #[test]
    fn clone_into_repo_matches_clone() {
        let (src, _, _, _, mex) = small_repo();
        // Recycle a target that is both bigger and smaller than the source
        // in different dimensions to exercise truncate and extend.
        let mut target = UserRepository::new();
        let extra = target.intern_property("extra");
        for i in 0..10 {
            let u = target.add_user(format!("old-user-with-a-long-name-{i}"));
            target.set_score(u, extra, 0.5).unwrap();
        }
        src.clone_into_repo(&mut target);
        assert_eq!(target.user_count(), src.user_count());
        assert_eq!(target.property_count(), src.property_count());
        assert_eq!(target.property_id("avgRating Mexican"), Some(mex));
        for (u, p) in src.iter() {
            assert_eq!(target.profile(u).unwrap(), p);
            assert_eq!(target.user_name(u).unwrap(), src.user_name(u).unwrap());
        }
        // And growing from empty works too.
        let mut empty = UserRepository::new();
        src.clone_into_repo(&mut empty);
        assert_eq!(empty.user_count(), src.user_count());
    }
}
