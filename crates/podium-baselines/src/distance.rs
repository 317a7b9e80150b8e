//! Distance-based diversification — the S-Model baseline (§8.3).
//!
//! "As a representative distance-based baseline we use the S-Model of [Wu et
//! al. 2015] via a greedy algorithm that maximizes the pairwise Jaccard
//! distances between the properties of the selected subset."
//!
//! The greedy builds the subset incrementally: the first pick maximizes the
//! average distance to a population sample; every later pick maximizes the
//! sum of Jaccard distances to the already-selected users (greedy max-sum
//! dispersion).

use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_core::rng::Rng;

use crate::selector::Selector;

/// Greedy max-sum Jaccard-distance selector.
#[derive(Debug, Clone)]
pub struct DistanceSelector {
    seed: u64,
    /// Population sample size used to seed the first pick (keeps the first
    /// step O(n · sample) instead of O(n²)).
    sample_size: usize,
}

impl DistanceSelector {
    /// A seeded distance-based selector.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sample_size: 64,
        }
    }

    /// Overrides the seeding sample size.
    pub fn with_sample_size(mut self, s: usize) -> Self {
        self.sample_size = s.max(1);
        self
    }

    /// Sum of pairwise Jaccard distances within a subset — the S-Model
    /// objective this baseline greedily maximizes (exposed for tests and
    /// reports).
    pub fn dispersion(repo: &UserRepository, subset: &[UserId]) -> f64 {
        let mut total = 0.0;
        for i in 0..subset.len() {
            for j in (i + 1)..subset.len() {
                let a = repo.profile(subset[i]).expect("valid user");
                let b = repo.profile(subset[j]).expect("valid user");
                total += a.jaccard_distance(b);
            }
        }
        total
    }
}

impl Selector for DistanceSelector {
    fn name(&self) -> &str {
        "Distance"
    }

    fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
        let n = repo.user_count();
        let b = b.min(n);
        if b == 0 {
            return Vec::new();
        }
        let sample_n = self.sample_size.min(n);
        let mut probe: Vec<UserId> = (0..n).map(UserId::from_index).collect();
        Rng::new(self.seed).shuffle_prefix(&mut probe, sample_n);
        probe.truncate(sample_n);

        // First pick: maximal average distance to the probe sample.
        let mut best = (f64::NEG_INFINITY, UserId(0));
        for u in 0..n {
            let uid = UserId::from_index(u);
            let pu = repo.profile(uid).expect("valid user");
            let d: f64 = probe
                .iter()
                .map(|&v| pu.jaccard_distance(repo.profile(v).expect("valid user")))
                .sum();
            if d > best.0 {
                best = (d, uid);
            }
        }
        let mut selected = vec![best.1];
        let mut in_sel = vec![false; n];
        in_sel[best.1.index()] = true;

        // Accumulated distance of every candidate to the selected set.
        let mut acc = vec![0.0f64; n];
        for u in 0..n {
            if in_sel[u] {
                continue;
            }
            acc[u] = repo
                .profile(UserId::from_index(u))
                .expect("valid user")
                .jaccard_distance(repo.profile(best.1).expect("valid user"));
        }

        while selected.len() < b {
            let mut pick = (f64::NEG_INFINITY, usize::MAX);
            for u in 0..n {
                if !in_sel[u] && acc[u] > pick.0 {
                    pick = (acc[u], u);
                }
            }
            if pick.1 == usize::MAX {
                break;
            }
            let uid = UserId::from_index(pick.1);
            in_sel[pick.1] = true;
            selected.push(uid);
            let pnew = repo.profile(uid).expect("valid user");
            for u in 0..n {
                if !in_sel[u] {
                    acc[u] += repo
                        .profile(UserId::from_index(u))
                        .expect("valid user")
                        .jaccard_distance(pnew);
                }
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomSelector;
    use crate::selector::check_selection;

    /// Three property "camps" plus one eccentric user with unique properties.
    fn camps() -> UserRepository {
        let mut repo = UserRepository::new();
        let users: Vec<UserId> = (0..10).map(|i| repo.add_user(format!("u{i}"))).collect();
        let pa = repo.intern_property("A");
        let pb = repo.intern_property("B");
        let pc = repo.intern_property("C");
        let px = repo.intern_property("X-unique");
        for (i, &u) in users.iter().enumerate() {
            match i {
                0..=3 => repo.set_score(u, pa, 1.0).unwrap(),
                4..=6 => repo.set_score(u, pb, 1.0).unwrap(),
                7..=8 => repo.set_score(u, pc, 1.0).unwrap(),
                _ => repo.set_score(u, px, 1.0).unwrap(),
            }
        }
        repo
    }

    #[test]
    fn picks_mutually_distant_users() {
        let repo = camps();
        let sel = DistanceSelector::new(1).select(&repo, 4);
        assert!(check_selection(&repo, 4, &sel));
        // Optimal dispersion: one user per camp -> all pairwise distances 1.
        let d = DistanceSelector::dispersion(&repo, &sel);
        assert!((d - 6.0).abs() < 1e-9, "dispersion {d} of {sel:?}");
    }

    #[test]
    fn beats_random_on_dispersion() {
        let repo = camps();
        let dist = DistanceSelector::new(1).select(&repo, 3);
        let mut random_avg = 0.0;
        for seed in 0..20 {
            let r = RandomSelector::new(seed).select(&repo, 3);
            random_avg += DistanceSelector::dispersion(&repo, &r);
        }
        random_avg /= 20.0;
        assert!(
            DistanceSelector::dispersion(&repo, &dist) >= random_avg,
            "greedy dispersion at least matches random average"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let repo = camps();
        assert_eq!(
            DistanceSelector::new(3).select(&repo, 4),
            DistanceSelector::new(3).select(&repo, 4)
        );
    }

    #[test]
    fn handles_small_populations() {
        let mut repo = UserRepository::new();
        repo.add_user("a");
        repo.add_user("b");
        let sel = DistanceSelector::new(0).select(&repo, 5);
        assert_eq!(sel.len(), 2);
        assert!(DistanceSelector::new(0)
            .select(&UserRepository::new(), 2)
            .is_empty());
    }

    #[test]
    fn dispersion_of_singleton_is_zero() {
        let repo = camps();
        assert_eq!(DistanceSelector::dispersion(&repo, &[UserId(0)]), 0.0);
    }
}
