//! Clustering baseline: k-means with near-mean representatives (§8.3).
//!
//! "Splitting the entire user repository into clusters, and choosing one
//! representative from each assuming each cluster represents a community."
//! The paper uses scikit-learn's k-means; this is a from-scratch
//! reimplementation suited to sparse high-dimensional profiles:
//!
//! * k-means++ seeding (deterministic for a fixed seed),
//! * Lloyd iterations with dense centroids and sparse points (missing
//!   properties are treated as 0, the standard vector-space embedding),
//! * per-cluster representative = the user closest to the final centroid.

use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_core::rng::Rng;

use crate::selector::Selector;

/// k-means clustering selector.
#[derive(Debug, Clone)]
pub struct KMeansSelector {
    seed: u64,
    max_iters: usize,
}

impl KMeansSelector {
    /// A seeded k-means selector with the default iteration cap (50, enough
    /// for convergence on the datasets used here).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_iters: 50,
        }
    }

    /// Overrides the Lloyd iteration cap.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Runs k-means and returns the cluster assignment per user (exposed for
    /// tests and diagnostics).
    pub fn cluster(&self, repo: &UserRepository, k: usize) -> Vec<usize> {
        let (assignment, _) = self.run(repo, k);
        assignment
    }

    #[allow(clippy::needless_range_loop)] // u indexes several parallel per-user arrays
    fn run(&self, repo: &UserRepository, k: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
        let n = repo.user_count();
        let dims = repo.property_count();
        let k = k.min(n).max(1);
        let mut rng = Rng::new(self.seed);

        // --- k-means++ seeding ---
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        let first = rng.below(n);
        centroids.push(dense_of(repo, UserId::from_index(first), dims));
        let mut d2: Vec<f64> = (0..n)
            .map(|u| sparse_dense_d2(repo, UserId::from_index(u), &centroids[0]))
            .collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                rng.below(n)
            } else {
                let mut x = rng.unit() * total;
                let mut pick = n - 1;
                for (u, &w) in d2.iter().enumerate() {
                    x -= w;
                    if x <= 0.0 {
                        pick = u;
                        break;
                    }
                }
                pick
            };
            let c = dense_of(repo, UserId::from_index(next), dims);
            for u in 0..n {
                let nd = sparse_dense_d2(repo, UserId::from_index(u), &c);
                if nd < d2[u] {
                    d2[u] = nd;
                }
            }
            centroids.push(c);
        }

        // --- Lloyd iterations ---
        let mut assignment = vec![0usize; n];
        for _ in 0..self.max_iters {
            let mut changed = false;
            for u in 0..n {
                let uid = UserId::from_index(u);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = sparse_dense_d2(repo, uid, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if assignment[u] != best {
                    assignment[u] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Recompute centroids.
            let mut sums = vec![vec![0.0f64; dims]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for u in 0..n {
                let c = assignment[u];
                counts[c] += 1;
                for (p, s) in repo
                    .profile(UserId::from_index(u))
                    .expect("valid user")
                    .iter()
                {
                    sums[c][p.index()] += s;
                }
            }
            for (c, sum) in sums.iter_mut().enumerate() {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its old centroid
                }
                for v in sum.iter_mut() {
                    *v /= counts[c] as f64;
                }
                centroids[c] = std::mem::take(sum);
            }
        }
        (assignment, centroids)
    }
}

impl Selector for KMeansSelector {
    fn name(&self) -> &str {
        "Clustering"
    }

    fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
        let n = repo.user_count();
        if n == 0 || b == 0 {
            return Vec::new();
        }
        let k = b.min(n);
        let (assignment, centroids) = self.run(repo, k);

        // Near-mean representative per cluster.
        let mut best: Vec<Option<(f64, UserId)>> = vec![None; centroids.len()];
        for (u, &c) in assignment.iter().enumerate() {
            let uid = UserId::from_index(u);
            let d = sparse_dense_d2(repo, uid, &centroids[c]);
            if best[c].is_none_or(|(bd, _)| d < bd) {
                best[c] = Some((d, uid));
            }
        }
        let mut out: Vec<UserId> = best.into_iter().flatten().map(|(_, u)| u).collect();
        out.sort();
        out.dedup();
        out
    }
}

/// Materializes `k` multidimensional clusters as a *group set* — the
/// "complex alternative" group definition that §3.2 contrasts with simple
/// groups: "multidimensional clusters have no intuitive label or meaning",
/// so explanations degrade, but the coverage machinery runs unchanged.
/// Used by the ablation experiments to quantify that trade-off.
pub fn cluster_group_set(
    repo: &UserRepository,
    k: usize,
    seed: u64,
) -> podium_core::group::GroupSet {
    let assignment = KMeansSelector::new(seed).cluster(repo, k);
    let n_clusters = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut memberships: Vec<Vec<UserId>> = vec![Vec::new(); n_clusters];
    for (u, &c) in assignment.iter().enumerate() {
        memberships[c].push(UserId::from_index(u));
    }
    memberships.retain(|m| !m.is_empty());
    podium_core::group::GroupSet::from_memberships(repo.user_count(), memberships)
}

/// Densifies one sparse profile.
fn dense_of(repo: &UserRepository, u: UserId, dims: usize) -> Vec<f64> {
    let mut v = vec![0.0f64; dims];
    for (p, s) in repo.profile(u).expect("valid user").iter() {
        v[p.index()] = s;
    }
    v
}

/// Squared Euclidean distance between a sparse profile and a dense centroid.
fn sparse_dense_d2(repo: &UserRepository, u: UserId, centroid: &[f64]) -> f64 {
    // ||x - c||² = ||c||² + Σ_{p ∈ x} (x_p − c_p)² − c_p²
    let mut d = centroid.iter().map(|c| c * c).sum::<f64>();
    for (p, s) in repo.profile(u).expect("valid user").iter() {
        let c = centroid[p.index()];
        d += (s - c) * (s - c) - c * c;
    }
    d.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::check_selection;

    /// Two obvious communities: users 0..5 share property A, 5..10 share B.
    fn two_communities() -> UserRepository {
        let mut repo = UserRepository::new();
        let a = {
            let mut ids = Vec::new();
            for i in 0..10 {
                ids.push(repo.add_user(format!("u{i}")));
            }
            ids
        };
        let pa = repo.intern_property("A");
        let pb = repo.intern_property("B");
        for (i, &u) in a.iter().enumerate() {
            if i < 5 {
                repo.set_score(u, pa, 0.9).unwrap();
            } else {
                repo.set_score(u, pb, 0.9).unwrap();
            }
        }
        repo
    }

    #[test]
    fn recovers_planted_communities() {
        let repo = two_communities();
        let sel = KMeansSelector::new(3);
        let assignment = sel.cluster(&repo, 2);
        // All of 0..5 share a label; all of 5..10 share the other.
        assert!(assignment[..5].iter().all(|&c| c == assignment[0]));
        assert!(assignment[5..].iter().all(|&c| c == assignment[5]));
        assert_ne!(assignment[0], assignment[5]);
    }

    #[test]
    fn selects_one_representative_per_community() {
        let repo = two_communities();
        let sel = KMeansSelector::new(3).select(&repo, 2);
        assert_eq!(sel.len(), 2);
        assert!(check_selection(&repo, 2, &sel));
        let sides: Vec<bool> = sel.iter().map(|u| u.index() < 5).collect();
        assert_ne!(sides[0], sides[1], "one from each community");
    }

    #[test]
    fn deterministic_per_seed() {
        let repo = two_communities();
        assert_eq!(
            KMeansSelector::new(7).select(&repo, 2),
            KMeansSelector::new(7).select(&repo, 2)
        );
    }

    #[test]
    fn handles_degenerate_cases() {
        let mut repo = UserRepository::new();
        repo.add_user("only");
        let sel = KMeansSelector::new(0).select(&repo, 5);
        assert_eq!(sel, vec![UserId(0)]);
        assert!(KMeansSelector::new(0)
            .select(&UserRepository::new(), 3)
            .is_empty());
    }

    #[test]
    fn cluster_group_set_partitions_users() {
        let repo = two_communities();
        let groups = cluster_group_set(&repo, 2, 3);
        assert_eq!(groups.len(), 2);
        // Disjoint cover of all users.
        let total: usize = groups.iter().map(|(_, g)| g.size()).sum();
        assert_eq!(total, repo.user_count());
        for u in 0..repo.user_count() {
            assert_eq!(groups.groups_of(UserId::from_index(u)).len(), 1);
        }
        // Labels are opaque cluster names — the §3.2 explainability cost.
        let label = groups.label(podium_core::ids::GroupId(0), &repo);
        assert!(label.starts_with('G'), "opaque label: {label}");
    }

    #[test]
    fn distance_identity() {
        let repo = two_communities();
        let dims = repo.property_count();
        let v = dense_of(&repo, UserId(0), dims);
        assert!(sparse_dense_d2(&repo, UserId(0), &v) < 1e-12);
        // Distance to other community's member is positive.
        let w = dense_of(&repo, UserId(9), dims);
        assert!(sparse_dense_d2(&repo, UserId(0), &w) > 0.5);
    }
}
