//! Uniform random selection (§8.3).
//!
//! "A common practice in user selection for opinion procurement in the
//! context of e.g. surveys" — the null model every managed-diversity
//! algorithm must beat.

use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_core::rng::Rng;

use crate::selector::Selector;

/// Selects `b` users uniformly at random (without replacement).
#[derive(Debug, Clone)]
pub struct RandomSelector {
    seed: u64,
}

impl RandomSelector {
    /// A seeded random selector.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Selector for RandomSelector {
    fn name(&self) -> &str {
        "Random"
    }

    fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
        let n = repo.user_count();
        let b = b.min(n);
        let mut out: Vec<UserId> = (0..n).map(UserId::from_index).collect();
        Rng::new(self.seed).shuffle_prefix(&mut out, b);
        out.truncate(b);
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::check_selection;

    fn repo(n: usize) -> UserRepository {
        let mut r = UserRepository::new();
        for i in 0..n {
            r.add_user(format!("u{i}"));
        }
        r
    }

    #[test]
    fn selects_within_budget_without_duplicates() {
        let r = repo(50);
        let sel = RandomSelector::new(1).select(&r, 8);
        assert_eq!(sel.len(), 8);
        assert!(check_selection(&r, 8, &sel));
    }

    #[test]
    fn deterministic_per_seed() {
        let r = repo(30);
        assert_eq!(
            RandomSelector::new(5).select(&r, 5),
            RandomSelector::new(5).select(&r, 5)
        );
        assert_ne!(
            RandomSelector::new(5).select(&r, 5),
            RandomSelector::new(6).select(&r, 5),
            "different seeds should (almost surely) differ"
        );
    }

    #[test]
    fn budget_clamped_to_population() {
        let r = repo(3);
        let sel = RandomSelector::new(0).select(&r, 10);
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn roughly_uniform_over_many_seeds() {
        let r = repo(10);
        let mut counts = [0usize; 10];
        for seed in 0..2000 {
            for u in RandomSelector::new(seed).select(&r, 2) {
                counts[u.index()] += 1;
            }
        }
        // Each user expected 400 times; allow generous slack.
        assert!(counts.iter().all(|&c| c > 250 && c < 550), "{counts:?}");
    }
}
