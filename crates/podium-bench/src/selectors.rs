//! Podium itself as a [`Selector`], plus the standard comparator lineup.

use podium_baselines::prelude::*;
use podium_core::bucket::BucketingConfig;
use podium_core::engine::{select, CsrGraph, SelectSpec, Strategy};
use podium_core::greedy::TieBreak;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::profile::UserRepository;
use podium_core::weights::{CovScheme, WeightScheme};

/// Podium's greedy coverage-based selection wrapped as a [`Selector`]. By
/// default this matches the paper's experimental configuration: no
/// customization feedback, LBS weights, Single coverage (§8.3).
#[derive(Debug, Clone)]
pub struct PodiumSelector {
    /// Bucketing configuration for group construction.
    pub bucketing: BucketingConfig,
    /// Weight scheme.
    pub weight: WeightScheme,
    /// Coverage scheme.
    pub cov: CovScheme,
    /// The greedy strategy. `Eager { FirstUser }` and `Lazy` produce
    /// identical selections; they differ only in throughput.
    pub strategy: Strategy,
}

impl PodiumSelector {
    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        Self {
            bucketing: BucketingConfig::adaptive_default(),
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            strategy: Strategy::Eager {
                tie_break: TieBreak::FirstUser,
            },
        }
    }

    /// Overrides the bucketing configuration.
    pub fn with_bucketing(mut self, b: BucketingConfig) -> Self {
        self.bucketing = b;
        self
    }

    /// Selects the greedy strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Selector for PodiumSelector {
    fn name(&self) -> &str {
        "Podium"
    }

    fn select(&self, repo: &UserRepository, b: usize) -> Vec<UserId> {
        if b == 0 || repo.user_count() == 0 {
            return Vec::new();
        }
        let buckets = self.bucketing.bucketize(repo);
        let groups = GroupSet::build(repo, &buckets);
        let inst = DiversificationInstance::from_schemes(&groups, self.weight, self.cov, b);
        let csr = CsrGraph::from_group_set(&groups);
        select(&inst, &csr, &SelectSpec::new(b, self.strategy))
            .expect("an unconstrained, unhooked run always completes")
            .users
    }
}

/// The standard §8.3 comparator lineup: Podium, Random, Clustering,
/// Distance.
pub fn standard_lineup(seed: u64) -> Vec<Box<dyn Selector>> {
    vec![
        Box::new(PodiumSelector::paper_default()),
        Box::new(RandomSelector::new(seed)),
        Box::new(KMeansSelector::new(seed)),
        Box::new(DistanceSelector::new(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn podium_selector_on_table2() {
        let repo = podium_data::table2::table2();
        let sel = PodiumSelector::paper_default()
            .with_bucketing(BucketingConfig::paper_default())
            .select(&repo, 2);
        let names: Vec<&str> = sel.iter().map(|&u| repo.user_name(u).unwrap()).collect();
        assert_eq!(names, vec!["Alice", "Eve"]);
    }

    #[test]
    fn eager_and_lazy_pick_the_same_users() {
        let repo = podium_data::table2::table2();
        let eager = PodiumSelector::paper_default()
            .with_bucketing(BucketingConfig::paper_default())
            .select(&repo, 3);
        let lazy = PodiumSelector::paper_default()
            .with_bucketing(BucketingConfig::paper_default())
            .with_strategy(Strategy::Lazy)
            .select(&repo, 3);
        assert_eq!(lazy, eager);
    }

    #[test]
    fn lazy_matches_eager_score() {
        let repo = podium_data::table2::table2();
        let eager = PodiumSelector::paper_default()
            .with_bucketing(BucketingConfig::paper_default())
            .select(&repo, 3);
        let lazy = PodiumSelector::paper_default()
            .with_bucketing(BucketingConfig::paper_default())
            .with_strategy(Strategy::Lazy)
            .select(&repo, 3);
        // Same objective value even if tie-broken differently.
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let groups = GroupSet::build(&repo, &buckets);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            3,
        );
        assert_eq!(inst.score_of(&eager), inst.score_of(&lazy));
    }

    #[test]
    fn lineup_has_four_distinct_names() {
        let lineup = standard_lineup(1);
        let names: Vec<&str> = lineup.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Podium", "Random", "Clustering", "Distance"]);
    }
}
