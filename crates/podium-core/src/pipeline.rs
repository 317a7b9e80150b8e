//! High-level pipeline API: configure once, fit a repository, select and
//! explain — the programmatic equivalent of the Podium system's
//! Grouping → Selection → Visualization flow (Figure 1).
//!
//! ```
//! use podium_core::pipeline::Podium;
//! use podium_core::prelude::*;
//!
//! let mut repo = UserRepository::new();
//! let u = repo.add_user("u");
//! let v = repo.add_user("v");
//! let p = repo.intern_property("avgRating Mexican");
//! repo.set_score(u, p, 0.9).unwrap();
//! repo.set_score(v, p, 0.1).unwrap();
//!
//! let fitted = Podium::new().fit(&repo);
//! let selection = fitted.select(1);
//! assert_eq!(selection.users.len(), 1);
//! ```

use crate::bucket::{BucketingConfig, PropertyBuckets};
use crate::customize::{custom_select, CustomSelection, Feedback};
use crate::engine::{select, CsrGraph, SelectSpec, Strategy};
use crate::error::{CoreError, Result};
use crate::explain::SelectionReport;
use crate::greedy::{Selection, TieBreak};
use crate::group::GroupSet;
use crate::instance::DiversificationInstance;
use crate::profile::UserRepository;
use crate::weights::{CovScheme, WeightScheme};

/// Pipeline configuration builder.
#[derive(Debug, Clone)]
pub struct Podium {
    bucketing: BucketingConfig,
    weight: WeightScheme,
    cov: CovScheme,
    tie_break: TieBreak,
    lazy: bool,
}

impl Default for Podium {
    fn default() -> Self {
        Self::new()
    }
}

impl Podium {
    /// The paper's experimental defaults: adaptive 3-quantile bucketing, LBS
    /// weights, Single coverage, deterministic tie-breaking, eager greedy.
    pub fn new() -> Self {
        Self {
            bucketing: BucketingConfig::adaptive_default(),
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            tie_break: TieBreak::FirstUser,
            lazy: false,
        }
    }

    /// Sets the bucketing configuration.
    pub fn bucketing(mut self, b: BucketingConfig) -> Self {
        self.bucketing = b;
        self
    }

    /// Sets the weight scheme.
    pub fn weights(mut self, w: WeightScheme) -> Self {
        self.weight = w;
        self
    }

    /// Sets the coverage scheme.
    pub fn coverage(mut self, c: CovScheme) -> Self {
        self.cov = c;
        self
    }

    /// Randomizes tie-breaking with the given seed (the paper's prototype
    /// "adds some randomness in randomly breaking ties", §10).
    pub fn random_ties(mut self, seed: u64) -> Self {
        self.tie_break = TieBreak::Seeded(seed);
        self
    }

    /// Uses the lazy (CELF) greedy engine.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Runs the offline grouping stage (Figure 1's Grouping Module):
    /// buckets every property and materializes the simple groups.
    pub fn fit<'r>(&self, repo: &'r UserRepository) -> FittedPodium<'r> {
        self.fit_scoped(repo, &|_| true)
    }

    /// Like [`Podium::fit`], but only properties accepted by `filter` form
    /// groups — the §7 named-configuration property scope (e.g. "only
    /// properties related to a restaurant in that name").
    pub fn fit_scoped<'r>(
        &self,
        repo: &'r UserRepository,
        filter: &dyn Fn(crate::ids::PropertyId) -> bool,
    ) -> FittedPodium<'r> {
        let buckets = self.bucketing.bucketize(repo);
        let groups = GroupSet::build_filtered(repo, &buckets, filter);
        FittedPodium {
            config: self.clone(),
            repo,
            buckets,
            groups,
        }
    }
}

/// A pipeline fitted to a repository: groups are materialized and repeated
/// selections (e.g. with different budgets or feedback) reuse them.
#[derive(Debug, Clone)]
pub struct FittedPodium<'r> {
    config: Podium,
    repo: &'r UserRepository,
    buckets: PropertyBuckets,
    groups: GroupSet,
}

impl<'r> FittedPodium<'r> {
    /// The materialized group set.
    pub fn groups(&self) -> &GroupSet {
        &self.groups
    }

    /// The per-property bucket sets.
    pub fn buckets(&self) -> &PropertyBuckets {
        &self.buckets
    }

    /// The fitted repository.
    pub fn repo(&self) -> &'r UserRepository {
        self.repo
    }

    /// Builds the diversification instance for a budget.
    pub fn instance(&self, budget: usize) -> DiversificationInstance<'_, f64> {
        DiversificationInstance::from_schemes(
            &self.groups,
            self.config.weight,
            self.config.cov,
            budget,
        )
    }

    /// Selects at most `budget` users (BASE-DIVERSITY).
    ///
    /// Infallible convenience wrapper: a zero budget yields an empty
    /// selection. Services that must distinguish "nothing to select" from
    /// "caller passed a nonsensical budget" should use
    /// [`FittedPodium::try_select`].
    pub fn select(&self, budget: usize) -> Selection<f64> {
        self.run(&self.instance(budget), budget)
    }

    /// Like [`FittedPodium::select`], but surfaces invalid requests instead
    /// of clamping them: a zero budget is [`CoreError::ZeroBudget`] and a
    /// structurally broken instance (non-finite weights injected through a
    /// future weight override, corrupt group data) is
    /// [`CoreError::InvalidInstance`].
    pub fn try_select(&self, budget: usize) -> Result<Selection<f64>> {
        if budget == 0 {
            return Err(CoreError::ZeroBudget);
        }
        let inst = self.instance(budget);
        inst.validate()?;
        Ok(self.run(&inst, budget))
    }

    /// The configured greedy: CELF when `lazy`, else eager with the
    /// configured tie-break.
    fn run(&self, inst: &DiversificationInstance<'_, f64>, budget: usize) -> Selection<f64> {
        let strategy = if self.config.lazy {
            Strategy::Lazy
        } else {
            Strategy::Eager {
                tie_break: self.config.tie_break,
            }
        };
        let csr = CsrGraph::from_group_set(&self.groups);
        select(inst, &csr, &SelectSpec::new(budget, strategy))
            .expect("an unconstrained, unhooked run always completes")
    }

    /// Selects with customization feedback (CUSTOM-DIVERSITY, §6).
    pub fn select_with_feedback(
        &self,
        budget: usize,
        feedback: &Feedback,
    ) -> Result<CustomSelection> {
        custom_select(
            self.repo,
            &self.groups,
            self.config.weight,
            self.config.cov,
            budget,
            feedback,
        )
    }

    /// Builds the explanation report for a selection (§5 / Figure 2).
    pub fn explain(
        &self,
        budget: usize,
        selection: &Selection<f64>,
        top_k: usize,
    ) -> SelectionReport {
        let inst = self.instance(budget);
        SelectionReport::build(&inst, self.repo, selection, top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;

    fn repo() -> UserRepository {
        crate::testutil::table2()
    }

    #[test]
    fn default_pipeline_reproduces_example_38() {
        let repo = repo();
        let fitted = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .fit(&repo);
        let sel = fitted.select(2);
        assert_eq!(sel.users, vec![UserId(0), UserId(4)]);
        assert_eq!(sel.score, 17.0);
    }

    #[test]
    fn fit_once_select_many() {
        let repo = repo();
        let fitted = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .fit(&repo);
        let s1 = fitted.select(1);
        let s3 = fitted.select(3);
        assert_eq!(s1.users.len(), 1);
        assert_eq!(s3.users.len(), 3);
        assert_eq!(s1.users[0], s3.users[0], "greedy prefixes agree");
    }

    #[test]
    fn lazy_engine_matches_eager_score() {
        let repo = repo();
        let eager = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .fit(&repo)
            .select(3);
        let lazy = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .lazy(true)
            .fit(&repo)
            .select(3);
        assert_eq!(eager.score, lazy.score);
    }

    #[test]
    fn random_ties_keep_score() {
        let repo = repo();
        for seed in 0..8 {
            let sel = Podium::new()
                .bucketing(BucketingConfig::paper_default())
                .random_ties(seed)
                .fit(&repo)
                .select(2);
            assert_eq!(sel.score, 17.0);
        }
    }

    #[test]
    fn try_select_surfaces_zero_budget() {
        let repo = repo();
        let fitted = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .fit(&repo);
        assert_eq!(fitted.try_select(0).unwrap_err(), CoreError::ZeroBudget);
        let ok = fitted.try_select(2).unwrap();
        assert_eq!(ok.users, fitted.select(2).users);
    }

    #[test]
    fn feedback_through_pipeline() {
        let repo = repo();
        let fitted = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .fit(&repo);
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let feedback = Feedback {
            must_have: fitted.groups().groups_of_property(mex),
            ..Feedback::default()
        };
        let sel = fitted.select_with_feedback(2, &feedback).unwrap();
        assert_eq!(sel.pool_size, 4, "Carol filtered");
    }

    #[test]
    fn explain_through_pipeline() {
        let repo = repo();
        let fitted = Podium::new()
            .bucketing(BucketingConfig::paper_default())
            .fit(&repo);
        let sel = fitted.select(2);
        let report = fitted.explain(2, &sel, 5);
        assert_eq!(report.users.len(), 2);
        assert!(report.top_weight_coverage > 0.9);
    }
}
