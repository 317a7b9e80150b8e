//! Customization feedback and CUSTOM-DIVERSITY (paper §6).
//!
//! A client inspecting explanations can refine the selection through four
//! group subsets (Definition 6.1):
//!
//! * `𝒢₊` — "must have": every selected user must belong to at least one
//!   `𝒢₊` bucket of *each* property mentioned in `𝒢₊`;
//! * `𝒢₋` — "must not": selected users must belong to none of them;
//! * `𝒢_d` — "priority coverage": covered before anything else;
//! * `𝒢_d?` — "standard coverage": covered only to break ties among
//!   priority-optimal subsets. Groups in neither set are ignored.
//!
//! `𝒢₊`/`𝒢₋` refine the candidate pool to `𝒰'` (Definition 6.3); the
//! objective becomes lexicographic. The paper realizes the lexicographic
//! order as `score_Gd(U) · MAX-SCORE + score_Gd?(U)`; we instead run the
//! same greedy over exact [`LexPair`] values (documented deviation — same
//! semantics, no overflow; see `DESIGN.md`).

//! ```
//! use podium_core::customize::{custom_select, Feedback};
//! use podium_core::prelude::*;
//!
//! let mut repo = UserRepository::new();
//! let a = repo.add_user("a");
//! let b = repo.add_user("b");
//! let p = repo.intern_property("avgRating Mexican");
//! repo.set_score(a, p, 0.9).unwrap();
//! repo.set_score(b, p, 0.2).unwrap();
//! let buckets = BucketingConfig::paper_default().bucketize(&repo);
//! let groups = GroupSet::build(&repo, &buckets);
//!
//! // Must-have: the "high" Mexican bucket — only `a` qualifies.
//! let feedback = Feedback {
//!     must_have: vec![GroupId(1)],
//!     ..Feedback::default()
//! };
//! let sel = custom_select(
//!     &repo, &groups, WeightScheme::LinearBySize, CovScheme::Single, 2, &feedback,
//! ).unwrap();
//! assert_eq!(sel.pool_size, 1);
//! assert_eq!(sel.users(), &[a]);
//! ```

use std::collections::{HashMap, HashSet};

use crate::engine::{select, CsrGraph, SelectSpec, Strategy};
use crate::error::{CoreError, Result};
use crate::greedy::{Selection, TieBreak};
use crate::group::{GroupKind, GroupSet};
use crate::ids::{GroupId, PropertyId, UserId};
use crate::instance::DiversificationInstance;
use crate::profile::UserRepository;
use crate::score::{LexPair, ScoreValue};
use crate::weights::{CovScheme, WeightScheme};

/// Customization feedback (Definition 6.1). Defaults: no filters, no
/// priority groups, every group at standard coverage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Feedback {
    /// `𝒢₊` — "must have" groups.
    pub must_have: Vec<GroupId>,
    /// `𝒢₋` — "must not" groups.
    pub must_not: Vec<GroupId>,
    /// `𝒢_d` — "priority coverage" groups.
    pub priority: Vec<GroupId>,
    /// `𝒢_d?` — "standard coverage" groups. `None` means the default
    /// `𝒢 − 𝒢_d` (every non-priority group).
    pub standard: Option<Vec<GroupId>>,
}

impl Feedback {
    /// An empty feedback: CUSTOM-DIVERSITY degenerates to BASE-DIVERSITY.
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates that no group is simultaneously required and forbidden.
    pub fn validate(&self) -> Result<()> {
        let forbidden: HashSet<GroupId> = self.must_not.iter().copied().collect();
        if let Some(&g) = self.must_have.iter().find(|g| forbidden.contains(g)) {
            return Err(CoreError::ContradictoryFeedback(g));
        }
        Ok(())
    }

    /// The effective standard-coverage set: explicit `𝒢_d?` or the default
    /// `𝒢 − 𝒢_d`.
    pub fn standard_groups(&self, groups: &GroupSet) -> Vec<GroupId> {
        match &self.standard {
            Some(s) => s.clone(),
            None => {
                let pri: HashSet<GroupId> = self.priority.iter().copied().collect();
                groups.ids().filter(|g| !pri.contains(g)).collect()
            }
        }
    }
}

/// Computes the refined user pool `𝒰'` (Definition 6.3) as a per-user
/// eligibility mask over the *original* repository indexing.
///
/// For `𝒢₊`, requirements are grouped by property: a user qualifies if, for
/// every property appearing in `𝒢₊`, they belong to at least one of that
/// property's `𝒢₊` buckets ("if `𝒢₊` contains more than one bucket of some
/// property p, users need only belong to one of them"). `𝒢₋` groups must
/// all be avoided. Complex groups in `𝒢₊` are treated as their own
/// "property" (each must be individually satisfied).
pub fn refine_pool(groups: &GroupSet, feedback: &Feedback) -> Result<Vec<bool>> {
    feedback.validate()?;
    let n = groups.user_count();

    // Group must-have requirements by defining property.
    #[derive(Hash, PartialEq, Eq, Clone, Copy)]
    enum Requirement {
        Property(PropertyId),
        Complex(GroupId),
    }
    let mut required: HashMap<Requirement, Vec<GroupId>> = HashMap::new();
    for &g in &feedback.must_have {
        let key = match &groups.group(g)?.kind {
            GroupKind::Simple { property, .. } => Requirement::Property(*property),
            GroupKind::Complex { .. } => Requirement::Complex(g),
        };
        required.entry(key).or_default().push(g);
    }

    let mut eligible = vec![true; n];
    for (_, alternatives) in required.iter() {
        // User must belong to >= 1 alternative bucket of this property.
        let mut ok = vec![false; n];
        for &g in alternatives {
            for &u in &groups.group(g)?.members {
                ok[u.index()] = true;
            }
        }
        for u in 0..n {
            eligible[u] &= ok[u];
        }
    }
    for &g in &feedback.must_not {
        for &u in &groups.group(g)?.members {
            eligible[u.index()] = false;
        }
    }
    Ok(eligible)
}

/// The result of a customized selection.
#[derive(Debug, Clone)]
pub struct CustomSelection {
    /// The underlying selection; `score` is the lexicographic pair.
    pub selection: Selection<LexPair<f64>>,
    /// Number of users surviving the `𝒢₊`/`𝒢₋` refinement.
    pub pool_size: usize,
    /// Fraction of priority groups covered — the *Feedback Group Coverage*
    /// metric of Figure 4.
    pub feedback_group_coverage: f64,
}

impl CustomSelection {
    /// Selected users, in selection order.
    pub fn users(&self) -> &[UserId] {
        &self.selection.users
    }

    /// The priority-groups score (primary objective).
    pub fn priority_score(&self) -> f64 {
        self.selection.score.priority
    }

    /// The standard-groups score (tie-breaking objective).
    pub fn standard_score(&self) -> f64 {
        self.selection.score.standard
    }
}

/// Solves CUSTOM-DIVERSITY greedily (Proposition 6.5): refine the pool to
/// `𝒰'`, re-weight groups into exact lexicographic `(priority, standard)`
/// pairs, and run Algorithm 1. The `(1 − 1/e)` guarantee carries over
/// because the lexicographic score is still monotone submodular
/// (Lemma 6.6).
pub fn custom_select(
    repo: &UserRepository,
    groups: &GroupSet,
    weight: WeightScheme,
    cov: CovScheme,
    budget: usize,
    feedback: &Feedback,
) -> Result<CustomSelection> {
    let _ = repo; // the repository defines 𝒰; kept for API symmetry/validation
    let base = weight.weights(groups);
    let covs = cov.cov(groups, budget);
    let csr = CsrGraph::from_group_set(groups);
    let (selection, pool_size, feedback_group_coverage) =
        custom_select_weighted(groups, &csr, &base, &covs, budget, feedback)?;
    Ok(CustomSelection {
        selection,
        pool_size,
        feedback_group_coverage,
    })
}

/// The generic core of CUSTOM-DIVERSITY: works for *any* [`ScoreValue`]
/// weight vector (f64 Iden/LBS/custom, exact EBS, …), per the framework's
/// claim that the customization layer composes with every weight choice.
/// `csr` must have been built from `groups`; serving layers pass the one
/// their snapshot already holds. Returns the lexicographic selection, the
/// refined pool size, and the feedback group coverage.
pub fn custom_select_weighted<T: ScoreValue>(
    groups: &GroupSet,
    csr: &CsrGraph,
    base_weights: &[T],
    covs: &[u32],
    budget: usize,
    feedback: &Feedback,
) -> Result<(Selection<LexPair<T>>, usize, f64)> {
    assert_eq!(base_weights.len(), groups.len(), "one weight per group");
    assert_eq!(covs.len(), groups.len(), "one coverage size per group");
    if budget == 0 {
        // Surfaced as an error rather than an empty selection: a zero
        // budget in a customization round is always a caller bug.
        return Err(CoreError::ZeroBudget);
    }
    let eligible = refine_pool(groups, feedback)?;
    let pool_size = eligible.iter().filter(|&&e| e).count();

    let pri: HashSet<GroupId> = feedback.priority.iter().copied().collect();
    let std_set: HashSet<GroupId> = feedback.standard_groups(groups).into_iter().collect();

    let weights: Vec<LexPair<T>> = groups
        .ids()
        .map(|g| {
            if pri.contains(&g) {
                LexPair::priority(base_weights[g.index()].clone())
            } else if std_set.contains(&g) {
                LexPair::standard(base_weights[g.index()].clone())
            } else {
                // Groups in neither set carry zero weight: ignored.
                LexPair::zero()
            }
        })
        .collect();
    let inst = DiversificationInstance::new(groups, weights, covs.to_vec());
    let strategy = Strategy::Eager {
        tie_break: TieBreak::FirstUser,
    };
    let spec = SelectSpec {
        eligible: Some(&eligible),
        ..SelectSpec::new(budget, strategy)
    };
    let selection = select(&inst, csr, &spec).expect("an eager run always completes");

    let feedback_group_coverage = if feedback.priority.is_empty() {
        1.0
    } else {
        let covered = feedback
            .priority
            .iter()
            .filter(|g| selection.covered_counts[g.index()] >= inst.cov(**g))
            .count();
        covered as f64 / feedback.priority.len() as f64
    };
    Ok((selection, pool_size, feedback_group_coverage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketingConfig;

    fn table2_setup() -> (UserRepository, GroupSet) {
        let repo = crate::testutil::table2();
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        let groups = GroupSet::build(&repo, &buckets);
        (repo, groups)
    }

    fn groups_of_props(groups: &GroupSet, repo: &UserRepository, prefix: &str) -> Vec<GroupId> {
        let mut out = Vec::new();
        for p in 0..repo.property_count() {
            let pid = PropertyId::from_index(p);
            if repo.property_label(pid).unwrap().starts_with(prefix) {
                out.extend(groups.groups_of_property(pid));
            }
        }
        out
    }

    #[test]
    fn example_64_refinement_excludes_carol() {
        let (repo, groups) = table2_setup();
        // Must-have: all buckets of avgRating Mexican -> users who rated
        // Mexican food at all. Carol did not.
        let feedback = Feedback {
            must_have: groups_of_props(&groups, &repo, "avgRating Mexican"),
            ..Feedback::default()
        };
        let eligible = refine_pool(&groups, &feedback).unwrap();
        let carol = repo.user_by_name("Carol").unwrap();
        assert!(!eligible[carol.index()]);
        assert_eq!(eligible.iter().filter(|&&e| e).count(), 4);
    }

    #[test]
    fn example_64_full_selection() {
        let (repo, groups) = table2_setup();
        let feedback = Feedback {
            must_have: groups_of_props(&groups, &repo, "avgRating Mexican"),
            priority: groups_of_props(&groups, &repo, "livesIn"),
            ..Feedback::default()
        };
        let sel = custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
            &feedback,
        )
        .unwrap();
        // Best subset is still {Alice, Eve}: priority score 3 (Tokyo 2 +
        // Paris 1), tie-broken by standard score 14.
        let alice = repo.user_by_name("Alice").unwrap();
        let eve = repo.user_by_name("Eve").unwrap();
        assert_eq!(sel.users(), &[alice, eve]);
        assert_eq!(sel.priority_score(), 3.0);
        assert_eq!(sel.standard_score(), 14.0);
        assert_eq!(sel.pool_size, 4);
    }

    #[test]
    fn must_not_filters_members() {
        let (repo, groups) = table2_setup();
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let tg = groups.groups_of_property(tokyo)[0];
        let feedback = Feedback {
            must_not: vec![tg],
            ..Feedback::default()
        };
        let eligible = refine_pool(&groups, &feedback).unwrap();
        let alice = repo.user_by_name("Alice").unwrap();
        let david = repo.user_by_name("David").unwrap();
        assert!(!eligible[alice.index()]);
        assert!(!eligible[david.index()]);
        assert_eq!(eligible.iter().filter(|&&e| e).count(), 3);
    }

    #[test]
    fn contradictory_feedback_rejected() {
        let (_, groups) = table2_setup();
        let g = GroupId(0);
        let feedback = Feedback {
            must_have: vec![g],
            must_not: vec![g],
            ..Feedback::default()
        };
        assert!(matches!(
            refine_pool(&groups, &feedback),
            Err(CoreError::ContradictoryFeedback(_))
        ));
    }

    #[test]
    fn zero_budget_rejected() {
        let (repo, groups) = table2_setup();
        let err = custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            0,
            &Feedback::none(),
        )
        .unwrap_err();
        assert_eq!(err, CoreError::ZeroBudget);
    }

    #[test]
    fn empty_feedback_matches_base_diversity() {
        let (repo, groups) = table2_setup();
        let sel = custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
            &Feedback::none(),
        )
        .unwrap();
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
        );
        let base = crate::greedy::greedy_select(&inst, 2);
        assert_eq!(sel.users(), base.users.as_slice());
        assert_eq!(sel.priority_score(), 0.0, "no priority groups");
        assert_eq!(sel.standard_score(), base.score);
        assert_eq!(sel.feedback_group_coverage, 1.0, "vacuously covered");
    }

    #[test]
    fn explicit_standard_set_ignores_other_groups() {
        // 𝒢_d? = ∅: only priority groups matter; any priority-optimal subset
        // is acceptable (Example 6.4's closing remark).
        let (repo, groups) = table2_setup();
        let feedback = Feedback {
            priority: groups_of_props(&groups, &repo, "livesIn"),
            standard: Some(Vec::new()),
            ..Feedback::default()
        };
        let sel = custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
            &feedback,
        )
        .unwrap();
        assert_eq!(sel.priority_score(), 3.0, "max livesIn weight with 2 users");
        assert_eq!(sel.standard_score(), 0.0, "standard groups carry no weight");
    }

    #[test]
    fn feedback_group_coverage_measures_priority_cover() {
        let (repo, groups) = table2_setup();
        // Prioritize every livesIn group (4 of them) with budget 2: at most
        // 2 can be covered (one city per user; Tokyo has 2 residents but
        // only one is picked).
        let feedback = Feedback {
            priority: groups_of_props(&groups, &repo, "livesIn"),
            ..Feedback::default()
        };
        let sel = custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
            &feedback,
        )
        .unwrap();
        assert!((sel.feedback_group_coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn must_have_alternatives_within_property() {
        // 𝒢₊ with two buckets of the same property: membership in either
        // suffices.
        let (repo, groups) = table2_setup();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let both = groups.groups_of_property(mex);
        assert_eq!(both.len(), 2);
        let feedback = Feedback {
            must_have: both,
            ..Feedback::default()
        };
        let eligible = refine_pool(&groups, &feedback).unwrap();
        // Alice (high), Bob (low), David (high), Eve (high) qualify.
        assert_eq!(eligible.iter().filter(|&&e| e).count(), 4);
    }

    #[test]
    fn ebs_weights_compose_with_customization() {
        // CUSTOM-DIVERSITY over exact EBS weights: the priority tier still
        // dominates, and within a tier larger groups dominate smaller ones.
        use crate::score::EbsValue;
        use crate::weights::ebs_weights;
        let (repo, groups) = table2_setup();
        let base: Vec<EbsValue> = ebs_weights(&groups);
        let covs = crate::weights::CovScheme::Single.cov(&groups, 2);
        let csr = CsrGraph::from_group_set(&groups);
        let feedback = Feedback {
            priority: groups_of_props(&groups, &repo, "livesIn"),
            ..Feedback::default()
        };
        let (sel, pool, cov) =
            custom_select_weighted(&groups, &csr, &base, &covs, 2, &feedback).unwrap();
        assert_eq!(pool, 5, "no must-have filter");
        assert_eq!(sel.users.len(), 2);
        // Tokyo (the largest livesIn group) must be covered first under EBS.
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let tg = groups.groups_of_property(tokyo)[0];
        assert!(
            sel.covered_counts[tg.index()] >= 1,
            "largest priority group covered"
        );
        assert!(cov > 0.0);
    }

    #[test]
    fn weighted_variant_matches_f64_wrapper() {
        let (repo, groups) = table2_setup();
        let feedback = Feedback {
            must_have: groups_of_props(&groups, &repo, "avgRating Mexican"),
            priority: groups_of_props(&groups, &repo, "livesIn"),
            ..Feedback::default()
        };
        let via_wrapper = custom_select(
            &repo,
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            2,
            &feedback,
        )
        .unwrap();
        let base = WeightScheme::LinearBySize.weights(&groups);
        let covs = CovScheme::Single.cov(&groups, 2);
        let csr = CsrGraph::from_group_set(&groups);
        let (sel, pool, cov) =
            custom_select_weighted(&groups, &csr, &base, &covs, 2, &feedback).unwrap();
        assert_eq!(via_wrapper.users(), sel.users.as_slice());
        assert_eq!(via_wrapper.pool_size, pool);
        assert_eq!(via_wrapper.feedback_group_coverage, cov);
    }

    #[test]
    fn must_have_across_properties_is_conjunctive() {
        let (repo, groups) = table2_setup();
        let tokyo = repo.property_id("livesIn Tokyo").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        let mut must = groups.groups_of_property(tokyo);
        must.extend(groups.groups_of_property(mex));
        let feedback = Feedback {
            must_have: must,
            ..Feedback::default()
        };
        let eligible = refine_pool(&groups, &feedback).unwrap();
        // Tokyo residents who rated Mexican: Alice and David only.
        let alice = repo.user_by_name("Alice").unwrap();
        let david = repo.user_by_name("David").unwrap();
        let qualified: Vec<usize> = eligible
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(qualified, vec![alice.index(), david.index()]);
    }
}
