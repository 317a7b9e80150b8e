//! The selection engine: one entry point, [`select`], over CSR group
//! storage.
//!
//! A [`SelectSpec`] names everything one run needs besides the instance
//! and its [`CsrGraph`]: the budget, the [`Strategy`] (Algorithm 1's
//! scan, CELF's heap, or stochastic sampling), an eligibility filter,
//! quota windows with an optional anneal schedule, and a stop hook.
//! Combinations no strategy supports are refused in one place,
//! [`SelectSpec::check`].
//!
//! `Eager` and `Lazy` run the same exact greedy loop, with quotas and a
//! stop hook or without: Algorithm 1's exact marginals, kept once, and
//! one of two argmax rules over them. Under the `FirstUser` tie-break
//! both rules pick the same user every round, so the two strategies are
//! bit-identical for every weight vector, and a `Lazy` run hands itself
//! to the scan once its heap's stale pops show the scan is cheaper.
//!
//! [`CsrGraph`] is the flat bipartite user ↔ group adjacency, built once
//! from a [`GroupSet`](crate::group::GroupSet) in `O(|V| + |E|)`; serving
//! layers keep one per snapshot and select from it across many requests.
//!
//! Complexity: the scan is `O(|E| + B·n + Σ_{covered G} |G|)`; the heap
//! keeps the round-0 scan and the member-side decrements and replaces
//! the `B·n` argmax scans with `O(n)` heapify plus `O(log n)` per heap
//! operation — `O(|E| + Σ_{covered G} |G| + r·log n)` for `r` stale
//! refreshes, each a single push.

mod algorithm1;
pub mod anneal;
pub mod constrained;
pub mod csr;
mod stochastic;

pub use anneal::{anneal_refine, AnnealSchedule};
pub use constrained::{
    constraint_fingerprint, feasible_by_brute_force, Infeasible, Quota, QuotaBound, QuotaError,
    QuotaSet,
};
pub use csr::CsrGraph;

use crate::greedy::{Selection, TieBreak};
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

/// How each greedy round picks its user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Algorithm 1 with decremental marginal maintenance (the paper's
    /// eager update scheme): each round scans the exact marginals and
    /// breaks argmax ties by `tie_break`.
    Eager {
        /// Tie-break among users sharing the maximal marginal.
        tie_break: TieBreak,
    },
    /// CELF lazy greedy over a max-heap of stale upper bounds, refreshed
    /// from Algorithm 1's exact marginals. Ties go to the smaller user id,
    /// so selections are bit-identical to `Eager { tie_break: FirstUser }`;
    /// once one round's stale pops show the scan is cheaper, the run
    /// finishes with the scan.
    Lazy,
    /// Stochastic greedy (Mirzasoleiman et al., AAAI 2015): each round
    /// evaluates a seeded sample of `⌈(n/B)·ln(1/ε)⌉` candidates, for a
    /// `(1 − 1/e − ε)` guarantee in expectation. `epsilon = 0` scans all.
    Stochastic {
        /// Accuracy parameter in `[0, 1)`.
        epsilon: f64,
        /// Seed of the sampling stream.
        seed: u64,
    },
}

/// Everything one selection run needs besides the instance and its CSR
/// graph. Build with [`SelectSpec::new`] and struct-update syntax:
///
/// ```
/// # use podium_core::engine::{SelectSpec, Strategy};
/// let eligible = [true, false, true];
/// let spec = SelectSpec {
///     eligible: Some(&eligible),
///     ..SelectSpec::new(2, Strategy::Lazy)
/// };
/// assert!(spec.check().is_ok());
/// ```
pub struct SelectSpec<'a> {
    /// Selects at most this many users.
    pub budget: usize,
    /// The greedy variant.
    pub strategy: Strategy,
    /// Restricts the candidate pool (the customization refinement `𝒰'`
    /// of §6); one flag per user.
    pub eligible: Option<&'a [bool]>,
    /// Per-group occupancy windows, resolved against `budget`. Not with
    /// stochastic sampling; an empty set runs the plain loop.
    pub quotas: Option<&'a QuotaSet>,
    /// Refines the constrained greedy slate by seeded annealing. Needs
    /// `quotas`.
    pub anneal: Option<&'a AnnealSchedule>,
    /// Deadline hook, polled with the number of committed users before
    /// the round-0 scan and after every committed round; `true` stops the
    /// run with [`SelectError::Stopped`]. Not with stochastic sampling.
    pub stop: Option<&'a dyn Fn(usize) -> bool>,
}

impl SelectSpec<'_> {
    /// A spec with only the budget and strategy set.
    pub fn new(budget: usize, strategy: Strategy) -> Self {
        SelectSpec {
            budget,
            strategy,
            eligible: None,
            quotas: None,
            anneal: None,
            stop: None,
        }
    }

    /// Refuses the combinations no strategy supports. [`select`] calls
    /// this first; it is the one place they are decided.
    pub fn check(&self) -> Result<(), SpecError> {
        if matches!(self.strategy, Strategy::Stochastic { .. }) {
            for (set, what) in [
                (self.quotas.is_some(), "quotas"),
                (self.stop.is_some(), "a stop hook"),
            ] {
                if set {
                    return Err(SpecError::StochasticWith(what));
                }
            }
        }
        if self.eligible.is_some() {
            for (set, what) in [
                (self.quotas.is_some(), "quotas"),
                (
                    matches!(self.strategy, Strategy::Stochastic { .. }),
                    "stochastic sampling",
                ),
            ] {
                if set {
                    return Err(SpecError::EligibilityWith(what));
                }
            }
        }
        if self.anneal.is_some() && self.quotas.is_none() {
            return Err(SpecError::AnnealWithoutQuotas);
        }
        Ok(())
    }
}

/// A [`SelectSpec`] combination no strategy supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// Stochastic sampling combined with the named setting, which only
    /// the exact loop (`Eager` or `Lazy`) takes.
    StochasticWith(&'static str),
    /// An eligibility filter combined with the named setting.
    EligibilityWith(&'static str),
    /// An anneal schedule without quotas to anneal under.
    AnnealWithoutQuotas,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::StochasticWith(what) => {
                write!(f, "stochastic sampling cannot be combined with {what}")
            }
            SpecError::EligibilityWith(what) => {
                write!(f, "an eligibility filter cannot be combined with {what}")
            }
            SpecError::AnnealWithoutQuotas => write!(f, "an anneal schedule needs quotas"),
        }
    }
}

/// Why [`select`] returned no complete selection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError<W> {
    /// The spec was refused by [`SelectSpec::check`].
    Spec(SpecError),
    /// No subset of at most `budget` users satisfies every quota window.
    Infeasible(Infeasible),
    /// The stop hook fired. Carries the users committed so far — exactly
    /// the greedy prefix of the full run, which submodularity gives the
    /// usual `(1 − 1/e)` guarantee for its own smaller budget.
    Stopped(Selection<W>),
}

impl<W> std::fmt::Display for SelectError<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::Spec(e) => write!(f, "invalid select spec: {e}"),
            SelectError::Infeasible(e) => write!(f, "{e}"),
            SelectError::Stopped(prefix) => {
                write!(f, "stopped after {} committed user(s)", prefix.users.len())
            }
        }
    }
}

/// Runs one selection. `csr` must have been built from `inst.groups()`
/// (checked under debug assertions, along with the instance's own
/// structural validity).
pub fn select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    spec: &SelectSpec<'_>,
) -> Result<Selection<W>, SelectError<W>> {
    spec.check().map_err(SelectError::Spec)?;
    debug_assert!(
        inst.validate().is_ok(),
        "invalid instance: {}",
        inst.validate().unwrap_err()
    );
    debug_assert_eq!(csr.user_count(), inst.user_count(), "csr/instance users");
    debug_assert_eq!(
        csr.group_count(),
        inst.groups().len(),
        "csr/instance groups"
    );
    if let Some(e) = spec.eligible {
        assert_eq!(e.len(), csr.user_count(), "one eligibility flag per user");
    }
    let b = spec.budget;
    match spec.strategy {
        Strategy::Stochastic { epsilon, seed } => {
            Ok(stochastic::stochastic_select(inst, csr, b, epsilon, seed))
        }
        Strategy::Eager { .. } | Strategy::Lazy => {
            let greedy = algorithm1::greedy(inst, csr, spec)?;
            Ok(match (spec.quotas, spec.anneal) {
                (Some(quotas), Some(schedule)) => {
                    anneal_refine(inst, csr, quotas, &greedy, schedule)
                }
                _ => greedy,
            })
        }
    }
}

/// CELF lazy greedy against a prebuilt CSR graph.
pub fn lazy_select_csr<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
) -> Selection<W> {
    let spec = SelectSpec {
        eligible,
        ..SelectSpec::new(b, Strategy::Lazy)
    };
    select(inst, csr, &spec).expect("an unconstrained, unhooked run always completes")
}

/// Quota-constrained CELF: every committed prefix stays completable to a
/// selection inside every quota window (see [`constrained`]). Returns
/// [`Infeasible`] — before selecting anything — iff no subset of at most
/// `b` users satisfies every window. With an empty `quotas` the result is
/// bit-identical to [`lazy_select_csr`]. `quotas` must have been resolved
/// against the same budget `b`.
pub fn constrained_lazy_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    quotas: &QuotaSet,
) -> Result<Selection<W>, Infeasible> {
    let spec = SelectSpec {
        quotas: Some(quotas),
        ..SelectSpec::new(b, Strategy::Lazy)
    };
    // An unhooked lazy spec with quotas only ever fails as infeasible.
    select(inst, csr, &spec).map_err(|e| match e {
        SelectError::Infeasible(e) => e,
        other => Infeasible {
            group: None,
            reason: other.to_string(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupSet;
    use crate::ids::UserId;
    use crate::weights::{CovScheme, WeightScheme};

    fn random_groups(seed: u64, users: usize, groups: usize) -> GroupSet {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let memberships: Vec<Vec<UserId>> = (0..groups)
            .map(|_| {
                let size = 1 + next() % users;
                let mut m: Vec<UserId> = (0..size)
                    .map(|_| UserId::from_index(next() % users))
                    .collect();
                m.sort();
                m.dedup();
                m
            })
            .collect();
        GroupSet::from_memberships(users, memberships)
    }

    const EAGER: Strategy = Strategy::Eager {
        tie_break: TieBreak::FirstUser,
    };

    fn run<W: ScoreValue>(
        inst: &DiversificationInstance<'_, W>,
        spec: &SelectSpec<'_>,
    ) -> Result<Selection<W>, SelectError<W>> {
        select(inst, &CsrGraph::from_group_set(inst.groups()), spec)
    }

    #[test]
    fn eager_and_lazy_agree_exactly() {
        for seed in 0..12 {
            let g = random_groups(seed, 30, 45);
            let inst = DiversificationInstance::from_schemes(
                &g,
                WeightScheme::LinearBySize,
                CovScheme::Proportional,
                6,
            );
            let eager = run(&inst, &SelectSpec::new(6, EAGER)).unwrap();
            let lazy = run(&inst, &SelectSpec::new(6, Strategy::Lazy)).unwrap();
            assert_eq!(lazy, eager, "seed {seed}");
        }
    }

    #[test]
    fn aliases_match_select() {
        let g = random_groups(5, 20, 30);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            5,
        );
        let csr = CsrGraph::from_group_set(&g);
        let lazy = run(&inst, &SelectSpec::new(5, Strategy::Lazy)).unwrap();
        assert_eq!(crate::greedy::greedy_select(&inst, 5), lazy);
        assert_eq!(lazy_select_csr(&inst, &csr, 5, None), lazy);
        assert_eq!(
            constrained_lazy_select(&inst, &csr, 5, &QuotaSet::empty(5)),
            Ok(lazy)
        );
    }

    #[test]
    fn eligibility_respected_by_every_strategy() {
        let g = random_groups(2, 10, 15);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let mut eligible = vec![true; 10];
        eligible[0] = false;
        eligible[4] = false;
        let filtered = |strategy| SelectSpec {
            eligible: Some(&eligible),
            ..SelectSpec::new(3, strategy)
        };
        let eager = run(&inst, &filtered(EAGER)).unwrap();
        let lazy = run(&inst, &filtered(Strategy::Lazy)).unwrap();
        assert_eq!(eager, lazy);
        assert!(!lazy.contains(UserId(0)));
        assert!(!lazy.contains(UserId(4)));
    }

    #[test]
    fn stop_hook_yields_exact_greedy_prefix() {
        let g = random_groups(7, 25, 40);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            6,
        );
        let full = run(&inst, &SelectSpec::new(6, Strategy::Lazy)).unwrap();
        let never = |_: usize| false;
        let hooked = SelectSpec {
            stop: Some(&never),
            ..SelectSpec::new(6, Strategy::Lazy)
        };
        assert_eq!(run(&inst, &hooked), Ok(full.clone()));
        for k in 0..full.users.len() {
            let at_k = move |done: usize| done >= k;
            let spec = SelectSpec {
                stop: Some(&at_k),
                ..SelectSpec::new(6, Strategy::Lazy)
            };
            let Err(SelectError::Stopped(prefix)) = run(&inst, &spec) else {
                panic!("stop at {k} must report incompletion");
            };
            assert_eq!(prefix.users, full.users[..k], "prefix at {k}");
            assert_eq!(prefix.gains, full.gains[..k], "gains at {k}");
        }
    }

    #[test]
    fn anneal_runs_after_the_constrained_greedy() {
        let g = random_groups(3, 12, 20);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            4,
        );
        let csr = CsrGraph::from_group_set(&g);
        let quotas = QuotaSet::build(
            vec![Quota {
                group: 0,
                min: QuotaBound::Count(1),
                max: None,
            }],
            g.len(),
            4,
        )
        .expect("valid");
        let schedule = AnnealSchedule {
            seed: 3,
            steps: 200,
            t0: 0.5,
            cooling: 0.99,
        };
        let greedy = constrained_lazy_select(&inst, &csr, 4, &quotas).expect("feasible");
        let spec = SelectSpec {
            quotas: Some(&quotas),
            anneal: Some(&schedule),
            ..SelectSpec::new(4, Strategy::Lazy)
        };
        assert_eq!(
            select(&inst, &csr, &spec),
            Ok(anneal_refine(&inst, &csr, &quotas, &greedy, &schedule))
        );
    }
}
