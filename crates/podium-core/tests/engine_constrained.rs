//! The constrained-selection proof battery.
//!
//! Property tests pinning the three contracts of the quota subsystem:
//!
//! * **Exactness** — on random small instances, the constrained
//!   selector returns `Infeasible` *iff* a brute-force sweep over every
//!   subset of size ≤ budget finds no feasible assignment; when it does
//!   return a selection, every quota window holds. The scan
//!   (`Eager { FirstUser }`) and the heap (`Lazy`) return the same result
//!   bit for bit, and a `Seeded` scan meets the same contract and replays
//!   per seed.
//! * **Equivalence** — with an empty `QuotaSet`, the constrained
//!   selector is bit-identical (users, gains, score, covered counts) to
//!   the unconstrained CELF.
//! * **Refinement** — the seeded annealer is deterministic (same seed ⇒
//!   same slate), never scores below its greedy start, and never turns
//!   a feasible solution infeasible.
//! * **Hooks** — with non-empty quotas, a stop hook that never fires
//!   gives the unhooked constrained run's result, `Infeasible` verdicts
//!   included.

use podium_core::engine::{
    anneal_refine, constrained_lazy_select, feasible_by_brute_force, lazy_select_csr, select,
    AnnealSchedule, CsrGraph, Quota, QuotaBound, QuotaSet, SelectError, SelectSpec, Strategy,
};
use podium_core::greedy::TieBreak;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::weights::{CovScheme, WeightScheme};
use proptest::prelude::*;

/// Decodes drawn primitives into a small random group structure:
/// `users ≤ 10` so the brute-force reference stays cheap.
fn build_groups(users: usize, raw_groups: &[Vec<u8>]) -> GroupSet {
    let memberships: Vec<Vec<UserId>> = raw_groups
        .iter()
        .map(|members| {
            let mut m: Vec<UserId> = members
                .iter()
                .map(|&x| UserId((x as usize % users) as u32))
                .collect();
            m.sort();
            m.dedup();
            m
        })
        .collect();
    GroupSet::from_memberships(users, memberships)
}

fn schemes(bits: u8) -> (WeightScheme, CovScheme) {
    (
        if bits & 1 == 0 {
            WeightScheme::LinearBySize
        } else {
            WeightScheme::Identical
        },
        if bits & 2 == 0 {
            CovScheme::Single
        } else {
            CovScheme::Proportional
        },
    )
}

/// Decodes drawn primitives into a valid `QuotaSet`: groups are taken
/// modulo the group count and deduplicated, floors stay within the
/// budget, ceilings at or above their floor — so `build` always
/// succeeds and every case exercises the selector, not the validator.
fn build_quotas(raw: &[(u8, u8, u8, bool)], group_count: usize, budget: usize) -> QuotaSet {
    let mut quotas: Vec<Quota> = Vec::new();
    for &(group, min, max_extra, bounded) in raw {
        let group = (group as usize % group_count) as u32;
        if quotas.iter().any(|q| q.group == group) {
            continue;
        }
        let min = min as usize % (budget + 1);
        quotas.push(Quota {
            group,
            min: QuotaBound::Count(min as u32),
            max: bounded.then_some(QuotaBound::Count((min + max_extra as usize % 3) as u32)),
        });
    }
    QuotaSet::build(quotas, group_count, budget).expect("decoded quotas are always valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Exactness: `Infeasible` iff brute force finds no feasible subset;
    /// otherwise every window holds on the returned selection.
    #[test]
    fn quota_satisfaction_iff_brute_force_feasible(
        users in 1usize..=10,
        raw_groups in prop::collection::vec(prop::collection::vec(0u8..=255, 1..5), 1..7),
        budget in 1usize..=5,
        raw_quotas in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, any::<bool>()), 0..4),
        scheme_bits in 0u8..4,
    ) {
        let groups = build_groups(users, &raw_groups);
        let (w, c) = schemes(scheme_bits);
        let inst = DiversificationInstance::from_schemes(&groups, w, c, budget);
        let csr = CsrGraph::from_group_set(&groups);
        let quotas = build_quotas(&raw_quotas, groups.len(), budget);
        let feasible = feasible_by_brute_force(&csr, budget, &quotas);
        let constrained = |strategy| SelectSpec {
            quotas: Some(&quotas),
            ..SelectSpec::new(budget, strategy)
        };
        let scan = Strategy::Eager { tie_break: TieBreak::FirstUser };
        prop_assert_eq!(
            select(&inst, &csr, &constrained(scan)),
            select(&inst, &csr, &constrained(Strategy::Lazy)),
            "the scan and the heap must agree under quotas"
        );
        match constrained_lazy_select(&inst, &csr, budget, &quotas) {
            Ok(sel) => {
                prop_assert!(feasible, "selector succeeded on an infeasible instance");
                prop_assert!(
                    quotas.satisfied_by(&sel.covered_counts),
                    "returned selection violates a quota: {:?} vs {:?}",
                    sel.covered_counts,
                    quotas.quotas()
                );
                prop_assert!(sel.users.len() <= budget);
                let mut seen = sel.users.clone();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), sel.users.len(), "duplicate users selected");
            }
            Err(err) => {
                prop_assert!(
                    !feasible,
                    "selector said infeasible ({err}) but brute force found a subset"
                );
            }
        }
    }

    /// The `Seeded` scan under quotas: every window holds, the same seed
    /// replays the same selection bit for bit, and `Infeasible` comes back
    /// iff brute force finds no feasible subset.
    #[test]
    fn seeded_scan_meets_quotas_and_replays_per_seed(
        users in 1usize..=10,
        raw_groups in prop::collection::vec(prop::collection::vec(0u8..=255, 1..5), 1..7),
        budget in 1usize..=5,
        raw_quotas in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, any::<bool>()), 0..4),
        scheme_bits in 0u8..4,
        seed in any::<u64>(),
    ) {
        let groups = build_groups(users, &raw_groups);
        let (w, c) = schemes(scheme_bits);
        let inst = DiversificationInstance::from_schemes(&groups, w, c, budget);
        let csr = CsrGraph::from_group_set(&groups);
        let quotas = build_quotas(&raw_quotas, groups.len(), budget);
        let spec = SelectSpec {
            quotas: Some(&quotas),
            ..SelectSpec::new(budget, Strategy::Eager { tie_break: TieBreak::Seeded(seed) })
        };
        let once = select(&inst, &csr, &spec);
        prop_assert_eq!(&select(&inst, &csr, &spec), &once, "the same seed must replay");
        match once {
            Ok(sel) => {
                prop_assert!(feasible_by_brute_force(&csr, budget, &quotas));
                prop_assert!(
                    quotas.satisfied_by(&sel.covered_counts),
                    "seeded selection violates a quota: {:?} vs {:?}",
                    sel.covered_counts,
                    quotas.quotas()
                );
            }
            Err(SelectError::Infeasible(_)) => {
                prop_assert!(!feasible_by_brute_force(&csr, budget, &quotas));
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// Equivalence: an empty quota set changes nothing, bit for bit.
    #[test]
    fn empty_quota_set_matches_celf_bitwise(
        users in 1usize..=12,
        raw_groups in prop::collection::vec(prop::collection::vec(0u8..=255, 1..6), 1..9),
        budget in 1usize..=6,
        scheme_bits in 0u8..4,
    ) {
        let groups = build_groups(users, &raw_groups);
        let (w, c) = schemes(scheme_bits);
        let inst = DiversificationInstance::from_schemes(&groups, w, c, budget);
        let csr = CsrGraph::from_group_set(&groups);
        let plain = lazy_select_csr(&inst, &csr, budget, None);
        let constrained = constrained_lazy_select(&inst, &csr, budget, &QuotaSet::empty(budget))
            .expect("empty quotas are always feasible");
        prop_assert_eq!(constrained.users, plain.users);
        prop_assert_eq!(constrained.gains, plain.gains);
        prop_assert_eq!(constrained.score, plain.score);
        prop_assert_eq!(constrained.covered_counts, plain.covered_counts);
    }

    /// Refinement: deterministic under its seed, monotone in score, and
    /// feasibility-preserving.
    #[test]
    fn anneal_is_deterministic_monotone_and_feasible(
        users in 2usize..=10,
        raw_groups in prop::collection::vec(prop::collection::vec(0u8..=255, 1..5), 1..7),
        budget in 1usize..=5,
        raw_quotas in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, any::<bool>()), 0..3),
        scheme_bits in 0u8..4,
        seed in 0u64..u64::MAX,
        steps in 0u32..200,
        t0 in 0.0f64..2.0,
        cooling_millis in 500u32..=1000,
    ) {
        let groups = build_groups(users, &raw_groups);
        let (w, c) = schemes(scheme_bits);
        let inst = DiversificationInstance::from_schemes(&groups, w, c, budget);
        let csr = CsrGraph::from_group_set(&groups);
        let quotas = build_quotas(&raw_quotas, groups.len(), budget);
        let Ok(greedy) = constrained_lazy_select(&inst, &csr, budget, &quotas) else {
            // Infeasible instances are covered by the exactness test.
            return Ok(());
        };
        let schedule = AnnealSchedule {
            seed,
            steps,
            t0,
            cooling: cooling_millis as f64 / 1000.0,
        };
        let once = anneal_refine(&inst, &csr, &quotas, &greedy, &schedule);
        let twice = anneal_refine(&inst, &csr, &quotas, &greedy, &schedule);
        prop_assert_eq!(&once, &twice, "same seed must give the same slate");
        prop_assert!(
            once.score >= greedy.score,
            "anneal regressed the score: {} < {}",
            once.score,
            greedy.score
        );
        prop_assert!(
            quotas.satisfied_by(&once.covered_counts),
            "anneal broke a quota window"
        );
        prop_assert_eq!(once.users.len(), greedy.users.len(), "swaps preserve slate size");
    }

    /// Hooks: with quotas set, a stop hook that never fires reproduces
    /// the unhooked constrained run — users, gains, score and covered
    /// counts, or the same `Infeasible` verdict.
    #[test]
    fn never_firing_stop_hook_under_quotas_matches_the_unhooked_run(
        users in 1usize..=12,
        raw_groups in prop::collection::vec(prop::collection::vec(0u8..=255, 1..6), 1..9),
        budget in 1usize..=6,
        raw_quotas in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, any::<bool>()), 1..4),
        scheme_bits in 0u8..4,
    ) {
        let groups = build_groups(users, &raw_groups);
        let (w, c) = schemes(scheme_bits);
        let inst = DiversificationInstance::from_schemes(&groups, w, c, budget);
        let csr = CsrGraph::from_group_set(&groups);
        let quotas = build_quotas(&raw_quotas, groups.len(), budget);
        prop_assert!(!quotas.is_empty());
        let constrained = || SelectSpec {
            quotas: Some(&quotas),
            ..SelectSpec::new(budget, Strategy::Lazy)
        };
        let unhooked = select(&inst, &csr, &constrained());
        let never = |_: usize| false;
        let spec = SelectSpec {
            stop: Some(&never),
            ..constrained()
        };
        prop_assert_eq!(select(&inst, &csr, &spec), unhooked);
    }
}
