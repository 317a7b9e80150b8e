//! Cross-strategy equivalence: Algorithm 1's eager greedy, the CELF loop
//! (`Strategy::Lazy`), and the paper-named aliases must produce
//! *bit-identical* selections — same `users`, same per-round `gains`, same
//! `score`, same `covered_counts` — on randomized instances with varying
//! weights, zero-weight groups, coverage requirements above one, and
//! heavily overlapping groups, and on the paper's running example. The
//! CELF loop must also return the identical selection with an empty quota
//! set and under a stop hook that never fires.
//!
//! The guarantee holds for every weight vector under the `FirstUser`
//! tie-break — non-integer `f64` weights included — because the CELF loop
//! maintains Algorithm 1's exact marginals with the eager loop's own
//! arithmetic; see `crates/podium-core/src/engine/lazy.rs` for the
//! heap-invariant argument.

use podium_core::engine::{
    constrained_lazy_select, lazy_select_csr, select, AnnealSchedule, CsrGraph, QuotaSet,
    SelectError, SelectSpec, SpecError, Strategy,
};
use podium_core::greedy::{greedy_select, Selection, TieBreak};
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::score::ScoreValue;
use podium_core::weights::{noisy_weights, CovScheme, WeightScheme};

const EAGER: Strategy = Strategy::Eager {
    tie_break: TieBreak::FirstUser,
};

/// Tiny deterministic LCG so instances are reproducible without dev-deps.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random overlapping group structure: `groups` groups over `users` users,
/// sizes in `[1, max_size]`, duplicates deduplicated by `from_memberships`.
fn random_groups(seed: u64, users: usize, groups: usize, max_size: usize) -> GroupSet {
    let mut rng = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
    let memberships: Vec<Vec<UserId>> = (0..groups)
        .map(|_| {
            let size = 1 + rng.below(max_size);
            (0..size).map(|_| UserId(rng.below(users) as u32)).collect()
        })
        .collect();
    GroupSet::from_memberships(users, memberships)
}

/// The paper's Example 4.3 instance (Table 2): Alice(0) Bob(1) Carol(2)
/// David(3) Eve(4) over the 16 simple groups of the running example.
fn example_43() -> GroupSet {
    let (a, b, c, d, e) = (UserId(0), UserId(1), UserId(2), UserId(3), UserId(4));
    GroupSet::from_memberships(
        5,
        vec![
            vec![a, d],
            vec![b],
            vec![c],
            vec![e],
            vec![a, c],
            vec![a, d, e],
            vec![b],
            vec![a],
            vec![b],
            vec![d, e],
            vec![a],
            vec![b],
            vec![c, e],
            vec![a],
            vec![b],
            vec![c, e],
        ],
    )
}

/// Asserts the CELF loop and every alias return the exact same selection
/// as the eager reference, and returns that selection.
fn assert_all_strategies_identical<W: ScoreValue + PartialEq>(
    inst: &DiversificationInstance<W>,
    b: usize,
    eligible: Option<&[bool]>,
    context: &str,
) -> Selection<W> {
    let csr = CsrGraph::from_group_set(inst.groups());
    let run = |strategy| {
        let spec = SelectSpec {
            eligible,
            ..SelectSpec::new(b, strategy)
        };
        select(inst, &csr, &spec).expect("valid unhooked spec")
    };
    let reference = run(EAGER);
    let mut candidates = vec![
        ("lazy", run(Strategy::Lazy)),
        ("lazy_select_csr", lazy_select_csr(inst, &csr, b, eligible)),
    ];
    if eligible.is_none() {
        candidates.push(("greedy_select", greedy_select(inst, b)));
        let constrained = constrained_lazy_select(inst, &csr, b, &QuotaSet::empty(b))
            .expect("empty quotas are always feasible");
        candidates.push(("constrained_lazy_select", constrained));
    }
    for (label, sel) in candidates {
        assert_eq!(sel.users, reference.users, "{context}: {label} users");
        assert_eq!(sel.gains, reference.gains, "{context}: {label} gains");
        assert_eq!(sel.score, reference.score, "{context}: {label} score");
        assert_eq!(
            sel.covered_counts, reference.covered_counts,
            "{context}: {label} covered_counts"
        );
    }
    reference
}

#[test]
fn builtin_schemes_agree_on_random_instances() {
    for seed in 0..20u64 {
        let users = 20 + (seed as usize % 7) * 13;
        let groups = random_groups(seed, users, 30 + seed as usize * 3, 9);
        for weight in [WeightScheme::Identical, WeightScheme::LinearBySize] {
            for cov in [CovScheme::Single, CovScheme::Proportional] {
                for b in [1usize, 4, 9] {
                    let inst = DiversificationInstance::from_schemes(&groups, weight, cov, b);
                    let ctx = format!("seed={seed} {weight:?}/{cov:?} b={b}");
                    assert_all_strategies_identical(&inst, b, None, &ctx);
                }
            }
        }
    }
}

#[test]
fn custom_integer_valued_f64_weights_and_cov_above_one() {
    for seed in 30..42u64 {
        let groups = random_groups(seed, 60, 80, 12);
        let mut rng = Lcg(seed);
        // Integer-valued f64 weights (exact arithmetic), incl. zero weights,
        // and coverage requirements up to 4.
        let weights: Vec<f64> = (0..groups.len()).map(|_| rng.below(17) as f64).collect();
        let cov: Vec<u32> = (0..groups.len()).map(|_| 1 + rng.below(4) as u32).collect();
        let inst = DiversificationInstance::new(&groups, weights, cov);
        assert_all_strategies_identical(&inst, 8, None, &format!("f64 seed={seed}"));
    }
}

#[test]
fn u64_weights_agree() {
    for seed in 50..60u64 {
        let groups = random_groups(seed, 45, 70, 8);
        let mut rng = Lcg(seed.wrapping_mul(3));
        let weights: Vec<u64> = (0..groups.len()).map(|_| rng.next() % 1000).collect();
        let cov: Vec<u32> = (0..groups.len()).map(|_| 1 + rng.below(3) as u32).collect();
        let inst = DiversificationInstance::new(&groups, weights, cov);
        assert_all_strategies_identical(&inst, 6, None, &format!("u64 seed={seed}"));
        // An excluded user's round-0 marginal is never summed, so it must
        // never be decremented either: a `u64` marginal would underflow.
        let eligible: Vec<bool> = (0..45).map(|_| rng.below(3) != 0).collect();
        let ctx = format!("u64 eligible seed={seed}");
        let sel = assert_all_strategies_identical(&inst, 6, Some(&eligible), &ctx);
        assert!(sel.users.iter().all(|u| eligible[u.index()]), "{ctx}");
    }
}

#[test]
fn noisy_f64_weights_agree() {
    // Non-integer weights: every sum rounds, so lazy matches eager only
    // because both update the same marginals in the same order.
    for seed in 0..40u64 {
        let groups = random_groups(seed + 300, 40, 60, 9);
        for amplitude in [0.3, 0.9] {
            for cov in [CovScheme::Single, CovScheme::Proportional] {
                let base = WeightScheme::LinearBySize.weights(&groups);
                let weights = noisy_weights(&base, amplitude, seed);
                let inst = DiversificationInstance::new(&groups, weights, cov.cov(&groups, 8));
                let ctx = format!("noisy seed={seed} amplitude={amplitude} {cov:?}");
                assert_all_strategies_identical(&inst, 8, None, &ctx);
            }
        }
    }
}

#[test]
fn ebs_weights_agree() {
    for seed in 70..76u64 {
        let groups = random_groups(seed, 40, 50, 7);
        let inst = DiversificationInstance::ebs(&groups, CovScheme::Proportional, 5);
        assert_all_strategies_identical(&inst, 5, None, &format!("ebs seed={seed}"));
    }
}

#[test]
fn eligibility_filters_agree() {
    for seed in 80..90u64 {
        let users = 50;
        let groups = random_groups(seed, users, 60, 10);
        let mut rng = Lcg(seed ^ 0xDEAD_BEEF);
        let eligible: Vec<bool> = (0..users).map(|_| rng.below(4) != 0).collect();
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            7,
        );
        let ctx = format!("eligible seed={seed}");
        let sel = assert_all_strategies_identical(&inst, 7, Some(&eligible), &ctx);
        assert!(sel.users.iter().all(|u| eligible[u.index()]), "{ctx}");
    }
}

#[test]
fn budget_exceeding_population_agrees() {
    let groups = random_groups(99, 12, 25, 6);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        40,
    );
    let sel = assert_all_strategies_identical(&inst, 40, None, "budget > population");
    assert_eq!(sel.users.len(), 12, "stops when the pool is exhausted");
}

#[test]
fn paper_examples_agree() {
    let g = example_43();
    // Example 4.3 / 3.8, LBS + Single: the Alice/Eve tie at 10 goes to
    // Alice (FirstUser); Eve follows; total score 17.
    let lbs =
        DiversificationInstance::from_schemes(&g, WeightScheme::LinearBySize, CovScheme::Single, 2);
    let sel = assert_all_strategies_identical(&lbs, 2, None, "Example 4.3");
    assert_eq!(sel.users, vec![UserId(0), UserId(4)]);
    assert_eq!(sel.gains, vec![10.0, 7.0]);
    assert_eq!(sel.score, 17.0);
    // Example 3.8, Iden + Single: Alice and Bob represent 11 groups.
    let iden =
        DiversificationInstance::from_schemes(&g, WeightScheme::Identical, CovScheme::Single, 2);
    let sel = assert_all_strategies_identical(&iden, 2, None, "Example 3.8");
    assert_eq!(sel.users, vec![UserId(0), UserId(1)]);
    assert_eq!(sel.score, 11.0);
    // Excluding Alice puts Eve first.
    let eligible = [false, true, true, true, true];
    let sel = assert_all_strategies_identical(&lbs, 2, Some(&eligible), "Example 4.3 w/o Alice");
    assert_eq!(sel.users[0], UserId(4));
}

#[test]
fn coverage_two_and_zero_weight_groups_agree() {
    // cov = 2 on a shared group: the second representative still counts,
    // the third adds nothing.
    let g = GroupSet::from_memberships(3, vec![vec![UserId(0), UserId(1), UserId(2)]]);
    let cov2 = DiversificationInstance::new(&g, vec![1.0], vec![2]);
    let sel = assert_all_strategies_identical(&cov2, 3, None, "cov = 2");
    assert_eq!(sel.score, 2.0);
    // A zero-weight group never attracts a pick.
    let g = GroupSet::from_memberships(2, vec![vec![UserId(0)], vec![UserId(1)]]);
    let zero = DiversificationInstance::new(&g, vec![0.0, 5.0], vec![1, 1]);
    let sel = assert_all_strategies_identical(&zero, 1, None, "zero-weight group");
    assert_eq!(sel.users, vec![UserId(1)]);
}

#[test]
fn no_quotas_empty_quotas_and_stop_hooks_agree() {
    let users = 35;
    for seed in 0..8u64 {
        let groups = random_groups(seed + 200, users, 50, 8);
        let csr = CsrGraph::from_group_set(&groups);
        for (w, c) in [
            (WeightScheme::LinearBySize, CovScheme::Proportional),
            (WeightScheme::Identical, CovScheme::Single),
        ] {
            let b = 9;
            let ctx = format!("seed={seed} {w:?}/{c:?}");
            let inst = DiversificationInstance::from_schemes(&groups, w, c, b);
            let lazy = || SelectSpec::new(b, Strategy::Lazy);
            let reference = select(&inst, &csr, &lazy()).expect("plain CELF completes");
            let empty = QuotaSet::empty(b);
            let spec = SelectSpec {
                quotas: Some(&empty),
                ..lazy()
            };
            assert_eq!(
                select(&inst, &csr, &spec),
                Ok(reference.clone()),
                "{ctx}: empty quotas"
            );
            // A stop hook yields the exact prefix.
            let at_three = |committed: usize| committed >= 3;
            let spec = SelectSpec {
                stop: Some(&at_three),
                ..lazy()
            };
            let Err(SelectError::Stopped(prefix)) = select(&inst, &csr, &spec) else {
                panic!("{ctx}: the stop hook must end the run");
            };
            assert_eq!(prefix.users, reference.users[..3], "{ctx}");
            assert_eq!(prefix.gains, reference.gains[..3], "{ctx}");
        }
    }
}

#[test]
fn rejected_spec_combinations_are_refused() {
    // A seeded tie-break under `Lazy` is unrepresentable: only `Eager`
    // carries a tie-break. Everything else is refused by `check`.
    let groups = random_groups(3, 10, 12, 4);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::Identical,
        CovScheme::Single,
        3,
    );
    let csr = CsrGraph::from_group_set(&groups);
    let eligible = vec![true; 10];
    let quotas = QuotaSet::empty(3);
    let schedule = AnnealSchedule {
        seed: 1,
        steps: 10,
        t0: 1.0,
        cooling: 0.9,
    };
    let never = |_: usize| false;
    let stochastic = Strategy::Stochastic {
        epsilon: 0.1,
        seed: 1,
    };
    let lazy = || SelectSpec::new(3, Strategy::Lazy);
    let cases: Vec<(SelectSpec<'_>, SpecError)> = vec![
        (
            SelectSpec {
                quotas: Some(&quotas),
                ..SelectSpec::new(3, EAGER)
            },
            SpecError::LazyOnly("quotas"),
        ),
        (
            SelectSpec {
                quotas: Some(&quotas),
                ..SelectSpec::new(3, stochastic)
            },
            SpecError::LazyOnly("quotas"),
        ),
        (
            SelectSpec {
                stop: Some(&never),
                ..SelectSpec::new(3, stochastic)
            },
            SpecError::LazyOnly("a stop hook"),
        ),
        (
            SelectSpec {
                eligible: Some(&eligible),
                quotas: Some(&quotas),
                ..lazy()
            },
            SpecError::EligibilityWith("quotas"),
        ),
        (
            SelectSpec {
                eligible: Some(&eligible),
                ..SelectSpec::new(3, stochastic)
            },
            SpecError::EligibilityWith("stochastic sampling"),
        ),
        (
            SelectSpec {
                anneal: Some(&schedule),
                ..lazy()
            },
            SpecError::AnnealWithoutQuotas,
        ),
    ];
    for (spec, expected) in cases {
        assert_eq!(spec.check(), Err(expected));
        assert_eq!(
            select(&inst, &csr, &spec),
            Err(SelectError::Spec(expected)),
            "{expected}"
        );
    }
}

#[test]
fn contains_matches_linear_scan_on_engine_output() {
    let groups = random_groups(7, 64, 90, 11);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Proportional,
        10,
    );
    let csr = CsrGraph::from_group_set(&groups);
    let sel = lazy_select_csr(&inst, &csr, 10, None);
    for u in 0..64u32 {
        let u = UserId(u);
        assert_eq!(sel.contains(u), sel.users.contains(&u), "user {u:?}");
    }
}
