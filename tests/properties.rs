//! Property-based tests (proptest) for the core invariants that the
//! paper's guarantees rest on.

use podium::core::engine::{self, SelectSpec};
use podium::core::exact::exact_select;
use podium::core::greedy::{greedy_select, TieBreak};
use podium::core::submodular::{check_monotone_chain, check_submodular_witness};
use podium::prelude::*;
use proptest::prelude::*;

/// Strategy: a random group structure over `users` users, as membership
/// lists, plus positive integer weights and coverage sizes.
fn instance_strategy(
    max_users: usize,
    max_groups: usize,
) -> impl Strategy<Value = (usize, Vec<Vec<u32>>, Vec<u32>, Vec<u32>)> {
    (2..=max_users).prop_flat_map(move |users| {
        let groups = prop::collection::vec(
            prop::collection::btree_set(0..users as u32, 1..=users),
            1..=max_groups,
        );
        groups.prop_flat_map(move |gs| {
            let n_groups = gs.len();
            let memberships: Vec<Vec<u32>> =
                gs.into_iter().map(|s| s.into_iter().collect()).collect();
            (
                Just(users),
                Just(memberships),
                prop::collection::vec(1u32..20, n_groups),
                prop::collection::vec(1u32..4, n_groups),
            )
        })
    })
}

/// One selection under `strategy`; every strategy used here completes.
fn run(
    inst: &DiversificationInstance<f64>,
    b: usize,
    strategy: engine::Strategy,
) -> Selection<f64> {
    let csr = CsrGraph::from_group_set(inst.groups());
    engine::select(inst, &csr, &SelectSpec::new(b, strategy)).expect("unhooked run completes")
}

fn build_groups(users: usize, memberships: &[Vec<u32>]) -> GroupSet {
    GroupSet::from_memberships(
        users,
        memberships
            .iter()
            .map(|g| g.iter().map(|&u| UserId(u)).collect())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The score function is monotone along any insertion order
    /// (Proposition 4.4, Monotonicity).
    #[test]
    fn score_is_monotone((users, memberships, weights, covs) in instance_strategy(8, 10)) {
        let groups = build_groups(users, &memberships);
        let w: Vec<f64> = weights.iter().map(|&x| f64::from(x)).collect();
        let inst = DiversificationInstance::new(&groups, w, covs);
        let order: Vec<UserId> = (0..users).map(UserId::from_index).collect();
        prop_assert!(check_monotone_chain(&inst, &order));
    }

    /// The score function is submodular for random (U ⊆ U', u) witnesses
    /// (Proposition 4.4, Submodularity) — for every weight/cov choice.
    #[test]
    fn score_is_submodular(
        (users, memberships, weights, covs) in instance_strategy(8, 10),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 3),
    ) {
        let groups = build_groups(users, &memberships);
        let w: Vec<f64> = weights.iter().map(|&x| f64::from(x)).collect();
        let inst = DiversificationInstance::new(&groups, w, covs);
        // Derive U ⊆ U' and u from the random indices.
        let all: Vec<UserId> = (0..users).map(UserId::from_index).collect();
        let u = all[picks[0].index(users)];
        let mut larger: Vec<UserId> = all.iter().copied().filter(|&x| x != u).collect();
        let cut_large = picks[1].index(larger.len() + 1);
        larger.truncate(cut_large);
        let cut_small = picks[2].index(larger.len() + 1);
        let smaller: Vec<UserId> = larger[..cut_small].to_vec();
        prop_assert!(check_submodular_witness(&inst, &smaller, &larger, u));
    }

    /// Greedy achieves at least (1 - 1/e) of the exhaustive optimum
    /// (Proposition 4.4 via Nemhauser–Wolsey–Fisher).
    #[test]
    fn greedy_approximation_bound(
        (users, memberships, weights, covs) in instance_strategy(8, 8),
        b in 1usize..5,
    ) {
        let groups = build_groups(users, &memberships);
        let w: Vec<f64> = weights.iter().map(|&x| f64::from(x)).collect();
        let inst = DiversificationInstance::new(&groups, w, covs);
        let greedy = greedy_select(&inst, b);
        let opt = exact_select(&inst, b, 1 << 30).unwrap();
        prop_assert!(
            greedy.score >= (1.0 - 1.0 / std::f64::consts::E) * opt.score - 1e-9,
            "greedy {} vs optimal {}", greedy.score, opt.score
        );
        prop_assert!(greedy.score <= opt.score + 1e-9);
    }

    /// Lazy greedy (CELF) matches eager greedy's score exactly.
    #[test]
    fn lazy_equals_eager_score(
        (users, memberships, weights, covs) in instance_strategy(10, 12),
        b in 1usize..6,
    ) {
        let groups = build_groups(users, &memberships);
        let w: Vec<f64> = weights.iter().map(|&x| f64::from(x)).collect();
        let inst = DiversificationInstance::new(&groups, w, covs);
        let eager = greedy_select(&inst, b);
        let lazy = run(&inst, b, engine::Strategy::Lazy);
        prop_assert_eq!(eager.score, lazy.score);
    }

    /// Seeded tie-breaking keeps every greedy guarantee: the first accepted
    /// gain is the global argmax, and the score stays within (1 - 1/e) of
    /// the optimum. (Full score equality is NOT guaranteed in general — tie
    /// paths may reach different greedy optima.)
    #[test]
    fn tie_breaking_preserves_guarantees(
        (users, memberships, weights, covs) in instance_strategy(8, 10),
        seed in any::<u64>(),
        b in 1usize..5,
    ) {
        let groups = build_groups(users, &memberships);
        let w: Vec<f64> = weights.iter().map(|&x| f64::from(x)).collect();
        let inst = DiversificationInstance::new(&groups, w, covs);
        let det = greedy_select(&inst, b);
        let rnd = run(
            &inst,
            b,
            engine::Strategy::Eager { tie_break: TieBreak::Seeded(seed) },
        );
        prop_assert_eq!(det.gains[0], rnd.gains[0], "first pick is the argmax");
        let opt = exact_select(&inst, b, 1 << 30).unwrap();
        prop_assert!(rnd.score >= (1.0 - 1.0 / std::f64::consts::E) * opt.score - 1e-9);
        prop_assert!(rnd.score <= opt.score + 1e-9);
    }

    /// Greedy reported score always equals a from-scratch recomputation, and
    /// gains are non-increasing.
    #[test]
    fn greedy_selfconsistency(
        (users, memberships, weights, covs) in instance_strategy(10, 12),
        b in 1usize..8,
    ) {
        let groups = build_groups(users, &memberships);
        let w: Vec<f64> = weights.iter().map(|&x| f64::from(x)).collect();
        let inst = DiversificationInstance::new(&groups, w, covs);
        let sel = greedy_select(&inst, b);
        prop_assert!((sel.score - inst.score_of(&sel.users)).abs() < 1e-9);
        for win in sel.gains.windows(2) {
            prop_assert!(win[0] >= win[1] - 1e-9);
        }
        // covered_counts matches direct membership counting.
        for (g, grp) in inst.groups().iter() {
            let direct = grp.members.iter().filter(|u| sel.users.contains(u)).count() as u32;
            prop_assert_eq!(sel.covered_counts[g.index()], direct);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every bucketing strategy yields a partition: each observed value
    /// falls in exactly one bucket.
    #[test]
    fn bucketing_partitions_values(
        mut values in prop::collection::vec(0.0f64..=1.0, 1..200),
        k in 1usize..6,
        strat_idx in 0usize..6,
    ) {
        let strategy = match strat_idx {
            0 => BucketStrategy::EqualWidth,
            1 => BucketStrategy::Quantile,
            2 => BucketStrategy::Jenks,
            3 => BucketStrategy::KMeans1D,
            4 => BucketStrategy::Kde,
            _ => BucketStrategy::Em,
        };
        let cfg = BucketingConfig { strategy, buckets_per_property: k, detect_boolean: false };
        let set = cfg.bucketize_values(&mut values);
        prop_assert!(!set.is_empty());
        prop_assert!(set.len() <= k.max(1));
        for &v in &values {
            let hits = set.buckets().iter().filter(|b| b.contains(v)).count();
            prop_assert_eq!(hits, 1, "value {} hit {} buckets", v, hits);
        }
    }

    /// CD-sim is within [0, 1] for frequency inputs, equals 1 on identical
    /// distributions, and never penalizes over-representation.
    #[test]
    fn cd_sim_properties(counts in prop::collection::vec(0usize..50, 1..10)) {
        use podium::metrics::cdsim::{cd_sim, frequencies};
        let f = frequencies(&counts);
        prop_assert!((cd_sim(&f, &f) - 1.0).abs() < 1e-12 || f.iter().all(|&x| x == 0.0));
        // Uniform subset vs arbitrary population stays in bounds.
        let uniform = vec![1.0 / f.len() as f64; f.len()];
        let s = cd_sim(&uniform, &f);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
    }

    /// EBS values order consistently with their (arbitrary-precision)
    /// numeric meaning, simulated here in f64 for small exponents.
    #[test]
    fn ebs_matches_numeric_order(
        a in prop::collection::vec(0u32..8, 1..6),
        b in prop::collection::vec(0u32..8, 1..6),
    ) {
        use podium::core::score::{EbsValue, ScoreValue};
        let base: f64 = 9.0; // B+1 with B=8; coefficients stay < 6 < base
        let numeric = |v: &[u32]| -> f64 { v.iter().map(|&e| base.powi(e as i32)).sum() };
        let mut ea = EbsValue::zero_value();
        for &e in &a { ea.add_assign(&EbsValue::power(e)); }
        let mut eb = EbsValue::zero_value();
        for &e in &b { eb.add_assign(&EbsValue::power(e)); }
        let (na, nb) = (numeric(&a), numeric(&b));
        let num_ord = na.partial_cmp(&nb).unwrap();
        let ebs_ord = ea.partial_cmp(&eb).unwrap();
        prop_assert_eq!(num_ord, ebs_ord, "{:?} vs {:?}", a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The customization refinement never selects a filtered-out user, and
    /// the lexicographic objective never sacrifices priority score for
    /// standard score.
    #[test]
    fn customization_invariants(
        (users, memberships, _w, _c) in instance_strategy(10, 10),
        must_have_idx in any::<prop::sample::Index>(),
        b in 1usize..5,
    ) {
        use podium::core::customize::{custom_select, refine_pool, Feedback};
        let groups = build_groups(users, &memberships);
        let gid = GroupId::from_index(must_have_idx.index(groups.len()));
        let feedback = Feedback {
            must_have: vec![gid],
            priority: vec![gid],
            ..Feedback::default()
        };
        let repo = {
            // A dummy repository of the right size (custom_select only uses
            // group structure here).
            let mut r = UserRepository::new();
            for i in 0..users { r.add_user(format!("u{i}")); }
            r
        };
        let eligible = refine_pool(&groups, &feedback).unwrap();
        let sel = custom_select(
            &repo, &groups, WeightScheme::LinearBySize, CovScheme::Single, b, &feedback,
        ).unwrap();
        for &u in sel.users() {
            prop_assert!(eligible[u.index()], "ineligible user selected");
            prop_assert!(groups.group(gid).unwrap().contains(u));
        }
        // Priority group non-empty => it gets covered when b >= 1.
        prop_assert!(sel.feedback_group_coverage == 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental group maintenance equals a from-scratch rebuild after any
    /// sequence of score updates.
    #[test]
    fn incremental_groups_match_rebuild(
        updates in prop::collection::vec(
            (0u32..6, 0u32..4, prop::option::of(0.0f64..=1.0)),
            1..60,
        ),
    ) {
        use podium::core::incremental::IncrementalGroups;

        // Fixed 6-user, 4-property repository with a couple of seed scores.
        let mut repo = UserRepository::new();
        let props: Vec<PropertyId> = (0..4)
            .map(|p| repo.intern_property(format!("p{p}")))
            .collect();
        for i in 0..6 {
            repo.add_user(format!("u{i}"));
        }
        repo.set_score(UserId(0), props[0], 0.9).unwrap();
        repo.set_score(UserId(1), props[1], 0.2).unwrap();

        let buckets = BucketingConfig {
            strategy: BucketStrategy::FixedEdges(vec![0.4, 0.65]),
            buckets_per_property: 3,
            detect_boolean: false,
        }
        .bucketize(&repo);
        let mut inc = IncrementalGroups::build(&repo, &buckets);

        // Mirror every update in a plain map, then rebuild a repository.
        let mut truth: std::collections::BTreeMap<(u32, u32), f64> =
            [((0, 0), 0.9), ((1, 1), 0.2)].into_iter().collect();
        for (u, p, score) in updates {
            inc.update_score(UserId(u), props[p as usize], score);
            match score {
                Some(s) => {
                    truth.insert((u, p), s);
                }
                None => {
                    truth.remove(&(u, p));
                }
            }
        }
        let mut mirror = UserRepository::new();
        for p in 0..4 {
            mirror.intern_property(format!("p{p}"));
        }
        for i in 0..6 {
            mirror.add_user(format!("u{i}"));
        }
        for (&(u, p), &s) in &truth {
            mirror.set_score(UserId(u), props[p as usize], s).unwrap();
        }

        let snapshot = inc.snapshot();
        let rebuilt = GroupSet::build(&mirror, &buckets);
        prop_assert_eq!(snapshot.len(), rebuilt.len());
        for ((_, a), (_, b)) in snapshot.iter().zip(rebuilt.iter()) {
            prop_assert_eq!(&a.members, &b.members);
            prop_assert_eq!(&a.kind, &b.kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pruning keeps exactly the qualifying groups, rebuilds reverse links
    /// consistently, and never changes surviving memberships.
    #[test]
    fn prune_preserves_surviving_groups(
        (users, memberships, _w, _c) in {
            // reuse the instance strategy's shape
            (2usize..10).prop_flat_map(|users| {
                let groups = prop::collection::vec(
                    prop::collection::btree_set(0..users as u32, 1..=users),
                    1..12,
                );
                groups.prop_map(move |gs| {
                    let m: Vec<Vec<u32>> = gs.into_iter().map(|s| s.into_iter().collect()).collect();
                    (users, m, Vec::<u32>::new(), Vec::<u32>::new())
                })
            })
        },
        min_size in 0usize..5,
        cap in prop::option::of(1usize..6),
    ) {
        let groups = build_groups(users, &memberships);
        let pruned = groups.prune(min_size, cap);
        // Every surviving group exists in the original with the same members.
        for (_, g) in pruned.iter() {
            prop_assert!(g.size() >= min_size);
            prop_assert!(groups.iter().any(|(_, og)| og.members == g.members));
        }
        if let Some(c) = cap {
            prop_assert!(pruned.len() <= c);
        }
        // Reverse links are consistent.
        for (gid, g) in pruned.iter() {
            for &u in &g.members {
                prop_assert!(pruned.groups_of(u).contains(&gid));
            }
        }
        // No qualifying group was dropped when no cap applies.
        if cap.is_none() {
            let expected = groups.iter().filter(|(_, g)| g.size() >= min_size).count();
            prop_assert_eq!(pruned.len(), expected);
        }
    }

    /// EBS-weighted greedy always covers the largest coverable group first:
    /// the defining Enforced-By-Size property.
    #[test]
    fn ebs_greedy_covers_largest_group_first(
        (users, memberships, _w, _c) in instance_strategy(8, 8),
    ) {
        use podium::core::weights::ebs_weights;
        let groups = build_groups(users, &memberships);
        let weights = ebs_weights(&groups);
        let covs = vec![1u32; groups.len()];
        let inst = DiversificationInstance::new(&groups, weights, covs);
        let sel = podium::core::greedy::greedy_select(&inst, 1);
        prop_assert_eq!(sel.users.len(), 1);
        let max_size = groups.iter().map(|(_, g)| g.size()).max().unwrap();
        let covered_max = groups
            .iter()
            .filter(|(_, g)| g.size() == max_size)
            .any(|(gid, _)| sel.covered_counts[gid.index()] > 0);
        prop_assert!(covered_max, "a maximum-size group must be covered by the first pick");
    }
}
