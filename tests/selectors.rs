//! Property-based postcondition tests for every selection algorithm: any
//! selector, on any repository, must return within-budget, duplicate-free,
//! in-range user sets — and must be deterministic for a fixed seed.

use podium::baselines::prelude::*;
use podium::baselines::selector::check_selection;
use podium::prelude::*;
use proptest::prelude::*;

/// Strategy: a random sparse repository.
fn repo_strategy() -> impl Strategy<Value = UserRepository> {
    // users: 1..20, properties: 1..12, each user gets a random subset.
    (1usize..20, 1usize..12).prop_flat_map(|(users, props)| {
        prop::collection::vec(
            prop::collection::vec((0..props as u32, 0.0f64..=1.0), 0..props),
            users,
        )
        .prop_map(move |profiles| {
            let mut repo = UserRepository::new();
            let pids: Vec<PropertyId> = (0..props)
                .map(|p| repo.intern_property(format!("p{p}")))
                .collect();
            for (i, entries) in profiles.iter().enumerate() {
                let u = repo.add_user(format!("u{i}"));
                for &(p, s) in entries {
                    repo.set_score(u, pids[p as usize], s).unwrap();
                }
            }
            repo
        })
    })
}

fn all_selectors(seed: u64) -> Vec<Box<dyn Selector>> {
    vec![
        Box::new(RandomSelector::new(seed)),
        Box::new(KMeansSelector::new(seed)),
        Box::new(DistanceSelector::new(seed)),
        Box::new(OptimalSelector::new().with_limit(1 << 22)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selectors_satisfy_postconditions(repo in repo_strategy(), b in 0usize..10, seed in 0u64..100) {
        for selector in all_selectors(seed) {
            let sel = selector.select(&repo, b);
            prop_assert!(
                check_selection(&repo, b, &sel),
                "{} violated postconditions: {:?} (b={}, users={})",
                selector.name(), sel, b, repo.user_count()
            );
        }
    }

    #[test]
    fn selectors_are_deterministic(repo in repo_strategy(), b in 1usize..8, seed in 0u64..100) {
        for (s1, s2) in all_selectors(seed).iter().zip(all_selectors(seed).iter()) {
            prop_assert_eq!(
                s1.select(&repo, b),
                s2.select(&repo, b),
                "{} not deterministic", s1.name()
            );
        }
    }

    #[test]
    fn podium_pipeline_postconditions(repo in repo_strategy(), b in 1usize..8) {
        let fitted = Podium::new().fit(&repo);
        let sel = fitted.select(b);
        prop_assert!(check_selection(&repo, b, &sel.users));
        // Score must equal independent recomputation.
        let inst = fitted.instance(b);
        prop_assert!((sel.score - inst.score_of(&sel.users)).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// JSON roundtrip over arbitrary repositories preserves every score.
    #[test]
    fn json_roundtrip_arbitrary(repo in repo_strategy()) {
        let json = podium::data::json::profiles_to_json(&repo).unwrap();
        let back = podium::data::json::profiles_from_json(&json).unwrap();
        prop_assert_eq!(back.user_count(), repo.user_count());
        for (u, profile) in repo.iter() {
            let name = repo.user_name(u).unwrap();
            let bu = back.user_by_name(name).unwrap();
            prop_assert_eq!(back.profile(bu).unwrap().len(), profile.len());
            for (p, s) in profile.iter() {
                let label = repo.property_label(p).unwrap();
                let bp = back.property_id(label).unwrap();
                prop_assert_eq!(back.score(bu, bp), Some(s));
            }
        }
    }

    /// Merging a repository into an empty one is a faithful copy, and
    /// re-merging changes nothing (idempotence).
    #[test]
    fn merge_roundtrip_arbitrary(repo in repo_strategy()) {
        let mut dst = UserRepository::new();
        dst.merge(&repo);
        dst.merge(&repo);
        prop_assert_eq!(dst.user_count(), repo.user_count());
        for (u, profile) in repo.iter() {
            let name = repo.user_name(u).unwrap();
            let du = dst.user_by_name(name).unwrap();
            for (p, s) in profile.iter() {
                let label = repo.property_label(p).unwrap();
                let dp = dst.property_id(label).unwrap();
                prop_assert_eq!(dst.score(du, dp), Some(s));
            }
        }
    }
}
