//! End-to-end integration tests spanning all crates: generate → derive →
//! bucket → group → select → explain → customize → evaluate.

use podium::baselines::prelude::*;
use podium::core::customize::{custom_select, Feedback};
use podium::core::explain::SelectionReport;
use podium::core::greedy::greedy_select;
use podium::data::derive::DeriveOptions;
use podium::data::synth::SynthConfig;
use podium::metrics::intrinsic::IntrinsicMetrics;
use podium::metrics::opinion::evaluate_destination;
use podium::prelude::*;

fn small_dataset(seed: u64) -> podium::data::synth::SynthDataset {
    SynthConfig {
        name: "integration".into(),
        seed,
        users: 150,
        destinations: 120,
        cities: 6,
        age_groups: 3,
        archetypes: 4,
        regions: 4,
        leaves_per_region: 5,
        topics: 12,
        mean_reviews_per_user: 10.0,
        review_dispersion: 0.6,
        rating_noise: 0.7,
        preference_gain: 0.8,
        zipf_exponent: 1.0,
        include_demographics: true,
        useful_votes: true,
        derive: DeriveOptions::default(),
    }
    .generate()
}

#[test]
fn full_pipeline_runs_and_is_consistent() {
    let dataset = small_dataset(21);
    let repo = &dataset.repo;
    assert_eq!(repo.user_count(), 150);

    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    let groups = GroupSet::build(repo, &buckets);
    assert!(groups.len() > 50, "rich group structure: {}", groups.len());

    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        8,
    );
    let sel = greedy_select(&inst, 8);
    assert_eq!(sel.users.len(), 8);
    assert_eq!(
        sel.score,
        inst.score_of(&sel.users),
        "reported = recomputed"
    );

    // Greedy gains are non-increasing (submodularity in action).
    for w in sel.gains.windows(2) {
        assert!(
            w[0] >= w[1] - 1e-9,
            "gains must be non-increasing: {:?}",
            sel.gains
        );
    }

    // Explanations cover every selected user and every group.
    let report = SelectionReport::build(&inst, repo, &sel, 50);
    assert_eq!(report.users.len(), 8);
    assert_eq!(report.groups.len(), groups.len());
    assert!(report.top_weight_coverage > 0.0);

    // Metrics bundle is sane.
    let m = IntrinsicMetrics::evaluate(&inst, &sel.users, 50);
    assert!(m.total_score > 0.0);
    assert!((0.0..=1.0).contains(&m.top_k_coverage));
    assert!((0.0..=1.0).contains(&m.intersected_coverage));
    assert!((0.0..=1.0).contains(&m.distribution_similarity));
}

#[test]
fn greedy_beats_every_baseline_on_its_own_objective() {
    let dataset = small_dataset(22);
    let repo = &dataset.repo;
    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    let groups = GroupSet::build(repo, &buckets);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        8,
    );
    let podium_score = greedy_select(&inst, 8).score;

    let baselines: Vec<Box<dyn Selector>> = vec![
        Box::new(RandomSelector::new(22)),
        Box::new(KMeansSelector::new(22)),
        Box::new(DistanceSelector::new(22)),
    ];
    for b in baselines {
        let score = inst.score_of(&b.select(repo, 8));
        assert!(
            podium_score >= score,
            "{} beat Podium on Podium's objective: {} > {}",
            b.name(),
            score,
            podium_score
        );
    }
}

#[test]
fn holdout_then_opinion_procurement() {
    let dataset = small_dataset(23);
    let split = holdout_split(&dataset, 3, 4);
    assert!(!split.eval_destinations.is_empty());
    for &d in &split.eval_destinations {
        let mut reviewers: Vec<_> = dataset.corpus.reviews_of(d).map(|r| r.user).collect();
        reviewers.sort();
        reviewers.dedup();
        assert!(reviewers.len() >= 4);
        let pool = split.selection_repo.restrict(&reviewers);
        let buckets = BucketingConfig::adaptive_default().bucketize(&pool);
        let groups = GroupSet::build(&pool, &buckets);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            4,
        );
        let local = greedy_select(&inst, 4).users;
        let global: Vec<_> = local.iter().map(|u| reviewers[u.index()]).collect();
        let metrics = evaluate_destination(&dataset.corpus, d, &global);
        // Every selected user has a ground-truth review, so opinions exist.
        assert!(
            metrics.rating_distribution_similarity > 0.0,
            "procured opinions must be non-empty"
        );
    }
}

#[test]
fn customization_pipeline_respects_filters_end_to_end() {
    let dataset = small_dataset(24);
    let repo = &dataset.repo;
    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    let groups = GroupSet::build(repo, &buckets);

    // Must-have: the largest group. Must-not: the second largest (disjoint
    // part is what remains selectable).
    let mut by_size: Vec<_> = groups.ids().collect();
    by_size.sort_by_key(|&g| std::cmp::Reverse(groups.group(g).unwrap().size()));
    let must_have = by_size[0];
    let must_not = *by_size
        .iter()
        .find(|&&g| {
            // pick a group not containing all must_have members
            g != must_have
        })
        .unwrap();
    let feedback = Feedback {
        must_have: vec![must_have],
        must_not: vec![must_not],
        ..Feedback::default()
    };
    let sel = custom_select(
        repo,
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        6,
        &feedback,
    )
    .unwrap();
    let have = groups.group(must_have).unwrap();
    let not = groups.group(must_not).unwrap();
    for &u in sel.users() {
        assert!(have.contains(u), "must-have violated for {u}");
        assert!(!not.contains(u), "must-not violated for {u}");
    }
}

#[test]
fn json_roundtrip_preserves_selection_outcome() {
    let dataset = small_dataset(25);
    let json = podium::data::json::profiles_to_json(&dataset.repo).unwrap();
    let mut back = podium::data::json::profiles_from_json(&json).unwrap();
    back.rebuild_index();

    // Same selection on original and round-tripped repositories (property
    // ids may be permuted, so compare selected user *names*).
    let select_names = |repo: &podium::core::profile::UserRepository| -> Vec<String> {
        let buckets = BucketingConfig::adaptive_default().bucketize(repo);
        let groups = GroupSet::build(repo, &buckets);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            5,
        );
        greedy_select(&inst, 5)
            .users
            .iter()
            .map(|&u| repo.user_name(u).unwrap().to_owned())
            .collect()
    };
    assert_eq!(select_names(&dataset.repo), select_names(&back));
}

#[test]
fn inference_rules_integrate_with_selection() {
    let mut repo = table2();
    let engine = InferenceEngine::new()
        .with_rule(Rule::Implies {
            premise: "livesIn Tokyo".into(),
            conclusion: "livesIn Japan".into(),
            threshold: 1.0,
        })
        .with_rule(Rule::Functional {
            prefix: "livesIn ".into(),
        });
    engine.apply(&mut repo).unwrap();

    // Inferred properties materialize as groups.
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let groups = GroupSet::build(&repo, &buckets);
    let japan = repo.property_id("livesIn Japan").unwrap();
    let jg = groups.groups_of_property(japan);
    assert_eq!(jg.len(), 1);
    assert_eq!(groups.group(jg[0]).unwrap().size(), 2, "Alice and David");

    // Inferred falsehoods (score 0) must NOT create spurious memberships.
    let tokyo = repo.property_id("livesIn Tokyo").unwrap();
    let tg = groups.groups_of_property(tokyo);
    assert_eq!(
        groups.group(tg[0]).unwrap().size(),
        2,
        "still only residents"
    );
}
