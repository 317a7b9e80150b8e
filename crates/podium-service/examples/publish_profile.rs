//! One-off phase breakdown of the publish path (not checked into CI).
//! Run: cargo run --release -p podium-service --example publish_profile

use std::time::Instant;

use podium_core::bucket::BucketingConfig;
use podium_core::incremental::IncrementalGroups;
use podium_core::weights::WeightScheme;
use podium_data::synth::synthetic_repository;
use podium_service::snapshot::{ProfileUpdate, PublishMode, RepositoryWriter};

fn main() {
    let n = 10_000;
    let repo = synthetic_repository(n, 32, 6, 0x5EED_0001);
    let buckets = BucketingConfig::paper_default().bucketize(&repo);

    // Component timings.
    let inc = IncrementalGroups::build(&repo, &buckets);
    let mut groups = inc.snapshot();
    let mut csr = inc.snapshot_csr();
    let mut repo2 = repo.clone();
    let rounds = 200u32;
    let t = Instant::now();
    for _ in 0..rounds {
        inc.snapshot_into(&mut groups);
    }
    println!(
        "snapshot_into(groups): {:.1} us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds)
    );
    let t = Instant::now();
    for _ in 0..rounds {
        inc.snapshot_csr_into(&mut csr);
    }
    println!(
        "snapshot_csr_into:     {:.1} us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds)
    );
    let t = Instant::now();
    for _ in 0..rounds {
        repo.clone_into_repo(&mut repo2);
    }
    println!(
        "clone_into_repo:       {:.1} us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds)
    );
    let t = Instant::now();
    let mut sink = 0.0f64;
    for _ in 0..rounds {
        sink += WeightScheme::LinearBySize
            .weights(&groups)
            .iter()
            .sum::<f64>();
    }
    println!(
        "lbs weights:           {:.1} us (sink {sink:.0})",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds)
    );
    let t = Instant::now();
    let mut clones = Vec::new();
    for _ in 0..rounds {
        clones.push(repo.clone());
        if clones.len() > 2 {
            clones.remove(0);
        }
    }
    println!(
        "repo.clone():          {:.1} us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(rounds)
    );

    for mode in [PublishMode::FullRebuild, PublishMode::Incremental] {
        let (_store, mut writer) = RepositoryWriter::with_mode(repo.clone(), &buckets, mode);
        // Warm up recycle pool.
        for i in 0..4 {
            writer
                .apply(&ProfileUpdate {
                    user: format!("user-{}", i * 7 + 1),
                    property: "topic-3".to_owned(),
                    score: Some(0.41),
                })
                .unwrap();
            writer.publish();
        }
        let rounds = 200;
        let started = Instant::now();
        for i in 0..rounds {
            writer
                .apply(&ProfileUpdate {
                    user: format!("user-{}", (i * 131) % n),
                    property: format!("topic-{}", i % 32),
                    score: Some(f64::from(u32::try_from(i % 100).unwrap()) / 100.0),
                })
                .unwrap();
            writer.publish();
        }
        let total = started.elapsed();
        let b = writer.publish_stats().last;
        println!(
            "{mode:?}: {:.1} us/publish (wall), last build: patch {} us, rebuild {} us, publish {} us, patched {}",
            total.as_secs_f64() * 1e6 / f64::from(u32::try_from(rounds).unwrap()),
            b.csr_patch_micros,
            b.full_rebuild_micros,
            b.publish_micros,
            b.patched
        );
    }
}
