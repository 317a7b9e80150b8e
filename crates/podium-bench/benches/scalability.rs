//! Criterion bench behind Figures 5 and 6: end-to-end selection time of
//! Podium vs. the Clustering and Distance baselines as the population and
//! the profile size grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use podium_baselines::prelude::*;
use podium_bench::selectors::PodiumSelector;
use podium_core::engine::Strategy;
use podium_core::greedy::TieBreak;
use podium_data::synth::tripadvisor;

fn bench_users_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_users_sweep");
    group.sample_size(10);
    for &users in &[250usize, 500, 1000] {
        let dataset = tripadvisor(users as f64 / 4475.0, 5).generate();
        let repo = &dataset.repo;
        let clustering = KMeansSelector::new(5);
        let distance = DistanceSelector::new(5);
        let eager = Strategy::Eager {
            tie_break: TieBreak::FirstUser,
        };
        for (label, strategy) in [("eager", eager), ("lazy_heap", Strategy::Lazy)] {
            let podium = PodiumSelector::paper_default().with_strategy(strategy);
            let id = BenchmarkId::new(format!("podium_{label}"), users);
            group.bench_with_input(id, repo, |b, r| {
                b.iter(|| podium.select(std::hint::black_box(r), 8));
            });
        }
        group.bench_with_input(BenchmarkId::new("clustering", users), repo, |b, r| {
            b.iter(|| clustering.select(std::hint::black_box(r), 8));
        });
        group.bench_with_input(BenchmarkId::new("distance", users), repo, |b, r| {
            b.iter(|| distance.select(std::hint::black_box(r), 8));
        });
    }
    group.finish();
}

fn bench_profile_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_profile_sweep");
    group.sample_size(10);
    for &leaves in &[3usize, 6, 12] {
        let mut cfg = tripadvisor(0.07, 6);
        cfg.leaves_per_region = leaves;
        let dataset = cfg.generate();
        let repo = &dataset.repo;
        let podium = PodiumSelector::paper_default();
        let label = format!("{:.0}props", repo.mean_profile_size());
        group.bench_with_input(BenchmarkId::new("podium", label), repo, |b, r| {
            b.iter(|| podium.select(std::hint::black_box(r), 8));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_users_sweep, bench_profile_sweep);
criterion_main!(benches);
