//! Opinion diversity experiment — Figures 3b (TripAdvisor) and 3d (Yelp).
//!
//! Simulates opinion procurement (§8.2): the busiest destinations are held
//! out; profiles are rebuilt *without* their reviews; for each held-out
//! destination, each algorithm selects `B` users from the destination's
//! reviewer population (so every procured opinion has ground truth), and
//! the selected users' recorded reviews are scored with the opinion
//! metrics. Results are averaged over destinations.
//!
//! Destinations are evaluated in parallel (`std::thread::scope`); all
//! selectors are deterministic so the parallel schedule cannot change the
//! outcome.
//!
//! One synthetic draw decides neither figure: which algorithm leads moves
//! from seed to seed. [`run_panel`] therefore runs both figures over the
//! fixed seed panel [`PANEL_SEEDS`] and pools Podium's per-seed
//! differences from each baseline with a paired bootstrap over seeds
//! (`experiments opinion`, written to `BENCH_22.json`).

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Mutex;

use podium_baselines::selector::Selector;
use podium_core::ids::UserId;
use podium_data::reviews::DestinationId;
use podium_data::split::holdout_split;
use podium_data::synth::SynthDataset;
use podium_metrics::opinion::{evaluate_destination, OpinionMetrics};
use podium_metrics::report::ComparisonTable;
use podium_metrics::significance::paired_bootstrap;
use serde::Serialize;

use crate::datasets;
use crate::selectors::standard_lineup;

/// Configuration of the opinion-procurement simulation.
#[derive(Debug, Clone, Copy)]
pub struct OpinionConfig {
    /// Number of destinations to hold out (paper: 50 for TripAdvisor, 130
    /// for Yelp).
    pub destinations: usize,
    /// Minimum reviews for a destination to qualify.
    pub min_reviews: usize,
    /// Selection budget per destination.
    pub budget: usize,
    /// Whether the dataset carries usefulness votes (adds the metric row).
    pub with_usefulness: bool,
    /// Seed for the seeded selectors.
    pub seed: u64,
}

/// One of the two opinion figures: its dataset preset and holdout setup,
/// defined once for its `experiments` arm and for the seed panel.
#[derive(Debug, Clone, Copy)]
pub struct OpinionFigure {
    /// The experiment id.
    pub id: &'static str,
    /// The dataset at a relative scale multiplier and seed.
    pub dataset: fn(f64, u64) -> SynthDataset,
    /// The holdout setup; each run sets `budget` and `seed`
    /// (`OpinionConfig { budget, seed, ..fig.config }`).
    pub config: OpinionConfig,
}

/// Figure 3b: TripAdvisor-like, the 50 busiest destinations with at least
/// 8 reviews.
pub const FIG3B: OpinionFigure = OpinionFigure {
    id: "fig3b",
    dataset: datasets::ta_dataset,
    config: OpinionConfig {
        destinations: 50,
        min_reviews: 8,
        budget: 0,
        with_usefulness: false,
        seed: 0,
    },
};

/// Figure 3d: Yelp-like, the 130 busiest destinations with at least 10
/// reviews, usefulness votes on.
pub const FIG3D: OpinionFigure = OpinionFigure {
    id: "fig3d",
    dataset: datasets::yelp_dataset,
    config: OpinionConfig {
        destinations: 130,
        min_reviews: 10,
        budget: 0,
        with_usefulness: true,
        seed: 0,
    },
};

/// Runs the opinion-diversity comparison on a dataset.
pub fn run_opinion(dataset: &SynthDataset, config: OpinionConfig) -> ComparisonTable {
    run_opinion_detailed(dataset, config).0
}

/// Like [`run_opinion`], additionally returning the raw per-destination
/// metric bundles per algorithm (same order as the table's algorithms) —
/// the paired samples needed for bootstrap significance testing.
pub fn run_opinion_detailed(
    dataset: &SynthDataset,
    config: OpinionConfig,
) -> (ComparisonTable, Vec<(String, Vec<OpinionMetrics>)>) {
    let split = holdout_split(dataset, config.destinations, config.min_reviews);
    let lineup = standard_lineup(config.seed);

    // Reviewer population per held-out destination (sorted, distinct).
    let reviewers_of: Vec<(DestinationId, Vec<UserId>)> = split
        .eval_destinations
        .iter()
        .map(|&d| {
            let mut users: Vec<UserId> = dataset.corpus.reviews_of(d).map(|r| r.user).collect();
            users.sort();
            users.dedup();
            (d, users)
        })
        .collect();

    let mut names = Vec::new();
    let mut per_algo: Vec<OpinionMetrics> = Vec::new();
    let mut detailed: Vec<(String, Vec<OpinionMetrics>)> = Vec::new();
    for selector in &lineup {
        names.push(selector.name().to_owned());
        let per_destination = evaluate_selector(
            dataset,
            &split.selection_repo,
            &reviewers_of,
            selector.as_ref(),
            config.budget,
        );
        per_algo.push(OpinionMetrics::mean(&per_destination));
        detailed.push((selector.name().to_owned(), per_destination));
    }

    let mut table = ComparisonTable::new(names);
    table.add_metric(
        "topic+sentiment coverage",
        per_algo
            .iter()
            .map(|m| m.topic_sentiment_coverage)
            .collect(),
    );
    if config.with_usefulness {
        table.add_metric(
            "usefulness",
            per_algo.iter().map(|m| m.usefulness).collect(),
        );
    }
    table.add_metric(
        "rating dist. similarity",
        per_algo
            .iter()
            .map(|m| m.rating_distribution_similarity)
            .collect(),
    );
    table.add_metric(
        "rating variance",
        per_algo.iter().map(|m| m.rating_variance).collect(),
    );
    (table, detailed)
}

/// Evaluates one selector over all held-out destinations, in parallel.
/// Results are returned in destination order (stable regardless of worker
/// scheduling), so per-destination bundles pair up across algorithms.
fn evaluate_selector(
    dataset: &SynthDataset,
    selection_repo: &podium_core::profile::UserRepository,
    reviewers_of: &[(DestinationId, Vec<UserId>)],
    selector: &dyn Selector,
    budget: usize,
) -> Vec<OpinionMetrics> {
    let results: Mutex<Vec<Option<OpinionMetrics>>> = Mutex::new(vec![None; reviewers_of.len()]);
    let n_workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(reviewers_of.len().max(1));
    let chunk = reviewers_of.len().div_ceil(n_workers).max(1);

    std::thread::scope(|scope| {
        for (chunk_idx, part) in reviewers_of.chunks(chunk).enumerate() {
            let results = &results;
            scope.spawn(move || {
                let base = chunk_idx * chunk;
                let mut local = Vec::with_capacity(part.len());
                for (d, reviewers) in part {
                    // Select from the reviewer population only, using
                    // held-out-free profiles; map local ids back to global.
                    let restricted = selection_repo.restrict(reviewers);
                    let local_sel = selector.select(&restricted, budget);
                    let global: Vec<UserId> =
                        local_sel.iter().map(|u| reviewers[u.index()]).collect();
                    local.push(evaluate_destination(&dataset.corpus, *d, &global));
                }
                let mut guard = results.lock().expect("results lock poisoned");
                for (offset, m) in local.into_iter().enumerate() {
                    guard[base + offset] = Some(m);
                }
            });
        }
    });

    results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|m| m.expect("every destination evaluated"))
        .collect()
}

/// The dataset seeds of the opinion panel. Each seed draws a fresh
/// dataset and seeds the selectors, exactly as `experiments fig3b --seed
/// S` does.
pub const PANEL_SEEDS: RangeInclusive<u64> = 2020..=2051;
/// Central mass of the pooled intervals.
const CONFIDENCE: f64 = 0.95;
/// Bootstrap resamples per pooled difference.
const RESAMPLES: usize = 2000;
/// Seed of the bootstrap's own stream.
const BOOTSTRAP_SEED: u64 = 2020;

/// Metric name → value.
type Metrics = BTreeMap<String, f64>;

/// The seed panel over both figures: the `BENCH_22.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct Panel {
    bench: &'static str,
    schema: &'static str,
    scale: f64,
    budget: usize,
    seeds: Vec<u64>,
    confidence: f64,
    resamples: usize,
    figures: Vec<PanelFigure>,
}

/// One figure over every panel seed.
#[derive(Debug, Clone, Serialize)]
struct PanelFigure {
    figure: &'static str,
    destinations: usize,
    min_reviews: usize,
    /// Podium first.
    algorithms: Vec<String>,
    metrics: Vec<String>,
    per_seed: Vec<PanelSeed>,
    pooled: Vec<PooledRow>,
    /// Per metric, how many seeds each algorithm leads; tied leaders each
    /// count.
    seeds_led: BTreeMap<String, BTreeMap<String, usize>>,
}

/// One seed's draw of one figure: every algorithm's destination mean of
/// every metric, and Podium's mean minus each baseline's.
#[derive(Debug, Clone, Serialize)]
struct PanelSeed {
    seed: u64,
    destinations: usize,
    means: BTreeMap<String, Metrics>,
    podium_minus: BTreeMap<String, Metrics>,
}

/// Podium's difference from one baseline on one metric, pooled over seeds
/// by a paired bootstrap. Seeds are the independent draws; each seed's
/// mean already averages its destinations.
#[derive(Debug, Clone, Serialize)]
struct PooledRow {
    metric: String,
    baseline: String,
    mean: f64,
    lo: f64,
    hi: f64,
    p_one_sided: f64,
    significant: bool,
}

/// Runs both opinion figures over [`PANEL_SEEDS`].
pub fn run_panel(scale: f64, budget: usize) -> Panel {
    let figures = [FIG3B, FIG3D]
        .iter()
        .map(|fig| {
            let tables: Vec<(u64, usize, ComparisonTable)> = PANEL_SEEDS
                .map(|seed| {
                    let dataset = (fig.dataset)(scale, seed);
                    let config = OpinionConfig {
                        budget,
                        seed,
                        ..fig.config
                    };
                    let (table, detailed) = run_opinion_detailed(&dataset, config);
                    (seed, detailed.first().map_or(0, |d| d.1.len()), table)
                })
                .collect();
            panel_figure(fig, &tables)
        })
        .collect();
    Panel {
        bench: "opinion",
        schema: "podium.bench-opinion/1",
        scale,
        budget,
        seeds: PANEL_SEEDS.collect(),
        confidence: CONFIDENCE,
        resamples: RESAMPLES,
        figures,
    }
}

/// Collects one figure's per-seed tables into its panel rows.
fn panel_figure(fig: &OpinionFigure, tables: &[(u64, usize, ComparisonTable)]) -> PanelFigure {
    let first = tables.first().map(|t| &t.2);
    let algorithms = first.map_or_else(Vec::new, |t| t.algorithms().to_vec());
    let metrics = first.map_or_else(Vec::new, |t| t.metrics().to_vec());
    let row = |t: &ComparisonTable, a: usize, minus: Option<usize>| -> Metrics {
        let value = |m: usize| t.raw(m, a) - minus.map_or(0.0, |b| t.raw(m, b));
        metrics
            .iter()
            .enumerate()
            .map(|(m, name)| (name.clone(), value(m)))
            .collect()
    };
    let per_seed = tables
        .iter()
        .map(|(seed, destinations, t)| PanelSeed {
            seed: *seed,
            destinations: *destinations,
            means: algorithms
                .iter()
                .enumerate()
                .map(|(a, name)| (name.clone(), row(t, a, None)))
                .collect(),
            podium_minus: algorithms
                .iter()
                .enumerate()
                .skip(1)
                .map(|(b, name)| (name.clone(), row(t, 0, Some(b))))
                .collect(),
        })
        .collect();
    let mut pooled = Vec::new();
    let mut seeds_led = BTreeMap::new();
    for (m, metric) in metrics.iter().enumerate() {
        let column = |a: usize| -> Vec<f64> { tables.iter().map(|t| t.2.raw(m, a)).collect() };
        let podium = column(0);
        for (b, baseline) in algorithms.iter().enumerate().skip(1) {
            let r = paired_bootstrap(&podium, &column(b), CONFIDENCE, RESAMPLES, BOOTSTRAP_SEED);
            pooled.push(PooledRow {
                metric: metric.clone(),
                baseline: baseline.clone(),
                mean: r.mean_diff,
                lo: r.ci_low,
                hi: r.ci_high,
                p_one_sided: r.p_one_sided,
                significant: r.significant(),
            });
        }
        let leads = |a: usize| {
            let top =
                |t: &ComparisonTable| (0..algorithms.len()).all(|o| t.raw(m, a) >= t.raw(m, o));
            tables.iter().filter(|t| top(&t.2)).count()
        };
        let led = algorithms
            .iter()
            .enumerate()
            .map(|(a, name)| (name.clone(), leads(a)))
            .collect();
        seeds_led.insert(metric.clone(), led);
    }
    PanelFigure {
        figure: fig.id,
        destinations: fig.config.destinations,
        min_reviews: fig.config.min_reviews,
        algorithms,
        metrics,
        per_seed,
        pooled,
        seeds_led,
    }
}

/// Renders the panel's pooled differences and lead counts.
pub fn render_panel(panel: &Panel) -> String {
    let mut out = String::new();
    for fig in &panel.figures {
        let held = fig.per_seed.iter().map(|s| s.destinations);
        out.push_str(&format!(
            "{}: {} seeds ({}..={}), {}-{} held-out destinations per seed\n",
            fig.figure,
            fig.per_seed.len(),
            PANEL_SEEDS.start(),
            PANEL_SEEDS.end(),
            held.clone().min().unwrap_or(0),
            held.max().unwrap_or(0),
        ));
        for metric in &fig.metrics {
            let led = fig.seeds_led.get(metric);
            let led: Vec<String> = fig
                .algorithms
                .iter()
                .map(|a| format!("{a} {}", led.and_then(|l| l.get(a)).unwrap_or(&0)))
                .collect();
            out.push_str(&format!("  {metric}: seeds led {}\n", led.join(", ")));
            for r in fig.pooled.iter().filter(|r| &r.metric == metric) {
                out.push_str(&format!(
                    "    Podium - {:<11} {:+.4} [{:+.4}, {:+.4}]{}\n",
                    r.baseline,
                    r.mean,
                    r.lo,
                    r.hi,
                    if r.significant { "  (significant)" } else { "" }
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_on_small_yelp_and_reports_usefulness() {
        let dataset = datasets::yelp_dataset(0.04, 3);
        let table = run_opinion(
            &dataset,
            OpinionConfig {
                destinations: 10,
                min_reviews: 6,
                budget: 8,
                with_usefulness: true,
                seed: 3,
            },
        );
        assert_eq!(table.metrics().len(), 4);
        assert!(table.metrics().iter().any(|m| m == "usefulness"));
        for m in 0..table.metrics().len() {
            for a in 0..table.algorithms().len() {
                assert!(table.raw(m, a).is_finite());
            }
        }
    }

    #[test]
    fn detailed_results_align_across_algorithms() {
        let dataset = datasets::yelp_dataset(0.03, 6);
        let (table, detailed) = run_opinion_detailed(
            &dataset,
            OpinionConfig {
                destinations: 6,
                min_reviews: 5,
                budget: 6,
                with_usefulness: true,
                seed: 6,
            },
        );
        assert_eq!(detailed.len(), table.algorithms().len());
        let n = detailed[0].1.len();
        assert!(n > 0);
        for (name, per_dest) in &detailed {
            assert_eq!(per_dest.len(), n, "{name} misaligned");
        }
        // The table's mean equals the mean of the detailed bundles.
        let mean = podium_metrics::opinion::OpinionMetrics::mean(&detailed[0].1);
        assert!((table.raw(0, 0) - mean.topic_sentiment_coverage).abs() < 1e-12);
    }

    #[test]
    fn panel_rows_are_the_figures_runs_and_pool_them() {
        let panel = run_panel(0.04, 4);
        assert!(panel.seeds.iter().copied().eq(PANEL_SEEDS));
        for (fig, fig_panel) in [FIG3B, FIG3D].iter().zip(&panel.figures) {
            // Every seed's row is what the figure's own run of that seed gives.
            let seed = *PANEL_SEEDS.end();
            let config = OpinionConfig {
                budget: 4,
                seed,
                ..fig.config
            };
            let table = run_opinion(&(fig.dataset)(0.04, seed), config);
            let row = fig_panel.per_seed.last().expect("one row per seed");
            assert_eq!(row.seed, seed);
            for (m, metric) in table.metrics().iter().enumerate() {
                for (a, algo) in table.algorithms().iter().enumerate() {
                    assert_eq!(row.means[algo][metric], table.raw(m, a), "{metric} {algo}");
                }
            }
            assert_eq!(fig_panel.pooled.len(), 3 * table.metrics().len());
            for r in &fig_panel.pooled {
                assert!(r.lo <= r.mean && r.mean <= r.hi, "{r:?}");
            }
        }
    }

    #[test]
    fn tripadvisor_variant_omits_usefulness() {
        let dataset = datasets::ta_dataset(0.08, 4);
        let table = run_opinion(
            &dataset,
            OpinionConfig {
                destinations: 8,
                min_reviews: 5,
                budget: 8,
                with_usefulness: false,
                seed: 4,
            },
        );
        assert_eq!(table.metrics().len(), 3);
        // Some opinions must actually be procured.
        let any_positive = (0..table.metrics().len())
            .any(|m| (0..table.algorithms().len()).any(|a| table.raw(m, a) > 0.0));
        assert!(any_positive, "{}", table.render());
    }
}
