//! Approximation-quality and Optimal-blow-up experiments (§8.4–8.5 text).
//!
//! * **approx** — the paper reports that "for selecting 5 out of 40 users
//!   Podium provided a .998 approximation ratio of the optimal", far above
//!   the `(1 − 1/e) ≈ 0.632` guarantee. We reproduce the setup: restrict
//!   the population to a random 40-user sample, run greedy vs. exhaustive
//!   optimal, and report the ratio over several samples.
//! * **optscale** — the Optimal baseline's exponential runtime ("443
//!   seconds for `|𝒰| = 40`, terminated after an hour for `|𝒰| = 100`" in
//!   the authors' Python prototype): we time exhaustive search over growing
//!   `|𝒰|` and contrast it with greedy.

use std::time::Instant;

use podium_core::bucket::BucketingConfig;
use podium_core::exact::{binomial, exact_select};
use podium_core::greedy::greedy_select;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::rng::Rng;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::SynthDataset;

/// Result of one approximation-ratio measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxResult {
    /// Sample size `|𝒰|`.
    pub users: usize,
    /// Budget `B`.
    pub budget: usize,
    /// Greedy total score.
    pub greedy_score: f64,
    /// Optimal total score.
    pub optimal_score: f64,
    /// `greedy / optimal`.
    pub ratio: f64,
}

/// A uniform sample of `users` distinct users, ascending.
fn sample_users(dataset: &SynthDataset, users: usize, seed: u64) -> Vec<UserId> {
    let mut ids: Vec<UserId> = (0..dataset.repo.user_count())
        .map(UserId::from_index)
        .collect();
    Rng::new(seed).shuffle_prefix(&mut ids, users);
    ids.truncate(users);
    ids.sort();
    ids
}

/// Runs greedy vs. optimal on `trials` random samples of `users` users.
pub fn run_approx(
    dataset: &SynthDataset,
    users: usize,
    budget: usize,
    trials: usize,
    seed: u64,
) -> Vec<ApproxResult> {
    let mut out = Vec::with_capacity(trials);
    for t in 0..trials {
        let ids = sample_users(dataset, users, seed.wrapping_add(t as u64));
        let repo = dataset.repo.restrict(&ids);
        let buckets = BucketingConfig::adaptive_default().bucketize(&repo);
        let groups = GroupSet::build(&repo, &buckets);
        let inst = DiversificationInstance::from_schemes(
            &groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            budget,
        );
        let greedy = greedy_select(&inst, budget);
        let optimal =
            exact_select(&inst, budget, 1 << 40).expect("sample small enough to enumerate");
        let ratio = if optimal.score > 0.0 {
            greedy.score / optimal.score
        } else {
            1.0
        };
        out.push(ApproxResult {
            users,
            budget,
            greedy_score: greedy.score,
            optimal_score: optimal.score,
            ratio,
        });
    }
    out
}

/// One row of the Optimal-blow-up sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptScaleRow {
    /// Sample size `|𝒰|`.
    pub users: usize,
    /// Number of subsets enumerated, `C(|𝒰|, B)`.
    pub subsets: u128,
    /// Exhaustive optimal runtime (ms).
    pub optimal_ms: f64,
    /// Greedy runtime on the same instance (ms).
    pub greedy_ms: f64,
}

/// Times exhaustive optimal vs. greedy over growing sample sizes.
pub fn run_optscale(
    dataset: &SynthDataset,
    user_counts: &[usize],
    budget: usize,
    seed: u64,
) -> Vec<OptScaleRow> {
    user_counts
        .iter()
        .map(|&n| {
            let ids = sample_users(dataset, n, seed);
            let repo = dataset.repo.restrict(&ids);
            let buckets = BucketingConfig::adaptive_default().bucketize(&repo);
            let groups = GroupSet::build(&repo, &buckets);
            let inst = DiversificationInstance::from_schemes(
                &groups,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                budget,
            );
            let t0 = Instant::now();
            let _ = exact_select(&inst, budget, 1 << 60).expect("within limit");
            let optimal_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let _ = greedy_select(&inst, budget);
            let greedy_ms = t1.elapsed().as_secs_f64() * 1e3;
            OptScaleRow {
                users: n,
                subsets: binomial(n, budget),
                optimal_ms,
                greedy_ms,
            }
        })
        .collect()
}

/// Renders approximation results.
pub fn render_approx(results: &[ApproxResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} | {:>3} | {:>12} | {:>13} | {:>7}",
        "users", "B", "greedy score", "optimal score", "ratio"
    );
    let _ = writeln!(out, "{:-<55}", "");
    for r in results {
        let _ = writeln!(
            out,
            "{:>6} | {:>3} | {:>12.2} | {:>13.2} | {:>7.4}",
            r.users, r.budget, r.greedy_score, r.optimal_score, r.ratio
        );
    }
    let mean: f64 = results.iter().map(|r| r.ratio).sum::<f64>() / results.len().max(1) as f64;
    let min: f64 = results
        .iter()
        .map(|r| r.ratio)
        .fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "mean ratio {mean:.4}, min ratio {min:.4} (guarantee: ≥ {:.4})",
        1.0 - 1.0 / std::f64::consts::E
    );
    out
}

/// Renders Optimal-blow-up rows.
pub fn render_optscale(rows: &[OptScaleRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} | {:>14} | {:>12} | {:>11}",
        "users", "C(n,B)", "optimal (ms)", "greedy (ms)"
    );
    let _ = writeln!(out, "{:-<55}", "");
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} | {:>14} | {:>12.1} | {:>11.2}",
            r.users, r.subsets, r.optimal_ms, r.greedy_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn greedy_is_near_optimal_on_40_of_paper_setup() {
        let dataset = datasets::ta_dataset(0.1, 11);
        let results = run_approx(&dataset, 40, 5, 2, 11);
        for r in &results {
            assert!(
                r.ratio >= 1.0 - 1.0 / std::f64::consts::E - 1e-9,
                "below the theoretical bound: {r:?}"
            );
            assert!(r.ratio <= 1.0 + 1e-9);
            assert!(
                r.ratio > 0.95,
                "paper reports near-optimal (0.998) ratios: {r:?}"
            );
        }
    }

    #[test]
    fn optscale_times_grow_with_users() {
        let dataset = datasets::ta_dataset(0.08, 12);
        let rows = run_optscale(&dataset, &[12, 20], 4, 12);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].subsets > rows[0].subsets * 5, "{rows:?}");
        // Greedy must be drastically cheaper than exhaustive at n=20.
        assert!(rows[1].greedy_ms <= rows[1].optimal_ms);
    }

    #[test]
    fn render_outputs() {
        let dataset = datasets::ta_dataset(0.06, 13);
        let results = run_approx(&dataset, 15, 3, 1, 13);
        assert!(render_approx(&results).contains("ratio"));
        let rows = run_optscale(&dataset, &[10], 3, 13);
        assert!(render_optscale(&rows).contains("C(n,B)"));
    }
}
