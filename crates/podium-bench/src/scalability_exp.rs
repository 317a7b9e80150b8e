//! Scalability experiments — Figures 5 (runtime vs `|𝒰|`) and 6 (runtime
//! vs profile size).
//!
//! Each sweep point generates a synthetic repository and times the
//! end-to-end selection (including group construction for Podium and
//! clustering for k-means — each algorithm pays its own preprocessing, as
//! in the paper's system-level measurements), by the rule of
//! [`crate::timing`]: the median of interleaved calls. Expected shapes (§8.5):
//! Podium and Distance scale linearly and are roughly an order of magnitude
//! faster than Clustering; Random is immediate and omitted.

use std::hint::black_box;
use std::time::Duration;

use podium_baselines::prelude::*;
use podium_data::derive::{DeriveOptions, PropertyKinds};
use podium_data::synth::SynthConfig;
use podium_service::protocol::{num_f64, num_u64};
use serde_json::Value;

use crate::selectors::PodiumSelector;
use crate::timing::interleaved_medians;

/// One timing row of a scalability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalRow {
    /// Number of users in the repository.
    pub users: usize,
    /// Mean profile size (number of properties per user).
    pub mean_profile: f64,
    /// Total distinct properties.
    pub properties: usize,
    /// Podium end-to-end selection time (ms).
    pub podium_ms: f64,
    /// Clustering selection time (ms).
    pub clustering_ms: f64,
    /// Distance-based selection time (ms).
    pub distance_ms: f64,
}

/// Synthetic config for scalability sweeps: profiles capped at ~200
/// properties as in §8.5's user sweep.
fn sweep_config(users: usize, leaves_per_region: usize, seed: u64) -> SynthConfig {
    SynthConfig {
        name: format!("scal-{users}u-{leaves_per_region}l"),
        seed,
        users,
        destinations: (users / 2).max(50),
        cities: 10,
        age_groups: 4,
        archetypes: 6,
        regions: 6,
        leaves_per_region,
        topics: 12,
        mean_reviews_per_user: 12.0,
        review_dispersion: 0.6,
        rating_noise: 0.7,
        preference_gain: 0.8,
        zipf_exponent: 1.0,
        include_demographics: true,
        useful_votes: false,
        derive: DeriveOptions {
            kinds: PropertyKinds::all(),
            min_visits: 1,
            generalize: true,
            city_properties: false, // keep profiles near the §8.5 200-property cap
        },
    }
}

/// Median selection times (ms) of Podium, Clustering and Distance.
fn measure(
    repo: &podium_core::profile::UserRepository,
    budget: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let podium = PodiumSelector::paper_default();
    let clustering = KMeansSelector::new(seed);
    let distance = DistanceSelector::new(seed);
    let [p, c, d] = interleaved_medians([
        &mut || drop(black_box(podium.select(repo, budget))),
        &mut || drop(black_box(clustering.select(repo, budget))),
        &mut || drop(black_box(distance.select(repo, budget))),
    ]);
    let ms = |t: Duration| t.as_secs_f64() * 1e3;
    (ms(p), ms(c), ms(d))
}

/// Figure 5 sweep: runtime as a function of the number of users.
pub fn run_user_sweep(user_counts: &[usize], budget: usize, seed: u64) -> Vec<ScalRow> {
    user_counts
        .iter()
        .map(|&n| {
            let dataset = sweep_config(n, 6, seed).generate();
            let (p, c, d) = measure(&dataset.repo, budget, seed);
            ScalRow {
                users: n,
                mean_profile: dataset.repo.mean_profile_size(),
                properties: dataset.repo.property_count(),
                podium_ms: p,
                clustering_ms: c,
                distance_ms: d,
            }
        })
        .collect()
}

/// Figure 6 sweep: runtime as a function of the profile size (the paper
/// fixes `|𝒰| = 8K` and varies the properties assembling the profiles).
pub fn run_profile_sweep(
    users: usize,
    leaves_per_region: &[usize],
    budget: usize,
    seed: u64,
) -> Vec<ScalRow> {
    leaves_per_region
        .iter()
        .map(|&l| {
            let dataset = sweep_config(users, l, seed).generate();
            let (p, c, d) = measure(&dataset.repo, budget, seed);
            ScalRow {
                users,
                mean_profile: dataset.repo.mean_profile_size(),
                properties: dataset.repo.property_count(),
                podium_ms: p,
                clustering_ms: c,
                distance_ms: d,
            }
        })
        .collect()
}

/// Renders sweep rows as an aligned text table. `x_label` names the swept
/// variable ("users" or "profile").
pub fn render(rows: &[ScalRow], x_label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>9} | {:>12} | {:>10} | {:>11} | {:>13} | {:>11}",
        x_label, "mean profile", "properties", "podium (ms)", "cluster (ms)", "dist (ms)"
    );
    let _ = writeln!(out, "{:-<80}", "");
    for r in rows {
        let x = if x_label == "users" {
            r.users as f64
        } else {
            r.mean_profile
        };
        let _ = writeln!(
            out,
            "{:>9.1} | {:>12.1} | {:>10} | {:>11.1} | {:>13.1} | {:>11.1}",
            x, r.mean_profile, r.properties, r.podium_ms, r.clustering_ms, r.distance_ms
        );
    }
    out
}

/// Least-squares linearity check: returns R² of `y` regressed on `x`.
/// Used by tests to confirm the linear-scaling claim of §8.5.
pub fn linear_r2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len() as f64;
    if x.len() < 2 {
        return 1.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let syy: f64 = y.iter().map(|b| (b - my) * (b - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 1.0;
    }
    (sxy * sxy) / (sxx * syy)
}

/// Serializes a Figure 5 sweep as the `BENCH_16.json` artifact: every
/// point's size and timings, Podium's linearity R² over users (`r2`, as
/// [`linear_r2`] gives it), and the ratio of Podium's time between
/// consecutive points (2.0 per doubling of users is linear).
pub fn bench16_json(
    rows: &[ScalRow],
    r2: f64,
    budget: usize,
    seed: u64,
) -> serde_json::Result<String> {
    let count = |n: usize| num_u64(u64::try_from(n).unwrap_or(u64::MAX));
    let point = |r: &ScalRow| {
        Value::Object(vec![
            ("users".to_owned(), count(r.users)),
            ("properties".to_owned(), count(r.properties)),
            ("mean_profile".to_owned(), num_f64(r.mean_profile)),
            ("podium_ms".to_owned(), num_f64(r.podium_ms)),
            ("clustering_ms".to_owned(), num_f64(r.clustering_ms)),
            ("distance_ms".to_owned(), num_f64(r.distance_ms)),
        ])
    };
    let ratios = rows
        .iter()
        .zip(rows.iter().skip(1))
        .map(|(from, to)| {
            Value::Object(vec![
                ("from_users".to_owned(), count(from.users)),
                ("to_users".to_owned(), count(to.users)),
                (
                    "podium_ratio".to_owned(),
                    num_f64(to.podium_ms / from.podium_ms),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::String("fig5".to_owned())),
        (
            "schema".to_owned(),
            Value::String("podium.bench-fig5/1".to_owned()),
        ),
        ("budget".to_owned(), count(budget)),
        ("seed".to_owned(), num_u64(seed)),
        (
            "points".to_owned(),
            Value::Array(rows.iter().map(point).collect()),
        ),
        ("podium_r2".to_owned(), num_f64(r2)),
        ("podium_doubling_ratios".to_owned(), Value::Array(ratios)),
    ]);
    serde_json::to_string_pretty(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_sweep_produces_rows() {
        let rows = run_user_sweep(&[100, 200], 8, 1);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.podium_ms >= 0.0));
        assert!(rows[1].users > rows[0].users);
    }

    #[test]
    fn profile_sweep_grows_profiles() {
        let rows = run_profile_sweep(150, &[2, 8], 8, 2);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].mean_profile > rows[0].mean_profile,
            "more leaves -> bigger profiles: {rows:?}"
        );
    }

    #[test]
    fn linear_r2_sanity() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.1, 5.9, 8.0];
        assert!(linear_r2(&x, &y) > 0.99);
        let quad = [1.0, 4.0, 9.0, 16.0];
        assert!(linear_r2(&x, &quad) < linear_r2(&x, &y));
    }

    #[test]
    fn bench16_records_points_r2_and_ratios() {
        let rows = run_user_sweep(&[80, 160], 4, 3);
        let doc: Value = serde_json::from_str(&bench16_json(&rows, 0.5, 4, 3).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("podium.bench-fig5/1")
        );
        let points = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 2);
        for key in [
            "users",
            "properties",
            "mean_profile",
            "podium_ms",
            "clustering_ms",
            "distance_ms",
        ] {
            assert!(points[1].get(key).is_some(), "{key}");
        }
        assert_eq!(points[1].get("users").and_then(Value::as_u64), Some(160));
        assert_eq!(doc.get("podium_r2").and_then(Value::as_f64), Some(0.5));
        let ratios = doc
            .get("podium_doubling_ratios")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(ratios.len(), 1);
        let ratio = ratios[0]
            .get("podium_ratio")
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(ratio, rows[1].podium_ms / rows[0].podium_ms);
    }

    #[test]
    fn render_contains_headers() {
        let rows = run_user_sweep(&[80], 4, 3);
        let text = render(&rows, "users");
        assert!(text.contains("podium (ms)"));
    }
}
