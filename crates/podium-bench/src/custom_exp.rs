//! Customization experiment — Figure 4 ("Yelp intrinsic diversity with
//! customization").
//!
//! Random priority-group subsets `𝒢_20 ⊆ 𝒢_40 ⊆ 𝒢_60 ⊆ 𝒢_80` are fed to
//! CUSTOM-DIVERSITY as `𝒢_d`; a subset of size `B` is selected per setting
//! and the intrinsic metrics are recorded, together with the *Feedback
//! Group Coverage* (fraction of priority groups covered). The process is
//! repeated and averaged. The paper observes that all quality metrics
//! decrease only slightly as priority groups are added, while feedback
//! coverage drops markedly with more (random, typically small) priority
//! groups.

use podium_core::bucket::BucketingConfig;
use podium_core::customize::{custom_select, Feedback};
use podium_core::group::GroupSet;
use podium_core::ids::GroupId;
use podium_core::instance::DiversificationInstance;
use podium_core::rng::Rng;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::SynthDataset;
use podium_metrics::intrinsic::IntrinsicMetrics;

/// One averaged row of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CustomRow {
    /// `|𝒢_d|` — number of priority groups.
    pub gd_size: usize,
    /// Averaged intrinsic metrics of the selected subsets.
    pub metrics: IntrinsicMetrics,
    /// Averaged feedback group coverage.
    pub feedback_coverage: f64,
}

/// One repetition's priority groups: `max_size` distinct group ids in
/// selection order. Every prefix `𝒢_s` is a uniform `s`-subset of the
/// groups, and the prefixes nest: `𝒢_20 ⊆ 𝒢_40 ⊆ …`.
fn priority_order(groups: usize, max_size: usize, seed: u64) -> Vec<GroupId> {
    let mut order: Vec<GroupId> = (0..groups).map(GroupId::from_index).collect();
    Rng::new(seed).shuffle_prefix(&mut order, max_size);
    order.truncate(max_size);
    order
}

/// Runs the Figure 4 experiment.
///
/// `sizes` are the nested `𝒢_d` sizes (0 = no customization baseline);
/// `reps` repetitions are averaged with fresh random group draws each time.
pub fn run_customization(
    dataset: &SynthDataset,
    budget: usize,
    top_k: usize,
    sizes: &[usize],
    reps: usize,
    seed: u64,
) -> Vec<CustomRow> {
    let repo = &dataset.repo;
    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    let groups = GroupSet::build(repo, &buckets);
    let eval_inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        budget,
    );

    let max_size = sizes.iter().copied().max().unwrap_or(0).min(groups.len());
    let mut rows: Vec<(usize, Vec<IntrinsicMetrics>, Vec<f64>)> =
        sizes.iter().map(|&s| (s, Vec::new(), Vec::new())).collect();

    for rep in 0..reps.max(1) {
        let order = priority_order(groups.len(), max_size, seed.wrapping_add(rep as u64));
        for (s, metrics_acc, cov_acc) in rows.iter_mut() {
            let feedback = Feedback {
                priority: order.iter().take(*s).copied().collect(),
                ..Feedback::default()
            };
            let sel = custom_select(
                repo,
                &groups,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                budget,
                &feedback,
            )
            .expect("valid feedback");
            metrics_acc.push(IntrinsicMetrics::evaluate(&eval_inst, sel.users(), top_k));
            cov_acc.push(sel.feedback_group_coverage);
        }
    }

    rows.into_iter()
        .map(|(s, ms, cs)| {
            let n = ms.len().max(1) as f64;
            CustomRow {
                gd_size: s,
                metrics: IntrinsicMetrics {
                    total_score: ms.iter().map(|m| m.total_score).sum::<f64>() / n,
                    top_k_coverage: ms.iter().map(|m| m.top_k_coverage).sum::<f64>() / n,
                    intersected_coverage: ms.iter().map(|m| m.intersected_coverage).sum::<f64>()
                        / n,
                    distribution_similarity: ms
                        .iter()
                        .map(|m| m.distribution_similarity)
                        .sum::<f64>()
                        / n,
                },
                feedback_coverage: cs.iter().sum::<f64>() / cs.len().max(1) as f64,
            }
        })
        .collect()
}

/// Renders Figure 4 rows as an aligned text table.
pub fn render(rows: &[CustomRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} | {:>12} | {:>10} | {:>12} | {:>10} | {:>12}",
        "|Gd|", "total score", "top-k cov", "intersected", "dist. sim", "feedback cov"
    );
    let _ = writeln!(out, "{:-<80}", "");
    for r in rows {
        let _ = writeln!(
            out,
            "{:>7} | {:>12.2} | {:>10.3} | {:>12.3} | {:>10.3} | {:>12.3}",
            r.gd_size,
            r.metrics.total_score,
            r.metrics.top_k_coverage,
            r.metrics.intersected_coverage,
            r.metrics.distribution_similarity,
            r.feedback_coverage
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn feedback_coverage_decreases_with_gd_size() {
        // Budget 2 with 120 priority groups: two users can belong to at most
        // 2 · max_groups_per_user < 120 groups on this dataset, so full
        // feedback coverage is impossible — mirroring Figure 4's drop.
        let dataset = datasets::yelp_dataset(0.02, 5);
        let rows = run_customization(&dataset, 2, 50, &[0, 20, 120], 3, 5);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].feedback_coverage, 1.0, "no priority groups");
        assert!(
            rows[1].feedback_coverage >= rows[2].feedback_coverage,
            "more priority groups -> lower coverage: {rows:?}"
        );
        assert!(rows[2].feedback_coverage < 1.0, "{rows:?}");
    }

    #[test]
    fn quality_metrics_only_degrade_mildly() {
        let dataset = datasets::yelp_dataset(0.02, 9);
        let rows = run_customization(&dataset, 8, 50, &[0, 40], 3, 9);
        let base = rows[0].metrics.total_score;
        let custom = rows[1].metrics.total_score;
        assert!(custom <= base + 1e-9, "customization restricts the optimum");
        assert!(
            custom > base * 0.5,
            "but not catastrophically: base {base} custom {custom}"
        );
    }

    #[test]
    fn priority_prefixes_are_uniform_samples() {
        // A prefix of the draw is a uniform sample of all groups, not the
        // lowest ids of a larger one: over many repetitions the mean id of
        // a 20-prefix of an 80-draw from 100 groups is near 49.5 (the
        // lowest 20 of a uniform 80-subset average about 12).
        let (mut sum, mut n) = (0usize, 0usize);
        for seed in 0..200 {
            let order = priority_order(100, 80, seed);
            assert_eq!(order.len(), 80);
            sum += order[..20].iter().map(|g| g.index()).sum::<usize>();
            n += 20;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 49.5).abs() < 3.0, "mean prefix id {mean}");
    }

    #[test]
    fn render_has_all_rows() {
        let dataset = datasets::yelp_dataset(0.015, 2);
        let rows = run_customization(&dataset, 4, 20, &[0, 10], 2, 2);
        let text = render(&rows);
        assert!(text.contains("feedback cov"));
        assert_eq!(text.lines().count(), 4);
    }
}
