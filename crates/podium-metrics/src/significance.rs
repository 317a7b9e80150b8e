//! Paired bootstrap significance testing for algorithm comparisons.
//!
//! Figure-3-style comparisons average a metric over many destinations (or
//! dataset seeds). Whether "Podium beats Random by 4%" is signal or noise
//! depends on the paired per-destination differences; this module provides
//! a deterministic paired bootstrap over those differences: confidence
//! intervals for the mean difference and the achieved significance level
//! for `mean(a − b) > 0`.

//! ```
//! use podium_metrics::significance::paired_bootstrap;
//!
//! let podium = [0.9, 0.8, 0.85, 0.9, 0.8, 0.95, 0.9, 0.85];
//! let random = [0.6, 0.7, 0.65, 0.6, 0.7, 0.55, 0.6, 0.65];
//! let r = paired_bootstrap(&podium, &random, 0.95, 1000, 42);
//! assert!(r.significant());
//! assert!(r.mean_diff > 0.2);
//! ```

/// Result of a paired bootstrap comparison of `a` vs `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapResult {
    /// Observed mean difference `mean(a − b)`.
    pub mean_diff: f64,
    /// Lower bound of the central confidence interval.
    pub ci_low: f64,
    /// Upper bound of the central confidence interval.
    pub ci_high: f64,
    /// Fraction of bootstrap resamples with mean difference ≤ 0 — a
    /// one-sided achieved significance level for "a > b".
    pub p_one_sided: f64,
    /// Number of resamples drawn.
    pub resamples: usize,
}

impl BootstrapResult {
    /// Whether the confidence interval excludes zero (a significant
    /// difference at the chosen level, in either direction).
    pub fn significant(&self) -> bool {
        self.ci_low > 0.0 || self.ci_high < 0.0
    }
}

/// Runs a paired bootstrap on per-item metric values of two algorithms.
///
/// `confidence` is the central-interval mass (e.g. `0.95`); `resamples`
/// bootstrap replicas are drawn with a deterministic splitmix64 stream
/// seeded by `seed`.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or `confidence` is
/// outside `(0, 1)`.
pub fn paired_bootstrap(
    a: &[f64],
    b: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> BootstrapResult {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    assert!(!a.is_empty(), "need at least one pair");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    let n = a.len();
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let mean_diff = diffs.iter().sum::<f64>() / n as f64;

    let mut state = seed ^ 0x1234_5678_9ABC_DEF0;
    let mut next = move || podium_core::rng::splitmix64(&mut state);

    let resamples = resamples.max(1);
    let mut means = Vec::with_capacity(resamples);
    let mut non_positive = 0usize;
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += diffs[(next() as usize) % n];
        }
        let m = sum / n as f64;
        if m <= 0.0 {
            non_positive += 1;
        }
        means.push(m);
    }
    means.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    let lo_idx = ((resamples as f64) * alpha).floor() as usize;
    let hi_idx = (((resamples as f64) * (1.0 - alpha)).ceil() as usize)
        .saturating_sub(1)
        .min(resamples - 1);
    BootstrapResult {
        mean_diff,
        ci_low: means[lo_idx],
        ci_high: means[hi_idx],
        p_one_sided: non_positive as f64 / resamples as f64,
        resamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_difference_is_significant() {
        let a: Vec<f64> = (0..50).map(|i| 0.8 + (i % 5) as f64 * 0.01).collect();
        let b: Vec<f64> = (0..50).map(|i| 0.5 + (i % 7) as f64 * 0.01).collect();
        let r = paired_bootstrap(&a, &b, 0.95, 2000, 1);
        assert!(r.mean_diff > 0.25);
        assert!(r.significant(), "{r:?}");
        assert!(r.p_one_sided < 0.01);
        assert!(r.ci_low <= r.mean_diff && r.mean_diff <= r.ci_high);
    }

    #[test]
    fn identical_samples_are_not_significant() {
        let a = vec![0.5; 30];
        let r = paired_bootstrap(&a, &a, 0.95, 500, 2);
        assert_eq!(r.mean_diff, 0.0);
        assert!(!r.significant());
        assert_eq!((r.ci_low, r.ci_high), (0.0, 0.0));
    }

    #[test]
    fn noisy_tie_is_not_significant() {
        // Alternating ±0.1 differences: mean 0, high variance.
        let a: Vec<f64> = (0..40)
            .map(|i| 0.5 + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let b = vec![0.5; 40];
        let r = paired_bootstrap(&a, &b, 0.95, 2000, 3);
        assert!(!r.significant(), "{r:?}");
        assert!(r.p_one_sided > 0.1 && r.p_one_sided < 0.9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        let b: Vec<f64> = (0..20).map(|i| (i as f64 / 20.0) * 0.9).collect();
        let r1 = paired_bootstrap(&a, &b, 0.9, 300, 7);
        let r2 = paired_bootstrap(&a, &b, 0.9, 300, 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn wider_confidence_gives_wider_interval() {
        let a: Vec<f64> = (0..30).map(|i| 0.5 + (i % 9) as f64 * 0.02).collect();
        let b: Vec<f64> = (0..30).map(|i| 0.45 + (i % 4) as f64 * 0.03).collect();
        let narrow = paired_bootstrap(&a, &b, 0.5, 2000, 4);
        let wide = paired_bootstrap(&a, &b, 0.99, 2000, 4);
        assert!(wide.ci_high - wide.ci_low >= narrow.ci_high - narrow.ci_low);
    }

    #[test]
    #[should_panic(expected = "paired samples must align")]
    fn mismatched_lengths_panic() {
        paired_bootstrap(&[1.0], &[1.0, 2.0], 0.95, 10, 0);
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn bad_confidence_panics() {
        paired_bootstrap(&[1.0], &[1.0], 1.5, 10, 0);
    }
}
