//! Small deterministic samplers used by the population generator.
//!
//! The workspace's seeded stream ([`Rng`]) draws only uniform words, unit
//! floats and bounded integers, so the classical transforms are
//! implemented here: Box–Muller normals, log-normals, Knuth Poisson, and
//! Zipf-weighted categorical draws.

use podium_core::rng::Rng;

/// Standard normal via Box–Muller.
pub fn normal(rng: &mut Rng, mean: f64, sd: f64) -> f64 {
    loop {
        let u1 = rng.unit();
        let u2 = rng.unit();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        return mean + sd * z;
    }
}

/// Log-normal with the given *underlying* normal parameters.
pub fn log_normal(rng: &mut Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Poisson via Knuth's multiplication method (fine for small λ).
pub fn poisson(rng: &mut Rng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.unit();
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

/// Unnormalized Zipf weights `1 / (i+1)^s` for `n` items.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Samples an index proportionally to `weights` (must be non-negative, not
/// all zero).
pub fn weighted_index(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must have positive mass");
    let mut x = rng.unit() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Softmax of `scores` scaled by `temperature` (higher = peakier).
pub fn softmax(scores: &[f64], temperature: f64) -> Vec<f64> {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exp: Vec<f64> = scores
        .iter()
        .map(|&s| ((s - max) * temperature).exp())
        .collect();
    let total: f64 = exp.iter().sum();
    exp.into_iter().map(|e| e / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(42)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(log_normal(&mut r, 1.0, 0.8) > 0.0);
        }
    }

    #[test]
    fn poisson_mean() {
        let mut r = rng();
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| u64::from(poisson(&mut r, 3.5))).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn zipf_weights_decay() {
        let w = zipf_weights(5, 1.0);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
    }

    #[test]
    fn weighted_index_respects_mass() {
        let mut r = rng();
        let w = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &w)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 8 * counts[2], "{counts:?}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0], 1.5);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[1e6, 0.0], 1.0);
        assert!(p[0] > 0.999);
        assert!(p.iter().all(|x| x.is_finite()));
    }
}
