//! The simulator's two draws beyond the workspace stream.
//!
//! Everything random in a simulation flows through the workspace's one
//! seeded stream, [`podium_core::rng::Rng`]. Each stochastic process
//! (arrival, drift, churn, sessions) derives its own stream with
//! [`Rng::derive`] so that adding draws to one process never perturbs
//! another — the key to keeping event traces byte-identical across
//! refactors of a single process. This module adds the two draws only the
//! simulator makes: exponential gaps and Markov-row steps.

use podium_core::rng::Rng;

/// An exponential inter-arrival gap for a Poisson process of `rate_hz`
/// events per virtual second, in virtual microseconds. Clamped to at
/// least 1µs so time always advances; a non-positive rate means "never"
/// and returns `u64::MAX`.
pub fn exp_gap_us(rng: &mut Rng, rate_hz: f64) -> u64 {
    if rate_hz.is_nan() || rate_hz <= 0.0 {
        return u64::MAX;
    }
    let u = rng.unit();
    let seconds = -(1.0 - u).ln() / rate_hz;
    let us = seconds * 1_000_000.0;
    if us >= 9.0e18 {
        return u64::MAX;
    }
    // podium-lint: allow(as-cast) — bounded above by the 9e18 guard and below by 0 (exp draw)
    (us as u64).max(1)
}

/// Walks a cumulative step along `row` (a probability row summing to ~1)
/// and returns the chosen index. Falls back to the last index on
/// rounding shortfall; returns 0 for an empty row.
pub fn pick_row(rng: &mut Rng, row: &[f64]) -> usize {
    let draw = rng.unit();
    let mut acc = 0.0;
    for (i, p) in row.iter().enumerate() {
        acc += *p;
        if draw < acc {
            return i;
        }
    }
    row.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_gap_mean_tracks_rate() {
        let mut r = Rng::new(11);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| exp_gap_us(&mut r, 100.0)).sum();
        let mean = total / n; // expect ~10_000µs at 100 Hz
        assert!((8_000..12_000).contains(&mean), "mean {mean}");
    }

    #[test]
    fn exp_gap_zero_rate_means_never() {
        let mut r = Rng::new(1);
        assert_eq!(exp_gap_us(&mut r, 0.0), u64::MAX);
        assert_eq!(exp_gap_us(&mut r, -1.0), u64::MAX);
        assert_eq!(exp_gap_us(&mut r, f64::NAN), u64::MAX);
    }

    #[test]
    fn pick_row_respects_cumulative_bounds() {
        let mut r = Rng::new(5);
        let row = [0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(pick_row(&mut r, &row), 1);
        }
        assert_eq!(pick_row(&mut r, &[]), 0);
    }
}
