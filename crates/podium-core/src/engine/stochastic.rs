//! Stochastic greedy (Mirzasoleiman et al., AAAI 2015) over CSR storage.
//!
//! A third engine for BASE-DIVERSITY, in the spirit of the paper's §10
//! future-work direction of injecting randomness into the selection. Each
//! round evaluates only a random sample of `⌈(n/B)·ln(1/ε)⌉` candidates
//! instead of all of them, yielding a `(1 − 1/e − ε)` approximation *in
//! expectation* at a fraction of the marginal evaluations. Randomness is
//! fully determined by the seed.

use crate::greedy::Selection;
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::rng::splitmix64;
use crate::score::ScoreValue;

use super::csr::CsrGraph;

/// Stochastic greedy with accuracy parameter `epsilon ∈ [0, 1)`; each round
/// evaluates a fresh random sample of `⌈(n/B)·ln(1/ε)⌉` candidates
/// (`epsilon = 0` scans every candidate).
pub(super) fn stochastic_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    epsilon: f64,
    seed: u64,
) -> Selection<W> {
    let n = csr.user_count();
    let b_eff = b.min(n);
    if b_eff == 0 {
        return Selection::from_parts(
            Vec::new(),
            Vec::new(),
            W::zero(),
            vec![0; csr.group_count()],
        );
    }
    let weights = inst.weights();

    // Sample size per round: ⌈(n/B) · ln(1/ε)⌉, clamped to [1, n].
    let sample_size = if epsilon <= 0.0 {
        n
    } else {
        let s = (n as f64 / b_eff as f64) * (1.0 / epsilon).ln();
        (s.ceil() as usize).clamp(1, n)
    };

    let mut cov_rem: Vec<u32> = inst.covs().to_vec();
    let mut available: Vec<u32> = (0..n as u32).collect();
    let mut rng_state = seed ^ 0x5851_F42D_4C95_7F2D;

    let gain_of = |u: u32, cov_rem: &[u32]| -> W {
        let mut gain = W::zero();
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            if cov_rem[gi] > 0 {
                gain.add_assign(&weights[gi]);
            }
        }
        gain
    };

    let mut users = Vec::with_capacity(b_eff);
    let mut gains = Vec::with_capacity(b_eff);
    let mut score = W::zero();
    let mut covered_counts = vec![0u32; csr.group_count()];

    for _ in 0..b_eff {
        if available.is_empty() {
            break;
        }
        // Partial Fisher–Yates: move a fresh random sample to the front.
        let k = sample_size.min(available.len());
        for i in 0..k {
            let j = i + (splitmix64(&mut rng_state) as usize) % (available.len() - i);
            available.swap(i, j);
        }
        // Best of the sample.
        let mut best_idx = 0usize;
        let mut best_gain = gain_of(available[0], &cov_rem);
        for (i, &u) in available.iter().enumerate().take(k).skip(1) {
            let gain = gain_of(u, &cov_rem);
            if gain
                .partial_cmp(&best_gain)
                .is_some_and(|o| o == std::cmp::Ordering::Greater)
            {
                best_gain = gain;
                best_idx = i;
            }
        }
        let u = available.swap_remove(best_idx);
        score.add_assign(&best_gain);
        gains.push(best_gain);
        users.push(UserId(u));
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            covered_counts[gi] += 1;
            if cov_rem[gi] > 0 {
                cov_rem[gi] -= 1;
            }
        }
    }

    Selection::from_parts(users, gains, score, covered_counts)
}

#[cfg(test)]
mod tests {
    use super::super::{select, SelectSpec, Strategy};
    use super::*;
    use crate::greedy::greedy_select;
    use crate::group::GroupSet;
    use crate::weights::{CovScheme, WeightScheme};

    fn random_instance(seed: u64, users: usize, groups: usize) -> GroupSet {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 33) as usize
        };
        let memberships: Vec<Vec<UserId>> = (0..groups)
            .map(|_| {
                let size = 1 + next() % (users / 2 + 1);
                let mut m: Vec<UserId> = (0..size)
                    .map(|_| UserId::from_index(next() % users))
                    .collect();
                m.sort();
                m.dedup();
                m
            })
            .collect();
        GroupSet::from_memberships(users, memberships)
    }

    fn stochastic(
        inst: &DiversificationInstance<'_, f64>,
        b: usize,
        epsilon: f64,
        seed: u64,
    ) -> Selection<f64> {
        let csr = CsrGraph::from_group_set(inst.groups());
        let spec = SelectSpec::new(b, Strategy::Stochastic { epsilon, seed });
        select(inst, &csr, &spec).expect("stochastic runs always complete")
    }

    #[test]
    fn epsilon_zero_is_a_full_scan_greedy() {
        // With ε = 0 every round scans all candidates, so each accepted gain
        // is a true argmax; the total score matches the deterministic greedy
        // up to tie-breaking (ties can steer greedy to different — rarely
        // slightly different-scoring — optima, so compare within 2%).
        for seed in 0..10 {
            let g = random_instance(seed, 20, 30);
            let inst = DiversificationInstance::from_schemes(
                &g,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                5,
            );
            let exact = greedy_select(&inst, 5);
            let stoch = stochastic(&inst, 5, 0.0, seed);
            assert!(
                (stoch.score - exact.score).abs() <= 0.02 * exact.score,
                "seed {seed}: {} vs {}",
                stoch.score,
                exact.score
            );
            // First gain must be the global argmax — identical by definition.
            assert_eq!(stoch.gains[0], exact.gains[0], "seed {seed}");
        }
    }

    #[test]
    fn small_epsilon_stays_close_to_greedy() {
        let mut total_exact = 0.0;
        let mut total_stoch = 0.0;
        for seed in 0..20 {
            let g = random_instance(seed + 100, 40, 60);
            let inst = DiversificationInstance::from_schemes(
                &g,
                WeightScheme::LinearBySize,
                CovScheme::Single,
                6,
            );
            total_exact += greedy_select(&inst, 6).score;
            total_stoch += stochastic(&inst, 6, 0.1, seed).score;
        }
        assert!(
            total_stoch >= 0.85 * total_exact,
            "stochastic {total_stoch} vs exact {total_exact}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = random_instance(7, 25, 40);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            5,
        );
        assert_eq!(stochastic(&inst, 5, 0.2, 9), stochastic(&inst, 5, 0.2, 9));
    }

    #[test]
    fn no_duplicates_within_budget() {
        let g = random_instance(3, 15, 20);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            20,
        );
        let sel = stochastic(&inst, 20, 0.3, 1);
        let mut sorted = sel.users.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), sel.users.len());
        assert_eq!(sel.users.len(), 15, "pool exhausted");
    }

    #[test]
    fn score_matches_recomputation() {
        let g = random_instance(11, 30, 45);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Proportional,
            6,
        );
        let sel = stochastic(&inst, 6, 0.25, 4);
        assert!((sel.score - inst.score_of(&sel.users)).abs() < 1e-9);
    }

    #[test]
    fn zero_budget() {
        let g = random_instance(1, 5, 5);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            1,
        );
        assert!(stochastic(&inst, 0, 0.1, 0).users.is_empty());
    }
}
