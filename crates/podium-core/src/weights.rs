//! Group weight and coverage functions (Definitions 3.6 and 3.7).
//!
//! Weights prioritize groups; coverage sizes say how many representatives a
//! group needs before it counts as covered. The paper proposes three
//! general-purpose weight functions — Iden, LBS, EBS — and two coverage
//! functions — Single and Prop — all implemented here. EBS weights are
//! exact [`EbsValue`]s rather than floats (see [`crate::score`]).

use serde::{Deserialize, Serialize};

use crate::group::GroupSet;
use crate::score::EbsValue;

/// Weight function `wei : 𝒢 → ℝ⁺` choices (Definition 3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightScheme {
    /// *Iden*: `wei(G) = 1`. Maximizes the *number* of covered groups; tends
    /// to select eccentric users (Example 3.8).
    Identical,
    /// *LBS* (Linearly By Size): `wei(G) = |G|`. Roughly maximizes groups
    /// represented *per user*; the paper's experimental default.
    LinearBySize,
}

impl WeightScheme {
    /// Computes the weight vector, indexed by group id.
    pub fn weights(self, groups: &GroupSet) -> Vec<f64> {
        match self {
            WeightScheme::Identical => vec![1.0; groups.len()],
            WeightScheme::LinearBySize => groups.iter().map(|(_, g)| g.size() as f64).collect(),
        }
    }
}

/// *EBS* (Enforced By Size) weights: `wei(G) = (B+1)^ord(G)` where `ord`
/// orders groups from smallest to largest (ties broken deterministically by
/// group id). Covering a larger group is then *always* preferred over any
/// combination of smaller ones.
///
/// Returned as exact [`EbsValue`]s; the `(B+1)` base never materializes
/// because base-`(B+1)` digit arithmetic needs no carries (coefficients are
/// bounded by `cov(G) ≤ B`).
pub fn ebs_weights(groups: &GroupSet) -> Vec<EbsValue> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| {
        (
            groups
                .group(crate::ids::GroupId::from_index(i))
                .map(|g| g.size())
                .unwrap_or(0),
            i,
        )
    });
    let mut weights = vec![EbsValue::zero_value(); groups.len()];
    for (ord, &gidx) in order.iter().enumerate() {
        weights[gidx] = EbsValue::power(ord as u32);
    }
    weights
}

impl EbsValue {
    /// Helper alias for the additive identity (avoids importing the trait at
    /// call sites that only build weight vectors).
    pub fn zero_value() -> Self {
        <EbsValue as crate::score::ScoreValue>::zero()
    }
}

/// Multiplies each weight by a random factor in `[1 − amplitude, 1 + amplitude]`
/// (clamped to stay positive) — the §10 future-work direction of "adding
/// noise to group weights" to randomize the otherwise deterministic
/// selection. The perturbation preserves positivity, so all of Proposition
/// 4.4's guarantees (and the greedy bound) continue to hold for the
/// perturbed instance. Deterministic for a fixed seed (splitmix64 stream).
pub fn noisy_weights(base: &[f64], amplitude: f64, seed: u64) -> Vec<f64> {
    let amplitude = amplitude.clamp(0.0, 0.99);
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    base.iter()
        .map(|&w| {
            let u = crate::rng::unit_float(&mut state);
            w * (1.0 - amplitude + 2.0 * amplitude * u)
        })
        .collect()
}

/// Coverage function `cov : 𝒢 → ℕ` choices (Definition 3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CovScheme {
    /// *Single*: `cov(G) = 1` — one representative covers a group; the most
    /// "diverse" choice and the paper's experimental default.
    Single,
    /// *Prop*: `cov(G) = max{⌊B · |G| / |𝒰|⌋, 1}` — representation
    /// proportional to the group's share of the population.
    Proportional,
}

impl CovScheme {
    /// Computes the coverage vector for budget `b`, indexed by group id.
    pub fn cov(self, groups: &GroupSet, b: usize) -> Vec<u32> {
        match self {
            CovScheme::Single => vec![1; groups.len()],
            CovScheme::Proportional => {
                let n = groups.user_count().max(1);
                groups
                    .iter()
                    .map(|(_, g)| {
                        let prop = (b * g.size()) / n;
                        (prop.max(1)) as u32
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, UserId};
    use crate::score::ScoreValue;

    fn three_groups() -> GroupSet {
        // sizes 2, 1, 3 over 4 users
        GroupSet::from_memberships(
            4,
            vec![
                vec![UserId(0), UserId(1)],
                vec![UserId(2)],
                vec![UserId(0), UserId(2), UserId(3)],
            ],
        )
    }

    #[test]
    fn iden_weights_are_unit() {
        let g = three_groups();
        assert_eq!(WeightScheme::Identical.weights(&g), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn lbs_weights_are_sizes() {
        let g = three_groups();
        assert_eq!(WeightScheme::LinearBySize.weights(&g), vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn ebs_orders_smallest_first() {
        let g = three_groups();
        let w = ebs_weights(&g);
        // sizes 2,1,3 -> ord: G1(size1)=0, G0(size2)=1, G2(size3)=2
        assert_eq!(w[1], EbsValue::power(0));
        assert_eq!(w[0], EbsValue::power(1));
        assert_eq!(w[2], EbsValue::power(2));
        // Larger group always outweighs all smaller ones combined.
        let mut small_sum = w[0].clone();
        small_sum.add_assign(&w[1]);
        assert!(w[2] > small_sum);
    }

    #[test]
    fn ebs_ties_broken_by_group_id() {
        let g = GroupSet::from_memberships(2, vec![vec![UserId(0)], vec![UserId(1)]]);
        let w = ebs_weights(&g);
        assert_eq!(w[0], EbsValue::power(0));
        assert_eq!(w[1], EbsValue::power(1));
    }

    #[test]
    fn single_cov_is_one() {
        let g = three_groups();
        assert_eq!(CovScheme::Single.cov(&g, 8), vec![1, 1, 1]);
    }

    #[test]
    fn proportional_cov_follows_definition() {
        let g = three_groups(); // |U| = 4, sizes 2,1,3
                                // B=4: floor(4*2/4)=2, floor(4*1/4)=1, floor(4*3/4)=3
        assert_eq!(CovScheme::Proportional.cov(&g, 4), vec![2, 1, 3]);
        // B=2: floor(2*2/4)=1, floor(2*1/4)=0 -> clamped to 1, floor(2*3/4)=1
        assert_eq!(CovScheme::Proportional.cov(&g, 2), vec![1, 1, 1]);
    }

    #[test]
    fn proportional_cov_never_zero() {
        let g = three_groups();
        for b in 1..10 {
            assert!(CovScheme::Proportional.cov(&g, b).iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn group_id_helper_resolves() {
        let g = three_groups();
        assert_eq!(g.group(GroupId(2)).unwrap().size(), 3);
    }

    #[test]
    fn noisy_weights_stay_positive_and_bounded() {
        let base = vec![1.0, 5.0, 100.0];
        let noisy = noisy_weights(&base, 0.3, 42);
        for (b, n) in base.iter().zip(&noisy) {
            assert!(*n > 0.0);
            assert!(*n >= b * 0.7 - 1e-12 && *n <= b * 1.3 + 1e-12, "{b} -> {n}");
        }
    }

    #[test]
    fn noisy_weights_deterministic_per_seed() {
        let base = vec![2.0; 16];
        assert_eq!(noisy_weights(&base, 0.5, 7), noisy_weights(&base, 0.5, 7));
        assert_ne!(noisy_weights(&base, 0.5, 7), noisy_weights(&base, 0.5, 8));
    }

    #[test]
    fn zero_amplitude_is_identity() {
        let base = vec![1.0, 2.0, 3.0];
        assert_eq!(noisy_weights(&base, 0.0, 1), base);
    }

    #[test]
    fn amplitude_clamped_below_one() {
        let base = vec![1.0; 100];
        let noisy = noisy_weights(&base, 5.0, 3);
        assert!(noisy.iter().all(|&w| w > 0.0), "positivity preserved");
    }
}
