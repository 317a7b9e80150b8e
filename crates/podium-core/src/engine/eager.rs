//! Algorithm 1 (eager greedy) over CSR storage.
//!
//! Logic and edge order are identical to the historical nested-`Vec`
//! implementation; only the adjacency representation changed, so
//! selections — users, gains, score, covered counts — are bit-for-bit the
//! same.

use crate::greedy::{Selection, TieBreak};
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::rng::splitmix64;
use crate::score::ScoreValue;

use super::csr::CsrGraph;

/// Eager greedy selection of at most `b` users, maintaining every
/// candidate's marginal contribution decrementally (lines 2–10 of
/// Algorithm 1).
pub(super) fn eager_select<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    b: usize,
    eligible: Option<&[bool]>,
    tie_break: TieBreak,
) -> Selection<W> {
    let n = csr.user_count();
    if let Some(e) = eligible {
        assert_eq!(e.len(), n, "one eligibility flag per user");
    }
    let weights = inst.weights();

    // Line 2: marg_{u,𝒰} = Σ_{G ∋ u} wei(G) for eligible users. Groups with
    // zero weight or zero coverage are skipped up front (the "remove links"
    // optimization of §4).
    let mut available: Vec<bool> = (0..n).map(|u| eligible.is_none_or(|e| e[u])).collect();
    let mut cov_rem: Vec<u32> = inst.covs().to_vec();
    let mut marg: Vec<W> = vec![W::zero(); n];
    for u in 0..n {
        if !available[u] {
            continue;
        }
        for &g in csr.groups_of(u) {
            let gi = g as usize;
            if cov_rem[gi] > 0 && !weights[gi].is_zero() {
                marg[u].add_assign(&weights[gi]);
            }
        }
    }

    let mut rng_state = match tie_break {
        TieBreak::Seeded(seed) => seed ^ 0x9E37_79B9_7F4A_7C15,
        TieBreak::FirstUser => 0,
    };
    let mut users = Vec::with_capacity(b.min(n));
    let mut gains = Vec::with_capacity(b.min(n));
    let mut score = W::zero();
    let mut covered_counts = vec![0u32; csr.group_count()];

    // Lines 3–10.
    for _ in 0..b {
        // Line 5: argmax over available users.
        let best = match tie_break {
            TieBreak::FirstUser => argmax_first(&marg, &available),
            TieBreak::Seeded(_) => argmax_seeded(&marg, &available, &mut rng_state),
        };
        let Some(u) = best else { break }; // line 4: pool exhausted

        // Line 6: move u from 𝒰 to U.
        available[u] = false;
        score.add_assign(&marg[u]);
        gains.push(marg[u].clone());
        users.push(UserId::from_index(u));

        // Lines 7–10: update coverage and the marginal contributions.
        for &g in csr.groups_of(u) {
            let gi = g as usize;
            covered_counts[gi] += 1;
            if cov_rem[gi] == 0 {
                continue; // group was already fully covered
            }
            cov_rem[gi] -= 1;
            if cov_rem[gi] == 0 && !weights[gi].is_zero() {
                // Group newly fully covered: it no longer contributes to any
                // other member's marginal contribution (line 10).
                for &m in csr.members_of(gi) {
                    let mi = m as usize;
                    if available[mi] {
                        marg[mi].sub_assign(&weights[gi]);
                    }
                }
            }
        }
    }

    Selection::from_parts(users, gains, score, covered_counts)
}

/// First-index argmax: ties go to the smallest user id (strictly-greater
/// replacement test, so `a > b` — i.e. `partial_cmp == Some(Greater)` —
/// is the exact replacement condition).
fn argmax_first<W: ScoreValue>(marg: &[W], available: &[bool]) -> Option<usize> {
    let mut best: Option<(usize, &W)> = None;
    for (u, (m, &ok)) in marg.iter().zip(available).enumerate() {
        if !ok {
            continue;
        }
        let replace = match best {
            None => true,
            Some((_, bm)) => m.partial_cmp(bm) == Some(std::cmp::Ordering::Greater),
        };
        if replace {
            best = Some((u, m));
        }
    }
    best.map(|(u, _)| u)
}

/// Reservoir-samples uniformly among the argmax users with a splitmix64
/// stream, so runs are reproducible for a fixed seed.
fn argmax_seeded<W: ScoreValue>(marg: &[W], available: &[bool], state: &mut u64) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut ties = 0u64;
    for u in 0..marg.len() {
        if !available[u] {
            continue;
        }
        let ord = match best {
            None => std::cmp::Ordering::Greater,
            Some(b) => marg[u]
                .partial_cmp(&marg[b])
                .unwrap_or(std::cmp::Ordering::Less),
        };
        match ord {
            std::cmp::Ordering::Greater => {
                best = Some(u);
                ties = 1;
            }
            std::cmp::Ordering::Equal => {
                ties += 1;
                if splitmix64(state).is_multiple_of(ties) {
                    best = Some(u);
                }
            }
            std::cmp::Ordering::Less => {}
        }
    }
    best
}
