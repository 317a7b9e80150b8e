//! Seeded simulated-annealing refinement of a (possibly
//! quota-constrained) greedy selection.
//!
//! Greedy CELF is a `(1 − 1/e)` approximation; under tight quota
//! windows its forced picks can leave easy swaps on the table. This
//! module spends a fixed number of local-search steps trying
//! single-user swaps, accepting improvements always and regressions
//! with the Metropolis probability `exp(Δ/T)` under a geometric
//! temperature schedule, and returns the best feasible solution seen.
//!
//! Determinism is the contract serving paths rely on: the proposal and
//! acceptance stream comes from a [`splitmix64`] generator seeded from
//! the schedule, and the step count — not wall-clock — bounds the walk,
//! so the same `(instance, start, schedule)` triple always yields the
//! same refined selection, on any machine. Wall-clock-equalized
//! comparisons (greedy vs greedy+anneal under the same time budget)
//! live in the benchmark harness, which *calibrates a step count* and
//! then runs this deterministic walk.
//!
//! Three guarantees, each pinned by property tests:
//!
//! * **Monotone**: the returned score is ≥ the starting score (best-so-
//!   far tracking; the start is the initial best).
//! * **Feasible**: every accepted move re-validates the quota windows,
//!   so a feasible start can never anneal into an infeasible result.
//! * **Deterministic**: same seed ⇒ bit-identical refined selection.

use crate::greedy::Selection;
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::rng::{splitmix64, unit_float};
use crate::score::ScoreValue;

use super::constrained::QuotaSet;
use super::csr::CsrGraph;

/// The annealer's parameters. Carried on the wire and in scenario
/// configs, so equality and hashing must be structural.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealSchedule {
    /// Seed of the `splitmix64` proposal/acceptance stream.
    pub seed: u64,
    /// Number of proposal steps (the walk's only stopping rule).
    pub steps: u32,
    /// Initial temperature; `0` degenerates to pure hill-climbing.
    pub t0: f64,
    /// Geometric cooling factor per step, in `(0, 1]`.
    pub cooling: f64,
}

/// Replays a slate in slot order, summing each user's gain over the
/// still-uncovered groups and adding it to the running score. Under exact
/// arithmetic (integer-valued weights) a slate identical to a greedy
/// output reproduces its `gains`, `score`, and `covered_counts`
/// bit-for-bit; with other `f64` weights the sums may round differently
/// from the greedy loop's decremental ones.
fn replay<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    slate: &[u32],
) -> Selection<W> {
    let weights = inst.weights();
    let mut cov_rem: Vec<u32> = inst.covs().to_vec();
    let mut covered_counts = vec![0u32; csr.group_count()];
    let mut gains = Vec::with_capacity(slate.len());
    let mut score = W::zero();
    let mut users = Vec::with_capacity(slate.len());
    for &u in slate {
        let mut gain = W::zero();
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            if cov_rem[gi] > 0 && !weights[gi].is_zero() {
                gain.add_assign(&weights[gi]);
            }
        }
        score.add_assign(&gain);
        gains.push(gain);
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

/// Score of a slate under the same arithmetic as [`replay`], without
/// materializing the selection — the annealer's inner-loop evaluator.
fn replay_score<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    cov_scratch: &mut [u32],
    slate: &[u32],
) -> W {
    let weights = inst.weights();
    cov_scratch.copy_from_slice(inst.covs());
    let mut score = W::zero();
    for &u in slate {
        let mut gain = W::zero();
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            if cov_scratch[gi] > 0 && !weights[gi].is_zero() {
                gain.add_assign(&weights[gi]);
            }
        }
        score.add_assign(&gain);
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            if cov_scratch[gi] > 0 {
                cov_scratch[gi] -= 1;
            }
        }
    }
    score
}

/// Refines `start` by seeded simulated annealing under the same quota
/// windows, returning the best feasible slate encountered (which is at
/// least as good as `start`, and exactly `start` when no accepted move
/// improves on it). See the module docs for the determinism,
/// monotonicity, and feasibility guarantees.
///
/// `start` must satisfy `quotas` (the constrained selector's output
/// always does); `quotas` must be resolved against the same budget the
/// start was selected under.
pub fn anneal_refine<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    quotas: &QuotaSet,
    start: &Selection<W>,
    schedule: &AnnealSchedule,
) -> Selection<W> {
    debug_assert!(
        quotas.satisfied_by(&start.covered_counts),
        "anneal_refine requires a feasible start"
    );
    let n = csr.user_count();
    let slate_len = start.users.len();
    // Nothing to swap: every user is selected, or nothing is.
    if slate_len == 0 || slate_len >= n {
        return start.clone();
    }

    let mut current: Vec<u32> = start.users.iter().map(|u| u.0).collect();
    let mut in_slate = vec![false; n];
    for &u in &current {
        in_slate[u as usize] = true;
    }
    // Quota occupancy per constrained group, maintained incrementally.
    let windows: Vec<(u32, u32, u32)> = quotas.windows().collect();
    let mut occupancy: Vec<u32> = windows
        .iter()
        .map(|&(g, _, _)| start.covered_counts[g as usize])
        .collect();

    let mut cov_scratch = vec![0u32; csr.group_count()];
    let mut cur_score = replay_score(inst, csr, &mut cov_scratch, &current);
    // The best slate found so far; `None` while it is still the start,
    // which keeps its own score so the result never scores below it.
    let mut best: Option<Vec<u32>> = None;
    let mut best_score = start.score.clone();

    let mut rng = schedule.seed;
    let mut temperature = schedule.t0;
    for _ in 0..schedule.steps {
        let slot = (splitmix64(&mut rng) % slate_len as u64) as usize;
        let candidate = (splitmix64(&mut rng) % n as u64) as u32;
        let t = temperature;
        temperature *= schedule.cooling;
        if in_slate[candidate as usize] {
            continue;
        }
        let out = current[slot];
        // Feasibility of the swap: each window sees the outgoing and
        // incoming memberships as a net occupancy delta.
        let mut feasible = true;
        for (i, &(g, min, max)) in windows.iter().enumerate() {
            let leaves = csr.groups_of(out as usize).contains(&g) as u32;
            let enters = csr.groups_of(candidate as usize).contains(&g) as u32;
            let x = occupancy[i] + enters - leaves;
            if x < min || x > max {
                feasible = false;
                break;
            }
        }
        if !feasible {
            continue;
        }
        current[slot] = candidate;
        let proposed = replay_score(inst, csr, &mut cov_scratch, &current);
        let delta = proposed.as_f64() - cur_score.as_f64();
        let accept = delta >= 0.0 || (t > 0.0 && unit_float(&mut rng) < (delta / t).exp());
        if !accept {
            current[slot] = out;
            continue;
        }
        in_slate[out as usize] = false;
        in_slate[candidate as usize] = true;
        for (i, &(g, _, _)) in windows.iter().enumerate() {
            let leaves = csr.groups_of(out as usize).contains(&g) as u32;
            let enters = csr.groups_of(candidate as usize).contains(&g) as u32;
            occupancy[i] = occupancy[i] + enters - leaves;
        }
        cur_score = proposed;
        if best_score
            .partial_cmp(&cur_score)
            .is_some_and(|o| o == std::cmp::Ordering::Less)
        {
            best = Some(current.clone());
            best_score = cur_score.clone();
        }
    }

    let Some(best) = best else {
        return start.clone();
    };
    let refined = replay(inst, csr, &best);
    debug_assert!(
        quotas.satisfied_by(&refined.covered_counts),
        "anneal produced an infeasible slate"
    );
    refined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::TieBreak;
    use crate::group::GroupSet;
    use crate::weights::{noisy_weights, CovScheme, WeightScheme};

    use super::super::constrained::{Quota, QuotaBound};
    use super::super::{constrained_lazy_select, select, SelectSpec, Strategy};

    fn groups_from(users: usize, lists: &[&[u32]]) -> GroupSet {
        let memberships: Vec<Vec<UserId>> = lists
            .iter()
            .map(|l| l.iter().map(|&u| UserId(u)).collect())
            .collect();
        GroupSet::from_memberships(users, memberships)
    }

    fn schedule(seed: u64) -> AnnealSchedule {
        AnnealSchedule {
            seed,
            steps: 300,
            t0: 0.8,
            cooling: 0.99,
        }
    }

    #[test]
    fn replay_reproduces_greedy_output_bitwise() {
        let g = groups_from(
            9,
            &[
                &[0, 1, 2],
                &[2, 3, 4],
                &[5, 6],
                &[0, 6, 7, 8],
                &[1, 3, 5, 7],
            ],
        );
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Proportional,
            4,
        );
        let csr = CsrGraph::from_group_set(&g);
        let sel = super::super::lazy_select_csr(&inst, &csr, 4, None);
        let slate: Vec<u32> = sel.users.iter().map(|u| u.0).collect();
        assert_eq!(replay(&inst, &csr, &slate), sel);
    }

    #[test]
    fn anneal_never_scores_below_its_start_and_is_deterministic() {
        let g = groups_from(
            10,
            &[
                &[0, 1, 2, 3],
                &[2, 3, 4],
                &[5, 6],
                &[0, 6, 7, 8],
                &[1, 3, 5, 7],
                &[9],
            ],
        );
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            4,
        );
        let csr = CsrGraph::from_group_set(&g);
        let quotas = QuotaSet::build(
            vec![Quota {
                group: 5,
                min: QuotaBound::Count(1),
                max: None,
            }],
            6,
            4,
        )
        .expect("valid");
        let greedy = constrained_lazy_select(&inst, &csr, 4, &quotas).expect("feasible");
        for seed in 0..16 {
            let a = anneal_refine(&inst, &csr, &quotas, &greedy, &schedule(seed));
            let b = anneal_refine(&inst, &csr, &quotas, &greedy, &schedule(seed));
            assert_eq!(a, b, "seed {seed} must be deterministic");
            assert!(
                a.score >= greedy.score,
                "seed {seed}: {} < {}",
                a.score,
                greedy.score
            );
            assert!(quotas.satisfied_by(&a.covered_counts), "seed {seed}");
            assert_eq!(a.users.len(), greedy.users.len(), "swaps preserve size");
        }
    }

    #[test]
    fn zero_steps_returns_the_start_bitwise() {
        let g = groups_from(6, &[&[0, 1], &[2, 3], &[4, 5], &[1, 4]]);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let csr = CsrGraph::from_group_set(&g);
        let quotas = QuotaSet::empty(3);
        let greedy = constrained_lazy_select(&inst, &csr, 3, &quotas).expect("feasible");
        let refined = anneal_refine(
            &inst,
            &csr,
            &quotas,
            &greedy,
            &AnnealSchedule {
                seed: 1,
                steps: 0,
                t0: 1.0,
                cooling: 0.9,
            },
        );
        assert_eq!(refined, greedy);
    }

    /// With non-integer weights, re-summing a slate rounds differently
    /// from the greedy loop's decremental gains; a walk that finds nothing
    /// better must still hand back the start itself.
    #[test]
    fn zero_steps_returns_a_noisy_weight_start_bitwise() {
        let (users, budget) = (40u64, 8);
        let eager = Strategy::Eager {
            tie_break: TieBreak::FirstUser,
        };
        for seed in 0..200u64 {
            let mut state = seed;
            let memberships: Vec<Vec<UserId>> = (0..60)
                .map(|_| {
                    let size = 1 + splitmix64(&mut state) % 10;
                    (0..size)
                        .map(|_| UserId((splitmix64(&mut state) % users) as u32))
                        .collect()
                })
                .collect();
            let g = GroupSet::from_memberships(users as usize, memberships);
            let base = WeightScheme::LinearBySize.weights(&g);
            let inst = DiversificationInstance::new(
                &g,
                noisy_weights(&base, 0.3, seed),
                CovScheme::Single.cov(&g, budget),
            );
            let csr = CsrGraph::from_group_set(&g);
            let start = select(&inst, &csr, &SelectSpec::new(budget, eager)).expect("eager run");
            let refined = anneal_refine(
                &inst,
                &csr,
                &QuotaSet::empty(budget),
                &start,
                &AnnealSchedule {
                    seed,
                    steps: 0,
                    t0: 1.0,
                    cooling: 0.9,
                },
            );
            assert_eq!(refined, start, "seed {seed}");
        }
    }
}
