//! Algorithm 1 (§4) over CSR storage: the one exact greedy loop behind
//! [`Strategy::Eager`] and [`Strategy::Lazy`], plain, filtered,
//! deadline-bounded or quota-constrained.
//!
//! The loop keeps Algorithm 1's state once. `marg[u]`, every candidate's
//! exact marginal gain, comes from one round-0 scan (line 2) and is
//! decremented over the member lists whenever a group becomes fully
//! covered (lines 7–10). Each round commits the best *admissible*
//! candidate, found by one of two argmax rules over the same `marg`:
//!
//! * **The scan** (`Eager`) reads every remaining candidate's `marg`: the
//!   first-index argmax under [`TieBreak::FirstUser`], or a seeded
//!   reservoir draw among the tied maxima under [`TieBreak::Seeded`].
//! * **The heap** (`Lazy`, CELF) holds one entry per candidate, each
//!   carrying the value `marg[u]` had in the round it was pushed.
//!   Marginals only fall, so every stale entry is an *upper bound* on the
//!   candidate's current marginal, which gives the heap invariant:
//!
//!   > If the entry at the top of the heap was pushed in the current
//!   > round (is *fresh*), it is the exact argmax — every other entry's
//!   > bound, and hence its true marginal, orders at or below it.
//!
//!   A stale top is re-pushed with its current `marg`: one push, no
//!   adjacency walk. Ties order by smaller user id (see [`HeapEntry`]'s
//!   `Ord`).
//!
//! Both rules return the `FirstUser` argmax of the same `marg` over the
//! same admissible set, so `Lazy` is bit-identical to
//! `Eager { tie_break: FirstUser }` for every weight vector: same users,
//! gains, score and covered counts. So the heap can hand a run to the
//! scan at any point without changing a pick, and it does once one
//! round's stale pops reach [`hand_over_at`]: a commit that completes a
//! large group stales every member's entry, and re-pushing them one at a
//! time costs more than one pass over `marg`. The switch is one-way and
//! counts work, not time, so the loop reads no clock.
//!
//! Cost: `O(|E|)` for the round-0 scan and `Σ_{covered G} |G|` member
//! decrements, plus `O(n)` per scanned round and `O(log n)` per heap
//! operation.
//!
//! Quotas hook in at the argmax: a candidate is admissible if the quota
//! tracker says committing it keeps the prefix completable (see
//! [`super::constrained`]). The verdict depends only on the candidate's
//! quota signature, so each round caches one per signature. The scan
//! skips inadmissible candidates. The heap drops a fresh top that would
//! overshoot a ceiling for good, and defers one that would merely strand
//! a floor: it re-enters the heap, stale, after the next commit. With no
//! quotas every candidate is admissible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::greedy::{Selection, TieBreak};
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::rng::splitmix64;
use crate::score::ScoreValue;

use super::constrained::{diagnose, QuotaTracker};
use super::csr::CsrGraph;
use super::{SelectError, SelectSpec, Strategy};

/// The heap hands the run to the scan once one round's stale pops reach
/// `n / log₂ n` divided by this: `n / (4·log₂ n)`.
///
/// A scan compares `n` marginals in index order. A stale pop is a pop and
/// a push: the pop sifts a hole down all `log₂ n` levels of the heap and
/// back up, two compares per level on entries scattered in memory, and
/// the push sifts up again. So about `n / (2·log₂ n)` stale pops cost as
/// many compares as a scan, each a dearer one. A round that stales a
/// quarter of `n / log₂ n` entries has also shown that commits now lower
/// marginals across the pool, and later rounds tend to repeat it. In
/// `experiments ablation` (BENCH_20.json) this bound brings the heap
/// within a few percent of the scan on every `tripadvisor` cell, and it
/// never fires on `sparse`, where few entries go stale and the heap beats
/// the scan.
const HAND_OVER_DIVISOR: usize = 4;

/// Stale pops in one round at which the heap hands the run to the scan:
/// `n / (4·⌊log₂ n⌋)`, at least 1.
fn hand_over_at(n: usize) -> usize {
    let log = usize::try_from(n.max(2).ilog2()).unwrap_or(1);
    (n / (HAND_OVER_DIVISOR * log)).max(1)
}

/// One greedy run. `spec` has passed [`SelectSpec::check`] and names
/// `Eager` or `Lazy`.
pub(super) fn greedy<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    spec: &SelectSpec<'_>,
) -> Result<Selection<W>, SelectError<W>> {
    run(inst, csr, spec, hand_over_at(csr.user_count()), &mut false)
}

/// [`greedy`] with the heap's hand-over bound `limit`; sets
/// `handed_over` when the heap hands the run to the scan.
fn run<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    spec: &SelectSpec<'_>,
    limit: usize,
    handed_over: &mut bool,
) -> Result<Selection<W>, SelectError<W>> {
    let n = csr.user_count();
    let b = spec.budget;
    // The quota hook; `None` when nothing is constrained, so an empty
    // `QuotaSet` runs the plain loop.
    let mut tracker = match spec.quotas {
        Some(quotas) => {
            debug_assert_eq!(
                quotas.budget(),
                b,
                "quotas resolved against a different budget"
            );
            let tracker = (!quotas.is_empty()).then(|| QuotaTracker::new(quotas, csr));
            if tracker.as_ref().is_some_and(|t| !t.completable(b)) {
                return Err(SelectError::Infeasible(diagnose(quotas, csr, b)));
            }
            tracker
        }
        None => None,
    };
    let stop = |committed: usize| spec.stop.is_some_and(|stop| stop(committed));
    let mut covered_counts = vec![0u32; csr.group_count()];
    if stop(0) {
        let empty = Selection::from_parts(Vec::new(), Vec::new(), W::zero(), covered_counts);
        return Err(SelectError::Stopped(empty));
    }
    let weights = inst.weights();
    let mut cov_rem: Vec<u32> = inst.covs().to_vec();

    // Line 2 — the one full scan: every eligible user's exact round-0
    // marginal. Groups with zero weight or zero coverage are skipped up
    // front (the "remove links" optimization of §4).
    let mut remaining = spec
        .eligible
        .map_or_else(|| vec![true; n], <[bool]>::to_vec);
    let mut marg: Vec<W> = vec![W::zero(); n];
    for (u, (m, &ok)) in marg.iter_mut().zip(&remaining).enumerate() {
        if !ok {
            continue;
        }
        for &g in csr.groups_of(u) {
            let gi = g as usize;
            let weight = &weights[gi];
            if cov_rem[gi] > 0 && !weight.is_zero() {
                m.add_assign(weight);
            }
        }
    }

    let mut rule = match spec.strategy {
        Strategy::Eager {
            tie_break: TieBreak::FirstUser,
        } => Rule::First,
        Strategy::Eager {
            tie_break: TieBreak::Seeded(seed),
        } => Rule::Seeded(seed ^ 0x9E37_79B9_7F4A_7C15),
        _ => Rule::Heap(Heap::new(&marg, &remaining)),
    };
    let mut users = Vec::with_capacity(b.min(n));
    let mut gains = Vec::with_capacity(b.min(n));
    let mut score = W::zero();
    while users.len() < b {
        let budget_left = b - users.len();
        // With no quotas every candidate is admissible.
        let mut admits = |user| tracker.as_mut().is_none_or(|t| t.admits(user, budget_left));
        let pick = match &mut rule {
            Rule::First => first_argmax(&marg, &remaining, &mut admits),
            Rule::Seeded(rng) => seeded_argmax(&marg, &remaining, rng, &mut admits),
            Rule::Heap(heap) => match heap.argmax(&marg, &mut tracker, budget_left, limit) {
                Ok(pick) => pick,
                Err(HandOver) => {
                    *handed_over = true;
                    rule = Rule::First;
                    continue;
                }
            },
        };
        // No admissible candidate is left. With quotas, the feasibility
        // invariant guarantees every floor is met.
        let Some(user) = pick else { break };
        if let Some(tracker) = tracker.as_mut() {
            tracker.commit(user);
        }
        let u = user.index();
        remaining[u] = false;
        score.add_assign(&marg[u]);
        gains.push(marg[u].clone());
        users.push(user);
        // Lines 7–10: a group that becomes fully covered stops counting
        // toward every remaining member's marginal. Ineligible users are
        // skipped: their round-0 sums never included the weight.
        for &g in csr.groups_of(u) {
            let gi = g as usize;
            covered_counts[gi] += 1;
            let rem = &mut cov_rem[gi];
            if *rem == 0 {
                continue;
            }
            *rem -= 1;
            let weight = &weights[gi];
            if *rem == 0 && !weight.is_zero() {
                for &m in csr.members_of(gi) {
                    let mi = m as usize;
                    if remaining[mi] {
                        marg[mi].sub_assign(weight);
                    }
                }
            }
        }
        if let Rule::Heap(heap) = &mut rule {
            heap.next_round();
        }
        if users.len() < b && stop(users.len()) {
            let prefix = Selection::from_parts(users, gains, score, covered_counts);
            return Err(SelectError::Stopped(prefix));
        }
    }

    debug_assert!(
        spec.quotas.is_none_or(|q| q.satisfied_by(&covered_counts)),
        "constrained selection violated its own quotas"
    );
    Ok(Selection::from_parts(users, gains, score, covered_counts))
}

/// The argmax rule picking each round's user.
enum Rule<W> {
    /// The scan's first-index argmax.
    First,
    /// The scan's seeded draw among the tied maxima; carries the
    /// splitmix64 stream.
    Seeded(u64),
    /// CELF's heap.
    Heap(Heap<W>),
}

/// First-index argmax over the remaining candidates `admits` accepts:
/// ties go to the smallest user id, since only a strictly greater
/// marginal (`partial_cmp == Some(Greater)`) replaces the best so far. A
/// candidate is asked only if it would replace it.
fn first_argmax<W: ScoreValue>(
    marg: &[W],
    remaining: &[bool],
    mut admits: impl FnMut(UserId) -> bool,
) -> Option<UserId> {
    let mut best: Option<(UserId, &W)> = None;
    for ((m, &ok), user) in marg.iter().zip(remaining).zip(0u32..) {
        if !ok || best.is_some_and(|(_, bm)| m.partial_cmp(bm) != Some(Ordering::Greater)) {
            continue;
        }
        if admits(UserId(user)) {
            best = Some((UserId(user), m));
        }
    }
    best.map(|(user, _)| user)
}

/// Reservoir-samples uniformly among the admissible argmax users with a
/// splitmix64 stream, so runs are reproducible for a fixed seed.
fn seeded_argmax<W: ScoreValue>(
    marg: &[W],
    remaining: &[bool],
    rng: &mut u64,
    mut admits: impl FnMut(UserId) -> bool,
) -> Option<UserId> {
    let mut best: Option<(UserId, &W)> = None;
    let mut ties = 0u64;
    for ((m, &ok), user) in marg.iter().zip(remaining).zip(0u32..) {
        if !ok {
            continue;
        }
        let ord = best.map_or(Ordering::Greater, |(_, bm)| {
            m.partial_cmp(bm).unwrap_or(Ordering::Less)
        });
        if ord == Ordering::Less || !admits(UserId(user)) {
            continue;
        }
        if ord == Ordering::Greater {
            ties = 1;
            best = Some((UserId(user), m));
        } else {
            ties += 1;
            if splitmix64(rng).is_multiple_of(ties) {
                best = Some((UserId(user), m));
            }
        }
    }
    best.map(|(user, _)| user)
}

/// The heap rule: CELF over stale upper bounds.
struct Heap<W> {
    heap: BinaryHeap<HeapEntry<W>>,
    /// Fresh argmaxes that cannot be committed *this* round without
    /// stranding a floor. They carry their last-known gains, still valid
    /// upper bounds, and an old round tag, so each is refreshed before
    /// it can commit.
    deferred: Vec<HeapEntry<W>>,
    round: u32,
    /// Stale pops so far this round.
    stale: usize,
}

/// The heap's verdict that the scan is now cheaper.
struct HandOver;

impl<W: ScoreValue> Heap<W> {
    fn new(marg: &[W], remaining: &[bool]) -> Self {
        let mut entries = Vec::with_capacity(marg.len());
        for ((gain, &ok), user) in marg.iter().zip(remaining).zip(0u32..) {
            if ok {
                entries.push(HeapEntry {
                    gain: gain.clone(),
                    user,
                    round: 0,
                });
            }
        }
        Heap {
            heap: BinaryHeap::from(entries),
            deferred: Vec::new(),
            round: 0,
            stale: 0,
        }
    }

    /// Pops to this round's admissible argmax; `Ok(None)` once no
    /// candidate is admissible, [`HandOver`] once this round's stale pops
    /// reach `limit`.
    fn argmax(
        &mut self,
        marg: &[W],
        tracker: &mut Option<QuotaTracker>,
        budget_left: usize,
        limit: usize,
    ) -> Result<Option<UserId>, HandOver> {
        while let Some(top) = self.heap.pop() {
            let user = UserId(top.user);
            if top.round != self.round {
                self.stale += 1;
                if self.stale >= limit {
                    return Err(HandOver);
                }
                // Stale upper bound: `marg` is exact, so the refresh is
                // one push under the current round's tag.
                self.heap.push(HeapEntry {
                    gain: marg[user.index()].clone(),
                    user: top.user,
                    round: self.round,
                });
                continue;
            }
            // A fresh top is the argmax over the candidates still in the
            // heap (by the heap invariant).
            if let Some(tracker) = tracker.as_mut() {
                if !tracker.admits(user, budget_left) {
                    if !tracker.breaches_ceiling(user) {
                        self.deferred.push(top);
                    }
                    continue;
                }
            }
            return Ok(Some(user));
        }
        Ok(None)
    }

    /// Starts the round after a commit: deferred entries re-enter.
    fn next_round(&mut self) {
        self.round += 1;
        self.stale = 0;
        self.heap.extend(self.deferred.drain(..));
    }
}

/// A (possibly stale) upper bound on one candidate's marginal gain.
struct HeapEntry<W> {
    gain: W,
    user: u32,
    /// Selection round in which `gain` was read from `marg`.
    round: u32,
}

impl<W: ScoreValue> PartialEq for HeapEntry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<W: ScoreValue> Eq for HeapEntry<W> {}
impl<W: ScoreValue> PartialOrd for HeapEntry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W: ScoreValue> Ord for HeapEntry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("score values must be totally ordered (no NaN)")
            // Tie-break toward the smaller user id, matching the scan's
            // first-index argmax.
            .then_with(|| other.user.cmp(&self.user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Quota, QuotaBound, QuotaSet};
    use crate::group::GroupSet;
    use crate::weights::{CovScheme, WeightScheme};

    const SCAN: Strategy = Strategy::Eager {
        tie_break: TieBreak::FirstUser,
    };

    fn count(group: u32, min: u32, max: Option<u32>) -> Quota {
        Quota {
            group,
            min: QuotaBound::Count(min),
            max: max.map(QuotaBound::Count),
        }
    }

    /// Runs `spec` under the heap with the hand-over bound `limit` and
    /// under the scan, asserts both results are identical, and returns
    /// whether the heap handed over.
    fn heap_equals_scan(
        inst: &DiversificationInstance<'_, f64>,
        csr: &CsrGraph,
        spec: &SelectSpec<'_>,
        limit: usize,
    ) -> bool {
        let mut scan_handed_over = false;
        let scan_spec = SelectSpec {
            strategy: SCAN,
            ..*spec
        };
        let scan = run(inst, csr, &scan_spec, limit, &mut scan_handed_over);
        assert!(!scan_handed_over, "only the heap hands over");
        let mut handed_over = false;
        let heap_spec = SelectSpec {
            strategy: Strategy::Lazy,
            ..*spec
        };
        let heap = run(inst, csr, &heap_spec, limit, &mut handed_over);
        assert_eq!(heap, scan);
        handed_over
    }

    /// Checks the heap against the scan at the built-in bound with and
    /// without `quotas` and a stop hook at 3 commits, asserting whether
    /// each run handed over.
    fn check_every_hook(groups: &GroupSet, quotas: &QuotaSet, expect_hand_over: bool) {
        let budget = quotas.budget();
        let inst = DiversificationInstance::from_schemes(
            groups,
            WeightScheme::LinearBySize,
            CovScheme::Single,
            budget,
        );
        let csr = CsrGraph::from_group_set(groups);
        let limit = hand_over_at(csr.user_count());
        let at_three = |done: usize| done >= 3;
        for (with_quotas, with_stop) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let spec = SelectSpec {
                quotas: with_quotas.then_some(quotas),
                stop: with_stop.then_some(&at_three as &dyn Fn(usize) -> bool),
                ..SelectSpec::new(budget, Strategy::Lazy)
            };
            assert_eq!(
                heap_equals_scan(&inst, &csr, &spec, limit),
                expect_hand_over,
                "quotas {with_quotas}, stop hook {with_stop}"
            );
        }
    }

    #[test]
    fn hand_over_bound_follows_n() {
        assert_eq!(hand_over_at(10_000), 192);
        assert_eq!(hand_over_at(0), 1);
        assert_eq!(hand_over_at(16), 1);
    }

    /// One group holds every user, so the first commit stales the other
    /// `n − 1` entries and the heap hands the run to the scan.
    #[test]
    fn a_group_of_everyone_hands_the_run_to_the_scan() {
        let n = 100u32;
        let mut memberships = vec![(0..n).map(UserId).collect::<Vec<_>>()];
        memberships.extend((0..n).map(|u| vec![UserId(u)]));
        let groups = GroupSet::from_memberships(n as usize, memberships);
        // A floor on the last user's singleton group (group `n`), which no
        // unconstrained prefix of five reaches.
        let quotas = QuotaSet::build(vec![count(n, 1, None)], groups.len(), 5).expect("valid");
        check_every_hook(&groups, &quotas, true);
    }

    /// Disjoint singleton groups: a commit never lowers another user's
    /// marginal, so each round pops at most the top stale and the heap
    /// keeps the run.
    #[test]
    fn disjoint_singletons_keep_the_heap() {
        let n = 100u32;
        let groups =
            GroupSet::from_memberships(n as usize, (0..n).map(|u| vec![UserId(u)]).collect());
        // A floor the greedy meets on its own and a ceiling that drops
        // user 1 for good: neither makes the heap defer.
        let quotas = QuotaSet::build(
            vec![count(0, 1, None), count(1, 0, Some(0))],
            groups.len(),
            5,
        )
        .expect("valid");
        check_every_hook(&groups, &quotas, false);
    }

    /// With the hand-over disabled, the heap's drop-and-defer handling
    /// of quotas still commits the scan's picks on random instances.
    #[test]
    fn heap_alone_matches_the_scan_under_quotas() {
        for seed in 0..300u64 {
            let mut state = seed;
            let mut draw = |bound: u32| (splitmix64(&mut state) % u64::from(bound)) as u32;
            let users = 4 + draw(12);
            let mut memberships = Vec::new();
            for _ in 0..3 + draw(8) {
                let size = 1 + draw(5);
                memberships.push((0..size).map(|_| UserId(draw(users))).collect());
            }
            let groups = GroupSet::from_memberships(users as usize, memberships);
            let budget = 1 + draw(4);
            let mut quotas = Vec::new();
            for g in 0..groups.len() as u32 {
                if quotas.len() < 3 && draw(3) == 0 {
                    let min = draw(2).min(budget);
                    let max = (draw(2) == 0).then(|| min + draw(2));
                    quotas.push(count(g, min, max));
                }
            }
            let budget = budget as usize;
            let quotas = QuotaSet::build(quotas, groups.len(), budget).expect("valid");
            let inst = DiversificationInstance::from_schemes(
                &groups,
                WeightScheme::LinearBySize,
                CovScheme::Proportional,
                budget,
            );
            let csr = CsrGraph::from_group_set(&groups);
            let spec = SelectSpec {
                quotas: Some(&quotas),
                ..SelectSpec::new(budget, Strategy::Lazy)
            };
            assert!(
                !heap_equals_scan(&inst, &csr, &spec, usize::MAX),
                "seed {seed}"
            );
        }
    }
}
