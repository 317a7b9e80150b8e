//! Heap-based lazy greedy (CELF) over CSR storage — the one loop behind
//! every lazy run: plain, warm-started, deadline-bounded, and
//! quota-constrained.
//!
//! A max-heap holds one entry per candidate, each carrying the marginal
//! gain computed in some earlier round. Submodularity makes every stale
//! entry an *upper bound* on the candidate's current marginal, which gives
//! the heap invariant this module relies on:
//!
//! > If the entry at the top of the heap was computed in the current round
//! > (is *fresh*), it is the exact argmax — every other entry's bound,
//! > and hence its true marginal, orders at or below it.
//!
//! Ties order by smaller user id (see [`HeapEntry`]'s `Ord`), matching the
//! eager algorithm's first-index argmax, so under exact `ScoreValue`
//! arithmetic (integer-valued `f64` weights, `u64`, `EbsValue`,
//! `LexPair` of these) the lazy selection is bit-identical to the eager
//! one: same users, gains, score, and covered counts. Stale tops are
//! refreshed one at a time (the classic CELF step).
//!
//! Quotas hook in at the commit: a fresh top is committed only if the
//! quota tracker admits it (see [`super::constrained`]). A top that
//! would overshoot a ceiling is dropped for good; one that would merely
//! strand a floor is deferred and re-enters the heap, stale, after the
//! next commit. With no quotas every fresh top is admissible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::greedy::Selection;
use crate::ids::UserId;
use crate::instance::DiversificationInstance;
use crate::score::ScoreValue;

use super::constrained::{diagnose, QuotaTracker};
use super::csr::CsrGraph;
use super::{SelectError, SelectSpec};

/// A (possibly stale) upper bound on one candidate's marginal gain.
struct HeapEntry<W> {
    gain: W,
    user: u32,
    /// Selection round in which `gain` was computed.
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
            // Tie-break toward the smaller user id, matching the eager
            // algorithm's deterministic FirstUser policy.
            .then_with(|| other.user.cmp(&self.user))
    }
}

/// The round tag given to warm-start entries: never equal to the current
/// round (rounds count committed selections, bounded by the user count,
/// which [`CsrGraph`] keeps below `u32::MAX`), so every warm bound is
/// refreshed to its exact marginal before it can be committed.
const SEED_ROUND: u32 = u32::MAX;

/// The CELF loop. `spec` has passed [`SelectSpec::check`], so warm
/// bounds never meet an eligibility filter.
///
/// Warm bounds, when present, replace the round-0 scan: since commits
/// only ever happen on fresh entries, and any stale pop is refreshed to
/// its exact marginal first, valid upper bounds yield the same selection
/// the scan would.
pub(super) fn celf<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    spec: &SelectSpec<'_, W>,
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

    // The current marginal of `u` given the remaining coverages. Skipping
    // zero-weight groups mirrors the eager initialization ("remove links",
    // §4); it never changes the sum.
    let fresh_gain = |u: u32, cov_rem: &[u32]| -> W {
        let mut gain = W::zero();
        for &g in csr.groups_of(u as usize) {
            let gi = g as usize;
            if cov_rem[gi] > 0 && !weights[gi].is_zero() {
                gain.add_assign(&weights[gi]);
            }
        }
        gain
    };

    // Round-0 bounds: either the warm bounds (no scan) or the exact
    // initial marginals — the one full scan this algorithm performs.
    let mut heap: BinaryHeap<HeapEntry<W>> = match spec.warm {
        Some(warm) => warm
            .iter()
            .map(|(user, gain)| HeapEntry {
                gain: gain.clone(),
                user: *user,
                round: SEED_ROUND,
            })
            .collect(),
        None => (0..n as u32)
            .filter(|&u| spec.eligible.is_none_or(|e| e[u as usize]))
            .map(|user| HeapEntry {
                gain: fresh_gain(user, &cov_rem),
                user,
                round: 0,
            })
            .collect(),
    };

    let mut users = Vec::with_capacity(b.min(n));
    let mut gains = Vec::with_capacity(b.min(n));
    let mut score = W::zero();
    let mut round = 0u32;
    // Fresh argmaxes that cannot be committed *this* round without
    // stranding a floor; they re-enter the heap (stale) after the next
    // commit changes the residual problem.
    let mut deferred: Vec<HeapEntry<W>> = Vec::new();
    // Per-round admissibility, keyed by signature: every user sharing a
    // signature has the same verdict.
    let mut admissible: Vec<Option<bool>> = vec![None; tracker.as_ref().map_or(0, |t| 1 << t.q())];

    while users.len() < b {
        // An empty heap with quotas means every remaining candidate is
        // deferred or dropped; the feasibility invariant guarantees all
        // floors are met.
        let Some(top) = heap.pop() else { break };
        if top.round != round {
            // Stale upper bound: refresh and reinsert.
            let gain = fresh_gain(top.user, &cov_rem);
            heap.push(HeapEntry {
                gain,
                user: top.user,
                round,
            });
            continue;
        }
        // Fresh top entry: by the heap invariant it is the true argmax
        // (over candidates that keep the prefix completable).
        if let Some(tracker) = tracker.as_mut() {
            let sig = tracker.sig_of(top.user);
            let budget_left = b - users.len();
            if !*admissible[sig as usize].get_or_insert_with(|| tracker.admits(sig, budget_left)) {
                // Ceilings only tighten: a breaching candidate is dead
                // for every later round too, so it is dropped.
                if !tracker.breaches_ceiling(sig) {
                    deferred.push(top);
                }
                continue;
            }
            tracker.commit(sig);
            admissible.fill(None);
        }
        score.add_assign(&top.gain);
        gains.push(top.gain);
        users.push(UserId(top.user));
        for &g in csr.groups_of(top.user as usize) {
            let gi = g as usize;
            covered_counts[gi] += 1;
            if cov_rem[gi] > 0 {
                cov_rem[gi] -= 1;
            }
        }
        round += 1;
        // Deferred entries carry their last-known gains — still valid
        // upper bounds — and an old round tag, so each is refreshed
        // before it can commit.
        heap.extend(deferred.drain(..));
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
