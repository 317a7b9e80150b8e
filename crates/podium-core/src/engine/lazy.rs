//! Heap-based lazy greedy (CELF) over CSR storage — the one loop behind
//! every lazy run: plain, deadline-bounded, and quota-constrained.
//!
//! The loop keeps Algorithm 1's bookkeeping: `marg[u]`, every candidate's
//! exact marginal gain, computed by one round-0 scan (line 2) and
//! decremented over the member lists whenever a group becomes fully
//! covered (lines 7–10), in the same order and arithmetic as the eager
//! loop. A max-heap holds one entry per candidate, each carrying the value
//! `marg[u]` had in the round it was pushed. Marginals only fall, so every
//! stale entry is an *upper bound* on the candidate's current marginal,
//! which gives the heap invariant this module relies on:
//!
//! > If the entry at the top of the heap was pushed in the current round
//! > (is *fresh*), it is the exact argmax — every other entry's bound,
//! > and hence its true marginal, orders at or below it.
//!
//! A stale top is re-pushed with its current `marg` — one heap push, no
//! adjacency walk. Ties order by smaller user id (see [`HeapEntry`]'s
//! `Ord`), matching the eager algorithm's first-index argmax; since both
//! read the same `marg` values, the lazy selection is bit-identical to the
//! eager one for every weight vector: same users, gains, score, and
//! covered counts.
//!
//! Cost: `O(|E|)` for the scan, `Σ_{covered G} |G|` member decrements,
//! and `O(log n)` per heap operation.
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
            // Tie-break toward the smaller user id, matching the eager
            // algorithm's deterministic FirstUser policy.
            .then_with(|| other.user.cmp(&self.user))
    }
}

/// The CELF loop. `spec` has passed [`SelectSpec::check`].
pub(super) fn celf<W: ScoreValue>(
    inst: &DiversificationInstance<'_, W>,
    csr: &CsrGraph,
    spec: &SelectSpec<'_>,
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
    let eligible = |u: usize| spec.eligible.is_none_or(|e| e[u]);

    // Line 2 of Algorithm 1 — the one full scan: every eligible user's
    // exact round-0 marginal. Groups with zero weight or zero coverage
    // are skipped up front (the "remove links" optimization of §4).
    let mut marg: Vec<W> = vec![W::zero(); n];
    let mut entries = Vec::with_capacity(n);
    for ((u, m), user) in marg.iter_mut().enumerate().zip(0u32..) {
        if !eligible(u) {
            continue;
        }
        for &g in csr.groups_of(u) {
            let gi = g as usize;
            let weight = &weights[gi];
            if cov_rem[gi] > 0 && !weight.is_zero() {
                m.add_assign(weight);
            }
        }
        entries.push(HeapEntry {
            gain: m.clone(),
            user,
            round: 0,
        });
    }
    let mut heap = BinaryHeap::from(entries);

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
            // Stale upper bound: `marg` is exact, so the refresh is one
            // push under the current round's tag.
            heap.push(HeapEntry {
                gain: marg[top.user as usize].clone(),
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
        // Lines 7–10: a group that becomes fully covered stops counting
        // toward every member's marginal. Ineligible users are skipped:
        // their round-0 sums never included the weight.
        for &g in csr.groups_of(top.user as usize) {
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
                    if eligible(mi) {
                        marg[mi].sub_assign(weight);
                    }
                }
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
