//! Quota constraints: hard per-group floors and ceilings on top of the
//! exact greedy selection.
//!
//! A [`QuotaSet`] attaches a `[min, max]` occupancy window to a small
//! number of groups, each bound expressed as an absolute [count] or as a
//! [ratio] of the selection budget. The greedy loop in
//! [`super::algorithm1`] consults a [`QuotaTracker`] before every commit
//! to keep a *feasibility invariant*:
//!
//! > After every committed prefix, some completion within the remaining
//! > budget still satisfies every quota window.
//!
//! Each round commits the best candidate the tracker admits. Candidates
//! that would overshoot a ceiling are out for good (occupancy never
//! decreases); candidates that would merely strand a floor are passed
//! over for the round and reconsidered after the next commit. With an
//! empty `QuotaSet` the loop runs without the tracker and is
//! **bit-identical** to [`super::lazy_select_csr`].
//!
//! Feasibility is decided *exactly*. Users are collapsed into
//! membership signatures over the quota'd groups (at most
//! [`MAX_QUOTA_GROUPS`] of them, enforced at validation), and a
//! memoized search over per-signature counts answers "can the residual
//! floors still be met within the residual budget without breaching a
//! ceiling?". Exactness is what lets the property tests pin
//! [`Infeasible`] against a brute-force subset check: the selector
//! errors **iff** no feasible assignment exists.
//!
//! [count]: QuotaBound::Count
//! [ratio]: QuotaBound::Ratio

use std::collections::HashMap;

use super::anneal::AnnealSchedule;
use super::csr::CsrGraph;
use crate::ids::UserId;

/// Most groups a single [`QuotaSet`] may constrain. The feasibility
/// oracle enumerates membership signatures over the quota'd groups, so
/// this cap bounds its state space at `2^8` signatures.
pub const MAX_QUOTA_GROUPS: usize = 8;

/// One bound of a quota window: an absolute member count or a fraction
/// of the selection budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuotaBound {
    /// An absolute number of selected members.
    Count(u32),
    /// A fraction of the budget, in `[0, 1]`. Floors resolve with
    /// `ceil` ("at least 30% of the slate"), ceilings with `floor`
    /// ("at most half the slate") — both conservative readings.
    Ratio(f64),
}

/// The quota window requested for one group.
#[derive(Debug, Clone, PartialEq)]
pub struct Quota {
    /// The constrained group (an index into the instance's group set).
    pub group: u32,
    /// Occupancy floor. `Count(0)` means "no floor".
    pub min: QuotaBound,
    /// Occupancy ceiling; `None` means unbounded.
    pub max: Option<QuotaBound>,
}

/// Why a [`QuotaSet`] failed validation. Every variant names the
/// offending group so wire layers can surface field-precise messages.
#[derive(Debug, Clone, PartialEq)]
pub enum QuotaError {
    /// A ratio bound was outside `[0, 1]` (or not finite).
    RatioOutOfRange {
        /// Group whose quota carried the bad ratio.
        group: u32,
        /// `"min"` or `"max"`.
        bound: &'static str,
        /// The offending value.
        ratio: f64,
    },
    /// A quota named a group the instance does not have.
    UnknownGroup {
        /// The unknown group id.
        group: u32,
        /// Number of groups the instance actually has.
        groups: usize,
    },
    /// Two quotas named the same group.
    DuplicateGroup {
        /// The repeated group id.
        group: u32,
    },
    /// A quota's resolved floor exceeds its resolved ceiling.
    EmptyWindow {
        /// The group with the inverted window.
        group: u32,
        /// Resolved floor.
        min: u32,
        /// Resolved ceiling.
        max: u32,
    },
    /// A quota's resolved floor exceeds the whole selection budget.
    FloorExceedsBudget {
        /// The group with the oversized floor.
        group: u32,
        /// Resolved floor.
        min: u32,
        /// The selection budget.
        budget: usize,
    },
    /// More than [`MAX_QUOTA_GROUPS`] groups were constrained.
    TooManyQuotas {
        /// Number of quotas requested.
        count: usize,
        /// The cap.
        limit: usize,
    },
}

impl std::fmt::Display for QuotaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaError::RatioOutOfRange {
                group,
                bound,
                ratio,
            } => write!(
                f,
                "quota for group {group}: {bound} ratio {ratio} is outside [0, 1]"
            ),
            QuotaError::UnknownGroup { group, groups } => write!(
                f,
                "quota names unknown group {group} (instance has {groups} groups)"
            ),
            QuotaError::DuplicateGroup { group } => {
                write!(f, "group {group} appears in more than one quota")
            }
            QuotaError::EmptyWindow { group, min, max } => write!(
                f,
                "quota for group {group}: resolved min {min} exceeds resolved max {max}"
            ),
            QuotaError::FloorExceedsBudget { group, min, budget } => write!(
                f,
                "quota for group {group}: resolved min {min} exceeds the budget {budget}"
            ),
            QuotaError::TooManyQuotas { count, limit } => {
                write!(f, "{count} quota'd groups exceed the limit of {limit}")
            }
        }
    }
}

impl std::error::Error for QuotaError {}

/// No feasible assignment exists for the requested quotas and budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Infeasible {
    /// The first group whose floor is individually unmeetable (too few
    /// members), when the defect is group-local; `None` when only the
    /// combination of windows fails.
    pub group: Option<u32>,
    /// Human-readable diagnosis.
    pub reason: String,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "infeasible quotas: {}", self.reason)
    }
}

impl std::error::Error for Infeasible {}

/// A validated, budget-resolved set of quota windows.
///
/// Construction ([`QuotaSet::build`]) canonicalizes the quotas (sorted
/// by group id) and resolves every ratio bound against the budget, so
/// the selector and the feasibility oracle only ever see integer
/// windows. Validation rejects malformed input with a typed
/// [`QuotaError`]; *satisfiability against a concrete instance* is the
/// selector's job and surfaces as [`Infeasible`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaSet {
    quotas: Vec<Quota>,
    /// Parallel to `quotas`: the constrained group ids.
    groups: Vec<u32>,
    /// Parallel to `quotas`: resolved floors.
    mins: Vec<u32>,
    /// Parallel to `quotas`: resolved ceilings (`u32::MAX` = unbounded).
    maxs: Vec<u32>,
    budget: usize,
}

impl QuotaSet {
    /// The quota set that constrains nothing (any budget).
    pub fn empty(budget: usize) -> Self {
        QuotaSet {
            quotas: Vec::new(),
            groups: Vec::new(),
            mins: Vec::new(),
            maxs: Vec::new(),
            budget,
        }
    }

    /// Validates `quotas` against a group universe of `group_count` and
    /// resolves ratio bounds against `budget`.
    pub fn build(
        mut quotas: Vec<Quota>,
        group_count: usize,
        budget: usize,
    ) -> Result<Self, QuotaError> {
        if quotas.len() > MAX_QUOTA_GROUPS {
            return Err(QuotaError::TooManyQuotas {
                count: quotas.len(),
                limit: MAX_QUOTA_GROUPS,
            });
        }
        quotas.sort_by_key(|q| q.group);
        let mut groups = Vec::with_capacity(quotas.len());
        let mut mins = Vec::with_capacity(quotas.len());
        let mut maxs = Vec::with_capacity(quotas.len());
        for q in &quotas {
            if groups.last() == Some(&q.group) {
                return Err(QuotaError::DuplicateGroup { group: q.group });
            }
            if (q.group as usize) >= group_count {
                return Err(QuotaError::UnknownGroup {
                    group: q.group,
                    groups: group_count,
                });
            }
            let min = resolve_floor(q.group, q.min, budget)?;
            let max = match q.max {
                None => u32::MAX,
                Some(b) => resolve_ceiling(q.group, b, budget)?,
            };
            if min > max {
                return Err(QuotaError::EmptyWindow {
                    group: q.group,
                    min,
                    max,
                });
            }
            if min as usize > budget {
                return Err(QuotaError::FloorExceedsBudget {
                    group: q.group,
                    min,
                    budget,
                });
            }
            groups.push(q.group);
            mins.push(min);
            maxs.push(max);
        }
        Ok(QuotaSet {
            quotas,
            groups,
            mins,
            maxs,
            budget,
        })
    }

    /// Whether no group is constrained.
    pub fn is_empty(&self) -> bool {
        self.quotas.is_empty()
    }

    /// Number of constrained groups.
    pub fn len(&self) -> usize {
        self.quotas.len()
    }

    /// The budget the ratio bounds were resolved against.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The canonical (group-sorted) quotas.
    pub fn quotas(&self) -> &[Quota] {
        &self.quotas
    }

    /// Resolved windows as `(group, min, max)` triples, `u32::MAX` for
    /// an unbounded ceiling.
    pub fn windows(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.groups.len()).map(|i| (self.groups[i], self.mins[i], self.maxs[i]))
    }

    /// Whether a selection's per-group covered counts sit inside every
    /// quota window — the check mirrors and soak tests apply to
    /// responses.
    pub fn satisfied_by(&self, covered_counts: &[u32]) -> bool {
        self.windows().all(|(g, min, max)| {
            let x = covered_counts.get(g as usize).copied().unwrap_or(0);
            min <= x && x <= max
        })
    }
}

fn resolve_floor(group: u32, bound: QuotaBound, budget: usize) -> Result<u32, QuotaError> {
    match bound {
        QuotaBound::Count(c) => Ok(c),
        QuotaBound::Ratio(r) => {
            check_ratio(group, "min", r)?;
            Ok((r * budget as f64).ceil() as u32)
        }
    }
}

fn resolve_ceiling(group: u32, bound: QuotaBound, budget: usize) -> Result<u32, QuotaError> {
    match bound {
        QuotaBound::Count(c) => Ok(c),
        QuotaBound::Ratio(r) => {
            check_ratio(group, "max", r)?;
            Ok((r * budget as f64).floor() as u32)
        }
    }
}

fn check_ratio(group: u32, bound: &'static str, ratio: f64) -> Result<(), QuotaError> {
    if !ratio.is_finite() || !(0.0..=1.0).contains(&ratio) {
        return Err(QuotaError::RatioOutOfRange {
            group,
            bound,
            ratio,
        });
    }
    Ok(())
}

/// A stable fingerprint of a constraint request — the quota windows
/// plus the optional anneal schedule — for memo keys. Returns `0` iff
/// the request is unconstrained (no quotas, no schedule), so `0` keeps
/// meaning "plain select" in caches; any constrained request hashes to
/// a nonzero value.
///
/// FNV-1a over a canonical byte encoding: explicitly specified (unlike
/// `std`'s hasher) so fingerprints are stable across processes and
/// releases — they appear in traces and memo keys that outlive one run.
pub fn constraint_fingerprint(quotas: &[Quota], anneal: Option<&AnnealSchedule>) -> u64 {
    if quotas.is_empty() && anneal.is_none() {
        return 0;
    }
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    let bound = |b: Option<QuotaBound>, eat: &mut dyn FnMut(&[u8])| match b {
        None => eat(&[0]),
        Some(QuotaBound::Count(c)) => {
            eat(&[1]);
            eat(&c.to_le_bytes());
        }
        Some(QuotaBound::Ratio(r)) => {
            eat(&[2]);
            eat(&r.to_bits().to_le_bytes());
        }
    };
    let mut sorted: Vec<&Quota> = quotas.iter().collect();
    sorted.sort_by_key(|q| q.group);
    for q in sorted {
        eat(&q.group.to_le_bytes());
        bound(Some(q.min), &mut eat);
        bound(q.max, &mut eat);
    }
    match anneal {
        None => eat(&[0]),
        Some(a) => {
            eat(&[1]);
            eat(&a.seed.to_le_bytes());
            eat(&a.steps.to_le_bytes());
            eat(&a.t0.to_bits().to_le_bytes());
            eat(&a.cooling.to_bits().to_le_bytes());
        }
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// The exact residual-feasibility oracle.
///
/// Users are collapsed into signatures (bitmask of quota'd-group
/// membership); `avail[sig]` counts the not-yet-selected users with
/// each signature. `search` asks: choosing at most `budget` more users
/// (by signature), can every residual floor (`need`) be met without
/// any group receiving more than `headroom` additional members? Memoized
/// on `(signature index, residual budget, needs, adds)`; only
/// signatures that touch an unmet floor are branched on (a completion
/// never benefits from other users), and per-signature counts are
/// capped by the largest residual need they serve and the smallest
/// headroom they consume.
struct Oracle {
    /// Signatures that intersect at least one floor-carrying group, in
    /// a fixed order.
    sigs: Vec<u16>,
    memo: HashMap<(usize, u32, Vec<u32>, Vec<u32>), bool>,
}

impl Oracle {
    fn new(q: usize, needs: &[u32]) -> Self {
        let need_mask: u16 = (0..q)
            .filter(|&i| needs[i] > 0)
            .fold(0, |m, i| m | (1 << i));
        let sigs: Vec<u16> = (1u16..(1 << q) as u16)
            .filter(|s| s & need_mask != 0)
            .collect();
        Oracle {
            sigs,
            memo: HashMap::new(),
        }
    }

    /// Exact feasibility of the residual problem.
    fn search(
        &mut self,
        avail: &[u32],
        idx: usize,
        budget: u32,
        needs: &[u32],
        headroom: &[u32],
        adds: &[u32],
    ) -> bool {
        if needs.iter().all(|&n| n == 0) {
            return true;
        }
        if idx == self.sigs.len() || budget == 0 {
            return false;
        }
        let key = (idx, budget, needs.to_vec(), adds.to_vec());
        if let Some(&hit) = self.memo.get(&key) {
            return hit;
        }
        let sig = self.sigs[idx] as usize;
        // Cap the branch: more copies of a signature than its largest
        // residual need never helps, and more than its tightest
        // remaining headroom is forbidden.
        let mut cap = budget.min(avail[sig]);
        let mut useful = 0u32;
        for (i, _) in needs.iter().enumerate() {
            if sig & (1 << i) != 0 {
                useful = useful.max(needs[i]);
                cap = cap.min(headroom[i].saturating_sub(adds[i]));
            }
        }
        cap = cap.min(useful);
        let mut ok = false;
        for c in 0..=cap {
            let mut next_needs = needs.to_vec();
            let mut next_adds = adds.to_vec();
            for i in 0..needs.len() {
                if sig & (1 << i) != 0 {
                    next_needs[i] = next_needs[i].saturating_sub(c);
                    next_adds[i] += c;
                }
            }
            if self.search(
                avail,
                idx + 1,
                budget - c,
                &next_needs,
                headroom,
                &next_adds,
            ) {
                ok = true;
                break;
            }
        }
        self.memo.insert(key, ok);
        ok
    }
}

/// Quota bookkeeping for the greedy loop's commit hook.
pub(super) struct QuotaTracker {
    mins: Vec<u32>,
    maxs: Vec<u32>,
    /// Current occupancy per quota index.
    occupancy: Vec<u32>,
    /// Remaining (unselected) users per signature.
    avail: Vec<u32>,
    /// Cached signature per user.
    sig: Vec<u16>,
    /// This round's admissibility verdicts, by signature: every user
    /// sharing a signature has the same one. Cleared at every commit.
    verdicts: Vec<Option<bool>>,
}

impl QuotaTracker {
    pub(super) fn new(quotas: &QuotaSet, csr: &CsrGraph) -> Self {
        let q = quotas.len();
        let index_of: HashMap<u32, usize> = quotas
            .groups
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        let n = csr.user_count();
        let mut sig = vec![0u16; n];
        let mut avail = vec![0u32; 1 << q];
        for (u, s) in sig.iter_mut().enumerate() {
            for &g in csr.groups_of(u) {
                if let Some(&i) = index_of.get(&g) {
                    *s |= 1 << i;
                }
            }
            avail[*s as usize] += 1;
        }
        QuotaTracker {
            mins: quotas.mins.clone(),
            maxs: quotas.maxs.clone(),
            occupancy: vec![0u32; q],
            avail,
            sig,
            verdicts: vec![None; 1 << q],
        }
    }

    fn q(&self) -> usize {
        self.mins.len()
    }

    /// Whether adding one user with signature `sig` would overshoot a
    /// ceiling. Permanent: occupancy never decreases during selection.
    fn breaches(&self, sig: u16) -> bool {
        (0..self.q()).any(|i| sig & (1 << i) != 0 && self.occupancy[i] >= self.maxs[i])
    }

    /// Whether adding `user` would overshoot a ceiling, now and in every
    /// later round.
    pub(super) fn breaches_ceiling(&self, user: UserId) -> bool {
        self.breaches(self.sig[user.index()])
    }

    /// Residual floors.
    fn needs(&self) -> Vec<u32> {
        (0..self.q())
            .map(|i| self.mins[i].saturating_sub(self.occupancy[i]))
            .collect()
    }

    /// Residual ceilings.
    fn headroom(&self) -> Vec<u32> {
        (0..self.q())
            .map(|i| self.maxs[i].saturating_sub(self.occupancy[i]))
            .collect()
    }

    /// Exact check: can the *current* state still complete to a
    /// feasible selection with `budget_left` more picks?
    pub(super) fn completable(&self, budget_left: usize) -> bool {
        let needs = self.needs();
        if needs.iter().all(|&n| n == 0) {
            return true;
        }
        let budget = u32::try_from(budget_left).unwrap_or(u32::MAX);
        let headroom = self.headroom();
        let adds = vec![0u32; self.q()];
        let mut oracle = Oracle::new(self.q(), &needs);
        oracle.search(&self.avail, 0, budget, &needs, &headroom, &adds)
    }

    /// Exact admissibility of committing `user` next, given
    /// `budget_left` picks remain (including this one); decided once per
    /// signature and round.
    pub(super) fn admits(&mut self, user: UserId, budget_left: usize) -> bool {
        let sig = self.sig[user.index()];
        let verdict = match self.verdicts[usize::from(sig)] {
            Some(verdict) => verdict,
            None => self.admits_sig(sig, budget_left),
        };
        self.verdicts[usize::from(sig)] = Some(verdict);
        verdict
    }

    fn admits_sig(&mut self, sig: u16, budget_left: usize) -> bool {
        if self.breaches(sig) {
            return false;
        }
        // Tentatively take the user, ask completability, undo.
        self.avail[sig as usize] -= 1;
        for i in 0..self.q() {
            if sig & (1 << i) != 0 {
                self.occupancy[i] += 1;
            }
        }
        let ok = self.completable(budget_left - 1);
        for i in 0..self.q() {
            if sig & (1 << i) != 0 {
                self.occupancy[i] -= 1;
            }
        }
        self.avail[sig as usize] += 1;
        ok
    }

    /// Records a commit of `user`, which starts a new round.
    pub(super) fn commit(&mut self, user: UserId) {
        self.verdicts.fill(None);
        let sig = self.sig[user.index()];
        self.avail[sig as usize] -= 1;
        for i in 0..self.q() {
            if sig & (1 << i) != 0 {
                self.occupancy[i] += 1;
            }
        }
    }
}

/// Builds the [`Infeasible`] diagnosis: prefers naming a group whose
/// floor individually exceeds its member count (the common case), and
/// otherwise reports the combined failure.
pub(super) fn diagnose(quotas: &QuotaSet, csr: &CsrGraph, b: usize) -> Infeasible {
    for (g, min, _) in quotas.windows() {
        let members = csr.group_size(g as usize);
        if (min as usize) > members {
            return Infeasible {
                group: Some(g),
                reason: format!("group {g} has {members} member(s) but a floor of {min}"),
            };
        }
    }
    Infeasible {
        group: None,
        reason: format!(
            "no subset of at most {b} user(s) satisfies all {} quota window(s)",
            quotas.len()
        ),
    }
}

/// Brute-force feasibility over all subsets of size ≤ `b` — the
/// reference the property tests pin [`super::constrained_lazy_select`]'s
/// `Infeasible` verdict against. Exponential; test-sized instances
/// only.
pub fn feasible_by_brute_force(csr: &CsrGraph, b: usize, quotas: &QuotaSet) -> bool {
    let n = csr.user_count();
    assert!(n <= 20, "brute force is for test-sized instances");
    let mut counts = vec![0u32; csr.group_count()];
    for mask in 0u32..(1 << n) {
        if (mask.count_ones() as usize) > b {
            continue;
        }
        counts.iter_mut().for_each(|c| *c = 0);
        for u in 0..n {
            if mask & (1 << u) != 0 {
                for &g in csr.groups_of(u) {
                    counts[g as usize] += 1;
                }
            }
        }
        if quotas.satisfied_by(&counts) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::super::{constrained_lazy_select, lazy_select_csr};
    use super::*;
    use crate::group::GroupSet;
    use crate::ids::UserId;
    use crate::instance::DiversificationInstance;
    use crate::weights::{CovScheme, WeightScheme};

    fn groups_from(users: usize, lists: &[&[u32]]) -> GroupSet {
        let memberships: Vec<Vec<UserId>> = lists
            .iter()
            .map(|l| l.iter().map(|&u| UserId(u)).collect())
            .collect();
        GroupSet::from_memberships(users, memberships)
    }

    fn count(group: u32, min: u32, max: Option<u32>) -> Quota {
        Quota {
            group,
            min: QuotaBound::Count(min),
            max: max.map(QuotaBound::Count),
        }
    }

    #[test]
    fn validation_rejects_malformed_quotas() {
        let ratio_oob = QuotaSet::build(
            vec![Quota {
                group: 0,
                min: QuotaBound::Ratio(1.5),
                max: None,
            }],
            3,
            4,
        );
        assert!(matches!(
            ratio_oob,
            Err(QuotaError::RatioOutOfRange {
                group: 0,
                bound: "min",
                ..
            })
        ));
        let unknown = QuotaSet::build(vec![count(9, 1, None)], 3, 4);
        assert!(matches!(
            unknown,
            Err(QuotaError::UnknownGroup {
                group: 9,
                groups: 3
            })
        ));
        let dup = QuotaSet::build(vec![count(1, 0, None), count(1, 1, None)], 3, 4);
        assert!(matches!(dup, Err(QuotaError::DuplicateGroup { group: 1 })));
        let inverted = QuotaSet::build(vec![count(0, 3, Some(1))], 3, 4);
        assert!(matches!(
            inverted,
            Err(QuotaError::EmptyWindow {
                group: 0,
                min: 3,
                max: 1
            })
        ));
        let oversized = QuotaSet::build(vec![count(0, 9, None)], 3, 4);
        assert!(matches!(
            oversized,
            Err(QuotaError::FloorExceedsBudget {
                group: 0,
                min: 9,
                budget: 4
            })
        ));
        let too_many: Vec<Quota> = (0..(MAX_QUOTA_GROUPS as u32 + 1))
            .map(|g| count(g, 0, Some(2)))
            .collect();
        assert!(matches!(
            QuotaSet::build(too_many, 32, 4),
            Err(QuotaError::TooManyQuotas { .. })
        ));
    }

    #[test]
    fn ratio_bounds_resolve_conservatively() {
        // Floor 0.3 of 10 → ceil = 3; ceiling 0.55 of 10 → floor = 5.
        let qs = QuotaSet::build(
            vec![Quota {
                group: 0,
                min: QuotaBound::Ratio(0.3),
                max: Some(QuotaBound::Ratio(0.55)),
            }],
            1,
            10,
        )
        .expect("valid");
        assert_eq!(qs.windows().next(), Some((0, 3, 5)));
    }

    #[test]
    fn empty_quota_set_is_bit_identical_to_celf() {
        let g = groups_from(
            8,
            &[&[0, 1, 2], &[2, 3], &[4, 5, 6], &[0, 6, 7], &[1, 3, 5, 7]],
        );
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Proportional,
            4,
        );
        let csr = CsrGraph::from_group_set(&g);
        let plain = lazy_select_csr(&inst, &csr, 4, None);
        let constrained =
            constrained_lazy_select(&inst, &csr, 4, &QuotaSet::empty(4)).expect("feasible");
        assert_eq!(constrained, plain);
    }

    #[test]
    fn floors_are_enforced() {
        // Group 2 = {7} is tiny and low-gain; unconstrained greedy
        // covers the two-member groups with {0, 3} and never reaches
        // user 7, so only the floor can force it in.
        let g = groups_from(8, &[&[0, 1], &[2, 3], &[7], &[0, 2], &[1, 3]]);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            2,
        );
        let csr = CsrGraph::from_group_set(&g);
        let unforced =
            constrained_lazy_select(&inst, &csr, 2, &QuotaSet::empty(2)).expect("feasible");
        assert!(!unforced.contains(UserId(7)));
        let qs = QuotaSet::build(vec![count(2, 1, None)], 5, 2).expect("valid");
        let forced = constrained_lazy_select(&inst, &csr, 2, &qs).expect("feasible");
        assert!(forced.contains(UserId(7)));
        assert!(qs.satisfied_by(&forced.covered_counts));
    }

    #[test]
    fn ceilings_are_enforced() {
        let g = groups_from(6, &[&[0, 1, 2, 3, 4, 5], &[4, 5]]);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::LinearBySize,
            CovScheme::Proportional,
            4,
        );
        let csr = CsrGraph::from_group_set(&g);
        let qs = QuotaSet::build(vec![count(1, 0, Some(1))], 2, 4).expect("valid");
        let sel = constrained_lazy_select(&inst, &csr, 4, &qs).expect("feasible");
        assert!(sel.covered_counts[1] <= 1, "{:?}", sel.covered_counts);
        assert_eq!(sel.users.len(), 4);
    }

    #[test]
    fn infeasible_floor_names_the_group() {
        let g = groups_from(5, &[&[0, 1], &[4]]);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let csr = CsrGraph::from_group_set(&g);
        let qs = QuotaSet::build(vec![count(1, 2, None)], 2, 3).expect("valid");
        let err = constrained_lazy_select(&inst, &csr, 3, &qs).expect_err("group 1 has 1 member");
        assert_eq!(err.group, Some(1));
        assert!(err.reason.contains("floor of 2"), "{}", err.reason);
    }

    #[test]
    fn combined_windows_can_be_infeasible_without_a_single_culprit() {
        // Two disjoint floors of 2 within a budget of 3: each floor is
        // individually meetable, the combination is not.
        let g = groups_from(6, &[&[0, 1, 2], &[3, 4, 5]]);
        let inst = DiversificationInstance::from_schemes(
            &g,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let csr = CsrGraph::from_group_set(&g);
        let qs = QuotaSet::build(vec![count(0, 2, None), count(1, 2, None)], 2, 3).expect("valid");
        assert!(!feasible_by_brute_force(&csr, 3, &qs));
        let err = constrained_lazy_select(&inst, &csr, 3, &qs).expect_err("combination fails");
        assert_eq!(err.group, None);
        // Overlap rescues it: users in both groups satisfy both floors.
        let g2 = groups_from(6, &[&[0, 1, 2], &[1, 2, 5]]);
        let inst2 = DiversificationInstance::from_schemes(
            &g2,
            WeightScheme::Identical,
            CovScheme::Single,
            3,
        );
        let csr2 = CsrGraph::from_group_set(&g2);
        assert!(feasible_by_brute_force(&csr2, 3, &qs));
        let sel = constrained_lazy_select(&inst2, &csr2, 3, &qs).expect("overlap makes it work");
        assert!(qs.satisfied_by(&sel.covered_counts));
    }

    #[test]
    fn fingerprint_is_zero_only_for_unconstrained() {
        assert_eq!(constraint_fingerprint(&[], None), 0);
        let q = vec![count(0, 1, None)];
        let f1 = constraint_fingerprint(&q, None);
        assert_ne!(f1, 0);
        // Order-independent: the encoding canonicalizes by group.
        let two = vec![count(3, 0, Some(2)), count(1, 1, None)];
        let two_rev = vec![count(1, 1, None), count(3, 0, Some(2))];
        assert_eq!(
            constraint_fingerprint(&two, None),
            constraint_fingerprint(&two_rev, None)
        );
        // The schedule participates.
        let sched = AnnealSchedule {
            seed: 7,
            steps: 100,
            t0: 1.0,
            cooling: 0.99,
        };
        assert_ne!(constraint_fingerprint(&q, Some(&sched)), f1);
        assert_ne!(constraint_fingerprint(&[], Some(&sched)), 0);
    }
}
