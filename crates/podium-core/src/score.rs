//! Score value abstraction for group weights and selection scores.
//!
//! The paper's weight functions (Definition 3.6) produce values of very
//! different magnitudes: Iden and LBS are small integers, while EBS assigns
//! `wei(G) = (B+1)^ord(G)` — astronomically large exponents for repositories
//! with thousands of groups, far beyond `f64` range. Likewise, the
//! CUSTOM-DIVERSITY objective (§6) is a lexicographic combination
//! `score_Gd(U) · MAX-SCORE + score_Gd?(U)`.
//!
//! Rather than approximating these with floating point, the selection
//! algorithms are generic over a [`ScoreValue`] type:
//!
//! * [`f64`] — Iden, LBS and arbitrary custom weights;
//! * [`EbsValue`] — exact EBS weights represented as sparse base-`(B+1)`
//!   numbers (the marginal score of any subset has per-exponent digits
//!   bounded by `cov(G) ≤ B < B+1`, so digit-wise arithmetic never carries);
//! * [`LexPair`] — exact lexicographic `(priority, standard)` pairs used for
//!   CUSTOM-DIVERSITY instead of the paper's `MAX-SCORE` multiplication
//!   (documented deviation: identical semantics, no overflow).

/// Values that can serve as group weights and accumulated selection scores.
///
/// Implementations must form an ordered commutative monoid under addition,
/// with subtraction defined whenever the result stays non-negative (the
/// greedy algorithm only ever subtracts weights it previously added).
pub trait ScoreValue: Clone + PartialOrd + std::fmt::Debug {
    /// The additive identity.
    fn zero() -> Self;
    /// `self += other`.
    fn add_assign(&mut self, other: &Self);
    /// `self -= other`. Callers guarantee `other` was previously added.
    fn sub_assign(&mut self, other: &Self);
    /// Whether this value equals [`ScoreValue::zero`].
    fn is_zero(&self) -> bool;
    /// A lossy scalar rendering for reports and explanations.
    fn as_f64(&self) -> f64;
    /// Whether this value is a well-formed weight. Exact integer-like types
    /// are always valid (the default); floating-point implementations must
    /// reject non-finite and negative values, which would silently corrupt
    /// greedy marginal arithmetic. Checked by
    /// [`crate::instance::DiversificationInstance::validate`].
    fn is_valid(&self) -> bool {
        true
    }
}

impl ScoreValue for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn add_assign(&mut self, other: &Self) {
        *self += *other;
    }
    #[inline]
    fn sub_assign(&mut self, other: &Self) {
        *self -= *other;
    }
    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    #[inline]
    fn as_f64(&self) -> f64 {
        *self
    }
    #[inline]
    fn is_valid(&self) -> bool {
        self.is_finite() && *self >= 0.0
    }
}

impl ScoreValue for u64 {
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn add_assign(&mut self, other: &Self) {
        *self = self
            .checked_add(*other)
            .expect("u64 score overflow; use f64 or EbsValue weights");
    }
    #[inline]
    fn sub_assign(&mut self, other: &Self) {
        *self = self
            .checked_sub(*other)
            .expect("u64 score underflow; subtracted weight was never added");
    }
    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0
    }
    #[inline]
    fn as_f64(&self) -> f64 {
        *self as f64
    }
}

/// Exact Enforced-By-Size (EBS) score: a sparse number in base `B+1`.
///
/// A single group's weight is `(B+1)^ord(G)`, stored as one `(ord, 1)` digit.
/// Selection scores are sums `Σ wei(G) · min{|U ∩ G|, cov(G)}`; every
/// coefficient is at most `cov(G) ≤ B`, i.e. strictly below the base, so
/// comparing two scores digit-wise from the highest exponent is exact and no
/// carry propagation is ever needed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EbsValue {
    /// `(exponent, coefficient)` pairs sorted by descending exponent, with
    /// all coefficients nonzero.
    digits: Vec<(u32, u32)>,
}

impl EbsValue {
    /// The weight of the group with size-order `ord`: `(B+1)^ord`.
    pub fn power(ord: u32) -> Self {
        Self {
            digits: vec![(ord, 1)],
        }
    }

    /// Borrow the `(exponent, coefficient)` digits, descending by exponent.
    pub fn digits(&self) -> &[(u32, u32)] {
        &self.digits
    }

    /// The highest exponent with a nonzero coefficient, if any.
    pub fn leading_exponent(&self) -> Option<u32> {
        self.digits.first().map(|&(e, _)| e)
    }
}

impl PartialOrd for EbsValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EbsValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Compare digit-by-digit from the most significant exponent.
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            match (self.digits.get(i), other.digits.get(j)) {
                (None, None) => return std::cmp::Ordering::Equal,
                (Some(_), None) => return std::cmp::Ordering::Greater,
                (None, Some(_)) => return std::cmp::Ordering::Less,
                (Some(&(ea, ca)), Some(&(eb, cb))) => {
                    if ea != eb {
                        return ea.cmp(&eb);
                    }
                    if ca != cb {
                        return ca.cmp(&cb);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

impl ScoreValue for EbsValue {
    fn zero() -> Self {
        Self::default()
    }

    fn add_assign(&mut self, other: &Self) {
        if other.digits.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.digits.len() + other.digits.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.digits.len() || j < other.digits.len() {
            match (self.digits.get(i), other.digits.get(j)) {
                (Some(&(ea, ca)), Some(&(eb, cb))) => {
                    if ea > eb {
                        merged.push((ea, ca));
                        i += 1;
                    } else if eb > ea {
                        merged.push((eb, cb));
                        j += 1;
                    } else {
                        merged.push((ea, ca + cb));
                        i += 1;
                        j += 1;
                    }
                }
                (Some(&d), None) => {
                    merged.push(d);
                    i += 1;
                }
                (None, Some(&d)) => {
                    merged.push(d);
                    j += 1;
                }
                // podium-lint: allow(unreachable) — the merge loop runs only while either side has digits left
                (None, None) => unreachable!(),
            }
        }
        self.digits = merged;
    }

    fn sub_assign(&mut self, other: &Self) {
        for &(e, c) in &other.digits {
            match self.digits.binary_search_by(|&(ee, _)| e.cmp(&ee)) {
                Ok(idx) => {
                    let cur = &mut self.digits[idx].1;
                    assert!(*cur >= c, "EbsValue underflow at exponent {e}");
                    *cur -= c;
                    if *cur == 0 {
                        self.digits.remove(idx);
                    }
                }
                // podium-lint: allow(panic) — EBS underflow means corrupted marginal accounting; fail fast rather than serve wrong scores
                Err(_) => panic!("EbsValue underflow: missing exponent {e}"),
            }
        }
    }

    fn is_zero(&self) -> bool {
        self.digits.is_empty()
    }

    fn as_f64(&self) -> f64 {
        // Lossy: meaningful only for small exponents; reports use the
        // leading exponent otherwise.
        self.digits
            .iter()
            .map(|&(e, c)| c as f64 * 10f64.powi(e.min(300) as i32))
            .sum()
    }
}

/// Lexicographically ordered `(priority, standard)` score pair.
///
/// Implements the CUSTOM-DIVERSITY objective of §6 exactly: a subset is
/// better if it has a higher priority-group score, with the standard-group
/// score breaking ties — equivalent to the paper's
/// `score_Gd(U) · MAX-SCORE + score_Gd?(U)` without the overflow hazard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LexPair<T: ScoreValue> {
    /// Score accumulated from "priority coverage" groups (`𝒢_d`).
    pub priority: T,
    /// Score accumulated from "standard coverage" groups (`𝒢_d?`).
    pub standard: T,
}

impl<T: ScoreValue> LexPair<T> {
    /// A pure priority-group weight.
    pub fn priority(w: T) -> Self {
        Self {
            priority: w,
            standard: T::zero(),
        }
    }

    /// A pure standard-group weight.
    pub fn standard(w: T) -> Self {
        Self {
            priority: T::zero(),
            standard: w,
        }
    }
}

impl<T: ScoreValue> PartialOrd for LexPair<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        match self.priority.partial_cmp(&other.priority) {
            Some(std::cmp::Ordering::Equal) => self.standard.partial_cmp(&other.standard),
            ord => ord,
        }
    }
}

impl<T: ScoreValue> ScoreValue for LexPair<T> {
    fn zero() -> Self {
        Self {
            priority: T::zero(),
            standard: T::zero(),
        }
    }
    fn add_assign(&mut self, other: &Self) {
        self.priority.add_assign(&other.priority);
        self.standard.add_assign(&other.standard);
    }
    fn sub_assign(&mut self, other: &Self) {
        self.priority.sub_assign(&other.priority);
        self.standard.sub_assign(&other.standard);
    }
    fn is_zero(&self) -> bool {
        self.priority.is_zero() && self.standard.is_zero()
    }
    fn as_f64(&self) -> f64 {
        self.priority.as_f64() * 1e9 + self.standard.as_f64()
    }
    fn is_valid(&self) -> bool {
        self.priority.is_valid() && self.standard.is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add<T: ScoreValue>(mut a: T, b: &T) -> T {
        a.add_assign(b);
        a
    }

    #[test]
    fn f64_score_value() {
        let mut x = f64::zero();
        assert!(x.is_zero());
        x.add_assign(&2.5);
        x.add_assign(&1.0);
        x.sub_assign(&0.5);
        assert_eq!(x, 3.0);
    }

    #[test]
    fn ebs_power_ordering_dominates() {
        // One group of order 5 beats any sum of lower-order groups with
        // small coefficients — the defining EBS property.
        let high = EbsValue::power(5);
        let mut low = EbsValue::zero();
        for ord in 0..5 {
            for _ in 0..7 {
                low.add_assign(&EbsValue::power(ord));
            }
        }
        assert!(high > low);
    }

    #[test]
    fn ebs_add_merges_digits() {
        let a = add(EbsValue::power(3), &EbsValue::power(1));
        let b = add(EbsValue::power(1), &EbsValue::power(3));
        assert_eq!(a, b);
        assert_eq!(a.digits(), &[(3, 1), (1, 1)]);
        let c = add(a.clone(), &EbsValue::power(3));
        assert_eq!(c.digits(), &[(3, 2), (1, 1)]);
    }

    #[test]
    fn ebs_sub_restores() {
        let mut x = EbsValue::zero();
        x.add_assign(&EbsValue::power(4));
        x.add_assign(&EbsValue::power(2));
        x.add_assign(&EbsValue::power(4));
        x.sub_assign(&EbsValue::power(4));
        assert_eq!(x.digits(), &[(4, 1), (2, 1)]);
        x.sub_assign(&EbsValue::power(4));
        x.sub_assign(&EbsValue::power(2));
        assert!(x.is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn ebs_sub_underflow_panics() {
        let mut x = EbsValue::power(1);
        x.sub_assign(&EbsValue::power(2));
    }

    #[test]
    fn ebs_comparison_tiebreaks_on_lower_digits() {
        let a = add(EbsValue::power(3), &EbsValue::power(1));
        let b = add(EbsValue::power(3), &EbsValue::power(0));
        assert!(a > b);
        let c = add(EbsValue::power(3), &EbsValue::power(1));
        assert_eq!(a.partial_cmp(&c), Some(std::cmp::Ordering::Equal));
    }

    #[test]
    fn ebs_leading_exponent() {
        assert_eq!(EbsValue::zero().leading_exponent(), None);
        let x = add(EbsValue::power(2), &EbsValue::power(7));
        assert_eq!(x.leading_exponent(), Some(7));
    }

    #[test]
    fn lexpair_priority_dominates() {
        let a = LexPair::<f64>::priority(1.0);
        let b = LexPair::<f64>::standard(1_000_000.0);
        assert!(a > b);
    }

    #[test]
    fn lexpair_standard_breaks_ties() {
        let mut a = LexPair::<f64>::priority(2.0);
        a.add_assign(&LexPair::standard(5.0));
        let mut b = LexPair::<f64>::priority(2.0);
        b.add_assign(&LexPair::standard(7.0));
        assert!(b > a);
    }

    #[test]
    fn lexpair_arithmetic() {
        let mut x = LexPair::<f64>::zero();
        assert!(x.is_zero());
        x.add_assign(&LexPair::priority(1.0));
        x.add_assign(&LexPair::standard(3.0));
        x.sub_assign(&LexPair::standard(1.0));
        assert_eq!(x.priority, 1.0);
        assert_eq!(x.standard, 2.0);
    }

    #[test]
    fn lexpair_nests_with_ebs() {
        // LexPair<EbsValue> composes: customization on top of EBS weights.
        let a = LexPair::<EbsValue>::priority(EbsValue::power(1));
        let b = LexPair::<EbsValue>::standard(EbsValue::power(9));
        assert!(a > b);
    }
}
