//! Property-score bucketing `β(p)` (paper §3.2).
//!
//! Podium splits the `[0, 1]` score range of every property into a small set
//! of non-overlapping buckets; a property × bucket pair then defines a simple
//! user group `G_{p,b}` (Definition 3.4). The paper notes several 1-D
//! interval-splitting methods that exploit the ordering of the data: Jenks
//! natural-breaks optimization, k-means, expectation maximization, and
//! kernel-density estimation. All of them are implemented here, along with
//! equal-width, quantile, and fixed-edge splitting (the paper's running
//! example uses fixed edges `[0, 0.4), [0.4, 0.65), [0.65, 1]`).
//!
//! Boolean properties (all observed scores are 0 or 1) are special-cased: a
//! single "true" bucket `[0.5, 1]` is produced, matching the paper where e.g.
//! `livesIn Tokyo` forms the single group of Tokyo residents and
//! falsehood-inferred zero scores join no group (Table 2 weights).

pub mod em;
pub mod equal_width;
pub mod jenks;
pub mod kde;
pub mod kmeans1d;
pub mod quantile;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::ids::BucketIdx;
use crate::profile::{PropertyColumns, UserRepository};

/// A contiguous score range `b ⊆ [0, 1]`.
///
/// Buckets are half-open `[lo, hi)` except the last bucket of a set, which is
/// closed `[lo, hi]` so that the whole partition covers 1.0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Upper bound; inclusive iff `hi_inclusive`.
    pub hi: f64,
    /// Whether `hi` itself belongs to the bucket.
    pub hi_inclusive: bool,
    /// Human-readable label used by explanations (§5), e.g. `"high"`.
    pub label: String,
}

impl Bucket {
    /// Whether score `x` falls in this bucket.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && (x < self.hi || (self.hi_inclusive && x == self.hi))
    }

    /// Renders the range, e.g. `[0.40, 0.65)`.
    pub fn range_string(&self) -> String {
        let close = if self.hi_inclusive { ']' } else { ')' };
        format!("[{:.2}, {:.2}{close}", self.lo, self.hi)
    }
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.label.is_empty() {
            write!(f, "{}", self.range_string())
        } else {
            write!(f, "{} {}", self.label, self.range_string())
        }
    }
}

/// The ordered set of buckets `β(p)` for one property.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BucketSet {
    buckets: Vec<Bucket>,
}

impl BucketSet {
    /// Builds a partition of `[0, 1]` from strictly increasing *interior*
    /// edges. `edges = [0.4, 0.65]` yields `[0, .4), [.4, .65), [.65, 1]`.
    pub fn from_interior_edges(edges: &[f64]) -> Result<Self> {
        let mut all = Vec::with_capacity(edges.len() + 2);
        all.push(0.0);
        all.extend_from_slice(edges);
        all.push(1.0);
        for w in all.windows(2) {
            if w[0] >= w[1] || !w[0].is_finite() || !w[1].is_finite() {
                return Err(CoreError::InvalidBucketEdges(edges.to_vec()));
            }
        }
        let n = all.len() - 1;
        let buckets = all
            .windows(2)
            .enumerate()
            .map(|(i, w)| Bucket {
                lo: w[0],
                hi: w[1],
                hi_inclusive: i == n - 1,
                label: default_label(i, n).to_owned(),
            })
            .collect();
        Ok(Self { buckets })
    }

    /// A single "true" bucket `[0.5, 1]` for Boolean properties. Its label is
    /// empty, as in the paper ("the label of the bucket [1, 1] is empty for
    /// Boolean properties").
    pub fn boolean_true() -> Self {
        Self {
            buckets: vec![Bucket {
                lo: 0.5,
                hi: 1.0,
                hi_inclusive: true,
                label: String::new(),
            }],
        }
    }

    /// An empty bucket set (property observed for no user).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of buckets `|β(p)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether there are no buckets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Borrows the buckets in increasing range order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Borrows one bucket.
    pub fn bucket(&self, idx: BucketIdx) -> Option<&Bucket> {
        self.buckets.get(idx.index())
    }

    /// The bucket containing score `x`, if any.
    pub fn bucket_of(&self, x: f64) -> Option<BucketIdx> {
        self.buckets
            .iter()
            .position(|b| b.contains(x))
            .map(BucketIdx::from_index)
    }

    /// Overwrites bucket labels (e.g. domain-specific names).
    ///
    /// Extra labels are ignored; missing labels keep their defaults.
    pub fn relabel<S: AsRef<str>>(&mut self, labels: &[S]) {
        for (b, l) in self.buckets.iter_mut().zip(labels) {
            b.label = l.as_ref().to_owned();
        }
    }
}

/// Default bucket label for bucket `i` of `n` — "low/medium/high" for the
/// common 3-way split, positional otherwise.
pub fn default_label(i: usize, n: usize) -> &'static str {
    match (n, i) {
        (1, _) => "",
        (2, 0) => "low",
        (2, 1) => "high",
        (3, 0) => "low",
        (3, 1) => "medium",
        (3, 2) => "high",
        (4, 0) => "lowest",
        (4, 1) => "low",
        (4, 2) => "high",
        (4, 3) => "highest",
        (5, 0) => "lowest",
        (5, 1) => "low",
        (5, 2) => "medium",
        (5, 3) => "high",
        (5, 4) => "highest",
        _ => "range",
    }
}

/// 1-D interval splitting strategies for computing `β(p)` (§3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BucketStrategy {
    /// Fixed interior edges shared by all properties (the paper's running
    /// example uses `[0.4, 0.65]`).
    FixedEdges(Vec<f64>),
    /// `k` equal-width intervals over `[0, 1]`.
    EqualWidth,
    /// `k` equal-frequency intervals (quantiles of the observed scores).
    Quantile,
    /// Jenks natural-breaks optimization \[14\]: exact dynamic program
    /// minimizing within-class sum of squared deviations.
    Jenks,
    /// 1-D k-means (Lloyd iterations seeded by quantiles).
    KMeans1D,
    /// Kernel-density valley splitting (Gaussian kernel, Silverman
    /// bandwidth): cuts at the deepest density minima.
    Kde,
    /// 1-D Gaussian-mixture fit by expectation maximization; cuts where the
    /// posterior-most-likely component changes.
    Em,
}

/// Configuration for bucketing an entire repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketingConfig {
    /// The splitting strategy.
    pub strategy: BucketStrategy,
    /// Target number of buckets per non-Boolean property.
    pub buckets_per_property: usize,
    /// Detect Boolean properties (all scores ∈ {0, 1}) and give them a single
    /// `[0.5, 1]` "true" bucket.
    pub detect_boolean: bool,
}

impl BucketingConfig {
    /// The paper's running-example configuration: fixed edges
    /// `[0, 0.4), [0.4, 0.65), [0.65, 1]` with low/medium/high labels and
    /// Boolean detection (Example 3.8).
    pub fn paper_default() -> Self {
        Self {
            strategy: BucketStrategy::FixedEdges(vec![0.4, 0.65]),
            buckets_per_property: 3,
            detect_boolean: true,
        }
    }

    /// A data-adaptive default: 3-bucket quantile splitting with Boolean
    /// detection.
    pub fn adaptive_default() -> Self {
        Self {
            strategy: BucketStrategy::Quantile,
            buckets_per_property: 3,
            detect_boolean: true,
        }
    }

    /// Computes `β(p)` for every property in the repository. The result is
    /// indexed by [`crate::ids::PropertyId`].
    pub fn bucketize(&self, repo: &UserRepository) -> PropertyBuckets {
        self.bucketize_columns(&repo.property_columns())
    }

    /// [`BucketingConfig::bucketize`] over columns already built, so a fit
    /// that also builds groups reads the repository once.
    pub(crate) fn bucketize_columns(&self, columns: &PropertyColumns) -> PropertyBuckets {
        let sets = columns
            .iter()
            .map(|(_, _, scores)| self.bucketize_values(&mut scores.to_vec()))
            .collect();
        PropertyBuckets { sets }
    }

    /// Computes a bucket set for one property's observed scores.
    ///
    /// `values` is scratch space and will be sorted in place.
    pub fn bucketize_values(&self, values: &mut [f64]) -> BucketSet {
        if values.is_empty() {
            return BucketSet::empty();
        }
        if self.detect_boolean && values.iter().all(|&v| v == 0.0 || v == 1.0) {
            return BucketSet::boolean_true();
        }
        values.sort_by(f64::total_cmp);
        let k = self.buckets_per_property.max(1);
        let edges = match &self.strategy {
            BucketStrategy::FixedEdges(e) => e.clone(),
            BucketStrategy::EqualWidth => equal_width::split(k),
            BucketStrategy::Quantile => quantile::split(values, k),
            BucketStrategy::Jenks => jenks::split(values, k),
            BucketStrategy::KMeans1D => kmeans1d::split(values, k),
            BucketStrategy::Kde => kde::split(values, k),
            BucketStrategy::Em => em::split(values, k),
        };
        let edges = sanitize_edges(edges);
        BucketSet::from_interior_edges(&edges)
            .expect("sanitize_edges guarantees valid interior edges")
    }
}

/// Per-property bucket sets for a whole repository.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PropertyBuckets {
    sets: Vec<BucketSet>,
}

impl PropertyBuckets {
    /// Builds directly from per-property bucket sets (tests, custom setups).
    pub fn from_sets(sets: Vec<BucketSet>) -> Self {
        Self { sets }
    }

    /// The bucket set of property `p` (empty set if out of range).
    pub fn of(&self, p: crate::ids::PropertyId) -> &BucketSet {
        static EMPTY: BucketSet = BucketSet {
            buckets: Vec::new(),
        };
        self.sets.get(p.index()).unwrap_or(&EMPTY)
    }

    /// Number of properties covered.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether no properties are covered.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Total number of buckets across all properties (an upper bound on the
    /// number of simple groups).
    pub fn total_buckets(&self) -> usize {
        self.sets.iter().map(BucketSet::len).sum()
    }
}

/// Clamps interior edges into `(0, 1)`, sorts, and removes duplicates or
/// near-duplicates so that [`BucketSet::from_interior_edges`] always succeeds.
fn sanitize_edges(mut edges: Vec<f64>) -> Vec<f64> {
    const EPS: f64 = 1e-9;
    edges.retain(|e| e.is_finite() && *e > EPS && *e < 1.0 - EPS);
    edges.sort_by(f64::total_cmp);
    edges.dedup_by(|a, b| (*a - *b).abs() < EPS);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_contains_half_open_semantics() {
        let set = BucketSet::from_interior_edges(&[0.4, 0.65]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.bucket_of(0.0), Some(BucketIdx(0)));
        assert_eq!(set.bucket_of(0.39999), Some(BucketIdx(0)));
        assert_eq!(set.bucket_of(0.4), Some(BucketIdx(1)));
        assert_eq!(set.bucket_of(0.65), Some(BucketIdx(2)));
        assert_eq!(set.bucket_of(1.0), Some(BucketIdx(2)), "last bucket closed");
        assert_eq!(set.bucket_of(1.5), None);
    }

    #[test]
    fn paper_default_labels() {
        let set = BucketSet::from_interior_edges(&[0.4, 0.65]).unwrap();
        let labels: Vec<&str> = set.buckets().iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, vec!["low", "medium", "high"]);
    }

    #[test]
    fn invalid_edges_rejected() {
        assert!(BucketSet::from_interior_edges(&[0.65, 0.4]).is_err());
        assert!(BucketSet::from_interior_edges(&[0.0]).is_err());
        assert!(BucketSet::from_interior_edges(&[1.0]).is_err());
        assert!(BucketSet::from_interior_edges(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn boolean_detection() {
        let cfg = BucketingConfig::paper_default();
        let mut vals = vec![1.0, 0.0, 1.0];
        let set = cfg.bucketize_values(&mut vals);
        assert_eq!(set.len(), 1);
        assert!(set.buckets()[0].contains(1.0));
        assert!(
            !set.buckets()[0].contains(0.0),
            "false scores join no group"
        );
        assert_eq!(set.buckets()[0].label, "");
    }

    #[test]
    fn non_boolean_values_get_three_buckets() {
        let cfg = BucketingConfig::paper_default();
        let mut vals = vec![0.1, 0.5, 0.9];
        let set = cfg.bucketize_values(&mut vals);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn empty_values_give_empty_set() {
        let cfg = BucketingConfig::paper_default();
        let set = cfg.bucketize_values(&mut []);
        assert!(set.is_empty());
        assert_eq!(set.bucket_of(0.5), None);
    }

    #[test]
    fn sanitize_edges_dedups_and_clamps() {
        let e = sanitize_edges(vec![0.5, 0.5 + 1e-12, -0.3, 1.2, 0.2, f64::NAN]);
        assert_eq!(e, vec![0.2, 0.5]);
    }

    #[test]
    fn bucketize_repository() {
        let mut repo = UserRepository::new();
        let a = repo.add_user("a");
        let b = repo.add_user("b");
        let bool_p = repo.intern_property("livesIn X");
        let cont_p = repo.intern_property("rating Y");
        repo.set_score(a, bool_p, 1.0).unwrap();
        repo.set_score(a, cont_p, 0.9).unwrap();
        repo.set_score(b, cont_p, 0.2).unwrap();
        let pb = BucketingConfig::paper_default().bucketize(&repo);
        assert_eq!(pb.len(), 2);
        assert_eq!(pb.of(bool_p).len(), 1);
        assert_eq!(pb.of(cont_p).len(), 3);
        assert_eq!(pb.total_buckets(), 4);
    }

    #[test]
    fn display_includes_label_and_range() {
        let set = BucketSet::from_interior_edges(&[0.4]).unwrap();
        let s = set.buckets()[0].to_string();
        assert!(s.contains("low"));
        assert!(s.contains("[0.00, 0.40)"));
    }

    #[test]
    fn relabel_overrides() {
        let mut set = BucketSet::from_interior_edges(&[0.5]).unwrap();
        set.relabel(&["bad", "good"]);
        assert_eq!(set.buckets()[0].label, "bad");
        assert_eq!(set.buckets()[1].label, "good");
    }

    #[test]
    fn all_strategies_produce_valid_partitions() {
        let strategies = [
            BucketStrategy::EqualWidth,
            BucketStrategy::Quantile,
            BucketStrategy::Jenks,
            BucketStrategy::KMeans1D,
            BucketStrategy::Kde,
            BucketStrategy::Em,
        ];
        let mut vals: Vec<f64> = (0..100).map(|i| (i as f64) / 99.0).collect();
        for strat in strategies {
            let cfg = BucketingConfig {
                strategy: strat.clone(),
                buckets_per_property: 4,
                detect_boolean: false,
            };
            let set = cfg.bucketize_values(&mut vals);
            assert!(!set.is_empty(), "{strat:?} produced no buckets");
            // Every value must fall in exactly one bucket.
            for &v in vals.iter() {
                let n = set.buckets().iter().filter(|b| b.contains(v)).count();
                assert_eq!(n, 1, "{strat:?}: value {v} in {n} buckets");
            }
        }
    }

    #[test]
    fn constant_data_degrades_gracefully() {
        // All strategies must cope with zero-variance data.
        for strat in [
            BucketStrategy::Quantile,
            BucketStrategy::Jenks,
            BucketStrategy::KMeans1D,
            BucketStrategy::Kde,
            BucketStrategy::Em,
        ] {
            let cfg = BucketingConfig {
                strategy: strat.clone(),
                buckets_per_property: 3,
                detect_boolean: false,
            };
            let mut vals = vec![0.7; 50];
            let set = cfg.bucketize_values(&mut vals);
            assert!(set.bucket_of(0.7).is_some(), "{strat:?} lost the data");
        }
    }
}
