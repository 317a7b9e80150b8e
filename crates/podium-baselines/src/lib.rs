//! # podium-baselines
//!
//! The comparator selection algorithms of the paper's experimental study
//! (§8.3):
//!
//! * [`random`] — uniform random selection (common survey practice);
//! * [`clustering`] — k-means over the high-dimensional profiles, one
//!   near-mean representative per cluster;
//! * [`distance`] — the distance-based S-Model: greedy maximization of
//!   pairwise Jaccard distances between property sets;
//! * [`optimal`] — exhaustive optimal selection (tiny instances only).
//!
//! All selectors implement the common [`selector::Selector`] trait so the
//! experiment harness can drive them interchangeably.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
pub mod distance;
pub mod optimal;
pub mod random;
pub mod selector;

/// Commonly used items.
pub mod prelude {
    pub use crate::clustering::KMeansSelector;
    pub use crate::distance::DistanceSelector;
    pub use crate::optimal::OptimalSelector;
    pub use crate::random::RandomSelector;
    pub use crate::selector::Selector;
}
