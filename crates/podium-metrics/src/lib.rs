//! # podium-metrics
//!
//! The evaluation metric suite of the paper's experimental study (§8.2):
//!
//! * [`cdsim`] — the coverage-oriented distribution similarity of
//!   Definition 8.1, which penalizes only *under*-representation;
//! * [`intrinsic`] — metrics over the selected users' profiles: total
//!   selection score, top-k group coverage, intersected-property coverage,
//!   and group-bucket distribution similarity;
//! * [`opinion`] — metrics over procured opinions: topic+sentiment
//!   coverage, usefulness, rating-distribution similarity, rating variance;
//! * [`overlap`] — pairwise property-overlap statistics of a subset (the
//!   §8.4 "2 versus tens" diagnostic);
//! * [`significance`] — paired bootstrap confidence intervals for
//!   algorithm comparisons;
//! * [`report`] — normalize-to-leader comparison tables (the presentation
//!   form of Figure 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdsim;
pub mod intrinsic;
pub mod opinion;
pub mod overlap;
pub mod report;
pub mod significance;

/// Commonly used items.
pub mod prelude {
    pub use crate::cdsim::cd_sim;
    pub use crate::intrinsic::{
        distribution_similarity, intersected_coverage, top_k_coverage, IntrinsicMetrics,
    };
    pub use crate::opinion::{evaluate_destination, OpinionMetrics};
    pub use crate::overlap::{overlap_stats, OverlapStats};
    pub use crate::report::ComparisonTable;
    pub use crate::significance::{paired_bootstrap, BootstrapResult};
}
