//! # podium-core
//!
//! Core library of **Podium**, a framework for selecting *diverse* subsets of
//! users for opinion procurement, reproducing the EDBT 2020 paper
//! *"Diverse User Selection for Opinion Procurement"* (Amsterdamer &
//! Goldreich).
//!
//! Podium implements **coverage-based** diversification: given a repository
//! of high-dimensional user profiles, it forms (possibly overlapping)
//! population groups from the profile properties, assigns each group a weight
//! and a required coverage, and then selects a budget-bounded user subset
//! maximizing the total weight of covered groups. The objective is monotone
//! submodular, so greedy selection yields a `(1 - 1/e)` approximation of the
//! optimum (Proposition 4.4 of the paper).
//!
//! ## Pipeline
//!
//! 1. Build a [`profile::UserRepository`] of sparse `property -> score`
//!    profiles with scores normalized to `[0, 1]`.
//! 2. Split each property's score range into buckets with a
//!    [`bucket::BucketStrategy`] (equal-width, quantile, Jenks natural
//!    breaks, 1-D k-means, KDE valleys, or a 1-D Gaussian-mixture EM).
//! 3. Materialize simple groups `G_{p,b}` into a [`group::GroupSet`].
//! 4. Choose weight ([`weights::WeightScheme`]) and coverage
//!    ([`weights::CovScheme`]) functions and assemble a
//!    [`instance::DiversificationInstance`].
//! 5. Run [`greedy::greedy_select`] — Algorithm 1 — or the engine's one
//!    entry point [`engine::select`] with a [`engine::SelectSpec`] naming
//!    the strategy (eager, CELF lazy, stochastic), eligibility, quotas,
//!    warm-start bounds, or a deadline hook; on tiny instances the
//!    exhaustive [`exact::exact_select`] gives the optimum.
//! 6. Inspect the selection with [`explain`] and refine it with
//!    [`customize`] feedback.
//!
//! ## Quick example (the paper's Table 2 running example)
//!
//! ```
//! use podium_core::prelude::*;
//!
//! let mut repo = UserRepository::new();
//! let alice = repo.add_user("Alice");
//! let bob = repo.add_user("Bob");
//! let lives_tokyo = repo.intern_property("livesIn Tokyo");
//! let mexican = repo.intern_property("avgRating Mexican");
//! repo.set_score(alice, lives_tokyo, 1.0).unwrap();
//! repo.set_score(alice, mexican, 0.95).unwrap();
//! repo.set_score(bob, mexican, 0.3).unwrap();
//!
//! let buckets = BucketingConfig::paper_default().bucketize(&repo);
//! let groups = GroupSet::build(&repo, &buckets);
//! let inst = DiversificationInstance::from_schemes(
//!     &groups, WeightScheme::LinearBySize, CovScheme::Single, 2,
//! );
//! let sel = greedy_select(&inst, 2);
//! assert!(sel.users.len() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod customize;
pub mod engine;
pub mod error;
pub mod exact;
pub mod explain;
pub mod greedy;
pub mod group;
pub mod ids;
pub mod incremental;
pub mod instance;
pub mod pipeline;
pub mod profile;
pub mod reduction;
pub mod rng;
pub mod score;
pub mod submodular;
#[cfg(test)]
pub(crate) mod testutil;
pub mod weights;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::bucket::{Bucket, BucketSet, BucketStrategy, BucketingConfig};
    pub use crate::customize::{custom_select, CustomSelection, Feedback};
    pub use crate::engine::{select, CsrGraph, SelectSpec};
    pub use crate::error::{CoreError, Result};
    pub use crate::exact::exact_select;
    pub use crate::explain::{explain_group, explain_subset_group, explain_user, SelectionReport};
    pub use crate::greedy::{greedy_select, Selection};
    pub use crate::group::{GroupExpr, GroupSet, SimpleGroup};
    pub use crate::ids::{BucketIdx, GroupId, PropertyId, UserId};
    pub use crate::instance::DiversificationInstance;
    pub use crate::pipeline::{FittedPodium, Podium};
    pub use crate::profile::{Profile, UserRepository};
    pub use crate::score::{EbsValue, LexPair, ScoreValue};
    pub use crate::weights::{CovScheme, WeightScheme};
}
