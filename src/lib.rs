//! # podium
//!
//! Facade crate for the **Podium** framework — a Rust reproduction of
//! *"Diverse User Selection for Opinion Procurement"* (EDBT 2020).
//!
//! This crate re-exports the four library crates of the workspace so that a
//! downstream user needs a single dependency:
//!
//! * [`core`] — the diversification model and algorithms (profiles, buckets,
//!   groups, greedy/lazy/exact selection, explanations, customization);
//! * [`data`] — dataset substrate: JSON profile I/O, taxonomy and inference
//!   rules, synthetic TripAdvisor/Yelp-like population generators with
//!   ground-truth opinions;
//! * [`baselines`] — comparator selectors (random, k-means clustering,
//!   distance-based S-Model, exhaustive optimal);
//! * [`metrics`] — the paper's evaluation metrics (CD-sim, coverage metrics,
//!   opinion-diversity metrics);
//! * [`service`] — the concurrent serving layer: versioned repository
//!   snapshots, a bounded worker pool, sessions, and a line-delimited JSON
//!   protocol over stdin/stdout or a Unix socket.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough of the paper's
//! running example and `DESIGN.md` for the full system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use podium_baselines as baselines;
pub use podium_core as core;
pub use podium_data as data;
pub use podium_metrics as metrics;
pub use podium_service as service;
pub use podium_sim as sim;

pub mod cli;
pub mod service_cli;
pub mod sim_cli;

/// One-stop prelude: the core prelude plus the most-used items of the other
/// crates.
pub mod prelude {
    pub use podium_baselines::prelude::*;
    pub use podium_core::prelude::*;
    pub use podium_data::prelude::*;
    pub use podium_metrics::prelude::*;
}
