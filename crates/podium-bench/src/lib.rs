//! # podium-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§8). Each module implements one experiment; the
//! `experiments` binary dispatches on a subcommand and prints the same
//! rows/series the paper reports. See `EXPERIMENTS.md` at the workspace
//! root for the experiment index and recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx_exp;
pub mod budget_exp;
pub mod constrained_exp;
pub mod custom_exp;
pub mod datasets;
pub mod engine_exp;
pub mod harness;
pub mod intrinsic_exp;
pub mod opinion_exp;
pub mod scalability_exp;
pub mod selectors;
pub mod serving_exp;
pub mod table2_exp;
pub mod timing;
