//! The Podium benchmark: four workloads across serving, durability and
//! the offline pipeline, each run in its own process, with a traced run
//! for per-layer numbers. See `README.md` for the workloads, the metrics
//! and the map from each layer to the end-to-end numbers it moves.

pub mod host;
pub mod inputs;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
