//! Deterministic workload simulation and unified observability for the
//! Podium serving layer.
//!
//! The paper's procurement setting is temporal: users arrive, opinions
//! drift, and the selector is re-queried as the population changes
//! (§9's "may be easily executed multiple times, e.g., to incorporate
//! data updates"). This crate turns that into a reproducible workload:
//!
//! * [`rng`] — exponential gaps and Markov-row steps over the
//!   workspace's seeded stream, one stream per stochastic process;
//! * [`events`] — the virtual-clock event heap (min-heap on
//!   `(virtual_time, seq)`), the discrete-event core;
//! * [`scenario`] — versioned JSON scenario definitions
//!   (`podium.scenario/1`): rates, drift matrices, session mix;
//! * [`population`] — the synthetic population and its per-(user,
//!   property) Markov bucket states, mirrored into the repository;
//! * [`transport`] — how generated requests reach the real service:
//!   one endpoint per run (in-process, Unix socket, or TCP via
//!   [`podium_service::client::PodiumClient`], optionally through the
//!   virtual-clock chaos proxy) that every party connects to, plus the
//!   one classifier of request outcomes by failure cause;
//! * [`clients`] — closed-loop clients: threads that send `select`
//!   back-to-back for the whole run (the throughput scenario), and the
//!   wall-clock pacing of the event loop while they run;
//! * [`driver`] — the simulation loop: pops events, emits real
//!   protocol requests, records the event trace (byte-identical per
//!   seed), the per-request latency/outcome/staleness log, and a
//!   deterministic rollup; with a [`driver::Deployment`] it also runs
//!   the service durable or under a chosen publish mode;
//! * [`stream`] — schema-validated JSONL ingestion with typed errors
//!   (mixed versions and non-monotone sequence numbers are rejected,
//!   not panicked over);
//! * [`report`] — the unified dashboard: one pass over experiment-status,
//!   lint, and simulator streams, producing a human-readable dashboard
//!   plus the machine `BENCH_*.json` rollup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clients;
pub mod driver;
pub mod events;
pub mod population;
pub mod report;
pub mod rng;
pub mod scenario;
pub mod stream;
pub mod transport;

pub use driver::{run_sim, run_sim_with, Deployment, SimOptions, SimOutput};
pub use scenario::{parse_scenario, Scenario};
pub use stream::{read_streams, StreamError};
pub use transport::TransportSpec;

/// Why a simulation or report could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scenario document failed to parse or validate.
    Scenario(String),
    /// Transport setup failed (bind, connect, socket).
    Transport(String),
    /// A dashboard input stream was rejected.
    Stream(stream::StreamError),
    /// Filesystem-level failure.
    Io(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Scenario(m) => write!(f, "scenario error: {m}"),
            SimError::Transport(m) => write!(f, "transport error: {m}"),
            SimError::Stream(e) => write!(f, "stream error: {e}"),
            SimError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<stream::StreamError> for SimError {
    fn from(e: stream::StreamError) -> Self {
        SimError::Stream(e)
    }
}
