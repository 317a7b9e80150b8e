//! Drift experiment: select throughput and publish latency while
//! profiles drift, per publish mode (the paper's "executed multiple
//! times, e.g., to incorporate data updates" setting, §9, run as an
//! online service).
//!
//! Every cell is one `podium-sim` run of the checked-in closed-loop
//! scenario `configs/serve.json` (10⁴ users, budget 64, four clients),
//! with only the drift rate, the publish mode and the window overridden.
//! Its numbers are the dashboard's: the `sim` section that
//! `podium-cli sim report` computes from the run's request log.

use podium_service::protocol::{num_f64, num_u64};
use podium_service::snapshot::PublishMode;
use podium_sim::driver::{run_sim_with, Deployment, SimOptions};
use podium_sim::scenario::{parse_scenario, Scenario};
use podium_sim::transport::TransportSpec;
use serde_json::Value;

/// The serving scenario every cell starts from (`configs/serve.json`,
/// compiled in so the experiment runs from any directory).
pub fn serve_scenario() -> Scenario {
    parse_scenario(include_str!("../../../configs/serve.json")).expect("configs/serve.json parses")
}

/// Profile-drift rates (updates/second) the drift matrix sweeps. Under
/// the immediate publish policy each update is one epoch, so the rate is
/// also the publish rate.
pub const DRIFT_RATES: [u64; 3] = [10, 100, 500];

/// One cell of the drift matrix.
#[derive(Debug, Clone)]
pub struct DriftCell {
    /// Publish mode tag (`full_rebuild` or `incremental`).
    pub mode: &'static str,
    /// Offered drift rate, updates per second.
    pub drift_hz: u64,
    /// The dashboard's `sim` section over the cell's logs.
    pub sim: Value,
}

impl DriftCell {
    /// A numeric field of the cell's `sim` section.
    pub fn num(&self, key: &str) -> f64 {
        self.field(key, Value::as_f64)
    }

    /// A counter of the cell's `sim` section.
    pub fn count(&self, key: &str) -> u64 {
        self.field(key, Value::as_u64)
    }

    /// Reads `key` of the `sim` section with `read`. Panics when the
    /// section lacks it, so a renamed field cannot read as zero.
    fn field<T>(&self, key: &str, read: fn(&Value) -> Option<T>) -> T {
        let value = self.sim.get(key).and_then(read);
        value
            .ok_or_else(|| format!("no field '{key}' in {:?}", self.sim))
            .expect("a drift cell's sim section carries every field the experiment reads")
    }

    /// The update rate the cell achieved: epochs published over the
    /// run's window. Below [`DriftCell::drift_hz`] when the event loop,
    /// which sends updates one at a time, fell behind the offered rate.
    pub fn achieved_hz(&self) -> f64 {
        let window_s = self.num("window_s");
        if window_s > 0.0 {
            self.num("publishes") / window_s
        } else {
            0.0
        }
    }
}

fn mode_tag(mode: PublishMode) -> &'static str {
    match mode {
        PublishMode::Incremental => "incremental",
        PublishMode::FullRebuild => "full_rebuild",
    }
}

/// The serving scenario of one cell: `configs/serve.json` at `drift_hz`,
/// run for `(1.5 · scale)` seconds clamped to `[0.4, 6]`.
pub fn drift_scenario(scale: f64, drift_hz: u64) -> Scenario {
    let mut scenario = serve_scenario();
    scenario.drift.rate_hz = drift_hz as f64;
    scenario.duration_s = (1.5 * scale).clamp(0.4, 6.0);
    scenario
}

/// Runs one cell in process; its numbers are the run's dashboard section.
pub fn run_cell(scenario: &Scenario, mode: PublishMode, seed: u64) -> DriftCell {
    let options = SimOptions {
        seed,
        transport: TransportSpec::Inproc,
    };
    let deployment = Deployment {
        publish_mode: mode,
        durability: None,
    };
    let output = run_sim_with(scenario, &options, &deployment).expect("in-process sim runs");
    DriftCell {
        mode: mode_tag(mode),
        drift_hz: scenario.drift.rate_hz as u64,
        sim: output.dashboard,
    }
}

/// Runs the full drift matrix: every rate in [`DRIFT_RATES`] under both
/// publish modes (full rebuild first, its incremental counterpart next,
/// so adjacent rows compare directly).
pub fn run_drift(scale: f64, seed: u64) -> Vec<DriftCell> {
    let mut cells = Vec::new();
    for &hz in &DRIFT_RATES {
        let scenario = drift_scenario(scale, hz);
        for mode in [PublishMode::FullRebuild, PublishMode::Incremental] {
            cells.push(run_cell(&scenario, mode, seed));
        }
    }
    cells
}

/// Renders the drift matrix in the driver's table style.
pub fn render_drift(cells: &[DriftCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let base = serve_scenario();
    let _ = writeln!(
        out,
        "repository: {} users, budget {}; {} clients over {} workers",
        base.population.users, base.session.budget, base.clients, base.service.workers
    );
    let _ = writeln!(
        out,
        "{:>13} {:>9} {:>12} {:>10} {:>12} {:>13} {:>13} {:>10} {:>8}",
        "mode",
        "drift Hz",
        "achieved Hz",
        "req/s",
        "select p99",
        "publish p50",
        "publish p99",
        "memo hit",
        "epochs"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:>13} {:>9} {:>12.1} {:>10.1} {:>9} us {:>10} us {:>10} us {:>9.1}% {:>8}",
            c.mode,
            c.drift_hz,
            c.achieved_hz(),
            c.num("throughput_rps"),
            c.count("p99_us"),
            c.count("publish_p50_us"),
            c.count("publish_p99_us"),
            100.0 * c.num("cache_hit_rate"),
            c.count("publishes"),
        );
    }
    for &hz in &DRIFT_RATES {
        if let Some(speedup) = publish_speedup(cells, hz) {
            let _ = writeln!(
                out,
                "publish p50 speedup at {hz} Hz: {speedup:.1}x (incremental over full rebuild)"
            );
        }
    }
    out
}

/// Median-publish-latency speedup of incremental over full rebuild at
/// drift rate `hz`; `None` unless the matrix holds both modes at that
/// rate with nonzero latencies.
pub fn publish_speedup(cells: &[DriftCell], hz: u64) -> Option<f64> {
    let p50 = |mode: &str| {
        cells
            .iter()
            .find(|c| c.drift_hz == hz && c.mode == mode)
            .map(|c| c.num("publish_p50_us"))
    };
    match (p50("full_rebuild"), p50("incremental")) {
        (Some(full), Some(inc)) if inc > 0.0 && full > 0.0 => Some(full / inc),
        _ => None,
    }
}

/// One `BENCH_6.json` point: the cell's parameters, its achieved update
/// rate, and its `sim` section.
fn point(cell: &DriftCell) -> Value {
    let mut pairs = vec![
        ("mode".to_owned(), Value::String(cell.mode.to_owned())),
        ("drift_hz".to_owned(), num_u64(cell.drift_hz)),
        ("achieved_hz".to_owned(), num_f64(cell.achieved_hz())),
    ];
    if let Value::Object(sim) = &cell.sim {
        pairs.extend(sim.iter().cloned());
    }
    Value::Object(pairs)
}

/// Serializes the drift matrix as the `BENCH_6.json` artifact: one row
/// per cell plus the per-rate publish-latency speedups.
pub fn bench6_json(cells: &[DriftCell]) -> String {
    let speedups: Vec<Value> = DRIFT_RATES
        .iter()
        .filter_map(|&hz| {
            publish_speedup(cells, hz).map(|s| {
                Value::Object(vec![
                    ("drift_hz".to_owned(), num_u64(hz)),
                    ("publish_p50_speedup".to_owned(), num_f64(s)),
                ])
            })
        })
        .collect();
    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::String("drift".to_owned())),
        (
            "drift_rates_hz".to_owned(),
            Value::Array(DRIFT_RATES.iter().map(|&hz| num_u64(hz)).collect()),
        ),
        (
            "points".to_owned(),
            Value::Array(cells.iter().map(point).collect()),
        ),
        ("publish_speedups".to_owned(), Value::Array(speedups)),
    ]);
    serde_json::to_string_pretty(&doc).expect("artifact serialization is infallible")
}

/// The status-row `details` for the drift matrix: the `BENCH_6.json`
/// points, one per cell.
pub fn drift_details_json(cells: &[DriftCell]) -> String {
    let points = Value::Array(cells.iter().map(point).collect());
    serde_json::to_string(&Value::Object(vec![("cells".to_owned(), points)]))
        .expect("details serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_cells_override_only_rate_mode_and_window() {
        let base = serve_scenario();
        assert_eq!(base.population.users, 10_000);
        assert_eq!(base.session.budget, 64);
        assert_eq!((base.clients, base.service.workers), (4, 4));
        assert_eq!(base.service.queue_capacity, 512);
        assert_eq!(base.drift.rate_hz, 10.0);
        let cell = drift_scenario(0.01, 500);
        assert_eq!(cell.drift.rate_hz, 500.0);
        assert_eq!(cell.duration_s, 0.4, "window floor applies");
        assert_eq!(cell.population.users, base.population.users);
        assert_eq!(drift_scenario(1.0, 10).duration_s, 1.5);
    }

    #[test]
    #[should_panic(expected = "no field 'failed'")]
    fn a_missing_sim_field_is_an_error_not_zero() {
        let cell = DriftCell {
            mode: "incremental",
            drift_hz: 10,
            sim: Value::Null,
        };
        let _ = cell.count("failed");
    }

    #[test]
    fn tiny_drift_cells_render_and_serialize() {
        // One rate, both modes, a small population and short window: the
        // matrix shape without the full runtime.
        let mut scenario = drift_scenario(0.01, DRIFT_RATES[0]);
        scenario.population.users = 200;
        scenario.duration_s = 0.25;
        let cells: Vec<DriftCell> = [PublishMode::FullRebuild, PublishMode::Incremental]
            .into_iter()
            .map(|mode| run_cell(&scenario, mode, 11))
            .collect();
        for c in &cells {
            assert_eq!(c.count("failed"), 0, "{:?}", c.sim);
            assert_eq!(c.count("inconsistent"), 0, "{:?}", c.sim);
            assert!(c.count("served") > 0, "{:?}", c.sim);
        }
        // The serving scenario adds no users, so every incremental epoch
        // is a patch, and each one-update epoch relinks at most the users
        // of its catch-up span.
        let inc = &cells[1];
        assert_eq!(inc.count("patched_publishes"), inc.count("publishes"));
        assert!(
            inc.count("reverse_links_rewritten") <= 16 * inc.count("publishes"),
            "{:?}",
            inc.sim
        );
        let table = render_drift(&cells);
        assert!(table.contains("full_rebuild"), "{table}");
        assert!(table.contains("incremental"), "{table}");
        let artifact = bench6_json(&cells);
        let doc: Value = serde_json::from_str(&artifact).unwrap();
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("drift"));
        let points = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].get("throughput_rps").is_some(), "{artifact}");
        assert!(points[0].get("achieved_hz").is_some(), "{artifact}");
        let details = drift_details_json(&cells);
        let doc: Value = serde_json::from_str(&details).unwrap();
        assert_eq!(
            doc.get("cells").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
    }
}
