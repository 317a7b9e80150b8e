//! Tier-1 determinism contract of the simulator: the same seed and
//! scenario must reproduce the event trace and rollup byte-for-byte,
//! distinct seeds must diverge, and the emitted streams must round-trip
//! through the dashboard's validating reader.

use podium_sim::driver::{run_sim, SimOptions, SimOutput};
use podium_sim::report::render;
use podium_sim::scenario::parse_scenario;
use podium_sim::stream::{parse_stream, StreamKind};
use podium_sim::transport::TransportSpec;

fn smoke_scenario() -> podium_sim::Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/sim_smoke.json");
    let text = std::fs::read_to_string(path).expect("read configs/sim_smoke.json");
    parse_scenario(&text).expect("checked-in scenario parses")
}

fn run(seed: u64, transport: TransportSpec) -> SimOutput {
    run_sim(&smoke_scenario(), &SimOptions { seed, transport }).expect("sim runs")
}

#[test]
fn same_seed_same_trace_and_rollup() {
    let a = run(42, TransportSpec::Inproc);
    let b = run(42, TransportSpec::Inproc);
    assert_eq!(a.trace, b.trace, "event trace must be byte-identical");
    let ra = serde_json::to_string(&a.rollup).unwrap();
    let rb = serde_json::to_string(&b.rollup).unwrap();
    assert_eq!(ra, rb, "rollup must be byte-identical");
    assert!(!a.trace.is_empty());
}

/// FNV-1a 64 over `bytes`, the digest `constraint_fingerprint` uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn sim_smoke_seed_701_is_pinned() {
    // `sim run --scenario configs/sim_smoke.json --seed 701` writes these
    // bytes as trace.jsonl (sha256 75958ca6…) and rollup.json (0910e7b0…).
    // A refactor that moves the simulator's stream moves these digests.
    let out = run(701, TransportSpec::Inproc);
    let rollup = serde_json::to_string(&out.rollup).unwrap();
    assert_eq!(fnv1a(out.trace.as_bytes()), 0x853d_2947_89cc_2a60, "trace");
    assert_eq!(fnv1a(rollup.as_bytes()), 0xefd6_7a40_a4b3_ccde, "rollup");
}

#[test]
fn distinct_seeds_distinct_traces() {
    let a = run(1, TransportSpec::Inproc);
    let b = run(2, TransportSpec::Inproc);
    assert_ne!(a.trace, b.trace, "different seeds must diverge");
}

#[test]
fn trace_is_transport_independent_for_healthy_transports() {
    // The trace records what the generator *asked*, which is fixed by
    // the seed before any response arrives; a healthy (non-chaos)
    // transport answers every request, so the schedule never forks.
    let inproc = run(7, TransportSpec::Inproc);
    let unix = run(7, TransportSpec::Unix);
    assert_eq!(inproc.trace, unix.trace);
}

#[test]
fn emitted_streams_round_trip_through_the_dashboard_reader() {
    let out = run(9, TransportSpec::Inproc);
    let trace = parse_stream("trace.jsonl", &out.trace).expect("trace stream validates");
    assert_eq!(trace.kind, StreamKind::SimTrace);
    let requests = parse_stream("requests.jsonl", &out.requests).expect("request stream validates");
    assert_eq!(requests.kind, StreamKind::SimRequests);
    let (human, rollup) = render(&[trace, requests], None);
    assert!(human.contains("-- simulator --"), "{human}");
    let sim = rollup.get("sim").expect("sim section present");
    let n = sim
        .get("requests")
        .and_then(serde_json::Value::as_u64)
        .expect("request count");
    assert!(n > 0);
}

#[test]
fn closed_loop_trace_is_a_function_of_the_seed() {
    // Closed-loop clients and wall-clock pacing change what the service
    // is doing while the event loop runs, never what the loop asks.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/serve_smoke.json"
    );
    let text = std::fs::read_to_string(path).expect("read configs/serve_smoke.json");
    let mut scenario = parse_scenario(&text).expect("checked-in scenario parses");
    assert!(
        scenario.clients > 0,
        "serve_smoke is a closed-loop scenario"
    );
    scenario.population.users = 300;
    scenario.duration_s = 0.4;
    let run = || {
        run_sim(
            &scenario,
            &SimOptions {
                seed: 701,
                transport: TransportSpec::Inproc,
            },
        )
        .expect("sim runs")
    };
    let (a, b) = (run(), run());
    assert!(a.trace.lines().count() > 10, "trace too small");
    assert_eq!(a.trace, b.trace, "closed-loop trace must be byte-identical");
}
