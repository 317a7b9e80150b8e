//! Runs every workload in quick mode (5% of the TripAdvisor shape, a
//! 400-user Fig. 5 input, 1 s windows), untraced and traced, and checks
//! the contract of what a run prints.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use podium_benchmark::report::{spec, MetricSpec};
use podium_benchmark::workloads::WORKLOADS;
use serde_json::Value;

/// Runs one quick run and returns `(report, result)`.
fn quick(bin: &str, workload: &str, seed: u64, trace_dir: Option<&Path>) -> (Value, Value) {
    let mut cmd = Command::new(bin);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--quick",
    ]);
    cmd.args(["--trace", if trace_dir.is_some() { "1" } else { "0" }]);
    if let Some(dir) = trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let report = stdout
        .lines()
        .find(|l| l.starts_with("{\"report\":"))
        .and_then(|l| serde_json::from_str::<Value>(l).ok())
        .and_then(|v| v.get("report").cloned())
        .expect("a report line");
    let result = serde_json::from_str(stdout.lines().last().expect("a last line"))
        .expect("the last line is JSON");
    (report, result)
}

/// The result's metrics are exactly `wanted`, in units the file names.
fn assert_metrics(workload: &str, result: &Value, wanted: &[MetricSpec]) {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object in {result:?}");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for (m, (_, v)) in wanted.iter().zip(metrics) {
        assert_eq!(
            v.get("unit").and_then(Value::as_str),
            Some(m.unit.as_str()),
            "{workload}: unit of {}",
            m.name
        );
        assert!(
            v.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{workload}: value of {}",
            m.name
        );
    }
}

fn assert_clean(workload: &str, result: &Value) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: checks"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}: fail_ratio"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
        "{workload}: attempted"
    );
}

fn digest(report: &Value) -> String {
    report
        .get("input_digest")
        .and_then(Value::as_str)
        .expect("input_digest")
        .to_owned()
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_their_checks() {
    let spec = spec();
    let mut digests = HashMap::new();
    for w in WORKLOADS {
        let (report, result) = quick(env!("CARGO_BIN_EXE_podium-bench"), w, 1, None);
        assert_clean(w, &result);
        assert_metrics(w, &result, &spec.end_to_end);
        digests.insert(w, digest(&report));
    }
    let (again, _) = quick(
        env!("CARGO_BIN_EXE_podium-bench"),
        "offline_pipeline",
        1,
        None,
    );
    assert_eq!(
        digest(&again),
        digests["offline_pipeline"],
        "equal seeds give equal inputs"
    );
    let (other, _) = quick(
        env!("CARGO_BIN_EXE_podium-bench"),
        "offline_pipeline",
        2,
        None,
    );
    assert_ne!(
        digest(&other),
        digests["offline_pipeline"],
        "different seeds give different inputs"
    );
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_link_their_spans() {
    let spec = spec();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace");
    for w in WORKLOADS {
        let (_, result) = quick(env!("CARGO_BIN_EXE_podium-trace"), w, 1, Some(&dir));
        assert_clean(w, &result);
        assert_metrics(w, &result, &spec.per_layer);

        let text =
            std::fs::read_to_string(dir.join(format!("{w}.spans.jsonl"))).expect("a spans file");
        let spans: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("a span line"))
            .collect();
        assert!(!spans.is_empty(), "{w}: no spans");
        let field = |s: &Value, k: &str| {
            s.get(k)
                .and_then(Value::as_u64)
                .expect("numeric span field")
        };
        let by_id: HashMap<u64, &Value> = spans.iter().map(|s| (field(s, "id"), s)).collect();
        assert_eq!(by_id.len(), spans.len(), "{w}: span ids are unique");
        for s in &spans {
            assert!(
                field(s, "start_ns") <= field(s, "end_ns"),
                "{w}: span ends before it starts: {s:?}"
            );
            let parent = field(s, "parent");
            if parent == 0 {
                continue;
            }
            let p = by_id
                .get(&parent)
                .unwrap_or_else(|| panic!("{w}: dangling parent in {s:?}"));
            assert_eq!(
                field(p, "request"),
                field(s, "request"),
                "{w}: parent of another request"
            );
            assert!(
                field(p, "start_ns") <= field(s, "start_ns")
                    && field(s, "end_ns") <= field(p, "end_ns"),
                "{w}: child {s:?} outside parent {p:?}"
            );
        }
    }
}
