//! One run in its own process: argument parsing, the end-to-end metrics
//! and the lines a run prints.
//!
//! A run prints readable `metric`/`check` lines, then one `{"report": …}`
//! line with everything it measured (sample counts, checks, the input
//! digest, workload details and per-layer values), and last the result
//! object `{"correct", "attempted", "failed", "metrics"}` whose metrics are
//! exactly the `end_to_end` list of `BENCHMARK.json` (untraced) or its
//! `per_layer` list (traced).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use podium_core::bucket::BucketingConfig;
use podium_core::profile::UserRepository;
use serde_json::Value;

use crate::stats::{median, percentile, sorted};
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{self, Metric, Outcome, Plan};

/// The benchmark definition, compiled in so a run and the file can never
/// disagree about metric names, units and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Spans a traced run can hold.
const SPAN_CAPACITY: usize = 1 << 18;

/// A metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` a run needs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Window length of one run, in seconds.
    pub run_seconds: u64,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(v: &Value, key: &str) -> Vec<MetricSpec> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .map(|m| MetricSpec {
                    name: m
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    better: m
                        .get("better")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Parses `BENCHMARK.json`.
pub fn spec() -> Spec {
    let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: v.get("run_seconds").and_then(Value::as_u64).unwrap_or(20),
        end_to_end: metric_specs(&v, "end_to_end"),
        per_layer: metric_specs(&v, "per_layer"),
    }
}

/// The end-to-end metrics of a run, measured the same way on every
/// workload. "Operation" is the workload's main operation: a select on
/// the two select workloads, a whole session on `durable_sessions`, a
/// repetition on `offline_pipeline`. Timings are scaled to the reference
/// host speed (see [`crate::host`]).
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let setup: Vec<f64> = o.setups.iter().map(|(s, f)| s * f).collect();
    let latency = o.latency.scaled(&o.probes);
    let ops: u64 = o.ops.iter().sum();
    let cpu: f64 = (0..o.probes.windows())
        .map(|k| o.probes.cpu(k) * o.probes.factor(k))
        .sum();
    vec![
        Metric::new("setup_s", "s", median(&setup).unwrap_or(0.0), setup.len()),
        Metric::new("peak_rss_mb", "MB", o.peak_rss_mb, 1),
        Metric::new(
            "latency_p50_us",
            "us",
            percentile(&latency, 50.0).unwrap_or(0.0),
            latency.len(),
        ),
        Metric::new("cpu_us_per_op", "us", per_op(cpu, ops), ops as usize),
    ]
}

fn per_op(cpu_s: f64, ops: u64) -> f64 {
    if ops > 0 {
        cpu_s * 1e6 / ops as f64
    } else {
        0.0
    }
}

/// The main operation's latency at the workload's tail percentile (scaled
/// like the end-to-end timings), the end-to-end timings unscaled, and the
/// probe. Host contention moves the tail by more than any bound allows
/// from run to run, so it is reported, and listed among the per-layer
/// metrics, but not gated.
pub fn unscaled_and_tail(o: &Outcome) -> Vec<Metric> {
    let latency = o.latency.scaled(&o.probes);
    let raw = o.latency.raw();
    let setup: Vec<f64> = o.setups.iter().map(|(s, _)| *s).collect();
    let ops: u64 = o.ops.iter().sum();
    let cpu: f64 = (0..o.probes.windows()).map(|k| o.probes.cpu(k)).sum();
    let probe = o.probes.probe_ms();
    vec![
        Metric::new(
            "latency_tail_us",
            "us",
            percentile(&latency, o.tail).unwrap_or(0.0),
            latency.len(),
        ),
        Metric::new(
            "raw.setup_s",
            "s",
            median(&setup).unwrap_or(0.0),
            setup.len(),
        ),
        Metric::new(
            "raw.latency_p50_us",
            "us",
            percentile(&raw, 50.0).unwrap_or(0.0),
            raw.len(),
        ),
        Metric::new(
            "raw.latency_tail_us",
            "us",
            percentile(&raw, o.tail).unwrap_or(0.0),
            raw.len(),
        ),
        Metric::new("raw.cpu_us_per_op", "us", per_op(cpu, ops), ops as usize),
        Metric::new(
            "host.probe_ms",
            "ms",
            median(&probe).unwrap_or(0.0),
            probe.len(),
        ),
    ]
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// What to run.
    pub plan: Plan,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--quick]
/// [--trace-dir DIR]`.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut trace_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("trace");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--trace-dir" => trace_dir = PathBuf::from(value()?),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {:?})",
            workloads::WORKLOADS
        ));
    }
    Ok(RunArgs {
        plan: Plan {
            workload,
            seed: seed.ok_or("--seed is required")?,
            warmup: Duration::from_secs_f64(if quick { 0.2 } else { 2.0 }),
            window: Duration::from_secs_f64(seconds.unwrap_or(spec().run_seconds as f64)),
            quick,
        },
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

/// The per-layer pass of a traced run: times each layer's public
/// functions on the run's final repository and returns the values.
pub type LayerPass =
    fn(&Plan, UserRepository, BucketingConfig, &Tracer) -> Result<Vec<Metric>, String>;

fn metric_value(m: &Metric) -> Value {
    Value::Object(vec![
        ("name".into(), Value::String(m.name.clone())),
        ("unit".into(), Value::String(m.unit.into())),
        ("value".into(), number(m.value)),
        (
            "samples".into(),
            Value::Number(serde_json::Number::PosInt(m.samples as u64)),
        ),
    ])
}

/// A JSON number; non-finite values (never produced by a correct run)
/// print as `null`.
pub fn number(x: f64) -> Value {
    Value::Number(serde_json::Number::Float(x))
}

/// Runs one workload and prints its lines. `layer_pass` is given by the
/// traced binary only.
pub fn run_main(args: &[String], layer_pass: Option<LayerPass>) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != layer_pass.is_some() {
        eprintln!(
            "error: --trace {} runs in the {} binary",
            u8::from(args.trace),
            if args.trace {
                "podium-trace"
            } else {
                "podium-bench"
            }
        );
        return ExitCode::from(2);
    }
    match run_and_print(&args, layer_pass) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `service.select_elapsed_p50_us`, the median `elapsed_us` of the selects
/// the traced window served, and `engine.celf_share`, the layer pass's
/// CELF time as a share of it; nothing on a workload without selects.
fn select_share(spans: &[Span], layers: &[Metric]) -> Vec<Metric> {
    let elapsed = sorted(
        spans
            .iter()
            .filter(|s| s.name == "service.select")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect(),
    );
    let Some(p50) = percentile(&elapsed, 50.0) else {
        return Vec::new();
    };
    let mut out = vec![Metric::new(
        "service.select_elapsed_p50_us",
        "us",
        p50,
        elapsed.len(),
    )];
    if let Some(celf) = layers.iter().find(|m| m.name == "engine.celf_us") {
        out.push(Metric::new(
            "engine.celf_share",
            "ratio",
            celf.value / p50,
            elapsed.len(),
        ));
    }
    out
}

/// Runs, prints, and says whether every check passed.
fn run_and_print(args: &RunArgs, layer_pass: Option<LayerPass>) -> Result<bool, String> {
    let spec = spec();
    let tracer = if args.trace {
        Tracer::on(SPAN_CAPACITY)
    } else {
        Tracer::off()
    };
    let mut outcome = workloads::run(&args.plan, &tracer)?;
    let e2e = end_to_end(&outcome);
    let details: Vec<Metric> = unscaled_and_tail(&outcome)
        .into_iter()
        .chain(outcome.details.drain(..))
        .collect();
    let mut layers = Vec::new();
    if let (Some(pass), Some((repo, bucketing))) = (layer_pass, outcome.final_input.take()) {
        layers = pass(&args.plan, repo, bucketing, &tracer)?;
        let share = select_share(&tracer.spans(), &layers);
        layers.extend(share);
        std::fs::create_dir_all(&args.trace_dir).map_err(|e| format!("trace dir: {e}"))?;
        let path = args
            .trace_dir
            .join(format!("{}.spans.jsonl", args.plan.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans {}", path.display());
    }
    let spans: Vec<Value> = self_times(&tracer.spans())
        .into_iter()
        .map(|(name, own_ns, count)| {
            Value::Object(vec![
                ("name".into(), Value::String(name.into())),
                (
                    "self_us_mean".into(),
                    number(own_ns as f64 / 1e3 / count as f64),
                ),
                (
                    "count".into(),
                    Value::Number(serde_json::Number::PosInt(count as u64)),
                ),
            ])
        })
        .collect();

    let correct = outcome.checks.iter().all(|c| c.passed);
    for c in &outcome.checks {
        println!(
            "check {} {} {}",
            c.name,
            if c.passed { "pass" } else { "FAIL" },
            c.detail
        );
    }
    for m in e2e.iter().chain(&details).chain(&layers) {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    println!("input_digest {:016x}", outcome.digest);
    let checks: Vec<Value> = outcome
        .checks
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("name".into(), Value::String(c.name.into())),
                ("passed".into(), Value::Bool(c.passed)),
                ("detail".into(), Value::String(c.detail.clone())),
            ])
        })
        .collect();
    let list = |ms: &[Metric]| Value::Array(ms.iter().map(metric_value).collect());
    let report = Value::Object(vec![(
        "report".into(),
        Value::Object(vec![
            ("workload".into(), Value::String(args.plan.workload.clone())),
            (
                "seed".into(),
                Value::Number(serde_json::Number::PosInt(args.plan.seed)),
            ),
            ("trace".into(), Value::Bool(args.trace)),
            (
                "input_digest".into(),
                Value::String(format!("{:016x}", outcome.digest)),
            ),
            ("tail_percentile".into(), number(outcome.tail)),
            ("checks".into(), Value::Array(checks)),
            ("metrics".into(), list(&e2e)),
            ("details".into(), list(&details)),
            ("layers".into(), list(&layers)),
            ("spans".into(), Value::Array(spans)),
        ]),
    )]);
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );

    // A traced run reports the per-layer list: the layer pass plus the
    // window values listed there; an untraced run the end-to-end list.
    let (wanted, have): (_, Vec<&Metric>) = if args.trace {
        (&spec.per_layer, layers.iter().chain(&details).collect())
    } else {
        (&spec.end_to_end, e2e.iter().collect())
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for w in wanted {
        let m = have.iter().find(|m| m.name == w.name).ok_or_else(|| {
            format!(
                "BENCHMARK.json lists '{}' but the run did not measure it",
                w.name
            )
        })?;
        if m.unit != w.unit {
            return Err(format!(
                "'{}' is measured in {} but BENCHMARK.json says {}",
                m.name, m.unit, w.unit
            ));
        }
        metrics.push((
            m.name.clone(),
            Value::Object(vec![
                ("value".into(), number(m.value)),
                ("unit".into(), Value::String(m.unit.into())),
            ]),
        ));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Number(serde_json::Number::PosInt(outcome.attempted)),
        ),
        (
            "failed".into(),
            Value::Number(serde_json::Number::PosInt(outcome.failed)),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}
