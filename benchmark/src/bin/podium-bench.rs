//! The benchmark's command line.
//!
//! * `podium-bench --workload W --seed N --seconds S --trace 0 [--quick]`
//!   runs one workload in this process and prints its result.
//! * `podium-bench run --seed N [--workloads a,b] [--seconds S]
//!   [--repeat R] [--out FILE] [--trace DIR] [--quick]` runs each workload
//!   in a child process (R times, seeds N, N+1, …), checks outputs and
//!   prints every end-to-end metric with its unit and sample count. With
//!   `--trace DIR` it adds one traced run per workload, prints the
//!   per-layer metrics and the tracing overhead, and writes spans to DIR.
//!   `--out FILE` records the runs; runs already in FILE are kept, so
//!   alternating invocations build up two comparable sets.
//! * `podium-bench compare A.json B.json` gives one verdict per workload
//!   (`ok`, `worse` or `unresolved`) using `BENCHMARK.json`'s bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use podium_benchmark::report::{run_main, spec, MetricSpec};
use podium_benchmark::stats::quartiles;
use podium_benchmark::workloads::WORKLOADS;
use serde_json::Value;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => return run_main(&args, None),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One child run as recorded in an `--out` file.
#[derive(Debug, Clone)]
struct Record(Value);

impl Record {
    fn str(&self, key: &str) -> &str {
        self.0.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    fn traced(&self) -> bool {
        self.0
            .get("trace")
            .and_then(Value::as_bool)
            .unwrap_or(false)
    }

    /// `(name, unit, value, samples)` of the named list (`metrics`,
    /// `details` or `layers`).
    fn list(&self, key: &str) -> Vec<(String, String, f64, u64)> {
        self.0
            .get(key)
            .and_then(Value::as_array)
            .map(|l| {
                l.iter()
                    .map(|m| {
                        (
                            m.get("name")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_owned(),
                            m.get("unit")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_owned(),
                            m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                            m.get("samples").and_then(Value::as_u64).unwrap_or(0),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn value(&self, key: &str, name: &str) -> Option<f64> {
        self.list(key)
            .into_iter()
            .find(|m| m.0 == name)
            .map(|m| m.2)
    }
}

/// Runs one child and returns its report merged with its result line.
fn child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    trace_dir: Option<&Path>,
) -> Result<Record, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace_dir.is_some() { "1" } else { "0" }]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parse = |l: &str| serde_json::from_str::<Value>(l).ok();
    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix("{\"report\":").and(parse(l)));
    let result = stdout
        .lines()
        .last()
        .and_then(parse)
        .filter(|v| v.get("correct").is_some());
    let (Some(report), Some(result)) = (report, result) else {
        return Err(format!(
            "{workload} (seed {seed}) exited with {} and no result:\n{stdout}",
            out.status
        ));
    };
    let Some(Value::Object(mut fields)) = report.get("report").cloned() else {
        return Err(format!("{workload}: malformed report line"));
    };
    for key in ["correct", "attempted", "failed"] {
        fields.push((key.into(), result.get(key).cloned().unwrap_or(Value::Null)));
    }
    Ok(Record(Value::Object(fields)))
}

/// Options of `run`.
struct RunOpts {
    seed: u64,
    workloads: Vec<String>,
    seconds: Option<f64>,
    repeat: u64,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        seed: 2020,
        workloads: WORKLOADS.iter().map(|w| (*w).to_owned()).collect(),
        seconds: None,
        repeat: 1,
        out: None,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workloads" => o.workloads = value()?.split(',').map(str::to_owned).collect(),
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--repeat" => o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--trace" => o.trace = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = o
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload '{w}' (expected one of {WORKLOADS:?})"
        ));
    }
    if o.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(o)
}

/// Builds the traced binary with this binary's profile and returns its
/// path, next to this one.
fn trace_binary(exe: &Path) -> Result<PathBuf, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let mut cargo = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cargo.args([
        "build",
        "--offline",
        "--quiet",
        "--bin",
        "podium-trace",
        "--manifest-path",
    ]);
    cargo.arg(&manifest);
    if !cfg!(debug_assertions) {
        cargo.arg("--release");
    }
    let status = cargo.status().map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("building podium-trace failed with {status}"));
    }
    Ok(exe.with_file_name(format!("podium-trace{}", std::env::consts::EXE_SUFFIX)))
}

/// `(median, q1, q3)` of values; q1 = q3 = median for a single value.
fn summary(values: &[f64]) -> (f64, Option<(f64, f64)>) {
    match quartiles(values) {
        Some((q1, m, q3)) => (m, Some((q1, q3))),
        None => (values.first().copied().unwrap_or(f64::NAN), None),
    }
}

fn print_table(title: &str, runs: &[&Record], key: &str) {
    let Some(first) = runs.first() else { return };
    let rows = first.list(key);
    if rows.is_empty() {
        return;
    }
    println!("  {title}");
    println!(
        "    {:<34} {:>14} {:>25} {:<8} {:>9}",
        "metric", "median", "[q1, q3]", "unit", "samples"
    );
    for (name, unit, _, samples) in rows {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(key, &name)).collect();
        let (m, q) = summary(&values);
        let q = q.map_or(String::new(), |(a, b)| format!("[{a:.4}, {b:.4}]"));
        println!("    {name:<34} {m:>14.4} {q:>25} {unit:<8} {samples:>9}");
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let o = parse_run(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    for r in 0..o.repeat {
        for w in &o.workloads {
            eprintln!("running {w} (seed {})", o.seed + r);
            records.push(child(&exe, w, o.seed + r, o.seconds, o.quick, None)?);
        }
    }
    if let Some(dir) = &o.trace {
        let tracer = trace_binary(&exe)?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for w in &o.workloads {
            eprintln!("tracing {w} (seed {})", o.seed);
            records.push(child(&tracer, w, o.seed, o.seconds, o.quick, Some(dir))?);
        }
    }

    let mut all_ok = true;
    for w in &o.workloads {
        let plain: Vec<&Record> = records
            .iter()
            .filter(|r| r.str("workload") == w && !r.traced())
            .collect();
        let traced: Vec<&Record> = records
            .iter()
            .filter(|r| r.str("workload") == w && r.traced())
            .collect();
        let n = |key: &str| {
            plain
                .iter()
                .filter_map(|r| r.0.get(key).and_then(Value::as_u64))
                .sum::<u64>()
        };
        let failed_checks: Vec<String> = plain
            .iter()
            .chain(&traced)
            .flat_map(|r| {
                r.0.get("checks")
                    .and_then(Value::as_array)
                    .cloned()
                    .unwrap_or_default()
            })
            .filter(|c| c.get("passed").and_then(Value::as_bool) != Some(true))
            .map(|c| {
                format!(
                    "{} ({})",
                    c.get("name").and_then(Value::as_str).unwrap_or("?"),
                    c.get("detail").and_then(Value::as_str).unwrap_or("")
                )
            })
            .collect();
        let (attempted, failed) = (n("attempted"), n("failed"));
        all_ok &= failed_checks.is_empty() && failed == 0;
        println!(
            "== {w}: {} run(s), input_digest {}, fail_ratio {} ({failed} of {attempted} ops), checks {}",
            plain.len(),
            plain.first().map_or("-", |r| r.str("input_digest")),
            if attempted > 0 { failed as f64 / attempted as f64 } else { 0.0 },
            if failed_checks.is_empty() { "all pass".to_owned() } else { format!("FAILED: {}", failed_checks.join("; ")) }
        );
        print_table("end to end", &plain, "metrics");
        print_table("workload details", &plain, "details");
        if let Some(t) = traced.first() {
            print_table("per layer (traced run)", &traced, "layers");
            let spans =
                t.0.get("spans")
                    .and_then(Value::as_array)
                    .cloned()
                    .unwrap_or_default();
            if !spans.is_empty() {
                println!("  span self time (traced run)");
                for s in spans {
                    println!(
                        "    {:<34} {:>14.2} us mean over {}",
                        s.get("name").and_then(Value::as_str).unwrap_or("?"),
                        s.get("self_us_mean")
                            .and_then(Value::as_f64)
                            .unwrap_or(f64::NAN),
                        s.get("count").and_then(Value::as_u64).unwrap_or(0)
                    );
                }
            }
            println!("  trace_overhead (traced / untraced - 1)");
            for (name, unit, value, _) in t.list("metrics") {
                let base: Vec<f64> = plain
                    .iter()
                    .filter_map(|r| r.value("metrics", &name))
                    .collect();
                let (m, _) = summary(&base);
                println!(
                    "    {name:<34} {value:>14.4} {unit:<8} vs {m:.4}: {:+.1}%",
                    (value / m - 1.0) * 100.0
                );
            }
        }
    }
    if let Some(path) = &o.out {
        let mut runs = match std::fs::read_to_string(path) {
            Ok(text) => load_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            Err(_) => Vec::new(),
        };
        runs.extend(records.into_iter().map(|r| r.0));
        let doc = Value::Object(vec![
            ("schema".into(), Value::String("podium.benchmark/1".into())),
            ("runs".into(), Value::Array(runs)),
        ]);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

fn load_runs(text: &str) -> Result<Vec<Value>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Value::as_str) != Some("podium.benchmark/1") {
        return Err("not a podium.benchmark/1 file".into());
    }
    Ok(doc
        .get("runs")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default())
}

/// The verdict on one metric of one workload, and why.
fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> (&'static str, String) {
    let bound = m.bound.unwrap_or(0.0);
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return (
            "unresolved",
            format!("{}: needs two runs on each side", m.name),
        );
    };
    let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
    let lower = m.better == "lower";
    let worse_by = if lower { bm / am - 1.0 } else { 1.0 - bm / am };
    let all_better = if lower {
        b.iter().all(|x| a.iter().all(|y| x < y))
    } else {
        b.iter().all(|x| a.iter().all(|y| x > y))
    };
    let text = format!(
        "{}: {am:.4} -> {bm:.4} {} ({:+.1}% worse, spread {:.1}%, bound {:.0}%)",
        m.name,
        m.unit,
        worse_by * 100.0,
        spread * 100.0,
        bound * 100.0
    );
    // Set-up time is judged on its median alone: a set-up is short and
    // cold, so its spread from run to run can exceed the bound while the
    // median of a set holds still.
    if all_better {
        ("ok", text)
    } else if spread > bound && m.name != "setup_s" {
        ("unresolved", text)
    } else if worse_by > bound {
        ("worse", text)
    } else {
        ("ok", text)
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |p: &String| -> Result<Vec<Record>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Ok(load_runs(&text)
            .map_err(|e| format!("{p}: {e}"))?
            .into_iter()
            .map(Record)
            .filter(|r| !r.traced())
            .collect())
    };
    let (a, b) = (read(a)?, read(b)?);
    let spec = spec();
    let mut all_ok = true;
    for w in WORKLOADS {
        let side = |runs: &[Record], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.str("workload") == w)
                .filter_map(|r| r.value("metrics", name))
                .collect()
        };
        if side(&a, "setup_s").is_empty() && side(&b, "setup_s").is_empty() {
            continue;
        }
        let verdicts: Vec<(&str, String)> = spec
            .end_to_end
            .iter()
            .map(|m| verdict(m, &side(&a, &m.name), &side(&b, &m.name)))
            .collect();
        let row = ["worse", "unresolved"]
            .into_iter()
            .find(|v| verdicts.iter().any(|(x, _)| x == v))
            .unwrap_or("ok");
        all_ok &= row == "ok";
        println!("{w:<18} {row}");
        for (v, text) in verdicts {
            println!("    {v:<10} {text}");
        }
    }
    Ok(all_ok)
}
