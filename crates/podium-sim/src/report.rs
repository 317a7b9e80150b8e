//! The unified observability dashboard: one pass over every stream the
//! workspace emits.
//!
//! `podium sim report` feeds this module experiment harness status rows,
//! podium-lint findings, and simulator trace/request logs — in any
//! combination — and gets back two views of the same aggregation:
//!
//! * a human text dashboard, sectioned per stream kind, and
//! * a machine rollup (`podium.dashboard-rollup/1`) checked in as
//!   `BENCH_8.json`: closed-loop req/s and p50/p99, per-op percentiles,
//!   the failure breakdown, cache hit rate, publish latency, WAL/recovery
//!   stats, and the lint suppression-debt count.
//!
//! Aggregation rules are deliberately simple and documented here so the
//! numbers are auditable: experiment and lint sections count rows; the
//! sim section recomputes everything from the raw request logs. Its
//! headline comes from one run — the last log with closed-loop client
//! rows, else the last log: req/s is that run's `ok` client selects over
//! its window, service counters come from its newest `stats` row, client
//! breaker states from its `client-health` rows and durability figures
//! from its newest `recovery` row. Failure counters and per-op
//! percentiles cover every row of every log.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use podium_service::protocol::{num_f64, num_u64};
use serde_json::Value;

use crate::driver::percentiles;
use crate::stream::{JsonlStream, StreamKind};
use crate::transport::Tally;

/// Schema tag of the machine rollup this module produces.
pub const DASHBOARD_SCHEMA: &str = "podium.dashboard-rollup/1";

/// Per-op accumulator for the sim section.
#[derive(Default)]
struct OpStats {
    count: u64,
    ok: u64,
    failed: u64,
    latencies_us: Vec<u64>,
    max_staleness: u64,
}

/// Renders the dashboard over validated streams. Returns the human text
/// and the machine rollup; either is useful without the other.
/// `previous` is the prior run's rollup document when the caller has
/// one (e.g. the `--out` file about to be overwritten): the lint
/// section diffs suppression debt against it.
pub fn render(streams: &[JsonlStream], previous: Option<&Value>) -> (String, Value) {
    let mut human = String::new();
    let mut rollup: Vec<(String, Value)> = vec![
        (
            "schema".to_owned(),
            Value::String(DASHBOARD_SCHEMA.to_owned()),
        ),
        ("bench".to_owned(), Value::String("sim-report".to_owned())),
    ];

    let _ = writeln!(human, "==== podium dashboard ====");
    let mut source_pairs: Vec<(String, Value)> = Vec::new();
    for kind in [
        StreamKind::ExperimentStatus,
        StreamKind::Lint,
        StreamKind::SimTrace,
        StreamKind::SimRequests,
    ] {
        let files: Vec<&JsonlStream> = streams.iter().filter(|s| s.kind == kind).collect();
        if files.is_empty() {
            continue;
        }
        let rows: usize = files.iter().map(|s| s.rows.len()).sum();
        let _ = writeln!(
            human,
            "source: {:<18} {} row(s) from {} file(s)",
            kind.schema(),
            rows,
            files.len()
        );
        source_pairs.push((
            kind.schema().to_owned(),
            num_u64(u64::try_from(rows).unwrap_or(u64::MAX)),
        ));
    }
    rollup.push(("sources".to_owned(), Value::Object(source_pairs)));

    if let Some(section) = experiments_section(streams, &mut human) {
        rollup.push(("experiments".to_owned(), section));
    }
    if let Some(section) = lint_section(streams, previous, &mut human) {
        rollup.push(("lint".to_owned(), section));
    }
    if let Some(section) = sim_section(streams, &mut human) {
        rollup.push(("sim".to_owned(), section));
    }

    (human, Value::Object(rollup))
}

/// All rows of one kind, across files, in file order.
fn rows_of(streams: &[JsonlStream], kind: StreamKind) -> Vec<&Value> {
    streams
        .iter()
        .filter(|s| s.kind == kind)
        .flat_map(|s| s.rows.iter())
        .collect()
}

fn get_u64(row: &Value, key: &str) -> u64 {
    row.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn get_f64(row: &Value, key: &str) -> f64 {
    row.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Experiment sweep health: outcome counts and which experiments failed.
fn experiments_section(streams: &[JsonlStream], human: &mut String) -> Option<Value> {
    let rows = rows_of(streams, StreamKind::ExperimentStatus);
    if rows.is_empty() {
        return None;
    }
    let mut ok = 0u64;
    let mut panicked = 0u64;
    let mut timed_out = 0u64;
    let mut total_seconds = 0.0f64;
    let mut failures: Vec<String> = Vec::new();
    for row in &rows {
        let name = row.get("name").and_then(Value::as_str).unwrap_or("?");
        let outcome = row.get("outcome").and_then(Value::as_str).unwrap_or("?");
        total_seconds += get_f64(row, "seconds");
        match outcome {
            "ok" => ok += 1,
            "panicked" => {
                panicked += 1;
                failures.push(format!("{name} (panicked)"));
            }
            "timed_out" => {
                timed_out += 1;
                failures.push(format!("{name} (timed out)"));
            }
            other => failures.push(format!("{name} ({other})")),
        }
    }
    let _ = writeln!(human, "\n-- experiments --");
    let _ = writeln!(
        human,
        "{ok} ok, {panicked} panicked, {timed_out} timed out in {total_seconds:.1}s total"
    );
    if !failures.is_empty() {
        let _ = writeln!(human, "failures: {}", failures.join(", "));
    }
    Some(Value::Object(vec![
        ("ok".to_owned(), num_u64(ok)),
        ("panicked".to_owned(), num_u64(panicked)),
        ("timed_out".to_owned(), num_u64(timed_out)),
        ("total_seconds".to_owned(), num_f64(total_seconds)),
    ]))
}

/// Hygiene: denied findings and the suppression-debt count (findings
/// carrying an `allowed: true` justification).
fn lint_section(
    streams: &[JsonlStream],
    previous: Option<&Value>,
    human: &mut String,
) -> Option<Value> {
    let rows = rows_of(streams, StreamKind::Lint);
    if rows.is_empty() {
        return None;
    }
    let mut denied = 0u64;
    let mut suppressed_debt = 0u64;
    let mut by_rule: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for row in &rows {
        let rule = row.get("rule").and_then(Value::as_str).unwrap_or("?");
        let counts = by_rule.entry(rule.to_owned()).or_insert((0, 0));
        if row.get("allowed").and_then(Value::as_bool) == Some(true) {
            suppressed_debt += 1;
            counts.1 += 1;
        } else {
            denied += 1;
            counts.0 += 1;
        }
    }
    let _ = writeln!(human, "\n-- lint --");
    let _ = writeln!(
        human,
        "{denied} denied, {suppressed_debt} suppressed with justification (suppression debt)"
    );
    let top: Vec<String> = by_rule
        .iter()
        .map(|(rule, (d, s))| format!("{rule} {d}/{s}"))
        .collect();
    let _ = writeln!(human, "by rule (denied/suppressed): {}", top.join(", "));
    // Debt trend against the previous rollup, when the caller had one.
    let prev_debt = previous
        .and_then(|p| p.get("lint"))
        .and_then(|l| l.get("suppressed_debt"))
        .and_then(Value::as_u64);
    let debt_delta = prev_debt.map(|prev| {
        // podium-lint: allow(as-cast) — suppression counts are far below i64::MAX
        let delta = suppressed_debt as i64 - prev as i64;
        match delta.cmp(&0) {
            std::cmp::Ordering::Greater => {
                let _ = writeln!(human, "suppression debt: +{delta} vs previous rollup (NEW DEBT)");
            }
            std::cmp::Ordering::Less => {
                let _ = writeln!(human, "suppression debt: {delta} vs previous rollup (burned down)");
            }
            std::cmp::Ordering::Equal => {
                let _ = writeln!(human, "suppression debt: unchanged vs previous rollup");
            }
        }
        delta
    });
    let mut pairs = vec![
        (
            "total".to_owned(),
            num_u64(u64::try_from(rows.len()).unwrap_or(u64::MAX)),
        ),
        ("denied".to_owned(), num_u64(denied)),
        ("suppressed_debt".to_owned(), num_u64(suppressed_debt)),
        (
            "by_rule".to_owned(),
            Value::Object(
                by_rule
                    .into_iter()
                    .map(|(rule, (d, s))| {
                        (
                            rule,
                            Value::Object(vec![
                                ("denied".to_owned(), num_u64(d)),
                                ("suppressed".to_owned(), num_u64(s)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(delta) = debt_delta {
        pairs.push(("debt_delta".to_owned(), num_i64(delta)));
    }
    Some(Value::Object(pairs))
}

/// A signed JSON number (the vendored serde_json splits the int range).
fn num_i64(n: i64) -> Value {
    if n < 0 {
        Value::Number(serde_json::Number::NegInt(n))
    } else {
        num_u64(n.unsigned_abs())
    }
}

/// Simulator section: the closed-loop headline, failure breakdown,
/// service counters, durability figures, and per-op latency percentiles,
/// all recomputed from the raw request logs; trace rows counted if
/// present. `sim run` prints it for its own logs.
pub(crate) fn sim_section(streams: &[JsonlStream], human: &mut String) -> Option<Value> {
    let logs: Vec<&JsonlStream> = streams
        .iter()
        .filter(|s| s.kind == StreamKind::SimRequests)
        .collect();
    let request_rows: usize = logs.iter().map(|s| s.rows.len()).sum();
    let trace_rows = rows_of(streams, StreamKind::SimTrace).len();
    if request_rows == 0 && trace_rows == 0 {
        return None;
    }
    let mut per_op: BTreeMap<String, OpStats> = BTreeMap::new();
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut tally = Tally::default();
    for log in &logs {
        for row in &log.rows {
            let op = row.get("op").and_then(Value::as_str).unwrap_or("?");
            let outcome = row.get("outcome").and_then(Value::as_str).unwrap_or("?");
            let latency_us = get_u64(row, "latency_us");
            let stats = per_op.entry(op.to_owned()).or_default();
            stats.count += 1;
            if outcome == "ok" {
                stats.ok += 1;
            } else {
                stats.failed += 1;
            }
            stats.latencies_us.push(latency_us);
            stats.max_staleness = stats.max_staleness.max(get_u64(row, "staleness"));
            *outcomes.entry(outcome.to_owned()).or_insert(0) += 1;
            tally.add(outcome, 1);
        }
    }
    // The headline run: the last log with closed-loop clients, else the
    // last log. Its window ends at its last client completion.
    let is_client = |row: &&Value| row.get("client").is_some();
    let headline = logs
        .iter()
        .rev()
        .find(|log| log.rows.iter().any(|row| is_client(&row)))
        .or(logs.last())
        .map_or(&[] as &[Value], |log| log.rows.as_slice());
    let of_op = |op: &'static str| {
        headline
            .iter()
            .filter(move |row| row.get("op").and_then(Value::as_str) == Some(op))
    };
    let client_rows = || of_op("select").filter(is_client);
    let client_ok_us: Vec<u64> = client_rows()
        .filter(|row| row.get("outcome").and_then(Value::as_str) == Some("ok"))
        .map(|row| get_u64(row, "latency_us"))
        .collect();
    let window_us = client_rows()
        .map(|row| get_u64(row, "vt_us").saturating_add(get_u64(row, "latency_us")))
        .max()
        .unwrap_or(0);
    let breakers: Vec<&str> = of_op("client-health")
        .map(|row| row.get("state").and_then(Value::as_str).unwrap_or("?"))
        .collect();
    let latest_stats = of_op("stats").next_back();
    let latest_recovery = of_op("recovery").next_back();
    let queue_depth_max = of_op("stats")
        .map(|row| get_u64(row, "queue_depth"))
        .max()
        .unwrap_or(0);
    let served = u64::try_from(client_ok_us.len()).unwrap_or(u64::MAX);
    let window_s = std::time::Duration::from_micros(window_us).as_secs_f64();
    let throughput_rps = if window_s > 0.0 {
        // podium-lint: allow(as-cast) — request counts are far below 2^53
        served as f64 / window_s
    } else {
        0.0
    };
    let counter = |key: &str| latest_stats.map_or(0, |row| get_u64(row, key));
    let (cache_hits, cache_misses) = (counter("cache_hits"), counter("cache_misses"));
    let cache_total = cache_hits + cache_misses;
    let cache_hit_rate = if cache_total > 0 {
        // podium-lint: allow(as-cast) — cache counters are far below 2^53
        cache_hits as f64 / cache_total as f64
    } else {
        0.0
    };
    let durable = |key: &str| latest_recovery.map_or(0, |row| get_u64(row, key));
    let recovery_ms =
        std::time::Duration::from_micros(durable("latency_us")).as_secs_f64() * 1_000.0;
    let (p50, p99) = percentiles(&client_ok_us);

    let _ = writeln!(human, "\n-- simulator --");
    let _ = writeln!(
        human,
        "{request_rows} request(s), {trace_rows} trace event(s)"
    );
    if served > 0 {
        let _ = writeln!(
            human,
            "closed loop: {throughput_rps:.1} req/s, p50 {p50}us p99 {p99}us over {served} ok client select(s)"
        );
    }
    let _ = writeln!(human, "{}", tally.line());
    if !breakers.is_empty() {
        let _ = writeln!(human, "client breakers: {}", breakers.join(", "));
    }
    if latest_stats.is_some() {
        let _ = writeln!(
            human,
            "cache: {:.1}% hit rate ({cache_hits}/{cache_total}); {} publishes, publish p50 {}us p99 {}us; max queue depth {queue_depth_max}",
            cache_hit_rate * 100.0,
            counter("publishes"),
            counter("publish_p50_micros"),
            counter("publish_p99_micros"),
        );
    }
    if latest_recovery.is_some() {
        let _ = writeln!(
            human,
            "durable: wal {} bytes, last checkpoint epoch {}; cold recovery {recovery_ms:.1} ms to epoch {}",
            durable("wal_bytes"),
            durable("last_checkpoint_epoch"),
            durable("epoch")
        );
    }
    let mut op_pairs: Vec<(String, Value)> = Vec::new();
    for (op, stats) in &per_op {
        let (p50, p99) = percentiles(&stats.latencies_us);
        let _ = writeln!(
            human,
            "  {op:<15} n={:<6} ok={:<6} failed={:<4} p50={p50}us p99={p99}us max-staleness={}",
            stats.count, stats.ok, stats.failed, stats.max_staleness
        );
        op_pairs.push((
            op.clone(),
            Value::Object(vec![
                ("count".to_owned(), num_u64(stats.count)),
                ("ok".to_owned(), num_u64(stats.ok)),
                ("failed".to_owned(), num_u64(stats.failed)),
                ("p50_us".to_owned(), num_u64(p50)),
                ("p99_us".to_owned(), num_u64(p99)),
                ("max_staleness".to_owned(), num_u64(stats.max_staleness)),
            ]),
        ));
    }
    let outcome_line: Vec<String> = outcomes.iter().map(|(t, n)| format!("{t} {n}")).collect();
    if !outcome_line.is_empty() {
        let _ = writeln!(human, "  outcomes: {}", outcome_line.join(", "));
    }
    let outcome_pairs: Vec<(String, Value)> =
        outcomes.into_iter().map(|(t, n)| (t, num_u64(n))).collect();
    let rows = |n: usize| num_u64(u64::try_from(n).unwrap_or(u64::MAX));
    let fields: Vec<(&str, Value)> = vec![
        ("requests", rows(request_rows)),
        ("trace_events", rows(trace_rows)),
        ("throughput_rps", num_f64(throughput_rps)),
        ("window_s", num_f64(window_s)),
        ("p50_us", num_u64(p50)),
        ("p99_us", num_u64(p99)),
        ("served", num_u64(served)),
        ("failed", num_u64(tally.failed())),
        ("failed_deadline", num_u64(tally.deadline)),
        ("failed_transport", num_u64(tally.transport)),
        ("failed_other", num_u64(tally.other)),
        ("overloaded", num_u64(tally.overloaded)),
        ("inconsistent", num_u64(tally.inconsistent)),
        ("cache_hits", num_u64(cache_hits)),
        ("cache_misses", num_u64(cache_misses)),
        ("cache_hit_rate", num_f64(cache_hit_rate)),
        ("publishes", num_u64(counter("publishes"))),
        ("patched_publishes", num_u64(counter("patched_publishes"))),
        ("publish_p50_us", num_u64(counter("publish_p50_micros"))),
        ("publish_p99_us", num_u64(counter("publish_p99_micros"))),
        (
            "member_lists_rewritten",
            num_u64(counter("member_lists_rewritten")),
        ),
        (
            "reverse_links_rewritten",
            num_u64(counter("reverse_links_rewritten")),
        ),
        ("csr_rows_written", num_u64(counter("csr_rows_written"))),
        ("queue_depth_max", num_u64(queue_depth_max)),
        ("wal_bytes", num_u64(durable("wal_bytes"))),
        (
            "last_checkpoint_epoch",
            num_u64(durable("last_checkpoint_epoch")),
        ),
        ("recovery_ms", num_f64(recovery_ms)),
        ("recovered_epoch", num_u64(durable("epoch"))),
        ("per_op", Value::Object(op_pairs)),
        ("outcomes", Value::Object(outcome_pairs)),
    ];
    let pairs = fields
        .into_iter()
        .map(|(key, value)| (key.to_owned(), value));
    Some(Value::Object(pairs.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    /// Two request logs: a durable closed-loop run (two clients, an
    /// observer, a client-health row, a recovery row) and, after it, an
    /// event-loop-only run with its own observer and two failures.
    fn request_logs() -> Vec<JsonlStream> {
        let serve = parse_stream(
            "serve/requests.jsonl",
            concat!(
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":0,\"vt_us\":0,\"op\":\"stats\",\"outcome\":\"ok\",\"latency_us\":20,\"epoch\":0,\"cache_hits\":1,\"cache_misses\":1,\"publishes\":0,\"publish_p50_micros\":0,\"publish_p99_micros\":0,\"queue_depth\":3}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":1,\"vt_us\":500000,\"op\":\"update-profile\",\"outcome\":\"ok\",\"latency_us\":400,\"epoch\":1}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":2,\"vt_us\":900000,\"op\":\"stats\",\"outcome\":\"ok\",\"latency_us\":20,\"epoch\":1,\"cache_hits\":30,\"cache_misses\":10,\"publishes\":1,\"patched_publishes\":1,\"publish_p50_micros\":6,\"publish_p99_micros\":11,\"member_lists_rewritten\":2,\"reverse_links_rewritten\":1,\"csr_rows_written\":1,\"queue_depth\":1}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":3,\"vt_us\":0,\"op\":\"select\",\"outcome\":\"ok\",\"latency_us\":100,\"epoch\":0,\"client\":0}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":4,\"vt_us\":100,\"op\":\"select\",\"outcome\":\"ok\",\"latency_us\":300,\"epoch\":1,\"client\":0}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":5,\"vt_us\":400,\"op\":\"select\",\"outcome\":\"overloaded\",\"latency_us\":5,\"client\":0}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":6,\"vt_us\":0,\"op\":\"select\",\"outcome\":\"inconsistent\",\"latency_us\":200,\"epoch\":0,\"client\":1}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":7,\"vt_us\":999000,\"op\":\"select\",\"outcome\":\"ok\",\"latency_us\":1000,\"epoch\":1,\"client\":1}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":8,\"vt_us\":1000000,\"op\":\"client-health\",\"outcome\":\"ok\",\"latency_us\":0,\"client\":0,\"state\":\"closed\",\"consecutive_failures\":0,\"last_transition_epoch\":0,\"last_seen_epoch\":1}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":9,\"vt_us\":1000000,\"op\":\"recovery\",\"outcome\":\"ok\",\"latency_us\":1500,\"epoch\":1,\"wal_bytes\":4096,\"last_checkpoint_epoch\":0}\n",
            ),
        )
        .unwrap();
        let chaos = parse_stream(
            "chaos/requests.jsonl",
            concat!(
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":0,\"vt_us\":10,\"op\":\"update-profile\",\"outcome\":\"transport\",\"latency_us\":90}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":1,\"vt_us\":20,\"op\":\"select\",\"outcome\":\"deadline_exceeded\",\"latency_us\":2000}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":2,\"vt_us\":30,\"op\":\"stats\",\"outcome\":\"ok\",\"latency_us\":20,\"epoch\":0,\"cache_hits\":0,\"cache_misses\":9,\"publishes\":0,\"queue_depth\":7}\n",
            ),
        )
        .unwrap();
        vec![serve, chaos]
    }

    #[test]
    fn sim_headline_comes_from_the_request_logs() {
        let (human, rollup) = render(&request_logs(), None);
        let sim = rollup.get("sim").unwrap();
        let num = |key: &str| sim.get(key).and_then(Value::as_f64).unwrap();
        // The headline run is the closed-loop log even though the other
        // log comes later: three ok client selects over its window (its
        // last client completion, 1.0 s).
        assert_eq!(num("served"), 3.0);
        assert_eq!(num("window_s"), 1.0);
        assert!((num("throughput_rps") - 3.0).abs() < 1e-9, "{sim:?}");
        assert_eq!((num("p50_us"), num("p99_us")), (300.0, 300.0));
        // Failures summed over every row of both logs.
        assert_eq!(num("failed"), 2.0);
        assert_eq!(num("failed_deadline"), 1.0);
        assert_eq!(num("failed_transport"), 1.0);
        assert_eq!(num("failed_other"), 0.0);
        assert_eq!(num("overloaded"), 1.0);
        assert_eq!(num("inconsistent"), 1.0);
        // Service counters from the headline run's newest stats row,
        // queue depth maxed over its stats rows.
        assert_eq!((num("cache_hits"), num("cache_misses")), (30.0, 10.0));
        assert_eq!(num("cache_hit_rate"), 0.75);
        assert_eq!((num("publishes"), num("publish_p50_us")), (1.0, 6.0));
        assert_eq!(num("publish_p99_us"), 11.0);
        assert_eq!(num("patched_publishes"), 1.0);
        assert_eq!(
            (
                num("member_lists_rewritten"),
                num("reverse_links_rewritten"),
                num("csr_rows_written")
            ),
            (2.0, 1.0, 1.0)
        );
        assert_eq!(num("queue_depth_max"), 3.0);
        // Durability from the recovery row.
        assert_eq!(num("wal_bytes"), 4096.0);
        assert_eq!(num("recovery_ms"), 1.5);
        assert_eq!(num("recovered_epoch"), 1.0);
        assert!(human.contains("closed loop: 3.0 req/s"), "{human}");
        assert!(human.contains("client breakers: closed\n"), "{human}");
        assert!(
            human.contains(
                "failed 2 (deadline 1, transport 1, other 0), overloaded 1, inconsistent 1"
            ),
            "{human}"
        );
        assert!(
            human.contains(
                "durable: wal 4096 bytes, last checkpoint epoch 0; cold recovery 1.5 ms to epoch 1"
            ),
            "{human}"
        );
    }

    #[test]
    fn experiments_and_lint_sections_count_rows() {
        let exp = parse_stream(
            "status.jsonl",
            concat!(
                "{\"schema\":\"podium.experiment-status/1\",\"seq\":0,\"name\":\"fig3a\",\"outcome\":\"ok\",\"seconds\":1.5}\n",
                "{\"schema\":\"podium.experiment-status/1\",\"seq\":1,\"name\":\"drift\",\"outcome\":\"panicked\",\"seconds\":0.5,\"message\":\"boom\"}\n",
            ),
        )
        .unwrap();
        let lint = parse_stream(
            "lint.jsonl",
            concat!(
                "{\"schema\":\"podium.lint/1\",\"seq\":0,\"file\":\"a.rs\",\"line\":1,\"col\":1,\"rule\":\"unwrap\",\"message\":\"m\",\"allowed\":false}\n",
                "{\"schema\":\"podium.lint/1\",\"seq\":1,\"file\":\"b.rs\",\"line\":2,\"col\":1,\"rule\":\"index\",\"message\":\"m\",\"allowed\":true,\"justification\":\"why\"}\n",
            ),
        )
        .unwrap();
        let (human, rollup) = render(&[exp, lint], None);
        let e = rollup.get("experiments").unwrap();
        assert_eq!(e.get("ok").and_then(Value::as_u64), Some(1));
        assert_eq!(e.get("panicked").and_then(Value::as_u64), Some(1));
        let l = rollup.get("lint").unwrap();
        assert_eq!(l.get("denied").and_then(Value::as_u64), Some(1));
        assert_eq!(l.get("suppressed_debt").and_then(Value::as_u64), Some(1));
        assert!(human.contains("drift (panicked)"), "{human}");
        assert!(human.contains("suppression debt"), "{human}");
        // No simulator stream → no sim section.
        assert!(rollup.get("sim").is_none());
        // Per-rule breakdown: unwrap was denied, index was suppressed.
        let by_rule = l.get("by_rule").unwrap();
        let unwrap_counts = by_rule.get("unwrap").unwrap();
        assert_eq!(unwrap_counts.get("denied").and_then(Value::as_u64), Some(1));
        assert_eq!(
            unwrap_counts.get("suppressed").and_then(Value::as_u64),
            Some(0)
        );
        let index_counts = by_rule.get("index").unwrap();
        assert_eq!(
            index_counts.get("suppressed").and_then(Value::as_u64),
            Some(1)
        );
        // No previous rollup → no delta field.
        assert!(l.get("debt_delta").is_none());
    }

    #[test]
    fn lint_debt_delta_diffs_against_the_previous_rollup() {
        let lint_rows = || {
            parse_stream(
                "lint.jsonl",
                concat!(
                    "{\"schema\":\"podium.lint/1\",\"seq\":0,\"file\":\"a.rs\",\"line\":1,\"col\":1,\"rule\":\"unwrap\",\"message\":\"m\",\"allowed\":true,\"justification\":\"why\"}\n",
                    "{\"schema\":\"podium.lint/1\",\"seq\":1,\"file\":\"b.rs\",\"line\":2,\"col\":1,\"rule\":\"index\",\"message\":\"m\",\"allowed\":true,\"justification\":\"why\"}\n",
                ),
            )
            .unwrap()
        };
        // Previous rollup carried 5 suppressions; this run has 2.
        let previous: Value =
            serde_json::from_str("{\"lint\":{\"suppressed_debt\":5}}").unwrap();
        let (human, rollup) = render(&[lint_rows()], Some(&previous));
        let l = rollup.get("lint").unwrap();
        assert_eq!(l.get("debt_delta").and_then(Value::as_i64), Some(-3));
        assert!(human.contains("burned down"), "{human}");
        // New debt trends the other way.
        let grew: Value = serde_json::from_str("{\"lint\":{\"suppressed_debt\":1}}").unwrap();
        let (human, rollup) = render(&[lint_rows()], Some(&grew));
        let l = rollup.get("lint").unwrap();
        assert_eq!(l.get("debt_delta").and_then(Value::as_i64), Some(1));
        assert!(human.contains("NEW DEBT"), "{human}");
        // The delta round-trips through serialization (NegInt path).
        let (_, rollup) = render(&[lint_rows()], Some(&previous));
        let text = serde_json::to_string(&rollup).unwrap();
        assert!(text.contains("\"debt_delta\":-3"), "{text}");
    }

    #[test]
    fn constrained_status_rows_ingest_without_typed_rejection() {
        // The shape the experiments driver writes for the `constrained`
        // experiment: harness schema+seq envelope with the per-tightness
        // greedy-vs-anneal details embedded raw as a nested object.
        let exp = parse_stream(
            "status.jsonl",
            concat!(
                "{\"schema\":\"podium.experiment-status/1\",\"seq\":0,\"name\":\"drift\",\"outcome\":\"ok\",\"seconds\":2.0}\n",
                "{\"schema\":\"podium.experiment-status/1\",\"seq\":1,\"name\":\"constrained\",\"outcome\":\"ok\",\"seconds\":1.2,\"details\":{\"rows\":[{\"tightness\":\"loose\",\"quotas\":2,\"feasible\":true,\"greedy_score\":120.5,\"greedy_ms\":3.1,\"anneal_score\":121.0,\"anneal_ms\":3.0,\"anneal_steps\":4096,\"improvement_pct\":0.4},{\"tightness\":\"tight\",\"quotas\":6,\"feasible\":false,\"greedy_score\":0.0,\"greedy_ms\":0.0,\"anneal_score\":0.0,\"anneal_ms\":0.0,\"anneal_steps\":0,\"improvement_pct\":0.0}]}}\n",
            ),
        )
        .expect("constrained rows must not be rejected");
        let (human, rollup) = render(&[exp], None);
        let e = rollup.get("experiments").unwrap();
        assert_eq!(e.get("ok").and_then(Value::as_u64), Some(2));
        assert_eq!(e.get("panicked").and_then(Value::as_u64), Some(0));
        assert!(
            (e.get("total_seconds").and_then(Value::as_f64).unwrap() - 3.2).abs() < 1e-9
        );
        assert!(human.contains("2 ok"), "{human}");
    }

    #[test]
    fn sim_section_recomputes_percentiles_per_op() {
        let reqs = parse_stream(
            "requests.jsonl",
            concat!(
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":0,\"vt_us\":10,\"op\":\"select\",\"outcome\":\"ok\",\"latency_us\":100,\"epoch\":3,\"staleness\":1}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":1,\"vt_us\":20,\"op\":\"select\",\"outcome\":\"ok\",\"latency_us\":300,\"epoch\":4,\"staleness\":0}\n",
                "{\"schema\":\"podium.sim-requests/1\",\"seq\":2,\"vt_us\":30,\"op\":\"update-profile\",\"outcome\":\"timeout\",\"latency_us\":2000}\n",
            ),
        )
        .unwrap();
        let (human, rollup) = render(&[reqs], None);
        let sim = rollup.get("sim").unwrap();
        assert_eq!(sim.get("requests").and_then(Value::as_u64), Some(3));
        let select = sim.get("per_op").and_then(|o| o.get("select")).unwrap();
        assert_eq!(select.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(select.get("ok").and_then(Value::as_u64), Some(2));
        assert_eq!(select.get("max_staleness").and_then(Value::as_u64), Some(1));
        let update = sim
            .get("per_op")
            .and_then(|o| o.get("update-profile"))
            .unwrap();
        assert_eq!(update.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(
            sim.get("outcomes")
                .and_then(|o| o.get("timeout"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert!(human.contains("-- simulator --"), "{human}");
    }

    #[test]
    fn rollup_is_tagged_and_serializable() {
        let (_, rollup) = render(&request_logs(), None);
        assert_eq!(
            rollup.get("schema").and_then(Value::as_str),
            Some(DASHBOARD_SCHEMA)
        );
        let text = serde_json::to_string(&rollup).unwrap();
        assert!(text.starts_with("{\"schema\":\"podium.dashboard-rollup/1\""));
    }
}
