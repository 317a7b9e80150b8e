//! `durable_sessions`: the only workload where TCP framing and the
//! client, WAL fsync, checkpoints, recovery, sessions, customization,
//! constrained greedy and annealing all do work. Over loopback TCP, one
//! connection sends updates at 50 Hz to a durable service (fsync on every
//! frame, a checkpoint every 256 frames) while the other runs paper-style
//! sessions at 10 Hz: open, pinned select, pinned constrained select with
//! two quotas and an anneal, two refinements, close. After the window the
//! server shuts down and a restart from the data directory is timed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use podium_core::bucket::{BucketingConfig, PropertyBuckets};
use podium_core::profile::UserRepository;
use podium_service::{
    ClientConfig, DurabilityOptions, FsyncPolicy, PodiumClient, PodiumService, TcpServer,
    TcpServerConfig,
};
use serde_json::Value;

use super::{
    add_counts, log_failure, micros, ok_value, op_percentiles, open_loop, same_selection, served,
    service_config, timed_setups, Check, Clock, Gate, Metric, Outcome, Plan, ScratchDir,
};
use crate::host::Probes;
use crate::inputs::{
    as_loaded, int, line, repo_digest, select_line, serving_repo, session_groups, text,
    UpdateStream, SALT_SESSIONS,
};
use crate::rng::{Digest, Rng};
use crate::stats::{percentile, sorted, Samples};
use crate::trace::Tracer;

/// Update period (50 Hz).
const UPDATE_EVERY: Duration = Duration::from_millis(20);
/// Session period (10 Hz).
const SESSION_EVERY: Duration = Duration::from_millis(100);
/// Slate size of every session request.
const BUDGET: u64 = 8;
/// Anneal steps of the constrained select.
const ANNEAL_STEPS: u64 = 256;
/// Frames between checkpoints.
const CHECKPOINT_EVERY: u64 = 256;

/// A durable service behind a TCP server, the directory it logs to, and
/// the bucketing it was built with (a restart needs the same).
struct Server {
    service: Arc<PodiumService>,
    tcp: TcpServer,
    dir: ScratchDir,
    buckets: PropertyBuckets,
}

fn options(dir: &ScratchDir) -> DurabilityOptions {
    DurabilityOptions {
        data_dir: dir.0.clone(),
        fsync: FsyncPolicy::Always,
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// Builds a durable service on a fresh data directory plus its TCP server
/// [`SETUPS`](super::SETUPS) times, timing bucketize, `with_durability`
/// and the bind, and keeps the last.
fn setup(repo: &UserRepository, probes: &mut Probes) -> Result<(Server, Vec<(f64, f64)>), String> {
    timed_setups(probes, |k| {
        let dir =
            ScratchDir::new(&format!("durable-{k}")).map_err(|e| format!("scratch dir: {e}"))?;
        let genesis = repo.clone();
        let t0 = Instant::now();
        let buckets = BucketingConfig::paper_default().bucketize(&genesis);
        let (service, _) =
            PodiumService::with_durability(genesis, &buckets, service_config(), options(&dir))
                .map_err(|e| format!("with_durability: {e}"))?;
        let service = Arc::new(service);
        let tcp = TcpServer::bind(
            Arc::clone(&service),
            "127.0.0.1:0",
            TcpServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let seconds = t0.elapsed().as_secs_f64();
        Ok((
            Server {
                service,
                tcp,
                dir,
                buckets,
            },
            seconds,
        ))
    })
}

/// Whether a client call succeeded; a client error counts as a failure.
fn ok(result: &Result<Value, podium_service::ClientError>) -> Option<&Value> {
    result
        .as_ref()
        .ok()
        .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
}

/// The request lines of one session after `open-session` returned `id`.
fn session_lines(id: u64, groups: u64, rng: &mut Rng) -> [(&'static str, String); 5] {
    let anneal_seed = rng.next_u64() >> 11;
    let [floor, ceiling, must_not, priority] =
        session_groups(rng, groups as usize).map(|g| int(u64::from(g)));
    let quotas = Value::Array(vec![
        Value::Object(vec![("group".into(), floor), ("min_count".into(), int(1))]),
        Value::Object(vec![
            ("group".into(), ceiling),
            ("max_count".into(), int(2)),
        ]),
    ]);
    let anneal = Value::Object(vec![
        ("seed".into(), int(anneal_seed)),
        ("steps".into(), int(ANNEAL_STEPS)),
        ("t0".into(), Value::Number(serde_json::Number::Float(0.05))),
        (
            "cooling".into(),
            Value::Number(serde_json::Number::Float(0.98)),
        ),
    ]);
    [
        (
            "tcp.select",
            line(vec![
                ("op", text("select")),
                ("budget", int(BUDGET)),
                ("session", int(id)),
            ]),
        ),
        (
            "tcp.constrained_select",
            line(vec![
                ("op", text("select")),
                ("budget", int(BUDGET)),
                ("session", int(id)),
                (
                    "constraints",
                    Value::Object(vec![("quotas".into(), quotas), ("anneal".into(), anneal)]),
                ),
            ]),
        ),
        (
            "tcp.refine",
            line(vec![
                ("op", text("refine")),
                ("session", int(id)),
                ("budget", int(BUDGET)),
                ("must_not", Value::Array(vec![must_not])),
            ]),
        ),
        (
            "tcp.refine",
            line(vec![
                ("op", text("refine")),
                ("session", int(id)),
                ("budget", int(BUDGET)),
                ("priority", Value::Array(vec![priority])),
            ]),
        ),
        (
            "tcp.close_session",
            line(vec![("op", text("close-session")), ("session", int(id))]),
        ),
    ]
}

#[derive(Debug, Default)]
struct Lane {
    latency: Samples,
    lag_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Highest epoch an update was acknowledged at.
    acked_epoch: u64,
    acked: u64,
    /// Session round trips minus the service's own `elapsed_us`.
    tcp_overhead_us: Vec<f64>,
}

/// Runs the workload.
pub fn run(plan: &Plan, tracer: &Tracer, mut probes: Probes) -> Result<Outcome, String> {
    // Recovery rebuilds with the genesis bucketing, indexed by property
    // id, on a repository reloaded from a checkpoint: the two agree only
    // when the genesis was itself loaded from JSON, as a server's is.
    let repo = as_loaded(&serving_repo(plan.seed, plan.quick));
    let total = plan.warmup + plan.window;
    let mut stream = UpdateStream::new(&repo, plan.seed);
    let updates: Vec<String> = (0..=(total.as_secs_f64() / UPDATE_EVERY.as_secs_f64()) as usize)
        .map(|_| stream.next_line())
        .collect();
    let mut digest = Digest::default();
    repo_digest(&repo, &mut digest);
    for l in &updates {
        digest.write(l.as_bytes());
    }
    digest.write(&plan.seed.to_le_bytes());
    let (server, setups) = setup(&repo, &mut probes)?;
    let addr = server.tcp.local_addr();
    let groups = ok_value(&server.service.handle_line(r#"{"op":"stats"}"#))
        .and_then(|v| v.get("groups").and_then(Value::as_u64))
        .ok_or("stats reported no group count")?;

    let clock = Clock::new(plan);
    let gate = Gate::default();
    let (writes, sessions) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut client = PodiumClient::new(addr, ClientConfig::default());
            let mut lane = Lane::default();
            open_loop(
                clock.start,
                clock.end,
                UPDATE_EVERY,
                &gate,
                |i, due, window| {
                    let t0 = Instant::now();
                    let result = client.call(&updates[i as usize % updates.len()]);
                    let t1 = Instant::now();
                    lane.attempted += 1;
                    match ok(&result) {
                        Some(v) => {
                            lane.acked += 1;
                            let epoch = v.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                            lane.acked_epoch = lane.acked_epoch.max(epoch);
                        }
                        None => {
                            log_failure("update", &format!("{result:?}"));
                            lane.failed += 1;
                        }
                    }
                    if let Some(w) = window {
                        lane.latency.push(w, micros(due, t1));
                        lane.lag_us.push(micros(due, t0));
                        if tracer.enabled() {
                            let mut spans = tracer.request(i << 1);
                            let root = spans.span(0, "update", due, t1);
                            spans.span(root, "loadgen.lag", due, t0);
                            spans.span(root, "tcp.update", t0, t1);
                            tracer.commit(spans);
                        }
                    }
                },
            );
            lane
        });
        let sessions = s.spawn(|| {
            let mut client = PodiumClient::new(addr, ClientConfig::default());
            let mut rng = Rng::new(plan.seed, SALT_SESSIONS);
            let mut lane = Lane::default();
            // Every session falls due with an update, as drift's selects
            // do, so each one overlaps the same updates in every run.
            open_loop(
                clock.start,
                clock.end,
                SESSION_EVERY,
                &gate,
                |i, due, window| {
                    let t0 = Instant::now();
                    let mut spans = tracer.request(i << 1 | 1);
                    let root = spans.span(0, "session", due, due);
                    spans.span(root, "loadgen.lag", due, t0);
                    let mut step =
                        |name: &'static str, line: &str, spans: &mut crate::trace::RequestSpans| {
                            let a = Instant::now();
                            let result = client.call(line);
                            let b = Instant::now();
                            lane.attempted += 1;
                            let span = spans.span(root, name, a, b);
                            let value = ok(&result).cloned();
                            if value.is_none() {
                                log_failure(name, &format!("{result:?}"));
                                lane.failed += 1;
                            }
                            if let Some(e) = value
                                .as_ref()
                                .and_then(|v| v.get("elapsed_us"))
                                .and_then(Value::as_f64)
                            {
                                lane.tcp_overhead_us.push(micros(a, b) - e);
                                let inner = b - Duration::from_secs_f64(e / 1e6).min(b - a);
                                spans.span(span, "service.select", inner, b);
                            }
                            value
                        };
                    let opened = step("tcp.open_session", r#"{"op":"open-session"}"#, &mut spans);
                    let session = opened
                        .as_ref()
                        .and_then(|v| v.get("session"))
                        .and_then(Value::as_u64);
                    // The picks are drawn even when open failed, so one failure
                    // never shifts the groups of later sessions.
                    let lines = session_lines(session.unwrap_or(0), groups, &mut rng);
                    if session.is_some() {
                        for (name, line) in &lines {
                            step(name, line, &mut spans);
                        }
                    }
                    let t1 = Instant::now();
                    spans.set(root, due, t1);
                    if let Some(w) = window {
                        lane.latency.push(w, micros(due, t1));
                        lane.lag_us.push(micros(due, t0));
                        tracer.commit(spans);
                    }
                },
            );
            lane
        });
        gate.drive(&clock, &mut probes);
        (
            writer.join().expect("the durable_sessions writer panicked"),
            sessions
                .join()
                .expect("the durable_sessions session client panicked"),
        )
    });
    let peak_rss_mb = super::peak_rss_mb();
    let select = select_line(BUDGET, "lbs");
    let live = ok_value(&server.service.handle_line(&select))
        .and_then(|v| served(&v))
        .unwrap_or_default();
    let details_stats = super::stats_details(&server.service);
    let wal_bytes = details_stats
        .iter()
        .find(|m| m.name == "wal.bytes")
        .map_or(0.0, |m| m.value);
    let Server {
        service,
        tcp,
        dir,
        buckets,
    } = server;
    tcp.shutdown();
    // Connection threads release their handle on the service as they exit;
    // the log must be closed before the restart reads it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&service) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(service);

    let genesis = repo.clone();
    let t0 = Instant::now();
    let restarted =
        PodiumService::with_durability(genesis, &buckets, service_config(), options(&dir));
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (restarted, report) = restarted.map_err(|e| format!("restart: {e}"))?;
    let recovered = ok_value(&restarted.handle_line(&select))
        .and_then(|v| served(&v))
        .unwrap_or_default();
    let final_repo = restarted.store().load().repo().clone();
    drop(restarted);
    drop(dir);

    let checks = vec![
        Check {
            name: "durable_sessions.recovered_epoch",
            passed: report.recovered_epoch == writes.acked_epoch && writes.acked > 0,
            detail: format!(
                "recovered epoch {} after {} acknowledged updates, last acknowledged at epoch {}",
                report.recovered_epoch, writes.acked, writes.acked_epoch
            ),
        },
        same_selection("durable_sessions.recovered_matches_live", &recovered, &live),
    ];

    let lag = sorted(
        sessions
            .lag_us
            .iter()
            .chain(&writes.lag_us)
            .copied()
            .collect(),
    );
    let tcp = sorted(sessions.tcp_overhead_us.clone());
    let mut details = vec![
        Metric::new("recovery_ms", "ms", recovery_ms, 1),
        Metric::new(
            "recovery.replayed_frames",
            "count",
            report.replayed_frames as f64,
            1,
        ),
        Metric::new(
            "wal.bytes_per_update",
            "bytes",
            if writes.acked > 0 {
                wal_bytes / writes.acked as f64
            } else {
                0.0
            },
            writes.acked as usize,
        ),
        Metric::new(
            "tcp.select_overhead_us",
            "us",
            percentile(&tcp, 50.0).unwrap_or(0.0),
            tcp.len(),
        ),
        Metric::new(
            "loadgen.lag_p99_us",
            "us",
            percentile(&lag, 99.0).unwrap_or(0.0),
            lag.len(),
        ),
    ];
    details.extend(op_percentiles(
        "update",
        99,
        &writes.latency.scaled(&probes),
        "us",
    ));
    details.extend(op_percentiles(
        "session",
        95,
        &sessions.latency.scaled(&probes),
        "us",
    ));
    details.extend(details_stats);
    // A session is six requests.
    let session_requests: Vec<u64> = sessions
        .latency
        .per_window()
        .iter()
        .map(|n| n * 6)
        .collect();
    Ok(Outcome {
        attempted: writes.attempted + sessions.attempted,
        failed: writes.failed + sessions.failed,
        checks,
        setups,
        ops: add_counts(&writes.latency.per_window(), &session_requests),
        latency: sessions.latency,
        probes,
        peak_rss_mb,
        tail: 95.0,
        details,
        digest: digest.finish(),
        final_input: tracer
            .enabled()
            .then(|| (final_repo, BucketingConfig::paper_default())),
    })
}
