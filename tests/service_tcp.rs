//! TCP transport and chaos-resilience tests.
//!
//! The centerpiece is a deterministic soak: an in-process
//! [`PodiumService`] behind a real [`TcpServer`], with every client
//! connection routed through a seeded [`ChaosProxy`] that splits writes
//! into tiny slices, kills connections mid-frame, and stalls chunks past
//! the client deadline. A serial writer publishes profile updates while
//! resilient [`PodiumClient`]s hammer `select` (and one pins a session).
//! The assertions are the serving invariants, which no amount of
//! injected transport chaos may violate:
//!
//! * every `ok` response returns exactly `budget` users and an epoch
//!   that is monotone per client;
//! * every `ok` response is **bit-identical** to a single-threaded
//!   re-run against a mirror of that epoch's snapshot;
//! * a session's pinned epoch never moves, across reconnects included;
//! * failures only ever surface as typed client errors, never as wrong
//!   answers.
//!
//! The whole suite runs for each seed in a fixed matrix (extendable via
//! `PODIUM_CHAOS_SEED`), so a failure reproduces from the log line alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use podium::core::bucket::BucketingConfig;
use podium::core::engine::{AnnealSchedule, Quota, QuotaBound, QuotaSet};
use podium::data::synth::synthetic_repository;
use podium::service::chaos::{ChaosConfig, ChaosProxy};
use podium::service::client::{BreakerState, ClientConfig, ClientError, PodiumClient};
use podium::service::service::{PodiumService, ServiceConfig};
use podium::service::snapshot::SelectConstraints;
use podium::service::snapshot::{ProfileUpdate, RepositoryWriter, SelectParams, Snapshot};
use podium::service::tcp::{TcpServer, TcpServerConfig};
use serde_json::Value;

const USERS: usize = 300;
const PROPERTIES: usize = 12;
const SCORES_PER_USER: usize = 4;
const BUDGET: usize = 6;
const CLIENTS: usize = 3;
const SELECTS_PER_CLIENT: usize = 25;
const UPDATES: usize = 30;
const REPO_SEED: u64 = 0xD1CE_2020;

/// The fixed chaos-seed matrix. CI runs all of them; locally, set
/// `PODIUM_CHAOS_SEED` to append one more for bisection.
fn seed_matrix() -> Vec<u64> {
    let mut seeds = vec![0xC4A0_0001, 0xC4A0_0002, 0xC4A0_0003];
    if let Ok(extra) = std::env::var("PODIUM_CHAOS_SEED") {
        if let Ok(seed) = extra.trim().parse() {
            seeds.push(seed);
        }
    }
    seeds
}

fn service() -> Arc<PodiumService> {
    let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, REPO_SEED);
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    Arc::new(PodiumService::new(
        repo,
        &buckets,
        ServiceConfig {
            workers: 2,
            queue_capacity: 128,
            default_deadline_ms: 2_000,
            ..ServiceConfig::default()
        },
    ))
}

/// The deterministic update stream (mirrors `tests/service_serve.rs`):
/// each tick nudges one existing user's score on one existing property.
fn update_stream() -> Vec<ProfileUpdate> {
    (0..UPDATES)
        .map(|i| ProfileUpdate {
            user: format!("user-{}", (i * 37) % USERS),
            property: format!("topic-{}", (i * 5) % PROPERTIES),
            score: Some(((i * 13) % 97) as f64 / 100.0),
        })
        .collect()
}

/// Replays the update stream against a fresh mirror and returns the
/// per-epoch snapshots: index `e` is the state the server served epoch
/// `e` from (the writer publishes serially, one epoch per update).
fn mirror_snapshots(updates: &[ProfileUpdate]) -> Vec<Arc<Snapshot>> {
    let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, REPO_SEED);
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let (store, mut writer) = RepositoryWriter::new(repo, &buckets);
    let mut per_epoch = vec![store.load()];
    for u in updates {
        writer.apply(u).expect("mirror update applies");
        writer.publish();
        per_epoch.push(store.load());
    }
    per_epoch
}

fn chaos_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(1_500),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        max_attempts: 4,
        breaker_threshold: 8,
        breaker_cooldown: Duration::from_millis(150),
        seed,
    }
}

/// One seed's soak run. Returns (observations, failures) so the caller
/// can both mirror-check and sanity-check volume.
fn soak_one_seed(seed: u64) {
    let service = service();
    let server = TcpServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        TcpServerConfig::default(),
    )
    .expect("bind tcp server");
    let proxy = ChaosProxy::bind(
        server.local_addr(),
        ChaosConfig {
            seed,
            split_writes: true,
            disconnect_per_chunk: 0.04,
            stall_per_chunk: 0.01,
            stall: Duration::from_millis(1_700), // past the client deadline
            refuse_per_conn: 0.10,
            ..ChaosConfig::default()
        },
    )
    .expect("bind chaos proxy");
    let proxy_addr = proxy.local_addr();

    // Serial writer, in-process: epoch e = initial repo + first e updates
    // exactly, because only this thread publishes.
    let updates = update_stream();
    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let service = Arc::clone(&service);
        let updates = updates.clone();
        let done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            for (i, u) in updates.iter().enumerate() {
                let line = format!(
                    r#"{{"op":"update-profile","user":"{}","property":"{}","score":{}}}"#,
                    u.user,
                    u.property,
                    u.score.unwrap()
                );
                let v: Value = serde_json::from_str(&service.handle_line(&line)).unwrap();
                assert_eq!(v["ok"].as_bool(), Some(true), "update {i}: {v:?}");
                assert_eq!(v["epoch"].as_u64(), Some(i as u64 + 1));
                std::thread::sleep(Duration::from_millis(4));
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    // Select clients, each through the chaos proxy with its own
    // deterministic jitter stream.
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let client_seed = seed ^ (c as u64 + 1);
        clients.push(std::thread::spawn(move || {
            let mut client = PodiumClient::new(proxy_addr, chaos_client_config(client_seed));
            let request = format!(r#"{{"op":"select","budget":{BUDGET}}}"#);
            let mut observations: Vec<(u64, Vec<String>)> = Vec::new();
            let mut failures = 0u64;
            let mut last_epoch = 0u64;
            let mut attempts = 0usize;
            while observations.len() < SELECTS_PER_CLIENT && attempts < SELECTS_PER_CLIENT * 20 {
                attempts += 1;
                match client.call(&request) {
                    Ok(v) => {
                        assert_eq!(
                            v.get("ok").and_then(Value::as_bool),
                            Some(true),
                            "client {c}: server rejected a well-formed select: {v:?}"
                        );
                        let epoch = v.get("epoch").and_then(Value::as_u64).expect("epoch");
                        assert!(
                            epoch >= last_epoch,
                            "client {c}: epoch went backwards ({last_epoch} -> {epoch})"
                        );
                        last_epoch = epoch;
                        let users: Vec<String> = v
                            .get("users")
                            .and_then(Value::as_array)
                            .expect("users array")
                            .iter()
                            .map(|u| u.as_str().expect("user name").to_owned())
                            .collect();
                        assert_eq!(users.len(), BUDGET, "client {c}");
                        observations.push((epoch, users));
                    }
                    Err(
                        ClientError::Timeout | ClientError::Transport(_) | ClientError::BreakerOpen,
                    ) => {
                        // Injected chaos; wrong answers are forbidden,
                        // typed failures are expected.
                        failures += 1;
                        if client.breaker_state() == BreakerState::Open {
                            std::thread::sleep(Duration::from_millis(160));
                        }
                    }
                    Err(ClientError::Protocol(m)) => {
                        panic!("client {c}: protocol corruption reached the parser: {m}")
                    }
                }
            }
            (observations, failures, client.stats())
        }));
    }

    // A session client: the pinned epoch must never move, even though the
    // proxy keeps killing this client's connections (sessions live in the
    // server, not the connection).
    let session_client = std::thread::spawn(move || {
        let mut client = PodiumClient::new(proxy_addr, chaos_client_config(seed ^ 0x5E55));
        let opened = loop {
            match client.call(r#"{"op":"open-session"}"#) {
                Ok(v) => break v,
                Err(ClientError::Protocol(m)) => panic!("open-session corrupted: {m}"),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        let session = opened.get("session").and_then(Value::as_u64).unwrap();
        let pinned = opened.get("epoch").and_then(Value::as_u64).unwrap();
        let refine =
            format!(r#"{{"op":"refine","session":{session},"budget":{BUDGET},"priority":[0]}}"#);
        let mut refined = 0;
        let mut tries = 0;
        while refined < 8 && tries < 160 {
            tries += 1;
            match client.call(&refine) {
                Ok(v) => {
                    assert_eq!(
                        v.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "session survived reconnects: {v:?}"
                    );
                    assert_eq!(
                        v.get("epoch").and_then(Value::as_u64),
                        Some(pinned),
                        "session pinning: refine must keep serving the pinned epoch"
                    );
                    refined += 1;
                }
                Err(ClientError::Protocol(m)) => panic!("refine corrupted: {m}"),
                Err(_) => std::thread::sleep(Duration::from_millis(30)),
            }
        }
        assert!(refined > 0, "no refine ever got through the chaos");
    });

    let mut all_observations: Vec<(u64, Vec<String>)> = Vec::new();
    let mut total_failures = 0u64;
    let mut total_retries = 0u64;
    for client in clients {
        let (observations, failures, stats) = client.join().expect("select client panicked");
        assert_eq!(
            observations.len(),
            SELECTS_PER_CLIENT,
            "seed {seed:#x}: a client could not complete its quota through the chaos"
        );
        all_observations.extend(observations);
        total_failures += failures;
        total_retries += stats.retries;
    }
    session_client.join().expect("session client panicked");
    writer.join().expect("writer panicked");
    assert!(writer_done.load(Ordering::Relaxed));

    // The chaos must actually have happened (the proxy is not a no-op)…
    let stats = proxy.stats();
    assert!(
        stats.splits.load(Ordering::Relaxed) > 0,
        "seed {seed:#x}: no split writes injected"
    );
    assert!(
        stats.disconnects.load(Ordering::Relaxed) + stats.refused.load(Ordering::Relaxed) > 0,
        "seed {seed:#x}: no disconnects or refusals injected"
    );
    assert!(
        total_failures + total_retries > 0,
        "seed {seed:#x}: clients never even noticed the chaos"
    );

    // …and despite it, every served answer matches the single-threaded
    // mirror at its epoch. Zero tolerance: one divergent byte fails.
    let per_epoch = mirror_snapshots(&updates);
    let params = SelectParams {
        budget: BUDGET,
        weight: podium::core::weights::WeightScheme::LinearBySize,
        cov: podium::core::weights::CovScheme::Single,
        quota_hash: 0,
    };
    let mut checked = 0usize;
    for (epoch, users) in &all_observations {
        let snapshot = per_epoch
            .get(*epoch as usize)
            .unwrap_or_else(|| panic!("served epoch {epoch} beyond the update stream"));
        let expected = snapshot.select(&params, None).expect("mirror select");
        assert_eq!(
            users, &expected.names,
            "seed {seed:#x}, epoch {epoch}: selection diverged under chaos"
        );
        checked += 1;
    }
    assert_eq!(checked, CLIENTS * SELECTS_PER_CLIENT);

    proxy.shutdown();
    server.shutdown();
}

#[test]
fn chaos_soak_is_consistent_for_every_seed_in_the_matrix() {
    for seed in seed_matrix() {
        soak_one_seed(seed);
    }
}

/// The quota set every constrained soak client carries: a floor that
/// forces group 0 into the slate and a ratio ceiling on group 3.
fn soak_quotas() -> Vec<Quota> {
    vec![
        Quota {
            group: 0,
            min: QuotaBound::Count(1),
            max: None,
        },
        Quota {
            group: 3,
            min: QuotaBound::Count(0),
            max: Some(QuotaBound::Ratio(0.5)),
        },
    ]
}

/// One constrained select as a client saw it: epoch, slate and score.
type Observation = (u64, Vec<String>, f64);

/// One seed's *constrained* soak: resilient clients fire quota- and
/// anneal-carrying selects through the chaos proxy while the writer
/// publishes epochs. Every ok response must be bit-identical to the
/// single-threaded mirror's constrained `serve` at its epoch, and the
/// quota windows must hold on every ok response (re-derived from the
/// mirror's group universe, not trusted from the server).
fn constrained_soak_one_seed(seed: u64) {
    const CONSTRAINED_SELECTS: usize = 10;
    let service = service();
    let server = TcpServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        TcpServerConfig::default(),
    )
    .expect("bind tcp server");
    let proxy = ChaosProxy::bind(
        server.local_addr(),
        ChaosConfig {
            seed,
            split_writes: true,
            disconnect_per_chunk: 0.04,
            stall_per_chunk: 0.01,
            stall: Duration::from_millis(1_700),
            refuse_per_conn: 0.10,
            ..ChaosConfig::default()
        },
    )
    .expect("bind chaos proxy");
    let proxy_addr = proxy.local_addr();

    let updates = update_stream();
    let writer = {
        let service = Arc::clone(&service);
        let updates = updates.clone();
        std::thread::spawn(move || {
            for (i, u) in updates.iter().enumerate() {
                let line = format!(
                    r#"{{"op":"update-profile","user":"{}","property":"{}","score":{}}}"#,
                    u.user,
                    u.property,
                    u.score.unwrap()
                );
                let v: Value = serde_json::from_str(&service.handle_line(&line)).unwrap();
                assert_eq!(v["ok"].as_bool(), Some(true), "update {i}: {v:?}");
                std::thread::sleep(Duration::from_millis(4));
            }
        })
    };

    // Each client carries its own anneal seed, so the clients exercise
    // distinct quota hashes (and thus distinct memo keys) concurrently.
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let anneal_seed = seed ^ (c as u64 + 1);
        clients.push(std::thread::spawn(move || {
            let mut client = PodiumClient::new(proxy_addr, chaos_client_config(anneal_seed));
            let request = format!(
                r#"{{"op":"select","budget":{BUDGET},"constraints":{{"quotas":[{{"group":0,"min_count":1}},{{"group":3,"max_ratio":0.5}}],"anneal":{{"seed":{anneal_seed},"steps":96,"t0":0.5,"cooling":0.9}}}}}}"#
            );
            let mut observations: Vec<Observation> = Vec::new();
            let mut attempts = 0usize;
            while observations.len() < CONSTRAINED_SELECTS && attempts < CONSTRAINED_SELECTS * 20 {
                attempts += 1;
                match client.call(&request) {
                    Ok(v) => {
                        assert_eq!(
                            v.get("ok").and_then(Value::as_bool),
                            Some(true),
                            "client {c}: constrained select rejected: {v:?}"
                        );
                        let epoch = v.get("epoch").and_then(Value::as_u64).expect("epoch");
                        let users: Vec<String> = v
                            .get("users")
                            .and_then(Value::as_array)
                            .expect("users array")
                            .iter()
                            .map(|u| u.as_str().expect("user name").to_owned())
                            .collect();
                        let score = v.get("score").and_then(Value::as_f64).expect("score");
                        observations.push((epoch, users, score));
                    }
                    Err(ClientError::Protocol(m)) => {
                        panic!("client {c}: protocol corruption reached the parser: {m}")
                    }
                    Err(_) => {
                        if client.breaker_state() == BreakerState::Open {
                            std::thread::sleep(Duration::from_millis(160));
                        }
                    }
                }
            }
            (anneal_seed, observations)
        }));
    }

    let results: Vec<(u64, Vec<Observation>)> = clients
        .into_iter()
        .map(|c| c.join().expect("constrained client panicked"))
        .collect();
    writer.join().expect("writer panicked");

    // Mirror check: the same constraints against the same epoch must
    // reproduce every byte the server sent, and the quota windows must
    // hold at that epoch's group universe.
    let per_epoch = mirror_snapshots(&updates);
    let mut checked = 0usize;
    for (anneal_seed, observations) in &results {
        assert_eq!(
            observations.len(),
            CONSTRAINED_SELECTS,
            "seed {seed:#x}: a constrained client could not complete its quota"
        );
        let constraints = SelectConstraints {
            quotas: soak_quotas(),
            anneal: Some(AnnealSchedule {
                seed: *anneal_seed,
                steps: 96,
                t0: 0.5,
                cooling: 0.9,
            }),
        };
        let params = SelectParams {
            budget: BUDGET,
            weight: podium::core::weights::WeightScheme::LinearBySize,
            cov: podium::core::weights::CovScheme::Single,
            quota_hash: constraints.fingerprint(),
        };
        for (epoch, users, score) in observations {
            let snapshot = per_epoch
                .get(*epoch as usize)
                .unwrap_or_else(|| panic!("served epoch {epoch} beyond the update stream"));
            let expected = snapshot
                .serve(&params, Some(&constraints), None, false)
                .expect("mirror constrained select");
            assert_eq!(
                users, &expected.names,
                "seed {seed:#x}, epoch {epoch}: constrained selection diverged under chaos"
            );
            assert_eq!(
                *score, expected.selection.score,
                "seed {seed:#x}, epoch {epoch}: constrained score diverged"
            );
            let quota_set = QuotaSet::build(soak_quotas(), snapshot.groups().len(), BUDGET)
                .expect("soak quotas are valid");
            assert!(
                quota_set.satisfied_by(&expected.selection.covered_counts),
                "seed {seed:#x}, epoch {epoch}: quota window violated on an ok response"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, CLIENTS * CONSTRAINED_SELECTS);

    proxy.shutdown();
    server.shutdown();
}

#[test]
fn constrained_chaos_soak_matches_mirror_and_quotas_hold() {
    for seed in seed_matrix() {
        constrained_soak_one_seed(seed);
    }
}

/// Blackout drill: the proxy refuses everything, the client's breaker
/// opens (observable fast-fail), service restores, the breaker half-opens
/// and closes again — full recovery without a client restart.
#[test]
fn circuit_breaker_opens_under_blackout_and_recovers() {
    let service = service();
    let server = TcpServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        TcpServerConfig::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::bind(server.local_addr(), ChaosConfig::default()).unwrap();
    let config = ClientConfig {
        connect_timeout: Duration::from_millis(300),
        request_timeout: Duration::from_millis(800),
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(20),
        max_attempts: 2,
        breaker_threshold: 4,
        breaker_cooldown: Duration::from_millis(120),
        seed: 0xB1AC_0075,
    };
    let mut client = PodiumClient::new(proxy.local_addr(), config);

    // Healthy phase.
    let v = client.call(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(client.breaker_state(), BreakerState::Closed);

    // Blackout: every call fails at the transport until the breaker opens.
    proxy.set_blackout(true);
    let mut opened = false;
    for _ in 0..20 {
        match client.call(r#"{"op":"stats"}"#) {
            Err(ClientError::BreakerOpen) => {
                opened = true;
                break;
            }
            Err(_) => {}
            Ok(v) => panic!("call succeeded through a blackout: {v:?}"),
        }
        if client.breaker_state() == BreakerState::Open {
            // Next non-cooled-down call must fast-fail.
            continue;
        }
    }
    assert!(opened, "breaker never produced a fast failure");
    assert_eq!(client.breaker_state(), BreakerState::Open);
    assert!(client.stats().breaker_opens >= 1);
    assert!(client.stats().fast_failures >= 1);

    // Recovery: clear the blackout, wait out the cooldown, and the
    // half-open probe closes the breaker again.
    proxy.set_blackout(false);
    std::thread::sleep(config.breaker_cooldown + Duration::from_millis(30));
    let mut recovered = false;
    for _ in 0..10 {
        if let Ok(v) = client.call(r#"{"op":"select","budget":3}"#) {
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    assert!(
        recovered,
        "client never recovered after the blackout lifted"
    );
    assert_eq!(client.breaker_state(), BreakerState::Closed);

    proxy.shutdown();
    server.shutdown();
}

/// Stalls past the deadline surface as `Timeout`, not as hangs: the
/// client bounds every call even when the proxy sits on the bytes.
#[test]
fn stalls_past_the_deadline_surface_as_timeouts() {
    let service = service();
    let server = TcpServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        TcpServerConfig::default(),
    )
    .unwrap();
    let proxy = ChaosProxy::bind(
        server.local_addr(),
        ChaosConfig {
            seed: 0x57A11,
            split_writes: false,
            stall_per_chunk: 1.0,
            stall: Duration::from_millis(900),
            ..ChaosConfig::default()
        },
    )
    .unwrap();
    let mut client = PodiumClient::new(
        proxy.local_addr(),
        ClientConfig {
            request_timeout: Duration::from_millis(400),
            max_attempts: 1,
            ..ClientConfig::default()
        },
    );
    let started = std::time::Instant::now();
    let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
    assert_eq!(err, ClientError::Timeout, "stall must become a timeout");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "timeout was not bounded: {:?}",
        started.elapsed()
    );
    assert!(proxy.stats().stalls.load(Ordering::Relaxed) >= 1);
    proxy.shutdown();
    server.shutdown();
}

// ---------------------------------------------------------------------
// Crash injection: SIGKILL a real `podium-cli serve --data-dir` process
// at seeded points, restart it on the same directory, and prove the
// recovered state is bit-identical to a single-threaded mirror at the
// last durable epoch, with epochs monotone across the crash.

mod crash {
    use super::*;
    use std::io::{BufRead, BufReader, Read as _};
    use std::net::SocketAddr;
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};

    use podium::core::weights::{CovScheme, WeightScheme};
    use podium::data::json::profiles_to_json;

    /// A `podium-cli serve` child process plus what it said on startup.
    pub struct ServerProc {
        child: Child,
        pub addr: SocketAddr,
        pub recovery_line: Option<String>,
    }

    impl ServerProc {
        /// SIGKILL — no graceful shutdown, no flush. The crash under test.
        pub fn kill(mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }

    /// Spawns the real binary serving TCP on an ephemeral port with the
    /// given data dir, and blocks until it announces its address.
    pub fn spawn_server(profiles: &Path, data_dir: &Path, extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_podium-cli"))
            .arg("serve")
            .arg("--profiles")
            .arg(profiles)
            .args([
                "--strategy",
                "paper",
                "--workers",
                "2",
                "--tcp",
                "127.0.0.1:0",
            ])
            .arg("--data-dir")
            .arg(data_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn podium-cli serve");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = BufReader::new(stderr);
        let mut recovery_line = None;
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read server stderr");
            assert!(n > 0, "server exited before announcing its tcp address");
            if line.contains("recovered epoch") {
                recovery_line = Some(line.trim().to_owned());
            }
            if let Some(rest) = line.trim().strip_prefix("podium-cli: serving on tcp ") {
                break rest.parse().expect("tcp address");
            }
        };
        // Keep draining stderr so the child can never block on the pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        ServerProc {
            child,
            addr,
            recovery_line,
        }
    }

    pub fn crash_client(addr: SocketAddr) -> PodiumClient {
        PodiumClient::new(
            addr,
            ClientConfig {
                connect_timeout: Duration::from_millis(2_000),
                request_timeout: Duration::from_millis(2_000),
                max_attempts: 4,
                ..ClientConfig::default()
            },
        )
    }

    pub fn update_line(u: &ProfileUpdate) -> String {
        format!(
            r#"{{"op":"update-profile","user":"{}","property":"{}","score":{}}}"#,
            u.user,
            u.property,
            u.score.expect("crash updates always set a score")
        )
    }

    /// Fresh per-seed scratch dir; returns (root, profiles path, data dir).
    pub fn scratch(tag: &str, seed: u64) -> (PathBuf, PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "podium-crash-{tag}-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch dir");
        let profiles = root.join("genesis.json");
        let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, REPO_SEED);
        std::fs::write(&profiles, profiles_to_json(&repo).expect("genesis json"))
            .expect("write genesis");
        let data_dir = root.join("data");
        (root, profiles, data_dir)
    }

    pub fn select_params() -> SelectParams {
        SelectParams {
            budget: BUDGET,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        }
    }

    /// Asserts the server's current `select` answer is byte-for-byte the
    /// mirror's answer at the server's current epoch, and returns that
    /// epoch.
    pub fn assert_bit_identical(
        client: &mut PodiumClient,
        per_epoch: &[Arc<Snapshot>],
        context: &str,
    ) -> u64 {
        let v = client
            .call(&format!(r#"{{"op":"select","budget":{BUDGET}}}"#))
            .expect("select after recovery");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        let epoch = v.get("epoch").and_then(Value::as_u64).expect("epoch");
        let users: Vec<String> = v
            .get("users")
            .and_then(Value::as_array)
            .expect("users")
            .iter()
            .map(|u| u.as_str().expect("name").to_owned())
            .collect();
        let snapshot = per_epoch
            .get(epoch as usize)
            .unwrap_or_else(|| panic!("{context}: recovered epoch {epoch} beyond the mirror"));
        let expected = snapshot
            .select(&select_params(), None)
            .expect("mirror select");
        assert_eq!(
            users, expected.names,
            "{context}: recovered selection diverged from the mirror at epoch {epoch}"
        );
        epoch
    }
}

/// Kill after `k` acknowledged updates (k scripted by the seed), restart,
/// and require: the recovered epoch is exactly `k` (always-fsync: an ack
/// IS durability), the recovered selection is bit-identical to the
/// mirror, and epochs continue monotonically `k+1, k+2, …` across the
/// crash — twice, to cover recovery-of-a-recovered directory.
#[test]
fn crash_after_acked_updates_recovers_bit_identically() {
    let updates = update_stream();
    let per_epoch = mirror_snapshots(&updates);
    for seed in seed_matrix() {
        let (root, profiles, data_dir) = crash::scratch("acked", seed);
        let k = 4 + (seed % 11) as usize; // scripted kill point, 4..=14
        let server = crash::spawn_server(&profiles, &data_dir, &["--fsync", "always"]);
        let mut client = crash::crash_client(server.addr);
        for (i, u) in updates[..k].iter().enumerate() {
            let v = client.call(&crash::update_line(u)).expect("update");
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
            assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(i as u64 + 1));
        }
        server.kill();

        let server = crash::spawn_server(&profiles, &data_dir, &["--fsync", "always"]);
        let line = server.recovery_line.clone().expect("recovery line");
        assert!(
            line.contains(&format!("recovered epoch {k}")),
            "seed {seed:#x}: {line}"
        );
        let mut client = crash::crash_client(server.addr);
        let epoch = crash::assert_bit_identical(&mut client, &per_epoch, "first restart");
        assert_eq!(epoch, k as u64, "seed {seed:#x}: lost acknowledged updates");

        // Epochs stay monotone across the crash: the stream continues.
        for (i, u) in updates[k..].iter().enumerate() {
            let v = client.call(&crash::update_line(u)).expect("update");
            assert_eq!(
                v.get("epoch").and_then(Value::as_u64),
                Some((k + i) as u64 + 1),
                "seed {seed:#x}: epoch not monotone across the crash"
            );
        }
        server.kill();

        // Second crash/restart: the full stream must be durable now.
        let server = crash::spawn_server(&profiles, &data_dir, &["--fsync", "always"]);
        let mut client = crash::crash_client(server.addr);
        let epoch = crash::assert_bit_identical(&mut client, &per_epoch, "second restart");
        assert_eq!(epoch, UPDATES as u64, "seed {seed:#x}");
        server.kill();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Kill mid-burst: pipeline the whole update stream down one raw socket
/// without waiting for acks, SIGKILL after a seeded delay (the kill can
/// land mid-frame, mid-checkpoint, or between publish and fsync), and
/// require recovery to land on a *valid prefix* of the stream —
/// bit-identical to the mirror at whatever epoch survived — with epochs
/// monotone afterwards.
#[test]
fn crash_mid_burst_recovers_a_valid_prefix() {
    use std::io::Write as _;
    let updates = update_stream();
    let per_epoch = mirror_snapshots(&updates);
    for seed in seed_matrix() {
        let (root, profiles, data_dir) = crash::scratch("burst", seed);
        // Batch fsync + tight checkpoints: the kill window covers torn
        // frames, half-written checkpoints, and unsynced tails.
        let flags = ["--fsync", "batch", "--checkpoint-every", "4"];
        let server = crash::spawn_server(&profiles, &data_dir, &flags);
        let mut stream =
            std::net::TcpStream::connect(server.addr).expect("raw connect for the burst");
        let mut burst = String::new();
        for u in &updates {
            burst.push_str(&crash::update_line(u));
            burst.push('\n');
        }
        let _ = stream.write_all(burst.as_bytes());
        let _ = stream.flush();
        // Scripted kill delay: lands at a different point of the burst
        // per seed (possibly before it, possibly after all of it).
        std::thread::sleep(Duration::from_millis(seed % 23));
        server.kill();
        drop(stream);

        let server = crash::spawn_server(&profiles, &data_dir, &flags);
        let mut client = crash::crash_client(server.addr);
        let epoch = crash::assert_bit_identical(&mut client, &per_epoch, "mid-burst restart");
        assert!(
            epoch <= UPDATES as u64,
            "seed {seed:#x}: recovered past the stream"
        );
        // Monotone across the crash: the next update gets epoch+1.
        let v = client
            .call(&crash::update_line(&updates[0]))
            .expect("post-recovery update");
        assert_eq!(
            v.get("epoch").and_then(Value::as_u64),
            Some(epoch + 1),
            "seed {seed:#x}: epoch not monotone across the mid-burst crash"
        );
        server.kill();

        // And that post-crash update is itself durable on the next boot.
        let server = crash::spawn_server(&profiles, &data_dir, &flags);
        let mut client = crash::crash_client(server.addr);
        let v = client.call(r#"{"op":"stats"}"#).expect("stats");
        assert_eq!(
            v.get("epoch").and_then(Value::as_u64),
            Some(epoch + 1),
            "seed {seed:#x}"
        );
        server.kill();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Corrupt the WAL tail after a crash (torn frame bytes appended), then
/// restart: recovery must quarantine exactly the garbage — never panic —
/// serve the last durable epoch bit-identically, and keep the log usable
/// for new updates.
#[test]
fn crash_with_torn_wal_tail_quarantines_and_serves() {
    let updates = update_stream();
    let per_epoch = mirror_snapshots(&updates);
    for seed in seed_matrix() {
        let (root, profiles, data_dir) = crash::scratch("torn", seed);
        let k = 3 + (seed % 5) as usize;
        let server = crash::spawn_server(&profiles, &data_dir, &["--fsync", "always"]);
        let mut client = crash::crash_client(server.addr);
        for u in &updates[..k] {
            let v = client.call(&crash::update_line(u)).expect("update");
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        }
        server.kill();

        // Tear the tail: a plausible length prefix, a bogus checksum, and
        // a payload that cuts off mid-frame.
        let wal_path = data_dir.join("wal.log");
        let mut torn = Vec::new();
        torn.extend_from_slice(&200u32.to_le_bytes());
        torn.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        torn.extend_from_slice(&[0xAB; 37]);
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&wal_path)
                .expect("open wal for tearing");
            f.write_all(&torn).expect("append torn tail");
        }

        let server = crash::spawn_server(&profiles, &data_dir, &["--fsync", "always"]);
        let line = server.recovery_line.clone().expect("recovery line");
        assert!(
            line.contains("quarantined"),
            "seed {seed:#x}: torn tail not quarantined: {line}"
        );
        assert!(
            data_dir.join("wal.quarantine").exists(),
            "seed {seed:#x}: quarantine file missing"
        );
        let mut client = crash::crash_client(server.addr);
        let epoch = crash::assert_bit_identical(&mut client, &per_epoch, "torn-tail restart");
        assert_eq!(
            epoch, k as u64,
            "seed {seed:#x}: torn tail ate durable epochs"
        );

        // The truncated log keeps accepting and recovering new frames.
        let v = client
            .call(&crash::update_line(&updates[k]))
            .expect("post-quarantine update");
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(k as u64 + 1));
        server.kill();
        let server = crash::spawn_server(&profiles, &data_dir, &["--fsync", "always"]);
        let mut client = crash::crash_client(server.addr);
        let v = client.call(r#"{"op":"stats"}"#).expect("stats");
        assert_eq!(
            v.get("epoch").and_then(Value::as_u64),
            Some(k as u64 + 1),
            "seed {seed:#x}: post-quarantine update not durable"
        );
        server.kill();
        let _ = std::fs::remove_dir_all(&root);
    }
}
