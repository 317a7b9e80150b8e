//! Closed-loop serving benchmark: measures sustained `select` throughput
//! and latency percentiles while a background writer publishes profile
//! updates at a fixed rate.
//!
//! Two transports are supported. In-process clients call
//! [`PodiumService::handle_line`] directly, measuring the serving
//! subsystem — snapshot capture, queueing, selection — without socket
//! noise. TCP clients go through a real [`crate::tcp::TcpServer`] using
//! the resilient [`crate::client::PodiumClient`], measuring the whole
//! stack including framing and the client's retry machinery.
//!
//! Every response is checked for consistency: it must be `ok`, return
//! exactly `budget` users, and report an epoch no older than the last one
//! that client observed (epochs are monotone per client). Failures are
//! recorded per cause — deadline, admission control, transport, other —
//! so a regression in one layer is visible as such instead of vanishing
//! into a single counter.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use podium_core::bucket::BucketingConfig;
use podium_core::profile::UserRepository;
use podium_core::rng::{splitmix64, unit_float};
use serde_json::Value;

use crate::client::{ClientConfig, ClientError, ClientHealth, PodiumClient};
use crate::recovery::{self, DurabilityOptions};
use crate::service::{PodiumService, ServiceConfig};
use crate::snapshot::PublishMode;
use crate::tcp::{TcpServer, TcpServerConfig};

/// Which path benchmark clients use to reach the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchTransport {
    /// Clients call [`PodiumService::handle_line`] directly.
    InProcess,
    /// Clients use [`PodiumClient`] against a loopback [`TcpServer`].
    Tcp,
}

impl BenchTransport {
    /// Stable name used in reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            BenchTransport::InProcess => "inproc",
            BenchTransport::Tcp => "tcp",
        }
    }
}

/// Load-generator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Synthetic repository size (number of users).
    pub users: usize,
    /// Number of distinct properties in the synthetic repository.
    pub properties: usize,
    /// Scores per user (properties each user has an opinion on).
    pub scores_per_user: usize,
    /// Selection budget `b` per request.
    pub budget: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Executor queue capacity.
    pub queue_capacity: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Background profile-update rate (updates per second); 0 disables
    /// the writer.
    pub update_hz: u64,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: u64,
    /// Seed of the synthetic repository and the update stream.
    pub seed: u64,
    /// Transport clients use to reach the service.
    pub transport: BenchTransport,
    /// How the writer materializes epochs (incremental CSR patching vs
    /// full rebuild) — the axis the drift benchmark compares.
    pub publish_mode: PublishMode,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            users: 10_000,
            properties: 32,
            scores_per_user: 6,
            budget: 64,
            clients: 4,
            workers: 4,
            queue_capacity: 512,
            duration: Duration::from_secs(5),
            update_hz: 10,
            deadline_ms: 2_000,
            seed: 0x5EED_0001,
            transport: BenchTransport::InProcess,
            publish_mode: PublishMode::default(),
        }
    }
}

/// Schema tag of bench-serve JSONL rows (see `podium-sim`'s stream
/// validation: the dashboard rejects rows whose tag it does not read).
pub const BENCH_SERVE_SCHEMA: &str = "podium.bench-serve/1";

/// Next monotone `seq` for appending a row to an existing JSONL file:
/// one past the largest `seq` already present. Rows without a `seq`
/// (pre-schema emitters) still advance the floor by line count, so a
/// mixed legacy file keeps monotone numbering.
pub fn next_row_seq(existing: &str) -> u64 {
    let mut next = 0u64;
    for line in existing.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let from_seq = serde_json::from_str::<Value>(trimmed)
            .ok()
            .and_then(|v| v.get("seq").and_then(Value::as_u64))
            .map(|s| s.saturating_add(1));
        next = next.max(from_seq.unwrap_or(next.saturating_add(1)));
    }
    next
}

/// Benchmark outcome, one JSONL row via [`BenchReport::to_json`].
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Monotone row number within the JSONL file the row is appended
    /// to (see [`next_row_seq`]); `run_bench` leaves it 0 and appenders
    /// set it.
    pub seq: u64,
    /// Transport the clients used (`inproc` or `tcp`).
    pub transport: &'static str,
    /// Synthetic repository size.
    pub users: usize,
    /// Selection budget per request.
    pub budget: usize,
    /// Client threads.
    pub clients: usize,
    /// Executor workers.
    pub workers: usize,
    /// Configured background update rate (Hz).
    pub update_hz: u64,
    /// Wall-clock the measurement actually took.
    pub duration_s: f64,
    /// Successful, consistent select responses.
    pub served: u64,
    /// Failed requests across all causes except admission control:
    /// always equals `failed_deadline + failed_transport + failed_other`.
    pub failed: u64,
    /// Requests that missed their deadline (server `deadline_exceeded`
    /// or client-side timeout).
    pub failed_deadline: u64,
    /// Requests lost to the transport (connect/read/write failures,
    /// breaker fast-failures). Always zero in-process.
    pub failed_transport: u64,
    /// Failures not attributable to deadline, admission, or transport
    /// (e.g. unexpected server error codes, unparseable responses).
    pub failed_other: u64,
    /// Admission-control rejections observed by clients. Tracked apart
    /// from `failed`: shedding load under saturation is the configured
    /// behaviour, not a fault.
    pub overloaded: u64,
    /// `ok:true` responses violating a consistency check (wrong user
    /// count or non-monotone epoch).
    pub inconsistent: u64,
    /// Profile updates the background writer applied.
    pub updates_applied: u64,
    /// Final published epoch.
    pub final_epoch: u64,
    /// Select-cache hits across the run (service-level cumulative).
    pub cache_hits: u64,
    /// Select-cache misses across the run (service-level cumulative).
    pub cache_misses: u64,
    /// Deepest executor queue observed by the sampler.
    pub queue_depth_max: usize,
    /// Publish mode the writer ran under (`incremental` or
    /// `full_rebuild`).
    pub publish_mode: &'static str,
    /// Epochs published during the run.
    pub publishes: u64,
    /// Publishes that took the CSR patch path.
    pub patched_publishes: u64,
    /// Median publish latency over the recent-latency ring, microseconds.
    pub publish_p50_us: u64,
    /// 99th-percentile publish latency, microseconds.
    pub publish_p99_us: u64,
    /// Memoized selects carried across epochs, cumulative.
    pub memos_carried: u64,
    /// Memoized selects invalidated by deltas, cumulative.
    pub memos_invalidated: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when no selects ran.
    pub memo_hit_rate: f64,
    /// WAL bytes on disk at the end of the run (0 when not durable).
    pub wal_bytes: u64,
    /// Epoch captured by the newest checkpoint (0 when not durable or no
    /// checkpoint was cut).
    pub last_checkpoint_epoch: u64,
    /// Wall-clock milliseconds a cold recovery of the run's data
    /// directory took, measured after the run (0 when not durable).
    pub recovery_ms: f64,
    /// Epoch the post-run recovery landed on (0 when not durable).
    pub recovered_epoch: u64,
    /// Final breaker/health state of each TCP client, in client order
    /// (empty in-process).
    pub client_health: Vec<ClientHealth>,
    /// Served requests per second.
    pub throughput_rps: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 90th percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

impl BenchReport {
    /// Serializes the report as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        use crate::protocol::{num_f64, num_u64};
        let pairs = vec![
            (
                "schema".to_owned(),
                Value::String(BENCH_SERVE_SCHEMA.to_owned()),
            ),
            ("seq".to_owned(), num_u64(self.seq)),
            ("bench".to_owned(), Value::String("serve".to_owned())),
            (
                "transport".to_owned(),
                Value::String(self.transport.to_owned()),
            ),
            ("users".to_owned(), num_u64(self.users as u64)),
            ("budget".to_owned(), num_u64(self.budget as u64)),
            ("clients".to_owned(), num_u64(self.clients as u64)),
            ("workers".to_owned(), num_u64(self.workers as u64)),
            ("update_hz".to_owned(), num_u64(self.update_hz)),
            ("duration_s".to_owned(), num_f64(self.duration_s)),
            ("served".to_owned(), num_u64(self.served)),
            ("failed".to_owned(), num_u64(self.failed)),
            ("failed_deadline".to_owned(), num_u64(self.failed_deadline)),
            (
                "failed_transport".to_owned(),
                num_u64(self.failed_transport),
            ),
            ("failed_other".to_owned(), num_u64(self.failed_other)),
            ("overloaded".to_owned(), num_u64(self.overloaded)),
            ("inconsistent".to_owned(), num_u64(self.inconsistent)),
            ("updates_applied".to_owned(), num_u64(self.updates_applied)),
            ("final_epoch".to_owned(), num_u64(self.final_epoch)),
            ("cache_hits".to_owned(), num_u64(self.cache_hits)),
            ("cache_misses".to_owned(), num_u64(self.cache_misses)),
            (
                "queue_depth_max".to_owned(),
                num_u64(self.queue_depth_max as u64),
            ),
            (
                "publish_mode".to_owned(),
                Value::String(self.publish_mode.to_owned()),
            ),
            ("publishes".to_owned(), num_u64(self.publishes)),
            (
                "patched_publishes".to_owned(),
                num_u64(self.patched_publishes),
            ),
            ("publish_p50_us".to_owned(), num_u64(self.publish_p50_us)),
            ("publish_p99_us".to_owned(), num_u64(self.publish_p99_us)),
            ("memos_carried".to_owned(), num_u64(self.memos_carried)),
            (
                "memos_invalidated".to_owned(),
                num_u64(self.memos_invalidated),
            ),
            ("memo_hit_rate".to_owned(), num_f64(self.memo_hit_rate)),
            ("wal_bytes".to_owned(), num_u64(self.wal_bytes)),
            (
                "last_checkpoint_epoch".to_owned(),
                num_u64(self.last_checkpoint_epoch),
            ),
            ("recovery_ms".to_owned(), num_f64(self.recovery_ms)),
            ("recovered_epoch".to_owned(), num_u64(self.recovered_epoch)),
            (
                "client_health".to_owned(),
                Value::Array(
                    self.client_health
                        .iter()
                        .enumerate()
                        .map(|(i, h)| {
                            Value::Object(vec![
                                ("client".to_owned(), num_u64(i as u64)),
                                (
                                    "state".to_owned(),
                                    Value::String(h.state.as_str().to_owned()),
                                ),
                                (
                                    "consecutive_failures".to_owned(),
                                    num_u64(u64::from(h.consecutive_failures)),
                                ),
                                (
                                    "last_transition_epoch".to_owned(),
                                    num_u64(h.last_transition_epoch),
                                ),
                                ("last_seen_epoch".to_owned(), num_u64(h.last_seen_epoch)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("throughput_rps".to_owned(), num_f64(self.throughput_rps)),
            ("p50_us".to_owned(), num_u64(self.p50_us)),
            ("p90_us".to_owned(), num_u64(self.p90_us)),
            ("p99_us".to_owned(), num_u64(self.p99_us)),
            ("max_us".to_owned(), num_u64(self.max_us)),
        ];
        serde_json::to_string(&Value::Object(pairs)).expect("report serialization is infallible")
    }
}

/// Builds the synthetic benchmark repository: `users` users, each with
/// `scores_per_user` scores over `properties` properties, uniform in
/// `[0, 1)`.
pub fn synthetic_repository(
    users: usize,
    properties: usize,
    scores_per_user: usize,
    seed: u64,
) -> UserRepository {
    let mut repo = UserRepository::new();
    let props: Vec<_> = (0..properties)
        .map(|p| repo.intern_property(format!("topic-{p}")))
        .collect();
    let mut rng = seed;
    for i in 0..users {
        let u = repo.add_user(format!("user-{i}"));
        for s in 0..scores_per_user.min(properties) {
            // Rotate the property window per user so every property ends
            // up populated.
            let p = props[(i + s * (properties / scores_per_user.max(1)).max(1)) % properties];
            repo.set_score(u, p, unit_float(&mut rng))
                .expect("synthetic scores are in range");
        }
    }
    repo
}

/// Where a failed request went wrong. Admission-control rejections get
/// their own tally outside this enum (they are policy, not faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailCause {
    /// The executor (or the client's own clock) gave up on the deadline.
    Deadline,
    /// Admission control rejected the request before queuing it.
    Admission,
    /// Bytes did not make it to or from the server.
    Transport,
    /// Anything else: unexpected error codes, unparseable lines.
    Other,
}

/// Maps a server error code to its failure cause.
fn classify_error_code(code: &str) -> FailCause {
    match code {
        "deadline_exceeded" => FailCause::Deadline,
        "overloaded" => FailCause::Admission,
        _ => FailCause::Other,
    }
}

/// Maps a client-side error to its failure cause.
fn classify_client_error(error: &ClientError) -> FailCause {
    match error {
        ClientError::Timeout => FailCause::Deadline,
        ClientError::Transport(_) | ClientError::BreakerOpen => FailCause::Transport,
        ClientError::Protocol(_) => FailCause::Other,
    }
}

#[derive(Default)]
struct ClientTally {
    served: u64,
    failed_deadline: u64,
    failed_transport: u64,
    failed_other: u64,
    overloaded: u64,
    inconsistent: u64,
    latencies_us: Vec<u64>,
    /// Final breaker/health snapshot, TCP clients only.
    health: Option<ClientHealth>,
}

impl ClientTally {
    fn record_failure(&mut self, cause: FailCause) {
        match cause {
            FailCause::Deadline => self.failed_deadline += 1,
            FailCause::Admission => self.overloaded += 1,
            FailCause::Transport => self.failed_transport += 1,
            FailCause::Other => self.failed_other += 1,
        }
    }

    /// All non-admission failures.
    fn failed(&self) -> u64 {
        self.failed_deadline + self.failed_transport + self.failed_other
    }

    /// Checks one `ok` response for budget and epoch consistency.
    fn record_response(
        &mut self,
        value: &Value,
        budget: usize,
        last_epoch: &mut u64,
        latency: u64,
    ) {
        match value.get("ok").and_then(Value::as_bool) {
            Some(true) => {
                let epoch = value.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                let n_users = value
                    .get("users")
                    .and_then(Value::as_array)
                    .map(Vec::len)
                    .unwrap_or(0);
                if n_users != budget || epoch < *last_epoch {
                    self.inconsistent += 1;
                } else {
                    *last_epoch = epoch;
                    self.served += 1;
                    self.latencies_us.push(latency);
                }
            }
            _ => {
                let cause = value
                    .get("error")
                    .and_then(Value::as_str)
                    .map(classify_error_code)
                    .unwrap_or(FailCause::Other);
                self.record_failure(cause);
            }
        }
    }
}

fn client_loop(
    service: &PodiumService,
    budget: usize,
    deadline_ms: u64,
    stop: &AtomicBool,
) -> ClientTally {
    let request = format!(r#"{{"op":"select","budget":{budget},"deadline_ms":{deadline_ms}}}"#);
    let mut tally = ClientTally::default();
    let mut last_epoch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        let response = service.handle_line(&request);
        let latency = started.elapsed().as_micros() as u64;
        match serde_json::from_str::<Value>(&response) {
            Ok(value) => tally.record_response(&value, budget, &mut last_epoch, latency),
            Err(_) => tally.record_failure(FailCause::Other),
        }
    }
    tally
}

fn tcp_client_loop(
    addr: std::net::SocketAddr,
    budget: usize,
    deadline_ms: u64,
    seed: u64,
    stop: &AtomicBool,
) -> ClientTally {
    let request = format!(r#"{{"op":"select","budget":{budget},"deadline_ms":{deadline_ms}}}"#);
    let mut client = PodiumClient::new(
        addr,
        ClientConfig {
            request_timeout: Duration::from_millis(deadline_ms.max(100)),
            seed,
            ..ClientConfig::default()
        },
    );
    let mut tally = ClientTally::default();
    let mut last_epoch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        match client.call(&request) {
            Ok(value) => {
                let latency = started.elapsed().as_micros() as u64;
                tally.record_response(&value, budget, &mut last_epoch, latency);
            }
            Err(error) => tally.record_failure(classify_client_error(&error)),
        }
    }
    tally.health = Some(client.health());
    tally
}

fn updater_loop(
    service: &PodiumService,
    config: &BenchConfig,
    stop: &AtomicBool,
    applied: &AtomicU64,
) {
    if config.update_hz == 0 {
        return;
    }
    let tick = Duration::from_nanos(1_000_000_000 / config.update_hz);
    let mut rng = config.seed ^ 0xDEAD_BEEF;
    while !stop.load(Ordering::Relaxed) {
        let user = (splitmix64(&mut rng) as usize) % config.users;
        let prop = (splitmix64(&mut rng) as usize) % config.properties;
        let score = unit_float(&mut rng);
        let line = format!(
            r#"{{"op":"update-profile","user":"user-{user}","property":"topic-{prop}","score":{score}}}"#
        );
        let response = service.handle_line(&line);
        if response.contains("\"ok\":true") {
            applied.fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(tick);
    }
}

/// Polls the executor queue depth until stopped, remembering the max.
fn queue_sampler(service: &PodiumService, stop: &AtomicBool, max_depth: &AtomicU64) {
    while !stop.load(Ordering::Relaxed) {
        let depth = service.executor().queue_depth() as u64;
        max_depth.fetch_max(depth, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs the closed-loop benchmark and returns the merged report.
pub fn run_bench(config: &BenchConfig) -> BenchReport {
    run_bench_with(config, None)
}

/// [`run_bench`] with optional durability: when `durability` is set, the
/// service writes its WAL and checkpoints into the given data directory,
/// and after the measurement window the report additionally records how
/// long a cold recovery of that directory takes (`recovery_ms`) and which
/// epoch it lands on (`recovered_epoch`).
pub fn run_bench_with(config: &BenchConfig, durability: Option<&DurabilityOptions>) -> BenchReport {
    let repo = synthetic_repository(
        config.users,
        config.properties,
        config.scores_per_user,
        config.seed,
    );
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    let service_config = ServiceConfig {
        workers: config.workers,
        queue_capacity: config.queue_capacity,
        default_deadline_ms: config.deadline_ms,
        publish_mode: config.publish_mode,
        ..ServiceConfig::default()
    };
    let service = Arc::new(match durability {
        None => PodiumService::new(repo, &buckets, service_config),
        Some(opts) => {
            let (service, _report) =
                PodiumService::with_durability(repo, &buckets, service_config, opts.clone())
                    .expect("durable bench service");
            service
        }
    });
    let stop = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(0));
    let max_depth = Arc::new(AtomicU64::new(0));

    // A TCP bench stands up a real loopback server; clients get its
    // address. The server must outlive the clients, hence the binding.
    let tcp_server = match config.transport {
        BenchTransport::InProcess => None,
        BenchTransport::Tcp => Some(
            TcpServer::bind(
                Arc::clone(&service),
                "127.0.0.1:0",
                TcpServerConfig::default(),
            )
            .expect("loopback bind for bench"),
        ),
    };

    let updater = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let applied = Arc::clone(&applied);
        let config = *config;
        std::thread::spawn(move || updater_loop(&service, &config, &stop, &applied))
    };
    let sampler = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let max_depth = Arc::clone(&max_depth);
        std::thread::spawn(move || queue_sampler(&service, &stop, &max_depth))
    };

    let started = Instant::now();
    let clients: Vec<_> = (0..config.clients.max(1))
        .map(|i| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let budget = config.budget;
            let deadline_ms = config.deadline_ms;
            let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            let addr = tcp_server.as_ref().map(TcpServer::local_addr);
            std::thread::spawn(move || match addr {
                None => client_loop(&service, budget, deadline_ms, &stop),
                Some(addr) => tcp_client_loop(addr, budget, deadline_ms, seed, &stop),
            })
        })
        .collect();

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);

    let mut total = ClientTally::default();
    let mut client_health = Vec::new();
    for client in clients {
        let tally = client.join().expect("client thread panicked");
        total.served += tally.served;
        total.failed_deadline += tally.failed_deadline;
        total.failed_transport += tally.failed_transport;
        total.failed_other += tally.failed_other;
        total.overloaded += tally.overloaded;
        total.inconsistent += tally.inconsistent;
        total.latencies_us.extend(tally.latencies_us);
        client_health.extend(tally.health);
    }
    let elapsed = started.elapsed();
    updater.join().expect("updater thread panicked");
    sampler.join().expect("sampler thread panicked");
    if let Some(server) = tcp_server {
        server.shutdown();
    }
    total.latencies_us.sort_unstable();
    let (cache_hits, cache_misses) = service.cache_counters().totals();
    // The epoch-build breakdown rides the `stats` op, same as clients see.
    let stats_value: Value =
        serde_json::from_str(&service.handle_line(r#"{"op":"stats"}"#)).unwrap_or(Value::Null);
    let stat = |field: &str| stats_value.get(field).and_then(Value::as_u64).unwrap_or(0);

    // With durability on, measure what a cold restart of this data
    // directory would cost: rebuild the genesis repository and time the
    // full checkpoint-load + WAL-replay path.
    let (recovery_ms, recovered_epoch) = match durability {
        None => (0.0, 0),
        Some(opts) => {
            let genesis = synthetic_repository(
                config.users,
                config.properties,
                config.scores_per_user,
                config.seed,
            );
            let recovery_started = Instant::now();
            match recovery::recover(&opts.data_dir, genesis, &buckets, config.publish_mode) {
                Ok((_, _, report)) => (
                    recovery_started.elapsed().as_secs_f64() * 1_000.0,
                    report.recovered_epoch,
                ),
                Err(_) => (0.0, 0),
            }
        }
    };

    BenchReport {
        seq: 0,
        transport: config.transport.as_str(),
        users: config.users,
        budget: config.budget,
        clients: config.clients,
        workers: config.workers,
        update_hz: config.update_hz,
        duration_s: elapsed.as_secs_f64(),
        served: total.served,
        failed: total.failed(),
        failed_deadline: total.failed_deadline,
        failed_transport: total.failed_transport,
        failed_other: total.failed_other,
        overloaded: total.overloaded,
        inconsistent: total.inconsistent,
        updates_applied: applied.load(Ordering::Relaxed),
        final_epoch: service.store().epoch(),
        cache_hits,
        cache_misses,
        queue_depth_max: max_depth.load(Ordering::Relaxed) as usize,
        publish_mode: match config.publish_mode {
            PublishMode::Incremental => "incremental",
            PublishMode::FullRebuild => "full_rebuild",
        },
        publishes: stat("publishes"),
        patched_publishes: stat("patched_publishes"),
        publish_p50_us: stat("publish_p50_micros"),
        publish_p99_us: stat("publish_p99_micros"),
        memos_carried: stat("memos_carried"),
        memos_invalidated: stat("memos_invalidated"),
        memo_hit_rate: if cache_hits + cache_misses > 0 {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        } else {
            0.0
        },
        wal_bytes: stat("wal_bytes"),
        last_checkpoint_epoch: stat("last_checkpoint_epoch"),
        recovery_ms,
        recovered_epoch,
        client_health,
        throughput_rps: total.served as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&total.latencies_us, 0.50),
        p90_us: percentile(&total.latencies_us, 0.90),
        p99_us: percentile(&total.latencies_us, 0.99),
        max_us: total.latencies_us.last().copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_repository_is_deterministic() {
        let a = synthetic_repository(50, 8, 3, 42);
        let b = synthetic_repository(50, 8, 3, 42);
        assert_eq!(a.user_count(), 50);
        assert_eq!(a.property_count(), 8);
        for u in a.users() {
            assert_eq!(a.profile(u).unwrap(), b.profile(u).unwrap());
        }
    }

    fn short_config() -> BenchConfig {
        BenchConfig {
            users: 200,
            properties: 8,
            scores_per_user: 3,
            budget: 5,
            clients: 2,
            workers: 2,
            queue_capacity: 64,
            duration: Duration::from_millis(300),
            update_hz: 20,
            deadline_ms: 2_000,
            seed: 7,
            transport: BenchTransport::InProcess,
            publish_mode: PublishMode::Incremental,
        }
    }

    #[test]
    fn short_bench_run_is_clean() {
        let report = run_bench(&short_config());
        assert!(report.served > 0, "no requests served: {report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(report.inconsistent, 0, "{report:?}");
        assert!(report.updates_applied > 0, "{report:?}");
        assert!(report.final_epoch > 0, "{report:?}");
        assert!(report.p50_us <= report.p99_us);
        assert!(
            report.cache_hits + report.cache_misses >= report.served,
            "every served select passed through the cache: {report:?}"
        );
        let row = report.to_json();
        let value: Value = serde_json::from_str(&row).unwrap();
        assert_eq!(value.get("bench").and_then(Value::as_str), Some("serve"));
        assert_eq!(
            value.get("transport").and_then(Value::as_str),
            Some("inproc")
        );
        assert_eq!(value.get("inconsistent").and_then(Value::as_u64), Some(0));
        for field in [
            "failed_deadline",
            "failed_transport",
            "failed_other",
            "cache_hits",
            "cache_misses",
            "queue_depth_max",
        ] {
            assert!(value.get(field).is_some(), "missing {field}: {row}");
        }
    }

    #[test]
    fn short_tcp_bench_run_is_clean() {
        let config = BenchConfig {
            transport: BenchTransport::Tcp,
            ..short_config()
        };
        let report = run_bench(&config);
        assert!(report.served > 0, "no requests served: {report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(report.inconsistent, 0, "{report:?}");
        assert_eq!(report.transport, "tcp");
    }

    #[test]
    fn short_durable_tcp_bench_records_recovery_and_client_health() {
        use crate::client::BreakerState;
        let dir = std::env::temp_dir().join(format!(
            "podium-bench-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = BenchConfig {
            transport: BenchTransport::Tcp,
            ..short_config()
        };
        let opts = DurabilityOptions::new(&dir);
        let report = run_bench_with(&config, Some(&opts));
        assert_eq!(report.failed, 0, "{report:?}");
        assert!(report.updates_applied > 0, "{report:?}");
        assert!(report.wal_bytes > 0, "{report:?}");
        assert!(report.recovery_ms > 0.0, "{report:?}");
        assert_eq!(
            report.recovered_epoch, report.final_epoch,
            "an always-fsync run recovers to its final epoch: {report:?}"
        );
        assert_eq!(report.client_health.len(), config.clients);
        assert!(
            report
                .client_health
                .iter()
                .all(|h| h.state == BreakerState::Closed),
            "{report:?}"
        );
        // Clients learn the epoch from response payloads, so they only
        // see a non-zero epoch if an update published *before* their last
        // response was generated. On a loaded machine the sole update of
        // a short window can land after every client response — tolerate
        // exactly that race, and nothing else.
        assert!(
            report.client_health.iter().all(|h| h.last_seen_epoch > 0)
                || report.updates_applied == 1,
            "{report:?}"
        );
        let row = report.to_json();
        let value: Value = serde_json::from_str(&row).unwrap();
        assert!(value.get("recovery_ms").is_some(), "{row}");
        assert_eq!(
            value.get("recovered_epoch").and_then(Value::as_u64),
            Some(report.recovered_epoch)
        );
        let health = value
            .get("client_health")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(health.len(), config.clients);
        assert_eq!(
            health[0].get("state").and_then(Value::as_str),
            Some("closed")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_breakdown_sums_to_failed() {
        // Drive every cause through the tally and check the arithmetic
        // invariant `failed == deadline + transport + other` with
        // admission kept separate.
        let mut tally = ClientTally::default();
        for (cause, times) in [
            (FailCause::Deadline, 3),
            (FailCause::Admission, 5),
            (FailCause::Transport, 2),
            (FailCause::Other, 4),
        ] {
            for _ in 0..times {
                tally.record_failure(cause);
            }
        }
        assert_eq!(tally.failed_deadline, 3);
        assert_eq!(tally.overloaded, 5);
        assert_eq!(tally.failed_transport, 2);
        assert_eq!(tally.failed_other, 4);
        assert_eq!(
            tally.failed(),
            tally.failed_deadline + tally.failed_transport + tally.failed_other
        );
        assert_eq!(tally.failed(), 9, "admission is not a failure");
    }

    #[test]
    fn error_codes_classify_by_cause() {
        assert_eq!(
            classify_error_code("deadline_exceeded"),
            FailCause::Deadline
        );
        assert_eq!(classify_error_code("overloaded"), FailCause::Admission);
        assert_eq!(classify_error_code("bad_request"), FailCause::Other);
        assert_eq!(classify_error_code("core"), FailCause::Other);
        assert_eq!(
            classify_client_error(&ClientError::Timeout),
            FailCause::Deadline
        );
        assert_eq!(
            classify_client_error(&ClientError::BreakerOpen),
            FailCause::Transport
        );
        assert_eq!(
            classify_client_error(&ClientError::Transport("x".into())),
            FailCause::Transport
        );
        assert_eq!(
            classify_client_error(&ClientError::Protocol("x".into())),
            FailCause::Other
        );
    }
}
