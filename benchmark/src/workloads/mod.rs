//! The four workloads. Each builds its inputs from the seed, sets the
//! program up, drives it for a warm-up and a measured window, checks its
//! outputs, and returns an [`Outcome`].
//!
//! This module and everything it calls may use only the program's stable
//! surface: protocol lines and `PodiumService::{new, with_durability,
//! handle_line, store}`, `TcpServer` and `PodiumClient`,
//! `recovery::recover`, `pipeline::Podium`, `BucketingConfig`,
//! `profiles_{to,from}_json` and `synth`. Finer probes belong to the
//! `podium-trace` binary.

pub mod drift;
pub mod durable;
pub mod hot;
pub mod offline;

use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use podium_core::bucket::{BucketingConfig, PropertyBuckets};
use podium_core::pipeline::Podium;
use podium_core::profile::UserRepository;
use podium_core::weights::WeightScheme;
use podium_service::{PodiumService, ServiceConfig};
use serde_json::Value;

use crate::host::Probes;
use crate::stats::{percentile, Samples};
use crate::trace::Tracer;

/// The workloads, in the order they run.
pub const WORKLOADS: [&str; 4] = [
    "hot_select",
    "drift_select",
    "durable_sessions",
    "offline_pipeline",
];

/// Times each run sets the program up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Sub-windows of the window. A host probe runs at each boundary, while
/// no request is in flight.
pub const SUBWINDOWS: u32 = 20;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Warm-up before the window (not measured).
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Small inputs, for tests.
    pub quick: bool,
}

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            value,
            samples,
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Evidence, printed either way.
    pub detail: String,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed: a non-ok response, a client error or a
    /// timeout.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Each set-up's time in seconds, with the host factor of its probes.
    pub setups: Vec<(f64, f64)>,
    /// Latency of the workload's main operation in the window, in µs.
    pub latency: Samples,
    /// Operations of every kind completed, per sub-window.
    pub ops: Vec<u64>,
    /// The window's probes.
    pub probes: Probes,
    /// Peak resident set from start to the end of the window, in MB
    /// (output checks and recovery afterwards are not counted).
    pub peak_rss_mb: f64,
    /// Percentile reported as the latency tail.
    pub tail: f64,
    /// Metrics particular to the workload.
    pub details: Vec<Metric>,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// The final repository and its bucketing, kept for the layer pass of
    /// a traced run.
    pub final_input: Option<(UserRepository, BucketingConfig)>,
}

/// Runs the workload `plan` names.
pub fn run(plan: &Plan, tracer: &Tracer) -> Result<Outcome, String> {
    // The probe's table is allocated before anything else, so where the
    // allocator puts it, and the resident set that follows, never depend
    // on the inputs.
    let probes = Probes::default();
    match plan.workload.as_str() {
        "hot_select" => Ok(hot::run(plan, tracer, probes)),
        "drift_select" => Ok(drift::run(plan, tracer, probes)),
        "durable_sessions" => durable::run(plan, tracer, probes),
        "offline_pipeline" => offline::run(plan, tracer, probes),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The service configuration of every service workload.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// Sets the program up [`SETUPS`] times between probes and keeps the last
/// result. `setup(k)` returns what it built and the seconds it timed;
/// preparation it leaves out of its timing (copying the input, making a
/// directory) is not counted. The probes are cleared afterwards.
pub fn timed_setups<T>(
    probes: &mut Probes,
    mut setup: impl FnMut(usize) -> Result<(T, f64), String>,
) -> Result<(T, Vec<(f64, f64)>), String> {
    let mut built = None;
    let mut seconds = Vec::with_capacity(SETUPS);
    probes.boundary();
    for k in 0..SETUPS {
        // The previous build is dropped first, so every set-up starts from
        // the same memory state.
        drop(built.take());
        let (value, s) = setup(k)?;
        probes.boundary();
        seconds.push((s, probes.factor(k)));
        built = Some(value);
    }
    probes.clear();
    Ok((built.expect("SETUPS is positive"), seconds))
}

/// Builds an in-process service: bucketize plus `PodiumService::new`,
/// timed [`SETUPS`] times.
pub fn setup_inproc(
    repo: &UserRepository,
    probes: &mut Probes,
) -> ((PodiumService, PropertyBuckets), Vec<(f64, f64)>) {
    let built = timed_setups(probes, |_| {
        let genesis = repo.clone();
        let t0 = Instant::now();
        let buckets = BucketingConfig::paper_default().bucketize(&genesis);
        let service = PodiumService::new(genesis, &buckets, service_config());
        Ok(((service, buckets), t0.elapsed().as_secs_f64()))
    });
    built.expect("an in-process set-up cannot fail")
}

/// Whether a response line is a success.
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// Prints the first few failed operations of a run to stderr, so a
/// non-zero `failed` count can be traced to its responses.
pub fn log_failure(op: &str, detail: &str) {
    static LOGGED: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    if LOGGED.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 5 {
        eprintln!("failed {op}: {detail}");
    }
}

/// A response line parsed as JSON, when it is a success.
pub fn ok_value(response: &str) -> Option<Value> {
    if !is_ok(response) {
        return None;
    }
    serde_json::from_str(response).ok()
}

/// The `users` names and `score` of a select response.
pub fn served(value: &Value) -> Option<(Vec<String>, f64)> {
    let users = value
        .get("users")?
        .as_array()?
        .iter()
        .map(|u| u.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()?;
    Some((users, value.get("score")?.as_f64()?))
}

/// Reference selections for each of `budgets`: `pipeline::Podium` with
/// the service's bucketing and the CELF engine, whose order the service
/// serves.
pub fn reference(
    repo: &UserRepository,
    weights: WeightScheme,
    budgets: &[usize],
) -> Vec<(Vec<String>, f64)> {
    let fitted = Podium::new()
        .bucketing(BucketingConfig::paper_default())
        .weights(weights)
        .lazy(true)
        .fit(repo);
    budgets
        .iter()
        .map(|&b| {
            let selection = fitted.select(b);
            (names(repo, &selection.users), selection.score)
        })
        .collect()
}

/// Layer values the service exports through the `stats` op, read after
/// the window.
pub fn stats_details(service: &PodiumService) -> Vec<Metric> {
    let Some(stats) = ok_value(&service.handle_line(r#"{"op":"stats"}"#)) else {
        return Vec::new();
    };
    let n = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (hits, misses, publishes) = (n("cache_hits"), n("cache_misses"), n("publishes"));
    vec![
        Metric::new(
            "snapshot.memo_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
            (hits + misses) as usize,
        ),
        Metric::new(
            "executor.rejected",
            "count",
            n("rejected"),
            n("submitted") as usize,
        ),
        Metric::new(
            "writer.patched_ratio",
            "ratio",
            ratio(n("patched_publishes"), publishes),
            publishes as usize,
        ),
        Metric::new(
            "writer.memos_carried",
            "count",
            n("memos_carried"),
            publishes as usize,
        ),
        Metric::new(
            "writer.memos_invalidated",
            "count",
            n("memos_invalidated"),
            publishes as usize,
        ),
        Metric::new("wal.bytes", "bytes", n("wal_bytes"), publishes as usize),
    ]
}

/// Names of selected users.
pub fn names(repo: &UserRepository, users: &[podium_core::ids::UserId]) -> Vec<String> {
    users
        .iter()
        .map(|&u| repo.user_name(u).unwrap_or("<unknown>").to_owned())
        .collect()
}

/// A check that a served selection equals the reference.
pub fn same_selection(
    name: &'static str,
    served: &(Vec<String>, f64),
    want: &(Vec<String>, f64),
) -> Check {
    Check {
        name,
        passed: served.0 == want.0 && served.1 == want.1,
        detail: format!(
            "served {:?} score {} / reference {:?} score {}",
            served.0, served.1, want.0, want.1
        ),
    }
}

/// The median and the `q`-th percentile of ascending µs samples of one
/// operation, named `<op>_p50_<unit>` and `<op>_p<q>_<unit>`, with `unit`
/// `us` or `ms`.
pub fn op_percentiles(op: &str, q: u32, sorted_us: &[f64], unit: &'static str) -> [Metric; 2] {
    let scale = if unit == "ms" { 1e-3 } else { 1.0 };
    let at = |p: f64| percentile(sorted_us, p).unwrap_or(0.0) * scale;
    let n = sorted_us.len();
    [
        Metric::new(&format!("{op}_p50_{unit}"), unit, at(50.0), n),
        Metric::new(&format!("{op}_p{q}_{unit}"), unit, at(f64::from(q)), n),
    ]
}

/// Element-wise sum of two per-sub-window counts.
pub fn add_counts(a: &[u64], b: &[u64]) -> Vec<u64> {
    (0..a.len().max(b.len()))
        .map(|k| a.get(k).unwrap_or(&0) + b.get(k).unwrap_or(&0))
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh directory under the benchmark's build directory, removed on
/// drop. Every file a run writes stays inside the checkout.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `target/scratch/<pid>-<tag>` next to the benchmark manifest.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("scratch")
            .join(format!("{}-{tag}", std::process::id()));
        // A directory left by a killed earlier process with the same pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The shared clock of one run: warm-up from `start`, then the window of
/// [`SUBWINDOWS`] equal sub-windows.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Load starts.
    pub start: Instant,
    /// The window opens.
    pub window_start: Instant,
    /// The window closes and load stops.
    pub end: Instant,
    sub: Duration,
}

impl Clock {
    /// A clock starting now.
    pub fn new(plan: &Plan) -> Self {
        let start = Instant::now();
        Self {
            start,
            window_start: start + plan.warmup,
            end: start + plan.warmup + plan.window,
            sub: plan.window / SUBWINDOWS,
        }
    }

    /// Boundary `k` of the window: `k = 0` opens it, `k = SUBWINDOWS`
    /// closes it.
    pub fn boundary(&self, k: u32) -> Instant {
        self.window_start + self.sub * k
    }
}

/// Sleeps until `t` (returns at once when it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Microseconds between two instants.
pub fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Lets the open-loop generator threads run, and stops them at each
/// sub-window boundary until the host probe is done. While paused no
/// operation starts, and operations that fall due are skipped; the pause
/// waits for operations in flight to finish, so the probe runs alone.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    paused: bool,
    in_flight: usize,
    /// The sub-window open now; `None` in the warm-up and after the window.
    window: Option<usize>,
    /// The last pause, as `[start, end)`.
    last_pause: Option<(Instant, Instant)>,
}

/// One operation in flight; it ends when this is dropped.
#[derive(Debug)]
pub struct InFlight<'g> {
    gate: &'g Gate,
    /// The sub-window the operation is measured in; `None` outside the
    /// window.
    pub window: Option<usize>,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Every update leaves the state valid, so a poisoned lock is safe
        // to enter, and a drop must not panic.
        let mut s = self
            .gate
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        s.in_flight -= 1;
        self.gate.changed.notify_all();
    }
}

impl Gate {
    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .expect("the gate's lock is poisoned only by a panicking generator")
    }

    /// Starts the operation due at `due`: waits out a pause, and returns
    /// `None` when `due` fell inside one, so the operation is skipped.
    pub fn enter(&self, due: Instant) -> Option<InFlight<'_>> {
        let mut s = self.lock();
        while s.paused {
            s = self
                .changed
                .wait(s)
                .expect("the gate's lock is poisoned only by a panicking generator");
        }
        if s.last_pause.is_some_and(|(a, b)| a <= due && due < b) {
            return None;
        }
        s.in_flight += 1;
        Some(InFlight {
            gate: self,
            window: s.window,
        })
    }

    /// Marks a boundary: pauses the generators, waits for operations in
    /// flight, runs the probe, and opens `window` (`None` closes the
    /// window).
    pub fn boundary(&self, probes: &mut Probes, window: Option<usize>) {
        let start = Instant::now();
        let mut s = self.lock();
        s.paused = true;
        while s.in_flight > 0 {
            s = self
                .changed
                .wait(s)
                .expect("the gate's lock is poisoned only by a panicking generator");
        }
        drop(s);
        probes.boundary();
        let mut s = self.lock();
        s.paused = false;
        s.window = window;
        s.last_pause = Some((start, Instant::now()));
        self.changed.notify_all();
    }

    /// The main thread's part in an open-loop run: marks every boundary of
    /// the window on time.
    pub fn drive(&self, clock: &Clock, probes: &mut Probes) {
        for k in 0..=SUBWINDOWS {
            sleep_until(clock.boundary(k));
            let next = (k < SUBWINDOWS).then_some(k as usize);
            self.boundary(probes, next);
        }
    }
}

/// An open loop: calls `op(i, due, window)` for due times
/// `start + i·period` before `end`, sleeping until each is due. A late call
/// starts at once, so a stall delays later calls and shows in their
/// due-time latency. `window` is the sub-window the call is measured in.
pub fn open_loop(
    start: Instant,
    end: Instant,
    period: Duration,
    gate: &Gate,
    mut op: impl FnMut(u64, Instant, Option<usize>),
) {
    let mut i: u64 = 0;
    loop {
        let due = start + period.mul_f64(i as f64);
        if due >= end {
            return;
        }
        sleep_until(due);
        if let Some(call) = gate.enter(due) {
            op(i, due, call.window);
        }
        i += 1;
    }
}
