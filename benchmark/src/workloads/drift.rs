//! `drift_select`: an open loop of `update-profile` at 50 Hz (one epoch
//! published per update, incremental mode) beside a default `select` at
//! 50 Hz, both in-process. Every update publishes an epoch, so nearly
//! every select misses the memo and pays CELF, and the publish path runs
//! 50 times a second. Latency is timed from each request's due time, so
//! a stall also counts against the requests queued behind it.

use std::time::{Duration, Instant};

use podium_core::bucket::BucketingConfig;
use podium_core::weights::WeightScheme;

use super::hot::elapsed_us;
use super::{
    add_counts, log_failure, micros, ok_value, op_percentiles, open_loop, reference,
    same_selection, served, setup_inproc, Check, Clock, Gate, Metric, Outcome, Plan,
};
use crate::host::Probes;
use crate::inputs::{repo_digest, select_line, serving_repo, UpdateStream};
use crate::rng::Digest;
use crate::stats::{percentile, sorted, Samples};
use crate::trace::Tracer;

/// Update period (50 Hz). At 100 Hz the one writer thread was busy 65%
/// of the time on a loaded host, and in some runs its backlog grew for
/// seconds, so the latency measured the host's load, not the program.
const UPDATE_EVERY: Duration = Duration::from_millis(20);
/// Select period (50 Hz).
const SELECT_EVERY: Duration = Duration::from_millis(20);
/// Budget of the default select.
const BUDGET: u64 = 8;

/// What one open-loop thread saw.
#[derive(Debug, Default)]
struct Lane {
    latency: Samples,
    lag_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Responses whose epoch was below an earlier response's.
    regressions: u64,
    /// Select responses without exactly `BUDGET` users.
    short: u64,
    last_epoch: u64,
}

impl Lane {
    /// Records one response; returns it parsed when it was a success.
    fn record(
        &mut self,
        response: &str,
        due: Instant,
        t0: Instant,
        t1: Instant,
        window: Option<usize>,
    ) -> Option<serde_json::Value> {
        self.attempted += 1;
        if let Some(w) = window {
            self.latency.push(w, micros(due, t1));
            self.lag_us.push(micros(due, t0));
        }
        let Some(v) = ok_value(response) else {
            log_failure("drift_select", response);
            self.failed += 1;
            return None;
        };
        let epoch = v
            .get("epoch")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        if epoch < self.last_epoch {
            self.regressions += 1;
        }
        self.last_epoch = self.last_epoch.max(epoch);
        Some(v)
    }
}

/// Runs the workload.
pub fn run(plan: &Plan, tracer: &Tracer, mut probes: Probes) -> Outcome {
    let repo = serving_repo(plan.seed, plan.quick);
    let select = select_line(BUDGET, "lbs");
    let total = plan.warmup + plan.window;
    let mut stream = UpdateStream::new(&repo, plan.seed);
    let updates: Vec<String> = (0..=(total.as_secs_f64() / UPDATE_EVERY.as_secs_f64()) as usize)
        .map(|_| stream.next_line())
        .collect();
    let mut digest = Digest::default();
    repo_digest(&repo, &mut digest);
    for l in std::iter::once(&select).chain(&updates) {
        digest.write(l.as_bytes());
    }
    let ((service, _buckets), setups) = setup_inproc(&repo, &mut probes);

    let clock = Clock::new(plan);
    let gate = Gate::default();
    let (writes, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut lane = Lane::default();
            open_loop(
                clock.start,
                clock.end,
                UPDATE_EVERY,
                &gate,
                |i, due, window| {
                    let t0 = Instant::now();
                    let response = service.handle_line(&updates[i as usize % updates.len()]);
                    let t1 = Instant::now();
                    lane.record(&response, due, t0, t1, window);
                    if tracer.enabled() && window.is_some() {
                        let mut spans = tracer.request(i << 1);
                        let root = spans.span(0, "update", due, t1);
                        spans.span(root, "loadgen.lag", due, t0);
                        tracer.commit(spans);
                    }
                },
            );
            lane
        });
        let reader = s.spawn(|| {
            let mut lane = Lane::default();
            // Every select falls due with an update, so each one runs
            // beside a publish. Offset midway between updates, whether a
            // select overlapped a publish hinged on how long both took,
            // and the median select moved between the two cases from run
            // to run.
            open_loop(
                clock.start,
                clock.end,
                SELECT_EVERY,
                &gate,
                |i, due, window| {
                    let t0 = Instant::now();
                    let response = service.handle_line(&select);
                    let t1 = Instant::now();
                    let users = lane
                        .record(&response, due, t0, t1, window)
                        .and_then(|v| served(&v))
                        .map(|(users, _)| users.len());
                    if users.is_some_and(|n| n != BUDGET as usize) {
                        lane.short += 1;
                    }
                    if tracer.enabled() && window.is_some() {
                        let mut spans = tracer.request(i << 1 | 1);
                        let root = spans.span(0, "select", due, t1);
                        spans.span(root, "loadgen.lag", due, t0);
                        if let Some(e) = elapsed_us(&response) {
                            let inner = t1 - Duration::from_secs_f64(e / 1e6).min(t1 - t0);
                            spans.span(root, "service.select", inner, t1);
                        }
                        tracer.commit(spans);
                    }
                },
            );
            lane
        });
        gate.drive(&clock, &mut probes);
        (
            writer.join().expect("the drift_select writer panicked"),
            reader.join().expect("the drift_select reader panicked"),
        )
    });
    let peak_rss_mb = super::peak_rss_mb();

    let final_repo = service.store().load().repo().clone();
    let live = ok_value(&service.handle_line(&select))
        .and_then(|v| served(&v))
        .unwrap_or_default();
    let want = reference(&final_repo, WeightScheme::LinearBySize, &[BUDGET as usize]).remove(0);
    let checks = vec![
        Check {
            name: "drift_select.epochs_monotone",
            passed: writes.regressions == 0 && reads.regressions == 0,
            detail: format!(
                "{} update and {} select responses went back in epoch; last epochs {} and {}",
                writes.regressions, reads.regressions, writes.last_epoch, reads.last_epoch
            ),
        },
        Check {
            name: "drift_select.full_slates",
            passed: reads.short == 0,
            detail: format!("{} selects returned other than {BUDGET} users", reads.short),
        },
        same_selection("drift_select.final_matches_reference", &live, &want),
    ];

    let lag = sorted(reads.lag_us.iter().chain(&writes.lag_us).copied().collect());
    let mut details = vec![Metric::new(
        "loadgen.lag_p99_us",
        "us",
        percentile(&lag, 99.0).unwrap_or(0.0),
        lag.len(),
    )];
    details.extend(op_percentiles(
        "select",
        99,
        &reads.latency.scaled(&probes),
        "us",
    ));
    details.extend(op_percentiles(
        "update",
        99,
        &writes.latency.scaled(&probes),
        "us",
    ));
    details.extend(super::stats_details(&service));
    Outcome {
        attempted: writes.attempted + reads.attempted,
        failed: writes.failed + reads.failed,
        checks,
        setups,
        ops: add_counts(&reads.latency.per_window(), &writes.latency.per_window()),
        latency: reads.latency,
        probes,
        peak_rss_mb,
        tail: 99.0,
        details,
        digest: digest.finish(),
        final_input: tracer
            .enabled()
            .then(|| (final_repo, BucketingConfig::paper_default())),
    }
}
