//! The simulation loop.
//!
//! [`run_sim`] pops events off the virtual-clock heap, turns them into
//! real protocol requests against a real [`PodiumService`], and records
//! three artifacts:
//!
//! * an **event trace** (`podium.sim-trace/1` JSONL) — virtual time,
//!   event kind, and the exact request line. A pure function of
//!   `(seed, scenario)` for healthy transports, so two runs with the
//!   same seed produce *byte-identical* traces;
//! * a **request log** (`podium.sim-requests/1` JSONL) — per-request
//!   wall latency, outcome tag, response epoch, and epoch staleness
//!   (how far the answering snapshot lagged the newest epoch the
//!   driver has observed);
//! * a **rollup** (`podium.sim-rollup/1` JSON) — deterministic
//!   counters only (no wall-clock fields), byte-identical per seed for
//!   healthy runs.
//!
//! Wall-clock performance numbers (req/s, percentiles) go to the human
//! summary and the dashboard, never into the trace or rollup.
//!
//! A scenario with closed-loop clients ([`crate::clients`]) also runs
//! them for the whole window and paces the event loop to wall-clock
//! time, so its rates are real rates. Client requests are logged in
//! `requests.jsonl` (rows carrying a `client` index) after the window,
//! behind a closing `stats` reading and followed by each TCP client's
//! final `client-health`; none of them reach the trace or the rollup,
//! which therefore stay what the event loop asked.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::assigned_property;
use podium_service::protocol::{encode_request, num_u64, Request};
use podium_service::recovery::{self, DurabilityOptions};
use podium_service::service::{PodiumService, ServiceConfig};
use podium_service::session::FeedbackDelta;
use podium_service::snapshot::{
    rank_percentile, ProfileUpdate, PublishMode, SelectConstraints, SelectParams,
};
use serde_json::Value;

use crate::clients::{ClientRun, ClosedLoop};
use crate::events::{Event, EventQueue};
use crate::population::{bucket_score, Population, SimUser};
use crate::rng::SimRng;
use crate::scenario::Scenario;
use crate::stream::{parse_stream, JsonlStream};
use crate::transport::{micros, outcome_tag, Endpoint, Transport, TransportSpec};
use crate::SimError;

/// Schema tag of event-trace rows.
pub const TRACE_SCHEMA: &str = "podium.sim-trace/1";
/// Schema tag of request-log rows.
pub const REQUESTS_SCHEMA: &str = "podium.sim-requests/1";
/// Schema tag of the deterministic rollup document.
pub const ROLLUP_SCHEMA: &str = "podium.sim-rollup/1";

/// Everything that parameterizes a run besides the scenario.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// How requests reach the service.
    pub transport: TransportSpec,
}

/// How the service under test is deployed: the knobs a scenario leaves
/// to the command line because they pick *which* service is measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Deployment {
    /// How the writer materializes epochs.
    pub publish_mode: PublishMode,
    /// Data dir, fsync policy and checkpoint cadence; `None` serves from
    /// memory.
    pub durability: Option<DurabilityOptions>,
}

/// The three artifacts of a run plus a human summary.
#[derive(Debug)]
pub struct SimOutput {
    /// Event-trace JSONL (deterministic).
    pub trace: String,
    /// Request-log JSONL (wall-clock latencies).
    pub requests: String,
    /// Deterministic rollup document.
    pub rollup: Value,
    /// Wall-clock summary for stdout.
    pub human: String,
    /// The dashboard's `sim` section over this run's trace and request
    /// log (what `sim report` shows for them).
    pub dashboard: Value,
}

/// Stream keys for [`SimRng::derive`]; fixed so adding a process never
/// reseeds the others.
mod streams {
    pub const POPULATION: u64 = 1;
    pub const ARRIVAL: u64 = 2;
    pub const CHURN: u64 = 3;
    pub const DRIFT: u64 = 4;
    pub const SESSION: u64 = 5;
    pub const CLIENTS: u64 = 6;
}

/// The `stats` response fields an observer row copies into the request
/// log, so the dashboard reads service counters from the log alone.
const STATS_COUNTERS: [&str; 10] = [
    "cache_hits",
    "cache_misses",
    "publishes",
    "patched_publishes",
    "publish_p50_micros",
    "publish_p99_micros",
    "member_lists_rewritten",
    "reverse_links_rewritten",
    "csr_rows_written",
    "queue_depth",
];

struct SessionState {
    server_id: u64,
    selects_left: usize,
    refines_left: usize,
    /// Groups this session already sent as `must_have` / `must_not`:
    /// feedback accumulates server-side, so a later refine must not send
    /// one of them the other way.
    must_have: BTreeSet<u32>,
    must_not: BTreeSet<u32>,
}

/// The mutable heart of a run.
struct Driver {
    scenario: Scenario,
    transport: Transport,
    arrival_rng: SimRng,
    churn_rng: SimRng,
    drift_rng: SimRng,
    session_rng: SimRng,
    population: Population,
    sessions: BTreeMap<u64, SessionState>,
    next_sid: u64,
    group_count: u64,
    max_epoch: u64,
    // Artifacts under construction.
    trace: String,
    trace_seq: u64,
    requests: String,
    request_seq: u64,
    // Deterministic counters.
    events_processed: u64,
    by_op: BTreeMap<&'static str, u64>,
    outcomes: BTreeMap<String, u64>,
    users_created: u64,
    users_churned: u64,
    drift_steps: u64,
    drift_moves: u64,
    sessions_opened: u64,
    sessions_completed: u64,
    max_staleness: u64,
    staleness_sum: u64,
}

/// Runs one simulation to completion against an in-memory service.
pub fn run_sim(scenario: &Scenario, options: &SimOptions) -> Result<SimOutput, SimError> {
    run_sim_with(scenario, options, &Deployment::default())
}

/// [`run_sim`] against a service deployed as `deployment` says. A
/// durable run ends with a timed cold recovery of its data dir, logged
/// as a `recovery` row of the request log.
pub fn run_sim_with(
    scenario: &Scenario,
    options: &SimOptions,
    deployment: &Deployment,
) -> Result<SimOutput, SimError> {
    let root = SimRng::new(options.seed);
    let build =
        || crate::population::build_initial(scenario, &mut root.derive(streams::POPULATION));
    let (repo, buckets, population) = build();
    let config = ServiceConfig {
        workers: scenario.service.workers,
        queue_capacity: scenario.service.queue_capacity,
        default_deadline_ms: scenario.service.deadline_ms,
        publish_mode: deployment.publish_mode,
        ..ServiceConfig::default()
    };
    let service = Arc::new(match &deployment.durability {
        None => PodiumService::new(repo, &buckets, config),
        Some(opts) => {
            PodiumService::with_durability(repo, &buckets, config, opts.clone())
                .map_err(|e| SimError::Io(format!("data dir {}: {e}", opts.data_dir.display())))?
                .0
        }
    });
    let endpoint = Endpoint::start(
        &options.transport,
        Arc::clone(&service),
        scenario.service.deadline_ms,
        options.seed,
    )?;
    let mut client_rng = root.derive(streams::CLIENTS);
    let connections = (0..scenario.clients)
        .map(|_| endpoint.connect(client_rng.next_u64()))
        .collect::<Result<Vec<_>, _>>()?;

    let mut driver = Driver {
        scenario: scenario.clone(),
        transport: endpoint.connect(options.seed)?,
        arrival_rng: root.derive(streams::ARRIVAL),
        churn_rng: root.derive(streams::CHURN),
        drift_rng: root.derive(streams::DRIFT),
        session_rng: root.derive(streams::SESSION),
        population,
        sessions: BTreeMap::new(),
        next_sid: 0,
        group_count: 0,
        max_epoch: 0,
        trace: String::new(),
        trace_seq: 0,
        requests: String::new(),
        request_seq: 0,
        events_processed: 0,
        by_op: BTreeMap::new(),
        outcomes: BTreeMap::new(),
        users_created: 0,
        users_churned: 0,
        drift_steps: 0,
        drift_moves: 0,
        sessions_opened: 0,
        sessions_completed: 0,
        max_staleness: 0,
        staleness_sum: 0,
    };

    let end_us = duration_us(scenario.duration_s);
    let mut queue = EventQueue::new();
    // The observer polls first (at t=0) so the driver knows the group
    // count and starting epoch before any session asks for refinements.
    queue.schedule(0, Event::Observer);
    let first_arrival = driver.arrival_rng.exp_gap_us(scenario.arrival_rate_hz);
    schedule_before(&mut queue, first_arrival, end_us, Event::Arrival);
    let first_churn = driver.churn_rng.exp_gap_us(scenario.churn_rate_hz);
    schedule_before(&mut queue, first_churn, end_us, Event::Churn);
    let first_drift = driver.drift_rng.exp_gap_us(scenario.drift.rate_hz);
    schedule_before(&mut queue, first_drift, end_us, Event::Drift);
    let first_session = driver.session_rng.exp_gap_us(scenario.session.rate_hz);
    schedule_before(&mut queue, first_session, end_us, Event::OpenSession);
    queue.schedule(end_us, Event::End);

    // podium-lint: allow(determinism-hygiene) — wall clock measures run duration for the human summary only; it never feeds the trace
    let wall_start = Instant::now();
    let budget = scenario.session.budget;
    let select = Request::Select {
        params: default_params(budget),
        constraints: None,
        session: None,
        deadline_ms: None,
        stale_ok: false,
    };
    let clients = (!connections.is_empty())
        .then(|| ClosedLoop::start(connections, &encode_request(&select), budget));
    while let Some(scheduled) = queue.pop() {
        if let Some(clients) = &clients {
            clients.pace(scheduled.at_us);
        }
        if matches!(scheduled.event, Event::End) {
            break;
        }
        driver.events_processed += 1;
        driver.dispatch(&mut queue, scheduled.at_us, end_us, &scheduled.event);
    }
    let runs = clients.map(ClosedLoop::stop).unwrap_or_default();
    // Drain: close whatever sessions are still open, in sid order, at
    // the horizon.
    let open: Vec<u64> = driver.sessions.keys().copied().collect();
    for sid in open {
        driver.close_session(end_us, sid);
    }
    let wall_s = wall_start.elapsed().as_secs_f64();

    // The rollup counts the event loop only: it is taken before the
    // closing stats, client and recovery rows join the request log.
    let rollup = driver.rollup(options);
    if !runs.is_empty() {
        // The clients outlive the last observer poll; a closing `stats`
        // reading gives the dashboard counters that cover all of them.
        let line = encode_request(&Request::Stats);
        driver.request(end_us, "stats", &line);
        driver.log_clients(end_us, &runs);
    }
    if let Some(opts) = &deployment.durability {
        let (wal_bytes, checkpoint_epoch) = service
            .durability()
            .map(|d| (d.wal_bytes(), d.last_checkpoint_epoch()))
            .unwrap_or_default();
        let (genesis, _, _) = build();
        // podium-lint: allow(determinism-hygiene) — times the post-run cold recovery for requests.jsonl and the human summary; it never feeds the trace or rollup
        let started = Instant::now();
        let recovered =
            recovery::recover(&opts.data_dir, genesis, &buckets, deployment.publish_mode);
        let latency_us = micros(started.elapsed());
        let (outcome, epoch) = match &recovered {
            Ok((_, _, report)) => ("ok", report.recovered_epoch),
            Err(e) => (e.code(), 0),
        };
        let extra = vec![
            ("epoch", num_u64(epoch)),
            ("wal_bytes", num_u64(wal_bytes)),
            ("last_checkpoint_epoch", num_u64(checkpoint_epoch)),
        ];
        driver.log_request(end_us, "recovery", outcome, latency_us, extra);
    }
    let logs = [
        ("trace.jsonl", &driver.trace),
        ("requests.jsonl", &driver.requests),
    ]
    .into_iter()
    .filter(|(_, text)| !text.is_empty())
    .map(|(path, text)| parse_stream(path, text))
    .collect::<Result<Vec<_>, _>>()?;
    let (human, dashboard) = driver.human_summary(options, wall_s, &logs);
    Ok(SimOutput {
        trace: driver.trace,
        requests: driver.requests,
        rollup,
        human,
        dashboard,
    })
}

/// Select parameters at `budget` under the paper's default schemes.
fn default_params(budget: usize) -> SelectParams {
    SelectParams {
        budget,
        weight: WeightScheme::LinearBySize,
        cov: CovScheme::Single,
        quota_hash: 0,
    }
}

/// `duration_s` in virtual microseconds, saturating.
fn duration_us(duration_s: f64) -> u64 {
    let us = duration_s * 1_000_000.0;
    if us >= 9.0e18 {
        u64::MAX
    } else {
        // podium-lint: allow(as-cast) — bounded by the 9e18 guard, non-negative by scenario validation
        us as u64
    }
}

/// Schedules `event` at absolute `at_us` unless it lies at/past the
/// horizon (or the gap overflowed to "never").
fn schedule_before(queue: &mut EventQueue, at_us: u64, end_us: u64, event: Event) {
    if at_us < end_us {
        queue.schedule(at_us, event);
    }
}

impl Driver {
    fn dispatch(&mut self, queue: &mut EventQueue, now_us: u64, end_us: u64, event: &Event) {
        match event {
            Event::Arrival => {
                self.arrival(now_us);
                let gap = self.arrival_rng.exp_gap_us(self.scenario.arrival_rate_hz);
                schedule_before(queue, now_us.saturating_add(gap), end_us, Event::Arrival);
            }
            Event::Churn => {
                self.churn(now_us);
                let gap = self.churn_rng.exp_gap_us(self.scenario.churn_rate_hz);
                schedule_before(queue, now_us.saturating_add(gap), end_us, Event::Churn);
            }
            Event::Drift => {
                self.drift(now_us);
                let gap = self.drift_rng.exp_gap_us(self.scenario.drift.rate_hz);
                schedule_before(queue, now_us.saturating_add(gap), end_us, Event::Drift);
            }
            Event::OpenSession => {
                self.open_session(queue, now_us, end_us);
                let gap = self.session_rng.exp_gap_us(self.scenario.session.rate_hz);
                schedule_before(
                    queue,
                    now_us.saturating_add(gap),
                    end_us,
                    Event::OpenSession,
                );
            }
            Event::SessionStep { sid } => self.session_step(queue, now_us, end_us, *sid),
            Event::Observer => {
                self.observe(now_us);
                let next = observer_gap_us(self.scenario.observer_rate_hz);
                if next < u64::MAX {
                    schedule_before(queue, now_us.saturating_add(next), end_us, Event::Observer);
                }
            }
            Event::End => {}
        }
    }

    /// One user joins: create the mirror record and stream its scores.
    fn arrival(&mut self, now_us: u64) {
        let ordinal = self.population.users.len();
        let spu = self.scenario.population.scores_per_user;
        let properties = self.scenario.population.properties;
        let buckets = self.scenario.drift.bucket_scores.len();
        let mut user = SimUser {
            name: format!("sim-user-{ordinal}"),
            props: Vec::with_capacity(spu),
            alive: true,
        };
        // Draw all randomness up front so the stream is independent of
        // transport outcomes.
        let mut writes = Vec::with_capacity(spu);
        for slot in 0..spu {
            let p = assigned_property(ordinal, slot, properties, spu);
            // podium-lint: allow(as-cast) — bucket count is a small scenario constant
            let bucket = self.arrival_rng.below(buckets as u64) as usize;
            user.props.push((p, bucket));
            writes.push((p, bucket_score(&self.scenario, bucket)));
        }
        let name = user.name.clone();
        self.population.push(user);
        self.users_created += 1;
        for (p, score) in writes {
            let request = Request::UpdateProfile {
                update: ProfileUpdate {
                    user: name.clone(),
                    property: format!("topic-{p}"),
                    score: Some(score),
                },
            };
            self.emit(now_us, "arrival", Some(&name), &request);
        }
    }

    /// One user leaves: retract every score and deactivate the mirror.
    fn churn(&mut self, now_us: u64) {
        let Some(user_idx) = self.population.pick_active(&mut self.churn_rng) else {
            return;
        };
        let Some(user) = self.population.users.get(user_idx) else {
            return;
        };
        let name = user.name.clone();
        let props: Vec<usize> = user.props.iter().map(|(p, _)| *p).collect();
        self.population.deactivate(user_idx);
        self.users_churned += 1;
        for p in props {
            let request = Request::UpdateProfile {
                update: ProfileUpdate {
                    user: name.clone(),
                    property: format!("topic-{p}"),
                    score: None,
                },
            };
            self.emit(now_us, "churn", Some(&name), &request);
        }
    }

    /// A batch of Markov drift steps; only bucket *changes* emit
    /// protocol traffic (same-bucket steps are free).
    fn drift(&mut self, now_us: u64) {
        for _ in 0..self.scenario.drift.batch {
            let Some(user_idx) = self.population.pick_active(&mut self.drift_rng) else {
                return;
            };
            let Some(user) = self.population.users.get(user_idx) else {
                return;
            };
            let slot = self.drift_rng.below(user.props.len() as u64);
            // podium-lint: allow(as-cast) — slot < props.len() by construction
            let Some(&(prop, bucket)) = user.props.get(slot as usize) else {
                continue;
            };
            self.drift_steps += 1;
            let row = self
                .scenario
                .drift
                .matrix
                .get(bucket)
                .cloned()
                .unwrap_or_default();
            let next = self.drift_rng.pick_row(&row);
            if next == bucket {
                continue;
            }
            self.drift_moves += 1;
            let name = {
                let Some(user) = self.population.users.get_mut(user_idx) else {
                    continue;
                };
                // podium-lint: allow(as-cast) — slot < props.len() by construction
                if let Some(entry) = user.props.get_mut(slot as usize) {
                    entry.1 = next;
                }
                user.name.clone()
            };
            let request = Request::UpdateProfile {
                update: ProfileUpdate {
                    user: name.clone(),
                    property: format!("topic-{prop}"),
                    score: Some(bucket_score(&self.scenario, next)),
                },
            };
            self.emit(now_us, "drift", Some(&name), &request);
        }
    }

    /// Opens a customization session and schedules its first step.
    fn open_session(&mut self, queue: &mut EventQueue, now_us: u64, end_us: u64) {
        let sid = self.next_sid;
        self.next_sid += 1;
        let response = self.emit(now_us, "open-session", None, &Request::OpenSession);
        let Some(response) = response else { return };
        let Some(server_id) = response.get("session").and_then(Value::as_u64) else {
            return;
        };
        self.sessions.insert(
            sid,
            SessionState {
                server_id,
                selects_left: self.scenario.session.selects,
                refines_left: self.scenario.session.refines,
                must_have: BTreeSet::new(),
                must_not: BTreeSet::new(),
            },
        );
        self.sessions_opened += 1;
        let think = self.scenario.session.think_ms.saturating_mul(1_000);
        schedule_before(
            queue,
            now_us.saturating_add(think),
            end_us,
            Event::SessionStep { sid },
        );
    }

    /// Advances one session: select → refine → close.
    fn session_step(&mut self, queue: &mut EventQueue, now_us: u64, end_us: u64, sid: u64) {
        let Some(state) = self.sessions.get(&sid) else {
            return;
        };
        let server_id = state.server_id;
        let params = default_params(self.scenario.session.budget);
        let mut reschedule = true;
        if state.selects_left > 0 {
            // Draw before sending so the stream shape is outcome-free.
            let stale_ok = self.session_rng.unit() < self.scenario.session.stale_ok_prob;
            // Constrained-select draw: fixed count (one draw whenever the
            // scenario has a constraints section), outcome-free.
            let constraints = match &self.scenario.constraints {
                Some(spec) if self.session_rng.unit() < spec.select_prob => {
                    Some(SelectConstraints {
                        quotas: spec.quotas.clone(),
                        anneal: spec.anneal,
                    })
                }
                Some(_) => None,
                None => None,
            };
            if let Some(s) = self.sessions.get_mut(&sid) {
                s.selects_left -= 1;
            }
            let request = Request::Select {
                params: SelectParams {
                    quota_hash: constraints.as_ref().map_or(0, SelectConstraints::fingerprint),
                    ..params
                },
                constraints,
                session: None,
                deadline_ms: None,
                stale_ok,
            };
            self.emit(now_us, "select", None, &request);
        } else if state.refines_left > 0 {
            let (must_have, must_not) = self.draw_feedback(sid);
            if let Some(s) = self.sessions.get_mut(&sid) {
                s.refines_left -= 1;
            }
            let request = Request::Refine {
                session: server_id,
                delta: FeedbackDelta {
                    must_have,
                    must_not,
                    priority: Vec::new(),
                    standard: None,
                    reset: false,
                },
                params,
            };
            let response = self.emit(now_us, "refine", None, &request);
            // A dead server-side session cannot progress: abandon it.
            if let Some(r) = &response {
                let tag = outcome_tag(r);
                if tag == "unknown_session" || tag == "session_retired" {
                    self.sessions.remove(&sid);
                    reschedule = false;
                }
            }
        } else {
            self.close_session(now_us, sid);
            self.sessions_completed += 1;
            reschedule = false;
        }
        if reschedule {
            let think = self.scenario.session.think_ms.saturating_mul(1_000);
            schedule_before(
                queue,
                now_us.saturating_add(think),
                end_us,
                Event::SessionStep { sid },
            );
        }
    }

    /// Draws refine feedback group ids for session `sid` from the last
    /// observed group count. Empty when the observer has not yet seen any
    /// groups. A drawn id the session already sent the other way is
    /// dropped, since the server would reject the contradiction; the
    /// draws themselves stay two per refine either way.
    fn draw_feedback(&mut self, sid: u64) -> (Vec<u32>, Vec<u32>) {
        if self.group_count == 0 {
            // Keep the draw count fixed regardless of group knowledge,
            // so later observer timing never shifts the stream.
            let _ = self.session_rng.next_u64();
            let _ = self.session_rng.next_u64();
            return (Vec::new(), Vec::new());
        }
        // podium-lint: allow(as-cast) — group ids are u32 by the dense-id construction
        let a = self.session_rng.below(self.group_count) as u32;
        // podium-lint: allow(as-cast) — group ids are u32 by the dense-id construction
        let b = self.session_rng.below(self.group_count) as u32;
        let Some(state) = self.sessions.get_mut(&sid) else {
            return (Vec::new(), Vec::new());
        };
        let must_have = if state.must_not.contains(&a) {
            Vec::new()
        } else {
            vec![a]
        };
        let must_not = if b == a || state.must_have.contains(&b) {
            Vec::new()
        } else {
            vec![b]
        };
        state.must_have.extend(&must_have);
        state.must_not.extend(&must_not);
        (must_have, must_not)
    }

    fn close_session(&mut self, now_us: u64, sid: u64) {
        let Some(state) = self.sessions.remove(&sid) else {
            return;
        };
        let request = Request::CloseSession {
            session: state.server_id,
        };
        self.emit(now_us, "close-session", None, &request);
    }

    /// Monitoring poll: refreshes the driver's epoch and group count.
    fn observe(&mut self, now_us: u64) {
        let response = self.emit(now_us, "observer", None, &Request::Stats);
        if let Some(r) = response {
            if let Some(groups) = r.get("groups").and_then(Value::as_u64) {
                self.group_count = groups;
            }
        }
    }

    /// Emits one request: trace row → transport call → request-log row.
    /// Returns the response object when the transport delivered one
    /// (even an `"ok":false` one).
    fn emit(
        &mut self,
        vt_us: u64,
        event: &str,
        user: Option<&str>,
        request: &Request,
    ) -> Option<Value> {
        let line = encode_request(request);
        let op = op_tag(request);
        // Trace row: deterministic fields only.
        let mut trace_pairs = vec![
            ("schema".to_owned(), Value::String(TRACE_SCHEMA.to_owned())),
            ("seq".to_owned(), num_u64(self.trace_seq)),
            ("vt_us".to_owned(), num_u64(vt_us)),
            ("event".to_owned(), Value::String(event.to_owned())),
        ];
        if let Some(u) = user {
            trace_pairs.push(("user".to_owned(), Value::String(u.to_owned())));
        }
        trace_pairs.push(("request".to_owned(), Value::String(line.clone())));
        self.push_row(true, Value::Object(trace_pairs));
        self.trace_seq += 1;
        self.request(vt_us, op, &line)
    }

    /// Sends one `op` request line and logs its request-log row (no
    /// trace row). Returns the response object as [`Driver::emit`] does.
    fn request(&mut self, vt_us: u64, op: &'static str, line: &str) -> Option<Value> {
        let (latency_us, result) = self.transport.call(line);
        let (outcome, response) = match result {
            Ok(value) => (outcome_tag(&value), Some(value)),
            Err(e) => (e.tag().to_owned(), None),
        };
        *self.by_op.entry(op).or_insert(0) += 1;
        *self.outcomes.entry(outcome.clone()).or_insert(0) += 1;

        let mut request_pairs = Vec::new();
        if let (Some(r), "stats") = (&response, op) {
            for field in STATS_COUNTERS {
                if let Some(v) = r.get(field) {
                    request_pairs.push((field, v.clone()));
                }
            }
        }
        if let Some(epoch) = response
            .as_ref()
            .and_then(|r| r.get("epoch"))
            .and_then(Value::as_u64)
        {
            // Staleness: how far this answer's snapshot lags the newest
            // epoch the driver has seen so far (before merging this one).
            let staleness = self.max_epoch.saturating_sub(epoch);
            self.max_epoch = self.max_epoch.max(epoch);
            request_pairs.push(("epoch", num_u64(epoch)));
            if matches!(op, "select" | "refine") {
                request_pairs.push(("staleness", num_u64(staleness)));
                self.max_staleness = self.max_staleness.max(staleness);
                self.staleness_sum += staleness;
            }
        }
        self.log_request(vt_us, op, &outcome, latency_us, request_pairs);
        response
    }

    /// Appends one request-log row: the fields every row carries, then
    /// `extra`.
    fn log_request(
        &mut self,
        vt_us: u64,
        op: &str,
        outcome: &str,
        latency_us: u64,
        extra: Vec<(&str, Value)>,
    ) {
        let mut pairs = vec![
            ("schema", Value::String(REQUESTS_SCHEMA.to_owned())),
            ("seq", num_u64(self.request_seq)),
            ("vt_us", num_u64(vt_us)),
            ("op", Value::String(op.to_owned())),
            ("outcome", Value::String(outcome.to_owned())),
            ("latency_us", num_u64(latency_us)),
        ];
        pairs.extend(extra);
        let pairs = pairs
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value));
        self.push_row(false, Value::Object(pairs.collect()));
        self.request_seq += 1;
    }

    /// Appends the closed-loop clients' requests to the request log, in
    /// client order after the event loop's rows, then one `client-health`
    /// row per client that has a breaker (TCP), at the horizon `end_us`.
    fn log_clients(&mut self, end_us: u64, runs: &[ClientRun]) {
        for (client, run) in (0u64..).zip(runs) {
            for sample in &run.samples {
                let mut extra = Vec::with_capacity(2);
                if let Some(epoch) = sample.epoch {
                    extra.push(("epoch", num_u64(epoch)));
                }
                extra.push(("client", num_u64(client)));
                self.log_request(
                    sample.sent_us,
                    "select",
                    &sample.outcome,
                    sample.latency_us,
                    extra,
                );
            }
        }
        for (client, run) in (0u64..).zip(runs) {
            let Some(health) = run.health else { continue };
            let extra = vec![
                ("client", num_u64(client)),
                ("state", Value::String(health.state.as_str().to_owned())),
                (
                    "consecutive_failures",
                    num_u64(u64::from(health.consecutive_failures)),
                ),
                (
                    "last_transition_epoch",
                    num_u64(health.last_transition_epoch),
                ),
                ("last_seen_epoch", num_u64(health.last_seen_epoch)),
            ];
            self.log_request(end_us, "client-health", "ok", 0, extra);
        }
    }

    fn push_row(&mut self, trace: bool, row: Value) {
        // podium-lint: allow(expect) — value trees built from plain strings/numbers cannot fail to serialize
        let line = serde_json::to_string(&row).expect("row serialization is infallible");
        let sink = if trace {
            &mut self.trace
        } else {
            &mut self.requests
        };
        sink.push_str(&line);
        sink.push('\n');
    }

    /// The deterministic rollup: counters only, no wall-clock fields.
    fn rollup(&self, options: &SimOptions) -> Value {
        let by_op: Vec<(String, Value)> = self
            .by_op
            .iter()
            .map(|(op, n)| ((*op).to_owned(), num_u64(*n)))
            .collect();
        let outcomes: Vec<(String, Value)> = self
            .outcomes
            .iter()
            .map(|(tag, n)| (tag.clone(), num_u64(*n)))
            .collect();
        Value::Object(vec![
            ("schema".to_owned(), Value::String(ROLLUP_SCHEMA.to_owned())),
            (
                "scenario".to_owned(),
                Value::String(self.scenario.name.clone()),
            ),
            ("seed".to_owned(), num_u64(options.seed)),
            (
                "transport".to_owned(),
                Value::String(options.transport.tag().to_owned()),
            ),
            (
                "virtual_duration_s".to_owned(),
                Value::Number(serde_json::Number::Float(self.scenario.duration_s)),
            ),
            ("events".to_owned(), num_u64(self.events_processed)),
            ("requests".to_owned(), num_u64(self.request_seq)),
            ("requests_by_op".to_owned(), Value::Object(by_op)),
            ("outcomes".to_owned(), Value::Object(outcomes)),
            ("users_created".to_owned(), num_u64(self.users_created)),
            ("users_churned".to_owned(), num_u64(self.users_churned)),
            ("drift_steps".to_owned(), num_u64(self.drift_steps)),
            ("drift_moves".to_owned(), num_u64(self.drift_moves)),
            ("sessions_opened".to_owned(), num_u64(self.sessions_opened)),
            (
                "sessions_completed".to_owned(),
                num_u64(self.sessions_completed),
            ),
            ("final_epoch".to_owned(), num_u64(self.max_epoch)),
            ("max_staleness".to_owned(), num_u64(self.max_staleness)),
            ("staleness_sum".to_owned(), num_u64(self.staleness_sum)),
        ])
    }

    /// Wall-clock summary for stdout; never part of the rollup: the run
    /// line, the dashboard's simulator section over this run's logs, and
    /// the event loop's state at the horizon. Returns the summary and
    /// that section.
    fn human_summary(
        &self,
        options: &SimOptions,
        wall_s: f64,
        logs: &[JsonlStream],
    ) -> (String, Value) {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sim '{}' seed {} transport {}: {} events, {} requests in {:.2}s wall ({:.0} req/s)",
            self.scenario.name,
            options.seed,
            options.transport.tag(),
            self.events_processed,
            self.request_seq,
            wall_s,
            // podium-lint: allow(as-cast) — request counts are far below 2^53
            if wall_s > 0.0 {
                self.request_seq as f64 / wall_s
            } else {
                0.0
            },
        );
        let dashboard = crate::report::sim_section(logs, &mut out).unwrap_or(Value::Null);
        let _ = writeln!(
            out,
            "epoch {} | max staleness {} | sessions {}/{} completed | users +{} -{}",
            self.max_epoch,
            self.max_staleness,
            self.sessions_completed,
            self.sessions_opened,
            self.users_created,
            self.users_churned,
        );
        (out, dashboard)
    }
}

/// The fixed observer period (regular, not Poisson: monitoring is a
/// cron job, not a user).
fn observer_gap_us(rate_hz: f64) -> u64 {
    if rate_hz.is_nan() || rate_hz <= 0.0 {
        return u64::MAX;
    }
    let us = 1_000_000.0 / rate_hz;
    if us >= 9.0e18 {
        u64::MAX
    } else {
        // podium-lint: allow(as-cast) — bounded by the 9e18 guard, positive by the rate check
        (us as u64).max(1)
    }
}

/// `(p50, p99)` of a latency sample by floor rank
/// ([`rank_percentile`]).
pub fn percentiles(samples: &[u64]) -> (u64, u64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    (rank_percentile(&sorted, 50), rank_percentile(&sorted, 99))
}

fn op_tag(request: &Request) -> &'static str {
    match request {
        Request::Select { .. } => "select",
        Request::Explain { .. } => "explain",
        Request::OpenSession => "open-session",
        Request::CloseSession { .. } => "close-session",
        Request::Refine { .. } => "refine",
        Request::UpdateProfile { .. } => "update-profile",
        Request::Stats => "stats",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parse_scenario;

    const SCENARIO: &str = r#"{
        "schema": "podium.scenario/1",
        "name": "unit",
        "duration_s": 2.0,
        "population": {"users": 40, "properties": 8, "scores_per_user": 3},
        "arrival": {"rate_hz": 4.0},
        "churn": {"rate_hz": 2.0},
        "drift": {"rate_hz": 30.0, "batch": 2},
        "session": {"rate_hz": 6.0, "selects": 2, "refines": 1, "budget": 5,
                    "think_ms": 20, "stale_ok_prob": 0.3},
        "observer": {"rate_hz": 4.0},
        "service": {"workers": 2, "queue_capacity": 64, "deadline_ms": 2000}
    }"#;

    fn run(seed: u64) -> SimOutput {
        let scenario = parse_scenario(SCENARIO).unwrap();
        run_sim(
            &scenario,
            &SimOptions {
                seed,
                transport: TransportSpec::Inproc,
            },
        )
        .unwrap()
    }

    #[test]
    fn healthy_inproc_run_is_all_ok_and_busy() {
        let out = run(7);
        assert!(out.trace.lines().count() > 50, "trace too small");
        assert_eq!(out.trace.lines().count(), out.requests.lines().count());
        let outcomes = out.rollup.get("outcomes").unwrap();
        let ok = outcomes.get("ok").and_then(Value::as_u64).unwrap_or(0);
        let total = out
            .rollup
            .get("requests")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert_eq!(ok, total, "healthy inproc run must be all-ok: {outcomes:?}");
        assert!(out.rollup.get("final_epoch").unwrap().as_u64().unwrap() > 0);
        assert!(out.rollup.get("sessions_opened").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn every_trace_row_is_schema_tagged_with_monotone_seq() {
        let out = run(7);
        let mut expect = 0u64;
        for line in out.trace.lines() {
            let row: Value = serde_json::from_str(line).unwrap();
            assert_eq!(
                row.get("schema").and_then(Value::as_str),
                Some(TRACE_SCHEMA)
            );
            assert_eq!(row.get("seq").and_then(Value::as_u64), Some(expect));
            expect += 1;
        }
        assert!(expect > 0);
    }

    #[test]
    fn request_rows_carry_latency_outcome_epoch() {
        let out = run(7);
        let mut saw_staleness_field = false;
        for line in out.requests.lines() {
            let row: Value = serde_json::from_str(line).unwrap();
            assert_eq!(
                row.get("schema").and_then(Value::as_str),
                Some(REQUESTS_SCHEMA)
            );
            assert!(row.get("latency_us").and_then(Value::as_u64).is_some());
            assert!(row.get("outcome").and_then(Value::as_str).is_some());
            if row.get("staleness").is_some() {
                saw_staleness_field = true;
            }
        }
        assert!(saw_staleness_field, "selects must report staleness");
    }

    /// A small closed-loop scenario: two clients for 0.3 s while drift
    /// moves a bucket on every step.
    const CLOSED_LOOP: &str = r#"{
        "schema": "podium.scenario/1",
        "name": "closed-loop",
        "duration_s": 0.3,
        "clients": 2,
        "population": {"users": 200, "properties": 8, "scores_per_user": 3},
        "drift": {"rate_hz": 20.0, "matrix": [[0,0.5,0.5],[0.5,0,0.5],[0.5,0.5,0]]},
        "session": {"budget": 5},
        "observer": {"rate_hz": 20.0},
        "service": {"workers": 2, "queue_capacity": 64, "deadline_ms": 2000}
    }"#;

    fn closed_loop(transport: TransportSpec, deployment: &Deployment) -> (SimOutput, Value) {
        let scenario = parse_scenario(CLOSED_LOOP).unwrap();
        let options = SimOptions { seed: 7, transport };
        let out = run_sim_with(&scenario, &options, deployment).unwrap();
        let sim = out.dashboard.clone();
        (out, sim)
    }

    /// The request-log rows of `op`.
    fn rows_of_op(out: &SimOutput, op: &str) -> Vec<Value> {
        out.requests
            .lines()
            .map(|l| serde_json::from_str::<Value>(l).unwrap())
            .filter(|row| row.get("op").and_then(Value::as_str) == Some(op))
            .collect()
    }

    fn assert_clean(out: &SimOutput, sim: &Value) {
        let count = |key: &str| sim.get(key).and_then(Value::as_u64).unwrap();
        assert!(count("served") > 0, "no client select served: {sim:?}");
        assert_eq!(count("failed"), 0, "{sim:?}");
        assert_eq!(count("inconsistent"), 0, "{sim:?}");
        assert!(
            out.human.contains(
                "failed 0 (deadline 0, transport 0, other 0), overloaded 0, inconsistent 0"
            ),
            "{}",
            out.human
        );
        // Client requests reach the request log only.
        let client_selects = rows_of_op(out, "select")
            .into_iter()
            .filter(|row| row.get("client").is_some())
            .count();
        assert_eq!(u64::try_from(client_selects).unwrap(), count("served"));
        assert!(!out.trace.contains("\"client\":"));
        assert_eq!(
            out.rollup.get("requests").and_then(Value::as_u64),
            u64::try_from(out.trace.lines().count()).ok(),
            "the rollup counts the event loop's requests only"
        );
        // The closing stats reading covers every client select.
        assert!(
            count("cache_hits") + count("cache_misses") >= count("served"),
            "every served select passed through the cache: {sim:?}"
        );
    }

    #[test]
    fn closed_loop_inproc_run_is_clean() {
        let (out, sim) = closed_loop(TransportSpec::Inproc, &Deployment::default());
        assert_clean(&out, &sim);
        assert!(sim.get("throughput_rps").and_then(Value::as_f64).unwrap() > 0.0);
        let (p50, p99) = (sim.get("p50_us"), sim.get("p99_us"));
        assert!(p50.and_then(Value::as_u64) <= p99.and_then(Value::as_u64));
        assert!(
            !out.human.contains("client breakers:"),
            "in-process clients have no breaker: {}",
            out.human
        );
        let final_epoch = out.rollup.get("final_epoch").and_then(Value::as_u64);
        assert!(final_epoch > Some(0), "drift published");
    }

    #[test]
    fn closed_loop_tcp_run_is_clean() {
        let (out, sim) = closed_loop(TransportSpec::Tcp { chaos: false }, &Deployment::default());
        assert_clean(&out, &sim);
        assert!(
            out.human.contains("client breakers: closed, closed\n"),
            "{}",
            out.human
        );
    }

    #[test]
    fn durable_tcp_run_recovers_to_its_final_epoch() {
        let dir = std::env::temp_dir().join(format!(
            "podium-sim-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let deployment = Deployment {
            publish_mode: PublishMode::Incremental,
            durability: Some(DurabilityOptions::new(&dir)),
        };
        let (out, sim) = closed_loop(TransportSpec::Tcp { chaos: false }, &deployment);
        assert_clean(&out, &sim);
        let count = |key: &str| sim.get(key).and_then(Value::as_u64).unwrap();
        assert!(count("wal_bytes") > 0, "{sim:?}");
        assert!(sim.get("recovery_ms").and_then(Value::as_f64).unwrap() > 0.0);
        // Every update publishes one epoch, so the last acknowledged
        // update names the run's final epoch.
        let updates: Vec<Value> = rows_of_op(&out, "update-profile")
            .into_iter()
            .filter(|row| row.get("outcome").and_then(Value::as_str) == Some("ok"))
            .collect();
        let final_epoch = updates.last().and_then(|row| row.get("epoch")?.as_u64());
        assert!(final_epoch > Some(0), "drift published: {sim:?}");
        assert_eq!(
            Some(count("recovered_epoch")),
            final_epoch,
            "an always-fsync run recovers to its final epoch: {sim:?}"
        );
        assert!(out.human.contains("durable: wal "), "{}", out.human);
        assert!(
            out.human.contains("client breakers: closed, closed\n"),
            "{}",
            out.human
        );
        // Each client's final health is in the request log. Clients learn
        // the epoch from response payloads, so they only see a non-zero
        // epoch if an update published *before* their last response was
        // generated. On a loaded machine the sole update of a short window
        // can land after every client response — tolerate exactly that
        // race, and nothing else.
        let health = rows_of_op(&out, "client-health");
        assert_eq!(health.len(), 2, "{}", out.requests);
        for row in &health {
            assert_eq!(row.get("state").and_then(Value::as_str), Some("closed"));
            assert_eq!(
                row.get("consecutive_failures").and_then(Value::as_u64),
                Some(0)
            );
            assert!(
                row.get("last_seen_epoch").and_then(Value::as_u64) > Some(0) || updates.len() == 1,
                "{row:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steady_refines_never_contradict_their_session() {
        // Sessions refine twice; a group sent as must_have in the first
        // refine must not come back as must_not in the second (the server
        // answers that with a `core` error).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/sim_steady.json");
        let scenario = parse_scenario(&std::fs::read_to_string(path).unwrap()).unwrap();
        for seed in [701, 42] {
            let out = run_sim(
                &scenario,
                &SimOptions {
                    seed,
                    transport: TransportSpec::Inproc,
                },
            )
            .unwrap();
            let outcomes = out.rollup.get("outcomes").unwrap();
            let ok = outcomes.get("ok").and_then(Value::as_u64).unwrap_or(0);
            let total = out.rollup.get("requests").and_then(Value::as_u64).unwrap();
            assert_eq!(ok, total, "seed {seed}: {outcomes:?}");
        }
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentiles(&[]), (0, 0));
        assert_eq!(percentiles(&[5]), (5, 5));
        let many: Vec<u64> = (1..=100).collect();
        let (p50, p99) = percentiles(&many);
        assert_eq!(p50, 50);
        assert_eq!(p99, 99);
        // A full publish-stats ring (512 samples): the floor rank picks
        // indices 255 and 505 where a rounded rank would pick 256 and 506.
        let ring: Vec<u64> = (0..512).rev().collect();
        assert_eq!(percentiles(&ring), (255, 505));
    }
}
