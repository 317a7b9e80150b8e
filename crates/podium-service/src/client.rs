//! A resilient TCP client for the line-JSON protocol.
//!
//! [`PodiumClient`] owns one connection at a time and layers three
//! recovery mechanisms on top of it:
//!
//! * **Reconnection with backoff** — transport failures (connect refusal,
//!   broken pipe, EOF mid-response) discard the connection and retry after
//!   an exponentially growing, jittered delay, up to
//!   [`ClientConfig::max_attempts`] attempts per request.
//! * **Per-request deadlines** — every call carries an absolute deadline
//!   ([`ClientConfig::request_timeout`] from the start of the call); the
//!   retry loop, the connect, and each socket read are all bounded by it.
//!   A timed-out connection is discarded even if it later answers,
//!   because the stale response would desynchronise the framing.
//! * **A circuit breaker** — after [`ClientConfig::breaker_threshold`]
//!   consecutive transport failures the breaker *opens* and calls fail
//!   fast with [`ClientError::BreakerOpen`] (no socket work at all).
//!   After [`ClientConfig::breaker_cooldown`] it becomes *half-open*: the
//!   next call is a single probe with no retries — success closes the
//!   breaker, failure re-opens it and restarts the cooldown.
//!
//! Responses with `"ok":false` are *successes* for the breaker: the
//! server is alive and answering, the request was simply rejected. They
//! are returned to the caller without retry — retrying a `bad_request`
//! can never help, and retrying `overloaded` is the caller's policy
//! decision, not the transport's.
//!
//! Jitter is deterministic: it is drawn from a splitmix64 stream seeded
//! by [`ClientConfig::seed`], so two clients configured with the same
//! seed back off identically — which the chaos harness relies on.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use podium_core::rng::unit_float;
use serde_json::Value;

use crate::protocol::{self, Request};

/// Timing, retry, and breaker knobs for [`PodiumClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on each TCP connect attempt.
    pub connect_timeout: Duration,
    /// Per-call budget covering all attempts, backoff included.
    pub request_timeout: Duration,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Cap on the (pre-jitter) retry delay.
    pub backoff_max: Duration,
    /// Attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// Consecutive transport failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before allowing a half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed for the jitter stream; same seed ⇒ same backoff schedule.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            max_attempts: 4,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
            seed: 0x51_C1_E5,
        }
    }
}

/// Why a call failed. `Server` is not here on purpose: an `"ok":false`
/// response is returned as a normal [`Value`], not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The breaker is open; the call failed fast without touching the
    /// socket.
    BreakerOpen,
    /// The per-request deadline expired (possibly across several
    /// attempts).
    Timeout,
    /// Connect/read/write failed and retries were exhausted.
    Transport(String),
    /// The server answered with a line that is not a JSON object.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BreakerOpen => write!(f, "circuit breaker open"),
            ClientError::Timeout => write!(f, "request deadline exceeded"),
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A point-in-time view of the client's breaker/health state, as a
/// closed-loop `sim run` reports it per client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHealth {
    /// The breaker's current state.
    pub state: BreakerState,
    /// Consecutive transport failures since the last response.
    pub consecutive_failures: u32,
    /// The client's epoch view at the most recent breaker transition
    /// (close→open or back); `0` when no transition has happened.
    pub last_transition_epoch: u64,
    /// Highest `epoch` field seen in any response (`0` before the first).
    pub last_seen_epoch: u64,
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow normally.
    Closed,
    /// Failing fast; no socket work until the cooldown elapses.
    Open,
    /// Cooldown elapsed; the next call is a single probe.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name (`closed` / `open` / `half_open`).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Counters describing everything the client has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls issued (including fast failures).
    pub requests: u64,
    /// Calls that returned a response line (ok or not).
    pub successes: u64,
    /// Extra attempts beyond the first, across all calls.
    pub retries: u64,
    /// Fresh TCP connections established.
    pub reconnects: u64,
    /// Calls that failed with [`ClientError::Timeout`].
    pub timeouts: u64,
    /// Transport-level attempt failures (one per failed attempt).
    pub transport_errors: u64,
    /// Closed→Open transitions.
    pub breaker_opens: u64,
    /// Calls rejected instantly by an open breaker.
    pub fast_failures: u64,
}

struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    threshold: u32,
    cooldown: Duration,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            threshold: threshold.max(1),
            cooldown,
        }
    }

    /// Called at the top of each request; promotes Open→HalfOpen once the
    /// cooldown has elapsed and says whether the call may proceed.
    fn admit(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let expired = self
                    .opened_at
                    .is_some_and(|t| now.duration_since(t) >= self.cooldown);
                if expired {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A response line arrived (server alive). Closes from any state.
    fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// A transport-level failure. Returns true when this transition
    /// opened the breaker.
    fn record_failure(&mut self, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let should_open =
            self.state == BreakerState::HalfOpen || self.consecutive_failures >= self.threshold;
        if should_open && self.state != BreakerState::Open {
            self.state = BreakerState::Open;
            self.opened_at = Some(now);
            return true;
        }
        if should_open {
            // Already open: refresh the cooldown.
            self.opened_at = Some(now);
        }
        false
    }
}

/// A single-connection resilient client. Not `Sync`; give each thread its
/// own client (they can share an address and a seed base).
pub struct PodiumClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    breaker: Breaker,
    rng: u64,
    stats: ClientStats,
    read_buffer: Vec<u8>,
    last_seen_epoch: u64,
    last_transition_epoch: u64,
}

impl std::fmt::Debug for PodiumClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PodiumClient")
            .field("addr", &self.addr)
            .field("connected", &self.stream.is_some())
            .field("breaker", &self.breaker.state)
            .finish()
    }
}

/// Read-timeout tick while waiting for a response; each expiry re-checks
/// the request deadline.
const READ_TICK: Duration = Duration::from_millis(50);

impl PodiumClient {
    /// Creates a client for `addr`. No connection is made until the first
    /// call (lazy connect keeps construction infallible).
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        Self {
            addr,
            breaker: Breaker::new(config.breaker_threshold, config.breaker_cooldown),
            rng: config.seed,
            config,
            stream: None,
            stats: ClientStats::default(),
            read_buffer: Vec::with_capacity(1024),
            last_seen_epoch: 0,
            last_transition_epoch: 0,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The client's breaker/health view, for health reporting.
    pub fn health(&self) -> ClientHealth {
        ClientHealth {
            state: self.breaker.state,
            consecutive_failures: self.breaker.consecutive_failures,
            last_transition_epoch: self.last_transition_epoch,
            last_seen_epoch: self.last_seen_epoch,
        }
    }

    /// The breaker's current state (Open is reported as such even if the
    /// cooldown has elapsed; promotion to HalfOpen happens on the next
    /// call).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state
    }

    /// Encodes `request` and performs a [`PodiumClient::call`].
    pub fn call_request(&mut self, request: &Request) -> Result<Value, ClientError> {
        let line = protocol::encode_request(request);
        self.call(&line)
    }

    /// Sends one request line and returns the parsed response object,
    /// retrying through transport failures per the configured policy.
    pub fn call(&mut self, line: &str) -> Result<Value, ClientError> {
        self.stats.requests += 1;
        let now = Instant::now();
        if !self.breaker.admit(now) {
            self.stats.fast_failures += 1;
            return Err(ClientError::BreakerOpen);
        }
        let deadline = now + self.config.request_timeout;
        // A half-open breaker allows exactly one probe attempt.
        let max_attempts = if self.breaker.state == BreakerState::HalfOpen {
            1
        } else {
            self.config.max_attempts.max(1)
        };
        let mut last_transport = String::from("no attempt made");
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                if !self.sleep_backoff(attempt, deadline) {
                    self.stats.timeouts += 1;
                    return Err(ClientError::Timeout);
                }
            }
            match self.attempt(line, deadline) {
                Ok(value) => {
                    if self.breaker.state != BreakerState::Closed {
                        // Recovery transition: stamp the epoch view.
                        self.last_transition_epoch = self.last_seen_epoch;
                    }
                    self.breaker.record_success();
                    self.stats.successes += 1;
                    if let Some(epoch) = value.get("epoch").and_then(Value::as_u64) {
                        self.last_seen_epoch = self.last_seen_epoch.max(epoch);
                    }
                    return Ok(value);
                }
                Err(AttemptError::Timeout) => {
                    // A timeout is not a breaker failure: the server may
                    // simply be slower than our deadline. But the stream
                    // is now desynchronised, so drop it.
                    self.disconnect();
                    self.stats.timeouts += 1;
                    return Err(ClientError::Timeout);
                }
                Err(AttemptError::Protocol(m)) => {
                    // The server spoke, but not JSON: framing is gone.
                    self.disconnect();
                    self.breaker.record_success();
                    return Err(ClientError::Protocol(m));
                }
                Err(AttemptError::Transport(m)) => {
                    self.disconnect();
                    self.stats.transport_errors += 1;
                    if self.breaker.record_failure(Instant::now()) {
                        self.stats.breaker_opens += 1;
                        self.last_transition_epoch = self.last_seen_epoch;
                    }
                    if self.breaker.state == BreakerState::Open {
                        // Opened (or re-opened from half-open) mid-call:
                        // stop retrying immediately.
                        return Err(ClientError::Transport(m));
                    }
                    last_transport = m;
                }
            }
        }
        Err(ClientError::Transport(last_transport))
    }

    /// Sleeps the jittered exponential delay for `attempt` (1-based for
    /// retries), or returns false if it would cross the deadline.
    fn sleep_backoff(&mut self, attempt: u32, deadline: Instant) -> bool {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.config.backoff_max);
        // Jitter uniformly in [0.5, 1.0] × capped.
        let unit = unit_float(&mut self.rng);
        let delay = capped.mul_f64(0.5 + 0.5 * unit);
        let now = Instant::now();
        if now + delay >= deadline {
            return false;
        }
        std::thread::sleep(delay);
        true
    }

    fn disconnect(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.read_buffer.clear();
    }

    fn ensure_connected(&mut self, deadline: Instant) -> Result<(), AttemptError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(AttemptError::Timeout);
        }
        let budget = self.config.connect_timeout.min(deadline - now);
        let stream = TcpStream::connect_timeout(&self.addr, budget)
            .map_err(|e| connect_error(e, budget, deadline))?;
        // podium-lint: allow(discarded-result) — NODELAY is a latency optimization; failure leaves Nagle on, correctness unaffected
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(READ_TICK))
            .map_err(|e| AttemptError::Transport(format!("set_read_timeout: {e}")))?;
        // podium-lint: allow(discarded-result) — best-effort; the read timeout above is what enforces the attempt deadline
        let _ = stream.set_write_timeout(Some(self.config.connect_timeout));
        self.stream = Some(stream);
        self.read_buffer.clear();
        self.stats.reconnects += 1;
        Ok(())
    }

    /// One attempt: connect if needed, write the line, read one response
    /// line, parse it.
    fn attempt(&mut self, line: &str, deadline: Instant) -> Result<Value, AttemptError> {
        self.ensure_connected(deadline)?;
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        {
            // podium-lint: allow(expect) — attempt() establishes the connection before send_request runs
            let stream = self.stream.as_mut().expect("connected above");
            stream
                .write_all(&framed)
                .map_err(|e| AttemptError::Transport(format!("write: {e}")))?;
        }
        let raw = self.read_frame(deadline)?;
        let text = String::from_utf8_lossy(&raw);
        let value: Value = serde_json::from_str(text.trim())
            .map_err(|e| AttemptError::Protocol(format!("unparseable response: {e}")))?;
        if !matches!(value, Value::Object(_)) {
            return Err(AttemptError::Protocol(format!(
                "response is not an object: {}",
                text.trim()
            )));
        }
        Ok(value)
    }

    /// Reads up to the next `\n`, honouring the deadline via read-timeout
    /// ticks. Leftover bytes past the newline stay buffered for the next
    /// call (the server never pipelines unsolicited lines, but a chaos
    /// proxy can merge chunk boundaries arbitrarily).
    fn read_frame(&mut self, deadline: Instant) -> Result<Vec<u8>, AttemptError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.read_buffer.iter().position(|&b| b == b'\n') {
                let frame: Vec<u8> = self.read_buffer.drain(..=pos).collect();
                // podium-lint: allow(index) — drain(..=pos) always includes the newline, so the frame is non-empty
                return Ok(frame[..frame.len() - 1].to_vec());
            }
            if Instant::now() >= deadline {
                return Err(AttemptError::Timeout);
            }
            // podium-lint: allow(expect) — attempt() establishes the connection before read_frame runs
            let stream = self.stream.as_mut().expect("connected in attempt");
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(AttemptError::Transport(
                        "connection closed mid-response".to_owned(),
                    ))
                }
                // podium-lint: allow(index) — read never returns more than the buffer length
                Ok(n) => self.read_buffer.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(AttemptError::Transport(format!("read: {e}"))),
            }
        }
    }
}

enum AttemptError {
    Timeout,
    Transport(String),
    Protocol(String),
}

fn connect_error(e: io::Error, budget: Duration, deadline: Instant) -> AttemptError {
    // connect_timeout reports its own expiry as TimedOut; only treat it
    // as a request timeout when the overall deadline is actually spent,
    // otherwise it is a transport failure worth retrying.
    if e.kind() == io::ErrorKind::TimedOut && Instant::now() + Duration::from_millis(1) >= deadline
    {
        return AttemptError::Timeout;
    }
    AttemptError::Transport(format!("connect (budget {budget:?}): {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PodiumService, ServiceConfig};
    use crate::tcp::{TcpServer, TcpServerConfig};
    use podium_core::bucket::BucketingConfig;
    use podium_core::profile::UserRepository;
    use podium_core::rng::splitmix64;
    use std::sync::Arc;

    fn service() -> Arc<PodiumService> {
        let mut repo = UserRepository::new();
        let p = repo.intern_property("topic");
        for i in 0..10 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, p, (i as f64) / 10.0).unwrap();
        }
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        Arc::new(PodiumService::new(
            repo,
            &buckets,
            ServiceConfig {
                workers: 2,
                queue_capacity: 16,
                default_deadline_ms: 2000,
                ..ServiceConfig::default()
            },
        ))
    }

    fn quick_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(250),
            request_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(10),
            max_attempts: 3,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(100),
            seed: 7,
        }
    }

    #[test]
    fn call_round_trips_and_counts() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let mut client = PodiumClient::new(server.local_addr(), quick_config());
        let v = client.call(r#"{"op":"select","budget":2}"#).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let v = client.call(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let s = client.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.successes, 2);
        assert_eq!(s.reconnects, 1, "second call reused the connection");
        assert_eq!(client.breaker_state(), BreakerState::Closed);
        server.shutdown();
    }

    #[test]
    fn server_side_errors_do_not_trip_the_breaker() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let mut client = PodiumClient::new(server.local_addr(), quick_config());
        for _ in 0..10 {
            let v = client.call(r#"{"op":"select","budget":0}"#).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        }
        assert_eq!(client.breaker_state(), BreakerState::Closed);
        assert_eq!(client.stats().successes, 10);
        assert_eq!(client.stats().retries, 0, "server errors are not retried");
        server.shutdown();
    }

    #[test]
    fn breaker_opens_against_a_dead_address_then_recovers() {
        // Reserve a port, then drop the listener so connects are refused.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = quick_config();
        let mut client = PodiumClient::new(dead_addr, config);
        // Drive enough failures to open the breaker (threshold 3 counts
        // individual attempts, so one call with 3 attempts suffices).
        let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "{err:?}");
        assert_eq!(client.breaker_state(), BreakerState::Open);
        assert_eq!(client.stats().breaker_opens, 1);
        let health = client.health();
        assert_eq!(health.state, BreakerState::Open);
        assert!(health.consecutive_failures >= 3, "{health:?}");
        // While open (cooldown not elapsed) calls fail fast.
        let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
        assert_eq!(err, ClientError::BreakerOpen);
        assert_eq!(client.stats().fast_failures, 1);
        // After the cooldown, a live server lets the half-open probe
        // close the breaker.
        std::thread::sleep(config.breaker_cooldown + Duration::from_millis(20));
        let server = TcpServer::bind(service(), dead_addr, TcpServerConfig::default()).unwrap();
        let v = client.call(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(client.breaker_state(), BreakerState::Closed);
        server.shutdown();
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = quick_config();
        let mut client = PodiumClient::new(dead_addr, config);
        let _ = client.call(r#"{"op":"stats"}"#);
        assert_eq!(client.breaker_state(), BreakerState::Open);
        std::thread::sleep(config.breaker_cooldown + Duration::from_millis(20));
        // Server still down: the single half-open probe fails and the
        // breaker re-opens without further retries.
        let retries_before = client.stats().retries;
        let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "{err:?}");
        assert_eq!(client.breaker_state(), BreakerState::Open);
        assert_eq!(
            client.stats().retries,
            retries_before,
            "half-open probe must not retry"
        );
    }

    #[test]
    fn deadline_bounds_a_stalled_server() {
        // A listener that accepts but never responds.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            // Keep sockets open until the test ends.
            listener.set_nonblocking(true).unwrap();
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(3) {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut client = PodiumClient::new(addr, quick_config());
        let start = Instant::now();
        let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
        assert_eq!(err, ClientError::Timeout);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "timeout took {:?}",
            start.elapsed()
        );
        assert_eq!(client.stats().timeouts, 1);
        // A timeout is not a breaker failure.
        assert_eq!(client.breaker_state(), BreakerState::Closed);
        hold.join().unwrap();
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        let mut c = 43u64;
        assert_ne!(splitmix64(&mut a), splitmix64(&mut c));
    }

    #[test]
    fn call_request_encodes_and_round_trips() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let mut client = PodiumClient::new(server.local_addr(), quick_config());
        let request = Request::Stats;
        let v = client.call_request(&request).unwrap();
        assert!(v.get("epoch").is_some(), "{v:?}");
        server.shutdown();
    }
}
