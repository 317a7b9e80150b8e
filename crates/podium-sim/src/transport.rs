//! How simulated requests reach the service under test, and how their
//! outcomes are classified.
//!
//! The generator half of the simulator is transport-agnostic: it emits
//! protocol lines and classifies the answer. An [`Endpoint`] stands up
//! whatever serves one run — nothing for in-process dispatch, a Unix
//! socket listener, or a loopback TCP server, optionally behind the
//! deterministic [`ChaosProxy`] — and every party of the run (the event
//! loop and each closed-loop client) connects its own [`Transport`] to
//! it: a shared `Arc`, a Unix stream, or a resilient [`PodiumClient`].

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use podium_service::chaos::{ChaosClock, ChaosConfig, ChaosProxy};
use podium_service::client::{ClientConfig, ClientError, ClientHealth, PodiumClient};
use podium_service::service::PodiumService;
use podium_service::tcp::{TcpServer, TcpServerConfig};
use serde_json::Value;

use crate::SimError;

/// Which transport a simulation drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportSpec {
    /// Direct in-process dispatch; no sockets, fastest, fully
    /// deterministic.
    Inproc,
    /// A Unix domain socket served by a background thread.
    Unix,
    /// Loopback TCP through [`PodiumClient`]; `chaos` interposes the
    /// deterministic proxy (virtual-clock stalls) between client and
    /// server.
    Tcp {
        /// Inject the chaos proxy.
        chaos: bool,
    },
}

impl TransportSpec {
    /// Parses a `--transport` flag value.
    pub fn parse(name: &str, chaos: bool) -> Result<Self, String> {
        match name {
            "inproc" => Ok(Self::Inproc),
            "unix" => Ok(Self::Unix),
            "tcp" => Ok(Self::Tcp { chaos }),
            other => Err(format!(
                "unknown transport '{other}' (expected inproc|unix|tcp)"
            )),
        }
    }

    /// The stable tag used in rollups.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Inproc => "inproc",
            Self::Unix => "unix",
            Self::Tcp { chaos: false } => "tcp",
            Self::Tcp { chaos: true } => "tcp+chaos",
        }
    }
}

/// Why a call produced no usable response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// Bytes did not make it there and back.
    Transport(String),
    /// The client's per-request deadline expired.
    Timeout,
    /// The client's circuit breaker failed the call fast.
    BreakerOpen,
    /// The server answered with something that is not a JSON object.
    Protocol(String),
}

impl CallError {
    /// The stable outcome tag recorded in the request log.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Transport(_) => "transport",
            Self::Timeout => "timeout",
            Self::BreakerOpen => "breaker_open",
            Self::Protocol(_) => "protocol",
        }
    }
}

/// Where an [`Endpoint`]'s connections go.
enum Target {
    Inproc(Arc<PodiumService>),
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// The serving side of one run, shared by every connection to it. Keeps
/// any background server and proxy alive for its own lifetime.
pub struct Endpoint {
    target: Target,
    deadline_ms: u64,
    // Held for their Drop side effects (shutdown on scope exit).
    _tcp_server: Option<TcpServer>,
    _proxy: Option<ChaosProxy>,
}

impl Endpoint {
    /// Serves `service` the way `spec` names. `deadline_ms` bounds each
    /// TCP client call; `seed` names the Unix socket and drives the chaos
    /// proxy's fault schedule.
    ///
    /// A Unix endpoint serves a fresh socket under the system temp
    /// directory from a detached thread that lives until the process
    /// exits (matching `serve_unix`'s accept-forever contract). A TCP
    /// endpoint binds an ephemeral loopback port; with `chaos` its
    /// connections go through a virtual-clock [`ChaosProxy`].
    pub fn start(
        spec: &TransportSpec,
        service: Arc<PodiumService>,
        deadline_ms: u64,
        seed: u64,
    ) -> Result<Self, SimError> {
        let (target, server, proxy) = match spec {
            TransportSpec::Inproc => (Target::Inproc(service), None, None),
            TransportSpec::Unix => {
                let path = std::env::temp_dir()
                    .join(format!("podium-sim-{}-s{seed}.sock", std::process::id()));
                // podium-lint: allow(discarded-result) — pre-clean of a stale socket; if removal mattered, bind fails loudly below
                let _ = std::fs::remove_file(&path);
                let serve_path = path.clone();
                std::thread::spawn(move || {
                    // podium-lint: allow(discarded-result) — serve_unix accepts forever by contract; a bind failure surfaces as the connect error
                    let _ = podium_service::server::serve_unix(service, &serve_path);
                });
                // The listener creates the socket file; poll briefly for it.
                for _ in 0..200 {
                    if path.exists() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                (Target::Unix(path), None, None)
            }
            TransportSpec::Tcp { chaos } => {
                let server = TcpServer::bind(service, "127.0.0.1:0", TcpServerConfig::default())
                    .map_err(|e| SimError::Transport(format!("tcp bind: {e}")))?;
                let upstream = server.local_addr();
                let proxy = if *chaos {
                    // Virtual-clock stalls: fault timing is bookkept, not
                    // slept, so chaotic runs stay fast and deterministic.
                    let config = ChaosConfig {
                        seed,
                        split_writes: true,
                        disconnect_per_chunk: 0.002,
                        stall_per_chunk: 0.01,
                        stall: Duration::from_millis(500),
                        refuse_per_conn: 0.002,
                        clock: ChaosClock::virtual_clock(),
                    };
                    Some(
                        ChaosProxy::bind(upstream, config)
                            .map_err(|e| SimError::Transport(format!("chaos bind: {e}")))?,
                    )
                } else {
                    None
                };
                let target = proxy.as_ref().map_or(upstream, ChaosProxy::local_addr);
                (Target::Tcp(target), Some(server), proxy)
            }
        };
        Ok(Self {
            target,
            deadline_ms,
            _tcp_server: server,
            _proxy: proxy,
        })
    }

    /// Opens one party's connection. `seed` drives a TCP client's
    /// backoff jitter; the other transports ignore it.
    pub fn connect(&self, seed: u64) -> Result<Transport, SimError> {
        let inner = match &self.target {
            Target::Inproc(service) => Inner::Inproc(Arc::clone(service)),
            Target::Unix(path) => {
                let stream = UnixStream::connect(path).map_err(|e| {
                    SimError::Transport(format!("unix connect {}: {e}", path.display()))
                })?;
                Inner::Unix(BufReader::new(stream))
            }
            Target::Tcp(addr) => Inner::Tcp(Box::new(PodiumClient::new(
                *addr,
                ClientConfig {
                    request_timeout: Duration::from_millis(self.deadline_ms.max(1)),
                    seed,
                    ..ClientConfig::default()
                },
            ))),
        };
        Ok(Transport { inner })
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        if let Target::Unix(path) = &self.target {
            // podium-lint: allow(discarded-result) — Drop cannot propagate; a leftover socket file in tmp is harmless
            let _ = std::fs::remove_file(path);
        }
    }
}

enum Inner {
    Inproc(Arc<PodiumService>),
    Unix(BufReader<UnixStream>),
    Tcp(Box<PodiumClient>),
}

/// One party's connection to an [`Endpoint`].
pub struct Transport {
    inner: Inner,
}

impl Transport {
    /// Sends one protocol line and parses the response object. Also
    /// returns the round trip in microseconds, stopped before this side
    /// parses the response (in-process and Unix); a TCP client parses
    /// inside its own call, so its round trip includes the parse.
    pub fn call(&mut self, line: &str) -> (u64, Result<Value, CallError>) {
        let sent = Instant::now();
        let response = match &mut self.inner {
            Inner::Inproc(service) => Ok(service.handle_line(line)),
            Inner::Unix(stream) => unix_round_trip(stream, line),
            Inner::Tcp(client) => {
                let result = client.call(line).map_err(|e| match e {
                    ClientError::Timeout => CallError::Timeout,
                    ClientError::BreakerOpen => CallError::BreakerOpen,
                    ClientError::Transport(m) => CallError::Transport(m),
                    ClientError::Protocol(m) => CallError::Protocol(m),
                });
                return (micros(sent.elapsed()), result);
            }
        };
        let latency_us = micros(sent.elapsed());
        (latency_us, response.and_then(|text| parse_response(&text)))
    }

    /// The TCP client's breaker and epoch view; `None` for the other
    /// transports, which have no breaker.
    pub fn health(&self) -> Option<ClientHealth> {
        match &self.inner {
            Inner::Tcp(client) => Some(client.health()),
            Inner::Inproc(_) | Inner::Unix(_) => None,
        }
    }
}

fn unix_round_trip(stream: &mut BufReader<UnixStream>, line: &str) -> Result<String, CallError> {
    stream
        .get_mut()
        .write_all(line.as_bytes())
        .and_then(|()| stream.get_mut().write_all(b"\n"))
        .map_err(|e| CallError::Transport(format!("unix write: {e}")))?;
    let mut response = String::new();
    let n = stream
        .read_line(&mut response)
        .map_err(|e| CallError::Transport(format!("unix read: {e}")))?;
    if n == 0 {
        return Err(CallError::Transport("unix peer closed".to_owned()));
    }
    Ok(response)
}

/// A duration in whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn parse_response(line: &str) -> Result<Value, CallError> {
    let value: Value = serde_json::from_str(line.trim_end())
        .map_err(|e| CallError::Protocol(format!("unparseable response: {e}")))?;
    if value.is_object() {
        Ok(value)
    } else {
        Err(CallError::Protocol("response is not an object".to_owned()))
    }
}

/// Classifies a response object into the request log's outcome tag:
/// `"ok"` for successes, the server's error code otherwise.
pub fn outcome_tag(response: &Value) -> String {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        return "ok".to_owned();
    }
    response
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("unknown_error")
        .to_owned()
}

/// The outcome tag of an `ok` answer that broke a closed-loop client's
/// consistency check: wrong slate size, or an epoch older than one the
/// client already saw.
pub const INCONSISTENT: &str = "inconsistent";

/// Where a server error code puts a failed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The executor gave up on the request's deadline.
    Deadline,
    /// Admission control refused the request before queuing it.
    Admission,
    /// Anything else: bad requests, core errors, unknown codes.
    Other,
}

/// Maps a server wire error code to its failure cause.
pub fn classify_error_code(code: &str) -> Cause {
    match code {
        "deadline_exceeded" => Cause::Deadline,
        "overloaded" => Cause::Admission,
        _ => Cause::Other,
    }
}

/// Request outcomes by cause. Admission rejections (`overloaded`) are
/// configured load shedding, not faults, and inconsistent answers were
/// delivered but wrong, so both are counted apart from
/// [`Tally::failed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `ok` outcomes.
    pub ok: u64,
    /// Deadline misses: the server's `deadline_exceeded` or the client's
    /// own timeout.
    pub deadline: u64,
    /// Requests the transport lost, including breaker fast-fails.
    pub transport: u64,
    /// Every other failure.
    pub other: u64,
    /// Admission-control rejections.
    pub overloaded: u64,
    /// `ok` answers that failed the consistency check.
    pub inconsistent: u64,
}

impl Tally {
    /// Counts `n` requests that ended with outcome tag `outcome` (a
    /// request-log `outcome` value).
    pub fn add(&mut self, outcome: &str, n: u64) {
        let counter = match outcome {
            "ok" => &mut self.ok,
            INCONSISTENT => &mut self.inconsistent,
            "timeout" => &mut self.deadline,
            "transport" | "breaker_open" => &mut self.transport,
            code => match classify_error_code(code) {
                Cause::Deadline => &mut self.deadline,
                Cause::Admission => &mut self.overloaded,
                Cause::Other => &mut self.other,
            },
        };
        *counter += n;
    }

    /// Failed requests: `deadline + transport + other`.
    pub fn failed(&self) -> u64 {
        self.deadline + self.transport + self.other
    }

    /// The one-line failure breakdown every summary prints.
    pub fn line(&self) -> String {
        format!(
            "failed {} (deadline {}, transport {}, other {}), overloaded {}, inconsistent {}",
            self.failed(),
            self.deadline,
            self.transport,
            self.other,
            self.overloaded,
            self.inconsistent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_classifies_ok_and_error() {
        let ok = parse_response(r#"{"ok":true,"epoch":3}"#).unwrap();
        assert_eq!(outcome_tag(&ok), "ok");
        let err = parse_response(r#"{"ok":false,"error":"overloaded","message":"m"}"#).unwrap();
        assert_eq!(outcome_tag(&err), "overloaded");
        assert!(parse_response("not json").is_err());
        assert!(parse_response("[1,2]").is_err());
    }

    #[test]
    fn transport_spec_parses() {
        assert_eq!(
            TransportSpec::parse("inproc", false),
            Ok(TransportSpec::Inproc)
        );
        assert_eq!(
            TransportSpec::parse("tcp", true),
            Ok(TransportSpec::Tcp { chaos: true })
        );
        assert_eq!(TransportSpec::Tcp { chaos: true }.tag(), "tcp+chaos");
        assert!(TransportSpec::parse("smoke-signals", false).is_err());
    }

    #[test]
    fn error_codes_classify_by_cause() {
        assert_eq!(classify_error_code("deadline_exceeded"), Cause::Deadline);
        assert_eq!(classify_error_code("overloaded"), Cause::Admission);
        assert_eq!(classify_error_code("bad_request"), Cause::Other);
        assert_eq!(classify_error_code("core"), Cause::Other);
        // Client-side failures classify by their outcome tags.
        for (error, counted) in [
            (
                CallError::Timeout,
                Tally {
                    deadline: 1,
                    ..Tally::default()
                },
            ),
            (
                CallError::BreakerOpen,
                Tally {
                    transport: 1,
                    ..Tally::default()
                },
            ),
            (
                CallError::Transport("x".into()),
                Tally {
                    transport: 1,
                    ..Tally::default()
                },
            ),
            (
                CallError::Protocol("x".into()),
                Tally {
                    other: 1,
                    ..Tally::default()
                },
            ),
        ] {
            let mut tally = Tally::default();
            tally.add(error.tag(), 1);
            assert_eq!(tally, counted, "{error:?}");
        }
    }

    #[test]
    fn failure_breakdown_sums_to_failed() {
        // Every cause once through the tally: failed = deadline +
        // transport + other, with admission and inconsistency apart.
        let mut tally = Tally::default();
        for (outcome, times) in [
            ("ok", 7),
            ("deadline_exceeded", 2),
            ("timeout", 1),
            ("overloaded", 5),
            ("transport", 2),
            ("core", 4),
            (INCONSISTENT, 3),
        ] {
            tally.add(outcome, times);
        }
        assert_eq!(
            (tally.ok, tally.deadline, tally.transport, tally.other),
            (7, 3, 2, 4)
        );
        assert_eq!((tally.overloaded, tally.inconsistent), (5, 3));
        assert_eq!(
            tally.failed(),
            9,
            "admission and inconsistency are not failures"
        );
        assert_eq!(
            tally.line(),
            "failed 9 (deadline 3, transport 2, other 4), overloaded 5, inconsistent 3"
        );
    }
}
