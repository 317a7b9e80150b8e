//! TCP transport: the same line-delimited JSON protocol as
//! [`crate::server`], served over `std::net::TcpListener`.
//!
//! Design points beyond the Unix-socket path:
//!
//! * **Connection limit** — accepts beyond [`TcpServerConfig::max_connections`]
//!   receive one `{"ok":false,"error":"overloaded",...}` line and are
//!   closed, so a client can tell "server full" from "server down".
//! * **Idle timeout** — a connection that sends no complete request for
//!   [`TcpServerConfig::idle_timeout`] is closed, bounding the damage a
//!   stalled or half-open peer (or a chaos proxy stalling mid-frame) can
//!   do to the thread budget.
//! * **Graceful shutdown** — [`TcpServer::shutdown`] stops the accept
//!   loop, lets every in-flight request finish and flush its response,
//!   then joins all connection threads. No response that was being
//!   computed is dropped.
//!
//! Frames are read with an explicit byte buffer rather than
//! `BufRead::read_line` so that a read timeout mid-frame loses nothing:
//! partial bytes stay in the buffer and the next read continues the same
//! frame. That is exactly the situation the chaos proxy's byte-level
//! write splits create. The buffer holds at most one request line of
//! [`MAX_FRAME_BYTES`] plus one read; a longer line is answered with one
//! `bad_request` and the connection closes. Before it closes, the server
//! shuts its write side and discards what the peer is still sending (up
//! to the cap, until a read tick passes without input), so the close
//! does not reset the connection before the peer reads the error line.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poison;
use crate::protocol::oversized_line_response;
use crate::server::discard_input;
use crate::service::PodiumService;
use crate::wal::MAX_FRAME_BYTES;

/// Sizing and timing knobs of the TCP transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpServerConfig {
    /// Maximum concurrently served connections; excess accepts are turned
    /// away with an `overloaded` response line.
    pub max_connections: usize,
    /// Close a connection after this long without a complete request.
    pub idle_timeout: Duration,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Monotonic transport counters, readable without locking.
#[derive(Debug, Default)]
pub struct TcpServerStats {
    /// Connections accepted and served.
    pub accepted: AtomicU64,
    /// Connections turned away by the connection limit.
    pub refused: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Requests served across all connections.
    pub requests: AtomicU64,
}

struct TcpShared {
    service: Arc<PodiumService>,
    config: TcpServerConfig,
    shutdown: AtomicBool,
    stats: TcpServerStats,
    /// Live connection count; the condvar signals it reaching zero so
    /// shutdown can drain.
    active: Mutex<usize>,
    drained: Condvar,
}

/// A running TCP protocol server. Dropping it without calling
/// [`TcpServer::shutdown`] performs the same graceful drain.
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<TcpShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .field("config", &self.shared.config)
            .finish()
    }
}

/// Granularity at which connection threads re-check the shutdown flag,
/// the idle clock, and new bytes. Small enough that shutdown and idle
/// enforcement are prompt; large enough to stay off the profile. A read
/// tick without input also ends the discard before a close, on this
/// transport and the Unix socket's.
pub(crate) const READ_TICK: Duration = Duration::from_millis(50);

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections, each served on its own thread
    /// against the shared `service`.
    pub fn bind<A: ToSocketAddrs>(
        service: Arc<PodiumService>,
        addr: A,
        config: TcpServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(TcpShared {
            service,
            config,
            shutdown: AtomicBool::new(false),
            stats: TcpServerStats::default(),
            active: Mutex::new(0),
            drained: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("podium-tcp-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Self {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (the ephemeral port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Transport counters.
    pub fn stats(&self) -> &TcpServerStats {
        &self.shared.stats
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        *poison::recover(self.shared.active.lock())
    }

    /// Stops accepting, drains in-flight requests (each connection
    /// finishes the request it is processing and flushes the response),
    /// and joins every serving thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is blocked in `accept()`; a throwaway local
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Connection threads notice the flag within one read tick once
        // their in-flight request (if any) completes.
        let mut active = poison::recover(self.shared.active.lock());
        while *active > 0 {
            let (guard, _timeout) = poison::recover(
                self.shared
                    .drained
                    .wait_timeout(active, Duration::from_millis(100)),
            );
            active = guard;
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<TcpShared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            // Transient accept errors (EMFILE, aborted handshake) must
            // not kill the listener.
            Err(_) => continue,
        };
        let admitted = {
            let mut active = poison::recover(shared.active.lock());
            if *active >= shared.config.max_connections {
                false
            } else {
                *active += 1;
                true
            }
        };
        if !admitted {
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            refuse(stream);
            continue;
        }
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("podium-tcp-conn".to_owned())
            .spawn(move || {
                serve_connection(&conn_shared, stream);
                let mut active = poison::recover(conn_shared.active.lock());
                *active -= 1;
                conn_shared.drained.notify_all();
            });
        if spawned.is_err() {
            // Thread spawn failed: undo the admission.
            let mut active = poison::recover(shared.active.lock());
            *active -= 1;
            shared.drained.notify_all();
        }
    }
}

/// Tells an over-limit client why it is being dropped. Best-effort: the
/// peer may already be gone.
fn refuse(mut stream: TcpStream) {
    // podium-lint: allow(discarded-result) — best-effort refusal notice; the peer may already be gone
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    // podium-lint: allow(discarded-result) — best-effort refusal notice; the peer may already be gone
    let _ = stream.write_all(
        b"{\"ok\":false,\"error\":\"overloaded\",\"message\":\"connection limit reached\"}\n",
    );
    // podium-lint: allow(discarded-result) — best-effort teardown; the drop below closes the socket regardless
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one connection: frames requests out of a byte buffer, answers
/// each through the shared service, enforces the idle timeout, and exits
/// on EOF, I/O error, idle expiry, or server shutdown.
fn serve_connection(shared: &TcpShared, mut stream: TcpStream) {
    // NODELAY: responses are single small lines; waiting for Nagle
    // coalescing only adds tail latency.
    // podium-lint: allow(discarded-result) — NODELAY is a latency optimization; failure leaves Nagle on, correctness unaffected
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "tcp-unknown".to_owned());
    let mut pending: Vec<u8> = Vec::with_capacity(1024);
    // `pending[..searched]` holds no newline, so each byte is scanned once.
    let mut searched = 0;
    let mut chunk = [0u8; 4096];
    let mut last_request = Instant::now();
    loop {
        // Drain every complete frame already buffered before reading more.
        while let Some(end) = pending
            .get(searched..)
            .and_then(|fresh| fresh.iter().position(|&b| b == b'\n'))
            .map(|pos| searched + pos)
        {
            if end > MAX_FRAME_BYTES {
                break;
            }
            let line = String::from_utf8_lossy(pending.get(..end).unwrap_or_default());
            let line = line.trim();
            last_request = Instant::now();
            if !line.is_empty() {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let response = shared.service.handle_line_from(&peer, line);
                if write_response(&mut stream, &response).is_err() {
                    return;
                }
            }
            pending.drain(..=end);
            searched = 0;
        }
        searched = pending.len();
        if searched > MAX_FRAME_BYTES {
            // The head line can never be served: answer it once and hang
            // up rather than buffer toward its newline.
            if write_response(&mut stream, &oversized_line_response()).is_ok()
                && stream.shutdown(Shutdown::Write).is_ok()
            {
                let since = Instant::now();
                discard_input(&mut stream, || {
                    !shared.shutdown.load(Ordering::SeqCst)
                        && since.elapsed() < shared.config.idle_timeout
                });
            }
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            // podium-lint: allow(index) — read never returns more than the buffer length
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_request.elapsed() >= shared.config.idle_timeout {
                    shared.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                    // podium-lint: allow(discarded-result) — best-effort teardown; the return drops and closes the socket regardless
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn write_response(stream: &mut TcpStream, response: &str) -> io::Result<()> {
    // One write_all per line: the response is assembled in memory, so
    // there is no partial-frame window on our side even under `write`
    // short-counts (write_all loops).
    let mut framed = Vec::with_capacity(response.len() + 1);
    framed.extend_from_slice(response.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use podium_core::bucket::BucketingConfig;
    use podium_core::profile::UserRepository;
    use serde_json::Value;
    use std::io::{BufRead, BufReader};

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

    fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Value {
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        serde_json::from_str(response.trim()).unwrap()
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn tcp_round_trip_and_concurrent_clients() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let (mut stream, mut reader) = connect(addr);
                    for _ in 0..5 {
                        let v =
                            round_trip(&mut stream, &mut reader, r#"{"op":"select","budget":2}"#);
                        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
                        assert_eq!(v.get("users").and_then(Value::as_array).unwrap().len(), 2);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert!(server.stats().accepted.load(Ordering::Relaxed) >= 3);
        assert_eq!(server.stats().requests.load(Ordering::Relaxed), 15);
        server.shutdown();
    }

    #[test]
    fn split_writes_are_reassembled_into_one_frame() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let (mut stream, mut reader) = connect(server.local_addr());
        stream.set_nodelay(true).unwrap();
        // One request dripped one byte at a time across many packets.
        for b in br#"{"op":"select","budget":2}"#.iter() {
            stream.write_all(&[*b]).unwrap();
            stream.flush().unwrap();
        }
        std::thread::sleep(Duration::from_millis(120)); // let ticks pass mid-frame
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let v: Value = serde_json::from_str(response.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        server.shutdown();
    }

    #[test]
    fn connection_limit_refuses_with_a_typed_line() {
        let config = TcpServerConfig {
            max_connections: 1,
            ..TcpServerConfig::default()
        };
        let server = TcpServer::bind(service(), "127.0.0.1:0", config).unwrap();
        let (mut first, mut first_reader) = connect(server.local_addr());
        // Prove the first connection is established and served.
        let v = round_trip(&mut first, &mut first_reader, r#"{"op":"stats"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // The second connection is told it is over the limit, then closed.
        let (second, mut second_reader) = connect(server.local_addr());
        let mut line = String::new();
        second_reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("overloaded"),
            "{v:?}"
        );
        assert_eq!(server.stats().refused.load(Ordering::Relaxed), 1);
        drop(second);
        drop(first);
        server.shutdown();
    }

    #[test]
    fn an_over_cap_line_gets_one_error_and_eof() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        // One byte past the cap, and 64 KiB past it: the server stops
        // reading at the cap, so the rest is still unread when it answers.
        for past_cap in [1, 64 << 10] {
            let (mut stream, mut reader) = connect(server.local_addr());
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            stream
                .write_all(&vec![b'x'; MAX_FRAME_BYTES + past_cap])
                .unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v: Value = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(v.get("error").and_then(Value::as_str), Some("bad_request"));
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF, got: {line}");
            // The server still serves the next connection.
            let (mut stream, mut reader) = connect(server.local_addr());
            let v = round_trip(&mut stream, &mut reader, r#"{"op":"select","budget":2}"#);
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_closed() {
        let config = TcpServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..TcpServerConfig::default()
        };
        let server = TcpServer::bind(service(), "127.0.0.1:0", config).unwrap();
        let (_stream, mut reader) = connect(server.local_addr());
        // Say nothing; the server must hang up.
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "idle connection saw EOF, got: {line}");
        assert_eq!(server.stats().idle_closed.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_drains_the_in_flight_request() {
        let server = TcpServer::bind(service(), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let (mut stream, mut reader) = connect(addr);
        // Issue the request and wait until the server has picked it up —
        // the shutdown must race the *handling*, not TCP delivery (a
        // frame still in the kernel buffer at shutdown is not in-flight).
        writeln!(stream, r#"{{"op":"select","budget":3}}"#).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().requests.load(Ordering::Relaxed) == 0 {
            assert!(
                Instant::now() < deadline,
                "request never reached the server"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let shutdown = std::thread::spawn(move || server.shutdown());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let v: Value = serde_json::from_str(response.trim()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        shutdown.join().unwrap();
        // After shutdown the port no longer accepts.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
            "listener still accepting after shutdown"
        );
    }
}
