//! Transport layer: the JSONL protocol over stdio or a Unix domain
//! socket, using only `std`.
//!
//! Both transports frame one request per line and one response per line.
//! Stdio serving is single-client by nature; the Unix socket accepts any
//! number of concurrent connections, each drained by its own thread, all
//! sharing one [`PodiumService`] behind an `Arc`.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;

use crate::protocol::oversized_line_response;
use crate::service::PodiumService;
use crate::tcp::READ_TICK;
use crate::wal::MAX_FRAME_BYTES;

/// Serves requests from `reader`, writing one response line per request
/// line to `writer`. Returns when the reader reaches EOF. Blank lines are
/// skipped (convenient for interactive use).
pub fn serve_lines<R: BufRead, W: Write>(
    service: &PodiumService,
    reader: R,
    mut writer: W,
) -> io::Result<()> {
    serve_lines_from(service, "stdio", reader, &mut writer)
}

/// [`serve_lines`] with an explicit peer label for per-peer health
/// tracking in the `stats` op. A line longer than
/// [`crate::wal::MAX_FRAME_BYTES`] is answered with one `bad_request` and
/// ends the stream; no more of it is buffered than the cap.
pub fn serve_lines_from<R: BufRead, W: Write>(
    service: &PodiumService,
    peer: &str,
    mut reader: R,
    writer: &mut W,
) -> io::Result<()> {
    // One byte past the cap tells an over-cap line from a full one.
    let limit = u64::try_from(MAX_FRAME_BYTES + 1).unwrap_or(u64::MAX);
    let mut frame = Vec::new();
    loop {
        frame.clear();
        if reader.by_ref().take(limit).read_until(b'\n', &mut frame)? == 0 {
            return Ok(());
        }
        let line = match frame.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None if frame.len() > MAX_FRAME_BYTES => {
                writer.write_all(oversized_line_response().as_bytes())?;
                writer.write_all(b"\n")?;
                return writer.flush();
            }
            None => &frame,
        };
        let line =
            std::str::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = service.handle_line_from(peer, line);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// Serves a single client over stdin/stdout until EOF.
pub fn serve_stdio(service: &PodiumService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    serve_lines_from(service, "stdio", stdin.lock(), &mut out)
}

fn handle_connection(service: &PodiumService, mut stream: UnixStream) -> io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    serve_lines_from(service, "unix", reader, &mut writer)?;
    // EOF or an over-cap line, whose rest the peer may still be sending.
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    discard_input(&mut stream, || true);
    Ok(())
}

/// Reads and discards what a peer still sends before its connection is
/// dropped, once the write side is shut. A socket dropped with unread
/// input resets the connection, and the reset can fail the peer's write
/// or cost it the response it has not read yet. Stops at EOF, at a read
/// error or timeout (the caller sets the read timeout), after
/// [`MAX_FRAME_BYTES`] bytes, or once `go_on` returns false.
pub(crate) fn discard_input(reader: &mut impl Read, mut go_on: impl FnMut() -> bool) {
    let mut chunk = [0u8; 4096];
    let mut left = MAX_FRAME_BYTES;
    while left > 0 && go_on() {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => left = left.saturating_sub(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Binds `path` and serves connections forever (one thread per client).
/// A stale socket file at `path` is removed before binding. The listener
/// never returns under normal operation; callers stop it by terminating
/// the process (the CLI) or leaking the serving thread (tests).
pub fn serve_unix(service: Arc<PodiumService>, path: &Path) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    for stream in listener.incoming() {
        let stream = stream?;
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            // A client hanging up mid-request surfaces as an io error
            // here; that only ends this connection, not the server.
            // podium-lint: allow(discarded-result) — per-connection io error; ends this connection only, nothing to surface
            let _ = handle_connection(&service, stream);
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use podium_core::bucket::BucketingConfig;
    use podium_core::profile::UserRepository;
    use serde_json::Value;
    use std::time::Duration;

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

    #[test]
    fn serve_lines_round_trips_and_skips_blanks() {
        let svc = service();
        let input = "\n{\"op\":\"select\",\"budget\":2}\nnot json\n{\"op\":\"stats\"}\n";
        let mut output = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank line produced no response: {text}");
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("ok").and_then(Value::as_bool), Some(false));
        let third: Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(third.get("epoch").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn an_over_cap_line_gets_one_error_and_eof() {
        let dir = std::env::temp_dir().join(format!("podium-service-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("over-cap.sock");
        {
            let svc = service();
            let sock = sock.clone();
            std::thread::spawn(move || {
                let _ = serve_unix(svc, &sock);
            });
        }
        let mut tries = 0;
        while !sock.exists() && tries < 200 {
            std::thread::sleep(Duration::from_millis(10));
            tries += 1;
        }
        // One byte past the cap, and 64 KiB past it: the server stops
        // reading near the cap, so the rest is still unread when it answers.
        for past_cap in [1, 64 << 10] {
            let mut stream = UnixStream::connect(&sock).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            stream
                .write_all(&vec![b'x'; MAX_FRAME_BYTES + past_cap])
                .unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("error").and_then(Value::as_str), Some("bad_request"));
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF, got: {line}");
            // The listener still serves the next connection.
            let mut stream = UnixStream::connect(&sock).unwrap();
            stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
            let mut reader = BufReader::new(stream);
            line.clear();
            reader.read_line(&mut line).unwrap();
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        }
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn unix_socket_serves_concurrent_clients() {
        let svc = service();
        let dir = std::env::temp_dir().join(format!("podium-service-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("server-test.sock");
        {
            let svc = Arc::clone(&svc);
            let sock = sock.clone();
            std::thread::spawn(move || {
                let _ = serve_unix(svc, &sock);
            });
        }
        // Wait for the listener to come up.
        let mut tries = 0;
        while !sock.exists() && tries < 200 {
            std::thread::sleep(Duration::from_millis(10));
            tries += 1;
        }
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let sock = sock.clone();
                std::thread::spawn(move || {
                    let stream = UnixStream::connect(&sock).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut stream = stream;
                    for _ in 0..5 {
                        stream
                            .write_all(b"{\"op\":\"select\",\"budget\":2}\n")
                            .unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        let v: Value = serde_json::from_str(&line).unwrap();
                        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
                        assert_eq!(v.get("users").and_then(Value::as_array).unwrap().len(), 2);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let _ = std::fs::remove_file(&sock);
    }
}
