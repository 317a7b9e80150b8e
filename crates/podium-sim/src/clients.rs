//! Closed-loop clients and the wall-clock pacing they impose.
//!
//! A closed-loop client is a thread with its own connection that sends
//! one `select` back-to-back, with no think time, until the run ends:
//! the offered load is whatever the service sustains, which makes the
//! scenario a throughput measurement. Each answer is checked as it
//! arrives — an `ok` answer must carry a full slate and an epoch no older
//! than the last one that client saw — and kept as a raw [`Sample`]; the
//! driver turns samples into request-log rows after the window, so the
//! loop itself does no more per-request work than a bare load generator.
//!
//! Client requests only ever reach `requests.jsonl` and the human
//! summary. That is why the clock reads live here rather than in the
//! driver: nothing in this module feeds the event trace or the rollup.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use podium_service::client::ClientHealth;
use serde_json::Value;

use crate::transport::{micros, outcome_tag, Transport, INCONSISTENT};

/// One client request.
#[derive(Debug)]
pub struct Sample {
    /// When it was sent, in microseconds since the clients started.
    pub sent_us: u64,
    /// Wall-clock round trip in microseconds ([`Transport::call`]'s).
    pub latency_us: u64,
    /// Its request-log outcome tag: `ok`, [`INCONSISTENT`], a server
    /// error code, or a transport failure tag.
    pub outcome: Cow<'static, str>,
    /// The answer's epoch, when it carried one.
    pub epoch: Option<u64>,
}

/// Everything one client measured.
#[derive(Debug)]
pub struct ClientRun {
    /// Its requests, in send order.
    pub samples: Vec<Sample>,
    /// Its final breaker state (TCP clients only), which the driver logs
    /// as a `client-health` row.
    pub health: Option<ClientHealth>,
}

/// Running closed-loop clients; also the clock the event loop is paced
/// by while they run.
pub struct ClosedLoop {
    started: Instant,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<ClientRun>>,
}

impl ClosedLoop {
    /// Starts one client thread per connection, each sending `line` (a
    /// `select` at `budget`) until [`ClosedLoop::stop`].
    pub fn start(connections: Vec<Transport>, line: &str, budget: usize) -> Self {
        let started = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let threads = connections
            .into_iter()
            .map(|connection| {
                let stop = Arc::clone(&stop);
                let line = line.to_owned();
                std::thread::spawn(move || client_loop(connection, &line, budget, started, &stop))
            })
            .collect();
        Self {
            started,
            stop,
            threads,
        }
    }

    /// Blocks until wall time `at_us` after the clients started, so an
    /// event at virtual time t is sent no earlier than wall time t.
    pub fn pace(&self, at_us: u64) {
        let due = Duration::from_micros(at_us);
        if let Some(wait) = due.checked_sub(self.started.elapsed()) {
            std::thread::sleep(wait);
        }
    }

    /// Stops every client and returns their runs in client order. A
    /// client's panic resumes here, so a broken client fails the run
    /// instead of silently losing its requests.
    pub fn stop(self) -> Vec<ClientRun> {
        self.stop.store(true, Ordering::Relaxed);
        let joined = self.threads.into_iter().map(JoinHandle::join);
        joined
            .map(|run| run.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    }
}

fn client_loop(
    mut connection: Transport,
    line: &str,
    budget: usize,
    started: Instant,
    stop: &AtomicBool,
) -> ClientRun {
    let mut samples = Vec::new();
    let mut last_epoch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let sent_us = micros(started.elapsed());
        let (latency_us, result) = connection.call(line);
        let (outcome, epoch) = match result {
            Ok(response) => {
                let epoch = response.get("epoch").and_then(Value::as_u64);
                let outcome = if response.get("ok").and_then(Value::as_bool) != Some(true) {
                    Cow::Owned(outcome_tag(&response))
                } else {
                    let slate = response
                        .get("users")
                        .and_then(Value::as_array)
                        .map_or(0, Vec::len);
                    let at = epoch.unwrap_or(0);
                    if slate != budget || at < last_epoch {
                        Cow::Borrowed(INCONSISTENT)
                    } else {
                        last_epoch = at;
                        Cow::Borrowed("ok")
                    }
                };
                (outcome, epoch)
            }
            Err(e) => (Cow::Borrowed(e.tag()), None),
        };
        samples.push(Sample {
            sent_us,
            latency_us,
            outcome,
            epoch,
        });
    }
    ClientRun {
        samples,
        health: connection.health(),
    }
}
