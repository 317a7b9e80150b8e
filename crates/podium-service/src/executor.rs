//! The concurrent query executor: a fixed worker pool draining a bounded
//! request queue.
//!
//! Admission control is reject-on-full: [`QueryExecutor::submit`] returns
//! [`ServiceError::Overloaded`] instead of queuing unboundedly, so a
//! saturated service sheds load at the front door with an O(1) check.
//! Each worker captures the *current* snapshot at dequeue time and runs
//! the whole request against it — a concurrently published epoch never
//! shifts data under a running selection, and the response reports which
//! epoch it saw.
//!
//! Deadlines are absolute [`Instant`]s fixed at submission, so time spent
//! waiting in the queue counts against the budget; the selection loop
//! polls the deadline between greedy rounds (see
//! [`podium_core::engine::SelectSpec::stop`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::ServiceError;
use crate::poison;
use crate::snapshot::{SelectConstraints, SelectOutcome, SelectParams, Snapshot, SnapshotStore};

/// Sizing and timing knobs of the executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Maximum queued (not yet running) requests before admission control
    /// rejects.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_capacity: 256,
            default_deadline: Duration::from_secs(5),
        }
    }
}

/// A queued unit of work: runs against the snapshot captured at dequeue.
type Job = Box<dyn FnOnce(Arc<Snapshot>) + Send + 'static>;

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
}

/// Monotonic serving counters, readable without locking.
#[derive(Debug, Default)]
pub struct ExecutorStats {
    /// Requests accepted into the queue.
    pub submitted: AtomicU64,
    /// Requests rejected by admission control.
    pub rejected: AtomicU64,
    /// Requests whose job ran to completion (successfully or not).
    pub completed: AtomicU64,
}

/// The worker pool. Dropping it drains and joins the workers.
pub struct QueryExecutor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: ExecutorConfig,
    stats: Arc<ExecutorStats>,
}

impl std::fmt::Debug for QueryExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryExecutor")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.config.queue_capacity)
            .finish()
    }
}

impl QueryExecutor {
    /// Spawns the worker pool against `store`.
    pub fn new(store: Arc<SnapshotStore>, config: ExecutorConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
        });
        let stats = Arc::new(ExecutorStats::default());
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(&shared, &store, &stats))
            })
            .collect();
        Self {
            shared,
            workers,
            config,
            stats,
        }
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Serving counters.
    pub fn stats(&self) -> &ExecutorStats {
        &self.stats
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        poison::recover(self.shared.state.lock()).jobs.len()
    }

    /// Enqueues `job`, rejecting with [`ServiceError::Overloaded`] when the
    /// queue is at capacity and with [`ServiceError::ShuttingDown`] after
    /// shutdown began.
    pub fn submit(
        &self,
        job: impl FnOnce(Arc<Snapshot>) + Send + 'static,
    ) -> Result<(), ServiceError> {
        {
            let mut state = poison::recover(self.shared.state.lock());
            if state.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if state.jobs.len() >= self.config.queue_capacity {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Overloaded);
            }
            state.jobs.push_back(Box::new(job));
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Runs a `select` through the pool, blocking the calling thread until
    /// the response arrives. `deadline` defaults to
    /// [`ExecutorConfig::default_deadline`] from *now*; queue wait counts
    /// against it. `stale_ok` opts into the bounded-staleness read mode
    /// (see [`Snapshot::select_with`]); pass `false` for the default
    /// always-fresh behavior.
    pub fn run_select(
        &self,
        params: SelectParams,
        deadline: Option<Duration>,
        stale_ok: bool,
    ) -> Result<SelectOutcome, ServiceError> {
        let absolute = Instant::now() + deadline.unwrap_or(self.config.default_deadline);
        let (tx, rx) = mpsc::channel();
        self.submit(move |snapshot| {
            let _ = tx.send(snapshot.select_with(&params, Some(absolute), stale_ok));
        })?;
        rx.recv()
            .map_err(|_| ServiceError::BadRequest("worker dropped the response channel".into()))?
    }

    /// [`QueryExecutor::run_select`] under quota constraints (see
    /// [`Snapshot::select_constrained`]). The deadline still includes
    /// queue wait, but is checked before compute only — a constrained run
    /// is never interrupted mid-flight, since a partial slate could
    /// strand unmet quota floors.
    pub fn run_select_constrained(
        &self,
        params: SelectParams,
        constraints: SelectConstraints,
        deadline: Option<Duration>,
    ) -> Result<SelectOutcome, ServiceError> {
        let absolute = Instant::now() + deadline.unwrap_or(self.config.default_deadline);
        let (tx, rx) = mpsc::channel();
        self.submit(move |snapshot| {
            let _ = tx.send(snapshot.select_constrained(&params, &constraints, Some(absolute), false));
        })?;
        rx.recv()
            .map_err(|_| ServiceError::BadRequest("worker dropped the response channel".into()))?
    }

    /// Runs an arbitrary closure against the snapshot captured at dequeue,
    /// blocking until it returns. This is the generic path for `explain`
    /// and other snapshot-bound reads.
    pub fn run<T: Send + 'static>(
        &self,
        f: impl FnOnce(Arc<Snapshot>) -> T + Send + 'static,
    ) -> Result<T, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.submit(move |snapshot| {
            let _ = tx.send(f(snapshot));
        })?;
        rx.recv()
            .map_err(|_| ServiceError::BadRequest("worker dropped the response channel".into()))
    }
}

impl Drop for QueryExecutor {
    fn drop(&mut self) {
        {
            let mut state = poison::recover(self.shared.state.lock());
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, store: &SnapshotStore, stats: &ExecutorStats) {
    loop {
        let job = {
            let mut state = poison::recover(shared.state.lock());
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = poison::recover(shared.available.wait(state));
            }
        };
        // Capture the snapshot *after* dequeue: the request runs against
        // the newest published epoch, and only that epoch.
        let snapshot = store.load();
        job(snapshot);
        stats.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ProfileUpdate, RepositoryWriter};
    use podium_core::bucket::BucketingConfig;
    use podium_core::profile::UserRepository;
    use podium_core::weights::{CovScheme, WeightScheme};

    fn service_parts() -> (Arc<SnapshotStore>, RepositoryWriter) {
        let mut repo = UserRepository::new();
        let p = repo.intern_property("topic");
        for i in 0..20 {
            let u = repo.add_user(format!("u{i}"));
            repo.set_score(u, p, (i as f64) / 20.0).unwrap();
        }
        let buckets = BucketingConfig::paper_default().bucketize(&repo);
        RepositoryWriter::new(repo, &buckets)
    }

    fn params() -> SelectParams {
        SelectParams {
            budget: 4,
            weight: WeightScheme::LinearBySize,
            cov: CovScheme::Single,
            quota_hash: 0,
        }
    }

    #[test]
    fn select_round_trips_through_the_pool() {
        let (store, _w) = service_parts();
        let exec = QueryExecutor::new(
            store,
            ExecutorConfig {
                workers: 2,
                queue_capacity: 8,
                default_deadline: Duration::from_secs(2),
            },
        );
        let outcome = exec.run_select(params(), None, false).unwrap();
        assert_eq!(outcome.selection.users.len(), 4);
        assert_eq!(outcome.epoch, 0);
        // The worker bumps `completed` after delivering the response, so
        // give it a beat.
        let deadline = Instant::now() + Duration::from_secs(2);
        while exec.stats().completed.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(exec.stats().completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn admission_control_rejects_when_full() {
        let (store, _w) = service_parts();
        let exec = QueryExecutor::new(
            store,
            ExecutorConfig {
                workers: 1,
                queue_capacity: 1,
                default_deadline: Duration::from_secs(2),
            },
        );
        // Park the single worker on a slow job, fill the queue, then
        // overflow it.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        exec.submit(move |_snap| {
            let (lock, cv) = &*g2;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Give the worker a moment to pick up the parked job.
        std::thread::sleep(Duration::from_millis(50));
        exec.submit(|_snap| {}).unwrap();
        let err = exec.submit(|_snap| {}).unwrap_err();
        assert_eq!(err, ServiceError::Overloaded);
        assert_eq!(exec.stats().rejected.load(Ordering::Relaxed), 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn snapshot_captured_at_dequeue_sees_latest_epoch() {
        let (store, mut w) = service_parts();
        w.apply(&ProfileUpdate {
            user: "u0".into(),
            property: "topic".into(),
            score: Some(0.99),
        })
        .unwrap();
        w.publish();
        let exec = QueryExecutor::new(Arc::clone(&store), ExecutorConfig::default());
        let outcome = exec.run_select(params(), None, false).unwrap();
        assert_eq!(outcome.epoch, 1, "request sees the published epoch");
    }

    #[test]
    fn expired_deadline_is_reported() {
        let (store, _w) = service_parts();
        let exec = QueryExecutor::new(store, ExecutorConfig::default());
        let err = exec
            .run_select(params(), Some(Duration::from_nanos(0)), false)
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
    }

    #[test]
    fn shutdown_rejects_new_work_and_joins() {
        let (store, _w) = service_parts();
        let exec = QueryExecutor::new(store, ExecutorConfig::default());
        exec.run_select(params(), None, false).unwrap();
        drop(exec); // must not hang
    }
}
