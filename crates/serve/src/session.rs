//! The [`JobSession`]: a bounded queue, a single executor thread, and a
//! deterministic event ledger over a shared [`JobEngine`].
//!
//! Determinism is the design driver. Jobs execute on **one** executor
//! thread in submission (FIFO) order, so the concatenated event stream is
//! a pure function of the submission sequence — the engine's pool
//! parallelizes *inside* each job without touching event order. Events
//! buffer in a channel and are drained only at blocking barriers
//! ([`JobSession::wait`], [`JobSession::shutdown`]), which is what lets
//! the serve protocol emit byte-identical transcripts at any
//! `FLH_THREADS`.
//!
//! Back-pressure is the bounded queue's: [`JobSession::submit`] never
//! blocks — at capacity it returns [`SubmitError::QueueFull`] and the
//! caller decides (the protocol replies `rejected`; an embedding caller
//! may `wait` and retry).
//!
//! A session is **gated**: the executor pops the next job eagerly but
//! parks before running it until a barrier opens the gate. That makes
//! cancellation deterministic — [`JobSession::cancel`] marks a job, and a
//! marked job that has not run by the next barrier is retired with a
//! `Cancelled` event instead of executing.

use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant; // time-ok: session latency ledger; read only in the nondet `stats --full` section

use flh_exec::{BoundedQueue, PushError};

use crate::cache::CacheStats;
use crate::engine::JobEngine;
use crate::job::{JobEvent, JobId, JobSpec};

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The session is shutting down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::QueueFull => "queue full",
            SubmitError::Closed => "session closed",
        })
    }
}

/// End-of-session accounting returned by [`JobSession::shutdown`].
#[derive(Clone, Copy, Debug)]
pub struct SessionSummary {
    /// Jobs accepted over the session's lifetime.
    pub submitted: u64,
    /// Jobs that reached a terminal event (done, failed or cancelled).
    pub completed: u64,
    /// Compiled-circuit cache totals from the engine.
    pub cache: CacheStats,
}

/// The live session ledger behind the `status` and `stats` protocol
/// verbs. Every count is logical — derived from the submission/retire
/// sequence, never sampled from a running thread — so the ledger observed
/// at a protocol step is deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs retired (done, failed or cancelled).
    pub completed: u64,
    /// Submissions refused by queue back-pressure.
    pub rejected: u64,
    /// Jobs retired as `Cancelled`.
    pub cancelled: u64,
    /// Jobs accepted but not yet retired.
    pub in_flight: u64,
}

/// One retired job's wall/exec latency, from the session's wall-clock
/// ledger (`stats --full` only: wall clock never enters a deterministic
/// document).
#[derive(Clone, Copy, Debug)]
pub struct JobLatency {
    /// The job's numeric id (`job-N`).
    pub job: u64,
    /// Submit-to-retire milliseconds (queueing included).
    pub wall_ms: f64,
    /// Milliseconds inside `JobEngine::run` on the executor (0 for jobs
    /// retired as cancelled).
    pub exec_ms: f64,
}

struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Gate {
    /// A closed gate.
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            changed: Condvar::new(),
        }
    }

    fn set(&self, open: bool) {
        let mut flag = self.open.lock().unwrap_or_else(|e| e.into_inner());
        *flag = open;
        self.changed.notify_all();
    }

    fn wait_open(&self) {
        let mut flag = self.open.lock().unwrap_or_else(|e| e.into_inner());
        while !*flag {
            flag = self.changed.wait(flag).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// format string; anything else is reported generically).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
}

/// See the module docs.
pub struct JobSession {
    engine: Arc<JobEngine>,
    queue: Arc<BoundedQueue<QueuedJob>>,
    gate: Arc<Gate>,
    cancelled: Arc<Mutex<BTreeSet<u64>>>,
    events: mpsc::Receiver<JobEvent>,
    executor: Option<std::thread::JoinHandle<()>>,
    next_id: u64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    cancelled_jobs: u64,
    /// Logical protocol step, the tick source for the queue-depth series:
    /// one per submit and one per retire.
    step: u64,
    /// Submit instants of not-yet-retired jobs, keyed by job id.
    // time-ok: latency ledger; read only via `latency()` into `stats --full`.
    submit_clock: BTreeMap<u64, Instant>,
    /// Retired jobs' (id, submit-to-retire ns), in retire order.
    wall_ns: Vec<(u64, u64)>,
    /// Executed jobs' (id, ns inside `JobEngine::run`), shared with the
    /// executor thread.
    exec_ns: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl JobSession {
    /// Starts a gated session (and its executor thread) over `engine`,
    /// admitting at most `queue_capacity` queued jobs (the back-pressure
    /// threshold).
    pub fn new(engine: Arc<JobEngine>, queue_capacity: usize) -> Self {
        // `named`: the raw queue publishes its observed depth as
        // nondeterministic gauges (`serve.queue.raw.*`) — the executor
        // races producers for it, so the deterministic ledger gauge is
        // derived from submitted/completed instead.
        let queue = Arc::new(BoundedQueue::named(queue_capacity, "serve.queue.raw"));
        let gate = Arc::new(Gate::new());
        let cancelled = Arc::new(Mutex::new(BTreeSet::new()));
        let (tx, rx) = mpsc::channel();
        let exec_ns = Arc::new(Mutex::new(Vec::new()));

        let executor = {
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            let cancelled = Arc::clone(&cancelled);
            let engine = Arc::clone(&engine);
            let exec_ns = Arc::clone(&exec_ns);
            std::thread::spawn(move || {
                while let Some(QueuedJob { id, spec }) = queue.pop_wait() {
                    gate.wait_open();
                    let was_cancelled = cancelled
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&id.0);
                    if was_cancelled {
                        if tx.send(JobEvent::Cancelled { job: id }).is_err() {
                            break;
                        }
                        continue;
                    }
                    // time-ok: exec-latency ledger, read only by `latency()`.
                    let started = Instant::now();
                    let retired = Cell::new(false);
                    let mut forward = |event: JobEvent| {
                        if event.is_terminal() {
                            retired.set(true);
                            // Ledger first, then forward: a barrier that
                            // observes the terminal event must already
                            // find this job's exec time in the ledger.
                            exec_ns
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push((id.0, started.elapsed().as_nanos() as u64));
                        }
                        let _ = tx.send(event);
                    };
                    // The engine turns ordinary failures into a Failed
                    // event itself. A panic — the engine's own, or one
                    // propagated out of a pool worker — is caught here and
                    // fails this job alone: the executor lives on, and the
                    // job still retires exactly once, so the ledger and
                    // every later job stay consistent.
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        engine.run(id, &spec, &mut forward)
                    }));
                    if let Err(payload) = run {
                        if !retired.get() {
                            forward(JobEvent::Failed {
                                job: id,
                                reason: format!("panic: {}", panic_message(payload.as_ref())),
                            });
                        }
                    }
                }
            })
        };

        JobSession {
            engine,
            queue,
            gate,
            cancelled,
            events: rx,
            executor: Some(executor),
            next_id: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            cancelled_jobs: 0,
            step: 0,
            submit_clock: BTreeMap::new(),
            wall_ns: Vec::new(),
            exec_ns,
        }
    }

    /// The engine this session runs on.
    pub fn engine(&self) -> &Arc<JobEngine> {
        &self.engine
    }

    /// Jobs accepted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Jobs whose terminal event has been observed at a barrier so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Submissions refused by queue back-pressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Jobs retired as `Cancelled` so far.
    pub fn cancelled_jobs(&self) -> u64 {
        self.cancelled_jobs
    }

    /// Jobs accepted but not yet retired: the logical queue depth. the executor may have eagerly popped the next
    /// job off the raw queue, but it still counts until its terminal
    /// event is observed at a barrier.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed
    }

    /// The live session ledger (see [`SessionStats`]).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            cancelled: self.cancelled_jobs,
            in_flight: self.in_flight(),
        }
    }

    /// The wall/exec latency ledger of every retired job, in job order.
    /// Wall clock — belongs only in the nondeterministic `stats --full`
    /// section.
    pub fn latency(&self) -> Vec<JobLatency> {
        let exec = self.exec_ns.lock().unwrap_or_else(|e| e.into_inner());
        self.wall_ns
            .iter()
            .map(|&(job, wall)| {
                let exec_ns = exec
                    .iter()
                    .find(|&&(id, _)| id == job)
                    .map_or(0, |&(_, ns)| ns);
                JobLatency {
                    job,
                    wall_ms: wall as f64 / 1e6,
                    exec_ms: exec_ns as f64 / 1e6,
                }
            })
            .collect()
    }

    /// Publishes the deterministic ledger gauges — queue depth (logical),
    /// its high-watermark, in-flight count and the cache hit ratio in
    /// basis points — so the next metrics snapshot carries them. Called
    /// by the protocol layer before answering `stats`; a no-op without a
    /// recorder.
    pub fn publish_gauges(&self) {
        if !flh_obs::enabled() {
            return;
        }
        let depth = self.in_flight() as i64;
        flh_obs::gauge_set("serve.queue.depth", depth);
        flh_obs::gauge_max("serve.queue.depth_peak", depth);
        flh_obs::gauge_set("serve.jobs.in_flight", depth);
        let cache = self.engine.cache_stats();
        let lookups = cache.hits + cache.misses;
        let ratio_bp = (cache.hits * 10_000)
            .checked_div(lookups)
            .map_or(0, |r| r as i64);
        flh_obs::gauge_set("serve.cache.hit_ratio_bp", ratio_bp);
    }

    /// Advances the logical step and records the queue-depth series point
    /// and gauges for it.
    fn note_queue_step(&mut self) {
        self.step += 1;
        if flh_obs::enabled() {
            let depth = self.in_flight() as i64;
            flh_obs::gauge_set("serve.queue.depth", depth);
            flh_obs::gauge_max("serve.queue.depth_peak", depth);
            flh_obs::series_record("serve.queue.depth", self.step, depth);
        }
    }

    /// Enqueues a job. Never blocks; at capacity the job is rejected with
    /// [`SubmitError::QueueFull`] and the would-be id is not consumed.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the session is closed.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let id = JobId(self.next_id + 1);
        match self.queue.try_push(QueuedJob { id, spec }) {
            Ok(()) => {
                self.next_id += 1;
                self.submitted += 1;
                // time-ok: latency ledger only (nondet section).
                self.submit_clock.insert(id.0, Instant::now());
                self.note_queue_step();
                Ok(id)
            }
            Err(PushError::Full(_)) => {
                self.rejected += 1;
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed(_)) => Err(SubmitError::Closed),
        }
    }

    /// Marks a job for cancellation. Returns true when the id names a job
    /// this session accepted; whether it is actually retired as
    /// `Cancelled` (rather than having already run) is decided,
    /// deterministically, at the next barrier.
    pub fn cancel(&mut self, job: JobId) -> bool {
        if job.0 == 0 || job.0 > self.next_id {
            return false;
        }
        self.cancelled
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(job.0);
        true
    }

    /// Barrier: opens the gate, streams buffered and in-flight events into
    /// `sink` until every accepted job has reached its terminal event,
    /// then closes the gate again. Returns the number of jobs retired
    /// during this call.
    pub fn wait(&mut self, sink: &mut dyn FnMut(JobEvent)) -> u64 {
        self.gate.set(true);
        let retired = self.pump(sink);
        self.gate.set(false);
        retired
    }

    fn pump(&mut self, sink: &mut dyn FnMut(JobEvent)) -> u64 {
        let mut retired = 0;
        while self.completed < self.submitted {
            let Ok(event) = self.events.recv() else {
                // The executor is gone. Job panics are caught per job, so
                // this only happens if the executor thread itself failed.
                break;
            };
            if event.is_terminal() {
                self.retire(&event);
                retired += 1;
            }
            sink(event);
        }
        retired
    }

    /// Ledger bookkeeping for one terminal event.
    fn retire(&mut self, event: &JobEvent) {
        self.completed += 1;
        if matches!(event, JobEvent::Cancelled { .. }) {
            self.cancelled_jobs += 1;
        }
        if let Some(submitted_at) = self.submit_clock.remove(&event.job().0) {
            self.wall_ns
                .push((event.job().0, submitted_at.elapsed().as_nanos() as u64));
        }
        self.note_queue_step();
    }

    /// Closes the queue, runs every job still pending, streams the
    /// remaining events into `sink`, joins the executor and returns the
    /// session totals.
    pub fn shutdown(mut self, sink: &mut dyn FnMut(JobEvent)) -> SessionSummary {
        self.queue.close();
        self.gate.set(true);
        self.pump(sink);
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
        // Anything the executor sent between the ledger converging and the
        // channel disconnecting (nothing, in practice) still drains.
        while let Ok(event) = self.events.try_recv() {
            if event.is_terminal() {
                self.retire(&event);
            }
            sink(event);
        }
        SessionSummary {
            submitted: self.submitted,
            completed: self.completed,
            cache: self.engine.cache_stats(),
        }
    }
}

impl Drop for JobSession {
    fn drop(&mut self) {
        // A session dropped without `shutdown` must not leave the executor
        // parked forever.
        self.queue.close();
        self.gate.set(true);
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
    }
}
