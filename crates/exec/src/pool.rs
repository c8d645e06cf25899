//! Deterministic scoped thread pool.
//!
//! [`ThreadPool`] is a *configuration* of parallelism, not a set of
//! long-lived threads: each [`ThreadPool::run`] call spawns scoped workers
//! ([`std::thread::scope`]), so jobs may borrow from the caller's stack —
//! fault lists, pattern sets, test views — without `Arc`-wrapping or
//! lifetime erasure. The units of work handed to it (the fault shards of
//! one transition campaign) run for milliseconds to seconds, so the
//! microseconds of spawn cost per call are noise.
//!
//! Scheduling is free of timing dependence: workers claim job indices from
//! an atomic counter, and every job's result is stored in the slot of its
//! *index*, so the returned `Vec` is ordered by job id regardless of which
//! worker finished first. How a job list is cut is the caller's decision,
//! taken from [`ThreadPool::size`] alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable selecting the default worker count
/// ([`ThreadPool::from_env`]).
pub const THREADS_ENV: &str = "FLH_THREADS";

/// A deterministic scoped thread pool with a fixed worker count.
///
/// The *logical* worker count ([`ThreadPool::size`]) governs work
/// decomposition and therefore results; the *dispatch* count
/// ([`ThreadPool::dispatch`]) — the logical count clamped to the host's
/// [`std::thread::available_parallelism`] — governs how many OS threads are
/// actually spawned. On a 1-core host a 4-worker pool still partitions work
/// four ways (bit-identical results) but runs the partitions serially on
/// the calling thread instead of paying thread spawn and contention for
/// parallelism that does not exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
    /// Threads actually spawned by [`ThreadPool::run`]:
    /// `min(workers, available_parallelism)`, resolved at construction.
    dispatch: usize,
}

impl ThreadPool {
    /// Pool with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool {
            workers,
            dispatch: workers.min(cores),
        }
    }

    /// The single-worker pool: every `run` degenerates to an in-place
    /// serial loop in job-id order. The serial fault-simulation entry
    /// points pass it to the one pooled implementation, so serial and
    /// pooled runs share their code path.
    pub fn serial() -> Self {
        ThreadPool::new(1)
    }

    /// Worker count from the `FLH_THREADS` environment variable, falling
    /// back to [`std::thread::available_parallelism`] (then 1).
    pub fn from_env() -> Self {
        let workers = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ThreadPool::new(workers)
    }

    /// Fixed logical worker count of this pool (the decomposition width).
    pub fn size(&self) -> usize {
        self.workers
    }

    /// Threads actually spawned per [`ThreadPool::run`] call:
    /// `min(size, available_parallelism)`. Purely a throughput knob —
    /// results depend only on [`ThreadPool::size`].
    pub fn dispatch(&self) -> usize {
        self.dispatch
    }

    /// Runs `jobs` independent jobs, returning their results **in job-id
    /// order** (never completion order). With a dispatch count of 1 (one
    /// logical worker, or a 1-core host) or at most one job, this is a
    /// plain serial loop on the calling thread; otherwise
    /// `min(dispatch, jobs)` scoped threads claim job ids from an atomic
    /// counter. Results are identical either way.
    ///
    /// # Panics
    ///
    /// Propagates the panic of any job, with that job's own payload (the
    /// lowest-numbered panicking worker's, if several panic).
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let obs = flh_obs::enabled();
        let _span = flh_obs::span("exec.pool.run");
        if self.dispatch == 1 || jobs <= 1 {
            if obs {
                // time-ok: busy wall clock feeds worker stats (nondet section only).
                let t0 = std::time::Instant::now();
                let out: Vec<T> = (0..jobs).map(job).collect();
                flh_obs::worker_busy("exec.pool", 0, t0.elapsed(), jobs as u64);
                return out;
            }
            return (0..jobs).map(job).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (slots, next, job) = (&slots, &next, &job);
            let workers: Vec<_> = (0..self.dispatch.min(jobs))
                .map(|w| {
                    scope.spawn(move || {
                        // Worker stats (busy wall clock, jobs claimed) are
                        // scheduling shape: nondeterministic section only.
                        let t0 = obs.then(|| {
                            flh_obs::bind_worker_shard(w);
                            std::time::Instant::now() // time-ok: worker stats only
                        });
                        let mut claimed = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            let value = job(i);
                            *slots[i].lock().expect("result slot poisoned") = Some(value);
                            claimed += 1;
                        }
                        if let Some(t0) = t0 {
                            flh_obs::worker_busy("exec.pool", w, t0.elapsed(), claimed);
                        }
                    })
                })
                .collect();
            // Joined by hand so a job's panic resumes with its own payload;
            // the scope's automatic join would replace it with a generic
            // "a scoped thread panicked".
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("scoped worker completed every claimed job")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_at_every_size() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(workers);
            assert_eq!(pool.size(), workers);
            let got = pool.run(97, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn workers_are_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::new(0).size(), 1);
        assert_eq!(ThreadPool::serial(), ThreadPool::new(1));
    }

    #[test]
    fn dispatch_is_clamped_to_host_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for workers in [1, 2, 4, 64] {
            let pool = ThreadPool::new(workers);
            assert_eq!(pool.size(), workers);
            assert_eq!(pool.dispatch(), workers.min(cores));
            assert!(pool.dispatch() >= 1);
        }
    }

    #[test]
    fn a_job_panic_keeps_its_own_message() {
        for workers in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                ThreadPool::new(workers).run(4, |i| {
                    if i == 2 {
                        panic!("job {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the job panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("job 2 failed"), "workers = {workers}");
        }
    }

    #[test]
    fn jobs_can_borrow_from_the_caller() {
        let text = String::from("borrowed");
        let pool = ThreadPool::new(3);
        let lens = pool.run(5, |i| text.len() + i);
        assert_eq!(lens, vec![8, 9, 10, 11, 12]);
    }

    #[test]
    fn from_env_parses_and_falls_back() {
        // NOTE: mutates the process environment; kept as a single test so
        // there is no concurrent reader of FLH_THREADS in this binary.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(ThreadPool::from_env().size(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(ThreadPool::from_env().size() >= 1);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(ThreadPool::from_env().size() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(ThreadPool::from_env().size() >= 1);
    }
}
