//! Deterministic scoped thread pool.
//!
//! [`ThreadPool`] is a *configuration* of parallelism, not a set of
//! long-lived threads: each [`ThreadPool::run`] call spawns scoped workers
//! ([`std::thread::scope`]), so jobs may borrow from the caller's stack —
//! fault lists, pattern sets, test views — without `Arc`-wrapping or
//! lifetime erasure. The units of work in this workspace (fault
//! partitions, vector shards, circuit × style cells) run for milliseconds
//! to seconds, so the microseconds of spawn cost per call are noise.
//!
//! Scheduling is chunk-based and free of timing dependence: workers claim
//! job indices from an atomic counter, and every job's result is stored in
//! the slot of its *index*, so the returned `Vec` is ordered by job id
//! regardless of which worker finished first.

use std::ops::Range;
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
    /// serial loop in job-id order. Serial APIs across the workspace are
    /// thin wrappers passing this pool to the partitioned implementation.
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

    /// True for the single-worker pool.
    pub fn is_serial(&self) -> bool {
        self.workers == 1
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

    /// Deals `0..len` out to at most `parts` shards in `min_len`-sized
    /// chunks, round-robin: chunk `k` (`k·min_len..(k+1)·min_len`, the last
    /// one clipped at `len`) goes to shard `k mod shards`, where `shards =
    /// min(parts, chunk count)`. Each shard is an ascending list of
    /// disjoint ranges, so a shard walks a slice of every region of the
    /// index space in order. On a list whose per-item cost drifts with the
    /// index — a level-sorted fault list, where low-level sites propagate
    /// furthest — every shard then takes a slice of every cost band, and
    /// the shards carry near-equal work.
    ///
    /// With one shard (`parts <= 1`, or fewer than two chunks) the result
    /// is the single range `0..len`, so a serial run walks the list in its
    /// own order. Pure arithmetic on the arguments: the decomposition
    /// depends on the logical width, never on scheduling.
    pub fn partition_min(len: usize, parts: usize, min_len: usize) -> Vec<Vec<Range<usize>>> {
        let min_len = min_len.max(1);
        let chunks = len.div_ceil(min_len);
        let shards = parts.min(chunks);
        if shards <= 1 {
            return vec![vec![0..len]];
        }
        let mut dealt = vec![Vec::with_capacity(chunks.div_ceil(shards)); shards];
        for k in 0..chunks {
            dealt[k % shards].push(k * min_len..((k + 1) * min_len).min(len));
        }
        dealt
    }

    /// Deals `0..len` over the pool ([`ThreadPool::partition_min`]: chunks
    /// of `min_len` items, so per-shard setup cost — a fresh simulator, a
    /// good-machine evaluation per batch — is never paid for a sliver of
    /// work), runs `f` on each shard's range list, and returns `(shard,
    /// result)` pairs **in shard order**. The decomposition depends only
    /// on `(len, size, min_len)`, so results stay bit-identical across
    /// hosts and dispatch counts.
    pub fn run_partitioned_min<T, F>(
        &self,
        len: usize,
        min_len: usize,
        f: F,
    ) -> Vec<(Vec<Range<usize>>, T)>
    where
        T: Send,
        F: Fn(&[Range<usize>]) -> T + Sync,
    {
        let shards = Self::partition_min(len, self.workers, min_len);
        if flh_obs::enabled() {
            // Partition shape follows the pool width — nondeterministic
            // (sched) section only, never a deterministic counter.
            flh_obs::sched_add("pool.partition.calls", 1);
            flh_obs::sched_add("pool.partition.shards", shards.len() as u64);
            flh_obs::sched_add("pool.partition.items", len as u64);
        }
        let results = self.run(shards.len(), |i| f(&shards[i]));
        shards.into_iter().zip(results).collect()
    }
}

/// The items of `items` a shard's range list selects, in shard order —
/// the gather half of a dealt fan-out (the scatter half writes results
/// back through the same ranges).
pub fn gather<T: Clone>(items: &[T], shard: &[Range<usize>]) -> Vec<T> {
    shard
        .iter()
        .flat_map(|r| items[r.clone()].iter().cloned())
        .collect()
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
        assert!(ThreadPool::serial().is_serial());
        assert!(!ThreadPool::new(2).is_serial());
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

    /// Every `(len, parts, min_len)` shape the deal tests sweep: empty and
    /// tiny lists, exact multiples, a short last chunk, more parts than
    /// chunks, and degenerate floors.
    const SHAPES: [(usize, usize, usize); 10] = [
        (0, 4, 64),
        (1, 4, 64),
        (64, 2, 64),
        (100, 2, 64),
        (1122, 2, 64),
        (1122, 3, 64),
        (1122, 8, 64),
        (257, 8, 32),
        (10, 3, 0),
        (7, 20, 1),
    ];

    #[test]
    fn dealt_shards_are_disjoint_and_cover_the_list() {
        for (len, parts, min) in SHAPES {
            let shards = ThreadPool::partition_min(len, parts, min);
            assert!(!shards.is_empty() && shards.len() <= parts.max(1));
            let mut seen = vec![false; len];
            for r in shards.iter().flatten() {
                for i in r.clone() {
                    assert!(!seen[i], "index {i} dealt twice: {shards:?}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "len={len} parts={parts} min={min}");
        }
    }

    #[test]
    fn chunk_k_lands_in_shard_k_mod_parts_in_ascending_order() {
        for (len, parts, min) in SHAPES {
            let shards = ThreadPool::partition_min(len, parts, min);
            if shards.len() == 1 {
                continue; // the single-shard case has its own test
            }
            let min = min.max(1);
            let chunks = len.div_ceil(min);
            assert_eq!(shards.len(), parts.min(chunks));
            for (s, shard) in shards.iter().enumerate() {
                assert!(shard.windows(2).all(|w| w[0].end < w[1].start));
                for r in shard {
                    assert_eq!(r.start % min, 0, "ranges start on chunk boundaries");
                    assert_eq!((r.start / min) % shards.len(), s, "{shards:?}");
                }
            }
        }
        // Spelled out: 5 chunks of 4 dealt over 2 shards.
        assert_eq!(
            ThreadPool::partition_min(18, 2, 4),
            vec![vec![0..4, 8..12, 16..18], vec![4..8, 12..16]]
        );
    }

    #[test]
    fn one_shard_is_the_whole_range() {
        assert_eq!(ThreadPool::partition_min(1122, 1, 64), vec![vec![0..1122]]);
        // Fewer than two chunks: no deal, whatever the width.
        assert_eq!(ThreadPool::partition_min(64, 4, 64), vec![vec![0..64]]);
        assert_eq!(ThreadPool::partition_min(0, 4, 64), vec![vec![0..0]]);
    }

    #[test]
    fn only_the_last_chunk_is_short() {
        for (len, parts, min) in SHAPES {
            let shards = ThreadPool::partition_min(len, parts, min);
            if shards.len() == 1 {
                continue;
            }
            let min = min.max(1);
            for r in shards.iter().flatten() {
                assert!(
                    r.len() == min || r.end == len,
                    "short chunk {r:?} before the end (len={len} min={min})"
                );
            }
        }
    }

    #[test]
    fn run_partitioned_min_returns_shards_in_order() {
        let data: Vec<u64> = (0..300).collect();
        let expected: u64 = data.iter().sum();
        for workers in [1, 2, 3, 8] {
            let pool = ThreadPool::new(workers);
            let parts = pool.run_partitioned_min(data.len(), 32, |shard| {
                gather(&data, shard).iter().sum::<u64>()
            });
            assert_eq!(
                parts.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
                ThreadPool::partition_min(data.len(), workers, 32)
            );
            let total: u64 = parts.iter().map(|(_, s)| s).sum();
            assert_eq!(total, expected, "workers = {workers}");
        }
        let shard = [1..3, 5..6];
        assert_eq!(gather(&data, &shard), vec![1, 2, 5]);
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
