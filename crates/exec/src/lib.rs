//! Execution layer: a dependency-free, deterministic scoped thread pool,
//! and the bounded queue the session layer feeds its executor through.
//!
//! One production flow runs on the pool: the seeded transition campaigns
//! of the paper's Section I/IV comparison (`flh campaign`, the `flh serve`
//! campaign jobs), whose fault list `flh-atpg` deals out in whole
//! fanout-free regions and runs one shard per [`ThreadPool::run`] job.
//! Parallel execution is only useful here if it is **reproducible**: every
//! campaign in this workspace is seeded, and CI diffs complete outputs.
//! The contract of this crate is therefore:
//!
//! > *Anything computed through [`ThreadPool`] returns bit-identical
//! > results at every worker count, including 1.*
//!
//! Three rules make that hold:
//!
//! * **Deterministic decomposition** — work is split by *index*, from the
//!   logical width [`ThreadPool::size`] alone, never by timing, queue
//!   pressure, wall clock or OS randomness;
//! * **Deterministic merge** — [`ThreadPool::run`] returns results in job
//!   order, never in completion order;
//! * **Independent units** — a job may only read shared immutable state
//!   (e.g. a compiled circuit borrowed by every job of a
//!   [`ThreadPool::run`]); all mutable state is job-local and returned by
//!   value.
//!
//! The worker count defaults to the `FLH_THREADS` environment variable and
//! falls back to [`std::thread::available_parallelism`]; serial paths are
//! the same code run with `pool_size = 1`, not separate implementations.
//! The logical worker count only governs *decomposition* (and therefore
//! results); the OS threads actually spawned are clamped to the host's
//! available parallelism ([`ThreadPool::dispatch`]), so an oversubscribed
//! pool on a small host degrades to fewer threads — or a plain serial loop
//! — with bit-identical output. The `flh-serve` session layer feeds work
//! to a single executor through the bounded, fail-fast [`BoundedQueue`].

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod pool;
pub mod queue;

pub use pool::{ThreadPool, THREADS_ENV};
pub use queue::{BoundedQueue, PushError};
