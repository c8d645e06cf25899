//! Execution layer: a dependency-free, deterministic scoped thread pool
//! the batch APIs of the workspace are built on, and the bounded queue the
//! session layer feeds its executor through.
//!
//! The paper's evaluation is embarrassingly parallel at two granularities
//! — across circuit × holding-style cells, and across fault/vector
//! partitions within one circuit — but parallel execution is only useful
//! here if it is **reproducible**: every campaign in this workspace is
//! seeded, and CI diffs complete outputs. The contract of this crate is
//! therefore:
//!
//! > *Anything computed through [`ThreadPool`] returns bit-identical
//! > results at every worker count, including 1.*
//!
//! Three rules make that hold:
//!
//! * **Deterministic decomposition** — work is split by *index* (job ids,
//!   fixed-size chunks dealt round-robin via [`ThreadPool::partition_min`]),
//!   never by timing, queue pressure, wall clock or OS randomness;
//! * **Deterministic merge** — results are collected in index/shard order
//!   and scattered back through each shard's ranges, never in completion
//!   order;
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
//! — with bit-identical output. Long-running front ends (the `flh-serve`
//! session layer) feed work to a single executor through the bounded,
//! back-pressured [`BoundedQueue`].

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod pool;
pub mod queue;

pub use pool::{gather, ThreadPool, THREADS_ENV};
pub use queue::{BoundedQueue, PushError};
