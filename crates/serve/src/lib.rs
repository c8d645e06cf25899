//! Session layer of the FLH workspace: a reusable [`JobEngine`] and the
//! `flh serve` persistent campaign service.
//!
//! Before this crate, every front end — the `flh campaign` subcommand and
//! each bench binary — owned its own copy of the parse → compile →
//! campaign → report plumbing, and every invocation paid the full
//! pipeline even when re-running the same circuit. This crate extracts
//! that plumbing once and makes compiled circuits a cached, shared
//! resource:
//!
//! * [`CircuitSource`] — the one place circuit specs (builtin profile
//!   names, `.bench` files, inline bench text) are resolved and keyed;
//! * [`CircuitCache`] — content-addressed compiled-circuit cache: FNV-1a
//!   over the canonical `write_bench` rendering, `Arc`-shared entries,
//!   LRU eviction, `serve.cache.*` counters in flh-obs;
//! * [`JobSpec`] / [`JobEngine`] / [`JobEvent`] — the shared job
//!   vocabulary and synchronous executor with streamed per-batch events
//!   and per-job deterministic metrics (flh-obs `det_delta` documents);
//! * [`JobSession`] — a bounded, back-pressured queue
//!   ([`flh_exec::BoundedQueue`]) feeding one executor thread, with
//!   deterministic job ids and barrier-drained event delivery;
//! * [`serve_lines`] — the line-delimited JSON protocol (`submit` /
//!   `status` / `cancel` / `wait` / `shutdown`) behind `flh serve`, over
//!   stdin/stdout or a Unix socket. Transcripts are byte-identical at
//!   every `FLH_THREADS` width. Lines are parsed and rendered by
//!   `flh_obs::json`, the workspace's one JSON implementation, whose
//!   [`Json`], [`parse_json`] and [`render`] this crate re-exports; job
//!   metrics travel as [`Json`] values and are embedded in replies as is.
//!
//! The determinism contract of the rest of the workspace extends here:
//! results, event order and protocol transcripts are pure functions of
//! the submission sequence; only wall-clock (never surfaced on the wire)
//! varies.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod engine;
pub mod job;
pub mod proto;
pub mod server;
pub mod session;
pub mod source;

pub use cache::{CacheLookup, CacheStats, CircuitCache, CompiledEntry, DEFAULT_CACHE_CAPACITY};
pub use engine::JobEngine;
pub use flh_obs::{parse_json, render, Json, JsonError};
pub use job::{
    parse_application_styles, parse_dft_style, BatchPayload, JobEvent, JobId, JobKind, JobOutcome,
    JobSpec, ProgressTiming, ALL_APPLICATION_STYLES,
};
pub use proto::{parse_request, render_request, Request};
#[cfg(unix)]
pub use server::serve_unix_socket;
pub use server::{serve_lines, ServeConfig};
pub use session::{JobLatency, JobSession, SessionStats, SessionSummary, SubmitError};
pub use source::{content_key, fnv1a, CircuitSource};
