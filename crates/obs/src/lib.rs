//! Observability for the FLH workspace: deterministic counters, wall-clock
//! spans and Chrome trace export — with a hard line between the two kinds
//! of number.
//!
//! # The determinism contract
//!
//! Every metric in this crate is classified once, at its declaration:
//!
//! * **Deterministic** ([`Counter`], [`Hist`], named counters, the
//!   [`gauge_set`] bank and [`series_record`] time series) — quantities
//!   that depend only on the inputs of the computation, never on pool
//!   width, dispatch count, scheduling or wall clock: replay events
//!   processed, dedup hits, early exits, undo-log depth, faults dropped,
//!   PODEM backtracks, packed-word ops, lint findings. The campaign
//!   engine's contract (bit-identical results at any `FLH_THREADS`)
//!   extends to these: the deterministic JSON section is **byte-identical
//!   at pool widths 1/2/4/8**, which `crates/bench/tests/
//!   metrics_determinism.rs` and the `scripts/ci.sh` metrics gate enforce.
//!   Width-dependent work (per-shard good-machine evaluations, partition
//!   shapes, jobs per worker) must never feed a deterministic metric.
//! * **Nondeterministic** ([`span`] timings, per-worker busy stats,
//!   scheduling counters, the [`nondet_gauge_set`] bank) — wall clock and
//!   scheduling shape. These are kept in a separate section of every
//!   report and never diffed.
//!
//! Gauges are *levels* with set/add/max semantics; a gauge belongs in the
//! deterministic bank only when its level at every read point is a pure
//! function of the inputs (the service's logical job ledger), and in the
//! nondeterministic bank when it samples live execution state (a queue
//! observed from a producer mid-flight). Time series are fixed-capacity
//! ring buffers indexed by caller-supplied **logical ticks** (batch index,
//! protocol step) — never a clock — so replays are byte-identical.
//!
//! Counters are relaxed atomics sharded into per-worker banks
//! ([`bind_worker_shard`]); a snapshot merges the banks in shard-index
//! order. Merging is a commutative sum, so shard assignment can never
//! change a total — the fixed order just makes the walk itself
//! deterministic.
//!
//! # Cost when off
//!
//! Nothing is recorded until [`install`] flips the global `ENABLED` flag —
//! the same recorder-style gate the `log` crate uses. Instrumented hot
//! loops accumulate plain locals and do one `if enabled()` flush at the
//! end, so the disabled cost is a branch on a static.
//!
//! # Exporters
//!
//! * [`render_text`] — human-readable report;
//! * [`deterministic_json`] / [`nondeterministic_json`] — the two sections
//!   as [`Json`] values; [`det_document`] / [`full_json`] render them;
//! * [`write_trace`] — a Chrome trace-event file (`chrome://tracing` /
//!   Perfetto loadable), written when `FLH_TRACE=<path>` is set.
//!
//! # JSON
//!
//! [`json`] is the workspace's one JSON implementation (no serde in this
//! workspace): the [`Json`] value, [`parse_json`] and [`render`], with
//! one string escaper. Every document — the metrics documents and trace
//! here, the `flh-lint` summary, every `flh serve` reply — is [`render`]
//! of a value: sorted keys, compact, byte-stable.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod json;
mod registry;
mod report;
mod span;

pub use json::{parse_json, render, Json, JsonError};
pub use registry::{
    add, bind_worker_shard, gauge_add, gauge_max, gauge_set, named_add, nondet_gauge_add,
    nondet_gauge_max, nondet_gauge_set, record, sched_add, series_record, snapshot, worker_busy,
    Counter, Hist, HistogramSnapshot, SeriesSnapshot, Snapshot, SpanSnapshot, WorkerSnapshot,
    HIST_BUCKETS, SERIES_CAPACITY,
};
pub use report::{det_document, deterministic_json, full_json, nondeterministic_json, render_text};
pub use span::{span, write_trace, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// Environment variable naming the Chrome trace output file. Setting it
/// makes the instrumented binaries install the recorder with tracing on.
pub const TRACE_ENV: &str = "FLH_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);

/// True once a recorder is installed. Instrumented code gates every flush
/// on this — a single relaxed load, the whole cost of the crate when off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when the installed recorder also buffers trace events.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Installs the global recorder: counters, histograms and spans start
/// recording; with `trace` also buffers per-span trace events for
/// [`write_trace`]. Idempotent (a later call may still upgrade a
/// non-tracing install to a tracing one).
pub fn install(trace: bool) {
    span::init_epoch();
    ENABLED.store(true, Ordering::Relaxed);
    if trace {
        TRACING.store(true, Ordering::Relaxed);
    }
}

/// Zeroes every counter, histogram, span aggregate, worker stat and
/// buffered trace event. The installed/tracing flags are left as they are
/// — `reset` separates runs, it does not uninstall.
pub fn reset() {
    registry::reset_storage();
    span::reset_storage();
}

/// The Chrome trace destination from the environment (`FLH_TRACE=<path>`),
/// if set and non-empty.
pub fn trace_path_from_env() -> Option<String> {
    std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; every test in this binary serializes
    // on one lock and resets before use.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = locked();
        // `add`/`record` are themselves gated, so even an ungated caller
        // leaves no trace before install.
        ENABLED.store(false, Ordering::Relaxed);
        reset();
        add(Counter::ReplayEvents, 5);
        record(Hist::ReplayUndoDepth, 9);
        named_add("lint.pass.structure.findings", 2);
        let snap = snapshot();
        assert!(snap.counters.iter().all(|&(_, v)| v == 0));
        assert!(snap.named_counters.is_empty());
        assert!(snap.histograms.iter().all(|h| h.count == 0));
    }

    #[test]
    fn counters_merge_across_shards() {
        let _g = locked();
        install(false);
        reset();
        add(Counter::ReplayEvents, 3);
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    bind_worker_shard(w);
                    add(Counter::ReplayEvents, 10);
                    record(Hist::ReplayUndoDepth, 4);
                });
            }
        });
        let snap = snapshot();
        let events = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "replay.events")
            .map(|&(_, v)| v);
        assert_eq!(events, Some(43));
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "replay.undo_depth")
            .expect("histogram present");
        assert_eq!(hist.count, 4);
        assert_eq!(hist.total, 16);
        // 4 falls in the 2^2..2^3 bucket (index 3).
        assert_eq!(hist.buckets, vec![(3, 4)]);
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn spans_aggregate_and_never_enter_the_deterministic_section() {
        let _g = locked();
        install(false);
        reset();
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        add(Counter::PodemBacktracks, 2);
        let snap = snapshot();
        assert!(snap.spans.iter().any(|s| s.name == "test.outer"));
        assert!(snap.spans.iter().any(|s| s.name == "test.inner"));
        let det = render(&deterministic_json(&snap));
        assert!(!det.contains("test.outer"), "span leaked into {det}");
        assert!(det.contains("\"podem.backtracks\":2"));
        let nondet = render(&nondeterministic_json(&snap));
        assert!(nondet.contains("test.outer"));
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn named_counters_and_sched_are_separated() {
        let _g = locked();
        install(false);
        reset();
        named_add("lint.pass.cycles.findings", 1);
        named_add("lint.pass.cycles.findings", 2);
        sched_add("pool.partition.calls", 1);
        let snap = snapshot();
        assert_eq!(
            snap.named_counters,
            vec![("lint.pass.cycles.findings".to_string(), 3)]
        );
        assert_eq!(snap.sched, vec![("pool.partition.calls".to_string(), 1)]);
        let det = render(&deterministic_json(&snap));
        assert!(det.contains("lint.pass.cycles.findings"));
        assert!(!det.contains("pool.partition.calls"));
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn json_documents_are_well_formed_and_stable() {
        let _g = locked();
        install(false);
        reset();
        add(Counter::ReplayCalls, 7);
        record(Hist::ReplayEventsPerCall, 0);
        let snap = snapshot();
        let a = full_json(&snap);
        let b = full_json(&snap);
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.starts_with("{\"deterministic\":{\"counters\":{"));
        assert!(a.contains("\"nondeterministic\":{"));
        // Zero-valued fixed counters stay in the schema.
        assert!(a.contains("\"drops.faults_dropped\":0"));
        let det = det_document(&snap);
        assert!(det.ends_with('\n'));
        assert!(!det.contains("nondeterministic"));
        // Both documents are in canonical form: render of their own parse.
        for doc in [&a, &det] {
            assert_eq!(render(&parse_json(doc).unwrap()) + "\n", *doc);
        }
        let text = render_text(&snap);
        assert!(text.contains("replay.calls"));
        assert!(text.contains("nondeterministic"));
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn det_delta_scopes_metrics_between_snapshots() {
        let _g = locked();
        install(false);
        reset();
        add(Counter::ReplayEvents, 10);
        named_add("serve.cache.hits", 2);
        record(Hist::ReplayUndoDepth, 4);
        let before = snapshot();
        {
            let _span = span("job.run");
            add(Counter::ReplayEvents, 7);
            named_add("serve.cache.hits", 1);
            named_add("serve.cache.misses", 3);
            record(Hist::ReplayUndoDepth, 4);
            record(Hist::ReplayUndoDepth, 100);
        }
        let after = snapshot();
        let delta = after.det_delta(&before);
        let events = delta
            .counters
            .iter()
            .find(|(n, _)| *n == "replay.events")
            .map(|&(_, v)| v);
        assert_eq!(events, Some(7));
        assert!(delta
            .named_counters
            .contains(&("serve.cache.hits".to_string(), 1)));
        assert!(delta
            .named_counters
            .contains(&("serve.cache.misses".to_string(), 3)));
        let hist = delta
            .histograms
            .iter()
            .find(|h| h.name == "replay.undo_depth")
            .expect("histogram present");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.total, 104);
        // One more 4 (bucket 3) and the new 100 (bucket 7).
        assert_eq!(hist.buckets, vec![(3, 1), (7, 1)]);
        // The delta renders as a pure deterministic document: the span
        // recorded inside the scope never appears.
        assert!(delta.spans.is_empty() && delta.sched.is_empty());
        let doc = det_document(&delta);
        assert!(doc.contains("\"replay.events\":7"));
        assert!(!doc.contains("job.run"));
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn gauges_have_set_add_max_semantics_and_stay_in_their_bank() {
        let _g = locked();
        install(false);
        reset();
        gauge_set("serve.queue.depth", 3);
        gauge_set("serve.queue.depth", 2);
        gauge_add("serve.jobs.in_flight", 1);
        gauge_add("serve.jobs.in_flight", 2);
        gauge_max("serve.queue.depth_peak", 5);
        gauge_max("serve.queue.depth_peak", 4);
        nondet_gauge_set("exec.queue.depth", 7);
        nondet_gauge_max("exec.queue.depth_peak", 7);
        let snap = snapshot();
        assert_eq!(
            snap.gauges,
            vec![
                ("serve.jobs.in_flight".to_string(), 3),
                ("serve.queue.depth".to_string(), 2),
                ("serve.queue.depth_peak".to_string(), 5),
            ]
        );
        assert_eq!(
            snap.nondet_gauges,
            vec![
                ("exec.queue.depth".to_string(), 7),
                ("exec.queue.depth_peak".to_string(), 7),
            ]
        );
        let det = render(&deterministic_json(&snap));
        assert!(det.contains("\"serve.queue.depth\":2"));
        assert!(!det.contains("exec.queue.depth"), "nondet gauge leaked");
        let nondet = render(&nondeterministic_json(&snap));
        assert!(nondet.contains("\"exec.queue.depth\":7"));
        // det_delta drops both gauge banks: levels are not interval
        // growth, and a concurrent publisher would race a scoped delta.
        let delta = snap.det_delta(&snapshot());
        assert!(delta.gauges.is_empty());
        assert!(delta.nondet_gauges.is_empty());
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn series_ring_keeps_the_newest_window_in_tick_order() {
        let _g = locked();
        install(false);
        reset();
        for tick in 0..(SERIES_CAPACITY as u64 + 8) {
            series_record("serve.coverage.arbitrary", tick, tick as i64 * 10);
        }
        series_record("serve.queue.depth", 1, 2);
        let snap = snapshot();
        assert_eq!(snap.series.len(), 2);
        let cov = &snap.series[0];
        assert_eq!(cov.name, "serve.coverage.arbitrary");
        assert_eq!(cov.capacity, SERIES_CAPACITY);
        // The window holds exactly the newest SERIES_CAPACITY points.
        assert_eq!(cov.points.len(), SERIES_CAPACITY);
        assert_eq!(cov.points.first(), Some(&(8, 80)));
        assert_eq!(
            cov.points.last(),
            Some(&(
                SERIES_CAPACITY as u64 + 7,
                (SERIES_CAPACITY as i64 + 7) * 10
            ))
        );
        let det = render(&deterministic_json(&snap));
        assert!(det.contains("\"series\":[{\"capacity\":64,\"name\":\"serve.coverage.arbitrary\""));
        assert!(det.contains("[8,80]"));
        // Series are windows, not monotonic sums: deltas drop them.
        let delta = snap.det_delta(&snap);
        assert!(delta.series.is_empty());
        ENABLED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn trace_events_nest_like_spans() {
        let _g = locked();
        install(true);
        reset();
        {
            let _a = span("trace.outer");
            // time-ok: test-only sleep to give the spans nonzero width.
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = span("trace.inner");
                // time-ok: test-only sleep to give the spans nonzero width.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let events = span::trace_events();
        // Drop order: inner first, outer second.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "trace.inner");
        assert_eq!(events[1].name, "trace.outer");
        assert_eq!(events[0].depth, events[1].depth + 1);
        assert!(events[1].ts_us <= events[0].ts_us);
        assert!(events[0].ts_us + events[0].dur_us <= events[1].ts_us + events[1].dur_us);

        let dir = std::env::temp_dir().join("flh_obs_unit_trace.json");
        write_trace(&dir).expect("trace written");
        let text = std::fs::read_to_string(&dir).expect("trace readable");
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"trace.outer\""));
        let _ = std::fs::remove_file(&dir);
        TRACING.store(false, Ordering::Relaxed);
        ENABLED.store(false, Ordering::Relaxed);
    }
}
