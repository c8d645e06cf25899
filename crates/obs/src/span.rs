//! Wall-clock spans: RAII guards, per-name aggregation and the Chrome
//! trace-event buffer. Everything here is **nondeterministic** by
//! definition and only ever reported in the nondeterministic section.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::{render, Json};
use crate::registry::SpanSnapshot;
use crate::{enabled, tracing};

#[derive(Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

static AGGREGATES: Mutex<BTreeMap<&'static str, SpanAgg>> = Mutex::new(BTreeMap::new());
static TRACE: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// One completed span, as a Chrome "complete" (`ph:"X"`) event.
/// Timestamps are microseconds since the recorder's epoch; `ts` and the
/// end are floored independently so a child interval always stays inside
/// its parent's after truncation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TraceEvent {
    pub name: &'static str,
    pub tid: u64,
    pub ts_us: u64,
    pub dur_us: u64,
    pub depth: u32,
}

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn init_epoch() {
    let _ = EPOCH.set(Instant::now());
}

pub(crate) fn reset_storage() {
    lock(&AGGREGATES).clear();
    lock(&TRACE).clear();
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// RAII wall-clock span. Inert (zero work on drop) unless a recorder is
/// installed at creation time.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    depth: u32,
}

/// Opens a named span; the guard's drop records the elapsed wall clock
/// into the per-name aggregate and — when tracing — the trace buffer.
/// Spans nest: depth is tracked per thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            depth: 0,
        };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        name,
        start: Some(Instant::now()),
        depth,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let end = Instant::now();
        let elapsed_ns = end.duration_since(start).as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        {
            let mut aggs = lock(&AGGREGATES);
            let agg = aggs.entry(self.name).or_default();
            agg.count += 1;
            agg.total_ns += elapsed_ns;
            agg.max_ns = agg.max_ns.max(elapsed_ns);
        }
        if tracing() {
            let epoch = *EPOCH.get_or_init(Instant::now);
            let ts_us = start.duration_since(epoch).as_micros() as u64;
            let end_us = end.duration_since(epoch).as_micros() as u64;
            lock(&TRACE).push(TraceEvent {
                name: self.name,
                tid: thread_tid(),
                ts_us,
                dur_us: end_us - ts_us,
                depth: self.depth,
            });
        }
    }
}

pub(crate) fn span_snapshots() -> Vec<SpanSnapshot> {
    lock(&AGGREGATES)
        .iter()
        .map(|(&name, agg)| SpanSnapshot {
            name,
            count: agg.count,
            total_ns: agg.total_ns,
            max_ns: agg.max_ns,
        })
        .collect()
}

#[cfg(test)]
pub(crate) fn trace_events() -> Vec<TraceEvent> {
    lock(&TRACE).clone()
}

/// Writes the buffered trace events as a Chrome trace-event JSON file
/// (load in `chrome://tracing` or Perfetto), rendered through
/// [`crate::json::render`]. Each span becomes one complete event
/// (`ph:"X"`) with its nesting depth under `args`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    let events = lock(&TRACE)
        .iter()
        .map(|e| {
            Json::object([
                (
                    "args",
                    Json::object([("depth", Json::Number(e.depth.into()))]),
                ),
                ("cat", Json::String("flh".into())),
                ("dur", Json::Number(e.dur_us as f64)),
                ("name", Json::String(e.name.into())),
                ("ph", Json::String("X".into())),
                ("pid", Json::Number(1.0)),
                ("tid", Json::Number(e.tid as f64)),
                ("ts", Json::Number(e.ts_us as f64)),
            ])
        })
        .collect();
    let doc = Json::object([
        ("displayTimeUnit", Json::String("ms".into())),
        ("traceEvents", Json::Array(events)),
    ]);
    std::fs::write(path, render(&doc) + "\n")
}
