//! Exporters: a text report and the JSON metrics documents.
//!
//! The deterministic and nondeterministic sections are [`Json`] values,
//! built by separate functions so callers can diff the former
//! byte-for-byte across pool widths ([`det_document`]) while still
//! shipping the latter for humans ([`full_json`]). Both documents are
//! [`render`] of those values: sorted keys, compact, trailing newline.

use std::fmt::Write;

use crate::json::{render, Json};
use crate::registry::Snapshot;

/// Wall-clock nanoseconds as milliseconds, rounded to three decimals.
fn ms(ns: u64) -> f64 {
    (ns as f64 / 1e3).round() / 1e3
}

/// A `{name: number}` object.
fn numbers<K: AsRef<str>>(entries: impl IntoIterator<Item = (K, f64)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(name, v)| (name.as_ref().to_string(), Json::Number(v)))
            .collect(),
    )
}

/// The deterministic section: fixed counters, named counters, histograms,
/// gauges and windowed time series. **Byte-identical across pool widths**
/// once rendered, for a deterministic workload — this is the object the
/// CI metrics gate diffs and every serve `done` event carries.
pub fn deterministic_json(snap: &Snapshot) -> Json {
    let histograms = snap
        .histograms
        .iter()
        .map(|h| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(b, n)| numbers([("bucket", f64::from(b)), ("count", n as f64)]))
                .collect();
            Json::object([
                ("buckets", Json::Array(buckets)),
                ("count", Json::Number(h.count as f64)),
                ("name", Json::String(h.name.into())),
                ("total", Json::Number(h.total as f64)),
            ])
        })
        .collect();
    let series = snap
        .series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|&(tick, v)| {
                    Json::Array(vec![Json::Number(tick as f64), Json::Number(v as f64)])
                })
                .collect();
            Json::object([
                ("capacity", Json::Number(s.capacity as f64)),
                ("name", Json::String(s.name.clone())),
                ("points", Json::Array(points)),
            ])
        })
        .collect();
    Json::object([
        (
            "counters",
            numbers(snap.counters.iter().map(|&(name, v)| (name, v as f64))),
        ),
        (
            "gauges",
            numbers(snap.gauges.iter().map(|(name, v)| (name, *v as f64))),
        ),
        ("histograms", Json::Array(histograms)),
        (
            "named_counters",
            numbers(
                snap.named_counters
                    .iter()
                    .map(|(name, v)| (name, *v as f64)),
            ),
        ),
        ("series", Json::Array(series)),
    ])
}

/// The nondeterministic section: span wall-clock aggregates, per-worker
/// busy stats, scheduling counters and sampled gauges. Never diffed —
/// wall clock and scheduling shape vary run to run and with pool width.
pub fn nondeterministic_json(snap: &Snapshot) -> Json {
    let spans = snap
        .spans
        .iter()
        .map(|s| {
            Json::object([
                ("count", Json::Number(s.count as f64)),
                ("max_ms", Json::Number(ms(s.max_ns))),
                ("name", Json::String(s.name.into())),
                ("total_ms", Json::Number(ms(s.total_ns))),
            ])
        })
        .collect();
    let workers = snap
        .workers
        .iter()
        .map(|w| {
            Json::object([
                ("busy_ms", Json::Number(ms(w.busy_ns))),
                ("jobs", Json::Number(w.jobs as f64)),
                ("pool", Json::String(w.pool.into())),
                ("runs", Json::Number(w.runs as f64)),
                ("worker", Json::Number(w.worker as f64)),
            ])
        })
        .collect();
    Json::object([
        (
            "gauges",
            numbers(snap.nondet_gauges.iter().map(|(name, v)| (name, *v as f64))),
        ),
        (
            "sched",
            numbers(snap.sched.iter().map(|(name, v)| (name, *v as f64))),
        ),
        ("spans", Json::Array(spans)),
        ("workers", Json::Array(workers)),
    ])
}

/// The full metrics document: both sections, explicitly labelled, with a
/// trailing newline.
pub fn full_json(snap: &Snapshot) -> String {
    let doc = Json::object([
        ("deterministic", deterministic_json(snap)),
        ("nondeterministic", nondeterministic_json(snap)),
    ]);
    render(&doc) + "\n"
}

/// The deterministic section as a standalone document (trailing newline) —
/// what `--metrics-det-json` writes and `scripts/ci.sh` diffs against the
/// goldens across `FLH_THREADS` settings.
pub fn det_document(snap: &Snapshot) -> String {
    render(&deterministic_json(snap)) + "\n"
}

/// Human-readable report: deterministic counters and histograms first,
/// then the wall-clock section clearly marked as nondeterministic.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("metrics (deterministic)\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "  {name:<36} {v}");
    }
    for (name, v) in &snap.named_counters {
        let _ = writeln!(out, "  {name:<36} {v}");
    }
    for h in &snap.histograms {
        let _ = writeln!(out, "  {:<36} count {} total {}", h.name, h.count, h.total);
        for &(b, n) in &h.buckets {
            let range = if b == 0 {
                "0".to_string()
            } else {
                format!("{}..{}", 1u128 << (b - 1), (1u128 << b) - 1)
            };
            let _ = writeln!(out, "    [{range:>24}] {n}");
        }
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "  {name:<36} {v} (gauge)");
    }
    for s in &snap.series {
        let last = s.points.last().map_or(0, |&(_, v)| v);
        let _ = writeln!(
            out,
            "  {:<36} {} point(s), last {}",
            s.name,
            s.points.len(),
            last
        );
    }
    out.push_str("timing (nondeterministic: wall clock, varies per run)\n");
    for s in &snap.spans {
        let _ = writeln!(
            out,
            "  {:<36} x{:<6} total {:.3} ms, max {:.3} ms",
            s.name,
            s.count,
            ms(s.total_ns),
            ms(s.max_ns)
        );
    }
    for w in &snap.workers {
        let _ = writeln!(
            out,
            "  {}[{}]: {} run(s), {} job(s), busy {:.3} ms",
            w.pool,
            w.worker,
            w.runs,
            w.jobs,
            ms(w.busy_ns)
        );
    }
    for (name, v) in &snap.sched {
        let _ = writeln!(out, "  {name:<36} {v}");
    }
    for (name, v) in &snap.nondet_gauges {
        let _ = writeln!(out, "  {name:<36} {v} (gauge)");
    }
    out
}
