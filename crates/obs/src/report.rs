//! Exporters: a text report and hand-rolled JSON in the workspace house
//! style (fixed key order, compact objects, trailing newline on full
//! documents — the same discipline as `flh-lint`'s summary emitter).
//!
//! The deterministic and nondeterministic sections are rendered by
//! separate functions so callers can diff the former byte-for-byte across
//! pool widths ([`det_document`]) while still shipping the latter for
//! humans ([`full_json`]).

use std::fmt::Write;

use crate::registry::Snapshot;

/// Escapes a string for inclusion in a JSON document: quote, backslash,
/// `\n`, `\r` and `\t` get their short escapes, other control characters
/// `\u00XX`. `flh-lint`'s summary emitter shares it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn gauge_entries(gauges: &[(String, i64)]) -> String {
    let entries: Vec<String> = gauges
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", escape(name)))
        .collect();
    entries.join(",")
}

/// The deterministic section as one compact JSON object (no trailing
/// newline): fixed counters, named counters, histograms, gauges and
/// windowed time series. **Byte-identical across pool widths** for a
/// deterministic workload — this is the object the CI metrics gate diffs.
pub fn deterministic_json(snap: &Snapshot) -> String {
    let counters: Vec<String> = snap
        .counters
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", escape(name)))
        .collect();
    let named: Vec<String> = snap
        .named_counters
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", escape(name)))
        .collect();
    let hists: Vec<String> = snap
        .histograms
        .iter()
        .map(|h| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(b, n)| format!("{{\"bucket\":{b},\"count\":{n}}}"))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"total\":{},\"buckets\":[{}]}}",
                escape(h.name),
                h.count,
                h.total,
                buckets.join(",")
            )
        })
        .collect();
    let series: Vec<String> = snap
        .series
        .iter()
        .map(|s| {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|&(tick, v)| format!("[{tick},{v}]"))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"capacity\":{},\"points\":[{}]}}",
                escape(&s.name),
                s.capacity,
                points.join(",")
            )
        })
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"named_counters\":{{{}}},\"histograms\":[{}],\"gauges\":{{{}}},\"series\":[{}]}}",
        counters.join(","),
        named.join(","),
        hists.join(","),
        gauge_entries(&snap.gauges),
        series.join(",")
    )
}

/// The nondeterministic section as one compact JSON object (no trailing
/// newline): span wall-clock aggregates, per-worker busy stats and
/// scheduling counters. Never diffed — wall clock and scheduling shape
/// vary run to run and with pool width.
pub fn nondeterministic_json(snap: &Snapshot) -> String {
    let spans: Vec<String> = snap
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"total_ms\":{},\"max_ms\":{}}}",
                escape(s.name),
                s.count,
                ms(s.total_ns),
                ms(s.max_ns)
            )
        })
        .collect();
    let workers: Vec<String> = snap
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"pool\":\"{}\",\"worker\":{},\"runs\":{},\"jobs\":{},\"busy_ms\":{}}}",
                escape(w.pool),
                w.worker,
                w.runs,
                w.jobs,
                ms(w.busy_ns)
            )
        })
        .collect();
    let sched: Vec<String> = snap
        .sched
        .iter()
        .map(|(name, v)| format!("\"{}\":{v}", escape(name)))
        .collect();
    format!(
        "{{\"spans\":[{}],\"workers\":[{}],\"sched\":{{{}}},\"gauges\":{{{}}}}}",
        spans.join(","),
        workers.join(","),
        sched.join(","),
        gauge_entries(&snap.nondet_gauges)
    )
}

/// The full metrics document: both sections, explicitly labelled, with a
/// trailing newline.
pub fn full_json(snap: &Snapshot) -> String {
    format!(
        "{{\"deterministic\":{},\"nondeterministic\":{}}}\n",
        deterministic_json(snap),
        nondeterministic_json(snap)
    )
}

/// The deterministic section as a standalone document (trailing newline) —
/// what `--metrics-det-json` writes and `scripts/ci.sh` diffs across
/// `FLH_THREADS` settings.
pub fn det_document(snap: &Snapshot) -> String {
    let mut doc = deterministic_json(snap);
    doc.push('\n');
    doc
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
            "  {:<36} x{:<6} total {} ms, max {} ms",
            s.name,
            s.count,
            ms(s.total_ns),
            ms(s.max_ns)
        );
    }
    for w in &snap.workers {
        let _ = writeln!(
            out,
            "  {}[{}]: {} run(s), {} job(s), busy {} ms",
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

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
