//! The traced pass's per-layer split. Spans — the benchmark's own, opened
//! around public calls, plus the program's `serve.job.exec` and
//! `exec.pool.run` — are written with `flh_obs::write_trace`, read back
//! and reduced to self time per span name. Pool worker busy time comes
//! from the flh-obs worker stats.

use std::path::PathBuf;

use flh_obs::Snapshot;
use flh_serve::{parse_json, Json};

use crate::Report;

/// Directory, relative to the checkout root, that traced runs write their
/// Chrome trace files into.
pub const TRACE_DIR: &str = "flowbench/out";

/// One completed span from the trace file, in microseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub ts: u64,
    pub dur: u64,
    /// `dur` minus the spans nested directly inside this one.
    pub self_us: u64,
}

/// Writes the recorder's trace buffer to `TRACE_DIR/trace-<workload>.json`
/// and reads it back with self times filled in.
pub fn write_and_read(workload: &str) -> Result<(PathBuf, Vec<Span>), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = PathBuf::from(TRACE_DIR).join(format!("trace-{workload}.json"));
    flh_obs::write_trace(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, with_self_times(parse(&text)?)))
}

fn parse(text: &str) -> Result<Vec<Span>, String> {
    let doc = parse_json(text.trim())?;
    let Some(Json::Array(events)) = doc.as_object().and_then(|o| o.get("traceEvents")) else {
        return Err("trace file has no traceEvents array".into());
    };
    events
        .iter()
        .map(|event| {
            let obj = event.as_object().ok_or("trace event is not an object")?;
            let num = |key: &str| -> Result<u64, String> {
                obj.get(key)
                    .and_then(Json::as_f64)
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("trace event without {key}"))
            };
            Ok(Span {
                name: obj
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("trace event without name")?
                    .to_string(),
                ts: num("ts")?,
                dur: num("dur")?,
                self_us: 0,
            })
        })
        .collect()
}

/// Fills in self times. Nesting is interval containment on one timeline
/// across threads: the benchmark opens no spans inside pool workers, and
/// a serve session's executor spans run while the protocol thread's
/// session span waits for them, so containment is causal nesting.
pub fn with_self_times(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));
    let mut children = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (ts, end) = (spans[i].ts, spans[i].ts + spans[i].dur);
        while let Some(&top) = stack.last() {
            if ts >= spans[top].ts && end <= spans[top].ts + spans[top].dur {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            children[top] += spans[i].dur;
        }
        stack.push(i);
    }
    for (span, child) in spans.iter_mut().zip(children) {
        span.self_us = span.dur.saturating_sub(child);
    }
    spans
}

/// Summed self time of every span called `name`, in seconds.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.self_us)
        .sum::<u64>() as f64
        * 1e-6
}

/// Summed duration of every span called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur)
        .sum::<u64>() as f64
        * 1e-6
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Share of `wall_s` not covered by the self time of any span, in percent.
pub fn unattributed_pct(spans: &[Span], wall_s: f64) -> f64 {
    let attributed = spans.iter().map(|s| s.self_us).sum::<u64>() as f64 * 1e-6;
    100.0 * (wall_s - attributed).max(0.0) / wall_s
}

/// A deterministic counter's value in `snap`.
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|&&(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// `exec.pool` worker busy time accumulated over pool runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolBusy {
    /// Sum over runs of the busiest worker's time: the run's critical path.
    pub max_s: f64,
    /// Sum over runs and workers of busy time.
    pub sum_s: f64,
    /// Sum over runs of the mean busy time of the workers that ran.
    pub mean_s: f64,
}

impl PoolBusy {
    /// Adds the worker busy time recorded between two snapshots (or since
    /// the last reset, without `before`), taken as one pool run.
    pub fn add_run(&mut self, before: Option<&Snapshot>, after: &Snapshot) {
        let busy: Vec<f64> = after
            .workers
            .iter()
            .filter(|w| w.pool == "exec.pool")
            .map(|w| {
                let earlier = before
                    .and_then(|b| {
                        b.workers
                            .iter()
                            .find(|b| b.pool == w.pool && b.worker == w.worker)
                    })
                    .map_or(0, |b| b.busy_ns);
                w.busy_ns.saturating_sub(earlier) as f64 * 1e-9
            })
            .filter(|&s| s > 0.0)
            .collect();
        if busy.is_empty() {
            return;
        }
        let sum: f64 = busy.iter().sum();
        self.max_s += busy.iter().copied().fold(0.0, f64::max);
        self.sum_s += sum;
        self.mean_s += sum / busy.len() as f64;
    }

    /// Share of the pool's worker capacity spent busy over `pool_wall_s`
    /// of `exec.pool.run` time at `width` workers.
    pub fn busy_share(&self, pool_wall_s: f64, width: usize) -> f64 {
        if pool_wall_s > 0.0 {
            self.sum_s / (pool_wall_s * width as f64)
        } else {
            0.0
        }
    }

    /// How far the mean worker falls short of the busiest one (0 when
    /// every worker is equally loaded).
    pub fn imbalance(&self) -> f64 {
        if self.max_s > 0.0 {
            1.0 - self.mean_s / self.max_s
        } else {
            0.0
        }
    }
}

/// Fault-simulation metrics from the replay counters and the layer time.
pub fn set_fsim(report: &mut Report, snap: &Snapshot, fsim_s: f64) {
    let value = |name| counter(snap, name) as f64;
    let calls = value("replay.calls");
    let events = value("replay.events");
    report.set("atpg.fsim.time_s", fsim_s);
    report.set("atpg.fsim.replay_calls", calls);
    report.set("atpg.fsim.replay_events", events);
    report.set("atpg.fsim.early_exits", value("replay.early_exits"));
    report.set(
        "atpg.fsim.ns_per_event",
        if events > 0.0 {
            fsim_s * 1e9 / events
        } else {
            0.0
        },
    );
    report.set(
        "atpg.fsim.detect_ratio",
        if calls > 0.0 {
            value("fsim.transition.detections") / calls
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: u64, dur: u64) -> Span {
        Span {
            name: name.into(),
            ts,
            dur,
            self_us: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = with_self_times(vec![
            span("inner", 20, 10),
            span("outer", 0, 100),
            span("mid", 10, 50),
            span("after", 100, 5),
        ]);
        let self_us = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.self_us);
        assert_eq!(self_us("outer"), Some(50));
        assert_eq!(self_us("mid"), Some(40));
        assert_eq!(self_us("inner"), Some(10));
        assert_eq!(self_us("after"), Some(5));
        assert!((unattributed_pct(&spans, 110e-6) - 100.0 * 5.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn trace_text_round_trips() {
        let text = "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"flh\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":7,\"args\":{\"depth\":0}}],\"displayTimeUnit\":\"ms\"}\n";
        assert_eq!(parse(text).unwrap(), vec![span("a", 5, 7)]);
        assert!(parse("{}").is_err());
    }
}
