//! The metric registry: fixed deterministic counters and histograms in
//! sharded relaxed-atomic banks, plus cold named/sched counters and
//! per-worker stats behind mutexes.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration; // time-ok: import only; durations stay in the nondet section

use crate::enabled;

/// Fixed deterministic counters. Every entry is a quantity that depends
/// only on the computation's inputs — per-fault replay work, detections,
/// drops, search backtracks, packed kernel work, lint findings — never on
/// pool width or scheduling (see the crate-level determinism contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Deviation replays performed: one per stuck-at fault × batch, and one
    /// per requested transition stem × batch (stem-region simulation).
    ReplayCalls,
    /// Cells evaluated from the replay's level buckets.
    ReplayEvents,
    /// Readers skipped because the generation stamp says they are already
    /// queued in this replay.
    ReplayDedupHits,
    /// Replays aborted on the first active-lane miscompare.
    ReplayEarlyExits,
    /// Writes recorded in (and reverted from) the undo log.
    ReplayUndoWrites,
    /// Pattern-lane evaluations performed by replay (bucket-cell
    /// evaluations × the engine's lane width) — the width-normalized work
    /// measure that stays comparable between the 64-lane and 256-lane
    /// engines.
    ReplayLaneEvals,
    /// Replays executed at superword width (more than 64 pattern lanes
    /// per word).
    ReplaySuperwordCalls,
    /// Stuck-at faults skipped in a batch because no lane activates them.
    StuckActivationSkips,
    /// Stuck-at faults newly detected.
    StuckDetections,
    /// Transition faults skipped in a batch because no lane launches them.
    TransitionActivationSkips,
    /// Transition faults newly detected.
    TransitionDetections,
    /// Reader evaluations spent on stem-region sensitization words (a
    /// region-internal line's flip traced one reader up its chain).
    TransitionRegionEvals,
    /// Activated transition faults whose flip never reaches their
    /// region's stem in the block, so they ask for no replay.
    TransitionRegionMasked,
    /// PODEM decision backtracks.
    PodemBacktracks,
    /// PODEM decisions: assignments a backtrace pushed on the decision
    /// stack (a backtrack's flip of an earlier decision is not one).
    PodemDecisions,
    /// PODEM searches ended by the backtrack budget rather than by an
    /// exhausted decision tree.
    PodemAborts,
    /// Cells evaluated by `CompiledSim::settle` (scalar three-valued).
    SimCellEvals,
    /// Bytecode instructions executed by the compiled-program engines
    /// (scalar, packed and superword settles, fault-free good machines).
    SimBytecodeInsts,
    /// Micro-ops eliminated by bytecode fusion, recorded when a circuit is
    /// lowered (`Program::lower`).
    CodegenFusedOps,
    /// Lint diagnostics produced across all passes.
    LintFindings,
    /// Individual assertions evaluated by the bytecode verifier pass.
    LintVerifierChecks,
    /// Faults classified statically untestable by the testability pass.
    LintStaticUntestable,
}

impl Counter {
    /// Every counter, in the fixed report order.
    pub const ALL: [Counter; 22] = [
        Counter::ReplayCalls,
        Counter::ReplayEvents,
        Counter::ReplayDedupHits,
        Counter::ReplayEarlyExits,
        Counter::ReplayUndoWrites,
        Counter::ReplayLaneEvals,
        Counter::ReplaySuperwordCalls,
        Counter::StuckActivationSkips,
        Counter::StuckDetections,
        Counter::TransitionActivationSkips,
        Counter::TransitionDetections,
        Counter::TransitionRegionEvals,
        Counter::TransitionRegionMasked,
        Counter::PodemBacktracks,
        Counter::PodemDecisions,
        Counter::PodemAborts,
        Counter::SimCellEvals,
        Counter::SimBytecodeInsts,
        Counter::CodegenFusedOps,
        Counter::LintFindings,
        Counter::LintVerifierChecks,
        Counter::LintStaticUntestable,
    ];

    /// Stable dotted report key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ReplayCalls => "replay.calls",
            Counter::ReplayEvents => "replay.events",
            Counter::ReplayDedupHits => "replay.dedup_hits",
            Counter::ReplayEarlyExits => "replay.early_exits",
            Counter::ReplayUndoWrites => "replay.undo_writes",
            Counter::ReplayLaneEvals => "replay.lane_evals",
            Counter::ReplaySuperwordCalls => "replay.superword_calls",
            Counter::StuckActivationSkips => "fsim.stuck.activation_skips",
            Counter::StuckDetections => "fsim.stuck.detections",
            Counter::TransitionActivationSkips => "fsim.transition.activation_skips",
            Counter::TransitionDetections => "fsim.transition.detections",
            Counter::TransitionRegionEvals => "fsim.transition.region_evals",
            Counter::TransitionRegionMasked => "fsim.transition.region_masked",
            Counter::PodemBacktracks => "podem.backtracks",
            Counter::PodemDecisions => "podem.decisions",
            Counter::PodemAborts => "podem.aborts",
            Counter::SimCellEvals => "sim.cell_evals",
            Counter::SimBytecodeInsts => "sim.bytecode_insts",
            Counter::CodegenFusedOps => "codegen.fused_ops",
            Counter::LintFindings => "lint.findings",
            Counter::LintVerifierChecks => "lint.verifier_checks",
            Counter::LintStaticUntestable => "lint.static_untestable",
        }
    }
}

/// Fixed deterministic histograms (log2 buckets, see [`HIST_BUCKETS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Undo-log depth at the end of each replay.
    ReplayUndoDepth,
    /// Bucket-cell evaluations per replay call.
    ReplayEventsPerCall,
    /// Pattern-lane width of each replay call (64 for the word engine,
    /// 256 for the superword engine) — the mix shows which engine served
    /// a campaign without depending on pool width.
    ReplayLanesPerCall,
    /// Bytecode instructions executed per service job — the deterministic
    /// "latency" of a job in units of simulator work, recorded by the
    /// job engine from each job's metrics delta.
    ServeJobBytecodeInsts,
    /// Replay bucket-cell events per service job (the fault-simulation
    /// side of the per-job cost ledger).
    ServeJobReplayEvents,
}

impl Hist {
    /// Every histogram, in the fixed report order.
    pub const ALL: [Hist; 5] = [
        Hist::ReplayUndoDepth,
        Hist::ReplayEventsPerCall,
        Hist::ReplayLanesPerCall,
        Hist::ServeJobBytecodeInsts,
        Hist::ServeJobReplayEvents,
    ];

    /// Stable dotted report key.
    pub fn name(self) -> &'static str {
        match self {
            Hist::ReplayUndoDepth => "replay.undo_depth",
            Hist::ReplayEventsPerCall => "replay.events_per_call",
            Hist::ReplayLanesPerCall => "replay.lanes_per_call",
            Hist::ServeJobBytecodeInsts => "serve.job.bytecode_insts",
            Hist::ServeJobReplayEvents => "serve.job.replay_events",
        }
    }
}

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`; bucket 64 catches the top of the u64
/// range.
pub const HIST_BUCKETS: usize = 65;

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_HISTS: usize = Hist::ALL.len();
/// Shard-bank count. Workers bind to `1 + index % (NUM_SHARDS - 1)`
/// ([`bind_worker_shard`]); unbound threads (the main thread, serial
/// paths) use shard 0. Collisions only cost contention — sums are
/// commutative, so totals never depend on the binding.
const NUM_SHARDS: usize = 32;

struct ShardBank {
    counters: [AtomicU64; NUM_COUNTERS],
    hist_buckets: [[AtomicU64; HIST_BUCKETS]; NUM_HISTS],
    hist_totals: [AtomicU64; NUM_HISTS],
}

impl ShardBank {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const ROW: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];
        ShardBank {
            counters: [ZERO; NUM_COUNTERS],
            hist_buckets: [ROW; NUM_HISTS],
            hist_totals: [ZERO; NUM_HISTS],
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_BANK: ShardBank = ShardBank::new();
static BANKS: [ShardBank; NUM_SHARDS] = [EMPTY_BANK; NUM_SHARDS];

static NAMED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static SCHED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, i64>> = Mutex::new(BTreeMap::new());
static NONDET_GAUGES: Mutex<BTreeMap<String, i64>> = Mutex::new(BTreeMap::new());
static SERIES: Mutex<BTreeMap<String, VecDeque<(u64, i64)>>> = Mutex::new(BTreeMap::new());
#[allow(clippy::type_complexity)]
static WORKERS: Mutex<BTreeMap<(&'static str, usize), WorkerAgg>> = Mutex::new(BTreeMap::new());

#[derive(Clone, Copy, Default)]
struct WorkerAgg {
    runs: u64,
    jobs: u64,
    busy_ns: u64,
}

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(0) };
}

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    // A poisoned metrics mutex must never take the workload down with it.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Binds the calling thread to a counter shard. `ThreadPool::run` calls
/// this with the worker index so concurrent workers do not contend on one
/// cache line; correctness never depends on it.
pub fn bind_worker_shard(worker: usize) {
    SHARD.with(|s| s.set(1 + worker % (NUM_SHARDS - 1)));
}

#[inline]
fn shard() -> usize {
    SHARD.with(|s| s.get())
}

/// Adds `n` to a deterministic counter. No-op unless a recorder is
/// installed (instrumented hot loops additionally gate their whole flush
/// on [`enabled`] so arguments are not even computed).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    BANKS[shard()].counters[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Bucket index of a value: 0 for 0, otherwise its bit length.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Records one observation into a deterministic histogram.
#[inline]
pub fn record(hist: Hist, value: u64) {
    if !enabled() {
        return;
    }
    let bank = &BANKS[shard()];
    bank.hist_buckets[hist as usize][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    bank.hist_totals[hist as usize].fetch_add(value, Ordering::Relaxed);
}

/// Adds `n` to a dynamically named deterministic counter (cold paths with
/// an open key set — per-pass lint findings). Zero adds still create the
/// key, keeping the report schema stable across runs.
pub fn named_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut named = lock(&NAMED);
    match named.get_mut(name) {
        Some(slot) => *slot += n,
        None => {
            named.insert(name.to_string(), n);
        }
    }
}

/// Adds `n` to a scheduling counter — partition shapes, shard counts,
/// anything that legitimately varies with pool width. Reported only in the
/// nondeterministic section.
pub fn sched_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut sched = lock(&SCHED);
    match sched.get_mut(name) {
        Some(slot) => *slot += n,
        None => {
            sched.insert(name.to_string(), n);
        }
    }
}

/// A gauge update: the three level semantics a gauge supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GaugeOp {
    Set,
    Add,
    Max,
}

fn gauge_apply(bank: &'static Mutex<BTreeMap<String, i64>>, name: &str, op: GaugeOp, value: i64) {
    if !enabled() {
        return;
    }
    let mut gauges = lock(bank);
    match gauges.get_mut(name) {
        Some(slot) => match op {
            GaugeOp::Set => *slot = value,
            GaugeOp::Add => *slot += value,
            GaugeOp::Max => *slot = (*slot).max(value),
        },
        None => {
            gauges.insert(name.to_string(), value);
        }
    }
}

/// Sets a **deterministic** gauge to a level. Only quantities that are a
/// pure function of the computation's inputs may use this bank — the
/// service publishes its logical ledger here (queue depth at a protocol
/// step, cache hit ratio), never anything sampled off a running thread.
pub fn gauge_set(name: &str, value: i64) {
    gauge_apply(&GAUGES, name, GaugeOp::Set, value);
}

/// Adds a delta to a deterministic gauge (creates it at `value`).
pub fn gauge_add(name: &str, value: i64) {
    gauge_apply(&GAUGES, name, GaugeOp::Add, value);
}

/// Raises a deterministic gauge to at least `value` (high-watermark).
pub fn gauge_max(name: &str, value: i64) {
    gauge_apply(&GAUGES, name, GaugeOp::Max, value);
}

/// Sets a **nondeterministic** gauge — levels sampled from live execution
/// state (a queue observed mid-flight, a thread's instantaneous depth).
/// Reported only in the nondeterministic section, never diffed.
pub fn nondet_gauge_set(name: &str, value: i64) {
    gauge_apply(&NONDET_GAUGES, name, GaugeOp::Set, value);
}

/// Adds a delta to a nondeterministic gauge.
pub fn nondet_gauge_add(name: &str, value: i64) {
    gauge_apply(&NONDET_GAUGES, name, GaugeOp::Add, value);
}

/// Raises a nondeterministic gauge to at least `value`.
pub fn nondet_gauge_max(name: &str, value: i64) {
    gauge_apply(&NONDET_GAUGES, name, GaugeOp::Max, value);
}

/// Points kept per time series — a fixed window so a long campaign's
/// telemetry stays bounded and a snapshot is O(1) per series.
pub const SERIES_CAPACITY: usize = 64;

/// Appends one `(tick, value)` point to a windowed time series, evicting
/// the oldest point once the window is full. Ticks are **logical** —
/// supplied by the caller from its own monotonic sequence (batch index,
/// protocol step), never a clock — so a deterministic replay produces a
/// byte-identical series at any pool width.
pub fn series_record(name: &str, tick: u64, value: i64) {
    if !enabled() {
        return;
    }
    let mut series = lock(&SERIES);
    let ring = series.entry(name.to_string()).or_default();
    if ring.len() == SERIES_CAPACITY {
        ring.pop_front();
    }
    ring.push_back((tick, value));
}

/// Records one worker's busy time and claimed-job count for a pool run.
/// Wall clock: nondeterministic section only.
pub fn worker_busy(pool: &'static str, worker: usize, busy: Duration, jobs: u64) {
    if !enabled() {
        return;
    }
    let mut workers = lock(&WORKERS);
    let agg = workers.entry((pool, worker)).or_default();
    agg.runs += 1;
    agg.jobs += jobs;
    agg.busy_ns += busy.as_nanos() as u64;
}

pub(crate) fn reset_storage() {
    for bank in &BANKS {
        for c in &bank.counters {
            c.store(0, Ordering::Relaxed);
        }
        for row in &bank.hist_buckets {
            for b in row {
                b.store(0, Ordering::Relaxed);
            }
        }
        for t in &bank.hist_totals {
            t.store(0, Ordering::Relaxed);
        }
    }
    lock(&NAMED).clear();
    lock(&SCHED).clear();
    lock(&WORKERS).clear();
    lock(&GAUGES).clear();
    lock(&NONDET_GAUGES).clear();
    lock(&SERIES).clear();
}

/// One histogram in a [`Snapshot`]: observation count, value sum and the
/// occupied log2 buckets as `(bucket index, count)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub total: u64,
    pub buckets: Vec<(u32, u64)>,
}

/// One windowed time series in a [`Snapshot`]: the retained `(tick,
/// value)` points, oldest first. `capacity` is the window size
/// ([`SERIES_CAPACITY`]), so a reader can tell a short series from a
/// saturated window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    pub name: String,
    pub capacity: usize,
    pub points: Vec<(u64, i64)>,
}

/// One span aggregate in a [`Snapshot`] (nondeterministic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// One worker's aggregate in a [`Snapshot`] (nondeterministic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerSnapshot {
    pub pool: &'static str,
    pub worker: usize,
    pub runs: u64,
    pub jobs: u64,
    pub busy_ns: u64,
}

/// A point-in-time copy of every metric, deterministic and not.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Fixed counters in [`Counter::ALL`] order (zeros included — the
    /// schema never shrinks).
    pub counters: Vec<(&'static str, u64)>,
    /// Named counters in key order.
    pub named_counters: Vec<(String, u64)>,
    /// Fixed histograms in [`Hist::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Deterministic gauges in key order (logical levels — queue depth at
    /// a protocol step, cache hit ratio in basis points).
    pub gauges: Vec<(String, i64)>,
    /// Windowed time series in key order (deterministic: logical ticks).
    pub series: Vec<SeriesSnapshot>,
    /// Nondeterministic gauges in key order (levels sampled from live
    /// execution state).
    pub nondet_gauges: Vec<(String, i64)>,
    /// Span aggregates in name order (nondeterministic).
    pub spans: Vec<SpanSnapshot>,
    /// Worker stats in (pool, worker) order (nondeterministic).
    pub workers: Vec<WorkerSnapshot>,
    /// Scheduling counters in key order (nondeterministic).
    pub sched: Vec<(String, u64)>,
}

impl Snapshot {
    /// Deterministic delta `self − earlier`: the metric growth between two
    /// snapshots of one process, the scoping primitive behind per-job
    /// metrics documents (`flh-serve` takes a snapshot around each job and
    /// renders `det_document` of the delta).
    ///
    /// Only the deterministic monotonic sections are subtracted — fixed
    /// counters, named counters and histograms. Gauges are *levels*, not
    /// interval growth, and another thread may republish a level while
    /// this scope runs (the serve protocol thread updates the queue-depth
    /// gauge at each retire while the executor snapshots around a job),
    /// so deltas drop them — levels belong to full snapshots, where the
    /// publisher and the reader are the same thread. Series are windows,
    /// not monotonic accumulators, and come back empty. Spans, worker
    /// stats, scheduling counters and nondeterministic gauges are
    /// wall-clock/scheduling shape and come back empty, so a delta
    /// snapshot renders cleanly through `det_document` and never leaks
    /// nondeterminism into a diffable document. All deterministic
    /// counters/histograms are monotonic within a process, so saturating
    /// subtraction only guards against misuse (swapped arguments).
    pub fn det_delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, after)| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0, |&(_, v)| v);
                (name, after.saturating_sub(before))
            })
            .collect();
        let named_counters = self
            .named_counters
            .iter()
            .map(|(name, after)| {
                let before = earlier
                    .named_counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |&(_, v)| v);
                (name.clone(), after.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|after| {
                let before = earlier.histograms.iter().find(|h| h.name == after.name);
                let mut buckets = Vec::new();
                for &(bucket, n) in &after.buckets {
                    let prior = before
                        .and_then(|h| h.buckets.iter().find(|&&(b, _)| b == bucket))
                        .map_or(0, |&(_, n)| n);
                    let delta = n.saturating_sub(prior);
                    if delta > 0 {
                        buckets.push((bucket, delta));
                    }
                }
                HistogramSnapshot {
                    name: after.name,
                    count: after.count.saturating_sub(before.map_or(0, |h| h.count)),
                    total: after.total.saturating_sub(before.map_or(0, |h| h.total)),
                    buckets,
                }
            })
            .collect();
        Snapshot {
            counters,
            named_counters,
            histograms,
            gauges: Vec::new(),
            series: Vec::new(),
            nondet_gauges: Vec::new(),
            spans: Vec::new(),
            workers: Vec::new(),
            sched: Vec::new(),
        }
    }
}

/// Takes a snapshot, merging the counter banks **in shard-index order**.
/// The merge is a commutative sum, so the totals are independent of how
/// threads were bound to shards; deterministic counters are therefore
/// byte-identical across pool widths once rendered.
pub fn snapshot() -> Snapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| {
            let total: u64 = BANKS
                .iter()
                .map(|b| b.counters[c as usize].load(Ordering::Relaxed))
                .sum();
            (c.name(), total)
        })
        .collect();
    let histograms = Hist::ALL
        .iter()
        .map(|&h| {
            let mut buckets = Vec::new();
            let mut count = 0u64;
            for bucket in 0..HIST_BUCKETS {
                let n: u64 = BANKS
                    .iter()
                    .map(|b| b.hist_buckets[h as usize][bucket].load(Ordering::Relaxed))
                    .sum();
                if n > 0 {
                    buckets.push((bucket as u32, n));
                    count += n;
                }
            }
            let total: u64 = BANKS
                .iter()
                .map(|b| b.hist_totals[h as usize].load(Ordering::Relaxed))
                .sum();
            HistogramSnapshot {
                name: h.name(),
                count,
                total,
                buckets,
            }
        })
        .collect();
    let named_counters = lock(&NAMED).iter().map(|(k, &v)| (k.clone(), v)).collect();
    let sched = lock(&SCHED).iter().map(|(k, &v)| (k.clone(), v)).collect();
    let gauges = lock(&GAUGES).iter().map(|(k, &v)| (k.clone(), v)).collect();
    let nondet_gauges = lock(&NONDET_GAUGES)
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    let series = lock(&SERIES)
        .iter()
        .map(|(k, ring)| SeriesSnapshot {
            name: k.clone(),
            capacity: SERIES_CAPACITY,
            points: ring.iter().copied().collect(),
        })
        .collect();
    let workers = lock(&WORKERS)
        .iter()
        .map(|(&(pool, worker), agg)| WorkerSnapshot {
            pool,
            worker,
            runs: agg.runs,
            jobs: agg.jobs,
            busy_ns: agg.busy_ns,
        })
        .collect();
    Snapshot {
        counters,
        named_counters,
        histograms,
        gauges,
        series,
        nondet_gauges,
        spans: crate::span::span_snapshots(),
        workers,
        sched,
    }
}
