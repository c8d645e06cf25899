//! The `serve` workload: an in-process `serve_lines` session set up the
//! way `flh serve` sets it up (recorder installed, tracing off) at pool
//! width 1, driven by one client in a closed loop — every `submit` is
//! followed by a `wait` — over a job mix generated from the workload seed.
//!
//! Per-job fixed costs dominate here: protocol parse and render, the
//! session hand-off, the cache lookup, and the test view, fault list and
//! per-style prune filter `JobEngine::run` rebuilds on every job even on a
//! cache hit. Cold jobs evict and recompile, so the cache's write path
//! runs beside its read path.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use flh_core::{DftStyle, EvalConfig};
use flh_exec::ThreadPool;
use flh_netlist::bench_io::write_bench;
use flh_obs::span;
use flh_rng::Rng;
use flh_serve::{
    fnv1a, parse_json, render_request, serve_lines, CacheStats, CircuitSource, JobEngine, JobSpec,
    Json, Request, ServeConfig,
};

use crate::layers::{self, PoolBusy, Span};
use crate::{peak_rss_mb, stats, Options, Report};

/// Pool width: per-job costs, not parallel replay, are what this workload
/// measures.
pub const WIDTH: usize = 1;

/// Pattern pairs per style of every campaign job.
const PAIRS: usize = 1024;

/// Compiled-entry capacity: exactly the pre-warmed working set (eight
/// bare, four FLH and one inline entry), so each cold circuit evicts and a
/// later warm job recompiles.
const CACHE_CAPACITY: usize = 13;

/// Job classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Campaign on a small circuit whose compiled entry is pre-warmed.
    Warm,
    /// The same with `"dft":"flh"`.
    Dft,
    /// A `kind:"eval"` job (STA and power over all four DFT styles).
    Eval,
    /// `.bench` text with a per-job comment line: a new raw key that still
    /// hits the compiled entry.
    Inline,
    /// Campaign on a large circuit: evicts and compiles.
    Cold,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::Warm,
        Class::Dft,
        Class::Eval,
        Class::Inline,
        Class::Cold,
    ];

    fn exec_metric(self) -> &'static str {
        match self {
            Class::Warm => "serve.exec.warm.p50_ms",
            Class::Dft => "serve.exec.dft.p50_ms",
            Class::Eval => "serve.exec.eval.p50_ms",
            Class::Inline => "serve.exec.inline.p50_ms",
            Class::Cold => "serve.exec.cold.p50_ms",
        }
    }
}

/// The job mix, 240 jobs: class, circuit, job count, and the job's
/// nominal latency in ms (the median `accepted` → `done` on a 2-thread
/// x86-64 host), which orders the jobs for the percentile-rank test. Shares: warm 75%, dft
/// 8.3%, eval 10%, inline 5.4%, cold 1.25%. Three bands keep each reported
/// percentile inside one class: the p50 rank lands among the warm jobs on
/// the four mid-size circuits, the p95 rank among the eval jobs, which sit
/// between every warm job and the cold ones.
pub const MIX: &[(Class, &str, usize, f64)] = &[
    (Class::Warm, "s298", 8, 0.98),
    (Class::Warm, "s344", 8, 1.34),
    (Class::Warm, "s420", 8, 2.42),
    (Class::Warm, "s526", 8, 1.72),
    (Class::Warm, "s641", 37, 5.05),
    (Class::Warm, "s838", 37, 6.62),
    (Class::Warm, "s1196", 37, 8.66),
    (Class::Warm, "s1423", 37, 7.43),
    (Class::Dft, "s298", 5, 0.97),
    (Class::Dft, "s344", 5, 1.22),
    (Class::Dft, "s420", 5, 2.54),
    (Class::Dft, "s526", 5, 1.73),
    (Class::Eval, "s1423", 24, 28.4),
    (Class::Inline, "s298", 13, 1.61),
    (Class::Cold, "s5378", 1, 89.9),
    (Class::Cold, "s9234", 1, 254.9),
    (Class::Cold, "s13207", 1, 327.2),
];

/// One generated job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub class: Class,
    pub circuit: &'static str,
    /// Campaign seed (below 2^32, so it survives the wire's JSON numbers).
    pub seed: u64,
}

/// The job sequence for a workload seed: the fixed mix in a seeded order,
/// each campaign with its own seeded pattern stream. The cold jobs close
/// the session in mix order, so which entries they evict, and the peak
/// memory of holding all three large circuits, do not depend on the seed.
/// A pure function of `seed`.
pub fn generate(seed: u64) -> Vec<Job> {
    let mut rng = Rng::seed_from_u64(seed);
    let expand = |cold: bool| {
        MIX.iter()
            .filter(move |m| (m.0 == Class::Cold) == cold)
            .flat_map(|&(class, circuit, n, _)| {
                (0..n).map(move |_| Job {
                    class,
                    circuit,
                    seed: 0,
                })
            })
    };
    let mut jobs: Vec<Job> = expand(false).collect();
    rng.shuffle(&mut jobs);
    jobs.extend(expand(true));
    for job in &mut jobs {
        job.seed = u64::from(rng.gen::<u32>());
    }
    jobs
}

/// A compiled entry of the working set. An inline job's `.bench` text
/// parses back with its cells in another order than the generator's, so
/// its netlist is a content of its own, shared by every inline job of the
/// circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    Bare(&'static str),
    Flh(&'static str),
    Inline(&'static str),
}

impl Job {
    fn entry(&self) -> Entry {
        match self.class {
            Class::Warm | Class::Eval | Class::Cold => Entry::Bare(self.circuit),
            Class::Dft => Entry::Flh(self.circuit),
            Class::Inline => Entry::Inline(self.circuit),
        }
    }
}

/// A generated session: its jobs, the `.bench` text inline jobs carry,
/// and the protocol script (`submit` + `wait` per job, then `shutdown`).
pub struct Session {
    pub jobs: Vec<Job>,
    bench: BTreeMap<&'static str, String>,
    pub script: String,
}

impl Session {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut session = Session {
            jobs: generate(seed),
            bench: BTreeMap::new(),
            script: String::new(),
        };
        for &(class, circuit, _, _) in MIX {
            if class == Class::Inline && !session.bench.contains_key(circuit) {
                let text = write_bench(&CircuitSource::named(circuit)?.load()?);
                session.bench.insert(circuit, text);
            }
        }
        let mut script = String::new();
        for (index, job) in session.jobs.iter().enumerate() {
            script += &render_request(&Request::Submit(session.spec(job, index)?));
            script += "\n";
            script += &render_request(&Request::Wait);
            script += "\n";
        }
        script += &render_request(&Request::Shutdown);
        script += "\n";
        session.script = script;
        Ok(session)
    }

    /// The inline `.bench` spelling of `circuit`; `tag` gives every
    /// submission its own raw cache key.
    fn inline_source(&self, circuit: &'static str, tag: &str) -> Result<CircuitSource, String> {
        let text = self
            .bench
            .get(circuit)
            .ok_or_else(|| format!("no bench text for {circuit}"))?;
        Ok(CircuitSource::bench_text(
            circuit,
            format!("{text}# flowbench {tag}\n"),
        ))
    }

    fn spec(&self, job: &Job, index: usize) -> Result<JobSpec, String> {
        let campaign = |source| {
            JobSpec::campaign(source)
                .with_pairs(PAIRS)
                .with_seed(job.seed)
        };
        Ok(match job.class {
            Class::Warm | Class::Cold => campaign(CircuitSource::named(job.circuit)?),
            Class::Dft => {
                campaign(CircuitSource::named(job.circuit)?).with_dft(Some(DftStyle::Flh))
            }
            Class::Eval => JobSpec::evaluate(
                CircuitSource::named(job.circuit)?,
                vec![
                    DftStyle::PlainScan,
                    DftStyle::EnhancedScan,
                    DftStyle::MuxHold,
                    DftStyle::Flh,
                ],
                EvalConfig::paper_default(),
            ),
            Class::Inline => campaign(self.inline_source(job.circuit, &format!("job {index}"))?),
        })
    }

    /// Entries the set-up pre-warms: every entry a warm, dft, eval or
    /// inline job reads. Cold circuits stay cold.
    fn prewarm_entries(&self) -> Vec<Entry> {
        let mut entries = Vec::new();
        for job in &self.jobs {
            if job.class != Class::Cold && !entries.contains(&job.entry()) {
                entries.push(job.entry());
            }
        }
        entries.sort();
        entries
    }

    /// Cache totals a fresh engine reports after the pre-warm and the
    /// session.
    fn expected_cache(&self) -> CacheStats {
        let mut model = CacheModel::new(CACHE_CAPACITY);
        for entry in self.prewarm_entries() {
            model.lookup(entry, "prewarm");
        }
        for (index, job) in self.jobs.iter().enumerate() {
            model.lookup(job.entry(), &format!("job {index}"));
        }
        model.stats
    }

    /// Pre-warms `engine`; returns the entries' cell and instruction
    /// counts.
    fn prewarm(&self, engine: &JobEngine, traced: bool) -> Result<(usize, usize), String> {
        let (mut cells, mut insts) = (0, 0);
        for entry in self.prewarm_entries() {
            let (source, dft) = match entry {
                Entry::Bare(c) => (CircuitSource::named(c)?, None),
                Entry::Flh(c) => (CircuitSource::named(c)?, Some(DftStyle::Flh)),
                Entry::Inline(c) => (self.inline_source(c, "prewarm")?, None),
            };
            // The cache fills in one call: load, DFT, compile and lower
            // all land in this span.
            let _s = traced.then(|| span("netlist.compile"));
            let (entry, _) = engine.compiled(&source, dft)?;
            cells += entry.netlist.cell_count();
            insts += entry.program.inst_count();
        }
        Ok((cells, insts))
    }
}

/// A model of `CircuitCache`'s two LRU tables (raw request → content,
/// content × DFT style → compiled entry), keyed by names instead of
/// hashes: what the `bye` cache totals must be for a given script.
struct CacheModel {
    capacity: usize,
    tick: u64,
    sources: BTreeMap<String, u64>,
    entries: BTreeMap<Entry, u64>,
    stats: CacheStats,
}

fn oldest<K: Clone + Ord>(map: &BTreeMap<K, u64>) -> Option<K> {
    map.iter().min_by_key(|(_, &t)| t).map(|(k, _)| k.clone())
}

impl CacheModel {
    fn new(capacity: usize) -> Self {
        CacheModel {
            capacity,
            tick: 0,
            sources: BTreeMap::new(),
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// One lookup of `entry`. A profile's raw key is its name; an inline
    /// spelling's is its text, which `tag` makes unique (see
    /// [`Session::inline_source`]).
    fn lookup(&mut self, entry: Entry, tag: &str) {
        let raw = match entry {
            Entry::Bare(c) | Entry::Flh(c) => format!("profile {c}"),
            Entry::Inline(c) => format!("inline {c} {tag}"),
        };
        self.tick += 1;
        let tick = self.tick;
        if let Some(used) = self.sources.get_mut(&raw) {
            *used = tick;
            self.stats.parse_skips += 1;
        } else {
            self.sources.insert(raw, tick);
            if self.sources.len() > 4 * self.capacity {
                if let Some(key) = oldest(&self.sources) {
                    self.sources.remove(&key);
                }
            }
        }
        if let Some(used) = self.entries.get_mut(&entry) {
            *used = tick;
            self.stats.hits += 1;
            return;
        }
        self.stats.misses += 1;
        self.entries.insert(entry, tick);
        while self.entries.len() > self.capacity {
            if let Some(key) = oldest(&self.entries) {
                self.entries.remove(&key);
                self.stats.evictions += 1;
            }
        }
    }
}

/// Output sink that stamps every response line with the instant its
/// newline was written.
#[derive(Default)]
struct Stamped {
    pending: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        for chunk in buf.split_inclusive(|&b| b == b'\n') {
            match chunk.strip_suffix(b"\n") {
                Some(body) => {
                    self.pending.extend_from_slice(body);
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    self.lines.push((now, line));
                }
                None => self.pending.extend_from_slice(chunk),
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one session's transcript says.
#[derive(Default)]
struct Transcript {
    accepted: Vec<Instant>,
    started: Vec<Instant>,
    done: Vec<Instant>,
    /// `failed`, `rejected`, `cancelled` and `error` lines.
    failures: u64,
    detected: u64,
    faults: u64,
    pairs: u64,
    cache: Option<CacheStats>,
    /// FNV-1a of the whole transcript. Default transcripts carry no clock
    /// fields (`--timings` is off), so it repeats for one script.
    hash: u64,
    lines: Vec<String>,
}

fn read_transcript(lines: &[(Instant, String)]) -> Result<Transcript, String> {
    let mut out = Transcript::default();
    for (at, line) in lines {
        out.lines.push(line.clone());
        let value = parse_json(line)?;
        let obj = value.as_object().ok_or("response is not an object")?;
        let num = |o: &BTreeMap<String, Json>, key: &str| {
            o.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
        };
        if obj.contains_key("error") {
            out.failures += 1;
            continue;
        }
        match obj.get("event").and_then(Json::as_str) {
            Some("accepted") => out.accepted.push(*at),
            Some("started") => out.started.push(*at),
            Some("done") => out.done.push(*at),
            Some("failed" | "rejected" | "cancelled") => out.failures += 1,
            Some("batch") if obj.contains_key("detected") => {
                out.detected += num(obj, "detected");
                out.faults += num(obj, "faults");
                out.pairs += num(obj, "pairs");
            }
            Some("bye") => {
                let cache = obj
                    .get("cache")
                    .and_then(Json::as_object)
                    .ok_or("bye without cache totals")?;
                out.cache = Some(CacheStats {
                    hits: num(cache, "hits"),
                    misses: num(cache, "misses"),
                    evictions: num(cache, "evictions"),
                    parse_skips: num(cache, "parse_skips"),
                });
            }
            _ => {}
        }
    }
    out.hash = fnv1a(out.lines.join("\n").as_bytes());
    Ok(out)
}

/// Pre-warm repetitions per pass.
const SETUP_REPS: usize = 8;

/// One pass: fresh engines pre-warmed (the set-up), then the session on
/// the last of them.
struct Pass {
    setup_s: Vec<f64>,
    session_s: f64,
    transcript: Transcript,
}

fn run_pass(session: &Session, traced: bool) -> Result<(Pass, (usize, usize)), String> {
    // The pre-warm takes about ten milliseconds: time it on several fresh
    // engines and keep the last one for the session.
    let mut setup_s = Vec::new();
    let (mut engine, mut sizes) = (None, (0, 0));
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        // Each pass starts from an empty registry, as a fresh `flh serve`
        // process does: a `done` event's metrics list every counter name
        // the process has seen, so leftovers would change the transcript.
        flh_obs::reset();
        let fresh = Arc::new(JobEngine::new(ThreadPool::new(WIDTH), CACHE_CAPACITY));
        let t = Instant::now();
        sizes = session.prewarm(&fresh, traced)?;
        setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(fresh);
    }
    let engine = engine.expect("at least one set-up ran");
    let mut out = Stamped::default();
    let t = Instant::now();
    {
        let _s = traced.then(|| span("serve.session"));
        serve_lines(
            session.script.as_bytes(),
            &mut out,
            engine,
            ServeConfig::default(),
        )
        .map_err(|e| e.to_string())?;
    }
    let session_s = t.elapsed().as_secs_f64();
    let transcript = read_transcript(&out.lines)?;
    Ok((
        Pass {
            setup_s,
            session_s,
            transcript,
        },
        sizes,
    ))
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Output checks on one session's transcript.
fn check_pass(
    report: &mut Report,
    pass: &Transcript,
    jobs: usize,
    expected: CacheStats,
    first: &Transcript,
) {
    report.check(pass.failures == 0, || {
        format!("{} failed, rejected or error lines", pass.failures)
    });
    report.check(
        pass.accepted.len() == jobs && pass.started.len() == jobs && pass.done.len() == jobs,
        || {
            format!(
                "{jobs} jobs submitted, {} accepted, {} started, {} done",
                pass.accepted.len(),
                pass.started.len(),
                pass.done.len()
            )
        },
    );
    report.check(pass.cache == Some(expected), || {
        format!(
            "bye cache totals {:?}, the script implies {expected:?}",
            pass.cache
        )
    });
    report.check(pass.hash == first.hash, || {
        match first.lines.iter().zip(&pass.lines).position(|(a, b)| a != b) {
            Some(i) => {
                let (a, b) = (&first.lines[i], &pass.lines[i]);
                let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
                let from = a[..at].rfind(',').unwrap_or(0);
                format!(
                    "transcript changed between sessions of one script at line {i}: {:.120} vs {:.120}",
                    &a[from..],
                    &b[from..]
                )
            }
            None => format!(
                "transcript length changed between sessions of one script: {} vs {} lines",
                first.lines.len(),
                pass.lines.len()
            ),
        }
    });
}

pub fn run(opts: &Options) -> Result<Report, String> {
    // As `flh serve` does: every `done` event carries its job's metrics.
    flh_obs::install(false);
    let session = Session::new(opts.seed)?;
    let (jobs, expected) = (&session.jobs, session.expected_cache());
    if opts.trace {
        return traced(&session, expected);
    }
    let mut report = Report::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let (mut latency, mut failures) = (Vec::new(), 0);
    while passes.is_empty() || started.elapsed() < opts.seconds {
        let mut pass = run_pass(&session, false)?.0;
        let t = &pass.transcript;
        let first = passes.first().map_or(t, |p: &Pass| &p.transcript);
        check_pass(&mut report, t, jobs.len(), expected, first);
        failures += t.failures;
        let pass_lat: Vec<f64> = t.accepted.iter().zip(&t.done).map(|(&a, &d)| ms(a, d)).collect();
        if passes.is_empty() {
            eprintln!("DBGC {}", jobs.iter().map(|j| format!("{:?}/{}", j.class, j.circuit)).collect::<Vec<_>>().join(" "));
        }
        eprintln!("DBGP {:.5} {} {}", pass.session_s, pass.setup_s.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(","), pass_lat.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" "));
        latency.extend(pass_lat);
        if !passes.is_empty() {
            // Only the first transcript is compared against; later ones
            // would otherwise pile up in the peak RSS.
            pass.transcript.lines = Vec::new();
        }
        passes.push(pass);
    }
    let first = &passes[0].transcript;
    let walls: Vec<f64> = passes.iter().map(|p| p.session_s).collect();
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let t = first;
    report.attempted = (jobs.len() * passes.len()) as u64;
    report.failed = failures;
    report.set("wall_s", stats::median(&walls));
    report.set("setup_s", stats::median(&setups));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set(
        "coverage_pct",
        100.0 * t.detected as f64 / t.faults.max(1) as f64,
    );
    report.set("patterns", t.pairs as f64);
    report.set(
        "jobs_per_s",
        report.attempted as f64 / walls.iter().sum::<f64>(),
    );
    report.set("job_p50_ms", stats::median(&latency));
    report.set("job_p95_ms", stats::tail_or_median(&latency, 0.95));
    report.notes = vec![
        ("jobs", jobs.len().to_string()),
        ("sessions", passes.len().to_string()),
        ("cache", format!("{expected:?}")),
        ("transcript_hash", format!("{:016x}", first.hash)),
    ];
    Ok(report)
}

/// Index of the job whose `serve.job.exec` span contains `span`.
fn enclosing_job(exec: &[&Span], span: &Span) -> Option<usize> {
    let i = exec.partition_point(|e| e.ts <= span.ts).checked_sub(1)?;
    (span.ts + span.dur <= exec[i].ts + exec[i].dur).then_some(i)
}

fn traced(session: &Session, expected: CacheStats) -> Result<Report, String> {
    let mut report = Report::default();
    let jobs = &session.jobs;
    let (reference, _) = run_pass(session, false)?;

    flh_obs::install(true);
    let (pass, (cells, insts)) = run_pass(session, true)?;
    let after = flh_obs::snapshot();
    let wall_s = pass.setup_s.iter().sum::<f64>() + pass.session_s;
    let (path, spans) = layers::write_and_read("serve")?;
    let t = &pass.transcript;
    check_pass(&mut report, t, jobs.len(), expected, &reference.transcript);

    let exec: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "serve.job.exec")
        .collect();
    report.check(exec.len() == jobs.len(), || {
        format!(
            "{} serve.job.exec spans for {} jobs",
            exec.len(),
            jobs.len()
        )
    });
    if !report.errors.is_empty() {
        return Ok(report);
    }
    let mut lookup = Vec::new();
    let mut overhead = Vec::new();
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        lookup.push(ms(t.accepted[i], t.started[i]));
        overhead.push(ms(t.accepted[i], t.done[i]) - exec[i].dur as f64 * 1e-3);
        by_class
            .entry(job.class)
            .or_default()
            .push(ms(t.started[i], t.done[i]));
    }
    // Pool runs inside campaign jobs are fault-simulation replay; inside
    // eval jobs they are the power simulation, part of the job body.
    let (mut replay_s, mut eval_pool_s) = (0.0, 0.0);
    for run in spans.iter().filter(|s| s.name == "exec.pool.run") {
        let secs = run.self_us as f64 * 1e-6;
        match enclosing_job(&exec, run).map(|i| jobs[i].class) {
            Some(Class::Eval) => eval_pool_s += secs,
            _ => replay_s += secs,
        }
    }
    let mut busy = PoolBusy::default();
    busy.add_run(None, &after);
    let pool_self = replay_s + eval_pool_s;
    let pool_overhead = (pool_self - busy.sum_s).max(0.0);

    report.attempted = jobs.len() as u64;
    report.set("netlist.load.cells", cells as f64);
    report.set(
        "netlist.compile.time_s",
        layers::self_s(&spans, "netlist.compile"),
    );
    report.set("netlist.program.insts", insts as f64);
    layers::set_fsim(&mut report, &after, (replay_s - pool_overhead).max(0.0));
    report.set(
        "atpg.podem.backtracks",
        layers::counter(&after, "podem.backtracks") as f64,
    );
    report.set("exec.pool.time_s", pool_overhead);
    report.set(
        "exec.pool.runs",
        layers::count(&spans, "exec.pool.run") as f64,
    );
    report.set(
        "exec.pool.busy_share",
        busy.busy_share(layers::total_s(&spans, "exec.pool.run"), WIDTH),
    );
    report.set("exec.pool.imbalance", busy.imbalance());
    report.set(
        "serve.protocol.time_s",
        layers::self_s(&spans, "serve.session"),
    );
    report.set(
        "serve.engine.time_s",
        layers::self_s(&spans, "serve.job.exec") + eval_pool_s,
    );
    report.set("serve.lookup.p50_ms", stats::median(&lookup));
    let cache = t.cache.unwrap_or_default();
    report.set("serve.cache.hits", cache.hits as f64);
    report.set("serve.cache.misses", cache.misses as f64);
    report.set("serve.cache.evictions", cache.evictions as f64);
    report.set("serve.cache.parse_skips", cache.parse_skips as f64);
    for class in Class::ALL {
        let samples = by_class.get(&class).map_or(&[][..], Vec::as_slice);
        report.set(class.exec_metric(), stats::median(samples));
    }
    report.set("serve.overhead.p50_ms", stats::median(&overhead));
    report.set(
        "trace.overhead_pct",
        100.0 * (pass.session_s / reference.session_s - 1.0),
    );
    report.set(
        "trace.unattributed_pct",
        layers::unattributed_pct(&spans, wall_s),
    );
    report.notes = vec![
        ("trace_file", path.display().to_string()),
        ("traced_wall_s", format!("{wall_s:.4}")),
    ];
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(jobs: &[Job], class: Class) -> f64 {
        100.0 * jobs.iter().filter(|j| j.class == class).count() as f64 / jobs.len() as f64
    }

    #[test]
    fn generator_is_a_pure_function_of_its_seed() {
        assert_eq!(generate(11), generate(11));
        assert_ne!(generate(11), generate(12));
        assert!(generate(11).iter().all(|j| j.seed < 1 << 32));
    }

    #[test]
    fn class_shares_match_the_spec() {
        let jobs = generate(3);
        assert!(jobs.len() >= 240);
        for (class, pct) in [
            (Class::Warm, 75.0),
            (Class::Dft, 8.0),
            (Class::Eval, 10.0),
            (Class::Inline, 5.0),
        ] {
            let got = share(&jobs, class);
            assert!((got - pct).abs() <= 1.0, "{class:?}: {got:.2}% vs {pct}%");
        }
        assert!(share(&jobs, Class::Cold) <= 2.0);
        assert!(share(&jobs, Class::Cold) > 0.0);
    }

    /// With jobs ordered by nominal latency, the ranks the p50 and p95
    /// read sit inside one class with a margin of ranks on both sides, and
    /// the p95 keeps at least ten samples beyond it.
    #[test]
    fn percentile_ranks_sit_inside_one_class() {
        const MARGIN: usize = 8;
        let nominal = |job: &Job| {
            MIX.iter()
                .find(|&&(c, circuit, _, _)| c == job.class && circuit == job.circuit)
                .map(|&(_, _, _, ms)| ms)
                .expect("job comes from the mix")
        };
        for seed in [1, 2, 3] {
            let mut jobs = generate(seed);
            jobs.sort_by(|a, b| nominal(a).total_cmp(&nominal(b)));
            let n = jobs.len();
            for (p, class) in [(0.50, Class::Warm), (0.95, Class::Eval)] {
                let rank = (p * n as f64).ceil() as usize;
                for job in &jobs[rank - 1 - MARGIN..rank + MARGIN] {
                    assert_eq!(job.class, class, "p{} window at rank {rank}", p * 100.0);
                }
                if p > 0.9 {
                    assert!(n - rank >= stats::TAIL_MIN_BEYOND);
                }
            }
        }
    }

    #[test]
    fn script_parses_back_job_for_job() {
        let session = Session::new(5).unwrap();
        let jobs = &session.jobs;
        let lines: Vec<&str> = session.script.lines().collect();
        assert_eq!(lines.len(), 2 * jobs.len() + 1);
        for (job, pair) in jobs.iter().zip(lines.chunks(2)) {
            let Ok(Request::Submit(spec)) = flh_serve::parse_request(pair[0]) else {
                panic!("bad submit line {}", pair[0]);
            };
            assert_eq!(spec.dft.is_some(), job.class == Class::Dft);
            assert!(matches!(
                flh_serve::parse_request(pair[1]),
                Ok(Request::Wait)
            ));
        }
    }

    /// The model and the real cache agree step for step, including the
    /// inline spelling, which is a content of its own.
    #[test]
    fn cache_model_matches_the_circuit_cache() {
        let text = write_bench(&CircuitSource::named("s298").unwrap().load().unwrap());
        let mut cache = flh_serve::CircuitCache::new(2);
        let mut model = CacheModel::new(2);
        let steps = [
            (Entry::Bare("s298"), "a"),
            (Entry::Bare("s344"), "b"),
            (Entry::Inline("s298"), "c"),
            (Entry::Inline("s298"), "d"),
            (Entry::Flh("s298"), "e"),
            (Entry::Bare("s344"), "f"),
            (Entry::Inline("s298"), "g"),
            (Entry::Flh("s298"), "h"),
        ];
        for (entry, tag) in steps {
            let (src, dft) = match entry {
                Entry::Bare(c) => (CircuitSource::named(c).unwrap(), None),
                Entry::Flh(c) => (CircuitSource::named(c).unwrap(), Some(DftStyle::Flh)),
                Entry::Inline(c) => (
                    CircuitSource::bench_text(c, format!("{text}# {tag}\n")),
                    None,
                ),
            };
            cache.get_or_compile(&src, dft).unwrap();
            model.lookup(entry, tag);
            assert_eq!(cache.stats(), model.stats, "after {entry:?} {tag}");
        }
    }
}
