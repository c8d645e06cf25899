//! The `campaign` workload: `flh campaign` on s9234 and s13207, all three
//! application styles, 32768 pattern pairs per style, at pool width 2.
//!
//! Each circuit gets a fresh `JobEngine`, so its cache starts cold the way
//! each CLI invocation does. Set-up is `JobEngine::compiled` (generate,
//! compile, lower); the timed part is `JobEngine::run`. Deviation replay
//! over the bytecode and the `exec` pool do nearly all the work and PODEM
//! none, so this workload moves with fault simulation and pool changes.

use std::sync::Arc;
use std::time::Instant;

use flh_atpg::transition::enumerate_transition_faults;
use flh_atpg::{transition_campaign_filtered, StaticFilter, TestView};
use flh_exec::ThreadPool;
use flh_netlist::{CompiledCircuit, Program};
use flh_obs::span;
use flh_serve::{
    BatchPayload, CircuitSource, JobEngine, JobId, JobOutcome, JobSpec, ALL_APPLICATION_STYLES,
    DEFAULT_CACHE_CAPACITY,
};

use crate::layers::{self, PoolBusy};
use crate::{peak_rss_mb, stats, Options, Report};

/// Pool width: both hardware threads of the 2-thread host the benchmark
/// was sized on, where it is also what `flh campaign` picks by default.
pub const WIDTH: usize = 2;

const CIRCUITS: [&str; 2] = ["s9234", "s13207"];

/// Pairs per style: sized for a pass of about a second and a half.
const PAIRS: usize = 32768;

/// `(detected, faults)` of every circuit × style cell, in order.
type Cells = Vec<(usize, usize)>;

fn cells_of(outcome: &JobOutcome) -> Cells {
    outcome
        .batches
        .iter()
        .filter_map(|b| match b {
            BatchPayload::Campaign(r) => Some((r.detected, r.total_faults)),
            BatchPayload::Evaluation(_) => None,
        })
        .collect()
}

fn spec(source: CircuitSource, seed: u64) -> JobSpec {
    JobSpec::campaign(source).with_pairs(PAIRS).with_seed(seed)
}

/// One pass over both circuits.
struct Pass {
    setup_s: f64,
    /// `JobEngine::run` wall time per circuit.
    job_s: Vec<f64>,
    cells: Cells,
}

fn pass(width: usize, seed: u64) -> Result<Pass, String> {
    let mut out = Pass {
        setup_s: 0.0,
        job_s: Vec::new(),
        cells: Vec::new(),
    };
    for name in CIRCUITS {
        let source = CircuitSource::named(name)?;
        let engine = JobEngine::new(ThreadPool::new(width), DEFAULT_CACHE_CAPACITY);
        let t = Instant::now();
        engine.compiled(&source, None)?;
        out.setup_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let outcome = engine.run(JobId(1), &spec(source, seed), &mut |_| {})?;
        out.job_s.push(t.elapsed().as_secs_f64());
        if !outcome.cache.hit {
            return Err(format!(
                "{name}: the timed run missed the pre-compiled entry"
            ));
        }
        out.cells.extend(cells_of(&outcome));
    }
    Ok(out)
}

fn coverage_pct(cells: &Cells) -> f64 {
    let (detected, faults) = cells
        .iter()
        .fold((0, 0), |(d, f), &(cd, cf)| (d + cd, f + cf));
    100.0 * detected as f64 / faults.max(1) as f64
}

pub fn run(opts: &Options) -> Result<Report, String> {
    if opts.trace {
        return traced(opts);
    }
    let mut report = Report::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed() < opts.seconds {
        passes.push(pass(WIDTH, opts.seed)?);
    }
    let cells = passes[0].cells.clone();
    report.check(passes.iter().all(|p| p.cells == cells), || {
        "per-cell detected counts changed between passes of one seed".into()
    });
    // Once, outside the timed part: results must not depend on pool width.
    let serial = pass(1, opts.seed)?;
    report.check(serial.cells == cells, || {
        format!(
            "per-cell detected counts differ between widths 1 and {WIDTH}: {:?} vs {cells:?}",
            serial.cells
        )
    });

    let walls: Vec<f64> = passes.iter().map(|p| p.job_s.iter().sum()).collect();
    let jobs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_s.iter().map(|s| s * 1e3))
        .collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    report.attempted = jobs.len() as u64;
    report.set("wall_s", stats::median(&walls));
    report.set("setup_s", stats::median(&setups));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("coverage_pct", coverage_pct(&cells));
    report.set("patterns", (PAIRS * cells.len()) as f64);
    report.set("jobs_per_s", jobs.len() as f64 / walls.iter().sum::<f64>());
    report.set("job_p50_ms", stats::median(&jobs));
    report.set("job_p95_ms", stats::tail_or_median(&jobs, 0.95));
    report.notes = vec![
        ("circuits", CIRCUITS.join(",")),
        ("passes", passes.len().to_string()),
        ("cells", format!("{cells:?}")),
    ];
    Ok(report)
}

/// The traced pass re-drives set-up and `JobEngine::run`'s campaign body
/// from public parts, with a span around each call, and must reproduce the
/// untraced engine's per-cell results.
fn traced(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let reference = pass(WIDTH, opts.seed)?;
    let untraced_s: f64 = reference.job_s.iter().sum();

    flh_obs::install(true);
    flh_obs::reset();
    let pool = ThreadPool::new(WIDTH);
    let mut busy = PoolBusy::default();
    let mut cells = Vec::new();
    let (mut load_cells, mut insts, mut pruned) = (0usize, 0usize, 0usize);
    let mut traced_s = 0.0;
    let t_all = Instant::now();
    for name in CIRCUITS {
        let source = CircuitSource::named(name)?;
        let netlist = {
            let _s = span("netlist.load");
            source.load()?
        };
        let (compiled, program) = {
            let _s = span("netlist.compile");
            let compiled = CompiledCircuit::compile_shared(&netlist).map_err(|e| e.to_string())?;
            let program = Program::lower_shared(&compiled);
            (compiled, program)
        };
        load_cells += netlist.cell_count();
        insts += program.inst_count();
        let t_timed = Instant::now();
        let (view, faults) = {
            let _s = span("atpg.view");
            let view =
                TestView::with_program(&netlist, Arc::clone(&compiled), Arc::clone(&program))
                    .map_err(|e| e.to_string())?;
            (view, enumerate_transition_faults(&netlist))
        };
        for (i, &style) in ALL_APPLICATION_STYLES.iter().enumerate() {
            let filter = {
                let _s = span("atpg.prune");
                StaticFilter::from_view(&view)
            };
            if i == 0 {
                pruned += faults
                    .iter()
                    .filter(|f| filter.transition_untestable(f))
                    .count();
            }
            let before = flh_obs::snapshot();
            let result = {
                let _s = span("atpg.fsim");
                transition_campaign_filtered(
                    &view,
                    &faults,
                    style,
                    PAIRS,
                    opts.seed,
                    &pool,
                    Some(&filter),
                )
            };
            let after = flh_obs::snapshot();
            busy.add_run(Some(&before), &after);
            cells.push((result.detected, result.total_faults));
        }
        traced_s += t_timed.elapsed().as_secs_f64();
    }
    let wall_s = t_all.elapsed().as_secs_f64();
    let snap = flh_obs::snapshot();
    let (path, spans) = layers::write_and_read("campaign")?;

    report.check(cells == reference.cells, || {
        format!(
            "re-driven campaign differs from JobEngine::run: {cells:?} vs {:?}: layer split missing",
            reference.cells
        )
    });

    // Inside `atpg.fsim`, pair generation and fault ordering run on the
    // caller; the replay runs in the pool. The busiest worker's time is
    // the replay's share of each pool run; the rest of the run is pool
    // dispatch and waiting.
    let pool_self = layers::self_s(&spans, "exec.pool.run");
    let pool_wall = layers::total_s(&spans, "exec.pool.run");
    let fsim_s = layers::self_s(&spans, "atpg.fsim") + busy.max_s.min(pool_self);
    report.attempted = 1;
    report.set(
        "netlist.load.time_s",
        layers::self_s(&spans, "netlist.load"),
    );
    report.set("netlist.load.cells", load_cells as f64);
    report.set(
        "netlist.compile.time_s",
        layers::self_s(&spans, "netlist.compile"),
    );
    report.set("netlist.program.insts", insts as f64);
    report.set("atpg.view.time_s", layers::self_s(&spans, "atpg.view"));
    report.set("atpg.prune.time_s", layers::self_s(&spans, "atpg.prune"));
    report.set("atpg.prune.pruned", pruned as f64);
    report.set(
        "atpg.podem.backtracks",
        layers::counter(&snap, "podem.backtracks") as f64,
    );
    layers::set_fsim(&mut report, &snap, fsim_s);
    report.set("exec.pool.time_s", (pool_self - busy.max_s).max(0.0));
    report.set(
        "exec.pool.runs",
        layers::count(&spans, "exec.pool.run") as f64,
    );
    report.set("exec.pool.busy_share", busy.busy_share(pool_wall, WIDTH));
    report.set("exec.pool.imbalance", busy.imbalance());
    report.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
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
