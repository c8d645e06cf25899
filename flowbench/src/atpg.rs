//! The `atpg` workload: `flh atpg s1196`, in process, at pool width 1
//! (deterministic transition ATPG is serial).
//!
//! Set-up is generate → `apply_style(Flh)` → `TestView::new` →
//! `enumerate_transition_faults` → `StaticFilter::from_view`; the timed
//! part is `transition_atpg_with_filter` with the paper's PODEM budget and
//! the workload seed, then `write_patterns` — exactly what
//! `transition_atpg` runs. PODEM does most of the work and nothing else
//! calls it, so a PODEM change moves this workload alone.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flh_atpg::transition::enumerate_transition_faults;
use flh_atpg::{
    parse_patterns, simulate_transition_patterns, transition_atpg_with_filter, write_patterns,
    Podem, PodemConfig, StaticFilter, TestView, TransitionAtpgResult, TransitionFault,
    TransitionPattern, TransitionSimulator,
};
use flh_core::{apply_style, DftStyle};
use flh_netlist::{iscas89_profile, Netlist, Packed256, PatternWord};
use flh_obs::span;
use flh_rng::Rng;
use flh_serve::{fnv1a, CircuitSource};

use crate::{layers, peak_rss_mb, stats, Options, Report};

/// Pool width: the ATPG loop never enters the pool.
pub const WIDTH: usize = 1;

const CIRCUIT: &str = "s1196";

/// Set-up runs before each timed pass: one takes a few milliseconds, so a
/// single sample would move with every scheduling hiccup, and spreading
/// the samples over the run puts them in the same window as the passes.
const SETUP_REPS: usize = 60;

/// Generates the circuit and applies FLH; also returns the generated
/// cell count.
fn load_styled(source: &CircuitSource) -> Result<(usize, Netlist), String> {
    let base = {
        let _s = span("netlist.load");
        source.load()?
    };
    let _s = span("core.dft");
    let styled = apply_style(&base, DftStyle::Flh).map_err(|e| e.to_string())?;
    Ok((base.cell_count(), styled.netlist))
}

type Analysis<'a> = (TestView<'a>, Vec<TransitionFault>, StaticFilter);

/// Test view, fault list and prune filter over the styled netlist.
fn analyse(netlist: &Netlist) -> Result<Analysis<'_>, String> {
    let (view, faults) = {
        let _s = span("atpg.view");
        let view = TestView::new(netlist).map_err(|e| e.to_string())?;
        (view, enumerate_transition_faults(netlist))
    };
    let filter = {
        let _s = span("atpg.prune");
        StaticFilter::from_view(&view)
    };
    Ok((view, faults, filter))
}

fn setup_once(source: &CircuitSource) -> Result<Duration, String> {
    let t = Instant::now();
    let (_, netlist) = load_styled(source)?;
    let analysis = analyse(&netlist)?;
    black_box(&analysis);
    Ok(t.elapsed())
}

/// The timed part: what `transition_atpg` runs, plus the pattern file.
fn atpg_pass(analysis: &Analysis<'_>, seed: u64) -> (TransitionAtpgResult, String) {
    let (view, faults, filter) = analysis;
    let result = transition_atpg_with_filter(
        view,
        faults,
        &PodemConfig::paper_default(),
        seed,
        Some(filter),
    );
    let text = write_patterns(&result.patterns, view.primary_input_count());
    (result, text)
}

/// Faults PODEM gave up on that a later pair detected anyway: the double
/// count behind an efficiency above 100%. Every fault ends detected or
/// counted untestable, so the overlap is `detected + untestable - total`.
fn efficiency_double_count(result: &TransitionAtpgResult) -> usize {
    (result.detected_count() + result.untestable).saturating_sub(result.detected.len())
}

/// Re-simulates the written pattern file: it must detect exactly the
/// faults the ATPG run reported.
fn check_pattern_file(
    report: &mut Report,
    analysis: &Analysis<'_>,
    result: &TransitionAtpgResult,
    text: &str,
) {
    let (view, faults, _) = analysis;
    match parse_patterns(text) {
        Ok(parsed) => {
            let detected = simulate_transition_patterns(view, faults, &parsed)
                .iter()
                .filter(|&&d| d)
                .count();
            report.check(detected == result.detected_count(), || {
                format!(
                    "pattern file re-simulation detects {detected} faults, ATPG reported {}",
                    result.detected_count()
                )
            });
        }
        Err(e) => report.check(false, || format!("pattern file does not parse: {e}")),
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let profile = iscas89_profile(CIRCUIT).ok_or("s1196 profile missing")?;
    let source = CircuitSource::profile(profile);
    if opts.trace {
        return traced(&source, opts);
    }
    let mut report = Report::default();
    let (_, netlist) = load_styled(&source)?;
    let analysis = analyse(&netlist)?;

    let (mut setup, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<(TransitionAtpgResult, String)> = None;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed() < opts.seconds {
        for _ in 0..SETUP_REPS {
            setup.push(setup_once(&source)?.as_secs_f64());
        }
        let t = Instant::now();
        let (result, text) = atpg_pass(&analysis, opts.seed);
        walls.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some((result, text)),
            Some((_, first_text)) => report.check(first_text == &text, || {
                "pattern file changed between passes of one seed".into()
            }),
        }
    }
    let (result, text) = first.expect("at least one pass ran");
    check_pattern_file(&mut report, &analysis, &result, &text);

    report.attempted = walls.len() as u64;
    report.set("wall_s", stats::median(&walls));
    report.set("setup_s", stats::median(&setup));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("coverage_pct", result.coverage_pct());
    report.set("patterns", result.patterns.len() as f64);
    report.set("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.set("job_p50_ms", stats::median(&ms));
    report.set("job_p95_ms", stats::tail_or_median(&ms, 0.95));
    report.notes = vec![
        ("circuit", CIRCUIT.into()),
        ("faults", result.detected.len().to_string()),
        ("efficiency_pct", format!("{:.2}", result.efficiency_pct())),
        ("podem_wasted", efficiency_double_count(&result).to_string()),
        ("pattern_hash", format!("{:016x}", fnv1a(text.as_bytes()))),
    ];
    Ok(report)
}

/// What the traced re-drive of the ATPG loop produced.
struct Redriven {
    patterns: Vec<TransitionPattern>,
    podem_calls: u64,
    podem_failed: u64,
    /// Faults PODEM gave up on that another pair detected.
    wasted: usize,
}

/// Re-drives `transition_atpg_with_filter`'s loop from public parts, with
/// a span around each PODEM call and around filling and fault-simulating
/// each generated pair.
fn redrive(analysis: &Analysis<'_>, seed: u64) -> Redriven {
    let (view, faults, filter) = analysis;
    let podem = Podem::new(view, PodemConfig::paper_default());
    let mut rng = Rng::seed_from_u64(seed);
    let mut detected = vec![false; faults.len()];
    let mut gave_up = Vec::new();
    let mut patterns = Vec::new();
    let mut sim = TransitionSimulator::new(view);
    let (mut podem_calls, mut podem_failed) = (0u64, 0u64);
    for fi in 0..faults.len() {
        if detected[fi] {
            continue;
        }
        let fault = faults[fi];
        if filter.transition_untestable(&fault) {
            continue;
        }
        podem_calls += 1;
        let v2_cube = {
            let _s = span("atpg.podem");
            podem.generate(&fault.stuck_equivalent())
        };
        let Some(v2_cube) = v2_cube else {
            podem_failed += 1;
            gave_up.push(fi);
            continue;
        };
        podem_calls += 1;
        let v1_cube = {
            let _s = span("atpg.podem");
            podem.justify(fault.site, fault.initial_value())
        };
        let Some(v1_cube) = v1_cube else {
            podem_failed += 1;
            gave_up.push(fi);
            continue;
        };
        let _s = span("atpg.fsim");
        let pattern = TransitionPattern {
            v1: v1_cube.fill_random(&mut rng),
            v2: v2_cube.fill_random(&mut rng),
        };
        let word = |bit: bool| Packed256::from_word(u64::from(bit));
        let v1_words: Vec<Packed256> = pattern.v1.iter().map(|&b| word(b)).collect();
        let v2_words: Vec<Packed256> = pattern.v2.iter().map(|&b| word(b)).collect();
        sim.run_batch(
            &v1_words,
            &v2_words,
            Packed256::lane_bit(0),
            faults,
            &mut detected,
        );
        detected[fi] = true;
        patterns.push(pattern);
    }
    Redriven {
        patterns,
        podem_calls,
        podem_failed,
        wasted: gave_up.iter().filter(|&&fi| detected[fi]).count(),
    }
}

fn traced(source: &CircuitSource, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    // Untraced reference first: the recorder cannot be switched off again.
    let (_, netlist) = load_styled(source)?;
    let analysis = analyse(&netlist)?;
    let t = Instant::now();
    let (reference, reference_text) = atpg_pass(&analysis, opts.seed);
    let untraced_s = t.elapsed().as_secs_f64();

    flh_obs::install(true);
    flh_obs::reset();
    let t_all = Instant::now();
    let (cells, netlist) = load_styled(source)?;
    let analysis = analyse(&netlist)?;
    let t_timed = Instant::now();
    let redriven = redrive(&analysis, opts.seed);
    let text = write_patterns(&redriven.patterns, analysis.0.primary_input_count());
    let traced_s = t_timed.elapsed().as_secs_f64();
    let wall_s = t_all.elapsed().as_secs_f64();
    let snap = flh_obs::snapshot();
    let (path, spans) = layers::write_and_read("atpg")?;

    // The split is only valid if the re-driven loop is the library loop.
    report.check(text == reference_text, || {
        "re-driven ATPG loop wrote a different pattern file: PODEM/fsim split missing".into()
    });
    report.check(
        redriven.wasted == efficiency_double_count(&reference),
        || {
            format!(
                "re-driven loop counts {} wasted PODEM faults, the ATPG result implies {}",
                redriven.wasted,
                efficiency_double_count(&reference)
            )
        },
    );
    check_pattern_file(&mut report, &analysis, &reference, &reference_text);

    let (view, faults, filter) = &analysis;
    let counter = |name| layers::counter(&snap, name) as f64;
    let podem_s = layers::self_s(&spans, "atpg.podem");
    let fsim_s = layers::self_s(&spans, "atpg.fsim");
    report.attempted = 1;
    report.set(
        "netlist.load.time_s",
        layers::self_s(&spans, "netlist.load"),
    );
    report.set("netlist.load.cells", cells as f64);
    report.set("netlist.program.insts", view.program().inst_count() as f64);
    report.set("core.dft.time_s", layers::self_s(&spans, "core.dft"));
    report.set("atpg.view.time_s", layers::self_s(&spans, "atpg.view"));
    report.set("atpg.prune.time_s", layers::self_s(&spans, "atpg.prune"));
    report.set(
        "atpg.prune.pruned",
        faults
            .iter()
            .filter(|f| filter.transition_untestable(f))
            .count() as f64,
    );
    report.set("atpg.podem.time_s", podem_s);
    report.set("atpg.podem.calls", redriven.podem_calls as f64);
    report.set("atpg.podem.failed", redriven.podem_failed as f64);
    report.set("atpg.podem.backtracks", counter("podem.backtracks"));
    report.set(
        "atpg.podem.us_per_call",
        podem_s * 1e6 / redriven.podem_calls.max(1) as f64,
    );
    report.set("atpg.podem.wasted", redriven.wasted as f64);
    layers::set_fsim(&mut report, &snap, fsim_s);
    report.set(
        "exec.pool.runs",
        layers::count(&spans, "exec.pool.run") as f64,
    );
    report.set("exec.pool.time_s", layers::self_s(&spans, "exec.pool.run"));
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
