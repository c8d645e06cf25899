//! `flh` — command-line front end to the workspace.
//!
//! ```text
//! flh stats   <circuit>                      structural statistics
//! flh eval    <circuit>                      per-style area/delay/power table
//! flh apply   <circuit> <style> [--verilog|--dot|--bench]
//!                                            DFT transform + export to stdout
//! flh atpg    <circuit> [--out FILE]         transition ATPG, pattern file
//! flh fsim    <circuit> <pattern-file>       coverage of a pattern file
//! flh analyze <circuit> [--check-sim]        bytecode verifier + static
//!                                            testability report per style
//! flh campaign <circuit> [--pairs N] [--seed S] [--styles LIST] [--dft STYLE]
//!                                            random transition campaign,
//!                                            one row per application style
//! flh serve   [--queue N] [--cache N] [--socket PATH] [--timings]
//!                                            persistent campaign service
//!                                            (line-delimited JSON protocol)
//! flh top     <socket> [--interval-ms N] [--polls N]
//! flh top     --script FILE                  live telemetry dashboard over
//!                                            the serve `stats` verb
//! flh list                                   known circuit profiles
//! ```
//!
//! `<circuit>` is either a builtin ISCAS89 profile name (`s298` … `s13207`)
//! or a path to an ISCAS89 `.bench` file. `<style>` is one of `plain`,
//! `enhanced`, `mux`, `flh`.
//!
//! `campaign` and `serve` both run on the shared `flh-serve` `JobEngine`:
//! circuits are resolved through one `CircuitSource` keyer and compiled
//! circuits are cached content-addressed, so a serve session re-running a
//! circuit pays neither parse nor compile. `--styles` takes `all` or a
//! comma-separated subset of `arbitrary`, `broadside`, `skewed`; `--dft`
//! applies a DFT transform before the campaign.
//!
//! Every subcommand additionally accepts the global flags
//! `--metrics-json PATH` (full flh-obs report: deterministic counters plus
//! the nondeterministic timing section) and `--metrics-det-json PATH`
//! (deterministic section only — byte-identical at any `FLH_THREADS`).
//! Setting `FLH_TRACE=<path>` writes a Chrome trace-event file of the
//! recorded spans.

use std::process::ExitCode;

use flh::atpg::transition::{enumerate_transition_faults, TransitionFault, TransitionPattern};
use flh::atpg::{
    enumerate_stuck_faults, parse_patterns, simulate_transition_patterns, stuck_coverage,
    transition_atpg, write_patterns, PodemConfig, StaticFilter, TestView,
};
use flh::core::{apply_style, evaluate_all, DftStyle, EvalConfig};
use flh::exec::ThreadPool;
use flh::netlist::bench_io::{parse_bench, write_bench};
use flh::netlist::mapper::map_netlist;
use flh::netlist::{dot, generate_circuit, iscas89_profile, iscas89_profiles, verilog};
use flh::netlist::{CircuitStats, CompiledCircuit, Netlist, Program};
use flh::obs;
use flh::rng::Rng;
use flh::serve::{
    parse_application_styles, parse_dft_style, parse_json, serve_lines, serve_unix_socket,
    BatchPayload, CircuitSource, JobEngine, JobEvent, JobId, JobSpec, Json, ServeConfig,
    DEFAULT_CACHE_CAPACITY,
};

use flh::atpg::ApplicationStyle;
use std::sync::Arc;

/// `flh`'s one stdout writer: the `out!`/`outln!` macros and the serve
/// transcript write through it. Once the reader has closed the pipe
/// (`flh disasm s13207 | head -1`), the next write ends the command
/// quietly with status 0, where `print!` would panic.
struct Stdout;

impl std::io::Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        end_on_closed_pipe(std::io::stdout().lock().write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        end_on_closed_pipe(std::io::stdout().lock().flush())
    }
}

fn end_on_closed_pipe<T>(result: std::io::Result<T>) -> std::io::Result<T> {
    match result {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        other => other,
    }
}

/// `print!` through [`Stdout`]. Any other write error ends the command
/// with the error on stderr.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = std::io::Write::write_fmt(&mut Stdout, format_args!($($arg)*)) {
            eprintln!("error: stdout: {e}");
            std::process::exit(1);
        }
    };
}

/// `println!` through [`Stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  flh stats  <circuit>\n  flh eval   <circuit>\n  flh apply  <circuit> <plain|enhanced|mux|flh> [--verilog|--dot|--bench]\n  flh atpg   <circuit> [--out FILE]\n  flh fsim   <circuit> <pattern-file>\n  flh disasm <circuit> [--dft STYLE]\n  flh analyze <circuit> [--check-sim]\n  flh campaign <circuit> [--pairs N] [--seed S] [--styles all|LIST] [--dft STYLE]\n  flh serve  [--queue N] [--cache N] [--socket PATH] [--timings]\n  flh top    <socket> [--interval-ms N] [--polls N]\n  flh top    --script FILE\n  flh list\n\nglobal flags: --metrics-json PATH, --metrics-det-json PATH\n(FLH_TRACE=<path> writes a Chrome trace-event file)\n\n<circuit> = builtin profile name (see `flh list`) or a .bench file path\ncampaign --styles = all or a comma list of arbitrary, broadside, skewed\ndisasm prints the lowered fused-opcode bytecode the simulators execute\nanalyze runs the bytecode verifier + static testability analysis per style;\n  --check-sim cross-checks the static classifier against fault simulation\nserve --timings adds wall-clock pairs/s + ETA to progress events\ntop polls a serve socket's stats verb (or replays a script) and renders a\n  plain-stdout dashboard: ledger, queue, cache, throughput, coverage"
    );
    ExitCode::FAILURE
}

fn load_circuit(spec: &str) -> Result<Netlist, String> {
    if let Some(profile) = iscas89_profile(spec) {
        return generate_circuit(&profile.generator_config())
            .map_err(|e| format!("generating {spec}: {e}"));
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("{spec}: {e} (and not a builtin profile)"))?;
    let name = std::path::Path::new(spec)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    let parsed = parse_bench(&text, name).map_err(|e| format!("{spec}: {e}"))?;
    map_netlist(&parsed).map_err(|e| format!("{spec}: mapping failed: {e}"))
}

fn parse_style(s: &str) -> Option<DftStyle> {
    parse_dft_style(s)
}

fn cmd_stats(circuit: &Netlist) -> Result<(), String> {
    let stats = CircuitStats::compute(circuit).map_err(|e| e.to_string())?;
    outln!("{circuit}");
    outln!("logic depth:              {}", stats.logic_depth);
    outln!("FF fanout pins:           {}", stats.total_ff_fanouts);
    outln!(
        "unique first-level gates: {}",
        stats.unique_first_level_gates
    );
    outln!("avg FF fanout:            {:.2}", stats.avg_ff_fanout());
    outln!(
        "unique/FF ratio:          {:.2}",
        stats.unique_fanout_ratio()
    );
    let mut kinds: Vec<(&String, &usize)> = stats.kind_histogram.iter().collect();
    kinds.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    outln!("gate mix:");
    for (kind, count) in kinds {
        outln!("  {kind:<8} {count}");
    }
    Ok(())
}

fn cmd_eval(circuit: &Netlist) -> Result<(), String> {
    let evals = evaluate_all(circuit, &EvalConfig::paper_default()).map_err(|e| e.to_string())?;
    outln!(
        "{:>14} | {:>12} {:>9} | {:>10} {:>9} | {:>11} {:>9}",
        "style",
        "area (um2)",
        "area %",
        "delay(ps)",
        "delay %",
        "power (uW)",
        "power %"
    );
    for e in &evals {
        outln!(
            "{:>14} | {:>12.2} {:>9.2} | {:>10.0} {:>9.2} | {:>11.2} {:>9.2}",
            e.style.label(),
            e.area_um2,
            e.area_increase_pct(),
            e.delay_ps,
            e.delay_increase_pct(),
            e.power_uw,
            e.power_increase_pct()
        );
    }
    Ok(())
}

fn cmd_apply(circuit: &Netlist, style: DftStyle, format: &str) -> Result<(), String> {
    let dft = apply_style(circuit, style).map_err(|e| e.to_string())?;
    match format {
        "--verilog" => out!("{}", verilog::write_verilog(&dft.netlist)),
        "--dot" => out!(
            "{}",
            dot::to_dot(
                &dft.netlist,
                &dot::DotOptions {
                    highlight: dft.gated.clone(),
                    left_to_right: true,
                },
            )
        ),
        "--bench" => out!("{}", write_bench(&dft.netlist)),
        other => return Err(format!("unknown format {other:?}")),
    }
    if style == DftStyle::Flh {
        eprintln!("// {} supply-gated first-level gates", dft.gated.len());
    }
    Ok(())
}

fn cmd_atpg(circuit: &Netlist, out: Option<&str>) -> Result<(), String> {
    let dft = apply_style(circuit, DftStyle::Flh).map_err(|e| e.to_string())?;
    let view = TestView::new(&dft.netlist).map_err(|e| e.to_string())?;
    let faults = enumerate_transition_faults(&dft.netlist);
    let result = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 0xf1);
    eprintln!(
        "{} transition faults: {:.2}% coverage, {:.2}% efficiency, {} pattern pairs",
        faults.len(),
        result.coverage_pct(),
        result.efficiency_pct(),
        result.patterns.len()
    );
    let text = write_patterns(&result.patterns, view.primary_input_count());
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?,
        None => out!("{text}"),
    }
    Ok(())
}

fn cmd_fsim(circuit: &Netlist, pattern_file: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(pattern_file).map_err(|e| format!("{pattern_file}: {e}"))?;
    let patterns = parse_patterns(&text).map_err(|e| e.to_string())?;
    let dft = apply_style(circuit, DftStyle::Flh).map_err(|e| e.to_string())?;
    let view = TestView::new(&dft.netlist).map_err(|e| e.to_string())?;
    if let Some(p) = patterns.first() {
        if p.v1.len() != view.assignable().len() {
            return Err(format!(
                "pattern width {} does not match circuit ({} PI + {} FF)",
                p.v1.len(),
                view.primary_input_count(),
                view.assignable().len() - view.primary_input_count()
            ));
        }
    }
    let faults = enumerate_transition_faults(&dft.netlist);
    let detected = simulate_transition_patterns(&view, &faults, &patterns);
    let hits = detected.iter().filter(|&&d| d).count();
    outln!(
        "{} pattern pairs detect {}/{} transition faults ({:.2}%)",
        patterns.len(),
        hits,
        faults.len(),
        100.0 * hits as f64 / faults.len().max(1) as f64
    );
    Ok(())
}

/// Prints the lowered bytecode of a circuit (optionally after DFT styling):
/// per-level batches, fused opcodes, named cell slots, scratch registers
/// and fusion provenance — exactly the program every simulator executes.
fn cmd_disasm(circuit: &Netlist, dft: Option<DftStyle>) -> Result<(), String> {
    let styled;
    let netlist = match dft {
        None => circuit,
        Some(style) => {
            styled = apply_style(circuit, style)
                .map_err(|e| e.to_string())?
                .netlist;
            &styled
        }
    };
    let compiled = CompiledCircuit::compile(netlist).map_err(|e| e.to_string())?;
    let program = Program::lower(&compiled);
    out!(
        "{}",
        program.disasm_with(|slot| netlist.cell(compiled.cell_id(slot)).name().to_string())
    );
    let total = program.inst_count().max(1);
    outln!(
        "\nopcode histogram ({} instructions):",
        program.inst_count()
    );
    for (op, count) in program.opcode_histogram() {
        outln!(
            "  {:<10} {:>8}  {:>5.1}%",
            format!("{op:?}"),
            count,
            100.0 * count as f64 / total as f64
        );
    }
    outln!("\nlevel occupancy (level: batches / instructions):");
    for (level, batches, insts) in program.level_occupancy() {
        outln!("  L{level:<4} {batches:>4} batch(es)  {insts:>8} inst");
    }
    Ok(())
}

/// Static-analysis report over the compiled bytecode: per DFT style, the
/// verifier verdict, constant nets, dead instructions, the statically
/// untestable share of the fault universe and the transition faults the
/// FIRE redundancy pass proves redundant beyond it. With `--check-sim`,
/// random stuck-at and transition fault simulation cross-checks the
/// classifiers: a pruned or redundant fault that simulation detects is a
/// soundness bug, reported as `prune-consistency: FAIL`.
fn cmd_analyze(circuit: &Netlist, check_sim: bool) -> Result<(), String> {
    use flh::netlist::static_analysis::{analyze, verify_program};
    let _span = obs::span("flh.analyze");
    outln!("{circuit}: bytecode static analysis");
    outln!(
        "{:>14} | {:>6} | {:>16} | {:>6} | {:>5} | {:>13} | {:>13} | {:>13}",
        "style",
        "insts",
        "verifier",
        "const",
        "dead",
        "untest. stuck",
        "untest. trans",
        "redund. trans"
    );
    let styles = [
        None,
        Some(DftStyle::PlainScan),
        Some(DftStyle::EnhancedScan),
        Some(DftStyle::MuxHold),
        Some(DftStyle::Flh),
    ];
    let mut verifier_violations = 0usize;
    let (mut redundant_checked, mut redundant_detected) = (0, 0);
    for style in styles {
        let styled;
        let netlist = match style {
            None => circuit,
            Some(s) => {
                styled = apply_style(circuit, s).map_err(|e| e.to_string())?.netlist;
                &styled
            }
        };
        let compiled = CompiledCircuit::compile(netlist).map_err(|e| e.to_string())?;
        let program = Program::lower(&compiled);
        let verify = verify_program(&compiled, &program);
        verifier_violations += verify.violations.len();
        let analysis = analyze(&compiled, &program);
        let constant_nets = (0..compiled.cell_count() as u32)
            .filter(|&c| {
                let kind = netlist.cell(compiled.cell_id(c)).kind();
                kind.is_combinational()
                    && !matches!(
                        kind,
                        flh::netlist::CellKind::Const0 | flh::netlist::CellKind::Const1
                    )
                    && analysis.constants[c as usize].is_some()
            })
            .count();
        let view = TestView::new(netlist).map_err(|e| e.to_string())?;
        let filter = StaticFilter::from_view(&view);
        let stuck = enumerate_stuck_faults(netlist);
        let stuck_untestable = stuck.iter().filter(|f| filter.stuck_untestable(f)).count();
        let trans = enumerate_transition_faults(netlist);
        let trans_untestable = trans
            .iter()
            .filter(|f| filter.transition_untestable(f))
            .count();
        let flagged: Vec<TransitionFault> = trans
            .iter()
            .zip(filter.redundant_transitions(&trans).flags)
            .filter_map(|(f, r)| r.then_some(*f))
            .collect();
        if check_sim {
            let mut rng = Rng::seed_from_u64(0xF1A7);
            let pairs = random_pairs(&mut rng, view.assignable().len());
            redundant_checked += flagged.len();
            redundant_detected += simulate_transition_patterns(&view, &flagged, &pairs)
                .iter()
                .filter(|&&d| d)
                .count();
        }
        let verdict = if verify.is_clean() {
            format!("clean ({} chk)", verify.checks)
        } else {
            format!("{} VIOLATIONS", verify.violations.len())
        };
        outln!(
            "{:>14} | {:>6} | {:>16} | {:>6} | {:>5} | {:>6}/{:<6} | {:>6}/{:<6} | {:>6}/{:<6}",
            style.map_or("bare", DftStyle::label),
            program.inst_count(),
            verdict,
            constant_nets,
            analysis.dead.dead.len(),
            stuck_untestable,
            stuck.len(),
            trans_untestable,
            trans.len(),
            flagged.len(),
            trans.len()
        );
    }
    if verifier_violations > 0 {
        return Err(format!(
            "bytecode verifier found {verifier_violations} violation(s)"
        ));
    }
    if check_sim {
        check_prune_consistency(circuit, redundant_checked, redundant_detected)?;
    }
    Ok(())
}

/// Random pattern pairs per `--check-sim` cross-check.
const CHECK_SIM_PATTERNS: usize = 256;

fn random_pairs(rng: &mut Rng, width: usize) -> Vec<TransitionPattern> {
    let mut random_vec = || -> Vec<bool> { (0..width).map(|_| rng.gen::<bool>()).collect() };
    (0..CHECK_SIM_PATTERNS)
        .map(|_| TransitionPattern {
            v1: random_vec(),
            v2: random_vec(),
        })
        .collect()
}

/// The soundness cross-check behind `flh analyze --check-sim`: no fault the
/// static filter prunes may ever be detected by fault simulation, and none
/// of the `redundant_checked` transition faults the redundancy pass flagged
/// over all styles may be (`redundant_bad` of them were).
fn check_prune_consistency(
    circuit: &Netlist,
    redundant_checked: usize,
    redundant_bad: usize,
) -> Result<(), String> {
    let view = TestView::new(circuit).map_err(|e| e.to_string())?;
    let filter = StaticFilter::from_view(&view);
    let width = view.assignable().len();
    let mut rng = Rng::seed_from_u64(0xF1A7);

    let stuck = enumerate_stuck_faults(circuit);
    let patterns: Vec<Vec<bool>> = (0..CHECK_SIM_PATTERNS)
        .map(|_| (0..width).map(|_| rng.gen::<bool>()).collect())
        .collect();
    let detected = stuck_coverage(&view, &stuck, &patterns);
    let stuck_bad = stuck
        .iter()
        .zip(&detected)
        .filter(|(f, &d)| d && filter.stuck_untestable(f))
        .count();

    let trans = enumerate_transition_faults(circuit);
    let pairs = random_pairs(&mut rng, width);
    let tdetected = simulate_transition_patterns(&view, &trans, &pairs);
    let trans_bad = trans
        .iter()
        .zip(&tdetected)
        .filter(|(f, &d)| d && filter.transition_untestable(f))
        .count();

    outln!(
        "check-sim: {CHECK_SIM_PATTERNS} random patterns, {} stuck + {} transition faults, \
         {} redundant transition faults over all styles",
        stuck.len(),
        trans.len(),
        redundant_checked
    );
    if stuck_bad == 0 && trans_bad == 0 && redundant_bad == 0 {
        outln!("prune-consistency: OK");
        Ok(())
    } else {
        outln!(
            "prune-consistency: FAIL ({stuck_bad} stuck, {trans_bad} transition, \
             {redundant_bad} redundant)"
        );
        Err(format!(
            "static filter pruned {} detectable fault(s)",
            stuck_bad + trans_bad + redundant_bad
        ))
    }
}

fn cmd_campaign(
    spec: &str,
    styles: Vec<ApplicationStyle>,
    pairs: usize,
    seed: u64,
    dft: Option<DftStyle>,
) -> Result<(), String> {
    let _span = obs::span("flh.campaign");
    let engine = JobEngine::from_env();
    let width = engine.pool().size();
    let job = JobSpec::campaign(CircuitSource::named(spec)?)
        .with_styles(styles)
        .with_pairs(pairs)
        .with_seed(seed)
        .with_dft(dft);
    engine
        .run(JobId(1), &job, &mut |event| match event {
            JobEvent::Started { circuit, .. } => {
                outln!(
                    "{circuit}: random transition campaign, {pairs} pairs, seed {seed}, \
pool width {width}"
                );
                outln!(
                    "{:>22} | {:>7} | {:>8} | {:>10}",
                    "application style",
                    "faults",
                    "detected",
                    "coverage %"
                );
            }
            JobEvent::Batch {
                payload: BatchPayload::Campaign(r),
                ..
            } => {
                outln!(
                    "{:>22} | {:>7} | {:>8} | {:>10.2}",
                    r.style.to_string(),
                    r.total_faults,
                    r.detected,
                    r.coverage_pct()
                );
            }
            _ => {}
        })
        .map(|_| ())
}

fn cmd_serve(
    queue_capacity: usize,
    cache_capacity: usize,
    socket: Option<&str>,
    timings: bool,
) -> Result<(), String> {
    // Always record: every `done` event then carries the job's own
    // deterministic metrics delta.
    obs::install(obs::trace_path_from_env().is_some());
    let engine =
        Arc::new(JobEngine::new(ThreadPool::from_env(), cache_capacity).with_timings(timings));
    let config = ServeConfig { queue_capacity };
    match socket {
        Some(path) => serve_unix_socket(std::path::Path::new(path), engine, config)
            .map_err(|e| format!("{path}: {e}")),
        None => {
            let stdin = std::io::stdin();
            serve_lines(stdin.lock(), &mut Stdout, engine, config)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
    }
}

/// One `stats` response reduced to what the dashboard renders.
struct TopSample {
    submitted: u64,
    completed: u64,
    rejected: u64,
    cancelled: u64,
    in_flight: u64,
    hits: u64,
    misses: u64,
    /// `serve.campaign.pairs` named counter (0 when no recorder).
    pairs: u64,
    /// `fsim.transition.detections` counter (0 when no recorder).
    detections: u64,
    /// Deterministic gauges, as published.
    gauges: Vec<(String, i64)>,
    /// Latest coverage per style from the `serve.coverage.*` series, in
    /// basis points.
    coverage: Vec<(String, i64)>,
}

fn top_num(map: &std::collections::BTreeMap<String, Json>, key: &str) -> u64 {
    match map.get(key) {
        Some(Json::Number(n)) if *n >= 0.0 => *n as u64,
        _ => 0,
    }
}

/// Parses a transcript line into a sample if it is a `stats` response.
fn parse_stats_sample(line: &str) -> Option<TopSample> {
    let value = parse_json(line.trim()).ok()?;
    let map = value.as_object()?;
    if map.get("event").and_then(Json::as_str) != Some("stats") {
        return None;
    }
    let cache = map.get("cache").and_then(Json::as_object);
    let mut sample = TopSample {
        submitted: top_num(map, "submitted"),
        completed: top_num(map, "completed"),
        rejected: top_num(map, "rejected"),
        cancelled: top_num(map, "cancelled"),
        in_flight: top_num(map, "in_flight"),
        hits: cache.map_or(0, |c| top_num(c, "hits")),
        misses: cache.map_or(0, |c| top_num(c, "misses")),
        pairs: 0,
        detections: 0,
        gauges: Vec::new(),
        coverage: Vec::new(),
    };
    if let Some(metrics) = map.get("metrics").and_then(Json::as_object) {
        if let Some(counters) = metrics.get("counters").and_then(Json::as_object) {
            sample.detections = top_num(counters, "fsim.transition.detections");
        }
        if let Some(named) = metrics.get("named_counters").and_then(Json::as_object) {
            sample.pairs = top_num(named, "serve.campaign.pairs");
        }
        if let Some(gauges) = metrics.get("gauges").and_then(Json::as_object) {
            for (name, v) in gauges {
                if let Json::Number(n) = v {
                    sample.gauges.push((name.clone(), *n as i64));
                }
            }
        }
        if let Some(Json::Array(series)) = metrics.get("series") {
            for s in series {
                let Some(s) = s.as_object() else { continue };
                let Some(name) = s.get("name").and_then(Json::as_str) else {
                    continue;
                };
                let Some(style) = name.strip_prefix("serve.coverage.") else {
                    continue;
                };
                if let Some(Json::Array(points)) = s.get("points") {
                    if let Some(Json::Array(last)) = points.last() {
                        if let Some(Json::Number(v)) = last.get(1) {
                            sample.coverage.push((style.to_string(), *v as i64));
                        }
                    }
                }
            }
        }
    }
    Some(sample)
}

/// Renders one dashboard frame. `dt_s` (socket mode: wall seconds since
/// the previous poll) enables the client-side throughput/ETA line — rates
/// are always computed here, never taken from the wire, so the default
/// serve transcript stays deterministic.
fn render_top_frame(
    poll: usize,
    sample: &TopSample,
    prev: Option<&TopSample>,
    dt_s: Option<f64>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "── flh top · poll {poll} ──");
    let _ = writeln!(
        out,
        "jobs      submitted {}  completed {}  in-flight {}  rejected {}  cancelled {}",
        sample.submitted, sample.completed, sample.in_flight, sample.rejected, sample.cancelled
    );
    let lookups = sample.hits + sample.misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        100.0 * sample.hits as f64 / lookups as f64
    };
    let _ = writeln!(
        out,
        "cache     hits {}  misses {}  hit-ratio {ratio:.1}%",
        sample.hits, sample.misses
    );
    let gauge = |name: &str| {
        sample
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let depth = gauge("serve.queue.depth").unwrap_or(sample.in_flight as i64);
    let peak = gauge("serve.queue.depth_peak").unwrap_or(depth);
    let _ = writeln!(out, "queue     depth {depth}  peak {peak}");
    let mut work = format!(
        "work      pairs {}  detections {}",
        sample.pairs, sample.detections
    );
    if let Some(prev) = prev {
        let dp = sample.pairs.saturating_sub(prev.pairs);
        let _ = write!(work, "  (+{dp} pairs");
        if let Some(dt) = dt_s {
            if dt > 0.0 {
                let _ = write!(work, ", {:.1} pairs/s", dp as f64 / dt);
                let dj = sample.completed.saturating_sub(prev.completed);
                let jobs_per_s = dj as f64 / dt;
                if sample.in_flight > 0 && jobs_per_s > 0.0 {
                    let _ = write!(work, ", eta {:.1}s", sample.in_flight as f64 / jobs_per_s);
                }
            }
        }
        work.push(')');
    }
    let _ = writeln!(out, "{work}");
    if !sample.coverage.is_empty() {
        let mut line = String::from("coverage ");
        for (style, bp) in &sample.coverage {
            let _ = write!(line, " {style} {:.2}%", *bp as f64 / 100.0);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// `flh top --script FILE`: replays a protocol script through an
/// in-process engine and renders one frame per `stats` response — the
/// deterministic, socket-free way to exercise the dashboard (and what the
/// CLI test drives).
fn cmd_top_script(path: &str) -> Result<(), String> {
    obs::install(false);
    let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let engine = Arc::new(JobEngine::from_env());
    let mut transcript = Vec::new();
    serve_lines(
        script.as_bytes(),
        &mut transcript,
        engine,
        ServeConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let transcript = String::from_utf8_lossy(&transcript);
    let mut prev: Option<TopSample> = None;
    let mut polls = 0usize;
    for line in transcript.lines() {
        if let Some(sample) = parse_stats_sample(line) {
            polls += 1;
            out!("{}", render_top_frame(polls, &sample, prev.as_ref(), None));
            prev = Some(sample);
        }
    }
    if polls == 0 {
        return Err(format!(
            "{path}: script produced no stats responses (add {:?} lines)",
            "{\"op\":\"stats\"}"
        ));
    }
    Ok(())
}

/// `flh top <socket>`: polls a running `flh serve --socket` instance with
/// the `stats` verb and renders a frame per poll. `polls == 0` polls
/// until the server goes away.
fn cmd_top_socket(path: &str, interval_ms: u64, polls: usize) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let stream =
        std::os::unix::net::UnixStream::connect(path).map_err(|e| format!("{path}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    // Nothing here feeds any deterministic document — the wire carries no
    // time-ok: clock either way; dashboard-side rate computation only.
    let mut prev: Option<(TopSample, std::time::Instant)> = None;
    let mut poll = 0usize;
    loop {
        poll += 1;
        writer
            .write_all(b"{\"op\":\"stats\"}\n")
            .map_err(|e| format!("{path}: {e}"))?;
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("{path}: {e}"))?;
        if n == 0 {
            return Err(format!("{path}: server closed the connection"));
        }
        // time-ok: see above — poll pacing and client-side rates only.
        let now = std::time::Instant::now();
        match parse_stats_sample(&line) {
            Some(sample) => {
                let (prev_sample, dt) = match &prev {
                    Some((p, at)) => (Some(p), Some(now.duration_since(*at).as_secs_f64())),
                    None => (None, None),
                };
                out!("{}", render_top_frame(poll, &sample, prev_sample, dt));
                prev = Some((sample, now));
            }
            None => out!("{line}"),
        }
        if polls != 0 && poll >= polls {
            return Ok(());
        }
        // time-ok: poll cadence.
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Removes `flag VALUE` from `args` if present and returns the value.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(pos) if pos + 1 < args.len() => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            Ok(Some(value))
        }
        Some(_) => Err(format!("{flag} expects a value")),
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global observability flags, valid on every subcommand.
    let metrics_json = take_flag_value(&mut args, "--metrics-json")?;
    let metrics_det_json = take_flag_value(&mut args, "--metrics-det-json")?;
    let trace = obs::trace_path_from_env();
    if metrics_json.is_some() || metrics_det_json.is_some() || trace.is_some() {
        obs::install(trace.is_some());
    }
    dispatch(&args)?;
    if metrics_json.is_some() || metrics_det_json.is_some() {
        let snap = obs::snapshot();
        if let Some(path) = &metrics_json {
            std::fs::write(path, obs::full_json(&snap)).map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &metrics_det_json {
            std::fs::write(path, obs::det_document(&snap)).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    if let Some(path) = &trace {
        obs::write_trace(path).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for p in iscas89_profiles() {
                outln!(
                    "{:<8} {:>4} PI {:>4} PO {:>4} FF {:>6} gates  depth {}",
                    p.name,
                    p.primary_inputs,
                    p.primary_outputs,
                    p.flip_flops,
                    p.gates,
                    p.logic_depth
                );
            }
            Ok(())
        }
        Some("stats") if args.len() == 2 => cmd_stats(&load_circuit(&args[1])?),
        Some("eval") if args.len() == 2 => cmd_eval(&load_circuit(&args[1])?),
        Some("apply") if args.len() >= 3 => {
            let style =
                parse_style(&args[2]).ok_or_else(|| format!("unknown style {:?}", args[2]))?;
            let format = args.get(3).map(String::as_str).unwrap_or("--bench");
            cmd_apply(&load_circuit(&args[1])?, style, format)
        }
        Some("atpg") if args.len() >= 2 => {
            let out = match (args.get(2).map(String::as_str), args.get(3)) {
                (Some("--out"), Some(path)) => Some(path.as_str()),
                (None, _) => None,
                _ => return Err("atpg takes an optional `--out FILE`".into()),
            };
            cmd_atpg(&load_circuit(&args[1])?, out)
        }
        Some("fsim") if args.len() == 3 => cmd_fsim(&load_circuit(&args[1])?, &args[2]),
        Some("analyze") if args.len() >= 2 => {
            let mut rest: Vec<String> = args[2..].to_vec();
            let check_sim = match rest.iter().position(|a| a == "--check-sim") {
                Some(pos) => {
                    rest.remove(pos);
                    true
                }
                None => false,
            };
            if let Some(extra) = rest.first() {
                return Err(format!("analyze: unexpected argument {extra:?}"));
            }
            cmd_analyze(&load_circuit(&args[1])?, check_sim)
        }
        Some("disasm") if args.len() >= 2 => {
            let mut rest: Vec<String> = args[2..].to_vec();
            let dft = match take_flag_value(&mut rest, "--dft")? {
                Some(v) => {
                    Some(parse_style(&v).ok_or_else(|| format!("--dft: unknown style {v:?}"))?)
                }
                None => None,
            };
            if let Some(extra) = rest.first() {
                return Err(format!("disasm: unexpected argument {extra:?}"));
            }
            cmd_disasm(&load_circuit(&args[1])?, dft)
        }
        Some("campaign") if args.len() >= 2 => {
            let mut rest: Vec<String> = args[2..].to_vec();
            let pairs = match take_flag_value(&mut rest, "--pairs")? {
                Some(v) => v.parse().map_err(|e| format!("--pairs: {e}"))?,
                None => 256,
            };
            let seed = match take_flag_value(&mut rest, "--seed")? {
                Some(v) => v.parse().map_err(|e| format!("--seed: {e}"))?,
                None => 7,
            };
            let styles = match take_flag_value(&mut rest, "--styles")? {
                Some(v) => parse_application_styles(&v).map_err(|e| format!("--styles: {e}"))?,
                None => flh::serve::ALL_APPLICATION_STYLES.to_vec(),
            };
            let dft = match take_flag_value(&mut rest, "--dft")? {
                Some(v) => {
                    Some(parse_style(&v).ok_or_else(|| format!("--dft: unknown style {v:?}"))?)
                }
                None => None,
            };
            if let Some(extra) = rest.first() {
                return Err(format!("campaign: unexpected argument {extra:?}"));
            }
            cmd_campaign(&args[1], styles, pairs, seed, dft)
        }
        Some("serve") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let queue = match take_flag_value(&mut rest, "--queue")? {
                Some(v) => v.parse().map_err(|e| format!("--queue: {e}"))?,
                None => ServeConfig::default().queue_capacity,
            };
            let cache = match take_flag_value(&mut rest, "--cache")? {
                Some(v) => v.parse().map_err(|e| format!("--cache: {e}"))?,
                None => DEFAULT_CACHE_CAPACITY,
            };
            let socket = take_flag_value(&mut rest, "--socket")?;
            let timings = match rest.iter().position(|a| a == "--timings") {
                Some(pos) => {
                    rest.remove(pos);
                    true
                }
                None => false,
            };
            if let Some(extra) = rest.first() {
                return Err(format!("serve: unexpected argument {extra:?}"));
            }
            cmd_serve(queue, cache, socket.as_deref(), timings)
        }
        Some("top") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let script = take_flag_value(&mut rest, "--script")?;
            let interval = match take_flag_value(&mut rest, "--interval-ms")? {
                Some(v) => v.parse().map_err(|e| format!("--interval-ms: {e}"))?,
                None => 1000,
            };
            let polls = match take_flag_value(&mut rest, "--polls")? {
                Some(v) => v.parse().map_err(|e| format!("--polls: {e}"))?,
                None => 0,
            };
            match script {
                Some(path) => {
                    if let Some(extra) = rest.first() {
                        return Err(format!("top: unexpected argument {extra:?}"));
                    }
                    cmd_top_script(&path)
                }
                None => {
                    let [socket] = rest.as_slice() else {
                        return Err("top expects a socket path or --script FILE".into());
                    };
                    cmd_top_socket(socket, interval, polls)
                }
            }
        }
        _ => Err(String::new()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            if message.is_empty() {
                usage()
            } else {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        }
    }
}
