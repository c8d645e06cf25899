//! `flowbench` — end-to-end benchmark of this repository's three user
//! flows, run in process through the crates' public functions:
//!
//! ```text
//! flowbench --workload atpg|campaign|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the flow untraced for `S` seconds and prints every
//! end-to-end metric; `--trace 1` runs one untraced reference pass and one
//! traced pass and prints the per-layer split. The last stdout line is the
//! JSON result; the line before it records the environment. `README.md`
//! beside this file describes the workloads and every metric.

mod atpg;
mod campaign;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Options {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the untraced run keeps repeating its timed part.
    pub seconds: Duration,
    /// Run the traced per-layer pass instead of the end-to-end run.
    pub trace: bool,
}

/// What a workload run hands back: output-check failures, operation
/// counts and named metric values (units come from the metric tables).
#[derive(Default)]
pub struct Report {
    /// Output checks that failed; empty means the outputs are correct.
    pub errors: Vec<String>,
    /// Operations (jobs) attempted.
    pub attempted: u64,
    /// Operations that failed, were rejected or answered with an error.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Facts printed on the environment line (output hashes, counts).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// End-to-end metrics `(name, unit)`, reported by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage_pct", "%"),
    ("patterns", "count"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every `--trace 1` run; a
/// layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.load.time_s", "s"),
    ("netlist.load.cells", "count"),
    ("netlist.compile.time_s", "s"),
    ("netlist.program.insts", "count"),
    ("core.dft.time_s", "s"),
    ("atpg.view.time_s", "s"),
    ("atpg.prune.time_s", "s"),
    ("atpg.prune.pruned", "count"),
    ("atpg.podem.time_s", "s"),
    ("atpg.podem.calls", "count"),
    ("atpg.podem.failed", "count"),
    ("atpg.podem.backtracks", "count"),
    ("atpg.podem.us_per_call", "us"),
    ("atpg.podem.wasted", "count"),
    ("atpg.fsim.time_s", "s"),
    ("atpg.fsim.replay_calls", "count"),
    ("atpg.fsim.replay_events", "count"),
    ("atpg.fsim.early_exits", "count"),
    ("atpg.fsim.ns_per_event", "ns"),
    ("atpg.fsim.detect_ratio", "ratio"),
    ("exec.pool.time_s", "s"),
    ("exec.pool.runs", "count"),
    ("exec.pool.busy_share", "ratio"),
    ("exec.pool.imbalance", "ratio"),
    ("serve.protocol.time_s", "s"),
    ("serve.engine.time_s", "s"),
    ("serve.lookup.p50_ms", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.parse_skips", "count"),
    ("serve.exec.warm.p50_ms", "ms"),
    ("serve.exec.dft.p50_ms", "ms"),
    ("serve.exec.eval.p50_ms", "ms"),
    ("serve.exec.inline.p50_ms", "ms"),
    ("serve.exec.cold.p50_ms", "ms"),
    ("serve.overhead.p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// A workload's entry point.
type Workload = fn(&Options) -> Result<Report, String>;

fn usage() -> String {
    "usage: flowbench --workload atpg|campaign|serve --seed N --seconds S --trace 0|1".into()
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((
        workload,
        Options {
            seed: seed.ok_or_else(usage)?,
            seconds: seconds.ok_or_else(usage)?,
            trace: trace.ok_or_else(usage)?,
        },
    ))
}

/// VmHWM (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs a short helper command and returns its trimmed stdout.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// The measured code version: the git commit when the checkout root is a
/// repository, otherwise an FNV-1a hash over every manifest and Rust
/// source under `crates/` and the root manifest (a checkout exported
/// without history still gets a stable identity).
fn code_version() -> String {
    if std::path::Path::new(".git").exists() {
        if let Some(commit) = command_output("git", &["rev-parse", "--short=12", "HEAD"]) {
            return commit;
        }
    }
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs") | Some("toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("tree-{:016x}", flh_serve::fnv1a(&bytes))
}

fn json_string(s: &str) -> String {
    flh_serve::render(&flh_serve::Json::String(s.to_string()))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("flowbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("flowbench: {message}");
            return ExitCode::from(2);
        }
    };
    let (width, run): (usize, Workload) = match workload.as_str() {
        "atpg" => (atpg::WIDTH, atpg::run),
        "campaign" => (campaign::WIDTH, campaign::run),
        "serve" => (serve::WIDTH, serve::run),
        other => {
            eprintln!("flowbench: unknown workload {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Pin the pool width before any thread exists: every pool the flow
    // builds from the environment sees the workload's width, never the
    // caller's.
    std::env::set_var(flh_exec::THREADS_ENV, width.to_string());

    let report = match run(&opts) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("flowbench: {workload}: {message}");
            return ExitCode::FAILURE;
        }
    };

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env = vec![
        ("workload", json_string(&workload)),
        ("seed", opts.seed.to_string()),
        ("trace", opts.trace.to_string()),
        (
            "nproc",
            command_output("nproc", &[])
                .and_then(|n| n.parse::<u64>().ok())
                .map_or("null".into(), |n| n.to_string()),
        ),
        ("available_parallelism", parallelism.to_string()),
        ("pool_width", width.to_string()),
        ("commit", json_string(&code_version())),
    ];
    env.extend(report.notes.iter().map(|(k, v)| (*k, json_string(v))));
    let env: Vec<String> = env.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("# flowbench env {{{}}}", env.join(","));

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = report.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("flowbench: {workload}: metric {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    for error in &report.errors {
        eprintln!("flowbench: {workload}: output check failed: {error}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the declaration in `BENCHMARK.json` at
    /// the repository root must name the same metrics with the same units.
    #[test]
    fn metric_tables_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc = flh_serve::parse_json(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_object().expect("BENCHMARK.json is an object");
        let declared = |key: &str| -> Vec<(String, String)> {
            let Some(flh_serve::Json::Array(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric is an object");
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, o) = parse_args(&args("--workload serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (w.as_str(), o.seed, o.seconds.as_secs(), o.trace),
            ("serve", 7, 3, true)
        );
        assert!(parse_args(&args("--workload serve --seed 7 --seconds 3")).is_err());
        assert!(parse_args(&args("--workload serve --seed x --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --seconds 3 --trace 2")).is_err());
    }
}
