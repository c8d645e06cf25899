//! End-to-end smoke tests of the `flh` command-line tool.

use std::process::Command;

fn flh(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flh"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_all_profiles() {
    let (ok, stdout, _) = flh(&["list"]);
    assert!(ok);
    for name in ["s298", "s5378", "s13207"] {
        assert!(stdout.contains(name), "{name} missing");
    }
}

#[test]
fn stats_on_builtin_profile() {
    let (ok, stdout, _) = flh(&["stats", "s344"]);
    assert!(ok);
    assert!(stdout.contains("15 FF"));
    assert!(stdout.contains("unique first-level gates"));
}

#[test]
fn eval_prints_all_styles() {
    let (ok, stdout, _) = flh(&["eval", "s298"]);
    assert!(ok);
    for style in ["plain scan", "enhanced scan", "MUX-based", "FLH"] {
        assert!(stdout.contains(style), "{style} missing");
    }
}

#[test]
fn apply_exports_every_format() {
    let (ok, bench, _) = flh(&["apply", "s298", "flh", "--bench"]);
    assert!(ok);
    assert!(bench.contains("SDFF("));
    let (ok, verilog, stderr) = flh(&["apply", "s298", "flh", "--verilog"]);
    assert!(ok);
    assert!(verilog.contains("module s298"));
    assert!(stderr.contains("supply-gated first-level gates"));
    let (ok, dot, _) = flh(&["apply", "s298", "enhanced", "--dot"]);
    assert!(ok);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("HOLDL"));
}

#[test]
fn atpg_then_fsim_round_trip() {
    let dir = std::env::temp_dir().join(format!("flh_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("patterns.txt");
    let (ok, _, stderr) = flh(&["atpg", "s298", "--out", file.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("coverage"));
    let (ok, stdout, _) = flh(&["fsim", "s298", file.to_str().unwrap()]);
    assert!(ok);
    // The resimulated coverage equals the generated coverage.
    let gen_cov = stderr
        .split('%')
        .next()
        .and_then(|s| s.rsplit(' ').next())
        .and_then(|s| s.parse::<f64>().ok())
        .expect("coverage in atpg output");
    assert!(stdout.contains(&format!("{gen_cov:.2}%")), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_file_input_works() {
    let dir = std::env::temp_dir().join(format!("flh_cli_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("tiny.bench");
    std::fs::write(
        &file,
        "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nf = DFF(g)\ng = NAND(a, b, f)\nq = NOT(f)\n",
    )
    .expect("write bench");
    let (ok, stdout, stderr) = flh(&["stats", file.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("1 FF"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let (ok, _, stderr) = flh(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = flh(&["apply", "s298", "warp-drive"]);
    assert!(!ok);
    assert!(stderr.contains("unknown style"));
    let (ok, _, stderr) = flh(&["stats", "/nonexistent/file.bench"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

/// Golden output: the lowered bytecode of the fixed s298 profile. The
/// generator, fusion and regalloc are all deterministic, so the header,
/// opcode histogram and level occupancy are stable byte for byte — any
/// drift here is an unintended lowering change.
#[test]
fn disasm_golden_s298() {
    let (ok, stdout, stderr) = flh(&["disasm", "s298"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.starts_with("; 125 insts, 156 micro-ops fused away, 0 scratch words, 10 batches\n"),
        "header drifted:\n{}",
        stdout.lines().next().unwrap_or("")
    );
    let histogram = "\
opcode histogram (125 instructions):
  Copy             12    9.6%
  Not              10    8.0%
  And               1    0.8%
  Nand             40   32.0%
  Or                5    4.0%
  Nor              21   16.8%
  Xor               7    5.6%
  Xnor              3    2.4%
  Aoi21            12    9.6%
  Aoi22             7    5.6%
  Oai21             4    3.2%
  Oai22             3    2.4%
";
    assert!(stdout.contains(histogram), "histogram drifted:\n{stdout}");
    let occupancy = "\
level occupancy (level: batches / instructions):
  L1       1 batch(es)        29 inst
  L2       1 batch(es)        24 inst
  L3       1 batch(es)        17 inst
  L4       1 batch(es)        14 inst
  L5       1 batch(es)         7 inst
  L6       1 batch(es)        11 inst
  L7       1 batch(es)         6 inst
  L8       1 batch(es)         6 inst
  L9       1 batch(es)         6 inst
  L10      1 batch(es)         5 inst
";
    assert!(stdout.contains(occupancy), "occupancy drifted:\n{stdout}");
}

/// `flh top --script` replays a protocol script in-process and renders one
/// dashboard frame per `stats` response — deterministic (no clock in the
/// script path), so the frames can be asserted exactly.
#[test]
fn top_script_renders_deterministic_dashboard_frames() {
    let dir = std::env::temp_dir().join(format!("flh_cli_top_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("session.jsonl");
    std::fs::write(
        &script,
        concat!(
            "{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":16,\"seed\":3,\
\"styles\":\"arbitrary,broadside\"}\n",
            "{\"op\":\"stats\"}\n",
            "{\"op\":\"wait\"}\n",
            "{\"op\":\"stats\"}\n",
            "{\"op\":\"shutdown\"}\n",
        ),
    )
    .expect("write script");

    let (ok, stdout, stderr) = flh(&["top", "--script", script.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    // Two stats probes -> two frames.
    assert!(stdout.contains("── flh top · poll 1 ──"), "{stdout}");
    assert!(stdout.contains("── flh top · poll 2 ──"), "{stdout}");
    // Frame one: the job is queued behind the closed gate.
    assert!(
        stdout.contains("jobs      submitted 1  completed 0  in-flight 1"),
        "{stdout}"
    );
    // Frame two: retired, with the campaign's work and coverage visible.
    assert!(
        stdout.contains("jobs      submitted 1  completed 1  in-flight 0"),
        "{stdout}"
    );
    assert!(stdout.contains("work      pairs 32"), "{stdout}");
    assert!(stdout.contains("coverage  arbitrary "), "{stdout}");
    assert!(stdout.contains("broadside "), "{stdout}");

    // A script with no stats probes is an error, not an empty dashboard.
    let empty = dir.join("no_stats.jsonl");
    std::fs::write(&empty, "{\"op\":\"status\"}\n").expect("write script");
    let (ok, _, stderr) = flh(&["top", "--script", empty.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no stats responses"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `flh analyze` smoke + invariants: the verifier is clean on every style
/// row, and `--check-sim` certifies prune consistency on the grep-able line
/// CI gates on.
#[test]
fn analyze_reports_clean_verifier_and_prune_consistency() {
    let (ok, stdout, stderr) = flh(&["analyze", "s344", "--check-sim"]);
    assert!(ok, "{stderr}");
    assert_eq!(
        stdout.matches("clean (").count(),
        5,
        "five style rows, all clean:\n{stdout}"
    );
    assert!(stdout.contains("prune-consistency: OK"), "{stdout}");
}

/// Runs `flh ARGS --metrics-det-json` at one pool width and returns the
/// deterministic metrics document it wrote.
fn det_metrics(args: &[&str], threads: &str, out: &std::path::Path) -> Vec<u8> {
    let run = Command::new(env!("CARGO_BIN_EXE_flh"))
        .args(args)
        .arg("--metrics-det-json")
        .arg(out)
        .env("FLH_THREADS", threads)
        .output()
        .expect("binary runs");
    assert!(
        run.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::read(out).expect("metrics document written")
}

/// Golden counts: every deterministic counter of three fixed flows must
/// match the committed document byte for byte. An algorithmic change
/// moves a count (PODEM decisions and aborts, redundancy-pass prunes,
/// replay events, early exits, superword calls and lanes per call), so
/// the check needs no tolerance. `analyze --check-sim` is the one golden
/// flow that runs stuck-at fault simulation. The campaign and analyze
/// documents must also not depend on the pool width. A change that moves
/// a count regenerates the golden with the same command. Each golden is
/// in canonical form: the render of its own parse.
#[test]
fn deterministic_metrics_match_the_goldens() {
    let dir = std::env::temp_dir().join(format!("flh_cli_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let flows: [(&str, &[&str], &[&str]); 3] = [
        ("atpg_s1196", &["atpg", "s1196"], &["1"]),
        (
            "campaign_s9234",
            &["campaign", "s9234", "--pairs", "192", "--seed", "7"],
            &["1", "2"],
        ),
        (
            "analyze_s1196",
            &["analyze", "s1196", "--check-sim"],
            &["1", "2"],
        ),
    ];
    for (name, args, widths) in flows {
        let golden_path = format!(
            "{}/tests/golden/{name}.det.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read(&golden_path).expect("golden document present");
        let text = String::from_utf8(golden.clone()).expect("golden is UTF-8");
        let value = flh_obs::parse_json(&text).expect("golden parses");
        assert_eq!(
            flh_obs::render(&value) + "\n",
            text,
            "{golden_path} is not canonical"
        );
        for &threads in widths {
            let got = det_metrics(args, threads, &dir.join(format!("{name}_{threads}.json")));
            assert!(
                got == golden,
                "{name} at FLH_THREADS={threads} differs from {golden_path}:\n{}",
                String::from_utf8_lossy(&got)
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Pinned serve protocol bytes: the scripted `flh serve` session of
/// `tests/golden/serve_smoke.requests.jsonl` (three campaign jobs, one a
/// cache hit, with `status` and two `stats` probes) must reproduce
/// `tests/golden/serve_smoke.jsonl` byte for byte at every pool width,
/// the metrics inside its `done` and `stats` replies included.
#[test]
fn serve_transcript_matches_the_golden() {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let script =
        std::fs::read(format!("{golden_dir}/serve_smoke.requests.jsonl")).expect("script present");
    let golden = std::fs::read(format!("{golden_dir}/serve_smoke.jsonl")).expect("golden present");
    for threads in ["1", "2"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_flh"))
            .arg("serve")
            .env("FLH_THREADS", threads)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        {
            use std::io::Write;
            let mut stdin = child.stdin.take().expect("stdin piped");
            stdin.write_all(&script).expect("script written");
        }
        let out = child.wait_with_output().expect("session ends");
        assert!(out.status.success());
        assert!(
            out.stdout == golden,
            "serve transcript at FLH_THREADS={threads} differs from the golden:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
