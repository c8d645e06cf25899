//! Protocol-level integration tests: canonical request round-trips,
//! malformed-input error replies (the server must answer in-band, never
//! panic), the compiled-circuit cache observed through a scripted
//! session, and byte-identical transcripts across pool widths.

use std::io::BufReader;
use std::sync::Arc;

use flh_exec::ThreadPool;
use flh_serve::{
    parse_json, parse_request, render_request, serve_lines, JobEngine, Json, ServeConfig,
};

/// Runs one scripted session over in-memory buffers and returns the
/// response lines.
fn transcript(script: &str, workers: usize) -> Vec<String> {
    let engine = Arc::new(JobEngine::new(ThreadPool::new(workers), 8));
    let mut out = Vec::new();
    serve_lines(
        BufReader::new(script.as_bytes()),
        &mut out,
        engine,
        ServeConfig::default(),
    )
    .expect("in-memory transport cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn canonical_request_lines_round_trip() {
    let canonical = [
        r#"{"op":"status"}"#,
        r#"{"op":"stats"}"#,
        r#"{"full":true,"op":"stats"}"#,
        r#"{"op":"wait"}"#,
        r#"{"op":"shutdown"}"#,
        r#"{"job":"job-3","op":"cancel"}"#,
        r#"{"circuit":"s298","kind":"campaign","op":"submit","pairs":96,"seed":7,"styles":["arbitrary","broadside","skewed"]}"#,
        r#"{"circuit":"s344","dft":"flh","kind":"campaign","op":"submit","pairs":32,"seed":11,"styles":["arbitrary"]}"#,
        r#"{"circuit":"s420","kind":"eval","op":"submit","styles":["plain","enhanced","mux","flh"],"vectors":64}"#,
        r#"{"bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","kind":"eval","name":"inv","op":"submit","styles":["plain","flh"],"vectors":16}"#,
    ];
    for line in canonical {
        let request = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(render_request(&request), line, "round trip of {line}");
    }
}

#[test]
fn sparse_submits_normalize_to_explicit_canonical_form() {
    // A minimal submit renders with every campaign knob made explicit.
    let request = parse_request(r#"{"op":"submit","circuit":"s298"}"#).expect("parse");
    let rendered = render_request(&request);
    assert_eq!(
        rendered,
        r#"{"circuit":"s298","kind":"campaign","op":"submit","pairs":256,"seed":7,"styles":["arbitrary","broadside","skewed"]}"#
    );
    // Rendering is idempotent: canonical text parses back to itself.
    let again = parse_request(&rendered).expect("canonical text parses");
    assert_eq!(render_request(&again), rendered);
    // Styles also accept the comma-list spelling and alias names.
    let listed =
        parse_request(r#"{"op":"submit","circuit":"s298","styles":"atp,bs"}"#).expect("parse");
    let listed = render_request(&listed);
    assert!(
        listed.contains(r#""styles":["arbitrary","broadside"]"#),
        "{listed}"
    );
}

#[test]
fn malformed_requests_get_error_replies_not_panics() {
    let script = concat!(
        "this is not json\n",
        "[1,2,3]\n",
        "{\"op\":\"frobnicate\"}\n",
        "{\"op\":\"submit\"}\n",
        "{\"op\":\"submit\",\"circuit\":\"s298\",\"bench\":\"x\"}\n",
        "{\"op\":\"submit\",\"circuit\":\"no-such-circuit\"}\n",
        "{\"op\":\"submit\",\"circuit\":\"s298\",\"kind\":\"nope\"}\n",
        "{\"op\":\"submit\",\"circuit\":\"s298\",\"styles\":\"warp-speed\"}\n",
        "{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":-4}\n",
        "{\"op\":\"cancel\"}\n",
        "{\"op\":\"cancel\",\"job\":\"job-99\"}\n",
        "{\"op\":\"shutdown\"}\n",
    );
    let lines = transcript(script, 1);
    // Every response line is itself valid JSON.
    for line in &lines {
        parse_json(line).unwrap_or_else(|e| panic!("unparsable response {line}: {e}"));
    }
    // Ten problems -> ten error lines, in request order.
    let errors: Vec<_> = lines
        .iter()
        .filter(|l| l.starts_with(r#"{"error""#))
        .collect();
    assert_eq!(errors.len(), 10, "{lines:#?}");
    assert!(errors[0].contains("expected"), "{}", errors[0]);
    assert!(errors[2].contains("unknown op"), "{}", errors[2]);
    assert!(
        errors[3].contains("circuit name or bench text"),
        "{}",
        errors[3]
    );
    assert!(errors[4].contains("not both"), "{}", errors[4]);
    assert!(errors[5].contains("not a builtin profile"), "{}", errors[5]);
    assert!(errors[6].contains("unknown kind"), "{}", errors[6]);
    assert!(
        errors[7].contains("unknown application style"),
        "{}",
        errors[7]
    );
    assert!(errors[9].contains("cancel needs"), "{}", errors[9]);
    // The unknown-but-well-formed cancel is acknowledged, not an error.
    assert!(
        lines.iter().any(|l| l.contains(r#""known":false"#)),
        "{lines:#?}"
    );
    // The session still shuts down cleanly with an empty summary.
    let bye = lines.last().expect("bye line");
    assert!(
        bye.contains(r#""bye""#) && bye.contains(r#""submitted":0"#),
        "{bye}"
    );
}

#[test]
fn one_deeply_nested_line_gets_one_error_and_the_session_goes_on() {
    let script = "[".repeat(200_000)
        + "\n{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":32,\"seed\":7}\n"
        + "{\"op\":\"wait\"}\n{\"op\":\"shutdown\"}\n";
    let lines = transcript(&script, 1);
    let errors: Vec<_> = lines
        .iter()
        .filter(|l| l.starts_with(r#"{"error""#))
        .collect();
    assert_eq!(errors.len(), 1, "{lines:#?}");
    assert!(errors[0].contains("nesting deeper than"), "{}", errors[0]);
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"done""#)),
        "{lines:#?}"
    );
}

#[test]
fn a_control_character_in_a_request_is_escaped_in_the_error_reply() {
    let lines = transcript("{\"op\":\"submit\",\"circuit\":\"s29\u{1}8\"}\n", 1);
    let error = &lines[0];
    assert!(
        error.bytes().all(|b| b >= 0x20),
        "raw control byte in {error:?}"
    );
    let reason = field(error, "error").expect("an error reply");
    assert!(
        reason.as_str().is_some_and(|r| r.contains('\u{1}')),
        "{error}"
    );
}

#[test]
fn unicode_escapes_in_requests_decode() {
    // Standard encoders may write any character as a `\uXXXX` escape.
    let script = concat!(
        "{\"op\":\"submit\",\"circuit\":\"s29\\u0038\",\"pairs\":8,\"seed\":7}\n",
        "{\"op\":\"wait\"}\n",
    );
    let lines = transcript(script, 1);
    assert_eq!(
        lines[0], r#"{"event":"accepted","job":"job-1"}"#,
        "{lines:#?}"
    );
    let started = lines
        .iter()
        .find(|l| l.contains(r#""event":"started""#))
        .expect("the job starts");
    assert_eq!(
        field(started, "circuit"),
        Some(Json::String("s298".into())),
        "{started}"
    );
}

/// The scripted session the cache and width tests share: two distinct
/// circuits plus an exact duplicate of the first submission.
const CACHE_SCRIPT: &str = concat!(
    "{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":32,\"seed\":7}\n",
    "{\"op\":\"submit\",\"circuit\":\"s344\",\"pairs\":32,\"seed\":7}\n",
    "{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":32,\"seed\":7}\n",
    "{\"op\":\"status\"}\n",
    "{\"op\":\"wait\"}\n",
    "{\"op\":\"shutdown\"}\n",
);

fn field(line: &str, key: &str) -> Option<Json> {
    let value = parse_json(line).ok()?;
    let map = value.as_object()?;
    map.get(key).cloned()
}

#[test]
fn duplicate_submission_is_served_from_the_cache() {
    let lines = transcript(CACHE_SCRIPT, 1);
    let started: Vec<_> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"started""#))
        .collect();
    assert_eq!(started.len(), 3, "{lines:#?}");
    // Jobs 1 and 2 compile fresh; the duplicate job 3 hits the cache and
    // skips the parse/generate step entirely.
    assert!(started[0].contains(r#""cache":"miss""#), "{}", started[0]);
    assert!(started[1].contains(r#""cache":"miss""#), "{}", started[1]);
    assert!(
        started[2].contains(r#""cache":"hit""#) && started[2].contains(r#""parse_skipped":true"#),
        "{}",
        started[2]
    );
    // Identical spec + shared compiled circuit -> identical batch lines,
    // differing only in the job id.
    let batches = |job: &str| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.contains(r#""event":"batch""#))
            .filter(|l| l.contains(&format!(r#""job":"{job}""#)))
            .map(|l| l.replace(&format!(r#""job":"{job}""#), r#""job":"X""#))
            .collect()
    };
    let first = batches("job-1");
    assert!(!first.is_empty());
    assert_eq!(first, batches("job-3"));
    // The farewell summary carries the cache counters.
    let bye = lines.last().expect("bye line");
    let cache = field(bye, "cache").expect("bye cache object");
    let cache = cache.as_object().expect("cache is an object");
    assert_eq!(cache.get("hits"), Some(&Json::Number(1.0)), "{bye}");
    assert_eq!(cache.get("misses"), Some(&Json::Number(2.0)), "{bye}");
    assert_eq!(cache.get("parse_skips"), Some(&Json::Number(1.0)), "{bye}");
}

#[test]
fn transcripts_are_byte_identical_across_pool_widths() {
    let narrow = transcript(CACHE_SCRIPT, 1);
    let wide = transcript(CACHE_SCRIPT, 4);
    assert_eq!(narrow, wide);
}

/// CACHE_SCRIPT with `stats` probes before and after the barrier, plus a
/// full variant at the end.
const STATS_SCRIPT: &str = concat!(
    "{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":32,\"seed\":7}\n",
    "{\"op\":\"submit\",\"circuit\":\"s298\",\"pairs\":32,\"seed\":7}\n",
    "{\"op\":\"status\"}\n",
    "{\"op\":\"stats\"}\n",
    "{\"op\":\"wait\"}\n",
    "{\"op\":\"stats\"}\n",
    "{\"op\":\"stats\",\"full\":true}\n",
    "{\"op\":\"shutdown\"}\n",
);

fn number(line: &str, key: &str) -> f64 {
    match field(line, key) {
        Some(Json::Number(n)) => n,
        other => panic!("{key} is {other:?} in {line}"),
    }
}

#[test]
fn stats_and_status_carry_the_session_ledger() {
    // NOTE: no flh-obs recorder installed here (tests share a process, so
    // protocol tests never install one) — the deterministic metrics slot
    // of a stats reply must then be an explicit null, not absent.
    let lines = transcript(STATS_SCRIPT, 1);

    let status = lines
        .iter()
        .find(|l| l.contains(r#""event":"status""#))
        .expect("status line");
    for key in [
        "submitted",
        "completed",
        "rejected",
        "cancelled",
        "in_flight",
    ] {
        assert!(
            matches!(field(status, key), Some(Json::Number(_))),
            "status lacks {key}: {status}"
        );
    }
    assert_eq!(number(status, "submitted"), 2.0, "{status}");
    assert_eq!(number(status, "in_flight"), 2.0, "gate is closed: {status}");

    let stats: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"stats""#))
        .collect();
    assert_eq!(stats.len(), 3, "{lines:#?}");

    // Before the barrier: both jobs pending, nothing run, cache untouched.
    assert_eq!(number(stats[0], "in_flight"), 2.0, "{}", stats[0]);
    assert_eq!(number(stats[0], "completed"), 0.0, "{}", stats[0]);
    assert_eq!(field(stats[0], "metrics"), Some(Json::Null), "{}", stats[0]);

    // After the barrier: both retired, the duplicate hit the cache.
    assert_eq!(number(stats[1], "completed"), 2.0, "{}", stats[1]);
    assert_eq!(number(stats[1], "in_flight"), 0.0, "{}", stats[1]);
    let cache = field(stats[1], "cache").expect("cache object");
    let cache = cache.as_object().expect("cache is an object");
    assert_eq!(cache.get("hits"), Some(&Json::Number(1.0)), "{}", stats[1]);
    assert!(
        field(stats[1], "latency").is_none(),
        "plain stats must not carry the wall-clock ledger: {}",
        stats[1]
    );

    // The full variant adds the nondeterministic section and one latency
    // entry per retired job (wall >= exec for an executed job).
    let full = stats[2];
    assert!(field(full, "nondeterministic").is_some(), "{full}");
    let Some(Json::Array(latency)) = field(full, "latency") else {
        panic!("full stats lacks latency array: {full}");
    };
    assert_eq!(latency.len(), 2, "{full}");
    for entry in &latency {
        let entry = entry.as_object().expect("latency entry");
        let wall = entry["wall_ms"].as_f64().expect("wall_ms");
        let exec = entry["exec_ms"].as_f64().expect("exec_ms");
        assert!(wall >= exec && exec > 0.0, "{full}");
    }
}

#[test]
fn campaign_batches_stream_matching_progress_events() {
    let lines = transcript(CACHE_SCRIPT, 1);
    let batches: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"batch""#))
        .collect();
    let progress: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"progress""#))
        .collect();
    assert_eq!(
        batches.len(),
        progress.len(),
        "one progress event per campaign batch: {lines:#?}"
    );
    assert!(!progress.is_empty());

    for (batch, prog) in batches.iter().zip(&progress) {
        // Each progress event mirrors the batch it follows.
        for key in ["job", "style"] {
            assert_eq!(field(batch, key), field(prog, key), "{batch} vs {prog}");
        }
        for key in ["coverage_pct", "detected", "faults"] {
            assert_eq!(number(batch, key), number(prog, key), "{batch} vs {prog}");
        }
        // Default transcripts are clock-free: the wall-clock fields only
        // appear when the server opted into --timings.
        assert!(field(prog, "pairs_per_s").is_none(), "{prog}");
        assert!(field(prog, "eta_ms").is_none(), "{prog}");
    }

    // Per job, `done` counts 1..=batches and the last event covers every
    // pair the spec asked for.
    for job in ["job-1", "job-2", "job-3"] {
        let mine: Vec<&&String> = progress
            .iter()
            .filter(|l| l.contains(&format!(r#""job":"{job}""#)))
            .collect();
        assert!(!mine.is_empty(), "{job} streamed no progress");
        for (i, line) in mine.iter().enumerate() {
            assert_eq!(number(line, "done"), (i + 1) as f64, "{line}");
            assert_eq!(number(line, "batches"), mine.len() as f64, "{line}");
        }
        let last = mine.last().expect("at least one");
        assert_eq!(
            number(last, "pairs_done"),
            number(last, "pairs_total"),
            "final progress covers the full spec: {last}"
        );
    }
}
