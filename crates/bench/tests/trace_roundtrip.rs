//! Chrome trace-event round trip: emit a trace with `flh_obs`, re-parse
//! the file with the workspace's JSON parser ([`flh_obs::json`]), and check
//! that the file is in canonical form (the render of its own parse) and
//! that the events are well-formed complete events (`ph: "X"`, numeric
//! `ts`/`dur`) whose interval nesting reproduces the span nesting that
//! produced them — truncating start and end to microseconds independently
//! must never push a child outside its parent. A second part runs a gated
//! `flh serve` session and checks the executor thread's `serve.job.exec`
//! spans: sequential, one per job, and nested correctly per thread.
//!
//! One `#[test]` only: the flh-obs registry is process-global and this
//! file is its own test process.

use std::time::Duration;

use flh_obs::{parse_json, render, Json};

/// Pulls one required member out of a parsed object.
fn member<'j>(event: &'j Json, key: &str) -> &'j Json {
    let Json::Object(map) = event else {
        panic!("trace event is not an object")
    };
    map.get(key)
        .unwrap_or_else(|| panic!("trace event lacks {key:?}"))
}

fn number(event: &Json, key: &str) -> f64 {
    let Json::Number(n) = member(event, key) else {
        panic!("{key:?} is not a number")
    };
    *n
}

fn string<'j>(event: &'j Json, key: &str) -> &'j str {
    let Json::String(s) = member(event, key) else {
        panic!("{key:?} is not a string")
    };
    s
}

/// `a` contains `b` as a closed interval.
fn contains(a: &Json, b: &Json) -> bool {
    let (a0, b0) = (number(a, "ts"), number(b, "ts"));
    a0 <= b0 && b0 + number(b, "dur") <= a0 + number(a, "dur")
}

#[test]
fn trace_events_roundtrip_and_nest_like_spans() {
    flh_obs::install(true);
    flh_obs::reset();

    // outer > (middle > inner), sibling — drop order: inner, middle,
    // sibling, outer. The sleeps keep every interval comfortably wider
    // than the microsecond truncation of the exporter.
    {
        let _outer = flh_obs::span("outer");
        std::thread::sleep(Duration::from_millis(2));
        {
            let _middle = flh_obs::span("middle");
            std::thread::sleep(Duration::from_millis(2));
            let _inner = flh_obs::span("inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        let _sibling = flh_obs::span("sibling");
        std::thread::sleep(Duration::from_millis(2));
    }

    let path = std::env::temp_dir().join("flh_trace_roundtrip.json");
    flh_obs::write_trace(&path).expect("write trace file");
    let text = std::fs::read_to_string(&path).expect("read trace file back");

    let doc = parse_json(&text).expect("trace file parses with the in-house parser");
    assert_eq!(render(&doc) + "\n", text, "trace file is in canonical form");
    assert_eq!(string(&doc, "displayTimeUnit"), "ms");
    let Json::Array(events) = member(&doc, "traceEvents") else {
        panic!("traceEvents is not an array")
    };
    assert_eq!(events.len(), 4, "one complete event per closed span");

    // Well-formed complete events, in span-close order.
    let names: Vec<&str> = events.iter().map(|e| string(e, "name")).collect();
    assert_eq!(names, ["inner", "middle", "sibling", "outer"]);
    for event in events {
        assert_eq!(string(event, "ph"), "X");
        assert_eq!(string(event, "cat"), "flh");
        assert_eq!(number(event, "pid"), 1.0);
        assert!(number(event, "tid") >= 1.0);
        assert!(number(event, "ts") >= 0.0);
        assert!(number(event, "dur") >= 0.0);
        let Json::Number(_) = member(member(event, "args"), "depth") else {
            panic!("args.depth is not a number")
        };
    }

    // Interval nesting reproduces the span nesting.
    let (inner, middle, sibling, outer) = (&events[0], &events[1], &events[2], &events[3]);
    assert_eq!(number(member(outer, "args"), "depth"), 0.0);
    assert_eq!(number(member(middle, "args"), "depth"), 1.0);
    assert_eq!(number(member(sibling, "args"), "depth"), 1.0);
    assert_eq!(number(member(inner, "args"), "depth"), 2.0);
    assert!(contains(outer, middle), "middle must nest inside outer");
    assert!(contains(outer, sibling), "sibling must nest inside outer");
    assert!(contains(outer, inner), "inner must nest inside outer");
    assert!(contains(middle, inner), "inner must nest inside middle");
    assert!(
        !contains(middle, sibling) && !contains(sibling, middle),
        "siblings must not nest"
    );

    // Part two — the same exporter under an `flh serve` session: the
    // gated executor thread runs jobs inside `serve.job.exec` spans, and
    // the exported intervals must nest correctly *per thread* (one
    // executor thread plus whatever the pool workers record).
    flh_obs::reset();
    {
        use std::sync::Arc;
        let engine = Arc::new(flh_serve::JobEngine::new(flh_exec::ThreadPool::new(2), 4));
        let mut session = flh_serve::JobSession::new(engine, 8);
        let profile = flh_netlist::iscas89_profile("s298").expect("builtin profile");
        let spec = flh_serve::JobSpec::campaign(flh_serve::CircuitSource::profile(profile))
            .with_pairs(8)
            .with_seed(3);
        session.submit(spec.clone()).expect("submit 1");
        session.submit(spec).expect("submit 2");
        let summary = session.shutdown(&mut |_| {});
        assert_eq!(summary.completed, 2);
    }
    let serve_path = std::env::temp_dir().join("flh_trace_serve_roundtrip.json");
    flh_obs::write_trace(&serve_path).expect("write serve trace file");
    let text = std::fs::read_to_string(&serve_path).expect("read serve trace back");
    let doc = parse_json(&text).expect("serve trace parses");
    let Json::Array(events) = member(&doc, "traceEvents") else {
        panic!("traceEvents is not an array")
    };

    // Two jobs -> two executor spans, both on the same (executor) thread,
    // run strictly one after the other.
    let exec: Vec<&Json> = events
        .iter()
        .filter(|e| string(e, "name") == "serve.job.exec")
        .collect();
    assert_eq!(exec.len(), 2, "one serve.job.exec span per job");
    assert_eq!(number(exec[0], "tid"), number(exec[1], "tid"));
    let (a, b) = (exec[0], exec[1]);
    let (a_end, b_end) = (
        number(a, "ts") + number(a, "dur"),
        number(b, "ts") + number(b, "dur"),
    );
    assert!(
        a_end <= number(b, "ts") || b_end <= number(a, "ts"),
        "gated jobs execute sequentially, never overlapping"
    );

    // Per-thread nesting: every depth-d event (d > 0) sits inside some
    // same-thread event one level shallower.
    assert!(!events.is_empty());
    for event in events {
        let depth = number(member(event, "args"), "depth");
        if depth == 0.0 {
            continue;
        }
        let parent = events.iter().any(|p| {
            number(p, "tid") == number(event, "tid")
                && number(member(p, "args"), "depth") == depth - 1.0
                && contains(p, event)
        });
        assert!(
            parent,
            "depth-{depth} span {:?} on tid {} has no enclosing parent",
            string(event, "name"),
            number(event, "tid")
        );
    }
}
