//! Engine and session integration tests: JobEngine campaigns must equal
//! the direct pooled campaign API bit-for-bit, repeat runs must be served
//! from the compiled-circuit cache with identical batches, gated
//! sessions must expose deterministic back-pressure and cancel behavior,
//! and a panicking job must fail alone.

use std::sync::Arc;

use flh_atpg::{
    enumerate_transition_faults, transition_campaign_filtered, ApplicationStyle, StaticFilter,
    TestView,
};
use flh_exec::ThreadPool;
use flh_netlist::iscas89_profile;
use flh_serve::{
    BatchPayload, CircuitSource, JobEngine, JobEvent, JobId, JobSession, JobSpec, SubmitError,
};

const PAIRS: usize = 48;
const SEED: u64 = 0xfeed;

fn s298_spec() -> JobSpec {
    let profile = iscas89_profile("s298").expect("builtin profile");
    JobSpec::campaign(CircuitSource::profile(profile))
        .with_styles(vec![ApplicationStyle::ArbitraryTwoPattern])
        .with_pairs(PAIRS)
        .with_seed(SEED)
}

#[test]
fn engine_campaign_matches_direct_pooled_campaign() {
    let engine = JobEngine::new(ThreadPool::new(2), 4);
    let outcome = engine
        .run(JobId(1), &s298_spec(), &mut |_| {})
        .expect("campaign job");
    let BatchPayload::Campaign(ref via_engine) = outcome.batches[0] else {
        panic!("campaign job produced a non-campaign batch");
    };

    let profile = iscas89_profile("s298").expect("builtin profile");
    let netlist = CircuitSource::profile(profile)
        .load()
        .expect("builtin circuit generates");
    let view = TestView::new(&netlist).expect("acyclic builtin circuit");
    let faults = enumerate_transition_faults(&netlist);
    let filter = StaticFilter::from_view(&view);
    let direct = transition_campaign_filtered(
        &view,
        &faults,
        ApplicationStyle::ArbitraryTwoPattern,
        PAIRS,
        SEED,
        &ThreadPool::new(2),
        Some(&filter),
    );
    assert_eq!(via_engine.total_faults, direct.total_faults);
    assert_eq!(via_engine.detected, direct.detected);
    assert_eq!(via_engine.pairs, direct.pairs);
}

#[test]
fn repeat_run_hits_the_cache_with_identical_batches() {
    let engine = JobEngine::new(ThreadPool::new(1), 4);
    let spec = s298_spec();
    let mut events = Vec::new();
    let first = engine
        .run(JobId(1), &spec, &mut |e| events.push(e))
        .expect("first run");
    assert!(!first.cache.hit);
    let second = engine
        .run(JobId(2), &spec, &mut |e| events.push(e))
        .expect("second run");
    assert!(second.cache.hit && second.cache.parse_skipped);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.parse_skips), (1, 1, 1));

    assert_eq!(first.batches.len(), second.batches.len());
    for (a, b) in first.batches.iter().zip(&second.batches) {
        let (BatchPayload::Campaign(a), BatchPayload::Campaign(b)) = (a, b) else {
            panic!("campaign jobs produced non-campaign batches");
        };
        assert_eq!(a.total_faults, b.total_faults);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.pairs, b.pairs);
    }
    // Both runs streamed a Started and a Done event for their job.
    for id in [1, 2] {
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Started { job, .. } if job.0 == id)));
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Done { job, .. } if job.0 == id)));
    }
}

#[test]
fn campaign_progress_tracks_batches_and_matches_the_final_outcome() {
    let engine = JobEngine::new(ThreadPool::new(2), 4);
    let profile = iscas89_profile("s298").expect("builtin profile");
    let spec = JobSpec::campaign(CircuitSource::profile(profile))
        .with_styles(vec![
            ApplicationStyle::ArbitraryTwoPattern,
            ApplicationStyle::Broadside,
        ])
        .with_pairs(PAIRS)
        .with_seed(SEED);

    let mut events = Vec::new();
    let outcome = engine
        .run(JobId(1), &spec, &mut |e| events.push(e))
        .expect("campaign job");

    let progress: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Progress {
                done,
                batches,
                style,
                detected,
                coverage_pct,
                pairs_done,
                pairs_total,
                timing,
                ..
            } => Some((
                *done,
                *batches,
                style.clone(),
                *detected,
                *coverage_pct,
                *pairs_done,
                *pairs_total,
                timing.is_some(),
            )),
            _ => None,
        })
        .collect();
    assert_eq!(
        progress.len(),
        outcome.batches.len(),
        "one progress event per batch"
    );

    for (i, (done, batches, style, detected, coverage, pairs_done, pairs_total, timed)) in
        progress.iter().enumerate()
    {
        assert_eq!(*done, i + 1);
        assert_eq!(*batches, outcome.batches.len());
        assert_eq!(*pairs_total, 2 * PAIRS);
        assert_eq!(*pairs_done, (i + 1) * PAIRS);
        assert!(!timed, "timings are off by default");
        // Each progress event restates its batch's result exactly.
        let BatchPayload::Campaign(ref result) = outcome.batches[i] else {
            panic!("campaign job produced a non-campaign batch");
        };
        assert_eq!(style, &result.style.to_string());
        assert_eq!(*detected, result.detected);
        assert!((coverage - result.coverage_pct()).abs() < 1e-9);
    }
    // The final event's coverage IS the job's final per-style outcome.
    let last = progress.last().expect("progress streamed");
    assert_eq!(last.5, last.6, "final progress covers all pairs");

    // Opting into timings fills the wall-clock fields — and only then.
    let timed_engine = JobEngine::new(ThreadPool::new(2), 4).with_timings(true);
    assert!(timed_engine.timings());
    let mut timed_events = Vec::new();
    timed_engine
        .run(JobId(2), &spec, &mut |e| timed_events.push(e))
        .expect("timed campaign job");
    let timings: Vec<_> = timed_events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Progress { timing, .. } => Some(*timing),
            _ => None,
        })
        .collect();
    assert!(!timings.is_empty());
    for t in timings {
        let t = t.expect("--timings populates every progress event");
        assert!(t.pairs_per_s > 0.0);
    }
}

#[test]
fn gated_session_backpressure_cancel_and_event_order() {
    let engine = Arc::new(JobEngine::new(ThreadPool::new(1), 4));
    let mut session = JobSession::new(Arc::clone(&engine), 2);

    // The gate is closed: both submissions sit in the bounded queue, so
    // the third is rejected with back-pressure rather than blocking.
    let first = session.submit(s298_spec()).expect("first submit");
    let second = session.submit(s298_spec()).expect("second submit");
    assert_eq!((first.0, second.0), (1, 2));
    assert!(matches!(
        session.submit(s298_spec()),
        Err(SubmitError::QueueFull)
    ));

    // Cancelling a queued job before any barrier runs is deterministic.
    assert!(session.cancel(second));
    assert!(
        !session.cancel(JobId(99)),
        "unknown ids are not cancellable"
    );

    let mut events = Vec::new();
    let retired = session.wait(&mut |e| events.push(e));
    assert_eq!(retired, 2);
    // Job 1 runs to completion before the cancelled job 2 is retired.
    let order: Vec<(u64, bool)> = events
        .iter()
        .map(|e| (e.job().0, e.is_terminal()))
        .collect();
    assert_eq!(order.first(), Some(&(1, false)), "job 1 starts first");
    assert!(
        matches!(events.last(), Some(JobEvent::Cancelled { job }) if job.0 == 2),
        "cancelled job retires last: {order:?}"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, JobEvent::Done { job, .. } if job.0 == 1)));

    // After the barrier the queue has drained: submissions flow again.
    let third = session.submit(s298_spec()).expect("post-wait submit");
    assert_eq!(third.0, 3);
    let mut tail = Vec::new();
    let summary = session.shutdown(&mut |e| tail.push(e));
    assert_eq!(summary.submitted, 3);
    assert_eq!(summary.completed, 3);
    // The resubmitted spec was served from the cache.
    assert!(summary.cache.hits >= 1);
    assert!(
        matches!(tail.last(), Some(JobEvent::Done { job, .. }) if job.0 == 3),
        "shutdown drains the remaining job"
    );
}

#[test]
fn a_panicking_job_fails_alone() {
    // Width 2 panics on a pool worker thread (where the host has two
    // cores), width 1 inline on the executor thread.
    for width in [1, 2] {
        let engine = Arc::new(JobEngine::new(ThreadPool::new(width), 4).corrupt_panic_on("s344"));
        let mut session = JobSession::new(Arc::clone(&engine), 4);
        let s344 = iscas89_profile("s344").expect("builtin profile");
        let bad = session
            .submit(JobSpec::campaign(CircuitSource::profile(s344)).with_pairs(PAIRS))
            .expect("submit");
        let good = session.submit(s298_spec()).expect("submit");

        let mut events = Vec::new();
        assert_eq!(session.wait(&mut |e| events.push(e)), 2, "width {width}");
        let terminal: Vec<&JobEvent> = events.iter().filter(|e| e.is_terminal()).collect();
        assert_eq!(terminal.len(), 2, "one terminal event per job: {events:?}");
        match terminal[0] {
            JobEvent::Failed { job, reason } => {
                assert_eq!(*job, bad);
                assert!(
                    reason.starts_with("panic: corrupt_panic_on: job-1 panicked"),
                    "the panic message reaches the event: {reason}"
                );
            }
            other => panic!("job 1 should fail, got {other:?}"),
        }
        assert!(matches!(terminal[1], JobEvent::Done { job, .. } if *job == good));
        let stats = session.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.in_flight),
            (2, 2, 0)
        );

        // The executor survived the panic: a later job still runs.
        let third = session.submit(s298_spec()).expect("post-panic submit");
        let mut tail = Vec::new();
        let summary = session.shutdown(&mut |e| tail.push(e));
        assert_eq!((summary.submitted, summary.completed), (3, 3));
        assert!(matches!(tail.last(), Some(JobEvent::Done { job, .. }) if *job == third));
    }
}
