//! Pins the counts of a pooled transition campaign at several pool widths.
//! The pooled campaign deals its level-sorted fault list out to the
//! workers in 64-fault chunks; a deal must never change which faults are
//! detected. s1196's 1122 faults make 18 chunks, so every width above 1
//! below really deals (width 3 unevenly), and 600 pairs leave a partial
//! last 256-lane block.

use flh::exec::ThreadPool;
use flh::serve::{
    BatchPayload, CircuitSource, JobEngine, JobId, JobSpec, ALL_APPLICATION_STYLES,
    DEFAULT_CACHE_CAPACITY,
};

/// Runs the job `flh campaign s1196 --pairs 600 --seed 7` builds on a pool
/// of `width` workers; `(style, detected, faults)` per batch.
fn s1196_campaign(width: usize) -> Vec<(String, usize, usize)> {
    let job = JobSpec::campaign(CircuitSource::named("s1196").expect("builtin profile"))
        .with_styles(ALL_APPLICATION_STYLES.to_vec())
        .with_pairs(600)
        .with_seed(7)
        .with_dft(None);
    let engine = JobEngine::new(ThreadPool::new(width), DEFAULT_CACHE_CAPACITY);
    let outcome = engine
        .run(JobId(1), &job, &mut |_| {})
        .expect("campaign job");
    outcome
        .batches
        .iter()
        .map(|b| match b {
            BatchPayload::Campaign(r) => (r.style.to_string(), r.detected, r.total_faults),
            BatchPayload::Evaluation(_) => panic!("campaign job produced an evaluation"),
        })
        .collect()
}

#[test]
fn s1196_campaign_counts_are_the_same_at_every_width() {
    let expected = vec![
        ("arbitrary two-pattern".to_string(), 724, 1122),
        ("broadside".to_string(), 722, 1122),
        ("skewed-load".to_string(), 738, 1122),
    ];
    for width in [1, 2, 3, 4, 8] {
        assert_eq!(s1196_campaign(width), expected, "width {width}");
    }
}
