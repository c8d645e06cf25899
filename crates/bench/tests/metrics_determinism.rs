//! Pool-width invariance of the flh-obs deterministic metrics.
//!
//! The observability layer promises that every counter in the
//! *deterministic* section of the report — replay events, dedup hits,
//! early exits, undo-log writes, drop-mask merges, detections — is
//! byte-identical at any `FLH_THREADS` width: per-fault work depends only
//! on the fault and the pair batches, never on how the fault list was
//! sharded. This test runs the same pooled transition campaign (s9234,
//! the paper's three application styles) at widths 1, 2 and 4 and diffs
//! the rendered deterministic-metrics document. Wall-clock spans must
//! stay out of that document entirely — they live in the separate
//! nondeterministic section.
//!
//! One `#[test]` only: the flh-obs registry is process-global and this
//! file is its own test process.

use flh_atpg::{random_transition_campaign_pooled, ApplicationStyle, CampaignResult};
use flh_bench::build_circuit;
use flh_exec::ThreadPool;
use flh_netlist::iscas89_profile;

const PAIRS: usize = 192;
const SEED: u64 = 7;

#[test]
fn deterministic_metrics_are_pool_width_invariant() {
    flh_obs::install(false);
    let profile = iscas89_profile("s9234").expect("s9234 profile present");
    let netlist = build_circuit(&profile);
    let styles = [
        ApplicationStyle::ArbitraryTwoPattern,
        ApplicationStyle::Broadside,
        ApplicationStyle::SkewedLoad,
    ];

    let mut reference: Option<(String, Vec<CampaignResult>)> = None;
    for width in [1usize, 2, 4] {
        flh_obs::reset();
        let pool = ThreadPool::new(width);
        let results: Vec<CampaignResult> = styles
            .iter()
            .map(|&style| {
                random_transition_campaign_pooled(&netlist, style, PAIRS, SEED, &pool)
                    .expect("acyclic benchmark circuit")
            })
            .collect();

        let snap = flh_obs::snapshot();

        // The campaign actually drove the instrumented paths.
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert!(
            counter("replay.calls") > 0,
            "width {width}: no replay calls"
        );
        assert!(
            counter("replay.events") > 0,
            "width {width}: no replay events"
        );
        assert!(
            counter("fsim.transition.detections") > 0,
            "width {width}: no detections"
        );
        assert_eq!(
            counter("drops.faults_dropped"),
            results.iter().map(|r| r.detected as u64).sum::<u64>(),
            "width {width}: drop-mask merges disagree with campaign totals"
        );

        // Spans are wall clock: never in the deterministic document, always
        // in the nondeterministic section (the pool span fired above).
        let det = flh_obs::det_document(&snap);
        assert!(
            !det.contains("\"spans\"") && !det.contains("total_ms"),
            "width {width}: timing leaked into the deterministic document"
        );
        assert!(!snap.spans.is_empty(), "width {width}: no spans recorded");
        assert!(
            matches!(
                flh_obs::nondeterministic_json(&snap).as_object().and_then(|o| o.get("spans")),
                Some(flh_obs::Json::Array(spans)) if !spans.is_empty()
            ),
            "width {width}: spans missing from the nondeterministic section"
        );

        match &reference {
            None => reference = Some((det, results)),
            Some((ref_det, ref_results)) => {
                assert_eq!(
                    ref_results, &results,
                    "campaign results changed at width {width}"
                );
                assert_eq!(
                    ref_det, &det,
                    "deterministic metrics changed at width {width}"
                );
            }
        }
    }
}
