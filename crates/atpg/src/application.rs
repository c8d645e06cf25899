//! Two-pattern application styles and coverage campaigns.
//!
//! The paper's introduction motivates FLH by the weaknesses of the two
//! DFT-free application styles:
//!
//! * **broadside** (launch-on-capture): V2's state part is the circuit's
//!   own response to V1 — "the broadside case can suffer from poor fault
//!   coverage";
//! * **skewed-load** (launch-on-shift): V2's state part is a 1-bit shift of
//!   V1's — "since the second pattern is highly correlated to the first
//!   one, the test generation for high fault coverage can be difficult";
//! * **arbitrary two-pattern** (enhanced scan, or FLH at a fraction of the
//!   cost): V1 and V2 are independent — best possible coverage.
//!
//! [`random_transition_campaign`] quantifies this with seeded random
//! pattern-pair campaigns under each constraint.

use flh_exec::{gather, ThreadPool};
use flh_netlist::{LaneWord, Netlist, Packed256, PatternWord};
use flh_rng::Rng;

use crate::fsim::PATTERN_BLOCK;
use crate::region::deal_regions;
use crate::transition::{enumerate_transition_faults, TransitionFault, TransitionSimulator};
use crate::tview::{Observation, TestView};

/// How the second pattern's state part is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApplicationStyle {
    /// Enhanced-scan / FLH: V1 and V2 fully independent.
    ArbitraryTwoPattern,
    /// Broadside: V2's state = the flip-flop capture of the response to V1.
    Broadside,
    /// Skewed-load: V2's state = V1's state shifted by one chain position.
    SkewedLoad,
}

impl std::fmt::Display for ApplicationStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ApplicationStyle::ArbitraryTwoPattern => "arbitrary two-pattern",
            ApplicationStyle::Broadside => "broadside",
            ApplicationStyle::SkewedLoad => "skewed-load",
        })
    }
}

/// Outcome of a random campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignResult {
    /// Style used.
    pub style: ApplicationStyle,
    /// Total transition faults.
    pub total_faults: usize,
    /// Faults detected.
    pub detected: usize,
    /// Pattern pairs applied.
    pub pairs: usize,
}

impl CampaignResult {
    /// Coverage in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_faults == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Runs a seeded random transition-fault campaign of `pairs` pattern pairs
/// under the given application style.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn random_transition_campaign(
    netlist: &Netlist,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
) -> flh_netlist::Result<CampaignResult> {
    random_transition_campaign_pooled(netlist, style, pairs, seed, &ThreadPool::serial())
}

/// Pooled [`random_transition_campaign`]: the fault list is dealt out over
/// the pool in whole fanout-free regions, and every shard streams the full
/// pair sequence from its own copy of the seeded RNG — the stream never
/// depends on detection, so every shard sees the same pairs. Detection
/// counts add up across the disjoint shards, so the result is
/// bit-identical at any pool size.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn random_transition_campaign_pooled(
    netlist: &Netlist,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
) -> flh_netlist::Result<CampaignResult> {
    let view = TestView::new(netlist)?;
    let faults = enumerate_transition_faults(netlist);
    Ok(transition_campaign_with_view(
        &view, &faults, style, pairs, seed, pool,
    ))
}

/// Campaign core over a prebuilt [`TestView`] and fault list — the entry
/// point for callers that cache compiled circuits: a repeat campaign pays
/// neither parse, compile nor fault enumeration. Semantics and results are
/// exactly those of [`random_transition_campaign_pooled`] on the same
/// netlist. It builds the prune filter on every call; a caller running
/// several styles on one view (the `flh-serve` `JobEngine`) builds it once
/// and calls [`transition_campaign_filtered`].
pub fn transition_campaign_with_view(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
) -> CampaignResult {
    let filter = crate::prune::StaticFilter::from_view(view);
    transition_campaign_filtered(view, faults, style, pairs, seed, pool, Some(&filter))
}

/// [`transition_campaign_with_view`] with an explicit prune filter (`None`
/// disables pruning). Statically untestable faults are dropped before
/// sharding — the simulator never touches them — while `total_faults`
/// still counts the full universe. On a sound filter the pruned faults are
/// exactly faults no pattern pair ever detects, so the aggregate counts
/// are identical in both modes; the bench suite asserts that equality.
///
/// The kept faults are sorted region-major (`RegionMap::sort`) and dealt
/// in chunks of whole fanout-free regions, so each stem replay a region
/// asks for happens on one shard and the deterministic counters do not
/// depend on the pool width. Each shard then streams the pair blocks
/// itself from its own copy of the seeded RNG: memory per shard is a few
/// words per assignable, not per pair, whatever `pairs` is.
#[allow(clippy::too_many_arguments)]
pub fn transition_campaign_filtered(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
    filter: Option<&crate::prune::StaticFilter>,
) -> CampaignResult {
    // Static prune, then region-major order. The campaign result is
    // aggregate counts, so neither the permutation nor the removal of
    // provably undetectable faults is visible to callers.
    let mut ordered = match filter {
        Some(f) => f.prune_transition(faults).kept,
        None => faults.to_vec(),
    };
    let regions = view.regions();
    regions.sort(view.compiled(), &mut ordered);
    let parts = deal_regions(pool, regions, &ordered, |shard| {
        stream_shard(view, style, pairs, seed, gather(&ordered, shard))
    });
    let detected: usize = parts.iter().map(|(_, found)| found).sum();
    if flh_obs::enabled() {
        flh_obs::add(flh_obs::Counter::FaultsDropped, detected as u64);
    }

    CampaignResult {
        style,
        total_faults: faults.len(),
        detected,
        pairs,
    }
}

/// One shard of a pooled campaign: streams `pairs` pairs in 256-lane
/// blocks from its own `Rng::seed_from_u64(seed)` and simulates its `live`
/// faults on its own simulator, dropping each fault at its first detecting
/// block and stopping once none is left. Returns the detections.
fn stream_shard(
    view: &TestView<'_>,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    mut live: Vec<TransitionFault>,
) -> usize {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sim = TransitionSimulator::new(view);
    let n = view.assignable().len();
    let (mut v1, mut v2) = (vec![Packed256::bot(); n], vec![Packed256::bot(); n]);
    let mut found = 0;
    let mut remaining = pairs;
    while remaining > 0 && !live.is_empty() {
        let lanes = remaining.min(PATTERN_BLOCK);
        let mask = fill_pair_block(view, style, &mut rng, lanes, &mut v1, &mut v2);
        let launch =
            |good1: &[Packed256], v2: &mut [Packed256]| launch_state(view, style, good1, v2);
        found += sim.run_block_live(&v1, &mut v2, launch, mask, &mut live);
        remaining -= lanes;
    }
    found
}

/// Runs batches of random pairs until `target_pct` coverage is reached or
/// `max_pairs` are spent. Returns the pair count and coverage at the stop
/// point — the raw material for cycles-to-coverage (test time)
/// comparisons across application styles.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn pairs_to_reach_coverage(
    netlist: &Netlist,
    style: ApplicationStyle,
    target_pct: f64,
    max_pairs: usize,
    seed: u64,
) -> flh_netlist::Result<CampaignResult> {
    campaign_impl(netlist, style, max_pairs, seed, |_, detected, total| {
        100.0 * detected as f64 / total.max(1) as f64 >= target_pct
    })
}

/// Fills one block of `lanes` random (V1, V2) pairs under `style` into
/// `v1`/`v2` (one superword per assignable) and returns the block's lane
/// mask. Limb `j` holds 64-lane sub-batch `j`, and each limb draws its
/// words in a fixed order — all V1 words, the V2 primary-input words, then
/// the style's state fill. That order is the determinism anchor shared by
/// the one-limb blocks of [`campaign_impl`] and the 256-lane blocks of
/// [`stream_shard`]: the pair stream does not depend on the block width.
///
/// The broadside state part of V2 draws nothing and is left for
/// [`launch_state`], which fills it from the V1 good machine the simulator
/// evaluates anyway.
fn fill_pair_block(
    view: &TestView<'_>,
    style: ApplicationStyle,
    rng: &mut Rng,
    lanes: usize,
    v1: &mut [Packed256],
    v2: &mut [Packed256],
) -> Packed256 {
    let n_pi = view.primary_input_count();
    let n_ff = v1.len() - n_pi;
    v1.fill(Packed256::bot());
    v2.fill(Packed256::bot());
    for limb in 0..lanes.div_ceil(64) {
        for w in v1.iter_mut() {
            w.0[limb] = rng.gen();
        }
        // V2 primary inputs are always free.
        for w in v2.iter_mut().take(n_pi) {
            w.0[limb] = rng.gen();
        }
        match style {
            ApplicationStyle::ArbitraryTwoPattern => {
                for w in v2.iter_mut().skip(n_pi) {
                    w.0[limb] = rng.gen();
                }
            }
            ApplicationStyle::Broadside => {} // launch_state, block-wide
            ApplicationStyle::SkewedLoad => {
                // State part of V2 = V1's state shifted one position down
                // the chain (position i takes position i-1; position 0
                // takes a random scan-in bit).
                for i in (1..n_ff).rev() {
                    v2[n_pi + i].0[limb] = v1[n_pi + i - 1].0[limb];
                }
                if n_ff > 0 {
                    v2[n_pi].0[limb] = rng.gen();
                }
            }
        }
    }
    Packed256::mask_lanes(lanes)
}

/// The V2 state part that depends on V1's response: under broadside, V2's
/// state is the flip-flop capture of `good1`, the good V1 machine of the
/// whole block. Other styles have filled V2 already.
fn launch_state(
    view: &TestView<'_>,
    style: ApplicationStyle,
    good1: &[Packed256],
    v2: &mut [Packed256],
) {
    if style != ApplicationStyle::Broadside {
        return;
    }
    let n_pi = view.primary_input_count();
    let mut ff_idx = 0;
    for obs in view.observations() {
        if let Observation::FfD(ff) = obs {
            let d = view.netlist().cell(*ff).fanin()[0];
            v2[n_pi + ff_idx] = good1[d.index()];
            ff_idx += 1;
        }
    }
    debug_assert_eq!(ff_idx, v2.len() - n_pi);
}

/// Streaming campaign core: generates and simulates one batch at a time so
/// `stop` can end the run on cumulative coverage — the path
/// [`pairs_to_reach_coverage`] needs, which cannot be fault-partitioned
/// without changing where the early stop lands.
fn campaign_impl(
    netlist: &Netlist,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    mut stop: impl FnMut(usize, usize, usize) -> bool,
) -> flh_netlist::Result<CampaignResult> {
    let view = TestView::new(netlist)?;
    let faults = enumerate_transition_faults(netlist);
    let mut sim = TransitionSimulator::new(&view);
    let mut live = faults.clone();
    let mut rng = Rng::seed_from_u64(seed);

    let n = view.assignable().len();

    let mut applied = 0usize;
    let mut detected_count = 0usize;
    let mut remaining = pairs;
    let mut v1 = vec![Packed256::bot(); n];
    let mut v2 = vec![Packed256::bot(); n];
    while remaining > 0 {
        // One-limb blocks: the stop predicate still sees coverage every 64
        // pairs, so early-stop points (and the RNG stream) are identical
        // to the historical 64-lane streaming path.
        let lanes = remaining.min(64);
        let mask = fill_pair_block(&view, style, &mut rng, lanes, &mut v1, &mut v2);
        let launch =
            |good1: &[Packed256], v2: &mut [Packed256]| launch_state(&view, style, good1, v2);
        detected_count += sim.run_block_live(&v1, &mut v2, launch, mask, &mut live);
        remaining -= lanes;
        applied += lanes;
        if stop(applied, detected_count, faults.len()) {
            break;
        }
    }

    Ok(CampaignResult {
        style,
        total_faults: faults.len(),
        detected: detected_count,
        pairs: applied,
    })
}

/// Tester clock cycles to apply one two-pattern test under a style, with a
/// `load_cycles`-deep (possibly multi-chain) scan load:
///
/// * arbitrary (enhanced scan / FLH): scan V1, apply, scan V2 (overlapped
///   with the previous unload), launch + capture → `2·load + 2`;
/// * broadside: scan V1, launch clock, capture clock → `load + 2`;
/// * skewed-load: the last shift is the launch → `load + 1`.
pub fn cycles_per_pattern(style: ApplicationStyle, load_cycles: usize) -> usize {
    match style {
        ApplicationStyle::ArbitraryTwoPattern => 2 * load_cycles + 2,
        ApplicationStyle::Broadside => load_cycles + 2,
        ApplicationStyle::SkewedLoad => load_cycles + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_netlist::{generate_circuit, GeneratorConfig};

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "camp".into(),
            primary_inputs: 6,
            primary_outputs: 4,
            flip_flops: 10,
            gates: 90,
            logic_depth: 8,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 55,
        })
        .unwrap()
    }

    #[test]
    fn campaigns_are_deterministic() {
        let n = circuit();
        let a = random_transition_campaign(&n, ApplicationStyle::Broadside, 200, 7).unwrap();
        let b = random_transition_campaign(&n, ApplicationStyle::Broadside, 200, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_pairs_beat_broadside() {
        let n = circuit();
        let arb =
            random_transition_campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 500, 11).unwrap();
        let brd = random_transition_campaign(&n, ApplicationStyle::Broadside, 500, 11).unwrap();
        assert!(
            arb.coverage_pct() > brd.coverage_pct(),
            "arbitrary {} <= broadside {}",
            arb.coverage_pct(),
            brd.coverage_pct()
        );
    }

    #[test]
    fn arbitrary_pairs_beat_skewed_load() {
        let n = circuit();
        let arb = random_transition_campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 2000, 11)
            .unwrap();
        let skw = random_transition_campaign(&n, ApplicationStyle::SkewedLoad, 2000, 11).unwrap();
        assert!(
            arb.coverage_pct() >= skw.coverage_pct(),
            "arbitrary {} < skewed {}",
            arb.coverage_pct(),
            skw.coverage_pct()
        );
    }

    #[test]
    fn more_pairs_more_coverage() {
        let n = circuit();
        let few =
            random_transition_campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 64, 3).unwrap();
        let many =
            random_transition_campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 1000, 3).unwrap();
        assert!(many.detected >= few.detected);
        assert!(many.coverage_pct() > 50.0);
    }

    #[test]
    fn pooled_campaign_matches_serial_at_any_width() {
        let n = circuit();
        for style in [
            ApplicationStyle::ArbitraryTwoPattern,
            ApplicationStyle::Broadside,
            ApplicationStyle::SkewedLoad,
        ] {
            let serial = random_transition_campaign(&n, style, 300, 13).unwrap();
            for workers in [2, 4, 8] {
                let pooled = random_transition_campaign_pooled(
                    &n,
                    style,
                    300,
                    13,
                    &ThreadPool::new(workers),
                )
                .unwrap();
                assert_eq!(pooled, serial, "{style}, workers = {workers}");
            }
        }
    }

    #[test]
    fn style_display() {
        assert_eq!(ApplicationStyle::Broadside.to_string(), "broadside");
    }

    #[test]
    fn pairs_to_reach_stops_early() {
        let n = circuit();
        let full = random_transition_campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 2000, 21)
            .unwrap();
        let target = 0.8 * full.coverage_pct();
        let partial =
            pairs_to_reach_coverage(&n, ApplicationStyle::ArbitraryTwoPattern, target, 2000, 21)
                .unwrap();
        assert!(partial.coverage_pct() >= target);
        assert!(
            partial.pairs < full.pairs,
            "{} !< {}",
            partial.pairs,
            full.pairs
        );
        // Identical seed => the partial run is a prefix of the full run.
        assert!(partial.detected <= full.detected);
    }

    #[test]
    fn unreachable_target_spends_the_budget() {
        let n = circuit();
        let r = pairs_to_reach_coverage(&n, ApplicationStyle::Broadside, 100.0, 512, 3).unwrap();
        assert_eq!(r.pairs, 512);
        assert!(r.coverage_pct() < 100.0);
    }

    #[test]
    fn test_time_model() {
        use ApplicationStyle::*;
        assert_eq!(cycles_per_pattern(ArbitraryTwoPattern, 100), 202);
        assert_eq!(cycles_per_pattern(Broadside, 100), 102);
        assert_eq!(cycles_per_pattern(SkewedLoad, 100), 101);
    }
}
