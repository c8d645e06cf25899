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
//! pattern-pair campaigns under each constraint. A campaign's pairs are a
//! block source of the `fsim` module's shard loop: every shard draws the
//! same seeded stream, so no pair list is ever materialized.

use flh_exec::ThreadPool;
use flh_netlist::{LaneWord, Netlist, Packed256, PatternWord};
use flh_rng::Rng;

use crate::fsim::{simulate_pooled, simulate_shard, BlockSource, PATTERN_BLOCK};
use crate::prune::StaticFilter;
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
/// under the given application style: [`transition_campaign_filtered`] on
/// the serial pool, with the netlist's own view, full fault list and prune
/// filter.
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
    let view = TestView::new(netlist)?;
    let faults = enumerate_transition_faults(netlist);
    let filter = StaticFilter::from_view(&view);
    Ok(transition_campaign_filtered(
        &view,
        &faults,
        style,
        pairs,
        seed,
        &ThreadPool::serial(),
        Some(&filter),
    ))
}

/// Campaign core over a prebuilt [`TestView`] and fault list, and the one
/// pooled entry point of this crate: `flh campaign` and the `flh-serve`
/// `JobEngine` (which builds the prune filter once per job and runs every
/// style on one view) call it with their `FLH_THREADS` pool. `filter`
/// statically prunes faults (`None` disables pruning): pruned faults are
/// dropped before sharding — the simulator never touches them — while
/// `total_faults` still counts the full universe. On a sound filter the
/// pruned faults are exactly faults no pattern pair ever detects, so the
/// aggregate counts are identical in both modes; the bench suite asserts
/// that equality. With the view's own filter on the serial pool, this is
/// [`random_transition_campaign`].
///
/// The kept faults are dealt in chunks of whole fanout-free regions, so
/// each stem replay a region asks for happens on one shard and the
/// result — deterministic counters included — does not depend on the pool
/// width. Every shard streams the full pair sequence from its own copy of
/// the seeded RNG (the stream never depends on detection, so every shard
/// sees the same pairs): memory per shard is a few words per assignable,
/// not per pair, whatever `pairs` is.
#[allow(clippy::too_many_arguments)]
pub fn transition_campaign_filtered(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
    filter: Option<&StaticFilter>,
) -> CampaignResult {
    // The campaign result is aggregate counts, so removing provably
    // undetectable faults is invisible to callers.
    let kept = match filter {
        Some(f) => f.prune_transition(faults).kept,
        None => faults.to_vec(),
    };
    let flags = simulate_pooled::<TransitionSimulator, _>(view, &kept, pool, || {
        PairStream::new(view, style, pairs, seed, None)
    });
    CampaignResult {
        style,
        total_faults: faults.len(),
        detected: flags.into_iter().filter(|&d| d).count(),
        pairs,
    }
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
    let view = TestView::new(netlist)?;
    let faults = enumerate_transition_faults(netlist);
    // One shard: the stop reads the coverage of the whole list.
    let order = view.regions().order(view.compiled(), &faults);
    let ordered: Vec<TransitionFault> = order.into_iter().map(|i| faults[i]).collect();
    let target = Some((target_pct, faults.len()));
    let mut stream = PairStream::new(&view, style, max_pairs, seed, target);
    let left = simulate_shard::<TransitionSimulator>(&view, ordered, &mut stream);
    let detected = faults.len() - left.len();
    // A run that misses the target spends the whole budget, even once no
    // fault is left to detect.
    let pairs = if stream.reached(detected) {
        stream.drawn
    } else {
        max_pairs
    };
    Ok(CampaignResult {
        style,
        total_faults: faults.len(),
        detected,
        pairs,
    })
}

/// The seeded pair stream of a campaign as a block source: `pairs` random
/// (V1, V2) pairs under `style`, drawn from `Rng::seed_from_u64(seed)` in
/// 256-lane blocks. With a coverage target (`pairs_to_reach_coverage`) it
/// draws one-limb blocks instead and ends once a block leaves the shard at
/// or above the target, so the stop sees coverage every 64 pairs.
struct PairStream<'v, 'a> {
    view: &'v TestView<'a>,
    style: ApplicationStyle,
    rng: Rng,
    pairs: usize,
    /// Pairs drawn so far.
    drawn: usize,
    /// The coverage target: a percentage, and the fault count it is of.
    target: Option<(f64, usize)>,
}

impl<'v, 'a> PairStream<'v, 'a> {
    fn new(
        view: &'v TestView<'a>,
        style: ApplicationStyle,
        pairs: usize,
        seed: u64,
        target: Option<(f64, usize)>,
    ) -> Self {
        PairStream {
            view,
            style,
            rng: Rng::seed_from_u64(seed),
            pairs,
            drawn: 0,
            target,
        }
    }

    /// Whether `detected` faults meet the coverage target.
    fn reached(&self, detected: usize) -> bool {
        self.target
            .is_some_and(|(pct, total)| 100.0 * detected as f64 / total.max(1) as f64 >= pct)
    }
}

impl BlockSource for PairStream<'_, '_> {
    fn next_block(&mut self, detected: usize, frames: &mut [Vec<Packed256>]) -> Option<Packed256> {
        // The target is checked after each block, never before the first.
        if self.drawn == self.pairs || (self.drawn > 0 && self.reached(detected)) {
            return None;
        }
        let block = if self.target.is_some() {
            64
        } else {
            PATTERN_BLOCK
        };
        let lanes = (self.pairs - self.drawn).min(block);
        self.drawn += lanes;
        let (v1, v2) = frames.split_at_mut(1);
        Some(fill_pair_block(
            self.view,
            self.style,
            &mut self.rng,
            lanes,
            &mut v1[0],
            &mut v2[0],
        ))
    }

    fn launch(&self, good1: &[Packed256], v2: &mut [Packed256]) {
        launch_state(self.view, self.style, good1, v2);
    }
}

/// Fills one block of `lanes` random (V1, V2) pairs under `style` into
/// `v1`/`v2` (one superword per assignable) and returns the block's lane
/// mask. Limb `j` holds 64-lane sub-batch `j`, and each limb draws its
/// words in a fixed order — all V1 words, the V2 primary-input words, then
/// the style's state fill. That order is the determinism anchor shared by
/// the one-limb and the 256-lane blocks of [`PairStream`]: the pair stream
/// does not depend on the block width.
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
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let filter = StaticFilter::from_view(&view);
        for style in [
            ApplicationStyle::ArbitraryTwoPattern,
            ApplicationStyle::Broadside,
            ApplicationStyle::SkewedLoad,
        ] {
            let serial = random_transition_campaign(&n, style, 300, 13).unwrap();
            for workers in [2, 4, 8] {
                let pool = ThreadPool::new(workers);
                let pooled = transition_campaign_filtered(
                    &view,
                    &faults,
                    style,
                    300,
                    13,
                    &pool,
                    Some(&filter),
                );
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
    fn pairs_to_reach_coverage_is_pinned() {
        // Target 64%, a 2000-pair budget, seed 21: arbitrary pairs stop
        // after 17 one-limb blocks, skewed-load after 8, and broadside
        // never gets there and spends the budget, a partial block last.
        let n = circuit();
        let pins = [
            (ApplicationStyle::ArbitraryTwoPattern, 1088, 137),
            (ApplicationStyle::Broadside, 2000, 93),
            (ApplicationStyle::SkewedLoad, 512, 136),
        ];
        for (style, pairs, detected) in pins {
            let r = pairs_to_reach_coverage(&n, style, 64.0, 2000, 21).unwrap();
            assert_eq!(
                (r.pairs, r.detected, r.total_faults),
                (pairs, detected, 212)
            );
        }
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
