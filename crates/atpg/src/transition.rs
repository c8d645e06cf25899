//! Transition-delay faults: two-pattern ATPG and pattern-pair simulation.
//!
//! A transition fault (slow-to-rise / slow-to-fall at a stem) is detected
//! by a pattern pair (V1, V2) iff V1 sets the site to the initial value,
//! V2 sets it to the final value, and V2 — viewed as a stuck-at test for
//! the site stuck at the *initial* value — propagates the effect to an
//! observation point. Under enhanced-scan / FLH application V1 and V2 are
//! arbitrary, so ATPG decomposes into a PODEM stuck-at test for V2 plus a
//! justification for V1 — precisely why the paper's technique, which
//! enables arbitrary pairs cheaply, preserves full ATPG power.
//!
//! [`TransitionSimulator`] is the two-frame front of the one fault
//! simulator: the stem-region core (the `region` module), which traces
//! each fault to its fanout-free region's stem inside the good V2 machine
//! and replays each stem once per block, instead of replaying every fault.
//! [`crate::fsim::StuckSimulator`] is its one-frame front; both run a
//! pattern list through the `fsim` module's shard loop.

use flh_exec::ThreadPool;
use flh_netlist::{analysis, CellId, CellKind, LaneWord, Netlist, Packed256, PatternWord};
use flh_rng::Rng;

use crate::fault::{Fault, StuckValue};
use crate::fsim::{pack_block, simulate_pooled, BlockSim, Frames, Rows};
use crate::podem::{NoCube, Podem, PodemConfig};
use crate::prune::StaticFilter;
use crate::region::{RegionFault, RegionSim};
use crate::sat::SatCheck;
use crate::tview::TestView;

/// Transition polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// The rising edge at the site is too slow (tested by launching 0→1).
    SlowToRise,
    /// The falling edge is too slow (tested by launching 1→0).
    SlowToFall,
}

/// A transition-delay fault at a stem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// The faulted line's driver.
    pub site: CellId,
    /// Polarity.
    pub kind: TransitionKind,
}

impl TransitionFault {
    /// Initial (V1) value the site must take.
    pub fn initial_value(&self) -> bool {
        self.kind == TransitionKind::SlowToFall
    }

    /// Final (V2) value the site must take.
    pub fn final_value(&self) -> bool {
        !self.initial_value()
    }

    /// The stuck-at fault V2 must detect (site stuck at the initial value).
    pub fn stuck_equivalent(&self) -> Fault {
        let stuck = if self.initial_value() {
            StuckValue::One
        } else {
            StuckValue::Zero
        };
        Fault::stem(self.site, stuck)
    }
}

/// Per-cell flags: the cell has a combinational path to an observation
/// point (a primary output, or the D input of a flip-flop — the same
/// boundary [`TestView::observations`] measures at).
///
/// Computed by a reverse walk from the fanins of every `Output` and
/// flip-flop cell, stopping at sequential elements: a flip-flop *found* on
/// the walk is reachable through its Q output, but its own D fanin belongs
/// to the previous time frame and is seeded separately.
fn observation_reach(netlist: &Netlist) -> Vec<bool> {
    let mut reach = vec![false; netlist.cell_count()];
    let mut stack: Vec<CellId> = Vec::new();
    for (_, cell) in netlist.iter() {
        if cell.kind() == CellKind::Output || cell.kind().is_flip_flop() {
            for &f in cell.fanin() {
                if !reach[f.index()] {
                    reach[f.index()] = true;
                    stack.push(f);
                }
            }
        }
    }
    while let Some(id) = stack.pop() {
        let cell = netlist.cell(id);
        if cell.kind().is_flip_flop() {
            continue; // Q reachable; D is another frame's problem
        }
        for &f in cell.fanin() {
            if !reach[f.index()] {
                reach[f.index()] = true;
                stack.push(f);
            }
        }
    }
    reach
}

/// Enumerates both transition faults on every stem with at least one
/// reader (combinational cells, primary inputs, flip-flop outputs) **and**
/// a path to an observation point. A site whose entire fanout cone dies
/// before any output or flip-flop D pin can never be detected; skipping it
/// here saves an activation-lane check per fault per batch forever, and
/// keeps reported coverage honest (the paper's coverage figures exclude
/// structurally undetectable faults).
pub fn enumerate_transition_faults(netlist: &Netlist) -> Vec<TransitionFault> {
    let fanouts = analysis::FanoutMap::compute(netlist);
    let reach = observation_reach(netlist);
    let mut faults = Vec::new();
    for (id, cell) in netlist.iter() {
        if cell.kind() == CellKind::Output || fanouts.fanout_count(id) == 0 || !reach[id.index()] {
            continue;
        }
        faults.push(TransitionFault {
            site: id,
            kind: TransitionKind::SlowToRise,
        });
        faults.push(TransitionFault {
            site: id,
            kind: TransitionKind::SlowToFall,
        });
    }
    faults
}

/// A fully specified two-pattern test in assignable order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionPattern {
    /// Initialization pattern.
    pub v1: Vec<bool>,
    /// Launch pattern.
    pub v2: Vec<bool>,
}

/// Stem-region transition fault simulator over a test view: the two-frame
/// front of the one fault simulation core (the `region` module).
///
/// A transition fault is its stuck equivalent on V2 — the site stuck at
/// its initial value — gated by V1 setting that initial value. It therefore
/// enters its fanout-free region at its site, in the lanes `act` where V1
/// sets the initial value and V2 the final value: per block of up to 256
/// pattern pairs, `lanes = act ∧ D(site)` is ORed into the stem's request
/// word, each requested stem of the V2 frame is replayed once, and the
/// fault is detected iff `lanes ∧ O ≠ 0`. See the core's docs for `D`, `O`
/// and why this is exact.
pub struct TransitionSimulator<'v, 'a> {
    /// Good V1 values (never mutated per fault).
    values1: Vec<Packed256>,
    /// The core over the V2 frame.
    core: RegionSim<'v, 'a>,
}

impl<'v, 'a> TransitionSimulator<'v, 'a> {
    /// Builds a simulator.
    pub fn new(view: &'v TestView<'a>) -> Self {
        TransitionSimulator {
            values1: Vec::new(),
            core: RegionSim::new(view),
        }
    }

    /// Simulates up to 256 pattern pairs against a fault set, marking
    /// newly detected faults in `detected` (fault-dropping style). Returns
    /// the number of new detections.
    ///
    /// `v1_words[i]` / `v2_words[i]` carry one bit per pair for assignable
    /// `i`; `active_mask` limits which bit lanes hold real pairs (padding
    /// lanes of a partial final block never influence detection).
    pub fn run_batch(
        &mut self,
        v1_words: &[Packed256],
        v2_words: &[Packed256],
        active_mask: Packed256,
        faults: &[TransitionFault],
        detected: &mut [bool],
    ) -> usize {
        self.core
            .view()
            .eval_lanes_into(v1_words, &mut self.values1);
        self.core.load(v2_words);
        let live = faults.iter().zip(detected.iter()).filter(|(_, &d)| !d);
        self.replay_regions(active_mask, live.map(|(f, _)| f));
        let mut new_hits = 0;
        for (fault, d) in faults.iter().zip(detected.iter_mut()) {
            if !*d && self.detection_lanes(fault, active_mask).any() {
                *d = true;
                new_hits += 1;
            }
        }
        if flh_obs::enabled() {
            flh_obs::add(flh_obs::Counter::TransitionDetections, new_hits as u64);
        }
        new_hits
    }

    /// Passes 1 and 2 of a block over the good machines already loaded:
    /// requests the stem of every `live` fault with sensitized activation
    /// lanes, then replays each requested stem once.
    fn replay_regions<'f>(
        &mut self,
        mask: Packed256,
        live: impl Iterator<Item = &'f TransitionFault>,
    ) {
        let (mut activation_skips, mut masked, mut evals) = (0u64, 0u64, 0u64);
        for fault in live {
            let act = self.activation_lanes(fault).and(mask);
            if !act.any() {
                activation_skips += 1;
            } else if !self.core.request(fault.entry(), act, &mut evals) {
                masked += 1;
            }
        }
        self.core.replay_requests();
        if flh_obs::enabled() {
            // Per-fault and per-region quantities only: regions are dealt
            // whole, so these are invariant under fault-list sharding (the
            // good-machine evaluations are per-shard work and deliberately
            // uncounted).
            use flh_obs::Counter;
            flh_obs::add(Counter::TransitionActivationSkips, activation_skips);
            flh_obs::add(Counter::TransitionRegionMasked, masked);
            flh_obs::add(Counter::TransitionRegionEvals, evals);
        }
    }

    /// Pass 3 for one fault: the lanes of this block that detect it — its
    /// activated, stem-sensitized lanes where its stem's replay
    /// miscompared. Valid after [`Self::replay_regions`] saw the fault.
    fn detection_lanes(&self, fault: &TransitionFault, mask: Packed256) -> Packed256 {
        let observed = self.core.observed(fault.entry());
        if !observed.any() {
            return Packed256::bot();
        }
        self.activation_lanes(fault).and(mask).and(observed)
    }

    /// Lanes where V1 sets the initial value and V2 the final value at the
    /// fault site.
    fn activation_lanes(&self, fault: &TransitionFault) -> Packed256 {
        let site = fault.site.index();
        let (v1, v2) = (self.values1[site], self.core.good()[site]);
        let init_mask = if fault.initial_value() { v1 } else { v1.not() };
        let launch_mask = if fault.final_value() { v2 } else { v2.not() };
        init_mask.and(launch_mask)
    }
}

impl<'v, 'a> BlockSim<'v, 'a> for TransitionSimulator<'v, 'a> {
    type Fault = TransitionFault;
    const FRAMES: usize = 2;
    fn new(view: &'v TestView<'a>) -> Self {
        TransitionSimulator::new(view)
    }
    /// Evaluates the good V1 machine, lets `launch` complete V2 from it
    /// (the broadside launch fills V2's state part from V1's flip-flop D
    /// values), evaluates V2, simulates every fault in `live` and removes
    /// the detected ones.
    fn run_block_live(
        &mut self,
        frames: &mut [Vec<Packed256>],
        launch: impl FnOnce(&[Packed256], &mut [Packed256]),
        mask: Packed256,
        live: &mut Vec<TransitionFault>,
    ) {
        let (v1, v2) = frames.split_at_mut(1);
        self.core.view().eval_lanes_into(&v1[0], &mut self.values1);
        launch(&self.values1, &mut v2[0]);
        self.core.load(&v2[0]);
        self.replay_regions(mask, live.iter());
        let before = live.len();
        live.retain(|fault| !self.detection_lanes(fault, mask).any());
        if flh_obs::enabled() {
            let new_hits = (before - live.len()) as u64;
            flh_obs::add(flh_obs::Counter::TransitionDetections, new_hits);
        }
    }
}

impl Frames for TransitionPattern {
    fn frame(&self, f: usize) -> &[bool] {
        if f == 0 {
            &self.v1
        } else {
            &self.v2
        }
    }
}

/// Reference transition detection for one fault and one 64-pair batch:
/// full faulted V2 re-evaluation through [`TestView::eval64`] under the
/// stuck equivalent, full observation scan, activation computed from the
/// good V1/V2 machines. Quadratically slower than [`TransitionSimulator`]
/// but independent of the replay/undo machinery — the equivalence oracle
/// for it.
pub fn transition_detects_reference(
    view: &TestView<'_>,
    fault: &TransitionFault,
    v1_words: &[u64],
    v2_words: &[u64],
    mask: u64,
) -> u64 {
    let good1 = view.eval64(v1_words, None);
    let good2 = view.eval64(v2_words, None);
    let site = fault.site.index();
    let init = if fault.initial_value() {
        good1[site]
    } else {
        !good1[site]
    };
    let launch = if fault.final_value() {
        good2[site]
    } else {
        !good2[site]
    };
    let stuck = fault.stuck_equivalent();
    let faulty2 = view.eval64(v2_words, Some(&stuck));
    let obs_good = view.observe64(&good2);
    let obs_faulty = view.observe64(&faulty2);
    let miscompare = obs_good
        .iter()
        .zip(&obs_faulty)
        .fold(0u64, |acc, (g, b)| acc | (g ^ b));
    miscompare & init & launch & mask
}

/// Simulates a pattern-pair set against a fault list, returning per-fault
/// detection flags. Runs on the serial pool: region-major, one shard, one
/// simulator.
pub fn simulate_transition_patterns(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
) -> Vec<bool> {
    simulate_pooled::<TransitionSimulator, _>(view, faults, &ThreadPool::serial(), || {
        Rows::new(patterns)
    })
}

/// Result of a deterministic transition ATPG run.
#[derive(Clone, Debug)]
pub struct TransitionAtpgResult {
    /// Generated pattern pairs, as applied: under broadside, V2's state
    /// part is the circuit's response to V1.
    pub patterns: Vec<TransitionPattern>,
    /// Per-fault detection flags (aligned with the input fault list).
    pub detected: Vec<bool>,
    /// Faults counted untestable: pruned by the static filter or the
    /// redundancy pass, proven by an exhausted PODEM search, or aborted.
    pub untestable: usize,
    /// The `untestable` faults given up because a PODEM search hit the
    /// backtrack budget. A pair generated later may still detect one.
    pub aborted: usize,
}

impl TransitionAtpgResult {
    /// Detected-fault count.
    pub fn detected_count(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Fault coverage in percent (detected / total).
    pub fn coverage_pct(&self) -> f64 {
        if self.detected.is_empty() {
            100.0
        } else {
            100.0 * self.detected_count() as f64 / self.detected.len() as f64
        }
    }

    /// Fault efficiency in percent: (detected + untestable − aborted) /
    /// total. Pruned and proven faults can never be detected, so this is
    /// at most 100%.
    pub fn efficiency_pct(&self) -> f64 {
        if self.detected.is_empty() {
            100.0
        } else {
            let settled = self.detected_count() + self.untestable - self.aborted;
            100.0 * settled as f64 / self.detected.len() as f64
        }
    }
}

/// Deterministic two-pattern transition ATPG with fault dropping, assuming
/// arbitrary (enhanced-scan / FLH) pattern application.
///
/// For each undetected fault: PODEM generates V2 as a stuck-at test for the
/// site, V1 as a justification of the launch value; don't-cares are filled
/// randomly (seeded) and the new pair is fault-simulated against all
/// remaining faults.
pub fn transition_atpg(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    config: &PodemConfig,
    seed: u64,
) -> TransitionAtpgResult {
    let filter = StaticFilter::from_view(view);
    transition_atpg_with_filter(view, faults, config, seed, Some(&filter))
}

/// [`transition_atpg`] with an explicit prune filter (`None` disables
/// pruning). With a filter, the FIRE redundancy pass
/// ([`StaticFilter::redundant_transitions`]) runs once before the fault
/// loop, and the faults it flags are counted untestable without a PODEM
/// search. The two modes produce byte-identical results on a sound filter:
/// PODEM consumes no randomness during generation (`fill_random` runs only
/// after both cubes exist), and a pruned fault is exactly one PODEM would
/// have declared untestable anyway — skipping it changes neither the RNG
/// stream nor the pattern sequence. The bench suite asserts this equality
/// on real circuits.
pub fn transition_atpg_with_filter(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    config: &PodemConfig,
    seed: u64,
    filter: Option<&StaticFilter>,
) -> TransitionAtpgResult {
    let podem = Podem::new(view, config.clone());
    drive_atpg(view, faults, filter, seed, |fault, sat, rng| {
        // V2 detects the site stuck at its initial value; V1 justifies
        // that value.
        let v2 = podem.search(Some(&fault.stuck_equivalent()), &[], Some(sat))?;
        let v1 = podem.search(None, &[(fault.site, fault.initial_value())], Some(sat))?;
        Ok(TransitionPattern {
            v1: v1.fill_random(rng),
            v2: v2.fill_random(rng),
        })
    })
}

/// The one transition-ATPG loop, behind both arbitrary and broadside pairs.
///
/// Walks `faults` in order and skips each fault already detected. With a
/// `filter`, a fault it marks untestable, or one the FIRE redundancy pass
/// (run once, before the loop) flags, counts as untestable without a
/// search. For every other fault `pair` returns a filled pair or the
/// reason there is none; a fault without a pair counts as untestable, and
/// as aborted too when its search ran out of budget. The pair is
/// fault-simulated in lane 0 against every fault still undetected, on
/// `view`, the original circuit's view, and kept only when it detects its
/// target, as every PODEM cube does (the debug assertion).
///
/// `pair` gets the loop's one [`SatCheck`] and seeded [`Rng`]. It draws
/// only once its searches have succeeded, so a pruned fault changes
/// neither the draw sequence nor the pattern list.
pub(crate) fn drive_atpg<F>(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    filter: Option<&StaticFilter>,
    seed: u64,
    mut pair: F,
) -> TransitionAtpgResult
where
    F: FnMut(&TransitionFault, &mut SatCheck, &mut Rng) -> Result<TransitionPattern, NoCube>,
{
    let redundant = filter.map(|f| {
        let _span = flh_obs::span("atpg.redundancy");
        let redundant = f.redundant_transitions(faults);
        if flh_obs::enabled() {
            flh_obs::named_add("atpg.redundancy.stems", redundant.stems as u64);
        }
        redundant.flags
    });
    let mut sat = SatCheck::default();
    let mut rng = Rng::seed_from_u64(seed);
    let mut detected = vec![false; faults.len()];
    let (mut untestable, mut aborted, mut pruned) = (0usize, 0usize, 0u64);
    let mut patterns = Vec::new();
    let mut sim = TransitionSimulator::new(view);
    let n = view.assignable().len();
    let (mut v1_words, mut v2_words) = (vec![Packed256::bot(); n], vec![Packed256::bot(); n]);

    for (fi, fault) in faults.iter().enumerate() {
        if detected[fi] {
            continue;
        }
        if filter.is_some_and(|f| f.transition_untestable(fault)) {
            untestable += 1;
            continue;
        }
        if redundant.as_ref().is_some_and(|r| r[fi]) {
            untestable += 1;
            pruned += 1;
            continue;
        }
        let pattern = match pair(fault, &mut sat, &mut rng) {
            Ok(pattern) => pattern,
            Err(end) => {
                untestable += 1;
                aborted += usize::from(end == NoCube::Aborted);
                continue;
            }
        };
        // Lane 0 carries the pair; the rest of the block is masked off.
        pack_block(&mut v1_words, std::iter::once(&pattern.v1[..]));
        pack_block(&mut v2_words, std::iter::once(&pattern.v2[..]));
        sim.run_batch(
            &v1_words,
            &v2_words,
            Packed256::lane_bit(0),
            faults,
            &mut detected,
        );
        debug_assert!(detected[fi], "generated pair must detect its target");
        if detected[fi] {
            patterns.push(pattern);
        }
    }
    if redundant.is_some() && flh_obs::enabled() {
        flh_obs::named_add("atpg.redundancy.pruned", pruned);
    }

    TransitionAtpgResult {
        patterns,
        detected,
        untestable,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_stuck_faults, FaultSite};
    use crate::fsim::{stuck_detects_reference, StuckSimulator};
    use flh_netlist::{generate_circuit, GeneratorConfig};

    fn small() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "tfsmall".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 6,
            gates: 50,
            logic_depth: 6,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 77,
        })
        .unwrap()
    }

    #[test]
    fn fault_model_basics() {
        let f = TransitionFault {
            site: flh_netlist::CellId::from_index(3),
            kind: TransitionKind::SlowToRise,
        };
        assert!(!f.initial_value());
        assert!(f.final_value());
        assert_eq!(f.stuck_equivalent().stuck, StuckValue::Zero);
        let f = TransitionFault {
            kind: TransitionKind::SlowToFall,
            ..f
        };
        assert_eq!(f.stuck_equivalent().stuck, StuckValue::One);
    }

    #[test]
    fn enumeration_covers_stems_twice() {
        let n = small();
        let faults = enumerate_transition_faults(&n);
        assert!(faults.len() > 2 * n.gate_count() / 2);
        assert_eq!(faults.len() % 2, 0);
    }

    #[test]
    fn atpg_reaches_high_coverage_with_arbitrary_pairs() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let result = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 9);
        assert!(
            result.coverage_pct() > 85.0,
            "coverage {}",
            result.coverage_pct()
        );
        assert!(result.efficiency_pct() > 95.0);
        // Fault dropping keeps the set compact.
        assert!(result.patterns.len() < faults.len() / 2);
    }

    #[test]
    fn atpg_patterns_reproduce_coverage_when_resimulated() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let result = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 9);
        let resim = simulate_transition_patterns(&view, &faults, &result.patterns);
        let resim_count = resim.iter().filter(|&&d| d).count();
        assert_eq!(resim_count, result.detected_count());
    }

    #[test]
    fn driver_searches_only_unpruned_faults() {
        // A flavour that never finds a pair: every fault ends untestable,
        // and exactly the faults the filter and the FIRE pass leave reach
        // the search, each counted aborted.
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let filter = StaticFilter::from_view(&view);
        let redundant = filter.redundant_transitions(&faults).flags;
        let live: Vec<TransitionFault> = faults
            .iter()
            .zip(&redundant)
            .filter(|&(f, &r)| !r && !filter.transition_untestable(f))
            .map(|(f, _)| *f)
            .collect();
        assert!(live.len() < faults.len(), "nothing pruned");
        let mut asked = Vec::new();
        let result = drive_atpg(&view, &faults, Some(&filter), 9, |fault, _, _| {
            asked.push(*fault);
            Err(NoCube::Aborted)
        });
        assert_eq!(asked, live);
        assert!(result.patterns.is_empty());
        assert_eq!(result.detected_count(), 0);
        assert_eq!(result.untestable, faults.len());
        assert_eq!(result.aborted, live.len());
    }

    #[test]
    fn batch_and_serial_simulation_agree() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let mut rng = Rng::seed_from_u64(4);
        let na = view.assignable().len();
        let patterns: Vec<TransitionPattern> = (0..100)
            .map(|_| TransitionPattern {
                v1: (0..na).map(|_| rng.gen()).collect(),
                v2: (0..na).map(|_| rng.gen()).collect(),
            })
            .collect();
        let batch = simulate_transition_patterns(&view, &faults, &patterns);
        // Serial: one pattern at a time.
        let mut serial = vec![false; faults.len()];
        for p in &patterns {
            let d = simulate_transition_patterns(&view, &faults, std::slice::from_ref(p));
            for (s, d) in serial.iter_mut().zip(d) {
                *s |= d;
            }
        }
        assert_eq!(batch, serial);
    }

    #[test]
    fn partitioned_pair_simulation_matches_serial() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let mut rng = Rng::seed_from_u64(19);
        let na = view.assignable().len();
        // Three blocks, the last one partial: every shard drops faults
        // across blocks.
        let patterns: Vec<TransitionPattern> = (0..600)
            .map(|_| TransitionPattern {
                v1: (0..na).map(|_| rng.gen()).collect(),
                v2: (0..na).map(|_| rng.gen()).collect(),
            })
            .collect();
        let serial = simulate_transition_patterns(&view, &faults, &patterns);
        for workers in [2, 4, 8] {
            let pool = ThreadPool::new(workers);
            let pooled = simulate_pooled::<TransitionSimulator, _>(&view, &faults, &pool, || {
                Rows::new(&patterns)
            });
            assert_eq!(pooled, serial, "workers = {workers}");
        }
    }

    #[test]
    fn replay_matches_reference_for_every_fault() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let mut rng = Rng::seed_from_u64(23);
        let na = view.assignable().len();
        // One random 256-lane block; limb `l` of assignable `i` is
        // `v1[l][i]` / `v2[l][i]`, checked limb by limb against the
        // 64-lane reference.
        let mut limbs = || -> Vec<Vec<u64>> {
            (0..4)
                .map(|_| (0..na).map(|_| rng.gen()).collect())
                .collect()
        };
        let (v1, v2) = (limbs(), limbs());
        let pack = |v: &[Vec<u64>]| -> Vec<Packed256> {
            (0..na)
                .map(|i| Packed256::from_limbs([v[0][i], v[1][i], v[2][i], v[3][i]]))
                .collect()
        };
        let (w1, w2) = (pack(&v1), pack(&v2));
        // Mask shapes: the low 64 lanes; a single active lane (what
        // `transition_atpg` passes), in the first and in the last limb;
        // one active limb; random masks of about 1/16 density.
        let mut masks = vec![
            Packed256::mask_lanes(64),
            Packed256::lane_bit(0),
            Packed256::lane_bit(255),
            Packed256::from_limbs([0, 0, !0, 0]),
        ];
        for _ in 0..3 {
            let sparse = [(); 4].map(|_| (0..4).fold(!0u64, |acc, _| acc & rng.gen::<u64>()));
            masks.push(Packed256::from_limbs(sparse));
        }
        let mut sim = TransitionSimulator::new(&view);
        for mask in masks {
            for fault in &faults {
                let reference: Vec<u64> = (0..4)
                    .map(|l| {
                        transition_detects_reference(&view, fault, &v1[l], &v2[l], mask.limb(l))
                    })
                    .collect();
                let mut detected = vec![false];
                sim.run_batch(&w1, &w2, mask, std::slice::from_ref(fault), &mut detected);
                assert_eq!(
                    detected[0],
                    reference.iter().any(|&r| r != 0),
                    "{fault:?} {mask:?}"
                );
            }
        }
    }

    /// Checks stem-region simulation lane by lane against the references
    /// on `n`. Transition faults against [`transition_detects_reference`]:
    /// `run_batch` over the whole fault list at once (several faults per
    /// stem: full propagation) and per fault (one fault per stem: early
    /// exit). Stuck-at stem and branch
    /// faults on the V2 frame against [`stuck_detects_reference`], whole
    /// list and one fault at a time. All under full, single-lane,
    /// single-limb and sparse masks. Returns the number of branch faults
    /// checked.
    fn assert_regions_match_reference(n: &Netlist) -> usize {
        let view = TestView::new(n).unwrap();
        let faults = enumerate_transition_faults(n);
        assert!(!faults.is_empty());
        let stuck = enumerate_stuck_faults(n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(n.cell_count() as u64);
        let mut sim = TransitionSimulator::new(&view);
        let mut stuck_sim = StuckSimulator::new(&view);
        for _ in 0..8 {
            let mut limbs = || -> Vec<Vec<u64>> {
                (0..4)
                    .map(|_| (0..na).map(|_| rng.gen()).collect())
                    .collect()
            };
            let (v1, v2) = (limbs(), limbs());
            let pack = |v: &[Vec<u64>]| -> Vec<Packed256> {
                (0..na)
                    .map(|i| Packed256::from_limbs([v[0][i], v[1][i], v[2][i], v[3][i]]))
                    .collect()
            };
            let (w1, w2) = (pack(&v1), pack(&v2));
            let mut masks = vec![
                Packed256::top(),
                Packed256::lane_bit(0),
                Packed256::lane_bit(255),
                Packed256::from_limbs([0, 0, !0, 0]),
            ];
            for density in [2, 4] {
                let sparse =
                    [(); 4].map(|_| (0..density).fold(!0u64, |acc, _| acc & rng.gen::<u64>()));
                masks.push(Packed256::from_limbs(sparse));
            }
            for &mask in &masks {
                let reference: Vec<Vec<u64>> = faults
                    .iter()
                    .map(|f| {
                        (0..4)
                            .map(|l| {
                                transition_detects_reference(&view, f, &v1[l], &v2[l], mask.limb(l))
                            })
                            .collect()
                    })
                    .collect();
                let expected: Vec<bool> = reference
                    .iter()
                    .map(|r| r.iter().any(|&w| w != 0))
                    .collect();
                let mut detected = vec![false; faults.len()];
                let hits = sim.run_batch(&w1, &w2, mask, &faults, &mut detected);
                assert_eq!(detected, expected, "{}: all faults, {mask:?}", n.name());
                assert_eq!(hits, expected.iter().filter(|&&d| d).count());
                for (fault, &want) in faults.iter().zip(&expected) {
                    let mut one = vec![false];
                    sim.run_batch(&w1, &w2, mask, std::slice::from_ref(fault), &mut one);
                    assert_eq!(one[0], want, "{}: {fault:?} alone, {mask:?}", n.name());
                }

                let expected: Vec<bool> = stuck
                    .iter()
                    .map(|f| {
                        (0..4).any(|l| stuck_detects_reference(&view, f, &v2[l], mask.limb(l)) != 0)
                    })
                    .collect();
                let mut detected = vec![false; stuck.len()];
                let hits = stuck_sim.run_batch(&w2, mask, &stuck, &mut detected);
                assert_eq!(
                    detected,
                    expected,
                    "{}: all stuck faults, {mask:?}",
                    n.name()
                );
                assert_eq!(hits, expected.iter().filter(|&&d| d).count());
                for (fault, &want) in stuck.iter().zip(&expected) {
                    let mut one = vec![false];
                    stuck_sim.run_batch(&w2, mask, std::slice::from_ref(fault), &mut one);
                    assert_eq!(one[0], want, "{}: {fault:?} alone, {mask:?}", n.name());
                }
            }
        }
        stuck
            .iter()
            .filter(|f| matches!(f.site, FaultSite::Branch { .. }))
            .count()
    }

    #[test]
    fn regions_match_reference_on_an_inverter_buffer_chain() {
        let mut n = Netlist::new("invbuf");
        let a = n.add_input("a");
        let i1 = n.add_cell("i1", CellKind::Inv, vec![a]);
        let b1 = n.add_cell("b1", CellKind::Buf, vec![i1]);
        let i2 = n.add_cell("i2", CellKind::Inv, vec![b1]);
        n.add_output("y", i2);
        assert_regions_match_reference(&n);
    }

    #[test]
    fn regions_match_reference_on_a_single_reader_xor_chain() {
        let mut n = Netlist::new("xorchain");
        let ins: Vec<CellId> = (0..5).map(|i| n.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for (k, &x) in ins.iter().enumerate().skip(1) {
            acc = n.add_cell(format!("p{k}"), CellKind::Xor2, vec![acc, x]);
        }
        let gate = n.add_input("en");
        let out = n.add_cell("o", CellKind::And2, vec![acc, gate]);
        n.add_output("y", out);
        assert_regions_match_reference(&n);
    }

    #[test]
    fn regions_match_reference_through_duplicate_pins() {
        // q reads p on both pins (one reader); z = Xor2(m, m) is constant,
        // so no flip of m ever reaches the stem.
        let mut n = Netlist::new("duppins");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let p = n.add_cell("p", CellKind::Nand2, vec![a, b]);
        let q = n.add_cell("q", CellKind::And2, vec![p, p]);
        let m = n.add_cell("m", CellKind::Or2, vec![c, a]);
        let z = n.add_cell("z", CellKind::Xor2, vec![m, m]);
        let r = n.add_cell("r", CellKind::Or2, vec![q, z]);
        n.add_output("y", r);
        // Branch faults on one pin of q and of z: only that pin is forced.
        assert!(assert_regions_match_reference(&n) > 0);
    }

    #[test]
    fn regions_match_reference_at_a_flip_flop_d_pin() {
        // g's only reader is the flip-flop: its region ends at g.
        let mut n = Netlist::new("ffd");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let i = n.add_cell("i", CellKind::Inv, vec![a]);
        let g = n.add_cell("g", CellKind::Nand2, vec![i, b]);
        let ff = n.add_cell("ff", CellKind::Dff, vec![g]);
        let h = n.add_cell("h", CellKind::Or2, vec![ff, c]);
        n.add_output("y", h);
        assert_regions_match_reference(&n);
    }

    #[test]
    fn regions_match_reference_on_an_observed_line_feeding_logic() {
        // g is observed at y1 and also read by h: a stem with its own
        // region-internal chain a -> i.
        let mut n = Netlist::new("obsfeed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let i = n.add_cell("i", CellKind::Inv, vec![a]);
        let g = n.add_cell("g", CellKind::And2, vec![i, b]);
        let h = n.add_cell("h", CellKind::Nor2, vec![g, c]);
        n.add_output("y1", g);
        n.add_output("y2", h);
        assert!(assert_regions_match_reference(&n) > 0);
    }

    #[test]
    fn regions_match_reference_on_a_reconvergent_region() {
        // s fans out to p and q, which reconverge at r; p is also seen
        // early at y1 and q late at y2, so one stem replay serves faults
        // whose lanes are observed at different depths.
        let mut n = Netlist::new("reconv");
        let ins: Vec<CellId> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
        let s = n.add_cell("s", CellKind::Nand2, vec![ins[0], ins[1]]);
        let p = n.add_cell("p", CellKind::And2, vec![s, ins[2]]);
        let q = n.add_cell("q", CellKind::Or2, vec![s, ins[3]]);
        let q2 = n.add_cell("q2", CellKind::And2, vec![q, ins[4]]);
        let r = n.add_cell("r", CellKind::Xor2, vec![p, q2]);
        let t = n.add_cell("t", CellKind::Or2, vec![r, ins[5]]);
        n.add_output("y1", p);
        n.add_output("y2", t);
        assert!(assert_regions_match_reference(&n) > 0);
    }

    #[test]
    fn regions_match_reference_on_branches_into_complex_gates() {
        // a fans out to pins 0 and 2 of an AOI21 and into an XNOR it also
        // reads through an inverter; both gates sit inside r's region.
        let mut n = Netlist::new("complexbr");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let i = n.add_cell("i", CellKind::Inv, vec![a]);
        let g = n.add_cell("g", CellKind::Aoi21, vec![a, b, a]);
        let x = n.add_cell("x", CellKind::Xnor2, vec![a, i]);
        let m = n.add_cell("m", CellKind::Mux2, vec![g, x, c]);
        let r = n.add_cell("r", CellKind::Nand2, vec![m, b]);
        n.add_output("y", r);
        assert!(assert_regions_match_reference(&n) > 0);
    }

    #[test]
    fn fault_ordering_is_region_major_and_coverage_invariant() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let regions = view.regions();
        let order = regions.order(view.compiled(), &faults);
        let ordered: Vec<TransitionFault> = order.iter().map(|&i| faults[i]).collect();
        // Stems by level, and each region's faults in one contiguous run.
        let stem = |f: &TransitionFault| regions.stem(f.site.index() as u32);
        let level = |f: &TransitionFault| view.compiled().level_of(stem(f));
        assert!(ordered.windows(2).all(|w| level(&w[0]) <= level(&w[1])));
        let mut runs: Vec<u32> = ordered.iter().map(stem).collect();
        runs.dedup();
        let mut stems = runs.clone();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(runs.len(), stems.len(), "a region is split");
        let mut rng = Rng::seed_from_u64(61);
        let na = view.assignable().len();
        let patterns: Vec<TransitionPattern> = (0..90)
            .map(|_| TransitionPattern {
                v1: (0..na).map(|_| rng.gen()).collect(),
                v2: (0..na).map(|_| rng.gen()).collect(),
            })
            .collect();
        let base = simulate_transition_patterns(&view, &faults, &patterns);
        let perm = simulate_transition_patterns(&view, &ordered, &patterns);
        for (p, &i) in order.iter().enumerate() {
            assert_eq!(perm[p], base[i], "ordering changed {:?}", faults[i]);
        }
    }

    #[test]
    fn dead_cone_sites_are_not_enumerated() {
        // d1 -> d2 is a dangling chain: d2 drives nothing, so neither cell
        // can reach an observation point — no transition faults on either.
        let mut n = Netlist::new("dead");
        let a = n.add_input("a");
        let d1 = n.add_cell("d1", CellKind::Inv, vec![a]);
        n.add_cell("d2", CellKind::Inv, vec![d1]);
        let g = n.add_cell("g", CellKind::Buf, vec![a]);
        n.add_output("y", g);
        let faults = enumerate_transition_faults(&n);
        assert!(faults.iter().all(|f| f.site != d1), "dead cone enumerated");
        assert!(faults.iter().any(|f| f.site == a));
        assert!(faults.iter().any(|f| f.site == g));
    }

    #[test]
    fn observation_reach_includes_flip_flop_d_cones() {
        // h feeds only a flip-flop's D pin: observable at the scan boundary.
        let mut n = Netlist::new("ffobs");
        let a = n.add_input("a");
        let h = n.add_cell("h", CellKind::Inv, vec![a]);
        let ff = n.add_cell("ff", CellKind::Dff, vec![h]);
        let g = n.add_cell("g", CellKind::Buf, vec![ff]);
        n.add_output("y", g);
        let faults = enumerate_transition_faults(&n);
        assert!(faults.iter().any(|f| f.site == h));
        assert!(faults.iter().any(|f| f.site == ff));
    }

    #[test]
    fn empty_pattern_set_detects_nothing() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let detected = simulate_transition_patterns(&view, &faults, &[]);
        assert!(detected.iter().all(|&d| !d));
    }
}
