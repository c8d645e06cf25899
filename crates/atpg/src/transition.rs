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

/// The representative that justifies *dropping* `fault` during
/// [`collapse_transition_faults`], or `None` if the fault must be kept.
///
/// Two local rules, mirroring [`crate::fault::collapse_faults`] but
/// restricted so their justification chains can never meet in a cycle:
///
/// * **Equivalence** (through `Buf`/`Inv`): a site whose only reader is a
///   buffer or inverter launches the reader's transition on the same pair
///   — same V1/V2 site conditions up to the inversion, same stuck-at
///   detection condition (classic single-fanout equivalence). The fault
///   folds *forward* into the reader, polarity flipped through `Inv`.
/// * **Dominance** (into `And*`/`Nand*`/`Or*`/`Nor*`): any pair detecting
///   a single-fanout fanin's transition through the gate holds every other
///   fanin non-controlling in V2 and drives the fanin's V1 value through
///   to the gate output, so it also launches and detects the gate's output
///   transition of the matching polarity (`And`: slow-to-rise, `Nand`/
///   `Or`: slow-to-fall, `Nor`: slow-to-rise). The gate fault folds
///   *backward* into that fanin. Constant fanins are excluded (they never
///   transition).
///
/// Equivalence edges point forward through `Buf`/`Inv` readers only, and
/// dominance edges point backward from `And`/`Nand`/`Or`/`Nor` gates only;
/// a justifier of either rule can therefore only be dropped again by the
/// *same* rule, chains run strictly forward or strictly backward through
/// the DAG, and every chain ends at a kept fault. By induction, a test set
/// detecting every kept fault detects every dropped one.
pub fn transition_collapse_justifier(
    netlist: &Netlist,
    fanouts: &analysis::FanoutMap,
    fault: &TransitionFault,
) -> Option<TransitionFault> {
    // Equivalence: single reader, Buf/Inv, reader itself drives something.
    if fanouts.fanout_count(fault.site) == 1 {
        let reader = fanouts.readers(fault.site)[0];
        let kind = netlist.cell(reader).kind();
        if matches!(kind, CellKind::Buf | CellKind::Inv) && fanouts.fanout_count(reader) > 0 {
            let rkind = if kind == CellKind::Buf {
                fault.kind
            } else {
                match fault.kind {
                    TransitionKind::SlowToRise => TransitionKind::SlowToFall,
                    TransitionKind::SlowToFall => TransitionKind::SlowToRise,
                }
            };
            return Some(TransitionFault {
                site: reader,
                kind: rkind,
            });
        }
    }
    // Dominance: the gate's output transition of the polarity launched by a
    // rising (And/Nand) or falling (Or/Nor) single-fanout fanin.
    let cell = netlist.cell(fault.site);
    let (dropped_kind, fanin_kind) = match cell.kind() {
        CellKind::And2 | CellKind::And3 | CellKind::And4 => {
            (TransitionKind::SlowToRise, TransitionKind::SlowToRise)
        }
        CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => {
            (TransitionKind::SlowToFall, TransitionKind::SlowToRise)
        }
        CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => {
            (TransitionKind::SlowToFall, TransitionKind::SlowToFall)
        }
        CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => {
            (TransitionKind::SlowToRise, TransitionKind::SlowToFall)
        }
        _ => return None,
    };
    if fault.kind != dropped_kind {
        return None;
    }
    cell.fanin()
        .iter()
        .find(|&&f| {
            fanouts.fanout_count(f) == 1
                && !matches!(netlist.cell(f).kind(), CellKind::Const0 | CellKind::Const1)
        })
        .map(|&f| TransitionFault {
            site: f,
            kind: fanin_kind,
        })
}

/// Equivalence/dominance collapsing of a transition fault list (see
/// [`transition_collapse_justifier`] for the rules and their soundness).
/// Only ever removes faults: a test set detecting the collapsed list
/// detects the full list, so campaign coverage semantics are preserved
/// while every dropped fault saves its activation check and replay in
/// every batch.
pub fn collapse_transition_faults(
    netlist: &Netlist,
    faults: &[TransitionFault],
) -> Vec<TransitionFault> {
    let fanouts = analysis::FanoutMap::compute(netlist);
    faults
        .iter()
        .filter(|f| transition_collapse_justifier(netlist, &fanouts, f).is_none())
        .copied()
        .collect()
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
/// fault is detected iff `lanes ∧ O ≠ 0` (counting takes `popcount(lanes ∧
/// O)`). See the core's docs for `D`, `O` and why this is exact.
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
        self.replay_regions(active_mask, live.map(|(f, _)| f), false);
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

    /// Like [`TransitionSimulator::run_batch`], but counts *how many*
    /// distinct pattern lanes detect each fault (saturating at `target`),
    /// for N-detect test generation. Returns the number of faults that
    /// reached `target` in this batch.
    pub fn run_batch_counting(
        &mut self,
        v1_words: &[Packed256],
        v2_words: &[Packed256],
        active_mask: Packed256,
        faults: &[TransitionFault],
        counts: &mut [u32],
        target: u32,
    ) -> usize {
        self.core
            .view()
            .eval_lanes_into(v1_words, &mut self.values1);
        self.core.load(v2_words);
        let live = faults
            .iter()
            .zip(counts.iter())
            .filter(|(_, &c)| c < target);
        self.replay_regions(active_mask, live.map(|(f, _)| f), true);
        let mut newly_saturated = 0;
        for (fault, count) in faults.iter().zip(counts.iter_mut()) {
            if *count >= target {
                continue;
            }
            let hits = self.detection_lanes(fault, active_mask).count_ones();
            *count = (*count + hits).min(target);
            if *count >= target {
                newly_saturated += 1;
            }
        }
        newly_saturated
    }

    /// Passes 1 and 2 of a block over the good machines already loaded:
    /// requests the stem of every `live` fault with sensitized activation
    /// lanes, then replays each requested stem once (to quiescence when
    /// `counting`).
    fn replay_regions<'f>(
        &mut self,
        mask: Packed256,
        live: impl Iterator<Item = &'f TransitionFault>,
        counting: bool,
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
        self.core.replay_requests(counting);
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
        self.replay_regions(mask, live.iter(), false);
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
    /// Generated pattern pairs.
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
    let filter = crate::prune::StaticFilter::from_view(view);
    transition_atpg_with_filter(view, faults, config, seed, Some(&filter))
}

/// [`transition_atpg`] with an explicit prune filter (`None` disables
/// pruning). With a filter, the FIRE redundancy pass
/// ([`crate::prune::StaticFilter::redundant_transitions`]) runs once before
/// the fault loop, and the faults it flags are counted untestable without a
/// PODEM search. The two modes produce byte-identical results on a sound
/// filter: PODEM consumes no randomness during generation (`fill_random`
/// runs only after both cubes exist), and a pruned fault is exactly one
/// PODEM would have declared untestable anyway — skipping it changes
/// neither the RNG stream nor the pattern sequence. The bench suite asserts
/// this equality on real circuits.
pub fn transition_atpg_with_filter(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    config: &PodemConfig,
    seed: u64,
    filter: Option<&crate::prune::StaticFilter>,
) -> TransitionAtpgResult {
    let redundant = filter.map(|f| {
        let _span = flh_obs::span("atpg.redundancy");
        let redundant = f.redundant_transitions(faults);
        if flh_obs::enabled() {
            flh_obs::named_add("atpg.redundancy.stems", redundant.stems as u64);
        }
        redundant.flags
    });
    let podem = Podem::new(view, config.clone());
    let mut sat = SatCheck::default();
    let mut rng = Rng::seed_from_u64(seed);
    let mut detected = vec![false; faults.len()];
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut pruned = 0u64;
    let mut patterns = Vec::new();
    let mut sim = TransitionSimulator::new(view);
    let n = view.assignable().len();
    let (mut v1_words, mut v2_words) = (vec![Packed256::bot(); n], vec![Packed256::bot(); n]);

    for fi in 0..faults.len() {
        if detected[fi] {
            continue;
        }
        let fault = faults[fi];
        if filter.is_some_and(|f| f.transition_untestable(&fault)) {
            untestable += 1;
            continue;
        }
        if redundant.as_ref().is_some_and(|r| r[fi]) {
            untestable += 1;
            pruned += 1;
            continue;
        }
        // V2 detects the site stuck at its initial value; V1 justifies
        // that value.
        let cubes = podem
            .search(Some(&fault.stuck_equivalent()), &[], Some(&mut sat))
            .and_then(|v2| {
                podem
                    .search(None, &[(fault.site, fault.initial_value())], Some(&mut sat))
                    .map(|v1| (v1, v2))
            });
        let (v1_cube, v2_cube) = match cubes {
            Ok(cubes) => cubes,
            Err(end) => {
                untestable += 1;
                aborted += usize::from(end == NoCube::Aborted);
                continue;
            }
        };
        let pattern = TransitionPattern {
            v1: v1_cube.fill_random(&mut rng),
            v2: v2_cube.fill_random(&mut rng),
        };
        // Simulate the new pair against every remaining fault (lane 0
        // carries the pair; the rest of the block is masked off).
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
        detected[fi] = true;
        patterns.push(pattern);
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

/// Result of N-detect transition ATPG.
#[derive(Clone, Debug)]
pub struct NDetectResult {
    /// Generated pattern pairs.
    pub patterns: Vec<TransitionPattern>,
    /// Detection count per fault (saturated at the requested N).
    pub counts: Vec<u32>,
    /// Faults PODEM proved or abandoned as untestable.
    pub untestable: usize,
}

impl NDetectResult {
    /// Faults detected at least `n` times.
    pub fn fully_detected(&self, n: u32) -> usize {
        self.counts.iter().filter(|&&c| c >= n).count()
    }

    /// N-detect coverage in percent.
    pub fn coverage_pct(&self, n: u32) -> f64 {
        if self.counts.is_empty() {
            100.0
        } else {
            100.0 * self.fully_detected(n) as f64 / self.counts.len() as f64
        }
    }
}

/// N-detect transition ATPG: every fault is targeted until it has been
/// detected by `n` *distinct* pattern pairs. Diversity comes from the
/// random fill of PODEM's don't-cares (the specified cube per fault is
/// deterministic), which is the standard low-cost approximation of
/// path-diverse N-detect; identical consecutive fills terminate the
/// per-fault loop early.
pub fn transition_atpg_ndetect(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    config: &PodemConfig,
    seed: u64,
    n: u32,
) -> NDetectResult {
    assert!(n >= 1, "n-detect needs n >= 1");
    let podem = Podem::new(view, config.clone());
    let mut rng = Rng::seed_from_u64(seed);
    let mut counts = vec![0u32; faults.len()];
    let mut untestable = 0usize;
    let mut patterns: Vec<TransitionPattern> = Vec::new();
    let mut sim = TransitionSimulator::new(view);
    let na = view.assignable().len();
    let (mut v1_words, mut v2_words) = (vec![Packed256::bot(); na], vec![Packed256::bot(); na]);

    for fi in 0..faults.len() {
        if counts[fi] >= n {
            continue;
        }
        let fault = faults[fi];
        let Some(v2_cube) = podem.generate(&fault.stuck_equivalent()) else {
            untestable += 1;
            continue;
        };
        let Some(v1_cube) = podem.justify(fault.site, fault.initial_value()) else {
            untestable += 1;
            continue;
        };
        let mut last: Option<TransitionPattern> = None;
        let mut attempts = 0u32;
        while counts[fi] < n && attempts < 3 * n {
            attempts += 1;
            let pattern = TransitionPattern {
                v1: v1_cube.fill_random(&mut rng),
                v2: v2_cube.fill_random(&mut rng),
            };
            if last.as_ref() == Some(&pattern) {
                // Fully specified cube: no diversity left; count it once.
                counts[fi] = counts[fi].max(1);
                break;
            }
            pack_block(&mut v1_words, std::iter::once(&pattern.v1[..]));
            pack_block(&mut v2_words, std::iter::once(&pattern.v2[..]));
            sim.run_batch_counting(
                &v1_words,
                &v2_words,
                Packed256::lane_bit(0),
                faults,
                &mut counts,
                n,
            );
            last = Some(pattern.clone());
            patterns.push(pattern);
        }
    }

    NDetectResult {
        patterns,
        counts,
        untestable,
    }
}

/// Static (reverse-order) compaction of a transition test set: patterns
/// are re-fault-simulated in reverse generation order and kept only if
/// they detect a fault nothing later in the pass has covered. The
/// compacted set provably preserves coverage (verified by the caller's
/// tests via resimulation) and is typically 20-50 % smaller, reducing the
/// scan-in time that dominates two-pattern test application.
pub fn compact_transition_patterns(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
) -> Vec<TransitionPattern> {
    let mut sim = TransitionSimulator::new(view);
    let mut detected = vec![false; faults.len()];
    let n = view.assignable().len();
    let mut kept: Vec<TransitionPattern> = Vec::new();
    let (mut v1, mut v2) = (vec![Packed256::bot(); n], vec![Packed256::bot(); n]);
    for pattern in patterns.iter().rev() {
        pack_block(&mut v1, std::iter::once(&pattern.v1[..]));
        pack_block(&mut v2, std::iter::once(&pattern.v2[..]));
        if sim.run_batch(&v1, &v2, Packed256::lane_bit(0), faults, &mut detected) > 0 {
            kept.push(pattern.clone());
        }
    }
    kept.reverse();
    kept
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
    fn ndetect_reaches_higher_multiplicity() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let cfg = PodemConfig::paper_default();
        let one = transition_atpg(&view, &faults, &cfg, 9);
        let three = transition_atpg_ndetect(&view, &faults, &cfg, 9, 3);
        // 1-detect coverage matches the plain generator's detections.
        assert_eq!(
            three.coverage_pct(1),
            100.0 * one.detected_count() as f64 / faults.len() as f64
        );
        // Most detected faults reach multiplicity 3 through fill diversity.
        assert!(
            three.fully_detected(3) as f64 >= 0.5 * one.detected_count() as f64,
            "only {}/{} reached 3-detect",
            three.fully_detected(3),
            one.detected_count()
        );
        // And it costs more patterns than single-detect.
        assert!(three.patterns.len() > one.patterns.len());
        // Resimulation confirms every counted fault is genuinely detected.
        let resim = simulate_transition_patterns(&view, &faults, &three.patterns);
        for (fi, &d) in resim.iter().enumerate() {
            assert_eq!(d, three.counts[fi] > 0, "fault {fi}");
        }
    }

    #[test]
    fn ndetect_with_n1_equals_plain_coverage() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let cfg = PodemConfig::paper_default();
        let plain = transition_atpg(&view, &faults, &cfg, 4);
        let nd = transition_atpg_ndetect(&view, &faults, &cfg, 4, 1);
        assert_eq!(nd.fully_detected(1), plain.detected_count());
        assert_eq!(nd.untestable, plain.untestable);
    }

    #[test]
    fn compaction_preserves_coverage_and_shrinks_the_set() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        // A deliberately redundant set: ATPG patterns plus random filler.
        let atpg = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 9);
        let mut rng = Rng::seed_from_u64(77);
        let na = view.assignable().len();
        let mut patterns = atpg.patterns.clone();
        for _ in 0..100 {
            patterns.push(TransitionPattern {
                v1: (0..na).map(|_| rng.gen()).collect(),
                v2: (0..na).map(|_| rng.gen()).collect(),
            });
        }
        let before = simulate_transition_patterns(&view, &faults, &patterns);
        let compacted = compact_transition_patterns(&view, &faults, &patterns);
        let after = simulate_transition_patterns(&view, &faults, &compacted);
        assert_eq!(before, after, "compaction changed coverage");
        assert!(
            compacted.len() < patterns.len(),
            "no compaction achieved: {} -> {}",
            patterns.len(),
            compacted.len()
        );
        // Every kept pattern appears in the original set.
        for p in &compacted {
            assert!(patterns.contains(p));
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
                // And exact per-lane agreement through the counting path.
                let mut counts = vec![0u32];
                sim.run_batch_counting(
                    &w1,
                    &w2,
                    mask,
                    std::slice::from_ref(fault),
                    &mut counts,
                    256,
                );
                let hits: u32 = reference.iter().map(|r| r.count_ones()).sum();
                assert_eq!(counts[0], hits, "{fault:?} {mask:?}");
            }
        }
    }

    /// Checks stem-region simulation lane by lane against the references
    /// on `n`. Transition faults against [`transition_detects_reference`]:
    /// `run_batch` and `run_batch_counting` over the whole fault list at
    /// once (several faults per stem: full propagation) and `run_batch` per
    /// fault (one fault per stem: early exit). Stuck-at stem and branch
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
                let mut counts = vec![0u32; faults.len()];
                sim.run_batch_counting(&w1, &w2, mask, &faults, &mut counts, 256);
                let lanes: Vec<u32> = reference
                    .iter()
                    .map(|r| r.iter().map(|w| w.count_ones()).sum())
                    .collect();
                assert_eq!(counts, lanes, "{}: counts, {mask:?}", n.name());
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
    fn chain_collapse_folds_forward_through_buf_and_inv() {
        // a -> inv -> buf -> y: a's faults fold into inv (flipped), inv's
        // into buf (same), buf's are kept (reader is the output marker).
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let i = n.add_cell("i", CellKind::Inv, vec![a]);
        let b = n.add_cell("b", CellKind::Buf, vec![i]);
        n.add_output("y", b);
        let faults = enumerate_transition_faults(&n);
        assert_eq!(faults.len(), 6);
        let collapsed = collapse_transition_faults(&n, &faults);
        assert_eq!(collapsed.len(), 2);
        assert!(collapsed.iter().all(|f| f.site == b));
        // The justifier of a's slow-to-rise is inv's slow-to-fall.
        let fanouts = analysis::FanoutMap::compute(&n);
        let j = transition_collapse_justifier(
            &n,
            &fanouts,
            &TransitionFault {
                site: a,
                kind: TransitionKind::SlowToRise,
            },
        )
        .unwrap();
        assert_eq!(j.site, i);
        assert_eq!(j.kind, TransitionKind::SlowToFall);
    }

    #[test]
    fn gate_dominance_drops_the_matching_polarity_only() {
        // Single-fanout inputs into an AND: the gate's slow-to-rise is
        // dominated by an input's slow-to-rise; its slow-to-fall is kept.
        let mut n = Netlist::new("dom");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::And2, vec![a, b]);
        n.add_output("y", g);
        let faults = enumerate_transition_faults(&n);
        let collapsed = collapse_transition_faults(&n, &faults);
        assert!(!collapsed.contains(&TransitionFault {
            site: g,
            kind: TransitionKind::SlowToRise,
        }));
        assert!(collapsed.contains(&TransitionFault {
            site: g,
            kind: TransitionKind::SlowToFall,
        }));
        // Inputs keep both faults (their reader is a gate, not Buf/Inv).
        for site in [a, b] {
            for kind in [TransitionKind::SlowToRise, TransitionKind::SlowToFall] {
                assert!(collapsed.contains(&TransitionFault { site, kind }));
            }
        }
    }

    #[test]
    fn every_justifier_detection_implies_the_dropped_fault() {
        // Simulation check of the collapsing soundness argument: on a real
        // circuit, any random pair batch detecting a justifier also
        // detects the fault it justified dropping.
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let fanouts = analysis::FanoutMap::compute(&n);
        let mut rng = Rng::seed_from_u64(41);
        let na = view.assignable().len();
        let mut checked = 0;
        for _ in 0..4 {
            let v1: Vec<u64> = (0..na).map(|_| rng.gen()).collect();
            let v2: Vec<u64> = (0..na).map(|_| rng.gen()).collect();
            for fault in &faults {
                let Some(j) = transition_collapse_justifier(&n, &fanouts, fault) else {
                    continue;
                };
                let jd = transition_detects_reference(&view, &j, &v1, &v2, !0);
                let fd = transition_detects_reference(&view, fault, &v1, &v2, !0);
                // Per-lane: a lane detecting the justifier detects the
                // dropped fault (dominance); equivalence is two-sided but
                // satisfies the same inclusion.
                assert_eq!(jd & !fd, 0, "{fault:?} justified by {j:?}");
                checked += 1;
            }
        }
        assert!(checked > 0, "collapsing never fired on the test circuit");
    }

    #[test]
    fn collapsed_campaign_coverage_implies_full_coverage() {
        // ATPG on the collapsed list, resimulate the full list: every
        // fault whose representative chain is covered must be covered.
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let collapsed = collapse_transition_faults(&n, &faults);
        assert!(collapsed.len() < faults.len());
        let result = transition_atpg(&view, &collapsed, &PodemConfig::paper_default(), 9);
        let full = simulate_transition_patterns(&view, &faults, &result.patterns);
        // det-ok: test-only lookup table, keyed reads only, never iterated.
        let by_fault: std::collections::HashMap<TransitionFault, bool> =
            faults.iter().copied().zip(full.iter().copied()).collect();
        for (cf, &cd) in collapsed.iter().zip(&result.detected) {
            if cd {
                assert!(by_fault[cf], "{cf:?} lost by resimulation");
            }
        }
        // Dropped faults whose justifier (transitively, a kept fault) was
        // detected are detected too.
        let fanouts = analysis::FanoutMap::compute(&n);
        for f in &faults {
            let mut cur = *f;
            let mut hops = 0;
            while let Some(j) = transition_collapse_justifier(&n, &fanouts, &cur) {
                cur = j;
                hops += 1;
                assert!(hops < faults.len(), "justifier chain cycled");
            }
            if cur != *f && by_fault[&cur] {
                assert!(by_fault[f], "{f:?} not covered though {cur:?} is");
            }
        }
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
