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

use flh_exec::{gather, DropMask, ThreadPool};
use flh_netlist::{
    analysis, CellId, CellKind, CompiledCircuit, LaneWord, Netlist, Packed256, PatternWord,
};
use flh_rng::Rng;

use crate::fault::{Fault, StuckValue};
use crate::fsim::{FaultStats, MIN_FAULTS_PER_SHARD, PATTERN_BLOCK};
use crate::podem::{Podem, PodemConfig};
use crate::replay::DeviationReplay;
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

/// Event-driven transition fault simulator over a test view, built on the
/// shared [`DeviationReplay`] engine.
///
/// Like [`crate::fsim::StuckSimulator`], it walks the view's compiled
/// circuit: the faulty V2 machine is replayed in place from the fault site
/// through the readers of changed cells only — never the site's full
/// static fanout cone — detection scans only changed observation drivers,
/// and replay aborts as soon as an activation lane miscompares.
pub struct TransitionSimulator<'v, 'a> {
    view: &'v TestView<'a>,
    /// Good V2 values, reused across batches; faulty resimulation mutates
    /// it in place under the replay engine's undo log.
    values2: Vec<Packed256>,
    /// Good V1 values (never mutated per fault).
    values1: Vec<Packed256>,
    replay: DeviationReplay<Packed256>,
}

impl<'v, 'a> TransitionSimulator<'v, 'a> {
    /// Builds a simulator.
    pub fn new(view: &'v TestView<'a>) -> Self {
        TransitionSimulator {
            view,
            values2: Vec::new(),
            values1: Vec::new(),
            replay: DeviationReplay::new(view.compiled(), view.program_arc()),
        }
    }

    /// Event-driven replay of the V2 machine under `fault`'s stuck
    /// equivalent, forced only in the activated `lanes`; returns the
    /// observation miscompare word and leaves `values2` restored to the
    /// good machine. The other lanes keep the site's good value: every
    /// opcode is lane-wise, so a lane's faulty value depends on that lane
    /// alone, and a deviation in a lane that is not activated could only
    /// feed miscompare bits the caller masks off — forcing there would
    /// just propagate events no detection reads. `stop_lanes` is forwarded
    /// to [`DeviationReplay::replay`]: detection passes the activation
    /// lanes (abort on first miscompare there), counting passes
    /// [`Packed256::bot`] (full propagation for an exact per-lane word).
    fn faulty_miscompare(
        &mut self,
        fault: &TransitionFault,
        lanes: Packed256,
        stop_lanes: Packed256,
    ) -> Packed256 {
        let seed = fault.site.index() as u32;
        let good = self.values2[seed as usize];
        let forced = if fault.stuck_equivalent().stuck.as_bool() {
            good.or(lanes)
        } else {
            good.and(lanes.not())
        };
        self.replay.replay(
            self.view.compiled(),
            self.view.observed_drivers(),
            &mut self.values2,
            seed,
            forced,
            stop_lanes,
        )
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
        let (view, values1, values2) = (self.view, &mut self.values1, &mut self.values2);
        view.eval_lanes_into(v1_words, values1);
        view.eval_lanes_into(v2_words, values2);
        let mut new_hits = 0;
        let mut activation_skips = 0u64;

        for (fi, fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue;
            }
            let lanes = self.activation_lanes(fault).and(active_mask);
            if !lanes.any() {
                activation_skips += 1;
                continue;
            }
            if self.faulty_miscompare(fault, lanes, lanes).and(lanes).any() {
                detected[fi] = true;
                new_hits += 1;
            }
        }
        if flh_obs::enabled() {
            // Per-fault quantities only: invariant under fault-list
            // sharding (the good-machine evaluations above are per-shard
            // work and deliberately uncounted).
            flh_obs::add(
                flh_obs::Counter::TransitionActivationSkips,
                activation_skips,
            );
            flh_obs::add(flh_obs::Counter::TransitionDetections, new_hits as u64);
        }
        new_hits
    }

    /// Lanes where V1 sets the initial value and V2 the final value at the
    /// fault site.
    fn activation_lanes(&self, fault: &TransitionFault) -> Packed256 {
        let site = fault.site.index();
        let init_mask = if fault.initial_value() {
            self.values1[site]
        } else {
            self.values1[site].not()
        };
        let launch_mask = if fault.final_value() {
            self.values2[site]
        } else {
            self.values2[site].not()
        };
        init_mask.and(launch_mask)
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
        let (view, values1, values2) = (self.view, &mut self.values1, &mut self.values2);
        view.eval_lanes_into(v1_words, values1);
        view.eval_lanes_into(v2_words, values2);
        let mut newly_saturated = 0;
        let mut activation_skips = 0u64;

        for (fi, fault) in faults.iter().enumerate() {
            if counts[fi] >= target {
                continue;
            }
            let lanes = self.activation_lanes(fault).and(active_mask);
            if !lanes.any() {
                activation_skips += 1;
                continue;
            }
            // stop_lanes = bot: counting needs the exact per-lane word, so
            // the replay must run to quiescence — no early exit.
            let hits = self
                .faulty_miscompare(fault, lanes, Packed256::bot())
                .and(lanes)
                .count_ones();
            if hits > 0 {
                let before = counts[fi];
                counts[fi] = (counts[fi] + hits).min(target);
                if before < target && counts[fi] >= target {
                    newly_saturated += 1;
                }
            }
        }
        if flh_obs::enabled() {
            flh_obs::add(
                flh_obs::Counter::TransitionActivationSkips,
                activation_skips,
            );
        }
        newly_saturated
    }
}

/// Packs up to [`PATTERN_BLOCK`] pattern pairs into per-assignable
/// superwords and returns the lane mask covering exactly the packed pairs.
fn pack_pair_batch(
    chunk: &[TransitionPattern],
    n: usize,
    v1_words: &mut [Packed256],
    v2_words: &mut [Packed256],
) -> Packed256 {
    v1_words.fill(Packed256::bot());
    v2_words.fill(Packed256::bot());
    for (lane, p) in chunk.iter().enumerate() {
        let (limb, bit) = (lane / 64, 1u64 << (lane % 64));
        for i in 0..n {
            if p.v1[i] {
                v1_words[i].0[limb] |= bit;
            }
            if p.v2[i] {
                v2_words[i].0[limb] |= bit;
            }
        }
    }
    Packed256::mask_lanes(chunk.len())
}

/// Reorders a transition fault list **level-major by site** (ties broken
/// by dense cell id, then original position): the replay seeded at each
/// site then sweeps the compiled program front-to-back, so consecutive
/// faults touch adjacent bytecode/CSR regions. Locality only — per-fault
/// detection results never depend on processing order; callers returning
/// per-fault vectors must scatter results back through the permutation.
pub fn order_transition_faults(
    compiled: &CompiledCircuit,
    faults: &[TransitionFault],
) -> Vec<TransitionFault> {
    let mut ordered: Vec<TransitionFault> = faults.to_vec();
    ordered.sort_by_key(|f| {
        let seed = f.site.index() as u32;
        (compiled.level_of(seed), seed)
    });
    ordered
}

/// One worker's share of a partitioned pair campaign: a fresh simulator,
/// the full pattern-pair set, the faults of one dealt shard. Faults
/// flagged in `dropped` were detected by an earlier call and are never
/// replayed again; the shard's updated flags are merged back by the
/// caller.
fn pair_stats_shard(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
    mut dropped: Vec<bool>,
) -> (Vec<FaultStats>, Vec<bool>) {
    let mut sim = TransitionSimulator::new(view);
    let mut stats = vec![FaultStats::default(); faults.len()];
    let already: Vec<bool> = dropped.clone();
    let n = view.assignable().len();
    let mut v1_words = vec![Packed256::bot(); n];
    let mut v2_words = vec![Packed256::bot(); n];
    for (batch, chunk) in patterns.chunks(PATTERN_BLOCK).enumerate() {
        let mask = pack_pair_batch(chunk, n, &mut v1_words, &mut v2_words);
        let new_hits = sim.run_batch(&v1_words, &v2_words, mask, faults, &mut dropped);
        if new_hits > 0 {
            for ((s, &d), &pre) in stats.iter_mut().zip(&dropped).zip(&already) {
                if d && !pre && !s.detected {
                    s.detected = true;
                    s.first_batch = Some(batch as u32);
                }
            }
        }
    }
    (stats, dropped)
}

impl TransitionSimulator<'_, '_> {
    /// Partitioned pattern-pair campaign: faults dealt out to the pool
    /// workers in chunks ([`ThreadPool::partition_min`]), each shard on its
    /// own simulator, per-fault stats scattered back **by fault id**
    /// through each shard's ranges — never in completion order.
    /// Bit-identical at any pool size.
    pub fn simulate_partitioned(
        view: &TestView<'_>,
        faults: &[TransitionFault],
        patterns: &[TransitionPattern],
        pool: &ThreadPool,
    ) -> Vec<FaultStats> {
        let mut drops = DropMask::new(faults.len());
        Self::simulate_partitioned_dropping(view, faults, patterns, pool, &mut drops)
    }

    /// [`TransitionSimulator::simulate_partitioned`] with a persistent
    /// [`DropMask`]: faults already dropped are skipped by every shard and
    /// batch, and this call's detections are merged back into `drops`, so
    /// a staged campaign (incremental pair blocks) never re-replays a
    /// detected fault. Stats describe **this call only** — a fault dropped
    /// by an earlier call reports `FaultStats::default()`.
    pub fn simulate_partitioned_dropping(
        view: &TestView<'_>,
        faults: &[TransitionFault],
        patterns: &[TransitionPattern],
        pool: &ThreadPool,
        drops: &mut DropMask,
    ) -> Vec<FaultStats> {
        assert_eq!(drops.len(), faults.len(), "drop mask length mismatch");
        let parts = pool.run_partitioned_min(faults.len(), MIN_FAULTS_PER_SHARD, |shard| {
            pair_stats_shard(view, &gather(faults, shard), patterns, drops.shard(shard))
        });
        let mut stats = vec![FaultStats::default(); faults.len()];
        for (shard, (shard_stats, flags)) in parts {
            for (fi, s) in shard.iter().flat_map(|r| r.clone()).zip(shard_stats) {
                stats[fi] = s;
            }
            drops.merge_shard(&shard, &flags);
        }
        stats
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
/// detection flags. Serial ([`ThreadPool::serial`]) case of
/// [`simulate_transition_patterns_partitioned`].
pub fn simulate_transition_patterns(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
) -> Vec<bool> {
    simulate_transition_patterns_partitioned(view, faults, patterns, &ThreadPool::serial())
}

/// Pooled [`simulate_transition_patterns`]: faults sharded over the pool,
/// detection flags merged in fault-id order, identical at any pool size.
pub fn simulate_transition_patterns_partitioned(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
    pool: &ThreadPool,
) -> Vec<bool> {
    TransitionSimulator::simulate_partitioned(view, faults, patterns, pool)
        .into_iter()
        .map(|s| s.detected)
        .collect()
}

/// Staged [`simulate_transition_patterns_partitioned`]: detections
/// accumulate in `drops` across calls, already-dropped faults are skipped
/// by every shard, and the returned flags are the mask's state *after*
/// this call (cumulative coverage, not per-call novelty).
pub fn simulate_transition_patterns_dropping(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
    pool: &ThreadPool,
    drops: &mut DropMask,
) -> Vec<bool> {
    TransitionSimulator::simulate_partitioned_dropping(view, faults, patterns, pool, drops);
    drops.flags().to_vec()
}

/// Result of a deterministic transition ATPG run.
#[derive(Clone, Debug)]
pub struct TransitionAtpgResult {
    /// Generated pattern pairs.
    pub patterns: Vec<TransitionPattern>,
    /// Per-fault detection flags (aligned with the input fault list).
    pub detected: Vec<bool>,
    /// Faults proven or declared untestable / aborted by PODEM.
    pub untestable: usize,
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

    /// Fault efficiency in percent ((detected + untestable) / total).
    pub fn efficiency_pct(&self) -> f64 {
        if self.detected.is_empty() {
            100.0
        } else {
            100.0 * (self.detected_count() + self.untestable) as f64 / self.detected.len() as f64
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
    let mut rng = Rng::seed_from_u64(seed);
    let mut detected = vec![false; faults.len()];
    let mut untestable = 0usize;
    let mut pruned = 0u64;
    let mut patterns = Vec::new();
    let mut sim = TransitionSimulator::new(view);
    let n = view.assignable().len();

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
        let v2_cube = match podem.generate(&fault.stuck_equivalent()) {
            Some(c) => c,
            None => {
                untestable += 1;
                continue;
            }
        };
        let v1_cube = match podem.justify(fault.site, fault.initial_value()) {
            Some(c) => c,
            None => {
                untestable += 1;
                continue;
            }
        };
        let pattern = TransitionPattern {
            v1: v1_cube.fill_random(&mut rng),
            v2: v2_cube.fill_random(&mut rng),
        };
        // Simulate the new pair against every remaining fault (lane 0
        // carries the pair; the rest of the block is masked off).
        let mut v1_words = vec![Packed256::bot(); n];
        let mut v2_words = vec![Packed256::bot(); n];
        for i in 0..n {
            v1_words[i] = Packed256::from_word(if pattern.v1[i] { 1 } else { 0 });
            v2_words[i] = Packed256::from_word(if pattern.v2[i] { 1 } else { 0 });
        }
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
            let mut v1_words = vec![Packed256::bot(); na];
            let mut v2_words = vec![Packed256::bot(); na];
            for i in 0..na {
                v1_words[i] = Packed256::from_word(if pattern.v1[i] { 1 } else { 0 });
                v2_words[i] = Packed256::from_word(if pattern.v2[i] { 1 } else { 0 });
            }
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
    for pattern in patterns.iter().rev() {
        let mut v1 = vec![Packed256::bot(); n];
        let mut v2 = vec![Packed256::bot(); n];
        for i in 0..n {
            v1[i] = Packed256::from_word(if pattern.v1[i] { 1 } else { 0 });
            v2[i] = Packed256::from_word(if pattern.v2[i] { 1 } else { 0 });
        }
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
        let patterns: Vec<TransitionPattern> = (0..130)
            .map(|_| TransitionPattern {
                v1: (0..na).map(|_| rng.gen()).collect(),
                v2: (0..na).map(|_| rng.gen()).collect(),
            })
            .collect();
        let serial = TransitionSimulator::simulate_partitioned(
            &view,
            &faults,
            &patterns,
            &ThreadPool::serial(),
        );
        let flags = simulate_transition_patterns(&view, &faults, &patterns);
        for (s, &d) in serial.iter().zip(&flags) {
            assert_eq!(s.detected, d);
            assert_eq!(s.first_batch.is_some(), d);
        }
        for workers in [2, 4, 8] {
            let pooled = TransitionSimulator::simulate_partitioned(
                &view,
                &faults,
                &patterns,
                &ThreadPool::new(workers),
            );
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

    #[test]
    fn fault_ordering_is_level_major_and_coverage_invariant() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let ordered = order_transition_faults(view.compiled(), &faults);
        assert_eq!(ordered.len(), faults.len());
        assert!(ordered
            .windows(2)
            .all(|w| view.compiled().level_of(w[0].site.index() as u32)
                <= view.compiled().level_of(w[1].site.index() as u32)));
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
        assert_eq!(
            base.iter().filter(|&&d| d).count(),
            perm.iter().filter(|&&d| d).count(),
            "ordering changed total coverage"
        );
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
    fn dropping_across_calls_matches_one_shot_simulation() {
        let n = small();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_transition_faults(&n);
        let mut rng = Rng::seed_from_u64(55);
        let na = view.assignable().len();
        let patterns: Vec<TransitionPattern> = (0..192)
            .map(|_| TransitionPattern {
                v1: (0..na).map(|_| rng.gen()).collect(),
                v2: (0..na).map(|_| rng.gen()).collect(),
            })
            .collect();
        let whole = simulate_transition_patterns(&view, &faults, &patterns);
        let mut drops = flh_exec::DropMask::new(faults.len());
        let mut staged = Vec::new();
        for block in patterns.chunks(80) {
            staged = simulate_transition_patterns_dropping(
                &view,
                &faults,
                block,
                &ThreadPool::new(3),
                &mut drops,
            );
        }
        assert_eq!(staged, whole);
        // Replaying covered patterns reports no new detections.
        let again = TransitionSimulator::simulate_partitioned_dropping(
            &view,
            &faults,
            &patterns,
            &ThreadPool::serial(),
            &mut drops,
        );
        for (s, &d) in again.iter().zip(&whole) {
            assert!(!s.detected || !d, "dropped fault was re-detected");
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
