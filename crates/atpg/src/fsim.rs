//! Parallel-pattern fault simulation with fault dropping: the stuck-at
//! front of the stem-region engine, and the pack / shard / scatter path
//! both fault models share.
//!
//! There is one fault simulator, the stem-region core in the `region`
//! module: per 256-pattern block it evaluates the good machine once (one
//! [`Packed256`] superword per assignable line), traces every live fault's
//! lanes to its fanout-free region's stem, and replays each requested stem
//! once through [`crate::replay::DeviationReplay`]. [`StuckSimulator`] runs
//! it on one frame, [`crate::transition::TransitionSimulator`] on the V2
//! frame of a pattern pair. A stuck stem fault enters its region at its
//! site, in the lanes where the good value opposes the stuck value; a
//! branch fault `(g, p)` enters at `g`, in the lanes where
//! [`flh_netlist::Program::eval_cell_pinned`] — `g` with pin `p` read as
//! its driver's complement — differs from `g`'s good value.
//!
//! A final partial block is handled by **masking**: the block's lane mask
//! has only the populated lanes set, and every activation word is
//! intersected with it, so padding lanes never touch detection flags or
//! coverage counts.

use flh_exec::{gather, DropMask, ThreadPool};
use flh_netlist::{LaneWord, Packed256, PatternWord};

use crate::fault::{Fault, FaultSite};
use crate::region::{deal_regions, RegionFault, RegionSim};
use crate::tview::TestView;

/// Faults per dealt chunk of a partitioned campaign: a list of fewer than
/// two chunks runs as one shard, because the per-shard cost (a fresh
/// simulator, a good-machine evaluation per batch) would outweigh any
/// parallelism. Chunks end at region boundaries (`deal_regions`), and
/// shard boundaries never affect results — stats are scattered back by
/// fault id — so this is purely a throughput knob.
pub(crate) const MIN_FAULTS_PER_SHARD: usize = 64;

/// Pattern lanes per simulation block — the width of one [`Packed256`]
/// superword.
pub const PATTERN_BLOCK: usize = Packed256::LANES;

/// 256-lane parallel-pattern stuck-at fault simulator: the one-frame front
/// of the stem-region core (see the [module docs](self)).
pub struct StuckSimulator<'v, 'a> {
    core: RegionSim<'v, 'a>,
}

impl<'v, 'a> StuckSimulator<'v, 'a> {
    /// Builds a simulator over a test view.
    pub fn new(view: &'v TestView<'a>) -> Self {
        StuckSimulator {
            core: RegionSim::new(view),
        }
    }

    /// Simulates up to 256 patterns (one per lane of `words`) against the
    /// fault list, setting `detected` flags. Lanes outside `active_mask`
    /// are padding and never influence detection. Returns new detections.
    pub fn run_batch(
        &mut self,
        words: &[Packed256],
        active_mask: Packed256,
        faults: &[Fault],
        detected: &mut [bool],
    ) -> usize {
        self.core.load(words);
        let mut activation_skips = 0u64;
        let mut evals = 0u64;
        for (fault, _) in faults.iter().zip(detected.iter()).filter(|(_, &d)| !d) {
            let act = self.activation_lanes(fault).and(active_mask);
            if !act.any() {
                activation_skips += 1;
                continue;
            }
            let flip = self.flip_lanes(fault, act);
            if flip.any() {
                self.core.request(fault.entry(), flip, &mut evals);
            }
        }
        self.core.replay_requests(false);
        let mut new_hits = 0;
        for (fault, d) in faults.iter().zip(detected.iter_mut()) {
            let observed = self.core.observed(fault.entry());
            if *d || !observed.any() {
                continue;
            }
            let act = self.activation_lanes(fault).and(active_mask);
            if self.flip_lanes(fault, act).and(observed).any() {
                *d = true;
                new_hits += 1;
            }
        }
        if flh_obs::enabled() {
            // Per-fault quantities only (skips, detections): invariant
            // under fault-list sharding, so safe as deterministic metrics.
            // The per-shard good-machine evaluation above is width-
            // dependent and is deliberately not counted; the region walk's
            // `evals` has no stuck-at counter.
            flh_obs::add(flh_obs::Counter::StuckActivationSkips, activation_skips);
            flh_obs::add(flh_obs::Counter::StuckDetections, new_hits as u64);
        }
        new_hits
    }

    /// Lanes where the faulted line's good value opposes the stuck value.
    fn activation_lanes(&self, fault: &Fault) -> Packed256 {
        let line = self.core.good()[fault.driver(self.core.view().netlist()).index()];
        if fault.stuck.as_bool() {
            line.not()
        } else {
            line
        }
    }

    /// The lanes of `act` in which the fault flips its entry cell: all of
    /// them for a stem fault; for a branch fault, those where forcing the
    /// pin flips the gate.
    fn flip_lanes(&mut self, fault: &Fault, act: Packed256) -> Packed256 {
        match fault.site {
            FaultSite::Stem(_) => act,
            FaultSite::Branch { gate, pin } => {
                act.and(self.core.pin_flip(gate.index() as u32, pin))
            }
        }
    }
}

/// Per-fault outcome of a partitioned campaign: the detection flag plus the
/// index of the 256-pattern block that first caught the fault. Block
/// indices are global over the pattern set, so they are identical no
/// matter how the fault list is partitioned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// The fault was detected by at least one pattern.
    pub detected: bool,
    /// Index of the first detecting 256-pattern block (`None` if
    /// undetected).
    pub first_batch: Option<u32>,
}

/// Packs up to [`PATTERN_BLOCK`] frame rows (one bit per assignable) into
/// one superword per assignable, row `k` in lane `k`; the lanes past the
/// last row are 0.
///
/// # Panics
///
/// Panics if a row's length differs from `words.len()`.
pub(crate) fn pack_block<'p>(words: &mut [Packed256], rows: impl Iterator<Item = &'p [bool]>) {
    words.fill(Packed256::bot());
    for (lane, row) in rows.enumerate() {
        assert_eq!(row.len(), words.len(), "pattern length mismatch");
        let (limb, bit) = (lane / 64, 1u64 << (lane % 64));
        for (w, &b) in words.iter_mut().zip(row) {
            if b {
                w.0[limb] |= bit;
            }
        }
    }
}

/// A fault-simulation front over the stem-region core, as the shared
/// partitioned path drives it: a fresh simulator per shard, and patterns of
/// `FRAMES` rows (one bit per assignable) packed one block at a time.
pub(crate) trait BlockSim<'v, 'a>: Sized {
    /// The fault model.
    type Fault: RegionFault;
    /// The pattern type.
    type Pattern: Sync;
    /// Frames per pattern: one for a stuck-at pattern, two for a pair.
    const FRAMES: usize;
    /// Frame `f`'s row of `pattern`.
    fn frame(pattern: &Self::Pattern, f: usize) -> &[bool];
    /// A simulator over `view`.
    fn new(view: &'v TestView<'a>) -> Self;
    /// Simulates one block (`frames[f]` packed from frame `f` of every
    /// pattern, lanes outside `mask` padding) against `faults`, setting
    /// `detected` flags. Returns new detections.
    fn run_frames(
        &mut self,
        frames: &[Vec<Packed256>],
        mask: Packed256,
        faults: &[Self::Fault],
        detected: &mut [bool],
    ) -> usize;
}

impl<'v, 'a> BlockSim<'v, 'a> for StuckSimulator<'v, 'a> {
    type Fault = Fault;
    type Pattern = Vec<bool>;
    const FRAMES: usize = 1;
    fn frame(pattern: &Vec<bool>, _: usize) -> &[bool] {
        pattern
    }
    fn new(view: &'v TestView<'a>) -> Self {
        StuckSimulator::new(view)
    }
    fn run_frames(
        &mut self,
        frames: &[Vec<Packed256>],
        mask: Packed256,
        faults: &[Fault],
        detected: &mut [bool],
    ) -> usize {
        self.run_batch(&frames[0], mask, faults, detected)
    }
}

/// One worker's share of a partitioned campaign: a fresh simulator over the
/// shared view, the full pattern set, the faults of one dealt shard (whole
/// regions). Faults flagged in `dropped` were detected by an earlier call
/// and are never simulated again; the shard's updated flags are merged
/// back by the caller.
fn stats_shard<'v, 'a, S: BlockSim<'v, 'a>>(
    view: &'v TestView<'a>,
    faults: &[S::Fault],
    patterns: &[S::Pattern],
    mut dropped: Vec<bool>,
) -> (Vec<FaultStats>, Vec<bool>) {
    let mut sim = S::new(view);
    let mut stats = vec![FaultStats::default(); faults.len()];
    let already: Vec<bool> = dropped.clone();
    let n = view.assignable().len();
    let mut frames = vec![vec![Packed256::bot(); n]; S::FRAMES];
    for (batch, chunk) in patterns.chunks(PATTERN_BLOCK).enumerate() {
        for (f, words) in frames.iter_mut().enumerate() {
            pack_block(words, chunk.iter().map(|p| S::frame(p, f)));
        }
        let mask = Packed256::mask_lanes(chunk.len());
        let new_hits = sim.run_frames(&frames, mask, faults, &mut dropped);
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

/// The partitioned campaign both fronts share: faults sorted region-major
/// and dealt out to the pool workers in chunks of whole fanout-free
/// regions (see the `region` module), each shard on its own simulator,
/// per-fault stats scattered back **by fault id** — never in completion
/// order. Faults already in `drops` are skipped by every shard and batch,
/// and this call's detections are merged back into it. Bit-identical at
/// any pool size, deterministic counters included.
pub(crate) fn simulate_partitioned<'v, 'a, S: BlockSim<'v, 'a>>(
    view: &'v TestView<'a>,
    faults: &[S::Fault],
    patterns: &[S::Pattern],
    pool: &ThreadPool,
    drops: &mut DropMask,
) -> Vec<FaultStats> {
    assert_eq!(drops.len(), faults.len(), "drop mask length mismatch");
    // Position `p` of the region-major list holds input fault `order[p]`;
    // the shards work on positions and everything is scattered back
    // through `order`.
    let order = view.regions().order(view.compiled(), faults);
    let ordered: Vec<S::Fault> = order.iter().map(|&i| faults[i]).collect();
    let mut ordered_drops = DropMask::new(faults.len());
    for (p, &i) in order.iter().enumerate() {
        if drops.is_dropped(i) {
            ordered_drops.drop_fault(p);
        }
    }
    let parts = deal_regions(pool, view.regions(), &ordered, |shard| {
        stats_shard::<S>(
            view,
            &gather(&ordered, shard),
            patterns,
            ordered_drops.shard(shard),
        )
    });
    let mut stats = vec![FaultStats::default(); faults.len()];
    for (shard, (shard_stats, flags)) in parts {
        for (p, s) in shard.iter().flat_map(|r| r.clone()).zip(shard_stats) {
            stats[order[p]] = s;
        }
        ordered_drops.merge_shard(&shard, &flags);
    }
    for (p, &i) in order.iter().enumerate() {
        if ordered_drops.is_dropped(p) {
            drops.drop_fault(i);
        }
    }
    stats
}

impl StuckSimulator<'_, '_> {
    /// Partitioned stuck-at campaign: faults dealt out to the pool workers
    /// in chunks of whole fanout-free regions, each shard on its own
    /// simulator, per-fault stats scattered back **by fault id** —
    /// completion order never matters. Bit-identical at any pool size.
    pub fn simulate_partitioned(
        view: &TestView<'_>,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        pool: &ThreadPool,
    ) -> Vec<FaultStats> {
        let mut drops = DropMask::new(faults.len());
        Self::simulate_partitioned_dropping(view, faults, patterns, pool, &mut drops)
    }

    /// [`StuckSimulator::simulate_partitioned`] with a persistent
    /// [`DropMask`]: faults already dropped are skipped by every shard, and
    /// this call's detections are merged back into `drops`, so a sequence
    /// of calls (incremental pattern blocks) never re-simulates a detected
    /// fault. Stats describe **this call only** — a fault dropped by an
    /// earlier call reports `FaultStats::default()`.
    pub fn simulate_partitioned_dropping(
        view: &TestView<'_>,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        pool: &ThreadPool,
        drops: &mut DropMask,
    ) -> Vec<FaultStats> {
        simulate_partitioned::<StuckSimulator>(view, faults, patterns, pool, drops)
    }
}

/// Simulates a fully-specified pattern set against a stuck-at fault list,
/// returning per-fault detection flags. Patterns are bit vectors in
/// [`TestView::assignable`] order. Serial ([`ThreadPool::serial`]) case of
/// [`stuck_coverage_partitioned`].
pub fn stuck_coverage(view: &TestView<'_>, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
    stuck_coverage_partitioned(view, faults, patterns, &ThreadPool::serial())
}

/// Pooled [`stuck_coverage`]: the fault list is dealt over the pool's
/// workers in whole fanout-free regions, each shard on its own simulator.
/// Detection flags are merged in fault-id order and are identical at any
/// pool size.
pub fn stuck_coverage_partitioned(
    view: &TestView<'_>,
    faults: &[Fault],
    patterns: &[Vec<bool>],
    pool: &ThreadPool,
) -> Vec<bool> {
    StuckSimulator::simulate_partitioned(view, faults, patterns, pool)
        .into_iter()
        .map(|s| s.detected)
        .collect()
}

/// Reference stuck-at detection for one fault and one 64-pattern word:
/// full faulted re-evaluation through [`TestView::eval64`], full
/// observation scan. Quadratically slower than [`StuckSimulator`] but
/// independent of the region and replay machinery — the equivalence oracle
/// for it (superword runs check each [`Packed256`] limb against it).
pub fn stuck_detects_reference(
    view: &TestView<'_>,
    fault: &Fault,
    words: &[u64],
    mask: u64,
) -> u64 {
    let good = view.eval64(words, None);
    let faulty = view.eval64(words, Some(fault));
    let driver = fault.driver(view.netlist());
    let line = good[driver.index()];
    let active = if fault.stuck.as_bool() { !line } else { line };
    let obs_good = view.observe64(&good);
    let obs_faulty = view.observe64(&faulty);
    let miscompare = obs_good
        .iter()
        .zip(&obs_faulty)
        .fold(0u64, |acc, (g, b)| acc | (g ^ b));
    miscompare & active & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_stuck_faults, StuckValue};
    use crate::podem::{Podem, PodemConfig};
    use crate::region::RegionFault;
    use flh_netlist::{generate_circuit, CellKind, GeneratorConfig, Netlist};
    use flh_rng::Rng;

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "fsim".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 7,
            gates: 60,
            logic_depth: 6,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 404,
        })
        .expect("generates")
    }

    /// Embeds 64-lane words in the low limb of a superword batch.
    fn widen(words: &[u64]) -> Vec<Packed256> {
        words.iter().map(|&w| Packed256::from_word(w)).collect()
    }

    /// `g = AND(a, b)` feeds output `y` and `ff.D`, and `ff` feeds `z`
    /// through a buffer: `g` fans out into an observation pin.
    fn observed_fanout() -> Netlist {
        let mut n = Netlist::new("obsfan");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::And2, vec![a, b]);
        n.add_output("y", g);
        let ff = n.add_cell("ff", CellKind::Dff, vec![g]);
        let buf = n.add_cell("buf", CellKind::Buf, vec![ff]);
        n.add_output("z", buf);
        n
    }

    #[test]
    fn exhaustive_patterns_detect_every_testable_fault() {
        for n in [circuit(), observed_fanout()] {
            let view = TestView::new(&n).unwrap();
            let faults = enumerate_stuck_faults(&n);
            if n.name() == "obsfan" {
                // Stems of a, b, g, ff and buf; no branch faults, since g's
                // second reader is an observation pin (`ff.D`).
                assert_eq!(faults.len(), 10, "{faults:?}");
            }
            let na = view.assignable().len();
            assert!(na <= 16);
            let patterns: Vec<Vec<bool>> = (0u64..(1 << na))
                .map(|bits| (0..na).map(|i| bits >> i & 1 == 1).collect())
                .collect();
            let detected = stuck_coverage(&view, &faults, &patterns);
            // Cross-check against PODEM verdicts and, fault by fault, the
            // brute-force reference over the same patterns.
            let podem = Podem::new(&view, PodemConfig::paper_default());
            let mut words = vec![0u64; na];
            for (f, &d) in faults.iter().zip(&detected) {
                let testable = podem.generate(f).is_some();
                assert_eq!(d, testable, "{}: {f:?}", n.name());
                let mut reference = false;
                for block in patterns.chunks(64) {
                    for (i, w) in words.iter_mut().enumerate() {
                        *w = block
                            .iter()
                            .enumerate()
                            .fold(0, |acc, (lane, p)| acc | u64::from(p[i]) << lane);
                    }
                    let mask = u64::MAX >> (64 - block.len());
                    reference |= stuck_detects_reference(&view, f, &words, mask) != 0;
                }
                assert_eq!(d, reference, "{}: {f:?} vs reference", n.name());
            }
        }
    }

    #[test]
    fn batch_equals_serial() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(6);
        let patterns: Vec<Vec<bool>> = (0..150)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let batch = stuck_coverage(&view, &faults, &patterns);
        let mut serial = vec![false; faults.len()];
        for p in &patterns {
            let d = stuck_coverage(&view, &faults, std::slice::from_ref(p));
            for (s, d) in serial.iter_mut().zip(d) {
                *s |= d;
            }
        }
        assert_eq!(batch, serial);
    }

    #[test]
    fn replay_resim_matches_full_reference_resim() {
        // The in-place replay fast path against the brute-force oracle:
        // every fault, random batch, identical detection lanes.
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(31);
        let words: Vec<u64> = (0..na).map(|_| rng.gen()).collect();
        let wide = widen(&words);
        let mask = Packed256::mask_lanes(64);
        let mut sim = StuckSimulator::new(&view);
        for fault in &faults {
            let mut detected = vec![false];
            sim.run_batch(&wide, mask, std::slice::from_ref(fault), &mut detected);
            let reference = stuck_detects_reference(&view, fault, &words, !0);
            assert_eq!(detected[0], reference != 0, "{fault:?}");
        }
    }

    #[test]
    fn undo_log_restores_the_good_machine() {
        // Two consecutive single-fault batches over the same simulator must
        // behave as if each ran on a fresh one.
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(8);
        let words: Vec<Packed256> = (0..na)
            .map(|_| Packed256::from_limbs([rng.gen(), rng.gen(), rng.gen(), rng.gen()]))
            .collect();
        let mut shared = StuckSimulator::new(&view);
        for fault in &faults {
            let mut d_shared = vec![false];
            shared.run_batch(
                &words,
                Packed256::top(),
                std::slice::from_ref(fault),
                &mut d_shared,
            );
            let mut fresh = StuckSimulator::new(&view);
            let mut d_fresh = vec![false];
            fresh.run_batch(
                &words,
                Packed256::top(),
                std::slice::from_ref(fault),
                &mut d_fresh,
            );
            assert_eq!(d_shared, d_fresh, "{fault:?}");
        }
    }

    #[test]
    fn branch_faults_are_simulated_locally() {
        let mut n = Netlist::new("br");
        let a = n.add_input("a");
        let g1 = n.add_cell("g1", CellKind::Buf, vec![a]);
        let g2 = n.add_cell("g2", CellKind::Buf, vec![a]);
        n.add_output("y1", g1);
        n.add_output("y2", g2);
        let view = TestView::new(&n).unwrap();
        let fault = Fault::branch(g1, 0, StuckValue::Zero);
        let detected = stuck_coverage(&view, &[fault], &[vec![true]]);
        assert!(detected[0]);
        // And the other branch is untouched: its fault needs its own test.
        let other = Fault::branch(g2, 0, StuckValue::One);
        let detected = stuck_coverage(&view, &[other], &[vec![true]]);
        assert!(!detected[0]);
    }

    #[test]
    fn parallel_equals_serial() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(10);
        let patterns: Vec<Vec<bool>> = (0..200)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let serial = stuck_coverage(&view, &faults, &patterns);
        for threads in [1, 2, 3, 8, 1000] {
            let pool = ThreadPool::new(threads);
            let parallel = stuck_coverage_partitioned(&view, &faults, &patterns, &pool);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn partitioned_stats_merge_by_fault_id() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(12);
        let patterns: Vec<Vec<bool>> = (0..600)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let serial =
            StuckSimulator::simulate_partitioned(&view, &faults, &patterns, &ThreadPool::serial());
        let flags = stuck_coverage(&view, &faults, &patterns);
        for (s, &d) in serial.iter().zip(&flags) {
            assert_eq!(s.detected, d);
            assert_eq!(s.first_batch.is_some(), d);
            if let Some(b) = s.first_batch {
                assert!((b as usize) < patterns.len().div_ceil(PATTERN_BLOCK));
            }
        }
        for workers in [2, 3, 8] {
            let pooled = StuckSimulator::simulate_partitioned(
                &view,
                &faults,
                &patterns,
                &ThreadPool::new(workers),
            );
            assert_eq!(pooled, serial, "workers = {workers}");
        }
    }

    #[test]
    fn dropped_faults_are_skipped_and_merged_across_calls() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(14);
        let patterns: Vec<Vec<bool>> = (0..768)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        // One shot over the whole set...
        let whole = stuck_coverage(&view, &faults, &patterns);
        // ...equals two incremental halves through a shared drop mask
        // (split off a block boundary, so partial-block masking is in
        // play on both halves).
        let mut drops = DropMask::new(faults.len());
        for half in patterns.chunks(384) {
            StuckSimulator::simulate_partitioned_dropping(
                &view,
                &faults,
                half,
                &ThreadPool::new(3),
                &mut drops,
            );
        }
        assert_eq!(drops.flags(), whole.as_slice());
        // A third call over already-covered patterns reports nothing new.
        let again = StuckSimulator::simulate_partitioned_dropping(
            &view,
            &faults,
            &patterns,
            &ThreadPool::serial(),
            &mut drops,
        );
        for (s, &d) in again.iter().zip(&whole) {
            assert!(!s.detected || !d, "dropped fault was re-detected");
        }
        assert_eq!(drops.flags(), whole.as_slice());
    }

    #[test]
    fn partial_final_block_is_masked_not_padded() {
        // Satellite check: for a pattern count that is not a multiple of
        // the block width, the padding lanes of the final block must not
        // contribute detections — N patterns give exactly the union of a
        // floor(N/block) prefix and the masked tail, and dropping the tail
        // gives exactly the prefix.
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(77);
        let patterns: Vec<Vec<bool>> = (0..PATTERN_BLOCK + 57)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let full = stuck_coverage(&view, &faults, &patterns);
        let prefix = stuck_coverage(&view, &faults, &patterns[..PATTERN_BLOCK]);
        let tail = stuck_coverage(&view, &faults, &patterns[PATTERN_BLOCK..]);
        let union: Vec<bool> = prefix.iter().zip(&tail).map(|(&a, &b)| a || b).collect();
        assert_eq!(full, union, "padding lanes leaked into detection");
        // Detection counts for N and N-rounded-down runs differ only by
        // what the genuine tail patterns detect.
        let n_full = full.iter().filter(|&&d| d).count();
        let n_prefix = prefix.iter().filter(|&&d| d).count();
        assert!(n_full >= n_prefix);
    }

    #[test]
    fn fault_ordering_is_region_major_and_result_invariant() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let regions = view.regions();
        let order = regions.order(view.compiled(), &faults);
        let ordered: Vec<Fault> = order.iter().map(|&i| faults[i]).collect();
        // Stems by level, and each region's faults (branch faults with
        // their gate's region) in one contiguous run.
        let stem = |f: &Fault| regions.stem(f.entry());
        let level = |f: &Fault| view.compiled().level_of(stem(f));
        assert!(ordered.windows(2).all(|w| level(&w[0]) <= level(&w[1])));
        let mut runs: Vec<u32> = ordered.iter().map(stem).collect();
        runs.dedup();
        let mut stems = runs.clone();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(runs.len(), stems.len(), "a region is split");
        // Detection is per fault, whatever the list order.
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(21);
        let patterns: Vec<Vec<bool>> = (0..100)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let base = stuck_coverage(&view, &faults, &patterns);
        let perm = stuck_coverage(&view, &ordered, &patterns);
        for (p, &i) in order.iter().enumerate() {
            assert_eq!(perm[p], base[i], "ordering changed {:?}", faults[i]);
        }
    }

    #[test]
    fn no_patterns_no_detection() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let detected = stuck_coverage(&view, &faults, &[]);
        assert!(detected.iter().all(|&d| !d));
    }
}
