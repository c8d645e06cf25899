//! Parallel-pattern fault simulation with fault dropping: the stuck-at
//! front of the stem-region engine, and the shard loop both fault models
//! run through.
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
//! Every multi-block simulation — a pattern list here or in the
//! `transition` module, a seeded pair stream in the `application` module —
//! runs through one shard loop (`simulate_shard`): one shard's faults in
//! region-major order, a `BlockSource` of pattern blocks, and a live
//! fault list compacted after every block, so a fault is dropped at its
//! first detecting block. `simulate_pooled` deals a fault list over the
//! pool in whole fanout-free regions and runs the loop on every shard;
//! the pattern-list entry points ([`stuck_coverage`] here,
//! [`crate::transition::simulate_transition_patterns`]) run it on the
//! serial pool, and the seeded campaigns
//! ([`crate::application::transition_campaign_filtered`]) on the caller's.
//!
//! A final partial block is handled by **masking**: the block's lane mask
//! has only the populated lanes set, and every activation word is
//! intersected with it, so padding lanes never touch detection flags or
//! coverage counts.

use flh_exec::ThreadPool;
use flh_netlist::{LaneWord, Packed256, PatternWord};

use crate::fault::{Fault, FaultSite};
use crate::region::{deal_regions, RegionFault, RegionSim};
use crate::tview::TestView;

/// Faults per dealt chunk of a pooled simulation: a list of fewer than two
/// chunks runs as one shard, because the per-shard cost (a fresh
/// simulator, a good-machine evaluation per block) would outweigh any
/// parallelism. Chunks end at region boundaries (`deal_regions`), and
/// shard boundaries never affect results — flags are scattered back by
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
        let live = faults.iter().zip(detected.iter()).filter(|(_, &d)| !d);
        self.replay_regions(active_mask, live.map(|(f, _)| f));
        let mut new_hits = 0;
        for (fault, d) in faults.iter().zip(detected.iter_mut()) {
            if !*d && self.detects(fault, active_mask) {
                *d = true;
                new_hits += 1;
            }
        }
        flush_detections(new_hits);
        new_hits
    }

    /// Passes 1 and 2 of a block over the good machine already loaded:
    /// requests the stem of every `live` fault with activated lanes, then
    /// replays each requested stem once.
    fn replay_regions<'f>(&mut self, mask: Packed256, live: impl Iterator<Item = &'f Fault>) {
        let mut activation_skips = 0u64;
        let mut evals = 0u64;
        for fault in live {
            let act = self.activation_lanes(fault).and(mask);
            if !act.any() {
                activation_skips += 1;
                continue;
            }
            let flip = self.flip_lanes(fault, act);
            if flip.any() {
                self.core.request(fault.entry(), flip, &mut evals);
            }
        }
        self.core.replay_requests();
        if flh_obs::enabled() {
            // Per-fault quantities only: invariant under fault-list
            // sharding, so safe as a deterministic metric. The per-shard
            // good-machine evaluation above is width-dependent and is
            // deliberately not counted; the region walk's `evals` has no
            // stuck-at counter.
            flh_obs::add(flh_obs::Counter::StuckActivationSkips, activation_skips);
        }
    }

    /// Pass 3 for one fault: whether a lane of this block detects it.
    /// Valid after [`Self::replay_regions`] saw the fault.
    fn detects(&mut self, fault: &Fault, mask: Packed256) -> bool {
        let observed = self.core.observed(fault.entry());
        if !observed.any() {
            return false;
        }
        let act = self.activation_lanes(fault).and(mask);
        self.flip_lanes(fault, act).and(observed).any()
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

/// Flushes a block's new stuck-at detections, a per-fault quantity and so
/// a deterministic metric.
fn flush_detections(new_hits: usize) {
    if flh_obs::enabled() {
        flh_obs::add(flh_obs::Counter::StuckDetections, new_hits as u64);
    }
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

/// A fault-simulation front over the stem-region core, as the shard loop
/// drives it: a fresh simulator per shard, one block at a time.
pub(crate) trait BlockSim<'v, 'a> {
    /// The fault model.
    type Fault: RegionFault + PartialEq;
    /// Frames per pattern: one for a stuck-at pattern, two for a pair.
    const FRAMES: usize;
    /// A simulator over `view`.
    fn new(view: &'v TestView<'a>) -> Self;
    /// Simulates one block (`frames[f]` holds frame `f` of every pattern,
    /// lanes outside `mask` are padding) against `live`, and removes the
    /// faults it detects with one order-preserving `retain`. `launch`
    /// completes the second frame from the good machine of the first once
    /// the front has evaluated it; a one-frame front never calls it.
    fn run_block_live(
        &mut self,
        frames: &mut [Vec<Packed256>],
        launch: impl FnOnce(&[Packed256], &mut [Packed256]),
        mask: Packed256,
        live: &mut Vec<Self::Fault>,
    );
}

impl<'v, 'a> BlockSim<'v, 'a> for StuckSimulator<'v, 'a> {
    type Fault = Fault;
    const FRAMES: usize = 1;
    fn new(view: &'v TestView<'a>) -> Self {
        StuckSimulator::new(view)
    }
    fn run_block_live(
        &mut self,
        frames: &mut [Vec<Packed256>],
        _launch: impl FnOnce(&[Packed256], &mut [Packed256]),
        mask: Packed256,
        live: &mut Vec<Fault>,
    ) {
        self.core.load(&frames[0]);
        self.replay_regions(mask, live.iter());
        let before = live.len();
        live.retain(|fault| !self.detects(fault, mask));
        flush_detections(before - live.len());
    }
}

/// Where a shard's pattern blocks come from: the rows of a pattern list
/// ([`Rows`]) or a seeded pair stream (the `application` module's).
pub(crate) trait BlockSource {
    /// Fills the next block into `frames` (frame `f` of the pattern in lane
    /// `k` goes to lane `k` of `frames[f]`) and returns its lane mask, or
    /// `None` once the source is spent. `detected` is the shard's detection
    /// count so far, for a source that ends on coverage.
    fn next_block(&mut self, detected: usize, frames: &mut [Vec<Packed256>]) -> Option<Packed256>;

    /// Completes the second frame from the good machine of the first: the
    /// broadside launch. Nothing by default.
    fn launch(&self, _good1: &[Packed256], _v2: &mut [Packed256]) {}
}

/// A pattern as [`Rows`] packs it: one row of one bit per assignable per
/// frame.
pub(crate) trait Frames: Sync {
    /// Frame `f`'s row.
    fn frame(&self, f: usize) -> &[bool];
}

impl Frames for Vec<bool> {
    fn frame(&self, _: usize) -> &[bool] {
        self
    }
}

/// A pattern list as a block source: [`PATTERN_BLOCK`] patterns per block,
/// each frame packed by [`pack_block`], the last block masked.
pub(crate) struct Rows<'p, P>(std::slice::Chunks<'p, P>);

impl<'p, P> Rows<'p, P> {
    pub(crate) fn new(patterns: &'p [P]) -> Self {
        Rows(patterns.chunks(PATTERN_BLOCK))
    }
}

impl<P: Frames> BlockSource for Rows<'_, P> {
    fn next_block(&mut self, _: usize, frames: &mut [Vec<Packed256>]) -> Option<Packed256> {
        let chunk = self.0.next()?;
        for (f, words) in frames.iter_mut().enumerate() {
            pack_block(words, chunk.iter().map(|p| p.frame(f)));
        }
        Some(Packed256::mask_lanes(chunk.len()))
    }
}

/// The shard loop: simulates one shard's faults, `live` (region-major, see
/// the `region` module), on a fresh simulator over the blocks of `source`,
/// drops each fault at its first detecting block, and stops when the
/// source or the live list is empty. Returns the faults left undetected,
/// in their order in `live`.
pub(crate) fn simulate_shard<'v, 'a, S: BlockSim<'v, 'a>>(
    view: &'v TestView<'a>,
    mut live: Vec<S::Fault>,
    source: &mut impl BlockSource,
) -> Vec<S::Fault> {
    let total = live.len();
    let mut sim = S::new(view);
    let mut frames = vec![vec![Packed256::bot(); view.assignable().len()]; S::FRAMES];
    while !live.is_empty() {
        let Some(mask) = source.next_block(total - live.len(), &mut frames) else {
            break;
        };
        sim.run_block_live(
            &mut frames,
            |good1, v2| source.launch(good1, v2),
            mask,
            &mut live,
        );
    }
    live
}

/// The pooled simulation behind every public entry point: `faults` sorted
/// region-major and dealt over `pool` in chunks of whole fanout-free
/// regions (`deal_regions`), each shard's faults gathered in shard order
/// and run through [`simulate_shard`] with a block source of its own from
/// `source`. Returns detection flags,
/// scattered back **by fault id**, never in completion order, so the
/// result — deterministic counters included — is bit-identical at any
/// pool width.
pub(crate) fn simulate_pooled<'v, 'a, S: BlockSim<'v, 'a>, B: BlockSource>(
    view: &'v TestView<'a>,
    faults: &[S::Fault],
    pool: &ThreadPool,
    source: impl Fn() -> B + Sync,
) -> Vec<bool> {
    // Position `p` of the region-major list holds input fault `order[p]`.
    let order = view.regions().order(view.compiled(), faults);
    let ordered: Vec<S::Fault> = order.iter().map(|&i| faults[i]).collect();
    let parts = deal_regions(pool, view.regions(), &ordered, |shard| {
        let live = shard
            .iter()
            .flat_map(|r| ordered[r.clone()].iter().copied());
        simulate_shard::<S>(view, live.collect(), &mut source())
    });
    let mut detected = vec![false; faults.len()];
    for (shard, left) in parts {
        // `retain` keeps order, so the faults left are a subsequence of
        // the shard's: one walk over both marks the rest detected.
        let mut left = left.iter().peekable();
        for p in shard.iter().flat_map(|r| r.clone()) {
            detected[order[p]] = left.next_if_eq(&&ordered[p]).is_none();
        }
    }
    detected
}

/// Simulates a fully-specified pattern set against a stuck-at fault list,
/// returning per-fault detection flags. Patterns are bit vectors in
/// [`TestView::assignable`] order. Runs on the serial pool: region-major,
/// one shard, one simulator.
pub fn stuck_coverage(view: &TestView<'_>, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
    simulate_pooled::<StuckSimulator, _>(view, faults, &ThreadPool::serial(), || {
        Rows::new(patterns)
    })
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
        // Three blocks, the last one partial: every shard drops faults
        // across blocks.
        let patterns: Vec<Vec<bool>> = (0..600)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let serial = stuck_coverage(&view, &faults, &patterns);
        for threads in [1, 2, 3, 8, 1000] {
            let pool = ThreadPool::new(threads);
            let parallel = simulate_pooled::<StuckSimulator, _>(&view, &faults, &pool, || {
                Rows::new(&patterns)
            });
            assert_eq!(parallel, serial, "threads = {threads}");
        }
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
