//! Parallel-pattern stuck-at fault simulation on the shared
//! [`DeviationReplay`] engine, with fault dropping.
//!
//! The simulator walks the [`flh_netlist::CompiledCircuit`] inside its
//! [`TestView`]: the good machine is evaluated once per 256-pattern block
//! (one [`Packed256`] superword per assignable line) over the compiled
//! level order, and each fault's deviation is then replayed **in place**
//! by [`DeviationReplay`] — event-driven through the readers of changed
//! cells, undone afterwards, with detection limited to changed observation
//! drivers and an early exit as soon as an active lane miscompares (see
//! [`crate::replay`] for the engine contract). Replaying 256 lanes per
//! pass costs far less than four 64-lane replays because the per-event
//! overhead (instruction decode, reader walks, bucket bookkeeping) is paid
//! once for all four batches' deviations combined. The same engine drives
//! [`crate::transition::TransitionSimulator`], so both fault models share
//! one replay code path.
//!
//! A final partial block is handled by **masking**: `pack_batch` returns
//! an activation mask with only the populated lanes set, and every
//! miscompare is intersected with it, so padding lanes never touch
//! detection flags or coverage counts.

use flh_exec::{gather, DropMask, ThreadPool};
use flh_netlist::{CellKind, CompiledCircuit, LaneWord, Packed256, PatternWord};

use crate::fault::{Fault, FaultSite};
use crate::replay::DeviationReplay;
use crate::tview::TestView;

/// Faults per dealt chunk of a partitioned campaign
/// ([`ThreadPool::partition_min`]): a list of fewer than two chunks runs as
/// one shard, because the per-shard cost (a fresh simulator, a
/// good-machine evaluation per batch) would outweigh any parallelism.
/// Shard boundaries never affect results — stats are scattered back by
/// fault id — so this is purely a throughput knob.
pub(crate) const MIN_FAULTS_PER_SHARD: usize = 64;

/// Pattern lanes per simulation block — the width of one [`Packed256`]
/// superword.
pub const PATTERN_BLOCK: usize = Packed256::LANES;

/// Evaluates one library cell over a [`Packed256`] input row, limb by limb
/// through [`CellKind::eval64`] — the branch-fault forced-value
/// computation, where one gate is re-evaluated with a pin pinned.
pub(crate) fn eval_kind_packed(
    kind: CellKind,
    inputs: &[Packed256],
    limb_buf: &mut Vec<u64>,
) -> Packed256 {
    let mut limbs = [0u64; 4];
    for (l, out) in limbs.iter_mut().enumerate() {
        limb_buf.clear();
        limb_buf.extend(inputs.iter().map(|w| w.limb(l)));
        *out = kind.eval64(limb_buf);
    }
    Packed256::from_limbs(limbs)
}

/// Reorders a fault list **level-major by seed cell** (the logic level of
/// the cell each fault's deviation is seeded at, ties broken by dense cell
/// id, then original position): consecutive replays then walk adjacent
/// CSR/bytecode regions instead of hopping across the circuit. Purely a
/// locality pass — detection results are per-fault and independent of
/// processing order, so callers that aggregate (campaign counts, the
/// perf benches) can apply it freely; callers that return per-fault
/// vectors must scatter results back through the permutation themselves.
pub fn order_stuck_faults(compiled: &CompiledCircuit, faults: &[Fault]) -> Vec<Fault> {
    let mut ordered: Vec<Fault> = faults.to_vec();
    ordered.sort_by_key(|f| {
        let seed = match f.site {
            FaultSite::Stem(cell) => cell.index() as u32,
            FaultSite::Branch { gate, .. } => gate.index() as u32,
        };
        (compiled.level_of(seed), seed)
    });
    ordered
}

/// 256-lane parallel-pattern stuck-at fault simulator.
pub struct StuckSimulator<'v, 'a> {
    view: &'v TestView<'a>,
    /// Good-machine values, reused across batches; faulty resimulation
    /// mutates it in place under the replay engine's undo log.
    values: Vec<Packed256>,
    replay: DeviationReplay<Packed256>,
}

impl<'v, 'a> StuckSimulator<'v, 'a> {
    /// Builds a simulator over a test view.
    pub fn new(view: &'v TestView<'a>) -> Self {
        StuckSimulator {
            view,
            values: Vec::new(),
            replay: DeviationReplay::new(view.compiled(), view.program_arc()),
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
        self.view.eval_lanes_into(words, &mut self.values);
        let compiled = self.view.compiled();
        let observed = self.view.observed_drivers();
        let netlist = self.view.netlist();
        let mut new_hits = 0;
        let mut activation_skips = 0u64;
        let mut inputs: Vec<Packed256> = Vec::with_capacity(8);
        let mut limb_buf: Vec<u64> = Vec::with_capacity(8);

        for (fi, fault) in faults.iter().enumerate() {
            if detected[fi] {
                continue;
            }
            // Activation lanes: the good line value must oppose the stuck
            // value somewhere in the batch.
            let driver = fault.driver(netlist);
            let line = self.values[driver.index()];
            let active_lanes = if fault.stuck.as_bool() {
                line.not()
            } else {
                line
            };
            let lanes = active_lanes.and(active_mask);
            if !lanes.any() {
                activation_skips += 1;
                continue;
            }

            // Seed of the deviation: a stem forces the line itself; a
            // branch re-evaluates its gate with the faulted pin forced.
            let (seed, forced) = match fault.site {
                FaultSite::Stem(cell) => {
                    let forced = if fault.stuck.as_bool() {
                        Packed256::top()
                    } else {
                        Packed256::bot()
                    };
                    (cell.index() as u32, forced)
                }
                FaultSite::Branch { gate, pin } => {
                    let id = gate.index() as u32;
                    inputs.clear();
                    inputs.extend(compiled.fanin(id).iter().map(|&x| self.values[x as usize]));
                    inputs[pin] = if fault.stuck.as_bool() {
                        Packed256::top()
                    } else {
                        Packed256::bot()
                    };
                    (
                        id,
                        eval_kind_packed(compiled.kind(id), &inputs, &mut limb_buf),
                    )
                }
            };
            let miscompare =
                self.replay
                    .replay(compiled, observed, &mut self.values, seed, forced, lanes);
            if miscompare.and(lanes).any() {
                detected[fi] = true;
                new_hits += 1;
            }
        }
        if flh_obs::enabled() {
            // Per-fault quantities only (skips, detections): invariant
            // under fault-list sharding, so safe as deterministic metrics.
            // The per-shard good-machine evaluation above is width-
            // dependent and is deliberately not counted.
            flh_obs::add(flh_obs::Counter::StuckActivationSkips, activation_skips);
            flh_obs::add(flh_obs::Counter::StuckDetections, new_hits as u64);
        }
        new_hits
    }
}

/// Per-fault outcome of a partitioned stuck-at campaign: the detection flag
/// plus the index of the 256-pattern block that first caught the fault.
/// Block indices are global over the pattern set, so they are identical no
/// matter how the fault list is partitioned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// The fault was detected by at least one pattern.
    pub detected: bool,
    /// Index of the first detecting 256-pattern block (`None` if
    /// undetected).
    pub first_batch: Option<u32>,
}

/// Packs up to [`PATTERN_BLOCK`] patterns into one superword per
/// assignable input and returns the lane mask covering exactly the packed
/// patterns (padding lanes stay masked out of every miscompare).
fn pack_batch(chunk: &[Vec<bool>], n: usize, words: &mut [Packed256]) -> Packed256 {
    words.fill(Packed256::bot());
    for (lane, p) in chunk.iter().enumerate() {
        assert_eq!(p.len(), n, "pattern length mismatch");
        for (i, &bit) in p.iter().enumerate() {
            if bit {
                words[i].0[lane / 64] |= 1 << (lane % 64);
            }
        }
    }
    Packed256::mask_lanes(chunk.len())
}

/// One worker's share of a partitioned campaign: a fresh simulator over the
/// shared view, the full pattern set, the faults of one dealt shard. Faults
/// flagged in `dropped` were detected by an earlier call and are never
/// replayed again; the shard's updated flags are merged back by the caller.
fn stats_shard(
    view: &TestView<'_>,
    faults: &[Fault],
    patterns: &[Vec<bool>],
    mut dropped: Vec<bool>,
) -> (Vec<FaultStats>, Vec<bool>) {
    let mut sim = StuckSimulator::new(view);
    let mut stats = vec![FaultStats::default(); faults.len()];
    let already: Vec<bool> = dropped.clone();
    let n = view.assignable().len();
    let mut words = vec![Packed256::bot(); n];
    for (batch, chunk) in patterns.chunks(PATTERN_BLOCK).enumerate() {
        let mask = pack_batch(chunk, n, &mut words);
        let new_hits = sim.run_batch(&words, mask, faults, &mut dropped);
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

impl StuckSimulator<'_, '_> {
    /// Partitioned stuck-at campaign: deals `faults` out to the pool
    /// workers in [`MIN_FAULTS_PER_SHARD`]-sized chunks
    /// ([`ThreadPool::partition_min`]), runs each shard on its own
    /// simulator, and scatters per-fault stats back **by fault id**
    /// through each shard's ranges — completion order never matters.
    /// Bit-identical at any pool size.
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
    /// of calls (incremental pattern blocks) never re-replays a detected
    /// fault. Stats describe **this call only** — a fault dropped by an
    /// earlier call reports `FaultStats::default()`.
    pub fn simulate_partitioned_dropping(
        view: &TestView<'_>,
        faults: &[Fault],
        patterns: &[Vec<bool>],
        pool: &ThreadPool,
        drops: &mut DropMask,
    ) -> Vec<FaultStats> {
        assert_eq!(drops.len(), faults.len(), "drop mask length mismatch");
        let parts = pool.run_partitioned_min(faults.len(), MIN_FAULTS_PER_SHARD, |shard| {
            stats_shard(view, &gather(faults, shard), patterns, drops.shard(shard))
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

/// Simulates a fully-specified pattern set against a stuck-at fault list,
/// returning per-fault detection flags. Patterns are bit vectors in
/// [`TestView::assignable`] order. Serial ([`ThreadPool::serial`]) case of
/// [`stuck_coverage_partitioned`].
pub fn stuck_coverage(view: &TestView<'_>, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
    stuck_coverage_partitioned(view, faults, patterns, &ThreadPool::serial())
}

/// Pooled [`stuck_coverage`]: the fault list is split across the pool's
/// workers, each with its own simulator (the replay state is per-fault, so
/// sharding by fault loses nothing). Detection flags are merged in fault-id
/// order and are identical at any pool size.
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

/// [`stuck_coverage_partitioned`] on a fixed-size pool — kept as the
/// thread-count-explicit entry point.
pub fn stuck_coverage_parallel(
    view: &TestView<'_>,
    faults: &[Fault],
    patterns: &[Vec<bool>],
    threads: usize,
) -> Vec<bool> {
    stuck_coverage_partitioned(view, faults, patterns, &ThreadPool::new(threads))
}

/// Reference stuck-at detection for one fault and one 64-pattern word:
/// full faulted re-evaluation through [`TestView::eval64`], full
/// observation scan. Quadratically slower than [`StuckSimulator`] but
/// independent of the replay/undo machinery — the equivalence oracle for
/// it (superword runs check each [`Packed256`] limb against it).
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

    #[test]
    fn exhaustive_patterns_detect_every_testable_fault() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        assert!(na <= 16);
        let patterns: Vec<Vec<bool>> = (0u64..(1 << na))
            .map(|bits| (0..na).map(|i| bits >> i & 1 == 1).collect())
            .collect();
        let detected = stuck_coverage(&view, &faults, &patterns);
        // Cross-check against PODEM verdicts.
        let podem = Podem::new(&view, PodemConfig::paper_default());
        for (f, &d) in faults.iter().zip(&detected) {
            let testable = podem.generate(f).is_some();
            assert_eq!(d, testable, "{f:?}");
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
            let parallel = stuck_coverage_parallel(&view, &faults, &patterns, threads);
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
    fn fault_ordering_is_level_major_and_result_invariant() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let faults = enumerate_stuck_faults(&n);
        let ordered = order_stuck_faults(view.compiled(), &faults);
        assert_eq!(ordered.len(), faults.len());
        // Seed levels are non-decreasing.
        let level_of = |f: &Fault| {
            let seed = match f.site {
                FaultSite::Stem(cell) => cell.index() as u32,
                FaultSite::Branch { gate, .. } => gate.index() as u32,
            };
            view.compiled().level_of(seed)
        };
        assert!(ordered
            .windows(2)
            .all(|w| level_of(&w[0]) <= level_of(&w[1])));
        // Same multiset of faults, and — since detection is per-fault —
        // the same total coverage count on any pattern set.
        let na = view.assignable().len();
        let mut rng = Rng::seed_from_u64(21);
        let patterns: Vec<Vec<bool>> = (0..100)
            .map(|_| (0..na).map(|_| rng.gen()).collect())
            .collect();
        let base = stuck_coverage(&view, &faults, &patterns);
        let perm = stuck_coverage(&view, &ordered, &patterns);
        assert_eq!(
            base.iter().filter(|&&d| d).count(),
            perm.iter().filter(|&&d| d).count()
        );
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
