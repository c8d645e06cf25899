//! The shared deviation-replay engine.
//!
//! The fault simulator of this crate keeps asking one question: *given the
//! good machine's packed lane values, how does forcing one cell change the
//! observed outputs?* [`DeviationReplay`] owns the machinery that
//! answers it without ever cloning the value array or walking a static
//! fanout cone:
//!
//! * the deviation is propagated **event-driven** — readers of changed
//!   cells are queued into per-level buckets (deduplicated by a per-replay
//!   generation stamp) and drained in level order, so a replay touches only
//!   the cells the deviation actually reaches;
//! * every write is recorded in an **undo log** and reverted before the
//!   call returns, so the caller's good-machine buffer survives intact;
//! * detection scans **changed observation drivers only** — the caller's
//!   `observed` flags gate which writes feed the miscompare word — and the
//!   replay **stops as soon as an active lane miscompares** (pass
//!   `stop_lanes = W::bot()` to force full propagation when an exact
//!   per-lane count is needed, as N-detect counting is).
//!
//! The engine is generic over [`PatternWord`], so one undo log / bucket /
//! miscompare implementation serves both widths: `u64` (64 pattern lanes,
//! the historical engine, kept as the equivalence reference) and
//! [`Packed256`] (256 lanes — each replay covers four batches' worth of
//! patterns per pass, and because the four deviation frontiers overlap
//! heavily, a superword replay costs far less than four word replays).
//!
//! The stem-region core (the `region` module) is its one caller: per block
//! it replays each requested fanout-free region stem once, forced in the
//! union of the lanes its region's faults need — on the one frame of
//! [`crate::fsim::StuckSimulator`] or the V2 frame of
//! [`crate::transition::TransitionSimulator`]. Both fronts are
//! bit-identical to their brute-force references
//! ([`crate::fsim::stuck_detects_reference`],
//! [`crate::transition::transition_detects_reference`]).

use std::sync::Arc;

use flh_netlist::{CompiledCircuit, PatternWord, Program};

#[cfg(doc)]
use flh_netlist::Packed256;

/// Event-driven in-place deviation replay over a [`CompiledCircuit`], at
/// the lane width of the pattern word `W`.
///
/// The engine is scratch state (undo log, generation stamps, level
/// buckets) plus a shared handle on the circuit's lowered [`Program`]:
/// each replayed cell is re-evaluated through the same fused opcode table
/// the settle kernels execute ([`Program::eval_cell`]), so logic sim,
/// stuck-at replay and transition replay share one gate-evaluation engine.
/// The circuit itself is passed to each [`DeviationReplay::replay`] call;
/// one instance serves any number of replays against the same compiled
/// circuit.
#[derive(Clone, Debug)]
pub struct DeviationReplay<W: PatternWord = u64> {
    /// The lowered opcode stream shared with the settle kernels.
    program: Arc<Program>,
    /// Undo log of the current replay's writes, split into parallel
    /// arrays: ids and good values pack densely instead of padding each
    /// `(u32, W)` tuple to the lane word's alignment.
    undo_ids: Vec<u32>,
    undo_vals: Vec<W>,
    /// Per-cell enqueue stamp: a cell joins the replay queue at most once
    /// per replay (stamp equals the replay's generation).
    marks: Vec<u64>,
    gen: u64,
    /// Replay queue, one bucket per logic level (index 0 unused — sources
    /// are never re-evaluated).
    buckets: Vec<Vec<u32>>,
    /// Scratch register file for multi-instruction chains.
    scratch: Vec<W>,
}

impl<W: PatternWord> DeviationReplay<W> {
    /// Engine sized for `compiled`, evaluating cells through its lowered
    /// `program`.
    ///
    /// # Panics
    ///
    /// Panics if `program` was not lowered from `compiled`.
    pub fn new(compiled: &CompiledCircuit, program: Arc<Program>) -> Self {
        assert_eq!(
            program.cell_words(),
            compiled.cell_count(),
            "program does not match the circuit"
        );
        let scratch = vec![W::default(); program.scratch_words()];
        DeviationReplay {
            program,
            undo_ids: Vec::new(),
            undo_vals: Vec::new(),
            marks: vec![0; compiled.cell_count()],
            gen: 0,
            buckets: vec![Vec::new(); compiled.levels() + 1],
            scratch,
        }
    }

    /// Forces `values[seed] = forced`, propagates the deviation
    /// event-driven through `compiled`, and returns the miscompare word
    /// accumulated over changed cells flagged in `observed`. `values` is
    /// restored to its entry state before returning.
    ///
    /// Replay aborts early once `miscompare` intersects `stop_lanes` — a
    /// caller that only asks *whether* its lanes miscompare passes them, so
    /// a detected fault never pays for the rest of its deviation. Pass
    /// `stop_lanes = W::bot()` to propagate to quiescence and get the exact
    /// per-lane miscompare word.
    pub fn replay(
        &mut self,
        compiled: &CompiledCircuit,
        observed: &[bool],
        values: &mut [W],
        seed: u32,
        forced: W,
        stop_lanes: W,
    ) -> W {
        self.undo_ids.clear();
        self.undo_vals.clear();
        self.gen += 1;
        let gen = self.gen;
        let mut miscompare = W::bot();
        // Deterministic work counters, accumulated as plain locals and
        // flushed once at the end — the disabled cost of instrumentation
        // stays a branch on a static (`flh_obs::enabled`).
        let mut ev_events = 0u64;
        let mut ev_dedup = 0u64;
        let mut early_exit = false;

        let old = values[seed as usize];
        if old == forced {
            if flh_obs::enabled() {
                flush_replay_metrics::<W>(0, 0, 0, false, 0);
            }
            return W::bot(); // the deviation never exists in this batch
        }
        self.undo_ids.push(seed);
        self.undo_vals.push(old);
        values[seed as usize] = forced;
        if observed[seed as usize] {
            miscompare = miscompare.or(old.xor(forced));
        }

        if !miscompare.and(stop_lanes).any() {
            // Queue the seed's readers, then drain the buckets in level
            // order. A reader always sits at a strictly higher level than
            // its driver, so the current bucket never grows while it is
            // being drained. Level-0 readers are flip-flops (sequential
            // boundary: D observed, Q untouched).
            let mut lo = usize::MAX;
            let mut hi = 0usize;
            for &r in compiled.readers(seed) {
                let lvl = compiled.level_of(r) as usize;
                if lvl == 0 {
                    continue;
                }
                if self.marks[r as usize] == gen {
                    ev_dedup += 1;
                    continue;
                }
                self.marks[r as usize] = gen;
                self.buckets[lvl].push(r);
                lo = lo.min(lvl);
                hi = hi.max(lvl);
            }
            let mut lvl = lo;
            'replay: while lvl <= hi {
                let bucket = std::mem::take(&mut self.buckets[lvl]);
                for &id in &bucket {
                    ev_events += 1;
                    let old = values[id as usize];
                    let new = self.program.eval_cell(id, values, &mut self.scratch);
                    if old == new {
                        continue; // deviation masked at this cell
                    }
                    self.undo_ids.push(id);
                    self.undo_vals.push(old);
                    values[id as usize] = new;
                    if observed[id as usize] {
                        miscompare = miscompare.or(old.xor(new));
                        if miscompare.and(stop_lanes).any() {
                            self.buckets[lvl] = bucket;
                            early_exit = true;
                            break 'replay; // detected: the rest is moot
                        }
                    }
                    for &r in compiled.readers(id) {
                        let rl = compiled.level_of(r) as usize;
                        if rl == 0 {
                            continue;
                        }
                        if self.marks[r as usize] == gen {
                            ev_dedup += 1;
                            continue;
                        }
                        self.marks[r as usize] = gen;
                        self.buckets[rl].push(r);
                        hi = hi.max(rl);
                    }
                }
                self.buckets[lvl] = bucket;
                self.buckets[lvl].clear();
                lvl += 1;
            }
            // An early exit leaves queued entries behind; drop them so the
            // buckets are empty for the next replay.
            if lvl <= hi {
                for b in &mut self.buckets[lvl..=hi] {
                    b.clear();
                }
            }
        }

        // Restore the good machine.
        for (&id, &old) in self.undo_ids.iter().zip(&self.undo_vals) {
            values[id as usize] = old;
        }

        if flh_obs::enabled() {
            flush_replay_metrics::<W>(
                ev_events,
                ev_dedup,
                self.undo_ids.len() as u64,
                early_exit,
                ev_events,
            );
        }
        miscompare
    }
}

/// Flushes one replay call's deterministic metrics. Replay work is a
/// per-fault quantity for stuck-at faults and a per-region one for
/// transition stems: a shard replays the full batch stream, a deviation
/// depends only on the fault (or on the stem's region) and the batch, and
/// regions are dealt whole, so every counter flushed here is invariant
/// under fault-list sharding and stays deterministic at any pool width.
/// `lane_evals` is normalized by the engine's lane width so 64- and
/// 256-lane campaigns stay comparable.
#[inline]
fn flush_replay_metrics<W: PatternWord>(
    ev_events: u64,
    ev_dedup: u64,
    undo_writes: u64,
    early_exit: bool,
    hist_events: u64,
) {
    use flh_obs::{Counter, Hist};
    flh_obs::add(Counter::ReplayCalls, 1);
    flh_obs::add(Counter::ReplayEvents, ev_events);
    flh_obs::add(Counter::ReplayDedupHits, ev_dedup);
    flh_obs::add(Counter::ReplayEarlyExits, u64::from(early_exit));
    flh_obs::add(Counter::ReplayUndoWrites, undo_writes);
    flh_obs::add(Counter::ReplayLaneEvals, ev_events * W::LANES as u64);
    if W::LANES > 64 {
        flh_obs::add(Counter::ReplaySuperwordCalls, 1);
    }
    flh_obs::record(Hist::ReplayUndoDepth, undo_writes);
    flh_obs::record(Hist::ReplayEventsPerCall, hist_events);
    flh_obs::record(Hist::ReplayLanesPerCall, W::LANES as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, StuckValue};
    use crate::tview::TestView;
    use flh_netlist::{generate_circuit, CellId, GeneratorConfig, LaneWord, Netlist, Packed256};
    use flh_rng::Rng;

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "replay".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 6,
            gates: 55,
            logic_depth: 6,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 91,
        })
        .expect("generates")
    }

    /// Forcing a cell and replaying must match a full re-evaluation with
    /// the cell pinned, for every cell and both polarities.
    #[test]
    fn replay_matches_full_reevaluation() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let compiled = view.compiled();
        let mut rng = Rng::seed_from_u64(5);
        let words: Vec<u64> = (0..view.assignable().len()).map(|_| rng.gen()).collect();
        let good = view.eval64(&words, None);
        let mut values = good.clone();
        let mut engine: DeviationReplay = DeviationReplay::new(compiled, view.program_arc());
        for seed in 0..compiled.cell_count() as u32 {
            if compiled.kind(seed) == flh_netlist::CellKind::Output {
                continue;
            }
            for forced in [0u64, !0u64] {
                let mis = engine.replay(
                    compiled,
                    view.observed_drivers(),
                    &mut values,
                    seed,
                    forced,
                    0,
                );
                assert_eq!(values, good, "values not restored for seed {seed}");
                // Reference: the seed stuck at the forced value, through
                // the view's full faulted re-evaluation.
                let stuck = if forced == 0 {
                    StuckValue::Zero
                } else {
                    StuckValue::One
                };
                let fault = Fault::stem(CellId::from_index(seed as usize), stuck);
                let reference = view.eval64(&words, Some(&fault));
                let mut expected = 0u64;
                for (id, (&g, &f)) in good.iter().zip(&reference).enumerate() {
                    if view.observed_drivers()[id] {
                        expected |= g ^ f;
                    }
                }
                assert_eq!(mis, expected, "seed {seed} forced {forced:#x}");
            }
        }
    }

    /// With a stop word, the replay may return a partial miscompare — but
    /// any bit it reports in the stop lanes must be a true miscompare.
    #[test]
    fn early_exit_is_sound_and_restores() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let compiled = view.compiled();
        let mut rng = Rng::seed_from_u64(6);
        let words: Vec<u64> = (0..view.assignable().len()).map(|_| rng.gen()).collect();
        let good = view.eval64(&words, None);
        let mut values = good.clone();
        let mut engine: DeviationReplay = DeviationReplay::new(compiled, view.program_arc());
        for seed in 0..compiled.cell_count() as u32 {
            if compiled.kind(seed) == flh_netlist::CellKind::Output {
                continue;
            }
            let full = engine.replay(compiled, view.observed_drivers(), &mut values, seed, 0, 0);
            let stopped =
                engine.replay(compiled, view.observed_drivers(), &mut values, seed, 0, !0);
            assert_eq!(values, good, "values not restored for seed {seed}");
            // Early exit never invents a miscompare bit...
            assert_eq!(stopped & !full, 0, "seed {seed}");
            // ...and agrees with the full word on whether anything fires.
            assert_eq!(stopped != 0, full != 0, "seed {seed}");
        }
    }

    /// A 256-lane replay is the four 64-lane replays of its limbs, lane for
    /// lane — the tentpole invariant, checked here per seed cell on top of
    /// the cross-profile suite in `replay_superword_equivalence.rs`.
    #[test]
    fn superword_replay_matches_four_word_replays() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let compiled = view.compiled();
        let mut rng = Rng::seed_from_u64(17);
        let limbs: Vec<[u64; 4]> = (0..view.assignable().len())
            .map(|_| [rng.gen(), rng.gen(), rng.gen(), rng.gen()])
            .collect();
        let good64: Vec<Vec<u64>> = (0..4)
            .map(|l| {
                let words: Vec<u64> = limbs.iter().map(|w| w[l]).collect();
                view.eval64(&words, None)
            })
            .collect();
        let good256: Vec<Packed256> = (0..compiled.cell_count())
            .map(|i| {
                Packed256::from_limbs([good64[0][i], good64[1][i], good64[2][i], good64[3][i]])
            })
            .collect();

        let mut word_engine: DeviationReplay = DeviationReplay::new(compiled, view.program_arc());
        let mut super_engine: DeviationReplay<Packed256> =
            DeviationReplay::new(compiled, view.program_arc());
        let mut values256 = good256.clone();
        let mut values64: Vec<Vec<u64>> = good64.clone();
        for seed in 0..compiled.cell_count() as u32 {
            if compiled.kind(seed) == flh_netlist::CellKind::Output {
                continue;
            }
            for forced in [Packed256::bot(), Packed256::top()] {
                let mis256 = super_engine.replay(
                    compiled,
                    view.observed_drivers(),
                    &mut values256,
                    seed,
                    forced,
                    Packed256::bot(),
                );
                assert_eq!(values256, good256, "restore for seed {seed}");
                for (l, values) in values64.iter_mut().enumerate() {
                    let mis64 = word_engine.replay(
                        compiled,
                        view.observed_drivers(),
                        values,
                        seed,
                        forced.limb(l),
                        0,
                    );
                    assert_eq!(mis256.limb(l), mis64, "seed {seed} limb {l}");
                }
            }
        }
    }

    /// Early exit and restore behave at 256-lane width exactly as they do
    /// at 64: stop-lane hits are sound and the value file survives.
    #[test]
    fn superword_early_exit_is_sound_and_restores() {
        let n = circuit();
        let view = TestView::new(&n).unwrap();
        let compiled = view.compiled();
        let mut rng = Rng::seed_from_u64(23);
        let limbs: Vec<[u64; 4]> = (0..view.assignable().len())
            .map(|_| [rng.gen(), rng.gen(), rng.gen(), rng.gen()])
            .collect();
        let good64: Vec<Vec<u64>> = (0..4)
            .map(|l| {
                let words: Vec<u64> = limbs.iter().map(|w| w[l]).collect();
                view.eval64(&words, None)
            })
            .collect();
        let good: Vec<Packed256> = (0..compiled.cell_count())
            .map(|i| {
                Packed256::from_limbs([good64[0][i], good64[1][i], good64[2][i], good64[3][i]])
            })
            .collect();
        let mut values = good.clone();
        let mut engine: DeviationReplay<Packed256> =
            DeviationReplay::new(compiled, view.program_arc());
        for seed in 0..compiled.cell_count() as u32 {
            if compiled.kind(seed) == flh_netlist::CellKind::Output {
                continue;
            }
            let full = engine.replay(
                compiled,
                view.observed_drivers(),
                &mut values,
                seed,
                Packed256::bot(),
                Packed256::bot(),
            );
            let stopped = engine.replay(
                compiled,
                view.observed_drivers(),
                &mut values,
                seed,
                Packed256::bot(),
                Packed256::top(),
            );
            assert_eq!(values, good, "values not restored for seed {seed}");
            assert!(!stopped.and(full.not()).any(), "seed {seed}");
            assert_eq!(stopped.any(), full.any(), "seed {seed}");
        }
    }
}
