//! Bit-for-bit equivalence of the 256-lane superword replay engines
//! against the from-scratch reference oracles
//! ([`stuck_detects_reference`], [`transition_detects_reference`]), across
//! all eleven ISCAS89 profiles and the paper's three holding styles, for
//! both fault models.
//!
//! A pattern set simulated in 256-lane blocks must detect exactly the
//! faults the oracle finds in the same set's 64-lane words (including a
//! masked partial final block), and the 256-lane early exit must neither
//! invent nor lose miscompares nor leave the good machine dirty. The
//! oracles re-evaluate the whole faulty machine per fault and word and
//! share no code with [`DeviationReplay`], so a fault in activation,
//! seeding, undo, detection or early exit shows here, not only a fault in
//! the lane-word width.

use flh_atpg::{
    enumerate_stuck_faults, enumerate_transition_faults, simulate_transition_patterns,
    stuck_coverage, stuck_detects_reference, transition_detects_reference, DeviationReplay, Fault,
    FaultSite, TestView, TransitionFault, TransitionPattern, PATTERN_BLOCK,
};
use flh_bench::build_circuit;
use flh_core::{apply_style, DftStyle};
use flh_netlist::{iscas89_profiles, LaneWord, Packed256, PatternWord};
use flh_rng::Rng;

const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];
/// One full 256-lane block plus a partial tail, so every run exercises
/// the masked final block on both the 64- and 256-lane side.
const PATTERNS: usize = PATTERN_BLOCK + 33;
const MAX_FAULTS: usize = 400;

/// Every k-th element, keeping the debug-build runtime bounded while still
/// spanning the whole id range.
fn subsample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    let step = items.len().div_ceil(max).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// Packs up to 64 patterns into one word per input, with the mask of the
/// lanes in use.
fn pack64<'p>(chunk: impl ExactSizeIterator<Item = &'p [bool]>, n: usize) -> (Vec<u64>, u64) {
    let lanes = chunk.len();
    assert!(lanes <= 64);
    let mut words = vec![0u64; n];
    for (lane, bits) in chunk.enumerate() {
        for (w, &bit) in words.iter_mut().zip(bits) {
            if bit {
                *w |= 1 << lane;
            }
        }
    }
    let mask = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
    (words, mask)
}

/// Whole-set stuck-at detection by the oracle, one call per 64-lane word
/// until the fault is detected.
fn stuck_reference(view: &TestView<'_>, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
    let na = view.assignable().len();
    let batches: Vec<_> = patterns
        .chunks(64)
        .map(|c| pack64(c.iter().map(Vec::as_slice), na))
        .collect();
    faults
        .iter()
        .map(|fault| {
            batches
                .iter()
                .any(|(words, mask)| stuck_detects_reference(view, fault, words, *mask) != 0)
        })
        .collect()
}

/// Whole-set transition detection by the oracle, one call per 64-pair
/// word until the fault is detected.
fn transition_reference(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    pairs: &[TransitionPattern],
) -> Vec<bool> {
    let na = view.assignable().len();
    let batches: Vec<_> = pairs
        .chunks(64)
        .map(|c| {
            let (v1, mask) = pack64(c.iter().map(|p| p.v1.as_slice()), na);
            let (v2, _) = pack64(c.iter().map(|p| p.v2.as_slice()), na);
            (v1, v2, mask)
        })
        .collect();
    faults
        .iter()
        .map(|fault| {
            batches
                .iter()
                .any(|(v1, v2, mask)| transition_detects_reference(view, fault, v1, v2, *mask) != 0)
        })
        .collect()
}

#[test]
fn superword_replay_matches_the_reference_oracles_across_profiles_and_styles() {
    for profile in iscas89_profiles() {
        let circuit = build_circuit(&profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let dft = apply_style(&circuit, style)
                .unwrap_or_else(|e| panic!("{} / {style}: {e}", profile.name));
            let n = &dft.netlist;
            let view = TestView::new(n).expect("acyclic after scan insertion");
            let na = view.assignable().len();
            let mut rng = Rng::seed_from_u64(0x256 + si as u64);

            // Stuck-at: whole-set coverage, 256-lane blocks vs the
            // oracle's 64-lane words over the identical pattern list.
            let stuck: Vec<Fault> = subsample(&enumerate_stuck_faults(n), MAX_FAULTS);
            let patterns: Vec<Vec<bool>> = (0..PATTERNS)
                .map(|_| (0..na).map(|_| rng.gen()).collect())
                .collect();
            let wide = stuck_coverage(&view, &stuck, &patterns);
            assert_eq!(
                wide,
                stuck_reference(&view, &stuck, &patterns),
                "{} / {style}: stuck detection diverged from the oracle",
                profile.name
            );
            assert!(
                wide.iter().any(|&d| d),
                "{} / {style}: stuck campaign detected nothing",
                profile.name
            );

            // Transition: same comparison on pattern pairs.
            let faults: Vec<TransitionFault> =
                subsample(&enumerate_transition_faults(n), MAX_FAULTS);
            let pairs: Vec<TransitionPattern> = (0..PATTERNS)
                .map(|_| TransitionPattern {
                    v1: (0..na).map(|_| rng.gen()).collect(),
                    v2: (0..na).map(|_| rng.gen()).collect(),
                })
                .collect();
            let twide = simulate_transition_patterns(&view, &faults, &pairs);
            assert_eq!(
                twide,
                transition_reference(&view, &faults, &pairs),
                "{} / {style}: transition detection diverged from the oracle",
                profile.name
            );
            assert!(
                twide.iter().any(|&d| d),
                "{} / {style}: transition campaign detected nothing",
                profile.name
            );
        }
    }
}

#[test]
fn superword_early_exit_is_sound_and_restores_the_good_machine() {
    // Engine-level check at 256-lane width on a mid-size scanned circuit:
    // for every stem fault, a replay allowed to stop at the first
    // stop-lane miscompare must report a subset of the full-propagation
    // miscompare that agrees on whether anything miscompared at all, and
    // both replays must leave the good machine bit-identical.
    let circuit = build_circuit(&iscas89_profiles()[7].clone()); // s1423
    let dft = apply_style(&circuit, DftStyle::Flh).expect("style applies");
    let n = &dft.netlist;
    let view = TestView::new(n).expect("acyclic after scan insertion");
    let na = view.assignable().len();
    let mut rng = Rng::seed_from_u64(0xEE);
    let words: Vec<Packed256> = (0..na)
        .map(|_| Packed256::from_limbs([rng.gen(), rng.gen(), rng.gen(), rng.gen()]))
        .collect();
    let mut values: Vec<Packed256> = Vec::new();
    view.eval_lanes_into(&words, &mut values);
    let good = values.clone();

    let mut engine: DeviationReplay<Packed256> =
        DeviationReplay::new(view.compiled(), view.program_arc());
    let observed = view.observed_drivers();
    let stems: Vec<Fault> = enumerate_stuck_faults(n)
        .into_iter()
        .filter(|f| matches!(f.site, FaultSite::Stem(_)))
        .collect();
    let mut checked = 0;
    for fault in subsample(&stems, 300) {
        let FaultSite::Stem(cell) = fault.site else {
            continue;
        };
        let seed = cell.index() as u32;
        let forced = if fault.stuck.as_bool() {
            Packed256::top()
        } else {
            Packed256::bot()
        };
        let full = engine.replay(
            view.compiled(),
            observed,
            &mut values,
            seed,
            forced,
            Packed256::bot(),
        );
        assert_eq!(values, good, "{fault:?}: full replay left state dirty");
        let stopped = engine.replay(
            view.compiled(),
            observed,
            &mut values,
            seed,
            forced,
            Packed256::top(),
        );
        assert_eq!(
            values, good,
            "{fault:?}: early-exit replay left state dirty"
        );
        assert!(
            !stopped.and(full.not()).any(),
            "{fault:?}: early exit invented a miscompare"
        );
        assert_eq!(
            stopped.any(),
            full.any(),
            "{fault:?}: early exit changed the detection verdict"
        );
        checked += 1;
    }
    assert!(checked > 200, "too few faults checked: {checked}");
}
