//! Bit-for-bit equivalence of the event-driven transition fault simulator
//! against the from-scratch reference oracle
//! ([`transition_detects_reference`]), across ISCAS89 profiles and the
//! paper's three holding styles, and of the pooled campaign at widths
//! 1/2/4 against the serial one.
//!
//! The deviation-replay rebuild of [`TransitionSimulator`] changes *how*
//! the faulty V2 machine is computed (event-driven from the fault site,
//! changed-observation-driver detection, abort on the first activation-lane
//! miscompare) but must never change *what* is detected. The oracle
//! re-evaluates the whole faulty V2 machine per fault and 64-pair word and
//! shares no code with [`flh_atpg::DeviationReplay`]. This suite holds the
//! simulator to it on both result surfaces:
//!
//! * per-batch detected flags (`run_batch`);
//! * whole-set detection flags ([`simulate_transition_patterns`]), and
//!   the end-to-end pooled campaign ([`transition_campaign_filtered`] at
//!   pools 1, 2 and 4) against the serial [`random_transition_campaign`].

use flh_atpg::{
    enumerate_transition_faults, random_transition_campaign, simulate_transition_patterns,
    transition_campaign_filtered, transition_detects_reference, ApplicationStyle, StaticFilter,
    TestView, TransitionFault, TransitionPattern, TransitionSimulator,
};
use flh_bench::build_circuit;
use flh_core::{apply_style, DftStyle};
use flh_exec::ThreadPool;
use flh_netlist::{iscas89_profile, Packed256, PatternWord};
use flh_rng::Rng;

const CIRCUITS: [&str; 3] = ["s1423", "s5378", "s9234"];
const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];
const POOLS: [usize; 3] = [1, 2, 4];
const PAIRS: usize = 96;
const MAX_FAULTS: usize = 900;

/// Every k-th element, keeping the debug-build runtime bounded while still
/// spanning the whole id range (and thus every partition boundary).
fn subsample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    let step = items.len().div_ceil(max).max(1);
    items.iter().step_by(step).cloned().collect()
}

fn random_pairs(rng: &mut Rng, n: usize, count: usize) -> Vec<TransitionPattern> {
    (0..count)
        .map(|_| TransitionPattern {
            v1: (0..n).map(|_| rng.gen()).collect(),
            v2: (0..n).map(|_| rng.gen()).collect(),
        })
        .collect()
}

/// Packs up to 64 pairs into one V1 and one V2 word per input, with the
/// mask of the lanes in use.
fn pack64(chunk: &[TransitionPattern], n: usize) -> (Vec<u64>, Vec<u64>, u64) {
    assert!(chunk.len() <= 64);
    let mut v1_words = vec![0u64; n];
    let mut v2_words = vec![0u64; n];
    for (lane, p) in chunk.iter().enumerate() {
        for i in 0..n {
            if p.v1[i] {
                v1_words[i] |= 1 << lane;
            }
            if p.v2[i] {
                v2_words[i] |= 1 << lane;
            }
        }
    }
    let mask = if chunk.len() == 64 {
        !0
    } else {
        (1u64 << chunk.len()) - 1
    };
    (v1_words, v2_words, mask)
}

#[test]
fn event_driven_transition_sim_matches_the_reference_oracle() {
    for circuit_name in CIRCUITS {
        let profile = iscas89_profile(circuit_name).expect("profile present");
        let circuit = build_circuit(&profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let dft = apply_style(&circuit, style)
                .unwrap_or_else(|e| panic!("{circuit_name} / {style}: {e}"));
            let n = &dft.netlist;
            let view = TestView::new(n).expect("acyclic after scan insertion");
            let na = view.assignable().len();
            let faults: Vec<TransitionFault> =
                subsample(&enumerate_transition_faults(n), MAX_FAULTS);
            let mut rng = Rng::seed_from_u64(0x7E0 + si as u64);
            let pairs = random_pairs(&mut rng, na, PAIRS);

            // The oracle's detection word for every fault and every
            // 64-pair word of the set (the last word masked to its lanes).
            let batches: Vec<_> = pairs.chunks(64).map(|c| pack64(c, na)).collect();
            let oracle: Vec<Vec<u64>> = faults
                .iter()
                .map(|fault| {
                    batches
                        .iter()
                        .map(|(v1, v2, mask)| {
                            transition_detects_reference(&view, fault, v1, v2, *mask)
                        })
                        .collect()
                })
                .collect();

            // Whole-set detection: a fault is detected if any word
            // miscompares.
            let expected: Vec<bool> = oracle
                .iter()
                .map(|words| words.iter().any(|&w| w != 0))
                .collect();
            assert!(
                expected.iter().any(|&d| d),
                "{circuit_name} / {style}: campaign detected nothing"
            );
            assert_eq!(
                simulate_transition_patterns(&view, &faults, &pairs),
                expected,
                "{circuit_name} / {style}: coverage diverged from the oracle"
            );

            // Single-batch detected flags over the first 64 pairs, widened
            // into the low limb of a superword.
            let (v1_words, v2_words, _) = &batches[0];
            let w1: Vec<Packed256> = v1_words.iter().map(|&w| Packed256::from_word(w)).collect();
            let w2: Vec<Packed256> = v2_words.iter().map(|&w| Packed256::from_word(w)).collect();
            let wmask = Packed256::mask_lanes(pairs.len().min(64));
            let mut event_sim = TransitionSimulator::new(&view);

            let d_oracle: Vec<bool> = oracle.iter().map(|words| words[0] != 0).collect();
            let h_oracle = d_oracle.iter().filter(|&&d| d).count();
            let mut d_event = vec![false; faults.len()];
            let h_event = event_sim.run_batch(&w1, &w2, wmask, &faults, &mut d_event);
            assert_eq!(
                (h_event, d_event),
                (h_oracle, d_oracle),
                "{circuit_name} / {style}: run_batch diverged from the oracle"
            );
        }
    }
}

#[test]
fn pooled_campaign_coverage_matches_serial() {
    let circuit = build_circuit(&iscas89_profile("s1423").expect("profile present"));
    for (si, &style) in STYLES.iter().enumerate() {
        let dft = apply_style(&circuit, style).unwrap_or_else(|e| panic!("{style}: {e}"));
        let n = &dft.netlist;
        let seed = 0xCA4 + si as u64;
        let serial = random_transition_campaign(n, ApplicationStyle::ArbitraryTwoPattern, 48, seed)
            .expect("campaign runs");
        let view = TestView::new(n).expect("acyclic after scan insertion");
        let faults = enumerate_transition_faults(n);
        let filter = StaticFilter::from_view(&view);
        for &workers in &POOLS {
            let pooled = transition_campaign_filtered(
                &view,
                &faults,
                ApplicationStyle::ArbitraryTwoPattern,
                48,
                seed,
                &ThreadPool::new(workers),
                Some(&filter),
            );
            assert_eq!(
                (pooled.detected, pooled.total_faults, pooled.pairs),
                (serial.detected, serial.total_faults, serial.pairs),
                "{style}: campaign coverage diverged at {workers} workers"
            );
        }
    }
}
