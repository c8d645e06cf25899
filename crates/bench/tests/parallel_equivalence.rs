//! Bit-for-bit equivalence of the pooled campaign engine against the
//! serial path, on the two largest ISCAS89 profiles across every holding
//! style of the paper (enhanced scan, MUX-based, FLH).
//!
//! The `flh-exec` determinism contract says a campaign's result is a
//! function of its inputs only — never of the worker count. This test
//! holds the contract to its word on all three batch surfaces:
//!
//! * stuck-at detection maps
//!   ([`flh_atpg::stuck_coverage_partitioned`]);
//! * transition-fault coverage
//!   ([`flh_atpg::simulate_transition_patterns_partitioned`]);
//! * power toggle counts ([`flh_power::random_activity_sharded`]);
//!
//! each at pool sizes 1, 2, 4 and 8, compared with `assert_eq` — toggle
//! counts are integers and detection maps are booleans, so "identical"
//! means identical, not approximately equal.

use flh_atpg::transition::{enumerate_transition_faults, TransitionPattern};
use flh_atpg::{
    enumerate_stuck_faults, simulate_transition_patterns_partitioned, stuck_coverage_partitioned,
    TestView,
};
use flh_bench::build_circuit;
use flh_core::{apply_style, DftStyle};
use flh_exec::ThreadPool;
use flh_netlist::{iscas89_profile, CompiledCircuit};
use flh_power::random_activity_sharded;
use flh_rng::Rng;

const CIRCUITS: [&str; 2] = ["s9234", "s13207"];
const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];
const POOLS: [usize; 4] = [1, 2, 4, 8];
const PATTERNS: usize = 96;
const MAX_FAULTS: usize = 1200;

/// Every k-th element, keeping the debug-build runtime bounded while still
/// spanning the whole id range (and thus every partition boundary).
fn subsample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    let step = items.len().div_ceil(max).max(1);
    items.iter().step_by(step).cloned().collect()
}

#[test]
fn pooled_campaigns_match_serial_on_large_circuits_and_all_styles() {
    for circuit_name in CIRCUITS {
        let profile = iscas89_profile(circuit_name).expect("profile present");
        let circuit = build_circuit(&profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let dft = apply_style(&circuit, style)
                .unwrap_or_else(|e| panic!("{circuit_name} / {style}: {e}"));
            let n = &dft.netlist;
            let view = TestView::new(n).expect("acyclic after scan insertion");
            let na = view.assignable().len();
            let mut rng = Rng::seed_from_u64(0xE9 + si as u64);

            // Stuck-at detection maps.
            let stuck = subsample(&enumerate_stuck_faults(n), MAX_FAULTS);
            let patterns: Vec<Vec<bool>> = (0..PATTERNS)
                .map(|_| (0..na).map(|_| rng.gen()).collect())
                .collect();
            let stuck_serial =
                stuck_coverage_partitioned(&view, &stuck, &patterns, &ThreadPool::serial());
            for &workers in &POOLS {
                let pool = ThreadPool::new(workers);
                assert_eq!(
                    stuck_coverage_partitioned(&view, &stuck, &patterns, &pool),
                    stuck_serial,
                    "{circuit_name} / {style}: stuck detection map diverged at {workers} workers"
                );
            }

            // Transition-fault coverage over random pattern pairs.
            let transition = subsample(&enumerate_transition_faults(n), MAX_FAULTS);
            let pairs: Vec<TransitionPattern> = (0..PATTERNS)
                .map(|_| TransitionPattern {
                    v1: (0..na).map(|_| rng.gen()).collect(),
                    v2: (0..na).map(|_| rng.gen()).collect(),
                })
                .collect();
            let transition_serial = simulate_transition_patterns_partitioned(
                &view,
                &transition,
                &pairs,
                &ThreadPool::serial(),
            );
            for &workers in &POOLS {
                let pool = ThreadPool::new(workers);
                assert_eq!(
                    simulate_transition_patterns_partitioned(&view, &transition, &pairs, &pool),
                    transition_serial,
                    "{circuit_name} / {style}: transition coverage diverged at {workers} workers"
                );
            }

            // Power toggle counts under sharded activity collection; FLH
            // gates the first level exactly as the power flow does.
            let compiled = CompiledCircuit::compile_shared(n).expect("compiles");
            let gated = (style == DftStyle::Flh).then_some(dft.gated.as_slice());
            let activity_serial = random_activity_sharded(
                &compiled,
                gated,
                PATTERNS,
                0x70661e + si as u64,
                32,
                &ThreadPool::serial(),
            );
            for &workers in &POOLS {
                let activity = random_activity_sharded(
                    &compiled,
                    gated,
                    PATTERNS,
                    0x70661e + si as u64,
                    32,
                    &ThreadPool::new(workers),
                );
                assert_eq!(
                    activity, activity_serial,
                    "{circuit_name} / {style}: toggle counts diverged at {workers} workers"
                );
            }
        }
    }
}
