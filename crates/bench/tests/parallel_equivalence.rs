//! Bit-for-bit equivalence of the pooled transition campaign across pool
//! widths, on the two largest ISCAS89 profiles, every holding style of the
//! paper (enhanced scan, MUX-based, FLH) and every application style
//! (arbitrary two-pattern, broadside, skewed-load).
//!
//! The `flh-exec` determinism contract says a result is a function of its
//! inputs only — never of the worker count. The one production flow on the
//! pool is [`transition_campaign_filtered`] (`flh campaign`, `flh serve`
//! campaign jobs), which deals the fault list out in whole fanout-free
//! regions; this test holds it to the contract at pool sizes 1, 2, 4 and
//! 8, each compared with width 1 by `assert_eq` — counts are integers, so
//! "identical" means identical.

use flh_atpg::transition::enumerate_transition_faults;
use flh_atpg::{transition_campaign_filtered, ApplicationStyle, StaticFilter, TestView};
use flh_bench::build_circuit;
use flh_core::{apply_style, DftStyle};
use flh_exec::ThreadPool;
use flh_netlist::iscas89_profile;

const CIRCUITS: [&str; 2] = ["s9234", "s13207"];
const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];
const APPLICATIONS: [ApplicationStyle; 3] = [
    ApplicationStyle::ArbitraryTwoPattern,
    ApplicationStyle::Broadside,
    ApplicationStyle::SkewedLoad,
];
const POOLS: [usize; 4] = [1, 2, 4, 8];
/// Three pair blocks, the last one partial: every shard drops faults
/// across blocks.
const PAIRS: usize = 600;
const MAX_FAULTS: usize = 1200;

/// Every k-th element, keeping the debug-build runtime bounded while still
/// spanning the whole id range (and thus every deal boundary).
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
            let faults = subsample(&enumerate_transition_faults(n), MAX_FAULTS);
            let filter = StaticFilter::from_view(&view);
            for application in APPLICATIONS {
                let seed = 0xE9 + si as u64;
                let campaign = |pool: &ThreadPool| {
                    transition_campaign_filtered(
                        &view,
                        &faults,
                        application,
                        PAIRS,
                        seed,
                        pool,
                        Some(&filter),
                    )
                };
                let serial = campaign(&ThreadPool::serial());
                assert!(
                    serial.detected > 0,
                    "{circuit_name} / {style} / {application}: campaign detected nothing"
                );
                for &workers in &POOLS {
                    assert_eq!(
                        campaign(&ThreadPool::new(workers)),
                        serial,
                        "{circuit_name} / {style} / {application}: diverged at {workers} workers"
                    );
                }
            }
        }
    }
}
