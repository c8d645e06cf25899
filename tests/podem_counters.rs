//! PODEM's deterministic work counters: `podem.decisions`,
//! `podem.backtracks` and `podem.aborts` count exactly the search steps
//! taken, the `atpg.sat.*` counters the SAT checks at the backtrack
//! checkpoint, and all repeat run for run.
//!
//! One `#[test]` only: the flh-obs registry is process-global and this
//! file is its own test process.

use flh::atpg::podem::SAT_CHECKPOINT;
use flh::atpg::transition::enumerate_transition_faults;
use flh::atpg::{transition_atpg, Fault, Podem, PodemConfig, StuckValue, TestView};
use flh::core::{apply_style, DftStyle};
use flh::netlist::{generate_circuit, iscas89_profile, CellKind, Netlist};

/// `(calls, unsat)` of the SAT check since the last reset; a run with no
/// call records neither key.
fn sat_counters() -> (u64, u64) {
    let snap = flh::obs::snapshot();
    let named = |name: &str| {
        snap.named_counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    (named("atpg.sat.calls"), named("atpg.sat.unsat"))
}

/// `(decisions, backtracks, aborts)` recorded since the last reset.
fn podem_counters() -> (u64, u64, u64) {
    let snap = flh::obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("fixed counter present")
    };
    (
        counter("podem.decisions"),
        counter("podem.backtracks"),
        counter("podem.aborts"),
    )
}

#[test]
fn podem_counters_count_search_steps() {
    flh::obs::install(false);

    // y = AND(a, NOT a) is constant 0, so s-a-0 at y is redundant. PODEM
    // decides a = 1 (activation conflict), flips it to a = 0 (conflict
    // again) and runs out of decisions: one decision, one backtrack.
    let mut n = Netlist::new("redundant");
    let a = n.add_input("a");
    let inv = n.add_cell("inv", CellKind::Inv, vec![a]);
    let g = n.add_cell("g", CellKind::And2, vec![a, inv]);
    n.add_output("y", g);
    let view = TestView::new(&n).expect("view");
    let fault = Fault::stem(g, StuckValue::Zero);

    flh::obs::reset();
    assert!(Podem::new(&view, PodemConfig::paper_default())
        .generate(&fault)
        .is_none());
    assert_eq!(podem_counters(), (1, 1, 0), "exhausted, not aborted");

    // With no backtrack budget the same search stops at its first
    // backtrack: an abort.
    flh::obs::reset();
    let starved = PodemConfig { max_backtracks: 0 };
    assert!(Podem::new(&view, starved).generate(&fault).is_none());
    assert_eq!(podem_counters(), (1, 1, 1), "budget exhausted");
    assert_eq!(sat_counters(), (0, 0), "no SAT check below the checkpoint");

    // y = AND(XOR(a1..a8), XNOR(a1..a8)) is constant 0 as well, but PODEM
    // needs more backtracks than the checkpoint to run out of decisions on
    // s-a-0 at y. The SAT check at the checkpoint proves it: no abort.
    let mut n = Netlist::new("parity_redundant");
    let inputs: Vec<_> = (1..=8).map(|i| n.add_input(format!("a{i}"))).collect();
    let xor = n.add_cell("x", CellKind::XorN(8), inputs.clone());
    let parity = n.add_cell("p", CellKind::XorN(8), inputs);
    let xnor = n.add_cell("xn", CellKind::Inv, vec![parity]);
    let g = n.add_cell("g", CellKind::And2, vec![xor, xnor]);
    n.add_output("y", g);
    let view = TestView::new(&n).expect("view");
    let fault = Fault::stem(g, StuckValue::Zero);
    flh::obs::reset();
    assert!(Podem::new(&view, PodemConfig::paper_default())
        .generate(&fault)
        .is_none());
    let (_, backtracks, aborts) = podem_counters();
    assert_eq!(aborts, 0, "proven, not aborted");
    assert_eq!(
        backtracks, SAT_CHECKPOINT as u64,
        "stopped at the checkpoint"
    );
    assert_eq!(sat_counters(), (1, 1));
    // Without the check, the search exhausts only well past the
    // checkpoint, so the check is what ended it.
    flh::obs::reset();
    let unchecked = PodemConfig {
        max_backtracks: SAT_CHECKPOINT,
    };
    assert!(Podem::new(&view, unchecked).generate(&fault).is_none());
    assert_eq!(podem_counters().2, 1, "aborts without the check");
    assert_eq!(sat_counters(), (0, 0));

    // A whole ATPG run counts the same work every time, and every abort
    // ends in a fault counted untestable.
    let profile = iscas89_profile("s298").expect("builtin profile");
    let base = generate_circuit(&profile.generator_config()).expect("generates");
    let dft = apply_style(&base, DftStyle::Flh).expect("flh");
    let view = TestView::new(&dft.netlist).expect("view");
    let faults = enumerate_transition_faults(&dft.netlist);
    let mut runs = Vec::new();
    for _ in 0..2 {
        flh::obs::reset();
        let result = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 0xf1);
        let counters = podem_counters();
        assert!(counters.0 > 0, "ATPG made no decisions");
        assert!(counters.2 <= result.untestable as u64);
        runs.push(counters);
    }
    assert_eq!(runs[0], runs[1], "PODEM work differs between two runs");
}
