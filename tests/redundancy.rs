//! Soundness of the FIRE stem-conflict redundancy pass
//! (`flh_netlist::static_analysis::redundant_stem_faults`, DESIGN.md §2m).
//!
//! A flagged stem fault must be detected by no input vector at all. On
//! FLH-styled s298 that is checked exhaustively; hand-built fixtures pin
//! the two redundancy shapes the pass must find and the reconvergence
//! case where the textbook "all branches unobservable" shortcut is wrong.

use flh::atpg::transition::enumerate_transition_faults;
use flh::atpg::{
    transition_atpg, Fault, PodemConfig, StaticFilter, StuckValue, TestView, TransitionFault,
    TransitionKind,
};
use flh::core::{apply_style, DftStyle};
use flh::netlist::static_analysis::{redundant_stem_faults, ternary_constants, Redundancy};
use flh::netlist::{generate_circuit, iscas89_profile, CellId, CellKind, Netlist};

/// The pass over every line of the view's circuit.
fn pass(view: &TestView<'_>) -> Redundancy {
    let compiled = view.compiled();
    let constants = ternary_constants(view.program());
    let targets = vec![true; compiled.cell_count()];
    redundant_stem_faults(compiled, &constants, &targets)
}

fn flagged(view: &TestView<'_>, cell: CellId, stuck: bool) -> bool {
    pass(view).stuck_redundant(view.compiled().id_of(cell), stuck)
}

#[test]
fn no_flagged_stem_fault_of_flh_s298_is_detected_by_any_vector() {
    let profile = iscas89_profile("s298").expect("builtin profile");
    let base = generate_circuit(&profile.generator_config()).expect("generates");
    let dft = apply_style(&base, DftStyle::Flh).expect("flh");
    let view = TestView::new(&dft.netlist).expect("view");
    let redundancy = pass(&view);
    let compiled = view.compiled();
    let mut faults = Vec::new();
    for c in 0..compiled.cell_count() as u32 {
        for stuck in [StuckValue::Zero, StuckValue::One] {
            if compiled.kind(c) != CellKind::Output
                && redundancy.stuck_redundant(c, stuck.as_bool())
            {
                faults.push(Fault::stem(compiled.cell_id(c), stuck));
            }
        }
    }
    assert!(
        faults.len() >= 40,
        "the pass flags only {} stem faults",
        faults.len()
    );

    // Every vector over the 17 assignables, 64 per word: input `i` of
    // vector `64 * chunk + lane` is bit `i` of that number.
    let width = view.assignable().len();
    assert_eq!(width, 17);
    for chunk in 0..(1u64 << width) / 64 {
        let assignment: Vec<u64> = (0..width)
            .map(|i| {
                (0..64u64).fold(0, |word, lane| {
                    word | ((chunk * 64 + lane) >> i & 1) << lane
                })
            })
            .collect();
        let good = view.observe64(&view.eval64(&assignment, None));
        for fault in &faults {
            let faulty = view.observe64(&view.eval64(&assignment, Some(fault)));
            assert_eq!(good, faulty, "{fault:?} detected in vector chunk {chunk}");
        }
    }
}

/// `y = AND(BUF(a), BUF(a))`: with `a = 0` each buffer blocks the other,
/// so the "all branches unobservable" shortcut would call `a` unobservable
/// and flag `a` stuck-at-1. Both buffers sit in `a`'s fanout cone, so the
/// cone rule lets neither block, and the vector `a = 0` does test it.
#[test]
fn reconvergent_branches_do_not_block_each_other() {
    let mut n = Netlist::new("reconverge");
    let a = n.add_input("a");
    let b1 = n.add_cell("b1", CellKind::Buf, vec![a]);
    let b2 = n.add_cell("b2", CellKind::Buf, vec![a]);
    let y = n.add_cell("y", CellKind::And2, vec![b1, b2]);
    n.add_output("o", y);
    let view = TestView::new(&n).expect("view");
    assert!(!flagged(&view, a, true), "a stuck-at-1 flagged");

    let stf = TransitionFault {
        site: a,
        kind: TransitionKind::SlowToFall,
    };
    let filter = StaticFilter::from_view(&view);
    assert!(!filter.redundant_transitions(&[stf]).flags[0]);
    let result = transition_atpg(&view, &[stf], &PodemConfig::paper_default(), 1);
    assert_eq!(result.detected, vec![true], "slow-to-fall at a undetected");
}

/// `y = AND(a, NOT a)` is 0 on every vector, yet the constant lattice sees
/// `AND(X, NOT X) = X`. Both values of the stem `a` imply `y = 0`.
#[test]
fn and_of_a_line_and_its_complement_is_flagged_stuck_at_0() {
    let mut n = Netlist::new("complement");
    let a = n.add_input("a");
    let inv = n.add_cell("inv", CellKind::Inv, vec![a]);
    let y = n.add_cell("y", CellKind::And2, vec![a, inv]);
    n.add_output("o", y);
    let view = TestView::new(&n).expect("view");
    assert!(flagged(&view, y, false));
    assert!(!flagged(&view, y, true));
}

/// `l = AND(s, b)` whose only path is `AND(l, NOT s)`: exciting `l`
/// stuck-at-0 needs `s = 1`, and propagating it needs `s = 0`.
#[test]
fn excitation_and_propagation_needing_opposite_stem_values_is_flagged() {
    let mut n = Netlist::new("stem-conflict");
    let s = n.add_input("s");
    let b = n.add_input("b");
    let l = n.add_cell("l", CellKind::And2, vec![s, b]);
    let ns = n.add_cell("ns", CellKind::Inv, vec![s]);
    let y = n.add_cell("y", CellKind::And2, vec![l, ns]);
    n.add_output("o", y);
    let view = TestView::new(&n).expect("view");
    assert!(flagged(&view, l, false));

    // The slow-to-rise fault at l is stuck-at-0 in V2: pruned, and counted
    // untestable like PODEM would.
    let faults = enumerate_transition_faults(&n);
    let filter = StaticFilter::from_view(&view);
    let redundant = filter.redundant_transitions(&faults);
    let str_at_l = faults
        .iter()
        .position(|f| f.site == l && f.kind == TransitionKind::SlowToRise)
        .expect("enumerated");
    assert!(redundant.flags[str_at_l]);
    let result = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 1);
    assert!(!result.detected[str_at_l]);
}
