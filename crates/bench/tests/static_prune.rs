//! Soundness of the static testability filter across the ISCAS89 profile
//! set and the paper's three holding styles.
//!
//! The contract under test (`flh_atpg::prune`): a fault the filter
//! classifies as statically untestable must **never** be detected by fault
//! simulation, and threading the filter through ATPG / campaigns must leave
//! every result bit-identical — the filter only removes work, never answers.
//!
//! Three layers:
//!
//! * the bytecode verifier is clean on every profile × style (the compiled
//!   form all simulators execute satisfies the emission contract);
//! * statically-untestable ∩ simulated-detected = ∅, checked with random
//!   stuck-at patterns and random two-pattern transition tests, plus a
//!   hand-built redundant circuit where the untestable set is *non-empty*
//!   (the constant lattice proves nothing untestable on the profiles, so
//!   they alone would make this check vacuous);
//! * the same for the FIRE redundancy pass, whose class is not empty on
//!   the profiles: the generator's reconvergent fanout leaves redundant
//!   faults (the pass flags 175 of FLH s1196's 1122 transition faults,
//!   and a 100000-backtrack PODEM proves 171 of their stuck equivalents
//!   redundant), and random pairs must detect none the pass flags;
//! * pruned vs. unpruned equivalence: `transition_atpg` (filter and
//!   redundancy pass on by default) against
//!   `transition_atpg_with_filter(.., None)`, and
//!   `transition_campaign_filtered` with and without the filter against
//!   the serial `random_transition_campaign`, pattern-for-pattern and
//!   count-for-count.

use flh_atpg::{
    enumerate_stuck_faults, enumerate_transition_faults, random_transition_campaign,
    simulate_transition_patterns, stuck_coverage, transition_atpg, transition_atpg_with_filter,
    transition_campaign_filtered, ApplicationStyle, PodemConfig, StaticFilter, TestView,
    TransitionFault, TransitionPattern,
};
use flh_bench::build_circuit;
use flh_core::{apply_style, DftStyle};
use flh_exec::ThreadPool;
use flh_netlist::static_analysis::verify_program;
use flh_netlist::{iscas89_profiles, CellKind, CompiledCircuit, Netlist, Program};
use flh_rng::Rng;

const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];
const MAX_FAULTS: usize = 600;
const STUCK_PATTERNS: usize = 64;
const PAIRS: usize = 32;
const REDUNDANT_PAIRS: usize = 256;

/// Every k-th element: bounds debug-build runtime while spanning the full
/// fault-id range.
fn subsample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    let step = items.len().div_ceil(max).max(1);
    items.iter().step_by(step).cloned().collect()
}

fn random_vectors(rng: &mut Rng, width: usize, count: usize) -> Vec<Vec<bool>> {
    (0..count)
        .map(|_| (0..width).map(|_| rng.gen()).collect())
        .collect()
}

fn random_pairs(rng: &mut Rng, width: usize, count: usize) -> Vec<TransitionPattern> {
    (0..count)
        .map(|_| TransitionPattern {
            v1: (0..width).map(|_| rng.gen()).collect(),
            v2: (0..width).map(|_| rng.gen()).collect(),
        })
        .collect()
}

/// Statically-untestable ∩ simulated-detected must be empty on `netlist`.
fn assert_prune_sound(netlist: &Netlist, label: &str) {
    let view = TestView::new(netlist).expect("test view");
    let filter = StaticFilter::from_view(&view);
    let width = view.assignable().len();
    let mut rng = Rng::seed_from_u64(0x51AB);

    let stuck = subsample(&enumerate_stuck_faults(netlist), MAX_FAULTS);
    let patterns = random_vectors(&mut rng, width, STUCK_PATTERNS);
    let detected = stuck_coverage(&view, &stuck, &patterns);
    for (f, &d) in stuck.iter().zip(&detected) {
        assert!(
            !(d && filter.stuck_untestable(f)),
            "{label}: statically-untestable stuck fault {f:?} detected by simulation"
        );
    }

    let trans = subsample(&enumerate_transition_faults(netlist), MAX_FAULTS);
    let pairs = random_pairs(&mut rng, width, PAIRS);
    let tdetected = simulate_transition_patterns(&view, &trans, &pairs);
    for (f, &d) in trans.iter().zip(&tdetected) {
        assert!(
            !(d && filter.transition_untestable(f)),
            "{label}: statically-untestable transition fault {f:?} detected by simulation"
        );
    }
}

#[test]
fn verifier_is_clean_on_every_profile_and_style() {
    for profile in iscas89_profiles() {
        let base = build_circuit(&profile);
        let mut targets = vec![(base.clone(), "bare")];
        for style in STYLES {
            let dft = apply_style(&base, style).expect("style applies");
            targets.push((dft.netlist, style.label()));
        }
        for (netlist, label) in targets {
            let compiled = CompiledCircuit::compile(&netlist).expect("compiles");
            let program = Program::lower(&compiled);
            let report = verify_program(&compiled, &program);
            assert!(
                report.is_clean(),
                "{} / {label}: {:?}",
                profile.name,
                report.violations
            );
            assert!(report.checks > 0);
        }
    }
}

#[test]
fn static_untestability_is_sound_on_every_profile_and_style() {
    for profile in iscas89_profiles() {
        let base = build_circuit(&profile);
        assert_prune_sound(&base, profile.name);
        for style in STYLES {
            let dft = apply_style(&base, style).expect("style applies");
            assert_prune_sound(&dft.netlist, &format!("{}/{}", profile.name, style.label()));
        }
    }
}

/// No random pair detects a transition fault the redundancy pass flags.
/// Only the flagged faults are simulated, which keeps the check cheap.
#[test]
fn redundancy_pass_is_sound_on_every_profile_and_style() {
    let mut flagged_total = 0;
    for profile in iscas89_profiles() {
        let base = build_circuit(&profile);
        for style in STYLES {
            let dft = apply_style(&base, style).expect("style applies");
            let view = TestView::new(&dft.netlist).expect("test view");
            let filter = StaticFilter::from_view(&view);
            let faults = enumerate_transition_faults(&dft.netlist);
            let redundant = filter.redundant_transitions(&faults);
            let flagged: Vec<TransitionFault> = faults
                .iter()
                .zip(&redundant.flags)
                .filter(|(_, &r)| r)
                .map(|(f, _)| *f)
                .collect();
            flagged_total += flagged.len();
            let mut rng = Rng::seed_from_u64(0xF12E);
            let pairs = random_pairs(&mut rng, view.assignable().len(), REDUNDANT_PAIRS);
            let detected = simulate_transition_patterns(&view, &flagged, &pairs);
            for (f, &d) in flagged.iter().zip(&detected) {
                assert!(
                    !d,
                    "{}/{}: redundant transition fault {f:?} detected by simulation",
                    profile.name,
                    style.label()
                );
            }
        }
    }
    assert!(flagged_total > 0, "the pass flagged nothing on any profile");
}

/// Redundant logic the profile generator never emits: gates tied to
/// constants and a gate whose output is masked on every path. Here the
/// untestable set is non-empty, so the soundness check actually bites.
fn redundant_circuit() -> Netlist {
    let mut n = Netlist::new("redundant");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let f1 = n.add_cell("f1", CellKind::Dff, vec![a]);
    let tie0 = n.add_cell("tie0", CellKind::Const0, Vec::new());
    let tie1 = n.add_cell("tie1", CellKind::Const1, Vec::new());
    // gz is constant 0: its slow-to-rise / stuck-at-0 faults are untestable.
    let gz = n.add_cell("gz", CellKind::And2, vec![f1, tie0]);
    // go is constant 1 through the OR with tie1.
    let go = n.add_cell("go", CellKind::Or2, vec![b, tie1]);
    let g1 = n.add_cell("g1", CellKind::And2, vec![gz, go]);
    let g2 = n.add_cell("g2", CellKind::Xor2, vec![f1, b]);
    let g3 = n.add_cell("g3", CellKind::Or2, vec![g1, g2]);
    n.add_output("y", g3);
    n
}

#[test]
fn redundant_circuit_has_nonempty_untestable_set_and_stays_sound() {
    let netlist = redundant_circuit();
    let view = TestView::new(&netlist).expect("test view");
    let filter = StaticFilter::from_view(&view);
    let stuck = enumerate_stuck_faults(&netlist);
    let trans = enumerate_transition_faults(&netlist);
    let stuck_untestable = stuck.iter().filter(|f| filter.stuck_untestable(f)).count();
    let trans_untestable = trans
        .iter()
        .filter(|f| filter.transition_untestable(f))
        .count();
    assert!(stuck_untestable > 0, "constant cone must be untestable");
    assert!(trans_untestable > 0, "no transitions at constant nets");
    assert_prune_sound(&netlist, "redundant");
}

#[test]
fn pruned_stuck_ordering_preserves_coverage() {
    for name in ["s298", "s641", "s1423"] {
        let profile = iscas89_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .expect("profile exists");
        let netlist = build_circuit(&profile);
        let view = TestView::new(&netlist).expect("test view");
        let filter = StaticFilter::from_view(&view);
        let faults = enumerate_stuck_faults(&netlist);
        let outcome = filter.prune_stuck(&faults);
        assert_eq!(outcome.kept.len() + outcome.pruned, faults.len());

        let mut rng = Rng::seed_from_u64(0xC0DE);
        let patterns = random_vectors(&mut rng, view.assignable().len(), STUCK_PATTERNS);
        let full: usize = stuck_coverage(&view, &faults, &patterns)
            .iter()
            .filter(|&&d| d)
            .count();
        let kept: usize = stuck_coverage(&view, &outcome.kept, &patterns)
            .iter()
            .filter(|&&d| d)
            .count();
        assert_eq!(full, kept, "{name}: pruning changed stuck coverage");
    }
}

#[test]
fn pruned_transition_atpg_is_bit_identical_to_unpruned() {
    // FLH s1196 runs its whole fault list: the redundancy pass prunes 175
    // of its 1122 faults.
    for (name, flh) in [("s298", false), ("s420", false), ("s1196", true)] {
        let profile = iscas89_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .expect("profile exists");
        let mut netlist = build_circuit(&profile);
        if flh {
            netlist = apply_style(&netlist, DftStyle::Flh)
                .expect("style applies")
                .netlist;
        }
        let view = TestView::new(&netlist).expect("test view");
        let filter = StaticFilter::from_view(&view);
        let faults = enumerate_transition_faults(&netlist);
        let faults = if flh {
            let flags = filter.redundant_transitions(&faults).flags;
            assert_eq!(flags.iter().filter(|&&f| f).count(), 175);
            faults
        } else {
            subsample(&faults, 200)
        };
        let config = PodemConfig::paper_default();
        let with = transition_atpg_with_filter(&view, &faults, &config, 0xF1, Some(&filter));
        let without = transition_atpg_with_filter(&view, &faults, &config, 0xF1, None);
        let default_path = transition_atpg(&view, &faults, &config, 0xF1);
        assert_eq!(with.patterns, without.patterns, "{name}: pattern drift");
        assert_eq!(with.detected, without.detected, "{name}: detection drift");
        assert_eq!(
            with.untestable, without.untestable,
            "{name}: untestable drift"
        );
        assert_eq!(default_path.patterns, with.patterns);
        assert_eq!(default_path.detected, with.detected);
    }
}

#[test]
fn pruned_campaign_is_identical_to_unpruned() {
    let pool = ThreadPool::serial();
    for name in ["s298", "s526"] {
        let profile = iscas89_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .expect("profile exists");
        let netlist = build_circuit(&profile);
        let view = TestView::new(&netlist).expect("test view");
        let filter = StaticFilter::from_view(&view);
        let faults = enumerate_transition_faults(&netlist);
        for style in [
            ApplicationStyle::ArbitraryTwoPattern,
            ApplicationStyle::Broadside,
        ] {
            let unfiltered =
                transition_campaign_filtered(&view, &faults, style, PAIRS, 7, &pool, None);
            let filtered =
                transition_campaign_filtered(&view, &faults, style, PAIRS, 7, &pool, Some(&filter));
            let default_path =
                random_transition_campaign(&netlist, style, PAIRS, 7).expect("campaign");
            assert_eq!(unfiltered, filtered, "{name}/{style:?}");
            assert_eq!(default_path, filtered, "{name}/{style:?}");
        }
    }
}
