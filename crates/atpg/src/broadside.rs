//! Deterministic broadside (launch-on-capture) transition ATPG via
//! two-timeframe expansion.
//!
//! The paper's introduction notes that broadside application needs no
//! holding hardware but "can suffer from poor fault coverage": the second
//! pattern's state part is not free — it must be the circuit's own
//! response to V1. This module quantifies that ceiling *deterministically*:
//! the circuit is unrolled into two combinational frames
//! ([`TwoFrameUnrolling`]), the launch condition becomes a side goal on the
//! frame-1 copy, the detection becomes a stuck-at fault on the frame-2
//! copy, and the goal-constrained PODEM solves the sequential
//! justification exactly. The transition-ATPG driver of the `transition`
//! module runs the loop, as it does for arbitrary pairs.

use flh_netlist::{CellId, CellKind, Netlist, TwoFrameUnrolling};

use crate::fault::Fault;
use crate::podem::{NoCube, Podem, PodemConfig};
use crate::prune::StaticFilter;
use crate::transition::{drive_atpg, TransitionAtpgResult, TransitionFault, TransitionPattern};
use crate::tview::TestView;

type FrameMap = Vec<Option<CellId>>;

/// Unrolls with isolation buffers on the frame-2 state nodes, so a stuck-at
/// injection at a flip-flop's frame-2 value perturbs *only* frame-2 logic
/// (the physical transition happens at the capture edge).
fn unroll_with_state_buffers(
    original: &Netlist,
) -> flh_netlist::Result<(Netlist, FrameMap, FrameMap)> {
    let u = TwoFrameUnrolling::build(original)?;
    let mut netlist = u.netlist.clone();
    let frame1 = u.frame1.clone();
    let mut frame2 = u.frame2.clone();
    for &ff in original.flip_flops() {
        let shared = frame2[ff.index()].expect("frame-2 state mapped");
        let name = netlist.fresh_name("f2state_");
        let buf = netlist.add_cell(name, CellKind::Buf, vec![shared]);
        // Frame-2 logic must read the buffer; frame-1 readers keep the
        // shared node. Frame-2 readers are exactly the cells created after
        // the frame-1 block, identifiable by their `_f2` names.
        let readers: Vec<CellId> = netlist
            .ids()
            .filter(|&r| {
                r != buf
                    && netlist.cell(r).fanin().contains(&shared)
                    && netlist.cell(r).name().ends_with("_f2")
            })
            .collect();
        netlist.redirect_selected_readers(shared, buf, &readers);
        // The unrolled FF's D pin observes frame-2 next state, which may be
        // this very node (FF feeding another FF in the original): leave FF
        // D pins on the unbuffered node — the capture in cycle 2 reads the
        // frame-2 function, and frame-2 D drivers all live in `_f2` cells
        // or are state nodes themselves; a slow FF output also corrupts
        // captures, so redirect FF D pins reading the shared node too.
        let ff_readers: Vec<CellId> = netlist
            .ids()
            .filter(|&r| {
                netlist.cell(r).kind().is_flip_flop() && netlist.cell(r).fanin().contains(&shared)
            })
            .collect();
        netlist.redirect_selected_readers(shared, buf, &ff_readers);
        frame2[ff.index()] = Some(buf);
    }
    netlist.validate()?;
    Ok((netlist, frame1, frame2))
}

/// Runs deterministic broadside transition ATPG with fault dropping.
///
/// `faults` are transition faults on `original`; the returned coverage is
/// the *broadside-reachable* ceiling (up to the PODEM backtrack budget).
/// The static filter and the FIRE pass of `original` prune as they do for
/// arbitrary pairs: a fault no arbitrary pair detects, no broadside pair
/// does. Every pattern is the applied (V1, V2) pair, kept only after
/// sequential fault simulation on `original` detects its target.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn broadside_transition_atpg(
    original: &Netlist,
    faults: &[TransitionFault],
    config: &PodemConfig,
    seed: u64,
) -> flh_netlist::Result<TransitionAtpgResult> {
    let (unrolled, frame1, frame2) = unroll_with_state_buffers(original)?;
    let unrolled_view = TestView::new(&unrolled)?;
    let podem = Podem::new(&unrolled_view, config.clone());
    let view = TestView::new(original)?;
    let filter = StaticFilter::from_view(&view);
    let n_pi = original.inputs().len();
    // The cells each flip-flop captures, in assignable order.
    let captures: Vec<CellId> = original
        .flip_flops()
        .iter()
        .map(|&ff| original.cell(ff).fanin()[0])
        .collect();
    let mut good1 = Vec::new();
    Ok(drive_atpg(
        &view,
        faults,
        Some(&filter),
        seed,
        |fault, sat, rng| {
            let site = fault.site.index();
            let (Some(s1), Some(s2)) = (frame1[site], frame2[site]) else {
                return Err(NoCube::Exhausted); // no copy to launch or detect at
            };
            // Detection on the frame-2 copy, the initial value on frame 1.
            let detect = Fault::stem(s2, fault.stuck_equivalent().stuck);
            let cube = podem.search(Some(&detect), &[(s1, fault.initial_value())], Some(sat))?;
            // The unrolled assignables: frame-1 inputs, frame-2 inputs, state.
            let bits = cube.fill_random(rng);
            let mut v1 = bits[..n_pi].to_vec();
            v1.extend_from_slice(&bits[2 * n_pi..]);
            let words: Vec<u64> = v1.iter().map(|&b| u64::from(b)).collect();
            view.eval64_into(&words, None, &mut good1);
            let mut v2 = bits[n_pi..2 * n_pi].to_vec();
            v2.extend(captures.iter().map(|d| good1[d.index()] & 1 != 0));
            Ok(TransitionPattern { v1, v2 })
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::{random_transition_campaign, ApplicationStyle};
    use crate::transition::{
        enumerate_transition_faults, simulate_transition_patterns, transition_atpg,
    };
    use flh_netlist::{generate_circuit, GeneratorConfig};

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "brd".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 7,
            gates: 60,
            logic_depth: 6,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 31,
        })
        .unwrap()
    }

    #[test]
    fn broadside_atpg_verifies_sequentially() {
        // The release-mode check behind the driver's debug assertion: the
        // applied pairs, resimulated on the original circuit, detect
        // exactly the faults the run reports, and each V2 state part is
        // the capture of V1's response.
        let n = circuit();
        let faults = enumerate_transition_faults(&n);
        let result =
            broadside_transition_atpg(&n, &faults, &PodemConfig::paper_default(), 5).unwrap();
        assert!(result.detected_count() > 0);
        assert!(result.efficiency_pct() <= 100.0);
        assert!(result.aborted <= result.untestable);
        let view = TestView::new(&n).unwrap();
        let resim = simulate_transition_patterns(&view, &faults, &result.patterns);
        assert_eq!(resim, result.detected);
        let n_pi = n.inputs().len();
        for p in &result.patterns {
            let words: Vec<u64> = p.v1.iter().map(|&b| u64::from(b)).collect();
            let good1 = view.eval64(&words, None);
            for (i, &ff) in n.flip_flops().iter().enumerate() {
                let capture = good1[n.cell(ff).fanin()[0].index()] & 1 != 0;
                assert_eq!(p.v2[n_pi + i], capture, "state bit {i} of {p:?}");
            }
        }
    }

    #[test]
    fn deterministic_broadside_beats_random_broadside() {
        let n = circuit();
        let faults = enumerate_transition_faults(&n);
        let det = broadside_transition_atpg(&n, &faults, &PodemConfig::paper_default(), 5).unwrap();
        let rnd = random_transition_campaign(&n, ApplicationStyle::Broadside, 2048, 5).unwrap();
        assert!(
            det.coverage_pct() >= rnd.coverage_pct(),
            "deterministic {} < random {}",
            det.coverage_pct(),
            rnd.coverage_pct()
        );
    }

    #[test]
    fn arbitrary_application_dominates_the_broadside_ceiling() {
        // The paper's core coverage claim, now with *deterministic* test
        // generation on both sides.
        let n = circuit();
        let faults = enumerate_transition_faults(&n);
        let broadside =
            broadside_transition_atpg(&n, &faults, &PodemConfig::paper_default(), 5).unwrap();
        let view = TestView::new(&n).unwrap();
        let arbitrary = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 5);
        assert!(
            arbitrary.coverage_pct() >= broadside.coverage_pct(),
            "arbitrary {} < broadside {}",
            arbitrary.coverage_pct(),
            broadside.coverage_pct()
        );
    }

    #[test]
    fn result_is_deterministic() {
        let n = circuit();
        let faults = enumerate_transition_faults(&n);
        let a = broadside_transition_atpg(&n, &faults, &PodemConfig::paper_default(), 9).unwrap();
        let b = broadside_transition_atpg(&n, &faults, &PodemConfig::paper_default(), 9).unwrap();
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.detected, b.detected);
    }
}
