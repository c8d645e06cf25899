//! Static fault pruning: thread the §2i bytecode analyses into ATPG.
//!
//! A [`StaticFilter`] runs `flh_netlist::static_analysis::analyze` once per
//! test view and classifies stuck-at and transition faults as *statically
//! untestable* — provably undetectable from the constant lattice and the
//! sensitization-aware observability sweep alone, before PODEM or a fault
//! simulator ever touches them. The classification is deliberately
//! one-sided: a fault it keeps may still be untestable (PODEM finds out),
//! but a fault it prunes must never be detected by simulation. The bench
//! suite enforces that contract across every profile × DFT style, and the
//! `flh analyze --check-sim` gate re-checks it in CI.
//!
//! # Classification rules
//!
//! With `constants` the ternary fixpoint and `obs_struct`/`obs_sens` the
//! observability planes (see `flh_netlist::static_analysis` for why each
//! fact survives fault injection):
//!
//! * **Stem stuck-at-v**: untestable when the line is constant `v` (never
//!   activated); when non-constant, untestable if no sensitizable path
//!   exists (`!obs_sens`); when constant `!v`, the faulty machine breaks
//!   the lattice, so only the structural answer (`!obs_struct`) may prune.
//! * **Branch stuck-at-v** on pin `p` of gate `g` driven by `d`: untestable
//!   when `d` is constant `v`; when a definite side pin blocks pin `p` at
//!   `g` (side pins are good-machine values, valid in every faulty
//!   machine); otherwise, a difference at `g`'s output must survive —
//!   `!obs_sens(g)` prunes when `d` is non-constant, `!obs_struct(g)` when
//!   the fault contradicts `d`'s constant. A branch directly on a
//!   flip-flop D pin is itself observed and is only pruned by activation.
//! * **Transition at s**: untestable when `s` is constant (cannot launch a
//!   transition) or `!obs_sens(s)` (V2 cannot make the slow edge visible).
//!
//! # The redundancy pass
//!
//! [`StaticFilter::redundant_transitions`] adds one more class on demand:
//! transition faults whose stuck-at equivalent (the site stuck at its
//! initial value) the FIRE stem-conflict pass
//! (`flh_netlist::static_analysis::redundant_stem_faults`) proves
//! redundant. The constant lattice cannot see this redundancy, because it
//! comes from reconvergent fanout. The pass costs far more than the rest of
//! the filter, so [`StaticFilter::from_view`] does not run it; deterministic
//! ATPG runs it once per call (DESIGN.md §2m).

use std::sync::Arc;

use flh_netlist::static_analysis::{analyze, pin_blocked, redundant_stem_faults, StaticAnalysis};
use flh_netlist::{CellKind, CompiledCircuit};

use crate::fault::{Fault, FaultSite};
use crate::transition::TransitionFault;
use crate::tview::TestView;

/// Fault classifier backed by the static analyses of one compiled circuit.
pub struct StaticFilter {
    compiled: Arc<CompiledCircuit>,
    analysis: StaticAnalysis,
}

impl StaticFilter {
    /// Run the analyses against a test view's compiled circuit and program.
    pub fn from_view(view: &TestView<'_>) -> Self {
        let compiled = view.compiled_arc();
        let analysis = analyze(&compiled, view.program());
        StaticFilter { compiled, analysis }
    }

    /// The underlying analysis bundle (constants, liveness,
    /// observability).
    pub fn analysis(&self) -> &StaticAnalysis {
        &self.analysis
    }

    /// Is the stuck-at fault provably undetectable from structure alone?
    pub fn stuck_untestable(&self, fault: &Fault) -> bool {
        let a = &self.analysis;
        let v = fault.stuck.as_bool();
        match fault.site {
            FaultSite::Stem(cell) => {
                let s = self.compiled.id_of(cell) as usize;
                match a.constants[s] {
                    Some(c) if c == v => true,
                    Some(_) => !a.obs.obs_struct[s],
                    None => !a.obs.obs_sens[s],
                }
            }
            FaultSite::Branch { gate, pin } => {
                let g = self.compiled.id_of(gate);
                let d = self.compiled.fanin(g)[pin] as usize;
                if a.constants[d] == Some(v) {
                    return true;
                }
                let gk = self.compiled.kind(g);
                // A fanout branch ending on a flip-flop D pin is directly
                // observed; only a constant driver can rule it out.
                if matches!(gk, CellKind::Dff | CellKind::ScanDff) {
                    return false;
                }
                let side: Vec<Option<bool>> = self
                    .compiled
                    .fanin(g)
                    .iter()
                    .map(|&f| a.constants[f as usize])
                    .collect();
                if pin_blocked(gk, pin, &side) {
                    return true;
                }
                let gi = g as usize;
                match a.constants[d] {
                    None => !a.obs.obs_sens[gi],
                    Some(_) => !a.obs.obs_struct[gi],
                }
            }
        }
    }

    /// Is the transition fault provably undetectable from structure alone?
    pub fn transition_untestable(&self, fault: &TransitionFault) -> bool {
        let s = self.compiled.id_of(fault.site) as usize;
        self.analysis.constants[s].is_some() || !self.analysis.obs.obs_sens[s]
    }

    /// Run the FIRE redundancy pass for the faults of `faults` this filter
    /// keeps. A flagged fault's stuck-at equivalent is detected by no input
    /// vector, so no pattern pair detects the fault.
    pub fn redundant_transitions(&self, faults: &[TransitionFault]) -> RedundantTransitions {
        let mut targets = vec![false; self.compiled.cell_count()];
        for f in faults.iter().filter(|f| !self.transition_untestable(f)) {
            targets[self.compiled.id_of(f.site) as usize] = true;
        }
        let pass = redundant_stem_faults(&self.compiled, &self.analysis.constants, &targets);
        RedundantTransitions {
            flags: faults
                .iter()
                .map(|f| {
                    let site = self.compiled.id_of(f.site);
                    targets[site as usize] && pass.stuck_redundant(site, f.initial_value())
                })
                .collect(),
            stems: pass.stems(),
        }
    }

    /// Split a stuck-at fault list into the kept faults (original order),
    /// their indices in the input list, and the pruned count.
    pub fn prune_stuck(&self, faults: &[Fault]) -> PruneOutcome<Fault> {
        prune_by(faults, |f| self.stuck_untestable(f))
    }

    /// Split a transition fault list the same way.
    pub fn prune_transition(&self, faults: &[TransitionFault]) -> PruneOutcome<TransitionFault> {
        prune_by(faults, |f| self.transition_untestable(f))
    }
}

/// Transition faults the redundancy pass proves undetectable beyond the
/// static classes.
#[derive(Clone, Debug)]
pub struct RedundantTransitions {
    /// Per input fault: proven redundant. Never set on a fault
    /// [`StaticFilter::transition_untestable`] already prunes.
    pub flags: Vec<bool>,
    /// Stems the pass implied both ways.
    pub stems: usize,
}

/// Result of a prune pass over a fault list.
#[derive(Clone, Debug)]
pub struct PruneOutcome<T> {
    /// Faults the filter could not rule out, in input order.
    pub kept: Vec<T>,
    /// `kept[i]` sat at `kept_index[i]` in the input list.
    pub kept_index: Vec<usize>,
    /// Faults classified statically untestable.
    pub pruned: usize,
}

fn prune_by<T: Copy>(faults: &[T], mut untestable: impl FnMut(&T) -> bool) -> PruneOutcome<T> {
    let mut kept = Vec::with_capacity(faults.len());
    let mut kept_index = Vec::with_capacity(faults.len());
    for (i, f) in faults.iter().enumerate() {
        if !untestable(f) {
            kept.push(*f);
            kept_index.push(i);
        }
    }
    PruneOutcome {
        pruned: faults.len() - kept.len(),
        kept,
        kept_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_stuck_faults, StuckValue};
    use crate::fsim::stuck_coverage;
    use crate::transition::{enumerate_transition_faults, TransitionKind};
    use flh_netlist::{CellKind, Netlist};

    /// g = And2(i0, const0) is constant-0 but observed; h = Xor2(i0, i1)
    /// is fully testable.
    fn fixture() -> Netlist {
        let mut n = Netlist::new("prune-fix");
        let i0 = n.add_input("i0");
        let i1 = n.add_input("i1");
        let c0 = n.add_cell("c0", CellKind::Const0, vec![]);
        let g = n.add_cell("g", CellKind::And2, vec![i0, c0]);
        let h = n.add_cell("h", CellKind::Xor2, vec![i0, i1]);
        n.add_output("yg", g);
        n.add_output("yh", h);
        n
    }

    #[test]
    fn constant_stem_classification() {
        let n = fixture();
        let view = TestView::new(&n).unwrap();
        let filter = StaticFilter::from_view(&view);
        let g = n.find("g").unwrap();
        let h = n.find("h").unwrap();
        // Stuck at the constant's own value: never activated.
        assert!(filter.stuck_untestable(&Fault::stem(g, StuckValue::Zero)));
        // Stuck at the opposite value on an observed line: testable.
        assert!(!filter.stuck_untestable(&Fault::stem(g, StuckValue::One)));
        assert!(!filter.stuck_untestable(&Fault::stem(h, StuckValue::Zero)));
        // A constant site cannot launch a transition.
        for kind in [TransitionKind::SlowToRise, TransitionKind::SlowToFall] {
            assert!(filter.transition_untestable(&TransitionFault { site: g, kind }));
            assert!(!filter.transition_untestable(&TransitionFault { site: h, kind }));
        }
    }

    #[test]
    fn pruned_coverage_matches_unpruned_on_the_fixture() {
        let n = fixture();
        let view = TestView::new(&n).unwrap();
        let filter = StaticFilter::from_view(&view);
        let faults = enumerate_stuck_faults(&n);
        let patterns: Vec<Vec<bool>> = (0..4)
            .map(|p| {
                (0..view.assignable().len())
                    .map(|i| (p >> i) & 1 == 1)
                    .collect()
            })
            .collect();
        let full = stuck_coverage(&view, &faults, &patterns);
        // Simulate only the kept faults; the pruned ones read undetected.
        let outcome = filter.prune_stuck(&faults);
        let mut pruned = vec![false; faults.len()];
        for (&i, d) in
            outcome
                .kept_index
                .iter()
                .zip(stuck_coverage(&view, &outcome.kept, &patterns))
        {
            pruned[i] = d;
        }
        assert_eq!(full, pruned);
        // Soundness on the fixture: nothing pruned is ever detected.
        for (f, &d) in faults.iter().zip(&full) {
            if filter.stuck_untestable(f) {
                assert!(!d, "statically untestable fault detected: {f:?}");
            }
        }
    }

    #[test]
    fn prune_outcome_indices_point_back_into_the_input() {
        let n = fixture();
        let view = TestView::new(&n).unwrap();
        let filter = StaticFilter::from_view(&view);
        let faults = enumerate_transition_faults(&n);
        let outcome = filter.prune_transition(&faults);
        assert_eq!(outcome.kept.len() + outcome.pruned, faults.len());
        for (f, &i) in outcome.kept.iter().zip(&outcome.kept_index) {
            assert_eq!(*f, faults[i]);
        }
    }
}
