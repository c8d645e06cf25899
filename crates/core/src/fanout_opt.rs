//! Section V: local fanout reduction under a delay constraint.
//!
//! FLH's area overhead is proportional to the number of *unique first-level
//! gates*. The paper's "low-complexity local fanout reduction algorithm"
//! shrinks that number by funnelling the fanout of high-fanout scan
//! flip-flops through a polarity-preserving pair of cascaded inverters, so
//! only the (single) first inverter needs gating hardware:
//!
//! * no inverter is inserted into the critical path — readers on the
//!   current critical path keep their direct connection, and any move that
//!   would degrade the critical delay is rolled back;
//! * if the flip-flop already drives an inverter, it is reused as the
//!   first element and only the second inverter is added ("If a scan
//!   flip-flop already has an inverter connected to it, we do not need the
//!   second inverter");
//! * logic function is unchanged (two cascaded inverters are the
//!   identity), which the tests verify by simulation.

// det-ok: `seen` and `crit_set` are membership-only; order comes from `FanoutMap`.
use std::collections::HashSet;

use flh_netlist::{analysis, CellId, CellKind, Netlist};
use flh_tech::{CellLibrary, FlhPhysical};
use flh_timing::{analyze, FlhAnnotation, TimingConfig};

use crate::overhead::EvalConfig;
use crate::styles::{DftNetlist, DftStyle};

/// Controls for the optimizer.
#[derive(Clone, Debug)]
pub struct FanoutOptConfig {
    /// Flip-flops with more unique combinational readers than this are
    /// optimization candidates.
    pub fanout_threshold: usize,
    /// Evaluation environment (technology, sizing, STA settings).
    pub eval: EvalConfig,
}

impl FanoutOptConfig {
    /// Paper-flavoured defaults: target flip-flops with more than two
    /// first-level gates.
    pub fn paper_default() -> Self {
        FanoutOptConfig {
            fanout_threshold: 2,
            eval: EvalConfig::paper_default(),
        }
    }
}

impl Default for FanoutOptConfig {
    fn default() -> Self {
        FanoutOptConfig::paper_default()
    }
}

/// Outcome of the optimization.
#[derive(Clone, Debug)]
pub struct FanoutOptResult {
    /// The rewritten netlist (inverter pairs inserted).
    pub netlist: Netlist,
    /// The new supply-gated first-level gate set.
    pub gated: Vec<CellId>,
    /// Unique first-level gates before optimization.
    pub flg_before: usize,
    /// Unique first-level gates after optimization.
    pub flg_after: usize,
    /// Inverters added.
    pub inverters_added: usize,
    /// Existing inverters reused as the first pair element.
    pub reused_inverters: usize,
    /// Flip-flops actually optimized (after delay-constraint rollbacks).
    pub optimized_ffs: usize,
    /// FLH area overhead before (µm²): gating hardware only.
    pub area_overhead_before_um2: f64,
    /// FLH area overhead after (µm²): gating hardware plus added inverters.
    pub area_overhead_after_um2: f64,
}

impl FanoutOptResult {
    /// Percentage improvement in FLH area overhead (Table IV's "improv").
    pub fn area_improvement_pct(&self) -> f64 {
        if self.area_overhead_before_um2 == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - self.area_overhead_after_um2 / self.area_overhead_before_um2)
        }
    }
}

fn unique_comb_readers(
    netlist: &Netlist,
    fanouts: &analysis::FanoutMap,
    ff: CellId,
) -> Vec<CellId> {
    // det-ok: membership only; `readers` keeps `FanoutMap` order.
    let mut seen = HashSet::new();
    let mut readers = Vec::new();
    for &r in fanouts.readers(ff) {
        if netlist.cell(r).kind().is_combinational() && seen.insert(r) {
            readers.push(r);
        }
    }
    readers
}

fn gated_area(gates: usize, inv_area: f64, invs: usize, flh: &FlhPhysical) -> f64 {
    gates as f64 * flh.extra_area_um2 + invs as f64 * inv_area
}

fn critical_delay(
    netlist: &Netlist,
    library: &CellLibrary,
    timing: &TimingConfig,
    gated: &[CellId],
    flh: &FlhPhysical,
) -> flh_netlist::Result<(f64, Vec<CellId>)> {
    let report = analyze(
        netlist,
        library,
        timing,
        Some(FlhAnnotation::new(gated, flh)),
    )?;
    Ok((report.critical_delay_ps(), report.critical_path()))
}

/// Runs the Section V optimization on an FLH netlist.
///
/// # Errors
///
/// Propagates structural/levelization failures.
///
/// # Panics
///
/// Panics if `flh_netlist.style` is not [`DftStyle::Flh`].
pub fn optimize_fanout(
    flh_netlist: &DftNetlist,
    config: &FanoutOptConfig,
) -> flh_netlist::Result<FanoutOptResult> {
    assert_eq!(
        flh_netlist.style,
        DftStyle::Flh,
        "fanout optimization applies to FLH netlists"
    );
    let library = CellLibrary::new(config.eval.technology.clone());
    let flh_phys = FlhPhysical::derive(&config.eval.technology, &config.eval.flh);
    let inv_area = library.physical(CellKind::Inv).active_area_um2;

    let mut netlist = flh_netlist.netlist.clone();
    let mut gated = flh_netlist.gated.clone();
    let flg_before = gated.len();
    let (delay_budget_ps, mut crit_path) =
        critical_delay(&netlist, &library, &config.eval.timing, &gated, &flh_phys)?;

    // Candidates in decreasing fanout order.
    let fanouts = analysis::FanoutMap::compute(&netlist);
    let mut candidates: Vec<(CellId, usize)> = netlist
        .flip_flops()
        .iter()
        .map(|&ff| (ff, unique_comb_readers(&netlist, &fanouts, ff).len()))
        .filter(|&(_, n)| n > config.fanout_threshold)
        .collect();
    candidates.sort_by_key(|&(_, n)| std::cmp::Reverse(n));

    let mut inverters_added = 0usize;
    let mut reused_inverters = 0usize;
    let mut optimized_ffs = 0usize;

    for (ff, _) in candidates {
        let fanouts = analysis::FanoutMap::compute(&netlist);
        let readers = unique_comb_readers(&netlist, &fanouts, ff);
        // det-ok: membership only; `partition` walks `readers` in order.
        let crit_set: HashSet<CellId> = crit_path.iter().copied().collect();
        let (kept, movable): (Vec<CellId>, Vec<CellId>) =
            readers.iter().partition(|r| crit_set.contains(r));
        // Gain: |readers| gated gates become |kept| + 1 (the first
        // inverter). Require a real reduction.
        if movable.len() < 2 || kept.len() + 2 > readers.len() {
            continue;
        }

        let snapshot = netlist.clone();
        let gated_snapshot = gated.clone();
        let inv_snapshot = (inverters_added, reused_inverters);

        // Reuse an existing single-fanout... any existing inverter reader
        // as the first pair element if one is movable.
        let existing_inv = movable
            .iter()
            .copied()
            .find(|&r| netlist.cell(r).kind() == CellKind::Inv);
        let (inv1, redirect): (CellId, Vec<CellId>) = match existing_inv {
            Some(inv1) => {
                reused_inverters += 1;
                (
                    inv1,
                    movable.iter().copied().filter(|&r| r != inv1).collect(),
                )
            }
            None => {
                let name = netlist.fresh_name("fo_inv1_");
                let inv1 = netlist.add_cell(name, CellKind::Inv, vec![ff]);
                inverters_added += 1;
                (inv1, movable.clone())
            }
        };
        let name = netlist.fresh_name("fo_inv2_");
        let inv2 = netlist.add_cell(name, CellKind::Inv, vec![inv1]);
        inverters_added += 1;
        netlist.redirect_selected_readers(ff, inv2, &redirect);

        // New gated set: recompute first-level gates. A moved reader that
        // also reads *other* flip-flops stays gated, so the global count
        // can fail to shrink — accept only strict improvements.
        let fanouts = analysis::FanoutMap::compute(&netlist);
        let new_gated = analysis::first_level_gates(&netlist, &fanouts);
        let improves = new_gated.len() < gated.len();

        let timing_ok = improves
            && matches!(
                critical_delay(
                    &netlist,
                    &library,
                    &config.eval.timing,
                    &new_gated,
                    &flh_phys,
                ),
                Ok((delay, _)) if delay <= delay_budget_ps * (1.0 + 1e-9)
            );
        if timing_ok {
            let (_, path) = critical_delay(
                &netlist,
                &library,
                &config.eval.timing,
                &new_gated,
                &flh_phys,
            )?;
            gated = new_gated;
            crit_path = path;
            optimized_ffs += 1;
        } else {
            // Constraint violated or no gain: roll back this flip-flop.
            netlist = snapshot;
            gated = gated_snapshot;
            inverters_added = inv_snapshot.0;
            reused_inverters = inv_snapshot.1;
        }
    }

    netlist.validate()?;
    let flg_after = gated.len();
    Ok(FanoutOptResult {
        area_overhead_before_um2: gated_area(flg_before, inv_area, 0, &flh_phys),
        area_overhead_after_um2: gated_area(flg_after, inv_area, inverters_added, &flh_phys),
        netlist,
        gated,
        flg_before,
        flg_after,
        inverters_added,
        reused_inverters,
        optimized_ffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::styles::apply_style;
    use flh_netlist::{generate_circuit, GeneratorConfig};
    use flh_rng::Rng;
    use flh_sim::{Logic, LogicSim};

    fn hot_circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "hot".into(),
            primary_inputs: 6,
            primary_outputs: 4,
            flip_flops: 10,
            gates: 110,
            logic_depth: 9,
            avg_ff_fanout: 3.2,
            unique_flg_ratio: 2.6,
            hot_ff_fanout: Some(8),
            seed: 1234,
        })
        .unwrap()
    }

    #[test]
    fn reduces_first_level_gates() {
        let n = hot_circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let result = optimize_fanout(&flh, &FanoutOptConfig::paper_default()).unwrap();
        assert!(result.optimized_ffs > 0, "nothing optimized");
        assert!(
            result.flg_after < result.flg_before,
            "{} !< {}",
            result.flg_after,
            result.flg_before
        );
        assert!(result.area_improvement_pct() > 0.0);
    }

    #[test]
    fn keeps_critical_delay() {
        let cfg = FanoutOptConfig::paper_default();
        let n = hot_circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let library = CellLibrary::new(cfg.eval.technology.clone());
        let phys = FlhPhysical::derive(&cfg.eval.technology, &cfg.eval.flh);
        let (before, _) =
            critical_delay(&flh.netlist, &library, &cfg.eval.timing, &flh.gated, &phys).unwrap();
        let result = optimize_fanout(&flh, &cfg).unwrap();
        let (after, _) = critical_delay(
            &result.netlist,
            &library,
            &cfg.eval.timing,
            &result.gated,
            &phys,
        )
        .unwrap();
        assert!(
            after <= before * (1.0 + 1e-9),
            "critical delay grew: {before} -> {after}"
        );
    }

    #[test]
    fn preserves_logic_function() {
        let n = hot_circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let result = optimize_fanout(&flh, &FanoutOptConfig::paper_default()).unwrap();
        assert!(result.optimized_ffs > 0);

        let mut rng = Rng::seed_from_u64(5);
        let mut sim_a = LogicSim::new(&flh.netlist).unwrap();
        let mut sim_b = LogicSim::new(&result.netlist).unwrap();
        // Same random initial state + vectors on both.
        for i in 0..flh.netlist.flip_flops().len() {
            let v = Logic::from_bool(rng.gen());
            sim_a.set_ff_by_index(i, v);
            sim_b.set_ff_by_index(i, v);
        }
        for _ in 0..30 {
            let vec: Vec<Logic> = (0..n.inputs().len())
                .map(|_| Logic::from_bool(rng.gen()))
                .collect();
            sim_a.apply_vector(&vec);
            sim_b.apply_vector(&vec);
            assert_eq!(sim_a.outputs(), sim_b.outputs());
            assert_eq!(sim_a.ff_state(), sim_b.ff_state());
        }
    }

    #[test]
    fn gated_set_contains_the_new_inverters() {
        let n = hot_circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let result = optimize_fanout(&flh, &FanoutOptConfig::paper_default()).unwrap();
        // Every gated cell must read at least one flip-flop.
        for &g in &result.gated {
            let reads_ff = result
                .netlist
                .cell(g)
                .fanin()
                .iter()
                .any(|&f| result.netlist.cell(f).kind().is_flip_flop());
            assert!(
                reads_ff,
                "{} is not a first-level gate",
                result.netlist.cell(g).name()
            );
        }
        assert!(result.inverters_added > 0);
    }

    #[test]
    fn threshold_disables_optimization() {
        let n = hot_circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let cfg = FanoutOptConfig {
            fanout_threshold: 1000,
            ..FanoutOptConfig::paper_default()
        };
        let result = optimize_fanout(&flh, &cfg).unwrap();
        assert_eq!(result.optimized_ffs, 0);
        assert_eq!(result.flg_before, result.flg_after);
        assert_eq!(result.inverters_added, 0);
        assert!((result.area_improvement_pct()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "applies to FLH netlists")]
    fn rejects_non_flh_input() {
        let n = hot_circuit();
        let es = apply_style(&n, DftStyle::EnhancedScan).unwrap();
        let _ = optimize_fanout(&es, &FanoutOptConfig::paper_default());
    }
}
