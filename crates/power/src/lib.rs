//! Power estimation: activity-based dynamic power, clock power and
//! subthreshold leakage, in the paper's NanoSim-style methodology
//! (simulate random vectors, count node toggles, multiply by node
//! capacitance).
//!
//! The three DFT styles differ exactly as the paper argues:
//!
//! * **enhanced scan / MUX-based** — the holding cells are in the netlist
//!   and toggle with the flip-flop outputs (which switch at nearly every
//!   cycle under random vectors), so they burn dynamic power
//!   proportionally to their sizable internal capacitance;
//! * **FLH** — the gating transistors do not switch in normal mode; the
//!   only overheads are the keeper's INV1/transmission-gate capacitance on
//!   the first-level-gate outputs and the keeper leakage, *minus* the
//!   stack-effect leakage reduction of the gated gates — which is how a
//!   large circuit can come out below the unmodified baseline (the
//!   paper's s13207 observation).

use std::sync::Arc;

use flh_exec::ThreadPool;
use flh_netlist::{CellId, CellKind, CompiledCircuit, Netlist};
use flh_rng::Rng;
use flh_sim::{Activity, CompiledSim, Logic};
use flh_tech::{CellLibrary, FlhPhysical};

/// Environment knobs for power estimation.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerConfig {
    /// Multiplier on zero-delay toggle counts to account for glitching
    /// (applied uniformly; it cancels in style-vs-style comparisons).
    pub glitch_factor: f64,
    /// Wire capacitance per fanout pin (fF), kept consistent with
    /// `flh_timing::TimingConfig`.
    pub wire_cap_per_fanout_ff: f64,
    /// Primary-output pad load (fF).
    pub po_load_ff: f64,
}

impl PowerConfig {
    /// Defaults used across the reproduction.
    pub fn paper_default() -> Self {
        PowerConfig {
            glitch_factor: 1.15,
            wire_cap_per_fanout_ff: 0.25,
            po_load_ff: 5.0,
        }
    }
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig::paper_default()
    }
}

/// Which operating regime the estimate models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatingMode {
    /// Functional operation at the functional clock.
    Normal,
    /// Scan shifting at the scan clock with the combinational block
    /// possibly asleep (FLH) or blocked (holding cells).
    ScanShift,
}

/// FLH annotation for power estimation.
#[derive(Clone, Debug)]
pub struct FlhPowerAnnotation<'a> {
    /// Supply-gated first-level gates.
    pub gated: &'a [CellId],
    /// Derived gating/keeper costs.
    pub physical: &'a FlhPhysical,
}

/// Estimated power, decomposed.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerBreakdown {
    /// Data-activity dynamic power (µW).
    pub dynamic_uw: f64,
    /// Clock-tree / sequential-internal power (µW).
    pub clock_uw: f64,
    /// Static leakage power (µW).
    pub leakage_uw: f64,
}

impl PowerBreakdown {
    /// Total power (µW).
    pub fn total_uw(&self) -> f64 {
        self.dynamic_uw + self.clock_uw + self.leakage_uw
    }
}

/// Estimates power from recorded activity.
///
/// `activity` must have been collected on the same netlist (same cell ids).
///
/// # Panics
///
/// Panics if the netlist contains unmapped generic gates or is
/// combinationally cyclic (an activity trace implies it simulated, and
/// simulation already requires acyclicity).
pub fn estimate(
    netlist: &Netlist,
    library: &CellLibrary,
    activity: &flh_sim::Activity,
    config: &PowerConfig,
    flh: Option<&FlhPowerAnnotation<'_>>,
    mode: OperatingMode,
) -> PowerBreakdown {
    let compiled = CompiledCircuit::compile(netlist).expect("activity implies acyclic netlist");
    estimate_compiled(&compiled, library, activity, config, flh, mode)
}

/// [`estimate`] over an already-compiled circuit: the capacitance assembly
/// walks the dense id space and CSR reader lists directly, so repeated
/// estimates (mode sweeps, style comparisons) share one compile.
///
/// # Panics
///
/// Panics if the circuit contains unmapped generic gates.
pub fn estimate_compiled(
    compiled: &CompiledCircuit,
    library: &CellLibrary,
    activity: &flh_sim::Activity,
    config: &PowerConfig,
    flh: Option<&FlhPowerAnnotation<'_>>,
    mode: OperatingMode,
) -> PowerBreakdown {
    let tech = library.technology();
    let vdd2 = tech.vdd * tech.vdd;
    let freq_ghz = match mode {
        OperatingMode::Normal => tech.clock_freq_ghz,
        OperatingMode::ScanShift => tech.scan_freq_ghz,
    };

    let mut gated = vec![false; compiled.cell_count()];
    if let Some(ann) = flh {
        for &c in ann.gated {
            gated[c.index()] = true;
        }
    }

    let mut dynamic_uw = 0.0;
    let mut clock_uw = 0.0;
    let mut leakage_uw = 0.0;

    for id in 0..compiled.cell_count() as u32 {
        let kind = compiled.kind(id);
        if kind == CellKind::Output {
            continue;
        }
        let phys = library.physical(kind);

        // Capacitance switched per output toggle: own diffusion + hidden
        // internal nodes + readers' input caps + wire.
        let mut c_node = phys.output_cap_ff + phys.internal_sw_cap_ff;
        for &r in compiled.readers(id) {
            let rk = compiled.kind(r);
            c_node += if rk == CellKind::Output {
                config.po_load_ff
            } else {
                library.physical(rk).input_cap_ff
            };
            c_node += config.wire_cap_per_fanout_ff;
        }

        let mut leak_na = phys.leakage_na;
        if gated[id as usize] {
            let ann = flh.expect("gated implies annotation");
            // Keeper INV1 gate + TG diffusion ride on the node, and the
            // keeper's internal node toggles along with it.
            c_node += ann.physical.keeper_load_ff + ann.physical.keeper_toggle_cap_ff;
            let factor = match mode {
                OperatingMode::Normal => ann.physical.stack_leak_factor,
                OperatingMode::ScanShift => ann.physical.sleep_leak_factor,
            };
            leak_na = leak_na * factor + ann.physical.keeper_leakage_na;
        }

        let alpha = activity.activity_factor(CellId::from_index(id as usize));
        dynamic_uw += 0.5 * alpha * c_node * vdd2 * freq_ghz * config.glitch_factor;
        clock_uw += phys.clock_cap_ff * vdd2 * freq_ghz;
        leakage_uw += leak_na * tech.vdd * 1e-3;
    }

    PowerBreakdown {
        dynamic_uw,
        clock_uw,
        leakage_uw,
    }
}

/// The paper's measurement: apply `vectors` random primary-input vectors in
/// normal mode (holding released), collect toggle activity, and estimate
/// power. Deterministic in `seed`.
///
/// Flip-flops are initialized to random known values so activity is not
/// suppressed by `X` propagation.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn random_vector_power(
    netlist: &Netlist,
    library: &CellLibrary,
    config: &PowerConfig,
    flh: Option<&FlhPowerAnnotation<'_>>,
    vectors: usize,
    seed: u64,
) -> flh_netlist::Result<PowerBreakdown> {
    // Single shard on the serial pool: exactly the legacy collector — one
    // RNG, one FF init, one warmup, `vectors` applications.
    random_vector_power_pooled(
        netlist,
        library,
        config,
        flh,
        vectors,
        seed,
        vectors.max(1),
        &ThreadPool::serial(),
    )
}

/// Pooled [`random_vector_power`]: the vector budget is cut into fixed
/// `shard_vectors`-sized shards fanned over the pool (see
/// [`random_activity_sharded`]). For a fixed `shard_vectors` the result is
/// bit-identical at any pool size; with `shard_vectors >= vectors` it
/// degenerates to the legacy serial collector.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
#[allow(clippy::too_many_arguments)]
pub fn random_vector_power_pooled(
    netlist: &Netlist,
    library: &CellLibrary,
    config: &PowerConfig,
    flh: Option<&FlhPowerAnnotation<'_>>,
    vectors: usize,
    seed: u64,
    shard_vectors: usize,
    pool: &ThreadPool,
) -> flh_netlist::Result<PowerBreakdown> {
    let compiled = CompiledCircuit::compile_shared(netlist)?;
    let gated = flh.map(|ann| ann.gated);
    let activity = random_activity_sharded(&compiled, gated, vectors, seed, shard_vectors, pool);
    Ok(estimate_compiled(
        &compiled,
        library,
        &activity,
        config,
        flh,
        OperatingMode::Normal,
    ))
}

/// Seed of activity shard `k`. Shard 0 inherits the campaign seed
/// unchanged — a single-shard run consumes the RNG exactly like the legacy
/// serial collector — and later shards decorrelate through a
/// splitmix-style mix of `(seed, k)`.
pub fn shard_seed(seed: u64, shard: u64) -> u64 {
    if shard == 0 {
        return seed;
    }
    let mut z = seed ^ shard.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One shard of random-vector activity: its own RNG, its own random FF
/// init and warmup vector, then `vectors` applications — an independent
/// miniature of the legacy collector, so shards compose by summation.
fn collect_activity_shard(
    compiled: &CompiledCircuit,
    gated: Option<&[CellId]>,
    vectors: usize,
    seed: u64,
) -> Activity {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sim = CompiledSim::new(compiled);
    if let Some(cells) = gated {
        sim.set_gated_cells(cells);
    }
    for i in 0..compiled.flip_flops().len() {
        sim.set_ff_by_index(i, Logic::from_bool(rng.gen()));
    }
    let inputs = compiled.inputs().len();
    let warmup: Vec<Logic> = (0..inputs).map(|_| Logic::from_bool(rng.gen())).collect();
    sim.set_inputs(&warmup);
    sim.settle();
    sim.reset_activity();
    for _ in 0..vectors {
        let v: Vec<Logic> = (0..inputs).map(|_| Logic::from_bool(rng.gen())).collect();
        sim.apply_vector(&v);
    }
    sim.activity().clone()
}

/// Sharded random-vector activity collection: `vectors` is cut into
/// `shard_vectors`-sized shards (the last one smaller), shard `k` runs as
/// an independent collector seeded [`shard_seed`]`(seed, k)`, and the
/// toggle counts are summed **in shard-index order** over
/// [`ThreadPool::run`] on `pool`. The shard structure depends only on
/// `(vectors, shard_vectors)` — never on the pool — so toggle counts are
/// bit-identical at any pool size (integer sums, no float order effects).
pub fn random_activity_sharded(
    compiled: &Arc<CompiledCircuit>,
    gated: Option<&[CellId]>,
    vectors: usize,
    seed: u64,
    shard_vectors: usize,
    pool: &ThreadPool,
) -> Activity {
    let shard_vectors = shard_vectors.max(1);
    let shards = vectors.div_ceil(shard_vectors).max(1);
    let parts = pool.run(shards, |k| {
        let lo = k * shard_vectors;
        let hi = ((k + 1) * shard_vectors).min(vectors);
        collect_activity_shard(compiled, gated, hi - lo, shard_seed(seed, k as u64))
    });
    let mut iter = parts.into_iter();
    let mut total = iter.next().expect("at least one shard");
    for part in iter {
        total.merge(&part);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_sim::LogicSim;
    use flh_tech::{FlhConfig, Technology};

    fn lib() -> CellLibrary {
        CellLibrary::new(Technology::bptm70())
    }

    /// Toggle flip-flop driving a small cone.
    fn toggler() -> Netlist {
        let mut n = Netlist::new("tgl");
        let en = n.add_input("en");
        let ff = n.add_cell("ff", CellKind::Dff, vec![en]);
        let d = n.add_cell("d", CellKind::Xor2, vec![ff, en]);
        n.set_fanin_pin(ff, 0, d);
        let g1 = n.add_cell("g1", CellKind::Inv, vec![ff]);
        let g2 = n.add_cell("g2", CellKind::Nand2, vec![g1, en]);
        n.add_output("y", g2);
        n
    }

    #[test]
    fn power_components_are_positive_and_plausible() {
        let n = toggler();
        let lib = lib();
        let p = random_vector_power(&n, &lib, &PowerConfig::paper_default(), None, 100, 7).unwrap();
        assert!(p.dynamic_uw > 0.0, "dynamic {p:?}");
        assert!(p.clock_uw > 0.0);
        assert!(p.leakage_uw > 0.0);
        // A five-cell circuit at 500 MHz: single-digit µW at most.
        assert!(p.total_uw() < 10.0, "total {} µW", p.total_uw());
    }

    #[test]
    fn random_vector_power_is_deterministic() {
        let n = toggler();
        let lib = lib();
        let cfg = PowerConfig::paper_default();
        let a = random_vector_power(&n, &lib, &cfg, None, 50, 42).unwrap();
        let b = random_vector_power(&n, &lib, &cfg, None, 50, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_activity_is_pool_size_invariant() {
        let n = toggler();
        let compiled = CompiledCircuit::compile_shared(&n).unwrap();
        let serial = random_activity_sharded(&compiled, None, 100, 9, 16, &ThreadPool::serial());
        for workers in [2, 4, 8] {
            let pooled =
                random_activity_sharded(&compiled, None, 100, 9, 16, &ThreadPool::new(workers));
            assert_eq!(pooled, serial, "workers = {workers}");
        }
    }

    #[test]
    fn single_shard_matches_legacy_collector() {
        // random_vector_power is the single-shard serial case; the pooled
        // entry with shard_vectors >= vectors must agree bit for bit.
        let n = toggler();
        let lib = lib();
        let cfg = PowerConfig::paper_default();
        let legacy = random_vector_power(&n, &lib, &cfg, None, 80, 21).unwrap();
        let pooled =
            random_vector_power_pooled(&n, &lib, &cfg, None, 80, 21, 1000, &ThreadPool::new(4))
                .unwrap();
        assert_eq!(legacy, pooled);
        assert_eq!(shard_seed(21, 0), 21);
        assert_ne!(shard_seed(21, 1), shard_seed(21, 2));
    }

    #[test]
    fn more_activity_means_more_dynamic_power() {
        // en=1 keeps the toggle FF toggling; a dead input would stop it.
        // Compare against a circuit where the XOR is replaced by a buffer
        // (stable state).
        let n = toggler();
        let lib = lib();
        let cfg = PowerConfig::paper_default();
        let live = random_vector_power(&n, &lib, &cfg, None, 100, 3).unwrap();

        let mut quiet = Netlist::new("quiet");
        let en = quiet.add_input("en");
        let ff = quiet.add_cell("ff", CellKind::Dff, vec![en]);
        let d = quiet.add_cell("d", CellKind::Buf, vec![ff]); // holds state
        quiet.set_fanin_pin(ff, 0, d);
        let g1 = quiet.add_cell("g1", CellKind::Inv, vec![ff]);
        let g2 = quiet.add_cell("g2", CellKind::Nand2, vec![g1, en]);
        quiet.add_output("y", g2);
        let still = random_vector_power(&quiet, &lib, &cfg, None, 100, 3).unwrap();
        assert!(live.dynamic_uw > still.dynamic_uw);
    }

    #[test]
    fn hold_latch_cells_add_dynamic_power() {
        // Same function, with a hold latch on the FF output: the latch
        // toggles with the FF and burns extra power.
        let lib = lib();
        let cfg = PowerConfig::paper_default();
        let base = toggler();

        let mut held = Netlist::new("tgl_es");
        let en = held.add_input("en");
        let ff = held.add_cell("ff", CellKind::Dff, vec![en]);
        let hl = held.add_cell("hl", CellKind::HoldLatch, vec![ff]);
        let d = held.add_cell("d", CellKind::Xor2, vec![hl, en]);
        held.set_fanin_pin(ff, 0, d);
        let g1 = held.add_cell("g1", CellKind::Inv, vec![hl]);
        let g2 = held.add_cell("g2", CellKind::Nand2, vec![g1, en]);
        held.add_output("y", g2);

        let p_base = random_vector_power(&base, &lib, &cfg, None, 100, 9).unwrap();
        let p_held = random_vector_power(&held, &lib, &cfg, None, 100, 9).unwrap();
        assert!(
            p_held.total_uw() > p_base.total_uw() * 1.05,
            "latch overhead too small: {} vs {}",
            p_held.total_uw(),
            p_base.total_uw()
        );
    }

    #[test]
    fn flh_overhead_is_small_and_leakage_can_drop() {
        let tech = Technology::bptm70();
        let lib = CellLibrary::new(tech.clone());
        let cfg = PowerConfig::paper_default();
        let n = toggler();
        let g1 = n.find("g1").unwrap();
        let phys = FlhPhysical::derive(&tech, &FlhConfig::paper_default());
        let ann = FlhPowerAnnotation {
            gated: &[g1],
            physical: &phys,
        };
        let p_base = random_vector_power(&n, &lib, &cfg, None, 100, 11).unwrap();
        let p_flh = random_vector_power(&n, &lib, &cfg, Some(&ann), 100, 11).unwrap();
        let overhead = p_flh.total_uw() - p_base.total_uw();
        // This 5-cell circuit is pathological (the gated gate's output
        // toggles every cycle), so the keeper overhead is proportionally at
        // its worst; it must still stay small. Realistic circuit-level
        // percentages are checked by the Table III bench.
        assert!(
            overhead.abs() < 0.12 * p_base.total_uw(),
            "FLH overhead {overhead} µW on {} µW",
            p_base.total_uw()
        );
    }

    #[test]
    fn scan_shift_mode_uses_scan_clock_and_sleep_leakage() {
        let tech = Technology::bptm70();
        let lib = CellLibrary::new(tech.clone());
        let cfg = PowerConfig::paper_default();
        let n = toggler();
        let g1 = n.find("g1").unwrap();
        let phys = FlhPhysical::derive(&tech, &FlhConfig::paper_default());
        let ann = FlhPowerAnnotation {
            gated: &[g1],
            physical: &phys,
        };
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_gated_cells(&[g1]);
        // No activity: pure static comparison.
        let p_normal = estimate(
            &n,
            &lib,
            sim.activity(),
            &cfg,
            Some(&ann),
            OperatingMode::Normal,
        );
        let p_sleep = estimate(
            &n,
            &lib,
            sim.activity(),
            &cfg,
            Some(&ann),
            OperatingMode::ScanShift,
        );
        assert!(
            p_sleep.leakage_uw < p_normal.leakage_uw,
            "sleep leakage {} !< normal {}",
            p_sleep.leakage_uw,
            p_normal.leakage_uw
        );
    }

    #[test]
    fn glitch_factor_scales_dynamic_only() {
        let n = toggler();
        let lib = lib();
        let mut cfg = PowerConfig::paper_default();
        let a = random_vector_power(&n, &lib, &cfg, None, 50, 5).unwrap();
        cfg.glitch_factor *= 2.0;
        let b = random_vector_power(&n, &lib, &cfg, None, 50, 5).unwrap();
        assert!((b.dynamic_uw - 2.0 * a.dynamic_uw).abs() < 1e-9);
        assert!((b.clock_uw - a.clock_uw).abs() < 1e-12);
        assert!((b.leakage_uw - a.leakage_uw).abs() < 1e-12);
    }
    #[test]
    fn flh_area_of_dynamic_includes_keeper_caps_exactly() {
        // Same activity, with vs without the FLH annotation: the dynamic
        // delta must equal the keeper capacitance times the gated cells'
        // switching, analytically.
        let tech = Technology::bptm70();
        let lib = CellLibrary::new(tech.clone());
        let cfg = PowerConfig::paper_default();
        let n = toggler();
        let g1 = n.find("g1").unwrap();
        let phys = FlhPhysical::derive(&tech, &FlhConfig::paper_default());
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_ff_by_index(0, Logic::Zero);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        sim.reset_activity();
        for _ in 0..20 {
            sim.clock_capture();
        }
        let act = sim.activity().clone();
        let ann = FlhPowerAnnotation {
            gated: &[g1],
            physical: &phys,
        };
        let base = estimate(&n, &lib, &act, &cfg, None, OperatingMode::Normal);
        let flh = estimate(&n, &lib, &act, &cfg, Some(&ann), OperatingMode::Normal);
        let alpha = act.activity_factor(g1);
        let expect_dyn = 0.5
            * alpha
            * (phys.keeper_load_ff + phys.keeper_toggle_cap_ff)
            * tech.vdd
            * tech.vdd
            * tech.clock_freq_ghz
            * cfg.glitch_factor;
        let got = flh.dynamic_uw - base.dynamic_uw;
        assert!(
            (got - expect_dyn).abs() < 1e-9,
            "keeper dynamic {got} vs analytic {expect_dyn}"
        );
    }

    #[test]
    fn hold_mux_burns_less_than_hold_latch() {
        let lib = lib();
        let cfg = PowerConfig::paper_default();
        let build = |kind: CellKind| -> Netlist {
            let mut n = Netlist::new("h");
            let en = n.add_input("en");
            let ff = n.add_cell("ff", CellKind::Dff, vec![en]);
            let h = n.add_cell("h", kind, vec![ff]);
            let d = n.add_cell("d", CellKind::Xor2, vec![h, en]);
            n.set_fanin_pin(ff, 0, d);
            n.add_output("y", d);
            n
        };
        let latch = build(CellKind::HoldLatch);
        let mux = build(CellKind::HoldMux);
        let p_latch = random_vector_power(&latch, &lib, &cfg, None, 100, 2).unwrap();
        let p_mux = random_vector_power(&mux, &lib, &cfg, None, 100, 2).unwrap();
        assert!(p_mux.total_uw() < p_latch.total_uw());
    }

    #[test]
    fn scan_shift_mode_runs_at_the_scan_clock() {
        // Same activity, both modes: dynamic power scales by the clock
        // ratio exactly.
        let n = toggler();
        let lib = lib();
        let cfg = PowerConfig::paper_default();
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_ff_by_index(0, Logic::Zero);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        sim.reset_activity();
        for _ in 0..10 {
            sim.clock_capture();
        }
        let normal = estimate(&n, &lib, sim.activity(), &cfg, None, OperatingMode::Normal);
        let shift = estimate(
            &n,
            &lib,
            sim.activity(),
            &cfg,
            None,
            OperatingMode::ScanShift,
        );
        let tech = lib.technology();
        let ratio = tech.scan_freq_ghz / tech.clock_freq_ghz;
        assert!((shift.dynamic_uw - normal.dynamic_uw * ratio).abs() < 1e-9);
        assert!((shift.leakage_uw - normal.leakage_uw).abs() < 1e-12);
    }
}
