//! The Table I/II/III evaluation methodology: per-style area, delay and
//! normal-mode power, relative to the plain full-scan baseline.

use flh_netlist::Netlist;
use flh_power::{random_vector_power, FlhPowerAnnotation, PowerConfig};
use flh_tech::{CellLibrary, FlhConfig, FlhPhysical, Technology};
use flh_timing::{analyze, FlhAnnotation, TimingConfig};

use crate::styles::{apply_style, DftNetlist, DftStyle};

/// Shared evaluation environment.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Device/cell technology.
    pub technology: Technology,
    /// FLH gating/keeper sizing.
    pub flh: FlhConfig,
    /// STA environment.
    pub timing: TimingConfig,
    /// Power environment.
    pub power: PowerConfig,
    /// Number of random vectors for power measurement (the paper uses 100).
    pub vectors: usize,
    /// RNG seed for the vector stream (shared across styles so the
    /// comparison sees identical stimuli).
    pub seed: u64,
}

impl EvalConfig {
    /// The paper's setup: 70 nm models, default sizing, 100 random vectors.
    pub fn paper_default() -> Self {
        EvalConfig {
            technology: Technology::bptm70(),
            flh: FlhConfig::paper_default(),
            timing: TimingConfig::paper_default(),
            power: PowerConfig::paper_default(),
            vectors: 100,
            seed: 0x5eed,
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::paper_default()
    }
}

/// Absolute and relative metrics of one style on one circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct StyleEvaluation {
    /// The evaluated style.
    pub style: DftStyle,
    /// Baseline (plain scan) active area (µm²).
    pub base_area_um2: f64,
    /// Style active area including FLH gating/keeper hardware (µm²).
    pub area_um2: f64,
    /// Baseline critical-path delay (ps).
    pub base_delay_ps: f64,
    /// Style critical-path delay (ps).
    pub delay_ps: f64,
    /// Baseline normal-mode power (µW).
    pub base_power_uw: f64,
    /// Style normal-mode power (µW).
    pub power_uw: f64,
    /// Number of supply-gated first-level gates (FLH) or zero.
    pub first_level_gates: usize,
    /// Number of inserted holding cells (enhanced scan / MUX) or zero.
    pub hold_cells: usize,
}

impl StyleEvaluation {
    /// Percentage area increase over the plain-scan baseline (Table I).
    pub fn area_increase_pct(&self) -> f64 {
        100.0 * (self.area_um2 - self.base_area_um2) / self.base_area_um2
    }

    /// Percentage delay increase over the baseline (Table II).
    pub fn delay_increase_pct(&self) -> f64 {
        100.0 * (self.delay_ps - self.base_delay_ps) / self.base_delay_ps
    }

    /// Percentage power increase over the baseline (Table III).
    pub fn power_increase_pct(&self) -> f64 {
        100.0 * (self.power_uw - self.base_power_uw) / self.base_power_uw
    }
}

/// Percentage improvement of overhead `a` relative to overhead `b`
/// (the paper's "% improvement over" columns): `100·(1 − a/b)`.
pub fn overhead_improvement_pct(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        100.0 * (1.0 - a / b)
    }
}

/// Area, critical-path delay and normal-mode power of one DFT netlist. The
/// plain full-scan one is the baseline: measured once per circuit
/// ([`measure_baseline`]) and shared by every style evaluated against it
/// ([`evaluate_against`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Active area (µm²).
    pub area_um2: f64,
    /// Critical-path delay (ps).
    pub delay_ps: f64,
    /// Normal-mode power (µW).
    pub power_uw: f64,
}

/// Measures the plain-scan baseline of `netlist`.
///
/// # Errors
///
/// Propagates structural/levelization failures.
pub fn measure_baseline(
    netlist: &Netlist,
    config: &EvalConfig,
) -> flh_netlist::Result<Measurement> {
    measure(&apply_style(netlist, DftStyle::PlainScan)?, config)
}

/// Evaluates one style against the plain-scan baseline of the same circuit.
///
/// # Errors
///
/// Propagates structural/levelization failures.
pub fn evaluate_style(
    netlist: &Netlist,
    style: DftStyle,
    config: &EvalConfig,
) -> flh_netlist::Result<StyleEvaluation> {
    let baseline = measure_baseline(netlist, config)?;
    evaluate_against(&baseline, &apply_style(netlist, style)?, config)
}

/// Evaluates all four styles, computing the baseline once: plain scan,
/// enhanced scan, MUX hold and FLH, in that order.
///
/// # Errors
///
/// Propagates structural/levelization failures; the first failing style
/// in that order ends the evaluation.
pub fn evaluate_all(
    netlist: &Netlist,
    config: &EvalConfig,
) -> flh_netlist::Result<Vec<StyleEvaluation>> {
    let baseline = measure_baseline(netlist, config)?;
    [
        DftStyle::PlainScan,
        DftStyle::EnhancedScan,
        DftStyle::MuxHold,
        DftStyle::Flh,
    ]
    .into_iter()
    .map(|style| {
        let styled = apply_style(netlist, style)?;
        match style {
            DftStyle::PlainScan => Ok(baseline_row(&baseline, &styled)),
            _ => evaluate_against(&baseline, &styled, config),
        }
    })
    .collect()
}

/// The plain-scan row of an evaluation: `plain`, the plain-scan netlist
/// `baseline` was measured on, against its own measurement. Measuring is
/// deterministic, so this equals [`evaluate_against`] on `plain` without a
/// second timing analysis and power simulation of the same netlist.
pub fn baseline_row(baseline: &Measurement, plain: &DftNetlist) -> StyleEvaluation {
    row(baseline, baseline, plain)
}

/// Evaluates a pre-built DFT netlist against a measured baseline. This is
/// the entry point the Section V fanout optimizer uses after modifying the
/// FLH netlist.
///
/// # Errors
///
/// Propagates structural/levelization failures.
pub fn evaluate_against(
    baseline: &Measurement,
    styled: &DftNetlist,
    config: &EvalConfig,
) -> flh_netlist::Result<StyleEvaluation> {
    Ok(row(baseline, &measure(styled, config)?, styled))
}

/// `styled`, measured as `measured`, against `baseline`.
fn row(baseline: &Measurement, measured: &Measurement, styled: &DftNetlist) -> StyleEvaluation {
    StyleEvaluation {
        style: styled.style,
        base_area_um2: baseline.area_um2,
        area_um2: measured.area_um2,
        base_delay_ps: baseline.delay_ps,
        delay_ps: measured.delay_ps,
        base_power_uw: baseline.power_uw,
        power_uw: measured.power_uw,
        first_level_gates: styled.gated.len(),
        hold_cells: styled.hold_cells.len(),
    }
}

/// Area, delay and power of one DFT netlist, FLH gating and keeper
/// hardware included.
fn measure(dft: &DftNetlist, config: &EvalConfig) -> flh_netlist::Result<Measurement> {
    let library = CellLibrary::new(config.technology.clone());
    let flh_phys = FlhPhysical::derive(&config.technology, &config.flh);
    let is_flh = dft.style == DftStyle::Flh;
    let mut area_um2 = library.netlist_area_um2(&dft.netlist);
    if is_flh {
        area_um2 += dft.gated.len() as f64 * flh_phys.extra_area_um2;
    }
    let timing_ann = if is_flh {
        Some(FlhAnnotation::new(&dft.gated, &flh_phys))
    } else {
        None
    };
    let delay_ps = analyze(&dft.netlist, &library, &config.timing, timing_ann)?.critical_delay_ps();
    let power_ann = if is_flh {
        Some(FlhPowerAnnotation {
            gated: &dft.gated,
            physical: &flh_phys,
        })
    } else {
        None
    };
    let power_uw = random_vector_power(
        &dft.netlist,
        &library,
        &config.power,
        power_ann.as_ref(),
        config.vectors,
        config.seed,
    )?
    .total_uw();
    Ok(Measurement {
        area_um2,
        delay_ps,
        power_uw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_netlist::{generate_circuit, GeneratorConfig};

    fn test_circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "eval".into(),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 12,
            gates: 120,
            logic_depth: 10,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 99,
        })
        .unwrap()
    }

    fn quick_config() -> EvalConfig {
        EvalConfig {
            vectors: 40,
            ..EvalConfig::paper_default()
        }
    }

    /// `evaluate_all` reuses the baseline measurement for its plain-scan
    /// row; the row is the one a second measurement gives.
    #[test]
    fn evaluate_all_plain_row_equals_evaluate_style() {
        let n = test_circuit();
        let all = evaluate_all(&n, &quick_config()).unwrap();
        let plain = evaluate_style(&n, DftStyle::PlainScan, &quick_config()).unwrap();
        assert_eq!(all[0], plain);
        assert_eq!(all[0].style, DftStyle::PlainScan);
    }

    #[test]
    fn baseline_style_has_zero_overheads() {
        let n = test_circuit();
        let e = evaluate_style(&n, DftStyle::PlainScan, &quick_config()).unwrap();
        assert!(e.area_increase_pct().abs() < 1e-9);
        assert!(e.delay_increase_pct().abs() < 1e-9);
        assert!(e.power_increase_pct().abs() < 1e-9);
    }

    #[test]
    fn table_ordering_area() {
        // Paper Table I: enhanced scan largest, then MUX, FLH smallest (for
        // typical fanout ratios).
        let n = test_circuit();
        let cfg = quick_config();
        let evals = evaluate_all(&n, &cfg).unwrap();
        let get = |s: DftStyle| {
            evals
                .iter()
                .find(|e| e.style == s)
                .unwrap()
                .area_increase_pct()
        };
        let es = get(DftStyle::EnhancedScan);
        let mx = get(DftStyle::MuxHold);
        let flh = get(DftStyle::Flh);
        assert!(es > mx, "enhanced {es} !> mux {mx}");
        assert!(mx > flh, "mux {mx} !> flh {flh}");
        assert!(flh > 0.0);
    }

    #[test]
    fn table_ordering_delay() {
        // Paper Table II: MUX worst, enhanced scan next, FLH least.
        let n = test_circuit();
        let cfg = quick_config();
        let evals = evaluate_all(&n, &cfg).unwrap();
        let get = |s: DftStyle| {
            evals
                .iter()
                .find(|e| e.style == s)
                .unwrap()
                .delay_increase_pct()
        };
        let es = get(DftStyle::EnhancedScan);
        let mx = get(DftStyle::MuxHold);
        let flh = get(DftStyle::Flh);
        assert!(mx > es, "mux {mx} !> enhanced {es}");
        assert!(es > flh, "enhanced {es} !> flh {flh}");
        assert!(flh >= 0.0);
    }

    #[test]
    fn table_ordering_power() {
        // Paper Table III: FLH power overhead near zero, far below both.
        let n = test_circuit();
        let cfg = quick_config();
        let evals = evaluate_all(&n, &cfg).unwrap();
        let get = |s: DftStyle| {
            evals
                .iter()
                .find(|e| e.style == s)
                .unwrap()
                .power_increase_pct()
        };
        let es = get(DftStyle::EnhancedScan);
        let mx = get(DftStyle::MuxHold);
        let flh = get(DftStyle::Flh);
        assert!(es > 5.0, "enhanced scan power overhead {es}% too small");
        assert!(mx > 5.0);
        assert!(flh < 0.35 * es, "flh {flh}% not << enhanced {es}%");
    }

    #[test]
    fn improvement_metric() {
        assert!((overhead_improvement_pct(2.0, 8.0) - 75.0).abs() < 1e-9);
        assert_eq!(overhead_improvement_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn flh_counts_first_level_gates() {
        let n = test_circuit();
        let e = evaluate_style(&n, DftStyle::Flh, &quick_config()).unwrap();
        // 12 FFs × 1.8 ≈ 22 unique first-level gates.
        assert_eq!(e.first_level_gates, 22);
        assert_eq!(e.hold_cells, 0);
    }

    #[test]
    fn flh_area_accounting_is_exact() {
        use flh_tech::{CellLibrary, FlhPhysical};
        let n = test_circuit();
        let cfg = quick_config();
        let e = evaluate_style(&n, DftStyle::Flh, &cfg).unwrap();
        let lib = CellLibrary::new(cfg.technology.clone());
        let phys = FlhPhysical::derive(&cfg.technology, &cfg.flh);
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let expect =
            lib.netlist_area_um2(&flh.netlist) + flh.gated.len() as f64 * phys.extra_area_um2;
        assert!((e.area_um2 - expect).abs() < 1e-9);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let n = test_circuit();
        let cfg = quick_config();
        let a = evaluate_style(&n, DftStyle::EnhancedScan, &cfg).unwrap();
        let b = evaluate_style(&n, DftStyle::EnhancedScan, &cfg).unwrap();
        assert_eq!(a.area_um2, b.area_um2);
        assert_eq!(a.delay_ps, b.delay_ps);
        assert_eq!(a.power_uw, b.power_uw);
    }

    #[test]
    fn shared_seed_means_shared_baseline() {
        // All styles in one evaluate_all run report the same baseline.
        let n = test_circuit();
        let evals = evaluate_all(&n, &quick_config()).unwrap();
        for w in evals.windows(2) {
            assert_eq!(w[0].base_area_um2, w[1].base_area_um2);
            assert_eq!(w[0].base_delay_ps, w[1].base_delay_ps);
            assert_eq!(w[0].base_power_uw, w[1].base_power_uw);
        }
    }

    #[test]
    fn hold_cell_counts_match_flip_flops() {
        let n = test_circuit();
        let cfg = quick_config();
        let es = evaluate_style(&n, DftStyle::EnhancedScan, &cfg).unwrap();
        assert_eq!(es.hold_cells, n.flip_flops().len());
        assert_eq!(es.first_level_gates, 0);
        let mx = evaluate_style(&n, DftStyle::MuxHold, &cfg).unwrap();
        assert_eq!(mx.hold_cells, n.flip_flops().len());
    }
}
