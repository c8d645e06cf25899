//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md` §4 for the experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2_floating_decay` | Fig. 2 — gated stage without keeper: floating-node decay and stage-2 short-circuit current |
//! | `fig4_flh_hold` | Fig. 4 — FLH keeper holds through input toggling |
//! | `table1_area` | Table I — % area increase per style |
//! | `table2_delay` | Table II — % delay increase per style |
//! | `table3_power` | Table III — % normal-mode power increase per style |
//! | `table4_fanout_opt` | Table IV — Section V fanout optimization |
//! | `coverage_invariance` | §IV — fault coverage unchanged by FLH insertion |
//! | `coverage_styles` | §I — broadside / skewed-load / arbitrary coverage comparison |
//! | `testmode_power` | §IV — redundant-switching suppression during scan shifting |

use std::sync::Arc;

use flh_atpg::{ApplicationStyle, CampaignResult};
use flh_core::{evaluate_all, DftStyle, EvalConfig, StyleEvaluation};
use flh_netlist::{CircuitProfile, Netlist};
use flh_serve::{BatchPayload, CircuitSource, CompiledEntry, JobEngine, JobId, JobSpec};

/// The four styles in the canonical [`evaluate_all`] order.
pub const ALL_STYLES: [DftStyle; 4] = [
    DftStyle::PlainScan,
    DftStyle::EnhancedScan,
    DftStyle::MuxHold,
    DftStyle::Flh,
];

/// The [`CircuitSource`] for a benchmark profile — the single place the
/// bench binaries turn a profile into a loadable, cache-keyed source, so
/// every binary computes the same `flh-serve` cache keys.
pub fn circuit_source(profile: &CircuitProfile) -> CircuitSource {
    CircuitSource::profile(profile.clone())
}

/// Generates the benchmark circuit for a profile (through the shared
/// [`CircuitSource`] loader).
///
/// # Panics
///
/// Panics on generator misconfiguration — the shipped profiles are
/// validated by tests.
pub fn build_circuit(profile: &CircuitProfile) -> Netlist {
    circuit_source(profile)
        .load()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fetches (or builds) the cached compiled entry for a profile on the
/// given engine — the netlist plus its compiled form, shared with every
/// job that names the same profile.
///
/// # Panics
///
/// Panics on generator or compile failure.
pub fn cached_circuit(engine: &JobEngine, profile: &CircuitProfile) -> Arc<CompiledEntry> {
    engine
        .compiled(&circuit_source(profile), None)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// Per-circuit evaluation of all four styles.
///
/// # Panics
///
/// Panics if the generated circuit fails structural validation.
pub fn evaluate_profile(profile: &CircuitProfile, config: &EvalConfig) -> Vec<StyleEvaluation> {
    let circuit = build_circuit(profile);
    evaluate_all(&circuit, config).unwrap_or_else(|e| panic!("{}: {e}", profile.name))
}

/// Evaluates every profile on the engine: one `Evaluate` job per profile
/// covering [`ALL_STYLES`], the circuit built once per profile through
/// the engine's compiled-circuit cache. Per-style metrics are
/// deterministic functions of `(netlist, style, config)`, so rows equal
/// [`evaluate_profile`] exactly, at any pool width. Rows follow
/// `profiles` order, columns [`ALL_STYLES`] order.
///
/// # Panics
///
/// Panics if a generated circuit fails structural validation.
pub fn evaluate_profiles_engine(
    profiles: &[CircuitProfile],
    config: &EvalConfig,
    engine: &JobEngine,
) -> Vec<Vec<StyleEvaluation>> {
    profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            let spec =
                JobSpec::evaluate(circuit_source(profile), ALL_STYLES.to_vec(), config.clone());
            let outcome = engine
                .run(JobId(i as u64 + 1), &spec, &mut |_| {})
                .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
            outcome
                .batches
                .into_iter()
                .map(|batch| match batch {
                    BatchPayload::Evaluation(eval) => eval,
                    BatchPayload::Campaign(_) => {
                        panic!("{}: evaluate job produced a campaign batch", profile.name)
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the per-profile random transition campaign grid on the engine:
/// one `Campaign` job per profile over `styles`, sharing compiled
/// circuits with everything else the engine ran. Rows follow `profiles`
/// order, columns `styles` order; results are bit-identical to serial
/// per-cell campaigns at any pool width.
///
/// # Panics
///
/// Panics if a circuit fails to build or is combinationally cyclic.
pub fn campaign_profiles_engine(
    profiles: &[CircuitProfile],
    styles: &[ApplicationStyle],
    pairs: usize,
    seed: u64,
    engine: &JobEngine,
) -> Vec<Vec<CampaignResult>> {
    profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            let spec = JobSpec::campaign(circuit_source(profile))
                .with_styles(styles.to_vec())
                .with_pairs(pairs)
                .with_seed(seed);
            let outcome = engine
                .run(JobId(i as u64 + 1), &spec, &mut |_| {})
                .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
            outcome
                .batches
                .into_iter()
                .map(|batch| match batch {
                    BatchPayload::Campaign(result) => result,
                    BatchPayload::Evaluation(_) => {
                        panic!("{}: campaign job produced an evaluate batch", profile.name)
                    }
                })
                .collect()
        })
        .collect()
}

/// Pulls one style out of an evaluation set.
///
/// # Panics
///
/// Panics if the style was not evaluated.
pub fn style(evals: &[StyleEvaluation], style: DftStyle) -> &StyleEvaluation {
    evals
        .iter()
        .find(|e| e.style == style)
        .expect("style evaluated")
}

/// Prints a horizontal rule sized for the tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_exec::ThreadPool;
    use flh_netlist::iscas89_profile;

    #[test]
    fn helpers_work_end_to_end() {
        let p = iscas89_profile("s298").unwrap();
        let cfg = EvalConfig {
            vectors: 20,
            ..EvalConfig::paper_default()
        };
        let evals = evaluate_profile(&p, &cfg);
        assert_eq!(evals.len(), 4);
        let flh = style(&evals, DftStyle::Flh);
        assert!(flh.first_level_gates > 0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn engine_grid_reuses_cached_circuits_with_equal_results() {
        let profiles = vec![iscas89_profile("s298").unwrap()];
        let cfg = EvalConfig {
            vectors: 20,
            ..EvalConfig::paper_default()
        };
        let engine = JobEngine::new(ThreadPool::new(1), 4);
        let first = evaluate_profiles_engine(&profiles, &cfg, &engine);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let again = evaluate_profiles_engine(&profiles, &cfg, &engine);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.parse_skips), (1, 1, 1));
        for (a, b) in first[0].iter().zip(&again[0]) {
            assert_eq!(a.style, b.style);
            assert_eq!(a.area_um2, b.area_um2);
            assert_eq!(a.delay_ps, b.delay_ps);
            assert_eq!(a.power_uw, b.power_uw);
        }
    }

    #[test]
    fn pooled_profile_grid_matches_per_profile_evaluation() {
        let profiles = vec![
            iscas89_profile("s298").unwrap(),
            iscas89_profile("s344").unwrap(),
        ];
        let cfg = EvalConfig {
            vectors: 20,
            ..EvalConfig::paper_default()
        };
        let expected: Vec<Vec<_>> = profiles.iter().map(|p| evaluate_profile(p, &cfg)).collect();
        for workers in [1, 4] {
            let engine = JobEngine::new(ThreadPool::new(workers), profiles.len());
            let rows = evaluate_profiles_engine(&profiles, &cfg, &engine);
            assert_eq!(rows.len(), expected.len());
            for (row, exp) in rows.iter().zip(&expected) {
                for (r, e) in row.iter().zip(exp) {
                    assert_eq!(r.style, e.style, "workers = {workers}");
                    assert_eq!(r.area_um2, e.area_um2);
                    assert_eq!(r.delay_ps, e.delay_ps);
                    assert_eq!(r.power_uw, e.power_uw);
                    assert_eq!(r.base_power_uw, e.base_power_uw);
                }
            }
        }
    }
}
