//! The CI lint gate in test form: every generated ISCAS89 profile under
//! every holding style must lint error-free, and the matrix must exercise
//! a healthy share of the diagnostic vocabulary (dead-cone warnings are the
//! expected residue of the calibrated generator).

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use flh_core::DftStyle;
use flh_exec::ThreadPool;
use flh_lint::{lint_profile_grid, reports_to_json, LintCode, Severity};
use flh_netlist::iscas89_profiles;

const HOLDING_STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];

#[test]
fn full_profile_grid_lints_error_free() {
    let profiles = iscas89_profiles();
    assert_eq!(profiles.len(), 11);
    let pool = ThreadPool::from_env();
    let reports = lint_profile_grid(&pool, &profiles, &HOLDING_STYLES);
    assert_eq!(reports.len(), 33);
    for report in &reports {
        assert_eq!(
            report.error_count(),
            0,
            "{} must lint clean:\n{}",
            report.label(),
            report.render_text()
        );
        assert!(
            report.skipped_passes.is_empty(),
            "{}: no pass may be skipped on a generated circuit",
            report.label()
        );
        for d in &report.diagnostics {
            assert_ne!(d.severity, Severity::Error);
        }
    }
    // The only tolerated residue on generated circuits: dead-cone warnings
    // (the calibrated generator leaves unobserved spare logic; the fault
    // tools skip those cones).
    let codes: BTreeSet<LintCode> = reports.iter().flat_map(|r| r.codes()).collect();
    for code in &codes {
        assert_eq!(
            *code,
            LintCode::UnreachableGate,
            "unexpected diagnostic family on clean circuits: {code}"
        );
    }
    // And the machine-readable summary agrees, in canonical form (the
    // render of its own parse), as `flh_lint --json` writes it.
    let json = reports_to_json(&reports);
    assert!(
        json.contains("\"total_errors\":0"),
        "JSON gate must be clean"
    );
    let parsed = flh_obs::parse_json(&json).expect("summary parses");
    assert_eq!(flh_obs::render(&parsed) + "\n", json);
}

#[test]
fn grid_is_deterministic_across_pool_widths() {
    let profiles: Vec<_> = iscas89_profiles().into_iter().take(3).collect();
    let serial = lint_profile_grid(&ThreadPool::new(1), &profiles, &HOLDING_STYLES);
    let wide = lint_profile_grid(&ThreadPool::new(8), &profiles, &HOLDING_STYLES);
    assert_eq!(serial, wide);
    assert_eq!(reports_to_json(&serial), reports_to_json(&wide));
}
