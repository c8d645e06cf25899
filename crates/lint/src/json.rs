//! Machine-readable summary for CI, rendered through flh-obs's one JSON
//! implementation.

use std::collections::BTreeSet;

use flh_obs::{render, Json};

use crate::report::LintReport;

fn strings<S: Into<String>>(items: impl IntoIterator<Item = S>) -> Json {
    Json::Array(items.into_iter().map(|s| Json::String(s.into())).collect())
}

/// Renders the whole run as a JSON document:
///
/// ```json
/// {
///   "codes": ["FLH005"],
///   "targets": [
///     {"diagnostics": [{"cells": ["g12"], "code": "FLH005", "hint": "...",
///                       "message": "...", "severity": "warning"}],
///      "errors": 0, "skipped_passes": [], "style": "FLH", "target": "s298",
///      "warnings": 1}
///   ],
///   "total_errors": 0, "total_warnings": 1
/// }
/// ```
///
/// Keys are sorted and the rendering is compact, so CI can diff summaries
/// byte for byte across runs.
pub fn reports_to_json(reports: &[LintReport]) -> String {
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut codes: BTreeSet<&'static str> = BTreeSet::new();
    let mut targets = Vec::with_capacity(reports.len());
    for report in reports {
        total_errors += report.error_count();
        total_warnings += report.warning_count();
        let diagnostics = report
            .diagnostics
            .iter()
            .map(|d| {
                codes.insert(d.code.code());
                Json::object([
                    ("cells", strings(d.cells.iter().cloned())),
                    ("code", Json::String(d.code.to_string())),
                    ("hint", Json::String(d.hint.clone())),
                    ("message", Json::String(d.message.clone())),
                    ("severity", Json::String(d.severity.to_string())),
                ])
            })
            .collect();
        targets.push(Json::object([
            ("diagnostics", Json::Array(diagnostics)),
            ("errors", Json::Number(report.error_count() as f64)),
            (
                "skipped_passes",
                strings(report.skipped_passes.iter().copied()),
            ),
            (
                "style",
                report.style.clone().map_or(Json::Null, Json::String),
            ),
            ("target", Json::String(report.target.clone())),
            ("warnings", Json::Number(report.warning_count() as f64)),
        ]));
    }
    let summary = Json::object([
        ("codes", strings(codes)),
        ("targets", Json::Array(targets)),
        ("total_errors", Json::Number(total_errors as f64)),
        ("total_warnings", Json::Number(total_warnings as f64)),
    ]);
    render(&summary) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Diagnostic, LintCode};

    #[test]
    fn summary_structure_is_stable() {
        let mut r = LintReport::new("s298", Some("FLH".into()));
        r.push(
            Diagnostic::new(LintCode::FlhCoverage, "hole \"here\"")
                .with_cell("g1")
                .with_hint("gate it"),
        );
        r.skipped_passes.push("cycles");
        let json = reports_to_json(&[r]);
        assert!(json.contains("\"target\":\"s298\""));
        assert!(json.contains("\"style\":\"FLH\""));
        assert!(json.contains("\"code\":\"FLH010\""));
        assert!(json.contains("\"cells\":[\"g1\"]"));
        assert!(json.contains("hole \\\"here\\\""));
        assert!(json.contains("\"skipped_passes\":[\"cycles\"]"));
        assert!(json.contains("\"total_errors\":1"));
        assert!(json.contains("\"codes\":[\"FLH010\"]"));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn bare_style_is_null_and_empty_run_is_valid() {
        let r = LintReport::new("t", None);
        let json = reports_to_json(&[r]);
        assert!(json.contains("\"style\":null"));
        assert!(reports_to_json(&[]).contains("\"targets\":[]"));
    }
}
