//! Machine-readable summary for CI: a hand-rolled JSON emitter (the
//! workspace is dependency-free by design, so no serde).

use std::collections::BTreeSet;

use flh_obs::escape;

use crate::report::LintReport;

fn string_array(items: impl IntoIterator<Item = String>) -> String {
    let quoted: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", escape(&s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Renders the whole run as a JSON document:
///
/// ```json
/// {
///   "targets": [
///     {"target": "s298", "style": "FLH", "errors": 0, "warnings": 1,
///      "skipped_passes": [],
///      "diagnostics": [{"code": "FLH005", "severity": "warning",
///                       "cells": ["g12"], "message": "...", "hint": "..."}]}
///   ],
///   "total_errors": 0, "total_warnings": 1, "codes": ["FLH005"]
/// }
/// ```
///
/// Key order and formatting are fixed, so CI can diff summaries byte for
/// byte across runs.
pub fn reports_to_json(reports: &[LintReport]) -> String {
    let mut targets = Vec::with_capacity(reports.len());
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut codes: BTreeSet<&'static str> = BTreeSet::new();
    for report in reports {
        total_errors += report.error_count();
        total_warnings += report.warning_count();
        let mut diagnostics = Vec::with_capacity(report.diagnostics.len());
        for d in &report.diagnostics {
            codes.insert(d.code.code());
            diagnostics.push(format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"cells\":{},\"message\":\"{}\",\"hint\":\"{}\"}}",
                d.code,
                d.severity,
                string_array(d.cells.iter().cloned()),
                escape(&d.message),
                escape(&d.hint)
            ));
        }
        let style = match &report.style {
            Some(s) => format!("\"{}\"", escape(s)),
            None => "null".to_string(),
        };
        targets.push(format!(
            "{{\"target\":\"{}\",\"style\":{style},\"errors\":{},\"warnings\":{},\"skipped_passes\":{},\"diagnostics\":[{}]}}",
            escape(&report.target),
            report.error_count(),
            report.warning_count(),
            string_array(report.skipped_passes.iter().map(|s| s.to_string())),
            diagnostics.join(",")
        ));
    }
    format!(
        "{{\"targets\":[{}],\"total_errors\":{total_errors},\"total_warnings\":{total_warnings},\"codes\":{}}}\n",
        targets.join(","),
        string_array(codes.into_iter().map(str::to_string))
    )
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
