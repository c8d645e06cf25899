//! The diagnostics vocabulary: stable codes, severities, diagnostics and
//! per-target reports.

use std::collections::BTreeSet;
use std::fmt;

/// How serious a diagnostic is.
///
/// Only [`Severity::Error`] diagnostics gate CI; warnings flag legal but
/// wasteful or suspicious structure, infos are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note.
    Info,
    /// Legal but suspicious or wasteful structure.
    Warning,
    /// A violated invariant: simulation or the FLH transform would be
    /// unsound on this netlist.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes (`FLH0xx`).
///
/// Codes are append-only: a code's meaning never changes once shipped, so
/// CI allowlists and scripts can match on them. The FLH-specific family
/// (`FLH010`–`FLH013`) checks the structural invariants Section 3 of the
/// paper requires for the First Level Hold transform to be sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `FLH000` — the target could not be built at all (file read, `.bench`
    /// parse, generator or transform failure).
    TargetError,
    /// `FLH001` — combinational cycle.
    CombinationalCycle,
    /// `FLH002` — fanin reference pointing outside the netlist (a floating
    /// / undriven net).
    DanglingFanin,
    /// `FLH003` — fanin count does not match the cell kind's arity.
    ArityMismatch,
    /// `FLH004` — two cells drive the same net name (multi-driver).
    MultiDriver,
    /// `FLH005` — gate (or primary input) whose output reaches no primary
    /// output and no flip-flop D pin: a dead cone.
    UnreachableGate,
    /// `FLH006` — a primary-output marker is used as a driver.
    OutputHasFanout,
    /// `FLH007` — boundary/flip-flop registry inconsistency (e.g. a
    /// dangling primary output not in the port list).
    PortRegistry,
    /// `FLH008` — combinational logic sees the shifting scan state during
    /// the V2 load: the V1 hold state is not X-safe.
    HoldLeak,
    /// `FLH009` — scan-chain connectivity/order integrity violation.
    ScanChain,
    /// `FLH010` — a unique first-level fanout gate of a scan flip-flop is
    /// not supply-gated (FLH coverage hole).
    FlhCoverage,
    /// `FLH011` — a supply-gated output carries no keeper latch.
    KeeperMissing,
    /// `FLH012` — supply gating applied to a cell that is not a
    /// first-level gate (or not a gate at all).
    IllegalGating,
    /// `FLH013` — holding-style consistency violation (wrong or missing
    /// holding cells for the declared style).
    StyleConsistency,
    /// `FLH014` — generic wide gates survive where only library cells are
    /// expected (run the technology mapper).
    UnmappedGeneric,
    /// `FLH015` — the compiled program's code stream, batch table or run
    /// table is structurally broken (ragged stream, bad batch tiling, runs
    /// not tiling the batches, instruction count mismatch).
    BytecodeTruncated,
    /// `FLH016` — an opcode byte outside the fused opcode table.
    BytecodeBadOpcode,
    /// `FLH017` — an operand count outside the opcode's legal arity range.
    BytecodeBadArity,
    /// `FLH018` — an operand slot past the end of the register file.
    BytecodeOperandRange,
    /// `FLH019` — a destination slot past the end of the register file.
    BytecodeDstRange,
    /// `FLH020` — a scratch operand read before any write in its chain.
    BytecodeScratchOrder,
    /// `FLH021` — a cell operand not strictly below its batch's level.
    BytecodeOperandLevel,
    /// `FLH022` — a batch level out of range or non-monotone, a root
    /// destination scheduled at the wrong level, or an instruction that does
    /// not carry its run's opcode and arity on cell slots.
    BytecodeBatchLevel,
    /// `FLH023` — chain-table entry inconsistent with the code stream, or
    /// the hold bit disagreeing with the destination cell's kind.
    BytecodeChainMismatch,
    /// `FLH024` — a net the ternary interpreter proves constant on every
    /// input vector (advisory: constants shrink the testable fault set).
    ConstantNet,
    /// `FLH025` — a compiled instruction whose result can never reach a
    /// primary output or flip-flop D pin (advisory dead code).
    DeadInstruction,
    /// `FLH026` — the compiled-form X-taint disagrees with the
    /// netlist-level V1-hold taint: the two hold-safety analyses must
    /// agree cell for cell.
    XTaintMismatch,
    /// `FLH027` — count of stuck-at faults proven statically untestable
    /// (advisory; the `flh-atpg` prune step skips exactly these).
    StaticUntestableStuck,
    /// `FLH028` — count of transition faults proven statically untestable
    /// under the target's application style (advisory).
    StaticUntestableTransition,
}

impl LintCode {
    /// Every code, in code order.
    pub const ALL: [LintCode; 29] = [
        LintCode::TargetError,
        LintCode::CombinationalCycle,
        LintCode::DanglingFanin,
        LintCode::ArityMismatch,
        LintCode::MultiDriver,
        LintCode::UnreachableGate,
        LintCode::OutputHasFanout,
        LintCode::PortRegistry,
        LintCode::HoldLeak,
        LintCode::ScanChain,
        LintCode::FlhCoverage,
        LintCode::KeeperMissing,
        LintCode::IllegalGating,
        LintCode::StyleConsistency,
        LintCode::UnmappedGeneric,
        LintCode::BytecodeTruncated,
        LintCode::BytecodeBadOpcode,
        LintCode::BytecodeBadArity,
        LintCode::BytecodeOperandRange,
        LintCode::BytecodeDstRange,
        LintCode::BytecodeScratchOrder,
        LintCode::BytecodeOperandLevel,
        LintCode::BytecodeBatchLevel,
        LintCode::BytecodeChainMismatch,
        LintCode::ConstantNet,
        LintCode::DeadInstruction,
        LintCode::XTaintMismatch,
        LintCode::StaticUntestableStuck,
        LintCode::StaticUntestableTransition,
    ];

    /// The stable `FLH0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::TargetError => "FLH000",
            LintCode::CombinationalCycle => "FLH001",
            LintCode::DanglingFanin => "FLH002",
            LintCode::ArityMismatch => "FLH003",
            LintCode::MultiDriver => "FLH004",
            LintCode::UnreachableGate => "FLH005",
            LintCode::OutputHasFanout => "FLH006",
            LintCode::PortRegistry => "FLH007",
            LintCode::HoldLeak => "FLH008",
            LintCode::ScanChain => "FLH009",
            LintCode::FlhCoverage => "FLH010",
            LintCode::KeeperMissing => "FLH011",
            LintCode::IllegalGating => "FLH012",
            LintCode::StyleConsistency => "FLH013",
            LintCode::UnmappedGeneric => "FLH014",
            LintCode::BytecodeTruncated => "FLH015",
            LintCode::BytecodeBadOpcode => "FLH016",
            LintCode::BytecodeBadArity => "FLH017",
            LintCode::BytecodeOperandRange => "FLH018",
            LintCode::BytecodeDstRange => "FLH019",
            LintCode::BytecodeScratchOrder => "FLH020",
            LintCode::BytecodeOperandLevel => "FLH021",
            LintCode::BytecodeBatchLevel => "FLH022",
            LintCode::BytecodeChainMismatch => "FLH023",
            LintCode::ConstantNet => "FLH024",
            LintCode::DeadInstruction => "FLH025",
            LintCode::XTaintMismatch => "FLH026",
            LintCode::StaticUntestableStuck => "FLH027",
            LintCode::StaticUntestableTransition => "FLH028",
        }
    }

    /// Short kebab-case label for the code.
    pub fn title(self) -> &'static str {
        match self {
            LintCode::TargetError => "target-error",
            LintCode::CombinationalCycle => "combinational-cycle",
            LintCode::DanglingFanin => "dangling-fanin",
            LintCode::ArityMismatch => "arity-mismatch",
            LintCode::MultiDriver => "multi-driver",
            LintCode::UnreachableGate => "unreachable-gate",
            LintCode::OutputHasFanout => "output-has-fanout",
            LintCode::PortRegistry => "port-registry",
            LintCode::HoldLeak => "hold-leak",
            LintCode::ScanChain => "scan-chain",
            LintCode::FlhCoverage => "flh-coverage",
            LintCode::KeeperMissing => "keeper-missing",
            LintCode::IllegalGating => "illegal-gating",
            LintCode::StyleConsistency => "style-consistency",
            LintCode::UnmappedGeneric => "unmapped-generic",
            LintCode::BytecodeTruncated => "bytecode-truncated",
            LintCode::BytecodeBadOpcode => "bytecode-bad-opcode",
            LintCode::BytecodeBadArity => "bytecode-bad-arity",
            LintCode::BytecodeOperandRange => "bytecode-operand-range",
            LintCode::BytecodeDstRange => "bytecode-dst-range",
            LintCode::BytecodeScratchOrder => "bytecode-scratch-order",
            LintCode::BytecodeOperandLevel => "bytecode-operand-level",
            LintCode::BytecodeBatchLevel => "bytecode-batch-level",
            LintCode::BytecodeChainMismatch => "bytecode-chain-mismatch",
            LintCode::ConstantNet => "constant-net",
            LintCode::DeadInstruction => "dead-instruction",
            LintCode::XTaintMismatch => "x-taint-mismatch",
            LintCode::StaticUntestableStuck => "static-untestable-stuck",
            LintCode::StaticUntestableTransition => "static-untestable-transition",
        }
    }

    /// The severity diagnostics of this code default to.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::UnreachableGate | LintCode::UnmappedGeneric => Severity::Warning,
            LintCode::ConstantNet
            | LintCode::DeadInstruction
            | LintCode::StaticUntestableStuck
            | LintCode::StaticUntestableTransition => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a code, a severity, the offending cells, a message and a
/// fix hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity (defaults to [`LintCode::default_severity`]).
    pub severity: Severity,
    /// Offending cell names (possibly empty for whole-netlist findings).
    pub cells: Vec<String>,
    /// Human-readable statement of the violation.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity, no cells, no hint.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            cells: Vec::new(),
            message: message.into(),
            hint: String::new(),
        }
    }

    /// Attaches offending cell names.
    #[must_use]
    pub fn with_cells(mut self, cells: Vec<String>) -> Self {
        self.cells = cells;
        self
    }

    /// Attaches one offending cell name.
    #[must_use]
    pub fn with_cell(mut self, cell: impl Into<String>) -> Self {
        self.cells.push(cell.into());
        self
    }

    /// Attaches a fix hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = hint.into();
        self
    }

    /// Overrides the severity.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// One-line rendering: `FLH010 error [g1, g2]: message (hint: ...)`.
    pub fn render(&self) -> String {
        let mut out = format!("{} {}", self.code, self.severity);
        if !self.cells.is_empty() {
            const SHOWN: usize = 8;
            let shown: Vec<&str> = self.cells.iter().take(SHOWN).map(String::as_str).collect();
            let more = self.cells.len().saturating_sub(SHOWN);
            out.push_str(&format!(" [{}", shown.join(", ")));
            if more > 0 {
                out.push_str(&format!(", +{more} more"));
            }
            out.push(']');
        }
        out.push_str(&format!(": {}", self.message));
        if !self.hint.is_empty() {
            out.push_str(&format!(" (hint: {})", self.hint));
        }
        out
    }
}

/// All diagnostics produced for one lint target (a netlist, optionally
/// with a DFT style applied).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Target name (design name, profile name or file path).
    pub target: String,
    /// Applied DFT style label, if any.
    pub style: Option<String>,
    /// Findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Passes skipped because an earlier pass found the graph too broken
    /// to walk (dangling fanin references).
    pub skipped_passes: Vec<&'static str>,
}

impl LintReport {
    /// An empty report for a target.
    pub fn new(target: impl Into<String>, style: Option<String>) -> Self {
        LintReport {
            target: target.into(),
            style,
            diagnostics: Vec::new(),
            skipped_passes: Vec::new(),
        }
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The distinct codes that fired, in code order.
    pub fn codes(&self) -> BTreeSet<LintCode> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// True when the given code fired at least once.
    pub fn fired(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Display label: `name [style]` or just `name`.
    pub fn label(&self) -> String {
        match &self.style {
            Some(style) => format!("{} [{style}]", self.target),
            None => self.target.clone(),
        }
    }

    /// Multi-line human-readable rendering (one line per diagnostic plus a
    /// summary line).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}: {} error(s), {} warning(s)\n",
            self.label(),
            self.error_count(),
            self.warning_count()
        );
        for d in &self.diagnostics {
            out.push_str(&format!("  {}\n", d.render()));
        }
        if !self.skipped_passes.is_empty() {
            out.push_str(&format!(
                "  note: skipped passes on unsound graph: {}\n",
                self.skipped_passes.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: BTreeSet<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), LintCode::ALL.len());
        assert!(codes.contains("FLH000"));
        assert!(codes.contains("FLH014"));
        assert!(codes.contains("FLH028"));
        for c in LintCode::ALL {
            assert!(c.code().starts_with("FLH"), "{c:?}");
            assert_eq!(c.code().len(), 6);
        }
        // The acceptance bar: at least ten distinct codes exist.
        assert!(LintCode::ALL.len() >= 10);
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn diagnostic_render_caps_cell_list() {
        let d = Diagnostic::new(LintCode::UnreachableGate, "dead cones")
            .with_cells((0..12).map(|i| format!("g{i}")).collect())
            .with_hint("remove them");
        let line = d.render();
        assert!(line.starts_with("FLH005 warning"));
        assert!(line.contains("+4 more"));
        assert!(line.contains("hint: remove them"));
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = LintReport::new("t", Some("FLH".into()));
        r.push(Diagnostic::new(LintCode::FlhCoverage, "hole").with_cell("g1"));
        r.push(Diagnostic::new(LintCode::UnreachableGate, "dead"));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.fired(LintCode::FlhCoverage));
        assert!(!r.fired(LintCode::HoldLeak));
        assert_eq!(r.label(), "t [FLH]");
        let text = r.render_text();
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(text.contains("FLH010"));
    }
}
