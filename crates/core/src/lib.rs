//! # First Level Hold (FLH) — the paper's contribution
//!
//! Design-for-testability transforms enabling arbitrary two-pattern delay
//! test application, and the machinery to compare them:
//!
//! * [`scan`] — full-scan insertion (every D flip-flop becomes a muxed-D
//!   scan flip-flop on one chain), the common baseline of all styles;
//! * [`styles`] — the three holding styles of the paper:
//!   [`DftStyle::EnhancedScan`] (hold latch per scan cell),
//!   [`DftStyle::MuxHold`] (holding MUX per scan cell, after ref.\[13\]), and
//!   [`DftStyle::Flh`] (supply gating + keeper on the *first-level gates*,
//!   the unique fanout gates of the scan flip-flops — the new technique);
//! * [`overhead`] — the Table I/II/III methodology: area (Σ W·L), critical
//!   path delay, and normal-mode power of each style relative to the plain
//!   full-scan baseline;
//! * [`fanout_opt`] — the Section V local fanout-reduction algorithm that
//!   shrinks the number of first-level gates under a critical-path delay
//!   constraint.
//!
//! # Quickstart
//!
//! ```
//! use flh_core::{apply_style, DftStyle};
//! use flh_netlist::{CellKind, Netlist};
//!
//! # fn main() -> Result<(), flh_netlist::NetlistError> {
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let ff = n.add_cell("r", CellKind::Dff, vec![a]);
//! let g = n.add_cell("g", CellKind::Nand2, vec![ff, a]);
//! n.set_fanin_pin(ff, 0, g);
//! n.add_output("y", g);
//!
//! let flh = apply_style(&n, DftStyle::Flh)?;
//! assert_eq!(flh.gated.len(), 1); // NAND2 is the only first-level gate
//! # Ok(())
//! # }
//! ```

pub mod fanout_opt;
pub mod mixed_sizing;
pub mod overhead;
pub mod scan;
pub mod styles;

pub use fanout_opt::{optimize_fanout, FanoutOptConfig, FanoutOptResult};
pub use mixed_sizing::{select_critical_gating, MixedSizingResult};
pub use overhead::{
    baseline_row, evaluate_against, evaluate_all, evaluate_style, measure_baseline,
    overhead_improvement_pct, EvalConfig, Measurement, StyleEvaluation,
};
pub use scan::insert_scan;
pub use styles::{apply_flh_with_pi_hold, apply_style, DftNetlist, DftStyle};
