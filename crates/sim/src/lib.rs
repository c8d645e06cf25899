//! Logic simulation substrate: 4-valued evaluation, cycle-accurate
//! sequential simulation with DFT semantics, scan-chain machinery and the
//! paper's two-pattern test-application schedule (Fig. 5(b)).
//!
//! The simulator understands the three holding mechanisms the paper
//! compares:
//!
//! * **enhanced scan / MUX-based** — [`CellKind::HoldLatch`] /
//!   [`CellKind::HoldMux`] cells in the stimulus path freeze their output
//!   while [`LogicSim::set_hold`] is active;
//! * **FLH** — a set of supply-gated first-level gates
//!   ([`LogicSim::set_gated_cells`]) freeze their output while
//!   [`LogicSim::set_sleep`] is active, exactly the semantics the keeper
//!   latch of Fig. 3 provides electrically (verified independently by
//!   `flh-analog`);
//! * **plain scan** — nothing holds, and the combinational logic toggles
//!   redundantly during shifting (the energy the paper's Section IV
//!   discussion quantifies).
//!
//! Toggle counts per cell are recorded by [`Activity`] and feed the
//! `flh-power` estimates (the paper's NanoSim/100-random-vector method).
//!
//! [`CellKind::HoldLatch`]: flh_netlist::CellKind::HoldLatch
//! [`CellKind::HoldMux`]: flh_netlist::CellKind::HoldMux

// Library code surfaces failure as Result or a documented panic; unwrap
// stays legal in tests, where a panic IS the report.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod compiled_sim;
pub mod scan;
pub mod simulator;
pub mod two_pattern;
pub mod value;

pub use compiled_sim::{
    dual8_to_logic, lane_to_logic, logic_to_dual8, logic_to_lane, settle_packed, CompiledSim,
};
pub use scan::{MultiScanController, ScanChain, ScanController};
pub use simulator::{Activity, LogicSim};
pub use two_pattern::{HoldMechanism, TwoPatternOutcome, TwoPatternRunner};
pub use value::Logic;
