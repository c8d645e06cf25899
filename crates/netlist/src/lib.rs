//! Gate-level netlist substrate for the FLH delay-test reproduction.
//!
//! This crate provides the structural view of a sequential circuit that every
//! other crate in the workspace builds on:
//!
//! * [`Netlist`] — a single-output-per-cell gate graph with primary inputs,
//!   primary outputs and D flip-flops as sequential boundaries.
//! * [`CellKind`] — the LEDA-like standard-cell vocabulary used by the paper
//!   (inverters, NAND/NOR/AND/OR up to 4 inputs, AOI/OAI complex gates,
//!   2:1 MUX, XOR/XNOR) plus test cells (scan flip-flop, hold latch, hold
//!   MUX) and generic wide gates produced by the ISCAS89 `.bench` parser.
//! * [`bench_io`] — reader/writer for the ISCAS89 `.bench` interchange
//!   format.
//! * [`analysis`] — levelization, fanout maps, first-level-gate (unique
//!   fanout) identification, cone extraction and structural statistics.
//! * [`compiled`] — [`CompiledCircuit`], the flattened CSR/SoA execution
//!   snapshot every hot loop (logic sim, fault sim, STA, power) walks
//!   instead of re-deriving order and fanout from the graph.
//! * [`generate`] — a deterministic synthetic circuit generator whose
//!   per-circuit profiles are calibrated to the published ISCAS89 statistics
//!   (see `DESIGN.md` for the substitution rationale).
//! * [`mapper`] — a structural technology mapper that reduces generic wide
//!   gates to the 2–4 input library cells and absorbs inverter/AND/OR
//!   patterns into AOI/OAI complex gates, standing in for the Synopsys
//!   Design Compiler mapping step of the paper.
//!
//! # Example
//!
//! ```
//! use flh_netlist::{Netlist, CellKind};
//!
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_cell("g", CellKind::Nand2, vec![a, b]);
//! n.add_output("y", g);
//! assert_eq!(n.cell_count(), 4);
//! assert!(n.validate().is_ok());
//! ```

// Library code answers with Result (`flh-lint` turns violations into
// diagnostics); unwrap stays legal in tests, where a panic IS the report.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod analysis;
pub mod bench_io;
pub mod bytecode;
pub mod cell;
pub mod compiled;
pub mod dot;
pub mod error;
pub mod generate;
pub mod graph;
pub mod mapper;
pub mod profiles;
pub mod static_analysis;
pub mod unroll;
pub mod verilog;

pub use analysis::{CircuitStats, FanoutMap, Levelization};
pub use bytecode::{
    DecodedInst, Dual8, InstTable, LaneWord, Opcode, Packed256, PatternWord, Program, Run,
};
pub use cell::{CellId, CellKind, Dual64, HoldStyle};
pub use compiled::CompiledCircuit;
pub use error::NetlistError;
pub use generate::{generate_circuit, GeneratorConfig};
pub use graph::{Cell, Netlist};
pub use profiles::{iscas89_profile, iscas89_profiles, CircuitProfile};
pub use unroll::TwoFrameUnrolling;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetlistError>;
