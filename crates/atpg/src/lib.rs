//! Test generation and fault simulation for the FLH reproduction.
//!
//! The paper's Section IV claims — FLH leaves fault models, test
//! generation and fault coverage untouched, while the *application style*
//! (enhanced-scan arbitrary two-pattern vs. broadside vs. skewed-load)
//! decides how much transition-fault coverage is reachable — need a real
//! test-generation substrate to be demonstrated. This crate provides it,
//! from scratch:
//!
//! * [`fault`] — stuck-at and transition-delay fault models over the
//!   combinational test view (primary inputs + flip-flop outputs in,
//!   primary outputs + flip-flop D pins out), with structural equivalence
//!   collapsing;
//! * [`tview`] — the combinational test view and 64-way parallel pattern
//!   evaluation with single-fault injection;
//! * [`podem`] — a PODEM implementation (objective / backtrace / imply with
//!   backtracking) for stuck-at faults, plus justification-only mode;
//! * [`fsim`] — the one fault simulator: stem-region simulation
//!   (`region`), which replays one stem per fanout-free region per block,
//!   behind a one-frame stuck-at front, and the one shard loop every
//!   multi-block simulation runs through (a pattern list or a seeded pair
//!   stream, the live fault list compacted after every block);
//! * [`replay`] — the deviation-replay engine the stem replays run on:
//!   event-driven in-place faulty resimulation (per-level bucket queue,
//!   undo log, observed-driver miscompare, early exit on detection);
//! * [`transition`] — two-pattern transition-fault ATPG built on PODEM
//!   (launch value justified by V1, detection by a stuck-at test as V2)
//!   in the one transition-ATPG loop, which [`broadside`] ATPG shares, and
//!   the two-frame front of the fault simulator for pattern pairs;
//! * [`application`] — the three scan application styles: arbitrary
//!   two-pattern (enhanced scan / FLH), broadside (V2's state = circuit
//!   response to V1) and skewed-load (V2's state = 1-bit shift of V1's),
//!   used to reproduce the coverage comparison the paper motivates in its
//!   introduction.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod application;
pub mod broadside;
pub mod diagnose;
pub mod fault;
pub mod fsim;
pub mod path;
pub mod patterns_io;
pub mod podem;
pub mod prune;
pub(crate) mod region;
pub mod replay;
pub(crate) mod sat;
pub mod transition;
pub mod tview;

pub use application::{
    cycles_per_pattern, pairs_to_reach_coverage, random_transition_campaign,
    transition_campaign_filtered, ApplicationStyle, CampaignResult,
};
pub use broadside::broadside_transition_atpg;
pub use diagnose::{diagnose, faulty_responses, golden_responses, DiagnosisCandidate};
pub use fault::{
    collapse_faults, enumerate_stuck_faults, inject_fault, Fault, FaultSite, StuckValue,
};
pub use fsim::{stuck_coverage, stuck_detects_reference, StuckSimulator, PATTERN_BLOCK};
pub use path::{
    generate_path_test, longest_paths, longest_sensitizable_path, path_delay_atpg,
    verify_non_robust, PathDelayFault, PathDelayReport, PathTestOutcome, StructuralPath,
};
pub use patterns_io::{parse_patterns, read_patterns_file, write_patterns};
pub use podem::{Podem, PodemConfig, TestCube};
pub use prune::{PruneOutcome, RedundantTransitions, StaticFilter};
pub use replay::DeviationReplay;
pub use transition::{
    enumerate_transition_faults, simulate_transition_patterns, transition_atpg,
    transition_atpg_with_filter, transition_detects_reference, TransitionAtpgResult,
    TransitionFault, TransitionKind, TransitionPattern, TransitionSimulator,
};
pub use tview::TestView;
