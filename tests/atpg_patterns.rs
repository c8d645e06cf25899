//! Pins the pattern files `flh atpg` writes. Deterministic transition ATPG
//! is a pure function of the circuit, the PODEM budget and the fill seed,
//! so any change to PODEM's search order — which decision it takes, which
//! frontier gate it picks, when it backtracks — shows up here as a
//! different file hash, even when coverage happens to stay the same.

use flh::atpg::transition::enumerate_transition_faults;
use flh::atpg::{transition_atpg, write_patterns, PodemConfig, TestView};
use flh::core::{apply_style, DftStyle};
use flh::netlist::{generate_circuit, iscas89_profile};
use flh::serve::fnv1a;

/// Runs ATPG exactly as `flh atpg <circuit>` does (FLH style, the paper's
/// PODEM budget, fill seed `0xf1`) and hashes the pattern file text.
fn atpg_pattern_hash(circuit: &str) -> (String, usize) {
    let profile = iscas89_profile(circuit).expect("builtin profile");
    let base = generate_circuit(&profile.generator_config()).expect("generates");
    let dft = apply_style(&base, DftStyle::Flh).expect("flh");
    let view = TestView::new(&dft.netlist).expect("view");
    let faults = enumerate_transition_faults(&dft.netlist);
    let result = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 0xf1);
    let text = write_patterns(&result.patterns, view.primary_input_count());
    (
        format!("{:016x}", fnv1a(text.as_bytes())),
        result.patterns.len(),
    )
}

#[test]
fn s298_pattern_file_is_pinned() {
    assert_eq!(atpg_pattern_hash("s298"), ("52d5759d43e1a56d".into(), 36));
}

#[test]
fn s1196_pattern_file_is_pinned() {
    assert_eq!(atpg_pattern_hash("s1196"), ("5f98df5b980b665c".into(), 138));
}
