//! Negative coverage for the bytecode verifier (FLH015-023) and the
//! compiled-form X-taint cross-check (FLH026): every corruption hook on
//! `Program` maps to exactly the lint code that names the broken invariant.
//!
//! Corrupted programs are injected with `LintTarget::with_program`, so the
//! full lint pipeline (pass registry, severity policy, report shape) runs
//! against the mutated stream — these are end-to-end tests, not unit tests
//! of `verify_program`.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::sync::Arc;

use flh_core::{apply_style, DftStyle};
use flh_lint::{lint_target, LintCode, LintReport, LintTarget};
use flh_netlist::{CellKind, CompiledCircuit, Netlist, Opcode, Program};

const INST_WORDS: usize = 6;

/// Seven inputs so the `AndN(7)` gate lowers to a two-instruction chain
/// through a scratch register — the shape the scratch-order check guards.
fn fixture() -> Netlist {
    let mut n = Netlist::new("pfixture");
    let ins: Vec<_> = (0..7).map(|i| n.add_input(format!("a{i}"))).collect();
    let f1 = n.add_cell("f1", CellKind::Dff, vec![ins[0]]);
    let f2 = n.add_cell("f2", CellKind::Dff, vec![ins[1]]);
    let wide = n.add_cell("wide", CellKind::AndN(7), ins.clone());
    let g1 = n.add_cell("g1", CellKind::Nand2, vec![f1, f2]);
    let g2 = n.add_cell("g2", CellKind::Xor2, vec![g1, wide]);
    n.add_output("y", g2);
    n
}

/// Compile + lower the fixture, apply one corruption, lint the result.
fn corrupted_report(corrupt: impl FnOnce(&CompiledCircuit, &mut Program)) -> LintReport {
    let n = fixture();
    let compiled = CompiledCircuit::compile_shared(&n).unwrap();
    let mut program = Program::lower(&compiled);
    corrupt(&compiled, &mut program);
    lint_target(&LintTarget::bare(n).with_program(compiled, Arc::new(program)))
}

/// First instruction writing a scratch slot (the head of the wide chain).
fn scratch_writer(p: &Program) -> usize {
    (0..p.inst_count())
        .find(|&i| p.decode_inst(i).dst >= p.cell_words() as u32)
        .unwrap()
}

/// First instruction rooting a real cell (dst below the scratch window).
fn cell_rooter(p: &Program) -> usize {
    (0..p.inst_count())
        .find(|&i| p.decode_inst(i).dst < p.cell_words() as u32)
        .unwrap()
}

#[track_caller]
fn assert_fires(report: &LintReport, code: LintCode) {
    assert!(
        report.fired(code),
        "expected {code} in:\n{}",
        report.render_text()
    );
    assert!(report.has_errors(), "bytecode corruption must be an Error");
}

#[test]
fn pristine_program_verifies_clean() {
    let r = corrupted_report(|_, _| {});
    assert_eq!(r.error_count(), 0, "{}", r.render_text());
}

#[test]
fn truncated_stream_fires_flh015() {
    let r = corrupted_report(|_, p| p.corrupt_truncate_words(INST_WORDS));
    assert_fires(&r, LintCode::BytecodeTruncated);
}

#[test]
fn ragged_stream_fires_flh015() {
    let r = corrupted_report(|_, p| p.corrupt_truncate_words(INST_WORDS + 1));
    assert_fires(&r, LintCode::BytecodeTruncated);
}

#[test]
fn run_table_gap_fires_flh015() {
    // Shrinking the first run by one instruction leaves that instruction in
    // no run, so the executors would skip it.
    let r = corrupted_report(|_, p| {
        let run = p.runs()[0];
        p.corrupt_run_bounds(0, run.start, run.end - INST_WORDS as u32);
    });
    assert_fires(&r, LintCode::BytecodeTruncated);
}

#[test]
fn opcode_swapped_inside_a_run_fires_flh022() {
    // NAND -> AND keeps a legal opcode and arity, so only the run check
    // sees that the header no longer matches the shape the run executes.
    let r = corrupted_report(|_, p| {
        let i = (0..p.inst_count())
            .find(|&i| p.decode_inst(i).opcode == Some(Opcode::Nand))
            .unwrap();
        p.corrupt_opcode(i, Opcode::And as u8);
    });
    assert_fires(&r, LintCode::BytecodeBatchLevel);
    assert!(!r.fired(LintCode::BytecodeBadOpcode), "{}", r.render_text());
    assert!(!r.fired(LintCode::BytecodeBadArity), "{}", r.render_text());
}

#[test]
fn illegal_opcode_fires_flh016() {
    let r = corrupted_report(|_, p| p.corrupt_opcode(0, 0xEE));
    assert_fires(&r, LintCode::BytecodeBadOpcode);
}

#[test]
fn arity_out_of_range_fires_flh017() {
    let r = corrupted_report(|_, p| p.corrupt_nops(0, 15));
    assert_fires(&r, LintCode::BytecodeBadArity);
}

#[test]
fn operand_slot_out_of_range_fires_flh018() {
    let r = corrupted_report(|_, p| {
        let huge = (p.cell_words() + p.scratch_words() + 999) as u32;
        p.corrupt_operand(0, 0, huge);
    });
    assert_fires(&r, LintCode::BytecodeOperandRange);
}

#[test]
fn dst_slot_out_of_range_fires_flh019() {
    let r = corrupted_report(|_, p| {
        let huge = (p.cell_words() + p.scratch_words() + 999) as u32;
        p.corrupt_dst(0, huge);
    });
    assert_fires(&r, LintCode::BytecodeDstRange);
}

#[test]
fn scratch_read_before_write_fires_flh020() {
    let r = corrupted_report(|_, p| {
        let i = scratch_writer(p);
        // The chain head reads its own (still unwritten) scratch slot.
        p.corrupt_operand(i, 0, p.cell_words() as u32);
    });
    assert_fires(&r, LintCode::BytecodeScratchOrder);
}

#[test]
fn same_level_operand_fires_flh021() {
    let r = corrupted_report(|_, p| {
        let i = cell_rooter(p);
        let dst = p.decode_inst(i).dst;
        // An instruction consuming its own destination violates level order.
        p.corrupt_operand(i, 0, dst);
    });
    assert_fires(&r, LintCode::BytecodeOperandLevel);
}

#[test]
fn batch_level_lie_fires_flh022() {
    let r = corrupted_report(|_, p| p.corrupt_batch_level(0, 77));
    assert_fires(&r, LintCode::BytecodeBatchLevel);
}

#[test]
fn hold_bit_on_plain_gate_fires_flh023() {
    let r = corrupted_report(|_, p| {
        let i = cell_rooter(p);
        p.corrupt_toggle_hold(i);
    });
    assert_fires(&r, LintCode::BytecodeChainMismatch);
}

#[test]
fn chain_table_lie_fires_flh023() {
    let r = corrupted_report(|_, p| {
        // Zero-length chain for a cell the stream actually roots.
        let cell = p.decode_inst(cell_rooter(p)).dst;
        p.corrupt_chain(cell, 0, 0);
    });
    assert_fires(&r, LintCode::BytecodeChainMismatch);
}

#[test]
fn hold_bit_cleared_on_hold_cell_fires_flh026() {
    // Enhanced scan inserts hold latches; clearing one instruction's hold
    // bit makes the compiled taint walk leak where the netlist walk holds.
    let dft = apply_style(&fixture(), DftStyle::EnhancedScan).unwrap();
    let compiled = CompiledCircuit::compile_shared(&dft.netlist).unwrap();
    let mut program = Program::lower(&compiled);
    let hold_inst = (0..program.inst_count())
        .find(|&i| program.decode_inst(i).hold)
        .unwrap();
    program.corrupt_toggle_hold(hold_inst);
    let r = lint_target(&LintTarget::from_dft(dft).with_program(compiled, Arc::new(program)));
    assert_fires(&r, LintCode::XTaintMismatch);
    // The verifier independently flags the header/kind disagreement.
    assert_fires(&r, LintCode::BytecodeChainMismatch);
}

/// Completeness over the program-level codes: FLH015-023 and FLH026 are all
/// reachable from the corruption hooks (the netlist-level codes are covered
/// by `tests/corrupted.rs`).
#[test]
fn every_program_level_code_is_exercised() {
    let scenarios = [
        corrupted_report(|_, p| p.corrupt_truncate_words(INST_WORDS)),
        corrupted_report(|_, p| p.corrupt_opcode(0, 0xEE)),
        corrupted_report(|_, p| p.corrupt_nops(0, 15)),
        corrupted_report(|_, p| {
            let huge = (p.cell_words() + p.scratch_words() + 999) as u32;
            p.corrupt_operand(0, 0, huge);
        }),
        corrupted_report(|_, p| {
            let huge = (p.cell_words() + p.scratch_words() + 999) as u32;
            p.corrupt_dst(0, huge);
        }),
        corrupted_report(|_, p| {
            let i = scratch_writer(p);
            p.corrupt_operand(i, 0, p.cell_words() as u32);
        }),
        corrupted_report(|_, p| {
            let i = cell_rooter(p);
            let dst = p.decode_inst(i).dst;
            p.corrupt_operand(i, 0, dst);
        }),
        corrupted_report(|_, p| p.corrupt_batch_level(0, 77)),
        corrupted_report(|_, p| {
            let i = cell_rooter(p);
            p.corrupt_toggle_hold(i);
        }),
        {
            let dft = apply_style(&fixture(), DftStyle::EnhancedScan).unwrap();
            let compiled = CompiledCircuit::compile_shared(&dft.netlist).unwrap();
            let mut program = Program::lower(&compiled);
            let hold_inst = (0..program.inst_count())
                .find(|&i| program.decode_inst(i).hold)
                .unwrap();
            program.corrupt_toggle_hold(hold_inst);
            lint_target(&LintTarget::from_dft(dft).with_program(compiled, Arc::new(program)))
        },
    ];
    let fired: BTreeSet<LintCode> = scenarios.iter().flat_map(|r| r.codes()).collect();
    for code in [
        LintCode::BytecodeTruncated,
        LintCode::BytecodeBadOpcode,
        LintCode::BytecodeBadArity,
        LintCode::BytecodeOperandRange,
        LintCode::BytecodeDstRange,
        LintCode::BytecodeScratchOrder,
        LintCode::BytecodeOperandLevel,
        LintCode::BytecodeBatchLevel,
        LintCode::BytecodeChainMismatch,
        LintCode::XTaintMismatch,
    ] {
        assert!(fired.contains(&code), "no mutation fires {code}");
    }
}
