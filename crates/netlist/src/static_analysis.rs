//! Static analysis over compiled programs (DESIGN.md §2i).
//!
//! Cooperating analyses run on a lowered [`Program`] and its circuit without
//! ever simulating a pattern:
//!
//! * [`verify_program`] — a bytecode verifier that decodes every fixed-stride
//!   instruction and proves the emission invariants `Program::lower` relies
//!   on: stream/batch structure, opcode legality, fused arity, operand and
//!   destination ranges, level-monotone scheduling, the per-chain LIFO
//!   scratch discipline (no read-before-write) and chain-table consistency.
//!   Violations are data, not panics, so `flh-lint` can surface them as
//!   stable FLH diagnostics and negative tests can assert exact codes
//!   against `Program::corrupt_*` mutations.
//! * [`ternary_constants`] + [`dead_instructions`] — a 0/1/X abstract
//!   interpretation. Executing the program over [`Dual64`] with every source
//!   unknown is exact Kleene constant propagation through the fused opcode
//!   table; backward liveness over the code stream then finds instructions
//!   whose results can never reach an observation point.
//! * [`observability`] — testability in reverse level order. `obs_struct`
//!   is plain reverse reachability from the observation roots; `obs_sens`
//!   additionally rules out propagation paths that the constant lattice
//!   proves unsensitizable (a definite side pin blocks the only path
//!   through a gate).
//! * [`redundant_stem_faults`] — FIRE stem-conflict redundancy on top of
//!   the lattice: stem faults that need a stem at 0 and also at 1, which
//!   reconvergent fanout creates and the lattice cannot see (DESIGN.md §2m).
//!
//! # Soundness of `obs_sens`
//!
//! The ternary fixpoint is computed with every primary input and flip-flop
//! unknown. Pinning an X-valued net to 0 or 1 — which is what activating a
//! fault at a non-constant site does — is an information *refinement*: every
//! net the fixpoint proved definite keeps that exact value in the faulty
//! machine. Side-pin blocking therefore only ever uses facts that still hold
//! when the fault is present. The one case refinement does not cover is a
//! fault that forces a *constant* net to its opposite value; classification
//! code must fall back to the structural reachability answer there (see
//! `flh-atpg`'s prune module).

use crate::bytecode::{Program, BATCH_INSTS, INST_WORDS, MAX_FUSED_OPERANDS};
use crate::cell::{CellKind, Dual64};
use crate::compiled::CompiledCircuit;

// ---------------------------------------------------------------------------
// Bytecode verifier
// ---------------------------------------------------------------------------

/// What a verifier violation proves about the program. Each kind maps 1:1 to
/// a stable `flh-lint` code (FLH015..FLH023); keep the set append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerifyKind {
    /// The code stream or batch table is structurally broken: ragged stream,
    /// batch bounds out of range/misaligned, gaps or overlaps in the tiling,
    /// oversized batch, or an instruction count that disagrees with the
    /// stream length. Structure violations abort the walk (everything later
    /// would cascade).
    Truncated,
    /// An opcode byte outside the fused opcode table.
    BadOpcode,
    /// An operand count outside the opcode's legal arity range.
    BadArity,
    /// An operand slot past the end of the register file.
    OperandRange,
    /// A destination slot past the end of the register file.
    DstRange,
    /// A scratch operand read before any instruction of the same chain wrote
    /// it — the LIFO regalloc discipline guarantees this never happens in
    /// emitted code.
    ScratchReadBeforeWrite,
    /// A cell operand whose level is not strictly below the batch level, so
    /// the level-major schedule would read it before it is computed.
    OperandLevel,
    /// A batch whose level is out of range or non-monotone, or a root
    /// destination scheduled in a batch of the wrong level.
    BatchLevel,
    /// The chain table disagrees with the code stream (wrong bounds, wrong
    /// terminating destination, a chain for a source cell) or the hold bit
    /// disagrees with the destination cell's kind.
    ChainMismatch,
}

impl VerifyKind {
    /// Short stable label used in diagnostics and reports.
    pub fn label(self) -> &'static str {
        match self {
            VerifyKind::Truncated => "truncated",
            VerifyKind::BadOpcode => "bad-opcode",
            VerifyKind::BadArity => "bad-arity",
            VerifyKind::OperandRange => "operand-range",
            VerifyKind::DstRange => "dst-range",
            VerifyKind::ScratchReadBeforeWrite => "scratch-read-before-write",
            VerifyKind::OperandLevel => "operand-level",
            VerifyKind::BatchLevel => "batch-level",
            VerifyKind::ChainMismatch => "chain-mismatch",
        }
    }
}

/// One proven violation of the bytecode contract.
#[derive(Clone, Debug)]
pub struct VerifyViolation {
    /// Which invariant broke.
    pub kind: VerifyKind,
    /// Stream-order instruction index, when the violation is per-instruction.
    pub inst: Option<usize>,
    /// Destination cell id, when the offending instruction roots a cell.
    pub cell: Option<u32>,
    /// Human-readable detail (slot numbers, levels, expected vs found).
    pub message: String,
}

/// Result of [`verify_program`]: the violation list plus the number of
/// individual checks performed (the `lint.verifier_checks` counter).
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Every proven contract violation, in stream order.
    pub violations: Vec<VerifyViolation>,
    /// Individual assertions evaluated while walking the program.
    pub checks: u64,
}

impl VerifyReport {
    /// True when the program satisfies the full bytecode contract.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn push(&mut self, kind: VerifyKind, inst: Option<usize>, cell: Option<u32>, message: String) {
        self.violations.push(VerifyViolation {
            kind,
            inst,
            cell,
            message,
        });
    }
}

/// Decode every instruction of `program` and prove the emission contract
/// against `compiled` (the circuit it was lowered from).
///
/// Structure violations ([`VerifyKind::Truncated`]) abort the walk early —
/// a ragged stream would turn every downstream check into noise — so a
/// corrupted program maps to exactly the code of the first broken layer.
pub fn verify_program(compiled: &CompiledCircuit, program: &Program) -> VerifyReport {
    let mut report = VerifyReport::default();
    let code = program.raw_code();
    let n_cells = program.cell_words();
    let n_scratch = program.scratch_words();
    let n_slots = (n_cells + n_scratch) as u32;

    // --- Layer 1: stream and batch structure -----------------------------
    report.checks += 1;
    if code.len() % INST_WORDS != 0 {
        report.push(
            VerifyKind::Truncated,
            None,
            None,
            format!(
                "code stream of {} words is not a multiple of the {INST_WORDS}-word stride",
                code.len()
            ),
        );
        return report;
    }
    report.checks += 1;
    if program.inst_count() * INST_WORDS != code.len() {
        report.push(
            VerifyKind::Truncated,
            None,
            None,
            format!(
                "instruction count {} disagrees with a {}-word stream",
                program.inst_count(),
                code.len()
            ),
        );
        return report;
    }
    let mut cursor = 0u32;
    for (bi, b) in program.batches().iter().enumerate() {
        report.checks += 4;
        let aligned = b.start as usize % INST_WORDS == 0 && b.end as usize % INST_WORDS == 0;
        let sized = b.start < b.end
            && b.end as usize <= code.len()
            && (b.end - b.start) / INST_WORDS as u32 <= BATCH_INSTS;
        if b.start != cursor || !aligned || !sized {
            report.push(
                VerifyKind::Truncated,
                None,
                None,
                format!(
                    "batch {bi} [{}, {}) breaks the contiguous tiling of a {}-word stream",
                    b.start,
                    b.end,
                    code.len()
                ),
            );
            return report;
        }
        cursor = b.end;
    }
    report.checks += 1;
    if cursor as usize != code.len() {
        report.push(
            VerifyKind::Truncated,
            None,
            None,
            format!("batches cover {cursor} of {} code words", code.len()),
        );
        return report;
    }

    // --- Layer 2: per-instruction walk ------------------------------------
    let mut scratch_written = vec![false; n_scratch];
    let mut prev_level = 0u32;
    let mut inst_index = 0usize;
    for (bi, b) in program.batches().iter().enumerate() {
        report.checks += 2;
        if b.level < 1 || b.level as usize > compiled.levels() {
            report.push(
                VerifyKind::BatchLevel,
                None,
                None,
                format!(
                    "batch {bi} has level {} outside 1..={}",
                    b.level,
                    compiled.levels()
                ),
            );
        }
        if b.level < prev_level {
            report.push(
                VerifyKind::BatchLevel,
                None,
                None,
                format!(
                    "batch {bi} level {} below predecessor {prev_level}",
                    b.level
                ),
            );
        }
        prev_level = b.level;

        let window = &code[b.start as usize..b.end as usize];
        for inst in window.chunks_exact(INST_WORDS) {
            let d = program.decode_inst(inst_index);
            debug_assert_eq!(inst[1], d.dst);

            report.checks += 1;
            let Some(op) = d.opcode else {
                report.push(
                    VerifyKind::BadOpcode,
                    Some(inst_index),
                    None,
                    format!(
                        "opcode byte 0x{:02x} is not in the fused table",
                        d.opcode_raw
                    ),
                );
                inst_index += 1;
                continue;
            };
            report.checks += 1;
            if !op.arity_range().contains(&d.nops) {
                report.push(
                    VerifyKind::BadArity,
                    Some(inst_index),
                    None,
                    format!(
                        "{op:?} takes {:?} operands, instruction encodes {}",
                        op.arity_range(),
                        d.nops
                    ),
                );
            }

            report.checks += 1;
            let dst_cell = if d.dst < n_cells as u32 {
                Some(d.dst)
            } else {
                None
            };
            if d.dst >= n_slots {
                report.push(
                    VerifyKind::DstRange,
                    Some(inst_index),
                    None,
                    format!("destination slot {} past register file of {n_slots}", d.dst),
                );
            } else if let Some(cell) = dst_cell {
                report.checks += 2;
                if compiled.level_of(cell) != b.level {
                    report.push(
                        VerifyKind::BatchLevel,
                        Some(inst_index),
                        Some(cell),
                        format!(
                            "cell at level {} rooted inside a level-{} batch",
                            compiled.level_of(cell),
                            b.level
                        ),
                    );
                }
                let is_hold = compiled.kind(cell).is_hold_element();
                if d.hold != is_hold {
                    report.push(
                        VerifyKind::ChainMismatch,
                        Some(inst_index),
                        Some(cell),
                        format!(
                            "hold bit {} but destination kind {:?}",
                            d.hold,
                            compiled.kind(cell)
                        ),
                    );
                }
            }

            for k in 0..d.nops.min(MAX_FUSED_OPERANDS) {
                let slot = d.operands[k];
                report.checks += 1;
                if slot >= n_slots {
                    report.push(
                        VerifyKind::OperandRange,
                        Some(inst_index),
                        dst_cell,
                        format!("operand {k} slot {slot} past register file of {n_slots}"),
                    );
                } else if slot < n_cells as u32 {
                    report.checks += 1;
                    if compiled.level_of(slot) >= b.level {
                        report.push(
                            VerifyKind::OperandLevel,
                            Some(inst_index),
                            dst_cell,
                            format!(
                                "operand {k} reads cell {slot} at level {} from a level-{} batch",
                                compiled.level_of(slot),
                                b.level
                            ),
                        );
                    }
                } else {
                    report.checks += 1;
                    if !scratch_written[slot as usize - n_cells] {
                        report.push(
                            VerifyKind::ScratchReadBeforeWrite,
                            Some(inst_index),
                            dst_cell,
                            format!(
                                "operand {k} reads scratch word {} before any write in its chain",
                                slot - n_cells as u32
                            ),
                        );
                    }
                }
            }

            // The scratch free list is chain-local: a root destination ends
            // the chain and invalidates every temporary.
            if d.dst < n_slots {
                if dst_cell.is_some() {
                    scratch_written.fill(false);
                } else {
                    scratch_written[d.dst as usize - n_cells] = true;
                }
            }
            inst_index += 1;
        }
    }

    // --- Layer 3: chain table ---------------------------------------------
    for cell in 0..n_cells as u32 {
        let (start, len) = program.chain_raw(cell);
        report.checks += 1;
        if compiled.level_of(cell) == 0 {
            if (start, len) != (u32::MAX, 0) {
                report.push(
                    VerifyKind::ChainMismatch,
                    None,
                    Some(cell),
                    format!("source cell has chain entry ({start}, {len})"),
                );
            }
            continue;
        }
        report.checks += 2;
        let aligned = start as usize % INST_WORDS == 0 && len as usize % INST_WORDS == 0;
        if start == u32::MAX
            || len == 0
            || !aligned
            || (start as usize).saturating_add(len as usize) > code.len()
        {
            report.push(
                VerifyKind::ChainMismatch,
                None,
                Some(cell),
                format!(
                    "chain entry ({start}, {len}) out of a {}-word stream",
                    code.len()
                ),
            );
            continue;
        }
        let last = (start + len) as usize / INST_WORDS - 1;
        report.checks += 1;
        if program.decode_inst(last).dst != cell {
            report.push(
                VerifyKind::ChainMismatch,
                Some(last),
                Some(cell),
                format!(
                    "chain ends writing slot {} instead of its cell",
                    program.decode_inst(last).dst
                ),
            );
        }
    }

    report
}

// ---------------------------------------------------------------------------
// Ternary abstract interpretation
// ---------------------------------------------------------------------------

/// Exact Kleene constant propagation through the compiled form: execute the
/// program over [`Dual64`] with every source unknown and read back which
/// cells settle to a definite value.
///
/// `Some(v)` means the cell computes `v` on every input vector; `None` means
/// the abstract interpreter cannot prove it constant. Sources (primary
/// inputs, flip-flops) are always `None`.
pub fn ternary_constants(program: &Program) -> Vec<Option<bool>> {
    let mut values = vec![Dual64::all_x(); program.cell_words()];
    let mut scratch = vec![Dual64::all_x(); program.scratch_words()];
    program.execute(&mut values, &mut scratch);
    values
        .iter()
        .map(|v| {
            if v.one & 1 != 0 {
                Some(true)
            } else if v.zero & 1 != 0 {
                Some(false)
            } else {
                None
            }
        })
        .collect()
}

/// Backward-liveness result over the code stream.
#[derive(Clone, Debug, Default)]
pub struct DeadCodeReport {
    /// Stream-order indices of instructions whose result can never reach an
    /// observation point (primary output or flip-flop D pin).
    pub dead: Vec<usize>,
    /// Instructions proven live.
    pub live: usize,
}

/// Backward liveness over the code stream: an instruction is live iff its
/// destination is demanded by an observation root (an `Output` marker cell
/// or a flip-flop's D driver) through later instructions. Scratch
/// destinations are killed on (re)definition; cell destinations are
/// single-assignment and never killed.
pub fn dead_instructions(compiled: &CompiledCircuit, program: &Program) -> DeadCodeReport {
    let n_cells = program.cell_words();
    let mut needed_cell = vec![false; n_cells];
    let mut needed_scratch = vec![false; program.scratch_words()];
    for &m in compiled.outputs() {
        needed_cell[m as usize] = true;
        needed_cell[compiled.fanin(m)[0] as usize] = true;
    }
    for &f in compiled.flip_flops() {
        needed_cell[compiled.fanin(f)[0] as usize] = true;
    }

    let mut report = DeadCodeReport::default();
    for i in (0..program.inst_count()).rev() {
        let d = program.decode_inst(i);
        let dst = d.dst as usize;
        let live = if dst < n_cells {
            needed_cell[dst]
        } else {
            let l = needed_scratch[dst - n_cells];
            needed_scratch[dst - n_cells] = false;
            l
        };
        if live {
            report.live += 1;
            for k in 0..d.nops.min(MAX_FUSED_OPERANDS) {
                let s = d.operands[k] as usize;
                if s < n_cells {
                    needed_cell[s] = true;
                } else {
                    needed_scratch[s - n_cells] = true;
                }
            }
        } else {
            report.dead.push(i);
        }
    }
    report.dead.reverse();
    report
}

/// Forward X-taint over the compiled form: which cells can see a flip-flop
/// response value during the V1-hold window. Mirrors the netlist-level
/// `hold-leak` walk exactly — flip-flop sources start tainted, taint is the
/// OR of operand taints, and a destination whose instruction carries the
/// hold bit (or whose cell is in the `frozen` supply-gated set) clips taint
/// to false. Agreement between the two walks is a lint assertion (FLH026).
pub fn compiled_hold_taint(program: &Program, ff_sources: &[bool], frozen: &[bool]) -> Vec<bool> {
    let n_cells = program.cell_words();
    debug_assert_eq!(ff_sources.len(), n_cells);
    debug_assert_eq!(frozen.len(), n_cells);
    let mut cell_taint = ff_sources.to_vec();
    let mut scratch_taint = vec![false; program.scratch_words()];
    for i in 0..program.inst_count() {
        let d = program.decode_inst(i);
        let mut taint = false;
        for k in 0..d.nops.min(MAX_FUSED_OPERANDS) {
            let s = d.operands[k] as usize;
            taint |= if s < n_cells {
                cell_taint[s]
            } else {
                scratch_taint[s - n_cells]
            };
        }
        let dst = d.dst as usize;
        if dst < n_cells {
            cell_taint[dst] = taint && !d.hold && !frozen[dst];
        } else {
            scratch_taint[dst - n_cells] = taint;
        }
    }
    cell_taint
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Structural and sensitization-aware observability per cell.
#[derive(Clone, Debug)]
pub struct Observability {
    /// Cell can reach a primary output or flip-flop D pin through fanout
    /// edges (pure reverse reachability; no value reasoning).
    pub obs_struct: Vec<bool>,
    /// Cell can reach an observation point through a path the constant
    /// lattice does not prove unsensitizable. Always implies `obs_struct`.
    /// Sound only for faults at non-constant sites (see the module docs).
    pub obs_sens: Vec<bool>,
    /// Cell directly drives an `Output` marker or a flip-flop D pin.
    pub observed_driver: Vec<bool>,
}

/// Is pin `pin` of a gate of `kind` blocked by the definite side-pin values
/// in `side` (one entry per fanin pin, `side[pin]` ignored)? "Blocked" means
/// no value change on that pin can change the gate output while the side
/// pins hold their proven constants — and since those constants survive any
/// refinement of the sources, a blocked pin is blocked in every faulty
/// machine whose fault site was unknown to the lattice.
pub fn pin_blocked(kind: CellKind, pin: usize, side: &[Option<bool>]) -> bool {
    use CellKind::*;
    debug_assert_eq!(side.len(), kind.arity());
    let is0 = |p: usize| side[p] == Some(false);
    let is1 = |p: usize| side[p] == Some(true);
    match kind {
        And2 | And3 | And4 | Nand2 | Nand3 | Nand4 | AndN(_) | NandN(_) => {
            (0..side.len()).any(|p| p != pin && is0(p))
        }
        Or2 | Or3 | Or4 | Nor2 | Nor3 | Nor4 | OrN(_) | NorN(_) => {
            (0..side.len()).any(|p| p != pin && is1(p))
        }
        // XOR-family pins are always sensitized; single-input cells pass
        // every change through.
        Xor2 | Xnor2 | XorN(_) => false,
        Buf | Inv | Output | Dff | ScanDff | HoldLatch | HoldMux => false,
        Input | Const0 | Const1 => false,
        // !((a & b) | c)
        Aoi21 => match pin {
            0 => is0(1) || is1(2),
            1 => is0(0) || is1(2),
            _ => is1(0) && is1(1),
        },
        // !((a & b) | (c & d))
        Aoi22 => match pin {
            0 => is0(1) || (is1(2) && is1(3)),
            1 => is0(0) || (is1(2) && is1(3)),
            2 => is0(3) || (is1(0) && is1(1)),
            _ => is0(2) || (is1(0) && is1(1)),
        },
        // !((a | b) & c)
        Oai21 => match pin {
            0 => is1(1) || is0(2),
            1 => is1(0) || is0(2),
            _ => is0(0) && is0(1),
        },
        // !((a | b) & (c | d))
        Oai22 => match pin {
            0 => is1(1) || (is0(2) && is0(3)),
            1 => is1(0) || (is0(2) && is0(3)),
            2 => is1(3) || (is0(0) && is0(1)),
            _ => is1(2) || (is0(0) && is0(1)),
        },
        // s ? b : a — the select pin is dead only when both data pins are
        // proven equal.
        Mux2 => match pin {
            0 => is1(2),
            1 => is0(2),
            _ => matches!((side[0], side[1]), (Some(a), Some(b)) if a == b),
        },
    }
}

/// Compute [`Observability`] against the constant lattice from
/// [`ternary_constants`] (pass all-`None` for a purely structural answer).
pub fn observability(compiled: &CompiledCircuit, constants: &[Option<bool>]) -> Observability {
    let n = compiled.cell_count() as usize;
    debug_assert_eq!(constants.len(), n);
    let mut observed_driver = vec![false; n];
    for &m in compiled.outputs() {
        observed_driver[compiled.fanin(m)[0] as usize] = true;
    }
    for &f in compiled.flip_flops() {
        observed_driver[compiled.fanin(f)[0] as usize] = true;
    }

    // Reverse topological sweep: evaluable cells by descending level, then
    // the level-0 sources (whose readers all sit at higher levels).
    let mut sweep: Vec<u32> = compiled.order().iter().rev().copied().collect();
    sweep.extend((0..n as u32).filter(|&c| compiled.level_of(c) == 0));

    let mut obs_struct = vec![false; n];
    let mut obs_sens = vec![false; n];
    let mut side = Vec::new();
    for &c in &sweep {
        let ci = c as usize;
        let mut st = observed_driver[ci];
        let mut se = st;
        for &g in compiled.readers(c) {
            let gk = compiled.kind(g);
            // Observation through a marker or flip-flop is exactly the
            // `observed_driver` root above; nothing propagates past it.
            if matches!(gk, CellKind::Output | CellKind::Dff | CellKind::ScanDff) {
                continue;
            }
            let gi = g as usize;
            st |= obs_struct[gi];
            if obs_sens[gi] && !se {
                let fanin = compiled.fanin(g);
                side.clear();
                side.extend(fanin.iter().map(|&f| constants[f as usize]));
                se |= fanin
                    .iter()
                    .enumerate()
                    .any(|(p, &f)| f == c && !pin_blocked(gk, p, &side));
            }
        }
        obs_struct[ci] = st;
        // A cell the lattice proves constant carries no observable
        // difference under any refinement of the sources.
        obs_sens[ci] = se && constants[ci].is_none();
    }

    Observability {
        obs_struct,
        obs_sens,
        observed_driver,
    }
}

// ---------------------------------------------------------------------------
// Bundle
// ---------------------------------------------------------------------------

/// All value-independent analyses computed in one call — the input to fault
/// pruning (`flh-atpg`), the lint passes and the `flh analyze` report.
#[derive(Clone, Debug)]
pub struct StaticAnalysis {
    /// Constant lattice per cell ([`ternary_constants`]).
    pub constants: Vec<Option<bool>>,
    /// Backward liveness over the code stream ([`dead_instructions`]).
    pub dead: DeadCodeReport,
    /// Structural + sensitization observability ([`observability`]).
    pub obs: Observability,
}

/// Run the abstract interpreter, liveness and observability against a
/// lowered program. Does not include [`verify_program`] — callers decide
/// whether verification failures should gate the rest.
pub fn analyze(compiled: &CompiledCircuit, program: &Program) -> StaticAnalysis {
    let constants = ternary_constants(program);
    let dead = dead_instructions(compiled, program);
    let obs = observability(compiled, &constants);
    StaticAnalysis {
        constants,
        dead,
        obs,
    }
}

// ---------------------------------------------------------------------------
// FIRE stem-conflict redundancy (DESIGN.md §2m)
// ---------------------------------------------------------------------------

/// Logic value of a cell during implication; `X` is unknown.
const X: u8 = 2;

/// How a cell takes part in implication and propagation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A gate with a truth table (an index into the table list).
    Gate(u8),
    /// A gate kind with no truth table (the generic wide gates): it implies
    /// nothing and never blocks a difference.
    Opaque,
    /// A source, a constant or an observation cell (output marker,
    /// flip-flop D pin): no implication crosses it.
    Boundary,
}

/// Truth table of a gate with at most four pins. Bit `m` of `out` is the
/// output on the input combination whose pin `p` is bit `p` of `m`.
/// `fixed[mask]` has bit `vals` set when every combination that agrees with
/// `vals` on the pins in `mask` gives the same output, i.e. those known
/// pins fix the output on their own.
struct Table {
    arity: usize,
    out: u16,
    fixed: [u16; 16],
}

impl Table {
    fn of(kind: CellKind) -> Table {
        let arity = kind.arity();
        debug_assert!(arity <= 4);
        let mut out = 0u16;
        for m in 0..1usize << arity {
            let pins: Vec<bool> = (0..arity).map(|p| m >> p & 1 == 1).collect();
            out |= u16::from(kind.eval_bool(&pins)) << m;
        }
        let mut fixed = [0u16; 16];
        for (mask, fixed) in fixed.iter_mut().enumerate().take(1 << arity) {
            for vals in (0..1usize << arity).filter(|v| v & !mask == 0) {
                let outs = (0..1usize << arity)
                    .filter(|m| m & mask == vals)
                    .fold(0u8, |acc, m| acc | 1 << (out >> m & 1));
                if outs != 3 {
                    *fixed |= 1 << vals;
                }
            }
        }
        Table { arity, out, fixed }
    }

    /// Do the known pins in `mask` (values in `vals`) fix the output?
    #[inline]
    fn fixes(&self, mask: usize, vals: usize) -> bool {
        self.fixed[mask] >> (vals & mask) & 1 == 1
    }
}

/// The circuit as the FIRE pass sees it: a role per cell, the distinct
/// truth tables, and which cells an observation point reads.
struct Frame<'c> {
    compiled: &'c CompiledCircuit,
    roles: Vec<Role>,
    tables: Vec<Table>,
    observed_driver: Vec<bool>,
}

impl<'c> Frame<'c> {
    fn new(compiled: &'c CompiledCircuit) -> Self {
        use CellKind::*;
        let mut kinds: Vec<CellKind> = Vec::new();
        let roles = compiled
            .kinds()
            .iter()
            .map(|&kind| match kind {
                Input | Output | Const0 | Const1 | Dff | ScanDff => Role::Boundary,
                k if k.is_generic() => Role::Opaque,
                // Hold elements evaluate as buffers, as in the test view.
                k => Role::Gate(match kinds.iter().position(|&seen| seen == k) {
                    Some(i) => i as u8,
                    None => {
                        kinds.push(k);
                        kinds.len() as u8 - 1
                    }
                }),
            })
            .collect();
        let mut observed_driver = vec![false; compiled.cell_count()];
        for &c in compiled.outputs().iter().chain(compiled.flip_flops()) {
            observed_driver[compiled.fanin(c)[0] as usize] = true;
        }
        Frame {
            compiled,
            roles,
            tables: kinds.into_iter().map(Table::of).collect(),
            observed_driver,
        }
    }

    /// Known-pin mask and values of gate `g` under `value`, counting only
    /// the pins `keep` accepts.
    #[inline]
    fn known_pins(&self, g: u32, value: &[u8], keep: impl Fn(u32) -> bool) -> (usize, usize) {
        let (mut mask, mut vals) = (0, 0);
        for (p, &f) in self.compiled.fanin(g).iter().enumerate() {
            let v = value[f as usize];
            if v != X && keep(f) {
                mask |= 1 << p;
                vals |= (v as usize) << p;
            }
        }
        (mask, vals)
    }
}

/// Forward and backward implication of one assumption on top of the
/// constant lattice. Every value it derives holds on every input vector
/// whose good machine satisfies the assumption.
struct Implication {
    value: Vec<u8>,
    /// Cells assigned since the lattice, in assignment order; also the
    /// implication queue.
    trail: Vec<u32>,
}

impl Implication {
    fn new(constants: &[Option<bool>]) -> Self {
        Implication {
            value: constants.iter().map(|c| c.map_or(X, u8::from)).collect(),
            trail: Vec::new(),
        }
    }

    /// Reset to the lattice, assume `cell = v` and imply to a fixpoint.
    /// `false` means a conflict: no input vector has `cell = v`.
    fn assume(&mut self, frame: &Frame<'_>, cell: u32, v: bool) -> bool {
        for c in self.trail.drain(..) {
            self.value[c as usize] = X;
        }
        if !self.set(cell, v) {
            return false;
        }
        let mut head = 0;
        while head < self.trail.len() {
            let c = self.trail[head];
            head += 1;
            if !self.check(frame, c) {
                return false;
            }
            for &g in frame.compiled.readers(c) {
                if !self.check(frame, g) {
                    return false;
                }
            }
        }
        true
    }

    fn set(&mut self, cell: u32, v: bool) -> bool {
        match self.value[cell as usize] {
            X => {
                self.value[cell as usize] = u8::from(v);
                self.trail.push(cell);
                true
            }
            known => known == u8::from(v),
        }
    }

    /// Local consistency of gate `g`: a pin or the output is implied when
    /// every input combination that fits the known pins agrees on it; no
    /// fitting combination is a conflict.
    fn check(&mut self, frame: &Frame<'_>, g: u32) -> bool {
        let Role::Gate(t) = frame.roles[g as usize] else {
            return true;
        };
        let table = &frame.tables[t as usize];
        let (mask, vals) = frame.known_pins(g, &self.value, |_| true);
        let out = self.value[g as usize];
        // Over the fitting combinations: the pins 1 in all of them, the
        // pins 1 in any, and the outputs seen (bit `o` for output `o`).
        let (mut all, mut any, mut outs) = (usize::MAX, 0usize, 0u8);
        for m in (0..1usize << table.arity).filter(|m| m & mask == vals) {
            let o = (table.out >> m & 1) as u8;
            if out == X || o == out {
                all &= m;
                any |= m;
                outs |= 1 << o;
            }
        }
        if outs == 0 {
            return false;
        }
        for (p, &f) in frame.compiled.fanin(g).iter().enumerate() {
            let (always, ever) = (all >> p & 1 == 1, any >> p & 1 == 1);
            if mask >> p & 1 == 0 && always == ever && !self.set(f, always) {
                return false;
            }
        }
        out != X || outs == 3 || self.set(g, outs == 2)
    }
}

/// Advance a stamp generation, clearing the stamps when it would wrap.
fn next_gen(gen: &mut u32, stamps: &mut [u32]) -> u32 {
    if *gen == u32::MAX {
        stamps.fill(0);
        *gen = 0;
    }
    *gen += 1;
    *gen
}

/// Exact unobservability of one line under one implication: the line's
/// fanout cone is stamped, then a walk from the line follows every reader
/// whose output the known pins *outside* the cone do not fix.
struct ConeWalk {
    cone: Vec<u32>,
    reach: Vec<u32>,
    /// The cell whose cone `cone` holds at generation `cone_gen`.
    cone_of: Option<u32>,
    cone_gen: u32,
    reach_gen: u32,
    stack: Vec<u32>,
}

impl ConeWalk {
    fn new(n: usize) -> Self {
        ConeWalk {
            cone: vec![0; n],
            reach: vec![0; n],
            cone_of: None,
            cone_gen: 0,
            reach_gen: 0,
            stack: Vec::new(),
        }
    }

    fn stamp_cone(&mut self, frame: &Frame<'_>, line: u32) {
        if self.cone_of == Some(line) {
            return;
        }
        let gen = next_gen(&mut self.cone_gen, &mut self.cone);
        self.cone_of = Some(line);
        self.cone[line as usize] = gen;
        self.stack.push(line);
        while let Some(c) = self.stack.pop() {
            for &g in frame.compiled.readers(c) {
                if frame.roles[g as usize] != Role::Boundary && self.cone[g as usize] != gen {
                    self.cone[g as usize] = gen;
                    self.stack.push(g);
                }
            }
        }
    }

    /// Is every path from `line` to an observation point blocked by a gate
    /// whose output `value`'s known pins outside `line`'s fanout cone fix?
    /// Only those pins keep their good value with `line` faulted.
    fn unobservable(&mut self, frame: &Frame<'_>, line: u32, value: &[u8]) -> bool {
        self.stamp_cone(frame, line);
        let cone_gen = self.cone_gen;
        let gen = next_gen(&mut self.reach_gen, &mut self.reach);
        self.reach[line as usize] = gen;
        self.stack.clear();
        self.stack.push(line);
        while let Some(c) = self.stack.pop() {
            if frame.observed_driver[c as usize] {
                self.stack.clear();
                return false;
            }
            for &g in frame.compiled.readers(c) {
                let gi = g as usize;
                if frame.roles[gi] == Role::Boundary || self.reach[gi] == gen {
                    continue;
                }
                self.reach[gi] = gen;
                let blocked = match frame.roles[gi] {
                    Role::Gate(t) => {
                        let outside = |f: u32| self.cone[f as usize] != cone_gen;
                        let (mask, vals) = frame.known_pins(g, value, outside);
                        frame.tables[t as usize].fixes(mask, vals)
                    }
                    _ => false,
                };
                if !blocked {
                    self.stack.push(g);
                }
            }
        }
        true
    }
}

/// A superset of the unobservable cells under one implication: like
/// [`observability`], but any known side pin may block, wherever its driver
/// lies. Ignoring the cone rule only blocks more, so a cell this calls
/// observable is observable. Known pins only ever add blocking, so the
/// plane under an implication is the lattice-only plane minus the cells an
/// update clears, level by level down from the implied cells' readers.
#[derive(Clone)]
struct Observable {
    obs: Vec<bool>,
    /// Cells the last update cleared.
    cleared: Vec<u32>,
    /// Update queue, one bucket per level, deduplicated by stamp.
    buckets: Vec<Vec<u32>>,
    queued: Vec<u32>,
    gen: u32,
}

impl Observable {
    fn new(frame: &Frame<'_>, lattice: &[u8]) -> Self {
        let compiled = frame.compiled;
        let n = compiled.cell_count();
        let mut plane = Observable {
            obs: vec![false; n],
            cleared: Vec::new(),
            buckets: vec![Vec::new(); compiled.levels() + 1],
            queued: vec![0; n],
            gen: 0,
        };
        let sources = (0..n as u32).filter(|&c| compiled.level_of(c) == 0);
        for c in compiled.order().iter().rev().copied().chain(sources) {
            plane.obs[c as usize] = plane.observable(frame, lattice, c);
        }
        plane
    }

    /// Does `c` drive an observation point, or an observable reader whose
    /// output the known pins other than `c`'s pin do not fix?
    fn observable(&self, frame: &Frame<'_>, value: &[u8], c: u32) -> bool {
        let compiled = frame.compiled;
        frame.observed_driver[c as usize]
            || compiled
                .readers(c)
                .iter()
                .any(|&g| match frame.roles[g as usize] {
                    Role::Boundary => false,
                    Role::Opaque => self.obs[g as usize],
                    Role::Gate(t) => {
                        self.obs[g as usize] && {
                            let (mask, vals) = frame.known_pins(g, value, |_| true);
                            let table = &frame.tables[t as usize];
                            compiled
                                .fanin(g)
                                .iter()
                                .enumerate()
                                .any(|(p, &f)| f == c && !table.fixes(mask & !(1 << p), vals))
                        }
                    }
                })
    }

    fn queue(&mut self, frame: &Frame<'_>, c: u32) {
        if self.obs[c as usize] && self.queued[c as usize] != self.gen {
            self.queued[c as usize] = self.gen;
            self.buckets[frame.compiled.level_of(c) as usize].push(c);
        }
    }

    /// Move the plane to the implication `value`, whose cells off the
    /// lattice are `trail`.
    fn update(&mut self, frame: &Frame<'_>, value: &[u8], trail: &[u32]) {
        for c in self.cleared.drain(..) {
            self.obs[c as usize] = true;
        }
        next_gen(&mut self.gen, &mut self.queued);
        let compiled = frame.compiled;
        let mut top = 0;
        for &t in trail {
            for &g in compiled.readers(t) {
                if let Role::Gate(_) = frame.roles[g as usize] {
                    top = top.max(compiled.level_of(g) as usize);
                    for &f in compiled.fanin(g) {
                        self.queue(frame, f);
                    }
                }
            }
        }
        for level in (0..top).rev() {
            while let Some(c) = self.buckets[level].pop() {
                if self.observable(frame, value, c) {
                    continue;
                }
                self.obs[c as usize] = false;
                self.cleared.push(c);
                if frame.roles[c as usize] != Role::Boundary {
                    for &f in compiled.fanin(c) {
                        self.queue(frame, f);
                    }
                }
            }
        }
    }
}

/// Stem faults the FIRE pass proves undetectable: see
/// [`redundant_stem_faults`].
#[derive(Clone, Debug)]
pub struct Redundancy {
    /// Bit `a` of `flags[c]`: cell `c` stuck-at `a` is redundant.
    flags: Vec<u8>,
    stems: usize,
}

impl Redundancy {
    /// Is cell `cell` stuck-at `value` detected by no input vector?
    pub fn stuck_redundant(&self, cell: u32, value: bool) -> bool {
        self.flags[cell as usize] >> u8::from(value) & 1 == 1
    }

    /// Stems the pass implied both ways.
    pub fn stems(&self) -> usize {
        self.stems
    }
}

/// FIRE stem-conflict redundancy (Iyer & Abramovici, IEEE TVLSI 1996) on
/// the combinational test view: primary inputs and flip-flop outputs are
/// free sources, output markers and flip-flop D pins are observation
/// points, hold elements are buffers.
///
/// For every stem `s` (a non-constant cell with two or more reading pins)
/// and value `v`, `s = v` is implied forward and backward on top of
/// `constants` ([`ternary_constants`]). `F_v(s)` is the set of stem faults
/// no vector with good `s = v` detects: line `l` stuck-at `a` when the
/// implication sets `l = a`, both faults on `l` when every path from `l` to
/// an observation point passes a gate that known pins outside `l`'s fanout
/// cone fix, and every fault when the implication conflicts. Every vector
/// has `s = 0` or `s = 1`, so each fault in `F_0(s) ∩ F_1(s)` is
/// redundant. Only the faults on lines `targets` marks are decided.
///
/// Per stem and value, the implication touches only the cells it assigns,
/// and a superset of the unobservable cells is updated from their readers
/// alone. A line is a candidate only if it is implied or newly cleared
/// there, or known or unobservable on the lattice alone; only a candidate
/// fault in both supersets gets the exact cone walk. Serial and
/// deterministic; memory is O(cells).
pub fn redundant_stem_faults(
    compiled: &CompiledCircuit,
    constants: &[Option<bool>],
    targets: &[bool],
) -> Redundancy {
    let n = compiled.cell_count();
    debug_assert_eq!(constants.len(), n);
    debug_assert_eq!(targets.len(), n);
    let frame = Frame::new(compiled);
    let mut implied = [Implication::new(constants), Implication::new(constants)];
    let lattice_obs = Observable::new(&frame, &implied[0].value);
    // Lines known or unobservable on the lattice alone stay candidates at
    // every stem; any other line must be implied or cleared by the stem.
    let always: Vec<u32> = (0..n as u32)
        .filter(|&l| {
            targets[l as usize] && (constants[l as usize].is_some() || !lattice_obs.obs[l as usize])
        })
        .collect();
    let mut obs = [lattice_obs.clone(), lattice_obs];
    let mut walk = ConeWalk::new(n);
    let mut flags = vec![0u8; n];
    let mut seen = vec![u32::MAX; n];
    let mut candidates = Vec::new();
    let mut stems = 0;
    for s in 0..n as u32 {
        if constants[s as usize].is_some()
            || compiled.readers(s).len() < 2
            || compiled.kind(s) == CellKind::Output
        {
            continue;
        }
        stems += 1;
        let mut consistent = [false; 2];
        for v in 0..2 {
            consistent[v] = implied[v].assume(&frame, s, v == 1);
            if consistent[v] {
                obs[v].update(&frame, &implied[v].value, &implied[v].trail);
            }
        }
        // A fault needs its line in the candidates of every consistent
        // value; the smaller list of one of them is enough.
        candidates.clear();
        match (0..2)
            .filter(|&v| consistent[v])
            .min_by_key(|&v| implied[v].trail.len() + obs[v].cleared.len())
        {
            None => candidates.extend(0..n as u32),
            Some(v) => {
                let lists = [&implied[v].trail, &obs[v].cleared, &always];
                for &l in lists.into_iter().flatten() {
                    if seen[l as usize] != s {
                        seen[l as usize] = s;
                        candidates.push(l);
                    }
                }
            }
        }
        for &l in &candidates {
            let l = l as usize;
            if !targets[l] || flags[l] == 3 {
                continue;
            }
            let mut exact: [Option<bool>; 2] = [None; 2];
            for a in 0..2u8 {
                if flags[l] >> a & 1 == 1 {
                    continue;
                }
                // Unexcited, or no vector has s = v at all.
                let cheap = |v: usize| !consistent[v] || implied[v].value[l] == a;
                if !(0..2).all(|v| cheap(v) || !obs[v].obs[l]) {
                    continue;
                }
                let redundant = (0..2).all(|v| {
                    cheap(v)
                        || *exact[v].get_or_insert_with(|| {
                            walk.unobservable(&frame, l as u32, &implied[v].value)
                        })
                });
                if redundant {
                    flags[l] |= 1 << a;
                }
            }
        }
    }
    Redundancy { flags, stems }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;

    /// i0, i1 inputs; g = And2(i0, c0) is constant 0; h = Xor2(i0, i1) is
    /// live and observable; d = And2(i0, i1) has no fanout.
    fn fixture() -> Netlist {
        let mut n = Netlist::new("fix");
        let i0 = n.add_input("i0");
        let i1 = n.add_input("i1");
        let c0 = n.add_cell("c0", CellKind::Const0, vec![]);
        let g = n.add_cell("g", CellKind::And2, vec![i0, c0]);
        let h = n.add_cell("h", CellKind::Xor2, vec![i0, i1]);
        n.add_cell("d", CellKind::And2, vec![i0, i1]);
        n.add_output("yg", g);
        n.add_output("yh", h);
        n
    }

    fn lower(n: &Netlist) -> (CompiledCircuit, Program) {
        let c = CompiledCircuit::compile(n).unwrap();
        let p = Program::lower(&c);
        (c, p)
    }

    #[test]
    fn clean_program_verifies() {
        let n = fixture();
        let (c, p) = lower(&n);
        let report = verify_program(&c, &p);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks > 0);
    }

    #[test]
    fn corrupt_opcode_is_rejected() {
        let n = fixture();
        let (c, mut p) = lower(&n);
        p.corrupt_opcode(0, 0xee);
        let report = verify_program(&c, &p);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == VerifyKind::BadOpcode));
    }

    #[test]
    fn constants_fold_through_the_fused_table() {
        let n = fixture();
        let (c, p) = lower(&n);
        let constants = ternary_constants(&p);
        let id = |name: &str| c.id_of(n.find(name).unwrap()) as usize;
        assert_eq!(constants[id("c0")], Some(false));
        assert_eq!(constants[id("g")], Some(false));
        assert_eq!(constants[id("yg")], Some(false));
        assert_eq!(constants[id("h")], None);
        assert_eq!(constants[id("i0")], None);
    }

    #[test]
    fn fanout_free_cone_is_dead_and_observed_cone_live() {
        let n = fixture();
        let (c, p) = lower(&n);
        let report = dead_instructions(&c, &p);
        let dead_cells: Vec<u32> = report.dead.iter().map(|&i| p.decode_inst(i).dst).collect();
        let d = c.id_of(n.find("d").unwrap());
        let h = c.id_of(n.find("h").unwrap());
        assert!(dead_cells.contains(&d));
        assert!(!dead_cells.contains(&h));
    }

    #[test]
    fn blocked_pins_kill_sensitized_observability_only() {
        let n = fixture();
        let (c, p) = lower(&n);
        let a = analyze(&c, &p);
        let id = |name: &str| c.id_of(n.find(name).unwrap()) as usize;
        // i0 reaches outputs through h (XOR, never blocked).
        assert!(a.obs.obs_sens[id("i0")]);
        // g is constant: structurally observed, never sensitized.
        assert!(a.obs.obs_struct[id("g")]);
        assert!(!a.obs.obs_sens[id("g")]);
        // The constant side pin blocks nothing for i0 (XOR path exists), but
        // c0 only feeds the AND whose output is constant.
        assert!(!a.obs.obs_sens[id("c0")]);
        // d has no fanout at all.
        assert!(!a.obs.obs_struct[id("d")]);
        assert!(!a.obs.obs_sens[id("d")]);
    }

    #[test]
    fn hold_taint_matches_a_hand_walk() {
        // ff -> hold -> g(and with i0); taint must stop at the hold cell.
        let mut n = Netlist::new("taint");
        let i0 = n.add_input("i0");
        let ff = n.add_cell("ff", CellKind::Dff, vec![i0]);
        let hold = n.add_cell("hold", CellKind::HoldLatch, vec![ff]);
        let g = n.add_cell("g", CellKind::And2, vec![hold, i0]);
        let leak = n.add_cell("leak", CellKind::And2, vec![ff, i0]);
        n.add_output("yg", g);
        n.add_output("yl", leak);
        let (c, p) = lower(&n);
        let mut ff_src = vec![false; c.cell_count() as usize];
        for &f in c.flip_flops() {
            ff_src[f as usize] = true;
        }
        let frozen = vec![false; c.cell_count() as usize];
        let taint = compiled_hold_taint(&p, &ff_src, &frozen);
        let id = |cid: crate::CellId| c.id_of(cid) as usize;
        assert!(taint[id(ff)]);
        assert!(!taint[id(hold)], "hold bit must clip taint");
        assert!(!taint[id(g)]);
        assert!(taint[id(leak)], "ungated path must stay tainted");
    }

    #[test]
    fn fire_truth_tables_agree_with_pin_blocking() {
        use CellKind::*;
        let kinds = [
            Buf, Inv, HoldLatch, HoldMux, And2, And3, And4, Nand2, Nand3, Nand4, Or2, Or3, Or4,
            Nor2, Nor3, Nor4, Xor2, Xnor2, Aoi21, Aoi22, Oai21, Oai22, Mux2,
        ];
        for kind in kinds {
            let table = Table::of(kind);
            let k = kind.arity();
            for pin in 0..k {
                for code in 0..3usize.pow(k as u32) {
                    let side: Vec<Option<bool>> = (0..k)
                        .map(|p| match code / 3usize.pow(p as u32) % 3 {
                            _ if p == pin => None,
                            0 => None,
                            v => Some(v == 2),
                        })
                        .collect();
                    let (mut mask, mut vals) = (0, 0);
                    for (p, v) in side.iter().enumerate() {
                        if let Some(v) = v {
                            mask |= 1 << p;
                            vals |= usize::from(*v) << p;
                        }
                    }
                    // Side pins that fix the output block every pin; with
                    // every side pin known the two notions coincide.
                    let fixes = table.fixes(mask, vals);
                    let blocked = pin_blocked(kind, pin, &side);
                    if mask.count_ones() as usize == k - 1 {
                        assert_eq!(fixes, blocked, "{kind:?} pin {pin} side {side:?}");
                    } else {
                        assert!(!fixes || blocked, "{kind:?} pin {pin} side {side:?}");
                    }
                }
            }
        }
    }

    /// Bare s1196, its lattice and every stem.
    fn fire_fixture() -> (CompiledCircuit, Program, Vec<Option<bool>>, Vec<u32>) {
        let profile = crate::profiles::iscas89_profile("s1196").unwrap();
        let n = crate::generate::generate_circuit(&profile.generator_config()).unwrap();
        let (c, p) = lower(&n);
        let constants = ternary_constants(&p);
        let stems = (0..c.cell_count() as u32)
            .filter(|&s| c.readers(s).len() >= 2 && constants[s as usize].is_none())
            .collect();
        (c, p, constants, stems)
    }

    #[test]
    fn every_implied_value_holds_on_every_vector_with_the_assumption() {
        let (c, p, constants, stems) = fire_fixture();
        let frame = Frame::new(&c);
        let mut rng = flh_rng::Rng::seed_from_u64(0xF12E);
        let mut values = vec![0u64; c.cell_count()];
        let mut scratch = vec![0u64; p.scratch_words()];
        for &src in c.inputs().iter().chain(c.flip_flops()) {
            values[src as usize] = rng.gen();
        }
        p.execute(&mut values, &mut scratch);
        let mut implied = Implication::new(&constants);
        for s in stems {
            for v in [false, true] {
                let lanes = if v {
                    values[s as usize]
                } else {
                    !values[s as usize]
                };
                if !implied.assume(&frame, s, v) {
                    assert_eq!(lanes, 0, "stem {s} = {v} conflicts but holds on a vector");
                    continue;
                }
                for &cell in &implied.trail {
                    let want = if implied.value[cell as usize] == 1 {
                        !0
                    } else {
                        0
                    };
                    let wrong = (values[cell as usize] ^ want) & lanes;
                    assert_eq!(wrong, 0, "stem {s} = {v} implies a wrong value at {cell}");
                }
            }
        }
    }

    #[test]
    fn incremental_observable_plane_matches_a_fresh_sweep() {
        let (c, _, constants, stems) = fire_fixture();
        let frame = Frame::new(&c);
        let mut implied = Implication::new(&constants);
        let mut plane = Observable::new(&frame, &implied.value);
        let mut cleared = 0;
        for s in stems {
            for v in [false, true] {
                if implied.assume(&frame, s, v) {
                    plane.update(&frame, &implied.value, &implied.trail);
                    let fresh = Observable::new(&frame, &implied.value);
                    assert_eq!(plane.obs, fresh.obs, "stem {s} = {v}");
                    cleared += plane.cleared.len();
                }
            }
        }
        assert!(cleared > 0, "no update cleared anything");
    }

    #[test]
    fn pin_blocking_truth_table_spot_checks() {
        use CellKind::*;
        let s0 = Some(false);
        let s1 = Some(true);
        let x: Option<bool> = None;
        assert!(pin_blocked(And2, 0, &[x, s0]));
        assert!(!pin_blocked(And2, 0, &[x, s1]));
        assert!(pin_blocked(Nor3, 1, &[x, x, s1]));
        assert!(!pin_blocked(Xor2, 0, &[x, s0]));
        // Aoi21 !((a&b)|c): c=1 masks the AND term.
        assert!(pin_blocked(Aoi21, 0, &[x, s1, s1]));
        assert!(!pin_blocked(Aoi21, 0, &[x, s1, s0]));
        assert!(pin_blocked(Aoi21, 2, &[s1, s1, x]));
        // Oai21 !((a|b)&c): select-side blocking.
        assert!(pin_blocked(Oai21, 2, &[s0, s0, x]));
        assert!(!pin_blocked(Oai21, 2, &[s0, x, x]));
        // Mux2 [a, b, s]: select pin dead when both data pins agree.
        assert!(pin_blocked(Mux2, 0, &[x, x, s1]));
        assert!(pin_blocked(Mux2, 2, &[s1, s1, x]));
        assert!(!pin_blocked(Mux2, 2, &[s1, s0, x]));
    }
}
