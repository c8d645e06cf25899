//! Flat superword bytecode lowered from the compiled level order.
//!
//! [`Program::lower`] compiles a [`CompiledCircuit`]'s precomputed level
//! order into a flat instruction stream that hot loops *execute* instead of
//! re-interpreting the CSR IR cell by cell. The pipeline has four stages
//! (documented in `DESIGN.md` §2g):
//!
//! 1. **micro-op expansion** — every library cell is broken into binary
//!    micro-ops (`And2`/`Or2`/`Xor2`/`Not`/`Copy`/`Mux`/constants) over
//!    single-use virtual temporaries;
//! 2. **fusion** — associative chains are widened back to ≤ 4 operands and
//!    inverting roots are folded into the complex opcodes (`NAND`/`NOR`/
//!    `XNOR`/`AOI`/`OAI`), so every library cell emits exactly one fused
//!    instruction and only wide generic gates spill a chain;
//! 3. **register allocation** — surviving temporaries get scratch words
//!    from a free list, reused across cells and levels, so the scratch
//!    file stays a handful of words for an entire circuit;
//! 4. **emission** — instructions stream out level-major, chunked into
//!    per-level batches whose destination working set is sized to a few
//!    cache lines; each batch is cut into [`Run`]s of one opcode and arity,
//!    which the executor dispatches on once per run.
//!
//! The executor is generic over [`LaneWord`], so one opcode table serves
//! every engine: plain `u64` two-valued evaluation, the 256-lane
//! [`Packed256`] pattern word of the fault simulators, [`Dual64`] 64-lane
//! dual-rail settles and the 8-lane [`Dual8`] words of the scalar simulator
//! and of PODEM. Per-gate dual-rail Kleene evaluation is exactly `eval3` for
//! the whole library (proven by the flh-sim tests), so the bytecode engines
//! stay bit-identical to the event-driven reference.
//!
//! The same table applies faults. A stem fault is a forced cell value; a
//! branch fault — one fanin pin of one gate — is
//! [`Program::eval_cell_pinned`], which re-runs the gate's chain with only
//! that pin's operand slot read as a given word. Lowering records the slot
//! of every pin, so a gate reading one driver on several pins (`XOR(a, a)`)
//! has only the faulted pin forced.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::cell::{CellKind, Dual64};
use crate::compiled::CompiledCircuit;

/// One word of simulation state: a fixed set of independent lanes with the
/// bitwise connectives the opcode table is built from.
///
/// Implementations are either *two-valued* (`u64`: one pattern per bit) or
/// *dual-rail three-valued* ([`Dual8`], [`Dual64`]): a lane is
/// definitely-1, definitely-0 or unknown, and the connectives implement
/// exact Kleene logic. `mux` carries the consensus term in the dual-rail
/// forms so `MUX(a, a, X) = a`.
pub trait LaneWord: Copy {
    /// All lanes 1.
    fn top() -> Self;
    /// All lanes 0.
    fn bot() -> Self;
    /// Lane-wise AND.
    fn and(self, rhs: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, rhs: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, rhs: Self) -> Self;
    /// Lane-wise 2:1 mux, `s ? b : a`.
    fn mux(a: Self, b: Self, s: Self) -> Self;
}

impl LaneWord for u64 {
    #[inline(always)]
    fn top() -> Self {
        !0
    }
    #[inline(always)]
    fn bot() -> Self {
        0
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        self & rhs
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        self | rhs
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
    #[inline(always)]
    fn xor(self, rhs: Self) -> Self {
        self ^ rhs
    }
    #[inline(always)]
    fn mux(a: Self, b: Self, s: Self) -> Self {
        (a & !s) | (b & s)
    }
}

impl LaneWord for Dual64 {
    #[inline(always)]
    fn top() -> Self {
        Dual64::all_one()
    }
    #[inline(always)]
    fn bot() -> Self {
        Dual64::all_zero()
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Dual64 {
            one: self.one & rhs.one,
            zero: self.zero | rhs.zero,
        }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Dual64 {
            one: self.one | rhs.one,
            zero: self.zero & rhs.zero,
        }
    }
    #[inline(always)]
    fn not(self) -> Self {
        Dual64 {
            one: self.zero,
            zero: self.one,
        }
    }
    #[inline(always)]
    fn xor(self, rhs: Self) -> Self {
        Dual64 {
            one: (self.one & rhs.zero) | (self.zero & rhs.one),
            zero: (self.one & rhs.one) | (self.zero & rhs.zero),
        }
    }
    #[inline(always)]
    fn mux(a: Self, b: Self, s: Self) -> Self {
        Dual64 {
            one: (s.zero & a.one) | (s.one & b.one) | (a.one & b.one),
            zero: (s.zero & a.zero) | (s.one & b.zero) | (a.zero & b.zero),
        }
    }
}

/// 8 lanes of dual-rail three-valued logic in two bytes — the scalar
/// simulator's per-cell storage (a whole mid-size circuit's value file fits
/// in L1). The scalar engine replicates one value across all 8 lanes so
/// word equality coincides with value equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dual8 {
    /// Definitely-one plane.
    pub one: u8,
    /// Definitely-zero plane.
    pub zero: u8,
}

impl Dual8 {
    /// All lanes unknown.
    #[inline]
    pub fn all_x() -> Self {
        Dual8 { one: 0, zero: 0 }
    }

    /// Mask of lanes carrying a known (non-X) value.
    #[inline]
    pub fn known(self) -> u8 {
        self.one | self.zero
    }
}

impl LaneWord for Dual8 {
    #[inline(always)]
    fn top() -> Self {
        Dual8 { one: !0, zero: 0 }
    }
    #[inline(always)]
    fn bot() -> Self {
        Dual8 { one: 0, zero: !0 }
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Dual8 {
            one: self.one & rhs.one,
            zero: self.zero | rhs.zero,
        }
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Dual8 {
            one: self.one | rhs.one,
            zero: self.zero & rhs.zero,
        }
    }
    #[inline(always)]
    fn not(self) -> Self {
        Dual8 {
            one: self.zero,
            zero: self.one,
        }
    }
    #[inline(always)]
    fn xor(self, rhs: Self) -> Self {
        Dual8 {
            one: (self.one & rhs.zero) | (self.zero & rhs.one),
            zero: (self.one & rhs.one) | (self.zero & rhs.zero),
        }
    }
    #[inline(always)]
    fn mux(a: Self, b: Self, s: Self) -> Self {
        Dual8 {
            one: (s.zero & a.one) | (s.one & b.one) | (a.one & b.one),
            zero: (s.zero & a.zero) | (s.one & b.zero) | (a.zero & b.zero),
        }
    }
}

#[inline(always)]
fn zip4(a: [u64; 4], b: [u64; 4], f: impl Fn(u64, u64) -> u64) -> [u64; 4] {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

/// 256 lanes of two-valued logic: a manual `u64x4` superword, the pattern
/// word of the fault simulators. One bit per pattern, four limbs of 64
/// lanes each; the limbs keep the connectives in straight-line code the
/// compiler vectorizes. The stem-region fault engine keeps the good machine
/// of a 256-pattern block in it, replays stems over it and forces branch
/// pins with [`Program::eval_cell_pinned`] at this width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(C, align(32))]
pub struct Packed256(pub [u64; 4]);

impl Packed256 {
    /// Builds a superword from four 64-lane limbs (limb `i` carries lanes
    /// `64*i .. 64*i+63`).
    #[inline]
    pub fn from_limbs(limbs: [u64; 4]) -> Self {
        Packed256(limbs)
    }

    /// Builds a superword whose low 64 lanes are `word` and whose upper
    /// lanes are 0 — the embedding the 64-lane call sites use.
    #[inline]
    pub fn from_word(word: u64) -> Self {
        Packed256([word, 0, 0, 0])
    }

    /// Limb `i` (lanes `64*i .. 64*i+63`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub fn limb(self, i: usize) -> u64 {
        self.0[i]
    }
}

impl LaneWord for Packed256 {
    #[inline(always)]
    fn top() -> Self {
        Packed256([!0; 4])
    }
    #[inline(always)]
    fn bot() -> Self {
        Packed256([0; 4])
    }
    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Packed256(zip4(self.0, rhs.0, |a, b| a & b))
    }
    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Packed256(zip4(self.0, rhs.0, |a, b| a | b))
    }
    #[inline(always)]
    fn not(self) -> Self {
        Packed256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
    #[inline(always)]
    fn xor(self, rhs: Self) -> Self {
        Packed256(zip4(self.0, rhs.0, |a, b| a ^ b))
    }
    #[inline(always)]
    fn mux(a: Self, b: Self, s: Self) -> Self {
        Packed256([
            (a.0[0] & !s.0[0]) | (b.0[0] & s.0[0]),
            (a.0[1] & !s.0[1]) | (b.0[1] & s.0[1]),
            (a.0[2] & !s.0[2]) | (b.0[2] & s.0[2]),
            (a.0[3] & !s.0[3]) | (b.0[3] & s.0[3]),
        ])
    }
}

/// A two-valued [`LaneWord`] whose lanes are individually addressable —
/// the contract the deviation replay and the fault simulators need on top
/// of the opcode connectives: per-lane masks for partial pattern blocks,
/// lane population counts for n-detect, and equality for the undo log's
/// change detection. Implemented by `u64` (64 lanes) and [`Packed256`]
/// (256 lanes); the dual-rail words are not pattern words.
pub trait PatternWord: LaneWord + PartialEq + Default {
    /// Number of pattern lanes in one word.
    const LANES: usize;
    /// True if any lane is set.
    fn any(self) -> bool;
    /// Number of set lanes.
    fn count_ones(self) -> u32;
    /// A word with the low `n` lanes set (`n == LANES` ⇒ all lanes).
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    fn mask_lanes(n: usize) -> Self;
    /// A word with only lane `lane` set.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn lane_bit(lane: usize) -> Self;
}

impl PatternWord for u64 {
    const LANES: usize = 64;
    #[inline(always)]
    fn any(self) -> bool {
        self != 0
    }
    #[inline(always)]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
    #[inline]
    fn mask_lanes(n: usize) -> Self {
        assert!(n <= 64, "mask of {n} lanes exceeds the 64-lane word");
        if n == 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }
    #[inline]
    fn lane_bit(lane: usize) -> Self {
        assert!(lane < 64, "lane {lane} out of the 64-lane word");
        1u64 << lane
    }
}

impl PatternWord for Packed256 {
    const LANES: usize = 256;
    #[inline(always)]
    fn any(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) != 0
    }
    #[inline(always)]
    fn count_ones(self) -> u32 {
        self.0[0].count_ones()
            + self.0[1].count_ones()
            + self.0[2].count_ones()
            + self.0[3].count_ones()
    }
    #[inline]
    fn mask_lanes(n: usize) -> Self {
        assert!(n <= 256, "mask of {n} lanes exceeds the 256-lane word");
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let lo = i * 64;
            *limb = <u64 as PatternWord>::mask_lanes(n.clamp(lo, lo + 64) - lo);
        }
        Packed256(limbs)
    }
    #[inline]
    fn lane_bit(lane: usize) -> Self {
        assert!(lane < 256, "lane {lane} out of the 256-lane word");
        let mut limbs = [0u64; 4];
        limbs[lane / 64] = 1u64 << (lane % 64);
        Packed256(limbs)
    }
}

/// Fused bytecode operation. `And`/`Nand`/`Or`/`Nor`/`Xor`/`Xnor` take 2–4
/// operands (the operand count travels in the instruction header); the
/// complex gates and `Mux` have fixed shapes matching the library cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Constant 0 (no operands).
    Const0 = 0,
    /// Constant 1 (no operands).
    Const1 = 1,
    /// Copy the single operand (buffers, output markers, hold elements).
    Copy = 2,
    /// Invert the single operand.
    Not = 3,
    /// AND of 2–4 operands.
    And = 4,
    /// NAND of 2–4 operands.
    Nand = 5,
    /// OR of 2–4 operands.
    Or = 6,
    /// NOR of 2–4 operands.
    Nor = 7,
    /// XOR (odd parity) of 2–4 operands.
    Xor = 8,
    /// XNOR (even parity) of 2–4 operands.
    Xnor = 9,
    /// `!((a & b) | c)`.
    Aoi21 = 10,
    /// `!((a & b) | (c & d))`.
    Aoi22 = 11,
    /// `!((a | b) & c)`.
    Oai21 = 12,
    /// `!((a | b) & (c | d))`.
    Oai22 = 13,
    /// `s ? b : a` with operands `[a, b, s]`.
    Mux = 14,
}

impl Opcode {
    fn from_raw(raw: u8) -> Opcode {
        Opcode::try_from_raw(raw).unwrap_or_else(|| unreachable!("invalid opcode byte {raw}"))
    }

    /// Fallible decode of a raw opcode byte — the bytecode verifier's entry
    /// point, which must diagnose an invalid byte instead of panicking.
    pub fn try_from_raw(raw: u8) -> Option<Opcode> {
        Some(match raw {
            0 => Opcode::Const0,
            1 => Opcode::Const1,
            2 => Opcode::Copy,
            3 => Opcode::Not,
            4 => Opcode::And,
            5 => Opcode::Nand,
            6 => Opcode::Or,
            7 => Opcode::Nor,
            8 => Opcode::Xor,
            9 => Opcode::Xnor,
            10 => Opcode::Aoi21,
            11 => Opcode::Aoi22,
            12 => Opcode::Oai21,
            13 => Opcode::Oai22,
            14 => Opcode::Mux,
            _ => return None,
        })
    }

    /// The legal operand-count range for this opcode. The chainable
    /// families carry their count in the instruction header; everything
    /// else has a fixed shape matching its library cell.
    pub fn arity_range(self) -> std::ops::RangeInclusive<usize> {
        match self {
            Opcode::Const0 | Opcode::Const1 => 0..=0,
            Opcode::Copy | Opcode::Not => 1..=1,
            Opcode::And | Opcode::Nand | Opcode::Or | Opcode::Nor | Opcode::Xor | Opcode::Xnor => {
                2..=MAX_FUSED_OPERANDS
            }
            Opcode::Aoi21 | Opcode::Oai21 | Opcode::Mux => 3..=3,
            Opcode::Aoi22 | Opcode::Oai22 => 4..=4,
        }
    }

    /// Assembly mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Const0 => "const0",
            Opcode::Const1 => "const1",
            Opcode::Copy => "copy",
            Opcode::Not => "not",
            Opcode::And => "and",
            Opcode::Nand => "nand",
            Opcode::Or => "or",
            Opcode::Nor => "nor",
            Opcode::Xor => "xor",
            Opcode::Xnor => "xnor",
            Opcode::Aoi21 => "aoi21",
            Opcode::Aoi22 => "aoi22",
            Opcode::Oai21 => "oai21",
            Opcode::Oai22 => "oai22",
            Opcode::Mux => "mux",
        }
    }
}

/// Widest fused operand list: the library tops out at 4-input gates, and
/// wider generics spill a scratch chain instead.
pub const MAX_FUSED_OPERANDS: usize = 4;

/// Code words per instruction: header, destination slot and
/// [`MAX_FUSED_OPERANDS`] operand slots (unused ones zero-padded). The
/// fixed stride lets the executors walk the stream with `chunks_exact`,
/// so every in-instruction access is a constant index the bounds checker
/// drops.
pub const INST_WORDS: usize = 2 + MAX_FUSED_OPERANDS;

/// Instructions per level batch. A batch's destination stripe stays within
/// a few cache lines for the narrow lane words (64 × [`Dual8`] = 2 lines)
/// and is one 2 KiB stride the hardware prefetcher tracks for the widest
/// (64 × [`Packed256`]).
pub const BATCH_INSTS: u32 = 64;

/// Operand columns of a truth table: bit `r` of `TABLE_ROWS[j]` is bit `j`
/// of `r`, so running the opcode table on them over `u64` evaluates an
/// instruction on all `2^k` rows of its `k` operands at once.
const TABLE_ROWS: [u64; MAX_FUSED_OPERANDS] = [0xaaaa, 0xcccc, 0xf0f0, 0xff00];

/// One instruction of a cell's chain as a Boolean function of its operand
/// slots — what a clause encoder of the program reads
/// ([`Program::chain_tables`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstTable {
    /// Operand count `k`; the table has `2^k` rows.
    pub nops: usize,
    /// Bit `r` is the instruction's value when operand `j` reads bit `j` of
    /// `r`; bits at `2^k..` are zero.
    pub table: u16,
    /// Destination slot: the cell itself for the chain's last instruction,
    /// a scratch slot (`cell_words() + r`) before it.
    pub dst: u32,
    /// Operand slots, cell ids below `cell_words()` and scratch slots
    /// above; entries at `nops..` are zero.
    pub operands: [u32; MAX_FUSED_OPERANDS],
}

/// One contiguous run of instructions inside a single level.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    /// First code word of the batch.
    pub start: u32,
    /// One past the last code word.
    pub end: u32,
    /// Logic level (1-based) the batch's cells live on.
    pub level: u32,
}

/// A maximal stretch of one batch whose instructions share one shape. The
/// runs tile every batch in order, and the executors dispatch once per run
/// instead of once per instruction.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// First code word of the run.
    pub start: u32,
    /// One past the last code word.
    pub end: u32,
    /// The opcode and operand count of every instruction in the run, all of
    /// which read and write cell slots only; `None` for instructions that
    /// touch scratch (a wide generic gate's chain), which keep the
    /// per-instruction path.
    pub shape: Option<(Opcode, u8)>,
}

// Instruction header layout (one u32, followed by the dst slot and the
// fixed-width operand block; see INST_WORDS). Shared with the sibling
// `static_analysis` module, whose verifier re-decodes the stream.
pub(crate) const OP_SHIFT: u32 = 0; // bits 0..8: opcode
pub(crate) const NOPS_SHIFT: u32 = 8; // bits 8..12: operand count
pub(crate) const HOLD_BIT: u32 = 1 << 12; // dst is a hold element (skippable)
pub(crate) const FOLD_SHIFT: u32 = 16; // bits 16..24: micro-ops fused into this inst

/// One instruction of the stream in decoded form — the introspection view
/// the verifier, its negative tests and external tooling consume instead of
/// re-deriving the header bit layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedInst {
    /// Raw opcode byte (may be invalid on corrupted programs).
    pub opcode_raw: u8,
    /// Decoded opcode, if the byte is legal.
    pub opcode: Option<Opcode>,
    /// Operand count from the header (not validated).
    pub nops: usize,
    /// Destination slot: a cell id below `cell_words()`, a scratch slot at
    /// `cell_words() + r` otherwise.
    pub dst: u32,
    /// Operand slots; entries at `nops..` are zero padding.
    pub operands: [u32; MAX_FUSED_OPERANDS],
    /// True when the destination is a holding cell (freeze-skippable).
    pub hold: bool,
    /// Micro-ops fused into this instruction (saturated at 255).
    pub folded: u32,
}

/// A lowered circuit: the flat instruction stream plus the side tables the
/// executors and the disassembler need. Immutable after
/// [`Program::lower`]; share it with [`Arc`] next to the
/// [`CompiledCircuit`] it was lowered from.
#[derive(Debug)]
pub struct Program {
    n_cells: u32,
    n_scratch: u32,
    code: Vec<u32>,
    batches: Vec<Batch>,
    runs: Vec<Run>,
    /// Per cell id: (first code word, word count) of its instruction chain,
    /// or `(u32::MAX, 0)` for sources that are never evaluated.
    cell_chain: Vec<(u32, u32)>,
    /// Per lowered cell, one entry per fanin pin (from `pin_off[cell]`): the
    /// code word, counted from the chain start, of the one operand slot that
    /// reads the pin — what [`Program::eval_cell_pinned`] forces.
    pin_operand: Vec<u32>,
    /// `pin_operand[pin_off[c]..pin_off[c + 1]]` are cell `c`'s pins; a
    /// source's range is empty.
    pin_off: Vec<u32>,
    inst_count: u32,
    micro_ops: u64,
}

/// Virtual operand during lowering: one of the cell's fanin pins (by pin
/// index, so `XOR(a, a)` keeps its two pins apart) or a chain-local temp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arg {
    Pin(u32),
    Node(u32),
}

/// One micro/fused op during lowering, before scratch allocation.
#[derive(Clone, Debug)]
struct Node {
    op: Opcode,
    args: Vec<Arg>,
    /// Micro-ops folded into this node (1 before fusion).
    folded: u32,
    live: bool,
}

fn push(nodes: &mut Vec<Node>, op: Opcode, args: Vec<Arg>) -> Arg {
    nodes.push(Node {
        op,
        args,
        folded: 1,
        live: true,
    });
    Arg::Node(nodes.len() as u32 - 1)
}

/// Left-fold a binary associative op over the cell's `pins` fanin pins.
fn fold_chain(nodes: &mut Vec<Node>, op: Opcode, pins: usize) -> Arg {
    let mut acc = Arg::Pin(0);
    for p in 1..pins as u32 {
        acc = push(nodes, op, vec![acc, Arg::Pin(p)]);
    }
    acc
}

/// Stage 1: expand one library cell of `pins` fanin pins into binary
/// micro-ops over single-use virtual temps. Every pin is read by exactly one
/// micro-op; the last pushed node is the cell's root value.
fn expand(kind: CellKind, pins: usize) -> Vec<Node> {
    use CellKind::*;
    let mut nodes = Vec::new();
    let c = |i: u32| Arg::Pin(i);
    match kind {
        Input | Dff | ScanDff => unreachable!("sources are not lowered"),
        Const0 => {
            push(&mut nodes, Opcode::Const0, Vec::new());
        }
        Const1 => {
            push(&mut nodes, Opcode::Const1, Vec::new());
        }
        Output | Buf | HoldLatch | HoldMux => {
            push(&mut nodes, Opcode::Copy, vec![c(0)]);
        }
        Inv => {
            push(&mut nodes, Opcode::Not, vec![c(0)]);
        }
        And2 | And3 | And4 | AndN(_) => {
            fold_chain(&mut nodes, Opcode::And, pins);
        }
        Nand2 | Nand3 | Nand4 | NandN(_) => {
            let t = fold_chain(&mut nodes, Opcode::And, pins);
            push(&mut nodes, Opcode::Not, vec![t]);
        }
        Or2 | Or3 | Or4 | OrN(_) => {
            fold_chain(&mut nodes, Opcode::Or, pins);
        }
        Nor2 | Nor3 | Nor4 | NorN(_) => {
            let t = fold_chain(&mut nodes, Opcode::Or, pins);
            push(&mut nodes, Opcode::Not, vec![t]);
        }
        Xor2 | XorN(_) => {
            fold_chain(&mut nodes, Opcode::Xor, pins);
        }
        Xnor2 => {
            let t = fold_chain(&mut nodes, Opcode::Xor, pins);
            push(&mut nodes, Opcode::Not, vec![t]);
        }
        Aoi21 => {
            let t = push(&mut nodes, Opcode::And, vec![c(0), c(1)]);
            let u = push(&mut nodes, Opcode::Or, vec![t, c(2)]);
            push(&mut nodes, Opcode::Not, vec![u]);
        }
        Aoi22 => {
            let t1 = push(&mut nodes, Opcode::And, vec![c(0), c(1)]);
            let t2 = push(&mut nodes, Opcode::And, vec![c(2), c(3)]);
            let u = push(&mut nodes, Opcode::Or, vec![t1, t2]);
            push(&mut nodes, Opcode::Not, vec![u]);
        }
        Oai21 => {
            let t = push(&mut nodes, Opcode::Or, vec![c(0), c(1)]);
            let u = push(&mut nodes, Opcode::And, vec![t, c(2)]);
            push(&mut nodes, Opcode::Not, vec![u]);
        }
        Oai22 => {
            let t1 = push(&mut nodes, Opcode::Or, vec![c(0), c(1)]);
            let t2 = push(&mut nodes, Opcode::Or, vec![c(2), c(3)]);
            let u = push(&mut nodes, Opcode::And, vec![t1, t2]);
            push(&mut nodes, Opcode::Not, vec![u]);
        }
        Mux2 => {
            push(&mut nodes, Opcode::Mux, vec![c(0), c(1), c(2)]);
        }
    }
    nodes
}

/// If `a` is a live 2-operand node of `op`, return its node index.
fn binary_child(nodes: &[Node], a: Arg, op: Opcode) -> Option<usize> {
    if let Arg::Node(j) = a {
        let j = j as usize;
        if nodes[j].live && nodes[j].op == op && nodes[j].args.len() == 2 {
            return Some(j);
        }
    }
    None
}

/// Stage 2: fusion. Widens associative chains to ≤ [`MAX_FUSED_OPERANDS`]
/// operands, then folds an inverting root into the complex opcode family.
/// Temps are single-use by construction, so every rewrite is legal.
fn fuse(nodes: &mut [Node]) {
    // Associative widening: absorb a same-op child into its (single) user.
    loop {
        let mut changed = false;
        for i in 0..nodes.len() {
            if !nodes[i].live || !matches!(nodes[i].op, Opcode::And | Opcode::Or | Opcode::Xor) {
                continue;
            }
            let mut k = 0;
            while k < nodes[i].args.len() {
                let absorb = match nodes[i].args[k] {
                    Arg::Node(j) => {
                        let j = j as usize;
                        (nodes[j].op == nodes[i].op
                            && nodes[i].args.len() - 1 + nodes[j].args.len() <= MAX_FUSED_OPERANDS)
                            .then_some(j)
                    }
                    Arg::Pin(_) => None,
                };
                if let Some(j) = absorb {
                    let inner = nodes[j].args.clone();
                    nodes[j].live = false;
                    let folded = nodes[j].folded;
                    nodes[i].args.splice(k..k + 1, inner);
                    nodes[i].folded += folded;
                    changed = true;
                } else {
                    k += 1;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Root inversion folding. The root is always the last node.
    let root = nodes.len() - 1;
    if nodes[root].op != Opcode::Not {
        return;
    }
    let inner = match nodes[root].args[0] {
        Arg::Node(j) => j as usize,
        Arg::Pin(_) => return, // plain inverter of a pin
    };
    let (new_op, new_args, absorbed): (Opcode, Vec<Arg>, Vec<usize>) = match nodes[inner].op {
        Opcode::Or if nodes[inner].args.len() == 2 => {
            let (a0, a1) = (nodes[inner].args[0], nodes[inner].args[1]);
            match (
                binary_child(nodes, a0, Opcode::And),
                binary_child(nodes, a1, Opcode::And),
            ) {
                (Some(x), Some(y)) => (
                    Opcode::Aoi22,
                    vec![
                        nodes[x].args[0],
                        nodes[x].args[1],
                        nodes[y].args[0],
                        nodes[y].args[1],
                    ],
                    vec![inner, x, y],
                ),
                (Some(x), None) => (
                    Opcode::Aoi21,
                    vec![nodes[x].args[0], nodes[x].args[1], a1],
                    vec![inner, x],
                ),
                (None, Some(y)) => (
                    // OR commutes: !(c | (a & b)) == AOI21(a, b, c).
                    Opcode::Aoi21,
                    vec![nodes[y].args[0], nodes[y].args[1], a0],
                    vec![inner, y],
                ),
                (None, None) => (Opcode::Nor, nodes[inner].args.clone(), vec![inner]),
            }
        }
        Opcode::And if nodes[inner].args.len() == 2 => {
            let (a0, a1) = (nodes[inner].args[0], nodes[inner].args[1]);
            match (
                binary_child(nodes, a0, Opcode::Or),
                binary_child(nodes, a1, Opcode::Or),
            ) {
                (Some(x), Some(y)) => (
                    Opcode::Oai22,
                    vec![
                        nodes[x].args[0],
                        nodes[x].args[1],
                        nodes[y].args[0],
                        nodes[y].args[1],
                    ],
                    vec![inner, x, y],
                ),
                (Some(x), None) => (
                    Opcode::Oai21,
                    vec![nodes[x].args[0], nodes[x].args[1], a1],
                    vec![inner, x],
                ),
                (None, Some(y)) => (
                    Opcode::Oai21,
                    vec![nodes[y].args[0], nodes[y].args[1], a0],
                    vec![inner, y],
                ),
                (None, None) => (Opcode::Nand, nodes[inner].args.clone(), vec![inner]),
            }
        }
        Opcode::And => (Opcode::Nand, nodes[inner].args.clone(), vec![inner]),
        Opcode::Or => (Opcode::Nor, nodes[inner].args.clone(), vec![inner]),
        Opcode::Xor => (Opcode::Xnor, nodes[inner].args.clone(), vec![inner]),
        _ => return,
    };
    let mut folded = nodes[root].folded;
    for &j in &absorbed {
        folded += nodes[j].folded;
        nodes[j].live = false;
    }
    nodes[root].op = new_op;
    nodes[root].args = new_args;
    nodes[root].folded = folded;
}

/// The opcode table: the value of an instruction with header `header`
/// whose operand `k` reads `ld(k)`. Every executor evaluates through it.
#[inline(always)]
fn eval_op<W: LaneWord>(header: u32, ld: impl Fn(usize) -> W) -> W {
    let op = Opcode::from_raw((header >> OP_SHIFT) as u8);
    let nops = ((header >> NOPS_SHIFT) & 0xf) as usize;
    match op {
        Opcode::Const0 => W::bot(),
        Opcode::Const1 => W::top(),
        Opcode::Copy => ld(0),
        Opcode::Not => ld(0).not(),
        Opcode::And | Opcode::Nand => {
            let mut acc = ld(0).and(ld(1));
            if nops > 2 {
                acc = acc.and(ld(2));
            }
            if nops > 3 {
                acc = acc.and(ld(3));
            }
            if op == Opcode::Nand {
                acc.not()
            } else {
                acc
            }
        }
        Opcode::Or | Opcode::Nor => {
            let mut acc = ld(0).or(ld(1));
            if nops > 2 {
                acc = acc.or(ld(2));
            }
            if nops > 3 {
                acc = acc.or(ld(3));
            }
            if op == Opcode::Nor {
                acc.not()
            } else {
                acc
            }
        }
        Opcode::Xor | Opcode::Xnor => {
            let mut acc = ld(0).xor(ld(1));
            if nops > 2 {
                acc = acc.xor(ld(2));
            }
            if nops > 3 {
                acc = acc.xor(ld(3));
            }
            if op == Opcode::Xnor {
                acc.not()
            } else {
                acc
            }
        }
        Opcode::Aoi21 => ld(0).and(ld(1)).or(ld(2)).not(),
        Opcode::Aoi22 => ld(0).and(ld(1)).or(ld(2).and(ld(3))).not(),
        Opcode::Oai21 => ld(0).or(ld(1)).and(ld(2)).not(),
        Opcode::Oai22 => ld(0).or(ld(1)).and(ld(2).or(ld(3))).not(),
        Opcode::Mux => W::mux(ld(0), ld(1), ld(2)),
    }
}

/// The shape of an instruction a run can hold: its opcode and operand count
/// when it reads and writes cell slots only, `None` when it touches scratch.
fn cell_shape(inst: &[u32], n_cells: u32) -> Option<(Opcode, u8)> {
    let nops = ((inst[0] >> NOPS_SHIFT) & 0xf) as usize;
    let cells_only = inst[1] < n_cells && inst[2..2 + nops].iter().all(|&s| s < n_cells);
    cells_only.then(|| (Opcode::from_raw((inst[0] >> OP_SHIFT) as u8), nops as u8))
}

/// Cuts every batch into maximal runs of one [`cell_shape`].
fn runs_of(code: &[u32], batches: &[Batch], n_cells: u32) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for b in batches {
        for (i, inst) in code[b.start as usize..b.end as usize]
            .chunks_exact(INST_WORDS)
            .enumerate()
        {
            let start = b.start + (i * INST_WORDS) as u32;
            let shape = cell_shape(inst, n_cells);
            match runs.last_mut() {
                Some(run) if run.end == start && run.start >= b.start && run.shape == shape => {
                    run.end = start + INST_WORDS as u32;
                }
                _ => runs.push(Run {
                    start,
                    end: start + INST_WORDS as u32,
                    shape,
                }),
            }
        }
    }
    runs
}

/// Executes one run of `N`-operand cell instructions: every operand is a
/// cell slot and `f` is the run's opcode, so the loop decodes no header
/// (beyond the hold bit `commit` sees) and takes no slot branch.
#[inline(always)]
fn run_cells<W, C, const N: usize>(
    window: &[u32],
    values: &mut [W],
    commit: &mut C,
    f: impl Fn([W; N]) -> W,
) where
    W: LaneWord,
    C: FnMut(u32, W, W, bool) -> W,
{
    for inst in window.chunks_exact(INST_WORDS) {
        let new = f(std::array::from_fn(|k| values[inst[2 + k] as usize]));
        let dst = inst[1] as usize;
        values[dst] = commit(inst[1], values[dst], new, inst[0] & HOLD_BIT != 0);
    }
}

/// [`run_cells`] for the `N`-operand members of the associative families.
#[inline(always)]
fn run_family<W, C, const N: usize>(op: Opcode, window: &[u32], values: &mut [W], commit: &mut C)
where
    W: LaneWord,
    C: FnMut(u32, W, W, bool) -> W,
{
    fn fold<W: LaneWord, const N: usize>(ops: [W; N], f: fn(W, W) -> W) -> W {
        ops[1..].iter().fold(ops[0], |acc, &o| f(acc, o))
    }
    match op {
        Opcode::And => run_cells(window, values, commit, |o: [W; N]| fold(o, W::and)),
        Opcode::Nand => run_cells(window, values, commit, |o: [W; N]| fold(o, W::and).not()),
        Opcode::Or => run_cells(window, values, commit, |o: [W; N]| fold(o, W::or)),
        Opcode::Nor => run_cells(window, values, commit, |o: [W; N]| fold(o, W::or).not()),
        Opcode::Xor => run_cells(window, values, commit, |o: [W; N]| fold(o, W::xor)),
        Opcode::Xnor => run_cells(window, values, commit, |o: [W; N]| fold(o, W::xor).not()),
        _ => unreachable!("{op:?} is not an associative family"),
    }
}

/// Executes one run of shape `(op, nops)`: the one dispatch of the run.
#[inline(always)]
fn run_shape<W, C>(op: Opcode, nops: u8, window: &[u32], values: &mut [W], commit: &mut C)
where
    W: LaneWord,
    C: FnMut(u32, W, W, bool) -> W,
{
    let (v, c) = (values, commit);
    match (op, nops) {
        (Opcode::Const0, _) => run_cells(window, v, c, |[]: [W; 0]| W::bot()),
        (Opcode::Const1, _) => run_cells(window, v, c, |[]: [W; 0]| W::top()),
        (Opcode::Copy, _) => run_cells(window, v, c, |[a]: [W; 1]| a),
        (Opcode::Not, _) => run_cells(window, v, c, |[a]: [W; 1]| a.not()),
        (Opcode::Aoi21, _) => run_cells(window, v, c, |[a, b, d]: [W; 3]| a.and(b).or(d).not()),
        (Opcode::Aoi22, _) => run_cells(window, v, c, |[a, b, d, e]: [W; 4]| {
            a.and(b).or(d.and(e)).not()
        }),
        (Opcode::Oai21, _) => run_cells(window, v, c, |[a, b, d]: [W; 3]| a.or(b).and(d).not()),
        (Opcode::Oai22, _) => run_cells(window, v, c, |[a, b, d, e]: [W; 4]| {
            a.or(b).and(d.or(e)).not()
        }),
        (Opcode::Mux, _) => run_cells(window, v, c, |[a, b, s]: [W; 3]| W::mux(a, b, s)),
        (_, 2) => run_family::<W, C, 2>(op, window, v, c),
        (_, 3) => run_family::<W, C, 3>(op, window, v, c),
        _ => run_family::<W, C, 4>(op, window, v, c),
    }
}

impl Program {
    /// Lowers a compiled circuit through the full pipeline (expansion →
    /// fusion → scratch allocation → emission). Deterministic: same
    /// circuit, same program.
    pub fn lower(compiled: &CompiledCircuit) -> Program {
        let n_cells = compiled.cell_count() as u32;
        let mut code: Vec<u32> = Vec::new();
        let mut batches: Vec<Batch> = Vec::new();
        let mut cell_chain = vec![(u32::MAX, 0u32); n_cells as usize];
        let mut pin_off = Vec::with_capacity(n_cells as usize + 1);
        let mut pins = 0u32;
        for id in 0..n_cells {
            pin_off.push(pins);
            if compiled.level_of(id) > 0 {
                pins += compiled.fanin(id).len() as u32;
            }
        }
        pin_off.push(pins);
        let mut pin_operand = vec![u32::MAX; pins as usize];
        let mut n_scratch = 0u32;
        let mut inst_count = 0u32;
        let mut micro_ops = 0u64;

        // Scratch free list; slots are chain-local (a temp never outlives
        // its cell's chain), so the same low-numbered words serve every
        // cell on every level.
        let mut free: Vec<u32> = Vec::new();
        let mut slot_of: Vec<u32> = Vec::new();

        let mut lowered: Vec<((u8, usize), u32, Vec<Node>)> = Vec::new();
        for level in 1..=compiled.levels() {
            // Lower every cell on the level, then schedule the chains by
            // root opcode and arity (ties by cell id — deterministic).
            // Chains on one level are independent, so the order is free;
            // grouping one shape gives the executor long runs it enters
            // once each (see `runs_of`).
            lowered.clear();
            for &id in compiled.level_cells(level) {
                let mut nodes = expand(compiled.kind(id), compiled.fanin(id).len());
                micro_ops += nodes.len() as u64;
                fuse(&mut nodes);
                let root = &nodes[nodes.len() - 1];
                lowered.push(((root.op as u8, root.args.len()), id, nodes));
            }
            lowered.sort_by_key(|&(shape, id, _)| (shape, id));

            let mut batch_start = code.len() as u32;
            let mut batch_insts = 0u32;
            for (_, id, nodes) in &lowered {
                let (id, nodes) = (*id, nodes);
                let kind = compiled.kind(id);
                let fanin = compiled.fanin(id);
                let pin_base = pin_off[id as usize] as usize;

                // Stages 3+4: allocate scratch for surviving temps and emit.
                let chain_start = code.len() as u32;
                free.clear();
                let mut next_local = 0u32;
                slot_of.clear();
                slot_of.resize(nodes.len(), u32::MAX);
                let root = nodes.len() - 1;
                for i in 0..nodes.len() {
                    if !nodes[i].live {
                        continue;
                    }
                    debug_assert!(nodes[i].args.len() <= MAX_FUSED_OPERANDS);
                    let mut header = (nodes[i].op as u32) << OP_SHIFT
                        | (nodes[i].args.len() as u32) << NOPS_SHIFT
                        | nodes[i].folded.min(255) << FOLD_SHIFT;
                    if i == root && kind.is_hold_element() {
                        header |= HOLD_BIT;
                    }
                    // Operand slots, freeing each temp at its single use so
                    // the dst (written after all reads) can reuse it.
                    let mut operand_slots = [0u32; MAX_FUSED_OPERANDS];
                    for (k, &arg) in nodes[i].args.iter().enumerate() {
                        operand_slots[k] = match arg {
                            Arg::Pin(p) => {
                                pin_operand[pin_base + p as usize] =
                                    code.len() as u32 + 2 + k as u32 - chain_start;
                                fanin[p as usize]
                            }
                            Arg::Node(j) => {
                                let s = slot_of[j as usize];
                                debug_assert_ne!(s, u32::MAX, "temp used before def");
                                free.push(s);
                                n_cells + s
                            }
                        };
                    }
                    let dst = if i == root {
                        id
                    } else {
                        let s = match free.pop() {
                            Some(s) => s,
                            None => {
                                next_local += 1;
                                next_local - 1
                            }
                        };
                        slot_of[i] = s;
                        n_cells + s
                    };
                    code.push(header);
                    code.push(dst);
                    code.extend_from_slice(&operand_slots);
                    inst_count += 1;
                    batch_insts += 1;
                    if batch_insts == BATCH_INSTS {
                        batches.push(Batch {
                            start: batch_start,
                            end: code.len() as u32,
                            level: level as u32,
                        });
                        batch_start = code.len() as u32;
                        batch_insts = 0;
                    }
                }
                n_scratch = n_scratch.max(next_local);
                cell_chain[id as usize] = (chain_start, code.len() as u32 - chain_start);
            }
            if batch_insts > 0 {
                batches.push(Batch {
                    start: batch_start,
                    end: code.len() as u32,
                    level: level as u32,
                });
            }
        }

        let runs = runs_of(&code, &batches, n_cells);
        let program = Program {
            n_cells,
            n_scratch,
            code,
            batches,
            runs,
            cell_chain,
            pin_operand,
            pin_off,
            inst_count,
            micro_ops,
        };
        if flh_obs::enabled() {
            // Lowering work is a pure function of the circuit — deterministic
            // at any pool width. One gated flush per lowering.
            flh_obs::add(flh_obs::Counter::CodegenFusedOps, program.fused_micro_ops());
        }
        program
    }

    /// [`Program::lower`] behind an [`Arc`] for the shared-cache paths.
    pub fn lower_shared(compiled: &CompiledCircuit) -> Arc<Program> {
        Arc::new(Program::lower(compiled))
    }

    /// Number of cell value slots (the compiled circuit's cell count).
    pub fn cell_words(&self) -> usize {
        self.n_cells as usize
    }

    /// Scratch words an executor must provide (the register file; a
    /// handful of words regardless of circuit size).
    pub fn scratch_words(&self) -> usize {
        self.n_scratch as usize
    }

    /// Fused instructions in the program.
    pub fn inst_count(&self) -> usize {
        self.inst_count as usize
    }

    /// Total `u32` words in the code stream.
    pub fn code_words(&self) -> usize {
        self.code.len()
    }

    /// Micro-ops before fusion.
    pub fn micro_ops(&self) -> u64 {
        self.micro_ops
    }

    /// Micro-ops eliminated by fusion (`micro_ops - inst_count`).
    pub fn fused_micro_ops(&self) -> u64 {
        self.micro_ops - self.inst_count as u64
    }

    /// Per-level instruction batches, in execution order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The run table: maximal same-shape stretches tiling every batch in
    /// order, which the executors dispatch on.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Decode and evaluate one fixed-width instruction (an
    /// [`INST_WORDS`]-word slice). Returns `(value, dst slot, header)`.
    /// The operand indices below are all constants, so the slice bounds
    /// checks vanish once the caller hands in `chunks_exact` windows.
    #[inline(always)]
    fn eval_inst<W: LaneWord>(&self, inst: &[u32], values: &[W], scratch: &[W]) -> (W, usize, u32) {
        let n_cells = self.n_cells as usize;
        let ld = |k: usize| {
            let slot = inst[2 + k] as usize;
            if slot < n_cells {
                values[slot]
            } else {
                scratch[slot - n_cells]
            }
        };
        (eval_op(inst[0], ld), inst[1] as usize, inst[0])
    }

    /// Executes the whole program unconditionally: every evaluable cell is
    /// recomputed from the current source values. Returns the number of
    /// instructions executed.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.cell_words()` or `scratch` is
    /// shorter than [`Program::scratch_words`].
    pub fn execute<W: LaneWord>(&self, values: &mut [W], scratch: &mut [W]) -> u64 {
        self.execute_with(values, scratch, |_, _, new, _| new)
    }

    /// [`Program::execute`] with a commit hook on every cell store: the
    /// hook sees `(cell, old, new, holdable)` and returns the value to
    /// store (return `old` to freeze). The scalar simulator uses this for
    /// hold/sleep skipping and toggle accounting. Returns instructions
    /// executed.
    ///
    /// The loop dispatches once per [`Run`]: a run of cell instructions
    /// goes through a body specialised for its opcode and arity, and only
    /// instructions that touch scratch decode each header.
    ///
    /// # Panics
    ///
    /// As [`Program::execute`].
    pub fn execute_with<W, F>(&self, values: &mut [W], scratch: &mut [W], mut commit: F) -> u64
    where
        W: LaneWord,
        F: FnMut(u32, W, W, bool) -> W,
    {
        assert_eq!(values.len(), self.n_cells as usize);
        assert!(scratch.len() >= self.n_scratch as usize);
        let n_cells = self.n_cells as usize;
        for run in &self.runs {
            let window = &self.code[run.start as usize..run.end as usize];
            if let Some((op, nops)) = run.shape {
                run_shape(op, nops, window, values, &mut commit);
                continue;
            }
            for inst in window.chunks_exact(INST_WORDS) {
                let (v, dst, header) = self.eval_inst(inst, values, scratch);
                if dst < n_cells {
                    let old = values[dst];
                    values[dst] = commit(dst as u32, old, v, header & HOLD_BIT != 0);
                } else {
                    scratch[dst - n_cells] = v;
                }
            }
        }
        self.inst_count as u64
    }

    /// Evaluates a single cell's instruction chain against the current
    /// `values`, returning the would-be new value *without* storing it —
    /// the event-driven replay kernel's inner op. `scratch` must hold at
    /// least [`Program::scratch_words`] words and is clobbered.
    ///
    /// Sources (inputs, flip-flops) have no chain and return their stored
    /// value unchanged.
    #[inline]
    pub fn eval_cell<W: LaneWord>(&self, cell: u32, values: &[W], scratch: &mut [W]) -> W {
        let (start, len) = self.cell_chain[cell as usize];
        if start == u32::MAX {
            return values[cell as usize];
        }
        let n_cells = self.n_cells as usize;
        let chain = &self.code[start as usize..(start + len) as usize];
        for inst in chain.chunks_exact(INST_WORDS) {
            let (v, dst, _header) = self.eval_inst(inst, values, scratch);
            if dst == cell as usize {
                return v;
            }
            scratch[dst - n_cells] = v;
        }
        unreachable!("chain must end with the cell store")
    }

    /// [`Program::eval_cell`] with fanin pin `pin` of `cell` read as `word`
    /// instead of its driver's value — the one way the fault engines apply
    /// a branch fault. Only that pin is forced: the lowering records which
    /// operand slot reads each pin, so in `XOR(a, a)` the other pin still
    /// reads `a`. A source returns its stored value.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is not a fanin pin of a lowered `cell`.
    #[inline]
    pub fn eval_cell_pinned<W: LaneWord>(
        &self,
        cell: u32,
        pin: usize,
        word: W,
        values: &[W],
        scratch: &mut [W],
    ) -> W {
        let (start, len) = self.cell_chain[cell as usize];
        if start == u32::MAX {
            return values[cell as usize];
        }
        let pins = self.pin_off[cell as usize] as usize..self.pin_off[cell as usize + 1] as usize;
        let operand = self.pin_operand[pins][pin] as usize;
        let n_cells = self.n_cells as usize;
        let chain = &self.code[start as usize..(start + len) as usize];
        for (i, inst) in chain.chunks_exact(INST_WORDS).enumerate() {
            // The forced operand's index in this instruction; no match (a
            // wrapped or too-large index) outside the one that reads it.
            let forced = operand.wrapping_sub(i * INST_WORDS + 2);
            let ld = |k: usize| {
                let slot = inst[2 + k] as usize;
                if k == forced {
                    word
                } else if slot < n_cells {
                    values[slot]
                } else {
                    scratch[slot - n_cells]
                }
            };
            let v = eval_op(inst[0], ld);
            let dst = inst[1] as usize;
            if dst == cell as usize {
                return v;
            }
            scratch[dst - n_cells] = v;
        }
        unreachable!("chain must end with the cell store")
    }

    /// The instructions of `cell`'s chain in execution order, each with its
    /// truth table: the opcode table every executor runs, evaluated over
    /// `u64` on the instruction's `2^k` operand rows. Empty for a source.
    pub fn chain_tables(&self, cell: u32) -> impl Iterator<Item = InstTable> + '_ {
        let (start, len) = self.cell_chain[cell as usize];
        let chain = match start {
            u32::MAX => &[][..],
            _ => &self.code[start as usize..(start + len) as usize],
        };
        chain.chunks_exact(INST_WORDS).map(|inst| {
            let nops = ((inst[0] >> NOPS_SHIFT) & 0xf) as usize;
            let rows = eval_op::<u64>(inst[0], |k| TABLE_ROWS[k]);
            let mut operands = [0u32; MAX_FUSED_OPERANDS];
            operands.copy_from_slice(&inst[2..2 + MAX_FUSED_OPERANDS]);
            InstTable {
                nops,
                table: (rows & ((1u64 << (1 << nops)) - 1)) as u16,
                dst: inst[1],
                operands,
            }
        })
    }

    /// Where fanin `pin` of `cell` enters the cell's chain, as
    /// `(instruction, operand)`: the one slot [`Program::eval_cell_pinned`]
    /// forces.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is not a fanin pin of a lowered `cell`.
    pub fn pin_slot(&self, cell: u32, pin: usize) -> (usize, usize) {
        let pins = self.pin_off[cell as usize] as usize..self.pin_off[cell as usize + 1] as usize;
        let word = self.pin_operand[pins][pin] as usize;
        (word / INST_WORDS, word % INST_WORDS - 2)
    }

    /// Number of instructions in one cell's chain (0 for sources).
    pub fn chain_len(&self, cell: u32) -> usize {
        let (start, len) = self.cell_chain[cell as usize];
        if start == u32::MAX {
            return 0;
        }
        len as usize / INST_WORDS
    }

    /// Per-opcode instruction counts over the whole program, in opcode
    /// order with zero-count opcodes omitted — the fusion fingerprint
    /// `flh disasm` prints so a lowering regression (e.g. complex gates
    /// decaying back into `Not` + `And` pairs) is visible without a bench
    /// run.
    pub fn opcode_histogram(&self) -> Vec<(Opcode, u64)> {
        let mut counts = [0u64; 16];
        for b in &self.batches {
            for inst in self.code[b.start as usize..b.end as usize].chunks_exact(INST_WORDS) {
                counts[(inst[0] >> OP_SHIFT) as u8 as usize & 0xf] += 1;
            }
        }
        (0..16u8)
            .filter(|&raw| counts[raw as usize] > 0)
            .map(|raw| (Opcode::from_raw(raw), counts[raw as usize]))
            .collect()
    }

    /// Per-level batch occupancy: `(level, batches, instructions)` for
    /// every level that emits instructions, in level order. Full batches
    /// carry [`BATCH_INSTS`] instructions; the instruction count exposes
    /// how full each level's final partial batch is (scheduling-order
    /// regressions show up as many nearly-empty batches).
    pub fn level_occupancy(&self) -> Vec<(u32, u32, u32)> {
        let mut rows: Vec<(u32, u32, u32)> = Vec::new();
        for b in &self.batches {
            let insts = (b.end - b.start) / INST_WORDS as u32;
            match rows.last_mut() {
                Some(row) if row.0 == b.level => {
                    row.1 += 1;
                    row.2 += insts;
                }
                _ => rows.push((b.level, 1, insts)),
            }
        }
        rows
    }

    /// Renders the program as assembly text: one instruction per line with
    /// opcode, destination, operand slots and fusion provenance, under
    /// per-level batch headers. `label` names cell slots (scratch slots
    /// print as `r0`, `r1`, …).
    pub fn disasm_with<F: Fn(u32) -> String>(&self, label: F) -> String {
        let mut out = String::new();
        let slot_name = |slot: u32| -> String {
            if slot < self.n_cells {
                label(slot)
            } else {
                format!("r{}", slot - self.n_cells)
            }
        };
        let _ = writeln!(
            out,
            "; {} insts, {} micro-ops fused away, {} scratch words, {} batches",
            self.inst_count,
            self.fused_micro_ops(),
            self.n_scratch,
            self.batches.len()
        );
        for (bi, b) in self.batches.iter().enumerate() {
            let _ = writeln!(out, "; batch {bi} (level {})", b.level);
            for inst in self.code[b.start as usize..b.end as usize].chunks_exact(INST_WORDS) {
                let header = inst[0];
                let op = Opcode::from_raw((header >> OP_SHIFT) as u8);
                let nops = ((header >> NOPS_SHIFT) & 0xf) as usize;
                let folded = (header >> FOLD_SHIFT) & 0xff;
                let dst = inst[1];
                let operands: Vec<String> = (0..nops).map(|k| slot_name(inst[2 + k])).collect();
                let hold = if header & HOLD_BIT != 0 { " hold" } else { "" };
                let provenance = if folded > 1 {
                    format!(" ; fused {folded} micro-ops")
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  {} {} <- {}{}{}",
                    op.mnemonic(),
                    slot_name(dst),
                    operands.join(", "),
                    hold,
                    provenance
                );
            }
        }
        out
    }

    /// Decodes instruction `index` (stream order) without validating it —
    /// corrupted headers come back with `opcode: None` rather than a panic.
    ///
    /// # Panics
    ///
    /// Panics if `index * INST_WORDS` runs past the code stream (possible
    /// on programs truncated through [`Program::corrupt_truncate_words`]).
    pub fn decode_inst(&self, index: usize) -> DecodedInst {
        let w = index * INST_WORDS;
        let inst = &self.code[w..w + INST_WORDS];
        let header = inst[0];
        let opcode_raw = (header >> OP_SHIFT) as u8;
        let mut operands = [0u32; MAX_FUSED_OPERANDS];
        operands.copy_from_slice(&inst[2..2 + MAX_FUSED_OPERANDS]);
        DecodedInst {
            opcode_raw,
            opcode: Opcode::try_from_raw(opcode_raw),
            nops: ((header >> NOPS_SHIFT) & 0xf) as usize,
            dst: inst[1],
            operands,
            hold: header & HOLD_BIT != 0,
            folded: (header >> FOLD_SHIFT) & 0xff,
        }
    }

    /// The raw code stream (the sibling verifier re-walks it word by word).
    pub(crate) fn raw_code(&self) -> &[u32] {
        &self.code
    }

    /// Raw `(first code word, word count)` chain entry of a cell —
    /// `(u32::MAX, 0)` for sources.
    pub(crate) fn chain_raw(&self, cell: u32) -> (u32, u32) {
        self.cell_chain[cell as usize]
    }

    // --- Corruption hooks -------------------------------------------------
    //
    // Like `Netlist::corrupt_*`, the mutators below bypass every emission
    // invariant on purpose: the bytecode-verifier tests use them to break
    // one specific property of a lowered program — an illegal opcode byte,
    // a read-before-write scratch operand, a mis-levelled batch — and
    // assert that exactly the matching diagnostic fires. Production code
    // must never call them.

    /// Overwrites the opcode byte of instruction `index` (stream order).
    pub fn corrupt_opcode(&mut self, index: usize, raw: u8) {
        let w = index * INST_WORDS;
        self.code[w] = (self.code[w] & !0xff) | ((raw as u32) << OP_SHIFT);
    }

    /// Overwrites the operand count of instruction `index` with **no arity
    /// check** against its opcode.
    pub fn corrupt_nops(&mut self, index: usize, nops: u32) {
        let w = index * INST_WORDS;
        self.code[w] = (self.code[w] & !(0xf << NOPS_SHIFT)) | ((nops & 0xf) << NOPS_SHIFT);
    }

    /// Repoints operand `pin` of instruction `index` at an arbitrary slot —
    /// out-of-range slots, later-level cells and unwritten scratch words
    /// are all representable.
    pub fn corrupt_operand(&mut self, index: usize, pin: usize, slot: u32) {
        debug_assert!(pin < MAX_FUSED_OPERANDS);
        self.code[index * INST_WORDS + 2 + pin] = slot;
    }

    /// Repoints the destination of instruction `index` at an arbitrary
    /// slot with **no range or level check**.
    pub fn corrupt_dst(&mut self, index: usize, slot: u32) {
        self.code[index * INST_WORDS + 1] = slot;
    }

    /// Flips the hold-element bit of instruction `index`, desynchronizing
    /// it from the destination cell's kind.
    pub fn corrupt_toggle_hold(&mut self, index: usize) {
        self.code[index * INST_WORDS] ^= HOLD_BIT;
    }

    /// Drops the last `words` code words without touching the batch table,
    /// leaving batches that reference past the end of the stream.
    pub fn corrupt_truncate_words(&mut self, words: usize) {
        let keep = self.code.len().saturating_sub(words);
        self.code.truncate(keep);
    }

    /// Overwrites the level of batch `index`, breaking the level-major
    /// schedule contract.
    pub fn corrupt_batch_level(&mut self, index: usize, level: u32) {
        self.batches[index].level = level;
    }

    /// Overwrites the bounds of run `index` with **no tiling check**
    /// against its neighbours or its batch.
    pub fn corrupt_run_bounds(&mut self, index: usize, start: u32, end: u32) {
        self.runs[index].start = start;
        self.runs[index].end = end;
    }

    /// Overwrites a cell's chain table entry with **no consistency check**
    /// against the code stream.
    pub fn corrupt_chain(&mut self, cell: u32, start: u32, words: u32) {
        self.cell_chain[cell as usize] = (start, words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;
    use crate::CellId;

    /// A netlist exercising every library kind plus wide generics.
    fn library_netlist() -> Netlist {
        use CellKind::*;
        let mut n = Netlist::new("lib");
        let pins: Vec<CellId> = (0..8).map(|i| n.add_input(format!("i{i}"))).collect();
        let p = |i: usize| pins[i % pins.len()];
        let kinds = [
            Const0,
            Const1,
            Buf,
            Inv,
            And2,
            And3,
            And4,
            Nand2,
            Nand3,
            Nand4,
            Or2,
            Or3,
            Or4,
            Nor2,
            Nor3,
            Nor4,
            Xor2,
            Xnor2,
            Aoi21,
            Aoi22,
            Oai21,
            Oai22,
            Mux2,
            AndN(7),
            NandN(7),
            OrN(6),
            NorN(6),
            XorN(5),
        ];
        let mut outs = Vec::new();
        for (gi, &kind) in kinds.iter().enumerate() {
            let fanin: Vec<CellId> = (0..kind.arity()).map(|k| p(gi + k)).collect();
            outs.push(n.add_cell(format!("g{gi}"), kind, fanin));
        }
        for (gi, &g) in outs.iter().enumerate() {
            n.add_output(format!("y{gi}"), g);
        }
        n
    }

    #[test]
    fn every_library_cell_fuses_to_one_instruction() {
        use CellKind::*;
        let n = library_netlist();
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        for &id in c.order() {
            let kind = c.kind(id);
            let expect = match kind {
                AndN(7) | NandN(7) => 2, // And4 + And4/Nand4 over scratch
                OrN(6) | NorN(6) => 2,
                XorN(5) => 2,
                _ => 1,
            };
            assert_eq!(
                p.chain_len(id),
                expect,
                "{kind:?} should lower to {expect} inst(s)"
            );
        }
        // Fusion provenance adds back up to the micro-op total.
        assert_eq!(p.micro_ops(), p.inst_count() as u64 + p.fused_micro_ops());
    }

    #[test]
    fn fused_opcodes_match_the_library_cells() {
        let mut n = Netlist::new("ops");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c_in = n.add_input("c");
        let d = n.add_input("d");
        let cases = [
            (CellKind::Nand3, vec![a, b, c_in], Opcode::Nand),
            (CellKind::Aoi21, vec![a, b, c_in], Opcode::Aoi21),
            (CellKind::Aoi22, vec![a, b, c_in, d], Opcode::Aoi22),
            (CellKind::Oai21, vec![a, b, c_in], Opcode::Oai21),
            (CellKind::Oai22, vec![a, b, c_in, d], Opcode::Oai22),
            (CellKind::Xnor2, vec![a, b], Opcode::Xnor),
            (CellKind::Mux2, vec![a, b, c_in], Opcode::Mux),
            (CellKind::Nor4, vec![a, b, c_in, d], Opcode::Nor),
        ];
        let mut gates = Vec::new();
        for (gi, (kind, fanin, _)) in cases.iter().enumerate() {
            gates.push(n.add_cell(format!("g{gi}"), *kind, fanin.clone()));
        }
        for (gi, &g) in gates.iter().enumerate() {
            n.add_output(format!("y{gi}"), g);
        }
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        for ((kind, _, want_op), &g) in cases.iter().zip(&gates) {
            let id = c.id_of(g);
            let (start, _) = p.cell_chain[id as usize];
            let got = Opcode::from_raw((p.code[start as usize] >> OP_SHIFT) as u8);
            assert_eq!(got, *want_op, "{kind:?}");
            assert_eq!(p.chain_len(id), 1, "{kind:?}");
        }
    }

    #[test]
    fn scratch_registers_are_reused_across_cells_and_levels() {
        // Many wide generics, each needing one spill temp: the free list
        // must hand the same scratch word to every chain instead of
        // growing the register file.
        let mut n = Netlist::new("scratch");
        let pins: Vec<CellId> = (0..8).map(|i| n.add_input(format!("i{i}"))).collect();
        let mut prev = pins.clone();
        for lvl in 0..4 {
            let g = n.add_cell(
                format!("w{lvl}"),
                CellKind::AndN(8),
                prev.iter().copied().take(8).collect(),
            );
            prev.rotate_left(1);
            prev[0] = g;
            n.add_output(format!("y{lvl}"), g);
        }
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        assert!(
            p.inst_count() > p.scratch_words(),
            "multiple chains must share scratch"
        );
        assert_eq!(p.scratch_words(), 1, "AndN(8) needs exactly one temp");
    }

    /// Pin forcing against the [`CellKind::eval64`] oracle: every pin of
    /// every lowered cell of the library netlist, plus `XOR(a, a)`,
    /// `AOI21(a, b, a)` and a 7-input generic whose chain spans two
    /// instructions, at `u64`, [`Dual8`] and [`Packed256`] width. The
    /// oracle forces the one pin, so a driver read on two pins must keep
    /// its good value on the other.
    #[test]
    fn pinned_evaluation_forces_exactly_one_pin() {
        use CellKind::*;
        let mut n = library_netlist();
        let a = n.find("i0").unwrap();
        let b = n.find("i1").unwrap();
        let dups = [
            n.add_cell("dup_xor", Xor2, vec![a, a]),
            n.add_cell("dup_aoi", Aoi21, vec![a, b, a]),
            n.add_cell("dup_and7", AndN(7), vec![a, b, a, b, b, a, b]),
        ];
        for (k, &g) in dups.iter().enumerate() {
            n.add_output(format!("dup_y{k}"), g);
        }
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        assert_eq!(p.chain_len(c.id_of(dups[2])), 2);
        let mut state = 0x0B1D_FACEu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // One random good machine: limb 0 is the u64 machine, its low 8
        // lanes the Dual8 one.
        let mut wide = vec![Packed256::bot(); c.cell_count()];
        for &src in c.inputs().iter().chain(c.flip_flops()) {
            wide[src as usize] = Packed256::from_limbs([next(), next(), next(), next()]);
        }
        let mut s256 = vec![Packed256::bot(); p.scratch_words()];
        p.execute(&mut wide, &mut s256);
        let narrow: Vec<u64> = wide.iter().map(|w| w.limb(0)).collect();
        let dual8 = |w: u64| Dual8 {
            one: w as u8,
            zero: !w as u8,
        };
        let duals: Vec<Dual8> = narrow.iter().map(|&w| dual8(w)).collect();
        let mut s64 = vec![0u64; p.scratch_words()];
        let mut s8 = vec![Dual8::all_x(); p.scratch_words()];
        let mut checked = 0;
        for &id in c.order() {
            let kind = c.kind(id);
            for pin in 0..c.fanin(id).len() {
                let word = Packed256::from_limbs([next(), next(), next(), next()]);
                let oracle = |limb: usize| {
                    let mut inputs: Vec<u64> = c
                        .fanin(id)
                        .iter()
                        .map(|&f| wide[f as usize].limb(limb))
                        .collect();
                    inputs[pin] = word.limb(limb);
                    kind.eval64(&inputs)
                };
                let got = p.eval_cell_pinned(id, pin, word, &wide, &mut s256);
                for limb in 0..4 {
                    assert_eq!(
                        got.limb(limb),
                        oracle(limb),
                        "{kind:?} pin {pin} limb {limb}"
                    );
                }
                let got = p.eval_cell_pinned(id, pin, word.limb(0), &narrow, &mut s64);
                assert_eq!(got, oracle(0), "{kind:?} pin {pin} u64");
                let got = p.eval_cell_pinned(id, pin, dual8(word.limb(0)), &duals, &mut s8);
                assert_eq!(got, dual8(oracle(0)), "{kind:?} pin {pin} dual8");
                checked += 1;
            }
        }
        assert!(checked > 100, "{checked} pins checked");
    }

    #[test]
    fn lane_words_agree_across_widths() {
        // The same two-valued stimulus through u64, Dual8 and Dual64 lanes
        // must produce the same per-lane answers.
        let n = library_netlist();
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        let mut state = 0xDEAD_BEEFu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut v64 = vec![0u64; c.cell_count()];
        let mut vd8 = vec![Dual8::all_x(); c.cell_count()];
        let mut vd64 = vec![Dual64::all_x(); c.cell_count()];
        for &src in c.inputs().iter().chain(c.flip_flops()) {
            let w = next();
            v64[src as usize] = w;
            let bit0 = w & 1 != 0;
            vd8[src as usize] = if bit0 { Dual8::top() } else { Dual8::bot() };
            vd64[src as usize] = Dual64::from_word(w);
        }
        let mut s64 = vec![0u64; p.scratch_words()];
        let mut sd8 = vec![Dual8::all_x(); p.scratch_words()];
        let mut sd64 = vec![Dual64::all_x(); p.scratch_words()];
        p.execute(&mut v64, &mut s64);
        p.execute(&mut vd8, &mut sd8);
        p.execute(&mut vd64, &mut sd64);
        for &id in c.order() {
            let id = id as usize;
            let w = v64[id];
            assert_eq!(vd64[id], Dual64::from_word(w), "cell {id} dual64");
            assert_eq!(
                vd8[id],
                if w & 1 != 0 {
                    Dual8::top()
                } else {
                    Dual8::bot()
                },
                "cell {id} dual8"
            );
        }
    }

    #[test]
    fn batches_stay_within_level_boundaries() {
        let n = library_netlist();
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        let mut covered = 0u32;
        let mut last_level = 0u32;
        for b in p.batches() {
            assert!(b.start == covered, "batches must tile the code stream");
            assert!(b.end > b.start);
            assert!(b.level >= last_level, "level-major order");
            let words = (b.end - b.start) as usize;
            assert_eq!(words % INST_WORDS, 0, "fixed-stride instruction stream");
            assert!((words / INST_WORDS) as u32 <= BATCH_INSTS);
            covered = b.end;
            last_level = b.level;
        }
        assert_eq!(covered as usize, p.code_words());
    }

    #[test]
    fn packed256_pattern_word_semantics() {
        assert_eq!(<u64 as PatternWord>::LANES, 64);
        assert_eq!(Packed256::LANES, 256);
        assert_eq!(<u64 as PatternWord>::mask_lanes(64), !0u64);
        assert_eq!(<u64 as PatternWord>::mask_lanes(3), 0b111);
        assert_eq!(Packed256::mask_lanes(256), Packed256::top());
        assert_eq!(Packed256::mask_lanes(0), Packed256::bot());
        assert_eq!(Packed256::mask_lanes(64), Packed256::from_word(!0));
        assert_eq!(
            Packed256::mask_lanes(130),
            Packed256::from_limbs([!0, !0, 0b11, 0])
        );
        assert_eq!(Packed256::lane_bit(0), Packed256::from_word(1));
        assert_eq!(
            Packed256::lane_bit(200),
            Packed256::from_limbs([0, 0, 0, 1 << 8])
        );
        let w = Packed256::from_limbs([0b101, 0, 1 << 63, 7]);
        assert!(w.any());
        assert!(!Packed256::bot().any());
        assert_eq!(PatternWord::count_ones(w), 6);
        assert_eq!(w.limb(2), 1 << 63);
        // Default is the zero word, matching u64 (the undo/scratch filler).
        assert_eq!(Packed256::default(), Packed256::bot());
    }

    #[test]
    fn packed256_executes_like_four_u64_words() {
        // One 256-lane execution must equal four independent 64-lane
        // executions, limb by limb — the invariant the superword fault
        // simulators rest on.
        let n = library_netlist();
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        let mut state = 0x5EED_CAFEu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut lanes64: [Vec<u64>; 4] = std::array::from_fn(|_| vec![0u64; c.cell_count()]);
        let mut v256 = vec![Packed256::bot(); c.cell_count()];
        for &src in c.inputs().iter().chain(c.flip_flops()) {
            let limbs = [next(), next(), next(), next()];
            for (l, v) in lanes64.iter_mut().enumerate() {
                v[src as usize] = limbs[l];
            }
            v256[src as usize] = Packed256::from_limbs(limbs);
        }
        let mut s64 = vec![0u64; p.scratch_words()];
        let mut s256 = vec![Packed256::bot(); p.scratch_words()];
        for v in &mut lanes64 {
            p.execute(v, &mut s64);
        }
        p.execute(&mut v256, &mut s256);
        for &id in c.order() {
            let id = id as usize;
            for (l, lane) in lanes64.iter().enumerate() {
                assert_eq!(v256[id].limb(l), lane[id], "cell {id} limb {l}");
            }
        }
        // eval_cell agrees at superword width too.
        for &id in c.order() {
            assert_eq!(p.eval_cell(id, &v256, &mut s256), v256[id as usize]);
        }
    }

    /// The generated s344 profile with a hold latch or hold mux behind
    /// every flip-flop, each read by a gate that reaches an output.
    fn generated_with_holds() -> Netlist {
        let profile = crate::profiles::iscas89_profile("s344").unwrap();
        let mut n = crate::generate::generate_circuit(&profile.generator_config()).unwrap();
        let ffs = n.flip_flops().to_vec();
        for (k, &ff) in ffs.iter().enumerate() {
            let kind = if k % 2 == 0 {
                CellKind::HoldLatch
            } else {
                CellKind::HoldMux
            };
            let h = n.add_cell(format!("hold{k}"), kind, vec![ff]);
            let other = ffs[(k + 1) % ffs.len()];
            let g = n.add_cell(format!("hg{k}"), CellKind::Nand2, vec![h, other]);
            n.add_output(format!("hy{k}"), g);
        }
        n
    }

    /// The run executor against a per-cell [`Program::eval_cell`] sweep over
    /// `compiled.order()` (the per-instruction path), from one dirty start
    /// state. `execute_with` runs under the commit hook of
    /// `CompiledSim::settle` with hold and sleep off and on: a hold cell
    /// freezes under hold, every third cell under sleep. Each cell must be
    /// committed exactly once, with its hold flag, and end at the sweep's
    /// value; plain `execute` must equal the unfrozen sweep.
    fn assert_runs_match_the_sweep<W>(n: &Netlist, word: impl Fn([u64; 4]) -> W)
    where
        W: LaneWord + PartialEq + std::fmt::Debug,
    {
        let c = CompiledCircuit::compile(n).unwrap();
        let p = Program::lower(&c);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let start: Vec<W> = (0..c.cell_count())
            .map(|_| word([next(), next(), next(), next()]))
            .collect();
        let gated: Vec<bool> = (0..c.cell_count()).map(|i| i % 3 == 0).collect();
        let mut scratch = vec![W::bot(); p.scratch_words()];
        let mut unfrozen = Vec::new();
        for (hold, sleep) in [(false, false), (true, false), (false, true), (true, true)] {
            let commit = |cell: u32, old: W, new: W, holdable: bool| {
                if (hold && holdable) || (sleep && gated[cell as usize]) {
                    old
                } else {
                    new
                }
            };
            let mut sweep = start.clone();
            for &id in c.order() {
                let new = p.eval_cell(id, &sweep, &mut scratch);
                let holdable = c.kind(id).is_hold_element();
                sweep[id as usize] = commit(id, sweep[id as usize], new, holdable);
            }
            let mut values = start.clone();
            let mut stores = vec![0u32; c.cell_count()];
            let executed = p.execute_with(&mut values, &mut scratch, |cell, old, new, holdable| {
                stores[cell as usize] += 1;
                assert_eq!(holdable, c.kind(cell).is_hold_element(), "cell {cell}");
                commit(cell, old, new, holdable)
            });
            assert_eq!(executed, p.inst_count() as u64);
            for id in 0..c.cell_count() as u32 {
                let want = u32::from(c.level_of(id) > 0);
                assert_eq!(stores[id as usize], want, "cell {id} stores");
            }
            assert_eq!(values, sweep, "hold {hold}, sleep {sleep}");
            if !hold && !sleep {
                unfrozen = sweep;
            }
        }
        let mut values = start;
        p.execute(&mut values, &mut scratch);
        assert_eq!(values, unfrozen, "execute");
    }

    /// Runs of every lane width against the per-cell sweep, on a generated
    /// circuit with hold cells and on the library netlist, whose wide
    /// generic gates spill scratch chains onto the per-instruction path.
    #[test]
    fn run_executor_matches_a_per_cell_sweep() {
        let generated = generated_with_holds();
        let library = library_netlist();
        let p = Program::lower(&CompiledCircuit::compile(&generated).unwrap());
        assert!(
            p.runs().len() * 2 < p.inst_count(),
            "runs group instructions"
        );
        assert!(p.runs().iter().all(|r| r.shape.is_some()));
        let p = Program::lower(&CompiledCircuit::compile(&library).unwrap());
        assert!(p.runs().iter().any(|r| r.shape.is_none()), "a scratch run");
        let dual = |l: [u64; 4]| Dual64 {
            one: l[0] & (l[1] | l[2]),
            zero: !l[0] & (l[1] | l[2]),
        };
        for n in [&generated, &library] {
            assert_runs_match_the_sweep(n, |l| l[0]);
            assert_runs_match_the_sweep(n, Packed256::from_limbs);
            assert_runs_match_the_sweep(n, dual);
            assert_runs_match_the_sweep(n, |l| {
                let d = dual(l);
                Dual8 {
                    one: d.one as u8,
                    zero: d.zero as u8,
                }
            });
        }
    }

    /// Levels are scheduled by (opcode, arity), so a batch never returns to
    /// a shape it left: each shape is one run per batch. The verifier
    /// proves the run table's tiling and shapes.
    #[test]
    fn a_batch_holds_one_run_per_shape() {
        let c = CompiledCircuit::compile(&generated_with_holds()).unwrap();
        let p = Program::lower(&c);
        assert!(crate::static_analysis::verify_program(&c, &p).is_clean());
        for b in p.batches() {
            let shapes: Vec<Option<(u8, u8)>> = p
                .runs()
                .iter()
                .filter(|r| r.start >= b.start && r.end <= b.end)
                .map(|r| r.shape.map(|(op, nops)| (op as u8, nops)))
                .collect();
            assert!(shapes.windows(2).all(|w| w[0] < w[1]), "{shapes:?}");
        }
    }

    #[test]
    fn opcode_histogram_and_occupancy_tile_the_program() {
        let n = library_netlist();
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        let hist = p.opcode_histogram();
        assert_eq!(
            hist.iter().map(|&(_, n)| n).sum::<u64>(),
            p.inst_count() as u64
        );
        assert!(hist.iter().any(|&(op, _)| op == Opcode::Aoi21));
        assert!(hist.windows(2).all(|w| (w[0].0 as u8) < (w[1].0 as u8)));
        let occ = p.level_occupancy();
        assert_eq!(
            occ.iter().map(|&(_, _, i)| i as usize).sum::<usize>(),
            p.inst_count()
        );
        assert_eq!(
            occ.iter().map(|&(_, b, _)| b as usize).sum::<usize>(),
            p.batches().len()
        );
        assert!(occ.windows(2).all(|w| w[0].0 < w[1].0), "level order");
        for &(_, batches, insts) in &occ {
            assert!(insts <= batches * BATCH_INSTS);
            assert!(insts > (batches - 1) * BATCH_INSTS, "no empty batches");
        }
    }

    #[test]
    fn disasm_names_cells_and_provenance() {
        let mut n = Netlist::new("dis");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c_in = n.add_input("c");
        let g = n.add_cell("g", CellKind::Aoi21, vec![a, b, c_in]);
        n.add_output("y", g);
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        let text = p.disasm_with(|slot| n.cell(c.cell_id(slot)).name().to_string());
        assert!(text.contains("aoi21"), "{text}");
        assert!(text.contains("fused 3 micro-ops"), "{text}");
        assert!(text.contains("a, b, c"), "{text}");
    }
    /// Evaluates `cell`'s chain bit by bit through its truth tables, with
    /// fanin `pin` (if any) read as `forced`.
    fn eval_by_tables(p: &Program, cell: u32, values: &[u64], pinned: Option<(usize, u64)>) -> u64 {
        let n_cells = p.cell_words() as u32;
        let slot_pin = pinned.map(|(pin, word)| (p.pin_slot(cell, pin), word));
        let mut scratch = vec![0u64; p.scratch_words()];
        let mut out = 0;
        for (i, inst) in p.chain_tables(cell).enumerate() {
            let mut word = 0u64;
            for lane in 0..64 {
                let mut row = 0usize;
                for k in 0..inst.nops {
                    let slot = inst.operands[k];
                    let w = match slot_pin {
                        Some(((si, sk), forced)) if si == i && sk == k => forced,
                        _ if slot < n_cells => values[slot as usize],
                        _ => scratch[(slot - n_cells) as usize],
                    };
                    row |= ((w >> lane & 1) as usize) << k;
                }
                word |= u64::from(inst.table >> row & 1) << lane;
            }
            if inst.dst < n_cells {
                assert_eq!(inst.dst, cell, "only the last instruction stores the cell");
                out = word;
            } else {
                scratch[(inst.dst - n_cells) as usize] = word;
            }
        }
        out
    }

    #[test]
    fn chain_tables_evaluate_like_the_executor() {
        // The library plus gates that read one driver on several pins.
        let mut n = library_netlist();
        let a = n.inputs()[0];
        let b = n.inputs()[1];
        for (i, (kind, fanin)) in [
            (CellKind::Xor2, vec![a, a]),
            (CellKind::Aoi21, vec![a, b, a]),
            (CellKind::Mux2, vec![b, a, a]),
            (CellKind::XorN(5), vec![a, b, a, b, a]),
        ]
        .into_iter()
        .enumerate()
        {
            let g = n.add_cell(format!("dup{i}"), kind, fanin);
            n.add_output(format!("ydup{i}"), g);
        }
        let c = CompiledCircuit::compile(&n).unwrap();
        let p = Program::lower(&c);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ state >> 29
        };
        for _ in 0..4 {
            let mut values = vec![0u64; p.cell_words()];
            for &src in c.inputs() {
                values[src as usize] = next();
            }
            let mut scratch = vec![0u64; p.scratch_words()];
            p.execute(&mut values, &mut scratch);
            for &id in c.order() {
                assert_eq!(
                    eval_by_tables(&p, id, &values, None),
                    values[id as usize],
                    "cell {id}"
                );
                for pin in 0..c.fanin(id).len() {
                    let forced = next();
                    assert_eq!(
                        eval_by_tables(&p, id, &values, Some((pin, forced))),
                        p.eval_cell_pinned(id, pin, forced, &values, &mut scratch),
                        "cell {id} pin {pin}"
                    );
                }
            }
        }
        for &src in c.inputs() {
            assert_eq!(p.chain_tables(src).count(), 0, "a source has no chain");
        }
    }
}
