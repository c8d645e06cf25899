//! Cell identifiers and the standard-cell vocabulary.

use std::fmt;

/// Index of a cell inside a [`crate::Netlist`].
///
/// `CellId` is a plain newtype over `u32`; ids are dense and stable for the
/// lifetime of a netlist (cells are never removed, only rewired or marked
/// dead by transforms that rebuild the netlist).
///
/// ```
/// use flh_netlist::CellId;
/// let id = CellId::from_index(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

impl CellId {
    /// Builds an id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> Self {
        CellId(u32::try_from(index).expect("cell index overflows u32"))
    }

    /// Dense index of this cell in its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// 64 lanes of dual-rail three-valued logic.
///
/// Bit `i` of `one` says lane `i` is definitely 1; bit `i` of `zero` says it
/// is definitely 0; a lane set in neither plane is unknown (X). A lane set
/// in both planes is a contradiction and never produced by the library
/// evaluators. The Kleene connectives are its [`LaneWord`] impl, so the
/// lowered [`Program`] evaluates any cell over it exactly.
///
/// [`LaneWord`]: crate::LaneWord
/// [`Program`]: crate::Program
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dual64 {
    /// Definitely-one plane.
    pub one: u64,
    /// Definitely-zero plane.
    pub zero: u64,
}

impl Dual64 {
    /// All 64 lanes unknown.
    #[inline]
    pub fn all_x() -> Self {
        Dual64 { one: 0, zero: 0 }
    }

    /// All 64 lanes definitely 0.
    #[inline]
    pub fn all_zero() -> Self {
        Dual64 { one: 0, zero: !0 }
    }

    /// All 64 lanes definitely 1.
    #[inline]
    pub fn all_one() -> Self {
        Dual64 { one: !0, zero: 0 }
    }

    /// Fully-known lanes from a two-valued word: bit set ⇒ 1, clear ⇒ 0.
    #[inline]
    pub fn from_word(word: u64) -> Self {
        Dual64 {
            one: word,
            zero: !word,
        }
    }

    /// Mask of lanes carrying a known (non-X) value.
    #[inline]
    pub fn known(self) -> u64 {
        self.one | self.zero
    }
}

/// Which holding element a DFT style inserts in the stimulus path.
///
/// Used by higher-level crates to tag [`CellKind::HoldLatch`] /
/// [`CellKind::HoldMux`] insertions and by the simulator to decide the
/// hold-mode semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HoldStyle {
    /// Enhanced-scan hold latch (Fig. 1(b) left / Fig. 6(a) of the paper).
    Latch,
    /// MUX-based holding element (Fig. 1(b) right / Fig. 6(b) of the paper).
    Mux,
}

impl fmt::Display for HoldStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HoldStyle::Latch => f.write_str("hold-latch"),
            HoldStyle::Mux => f.write_str("hold-mux"),
        }
    }
}

/// The kind (library template) of a netlist cell.
///
/// The vocabulary covers:
///
/// * circuit boundary pseudo-cells (`Input`, `Output`, constants);
/// * sequential cells (`Dff`, `ScanDff`);
/// * the LEDA-like combinational library the paper maps to — inverting and
///   non-inverting simple gates of 2–4 inputs, AOI/OAI complex gates, a 2:1
///   MUX and XOR/XNOR;
/// * DFT holding cells (`HoldLatch`, `HoldMux`) inserted by the enhanced-scan
///   and MUX-based styles;
/// * `generic` wide gates (`AndN` … `NorN`) as read from ISCAS89 `.bench`
///   files before technology mapping.
///
/// All cells have exactly one output. Multi-output ISCAS89 fanout branches
/// are represented implicitly by multiple readers of the same driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Primary input (no fanin).
    Input,
    /// Primary output marker (one fanin, no fanout).
    Output,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Inv,
    /// D flip-flop; fanin = `[d]`, output = `q`.
    Dff,
    /// Scan (muxed-D) flip-flop; fanin = `[d]`. The scan path is maintained
    /// structurally by the scan-chain order, not as explicit fanin edges.
    ScanDff,
    /// Enhanced-scan hold latch in the stimulus path; fanin = `[d]`.
    HoldLatch,
    /// MUX-based holding element; fanin = `[d]` with an implicit self-feedback
    /// loop closed in hold mode.
    HoldMux,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 4-input OR.
    Or4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-INVERT 2-1: `!((a & b) | c)`, fanin = `[a, b, c]`.
    Aoi21,
    /// AND-OR-INVERT 2-2: `!((a & b) | (c & d))`, fanin = `[a, b, c, d]`.
    Aoi22,
    /// OR-AND-INVERT 2-1: `!((a | b) & c)`, fanin = `[a, b, c]`.
    Oai21,
    /// OR-AND-INVERT 2-2: `!((a | b) & (c | d))`, fanin = `[a, b, c, d]`.
    Oai22,
    /// 2:1 multiplexer: fanin = `[a, b, s]`, output = `s ? b : a`.
    Mux2,
    /// Generic wide AND of `n` inputs (pre-mapping only), `2 <= n <= 16`.
    AndN(u8),
    /// Generic wide NAND of `n` inputs (pre-mapping only).
    NandN(u8),
    /// Generic wide OR of `n` inputs (pre-mapping only).
    OrN(u8),
    /// Generic wide NOR of `n` inputs (pre-mapping only).
    NorN(u8),
    /// Generic wide XOR (odd parity) of `n` inputs (pre-mapping only).
    XorN(u8),
}

impl CellKind {
    /// Number of fanin pins this kind requires.
    ///
    /// ```
    /// use flh_netlist::CellKind;
    /// assert_eq!(CellKind::Aoi22.arity(), 4);
    /// assert_eq!(CellKind::Input.arity(), 0);
    /// ```
    pub fn arity(self) -> usize {
        use CellKind::*;
        match self {
            Input | Const0 | Const1 => 0,
            Output | Buf | Inv | Dff | ScanDff | HoldLatch | HoldMux => 1,
            And2 | Nand2 | Or2 | Nor2 | Xor2 | Xnor2 => 2,
            And3 | Nand3 | Or3 | Nor3 | Aoi21 | Oai21 | Mux2 => 3,
            And4 | Nand4 | Or4 | Nor4 | Aoi22 | Oai22 => 4,
            AndN(n) | NandN(n) | OrN(n) | NorN(n) | XorN(n) => n as usize,
        }
    }

    /// True for the sequential cells (`Dff`, `ScanDff`).
    pub fn is_flip_flop(self) -> bool {
        matches!(self, CellKind::Dff | CellKind::ScanDff)
    }

    /// True for the DFT holding cells inserted in the stimulus path.
    pub fn is_hold_element(self) -> bool {
        matches!(self, CellKind::HoldLatch | CellKind::HoldMux)
    }

    /// True for combinational logic cells (everything that computes a value
    /// each cycle: gates, buffers, constants — but not boundary, sequential
    /// or holding cells).
    pub fn is_combinational(self) -> bool {
        use CellKind::*;
        !matches!(self, Input | Output | Dff | ScanDff | HoldLatch | HoldMux)
    }

    /// True for generic wide gates that must be technology-mapped before the
    /// physical crates (`flh-tech`, `flh-timing`, `flh-power`) can cost them.
    pub fn is_generic(self) -> bool {
        matches!(
            self,
            CellKind::AndN(_)
                | CellKind::NandN(_)
                | CellKind::OrN(_)
                | CellKind::NorN(_)
                | CellKind::XorN(_)
        )
    }

    /// True for the inverting kinds, whose output is 1 when every input is
    /// 0: `Inv`, `Nand*`, `Nor*`, `Xnor2`, `Aoi*` and `Oai*`. A backtrace
    /// through one flips its objective, and a path through an odd number of
    /// them inverts.
    #[inline]
    pub fn inverts(self) -> bool {
        use CellKind::*;
        matches!(
            self,
            Inv | Nand2
                | Nand3
                | Nand4
                | Nor2
                | Nor3
                | Nor4
                | Xnor2
                | Aoi21
                | Aoi22
                | Oai21
                | Oai22
                | NandN(_)
                | NorN(_)
        )
    }

    /// Evaluates the cell function over 64 two-valued patterns in parallel
    /// (one pattern per bit). Sequential and boundary cells behave as
    /// buffers of their single fanin; constants ignore `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`CellKind::arity`].
    pub fn eval64(self, inputs: &[u64]) -> u64 {
        use CellKind::*;
        assert_eq!(
            inputs.len(),
            self.arity(),
            "{self:?} expects {} inputs, got {}",
            self.arity(),
            inputs.len()
        );
        match self {
            Input => 0,
            Const0 => 0,
            Const1 => !0,
            Output | Buf | Dff | ScanDff | HoldLatch | HoldMux => inputs[0],
            Inv => !inputs[0],
            And2 | And3 | And4 => inputs.iter().fold(!0u64, |acc, v| acc & v),
            Nand2 | Nand3 | Nand4 => !inputs.iter().fold(!0u64, |acc, v| acc & v),
            Or2 | Or3 | Or4 => inputs.iter().fold(0u64, |acc, v| acc | v),
            Nor2 | Nor3 | Nor4 => !inputs.iter().fold(0u64, |acc, v| acc | v),
            Xor2 => inputs[0] ^ inputs[1],
            Xnor2 => !(inputs[0] ^ inputs[1]),
            Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
            Mux2 => (inputs[0] & !inputs[2]) | (inputs[1] & inputs[2]),
            AndN(_) => inputs.iter().fold(!0u64, |acc, v| acc & v),
            NandN(_) => !inputs.iter().fold(!0u64, |acc, v| acc & v),
            OrN(_) => inputs.iter().fold(0u64, |acc, v| acc | v),
            NorN(_) => !inputs.iter().fold(0u64, |acc, v| acc | v),
            XorN(_) => inputs.iter().fold(0u64, |acc, v| acc ^ v),
        }
    }

    /// Scalar two-valued evaluation convenience over [`CellKind::eval64`].
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.eval64(&words) & 1 != 0
    }

    /// Library name as used by the `.bench` writer and reports.
    pub fn library_name(self) -> &'static str {
        use CellKind::*;
        match self {
            Input => "INPUT",
            Output => "OUTPUT",
            Const0 => "CONST0",
            Const1 => "CONST1",
            Buf => "BUFF",
            Inv => "NOT",
            Dff => "DFF",
            ScanDff => "SDFF",
            HoldLatch => "HOLDL",
            HoldMux => "HOLDM",
            And2 | And3 | And4 | AndN(_) => "AND",
            Nand2 | Nand3 | Nand4 | NandN(_) => "NAND",
            Or2 | Or3 | Or4 | OrN(_) => "OR",
            Nor2 | Nor3 | Nor4 | NorN(_) => "NOR",
            Xor2 | XorN(_) => "XOR",
            Xnor2 => "XNOR",
            Aoi21 => "AOI21",
            Aoi22 => "AOI22",
            Oai21 => "OAI21",
            Oai22 => "OAI22",
            Mux2 => "MUX",
        }
    }

    /// The library AND cell of the given arity (2–4).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= n <= 4`.
    pub fn and(n: usize) -> Self {
        match n {
            2 => CellKind::And2,
            3 => CellKind::And3,
            4 => CellKind::And4,
            _ => panic!("no AND{n} library cell"),
        }
    }

    /// The library NAND cell of the given arity (2–4).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= n <= 4`.
    pub fn nand(n: usize) -> Self {
        match n {
            2 => CellKind::Nand2,
            3 => CellKind::Nand3,
            4 => CellKind::Nand4,
            _ => panic!("no NAND{n} library cell"),
        }
    }

    /// The library OR cell of the given arity (2–4).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= n <= 4`.
    pub fn or(n: usize) -> Self {
        match n {
            2 => CellKind::Or2,
            3 => CellKind::Or3,
            4 => CellKind::Or4,
            _ => panic!("no OR{n} library cell"),
        }
    }

    /// The library NOR cell of the given arity (2–4).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= n <= 4`.
    pub fn nor(n: usize) -> Self {
        match n {
            2 => CellKind::Nor2,
            3 => CellKind::Nor3,
            4 => CellKind::Nor4,
            _ => panic!("no NOR{n} library cell"),
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CellKind::*;
        match *self {
            AndN(n) => write!(f, "AND{n}*"),
            NandN(n) => write!(f, "NAND{n}*"),
            OrN(n) => write!(f, "OR{n}*"),
            NorN(n) => write!(f, "NOR{n}*"),
            XorN(n) => write!(f, "XOR{n}*"),
            And2 | And3 | And4 | Nand2 | Nand3 | Nand4 | Or2 | Or3 | Or4 | Nor2 | Nor3 | Nor4 => {
                write!(f, "{}{}", self.library_name(), self.arity())
            }
            _ => f.write_str(self.library_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_variants() {
        assert_eq!(CellKind::Inv.arity(), 1);
        assert_eq!(CellKind::Nand3.arity(), 3);
        assert_eq!(CellKind::Oai22.arity(), 4);
        assert_eq!(CellKind::Mux2.arity(), 3);
        assert_eq!(CellKind::NandN(7).arity(), 7);
    }

    #[test]
    fn eval_simple_gates() {
        assert!(!CellKind::Nand2.eval_bool(&[true, true]));
        assert!(CellKind::Nand2.eval_bool(&[true, false]));
        assert!(CellKind::Nor2.eval_bool(&[false, false]));
        assert!(!CellKind::Nor2.eval_bool(&[true, false]));
        assert!(CellKind::Xor2.eval_bool(&[true, false]));
        assert!(!CellKind::Xor2.eval_bool(&[true, true]));
        assert!(CellKind::Xnor2.eval_bool(&[true, true]));
    }

    #[test]
    fn eval_complex_gates() {
        // AOI21 = !((a&b)|c)
        assert!(!CellKind::Aoi21.eval_bool(&[true, true, false]));
        assert!(!CellKind::Aoi21.eval_bool(&[false, false, true]));
        assert!(CellKind::Aoi21.eval_bool(&[true, false, false]));
        // OAI22 = !((a|b)&(c|d))
        assert!(CellKind::Oai22.eval_bool(&[false, false, true, true]));
        assert!(!CellKind::Oai22.eval_bool(&[true, false, false, true]));
    }

    #[test]
    fn inverting_kinds_output_one_on_all_zero_inputs() {
        use CellKind::*;
        let fixed = [
            Input, Output, Const0, Const1, Buf, Inv, Dff, ScanDff, HoldLatch, HoldMux, And2, And3,
            And4, Nand2, Nand3, Nand4, Or2, Or3, Or4, Nor2, Nor3, Nor4, Xor2, Xnor2, Aoi21, Aoi22,
            Oai21, Oai22, Mux2,
        ];
        let generic = (2..=16).flat_map(|n| [AndN(n), NandN(n), OrN(n), NorN(n), XorN(n)]);
        for kind in fixed.into_iter().chain(generic) {
            if kind.arity() >= 1 {
                let zeros = vec![false; kind.arity()];
                assert_eq!(kind.inverts(), kind.eval_bool(&zeros), "{kind:?}");
            }
        }
    }

    #[test]
    fn eval_mux() {
        // output = s ? b : a with fanin [a, b, s]
        assert!(CellKind::Mux2.eval_bool(&[true, false, false]));
        assert!(!CellKind::Mux2.eval_bool(&[true, false, true]));
        assert!(CellKind::Mux2.eval_bool(&[false, true, true]));
    }

    #[test]
    fn eval_wide_parity() {
        assert!(CellKind::XorN(3).eval_bool(&[true, true, true]));
        assert!(!CellKind::XorN(3).eval_bool(&[true, true, false]));
    }

    #[test]
    fn eval64_is_bitwise_parallel() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(CellKind::And2.eval64(&[a, b]) & 0xF, 0b1000);
        assert_eq!(CellKind::Or2.eval64(&[a, b]) & 0xF, 0b1110);
        assert_eq!(CellKind::Nand2.eval64(&[a, b]) & 0xF, 0b0111);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_wrong_arity_panics() {
        CellKind::And2.eval64(&[0]);
    }

    #[test]
    fn classification_flags() {
        assert!(CellKind::Dff.is_flip_flop());
        assert!(CellKind::ScanDff.is_flip_flop());
        assert!(!CellKind::HoldLatch.is_flip_flop());
        assert!(CellKind::HoldMux.is_hold_element());
        assert!(CellKind::Aoi21.is_combinational());
        assert!(!CellKind::Input.is_combinational());
        assert!(CellKind::NandN(5).is_generic());
        assert!(!CellKind::Nand4.is_generic());
    }

    #[test]
    fn constructors_by_arity() {
        assert_eq!(CellKind::nand(3), CellKind::Nand3);
        assert_eq!(CellKind::or(4), CellKind::Or4);
    }

    #[test]
    fn display_names() {
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
        assert_eq!(CellKind::Aoi22.to_string(), "AOI22");
        assert_eq!(CellKind::NandN(6).to_string(), "NAND6*");
        assert_eq!(CellId::from_index(5).to_string(), "c5");
    }
}
