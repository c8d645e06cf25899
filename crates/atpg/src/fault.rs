//! Stuck-at fault model: sites, enumeration and equivalence collapsing.

use flh_netlist::{analysis::FanoutMap, CellId, CellKind, Netlist};

/// The stuck polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StuckValue {
    /// Stuck-at-0.
    Zero,
    /// Stuck-at-1.
    One,
}

impl StuckValue {
    /// The boolean the line is stuck at.
    pub fn as_bool(self) -> bool {
        self == StuckValue::One
    }

    /// 64-bit mask of the stuck value.
    pub fn word(self) -> u64 {
        if self.as_bool() {
            !0
        } else {
            0
        }
    }

    /// Opposite polarity.
    pub fn opposite(self) -> Self {
        match self {
            StuckValue::Zero => StuckValue::One,
            StuckValue::One => StuckValue::Zero,
        }
    }
}

/// Where a fault lives: on a driver's output (stem) or on one fanout
/// branch (an input pin of one reading gate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The output line of a cell.
    Stem(CellId),
    /// The `pin`-th input of `gate` (only meaningful where the driving net
    /// has fanout > 1; otherwise the branch is equivalent to the stem).
    Branch {
        /// Reading gate.
        gate: CellId,
        /// Input pin index.
        pin: usize,
    },
}

/// A single stuck-at fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Location.
    pub site: FaultSite,
    /// Polarity.
    pub stuck: StuckValue,
}

impl Fault {
    /// Stem stuck-at fault constructor.
    pub fn stem(cell: CellId, stuck: StuckValue) -> Self {
        Fault {
            site: FaultSite::Stem(cell),
            stuck,
        }
    }

    /// Branch stuck-at fault constructor.
    pub fn branch(gate: CellId, pin: usize, stuck: StuckValue) -> Self {
        Fault {
            site: FaultSite::Branch { gate, pin },
            stuck,
        }
    }

    /// The cell whose value the fault perturbs first (the stem driver, or
    /// the branch's reading gate's fanin driver).
    pub fn driver(&self, netlist: &Netlist) -> CellId {
        match self.site {
            FaultSite::Stem(cell) => cell,
            FaultSite::Branch { gate, pin } => netlist.cell(gate).fanin()[pin],
        }
    }
}

/// Enumerates the uncollapsed single stuck-at fault universe:
///
/// * both polarities on every stem that drives at least one reader —
///   primary inputs, flip-flop outputs and combinational cells alike;
/// * both polarities on every fanout branch of nets with fanout > 1.
///
/// Observation pins carry no fault of their own: an `Output` marker's
/// input and a flip-flop's D pin are observed as their driving stem, so a
/// branch into either is skipped.
pub fn enumerate_stuck_faults(netlist: &Netlist) -> Vec<Fault> {
    let fanouts = FanoutMap::compute(netlist);
    let mut faults = Vec::new();
    for (id, cell) in netlist.iter() {
        if cell.kind() == CellKind::Output {
            continue;
        }
        let n_readers = fanouts.fanout_count(id);
        if n_readers == 0 {
            continue;
        }
        faults.push(Fault::stem(id, StuckValue::Zero));
        faults.push(Fault::stem(id, StuckValue::One));
        if n_readers > 1 {
            for &reader in fanouts.readers(id) {
                let kind = netlist.cell(reader).kind();
                if kind == CellKind::Output || kind.is_flip_flop() {
                    continue;
                }
                for (pin, &f) in netlist.cell(reader).fanin().iter().enumerate() {
                    if f == id {
                        faults.push(Fault::branch(reader, pin, StuckValue::Zero));
                        faults.push(Fault::branch(reader, pin, StuckValue::One));
                    }
                }
            }
        }
    }
    faults
}

/// Structural equivalence collapsing.
///
/// Classic local rules on simple gates with single-fanout inputs:
///
/// * `AND`/`NAND`: all input s-a-0 are equivalent to each other and to the
///   output s-a-(0 / 1); keep the output representative.
/// * `OR`/`NOR`: dually for input s-a-1.
/// * `INV`/`BUF`: both input faults are equivalent to output faults.
///
/// The rules are applied to stem faults whose driver's only reader is the
/// gate in question (branch faults on fanout stems are kept — they are not
/// equivalent). Collapsing only ever removes faults, never changes
/// coverage semantics: a test set detecting the collapsed set detects the
/// full set.
pub fn collapse_faults(netlist: &Netlist, faults: &[Fault]) -> Vec<Fault> {
    let fanouts = FanoutMap::compute(netlist);
    let mut keep: Vec<Fault> = Vec::with_capacity(faults.len());
    for &fault in faults {
        if let FaultSite::Stem(cell) = fault.site {
            // A stem with a single reader that is a collapsing gate: the
            // fault folds into the reader.
            if fanouts.fanout_count(cell) == 1 {
                let reader = fanouts.readers(cell)[0];
                let kind = netlist.cell(reader).kind();
                let collapsible = match kind {
                    CellKind::Inv | CellKind::Buf => true,
                    CellKind::And2
                    | CellKind::And3
                    | CellKind::And4
                    | CellKind::Nand2
                    | CellKind::Nand3
                    | CellKind::Nand4 => fault.stuck == StuckValue::Zero,
                    CellKind::Or2
                    | CellKind::Or3
                    | CellKind::Or4
                    | CellKind::Nor2
                    | CellKind::Nor3
                    | CellKind::Nor4 => fault.stuck == StuckValue::One,
                    _ => false,
                };
                if collapsible {
                    continue;
                }
            }
        }
        keep.push(fault);
    }
    keep
}

/// Builds a structurally faulty copy of `netlist`: the stuck-at fault is
/// baked in as a constant cell, so ordinary (fault-free) simulators — the
/// logic simulator, the BIST controller, the analog flow — can run the
/// defective circuit directly.
///
/// * stem faults redirect every reader of the site to a new constant;
/// * branch faults redirect only the faulted pin.
///
/// # Panics
///
/// Panics if a branch fault's pin does not read its recorded driver
/// (inconsistent fault descriptor).
pub fn inject_fault(netlist: &Netlist, fault: &Fault) -> Netlist {
    let mut out = netlist.clone();
    let kind = if fault.stuck.as_bool() {
        CellKind::Const1
    } else {
        CellKind::Const0
    };
    let name = out.fresh_name("fault_const_");
    let konst = out.add_cell(name, kind, Vec::new());
    match fault.site {
        FaultSite::Stem(cell) => {
            out.redirect_readers(cell, konst, &[]);
        }
        FaultSite::Branch { gate, pin } => {
            let driver = out.cell(gate).fanin()[pin];
            assert_eq!(
                driver,
                fault.driver(netlist),
                "branch fault pin does not read its driver"
            );
            out.set_fanin_pin(gate, pin, konst);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_netlist::Netlist;

    fn fanout_circuit() -> Netlist {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::Nand2, vec![a, b]);
        let h1 = n.add_cell("h1", CellKind::Inv, vec![g]);
        let h2 = n.add_cell("h2", CellKind::Inv, vec![g]);
        n.add_output("y1", h1);
        n.add_output("y2", h2);
        n
    }

    #[test]
    fn enumeration_counts() {
        let n = fanout_circuit();
        let faults = enumerate_stuck_faults(&n);
        // Stems: a, b, g, h1, h2 => 10 faults.
        // Branches: g has fanout 2 (h1, h2) => 4 faults.
        assert_eq!(faults.len(), 14);
    }

    #[test]
    fn unread_cells_carry_no_faults() {
        let mut n = Netlist::new("u");
        let a = n.add_input("a");
        n.add_cell("dead", CellKind::Inv, vec![a]);
        let g = n.add_cell("g", CellKind::Inv, vec![a]);
        n.add_output("y", g);
        let faults = enumerate_stuck_faults(&n);
        // a (fanout 2 => stem + 2 branch pairs), g stem; dead drives nothing.
        let dead = n.find("dead").unwrap();
        assert!(faults
            .iter()
            .all(|f| !matches!(f.site, FaultSite::Stem(c) if c == dead)));
    }

    #[test]
    fn collapsing_shrinks_the_list() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::And2, vec![a, b]);
        n.add_output("y", g);
        let faults = enumerate_stuck_faults(&n);
        let collapsed = collapse_faults(&n, &faults);
        assert!(collapsed.len() < faults.len());
        // Input s-a-0 on single-fanout stems into an AND collapse away.
        assert!(!collapsed.contains(&Fault::stem(a, StuckValue::Zero)));
        assert!(collapsed.contains(&Fault::stem(a, StuckValue::One)));
        assert!(collapsed.contains(&Fault::stem(g, StuckValue::Zero)));
    }

    #[test]
    fn branch_faults_survive_collapsing() {
        let n = fanout_circuit();
        let faults = enumerate_stuck_faults(&n);
        let collapsed = collapse_faults(&n, &faults);
        let h1 = n.find("h1").unwrap();
        assert!(collapsed.contains(&Fault::branch(h1, 0, StuckValue::Zero)));
    }

    #[test]
    fn fault_driver() {
        let n = fanout_circuit();
        let g = n.find("g").unwrap();
        let h1 = n.find("h1").unwrap();
        assert_eq!(Fault::stem(g, StuckValue::One).driver(&n), g);
        assert_eq!(Fault::branch(h1, 0, StuckValue::One).driver(&n), g);
    }

    #[test]
    fn injected_stem_fault_behaves_stuck() {
        let n = fanout_circuit();
        let g = n.find("g").unwrap();
        let faulty = inject_fault(&n, &Fault::stem(g, StuckValue::One));
        faulty.validate().unwrap();
        // Both inverters now read the constant.
        let h1 = faulty.find("h1").unwrap();
        let h2 = faulty.find("h2").unwrap();
        let k1 = faulty.cell(faulty.cell(h1).fanin()[0]).kind();
        let k2 = faulty.cell(faulty.cell(h2).fanin()[0]).kind();
        assert_eq!(k1, CellKind::Const1);
        assert_eq!(k2, CellKind::Const1);
    }

    #[test]
    fn injected_branch_fault_is_local() {
        let n = fanout_circuit();
        let g = n.find("g").unwrap();
        let h1 = n.find("h1").unwrap();
        let faulty = inject_fault(&n, &Fault::branch(h1, 0, StuckValue::Zero));
        faulty.validate().unwrap();
        let h1f = faulty.find("h1").unwrap();
        let h2f = faulty.find("h2").unwrap();
        assert_eq!(
            faulty.cell(faulty.cell(h1f).fanin()[0]).kind(),
            CellKind::Const0
        );
        // h2 still reads the real gate.
        assert_eq!(faulty.cell(h2f).fanin()[0], g);
    }

    #[test]
    fn stuck_value_helpers() {
        assert_eq!(StuckValue::One.word(), !0u64);
        assert_eq!(StuckValue::Zero.word(), 0);
        assert_eq!(StuckValue::One.opposite(), StuckValue::Zero);
        assert!(StuckValue::One.as_bool());
    }
}
