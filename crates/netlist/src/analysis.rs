//! Structural analysis: topological order, levelization, fanout maps,
//! first-level-gate identification and circuit statistics.

use std::collections::HashMap;

use crate::cell::{CellId, CellKind};
use crate::error::NetlistError;
use crate::graph::Netlist;
use crate::Result;

/// True for cells evaluated inside a clock cycle (everything except the
/// stateful sources: primary inputs and flip-flop outputs). Constants are
/// evaluable — they have no fanin and simply compute their fixed value, so
/// every simulator initializes them correctly.
fn is_evaluable(kind: CellKind) -> bool {
    !matches!(kind, CellKind::Input | CellKind::Dff | CellKind::ScanDff)
}

/// Computes a topological order of the evaluable (combinational + boundary +
/// holding) cells, treating primary inputs, constants and flip-flop outputs
/// as sources.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational part of
/// the netlist is cyclic.
pub fn combinational_order(netlist: &Netlist) -> Result<Vec<CellId>> {
    let n = netlist.cell_count();
    let mut pending = vec![0usize; n];
    let mut readers: Vec<Vec<CellId>> = vec![Vec::new(); n];
    let mut frontier = Vec::new();

    for (id, cell) in netlist.iter() {
        if !is_evaluable(cell.kind()) {
            continue;
        }
        let mut unresolved = 0;
        for &f in cell.fanin() {
            if is_evaluable(netlist.cell(f).kind()) {
                unresolved += 1;
                readers[f.index()].push(id);
            }
        }
        pending[id.index()] = unresolved;
        if unresolved == 0 {
            frontier.push(id);
        }
    }

    let evaluable_total = netlist
        .iter()
        .filter(|(_, c)| is_evaluable(c.kind()))
        .count();
    let mut order = Vec::with_capacity(evaluable_total);
    while let Some(id) = frontier.pop() {
        order.push(id);
        for &r in &readers[id.index()] {
            pending[r.index()] -= 1;
            if pending[r.index()] == 0 {
                frontier.push(r);
            }
        }
    }

    if order.len() != evaluable_total {
        // Some evaluable cell never reached zero pending fanins: cycle.
        let cell = netlist
            .iter()
            .find(|(id, c)| is_evaluable(c.kind()) && pending[id.index()] > 0)
            .map(|(id, _)| id)
            .expect("cycle detected but no pending cell found");
        return Err(NetlistError::CombinationalCycle { cell });
    }
    Ok(order)
}

/// Per-cell logic level and a level-consistent evaluation order.
///
/// Sources (primary inputs, constants, flip-flop outputs) sit at level 0;
/// every evaluable cell is one level above its deepest fanin. The maximum
/// level of any gate equals the paper's "critical-path logic levels" figure
/// (Table II, column 2) up to the structural-vs-sensitizable distinction.
#[derive(Clone, Debug)]
pub struct Levelization {
    levels: Vec<u32>,
    order: Vec<CellId>,
    depth: u32,
}

impl Levelization {
    /// Levelizes a netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`] from the topological
    /// sort.
    pub fn compute(netlist: &Netlist) -> Result<Self> {
        let order = combinational_order(netlist)?;
        let mut levels = vec![0u32; netlist.cell_count()];
        let mut depth = 0;
        for &id in &order {
            let cell = netlist.cell(id);
            let lvl = cell
                .fanin()
                .iter()
                .map(|&f| levels[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
            levels[id.index()] = lvl;
            // Output markers are free; don't let them inflate depth.
            if cell.kind() != CellKind::Output {
                depth = depth.max(lvl);
            }
        }
        Ok(Levelization {
            levels,
            order,
            depth,
        })
    }

    /// Logic level of a cell (0 for sources).
    pub fn level(&self, id: CellId) -> u32 {
        self.levels[id.index()]
    }

    /// Evaluation order (every cell after all of its evaluable fanins).
    pub fn order(&self) -> &[CellId] {
        &self.order
    }

    /// Deepest gate level — the structural critical-path logic depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// Reverse-edge (reader) map of a netlist.
#[derive(Clone, Debug)]
pub struct FanoutMap {
    readers: Vec<Vec<CellId>>,
}

impl FanoutMap {
    /// Builds the fanout map.
    pub fn compute(netlist: &Netlist) -> Self {
        let mut readers: Vec<Vec<CellId>> = vec![Vec::new(); netlist.cell_count()];
        for (id, cell) in netlist.iter() {
            for &f in cell.fanin() {
                readers[f.index()].push(id);
            }
        }
        FanoutMap { readers }
    }

    /// Cells reading the output of `id` (a reader appears once per pin it
    /// connects, so a gate using a signal twice is listed twice).
    pub fn readers(&self, id: CellId) -> &[CellId] {
        &self.readers[id.index()]
    }

    /// Fanout count (number of reading pins) of `id`.
    pub fn fanout_count(&self, id: CellId) -> usize {
        self.readers[id.index()].len()
    }
}

/// Identifies the *first level gates*: the distinct combinational cells that
/// read at least one flip-flop output. These are exactly the gates the FLH
/// technique supply-gates (Section II-A of the paper).
///
/// A flip-flop output wired straight to a primary output or to another
/// flip-flop's D pin contributes no first-level gate. The returned list is
/// sorted by id and duplicate-free.
pub fn first_level_gates(netlist: &Netlist, fanouts: &FanoutMap) -> Vec<CellId> {
    first_level_gates_of(netlist, fanouts, netlist.flip_flops())
}

/// Identifies the distinct combinational cells reading any of the given
/// source cells — the generalization of [`first_level_gates`] the paper's
/// Section IV BIST discussion needs ("FLH … can be equally used to the
/// fanout logic gates for the primary inputs"). The returned list is sorted
/// and duplicate-free.
pub fn first_level_gates_of(
    netlist: &Netlist,
    fanouts: &FanoutMap,
    sources: &[CellId],
) -> Vec<CellId> {
    let mut seen = vec![false; netlist.cell_count()];
    let mut gates = Vec::new();
    for &src in sources {
        for &reader in fanouts.readers(src) {
            let kind = netlist.cell(reader).kind();
            if kind.is_combinational() && !seen[reader.index()] {
                seen[reader.index()] = true;
                gates.push(reader);
            }
        }
    }
    gates.sort();
    gates
}

/// Total number of flip-flop output fanout pins into combinational logic
/// (the paper's "Total fanouts" column in Table I). Direct FF→FF and FF→PO
/// connections are not state inputs of the combinational block and are
/// excluded.
pub fn total_ff_fanouts(netlist: &Netlist, fanouts: &FanoutMap) -> usize {
    netlist
        .flip_flops()
        .iter()
        .map(|&ff| {
            fanouts
                .readers(ff)
                .iter()
                .filter(|&&r| netlist.cell(r).kind().is_combinational())
                .count()
        })
        .sum()
}

/// Transitive fanin cone of a cell (stopping at sources and sequential
/// boundaries), as a sorted id list including the seed.
pub fn fanin_cone(netlist: &Netlist, seed: CellId) -> Vec<CellId> {
    let mut in_cone = vec![false; netlist.cell_count()];
    let mut stack = vec![seed];
    in_cone[seed.index()] = true;
    let mut cone = vec![seed];
    while let Some(id) = stack.pop() {
        let cell = netlist.cell(id);
        if cell.kind().is_flip_flop() && id != seed {
            continue;
        }
        for &f in cell.fanin() {
            if !in_cone[f.index()] {
                in_cone[f.index()] = true;
                cone.push(f);
                stack.push(f);
            }
        }
    }
    cone.sort();
    cone
}

/// Combinational cells whose output can reach no observation point — no
/// primary-output marker and no flip-flop D pin — by any forward path. Such
/// *dead cones* are legal but wasted silicon: the fault simulator skips
/// them and `flh-lint` reports them as `FLH005` warnings.
///
/// Primary inputs that drive nothing observable are included (a floating
/// input is a dead cone of depth zero). Boundary markers, flip-flops and
/// holding cells are never reported. The returned list is sorted by id.
///
/// Robust against cyclic netlists (plain reverse reachability, no
/// topological order needed), so the lint can run it even when the cycle
/// check has already failed.
pub fn unobservable_cells(netlist: &Netlist) -> Vec<CellId> {
    let n = netlist.cell_count();
    // Reverse reachability from the observation roots along fanin edges.
    let mut live = vec![false; n];
    let mut stack: Vec<CellId> = Vec::new();
    for (id, cell) in netlist.iter() {
        if cell.kind() == CellKind::Output || cell.kind().is_flip_flop() {
            stack.push(id);
        }
    }
    while let Some(id) = stack.pop() {
        for &f in netlist.cell(id).fanin() {
            if f.index() < n && !live[f.index()] {
                live[f.index()] = true;
                stack.push(f);
            }
        }
    }
    netlist
        .iter()
        .filter(|(id, cell)| {
            let kind = cell.kind();
            let reportable = kind.is_combinational() || kind == CellKind::Input;
            reportable && !live[id.index()]
        })
        .map(|(id, _)| id)
        .collect()
}

/// Aggregate structural statistics of a circuit, mirroring the columns the
/// paper reports per benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitStats {
    /// Primary-input count.
    pub primary_inputs: usize,
    /// Primary-output count.
    pub primary_outputs: usize,
    /// Flip-flop count.
    pub flip_flops: usize,
    /// Combinational gate count (buffers/inverters included).
    pub gates: usize,
    /// Structural critical-path logic depth.
    pub logic_depth: u32,
    /// Total flip-flop output fanout pins (Table I "Total fanouts").
    pub total_ff_fanouts: usize,
    /// Distinct first-level gates (Table I "Unique fanouts").
    pub unique_first_level_gates: usize,
    /// Histogram of gate kinds by display name.
    pub kind_histogram: HashMap<String, usize>,
}

impl CircuitStats {
    /// Computes the statistics for a netlist.
    ///
    /// # Errors
    ///
    /// Propagates levelization failures on cyclic netlists.
    pub fn compute(netlist: &Netlist) -> Result<Self> {
        let lv = Levelization::compute(netlist)?;
        let fo = FanoutMap::compute(netlist);
        let flg = first_level_gates(netlist, &fo);
        let mut hist = HashMap::new();
        for (_, cell) in netlist.iter() {
            if cell.kind().is_combinational() {
                *hist.entry(cell.kind().to_string()).or_insert(0) += 1;
            }
        }
        Ok(CircuitStats {
            primary_inputs: netlist.inputs().len(),
            primary_outputs: netlist.outputs().len(),
            flip_flops: netlist.flip_flops().len(),
            gates: netlist.gate_count(),
            logic_depth: lv.depth(),
            total_ff_fanouts: total_ff_fanouts(netlist, &fo),
            unique_first_level_gates: flg.len(),
            kind_histogram: hist,
        })
    }

    /// Average flip-flop fanout (Table I derives ≈ 2.3 across ISCAS89).
    pub fn avg_ff_fanout(&self) -> f64 {
        if self.flip_flops == 0 {
            0.0
        } else {
            self.total_ff_fanouts as f64 / self.flip_flops as f64
        }
    }

    /// Ratio of unique first-level gates to flip-flops (Table I "Ratio",
    /// ≈ 1.8 on average in the paper).
    pub fn unique_fanout_ratio(&self) -> f64 {
        if self.flip_flops == 0 {
            0.0
        } else {
            self.unique_first_level_gates as f64 / self.flip_flops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-FF circuit where both FFs share a first-level gate.
    fn shared_flg_circuit() -> Netlist {
        let mut n = Netlist::new("shared");
        let a = n.add_input("a");
        let f1 = n.add_cell("f1", CellKind::Dff, vec![a]);
        let f2 = n.add_cell("f2", CellKind::Dff, vec![a]);
        let g1 = n.add_cell("g1", CellKind::Nand2, vec![f1, f2]); // shared FLG
        let g2 = n.add_cell("g2", CellKind::Inv, vec![f1]); // private FLG
        let g3 = n.add_cell("g3", CellKind::Nor2, vec![g1, g2]);
        n.add_output("y", g3);
        n
    }

    #[test]
    fn levelization_depth() {
        let n = shared_flg_circuit();
        let lv = Levelization::compute(&n).unwrap();
        assert_eq!(lv.depth(), 2); // g1/g2 at level 1, g3 at level 2
        let g3 = n.find("g3").unwrap();
        assert_eq!(lv.level(g3), 2);
        let f1 = n.find("f1").unwrap();
        assert_eq!(lv.level(f1), 0);
    }

    #[test]
    fn order_respects_dependencies() {
        let n = shared_flg_circuit();
        let lv = Levelization::compute(&n).unwrap();
        let pos: HashMap<CellId, usize> = lv
            .order()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        for &id in lv.order() {
            for &f in n.cell(id).fanin() {
                if let Some(&fp) = pos.get(&f) {
                    assert!(fp < pos[&id], "fanin {f} after {id}");
                }
            }
        }
    }

    #[test]
    fn fanout_map_counts() {
        let n = shared_flg_circuit();
        let fo = FanoutMap::compute(&n);
        let f1 = n.find("f1").unwrap();
        assert_eq!(fo.fanout_count(f1), 2); // g1 and g2
        let f2 = n.find("f2").unwrap();
        assert_eq!(fo.fanout_count(f2), 1);
    }

    #[test]
    fn first_level_gates_are_unique() {
        let n = shared_flg_circuit();
        let fo = FanoutMap::compute(&n);
        let flg = first_level_gates(&n, &fo);
        assert_eq!(flg.len(), 2); // g1 (shared) + g2
        assert_eq!(total_ff_fanouts(&n, &fo), 3);
    }

    #[test]
    fn ff_to_ff_direct_path_contributes_no_flg() {
        let mut n = Netlist::new("ff2ff");
        let a = n.add_input("a");
        let f1 = n.add_cell("f1", CellKind::Dff, vec![a]);
        let _f2 = n.add_cell("f2", CellKind::Dff, vec![f1]);
        n.add_output("y", f1);
        let fo = FanoutMap::compute(&n);
        assert!(first_level_gates(&n, &fo).is_empty());
        // f1 feeds f2.D and the PO: neither is a combinational state input.
        assert_eq!(total_ff_fanouts(&n, &fo), 0);
    }

    #[test]
    fn stats_aggregate() {
        let n = shared_flg_circuit();
        let st = CircuitStats::compute(&n).unwrap();
        assert_eq!(st.flip_flops, 2);
        assert_eq!(st.gates, 3);
        assert_eq!(st.logic_depth, 2);
        assert_eq!(st.total_ff_fanouts, 3);
        assert_eq!(st.unique_first_level_gates, 2);
        assert!((st.avg_ff_fanout() - 1.5).abs() < 1e-12);
        assert!((st.unique_fanout_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(st.kind_histogram["NAND2"], 1);
    }

    #[test]
    fn cones() {
        let n = shared_flg_circuit();
        let g3 = n.find("g3").unwrap();
        let fic = fanin_cone(&n, g3);
        let names: Vec<&str> = fic.iter().map(|&id| n.cell(id).name()).collect();
        assert!(names.contains(&"g1"));
        assert!(names.contains(&"f1"));
        // The fanin cone stops at flip-flops; `a` is behind f1/f2.
        assert!(!names.contains(&"a"));
    }

    #[test]
    fn dead_cones_are_unobservable() {
        let mut n = Netlist::new("dead");
        let a = n.add_input("a");
        let b = n.add_input("b"); // floating input
        let g1 = n.add_cell("g1", CellKind::Inv, vec![a]);
        let d1 = n.add_cell("d1", CellKind::Inv, vec![a]); // dead cone root
        let d2 = n.add_cell("d2", CellKind::Buf, vec![d1]); // dead cone tail
        n.add_output("y", g1);
        let dead = unobservable_cells(&n);
        assert_eq!(dead, vec![b, d1, d2]);

        // A FF D pin is an observation point: logic feeding only state is
        // live.
        let mut n = Netlist::new("state");
        let a = n.add_input("a");
        let g = n.add_cell("g", CellKind::Inv, vec![a]);
        let ff = n.add_cell("ff", CellKind::Dff, vec![g]);
        n.add_output("y", ff);
        assert!(unobservable_cells(&n).is_empty());
    }

    #[test]
    fn cycle_is_reported() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let g1 = n.add_cell("g1", CellKind::And2, vec![a, a]);
        let g2 = n.add_cell("g2", CellKind::Inv, vec![g1]);
        n.set_fanin_pin(g1, 1, g2);
        assert!(combinational_order(&n).is_err());
    }
}
