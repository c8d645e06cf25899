//! Cycle-accurate three-valued sequential simulator with DFT semantics.

use flh_netlist::{analysis, CellId, Netlist};

use crate::value::{eval3, Logic};

/// Per-cell toggle counters, the raw material of the power estimates.
///
/// A toggle is a known→known change of a cell's stable output value. The
/// simulator is zero-delay, so glitches inside a cycle are not modelled;
/// the `flh-power` crate applies a uniform glitch factor instead, which
/// affects all compared DFT styles identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Activity {
    toggles: Vec<u64>,
    cycles: u64,
}

impl Activity {
    pub(crate) fn new(cells: usize) -> Self {
        Activity {
            toggles: vec![0; cells],
            cycles: 0,
        }
    }

    /// Records one known→known output change (crate-internal: simulators
    /// feed this).
    pub(crate) fn record_toggle(&mut self, index: usize) {
        self.toggles[index] += 1;
    }

    /// Counts one clock cycle (crate-internal: simulators feed this).
    pub(crate) fn record_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Toggle count of one cell output.
    pub fn toggles(&self, id: CellId) -> u64 {
        self.toggles[id.index()]
    }

    /// Total clock cycles (functional or scan) observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average toggles per cycle for one cell (its activity factor α).
    pub fn activity_factor(&self, id: CellId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[id.index()] as f64 / self.cycles as f64
        }
    }

    /// Sum of all toggles.
    pub fn total_toggles(&self) -> u64 {
        self.toggles.iter().sum()
    }
}

/// Three-valued zero-delay simulator over a netlist, with the holding
/// semantics of the three DFT styles layered on top.
///
/// # Example
///
/// ```
/// use flh_netlist::{CellKind, Netlist};
/// use flh_sim::{Logic, LogicSim};
///
/// # fn main() -> Result<(), flh_netlist::NetlistError> {
/// let mut n = Netlist::new("tff");
/// let t = n.add_input("t");
/// let ff = n.add_cell("ff", CellKind::Dff, vec![t]);
/// let x = n.add_cell("x", CellKind::Xor2, vec![t, ff]);
/// n.set_fanin_pin(ff, 0, x); // toggle flip-flop
/// n.add_output("q", ff);
///
/// let mut sim = LogicSim::new(&n)?;
/// sim.set_ff_by_index(0, Logic::Zero);
/// sim.set_inputs(&[Logic::One]);
/// sim.settle();
/// sim.clock_capture();
/// assert_eq!(sim.ff_state()[0], Logic::One);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LogicSim<'a> {
    netlist: &'a Netlist,
    order: Vec<CellId>,
    values: Vec<Logic>,
    hold: bool,
    sleep: bool,
    gated: Vec<bool>,
    activity: Activity,
}

impl<'a> LogicSim<'a> {
    /// Builds a simulator for a netlist.
    ///
    /// # Errors
    ///
    /// Fails if the combinational part of the netlist is cyclic.
    pub fn new(netlist: &'a Netlist) -> flh_netlist::Result<Self> {
        let order = analysis::combinational_order(netlist)?;
        Ok(LogicSim {
            netlist,
            order,
            values: vec![Logic::X; netlist.cell_count()],
            hold: false,
            sleep: false,
            gated: vec![false; netlist.cell_count()],
            activity: Activity::new(netlist.cell_count()),
        })
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Marks the supply-gated (FLH) cells; their outputs freeze while
    /// [`LogicSim::set_sleep`] is active.
    pub fn set_gated_cells(&mut self, cells: &[CellId]) {
        self.gated = vec![false; self.netlist.cell_count()];
        for &c in cells {
            self.gated[c.index()] = true;
        }
    }

    /// Engages / releases the hold latches and hold MUXes (`HOLD` signal of
    /// the enhanced-scan and MUX-based styles).
    pub fn set_hold(&mut self, hold: bool) {
        self.hold = hold;
    }

    /// Engages / releases FLH supply gating (`SLEEP` = complement of the
    /// test-control signal TC in Fig. 3).
    pub fn set_sleep(&mut self, sleep: bool) {
        self.sleep = sleep;
    }

    /// Sets one primary input by position.
    pub fn set_input(&mut self, index: usize, value: Logic) {
        let id = self.netlist.inputs()[index];
        self.values[id.index()] = value;
    }

    /// Sets all primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    pub fn set_inputs(&mut self, values: &[Logic]) {
        assert_eq!(values.len(), self.netlist.inputs().len());
        for (i, &v) in values.iter().enumerate() {
            self.set_input(i, v);
        }
    }

    /// Sets a flip-flop's state by its position in
    /// [`Netlist::flip_flops`](flh_netlist::Netlist::flip_flops).
    pub fn set_ff_by_index(&mut self, index: usize, value: Logic) {
        let id = self.netlist.flip_flops()[index];
        self.set_ff(id, value);
    }

    /// Sets a flip-flop's state directly (as scan shifting does).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a flip-flop.
    pub fn set_ff(&mut self, id: CellId, value: Logic) {
        assert!(
            self.netlist.cell(id).kind().is_flip_flop(),
            "{id} is not a flip-flop"
        );
        self.write(id, value);
    }

    fn write(&mut self, id: CellId, value: Logic) {
        let old = self.values[id.index()];
        if old != value {
            if old.is_known() && value.is_known() {
                self.activity.toggles[id.index()] += 1;
            }
            self.values[id.index()] = value;
        }
    }

    /// Current stable value of any cell output.
    pub fn value(&self, id: CellId) -> Logic {
        self.values[id.index()]
    }

    /// Current primary-output values.
    pub fn outputs(&self) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Current flip-flop states.
    pub fn ff_state(&self) -> Vec<Logic> {
        self.netlist
            .flip_flops()
            .iter()
            .map(|&f| self.values[f.index()])
            .collect()
    }

    /// Propagates the combinational logic to a stable state (single pass in
    /// topological order; the netlist is combinationally acyclic).
    ///
    /// Holding cells keep their stored output while hold is engaged;
    /// supply-gated cells keep theirs while sleep is engaged.
    pub fn settle(&mut self) {
        for i in 0..self.order.len() {
            let id = self.order[i];
            let cell = self.netlist.cell(id);
            let kind = cell.kind();
            if kind.is_hold_element() && self.hold {
                continue; // frozen
            }
            if self.sleep && self.gated[id.index()] {
                continue; // supply-gated, keeper holds the old value
            }
            let inputs: Vec<Logic> = cell
                .fanin()
                .iter()
                .map(|&f| self.values[f.index()])
                .collect();
            let new = eval3(kind, &inputs);
            self.write(id, new);
        }
    }

    /// Functional clock edge: every flip-flop captures its D input, then
    /// the combinational logic settles on the new state. Counts one cycle.
    pub fn clock_capture(&mut self) {
        let captured: Vec<(CellId, Logic)> = self
            .netlist
            .flip_flops()
            .iter()
            .map(|&ff| (ff, self.values[self.netlist.cell(ff).fanin()[0].index()]))
            .collect();
        for (ff, v) in captured {
            self.write(ff, v);
        }
        self.activity.cycles += 1;
        self.settle();
    }

    /// Counts one scan-shift cycle (the shifting itself is done by
    /// [`crate::ScanController`]).
    pub(crate) fn bump_cycle(&mut self) {
        self.activity.cycles += 1;
    }

    /// Accumulated toggle statistics.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// Clears the toggle statistics (keeps the circuit state).
    pub fn reset_activity(&mut self) {
        self.activity = Activity::new(self.netlist.cell_count());
    }

    /// Runs `vectors` random-ish functional cycles is the caller's job; this
    /// convenience applies one vector of primary inputs, settles, and
    /// clocks.
    pub fn apply_vector(&mut self, inputs: &[Logic]) {
        self.set_inputs(inputs);
        self.settle();
        self.clock_capture();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_netlist::CellKind;

    /// 2-bit counter: ff0 toggles every cycle, ff1 toggles when ff0 = 1.
    fn counter() -> Netlist {
        let mut n = Netlist::new("cnt2");
        let en = n.add_input("en");
        let ff0 = n.add_cell("ff0", CellKind::Dff, vec![en]);
        let ff1 = n.add_cell("ff1", CellKind::Dff, vec![en]);
        let d0 = n.add_cell("d0", CellKind::Xor2, vec![ff0, en]);
        let d1 = n.add_cell("c01", CellKind::And2, vec![ff0, en]);
        let d1x = n.add_cell("d1", CellKind::Xor2, vec![ff1, d1]);
        n.set_fanin_pin(ff0, 0, d0);
        n.set_fanin_pin(ff1, 0, d1x);
        n.add_output("q0", ff0);
        n.add_output("q1", ff1);
        n
    }

    #[test]
    fn counter_counts() {
        let n = counter();
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_ff_by_index(0, Logic::Zero);
        sim.set_ff_by_index(1, Logic::Zero);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        let states: Vec<(Logic, Logic)> = (0..4)
            .map(|_| {
                sim.clock_capture();
                let s = sim.ff_state();
                (s[0], s[1])
            })
            .collect();
        use Logic::{One as I, Zero as O};
        assert_eq!(states, vec![(I, O), (O, I), (I, I), (O, O)]);
    }

    #[test]
    fn x_initial_state_propagates_until_reset() {
        let n = counter();
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        assert_eq!(sim.outputs(), vec![Logic::X, Logic::X]);
    }

    #[test]
    fn activity_counts_toggles_and_cycles() {
        let n = counter();
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_ff_by_index(0, Logic::Zero);
        sim.set_ff_by_index(1, Logic::Zero);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        sim.reset_activity();
        for _ in 0..8 {
            sim.clock_capture();
        }
        let ff0 = n.find("ff0").unwrap();
        let ff1 = n.find("ff1").unwrap();
        assert_eq!(sim.activity().cycles(), 8);
        assert_eq!(sim.activity().toggles(ff0), 8); // toggles every cycle
        assert_eq!(sim.activity().toggles(ff1), 4); // half rate
        assert!((sim.activity().activity_factor(ff0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hold_latch_freezes_under_hold() {
        let mut n = Netlist::new("hold");
        let a = n.add_input("a");
        let h = n.add_cell("h", CellKind::HoldLatch, vec![a]);
        let g = n.add_cell("g", CellKind::Inv, vec![h]);
        n.add_output("y", g);
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        assert_eq!(sim.value(g), Logic::Zero);
        sim.set_hold(true);
        sim.set_inputs(&[Logic::Zero]);
        sim.settle();
        // Latch holds 1, so the inverter stays at 0.
        assert_eq!(sim.value(h), Logic::One);
        assert_eq!(sim.value(g), Logic::Zero);
        sim.set_hold(false);
        sim.settle();
        assert_eq!(sim.value(g), Logic::One);
    }

    #[test]
    fn supply_gated_cell_freezes_under_sleep() {
        let mut n = Netlist::new("flhsem");
        let a = n.add_input("a");
        let flg = n.add_cell("flg", CellKind::Inv, vec![a]);
        let g2 = n.add_cell("g2", CellKind::Inv, vec![flg]);
        n.add_output("y", g2);
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_gated_cells(&[flg]);
        sim.set_inputs(&[Logic::Zero]);
        sim.settle();
        assert_eq!(sim.value(flg), Logic::One);
        sim.set_sleep(true);
        sim.set_inputs(&[Logic::One]); // input switches during sleep (Fig. 4)
        sim.settle();
        assert_eq!(sim.value(flg), Logic::One, "keeper must hold the state");
        assert_eq!(sim.value(g2), Logic::Zero);
        sim.set_sleep(false);
        sim.settle();
        assert_eq!(sim.value(flg), Logic::Zero);
    }

    #[test]
    fn ungated_cells_ignore_sleep() {
        let mut n = Netlist::new("ungated");
        let a = n.add_input("a");
        let g = n.add_cell("g", CellKind::Inv, vec![a]);
        n.add_output("y", g);
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_sleep(true);
        sim.set_inputs(&[Logic::Zero]);
        sim.settle();
        assert_eq!(sim.value(g), Logic::One);
    }

    #[test]
    #[should_panic(expected = "is not a flip-flop")]
    fn set_ff_rejects_non_ff() {
        let n = counter();
        let mut sim = LogicSim::new(&n).unwrap();
        let d0 = n.find("d0").unwrap();
        sim.set_ff(d0, Logic::One);
    }

    #[test]
    fn hold_and_sleep_are_independent_controls() {
        // A circuit with both a hold latch and a gated cell: each control
        // freezes only its own mechanism.
        let mut n = Netlist::new("both");
        let a = n.add_input("a");
        let hl = n.add_cell("hl", CellKind::HoldLatch, vec![a]);
        let flg = n.add_cell("flg", CellKind::Inv, vec![a]);
        let g = n.add_cell("g", CellKind::Xor2, vec![hl, flg]);
        n.add_output("y", g);
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_gated_cells(&[flg]);
        sim.set_inputs(&[Logic::Zero]);
        sim.settle();
        assert_eq!(sim.value(hl), Logic::Zero);
        assert_eq!(sim.value(flg), Logic::One);

        // Only hold: the latch freezes, the gated inverter follows.
        sim.set_hold(true);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        assert_eq!(sim.value(hl), Logic::Zero, "latch must hold");
        assert_eq!(sim.value(flg), Logic::Zero, "gated cell must follow");

        // Only sleep: the reverse.
        sim.set_hold(false);
        sim.set_sleep(true);
        sim.set_inputs(&[Logic::Zero]);
        sim.settle();
        assert_eq!(sim.value(hl), Logic::Zero, "latch follows again");
        assert_eq!(sim.value(flg), Logic::Zero, "gated cell must hold");
    }

    #[test]
    fn reset_activity_clears_counts_but_not_state() {
        let n = counter();
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_ff_by_index(0, Logic::Zero);
        sim.set_ff_by_index(1, Logic::Zero);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        sim.clock_capture();
        let state = sim.ff_state();
        assert!(sim.activity().total_toggles() > 0);
        sim.reset_activity();
        assert_eq!(sim.activity().total_toggles(), 0);
        assert_eq!(sim.activity().cycles(), 0);
        assert_eq!(sim.ff_state(), state, "state must survive the reset");
    }

    #[test]
    fn regated_cell_set_replaces_the_old_one() {
        let mut n = Netlist::new("regate");
        let a = n.add_input("a");
        let g1 = n.add_cell("g1", CellKind::Inv, vec![a]);
        let g2 = n.add_cell("g2", CellKind::Buf, vec![a]);
        n.add_output("y", g1);
        n.add_output("z", g2);
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_gated_cells(&[g1]);
        sim.set_gated_cells(&[g2]); // replaces, not extends
        sim.set_inputs(&[Logic::Zero]);
        sim.settle();
        sim.set_sleep(true);
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        assert_eq!(sim.value(g1), Logic::Zero, "g1 no longer gated: follows");
        assert_eq!(sim.value(g2), Logic::Zero, "g2 gated: holds");
    }

    #[test]
    fn x_transitions_do_not_count_as_toggles() {
        let n = counter();
        let mut sim = LogicSim::new(&n).unwrap();
        sim.set_inputs(&[Logic::One]);
        sim.settle(); // everything X -> stays X or becomes known
        let total_before = sim.activity().total_toggles();
        assert_eq!(total_before, 0, "X->known must not count");
    }
}
