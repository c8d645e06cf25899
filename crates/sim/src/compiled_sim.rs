//! Bytecode-driven simulation over the lowered [`Program`].
//!
//! Two evaluators live here:
//!
//! * [`CompiledSim`] — a scalar three-valued sequential simulator with the
//!   exact semantics of [`LogicSim`](crate::LogicSim) (hold latches, FLH
//!   supply gating, toggle accounting). Since codegen v2 it no longer
//!   interprets the CSR IR cell by cell: construction lowers the circuit
//!   to a flat fused-opcode [`Program`] (or accepts a pre-lowered one) and
//!   `settle` executes it over [`Dual8`] dual-rail words — the whole value
//!   file of a mid-size circuit stays in L1.
//! * [`settle_packed`] — a lane-parallel dual-rail settle, generic over
//!   [`LaneWord`]; over [`Dual64`] it runs 64 patterns per instruction with
//!   exact Kleene X semantics.
//!
//! All engines are cross-checked bit-for-bit against the event-driven
//! simulator and `eval3` by the crate tests and
//! `tests/compiled_equivalence.rs`.

use std::sync::Arc;

use flh_netlist::{CellId, CompiledCircuit, Dual64, Dual8, LaneWord, Program};

use crate::simulator::Activity;
use crate::value::Logic;

/// Three-valued sequential simulator executing the lowered bytecode.
///
/// Mirrors the [`LogicSim`](crate::LogicSim) API and semantics exactly —
/// same values, same captured flip-flop states, same toggle counts — so the
/// two can be swapped freely (and cross-checked; see
/// `tests/compiled_equivalence.rs`).
///
/// ```
/// use flh_netlist::{CellKind, CompiledCircuit, Netlist};
/// use flh_sim::{CompiledSim, Logic};
///
/// let mut n = Netlist::new("tff");
/// let t = n.add_input("t");
/// let ff = n.add_cell("ff", CellKind::Dff, vec![t]);
/// let x = n.add_cell("x", CellKind::Xor2, vec![t, ff]);
/// n.set_fanin_pin(ff, 0, x);
/// n.add_output("q", ff);
///
/// let c = CompiledCircuit::compile(&n).unwrap();
/// let mut sim = CompiledSim::new(&c);
/// sim.set_ff_by_index(0, Logic::Zero);
/// sim.set_inputs(&[Logic::One]);
/// sim.settle();
/// sim.clock_capture();
/// assert_eq!(sim.ff_state()[0], Logic::One);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledSim<'c> {
    compiled: &'c CompiledCircuit,
    program: Arc<Program>,
    values: Vec<Dual8>,
    hold: bool,
    sleep: bool,
    gated: Vec<bool>,
    activity: Activity,
    scratch: Vec<Dual8>,
}

/// Converts a [`Logic`] value to the replicated [`Dual8`] storage form.
#[inline]
pub fn logic_to_dual8(v: Logic) -> Dual8 {
    match v {
        Logic::One => Dual8::top(),
        Logic::Zero => Dual8::bot(),
        Logic::X => Dual8::all_x(),
    }
}

/// Reads a replicated [`Dual8`] word back as a [`Logic`] value.
#[inline]
pub fn dual8_to_logic(v: Dual8) -> Logic {
    if v.one & 1 != 0 {
        Logic::One
    } else if v.zero & 1 != 0 {
        Logic::Zero
    } else {
        Logic::X
    }
}

impl<'c> CompiledSim<'c> {
    /// Builds a simulator over a compiled circuit, lowering it to bytecode
    /// (already validated acyclic at compile time, so construction cannot
    /// fail).
    pub fn new(compiled: &'c CompiledCircuit) -> Self {
        Self::with_program(compiled, Program::lower_shared(compiled))
    }

    /// Builds a simulator over an already-lowered program (the cache path:
    /// lower once, simulate many times).
    ///
    /// # Panics
    ///
    /// Panics if `program` was not lowered from a circuit with the same
    /// cell count.
    pub fn with_program(compiled: &'c CompiledCircuit, program: Arc<Program>) -> Self {
        assert_eq!(
            program.cell_words(),
            compiled.cell_count(),
            "program does not match the circuit"
        );
        let n = compiled.cell_count();
        let scratch = vec![Dual8::all_x(); program.scratch_words()];
        CompiledSim {
            compiled,
            program,
            values: vec![Dual8::all_x(); n],
            hold: false,
            sleep: false,
            gated: vec![false; n],
            activity: Activity::new(n),
            scratch,
        }
    }

    /// The compiled circuit this simulator walks.
    pub fn compiled(&self) -> &'c CompiledCircuit {
        self.compiled
    }

    /// The lowered program this simulator executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Marks the supply-gated (FLH) cells; their outputs freeze while
    /// [`CompiledSim::set_sleep`] is active. Replaces any previous set.
    pub fn set_gated_cells(&mut self, cells: &[CellId]) {
        self.gated.fill(false);
        for &c in cells {
            self.gated[c.index()] = true;
        }
    }

    /// Engages / releases the hold latches and hold MUXes.
    pub fn set_hold(&mut self, hold: bool) {
        self.hold = hold;
    }

    /// Engages / releases FLH supply gating.
    pub fn set_sleep(&mut self, sleep: bool) {
        self.sleep = sleep;
    }

    /// Sets one primary input by position.
    pub fn set_input(&mut self, index: usize, value: Logic) {
        let id = self.compiled.inputs()[index];
        self.values[id as usize] = logic_to_dual8(value);
    }

    /// Sets all primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    pub fn set_inputs(&mut self, values: &[Logic]) {
        assert_eq!(values.len(), self.compiled.inputs().len());
        for (i, &v) in values.iter().enumerate() {
            self.set_input(i, v);
        }
    }

    /// Sets a flip-flop's state by its position in the flip-flop registry.
    pub fn set_ff_by_index(&mut self, index: usize, value: Logic) {
        let id = self.compiled.flip_flops()[index];
        self.set_ff(CellId::from_index(id as usize), value);
    }

    /// Sets a flip-flop's state directly (as scan shifting does).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a flip-flop.
    pub fn set_ff(&mut self, id: CellId, value: Logic) {
        assert!(
            self.compiled.kind(id.index() as u32).is_flip_flop(),
            "{id} is not a flip-flop"
        );
        self.write(id.index() as u32, logic_to_dual8(value));
    }

    #[inline]
    fn write(&mut self, id: u32, value: Dual8) {
        let old = self.values[id as usize];
        if old != value {
            if old.known() != 0 && value.known() != 0 {
                self.activity.record_toggle(id as usize);
            }
            self.values[id as usize] = value;
        }
    }

    /// Current stable value of any cell output.
    pub fn value(&self, id: CellId) -> Logic {
        dual8_to_logic(self.values[id.index()])
    }

    /// Current primary-output values.
    pub fn outputs(&self) -> Vec<Logic> {
        self.compiled
            .outputs()
            .iter()
            .map(|&o| dual8_to_logic(self.values[o as usize]))
            .collect()
    }

    /// Current flip-flop states.
    pub fn ff_state(&self) -> Vec<Logic> {
        self.compiled
            .flip_flops()
            .iter()
            .map(|&f| dual8_to_logic(self.values[f as usize]))
            .collect()
    }

    /// Propagates the combinational logic to a stable state by executing
    /// the lowered program (level-major fused opcodes, one pass).
    ///
    /// Holding cells keep their stored output while hold is engaged;
    /// supply-gated cells keep theirs while sleep is engaged. Value and
    /// toggle semantics are identical to
    /// [`LogicSim::settle`](crate::LogicSim::settle).
    pub fn settle(&mut self) {
        let program = Arc::clone(&self.program);
        let hold = self.hold;
        let sleep = self.sleep;
        let CompiledSim {
            values,
            scratch,
            gated,
            activity,
            ..
        } = self;
        let mut evals = 0u64;
        let insts = program.execute_with(values, scratch, |cell, old, new, holdable| {
            if (hold && holdable) || (sleep && gated[cell as usize]) {
                return old; // frozen: keeper / hold element keeps its value
            }
            evals += 1;
            if old != new && old.known() != 0 && new.known() != 0 {
                activity.record_toggle(cell as usize);
            }
            new
        });
        if flh_obs::enabled() {
            // Cells evaluated and instructions executed per settle depend
            // only on circuit + hold/sleep state — deterministic work, one
            // gated flush per settle.
            flh_obs::add(flh_obs::Counter::SimCellEvals, evals);
            flh_obs::add(flh_obs::Counter::SimBytecodeInsts, insts);
        }
    }

    /// Functional clock edge: every flip-flop captures its D input, then
    /// the combinational logic settles on the new state. Counts one cycle.
    pub fn clock_capture(&mut self) {
        for i in 0..self.compiled.flip_flops().len() {
            let ff = self.compiled.flip_flops()[i];
            let d = self.compiled.fanin(ff)[0];
            let v = self.values[d as usize];
            self.write(ff, v);
        }
        self.activity.record_cycle();
        self.settle();
    }

    /// Accumulated toggle statistics.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// Clears the toggle statistics (keeps the circuit state).
    pub fn reset_activity(&mut self) {
        self.activity = Activity::new(self.compiled.cell_count());
    }

    /// Applies one vector of primary inputs, settles, and clocks.
    pub fn apply_vector(&mut self, inputs: &[Logic]) {
        self.set_inputs(inputs);
        self.settle();
        self.clock_capture();
    }
}

/// Converts a [`Logic`] value to one dual-rail lane.
#[inline]
pub fn logic_to_lane(v: Logic, lane: u32) -> Dual64 {
    let bit = 1u64 << lane;
    match v {
        Logic::One => Dual64 { one: bit, zero: 0 },
        Logic::Zero => Dual64 { one: 0, zero: bit },
        Logic::X => Dual64 { one: 0, zero: 0 },
    }
}

/// Reads one lane of a dual-rail word back into a [`Logic`] value.
#[inline]
pub fn lane_to_logic(v: Dual64, lane: u32) -> Logic {
    let bit = 1u64 << lane;
    if v.one & bit != 0 {
        Logic::One
    } else if v.zero & bit != 0 {
        Logic::Zero
    } else {
        Logic::X
    }
}

/// Lane-parallel dual-rail settle: one bytecode pass over `values`.
///
/// `values` is indexed by dense cell id; sources (primary inputs, flip-flop
/// outputs) are treated as fixed stimuli and left untouched, every evaluable
/// cell is recomputed. Each lane carries an independent pattern with exact
/// Kleene X semantics — lane `k` of the result equals a scalar `eval3`
/// sweep of lane `k`'s inputs (proven by the crate tests). Instantiate with
/// [`Dual64`] for 64 lanes.
///
/// # Panics
///
/// Panics if `values.len() != program.cell_words()`.
pub fn settle_packed<W: LaneWord>(program: &Program, values: &mut [W]) {
    let mut scratch = vec![W::bot(); program.scratch_words()];
    let insts = program.execute(values, &mut scratch);
    if flh_obs::enabled() {
        // The instruction stream is fixed per circuit — deterministic work.
        flh_obs::add(flh_obs::Counter::SimBytecodeInsts, insts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::eval3;
    use crate::LogicSim;
    use flh_netlist::{generate_circuit, GeneratorConfig, Netlist};
    use flh_rng::Rng;

    fn sample(seed: u64) -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: format!("csim{seed}"),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 9,
            gates: 110,
            logic_depth: 8,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed,
        })
        .expect("generates")
    }

    fn random_logic(rng: &mut Rng, x_bias: bool) -> Logic {
        if x_bias && rng.gen_bool(0.2) {
            Logic::X
        } else {
            Logic::from_bool(rng.gen())
        }
    }

    #[test]
    fn compiled_sim_matches_logic_sim_cycle_by_cycle() {
        for seed in [1u64, 7, 42] {
            let n = sample(seed);
            let c = flh_netlist::CompiledCircuit::compile(&n).unwrap();
            let mut a = LogicSim::new(&n).unwrap();
            let mut b = CompiledSim::new(&c);
            let mut rng = Rng::seed_from_u64(seed ^ 0xC0DE);
            for i in 0..n.flip_flops().len() {
                let v = random_logic(&mut rng, true);
                a.set_ff_by_index(i, v);
                b.set_ff_by_index(i, v);
            }
            for _cycle in 0..30 {
                let vector: Vec<Logic> = (0..n.inputs().len())
                    .map(|_| random_logic(&mut rng, true))
                    .collect();
                a.apply_vector(&vector);
                b.apply_vector(&vector);
                assert_eq!(a.outputs(), b.outputs());
                assert_eq!(a.ff_state(), b.ff_state());
            }
            // Full per-cell value and toggle agreement, not just boundaries.
            for (id, _) in n.iter() {
                assert_eq!(a.value(id), b.value(id), "{id:?}");
                assert_eq!(
                    a.activity().toggles(id),
                    b.activity().toggles(id),
                    "toggles of {id:?}"
                );
            }
            assert_eq!(a.activity().cycles(), b.activity().cycles());
        }
    }

    #[test]
    fn hold_and_sleep_semantics_match() {
        use flh_netlist::CellKind;
        let mut n = Netlist::new("holdmix");
        let a_in = n.add_input("a");
        let hl = n.add_cell("hl", CellKind::HoldLatch, vec![a_in]);
        let flg = n.add_cell("flg", CellKind::Inv, vec![a_in]);
        let g = n.add_cell("g", CellKind::Xor2, vec![hl, flg]);
        n.add_output("y", g);
        let c = flh_netlist::CompiledCircuit::compile(&n).unwrap();
        let mut ev = LogicSim::new(&n).unwrap();
        let mut cp = CompiledSim::new(&c);
        ev.set_gated_cells(&[flg]);
        cp.set_gated_cells(&[flg]);
        let mut rng = Rng::seed_from_u64(9);
        for step in 0..40 {
            let hold = step % 4 == 1;
            let sleep = step % 4 == 2;
            ev.set_hold(hold);
            cp.set_hold(hold);
            ev.set_sleep(sleep);
            cp.set_sleep(sleep);
            let v = random_logic(&mut rng, true);
            ev.set_inputs(std::slice::from_ref(&v));
            cp.set_inputs(std::slice::from_ref(&v));
            ev.settle();
            cp.settle();
            for (id, _) in n.iter() {
                assert_eq!(ev.value(id), cp.value(id), "step {step} {id:?}");
            }
        }
    }

    #[test]
    fn packed_lanes_match_eval3_per_gate_exhaustively() {
        use flh_netlist::CellKind;
        // Every library kind, every 3-valued input combination: a one-gate
        // Program over Dual64 must equal scalar eval3 exactly, including
        // the Mux2 consensus (X select, equal branches).
        let kinds = [
            CellKind::Const0,
            CellKind::Const1,
            CellKind::Buf,
            CellKind::Inv,
            CellKind::And2,
            CellKind::And3,
            CellKind::And4,
            CellKind::Nand2,
            CellKind::Nand3,
            CellKind::Nand4,
            CellKind::Or2,
            CellKind::Or3,
            CellKind::Or4,
            CellKind::Nor2,
            CellKind::Nor3,
            CellKind::Nor4,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Aoi21,
            CellKind::Aoi22,
            CellKind::Oai21,
            CellKind::Oai22,
            CellKind::Mux2,
            CellKind::AndN(5),
            CellKind::NandN(5),
            CellKind::OrN(5),
            CellKind::NorN(5),
            CellKind::XorN(5),
        ];
        const LUT: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];
        for kind in kinds {
            let arity = kind.arity();
            let mut n = Netlist::new("gate");
            let pins: Vec<CellId> = (0..arity).map(|i| n.add_input(format!("i{i}"))).collect();
            let g = n.add_cell("g", kind, pins.clone());
            n.add_output("y", g);
            let c = flh_netlist::CompiledCircuit::compile(&n).unwrap();
            let p = flh_netlist::Program::lower(&c);
            let mut values = vec![Dual64::all_x(); c.cell_count()];
            let mut scratch = vec![Dual64::all_x(); p.scratch_words()];
            let combos = 3usize.pow(arity as u32);
            for mut code in 0..combos {
                let mut scalar = Vec::with_capacity(arity);
                for &pin in &pins {
                    let v = LUT[code % 3];
                    code /= 3;
                    scalar.push(v);
                    values[pin.index()] = logic_to_lane(v, 17);
                }
                p.execute(&mut values, &mut scratch);
                let want = eval3(kind, &scalar);
                let got = lane_to_logic(values[g.index()], 17);
                assert_eq!(got, want, "{kind:?} {scalar:?}");
            }
        }
    }

    #[test]
    fn packed_settle_matches_scalar_settle_on_circuit() {
        for seed in [3u64, 11] {
            let n = sample(seed);
            let c = flh_netlist::CompiledCircuit::compile(&n).unwrap();
            let p = flh_netlist::Program::lower(&c);
            let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);

            // The same stimuli (with X lanes) in 64-lane words and 64
            // scalar shadows.
            let mut packed = vec![Dual64::all_x(); c.cell_count()];
            let mut scalars: Vec<Vec<Logic>> = vec![vec![Logic::X; c.cell_count()]; 64];
            for &src in c.inputs().iter().chain(c.flip_flops()) {
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let v = random_logic(&mut rng, true);
                    scalar[src as usize] = v;
                    let d = logic_to_lane(v, lane as u32);
                    let cur = &mut packed[src as usize];
                    cur.one |= d.one;
                    cur.zero |= d.zero;
                }
            }
            settle_packed(&p, &mut packed);

            for (lane, scalar) in scalars.iter().enumerate() {
                let mut sim = LogicSim::new(&n).unwrap();
                for (i, &pi) in c.inputs().iter().enumerate() {
                    let _ = i;
                    sim.set_input(
                        c.inputs().iter().position(|&p| p == pi).unwrap(),
                        scalar[pi as usize],
                    );
                }
                for (i, &ff) in c.flip_flops().iter().enumerate() {
                    sim.set_ff_by_index(i, scalar[ff as usize]);
                }
                sim.settle();
                for (id, _) in n.iter() {
                    assert_eq!(
                        lane_to_logic(packed[id.index()], lane as u32),
                        sim.value(id),
                        "lane {lane} {id:?}"
                    );
                }
            }
        }
    }
}
