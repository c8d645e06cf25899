//! PODEM test generation for stuck-at faults on the combinational test
//! view, plus justification-only mode (used for the V1 half of two-pattern
//! transition tests).
//!
//! Implication is event-driven and computes only what a search reads. A
//! search keeps one [`Dual8`] per cell from one decision to the next —
//! lane 0 the good machine, lane 1 the faulty one:
//!
//! * **Region.** Every value a search step reads lies in the fault site's
//!   fanout cone, in the goal cells, or in their transitive fanin. That
//!   set is marked once per search, and no cell outside it is evaluated.
//! * **Queue.** A decision re-evaluates only the region readers of the
//!   assignable it set, through the lowered [`Program`]. Pending cells are
//!   one bitset over [`CompiledCircuit::order`] positions, drained in
//!   ascending position. Positions are level-major, so each cell is
//!   evaluated once, after all of its changed inputs.
//! * **Trail.** Every word change is logged with the old word. A backtrack
//!   restores the words changed since the flipped decision instead of
//!   re-implying the undone assignables.
//!
//! The fault is an overlay at its site: a stem fault forces the site's
//! faulty lane, a branch fault re-evaluates its gate with
//! [`Program::eval_cell_pinned`], the faulted pin's faulty lane forced.
//! The D-frontier and X-path scans walk only the cone in ascending cell
//! id, so every decision is the one a whole-circuit scan would take.

use flh_netlist::{CellId, CellKind, CompiledCircuit, Dual8, Program};
use flh_rng::Rng;
use flh_sim::{logic_to_dual8, Logic};

use crate::fault::{Fault, FaultSite};
use crate::sat::{SatCheck, Verdict};
use crate::tview::TestView;

/// Backtracks after which a search asks the SAT check once whether its
/// cube can exist at all (DESIGN.md §2o). An unsatisfiable verdict ends
/// the search as proven; any other verdict resumes it where it stopped.
/// Only a backtrack budget above the checkpoint consults it. Measured on
/// s1196: 10 and 30 cut `flh atpg`'s time alike, 100 by less.
pub const SAT_CHECKPOINT: usize = 30;

/// The largest region, in evaluable cells, a search hands to the SAT
/// check. A call costs time in proportion to its region, while the share
/// of unsatisfiable verdicts falls as regions grow: on s13207, 69% of the
/// calls under 500 cells prove their search impossible, 21% of those of
/// 1000-2000 cells. Every s1196 and s1423 region fits.
pub(crate) const SAT_REGION_CELLS: usize = 1000;

/// Conflicts one SAT check may spend before the search resumes without a
/// verdict. The checks of `flh atpg` on s1196 average under four.
pub(crate) const SAT_CONFLICTS: u64 = 200;

/// PODEM search controls.
#[derive(Clone, Debug, PartialEq)]
pub struct PodemConfig {
    /// Backtrack budget before declaring the fault aborted.
    pub max_backtracks: usize,
}

impl PodemConfig {
    /// Default budget of 300 backtracks. The X-path check does not settle
    /// redundant faults early, so two things do: transition ATPG skips the
    /// faults the FIRE redundancy pass proves redundant
    /// (`StaticFilter::redundant_transitions`, DESIGN.md §2m), and a search
    /// that reaches [`SAT_CHECKPOINT`] backtracks asks the SAT check
    /// whether a cube exists at all (§2o). On `flh atpg s1196`, 71 searches
    /// hit this budget without the check, 52 of them on redundant faults;
    /// with it, 18 do.
    pub fn paper_default() -> Self {
        PodemConfig {
            max_backtracks: 300,
        }
    }
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig::paper_default()
    }
}

/// A (possibly partial) test: one [`Logic`] per assignable of the view,
/// `X` meaning don't-care.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCube {
    /// Assignment in [`TestView::assignable`] order.
    pub assignment: Vec<Logic>,
}

impl TestCube {
    /// Fills don't-cares with random values.
    pub fn fill_random(&self, rng: &mut Rng) -> Vec<bool> {
        self.assignment
            .iter()
            .map(|v| v.to_bool().unwrap_or_else(|| rng.gen()))
            .collect()
    }

    /// Fills don't-cares with a constant.
    pub fn fill_constant(&self, value: bool) -> Vec<bool> {
        self.assignment
            .iter()
            .map(|v| v.to_bool().unwrap_or(value))
            .collect()
    }

    /// *Adjacent fill*: every don't-care repeats the value of the nearest
    /// specified bit to its left (the first run copies rightward). This is
    /// the classic low-shift-power fill — long constant runs minimize
    /// transitions travelling down the scan chain.
    pub fn fill_adjacent(&self) -> Vec<bool> {
        let mut out: Vec<Option<bool>> = self.assignment.iter().map(|v| v.to_bool()).collect();
        let mut last: Option<bool> = None;
        for slot in out.iter_mut() {
            match slot {
                Some(v) => last = Some(*v),
                None => *slot = last,
            }
        }
        // Leading X run: borrow from the right.
        let mut next: Option<bool> = None;
        for slot in out.iter_mut().rev() {
            match slot {
                Some(v) => next = Some(*v),
                None => *slot = next,
            }
        }
        out.into_iter().map(|v| v.unwrap_or(false)).collect()
    }

    /// Number of specified (non-X) bits.
    pub fn specified_bits(&self) -> usize {
        self.assignment.iter().filter(|v| v.is_known()).count()
    }
}

/// Why a search ended without a cube.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NoCube {
    /// No cube exists: the decision tree is exhausted, or the SAT check
    /// proved it.
    Exhausted,
    /// The backtrack budget ran out first; a cube may still exist.
    Aborted,
}

enum Status {
    Detected,
    Conflict,
    Objective(u32, bool),
}

/// Good-machine lane of a search's [`Dual8`] cell word. Every lane but
/// [`FAULTY`] replicates the good value.
const GOOD: u8 = 1;
/// Faulty-machine lane.
const FAULTY: u8 = 2;

/// The value `w` carries in the lane `mask` selects.
#[inline]
fn lane(w: Dual8, mask: u8) -> Logic {
    if w.one & mask != 0 {
        Logic::One
    } else if w.zero & mask != 0 {
        Logic::Zero
    } else {
        Logic::X
    }
}

/// `w` with the lanes in `lanes` forced to `value`.
#[inline]
fn force(w: Dual8, lanes: u8, value: bool) -> Dual8 {
    let (one, zero) = if value { (lanes, 0) } else { (0, lanes) };
    Dual8 {
        one: (w.one & !lanes) | one,
        zero: (w.zero & !lanes) | zero,
    }
}

/// Word and bit of position `pos` in a bitset over order positions.
#[inline]
fn bit(pos: u32) -> (usize, u64) {
    (pos as usize / 64, 1 << (pos % 64))
}

/// Where a search's fault is overlaid on the faulty lane.
#[derive(Clone, Copy)]
enum Overlay {
    /// Fault-free search (justification): both lanes agree everywhere.
    None,
    /// Stem fault: the cell's faulty lane is forced to the stuck value.
    Stem { cell: u32, stuck: bool },
    /// Branch fault: the gate evaluates its faulty lane with the stuck
    /// value on `pin` only.
    Branch { gate: u32, pin: usize, stuck: bool },
}

/// One entry of a search's decision stack.
struct Decision {
    input: usize,
    value: bool,
    /// The other value has been tried already.
    flipped: bool,
    /// Trail length before the decision: undoing to it restores every word
    /// this decision and the later ones changed.
    mark: usize,
}

/// One search's implication state, kept from one decision to the next.
///
/// Each cell of the region holds a [`Dual8`]: lane [`GOOD`] is the good
/// machine and lane [`FAULTY`] the faulty one, exactly what
/// [`TestView::eval3`] computes without and with the fault for the
/// current assignment. Cells outside the region keep their all-X word;
/// no step reads them.
struct Implication<'p> {
    podem: &'p Podem<'p, 'p>,
    compiled: &'p CompiledCircuit,
    program: &'p Program,
    overlay: Overlay,
    /// The cube under construction, in assignable order.
    assignment: Vec<Logic>,
    values: Vec<Dual8>,
    /// `(cell, old word)` for every word change, oldest first.
    trail: Vec<(u32, Dual8)>,
    /// Cells waiting to be re-evaluated, one bit per order position.
    pending: Vec<u64>,
    /// The search's region, one bit per order position: the cone and the
    /// goal cells with their transitive fanin. Sources are always current
    /// and carry no bit.
    region: Vec<u64>,
    /// Bits set in `region`.
    region_cells: usize,
    /// Per-cell walk stamps: a walk visits a cell at most once
    /// (`visited == walk`).
    visited: Vec<u32>,
    walk: u32,
    scratch: Vec<Dual8>,
    /// The fault site and every evaluable cell downstream of it, in
    /// ascending id: the only cells where the two lanes can differ.
    cone: Vec<u32>,
    /// The cone cells that observation points read.
    observed: Vec<u32>,
    /// Walk stack, reused across walks.
    stack: Vec<u32>,
}

impl<'p> Implication<'p> {
    /// All assignables X, the fault overlaid at its site, the region
    /// marked for the fault's cone and `goals`.
    fn new(podem: &'p Podem<'p, 'p>, fault: Option<&Fault>, goals: &[(CellId, bool)]) -> Self {
        let view = podem.view;
        let compiled = view.compiled();
        let overlay = match fault.map(|f| (f.site, f.stuck.as_bool())) {
            None => Overlay::None,
            Some((FaultSite::Stem(cell), stuck)) => Overlay::Stem {
                cell: cell.index() as u32,
                stuck,
            },
            Some((FaultSite::Branch { gate, pin }, stuck)) => Overlay::Branch {
                gate: gate.index() as u32,
                pin,
                stuck,
            },
        };
        let words = compiled.order().len().div_ceil(64);
        let mut imp = Implication {
            podem,
            compiled,
            program: view.program(),
            overlay,
            assignment: vec![Logic::X; view.assignable().len()],
            values: podem.unassigned.clone(),
            trail: Vec::new(),
            pending: vec![0; words],
            region: vec![0; words],
            region_cells: 0,
            visited: vec![0; compiled.cell_count()],
            walk: 0,
            scratch: vec![Dual8::all_x(); view.program().scratch_words()],
            cone: Vec::new(),
            observed: Vec::new(),
            stack: Vec::new(),
        };
        let site = match overlay {
            Overlay::None => None,
            Overlay::Stem { cell, .. } => Some(cell),
            Overlay::Branch { gate, .. } => Some(gate),
        };
        if let Some(site) = site {
            imp.collect_cone(site);
        }
        imp.mark_region(goals);
        let Some(site) = site else {
            return imp;
        };
        if compiled.level_of(site) > 0 {
            imp.queue(compiled.topo_pos(site));
        } else if let Overlay::Stem { cell, stuck } = overlay {
            // An assignable stem: force its faulty lane directly. (A branch
            // into a flip-flop's D pin never reaches the frame's logic.)
            imp.store(cell, force(imp.values[cell as usize], FAULTY, stuck));
        }
        imp.update();
        imp
    }

    /// Collects `site` and everything downstream of it into `cone`, and
    /// the observed cells among them into `observed`.
    fn collect_cone(&mut self, site: u32) {
        let walk = self.next_walk();
        self.visited[site as usize] = walk;
        self.cone.push(site);
        let mut next = 0;
        while next < self.cone.len() {
            let id = self.cone[next];
            next += 1;
            for &r in self.compiled.readers(id) {
                if self.compiled.level_of(r) > 0 && self.visited[r as usize] != walk {
                    self.visited[r as usize] = walk;
                    self.cone.push(r);
                }
            }
        }
        self.cone.sort_unstable();
        let flags = self.podem.view.observed_drivers();
        self.observed = self
            .cone
            .iter()
            .copied()
            .filter(|&c| flags[c as usize])
            .collect();
    }

    /// Marks the region: the cone and the goal cells with their transitive
    /// fanin. Every value a step reads lies in it — detection reads
    /// observed cone cells, activation the faulted line (the site or a
    /// fanin of the branch gate), the X-path walk cone cells and their
    /// readers (cone cells too, or flip-flops and outputs, whose words it
    /// does not read), the D-frontier cone cells and their fanins,
    /// backtrace the fanins of an objective, and the goal checks the goal
    /// cells. The set is closed under fanin, so each of its words is exact.
    fn mark_region(&mut self, goals: &[(CellId, bool)]) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.extend_from_slice(&self.cone);
        stack.extend(goals.iter().map(|&(cell, _)| cell.index() as u32));
        while let Some(id) = stack.pop() {
            let pos = self.compiled.topo_pos(id);
            if pos == u32::MAX {
                continue; // a source
            }
            let (w, b) = bit(pos);
            if self.region[w] & b == 0 {
                self.region[w] |= b;
                self.region_cells += 1;
                stack.extend_from_slice(self.compiled.fanin(id));
            }
        }
        self.stack = stack;
    }

    fn next_walk(&mut self) -> u32 {
        self.walk += 1;
        self.walk
    }

    /// Whether a step may read `cell`: a source, or a cell of the region.
    #[cfg(test)]
    fn readable(&self, cell: u32) -> bool {
        let pos = self.compiled.topo_pos(cell);
        if pos == u32::MAX {
            return true;
        }
        let (w, b) = bit(pos);
        self.region[w] & b != 0
    }

    /// The word of `cell`. In tests, a read outside the region fails.
    #[inline]
    fn word(&self, cell: u32) -> Dual8 {
        #[cfg(test)]
        assert!(self.readable(cell), "cell {cell} read outside the region");
        self.values[cell as usize]
    }

    fn good(&self, cell: u32) -> Logic {
        lane(self.word(cell), GOOD)
    }

    /// Both machines known and different: the cell carries a D or D̄.
    fn has_d(&self, cell: u32) -> bool {
        let w = self.word(cell);
        let (g, f) = (lane(w, GOOD), lane(w, FAULTY));
        g.is_known() && f.is_known() && g != f
    }

    /// An observation point reads a D or D̄.
    fn detected(&self) -> bool {
        self.observed.iter().any(|&c| self.has_d(c))
    }

    /// Either machine still X.
    fn unresolved(&self, cell: u32) -> bool {
        let w = self.word(cell);
        !lane(w, GOOD).is_known() || !lane(w, FAULTY).is_known()
    }

    /// Sets assignable `input` to `value` and queues its readers; call
    /// [`Implication::update`] once every change of a step is in.
    fn set(&mut self, input: usize, value: Logic) {
        self.assignment[input] = value;
        let cell = self.podem.view.assignable()[input].index() as u32;
        let mut w = logic_to_dual8(value);
        if let Overlay::Stem { cell: site, stuck } = self.overlay {
            if site == cell {
                w = force(w, FAULTY, stuck);
            }
        }
        self.store(cell, w);
    }

    /// Makes `w` the word of `cell`. A change goes on the trail and queues
    /// the cell's region readers.
    fn store(&mut self, cell: u32, w: Dual8) {
        let old = self.values[cell as usize];
        if old == w {
            return;
        }
        self.trail.push((cell, old));
        self.values[cell as usize] = w;
        let podem = self.podem;
        let span =
            podem.reader_off[cell as usize] as usize..podem.reader_off[cell as usize + 1] as usize;
        for &pos in &podem.reader_pos[span] {
            self.queue(pos);
        }
    }

    /// Queues the cell at order position `pos`, if it lies in the region.
    #[inline]
    fn queue(&mut self, pos: u32) {
        let (w, b) = bit(pos);
        self.pending[w] |= self.region[w] & b;
    }

    /// Drains the pending bitset in ascending position: re-evaluates every
    /// queued cell and queues the readers of those whose word changed. A
    /// reader sits at a higher position than its drivers, so each cell is
    /// evaluated once, after all of its changed inputs.
    fn update(&mut self) {
        let order = self.compiled.order();
        for w in 0..self.pending.len() {
            while self.pending[w] != 0 {
                let bits = self.pending[w];
                self.pending[w] = bits & (bits - 1);
                let id = order[w * 64 + bits.trailing_zeros() as usize];
                let new = self.eval(id);
                self.store(id, new);
            }
        }
    }

    /// Restores every word changed since the trail held `mark` entries.
    fn undo(&mut self, mark: usize) {
        for (cell, old) in self.trail.drain(mark..).rev() {
            self.values[cell as usize] = old;
        }
    }

    /// Pushes the decision `input = value` and implies it.
    fn decide(&mut self, stack: &mut Vec<Decision>, input: usize, value: bool, flipped: bool) {
        stack.push(Decision {
            input,
            value,
            flipped,
            mark: self.trail.len(),
        });
        self.set(input, Logic::from_bool(value));
        self.update();
    }

    /// Pops decisions back to the newest one whose other value is untried
    /// and returns it, with the popped assignables reset to X and every
    /// word back to its value before that decision. Kleene evaluation is
    /// monotone, so the words are a function of the cube: the restored
    /// words are what re-implying the reset assignables would compute.
    /// `None` once the decision tree is exhausted.
    fn retreat(&mut self, stack: &mut Vec<Decision>) -> Option<Decision> {
        while let Some(d) = stack.pop() {
            self.assignment[d.input] = Logic::X;
            if !d.flipped {
                self.undo(d.mark);
                return Some(d);
            }
        }
        None
    }

    /// Retreats to the newest untried decision and flips it. `false` once
    /// the decision tree is exhausted.
    fn backtrack(&mut self, stack: &mut Vec<Decision>, backtracks: &mut usize) -> bool {
        let Some(d) = self.retreat(stack) else {
            return false;
        };
        *backtracks += 1;
        self.decide(stack, d.input, !d.value, true);
        true
    }

    /// One cell's word from its inputs, with the fault overlay applied.
    fn eval(&mut self, id: u32) -> Dual8 {
        match self.overlay {
            Overlay::Stem { cell, stuck } if cell == id => force(
                self.program.eval_cell(id, &self.values, &mut self.scratch),
                FAULTY,
                stuck,
            ),
            Overlay::Branch { gate, pin, stuck } if gate == id => {
                // The faulted pin's driver may feed other pins of the same
                // gate, so the overlay goes on the pin, not on the driver's
                // word.
                let driver = self.compiled.fanin(id)[pin];
                let word = force(self.values[driver as usize], FAULTY, stuck);
                self.program
                    .eval_cell_pinned(id, pin, word, &self.values, &mut self.scratch)
            }
            _ => self.program.eval_cell(id, &self.values, &mut self.scratch),
        }
    }

    /// Forward reachability from the fault effect through unresolved cells
    /// to any observation point, once the fault is activated. Without such
    /// a path the branch is hopeless — this is what keeps redundant faults
    /// cheap to prove.
    fn x_path_exists(&mut self) -> bool {
        let walk = self.next_walk();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        // Seeds: every cell carrying the effect (all inside the cone; an
        // activated stem site is one) and the branch gate itself (its
        // faulted pin carries a D the cell words cannot show). The branch's
        // driver is no seed: its other readers never see the effect.
        stack.extend(self.cone.iter().copied().filter(|&c| self.has_d(c)));
        if let Overlay::Branch { gate, .. } = self.overlay {
            if self.unresolved(gate) {
                self.visited[gate as usize] = walk;
                stack.push(gate);
            }
        }
        let mut found = false;
        'walk: while let Some(id) = stack.pop() {
            for &r in self.compiled.readers(id) {
                if self.visited[r as usize] == walk {
                    continue;
                }
                let kind = self.compiled.kind(r);
                if kind == CellKind::Output || kind.is_flip_flop() {
                    found = true; // the effect can reach a PO or a D capture
                    break 'walk;
                }
                if self.unresolved(r) {
                    self.visited[r as usize] = walk;
                    stack.push(r);
                }
            }
        }
        self.stack = stack;
        found
    }

    /// The first D-frontier gate in ascending id — a cell with an effect on
    /// an input and an unresolved output — that still has an X input, as
    /// the objective "that input to its non-controlling value". Only cone
    /// cells can carry or read an effect (a flip-flop reading one never has
    /// an X input), so the cone walk finds the gate a whole-circuit scan in
    /// id order would.
    fn frontier_objective(&self, want: bool) -> Option<(u32, bool)> {
        for &id in &self.cone {
            let kind = self.compiled.kind(id);
            if kind == CellKind::Output || !self.unresolved(id) {
                continue;
            }
            let fanin = self.compiled.fanin(id);
            let d_input = fanin
                .iter()
                .enumerate()
                .any(|(pin, &f)| match self.overlay {
                    Overlay::Branch { gate, pin: p, .. } if gate == id && p == pin => {
                        self.good(f).to_bool() == Some(want)
                    }
                    _ => self.has_d(f),
                });
            if !d_input {
                continue;
            }
            if let Some((pin, &f)) = fanin
                .iter()
                .enumerate()
                .find(|&(_, &f)| !self.good(f).is_known())
            {
                return Some((f, noncontrolling(kind, pin)));
            }
        }
        None
    }

    /// Differential check against the oracle: both lanes of every source
    /// and region cell equal [`TestView::eval3`] without and with the
    /// fault. Cells outside the region are never read (see
    /// [`Implication::word`]).
    #[cfg(test)]
    fn assert_matches_eval3(&self, fault: Option<&Fault>) {
        let good = self.podem.view.eval3(&self.assignment, None);
        let faulty = self.podem.view.eval3(&self.assignment, fault);
        for (id, &w) in self.values.iter().enumerate() {
            if !self.readable(id as u32) {
                continue;
            }
            assert_eq!(
                lane(w, GOOD),
                good[id],
                "good lane of cell {id} under {fault:?}"
            );
            assert_eq!(
                lane(w, FAULTY),
                faulty[id],
                "faulty lane of cell {id} under {fault:?}"
            );
        }
    }
}

/// PODEM engine over a test view.
pub struct Podem<'v, 'a> {
    view: &'v TestView<'a>,
    config: PodemConfig,
    /// Every cell's word with all assignables X and no fault: the state
    /// each search starts from.
    unassigned: Vec<Dual8>,
    /// Each cell's combinational readers as [`CompiledCircuit::order`]
    /// positions, ascending and each once: those of cell `i` are
    /// `reader_pos[reader_off[i]..reader_off[i + 1]]`. Flip-flop readers
    /// are left out: their D pin is an observation point, their Q an
    /// assignable of its own.
    reader_off: Vec<u32>,
    reader_pos: Vec<u32>,
}

impl<'v, 'a> Podem<'v, 'a> {
    /// Creates an engine.
    pub fn new(view: &'v TestView<'a>, config: PodemConfig) -> Self {
        let program = view.program();
        let mut unassigned = vec![Dual8::all_x(); program.cell_words()];
        let mut scratch = vec![Dual8::all_x(); program.scratch_words()];
        program.execute(&mut unassigned, &mut scratch);
        let compiled = view.compiled();
        let mut reader_off = Vec::with_capacity(compiled.cell_count() + 1);
        let mut reader_pos = Vec::new();
        let mut cell_readers = Vec::new();
        reader_off.push(0);
        for id in 0..compiled.cell_count() as u32 {
            cell_readers.clear();
            cell_readers.extend(
                compiled
                    .readers(id)
                    .iter()
                    .filter(|&&r| compiled.level_of(r) > 0)
                    .map(|&r| compiled.topo_pos(r)),
            );
            cell_readers.sort_unstable();
            cell_readers.dedup();
            reader_pos.extend_from_slice(&cell_readers);
            reader_off.push(reader_pos.len() as u32);
        }
        Podem {
            view,
            config,
            unassigned,
            reader_off,
            reader_pos,
        }
    }

    /// Generates a test cube detecting `fault`, or `None` if the fault is
    /// untestable or the backtrack budget ran out.
    ///
    /// # Example
    ///
    /// ```
    /// use flh_atpg::{Fault, Podem, PodemConfig, StuckValue, TestView};
    /// use flh_netlist::{CellKind, Netlist};
    /// use flh_sim::Logic;
    ///
    /// # fn main() -> Result<(), flh_netlist::NetlistError> {
    /// let mut n = Netlist::new("and");
    /// let a = n.add_input("a");
    /// let b = n.add_input("b");
    /// let g = n.add_cell("g", CellKind::And2, vec![a, b]);
    /// n.add_output("y", g);
    /// let view = TestView::new(&n)?;
    /// let podem = Podem::new(&view, PodemConfig::paper_default());
    /// let cube = podem.generate(&Fault::stem(g, StuckValue::Zero)).unwrap();
    /// assert_eq!(cube.assignment, vec![Logic::One, Logic::One]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate(&self, fault: &Fault) -> Option<TestCube> {
        self.search(Some(fault), &[], Some(&mut SatCheck::default()))
            .ok()
    }

    /// Finds an assignment that justifies `cell = value` in the fault-free
    /// circuit, or `None` if impossible within the budget.
    pub fn justify(&self, cell: CellId, value: bool) -> Option<TestCube> {
        self.search(None, &[(cell, value)], Some(&mut SatCheck::default()))
            .ok()
    }

    /// Finds an assignment satisfying *all* the given line objectives
    /// simultaneously (used for path-delay sensitization, where every
    /// off-path input needs its non-controlling value at once).
    pub fn justify_all(&self, goals: &[(CellId, bool)]) -> Option<TestCube> {
        if goals.is_empty() {
            return Some(TestCube {
                assignment: vec![Logic::X; self.view.assignable().len()],
            });
        }
        self.search(None, goals, Some(&mut SatCheck::default()))
            .ok()
    }

    /// One PODEM search: a cube detecting `fault` (or, without a fault,
    /// justifying the goals alone) that also satisfies `goals`, or why
    /// there is none. With `sat`, a search that reaches [`SAT_CHECKPOINT`]
    /// backtracks consults the SAT check once, in those buffers.
    pub(crate) fn search(
        &self,
        fault: Option<&Fault>,
        goals: &[(CellId, bool)],
        mut sat: Option<&mut SatCheck>,
    ) -> Result<TestCube, NoCube> {
        let mut imp = Implication::new(self, fault, goals);
        // The faulted line and the good value that activates the fault.
        let target = fault.map(|f| {
            (
                f.driver(self.view.netlist()).index() as u32,
                !f.stuck.as_bool(),
            )
        });
        let mut stack: Vec<Decision> = Vec::new();
        // Deterministic work counters, accumulated as plain locals and
        // flushed once per search. The search shape depends only on the
        // view, fault and goals — deterministic at any pool width.
        let mut backtracks = 0usize;
        let mut decisions = 0u64;
        let mut verdict: Option<(Verdict, u64)> = None;
        #[cfg(test)]
        let (period, mut step) = (tests::CHECK_PERIOD.with(std::cell::Cell::get), 0usize);

        let outcome = loop {
            #[cfg(test)]
            {
                step += 1;
                if step % period == 0 {
                    imp.assert_matches_eval3(fault);
                }
            }
            let status = match target {
                Some((driver, want)) => self.fault_status(&mut imp, goals, driver, want),
                None => justify_status(&imp, goals),
            };
            let progressed = match status {
                Status::Detected => {
                    break Ok(TestCube {
                        assignment: imp.assignment,
                    })
                }
                Status::Conflict => imp.backtrack(&mut stack, &mut backtracks),
                Status::Objective(cell, value) => match self.backtrace(cell, value, &imp) {
                    Some((input, v)) => {
                        decisions += 1;
                        imp.decide(&mut stack, input, v, false);
                        true
                    }
                    None => imp.backtrack(&mut stack, &mut backtracks),
                },
            };
            if !progressed {
                break Err(NoCube::Exhausted);
            }
            if backtracks > self.config.max_backtracks {
                break Err(NoCube::Aborted);
            }
            if backtracks == SAT_CHECKPOINT
                && SAT_CHECKPOINT < self.config.max_backtracks
                && imp.region_cells <= SAT_REGION_CELLS
                && verdict.is_none()
            {
                if let Some(sat) = sat.as_deref_mut() {
                    let checked = sat.check(
                        self.view,
                        fault,
                        goals,
                        &imp.region,
                        &imp.cone,
                        &imp.observed,
                        SAT_CONFLICTS,
                    );
                    verdict = Some(checked);
                    if checked.0 == Verdict::Unsat {
                        break Err(NoCube::Exhausted);
                    }
                }
            }
        };
        if flh_obs::enabled() {
            flh_obs::add(flh_obs::Counter::PodemBacktracks, backtracks as u64);
            flh_obs::add(flh_obs::Counter::PodemDecisions, decisions);
            flh_obs::add(
                flh_obs::Counter::PodemAborts,
                u64::from(outcome == Err(NoCube::Aborted)),
            );
            if let Some((verdict, conflicts)) = verdict {
                flh_obs::named_add("atpg.sat.calls", 1);
                flh_obs::named_add("atpg.sat.unsat", u64::from(verdict == Verdict::Unsat));
                flh_obs::named_add("atpg.sat.unknown", u64::from(verdict == Verdict::Unknown));
                flh_obs::named_add("atpg.sat.conflicts", conflicts);
            }
        }
        outcome
    }

    /// Determines success / failure / next objective for a fault goal.
    fn fault_status(
        &self,
        imp: &mut Implication<'_>,
        goals: &[(CellId, bool)],
        driver: u32,
        want: bool,
    ) -> Status {
        // Side goals first: contradicted => dead branch; unknown goals
        // become objectives once the fault itself is covered.
        let mut goal_pending: Option<(u32, bool)> = None;
        for &(cell, value) in goals {
            let cell = cell.index() as u32;
            match imp.good(cell).to_bool() {
                Some(v) if v == value => {}
                Some(_) => return Status::Conflict,
                None => {
                    if goal_pending.is_none() {
                        goal_pending = Some((cell, value));
                    }
                }
            }
        }

        // Detection at an observation point?
        if imp.detected() {
            return match goal_pending {
                Some((cell, value)) => Status::Objective(cell, value),
                None => Status::Detected,
            };
        }

        // Activation: the faulted line's good value must be the opposite of
        // the stuck value.
        match imp.good(driver).to_bool() {
            Some(v) if v != want => return Status::Conflict,
            None => return Status::Objective(driver, want),
            Some(_) => {}
        }

        // Propagation: with an X-path to an observation point, pick an X
        // input of the D-frontier to set to a non-controlling value.
        if !imp.x_path_exists() {
            return Status::Conflict;
        }
        match imp.frontier_objective(want) {
            Some((cell, value)) => Status::Objective(cell, value),
            // Fault activated but nothing can propagate further.
            None => Status::Conflict,
        }
    }

    /// Walks an objective back to an unassigned primary input / flip-flop.
    fn backtrace(
        &self,
        mut cell: u32,
        mut value: bool,
        imp: &Implication<'_>,
    ) -> Option<(usize, bool)> {
        let compiled = self.view.compiled();
        loop {
            if let Some(idx) = self
                .view
                .assignable_index(CellId::from_index(cell as usize))
            {
                // Already assigned assignables are not re-decided.
                if imp.good(cell).is_known() {
                    return None;
                }
                return Some((idx, value));
            }
            let kind = compiled.kind(cell);
            if matches!(kind, CellKind::Const0 | CellKind::Const1) {
                return None;
            }
            // Choose an X-valued fanin to continue through.
            let next = compiled
                .fanin(cell)
                .iter()
                .copied()
                .find(|&f| !imp.good(f).is_known())?;
            if kind.inverts() {
                value = !value;
            }
            cell = next;
        }
    }
}

/// Multi-goal justification: conflict beats objective beats success,
/// scanning all goals.
fn justify_status(imp: &Implication<'_>, goals: &[(CellId, bool)]) -> Status {
    let mut status = Status::Detected;
    for &(cell, value) in goals {
        let cell = cell.index() as u32;
        match imp.good(cell).to_bool() {
            Some(v) if v == value => {}
            Some(_) => return Status::Conflict,
            None => {
                if matches!(status, Status::Detected) {
                    status = Status::Objective(cell, value);
                }
            }
        }
    }
    status
}

/// Heuristic non-controlling value per gate kind and pin, used for
/// propagation objectives. PODEM's backtracking recovers from imperfect
/// choices on the complex gates.
fn noncontrolling(kind: CellKind, pin: usize) -> bool {
    use CellKind::*;
    match kind {
        And2 | And3 | And4 | Nand2 | Nand3 | Nand4 | AndN(_) | NandN(_) => true,
        Or2 | Or3 | Or4 | Nor2 | Nor3 | Nor4 | OrN(_) | NorN(_) => false,
        Xor2 | Xnor2 | XorN(_) => false,
        // Complex gates: 0 on an AND-pair pin kills that product term, and
        // 0 on the OR-side pin leaves the other term in control — a safe
        // default for every pin, with backtracking correcting the cases
        // where the partner pin carries the effect.
        Aoi21 | Aoi22 | Oai21 | Oai22 => false,
        Mux2 => false,
        _ => {
            let _ = pin; // pin-insensitive kinds
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{enumerate_stuck_faults, StuckValue};
    use crate::sat::Verdict;
    use flh_core::{apply_style, DftStyle};
    use flh_netlist::{generate_circuit, GeneratorConfig, Netlist};

    thread_local! {
        /// [`Podem::search`] checks every `CHECK_PERIOD`-th step of a
        /// search against the oracle: every step by default. Tests about
        /// verdicts alone sample the long searches instead.
        pub(super) static CHECK_PERIOD: std::cell::Cell<usize> = const { std::cell::Cell::new(1) };
    }

    fn view_podem(n: &Netlist) -> TestView<'_> {
        TestView::new(n).unwrap()
    }

    #[test]
    fn and_gate_tests() {
        let mut n = Netlist::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::And2, vec![a, b]);
        n.add_output("y", g);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        // s-a-0 at output: needs a=b=1.
        let cube = podem.generate(&Fault::stem(g, StuckValue::Zero)).unwrap();
        assert_eq!(cube.assignment, vec![Logic::One, Logic::One]);
        // s-a-1 at output: any input 0; the cube must detect it.
        let cube = podem.generate(&Fault::stem(g, StuckValue::One)).unwrap();
        assert!(cube.assignment.contains(&Logic::Zero));
        // s-a-1 on input a: a=0, b=1.
        let cube = podem.generate(&Fault::stem(a, StuckValue::One)).unwrap();
        assert_eq!(cube.assignment, vec![Logic::Zero, Logic::One]);
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // y = AND(a, NOT a) is constant 0: s-a-0 at y is undetectable.
        let mut n = Netlist::new("red");
        let a = n.add_input("a");
        let inv = n.add_cell("inv", CellKind::Inv, vec![a]);
        let g = n.add_cell("g", CellKind::And2, vec![a, inv]);
        n.add_output("y", g);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        assert!(podem.generate(&Fault::stem(g, StuckValue::Zero)).is_none());
        // s-a-1 at y IS detectable (any input pattern).
        assert!(podem.generate(&Fault::stem(g, StuckValue::One)).is_some());
    }

    #[test]
    fn propagation_through_reconvergence() {
        // y = XOR(a, AND(a,b)): fault on the AND must propagate through
        // the XOR with a side input involved in the fault cone.
        let mut n = Netlist::new("reconv");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::And2, vec![a, b]);
        let x = n.add_cell("x", CellKind::Xor2, vec![a, g]);
        n.add_output("y", x);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let cube = podem.generate(&Fault::stem(g, StuckValue::Zero)).unwrap();
        // Verify by simulation.
        let mut rng = Rng::seed_from_u64(1);
        let bits = cube.fill_random(&mut rng);
        let words: Vec<u64> = bits.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let good = view.observe64(&view.eval64(&words, None));
        let bad = view.observe64(&view.eval64(&words, Some(&Fault::stem(g, StuckValue::Zero))));
        assert_ne!(good[0] & 1, bad[0] & 1);
    }

    #[test]
    fn justification() {
        let mut n = Netlist::new("just");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::Nor2, vec![a, b]);
        n.add_output("y", g);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let cube = podem.justify(g, true).unwrap();
        assert_eq!(cube.assignment, vec![Logic::Zero, Logic::Zero]);
        let cube = podem.justify(g, false).unwrap();
        let vals = view.eval3(&cube.assignment, None);
        assert_eq!(vals[g.index()], Logic::Zero);
    }

    #[test]
    fn justify_impossible_value_fails() {
        let mut n = Netlist::new("k");
        let a = n.add_input("a");
        let k = n.add_cell("k", CellKind::Const0, vec![]);
        let g = n.add_cell("g", CellKind::And2, vec![a, k]);
        n.add_output("y", g);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        assert!(podem.justify(g, true).is_none());
        assert!(podem.justify(g, false).is_some());
    }

    /// Every PODEM-generated test must actually detect its fault when
    /// simulated, across a generated circuit's whole fault list.
    #[test]
    fn generated_tests_verify_by_simulation() {
        let n = generate_circuit(&GeneratorConfig {
            name: "podem_ver".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 6,
            gates: 60,
            logic_depth: 6,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 31,
        })
        .unwrap();
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let faults = enumerate_stuck_faults(&n);
        let mut rng = Rng::seed_from_u64(2);
        let mut generated = 0;
        for fault in &faults {
            if let Some(cube) = podem.generate(fault) {
                generated += 1;
                let bits = cube.fill_random(&mut rng);
                let words: Vec<u64> = bits.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let good = view.observe64(&view.eval64(&words, None));
                let bad = view.observe64(&view.eval64(&words, Some(fault)));
                let detected = good.iter().zip(&bad).any(|(g, b)| (g ^ b) & 1 != 0);
                assert!(detected, "cube fails to detect {fault:?}");
            }
        }
        // Most of the fault universe is testable; the rest is genuine
        // redundancy (verified exhaustively in `podem_is_complete`).
        assert!(
            generated as f64 >= 0.75 * faults.len() as f64,
            "only {generated}/{} testable",
            faults.len()
        );
    }

    /// PODEM must be *complete* on circuits small enough for exhaustive
    /// cross-checking: it finds a test iff one exists.
    #[test]
    fn podem_is_complete() {
        let n = generate_circuit(&GeneratorConfig {
            name: "podem_complete".into(),
            primary_inputs: 4,
            primary_outputs: 3,
            flip_flops: 4,
            gates: 40,
            logic_depth: 5,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 63,
        })
        .unwrap();
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let faults = enumerate_stuck_faults(&n);
        let na = view.assignable().len();
        assert!(na <= 16, "keep the exhaustive check tractable");
        for fault in &faults {
            let found = podem.generate(fault).is_some();
            let testable = (0u64..(1 << na)).any(|bits| {
                let words: Vec<u64> = (0..na)
                    .map(|i| if bits >> i & 1 == 1 { !0 } else { 0 })
                    .collect();
                let good = view.observe64(&view.eval64(&words, None));
                let bad = view.observe64(&view.eval64(&words, Some(fault)));
                good.iter().zip(&bad).any(|(g, b)| (g ^ b) & 1 != 0)
            });
            assert_eq!(found, testable, "PODEM disagrees on {fault:?}");
        }
    }

    /// One generated circuit in each holding style: hold latch, hold MUX
    /// and FLH.
    fn holding_style_netlists(seed: u64) -> Vec<Netlist> {
        let base = generate_circuit(&GeneratorConfig {
            name: "podem_diff".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 6,
            gates: 50,
            logic_depth: 6,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed,
        })
        .unwrap();
        [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh]
            .iter()
            .map(|&style| apply_style(&base, style).unwrap().netlist)
            .collect()
    }

    /// Differential test of the implication state: every search step
    /// re-checks both lanes of every cell against `TestView::eval3` (the
    /// `assert_matches_eval3` hook in `Podem::search`), here over every
    /// stuck fault — stems and branches — and both justification values of
    /// every cell, on generated circuits in each holding style.
    #[test]
    fn implication_matches_eval3_in_every_holding_style() {
        for seed in [11, 12] {
            for n in holding_style_netlists(seed) {
                let view = view_podem(&n);
                let podem = Podem::new(&view, PodemConfig::paper_default());
                for fault in enumerate_stuck_faults(&n) {
                    podem.generate(&fault);
                }
                for (id, _) in n.iter() {
                    podem.justify(id, false);
                    podem.justify(id, true);
                }
            }
        }
    }

    /// Arbitrary assign / unassign walks, not just the ones a search takes,
    /// keep both lanes of the sources and the region equal to the oracle
    /// after every update. Then random decide / backtrack sequences: each
    /// backtrack must restore every word to its value before the flipped
    /// decision, bit for bit, and the region must match the oracle after
    /// the undo and after the flip.
    #[test]
    fn implication_tracks_random_assignment_walks() {
        let mut rng = Rng::seed_from_u64(29);
        for n in holding_style_netlists(13) {
            let view = view_podem(&n);
            let podem = Podem::new(&view, PodemConfig::paper_default());
            let faults = enumerate_stuck_faults(&n);
            let na = view.assignable().len();
            for fault in faults.iter().step_by(3) {
                // A random goal widens the region beyond the fault's cone.
                let goal = (
                    CellId::from_index(rng.gen_range(0..n.cell_count())),
                    rng.gen::<bool>(),
                );
                let mut imp = Implication::new(&podem, Some(fault), &[goal]);
                imp.assert_matches_eval3(Some(fault));
                for _ in 0..24 {
                    for _ in 0..rng.gen_range(1usize..4) {
                        let value = match rng.gen_range(0u8..3) {
                            0 => Logic::X,
                            v => Logic::from_bool(v == 1),
                        };
                        imp.set(rng.gen_range(0..na), value);
                    }
                    imp.update();
                    imp.assert_matches_eval3(Some(fault));
                }
                let mut stack = Vec::new();
                // The words before each decision on the stack.
                let mut before: Vec<Vec<Dual8>> = Vec::new();
                for _ in 0..48 {
                    let free: Vec<usize> =
                        (0..na).filter(|&i| !imp.assignment[i].is_known()).collect();
                    if !free.is_empty() && (stack.is_empty() || rng.gen_bool(0.6)) {
                        before.push(imp.values.clone());
                        let input = free[rng.gen_range(0..free.len())];
                        imp.decide(&mut stack, input, rng.gen(), false);
                    } else {
                        let Some(d) = imp.retreat(&mut stack) else {
                            break;
                        };
                        before.truncate(stack.len() + 1);
                        assert!(
                            before.pop().as_ref() == Some(&imp.values),
                            "undo did not restore the words before the decision under {fault:?}"
                        );
                        imp.assert_matches_eval3(Some(fault));
                        before.push(imp.values.clone());
                        imp.decide(&mut stack, d.input, !d.value, true);
                    }
                    imp.assert_matches_eval3(Some(fault));
                }
            }
        }
    }

    #[test]
    fn stem_fault_on_an_assignable_flip_flop() {
        // y = NAND(a, ff), ff.D = y: ff s-a-0 needs ff = 1 (activation) and
        // a = 1 (propagation through the NAND).
        let mut n = Netlist::new("ff_stem");
        let a = n.add_input("a");
        let ff = n.add_cell("ff", CellKind::Dff, vec![a]);
        let g = n.add_cell("g", CellKind::Nand2, vec![a, ff]);
        n.set_fanin_pin(ff, 0, g);
        n.add_output("y", g);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let cube = podem.generate(&Fault::stem(ff, StuckValue::Zero)).unwrap();
        assert_eq!(cube.assignment, vec![Logic::One, Logic::One]);
        // Stuck-at-1 is activated by ff = 0 and still needs a = 1.
        let cube = podem.generate(&Fault::stem(ff, StuckValue::One)).unwrap();
        assert_eq!(cube.assignment, vec![Logic::One, Logic::Zero]);
    }

    #[test]
    fn branch_fault_reaches_only_its_own_gate() {
        // a fans out to y1 = NOT a and y2 = BUF a; the branch into the
        // inverter s-a-0 is activated by a = 1 and observed at y1 only.
        let mut n = Netlist::new("branch");
        let a = n.add_input("a");
        let g1 = n.add_cell("g1", CellKind::Inv, vec![a]);
        let g2 = n.add_cell("g2", CellKind::Buf, vec![a]);
        n.add_output("y1", g1);
        n.add_output("y2", g2);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let fault = Fault::branch(g1, 0, StuckValue::Zero);
        let cube = podem.generate(&fault).unwrap();
        assert_eq!(cube.assignment, vec![Logic::One]);
        // The goal on g2 puts it in the region, so its word is evaluated.
        let imp = {
            let mut imp = Implication::new(&podem, Some(&fault), &[(g2, true)]);
            imp.set(0, Logic::One);
            imp.update();
            imp
        };
        assert!(imp.has_d(g1.index() as u32));
        assert!(!imp.has_d(g2.index() as u32));
        assert!(!imp.has_d(a.index() as u32));
    }

    #[test]
    fn branch_x_path_ignores_the_drivers_other_readers() {
        // a fans out to g1 = AND(a, b) and g2 = AND(a, c); h = AND(g1, d).
        // The branch a -> g1 s-a-0 is activated by a = 1 and reaches g1
        // with b = 1, but d = 0 blocks h. g2 still has an X path to y2,
        // yet it never carries the effect, so no X-path exists. (g2 lies
        // outside the region: reading it would fail the read guard.)
        let mut n = Netlist::new("branch_x_path");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g1 = n.add_cell("g1", CellKind::And2, vec![a, b]);
        let g2 = n.add_cell("g2", CellKind::And2, vec![a, c]);
        let h = n.add_cell("h", CellKind::And2, vec![g1, d]);
        n.add_output("y1", h);
        n.add_output("y2", g2);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        let fault = Fault::branch(g1, 0, StuckValue::Zero);
        let mut imp = Implication::new(&podem, Some(&fault), &[]);
        for (input, value) in [(0, Logic::One), (1, Logic::One), (3, Logic::Zero)] {
            imp.set(input, value);
        }
        imp.update();
        assert!(imp.has_d(g1.index() as u32));
        assert!(!imp.x_path_exists());
        // With d = X the effect has its X path through h.
        imp.set(3, Logic::X);
        imp.update();
        assert!(imp.x_path_exists());
    }

    #[test]
    fn branch_overlay_forces_the_faulted_pin_only() {
        // y = XOR(a, a) is constant 0. Pin 0 s-a-1 turns it into NOT a —
        // detectable with a = 0. Forcing the driver's faulty word instead
        // would hit both pins (XOR(1, 1) = 0) and hide the fault.
        let mut n = Netlist::new("double_pin");
        let a = n.add_input("a");
        let g = n.add_cell("g", CellKind::Xor2, vec![a, a]);
        n.add_output("y", g);
        let view = view_podem(&n);
        let podem = Podem::new(&view, PodemConfig::paper_default());
        for pin in 0..2 {
            let cube = podem
                .generate(&Fault::branch(g, pin, StuckValue::One))
                .unwrap();
            assert_eq!(cube.assignment, vec![Logic::Zero], "pin {pin}");
            let cube = podem
                .generate(&Fault::branch(g, pin, StuckValue::Zero))
                .unwrap();
            assert_eq!(cube.assignment, vec![Logic::One], "pin {pin}");
        }
        // The stem fault on the XOR output is the constant-0 redundancy.
        assert!(podem.generate(&Fault::stem(g, StuckValue::Zero)).is_none());
    }

    /// A stem that reaches an output along one path and dies on another:
    /// `a` feeds `g1 = AND(a, b)` and `g2 = AND(a, c)`, `h = XOR(g1, g2)`
    /// and `y1 = g1`. With `b = c = 1` the effect on `a` cancels at `h` but
    /// is seen at `y1`. `d = XOR(e, e)` reads one driver on both pins.
    fn reconvergent_netlist() -> Netlist {
        let mut n = Netlist::new("reconvergent");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let e = n.add_input("e");
        let g1 = n.add_cell("g1", CellKind::And2, vec![a, b]);
        let g2 = n.add_cell("g2", CellKind::And2, vec![a, c]);
        let h = n.add_cell("h", CellKind::Xor2, vec![g1, g2]);
        let d = n.add_cell("d", CellKind::Xor2, vec![e, e]);
        let m = n.add_cell("m", CellKind::Aoi21, vec![e, b, e]);
        n.add_output("y1", g1);
        n.add_output("y2", h);
        n.add_output("y3", d);
        n.add_output("y4", m);
        n
    }

    /// With every assignable fixed (goals on the sources), the SAT check is
    /// satisfiable exactly when the vector detects the fault by the
    /// reference (`stuck_detects_reference`), for every stem and branch
    /// fault, every pin of a gate that reads one driver twice and a branch
    /// into each flip-flop's D pin.
    #[test]
    fn sat_detection_matches_the_reference() {
        use crate::fsim::stuck_detects_reference;
        let mut rng = Rng::seed_from_u64(41);
        let mut check = SatCheck::default();
        let mut nets = holding_style_netlists(17);
        nets.push(reconvergent_netlist());
        for n in &nets {
            let view = view_podem(n);
            let podem = Podem::new(&view, PodemConfig::paper_default());
            let na = view.assignable().len();
            let mut faults = enumerate_stuck_faults(n);
            for (id, cell) in n.iter() {
                if cell.kind().is_flip_flop() {
                    // A branch into a D pin, which no search can detect.
                    faults.push(Fault::branch(id, 0, StuckValue::One));
                }
                let fanin = cell.fanin();
                if (1..fanin.len()).any(|k| fanin[..k].contains(&fanin[k])) {
                    for pin in 0..fanin.len() {
                        for stuck in [StuckValue::Zero, StuckValue::One] {
                            faults.push(Fault::branch(id, pin, stuck));
                        }
                    }
                }
            }
            let vectors: Vec<Vec<bool>> = if na <= 8 {
                (0u32..1 << na)
                    .map(|bits| (0..na).map(|i| bits >> i & 1 == 1).collect())
                    .collect()
            } else {
                (0..6)
                    .map(|_| (0..na).map(|_| rng.gen()).collect())
                    .collect()
            };
            let mut detections = 0;
            for fault in &faults {
                let imp = Implication::new(&podem, Some(fault), &[]);
                for bits in &vectors {
                    let words: Vec<u64> = bits.iter().map(|&b| u64::from(b)).collect();
                    let detects = stuck_detects_reference(&view, fault, &words, 1) != 0;
                    let goals: Vec<(CellId, bool)> = view
                        .assignable()
                        .iter()
                        .copied()
                        .zip(bits.iter().copied())
                        .collect();
                    let (verdict, _) = check.check(
                        &view,
                        Some(fault),
                        &goals,
                        &imp.region,
                        &imp.cone,
                        &imp.observed,
                        1000,
                    );
                    assert_ne!(verdict, Verdict::Unknown);
                    assert_eq!(
                        verdict == Verdict::Sat,
                        detects,
                        "{}: {fault:?} under {bits:?}",
                        n.name()
                    );
                    detections += usize::from(detects);
                }
            }
            assert!(detections > 0, "{}: no vector detects anything", n.name());
        }
    }

    /// On the profiles up to s1423 in every holding style, for the V2 and
    /// V1 searches of every other transition fault: a search that finds a
    /// cube is satisfiable, and a search SAT proves impossible finds no
    /// cube at a deep budget, nor does any random vector satisfy it.
    #[test]
    fn sat_verdicts_agree_with_podem_on_small_profiles() {
        use crate::fsim::stuck_detects_reference;
        use crate::transition::enumerate_transition_faults;
        use flh_netlist::iscas89_profiles;
        // Steps 64, 128, ... of each search: those of the long searches
        // that reach the SAT checkpoint.
        CHECK_PERIOD.with(|c| c.set(64));
        let mut rng = Rng::seed_from_u64(43);
        let mut check = SatCheck::default();
        let (mut sat, mut unsat) = (0, 0);
        for profile in iscas89_profiles().into_iter().take(8) {
            let base = generate_circuit(&profile.generator_config()).unwrap();
            for style in [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh] {
                let netlist = apply_style(&base, style).unwrap().netlist;
                let view = view_podem(&netlist);
                let podem = Podem::new(&view, PodemConfig::paper_default());
                let deep = Podem::new(
                    &view,
                    PodemConfig {
                        max_backtracks: 1000,
                    },
                );
                let na = view.assignable().len();
                let random: Vec<Vec<u64>> = (0..4)
                    .map(|_| (0..na).map(|_| rng.gen::<u64>()).collect())
                    .collect();
                for tf in enumerate_transition_faults(&netlist).iter().step_by(2) {
                    let v2 = tf.stuck_equivalent();
                    let v1_goal = [(tf.site, tf.initial_value())];
                    for (fault, goals) in [(Some(&v2), &[][..]), (None, &v1_goal[..])] {
                        let found = podem.search(fault, goals, None).is_ok();
                        let imp = Implication::new(&podem, fault, goals);
                        let (verdict, _) = check.check(
                            &view,
                            fault,
                            goals,
                            &imp.region,
                            &imp.cone,
                            &imp.observed,
                            100_000,
                        );
                        assert_ne!(verdict, Verdict::Unknown, "{}: {tf:?}", profile.name);
                        if found {
                            assert_eq!(verdict, Verdict::Sat, "{} {style:?}: {tf:?}", profile.name);
                        }
                        if verdict == Verdict::Sat {
                            sat += 1;
                            continue;
                        }
                        unsat += 1;
                        assert!(
                            deep.search(fault, goals, None).is_err(),
                            "{} {style:?}: a cube for {tf:?} proven impossible",
                            profile.name
                        );
                        for words in &random {
                            let hit = match fault {
                                Some(f) => stuck_detects_reference(&view, f, words, !0),
                                None => {
                                    let good = view.eval64(words, None)[tf.site.index()];
                                    if tf.initial_value() {
                                        good
                                    } else {
                                        !good
                                    }
                                }
                            };
                            assert_eq!(hit, 0, "{} {style:?}: {tf:?} met at random", profile.name);
                        }
                    }
                }
            }
        }
        assert!(sat > 1000 && unsat > 100, "{sat} satisfiable, {unsat} not");
    }

    #[test]
    fn cube_utilities() {
        let cube = TestCube {
            assignment: vec![Logic::One, Logic::X, Logic::Zero],
        };
        assert_eq!(cube.specified_bits(), 2);
        let mut rng = Rng::seed_from_u64(3);
        let bits = cube.fill_random(&mut rng);
        assert!(bits[0]);
        assert!(!bits[2]);
    }

    #[test]
    fn fill_strategies() {
        use Logic::{One as I, Zero as O, X};
        let cube = TestCube {
            assignment: vec![X, I, X, X, O, X],
        };
        assert_eq!(
            cube.fill_constant(false),
            vec![false, true, false, false, false, false]
        );
        // Adjacent: leading X copies the first specified bit; inner X runs
        // repeat their left neighbour.
        assert_eq!(
            cube.fill_adjacent(),
            vec![true, true, true, true, false, false]
        );
        // All-X cube falls back to zeros.
        let empty = TestCube {
            assignment: vec![X, X],
        };
        assert_eq!(empty.fill_adjacent(), vec![false, false]);
        // Specified bits are never altered by any fill.
        for bits in [
            cube.fill_constant(true),
            cube.fill_adjacent(),
            cube.fill_random(&mut Rng::seed_from_u64(1)),
        ] {
            assert!(bits[1]);
            assert!(!bits[4]);
        }
    }

    #[test]
    fn adjacent_fill_minimizes_transitions() {
        use Logic::X;
        let mut rng = Rng::seed_from_u64(8);
        let cube = TestCube {
            assignment: (0..64)
                .map(|i| {
                    if i % 7 == 0 {
                        Logic::from_bool(i % 14 == 0)
                    } else {
                        X
                    }
                })
                .collect(),
        };
        let transitions =
            |bits: &[bool]| -> usize { bits.windows(2).filter(|w| w[0] != w[1]).count() };
        let adj = transitions(&cube.fill_adjacent());
        let rnd = transitions(&cube.fill_random(&mut rng));
        assert!(adj < rnd, "adjacent {adj} !< random {rnd}");
    }
}
