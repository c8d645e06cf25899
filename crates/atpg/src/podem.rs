//! PODEM test generation for stuck-at faults on the combinational test
//! view, plus justification-only mode (used for the V1 half of two-pattern
//! transition tests).
//!
//! Implication is event-driven. A search keeps one [`Dual8`] per cell from
//! one decision to the next — lane 0 the good machine, lane 1 the faulty
//! one — and after each decision or backtrack re-evaluates only the
//! readers of the assignables that changed, level by level through the
//! lowered [`Program`]. The fault is an overlay at its site: a stem fault
//! forces the site's faulty lane, a branch fault re-evaluates its gate with
//! [`Program::eval_cell_pinned`], the faulted pin's faulty lane forced. The
//! D-frontier and X-path scans walk only the site's fanout cone in
//! ascending cell id, so every decision is the one a whole-circuit scan
//! would take.

use flh_netlist::{CellId, CellKind, CompiledCircuit, Dual8, Program};
use flh_rng::Rng;
use flh_sim::{logic_to_dual8, Logic};

use crate::fault::{Fault, FaultSite};
use crate::tview::TestView;

/// PODEM search controls.
#[derive(Clone, Debug, PartialEq)]
pub struct PodemConfig {
    /// Backtrack budget before declaring the fault aborted.
    pub max_backtracks: usize,
}

impl PodemConfig {
    /// Default budget of 300 backtracks. The X-path check does not settle
    /// redundant faults early: without pruning, 158 of the 440 searches
    /// of `flh atpg s1196` hit this limit, most of them on redundant
    /// faults. Transition ATPG therefore skips the faults the FIRE
    /// redundancy pass proves redundant (`StaticFilter::redundant_transitions`,
    /// DESIGN.md §2m).
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

/// One search's implication state, kept from one decision to the next.
///
/// Each cell holds a [`Dual8`]: lane [`GOOD`] is the good machine and lane
/// [`FAULTY`] the faulty one, exactly what [`TestView::eval3`] computes
/// without and with the fault for the current assignment. A decision or
/// backtrack changes a few assignables; [`Implication::update`] re-evaluates
/// only their readers, level by level through [`Program::eval_cell`], until
/// the change dies out — the bucket-and-stamp scheme of
/// [`crate::replay::DeviationReplay`].
struct Implication<'p> {
    view: &'p TestView<'p>,
    compiled: &'p CompiledCircuit,
    program: &'p Program,
    overlay: Overlay,
    /// The cube under construction, in assignable order.
    assignment: Vec<Logic>,
    values: Vec<Dual8>,
    /// Per-cell generation stamps: a cell joins the level buckets at most
    /// once per update (`queued == gen`)...
    queued: Vec<u64>,
    gen: u64,
    /// ...and a walk over the circuit visits it at most once
    /// (`visited == walk`).
    visited: Vec<u64>,
    walk: u64,
    /// Update queue, one bucket per logic level; `lo..=hi` spans the
    /// non-empty ones.
    buckets: Vec<Vec<u32>>,
    lo: usize,
    hi: usize,
    scratch: Vec<Dual8>,
    /// The fault site and every evaluable cell downstream of it, in
    /// ascending id: the only cells where the two lanes can differ.
    cone: Vec<u32>,
    /// The cone cells that observation points read.
    observed: Vec<u32>,
    /// X-path walk stack, reused across decisions.
    stack: Vec<u32>,
}

impl<'p> Implication<'p> {
    /// All assignables X, the fault overlaid at its site.
    fn new(podem: &Podem<'p, '_>, fault: Option<&Fault>) -> Self {
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
        let mut imp = Implication {
            view,
            compiled,
            program: view.program(),
            overlay,
            assignment: vec![Logic::X; view.assignable().len()],
            values: podem.unassigned.clone(),
            queued: vec![0; compiled.cell_count()],
            gen: 1,
            visited: vec![0; compiled.cell_count()],
            walk: 0,
            buckets: vec![Vec::new(); compiled.levels() + 1],
            lo: usize::MAX,
            hi: 0,
            scratch: vec![Dual8::all_x(); view.program().scratch_words()],
            cone: Vec::new(),
            observed: Vec::new(),
            stack: Vec::new(),
        };
        let site = match overlay {
            Overlay::None => return imp,
            Overlay::Stem { cell, .. } => cell,
            Overlay::Branch { gate, .. } => gate,
        };
        imp.collect_cone(site);
        if compiled.level_of(site) > 0 {
            imp.queue(site);
        } else if let Overlay::Stem { cell, stuck } = overlay {
            // An assignable stem: force its faulty lane directly. (A branch
            // into a flip-flop's D pin never reaches the frame's logic.)
            imp.values[cell as usize] = force(imp.values[cell as usize], FAULTY, stuck);
            imp.queue_readers(cell);
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
        let flags = self.view.observed_drivers();
        self.observed = self
            .cone
            .iter()
            .copied()
            .filter(|&c| flags[c as usize])
            .collect();
    }

    fn next_walk(&mut self) -> u64 {
        self.walk += 1;
        self.walk
    }

    fn good(&self, cell: u32) -> Logic {
        lane(self.values[cell as usize], GOOD)
    }

    /// Both machines known and different: the cell carries a D or D̄.
    fn has_d(&self, cell: u32) -> bool {
        let w = self.values[cell as usize];
        let (g, f) = (lane(w, GOOD), lane(w, FAULTY));
        g.is_known() && f.is_known() && g != f
    }

    /// An observation point reads a D or D̄.
    fn detected(&self) -> bool {
        self.observed.iter().any(|&c| self.has_d(c))
    }

    /// Either machine still X.
    fn unresolved(&self, cell: u32) -> bool {
        let w = self.values[cell as usize];
        !lane(w, GOOD).is_known() || !lane(w, FAULTY).is_known()
    }

    /// Sets assignable `input` to `value` and queues its readers; call
    /// [`Implication::update`] once every change of a step is in.
    fn set(&mut self, input: usize, value: Logic) {
        self.assignment[input] = value;
        let cell = self.view.assignable()[input].index() as u32;
        let mut w = logic_to_dual8(value);
        if let Overlay::Stem { cell: site, stuck } = self.overlay {
            if site == cell {
                w = force(w, FAULTY, stuck);
            }
        }
        if self.values[cell as usize] != w {
            self.values[cell as usize] = w;
            self.queue_readers(cell);
        }
    }

    fn queue(&mut self, cell: u32) {
        if self.queued[cell as usize] == self.gen {
            return;
        }
        self.queued[cell as usize] = self.gen;
        let lvl = self.compiled.level_of(cell) as usize;
        self.buckets[lvl].push(cell);
        self.lo = self.lo.min(lvl);
        self.hi = self.hi.max(lvl);
    }

    fn queue_readers(&mut self, cell: u32) {
        for &r in self.compiled.readers(cell) {
            // Level-0 readers are flip-flops: their D pin is an observation
            // point, their Q an assignable of its own.
            if self.compiled.level_of(r) > 0 {
                self.queue(r);
            }
        }
    }

    /// Drains the level buckets: re-evaluates every queued cell and queues
    /// the readers of those whose word changed. A reader sits at a strictly
    /// higher level than its drivers, so each cell is evaluated once, after
    /// all of its changed inputs.
    fn update(&mut self) {
        let mut lvl = self.lo;
        while lvl <= self.hi {
            let mut bucket = std::mem::take(&mut self.buckets[lvl]);
            for &id in &bucket {
                let new = self.eval(id);
                if new != self.values[id as usize] {
                    self.values[id as usize] = new;
                    self.queue_readers(id);
                }
            }
            bucket.clear();
            self.buckets[lvl] = bucket;
            lvl += 1;
        }
        self.lo = usize::MAX;
        self.hi = 0;
        self.gen += 1;
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
    /// to any observation point, once the faulted line `driver` is
    /// activated. Without such a path the branch is hopeless — this is what
    /// keeps redundant faults cheap to prove.
    fn x_path_exists(&mut self, driver: u32) -> bool {
        let walk = self.next_walk();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        // Seeds: every cell carrying the effect (all inside the cone), the
        // branch gate itself (its injected pin carries a D the cell words
        // cannot show) and the faulted line.
        stack.extend(self.cone.iter().copied().filter(|&c| self.has_d(c)));
        if let Overlay::Branch { gate, .. } = self.overlay {
            if self.unresolved(gate) {
                self.visited[gate as usize] = walk;
                stack.push(gate);
            }
        }
        stack.push(driver);
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

    /// Differential check against the oracle: both lanes of every cell
    /// equal [`TestView::eval3`] without and with the fault.
    #[cfg(test)]
    fn assert_matches_eval3(&self, fault: Option<&Fault>) {
        let good = self.view.eval3(&self.assignment, None);
        let faulty = self.view.eval3(&self.assignment, fault);
        for (id, &w) in self.values.iter().enumerate() {
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
}

impl<'v, 'a> Podem<'v, 'a> {
    /// Creates an engine.
    pub fn new(view: &'v TestView<'a>, config: PodemConfig) -> Self {
        let program = view.program();
        let mut unassigned = vec![Dual8::all_x(); program.cell_words()];
        let mut scratch = vec![Dual8::all_x(); program.scratch_words()];
        program.execute(&mut unassigned, &mut scratch);
        Podem {
            view,
            config,
            unassigned,
        }
    }

    /// Generates a test cube detecting `fault` while *also* satisfying the
    /// given line goals — the workhorse of constrained (e.g. broadside)
    /// test generation, where the extra goals encode launch conditions.
    pub fn generate_with_goals(&self, fault: &Fault, goals: &[(CellId, bool)]) -> Option<TestCube> {
        self.search(Some(fault), goals)
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
        self.search(Some(fault), &[])
    }

    /// Finds an assignment that justifies `cell = value` in the fault-free
    /// circuit, or `None` if impossible within the budget.
    pub fn justify(&self, cell: CellId, value: bool) -> Option<TestCube> {
        self.search(None, &[(cell, value)])
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
        self.search(None, goals)
    }

    fn search(&self, fault: Option<&Fault>, goals: &[(CellId, bool)]) -> Option<TestCube> {
        let mut imp = Implication::new(self, fault);
        // The faulted line and the good value that activates the fault.
        let target = fault.map(|f| {
            (
                f.driver(self.view.netlist()).index() as u32,
                !f.stuck.as_bool(),
            )
        });
        // Decision stack: (assignable index, current value, other tried).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        // Deterministic work counters, accumulated as plain locals and
        // flushed once per search. The search shape depends only on the
        // view, fault and goals — deterministic at any pool width.
        let mut backtracks = 0usize;
        let mut decisions = 0u64;
        let mut aborted = false;

        let cube = loop {
            #[cfg(test)]
            imp.assert_matches_eval3(fault);
            let status = match target {
                Some((driver, want)) => self.fault_status(&mut imp, goals, driver, want),
                None => justify_status(&imp, goals),
            };
            match status {
                Status::Detected => {
                    break Some(TestCube {
                        assignment: imp.assignment,
                    })
                }
                Status::Conflict => {
                    if !backtrack(&mut imp, &mut stack, &mut backtracks) {
                        break None;
                    }
                }
                Status::Objective(cell, value) => match self.backtrace(cell, value, &imp) {
                    Some((input, v)) => {
                        decisions += 1;
                        stack.push((input, v, false));
                        imp.set(input, Logic::from_bool(v));
                        imp.update();
                    }
                    None => {
                        if !backtrack(&mut imp, &mut stack, &mut backtracks) {
                            break None;
                        }
                    }
                },
            }
            if backtracks > self.config.max_backtracks {
                aborted = true;
                break None;
            }
        };
        if flh_obs::enabled() {
            flh_obs::add(flh_obs::Counter::PodemBacktracks, backtracks as u64);
            flh_obs::add(flh_obs::Counter::PodemDecisions, decisions);
            flh_obs::add(flh_obs::Counter::PodemAborts, u64::from(aborted));
        }
        cube
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
        if !imp.x_path_exists(driver) {
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

/// Undoes decisions back to the newest one whose other value is untried,
/// flips it and re-implies. `false` once the decision tree is exhausted.
fn backtrack(
    imp: &mut Implication<'_>,
    stack: &mut Vec<(usize, bool, bool)>,
    backtracks: &mut usize,
) -> bool {
    while let Some((input, value, tried_other)) = stack.pop() {
        if tried_other {
            imp.set(input, Logic::X);
            continue;
        }
        *backtracks += 1;
        stack.push((input, !value, true));
        imp.set(input, Logic::from_bool(!value));
        imp.update();
        return true;
    }
    false
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
    use flh_core::{apply_style, DftStyle};
    use flh_netlist::{generate_circuit, GeneratorConfig, Netlist};

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
    /// keep both lanes equal to the oracle after every update.
    #[test]
    fn implication_tracks_random_assignment_walks() {
        let mut rng = Rng::seed_from_u64(29);
        for n in holding_style_netlists(13) {
            let view = view_podem(&n);
            let podem = Podem::new(&view, PodemConfig::paper_default());
            let faults = enumerate_stuck_faults(&n);
            let na = view.assignable().len();
            for fault in faults.iter().step_by(3) {
                let mut imp = Implication::new(&podem, Some(fault));
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
        let imp = {
            let mut imp = Implication::new(&podem, Some(&fault));
            imp.set(0, Logic::One);
            imp.update();
            imp
        };
        assert!(imp.has_d(g1.index() as u32));
        assert!(!imp.has_d(g2.index() as u32));
        assert!(!imp.has_d(a.index() as u32));
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
