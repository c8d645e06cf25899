//! The SAT check behind PODEM: a CDCL solver and a Larrabee encoding of
//! one search, built from the lowered [`flh_netlist::Program`]
//! (DESIGN.md §2o).
//!
//! A PODEM search that reaches [`crate::podem::SAT_CHECKPOINT`] backtracks
//! asks [`SatCheck::check`] once whether its cube can exist at all:
//!
//! * **Good machine.** Clauses for every cell of the search's region (the
//!   fault cone, the goal cells and their transitive fanin). Each
//!   instruction of a cell's chain contributes the prime implicants of its
//!   truth table ([`flh_netlist::Program::chain_tables`]) and of its
//!   complement, so unit propagation is as strong as hand-written Tseitin
//!   clauses; scratch registers become auxiliary variables.
//! * **Faulty machine.** A copy of the cone only, reading the good machine
//!   outside it. A stem fault fixes its site's faulty value; a branch
//!   fault replaces only its pin's operand ([`flh_netlist::Program::pin_slot`]).
//! * **Detection.** A `D` variable per cone cell, `D ↔ good ⊕ faulty`, one
//!   clause asking for a `D` on an observed cone cell, and the activation
//!   unit on the faulted line.
//! * **Active path** (Stephan, Brayton & Sangiovanni-Vincentelli, IEEE
//!   TCAD 1996). Separate path variables: each implies its cell's `D`, the
//!   site's is true, and one on a cell that is not observed and feeds no
//!   output marker or flip-flop implies the path variable of one of its
//!   readers. The clause is not written over the `D` variables: a `D` may
//!   die at a reconvergence while another path detects.
//! * **Goals** are unit clauses on the good machine.
//!
//! The solver is MiniSat's design (Eén & Sörensson, SAT 2003): two watched
//! literals, first-UIP learning, activity-ordered decisions from a heap,
//! phase saving and Luby restarts. Its only limit is a conflict budget; it
//! reads no clock and no randomness, so a verdict is a pure function of
//! the search. Watch lists are threaded through the one clause arena, so a
//! call allocates nothing per clause, and a caller that keeps one
//! [`SatCheck`] reuses its buffers from call to call.

use flh_netlist::{CellId, CellKind, CompiledCircuit, Program};

use crate::fault::{Fault, FaultSite};
use crate::tview::TestView;

/// A literal: variable `v` is `2v` (true) or `2v + 1` (false).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Lit(u32);

impl Lit {
    /// No literal (an unset slot of the encoder's per-cell tables).
    const UNSET: Lit = Lit(u32::MAX);
    /// The constant true: variable 0, fixed at the root of every call.
    const TRUE: Lit = Lit(0);
    const FALSE: Lit = Lit(1);

    fn new(var: u32, value: bool) -> Lit {
        Lit(var << 1 | u32::from(!value))
    }

    fn constant(value: bool) -> Lit {
        if value {
            Lit::TRUE
        } else {
            Lit::FALSE
        }
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    /// `self` if `negate` is false, its complement otherwise.
    fn xor(self, negate: bool) -> Lit {
        Lit(self.0 ^ u32::from(negate))
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// What a solver call proved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    Sat,
    Unsat,
    /// The conflict budget ran out first.
    Unknown,
}

const UNDEF: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;
/// End of a watch list, and the reason of a decision or root literal.
const NIL: u32 = u32::MAX;
/// Arena words before a clause's literals: length and the two watch links.
const HEADER: usize = 3;
/// Conflicts per unit of the Luby restart sequence.
const RESTART_UNIT: u64 = 64;
const VAR_DECAY: f64 = 0.95;

/// A CDCL solver over one flat clause arena.
///
/// A clause at arena offset `c` is `[len, link0, link1, lit0, lit1, ...]`;
/// `lit0` and `lit1` are its watches. A watch reference is `c << 1 | slot`,
/// and `link0`/`link1` chain it into the watch list of the literal in that
/// slot, headed by `head[lit]`. Moving a watch relinks the clause, so no
/// per-literal list is ever allocated.
#[derive(Debug, Default)]
struct Solver {
    arena: Vec<u32>,
    head: Vec<u32>,
    /// Per literal: [`UNDEF`], [`TRUE`] or [`FALSE`].
    vals: Vec<u8>,
    level: Vec<u32>,
    /// Per variable: the arena offset of the clause that implied it.
    reason: Vec<u32>,
    activity: Vec<f64>,
    /// Saved phase: the value a variable had when it was last unassigned.
    phase: Vec<bool>,
    decision: Vec<bool>,
    /// Max-heap of decision variables by activity, ties to the lower index.
    heap: Vec<u32>,
    heap_pos: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<u32>,
    qhead: usize,
    seen: Vec<bool>,
    learnt: Vec<Lit>,
    scratch: Vec<Lit>,
    var_inc: f64,
    /// False once the clauses are unsatisfiable at the root.
    ok: bool,
    conflicts: u64,
}

impl Solver {
    /// Empties the solver for a new formula over `vars` variables, none a
    /// decision variable yet, keeping every buffer. Variable 0 is the
    /// constant true.
    fn clear(&mut self, vars: usize) {
        fn reset<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
            v.clear();
            v.resize(len, value);
        }
        let vars = vars.max(1);
        self.arena.clear();
        reset(&mut self.head, 2 * vars, NIL);
        reset(&mut self.vals, 2 * vars, UNDEF);
        reset(&mut self.level, vars, 0);
        reset(&mut self.reason, vars, NIL);
        reset(&mut self.activity, vars, 0.0);
        reset(&mut self.phase, vars, false);
        reset(&mut self.decision, vars, false);
        reset(&mut self.heap_pos, vars, NIL);
        reset(&mut self.seen, vars, false);
        self.heap.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.var_inc = 1.0;
        self.ok = true;
        self.conflicts = 0;
        self.enqueue(Lit::TRUE, NIL);
    }

    /// Makes `var` a decision variable.
    fn set_decision(&mut self, var: u32) {
        if !self.decision[var as usize] {
            self.decision[var as usize] = true;
            self.heap_insert(var);
        }
    }

    /// Adds a variable; only decision variables are ever branched on.
    fn new_var(&mut self, decision: bool) -> u32 {
        let v = self.level.len() as u32;
        self.head.extend([NIL, NIL]);
        self.vals.extend([UNDEF, UNDEF]);
        self.level.push(0);
        self.reason.push(NIL);
        self.activity.push(0.0);
        self.phase.push(false);
        self.decision.push(false);
        self.heap_pos.push(NIL);
        self.seen.push(false);
        if decision {
            self.set_decision(v);
        }
        v
    }

    /// Conflicts of the calls since the last [`Solver::clear`].
    fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The value of `var` in the current assignment (the model after a
    /// satisfiable call).
    #[cfg(test)]
    fn value(&self, var: u32) -> Option<bool> {
        match self.vals[Lit::new(var, true).index()] {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        }
    }

    #[inline]
    fn val(&self, lit: Lit) -> u8 {
        self.vals[lit.index()]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        self.vals[lit.index()] = TRUE;
        self.vals[(!lit).index()] = FALSE;
        let v = lit.var();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Adds a clause at the root. Literals fixed at the root are simplified
    /// away, duplicates merged and tautologies dropped; a unit is assigned
    /// at once. Must not be called between [`Solver::solve`] calls.
    fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        let mut kept = 0;
        for i in 0..c.len() {
            let l = c[i];
            if self.val(l) == TRUE || (kept > 0 && c[kept - 1] == !l) {
                self.scratch = c;
                return; // satisfied, or a tautology
            }
            if self.val(l) == FALSE || (kept > 0 && c[kept - 1] == l) {
                continue;
            }
            c[kept] = l;
            kept += 1;
        }
        c.truncate(kept);
        match c.len() {
            0 => self.ok = false,
            1 => self.enqueue(c[0], NIL),
            _ => {
                self.push_clause(&c);
            }
        }
        self.scratch = c;
    }

    /// Appends clauses already in arena form (`[len, _, _, lits...]`, each
    /// of at least two distinct literals) and links their watches. Same
    /// conditions as [`Solver::push_clause`].
    fn push_slab(&mut self, words: &[u32]) {
        let mut c = self.arena.len();
        self.arena.extend_from_slice(words);
        while c < self.arena.len() {
            let (w0, w1) = (
                self.arena[c + HEADER] as usize,
                self.arena[c + HEADER + 1] as usize,
            );
            self.arena[c + 1] = self.head[w0];
            self.arena[c + 2] = self.head[w1];
            self.head[w0] = (c as u32) << 1;
            self.head[w1] = (c as u32) << 1 | 1;
            c += HEADER + self.arena[c] as usize;
        }
    }

    /// Appends a clause of at least two distinct literals to the arena,
    /// watching its first two, and returns its offset. At the root, before
    /// the first [`Solver::solve`], the literals may be fixed: propagation
    /// has not yet visited any watch list.
    fn push_clause(&mut self, lits: &[Lit]) -> u32 {
        let c = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.push(self.head[lits[0].index()]);
        self.arena.push(self.head[lits[1].index()]);
        self.head[lits[0].index()] = c << 1;
        self.head[lits[1].index()] = c << 1 | 1;
        self.arena.extend(lits.iter().map(|l| l.0));
        c
    }

    /// Unit propagation over the watch lists. Returns the offset of a
    /// falsified clause, or [`NIL`].
    fn propagate(&mut self) -> u32 {
        while self.qhead < self.trail.len() {
            let false_lit = !self.trail[self.qhead];
            self.qhead += 1;
            // The link word that points at `cur`: the list head, or the
            // previous clause's link.
            let mut link = NIL;
            let mut cur = self.head[false_lit.index()];
            while cur != NIL {
                let c = (cur >> 1) as usize;
                let slot = (cur & 1) as usize;
                let next = self.arena[c + 1 + slot];
                let lits = c + HEADER;
                let other = Lit(self.arena[lits + 1 - slot]);
                if self.val(other) == TRUE {
                    link = cur;
                    cur = next;
                    continue;
                }
                let len = self.arena[c] as usize;
                let replacement = (2..len).find(|&k| self.val(Lit(self.arena[lits + k])) != FALSE);
                if let Some(k) = replacement {
                    // Move the watch: unlink `cur` here, push it on the new
                    // literal's list.
                    let new = Lit(self.arena[lits + k]);
                    self.arena[lits + k] = false_lit.0;
                    self.arena[lits + slot] = new.0;
                    match link {
                        NIL => self.head[false_lit.index()] = next,
                        l => self.arena[(l >> 1) as usize + 1 + (l & 1) as usize] = next,
                    }
                    self.arena[c + 1 + slot] = self.head[new.index()];
                    self.head[new.index()] = cur;
                    cur = next;
                    continue;
                }
                if self.val(other) == FALSE {
                    self.qhead = self.trail.len();
                    return c as u32;
                }
                self.enqueue(other, c as u32);
                link = cur;
                cur = next;
            }
        }
        NIL
    }

    /// First-UIP conflict analysis: leaves the learnt clause in `learnt`,
    /// asserting literal first and a literal of the backjump level second,
    /// and returns that level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::UNSET);
        let mut open = 0usize;
        let mut implied: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();
        loop {
            let c = confl as usize;
            let len = self.arena[c] as usize;
            for k in 0..len {
                let q = Lit(self.arena[c + HEADER + k]);
                let v = q.var();
                if Some(v) == implied.map(Lit::var) || self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.bump(v);
                self.seen[v] = true;
                if self.level[v] >= current {
                    open += 1;
                } else {
                    learnt.push(q);
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var()] = false;
            implied = Some(p);
            open -= 1;
            if open == 0 {
                break;
            }
            confl = self.reason[p.var()];
        }
        learnt[0] = !implied.unwrap_or(Lit::UNSET);
        let mut back = 0;
        for k in 1..learnt.len() {
            let l = learnt[k];
            self.seen[l.var()] = false;
            if self.level[l.var()] > back {
                back = self.level[l.var()];
                learnt.swap(1, k);
            }
        }
        self.learnt = learnt;
        back
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] != NIL {
            self.heap_up(self.heap_pos[v] as usize);
        }
    }

    /// Unassigns everything above `level`, saving phases.
    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize] as usize;
        for i in (keep..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.vals[lit.index()] = UNDEF;
            self.vals[(!lit).index()] = UNDEF;
            self.phase[v] = lit.0 & 1 == 0;
            if self.decision[v] && self.heap_pos[v] == NIL {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = keep;
    }

    /// The next decision: the unassigned decision variable of highest
    /// activity, at its saved phase.
    fn pick(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            let lit = Lit::new(v, self.phase[v as usize]);
            if self.val(lit) == UNDEF {
                return Some(lit);
            }
        }
        None
    }

    /// Solves the clauses added since [`Solver::clear`], giving up after
    /// `budget` conflicts. Deterministic: the same clauses in the same
    /// order give the same verdict and conflict count.
    fn solve(&mut self, budget: u64) -> Verdict {
        if !self.ok {
            return Verdict::Unsat;
        }
        let mut restart = 1u64;
        let mut until_restart = luby(restart) * RESTART_UNIT;
        loop {
            let confl = self.propagate();
            if confl != NIL {
                self.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Verdict::Unsat;
                }
                let back = self.analyze(confl);
                self.cancel_until(back);
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NIL);
                } else {
                    let c = self.push_clause(&learnt);
                    self.enqueue(learnt[0], c);
                }
                self.learnt = learnt;
                self.var_inc /= VAR_DECAY;
                if self.conflicts >= budget {
                    self.cancel_until(0);
                    return Verdict::Unknown;
                }
                until_restart -= 1;
                if until_restart == 0 {
                    restart += 1;
                    until_restart = luby(restart) * RESTART_UNIT;
                    self.cancel_until(0);
                }
            } else {
                let Some(lit) = self.pick() else {
                    return Verdict::Sat;
                };
                self.trail_lim.push(self.trail.len() as u32);
                self.enqueue(lit, NIL);
            }
        }
    }

    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.before(v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.heap_pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap_or(top);
        self.heap_pos[top as usize] = NIL;
        if !self.heap.is_empty() {
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut best = last;
                let mut at = i;
                if l < self.heap.len() && self.before(self.heap[l], best) {
                    best = self.heap[l];
                    at = l;
                }
                if r < self.heap.len() && self.before(self.heap[r], best) {
                    at = r;
                }
                if at == i {
                    break;
                }
                self.heap[i] = self.heap[at];
                self.heap_pos[self.heap[i] as usize] = i as u32;
                i = at;
            }
            self.heap[i] = last;
            self.heap_pos[last as usize] = i as u32;
        }
        Some(top)
    }
}

/// The Luby sequence 1, 1, 2, 1, 1, 2, 4, ... at 1-based position `i`.
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if i == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Operand position of a clause template's output literal.
const OUT: u8 = 1 << 4;

/// Marks an operand reference as the `i`-th instruction of the same chain
/// (a scratch temporary) rather than a cell.
const TEMP: u32 = 1 << 31;

/// One instruction of a cell's chain, for the faulty copy.
#[derive(Clone, Copy, Debug)]
struct TableInst {
    /// Index of the instruction's clause template.
    template: u32,
    nops: u8,
    /// Two operands read the same slot, so a clause may repeat a literal.
    repeats: bool,
    /// Cell ids, or `TEMP | i` for the value of the chain's `i`-th
    /// instruction.
    operands: [u32; 4],
}

/// The clause form of a view's [`Program`], built once per view
/// ([`TestView::sat_tables`]).
///
/// * **Good machine.** The clauses of every cell's chain over fixed
///   variables: cell `c` is variable `c + 1` ([`good_lit`]), and every
///   scratch temporary has its own variable after the cells. They are laid
///   out per cell in the solver's arena form, so a call copies a region
///   cell's clauses as one slice.
/// * **Templates.** Per distinct truth table, the prime-implicant clauses
///   of the function and of its complement as `(care, negated)` masks over
///   operand positions `0..k` and [`OUT`]; per instruction, its template
///   and operands. The faulty copy is encoded from these, per call.
#[derive(Clone, Debug)]
pub(crate) struct SatTables {
    /// Variables of the good machine, constant true included.
    vars: usize,
    /// Cell `c`'s clauses of two or more literals are
    /// `slab[slab_off[c]..slab_off[c + 1]]`.
    slab_off: Vec<u32>,
    slab: Vec<u32>,
    /// Per cell: the unit clause of a constant cell, [`Lit::UNSET`] else.
    unit: Vec<Lit>,
    inst_off: Vec<u32>,
    insts: Vec<TableInst>,
    /// Distinct `(nops, table)` pairs, in first-seen order.
    keys: Vec<(u8, u16)>,
    tmpl_off: Vec<u32>,
    clauses: Vec<(u8, u8)>,
}

/// The good-machine literal of `cell` in every call's numbering.
fn good_lit(cell: u32) -> Lit {
    Lit::new(cell + 1, true)
}

impl SatTables {
    pub(crate) fn build(program: &Program) -> SatTables {
        let n_cells = program.cell_words() as u32;
        let mut tables = SatTables {
            vars: n_cells as usize + 1,
            slab_off: Vec::with_capacity(n_cells as usize + 1),
            slab: Vec::new(),
            unit: vec![Lit::UNSET; n_cells as usize],
            inst_off: Vec::with_capacity(n_cells as usize + 1),
            insts: Vec::new(),
            keys: Vec::new(),
            tmpl_off: vec![0],
            clauses: Vec::new(),
        };
        // Per scratch register: the chain instruction that last wrote it.
        let mut writer = vec![0u32; program.scratch_words()];
        let mut temps: Vec<Lit> = Vec::new();
        let mut clause: Vec<Lit> = Vec::new();
        for cell in 0..n_cells {
            tables.slab_off.push(tables.slab.len() as u32);
            tables.inst_off.push(tables.insts.len() as u32);
            temps.clear();
            for (i, inst) in program.chain_tables(cell).enumerate() {
                let key = (inst.nops as u8, inst.table);
                let template = match tables.keys.iter().position(|&k| k == key) {
                    Some(t) => t as u32,
                    None => {
                        tables.keys.push(key);
                        prime_clauses(inst.nops, inst.table, &mut tables.clauses);
                        tables.tmpl_off.push(tables.clauses.len() as u32);
                        tables.keys.len() as u32 - 1
                    }
                };
                let mut operands = [0u32; 4];
                for (k, &slot) in inst.operands[..inst.nops].iter().enumerate() {
                    operands[k] = if slot < n_cells {
                        slot
                    } else {
                        TEMP | writer[(slot - n_cells) as usize]
                    };
                }
                let out = if inst.dst < n_cells {
                    good_lit(cell)
                } else {
                    writer[(inst.dst - n_cells) as usize] = i as u32;
                    tables.vars += 1;
                    Lit::new(tables.vars as u32 - 1, true)
                };
                temps.push(out);
                let ops = &operands[..inst.nops];
                let inst = TableInst {
                    template,
                    nops: inst.nops as u8,
                    repeats: (1..ops.len()).any(|k| ops[..k].contains(&ops[k])),
                    operands,
                };
                let lits = inst_lits(&inst, |k| match inst.operands[k] {
                    r if r & TEMP != 0 => temps[(r & !TEMP) as usize],
                    r => good_lit(r),
                });
                let range = tables.tmpl_off[template as usize] as usize
                    ..tables.tmpl_off[template as usize + 1] as usize;
                for t in range {
                    let (care, neg) = tables.clauses[t];
                    clause_lits(lits, inst.nops, out, care, neg, &mut clause);
                    if normalize(&mut clause) {
                        continue;
                    }
                    match clause.len() {
                        1 => tables.unit[cell as usize] = clause[0],
                        len => {
                            tables.slab.extend([len as u32, NIL, NIL]);
                            tables.slab.extend(clause.iter().map(|l| l.0));
                        }
                    }
                }
                tables.insts.push(inst);
            }
        }
        tables.slab_off.push(tables.slab.len() as u32);
        tables.inst_off.push(tables.insts.len() as u32);
        tables
    }

    fn good_clauses(&self, cell: u32) -> &[u32] {
        &self.slab[self.slab_off[cell as usize] as usize..self.slab_off[cell as usize + 1] as usize]
    }

    fn chain(&self, cell: u32) -> &[TableInst] {
        &self.insts
            [self.inst_off[cell as usize] as usize..self.inst_off[cell as usize + 1] as usize]
    }

    fn template(&self, t: u32) -> &[(u8, u8)] {
        &self.clauses[self.tmpl_off[t as usize] as usize..self.tmpl_off[t as usize + 1] as usize]
    }
}

/// An instruction's operand literals, operand `k` read through `lit`.
fn inst_lits(inst: &TableInst, lit: impl Fn(usize) -> Lit) -> [Lit; 4] {
    let mut ops = [Lit::UNSET; 4];
    for (k, op) in ops[..inst.nops as usize].iter_mut().enumerate() {
        *op = lit(k);
    }
    ops
}

/// The template clause `(care, neg)` over operand literals `ops` and the
/// output `out`, into `clause`.
fn clause_lits(ops: [Lit; 4], nops: u8, out: Lit, care: u8, neg: u8, clause: &mut Vec<Lit>) {
    clause.clear();
    for (k, &op) in ops[..nops as usize].iter().enumerate() {
        if care >> k & 1 == 1 {
            clause.push(op.xor(neg >> k & 1 == 1));
        }
    }
    clause.push(out.xor(neg & OUT != 0));
}

/// Sorts `clause` and merges repeated literals; true if it is a tautology.
fn normalize(clause: &mut Vec<Lit>) -> bool {
    clause.sort_unstable();
    clause.dedup();
    clause.windows(2).any(|w| w[1] == !w[0])
}

/// Appends the clauses of `out ↔ f(x)` for the `nops`-input function with
/// truth table `table`: `¬p ∨ out` for each prime implicant `p` of `f` and
/// `¬q ∨ ¬out` for each prime implicant `q` of `¬f`.
fn prime_clauses(nops: usize, table: u16, out: &mut Vec<(u8, u8)>) {
    let rows = 1usize << nops;
    for value in [true, false] {
        let on = |r: usize| (table >> r & 1 == 1) == value;
        // The cube fixing the operands in `care` to the bits of `bits`.
        let implicant = |care: usize, bits: usize| (0..rows).filter(|r| r & care == bits).all(on);
        for care in 0..rows {
            for bits in (0..rows).filter(|&b| b & !care == 0) {
                let prime = implicant(care, bits)
                    && (0..nops)
                        .filter(|i| care >> i & 1 == 1)
                        .all(|i| !implicant(care & !(1 << i), bits & !(1 << i)));
                if prime {
                    // The clause negates the cube: operand `i` appears
                    // negated where the cube has it true.
                    out.push((care as u8 | OUT, bits as u8 | if value { 0 } else { OUT }));
                }
            }
        }
    }
}

/// The encoder and solver of one SAT check, with every buffer kept from
/// one call to the next.
#[derive(Debug, Default)]
pub(crate) struct SatCheck {
    solver: Solver,
    /// Per cell: faulty-machine, `D` and path literals, [`Lit::UNSET`]
    /// outside the current call's cone.
    faulty: Vec<Lit>,
    diff: Vec<Lit>,
    path: Vec<Lit>,
    temps: Vec<Lit>,
    clause: Vec<Lit>,
}

/// Where a search's fault sits, as the encoder needs it.
#[derive(Clone, Copy)]
enum Site {
    None,
    Stem {
        cell: u32,
        stuck: bool,
    },
    Branch {
        gate: u32,
        inst: usize,
        operand: usize,
        stuck: bool,
    },
}

impl SatCheck {
    /// Whether a cube can exist for the search with this fault (or none,
    /// for a justification), goals, region and cone: [`Verdict::Unsat`]
    /// proves it cannot. `region` is the search's bitset over
    /// [`CompiledCircuit::order`] positions; `cone` lists the site and every
    /// evaluable cell downstream of it, and `observed` the cone cells an
    /// observation point reads. Also returns the call's conflicts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check(
        &mut self,
        view: &TestView<'_>,
        fault: Option<&Fault>,
        goals: &[(CellId, bool)],
        region: &[u64],
        cone: &[u32],
        observed: &[u32],
        budget: u64,
    ) -> (Verdict, u64) {
        self.encode(view, fault, goals, region, cone, observed);
        let verdict = self.solver.solve(budget);
        for &c in cone {
            self.faulty[c as usize] = Lit::UNSET;
            self.diff[c as usize] = Lit::UNSET;
            self.path[c as usize] = Lit::UNSET;
        }
        (verdict, self.solver.conflicts())
    }

    /// Loads the search's clauses into the solver.
    fn encode(
        &mut self,
        view: &TestView<'_>,
        fault: Option<&Fault>,
        goals: &[(CellId, bool)],
        region: &[u64],
        cone: &[u32],
        observed: &[u32],
    ) {
        let compiled = view.compiled();
        let n = compiled.cell_count();
        if self.faulty.len() < n {
            for table in [&mut self.faulty, &mut self.diff, &mut self.path] {
                table.resize(n, Lit::UNSET);
            }
        }
        let tables = view.sat_tables();
        self.solver.clear(tables.vars);
        let site = match fault {
            None => Site::None,
            Some(f) => match f.site {
                FaultSite::Stem(cell) => Site::Stem {
                    cell: cell.index() as u32,
                    stuck: f.stuck.as_bool(),
                },
                FaultSite::Branch { gate, .. } if compiled.level_of(gate.index() as u32) == 0 => {
                    // A branch into a flip-flop's D pin never reaches the
                    // frame's logic: nothing can detect it.
                    self.solver.add_clause(&[]);
                    return;
                }
                FaultSite::Branch { gate, pin } => {
                    let gate = gate.index() as u32;
                    let (inst, operand) = view.program().pin_slot(gate, pin);
                    Site::Branch {
                        gate,
                        inst,
                        operand,
                        stuck: f.stuck.as_bool(),
                    }
                }
            },
        };
        // The cone copy: every cone cell but the output markers, which
        // nothing reads. A placeholder marks the cells still to encode.
        for &c in cone {
            if compiled.kind(c) != CellKind::Output {
                self.faulty[c as usize] = Lit::TRUE;
            }
        }
        if let Site::Stem { cell, stuck } = site {
            if compiled.level_of(cell) == 0 {
                // An assignable stem: its good value is a source variable.
                self.solver.set_decision(cell + 1);
                self.define_diff(cell, Lit::constant(stuck));
            }
        }
        let order = compiled.order();
        for (w, &word) in region.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let id = order[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                self.solver.push_slab(tables.good_clauses(id));
                if tables.unit[id as usize] != Lit::UNSET {
                    self.solver.add_clause(&[tables.unit[id as usize]]);
                }
                for &f in compiled.fanin(id) {
                    if compiled.level_of(f) == 0 {
                        self.solver.set_decision(f + 1);
                    }
                }
                if self.faulty[id as usize] == Lit::UNSET {
                    continue;
                }
                let f = match site {
                    Site::Stem { cell, stuck } if cell == id => Lit::constant(stuck),
                    Site::Branch {
                        gate,
                        inst,
                        operand,
                        stuck,
                    } if gate == id => {
                        self.encode_faulty(tables, id, Some((inst, operand, Lit::constant(stuck))))
                    }
                    _ => self.encode_faulty(tables, id, None),
                };
                self.define_diff(id, f);
            }
        }
        if let Some(f) = fault {
            self.encode_detection(compiled, view, f, site, cone, observed);
        }
        for &(cell, value) in goals {
            let cell = cell.index() as u32;
            if compiled.level_of(cell) == 0 {
                self.solver.set_decision(cell + 1);
            }
            self.solver.add_clause(&[good_lit(cell).xor(!value)]);
        }
    }

    /// `diff(cell) ↔ good ⊕ faulty`, and the cell's faulty literal.
    fn define_diff(&mut self, cell: u32, faulty: Lit) {
        let good = good_lit(cell);
        self.faulty[cell as usize] = faulty;
        let d = Lit::new(self.solver.new_var(false), true);
        self.diff[cell as usize] = d;
        for (a, b, c) in [
            (!d, good, faulty),
            (!d, !good, !faulty),
            (d, !good, faulty),
            (d, good, !faulty),
        ] {
            self.solver.add_clause(&[a, b, c]);
        }
    }

    /// Encodes `cell`'s chain in the faulty machine, which reads faulty
    /// literals inside the cone and good ones outside it, with the
    /// `(instruction, operand)` of `pinned` read as its literal. Returns the
    /// literal of the cell's faulty value.
    fn encode_faulty(
        &mut self,
        tables: &SatTables,
        cell: u32,
        pinned: Option<(usize, usize, Lit)>,
    ) -> Lit {
        let mut temps = std::mem::take(&mut self.temps);
        let mut clause = std::mem::take(&mut self.clause);
        temps.clear();
        for (i, inst) in tables.chain(cell).iter().enumerate() {
            let ops = inst_lits(inst, |k| match (pinned, inst.operands[k]) {
                (Some((pi, pk, lit)), _) if pi == i && pk == k => lit,
                (_, r) if r & TEMP != 0 => temps[(r & !TEMP) as usize],
                (_, r) if self.faulty[r as usize] != Lit::UNSET => self.faulty[r as usize],
                (_, r) => good_lit(r),
            });
            let out = Lit::new(self.solver.new_var(false), true);
            temps.push(out);
            // Distinct unfixed variables need no simplification: the
            // clause goes straight into the arena.
            let plain = !inst.repeats && ops[..inst.nops as usize].iter().all(|o| o.var() != 0);
            for &(care, neg) in tables.template(inst.template) {
                clause_lits(ops, inst.nops, out, care, neg, &mut clause);
                if plain && clause.len() > 1 {
                    self.solver.push_clause(&clause);
                } else {
                    self.solver.add_clause(&clause);
                }
            }
        }
        let out = *temps.last().unwrap_or(&Lit::UNSET);
        self.temps = temps;
        self.clause = clause;
        out
    }

    /// Path variables, the detection clause and the activation unit.
    fn encode_detection(
        &mut self,
        compiled: &CompiledCircuit,
        view: &TestView<'_>,
        fault: &Fault,
        site: Site,
        cone: &[u32],
        observed: &[u32],
    ) {
        let copied = |c: u32| compiled.kind(c) != CellKind::Output;
        for &c in cone.iter().filter(|&&c| copied(c)) {
            let p = Lit::new(self.solver.new_var(true), true);
            self.path[c as usize] = p;
            self.solver.add_clause(&[!p, self.diff[c as usize]]);
        }
        let flags = view.observed_drivers();
        let mut clause = std::mem::take(&mut self.clause);
        for &c in cone.iter().filter(|&&c| copied(c)) {
            let readers = compiled.readers(c);
            if flags[c as usize]
                || readers
                    .iter()
                    .any(|&r| !copied(r) || compiled.kind(r).is_flip_flop())
            {
                continue;
            }
            clause.clear();
            clause.push(!self.path[c as usize]);
            clause.extend(readers.iter().map(|&r| self.path[r as usize]));
            self.solver.add_clause(&clause);
        }
        let entry = match site {
            Site::Stem { cell, .. } => cell,
            Site::Branch { gate, .. } => gate,
            Site::None => unreachable!("a fault has a site"),
        };
        match self.path[entry as usize] {
            // A fault on an output marker reaches no observed cell.
            Lit::UNSET => self.solver.add_clause(&[]),
            p => self.solver.add_clause(&[p]),
        }
        clause.clear();
        clause.extend(observed.iter().map(|&c| self.diff[c as usize]));
        self.solver.add_clause(&clause);
        self.clause = clause;
        let driver = fault.driver(view.netlist()).index() as u32;
        self.solver
            .add_clause(&[good_lit(driver).xor(fault.stuck.as_bool())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StuckValue;
    use flh_core::{apply_style, DftStyle};
    use flh_netlist::{generate_circuit, iscas89_profiles, Netlist};
    use flh_rng::Rng;

    /// Clears `solver` for variables `1..=n`, all decisions, and adds
    /// `clauses`.
    fn load(solver: &mut Solver, n: u32, clauses: &[Vec<Lit>]) {
        solver.clear(n as usize + 1);
        for v in 1..=n {
            solver.set_decision(v);
        }
        for c in clauses {
            solver.add_clause(c);
        }
    }

    fn holds(lit: Lit, value: bool) -> bool {
        value == (lit.0 & 1 == 0)
    }

    #[test]
    fn random_cnfs_agree_with_brute_force() {
        let mut rng = Rng::seed_from_u64(17);
        let mut solver = Solver::default();
        let (mut sat, mut unsat) = (0, 0);
        for round in 0..600 {
            let n = rng.gen_range(1u32..17);
            let m = rng.gen_range(n as usize..5 * n as usize + 1);
            let clauses: Vec<Vec<Lit>> = (0..m)
                .map(|_| {
                    (0..rng.gen_range(1usize..5))
                        .map(|_| Lit::new(rng.gen_range(1..n + 1), rng.gen()))
                        .collect()
                })
                .collect();
            let brute = (0u32..1 << n).any(|bits| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&l| holds(l, bits >> (l.var() - 1) & 1 == 1)))
            });
            load(&mut solver, n, &clauses);
            let verdict = solver.solve(u64::MAX);
            assert_eq!(verdict == Verdict::Sat, brute, "round {round}: {clauses:?}");
            assert_ne!(verdict, Verdict::Unknown);
            if brute {
                sat += 1;
                for c in &clauses {
                    let model = |l: Lit| solver.value(l.var() as u32).is_some_and(|v| holds(l, v));
                    assert!(
                        c.iter().any(|&l| model(l)),
                        "round {round}: model fails {c:?}"
                    );
                }
            } else {
                unsat += 1;
            }
        }
        assert!(sat >= 100 && unsat >= 100, "{sat} satisfiable, {unsat} not");
    }

    /// `pigeons` pigeons in `pigeons - 1` holes: variable `p * holes + h + 1`
    /// puts pigeon `p` in hole `h`.
    fn pigeonhole(pigeons: u32) -> (u32, Vec<Vec<Lit>>) {
        let holes = pigeons - 1;
        let var = |p: u32, h: u32| p * holes + h + 1;
        let mut clauses: Vec<Vec<Lit>> = (0..pigeons)
            .map(|p| (0..holes).map(|h| Lit::new(var(p, h), true)).collect())
            .collect();
        for h in 0..holes {
            for p in 0..pigeons {
                for q in p + 1..pigeons {
                    clauses.push(vec![Lit::new(var(p, h), false), Lit::new(var(q, h), false)]);
                }
            }
        }
        (pigeons * holes, clauses)
    }

    #[test]
    fn pigeonhole_is_unsat_and_a_spent_budget_is_unknown() {
        let (n, clauses) = pigeonhole(6);
        let mut solver = Solver::default();
        load(&mut solver, n, &clauses);
        assert_eq!(solver.solve(u64::MAX), Verdict::Unsat);
        let needed = solver.conflicts();
        assert!(needed > 10, "{needed} conflicts");
        load(&mut solver, n, &clauses);
        assert_eq!(solver.solve(needed / 2), Verdict::Unknown);
        assert_eq!(solver.conflicts(), needed / 2);
    }

    #[test]
    fn the_same_call_gives_the_same_verdict_and_conflicts() {
        let mut rng = Rng::seed_from_u64(23);
        let (n, mut clauses) = pigeonhole(5);
        // Satisfiable variants too: drop one random clause at a time.
        for round in 0..20 {
            let mut runs = Vec::new();
            for _ in 0..2 {
                let mut solver = Solver::default();
                load(&mut solver, n, &clauses);
                let verdict = solver.solve(u64::MAX);
                let model: Vec<Option<bool>> = (1..=n).map(|v| solver.value(v)).collect();
                runs.push((verdict, solver.conflicts(), model));
            }
            assert_eq!(runs[0], runs[1], "round {round}");
            let k = rng.gen_range(0..clauses.len());
            clauses.swap_remove(k);
        }
    }

    /// Every order position of `view`'s circuit: the region of a search
    /// that reads the whole circuit.
    fn whole(view: &TestView<'_>) -> Vec<u64> {
        let len = view.compiled().order().len();
        (0..len.div_ceil(64))
            .map(|w| match len - 64 * w {
                left if left >= 64 => u64::MAX,
                left => (1u64 << left) - 1,
            })
            .collect()
    }

    /// With every assignable fixed by a unit clause, each cell's variable
    /// equals the program's evaluation, with no decision on anything else
    /// and no conflict.
    #[test]
    fn good_machine_equals_the_program_on_every_profile_and_style() {
        let mut rng = Rng::seed_from_u64(5);
        let mut check = SatCheck::default();
        for profile in iscas89_profiles() {
            let base = generate_circuit(&profile.generator_config()).unwrap();
            for style in [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh] {
                let netlist = apply_style(&base, style).unwrap().netlist;
                let view = TestView::new(&netlist).unwrap();
                let program = view.program();
                for _ in 0..2 {
                    let bits: Vec<bool> = view.assignable().iter().map(|_| rng.gen()).collect();
                    let goals: Vec<(CellId, bool)> = view
                        .assignable()
                        .iter()
                        .copied()
                        .zip(bits.iter().copied())
                        .collect();
                    check.encode(&view, None, &goals, &whole(&view), &[], &[]);
                    assert_eq!(check.solver.solve(1), Verdict::Sat);
                    assert_eq!(check.solver.conflicts(), 0);
                    let mut values = vec![0u64; program.cell_words()];
                    for (&cell, &b) in view.assignable().iter().zip(&bits) {
                        values[cell.index()] = u64::from(b);
                    }
                    let mut scratch = vec![0u64; program.scratch_words()];
                    program.execute(&mut values, &mut scratch);
                    for (id, &v) in values.iter().enumerate() {
                        assert_eq!(
                            check.solver.value(id as u32 + 1),
                            Some(v & 1 == 1),
                            "{} {style:?}: cell {id}",
                            profile.name
                        );
                    }
                }
            }
        }
    }

    /// The activation unit fixes the faulted line at the root where
    /// propagation from the detection side cannot: a branch into an XOR,
    /// whose faulty output is the other input either way.
    #[test]
    fn activation_is_fixed_at_the_root() {
        let mut n = Netlist::new("xor_branch");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::Xor2, vec![a, b]);
        let h = n.add_cell("h", CellKind::Buf, vec![a]);
        n.add_output("y", g);
        n.add_output("z", h);
        let view = TestView::new(&n).unwrap();
        let compiled = view.compiled();
        let gate = g.index() as u32;
        let mut cone: Vec<u32> = vec![gate];
        cone.extend(compiled.readers(gate));
        cone.sort_unstable();
        let mut check = SatCheck::default();
        for stuck in [StuckValue::Zero, StuckValue::One] {
            let fault = Fault::branch(g, 0, stuck);
            check.encode(&view, Some(&fault), &[], &whole(&view), &cone, &[gate]);
            assert_eq!(check.solver.propagate(), NIL);
            assert_eq!(
                check.solver.value(a.index() as u32 + 1),
                Some(!stuck.as_bool()),
                "{fault:?}"
            );
            assert_eq!(check.solver.value(b.index() as u32 + 1), None);
            for &c in &cone {
                check.faulty[c as usize] = Lit::UNSET;
                check.diff[c as usize] = Lit::UNSET;
                check.path[c as usize] = Lit::UNSET;
            }
        }
    }
}
