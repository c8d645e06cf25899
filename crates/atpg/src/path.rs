//! Path-delay fault model: structural path enumeration, non-robust
//! two-pattern test generation and verification.
//!
//! The paper (Section IV) notes that under FLH "the conventional stuck-at
//! fault model, transition and path delay fault models remain valid". A
//! path-delay fault says the *cumulative* delay along one specific
//! combinational path exceeds the clock; testing it needs a transition
//! launched at the path input and every off-path (side) input of every
//! on-path gate held at its non-controlling value under V2 (the
//! *non-robust* sensitization criterion). Arbitrary two-pattern
//! application — enhanced scan or FLH — is exactly what makes these V1/V2
//! pairs realizable.

use flh_netlist::{analysis, CellId, CellKind, Netlist};
use flh_rng::Rng;

use crate::podem::{Podem, PodemConfig};
use crate::transition::TransitionPattern;
use crate::tview::TestView;

/// A structural combinational path: a source (primary input or flip-flop
/// output) followed by the on-path gates, in order. The last cell drives an
/// observation point (primary output or flip-flop D).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructuralPath {
    cells: Vec<CellId>,
}

impl StructuralPath {
    /// Builds a path from an explicit cell sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is shorter than two cells or consecutive
    /// cells are not connected.
    pub fn new(netlist: &Netlist, cells: Vec<CellId>) -> Self {
        assert!(cells.len() >= 2, "a path needs a source and a gate");
        for w in cells.windows(2) {
            assert!(
                netlist.cell(w[1]).fanin().contains(&w[0]),
                "{} does not feed {}",
                netlist.cell(w[0]).name(),
                netlist.cell(w[1]).name()
            );
        }
        StructuralPath { cells }
    }

    /// Source cell (primary input or flip-flop).
    pub fn source(&self) -> CellId {
        self.cells[0]
    }

    /// On-path cells including the source.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of gates on the path (excluding the source).
    pub fn length(&self) -> usize {
        self.cells.len() - 1
    }

    /// Whether the path inverts (odd number of inverting gates).
    pub fn inverts(&self, netlist: &Netlist) -> bool {
        self.cells[1..]
            .iter()
            .filter(|&&c| netlist.cell(c).kind().inverts())
            .count()
            % 2
            == 1
    }
}

/// A path-delay fault: a path plus the launch polarity at its source.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathDelayFault {
    /// The path under test.
    pub path: StructuralPath,
    /// `true` = rising launch at the source (V1: 0 → V2: 1).
    pub rising_launch: bool,
}

/// Enumerates, for every observation endpoint, the structurally longest
/// path feeding it (ties broken deterministically), and returns the `k`
/// longest overall — the classic critical-path set for path-delay testing.
pub fn longest_paths(netlist: &Netlist, k: usize) -> Vec<StructuralPath> {
    let lv = match analysis::Levelization::compute(netlist) {
        Ok(lv) => lv,
        Err(_) => return Vec::new(),
    };
    let mut paths = Vec::new();
    let endpoints: Vec<CellId> = netlist
        .outputs()
        .iter()
        .chain(netlist.flip_flops())
        .map(|&o| netlist.cell(o).fanin()[0])
        .collect();
    // det-ok: membership test only; endpoint order drives iteration.
    let mut seen = std::collections::HashSet::new();
    for tail in endpoints {
        if !netlist.cell(tail).kind().is_combinational() || !seen.insert(tail) {
            continue;
        }
        // Walk back through the deepest fanin until a source.
        let mut cells = vec![tail];
        let mut cursor = tail;
        loop {
            let cell = netlist.cell(cursor);
            let kind = cell.kind();
            if !kind.is_combinational() || cell.fanin().is_empty() {
                break;
            }
            let &deepest = cell
                .fanin()
                .iter()
                .max_by_key(|&&f| (lv.level(f), std::cmp::Reverse(f)))
                .expect("nonempty fanin");
            cells.push(deepest);
            cursor = deepest;
            let ck = netlist.cell(cursor).kind();
            if ck == CellKind::Input || ck.is_flip_flop() {
                break;
            }
        }
        cells.reverse();
        // Drop paths that do not start at a launchable source.
        let src_kind = netlist.cell(cells[0]).kind();
        if cells.len() >= 2 && (src_kind == CellKind::Input || src_kind.is_flip_flop()) {
            paths.push(StructuralPath::new(netlist, cells));
        }
    }
    paths.sort_by_key(|p| std::cmp::Reverse(p.length()));
    paths.truncate(k);
    paths
}

/// Off-path side-input constraint *alternatives* for non-robust
/// sensitization of `gate` when the path enters through `on_pin`. Each
/// inner vector is one sufficient constraint set (disjunctive choices on
/// AOI/OAI gates yield several). Returns `None` when the gate cannot be
/// sensitized with single-value constraints (MUX select on-path).
///
/// XOR-family side inputs carry *no* constraint: an XOR output depends on
/// every input unconditionally, so a transition propagates regardless of
/// the side value — the non-robust criterion is free there.
#[allow(clippy::type_complexity)]
fn side_constraints(
    netlist: &Netlist,
    gate: CellId,
    on_pin: usize,
) -> Option<Vec<Vec<(CellId, bool)>>> {
    use CellKind::*;
    let cell = netlist.cell(gate);
    let kind = cell.kind();
    let pin_cell = |p: usize| cell.fanin()[p];
    let others = || -> Vec<usize> { (0..cell.fanin().len()).filter(|&p| p != on_pin).collect() };
    let all_at = |v: bool| -> Vec<Vec<(CellId, bool)>> {
        vec![others().into_iter().map(|p| (pin_cell(p), v)).collect()]
    };
    let one = |cs: Vec<(CellId, bool)>| -> Vec<Vec<(CellId, bool)>> { vec![cs] };
    match kind {
        Inv | Buf | HoldLatch | HoldMux | Output | Dff | ScanDff => Some(vec![Vec::new()]),
        And2 | And3 | And4 | Nand2 | Nand3 | Nand4 | AndN(_) | NandN(_) => Some(all_at(true)),
        Or2 | Or3 | Or4 | Nor2 | Nor3 | Nor4 | OrN(_) | NorN(_) => Some(all_at(false)),
        Xor2 | Xnor2 | XorN(_) => Some(vec![Vec::new()]),
        Aoi21 => Some(match on_pin {
            0 => one(vec![(pin_cell(1), true), (pin_cell(2), false)]),
            1 => one(vec![(pin_cell(0), true), (pin_cell(2), false)]),
            // Kill the AND term through either of its inputs.
            _ => vec![vec![(pin_cell(0), false)], vec![(pin_cell(1), false)]],
        }),
        Oai21 => Some(match on_pin {
            0 => one(vec![(pin_cell(1), false), (pin_cell(2), true)]),
            1 => one(vec![(pin_cell(0), false), (pin_cell(2), true)]),
            _ => vec![vec![(pin_cell(0), true)], vec![(pin_cell(1), true)]],
        }),
        Aoi22 => Some(match on_pin {
            0 => vec![
                vec![(pin_cell(1), true), (pin_cell(2), false)],
                vec![(pin_cell(1), true), (pin_cell(3), false)],
            ],
            1 => vec![
                vec![(pin_cell(0), true), (pin_cell(2), false)],
                vec![(pin_cell(0), true), (pin_cell(3), false)],
            ],
            2 => vec![
                vec![(pin_cell(3), true), (pin_cell(0), false)],
                vec![(pin_cell(3), true), (pin_cell(1), false)],
            ],
            _ => vec![
                vec![(pin_cell(2), true), (pin_cell(0), false)],
                vec![(pin_cell(2), true), (pin_cell(1), false)],
            ],
        }),
        Oai22 => Some(match on_pin {
            0 => vec![
                vec![(pin_cell(1), false), (pin_cell(2), true)],
                vec![(pin_cell(1), false), (pin_cell(3), true)],
            ],
            1 => vec![
                vec![(pin_cell(0), false), (pin_cell(2), true)],
                vec![(pin_cell(0), false), (pin_cell(3), true)],
            ],
            2 => vec![
                vec![(pin_cell(3), false), (pin_cell(0), true)],
                vec![(pin_cell(3), false), (pin_cell(1), true)],
            ],
            _ => vec![
                vec![(pin_cell(2), false), (pin_cell(0), true)],
                vec![(pin_cell(2), false), (pin_cell(1), true)],
            ],
        }),
        Mux2 => match on_pin {
            0 => Some(one(vec![(pin_cell(2), false)])),
            1 => Some(one(vec![(pin_cell(2), true)])),
            _ => None, // select on-path: needs a != b, not expressible here
        },
        Input | Const0 | Const1 => Some(vec![Vec::new()]),
    }
}

/// Result of non-robust path-delay test generation for one fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathTestOutcome {
    /// A (V1, V2) pair sensitizing the path non-robustly.
    Tested(TransitionPattern),
    /// The sensitization constraints are unsatisfiable or the search
    /// aborted.
    Untested,
    /// The path contains a gate whose side constraints cannot be expressed
    /// (e.g. an on-path MUX select).
    Unsupported,
}

/// Generates a non-robust two-pattern test for a path-delay fault:
/// V2 satisfies every side-input constraint and sets the source to the
/// launch's final value; V1 justifies the initial value.
pub fn generate_path_test(
    view: &TestView<'_>,
    fault: &PathDelayFault,
    config: &PodemConfig,
    seed: u64,
) -> PathTestOutcome {
    let netlist = view.netlist();
    let path = &fault.path;
    // Collect the per-gate constraint alternatives.
    let mut per_gate: Vec<Vec<Vec<(CellId, bool)>>> = Vec::new();
    for w in path.cells().windows(2) {
        let gate = w[1];
        let on_pin = netlist
            .cell(gate)
            .fanin()
            .iter()
            .position(|&f| f == w[0])
            .expect("path is connected");
        match side_constraints(netlist, gate, on_pin) {
            Some(alts) => per_gate.push(alts),
            None => return PathTestOutcome::Unsupported,
        }
    }
    // Enumerate disjunctive variants (mixed-radix counter), capped.
    const MAX_VARIANTS: usize = 16;
    let variant_count: usize = per_gate
        .iter()
        .map(|alts| alts.len())
        .product::<usize>()
        .min(MAX_VARIANTS);
    let podem = Podem::new(view, config.clone());
    let Some(v1) = podem.justify(path.source(), !fault.rising_launch) else {
        return PathTestOutcome::Untested;
    };
    for variant in 0..variant_count.max(1) {
        let mut goals: Vec<(CellId, bool)> = vec![(path.source(), fault.rising_launch)];
        let mut radix = variant;
        for alts in &per_gate {
            let pick = radix % alts.len();
            radix /= alts.len();
            goals.extend(alts[pick].iter().copied());
        }
        if let Some(v2) = podem.justify_all(&goals) {
            let mut rng = Rng::seed_from_u64(seed);
            return PathTestOutcome::Tested(TransitionPattern {
                v1: v1.fill_random(&mut rng),
                v2: v2.fill_random(&mut rng),
            });
        }
    }
    PathTestOutcome::Untested
}

/// Verifies the non-robust criterion by simulation: the source transitions
/// V1→V2 and, under V2, every side input carries its non-controlling value
/// (so the path output's timing depends on the path under test).
pub fn verify_non_robust(
    view: &TestView<'_>,
    fault: &PathDelayFault,
    pattern: &TransitionPattern,
) -> bool {
    let netlist = view.netlist();
    let words =
        |bits: &[bool]| -> Vec<u64> { bits.iter().map(|&b| if b { !0 } else { 0 }).collect() };
    let good1 = view.eval64(&words(&pattern.v1), None);
    let good2 = view.eval64(&words(&pattern.v2), None);
    let src = fault.path.source();
    let launched = good1[src.index()] & 1 != good2[src.index()] & 1
        && (good2[src.index()] & 1 == 1) == fault.rising_launch;
    if !launched {
        return false;
    }
    for w in fault.path.cells().windows(2) {
        let gate = w[1];
        let on_pin = netlist
            .cell(gate)
            .fanin()
            .iter()
            .position(|&f| f == w[0])
            .expect("connected");
        let Some(alternatives) = side_constraints(netlist, gate, on_pin) else {
            return false;
        };
        // At least one sufficient constraint set must hold under V2.
        let sensitized = alternatives.iter().any(|cs| {
            cs.iter()
                .all(|&(cell, want)| (good2[cell.index()] & 1 == 1) == want)
        });
        if !sensitized {
            return false;
        }
    }
    true
}

/// Grows the longest *sensitizable* path from `source` with the given
/// launch polarity: a depth-first search that extends the path gate by
/// gate, keeping the accumulated non-robust constraint set satisfiable at
/// every step (checked with multi-objective PODEM justification). Returns
/// the deepest completed path reaching an observation point, with a
/// verified test pattern.
///
/// This is the practical complement to [`longest_paths`]: the structurally
/// longest paths of a circuit are frequently *false* (unsensitizable), and
/// the delay that matters for test is the longest true path.
pub fn longest_sensitizable_path(
    view: &TestView<'_>,
    source: CellId,
    rising_launch: bool,
    config: &PodemConfig,
    node_budget: usize,
) -> Option<(StructuralPath, TransitionPattern)> {
    let netlist = view.netlist();
    let podem = Podem::new(view, config.clone());
    podem.justify(source, !rising_launch)?;

    #[allow(clippy::type_complexity)]
    struct Search<'p, 'v, 'a> {
        netlist: &'p Netlist,
        podem: &'p Podem<'v, 'a>,
        compiled: &'p flh_netlist::CompiledCircuit,
        budget: usize,
        best: Option<(Vec<CellId>, Vec<(CellId, bool)>)>,
    }

    impl Search<'_, '_, '_> {
        fn observed(&self, cell: CellId) -> bool {
            self.compiled.readers(cell.index() as u32).iter().any(|&r| {
                let k = self.compiled.kind(r);
                k == CellKind::Output || k.is_flip_flop()
            })
        }

        fn dfs(&mut self, path: &mut Vec<CellId>, goals: &mut Vec<(CellId, bool)>) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let tail = *path.last().expect("nonempty path");
            // Record as a candidate if observable and deeper than the best.
            if path.len() >= 2
                && self.observed(tail)
                && self.best.as_ref().is_none_or(|(b, _)| path.len() > b.len())
            {
                self.best = Some((path.clone(), goals.clone()));
            }
            // Extend through combinational readers, deepest-first.
            let mut readers: Vec<CellId> = self
                .compiled
                .readers(tail.index() as u32)
                .iter()
                .map(|&r| CellId::from_index(r as usize))
                .filter(|&r| self.netlist.cell(r).kind().is_combinational())
                .collect();
            readers.sort();
            readers.dedup();
            for gate in readers {
                if path.contains(&gate) {
                    continue;
                }
                let on_pin = self
                    .netlist
                    .cell(gate)
                    .fanin()
                    .iter()
                    .position(|&f| f == tail)
                    .expect("reader reads tail");
                let Some(alternatives) = side_constraints(self.netlist, gate, on_pin) else {
                    continue;
                };
                for alt in alternatives {
                    let before = goals.len();
                    goals.extend(alt.iter().copied());
                    if self.podem.justify_all(goals).is_some() {
                        path.push(gate);
                        self.dfs(path, goals);
                        path.pop();
                    }
                    goals.truncate(before);
                    if self.budget == 0 {
                        return;
                    }
                }
            }
        }
    }

    let mut search = Search {
        netlist,
        podem: &podem,
        compiled: view.compiled(),
        budget: node_budget,
        best: None,
    };
    let mut path = vec![source];
    let mut goals = vec![(source, rising_launch)];
    // The source must itself be justifiable at the launch value.
    podem.justify_all(&goals)?;
    search.dfs(&mut path, &mut goals);

    let (cells, goals) = search.best?;
    let v2 = podem.justify_all(&goals)?;
    let v1 = podem.justify(source, !rising_launch)?;
    let mut rng = Rng::seed_from_u64(0x5ca1ab1e);
    let pattern = TransitionPattern {
        v1: v1.fill_random(&mut rng),
        v2: v2.fill_random(&mut rng),
    };
    let structural = StructuralPath::new(netlist, cells);
    Some((structural, pattern))
}

/// Batch summary over the `k` longest paths (both launch polarities).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathDelayReport {
    /// Faults with a verified non-robust test.
    pub tested: usize,
    /// Faults where generation failed or aborted.
    pub untested: usize,
    /// Faults on structurally unsupported paths.
    pub unsupported: usize,
}

impl PathDelayReport {
    /// Fraction of targeted path-delay faults with a verified test.
    pub fn coverage_pct(&self) -> f64 {
        let total = self.tested + self.untested + self.unsupported;
        if total == 0 {
            100.0
        } else {
            100.0 * self.tested as f64 / total as f64
        }
    }
}

/// Runs non-robust generation for both polarities of the `k` longest paths.
pub fn path_delay_atpg(
    view: &TestView<'_>,
    k: usize,
    config: &PodemConfig,
    seed: u64,
) -> PathDelayReport {
    let mut report = PathDelayReport::default();
    for path in longest_paths(view.netlist(), k) {
        for rising in [false, true] {
            let fault = PathDelayFault {
                path: path.clone(),
                rising_launch: rising,
            };
            match generate_path_test(view, &fault, config, seed) {
                PathTestOutcome::Tested(pattern) => {
                    debug_assert!(verify_non_robust(view, &fault, &pattern));
                    report.tested += 1;
                }
                PathTestOutcome::Untested => report.untested += 1,
                PathTestOutcome::Unsupported => report.unsupported += 1,
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_netlist::{generate_circuit, GeneratorConfig};

    #[test]
    fn inverter_chain_path_is_always_testable() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let g1 = n.add_cell("g1", CellKind::Inv, vec![a]);
        let g2 = n.add_cell("g2", CellKind::Inv, vec![g1]);
        let g3 = n.add_cell("g3", CellKind::Inv, vec![g2]);
        n.add_output("y", g3);
        let view = TestView::new(&n).unwrap();
        let paths = longest_paths(&n, 4);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].length(), 3);
        assert!(paths[0].inverts(&n));
        for rising in [false, true] {
            let fault = PathDelayFault {
                path: paths[0].clone(),
                rising_launch: rising,
            };
            match generate_path_test(&view, &fault, &PodemConfig::paper_default(), 3) {
                PathTestOutcome::Tested(p) => {
                    assert!(verify_non_robust(&view, &fault, &p));
                    assert_ne!(p.v1[0], p.v2[0], "source must transition");
                }
                other => panic!("chain path untestable: {other:?}"),
            }
        }
    }

    #[test]
    fn side_inputs_get_non_controlling_values() {
        // Path through a NAND2: the other input must be 1 under V2.
        let mut n = Netlist::new("nand_path");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::Nand2, vec![a, b]);
        n.add_output("y", g);
        let view = TestView::new(&n).unwrap();
        let path = StructuralPath::new(&n, vec![a, g]);
        let fault = PathDelayFault {
            path,
            rising_launch: true,
        };
        match generate_path_test(&view, &fault, &PodemConfig::paper_default(), 5) {
            PathTestOutcome::Tested(p) => {
                assert!(p.v2[1], "side input b must be 1 in V2");
                assert!(!p.v1[0] && p.v2[0]);
                assert!(verify_non_robust(&view, &fault, &p));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blocked_path_is_untested() {
        // Side input tied so the path can never sensitize.
        let mut n = Netlist::new("blocked");
        let a = n.add_input("a");
        let k = n.add_cell("k", CellKind::Const0, vec![]);
        let g = n.add_cell("g", CellKind::And2, vec![a, k]);
        n.add_output("y", g);
        let view = TestView::new(&n).unwrap();
        let fault = PathDelayFault {
            path: StructuralPath::new(&n, vec![a, g]),
            rising_launch: true,
        };
        assert_eq!(
            generate_path_test(&view, &fault, &PodemConfig::paper_default(), 1),
            PathTestOutcome::Untested
        );
    }

    #[test]
    fn mux_select_on_path_is_unsupported() {
        let mut n = Netlist::new("muxsel");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        let g = n.add_cell("g", CellKind::Mux2, vec![a, b, s]);
        n.add_output("y", g);
        let view = TestView::new(&n).unwrap();
        let fault = PathDelayFault {
            path: StructuralPath::new(&n, vec![s, g]),
            rising_launch: true,
        };
        assert_eq!(
            generate_path_test(&view, &fault, &PodemConfig::paper_default(), 1),
            PathTestOutcome::Unsupported
        );
    }

    #[test]
    fn generated_circuit_critical_paths_report() {
        // Longest structural paths in random logic are frequently *false*
        // (unsensitizable) — the interesting property is that the engine
        // classifies them and that everything it marks Tested verifies.
        let n = generate_circuit(&GeneratorConfig {
            name: "pd".into(),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 8,
            gates: 70,
            logic_depth: 8,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 1001,
        })
        .unwrap();
        let view = TestView::new(&n).unwrap();
        let report = path_delay_atpg(&view, 10, &PodemConfig::paper_default(), 11);
        let total = report.tested + report.untested + report.unsupported;
        assert!(total >= 10, "expected both polarities of >= 5 paths");
        assert!(report.tested >= 1, "no critical path testable: {report:?}");
    }

    /// `generate_path_test` must find a V2 exactly when the side-input
    /// constraint set plus launch value is satisfiable — cross-checked
    /// exhaustively on a small circuit.
    #[test]
    fn generation_matches_exhaustive_satisfiability() {
        let n = generate_circuit(&GeneratorConfig {
            name: "pd_small".into(),
            primary_inputs: 4,
            primary_outputs: 3,
            flip_flops: 4,
            gates: 35,
            logic_depth: 5,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 9,
        })
        .unwrap();
        let view = TestView::new(&n).unwrap();
        let na = view.assignable().len();
        assert!(na <= 14);
        for path in longest_paths(&n, 6) {
            for rising in [false, true] {
                let fault = PathDelayFault {
                    path: path.clone(),
                    rising_launch: rising,
                };
                // Build the same per-gate alternatives the generator uses.
                let mut per_gate: Vec<Vec<Vec<(flh_netlist::CellId, bool)>>> = Vec::new();
                let mut supported = true;
                for w in fault.path.cells().windows(2) {
                    let on_pin = n
                        .cell(w[1])
                        .fanin()
                        .iter()
                        .position(|&f| f == w[0])
                        .unwrap();
                    match side_constraints(&n, w[1], on_pin) {
                        Some(alts) => per_gate.push(alts),
                        None => supported = false,
                    }
                }
                let variants: usize = per_gate.iter().map(|a| a.len()).product::<usize>();
                if !supported || variants > 16 {
                    // The generator caps its disjunctive search; skip cases
                    // where it is legitimately incomplete.
                    continue;
                }
                let satisfiable = (0u64..(1 << na)).any(|bits| {
                    let words: Vec<u64> = (0..na)
                        .map(|i| if bits >> i & 1 == 1 { !0 } else { 0 })
                        .collect();
                    let vals = view.eval64(&words, None);
                    let bit = |c: flh_netlist::CellId| vals[c.index()] & 1 == 1;
                    bit(fault.path.source()) == rising
                        && per_gate
                            .iter()
                            .all(|alts| alts.iter().any(|cs| cs.iter().all(|&(c, v)| bit(c) == v)))
                });
                let outcome = generate_path_test(&view, &fault, &PodemConfig::paper_default(), 2);
                match outcome {
                    PathTestOutcome::Tested(p) => {
                        assert!(satisfiable, "generator found an impossible test");
                        assert!(verify_non_robust(&view, &fault, &p));
                    }
                    PathTestOutcome::Untested => {
                        assert!(!satisfiable, "generator missed a satisfiable path");
                    }
                    PathTestOutcome::Unsupported => unreachable!("filtered above"),
                }
            }
        }
    }

    #[test]
    fn sensitizable_path_search_finds_verified_paths() {
        let n = generate_circuit(&GeneratorConfig {
            name: "sens".into(),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 8,
            gates: 70,
            logic_depth: 8,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 2002,
        })
        .unwrap();
        let view = TestView::new(&n).unwrap();
        let cfg = PodemConfig::paper_default();
        let mut found = 0;
        let mut longest = 0;
        for &src in n.flip_flops().iter().take(4) {
            for rising in [false, true] {
                if let Some((path, pattern)) =
                    longest_sensitizable_path(&view, src, rising, &cfg, 400)
                {
                    found += 1;
                    longest = longest.max(path.length());
                    let fault = PathDelayFault {
                        path,
                        rising_launch: rising,
                    };
                    assert!(
                        verify_non_robust(&view, &fault, &pattern),
                        "sensitizable path failed verification"
                    );
                }
            }
        }
        assert!(found >= 4, "only {found} sensitizable paths found");
        assert!(longest >= 2, "paths too shallow: {longest}");
        // Sensitizable length never exceeds structural depth.
        let lv = analysis::Levelization::compute(&n).unwrap();
        assert!(longest <= lv.depth() as usize);
    }

    #[test]
    fn sensitizable_search_on_inverter_chain_recovers_full_depth() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let ff = n.add_cell("ff", CellKind::Dff, vec![a]);
        let mut prev: CellId = ff;
        for i in 0..5 {
            prev = n.add_cell(format!("i{i}"), CellKind::Inv, vec![prev]);
        }
        n.add_output("y", prev);
        let view = TestView::new(&n).unwrap();
        let (path, pattern) =
            longest_sensitizable_path(&view, ff, true, &PodemConfig::paper_default(), 100)
                .expect("chain is trivially sensitizable");
        assert_eq!(path.length(), 5);
        let fault = PathDelayFault {
            path,
            rising_launch: true,
        };
        assert!(verify_non_robust(&view, &fault, &pattern));
    }

    #[test]
    fn longest_paths_are_sorted_and_connected() {
        let n = generate_circuit(&GeneratorConfig {
            name: "lp".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 6,
            gates: 60,
            logic_depth: 7,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 77,
        })
        .unwrap();
        let paths = longest_paths(&n, 8);
        assert!(!paths.is_empty());
        for w in paths.windows(2) {
            assert!(w[0].length() >= w[1].length());
        }
        // The longest equals the structural depth.
        let lv = analysis::Levelization::compute(&n).unwrap();
        assert_eq!(paths[0].length(), lv.depth() as usize);
    }

    #[test]
    #[should_panic(expected = "does not feed")]
    fn disconnected_path_panics() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_cell("g", CellKind::Inv, vec![a]);
        let h = n.add_cell("h", CellKind::Inv, vec![b]);
        n.add_output("y", g);
        n.add_output("z", h);
        StructuralPath::new(&n, vec![a, h]);
    }
}
