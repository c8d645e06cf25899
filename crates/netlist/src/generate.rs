//! Deterministic synthetic circuit generator.
//!
//! Generates sequential circuits whose *structural statistics* — primary
//! input/output counts, flip-flop count, gate count, critical-path logic
//! depth, and the flip-flop fanout shape (total fanout pins and unique
//! first-level gates per flip-flop) — match a requested profile. Every
//! metric the FLH paper reports is a function of exactly these statistics,
//! which is what makes this an acceptable substitute for the original
//! ISCAS89 netlists (see `DESIGN.md` §1).
//!
//! The construction is layered:
//!
//! 1. primary inputs and flip-flops (D pins wired last);
//! 2. the *first-level gates* — the only cells allowed to read flip-flop
//!    outputs — sized and multiplicity-assigned to hit the requested total
//!    and unique fanout targets exactly;
//! 3. a level-`depth` spine guaranteeing the requested logic depth;
//! 4. filler gates placed at random levels `2..=depth` with inputs drawn
//!    from strictly lower levels (so the structural depth never exceeds the
//!    target);
//! 5. primary outputs and flip-flop D pins wired preferentially to
//!    still-unread gate outputs.

use flh_rng::Rng;

use crate::cell::{CellId, CellKind};
use crate::error::NetlistError;
use crate::graph::Netlist;
use crate::Result;

/// Shape specification consumed by [`generate_circuit`].
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// Primary input count (≥ 1).
    pub primary_inputs: usize,
    /// Primary output count (≥ 1).
    pub primary_outputs: usize,
    /// Flip-flop count (≥ 1).
    pub flip_flops: usize,
    /// Total combinational gate count.
    pub gates: usize,
    /// Structural critical-path logic depth (≥ 2).
    pub logic_depth: usize,
    /// Target average flip-flop fanout pins into logic.
    pub avg_ff_fanout: f64,
    /// Target ratio of unique first-level gates to flip-flops.
    pub unique_flg_ratio: f64,
    /// Optional fanout (distinct first-level gates) of one hot flip-flop.
    pub hot_ff_fanout: Option<usize>,
    /// RNG seed; equal configs generate identical netlists.
    pub seed: u64,
}

impl GeneratorConfig {
    fn first_level_gate_count(&self) -> usize {
        ((self.flip_flops as f64 * self.unique_flg_ratio).round() as usize).max(1)
    }

    fn total_ff_pins(&self) -> usize {
        let t = (self.flip_flops as f64 * self.avg_ff_fanout).round() as usize;
        t.max(self.flip_flops).max(self.first_level_gate_count())
    }

    fn validate(&self) -> Result<()> {
        let fail = |message: String| Err(NetlistError::InvalidGeneratorConfig { message });
        if self.primary_inputs == 0 {
            return fail("at least one primary input required".into());
        }
        if self.primary_outputs == 0 {
            return fail("at least one primary output required".into());
        }
        if self.flip_flops == 0 {
            return fail("at least one flip-flop required".into());
        }
        if self.logic_depth < 2 {
            return fail("logic depth must be at least 2".into());
        }
        let n_flg = self.first_level_gate_count();
        let spine = self.logic_depth - 1;
        if self.gates < n_flg + spine {
            return fail(format!(
                "{} gates cannot host {n_flg} first-level gates plus a depth-{} spine",
                self.gates, self.logic_depth
            ));
        }
        let t = self.total_ff_pins();
        if t > 4 * n_flg {
            return fail(format!(
                "{t} flip-flop fanout pins exceed the capacity of {n_flg} gates of arity <= 4"
            ));
        }
        if let Some(hot) = self.hot_ff_fanout {
            if hot > n_flg {
                return fail(format!(
                    "hot flip-flop fanout {hot} exceeds the {n_flg} first-level gates"
                ));
            }
        }
        Ok(())
    }
}

/// Weighted pick of a gate kind with the requested arity.
fn pick_kind(rng: &mut Rng, arity: usize) -> CellKind {
    // (kind, weight) tables roughly mirroring the LEDA-mapped ISCAS89 mix:
    // NAND/NOR-dominant with a sprinkling of complex gates.
    const A1: [(CellKind, u32); 2] = [(CellKind::Inv, 8), (CellKind::Buf, 2)];
    // Inverting-gate and XOR-rich mix: random AND/OR trees drive signal
    // probabilities to the rails and breed redundant (untestable) faults,
    // which real mapped ISCAS89 logic does not have.
    const A2: [(CellKind, u32); 6] = [
        (CellKind::Nand2, 32),
        (CellKind::Nor2, 24),
        (CellKind::And2, 4),
        (CellKind::Or2, 4),
        (CellKind::Xor2, 11),
        (CellKind::Xnor2, 5),
    ];
    const A3: [(CellKind, u32); 6] = [
        (CellKind::Nand3, 24),
        (CellKind::Nor3, 14),
        (CellKind::Aoi21, 16),
        (CellKind::Oai21, 14),
        (CellKind::And3, 2),
        (CellKind::Or3, 2),
    ];
    const A4: [(CellKind, u32); 6] = [
        (CellKind::Nand4, 10),
        (CellKind::Nor4, 6),
        (CellKind::Aoi22, 12),
        (CellKind::Oai22, 10),
        (CellKind::And4, 1),
        (CellKind::Or4, 1),
    ];
    let table: &[(CellKind, u32)] = match arity {
        1 => &A1,
        2 => &A2,
        3 => &A3,
        4 => &A4,
        _ => panic!("no gate kinds of arity {arity}"),
    };
    let total: u32 = table.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for &(kind, w) in table {
        if roll < w {
            return kind;
        }
        roll -= w;
    }
    unreachable!("weighted table exhausted")
}

/// Random arity for a filler gate (weighted toward 2-input cells).
fn pick_arity(rng: &mut Rng) -> usize {
    match rng.gen_range(0u32..100) {
        0..=11 => 1,
        12..=66 => 2,
        67..=91 => 3,
        _ => 4,
    }
}

struct Builder<'a> {
    rng: Rng,
    netlist: Netlist,
    config: &'a GeneratorConfig,
    /// Gate/PI outputs indexed by logic level (level 0 = primary inputs).
    by_level: Vec<Vec<CellId>>,
    /// Read-counter per cell, for the final unused-output sweep.
    reads: Vec<u32>,
}

impl<'a> Builder<'a> {
    fn mark_read(&mut self, id: CellId) {
        if id.index() >= self.reads.len() {
            self.reads.resize(id.index() + 1, 0);
        }
        self.reads[id.index()] += 1;
    }

    /// Picks a driver strictly below `level`, biased toward `level - 1`.
    fn pick_below(&mut self, level: usize) -> CellId {
        debug_assert!(level >= 1);
        let lvl = if level == 1 || self.rng.gen_bool(0.6) {
            level - 1
        } else {
            self.rng.gen_range(0..level)
        };
        let pool = &self.by_level[lvl];
        debug_assert!(!pool.is_empty(), "level {lvl} is empty");
        pool[self.rng.gen_range(0..pool.len())]
    }

    fn add_gate(&mut self, name: String, level: usize, fixed: &[CellId]) -> CellId {
        let arity = if fixed.is_empty() {
            pick_arity(&mut self.rng)
        } else {
            pick_arity(&mut self.rng).max(fixed.len())
        };
        let kind = pick_kind(&mut self.rng, arity);
        let mut fanin: Vec<CellId> = fixed.to_vec();
        // First free pin anchors the level; the rest come from anywhere
        // below.
        if fanin.is_empty() {
            let anchor_lvl = level - 1;
            let pool = &self.by_level[anchor_lvl];
            let anchor = pool[self.rng.gen_range(0..pool.len())];
            fanin.push(anchor);
        }
        while fanin.len() < arity {
            // Avoid duplicate fanins: `XOR(x, x)` is a constant and
            // `NAND(x, x)` a degenerate inverter — both breed redundant,
            // untestable faults that real mapped logic does not have.
            let mut pick = self.pick_below(level);
            for _ in 0..8 {
                if !fanin.contains(&pick) {
                    break;
                }
                pick = self.pick_below(level);
            }
            fanin.push(pick);
        }
        for &f in &fanin {
            self.mark_read(f);
        }
        let id = self.netlist.add_cell(name, kind, fanin);
        while self.by_level.len() <= level {
            self.by_level.push(Vec::new());
        }
        self.by_level[level].push(id);
        id
    }

    fn config(&self) -> &GeneratorConfig {
        self.config
    }
}

/// Generates a circuit matching `config`.
///
/// The output is deterministic in `config` (including the seed) and always
/// satisfies [`Netlist::validate`]. The flip-flop fanout statistics are
/// exact: the generated circuit has exactly
/// `round(flip_flops * unique_flg_ratio)` first-level gates and
/// `max(that, round(flip_flops * avg_ff_fanout), flip_flops)` flip-flop
/// fanout pins.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidGeneratorConfig`] for unsatisfiable
/// shapes (see [`GeneratorConfig`] field requirements).
pub fn generate_circuit(config: &GeneratorConfig) -> Result<Netlist> {
    config.validate()?;
    let mut b = Builder {
        rng: Rng::seed_from_u64(config.seed),
        netlist: Netlist::new(config.name.clone()),
        config,
        by_level: vec![Vec::new()],
        reads: Vec::new(),
    };

    // 1. Primary inputs (level 0) and flip-flops (D pins rewired at the end).
    let mut pis = Vec::with_capacity(config.primary_inputs);
    for i in 0..config.primary_inputs {
        let id = b.netlist.add_input(format!("pi{i}"));
        pis.push(id);
        b.by_level[0].push(id);
    }
    let mut ffs = Vec::with_capacity(config.flip_flops);
    for i in 0..config.flip_flops {
        // Placeholder D fanin; rewired in step 5.
        let id = b
            .netlist
            .add_cell(format!("ff{i}"), CellKind::Dff, vec![pis[0]]);
        ffs.push(id);
    }

    // 2. First-level gates with exact fanout statistics.
    let n_flg = config.first_level_gate_count();
    let total_pins = config.total_ff_pins();

    // Per-FF pin quotas: everyone gets >= 1; the hot FF gets its requested
    // share; the remainder is sprinkled randomly.
    let mut quota = vec![1usize; config.flip_flops];
    if let Some(hot) = config.hot_ff_fanout {
        quota[0] = hot.min(n_flg);
    }
    let mut assigned: usize = quota.iter().sum();
    // A pinned hot FF keeps *exactly* its requested fanout, so the random
    // sprinkle below must never land on it.
    let sprinkle_from = usize::from(config.hot_ff_fanout.is_some());
    while assigned < total_pins {
        if quota[sprinkle_from..].iter().all(|&q| q >= n_flg) {
            break; // every sprinkle-eligible FF is saturated
        }
        let i = b.rng.gen_range(sprinkle_from..config.flip_flops);
        if quota[i] < n_flg {
            quota[i] += 1;
            assigned += 1;
        }
    }
    // `assigned` may exceed `total_pins` only via the hot FF; accept that.
    let total_pins = assigned;

    // Gate capacities (arity 2..=4), bumped until they can hold all pins.
    let mut capacities: Vec<usize> = (0..n_flg)
        .map(|_| match b.rng.gen_range(0u32..100) {
            0..=49 => 2,
            50..=79 => 3,
            _ => 4,
        })
        .collect();
    while capacities.iter().sum::<usize>() < total_pins {
        let i = b.rng.gen_range(0..n_flg);
        if capacities[i] < 4 {
            capacities[i] += 1;
        }
    }

    // Deal FF pins to gates: tokens sorted by descending remaining quota,
    // each placed on the gate with most spare capacity that does not already
    // contain that FF. Guarantees the hot FF spreads across distinct gates
    // and that every gate ends up with at least one FF pin.
    let mut gate_ffs: Vec<Vec<usize>> = vec![Vec::new(); n_flg];
    {
        let mut tokens: Vec<usize> = Vec::with_capacity(total_pins);
        for (ff, &q) in quota.iter().enumerate() {
            tokens.extend(std::iter::repeat_n(ff, q));
        }
        // Highest-quota FFs first, then shuffle within for variety.
        b.rng.shuffle(&mut tokens);
        tokens.sort_by_key(|&ff| std::cmp::Reverse(quota[ff]));
        // Phase 1: one pin per gate.
        let mut next_token = 0usize;
        for slot in gate_ffs.iter_mut() {
            // One token per gate in phase 1 (trivially distinct).
            slot.push(tokens[next_token]);
            next_token += 1;
            if next_token >= tokens.len() {
                break;
            }
        }
        // Phase 2: remaining tokens to the emptiest compatible gate.
        for &ff in &tokens[next_token.min(tokens.len())..] {
            let mut best: Option<usize> = None;
            for g in 0..n_flg {
                if gate_ffs[g].len() >= capacities[g] || gate_ffs[g].contains(&ff) {
                    continue;
                }
                let spare = capacities[g] - gate_ffs[g].len();
                if best.is_none_or(|bg| spare > capacities[bg] - gate_ffs[bg].len()) {
                    best = Some(g);
                }
            }
            let g = best.unwrap_or_else(|| {
                // Capacity is guaranteed sufficient in aggregate, but the
                // distinct-FF constraint can pin us; widen the first gate
                // that can still legally take this FF.
                (0..n_flg)
                    .find(|&g| !gate_ffs[g].contains(&ff))
                    .expect("some gate lacks this flip-flop")
            });
            gate_ffs[g].push(ff);
            if gate_ffs[g].len() > capacities[g] {
                capacities[g] = gate_ffs[g].len().min(4).max(capacities[g]);
            }
        }
    }

    b.by_level.push(Vec::new());
    let mut flg_ids = Vec::with_capacity(n_flg);
    for (g, ffs_in_gate) in gate_ffs.iter().enumerate() {
        let arity = capacities[g].max(ffs_in_gate.len()).clamp(2, 4);
        let kind = pick_kind(&mut b.rng, arity);
        let mut fanin: Vec<CellId> = ffs_in_gate.iter().map(|&i| ffs[i]).collect();
        while fanin.len() < arity {
            let mut pi = pis[b.rng.gen_range(0..pis.len())];
            for _ in 0..8 {
                if !fanin.contains(&pi) {
                    break;
                }
                pi = pis[b.rng.gen_range(0..pis.len())];
            }
            fanin.push(pi);
        }
        fanin.truncate(arity);
        for &f in &fanin {
            b.mark_read(f);
        }
        let id = b.netlist.add_cell(format!("flg{g}"), kind, fanin);
        b.by_level[1].push(id);
        flg_ids.push(id);
    }

    // 3. Depth spine.
    let mut prev = flg_ids[b.rng.gen_range(0..flg_ids.len())];
    for level in 2..=config.logic_depth {
        prev = b.add_gate(format!("sp{level}"), level, &[prev]);
    }

    // 4. Filler gates, biased toward lower levels so few gates strand at
    // the very top with nothing left to read them.
    let n_rest = config.gates - n_flg - (config.logic_depth - 1);
    for i in 0..n_rest {
        let span = (config.logic_depth - 1) as f64;
        let r: f64 = b.rng.gen();
        let level = 2 + (span * r * r) as usize;
        let level = level.min(config.logic_depth);
        b.add_gate(format!("g{i}"), level, &[]);
    }

    // Level of every cell, for the sorts and host searches below.
    let level_of: Vec<u32> = {
        let mut lv = vec![0u32; b.netlist.cell_count()];
        for (level, cells) in b.by_level.iter().enumerate() {
            for &c in cells {
                lv[c.index()] = level as u32;
            }
        }
        lv
    };

    // 5. Primary outputs and flip-flop D pins, consuming unread outputs
    // first so the circuit has as few dangling gates as possible.
    let mut unread: Vec<CellId> = b
        .by_level
        .iter()
        .skip(1)
        .flatten()
        .copied()
        .filter(|id| b.reads.get(id.index()).copied().unwrap_or(0) == 0)
        .collect();
    // Deepest unread first: top-of-cone gates have no chance of being
    // rewired into other gates later, so they get the boundary sinks.
    b.rng.shuffle(&mut unread);
    unread.sort_by_key(|c| level_of[c.index()]);
    // Level-sorted, so the gates above any level form a suffix.
    let gate_pool: Vec<CellId> = b.by_level.iter().skip(1).flatten().copied().collect();

    for i in 0..config.primary_outputs {
        let driver = unread
            .pop()
            .unwrap_or_else(|| gate_pool[b.rng.gen_range(0..gate_pool.len())]);
        b.mark_read(driver);
        b.netlist.add_output(format!("po{i}"), driver);
    }
    for &ff in &ffs {
        let driver = unread
            .pop()
            .unwrap_or_else(|| gate_pool[b.rng.gen_range(0..gate_pool.len())]);
        b.mark_read(driver);
        b.netlist.set_fanin_pin(ff, 0, driver);
    }

    // 6. Observability repair: any still-unread gate output takes over a
    // non-anchor input pin of some higher-level gate whose current driver
    // can spare a reader. Keeps gate count, arity and the depth spine
    // intact while eliminating unobservable logic cones (real mapped
    // circuits have none). Deepest-first, so shallow leftovers still find
    // higher-level hosts.
    unread.sort_by_key(|c| level_of[c.index()]);
    let boundary_sinks: Vec<CellId> = b
        .netlist
        .outputs()
        .iter()
        .copied()
        .chain(ffs.iter().copied())
        .collect();
    while let Some(g) = unread.pop() {
        let g_level = level_of[g.index()];
        // Preferred: take over a spare (non-anchor) pin of a deeper gate
        // whose current driver can afford to lose one reader. Hosts sit at
        // level >= 2 and never read flip-flops, so the exact FF fanout
        // statistics are untouched.
        let hosts = &gate_pool[gate_pool.partition_point(|h| level_of[h.index()] <= g_level)..];
        let mut placed = false;
        if !hosts.is_empty() {
            let start = b.rng.gen_range(0..hosts.len());
            'host: for k in 0..hosts.len() {
                let h = hosts[(start + k) % hosts.len()];
                if b.netlist.cell(h).fanin().contains(&g) {
                    continue;
                }
                for pin in 1..b.netlist.cell(h).fanin().len() {
                    let displaced = b.netlist.cell(h).fanin()[pin];
                    if b.reads.get(displaced.index()).copied().unwrap_or(0) >= 2 {
                        b.reads[displaced.index()] -= 1;
                        b.netlist.set_fanin_pin(h, pin, g);
                        b.mark_read(g);
                        placed = true;
                        break 'host;
                    }
                }
            }
        }
        if !placed {
            // Fallback (needed for the deepest gates): steal a primary
            // output or flip-flop D whose driver has other readers.
            for &sink in &boundary_sinks {
                let driver = b.netlist.cell(sink).fanin()[0];
                if driver != g && b.reads.get(driver.index()).copied().unwrap_or(0) >= 2 {
                    b.reads[driver.index()] -= 1;
                    b.netlist.set_fanin_pin(sink, 0, g);
                    b.mark_read(g);
                    break;
                }
            }
            // If even that fails the output stays dangling (rare).
        }
    }

    debug_assert_eq!(b.netlist.gate_count(), b.config().gates);
    b.netlist.validate()?;
    Ok(b.netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{
        first_level_gates, total_ff_fanouts, CircuitStats, FanoutMap, Levelization,
    };
    use crate::profiles::{iscas89_profile, iscas89_profiles};

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            name: "gen_small".into(),
            primary_inputs: 5,
            primary_outputs: 4,
            flip_flops: 8,
            gates: 60,
            logic_depth: 7,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 42,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let cfg = small_config();
        let n = generate_circuit(&cfg).unwrap();
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 4);
        assert_eq!(n.flip_flops().len(), 8);
        assert_eq!(n.gate_count(), 60);
        n.validate().unwrap();
    }

    #[test]
    fn depth_is_exact() {
        let cfg = small_config();
        let n = generate_circuit(&cfg).unwrap();
        let lv = Levelization::compute(&n).unwrap();
        assert_eq!(lv.depth() as usize, cfg.logic_depth);
    }

    #[test]
    fn fanout_statistics_are_exact() {
        let cfg = small_config();
        let n = generate_circuit(&cfg).unwrap();
        let fo = FanoutMap::compute(&n);
        let flg = first_level_gates(&n, &fo);
        assert_eq!(flg.len(), cfg.first_level_gate_count());
        assert_eq!(total_ff_fanouts(&n, &fo), cfg.total_ff_pins());
    }

    #[test]
    fn only_first_level_gates_read_flip_flops() {
        let n = generate_circuit(&small_config()).unwrap();
        let fo = FanoutMap::compute(&n);
        for &ff in n.flip_flops() {
            for &r in fo.readers(ff) {
                let kind = n.cell(r).kind();
                assert!(
                    kind.is_combinational(),
                    "flip-flop read by non-combinational {kind}"
                );
                assert!(
                    n.cell(r).name().starts_with("flg"),
                    "flip-flop read by non-FLG cell {}",
                    n.cell(r).name()
                );
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = small_config();
        let a = crate::bench_io::write_bench(&generate_circuit(&cfg).unwrap());
        let b = crate::bench_io::write_bench(&generate_circuit(&cfg).unwrap());
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let c = crate::bench_io::write_bench(&generate_circuit(&cfg2).unwrap());
        assert_ne!(a, c);
    }

    #[test]
    fn hot_flip_flop_spreads_over_distinct_gates() {
        let mut cfg = small_config();
        cfg.hot_ff_fanout = Some(9);
        cfg.gates = 80;
        let n = generate_circuit(&cfg).unwrap();
        let fo = FanoutMap::compute(&n);
        let hot = n.flip_flops()[0];
        let mut readers: Vec<CellId> = fo.readers(hot).to_vec();
        let total = readers.len();
        readers.sort();
        readers.dedup();
        assert_eq!(readers.len(), total, "hot FF feeds a gate twice");
        assert_eq!(total, 9);
    }

    #[test]
    fn rejects_impossible_shapes() {
        let mut cfg = small_config();
        cfg.gates = 5; // cannot fit FLGs + spine
        assert!(matches!(
            generate_circuit(&cfg),
            Err(NetlistError::InvalidGeneratorConfig { .. })
        ));
        let mut cfg = small_config();
        cfg.primary_inputs = 0;
        assert!(generate_circuit(&cfg).is_err());
        let mut cfg = small_config();
        cfg.logic_depth = 1;
        assert!(generate_circuit(&cfg).is_err());
    }

    #[test]
    fn all_small_profiles_generate() {
        for p in iscas89_profiles().into_iter().filter(|p| p.gates <= 700) {
            let n = generate_circuit(&p.generator_config())
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let st = CircuitStats::compute(&n).unwrap();
            assert_eq!(st.flip_flops, p.flip_flops, "{}", p.name);
            assert_eq!(st.gates, p.gates, "{}", p.name);
            assert_eq!(st.logic_depth as usize, p.logic_depth, "{}", p.name);
        }
    }

    #[test]
    fn s5378_profile_statistics() {
        let p = iscas89_profile("s5378").unwrap();
        let n = generate_circuit(&p.generator_config()).unwrap();
        let st = CircuitStats::compute(&n).unwrap();
        assert_eq!(st.flip_flops, 179);
        assert!((st.avg_ff_fanout() - p.avg_ff_fanout).abs() < 0.15);
        assert!((st.unique_fanout_ratio() - p.unique_flg_ratio).abs() < 0.1);
    }
}
