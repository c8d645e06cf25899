//! Fanout-free regions and the stem-region fault simulation core — the one
//! fault simulator of this crate, behind both fronts
//! ([`crate::fsim::StuckSimulator`] and
//! [`crate::transition::TransitionSimulator`]).
//!
//! A line with exactly one reader can change the circuit only through that
//! reader, so a deviation on it follows a single path until it reaches a
//! line that fans out or is observed — the *stem* of its fanout-free region
//! (Abramovici, Menon & Miller, "Critical Path Tracing", IEEE D&T 1984; the
//! stem-region scheme of HOPE, Lee & Ha, IEEE TCAD 1996). A cell is a stem
//! if any of these holds:
//!
//! * it drives an observation point ([`TestView::observed_drivers`]);
//! * it has zero distinct readers, or two or more;
//! * its one reader is a flip-flop (level 0: the sequential boundary).
//!
//! Every other cell belongs to its reader's region. [`RegionMap`] stores
//! the stem and the unique reader of every cell; a view builds it once
//! ([`TestView::regions`]) and every simulator shard shares it.
//!
//! [`RegionSim`] simulates any fault that flips one cell — its *entry* —
//! in known lanes of a block: a stuck stem fault enters at its site, a
//! branch fault at its gate (in the lanes where the pin forced by
//! [`flh_netlist::Program::eval_cell_pinned`] flips the gate), a transition
//! fault at its site on V2. Per block it traces each fault's lanes to its
//! region's stem in the good machine and replays each requested stem once.
//!
//! The map also fixes how a fault list is cut for the pool, and
//! `deal_regions` is the one place a fault list meets it. Faults sorted
//! region-major ([`RegionMap::order`]) and dealt in chunks of whole regions
//! keep each region on one shard, so the stem replays a region asks for —
//! and every counter they flush — do not depend on the pool width.

use std::ops::Range;

use flh_exec::ThreadPool;
use flh_netlist::{CompiledCircuit, LaneWord, Packed256, PatternWord};

use crate::fault::{Fault, FaultSite};
use crate::fsim::MIN_FAULTS_PER_SHARD;
use crate::replay::DeviationReplay;
use crate::transition::TransitionFault;
use crate::tview::TestView;

/// [`RegionMap::reader`] entry of a stem.
const STEM: u32 = u32::MAX;

/// A fault as the stem-region engine sees it: the cell its deviation
/// enters the circuit at.
pub(crate) trait RegionFault: Copy + Send + Sync {
    /// The entry cell: a stem or transition fault's site, a branch fault's
    /// gate.
    fn entry(&self) -> u32;
}

impl RegionFault for Fault {
    fn entry(&self) -> u32 {
        match self.site {
            FaultSite::Stem(cell) => cell.index() as u32,
            FaultSite::Branch { gate, .. } => gate.index() as u32,
        }
    }
}

impl RegionFault for TransitionFault {
    fn entry(&self) -> u32 {
        self.site.index() as u32
    }
}

/// The stem and unique reader of every cell of one compiled circuit (see
/// the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct RegionMap {
    /// Per cell: the stem of its region (the cell itself for a stem).
    stem: Vec<u32>,
    /// Per cell: the unique reader of a region-internal cell, [`STEM`] for
    /// a stem.
    reader: Vec<u32>,
}

impl RegionMap {
    /// Builds the map of `compiled`, with `observed` the per-cell
    /// observation-driver flags of its test view.
    pub(crate) fn build(compiled: &CompiledCircuit, observed: &[bool]) -> Self {
        let n = compiled.cell_count();
        let mut reader = vec![STEM; n];
        for id in 0..n as u32 {
            let readers = compiled.readers(id);
            // One entry per reading pin: a reader on two pins is still one
            // reader, and `Program::eval_cell` flips both pins at once.
            let Some(&first) = readers.first() else {
                continue;
            };
            if !observed[id as usize]
                && compiled.level_of(first) != 0
                && readers.iter().all(|&r| r == first)
            {
                reader[id as usize] = first;
            }
        }
        // A reader sits at a strictly higher level than its driver, so a
        // sweep by descending level resolves a reader's stem before any of
        // its drivers asks for it. Sources (level 0) are not in `order()`.
        let mut stem: Vec<u32> = (0..n as u32).collect();
        let sources = (0..n as u32).filter(|&id| compiled.level_of(id) == 0);
        for id in compiled.order().iter().rev().copied().chain(sources) {
            let r = reader[id as usize];
            if r != STEM {
                stem[id as usize] = stem[r as usize];
            }
        }
        RegionMap { stem, reader }
    }

    /// The stem of `cell`'s region.
    #[inline]
    pub(crate) fn stem(&self, cell: u32) -> u32 {
        self.stem[cell as usize]
    }

    /// The unique reader of a region-internal `cell`; `None` for a stem.
    #[inline]
    pub(crate) fn reader(&self, cell: u32) -> Option<u32> {
        let r = self.reader[cell as usize];
        (r != STEM).then_some(r)
    }

    /// Region-major permutation of `faults`: positions sorted by (stem
    /// level, stem, entry level, entry), ties kept in input order. Replays
    /// then sweep the program front to back, and each region's faults sit
    /// together when the pool deals a fault list.
    pub(crate) fn order<F: RegionFault>(
        &self,
        compiled: &CompiledCircuit,
        faults: &[F],
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..faults.len()).collect();
        // One key per fault: a comparison sort would compute two per
        // comparison, each through the permutation.
        order.sort_by_cached_key(|&i| {
            let entry = faults[i].entry();
            let stem = self.stem(entry);
            (
                compiled.level_of(stem),
                stem,
                compiled.level_of(entry),
                entry,
            )
        });
        order
    }
}

/// Deals a region-major fault list (see [`RegionMap::order`]) over `pool`
/// and runs `f` on each shard's fault ranges, one [`ThreadPool::run`] job
/// per shard. The list is cut into chunks of whole regions, each of at
/// least [`MIN_FAULTS_PER_SHARD`] faults (only the last may be shorter),
/// and chunk `k` goes to shard `k mod shards`, `shards = min(pool size,
/// chunks)`, so every shard takes a slice of every level band in list
/// order. A list of fewer than two chunks runs as one shard holding the
/// whole list. The deal depends on the list and the pool's logical width
/// alone. Returns `(fault ranges, result)` per shard, in shard order.
pub(crate) fn deal_regions<R, T, F>(
    pool: &ThreadPool,
    regions: &RegionMap,
    faults: &[R],
    f: F,
) -> Vec<(Vec<Range<usize>>, T)>
where
    R: RegionFault,
    T: Send,
    F: Fn(&[Range<usize>]) -> T + Sync,
{
    // Chunk `k` is `bounds[k]..bounds[k + 1]`: cut at the first region
    // boundary once a chunk holds enough faults.
    let mut bounds = vec![0];
    for i in 1..faults.len() {
        let start = bounds[bounds.len() - 1];
        let boundary = regions.stem(faults[i].entry()) != regions.stem(faults[i - 1].entry());
        if boundary && i - start >= MIN_FAULTS_PER_SHARD {
            bounds.push(i);
        }
    }
    if !faults.is_empty() {
        bounds.push(faults.len());
    }
    let chunks = bounds.len() - 1;
    let parts = pool.size().min(chunks);
    let shards: Vec<Vec<Range<usize>>> = if parts <= 1 {
        vec![vec![0..faults.len()]]
    } else {
        let mut dealt = vec![Vec::with_capacity(chunks.div_ceil(parts)); parts];
        for k in 0..chunks {
            dealt[k % parts].push(bounds[k]..bounds[k + 1]);
        }
        dealt
    };
    if flh_obs::enabled() {
        // The deal follows the pool width: nondeterministic (sched)
        // section only, never a deterministic counter.
        flh_obs::sched_add("pool.partition.calls", 1);
        flh_obs::sched_add("pool.partition.shards", shards.len() as u64);
        flh_obs::sched_add("pool.partition.items", chunks as u64);
    }
    let results = pool.run(shards.len(), |i| f(&shards[i]));
    shards.into_iter().zip(results).collect()
}

/// The stem-region simulation core over the good machine of one frame,
/// built on the shared [`DeviationReplay`] engine. The fronts evaluate the
/// frame ([`RegionSim::load`]), hand in each live fault's entry cell and
/// *flip word* — the lanes where the fault flips that cell — and read back
/// detections. Per block of up to 256 patterns there are three passes:
///
/// 1. [`RegionSim::request`]: `lanes = flip ∧ D(entry)`, where `D(x)` is
///    the word of lanes in which flipping `x` in the good machine flips the
///    region's stem: `D(stem) = ⊤`, and `D(x) = (eval_cell(reader) with x
///    flipped ⊕ good(reader)) ∧ D(reader)`, memoized per block along the
///    chain. `lanes` is ORed into the stem's request word `U`.
/// 2. [`RegionSim::replay_requests`]: each stem with a non-empty `U` is
///    replayed once, with `forced = good ⊕ U`, and its miscompare word `O`
///    is kept.
/// 3. [`RegionSim::observed`]: a fault is detected in `flip ∧ D(entry) ∧
///    O`.
///
/// This is exact. The chain from an entry to its stem is a single path, so
/// the fault flips the stem in exactly the lanes `lanes`, and nothing else
/// in the circuit. In a requested lane, `good ⊕ U` is therefore the stem
/// value the fault's own replay would reach, and every opcode is lane-wise,
/// so `O` agrees with that replay in every lane the fault reads. The replay
/// is event-driven (readers of changed cells only), scans only changed
/// observation drivers, and stops on the first miscompare in `U` when
/// exactly one fault asked for the stem.
///
/// Per-block state is one `u32` slot per cell, a sensitization word per
/// region-internal cell the block touched, and a request word per stem it
/// replays — no per-fault lane vector.
pub(crate) struct RegionSim<'v, 'a> {
    view: &'v TestView<'a>,
    regions: &'v RegionMap,
    /// The frame's good values, reused across blocks; stem replays mutate
    /// it in place under the replay engine's undo log.
    good: Vec<Packed256>,
    replay: DeviationReplay<Packed256>,
    /// Per cell: the index of a region-internal cell's entry in `sens`, or
    /// of a stem's entry in `requests`. An index left from an earlier block
    /// is stale unless the entry there names the cell back (a sparse set,
    /// so a new block needs no reset).
    slot: Vec<u32>,
    /// The region-internal cells this block has needed `D` of, aligned
    /// with `sens`.
    sens_cells: Vec<u32>,
    /// Their words `D(x)`.
    sens: Vec<Packed256>,
    /// Stems requested this block, in first-request order: `(stem, faults
    /// asking)`, aligned with `words`.
    requests: Vec<(u32, u32)>,
    /// Per request: the request word `U` until the stem is replayed, then
    /// its miscompare word `O`.
    words: Vec<Packed256>,
    /// The unresolved `(cell, reader)` links of a chain during a `D` walk.
    chain: Vec<(u32, u32)>,
    /// Register scratch for [`flh_netlist::Program::eval_cell`].
    scratch: Vec<Packed256>,
}

impl<'v, 'a> RegionSim<'v, 'a> {
    /// A core over `view`, sharing its region map.
    pub(crate) fn new(view: &'v TestView<'a>) -> Self {
        RegionSim {
            view,
            regions: view.regions(),
            good: Vec::new(),
            replay: DeviationReplay::new(view.compiled(), view.program_arc()),
            slot: vec![0; view.compiled().cell_count()],
            sens_cells: Vec::new(),
            sens: Vec::new(),
            requests: Vec::new(),
            words: Vec::new(),
            chain: Vec::new(),
            scratch: vec![Packed256::bot(); view.program().scratch_words()],
        }
    }

    /// Starts a block: evaluates the good machine of `assignment` (one
    /// superword per assignable) and forgets the last block's words.
    pub(crate) fn load(&mut self, assignment: &[Packed256]) {
        self.view.eval_lanes_into(assignment, &mut self.good);
        self.sens_cells.clear();
        self.sens.clear();
        self.requests.clear();
        self.words.clear();
    }

    /// The view the core simulates.
    pub(crate) fn view(&self) -> &'v TestView<'a> {
        self.view
    }

    /// The block's good machine, indexed by cell.
    pub(crate) fn good(&self) -> &[Packed256] {
        &self.good
    }

    /// The lanes where a branch fault on `pin` of `gate` flips the gate:
    /// the gate evaluated with that pin read as its driver's complement,
    /// against its good value. Only the pin is forced, whatever else its
    /// driver feeds.
    pub(crate) fn pin_flip(&mut self, gate: u32, pin: usize) -> Packed256 {
        let driver = self.view.compiled().fanin(gate)[pin];
        let forced = self.good[driver as usize].not();
        self.view
            .program()
            .eval_cell_pinned(gate, pin, forced, &self.good, &mut self.scratch)
            .xor(self.good[gate as usize])
    }

    /// Pass 1 for one fault that flips `entry` in the lanes `flip`: ORs
    /// `flip ∧ D(entry)` into the request word of `entry`'s stem. Returns
    /// false, requesting nothing, when that word is empty. `evals` counts
    /// the reader evaluations `D` took.
    pub(crate) fn request(&mut self, entry: u32, flip: Packed256, evals: &mut u64) -> bool {
        let lanes = flip.and(self.sensitization(entry, evals));
        if !lanes.any() {
            return false;
        }
        let stem = self.regions.stem(entry);
        if let Some(r) = self.request_slot(stem) {
            self.requests[r].1 += 1;
            self.words[r] = self.words[r].or(lanes);
        } else {
            self.slot[stem as usize] = self.requests.len() as u32;
            self.requests.push((stem, 1));
            self.words.push(lanes);
        }
        true
    }

    /// Pass 2: replays each requested stem once. A stem more than one
    /// fault asked for replays to quiescence (`stop_lanes = ⊥`) for an
    /// exact per-lane word; a stem one fault asked for stops on its first
    /// miscompare.
    pub(crate) fn replay_requests(&mut self) {
        for (&(stem, faults), word) in self.requests.iter().zip(self.words.iter_mut()) {
            let stop = if faults > 1 { Packed256::bot() } else { *word };
            let forced = self.good[stem as usize].xor(*word);
            *word = self.replay.replay(
                self.view.compiled(),
                self.view.observed_drivers(),
                &mut self.good,
                stem,
                forced,
                stop,
            );
        }
    }

    /// Pass 3: `D(entry) ∧ O(stem)`, the lanes in which flipping `entry`
    /// reached an observation point this block; a fault's detection lanes
    /// are this word and its flip word. Valid for every entry
    /// [`Self::request`] saw with a non-empty flip word (for any other the
    /// flip word is empty, so the conjunction is too).
    pub(crate) fn observed(&self, entry: u32) -> Packed256 {
        let Some(r) = self.request_slot(self.regions.stem(entry)) else {
            return Packed256::bot();
        };
        let sens = match self.sens_slot(entry) {
            Some(k) => self.sens[k],
            None => Packed256::top(), // a stem
        };
        sens.and(self.words[r])
    }

    /// `D(cell)`: the lanes in which flipping `cell` in the good machine
    /// flips its region's stem. Walks up the reader chain to the stem or to
    /// the first cell already known this block, then folds back down,
    /// evaluating each reader once with its driver flipped (counted in
    /// `evals`) and memoizing every word on the way. Once a word is empty,
    /// every word below it is too, and no reader is evaluated for them.
    fn sensitization(&mut self, cell: u32, evals: &mut u64) -> Packed256 {
        let mut x = cell;
        let mut d = loop {
            let Some(reader) = self.regions.reader(x) else {
                break Packed256::top();
            };
            if let Some(k) = self.sens_slot(x) {
                break self.sens[k];
            }
            self.chain.push((x, reader));
            x = reader;
        };
        while let Some((x, reader)) = self.chain.pop() {
            if d.any() {
                let good = self.good[x as usize];
                self.good[x as usize] = good.not();
                let flipped = self
                    .view
                    .program()
                    .eval_cell(reader, &self.good, &mut self.scratch);
                self.good[x as usize] = good;
                d = d.and(flipped.xor(self.good[reader as usize]));
                *evals += 1;
            }
            self.slot[x as usize] = self.sens.len() as u32;
            self.sens_cells.push(x);
            self.sens.push(d);
        }
        d
    }

    /// This block's `sens` index of a region-internal `cell`, once its `D`
    /// is known.
    fn sens_slot(&self, cell: u32) -> Option<usize> {
        let k = self.slot[cell as usize] as usize;
        (k < self.sens_cells.len() && self.sens_cells[k] == cell).then_some(k)
    }

    /// This block's `requests` index of `stem`, once a fault asked for it.
    fn request_slot(&self, stem: u32) -> Option<usize> {
        let k = self.slot[stem as usize] as usize;
        (k < self.requests.len() && self.requests[k].0 == stem).then_some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::enumerate_transition_faults;
    use crate::tview::TestView;
    use flh_netlist::{CellKind, Netlist};

    #[test]
    fn stems_follow_the_region_rule() {
        // a -> i1 -> i2 -> x = Xor2(i2, i2) -> ff.D, and b feeds g on
        // both pins and h: two distinct readers, so b is a stem.
        let mut n = Netlist::new("regions");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let i1 = n.add_cell("i1", CellKind::Inv, vec![a]);
        let i2 = n.add_cell("i2", CellKind::Buf, vec![i1]);
        let x = n.add_cell("x", CellKind::Xor2, vec![i2, i2]);
        let ff = n.add_cell("ff", CellKind::Dff, vec![x]);
        let g = n.add_cell("g", CellKind::And2, vec![b, b]);
        let h = n.add_cell("h", CellKind::Or2, vec![b, ff]);
        let k = n.add_cell("k", CellKind::Nand2, vec![g, h]);
        n.add_output("y", k);
        let view = TestView::new(&n).unwrap();
        let map = view.regions();
        let id = |c: flh_netlist::CellId| c.index() as u32;
        // The chain a -> i1 -> i2 -> x ends at x, which drives ff.D.
        for c in [a, i1, i2] {
            assert_eq!(map.stem(id(c)), id(x), "{c:?}");
        }
        assert_eq!(
            map.reader(id(i2)),
            Some(id(x)),
            "duplicate pins are one reader"
        );
        assert_eq!(map.reader(id(x)), None, "observed driver");
        // b has two distinct readers; g and h each read into k.
        assert_eq!(map.reader(id(b)), None);
        assert_eq!(map.stem(id(g)), id(k));
        assert_eq!(map.stem(id(h)), id(k));
        assert_eq!(map.stem(id(ff)), id(k));
        assert_eq!(map.reader(id(k)), None, "observed driver");
    }

    /// A fault entering at a given cell.
    #[derive(Clone, Copy)]
    struct Entry(u32);

    impl RegionFault for Entry {
        fn entry(&self) -> u32 {
            self.0
        }
    }

    /// A region-major fault list of `sizes.len()` regions, region `r`
    /// holding `sizes[r]` faults, and a map naming each region's stem.
    fn regions_of(sizes: &[usize]) -> (RegionMap, Vec<Entry>) {
        let stem: Vec<u32> = sizes
            .iter()
            .enumerate()
            .flat_map(|(r, &n)| std::iter::repeat_n(r as u32, n))
            .collect();
        let faults = (0..stem.len() as u32).map(Entry).collect();
        let reader = vec![STEM; stem.len()];
        (RegionMap { stem, reader }, faults)
    }

    /// The shard ranges `deal_regions` hands out at `width`.
    fn deal(sizes: &[usize], width: usize) -> Vec<Vec<Range<usize>>> {
        let (map, faults) = regions_of(sizes);
        deal_regions(&ThreadPool::new(width), &map, &faults, |_| ())
            .into_iter()
            .map(|(shard, ())| shard)
            .collect()
    }

    /// Every `(region sizes, width)` shape the deal tests sweep: empty and
    /// tiny lists, one chunk exactly, a short last chunk, many small
    /// regions, one region larger than a chunk, mixed sizes, and more
    /// workers than chunks.
    fn shapes() -> Vec<(Vec<usize>, usize)> {
        let mixed = vec![40, 30, 64, 10, 70, 5];
        vec![
            (vec![], 4),
            (vec![1], 4),
            (vec![64], 2),
            (vec![64, 36], 2),
            (vec![5; 224], 2),
            (vec![5; 224], 3),
            (vec![5; 224], 8),
            (vec![300], 4),
            (mixed.clone(), 2),
            (mixed.clone(), 3),
            (mixed, 8),
            (vec![64, 64, 64], 20),
        ]
    }

    #[test]
    fn dealt_shards_are_disjoint_and_cover_the_list() {
        for (sizes, width) in shapes() {
            let len: usize = sizes.iter().sum();
            let shards = deal(&sizes, width);
            assert!(!shards.is_empty() && shards.len() <= width);
            let mut seen = vec![false; len];
            for r in shards.iter().flatten() {
                for i in r.clone() {
                    assert!(!seen[i], "index {i} dealt twice: {shards:?}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{sizes:?} at width {width}");
        }
    }

    #[test]
    fn chunk_k_lands_in_shard_k_mod_parts_in_ascending_order() {
        for (sizes, width) in shapes() {
            let shards = deal(&sizes, width);
            if shards.len() == 1 {
                continue; // the single-shard case has its own test
            }
            let mut chunks: Vec<Range<usize>> = shards.iter().flatten().cloned().collect();
            chunks.sort_by_key(|r| r.start);
            assert_eq!(shards.len(), width.min(chunks.len()));
            for (s, shard) in shards.iter().enumerate() {
                assert!(shard.windows(2).all(|w| w[0].end < w[1].start));
                for r in shard {
                    let k = chunks.iter().position(|c| c == r).expect("a dealt chunk");
                    assert_eq!(k % shards.len(), s, "{shards:?}");
                }
            }
        }
        // Spelled out: regions of 40, 30, 64, 10, 70 and 5 faults make the
        // chunks 0..70, 70..134, 134..214 and 214..219, dealt over two
        // shards.
        assert_eq!(
            deal(&[40, 30, 64, 10, 70, 5], 2),
            vec![vec![0..70, 134..214], vec![70..134, 214..219]]
        );
    }

    #[test]
    fn one_shard_is_the_whole_range() {
        assert_eq!(deal(&[5; 224], 1), vec![vec![0..1120]]);
        // Fewer than two chunks: no deal, whatever the width.
        assert_eq!(deal(&[64], 4), vec![vec![0..64]]);
        assert_eq!(deal(&[300], 4), vec![vec![0..300]]);
        assert_eq!(deal(&[], 4), vec![vec![0..0]]);
    }

    #[test]
    fn only_the_last_chunk_is_short() {
        for (sizes, width) in shapes() {
            let len: usize = sizes.iter().sum();
            let shards = deal(&sizes, width);
            if shards.len() == 1 {
                continue;
            }
            for r in shards.iter().flatten() {
                assert!(
                    r.len() >= MIN_FAULTS_PER_SHARD || r.end == len,
                    "short chunk {r:?} before the end ({sizes:?})"
                );
            }
        }
    }

    #[test]
    fn deals_cut_only_at_region_boundaries() {
        let n = flh_netlist::generate_circuit(&flh_netlist::GeneratorConfig {
            name: "deal".into(),
            primary_inputs: 8,
            primary_outputs: 6,
            flip_flops: 12,
            gates: 220,
            logic_depth: 9,
            avg_ff_fanout: 2.2,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 5,
        })
        .unwrap();
        let view = TestView::new(&n).unwrap();
        let map = view.regions();
        let faults = enumerate_transition_faults(&n);
        let ordered: Vec<TransitionFault> = map
            .order(view.compiled(), &faults)
            .into_iter()
            .map(|i| faults[i])
            .collect();
        let stem = |f: &TransitionFault| map.stem(f.site.index() as u32);
        for width in [1, 2, 3, 4] {
            let parts = deal_regions(&ThreadPool::new(width), map, &ordered, |_| ());
            let mut covered = vec![0u32; ordered.len()];
            for (shard, ()) in &parts {
                for r in shard {
                    covered[r.clone()].iter_mut().for_each(|c| *c += 1);
                    if r.start > 0 && r.start < ordered.len() {
                        assert_ne!(stem(&ordered[r.start - 1]), stem(&ordered[r.start]));
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "width {width}");
            assert_eq!(parts.len() > 1, width > 1, "width {width}");
        }
    }
}
