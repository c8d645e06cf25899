//! Fanout-free regions: the map behind stem-region transition fault
//! simulation.
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
//! The map also fixes how a fault list is cut for the pool. Faults sorted
//! region-major ([`RegionMap::order`]) and dealt in chunks of whole regions
//! (`deal_regions`) keep each region on one shard, so the stem replays a
//! region asks for — and every counter they flush — do not depend on the
//! pool width.

use std::ops::Range;

use flh_exec::ThreadPool;
use flh_netlist::CompiledCircuit;

use crate::fsim::MIN_FAULTS_PER_SHARD;
use crate::transition::TransitionFault;
#[cfg(doc)]
use crate::tview::TestView;

/// [`RegionMap::reader`] entry of a stem.
const STEM: u32 = u32::MAX;

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
    /// level, stem, site level, site), ties kept in input order. Replays
    /// then sweep the program front to back, and each region's faults sit
    /// together when the pool deals a fault list.
    pub(crate) fn order(
        &self,
        compiled: &CompiledCircuit,
        faults: &[TransitionFault],
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| self.key(compiled, &faults[i]));
        order
    }

    /// Sorts `faults` region-major in place, in the order of
    /// [`RegionMap::order`].
    pub(crate) fn sort(&self, compiled: &CompiledCircuit, faults: &mut [TransitionFault]) {
        faults.sort_by_key(|f| self.key(compiled, f));
    }

    fn key(&self, compiled: &CompiledCircuit, fault: &TransitionFault) -> (u32, u32, u32, u32) {
        let site = fault.site.index() as u32;
        let stem = self.stem(site);
        (compiled.level_of(stem), stem, compiled.level_of(site), site)
    }
}

/// Deals a region-major fault list (see [`RegionMap::order`]) over `pool`
/// in chunks of whole regions, each of at least [`MIN_FAULTS_PER_SHARD`]
/// faults, and runs `f` on each shard's fault ranges. Chunks go round-robin
/// through [`ThreadPool::run_partitioned_min`], so every shard takes a
/// slice of every level band; a list too short for two chunks runs as one
/// shard. Returns `(fault ranges, result)` per shard, in shard order.
pub(crate) fn deal_regions<T, F>(
    pool: &ThreadPool,
    regions: &RegionMap,
    faults: &[TransitionFault],
    f: F,
) -> Vec<(Vec<Range<usize>>, T)>
where
    T: Send,
    F: Fn(&[Range<usize>]) -> T + Sync,
{
    // Chunk `k` is `bounds[k]..bounds[k + 1]`: cut at the first region
    // boundary once a chunk holds enough faults.
    let mut bounds = vec![0];
    for i in 1..faults.len() {
        let start = bounds[bounds.len() - 1];
        let boundary = regions.stem(faults[i].site.index() as u32)
            != regions.stem(faults[i - 1].site.index() as u32);
        if boundary && i - start >= MIN_FAULTS_PER_SHARD {
            bounds.push(i);
        }
    }
    if !faults.is_empty() {
        bounds.push(faults.len());
    }
    let chunks = bounds.len() - 1;
    let to_faults = |shard: &[Range<usize>]| -> Vec<Range<usize>> {
        shard
            .iter()
            .map(|r| bounds[r.start]..bounds[r.end])
            .collect()
    };
    pool.run_partitioned_min(chunks, 1, |shard| f(&to_faults(shard)))
        .into_iter()
        .map(|(shard, result)| (to_faults(&shard), result))
        .collect()
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
