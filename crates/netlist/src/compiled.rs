//! Compiled circuit IR: a flattened, immutable, cache-friendly snapshot of a
//! [`Netlist`].
//!
//! Every hot loop in the workspace — logic simulation, stuck-at and
//! transition fault simulation, PODEM implication, static timing, activity
//! collection — sweeps a levelized combinational netlist thousands to
//! millions of times. The pointer-chasing [`Netlist`] graph (per-cell
//! `String` names, `Vec` fanins, `HashMap` name index) is the right
//! structure for *building* circuits, but the wrong one for *executing*
//! them. [`CompiledCircuit`] is the execution form:
//!
//! * dense `u32` cell ids (identical to [`CellId`] indices),
//! * CSR (offset + flat array) fanin and fanout adjacency,
//! * a precomputed topological **level order** with level boundaries, so
//!   evaluators walk a contiguous `&[u32]` instead of re-deriving Kahn's
//!   algorithm per instance,
//! * SoA side-band arrays: cell kind, logic level, topological position,
//!   and the source/registry sets (primary inputs, outputs, flip-flops).
//!
//! Build one per netlist with [`CompiledCircuit::compile`] and share it by
//! reference; it is immutable and `Sync`, so pattern-batch threads can walk
//! the same instance concurrently.
//!
//! ```
//! use flh_netlist::{CellKind, CompiledCircuit, Netlist};
//!
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_cell("g", CellKind::Nand2, vec![a, b]);
//! n.add_output("y", g);
//! let c = CompiledCircuit::compile(&n).unwrap();
//! assert_eq!(c.cell_count(), 4);
//! assert_eq!(c.fanin(g.index() as u32), &[a.index() as u32, b.index() as u32]);
//! assert_eq!(c.readers(a.index() as u32), &[g.index() as u32]);
//! // The level order visits g before the output marker that reads it.
//! let order = c.order();
//! assert!(c.topo_pos(g.index() as u32) < c.topo_pos(order[order.len() - 1]));
//! ```

use crate::analysis;
use crate::cell::{CellId, CellKind};
use crate::graph::Netlist;
use crate::Result;

/// Flattened, immutable execution snapshot of a [`Netlist`].
///
/// All ids are dense `u32` indices equal to [`CellId::index`]. See the
/// [module docs](self) for the layout rationale.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    name: String,
    kinds: Vec<CellKind>,
    /// CSR fanin: pins of cell `i` are `fanin[fanin_off[i]..fanin_off[i+1]]`.
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    /// CSR fanout: readers of cell `i` are
    /// `fanout[fanout_off[i]..fanout_off[i+1]]` (one entry per reading pin,
    /// so a double-reader appears twice, matching [`analysis::FanoutMap`]).
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
    /// Level-major topological order of all evaluable cells (everything but
    /// primary inputs and flip-flop outputs); within a level, ascending id.
    order: Vec<u32>,
    /// `order[level_starts[l]..level_starts[l + 1]]` are the cells at level
    /// `l + 1` (sources sit at level 0 and are not in the order).
    level_starts: Vec<u32>,
    /// Logic level per cell (0 for sources).
    level: Vec<u32>,
    /// Position of each cell in `order`; `u32::MAX` for sources.
    topo_pos: Vec<u32>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    flip_flops: Vec<u32>,
    depth: u32,
}

impl CompiledCircuit {
    /// Compiles a netlist into its execution form.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::NetlistError::CombinationalCycle`] if the
    /// combinational part of the netlist is cyclic.
    pub fn compile(netlist: &Netlist) -> Result<Self> {
        let n = netlist.cell_count();
        let levelization = analysis::Levelization::compute(netlist)?;

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        let mut fanout_counts = vec![0u32; n];
        for (_, cell) in netlist.iter() {
            kinds.push(cell.kind());
            fanin_off.push(fanin.len() as u32);
            for &f in cell.fanin() {
                fanin.push(f.index() as u32);
                fanout_counts[f.index()] += 1;
            }
        }
        fanin_off.push(fanin.len() as u32);

        // CSR fanout from the counts: classic two-pass fill.
        let mut fanout_off = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for &c in &fanout_counts {
            fanout_off.push(acc);
            acc += c;
        }
        fanout_off.push(acc);
        let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
        let mut fanout = vec![0u32; acc as usize];
        for (id, cell) in netlist.iter() {
            for &f in cell.fanin() {
                fanout[cursor[f.index()] as usize] = id.index() as u32;
                cursor[f.index()] += 1;
            }
        }

        // Level-major evaluation order: bucket the evaluable cells by level.
        // Netlist ids are assigned in creation order, so within a level the
        // ascending-id sweep below is already deterministic.
        let mut level = vec![0u32; n];
        let mut max_level = 0u32;
        for &id in levelization.order() {
            let l = levelization.level(id);
            level[id.index()] = l;
            max_level = max_level.max(l);
        }
        let mut bucket_counts = vec![0u32; max_level as usize + 1];
        for &id in levelization.order() {
            bucket_counts[level[id.index()] as usize - 1] += 1;
        }
        let mut level_starts = Vec::with_capacity(max_level as usize + 1);
        let mut acc = 0u32;
        level_starts.push(0);
        for &c in &bucket_counts {
            acc += c;
            level_starts.push(acc);
        }
        let mut order = vec![0u32; levelization.order().len()];
        let mut cursor: Vec<u32> = level_starts[..max_level as usize].to_vec();
        for id in 0..n as u32 {
            let l = level[id as usize];
            if l == 0 {
                continue; // source: not evaluated
            }
            order[cursor[l as usize - 1] as usize] = id;
            cursor[l as usize - 1] += 1;
        }
        let mut topo_pos = vec![u32::MAX; n];
        for (pos, &id) in order.iter().enumerate() {
            topo_pos[id as usize] = pos as u32;
        }

        Ok(CompiledCircuit {
            name: netlist.name().to_string(),
            kinds,
            fanin_off,
            fanin,
            fanout_off,
            fanout,
            order,
            level_starts,
            level,
            topo_pos,
            inputs: netlist.inputs().iter().map(|c| c.index() as u32).collect(),
            outputs: netlist.outputs().iter().map(|c| c.index() as u32).collect(),
            flip_flops: netlist
                .flip_flops()
                .iter()
                .map(|c| c.index() as u32)
                .collect(),
            depth: levelization.depth(),
        })
    }

    /// [`CompiledCircuit::compile`] straight into an
    /// [`Arc`](std::sync::Arc), the form the execution layer's campaigns
    /// hand to worker threads.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::NetlistError::CombinationalCycle`] like
    /// [`CompiledCircuit::compile`].
    pub fn compile_shared(netlist: &Netlist) -> Result<std::sync::Arc<Self>> {
        Self::compile(netlist).map(std::sync::Arc::new)
    }

    /// Design name carried over from the source netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells (dense id space is `0..cell_count() as u32`).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of cell `id`.
    #[inline]
    pub fn kind(&self, id: u32) -> CellKind {
        self.kinds[id as usize]
    }

    /// SoA view of all cell kinds, indexed by dense id.
    #[inline]
    pub fn kinds(&self) -> &[CellKind] {
        &self.kinds
    }

    /// Fanin pins of cell `id`, in pin order.
    #[inline]
    pub fn fanin(&self, id: u32) -> &[u32] {
        &self.fanin[self.fanin_off[id as usize] as usize..self.fanin_off[id as usize + 1] as usize]
    }

    /// Readers of cell `id` (one entry per reading pin).
    #[inline]
    pub fn readers(&self, id: u32) -> &[u32] {
        &self.fanout
            [self.fanout_off[id as usize] as usize..self.fanout_off[id as usize + 1] as usize]
    }

    /// Level-major topological order of every evaluable cell.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Cells at logic level `l` (1-based; level 0 holds only sources).
    ///
    /// # Panics
    ///
    /// Panics if `l == 0` or `l > self.levels()`.
    #[inline]
    pub fn level_cells(&self, l: usize) -> &[u32] {
        &self.order[self.level_starts[l - 1] as usize..self.level_starts[l] as usize]
    }

    /// Number of populated logic levels (the deepest cell's level).
    #[inline]
    pub fn levels(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// Logic level of cell `id` (0 for sources).
    #[inline]
    pub fn level_of(&self, id: u32) -> u32 {
        self.level[id as usize]
    }

    /// Position of cell `id` in [`Self::order`], or `u32::MAX` for sources.
    #[inline]
    pub fn topo_pos(&self, id: u32) -> u32 {
        self.topo_pos[id as usize]
    }

    /// Structural logic depth, excluding output markers (matches
    /// [`analysis::Levelization::depth`]).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Primary inputs, in registry order.
    #[inline]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Primary output markers, in registry order.
    #[inline]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Flip-flops (plain and scan), in registry order.
    #[inline]
    pub fn flip_flops(&self) -> &[u32] {
        &self.flip_flops
    }

    /// Convenience: dense id of a [`CellId`].
    #[inline]
    pub fn id_of(&self, cell: CellId) -> u32 {
        cell.index() as u32
    }

    /// Convenience: [`CellId`] of a dense id.
    #[inline]
    pub fn cell_id(&self, id: u32) -> CellId {
        CellId::from_index(id as usize)
    }
}

// Send/Sync audit: the snapshot is plain owned data (Strings and Vecs of
// Copy types, no interior mutability, no raw pointers), so worker threads
// may walk one instance concurrently. All *mutable* per-run state lives in
// the simulators' split-out scratch (value / undo / bucket buffers, the
// deviation-replay engine downstream), which is per-worker by
// construction. This assertion turns an accidental future `Cell`/`Rc` into
// a compile error instead of a runtime data race.
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<CompiledCircuit>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FanoutMap;
    use crate::generate::{generate_circuit, GeneratorConfig};

    fn sample() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "compiled".into(),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 9,
            gates: 90,
            logic_depth: 7,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 1234,
        })
        .expect("generates")
    }

    #[test]
    fn mirrors_graph_structure() {
        let n = sample();
        let c = CompiledCircuit::compile(&n).unwrap();
        assert_eq!(c.cell_count(), n.cell_count());
        let fo = FanoutMap::compute(&n);
        for (id, cell) in n.iter() {
            let d = id.index() as u32;
            assert_eq!(c.kind(d), cell.kind());
            let pins: Vec<u32> = cell.fanin().iter().map(|f| f.index() as u32).collect();
            assert_eq!(c.fanin(d), pins.as_slice());
            let mut graph_readers: Vec<u32> =
                fo.readers(id).iter().map(|r| r.index() as u32).collect();
            let mut csr_readers: Vec<u32> = c.readers(d).to_vec();
            graph_readers.sort_unstable();
            csr_readers.sort_unstable();
            assert_eq!(csr_readers, graph_readers);
        }
        assert_eq!(c.inputs().len(), n.inputs().len());
        assert_eq!(c.outputs().len(), n.outputs().len());
        assert_eq!(c.flip_flops().len(), n.flip_flops().len());
    }

    #[test]
    fn order_is_topological_and_level_major() {
        let n = sample();
        let c = CompiledCircuit::compile(&n).unwrap();
        // Every evaluable cell appears exactly once.
        let lv = crate::analysis::Levelization::compute(&n).unwrap();
        assert_eq!(c.order().len(), lv.order().len());
        // Fanins are evaluated before readers, and levels never decrease.
        let mut last_level = 0;
        for (pos, &id) in c.order().iter().enumerate() {
            assert_eq!(c.topo_pos(id), pos as u32);
            assert!(c.level_of(id) >= last_level, "level-major violated");
            last_level = c.level_of(id);
            for &f in c.fanin(id) {
                assert!(
                    c.level_of(f) == 0 || c.topo_pos(f) < pos as u32,
                    "fanin after reader"
                );
            }
        }
        // Level segments partition the order consistently.
        let mut total = 0;
        for l in 1..=c.levels() {
            for &id in c.level_cells(l) {
                assert_eq!(c.level_of(id) as usize, l);
                total += 1;
            }
        }
        assert_eq!(total, c.order().len());
        assert_eq!(c.depth(), lv.depth());
    }

    #[test]
    fn sources_are_not_in_the_order() {
        let n = sample();
        let c = CompiledCircuit::compile(&n).unwrap();
        for &pi in c.inputs() {
            assert_eq!(c.level_of(pi), 0);
            assert_eq!(c.topo_pos(pi), u32::MAX);
        }
        for &ff in c.flip_flops() {
            assert_eq!(c.level_of(ff), 0);
            assert_eq!(c.topo_pos(ff), u32::MAX);
        }
    }

    #[test]
    fn compiled_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<CompiledCircuit>();
    }
}
