//! Cross-batch fault dropping.
//!
//! A fault-simulation campaign drops a fault the moment it is detected:
//! later batches and later calls must never replay it again. Inside one
//! shard that is a local `detected` flag — but a campaign that runs in
//! *stages* (incremental pattern blocks, repeated pooled calls) needs the
//! flags to survive between calls and to round-trip through the shard
//! partitioning. [`DropMask`] is that persistent flag set: shards gather a
//! snapshot of their flags on the way in ([`DropMask::shard`]) and scatter
//! their updated flags back on the way out ([`DropMask::merge_shard`]),
//! both through the shard's range list from
//! [`ThreadPool::partition_min`](crate::ThreadPool::partition_min).
//! Because the shards of one deal are disjoint and flags only ever go
//! `false → true`, the merged mask is independent of shard count and
//! completion order — the same determinism contract as the rest of this
//! crate.

use std::ops::Range;

/// Persistent per-fault drop flags for a staged simulation campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DropMask {
    flags: Vec<bool>,
}

impl DropMask {
    /// All-clear mask for `len` faults.
    pub fn new(len: usize) -> Self {
        DropMask {
            flags: vec![false; len],
        }
    }

    /// Number of faults tracked.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True if the mask tracks no faults.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The full flag slice, indexed by fault id.
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// True if fault `i` has been dropped.
    pub fn is_dropped(&self, i: usize) -> bool {
        self.flags[i]
    }

    /// Drops fault `i` directly (collapsing, external verdicts).
    pub fn drop_fault(&mut self, i: usize) {
        self.flags[i] = true;
    }

    /// Number of dropped faults.
    pub fn dropped(&self) -> usize {
        self.flags.iter().filter(|&&f| f).count()
    }

    /// Snapshot of the flags for one shard (an ascending range list), in
    /// shard order, to seed a worker's local `detected` vector.
    pub fn shard(&self, shard: &[Range<usize>]) -> Vec<bool> {
        crate::pool::gather(&self.flags, shard)
    }

    /// Merges a shard's updated flags back through its range list. Flags
    /// are monotone (`false → true` only): a fault dropped before the
    /// shard ran stays dropped even if the shard's copy went stale.
    ///
    /// # Panics
    ///
    /// Panics if `flags` does not match the shard's total length.
    pub fn merge_shard(&mut self, shard: &[Range<usize>], flags: &[bool]) {
        let len: usize = shard.iter().map(|r| r.len()).sum();
        assert_eq!(len, flags.len(), "shard flag length mismatch");
        let mut newly_dropped = 0u64;
        let slots = shard.iter().flat_map(|r| r.clone());
        for (slot, &f) in slots.zip(flags) {
            newly_dropped += u64::from(f && !self.flags[slot]);
            self.flags[slot] |= f;
        }
        if flh_obs::enabled() {
            // Which faults flip is decided by the patterns alone; the
            // shards of a deal are disjoint, so the total is shard-count
            // invariant.
            flh_obs::add(flh_obs::Counter::FaultsDropped, newly_dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    /// Drops every fault whose id is a multiple of 3 or 7, shard by shard,
    /// merging in reverse shard order; returns the mask and the recorded
    /// `faults.dropped` total.
    fn dealt_round(len: usize, parts: usize) -> (DropMask, u64) {
        let mut mask = DropMask::new(len);
        mask.drop_fault(1);
        let shards = ThreadPool::partition_min(len, parts, 8);
        let updated: Vec<Vec<bool>> = shards
            .iter()
            .map(|shard| {
                let mut flags = mask.shard(shard);
                let ids = shard.iter().flat_map(|r| r.clone());
                for (f, id) in flags.iter_mut().zip(ids) {
                    *f |= id % 3 == 0 || id % 7 == 0;
                }
                flags
            })
            .collect();
        // Only this test merges non-empty flags in this binary, so the
        // counter's growth across the merges is this round's total.
        flh_obs::install(false);
        let before = dropped_counter();
        for (shard, flags) in shards.iter().zip(&updated).rev() {
            mask.merge_shard(shard, flags);
        }
        (mask, dropped_counter() - before)
    }

    fn dropped_counter() -> u64 {
        let name = flh_obs::Counter::FaultsDropped.name();
        flh_obs::snapshot()
            .counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn dealt_round_trip_is_monotone_and_shard_count_free() {
        let expected: Vec<bool> = (0..100)
            .map(|i| i == 1 || i % 3 == 0 || i % 7 == 0)
            .collect();
        let mut totals = Vec::new();
        for parts in [1, 2, 3, 4, 8] {
            let (mut mask, dropped) = dealt_round(100, parts);
            assert_eq!(mask.flags(), expected.as_slice(), "parts = {parts}");
            totals.push(dropped);
            // Merging stale all-false flags through any shard never
            // clears a flag.
            for shard in ThreadPool::partition_min(100, parts, 8) {
                let len = shard.iter().map(|r| r.len()).sum();
                mask.merge_shard(&shard, &vec![false; len]);
            }
            assert_eq!(mask.flags(), expected.as_slice(), "parts = {parts}");
        }
        // Fault 1 was dropped before the deal; every other set flag is new.
        let newly = expected.iter().filter(|&&f| f).count() as u64 - 1;
        assert_eq!(totals, vec![newly; 5]);
    }

    #[test]
    fn shard_gathers_in_shard_order() {
        let mut mask = DropMask::new(10);
        for i in [2, 5, 9] {
            mask.drop_fault(i);
        }
        assert_eq!(mask.dropped(), 3);
        assert_eq!(
            mask.shard(&[0..3, 5..6, 8..10]),
            vec![false, false, true, true, false, true]
        );
    }

    #[test]
    #[should_panic(expected = "shard flag length mismatch")]
    fn merge_rejects_wrong_length() {
        DropMask::new(4).merge_shard(&[0..2, 3..4], &[true]);
    }
}
