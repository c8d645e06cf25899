//! Content-addressed compiled-circuit cache.
//!
//! The unit of reuse is a [`CompiledEntry`]: a styled netlist plus its
//! [`CompiledCircuit`] behind an `Arc`, keyed by `(content_key, DFT
//! style)`. Entries are found in two hops:
//!
//! 1. **raw key → content key** — a small memo over
//!    [`CircuitSource::raw_key`] lets a repeat submission skip the
//!    parse/generate step entirely (counted as `serve.cache.parse_skips`);
//! 2. **content key → entry** — the compiled table proper, shared across
//!    spellings of the same circuit, LRU-evicted at `capacity`.
//!
//! Both tables are `BTreeMap`s (deterministic iteration; this crate is
//! covered by `scripts/determinism_lint.sh`) and recency is a logical
//! tick, not wall clock, so eviction order is a pure function of the
//! access sequence. Hit/miss/eviction totals surface as flh-obs named
//! counters (`serve.cache.*`) and as a plain [`CacheStats`] for callers
//! asserting without the recorder installed.

use std::collections::BTreeMap;
use std::sync::Arc;

use flh_core::{apply_style, DftStyle};
use flh_netlist::{CompiledCircuit, Netlist, Program};

use crate::source::{content_key, CircuitSource};

/// Default number of compiled entries a cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// A cached, compiled circuit: the netlist *after* optional DFT styling,
/// and its compiled form, shared by `Arc` with every job that hits.
#[derive(Debug)]
pub struct CompiledEntry {
    /// The styled netlist the entry was compiled from.
    pub netlist: Netlist,
    /// Its compiled evaluation structure.
    pub compiled: Arc<CompiledCircuit>,
    /// The lowered bytecode program every simulation job executes.
    pub program: Arc<Program>,
    /// Content key of the *base* (pre-styling) netlist.
    pub content_key: u64,
}

/// How a lookup was served — reported in job `started` events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLookup {
    /// The compiled entry was already present (no styling, no compile).
    pub hit: bool,
    /// The raw-key memo was warm, so the source was not re-parsed or
    /// regenerated (implied by `hit`, but also possible on a style miss
    /// over a known circuit).
    pub parse_skipped: bool,
}

/// Monotonic totals since the cache was created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiled-entry hits.
    pub hits: u64,
    /// Compiled-entry misses (entry had to be built).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Lookups that skipped parse/generate via the raw-key memo.
    pub parse_skips: u64,
}

/// Key of one compiled entry: base-netlist content plus the DFT styling
/// applied on top (`DftStyle` has no `Ord`, so it is ranked manually).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EntryKey {
    content: u64,
    style_rank: u8,
}

fn style_rank(dft: Option<DftStyle>) -> u8 {
    match dft {
        None => 0,
        Some(DftStyle::PlainScan) => 1,
        Some(DftStyle::EnhancedScan) => 2,
        Some(DftStyle::MuxHold) => 3,
        Some(DftStyle::Flh) => 4,
    }
}

/// The cache. Not internally synchronized — the
/// [`JobEngine`](crate::JobEngine) wraps it in a `Mutex` and performs
/// every access on the executing job's thread.
#[derive(Debug)]
pub struct CircuitCache {
    capacity: usize,
    tick: u64,
    sources: BTreeMap<u64, (u64, u64)>,
    entries: BTreeMap<EntryKey, (Arc<CompiledEntry>, u64)>,
    stats: CacheStats,
}

impl CircuitCache {
    /// A cache retaining at most `capacity` compiled entries (clamped to
    /// at least one) and `4 × capacity` raw-key memos.
    pub fn new(capacity: usize) -> Self {
        CircuitCache {
            capacity: capacity.max(1),
            tick: 0,
            sources: BTreeMap::new(),
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Compiled-entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of compiled entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no compiled entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Totals since creation.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Returns the compiled entry for `source` styled with `dft`, building
    /// (and caching) it on a miss.
    ///
    /// # Errors
    ///
    /// Load, styling or compile failures, as a display string.
    pub fn get_or_compile(
        &mut self,
        source: &CircuitSource,
        dft: Option<DftStyle>,
    ) -> Result<(Arc<CompiledEntry>, CacheLookup), String> {
        let raw = source.raw_key();
        let tick = self.next_tick();

        // Hop 1: raw request → content key, skipping parse/generate when warm.
        let (content, base, parse_skipped) = match self.sources.get_mut(&raw) {
            Some((content, last_used)) => {
                *last_used = tick;
                (*content, None, true)
            }
            None => {
                let netlist = source.load()?;
                let content = content_key(&netlist);
                self.sources.insert(raw, (content, tick));
                if self.sources.len() > 4 * self.capacity {
                    if let Some(oldest) = self
                        .sources
                        .iter()
                        .min_by_key(|(_, (_, t))| *t)
                        .map(|(k, _)| *k)
                    {
                        self.sources.remove(&oldest);
                    }
                }
                (content, Some(netlist), false)
            }
        };
        if parse_skipped {
            self.stats.parse_skips += 1;
            flh_obs::named_add("serve.cache.parse_skips", 1);
        }

        // Hop 2: content × style → compiled entry.
        let key = EntryKey {
            content,
            style_rank: style_rank(dft),
        };
        if let Some((entry, last_used)) = self.entries.get_mut(&key) {
            *last_used = tick;
            self.stats.hits += 1;
            flh_obs::named_add("serve.cache.hits", 1);
            return Ok((
                Arc::clone(entry),
                CacheLookup {
                    hit: true,
                    parse_skipped,
                },
            ));
        }

        self.stats.misses += 1;
        flh_obs::named_add("serve.cache.misses", 1);
        let base = match base {
            Some(netlist) => netlist,
            // Raw memo was warm but the styled entry is gone (first style
            // request, or evicted): reload from the source.
            None => source.load()?,
        };
        let styled = match dft {
            None => base,
            Some(style) => {
                apply_style(&base, style)
                    .map_err(|e| format!("{}: applying {}: {e}", source.name(), style.label()))?
                    .netlist
            }
        };
        let compiled = CompiledCircuit::compile_shared(&styled)
            .map_err(|e| format!("{}: compile failed: {e}", source.name()))?;
        let program = Program::lower_shared(&compiled);
        let entry = Arc::new(CompiledEntry {
            netlist: styled,
            compiled,
            program,
            content_key: content,
        });
        self.entries.insert(key, (Arc::clone(&entry), tick));
        while self.entries.len() > self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
                flh_obs::named_add("serve.cache.evictions", 1);
            }
        }
        Ok((
            entry,
            CacheLookup {
                hit: false,
                parse_skipped,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_lookup_hits_and_shares_the_entry() {
        let mut cache = CircuitCache::new(4);
        let src = CircuitSource::named("s298").unwrap();
        let (first, lookup) = cache.get_or_compile(&src, None).unwrap();
        assert_eq!(
            lookup,
            CacheLookup {
                hit: false,
                parse_skipped: false
            }
        );
        let (second, lookup) = cache.get_or_compile(&src, None).unwrap();
        assert_eq!(
            lookup,
            CacheLookup {
                hit: true,
                parse_skipped: true
            }
        );
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.parse_skips), (1, 1, 1));
    }

    #[test]
    fn style_variants_are_distinct_entries_over_one_parse() {
        let mut cache = CircuitCache::new(4);
        let src = CircuitSource::named("s298").unwrap();
        let (base, _) = cache.get_or_compile(&src, None).unwrap();
        let (es, lookup) = cache
            .get_or_compile(&src, Some(DftStyle::EnhancedScan))
            .unwrap();
        // Different entry (enhanced scan inserts a hold latch per FF), but
        // the raw-key memo spared the regenerate.
        assert!(!Arc::ptr_eq(&base, &es));
        assert!(lookup.parse_skipped && !lookup.hit);
        assert_eq!(base.content_key, es.content_key);
        assert!(es.netlist.cell_count() > base.netlist.cell_count());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = CircuitCache::new(2);
        let a = CircuitSource::named("s298").unwrap();
        let b = CircuitSource::named("s344").unwrap();
        let c = CircuitSource::named("s420").unwrap();
        cache.get_or_compile(&a, None).unwrap();
        cache.get_or_compile(&b, None).unwrap();
        cache.get_or_compile(&a, None).unwrap(); // refresh a; b is now coldest
        cache.get_or_compile(&c, None).unwrap(); // evicts b
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (_, lookup) = cache.get_or_compile(&a, None).unwrap();
        assert!(lookup.hit, "a survived");
        let (_, lookup) = cache.get_or_compile(&b, None).unwrap();
        assert!(!lookup.hit, "b was evicted");
    }
}
