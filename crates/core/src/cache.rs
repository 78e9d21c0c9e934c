//! Epoch-keyed query result cache, swept by each publish's change set.
//!
//! The cache holds results for exactly one epoch of its table. A lookup
//! hits only when it comes from a snapshot of that epoch, and an insert
//! lands only from one; a reader still holding an older snapshot can
//! neither read nor write the cache, so every entry was computed at the
//! cache's epoch. That makes the writer's [`crate::ChangeSet`] — the one
//! comparison of two table states, which copy-on-write makes the exact
//! dirty set — the only input invalidation needs. Before the pointer
//! swap, `TableWriter::publish` hands the cache that set and the new
//! epoch: a publish that re-versions any partition empties the cache
//! (every entry depends on its whole table), one that only re-versions
//! indexes drops the entries whose plans bind them, and the survivors
//! move to the new epoch.
//!
//! The cache itself is plan-agnostic: the planner supplies an opaque
//! fingerprint hash plus the canonical plan bytes behind it. Entries
//! are verified against those bytes on every hit, so a fingerprint
//! collision degrades to a miss, never to a wrong result.
//!
//! A cache serves exactly one table: `ConcurrentTable` takes it by value
//! and moves it to the table's first epoch, so no second table can reach
//! its entries.
//!
//! Layout: one map under one lock, one byte budget, evicted LRU by a
//! use tick.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pi_exec::Batch;
use pi_obs::{Counter, MetricsRegistry};

use crate::snapshot::ChangeSet;

#[derive(Debug)]
struct Entry {
    /// Canonical plan bytes, verified on every hit (collision guard).
    canon: Arc<[u8]>,
    rows: Batch,
    /// The index slots the plan binds.
    slots: Box<[usize]>,
    last_used: u64,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    /// The epoch every entry was computed at.
    epoch: u64,
}

/// Counter snapshot of a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no entry for their epoch.
    pub misses: u64,
    /// Entries a publish removed because their table or a bound index
    /// changed.
    pub invalidated: u64,
    /// Entries removed to stay inside the byte budget.
    pub evicted: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Result bytes currently resident.
    pub bytes: u64,
}

/// A byte-budgeted query result cache. See the module docs.
///
/// Lookups identify entries by fingerprint hash and verify the canonical
/// plan bytes and the epoch. The counters are `pi-obs` [`Counter`]
/// handles — private to this cache by default, or shared with a
/// [`MetricsRegistry`] (under `cache.*` names) via
/// [`ResultCache::with_registry`]; either way the mutex is held only for
/// the map operation itself.
#[derive(Debug)]
pub struct ResultCache {
    entries: Mutex<Entries>,
    budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidated: Arc<Counter>,
    evicted: Arc<Counter>,
}

impl ResultCache {
    /// Default byte budget (64 MiB).
    pub const DEFAULT_BUDGET: usize = 64 << 20;

    /// Creates a cache with the given byte budget. Counters are private
    /// to this cache.
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            entries: Mutex::default(),
            budget: budget_bytes,
            hits: Arc::new(Counter::default()),
            misses: Arc::new(Counter::default()),
            invalidated: Arc::new(Counter::default()),
            evicted: Arc::new(Counter::default()),
        }
    }

    /// Like [`ResultCache::new`], but the counters live in `registry`
    /// as `cache.hits` / `cache.misses` / `cache.invalidated` /
    /// `cache.evicted`, so the cache shows up in registry snapshots.
    /// [`ResultCache::stats`] keeps reporting the same numbers — it is
    /// a thin view over the shared handles.
    pub fn with_registry(budget_bytes: usize, registry: &MetricsRegistry) -> Self {
        ResultCache {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            invalidated: registry.counter("cache.invalidated"),
            evicted: registry.counter("cache.evicted"),
            ..ResultCache::new(budget_bytes)
        }
    }

    /// Looks up `hash` for a snapshot at `epoch`. Returns the cached rows
    /// only when `epoch` is the cache's epoch and the canonical bytes
    /// match (collision guard). Removes nothing.
    pub fn lookup(&self, hash: u64, canon: &[u8], epoch: u64) -> Option<Batch> {
        let mut entries = self.entries.lock();
        entries.tick += 1;
        let (tick, current) = (entries.tick, entries.epoch == epoch);
        let rows = (entries.map.get_mut(&hash))
            .filter(|e| current && *e.canon == *canon)
            .map(|e| {
                e.last_used = tick;
                e.rows.clone()
            });
        drop(entries);
        match rows {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        rows
    }

    /// Inserts (or replaces) the result a snapshot at `epoch` computed
    /// with a plan binding the index `slots`, then evicts
    /// least-recently-used entries until the cache is back inside its
    /// budget. A no-op unless `epoch` is the cache's epoch. An entry
    /// larger than the whole budget is not inserted and evicts nothing
    /// else; it counts as one eviction.
    pub fn insert(&self, hash: u64, canon: Arc<[u8]>, epoch: u64, rows: Batch, slots: &[usize]) {
        // Entry overhead: map slot and bookkeeping, approximated.
        let bytes = canon.len() + rows.heap_bytes() + 96;
        let mut entries = self.entries.lock();
        if entries.epoch != epoch {
            return;
        }
        if bytes > self.budget {
            drop(entries);
            self.evicted.inc();
            return;
        }
        let mut evictions = 0u64;
        entries.tick += 1;
        let tick = entries.tick;
        if let Some(old) = entries.map.insert(
            hash,
            Entry {
                canon,
                rows,
                slots: slots.into(),
                last_used: tick,
                bytes,
            },
        ) {
            entries.bytes -= old.bytes;
        }
        entries.bytes += bytes;
        while entries.bytes > self.budget {
            let lru = entries
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&h, _)| h)
                .expect("over budget implies non-empty");
            let e = entries.map.remove(&lru).expect("key from live iteration");
            entries.bytes -= e.bytes;
            evictions += 1;
        }
        drop(entries);
        if evictions > 0 {
            self.evicted.add(evictions);
        }
    }

    /// Empties the cache and moves it to `epoch`, the first epoch of the
    /// table that takes it.
    pub(crate) fn start_at(&mut self, epoch: u64) {
        *self.entries.get_mut() = Entries {
            epoch,
            ..Entries::default()
        };
    }

    /// A publish's sweep, run before the new snapshot becomes visible:
    /// `changes` goes from the cache's epoch to `epoch`. A re-versioned
    /// partition empties the cache; otherwise an entry survives only if
    /// each slot its plan binds still holds the same index. The cache
    /// then moves to `epoch`. Returns how many entries were invalidated.
    pub(crate) fn advance(&self, changes: &ChangeSet, epoch: u64) -> u64 {
        let table_written = changes.same_partition.iter().any(|same| !same);
        let kept = |slot: &usize| changes.index_from.get(*slot) == Some(&Some(*slot));
        let mut entries = self.entries.lock();
        let before = entries.map.len();
        let mut freed = 0usize;
        entries.map.retain(|_, e| {
            let keep = !table_written && e.slots.iter().all(kept);
            if !keep {
                freed += e.bytes;
            }
            keep
        });
        let removed = (before - entries.map.len()) as u64;
        entries.bytes -= freed;
        entries.epoch = epoch;
        drop(entries);
        if removed > 0 {
            self.invalidated.add(removed);
        }
        removed
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let e = self.entries.lock();
            (e.map.len() as u64, e.bytes as u64)
        };
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidated: self.invalidated.get(),
            evicted: self.evicted.get(),
            entries,
            bytes,
        }
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(Self::DEFAULT_BUDGET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint, Design};
    use crate::index::PatchIndex;
    use crate::indexed::IndexedTable;
    use crate::snapshot::ConcurrentTable;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

    fn table(parts: usize) -> Table {
        let mut t = Table::new(
            "c",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            let base = (pid * 10) as i64;
            t.load_partition(pid, &[ColumnData::Int((base..base + 5).collect())]);
        }
        t.propagate_all();
        t
    }

    fn nuc(t: &Table) -> Arc<PatchIndex> {
        Arc::new(PatchIndex::create(
            t,
            0,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ))
    }

    /// The change set of a publish from (`t`, `indexes`) to
    /// (`next`, `next_indexes`).
    fn changes(
        t: &Table,
        indexes: &[Arc<PatchIndex>],
        next: &Table,
        next_indexes: &[Arc<PatchIndex>],
    ) -> ChangeSet {
        ChangeSet::between(t.partitions(), indexes, next.partitions(), next_indexes)
    }

    fn canon(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag, 1, 2, 3].into_boxed_slice())
    }

    /// A one-row result holding `v`.
    fn rows(v: i64) -> Batch {
        Batch::new(vec![ColumnData::Int(vec![v])])
    }

    fn value(b: Option<Batch>) -> Option<Vec<i64>> {
        b.map(|b| b.column(0).as_int().to_vec())
    }

    #[test]
    fn hit_requires_matching_canonical_bytes() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(42, canon(1), 0, rows(5), &[]);
        // Same hash, different canonical form: a manufactured
        // fingerprint collision must miss, not serve the wrong result.
        assert!(cache.lookup(42, &canon(2), 0).is_none());
        assert_eq!(value(cache.lookup(42, &canon(1), 0)), Some(vec![5]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Only a reader of the cache's epoch reads or writes it: a reader
    /// holding an older snapshot misses without removing the resident
    /// entry, and its insert neither adds nor replaces one.
    #[test]
    fn an_older_snapshot_never_displaces_a_newer_entry() {
        let mut cache = ResultCache::new(1 << 20);
        cache.start_at(1);
        cache.insert(7, canon(7), 1, rows(2), &[]);
        assert!(cache.lookup(7, &canon(7), 0).is_none());
        cache.insert(7, canon(7), 0, rows(1), &[]);
        cache.insert(8, canon(8), 0, rows(1), &[]);
        assert!(cache.lookup(8, &canon(8), 0).is_none());
        assert_eq!(value(cache.lookup(7, &canon(7), 1)), Some(vec![2]));
        let stats = cache.stats();
        assert_eq!((stats.invalidated, stats.entries), (0, 1), "{stats:?}");
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
    }

    /// A reader still on the epoch a publish left behind misses, answers
    /// from its own snapshot — its epoch's rows, not the new one's — and
    /// leaves nothing in the cache for the new epoch to hit.
    #[test]
    fn an_old_epoch_reader_after_a_publish_misses_answers_exactly_and_inserts_nothing() {
        let (handle, mut writer) = ConcurrentTable::with_result_cache(
            IndexedTable::new(table(2)),
            ResultCache::new(1 << 20),
        );
        let cache = handle.result_cache().expect("a cached table");
        let count = |t: &Table| rows(t.visible_len() as i64);
        let old = handle.snapshot();
        cache.insert(1, canon(1), old.epoch(), count(old.table()), &[]);

        writer.insert(&[vec![Value::Int(99)]]);
        let epoch = writer.publish();
        assert_eq!(cache.stats().invalidated, 1);

        // The miss sends the reader to its own snapshot, which answers
        // with its epoch's count; that result does not land.
        assert!(cache.lookup(1, &canon(1), old.epoch()).is_none());
        assert_eq!(old.table().visible_len(), 10);
        cache.insert(1, canon(1), old.epoch(), count(old.table()), &[]);
        assert_eq!(cache.stats().entries, 0, "the old reader inserted nothing");

        let new = handle.snapshot();
        assert_eq!(new.epoch(), epoch);
        assert!(cache.lookup(1, &canon(1), epoch).is_none());
        cache.insert(1, canon(1), epoch, count(new.table()), &[]);
        assert_eq!(value(cache.lookup(1, &canon(1), epoch)), Some(vec![11]));
    }

    #[test]
    fn publish_sweep_removes_only_dirty_footprints() {
        let cache = ResultCache::new(1 << 20);
        let t = table(3);
        let indexes = [nuc(&t)];
        cache.insert(1, canon(1), 0, rows(1), &[]);
        cache.insert(2, canon(2), 0, rows(2), &[0]);

        // A publish that only re-versions the index keeps the entry that
        // does not bind it, and the survivor hits at the new epoch.
        let recomputed = [nuc(&t)];
        assert_eq!(cache.advance(&changes(&t, &indexes, &t, &recomputed), 1), 1);
        assert_eq!(value(cache.lookup(1, &canon(1), 1)), Some(vec![1]));
        assert!(cache.lookup(2, &canon(2), 1).is_none());

        // "Publish": clone-then-append rewrites partition 1's Arc only,
        // and every entry of the table depends on it.
        cache.insert(3, canon(3), 1, rows(3), &[0]);
        let mut next = t.clone();
        next.load_partition(1, &[ColumnData::Int(vec![1000])]);
        let written = changes(&t, &recomputed, &next, &recomputed);
        assert_eq!(cache.advance(&written, 2), 2);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidated, 3);
    }

    #[test]
    fn index_pointer_change_invalidates() {
        let cache = ResultCache::new(1 << 20);
        let t = table(2);
        let indexes = [nuc(&t)];
        cache.insert(5, canon(5), 0, rows(9), &[0]);
        // A recomputed (new-Arc) index at the slot invalidates.
        let recomputed = [nuc(&t)];
        assert_eq!(cache.advance(&changes(&t, &indexes, &t, &recomputed), 1), 1);
        assert!(cache.lookup(5, &canon(5), 1).is_none());
        // A dropped slot (shorter index vec) invalidates too.
        cache.insert(5, canon(5), 1, rows(9), &[0]);
        assert_eq!(cache.advance(&changes(&t, &recomputed, &t, &[]), 2), 1);
        assert!(cache.lookup(5, &canon(5), 2).is_none());
        // So does an index that only moved slot: the entry's plan names
        // the old slot.
        let two = [nuc(&t), nuc(&t)];
        cache.insert(6, canon(6), 2, rows(9), &[1]);
        let moved = changes(&t, &two, &t, std::slice::from_ref(&two[1]));
        assert_eq!(moved.index_from, [Some(1)]);
        assert_eq!(cache.advance(&moved, 3), 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Tiny budget: fits a handful of small entries.
        let cache = ResultCache::new(512);
        for i in 0..8u64 {
            cache.insert(i, canon(i as u8), 0, rows(i as i64), &[]);
        }
        let stats = cache.stats();
        assert!(stats.evicted > 0, "budget must force evictions: {stats:?}");
        assert!(stats.bytes <= 512);
        // The most recently inserted entry survived.
        assert!(cache.lookup(7, &canon(7), 0).is_some());
    }

    #[test]
    fn oversized_value_does_not_blow_the_budget() {
        let cache = ResultCache::new(1024);
        let big = Batch::new(vec![ColumnData::Int(vec![0; 4096])]);
        cache.insert(1, canon(1), 0, big, &[]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "{stats:?}");
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evicted, 1);
    }

    /// The budget is one pool: a result far larger than a sixteenth of it
    /// is cached while the cache is otherwise empty.
    #[test]
    fn an_entry_larger_than_a_sixteenth_of_the_budget_is_cached() {
        let cache = ResultCache::new(1 << 20);
        let big = Batch::new(vec![ColumnData::Int(vec![7; 25_600])]);
        assert!(big.heap_bytes() >= 200 << 10);
        cache.insert(1, canon(1), 0, big, &[]);
        let got = cache.lookup(1, &canon(1), 0);
        assert_eq!(got.map(|b| b.len()), Some(25_600));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (1, 0), "{stats:?}");
    }

    #[test]
    fn registry_backed_counters_are_shared() {
        let reg = MetricsRegistry::new();
        let cache = ResultCache::with_registry(1 << 20, &reg);
        assert!(cache.lookup(1, &canon(1), 0).is_none());
        cache.insert(1, canon(1), 0, rows(7), &[]);
        assert!(cache.lookup(1, &canon(1), 0).is_some());
        // Same numbers through both views: the registry and stats().
        assert_eq!(reg.counter("cache.hits").get(), 1);
        assert_eq!(reg.counter("cache.misses").get(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn stats_track_entries_and_bytes() {
        let cache = ResultCache::new(1 << 20);
        let t = table(1);
        let indexes = [nuc(&t)];
        cache.insert(1, canon(1), 0, rows(1), &[]);
        cache.insert(2, canon(2), 0, rows(2), &[]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        // Invalidation frees the bytes it removes.
        cache.insert(3, canon(3), 0, rows(3), &[0]);
        let with_third = cache.stats().bytes;
        assert!(with_third > stats.bytes);
        let recomputed = [nuc(&t)];
        assert_eq!(cache.advance(&changes(&t, &indexes, &t, &recomputed), 1), 1);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().bytes, stats.bytes);
    }

    #[test]
    fn oversized_insert_evicts_nothing_else() {
        let cache = ResultCache::new(512);
        // A small entry, then one that can never fit the budget.
        cache.insert(1, canon(1), 0, rows(1), &[]);
        let big = Batch::new(vec![ColumnData::Int(vec![0; 4096])]);
        cache.insert(2, canon(2), 0, big, &[]);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (1, 1), "{stats:?}");
        assert!(cache.lookup(1, &canon(1), 0).is_some());
        assert!(cache.lookup(2, &canon(2), 0).is_none());
    }
}
