//! Epoch-keyed query result cache with pointer-identity invalidation.
//!
//! Copy-on-write publishing (see [`crate::snapshot`]) makes a partition
//! or index whose `Arc` is unchanged across epochs byte-identical. This
//! cache turns that into result reuse — each entry remembers the
//! **dependency footprint** of the execution that produced it (every
//! `Arc<Partition>` of its table plus the `Arc<PatchIndex>` of each
//! index slot its plan binds), and stays valid exactly as long as every
//! one of those pointers is still the live version (checked against one
//! state, at publish and at hit time; [`crate::ChangeSet`] compares
//! two). So invalidation is pointer equality, not a heuristic: a publish
//! that writes any partition of the table drops every entry of it, and a
//! publish that only re-versions an index drops the entries bound to it.
//!
//! The cache itself is plan-agnostic: the planner supplies an opaque
//! fingerprint hash plus the canonical plan bytes behind it. Entries
//! are verified against those bytes on every hit, so a fingerprint
//! collision degrades to a miss, never to a wrong result.
//!
//! A cache serves exactly one table: `ConcurrentTable` takes it by value,
//! so no second table can reach its entries, and a publish sweep reads
//! every entry against the one table's state.
//!
//! Layout: one map under one lock, one byte budget, evicted LRU by a
//! use tick. Each entry carries the epoch it was last validated at; a
//! reader holding an older snapshot never removes or replaces an entry
//! stamped with a newer one.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pi_exec::Batch;
use pi_obs::{Counter, MetricsRegistry};
use pi_storage::{Partition, Table};

use crate::index::PatchIndex;

/// The shared-state pointers one execution's result depends on: every
/// partition of its table, in order, and the indexes its plan bound. An
/// entry built from this footprint is valid for any snapshot in which
/// every pointer is still the live version.
#[derive(Debug, Clone)]
pub struct Footprint {
    partitions: Vec<Arc<Partition>>,
    indexes: Vec<(usize, Arc<PatchIndex>)>,
}

impl Footprint {
    /// Captures every partition of `table` and the index at each of the
    /// bound `slots` of `indexes`.
    pub fn new(table: &Table, indexes: &[Arc<PatchIndex>], slots: &[usize]) -> Self {
        Footprint {
            partitions: table.partitions().to_vec(),
            indexes: slots
                .iter()
                .map(|&slot| (slot, Arc::clone(&indexes[slot])))
                .collect(),
        }
    }

    /// Whether every footprint pointer is still the live version in the
    /// given snapshot state (`Arc::ptr_eq` — byte-identity by CoW).
    pub fn matches(&self, table: &Table, indexes: &[Arc<PatchIndex>]) -> bool {
        let live = table.partitions();
        live.len() == self.partitions.len()
            && self
                .partitions
                .iter()
                .zip(live)
                .all(|(p, q)| Arc::ptr_eq(p, q))
            && self
                .indexes
                .iter()
                .all(|(slot, i)| indexes.get(*slot).is_some_and(|j| Arc::ptr_eq(i, j)))
    }
}

#[derive(Debug)]
struct Entry {
    /// Canonical plan bytes, verified on every hit (collision guard).
    canon: Arc<[u8]>,
    rows: Batch,
    footprint: Footprint,
    /// The newest epoch the footprint was validated against — same-epoch
    /// lookups skip pointer checks entirely.
    epoch: u64,
    last_used: u64,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
}

/// Counter snapshot of a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Entries removed because a footprint pointer changed (publish
    /// sweeps and hit-time validation failures).
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
/// plan bytes plus — across epochs — the footprint pointers. The
/// counters are `pi-obs` [`Counter`] handles — private to this cache by
/// default, or shared with a [`MetricsRegistry`] (under `cache.*` names)
/// via [`ResultCache::with_registry`]; either way the mutex is held only
/// for the map operation itself.
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

    /// Looks up `hash` for a snapshot at `epoch` with the given
    /// live state. Returns the cached rows only when the canonical
    /// bytes match (collision guard) and the footprint still holds
    /// (pointer identity). A stale entry found by a reader at least as
    /// new as its stamp is removed on the spot — hit-time validation
    /// backstops any publish-sweep race; an older reader leaves it for
    /// the newer snapshots it is valid for.
    pub fn lookup(
        &self,
        hash: u64,
        canon: &[u8],
        epoch: u64,
        table: &Table,
        indexes: &[Arc<PatchIndex>],
    ) -> Option<Batch> {
        let mut entries = self.entries.lock();
        entries.tick += 1;
        let tick = entries.tick;
        let stale = match entries.map.get_mut(&hash) {
            Some(e) if *e.canon == *canon => {
                if e.epoch == epoch || e.footprint.matches(table, indexes) {
                    e.epoch = e.epoch.max(epoch);
                    e.last_used = tick;
                    let rows = e.rows.clone();
                    drop(entries);
                    self.hits.inc();
                    return Some(rows);
                }
                epoch > e.epoch
            }
            _ => false,
        };
        if stale {
            let e = entries.map.remove(&hash).expect("entry just matched");
            entries.bytes -= e.bytes;
            self.invalidated.inc();
        }
        drop(entries);
        self.misses.inc();
        None
    }

    /// Inserts (or replaces) an entry, then evicts least-recently-used
    /// entries until the cache is back inside its budget. An entry
    /// larger than the whole budget is not inserted and evicts nothing
    /// else; it counts as one eviction. An insert from an epoch older
    /// than the resident entry's stamp leaves the resident entry in
    /// place.
    pub fn insert(
        &self,
        hash: u64,
        canon: Arc<[u8]>,
        epoch: u64,
        rows: Batch,
        footprint: Footprint,
    ) {
        // Entry overhead: footprint pointers + map slot, approximated.
        let bytes = canon.len()
            + rows.heap_bytes()
            + 32 * (footprint.partitions.len() + footprint.indexes.len())
            + 96;
        if bytes > self.budget {
            self.evicted.inc();
            return;
        }
        let mut evictions = 0u64;
        let mut entries = self.entries.lock();
        if entries.map.get(&hash).is_some_and(|e| e.epoch > epoch) {
            return;
        }
        entries.tick += 1;
        let tick = entries.tick;
        if let Some(old) = entries.map.insert(
            hash,
            Entry {
                canon,
                rows,
                footprint,
                epoch,
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

    /// Publish-side sweep: removes every entry whose footprint no longer
    /// matches the freshly published state. Returns how many entries were
    /// invalidated.
    pub fn invalidate_stale(&self, table: &Table, indexes: &[Arc<PatchIndex>]) -> u64 {
        let mut entries = self.entries.lock();
        let before = entries.map.len();
        let mut freed = 0usize;
        entries.map.retain(|_, e| {
            let keep = e.footprint.matches(table, indexes);
            if !keep {
                freed += e.bytes;
            }
            keep
        });
        let removed = (before - entries.map.len()) as u64;
        entries.bytes -= freed;
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
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};

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

    fn canon(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag, 1, 2, 3].into_boxed_slice())
    }

    /// A one-row result holding `v`.
    fn rows(v: i64) -> Batch {
        Batch::new(vec![ColumnData::Int(vec![v])])
    }

    /// A footprint of the whole of `t`, binding no index.
    fn whole(t: &Table) -> Footprint {
        Footprint::new(t, &[], &[])
    }

    #[test]
    fn hit_requires_matching_canonical_bytes() {
        let cache = ResultCache::new(1 << 20);
        let t = table(2);
        cache.insert(42, canon(1), 0, rows(5), whole(&t));
        // Same hash, different canonical form: a manufactured
        // fingerprint collision must miss, not serve the wrong result.
        assert!(cache.lookup(42, &canon(2), 0, &t, &[]).is_none());
        let got = cache.lookup(42, &canon(1), 0, &t, &[]);
        assert_eq!(got.map(|b| b.column(0).as_int().to_vec()), Some(vec![5]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cross_epoch_hit_validates_pointers() {
        let cache = ResultCache::new(1 << 20);
        let t = table(2);
        cache.insert(9, canon(0), 3, rows(1), whole(&t));
        // A later epoch with the same partition pointers still hits...
        assert!(cache.lookup(9, &canon(0), 8, &t, &[]).is_some());
        // ...and the entry's epoch was refreshed to the validated one.
        assert!(cache.lookup(9, &canon(0), 8, &t, &[]).is_some());
        // A snapshot whose partition 0 was rewritten misses and removes
        // the entry.
        let mut other = table(2);
        other.load_partition(0, &[ColumnData::Int(vec![99])]);
        other.propagate_all();
        assert!(cache.lookup(9, &canon(0), 9, &other, &[]).is_none());
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    /// A reader holding an older snapshot neither removes nor replaces
    /// an entry stamped with a newer epoch: the entry is valid for the
    /// current state, which the older reader cannot see.
    #[test]
    fn an_older_snapshot_never_displaces_a_newer_entry() {
        let cache = ResultCache::new(1 << 20);
        let a = table(2);
        let mut b = a.clone();
        b.load_partition(1, &[ColumnData::Int(vec![1000])]);
        cache.insert(7, canon(7), 1, rows(2), whole(&b));
        assert!(cache.lookup(7, &canon(7), 0, &a, &[]).is_none());
        cache.insert(7, canon(7), 0, rows(1), whole(&a));
        let got = cache.lookup(7, &canon(7), 1, &b, &[]);
        assert_eq!(got.map(|r| r.column(0).as_int().to_vec()), Some(vec![2]));
        let stats = cache.stats();
        assert_eq!((stats.invalidated, stats.entries), (0, 1), "{stats:?}");
    }

    #[test]
    fn publish_sweep_removes_only_dirty_footprints() {
        let cache = ResultCache::new(1 << 20);
        let t = table(3);
        let idx = Arc::new(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        let indexes = [Arc::clone(&idx)];
        cache.insert(1, canon(1), 0, rows(1), whole(&t));
        cache.insert(2, canon(2), 0, rows(2), Footprint::new(&t, &indexes, &[0]));

        // A publish that only re-versions the index keeps the entry that
        // does not bind it.
        let recomputed = [Arc::new(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ))];
        assert_eq!(cache.invalidate_stale(&t, &recomputed), 1);
        assert!(cache.lookup(1, &canon(1), 1, &t, &recomputed).is_some());
        assert!(cache.lookup(2, &canon(2), 1, &t, &recomputed).is_none());

        // "Publish": clone-then-append rewrites partition 1's Arc only,
        // and every entry of the table depends on it.
        cache.insert(
            3,
            canon(3),
            1,
            rows(3),
            Footprint::new(&t, &recomputed, &[0]),
        );
        let mut next = t.clone();
        next.load_partition(1, &[ColumnData::Int(vec![1000])]);
        assert_eq!(cache.invalidate_stale(&next, &recomputed), 2);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidated, 3);
    }

    #[test]
    fn index_pointer_change_invalidates() {
        let cache = ResultCache::new(1 << 20);
        let t = table(2);
        let idx = Arc::new(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        let indexes = [Arc::clone(&idx)];
        cache.insert(5, canon(5), 0, rows(9), Footprint::new(&t, &indexes, &[0]));
        assert!(cache.lookup(5, &canon(5), 2, &t, &indexes).is_some());
        // A recomputed (new-Arc) index at the slot invalidates.
        let recomputed = Arc::new(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        assert!(cache
            .lookup(5, &canon(5), 3, &t, std::slice::from_ref(&recomputed))
            .is_none());
        // A dropped slot (shorter index vec) invalidates too.
        cache.insert(5, canon(5), 3, rows(9), Footprint::new(&t, &indexes, &[0]));
        assert!(cache.lookup(5, &canon(5), 4, &t, &[]).is_none());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Tiny budget: fits roughly two small entries.
        let cache = ResultCache::new(512);
        let t = table(1);
        for i in 0..4u64 {
            cache.insert(i, canon(i as u8), 0, rows(i as i64), whole(&t));
        }
        let stats = cache.stats();
        assert!(stats.evicted > 0, "budget must force evictions: {stats:?}");
        assert!(stats.bytes <= 512);
        // The most recently inserted entry survived.
        assert!(cache.lookup(3, &canon(3), 0, &t, &[]).is_some());
    }

    #[test]
    fn oversized_value_does_not_blow_the_budget() {
        let cache = ResultCache::new(1024);
        let big = Batch::new(vec![ColumnData::Int(vec![0; 4096])]);
        cache.insert(1, canon(1), 0, big, whole(&table(1)));
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
        let t = table(1);
        let big = Batch::new(vec![ColumnData::Int(vec![7; 25_600])]);
        assert!(big.heap_bytes() >= 200 << 10);
        cache.insert(1, canon(1), 0, big, whole(&t));
        let got = cache.lookup(1, &canon(1), 0, &t, &[]);
        assert_eq!(got.map(|b| b.len()), Some(25_600));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (1, 0), "{stats:?}");
    }

    #[test]
    fn registry_backed_counters_are_shared() {
        let reg = MetricsRegistry::new();
        let cache = ResultCache::with_registry(1 << 20, &reg);
        let t = table(1);
        assert!(cache.lookup(1, &canon(1), 0, &t, &[]).is_none());
        cache.insert(1, canon(1), 0, rows(7), whole(&t));
        assert!(cache.lookup(1, &canon(1), 0, &t, &[]).is_some());
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
        cache.insert(1, canon(1), 0, rows(1), whole(&t));
        cache.insert(2, canon(2), 0, rows(2), whole(&t));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        // Invalidation frees the bytes it removes.
        let other = table(1);
        cache.insert(3, canon(3), 0, rows(3), whole(&other));
        let with_third = cache.stats().bytes;
        assert!(with_third > stats.bytes);
        assert_eq!(cache.invalidate_stale(&t, &[]), 1);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().bytes, stats.bytes);
    }

    #[test]
    fn oversized_insert_evicts_nothing_else() {
        let cache = ResultCache::new(512);
        let t = table(1);
        // A small entry, then one that can never fit the budget.
        cache.insert(1, canon(1), 0, rows(1), whole(&t));
        let big = Batch::new(vec![ColumnData::Int(vec![0; 4096])]);
        cache.insert(2, canon(2), 0, big, whole(&t));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (1, 1), "{stats:?}");
        assert!(cache.lookup(1, &canon(1), 0, &t, &[]).is_some());
        assert!(cache.lookup(2, &canon(2), 0, &t, &[]).is_none());
    }
}
