//! Epoch-keyed query result cache with pointer-identity invalidation.
//!
//! Copy-on-write publishing (see [`crate::snapshot`]) makes a partition
//! or index whose `Arc` is unchanged across epochs byte-identical. This
//! cache turns that into result reuse — each entry remembers the
//! **dependency footprint** of the execution that produced it (the
//! `Arc<Partition>` and `Arc<PatchIndex>` pointers the plan actually
//! touched), and stays valid exactly as long as every one of those
//! pointers is still the live version (checked against one state, at
//! publish and at hit time; [`crate::ChangeSet`] compares two). So
//! invalidation is *exact, not heuristic*: a publish that rewrites one
//! partition kills only the entries whose executions read it.
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
//! Layout: entries are spread over independently locked shards (hot
//! readers don't serialize on one mutex), each holding a byte budget
//! slice. Within a shard, eviction is LRU by a per-shard use tick.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pi_exec::Batch;
use pi_obs::{Counter, MetricsRegistry};
use pi_storage::{Partition, Table};

use crate::index::PatchIndex;

/// The set of shared-state pointers one execution actually read: the
/// partitions it pulled rows from (or consulted and found empty) and the
/// indexes its plan bound. An entry built from this footprint is valid
/// for any snapshot in which every pointer is still the live version —
/// partitions the execution provably never reached (a pushed-down
/// `LIMIT` stopped before them) are absent, so churn there cannot
/// invalidate the entry.
#[derive(Debug, Clone)]
pub struct Footprint {
    partitions: Vec<(usize, Arc<Partition>)>,
    indexes: Vec<(usize, Arc<PatchIndex>)>,
}

impl Footprint {
    /// Builds a footprint from `(pid, partition)` and `(slot, index)`
    /// pairs.
    pub fn new(
        partitions: Vec<(usize, Arc<Partition>)>,
        indexes: Vec<(usize, Arc<PatchIndex>)>,
    ) -> Self {
        Footprint {
            partitions,
            indexes,
        }
    }

    /// Whether every footprint pointer is still the live version in the
    /// given snapshot state (`Arc::ptr_eq` — byte-identity by CoW).
    pub fn matches(&self, table: &Table, indexes: &[Arc<PatchIndex>]) -> bool {
        self.partitions.iter().all(|(pid, p)| {
            table
                .partitions()
                .get(*pid)
                .is_some_and(|q| Arc::ptr_eq(p, q))
        }) && self
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
    /// Epoch the footprint was last validated against — same-epoch
    /// lookups skip pointer checks entirely.
    epoch: u64,
    last_used: u64,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Shard {
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

/// A sharded, byte-budgeted query result cache. See the module docs.
///
/// Lookups identify entries by fingerprint hash and verify the canonical plan bytes plus — across epochs — the footprint
/// pointers. The counters are `pi-obs` [`Counter`] handles — private to
/// this cache by default, or shared with a [`MetricsRegistry`] (under
/// `cache.*` names) via [`ResultCache::with_registry`]; either way the
/// per-shard mutex is held only for the map operation itself.
#[derive(Debug)]
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    shard_budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidated: Arc<Counter>,
    evicted: Arc<Counter>,
}

impl ResultCache {
    /// Default byte budget (64 MiB).
    pub const DEFAULT_BUDGET: usize = 64 << 20;
    const SHARDS: usize = 16;

    /// Creates a cache with the given total byte budget, split evenly
    /// over the shards. Counters are private to this cache.
    pub fn new(budget_bytes: usize) -> Self {
        let mut shards = Vec::with_capacity(Self::SHARDS);
        shards.resize_with(Self::SHARDS, Mutex::default);
        ResultCache {
            shards: shards.into_boxed_slice(),
            shard_budget: (budget_bytes / Self::SHARDS).max(1),
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

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        // High bits pick the shard; the map keys on the full hash.
        &self.shards[(hash >> 48) as usize & (Self::SHARDS - 1)]
    }

    /// Looks up `hash` for a snapshot at `epoch` with the given
    /// live state. Returns the cached rows only when the canonical
    /// bytes match (collision guard) and the footprint still holds
    /// (pointer identity); a stale entry found here is removed on the
    /// spot — hit-time validation backstops any publish-sweep race.
    pub fn lookup(
        &self,
        hash: u64,
        canon: &[u8],
        epoch: u64,
        table: &Table,
        indexes: &[Arc<PatchIndex>],
    ) -> Option<Batch> {
        let mut shard = self.shard(hash).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let stale = match shard.map.get_mut(&hash) {
            Some(e) if *e.canon == *canon => {
                if e.epoch == epoch || e.footprint.matches(table, indexes) {
                    e.epoch = epoch;
                    e.last_used = tick;
                    let rows = e.rows.clone();
                    drop(shard);
                    self.hits.inc();
                    return Some(rows);
                }
                true
            }
            _ => false,
        };
        if stale {
            let e = shard.map.remove(&hash).expect("entry just matched");
            shard.bytes -= e.bytes;
            self.invalidated.inc();
        }
        drop(shard);
        self.misses.inc();
        None
    }

    /// Inserts (or replaces) an entry, then evicts least-recently-used
    /// entries until the shard is back inside its budget slice. An entry
    /// larger than the whole slice is not inserted and evicts nothing
    /// else; it counts as one eviction.
    pub fn insert(
        &self,
        hash: u64,
        canon: Arc<[u8]>,
        epoch: u64,
        rows: Batch,
        footprint: Footprint,
    ) {
        // Entry overhead: footprint pairs + map slot, approximated.
        let bytes = canon.len()
            + rows.heap_bytes()
            + 32 * (footprint.partitions.len() + footprint.indexes.len())
            + 96;
        if bytes > self.shard_budget {
            self.evicted.inc();
            return;
        }
        let mut evictions = 0u64;
        let mut shard = self.shard(hash).lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(old) = shard.map.insert(
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
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        while shard.bytes > self.shard_budget {
            let lru = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&h, _)| h)
                .expect("over budget implies non-empty");
            let e = shard.map.remove(&lru).expect("key from live iteration");
            shard.bytes -= e.bytes;
            evictions += 1;
        }
        drop(shard);
        if evictions > 0 {
            self.evicted.add(evictions);
        }
    }

    /// Publish-side sweep: removes every entry whose footprint no longer
    /// matches the freshly published state. Returns how many entries were
    /// invalidated.
    pub fn invalidate_stale(&self, table: &Table, indexes: &[Arc<PatchIndex>]) -> u64 {
        let mut removed = 0u64;
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            let before = shard.map.len();
            let mut freed = 0usize;
            shard.map.retain(|_, e| {
                let keep = e.footprint.matches(table, indexes);
                if !keep {
                    freed += e.bytes;
                }
                keep
            });
            removed += (before - shard.map.len()) as u64;
            shard.bytes -= freed;
        }
        if removed > 0 {
            self.invalidated.add(removed);
        }
        removed
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in self.shards.iter() {
            let shard = shard.lock();
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
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

    #[test]
    fn hit_requires_matching_canonical_bytes() {
        let cache = ResultCache::new(1 << 20);
        let t = table(2);
        let fp = Footprint::new(vec![(0, Arc::clone(&t.partitions()[0]))], vec![]);
        cache.insert(42, canon(1), 0, rows(5), fp);
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
        let fp = Footprint::new(vec![(0, Arc::clone(&t.partitions()[0]))], vec![]);
        cache.insert(9, canon(0), 3, rows(1), fp);
        // A later epoch with the same partition pointer still hits...
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

    #[test]
    fn publish_sweep_removes_only_dirty_footprints() {
        let cache = ResultCache::new(1 << 20);
        let t = table(3);
        let p = |pid: usize| (pid, Arc::clone(&t.partitions()[pid]));
        cache.insert(1, canon(1), 0, rows(1), Footprint::new(vec![p(0)], vec![]));
        cache.insert(2, canon(2), 0, rows(2), Footprint::new(vec![p(1)], vec![]));
        cache.insert(
            3,
            canon(3),
            0,
            rows(3),
            Footprint::new(vec![p(0), p(1), p(2)], vec![]),
        );

        // "Publish": clone-then-append rewrites partition 1's Arc only
        // (copy-on-write leaves 0 and 2 pointer-identical).
        let mut next = t.clone();
        next.load_partition(1, &[ColumnData::Int(vec![1000])]);

        let removed = cache.invalidate_stale(&next, &[]);
        assert_eq!(removed, 2, "exactly the entries reading partition 1");
        assert!(cache.lookup(1, &canon(1), 1, &next, &[]).is_some());
        assert!(cache.lookup(2, &canon(2), 1, &next, &[]).is_none());
        assert!(cache.lookup(3, &canon(3), 1, &next, &[]).is_none());
        assert_eq!(cache.stats().invalidated, 2);
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
        let fp = Footprint::new(vec![], vec![(0, Arc::clone(&idx))]);
        cache.insert(5, canon(5), 0, rows(9), fp);
        assert!(cache
            .lookup(5, &canon(5), 2, &t, std::slice::from_ref(&idx))
            .is_some());
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
        cache.insert(
            5,
            canon(5),
            3,
            rows(9),
            Footprint::new(vec![], vec![(0, idx)]),
        );
        assert!(cache.lookup(5, &canon(5), 4, &t, &[]).is_none());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Tiny budget: per-shard slice fits roughly one small entry.
        let cache = ResultCache::new(ResultCache::SHARDS * 256);
        let t = table(1);
        let fp = || Footprint::new(vec![(0, Arc::clone(&t.partitions()[0]))], vec![]);
        // Same shard (identical high bits), distinct hashes.
        for i in 0..4u64 {
            cache.insert(i, canon(i as u8), 0, rows(i as i64), fp());
        }
        let stats = cache.stats();
        assert!(stats.evicted > 0, "budget must force evictions: {stats:?}");
        assert!(stats.bytes <= (ResultCache::SHARDS * 256) as u64);
        // The most recently inserted entry survived.
        assert!(cache.lookup(3, &canon(3), 0, &t, &[]).is_some());
    }

    #[test]
    fn oversized_value_does_not_blow_the_budget() {
        let cache = ResultCache::new(ResultCache::SHARDS * 64);
        let big = Batch::new(vec![ColumnData::Int(vec![0; 4096])]);
        cache.insert(1, canon(1), 0, big, Footprint::new(vec![], vec![]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "{stats:?}");
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evicted, 1);
    }

    #[test]
    fn registry_backed_counters_are_shared() {
        let reg = MetricsRegistry::new();
        let cache = ResultCache::with_registry(1 << 20, &reg);
        let t = table(1);
        assert!(cache.lookup(1, &canon(1), 0, &t, &[]).is_none());
        cache.insert(1, canon(1), 0, rows(7), Footprint::new(vec![], vec![]));
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
        cache.insert(1, canon(1), 0, rows(1), Footprint::new(vec![], vec![]));
        cache.insert(2, canon(2), 0, rows(2), Footprint::new(vec![], vec![]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        // Invalidation frees the bytes it removes.
        let t = table(1);
        cache.insert(
            3,
            canon(3),
            0,
            rows(3),
            Footprint::new(vec![(0, Arc::clone(&t.partitions()[0]))], vec![]),
        );
        let with_third = cache.stats().bytes;
        assert!(with_third > stats.bytes);
        assert_eq!(cache.invalidate_stale(&table(1), &[]), 1);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().bytes, stats.bytes);
    }

    #[test]
    fn oversized_insert_evicts_nothing_else() {
        let cache = ResultCache::new(ResultCache::SHARDS * 256);
        let t = table(1);
        // Same shard (identical high bits): a small entry, then one that
        // can never fit the shard's slice.
        cache.insert(1, canon(1), 0, rows(1), Footprint::new(vec![], vec![]));
        let big = Batch::new(vec![ColumnData::Int(vec![0; 4096])]);
        cache.insert(2, canon(2), 0, big, Footprint::new(vec![], vec![]));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evicted), (1, 1), "{stats:?}");
        assert!(cache.lookup(1, &canon(1), 0, &t, &[]).is_some());
        assert!(cache.lookup(2, &canon(2), 0, &t, &[]).is_none());
    }
}
