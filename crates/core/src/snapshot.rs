//! Snapshot-isolated concurrent reads during background maintenance.
//!
//! [`IndexedTable`] is single-writer: every query and recompute
//! used to serialize on one `&mut` path. This module splits that into an
//! MVCC-style pair (cf. the epoch/snapshot designs of the incremental
//! view-maintenance literature):
//!
//! * [`TableSnapshot`] — a shared, immutable epoch of the table: `Arc`'d
//!   partitions, `Arc`'d [`PatchIndex`] versions and the precomputed
//!   [`IndexCatalog`]. Any number of reader threads query snapshots
//!   concurrently without locks, and a snapshot's results never change —
//!   readers never observe a half-applied patch set.
//! * [`TableWriter`] — the single writer. It stages inserts / modifies /
//!   deletes, runs index maintenance and advisor-driven
//!   recomputes entirely **off the read path**, then
//!   [`TableWriter::publish`]es a new snapshot with one atomic epoch
//!   pointer swap — when its caller says so; the writer has no pacing of
//!   its own. Old snapshots stay alive (and exact) until their last
//!   reader drops them.
//! * [`ConcurrentTable`] — the cloneable handle readers pull snapshots
//!   from.
//!
//! This pair *is* the host snapshot layer the paper's Section 5.4 hands
//! reader isolation to, and it is the only concurrency model in the
//! engine: an `Arc<PatchIndex>` is the patch data of one index version,
//! and the thread that owns the `TableWriter` is the only one that ever
//! mutates it. Maintenance may fan probes out over worker threads, but
//! they return what they found and the writer thread applies it, so no
//! patch store needs a lock.
//!
//! ## Copy-on-write economics
//!
//! Publishing is cheap because nothing is deep-copied eagerly: the
//! snapshot captures the writer's table (one `Arc` bump per partition)
//! and its index handles (one `Arc` bump per index). The *next* writer
//! mutation of a partition or index that a live snapshot still shares
//! pays a one-time copy ([`std::sync::Arc::make_mut`]); everything else
//! mutates in place exactly as before. A read-only epoch costs nothing.
//!
//! What that one-time copy costs differs by kind. A *partition* copy is
//! per delta, not per row: `pi_storage::Partition` keeps its base columns
//! (and the zone maps over them) behind an `Arc` of their own, so the
//! copy clones the pending delta store and bumps a refcount; base columns
//! are copied only by a `propagate` of pending deltas on a partition some
//! snapshot still shares, which rewrites them anyway. A propagate leaves
//! a partition with no pending delta alone: shared and not re-versioned.
//! An *index* copy clones the partition-local patch stores. Either way the copy is a new
//! `Arc<Partition>` / `Arc<PatchIndex>`, so pointer identity stays the
//! exact dirty set, which [`ChangeSet::between`] reads off two states.
//! That only holds because nothing but a data change re-versions either:
//! what queries report about an index is table-level state (next
//! section), not part of the index. An epoch counts the publishes that
//! changed something ([`ConcurrentTable::at_epoch`] continues it).
//!
//! ## Workload evidence from queries
//!
//! The advisor needs to know what queries asked for and which indexes
//! they bound, but queries cannot write to the table they read. Every
//! [`IndexedTable`] therefore owns a [`WorkloadSink`] that its snapshots
//! share: queries record events there, the sink adds each one to a
//! count per `(column, shape)` or a [`QueryFeedback`] per
//! `(column, constraint)`, and the advisor [`WorkloadSink::take`]s the
//! delta once per step. Nothing else reads it, so evidence dirties no
//! partition, index or table state a snapshot shares, and naming an
//! index by what it materializes — not by slot — keeps feedback with its
//! index across drops that shift slots.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use pi_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use pi_storage::{Partition, RowAddr, Table, Value};

use crate::cache::{CacheStats, ResultCache};
use crate::catalog::IndexCatalog;
use crate::constraint::Constraint;
use crate::index::PatchIndex;
use crate::indexed::{IndexedTable, QueryShape};
use crate::statement::Statement;

/// One workload observation recorded by a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadEvent {
    /// A planned query scanned `col` through an advisable shape.
    Query {
        /// Table column the query scanned.
        col: usize,
        /// The advisable shape (distinct / sort).
        shape: QueryShape,
    },
    /// A chosen plan bound the index on `(column, constraint)` with this
    /// estimated cost saving.
    Feedback {
        /// Indexed column.
        column: usize,
        /// The bound index's constraint.
        constraint: Constraint,
        /// Estimated planner cost saved vs the unrewritten plan.
        est_cost_saved: f64,
    },
}

/// Optimizer feedback for one index: how often query planning bound it
/// and how much estimated cost the rewrites saved over the unrewritten
/// plans (planner cost units). Evidence about an index is not part of
/// the index: recording it never copies or re-versions an
/// `Arc<PatchIndex>`, and nothing persists it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryFeedback {
    /// Queries whose chosen plan bound this index.
    pub times_bound: u64,
    /// Estimated cost saved vs the unrewritten plans.
    pub est_cost_saved: f64,
}

/// The workload evidence recorded between two [`WorkloadSink::take`]s,
/// summed per key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadDelta {
    /// Planned queries per `(column, shape)`.
    pub queries: HashMap<(usize, QueryShape), u64>,
    /// Feedback per index, named by `(column, constraint)`.
    pub feedback: HashMap<(usize, Constraint), QueryFeedback>,
}

/// Where queries deposit workload evidence. Owned by an
/// [`IndexedTable`], shared with every snapshot published from it, and
/// drained by the advisor through [`WorkloadSink::take`].
///
/// Events are summed on arrival, so the sink holds one entry per
/// `(column, shape)` and per `(column, constraint)` however many queries
/// ran since the last take — bounded by construction, with nothing to
/// drop when nobody takes.
#[derive(Debug, Default)]
pub struct WorkloadSink {
    pending: Mutex<WorkloadDelta>,
}

impl WorkloadSink {
    /// Adds one query's events under a single lock (readers call this
    /// concurrently).
    pub fn record(&self, events: impl IntoIterator<Item = WorkloadEvent>) {
        let mut pending = self.pending.lock();
        for event in events {
            match event {
                WorkloadEvent::Query { col, shape } => {
                    *pending.queries.entry((col, shape)).or_default() += 1;
                }
                WorkloadEvent::Feedback {
                    column,
                    constraint,
                    est_cost_saved,
                } => {
                    let fb = pending.feedback.entry((column, constraint)).or_default();
                    fb.times_bound += 1;
                    fb.est_cost_saved += est_cost_saved.max(0.0);
                }
            }
        }
    }

    /// Hands back everything recorded since the last take and resets
    /// the sink.
    pub fn take(&self) -> WorkloadDelta {
        std::mem::take(&mut *self.pending.lock())
    }
}

#[derive(Debug)]
struct SnapshotInner {
    epoch: u64,
    table: Table,
    indexes: Vec<Arc<PatchIndex>>,
    catalog: IndexCatalog,
    sink: Arc<WorkloadSink>,
    cache: Option<Arc<ResultCache>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

/// An immutable epoch of an indexed table: shared partitions, shared
/// index versions and the catalog precomputed at publish time. Cloning is
/// one `Arc` bump; all accessors are `&self` and lock-free.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    inner: Arc<SnapshotInner>,
}

impl TableSnapshot {
    fn capture(
        it: &IndexedTable,
        epoch: u64,
        cache: Option<Arc<ResultCache>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        // The catalog is computed here, once per publish, on the writer —
        // snapshot readers plan against it for free.
        TableSnapshot {
            inner: Arc::new(SnapshotInner {
                epoch,
                table: it.table().clone(),
                indexes: it.share_indexes(),
                catalog: it.catalog(),
                sink: Arc::clone(it.sink()),
                cache,
                metrics,
            }),
        }
    }

    /// The epoch this snapshot was published at: one more than the last
    /// for each [`TableWriter::publish`] that changed something.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The table state of this epoch.
    pub fn table(&self) -> &Table {
        &self.inner.table
    }

    /// The index versions of this epoch.
    pub fn indexes(&self) -> &[Arc<PatchIndex>] {
        &self.inner.indexes
    }

    /// The catalog precomputed at publish time.
    pub fn catalog(&self) -> &IndexCatalog {
        &self.inner.catalog
    }

    /// The sink queries on this snapshot report workload evidence to.
    pub fn sink(&self) -> &WorkloadSink {
        &self.inner.sink
    }

    /// The table's result cache, which the query facade consults for
    /// this snapshot (`None` when the table was split without one).
    pub fn result_cache(&self) -> Option<&ResultCache> {
        self.inner.cache.as_deref()
    }

    /// The metrics registry this table publishes observability into
    /// (`None` unless split via [`ConcurrentTable::with_observability`]).
    /// The `pi-planner` query facade records planner and engine metrics
    /// here when present.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.metrics.as_ref()
    }

    /// Verifies every index of this epoch against its table (test
    /// helper).
    pub fn check_consistency(&self) {
        for idx in &self.inner.indexes {
            idx.check_consistency(&self.inner.table);
        }
    }
}

#[derive(Debug)]
struct Shared {
    current: RwLock<TableSnapshot>,
}

/// The reader-side handle: clone freely across threads, pull a
/// [`TableSnapshot`] per query (or batch of queries) and read without
/// ever blocking on maintenance.
#[derive(Debug, Clone)]
pub struct ConcurrentTable {
    shared: Arc<Shared>,
}

impl ConcurrentTable {
    /// Splits an [`IndexedTable`] into the shared read handle and the
    /// single writer. The initial snapshot is published immediately.
    pub fn new(it: IndexedTable) -> (ConcurrentTable, TableWriter) {
        Self::build(it, 0, None, None)
    }

    /// Like [`ConcurrentTable::new`], but the initial snapshot is epoch
    /// `epoch`, so a table restored from a checkpoint continues its epochs.
    pub fn at_epoch(it: IndexedTable, epoch: u64) -> (ConcurrentTable, TableWriter) {
        Self::build(it, epoch, None, None)
    }

    /// Like [`ConcurrentTable::new`], but snapshots consult (and fill)
    /// the given result cache through the `pi-planner` query facade. The
    /// table takes the cache: it serves this table and no other, holds
    /// results of the current epoch only, and each publish's change set
    /// decides which entries carry over to the next.
    pub fn with_result_cache(
        it: IndexedTable,
        cache: ResultCache,
    ) -> (ConcurrentTable, TableWriter) {
        Self::build(it, 0, Some(cache), None)
    }

    /// Like [`ConcurrentTable::new`], but every snapshot carries the
    /// metrics registry (so the `pi-planner` query facade records
    /// planner / engine / cache metrics into it) and the writer reports
    /// publish-side observability: `publish.nanos` (epoch swap latency),
    /// `publish.partitions_copied` / `publish.indexes_copied` (the
    /// copy-on-write work since the previous epoch),
    /// `publish.cache_invalidated`, and the `publish.epoch` gauge. Pass
    /// a cache built with `ResultCache::with_registry` on the same
    /// registry to get `cache.*` counters in the same place.
    pub fn with_observability(
        it: IndexedTable,
        cache: Option<ResultCache>,
        registry: Arc<MetricsRegistry>,
    ) -> (ConcurrentTable, TableWriter) {
        Self::build(it, 0, cache, Some(registry))
    }

    fn build(
        it: IndexedTable,
        epoch: u64,
        cache: Option<ResultCache>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> (ConcurrentTable, TableWriter) {
        let cache = cache.map(|mut cache| {
            cache.start_at(epoch);
            Arc::new(cache)
        });
        let first = TableSnapshot::capture(&it, epoch, cache.clone(), metrics.clone());
        let shared = Arc::new(Shared {
            current: RwLock::new(first),
        });
        (
            ConcurrentTable {
                shared: Arc::clone(&shared),
            },
            TableWriter {
                staging: it,
                shared,
                cache,
                publish_metrics: metrics.as_deref().map(PublishMetrics::new),
                metrics,
            },
        )
    }

    /// The current snapshot (one `Arc` bump under a read lock held for
    /// nanoseconds — the epoch pointer swap in [`TableWriter::publish`]
    /// is the only writer of this lock).
    pub fn snapshot(&self) -> TableSnapshot {
        self.shared.current.read().clone()
    }

    /// Epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.current.read().epoch()
    }

    /// The table's result cache, when it was split with one.
    pub fn result_cache(&self) -> Option<Arc<ResultCache>> {
        self.shared.current.read().inner.cache.clone()
    }

    /// Counter snapshot of the result cache (`None` without one).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.shared
            .current
            .read()
            .inner
            .cache
            .as_deref()
            .map(ResultCache::stats)
    }

    /// The metrics registry, when this table was split with
    /// [`ConcurrentTable::with_observability`].
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.shared.current.read().inner.metrics.clone()
    }
}

/// Pre-registered handles for the writer's publish-side metrics — one
/// registry lookup each at construction, plain atomic updates per
/// publish.
struct PublishMetrics {
    publishes: Arc<Counter>,
    noops: Arc<Counter>,
    nanos: Arc<Histogram>,
    partitions_copied: Arc<Counter>,
    indexes_copied: Arc<Counter>,
    cache_invalidated: Arc<Counter>,
    epoch: Arc<Gauge>,
}

impl PublishMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        PublishMetrics {
            publishes: reg.counter("publish.count"),
            noops: reg.counter("publish.noops"),
            nanos: reg.histogram("publish.nanos"),
            partitions_copied: reg.counter("publish.partitions_copied"),
            indexes_copied: reg.counter("publish.indexes_copied"),
            cache_invalidated: reg.counter("publish.cache_invalidated"),
            epoch: reg.gauge("publish.epoch"),
        }
    }
}

/// What changed between two table states. Copy-on-write re-versions an
/// `Arc` on its first mutation after a state shared it, so an unchanged
/// `Arc` holds the same bytes, and [`ChangeSet::between`] is the one
/// place two states' partition and index `Arc`s are compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeSet {
    /// Per partition of the newer state: whether it is the older `Arc`.
    pub same_partition: Vec<bool>,
    /// Per partition: whether only its delta may differ (`shares_base`).
    pub same_base: Vec<bool>,
    /// Per index slot: the older slot holding the same index, if any.
    pub index_from: Vec<Option<usize>>,
    unchanged: bool,
}

impl ChangeSet {
    /// The change set from the older state to the newer one.
    pub fn between(
        old_parts: &[Arc<Partition>],
        old_indexes: &[Arc<PatchIndex>],
        new_parts: &[Arc<Partition>],
        new_indexes: &[Arc<PatchIndex>],
    ) -> ChangeSet {
        let (same_partition, same_base): (Vec<_>, Vec<_>) = (new_parts.iter().enumerate())
            .map(|(pid, new)| {
                let old = old_parts.get(pid);
                let same = old.is_some_and(|old| Arc::ptr_eq(old, new));
                (same, same || old.is_some_and(|old| old.shares_base(new)))
            })
            .unzip();
        let index_from: Vec<_> = (new_indexes.iter())
            .map(|new| old_indexes.iter().position(|old| Arc::ptr_eq(old, new)))
            .collect();
        let unchanged = old_parts.len() == new_parts.len()
            && old_indexes.len() == new_indexes.len()
            && same_partition.iter().all(|same| *same)
            && (index_from.iter().enumerate()).all(|(slot, at)| *at == Some(slot));
        ChangeSet {
            same_partition,
            same_base,
            index_from,
            unchanged,
        }
    }

    /// Whether the states share every partition and index, slot for slot.
    pub fn is_empty(&self) -> bool {
        self.unchanged
    }
}

/// The single-writer half: owns the staging [`IndexedTable`], applies
/// updates and maintenance off the read path, and publishes epochs.
///
/// Mutations accumulate in the staging table and become visible to new
/// snapshots only at [`TableWriter::publish`] — concurrent readers keep
/// whatever epoch they hold. Queries through the writer itself (it
/// implements the planner's `QueryEngine` too) see staged state
/// immediately, exactly like a plain [`IndexedTable`].
pub struct TableWriter {
    staging: IndexedTable,
    shared: Arc<Shared>,
    cache: Option<Arc<ResultCache>>,
    metrics: Option<Arc<MetricsRegistry>>,
    publish_metrics: Option<PublishMetrics>,
}

impl TableWriter {
    /// Inserts rows into the staging table (visible at the next publish).
    pub fn insert(&mut self, rows: &[Vec<Value>]) -> Vec<RowAddr> {
        self.staging.apply(&Statement::Insert(rows.to_vec())).rows
    }

    /// Patches one column of staged visible rows.
    pub fn modify(&mut self, pid: usize, rids: &[usize], col: usize, values: &[Value]) {
        self.staging.apply(&Statement::Modify {
            pid,
            rids: rids.to_vec(),
            col,
            values: values.to_vec(),
        });
    }

    /// Drops the index in `slot`; snapshots published earlier keep
    /// serving it until they are dropped.
    pub fn drop_index(&mut self, slot: usize) -> Arc<PatchIndex> {
        self.staging
            .apply(&Statement::DropIndex { slot })
            .dropped
            .expect("a drop hands back its index")
    }

    /// Recomputes the index in `slot` — the background "recompute storm"
    /// case: readers keep querying the published epoch while this runs.
    pub fn recompute_index(&mut self, slot: usize) {
        self.staging.apply(&Statement::Recompute { slot });
    }

    /// The staging table (reflects unpublished mutations).
    pub fn staging(&self) -> &IndexedTable {
        &self.staging
    }

    /// The staging table, whose [`IndexedTable::apply`] is the writer's
    /// one write path (the methods above, the server shard and the
    /// advisor all go through it). Changes show at the next publish.
    pub fn staging_mut(&mut self) -> &mut IndexedTable {
        &mut self.staging
    }

    /// Epoch of the last published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.current.read().epoch()
    }

    /// Publishes the staging state as a new snapshot: captures the epoch
    /// (Arc bumps, no data copies) and swaps the shared pointer. Returns
    /// the new epoch. Readers holding older snapshots are unaffected; they
    /// pick the new epoch up at their next [`ConcurrentTable::snapshot`].
    ///
    /// A publish with **zero changes** since the last epoch (an unchanged
    /// [`ChangeSet`]) is skipped entirely: no epoch bump, no catalog
    /// capture, no cache sweep. A caller that publishes on a cadence
    /// therefore cannot churn reader epochs (or invalidate result-cache
    /// entries) for nothing, however many queries ran in between — their
    /// evidence waits in the sink, which no version check reads; the
    /// returned epoch is the still-current one.
    pub fn publish(&mut self) -> u64 {
        let start = Instant::now();
        let (cur, staged) = (self.shared.current.read().clone(), &self.staging);
        let changes = ChangeSet::between(
            cur.table().partitions(),
            cur.indexes(),
            staged.table().partitions(),
            staged.indexes(),
        );
        let epoch = cur.epoch();
        if changes.is_empty() {
            if let Some(m) = &self.publish_metrics {
                m.noops.inc();
            }
            return epoch;
        }
        if let Some(m) = &self.publish_metrics {
            // The copy-on-write bill of this epoch: how many partition /
            // index Arcs the staged mutations actually rewrote.
            let parts = changes.same_partition.iter().filter(|same| !**same);
            let indexes = changes.index_from.iter().filter(|at| at.is_none());
            m.partitions_copied.add(parts.count() as u64);
            m.indexes_copied.add(indexes.count() as u64);
        }
        let epoch = epoch + 1;
        let snap = TableSnapshot::capture(
            &self.staging,
            epoch,
            self.cache.clone(),
            self.metrics.clone(),
        );
        let mut invalidated = 0;
        if let Some(cache) = &self.cache {
            // Every entry was computed at the old epoch, so the change set
            // says exactly which still hold. Sweep before the pointer swap:
            // a reader of the new epoch finds only those, and from here on
            // a reader still on the old epoch can neither read nor fill
            // the cache.
            invalidated = cache.advance(&changes, epoch);
        }
        *self.shared.current.write() = snap;
        if let Some(m) = &self.publish_metrics {
            m.publishes.inc();
            m.cache_invalidated.add(invalidated);
            m.epoch.set(epoch as i64);
            m.nanos.record(start.elapsed().as_nanos() as u64);
        }
        epoch
    }

    /// Unwraps the writer back into its staging table. The shared handle
    /// keeps serving the last published epoch forever after.
    pub fn into_inner(self) -> IndexedTable {
        self.staging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Design, SortDir};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};

    fn fresh() -> IndexedTable {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(
            0,
            &[
                ColumnData::Int(vec![0, 1, 2]),
                ColumnData::Int(vec![10, 20, 30]),
            ],
        );
        t.load_partition(
            1,
            &[ColumnData::Int(vec![3, 4]), ColumnData::Int(vec![40, 50])],
        );
        t.propagate_all();
        IndexedTable::new(t)
    }

    fn row(k: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v)]
    }

    #[test]
    fn snapshots_are_isolated_from_writer_mutations() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let before = handle.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.table().visible_len(), 5);

        writer.insert(&[row(100, 20), row(101, 60)]);
        // Unpublished: the handle still serves epoch 0, and the old
        // snapshot's data is untouched.
        assert_eq!(handle.snapshot().epoch(), 0);
        assert_eq!(before.table().visible_len(), 5);
        assert_eq!(before.indexes()[0].nrows(), 5);
        assert_eq!(writer.staging().table().visible_len(), 7);

        let epoch = writer.publish();
        assert_eq!(epoch, 1);
        let after = handle.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.table().visible_len(), 7);
        assert_eq!(after.indexes()[0].nrows(), 7);
        // The pre-publish snapshot still reads its own epoch.
        assert_eq!(before.table().visible_len(), 5);
        before.check_consistency();
        after.check_consistency();
    }

    #[test]
    fn old_snapshot_survives_recompute_and_drop() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let old = handle.snapshot();
        writer.insert(&[row(100, 5)]); // out of order -> patch
        writer.recompute_index(0);
        writer.drop_index(0);
        writer.publish();
        // The dropped index version lives on inside the old snapshot.
        assert_eq!(old.indexes().len(), 1);
        old.check_consistency();
        assert!(handle.snapshot().indexes().is_empty());
    }

    #[test]
    fn publish_is_cheap_when_nothing_changed() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let a = handle.snapshot();
        writer.publish();
        let b = handle.snapshot();
        // Identical epochs share every partition and index allocation.
        for (pa, pb) in a.table().partitions().iter().zip(b.table().partitions()) {
            assert!(Arc::ptr_eq(pa, pb));
        }
        for (ia, ib) in a.indexes().iter().zip(b.indexes()) {
            assert!(Arc::ptr_eq(ia, ib));
        }
    }

    #[test]
    fn noop_publish_skips_epoch_bump_and_capture() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let before = handle.snapshot();

        // Nothing staged: every Arc is identical, so publish is a no-op.
        assert_eq!(writer.publish(), 0);
        assert_eq!(writer.epoch(), 0);
        assert_eq!(handle.epoch(), 0);
        let after = handle.snapshot();
        assert!(Arc::ptr_eq(&before.inner, &after.inner), "same snapshot");

        // Publishing after zero-change statements can't churn epochs.
        writer.insert(&[]);
        assert_eq!(writer.publish(), 0);
        writer.insert(&[]);
        assert_eq!(writer.publish(), 0);
        writer.staging_mut().apply(&Statement::Delete {
            pid: 0,
            rids: vec![],
        });
        assert_eq!(writer.publish(), 0);
        writer.modify(0, &[], 1, &[]);
        assert_eq!(writer.publish(), 0);
        assert_eq!(handle.epoch(), 0);
        assert_eq!(writer.staging().statements(), 4, "still counted");
        let staged = writer.staging();
        assert!(Arc::ptr_eq(&staged.indexes()[0], &before.indexes()[0]));
        assert!(Arc::ptr_eq(
            &staged.table().partitions()[0],
            &before.table().partitions()[0]
        ));

        // A real change publishes again (and exactly once).
        writer.insert(&[row(100, 60)]);
        assert_eq!(writer.publish(), 1);
        assert_eq!(writer.publish(), 1);
        assert_eq!(handle.epoch(), 1);
        assert!(!Arc::ptr_eq(
            &handle.snapshot().table().partitions()[0],
            &before.table().partitions()[0]
        ));
    }

    #[test]
    fn noop_publish_leaves_reader_evidence_in_the_sink() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        handle.snapshot().sink().record([
            WorkloadEvent::Query {
                col: 1,
                shape: QueryShape::Distinct,
            },
            WorkloadEvent::Feedback {
                column: 1,
                constraint: Constraint::NearlyUnique,
                est_cost_saved: 5.0,
            },
        ]);
        // Evidence is not table state: the publish is skipped, the index
        // version stays shared, and the evidence waits for its reader.
        assert_eq!(writer.publish(), 0);
        assert!(Arc::ptr_eq(
            &writer.staging().indexes()[0],
            &handle.snapshot().indexes()[0]
        ));
        let delta = writer.staging().sink().take();
        assert_eq!(delta.queries[&(1, QueryShape::Distinct)], 1);
        assert_eq!(
            delta.feedback[&(1, Constraint::NearlyUnique)].times_bound,
            1
        );
    }

    #[test]
    fn publish_sweeps_only_dirty_footprints_from_the_cache() {
        use crate::cache::ResultCache;
        use pi_exec::Batch;

        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) =
            ConcurrentTable::with_result_cache(it, ResultCache::new(1 << 20));
        let snap = handle.snapshot();
        let c = snap.result_cache().expect("cache wired into snapshots");
        assert!(std::ptr::eq(c, &*handle.result_cache().unwrap()));

        let canon = |tag: u8| -> Arc<[u8]> { Arc::from([tag].as_slice()) };
        let rows = |v: i64| Batch::new(vec![ColumnData::Int(vec![v])]);
        // Both entries depend on the whole table; entry 2 also on the
        // index version.
        c.insert(1, canon(1), 0, rows(1), &[]);
        c.insert(2, canon(2), 0, rows(2), &[0]);

        // A recompute re-versions the index only: entry 2 goes.
        writer.recompute_index(0);
        writer.publish();
        let new = handle.snapshot();
        assert_eq!(new.epoch(), 1);
        assert!(Arc::ptr_eq(
            &snap.table().partitions()[0],
            &new.table().partitions()[0]
        ));
        assert!(c.lookup(1, &canon(1), 1).is_some());
        assert!(c.lookup(2, &canon(2), 1).is_none());
        // The reader still holding epoch 0 no longer reads the cache.
        assert!(c.lookup(1, &canon(1), snap.epoch()).is_none());

        // Dirty partition 1 only (value 50 -> 51 keeps the NUC clean but
        // rewrites the partition Arc): entry 1 depends on it too.
        writer.modify(1, &[1], 1, &[Value::Int(51)]);
        writer.publish();
        assert!(c.lookup(1, &canon(1), 2).is_none());
        let stats = handle
            .cache_stats()
            .expect("stats surface through the handle");
        assert_eq!(stats.invalidated, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 0);
    }

    /// A table restored at a later epoch moves its cache there: the
    /// entries its readers insert are the ones they find.
    #[test]
    fn a_cache_starts_at_the_tables_first_epoch() {
        use crate::cache::ResultCache;
        use pi_exec::Batch;

        let cache = ResultCache::new(1 << 20);
        let canon: Arc<[u8]> = Arc::from([1].as_slice());
        let rows = Batch::new(vec![ColumnData::Int(vec![1])]);
        cache.insert(1, Arc::clone(&canon), 0, rows.clone(), &[]);
        let (handle, _writer) = ConcurrentTable::build(fresh(), 7, Some(cache), None);
        let c = handle.result_cache().expect("a cached table");
        assert_eq!(c.stats().entries, 0, "entries of no epoch of this table");
        c.insert(1, Arc::clone(&canon), 7, rows, &[]);
        assert!(c.lookup(1, &canon, handle.epoch()).is_some());
    }

    #[test]
    fn observability_reports_publish_work() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let reg = Arc::new(MetricsRegistry::new());
        let cache = ResultCache::with_registry(1 << 20, &reg);
        let (handle, mut writer) =
            ConcurrentTable::with_observability(it, Some(cache), Arc::clone(&reg));
        assert!(handle.snapshot().metrics().is_some());
        assert!(handle.metrics().is_some());

        // Nothing staged: the publish is counted as a no-op only.
        writer.publish();
        assert_eq!(reg.counter("publish.noops").get(), 1);
        assert_eq!(reg.counter("publish.count").get(), 0);

        // One partition mutated: exactly that partition (plus the
        // eagerly maintained index version) is billed as copied.
        writer.modify(0, &[0], 1, &[Value::Int(11)]);
        writer.publish();
        assert_eq!(reg.counter("publish.count").get(), 1);
        assert_eq!(reg.gauge("publish.epoch").get(), 1);
        assert_eq!(reg.counter("publish.partitions_copied").get(), 1);
        assert_eq!(reg.counter("publish.indexes_copied").get(), 1);
        assert_eq!(reg.histogram("publish.nanos").snapshot().count, 1);
    }

    /// A propagate leaves every partition with no pending delta as it is:
    /// the snapshot still shares it, so only the dirty partition is
    /// re-versioned and billed as copied.
    #[test]
    fn propagate_leaves_clean_partitions_alone() {
        let parts = 8;
        let mut t = Table::new(
            "wide",
            Schema::new(vec![Field::new("k", DataType::Int)]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            t.load_partition(pid, &[ColumnData::Int((0..64).collect())]);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.modify(0, &[1, 5], 0, &[Value::Int(-1), Value::Int(-5)]);
        let reg = Arc::new(MetricsRegistry::new());
        let (handle, mut writer) = ConcurrentTable::with_observability(it, None, Arc::clone(&reg));
        let snap = handle.snapshot();
        writer.staging_mut().propagate();
        let staged = writer.staging();
        let changes = ChangeSet::between(
            snap.table().partitions(),
            snap.indexes(),
            staged.table().partitions(),
            staged.indexes(),
        );
        let clean = vec![true; parts - 1];
        assert_eq!(changes.same_partition, [&[false][..], &clean].concat());
        assert_eq!(changes.same_base, [&[false][..], &clean].concat());
        writer.publish();
        assert_eq!(reg.counter("publish.partitions_copied").get(), 1);
        assert!(handle.snapshot().table().partition(0).delta().is_empty());
    }

    #[test]
    fn change_set_tells_a_delta_from_a_rewrite() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let parts = it.table().partitions().to_vec();
        let indexes = it.share_indexes();
        let since = |it: &IndexedTable| {
            ChangeSet::between(&parts, &indexes, it.table().partitions(), it.indexes())
        };
        assert!(since(&it).is_empty());
        assert_eq!(since(&it).index_from, [Some(0)]);

        it.modify(0, &[0], 1, &[Value::Int(11)]);
        let delta = since(&it);
        assert!(!delta.is_empty());
        assert_eq!(delta.same_partition, [false, true]);
        assert_eq!(delta.same_base, [true, true], "only the delta changed");
        assert_eq!(delta.index_from, [None], "maintenance re-versioned it");

        it.propagate();
        assert!(!since(&it).same_base[0], "propagate rewrote the base");
    }

    /// Regression: a drop shifts the indexes after it down a slot, and the
    /// copy counter compared slot by slot, so it billed the surviving
    /// index as copied. It is the published `Arc`, reused.
    #[test]
    fn an_index_that_only_moved_slot_is_not_copied() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let reg = Arc::new(MetricsRegistry::new());
        let (handle, mut writer) = ConcurrentTable::with_observability(it, None, Arc::clone(&reg));
        writer.drop_index(0);
        assert_eq!(writer.publish(), 1, "a drop is a change");
        assert_eq!(handle.snapshot().indexes().len(), 1);
        assert_eq!(reg.counter("publish.count").get(), 1);
        assert_eq!(reg.counter("publish.indexes_copied").get(), 0);
        assert_eq!(reg.counter("publish.partitions_copied").get(), 0);
    }

    #[test]
    fn writer_mutation_copies_only_the_touched_partition() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let old = handle.snapshot();
        // Modify partition 0 only; partition 1 stays shared after publish.
        writer.modify(0, &[0], 1, &[Value::Int(11)]);
        writer.publish();
        let new = handle.snapshot();
        assert!(!Arc::ptr_eq(
            &old.table().partitions()[0],
            &new.table().partitions()[0]
        ));
        assert!(Arc::ptr_eq(
            &old.table().partitions()[1],
            &new.table().partitions()[1]
        ));
    }

    #[test]
    fn catalog_is_captured_at_publish_time() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        writer.insert(&[row(100, 20)]); // duplicates 20 -> 2 patches
        writer.publish();
        let snap = handle.snapshot();
        assert_eq!(snap.catalog().indexes[0].patches, 2);
        assert_eq!(snap.catalog().rows, 6);
        // Snapshot catalog mirrors a fresh computation over its state.
        let fresh_cat = IndexCatalog::of(snap.table(), snap.indexes());
        assert_eq!(snap.catalog(), &fresh_cat);
    }

    #[test]
    fn sink_events_flow_into_writer_state() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, writer) = ConcurrentTable::new(it);
        let snap = handle.snapshot();
        snap.sink().record([WorkloadEvent::Query {
            col: 1,
            shape: QueryShape::Distinct,
        }]);
        for saved in [42.0, -3.0] {
            snap.sink().record([WorkloadEvent::Feedback {
                column: 1,
                constraint: Constraint::NearlyUnique,
                est_cost_saved: saved,
            }]);
        }
        // The writer's table owns the sink its snapshots record into.
        let delta = writer.staging().sink().take();
        assert_eq!(delta.queries.len(), 1);
        assert_eq!(delta.queries[&(1, QueryShape::Distinct)], 1);
        let fb = delta.feedback[&(1, Constraint::NearlyUnique)];
        assert_eq!(fb.times_bound, 2);
        // A negative estimate binds but saves nothing.
        assert!((fb.est_cost_saved - 42.0).abs() < 1e-9);
        // A take resets: the next one sees only what arrived since.
        assert_eq!(writer.staging().sink().take(), WorkloadDelta::default());
    }

    #[test]
    fn sink_is_bounded() {
        let sink = WorkloadSink::default();
        for _ in 0..100_000 {
            sink.record([WorkloadEvent::Query {
                col: 0,
                shape: QueryShape::Distinct,
            }]);
        }
        // 100 000 events of one key occupy one entry.
        let delta = sink.take();
        assert_eq!(delta.queries.len(), 1);
        assert_eq!(delta.queries[&(0, QueryShape::Distinct)], 100_000);
        assert!(delta.feedback.is_empty());
    }

    #[test]
    fn concurrent_readers_during_writer_churn() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = handle.clone();
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = handle.snapshot();
                        // Row count and index coverage always agree
                        // within one epoch — the atomicity guarantee.
                        assert_eq!(
                            snap.indexes()[0].nrows() as usize,
                            snap.table().visible_len(),
                            "epoch {} tore",
                            snap.epoch()
                        );
                    }
                });
            }
            for i in 0..50 {
                writer.insert(&[row(1000 + i, 2000 + i)]);
                if i % 7 == 0 {
                    writer.recompute_index(0);
                }
                writer.publish();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(handle.snapshot().table().visible_len(), 55);
    }
}
