//! A table bundled with its PatchIndexes.
//!
//! [`IndexedTable`] routes every update through the index maintenance of
//! Section 5, statement by statement ("we avoid getting inconsistent
//! states by handling updates immediately after they occur"): every index
//! is consistent with the table whenever a statement has returned.
//! Multiple PatchIndexes per table are supported — unlike a SortKey,
//! PatchIndexes do not change the physical data order (paper, Section 2).

use std::sync::Arc;

use pi_storage::{RowAddr, Table, Value};

use crate::catalog::IndexCatalog;
use crate::constraint::{Constraint, Design, SortDir};
use crate::index::PatchIndex;
use crate::snapshot::WorkloadSink;
use crate::statement::{Applied, Statement};

/// An empty placeholder that `pi_durability::DurableWriter::recover`
/// accepts and ignores, kept only so pibench's recovery call still
/// compiles. Nothing is tuned here: the advisor (or an explicit
/// [`Statement::Recompute`]) recomputes, and the sharded bitmap
/// condenses itself. `default()` is the only way to make one.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct MaintenancePolicy;

/// The shape of a query as far as index advising cares: which rewrite
/// family could have served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// Duplicate elimination over the column (NUC/NCC territory).
    Distinct,
    /// ORDER BY over the column (NSC territory).
    Sort(SortDir),
}

/// A table whose PatchIndexes are maintained through every update.
///
/// Indexes live behind [`Arc`]: the snapshot layer
/// ([`crate::snapshot::TableSnapshot`]) shares them with concurrent
/// readers, and maintenance copies an index on first write only while a
/// snapshot still references it (copy-on-write, same discipline as the
/// table's partitions).
pub struct IndexedTable {
    table: Table,
    indexes: Vec<Arc<PatchIndex>>,
    /// Where queries on this table (and on every snapshot published from
    /// it) leave their workload evidence for the advisor.
    sink: Arc<WorkloadSink>,
    statements: u64,
}

impl IndexedTable {
    /// Wraps a table (no indexes yet).
    pub fn new(table: Table) -> Self {
        IndexedTable {
            table,
            indexes: Vec::new(),
            sink: Arc::default(),
            statements: 0,
        }
    }

    /// Rebuilds an indexed table from recovered state: a restored table,
    /// checkpoint-loaded indexes in slot order, and the persisted
    /// statement counter ([`IndexedTable::statements`]). The workload
    /// sink starts empty, like the advisor that reads it.
    pub fn with_restored_indexes(
        table: Table,
        indexes: Vec<Arc<PatchIndex>>,
        statements: u64,
    ) -> Self {
        for idx in &indexes {
            assert!(
                idx.column() < table.schema().len(),
                "restored index column out of range"
            );
        }
        IndexedTable {
            table,
            indexes,
            sink: Arc::default(),
            statements,
        }
    }

    /// Creates a PatchIndex on `col` and returns its slot.
    pub fn add_index(&mut self, col: usize, constraint: Constraint, design: Design) -> usize {
        self.indexes.push(Arc::new(PatchIndex::create(
            &self.table,
            col,
            constraint,
            design,
        )));
        self.indexes.len() - 1
    }

    /// Read access to the table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The indexes (shared handles; deref to [`PatchIndex`]).
    pub fn indexes(&self) -> &[Arc<PatchIndex>] {
        &self.indexes
    }

    /// Clones the index handles (what a snapshot captures — `Arc` bumps,
    /// no index data copied).
    pub(crate) fn share_indexes(&self) -> Vec<Arc<PatchIndex>> {
        self.indexes.clone()
    }

    /// Index by slot.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, slot: usize) -> &PatchIndex {
        &self.indexes[slot]
    }

    /// Snapshot of every index plus the table's shape — what the planner
    /// optimizes against (see `pi-planner`'s `QueryEngine`) and what a
    /// publish hands its snapshot. Each call reads the counters afresh
    /// (including a Bitmap store's bit count per partition); no pass over
    /// the data.
    pub fn catalog(&self) -> IndexCatalog {
        IndexCatalog::of(&self.table, &self.indexes)
    }

    /// Row statements applied so far (inserts, modifies and deletes).
    /// Checkpoints persist it, so recovery resumes the count.
    pub fn statements(&self) -> u64 {
        self.statements
    }

    /// The sink queries on this table report their workload evidence to.
    /// [`crate::ConcurrentTable`] hands the same sink to every snapshot,
    /// so owner, writer and reader queries all leave evidence here.
    pub fn sink(&self) -> &Arc<WorkloadSink> {
        &self.sink
    }

    /// Inserts rows, maintaining every index (paper, Section 5.1).
    pub fn insert(&mut self, rows: &[Vec<Value>]) -> Vec<RowAddr> {
        self.statements += 1;
        let addrs = self.table.insert_rows(rows);
        // An empty insert maintains nothing — in particular it must not
        // `make_mut` shared index versions, or a zero-change statement
        // would defeat the writer's no-op publish detection.
        if !addrs.is_empty() {
            for idx in &mut self.indexes {
                Arc::make_mut(idx).handle_insert(&mut self.table, &addrs);
            }
        }
        addrs
    }

    /// Deletes visible rows of one partition, maintaining every index
    /// (paper, Section 5.3).
    pub fn delete(&mut self, pid: usize, rids: &[usize]) {
        self.statements += 1;
        // Like the empty insert: a zero-row delete re-versions nothing.
        if !rids.is_empty() {
            // Index stores interpret the same pre-delete rowIDs the table does.
            for idx in &mut self.indexes {
                Arc::make_mut(idx).handle_delete(pid, rids);
            }
            self.table.delete(pid, rids);
        }
    }

    /// Patches `col` of the given rows, maintaining the indexes on that
    /// column (paper, Section 5.2). Indexes on other columns are
    /// unaffected.
    pub fn modify(&mut self, pid: usize, rids: &[usize], col: usize, values: &[Value]) {
        self.statements += 1;
        // Like the empty insert: a zero-row modify re-versions nothing.
        if !rids.is_empty() {
            self.table.modify(pid, rids, col, values);
            for idx in &mut self.indexes {
                if idx.column() == col {
                    Arc::make_mut(idx).handle_modify(&mut self.table, pid, rids);
                }
            }
        }
    }

    /// Applies one statement, the one write path of every writer, and
    /// returns its receipt. The caller vouches that [`Statement::check`]
    /// accepts it against this table.
    pub fn apply(&mut self, stmt: &Statement) -> Applied {
        let mut applied = Applied::default();
        match stmt {
            Statement::Insert(rows) => applied.rows = self.insert(rows),
            Statement::Modify {
                pid,
                rids,
                col,
                values,
            } => self.modify(*pid, rids, *col, values),
            Statement::Delete { pid, rids } => self.delete(*pid, rids),
            Statement::AddIndex {
                col,
                constraint,
                design,
            } => applied.slot = Some(self.add_index(*col, *constraint, *design)),
            Statement::DropIndex { slot } => {
                applied.dropped = Some(self.indexes.remove(*slot));
            }
            Statement::Recompute { slot } => {
                Arc::make_mut(&mut self.indexes[*slot]).recompute(&self.table);
            }
        }
        applied
    }

    /// Merges pending deltas into base storage (visible rowIDs do not
    /// change, so indexes stay valid).
    pub fn propagate(&mut self) {
        self.table.propagate_all();
    }

    /// Verifies every index against the table (test helper).
    pub fn check_consistency(&self) {
        for idx in &self.indexes {
            idx.check_consistency(&self.table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::SortDir;
    use crate::discovery::sampled_match;
    use crate::store::PatchStore;
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
    fn lifecycle_with_two_indexes() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(
            1,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
        );
        it.insert(&[row(100, 20), row(101, 60)]);
        it.check_consistency();
        // Both indexes grew with the table.
        assert_eq!(it.index(0).nrows(), 7);
        assert_eq!(it.index(1).nrows(), 7);
        // NUC found the duplicate 20.
        assert_eq!(it.index(0).exception_count(), 2);
    }

    #[test]
    fn delete_keeps_indexes_aligned() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.delete(0, &[1]);
        it.check_consistency();
        assert_eq!(it.index(0).nrows(), 4);
    }

    #[test]
    fn modify_only_touches_matching_indexes() {
        let mut it = fresh();
        let on_v = it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let on_k = it.add_index(0, Constraint::NearlyUnique, Design::Bitmap);
        it.modify(0, &[0], 1, &[Value::Int(15)]);
        it.check_consistency();
        assert_eq!(it.index(on_v).exception_count(), 1);
        assert_eq!(it.index(on_k).exception_count(), 0);
    }

    /// A rolling window (insert k rows, delete the k oldest) frees the
    /// front shards of a Bitmap index's sharded bitmaps; the bitmaps
    /// condense themselves and hold only the words their bits need, so
    /// the index stays within 5 % of a fresh build over the same rows,
    /// plus 32 B per shard, instead of growing with every round.
    #[test]
    fn rolling_window_keeps_bitmap_index_compact() {
        let mut t = Table::new(
            "window",
            Schema::new(vec![Field::new("ts", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        // Two default-size shards per partition.
        let per_part = 2 * pi_bitmap::DEFAULT_SHARD_BITS;
        for pid in 0..2 {
            t.load_partition(pid, &[ColumnData::Int((0..per_part as i64).collect())]);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        let constraint = Constraint::NearlySorted(SortDir::Asc);
        let slot = it.add_index(0, constraint, Design::Bitmap);
        let k = per_part / 8;
        let mut next = per_part as i64;
        for _ in 0..50 {
            let rows: Vec<Vec<Value>> = (next..next + 2 * k as i64)
                .map(|v| vec![Value::Int(v)])
                .collect();
            next += 2 * k as i64;
            it.insert(&rows);
            for pid in 0..2 {
                it.delete(pid, &(0..k).collect::<Vec<_>>());
            }
        }
        it.check_consistency();
        let fresh = PatchIndex::create(it.table(), 0, constraint, Design::Bitmap);
        let churned = it.index(slot);
        let shards: usize = (0..churned.partition_count())
            .map(|pid| match &churned.partition(pid).store {
                PatchStore::Bitmap(bm) => bm.shard_count(),
                PatchStore::Identifier { .. } => unreachable!("a Bitmap index"),
            })
            .sum();
        let bound = fresh.memory_bytes() * 105 / 100 + 32 * shards;
        let got = churned.memory_bytes();
        assert!(got <= bound, "{got} B after 50 rounds, bound {bound} B");
    }

    #[test]
    fn propagate_preserves_consistency() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Identifier);
        it.insert(&[row(7, 10), row(8, 99)]);
        it.delete(1, &[0]);
        it.propagate();
        it.check_consistency();
    }

    #[test]
    fn drift_counters_track_maintained_rows_and_added_patches() {
        let mut it = fresh();
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(it.index(slot).baseline().match_fraction, 1.0);
        assert_eq!(it.index(slot).drift_rate(), 0.0);
        // Insert a duplicate (2 new patches) and a fresh value.
        it.insert(&[row(100, 20), row(101, 60)]);
        let idx = it.index(slot);
        assert_eq!(idx.maintained_since_recompute(), 2);
        assert_eq!(idx.drift_patches(), 2);
        assert!((idx.drift_rate() - 1.0).abs() < 1e-12);
        assert!(idx.match_fraction() < 1.0);
        // Recompute re-anchors the baseline; cumulative stats survive.
        it.apply(&Statement::Recompute { slot });
        let idx = it.index(slot);
        assert_eq!(idx.maintained_since_recompute(), 0);
        assert_eq!(idx.drift_patches(), 0);
        assert_eq!(idx.maintenance_stats().maintained_rows, 2);
        assert_eq!(idx.baseline().match_fraction, idx.match_fraction());
    }

    #[test]
    fn drop_index_removes_the_slot() {
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let dropped = it.apply(&Statement::DropIndex { slot: 0 }).dropped;
        assert_eq!(dropped.unwrap().constraint(), Constraint::NearlyUnique);
        assert_eq!(it.indexes().len(), 1);
        assert_eq!(
            it.index(0).constraint(),
            Constraint::NearlySorted(SortDir::Asc)
        );
        it.check_consistency();
    }

    #[test]
    fn query_feedback_touches_neither_cache_nor_index() {
        use crate::snapshot::WorkloadEvent;
        let mut it = fresh();
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let before = it.catalog();
        let shared = it.share_indexes();
        it.sink().record([WorkloadEvent::Feedback {
            column: 1,
            constraint: Constraint::NearlyUnique,
            est_cost_saved: 123.0,
        }]);
        assert_eq!(before, it.catalog(), "feedback is not index state");
        for (a, b) in shared.iter().zip(it.indexes()) {
            assert!(Arc::ptr_eq(a, b), "feedback must not re-version an index");
        }
        // Feedback names its index by what it materializes, so a drop
        // that shifts slots cannot hand it to a neighbour.
        it.apply(&Statement::DropIndex { slot: 0 });
        let fb = it.sink().take().feedback[&(1, Constraint::NearlyUnique)];
        assert_eq!(fb.times_bound, 1);
        assert!((fb.est_cost_saved - 123.0).abs() < 1e-9);
    }

    #[test]
    fn query_log_counts_per_column_and_shape() {
        use crate::snapshot::WorkloadEvent;
        let it = fresh();
        let query = |col, shape| WorkloadEvent::Query { col, shape };
        it.sink().record([
            query(1, QueryShape::Distinct),
            query(1, QueryShape::Distinct),
            query(0, QueryShape::Sort(SortDir::Asc)),
        ]);
        let queries = it.sink().take().queries;
        assert_eq!(queries[&(1, QueryShape::Distinct)], 2);
        assert_eq!(queries[&(0, QueryShape::Sort(SortDir::Asc))], 1);
        assert!(!queries.contains_key(&(0, QueryShape::Distinct)));
        assert_eq!(queries.values().sum::<u64>(), 3);
    }

    #[test]
    fn discovery_sampling_estimates_column_match_fractions() {
        let mut it = fresh();
        // Column 0 (k) is unique and sorted; column 1 (v) unique too.
        assert_eq!(
            sampled_match(it.table(), 0, Constraint::NearlyUnique),
            Some(1.0)
        );
        assert_eq!(
            sampled_match(it.table(), 0, Constraint::NearlySorted(SortDir::Asc)),
            Some(1.0)
        );
        // Duplicates inserted: the estimate reacts.
        let rows: Vec<Vec<Value>> = (0..30).map(|i| row(200 + i, 7777)).collect();
        it.insert(&rows);
        let est = sampled_match(it.table(), 1, Constraint::NearlyUnique).unwrap();
        assert!(
            est < 1.0,
            "duplicates must lower the NUC estimate, got {est}"
        );
    }

    /// Regression: RoundRobin routing interleaves a globally sorted
    /// insert stream across partitions; since NSC is partition-local,
    /// the sampled NSC estimate must still be 1.0 (a
    /// pooled sample would report ~0.5 and starve the advisor).
    #[test]
    fn sampling_scores_partition_locally_under_round_robin() {
        let mut t = Table::new(
            "rr",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("ts", DataType::Int),
            ]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![]), ColumnData::Int(vec![])]);
        t.load_partition(1, &[ColumnData::Int(vec![]), ColumnData::Int(vec![])]);
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        let rows: Vec<Vec<Value>> = (0..500).map(|i| row(i, 2 * i)).collect();
        it.insert(&rows); // round-robin: p0 and p1 each sorted, interleaved
        assert!(it.table().partition(0).visible_len() > 0);
        assert!(it.table().partition(1).visible_len() > 0);
        let est = sampled_match(it.table(), 1, Constraint::NearlySorted(SortDir::Asc)).unwrap();
        assert!(
            (est - 1.0).abs() < 1e-12,
            "per-partition sorted must score 1.0, got {est}"
        );
    }
}
