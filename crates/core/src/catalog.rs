//! Optimizer-facing catalog snapshots.
//!
//! The planner reasons over *all* PatchIndexes of a table at once (the
//! paper's Sections 3.3/3.5 assume the system picks the best materialized
//! constraint per query), and its cost model reads only what a
//! PatchIndex already stores: totals of covered rows and patches per
//! index, the table's visible rows and its partition count. A snapshot
//! is immutable and cheap — counter reads off the patch stores, with no
//! pass over any data. Per-partition decisions (zero-branch pruning
//! during lowering) read the live indexes instead, and the distinct
//! cardinality a NUC index informs is estimated from its patch count
//! where the cost model reads it.

use pi_storage::Table;

use crate::constraint::Constraint;
use crate::index::PatchIndex;

/// Snapshot of one PatchIndex for the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Slot of the index in its catalog (the plan's `PatchScan` binding).
    pub slot: usize,
    /// Indexed column.
    pub column: usize,
    /// Materialized constraint.
    pub constraint: Constraint,
    /// Tuples the index covers, over all partitions.
    pub rows: u64,
    /// Patches (exceptions), over all partitions.
    pub patches: u64,
}

/// Every index on a table plus the table's shape: the unit the optimizer
/// plans against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexCatalog {
    /// Visible rows over all partitions.
    pub rows: u64,
    /// Number of partitions.
    pub partitions: usize,
    /// One snapshot per index, in slot order.
    pub indexes: Vec<IndexStats>,
}

impl IndexCatalog {
    /// Snapshots `indexes` (in slot order) over `table`. Generic over
    /// owned indexes and shared (`Arc`) handles alike.
    pub fn of<I: std::borrow::Borrow<PatchIndex>>(table: &Table, indexes: &[I]) -> Self {
        IndexCatalog {
            rows: table.visible_len() as u64,
            partitions: table.partition_count(),
            indexes: indexes
                .iter()
                .enumerate()
                .map(|(slot, idx)| {
                    let idx = idx.borrow();
                    IndexStats {
                        slot,
                        column: idx.column(),
                        constraint: idx.constraint(),
                        rows: idx.nrows(),
                        patches: idx.exception_count(),
                    }
                })
                .collect(),
        }
    }

    /// The first NUC index on `column`, if any.
    pub fn nuc_on(&self, column: usize) -> Option<&IndexStats> {
        self.indexes
            .iter()
            .find(|e| e.column == column && e.constraint == Constraint::NearlyUnique)
    }

    /// The entry of the index in `slot`: entries are in slot order, one
    /// per live index.
    pub fn by_slot(&self, slot: usize) -> Option<&IndexStats> {
        self.indexes.get(slot)
    }
}

impl PatchIndex {
    /// Patches in one partition (per-partition zero-branch pruning reads
    /// this).
    pub fn partition_patch_count(&self, pid: usize) -> u64 {
        self.partition(pid).store.patch_count()
    }

    /// Rows covered in one partition.
    pub fn partition_rows(&self, pid: usize) -> u64 {
        self.partition(pid).store.nrows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Design, SortDir};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};

    fn table(values_per_part: Vec<Vec<i64>>) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            values_per_part.len(),
            Partitioning::RoundRobin,
        );
        for (pid, vals) in values_per_part.into_iter().enumerate() {
            t.load_partition(pid, &[ColumnData::Int(vals)]);
        }
        t.propagate_all();
        t
    }

    #[test]
    fn per_partition_counts_are_partition_local() {
        let t = table(vec![vec![1, 2, 2, 3], vec![5, 6, 7, 8]]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.partition_patch_count(0), 2);
        assert_eq!(idx.partition_patch_count(1), 0);
        assert_eq!((idx.partition_rows(0), idx.partition_rows(1)), (4, 4));
        // The catalog holds the totals.
        let cat = IndexCatalog::of(&t, std::slice::from_ref(&idx));
        assert_eq!((cat.rows, cat.partitions), (8, 2));
        assert_eq!((cat.indexes[0].rows, cat.indexes[0].patches), (8, 2));
    }

    #[test]
    fn catalog_snapshots_all_indexes_in_slot_order() {
        let t = table(vec![vec![1, 2, 99, 3], vec![4, 5, 6, 7]]);
        let nuc = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let nsc = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        let indexes = vec![nuc, nsc];
        let cat = IndexCatalog::of(&t, &indexes);
        assert_eq!(cat.indexes.len(), 2);
        assert_eq!(cat.indexes[0].slot, 0);
        assert_eq!(cat.indexes[1].slot, 1);
        assert_eq!(cat.indexes[0].constraint, Constraint::NearlyUnique);
        assert_eq!(
            cat.indexes[1].constraint,
            Constraint::NearlySorted(SortDir::Asc)
        );
        assert!(cat.nuc_on(0).is_some());
        assert!(cat.nuc_on(1).is_none());
    }
}
