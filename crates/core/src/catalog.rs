//! Optimizer-facing catalog snapshots.
//!
//! The planner reasons over *all* PatchIndexes of a table at once (the
//! paper's Sections 3.3/3.5 assume the system picks the best materialized
//! constraint per query) and plans partition-locally, so the snapshot
//! carries per-partition row and patch counts rather than only global
//! totals. A snapshot is immutable and cheap: counts come straight from
//! the patch stores, and so does the distinct-patch-value count of NUC
//! indexes, which feeds the index-informed distinct-cardinality
//! estimate. The index carries that count through maintenance (see
//! [`PatchIndex::patch_distinct_count`]); only the first snapshot after
//! a NUC modify or a delete of a patch row recounts it, with one hash
//! pass over the patch rows. The recount is capped at
//! `PATCH_DISTINCT_EXACT_CAP` patches — beyond that the conventional
//! 50% estimate stands in, keeping every snapshot O(small).

use pi_storage::Table;

use crate::constraint::Constraint;
use crate::index::PatchIndex;
use crate::maintenance::gather_values;

/// Row and patch counts of one index on one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// Tuples the index covers in this partition.
    pub rows: u64,
    /// Patches (exceptions) in this partition.
    pub patches: u64,
}

/// Snapshot of one PatchIndex for the optimizer.
#[derive(Debug, Clone)]
pub struct IndexStats {
    /// Slot of the index in its catalog (the plan's `PatchScan` binding).
    pub slot: usize,
    /// Indexed column.
    pub column: usize,
    /// Materialized constraint.
    pub constraint: Constraint,
    /// Per-partition row/patch counts.
    pub parts: Vec<PartitionStats>,
    /// Distinct values among the patch rows (NUC only; 0 otherwise).
    /// NUC patches every occurrence of a duplicated value, so
    /// `distinct(table) ≈ kept rows + distinct(patches)`.
    pub patch_distinct: u64,
}

/// Largest patch set whose distinct-value count the snapshot computes
/// exactly. Snapshots run on every planned query, so the pass must stay
/// cheap; beyond the cap the conventional 50% estimate is used instead —
/// at such exception rates the rewrite is rejected by the cost gate
/// anyway, exactly as it was with the uninformed estimate.
const PATCH_DISTINCT_EXACT_CAP: u64 = 1 << 16;

impl IndexStats {
    /// Snapshot of a live index in `slot`, including the distinct-value
    /// count over its patch rows (read from `table`; estimated as half
    /// the patches once the patch set exceeds the exact-count cap).
    pub fn of(index: &PatchIndex, slot: usize, table: &Table) -> Self {
        let parts: Vec<PartitionStats> = (0..index.partition_count())
            .map(|pid| PartitionStats {
                rows: index.partition(pid).store.nrows(),
                patches: index.partition_patch_count(pid),
            })
            .collect();
        let patches: u64 = parts.iter().map(|p| p.patches).sum();
        let patch_distinct = match index.constraint() {
            Constraint::NearlyUnique if patches <= PATCH_DISTINCT_EXACT_CAP => {
                index.patch_distinct_count(table)
            }
            Constraint::NearlyUnique => patches / 2,
            _ => 0,
        };
        IndexStats {
            slot,
            column: index.column(),
            constraint: index.constraint(),
            parts,
            patch_distinct,
        }
    }

    /// Total covered rows.
    pub fn rows(&self) -> u64 {
        self.parts.iter().map(|p| p.rows).sum()
    }

    /// Total patches.
    pub fn patches(&self) -> u64 {
        self.parts.iter().map(|p| p.patches).sum()
    }
}

/// Every index on a table plus the per-partition table shape: the unit
/// the optimizer plans against.
#[derive(Debug, Clone)]
pub struct IndexCatalog {
    /// Visible rows per partition.
    pub part_rows: Vec<u64>,
    /// One snapshot per index, in slot order.
    pub indexes: Vec<IndexStats>,
}

impl IndexCatalog {
    /// Snapshots `indexes` (in slot order) over `table`. Generic over
    /// owned indexes and shared (`Arc`) handles alike.
    pub fn of<I: std::borrow::Borrow<PatchIndex>>(table: &Table, indexes: &[I]) -> Self {
        IndexCatalog {
            part_rows: table
                .partitions()
                .iter()
                .map(|p| p.visible_len() as u64)
                .collect(),
            indexes: indexes
                .iter()
                .enumerate()
                .map(|(slot, idx)| IndexStats::of(idx.borrow(), slot, table))
                .collect(),
        }
    }

    /// Total visible rows.
    pub fn rows(&self) -> u64 {
        self.part_rows.iter().sum()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.part_rows.len()
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
    /// Patches in one partition (per-partition zero-branch pruning and
    /// the catalog snapshot read this).
    pub fn partition_patch_count(&self, pid: usize) -> u64 {
        self.partition(pid).store.patch_count()
    }

    /// Rows covered in one partition.
    pub fn partition_rows(&self, pid: usize) -> u64 {
        self.partition(pid).store.nrows()
    }

    /// Distinct values among the patch rows. The first call after the
    /// count was dropped makes one hash pass over the patches, reading
    /// their column values from `table`; maintenance carries the result
    /// from there.
    pub fn patch_distinct_count(&self, table: &Table) -> u64 {
        *self
            .patch_distinct
            .get_or_init(|| self.count_patch_distinct(table))
    }

    /// [`PatchIndex::patch_distinct_count`] recounted from the patch
    /// stores and `table`.
    pub(crate) fn count_patch_distinct(&self, table: &Table) -> u64 {
        let col = self.column();
        let mut seen = pi_exec::hash::int_set();
        for pid in 0..self.partition_count() {
            let rids: Vec<usize> = self
                .partition(pid)
                .store
                .patch_rids()
                .iter()
                .map(|&r| r as usize)
                .collect();
            for v in gather_values(table.partition(pid), col, &rids) {
                seen.insert(v);
            }
        }
        seen.len() as u64
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
        let stats = IndexStats::of(&idx, 0, &t);
        assert_eq!(
            stats.parts[0],
            PartitionStats {
                rows: 4,
                patches: 2
            }
        );
        assert_eq!(
            stats.parts[1],
            PartitionStats {
                rows: 4,
                patches: 0
            }
        );
        assert_eq!(stats.patches(), 2);
        assert_eq!(idx.partition_patch_count(0), 2);
        assert_eq!(idx.partition_patch_count(1), 0);
    }

    #[test]
    fn patch_distinct_counts_duplicate_values_once() {
        // 2 appears twice, 5 three times: 5 patches, 2 distinct values.
        let t = table(vec![vec![1, 2, 2, 3], vec![5, 5, 5, 6]]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Identifier);
        assert_eq!(idx.exception_count(), 5);
        assert_eq!(idx.patch_distinct_count(&t), 2);
        let cat = IndexCatalog::of(&t, std::slice::from_ref(&idx));
        assert_eq!(cat.indexes[0].patch_distinct, 2);
        assert_eq!(cat.rows(), 8);
        assert_eq!(cat.part_rows, vec![4, 4]);
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
