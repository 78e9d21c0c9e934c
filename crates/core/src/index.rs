//! The PatchIndex: a materialized approximate constraint.

use pi_exec::ops::patch_select::PatchLookup;
use pi_exec::parallel::per_partition;
use pi_storage::Table;

use crate::constraint::{Constraint, Design, SortDir};
use crate::discovery::{discover, partition_column_values};
use crate::maintenance::MaintenanceStats;
use crate::statement::Statement;
use crate::stats::preferred_design;
use crate::store::PatchStore;

/// Per-partition index state. Partitioning is transparent: one patch store
/// per partition, all operations partition-local (paper, Section 3.2).
#[derive(Debug, Clone)]
pub struct PartitionIndex {
    /// The patch set.
    pub store: PatchStore,
    /// NSC: last value of the retained sorted subsequence (the anchor new
    /// inserts extend, paper Section 5.1).
    pub last_sorted: Option<i64>,
}

/// The index state captured right after a create/recompute — the
/// reference point error drift is measured against (the paper's
/// reorganization monitoring works off exactly this comparison: "updates
/// eroded optimality too far").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBaseline {
    /// Match fraction `e = 1 − patches/rows` at create/recompute time.
    pub match_fraction: f64,
    /// Patch count at create/recompute time.
    pub patches: u64,
    /// Value of [`crate::MaintenanceStats::maintained_rows`] at
    /// create/recompute time (drift rates divide by the rows maintained
    /// since, i.e. the counter's growth past this snapshot).
    pub maintained_rows: u64,
}

impl Default for DriftBaseline {
    fn default() -> Self {
        DriftBaseline {
            match_fraction: 1.0,
            patches: 0,
            maintained_rows: 0,
        }
    }
}

/// A PatchIndex over one column of a partitioned table.
///
/// `Clone` deep-copies the patch stores — the snapshot layer shares
/// indexes behind `Arc` and pays this copy only when maintenance mutates
/// an index a live snapshot still references.
/// Everything in here changes only through maintenance on the writer
/// thread; what queries learn about an index ([`crate::QueryFeedback`])
/// waits in the table's [`crate::WorkloadSink`] for the advisor.
#[derive(Debug, Clone)]
pub struct PatchIndex {
    column: usize,
    constraint: Constraint,
    design: Design,
    parts: Vec<PartitionIndex>,
    stats: MaintenanceStats,
    baseline: DriftBaseline,
}

impl PatchIndex {
    /// Discovers the constraint on `col` over the table's partitions
    /// ([`discover`]) and materializes one patch set per partition. NUC
    /// patches every occurrence of a value repeated anywhere in the
    /// column, so the kept values are unique across the table, not just
    /// within their partition; NSC and NCC are discovered per partition.
    ///
    /// Panics unless [`Statement::indexable`] accepts the column.
    pub fn create(table: &Table, col: usize, constraint: Constraint, design: Design) -> Self {
        Statement::indexable(table.schema(), col, constraint).unwrap_or_else(|e| panic!("{e}"));
        Self::build(table, col, constraint, Some(design))
    }

    /// Discovery shared by create and recompute. `design: None` lets the
    /// Table-3 memory model pick the store design from the freshly
    /// discovered exception rate (the design-migrating recompute path).
    fn build(table: &Table, col: usize, constraint: Constraint, design: Option<Design>) -> Self {
        let values = per_partition(table, |p| partition_column_values(p, col));
        let views: Vec<&[i64]> = values.iter().map(Vec::as_slice).collect();
        let discovered = discover(&views, constraint);
        let design = design.unwrap_or_else(|| {
            let rows: u64 = discovered.iter().map(|r| r.nrows).sum();
            let patches: u64 = discovered.iter().map(|r| r.patches.len() as u64).sum();
            let rate = if rows == 0 {
                0.0
            } else {
                patches as f64 / rows as f64
            };
            preferred_design(rate)
        });
        let parts = discovered
            .into_iter()
            .map(|r| PartitionIndex {
                store: PatchStore::new(design, r.nrows, &r.patches),
                last_sorted: r.last_sorted,
            })
            .collect();
        let mut idx = PatchIndex {
            column: col,
            constraint,
            design,
            parts,
            stats: MaintenanceStats::default(),
            baseline: DriftBaseline::default(),
        };
        idx.reset_baseline();
        idx
    }

    /// Rebuilds an index from persisted state: one [`PartitionIndex`] per
    /// table partition, in partition order, each store of `design` and
    /// covering exactly that partition's visible rows, plus the
    /// maintenance counters and drift baseline the index had. The caller
    /// vouches for the patch sets — recovery reads them from an image it
    /// checked against the table (`pi-durability`); nothing here rescans
    /// the data.
    pub fn restore(
        column: usize,
        constraint: Constraint,
        design: Design,
        parts: Vec<PartitionIndex>,
        stats: MaintenanceStats,
        baseline: DriftBaseline,
    ) -> Self {
        PatchIndex {
            column,
            constraint,
            design,
            parts,
            stats,
            baseline,
        }
    }

    /// Cumulative maintenance counters (see [`MaintenanceStats`]).
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.stats
    }

    pub(crate) fn set_maintenance_stats(&mut self, stats: MaintenanceStats) {
        self.stats = stats;
    }

    /// Counts `rows` row-events as maintained (insert/modify/delete
    /// handling funnels through this).
    pub(crate) fn note_maintained(&mut self, rows: u64) {
        self.stats.maintained_rows += rows;
    }

    /// Re-anchors the drift baseline at the current index state (runs
    /// after create and recompute).
    fn reset_baseline(&mut self) {
        self.baseline = DriftBaseline {
            match_fraction: self.match_fraction(),
            patches: self.exception_count(),
            maintained_rows: self.stats.maintained_rows,
        };
    }

    /// The drift baseline captured at create/recompute time.
    pub fn baseline(&self) -> DriftBaseline {
        self.baseline
    }

    /// Row-events maintained since the last create/recompute.
    pub fn maintained_since_recompute(&self) -> u64 {
        self.stats.maintained_rows - self.baseline.maintained_rows
    }

    /// Patches accumulated beyond the create/recompute-time patch set
    /// (saturating: deletes can shrink the patch set below the baseline).
    pub fn drift_patches(&self) -> u64 {
        self.exception_count().saturating_sub(self.baseline.patches)
    }

    /// Patches added per maintained row since the last create/recompute —
    /// how fast updates erode this materialization.
    pub fn drift_rate(&self) -> f64 {
        let maintained = self.maintained_since_recompute();
        if maintained == 0 {
            return 0.0;
        }
        self.drift_patches() as f64 / maintained as f64
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The materialized constraint.
    pub fn constraint(&self) -> Constraint {
        self.constraint
    }

    /// The physical design.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Number of partition-local indexes.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Partition-local state.
    pub fn partition(&self, pid: usize) -> &PartitionIndex {
        &self.parts[pid]
    }

    /// Mutable partition-local state (maintenance).
    pub(crate) fn partition_mut(&mut self, pid: usize) -> &mut PartitionIndex {
        &mut self.parts[pid]
    }

    /// Patch lookup handle for query execution.
    pub fn lookup(&self, pid: usize) -> &dyn PatchLookup {
        self.parts[pid].store.as_lookup()
    }

    /// Total tuples covered.
    pub fn nrows(&self) -> u64 {
        self.parts.iter().map(|p| p.store.nrows()).sum()
    }

    /// Total patches.
    pub fn exception_count(&self) -> u64 {
        self.parts.iter().map(|p| p.store.patch_count()).sum()
    }

    /// Global exception rate `e` (paper, Section 3.1).
    pub fn exception_rate(&self) -> f64 {
        let n = self.nrows();
        if n == 0 {
            return 0.0;
        }
        self.exception_count() as f64 / n as f64
    }

    /// Constraint-match fraction `e = 1 − patches/rows` — the per-index
    /// error estimate the advisor tracks (1.0 = the constraint holds
    /// everywhere, 0.0 = every row is an exception).
    pub fn match_fraction(&self) -> f64 {
        1.0 - self.exception_rate()
    }

    /// Heap bytes of all patch stores, at capacity: the Table-3 model's
    /// `t / 8` (Bitmap, plus at most 32 bytes per shard) or `8 · p`
    /// (Identifier), which the design-migrating recompute and the
    /// advisor's byte budget price an index at.
    pub fn memory_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.store.memory_bytes()).sum()
    }

    /// Rebuilds the index from scratch (the global recomputation the
    /// advisor triggers once updates eroded optimality too far).
    /// Maintenance stats survive; the drift baseline re-anchors at the
    /// fresh state.
    ///
    /// Recompute is **design-migrating**: the Table-3 memory model is
    /// re-evaluated at the freshly discovered exception rate, so an index
    /// whose drift carried it across the ~1.58% bitmap/identifier
    /// crossover rebuilds under the now-cheaper design instead of keeping
    /// its create-time representation forever.
    pub fn recompute(&mut self, table: &Table) {
        let stats = self.stats;
        *self = PatchIndex::build(table, self.column, self.constraint, None);
        self.stats = stats;
        self.reset_baseline();
    }

    /// Verifies the core invariant on every partition: excluding the
    /// patches, the remaining values satisfy the constraint (and for NUC
    /// are disjoint from patch values). For NUC the uniqueness/disjointness
    /// pass additionally runs *globally* across partitions — the property
    /// the distinct rewrite's un-deduplicated union actually relies on.
    /// Test / debugging aid — full scan.
    pub fn check_consistency(&self, table: &Table) {
        for (pid, part) in self.parts.iter().enumerate() {
            let p = table.partition(pid);
            assert_eq!(
                part.store.nrows() as usize,
                p.visible_len(),
                "partition {pid}: index covers {} rows, table has {}",
                part.store.nrows(),
                p.visible_len()
            );
            let values = partition_column_values(p, self.column);
            let lookup = part.store.as_lookup();
            let kept: Vec<i64> = values
                .iter()
                .enumerate()
                .filter(|(i, _)| !lookup.is_patch(*i as u64))
                .map(|(_, v)| *v)
                .collect();
            match self.constraint {
                Constraint::NearlyUnique => {
                    let mut seen = pi_exec::hash::int_set();
                    for v in &kept {
                        assert!(seen.insert(*v), "partition {pid}: duplicate kept value {v}");
                    }
                    let patch_vals: Vec<i64> = values
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| lookup.is_patch(*i as u64))
                        .map(|(_, v)| *v)
                        .collect();
                    for v in patch_vals {
                        assert!(
                            !seen.contains(&v),
                            "partition {pid}: kept value {v} also appears among patches"
                        );
                    }
                }
                Constraint::NearlySorted(SortDir::Asc) => {
                    assert!(
                        kept.windows(2).all(|w| w[0] <= w[1]),
                        "partition {pid}: kept values not ascending"
                    );
                }
                Constraint::NearlySorted(SortDir::Desc) => {
                    assert!(
                        kept.windows(2).all(|w| w[0] >= w[1]),
                        "partition {pid}: kept values not descending"
                    );
                }
                Constraint::NearlyConstant => {
                    if let Some(&first) = kept.first() {
                        assert!(
                            kept.iter().all(|&v| v == first),
                            "partition {pid}: kept values not constant"
                        );
                        if let Some(c) = part.last_sorted {
                            assert_eq!(first, c, "partition {pid}: constant anchor drifted");
                        }
                    }
                }
            }
        }
        // The NUC uniqueness/disjointness invariant additionally holds
        // *globally* across partitions — the property the distinct
        // rewrite's un-deduplicated union relies on.
        if self.constraint == Constraint::NearlyUnique {
            let mut kept_seen = pi_exec::hash::int_set();
            let mut patch_vals: Vec<i64> = Vec::new();
            for (pid, part) in self.parts.iter().enumerate() {
                let values = partition_column_values(table.partition(pid), self.column);
                let lookup = part.store.as_lookup();
                for (i, &v) in values.iter().enumerate() {
                    if lookup.is_patch(i as u64) {
                        patch_vals.push(v);
                    } else {
                        assert!(
                            kept_seen.insert(v),
                            "kept value {v} appears in more than one partition (partition {pid})"
                        );
                    }
                }
            }
            for v in patch_vals {
                assert!(
                    !kept_seen.contains(&v),
                    "value {v} is kept in one partition but patched in another"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn create_nuc_index() {
        let t = table(vec![vec![1, 2, 2, 3], vec![5, 5, 5, 6]]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.exception_count(), 5);
        assert!((idx.exception_rate() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![1, 2]);
        idx.check_consistency(&t);
    }

    #[test]
    fn create_nuc_dedupes_across_partitions() {
        // 7 appears exactly once in each partition: a partition-local
        // count would keep both occurrences, the table-wide count patches
        // both.
        let t = table(vec![vec![7, 1, 2], vec![7, 3, 4]]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![0]);
        assert_eq!(idx.partition(1).store.patch_rids(), vec![0]);
        idx.check_consistency(&t);
    }

    #[test]
    fn recompute_migrates_design_across_the_crossover() {
        // Clean data (exception rate 0, below the crossover): recompute
        // flips a Bitmap index to the cheaper Identifier design.
        let t = table(vec![(0..100).collect()]);
        let mut idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.design(), Design::Bitmap);
        idx.recompute(&t);
        assert_eq!(idx.design(), Design::Identifier);
        assert_eq!(idx.partition(0).store.design(), Design::Identifier);
        idx.check_consistency(&t);
        // A constant column (every row a patch, rate 1.0): flips back.
        let dirty = table(vec![vec![5; 64]]);
        let mut idx = PatchIndex::create(&dirty, 0, Constraint::NearlyUnique, Design::Identifier);
        idx.recompute(&dirty);
        assert_eq!(idx.design(), Design::Bitmap);
        idx.check_consistency(&dirty);
    }

    #[test]
    fn create_nsc_index_both_designs() {
        let t = table(vec![vec![1, 2, 99, 3, 4]]);
        for design in [Design::Bitmap, Design::Identifier] {
            let idx = PatchIndex::create(&t, 0, Constraint::NearlySorted(SortDir::Asc), design);
            assert_eq!(idx.partition(0).store.patch_rids(), vec![2]);
            assert_eq!(idx.partition(0).last_sorted, Some(4));
            idx.check_consistency(&t);
        }
    }

    #[test]
    fn exception_rate_zero_for_clean_data() {
        let t = table(vec![(0..100).collect()]);
        let idx = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        assert_eq!(idx.exception_rate(), 0.0);
        let nuc = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(nuc.exception_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "index covers")]
    fn consistency_detects_row_count_drift() {
        let mut t = table(vec![vec![1, 2, 3]]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        t.insert_rows(&[vec![pi_storage::Value::Int(9)]]);
        idx.check_consistency(&t);
    }
}
