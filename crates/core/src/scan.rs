//! PatchIndex scan construction (paper, Section 3.3).
//!
//! A PatchIndex scan is one partition scan whose [`PatchSelectOp`] merges
//! the patch information on the fly and keeps either the
//! `exclude_patches` flow (where the constraint holds and cheaper
//! operators can be used) or the `use_patches` flow over the exceptions;
//! plans recombine the two with Union or Merge. The scan emits no rowID
//! column — the patch mask's window comes from the scan position — so a
//! flow has exactly the layout of a plain scan of the same columns.
//! [`patch_scan`] builds one flow, as the planner's lowering does for
//! each of its two plan nodes. [`patch_merge_join`] joins both flows of
//! one scan with a sorted build side in a single pass (paper, Figure 2
//! right): the partition is read once, a pushed-down predicate is
//! evaluated once, and a line is copied only once it has found its
//! partner.

use std::ops::Range;

use pi_exec::ops::merge_join::PatchMergeJoinOp;
use pi_exec::ops::patch_select::{PatchMode, PatchSelectOp};
use pi_exec::ops::scan::ScanOp;
use pi_exec::{Batch, Expr, OpRef};
use pi_storage::Partition;

use crate::index::PatchIndex;

/// Builds a PatchIndex scan over one partition: scans `cols`, filtered by
/// patch membership.
pub fn patch_scan<'a>(
    partition: &'a Partition,
    index: &'a PatchIndex,
    cols: Vec<usize>,
    mode: PatchMode,
) -> OpRef<'a> {
    Box::new(PatchSelectOp::new(
        ScanOp::new(partition, cols, false),
        index.lookup(partition.id),
        mode,
    ))
}

/// The inner join of `x`, materialized and sorted ascending on its `Int`
/// column `x_key`, with the rows of a PatchIndex scan of `cols` over the
/// partition that satisfy `pred` (column indices into `cols`), on the
/// indexed column, which `cols` must list. `index` must be nearly sorted
/// ascending. Output columns are `[x columns..., cols...]`.
pub fn patch_merge_join<'a>(
    partition: &'a Partition,
    index: &'a PatchIndex,
    cols: Vec<usize>,
    pred: Option<Expr>,
    x: &'a Batch,
    x_key: usize,
) -> OpRef<'a> {
    let rows = 0..partition.visible_len();
    patch_merge_join_rows(partition, rows, index, cols, pred, x, x_key)
}

/// [`patch_merge_join`] over the visible rows `rows` of the partition
/// only: one morsel of a partition-parallel join. Its output is the
/// whole-partition join's rows from `rows`, in their order, when `rows`
/// starts and ends where a whole-partition scan starts a window
/// (`pi_exec::parallel::morsels` cuts there).
pub fn patch_merge_join_rows<'a>(
    partition: &'a Partition,
    rows: Range<usize>,
    index: &'a PatchIndex,
    cols: Vec<usize>,
    pred: Option<Expr>,
    x: &'a Batch,
    x_key: usize,
) -> OpRef<'a> {
    let key = cols
        .iter()
        .position(|&c| c == index.column())
        .expect("the scan reads the indexed column");
    Box::new(PatchMergeJoinOp::new(
        x,
        x_key,
        ScanOp::with_ranges(partition, cols, vec![rows], false),
        key,
        index.lookup(partition.id),
        pred,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint, Design, SortDir};
    use pi_exec::ops::filter::FilterOp;
    use pi_exec::ops::hash_join::HashJoinOp;
    use pi_exec::{collect, BatchSource};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

    fn table(vals: Vec<i64>) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            1,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vals)]);
        t.propagate_all();
        t
    }

    #[test]
    fn split_flows_partition_the_rows() {
        let t = table(vec![1, 2, 99, 3, 4]);
        let idx = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        let flow = |mode| collect(patch_scan(t.partition(0), &idx, vec![0], mode).as_mut());
        let kept = flow(PatchMode::ExcludePatches);
        let patches = flow(PatchMode::UsePatches);
        assert_eq!(kept.column(0).as_int(), &[1, 2, 3, 4]);
        assert_eq!(patches.column(0).as_int(), &[99]);
        // No rowID column: a flow has the plain scan's layout.
        assert_eq!(patches.width(), 1);
    }

    #[test]
    fn exclude_flow_is_unique_for_nuc() {
        let t = table(vec![7, 1, 7, 2, 1]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Identifier);
        let mut ex = patch_scan(t.partition(0), &idx, vec![0], PatchMode::ExcludePatches);
        let kept = collect(ex.as_mut());
        assert_eq!(kept.column(0).as_int(), &[2]);
    }

    /// A two-column table `(v, w)`: `v` as given, `w = v % 100`.
    fn payload_table(partitions: usize, load: &[(usize, Vec<i64>)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("w", DataType::Int),
        ]);
        let mut t = Table::new("t", schema, partitions, Partitioning::RoundRobin);
        for (pid, vals) in load {
            let w = vals.iter().map(|v| v % 100).collect();
            t.load_partition(*pid, &[ColumnData::Int(vals.clone()), ColumnData::Int(w)]);
        }
        t.propagate_all();
        t
    }

    fn sorted_rows(b: &Batch) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = (0..b.len())
            .map(|i| b.columns().iter().map(|c| c.as_int()[i]).collect())
            .collect();
        rows.sort();
        rows
    }

    /// Every partition's one-pass join against the composition it
    /// replaces: a hash join of `x` with `FilterOp(patch_scan(mode))`
    /// per flow. `x` holds the keys -5..21000 except those ≡ 1 (mod 5),
    /// every fourth one twice, and a payload column. Returns the joined
    /// rows per flow.
    fn assert_split_is_the_composition(t: &Table, idx: &PatchIndex) -> [usize; 2] {
        let pred = Expr::Between(Box::new(Expr::col(1)), 20, 70);
        let keys: Vec<i64> = (-5..21_000)
            .filter(|k| k % 5 != 1)
            .flat_map(|k| vec![k; 1 + usize::from(k % 4 == 0)])
            .collect();
        let payload = (0..keys.len() as i64).collect();
        let x = Batch::new(vec![ColumnData::Int(keys), ColumnData::Int(payload)]);
        let mut seen = [0; 2];
        for part in t.partitions() {
            let mut want = Vec::new();
            for mode in [PatchMode::ExcludePatches, PatchMode::UsePatches] {
                let flow = FilterOp::new(patch_scan(part, idx, vec![0, 1], mode), pred.clone());
                let x_source = Box::new(BatchSource::single(x.clone()));
                let joined = collect(&mut HashJoinOp::inner(Box::new(flow), 0, x_source, 0));
                seen[mode as usize] += joined.len();
                want.extend(sorted_rows(&joined));
            }
            want.sort();
            let mut join = patch_merge_join(part, idx, vec![0, 1], Some(pred.clone()), &x, 0);
            let got = collect(join.as_mut());
            assert_eq!(sorted_rows(&got), want, "partition {}", part.id);
        }
        seen
    }

    /// 10k nearly sorted rows (every 17th out of order), then inserts,
    /// deletes and modifies that are maintained in the index but not
    /// propagated into storage.
    fn table_with_pending_deltas(design: Design) -> (Table, PatchIndex) {
        let vals: Vec<i64> = (0..10_000)
            .map(|i| if i % 17 == 0 { 20_000 - i } else { i })
            .collect();
        let mut t = payload_table(1, &[(0, vals)]);
        let mut idx = PatchIndex::create(&t, 0, Constraint::NearlySorted(SortDir::Asc), design);
        let rows: Vec<Vec<Value>> = [10_050, 30, 10_060, 45, 10_070, 10_080]
            .iter()
            .map(|&v| vec![Value::Int(v), Value::Int(v % 100)])
            .collect();
        let addrs = t.insert_rows(&rows);
        idx.handle_insert(&mut t, &addrs);
        let deleted: Vec<usize> = (0..9_000).step_by(13).collect();
        idx.handle_delete(0, &deleted);
        t.delete(0, &deleted);
        let modified = [5, 4_100, 8_000];
        t.modify(
            0,
            &modified,
            0,
            &[Value::Int(-1), Value::Int(3), Value::Int(99_999)],
        );
        idx.handle_modify(&mut t, 0, &modified);
        assert!(
            !t.partition(0).delta().is_empty(),
            "deltas must stay pending"
        );
        (t, idx)
    }

    #[test]
    fn split_with_predicate_is_the_old_composition_on_pending_deltas() {
        let (t, idx) = table_with_pending_deltas(Design::Bitmap);
        let [kept, patches] = assert_split_is_the_composition(&t, &idx);
        assert!(
            kept > 4_000 && patches > 200,
            "weak test: {kept} / {patches}"
        );
    }

    #[test]
    fn split_with_predicate_is_the_old_composition_for_identifier_design() {
        let (t, idx) = table_with_pending_deltas(Design::Identifier);
        let [kept, patches] = assert_split_is_the_composition(&t, &idx);
        assert!(
            kept > 4_000 && patches > 200,
            "weak test: {kept} / {patches}"
        );
    }

    #[test]
    fn split_with_predicate_on_all_patch_and_empty_partitions() {
        // A constant column is all exceptions under NUC; partition 1 holds
        // no rows at all.
        let t = payload_table(2, &[(0, vec![42; 5_000])]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.exception_rate(), 1.0);
        assert_eq!(t.partition(1).visible_len(), 0);
        assert_eq!(assert_split_is_the_composition(&t, &idx), [0, 5_000]);
    }
}
