//! PatchIndex scan construction (paper, Section 3.3).
//!
//! A PatchIndex scan is one partition scan with rowIDs whose
//! [`PatchSelectOp`] merges the patch information on the fly and splits
//! the dataflow into an `exclude_patches` flow (where the constraint holds
//! and cheaper operators can be used) and a `use_patches` flow over the
//! exceptions; plans recombine them with Union or Merge.
//! [`patch_scan_split`] hands out both flows of one scan — the partition
//! is read once, a pushed-down predicate is evaluated once, each flow's
//! rows are gathered once — and [`patch_scan`] a single flow, for plans
//! that lower the two flows as independent subtrees.

use pi_exec::ops::patch_select::{PatchMode, PatchSelectOp};
use pi_exec::ops::scan::ScanOp;
use pi_exec::{Expr, OpRef};
use pi_storage::Partition;

use crate::index::PatchIndex;

/// Builds a PatchIndex scan over one partition: scans `cols` plus the
/// rowID column (at index `cols.len()`), filtered by patch membership.
pub fn patch_scan<'a>(
    partition: &'a Partition,
    index: &'a PatchIndex,
    cols: Vec<usize>,
    mode: PatchMode,
) -> OpRef<'a> {
    Box::new(PatchSelectOp::new(
        ScanOp::new(partition, cols, true),
        index.lookup(partition.id),
        mode,
    ))
}

/// Both flows of one PatchIndex scan over a partition, `(exclude_patches,
/// use_patches)`, each with the layout of [`patch_scan`] and restricted to
/// the rows satisfying `pred` (column indices into that layout). Pulling
/// either flow drives the shared scan; the other flow's batches wait in a
/// queue, so pull the large flow first. A flow that is dropped is no
/// longer selected for.
pub fn patch_scan_split<'a>(
    partition: &'a Partition,
    index: &'a PatchIndex,
    cols: Vec<usize>,
    pred: Option<Expr>,
) -> (OpRef<'a>, OpRef<'a>) {
    let (exclude, use_patches) = PatchSelectOp::split(
        ScanOp::new(partition, cols, true),
        index.lookup(partition.id),
        pred,
    );
    (Box::new(exclude), Box::new(use_patches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint, Design, SortDir};
    use pi_exec::ops::filter::FilterOp;
    use pi_exec::{collect, Batch};
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
        let (mut ex, mut us) = patch_scan_split(t.partition(0), &idx, vec![0], None);
        let kept = collect(ex.as_mut());
        let patches = collect(us.as_mut());
        assert_eq!(kept.column(0).as_int(), &[1, 2, 3, 4]);
        assert_eq!(patches.column(0).as_int(), &[99]);
        // RowID column travels at index 1.
        assert_eq!(patches.column(1).as_int(), &[2]);
    }

    #[test]
    fn exclude_flow_is_unique_for_nuc() {
        let t = table(vec![7, 1, 7, 2, 1]);
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Identifier);
        let (mut ex, _) = patch_scan_split(t.partition(0), &idx, vec![0], None);
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

    fn int_rows(b: &Batch) -> Vec<Vec<i64>> {
        (0..b.len())
            .map(|i| b.columns().iter().map(|c| c.as_int()[i]).collect())
            .collect()
    }

    /// Every partition's split, flow by flow and row for row, against the
    /// composition it replaces: `FilterOp(patch_scan(mode))`. Returns the
    /// rows seen per flow.
    fn assert_split_is_the_composition(t: &Table, idx: &PatchIndex) -> [usize; 2] {
        let pred = Expr::Between(Box::new(Expr::col(1)), 20, 70);
        let mut seen = [0; 2];
        for part in t.partitions() {
            for pull_patches_first in [false, true] {
                let (ex, us) = patch_scan_split(part, idx, vec![0, 1], Some(pred.clone()));
                let mut flows = [(PatchMode::ExcludePatches, ex), (PatchMode::UsePatches, us)];
                if pull_patches_first {
                    flows.reverse();
                }
                for (mode, mut flow) in flows {
                    let composed = patch_scan(part, idx, vec![0, 1], mode);
                    let want = collect(&mut FilterOp::new(composed, pred.clone()));
                    let got = collect(flow.as_mut());
                    assert_eq!(int_rows(&got), int_rows(&want), "{mode:?}");
                    seen[mode as usize] += got.len();
                }
            }
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
        assert_eq!(assert_split_is_the_composition(&t, &idx), [0, 2 * 5_000]);
    }
}
