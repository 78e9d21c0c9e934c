//! Partition-parallel query execution on the process-wide fan-out pool.
//!
//! Constraint discovery, index creation and query processing are performed
//! partition-locally and in parallel (paper, Section 3.2). The pool —
//! [`fan_out`], its task-size rule [`tasks_for`] and [`threads`] — lives in
//! `pi-storage`, below the delta propagate that runs on it, and is
//! re-exported here. Two forms sit on it, whose results callers combine
//! with Union / ordered Merge / a final aggregation, mirroring the paper's
//! per-partition plans:
//!
//! * [`per_partition`]: one task per partition;
//! * [`per_morsel`]: one task per *morsel*, a run of [`MORSEL_WINDOWS`]
//!   scan windows of one partition (the morsel-driven scheduling of Leis
//!   et al., "Morsel-Driven Parallelism", SIGMOD 2014). A table of one
//!   large partition, or a helper that joins a job late, still spreads
//!   over every core. Morsels are cut where a scan of the whole partition
//!   starts a window ([`morsels`]), so a scan of a morsel reads exactly
//!   the windows, and a window-wise kernel emits exactly the rows in
//!   exactly the order, that the partition's scan does.

use std::ops::Range;

pub use pi_storage::parallel::{fan_out, tasks_for, threads};

use pi_storage::{Partition, Table};

use crate::batch::BATCH_SIZE;

/// Runs `f` once per partition (in parallel) and collects the results in
/// partition order: [`fan_out`] over the table's partitions.
pub fn per_partition<T, F>(table: &Table, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Partition) -> T + Sync,
{
    let partitions = table.partitions();
    fan_out(partitions.len(), |i| f(&partitions[i]))
}

/// Scan windows of [`BATCH_SIZE`] rows per morsel: 8, so a morsel is
/// 32,768 rows. Swept on `pibench`'s `tpch_refresh` (SF 0.1: one
/// 150k-row `orders` partition, four ~150k-row `lineitem` partitions;
/// 2-vCPU Xeon VM, `--seconds 15 --trace 0`, seeds 1–3), Q3's X plus its
/// `lineitem` join took, in the median, 1.65 ms with one task per
/// partition and 1.60 / 1.56 / 1.54 / 1.52 / 1.51 ms with morsels of 1 /
/// 2 / 4 / 8 / 16 windows. X alone took 0.41–0.42 ms at 1–8 windows,
/// 0.44 ms at 16 and 0.48 ms as one task: `orders` is one partition, and
/// small morsels let the helper, which joins a job late, take a share.
/// The join is fastest at 16. End to end (the same build, seeds 1–6),
/// `read_p50_ms` read 2.47 ms at 8 windows, 2.50 at 4, 2.51 at 2 and
/// 2.52 at 16.
pub const MORSEL_WINDOWS: usize = 8;

/// The row ranges [`per_morsel`] cuts `partition`'s visible rows into, in
/// order: runs of [`MORSEL_WINDOWS`] windows, cut only where a scan of
/// the whole partition starts a window — at multiples of [`BATCH_SIZE`]
/// below the base's visible length (a window stops where the base ends),
/// then at that length plus multiples. An empty partition has none.
pub fn morsels(partition: &Partition) -> Vec<Range<usize>> {
    let step = MORSEL_WINDOWS * BATCH_SIZE;
    let base = partition.delta().base_visible_len();
    let len = partition.visible_len();
    let cuts: Vec<usize> = (0..base)
        .step_by(step)
        .chain((base..len).step_by(step))
        .chain([len])
        .collect();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Runs `f` once per morsel of every partition (in parallel) and
/// concatenates the results in (partition, morsel) order, so they come
/// out in the order one sequential loop over the partitions gives.
pub fn per_morsel<T, F>(table: &Table, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Partition, Range<usize>) -> Vec<T> + Sync,
{
    let tasks: Vec<(&Partition, Range<usize>)> = table
        .partitions()
        .iter()
        .flat_map(|p| morsels(p).into_iter().map(move |rows| (&**p, rows)))
        .collect();
    let pieces = fan_out(tasks.len(), |i| f(tasks[i].0, tasks[i].1.clone()));
    pieces.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::scan::ScanOp;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};
    use std::sync::Arc;

    fn table(nparts: usize, rows_per_part: i64) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            nparts,
            Partitioning::RoundRobin,
        );
        for p in 0..nparts {
            let base = (p as i64) * rows_per_part;
            t.load_partition(
                p,
                &[ColumnData::Int((base..base + rows_per_part).collect())],
            );
        }
        t.propagate_all();
        t
    }

    #[test]
    fn results_arrive_in_partition_order() {
        let t = table(4, 100);
        let sums = per_partition(&t, |p| p.base_column(0).as_int().iter().sum::<i64>());
        assert_eq!(sums.len(), 4);
        assert!(sums.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sums.iter().sum::<i64>(), (0..400).sum());
    }

    #[test]
    fn single_partition_runs_inline() {
        let t = table(1, 10);
        let lens = per_partition(&t, |p| p.visible_len());
        assert_eq!(lens, vec![10]);
    }

    #[test]
    fn many_more_partitions_than_cores_keeps_order_and_coverage() {
        // 97 partitions (prime) on any core count: every partition
        // processed exactly once, in order.
        let t = table(97, 8);
        let ids = per_partition(&t, |p| p.id);
        assert_eq!(ids, (0..97).collect::<Vec<_>>());
        let sums = per_partition(&t, |p| p.base_column(0).as_int().iter().sum::<i64>());
        assert_eq!(sums.iter().sum::<i64>(), (0..97 * 8).sum());
    }

    /// `(start, len)` of every window a scan of `rows` reads.
    fn windows(p: &Partition, rows: Range<usize>) -> Vec<(usize, usize)> {
        let mut scan = ScanOp::with_ranges(p, vec![0], vec![rows], false);
        std::iter::from_fn(|| scan.next_window().map(|(start, b)| (start, b.len()))).collect()
    }

    #[test]
    fn morsels_are_runs_of_the_partition_scans_windows() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]));
        // (base rows, pending deletes, pending appends): a clean base;
        // deletes that leave the base's visible length off the window
        // grid; appends past it over more than one morsel; no base.
        for (base, deletes, appends) in [
            (0, 0, 0),
            (5, 0, 0),
            (100_000, 0, 0),
            (100_000, 777, 0),
            (100_000, 777, 40_000),
            (3 * MORSEL_WINDOWS * BATCH_SIZE, 0, 40_000),
            (0, 0, 40_000),
        ] {
            let mut p = Partition::new(
                0,
                Arc::clone(&schema),
                vec![ColumnData::Int((0..base as i64).collect())],
            );
            p.delete(&(0..deletes).map(|i| i * 97).collect::<Vec<_>>());
            p.append_batch(&[ColumnData::Int(vec![-1; appends])]);
            let whole = windows(&p, 0..p.visible_len());
            let morsels = morsels(&p);
            let case = (base, deletes, appends);
            assert!(morsels.iter().all(|m| !m.is_empty()), "{case:?}");
            // Scanned morsel by morsel, the partition reads the windows
            // of its whole scan, each morsel at most `MORSEL_WINDOWS`.
            let pieces: Vec<Vec<(usize, usize)>> =
                morsels.iter().map(|m| windows(&p, m.clone())).collect();
            assert!(pieces.iter().all(|w| w.len() <= MORSEL_WINDOWS), "{case:?}");
            assert_eq!(pieces.concat(), whole, "{case:?}");
        }
    }

    #[test]
    fn per_morsel_concatenates_in_partition_and_morsel_order() {
        let t = table(3, (2 * MORSEL_WINDOWS * BATCH_SIZE + 5) as i64);
        let ranges = per_morsel(&t, |p, rows| vec![(p.id, rows)]);
        assert_eq!(ranges.len(), 9);
        let ids: Vec<usize> = ranges.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let values = per_morsel(&t, |p, rows| p.base_column(0).as_int()[rows].to_vec());
        let n = 3 * (2 * MORSEL_WINDOWS * BATCH_SIZE + 5) as i64;
        assert_eq!(values, (0..n).collect::<Vec<_>>());
    }
}
