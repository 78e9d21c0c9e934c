//! Partition-parallel query execution on the process-wide fan-out pool.
//!
//! Constraint discovery, index creation and query processing are performed
//! partition-locally and in parallel (paper, Section 3.2). The pool —
//! [`fan_out`], its task-size rule [`tasks_for`] and [`threads`] — lives in
//! `pi-storage`, below the delta propagate that runs on it, and is
//! re-exported here. [`per_partition`] is its per-partition form, whose
//! results callers combine with Union / ordered Merge / a final
//! aggregation, mirroring the paper's per-partition plans.

pub use pi_storage::parallel::{fan_out, tasks_for, threads};

use pi_storage::{Partition, Table};

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

#[cfg(test)]
mod tests {
    use super::*;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};

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
}
