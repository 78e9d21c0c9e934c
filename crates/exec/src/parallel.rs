//! Partition-parallel query execution.
//!
//! Constraint discovery, index creation and query processing are performed
//! partition-locally and in parallel (paper, Section 3.2). The helper here
//! runs one closure per partition on scoped threads and returns results in
//! partition order; callers combine them with Union / ordered Merge / a
//! final aggregation, mirroring the paper's per-partition plans.

use std::sync::{Arc, OnceLock};

use pi_storage::{Partition, Table};

/// The machine's available parallelism, read once: the standard library
/// re-reads the cgroup limits on every call, which costs more than a small
/// statement's whole fan-out.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs `f` once per partition (in parallel) and collects the results in
/// partition order. Fan-out is clamped to the machine's available
/// parallelism: a table with P ≫ cores partitions costs `min(P, cores)`
/// workers instead of P. Worker `w` takes partitions `w, w+workers, …`
/// (strided) so adjacent heavy partitions — skew is usually clustered —
/// spread across workers instead of serializing on one. The calling thread
/// is worker 0, so only `workers − 1` threads are spawned.
pub fn per_partition<T, F>(table: &Table, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Partition) -> T + Sync,
{
    let partitions: Vec<&Partition> = table.partitions().iter().map(Arc::as_ref).collect();
    let workers = cores().min(partitions.len());
    if workers <= 1 {
        return partitions.into_iter().map(f).collect();
    }
    let stride = |w: usize| -> Vec<(usize, T)> {
        let mine = partitions.iter().enumerate().skip(w).step_by(workers);
        mine.map(|(i, p)| (i, f(p))).collect()
    };
    let stride = &stride;
    let mut out: Vec<Option<T>> = (0..partitions.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || stride(w)))
            .collect();
        let mut done = stride(0);
        for h in handles {
            done.extend(h.join().expect("partition worker panicked"));
        }
        for (i, v) in done {
            out[i] = Some(v);
        }
    });
    out.into_iter()
        .map(|t| t.expect("partition worker completed"))
        .collect()
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
        // 97 partitions (prime, so striding never divides evenly) on any
        // core count: every partition processed exactly once, in order.
        let t = table(97, 8);
        let ids = per_partition(&t, |p| p.id);
        assert_eq!(ids, (0..97).collect::<Vec<_>>());
        let sums = per_partition(&t, |p| p.base_column(0).as_int().iter().sum::<i64>());
        assert_eq!(sums.iter().sum::<i64>(), (0..97 * 8).sum());
    }
}
