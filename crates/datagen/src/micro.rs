//! The microbenchmark data generator (paper, Section 6.2; the authors'
//! generator is reference \[1\]).
//!
//! Datasets have two columns: a unique key and a value column exhibiting a
//! chosen exception rate `e` to a chosen constraint. The table is range-
//! partitioned on the key into equal slices.
//!
//! * **NUC**: exceptions draw their values from a pool of duplicate values
//!   ("equally distributed into 100K values" at paper scale); all other
//!   values are unique and disjoint from the pool. Pool values are planted
//!   in pairs *within* a partition, so partition-local discovery marks all
//!   of their occurrences — the property that keeps the rewritten distinct
//!   plan duplicate-free (see DESIGN.md).
//! * **NSC**: non-exception positions carry an ascending sequence;
//!   exceptions carry random values at random positions.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};

/// Which constraint the value column approximates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroKind {
    /// Nearly unique values.
    Nuc,
    /// Nearly sorted (ascending) values.
    Nsc,
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct MicroSpec {
    /// Total rows (the paper uses 1e9; scale to the machine).
    pub rows: usize,
    /// Partitions (paper: 24).
    pub partitions: usize,
    /// Exception rate `e` in `[0, 1]`.
    pub exception_rate: f64,
    /// Constraint kind of the value column.
    pub kind: MicroKind,
    /// Size of the duplicate-value pool for NUC (paper: 100K). Clamped so
    /// every pool value can occur at least twice.
    pub dup_values: usize,
    /// RNG seed (datasets are generated once; fixed seeds keep runs
    /// comparable, like the paper's "randomly chosen but fixed").
    pub seed: u64,
}

impl MicroSpec {
    /// A spec with paper-like defaults at the given scale.
    pub fn new(rows: usize, exception_rate: f64, kind: MicroKind) -> Self {
        MicroSpec {
            rows,
            partitions: 4,
            exception_rate,
            kind,
            dup_values: 100_000,
            seed: 0x9E37_79B9,
        }
    }

    /// Overrides the partition count.
    pub fn with_partitions(mut self, p: usize) -> Self {
        self.partitions = p;
        self
    }
}

/// A generated dataset: the table plus the planted exception positions
/// (per partition, ascending) for verification.
pub struct MicroDataset {
    /// Two-column table (`key`, `val`), range-partitioned on `key`.
    pub table: Table,
    /// Planted exception rowIDs per partition.
    pub planted: Vec<Vec<u64>>,
}

/// Generates a microbenchmark dataset.
pub fn generate(spec: &MicroSpec) -> MicroDataset {
    assert!(spec.partitions > 0 && spec.rows > 0, "empty spec");
    assert!(
        (0.0..=1.0).contains(&spec.exception_rate),
        "exception rate out of range"
    );
    let rows_per_part = spec.rows.div_ceil(spec.partitions);
    let boundaries: Vec<i64> = (1..spec.partitions)
        .map(|p| (p * rows_per_part) as i64)
        .collect();
    let schema = Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("val", DataType::Int),
    ]);
    let mut table = Table::new(
        "micro",
        schema,
        spec.partitions,
        Partitioning::KeyRange { col: 0, boundaries },
    );
    let mut planted = Vec::with_capacity(spec.partitions);
    let mut next_unique = spec.rows as i64; // unique values disjoint from pool
    for pid in 0..spec.partitions {
        let start = pid * rows_per_part;
        let end = ((pid + 1) * rows_per_part).min(spec.rows);
        let n = end - start;
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ (pid as u64).wrapping_mul(0xA24B_AED4));
        let keys: Vec<i64> = (start as i64..end as i64).collect();
        let n_exc = ((n as f64) * spec.exception_rate).round() as usize;
        // Random exception positions within the partition.
        let mut positions: Vec<usize> = (0..n).collect();
        positions.shuffle(&mut rng);
        let mut exc_pos: Vec<usize> = positions[..n_exc].to_vec();
        exc_pos.sort_unstable();
        let is_exc = {
            let mut v = vec![false; n];
            exc_pos.iter().for_each(|&p| v[p] = true);
            v
        };
        let vals: Vec<i64> = match spec.kind {
            MicroKind::Nuc => {
                // Draw pool values in pairs so every pool value occurring in
                // this partition occurs at least twice here.
                let pool = spec.dup_values.clamp(1, (n_exc / 2).max(1));
                let mut exc_vals = Vec::with_capacity(n_exc);
                while exc_vals.len() + 2 <= n_exc {
                    let v = rng.gen_range(0..pool as i64);
                    exc_vals.push(v);
                    exc_vals.push(v);
                }
                // An odd remainder repeats the previous value once more.
                if exc_vals.len() < n_exc {
                    let v = exc_vals.last().copied().unwrap_or(0);
                    exc_vals.push(v);
                }
                exc_vals.shuffle(&mut rng);
                let mut ei = 0;
                (0..n)
                    .map(|i| {
                        if is_exc[i] {
                            let v = exc_vals[ei];
                            ei += 1;
                            v
                        } else {
                            next_unique += 1;
                            next_unique
                        }
                    })
                    .collect()
            }
            MicroKind::Nsc => {
                // Sorted backbone over non-exception positions; exceptions
                // carry random values anywhere in the domain.
                let mut sorted_val = (start as i64) * 2;
                (0..n)
                    .map(|i| {
                        if is_exc[i] {
                            rng.gen_range(0..(spec.rows as i64 * 2))
                        } else {
                            sorted_val += 2;
                            sorted_val
                        }
                    })
                    .collect()
            }
        };
        table.load_partition(pid, &[ColumnData::Int(keys), ColumnData::Int(vals)]);
        planted.push(exc_pos.iter().map(|&p| p as u64).collect());
    }
    table.propagate_all();
    MicroDataset { table, planted }
}

/// Rows used by the update experiments (paper, Section 6.2.4–6.2.6):
/// fresh unique keys; values drawn like the base distribution.
pub fn update_rows(
    dataset_rows: usize,
    kind: MicroKind,
    count: usize,
    seed: u64,
) -> Vec<Vec<pi_storage::Value>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let key = (dataset_rows + i) as i64 * 7 + 1_000_000_007;
            let val = match kind {
                MicroKind::Nuc => rng.gen_range(0..(dataset_rows as i64 * 4)),
                MicroKind::Nsc => rng.gen_range(0..(dataset_rows as i64 * 2)),
            };
            vec![pi_storage::Value::Int(key), pi_storage::Value::Int(val)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::discovery::{discover_values, partition_column_values};
    use patchindex::{Constraint, SortDir};

    #[test]
    fn nuc_exception_rate_is_planted() {
        let spec = MicroSpec::new(10_000, 0.2, MicroKind::Nuc);
        let ds = generate(&spec);
        assert_eq!(ds.table.visible_len(), 10_000);
        let total_planted: usize = ds.planted.iter().map(|p| p.len()).sum();
        assert!((total_planted as f64 / 10_000.0 - 0.2).abs() < 0.01);
        // Discovery finds exactly the planted exceptions.
        for pid in 0..ds.table.partition_count() {
            let vals = partition_column_values(ds.table.partition(pid), 1);
            let r = discover_values(&vals, Constraint::NearlyUnique);
            assert_eq!(r.patches, ds.planted[pid], "partition {pid}");
        }
    }

    #[test]
    fn nsc_discovery_close_to_planted() {
        let spec = MicroSpec::new(8_000, 0.1, MicroKind::Nsc);
        let ds = generate(&spec);
        for pid in 0..ds.table.partition_count() {
            let vals = partition_column_values(ds.table.partition(pid), 1);
            let r = discover_values(&vals, Constraint::NearlySorted(SortDir::Asc));
            // A random exception can accidentally extend the sorted run, so
            // discovery may find slightly FEWER patches than planted — never
            // more.
            assert!(r.patches.len() <= ds.planted[pid].len(), "partition {pid}");
            let planted = ds.planted[pid].len() as f64;
            if planted > 0.0 {
                assert!(r.patches.len() as f64 >= planted * 0.8, "partition {pid}");
            }
        }
    }

    #[test]
    fn zero_exception_rate_is_clean() {
        for kind in [MicroKind::Nuc, MicroKind::Nsc] {
            let ds = generate(&MicroSpec::new(5_000, 0.0, kind));
            assert!(ds.planted.iter().all(|p| p.is_empty()));
        }
    }

    #[test]
    fn full_exception_rate() {
        let ds = generate(&MicroSpec::new(4_000, 1.0, MicroKind::Nuc));
        let total: usize = ds.planted.iter().map(|p| p.len()).sum();
        assert_eq!(total, 4_000);
    }

    #[test]
    fn partitions_have_equal_size() {
        let ds = generate(&MicroSpec::new(10_000, 0.5, MicroKind::Nsc).with_partitions(5));
        for pid in 0..5 {
            assert_eq!(ds.table.partition(pid).visible_len(), 2_000);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&MicroSpec::new(2_000, 0.3, MicroKind::Nuc));
        let b = generate(&MicroSpec::new(2_000, 0.3, MicroKind::Nuc));
        assert_eq!(a.planted, b.planted);
        let va = partition_column_values(a.table.partition(0), 1);
        let vb = partition_column_values(b.table.partition(0), 1);
        assert_eq!(va, vb);
    }

    #[test]
    fn update_rows_have_fresh_keys() {
        let rows = update_rows(1_000, MicroKind::Nuc, 10, 42);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r[0].as_int() >= 1_000_000_007);
        }
    }
}
