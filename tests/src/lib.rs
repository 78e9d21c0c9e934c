//! Cross-crate integration test helpers.
//!
//! The actual tests live in `tests/tests/`; this crate only hosts shared
//! fixtures so every integration test builds the same workloads.

use std::ops::Range;

use patchindex::{IndexedTable, Statement};
use pi_datagen::{generate, MicroDataset, MicroKind, MicroSpec};
use pi_durability::DurableWriter;
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use proptest::prelude::*;

/// A small but non-trivial microbenchmark dataset.
pub fn micro(rows: usize, e: f64, kind: MicroKind) -> MicroDataset {
    generate(&MicroSpec::new(rows, e, kind).with_partitions(3))
}

/// Partition count of [`base_table`].
pub const PARTS: usize = 3;
/// Partition `p` owns keys `[p*1000, (p+1)*1000)` and values
/// `[p*100, p*100+40)` — duplicates happen constantly, but only within a
/// partition (KeyRange routing), mirroring how the paper's microbenchmark
/// partitions by the indexed column.
pub const VAL_POOL: i64 = 40;

/// The `(k, v)` table the randomized mutation streams start from.
pub fn base_table(rows_per_part: usize) -> Table {
    let mut t = Table::new(
        "mutated",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
        PARTS,
        Partitioning::KeyRange {
            col: 0,
            boundaries: vec![1000, 2000],
        },
    );
    for pid in 0..PARTS {
        let keys: Vec<i64> = (0..rows_per_part as i64)
            .map(|i| pid as i64 * 1000 + i)
            .collect();
        // Start clean-ish: mostly unique, ascending values per partition.
        let vals: Vec<i64> = (0..rows_per_part as i64)
            .map(|i| pid as i64 * 100 + (i % VAL_POOL))
            .collect();
        t.load_partition(pid, &[ColumnData::Int(keys), ColumnData::Int(vals)]);
    }
    t.propagate_all();
    t
}

/// The first column of an integer result (`[]` for an empty batch, which
/// carries no columns).
pub fn int_column(b: &pi_exec::Batch) -> Vec<i64> {
    if b.is_empty() {
        Vec::new()
    } else {
        b.column(0).as_int().to_vec()
    }
}

/// One step of a randomized mutation stream over [`base_table`].
#[derive(Debug, Clone)]
pub enum Op {
    /// `(pid, value-offset)` rows, keys fresh per pid.
    Insert(Vec<(usize, i64)>),
    /// Overwrite `v` of the rows the seeds pick (modulo the partition's
    /// length) with pool values.
    Modify {
        /// Target partition.
        pid: usize,
        /// Row picks, reduced modulo the visible length.
        rid_seeds: Vec<u32>,
        /// Value offsets into the partition's pool, cycled.
        val_seeds: Vec<i64>,
    },
    /// Delete the rows the seeds pick, always leaving two behind.
    Delete {
        /// Target partition.
        pid: usize,
        /// Row picks, reduced modulo the visible length.
        rid_seeds: Vec<u32>,
    },
    /// Recompute one index (seed picks the slot).
    Recompute(u8),
    /// Publish an epoch (handled by the driver, not [`apply`]).
    Publish,
}

/// Random [`Op`]s, weighted towards inserts and modifies.
pub fn op_strategy() -> impl Strategy<Value = Op> {
    let insert =
        || proptest::collection::vec((0usize..PARTS, 0i64..VAL_POOL), 1..8).prop_map(Op::Insert);
    let modify = || {
        (
            0usize..PARTS,
            proptest::collection::vec(any::<u32>(), 1..6),
            proptest::collection::vec(0i64..VAL_POOL, 6..7),
        )
            .prop_map(|(pid, rid_seeds, val_seeds)| Op::Modify {
                pid,
                rid_seeds,
                val_seeds,
            })
    };
    prop_oneof![
        insert(),
        insert(),
        modify(),
        modify(),
        (0usize..PARTS, proptest::collection::vec(any::<u32>(), 1..4))
            .prop_map(|(pid, rid_seeds)| Op::Delete { pid, rid_seeds }),
        any::<u8>().prop_map(Op::Recompute),
        Just(Op::Publish),
    ]
}

/// Applies one op to a staging table. Deterministic given (`op`,
/// `next_key` state), so twin tables fed the same stream stay in perfect
/// lockstep.
pub fn apply(it: &mut IndexedTable, op: &Op, next_key: &mut [i64; PARTS]) {
    match op {
        Op::Insert(rows) => {
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|&(pid, off)| {
                    next_key[pid] += 1;
                    // Keys stay inside the pid's KeyRange band.
                    let key = pid as i64 * 1000 + 100 + (next_key[pid] % 890);
                    vec![Value::Int(key), Value::Int(pid as i64 * 100 + off)]
                })
                .collect();
            it.insert(&rows);
        }
        Op::Modify {
            pid,
            rid_seeds,
            val_seeds,
        } => {
            let len = it.table().partition(*pid).visible_len();
            if len == 0 {
                return;
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            let values: Vec<Value> = rids
                .iter()
                .zip(val_seeds.iter().cycle())
                .map(|(_, &off)| Value::Int(*pid as i64 * 100 + off))
                .collect();
            it.modify(*pid, &rids, 1, &values);
        }
        Op::Delete { pid, rid_seeds } => {
            let len = it.table().partition(*pid).visible_len();
            if len <= 2 {
                return; // keep partitions non-empty
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            rids.truncate(len - 2);
            it.delete(*pid, &rids);
        }
        Op::Recompute(seed) => {
            if !it.indexes().is_empty() {
                it.recompute_index(*seed as usize % it.indexes().len());
            }
        }
        Op::Publish => {} // handled by the driver
    }
}

/// One statement of a randomized update stream over a `(k, v)` table:
/// the stream the update, query-engine and checkpoint property suites
/// drive their tables with. Partition and row picks are seeds, resolved
/// against the table when the statement is applied, so one stream fits
/// any partition count and any table state.
#[derive(Debug, Clone)]
pub enum Update {
    /// One row per value, with fresh keys.
    Insert(Vec<i64>),
    /// Overwrite `v` of the picked rows with `values`, cycled.
    Modify {
        /// Partition pick, reduced modulo the partition count.
        pid_seed: usize,
        /// Row picks, reduced modulo the visible length and deduplicated.
        rid_seeds: Vec<u32>,
        /// New values, cycled over the picked rows.
        values: Vec<i64>,
    },
    /// Delete the picked rows.
    Delete {
        /// Partition pick, reduced modulo the partition count.
        pid_seed: usize,
        /// Row picks, reduced modulo the visible length.
        rid_seeds: Vec<u32>,
    },
    /// Merge pending deltas into base storage.
    Propagate,
}

/// Random [`Update`]s whose inserted and modified values lie in `values`.
pub fn update_strategy(values: Range<i64>) -> impl Strategy<Value = Update> {
    prop_oneof![
        proptest::collection::vec(values.clone(), 1..12).prop_map(Update::Insert),
        (
            0usize..8,
            proptest::collection::vec(any::<u32>(), 1..6),
            proptest::collection::vec(values, 6..7)
        )
            .prop_map(|(pid_seed, rid_seeds, values)| Update::Modify {
                pid_seed,
                rid_seeds,
                values
            }),
        (0usize..8, proptest::collection::vec(any::<u32>(), 1..6)).prop_map(
            |(pid_seed, rid_seeds)| Update::Delete {
                pid_seed,
                rid_seeds
            }
        ),
        Just(Update::Propagate),
    ]
}

/// What an [`Update`] stream is applied to.
pub trait UpdateTarget {
    /// The table the next statement's picks resolve against.
    fn table(&self) -> &Table;
    /// Applies one statement.
    fn apply(&mut self, stmt: Statement);
    /// Merges pending deltas into base storage.
    fn propagate(&mut self);
}

impl UpdateTarget for IndexedTable {
    fn table(&self) -> &Table {
        IndexedTable::table(self)
    }
    fn apply(&mut self, stmt: Statement) {
        IndexedTable::apply(self, &stmt);
    }
    fn propagate(&mut self) {
        IndexedTable::propagate(self);
    }
}

/// Every statement is logged before it applies; the suites run on a
/// fault-free filesystem, so an IO error is a bug.
impl UpdateTarget for DurableWriter {
    fn table(&self) -> &Table {
        self.staging().table()
    }
    fn apply(&mut self, stmt: Statement) {
        DurableWriter::apply(self, stmt).expect("logged statement");
    }
    /// A durable writer has no propagate statement (it never
    /// propagates), so there is nothing to apply.
    fn propagate(&mut self) {}
}

/// Applies one statement. Deterministic given (`op`, `next_key`), so
/// twin targets fed the same stream stay in lockstep; a pick in an empty
/// partition is a no-op.
pub fn apply_update<T: UpdateTarget>(target: &mut T, op: &Update, next_key: &mut i64) {
    let pick = |target: &T, pid_seed: usize| {
        let pid = pid_seed % target.table().partition_count();
        (pid, target.table().partition(pid).visible_len())
    };
    let stmt = match op {
        Update::Insert(values) => Statement::Insert(
            values
                .iter()
                .map(|&v| {
                    *next_key += 1;
                    vec![Value::Int(*next_key), Value::Int(v)]
                })
                .collect(),
        ),
        Update::Modify {
            pid_seed,
            rid_seeds,
            values,
        } => {
            let (pid, len) = pick(target, *pid_seed);
            if len == 0 {
                return;
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            let values = rids
                .iter()
                .zip(values.iter().cycle())
                .map(|(_, &v)| Value::Int(v))
                .collect();
            Statement::Modify {
                pid,
                rids,
                col: 1,
                values,
            }
        }
        Update::Delete {
            pid_seed,
            rid_seeds,
        } => {
            let (pid, len) = pick(target, *pid_seed);
            if len == 0 {
                return;
            }
            let rids = rid_seeds.iter().map(|&s| s as usize % len).collect();
            Statement::Delete { pid, rids }
        }
        Update::Propagate => return target.propagate(),
    };
    target.apply(stmt);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_has_three_partitions() {
        let ds = micro(3_000, 0.1, MicroKind::Nuc);
        assert_eq!(ds.table.partition_count(), 3);
    }
}
