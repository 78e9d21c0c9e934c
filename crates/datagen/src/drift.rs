//! A three-phase *drifting* workload exercising the whole index
//! lifecycle — the scenario the `pi-advisor` reproduction experiment and
//! the lifecycle integration test replay:
//!
//! 1. **grow** — unique-value inserts interleaved with distinct queries:
//!    the workload evidence that makes an advisor create a NUC index.
//! 2. **drift** — rows are modified into duplicates of *other* rows
//!    (collision patches on both sides), then modified away again to
//!    fresh unique values. The patches stay (update maintenance never
//!    un-patches: "lost optimality, not correctness"), so the index's
//!    error drifts below its create-time value while the data itself is
//!    clean again — exactly the state a recompute repairs.
//! 3. **storm** — pure update pressure with zero queries: maintenance
//!    cost accrues, benefit does not, and a cost-based drop rule should
//!    retire the index.
//!
//! Ops carry explicit rowIDs/values (deterministic, seed-fixed), so a
//! harness can apply the identical stream to an advisor-managed table
//! and a manually-managed reference and compare results byte for byte.

use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

/// Scale parameters of the drifting workload.
#[derive(Debug, Clone)]
pub struct DriftSpec {
    /// Base rows loaded before the workload starts.
    pub base_rows: usize,
    /// Partitions of the table.
    pub partitions: usize,
    /// Rows per insert/modify batch.
    pub batch_rows: usize,
    /// Batches in the grow phase (each followed by one query).
    pub grow_batches: usize,
    /// Duplicate-then-move-away rounds in the drift phase.
    pub drift_batches: usize,
    /// Update batches in the maintenance storm phase.
    pub storm_batches: usize,
}

impl DriftSpec {
    /// A spec scaled around `base_rows`, sized so the drift phase moves
    /// the error by ~`2 · drift_batches · batch_rows / total_rows`.
    pub fn new(base_rows: usize) -> Self {
        let partitions = 4;
        let drift_batches = 5;
        // The drift phase needs its target rows *and* their duplicate
        // partners inside partition 0, so the batch is capped to half a
        // partition divided over the drift rounds — tiny base_rows scale
        // the workload down instead of tripping the phase assert.
        let rows_per_part = base_rows.div_ceil(partitions);
        let max_batch = (rows_per_part / (2 * drift_batches)).max(1);
        let batch_rows = (base_rows / 64).clamp(16, 4096).min(max_batch);
        DriftSpec {
            base_rows,
            partitions,
            batch_rows,
            grow_batches: 4,
            drift_batches,
            storm_batches: 6,
        }
    }

    fn rows_per_part(&self) -> usize {
        self.base_rows.div_ceil(self.partitions)
    }

    /// Builds the (deterministic) base table: a unique `key` column and
    /// a unique `val` column (`val = 2·row`), range-partitioned on key.
    /// Call twice to get two identical tables (advisor vs reference).
    pub fn base_table(&self) -> Table {
        let rows_per_part = self.rows_per_part();
        let boundaries: Vec<i64> = (1..self.partitions)
            .map(|p| (p * rows_per_part) as i64)
            .collect();
        let mut t = Table::new(
            "drift",
            Schema::new(vec![
                Field::new("key", DataType::Int),
                Field::new("val", DataType::Int),
            ]),
            self.partitions,
            Partitioning::KeyRange { col: 0, boundaries },
        );
        for pid in 0..self.partitions {
            let start = pid * rows_per_part;
            let end = ((pid + 1) * rows_per_part).min(self.base_rows);
            let keys: Vec<i64> = (start as i64..end as i64).collect();
            let vals: Vec<i64> = (start as i64..end as i64).map(|i| 2 * i).collect();
            t.load_partition(pid, &[ColumnData::Int(keys), ColumnData::Int(vals)]);
        }
        t.propagate_all();
        t
    }

    /// The three phases, in execution order.
    pub fn phases(&self) -> Vec<DriftPhase> {
        vec![self.grow_phase(), self.drift_phase(), self.storm_phase()]
    }

    /// Column index of `val` (the advised column).
    pub const VAL_COL: usize = 1;

    fn fresh_val(counter: &mut i64) -> i64 {
        *counter += 1;
        *counter
    }

    fn grow_phase(&self) -> DriftPhase {
        // Keys continue past the base; fresh unique values far above the
        // base domain.
        let mut key = self.base_rows as i64;
        let mut val = 100_000_000i64;
        let mut ops = Vec::new();
        for _ in 0..self.grow_batches {
            let rows: Vec<Vec<Value>> = (0..self.batch_rows)
                .map(|_| {
                    key += 1;
                    vec![Value::Int(key), Value::Int(Self::fresh_val(&mut val))]
                })
                .collect();
            ops.push(DriftOp::Insert(rows));
            ops.push(DriftOp::Query);
        }
        DriftPhase { name: "grow", ops }
    }

    fn drift_phase(&self) -> DriftPhase {
        // Round b modifies base rows [b·B, (b+1)·B) of partition 0 into
        // duplicates of the partition's untouched upper half, then moves
        // them to fresh values. Both sides of every pair end up as stale
        // patches; the data is unique again afterwards.
        let rows_per_part = self.rows_per_part();
        // Targets and their duplicate partners both live in partition 0,
        // so only as many rounds run as fit — degenerate tiny tables get
        // a shorter (possibly empty) drift phase instead of a panic.
        let rounds = self
            .drift_batches
            .min(rows_per_part / (2 * self.batch_rows));
        let upper_base = rows_per_part / 2;
        let mut val = 200_000_000i64;
        let mut ops = Vec::new();
        for b in 0..rounds {
            let rids: Vec<usize> = (b * self.batch_rows..(b + 1) * self.batch_rows).collect();
            // Partner values: vals of rows in the upper half (val = 2·row
            // for partition 0's base rows).
            let dup_vals: Vec<Value> = rids
                .iter()
                .map(|&r| Value::Int(2 * (upper_base + r) as i64))
                .collect();
            ops.push(DriftOp::Modify {
                pid: 0,
                rids: rids.clone(),
                col: Self::VAL_COL,
                values: dup_vals,
            });
            let away: Vec<Value> = rids
                .iter()
                .map(|_| Value::Int(Self::fresh_val(&mut val)))
                .collect();
            ops.push(DriftOp::Modify {
                pid: 0,
                rids,
                col: Self::VAL_COL,
                values: away,
            });
            ops.push(DriftOp::Query);
        }
        DriftPhase { name: "drift", ops }
    }

    fn storm_phase(&self) -> DriftPhase {
        // Fresh-value modifies cycling through partition 0: no new
        // patches, pure maintenance pressure, no queries.
        let rows_per_part = self.rows_per_part();
        let mut val = 300_000_000i64;
        let mut ops = Vec::new();
        for b in 0..self.storm_batches {
            let start = (b * self.batch_rows) % (rows_per_part - self.batch_rows).max(1);
            let rids: Vec<usize> = (start..start + self.batch_rows).collect();
            let values: Vec<Value> = rids
                .iter()
                .map(|_| Value::Int(Self::fresh_val(&mut val)))
                .collect();
            ops.push(DriftOp::Modify {
                pid: 0,
                rids,
                col: Self::VAL_COL,
                values,
            });
        }
        DriftPhase { name: "storm", ops }
    }
}

/// One workload operation.
#[derive(Debug, Clone)]
pub enum DriftOp {
    /// Insert these rows.
    Insert(Vec<Vec<Value>>),
    /// Modify `rids` of partition `pid`, column `col`, to `values`.
    Modify {
        /// Partition.
        pid: usize,
        /// Target rowIDs.
        rids: Vec<usize>,
        /// Column to patch.
        col: usize,
        /// New values, one per rowID.
        values: Vec<Value>,
    },
    /// Run the workload's query (distinct over [`DriftSpec::VAL_COL`]).
    Query,
}

/// One named phase.
#[derive(Debug, Clone)]
pub struct DriftPhase {
    /// Phase name (`grow` / `drift` / `storm`).
    pub name: &'static str,
    /// Operations in order.
    pub ops: Vec<DriftOp>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_table_is_deterministic_and_unique() {
        let spec = DriftSpec::new(4_000);
        let a = spec.base_table();
        let b = spec.base_table();
        assert_eq!(a.visible_len(), 4_000);
        assert_eq!(a.visible_len(), b.visible_len());
        for pid in 0..spec.partitions {
            assert_eq!(
                a.partition(pid).base_column(1).as_int(),
                b.partition(pid).base_column(1).as_int()
            );
        }
    }

    #[test]
    fn phases_have_the_expected_shapes() {
        let spec = DriftSpec::new(4_000);
        let phases = spec.phases();
        assert_eq!(phases.len(), 3);
        let queries = |p: &DriftPhase| p.ops.iter().filter(|o| matches!(o, DriftOp::Query)).count();
        assert_eq!(phases[0].name, "grow");
        assert_eq!(queries(&phases[0]), spec.grow_batches);
        assert_eq!(phases[1].name, "drift");
        assert_eq!(queries(&phases[1]), spec.drift_batches);
        assert_eq!(phases[2].name, "storm");
        assert_eq!(queries(&phases[2]), 0, "the storm never queries");
    }

    /// Regression: tiny `base_rows` must scale the workload down, not
    /// trip the drift-phase assert.
    #[test]
    fn tiny_base_rows_scale_down_instead_of_panicking() {
        for rows in [1usize, 64, 256, 511] {
            let spec = DriftSpec::new(rows);
            let phases = spec.phases();
            assert_eq!(phases.len(), 3, "base_rows={rows}");
            assert!(spec.batch_rows >= 1);
        }
    }

    #[test]
    fn drift_rounds_target_disjoint_rids_below_their_partners() {
        let spec = DriftSpec::new(4_000);
        let drift = &spec.phases()[1];
        let mut seen = std::collections::HashSet::new();
        for op in &drift.ops {
            if let DriftOp::Modify { rids, values, .. } = op {
                for (&r, v) in rids.iter().zip(values) {
                    // Duplicate-step values point at upper-half rows the
                    // phase itself never touches.
                    if let Value::Int(v) = v {
                        if *v < 100_000_000 {
                            let partner = (*v / 2) as usize;
                            assert!(partner >= spec.rows_per_part() / 2);
                        }
                    }
                    seen.insert(r);
                }
            }
        }
        assert!(seen.len() >= spec.drift_batches * spec.batch_rows);
    }
}
