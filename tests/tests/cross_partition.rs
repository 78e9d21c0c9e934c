//! Cross-partition NUC soundness: the exactness audit of PR 5 promoted
//! to first-class regression and property tests.
//!
//! The NUC distinct rewrite unions per-partition kept flows without an
//! outer dedup, so it is only exact if kept values are *globally*
//! unique. Discovery (create and recompute) therefore merges a
//! cross-partition residual — every occurrence of a value present in
//! more than one partition — into the local patch sets. These tests
//! drive adversarial duplicate pools that straddle partitions through
//! create, incremental maintenance, mid-stream recompute (both designs)
//! and the snapshot path, always comparing against a byte-identical
//! index-free replay.

use patchindex::{ConcurrentTable, Constraint, Design, IndexedTable};
use pi_planner::{execute_count, rewrite, Plan, QueryEngine, NO_INDEXES};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use proptest::prelude::*;

/// A table whose value column is loaded verbatim per partition (the
/// create-time discovery path); keys are globally unique.
fn table_of(parts: &[Vec<i64>]) -> Table {
    let mut t = Table::new(
        "xp",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
        parts.len(),
        Partitioning::RoundRobin,
    );
    let mut key = 0i64;
    for (pid, vals) in parts.iter().enumerate() {
        let keys: Vec<i64> = vals
            .iter()
            .map(|_| {
                key += 1;
                key
            })
            .collect();
        t.load_partition(pid, &[ColumnData::Int(keys), ColumnData::Int(vals.clone())]);
    }
    t.propagate_all();
    t
}

fn distinct_plan() -> Plan {
    Plan::scan(vec![1]).distinct(vec![0])
}

/// The tombstone for the partition-local discovery bug: values kept in
/// several partitions (42) or kept in one and patched in another (7)
/// must all be patched, or the Figure-2 union — which has no outer
/// distinct — overcounts. With the cross-partition residual reverted,
/// the forced rewrite counts 7 instead of 5 here.
#[test]
fn create_time_cross_partition_duplicates_do_not_overcount_distinct() {
    let parts = vec![vec![42, 1, 7, 7], vec![42, 2], vec![3, 7]];
    let mut it = IndexedTable::new(table_of(&parts));
    let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    it.check_consistency();

    let plan = distinct_plan();
    let reference = execute_count(&plan, it.table(), NO_INDEXES);
    assert_eq!(reference, 5); // {42, 1, 7, 2, 3}
                              // Force the structural rewrite (no cost gate): exact only if every
                              // occurrence of 42 and 7 is patched.
    let chosen = rewrite(plan.clone(), &it.catalog().indexes[slot]);
    assert!(chosen.to_string().contains("PatchScan"), "{chosen}");
    assert_eq!(execute_count(&chosen, it.table(), it.indexes()), reference);
    // The facade agrees.
    assert_eq!(it.query_count(&plan), reference);
}

/// Incremental maintenance already keeps cross-partition pools patched;
/// a recompute (full rediscovery) must not lose them again.
#[test]
fn recompute_rediscovers_cross_partition_pools() {
    let parts = vec![vec![10, 11], vec![20, 21], vec![30, 31]];
    let mut it = IndexedTable::new(table_of(&parts));
    let slot = it.add_index(1, Constraint::NearlyUnique, Design::Identifier);
    // Spread the value 10 across all three partitions.
    it.modify(1, &[0], 1, &[Value::Int(10)]);
    it.modify(2, &[1], 1, &[Value::Int(10)]);
    it.check_consistency();

    it.recompute_index(slot);
    it.check_consistency();
    // Half the rows are patches now: the recompute also migrated the
    // design across the crossover, and the rewrite stays exact on it.
    assert_eq!(it.index(slot).design(), Design::Bitmap);
    let plan = distinct_plan();
    let reference = execute_count(&plan, it.table(), NO_INDEXES);
    assert_eq!(reference, 4); // {10, 11, 21, 30}
    let chosen = rewrite(plan.clone(), &it.catalog().indexes[slot]);
    assert_eq!(execute_count(&chosen, it.table(), it.indexes()), reference);
}

#[derive(Debug, Clone)]
enum XOp {
    /// Insert rows whose values are drawn from a tiny pool, so RoundRobin
    /// routing scatters duplicates across partitions.
    Insert(Vec<i64>),
    Recompute,
    /// Publish an epoch (nothing on the owner path, which has no epochs).
    Publish,
}

fn xop() -> impl Strategy<Value = XOp> {
    prop_oneof![
        proptest::collection::vec(-8i64..8, 1..6).prop_map(XOp::Insert),
        proptest::collection::vec(-8i64..8, 1..6).prop_map(XOp::Insert),
        proptest::collection::vec(-8i64..8, 1..6).prop_map(XOp::Insert),
        Just(XOp::Recompute),
        Just(XOp::Publish),
    ]
}

/// Seed partitions containing a straddling pool (0 in partitions 0 and
/// 2) right from creation.
fn seed_parts() -> Vec<Vec<i64>> {
    vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 0]]
}

fn rows_for(vals: &[i64], next_key: &mut i64) -> Vec<Vec<Value>> {
    vals.iter()
        .map(|&v| {
            *next_key += 1;
            vec![Value::Int(*next_key), Value::Int(v)]
        })
        .collect()
}

/// Drives one op stream through an owner-path [`IndexedTable`], checking
/// the facade against the index-free replay after every op.
fn run_owner(ops: &[XOp], design: Design) {
    let mut it = IndexedTable::new(table_of(&seed_parts()));
    let slot = it.add_index(1, Constraint::NearlyUnique, design);
    let plan = distinct_plan();
    let mut next_key = 1_000i64;
    for op in ops {
        match op {
            XOp::Insert(vals) => {
                it.insert(&rows_for(vals, &mut next_key));
            }
            XOp::Recompute => it.recompute_index(slot),
            XOp::Publish => {}
        }
        let reference = execute_count(&plan, it.table(), NO_INDEXES);
        assert_eq!(it.query_count(&plan), reference, "ops: {ops:?}");
    }
    it.check_consistency();
    // The structural rewrite (no cost gate) is exact too.
    let reference = execute_count(&plan, it.table(), NO_INDEXES);
    let chosen = rewrite(plan, &it.catalog().indexes[slot]);
    assert_eq!(execute_count(&chosen, it.table(), it.indexes()), reference);
}

/// The same stream through the snapshot path: the writer mutates and
/// recomputes, publishing after every second insert and at every
/// `Publish`; readers pull snapshots and must stay exact at every epoch.
fn run_concurrent(ops: &[XOp], design: Design) {
    let it = IndexedTable::new(table_of(&seed_parts()));
    let (handle, mut writer) = ConcurrentTable::new(it);
    let slot = writer.add_index(1, Constraint::NearlyUnique, design);
    let plan = distinct_plan();
    let mut next_key = 10_000i64;
    let mut unpublished_inserts = 0;
    for op in ops {
        let publish_now = match op {
            XOp::Insert(vals) => {
                writer.insert(&rows_for(vals, &mut next_key));
                unpublished_inserts += 1;
                unpublished_inserts == 2
            }
            XOp::Recompute => {
                writer.recompute_index(slot);
                false
            }
            XOp::Publish => true,
        };
        if publish_now {
            writer.publish();
            unpublished_inserts = 0;
        }
        let snap = handle.snapshot();
        let reference = execute_count(&plan, snap.table(), NO_INDEXES);
        assert_eq!(snap.query_count(&plan), reference, "ops: {ops:?}");
    }
    writer.publish();
    let snap = handle.snapshot();
    snap.check_consistency();
    let reference = execute_count(&plan, snap.table(), NO_INDEXES);
    let chosen = rewrite(plan, &snap.catalog().indexes[slot]);
    assert_eq!(
        execute_count(&chosen, snap.table(), snap.indexes()),
        reference
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn adversarial_streams_stay_exact_eager_bitmap(
        ops in proptest::collection::vec(xop(), 1..10),
    ) {
        run_owner(&ops, Design::Bitmap);
    }

    #[test]
    fn adversarial_streams_stay_exact_eager_identifier(
        ops in proptest::collection::vec(xop(), 1..10),
    ) {
        run_owner(&ops, Design::Identifier);
    }

    #[test]
    fn adversarial_streams_stay_exact_through_snapshots(
        ops in proptest::collection::vec(xop(), 1..10),
    ) {
        run_concurrent(&ops, Design::Bitmap);
    }
}

/// Seeded stress lane (CI runs it with `PI_XPART_ITERS` raised): longer
/// random streams through every configuration.
#[test]
fn stress_cross_partition_recompute() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let iters: usize = std::env::var("PI_XPART_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let mut rng = SmallRng::seed_from_u64(0x0C0FFEE);
    for _ in 0..iters {
        let ops: Vec<XOp> = (0..rng.gen_range(8..24))
            .map(|_| match rng.gen_range(0..7) {
                0 => XOp::Recompute,
                1 | 2 => XOp::Publish,
                _ => {
                    let n = rng.gen_range(1..8);
                    XOp::Insert((0..n).map(|_| rng.gen_range(-10i64..10)).collect())
                }
            })
            .collect();
        for design in [Design::Bitmap, Design::Identifier] {
            run_owner(&ops, design);
            run_concurrent(&ops, design);
        }
    }
}
