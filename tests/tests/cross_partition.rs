//! Cross-partition NUC soundness: the exactness audit of PR 5 promoted
//! to first-class regression and property tests.
//!
//! The NUC distinct rewrite unions per-partition kept flows without an
//! outer dedup, so it is only exact if kept values are *globally*
//! unique. Discovery (create and recompute) therefore counts each value
//! across all partitions and patches every occurrence of a value that
//! occurs more than once, in one partition or several. These tests
//! drive adversarial duplicate pools that straddle partitions through
//! create, incremental maintenance, mid-stream recompute (both designs)
//! and the snapshot path, always comparing against a byte-identical
//! index-free replay.

use patchindex::{ConcurrentTable, Constraint, Design, IndexedTable, Statement};
use pi_integration::{kv_table, seeded_steps, steps, Applier, Pool, Step, GROWTH};
use pi_planner::{execute_count, rewrite, Plan, QueryEngine, NO_INDEXES};
use pi_storage::{Partitioning, Table, Value};
use proptest::prelude::*;

/// A table whose value column is loaded verbatim per partition (the
/// create-time discovery path); keys are globally unique.
fn table_of(parts: &[Vec<i64>]) -> Table {
    let mut keys = 1i64..;
    let parts = parts.iter().map(|vals| {
        let keys = keys.by_ref().take(vals.len()).collect();
        (keys, vals.clone())
    });
    kv_table(Partitioning::RoundRobin, parts.collect())
}

fn distinct_plan() -> Plan {
    Plan::scan(vec![1]).distinct(vec![0])
}

/// The tombstone for the partition-local discovery bug: values kept in
/// several partitions (42) or kept in one and patched in another (7)
/// must all be patched, or the Figure-2 union — which has no outer
/// distinct — overcounts. With values counted per partition only, the
/// forced rewrite counts 7 instead of 5 here.
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
    assert_eq!(it.query(&plan).len(), reference);
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

    it.apply(&Statement::Recompute { slot });
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

/// Inserts from a tiny pool, so RoundRobin routing scatters duplicates
/// across partitions, with recomputes and publishes.
fn xop() -> impl Strategy<Value = Step> {
    steps(Pool::shared(-8..8), GROWTH)
}

/// Seed partitions containing a straddling pool (0 in partitions 0 and
/// 2) right from creation.
fn seed_parts() -> Vec<Vec<i64>> {
    vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 0]]
}

/// Drives one op stream through an owner-path [`IndexedTable`], checking
/// the facade against the index-free replay after every op.
fn run_owner(ops: &[Step], design: Design) {
    let mut it = IndexedTable::new(table_of(&seed_parts()));
    let slot = it.add_index(1, Constraint::NearlyUnique, design);
    let plan = distinct_plan();
    for op in ops {
        it.step(op).unwrap();
        let reference = execute_count(&plan, it.table(), NO_INDEXES);
        assert_eq!(it.query(&plan).len(), reference, "ops: {ops:?}");
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
fn run_concurrent(ops: &[Step], design: Design) {
    let it = IndexedTable::new(table_of(&seed_parts()));
    let (handle, mut writer) = ConcurrentTable::new(it);
    let slot = writer
        .staging_mut()
        .apply(&Statement::AddIndex {
            col: 1,
            constraint: Constraint::NearlyUnique,
            design,
        })
        .slot
        .unwrap();
    let plan = distinct_plan();
    let mut unpublished_inserts = 0;
    for op in ops {
        writer.step(op).unwrap();
        unpublished_inserts += matches!(op, Step::Insert(_)) as u32;
        if unpublished_inserts == 2 || matches!(op, Step::Publish) {
            writer.publish();
            unpublished_inserts = 0;
        }
        let snap = handle.snapshot();
        let reference = execute_count(&plan, snap.table(), NO_INDEXES);
        assert_eq!(snap.query(&plan).len(), reference, "ops: {ops:?}");
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
    let iters: usize = std::env::var("PI_XPART_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    for iter in 0..iters {
        let lane = format!("stress_cross_partition_recompute/{iter}");
        let ops = seeded_steps(Pool::shared(-10..10), GROWTH, &lane, 24);
        for design in [Design::Bitmap, Design::Identifier] {
            run_owner(&ops, design);
            run_concurrent(&ops, design);
        }
    }
}
