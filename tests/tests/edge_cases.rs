//! Edge-case coverage for PatchIndex update handling: empty tables,
//! degenerate exception rates (every row a patch), single- vs
//! multi-partition agreement under identical logical content, NUC
//! statements whose collisions hinge on statement order (repeated
//! rowIDs, values held only transiently), and NUC on a `Str` column.

use patchindex::{Constraint, Design, IndexCatalog, IndexedTable, PatchIndex, SortDir};
use pi_datagen::{generate, MicroKind, MicroSpec};
use pi_exec::ops::sort::SortOrder;
use pi_planner::{execute, execute_count, optimize, Plan, QueryEngine, NO_INDEXES};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

fn empty_table(partitions: usize) -> Table {
    Table::new(
        "edge",
        Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("val", DataType::Int),
        ]),
        partitions,
        Partitioning::RoundRobin,
    )
}

fn rows_of(pairs: &[(i64, i64)]) -> Vec<Vec<Value>> {
    pairs
        .iter()
        .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
        .collect()
}

const ALL_CONSTRAINTS: [Constraint; 3] = [
    Constraint::NearlyUnique,
    Constraint::NearlySorted(SortDir::Asc),
    Constraint::NearlyConstant,
];

#[test]
fn create_on_empty_table_is_consistent_for_every_constraint() {
    for partitions in [1, 3] {
        for constraint in ALL_CONSTRAINTS {
            for design in [Design::Bitmap, Design::Identifier] {
                let table = empty_table(partitions);
                let idx = PatchIndex::create(&table, 1, constraint, design);
                assert_eq!(idx.nrows(), 0, "{constraint:?}/{design:?}/{partitions}p");
                assert_eq!(idx.exception_count(), 0);
                assert_eq!(idx.exception_rate(), 0.0, "empty index must report e=0");
                idx.check_consistency(&table);
            }
        }
    }
}

#[test]
fn handle_insert_into_empty_table_bootstraps_the_index() {
    for partitions in [1, 3] {
        for constraint in ALL_CONSTRAINTS {
            let mut table = empty_table(partitions);
            let mut idx = PatchIndex::create(&table, 1, constraint, Design::Bitmap);
            // First-ever rows arrive through the update path, not create().
            let addrs = table.insert_rows(&rows_of(&[(0, 10), (1, 20), (2, 20), (3, 30), (4, 5)]));
            idx.handle_insert(&mut table, &addrs);
            idx.check_consistency(&table);
            assert_eq!(idx.nrows(), 5);
            match constraint {
                // 20 collides with 20 — at least one patch, but never all rows.
                Constraint::NearlyUnique => {
                    assert!(idx.exception_count() >= 1 && idx.exception_count() < 5)
                }
                // Inserts extend a sorted run; the trailing 5 breaks it.
                Constraint::NearlySorted(_) => assert!(idx.exception_count() >= 1),
                // First value becomes the constant; later equal values free.
                Constraint::NearlyConstant => assert!(idx.exception_count() <= 4),
            }
        }
    }
}

#[test]
fn handle_modify_and_delete_with_empty_rid_lists_are_noops() {
    for partitions in [1, 3] {
        let mut table = empty_table(partitions);
        let mut idx = PatchIndex::create(&table, 1, Constraint::NearlyUnique, Design::Bitmap);
        idx.handle_modify(&mut table, 0, &[]);
        idx.handle_delete(0, &[]);
        idx.check_consistency(&table);
        assert_eq!(idx.nrows(), 0);
    }
}

#[test]
fn delete_everything_then_rebuild_through_inserts() {
    let ds = generate(&MicroSpec::new(900, 0.3, MicroKind::Nuc).with_partitions(3));
    let mut it = IndexedTable::new(ds.table);
    let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    // Drain every partition completely through the maintained path.
    for pid in 0..3 {
        let len = it.table().partition(pid).visible_len();
        let rids: Vec<usize> = (0..len).collect();
        it.delete(pid, &rids);
    }
    it.check_consistency();
    assert_eq!(it.index(slot).nrows(), 0, "all rows deleted");
    assert_eq!(it.index(slot).exception_count(), 0, "no rows, no patches");
    // The emptied index keeps working for fresh inserts.
    it.insert(&rows_of(&[(1_000_000, 1), (1_000_001, 1), (1_000_002, 2)]));
    it.check_consistency();
    assert_eq!(it.index(slot).nrows(), 3);
    assert!(
        it.index(slot).exception_count() >= 1,
        "the duplicate 1s must be patched"
    );
}

#[test]
fn all_rows_are_patches_nuc_constant_column() {
    // Every row carries the same value: one collision group. NUC patches
    // every occurrence of a duplicated value (the exclude-patches flow may
    // only see values occurring exactly once), so ALL n rows become
    // patches — the literal e = 1.0 case.
    let n = 64i64;
    let mut table = empty_table(1);
    let addrs = table.insert_rows(&rows_of(&(0..n).map(|k| (k, 7)).collect::<Vec<_>>()));
    assert_eq!(addrs.len(), n as usize);
    for design in [Design::Bitmap, Design::Identifier] {
        let idx = PatchIndex::create(&table, 1, Constraint::NearlyUnique, design);
        idx.check_consistency(&table);
        assert_eq!(idx.exception_count(), n as u64, "{design:?}");
        assert_eq!(idx.exception_rate(), 1.0, "{design:?}");
        // The rewritten distinct query still answers correctly.
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = execute_count(&plan, &table, NO_INDEXES);
        assert_eq!(reference, 1);
        let indexes = std::slice::from_ref(&idx);
        let opt = optimize(plan, &IndexCatalog::of(&table, indexes));
        assert_eq!(
            execute_count(&opt, &table, indexes),
            reference,
            "{design:?}"
        );
    }
}

#[test]
fn all_rows_are_patches_nsc_reverse_sorted_column() {
    // Strictly decreasing values under an ascending constraint: the longest
    // sorted subsequence is a single row, so n-1 rows are patches.
    let n = 64i64;
    let mut table = empty_table(1);
    table.insert_rows(&rows_of(&(0..n).map(|k| (k, n - k)).collect::<Vec<_>>()));
    for design in [Design::Bitmap, Design::Identifier] {
        let idx = PatchIndex::create(&table, 1, Constraint::NearlySorted(SortDir::Asc), design);
        idx.check_consistency(&table);
        assert_eq!(idx.exception_count(), (n - 1) as u64, "{design:?}");
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let reference = execute(&plan, &table, NO_INDEXES);
        let indexes = std::slice::from_ref(&idx);
        let opt = optimize(plan, &IndexCatalog::of(&table, indexes));
        let got = execute(&opt, &table, indexes);
        assert_eq!(
            got.column(0).as_int(),
            reference.column(0).as_int(),
            "{design:?}"
        );
    }
}

#[test]
fn descending_nsc_sorts_i64_min_below_everything() {
    // `-v` wraps at i64::MIN (panic in debug, wrong patches in release):
    // the orientation must reverse the order of every i64.
    let desc = Constraint::NearlySorted(SortDir::Desc);
    for design in [Design::Bitmap, Design::Identifier] {
        let mut table = empty_table(1);
        table.insert_rows(&rows_of(&[(0, i64::MIN), (1, 5), (2, 4)]));
        let idx = PatchIndex::create(&table, 1, desc, design);
        idx.check_consistency(&table);
        assert_eq!(idx.exception_count(), 1, "{design:?}: kept run is 5, 4");

        let mut table = empty_table(1);
        table.insert_rows(&rows_of(&[(0, 5), (1, 4)]));
        let mut idx = PatchIndex::create(&table, 1, desc, design);
        let inserted = table.insert_rows(&rows_of(&[(2, i64::MIN)]));
        idx.handle_insert(&mut table, &inserted);
        idx.check_consistency(&table);
        assert_eq!(idx.exception_count(), 0, "{design:?}: MIN extends 5, 4");
        let inserted = table.insert_rows(&rows_of(&[(3, 3)]));
        idx.handle_insert(&mut table, &inserted);
        idx.check_consistency(&table);
        assert_eq!(idx.exception_count(), 1, "{design:?}: 3 cannot follow MIN");
    }
}

#[test]
fn planted_full_exception_rate_survives_updates() {
    // e = 1.0 from the generator: every generated row is an exception.
    for kind in [MicroKind::Nuc, MicroKind::Nsc] {
        let ds = generate(&MicroSpec::new(600, 1.0, kind).with_partitions(3));
        let constraint = match kind {
            MicroKind::Nuc => Constraint::NearlyUnique,
            MicroKind::Nsc => Constraint::NearlySorted(SortDir::Asc),
        };
        let mut it = IndexedTable::new(ds.table);
        let slot = it.add_index(1, constraint, Design::Bitmap);
        assert!(
            it.index(slot).exception_rate() > 0.4,
            "{kind:?}: planted e=1.0 should leave a large patch set, got {}",
            it.index(slot).exception_rate()
        );
        // A fully degenerate index still maintains itself through updates.
        it.insert(&rows_of(&[(2_000_000, 3), (2_000_001, 3), (2_000_002, 1)]));
        let len = it.table().partition(0).visible_len();
        it.modify(0, &[0, len / 2], 1, &[Value::Int(9), Value::Int(9)]);
        it.delete(1, &[0, 1, 2]);
        it.check_consistency();
        // And the rewritten distinct query still matches the reference.
        if kind == MicroKind::Nuc {
            let plan = Plan::scan(vec![1]).distinct(vec![0]);
            let reference = execute_count(&plan, it.table(), NO_INDEXES);
            assert_eq!(it.query(&plan).len(), reference);
        }
    }
}

#[test]
fn single_and_multi_partition_tables_agree_on_queries() {
    // The same logical rows, round-robined into 1 vs 3 partitions: the
    // maintained indexes must produce identical query answers even though
    // patch sets are partition-local.
    let base: Vec<(i64, i64)> = (0..900)
        .map(|k| (k, if k % 7 == 0 { k % 13 } else { k }))
        .collect();
    let extra: Vec<(i64, i64)> = (900..960).map(|k| (k, k % 11)).collect();

    let mut counts = Vec::new();
    let mut sorted_results = Vec::new();
    for partitions in [1usize, 3] {
        let mut table = empty_table(partitions);
        table.insert_rows(&rows_of(&base));
        table.propagate_all();
        let mut it = IndexedTable::new(table);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(
            1,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
        );
        // Same logical update stream on both layouts.
        it.insert(&rows_of(&extra));
        it.check_consistency();

        // Both indexes live in one catalog; the facade picks the right
        // one per query.
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = execute_count(&distinct, it.table(), NO_INDEXES);
        assert_eq!(
            it.query(&distinct).len(),
            reference,
            "{partitions}p distinct"
        );
        counts.push(reference);

        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let got = it.query(&sort);
        let reference = execute(&sort, it.table(), NO_INDEXES);
        assert_eq!(
            got.column(0).as_int(),
            reference.column(0).as_int(),
            "{partitions}p sort"
        );
        sorted_results.push(got.column(0).as_int().to_vec());
    }
    assert_eq!(
        counts[0], counts[1],
        "distinct count must not depend on partitioning"
    );
    assert_eq!(
        sorted_results[0], sorted_results[1],
        "sorted output must not depend on partitioning"
    );
}

/// Partition 0 holds values `[10, 20, 30]`, partition 1 `[40, 50]`, under
/// a NUC index on the value column (no patches to start with).
fn two_partition_nuc(design: Design) -> IndexedTable {
    let mut t = empty_table(2);
    t.load_partition(
        0,
        &[
            ColumnData::Int(vec![0, 1, 2]),
            ColumnData::Int(vec![10, 20, 30]),
        ],
    );
    t.load_partition(
        1,
        &[ColumnData::Int(vec![3, 4]), ColumnData::Int(vec![40, 50])],
    );
    t.propagate_all();
    let mut it = IndexedTable::new(t);
    it.add_index(1, Constraint::NearlyUnique, design);
    assert_eq!(it.index(0).exception_count(), 0);
    it
}

fn patch_rids(it: &IndexedTable) -> Vec<Vec<u64>> {
    let idx = it.index(0);
    (0..idx.partition_count())
        .map(|pid| idx.partition(pid).store.patch_rids())
        .collect()
}

/// A rowID repeated within one modify statement is last-wins for the
/// table; maintenance must see the post-statement value only — no
/// self-collision between the two mentions, and a genuine collision with
/// that value from the next statement.
#[test]
fn repeated_rid_in_one_modify_collides_by_its_final_value_only() {
    for design in [Design::Bitmap, Design::Identifier] {
        let mut it = two_partition_nuc(design);
        it.modify(0, &[2, 2], 1, &[Value::Int(500), Value::Int(501)]);
        it.check_consistency();
        assert_eq!(patch_rids(&it), vec![vec![], vec![]], "{design:?}");
        // 500 was never held after the statement: no collision with it…
        it.modify(1, &[1], 1, &[Value::Int(500)]);
        it.check_consistency();
        assert_eq!(patch_rids(&it), vec![vec![], vec![]], "{design:?}");
        // …but 501 is what row 2 holds.
        it.modify(0, &[1], 1, &[Value::Int(501)]);
        it.check_consistency();
        assert_eq!(patch_rids(&it), vec![vec![1, 2], vec![]], "{design:?}");
    }
}

/// A value held only between two statements still collides: 30 → 40
/// meets partition 1's 40, and moving on to 99 un-patches neither row
/// (lost optimality, never correctness).
#[test]
fn transiently_held_value_leaves_both_rows_patched() {
    for design in [Design::Bitmap, Design::Identifier] {
        let mut it = two_partition_nuc(design);
        it.modify(0, &[2], 1, &[Value::Int(40)]);
        it.check_consistency();
        assert_eq!(patch_rids(&it), vec![vec![2], vec![0]], "{design:?}");
        it.modify(0, &[2], 1, &[Value::Int(99)]);
        it.check_consistency();
        assert_eq!(patch_rids(&it), vec![vec![2], vec![0]], "{design:?}");
    }
}

/// An inserted 7 that is modified to 8 patches nothing — unless an
/// existing row held 7 when the insert ran. Either way each statement
/// pays exactly one collision round with one hashed build side.
#[test]
fn inserted_then_modified_value_collides_only_with_what_was_there() {
    for design in [Design::Bitmap, Design::Identifier] {
        for existing_holds_7 in [false, true] {
            let ctx = format!("{design:?}, existing_holds_7={existing_holds_7}");
            let mut it = two_partition_nuc(design);
            if existing_holds_7 {
                it.modify(0, &[0], 1, &[Value::Int(7)]);
            }
            let addr = it.insert(&rows_of(&[(777, 7)]))[0];
            it.modify(addr.partition, &[addr.rid], 1, &[Value::Int(8)]);
            it.check_consistency();
            let mut want = vec![Vec::new(), Vec::new()];
            if existing_holds_7 {
                want[0].push(0);
                want[addr.partition].push(addr.rid as u64);
                want[addr.partition].sort_unstable();
            }
            assert_eq!(patch_rids(&it), want, "{ctx}");
            let statements = 2 + existing_holds_7 as u64;
            let stats = it.index(0).maintenance_stats();
            assert_eq!(
                (stats.collision_rounds, stats.build_invocations),
                (statements, statements),
                "{ctx}"
            );
        }
    }
}

/// NUC on a `Str` column: a column without a zone map cannot be pruned,
/// so the collision probe scans the whole partition and finds the
/// duplicate by dictionary code.
#[test]
fn nuc_on_a_str_column_patches_an_inserted_duplicate() {
    for design in [Design::Bitmap, Design::Identifier] {
        let mut t = Table::new(
            "edge",
            Schema::new(vec![
                Field::new("key", DataType::Int),
                Field::new("name", DataType::Str),
            ]),
            1,
            Partitioning::RoundRobin,
        );
        let names = t.encode_strings(1, &["a", "b", "c"]);
        t.load_partition(0, &[ColumnData::Int(vec![0, 1, 2]), names]);
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.add_index(1, Constraint::NearlyUnique, design);
        let row = |k: i64, name: &str| vec![Value::Int(k), Value::Str(name.into())];
        it.insert(&[row(3, "b")]);
        it.check_consistency();
        assert_eq!(it.index(0).exception_count(), 2, "{design:?}");
        it.insert(&[row(4, "d")]);
        it.check_consistency();
        assert_eq!(it.index(0).exception_count(), 2, "{design:?}");
    }
}
