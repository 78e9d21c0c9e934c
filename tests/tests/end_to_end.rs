//! End-to-end integration: generator → index → optimizer → execution →
//! updates, across all crates (recovery: `prop_checkpoint.rs` and
//! `durability.rs`).

use patchindex::IndexCatalog;
use patchindex::{Constraint, Design, IndexedTable, PatchIndex, SortDir, Statement};
use pi_baselines::{DistinctView, SortKeyTable};
use pi_datagen::{update_rows, MicroKind};
use pi_exec::ops::sort::SortOrder;
use pi_integration::micro;
use pi_planner::{execute, execute_count, optimize, Plan, QueryEngine, NO_INDEXES};

#[test]
fn distinct_query_all_configurations_agree_across_exception_rates() {
    for e in [0.0, 0.1, 0.5, 0.9] {
        let ds = micro(9_000, e, MicroKind::Nuc);
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = execute_count(&plan, &ds.table, NO_INDEXES);
        for design in [Design::Bitmap, Design::Identifier] {
            let idx = PatchIndex::create(&ds.table, 1, Constraint::NearlyUnique, design);
            idx.check_consistency(&ds.table);
            let indexes = std::slice::from_ref(&idx);
            let opt = optimize(plan.clone(), &IndexCatalog::of(&ds.table, indexes));
            assert_eq!(
                execute_count(&opt, &ds.table, indexes),
                reference,
                "e={e} design={design:?}"
            );
        }
        let view = DistinctView::create(&ds.table, 1);
        assert_eq!(view.len(), reference, "e={e} matview");
    }
}

#[test]
fn sort_query_all_configurations_agree_across_exception_rates() {
    for e in [0.0, 0.2, 0.7] {
        let ds = micro(8_000, e, MicroKind::Nsc);
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let reference = execute(&plan, &ds.table, NO_INDEXES);
        for design in [Design::Bitmap, Design::Identifier] {
            let idx =
                PatchIndex::create(&ds.table, 1, Constraint::NearlySorted(SortDir::Asc), design);
            let indexes = std::slice::from_ref(&idx);
            let opt = optimize(plan.clone(), &IndexCatalog::of(&ds.table, indexes));
            let got = execute(&opt, &ds.table, indexes);
            assert_eq!(
                got.column(0).as_int(),
                reference.column(0).as_int(),
                "e={e} design={design:?}"
            );
        }
        let sk = SortKeyTable::create(&ds.table, 1);
        sk.check_sorted();
    }
}

#[test]
fn update_workload_preserves_query_correctness() {
    let ds = micro(6_000, 0.3, MicroKind::Nuc);
    let mut it = IndexedTable::new(ds.table);
    it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);

    // A mixed update stream.
    let inserts = update_rows(6_000, MicroKind::Nuc, 300, 11);
    it.insert(&inserts[..150]);
    it.delete(0, &(0..40).collect::<Vec<_>>());
    it.delete(2, &[1, 5, 7, 30]);
    it.insert(&inserts[150..]);
    it.modify(
        1,
        &[3, 9, 27],
        1,
        &[
            pi_storage::Value::Int(123456),
            pi_storage::Value::Int(123456),
            pi_storage::Value::Int(-5),
        ],
    );
    it.check_consistency();

    // The rewritten distinct query (through the facade) still matches
    // the reference.
    let plan = Plan::scan(vec![1]).distinct(vec![0]);
    let reference = execute_count(&plan, it.table(), NO_INDEXES);
    assert_eq!(it.query(&plan).len(), reference);

    // Propagating deltas into base storage changes nothing observable.
    it.propagate();
    it.check_consistency();
    assert_eq!(it.query(&plan).len(), reference);
}

#[test]
fn nsc_update_workload_with_recompute() {
    let ds = micro(5_000, 0.2, MicroKind::Nsc);
    let mut it = IndexedTable::new(ds.table);
    let slot = it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
    let inserts = update_rows(5_000, MicroKind::Nsc, 400, 3);
    for chunk in inserts.chunks(50) {
        it.insert(chunk);
    }
    it.delete(0, &(0..100).collect::<Vec<_>>());
    it.check_consistency();
    // An explicit recompute never leaves more patches than maintenance did.
    let maintained = it.index(slot).exception_count();
    it.apply(&Statement::Recompute { slot });
    it.check_consistency();
    assert!(it.index(slot).exception_count() <= maintained);

    let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
    let reference = execute(&plan, it.table(), NO_INDEXES);
    let got = it.query(&plan);
    assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
}

#[test]
fn zbp_on_perfect_data_equals_plain_scan_semantics() {
    let ds = micro(3_000, 0.0, MicroKind::Nsc);
    let idx = PatchIndex::create(
        &ds.table,
        1,
        Constraint::NearlySorted(SortDir::Asc),
        Design::Bitmap,
    );
    assert_eq!(idx.exception_count(), 0);
    let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
    let indexes = std::slice::from_ref(&idx);
    let opt = optimize(plan.clone(), &IndexCatalog::of(&ds.table, indexes));
    let reference = execute(&plan, &ds.table, NO_INDEXES);
    let got = execute(&opt, &ds.table, indexes);
    assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
    // The lowering prunes the patches branch in every partition: no
    // `use_patches` scan ever runs.
    let mut it = IndexedTable::new(ds.table);
    it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
    let trace = it.explain_analyze(&plan);
    assert!(trace.optimized.contains("Merge"), "{}", trace.optimized);
    assert!(
        trace
            .operators
            .iter()
            .all(|o| o.label != "PatchScan[use_patches]"),
        "{}",
        trace.render_text()
    );
}
