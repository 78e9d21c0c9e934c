//! Property-based end-to-end test: under *arbitrary* interleavings of
//! inserts, modifies and deletes, every PatchIndex stays consistent and
//! the rewritten queries keep returning reference results.

use patchindex::{Constraint, Design, IndexedTable, SortDir};
use pi_datagen::MicroKind;
use pi_exec::ops::sort::SortOrder;
use pi_exec::Batch;
use pi_integration::{int_column, micro, steps, Applier, Pool, UPDATES};
use pi_planner::{execute, execute_count, Plan, QueryEngine, NO_INDEXES};
use pi_storage::Value;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nuc_survives_arbitrary_update_streams(
        ops in proptest::collection::vec(steps(Pool::shared(-500..500), UPDATES), 1..12),
    ) {
        let ds = micro(600, 0.2, MicroKind::Nuc);
        let mut it = IndexedTable::new(ds.table);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        for op in &ops {
            it.step(op).unwrap();
            it.check_consistency();
        }
        // The rewritten distinct query still matches the reference.
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = execute_count(&plan, it.table(), NO_INDEXES);
        prop_assert_eq!(it.query(&plan).len(), reference);
    }

    #[test]
    fn nsc_survives_arbitrary_update_streams(
        ops in proptest::collection::vec(steps(Pool::shared(-500..500), UPDATES), 1..12),
    ) {
        let ds = micro(600, 0.2, MicroKind::Nsc);
        let mut it = IndexedTable::new(ds.table);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Identifier);
        for op in &ops {
            it.step(op).unwrap();
            it.check_consistency();
        }
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let reference = execute(&plan, it.table(), NO_INDEXES);
        let got = it.query(&plan);
        prop_assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
    }

    #[test]
    fn ncc_survives_arbitrary_update_streams(
        ops in proptest::collection::vec(steps(Pool::shared(-500..500), UPDATES), 1..10),
    ) {
        // A mostly constant column (80% zeros via modulo trick).
        let ds = micro(400, 0.0, MicroKind::Nuc);
        let mut it = IndexedTable::new(ds.table);
        // Make the value column mostly constant first.
        for pid in 0..3 {
            let len = it.table().partition(pid).visible_len();
            let rids: Vec<usize> = (0..len).filter(|r| r % 5 != 0).collect();
            let vals: Vec<Value> = rids.iter().map(|_| Value::Int(7)).collect();
            it.modify(pid, &rids, 1, &vals);
        }
        let _slot = it.add_index(1, Constraint::NearlyConstant, Design::Bitmap);
        for op in &ops {
            it.step(op).unwrap();
            it.check_consistency();
        }
        // The rewritten distinct, which answers each partition's kept
        // flow from its first row, still matches the reference.
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let sorted = |b: &Batch| {
            let mut v = int_column(b);
            v.sort_unstable();
            v
        };
        let reference = execute(&plan, it.table(), NO_INDEXES);
        prop_assert_eq!(sorted(&it.query(&plan)), sorted(&reference));
    }
}
