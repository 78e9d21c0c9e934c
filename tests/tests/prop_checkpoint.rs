//! Property tests: the index image round-trips through the durability
//! path across **all** constraint × design combinations under arbitrary
//! update streams — create, statements, publish (which checkpoints),
//! recover — including that `MaintenanceStats` and the drift baseline
//! survive recovery; and the three writers, fed one stream, hand back
//! the same receipt for every statement and the same epoch for every
//! publish.

use std::sync::Arc;

use patchindex::{
    Applied, ConcurrentTable, Constraint, Design, IndexedTable, MaintenancePolicy, SortDir,
    Statement,
};
use pi_datagen::MicroKind;
use pi_durability::{state_image, DurableOptions, DurableWriter};
use pi_integration::{base_table, micro, steps, Applier, Pool, Step, DDL, UPDATES};
use pi_storage::dfs::{DurableFs, SimFs};
use pi_storage::{Table, Value};
use proptest::prelude::*;

fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        Just(Constraint::NearlyUnique),
        Just(Constraint::NearlySorted(SortDir::Asc)),
        Just(Constraint::NearlySorted(SortDir::Desc)),
        Just(Constraint::NearlyConstant),
    ]
}

fn design_strategy() -> impl Strategy<Value = Design> {
    prop_oneof![Just(Design::Bitmap), Just(Design::Identifier)]
}

/// A receipt (`None` for a step that wrote no statement) in comparable
/// form: a dropped index by what it materialized and the patches it held.
fn comparable(receipt: &Option<Applied>) -> String {
    let Some(applied) = receipt else {
        return "none".to_string();
    };
    let dropped = applied.dropped.as_ref().map(|idx| {
        (
            idx.column(),
            idx.constraint(),
            idx.design(),
            idx.exception_count(),
        )
    });
    format!("{:?} {:?} {dropped:?}", applied.rows, applied.slot)
}

/// The rows at `addrs`, every column, in order.
fn gather(table: &Table, addrs: &[pi_storage::RowAddr]) -> Vec<Vec<Value>> {
    let ncols = table.schema().len();
    addrs
        .iter()
        .map(|a| {
            let part = table.partition(a.partition);
            (0..ncols).map(|col| part.value_at(col, a.rid)).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_across_all_constraint_design_combinations(
        constraint in constraint_strategy(),
        design in design_strategy(),
        ops in proptest::collection::vec(steps(Pool::shared(-300..300), UPDATES), 1..10),
    ) {
        let opts = DurableOptions {
            checkpoint_every: 1,
            ..DurableOptions::default()
        };
        let fs = Arc::new(SimFs::new());
        let dyn_fs: Arc<dyn DurableFs> = fs.clone();
        let ds = micro(900, 0.15, MicroKind::Nuc);
        let (_handle, mut dw) =
            DurableWriter::create(IndexedTable::new(ds.table), dyn_fs, "/db", opts).unwrap();
        let slot = dw
            .apply(Statement::AddIndex { col: 1, constraint, design })
            .unwrap()
            .slot
            .unwrap();
        for op in &ops {
            dw.step(op).unwrap();
        }
        dw.publish().unwrap();
        let original = Arc::clone(&dw.staging().indexes()[slot]);
        drop(dw);

        let (_handle, dw, report) =
            DurableWriter::recover(fs, "/db", opts, MaintenancePolicy::default()).unwrap();
        // The publish checkpointed everything: the index came from its
        // image, not from replaying its statements.
        prop_assert_eq!(report.replayed, 0);
        let loaded = dw.staging().index(slot);
        prop_assert_eq!(loaded.column(), original.column());
        prop_assert_eq!(loaded.constraint(), original.constraint());
        prop_assert_eq!(loaded.design(), original.design());
        prop_assert_eq!(loaded.partition_count(), original.partition_count());
        for pid in 0..original.partition_count() {
            prop_assert_eq!(
                loaded.partition(pid).store.patch_rids(),
                original.partition(pid).store.patch_rids(),
                "partition {} patch set", pid
            );
            prop_assert_eq!(
                loaded.partition(pid).store.nrows(),
                original.partition(pid).store.nrows()
            );
            prop_assert_eq!(loaded.partition(pid).last_sorted, original.partition(pid).last_sorted);
        }
        // The index's monitoring counters survive recovery (query
        // feedback is process state, not part of the image).
        prop_assert_eq!(loaded.maintenance_stats(), original.maintenance_stats());
        prop_assert_eq!(loaded.baseline(), original.baseline());
        loaded.check_consistency(dw.staging().table());
    }
}

/// Drives one stream, index DDL included, through an `IndexedTable`, a
/// `TableWriter` and a `DurableWriter` in lockstep. Every writer writes
/// through one `apply`, so each statement's receipts are equal, an
/// insert's receipt addresses exactly its rows in order, the two
/// publishing writers return the same epoch from every publish (one that
/// changed nothing keeps it), and all three end in one state image.
fn three_writers_in_lockstep(ops: &[Step]) {
    let mut it = IndexedTable::new(base_table(8));
    let (_handle, mut writer) = ConcurrentTable::new(IndexedTable::new(base_table(8)));
    let fs: Arc<dyn DurableFs> = Arc::new(SimFs::new());
    let fresh = IndexedTable::new(base_table(8));
    let (_durable_handle, mut dw) =
        DurableWriter::create(fresh, fs, "/db", DurableOptions::default()).unwrap();
    for op in ops {
        let stmt = op.resolve(&it);
        let receipt = it.step(op).unwrap();
        let want = comparable(&receipt);
        assert_eq!(want, comparable(&writer.step(op).unwrap()), "{op:?}");
        assert_eq!(want, comparable(&dw.step(op).unwrap()), "{op:?}");
        if let (Some(Statement::Insert(rows)), Some(applied)) = (stmt, receipt) {
            for table in [it.table(), writer.staging().table(), dw.staging().table()] {
                assert_eq!(gather(table, &applied.rows), rows);
            }
        }
        if let Step::Publish = op {
            let epoch = writer.publish();
            assert_eq!(epoch, dw.publish().unwrap(), "the writers' epochs diverged");
        }
    }
    let image = state_image(&it);
    assert!(image == state_image(writer.staging()), "writer diverged");
    assert!(
        image == state_image(dw.staging()),
        "durable writer diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_three_writers_return_the_same_receipts(
        ops in proptest::collection::vec(steps(Pool::per_partition(), DDL), 1..40),
    ) {
        three_writers_in_lockstep(&ops);
    }
}
