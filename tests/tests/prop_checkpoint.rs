//! Property test: the index image round-trips through the durability
//! path across **all** constraint × design combinations under arbitrary
//! update streams — create, statements, publish (which checkpoints),
//! recover — including that `MaintenanceStats` and the drift baseline
//! survive recovery.

use std::sync::Arc;

use patchindex::{Constraint, Design, IndexedTable, MaintenancePolicy, SortDir};
use pi_datagen::MicroKind;
use pi_durability::{DurableOptions, DurableWriter};
use pi_integration::{micro, steps, Applier, Pool, UPDATES};
use pi_storage::dfs::{DurableFs, SimFs};
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
        let slot = dw.add_index(1, constraint, design).unwrap();
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
