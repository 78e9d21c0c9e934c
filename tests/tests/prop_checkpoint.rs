//! Property test: the index image round-trips through the durability
//! path across **all** constraint × design combinations under arbitrary
//! update streams — create, statements, publish (which checkpoints),
//! recover — including that `MaintenanceStats` and the drift baseline
//! survive recovery.

use std::io;
use std::sync::Arc;

use patchindex::{Constraint, Design, IndexedTable, MaintenancePolicy, SortDir};
use pi_datagen::MicroKind;
use pi_durability::{DurableOptions, DurableWriter};
use pi_integration::micro;
use pi_storage::dfs::{DurableFs, SimFs};
use pi_storage::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    Modify {
        pid: usize,
        rid_seeds: Vec<u32>,
        values: Vec<i64>,
    },
    Delete {
        pid: usize,
        rid_seeds: Vec<u32>,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(-300i64..300, 1..10).prop_map(Op::Insert),
        (
            0usize..3,
            proptest::collection::vec(any::<u32>(), 1..6),
            proptest::collection::vec(-300i64..300, 6..7)
        )
            .prop_map(|(pid, rid_seeds, values)| Op::Modify {
                pid,
                rid_seeds,
                values
            }),
        (0usize..3, proptest::collection::vec(any::<u32>(), 1..4))
            .prop_map(|(pid, rid_seeds)| Op::Delete { pid, rid_seeds }),
    ]
}

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

fn apply(dw: &mut DurableWriter, op: &Op, next_key: &mut i64) -> io::Result<()> {
    let visible =
        |dw: &DurableWriter, pid: usize| dw.staging().table().partition(pid).visible_len();
    match op {
        Op::Insert(values) => {
            let rows: Vec<Vec<Value>> = values
                .iter()
                .map(|&v| {
                    *next_key += 1;
                    vec![Value::Int(*next_key), Value::Int(v)]
                })
                .collect();
            dw.insert(&rows).map(drop)
        }
        Op::Modify {
            pid,
            rid_seeds,
            values,
        } => {
            let len = visible(dw, *pid);
            if len == 0 {
                return Ok(());
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            let vals: Vec<Value> = rids
                .iter()
                .zip(values.iter().cycle())
                .map(|(_, &v)| Value::Int(v))
                .collect();
            dw.modify(*pid, &rids, 1, &vals)
        }
        Op::Delete { pid, rid_seeds } => {
            let len = visible(dw, *pid);
            if len == 0 {
                return Ok(());
            }
            let rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            dw.delete(*pid, &rids)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_across_all_constraint_design_combinations(
        constraint in constraint_strategy(),
        design in design_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
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
        let mut next_key = 10_000i64;
        for op in &ops {
            apply(&mut dw, op, &mut next_key).unwrap();
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
