//! Property test: the index image (`checkpoint_bytes` /
//! `load_checkpoint_for`) round-trips across **all** constraint × design
//! combinations under arbitrary update streams — including that
//! `MaintenanceStats` and the drift baseline survive recovery.

use patchindex::{Constraint, Design, IndexedTable, PatchIndex, SortDir};
use pi_datagen::MicroKind;
use pi_integration::micro;
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

fn apply(it: &mut IndexedTable, op: &Op, next_key: &mut i64) {
    match op {
        Op::Insert(values) => {
            let rows: Vec<Vec<Value>> = values
                .iter()
                .map(|&v| {
                    *next_key += 1;
                    vec![Value::Int(*next_key), Value::Int(v)]
                })
                .collect();
            it.insert(&rows);
        }
        Op::Modify {
            pid,
            rid_seeds,
            values,
        } => {
            let len = it.table().partition(*pid).visible_len();
            if len == 0 {
                return;
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            let vals: Vec<Value> = rids
                .iter()
                .zip(values.iter().cycle())
                .map(|(_, &v)| Value::Int(v))
                .collect();
            it.modify(*pid, &rids, 1, &vals);
        }
        Op::Delete { pid, rid_seeds } => {
            let len = it.table().partition(*pid).visible_len();
            if len == 0 {
                return;
            }
            let rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            it.delete(*pid, &rids);
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
        let ds = micro(900, 0.15, MicroKind::Nuc);
        let mut it = IndexedTable::new(ds.table);
        let slot = it.add_index(1, constraint, design);
        let mut next_key = 10_000i64;
        for op in &ops {
            apply(&mut it, op, &mut next_key);
        }

        let image = it.index(slot).checkpoint_bytes();
        let loaded = PatchIndex::load_checkpoint_for(&image, it.table()).unwrap();

        // The checkpoint recovers byte-identically.
        let original = it.index(slot);
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
        loaded.check_consistency(it.table());
    }
}
