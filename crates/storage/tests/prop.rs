//! Property-based tests: under arbitrary interleavings of append / delete /
//! modify / propagate, a partition's run-based merge-on-read, gather, delete
//! and propagate must agree with a plain `Vec` of rows, and a clone must
//! keep its contents while sharing the base columns until either side
//! propagates.

use std::sync::Arc;

use pi_storage::{str_column, ColumnData, DataType, Field, Partition, Schema, Value};
use proptest::prelude::*;

const COLS: [usize; 3] = [0, 1, 2];

type Model = Vec<Vec<Value>>;

#[derive(Debug, Clone)]
enum Op {
    Append(Vec<i64>),
    Delete(Vec<usize>),
    Modify(Vec<usize>, usize, i64),
    Propagate,
}

/// Windows and rowID lists to read back after an op, reduced modulo the
/// partition's size at that moment.
#[derive(Debug, Clone)]
struct Probe {
    start: usize,
    len: usize,
    rids: Vec<usize>,
}

fn row(seed: i64) -> Vec<Value> {
    vec![
        Value::Int(seed),
        Value::Float(seed as f64 / 2.0),
        Value::from(format!("s{}", seed.rem_euclid(7))),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(-1000i64..1000, 1..12).prop_map(Op::Append),
        proptest::collection::vec(0usize..4096, 1..12).prop_map(Op::Delete),
        // A contiguous run of 1–300 rowIDs (wrapping past the last row):
        // it crosses the base/append boundary, deletes rows next to earlier
        // deletes, and at full length empties the partition.
        (0usize..4096, 1usize..=300)
            .prop_map(|(start, len)| Op::Delete((start..start + len).collect())),
        (
            proptest::collection::vec(0usize..4096, 1..12),
            0usize..3,
            -1000i64..1000
        )
            .prop_map(|(rids, col, seed)| Op::Modify(rids, col, seed)),
        Just(Op::Propagate),
    ]
}

fn probe_strategy() -> impl Strategy<Value = Probe> {
    (
        0usize..4096,
        0usize..4096,
        proptest::collection::vec(0usize..4096, 0..24),
    )
        .prop_map(|(start, len, rids)| Probe { start, len, rids })
}

fn partition(base_rows: usize) -> (Partition, Model) {
    let model: Model = (0..base_rows as i64).map(row).collect();
    let schema = Arc::new(Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
    ]));
    let strs: Vec<String> = model.iter().map(|r| r[2].as_str().to_string()).collect();
    let base = vec![
        ColumnData::Int(model.iter().map(|r| r[0].as_int()).collect()),
        ColumnData::Float(model.iter().map(|r| r[1].as_float()).collect()),
        str_column(&strs),
    ];
    (Partition::new(0, schema, base), model)
}

fn apply(op: &Op, part: &mut Partition, model: &mut Model) {
    let n = model.len();
    match op {
        Op::Append(seeds) => {
            for &s in seeds {
                part.append_row(&row(s));
                model.push(row(s));
            }
        }
        Op::Delete(rids) if n > 0 => {
            let mut rids: Vec<usize> = rids.iter().map(|r| r % n).collect();
            part.delete(&rids);
            rids.sort_unstable();
            rids.dedup();
            for r in rids.into_iter().rev() {
                model.remove(r);
            }
        }
        Op::Modify(rids, col, seed) if n > 0 => {
            let rids: Vec<usize> = rids.iter().map(|r| r % n).collect();
            let values: Vec<Value> = (0..rids.len() as i64)
                .map(|i| row(seed + i)[*col].clone())
                .collect();
            part.modify(&rids, *col, &values);
            for (&r, v) in rids.iter().zip(&values) {
                model[r][*col] = v.clone();
            }
        }
        Op::Delete(_) | Op::Modify(..) => {}
        Op::Propagate => part.propagate(),
    }
}

fn values(col: &ColumnData) -> Vec<Value> {
    (0..col.len()).map(|i| col.value(i)).collect()
}

fn expected(model: &Model, col: usize, rids: impl Iterator<Item = usize>) -> Vec<Value> {
    rids.map(|r| model[r][col].clone()).collect()
}

fn check_window(part: &Partition, model: &Model, start: usize, len: usize) {
    let got = part.read_range(&COLS, start, len);
    for c in COLS {
        prop_assert_eq!(
            values(&got[c]),
            expected(model, c, start..start + len),
            "read_range col {} window {}+{}",
            c,
            start,
            len
        );
    }
}

fn check_gather(part: &Partition, model: &Model, rids: &[usize]) {
    let got = part.gather(&COLS, rids);
    for c in COLS {
        prop_assert_eq!(
            values(&got[c]),
            expected(model, c, rids.iter().copied()),
            "gather col {} rids {:?}",
            c,
            rids
        );
    }
}

fn check(part: &Partition, model: &Model, probe: &Probe) {
    let n = model.len();
    prop_assert_eq!(part.visible_len(), n);
    for c in COLS {
        let per_rid: Vec<Value> = (0..n).map(|r| part.value_at(c, r)).collect();
        prop_assert_eq!(per_rid, expected(model, c, 0..n), "value_at col {}", c);
    }
    check_window(part, model, 0, n);
    let start = probe.start % (n + 1);
    check_window(part, model, start, probe.len % (n - start + 1));
    let mut rids: Vec<usize> = match n {
        0 => Vec::new(),
        _ => probe.rids.iter().map(|r| r % n).collect(),
    };
    check_gather(part, model, &rids);
    rids.sort_unstable();
    check_gather(part, model, &rids);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reads_match_the_row_model(
        base_rows in 0usize..300,
        steps in proptest::collection::vec((op_strategy(), probe_strategy()), 1..60),
    ) {
        let (mut part, mut model) = partition(base_rows);
        for (op, probe) in &steps {
            apply(op, &mut part, &mut model);
            check(&part, &model, probe);
        }
    }

    #[test]
    fn clone_keeps_its_contents_and_shares_the_base_until_a_propagate(
        base_rows in 0usize..300,
        before in proptest::collection::vec(op_strategy(), 0..20),
        after in proptest::collection::vec((op_strategy(), probe_strategy()), 1..30),
        mutate_clone in 0usize..2,
    ) {
        let (mut original, mut model) = partition(base_rows);
        for op in &before {
            apply(op, &mut original, &mut model);
        }
        let clone = original.clone();
        let frozen_model = model.clone();
        let (mut writer, frozen) = if mutate_clone == 1 {
            (clone, original)
        } else {
            (original, clone)
        };
        let shares_base = |a: &Partition, b: &Partition| {
            COLS.iter().all(|&c| std::ptr::eq(a.base_column(c), b.base_column(c)))
        };
        prop_assert!(shares_base(&writer, &frozen));
        let mut shared = true;
        for (op, probe) in &after {
            // Only a propagate with something pending writes the base.
            let pending = !writer.delta().is_empty();
            apply(op, &mut writer, &mut model);
            shared &= !(matches!(op, Op::Propagate) && pending);
            prop_assert_eq!(shares_base(&writer, &frozen), shared);
            check(&writer, &model, probe);
            check(&frozen, &frozen_model, probe);
        }
    }
}
