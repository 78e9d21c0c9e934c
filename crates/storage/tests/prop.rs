//! Property-based tests: under arbitrary interleavings of append / delete /
//! modify / propagate, a partition's run-based merge-on-read, gather, delete
//! and propagate must agree with a plain `Vec` of rows, and a clone must
//! keep its contents while sharing the base columns until either side
//! propagates. A table's pooled propagate must write what propagating its
//! partitions one by one writes, down to the string codes. A writer that
//! leaves a clone behind after every statement, as a publish does, must
//! leave each clone reading the state it was taken at, with the string
//! codes and dictionary order of encoding in statement order.

use std::collections::HashMap;
use std::sync::Arc;

use pi_storage::{
    str_column, ColumnData, DataType, Field, Partition, Partitioning, Schema, Table, Value,
};
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

/// Partitions of the propagate tables: two with a base, and the last
/// with none (rows loaded, then propagated, reach the base that way).
const PARTS: usize = 3;

/// One statement of the stream both propagate tables replay.
#[derive(Debug, Clone)]
enum Stmt {
    Append(usize, Vec<i64>),
    Delete(usize, Vec<usize>),
    /// Modifies to the string column write strings no row holds yet.
    Modify(usize, Vec<usize>, usize, i64),
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..PARTS, proptest::collection::vec(-1000i64..1000, 1..200))
            .prop_map(|(p, seeds)| Stmt::Append(p, seeds)),
        (0..PARTS, proptest::collection::vec(0usize..1 << 16, 1..40))
            .prop_map(|(p, rids)| Stmt::Delete(p, rids)),
        (
            0..PARTS,
            proptest::collection::vec(0usize..1 << 16, 1..40),
            0usize..3,
            -1000i64..1000
        )
            .prop_map(|(p, rids, col, seed)| Stmt::Modify(p, rids, col, seed)),
    ]
}

/// A table whose first two partitions hold `base_rows` base rows each
/// and whose last has an empty base.
fn propagate_table(base_rows: [usize; 2]) -> Table {
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
    ]);
    let mut t = Table::new("t", schema, PARTS, Partitioning::RoundRobin);
    for (p, &rows) in base_rows.iter().enumerate() {
        let seeds = (0..rows as i64).map(|s| s + 10_000 * p as i64);
        let model: Model = seeds.map(row).collect();
        let strs: Vec<&str> = model.iter().map(|r| r[2].as_str()).collect();
        let batch = [
            ColumnData::Int(model.iter().map(|r| r[0].as_int()).collect()),
            ColumnData::Float(model.iter().map(|r| r[1].as_float()).collect()),
            t.encode_strings(2, &strs),
        ];
        t.load_partition(p, &batch);
    }
    t.propagate_all();
    t
}

fn replay(t: &mut Table, stmt: &Stmt) {
    match stmt {
        Stmt::Append(p, seeds) => {
            for &s in seeds {
                t.partition_mut(*p).append_row(&row(s));
            }
        }
        Stmt::Delete(p, rids) | Stmt::Modify(p, rids, ..) => {
            let n = t.partition(*p).visible_len();
            if n == 0 {
                return;
            }
            let rids: Vec<usize> = rids.iter().map(|r| r % n).collect();
            match stmt {
                Stmt::Modify(_, _, col, seed) => {
                    let values: Vec<Value> = (0..rids.len() as i64)
                        .map(|i| match col {
                            2 => Value::from(format!("m{}", seed + i)),
                            _ => row(seed + i)[*col].clone(),
                        })
                        .collect();
                    t.modify(*p, &rids, *col, &values);
                }
                _ => t.delete(*p, &rids),
            }
        }
    }
}

/// Every partition's visible rows, column by column, read row by row.
fn visible(t: &Table) -> Vec<Vec<Vec<Value>>> {
    t.partitions()
        .iter()
        .map(|p| {
            let rows = 0..p.visible_len();
            COLS.map(|c| rows.clone().map(|r| p.value_at(c, r)).collect())
                .to_vec()
        })
        .collect()
}

/// Asserts that two propagated tables hold the same bytes: the string
/// column's dictionary in code order, then per partition and column the
/// float bits, string codes and values.
fn assert_same_bytes(a: &Table, b: &Table) {
    prop_assert_eq!(a.visible_len(), b.visible_len());
    let strings = |t: &Table| {
        let d = t.dict(2).expect("a string column").read();
        (0..d.len() as u32)
            .map(|c| d.decode(c).to_string())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(strings(a), strings(b), "dictionary order");
    for (pa, pb) in a.partitions().iter().zip(b.partitions()) {
        prop_assert!(pa.delta().is_empty() && pb.delta().is_empty());
        prop_assert_eq!(pa.visible_len(), pb.visible_len());
        for c in COLS {
            let (ca, cb) = (pa.base_column(c), pb.base_column(c));
            match ca {
                ColumnData::Int(v) => prop_assert_eq!(v, cb.as_int(), "part {} col {}", pa.id, c),
                ColumnData::Float(v) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(v), bits(cb.as_float()), "part {} col {}", pa.id, c);
                }
                ColumnData::Str { codes, .. } => {
                    prop_assert_eq!(codes, cb.as_codes(), "part {} col {}", pa.id, c);
                }
            }
            prop_assert_eq!(values(ca), values(cb), "part {} col {}", pa.id, c);
        }
    }
}

/// The held-clone stream's ops: those of `op_strategy`, and modifies
/// whose rowIDs each come twice, the second pass backwards.
fn held_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        (
            proptest::collection::vec(0usize..4096, 1..8),
            0usize..3,
            -1000i64..1000
        )
            .prop_map(|(rids, col, seed)| {
                let back = rids.iter().rev().copied();
                Op::Modify(rids.iter().copied().chain(back).collect(), col, seed)
            }),
    ]
}

/// A dictionary that encodes in the order it is given strings: what the
/// table-wide dictionary must hold if every statement encodes its strings
/// in statement order.
#[derive(Default)]
struct RefDict {
    strings: Vec<String>,
    codes: HashMap<String, u32>,
}

impl RefDict {
    fn encode(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.codes.get(s) {
            return code;
        }
        self.strings.push(s.to_string());
        self.codes
            .insert(s.to_string(), self.strings.len() as u32 - 1);
        self.strings.len() as u32 - 1
    }
}

/// Applies `op` like `apply`, except that a modify of the string column
/// writes strings no row holds yet, and every string the op writes is
/// encoded into `dict` in the op's order.
fn apply_held(op: &Op, part: &mut Partition, model: &mut Model, dict: &mut RefDict) {
    let n = model.len();
    match op {
        Op::Modify(rids, col, seed) if n > 0 => {
            let rids: Vec<usize> = rids.iter().map(|r| r % n).collect();
            let values: Vec<Value> = (0..rids.len() as i64)
                .map(|i| match col {
                    2 => Value::from(format!("m{}", seed + i)),
                    _ => row(seed + i)[*col].clone(),
                })
                .collect();
            part.modify(&rids, *col, &values);
            for (&r, v) in rids.iter().zip(&values) {
                if *col == 2 {
                    dict.encode(v.as_str());
                }
                model[r][*col] = v.clone();
            }
        }
        Op::Append(seeds) => {
            for &s in seeds {
                dict.encode(row(s)[2].as_str());
            }
            apply(op, part, model);
        }
        _ => apply(op, part, model),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Two rounds of a seeded statement stream, each followed by a
    // propagate: the pooled `propagate_all` on one table, each partition's
    // own `propagate` in turn on its twin. The first round deletes near
    // the start of both bases, writes new strings in both, and appends to
    // the empty base; the bases are large enough that the pool splits the
    // merges over at least two tasks. The first round's pooled propagate
    // runs while a clone shares its bases, which keeps its rows.
    #[test]
    fn pooled_propagate_writes_the_sequential_bytes(
        base_rows in (2000usize..4000, 2000usize..4000),
        near_start in (0usize..64, 0usize..64),
        new_strings in (0i64..100, 0i64..100),
        first in proptest::collection::vec(stmt_strategy(), 0..30),
        second in proptest::collection::vec(stmt_strategy(), 1..30),
    ) {
        let mut pooled = propagate_table([base_rows.0, base_rows.1]);
        let mut sequential = propagate_table([base_rows.0, base_rows.1]);
        let forced = [
            Stmt::Delete(0, vec![near_start.0]),
            Stmt::Delete(1, vec![near_start.1]),
            Stmt::Modify(0, vec![near_start.0 + 7, 300, 900], 2, new_strings.0),
            Stmt::Modify(1, vec![1500, near_start.1 + 3], 2, new_strings.1),
            Stmt::Append(PARTS - 1, vec![5, -6, 7]),
        ];
        let rounds = [[&forced[..], &first[..]].concat(), second];
        for (round, stream) in rounds.iter().enumerate() {
            for stmt in stream {
                replay(&mut pooled, stmt);
                replay(&mut sequential, stmt);
            }
            let want = visible(&pooled);
            let held = (round == 0).then(|| pooled.clone());
            pooled.propagate_all();
            for pid in 0..PARTS {
                sequential.partition_mut(pid).propagate();
            }
            prop_assert_eq!(visible(&pooled), want.clone(), "round {}", round);
            if let Some(held) = held {
                prop_assert_eq!(visible(&held), want, "a clone keeps its rows");
            }
            assert_same_bytes(&pooled, &sequential);
        }
    }

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

    // A writer that leaves a clone behind after every statement, as each
    // publish leaves a snapshot, over modifies of all three column types
    // (rowIDs unsorted and repeated), deletes that cross the base/append
    // boundary, and propagates. Every clone still reads the state it was
    // taken at, and the string codes and the dictionary's order are those
    // of encoding every string in statement order.
    #[test]
    fn held_clones_keep_their_state_and_codes_follow_the_statements(
        base_rows in 0usize..300,
        ops in proptest::collection::vec(held_op_strategy(), 1..40),
        probe in probe_strategy(),
    ) {
        let (mut writer, mut model) = partition(base_rows);
        let mut dict = RefDict::default();
        for r in &model {
            dict.encode(r[2].as_str());
        }
        let mut held = vec![(writer.clone(), model.clone())];
        for op in &ops {
            apply_held(op, &mut writer, &mut model, &mut dict);
            held.push((writer.clone(), model.clone()));
        }
        let table_dict = Arc::clone(writer.base_column(2).dict());
        let table_dict = table_dict.read();
        let strings: Vec<&str> = (0..table_dict.len() as u32).map(|c| table_dict.decode(c)).collect();
        prop_assert_eq!(strings, dict.strings.iter().map(String::as_str).collect::<Vec<_>>());
        for (i, (part, model)) in held.iter().enumerate() {
            check(part, model, &probe);
            let codes = part.read_range(&[2], 0, model.len()).remove(0);
            let want: Vec<u32> = model.iter().map(|r| dict.codes[r[2].as_str()]).collect();
            prop_assert_eq!(codes.as_codes(), &want[..], "codes of the clone after op {}", i);
        }
    }
}
