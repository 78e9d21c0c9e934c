//! Property tests for the selection, join and merge kernels: each against
//! the obvious reference implementation, over random inputs.

use std::cmp::Ordering;
use std::sync::Arc;

use pi_exec::ops::agg::{AggSpec, HashAggOp};
use pi_exec::ops::filter::FilterOp;
use pi_exec::ops::hash_join::{HashJoinOp, JoinTable, ProbeSide};
use pi_exec::ops::merge::{LimitOp, OrderedMergeOp, UnionAllOp};
use pi_exec::ops::merge_join::MergeJoinOp;
use pi_exec::ops::sort::{SortKeySpec, SortOrder};
use pi_exec::{collect, count_rows, Batch, BatchSource, Expr, OpRef};
use pi_storage::{str_column, ColumnData, DictRef};
use proptest::prelude::*;

/// `len` rows `(i, i / 2, "s{i % 5}")`.
fn three_typed_columns(len: usize) -> Batch {
    let strings: Vec<String> = (0..len).map(|i| format!("s{}", i % 5)).collect();
    Batch::new(vec![
        ColumnData::Int((0..len as i64).collect()),
        ColumnData::Float((0..len).map(|i| i as f64 / 2.0).collect()),
        str_column(&strings),
    ])
}

/// Ascending keys with duplicate runs, one payload column numbering them.
fn keyed(steps: &[i64], tag: i64) -> Batch {
    let keys: Vec<i64> = steps
        .iter()
        .scan(0, |key, step| {
            *key += step;
            Some(*key)
        })
        .collect();
    let payload = (0..keys.len() as i64).map(|i| tag + i).collect();
    Batch::new(vec![ColumnData::Int(keys), ColumnData::Int(payload)])
}

fn sorted_rows(b: &Batch) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = (0..b.len())
        .map(|i| b.columns().iter().map(|c| c.as_int()[i]).collect())
        .collect();
    rows.sort();
    rows
}

fn rows(b: &Batch) -> Vec<Vec<i64>> {
    (0..b.len())
        .map(|i| b.columns().iter().map(|c| c.as_int()[i]).collect())
        .collect()
}

fn source(b: &Batch) -> OpRef<'static> {
    Box::new(BatchSource::single(b.clone()))
}

/// What each operator chain makes of `input`, row for row and in output
/// order; `other` is a second sorted `keyed` batch, `cut` a payload
/// threshold, `limit` a row cap.
fn chains(input: &Batch, other: &Batch, cut: i64, limit: usize) -> Vec<Vec<Vec<i64>>> {
    let payload_over = || Expr::col(1).gt(Expr::LitInt(cut));
    let filtered = || -> OpRef<'static> { Box::new(FilterOp::new(source(input), payload_over())) };
    let table = JoinTable::from_batch(other.clone(), 0);
    let out = vec![
        rows(&collect(&mut FilterOp::new(
            filtered(),
            Expr::col(0).ge(Expr::LitInt(cut / 2)),
        ))),
        rows(&collect(&mut MergeJoinOp::new(other, 0, filtered(), 0))),
        rows(&table.probe(input, 0)),
        rows(&collect(&mut HashJoinOp::with_table(
            &table,
            ProbeSide::Ready(filtered()),
            0,
        ))),
        rows(&collect(&mut HashAggOp::distinct(filtered(), vec![0]))),
        rows(&collect(&mut HashAggOp::new(
            source(input),
            vec![0],
            vec![
                AggSpec::sum(Expr::col(1)),
                AggSpec::count_if(payload_over()),
            ],
        ))),
        rows(&collect(&mut LimitOp::new(filtered(), limit))),
        rows(&collect(&mut OrderedMergeOp::new(
            vec![Box::new(UnionAllOp::new(vec![filtered()])), source(other)],
            vec![(0, SortOrder::Asc)],
        ))),
        vec![vec![count_rows(&mut LimitOp::new(filtered(), limit)) as i64]],
    ];
    out
}

/// Merge key domains: few values, so keys repeat, and `Desc` meets both
/// ends of `i64`.
const INTS: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
const FLOATS: [f64; 3] = [-1.5, 0.0, 2.5];
/// Interned in this order, so dictionary code order is not lexical order.
const WORDS: [&str; 5] = ["m", "c", "x", "a", "q"];

/// The merge keys the property covers: one `Int` key (the merge's `i64`
/// path), and an (`Int`, `Float`) and a `Str` key (compared row by row).
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    Int,
    IntFloat,
    Str,
}

/// A merge-property row: indices into the key domains, then a payload
/// naming its input and its position there.
type Row = (usize, usize, i64);

impl KeyShape {
    /// The sort keys; the `Float` column runs against the `Int` one.
    fn specs(self, order: SortOrder) -> Vec<SortKeySpec> {
        let flip = match order {
            SortOrder::Asc => SortOrder::Desc,
            SortOrder::Desc => SortOrder::Asc,
        };
        match self {
            KeyShape::IntFloat => vec![(0, order), (1, flip)],
            KeyShape::Int | KeyShape::Str => vec![(0, order)],
        }
    }

    /// The reference order of two rows under `specs`.
    fn cmp(self, specs: &[SortKeySpec], x: &Row, y: &Row) -> Ordering {
        specs.iter().fold(Ordering::Equal, |acc, &(col, order)| {
            acc.then_with(|| {
                let ord = match (self, col) {
                    (KeyShape::Str, _) => WORDS[x.0].cmp(WORDS[y.0]),
                    (_, 0) => INTS[x.0].cmp(&INTS[y.0]),
                    _ => FLOATS[x.1].total_cmp(&FLOATS[y.1]),
                };
                match order {
                    SortOrder::Asc => ord,
                    SortOrder::Desc => ord.reverse(),
                }
            })
        })
    }

    /// The key columns of `rows`, then their payload.
    fn columns(self, rows: &[Row], dict: &DictRef) -> Vec<ColumnData> {
        let mut cols = vec![match self {
            KeyShape::Str => ColumnData::Str {
                codes: rows.iter().map(|r| r.0 as u32).collect(),
                dict: Arc::clone(dict),
            },
            KeyShape::Int | KeyShape::IntFloat => {
                ColumnData::Int(rows.iter().map(|r| INTS[r.0]).collect())
            }
        }];
        if let KeyShape::IntFloat = self {
            cols.push(ColumnData::Float(
                rows.iter().map(|r| FLOATS[r.1]).collect(),
            ));
        }
        cols.push(ColumnData::Int(rows.iter().map(|r| r.2).collect()));
        cols
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn filter_keeps_exactly_the_masked_rows(
        len in prop_oneof![
            Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(4096), 0usize..4097
        ],
        // 0 masks every row out, 256 keeps every row.
        density in prop_oneof![Just(0u16), Just(256u16), 0u16..257],
        noise in proptest::collection::vec(0u16..256, 4096..4097),
    ) {
        let mask: Vec<bool> = noise[..len].iter().map(|&x| x < density).collect();
        let batch = three_typed_columns(len);
        let kept: Vec<usize> = (0..len).filter(|&i| mask[i]).collect();
        let got = Batch::selected(batch.clone().into_columns(), kept.clone()).materialize();
        prop_assert_eq!(got.len(), kept.len());
        prop_assert_eq!(got.width(), 3);
        let ints: Vec<i64> = kept.iter().map(|&i| i as i64).collect();
        prop_assert_eq!(got.column(0).as_int(), &ints[..]);
        let floats: Vec<f64> = kept.iter().map(|&i| i as f64 / 2.0).collect();
        prop_assert_eq!(got.column(1).as_float(), &floats[..]);
        let codes: Vec<u32> = kept.iter().map(|&i| batch.column(2).as_codes()[i]).collect();
        prop_assert_eq!(got.column(2).as_codes(), &codes[..]);
        prop_assert!(Arc::ptr_eq(got.column(2).dict(), batch.column(2).dict()));
    }

    #[test]
    fn every_chain_over_a_selection_is_the_chain_over_its_materialization(
        steps in proptest::collection::vec(0i64..3, 0..300),
        other_steps in proptest::collection::vec(0i64..3, 0..100),
        // 0 selects nothing, 256 everything; a single row is picked below.
        density in prop_oneof![Just(0u16), Just(256u16), 0u16..257],
        single in any::<bool>(),
        noise in proptest::collection::vec(0u16..256, 300..301),
        cut in 1_000i64..1_300,
        limit in 0usize..320,
    ) {
        let input = keyed(&steps, 1_000);
        let len = input.len();
        let sel: Vec<usize> = if single && len > 0 {
            vec![usize::from(noise[0]) % len]
        } else {
            (0..len).filter(|&i| noise[i] < density).collect()
        };
        let selected = Batch::selected(input.into_columns(), sel.clone());
        prop_assert_eq!(selected.len(), sel.len());
        let other = keyed(&other_steps, 2_000);
        let dense = selected.clone().materialize();
        prop_assert!(dense.sel().is_none());
        prop_assert_eq!(
            chains(&selected, &other, cut, limit),
            chains(&dense, &other, cut, limit)
        );
    }

    #[test]
    fn merge_join_is_the_hash_join_on_sorted_inputs(
        left_steps in proptest::collection::vec(0i64..3, 0..200),
        right_steps in proptest::collection::vec(0i64..3, 0..200),
        right_batch_rows in 1usize..50,
    ) {
        let left = keyed(&left_steps, 1_000);
        let right = keyed(&right_steps, 2_000);
        let mut hash = HashJoinOp::inner(
            Box::new(BatchSource::single(right.clone())),
            0,
            Box::new(BatchSource::single(left.clone())),
            0,
        );
        let want = sorted_rows(&collect(&mut hash));
        // The right side arrives in batches that cut through duplicate
        // groups; the left is borrowed.
        let right_batches = BatchSource::new(right.split(right_batch_rows));
        let mut merge = MergeJoinOp::new(&left, 0, Box::new(right_batches), 0);
        prop_assert_eq!(sorted_rows(&collect(&mut merge)), want);
    }

    #[test]
    fn ordered_merge_is_a_stable_sort_of_its_inputs(
        inputs in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 0usize..3), 0..120),
            0..18
        ),
        shape in prop_oneof![Just(KeyShape::Int), Just(KeyShape::IntFloat), Just(KeyShape::Str)],
        desc in any::<bool>(),
        batch_rows in proptest::collection::vec(1usize..51, 16..17),
        // 0 puts an empty batch before the next one.
        empty_gaps in proptest::collection::vec(0u8..3, 16..17),
    ) {
        let order = if desc { SortOrder::Desc } else { SortOrder::Asc };
        let specs = shape.specs(order);
        let dict = Arc::clone(str_column(&WORDS).dict());
        let mut streams: Vec<OpRef<'static>> = Vec::new();
        let mut all: Vec<Row> = Vec::new();
        for (i, vals) in inputs.iter().enumerate() {
            let mut rows: Vec<Row> = vals.iter().map(|&(a, b)| (a, b, 0)).collect();
            rows.sort_by(|x, y| shape.cmp(&specs, x, y));
            for (pos, row) in rows.iter_mut().enumerate() {
                row.2 = (i * 1000 + pos) as i64;
            }
            all.extend(&rows);
            let mut batches = Vec::new();
            let (mut start, mut j) = (0, i);
            loop {
                if empty_gaps[j % empty_gaps.len()] == 0 {
                    batches.push(Batch::new(shape.columns(&[], &dict)));
                }
                if start == rows.len() {
                    break;
                }
                let n = batch_rows[j % batch_rows.len()].min(rows.len() - start);
                batches.push(Batch::new(shape.columns(&rows[start..start + n], &dict)));
                start += n;
                j += 1;
            }
            streams.push(Box::new(BatchSource::new(batches)));
        }
        // A stable sort of the concatenation: by key, then input, then
        // position.
        all.sort_by(|x, y| shape.cmp(&specs, x, y));
        let got = collect(&mut OrderedMergeOp::new(streams, specs));
        prop_assert_eq!(got.len(), all.len());
        if !all.is_empty() {
            let want = shape.columns(&all, &dict);
            prop_assert_eq!(got.width(), want.len());
            for (g, w) in got.columns().iter().zip(&want) {
                match (g, w) {
                    (ColumnData::Int(g), ColumnData::Int(w)) => prop_assert_eq!(g, w),
                    (ColumnData::Float(g), ColumnData::Float(w)) => prop_assert_eq!(g, w),
                    (ColumnData::Str { codes: g, dict: d }, ColumnData::Str { codes: w, .. }) => {
                        prop_assert_eq!(g, w);
                        prop_assert!(Arc::ptr_eq(d, &dict));
                    }
                    _ => panic!("{shape:?}: the merge changed a column's type"),
                }
            }
        }
    }
}
