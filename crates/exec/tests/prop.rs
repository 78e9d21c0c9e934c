//! Property tests for the selection, join and merge kernels: each against
//! the obvious reference implementation, over random inputs; and for scan
//! batches lent from base storage, which later writes must not reach.
//!
//! The PatchIndex merge join's invariant: one pass over a partition —
//! kept rows sweeping the sorted build side, exceptions found by binary
//! search — joins exactly the rows a hash join of the filtered scan does,
//! whatever the patch lookup, the predicate and the scan's windows.
//!
//! The split merge's invariant: runs cut into key ranges at sampled
//! splitters, merged range by range and concatenated, come out as the
//! stable sort of their concatenation, whatever the range count.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use pi_bitmap::ShardedBitmap;
use pi_exec::hash::fold;
use pi_exec::ops::agg::{AggSpec, HashAggOp};
use pi_exec::ops::filter::FilterOp;
use pi_exec::ops::hash_join::{HashJoinOp, JoinTable};
use pi_exec::ops::merge::{merge_runs, LimitOp, OrderedMergeOp, UnionAllOp};
use pi_exec::ops::merge_join::PatchMergeJoinOp;
use pi_exec::ops::patch_select::PatchLookup;
use pi_exec::ops::scan::ScanOp;
use pi_exec::ops::sort::{SortKeySpec, SortOrder};
use pi_exec::{collect, count_rows, drain, Batch, BatchSource, Expr, OpRef, Operator};
use pi_storage::{str_column, ColumnData, DataType, DictRef, Field, Partition, Schema, Value};
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

/// The rows of the `Int` batch `b` as a window into a larger backing:
/// `pre` rows before and `post` rows after it, holding values a kernel
/// that read outside the window would trip over.
fn widened(b: &Batch, pre: usize, post: usize) -> Batch {
    let cols = b.columns().iter().map(|c| {
        let mut v = vec![i64::MAX; pre];
        v.extend(c.as_int());
        v.extend(vec![i64::MIN; post]);
        Arc::new(ColumnData::Int(v))
    });
    Batch::window(cols.collect(), pre..pre + b.len())
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
        rows(&table.probe(input, 0)),
        rows(&collect(&mut HashJoinOp::inner(
            source(other),
            0,
            filtered(),
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

/// `rows` as one batch of a merge input, laid out as `layout` says: 0
/// dense; 1 a window into a backing with rows before and after it; 2 a
/// selection of every other backing row; 3 an empty batch, then the rows
/// dense. The backing rows outside the batch hold the domains' far ends
/// and payload -1, which a kernel reading them would emit.
fn laid_out(shape: KeyShape, rows: &[Row], layout: u8, dict: &DictRef) -> Vec<Batch> {
    let (first, last): (Row, Row) = ((4, 2, -1), (0, 0, -1));
    match layout {
        1 => {
            let backing = [&[first, first][..], rows, &[last]].concat();
            let cols = shape.columns(&backing, dict).into_iter().map(Arc::new);
            vec![Batch::window(cols.collect(), 2..2 + rows.len())]
        }
        2 => {
            let backing: Vec<Row> = rows.iter().flat_map(|&r| [last, r]).collect();
            let sel = (0..rows.len()).map(|i| 2 * i + 1).collect();
            vec![Batch::selected(shape.columns(&backing, dict), sel)]
        }
        _ => {
            let mut out = Vec::new();
            if layout == 3 {
                out.push(Batch::new(shape.columns(&[], dict)));
            }
            out.push(Batch::new(shape.columns(rows, dict)));
            out
        }
    }
}

/// Join key `id`: `i64`'s edges and 1 first, then distinct keys spread
/// up the positive range (`Int`); or the string `k{id}` (`Str`, encoded
/// through `dict`, so both sides of a join share it).
fn join_key_value(id: usize, str_keys: bool) -> Value {
    match (str_keys, INTS.get(id)) {
        (true, _) => Value::Str(format!("k{id}")),
        (false, Some(&k)) => Value::Int(k),
        (false, None) => Value::Int(id as i64 * 0x1_0000_0001 + 2),
    }
}

/// `[key, payload]` columns over key ids `ids`; the payload numbers the
/// rows.
fn join_columns(ids: &[usize], str_keys: bool, dict: &DictRef) -> Vec<ColumnData> {
    let mut keys = match str_keys {
        true => ColumnData::Str {
            codes: Vec::new(),
            dict: Arc::clone(dict),
        },
        false => ColumnData::Int(Vec::new()),
    };
    for &id in ids {
        keys.push(&join_key_value(id, str_keys));
    }
    vec![keys, ColumnData::Int((0..ids.len() as i64).collect())]
}

/// Group key `id` of one column: `i64`'s edges first, then values spread
/// up the positive range (`Int`); or the string `g{id}` (`Str`).
fn group_key_value(id: usize, str_key: bool) -> Value {
    match (str_key, id) {
        (true, _) => Value::Str(format!("g{id}")),
        (false, 0) => Value::Int(i64::MIN),
        (false, 1) => Value::Int(i64::MAX),
        (false, id) => Value::Int(id as i64 * 0x1_0000_0001 - 7),
    }
}

/// A group key as the group-by encodes it: an `Int` value's bits, a `Str`
/// value's dictionary code.
fn encoded(col: &ColumnData, row: usize) -> u64 {
    match col {
        ColumnData::Int(v) => v[row] as u64,
        other => u64::from(other.as_codes()[row]),
    }
}

/// The fold hash of the encoded keys `keys`, as the group-by hashes a row.
fn key_hash(keys: &[u64]) -> u64 {
    keys.iter().fold(0, |h, &k| fold(h, k))
}

/// One group's aggregates in the reference: an `Int` sum, a `Float` sum
/// (added in row order, as the operator adds) and a filtered count.
#[derive(Debug, Default)]
struct GroupAggs {
    int_sum: i64,
    float_sum: f64,
    count: i64,
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
        // 0: a selection over dense columns; 1: a window into a larger
        // backing; 2: that window narrowed by a selection.
        shape in 0u8..3,
        margins in (0usize..70, 0usize..70),
    ) {
        let input = keyed(&steps, 1_000);
        let len = input.len();
        let sel: Vec<usize> = if single && len > 0 {
            vec![usize::from(noise[0]) % len]
        } else {
            (0..len).filter(|&i| noise[i] < density).collect()
        };
        let window = widened(&input, margins.0, margins.1);
        let narrowed = {
            // A filter on the payload, which numbers the rows, selects
            // `sel`; one that selects nothing yields no batch.
            let payloads = sel.iter().map(|&i| 1_000 + i as i64).collect();
            let keep = Expr::InInts(Box::new(Expr::col(1)), payloads);
            FilterOp::new(source(&window), keep).next()
        };
        let (selected, rows) = match (shape, narrowed) {
            (0, _) => (Batch::selected(input.into_columns(), sel.clone()), sel.len()),
            (2, Some(narrowed)) => (narrowed, sel.len()),
            _ => (window, len),
        };
        prop_assert_eq!(selected.len(), rows);
        let span = selected.span().len();
        prop_assert_eq!(Expr::col(1).mul(Expr::LitInt(2)).eval(&selected).len(), span);
        prop_assert_eq!(Expr::col(0).lt(Expr::col(1)).eval_bool(&selected).len(), span);
        let other = keyed(&other_steps, 2_000);
        let dense = selected.clone().materialize();
        prop_assert!(dense.sel().is_none());
        prop_assert_eq!(
            chains(&selected, &other, cut, limit),
            chains(&dense, &other, cut, limit)
        );
    }

    // The join kernel against a nested-loop join: `pairs` names, in probe
    // order, every (probe row, build row) with equal keys, each probe
    // row's build rows ascending; `probe` gathers exactly those rows. Keys
    // are `Int` (with `i64::MIN`, -1, 0 and `i64::MAX`) or `Str` codes;
    // a small domain repeats keys on both sides, a large one lets builds
    // of up to ~5k distinct keys size the filter; the probe batch is
    // dense, a window whose margins hold build keys, or a selection.
    #[test]
    fn join_table_is_the_nested_loop_join(
        build in prop_oneof![
            proptest::collection::vec(0usize..8_000, 0..300),
            proptest::collection::vec(0usize..8_000, 0..5_000),
        ],
        probe in proptest::collection::vec(0usize..8_000, 0..400),
        domain in prop_oneof![Just(1usize), Just(5), 1usize..64, 1usize..8_000],
        str_keys in any::<bool>(),
        // 0: a dense batch; 1: a window into a larger backing; 2: a
        // selection of that backing.
        shape in 0u8..3,
        margins in (0usize..70, 0usize..70),
        noise in proptest::collection::vec(any::<bool>(), 540..541),
    ) {
        let build: Vec<usize> = build.iter().map(|id| id % domain).collect();
        let margin = |i: usize| build.get(i % build.len().max(1)).copied().unwrap_or(0);
        let (pre, post) = if shape == 0 { (0, 0) } else { margins };
        let backing: Vec<usize> = (0..pre)
            .map(margin)
            .chain(probe.iter().map(|id| id % domain))
            .chain((0..post).map(|i| margin(i + pre)))
            .collect();
        let dict = Arc::clone(str_column(&WORDS).dict());
        let table = JoinTable::from_batch(Batch::new(join_columns(&build, str_keys, &dict)), 0);
        let columns = join_columns(&backing, str_keys, &dict);
        let (batch, rows): (Batch, Vec<usize>) = match shape {
            2 => {
                let sel: Vec<usize> = (0..backing.len()).filter(|&p| noise[p]).collect();
                (Batch::selected(columns, sel.clone()), sel)
            }
            _ => {
                let span = pre..pre + probe.len();
                (Batch::window(columns.into_iter().map(Arc::new).collect(), span.clone()), span.collect())
            }
        };
        let mut want: Vec<(usize, usize)> = Vec::new();
        for &p in &rows {
            for (b, &id) in build.iter().enumerate() {
                if backing[p] == id {
                    want.push((p, b));
                }
            }
        }
        let (probe_pos, build_pos) = table.pairs(&batch, 0);
        prop_assert_eq!(probe_pos.iter().copied().zip(build_pos.iter().copied()).collect::<Vec<_>>(), want.clone());
        let joined = table.probe(&batch, 0);
        prop_assert_eq!(joined.len(), want.len());
        for (i, &(p, b)) in want.iter().enumerate() {
            prop_assert_eq!(joined.column(0).value(i), join_key_value(backing[p], str_keys));
            prop_assert_eq!(joined.column(1).as_int()[i], p as i64);
            prop_assert_eq!(joined.column(2).value(i), join_key_value(build[b], str_keys));
            prop_assert_eq!(joined.column(3).as_int()[i], b as i64);
        }
    }

    #[test]
    fn held_scan_batches_are_unchanged_by_later_writes(
        base_rows in 0usize..9_000,
        // (kind, row, value): modify, delete, append or propagate.
        before in proptest::collection::vec((0u8..4, any::<usize>(), -9i64..9), 0..8),
        after in proptest::collection::vec((0u8..4, any::<usize>(), -9i64..9), 1..16),
    ) {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let base = (0..2).map(|c| ColumnData::Int((0..base_rows as i64).map(|r| r * 10 + c).collect()));
        let mut part = Partition::new(0, schema, base.collect());
        let write = |part: &mut Partition, &(kind, row, value): &(u8, usize, i64)| {
            let n = part.visible_len();
            match kind {
                0 if n > 0 => part.modify(&[row % n], row % 2, &[Value::Int(value)]),
                1 if n > 0 => part.delete(&[row % n]),
                2 => part.append_row(&[Value::Int(value), Value::Int(value)]),
                3 => part.propagate(),
                _ => {}
            }
        };
        for w in &before {
            write(&mut part, w);
        }
        // Clean base rows come lent, so the held batches share the base.
        let held = drain(&mut ScanOp::new(&part, vec![1, 0], false));
        let want: Vec<_> = held.iter().map(|b| rows(&b.clone().materialize())).collect();
        for w in &after {
            write(&mut part, w);
        }
        for (b, want) in held.iter().zip(&want) {
            prop_assert_eq!(&rows(&b.clone().materialize()), want);
        }
    }

    #[test]
    fn patch_merge_join_is_the_hash_join_of_the_filtered_scan(
        // Build-side keys ascending with duplicate runs; may be empty.
        x_steps in proptest::collection::vec(0i64..3, 0..200),
        // A line key steps up on 0 only, so each repeats ~8 times.
        line_steps in proptest::collection::vec(0u8..8, 0..3_000),
        // (row, key): a planted exception, keyed in and beyond X's range.
        planted in proptest::collection::vec((any::<usize>(), -3i64..420), 0..80),
        // Window boundaries, each with whether the rows after it are
        // scanned: the scan's windows cut through duplicate groups.
        cuts in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..8),
        // Lines whose payload is below it pass; 1000 means no predicate.
        cut in prop_oneof![Just(0i64), Just(1_000), 0i64..1_000],
        bitmap in any::<bool>(),
    ) {
        let x = keyed(&x_steps, 1_000);
        let n = line_steps.len();
        let mut keys: Vec<i64> = line_steps
            .iter()
            .scan(0, |key, &s| {
                *key += i64::from(s == 0);
                Some(*key)
            })
            .collect();
        let mut patches: Vec<u64> = Vec::new();
        if n > 0 {
            for &(row, key) in &planted {
                keys[row % n] = key;
                patches.push((row % n) as u64);
            }
        }
        patches.sort_unstable();
        patches.dedup();
        let payload = (0..n as i64).map(|i| i * 7_919 % 1_000).collect();
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let part = Partition::new(0, schema, vec![ColumnData::Int(keys), ColumnData::Int(payload)]);
        let mut bounds: Vec<(usize, bool)> = cuts.iter().map(|&(c, on)| (c % (n + 1), on)).collect();
        bounds.push((0, true));
        bounds.sort_unstable();
        bounds.dedup_by_key(|b| b.0);
        let ranges: Vec<std::ops::Range<usize>> = bounds
            .iter()
            .enumerate()
            .filter(|(_, b)| b.1)
            .map(|(i, b)| b.0..bounds.get(i + 1).map_or(n, |next| next.0))
            .filter(|r| !r.is_empty())
            .collect();
        let scan = || ScanOp::with_ranges(&part, vec![0, 1], ranges.clone(), false);
        let pred = (cut < 1_000).then(|| Expr::col(1).lt(Expr::LitInt(cut)));
        let lines: OpRef<'_> = match &pred {
            Some(pred) => Box::new(FilterOp::new(Box::new(scan()), pred.clone())),
            None => Box::new(scan()),
        };
        let mut hash = HashJoinOp::inner(lines, 0, source(&x), 0);
        let want = sorted_rows(&collect(&mut hash));
        let bm = ShardedBitmap::from_positions(n as u64, &patches);
        let lookup: &dyn PatchLookup = if bitmap { &bm } else { &patches };
        let mut merge = PatchMergeJoinOp::new(&x, 0, scan(), 0, lookup, pred);
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
                match (&**g, w) {
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

    // The split merge cuts its runs into key ranges at splitters from a
    // regular sample and merges each range on its own: whatever the
    // forced range count, its output is the stable sort of the
    // concatenated inputs, byte for byte. A key domain of one value gives
    // all-equal keys, a small one runs of duplicates that the splitters
    // fall on, so a run straddles a cut; the domain holds `i64::MIN` and
    // `i64::MAX`; runs may be empty, and batches windows or selections.
    #[test]
    fn split_merge_is_a_stable_sort_of_its_inputs(
        inputs in proptest::collection::vec(
            proptest::collection::vec((0usize..5, 0usize..3), 0..300),
            0..10
        ),
        domain in 1usize..6,
        shape in prop_oneof![Just(KeyShape::Int), Just(KeyShape::IntFloat), Just(KeyShape::Str)],
        desc in any::<bool>(),
        ranges in 1usize..9,
        batch_rows in proptest::collection::vec(1usize..80, 8..9),
        layouts in proptest::collection::vec(0u8..4, 8..9),
    ) {
        let order = if desc { SortOrder::Desc } else { SortOrder::Asc };
        let specs = shape.specs(order);
        let dict = Arc::clone(str_column(&WORDS).dict());
        let mut runs: Vec<Vec<Batch>> = Vec::new();
        let mut all: Vec<Row> = Vec::new();
        for (i, vals) in inputs.iter().enumerate() {
            let mut rows: Vec<Row> = vals.iter().map(|&(a, b)| (a % domain, b, 0)).collect();
            rows.sort_by(|x, y| shape.cmp(&specs, x, y));
            for (pos, row) in rows.iter_mut().enumerate() {
                row.2 = (i * 1000 + pos) as i64;
            }
            all.extend(&rows);
            let mut run = Vec::new();
            let (mut start, mut j) = (0, i);
            while start < rows.len() {
                let n = batch_rows[j % batch_rows.len()].min(rows.len() - start);
                let layout = layouts[j % layouts.len()];
                run.extend(laid_out(shape, &rows[start..start + n], layout, &dict));
                start += n;
                j += 1;
            }
            runs.push(run);
        }
        all.sort_by(|x, y| shape.cmp(&specs, x, y));
        let got = Batch::concat(&merge_runs(&runs, &specs, ranges));
        prop_assert_eq!(got.len(), all.len());
        if !all.is_empty() {
            let want = shape.columns(&all, &dict);
            prop_assert_eq!(got.width(), want.len());
            for (g, w) in got.columns().iter().zip(&want) {
                match (&**g, w) {
                    (ColumnData::Int(g), ColumnData::Int(w)) => prop_assert_eq!(g, w),
                    (ColumnData::Float(g), ColumnData::Float(w)) => prop_assert_eq!(g, w),
                    (ColumnData::Str { codes: g, .. }, ColumnData::Str { codes: w, .. }) => {
                        prop_assert_eq!(g, w)
                    }
                    _ => panic!("{shape:?}: the merge changed a column's type"),
                }
            }
        }
    }

    // The multi-column group-by against a first-seen-order reference on a
    // `BTreeMap`: 2 or 3 group columns, each `Int` (with `i64::MIN` and
    // `i64::MAX`) or `Str`; a small key domain repeats groups, a large one
    // makes up to ~3k of them; and pairs of distinct keys whose fold hashes
    // collide, solved for on an `Int` last column, so groups share a
    // chain. The input is cut into batches that are dense, windows into a
    // larger backing, or selections of it. Keys, the `Int` sum, the
    // `Float` sum's bits and a filtered count must be the reference's,
    // group by group in first-seen order.
    #[test]
    fn multi_column_group_by_is_the_first_seen_reference(
        width in 2usize..4,
        str_cols in proptest::collection::vec(any::<bool>(), 3..4),
        tuples in prop_oneof![
            proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 1..40),
            proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 1..3_000),
        ],
        colliding in any::<bool>(),
        picks in proptest::collection::vec(any::<usize>(), 0..2_000),
        cuts in proptest::collection::vec(0usize..2_000, 0..5),
        // 0: dense batches; 1: windows into a larger backing; 2:
        // selections of that backing.
        shape in 0u8..3,
        margins in (0usize..70, 0usize..70),
        noise in proptest::collection::vec(any::<bool>(), 2_140..2_141),
    ) {
        // Collisions are solved for on the last column, so it is `Int`.
        let str_key = |c: usize| str_cols[c] && !(colliding && c == width - 1);
        let dict = Arc::clone(str_column(&WORDS).dict());
        let empty = |c: usize| match str_key(c) {
            true => ColumnData::Str { codes: Vec::new(), dict: Arc::clone(&dict) },
            false => ColumnData::Int(Vec::new()),
        };
        // The candidate groups' key columns: each tuple, and with
        // `colliding`, after every other tuple a twin with the previous
        // tuple's leading keys and a last key that makes its fold hash
        // this tuple's.
        let mut cands: Vec<ColumnData> = (0..width).map(empty).collect();
        for (t, &(a, b, c)) in tuples.iter().enumerate() {
            let ids = [a, b, c];
            for (col, cand) in cands.iter_mut().enumerate() {
                cand.push(&group_key_value(ids[col], str_key(col)));
            }
            if colliding && t % 2 == 1 {
                let row = cands[0].len() - 1;
                let (a, b, c) = tuples[t - 1];
                let prev_ids = [a, b, c];
                for (col, cand) in cands.iter_mut().enumerate().take(width - 1) {
                    cand.push(&group_key_value(prev_ids[col], str_key(col)));
                }
                let state = |r: usize| {
                    let lead: Vec<u64> = (0..width - 1).map(|c| encoded(&cands[c], r)).collect();
                    key_hash(&lead).rotate_left(5)
                };
                let last = state(row) ^ encoded(&cands[width - 1], row) ^ state(row + 1);
                cands[width - 1].push(&Value::Int(last as i64));
                let twin: Vec<u64> = (0..width).map(|c| encoded(&cands[c], row + 1)).collect();
                let this: Vec<u64> = (0..width).map(|c| encoded(&cands[c], row)).collect();
                prop_assert_eq!(key_hash(&twin), key_hash(&this));
            }
        }
        let ncands = cands[0].len();
        // The backing: `pre` margin rows, the input rows, `post` margin
        // rows; keys, then an `Int` payload numbering the input rows and a
        // `Float` payload. Margin payloads are far off, so a kernel that
        // read them would show in the sums.
        let n = picks.len();
        let (pre, post) = if shape == 0 { (0, 0) } else { margins };
        let backing: Vec<usize> = (0..pre)
            .map(|i| i % ncands)
            .chain(picks.iter().map(|p| p % ncands))
            .chain((0..post).map(|i| (i + 1) % ncands))
            .collect();
        let mut columns: Vec<ColumnData> = (0..width)
            .map(|c| {
                let mut col = empty(c);
                for &g in &backing {
                    col.push(&cands[c].value(g));
                }
                col
            })
            .collect();
        let in_input = |p: usize| (pre..pre + n).contains(&p);
        let ints: Vec<i64> = (0..backing.len())
            .map(|p| if in_input(p) { (p - pre) as i64 } else { 1_000_000 })
            .collect();
        let floats: Vec<f64> = ints.iter().map(|&v| v as f64 * 0.1 + 0.05).collect();
        columns.push(ColumnData::Int(ints.clone()));
        columns.push(ColumnData::Float(floats.clone()));
        let shared: Vec<Arc<ColumnData>> = columns.iter().cloned().map(Arc::new).collect();
        // The input rows cut into batches at `cuts`, each dense, a window
        // or a selection; `included` lists the backing rows they hold.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        let (mut batches, mut included) = (Vec::new(), Vec::new());
        for w in bounds.windows(2) {
            let span = pre + w[0]..pre + w[1];
            match shape {
                0 => {
                    batches.push(Batch::window(shared.clone(), span.clone()).materialize());
                    included.extend(span);
                }
                1 => {
                    batches.push(Batch::window(shared.clone(), span.clone()));
                    included.extend(span);
                }
                _ => {
                    let sel: Vec<usize> = span.filter(|&p| noise[p]).collect();
                    included.extend(sel.iter().copied());
                    batches.push(Batch::selected(columns.clone(), sel));
                }
            }
        }
        let threshold = n as i64 / 2;
        let mut agg = HashAggOp::new(
            Box::new(BatchSource::new(batches)),
            (0..width).collect(),
            vec![
                AggSpec::sum(Expr::col(width)),
                AggSpec::sum(Expr::col(width + 1)),
                AggSpec::count_if(Expr::col(width).gt(Expr::LitInt(threshold))),
            ],
        );
        let out = collect(&mut agg);
        // The reference: groups numbered in first-seen order.
        let mut ids: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let mut want: Vec<(Vec<u64>, GroupAggs)> = Vec::new();
        for &p in &included {
            let key: Vec<u64> = (0..width).map(|c| encoded(&columns[c], p)).collect();
            let g = *ids.entry(key.clone()).or_insert_with(|| {
                want.push((key, GroupAggs::default()));
                want.len() - 1
            });
            let aggs = &mut want[g].1;
            aggs.int_sum += ints[p];
            aggs.float_sum += floats[p];
            aggs.count += i64::from(ints[p] > threshold);
        }
        prop_assert_eq!(out.len(), want.len());
        for (i, (key, aggs)) in want.iter().enumerate() {
            for (c, &k) in key.iter().enumerate() {
                prop_assert_eq!(encoded(out.column(c), i), k, "group {} key {}", i, c);
            }
            prop_assert_eq!(out.column(width).as_int()[i], aggs.int_sum);
            prop_assert_eq!(out.column(width + 1).as_float()[i].to_bits(), aggs.float_sum.to_bits());
            prop_assert_eq!(out.column(width + 2).as_int()[i], aggs.count);
        }
    }
}
