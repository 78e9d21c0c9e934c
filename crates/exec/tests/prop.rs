//! Property tests for the selection and join kernels: each against the
//! obvious reference implementation, over random inputs.

use std::sync::Arc;

use pi_exec::ops::hash_join::HashJoinOp;
use pi_exec::ops::merge_join::MergeJoinOp;
use pi_exec::{collect, Batch, BatchSource};
use pi_storage::{str_column, ColumnData};
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
        let got = batch.filter(&mask);
        let kept: Vec<usize> = (0..len).filter(|&i| mask[i]).collect();
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
}
