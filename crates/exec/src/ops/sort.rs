//! Sorting.

use std::cmp::Ordering;

use pi_storage::ColumnData;

use crate::batch::{Batch, BATCH_SIZE};
use crate::keycmp::{cmp_rows, KeyColumn};
use crate::op::{collect, OpRef, Operator};

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A sort key: column index plus direction.
pub type SortKeySpec = (usize, SortOrder);

/// Materializing sort operator (the reference plan's Sort and the
/// patches-side Sort of the NSC rewrite).
pub struct SortOp<'a> {
    input: Option<OpRef<'a>>,
    keys: Vec<SortKeySpec>,
    output: Vec<Batch>,
}

impl<'a> SortOp<'a> {
    /// Creates a sort over `input` by the given keys (leftmost major).
    pub fn new(input: OpRef<'a>, keys: Vec<SortKeySpec>) -> Self {
        SortOp {
            input: Some(input),
            keys,
            output: Vec::new(),
        }
    }

    fn run(&mut self) {
        let Some(mut input) = self.input.take() else {
            return;
        };
        let all = collect(input.as_mut());
        if all.is_empty() {
            return;
        }
        let key_cols: Vec<KeyColumn> = self
            .keys
            .iter()
            .map(|&(c, o)| KeyColumn::build(all.column(c), 0..all.len(), o))
            .collect();
        let mut idx: Vec<usize> = (0..all.len()).collect();
        idx.sort_unstable_by(|&a, &b| match cmp_rows(&key_cols, a, b) {
            // Stable tie-break on input position for determinism.
            Ordering::Equal => a.cmp(&b),
            ord => ord,
        });
        let mut parts = all.gather(&idx).split(BATCH_SIZE);
        parts.reverse();
        self.output = parts;
    }
}

impl Operator for SortOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        if self.input.is_some() {
            self.run();
        }
        self.output.pop()
    }
}

/// Returns whether `col` is sorted ascending (test / assertion helper).
pub fn is_sorted_asc(col: &ColumnData) -> bool {
    match col {
        ColumnData::Int(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::Float(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::Str { codes, dict } => {
            let d = dict.read();
            codes.windows(2).all(|w| d.decode(w[0]) <= d.decode(w[1]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BatchSource;
    use pi_storage::str_column;

    fn src(cols: Vec<ColumnData>) -> OpRef<'static> {
        Box::new(BatchSource::single(Batch::new(cols)))
    }

    #[test]
    fn single_key_ascending() {
        let mut s = SortOp::new(
            src(vec![ColumnData::Int(vec![3, 1, 2])]),
            vec![(0, SortOrder::Asc)],
        );
        assert_eq!(collect(&mut s).column(0).as_int(), &[1, 2, 3]);
    }

    #[test]
    fn two_keys_mixed_direction() {
        // (group, value): sort by group asc, value desc.
        let mut s = SortOp::new(
            src(vec![
                ColumnData::Int(vec![1, 0, 1, 0]),
                ColumnData::Float(vec![1.0, 2.0, 3.0, 4.0]),
            ]),
            vec![(0, SortOrder::Asc), (1, SortOrder::Desc)],
        );
        let out = collect(&mut s);
        assert_eq!(out.column(0).as_int(), &[0, 0, 1, 1]);
        assert_eq!(out.column(1).as_float(), &[4.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn string_keys_sort_lexicographically() {
        // Codes are assigned in first-seen order: "z" gets code 0; the sort
        // must still put "a" first.
        let mut s = SortOp::new(
            src(vec![str_column(&["z", "a", "m"])]),
            vec![(0, SortOrder::Asc)],
        );
        let out = collect(&mut s);
        assert_eq!(out.column(0).value(0), pi_storage::Value::from("a"));
        assert_eq!(out.column(0).value(2), pi_storage::Value::from("z"));
        assert!(is_sorted_asc(out.column(0)));
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let mut s = SortOp::new(
            src(vec![
                ColumnData::Int(vec![1, 1, 1]),
                ColumnData::Int(vec![10, 20, 30]),
            ]),
            vec![(0, SortOrder::Asc)],
        );
        assert_eq!(collect(&mut s).column(1).as_int(), &[10, 20, 30]);
    }

    #[test]
    fn large_sort_splits_batches() {
        let vals: Vec<i64> = (0..20_000).rev().collect();
        let mut s = SortOp::new(src(vec![ColumnData::Int(vals)]), vec![(0, SortOrder::Asc)]);
        let mut last = i64::MIN;
        let mut total = 0;
        while let Some(b) = s.next() {
            assert!(b.len() <= BATCH_SIZE);
            let b = b.materialize();
            for &v in b.column(0).as_int() {
                assert!(v >= last);
                last = v;
            }
            total += b.len();
        }
        assert_eq!(total, 20_000);
    }

    #[test]
    fn empty_input() {
        let mut s = SortOp::new(
            src(vec![ColumnData::Int(vec![])]),
            vec![(0, SortOrder::Asc)],
        );
        assert!(s.next().is_none());
    }
}
