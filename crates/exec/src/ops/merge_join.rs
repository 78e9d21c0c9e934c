//! Merge join over key-sorted inputs.
//!
//! The PatchIndex join optimization (paper, Section 3.3 / Figure 2) swaps
//! the generic HashJoin for a MergeJoin in the subtree that excluded the
//! patches of a nearly sorted column: both inputs are already ordered on
//! the join key, so matching is a linear two-pointer sweep with duplicate
//! groups expanded pairwise.

use crate::batch::Batch;
use crate::op::{OpRef, Operator};

/// Inner merge join; output columns are `[left columns..., right columns...]`.
///
/// Both inputs must be sorted ascending on their `Int` key column (sort
/// order is meaningless on dictionary codes). The left side is a batch
/// the caller materialized: it is swept in place, neither drained nor
/// copied, so any number of joins can share it. The right side streams
/// through — one output batch per right batch, a cursor into the left
/// keys carrying the sweep across batches — and is read through its
/// selection: only rows that find a partner are ever gathered.
pub struct MergeJoinOp<'a> {
    left: &'a Batch,
    left_key: usize,
    right: OpRef<'a>,
    right_key: usize,
    /// First left row whose key is not below every right key seen so far.
    cursor: usize,
    /// Largest right key seen so far (sortedness check across batches).
    last_right: i64,
}

impl<'a> MergeJoinOp<'a> {
    /// Creates a merge join of the sorted batch `left` with the sorted
    /// stream `right`.
    pub fn new(left: &'a Batch, left_key: usize, right: OpRef<'a>, right_key: usize) -> Self {
        debug_assert!(
            left.is_empty() || left.column(left_key).as_int().is_sorted(),
            "left merge-join input not sorted"
        );
        MergeJoinOp {
            left,
            left_key,
            right,
            right_key,
            cursor: 0,
            last_right: i64::MIN,
        }
    }
}

impl Operator for MergeJoinOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        let left = self.left;
        if left.is_empty() {
            return None;
        }
        let lk = left.column(self.left_key).as_int();
        let mut left_idx: Vec<usize> = Vec::new();
        let mut right_idx: Vec<usize> = Vec::new();
        loop {
            let batch = self.right.next()?;
            if batch.is_empty() {
                continue;
            }
            let rk = batch.raw_column(self.right_key).as_int();
            let n = batch.len();
            debug_assert!(
                self.last_right <= rk[batch.row(0)]
                    && (1..n).all(|i| rk[batch.row(i - 1)] <= rk[batch.row(i)]),
                "right merge-join input not sorted"
            );
            self.last_right = rk[batch.row(n - 1)];
            let mut li = self.cursor;
            for i in 0..n {
                let r = batch.row(i);
                let key = rk[r];
                while li < lk.len() && lk[li] < key {
                    li += 1;
                }
                // Pair the right row with the whole left group of its key;
                // the cursor stays on the group for the next duplicate.
                for (j, _) in lk[li..].iter().enumerate().take_while(|(_, &k)| k == key) {
                    left_idx.push(li + j);
                    right_idx.push(r);
                }
            }
            self.cursor = li;
            if left_idx.is_empty() {
                continue;
            }
            let mut cols = left.gather(&left_idx).into_columns();
            cols.extend(batch.gather(&right_idx).into_columns());
            return Some(Batch::new(cols));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, BatchSource};
    use pi_storage::ColumnData;

    fn ints(cols: &[&[i64]]) -> Batch {
        Batch::new(cols.iter().map(|c| ColumnData::Int(c.to_vec())).collect())
    }

    fn src(batch: Batch) -> OpRef<'static> {
        Box::new(BatchSource::single(batch))
    }

    #[test]
    fn merge_join_basic() {
        let left = ints(&[&[1, 3, 5, 7]]);
        let right = src(ints(&[&[3, 5, 6], &[30, 50, 60]]));
        let mut j = MergeJoinOp::new(&left, 0, right, 0);
        let out = collect(&mut j);
        assert_eq!(out.column(0).as_int(), &[3, 5]);
        assert_eq!(out.column(2).as_int(), &[30, 50]);
    }

    #[test]
    fn duplicate_groups_cross_product() {
        let left = ints(&[&[2, 2, 3]]);
        let mut j = MergeJoinOp::new(&left, 0, src(ints(&[&[2, 2, 2, 3]])), 0);
        let out = collect(&mut j);
        // 2x3 pairs for key 2, 1x1 for key 3.
        assert_eq!(out.len(), 7);
    }

    /// Rows as sorted tuples: join output order differs between kernels.
    fn canonical(b: &Batch) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = (0..b.len())
            .map(|i| b.columns().iter().map(|c| c.as_int()[i]).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn agrees_with_hash_join() {
        use crate::ops::hash_join::HashJoinOp;
        // Duplicate keys on both sides, payload columns telling the
        // duplicates apart, the right side arriving in batches that cut
        // through duplicate groups.
        let keyed = |keys: Vec<i64>, tag: i64| {
            let payload: Vec<i64> = (0..keys.len() as i64).map(|i| tag + i).collect();
            ints(&[&keys, &payload])
        };
        let left = keyed((0..500).map(|i| i / 3).collect(), 1_000);
        let right = keyed((0..300).map(|i| i / 2).collect(), 2_000);
        // Probe-side (left) columns come first in the hash join as well.
        let mut hj = HashJoinOp::inner(src(right.clone()), 0, src(left.clone()), 0);
        let hashed = canonical(&collect(&mut hj));
        assert_eq!(hashed.len(), 300 * 3);
        // The borrowed left serves any number of joins and is left intact.
        for _ in 0..2 {
            let right_batches = Box::new(BatchSource::new(right.clone().split(7)));
            let mut mj = MergeJoinOp::new(&left, 0, right_batches, 0);
            assert_eq!(canonical(&collect(&mut mj)), hashed);
        }
        assert_eq!(left.len(), 500);
    }

    #[test]
    fn empty_side_yields_nothing() {
        let (empty, one) = (ints(&[&[]]), ints(&[&[1]]));
        assert!(collect(&mut MergeJoinOp::new(&empty, 0, src(one.clone()), 0)).is_empty());
        assert!(collect(&mut MergeJoinOp::new(&one, 0, src(empty), 0)).is_empty());
    }

    #[test]
    fn disjoint_keys_yield_nothing() {
        let left = ints(&[&[1, 2]]);
        let mut j = MergeJoinOp::new(&left, 0, src(ints(&[&[3, 4]])), 0);
        assert!(collect(&mut j).is_empty());
    }
}
