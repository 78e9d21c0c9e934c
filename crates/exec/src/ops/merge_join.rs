//! The PatchIndex merge join (paper, Section 3.3 / Figure 2, right).
//!
//! The join optimization swaps the generic HashJoin for a MergeJoin in
//! the subtree that excluded the patches of a nearly sorted column, and
//! joins the exceptions apart. Here both flows are one pass over one
//! partition: per scanned window, the pushed-down predicate and the patch
//! mask are read as 64-bit words, the kept rows (predicate and not patch)
//! ascend in the key and sweep the sorted build side forward, and each
//! exception (predicate and patch) finds its partners by binary search on
//! the same sorted keys. Only rows that found a partner are copied.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::op::Operator;
use crate::ops::patch_select::PatchLookup;
use crate::ops::scan::ScanOp;

/// Inner join of a materialized batch `x`, sorted ascending on its `Int`
/// key column, with one partition's PatchIndex scan on a nearly sorted
/// `Int` key; output columns are `[x columns..., scanned columns...]`.
///
/// `x` is borrowed, neither drained nor copied, so any number of joins
/// can share it. The scan's rows that pass `pred` (column indices as the
/// scan emits them) and are not patches must ascend in the key — what a
/// nearly-sorted-ascending PatchIndex guarantees. A cursor into `x`
/// carries their sweep across windows and jumps by exponential search,
/// so a long run of `x` keys without a line costs a logarithm, not a
/// step per key. One output batch per window that found a partner.
pub struct PatchMergeJoinOp<'a> {
    x: &'a Batch,
    x_key: usize,
    scan: ScanOp<'a>,
    key: usize,
    patches: &'a dyn PatchLookup,
    pred: Option<Expr>,
    /// The window's patch and predicate words, reused across windows.
    patch_words: Vec<u64>,
    pred_words: Vec<u64>,
    /// First `x` row whose key is not below the last kept key swept.
    cursor: usize,
}

impl<'a> PatchMergeJoinOp<'a> {
    /// Joins `x` on `x_key` with the rows of `scan` passing `pred` on
    /// the scan's column `key`, telling kept rows from exceptions by
    /// `patches`.
    pub fn new(
        x: &'a Batch,
        x_key: usize,
        scan: ScanOp<'a>,
        key: usize,
        patches: &'a dyn PatchLookup,
        pred: Option<Expr>,
    ) -> Self {
        debug_assert!(
            x.is_empty() || x.column(x_key).as_int().is_sorted(),
            "merge-join build side not sorted"
        );
        PatchMergeJoinOp {
            x,
            x_key,
            scan,
            key,
            patches,
            pred,
            patch_words: Vec::new(),
            pred_words: Vec::new(),
            cursor: 0,
        }
    }
}

/// `bits` packed LSB-first.
fn pack(bits: &[bool]) -> u64 {
    bits.iter().rev().fold(0, |w, &b| w << 1 | b as u64)
}

/// The first position at or after `from` whose key is not below `k`,
/// given that every key before `from` is: exponential, then binary
/// search, so a jump of `d` keys costs `O(log d)`.
fn gallop(keys: &[i64], from: usize, k: i64) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= keys.len() && keys[lo + step - 1] < k {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(keys.len());
    lo + keys[lo..hi].partition_point(|&v| v < k)
}

impl Operator for PatchMergeJoinOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        if self.x.is_empty() {
            return None;
        }
        let xk = self.x.column(self.x_key).as_int();
        loop {
            let (start, batch) = self.scan.next_window()?;
            let n = batch.len();
            self.patch_words.clear();
            self.patch_words.resize(n.div_ceil(64), 0);
            self.patches
                .fill_patch_words(start as u64, &mut self.patch_words, n);
            self.pred_words.clear();
            match &self.pred {
                Some(pred) => {
                    let pass = pred.eval_bool(&batch);
                    self.pred_words.extend(pass.chunks(64).map(pack));
                }
                None => self.pred_words.extend(
                    (0..n)
                        .step_by(64)
                        .map(|i| u64::MAX >> (64 - (n - i).min(64))),
                ),
            }
            // A scanned window holds the backing rows `base..base + n`.
            let (keys, base) = (batch.raw_column(self.key).as_int(), batch.row(0));
            let (mut x_rows, mut rows) = (Vec::new(), Vec::new());
            let mut cursor = self.cursor;
            // `xk[cursor]`, held in a register: a kept row below it has no
            // partner and costs one compare. Past the end of `x` no row has
            // one; `i64::MAX` stands in, and a key equal to it finds the
            // empty rest of `x`.
            let mut next_x = xk.get(cursor).copied().unwrap_or(i64::MAX);
            let words = self.pred_words.iter().zip(&self.patch_words);
            for (w, (&pass, &patch)) in words.enumerate() {
                // Kept rows sweep `x` forward from the cursor.
                let mut kept = pass & !patch;
                while kept != 0 {
                    let r = base + w * 64 + kept.trailing_zeros() as usize;
                    kept &= kept - 1;
                    let k = keys[r];
                    debug_assert!(cursor == 0 || xk[cursor - 1] < k, "kept keys not ascending");
                    if k < next_x {
                        continue;
                    }
                    if k > next_x {
                        cursor = gallop(xk, cursor, k);
                        next_x = xk.get(cursor).copied().unwrap_or(i64::MAX);
                        if k < next_x {
                            continue;
                        }
                    }
                    for j in (cursor..xk.len()).take_while(|&j| xk[j] == k) {
                        x_rows.push(j);
                        rows.push(r);
                    }
                }
                // Exceptions search all of `x`.
                let mut exceptions = pass & patch;
                while exceptions != 0 {
                    let r = base + w * 64 + exceptions.trailing_zeros() as usize;
                    exceptions &= exceptions - 1;
                    let k = keys[r];
                    let lo = xk.partition_point(|&v| v < k);
                    for j in (lo..xk.len()).take_while(|&j| xk[j] == k) {
                        x_rows.push(j);
                        rows.push(r);
                    }
                }
            }
            self.cursor = cursor;
            if rows.is_empty() {
                continue;
            }
            let x_cols = (0..self.x.width()).map(|c| self.x.column(c).gather(&x_rows));
            let cols = (0..batch.width()).map(|c| batch.raw_column(c).gather(&rows));
            return Some(Batch::new(x_cols.chain(cols).collect()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use crate::ops::filter::FilterOp;
    use crate::ops::hash_join::HashJoinOp;
    use crate::BatchSource;
    use pi_bitmap::ShardedBitmap;
    use pi_storage::{ColumnData, DataType, Field, Partition, Schema};
    use std::sync::Arc;

    fn ints(cols: &[&[i64]]) -> Batch {
        Batch::new(cols.iter().map(|c| ColumnData::Int(c.to_vec())).collect())
    }

    /// A partition of `Int` columns.
    fn partition(cols: &[&[i64]]) -> Partition {
        let fields = (0..cols.len()).map(|c| Field::new(format!("c{c}"), DataType::Int));
        let data = cols.iter().map(|c| ColumnData::Int(c.to_vec())).collect();
        Partition::new(0, Arc::new(Schema::new(fields.collect())), data)
    }

    /// All rows of `x` joined with `p` (key column 0 on both sides).
    fn join(x: &Batch, p: &Partition, patches: &dyn PatchLookup, pred: Option<Expr>) -> Batch {
        let cols = (0..p.schema().len()).collect();
        let scan = ScanOp::new(p, cols, false);
        collect(&mut PatchMergeJoinOp::new(x, 0, scan, 0, patches, pred))
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
    fn merge_join_basic() {
        let x = ints(&[&[1, 3, 5, 7]]);
        let p = partition(&[&[3, 5, 6], &[30, 50, 60]]);
        let out = join(&x, &p, &Vec::new(), None);
        assert_eq!(out.column(0).as_int(), &[3, 5]);
        assert_eq!(out.column(2).as_int(), &[30, 50]);
    }

    #[test]
    fn duplicate_groups_cross_product() {
        let x = ints(&[&[2, 2, 3]]);
        let out = join(&x, &partition(&[&[2, 2, 2, 3]]), &Vec::new(), None);
        // 2x3 pairs for key 2, 1x1 for key 3.
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn agrees_with_hash_join() {
        // Duplicate keys on both sides, payload columns telling the
        // duplicates apart; every 9th line is out of order and a patch,
        // and a predicate on the payload drops some of both kinds.
        let x_keys: Vec<i64> = (0..500).map(|i| i / 3).collect();
        let x_payload: Vec<i64> = (0..500).map(|i| 1_000 + i).collect();
        let x = ints(&[&x_keys, &x_payload]);
        let n = 9_000;
        let patches: Vec<u64> = (0..n as u64).step_by(9).collect();
        let keys: Vec<i64> = (0..n as i64)
            .map(|i| if i % 9 == 0 { 170 - i % 200 } else { i / 60 })
            .collect();
        let payload: Vec<i64> = (0..n as i64).collect();
        let p = partition(&[&keys, &payload]);
        let pred = Expr::col(1).lt(Expr::LitInt(8_000));
        let scan = Box::new(ScanOp::new(&p, vec![0, 1], false));
        let filtered = Box::new(FilterOp::new(scan, pred.clone()));
        let mut hj = HashJoinOp::inner(filtered, 0, Box::new(BatchSource::single(x.clone())), 0);
        let want = canonical(&collect(&mut hj));
        assert!(want.len() > 3 * 1_000, "weak test: {}", want.len());
        let bm = ShardedBitmap::from_positions(n as u64, &patches);
        // The borrowed `x` serves any number of joins and is left intact.
        for lookup in [&bm as &dyn PatchLookup, &patches] {
            let got = join(&x, &p, lookup, Some(pred.clone()));
            assert_eq!(canonical(&got), want);
        }
        assert_eq!(x.len(), 500);
    }

    #[test]
    fn empty_side_yields_nothing() {
        let (empty, one) = (ints(&[&[]]), ints(&[&[1]]));
        assert!(join(&empty, &partition(&[&[1]]), &Vec::new(), None).is_empty());
        assert!(join(&one, &partition(&[&[]]), &Vec::new(), None).is_empty());
    }

    #[test]
    fn disjoint_keys_yield_nothing() {
        let x = ints(&[&[1, 2]]);
        assert!(join(&x, &partition(&[&[3, 4]]), &vec![0], None).is_empty());
    }

    #[test]
    fn gallop_finds_the_first_key_not_below() {
        let keys: Vec<i64> = (0..100).map(|i| i / 2 * 3).collect();
        for from in [0, 1, 7, 50, 99, 100] {
            for k in -1..160 {
                let want = from + keys[from..].partition_point(|&v| v < k);
                if keys[..from].iter().all(|&v| v < k) {
                    assert_eq!(gallop(&keys, from, k), want, "from {from} k {k}");
                }
            }
        }
    }
}
