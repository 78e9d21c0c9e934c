//! The PatchIndex selection operator (paper, Section 3.3).
//!
//! A *PatchIndex scan* is an ordinary scan plus a selection operator that
//! merges the patch information into the dataflow on the fly, splitting it
//! into a flow of constraint-satisfying tuples (`exclude_patches`) and a
//! flow of exceptions (`use_patches`). The decision is purely rowID-based,
//! so the operator's per-tuple overhead is fixed and independent of data
//! types.
//!
//! Both flows of a split are fed by **one** scan: per scanned batch the
//! patch mask of its rowID window is read word-wise (the window comes
//! from the scan position; the scan emits no rowID column), ANDed with an
//! optional pushed-down predicate evaluated once on the unfiltered batch.
//! The flow being pulled gets the scanned batch with a selection (see
//! [`Batch`]) — no row is copied here; its consumer reads through the
//! selection or gathers where its pipeline breaks. The other flow's rows
//! are gathered before they are queued, so its (small) queue never holds
//! a whole scan batch for a few rows.
//!
//! The operator is generic over [`PatchLookup`] so both PatchIndex design
//! approaches (bitmap-based and identifier-based, paper Section 3.2) plug
//! into the same plans.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pi_bitmap::ShardedBitmap;

use crate::batch::{positions, Batch};
use crate::expr::Expr;
use crate::op::Operator;
use crate::ops::scan::ScanOp;

/// RowID-set abstraction the selection operator filters against.
pub trait PatchLookup {
    /// Whether `rid` is a patch (an exception to the constraint).
    fn is_patch(&self, rid: u64) -> bool;

    /// Fills `out` with the patch mask for the contiguous rowID range
    /// `[from, from + nbits)` (LSB-first packed; bits beyond the valid
    /// range zero).
    fn fill_patch_words(&self, from: u64, out: &mut [u64], nbits: usize);
}

impl PatchLookup for ShardedBitmap {
    fn is_patch(&self, rid: u64) -> bool {
        self.get(rid)
    }

    fn fill_patch_words(&self, from: u64, out: &mut [u64], _nbits: usize) {
        self.fill_words(from, out);
    }
}

/// A sorted rowID list also acts as a patch lookup (identifier-based
/// design).
impl PatchLookup for Vec<u64> {
    fn is_patch(&self, rid: u64) -> bool {
        self.binary_search(&rid).is_ok()
    }

    fn fill_patch_words(&self, from: u64, out: &mut [u64], nbits: usize) {
        // One binary search to land inside the sorted list, then a linear
        // gallop over the rid run covering the batch — `O(log n + hits)`
        // instead of `nbits` binary searches.
        out.iter_mut().for_each(|w| *w = 0);
        let end = from + nbits as u64;
        let lo = self.partition_point(|&r| r < from);
        for &rid in &self[lo..] {
            if rid >= end {
                break;
            }
            let i = (rid - from) as usize;
            out[i / 64] |= 1 << (i % 64);
        }
    }
}

/// Which side of the split this selection keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchMode {
    /// Keep tuples that satisfy the constraint (drop patches).
    ExcludePatches = 0,
    /// Keep only the exceptions.
    UsePatches = 1,
}

/// One scan and the flows it feeds.
struct SplitScan<'a> {
    scan: ScanOp<'a>,
    patches: &'a dyn PatchLookup,
    pred: Option<Expr>,
    /// Word-packed patch mask scratch, reused across batches.
    words: Vec<u64>,
    /// Selected batches a flow has not pulled yet, indexed by
    /// `PatchMode as usize`; `None` once nobody reads that flow.
    flows: [Option<VecDeque<Batch>>; 2],
}

impl SplitScan<'_> {
    /// Scans one more batch into the flows for a pull of flow `pulling`;
    /// `false` when the scan is exhausted.
    fn advance(&mut self, pulling: PatchMode) -> bool {
        let Some((start, batch)) = self.scan.next_window() else {
            return false;
        };
        let n = batch.len();
        let pred = self.pred.as_ref().map(|p| p.eval_bool(&batch));
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.patches
            .fill_patch_words(start as u64, &mut self.words, n);
        let words = &self.words;
        let select = |mode: PatchMode| {
            let wanted = mode == PatchMode::UsePatches;
            let in_mode = |i: usize| (words[i / 64] >> (i % 64) & 1 == 1) == wanted;
            match &pred {
                Some(pred) => positions(n, |i| pred[i] & in_mode(i)),
                None => positions(n, in_mode),
            }
        };
        let queued = match pulling {
            PatchMode::ExcludePatches => PatchMode::UsePatches,
            PatchMode::UsePatches => PatchMode::ExcludePatches,
        };
        if let Some(flow) = &mut self.flows[queued as usize] {
            let selected = select(queued);
            if selected.len() == n {
                // The flows are disjoint: the pulled one keeps nothing.
                flow.push_back(batch);
                return true;
            }
            if !selected.is_empty() {
                flow.push_back(batch.gather(&selected));
            }
        }
        let selected = select(pulling);
        if !selected.is_empty() {
            let flow = self.flows[pulling as usize]
                .as_mut()
                .expect("the pulled flow is live");
            flow.push_back(Batch::selected(batch.into_columns(), selected));
        }
        true
    }
}

/// One flow of a PatchIndex scan: the scanned rows (matching the
/// pushed-down predicate, if any) that are patches (`UsePatches`) or are
/// not (`ExcludePatches`).
pub struct PatchSelectOp<'a> {
    scan: Rc<RefCell<SplitScan<'a>>>,
    mode: PatchMode,
}

impl<'a> PatchSelectOp<'a> {
    /// Both flows of one scan, `(exclude_patches, use_patches)`. Rows
    /// failing `pred` (column indices as the scan emits them) reach
    /// neither. Dropping a flow tells the scan to stop selecting for it.
    pub fn split(
        scan: ScanOp<'a>,
        patches: &'a dyn PatchLookup,
        pred: Option<Expr>,
    ) -> (Self, Self) {
        let scan = Rc::new(RefCell::new(SplitScan {
            scan,
            patches,
            pred,
            words: Vec::new(),
            flows: [Some(VecDeque::new()), Some(VecDeque::new())],
        }));
        let flow = |mode| PatchSelectOp {
            scan: Rc::clone(&scan),
            mode,
        };
        (flow(PatchMode::ExcludePatches), flow(PatchMode::UsePatches))
    }

    /// A single flow over `scan`.
    pub fn new(scan: ScanOp<'a>, patches: &'a dyn PatchLookup, mode: PatchMode) -> Self {
        let (exclude, use_patches) = Self::split(scan, patches, None);
        match mode {
            PatchMode::ExcludePatches => exclude,
            PatchMode::UsePatches => use_patches,
        }
    }
}

impl Operator for PatchSelectOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        let mut scan = self.scan.borrow_mut();
        loop {
            let flow = scan.flows[self.mode as usize]
                .as_mut()
                .expect("a live flow is never closed");
            if let Some(batch) = flow.pop_front() {
                return Some(batch);
            }
            if !scan.advance(self.mode) {
                return None;
            }
        }
    }
}

impl Drop for PatchSelectOp<'_> {
    fn drop(&mut self) {
        // Only `next` borrows the scan, and it cannot be running here.
        if let Ok(mut scan) = self.scan.try_borrow_mut() {
            scan.flows[self.mode as usize] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BATCH_SIZE;
    use crate::expr::Expr;
    use crate::op::collect;
    use pi_storage::{ColumnData, DataType, Field, Partition, Schema};
    use std::ops::Range;
    use std::sync::Arc;

    /// `rows` rows `(rid * 10)`.
    fn partition(rows: i64) -> Partition {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]));
        Partition::new(
            0,
            schema,
            vec![ColumnData::Int((0..rows).map(|r| r * 10).collect())],
        )
    }

    /// The rowIDs of `partition`'s rows in `b`.
    fn rids(b: &Batch) -> Vec<i64> {
        b.column(0).as_int().iter().map(|v| v / 10).collect()
    }

    /// The rowIDs a selection over a scan of `ranges` (one batch per
    /// range) keeps.
    fn select(
        p: &Partition,
        ranges: Vec<Range<usize>>,
        patches: &dyn PatchLookup,
        mode: PatchMode,
    ) -> Vec<i64> {
        let scan = ScanOp::with_ranges(p, vec![0], ranges, false);
        rids(&collect(&mut PatchSelectOp::new(scan, patches, mode)))
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn exclude_patches_drops_exceptions() {
        let bm = ShardedBitmap::from_positions(100, &[2, 5]);
        let out = select(&partition(10), vec![0..10], &bm, PatchMode::ExcludePatches);
        assert_eq!(out, [0, 1, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn use_patches_keeps_exceptions_only() {
        let bm = ShardedBitmap::from_positions(100, &[2, 5]);
        let out = select(&partition(10), vec![0..10], &bm, PatchMode::UsePatches);
        assert_eq!(out, [2, 5]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn identifier_list_lookup() {
        let ids: Vec<u64> = vec![2, 5];
        let out = select(&partition(10), vec![0..10], &ids, PatchMode::ExcludePatches);
        assert_eq!(out, [0, 1, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn non_contiguous_rids_fall_back() {
        // A range-restricted scan: every batch is its own rowID window.
        let bm = ShardedBitmap::from_positions(100, &[7, 30]);
        let ranges = vec![3..4, 7..8, 25..26, 30..31, 99..100];
        let out = select(&partition(100), ranges, &bm, PatchMode::UsePatches);
        assert_eq!(out, [7, 30]);
    }

    #[test]
    fn permuted_windows_select_by_rowid() {
        // Regression: the selection used to infer its mask window from the
        // rowID column (`last - first + 1 == len`), so a batch with rids
        // [0, 2, 1, 3] passed as contiguous and patch {1} selected rid 2 by
        // position. The window now comes from the scan itself; scanning the
        // rows in that order selects rid 1.
        let bm = ShardedBitmap::from_positions(100, &[1]);
        let ranges = vec![0..1, 2..3, 1..2, 3..4];
        let p = partition(4);
        let out = select(&p, ranges.clone(), &bm, PatchMode::UsePatches);
        assert_eq!(out, [1]);
        let out = select(&p, ranges, &bm, PatchMode::ExcludePatches);
        assert_eq!(out, [0, 2, 3]);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn splits_are_complementary() {
        let bm = ShardedBitmap::from_positions(1 << 16, &(0..1000).step_by(3).collect::<Vec<_>>());
        let p = partition(1000);
        let a = select(&p, vec![0..1000], &bm, PatchMode::ExcludePatches).len();
        let b = select(&p, vec![0..1000], &bm, PatchMode::UsePatches).len();
        assert_eq!(a + b, 1000);
        assert_eq!(b, 334);
    }

    #[test]
    fn split_flows_share_one_scan() {
        // 10k rows = three scan batches; every 7th row is a patch, the
        // predicate keeps the first 5k rows. Whichever flow is pulled
        // first, each sees exactly its rows, in scan order.
        let patches: Vec<u64> = (0..10_000).step_by(7).collect();
        let bm = ShardedBitmap::from_positions(10_000, &patches);
        let p = partition(10_000);
        let pred = Expr::col(0).lt(Expr::LitInt(50_000));
        let want = |keep_patches: bool| -> Vec<i64> {
            (0..5_000)
                .filter(|r| (r % 7 == 0) == keep_patches)
                .collect()
        };
        for use_first in [false, true] {
            let scan = ScanOp::new(&p, vec![0], false);
            let (mut ex, mut us) = PatchSelectOp::split(scan, &bm, Some(pred.clone()));
            let (kept, patched) = if use_first {
                let patched = collect(&mut us);
                (collect(&mut ex), patched)
            } else {
                (collect(&mut ex), collect(&mut us))
            };
            assert_eq!(rids(&kept), want(false));
            assert_eq!(rids(&patched), want(true));
        }
    }

    #[test]
    fn pulled_flow_selects_and_queued_flow_is_gathered() {
        // Every 7th row of the first scan batch is a patch. One pull of
        // the excluding flow hands out the scanned batch itself under a
        // selection; the patches flow, not pulled, has queued a dense
        // batch of exactly its rows.
        let patches: Vec<u64> = (0..BATCH_SIZE as u64).step_by(7).collect();
        let bm = ShardedBitmap::from_positions(10_000, &patches);
        let p = partition(10_000);
        let (mut ex, us) = PatchSelectOp::split(ScanOp::new(&p, vec![0], false), &bm, None);
        let first = ex.next().expect("a batch");
        assert_eq!(first.len(), BATCH_SIZE - patches.len());
        assert_eq!(first.raw_column(0).len(), BATCH_SIZE);
        assert!(first.sel().is_some());
        let scan = ex.scan.borrow();
        let queue = scan.flows[PatchMode::UsePatches as usize]
            .as_ref()
            .expect("live");
        assert_eq!(queue.len(), 1);
        let queued = &queue[0];
        assert!(queued.sel().is_none(), "a queued batch is dense");
        let want: Vec<i64> = patches.iter().map(|&r| r as i64).collect();
        assert_eq!(rids(queued), want);
        assert_eq!(queued.heap_bytes(), patches.len() * 8);
        drop(scan);
        drop(us);
    }

    #[test]
    fn dropped_flow_is_not_buffered() {
        let bm = ShardedBitmap::from_positions(10_000, &[1, 5_000]);
        let p = partition(10_000);
        let (mut ex, us) = PatchSelectOp::split(ScanOp::new(&p, vec![0], false), &bm, None);
        drop(us);
        assert_eq!(collect(&mut ex).len(), 9_998);
        assert!(ex.scan.borrow().flows[PatchMode::UsePatches as usize].is_none());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn identifier_wordwise_fill_matches_bitmap() {
        // Scans over an unaligned rowID window: the sorted-run gallop must
        // agree bit-for-bit with the sharded bitmap path.
        let patches: Vec<u64> = (0..500).filter(|p| p % 7 == 0 || p % 64 == 63).collect();
        let ids: Vec<u64> = patches.clone();
        let bm = ShardedBitmap::from_positions(500, &patches);
        let p = partition(500);
        for start in [0usize, 1, 63, 130, 421] {
            let window = start..(start + 70).min(500);
            for mode in [PatchMode::ExcludePatches, PatchMode::UsePatches] {
                assert_eq!(
                    select(&p, vec![window.clone()], &ids, mode),
                    select(&p, vec![window.clone()], &bm, mode),
                    "start={start} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_buffers_survive_multiple_batches() {
        // Batches of shrinking and growing sizes through one operator: the
        // reused scratch space must never leak bits across batches.
        let ids: Vec<u64> = vec![2, 65, 128];
        let ranges = vec![0..130, 1..4, 60..70, 0..200];
        let out = select(&partition(200), ranges, &ids, PatchMode::UsePatches);
        assert_eq!(out, [2, 65, 128, 2, 65, 2, 65, 128]);
    }

    #[test]
    fn exhausted_on_empty_input() {
        let bm = ShardedBitmap::new(10);
        let p = partition(0);
        let scan = ScanOp::new(&p, vec![0], false);
        let mut op = PatchSelectOp::new(scan, &bm, PatchMode::ExcludePatches);
        assert!(op.next().is_none());
    }
}
