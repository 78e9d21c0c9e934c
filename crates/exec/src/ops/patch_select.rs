//! The PatchIndex selection operator (paper, Section 3.3).
//!
//! A *PatchIndex scan* is an ordinary scan plus a selection operator that
//! merges the patch information into the dataflow on the fly, keeping
//! either the constraint-satisfying tuples (`exclude_patches`) or the
//! exceptions (`use_patches`). The decision is purely rowID-based, so the
//! operator's per-tuple overhead is fixed and independent of data types.
//!
//! Per scanned batch the patch mask of its rowID window is read
//! word-wise (the window comes from the scan position; the scan emits no
//! rowID column). The excluding flow gets the scanned batch — on clean
//! base rows a window lent from base storage — with a selection (see
//! [`Batch`]): no row is copied here or in the scan, so the paper's
//! selection costs the mask and nothing more; its consumer reads through
//! the selection or gathers where its pipeline breaks. The exceptions are
//! found from the mask's set bits and gathered. The hand-lowered TPC-H
//! join reads the same mask without this operator: see
//! [`PatchMergeJoinOp`](crate::ops::merge_join::PatchMergeJoinOp).
//!
//! The operator is generic over [`PatchLookup`] so both PatchIndex design
//! approaches (bitmap-based and identifier-based, paper Section 3.2) plug
//! into the same plans.

use pi_bitmap::ShardedBitmap;

use crate::batch::Batch;
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

    fn fill_patch_words(&self, from: u64, out: &mut [u64], nbits: usize) {
        self.fill_words(from, out);
        // `fill_words` fills whole words: clear the bits of the rows past
        // the range.
        if let Some((partial, rest)) = out.get_mut(nbits / 64..).and_then(|w| w.split_first_mut()) {
            *partial &= (1 << (nbits % 64)) - 1;
            rest.fill(0);
        }
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

/// One flow of a PatchIndex scan: the scanned rows that are patches
/// (`UsePatches`) or are not (`ExcludePatches`).
pub struct PatchSelectOp<'a> {
    scan: ScanOp<'a>,
    patches: &'a dyn PatchLookup,
    mode: PatchMode,
    /// Word-packed patch mask scratch, reused across batches.
    words: Vec<u64>,
}

impl<'a> PatchSelectOp<'a> {
    /// The flow `mode` of `scan`.
    pub fn new(scan: ScanOp<'a>, patches: &'a dyn PatchLookup, mode: PatchMode) -> Self {
        PatchSelectOp {
            scan,
            patches,
            mode,
            words: Vec::new(),
        }
    }
}

impl Operator for PatchSelectOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        loop {
            let (start, batch) = self.scan.next_window()?;
            let n = batch.len();
            self.words.clear();
            self.words.resize(n.div_ceil(64), 0);
            self.patches
                .fill_patch_words(start as u64, &mut self.words, n);
            let words = &self.words;
            let selected = match self.mode {
                PatchMode::ExcludePatches => batch.refine(|i| words[i / 64] >> (i % 64) & 1 == 0),
                // The exceptions are few: find them from the mask's set
                // bits, not a pass over every row, and gather them.
                PatchMode::UsePatches => {
                    let mut rows = Vec::new();
                    for (k, &word) in words.iter().enumerate() {
                        let mut w = word;
                        while w != 0 {
                            rows.push(batch.row(k * 64 + w.trailing_zeros() as usize));
                            w &= w - 1;
                        }
                    }
                    match rows.len() == n {
                        true => batch,
                        false => batch.gather(&rows),
                    }
                }
            };
            if !selected.is_empty() {
                return Some(selected);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn both_designs_fill_identical_words_for_a_range_ending_mid_word() {
        let patches: Vec<u64> = (0..300).filter(|r| r % 3 != 1).collect();
        let bm = ShardedBitmap::from_positions(300, &patches);
        for (from, nbits) in [(0, 70), (5, 64), (100, 1), (250, 50), (200, 128)] {
            let mut words = [[u64::MAX; 3]; 2];
            bm.fill_patch_words(from, &mut words[0], nbits);
            patches.fill_patch_words(from, &mut words[1], nbits);
            assert_eq!(words[0], words[1], "rows [{from}, {})", from + nbits as u64);
        }
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
