//! Small materialized aggregates / MinMax indexes (paper, Section 5:
//! "summary tables", after Moerkotte's SMAs).
//!
//! A zone map stores the minimum and maximum value per fixed-size block of
//! rows. Scans evaluate range predicates against the per-block bounds and
//! skip blocks that cannot contain matches; *dynamic range propagation*
//! feeds the (min, max) envelope of a hash-join build side into the probe
//! scan's zone map to avoid a full table scan (used by the NUC insert
//! handling, Figure 5).

use std::ops::Range;

/// Default number of rows per zone-map block.
pub const DEFAULT_BLOCK_ROWS: usize = 1024;

/// Per-block min/max summary over an integer-backed column.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    block_rows: usize,
    mins: Vec<i64>,
    maxs: Vec<i64>,
    rows: usize,
}

impl ZoneMap {
    /// Builds a zone map over `values` with `block_rows` rows per block.
    pub fn build(values: &[i64], block_rows: usize) -> Self {
        assert!(block_rows > 0, "block_rows must be positive");
        let nblocks = values.len().div_ceil(block_rows);
        let mut mins = Vec::with_capacity(nblocks);
        let mut maxs = Vec::with_capacity(nblocks);
        for block in values.chunks(block_rows) {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for &v in block {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            mins.push(lo);
            maxs.push(hi);
        }
        ZoneMap {
            block_rows,
            mins,
            maxs,
            rows: values.len(),
        }
    }

    /// Rows per block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.mins.len()
    }

    /// Total rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether block `b` may contain a value in `[lo, hi]`.
    #[inline]
    pub fn block_may_match(&self, b: usize, lo: i64, hi: i64) -> bool {
        self.mins[b] <= hi && lo <= self.maxs[b]
    }

    /// Row ranges (coalesced) of all blocks intersecting `[lo, hi]`.
    pub fn candidate_ranges(&self, lo: i64, hi: i64) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for b in 0..self.block_count() {
            if self.block_may_match(b, lo, hi) {
                let start = b * self.block_rows;
                let end = ((b + 1) * self.block_rows).min(self.rows);
                match out.last_mut() {
                    Some(last) if last.end == start => last.end = end,
                    _ => out.push(start..end),
                }
            }
        }
        out
    }
}

/// A half-open scan restriction produced by zone-map pruning or range
/// propagation; `None` means "scan everything".
pub type ScanRanges = Option<Vec<Range<usize>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_computes_block_bounds() {
        let vals: Vec<i64> = (0..10).collect();
        let zm = ZoneMap::build(&vals, 4);
        assert_eq!(zm.block_count(), 3);
        assert_eq!(zm.mins, vec![0, 4, 8]);
        assert_eq!(zm.maxs, vec![3, 7, 9]);
        assert_eq!(zm.rows(), 10);
    }

    #[test]
    fn candidate_ranges_prune_blocks() {
        // Sorted data: range predicates touch few blocks.
        let vals: Vec<i64> = (0..100).collect();
        let zm = ZoneMap::build(&vals, 10);
        assert_eq!(zm.candidate_ranges(25, 34), vec![20..40]);
        assert_eq!(zm.candidate_ranges(95, 200), vec![90..100]);
        assert!(zm.candidate_ranges(1000, 2000).is_empty());
    }

    #[test]
    fn candidate_ranges_coalesce_adjacent_blocks() {
        let vals: Vec<i64> = (0..40).collect();
        let zm = ZoneMap::build(&vals, 10);
        let ranges = zm.candidate_ranges(5, 35);
        assert_eq!(ranges, vec![0..40]);
    }

    #[test]
    fn unsorted_data_keeps_matching_blocks_only() {
        let vals = vec![100i64, 1, 2, 3, 50, 51, 52, 53];
        let zm = ZoneMap::build(&vals, 4);
        // Block 0 covers [1,100], block 1 covers [50,53].
        assert_eq!(zm.candidate_ranges(60, 70), vec![0..4]);
        assert_eq!(zm.candidate_ranges(50, 52), vec![0..8]);
    }

    #[test]
    fn last_partial_block_clamped() {
        let vals: Vec<i64> = (0..7).collect();
        let zm = ZoneMap::build(&vals, 4);
        assert_eq!(zm.candidate_ranges(6, 6), vec![4..7]);
    }

    #[test]
    fn selectivity_fraction() {
        let vals: Vec<i64> = (0..100).collect();
        let zm = ZoneMap::build(&vals, 10);
        let kept: usize = zm.candidate_ranges(0, 9).iter().map(|r| r.len()).sum();
        assert_eq!(kept, 10, "a one-block range keeps a tenth of the rows");
        assert!(zm.candidate_ranges(-10, -5).is_empty());
    }

    #[test]
    fn empty_input() {
        let zm = ZoneMap::build(&[], 8);
        assert_eq!(zm.block_count(), 0);
        assert!(zm.candidate_ranges(0, 100).is_empty());
    }
}
