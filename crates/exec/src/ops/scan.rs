//! Partition scans.
//!
//! Scans read visible rows of one partition (base + positional deltas),
//! optionally restricted to candidate row ranges produced by zone-map
//! pruning or range propagation, and optionally emitting the rowID as an
//! extra trailing `Int` column for the maintenance queries, which read
//! rowIDs as values. The PatchIndex selection needs none: it takes each
//! batch's rowID window from [`ScanOp::next_window`].
//!
//! A batch of base rows with no delete or patch among them is lent: a
//! window into the partition's shared base columns (see [`Batch`]). The
//! rest, and batches carrying rowIDs, are copied by
//! [`Partition::read_range`]. A batch stops where the base ends, so
//! appends leave every base batch lendable.

use std::ops::Range;

use pi_storage::{ColumnData, Partition};

use crate::batch::{Batch, BATCH_SIZE};
use crate::op::Operator;

/// Scans one partition.
pub struct ScanOp<'a> {
    partition: &'a Partition,
    cols: Vec<usize>,
    ranges: Vec<Range<usize>>,
    with_rowids: bool,
    cur: usize,
    pos: usize,
}

impl<'a> ScanOp<'a> {
    /// Full scan over the partition's visible rows.
    #[allow(clippy::single_range_in_vec_init)]
    pub fn new(partition: &'a Partition, cols: Vec<usize>, with_rowids: bool) -> Self {
        let ranges = vec![0..partition.visible_len()];
        Self::with_ranges(partition, cols, ranges, with_rowids)
    }

    /// Scan restricted to the given visible-row ranges (ascending,
    /// non-overlapping).
    pub fn with_ranges(
        partition: &'a Partition,
        cols: Vec<usize>,
        ranges: Vec<Range<usize>>,
        with_rowids: bool,
    ) -> Self {
        let pos = ranges.first().map_or(0, |r| r.start);
        ScanOp {
            partition,
            cols,
            ranges,
            with_rowids,
            cur: 0,
            pos,
        }
    }
}

impl ScanOp<'_> {
    /// Produces the next batch together with the rowID of its first row.
    /// A batch never crosses a range boundary, so its rows are the
    /// contiguous rowID window `[start, start + batch.len())` — what the
    /// PatchIndex selection reads its patch mask for.
    pub fn next_window(&mut self) -> Option<(usize, Batch)> {
        loop {
            let range = self.ranges.get(self.cur)?;
            if self.pos >= range.end {
                self.cur += 1;
                if let Some(r) = self.ranges.get(self.cur) {
                    self.pos = r.start;
                }
                continue;
            }
            let (start, base_end) = (self.pos, self.partition.delta().base_visible_len());
            let end = if start < base_end {
                range.end.min(base_end)
            } else {
                range.end
            };
            let len = BATCH_SIZE.min(end - start);
            self.pos += len;
            if !self.with_rowids {
                if let Some((cols, pos)) = self.partition.lend_range(&self.cols, start, len) {
                    return Some((start, Batch::window(cols, pos..pos + len)));
                }
            }
            let mut cols = self.partition.read_range(&self.cols, start, len);
            if self.with_rowids {
                cols.push(ColumnData::Int(
                    (start as i64..(start + len) as i64).collect(),
                ));
            }
            return Some((start, Batch::new(cols)));
        }
    }
}

impl Operator for ScanOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        self.next_window().map(|(_, batch)| batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect;
    use std::sync::Arc;

    use pi_storage::{DataType, Field, Schema, Value};

    fn partition(rows: i64) -> Partition {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        Partition::new(
            0,
            schema,
            vec![
                ColumnData::Int((0..rows).collect()),
                ColumnData::Int((0..rows).map(|i| i % 7).collect()),
            ],
        )
    }

    #[test]
    fn full_scan_emits_all_rows() {
        let p = partition(10_000);
        let mut scan = ScanOp::new(&p, vec![0], false);
        let out = collect(&mut scan);
        assert_eq!(out.len(), 10_000);
        assert_eq!(out.column(0).as_int()[9_999], 9_999);
    }

    #[test]
    fn base_batches_are_lent_and_appended_rows_are_copied() {
        let clean = partition(10_000);
        let mut appended = partition(10_000);
        appended.append_row(&[Value::Int(-1), Value::Int(-2)]);
        for p in [&clean, &appended] {
            let mut scan = ScanOp::new(p, vec![1, 0], false);
            let mut rows = 0;
            while let Some((start, b)) = scan.next_window() {
                assert_eq!(start, rows);
                rows += b.len();
                for (c, col) in [1, 0].into_iter().enumerate() {
                    let base = p.base_column(col).as_int().as_ptr_range();
                    let first: *const i64 = &b.raw_column(c).as_int()[b.row(0)];
                    if start < 10_000 {
                        assert_eq!(first, base.start.wrapping_add(start), "lent");
                    } else {
                        assert!(!base.contains(&first), "appended rows are copied");
                    }
                }
            }
            assert_eq!(rows, p.visible_len());
        }
    }

    #[test]
    fn scan_batches_are_bounded() {
        let p = partition(10_000);
        let mut scan = ScanOp::new(&p, vec![0], false);
        while let Some(b) = scan.next() {
            assert!(b.len() <= BATCH_SIZE);
        }
    }

    #[test]
    fn rowid_column_appended() {
        let p = partition(100);
        let mut scan = ScanOp::new(&p, vec![1], true);
        let out = collect(&mut scan);
        assert_eq!(out.width(), 2);
        assert_eq!(out.column(1).as_int()[42], 42);
    }

    #[test]
    fn ranged_scan_skips_rows() {
        let p = partition(100);
        let mut scan = ScanOp::with_ranges(&p, vec![0], vec![5..8, 90..93], true);
        let out = collect(&mut scan);
        assert_eq!(out.column(0).as_int(), &[5, 6, 7, 90, 91, 92]);
        assert_eq!(out.column(1).as_int(), &[5, 6, 7, 90, 91, 92]);
    }

    #[test]
    fn empty_partition_scan() {
        let p = partition(0);
        let mut scan = ScanOp::new(&p, vec![0, 1], true);
        assert!(collect(&mut scan).is_empty());
    }

    #[test]
    fn scan_reflects_deltas() {
        let mut p = partition(10);
        p.delete(&[0]);
        p.modify(&[0], 0, &[Value::Int(-5)]);
        let mut scan = ScanOp::new(&p, vec![0], false);
        let out = collect(&mut scan);
        assert_eq!(out.column(0).as_int()[0], -5);
        assert_eq!(out.len(), 9);
    }
}
