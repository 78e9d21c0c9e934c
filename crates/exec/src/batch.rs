//! Row batches flowing between operators.
//!
//! Execution is vector-at-a-time in the X100 style: operators exchange
//! [`Batch`]es of up to [`BATCH_SIZE`] rows. A batch holds `Arc`-shared
//! [`ColumnData`] vectors — its *backing* — and one of two row shapes:
//!
//! * **a window:** a contiguous range of backing rows; *dense* when it is
//!   all of them. A scan of clean base rows lends the base columns with
//!   the window it read, and [`Batch::split`] and [`Batch::head`] hand out
//!   windows of one buffer, so none of them copies a row;
//! * **a selection:** ascending backing positions plus the *span* they
//!   were selected from. The PatchIndex selection and
//!   [`FilterOp`](crate::ops::filter::FilterOp) narrow a batch this way
//!   instead of copying the surviving rows.
//!
//! [`Batch::len`] counts the rows a batch holds. A consumer either reads
//! through the shape ([`Batch::row`] maps the i-th row to its position in
//! [`Batch::raw_column`]; expression evaluation covers [`Batch::span`]) or
//! calls [`Batch::materialize`] once, which copies the rows into dense
//! columns and is the identity on a dense batch. So a row is copied only
//! where a pipeline breaks (sort, build side, result) — or never, when a
//! join finds no partner for it. [`Batch::column`], [`Batch::columns`] and
//! [`Batch::into_columns`] debug-assert a dense batch, so a consumer that
//! forgets the shape fails in tests instead of reading rows outside it.
//! Which operators do which is listed in the `op` module. A lent window
//! keeps the base columns alive, so a batch needs no lifetime: a later
//! write to the partition copies them (see `pi_storage::Partition`).
//!
//! RowIDs travel as an ordinary trailing `Int` column only where a
//! consumer reads them (the maintenance queries); a PatchIndex scan takes
//! its patch-mask window from the scan position and emits none.

use std::ops::Range;
use std::sync::Arc;

use pi_storage::ColumnData;

pub use pi_storage::parallel::BATCH_SIZE;

/// A horizontal slice of intermediate results.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    columns: Vec<Arc<ColumnData>>,
    /// The window, or the range the selection was selected from.
    span: Range<usize>,
    /// Ascending positions inside `span` of the rows the batch holds;
    /// `None` when it holds the whole span (a window). Never all of it.
    sel: Option<Vec<usize>>,
}

impl Batch {
    /// Creates a dense batch from columns (must be equally long).
    pub fn new(columns: Vec<ColumnData>) -> Self {
        let rows = columns.first().map_or(0, ColumnData::len);
        Batch::window(columns.into_iter().map(Arc::new).collect(), 0..rows)
    }

    /// Creates a batch holding the backing rows `rows` of shared `columns`
    /// (equally long, and at least `rows.end` rows).
    pub fn window(columns: Vec<Arc<ColumnData>>, rows: Range<usize>) -> Self {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "ragged batch columns"
            );
            assert!(rows.end <= first.len(), "window outside its columns");
        }
        Batch {
            columns,
            span: rows,
            sel: None,
        }
    }

    /// Creates a batch holding the rows of `columns` at `sel` (ascending
    /// positions). Selecting every row gives a dense batch.
    pub fn selected(columns: Vec<ColumnData>, sel: Vec<usize>) -> Self {
        let batch = Batch::new(columns);
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]) && sel.last().is_none_or(|&p| p < batch.len()),
            "a selection holds ascending positions inside the batch"
        );
        batch.with_sel(sel)
    }

    /// The batch holding the rows `sel` of its span: still a window when
    /// that is all of them.
    fn with_sel(self, sel: Vec<usize>) -> Batch {
        let sel = (sel.len() != self.span.len()).then_some(sel);
        Batch { sel, ..self }
    }

    /// Number of rows the batch holds.
    pub fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.span.len(), Vec::len)
    }

    /// Whether the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The selection: ascending positions into the backing of the rows the
    /// batch holds, or `None` on a window.
    pub fn sel(&self) -> Option<&[usize]> {
        self.sel.as_deref()
    }

    /// The range of backing rows the batch's rows lie in: the window, or
    /// the span the selection was selected from. Expression evaluation
    /// covers exactly this range.
    pub fn span(&self) -> Range<usize> {
        self.span.clone()
    }

    /// The position in the backing of the batch's `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i],
            None => self.span.start + i,
        }
    }

    /// Backing column `i`, whole: read it at [`Batch::row`] positions.
    pub fn raw_column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// All columns of a dense batch.
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        self.assert_dense();
        &self.columns
    }

    /// Column `i` of a dense batch.
    pub fn column(&self, i: usize) -> &ColumnData {
        self.assert_dense();
        &self.columns[i]
    }

    /// Consumes a dense batch into its columns (copying any that are
    /// shared).
    pub fn into_columns(self) -> Vec<ColumnData> {
        self.assert_dense();
        self.columns.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    fn is_dense(&self) -> bool {
        let backing = self.columns.first().map_or(self.span.end, |c| c.len());
        self.sel.is_none() && self.span == (0..backing)
    }

    fn assert_dense(&self) {
        debug_assert!(
            self.is_dense(),
            "a window or selection holds only part of its columns: materialize it first"
        );
    }

    /// The batch with its rows copied into dense columns; the identity on
    /// a dense batch.
    pub fn materialize(self) -> Batch {
        match &self.sel {
            _ if self.is_dense() => self,
            Some(sel) => self.gather(sel),
            None => Batch::new(
                self.columns
                    .iter()
                    .map(|c| copy_rows(c, &self.span))
                    .collect(),
            ),
        }
    }

    /// Heap bytes of the backing column vectors (shared dictionaries
    /// excluded): what the batch keeps alive.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }

    /// A dense batch of the backing rows at `rows` (in that order); these
    /// are [`Batch::row`] positions.
    pub fn gather(&self, rows: &[usize]) -> Batch {
        Batch::new(self.columns.iter().map(|c| c.gather(rows)).collect())
    }

    /// The batch's rows `rows` (counted from its first row): a narrower
    /// window over the same columns, or those rows of a selection gathered
    /// into a dense batch.
    pub(crate) fn slice(&self, rows: Range<usize>) -> Batch {
        match &self.sel {
            Some(sel) => self.gather(&sel[rows]),
            None => Batch {
                columns: self.columns.clone(),
                span: self.span.start + rows.start..self.span.start + rows.end,
                sel: None,
            },
        }
    }

    /// Keeps the rows whose offset into the span passes `keep`: the
    /// selection narrows, nothing is copied, and a window all of whose
    /// rows pass stays as it is.
    pub(crate) fn refine(mut self, keep: impl Fn(usize) -> bool) -> Batch {
        let start = self.span.start;
        match self.sel.take() {
            None => {
                let sel = positions(self.span.clone(), |p| keep(p - start));
                self.with_sel(sel)
            }
            Some(mut sel) => {
                sel.retain(|&p| keep(p - start));
                Batch {
                    sel: Some(sel),
                    ..self
                }
            }
        }
    }

    /// The first `n` rows: a shorter window or selection, nothing is
    /// copied.
    pub(crate) fn head(mut self, n: usize) -> Batch {
        match &mut self.sel {
            Some(sel) => sel.truncate(n),
            None => self.span.end = self.span.end.min(self.span.start + n),
        }
        self
    }

    /// Keeps only the given columns, in the given order (and the rows);
    /// the columns are shared, not copied.
    pub fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            columns: cols.iter().map(|&c| Arc::clone(&self.columns[c])).collect(),
            ..self.clone()
        }
    }

    /// Concatenates many batches into one dense batch (empty input gives
    /// an empty batch). The output columns are sized once for every row
    /// and each batch's window or selection is copied straight into them;
    /// a batch that holds every row comes back as it is when dense.
    pub fn concat(batches: &[Batch]) -> Batch {
        let filled = batches.iter().filter(|b| b.width() > 0);
        let Some(first) = filled.clone().next() else {
            return Batch::default();
        };
        let total: usize = batches.iter().map(Batch::len).sum();
        if let Some(whole) = filled.clone().find(|b| b.len() == total) {
            return whole.clone().materialize();
        }
        let mut columns: Vec<ColumnData> = first
            .columns
            .iter()
            .map(|c| {
                let mut out = c.empty_like();
                out.reserve(total);
                out
            })
            .collect();
        for b in filled {
            assert_eq!(b.width(), columns.len(), "batch width mismatch");
            for (out, col) in columns.iter_mut().zip(&b.columns) {
                match &b.sel {
                    Some(sel) => extend_gathered(out, col, sel),
                    None => out.extend_from_range(col, b.span.start, b.span.len()),
                }
            }
        }
        Batch::new(columns)
    }

    /// Splits a batch into windows of at most `chunk` rows over the same
    /// columns (used by operators that materialize and then re-stream); a
    /// selection is materialized first.
    pub fn split(self, chunk: usize) -> Vec<Batch> {
        if self.sel.is_some() {
            return self.materialize().split(chunk);
        }
        if self.len() <= chunk {
            return vec![self];
        }
        let end = self.span.end;
        let starts = self.span.clone().step_by(chunk);
        starts
            .map(|start| Batch {
                span: start..end.min(start + chunk),
                ..self.clone()
            })
            .collect()
    }
}

/// A copy of the rows `rows` of `col`.
pub(crate) fn copy_rows(col: &ColumnData, rows: &Range<usize>) -> ColumnData {
    let mut out = col.empty_like();
    out.extend_from_range(col, rows.start, rows.len());
    out
}

/// Appends the rows of `col` at `rows` to `out` (same type and, for
/// strings, the same dictionary) without a temporary column.
fn extend_gathered(out: &mut ColumnData, col: &ColumnData, rows: &[usize]) {
    match (out, col) {
        (ColumnData::Int(a), ColumnData::Int(b)) => a.extend(rows.iter().map(|&i| b[i])),
        (ColumnData::Float(a), ColumnData::Float(b)) => a.extend(rows.iter().map(|&i| b[i])),
        (ColumnData::Str { codes: a, dict: da }, ColumnData::Str { codes: b, dict: db }) => {
            assert!(Arc::ptr_eq(da, db), "concat across different dictionaries");
            a.extend(rows.iter().map(|&i| b[i]));
        }
        (a, b) => panic!(
            "type mismatch: concatenating {:?} with {:?}",
            a.data_type(),
            b.data_type()
        ),
    }
}

/// The positions `p` in `rows` for which `keep(p)` holds, ascending. The
/// selection kernel of [`Batch::refine`]: the vector is sized once, every
/// position is written unconditionally and the cursor advances by the
/// predicate, so the loop has no data-dependent branch to mispredict.
fn positions(rows: Range<usize>, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut out = vec![0; rows.len()];
    let mut kept = 0;
    for p in rows {
        out[kept] = p;
        kept += usize::from(keep(p));
    }
    out.truncate(kept);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_storage::str_column;

    fn batch() -> Batch {
        Batch::new(vec![
            ColumnData::Int(vec![1, 2, 3, 4]),
            str_column(&["a", "b", "c", "d"]),
        ])
    }

    #[test]
    fn shape_accessors() {
        let b = batch();
        assert_eq!(b.len(), 4);
        assert_eq!(b.width(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn selection_reads_through_and_materializes() {
        let b = Batch::selected(batch().into_columns(), vec![0, 3]);
        assert_eq!((b.len(), b.sel()), (2, Some(&[0, 3][..])));
        assert_eq!(b.raw_column(0).as_int()[b.row(1)], 4);
        let m = b.materialize();
        assert!(m.sel().is_none());
        assert_eq!(m.column(0).as_int(), &[1, 4]);
        assert_eq!(m.column(1).as_codes(), &[0, 3]);
        // Selecting every row is the dense batch.
        assert!(Batch::selected(batch().into_columns(), vec![0, 1, 2, 3])
            .sel()
            .is_none());
    }

    #[test]
    fn refine_narrows_and_head_truncates_without_copying() {
        let dense = batch().refine(|_| true);
        assert!(dense.sel().is_none(), "an all-true mask keeps the batch");
        let odd = batch().refine(|p| p % 2 == 1);
        assert_eq!(odd.sel(), Some(&[1, 3][..]));
        let last = odd.clone().refine(|p| p == 3);
        assert_eq!(last.sel(), Some(&[3][..]));
        assert_eq!(odd.head(1).sel(), Some(&[1][..]));
        let (whole, head) = (batch(), batch().head(2));
        assert_eq!((head.sel(), head.span()), (None, 0..2));
        assert_eq!(head.materialize().column(0).as_int(), &[1, 2]);
        assert_eq!(whole.clone().head(9).span(), whole.span());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "materialize it first")]
    fn column_of_a_selected_batch_panics_in_debug() {
        Batch::selected(batch().into_columns(), vec![1]).column(0);
    }

    #[test]
    fn project_reorders_columns() {
        let b = batch().project(&[1, 0]);
        assert_eq!(b.column(1).as_int(), &[1, 2, 3, 4]);
    }

    #[test]
    fn append_and_concat() {
        // String columns share a dictionary only within one logical column;
        // concatenating therefore uses clones of the same batch.
        let b = batch();
        assert_eq!(Batch::concat(&[b.clone(), b.clone()]).len(), 8);
        let picked = Batch::selected(b.clone().into_columns(), vec![2]);
        let d = Batch::concat(&[picked.clone(), b.clone(), picked]);
        assert_eq!(d.column(0).as_int(), &[3, 1, 2, 3, 4, 3]);
        let c = Batch::concat(&[b.clone(), b.clone(), b]);
        assert_eq!(c.len(), 12);
    }

    #[test]
    fn append_into_empty() {
        let e = Batch::concat(&[Batch::default(), batch()]);
        assert_eq!(e.len(), 4);
        assert!(Batch::concat(&[]).is_empty());
    }

    /// Windows, selections and a `Str` column concatenate to the rows
    /// each batch holds, in order, into columns sized exactly once; a
    /// lone dense batch comes back sharing its columns.
    #[test]
    fn concat_copies_each_shape_into_exactly_sized_columns() {
        let rows = |b: &Batch| -> Vec<String> {
            (0..b.len())
                .map(|i| {
                    let row: Vec<_> = (0..b.width())
                        .map(|c| b.raw_column(c).value(b.row(i)))
                        .collect();
                    format!("{row:?}")
                })
                .collect()
        };
        let b = batch();
        let pieces = [
            b.clone().head(3),
            Batch::selected(b.clone().into_columns(), vec![1, 3]),
            Batch::window(b.columns().to_vec(), 1..4),
            b.clone().refine(|p| p != 2),
            b.clone().head(0),
            b.clone(),
        ];
        let out = Batch::concat(&pieces);
        assert_eq!(rows(&out), pieces.iter().flat_map(rows).collect::<Vec<_>>());
        for col in out.columns() {
            let capacity = match &**col {
                ColumnData::Int(v) => v.capacity(),
                ColumnData::Float(v) => v.capacity(),
                ColumnData::Str { codes, .. } => codes.capacity(),
            };
            assert_eq!(capacity, out.len());
        }
        let alone = Batch::concat(&[b.clone().head(0), b.clone()]);
        assert!(Arc::ptr_eq(&alone.columns()[0], &b.columns()[0]));
    }

    #[test]
    fn split_into_chunks() {
        let parts = batch().split(3);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 1);
        assert!(
            std::ptr::eq(parts[0].raw_column(0), parts[1].raw_column(0)),
            "the parts are windows of one buffer"
        );
        assert_eq!(parts[1].clone().materialize().column(0).as_int(), &[4]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        Batch::new(vec![ColumnData::Int(vec![1]), ColumnData::Int(vec![1, 2])]);
    }
}
