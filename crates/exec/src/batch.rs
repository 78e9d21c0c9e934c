//! Row batches flowing between operators.
//!
//! Execution is vector-at-a-time in the X100 style: operators exchange
//! [`Batch`]es of up to [`BATCH_SIZE`] rows, each a set of equally long
//! [`ColumnData`] vectors.
//!
//! **Selections.** A batch may carry a *selection*: the ascending
//! positions, into its columns, of the rows it holds. The PatchIndex
//! selection and [`FilterOp`](crate::ops::filter::FilterOp) produce one
//! instead of copying the surviving rows, so a row is gathered only where
//! a pipeline breaks (sort, merge, build side, result) — or never, when a
//! join finds no partner for it. [`Batch::len`] counts selected rows. A
//! consumer either reads through the selection ([`Batch::row`] maps the
//! i-th row to its position in [`Batch::raw_column`]) or calls
//! [`Batch::materialize`] once, which gathers and is the identity on a
//! dense batch. [`Batch::column`], [`Batch::columns`] and
//! [`Batch::into_columns`] debug-assert a dense batch, so a consumer that
//! forgets the selection fails in tests instead of reading rows that were
//! selected away. Which operators do which is listed in the `op` module.
//!
//! RowIDs travel as an ordinary trailing `Int` column only where a
//! consumer reads them (the maintenance queries); a PatchIndex scan takes
//! its patch-mask window from the scan position and emits none.

use pi_storage::ColumnData;

/// Preferred number of rows per batch.
pub const BATCH_SIZE: usize = 4096;

/// A horizontal slice of intermediate results.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    columns: Vec<ColumnData>,
    /// Ascending positions into `columns` of the rows the batch holds;
    /// `None` when it holds every row (dense). Never the full range.
    sel: Option<Vec<usize>>,
}

impl Batch {
    /// Creates a dense batch from columns (must be equally long).
    pub fn new(columns: Vec<ColumnData>) -> Self {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "ragged batch columns"
            );
        }
        Batch { columns, sel: None }
    }

    /// Creates a batch holding the rows of `columns` at `sel` (ascending
    /// positions). Selecting every row gives a dense batch.
    pub fn selected(columns: Vec<ColumnData>, sel: Vec<usize>) -> Self {
        let batch = Batch::new(columns);
        let n = batch.physical_len();
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]) && sel.last().is_none_or(|&p| p < n),
            "a selection holds ascending positions inside the batch"
        );
        if sel.len() == n {
            return batch;
        }
        Batch {
            sel: Some(sel),
            ..batch
        }
    }

    /// Number of rows (selected rows, on a selected batch).
    pub fn len(&self) -> usize {
        self.sel
            .as_ref()
            .map_or_else(|| self.physical_len(), Vec::len)
    }

    /// Length of the column vectors, selected rows or not.
    pub(crate) fn physical_len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Whether the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The selection: ascending positions into the columns of the rows
    /// the batch holds, or `None` on a dense batch.
    pub fn sel(&self) -> Option<&[usize]> {
        self.sel.as_deref()
    }

    /// The position in the columns of the batch's `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i],
            None => i,
        }
    }

    /// Column `i` whole, selected rows or not: read it at [`Batch::row`]
    /// positions.
    pub fn raw_column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// All columns of a dense batch.
    pub fn columns(&self) -> &[ColumnData] {
        self.assert_dense();
        &self.columns
    }

    /// Column `i` of a dense batch.
    pub fn column(&self, i: usize) -> &ColumnData {
        self.assert_dense();
        &self.columns[i]
    }

    /// Consumes a dense batch into its columns.
    pub fn into_columns(self) -> Vec<ColumnData> {
        self.assert_dense();
        self.columns
    }

    fn assert_dense(&self) {
        debug_assert!(
            self.sel.is_none(),
            "a selected batch's columns hold unselected rows: materialize it first"
        );
    }

    /// The batch with its selected rows gathered into dense columns; the
    /// identity on a dense batch.
    pub fn materialize(self) -> Batch {
        match &self.sel {
            Some(sel) => self.gather(sel),
            None => self,
        }
    }

    /// Heap bytes of all column vectors (shared dictionaries excluded).
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(ColumnData::heap_bytes).sum()
    }

    /// A dense batch of the rows at column positions `rows` (in that
    /// order); on a selected batch these are [`Batch::row`] positions.
    pub fn gather(&self, rows: &[usize]) -> Batch {
        Batch::new(self.columns.iter().map(|c| c.gather(rows)).collect())
    }

    /// Keeps the rows whose column position passes `keep`: the selection
    /// narrows, nothing is copied, and a dense batch all of whose rows
    /// pass stays dense.
    pub(crate) fn refine(self, keep: impl Fn(usize) -> bool) -> Batch {
        match self.sel {
            None => {
                let sel = positions(self.physical_len(), keep);
                Batch::selected(self.columns, sel)
            }
            Some(mut sel) => {
                sel.retain(|&p| keep(p));
                Batch {
                    columns: self.columns,
                    sel: Some(sel),
                }
            }
        }
    }

    /// The first `n` rows: a selection, nothing is copied.
    pub(crate) fn head(self, n: usize) -> Batch {
        if n >= self.len() {
            return self;
        }
        let sel = match self.sel {
            Some(mut sel) => {
                sel.truncate(n);
                sel
            }
            None => (0..n).collect(),
        };
        Batch {
            columns: self.columns,
            sel: Some(sel),
        }
    }

    /// Keeps only the given columns, in the given order (and the
    /// selection).
    pub fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            sel: self.sel.clone(),
        }
    }

    /// Appends the (selected) rows of `other` (same shape) to this dense
    /// batch.
    pub fn append(&mut self, other: &Batch) {
        self.assert_dense();
        if self.columns.is_empty() {
            *self = match other.sel() {
                Some(sel) => other.gather(sel),
                None => other.clone(),
            };
            return;
        }
        assert_eq!(self.width(), other.width(), "batch width mismatch");
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            match &other.sel {
                Some(sel) => a.extend_from(&b.gather(sel)),
                None => a.extend_from(b),
            }
        }
    }

    /// Concatenates many batches into one dense batch (empty input gives
    /// an empty batch).
    pub fn concat(batches: &[Batch]) -> Batch {
        let mut out = Batch::default();
        for b in batches {
            out.append(b);
        }
        out
    }

    /// Splits a dense batch into batches of at most `chunk` rows (used by
    /// operators that materialize and then re-stream).
    pub fn split(self, chunk: usize) -> Vec<Batch> {
        self.assert_dense();
        let n = self.len();
        if n <= chunk {
            return vec![self];
        }
        let mut out = Vec::with_capacity(n.div_ceil(chunk));
        let mut start = 0;
        while start < n {
            let len = chunk.min(n - start);
            out.push(Batch::new(
                self.columns.iter().map(|c| c.slice(start, len)).collect(),
            ));
            start += len;
        }
        out
    }
}

/// The positions `i < n` for which `keep(i)` holds, ascending. The
/// selection kernel shared by [`Batch::refine`] and the PatchIndex
/// selection: the vector is sized once, every position is written
/// unconditionally and the cursor advances by the predicate, so the loop
/// has no data-dependent branch to mispredict.
pub(crate) fn positions(n: usize, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut out = vec![0; n];
    let mut kept = 0;
    for i in 0..n {
        out[kept] = i;
        kept += usize::from(keep(i));
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
        assert_eq!(batch().head(2).sel(), Some(&[0, 1][..]));
        assert!(batch().head(9).sel().is_none());
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
        // appending therefore uses clones of the same batch.
        let b = batch();
        let mut a = b.clone();
        a.append(&b);
        assert_eq!(a.len(), 8);
        let picked = Batch::selected(b.clone().into_columns(), vec![2]);
        let d = Batch::concat(&[picked.clone(), b.clone(), picked]);
        assert_eq!(d.column(0).as_int(), &[3, 1, 2, 3, 4, 3]);
        let c = Batch::concat(&[b.clone(), b.clone(), b]);
        assert_eq!(c.len(), 12);
    }

    #[test]
    fn append_into_empty() {
        let mut e = Batch::default();
        e.append(&batch());
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn split_into_chunks() {
        let parts = batch().split(3);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[1].column(0).as_int(), &[4]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        Batch::new(vec![ColumnData::Int(vec![1]), ColumnData::Int(vec![1, 2])]);
    }
}
