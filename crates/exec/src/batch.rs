//! Row batches flowing between operators.
//!
//! Execution is vector-at-a-time in the X100 style: operators exchange
//! [`Batch`]es of up to [`BATCH_SIZE`] rows, each a set of equally long
//! [`ColumnData`] vectors. RowIDs, when an operator needs them (PatchIndex
//! selections, rowID projections in the maintenance queries), travel as an
//! ordinary `Int` column appended by the scan.

use pi_storage::ColumnData;

/// Preferred number of rows per batch.
pub const BATCH_SIZE: usize = 4096;

/// A horizontal slice of intermediate results.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    columns: Vec<ColumnData>,
}

impl Batch {
    /// Creates a batch from columns (must be equally long).
    pub fn new(columns: Vec<ColumnData>) -> Self {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "ragged batch columns"
            );
        }
        Batch { columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
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

    /// All columns.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// Consumes the batch into its columns.
    pub fn into_columns(self) -> Vec<ColumnData> {
        self.columns
    }

    /// Heap bytes of all column vectors (shared dictionaries excluded).
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(ColumnData::heap_bytes).sum()
    }

    /// Keeps only the rows at `indices` (in that order).
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
        }
    }

    /// Keeps only the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        let indices = positions(mask.len(), |i| mask[i]);
        if indices.len() == self.len() {
            return self.clone();
        }
        self.gather(&indices)
    }

    /// Keeps only the given columns, in the given order.
    pub fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
        }
    }

    /// Appends the rows of `other` (same shape).
    pub fn append(&mut self, other: &Batch) {
        if self.columns.is_empty() {
            self.columns = other.columns.clone();
            return;
        }
        assert_eq!(self.width(), other.width(), "batch width mismatch");
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend_from(b);
        }
    }

    /// Concatenates many batches into one (empty input gives empty batch).
    pub fn concat(batches: &[Batch]) -> Batch {
        let mut out = Batch::default();
        for b in batches {
            out.append(b);
        }
        out
    }

    /// Splits into batches of at most `chunk` rows (used by operators that
    /// materialize and then re-stream).
    pub fn split(self, chunk: usize) -> Vec<Batch> {
        let n = self.len();
        if n <= chunk {
            return vec![self];
        }
        let mut out = Vec::with_capacity(n.div_ceil(chunk));
        let mut start = 0;
        while start < n {
            let len = chunk.min(n - start);
            out.push(Batch {
                columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            });
            start += len;
        }
        out
    }
}

/// The positions `i < n` for which `keep(i)` holds, ascending. The
/// selection kernel shared by [`Batch::filter`] and the PatchIndex
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
    fn filter_by_mask() {
        let b = batch().filter(&[true, false, false, true]);
        assert_eq!(b.column(0).as_int(), &[1, 4]);
        assert_eq!(b.column(1).as_codes(), &[0, 3]);
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
