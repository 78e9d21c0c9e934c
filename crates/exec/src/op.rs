//! The pull-based operator interface.
//!
//! Physical plans are trees of boxed [`Operator`]s borrowing the table
//! snapshot they scan (`'a`). A query executes by repeatedly pulling
//! batches from the root. Helpers materialize an operator's full output.
//!
//! A batch is dense, a window or a selection (see [`Batch`]). Who handles
//! which how:
//!
//! * **lend a window:** `ScanOp` (the base columns themselves, over base
//!   rows with no delete or patch among them), and [`Batch::split`] in
//!   `SortOp`, `HashAggOp` and `HashJoinOp` (windows of one buffer);
//! * **select:** `PatchSelectOp`'s excluding flow (its exceptions flow
//!   gathers) and `FilterOp`;
//! * **gather only what joins:** `PatchMergeJoinOp` reads the scanned
//!   window's predicate and patch mask as words and copies the rows that
//!   found a partner, and nothing else;
//! * **read through:** `JoinTable::probe` / `pairs` and so
//!   `HashJoinOp`'s probe, `HashAggOp` (group and update loops),
//!   `OrderedMergeOp` (windows; it gathers a selection) and
//!   `SplitMergeOp` (it cuts windows and gathers a selection's rows in
//!   the range task that merges them), `LimitOp`
//!   (shrinks the window or selection), `UnionAllOp` and `MeterOp` (pass
//!   it on), [`count_rows`], and expression evaluation, which covers the
//!   batch's span;
//! * **materialize at entry** — the pipeline breakers and the result
//!   boundary: `SortOp`, `ProjectOp`, [`collect`] / [`Batch::concat`],
//!   `JoinTable::build`/`from_batch` and so the result cache, which
//!   stores collected results. Materializing copies a window or selection
//!   and is free on a dense batch.

use crate::batch::Batch;

/// A vector-at-a-time physical operator.
pub trait Operator {
    /// Produces the next batch, or `None` when exhausted. Returned batches
    /// may be empty only if the operator chooses to yield; callers should
    /// use [`drain`]/[`collect`] which skip empties.
    fn next(&mut self) -> Option<Batch>;
}

/// A boxed operator borrowing data for `'a`.
pub type OpRef<'a> = Box<dyn Operator + 'a>;

/// Pulls all batches (dropping empties).
pub fn drain(op: &mut dyn Operator) -> Vec<Batch> {
    let mut out = Vec::new();
    while let Some(b) = op.next() {
        if !b.is_empty() {
            out.push(b);
        }
    }
    out
}

/// Pulls all batches and concatenates them into one dense batch.
pub fn collect(op: &mut dyn Operator) -> Batch {
    Batch::concat(&drain(op))
}

/// Counts output rows without materializing more than a batch at a time.
pub fn count_rows(op: &mut dyn Operator) -> usize {
    let mut n = 0;
    while let Some(b) = op.next() {
        n += b.len();
    }
    n
}

/// An operator yielding a fixed set of batches (tests, cached results).
pub struct BatchSource {
    batches: std::vec::IntoIter<Batch>,
}

impl BatchSource {
    /// Creates a source over pre-built batches.
    pub fn new(batches: Vec<Batch>) -> Self {
        BatchSource {
            batches: batches.into_iter(),
        }
    }

    /// Creates a source over a single batch.
    pub fn single(batch: Batch) -> Self {
        Self::new(vec![batch])
    }
}

impl Operator for BatchSource {
    fn next(&mut self) -> Option<Batch> {
        self.batches.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_storage::ColumnData;

    fn b(vals: &[i64]) -> Batch {
        Batch::new(vec![ColumnData::Int(vals.to_vec())])
    }

    #[test]
    fn drain_skips_empty_batches() {
        let mut src = BatchSource::new(vec![b(&[1]), b(&[]), b(&[2, 3])]);
        let out = drain(&mut src);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn collect_concatenates() {
        let mut src = BatchSource::new(vec![b(&[1]), b(&[2, 3])]);
        assert_eq!(collect(&mut src).column(0).as_int(), &[1, 2, 3]);
    }

    #[test]
    fn count_rows_sums() {
        let mut src = BatchSource::new(vec![b(&[1]), b(&[2, 3])]);
        assert_eq!(count_rows(&mut src), 3);
    }
}
