//! Row filtering and projection.
//!
//! A filter selects: it narrows its input's selection (see
//! [`Batch`]) to the rows passing its predicate and copies no row. A
//! projection materializes its input first, so the columns it computes
//! are dense.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::op::{OpRef, Operator};

/// Keeps rows satisfying a boolean expression, as a selection.
pub struct FilterOp<'a> {
    input: OpRef<'a>,
    pred: Expr,
}

impl<'a> FilterOp<'a> {
    /// Creates a filter over `input`.
    pub fn new(input: OpRef<'a>, pred: Expr) -> Self {
        FilterOp { input, pred }
    }
}

impl Operator for FilterOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        loop {
            let batch = self.input.next()?;
            if batch.is_empty() {
                continue;
            }
            let mask = self.pred.eval_bool(&batch);
            let out = batch.refine(|p| mask[p]);
            if !out.is_empty() {
                return Some(out);
            }
        }
    }
}

/// Computes one output column per expression.
pub struct ProjectOp<'a> {
    input: OpRef<'a>,
    exprs: Vec<Expr>,
}

impl<'a> ProjectOp<'a> {
    /// Creates a projection over `input`.
    pub fn new(input: OpRef<'a>, exprs: Vec<Expr>) -> Self {
        ProjectOp { input, exprs }
    }
}

impl Operator for ProjectOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        let batch = self.input.next()?.materialize();
        Some(Batch::new(
            self.exprs.iter().map(|e| e.eval(&batch)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, BatchSource};
    use pi_storage::ColumnData;

    fn src(vals: &[i64]) -> OpRef<'static> {
        Box::new(BatchSource::single(Batch::new(vec![ColumnData::Int(
            vals.to_vec(),
        )])))
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let mut f = FilterOp::new(src(&[1, 5, 2, 8]), Expr::col(0).gt(Expr::LitInt(2)));
        assert_eq!(collect(&mut f).column(0).as_int(), &[5, 8]);
    }

    #[test]
    fn filter_skips_all_false_batches() {
        let batches = vec![
            Batch::new(vec![ColumnData::Int(vec![1, 2])]),
            Batch::new(vec![ColumnData::Int(vec![10, 20])]),
        ];
        let mut f = FilterOp::new(
            Box::new(BatchSource::new(batches)),
            Expr::col(0).ge(Expr::LitInt(10)),
        );
        let out = collect(&mut f);
        assert_eq!(out.column(0).as_int(), &[10, 20]);
    }

    #[test]
    fn project_computes_expressions() {
        let mut p = ProjectOp::new(
            src(&[1, 2, 3]),
            vec![Expr::col(0).mul(Expr::LitInt(3)), Expr::col(0)],
        );
        let out = collect(&mut p);
        assert_eq!(out.column(0).as_int(), &[3, 6, 9]);
        assert_eq!(out.column(1).as_int(), &[1, 2, 3]);
    }
}
