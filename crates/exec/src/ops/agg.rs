//! Hash aggregation and duplicate elimination.
//!
//! The reference distinct plan of the paper's Figure 2 is a hash
//! aggregation over the value column; grouped TPC-H queries (Q3/Q7/Q12)
//! additionally compute filtered sums ("sum(case when … then 1 else 0)" is
//! an [`AggSpec::filter`]).
//!
//! The group and update loops read their input through its selection
//! (see [`Batch`]): a selected row is hashed and aggregated where it lies,
//! and only the groups' keys and aggregates are materialized.

use std::sync::Arc;

use pi_storage::ColumnData;

use crate::batch::{Batch, BATCH_SIZE};
use crate::expr::Expr;
use crate::hash::{int_map, key_map, IntMap, KeyMap};
use crate::op::{OpRef, Operator};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the expression (int in → int out, float in → float out).
    Sum,
    /// Row count (expression ignored).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean (float out).
    Avg,
}

/// One aggregate column: function, argument and optional row filter.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (ignored by `Count`).
    pub expr: Expr,
    /// Rows failing this predicate are skipped (conditional aggregation).
    pub filter: Option<Expr>,
}

impl AggSpec {
    /// `SUM(expr)`.
    pub fn sum(expr: Expr) -> Self {
        AggSpec {
            func: AggFunc::Sum,
            expr,
            filter: None,
        }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        AggSpec {
            func: AggFunc::Count,
            expr: Expr::LitInt(0),
            filter: None,
        }
    }

    /// `SUM(CASE WHEN pred THEN 1 ELSE 0 END)`.
    pub fn count_if(pred: Expr) -> Self {
        AggSpec {
            func: AggFunc::Count,
            expr: Expr::LitInt(0),
            filter: Some(pred),
        }
    }

    /// `MIN(expr)`.
    pub fn min(expr: Expr) -> Self {
        AggSpec {
            func: AggFunc::Min,
            expr,
            filter: None,
        }
    }

    /// `MAX(expr)`.
    pub fn max(expr: Expr) -> Self {
        AggSpec {
            func: AggFunc::Max,
            expr,
            filter: None,
        }
    }

    /// `AVG(expr)`.
    pub fn avg(expr: Expr) -> Self {
        AggSpec {
            func: AggFunc::Avg,
            expr,
            filter: None,
        }
    }
}

enum AccVec {
    I(Vec<i64>),
    F(Vec<f64>),
}

impl AccVec {
    fn push_identity(&mut self, func: AggFunc) {
        match (self, func) {
            (AccVec::I(v), AggFunc::Min) => v.push(i64::MAX),
            (AccVec::I(v), AggFunc::Max) => v.push(i64::MIN),
            (AccVec::I(v), _) => v.push(0),
            (AccVec::F(v), AggFunc::Min) => v.push(f64::INFINITY),
            (AccVec::F(v), AggFunc::Max) => v.push(f64::NEG_INFINITY),
            (AccVec::F(v), _) => v.push(0.0),
        }
    }
}

struct AggState {
    func: AggFunc,
    acc: AccVec,
    counts: Vec<i64>,
}

impl AggState {
    fn new(func: AggFunc, float: bool) -> Self {
        let acc = if float || func == AggFunc::Avg {
            AccVec::F(Vec::new())
        } else {
            AccVec::I(Vec::new())
        };
        AggState {
            func,
            acc,
            counts: Vec::new(),
        }
    }

    fn grow_to(&mut self, groups: usize) {
        while self.counts.len() < groups {
            self.acc.push_identity(self.func);
            self.counts.push(0);
        }
    }

    fn update(&mut self, group: usize, col: &ColumnData, row: usize) {
        self.counts[group] += 1;
        match (&mut self.acc, col) {
            (AccVec::I(acc), ColumnData::Int(v)) => {
                let x = v[row];
                match self.func {
                    AggFunc::Sum => acc[group] += x,
                    AggFunc::Count => acc[group] += 1,
                    AggFunc::Min => acc[group] = acc[group].min(x),
                    AggFunc::Max => acc[group] = acc[group].max(x),
                    AggFunc::Avg => unreachable!("avg accumulates in floats"),
                }
            }
            (AccVec::F(acc), col) => {
                let x = match col {
                    ColumnData::Int(v) => v[row] as f64,
                    ColumnData::Float(v) => v[row],
                    other => panic!("cannot aggregate {:?}", other.data_type()),
                };
                match self.func {
                    AggFunc::Sum | AggFunc::Avg => acc[group] += x,
                    AggFunc::Count => acc[group] += 1.0,
                    AggFunc::Min => acc[group] = acc[group].min(x),
                    AggFunc::Max => acc[group] = acc[group].max(x),
                }
            }
            (AccVec::I(acc), _) => {
                // Count ignores its argument type entirely.
                assert_eq!(
                    self.func,
                    AggFunc::Count,
                    "int accumulator over non-int input"
                );
                acc[group] += 1;
            }
        }
    }

    fn finish(self) -> ColumnData {
        match self.acc {
            AccVec::I(v) => ColumnData::Int(v),
            AccVec::F(v) => {
                if self.func == AggFunc::Avg {
                    ColumnData::Float(
                        v.iter()
                            .zip(&self.counts)
                            .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
                            .collect(),
                    )
                } else {
                    ColumnData::Float(v)
                }
            }
        }
    }
}

/// Per-group key storage for output reconstruction.
enum KeyStore {
    Int(Vec<i64>),
    Str {
        codes: Vec<u32>,
        dict: pi_storage::DictRef,
    },
}

impl KeyStore {
    fn from_col(col: &ColumnData) -> Self {
        match col {
            ColumnData::Int(_) => KeyStore::Int(Vec::new()),
            ColumnData::Str { dict, .. } => KeyStore::Str {
                codes: Vec::new(),
                dict: Arc::clone(dict),
            },
            other => panic!("cannot group by {:?}", other.data_type()),
        }
    }

    fn push(&mut self, col: &ColumnData, row: usize) {
        match (self, col) {
            (KeyStore::Int(v), ColumnData::Int(c)) => v.push(c[row]),
            (KeyStore::Str { codes, .. }, ColumnData::Str { codes: c, .. }) => codes.push(c[row]),
            _ => panic!("group key type changed between batches"),
        }
    }

    fn finish(self) -> ColumnData {
        match self {
            KeyStore::Int(v) => ColumnData::Int(v),
            KeyStore::Str { codes, dict } => ColumnData::Str { codes, dict },
        }
    }
}

#[inline]
fn encode_key(col: &ColumnData, row: usize) -> u64 {
    match col {
        ColumnData::Int(v) => v[row] as u64,
        ColumnData::Str { codes, .. } => codes[row] as u64,
        other => panic!("cannot group by {:?}", other.data_type()),
    }
}

/// Hash aggregation; output columns are `[group keys..., aggregates...]`.
/// With no aggregates this is duplicate elimination (DISTINCT).
pub struct HashAggOp<'a> {
    input: Option<OpRef<'a>>,
    group_by: Vec<usize>,
    specs: Vec<AggSpec>,
    output: Vec<Batch>,
}

impl<'a> HashAggOp<'a> {
    /// Creates a grouped aggregation.
    pub fn new(input: OpRef<'a>, group_by: Vec<usize>, specs: Vec<AggSpec>) -> Self {
        HashAggOp {
            input: Some(input),
            group_by,
            specs,
            output: Vec::new(),
        }
    }

    /// DISTINCT over the given columns.
    pub fn distinct(input: OpRef<'a>, cols: Vec<usize>) -> Self {
        Self::new(input, cols, Vec::new())
    }

    fn run(&mut self) {
        let Some(mut input) = self.input.take() else {
            return;
        };
        let mut single: IntMap<u32> = int_map();
        let mut multi: KeyMap<u32> = key_map();
        let mut keys: Option<Vec<KeyStore>> = None;
        let mut aggs: Vec<Option<AggState>> = (0..self.specs.len()).map(|_| None).collect();
        let single_key = self.group_by.len() == 1;

        while let Some(batch) = input.next() {
            if batch.is_empty() {
                continue;
            }
            let keys = keys.get_or_insert_with(|| {
                self.group_by
                    .iter()
                    .map(|&c| KeyStore::from_col(batch.raw_column(c)))
                    .collect()
            });
            // Group ids per row.
            let mut gids: Vec<u32> = Vec::with_capacity(batch.len());
            let mut ngroups = if single_key {
                single.len()
            } else {
                multi.len()
            } as u32;
            for i in 0..batch.len() {
                let row = batch.row(i);
                let gid = if single_key {
                    let k = encode_key(batch.raw_column(self.group_by[0]), row) as i64;
                    *single.entry(k).or_insert_with(|| {
                        let id = ngroups;
                        ngroups += 1;
                        for (ks, &c) in keys.iter_mut().zip(&self.group_by) {
                            ks.push(batch.raw_column(c), row);
                        }
                        id
                    })
                } else {
                    let k: Vec<u64> = self
                        .group_by
                        .iter()
                        .map(|&c| encode_key(batch.raw_column(c), row))
                        .collect();
                    *multi.entry(k).or_insert_with(|| {
                        let id = ngroups;
                        ngroups += 1;
                        for (ks, &c) in keys.iter_mut().zip(&self.group_by) {
                            ks.push(batch.raw_column(c), row);
                        }
                        id
                    })
                };
                gids.push(gid);
            }
            // Aggregate updates.
            for (si, spec) in self.specs.iter().enumerate() {
                let col = spec.expr.eval(&batch);
                let mask = spec.filter.as_ref().map(|f| f.eval_bool(&batch));
                let state = aggs[si].get_or_insert_with(|| {
                    AggState::new(spec.func, matches!(col, ColumnData::Float(_)))
                });
                state.grow_to(ngroups as usize);
                for (i, &gid) in gids.iter().enumerate() {
                    let row = batch.row(i);
                    if mask.as_ref().is_some_and(|m| !m[row]) {
                        continue;
                    }
                    state.update(gid as usize, &col, row);
                }
            }
            // Grow all aggregate states even if a batch contributed no rows
            // to some groups.
            for state in aggs.iter_mut().flatten() {
                state.grow_to(ngroups as usize);
            }
        }

        let Some(keys) = keys else { return };
        let mut cols: Vec<ColumnData> = keys.into_iter().map(KeyStore::finish).collect();
        for state in aggs.into_iter().flatten() {
            cols.push(state.finish());
        }
        let mut parts = Batch::new(cols).split(BATCH_SIZE);
        parts.reverse();
        self.output = parts;
    }
}

impl Operator for HashAggOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        if self.input.is_some() {
            self.run();
        }
        self.output.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, BatchSource};
    use pi_storage::str_column;

    fn src(cols: Vec<ColumnData>) -> OpRef<'static> {
        Box::new(BatchSource::single(Batch::new(cols)))
    }

    #[test]
    fn distinct_deduplicates() {
        let mut d = HashAggOp::distinct(src(vec![ColumnData::Int(vec![3, 1, 3, 2, 1])]), vec![0]);
        let out = collect(&mut d);
        // First-seen order.
        assert_eq!(out.column(0).as_int(), &[3, 1, 2]);
    }

    #[test]
    fn grouped_sums_int_and_float() {
        let mut a = HashAggOp::new(
            src(vec![
                ColumnData::Int(vec![1, 2, 1, 2, 1]),
                ColumnData::Int(vec![10, 20, 30, 40, 50]),
                ColumnData::Float(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            ]),
            vec![0],
            vec![
                AggSpec::sum(Expr::col(1)),
                AggSpec::sum(Expr::col(2)),
                AggSpec::count(),
            ],
        );
        let out = collect(&mut a);
        assert_eq!(out.column(0).as_int(), &[1, 2]);
        assert_eq!(out.column(1).as_int(), &[90, 60]);
        assert_eq!(out.column(2).as_float(), &[9.0, 6.0]);
        assert_eq!(out.column(3).as_int(), &[3, 2]);
    }

    #[test]
    fn filtered_aggregates() {
        // Q12-style: count urgent-ish rows per group.
        let mut a = HashAggOp::new(
            src(vec![
                ColumnData::Int(vec![1, 1, 2, 2]),
                ColumnData::Int(vec![5, 15, 25, 5]),
            ]),
            vec![0],
            vec![
                AggSpec::count_if(Expr::col(1).gt(Expr::LitInt(10))),
                AggSpec::count_if(Expr::Not(Box::new(Expr::col(1).gt(Expr::LitInt(10))))),
            ],
        );
        let out = collect(&mut a);
        assert_eq!(out.column(1).as_int(), &[1, 1]);
        assert_eq!(out.column(2).as_int(), &[1, 1]);
    }

    #[test]
    fn min_max_avg() {
        let mut a = HashAggOp::new(
            src(vec![
                ColumnData::Int(vec![1, 1, 1]),
                ColumnData::Int(vec![5, -2, 9]),
            ]),
            vec![0],
            vec![
                AggSpec::min(Expr::col(1)),
                AggSpec::max(Expr::col(1)),
                AggSpec::avg(Expr::col(1)),
            ],
        );
        let out = collect(&mut a);
        assert_eq!(out.column(1).as_int(), &[-2]);
        assert_eq!(out.column(2).as_int(), &[9]);
        assert_eq!(out.column(3).as_float(), &[4.0]);
    }

    #[test]
    fn multi_column_groups_with_strings() {
        let mut a = HashAggOp::new(
            src(vec![
                str_column(&["x", "y", "x", "x"]),
                ColumnData::Int(vec![1, 1, 2, 1]),
                ColumnData::Int(vec![10, 20, 30, 40]),
            ]),
            vec![0, 1],
            vec![AggSpec::sum(Expr::col(2))],
        );
        let out = collect(&mut a);
        assert_eq!(out.len(), 3);
        // Groups in first-seen order: (x,1), (y,1), (x,2).
        assert_eq!(out.column(2).as_int(), &[50, 20, 30]);
        assert_eq!(out.column(0).value(1), pi_storage::Value::from("y"));
    }

    #[test]
    fn aggregation_across_batches() {
        let batches = vec![
            Batch::new(vec![
                ColumnData::Int(vec![1, 2]),
                ColumnData::Int(vec![1, 1]),
            ]),
            Batch::new(vec![
                ColumnData::Int(vec![2, 3]),
                ColumnData::Int(vec![1, 1]),
            ]),
        ];
        let mut a = HashAggOp::new(
            Box::new(BatchSource::new(batches)),
            vec![0],
            vec![AggSpec::sum(Expr::col(1))],
        );
        let out = collect(&mut a);
        assert_eq!(out.column(0).as_int(), &[1, 2, 3]);
        assert_eq!(out.column(1).as_int(), &[1, 2, 1]);
    }

    #[test]
    fn empty_input_no_groups() {
        let mut a = HashAggOp::distinct(src(vec![ColumnData::Int(vec![])]), vec![0]);
        assert!(collect(&mut a).is_empty());
    }

    #[test]
    fn many_groups_split_output() {
        let vals: Vec<i64> = (0..10_000).collect();
        let mut d = HashAggOp::distinct(src(vec![ColumnData::Int(vals)]), vec![0]);
        let mut total = 0;
        while let Some(b) = d.next() {
            assert!(b.len() <= BATCH_SIZE);
            total += b.len();
        }
        assert_eq!(total, 10_000);
    }
}
