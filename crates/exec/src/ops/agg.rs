//! Hash aggregation and duplicate elimination.
//!
//! The reference distinct plan of the paper's Figure 2 is a hash
//! aggregation over the value column ([`HashAggOp::distinct`], the only
//! aggregation the planner builds). The grouped TPC-H queries need two
//! aggregate kinds: Q3/Q7 sum revenue ([`AggSpec::sum`]) and Q12 counts
//! the rows passing a predicate ("sum(case when … then 1 else 0)",
//! [`AggSpec::count_if`]).
//!
//! The group and update loops read a window or selection where it lies
//! (see [`Batch`]), and only the groups' keys and aggregates are
//! materialized; the output is handed out as windows of those. A
//! one-column group-by maps the encoded key to its group directly; a
//! multi-column one builds no heap key per row: it hashes the batch's
//! keys column by column and walks a chain of the groups with that hash,
//! comparing their stored keys. Groups are numbered in first-seen order
//! either way, so the output's rows, and a float sum's bits, depend only
//! on the input's row order.

use std::sync::Arc;

use pi_storage::ColumnData;

use crate::batch::{Batch, BATCH_SIZE};
use crate::expr::Expr;
use crate::hash::{fold, int_map, IntMap};
use crate::op::{OpRef, Operator};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the expression (int in → int out, float in → float out).
    Sum,
    /// Row count (expression ignored).
    Count,
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

    /// `SUM(CASE WHEN pred THEN 1 ELSE 0 END)`.
    pub fn count_if(pred: Expr) -> Self {
        AggSpec {
            func: AggFunc::Count,
            expr: Expr::LitInt(0),
            filter: Some(pred),
        }
    }
}

/// Per-group accumulators, int or float as the argument column is.
enum AccVec {
    I(Vec<i64>),
    F(Vec<f64>),
}

struct AggState {
    func: AggFunc,
    acc: AccVec,
}

impl AggState {
    fn new(func: AggFunc, float: bool) -> Self {
        let acc = if float {
            AccVec::F(Vec::new())
        } else {
            AccVec::I(Vec::new())
        };
        AggState { func, acc }
    }

    /// Pushes a zero per new group, so capacity grows by doubling.
    /// `Vec::resize` reserves the exact length instead, and that
    /// allocation pattern measured +7–11 % peak RSS on `pibench`'s
    /// `tpch_refresh` (2 vCPUs, glibc malloc).
    fn grow_to(&mut self, groups: usize) {
        match &mut self.acc {
            AccVec::I(v) => {
                while v.len() < groups {
                    v.push(0);
                }
            }
            AccVec::F(v) => {
                while v.len() < groups {
                    v.push(0.0);
                }
            }
        }
    }

    fn update(&mut self, group: usize, col: &ColumnData, row: usize) {
        match (&mut self.acc, col) {
            (AccVec::I(acc), ColumnData::Int(v)) => match self.func {
                AggFunc::Sum => acc[group] += v[row],
                AggFunc::Count => acc[group] += 1,
            },
            (AccVec::F(acc), col) => {
                let x = match col {
                    ColumnData::Int(v) => v[row] as f64,
                    ColumnData::Float(v) => v[row],
                    other => panic!("cannot aggregate {:?}", other.data_type()),
                };
                match self.func {
                    AggFunc::Sum => acc[group] += x,
                    AggFunc::Count => acc[group] += 1.0,
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
            AccVec::F(v) => ColumnData::Float(v),
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

    /// Group `g`'s key, encoded as [`encode_key`] encodes a row's.
    #[inline]
    fn encoded(&self, g: usize) -> u64 {
        match self {
            KeyStore::Int(v) => v[g] as u64,
            KeyStore::Str { codes, .. } => codes[g] as u64,
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

/// Ends a hash's chain in [`GroupChains`]' `next`.
const CHAIN_END: u32 = u32::MAX;

/// The groups of a multi-column group-by, found with no heap key per row
/// (the flat pattern of [`JoinTable`](crate::ops::hash_join::JoinTable)):
/// `heads` maps a hash of a row's encoded keys to the newest group with
/// that hash, `next` chains each group to the next older one with it,
/// and a row's group is the one on its chain whose stored keys equal the
/// row's. Group ids are dense and count up in first-seen order.
#[derive(Default)]
struct GroupChains {
    heads: IntMap<u32>,
    next: Vec<u32>,
    /// The batch's key hashes, one per row, reused across batches.
    hashes: Vec<u64>,
}

impl GroupChains {
    /// Pushes the group id of each of `batch`'s rows onto `gids`, adding
    /// each new group's keys to `keys`.
    fn assign(
        &mut self,
        batch: &Batch,
        group_by: &[usize],
        keys: &mut [KeyStore],
        gids: &mut Vec<u32>,
    ) {
        // Column by column: one type dispatch per column, not per value.
        self.hashes.clear();
        self.hashes.resize(batch.len(), 0);
        for &c in group_by {
            match batch.raw_column(c) {
                ColumnData::Int(v) => fold_in(&mut self.hashes, batch, |r| v[r] as u64),
                ColumnData::Str { codes, .. } => {
                    fold_in(&mut self.hashes, batch, |r| codes[r] as u64)
                }
                other => panic!("cannot group by {:?}", other.data_type()),
            }
        }
        let cols: Vec<&ColumnData> = group_by.iter().map(|&c| batch.raw_column(c)).collect();
        for (i, &h) in self.hashes.iter().enumerate() {
            let row = batch.row(i);
            let head = self.heads.entry(h as i64).or_insert(CHAIN_END);
            let mut g = *head;
            while g != CHAIN_END && !same_keys(keys, g as usize, &cols, row) {
                g = self.next[g as usize];
            }
            if g == CHAIN_END {
                g = self.next.len() as u32;
                self.next.push(*head);
                *head = g;
                for (ks, col) in keys.iter_mut().zip(&cols) {
                    ks.push(col, row);
                }
            }
            gids.push(g);
        }
    }
}

/// Folds `key(row)` of each of `batch`'s rows into its hash.
#[inline]
fn fold_in(hashes: &mut [u64], batch: &Batch, key: impl Fn(usize) -> u64) {
    match batch.sel() {
        Some(sel) => {
            for (h, &r) in hashes.iter_mut().zip(sel) {
                *h = fold(*h, key(r));
            }
        }
        None => {
            for (h, r) in hashes.iter_mut().zip(batch.span()) {
                *h = fold(*h, key(r));
            }
        }
    }
}

/// Whether group `g`'s stored keys equal row `row`'s keys in `cols`.
#[inline]
fn same_keys(keys: &[KeyStore], g: usize, cols: &[&ColumnData], row: usize) -> bool {
    keys.iter()
        .zip(cols)
        .all(|(ks, col)| ks.encoded(g) == encode_key(col, row))
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
        let mut multi = GroupChains::default();
        let mut keys: Option<Vec<KeyStore>> = None;
        let mut aggs: Vec<Option<AggState>> = (0..self.specs.len()).map(|_| None).collect();
        let single_key = self.group_by.len() == 1;
        let mut gids: Vec<u32> = Vec::new();

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
            gids.clear();
            if single_key {
                let col = batch.raw_column(self.group_by[0]);
                let mut ngroups = single.len() as u32;
                for i in 0..batch.len() {
                    let row = batch.row(i);
                    let gid = *single
                        .entry(encode_key(col, row) as i64)
                        .or_insert_with(|| {
                            let id = ngroups;
                            ngroups += 1;
                            keys[0].push(col, row);
                            id
                        });
                    gids.push(gid);
                }
            } else {
                multi.assign(&batch, &self.group_by, keys, &mut gids);
            }
            let ngroups = if single_key {
                single.len()
            } else {
                multi.next.len()
            };
            // Aggregate updates. The argument is read at `row - offset`,
            // the filter mask over the span.
            let span_start = batch.span().start;
            for (si, spec) in self.specs.iter().enumerate() {
                let arg = spec.expr.operand(&batch);
                let mask = spec.filter.as_ref().map(|f| f.eval_bool(&batch));
                let state = aggs[si].get_or_insert_with(|| {
                    AggState::new(spec.func, matches!(*arg.col, ColumnData::Float(_)))
                });
                state.grow_to(ngroups);
                for (i, &gid) in gids.iter().enumerate() {
                    let row = batch.row(i);
                    if mask.as_ref().is_some_and(|m| !m[row - span_start]) {
                        continue;
                    }
                    state.update(gid as usize, &arg.col, row - arg.offset);
                }
            }
            // Grow all aggregate states even if a batch contributed no rows
            // to some groups.
            for state in aggs.iter_mut().flatten() {
                state.grow_to(ngroups);
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
            vec![AggSpec::sum(Expr::col(1)), AggSpec::sum(Expr::col(2))],
        );
        let out = collect(&mut a);
        assert_eq!(out.column(0).as_int(), &[1, 2]);
        assert_eq!(out.column(1).as_int(), &[90, 60]);
        assert_eq!(out.column(2).as_float(), &[9.0, 6.0]);
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
