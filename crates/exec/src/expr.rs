//! Scalar and boolean expressions over batches.
//!
//! Expressions are evaluated column-at-a-time over a batch's
//! [`Batch::span`]: the result has one entry per span row, selected or
//! not, and the batch's `i`-th row is entry `row(i) - span().start` (see
//! [`Batch`]). So evaluation never gathers, and over a window lent from
//! base storage it reads the window, never the whole base column. String
//! literals are resolved to dictionary codes at plan-build time (see
//! `pi_storage::Dictionary`), so predicate evaluation never touches string
//! payloads.

use std::borrow::Cow;
use std::ops::Range;

use pi_storage::{ColumnData, DictRef};

use crate::batch::{copy_rows, Batch};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Compares every pair. The operator is matched once, outside the
    /// loop, so each arm is a plain vectorizable comparison.
    fn mask<T: PartialOrd>(self, pairs: impl Iterator<Item = (T, T)>) -> Vec<bool> {
        match self {
            CmpOp::Eq => pairs.map(|(a, b)| a == b).collect(),
            CmpOp::Ne => pairs.map(|(a, b)| a != b).collect(),
            CmpOp::Lt => pairs.map(|(a, b)| a < b).collect(),
            CmpOp::Le => pairs.map(|(a, b)| a <= b).collect(),
            CmpOp::Gt => pairs.map(|(a, b)| a > b).collect(),
            CmpOp::Ge => pairs.map(|(a, b)| a >= b).collect(),
        }
    }

    /// The operator with its operands swapped: `a op b == b op.flipped() a`.
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            eq_or_ne => eq_or_ne,
        }
    }
}

/// Arithmetic operators (evaluate to `Float` unless both sides are `Int`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always float).
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Integer literal (also dates).
    LitInt(i64),
    /// Float literal.
    LitFloat(f64),
    /// Pre-encoded string literal: a dictionary code. Comparisons against
    /// string columns use code equality (only `Eq`/`Ne`/`In` are meaningful).
    LitCode(u32),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `col BETWEEN lo AND hi` over an integer-backed column (fast path).
    Between(Box<Expr>, i64, i64),
    /// Membership of an integer-backed / code column in a literal set.
    InInts(Box<Expr>, Vec<i64>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Calendar year of a date column (days since the epoch) — TPC-H Q7's
    /// `extract(year from l_shipdate)`.
    Year(Box<Expr>),
}

impl Expr {
    /// `Expr::Col` helper.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// A string literal as `LitCode`, resolved against a dictionary (see
    /// [`str_code`]).
    pub fn lit_str(dict: &DictRef, s: &str) -> Expr {
        Expr::LitCode(str_code(dict, s))
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }

    /// Evaluates to a boolean mask over the batch's span (one entry per
    /// span row, selected or not).
    pub fn eval_bool(&self, batch: &Batch) -> Vec<bool> {
        match self {
            Expr::Cmp(op, lhs, rhs) => match (lhs.literal(), rhs.literal()) {
                // Column against literal: compare on the borrowed slice,
                // no literal vector.
                (None, Some(lit)) => cmp_literal(*op, lhs.operand(batch).vals(), lit),
                (Some(lit), None) => cmp_literal(op.flipped(), rhs.operand(batch).vals(), lit),
                _ => cmp_columns(*op, lhs.operand(batch).vals(), rhs.operand(batch).vals()),
            },
            Expr::Between(inner, lo, hi) => {
                let v = inner.operand(batch);
                let xs = v.vals().ints();
                xs.iter().map(|x| (lo <= x) & (x <= hi)).collect()
            }
            Expr::InInts(inner, set) => match inner.operand(batch).vals() {
                Vals::Int(xs) => in_set(xs, set),
                Vals::Str(codes, _) => in_set(codes, set),
                Vals::Float(_) => panic!("InInts over a Float column"),
            },
            Expr::And(l, r) => {
                let mut a = l.eval_bool(batch);
                let b = r.eval_bool(batch);
                a.iter_mut().zip(b).for_each(|(x, y)| *x &= y);
                a
            }
            Expr::Or(l, r) => {
                let mut a = l.eval_bool(batch);
                let b = r.eval_bool(batch);
                a.iter_mut().zip(b).for_each(|(x, y)| *x |= y);
                a
            }
            Expr::Not(inner) => {
                let mut a = inner.eval_bool(batch);
                a.iter_mut().for_each(|x| *x = !*x);
                a
            }
            other => panic!("{other:?} is not a boolean expression"),
        }
    }

    /// Evaluates to a column over the batch's span (one entry per span
    /// row, selected or not).
    pub fn eval(&self, batch: &Batch) -> ColumnData {
        let span = batch.span();
        let n = span.len();
        match self {
            Expr::Col(i) => copy_rows(batch.raw_column(*i), &span),
            Expr::LitInt(v) => ColumnData::Int(vec![*v; n]),
            Expr::LitFloat(v) => ColumnData::Float(vec![*v; n]),
            Expr::LitCode(c) => ColumnData::Int(vec![*c as i64; n]),
            Expr::Arith(op, lhs, rhs) => {
                arith_columns(*op, lhs.operand(batch).vals(), rhs.operand(batch).vals(), n)
            }
            Expr::Year(inner) => {
                let days = inner.operand(batch);
                let years = days.vals().ints().iter();
                ColumnData::Int(years.map(|&d| pi_storage::date_parts(d).0 as i64).collect())
            }
            boolean => ColumnData::Int(
                boolean
                    .eval_bool(batch)
                    .into_iter()
                    .map(i64::from)
                    .collect(),
            ),
        }
    }

    /// [`Expr::eval`] that borrows the batch's backing column when the
    /// expression is a plain column reference.
    pub(crate) fn operand<'a>(&self, batch: &'a Batch) -> Operand<'a> {
        let span = batch.span();
        let (col, offset) = match self {
            Expr::Col(i) => (Cow::Borrowed(batch.raw_column(*i)), 0),
            other => (Cow::Owned(other.eval(batch)), span.start),
        };
        Operand { col, offset, span }
    }

    /// The value of a literal expression.
    fn literal(&self) -> Option<Literal> {
        match self {
            Expr::LitInt(v) => Some(Literal::Int(*v)),
            Expr::LitCode(c) => Some(Literal::Int(*c as i64)),
            Expr::LitFloat(v) => Some(Literal::Float(*v)),
            _ => None,
        }
    }
}

/// The dictionary code of `s`, looked up under a read lock, so a read
/// never grows a table's dictionary. A string the dictionary has not seen
/// resolves to a code no row carries.
pub fn str_code(dict: &DictRef, s: &str) -> u32 {
    dict.read().lookup(s).unwrap_or(u32::MAX)
}

/// An evaluated expression over a batch: backing row `p` is
/// `col[p - offset]`. A column reference borrows the backing (offset 0);
/// anything else is computed over the batch's span.
pub(crate) struct Operand<'a> {
    pub(crate) col: Cow<'a, ColumnData>,
    pub(crate) offset: usize,
    span: Range<usize>,
}

impl Operand<'_> {
    /// The values over the batch's span.
    fn vals(&self) -> Vals<'_> {
        let rows = self.span.start - self.offset..self.span.end - self.offset;
        match &*self.col {
            ColumnData::Int(v) => Vals::Int(&v[rows]),
            ColumnData::Float(v) => Vals::Float(&v[rows]),
            ColumnData::Str { codes, dict } => Vals::Str(&codes[rows], dict),
        }
    }
}

/// The typed values of a column over a batch's span: what the kernels
/// below compute on.
#[derive(Clone, Copy)]
enum Vals<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [u32], &'a DictRef),
}

impl<'a> Vals<'a> {
    fn ints(self) -> &'a [i64] {
        match self {
            Vals::Int(v) => v,
            _ => panic!("expected an Int column"),
        }
    }
}

#[derive(Clone, Copy)]
enum Literal {
    Int(i64),
    Float(f64),
}

fn assert_code_comparison(op: CmpOp) {
    // String columns compare by code against encoded literals: only
    // equality is meaningful (codes are assigned in first-seen order).
    assert!(
        matches!(op, CmpOp::Eq | CmpOp::Ne),
        "only Eq/Ne on string codes"
    );
}

/// `col op lit`, row by row.
fn cmp_literal(op: CmpOp, col: Vals, lit: Literal) -> Vec<bool> {
    match (col, lit) {
        (Vals::Int(x), Literal::Int(v)) => op.mask(x.iter().map(|&p| (p, v))),
        (Vals::Float(x), Literal::Float(v)) => op.mask(x.iter().map(|&p| (p, v))),
        (Vals::Int(x), Literal::Float(v)) => op.mask(x.iter().map(|&p| (p as f64, v))),
        (Vals::Float(x), Literal::Int(v)) => op.mask(x.iter().map(|&p| (p, v as f64))),
        (Vals::Str(codes, _), Literal::Int(v)) => {
            assert_code_comparison(op);
            op.mask(codes.iter().map(|&c| (c as i64, v)))
        }
        (Vals::Str(..), Literal::Float(_)) => panic!("cannot compare a Str column with Float"),
    }
}

/// Membership of every value in a (small) literal set: one equality pass
/// per set member, ORed together, instead of a search per row.
fn in_set<T: Copy + Into<i64>>(xs: &[T], set: &[i64]) -> Vec<bool> {
    let mut mask = vec![false; xs.len()];
    for &member in set {
        for (m, &x) in mask.iter_mut().zip(xs) {
            *m |= x.into() == member;
        }
    }
    mask
}

fn cmp_columns(op: CmpOp, a: Vals, b: Vals) -> Vec<bool> {
    match (a, b) {
        (Vals::Int(x), Vals::Int(y)) => op.mask(x.iter().zip(y)),
        (Vals::Float(x), Vals::Float(y)) => op.mask(x.iter().zip(y)),
        (Vals::Int(x), Vals::Float(y)) => op.mask(x.iter().zip(y).map(|(&p, &q)| (p as f64, q))),
        (Vals::Float(x), Vals::Int(y)) => op.mask(x.iter().zip(y).map(|(&p, &q)| (p, q as f64))),
        (Vals::Str(codes, _), Vals::Int(y)) => {
            assert_code_comparison(op);
            op.mask(codes.iter().zip(y).map(|(&c, &q)| (c as i64, q)))
        }
        (Vals::Int(x), Vals::Str(codes, _)) => {
            assert_code_comparison(op);
            op.mask(x.iter().zip(codes).map(|(&p, &c)| (p, c as i64)))
        }
        (Vals::Str(x, dx), Vals::Str(y, dy)) => {
            assert!(
                std::sync::Arc::ptr_eq(dx, dy),
                "string comparison across dictionaries"
            );
            assert_code_comparison(op);
            op.mask(x.iter().zip(y))
        }
        (Vals::Str(..), Vals::Float(_)) | (Vals::Float(_), Vals::Str(..)) => {
            panic!("cannot compare a Str column with a Float one")
        }
    }
}

/// `a op b` over `n` rows.
fn arith_columns(op: ArithOp, a: Vals, b: Vals, n: usize) -> ColumnData {
    let as_f = |c: Vals, i: usize| -> f64 {
        match c {
            Vals::Int(v) => v[i] as f64,
            Vals::Float(v) => v[i],
            Vals::Str(..) => panic!("arithmetic over a Str column"),
        }
    };
    if let (Vals::Int(x), Vals::Int(y), false) = (a, b, op == ArithOp::Div) {
        let f = |i: usize| match op {
            ArithOp::Add => x[i] + y[i],
            ArithOp::Sub => x[i] - y[i],
            ArithOp::Mul => x[i] * y[i],
            ArithOp::Div => unreachable!(),
        };
        ColumnData::Int((0..n).map(f).collect())
    } else {
        let f = |i: usize| {
            let (p, q) = (as_f(a, i), as_f(b, i));
            match op {
                ArithOp::Add => p + q,
                ArithOp::Sub => p - q,
                ArithOp::Mul => p * q,
                ArithOp::Div => p / q,
            }
        };
        ColumnData::Float((0..n).map(f).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_storage::str_column;

    fn batch() -> Batch {
        Batch::new(vec![
            ColumnData::Int(vec![1, 2, 3, 4, 5]),
            ColumnData::Float(vec![0.5, 1.5, 2.5, 3.5, 4.5]),
            str_column(&["a", "b", "a", "c", "b"]),
        ])
    }

    #[test]
    fn int_comparisons() {
        let b = batch();
        assert_eq!(
            Expr::col(0).gt(Expr::LitInt(3)).eval_bool(&b),
            vec![false, false, false, true, true]
        );
        assert_eq!(
            Expr::col(0).le(Expr::LitInt(1)).eval_bool(&b),
            vec![true, false, false, false, false]
        );
    }

    #[test]
    fn between_and_in() {
        let b = batch();
        assert_eq!(
            Expr::Between(Box::new(Expr::col(0)), 2, 4).eval_bool(&b),
            vec![false, true, true, true, false]
        );
        assert_eq!(
            Expr::InInts(Box::new(Expr::col(0)), vec![1, 5]).eval_bool(&b),
            vec![true, false, false, false, true]
        );
    }

    #[test]
    fn string_code_equality() {
        let b = batch();
        let dict = b.column(2).dict().clone();
        let pred = Expr::col(2).eq(Expr::lit_str(&dict, "a"));
        assert_eq!(pred.eval_bool(&b), vec![true, false, true, false, false]);
        // Unknown literal matches nothing, and resolving it is a read.
        let len = dict.read().len();
        let none = Expr::col(2).eq(Expr::lit_str(&dict, "zzz"));
        assert_eq!(none.eval_bool(&b), vec![false; 5]);
        assert_eq!(dict.read().len(), len);
    }

    #[test]
    fn boolean_combinators() {
        let b = batch();
        let p = Expr::col(0)
            .gt(Expr::LitInt(1))
            .and(Expr::col(0).lt(Expr::LitInt(5)))
            .or(Expr::col(0).eq(Expr::LitInt(1)));
        assert_eq!(p.eval_bool(&b), vec![true, true, true, true, false]);
        let n = Expr::Not(Box::new(Expr::col(0).eq(Expr::LitInt(3))));
        assert_eq!(n.eval_bool(&b), vec![true, true, false, true, true]);
    }

    #[test]
    fn arithmetic_types() {
        let b = batch();
        let int_expr = Expr::col(0).mul(Expr::LitInt(2));
        assert_eq!(int_expr.eval(&b).as_int(), &[2, 4, 6, 8, 10]);
        // Q3/Q7-style revenue: price * (1 - discount).
        let rev = Expr::col(1).mul(Expr::LitFloat(1.0).sub(Expr::LitFloat(0.5)));
        let out = rev.eval(&b);
        assert_eq!(out.as_float()[1], 0.75);
    }

    #[test]
    fn mixed_int_float_compare() {
        let b = batch();
        let p = Expr::col(1).lt(Expr::LitInt(2));
        assert_eq!(p.eval_bool(&b), vec![true, true, false, false, false]);
    }

    #[test]
    fn bool_as_int_column() {
        let b = batch();
        let c = Expr::col(0).gt(Expr::LitInt(3)).eval(&b);
        assert_eq!(c.as_int(), &[0, 0, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "not a boolean expression")]
    fn non_boolean_eval_bool_panics() {
        Expr::col(0).eval_bool(&batch());
    }

    #[test]
    fn year_extraction() {
        let b = Batch::new(vec![ColumnData::Int(vec![
            pi_storage::date(1995, 3, 15),
            pi_storage::date(1998, 12, 31),
        ])]);
        let y = Expr::Year(Box::new(Expr::col(0))).eval(&b);
        assert_eq!(y.as_int(), &[1995, 1998]);
    }
}
