//! Scalar and boolean expressions over batches.
//!
//! Expressions are evaluated column-at-a-time. String literals are encoded
//! to dictionary codes at plan-build time (see `pi_storage::Dictionary`),
//! so predicate evaluation never touches string payloads.

use std::borrow::Cow;

use pi_storage::{ColumnData, DataType, DictRef};

use crate::batch::Batch;

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

    /// Encodes a string literal against a dictionary, producing `LitCode`.
    /// Unknown strings encode to a fresh code that matches no stored row —
    /// the dictionary is append-only, so this is sound.
    pub fn lit_str(dict: &DictRef, s: &str) -> Expr {
        let code = dict.write().encode(s);
        Expr::LitCode(code)
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

    /// Evaluates to a boolean mask over the batch.
    pub fn eval_bool(&self, batch: &Batch) -> Vec<bool> {
        match self {
            Expr::Cmp(op, lhs, rhs) => match (lhs.literal(), rhs.literal()) {
                // Column against literal: compare on the borrowed slice,
                // no literal vector.
                (None, Some(lit)) => cmp_literal(*op, &lhs.eval_ref(batch), lit),
                (Some(lit), None) => cmp_literal(op.flipped(), &rhs.eval_ref(batch), lit),
                _ => cmp_columns(*op, &lhs.eval_ref(batch), &rhs.eval_ref(batch)),
            },
            Expr::Between(inner, lo, hi) => {
                let v = inner.eval_ref(batch);
                v.as_int().iter().map(|x| (lo <= x) & (x <= hi)).collect()
            }
            Expr::InInts(inner, set) => match &*inner.eval_ref(batch) {
                ColumnData::Int(xs) => in_set(xs, set),
                ColumnData::Str { codes, .. } => in_set(codes, set),
                other => panic!("InInts over {:?}", other.data_type()),
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

    /// Evaluates to a column over the batch.
    pub fn eval(&self, batch: &Batch) -> ColumnData {
        match self {
            Expr::Col(i) => batch.column(*i).clone(),
            Expr::LitInt(v) => ColumnData::Int(vec![*v; batch.len()]),
            Expr::LitFloat(v) => ColumnData::Float(vec![*v; batch.len()]),
            Expr::LitCode(c) => ColumnData::Int(vec![*c as i64; batch.len()]),
            Expr::Arith(op, lhs, rhs) => {
                arith_columns(*op, &lhs.eval_ref(batch), &rhs.eval_ref(batch))
            }
            Expr::Year(inner) => ColumnData::Int(
                inner
                    .eval_ref(batch)
                    .as_int()
                    .iter()
                    .map(|&d| pi_storage::date_parts(d).0 as i64)
                    .collect(),
            ),
            boolean => ColumnData::Int(
                boolean
                    .eval_bool(batch)
                    .into_iter()
                    .map(i64::from)
                    .collect(),
            ),
        }
    }

    /// [`Expr::eval`] that borrows the batch's column when the expression
    /// is a plain column reference.
    fn eval_ref<'a>(&self, batch: &'a Batch) -> Cow<'a, ColumnData> {
        match self {
            Expr::Col(i) => Cow::Borrowed(batch.column(*i)),
            other => Cow::Owned(other.eval(batch)),
        }
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

    /// Returns `Some((lo, hi))` if this predicate restricts `col` to an
    /// integer range usable for zone-map pruning (scan-range extraction /
    /// static range propagation).
    pub fn range_for_col(&self, col: usize) -> Option<(i64, i64)> {
        match self {
            Expr::Between(inner, lo, hi) => match **inner {
                Expr::Col(c) if c == col => Some((*lo, *hi)),
                _ => None,
            },
            Expr::Cmp(op, lhs, rhs) => match (&**lhs, &**rhs) {
                (Expr::Col(c), Expr::LitInt(v)) if *c == col => match op {
                    CmpOp::Eq => Some((*v, *v)),
                    CmpOp::Lt => Some((i64::MIN, v - 1)),
                    CmpOp::Le => Some((i64::MIN, *v)),
                    CmpOp::Gt => Some((v + 1, i64::MAX)),
                    CmpOp::Ge => Some((*v, i64::MAX)),
                    CmpOp::Ne => None,
                },
                (Expr::LitInt(v), Expr::Col(c)) if *c == col => match op {
                    CmpOp::Eq => Some((*v, *v)),
                    CmpOp::Gt => Some((i64::MIN, v - 1)),
                    CmpOp::Ge => Some((i64::MIN, *v)),
                    CmpOp::Lt => Some((v + 1, i64::MAX)),
                    CmpOp::Le => Some((*v, i64::MAX)),
                    CmpOp::Ne => None,
                },
                _ => None,
            },
            Expr::And(l, r) => match (l.range_for_col(col), r.range_for_col(col)) {
                (Some((a, b)), Some((c, d))) => Some((a.max(c), b.min(d))),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            },
            _ => None,
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
fn cmp_literal(op: CmpOp, col: &ColumnData, lit: Literal) -> Vec<bool> {
    match (col, lit) {
        (ColumnData::Int(x), Literal::Int(v)) => op.mask(x.iter().map(|&p| (p, v))),
        (ColumnData::Float(x), Literal::Float(v)) => op.mask(x.iter().map(|&p| (p, v))),
        (ColumnData::Int(x), Literal::Float(v)) => op.mask(x.iter().map(|&p| (p as f64, v))),
        (ColumnData::Float(x), Literal::Int(v)) => op.mask(x.iter().map(|&p| (p, v as f64))),
        (ColumnData::Str { codes, .. }, Literal::Int(v)) => {
            assert_code_comparison(op);
            op.mask(codes.iter().map(|&c| (c as i64, v)))
        }
        (col, Literal::Float(_)) => panic!("cannot compare {:?} with Float", col.data_type()),
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

fn cmp_columns(op: CmpOp, a: &ColumnData, b: &ColumnData) -> Vec<bool> {
    match (a, b) {
        (ColumnData::Int(x), ColumnData::Int(y)) => op.mask(x.iter().zip(y)),
        (ColumnData::Float(x), ColumnData::Float(y)) => op.mask(x.iter().zip(y)),
        (ColumnData::Int(x), ColumnData::Float(y)) => {
            op.mask(x.iter().zip(y).map(|(&p, &q)| (p as f64, q)))
        }
        (ColumnData::Float(x), ColumnData::Int(y)) => {
            op.mask(x.iter().zip(y).map(|(&p, &q)| (p, q as f64)))
        }
        (ColumnData::Str { codes, .. }, ColumnData::Int(y)) => {
            assert_code_comparison(op);
            op.mask(codes.iter().zip(y).map(|(&c, &q)| (c as i64, q)))
        }
        (ColumnData::Int(x), ColumnData::Str { codes, .. }) => {
            assert_code_comparison(op);
            op.mask(x.iter().zip(codes).map(|(&p, &c)| (p, c as i64)))
        }
        (ColumnData::Str { codes: x, dict: dx }, ColumnData::Str { codes: y, dict: dy }) => {
            assert!(
                std::sync::Arc::ptr_eq(dx, dy),
                "string comparison across dictionaries"
            );
            assert_code_comparison(op);
            op.mask(x.iter().zip(y))
        }
        (a, b) => panic!(
            "cannot compare {:?} with {:?}",
            a.data_type(),
            b.data_type()
        ),
    }
}

fn arith_columns(op: ArithOp, a: &ColumnData, b: &ColumnData) -> ColumnData {
    let as_f = |c: &ColumnData, i: usize| -> f64 {
        match c {
            ColumnData::Int(v) => v[i] as f64,
            ColumnData::Float(v) => v[i],
            other => panic!("arithmetic over {:?}", other.data_type()),
        }
    };
    let both_int = matches!((a, b), (ColumnData::Int(_), ColumnData::Int(_)));
    let n = a.len();
    if both_int && op != ArithOp::Div {
        let x = a.as_int();
        let y = b.as_int();
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

/// Checks that an expression's output type is int-backed (planner helper).
pub fn output_type(expr: &Expr, input_types: &[DataType]) -> DataType {
    match expr {
        Expr::Col(i) => input_types[*i],
        Expr::LitInt(_) | Expr::LitCode(_) => DataType::Int,
        Expr::LitFloat(_) => DataType::Float,
        Expr::Arith(op, lhs, rhs) => {
            let a = output_type(lhs, input_types);
            let b = output_type(rhs, input_types);
            if a == DataType::Float || b == DataType::Float || *op == ArithOp::Div {
                DataType::Float
            } else {
                DataType::Int
            }
        }
        Expr::Year(_) => DataType::Int,
        _ => DataType::Int, // booleans materialize as 0/1 ints
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
        // Unknown literal matches nothing.
        let none = Expr::col(2).eq(Expr::lit_str(&dict, "zzz"));
        assert_eq!(none.eval_bool(&b), vec![false; 5]);
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
    fn range_extraction() {
        let p = Expr::Between(Box::new(Expr::col(3)), 10, 20);
        assert_eq!(p.range_for_col(3), Some((10, 20)));
        assert_eq!(p.range_for_col(2), None);
        let q = Expr::col(0)
            .ge(Expr::LitInt(5))
            .and(Expr::col(0).lt(Expr::LitInt(9)));
        assert_eq!(q.range_for_col(0), Some((5, 8)));
        let eq = Expr::col(1).eq(Expr::LitInt(7));
        assert_eq!(eq.range_for_col(1), Some((7, 7)));
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
