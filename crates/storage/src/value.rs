//! Scalar values and data types.
//!
//! The engine stores four physical types: 64-bit integers, 64-bit floats,
//! dictionary-encoded strings and dates (days since 1970-01-01, stored as
//! integers). NULLs are not modelled — the paper's generators and TPC-H
//! subset do not require them (see DESIGN.md).

use std::cmp::Ordering;
use std::fmt;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (totally ordered via `total_cmp`).
    Float,
    /// Dictionary-encoded UTF-8 string.
    Str,
    /// Days since the Unix epoch, stored as `Int`.
    Date,
}

impl DataType {
    /// Whether values of this type are physically stored as `i64`.
    pub fn is_int_backed(self) -> bool {
        matches!(self, DataType::Int | DataType::Date)
    }
}

/// A single scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer (also carries `Date` payloads).
    Int(i64),
    /// Float.
    Float(f64),
    /// Owned string (encoded into a dictionary at storage time).
    Str(String),
}

impl Value {
    /// The data type this value naturally carries.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Integer payload; panics on type mismatch.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Float payload; panics on type mismatch.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            other => panic!("expected Float, got {other:?}"),
        }
    }

    /// String payload; panics on type mismatch.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(v) => v,
            other => panic!("expected Str, got {other:?}"),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order within a type (floats by `total_cmp`); across types:
    /// Int < Float < Str. The server's canonical combine sorts result rows
    /// by it, so it fixes the order of rows on the wire.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(_), _) => Ordering::Less,
            (_, Value::Int(_)) => Ordering::Greater,
            (Value::Float(_), _) => Ordering::Less,
            (_, Value::Float(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Days from the Unix epoch for a calendar date (proleptic Gregorian).
///
/// Sufficient for TPC-H's 1992–1998 date range; validated against known
/// anchors in the tests.
pub fn date(year: i32, month: u32, day: u32) -> i64 {
    assert!((1..=12).contains(&month), "month out of range");
    assert!((1..=31).contains(&day), "day out of range");
    // Howard Hinnant's days_from_civil algorithm.
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Inverse of [`date`]: `(year, month, day)` for days since the epoch.
pub fn date_parts(days: i64) -> (i32, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_epoch_anchor() {
        assert_eq!(date(1970, 1, 1), 0);
        assert_eq!(date(1970, 1, 2), 1);
        assert_eq!(date(1969, 12, 31), -1);
    }

    #[test]
    fn date_tpch_range() {
        // TPC-H start date anchor: 1992-01-01 is 8035 days after the epoch.
        assert_eq!(date(1992, 1, 1), 8035);
        assert_eq!(date(1995, 3, 15) - date(1995, 3, 14), 1);
        // Leap year handling.
        assert_eq!(date(1996, 3, 1) - date(1996, 2, 28), 2);
        assert_eq!(date(1900, 3, 1) - date(1900, 2, 28), 1);
    }

    #[test]
    fn date_roundtrip() {
        for days in [-1000i64, 0, 8035, 10_000, 20_000] {
            let (y, m, d) = date_parts(days);
            assert_eq!(date(y, m, d), days, "roundtrip {days}");
        }
    }

    #[test]
    fn value_ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.0));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        // NaN is totally ordered after all finite floats.
        assert!(Value::Float(f64::INFINITY) < Value::Float(f64::NAN));
    }

    #[test]
    fn value_order_is_total() {
        assert_eq!(Value::Int(1).cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(
            Value::Float(f64::NAN).cmp(&Value::Float(f64::NAN)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Str("a".into()).cmp(&Value::Str("b".into())),
            Ordering::Less
        );
        assert_eq!(Value::Int(9).cmp(&Value::Float(0.0)), Ordering::Less);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::from(7i64).as_int(), 7);
        assert_eq!(Value::from(2.5).as_float(), 2.5);
        assert_eq!(Value::from("x").as_str(), "x");
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        Value::from("x").as_int();
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Str("ab".into()).to_string(), "ab");
    }

    #[test]
    fn int_backed_types() {
        assert!(DataType::Int.is_int_backed());
        assert!(DataType::Date.is_int_backed());
        assert!(!DataType::Str.is_int_backed());
        assert!(!DataType::Float.is_int_backed());
    }
}
