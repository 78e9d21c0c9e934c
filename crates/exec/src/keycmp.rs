//! Shared row comparators over materialized key columns (used by sort,
//! ordered merge and the server's cross-shard combine), and the direction
//! map of the merge's single-`Int`-key path.

use std::cmp::Ordering;
use std::ops::Range;

use pi_storage::ColumnData;

use crate::ops::sort::SortOrder;

/// Maps an `Int` key value so that ascending `i64` order is `order`'s
/// order: the identity for `Asc`, bitwise NOT for `Desc`. `!v` is
/// `-v - 1`, strictly order-reversing over all of `i64` — unlike `-v`,
/// which overflows at `i64::MIN`.
#[inline]
pub(crate) fn oriented_int(v: i64, order: SortOrder) -> i64 {
    match order {
        SortOrder::Asc => v,
        SortOrder::Desc => !v,
    }
}

/// A materialized, direction-aware sort key column. Strings are decoded
/// once so comparisons are lexicographic (dictionary codes are assigned in
/// first-seen order and would compare incorrectly).
pub struct KeyColumn {
    order: SortOrder,
    kind: KeyKind,
}

enum KeyKind {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
}

impl KeyColumn {
    /// Builds a key column from the rows `rows` of `col`; its row 0 is
    /// `col`'s row `rows.start`.
    pub fn build(col: &ColumnData, rows: Range<usize>, order: SortOrder) -> Self {
        let kind = match col {
            ColumnData::Int(v) => KeyKind::Int(v[rows].to_vec()),
            ColumnData::Float(v) => KeyKind::Float(v[rows].to_vec()),
            ColumnData::Str { codes, dict } => {
                let d = dict.read();
                KeyKind::Str(
                    codes[rows]
                        .iter()
                        .map(|&c| d.decode(c).to_string())
                        .collect(),
                )
            }
        };
        KeyColumn { order, kind }
    }

    /// Compares rows `a` and `b` of this key column.
    #[inline]
    pub(crate) fn cmp(&self, a: usize, b: usize) -> Ordering {
        let ord = match &self.kind {
            KeyKind::Int(v) => v[a].cmp(&v[b]),
            KeyKind::Float(v) => v[a].total_cmp(&v[b]),
            KeyKind::Str(v) => v[a].cmp(&v[b]),
        };
        match self.order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        }
    }

    /// Compares row `a` of this key column with row `b` of `other` (both
    /// must stem from the same logical column).
    #[inline]
    pub(crate) fn cmp_cross(&self, a: usize, other: &KeyColumn, b: usize) -> Ordering {
        let ord = match (&self.kind, &other.kind) {
            (KeyKind::Int(x), KeyKind::Int(y)) => x[a].cmp(&y[b]),
            (KeyKind::Float(x), KeyKind::Float(y)) => x[a].total_cmp(&y[b]),
            (KeyKind::Str(x), KeyKind::Str(y)) => x[a].cmp(&y[b]),
            _ => panic!("cross comparison over mismatched key types"),
        };
        match self.order {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        }
    }
}

/// Compares two rows across lists of key columns (leftmost major).
#[inline]
pub(crate) fn cmp_rows(keys: &[KeyColumn], a: usize, b: usize) -> Ordering {
    for k in keys {
        let ord = k.cmp(a, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compares row `a` under `left` keys with row `b` under `right` keys.
#[inline]
pub fn cmp_rows_cross(left: &[KeyColumn], a: usize, right: &[KeyColumn], b: usize) -> Ordering {
    for (l, r) in left.iter().zip(right) {
        let ord = l.cmp_cross(a, r, b);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_storage::str_column;

    #[test]
    fn int_key_directions() {
        let asc = KeyColumn::build(&ColumnData::Int(vec![1, 2]), 0..2, SortOrder::Asc);
        let desc = KeyColumn::build(&ColumnData::Int(vec![1, 2]), 0..2, SortOrder::Desc);
        assert_eq!(asc.cmp(0, 1), Ordering::Less);
        assert_eq!(desc.cmp(0, 1), Ordering::Greater);
    }

    #[test]
    fn string_keys_decode_for_order() {
        let col = str_column(&["z", "a"]);
        let k = KeyColumn::build(&col, 0..2, SortOrder::Asc);
        assert_eq!(k.cmp(1, 0), Ordering::Less);
    }

    #[test]
    fn cross_comparison() {
        let a = KeyColumn::build(&ColumnData::Int(vec![5]), 0..1, SortOrder::Asc);
        let b = KeyColumn::build(&ColumnData::Int(vec![7]), 0..1, SortOrder::Asc);
        assert_eq!(a.cmp_cross(0, &b, 0), Ordering::Less);
        assert_eq!(cmp_rows_cross(&[a], 0, &[b], 0), Ordering::Less);
    }

    #[test]
    fn multi_key_tiebreak() {
        let k1 = KeyColumn::build(&ColumnData::Int(vec![1, 1]), 0..2, SortOrder::Asc);
        let k2 = KeyColumn::build(&ColumnData::Float(vec![2.0, 1.0]), 0..2, SortOrder::Asc);
        assert_eq!(cmp_rows(&[k1, k2], 0, 1), Ordering::Greater);
    }
}
