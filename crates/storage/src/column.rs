//! Columnar data vectors.
//!
//! [`ColumnData`] is the common currency between storage and execution:
//! partitions store columns as `ColumnData`, each behind an `Arc`. Scans
//! lend those: a batch holds the `Arc` and a window of rows, so a scan of
//! clean base rows copies nothing. Gathers copy: a merge-on-read over
//! pending deltas, and every operator that collects rows into new
//! `ColumnData`. String payloads are `u32` codes plus an `Arc` dictionary
//! handle, so those copies stay cheap.

use std::sync::Arc;

use crate::dict::{new_dict, DictRef};
use crate::value::{DataType, Value};

/// A typed vector of values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers (also backs `Date`).
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dictionary codes plus shared dictionary.
    Str {
        /// Dictionary codes, one per row.
        codes: Vec<u32>,
        /// The shared dictionary the codes refer to.
        dict: DictRef,
    },
}

impl ColumnData {
    /// Creates an empty vector of the given physical type. `Str` columns
    /// receive a fresh dictionary — use [`ColumnData::empty_like`] to share
    /// an existing one.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int | DataType::Date => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: new_dict(),
            },
        }
    }

    /// Creates an empty vector with the same type (and shared dictionary)
    /// as `self`.
    pub fn empty_like(&self) -> Self {
        match self {
            ColumnData::Int(_) => ColumnData::Int(Vec::new()),
            ColumnData::Float(_) => ColumnData::Float(Vec::new()),
            ColumnData::Str { dict, .. } => ColumnData::Str {
                codes: Vec::new(),
                dict: Arc::clone(dict),
            },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// Whether the vector has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the value vector (dictionaries are shared and
    /// excluded) — the accounting currency of byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len() * std::mem::size_of::<i64>(),
            ColumnData::Float(v) => v.len() * std::mem::size_of::<f64>(),
            ColumnData::Str { codes, .. } => codes.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Physical data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Integer slice; panics on type mismatch.
    pub fn as_int(&self) -> &[i64] {
        match self {
            ColumnData::Int(v) => v,
            other => panic!("expected Int column, got {:?}", other.data_type()),
        }
    }

    /// Float slice; panics on type mismatch.
    pub fn as_float(&self) -> &[f64] {
        match self {
            ColumnData::Float(v) => v,
            other => panic!("expected Float column, got {:?}", other.data_type()),
        }
    }

    /// Code slice; panics on type mismatch.
    pub fn as_codes(&self) -> &[u32] {
        match self {
            ColumnData::Str { codes, .. } => codes,
            other => panic!("expected Str column, got {:?}", other.data_type()),
        }
    }

    /// Dictionary handle; panics on type mismatch.
    pub fn dict(&self) -> &DictRef {
        match self {
            ColumnData::Str { dict, .. } => dict,
            other => panic!("expected Str column, got {:?}", other.data_type()),
        }
    }

    /// Materializes the value at `idx` (decoding strings).
    pub fn value(&self, idx: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[idx]),
            ColumnData::Float(v) => Value::Float(v[idx]),
            ColumnData::Str { codes, dict } => {
                Value::Str(dict.read().decode(codes[idx]).to_string())
            }
        }
    }

    /// Appends a scalar, encoding strings through the shared dictionary.
    pub fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col.push(*x),
            (ColumnData::Float(col), Value::Float(x)) => col.push(*x),
            (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                codes.push(dict.write().encode(s));
            }
            (col, v) => panic!("type mismatch: pushing {:?} into {:?}", v, col.data_type()),
        }
    }

    /// Overwrites the value at `idx` (modify support).
    pub fn set(&mut self, idx: usize, v: &Value) {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col[idx] = *x,
            (ColumnData::Float(col), Value::Float(x)) => col[idx] = *x,
            (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                codes[idx] = dict.write().encode(s);
            }
            (col, v) => panic!("type mismatch: setting {:?} in {:?}", v, col.data_type()),
        }
    }

    /// Reserves room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            ColumnData::Int(v) => v.reserve(additional),
            ColumnData::Float(v) => v.reserve(additional),
            ColumnData::Str { codes, .. } => codes.reserve(additional),
        }
    }

    /// A copy with room for `additional` more rows, made with one
    /// allocation and one copy.
    pub(crate) fn copy_with_room(&self, additional: usize) -> ColumnData {
        let mut copy = self.empty_like();
        copy.reserve(self.len() + additional);
        copy.extend_from(self);
        copy
    }

    /// Overwrites row `to` with row `from` of `src` for each `(from, to)`
    /// of `cells` (types and, for strings, dictionaries must match): a
    /// typed store per cell, codes copied as they are.
    pub(crate) fn scatter(
        &mut self,
        src: &ColumnData,
        cells: impl IntoIterator<Item = (usize, usize)>,
    ) {
        fn put<T: Copy>(dst: &mut [T], src: &[T], cells: impl IntoIterator<Item = (usize, usize)>) {
            for (from, to) in cells {
                dst[to] = src[from];
            }
        }
        match (self, src) {
            (ColumnData::Int(a), ColumnData::Int(b)) => put(a, b, cells),
            (ColumnData::Float(a), ColumnData::Float(b)) => put(a, b, cells),
            (ColumnData::Str { codes: a, dict: da }, ColumnData::Str { codes: b, dict: db }) => {
                assert!(Arc::ptr_eq(da, db), "scatter across different dictionaries");
                put(a, b, cells);
            }
            (a, b) => panic!(
                "type mismatch: scattering {:?} into {:?}",
                b.data_type(),
                a.data_type()
            ),
        }
    }

    /// Copies the rows at `indices` into a new vector.
    pub fn gather(&self, indices: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str { codes, dict } => ColumnData::Str {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
            },
        }
    }

    /// Copies the rows at `indices` of the concatenation `self ++ tail`
    /// into a new vector: an index below `self.len()` reads `self`, any
    /// other reads `tail` at `index - self.len()` (merge-on-read gathers
    /// over base storage followed by the append buffer).
    pub fn gather_concat(&self, tail: &ColumnData, indices: &[usize]) -> ColumnData {
        fn pick<T: Copy>(head: &[T], tail: &[T], indices: &[usize]) -> Vec<T> {
            indices
                .iter()
                .map(|&i| match head.get(i) {
                    Some(&v) => v,
                    None => tail[i - head.len()],
                })
                .collect()
        }
        match (self, tail) {
            (ColumnData::Int(a), ColumnData::Int(b)) => ColumnData::Int(pick(a, b, indices)),
            (ColumnData::Float(a), ColumnData::Float(b)) => ColumnData::Float(pick(a, b, indices)),
            (ColumnData::Str { codes: a, dict: da }, ColumnData::Str { codes: b, dict: db }) => {
                assert!(
                    Arc::ptr_eq(da, db),
                    "gather_concat across different dictionaries"
                );
                ColumnData::Str {
                    codes: pick(a, b, indices),
                    dict: Arc::clone(da),
                }
            }
            (a, b) => panic!(
                "type mismatch: gathering {:?} ++ {:?}",
                a.data_type(),
                b.data_type()
            ),
        }
    }

    /// Appends all rows of `other` (types and, for strings, dictionaries
    /// must match).
    pub fn extend_from(&mut self, other: &ColumnData) {
        self.extend_from_range(other, 0, other.len());
    }

    /// Appends rows `[start, start + len)` of `other` as one typed slice
    /// copy (types and, for strings, dictionaries must match).
    pub fn extend_from_range(&mut self, other: &ColumnData, start: usize, len: usize) {
        let range = start..start + len;
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(&b[range]),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(&b[range]),
            (ColumnData::Str { codes: a, dict: da }, ColumnData::Str { codes: b, dict: db }) => {
                assert!(
                    Arc::ptr_eq(da, db),
                    "extend_from across different dictionaries"
                );
                a.extend_from_slice(&b[range]);
            }
            (a, b) => panic!(
                "type mismatch: extending {:?} with {:?}",
                a.data_type(),
                b.data_type()
            ),
        }
    }

    /// Removes the rows whose indices appear in `sorted_indices`
    /// (ascending, deduplicated, each below `len()`). Used when propagating
    /// deletes into base storage and when deleting appended rows: the rows
    /// before the first index stay put, and each run between two deleted
    /// rows moves down as one slice copy.
    pub fn delete_sorted(&mut self, sorted_indices: &[usize]) {
        fn retain<T: Copy>(v: &mut Vec<T>, dels: &[usize]) {
            let Some(&first) = dels.first() else {
                return;
            };
            let mut out = first;
            for (k, &d) in dels.iter().enumerate() {
                let next = dels.get(k + 1).copied().unwrap_or(v.len());
                v.copy_within(d + 1..next, out);
                out += next - d - 1;
            }
            v.truncate(out);
        }
        match self {
            ColumnData::Int(v) => retain(v, sorted_indices),
            ColumnData::Float(v) => retain(v, sorted_indices),
            ColumnData::Str { codes, .. } => retain(codes, sorted_indices),
        }
    }

    /// Approximate heap bytes held by this vector.
    pub fn memory_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.capacity() * 8,
            ColumnData::Float(v) => v.capacity() * 8,
            ColumnData::Str { codes, .. } => codes.capacity() * 4,
        }
    }
}

/// Convenience constructors used by generators and tests.
impl From<Vec<i64>> for ColumnData {
    fn from(v: Vec<i64>) -> Self {
        ColumnData::Int(v)
    }
}

impl From<Vec<f64>> for ColumnData {
    fn from(v: Vec<f64>) -> Self {
        ColumnData::Float(v)
    }
}

/// Builds a string column by encoding `values` into a fresh dictionary.
pub fn str_column<S: AsRef<str>>(values: &[S]) -> ColumnData {
    let dict = new_dict();
    let codes = {
        let mut d = dict.write();
        values.iter().map(|s| d.encode(s.as_ref())).collect()
    };
    ColumnData::Str { codes, dict }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_value_roundtrip() {
        let mut c = ColumnData::empty(DataType::Str);
        c.push(&Value::from("a"));
        c.push(&Value::from("b"));
        c.push(&Value::from("a"));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::from("a"));
        assert_eq!(c.as_codes(), &[0, 1, 0]);
    }

    #[test]
    fn gather_picks_rows_in_order() {
        let c = ColumnData::from(vec![10i64, 20, 30, 40]);
        assert_eq!(c.gather(&[3, 0]).as_int(), &[40, 10]);
    }

    #[test]
    fn gather_str_shares_dict() {
        let c = str_column(&["x", "y", "z"]);
        let g = c.gather(&[2, 0]);
        assert!(Arc::ptr_eq(c.dict(), g.dict()));
        assert_eq!(g.value(0), Value::from("z"));
    }

    #[test]
    fn set_overwrites() {
        let mut c = ColumnData::from(vec![1i64, 2]);
        c.set(0, &Value::Int(9));
        assert_eq!(c.as_int(), &[9, 2]);
        let mut s = str_column(&["a"]);
        s.set(0, &Value::from("b"));
        assert_eq!(s.value(0), Value::from("b"));
    }

    #[test]
    fn delete_sorted_removes_rows() {
        let mut c = ColumnData::from(vec![0i64, 1, 2, 3, 4, 5]);
        c.delete_sorted(&[0, 2, 5]);
        assert_eq!(c.as_int(), &[1, 3, 4]);
        let mut s = str_column(&["a", "b", "c"]);
        s.delete_sorted(&[1]);
        assert_eq!(s.as_codes(), &[0, 2]);
        // First row, last row, adjacent runs, a single-row tail (alone or
        // behind a run of deletes), every row and none.
        for dels in [
            vec![0],
            vec![9],
            vec![3, 4, 5, 7, 8],
            vec![0, 1, 5, 6, 9],
            vec![8],
            (0..9).collect(),
            (0..10).collect(),
            vec![],
        ] {
            let mut c = ColumnData::from((0..10).collect::<Vec<i64>>());
            c.delete_sorted(&dels);
            let kept: Vec<i64> = (0..10).filter(|&i| !dels.contains(&(i as usize))).collect();
            assert_eq!(c.as_int(), kept, "deleting {dels:?}");
        }
    }

    #[test]
    fn gather_concat_reads_head_then_tail() {
        let head = ColumnData::from(vec![10i64, 20]);
        let tail = ColumnData::from(vec![30i64, 40]);
        assert_eq!(
            head.gather_concat(&tail, &[3, 0, 2, 1]).as_int(),
            &[40, 10, 30, 20]
        );
        let s = str_column(&["a", "b", "c"]);
        let (h, t) = (s.gather(&[0]), s.gather(&[1, 2]));
        assert_eq!(h.gather_concat(&t, &[2, 0]).as_codes(), &[2, 0]);
    }

    #[test]
    fn extend_from_range_copies_the_window() {
        let src = ColumnData::from(vec![0i64, 1, 2, 3, 4]);
        let mut dst = ColumnData::from(vec![9i64]);
        dst.extend_from_range(&src, 1, 3);
        dst.extend_from_range(&src, 4, 0);
        assert_eq!(dst.as_int(), &[9, 1, 2, 3]);
    }

    #[test]
    fn extend_from_same_dict() {
        let a = str_column(&["p", "q"]);
        let mut b = a.empty_like();
        b.extend_from(&a);
        assert_eq!(b.len(), 2);
        assert_eq!(b.value(1), Value::from("q"));
    }

    #[test]
    #[should_panic(expected = "different dictionaries")]
    fn extend_across_dicts_panics() {
        let a = str_column(&["p"]);
        let mut b = str_column(&["q"]);
        b.extend_from(&a);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_type_mismatch_panics() {
        let mut c = ColumnData::empty(DataType::Int);
        c.push(&Value::from("oops"));
    }

    #[test]
    fn empty_like_preserves_type() {
        let c = ColumnData::empty(DataType::Float);
        assert_eq!(c.empty_like().data_type(), DataType::Float);
    }
}
