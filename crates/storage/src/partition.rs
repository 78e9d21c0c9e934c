//! Horizontal table partitions.
//!
//! Data partitioning is transparent for PatchIndexes: a separate index is
//! created per partition, and discovery, creation and query processing run
//! partition-locally and in parallel (paper, Section 3.2). A partition owns
//! an in-memory [`DeltaStore`] and shares its immutable base columns, with
//! their lazily built zone maps, behind one `Arc`; each column sits behind
//! an `Arc` of its own as well, so a scan can lend it (see
//! [`Partition::lend_range`]).

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::column::ColumnData;
use crate::delta::{ColumnMerge, DeltaStore};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use crate::zonemap::{ZoneMap, DEFAULT_BLOCK_ROWS};

/// Base storage: immutable between two propagates, so every clone of a
/// partition shares it, and every scan batch lent from it shares its
/// columns.
#[derive(Debug, Clone)]
struct Base {
    columns: Vec<Arc<ColumnData>>,
    /// Lazily built zone maps over exactly `columns`. Interior-mutable
    /// ([`OnceLock`]) so building one is a `&self` operation: maintenance
    /// can warm a zone map through any clone and every clone sees it.
    zonemaps: Vec<OnceLock<ZoneMap>>,
}

impl Base {
    fn new(columns: Vec<ColumnData>) -> Self {
        let zonemaps = columns.iter().map(|_| OnceLock::new()).collect();
        let columns = columns.into_iter().map(Arc::new).collect();
        Base { columns, zonemaps }
    }
}

/// One horizontal slice of a table.
///
/// `Clone` costs per *delta*, not per row: it copies the [`DeltaStore`]'s
/// delete list and append buffer, bumps the refcount of each column's
/// patches (pending modifies are never copied by a clone: a modify copies
/// the one patch column it writes) and of the shared base. The snapshot layer
/// (`patchindex::snapshot`) shares partitions behind `Arc` and pays this
/// clone when a writer mutates a partition some snapshot still holds
/// (copy-on-write via [`std::sync::Arc::make_mut`]); only
/// [`Partition::propagate`], which rewrites the base anyway, copies base
/// columns. It copies a column that something else still shares: a clone
/// of the partition, or a scan batch still holding a window lent by
/// [`Partition::lend_range`]. Neither ever sees the write.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition id within its table.
    pub id: usize,
    schema: Arc<Schema>,
    base: Arc<Base>,
    delta: DeltaStore,
}

impl Partition {
    /// Creates a partition from base columns (all of equal length, matching
    /// `schema`).
    ///
    /// # Panics
    /// Panics on anything [`Partition::restore`] rejects.
    pub fn new(id: usize, schema: Arc<Schema>, base: Vec<ColumnData>) -> Self {
        let rows = base.first().map_or(0, |c| c.len());
        let proto: Vec<ColumnData> = base.iter().map(|c| c.empty_like()).collect();
        Self::restore(id, schema, base, DeltaStore::new(rows, proto))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reassembles a partition from base columns and the delta store over
    /// them — the split a checkpoint persists — checking that both match
    /// `schema` column for column (arity, physical type, string codes
    /// inside their dictionary, one dictionary per string column), that
    /// the base is not ragged, and that the delta is positioned over
    /// exactly this many base rows.
    pub fn restore(
        id: usize,
        schema: Arc<Schema>,
        base: Vec<ColumnData>,
        delta: DeltaStore,
    ) -> Result<Self, String> {
        let rows = check_columns(&schema, &base, "base")?;
        if delta.base_rows() != rows {
            return Err(format!(
                "delta over {} base rows, base holds {rows}",
                delta.base_rows()
            ));
        }
        check_columns(&schema, delta.append_columns(), "append")?;
        for (c, (b, a)) in base.iter().zip(delta.append_columns()).enumerate() {
            if let (ColumnData::Str { dict: db, .. }, ColumnData::Str { dict: da, .. }) = (b, a) {
                if !Arc::ptr_eq(db, da) {
                    return Err(format!(
                        "column {c}: base and appends use different dictionaries"
                    ));
                }
            }
        }
        Ok(Partition {
            id,
            schema,
            base: Arc::new(Base::new(base)),
            delta,
        })
    }

    /// Whether `other` reads the same base storage (not merely equal
    /// values): true for every clone of a partition until one of them
    /// propagates a pending delta.
    pub fn shares_base(&self, other: &Partition) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// The partition's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Rows currently visible.
    pub fn visible_len(&self) -> usize {
        self.delta.visible_len()
    }

    /// The delta store (PatchIndex maintenance scans pending inserts from
    /// here, mirroring "scanning the PDTs of the current query").
    pub fn delta(&self) -> &DeltaStore {
        &self.delta
    }

    /// Direct access to a base column (fast path for scans and index
    /// creation when no deltas are pending).
    pub fn base_column(&self, col: usize) -> &ColumnData {
        &self.base.columns[col]
    }

    /// Reads the value of `col` at visible row `rid`.
    pub fn value_at(&self, col: usize, rid: usize) -> Value {
        self.delta.read_value(&self.base.columns, col, rid)
    }

    /// The shared base columns `cols` and the base position of visible row
    /// `start`, when rows `[start, start + len)` are one run of base rows
    /// with no delete among them and no patch in any of `cols` (see
    /// `DeltaStore::base_run`): a scan can then lend that run of the base
    /// instead of copying it. A patch in another column does not stop it.
    pub fn lend_range(
        &self,
        cols: &[usize],
        start: usize,
        len: usize,
    ) -> Option<(Vec<Arc<ColumnData>>, usize)> {
        let pos = self.delta.base_run(cols, start, len)?;
        let lent = cols.iter().map(|&c| Arc::clone(&self.base.columns[c]));
        Some((lent.collect(), pos))
    }

    /// Materializes rows `[start, start + len)` of the given columns: what
    /// [`Partition::lend_range`] would lend, copied, or else one copy per
    /// base run between deletes, the patched cells and the appended rows
    /// (see [`DeltaStore`]).
    pub fn read_range(&self, cols: &[usize], start: usize, len: usize) -> Vec<ColumnData> {
        assert!(start + len <= self.visible_len(), "range out of bounds");
        cols.iter()
            .map(|&c| self.delta.read_range(&self.base.columns[c], c, start, len))
            .collect()
    }

    /// Materializes specific visible rows of the given columns.
    pub fn gather(&self, cols: &[usize], rids: &[usize]) -> Vec<ColumnData> {
        let base = &self.base.columns;
        if self.delta.is_empty() {
            return cols.iter().map(|&c| base[c].gather(rids)).collect();
        }
        let physical = self.delta.physical(rids);
        cols.iter()
            .map(|&c| self.delta.gather(&base[c], c, &physical))
            .collect()
    }

    /// Appends a columnar batch.
    pub fn append_batch(&mut self, batch: &[ColumnData]) {
        self.delta.append_batch(batch);
    }

    /// Appends one row.
    pub fn append_row(&mut self, row: &[Value]) {
        self.delta.append_row(row);
    }

    /// Deletes visible rows (rowIDs interpreted pre-call; see
    /// [`DeltaStore::delete`]).
    pub fn delete(&mut self, rids: &[usize]) {
        self.delta.delete(rids);
    }

    /// Patches `col` for the given visible rows.
    pub fn modify(&mut self, rids: &[usize], col: usize, values: &[Value]) {
        self.delta.modify(rids, col, values);
    }

    /// Merges all pending deltas into base storage and invalidates zone
    /// maps. The one operation that writes the base: clones and lent
    /// windows that still share it keep the old one. With nothing pending
    /// it does nothing, so the base and its zone maps stay shared.
    pub fn propagate(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let base = Arc::make_mut(&mut self.base);
        self.delta.propagate(&mut base.columns);
        base.zonemaps.fill_with(OnceLock::new);
    }

    /// Prepares a propagate as one merge per column over a base of this
    /// partition's own (see [`DeltaStore::column_merges`]).
    pub(crate) fn column_merges(&mut self) -> Vec<ColumnMerge<'_>> {
        let base = Arc::make_mut(&mut self.base);
        self.delta.column_merges(&mut base.columns)
    }

    /// Completes a propagate once every merge of
    /// [`Partition::column_merges`] has run, and drops the zone maps.
    pub(crate) fn finish_propagate(&mut self) {
        let base = Arc::make_mut(&mut self.base);
        self.delta.finish_propagate(&base.columns);
        base.zonemaps.fill_with(OnceLock::new);
    }

    /// Ensures a zone map exists for an integer-backed column and returns
    /// it. Zone maps describe *base* data only; building one is a `&self`
    /// cache fill that every clone sharing the base sees.
    pub fn zonemap(&self, col: usize) -> &ZoneMap {
        self.base.zonemaps[col]
            .get_or_init(|| ZoneMap::build(self.base.columns[col].as_int(), DEFAULT_BLOCK_ROWS))
    }

    /// Zone map if already built.
    pub fn zonemap_if_built(&self, col: usize) -> Option<&ZoneMap> {
        self.base.zonemaps[col].get()
    }

    /// Candidate visible-row ranges for `col ∈ [lo, hi]`, using the zone
    /// map where valid (paper: data pruning during scans / dynamic range
    /// propagation).
    ///
    /// Pending deletes shift rowIDs, so pruning is only applied when no
    /// positional shifts or modifies are outstanding; appended rows are
    /// always scanned. Returns `None` when the whole partition must be
    /// scanned.
    pub fn candidate_ranges(&self, col: usize, lo: i64, hi: i64) -> Option<Vec<Range<usize>>> {
        if self.delta.has_positional_shifts() || self.delta.has_modifies() {
            return None;
        }
        if !self.schema.field(col).dtype.is_int_backed() {
            return None;
        }
        let append_start = self.delta.base_visible_len();
        let append_len = self.delta.append_len();
        let mut ranges = self.zonemap(col).candidate_ranges(lo, hi);
        if append_len > 0 {
            ranges.push(append_start..append_start + append_len);
        }
        Some(ranges)
    }
}

/// Checks `cols` against `schema` column for column; returns their common
/// length.
fn check_columns(schema: &Schema, cols: &[ColumnData], what: &str) -> Result<usize, String> {
    if cols.len() != schema.len() {
        return Err(format!(
            "column arity mismatch: {} {what} columns under {} fields",
            cols.len(),
            schema.len()
        ));
    }
    let rows = cols.first().map_or(0, |c| c.len());
    for (c, (col, field)) in cols.iter().zip(schema.fields()).enumerate() {
        let expected = if field.dtype.is_int_backed() {
            DataType::Int
        } else {
            field.dtype
        };
        if col.data_type() != expected {
            return Err(format!(
                "{what} column {c}: {:?} data under the {:?} field {:?}",
                col.data_type(),
                field.dtype,
                field.name
            ));
        }
        if col.len() != rows {
            return Err(format!(
                "ragged columns: {what} column {c} holds {} rows, column 0 {rows}",
                col.len()
            ));
        }
        if let ColumnData::Str { codes, dict } = col {
            let entries = dict.read().len();
            if let Some(code) = codes.iter().find(|&&code| code as usize >= entries) {
                return Err(format!(
                    "{what} column {c}: string code {code} outside a dictionary of {entries}"
                ));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn test_partition(rows: i64) -> Partition {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let base = vec![
            ColumnData::Int((0..rows).collect()),
            ColumnData::Int((0..rows).map(|i| i * 10).collect()),
        ];
        Partition::new(0, schema, base)
    }

    #[test]
    fn read_range_fast_path() {
        let p = test_partition(100);
        let out = p.read_range(&[0, 1], 10, 5);
        assert_eq!(out[0].as_int(), &[10, 11, 12, 13, 14]);
        assert_eq!(out[1].as_int(), &[100, 110, 120, 130, 140]);
    }

    #[test]
    fn read_range_with_deltas() {
        let mut p = test_partition(10);
        p.delete(&[0, 5]);
        p.append_row(&[Value::Int(100), Value::Int(1000)]);
        p.modify(&[0], 1, &[Value::Int(-1)]);
        assert_eq!(p.visible_len(), 9);
        let out = p.read_range(&[0, 1], 0, 9);
        assert_eq!(out[0].as_int(), &[1, 2, 3, 4, 6, 7, 8, 9, 100]);
        assert_eq!(out[1].as_int(), &[-1, 20, 30, 40, 60, 70, 80, 90, 1000]);
    }

    #[test]
    fn gather_with_and_without_deltas() {
        let mut p = test_partition(10);
        assert_eq!(p.gather(&[1], &[3, 7])[0].as_int(), &[30, 70]);
        p.delete(&[0]);
        assert_eq!(p.gather(&[1], &[3, 7])[0].as_int(), &[40, 80]);
    }

    #[test]
    fn propagate_then_fast_path_again() {
        let mut p = test_partition(6);
        p.delete(&[1]);
        p.append_row(&[Value::Int(50), Value::Int(500)]);
        p.propagate();
        assert!(p.delta().is_empty());
        let out = p.read_range(&[0], 0, p.visible_len());
        assert_eq!(out[0].as_int(), &[0, 2, 3, 4, 5, 50]);
    }

    #[test]
    fn candidate_ranges_prunes_on_clean_partition() {
        let p = test_partition(5000);
        let ranges = p.candidate_ranges(0, 100, 200).expect("prunable");
        assert_eq!(ranges, vec![0..1024]);
    }

    #[test]
    fn candidate_ranges_includes_appends() {
        let mut p = test_partition(2048);
        p.append_row(&[Value::Int(9999), Value::Int(0)]);
        let ranges = p.candidate_ranges(0, 0, 10).expect("prunable");
        assert_eq!(ranges, vec![0..1024, 2048..2049]);
    }

    #[test]
    fn candidate_ranges_disabled_under_shifts() {
        let mut p = test_partition(2048);
        p.delete(&[0]);
        assert!(p.candidate_ranges(0, 0, 10).is_none());
    }

    #[test]
    fn zonemap_invalidated_by_propagate() {
        let mut p = test_partition(2048);
        let _ = p.zonemap(0);
        assert!(p.zonemap_if_built(0).is_some());
        p.delete(&[0]);
        p.propagate();
        assert!(p.zonemap_if_built(0).is_none());
        // Rebuild reflects the new base.
        let zm = p.zonemap(0);
        assert_eq!(zm.rows(), 2047);
    }

    #[test]
    fn shares_base_until_propagate() {
        let p = test_partition(4);
        let mut clone = p.clone();
        clone.delete(&[0]);
        assert!(
            clone.shares_base(&p),
            "a delta write leaves the base shared"
        );
        clone.propagate();
        assert!(
            !clone.shares_base(&p),
            "propagate gives the writer its own base"
        );
    }

    #[test]
    fn empty_propagate_keeps_the_shared_base_and_its_zone_maps() {
        let p = test_partition(2048);
        let _ = p.zonemap(0);
        let mut clone = p.clone();
        clone.propagate();
        assert!(clone.shares_base(&p), "nothing pending: nothing to copy");
        assert!(clone.zonemap_if_built(0).is_some());
        assert!(p.zonemap_if_built(0).is_some());
    }

    #[test]
    fn value_at_reads_through_delta() {
        let mut p = test_partition(4);
        p.modify(&[2], 0, &[Value::Int(-7)]);
        assert_eq!(p.value_at(0, 2), Value::Int(-7));
        assert_eq!(p.value_at(0, 3), Value::Int(3));
    }
}
