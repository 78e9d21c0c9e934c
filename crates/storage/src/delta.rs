//! Positional delta store (paper, Section 5: "Delta structures").
//!
//! Read-optimized column stores buffer table updates in memory instead of
//! rewriting base storage; the paper's host system uses Positional Delta
//! Trees (Héman et al., SIGMOD'10). This module provides a simplified
//! structure with the same observable positional semantics:
//!
//! * rows are addressed by their current *visible* position (rowID);
//! * deleting a row shifts the rowIDs of all subsequent rows down by one —
//!   exactly the shift the sharded bitmap mirrors with its bulk delete;
//! * inserts append at the end; modifies patch values in place;
//! * [`DeltaStore`] translates visible rowIDs to stable base positions or
//!   append-buffer slots, and `propagate` merges all deltas into base
//!   storage (the PDT checkpoint operation);
//! * pending modifies of base cells are one patch column per table column:
//!   ascending base positions and a typed [`ColumnData`] of their new
//!   values, each behind its own `Arc`. A clone of the store shares them,
//!   so the writer's first mutation after a publish copies pointers, not
//!   cells; a modify of column `c` merges its sorted rows into a fresh
//!   copy of `c`'s patch column alone (a run of untouched patches is one
//!   slice copy), and the epoch it replaces frees that column's two
//!   vectors, not one allocation per patched row;
//! * merge-on-read costs per *delta*, not per row: a range read copies the
//!   base runs between consecutive deleted positions as typed slices,
//!   overwrites the column's patched cells inside the window, and takes
//!   the append buffer as one more run — and a window that is one base run
//!   with no patch in the columns read needs no copy at all
//!   (`DeltaStore::base_run`);
//! * writes cost per delta too: a delete translates its sorted rowIDs with
//!   one cursor over the delete list and merges the new base positions into
//!   it in one pass, and propagate and append-buffer deletes move the runs
//!   between deleted positions as slice copies
//!   ([`ColumnData::delete_sorted`]);
//! * a propagate is one independent merge per column (`ColumnMerge`), and
//!   `Table::propagate_all` runs one pool task per (dirty partition,
//!   column). The calling thread allocates before the tasks start: it
//!   gives each column room for its growth (a shared column is copied
//!   into one allocation of that size), and it writes the patched cells.
//!   A modify encodes a new string into the shared dictionary when the
//!   writer applies it, in statement order, and its patch column keeps
//!   the code, so neither a merge-on-read nor the propagate's scheduling
//!   assigns a code: codes and dictionaries follow the statement stream
//!   alone. A task only moves rows (`delete_sorted`, then one extend) and
//!   frees its append buffer as soon as it has copied it; a base with no
//!   rows (a load, then a propagate) takes the append buffer by move
//!   instead;
//! * the store's parts (base row count, deleted positions, modified cells
//!   in (position, column) order, append columns) are readable, and
//!   [`DeltaStore::from_parts`] rebuilds a store from them, so a
//!   checkpoint can persist the delta alone, in bytes that follow from
//!   the state alone.

use std::ops::Range;
use std::sync::Arc;

use crate::column::ColumnData;
use crate::value::Value;

/// Where a visible row physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLoc {
    /// Base storage at this (stable) position.
    Base(usize),
    /// Append buffer at this slot.
    Append(usize),
}

/// The pending patches of one column's base cells: strictly ascending
/// base positions, and at the same indices their new values (`Str` as the
/// codes the modifies encoded, over the column's shared dictionary).
/// Reads and the propagate write the codes, so they neither take the
/// dictionary's write lock nor add a string to it.
#[derive(Debug)]
struct PatchColumn {
    positions: Vec<usize>,
    values: ColumnData,
}

impl PatchColumn {
    /// No patches, over `column`'s type and dictionary.
    fn empty(column: &ColumnData) -> Arc<PatchColumn> {
        Arc::new(PatchColumn {
            positions: Vec::new(),
            values: column.empty_like(),
        })
    }

    /// Patches `values` at `positions` (equally long), sorted by position;
    /// of a position given more than once, the last value stays.
    fn sorted(positions: Vec<usize>, values: ColumnData) -> PatchColumn {
        if positions.windows(2).all(|w| w[0] < w[1]) {
            return PatchColumn { positions, values };
        }
        let mut order: Vec<usize> = (0..positions.len()).collect();
        order.sort_by_key(|&i| positions[i]);
        order.dedup_by(|next, kept| {
            let repeated = positions[*next] == positions[*kept];
            if repeated {
                *kept = *next;
            }
            repeated
        });
        PatchColumn {
            positions: order.iter().map(|&i| positions[i]).collect(),
            values: values.gather(&order),
        }
    }

    fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The index of the patch of base position `pos`, if there is one.
    fn find(&self, pos: usize) -> Option<usize> {
        self.positions.binary_search(&pos).ok()
    }

    /// The indices of the patches of base positions `[first, end)`.
    fn within(&self, first: usize, end: usize) -> Range<usize> {
        let lo = self.positions.partition_point(|&p| p < first);
        lo..lo + self.positions[lo..].partition_point(|&p| p < end)
    }

    /// This column with `new`'s patches merged in, in fresh vectors: `new`
    /// is sorted and wins at a position both hold.
    fn merged(&self, new: PatchColumn) -> PatchColumn {
        if self.is_empty() {
            return new;
        }
        let (positions, values) = match (&self.values, &new.values) {
            (ColumnData::Int(a), ColumnData::Int(b)) => {
                let (p, v) = merge((&self.positions, a), (&new.positions, b));
                (p, ColumnData::Int(v))
            }
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                let (p, v) = merge((&self.positions, a), (&new.positions, b));
                (p, ColumnData::Float(v))
            }
            (ColumnData::Str { codes: a, dict }, ColumnData::Str { codes: b, .. }) => {
                let (p, codes) = merge((&self.positions, a), (&new.positions, b));
                let dict = Arc::clone(dict);
                (p, ColumnData::Str { codes, dict })
            }
            _ => unreachable!("a modify patches values of its column's type"),
        };
        PatchColumn { positions, values }
    }

    /// This column without the patches of the ascending `deleted` base
    /// positions, as a fresh allocation, or `None` if it holds none of them.
    fn without(&self, deleted: &[usize]) -> Option<PatchColumn> {
        let kept: Vec<usize> = (0..self.positions.len())
            .filter(|&i| deleted.binary_search(&self.positions[i]).is_err())
            .collect();
        (kept.len() < self.positions.len()).then(|| PatchColumn {
            positions: kept.iter().map(|&i| self.positions[i]).collect(),
            values: self.values.gather(&kept),
        })
    }
}

/// Merges the patches `add` into the patches `old`, both sorted by
/// position, into fresh vectors; `add` wins at a position both hold. The
/// run of old patches below each new one is one slice copy.
fn merge<T: Copy>(old: (&[usize], &[T]), add: (&[usize], &[T])) -> (Vec<usize>, Vec<T>) {
    let ((op, ov), (ap, av)) = (old, add);
    let mut positions = Vec::with_capacity(op.len() + ap.len());
    let mut values = Vec::with_capacity(op.len() + ap.len());
    let mut i = 0;
    for (&a, &v) in ap.iter().zip(av) {
        let run = i;
        while op.get(i).is_some_and(|&o| o < a) {
            i += 1;
        }
        positions.extend_from_slice(&op[run..i]);
        values.extend_from_slice(&ov[run..i]);
        positions.push(a);
        values.push(v);
        i += usize::from(op.get(i) == Some(&a));
    }
    positions.extend_from_slice(&op[i..]);
    values.extend_from_slice(&ov[i..]);
    (positions, values)
}

/// In-memory positional deltas over one partition's base columns.
#[derive(Debug, Clone)]
pub struct DeltaStore {
    /// Number of rows in base storage (fixed until propagate).
    base_rows: usize,
    /// Sorted base positions that are deleted.
    deleted: Vec<usize>,
    /// Per column, the pending patches of its base cells. A deleted
    /// position holds none.
    patches: Vec<Arc<PatchColumn>>,
    /// Appended rows, columnar, matching the table schema.
    appends: Vec<ColumnData>,
}

impl DeltaStore {
    /// Creates an empty delta store over `base_rows` rows; `append_proto`
    /// provides empty, dictionary-sharing append buffers per column.
    pub fn new(base_rows: usize, append_proto: Vec<ColumnData>) -> Self {
        DeltaStore {
            base_rows,
            deleted: Vec::new(),
            patches: append_proto.iter().map(PatchColumn::empty).collect(),
            appends: append_proto,
        }
    }

    /// Rebuilds a delta store from the parts its accessors expose —
    /// [`DeltaStore::base_rows`], [`DeltaStore::deleted`],
    /// [`DeltaStore::modified_cells`] and
    /// [`DeltaStore::append_columns`] — and checks every invariant the
    /// store relies on: deletes strictly ascending and inside the base,
    /// each modified cell on a live base row of an existing column, typed
    /// like that column and given once, and append columns of equal
    /// length. The cells may come in any order; a string is encoded in
    /// theirs. The parts come from a checkpoint file, so a violation is an
    /// error, not a panic.
    pub fn from_parts(
        base_rows: usize,
        deleted: Vec<usize>,
        cells: Vec<(usize, usize, Value)>,
        appends: Vec<ColumnData>,
    ) -> Result<Self, String> {
        let append_len = appends.first().map_or(0, |c| c.len());
        if appends.iter().any(|c| c.len() != append_len) {
            return Err("append columns of unequal length".into());
        }
        if deleted.windows(2).any(|w| w[0] >= w[1]) {
            return Err("deleted positions not strictly ascending".into());
        }
        if let Some(&last) = deleted.last().filter(|&&d| d >= base_rows) {
            return Err(format!(
                "deleted position {last} outside {base_rows} base rows"
            ));
        }
        let mut columns: Vec<(Vec<usize>, ColumnData)> = appends
            .iter()
            .map(|a| (Vec::new(), a.empty_like()))
            .collect();
        for (pos, col, v) in cells {
            if pos >= base_rows || deleted.binary_search(&pos).is_ok() {
                return Err(format!(
                    "modified cell on base position {pos}, which is not a live base row"
                ));
            }
            let Some((positions, values)) = columns.get_mut(col) else {
                return Err(format!(
                    "modified cell in column {col} of {}",
                    appends.len()
                ));
            };
            if v.data_type() != values.data_type() {
                return Err(format!(
                    "modified cell ({pos}, {col}) holds {:?} in a {:?} column",
                    v.data_type(),
                    values.data_type()
                ));
            }
            positions.push(pos);
            values.push(&v);
        }
        let mut patches = Vec::with_capacity(columns.len());
        for (col, (positions, values)) in columns.into_iter().enumerate() {
            let mut ascending = positions.clone();
            ascending.sort_unstable();
            if let Some(w) = ascending.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("modified cell ({}, {col}) given twice", w[0]));
            }
            patches.push(Arc::new(PatchColumn::sorted(positions, values)));
        }
        Ok(DeltaStore {
            base_rows,
            deleted,
            patches,
            appends,
        })
    }

    /// Number of rows in the base storage this store is positioned over.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Deleted base positions, strictly ascending.
    pub fn deleted(&self) -> &[usize] {
        &self.deleted
    }

    /// Pending patches of base cells as `(base position, column, value)`,
    /// in (position, column) order.
    pub fn modified_cells(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        let mut next = vec![0; self.patches.len()];
        std::iter::from_fn(move || {
            let (pos, col) = self
                .patches
                .iter()
                .enumerate()
                .filter_map(|(c, p)| Some((*p.positions.get(next[c])?, c)))
                .min()?;
            next[col] += 1;
            Some((pos, col, self.patches[col].values.value(next[col] - 1)))
        })
    }

    /// Rows currently visible (base minus deletes plus appends).
    pub fn visible_len(&self) -> usize {
        self.base_rows - self.deleted.len() + self.append_len()
    }

    /// Rows in the append buffer.
    pub fn append_len(&self) -> usize {
        self.appends.first().map_or(0, |c| c.len())
    }

    /// Number of visible rows that live in base storage.
    pub fn base_visible_len(&self) -> usize {
        self.base_rows - self.deleted.len()
    }

    /// Whether any deltas are pending.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty() && !self.has_modifies() && self.append_len() == 0
    }

    /// Whether positional shifts are pending (deletes reorder rowIDs;
    /// zone maps over base data stay valid only without them).
    pub fn has_positional_shifts(&self) -> bool {
        !self.deleted.is_empty()
    }

    /// Whether any modifies are pending.
    pub fn has_modifies(&self) -> bool {
        self.patches.iter().any(|p| !p.is_empty())
    }

    /// Append-buffer columns (for scans of inserted tuples, Figure 5:
    /// "scanning the inserted values is realized by scanning the PDTs").
    pub fn append_columns(&self) -> &[ColumnData] {
        &self.appends
    }

    /// Number of deleted base positions that precede visible row `rid`, so
    /// that `rid + shift(rid)` is the row's *physical* position: its base
    /// position, or `base_rows + slot` for a row in the append buffer.
    /// `deleted[i] - i` is non-decreasing, which makes this a binary search.
    fn shift(&self, rid: usize) -> usize {
        let (mut lo, mut hi) = (0, self.deleted.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.deleted[mid] - mid <= rid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Translates a visible rowID to its physical location.
    ///
    /// # Panics
    /// Panics if `rid >= visible_len()`.
    pub fn locate(&self, rid: usize) -> RowLoc {
        assert!(rid < self.visible_len(), "rowID {rid} out of bounds");
        let pos = rid + self.shift(rid);
        if pos < self.base_rows {
            RowLoc::Base(pos)
        } else {
            RowLoc::Append(pos - self.base_rows)
        }
    }

    /// Translates a base position to its visible rowID, or `None` if the
    /// row is deleted.
    pub fn rid_of_base(&self, base_pos: usize) -> Option<usize> {
        assert!(base_pos < self.base_rows, "base position out of bounds");
        let idx = self.deleted.partition_point(|&d| d < base_pos);
        if self.deleted.get(idx) == Some(&base_pos) {
            None
        } else {
            Some(base_pos - idx)
        }
    }

    /// Appends one row (values matching the schema order).
    pub fn append_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.appends.len(), "row arity mismatch");
        for (col, v) in self.appends.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Appends a columnar batch.
    pub fn append_batch(&mut self, batch: &[ColumnData]) {
        assert_eq!(batch.len(), self.appends.len(), "batch arity mismatch");
        for (col, b) in self.appends.iter_mut().zip(batch) {
            col.extend_from(b);
        }
    }

    /// Records value patches for visible rows, which may be unsorted and
    /// repeat: a repeated row ends at its last value. Patches to appended
    /// rows are applied directly in the append buffer; the base cells'
    /// patches merge into a fresh copy of column `col`'s patch column, and
    /// no other column's is touched. Every string is encoded here, on the
    /// writer, in statement order, and its patch keeps the code.
    pub fn modify(&mut self, rids: &[usize], col: usize, values: &[Value]) {
        assert_eq!(rids.len(), values.len(), "modify arity mismatch");
        let mut positions = Vec::with_capacity(rids.len());
        let mut patched = self.appends[col].empty_like();
        patched.reserve(rids.len());
        for (&rid, v) in rids.iter().zip(values) {
            match self.locate(rid) {
                RowLoc::Base(b) => {
                    positions.push(b);
                    patched.push(v);
                }
                RowLoc::Append(slot) => self.appends[col].set(slot, v),
            }
        }
        if !positions.is_empty() {
            let new = PatchColumn::sorted(positions, patched);
            self.patches[col] = Arc::new(self.patches[col].merged(new));
        }
    }

    /// Deletes visible rows. `rids` may be unsorted; duplicates are
    /// ignored. All rowIDs are interpreted against the state *before* the
    /// call (translation happens first, so positional shifts cannot corrupt
    /// later entries).
    ///
    /// The sorted rowIDs translate with one cursor over the delete list
    /// (`DeltaStore::physical`), which yields ascending physical
    /// positions: base positions below `base_rows`, append-buffer slots
    /// above. The base positions are live rows, so they merge into the
    /// delete list as a disjoint sorted run, and every patch column that
    /// holds one of them is copied without it.
    ///
    /// # Panics
    /// Panics if a rowID is not below `visible_len()`.
    pub fn delete(&mut self, rids: &[usize]) {
        let mut rids: Vec<usize> = rids.to_vec();
        rids.sort_unstable();
        rids.dedup();
        let visible = self.visible_len();
        if let Some(rid) = rids.get(rids.partition_point(|&r| r < visible)) {
            panic!("rowID {rid} out of bounds");
        }
        let mut physical = self.physical(&rids);
        let split = physical.partition_point(|&p| p < self.base_rows);
        if split > 0 {
            let base_dels = &physical[..split];
            for patches in &mut self.patches {
                if let Some(kept) = patches.without(base_dels) {
                    *patches = Arc::new(kept);
                }
            }
            merge_disjoint(&mut self.deleted, base_dels);
        }
        // Physically remove appended rows (their slots shift down).
        if split < physical.len() {
            let append_dels = &mut physical[split..];
            for slot in append_dels.iter_mut() {
                *slot -= self.base_rows;
            }
            for col in &mut self.appends {
                col.delete_sorted(append_dels);
            }
        }
    }

    /// Merges all deltas into `base` (patch, delete, append — the PDT
    /// propagate/checkpoint step) and resets this store: the column merges
    /// of `DeltaStore::column_merges`, run one after another. A column
    /// that something else still shares is copied first, never written
    /// through.
    pub fn propagate(&mut self, base: &mut [Arc<ColumnData>]) {
        for merge in self.column_merges(base) {
            merge.run();
        }
        self.finish_propagate(base);
    }

    /// Prepares a propagate into `base` as one [`ColumnMerge`] per column,
    /// doing on the calling thread everything but moving rows: it gives
    /// each non-empty column room for its net growth (a column that
    /// something else still shares is copied into a new allocation of that
    /// size, one copy), then writes each patch column's values and string
    /// codes, which their modifies encoded, so no dictionary changes. The
    /// merges are independent, so they may run in
    /// any order, on any threads; [`DeltaStore::finish_propagate`]
    /// completes the propagate once all of them ran.
    pub(crate) fn column_merges<'a>(
        &'a mut self,
        base: &'a mut [Arc<ColumnData>],
    ) -> Vec<ColumnMerge<'a>> {
        assert_eq!(base.len(), self.appends.len(), "column arity mismatch");
        // A base with no rows takes its append buffer by move instead.
        let room = match self.base_rows {
            0 => 0,
            _ => self.append_len().saturating_sub(self.deleted.len()),
        };
        let mut columns: Vec<&mut ColumnData> = base
            .iter_mut()
            .map(|column| {
                match Arc::get_mut(column) {
                    Some(base) => base.reserve(room),
                    None => *column = Arc::new(column.copy_with_room(room)),
                }
                Arc::get_mut(column).expect("the column is unshared now")
            })
            .collect();
        for (column, patches) in columns.iter_mut().zip(&mut self.patches) {
            if !patches.is_empty() {
                let cells = patches.positions.iter().copied().enumerate();
                column.scatter(&patches.values, cells);
                *patches = PatchColumn::empty(&patches.values);
            }
        }
        let deleted = &self.deleted;
        (columns.into_iter().zip(&mut self.appends))
            .map(|(base, append)| ColumnMerge {
                base,
                deleted,
                append,
            })
            .collect()
    }

    /// Completes a propagate into `base` once every merge that
    /// [`DeltaStore::column_merges`] prepared has run: the store is then
    /// empty, over the merged base's rows.
    pub(crate) fn finish_propagate(&mut self, base: &[Arc<ColumnData>]) {
        self.deleted.clear();
        self.base_rows = base.first().map_or(0, |c| c.len());
    }

    /// The base position of visible row `start`, when the `len` rows from
    /// it on are one run of base rows with no delete, append buffer slot or
    /// patched cell of columns `cols` among them.
    pub(crate) fn base_run(&self, cols: &[usize], start: usize, len: usize) -> Option<usize> {
        if start + len > self.base_visible_len() {
            return None;
        }
        let di = self.shift(start);
        let (first, end) = (start + di, start + di + len);
        let no_delete = self.deleted.get(di).is_none_or(|&d| d >= end);
        let unpatched = || {
            cols.iter()
                .all(|&c| self.patches[c].within(first, end).is_empty())
        };
        (no_delete && unpatched()).then_some(first)
    }

    /// Materializes visible rows `[start, start + len)` of column `col`,
    /// whose base storage is `base`: one walk over the delete list from the
    /// window's first row, copying the base runs between deleted positions,
    /// then the column's patched cells inside the window, then the append
    /// buffer.
    pub(crate) fn read_range(
        &self,
        base: &ColumnData,
        col: usize,
        start: usize,
        len: usize,
    ) -> ColumnData {
        let mut out = base.empty_like();
        out.reserve(len);
        let base_visible = self.base_visible_len();
        let base_len = len.min(base_visible.saturating_sub(start));
        if base_len > 0 {
            let first_di = self.shift(start);
            let first = start + first_di;
            let (mut pos, mut left, mut di) = (first, base_len, first_di);
            let end = loop {
                let next_deleted = self.deleted.get(di).copied().unwrap_or(self.base_rows);
                let run = (next_deleted - pos).min(left);
                out.extend_from_range(base, pos, run);
                left -= run;
                if left == 0 {
                    break pos + run;
                }
                pos = next_deleted + 1;
                di += 1;
            };
            // A patched position's rowID is its position less the deletes
            // below it, which one cursor from the window's first row counts.
            let patches = &self.patches[col];
            let mut di = first_di;
            let cells = patches.within(first, end).map(|i| {
                let pos = patches.positions[i];
                while self.deleted.get(di).is_some_and(|&d| d < pos) {
                    di += 1;
                }
                (i, pos - di - start)
            });
            out.scatter(&patches.values, cells);
        }
        let append_start = start.saturating_sub(base_visible);
        out.extend_from_range(&self.appends[col], append_start, len - base_len);
        out
    }

    /// Physical positions (see [`DeltaStore::shift`]) of visible rows. An
    /// ascending run of `rids` advances one cursor over the delete list; a
    /// step backwards re-seeks it.
    pub(crate) fn physical(&self, rids: &[usize]) -> Vec<usize> {
        let (mut di, mut prev) = (0, usize::MAX);
        rids.iter()
            .map(|&rid| {
                if rid < prev {
                    di = self.shift(rid);
                } else {
                    while di < self.deleted.len() && self.deleted[di] - di <= rid {
                        di += 1;
                    }
                }
                prev = rid;
                rid + di
            })
            .collect()
    }

    /// Materializes the rows at `physical` positions of column `col`, whose
    /// base storage is `base`, applying pending patches.
    pub(crate) fn gather(&self, base: &ColumnData, col: usize, physical: &[usize]) -> ColumnData {
        let mut out = base.gather_concat(&self.appends[col], physical);
        let patches = &self.patches[col];
        if !patches.is_empty() {
            let cells = physical
                .iter()
                .enumerate()
                .filter_map(|(i, &pos)| Some((patches.find(pos)?, i)));
            out.scatter(&patches.values, cells);
        }
        out
    }

    /// Reads the value of `col` for visible row `rid` from `base` /
    /// append buffer, applying pending patches.
    pub fn read_value(&self, base: &[Arc<ColumnData>], col: usize, rid: usize) -> Value {
        match self.locate(rid) {
            RowLoc::Base(b) => match self.patches[col].find(b) {
                Some(i) => self.patches[col].values.value(i),
                None => base[col].value(b),
            },
            RowLoc::Append(slot) => self.appends[col].value(slot),
        }
    }
}

/// One column's share of a propagate, prepared by
/// [`DeltaStore::column_merges`] with everything it needs allocated
/// already: running it only moves bytes.
pub(crate) struct ColumnMerge<'a> {
    /// The base column, no longer shared, patched, and with room for its
    /// net growth unless it has no rows.
    base: &'a mut ColumnData,
    /// The partition's deleted base positions.
    deleted: &'a [usize],
    /// The column's append buffer, left empty by the merge.
    append: &'a mut ColumnData,
}

impl ColumnMerge<'_> {
    /// Cells the merge moves: the base rows from the first delete on and
    /// the appended rows, unless a base with no rows takes those by move
    /// (the task-size rule's input).
    pub(crate) fn cells(&self) -> usize {
        if self.base.is_empty() {
            return 0;
        }
        let shifted = self.deleted.first().map_or(0, |&d| self.base.len() - d);
        shifted + self.append.len()
    }

    /// Deletes the rows, then extends the base with the appended rows and
    /// frees their buffer at once. A base with no rows (nothing to delete)
    /// takes the append buffer by move.
    pub(crate) fn run(self) {
        let fresh = self.append.empty_like();
        if self.base.is_empty() {
            *self.base = std::mem::replace(self.append, fresh);
            return;
        }
        self.base.delete_sorted(self.deleted);
        self.base.extend_from(self.append);
        *self.append = fresh;
    }
}

/// Merges the ascending `new` into the ascending `list`, which shares no
/// element with it, in place: the merged list fills from its end, so only
/// the entries above `new`'s first element move, each once.
pub fn merge_disjoint<T: Copy + Ord>(list: &mut Vec<T>, new: &[T]) {
    let mut i = list.len();
    list.extend_from_slice(new);
    for (j, &x) in new.iter().enumerate().rev() {
        while i > 0 && list[i - 1] > x {
            i -= 1;
            list[i + j + 1] = list[i];
        }
        list[i + j] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(base_rows: usize) -> (Vec<Arc<ColumnData>>, DeltaStore) {
        let base = vec![Arc::new(ColumnData::Int((0..base_rows as i64).collect()))];
        let proto = vec![base[0].empty_like()];
        (base, DeltaStore::new(base_rows, proto))
    }

    #[test]
    fn locate_without_deltas_is_identity() {
        let (_, d) = store(10);
        assert_eq!(d.locate(0), RowLoc::Base(0));
        assert_eq!(d.locate(9), RowLoc::Base(9));
        assert_eq!(d.visible_len(), 10);
    }

    #[test]
    fn delete_shifts_subsequent_rowids() {
        let (base, mut d) = store(10);
        d.delete(&[3]);
        assert_eq!(d.visible_len(), 9);
        // Old row 4 is now rowID 3.
        assert_eq!(d.locate(3), RowLoc::Base(4));
        assert_eq!(d.read_value(&base, 0, 3), Value::Int(4));
        assert_eq!(d.rid_of_base(3), None);
        assert_eq!(d.rid_of_base(4), Some(3));
        assert_eq!(d.rid_of_base(2), Some(2));
    }

    #[test]
    fn consecutive_deletes_accumulate() {
        let (base, mut d) = store(10);
        d.delete(&[0]);
        d.delete(&[0]);
        d.delete(&[0]);
        assert_eq!(d.visible_len(), 7);
        assert_eq!(d.read_value(&base, 0, 0), Value::Int(3));
        assert_eq!(d.read_value(&base, 0, 6), Value::Int(9));
    }

    #[test]
    fn delete_batch_interprets_rids_pre_call() {
        let (base, mut d) = store(10);
        // Deleting rows 2 and 3 in one call removes ORIGINAL rows 2 and 3,
        // not 2 and (post-shift) 4.
        d.delete(&[2, 3]);
        assert_eq!(d.read_value(&base, 0, 2), Value::Int(4));
    }

    #[test]
    fn append_and_locate() {
        let (base, mut d) = store(5);
        d.append_row(&[Value::Int(100)]);
        d.append_row(&[Value::Int(101)]);
        assert_eq!(d.visible_len(), 7);
        assert_eq!(d.locate(5), RowLoc::Append(0));
        assert_eq!(d.read_value(&base, 0, 6), Value::Int(101));
    }

    #[test]
    fn delete_appended_row() {
        let (base, mut d) = store(5);
        d.append_row(&[Value::Int(100)]);
        d.append_row(&[Value::Int(101)]);
        d.delete(&[5]);
        assert_eq!(d.visible_len(), 6);
        assert_eq!(d.read_value(&base, 0, 5), Value::Int(101));
    }

    #[test]
    fn modify_base_and_append_rows() {
        let (base, mut d) = store(5);
        d.append_row(&[Value::Int(100)]);
        d.modify(&[1], 0, &[Value::Int(-1)]);
        d.modify(&[5], 0, &[Value::Int(-2)]);
        assert_eq!(d.read_value(&base, 0, 1), Value::Int(-1));
        assert_eq!(d.read_value(&base, 0, 5), Value::Int(-2));
        assert!(d.has_modifies());
        // Underlying base storage untouched until propagate.
        assert_eq!(base[0].as_int()[1], 1);
    }

    #[test]
    fn repeated_modifies_of_one_cell_keep_one_entry() {
        let (base, mut d) = store(5);
        for i in 0..1000 {
            d.modify(&[2], 0, &[Value::Int(i)]);
        }
        assert_eq!(d.patches[0].positions, [2]);
        assert_eq!(d.read_value(&base, 0, 2), Value::Int(999));
    }

    /// A store over `rows` base rows of an `Int` column (`i`) and a `Str`
    /// column (`b<i>`).
    fn mixed_store(rows: usize) -> (Vec<Arc<ColumnData>>, DeltaStore) {
        let strs: Vec<String> = (0..rows).map(|i| format!("b{i}")).collect();
        let base = vec![
            Arc::new(ColumnData::Int((0..rows as i64).collect())),
            Arc::new(crate::column::str_column(&strs)),
        ];
        let proto = base.iter().map(|c| c.empty_like()).collect();
        (base, DeltaStore::new(rows, proto))
    }

    #[test]
    fn a_rowid_repeated_in_one_modify_ends_at_its_last_value() {
        let (base, mut d) = mixed_store(6);
        d.append_row(&[Value::Int(6), Value::from("b6")]);
        let dict = Arc::clone(base[1].dict());
        let known = dict.read().len();
        let strs = ["z", "y", "x", "w", "v"].map(Value::from);
        d.modify(&[4, 1, 6, 4, 1], 1, &strs);
        d.modify(&[5, 2, 5], 0, &[7, 8, 9].map(Value::Int));
        assert_eq!(d.patches[1].positions, [1, 4]);
        assert_eq!(d.patches[0].positions, [2, 5]);
        let read = |col| {
            (0..7)
                .map(|r| d.read_value(&base, col, r))
                .collect::<Vec<_>>()
        };
        assert_eq!(read(0), [0, 1, 8, 3, 4, 9, 6].map(Value::Int));
        let want = ["b0", "v", "b2", "b3", "w", "b5", "x"].map(Value::from);
        assert_eq!(read(1), want);
        // Every string entered the dictionary in statement order, the
        // ones a later value of the same row replaced too.
        let dict = dict.read();
        let added: Vec<&str> = (known..dict.len()).map(|c| dict.decode(c as u32)).collect();
        assert_eq!(added, ["z", "y", "x", "w", "v"]);
    }

    #[test]
    fn a_delete_drops_the_rows_patches_in_every_column() {
        let (base, mut d) = mixed_store(6);
        d.modify(&[2, 3], 0, &[Value::Int(-2), Value::Int(-3)]);
        d.modify(&[3, 2], 1, &[Value::from("p3"), Value::from("p2")]);
        d.delete(&[2]);
        assert_eq!(d.patches[0].positions, [3]);
        assert_eq!(d.patches[1].positions, [3]);
        assert_eq!(d.read_value(&base, 0, 2), Value::Int(-3));
        assert_eq!(d.read_value(&base, 1, 2), Value::from("p3"));
        let cells: Vec<_> = d.modified_cells().collect();
        assert_eq!(cells, [(3, 0, Value::Int(-3)), (3, 1, Value::from("p3"))]);
    }

    #[test]
    fn lend_range_lends_a_column_another_columns_patch_leaves_clean() {
        use crate::partition::Partition;
        use crate::schema::{Field, Schema};
        use crate::value::DataType;
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        let base = vec![
            ColumnData::Int((0..100).collect()),
            ColumnData::Int((0..100).map(|i| i * 10).collect()),
        ];
        let mut p = Partition::new(0, schema, base);
        p.modify(&[10], 1, &[Value::Int(-1)]);
        let (lent, pos) = p.lend_range(&[0], 0, 50).expect("column 0 is clean");
        assert_eq!(pos, 0);
        assert!(std::ptr::eq(&*lent[0], p.base_column(0)));
        assert!(p.lend_range(&[1], 0, 50).is_none());
        assert!(p.lend_range(&[0, 1], 0, 50).is_none());
        assert_eq!(p.lend_range(&[1], 20, 30).map(|(_, pos)| pos), Some(20));
        assert_eq!(p.read_range(&[1], 9, 3)[0].as_int(), &[90, -1, 110]);
    }

    #[test]
    fn locate_across_a_run_of_adjacent_deletes() {
        let (_, mut d) = store(1000);
        d.delete(&(5..900).collect::<Vec<_>>());
        assert_eq!(d.locate(4), RowLoc::Base(4));
        assert_eq!(d.locate(5), RowLoc::Base(900));
        d.append_row(&[Value::Int(0)]);
        assert_eq!(d.locate(105), RowLoc::Append(0));
        assert_eq!(d.physical(&[105, 5, 4, 104]), vec![1000, 900, 4, 999]);
    }

    #[test]
    fn modify_then_delete_drops_patch() {
        let (base, mut d) = store(5);
        d.modify(&[2], 0, &[Value::Int(-5)]);
        d.delete(&[2]);
        assert!(!d.has_modifies());
        assert_eq!(d.read_value(&base, 0, 2), Value::Int(3));
    }

    #[test]
    fn mixed_delete_then_rid_translation() {
        let (base, mut d) = store(8);
        d.delete(&[1, 4, 6]);
        // Visible: 0,2,3,5,7
        let vals: Vec<i64> = (0..d.visible_len())
            .map(|r| d.read_value(&base, 0, r).as_int())
            .collect();
        assert_eq!(vals, vec![0, 2, 3, 5, 7]);
    }

    #[test]
    fn propagate_applies_everything() {
        let (mut base, mut d) = store(6);
        d.delete(&[0, 5]);
        d.modify(&[0], 0, &[Value::Int(-9)]); // visible 0 = base 1
        d.append_row(&[Value::Int(77)]);
        d.propagate(&mut base);
        assert!(d.is_empty());
        assert_eq!(base[0].as_int(), &[-9, 2, 3, 4, 77]);
        assert_eq!(d.visible_len(), 5);
        // New deltas work against the propagated base.
        d.delete(&[0]);
        assert_eq!(d.read_value(&base, 0, 0), Value::Int(2));
    }

    #[test]
    fn visible_scan_after_interleaved_updates() {
        let (base, mut d) = store(4); // 0 1 2 3
        d.append_row(&[Value::Int(4)]); // 0 1 2 3 4
        d.delete(&[1]); // 0 2 3 4
        d.modify(&[1], 0, &[Value::Int(20)]); // 0 20 3 4
        d.append_row(&[Value::Int(5)]); // 0 20 3 4 5
        d.delete(&[3]); // 0 20 3 5
        let vals: Vec<i64> = (0..d.visible_len())
            .map(|r| d.read_value(&base, 0, r).as_int())
            .collect();
        assert_eq!(vals, vec![0, 20, 3, 5]);
    }

    #[test]
    fn from_parts_rebuilds_what_the_accessors_expose() {
        let (base, mut d) = store(8);
        d.append_row(&[Value::Int(80)]);
        d.append_row(&[Value::Int(81)]);
        d.delete(&[1, 4, 8]);
        d.modify(
            &[0, 2, 5],
            0,
            &[Value::Int(-1), Value::Int(-2), Value::Int(-3)],
        );
        let cells = d.modified_cells().collect();
        let r = DeltaStore::from_parts(
            d.base_rows(),
            d.deleted().to_vec(),
            cells,
            d.append_columns().to_vec(),
        )
        .unwrap();
        assert_eq!(r.deleted(), d.deleted());
        assert_eq!(r.append_len(), 1);
        let read = |s: &DeltaStore| -> Vec<Value> {
            (0..s.visible_len())
                .map(|rid| s.read_value(&base, 0, rid))
                .collect()
        };
        assert_eq!(read(&r), read(&d));
    }

    #[test]
    fn delete_across_the_append_boundary_merges_into_the_delete_list() {
        let (base, mut d) = store(10);
        d.delete(&[2, 6]);
        d.append_row(&[Value::Int(10)]);
        d.append_row(&[Value::Int(11)]);
        // Visible: 0 1 3 4 5 7 8 9 10 11; delete 0, 3..=8 (base 4..=9 and
        // append slot 0) in one call.
        d.delete(&[8, 3, 0, 4, 5, 6, 7, 4]);
        assert_eq!(d.deleted(), &[0, 2, 4, 5, 6, 7, 8, 9]);
        let vals: Vec<i64> = (0..d.visible_len())
            .map(|r| d.read_value(&base, 0, r).as_int())
            .collect();
        assert_eq!(vals, vec![1, 3, 11]);
    }

    #[test]
    #[should_panic(expected = "rowID 3 out of bounds")]
    fn delete_out_of_bounds_panics() {
        let (_, mut d) = store(3);
        d.delete(&[4, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn locate_out_of_bounds_panics() {
        let (_, d) = store(3);
        d.locate(3);
    }
}
