//! Hash join with dynamic range propagation.
//!
//! Inner equi-join: the build side is materialized into a hash table, then
//! probe batches stream through. With *dynamic range propagation* (paper,
//! Section 5: "dynamically generates scan ranges during query execution,
//! e.g. during the build phase of HashJoins") the probe side is constructed
//! only after the build phase, from the `[min, max]` envelope of the build
//! keys — the NUC insert-handling query uses this to avoid a full table
//! scan (Figure 5).
//!
//! The build phase is factored out into [`JoinTable`], an immutable hash
//! table that can be shared (by reference) across many probe pipelines.
//! PatchIndex maintenance exploits this: the changed-tuple batch is hashed
//! **once** and every partition probe — fanned out over all cores — borrows
//! the same table instead of re-building it per partition.

use pi_storage::ColumnData;

use crate::batch::{Batch, BATCH_SIZE};
use crate::hash::{int_map, IntMap};
use crate::op::{collect, OpRef, Operator};

/// Extracts an `i64` join key from a column (ints directly, strings by
/// dictionary code — sound because both sides of our joins share a
/// dictionary or are pre-encoded literals).
#[inline]
pub fn join_key(col: &ColumnData, i: usize) -> i64 {
    match col {
        ColumnData::Int(v) => v[i],
        ColumnData::Str { codes, .. } => codes[i] as i64,
        other => panic!("unsupported join key type {:?}", other.data_type()),
    }
}

/// An immutable hash table over the build side of an equi-join.
///
/// Built exactly once from a materialized batch; afterwards it is read-only
/// and `Sync`, so concurrent probe pipelines (e.g. the per-partition
/// collision probes of PatchIndex maintenance) can all share one instance
/// by reference — no per-probe rebuild, no batch cloning.
#[derive(Debug)]
pub struct JoinTable {
    map: IntMap<Vec<u32>>,
    rows: Batch,
    key: usize,
    envelope: Option<(i64, i64)>,
}

impl JoinTable {
    /// Hashes `rows` on column `key`. This is the single point where build
    /// hashing happens — callers wanting shared probes build here once. A
    /// selected batch is materialized: the table keeps its rows.
    pub fn from_batch(rows: Batch, key: usize) -> Self {
        let rows = rows.materialize();
        let mut map: IntMap<Vec<u32>> = int_map();
        let mut envelope: Option<(i64, i64)> = None;
        if !rows.is_empty() {
            let key_col = rows.column(key);
            for i in 0..rows.len() {
                let k = join_key(key_col, i);
                map.entry(k).or_default().push(i as u32);
                envelope = Some(match envelope {
                    None => (k, k),
                    Some((lo, hi)) => (lo.min(k), hi.max(k)),
                });
            }
        }
        JoinTable {
            map,
            rows,
            key,
            envelope,
        }
    }

    /// Drains `op` and hashes its output on column `key`.
    pub fn build(op: &mut dyn Operator, key: usize) -> Self {
        Self::from_batch(collect(op), key)
    }

    /// `[min, max]` of the build keys (`None` when the build side is
    /// empty) — the payload of dynamic range propagation.
    pub fn envelope(&self) -> Option<(i64, i64)> {
        self.envelope
    }

    /// The materialized build rows.
    pub fn rows(&self) -> &Batch {
        &self.rows
    }

    /// The key column the table is hashed on.
    pub fn key(&self) -> usize {
        self.key
    }

    /// Number of distinct build keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Whether the build side held no rows.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Build-row indices matching `key`.
    #[inline]
    pub fn matches(&self, key: i64) -> Option<&[u32]> {
        self.map.get(&key).map(Vec::as_slice)
    }

    /// (probe row, build row) position pairs of the probe rows `rows`.
    fn pairs(
        &self,
        key_col: &ColumnData,
        rows: impl Iterator<Item = usize>,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut probe_idx: Vec<usize> = Vec::new();
        let mut build_idx: Vec<usize> = Vec::new();
        for r in rows {
            if let Some(matches) = self.matches(join_key(key_col, r)) {
                for &m in matches {
                    probe_idx.push(r);
                    build_idx.push(m as usize);
                }
            }
        }
        (probe_idx, build_idx)
    }

    /// Joins one probe batch against the table: `[probe columns..., build
    /// columns...]` for every matching pair, in probe order. The batch is
    /// only read — through its selection, so only probe rows with a match
    /// are gathered — and a caller can probe a result it keeps.
    pub fn probe(&self, batch: &Batch, probe_key: usize) -> Batch {
        let key_col = batch.raw_column(probe_key);
        // One loop per case: the dense one, which every maintenance probe
        // takes, keeps no per-row selection lookup.
        let (probe_idx, build_idx) = match batch.sel() {
            Some(sel) => self.pairs(key_col, sel.iter().copied()),
            None => self.pairs(key_col, 0..batch.len()),
        };
        let mut cols = batch.gather(&probe_idx).into_columns();
        cols.extend(self.rows.gather(&build_idx).into_columns());
        Batch::new(cols)
    }
}

/// Factory building the probe operator from the build-key envelope.
pub type ProbeFactory<'a> = Box<dyn FnOnce(Option<(i64, i64)>) -> OpRef<'a> + 'a>;

/// How the probe side is obtained.
pub enum ProbeSide<'a> {
    /// A ready operator.
    Ready(OpRef<'a>),
    /// Built after the build phase from the build-key envelope
    /// (`None` when the build side was empty): dynamic range propagation.
    Deferred(ProbeFactory<'a>),
}

enum ProbeState<'a> {
    Pending(ProbeSide<'a>),
    Running(OpRef<'a>),
    Taken,
}

enum BuildState<'a> {
    /// Build operator not yet drained; hashed on first `next()`.
    Pending(OpRef<'a>, usize),
    /// Table built by (and owned by) this join.
    Owned(JoinTable),
    /// Table built elsewhere and shared across joins.
    Shared(&'a JoinTable),
}

/// Inner hash join; output columns are `[probe columns..., build columns...]`.
pub struct HashJoinOp<'a> {
    build: BuildState<'a>,
    probe: ProbeState<'a>,
    probe_key: usize,
    pending: Vec<Batch>,
}

impl<'a> HashJoinOp<'a> {
    /// Creates a hash join. `build_key` / `probe_key` are column indices of
    /// the respective inputs.
    pub fn new(build: OpRef<'a>, build_key: usize, probe: ProbeSide<'a>, probe_key: usize) -> Self {
        HashJoinOp {
            build: BuildState::Pending(build, build_key),
            probe: ProbeState::Pending(probe),
            probe_key,
            pending: Vec::new(),
        }
    }

    /// Convenience constructor with a ready probe side.
    pub fn inner(build: OpRef<'a>, build_key: usize, probe: OpRef<'a>, probe_key: usize) -> Self {
        Self::new(build, build_key, ProbeSide::Ready(probe), probe_key)
    }

    /// Creates a hash join over a pre-built, shared [`JoinTable`]: the
    /// build side is *not* re-hashed. Deferred probe factories still
    /// receive the table's key envelope (dynamic range propagation).
    pub fn with_table(table: &'a JoinTable, probe: ProbeSide<'a>, probe_key: usize) -> Self {
        HashJoinOp {
            build: BuildState::Shared(table),
            probe: ProbeState::Pending(probe),
            probe_key,
            pending: Vec::new(),
        }
    }

    fn ensure_built(&mut self) {
        if let BuildState::Pending(..) = self.build {
            let BuildState::Pending(mut op, key) = std::mem::replace(
                &mut self.build,
                BuildState::Owned(JoinTable::from_batch(Batch::default(), 0)),
            ) else {
                unreachable!()
            };
            self.build = BuildState::Owned(JoinTable::build(op.as_mut(), key));
        }
        let envelope = self.table().envelope();
        // Dynamic range propagation: hand the key envelope to the deferred
        // probe factory.
        if let ProbeState::Pending(_) = self.probe {
            let probe = std::mem::replace(&mut self.probe, ProbeState::Taken);
            self.probe = match probe {
                ProbeState::Pending(ProbeSide::Ready(op)) => ProbeState::Running(op),
                ProbeState::Pending(ProbeSide::Deferred(f)) => ProbeState::Running(f(envelope)),
                other => other,
            };
        }
    }

    fn table(&self) -> &JoinTable {
        match &self.build {
            BuildState::Owned(t) => t,
            BuildState::Shared(t) => t,
            BuildState::Pending(..) => panic!("join table not built yet"),
        }
    }
}

impl Operator for HashJoinOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        self.ensure_built();
        if let Some(b) = self.pending.pop() {
            return Some(b);
        }
        let table = match &self.build {
            BuildState::Owned(t) => t,
            BuildState::Shared(t) => t,
            BuildState::Pending(..) => unreachable!("ensure_built ran"),
        };
        let probe = match &mut self.probe {
            ProbeState::Running(op) => op,
            _ => return None,
        };
        if table.is_empty() {
            return None;
        }
        loop {
            let batch = probe.next()?;
            if batch.is_empty() {
                continue;
            }
            let out = table.probe(&batch, self.probe_key);
            if out.is_empty() {
                continue;
            }
            if out.len() > BATCH_SIZE {
                let mut parts = out.split(BATCH_SIZE);
                parts.reverse();
                let first = parts.pop().unwrap();
                self.pending = parts;
                return Some(first);
            }
            return Some(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BatchSource;

    fn src(cols: Vec<ColumnData>) -> OpRef<'static> {
        Box::new(BatchSource::single(Batch::new(cols)))
    }

    #[test]
    fn inner_join_matches_keys() {
        // build: (key, name-ish) ; probe: (val, key)
        let build = src(vec![
            ColumnData::Int(vec![1, 2, 3]),
            ColumnData::Int(vec![10, 20, 30]),
        ]);
        let probe = src(vec![
            ColumnData::Int(vec![100, 200, 300, 400]),
            ColumnData::Int(vec![2, 3, 9, 2]),
        ]);
        let mut j = HashJoinOp::inner(build, 0, probe, 1);
        let out = collect(&mut j);
        // Output: probe cols then build cols.
        assert_eq!(out.len(), 3);
        assert_eq!(out.column(0).as_int(), &[100, 200, 400]);
        assert_eq!(out.column(1).as_int(), &[2, 3, 2]);
        assert_eq!(out.column(3).as_int(), &[20, 30, 20]);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let build = src(vec![ColumnData::Int(vec![7, 7])]);
        let probe = src(vec![ColumnData::Int(vec![7, 8])]);
        let mut j = HashJoinOp::inner(build, 0, probe, 0);
        let out = collect(&mut j);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_build_side_produces_nothing() {
        let build = src(vec![ColumnData::Int(vec![])]);
        let probe = src(vec![ColumnData::Int(vec![1, 2, 3])]);
        let mut j = HashJoinOp::inner(build, 0, probe, 0);
        assert!(collect(&mut j).is_empty());
    }

    #[test]
    fn deferred_probe_receives_envelope() {
        let build = src(vec![ColumnData::Int(vec![5, 9, 7])]);
        let probe = ProbeSide::Deferred(Box::new(|env| {
            assert_eq!(env, Some((5, 9)));
            src(vec![ColumnData::Int(vec![5, 6, 9])])
        }));
        let mut j = HashJoinOp::new(build, 0, probe, 0);
        let out = collect(&mut j);
        assert_eq!(out.column(0).as_int(), &[5, 9]);
    }

    #[test]
    fn deferred_probe_empty_build() {
        let build = src(vec![ColumnData::Int(vec![])]);
        let probe = ProbeSide::Deferred(Box::new(|env| {
            assert_eq!(env, None);
            src(vec![ColumnData::Int(vec![])])
        }));
        let mut j = HashJoinOp::new(build, 0, probe, 0);
        assert!(collect(&mut j).is_empty());
    }

    #[test]
    fn string_keys_join_by_code() {
        let names = pi_storage::str_column(&["a", "b", "c"]);
        let probe_names = names.gather(&[2, 0, 2]);
        let build = src(vec![names, ColumnData::Int(vec![1, 2, 3])]);
        let probe = src(vec![probe_names]);
        let mut j = HashJoinOp::inner(build, 0, probe, 0);
        let out = collect(&mut j);
        assert_eq!(out.len(), 3);
        assert_eq!(out.column(2).as_int(), &[3, 1, 3]);
    }

    #[test]
    fn large_join_splits_batches() {
        let n = 10_000i64;
        let build = src(vec![ColumnData::Int((0..n).collect())]);
        let probe = src(vec![ColumnData::Int((0..n).rev().collect())]);
        let mut j = HashJoinOp::inner(build, 0, probe, 0);
        let mut total = 0;
        while let Some(b) = j.next() {
            assert!(b.len() <= BATCH_SIZE);
            total += b.len();
        }
        assert_eq!(total, n as usize);
    }

    #[test]
    fn shared_table_joins_without_rebuilding() {
        let table = JoinTable::from_batch(
            Batch::new(vec![
                ColumnData::Int(vec![1, 2, 3]),
                ColumnData::Int(vec![10, 20, 30]),
            ]),
            0,
        );
        assert_eq!(table.envelope(), Some((1, 3)));
        assert_eq!(table.key_count(), 3);
        // Two probes borrow the same table.
        for keys in [vec![2i64, 9, 3], vec![1, 1]] {
            let expect = keys.iter().filter(|k| (1..=3).contains(*k)).count();
            let probe = src(vec![ColumnData::Int(keys)]);
            let mut j = HashJoinOp::with_table(&table, ProbeSide::Ready(probe), 0);
            assert_eq!(collect(&mut j).len(), expect);
        }
    }

    #[test]
    fn shared_table_feeds_envelope_to_deferred_probe() {
        let table = JoinTable::from_batch(Batch::new(vec![ColumnData::Int(vec![4, 8])]), 0);
        let probe = ProbeSide::Deferred(Box::new(|env| {
            assert_eq!(env, Some((4, 8)));
            src(vec![ColumnData::Int(vec![8])])
        }));
        let mut j = HashJoinOp::with_table(&table, probe, 0);
        assert_eq!(collect(&mut j).len(), 1);
    }

    #[test]
    fn shared_table_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<JoinTable>();
    }

    #[test]
    fn empty_shared_table() {
        let table = JoinTable::from_batch(Batch::new(vec![ColumnData::Int(vec![])]), 0);
        assert!(table.is_empty());
        assert_eq!(table.envelope(), None);
        let probe = src(vec![ColumnData::Int(vec![1])]);
        let mut j = HashJoinOp::with_table(&table, ProbeSide::Ready(probe), 0);
        assert!(collect(&mut j).is_empty());
    }
}
