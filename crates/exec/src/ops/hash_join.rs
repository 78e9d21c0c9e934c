//! Inner hash join.
//!
//! The build side is drained and hashed into a [`JoinTable`] on the first
//! pull, then probe batches stream through it. The table is also usable
//! on its own: an immutable, `Sync` hash table that any number of probes
//! borrow. [`JoinTable::probe`] gathers the joined rows;
//! [`JoinTable::pairs`] returns only the matching (probe row, build row)
//! positions, for a caller that reads a few columns of each match where
//! they lie — the NUC collision probe of PatchIndex maintenance.
//!
//! The build is flat: a map from each distinct key to its first build
//! row, and one `next` array chaining a key's rows in ascending position
//! — three allocations per build, not one per key. A probe of a window
//! or a dense batch reads its keys as one slice (`Int` values or `Str`
//! codes), and each key first tests a one-hash bit filter over the build
//! keys (128–256 bits per distinct key): a clear bit proves there is no
//! match, so a probe whose keys mostly miss — the collision probe scans
//! a whole partition for a few hundred changed values — runs a map
//! lookup on under 1 % of its non-keys.

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
/// and `Sync`, so concurrent probes (e.g. the per-partition collision
/// probes of PatchIndex maintenance) can all share one instance by
/// reference — no per-probe rebuild, no batch cloning.
///
/// The build is flat: `heads` maps each distinct key to its first build
/// row, and `next` chains the rows of one key in ascending position, so
/// a build allocates the map, the chain and the filter, not one list per
/// key.
#[derive(Debug)]
pub struct JoinTable {
    /// The first build row of each distinct key.
    heads: IntMap<u32>,
    /// `next[i]`: the next build row with row `i`'s key, or [`CHAIN_END`].
    next: Vec<u32>,
    /// Bit [`filter_bit`] of every build key is set.
    filter: Vec<u64>,
    /// `64 − log2(filter bits)`: the shift [`filter_bit`] takes.
    filter_shift: u32,
    rows: Batch,
    envelope: Option<(i64, i64)>,
}

/// Ends a key's chain in [`JoinTable`]'s `next`.
const CHAIN_END: u32 = u32::MAX;

/// Bits of the build-key filter per distinct key, before rounding up to a
/// power of two. At most one filter bit in 128 is set, so a probe key
/// that is not a build key passes with probability at most 1/128
/// (0.78 %); `filter_passes_under_one_percent_of_non_keys` pins the
/// density and a sampled share under 1 %. A 512-key statement's filter
/// is 8 KiB and stays in L1. Measured on `pibench`'s `ingest_durable`
/// (4 partitions of ~101k rows, 512-row statements, 2-vCPU Xeon VM): at
/// 32 bits per key 3.1 % of the probed rows that match nothing passed,
/// at 128 bits about 0.77 %, and the statement's pooled probe went 294 →
/// 259 µs.
const FILTER_BITS_PER_KEY: usize = 128;

/// The filter bit of key `k` (multiplicative hashing: the top bits of
/// `k × 2^64/φ`).
#[inline]
fn filter_bit(k: i64, shift: u32) -> usize {
    ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

impl JoinTable {
    /// Hashes `rows` on column `key`. A selected batch is materialized:
    /// the table keeps its rows.
    pub fn from_batch(rows: Batch, key: usize) -> Self {
        let rows = rows.materialize();
        let mut heads: IntMap<u32> = int_map();
        let mut next = vec![CHAIN_END; rows.len()];
        let mut envelope: Option<(i64, i64)> = None;
        if !rows.is_empty() {
            let key_col = rows.column(key);
            // Walking the rows backwards leaves each key's head at its
            // first row and its chain ascending.
            for i in (0..rows.len()).rev() {
                let k = join_key(key_col, i);
                if let Some(head) = heads.insert(k, i as u32) {
                    next[i] = head;
                }
                envelope = Some(match envelope {
                    None => (k, k),
                    Some((lo, hi)) => (lo.min(k), hi.max(k)),
                });
            }
        }
        let bits = (heads.len() * FILTER_BITS_PER_KEY)
            .next_power_of_two()
            .max(64);
        let filter_shift = 64 - bits.trailing_zeros();
        let mut filter = vec![0u64; bits / 64];
        for &k in heads.keys() {
            let bit = filter_bit(k, filter_shift);
            filter[bit / 64] |= 1 << (bit % 64);
        }
        JoinTable {
            heads,
            next,
            filter,
            filter_shift,
            rows,
            envelope,
        }
    }

    /// Drains `op` and hashes its output on column `key`.
    pub fn build(op: &mut dyn Operator, key: usize) -> Self {
        Self::from_batch(collect(op), key)
    }

    /// `[min, max]` of the build keys (`None` when the build side is
    /// empty).
    pub fn envelope(&self) -> Option<(i64, i64)> {
        self.envelope
    }

    /// The materialized build rows (dense): [`JoinTable::pairs`]' build
    /// positions index them.
    pub fn rows(&self) -> &Batch {
        &self.rows
    }

    /// Whether the build side held no rows.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Whether key `k` passes the filter: `false` proves it is no build
    /// key. Inlined into the probe loops, which run it on every row.
    #[inline(always)]
    fn may_hold(&self, k: i64) -> bool {
        let bit = filter_bit(k, self.filter_shift);
        self.filter[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Pushes a (`probe`, build row) pair for every build row with key
    /// `k`, in ascending build position. Out of line: under 1 % of
    /// non-keys get here, and the probe loops stay small.
    #[inline(never)]
    fn push_matches(&self, k: i64, probe: usize, out: &mut (Vec<usize>, Vec<usize>)) {
        if let Some(&head) = self.heads.get(&k) {
            let mut m = head;
            while m != CHAIN_END {
                out.0.push(probe);
                out.1.push(m as usize);
                m = self.next[m as usize];
            }
        }
    }

    /// (probe row, build row) position pairs of every match of `batch`'s
    /// rows on column `probe_key`, in probe order, and each probe row's
    /// matches in ascending build position. Probe positions index
    /// `batch`'s backing ([`Batch::raw_column`]), build positions
    /// [`JoinTable::rows`]. The batch is only read, where it lies.
    // Inlined so the probe loop compiles into the caller: called across
    // the crate boundary, 512-row NUC inserts into a 100k-row table ran
    // 5–10 % slower (2-vCPU Xeon VM).
    #[inline]
    pub fn pairs(&self, batch: &Batch, probe_key: usize) -> (Vec<usize>, Vec<usize>) {
        match batch.raw_column(probe_key) {
            ColumnData::Int(v) => self.pairs_in(batch, v),
            ColumnData::Str { codes, .. } => self.pairs_in(batch, codes),
            other => panic!("unsupported join key type {:?}", other.data_type()),
        }
    }

    #[inline]
    fn pairs_in<K: Copy + Into<i64>>(&self, batch: &Batch, keys: &[K]) -> (Vec<usize>, Vec<usize>) {
        let mut out = (Vec::new(), Vec::new());
        // One loop per case: a window or a dense batch, which every
        // maintenance probe is, reads its keys as one slice, with no
        // per-row selection lookup or bounds check against the column.
        match batch.sel() {
            Some(sel) => {
                for &r in sel {
                    let k = keys[r].into();
                    if self.may_hold(k) {
                        self.push_matches(k, r, &mut out);
                    }
                }
            }
            None => {
                let span = batch.span();
                for (i, &k) in keys[span.clone()].iter().enumerate() {
                    let k = k.into();
                    if self.may_hold(k) {
                        self.push_matches(k, span.start + i, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Joins one probe batch against the table: `[probe columns..., build
    /// columns...]` for every matching pair, in probe order. Only probe
    /// rows with a match are gathered, and a caller can probe a result it
    /// keeps.
    pub fn probe(&self, batch: &Batch, probe_key: usize) -> Batch {
        let (probe_idx, build_idx) = self.pairs(batch, probe_key);
        let probe_cols = (0..batch.width()).map(|c| batch.raw_column(c).gather(&probe_idx));
        let build_cols = (0..self.rows.width()).map(|c| self.rows.raw_column(c).gather(&build_idx));
        Batch::new(probe_cols.chain(build_cols).collect())
    }
}

/// Inner hash join; output columns are `[probe columns..., build columns...]`.
pub struct HashJoinOp<'a> {
    /// The build operator and its key column, until the first pull drains
    /// it into `table`.
    build: Option<(OpRef<'a>, usize)>,
    table: JoinTable,
    probe: OpRef<'a>,
    probe_key: usize,
    pending: Vec<Batch>,
}

impl<'a> HashJoinOp<'a> {
    /// Creates a hash join. `build_key` / `probe_key` are column indices of
    /// the respective inputs.
    pub fn inner(build: OpRef<'a>, build_key: usize, probe: OpRef<'a>, probe_key: usize) -> Self {
        HashJoinOp {
            build: Some((build, build_key)),
            table: JoinTable::from_batch(Batch::default(), 0),
            probe,
            probe_key,
            pending: Vec::new(),
        }
    }
}

impl Operator for HashJoinOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        if let Some((mut op, key)) = self.build.take() {
            self.table = JoinTable::build(op.as_mut(), key);
        }
        if let Some(b) = self.pending.pop() {
            return Some(b);
        }
        if self.table.is_empty() {
            return None;
        }
        loop {
            let batch = self.probe.next()?;
            if batch.is_empty() {
                continue;
            }
            let out = self.table.probe(&batch, self.probe_key);
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
        // Two probes borrow the same table; `pairs` names exactly the
        // rows `probe` gathers.
        for keys in [vec![2i64, 9, 3], vec![1, 1]] {
            let expect = keys.iter().filter(|k| (1..=3).contains(*k)).count();
            let batch = Batch::new(vec![ColumnData::Int(keys)]);
            let joined = table.probe(&batch, 0);
            assert_eq!(joined.len(), expect);
            let (probe_pos, build_pos) = table.pairs(&batch, 0);
            assert_eq!(
                joined.column(0).as_int(),
                batch.gather(&probe_pos).column(0).as_int()
            );
            assert_eq!(
                joined.column(2).as_int(),
                table.rows().gather(&build_pos).column(1).as_int()
            );
        }
    }

    #[test]
    fn filter_passes_every_match() {
        // Build keys spread over the whole `i64` range, so the filter's
        // top-bit hashing sees negative and huge keys alike.
        let keys: Vec<i64> = (-3000..3000)
            .step_by(7)
            .map(|k: i64| k.wrapping_mul(0x0123_4567_89AB))
            .collect();
        let table = JoinTable::from_batch(Batch::new(vec![ColumnData::Int(keys.clone())]), 0);
        let probe: Vec<i64> = (-3000..3000)
            .map(|k: i64| k.wrapping_mul(0x0123_4567_89AB))
            .collect();
        let (probe_pos, build_pos) =
            table.pairs(&Batch::new(vec![ColumnData::Int(probe.clone())]), 0);
        let expect: Vec<(usize, usize)> = probe
            .iter()
            .enumerate()
            .filter_map(|(p, k)| keys.iter().position(|b| b == k).map(|b| (p, b)))
            .collect();
        assert_eq!(
            probe_pos.into_iter().zip(build_pos).collect::<Vec<_>>(),
            expect
        );
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
        let probe = Batch::new(vec![ColumnData::Int(vec![1])]);
        assert!(table.probe(&probe, 0).is_empty());
        assert_eq!(table.pairs(&probe, 0), (Vec::new(), Vec::new()));
    }

    /// SplitMix64: a fixed stream of well-mixed keys.
    fn splitmix(state: &mut u64) -> i64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as i64
    }

    /// The bound `FILTER_BITS_PER_KEY` states: at most one filter bit in
    /// 128 set, and under 1 % of 2^20 non-members passing.
    #[test]
    fn filter_passes_under_one_percent_of_non_keys() {
        let mut state = 1;
        for n in [1usize, 512, 4096] {
            let keys: Vec<i64> = (0..n).map(|_| splitmix(&mut state)).collect();
            let table = JoinTable::from_batch(Batch::new(vec![ColumnData::Int(keys.clone())]), 0);
            let set: u32 = table.filter.iter().map(|w| w.count_ones()).sum();
            let bits = table.filter.len() * 64;
            assert!(
                set as usize * FILTER_BITS_PER_KEY <= bits,
                "{n} keys set {set} of {bits} filter bits"
            );
            let members: std::collections::HashSet<i64> = keys.into_iter().collect();
            let (mut probed, mut passed) = (0u32, 0u32);
            while probed < 1 << 20 {
                let k = splitmix(&mut state);
                if members.contains(&k) {
                    continue;
                }
                probed += 1;
                passed += u32::from(table.may_hold(k));
            }
            let share = f64::from(passed) / f64::from(probed);
            assert!(share < 0.01, "{n} keys: {share} of non-keys pass");
        }
    }
}
