//! Cross-crate integration test helpers.
//!
//! The actual tests live in `tests/tests/`; this crate only hosts shared
//! fixtures so every integration test builds the same workloads, and the
//! one randomized statement stream the exactness suites drive: a
//! [`Step`] drawn from [`steps`], resolved against the live table into a
//! `patchindex::Statement` ([`Step::resolve`]) and applied through an
//! [`Applier`], which refuses any statement the WAL would refuse. Every
//! suite's oracle is an index-free execution over a table fed the same
//! statements.

use std::io;
use std::ops::Range;

use patchindex::{Applied, Constraint, Design, IndexedTable, SortDir, Statement, TableWriter};
use pi_datagen::{generate, MicroDataset, MicroKind, MicroSpec};
use pi_durability::DurableWriter;
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Union;
use proptest::test_runner::TestRng;

/// A small but non-trivial microbenchmark dataset.
pub fn micro(rows: usize, e: f64, kind: MicroKind) -> MicroDataset {
    generate(&MicroSpec::new(rows, e, kind).with_partitions(3))
}

/// Partition count of [`base_table`].
pub const PARTS: usize = 3;
/// Partition `p` owns keys `[p*1000, (p+1)*1000)` and values
/// `[p*100, p*100+40)` — duplicates happen constantly, but only within a
/// partition (KeyRange routing), mirroring how the paper's microbenchmark
/// partitions by the indexed column.
pub const VAL_POOL: i64 = 40;

/// A `(k, v)` table with one partition per `(keys, values)` pair, loaded
/// verbatim and propagated.
pub fn kv_table(partitioning: Partitioning, parts: Vec<(Vec<i64>, Vec<i64>)>) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ]);
    let mut t = Table::new("kv", schema, parts.len(), partitioning);
    for (pid, (keys, vals)) in parts.into_iter().enumerate() {
        t.load_partition(pid, &[ColumnData::Int(keys), ColumnData::Int(vals)]);
    }
    t.propagate_all();
    t
}

/// [`PARTS`] key-range partitions of `rows_per_part` rows: the `i`-th row
/// of partition `p` has key `p*1000 + i` and value `value(p, i)`.
pub fn banded_table(rows_per_part: usize, value: impl Fn(i64, i64) -> i64) -> Table {
    let rows = 0..rows_per_part as i64;
    kv_table(
        Partitioning::KeyRange {
            col: 0,
            boundaries: vec![1000, 2000],
        },
        (0..PARTS as i64)
            .map(|p| {
                let keys = rows.clone().map(|i| p * 1000 + i).collect();
                (keys, rows.clone().map(|i| value(p, i)).collect())
            })
            .collect(),
    )
}

/// The `(k, v)` table the partition-disjoint streams start from: mostly
/// unique, ascending values per partition, drawn from its own pool.
pub fn base_table(rows_per_part: usize) -> Table {
    banded_table(rows_per_part, |p, i| p * 100 + i % VAL_POOL)
}

/// The first column of an integer result (`[]` for an empty batch, which
/// carries no columns).
pub fn int_column(b: &pi_exec::Batch) -> Vec<i64> {
    if b.is_empty() {
        Vec::new()
    } else {
        b.column(0).as_int().to_vec()
    }
}

/// One step of a randomized stream over a `(k, v)` table. Partition, row
/// and slot picks are seeds, resolved against the live table when the
/// step applies, so one stream fits any partition count and any state.
#[derive(Debug, Clone)]
pub enum Step {
    /// One row per `(partition pick, value)`, with a fresh key that key-range
    /// routing sends to the picked partition (round-robin ignores it).
    Insert(Vec<(usize, i64)>),
    /// Overwrite `v` of the picked rows with `values`, cycled.
    Modify {
        /// Partition pick, reduced modulo the partition count.
        pid: usize,
        /// Row picks, reduced modulo the visible length and deduplicated.
        rid_seeds: Vec<u32>,
        /// New values, cycled over the picked rows.
        values: Vec<i64>,
    },
    /// Delete the picked rows, always leaving `KEEP` (two) behind.
    Delete {
        /// Partition pick, reduced modulo the partition count.
        pid: usize,
        /// Row picks, reduced modulo the visible length and deduplicated.
        rid_seeds: Vec<u32>,
    },
    /// Create the index `INDEX_KINDS` names (kind modulo its length),
    /// unless `MAX_INDEXES` (four) are live.
    AddIndex(u8),
    /// Drop the index the seed picks.
    DropIndex(u32),
    /// Recompute the index the seed picks.
    Recompute(u32),
    /// Merge pending deltas into base storage (no statement).
    Propagate,
    /// Publish an epoch (no statement: the driver publishes).
    Publish,
}

/// Rows a delete leaves in its partition.
const KEEP: usize = 2;
/// Indexes an [`Step::AddIndex`] may leave live.
const MAX_INDEXES: usize = 4;
/// The indexes [`Step::AddIndex`] creates: NUC and NCC on `v`, NSC on `k`,
/// both designs.
const INDEX_KINDS: [(usize, Constraint, Design); 5] = [
    (1, Constraint::NearlyUnique, Design::Bitmap),
    (1, Constraint::NearlyUnique, Design::Identifier),
    (0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap),
    (
        0,
        Constraint::NearlySorted(SortDir::Desc),
        Design::Identifier,
    ),
    (1, Constraint::NearlyConstant, Design::Bitmap),
];

/// The values a stream writes: partition pick `p`, drawn from
/// `0..picks`, writes `p * stride + v` for `v` in `values`.
#[derive(Debug, Clone)]
pub struct Pool {
    picks: usize,
    stride: i64,
    values: Range<i64>,
}

impl Pool {
    /// One pool every partition writes from (up to 8 partitions picked).
    pub fn shared(values: Range<i64>) -> Pool {
        Pool {
            picks: 8,
            stride: 0,
            values,
        }
    }

    /// [`base_table`]'s partition-disjoint pools: partition `p` writes
    /// `p*100 + 0..VAL_POOL`.
    pub fn per_partition() -> Pool {
        Pool {
            picks: PARTS,
            stride: 100,
            values: 0..VAL_POOL,
        }
    }
}

/// How often [`steps`] draws each [`Step`] kind, in declaration order
/// (Insert, Modify, Delete, AddIndex, DropIndex, Recompute, Propagate,
/// Publish): an arm of weight `w` appears `w` times in the union.
pub type Mix = [u32; 8];
/// Row churn over a fixed index set, with recomputes and publishes.
pub const CHURN: Mix = [2, 2, 1, 0, 0, 1, 0, 1];
/// Row updates with propagation, no epochs.
pub const UPDATES: Mix = [1, 1, 1, 0, 0, 0, 1, 0];
/// Inserts with recomputes and publishes.
pub const GROWTH: Mix = [3, 0, 0, 0, 0, 1, 0, 1];
/// Every statement kind, index DDL included, with publishes.
pub const DDL: Mix = [4, 2, 1, 1, 1, 1, 0, 3];

/// Random [`Step`]s writing values from `pool`, drawn by `mix`.
pub fn steps(pool: Pool, mix: Mix) -> Union<Step> {
    let Pool {
        picks,
        stride,
        values,
    } = pool;
    let value = move |p: usize, v: i64| p as i64 * stride + v;
    let seeds = |n| vec(any::<u32>(), 1..n);
    let arm = |kind: usize| match kind {
        0 => vec((0..picks, values.clone()), 1..8)
            .prop_map(move |rows| {
                Step::Insert(rows.iter().map(|&(p, v)| (p, value(p, v))).collect())
            })
            .boxed(),
        1 => (0..picks, seeds(6), vec(values.clone(), 6..7))
            .prop_map(move |(pid, rid_seeds, vs)| Step::Modify {
                pid,
                rid_seeds,
                values: vs.iter().map(|&v| value(pid, v)).collect(),
            })
            .boxed(),
        2 => (0..picks, seeds(4))
            .prop_map(|(pid, rid_seeds)| Step::Delete { pid, rid_seeds })
            .boxed(),
        3 => any::<u8>().prop_map(Step::AddIndex).boxed(),
        4 => any::<u32>().prop_map(Step::DropIndex).boxed(),
        5 => any::<u32>().prop_map(Step::Recompute).boxed(),
        6 => Just(Step::Propagate).boxed(),
        _ => Just(Step::Publish).boxed(),
    };
    let arms = mix.iter().enumerate();
    Union::new(
        arms.flat_map(|(kind, &w)| (0..w).map(move |_| arm(kind)))
            .collect(),
    )
}

/// `len` steps of [`steps`] drawn from a generator seeded by `identity`
/// (and `PROPTEST_SEED`, like a property): the seeded stress lanes'
/// streams.
pub fn seeded_steps(pool: Pool, mix: Mix, identity: &str, len: usize) -> Vec<Step> {
    let mut rng = TestRng::deterministic(identity);
    let steps = steps(pool, mix);
    (0..len).map(|_| steps.generate(&mut rng)).collect()
}

/// A key routed to partition `pid` under key-range routing, made from the
/// per-row `fresh` number (round-robin routing ignores keys).
fn key_for(table: &Table, pid: usize, fresh: i64) -> i64 {
    match table.partitioning() {
        Partitioning::RoundRobin => 100_000 + fresh,
        Partitioning::KeyRange { boundaries, .. } => {
            let lo = pid.checked_sub(1).map_or(0, |p| boundaries[p]);
            match boundaries.get(pid) {
                Some(hi) => lo + fresh % (hi - lo),
                None => lo + fresh,
            }
        }
    }
}

impl Step {
    /// The statement this step writes against `it`'s live table and index
    /// count, or `None` when it writes nothing: [`Step::Propagate`] and
    /// [`Step::Publish`], a pick into an empty partition, a delete with
    /// no more than `KEEP` rows to pick from, an index step with no
    /// index to name, or an index past `MAX_INDEXES`. Deterministic in
    /// (`self`, `it`): insert keys derive from the statement counter, so
    /// twin tables fed one stream, a rerun and a WAL replay all agree.
    pub fn resolve(&self, it: &IndexedTable) -> Option<Statement> {
        let table = it.table();
        let nidx = it.indexes().len();
        let pick = |pid: usize| {
            let pid = pid % table.partition_count();
            (pid, table.partition(pid).visible_len())
        };
        let rids = |seeds: &[u32], len: usize| {
            let mut rids: Vec<usize> = seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            rids
        };
        match self {
            Step::Insert(rows) => {
                let fresh = it.statements() as i64 * 64;
                let rows = rows.iter().zip(fresh..).map(|(&(pid, v), fresh)| {
                    vec![
                        Value::Int(key_for(table, pick(pid).0, fresh)),
                        Value::Int(v),
                    ]
                });
                Some(Statement::Insert(rows.collect()))
            }
            Step::Modify {
                pid,
                rid_seeds,
                values,
            } => {
                let (pid, len) = pick(*pid);
                (len > 0).then(|| {
                    let rids = rids(rid_seeds, len);
                    let values = values.iter().cycle().take(rids.len());
                    Statement::Modify {
                        pid,
                        values: values.map(|&v| Value::Int(v)).collect(),
                        rids,
                        col: 1,
                    }
                })
            }
            Step::Delete { pid, rid_seeds } => {
                let (pid, len) = pick(*pid);
                (len > KEEP).then(|| {
                    let mut rids = rids(rid_seeds, len);
                    rids.truncate(len - KEEP);
                    Statement::Delete { pid, rids }
                })
            }
            Step::AddIndex(kind) => (nidx < MAX_INDEXES).then(|| {
                let (col, constraint, design) = INDEX_KINDS[*kind as usize % INDEX_KINDS.len()];
                Statement::AddIndex {
                    col,
                    constraint,
                    design,
                }
            }),
            Step::DropIndex(seed) => (nidx > 0).then(|| Statement::DropIndex {
                slot: *seed as usize % nidx,
            }),
            Step::Recompute(seed) => (nidx > 0).then(|| Statement::Recompute {
                slot: *seed as usize % nidx,
            }),
            Step::Propagate | Step::Publish => None,
        }
    }
}

/// What a [`Step`] stream is applied to.
pub trait Applier {
    /// The state the next step resolves against.
    fn staging(&self) -> &IndexedTable;
    /// Applies one statement [`Statement::check`] accepts and returns
    /// its receipt.
    fn write(&mut self, stmt: Statement) -> io::Result<Applied>;
    /// Merges pending deltas into base storage.
    fn propagate(&mut self);

    /// Resolves `step` against the live state and applies it, returning
    /// the receipt, or `None` when the step wrote no statement; a
    /// [`Step::Publish`] is the driver's to act on. Panics on a statement
    /// [`Statement::check`] refuses: the WAL would refuse it too.
    fn step(&mut self, step: &Step) -> io::Result<Option<Applied>> {
        if let Step::Propagate = step {
            self.propagate();
            return Ok(None);
        }
        let Some(stmt) = step.resolve(self.staging()) else {
            return Ok(None);
        };
        let it = self.staging();
        if let Err(e) = stmt.check(it.table(), it.indexes().len()) {
            panic!("{step:?} resolved to a refused {stmt:?}: {e}");
        }
        self.write(stmt).map(Some)
    }
}

impl Applier for IndexedTable {
    fn staging(&self) -> &IndexedTable {
        self
    }
    fn write(&mut self, stmt: Statement) -> io::Result<Applied> {
        Ok(self.apply(&stmt))
    }
    fn propagate(&mut self) {
        IndexedTable::propagate(self);
    }
}

impl Applier for TableWriter {
    fn staging(&self) -> &IndexedTable {
        TableWriter::staging(self)
    }
    fn write(&mut self, stmt: Statement) -> io::Result<Applied> {
        Ok(self.staging_mut().apply(&stmt))
    }
    fn propagate(&mut self) {
        self.staging_mut().propagate();
    }
}

/// Every statement is logged before it applies; an IO error surfaces
/// with the statement neither logged nor applied.
impl Applier for DurableWriter {
    fn staging(&self) -> &IndexedTable {
        DurableWriter::staging(self)
    }
    fn write(&mut self, stmt: Statement) -> io::Result<Applied> {
        self.apply(stmt)
    }
    /// A durable writer has no propagate statement (it never
    /// propagates), so there is nothing to apply.
    fn propagate(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_has_three_partitions() {
        let ds = micro(3_000, 0.1, MicroKind::Nuc);
        assert_eq!(ds.table.partition_count(), 3);
    }
}
