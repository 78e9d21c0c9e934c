//! The interface the four workloads share, and the helpers they all use.

use std::collections::BTreeMap;

use patchindex::ConcurrentTable;
use pi_exec::Batch;
use pi_planner::{execute, Plan, QueryEngine, NO_INDEXES};

use crate::rec::{Recorder, Stages};

/// Per-layer metric values by name (names come from `metrics::PER_LAYER`).
pub type Metrics = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops (reads + writes) in one round; the same every round.
    const OPS_PER_ROUND: usize;
    /// Milliseconds one round takes on the reference box, driver overhead
    /// (calibration, input generation) included; `--seconds` is turned
    /// into a fixed round count with it.
    const ROUND_MS: f64;
    /// Rounds between two occurrences of the workload's slowest cadence
    /// (propagate, checkpoint); traced and untraced blocks are this long.
    const CADENCE: usize;
    type Input;

    /// Everything the run needs that is not product work: table contents
    /// and op parameters, derived from the seed alone. Untimed.
    fn generate(seed: u64, smoke: bool) -> Self::Input;
    /// Product set-up, each stage timed through `st`.
    fn setup(input: &Self::Input, traced: bool, st: &mut Stages, rec: &mut Recorder) -> Self;
    /// Round `r` (counted from the first warm-up round): a fixed op
    /// sequence, only parameter values vary.
    fn round(&mut self, r: usize, rec: &mut Recorder);
    /// Between rounds, outside timing: answers against index-free replay.
    /// Returns how many comparisons passed.
    fn audit(&mut self) -> Result<u64, String>;
    /// After the last round: consistency of every index, recovery, the
    /// reference variant — whatever is too slow to run between rounds.
    fn final_audit(&mut self) -> Result<u64, String>;
    /// Σ `PatchIndex::memory_bytes()` and visible rows, at end of run.
    fn index_bytes_and_rows(&self) -> (usize, usize);
    /// Rows pending in delta stores (appended, deleted, modified).
    fn delta_rows(&self) -> usize;
    /// Traced run only, after the rounds: layer costs by difference and
    /// by stand-alone replay, read from registries and spans.
    fn layers(&mut self, rec: &mut Recorder, m: &mut Metrics);
    /// Shuts servers down and removes temp dirs; may hand state that is
    /// expensive to generate back to the input for the next set-up.
    fn teardown(self, input: &Self::Input);
}

/// First column of a result as integers (every plan the benchmark runs
/// returns integer columns).
pub fn int_col(b: &Batch) -> Vec<i64> {
    if b.width() == 0 {
        Vec::new()
    } else {
        b.column(0).as_int().to_vec()
    }
}

/// Byte-identity of a served answer and its index-free replay. Ordered
/// outputs are compared verbatim, bag outputs (distinct) as sorted sets.
pub fn same_answer(got: &Batch, want: &Batch, ordered: bool, what: &str) -> Result<(), String> {
    let (mut g, mut w) = (int_col(got), int_col(want));
    if !ordered {
        g.sort_unstable();
        w.sort_unstable();
    }
    if g == w {
        Ok(())
    } else {
        Err(format!(
            "{what}: answer diverged from index-free replay ({} rows vs {})",
            g.len(),
            w.len()
        ))
    }
}

/// Rows pending in a table's delta stores.
pub fn table_delta_rows(t: &pi_storage::Table) -> usize {
    t.partitions()
        .iter()
        .map(|p| {
            let d = p.delta();
            // base_visible_len() = base rows − deleted rows, so the sum
            // below is appended + deleted + (1 if modifies are pending):
            // the modify map's size is not public.
            let base_rows = p.base_column(0).len();
            d.append_len() + (base_rows - d.base_visible_len()) + usize::from(d.has_modifies())
        })
        .sum()
}

/// A read plan of the micro workloads: the plan, whether its output is
/// ordered, and a label for audit messages.
pub type ReadPlan = (Plan, bool, &'static str);

/// One read op of the micro workloads: a fresh snapshot, then the query —
/// through `query_traced` in a traced round, feeding `agg`. Returns the
/// rows in the result and counts an empty one as a failed op.
pub fn snapshot_read(
    handle: &ConcurrentTable,
    plan: &Plan,
    agg: &mut OpAgg,
    rec: &mut Recorder,
) -> usize {
    let rows = rec.read(|rec| {
        let mut snap = rec.span("snapshot", |_| handle.snapshot());
        if rec.traced {
            let (batch, trace) = rec.span("query", |_| snap.query_traced(plan));
            agg.add(&trace);
            batch.len()
        } else {
            rec.span("query", |_| snap.query(plan)).len()
        }
    });
    if rows == 0 {
        rec.fail("empty result");
    }
    rows
}

/// Every plan's answer on the current snapshot against its index-free
/// replay on the same snapshot.
pub fn audit_plans(handle: &ConcurrentTable, plans: &[ReadPlan]) -> Result<u64, String> {
    let mut snap = handle.snapshot();
    for (plan, ordered, what) in plans {
        let got = snap.query(plan);
        let want = execute(plan, snap.table(), NO_INDEXES);
        same_answer(&got, &want, *ordered, what)?;
    }
    Ok(plans.len() as u64)
}

/// Σ `PatchIndex::memory_bytes()` and visible rows of the current snapshot.
pub fn snapshot_index_bytes_and_rows(handle: &ConcurrentTable) -> (usize, usize) {
    let snap = handle.snapshot();
    (
        snap.indexes().iter().map(|i| i.memory_bytes()).sum(),
        snap.table().visible_len(),
    )
}

/// Mean over queries of the summed inclusive time (ms) of the operators
/// of one kind, plus row counts, from query traces. A kind is a trace
/// label without its placement suffix: `Sort`, `Sort(partition)` and
/// `Sort(global)` are all `Sort`.
#[derive(Debug, Default, Clone)]
pub struct OpAgg {
    pub queries: usize,
    pub ms_by_label: BTreeMap<String, f64>,
    pub rows_examined: u64,
    pub rows_returned: u64,
    pub exec_ns: u64,
    pub plan_ns: u64,
    pub candidates: u64,
    pub rewrites: u64,
}

impl OpAgg {
    pub fn add(&mut self, t: &pi_obs::QueryTrace) {
        self.queries += 1;
        self.plan_ns += t.planner.nanos;
        self.candidates += t.planner.candidates_enumerated;
        self.rewrites += t.planner.rewrites_chosen;
        self.rows_returned += t.rows_out;
        self.exec_ns += t.total_nanos.saturating_sub(t.planner.nanos);
        for op in &t.operators {
            let kind = op.label.split('(').next().unwrap_or(&op.label);
            *self.ms_by_label.entry(kind.to_string()).or_default() += op.nanos as f64 / 1e6;
            if op.label.starts_with("Scan") || op.label.starts_with("PatchScan") {
                self.rows_examined += op.rows_out;
            }
        }
    }

    fn per_query(&self, label: &str) -> f64 {
        self.ms_by_label.get(label).copied().unwrap_or(0.0) / self.queries.max(1) as f64
    }

    /// Fills the `planner.*` counters and `exec.*` operator metrics.
    pub fn report(&self, m: &mut Metrics) {
        let q = self.queries.max(1) as f64;
        m.insert("planner.plan_us", self.plan_ns as f64 / 1e3 / q);
        m.insert("planner.candidates_per_query", self.candidates as f64 / q);
        m.insert("planner.rewrites_per_query", self.rewrites as f64 / q);
        m.insert(
            "exec.scan_ms",
            self.per_query("Scan") + self.per_query("Scan+Filter"),
        );
        m.insert(
            "exec.patch_scan_exclude_ms",
            self.per_query("PatchScan[exclude_patches]"),
        );
        m.insert(
            "exec.patch_scan_use_ms",
            self.per_query("PatchScan[use_patches]"),
        );
        m.insert("exec.distinct_ms", self.per_query("Distinct"));
        m.insert("exec.sort_ms", self.per_query("Sort"));
        m.insert("exec.ordered_merge_ms", self.per_query("OrderedMerge"));
        m.insert("exec.union_ms", self.per_query("UnionAll"));
        m.insert(
            "exec.rows_per_us",
            self.rows_examined as f64 / (self.exec_ns as f64 / 1e3).max(1e-9),
        );
        m.insert(
            "exec.rows_examined_per_row_returned",
            self.rows_examined as f64 / self.rows_returned.max(1) as f64,
        );
    }
}

/// The micro table `adhoc_exec` and `ingest_durable` share: four integer
/// columns — nearly unique (e = 5 %), nearly sorted (e = 5 %), nearly
/// constant (e = 1 %), plain — with one Bitmap PatchIndex on each of the
/// first three.
pub mod micro {
    use patchindex::{Constraint, SortDir};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};

    use crate::util::Rng;

    pub const E_NUC: f64 = 0.05;
    pub const E_NSC: f64 = 0.05;
    pub const E_NCC: f64 = 0.01;
    const NCC_CONST: i64 = 7;

    pub const INDEXES: [(usize, Constraint); 3] = [
        (0, Constraint::NearlyUnique),
        (1, Constraint::NearlySorted(SortDir::Asc)),
        (2, Constraint::NearlyConstant),
    ];

    /// The sorted value row `i` of partition `pid` starts with.
    pub fn nsc_backbone(rows: usize, pid: usize, i: usize) -> i64 {
        ((pid * rows + i) * 4) as i64
    }

    /// A value for the NUC column: a fresh unique one, or — at the
    /// exception rate — one from a small per-partition duplicate pool.
    pub fn nuc_value(rng: &mut Rng, pid: usize, fresh: &mut i64) -> i64 {
        if rng.chance(E_NUC) {
            -1 - (pid as i64 * 4096 + rng.below(64) as i64)
        } else {
            *fresh += 1;
            *fresh
        }
    }

    /// A value for the NSC column that keeps its row in order (just above
    /// `backbone`, below the next row's) or — at the exception rate — a
    /// random one from the whole domain of `total_rows` rows.
    pub fn nsc_value(rng: &mut Rng, backbone: i64, total_rows: usize) -> i64 {
        if rng.chance(E_NSC) {
            rng.below((total_rows * 4) as u64) as i64
        } else {
            backbone + 1 + rng.below(2) as i64
        }
    }

    pub fn ncc_value(rng: &mut Rng) -> i64 {
        if rng.chance(E_NCC) {
            100 + rng.below(1000) as i64
        } else {
            NCC_CONST
        }
    }

    /// Column contents per partition, from the generator alone.
    pub fn columns(rng: &mut Rng, parts: usize, rows: usize) -> Vec<[Vec<i64>; 4]> {
        (0..parts)
            .map(|pid| {
                let pool = ((rows as f64 * E_NUC) as u64 / 2).max(1);
                let mut cols: [Vec<i64>; 4] = Default::default();
                for i in 0..rows {
                    cols[0].push(if rng.chance(E_NUC) {
                        -1_000_000 - (pid as i64 * 1_000_000 + rng.below(pool) as i64)
                    } else {
                        1_000_000 + (pid * rows + i) as i64
                    });
                    cols[1].push(if rng.chance(E_NSC) {
                        rng.below((parts * rows * 4) as u64) as i64
                    } else {
                        nsc_backbone(rows, pid, i)
                    });
                    cols[2].push(ncc_value(rng));
                    cols[3].push(rng.below(61) as i64);
                }
                cols
            })
            .collect()
    }

    /// Loads the columns into a round-robin table (product work: timed).
    pub fn table(name: &str, parts: &[[Vec<i64>; 4]]) -> Table {
        let schema = Schema::new(
            ["nuc", "nsc", "ncc", "plain"]
                .iter()
                .map(|n| Field::new(*n, DataType::Int))
                .collect(),
        );
        let mut t = Table::new(name, schema, parts.len(), Partitioning::RoundRobin);
        for (pid, cols) in parts.iter().enumerate() {
            let batch: Vec<ColumnData> = cols.iter().map(|c| ColumnData::Int(c.clone())).collect();
            t.load_partition(pid, &batch);
        }
        t.propagate_all();
        t
    }
}
