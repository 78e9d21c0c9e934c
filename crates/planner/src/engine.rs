//! The query facade and the one pipeline behind it.
//!
//! [`QueryEngine`] encapsulates planning and execution, and every entry
//! point — owned table, writer staging table, snapshot with or without a
//! result cache; plain or traced — runs the same `run` function
//! over a borrowed view of the table. A plain query runs exactly the
//! operator tree [`crate::execute`] runs; only a traced one (EXPLAIN
//! ANALYZE) attaches meters to it. A query is a read: every method
//! takes `&self`, and nothing below runs maintenance or copies an
//! index.
//!
//! 1. **plan** — optimize against the view's [`IndexCatalog`] (all
//!    indexes, per-partition stats), once: every index is consistent
//!    with its table after every statement, so every binding the
//!    optimizer picks is exact. The chosen plan keeps its zero-patch
//!    branches; step 3 prunes them. Feeds the `planner.*` registry
//!    counters.
//! 2. **probe** — with a [`ResultCache`] attached, look the chosen plan's
//!    canonical fingerprint up at the snapshot's epoch; the stored
//!    canonical bytes are compared, not just the hash, so a hit is the
//!    exact answer.
//! 3. **lower + execute** — on a miss (or without a cache), lower with
//!    per-partition zero-branch pruning and run to rows; a traced
//!    request lowers under an `ExecObserver` that meters every operator.
//! 4. **insert** — cache the result at the snapshot's epoch with the
//!    index slots the plan binds, which the next publish's change set
//!    checks.
//! 5. **evidence** — record what the advisor learns from the query as
//!    [`WorkloadEvent`]s (rule table on [`QueryEngine`]) in the view's
//!    `WorkloadSink`, one lock per query; the sink sums them until the
//!    advisor takes the delta (`WorkloadSink::take`).
//! 6. **trace** — for a traced request, assemble the [`QueryTrace`].
//!
//! The table views differ only in what they lend the pipeline:
//!
//! * [`TableSnapshot`] — concurrent readers. Immutable, catalog
//!   precomputed at publish time, result cache and metrics registry when
//!   the table was built with them.
//! * [`ConcurrentTable`] — each call runs on a freshly acquired snapshot.
//! * [`IndexedTable`] — the single-threaded owner: its live state and
//!   a catalog read off it per query.
//! * [`TableWriter`] — its staging [`IndexedTable`] (writer queries see
//!   staged state immediately).

use std::sync::Arc;
use std::time::Instant;

use patchindex::snapshot::{WorkloadEvent, WorkloadSink};
use patchindex::{
    ConcurrentTable, IndexCatalog, IndexedTable, PatchIndex, QueryShape, ResultCache, SortDir,
    TableSnapshot, TableWriter,
};
use pi_exec::ops::sort::SortOrder;
use pi_exec::{collect, Batch};
use pi_obs::{CacheOutcome, MetricsRegistry, PlannerTrace, QueryTrace};
use pi_storage::Table;

use crate::cost::estimate;
use crate::fingerprint::{bound_slots, canonical_bytes, fingerprint_hash, QueryMode};
use crate::logical::Plan;
use crate::optimizer::{optimize_with_stats, OptimizeStats};
use crate::physical::{lower_global, ExecObserver};

/// Collects the advisable (column, shape) sites of a reference plan — a
/// single-column Distinct or Sort directly over a Scan is exactly the
/// pattern the PatchIndex rewrites (and hence the advisor's create rule)
/// can serve.
fn query_shapes(plan: &Plan, out: &mut Vec<WorkloadEvent>) {
    match plan {
        Plan::Distinct { input, cols } => {
            if let Plan::Scan {
                cols: scan_cols, ..
            } = &**input
            {
                if cols.len() == 1 {
                    if let Some(&col) = scan_cols.get(cols[0]) {
                        out.push(WorkloadEvent::Query {
                            col,
                            shape: QueryShape::Distinct,
                        });
                    }
                }
            }
            query_shapes(input, out);
        }
        Plan::Sort { input, keys } => {
            if let Plan::Scan {
                cols: scan_cols, ..
            } = &**input
            {
                if let [(key, order)] = keys[..] {
                    if let Some(&col) = scan_cols.get(key) {
                        let dir = match order {
                            SortOrder::Asc => SortDir::Asc,
                            SortOrder::Desc => SortDir::Desc,
                        };
                        out.push(WorkloadEvent::Query {
                            col,
                            shape: QueryShape::Sort(dir),
                        });
                    }
                }
            }
            query_shapes(input, out);
        }
        Plan::Limit { input, .. } => query_shapes(input, out),
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            inputs.iter().for_each(|p| query_shapes(p, out))
        }
        Plan::Scan { .. } | Plan::PatchScan { .. } => {}
    }
}

/// What a [`QueryEngine`] method asks the pipeline for.
#[derive(Debug, Clone, Copy)]
pub enum Request {
    /// Plan only (`plan_query`).
    Plan,
    /// The result batch (`query`).
    Rows,
    /// The result batch under EXPLAIN ANALYZE metering (`query_traced`).
    Traced,
}

/// What one pipeline run produced.
#[derive(Debug)]
pub struct Outcome {
    chosen: Plan,
    /// `None` for [`Request::Plan`]; otherwise the result rows (served
    /// from the cache or freshly executed).
    rows: Option<Batch>,
    /// `Some` for [`Request::Traced`].
    trace: Option<QueryTrace>,
}

impl Outcome {
    fn into_rows(self) -> Batch {
        self.rows.expect("an executing request yields rows")
    }
}

/// Catalog-driven planning and execution over a table view.
///
/// Every method takes `&self`: a query changes nothing about the table
/// it reads. Reference results for comparison come from
/// `execute(&plan, it.table(), NO_INDEXES)`.
///
/// Implemented for [`IndexedTable`], [`TableWriter`], [`TableSnapshot`]
/// and [`ConcurrentTable`]. The trait is sealed: its one required method
/// speaks in types this crate does not export.
///
/// ## Evidence rules
///
/// | request                   | query shapes | feedback / bound index |
/// |---------------------------|--------------|------------------------|
/// | `plan_query`              | –            | –                      |
/// | executing call, cache hit | once         | –                      |
/// | executing call, executed  | once         | once                   |
///
/// `plan_query` is EXPLAIN-style inspection, so an EXPLAIN-then-run
/// sequence must not double-count. A hit is demand (the advisor's create
/// rule counts it) but executed nothing, so no rewrite saved anything:
/// hits are tallied by the cache's own counters instead. Feedback is the
/// estimated cost (planner cost units) the chosen plan saves over the
/// unrewritten one, split evenly across the bound slots.
pub trait QueryEngine {
    /// Hands the pipeline a view of this table — the one method a table
    /// view implements; every other method is a request passed through it.
    fn run_request(&self, plan: &Plan, request: Request) -> Outcome;

    /// Returns the final optimized plan. Records no workload evidence
    /// (query shapes / feedback) — it is safe for EXPLAIN-style inspection
    /// before running the query for real.
    fn plan_query(&self, plan: &Plan) -> Plan {
        self.run_request(plan, Request::Plan).chosen
    }

    /// Plans and executes, returning the result batch.
    fn query(&self, plan: &Plan) -> Batch {
        self.run_request(plan, Request::Rows).into_rows()
    }

    /// Plans and executes under full EXPLAIN ANALYZE instrumentation:
    /// the result batch — byte-identical to [`QueryEngine::query`] —
    /// plus a [`QueryTrace`] carrying planner decisions (candidates
    /// enumerated, cost-gated, rewrites chosen), partitions pruned vs
    /// visited, per-operator wall clock and row counts, and the
    /// result-cache outcome. Workload evidence is recorded exactly as
    /// `query` would.
    fn query_traced(&self, plan: &Plan) -> (Batch, QueryTrace) {
        let mut out = self.run_request(plan, Request::Traced);
        let trace = out.trace.take().expect("a traced request yields a trace");
        (out.into_rows(), trace)
    }

    /// EXPLAIN ANALYZE: executes the query for real (like `EXPLAIN
    /// ANALYZE` in a SQL engine) and returns only the trace.
    ///
    /// ```
    /// use patchindex::{Constraint, Design, IndexedTable};
    /// use pi_planner::{Plan, QueryEngine};
    /// use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};
    ///
    /// let mut t = Table::new(
    ///     "t",
    ///     Schema::new(vec![Field::new("v", DataType::Int)]),
    ///     2,
    ///     Partitioning::RoundRobin,
    /// );
    /// t.load_partition(0, &[ColumnData::Int(vec![1, 2, 3])]);
    /// t.load_partition(1, &[ColumnData::Int(vec![4, 5, 6])]);
    /// t.propagate_all();
    /// let mut it = IndexedTable::new(t);
    /// it.add_index(0, Constraint::NearlyUnique, Design::Bitmap);
    ///
    /// let trace = it.explain_analyze(&Plan::scan(vec![0]).distinct(vec![0]));
    /// assert_eq!(trace.rows_out, 6);
    /// assert_eq!(trace.planner.slots_bound, vec![0]);
    /// assert!(!trace.operators.is_empty());
    /// println!("{}", trace.render_text());
    /// ```
    fn explain_analyze(&self, plan: &Plan) -> QueryTrace {
        self.query_traced(plan).1
    }
}

/// What the pipeline borrows from a table, whoever owns it.
struct View<'a> {
    table: &'a Table,
    indexes: &'a [Arc<PatchIndex>],
    catalog: &'a IndexCatalog,
    /// The publish epoch the cache is probed and filled at.
    epoch: u64,
    /// The table's result cache.
    cache: Option<&'a ResultCache>,
    metrics: Option<&'a MetricsRegistry>,
    /// Where the query's workload evidence goes.
    sink: &'a WorkloadSink,
}

/// The one query pipeline — see the module docs for the steps and the
/// evidence rules.
fn run(view: &View<'_>, plan: &Plan, request: Request) -> Outcome {
    let total = Instant::now();
    let cat = view.catalog;
    let mut stats = OptimizeStats::default();
    let chosen = optimize_with_stats(plan.clone(), cat, &mut stats);
    if let Some(reg) = view.metrics {
        reg.counter("planner.candidates_enumerated")
            .add(stats.candidates_enumerated);
        reg.counter("planner.cost_gated").add(stats.cost_gated);
        reg.counter("planner.rewrites_chosen")
            .add(stats.rewrites_chosen);
    }
    let plan_nanos = total.elapsed().as_nanos() as u64;

    // `query` and `query_traced` share the Rows fingerprint, so either
    // hits what the other inserted.
    let traced = match request {
        Request::Plan => {
            return Outcome {
                chosen,
                rows: None,
                trace: None,
            }
        }
        Request::Rows => false,
        Request::Traced => true,
    };
    let bound = bound_slots(&chosen);
    let mut events = Vec::new();
    query_shapes(plan, &mut events);

    let key = view.cache.map(|cache| {
        let canon: Arc<[u8]> = canonical_bytes(&chosen, cat, QueryMode::Rows).into();
        (cache, fingerprint_hash(&canon), canon)
    });
    let hit = key
        .as_ref()
        .and_then(|(cache, hash, canon)| cache.lookup(*hash, canon, view.epoch));
    let parts = view.table.partition_count();
    let cache_outcome = match (view.cache, &hit) {
        (None, _) => CacheOutcome::Uncached,
        (Some(_), Some(_)) => CacheOutcome::Hit,
        (Some(_), None) => CacheOutcome::Miss,
    };
    // A hit executed nothing: no partitions visited, no operators.
    let (rows, visited, pruned, operators) = match hit {
        Some(rows) => (rows, 0, 0, Vec::new()),
        None => {
            let obs = traced.then(ExecObserver::default);
            let mut root = lower_global(&chosen, view.table, view.indexes, obs.as_ref());
            let rows = collect(root.as_mut());
            if let Some((cache, hash, canon)) = key {
                // The result holds for this epoch; the next publish's
                // change set decides whether it holds for the one after,
                // from the whole table and the bound slots.
                cache.insert(hash, canon, view.epoch, rows.clone(), &bound);
            }
            if !bound.is_empty() {
                // The saving is split evenly across the bound slots.
                let est_cost_saved =
                    (estimate(plan, cat) - estimate(&chosen, cat)).max(0.0) / bound.len() as f64;
                events.extend(bound.iter().map(|&slot| {
                    let e = cat.by_slot(slot).expect("bound slot outside the catalog");
                    WorkloadEvent::Feedback {
                        column: e.column,
                        constraint: e.constraint,
                        est_cost_saved,
                    }
                }));
            }
            let (visited, operators) = obs.as_ref().map_or((0, Vec::new()), |o| {
                (o.pulled().len() as u64, o.operators())
            });
            (rows, visited, parts as u64 - visited, operators)
        }
    };
    if !events.is_empty() {
        view.sink.record(events);
    }

    let elapsed = total.elapsed();
    if let Some(reg) = view.metrics {
        reg.counter("engine.queries").inc();
        reg.histogram("engine.query_nanos")
            .record(elapsed.as_nanos() as u64);
    }
    let trace = traced.then(|| QueryTrace {
        query: plan.to_string(),
        optimized: chosen.to_string(),
        planner: PlannerTrace {
            candidates_enumerated: stats.candidates_enumerated,
            cost_gated: stats.cost_gated,
            rewrites_chosen: stats.rewrites_chosen,
            slots_bound: bound,
            nanos: plan_nanos,
        },
        partitions_total: parts,
        partitions_visited: visited,
        partitions_pruned: pruned,
        cache: Some(cache_outcome),
        operators,
        rows_out: rows.len() as u64,
        total_nanos: elapsed.as_nanos() as u64,
    });
    Outcome {
        chosen,
        rows: Some(rows),
        trace,
    }
}

/// Concurrent readers: clone the snapshot per thread and query away;
/// maintenance never blocks these. When the table was built with a
/// [`ResultCache`], the executing entry points consult it first.
impl QueryEngine for TableSnapshot {
    fn run_request(&self, plan: &Plan, request: Request) -> Outcome {
        let view = View {
            table: self.table(),
            indexes: self.indexes(),
            catalog: self.catalog(),
            epoch: self.epoch(),
            cache: self.result_cache(),
            metrics: self.metrics().map(|reg| &**reg),
            sink: self.sink(),
        };
        run(&view, plan, request)
    }
}

/// Queries on the handle itself: each call plans and executes against a
/// freshly acquired snapshot (the read path is wait-free, so this is
/// cheap), which routes through the table's result cache when one was
/// attached via [`ConcurrentTable::with_result_cache`]. Callers that
/// need repeatable reads across several queries should hold an explicit
/// [`ConcurrentTable::snapshot`] instead.
impl QueryEngine for ConcurrentTable {
    fn run_request(&self, plan: &Plan, request: Request) -> Outcome {
        self.snapshot().run_request(plan, request)
    }
}

/// The single-threaded owner: a view of its live state, planned against
/// a catalog read off it per query (counter reads, no pass over data).
impl QueryEngine for IndexedTable {
    fn run_request(&self, plan: &Plan, request: Request) -> Outcome {
        let catalog = self.catalog();
        let view = View {
            table: self.table(),
            indexes: self.indexes(),
            catalog: &catalog,
            epoch: 0,
            cache: None,
            metrics: None,
            sink: self.sink(),
        };
        run(&view, plan, request)
    }
}

/// Writer queries run against the staging table (seeing unpublished
/// state).
impl QueryEngine for TableWriter {
    fn run_request(&self, plan: &Plan, request: Request) -> Outcome {
        self.staging().run_request(plan, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, execute_count, NO_INDEXES};
    use patchindex::{Constraint, Design, WorkloadDelta};
    use pi_exec::ops::sort::SortOrder;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

    fn fresh(parts: usize) -> IndexedTable {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            let base = (pid * 10) as i64;
            t.load_partition(
                pid,
                &[
                    ColumnData::Int((base..base + 5).collect()),
                    ColumnData::Int((base..base + 5).map(|v| v * 3).collect()),
                ],
            );
        }
        t.propagate_all();
        IndexedTable::new(t)
    }

    #[test]
    fn query_plans_against_every_index() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        // Clean data: each rewrite binds its own index.
        assert!(it.plan_query(&distinct).to_string().contains("slot=0"));
        assert!(it.plan_query(&sort).to_string().contains("slot=1"));
        assert_eq!(it.query(&distinct).len(), 10);
        let sorted = it.query(&sort);
        assert!(pi_exec::ops::sort::is_sorted_asc(sorted.column(0)));
    }

    #[test]
    fn facade_records_query_log_and_feedback() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        it.query(&distinct);
        it.query(&distinct);
        it.query(&sort);
        let delta = it.sink().take();
        // Query shapes per table column.
        assert_eq!(delta.queries[&(1, QueryShape::Distinct)], 2);
        assert_eq!(delta.queries[&(1, QueryShape::Sort(SortDir::Asc))], 1);
        // Feedback: the NUC index was bound by both distinct queries with
        // a positive estimated saving; the sort query bound nothing.
        assert_eq!(delta.feedback.len(), 1);
        let fb = delta.feedback[&(1, Constraint::NearlyUnique)];
        assert_eq!(fb.times_bound, 2);
        assert!(fb.est_cost_saved > 0.0);
    }

    #[test]
    fn explain_then_run_counts_the_query_once() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        // Inspecting the plan records nothing...
        it.plan_query(&distinct);
        assert_eq!(it.sink().take(), WorkloadDelta::default());
        // ...running it records exactly once.
        it.query(&distinct);
        let delta = it.sink().take();
        assert_eq!(delta.queries[&(1, QueryShape::Distinct)], 1);
        assert_eq!(
            delta.feedback[&(1, Constraint::NearlyUnique)].times_bound,
            1
        );
    }

    #[test]
    fn snapshot_queries_match_owner_results() {
        use patchindex::ConcurrentTable;
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        it.insert(&[vec![Value::Int(777), Value::Int(0)]]); // dup + stray
        let (handle, _writer) = ConcurrentTable::new(it);
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let dref = execute_count(&distinct, snap.table(), NO_INDEXES);
        assert_eq!(snap.query(&distinct).len(), dref);
        // The snapshot path binds indexes exactly like the owner path.
        assert!(snap.plan_query(&distinct).to_string().contains("slot=0"));
        let sorted = snap.query(&sort);
        let sref = execute(&sort, snap.table(), NO_INDEXES);
        assert_eq!(sorted.column(0).as_int(), sref.column(0).as_int());
    }

    #[test]
    fn snapshot_workload_evidence_reaches_the_writer() {
        use patchindex::ConcurrentTable;
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, writer) = ConcurrentTable::new(it);
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        snap.query(&distinct);
        snap.query(&distinct);
        // EXPLAIN on a snapshot records nothing.
        snap.plan_query(&distinct);
        let delta = writer.staging().sink().take();
        assert_eq!(delta.queries[&(1, QueryShape::Distinct)], 2);
        let fb = delta.feedback[&(1, Constraint::NearlyUnique)];
        assert_eq!(fb.times_bound, 2);
        assert!(fb.est_cost_saved > 0.0);
    }

    fn cached(it: IndexedTable) -> (ConcurrentTable, TableWriter) {
        ConcurrentTable::with_result_cache(it, ResultCache::new(ResultCache::DEFAULT_BUDGET))
    }

    #[test]
    fn cached_snapshot_repeats_hit_and_match_exactly() {
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, _writer) = cached(it);
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let first = snap.query(&distinct);
        let second = snap.query(&distinct);
        assert_eq!(first.column(0).as_int(), second.column(0).as_int());
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_hits_record_shapes_but_never_feedback() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, writer) = cached(it);
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        snap.query(&distinct); // miss: full evidence
        let first = writer.staging().sink().take();
        assert_eq!(
            first.feedback[&(1, Constraint::NearlyUnique)].times_bound,
            1
        );

        for _ in 0..3 {
            snap.query(&distinct); // hits: shapes only
        }
        let delta = writer.staging().sink().take();
        // The advisor's demand signal still sees every query...
        assert_eq!(delta.queries[&(1, QueryShape::Distinct)], 3);
        // ...but no feedback arrives: a hit executed nothing.
        assert!(delta.feedback.is_empty());
        // Hits are tallied in the cache's own counter instead.
        assert_eq!(handle.cache_stats().unwrap().hits, 3);
    }

    #[test]
    fn manufactured_fingerprint_collision_is_a_miss() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, _writer) = cached(it);
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let chosen = snap.plan_query(&distinct);
        let canon = canonical_bytes(&chosen, snap.catalog(), QueryMode::Rows);
        let hash = fingerprint_hash(&canon);
        // Poison the exact bucket the query will probe with an entry
        // whose canonical bytes differ — a simulated 64-bit collision.
        let cache = snap.result_cache().unwrap();
        cache.insert(
            hash,
            b"not the same plan".to_vec().into(),
            snap.epoch(),
            Batch::new(vec![ColumnData::Int(vec![999_999])]),
            &[],
        );
        let reference = execute_count(&distinct, snap.table(), NO_INDEXES);
        assert_ne!(reference, 1);
        // The stored canonical form is compared on every probe, so the
        // collision is detected and the query recomputes.
        assert_eq!(snap.query(&distinct).len(), reference);
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.hits, 0);
        // The recomputed entry replaced the poisoned one; now it hits.
        assert_eq!(snap.query(&distinct).len(), reference);
        assert_eq!(handle.cache_stats().unwrap().hits, 1);
    }

    /// A cached result depends on every partition of its table and on
    /// the indexes its plan binds: a recompute drops only the entries
    /// bound to the recomputed index, and a write to one partition drops
    /// every entry — also one whose rows all come from another partition.
    #[test]
    fn publish_drops_entries_of_a_written_table_or_a_recomputed_bound_index() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = cached(it);
        let limited = Plan::scan(vec![1]).limit(2);
        let full = Plan::scan(vec![1]);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let snap = handle.snapshot();
        assert!(snap.plan_query(&distinct).to_string().contains("slot=0"));
        let first = snap.query(&limited);
        assert_eq!(snap.query(&full).len(), 10);
        assert_eq!(snap.query(&distinct).len(), 10);
        assert_eq!(handle.cache_stats().unwrap().entries, 3);

        // A recompute re-versions slot 0 only: the distinct bound it.
        writer.recompute_index(0);
        assert_eq!(writer.publish(), 1);
        let stats = handle.cache_stats().unwrap();
        assert_eq!((stats.invalidated, stats.entries), (1, 2), "{stats:?}");
        let snap = handle.snapshot();
        let again = snap.query(&limited);
        assert_eq!(first.column(0).as_int(), again.column(0).as_int());
        assert_eq!(snap.query(&full).len(), 10);
        assert_eq!(handle.cache_stats().unwrap().hits, 2);
        assert_eq!(snap.query(&distinct).len(), 10);

        // Partition 0 alone answers the limit, yet a write to partition
        // 1 drops its entry with the rest.
        writer.modify(1, &[0], 1, &[Value::Int(-777)]);
        writer.publish();
        let stats = handle.cache_stats().unwrap();
        assert_eq!((stats.invalidated, stats.entries), (4, 0), "{stats:?}");
        let snap = handle.snapshot();
        assert!(snap.query(&full).column(0).as_int().contains(&-777));
        assert_eq!(handle.cache_stats().unwrap().hits, 2);
    }

    /// Regression for "pointer identity is the exact dirty set": the
    /// evidence executed queries leave behind is not table state, so a
    /// publish after read-only traffic is a no-op — same epoch, no index
    /// copied — and the result bound to the index survives it.
    #[test]
    fn publish_after_read_only_traffic_is_a_noop_and_keeps_the_cache() {
        use pi_obs::MetricsRegistry;
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let reg = Arc::new(MetricsRegistry::new());
        let cache = ResultCache::with_registry(ResultCache::DEFAULT_BUDGET, &reg);
        let (handle, mut writer) =
            ConcurrentTable::with_observability(it, Some(cache), Arc::clone(&reg));
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let first = handle.snapshot().query(&distinct); // miss: executed
        assert_eq!(reg.counter("cache.misses").get(), 1);

        assert_eq!(writer.publish(), 0, "no write happened: same epoch");
        assert_eq!(reg.counter("publish.noops").get(), 1);
        assert_eq!(reg.counter("publish.count").get(), 0);
        assert_eq!(reg.counter("publish.indexes_copied").get(), 0);
        // The evidence did arrive, in the sink.
        assert_eq!(
            writer.staging().sink().take().feedback[&(1, Constraint::NearlyUnique)].times_bound,
            1
        );

        let again = handle.snapshot().query(&distinct);
        assert_eq!(first.column(0).as_int(), again.column(0).as_int());
        assert_eq!(reg.counter("cache.hits").get(), 1, "the entry survived");
        assert_eq!(reg.counter("cache.misses").get(), 1);
    }

    #[test]
    fn traced_query_matches_untraced_and_carries_operators() {
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = it.query(&distinct);
        let (traced, trace) = it.query_traced(&distinct);
        assert_eq!(reference.column(0).as_int(), traced.column(0).as_int());
        assert_eq!(trace.rows_out, reference.len() as u64);
        assert_eq!(trace.planner.slots_bound, vec![0]);
        assert!(trace.planner.candidates_enumerated >= 1);
        assert_eq!(trace.planner.rewrites_chosen, 1);
        assert!(trace.optimized.contains("PatchScan"), "{}", trace.optimized);
        // Clean data: the lowering prunes every use_patches branch, so
        // only the excluding pipelines (4 partitions) and global combines
        // ran.
        assert_eq!(trace.partitions_total, 4);
        assert_eq!(trace.partitions_visited, 4);
        assert!(!trace.operators.is_empty());
        let total_op_rows: u64 = trace
            .operators
            .iter()
            .filter(|o| o.partition.is_some())
            .map(|o| o.rows_out)
            .sum();
        assert_eq!(total_op_rows, 20, "per-partition scans emit every row");
        assert_eq!(trace.cache, Some(CacheOutcome::Uncached));
    }

    /// A chosen rewrite keeps its zero-patch branches — the optimizer
    /// prunes nothing — and the lowering never instantiates them: on
    /// clean data no `use_patches` scan runs, no global combine is built
    /// over the pruned flow, and the rows are the reference's.
    #[test]
    fn zero_patch_branches_stay_in_the_plan_and_never_run() {
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        assert!(it.indexes().iter().all(|idx| idx.exception_count() == 0));
        for (plan, is_distinct) in [
            (Plan::scan(vec![1]).distinct(vec![0]), true),
            (Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]), false),
        ] {
            let (rows, trace) = it.query_traced(&plan);
            let report = trace.render_text();
            assert!(trace.optimized.contains("use_patches"), "{report}");
            let count = |label: &str| trace.operators.iter().filter(|o| o.label == label).count();
            assert_eq!(count("PatchScan[use_patches]"), 0, "{report}");
            if is_distinct {
                // The NUC rewrite is Union[kept flow, Distinct[patches]]:
                // the patches flow lowers to nothing, and the union of
                // the kept flow alone is the kept flow's own combine.
                assert_eq!(count("Distinct(global)"), 0, "{report}");
                assert_eq!(count("UnionAll(global)"), 1, "{report}");
            }
            let reference = execute(&plan, it.table(), NO_INDEXES);
            assert_eq!(
                rows.column(0).as_int(),
                reference.column(0).as_int(),
                "{plan}"
            );
        }
    }

    /// The sort rewrite's merge streams: a `LIMIT` over it stops every
    /// kept flow after its first batch, while every partition is still
    /// pulled.
    #[test]
    fn limit_over_the_sort_rewrite_stops_the_kept_scans() {
        let parts = 4;
        let rows = 3 * pi_exec::BATCH_SIZE + 100;
        let mut t = Table::new(
            "nsc",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            // Interleaved ascending runs with a stray every 1000 rows.
            let vals = (0..rows)
                .map(|i| match i % 1000 {
                    500 => -(i as i64),
                    _ => (i * parts + pid) as i64,
                })
                .collect();
            t.load_partition(pid, &[ColumnData::Int(vals)]);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.add_index(0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let plan = Plan::scan(vec![0])
            .sort(vec![(0, SortOrder::Asc)])
            .limit(100);

        let (got, trace) = it.query_traced(&plan);
        let reference = execute(&plan, it.table(), NO_INDEXES);
        assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
        assert!(trace.optimized.contains("Merge"), "{}", trace.optimized);
        let kept: Vec<u64> = trace
            .operators
            .iter()
            .filter(|o| o.label == "PatchScan[exclude_patches]")
            .map(|o| o.rows_out)
            .collect();
        assert_eq!(kept.len(), parts);
        assert!(
            kept.iter().all(|&n| n <= pi_exec::BATCH_SIZE as u64),
            "a kept flow ran past its first batch: {kept:?}"
        );
        assert_eq!(trace.partitions_visited, parts as u64);
    }

    #[test]
    fn traced_snapshot_reports_cache_hit_and_miss() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, _writer) = cached(it);
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let (first, t1) = snap.query_traced(&distinct);
        assert_eq!(t1.cache, Some(pi_obs::CacheOutcome::Miss));
        assert!(!t1.operators.is_empty());
        let (second, t2) = snap.query_traced(&distinct);
        assert_eq!(t2.cache, Some(pi_obs::CacheOutcome::Hit));
        assert!(t2.operators.is_empty(), "a hit executed nothing");
        assert_eq!(t2.partitions_visited, 0);
        assert_eq!(first.column(0).as_int(), second.column(0).as_int());
        // Traced and untraced share the cache: the untraced path now hits
        // the entry the traced miss inserted.
        let third = snap.query(&distinct);
        assert_eq!(third.column(0).as_int(), first.column(0).as_int());
        assert_eq!(handle.cache_stats().unwrap().hits, 2);
    }

    #[test]
    fn snapshot_queries_feed_the_metrics_registry() {
        use patchindex::ConcurrentTable;
        use pi_obs::MetricsRegistry;
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let reg = Arc::new(MetricsRegistry::new());
        let cache = ResultCache::with_registry(ResultCache::DEFAULT_BUDGET, &reg);
        let (handle, _writer) =
            ConcurrentTable::with_observability(it, Some(cache), Arc::clone(&reg));
        let snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        snap.query(&distinct); // miss
        snap.query(&distinct); // hit
        snap.query_traced(&distinct); // hit: traced shares the entry
        assert_eq!(reg.counter("engine.queries").get(), 3);
        assert_eq!(reg.histogram("engine.query_nanos").snapshot().count, 3);
        assert_eq!(reg.counter("cache.hits").get(), 2);
        assert_eq!(reg.counter("cache.misses").get(), 1);
        assert!(reg.counter("planner.rewrites_chosen").get() >= 3);
    }

    #[test]
    fn writer_facade_queries_staged_state() {
        use patchindex::ConcurrentTable;
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        writer.insert(&[vec![Value::Int(999), Value::Int(424242)]]);
        let scan = Plan::scan(vec![1]);
        // The writer sees its unpublished insert; readers do not.
        assert_eq!(writer.query(&scan).len(), 11);
        assert_eq!(handle.snapshot().query(&scan).len(), 10);
        writer.publish();
        assert_eq!(handle.snapshot().query(&scan).len(), 11);
    }
}
