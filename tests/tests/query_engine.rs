//! Property test for the `QueryEngine` facade: across random tables,
//! partition counts, index sets (NUC/NSC, both physical designs, several
//! indexes on one table) and random update streams, every facade result
//! is byte-identical to the same logical plan executed as an unoptimized
//! full scan. Ordered outputs (sort, limit-over-sort) are
//! compared verbatim; bag outputs (distinct) are compared as canonically
//! sorted row sets, which for single-column integer results is exact
//! content equality.
//!
//! The entry-point matrix below pins the other half of the contract:
//! every way into the one pipeline — owner table, writer, uncached /
//! cached-miss / cached-hit snapshot, through `query`, `query_traced`
//! and a count by `query(..).len()` — returns that same answer, with the
//! count equal to `execute_count`'s, records workload evidence by the
//! same rule table and writes nothing to the indexes it reads.

use std::sync::Arc;

use patchindex::{
    ConcurrentTable, Constraint, Design, IndexedTable, PatchIndex, QueryShape, ResultCache, SortDir,
};
use pi_datagen::{generate, MicroKind, MicroSpec};
use pi_exec::ops::sort::SortOrder;
use pi_exec::Batch;
use pi_integration::{steps, Applier, Pool, UPDATES};
use pi_obs::{CacheOutcome, QueryTrace};
use pi_planner::{execute, execute_count, Plan, QueryEngine, NO_INDEXES};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use proptest::prelude::*;

fn column_vec(b: &Batch) -> Vec<i64> {
    if b.is_empty() && b.width() == 0 {
        Vec::new()
    } else {
        b.column(0).as_int().to_vec()
    }
}

/// Compares facade vs unoptimized results for the whole query suite.
fn assert_queries_match(it: &IndexedTable, ctx: &str) {
    // DISTINCT val — bag output: canonical row order.
    let distinct = Plan::scan(vec![1]).distinct(vec![0]);
    let mut reference = column_vec(&execute(&distinct, it.table(), NO_INDEXES));
    let mut got = column_vec(&it.query(&distinct));
    reference.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, reference, "{ctx}: distinct");

    // ORDER BY val — verbatim.
    let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
    let reference = column_vec(&execute(&sort, it.table(), NO_INDEXES));
    let got = column_vec(&it.query(&sort));
    assert_eq!(got, reference, "{ctx}: sort");

    // ORDER BY val over (val, key) — both columns verbatim: equal values
    // must come out in the reference's (partition, position) order.
    let wide = Plan::scan(vec![1, 0]).sort(vec![(0, SortOrder::Asc)]);
    let reference = execute(&wide, it.table(), NO_INDEXES);
    let got = it.query(&wide);
    assert_eq!(got.len(), reference.len(), "{ctx}: wide sort");
    for c in 0..got.width() {
        assert_eq!(
            got.column(c).as_int(),
            reference.column(c).as_int(),
            "{ctx}: wide sort"
        );
    }

    // SELECT DISTINCT … ORDER BY — sorted distinct values: self-checking
    // (strictly increasing), not just facade-vs-reference, so a lowering
    // that loses cross-partition dedup fails even if both paths share it.
    let distinct_sorted = Plan::scan(vec![1])
        .distinct(vec![0])
        .sort(vec![(0, SortOrder::Asc)]);
    let got = column_vec(&it.query(&distinct_sorted));
    assert!(
        got.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: distinct+sort not unique-sorted"
    );
    let reference = column_vec(&execute(&distinct_sorted, it.table(), NO_INDEXES));
    assert_eq!(got, reference, "{ctx}: distinct+sort");

    // LIMIT over the sorted flow and over the plain scan — verbatim
    // (the scan limit exercises the per-partition pushdown).
    for n in [0usize, 3, 17, 1_000_000] {
        let top = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]).limit(n);
        let reference = column_vec(&execute(&top, it.table(), NO_INDEXES));
        let got = column_vec(&it.query(&top));
        assert_eq!(got, reference, "{ctx}: sort+limit {n}");

        let prefix = Plan::scan(vec![1]).limit(n);
        let reference = column_vec(&execute(&prefix, it.table(), NO_INDEXES));
        let got = column_vec(&it.query(&prefix));
        assert_eq!(got, reference, "{ctx}: scan+limit {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn facade_matches_unoptimized_plans_under_random_streams(
        partitions in 1usize..5,
        e in prop_oneof![Just(0.0), Just(0.1), Just(0.6)],
        kind_nuc in any::<bool>(),
        nuc_bitmap in any::<bool>(),
        with_nsc in any::<bool>(),
        ops in proptest::collection::vec(steps(Pool::shared(-40..40), UPDATES), 1..12),
    ) {
        let kind = if kind_nuc { MicroKind::Nuc } else { MicroKind::Nsc };
        let ds = generate(&MicroSpec::new(400, e, kind).with_partitions(partitions));
        let mut it = IndexedTable::new(ds.table);
        // Random index set on the value column — the catalog carries them
        // all and the facade picks per query. A NUC index is only created
        // on the NUC dataset: partition-local discovery assumes duplicate
        // values co-locate within a partition (the generator plants them
        // that way; update maintenance then enforces uniqueness globally
        // via the cross-partition collision join). An NSC index is valid
        // on any data — a messy column just yields a large patch set.
        if kind_nuc {
            it.add_index(
                1,
                Constraint::NearlyUnique,
                if nuc_bitmap { Design::Bitmap } else { Design::Identifier },
            );
        }
        if with_nsc || !kind_nuc {
            it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
            it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Identifier);
        }

        assert_queries_match(&it, "initial");
        for (i, op) in ops.iter().enumerate() {
            it.step(op).unwrap();
            assert_queries_match(&it, &format!("after op {i} ({op:?})"));
        }
        it.check_consistency();
        assert_queries_match(&it, "final");
    }
}

// ---- entry-point matrix for the one pipeline ---------------------------

const NUC: usize = 0;
const NSC: usize = 1;

/// Three partitions of unique ascending values, a NUC (slot 0) and an
/// NSC (slot 1) index on the value column, then one inserted duplicate.
fn matrix_table() -> IndexedTable {
    let mut t = Table::new(
        "matrix",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
        3,
        Partitioning::RoundRobin,
    );
    for pid in 0..3i64 {
        let keys: Vec<i64> = (0..40).map(|i| pid * 100 + i).collect();
        let vals: Vec<i64> = (0..40).map(|i| pid * 1000 + 2 * i).collect();
        t.load_partition(
            pid as usize,
            &[ColumnData::Int(keys), ColumnData::Int(vals)],
        );
    }
    t.propagate_all();
    let mut it = IndexedTable::new(t);
    assert_eq!(
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap),
        NUC
    );
    assert_eq!(
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap),
        NSC
    );
    it.insert(&[vec![Value::Int(9_999), Value::Int(1_010)]]);
    it
}

/// The plans of the matrix with the query-log shape each one records.
fn matrix_plans() -> [(Plan, Option<QueryShape>); 3] {
    [
        (
            Plan::scan(vec![1]).distinct(vec![0]),
            Some(QueryShape::Distinct),
        ),
        (
            Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]),
            Some(QueryShape::Sort(SortDir::Asc)),
        ),
        (Plan::scan(vec![1]).limit(4), None),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Owner,
    Writer,
    Uncached,
    CachedMiss,
    CachedHit,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Method {
    Query,
    Count,
    Traced,
}

/// Everything the advisor can learn from queries: per-shape query
/// counts on the value column and `times_bound` per index slot.
#[derive(Debug, Clone, PartialEq)]
struct Evidence {
    distinct: u64,
    sort: u64,
    log_total: u64,
    slots: Vec<u64>,
}

/// Takes the table's sink: the evidence recorded since the last take.
fn evidence(it: &IndexedTable) -> Evidence {
    let delta = it.sink().take();
    let count = |shape| delta.queries.get(&(1, shape)).copied().unwrap_or(0);
    Evidence {
        distinct: count(QueryShape::Distinct),
        sort: count(QueryShape::Sort(SortDir::Asc)),
        log_total: delta.queries.values().sum(),
        slots: it
            .indexes()
            .iter()
            .map(|idx| {
                let key = (idx.column(), idx.constraint());
                delta.feedback.get(&key).map_or(0, |fb| fb.times_bound)
            })
            .collect(),
    }
}

/// `base` plus what the rule table says `queries` runs of a query with
/// this shape add, `executed` of which actually ran and bound `bound`.
fn evidence_after(
    base: &Evidence,
    shape: Option<QueryShape>,
    bound: &[usize],
    queries: u64,
    executed: u64,
) -> Evidence {
    let mut want = base.clone();
    match shape {
        Some(QueryShape::Distinct) => want.distinct += queries,
        Some(QueryShape::Sort(_)) => want.sort += queries,
        None => {}
    }
    want.log_total += if shape.is_some() { queries } else { 0 };
    for &slot in bound {
        want.slots[slot] += executed;
    }
    want
}

fn bound_slots(chosen: &Plan) -> Vec<usize> {
    let rendered = chosen.to_string();
    [NUC, NSC]
        .into_iter()
        .filter(|slot| rendered.contains(&format!("slot={slot}")))
        .collect()
}

/// Runs `plan` through one facade method; rows come back canonicalized
/// for bag outputs (a distinct's hash order is not part of the answer).
fn call<E: QueryEngine>(
    engine: &E,
    method: Method,
    plan: &Plan,
    bag: bool,
) -> (Option<Vec<i64>>, usize, Option<QueryTrace>) {
    let canon = |b: &Batch| {
        let mut rows = column_vec(b);
        if bag {
            rows.sort_unstable();
        }
        rows
    };
    match method {
        Method::Query => {
            let rows = canon(&engine.query(plan));
            let n = rows.len();
            (Some(rows), n, None)
        }
        Method::Count => (None, engine.query(plan).len(), None),
        Method::Traced => {
            let (batch, trace) = engine.query_traced(plan);
            assert_eq!(trace.rows_out, batch.len() as u64);
            let rows = canon(&batch);
            let n = rows.len();
            (Some(rows), n, Some(trace))
        }
    }
}

/// What a read must leave alone: the index versions (by pointer).
fn index_state(indexes: &[Arc<PatchIndex>]) -> Vec<*const PatchIndex> {
    indexes.iter().map(Arc::as_ptr).collect()
}

/// One cell of the matrix: the answer equals the index-free execution,
/// the queried indexes are untouched, and the drained evidence delta is
/// exactly what the rule table prescribes. `none` is the first take, of a
/// table nothing has queried yet.
fn check_cell(entry: Entry, method: Method, plan: &Plan, shape: Option<QueryShape>) {
    let ctx = format!("{entry:?} x {method:?} x {plan}");
    let bag = shape == Some(QueryShape::Distinct);
    let it = matrix_table();
    let reference = {
        let mut rows = column_vec(&execute(plan, it.table(), NO_INDEXES));
        if bag {
            rows.sort_unstable();
        }
        rows
    };
    let reference_count = execute_count(plan, it.table(), NO_INDEXES);

    let (got, chosen, cache_outcome, after, want) = match entry {
        Entry::Owner => {
            let none = evidence(&it);
            let chosen = it.plan_query(plan);
            assert_eq!(evidence(&it), none, "{ctx}: plan_query");
            let state = index_state(it.indexes());
            let got = call(&it, method, plan, bag);
            assert_eq!(index_state(it.indexes()), state, "{ctx}: a read wrote");
            let want = evidence_after(&none, shape, &bound_slots(&chosen), 1, 1);
            (got, chosen, CacheOutcome::Uncached, evidence(&it), want)
        }
        Entry::Writer => {
            let (_handle, writer) = ConcurrentTable::new(it);
            let none = evidence(writer.staging());
            let chosen = writer.plan_query(plan);
            assert_eq!(evidence(writer.staging()), none, "{ctx}: plan_query");
            let state = index_state(writer.staging().indexes());
            let got = call(&writer, method, plan, bag);
            assert_eq!(
                index_state(writer.staging().indexes()),
                state,
                "{ctx}: a read wrote"
            );
            let want = evidence_after(&none, shape, &bound_slots(&chosen), 1, 1);
            let after = evidence(writer.staging());
            (got, chosen, CacheOutcome::Uncached, after, want)
        }
        Entry::Uncached | Entry::CachedMiss | Entry::CachedHit => {
            let (handle, writer) = if entry == Entry::Uncached {
                ConcurrentTable::new(it)
            } else {
                ConcurrentTable::with_result_cache(
                    it,
                    ResultCache::new(ResultCache::DEFAULT_BUDGET),
                )
            };
            let snap = handle.snapshot();
            let none = evidence(writer.staging());
            let chosen = snap.plan_query(plan);
            assert_eq!(evidence(writer.staging()), none, "{ctx}: plan_query");
            let state = index_state(snap.indexes());
            let runs = if entry == Entry::CachedHit {
                call(&snap, method, plan, bag); // the miss that fills the cache
                2
            } else {
                1
            };
            let got = call(&snap, method, plan, bag);
            assert_eq!(index_state(snap.indexes()), state, "{ctx}: a read wrote");
            let after = evidence(writer.staging());
            let want = evidence_after(&none, shape, &bound_slots(&chosen), runs, 1);
            let outcome = match entry {
                Entry::Uncached => CacheOutcome::Uncached,
                Entry::CachedMiss => CacheOutcome::Miss,
                _ => CacheOutcome::Hit,
            };
            if entry != Entry::Uncached {
                let stats = handle.cache_stats().unwrap();
                assert_eq!((stats.hits, stats.misses), (runs - 1, 1), "{ctx}");
            }
            (got, chosen, outcome, after, want)
        }
    };

    let (rows, count, trace) = got;
    if let Some(rows) = rows {
        assert_eq!(rows, reference, "{ctx}: rows");
    }
    assert_eq!(count, reference_count, "{ctx}: count");
    assert_eq!(after, want, "{ctx}: evidence");

    // The matrix must cover what it claims, by one rule at every entry.
    match shape {
        Some(QueryShape::Distinct) => assert_eq!(bound_slots(&chosen), [NUC], "{ctx}"),
        Some(QueryShape::Sort(_)) => assert_eq!(bound_slots(&chosen), [NSC], "{ctx}"),
        None => assert!(bound_slots(&chosen).is_empty(), "{ctx}"),
    }
    if let Some(trace) = trace {
        assert_eq!(trace.cache, Some(cache_outcome), "{ctx}");
        assert_eq!(trace.planner.slots_bound, bound_slots(&chosen), "{ctx}");
        assert_eq!(trace.optimized, chosen.to_string(), "{ctx}");
        assert_eq!(
            trace.operators.is_empty(),
            cache_outcome == CacheOutcome::Hit,
            "{ctx}: only a hit executes nothing"
        );
    }
}

#[test]
fn every_entry_point_runs_the_same_pipeline() {
    for entry in [
        Entry::Owner,
        Entry::Writer,
        Entry::Uncached,
        Entry::CachedMiss,
        Entry::CachedHit,
    ] {
        for method in [Method::Query, Method::Count, Method::Traced] {
            for (plan, shape) in matrix_plans() {
                check_cell(entry, method, &plan, shape);
            }
        }
    }
}
