//! Observability-layer integration: lock-free metric invariants under a
//! real publish storm, and trace/registry agreement across the
//! snapshot/writer split.
//!
//! The central property (the observability PR's acceptance bar): **with
//! N reader threads hammering the same counters and histograms while a
//! writer publishes as fast as it can, no increment is ever lost and
//! every mid-storm snapshot is consistent** — counters and histogram
//! counts never move backwards between successive snapshots, and once
//! the storm ends a histogram's count and sum are exact.

use patchindex::{ConcurrentTable, Constraint, Design, IndexedTable, ResultCache};
use pi_obs::{CacheOutcome, MetricsRegistry};
use pi_planner::{Plan, QueryEngine};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn base_table(parts: usize, rows: usize) -> Table {
    let mut t = Table::new(
        "obs",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
        parts,
        Partitioning::RoundRobin,
    );
    for pid in 0..parts {
        let base = (pid * rows) as i64;
        let keys: Vec<i64> = (base..base + rows as i64).collect();
        t.load_partition(pid, &[ColumnData::Int(keys.clone()), ColumnData::Int(keys)]);
    }
    t.propagate_all();
    t
}

fn observed_table(
    parts: usize,
    rows: usize,
) -> (
    Arc<MetricsRegistry>,
    patchindex::ConcurrentTable,
    patchindex::TableWriter,
) {
    let registry = Arc::new(MetricsRegistry::new());
    let cache = ResultCache::with_registry(ResultCache::DEFAULT_BUDGET, &registry);
    let mut it = IndexedTable::new(base_table(parts, rows));
    it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    let (handle, writer) =
        ConcurrentTable::with_observability(it, Some(cache), Arc::clone(&registry));
    (registry, handle, writer)
}

/// Scale via `PI_OBS_STRESS_THREADS` / `PI_OBS_STRESS_ITERS` (queries —
/// and direct metric bumps — per reader thread).
#[test]
fn storm_loses_no_increments_and_snapshots_stay_consistent() {
    let parts = 4;
    let rows = 2_000;
    let threads = env_usize("PI_OBS_STRESS_THREADS", 6);
    let per_thread = env_usize("PI_OBS_STRESS_ITERS", 250);

    let (registry, handle, mut writer) = observed_table(parts, rows);
    let stop = AtomicBool::new(false);
    let plan = Plan::scan(vec![1]).limit(8);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..threads {
            let registry = &registry;
            let handle = &handle;
            let plan = &plan;
            readers.push(scope.spawn(move || {
                // Shared handles race across threads; the own counter
                // checks per-thread exactness independently.
                let shared = registry.counter("storm.shared");
                let own = registry.counter(&format!("storm.thread{t}"));
                let hist = registry.histogram("storm.hist");
                for i in 0..per_thread {
                    let snap = handle.snapshot();
                    assert!(!snap.query(plan).is_empty());
                    shared.inc();
                    own.inc();
                    hist.record(i as u64);
                }
            }));
        }
        let auditor = scope.spawn(|| {
            let mut last_shared = 0u64;
            let mut last_count = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let shared = registry.counter("storm.shared").get();
                let hist = registry.histogram("storm.hist").snapshot();
                assert!(shared >= last_shared, "counter moved backwards");
                assert!(hist.count >= last_count, "histogram lost observations");
                let json = registry.snapshot_json();
                assert!(
                    json.contains("\"counters\"") && json.contains("\"histograms\""),
                    "snapshot_json must render mid-storm"
                );
                last_shared = shared;
                last_count = hist.count;
            }
        });
        // The publish storm: copy-on-write publish per statement while
        // every reader snapshot races the epoch swaps.
        let mut step = 0usize;
        while readers.iter().any(|r| !r.is_finished()) {
            let rid = step % rows;
            writer.modify(parts - 1, &[rid], 1, &[Value::Int((step % 97) as i64)]);
            writer.publish();
            step += 1;
        }
        for r in readers {
            r.join().expect("reader thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        auditor.join().expect("auditor thread panicked");
    });

    // No lost increments, anywhere.
    let total = (threads * per_thread) as u64;
    assert_eq!(registry.counter("storm.shared").get(), total);
    for t in 0..threads {
        assert_eq!(
            registry.counter(&format!("storm.thread{t}")).get(),
            per_thread as u64
        );
    }
    let hist = registry.histogram("storm.hist").snapshot();
    assert_eq!(hist.count, total);
    // Each reader recorded 0, 1, .., per_thread - 1.
    let per_reader_sum = (per_thread * (per_thread - 1) / 2) as u64;
    assert_eq!(hist.sum, threads as u64 * per_reader_sum);
    assert_eq!(hist.max, per_thread as u64 - 1);
    // The engine counted every reader query exactly once, and the
    // latency histogram agrees with the counter.
    assert_eq!(registry.counter("engine.queries").get(), total);
    assert_eq!(
        registry.histogram("engine.query_nanos").snapshot().count,
        total
    );
    // The storm actually published, and each publish was metered.
    let publishes = registry.counter("publish.count").get();
    assert!(publishes > 0, "the writer must have published");
    assert_eq!(
        registry.histogram("publish.nanos").snapshot().count,
        publishes
    );
}

/// EXPLAIN ANALYZE across the snapshot/writer split: the trace's cache
/// outcome follows the miss → hit → invalidated-miss lifecycle, traced
/// answers stay byte-identical to untraced ones on the same snapshot,
/// and the registry's cache counters agree with the trace outcomes.
#[test]
fn traces_follow_the_cache_lifecycle_across_publishes() {
    let parts = 3;
    let rows = 500;
    let (registry, handle, mut writer) = observed_table(parts, rows);
    let plan = Plan::scan(vec![1]).sort(vec![(0, pi_exec::ops::sort::SortOrder::Asc)]);

    let snap = handle.snapshot();
    let (cold, trace) = snap.query_traced(&plan);
    assert_eq!(trace.cache, Some(CacheOutcome::Miss));
    assert!(!trace.operators.is_empty());
    assert_eq!(trace.partitions_total, parts);
    assert_eq!(
        trace.partitions_visited + trace.partitions_pruned,
        parts as u64
    );
    assert_eq!(trace.rows_out as usize, cold.column(0).as_int().len());

    // Same snapshot again: served from cache, byte-identically.
    let (hit, trace) = snap.query_traced(&plan);
    assert_eq!(trace.cache, Some(CacheOutcome::Hit));
    assert!(trace.operators.is_empty());
    assert_eq!(hit.column(0).as_int(), cold.column(0).as_int());
    assert_eq!(
        snap.query(&plan).column(0).as_int(),
        cold.column(0).as_int()
    );

    // Publish new data: the next snapshot's trace must miss (the entry
    // was invalidated), execute, and see the new row.
    writer.insert(&[vec![Value::Int(9_999), Value::Int(9_999)]]);
    writer.publish();
    let snap = handle.snapshot();
    let (fresh, trace) = snap.query_traced(&plan);
    assert_eq!(trace.cache, Some(CacheOutcome::Miss));
    assert_eq!(
        fresh.column(0).as_int().len(),
        cold.column(0).as_int().len() + 1
    );
    // Hits: the traced hit plus the untraced re-query of the same
    // snapshot. Misses: the cold trace and the post-publish trace.
    assert!(registry.counter("publish.count").get() >= 1);
    assert_eq!(registry.counter("cache.hits").get(), 2);
    assert_eq!(registry.counter("cache.misses").get(), 2);

    // The rendered trace carries the outcome.
    assert!(trace.render_text().contains("miss"));
}
