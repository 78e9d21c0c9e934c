//! Result-cache transparency under randomized mutation streams.
//!
//! The central property: **a `ConcurrentTable` carrying a result cache
//! answers every query byte-identically to a twin table without one,
//! across randomized insert/modify/delete/recompute/publish streams with
//! repeated interleaved queries.** Both twins apply the same ops and
//! publish in lockstep; after every op the full query mix runs on fresh
//! snapshots of both sides — and runs *twice* on the cached side, so the
//! second pass exercises the hit path against the first pass's entries.
//! The cache lives in one epoch: each publish's change set decides which
//! entries carry over. Old snapshots are held across publishes and
//! re-queried; a reader of an older epoch simply misses, recomputes and
//! stores nothing, so it must never be served another epoch's rows.
//!
//! Stale-wrong-answer bugs this would catch: a publish sweep that keeps
//! an entry over a written partition or a re-versioned index it binds, a
//! fingerprint that conflates two plans, or a lookup or insert that
//! ignores the reader's epoch and hands a held old snapshot new-epoch
//! results (or stores its results for newer readers).

use patchindex::{
    ConcurrentTable, Constraint, Design, IndexedTable, ResultCache, SortDir, TableSnapshot,
    TableWriter,
};
use pi_exec::ops::sort::SortOrder;
use pi_integration::{base_table, int_column, steps, Applier, Pool, Step, CHURN, PARTS, VAL_POOL};
use pi_planner::{Plan, QueryEngine};
use proptest::prelude::*;

/// The query mix: a distinct count, a sort (full rows), a pushed-down
/// limit (it reads a prefix of the partitions, but its entry depends on
/// all of them), and a plain scan count.
fn mix() -> [Plan; 4] {
    [
        Plan::scan(vec![1]).distinct(vec![0]),
        Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]),
        Plan::scan(vec![1]).limit(5),
        Plan::scan(vec![1]),
    ]
}

/// Runs the full mix on a cached and an uncached snapshot of the same
/// epoch and demands byte-identical answers — twice on the cached side,
/// so pass two probes the entries pass one populated.
fn verify_pair(cached: &TableSnapshot, plain: &TableSnapshot, ctx: &str) {
    assert_eq!(
        cached.epoch(),
        plain.epoch(),
        "{ctx}: twins out of lockstep"
    );
    for plan in mix() {
        let want_rows = int_column(&plain.query(&plan));
        let want_count = plain.query(&plan).len();
        for pass in ["cold", "hot"] {
            let got = int_column(&cached.query(&plan));
            assert_eq!(got, want_rows, "{ctx}: {pass} rows diverged for {plan}");
            let got_count = cached.query(&plan).len();
            assert_eq!(
                got_count, want_count,
                "{ctx}: {pass} count diverged for {plan}"
            );
        }
    }
}

fn build(cache: Option<ResultCache>) -> (ConcurrentTable, TableWriter) {
    let mut it = IndexedTable::new(base_table(60));
    it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    it.add_index(
        1,
        Constraint::NearlySorted(SortDir::Asc),
        Design::Identifier,
    );
    match cache {
        Some(cache) => ConcurrentTable::with_result_cache(it, cache),
        None => ConcurrentTable::new(it),
    }
}

fn run_stream(ops: &[Step]) {
    let cache = ResultCache::new(ResultCache::DEFAULT_BUDGET);
    let (cached_handle, mut cached_writer) = build(Some(cache));
    let (plain_handle, mut plain_writer) = build(None);

    // Held snapshots: (cached, plain) pairs pinned at an old epoch and
    // re-verified after later publishes refresh / invalidate entries.
    let mut held: Vec<(TableSnapshot, TableSnapshot)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        cached_writer.step(op).unwrap();
        plain_writer.step(op).unwrap();
        if matches!(op, Step::Publish) {
            held.push((cached_handle.snapshot(), plain_handle.snapshot()));
            cached_writer.publish();
            plain_writer.publish();
        }
        verify_pair(
            &cached_handle.snapshot(),
            &plain_handle.snapshot(),
            &format!("op {i}"),
        );
        // Every held pre-publish snapshot must keep answering with its
        // own epoch's bytes, cache entries notwithstanding.
        for (j, (cached, plain)) in held.iter().enumerate() {
            verify_pair(cached, plain, &format!("op {i}, held {j}"));
        }
        if held.len() > 3 {
            held.remove(0);
        }
    }
    cached_writer.publish();
    plain_writer.publish();
    verify_pair(&cached_handle.snapshot(), &plain_handle.snapshot(), "final");
    let stats = cached_handle.cache_stats().unwrap();
    assert!(
        stats.hits > 0,
        "the hot passes must actually hit: {stats:?}"
    );

    cached_writer.into_inner().check_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Cached answers are byte-identical to the uncached twin at every
    // step, hits included.
    #[test]
    fn cached_results_match_uncached_eager(
        ops in proptest::collection::vec(steps(Pool::per_partition(), CHURN), 4..20),
    ) {
        run_stream(&ops);
    }
}

/// A tiny byte budget forces constant eviction; correctness must be
/// unaffected (evictions cost speed, never answers).
#[test]
fn tiny_budget_still_answers_exactly() {
    let cache = ResultCache::new(1024);
    let (cached_handle, mut cached_writer) = build(Some(cache));
    let (plain_handle, mut plain_writer) = build(None);
    for round in 0..6 {
        let pid = round % PARTS;
        let op = Step::Insert(vec![(
            pid,
            pid as i64 * 100 + (round as i64 * 7) % VAL_POOL,
        )]);
        cached_writer.step(&op).unwrap();
        plain_writer.step(&op).unwrap();
        cached_writer.publish();
        plain_writer.publish();
        verify_pair(
            &cached_handle.snapshot(),
            &plain_handle.snapshot(),
            &format!("round {round}"),
        );
    }
    let stats = cached_handle.cache_stats().unwrap();
    assert!(
        stats.evicted > 0,
        "a 1KiB budget must evict under this mix: {stats:?}"
    );
}
