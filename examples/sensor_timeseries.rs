//! Nearly sorted sensor data: a time-series table where readings arrive
//! mostly in timestamp order, but late-arriving measurements break the
//! perfect sort order (a classic HTAP freshness scenario from the paper's
//! introduction).
//!
//! Shows: the advisor auto-creating the NSC index from ORDER-BY query
//! evidence, the Merge-based rewrite, a clock-glitch burst that wrecks
//! the sorted-run anchor so that *every* following in-order batch gets
//! patched (pure lost optimality), the per-index error `e` and drift
//! surfaced batch by batch, and the advisor's drift-triggered recompute
//! restoring `e` to create-time levels.
//!
//! Run with `cargo run --release --example sensor_timeseries`.

use std::time::Instant;

use patchindex::{Constraint, IndexedTable, SortDir};
use pi_advisor::{Advisor, AdvisorAction, AdvisorConfig};
use pi_datagen::{generate, MicroKind, MicroSpec};
use pi_exec::ops::sort::SortOrder;
use pi_planner::{execute_count, Plan, QueryEngine, NO_INDEXES};
use pi_storage::Value;

fn main() {
    // 60K readings, 2% arrived late (out of order).
    let rows = 60_000;
    let ds = generate(&MicroSpec::new(rows, 0.02, MicroKind::Nsc));
    let mut ts = IndexedTable::new(ds.table);
    let mut advisor = Advisor::new(AdvisorConfig {
        recompute_margin: 0.05,
        ..AdvisorConfig::default()
    });

    // Dashboards keep ordering by timestamp; the advisor watches.
    let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
    let n_ref = execute_count(&plan, ts.table(), NO_INDEXES);
    for _ in 0..3 {
        assert_eq!(ts.query(&plan).len(), n_ref);
    }
    for action in advisor.step(&mut ts) {
        println!("advisor: {}", action.describe());
    }
    assert_eq!(
        ts.indexes().len(),
        1,
        "the advisor should have created the NSC index"
    );
    let slot = 0;
    assert_eq!(
        ts.index(slot).constraint(),
        Constraint::NearlySorted(SortDir::Asc)
    );
    let e_create = ts.index(slot).match_fraction();
    println!(
        "NSC on ts: {} late readings (e = {:.4} at creation)",
        ts.index(slot).exception_count(),
        e_create
    );

    // ORDER BY ts: the excluding flow is already sorted, only the late
    // readings pass through the sort operator.
    let t = Instant::now();
    assert_eq!(execute_count(&plan, ts.table(), NO_INDEXES), n_ref);
    let t_ref = t.elapsed();
    let t = Instant::now();
    assert_eq!(ts.query(&plan).len(), n_ref);
    let t_pi = t.elapsed();
    println!(
        "ORDER BY over {n_ref} rows: reference {:.1} ms, PatchIndex {:.1} ms ({:.1}x)",
        t_ref.as_secs_f64() * 1e3,
        t_pi.as_secs_f64() * 1e3,
        t_ref.as_secs_f64() / t_pi.as_secs_f64().max(1e-9)
    );

    // Live ingestion. Before batch 2 a rogue sensor sends one reading
    // with a far-future timestamp as its own statement: the sorted-run
    // extension (which only sees that one statement) extends the anchor
    // to it, so every later in-order reading of that partition lands
    // *below* the anchor and gets patched — the data is still nearly
    // sorted, the index has merely lost optimality. Drift-rate
    // monitoring makes that visible, and the advisor's recompute (a
    // fresh global LIS that patches the rogue reading instead) repairs
    // it.
    let mut next_ts = 2 * rows as i64 + 10;
    let mut next_key = rows as i64;
    let mut recomputed = false;
    for batch_no in 0..6 {
        let glitch = batch_no == 2;
        if glitch {
            next_key += 1;
            ts.insert(&[vec![Value::Int(next_key), Value::Int(1_000_000_000)]]);
        }
        let rows_batch: Vec<Vec<Value>> = (0..2_000)
            .map(|_| {
                next_key += 1;
                next_ts += 2;
                vec![Value::Int(next_key), Value::Int(next_ts)]
            })
            .collect();
        ts.insert(&rows_batch);
        let inserted = (next_key - rows as i64) as usize;
        assert_eq!(ts.query(&plan).len(), n_ref + inserted);
        let idx = ts.index(slot);
        println!(
            "batch {batch_no}{} -> e = {:.4} (create-time {:.4}), drift {:.4} patches/row",
            if glitch { " (clock glitch)" } else { "" },
            idx.match_fraction(),
            idx.baseline().match_fraction,
            idx.drift_rate(),
        );
        for action in advisor.step(&mut ts) {
            println!("advisor: {}", action.describe());
            if let AdvisorAction::Recomputed {
                e_before, e_after, ..
            } = action
            {
                recomputed = true;
                assert!(e_after > e_before);
            }
        }
    }
    assert!(
        recomputed,
        "the glitch drift should have triggered a recompute"
    );
    let e_final = ts.index(slot).match_fraction();
    assert!(
        e_final > e_create - 0.05,
        "recompute should restore e near create-time levels ({e_final:.4} vs {e_create:.4})"
    );
    ts.check_consistency();
    println!(
        "index consistent, advisor kept e at {:.4} (create-time {:.4})",
        e_final, e_create
    );
}
