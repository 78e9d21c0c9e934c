//! A data-warehouse scenario with unclean integrated data (the paper's
//! motivation): customer records merged from several source systems where
//! the email column is *nearly* unique — duplicates exist because the same
//! person appears in multiple sources.
//!
//! Shows: the advisor auto-creating the NUC index from query-log
//! evidence plus a strided sample it reads from the table at its step,
//! the rewritten DISTINCT query, trickle inserts with collision
//! detection via dynamic range propagation, the
//! per-index error `e` and drift-rate monitoring behind the advisor's
//! decisions, the observability surface (an EXPLAIN ANALYZE trace of
//! the rewritten query plus a metrics-registry dump), and the
//! comparison against a materialized view.
//!
//! Run with `cargo run --release --example dirty_warehouse`.

use std::time::Instant;

use patchindex::IndexedTable;
use pi_advisor::{Advisor, AdvisorConfig};
use pi_baselines::DistinctView;
use pi_datagen::{generate, update_rows, MicroKind, MicroSpec};
use pi_obs::MetricsRegistry;
use pi_planner::{execute_count, Plan, QueryEngine, NO_INDEXES};

fn main() {
    // 200K integrated customer records, 3% of which collide with another
    // source system's records.
    let rows = 200_000;
    let ds = generate(&MicroSpec::new(rows, 0.03, MicroKind::Nuc));
    let mut wh = IndexedTable::new(ds.table);
    // One registry for the whole process; the advisor mirrors its
    // lifecycle actions onto it, and the final dump shows everything.
    let registry = MetricsRegistry::new();
    let mut advisor = Advisor::with_metrics(
        AdvisorConfig {
            // Integrated data is dirty by nature; 3% duplicates must not
            // block the index that serves the nightly dedup report.
            create_threshold: 0.9,
            ..AdvisorConfig::default()
        },
        &registry,
    );

    // The nightly report keeps asking "how many distinct customers?".
    let plan = Plan::scan(vec![1]).distinct(vec![0]);
    let reference = execute_count(&plan, wh.table(), NO_INDEXES);
    for _ in 0..3 {
        assert_eq!(wh.query(&plan).len(), reference);
    }
    // One advisor step sees the queries + the id column's sampled
    // match fraction and materializes the NUC index on its own.
    let t = Instant::now();
    for action in advisor.step(&mut wh) {
        println!("advisor: {}", action.describe());
    }
    let slot = 0;
    assert_eq!(
        wh.indexes().len(),
        1,
        "the advisor should have created the index"
    );
    println!(
        "auto-created in {:.1} ms: {} duplicates over {rows} rows (e = {:.4})",
        t.elapsed().as_secs_f64() * 1e3,
        wh.index(slot).exception_count(),
        wh.index(slot).match_fraction(),
    );

    // Reference vs the rewritten plan the facade now picks.
    let t = Instant::now();
    let n_ref = execute_count(&plan, wh.table(), NO_INDEXES);
    let t_ref = t.elapsed();
    let t = Instant::now();
    let with_pi = wh.query(&plan).len();
    let t_pi = t.elapsed();
    assert_eq!(n_ref, with_pi);
    println!(
        "distinct customers: {n_ref} | reference {:.1} ms, PatchIndex {:.1} ms ({:.1}x)",
        t_ref.as_secs_f64() * 1e3,
        t_pi.as_secs_f64() * 1e3,
        t_ref.as_secs_f64() / t_pi.as_secs_f64().max(1e-9)
    );

    // EXPLAIN ANALYZE on the nightly report: executes for real and
    // shows the exclude/use-patches rewrite, planner counters, and
    // per-operator wall clock — the same trace a serving layer would log.
    let trace = wh.explain_analyze(&plan);
    println!("\nEXPLAIN ANALYZE of the nightly report:");
    println!("{}", trace.render_text());

    // Nightly trickle load: 500 new records, some colliding.
    let new_rows = update_rows(rows, MicroKind::Nuc, 500, 7);
    let before = wh.index(slot).exception_count();
    let t = Instant::now();
    wh.insert(&new_rows);
    let t_pi_ins = t.elapsed();
    let idx = wh.index(slot);
    println!(
        "inserted 500 records in {:.1} ms; {} new collision patches | \
         e = {:.4} (create-time {:.4}), drift {:.4} patches/maintained row",
        t_pi_ins.as_secs_f64() * 1e3,
        idx.exception_count() - before,
        idx.match_fraction(),
        idx.baseline().match_fraction,
        idx.drift_rate(),
    );

    // The drift is tiny, so the next advisor step holds still.
    let actions = advisor.step(&mut wh);
    println!(
        "advisor after the load: {}",
        if actions.is_empty() {
            "no action (drift within margin, queries keep paying)".to_string()
        } else {
            actions
                .iter()
                .map(|a| a.describe())
                .collect::<Vec<_>>()
                .join("; ")
        }
    );

    // The materialized-view alternative must recompute on every refresh.
    let mut view = DistinctView::create(wh.table(), 1);
    let t = Instant::now();
    view.refresh(wh.table());
    println!(
        "materialized view refresh after the same load: {:.1} ms ({}x the PatchIndex maintenance)",
        t.elapsed().as_secs_f64() * 1e3,
        (t.elapsed().as_secs_f64() / t_pi_ins.as_secs_f64().max(1e-9)) as u64
    );

    wh.check_consistency();
    println!("index consistent");

    // Exit with the observability dump: every advisor decision made
    // above is mirrored on the process-wide registry.
    println!("\nmetrics registry at exit:");
    print!("{}", registry.render_text());
}
