//! Quickstart: define an approximate constraint, query through it, update
//! through it — then split it into concurrent snapshot readers and a
//! background writer.
//!
//! Run with `cargo run --release --example quickstart`.

use patchindex::{ConcurrentTable, Constraint, Design, IndexedTable, SortDir};
use pi_exec::ops::sort::SortOrder;
use pi_planner::{Plan, QueryEngine};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

fn main() {
    // A table of event timestamps that is *nearly* sorted: one stray value
    // (the 9999) breaks the perfect constraint.
    let mut table = Table::new(
        "events",
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("ts", DataType::Int),
        ]),
        1,
        Partitioning::RoundRobin,
    );
    table.load_partition(
        0,
        &[
            ColumnData::Int((0..10).collect()),
            ColumnData::Int(vec![10, 20, 30, 9999, 40, 50, 60, 70, 80, 90]),
        ],
    );
    table.propagate_all();

    // 1. Materialize the approximate constraint.
    let mut events = IndexedTable::new(table);
    let slot = events.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
    println!(
        "NSC on ts: {} exception(s), e = {:.1}%",
        events.index(slot).exception_count(),
        events.index(slot).exception_rate() * 100.0
    );

    // 2. The QueryEngine facade snapshots the index catalog, rewrites the
    //    sort query into the Figure-2 plan (the excluding flow skips the
    //    sort, only the patch is sorted) and executes it with
    //    per-partition zero-branch pruning.
    let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
    let optimized = events.plan_query(&plan);
    println!("\nreference plan:\n{plan}");
    println!("optimized plan:\n{optimized}");

    let result = events.query(&plan);
    println!("sorted ts: {:?}", result.column(0).as_int());

    // 3. Updates maintain the index without recomputation.
    events.insert(&[vec![Value::Int(10), Value::Int(95)]]); // extends the run
    events.insert(&[vec![Value::Int(11), Value::Int(42)]]); // a new exception
    println!(
        "\nafter 2 inserts: {} exceptions over {} rows",
        events.index(slot).exception_count(),
        events.index(slot).nrows()
    );
    events.delete(0, &[3]); // drop the original stray 9999
    println!(
        "after deleting the stray row: {} exceptions over {} rows",
        events.index(slot).exception_count(),
        events.index(slot).nrows()
    );
    events.check_consistency();
    println!("\nindex consistent");

    // 4. Concurrency: split the table into a shared read handle and a
    //    single writer. Readers pull immutable snapshots and query them
    //    from any thread; the writer mutates and maintains off the read
    //    path and publishes new epochs atomically.
    let (handle, mut writer) = ConcurrentTable::new(events);
    let reader = std::thread::spawn({
        let handle = handle.clone();
        let plan = plan.clone();
        move || {
            let snap = handle.snapshot();
            (snap.epoch(), snap.query(&plan).column(0).as_int().to_vec())
        }
    });
    writer.insert(&[vec![Value::Int(12), Value::Int(7)]]); // staged, invisible
    let (epoch, sorted) = reader.join().unwrap();
    println!(
        "\nreader on epoch {epoch} saw {} rows (writer insert unpublished)",
        sorted.len()
    );
    writer.publish(); // one atomic epoch-pointer swap
    let snap = handle.snapshot();
    println!(
        "epoch {} after publish: {} rows, still sorted: {:?}",
        snap.epoch(),
        snap.table().visible_len(),
        snap.query(&plan).column(0).as_int()
    );
}
