//! Constraint drift: a dataset that is *perfectly* constrained today may
//! become approximate tomorrow (paper, Section 6.3: "even if a dataset is
//! clean at a point in time, it may become unclean in the future by update
//! operations. While these updates would be aborted with the definition of
//! usual constraints, PatchIndexes allow the updates and the respective
//! transition from a perfect constraint to an approximate constraint").
//!
//! Shows: a perfect unique column accepting violating inserts, the
//! index image round trip that recovery restores, and the sharded bitmap
//! condensing after heavy deletes.
//!
//! Run with `cargo run --release --example constraint_drift`.

use patchindex::{Constraint, Design, IndexedTable, PatchIndex};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

fn main() {
    // A registry of serial numbers — unique by design.
    let mut table = Table::new(
        "registry",
        Schema::new(vec![Field::new("serial", DataType::Int)]),
        1,
        Partitioning::RoundRobin,
    );
    table.load_partition(0, &[ColumnData::Int((0..50_000).collect())]);
    table.propagate_all();

    let mut reg = IndexedTable::new(table);
    let slot = reg.add_index(0, Constraint::NearlyUnique, Design::Bitmap);
    assert_eq!(reg.index(slot).exception_count(), 0);
    println!("perfect uniqueness at definition time (0 exceptions)");

    // A bad upstream batch re-sends existing serials. A UNIQUE constraint
    // would abort; the PatchIndex absorbs the violations as patches.
    let dupes: Vec<Vec<Value>> = (0..200).map(|i| vec![Value::Int(i * 3)]).collect();
    reg.insert(&dupes);
    println!(
        "after a duplicate-laden batch: {} exceptions (e = {:.3}%) — updates not aborted",
        reg.index(slot).exception_count(),
        reg.index(slot).exception_rate() * 100.0
    );
    reg.check_consistency();

    // Checkpoint the index, "crash", and recover both ways: from its
    // image (what `pi-durability` writes to disk) and from the table.
    let image = reg.index(slot).checkpoint_bytes();
    let restored = PatchIndex::load_checkpoint_for(&image, reg.table()).expect("load");
    assert_eq!(
        restored.exception_count(),
        reg.index(slot).exception_count()
    );
    println!(
        "checkpoint/restore roundtrip ok ({} byte image)",
        image.len()
    );
    let recomputed = PatchIndex::create(reg.table(), 0, Constraint::NearlyUnique, Design::Bitmap);
    assert_eq!(recomputed.exception_count(), restored.exception_count());
    println!("log-free recovery (recreate from table) agrees with the checkpoint");

    // Cleanup job deletes the duplicates; the sharded bitmaps shift rowIDs
    // and lose slots, then condense to restore utilization.
    let patches: Vec<usize> = reg
        .index(slot)
        .partition(0)
        .store
        .patch_rids()
        .iter()
        .map(|&r| r as usize)
        .collect();
    reg.delete(0, &patches);
    println!(
        "after deleting all duplicates: {} exceptions over {} rows",
        reg.index(slot).exception_count(),
        reg.index(slot).nrows()
    );
    let (recomputed, condensed) = reg.run_policy_now();
    println!("maintenance policy: {recomputed} recompute(s), {condensed} condense(s)");
    reg.check_consistency();
    println!("registry consistent");
}
