//! Constraint drift: a dataset that is *perfectly* constrained today may
//! become approximate tomorrow (paper, Section 6.3: "even if a dataset is
//! clean at a point in time, it may become unclean in the future by update
//! operations. While these updates would be aborted with the definition of
//! usual constraints, PatchIndexes allow the updates and the respective
//! transition from a perfect constraint to an approximate constraint").
//!
//! Shows: a perfect unique column accepting violating inserts, the
//! sharded bitmap condensing itself during a heavy delete, and a crash
//! recovery that restores the index from the image its checkpoint wrote.
//!
//! Run with `cargo run --release --example constraint_drift`.

use std::sync::Arc;

use patchindex::{Constraint, Design, IndexedTable, MaintenancePolicy, PatchIndex, PatchStore};
use pi_durability::{DurableOptions, DurableWriter};
use pi_storage::dfs::SimFs;
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

    // A cleanup job retires the serials below 30 000 and deletes the
    // duplicates. Every deleted row costs the sharded bitmap one slot; once
    // half its shards are free, the delete itself condenses them.
    let shards = |reg: &IndexedTable| match &reg.index(slot).partition(0).store {
        PatchStore::Bitmap(bm) => bm.shard_count(),
        PatchStore::Identifier { .. } => unreachable!("a Bitmap index"),
    };
    let before = shards(&reg);
    let mut cleanup: Vec<usize> = reg
        .index(slot)
        .partition(0)
        .store
        .patch_rids()
        .iter()
        .map(|&r| r as usize)
        .chain(0..30_000)
        .collect();
    cleanup.sort_unstable();
    cleanup.dedup();
    reg.delete(0, &cleanup);
    println!(
        "after the cleanup: {} exceptions over {} rows; the bitmap went from {before} shards to {} by itself",
        reg.index(slot).exception_count(),
        reg.index(slot).nrows(),
        shards(&reg)
    );
    assert!(shards(&reg) * 2 <= before);
    reg.check_consistency();
    println!("registry consistent");

    // Make the registry durable (an in-memory filesystem stands in for a
    // disk). A second bad batch goes through the WAL, and its publish
    // checkpoints the index as an image. Then "crash" and recover the
    // index both ways: from that image and from the table.
    let fs = Arc::new(SimFs::new());
    let (_handle, mut dw) =
        DurableWriter::create(reg, fs.clone(), "/registry", DurableOptions::default())
            .expect("create");
    let dupes: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(30_001 + i * 3)]).collect();
    dw.insert(&dupes).expect("insert");
    dw.publish().expect("publish");
    let exceptions = dw.staging().index(slot).exception_count();
    drop(dw);
    let (_handle, dw, report) = DurableWriter::recover(
        fs,
        "/registry",
        DurableOptions::default(),
        MaintenancePolicy::default(),
    )
    .expect("recover");
    let restored = dw.staging().index(slot);
    assert_eq!(report.replayed, 0, "the index came from its image");
    assert_eq!(restored.exception_count(), exceptions);
    println!("recovered {exceptions} exceptions from the index image, nothing replayed");
    let recomputed = PatchIndex::create(
        dw.staging().table(),
        0,
        Constraint::NearlyUnique,
        Design::Bitmap,
    );
    assert_eq!(recomputed.exception_count(), exceptions);
    println!("log-free recovery (recreate from table) agrees with the image");
}
