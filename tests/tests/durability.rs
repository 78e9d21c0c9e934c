//! Crash-point-exhaustive recovery testing.
//!
//! The strong durability property: run a randomized workload against a
//! [`DurableWriter`] on the fault-injecting `SimFs`, crash at **every**
//! filesystem-operation boundary (append, fsync, rename, dir-fsync,
//! remove — the fuse trips the k-th op and every one after it), tear and
//! occasionally bit-flip whatever was not synced, recover — and the
//! recovered table must be **byte-identical** (via `state_image`: rows,
//! patch sets, anchors, advisor counters, routing cursor, statement
//! counter) to the original run's state at some published epoch. Under
//! the syncing WAL policies the recovered epoch must additionally cover
//! every publish that returned `Ok` before the crash.
//!
//! `stress_crash_recovery` is the seeded CI lane: `PI_DUR_ITERS` scales
//! the number of randomized workloads swept exhaustively.

use std::io;
use std::sync::Arc;

use patchindex::{Constraint, Design, IndexedTable, MaintenancePolicy, SortDir, Statement};
use pi_durability::{state_image, DurableOptions, DurableWriter, SyncPolicy};
use pi_storage::dfs::{DurableFs, SimFs};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

const PARTS: usize = 3;
const DIR: &str = "/db";

/// One workload statement. Partition/slot choices are seeds resolved
/// against the live state at apply time, so a statement stream replays
/// deterministically from any prefix.
#[derive(Debug, Clone)]
enum Stmt {
    Insert(Vec<i64>),
    Modify {
        pid: usize,
        rid_seeds: Vec<u32>,
        value: i64,
    },
    Delete {
        pid: usize,
        rid_seeds: Vec<u32>,
    },
    AddIndex {
        kind: u8,
    },
    DropIndex {
        seed: usize,
    },
    Recompute {
        seed: usize,
    },
    Publish,
}

fn fresh() -> IndexedTable {
    let mut t = Table::new(
        "crash",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
        PARTS,
        Partitioning::RoundRobin,
    );
    for pid in 0..PARTS {
        let base = pid as i64 * 100;
        t.load_partition(
            pid,
            &[
                ColumnData::Int(vec![base, base + 1, base + 2, base + 3]),
                ColumnData::Int(vec![base, base, base + 7, base + 9]),
            ],
        );
    }
    t.propagate_all();
    IndexedTable::new(t)
}

fn index_kind(kind: u8) -> (usize, Constraint, Design) {
    match kind % 5 {
        0 => (1, Constraint::NearlyUnique, Design::Bitmap),
        1 => (1, Constraint::NearlyUnique, Design::Identifier),
        2 => (0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap),
        3 => (
            0,
            Constraint::NearlySorted(SortDir::Desc),
            Design::Identifier,
        ),
        _ => (1, Constraint::NearlyConstant, Design::Bitmap),
    }
}

/// Applies one statement; returns whether it was a successful publish.
/// An `Err` means the statement was neither logged nor applied.
fn apply(dw: &mut DurableWriter, stmt: &Stmt) -> io::Result<bool> {
    let nidx = dw.staging().indexes().len();
    let resolved = match stmt {
        Stmt::Insert(values) => {
            // Keys derive from the statement counter: deterministic
            // across the reference run, fused reruns and WAL replay.
            let base = 100_000 + dw.staging().statements() as i64 * 100;
            Statement::Insert(
                values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| vec![Value::Int(base + i as i64), Value::Int(v)])
                    .collect(),
            )
        }
        Stmt::Modify {
            pid,
            rid_seeds,
            value,
        } => {
            let pid = pid % PARTS;
            let len = dw.staging().table().partition(pid).visible_len();
            if len == 0 {
                return Ok(false);
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            let values = vec![Value::Int(*value); rids.len()];
            Statement::Modify {
                pid,
                rids,
                col: 1,
                values,
            }
        }
        Stmt::Delete { pid, rid_seeds } => {
            let pid = pid % PARTS;
            let len = dw.staging().table().partition(pid).visible_len();
            if len == 0 {
                return Ok(false);
            }
            let rids = rid_seeds.iter().map(|&s| s as usize % len).collect();
            Statement::Delete { pid, rids }
        }
        Stmt::AddIndex { .. } if nidx >= 4 => return Ok(false),
        Stmt::DropIndex { .. } | Stmt::Recompute { .. } if nidx == 0 => return Ok(false),
        Stmt::AddIndex { kind } => {
            let (col, constraint, design) = index_kind(*kind);
            Statement::AddIndex {
                col,
                constraint,
                design,
            }
        }
        Stmt::DropIndex { seed } => Statement::DropIndex { slot: seed % nidx },
        Stmt::Recompute { seed } => Statement::Recompute { slot: seed % nidx },
        Stmt::Publish => {
            dw.publish()?;
            return Ok(true);
        }
    };
    dw.apply(resolved)?;
    Ok(false)
}

struct Run {
    /// `images[e]` = state image at published epoch `e` (0 = creation).
    images: Vec<Vec<u8>>,
    /// Publishes that returned `Ok`.
    ok_publishes: u64,
    /// Whether `DurableWriter::create` itself succeeded.
    created: bool,
}

/// Creates a durable table and pushes the statement stream through it,
/// stopping at the first IO error, snapshotting the state image at each
/// successful publish.
fn drive(fs: Arc<SimFs>, stmts: &[Stmt], opts: DurableOptions) -> Run {
    let dyn_fs: Arc<dyn DurableFs> = fs;
    let (_handle, mut dw) = match DurableWriter::create(fresh(), dyn_fs, DIR, opts) {
        Ok(pair) => pair,
        Err(_) => {
            return Run {
                images: Vec::new(),
                ok_publishes: 0,
                created: false,
            }
        }
    };
    let mut images = vec![state_image(dw.staging())];
    for stmt in stmts {
        match apply(&mut dw, stmt) {
            Ok(true) => images.push(state_image(dw.staging())),
            Ok(false) => {}
            Err(_) => break,
        }
    }
    let ok_publishes = images.len() as u64 - 1;
    Run {
        images,
        ok_publishes,
        created: true,
    }
}

fn opts_for(sync: SyncPolicy) -> DurableOptions {
    DurableOptions {
        sync,
        // Small segments and frequent checkpoints/compactions so the
        // crash sweep crosses every protocol transition, not just the
        // happy middle of one giant segment.
        wal_segment_bytes: 256,
        checkpoint_every: 2,
        compact_every: 2,
    }
}

/// The exhaustive sweep: crash at every `stride`-th IO boundary of the
/// workload and check the recovery property at each.
fn crash_sweep(stmts: &[Stmt], sync: SyncPolicy, stride: u64) {
    let opts = opts_for(sync);
    let reference_fs = Arc::new(SimFs::new());
    let reference = drive(reference_fs.clone(), stmts, opts);
    assert!(reference.created, "unfused run must not fail");
    let total_ops = reference_fs.ops();

    let mut crash_point = 1u64;
    while crash_point <= total_ops {
        let fs = Arc::new(SimFs::new());
        fs.set_fuse(Some(crash_point));
        let run = drive(fs.clone(), stmts, opts);
        fs.crash(crash_point.wrapping_mul(0x9E37_79B9) ^ 0x5EED);

        let recovered = DurableWriter::recover(fs.clone(), DIR, opts, MaintenancePolicy::default());
        if !run.created {
            // Crashed before (or right at) making the initial manifest
            // durable: recovery either finds no table, or finds epoch 0.
            if let Ok((_h, dw, report)) = recovered {
                assert_eq!(report.epoch, 0, "crash point {crash_point}");
                assert_eq!(
                    state_image(dw.staging()),
                    reference.images[0],
                    "crash point {crash_point}"
                );
            }
        } else {
            let (_h, dw, report) = recovered
                .unwrap_or_else(|e| panic!("crash point {crash_point}: recovery failed: {e}"));
            if sync != SyncPolicy::OsBuffered {
                assert!(
                    report.epoch >= run.ok_publishes,
                    "crash point {crash_point}: acknowledged epoch lost \
                     (recovered {}, acknowledged {})",
                    report.epoch,
                    run.ok_publishes
                );
            }
            assert!(
                report.epoch <= run.ok_publishes + 1,
                "crash point {crash_point}: recovered past the workload"
            );
            assert_eq!(
                state_image(dw.staging()),
                reference.images[report.epoch as usize],
                "crash point {crash_point}: epoch {} diverged",
                report.epoch
            );
            dw.staging().check_consistency();
        }
        crash_point += stride;
    }
}

/// Deterministic statement stream shared by the exhaustive sweeps.
fn stream(seed: u64, len: usize) -> Vec<Stmt> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = vec![
        Stmt::AddIndex { kind: 0 },
        Stmt::AddIndex { kind: 2 },
        Stmt::Publish,
    ];
    for _ in 0..len {
        out.push(match rng.gen_range(0..13) {
            0..=3 => Stmt::Insert(
                (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(-50i64..50))
                    .collect(),
            ),
            4 | 5 => Stmt::Modify {
                pid: rng.gen_range(0..PARTS),
                rid_seeds: (0..rng.gen_range(1..4)).map(|_| rng.next_u32()).collect(),
                value: rng.gen_range(-50..50),
            },
            6 => Stmt::Delete {
                pid: rng.gen_range(0..PARTS),
                rid_seeds: vec![rng.next_u32()],
            },
            7 => Stmt::AddIndex {
                kind: rng.gen_range(0..5),
            },
            8 => Stmt::DropIndex {
                seed: rng.next_u32() as usize,
            },
            9 => Stmt::Recompute {
                seed: rng.next_u32() as usize,
            },
            _ => Stmt::Publish,
        });
    }
    out.push(Stmt::Publish);
    out
}

#[test]
fn crash_every_io_boundary_every_record() {
    crash_sweep(&stream(0xA11CE, 26), SyncPolicy::EveryRecord, 1);
}

#[test]
fn crash_every_io_boundary_every_publish() {
    crash_sweep(&stream(0xA11CE, 26), SyncPolicy::EveryPublish, 1);
}

#[test]
fn os_buffered_still_recovers_a_published_prefix() {
    crash_sweep(&stream(0xFACADE, 22), SyncPolicy::OsBuffered, 3);
}

/// A flipped bit in the retained WAL (silent media corruption rather
/// than a torn write) must degrade recovery to an earlier published
/// epoch, never derail it or corrupt state.
#[test]
fn bit_flip_in_the_wal_degrades_to_an_earlier_epoch() {
    let opts = DurableOptions {
        // Checkpoint rarely so the WAL tail carries real recovery weight.
        checkpoint_every: 100,
        ..opts_for(SyncPolicy::EveryRecord)
    };
    let stmts = stream(0xF1A6, 20);
    let reference_fs = Arc::new(SimFs::new());
    let reference = drive(reference_fs.clone(), &stmts, opts);

    for flip_seed in 0u64..8 {
        let fs = Arc::new(SimFs::new());
        let run = drive(fs.clone(), &stmts, opts);
        assert!(run.created);
        // Flip one bit somewhere in the newest WAL segment.
        let segs: Vec<_> = fs
            .list(std::path::Path::new(DIR))
            .unwrap()
            .into_iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .collect();
        let seg = segs.last().unwrap();
        let len = fs.len(seg).unwrap();
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        fs.flip_bit(seg, rng.gen_range(0..len), rng.gen_range(0..8));

        let (_h, dw, report) =
            DurableWriter::recover(fs.clone(), DIR, opts, MaintenancePolicy::default()).unwrap();
        assert!(report.epoch <= run.ok_publishes);
        assert_eq!(
            state_image(dw.staging()),
            reference.images[report.epoch as usize],
            "flip seed {flip_seed}"
        );
        dw.staging().check_consistency();
    }
}

// Randomized streams, sampled crash points, both syncing policies.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn random_streams_survive_sampled_crash_points(
        seed in any::<u32>(),
        len in 12usize..28,
    ) {
        let stmts = stream(seed as u64, len);
        crash_sweep(&stmts, SyncPolicy::EveryRecord, 7);
        crash_sweep(&stmts, SyncPolicy::EveryPublish, 7);
    }
}

/// Seeded stress lane (CI raises `PI_DUR_ITERS`): full exhaustive sweeps
/// over longer randomized workloads under both syncing policies.
#[test]
fn stress_crash_recovery() {
    let iters: usize = std::env::var("PI_DUR_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut rng = SmallRng::seed_from_u64(0xD0_0B1E);
    for _ in 0..iters {
        let stmts = stream(rng.next_u64(), rng.gen_range(18..36));
        crash_sweep(&stmts, SyncPolicy::EveryRecord, 1);
        crash_sweep(&stmts, SyncPolicy::EveryPublish, 1);
    }
}
