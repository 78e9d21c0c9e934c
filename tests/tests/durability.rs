//! Crash-point-exhaustive recovery testing.
//!
//! The strong durability property: run a randomized workload against a
//! [`DurableWriter`] on the fault-injecting `SimFs`, crash at **every**
//! filesystem-operation boundary (append, fsync, rename, dir-fsync,
//! remove — the fuse trips the k-th op and every one after it), tear and
//! occasionally bit-flip whatever was not synced, recover — and the
//! recovered table must be **byte-identical** (via `state_image`: rows,
//! patch sets, anchors, advisor counters, routing cursor, statement
//! counter) to the original run's state at some publish, and recover
//! that publish's epoch. Under the syncing WAL policies the recovered
//! publish must additionally be at or after every publish that returned
//! `Ok` before the crash.
//!
//! `stress_crash_recovery` is the seeded CI lane: `PI_DUR_ITERS` scales
//! the number of randomized workloads swept exhaustively.

use std::io;
use std::sync::Arc;

use patchindex::{IndexedTable, MaintenancePolicy};
use pi_durability::{state_image, DurableOptions, DurableWriter, SyncPolicy};
use pi_integration::{kv_table, seeded_steps, Applier, Pool, Step, DDL};
use pi_storage::dfs::{DurableFs, SimFs};
use pi_storage::Partitioning;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PARTS: usize = 3;
const DIR: &str = "/db";

fn fresh() -> IndexedTable {
    let parts = (0..PARTS as i64).map(|p| {
        let base = p * 100;
        (
            vec![base, base + 1, base + 2, base + 3],
            vec![base, base, base + 7, base + 9],
        )
    });
    IndexedTable::new(kv_table(Partitioning::RoundRobin, parts.collect()))
}

/// Applies one step; returns the epoch of a successful publish. An
/// `Err` means the statement was neither logged nor applied.
fn apply(dw: &mut DurableWriter, step: &Step) -> io::Result<Option<u64>> {
    if let Step::Publish = step {
        return dw.publish().map(Some);
    }
    dw.step(step)?;
    Ok(None)
}

/// The `(epoch, state image)` of a table at one publish.
type Published = (u64, Vec<u8>);

struct Run {
    /// `publishes[i]` = epoch and state image at the `i`-th publish that
    /// returned `Ok` (0 = creation). A publish that changed nothing keeps
    /// the epoch before it.
    publishes: Vec<Published>,
    /// Publishes that returned `Ok`.
    ok_publishes: usize,
    /// Whether `DurableWriter::create` itself succeeded.
    created: bool,
}

/// Creates a durable table and pushes the statement stream through it,
/// stopping at the first IO error, snapshotting the state image at each
/// successful publish.
fn drive(fs: Arc<SimFs>, stmts: &[Step], opts: DurableOptions) -> Run {
    let dyn_fs: Arc<dyn DurableFs> = fs;
    let (_handle, mut dw) = match DurableWriter::create(fresh(), dyn_fs, DIR, opts) {
        Ok(pair) => pair,
        Err(_) => {
            return Run {
                publishes: Vec::new(),
                ok_publishes: 0,
                created: false,
            }
        }
    };
    let mut publishes = vec![(dw.epoch(), state_image(dw.staging()))];
    for stmt in stmts {
        match apply(&mut dw, stmt) {
            Ok(Some(epoch)) => publishes.push((epoch, state_image(dw.staging()))),
            Ok(None) => {}
            Err(_) => break,
        }
    }
    let ok_publishes = publishes.len() - 1;
    Run {
        publishes,
        ok_publishes,
        created: true,
    }
}

/// Asserts that `got` is the `(epoch, image)` of one of the reference
/// run's publishes `lo..=hi` (0 = creation).
#[track_caller]
fn assert_recovered_publish(reference: &Run, got: &Published, lo: usize, hi: usize, at: &str) {
    let hi = hi.min(reference.publishes.len() - 1);
    assert!(
        reference.publishes[lo..=hi].contains(got),
        "{at}: recovered epoch {} is the state of none of publishes {lo}..={hi} \
         (epochs {:?})",
        got.0,
        reference.publishes[lo..=hi]
            .iter()
            .map(|(e, _)| e)
            .collect::<Vec<_>>()
    );
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
fn crash_sweep(stmts: &[Step], sync: SyncPolicy, stride: u64) {
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
        let at = format!("crash point {crash_point}");
        if !run.created {
            // Crashed before (or right at) making the initial manifest
            // durable: recovery either finds no table, or finds epoch 0.
            if let Ok((_h, dw, report)) = recovered {
                let got = (report.epoch, state_image(dw.staging()));
                assert_recovered_publish(&reference, &got, 0, 0, &at);
            }
        } else {
            // The run acknowledged a prefix of the reference's publishes.
            assert!(
                run.publishes[..] == reference.publishes[..run.publishes.len()],
                "{at}: the run diverged from the reference before the crash"
            );
            let (handle, dw, report) =
                recovered.unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            assert_eq!(handle.epoch(), report.epoch, "{at}");
            // Under the syncing policies every acknowledged publish is
            // durable; no policy recovers more than the one publish that
            // may have reached the log without being acknowledged.
            let lo = if sync == SyncPolicy::OsBuffered {
                0
            } else {
                run.ok_publishes
            };
            let got = (report.epoch, state_image(dw.staging()));
            assert_recovered_publish(&reference, &got, lo, run.ok_publishes + 1, &at);
            dw.staging().check_consistency();
        }
        crash_point += stride;
    }
}

/// Deterministic statement stream shared by the exhaustive sweeps: two
/// indexes and a publish, `len` steps of every kind, a final publish.
/// Insert keys derive from the statement counter, so they agree across
/// the reference run, fused reruns and WAL replay.
fn stream(seed: u64, len: usize) -> Vec<Step> {
    let body = seeded_steps(
        Pool::shared(-50..50),
        DDL,
        &format!("durability/{seed:x}"),
        len,
    );
    let mut out = vec![Step::AddIndex(0), Step::AddIndex(2), Step::Publish];
    out.extend(body);
    out.push(Step::Publish);
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
        let got = (report.epoch, state_image(dw.staging()));
        let at = format!("flip seed {flip_seed}");
        assert_recovered_publish(&reference, &got, 0, run.ok_publishes, &at);
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
    let mut rng = TestRng::deterministic("stress_crash_recovery");
    for _ in 0..iters {
        let stmts = stream(rng.next_u64(), 18 + rng.below(18) as usize);
        crash_sweep(&stmts, SyncPolicy::EveryRecord, 1);
        crash_sweep(&stmts, SyncPolicy::EveryPublish, 1);
    }
}
