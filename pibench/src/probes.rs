//! Per-layer measurements taken from outside the program: span
//! aggregates, registry reads, index-free twins and stand-alone replays.
//! Each function fills the metrics of one layer; a workload calls the ones
//! whose layer it touches and leaves the rest at zero.

use std::sync::Arc;
use std::time::Instant;

use patchindex::{Constraint, PatchIndex, PatchStore, TableSnapshot};
use pi_bitmap::{BulkDeleteMode, ShardedBitmap};
use pi_exec::ops::scan::ScanOp;
use pi_obs::MetricsRegistry;
use pi_planner::{canonical_bytes, execute, fingerprint_hash, Plan, QueryEngine, QueryMode};
use pi_storage::{Table, Value};

use crate::cal::{mean, median};
use crate::rec::Recorder;
use crate::util::Rng;
use crate::workload::Metrics;

pub fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `n` timings of `f`.
pub fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..n).map(|_| time_ms(&mut f)).collect();
    median(&mut v)
}

/// `core.snapshot_us` and `core.publish_p50_ms` from the spans the rounds
/// recorded.
pub fn core_from_spans(rec: &Recorder, m: &mut Metrics) {
    m.insert("core.snapshot_us", rec.span_mean_ms("snapshot") * 1e3);
    let mut publishes = rec.span_samples("publish");
    if !publishes.is_empty() {
        m.insert("core.publish_p50_ms", median(&mut publishes));
    }
}

/// Copy-on-write work per publish, from the writer's registry.
pub fn publish_counters(reg: &MetricsRegistry, m: &mut Metrics) {
    let publishes = reg.counter("publish.count").get().max(1) as f64;
    m.insert(
        "core.partitions_copied_per_publish",
        reg.counter("publish.partitions_copied").get() as f64 / publishes,
    );
    m.insert(
        "core.indexes_copied_per_publish",
        reg.counter("publish.indexes_copied").get() as f64 / publishes,
    );
}

pub fn registry_snapshot(reg: &MetricsRegistry, m: &mut Metrics) {
    m.insert(
        "obs.registry_snapshot_us",
        median_ms(9, || drop(std::hint::black_box(reg.snapshot_json()))) * 1e3,
    );
}

/// The quality side of maintenance: exception rates at end of run, patch
/// growth per maintained row, and the collision-join counters.
pub fn index_quality(indexes: &[Arc<PatchIndex>], m: &mut Metrics) {
    let (mut drift, mut maintained) = (0u64, 0u64);
    let (mut rounds, mut builds, mut probed) = (0u64, 0u64, 0u64);
    for idx in indexes {
        let name = match idx.constraint() {
            Constraint::NearlyUnique => "core.exception_rate_nuc_end",
            Constraint::NearlySorted(_) => "core.exception_rate_nsc_end",
            Constraint::NearlyConstant => "core.exception_rate_ncc_end",
        };
        m.insert(name, idx.exception_rate());
        drift += idx.drift_patches();
        maintained += idx.maintained_since_recompute();
        let s = idx.maintenance_stats();
        rounds += s.collision_rounds;
        builds += s.build_invocations;
        probed += s.probed_partitions;
    }
    m.insert(
        "core.patches_added_per_krow",
        drift as f64 * 1000.0 / maintained.max(1) as f64,
    );
    m.insert("core.collision_rounds", rounds as f64);
    m.insert("core.build_invocations", builds as f64);
    m.insert(
        "core.probed_partitions_per_round",
        probed as f64 / rounds.max(1) as f64,
    );
}

/// Cost of fingerprinting a chosen plan (what a cache probe pays on top
/// of planning).
pub fn planner_probes(snap: &TableSnapshot, plans: &[Plan], m: &mut Metrics) {
    let mut snap = snap.clone();
    let chosen: Vec<Plan> = plans.iter().map(|p| snap.plan_query(p)).collect();
    let us = median_ms(25, || {
        for c in &chosen {
            let bytes = canonical_bytes(c, snap.catalog(), QueryMode::Rows);
            std::hint::black_box(fingerprint_hash(&bytes));
        }
    }) * 1e3
        / chosen.len().max(1) as f64;
    m.insert("planner.fingerprint_us", us);
}

/// The paper's headline ratio: index-free reference time over chosen-plan
/// time, on one snapshot. `plans` = [distinct on NUC, sort on NSC,
/// distinct on NCC].
pub fn rewrite_speedups(snap: &TableSnapshot, plans: &[Plan], m: &mut Metrics) {
    let names = [
        "planner.rewrite_speedup_distinct",
        "planner.rewrite_speedup_sort",
        "planner.rewrite_speedup_ncc",
    ];
    let mut snap = snap.clone();
    for (plan, name) in plans.iter().zip(names) {
        let reference = median_ms(3, || {
            drop(execute(plan, snap.table(), pi_planner::NO_INDEXES))
        });
        let chosen = median_ms(3, || drop(snap.query(plan)));
        m.insert(name, reference / chosen.max(1e-9));
    }
}

fn scan_ns_per_row(table: &Table, pid: usize) -> f64 {
    let p = table.partition(pid);
    let rows = p.visible_len().max(1);
    median_ms(5, || {
        drop(pi_exec::collect(&mut ScanOp::new(p, vec![0], false)))
    }) * 1e6
        / rows as f64
}

/// Scan cost of a clean partition and of one with a pending delta (made
/// on a copy-on-write twin when the table has none), and what merging the
/// table's deltas costs.
pub fn storage_probes(table: &Table, rng: &mut Rng, m: &mut Metrics) {
    let dirty = |t: &Table| {
        t.partitions()
            .iter()
            .position(|p| !p.delta().is_empty() && p.visible_len() > 0)
    };
    let mut twin = table.clone();
    let dirty_pid = dirty(&twin).unwrap_or_else(|| {
        let len = twin.partition(0).visible_len();
        let rid = rng.below(len as u64) as usize;
        let v = twin.partition(0).value_at(0, rid);
        twin.modify(0, &[rid], 0, &[v]);
        0
    });
    m.insert(
        "storage.scan_delta_ns_per_row",
        scan_ns_per_row(&twin, dirty_pid),
    );
    m.insert("storage.propagate_ms", time_ms(|| twin.propagate_all()));
    m.insert("storage.scan_ns_per_row", scan_ns_per_row(&twin, dirty_pid));
}

/// A statement of the kind the workload issues, for the twin probe.
pub enum Stmt {
    Insert(Vec<Vec<Value>>),
    Modify {
        pid: usize,
        rids: Vec<usize>,
        col: usize,
        vals: Vec<Value>,
    },
    Delete {
        pid: usize,
        rids: Vec<usize>,
    },
}

/// Layer cost by difference: the same statements on an `IndexedTable`
/// twin restored from the snapshot (storage + index maintenance) and on
/// an index-free `Table` twin (storage alone). Paper Fig. 9 is the ratio.
pub fn maintenance_twin(snap: &TableSnapshot, stmts: &[Stmt], m: &mut Metrics) {
    let mut plain = snap.table().clone();
    let mut indexed = patchindex::IndexedTable::with_restored_indexes(
        snap.table().clone(),
        snap.indexes().to_vec(),
        0,
    );
    // Both twins share partitions and index versions with the snapshot;
    // an untimed statement that changes nothing takes the copy-on-write
    // copies out of the timed statements.
    for pid in 0..plain.partition_count() {
        if plain.partition(pid).visible_len() == 0 {
            continue;
        }
        for col in 0..plain.schema().len() {
            let same = [plain.partition(pid).value_at(col, 0)];
            plain.modify(pid, &[0], col, &same);
            indexed.modify(pid, &[0], col, &same);
        }
    }
    // [insert, modify, delete] x (rows, indexed ms, plain ms)
    let mut acc = [(0usize, 0.0f64, 0.0f64); 3];
    for stmt in stmts {
        let (kind, rows, a, b) = match stmt {
            Stmt::Insert(rows) => (
                0,
                rows.len(),
                time_ms(|| drop(indexed.insert(rows))),
                time_ms(|| drop(plain.insert_rows(rows))),
            ),
            Stmt::Modify {
                pid,
                rids,
                col,
                vals,
            } => (
                1,
                rids.len(),
                time_ms(|| indexed.modify(*pid, rids, *col, vals)),
                time_ms(|| plain.modify(*pid, rids, *col, vals)),
            ),
            Stmt::Delete { pid, rids } => (
                2,
                rids.len(),
                time_ms(|| indexed.delete(*pid, rids)),
                time_ms(|| plain.delete(*pid, rids)),
            ),
        };
        acc[kind].0 += rows;
        acc[kind].1 += a;
        acc[kind].2 += b;
    }
    let names = [
        ("core.insert_us_per_row", "storage.insert_us_per_row"),
        ("core.modify_us_per_row", "storage.modify_us_per_row"),
        ("core.delete_us_per_row", "storage.delete_us_per_row"),
    ];
    for ((rows, a, b), (core, storage)) in acc.iter().zip(names) {
        if *rows > 0 {
            m.insert(core, a * 1e3 / *rows as f64);
            m.insert(storage, b * 1e3 / *rows as f64);
        }
    }
    let (a, b): (f64, f64) = acc.iter().fold((0.0, 0.0), |s, x| (s.0 + x.1, s.1 + x.2));
    m.insert("core.maint_overhead_ratio", a / b.max(1e-9));
}

/// Replays the patch positions the workload produced on a stand-alone
/// `ShardedBitmap` and times the primitive operations on it.
pub fn bitmap_probe(indexes: &[Arc<PatchIndex>], rng: &mut Rng, m: &mut Metrics) {
    let Some((len, positions)) = indexes.iter().find_map(|idx| {
        (0..idx.partition_count())
            .map(|pid| &idx.partition(pid).store)
            .filter(|s| matches!(s, PatchStore::Bitmap(_)) && s.nrows() > 4096)
            .map(|s| (s.nrows(), s.patch_rids()))
            .next()
    }) else {
        return;
    };
    const K: usize = 2048;
    let fresh = || ShardedBitmap::from_positions(len, &positions);
    let picks: Vec<u64> = (0..K).map(|_| rng.below(len - K as u64)).collect();

    let mut bm = fresh();
    let set = time_ms(|| picks.iter().for_each(|&p| bm.set(p)));
    m.insert("bitmap.set_ns", set * 1e6 / K as f64);

    let words = (len / 64) as usize;
    let mut out = vec![0u64; words];
    let fill = median_ms(9, || bm.fill_words(0, &mut out));
    m.insert("bitmap.fill_words_ns_per_word", fill * 1e6 / words as f64);

    let del = time_ms(|| picks.iter().for_each(|&p| bm.delete(p)));
    m.insert("bitmap.delete_ns", del * 1e6 / K as f64);
    m.insert("bitmap.utilization_end", bm.utilization());
    m.insert("bitmap.sharding_overhead", bm.sharding_overhead());
    m.insert("bitmap.condense_ms", time_ms(|| bm.condense()));

    let mut bm = fresh();
    let bulk = time_ms(|| bm.bulk_delete(&picks, BulkDeleteMode::ParallelVectorized));
    m.insert("bitmap.bulk_delete_ns_per_pos", bulk * 1e6 / K as f64);

    let append = time_ms(|| (0..64).for_each(|_| bm.append_zeros(1000)));
    m.insert("bitmap.append_ns_per_kbit", append * 1e6 / 64.0);
}

/// The thread-spawn tax: `per_partition` with an empty closure.
pub fn fanout_spawn(table: &Table, m: &mut Metrics) {
    let v: Vec<f64> = (0..50)
        .map(|_| time_ms(|| drop(pi_exec::parallel::per_partition(table, |_| ()))))
        .collect();
    m.insert("exec.fanout_spawn_us", mean(&v) * 1e3);
}
