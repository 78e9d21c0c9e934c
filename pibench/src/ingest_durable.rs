//! `ingest_durable`: the same layers as `adhoc_exec` used the other way
//! round. A `DurableWriter` over an in-memory file system (`util::MemFs`:
//! every byte is framed, checksummed, serialised and copied out, no device
//! is waited for; flush policy `SyncPolicy::EveryPublish`, stated and the
//! same on both sides of any comparison) takes four inserts and two modifies of 512 rows and two deletes of 1024 rows per
//! round (table size constant), each published; every 8th publish — the
//! round's last write — carries an incremental checkpoint. Inserts are
//! half the writes, so `write_p50_ms` sits inside the insert class; the
//! checkpoint class is an eighth, so `write_p95_ms` sits inside it. Four
//! reads per round show when cheaper maintenance is paid for in patches.
//!
//! The statements work on a rolling window of recently ingested rows
//! (insert new, correct recent, retire oldest). `DurableWriter` has no
//! propagate, so this is the one shape in which pending deltas reach a
//! plateau: appended rows are deleted and modified in place, the delete
//! list and the modify map of the base stay empty.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use patchindex::{ConcurrentTable, Design, IndexedTable, MaintenancePolicy};
use pi_durability::{state_image, DurableOptions, DurableWriter, SyncPolicy};
use pi_exec::ops::sort::SortOrder;
use pi_obs::MetricsRegistry;
use pi_planner::Plan;
use pi_storage::{DurableFs, RealFs, Value};

use crate::cal::{mean, median};
use crate::probes;
use crate::rec::{Recorder, Stages};
use crate::util::{MemFs, Rng, TempDir};
use crate::workload::{
    audit_plans, micro, snapshot_index_bytes_and_rows, snapshot_read, table_delta_rows, Metrics,
    OpAgg, ReadPlan, Workload,
};

const PARTS: usize = 4;
const STMT_ROWS: usize = 512;
const DELETE_ROWS: usize = 2 * STMT_ROWS;
const CHECKPOINT_EVERY: u64 = 8;
/// Inserts that fill the window before the first round: 1024 rows per
/// partition, so every delete finds its 512 oldest rows.
const PREFILL_INSERTS: usize = 8;

fn options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryPublish,
        checkpoint_every: CHECKPOINT_EVERY,
        compact_every: 4,
        ..DurableOptions::default()
    }
}

pub struct Input {
    seed: u64,
    rows: usize,
    parts: Vec<[Vec<i64>; 4]>,
}

pub struct IngestDurable {
    handle: ConcurrentTable,
    dw: DurableWriter,
    fs: Arc<MemFs>,
    registry: Option<Arc<MetricsRegistry>>,
    rng: Rng,
    rows: usize,
    fresh: i64,
    /// Next in-order NSC value per partition for appended rows.
    next_sorted: [i64; PARTS],
    /// Rows in each partition's append window.
    window: [usize; PARTS],
    publishes: u64,
    user_bytes: u64,
    plans: [ReadPlan; 3],
    agg: OpAgg,
    index_create_ms: f64,
}

fn plans() -> [ReadPlan; 3] {
    [
        (
            Plan::scan(vec![0]).distinct(vec![0]),
            false,
            "distinct(nuc)",
        ),
        (
            Plan::scan(vec![1])
                .sort(vec![(0, SortOrder::Asc)])
                .limit(100),
            true,
            "sort(nsc) limit 100",
        ),
        (
            Plan::scan(vec![2]).distinct(vec![0]),
            false,
            "distinct(ncc)",
        ),
    ]
}

/// The durable directory's name inside a `MemFs`.
fn dir() -> PathBuf {
    Path::new("/ingest").to_path_buf()
}

/// What the sandbox's disk would add to every publish: the mean `fsync` of
/// a log file that one insert statement's bytes were appended to.
fn real_fsync_ms() -> std::io::Result<f64> {
    let dir = TempDir::fresh("ingest-fsync");
    let log = dir.0.join("wal.log");
    let record = vec![0u8; STMT_ROWS * 4 * 8];
    let mut ms = Vec::new();
    for _ in 0..32 {
        RealFs.append(&log, &record)?;
        let t = std::time::Instant::now();
        RealFs.fsync(&log)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(mean(&ms))
}

impl IngestDurable {
    /// 512 fresh rows; the table is round-robin and 512 is a multiple of
    /// the partition count, so row `j` lands in partition `j % PARTS`.
    fn insert_rows(&mut self) -> Vec<Vec<Value>> {
        (0..STMT_ROWS)
            .map(|j| {
                let pid = j % PARTS;
                self.next_sorted[pid] += 4;
                let total = PARTS * self.rows;
                vec![
                    Value::Int(micro::nuc_value(&mut self.rng, pid, &mut self.fresh)),
                    Value::Int(micro::nsc_value(
                        &mut self.rng,
                        self.next_sorted[pid],
                        total,
                    )),
                    Value::Int(micro::ncc_value(&mut self.rng)),
                    Value::Int(self.rng.below(61) as i64),
                ]
            })
            .collect()
    }

    /// 512 rows of partition `pid`'s window get a new value in `col`
    /// (0 = NUC, 2 = NCC).
    fn modify_args(&mut self, pid: usize, col: usize) -> (Vec<usize>, Vec<Value>) {
        assert!(self.window[pid] >= STMT_ROWS, "window ran dry");
        let rids = self
            .rng
            .distinct_sorted(STMT_ROWS, self.rows, self.rows + self.window[pid]);
        let vals = rids
            .iter()
            .map(|_| {
                Value::Int(if col == 0 {
                    micro::nuc_value(&mut self.rng, pid, &mut self.fresh)
                } else {
                    micro::ncc_value(&mut self.rng)
                })
            })
            .collect();
        (rids, vals)
    }

    fn publish(&mut self, rec: &mut Recorder) {
        self.publishes += 1;
        let name = if self.publishes.is_multiple_of(CHECKPOINT_EVERY) {
            "publish_ckpt"
        } else {
            "publish"
        };
        if let Err(e) = rec.span(name, |_| self.dw.publish()) {
            rec.fail(&format!("publish: {e}"));
        }
    }

    fn account_insert(&mut self) {
        self.user_bytes += (STMT_ROWS * 4 * 8) as u64;
        for w in &mut self.window {
            *w += STMT_ROWS / PARTS;
        }
    }

    fn insert(&mut self, rec: &mut Recorder) {
        let rows = rec.span("input", |_| self.insert_rows());
        rec.note(&[1, rows[0][0].as_int() as u64, rows[1][1].as_int() as u64]);
        self.account_insert();
        rec.write(|rec| {
            if let Err(e) = rec.span("insert", |_| self.dw.insert(&rows)) {
                rec.fail(&format!("insert: {e}"));
            }
            self.publish(rec);
        });
    }

    fn modify(&mut self, pid: usize, col: usize, rec: &mut Recorder) {
        let (rids, vals) = rec.span("input", |_| self.modify_args(pid, col));
        rec.note(&[
            2,
            pid as u64,
            col as u64,
            rids[0] as u64,
            vals[0].as_int() as u64,
        ]);
        self.user_bytes += (STMT_ROWS * 2 * 8) as u64;
        rec.write(|rec| {
            if let Err(e) = rec.span("modify", |_| self.dw.modify(pid, &rids, col, &vals)) {
                rec.fail(&format!("modify: {e}"));
            }
            self.publish(rec);
        });
    }

    /// Retires the 1024 oldest rows of partition `pid`'s window.
    fn delete(&mut self, pid: usize, rec: &mut Recorder) {
        assert!(self.window[pid] >= DELETE_ROWS, "window ran dry");
        let rids: Vec<usize> = (self.rows..self.rows + DELETE_ROWS).collect();
        rec.note(&[3, pid as u64]);
        self.user_bytes += (DELETE_ROWS * 8) as u64;
        self.window[pid] -= DELETE_ROWS;
        rec.write(|rec| {
            if let Err(e) = rec.span("delete", |_| self.dw.delete(pid, &rids)) {
                rec.fail(&format!("delete: {e}"));
            }
            self.publish(rec);
        });
    }

    fn read(&mut self, which: usize, rec: &mut Recorder) {
        rec.note(&[4, which as u64]);
        snapshot_read(&self.handle, &self.plans[which].0, &mut self.agg, rec);
    }

    /// WAL cost of one insert statement by difference: the same inserts
    /// through a durable writer and through a non-durable `TableWriter`,
    /// both over a small table without indexes — there the statement itself
    /// costs little, so the difference is framing and append, not the noise
    /// of index maintenance. The two take turns going first, so neither
    /// always finds the rows warm; the result is the median difference.
    fn wal_append_us(&mut self) -> Result<f64, String> {
        let parts = micro::columns(&mut self.rng, PARTS, 1024);
        let bare = || IndexedTable::new(micro::table("walprobe", &parts));
        let (_handle, mut durable) =
            DurableWriter::create(bare(), Arc::new(MemFs::default()), dir(), options())
                .map_err(|e| format!("wal probe: {e}"))?;
        let (_twin_handle, mut twin) = ConcurrentTable::new(bare());
        let mut diffs = Vec::new();
        for k in 0..33 {
            let rows = self.insert_rows();
            let (mut d, mut t) = (0.0, 0.0);
            for durable_turn in [k % 2 == 0, k % 2 != 0] {
                if durable_turn {
                    d = probes::time_ms(|| durable.insert(&rows).expect("insert"));
                } else {
                    t = probes::time_ms(|| drop(twin.insert(&rows)));
                }
            }
            // The first statement pays the copy-on-write copies on both.
            if k > 0 {
                diffs.push((d - t) * 1e3);
            }
        }
        Ok(median(&mut diffs))
    }

    /// Recovers a copy of the file system into a fresh handle; returns the
    /// recovered state image, the records replayed and the milliseconds
    /// recovery took.
    fn recover_copy(&self) -> Result<(Vec<u8>, usize, f64), String> {
        let copy = Arc::new(self.fs.copy());
        let t = std::time::Instant::now();
        let (_, recovered, report) =
            DurableWriter::recover(copy, dir(), options(), MaintenancePolicy::default())
                .map_err(|e| format!("recovery failed: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((state_image(recovered.staging()), report.replayed, ms))
    }
}

impl Workload for IngestDurable {
    const NAME: &'static str = "ingest_durable";
    const OPS_PER_ROUND: usize = 12;
    const ROUND_MS: f64 = 240.0;
    const CADENCE: usize = 4;
    type Input = Input;

    fn generate(seed: u64, smoke: bool) -> Input {
        let rows = if smoke { 4_000 } else { 100_000 };
        let mut rng = Rng::new(seed ^ 0x1A6E57);
        Input {
            seed,
            rows,
            parts: micro::columns(&mut rng, PARTS, rows),
        }
    }

    fn setup(input: &Input, traced: bool, st: &mut Stages, rec: &mut Recorder) -> IngestDurable {
        let it = st.run("load", rec, || {
            IndexedTable::new(micro::table("ingest", &input.parts))
        });
        let it = st.run("index", rec, || {
            let mut it = it;
            for (col, constraint) in micro::INDEXES {
                it.add_index(col, constraint, Design::Bitmap);
            }
            it
        });
        let index_create_ms = st.stage_ms("index");
        let fs = Arc::new(MemFs::default());
        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let (handle, dw) = st.run("start", rec, || {
            let (handle, mut dw) = DurableWriter::create(it, fs.clone(), dir(), options())
                .expect("create durable table in an empty file system");
            if let Some(reg) = &registry {
                dw.attach_metrics(reg);
            }
            (handle, dw)
        });
        let mut next_sorted = [0i64; PARTS];
        for (pid, next) in next_sorted.iter_mut().enumerate() {
            *next = micro::nsc_backbone(input.rows, pid, input.rows);
        }
        let mut w = IngestDurable {
            handle,
            dw,
            fs,
            registry,
            rng: Rng::new(input.seed ^ 0x1A6E_57AB),
            rows: input.rows,
            fresh: 2_000_000_000_000,
            next_sorted,
            window: [0; PARTS],
            publishes: 0,
            user_bytes: 0,
            plans: plans(),
            agg: OpAgg::default(),
            index_create_ms,
        };
        st.run("prefill", rec, || {
            for _ in 0..PREFILL_INSERTS {
                let rows = w.insert_rows();
                w.dw.insert(&rows).expect("prefill insert");
                w.account_insert();
                w.publishes += 1;
                w.dw.publish().expect("prefill publish");
            }
        });
        w
    }

    fn round(&mut self, r: usize, rec: &mut Recorder) {
        for _ in 0..4 {
            self.insert(rec);
        }
        self.modify(r % PARTS, 0, rec);
        self.modify((r + 2) % PARTS, 2, rec);
        for k in 0..2 {
            self.delete((2 * r + k) % PARTS, rec);
        }
        // Two of four reads are the same kind: `read_p50_ms` sits inside
        // the distinct class, `read_p95_ms` inside the sorted-limit one.
        for which in [0, 1, 0, 2] {
            self.read(which, rec);
        }
    }

    fn audit(&mut self) -> Result<u64, String> {
        audit_plans(&self.handle, &self.plans)
    }

    fn final_audit(&mut self) -> Result<u64, String> {
        let passed = self.audit()?;
        self.handle.snapshot().check_consistency();
        let (image, _, _) = self.recover_copy()?;
        if image != state_image(self.dw.staging()) {
            return Err("recovered state differs from the live state".into());
        }
        Ok(passed + 2)
    }

    fn index_bytes_and_rows(&self) -> (usize, usize) {
        snapshot_index_bytes_and_rows(&self.handle)
    }

    fn delta_rows(&self) -> usize {
        table_delta_rows(self.dw.staging().table())
    }

    fn layers(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        self.agg.report(m);
        m.insert("core.index_create_ms", self.index_create_ms);
        probes::core_from_spans(rec, m);
        let mut plain = rec.span_samples("publish");
        let mut ckpt = rec.span_samples("publish_ckpt");
        if !plain.is_empty() && !ckpt.is_empty() {
            m.insert("durability.publish_plain_p50_ms", median(&mut plain));
            m.insert("durability.publish_ckpt_p50_ms", median(&mut ckpt));
            plain.extend(ckpt);
            m.insert("core.publish_p50_ms", median(&mut plain));
        }
        let stats = self.dw.stats();
        let user = self.user_bytes.max(1) as f64;
        if let Some(reg) = &self.registry {
            m.insert(
                "durability.fsyncs_per_publish",
                reg.counter("wal.fsyncs").get() as f64 / self.publishes.max(1) as f64,
            );
            probes::registry_snapshot(reg, m);
        }
        match real_fsync_ms() {
            Ok(ms) => {
                m.insert("durability.fsync_mean_ms", ms);
            }
            Err(e) => rec.fail(&format!("fsync probe: {e}")),
        }
        m.insert(
            "durability.checkpoint_files_per_ckpt",
            stats.checkpoint_files as f64 / stats.checkpoints.max(1) as f64,
        );
        m.insert(
            "durability.wal_bytes_per_user_byte",
            stats.wal_bytes as f64 / user,
        );
        m.insert(
            "durability.checkpoint_bytes_per_user_byte",
            stats.checkpoint_bytes as f64 / user,
        );
        m.insert(
            "durability.write_amp",
            (stats.wal_bytes + stats.checkpoint_bytes) as f64 / user,
        );
        let live_bytes = (self.handle.snapshot().table().visible_len() * 4 * 8).max(1);
        m.insert(
            "durability.space_amp",
            self.fs.bytes() as f64 / live_bytes as f64,
        );
        let snap = self.handle.snapshot();
        probes::index_quality(snap.indexes(), m);
        let plan_list = self.plans.clone().map(|(p, _, _)| p);
        probes::planner_probes(&snap, &plan_list, m);
        probes::rewrite_speedups(&snap, &plan_list, m);
        probes::storage_probes(snap.table(), &mut self.rng, m);
        probes::bitmap_probe(snap.indexes(), &mut self.rng, m);
        probes::fanout_spawn(snap.table(), m);

        match self.wal_append_us() {
            Ok(us) => {
                m.insert("durability.wal_append_us", us);
            }
            Err(e) => rec.fail(&e),
        }
        for _ in 0..9 {
            let rows = self.insert_rows();
            self.dw.insert(&rows).expect("insert");
            self.account_insert();
        }
        drop(snap);
        if let Err(e) = self.dw.publish() {
            rec.fail(&format!("publish: {e}"));
        }
        // Recovery now has a WAL tail to replay: the nine inserts above
        // and their publish since the round's checkpoint.
        match self.recover_copy() {
            Ok((_, replayed, ms)) => {
                m.insert("durability.recover_ms", ms);
                m.insert("durability.replayed_records", replayed as f64);
            }
            Err(e) => rec.fail(&e),
        }

        let mut stmts = Vec::new();
        for pid in 0..PARTS {
            stmts.push(probes::Stmt::Insert(self.insert_rows()));
            let col = if pid % 2 == 0 { 0 } else { 2 };
            let (rids, vals) = self.modify_args(pid, col);
            stmts.push(probes::Stmt::Modify {
                pid,
                rids,
                col,
                vals,
            });
            stmts.push(probes::Stmt::Delete {
                pid,
                rids: (self.rows..self.rows + DELETE_ROWS).collect(),
            });
        }
        probes::maintenance_twin(&self.handle.snapshot(), &stmts, m);
        let mut removed = 0;
        m.insert(
            "durability.compact_ms",
            probes::time_ms(|| removed = self.dw.compact().unwrap_or(0)),
        );
        m.insert(
            "durability.files_removed",
            (self.dw.stats().files_removed as usize).max(removed) as f64,
        );
    }

    fn teardown(self, _input: &Input) {}
}
