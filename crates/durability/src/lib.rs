#![warn(missing_docs)]
//! Crash safety for PatchIndex tables.
//!
//! This crate wraps the single-writer half of a
//! [`patchindex::ConcurrentTable`] with a durability protocol built from
//! three pieces:
//!
//! * **Statement WAL** ([`wal`]) — every update statement (insert /
//!   modify / delete / index DDL / recompute / publish) is checked
//!   against the table ([`Statement::check`]) and then appended to an
//!   append-only, CRC-framed log *before* it is applied (log-then-apply).
//!   The [`SyncPolicy`] decides when appends are forced to stable
//!   storage.
//! * **Incremental checkpoints** — at publish time (every
//!   [`DurableOptions::checkpoint_every`] publishes) the writer persists
//!   the [`patchindex::ChangeSet`] since the previous checkpoint. A
//!   partition whose `Arc` changed gets a new *delta frame* (its
//!   positional deltas), and a new *base frame* only if its base columns
//!   are not the ones the previous checkpoint recorded — which, since
//!   this writer never propagates, happens at [`DurableWriter::create`]
//!   only. An index in no slot of the previous checkpoint gets a new
//!   *index image*: patch data stays out of the log (paper, Section 3.4),
//!   and recovery loads each index from its image and rebuilds it with
//!   [`PatchIndex::restore`]. A small manifest (written atomically) names
//!   the file set, the table's epoch and the WAL high-water mark it
//!   covers; new files are named by that mark.
//! * **Recovery** ([`DurableWriter::recover`]) — load the manifest,
//!   restore the newest complete checkpoint (each partition with the
//!   base/delta split it was checkpointed with), replay the WAL tail past
//!   the high-water mark up to the **last complete publish record**, and
//!   resume. Statements after the last durable publish are discarded:
//!   recovery always lands exactly on the live writer's epoch there.
//!
//! Only what answers depend on is persisted: table data, index data
//! (patch sets, anchors and the maintenance counters the drift rules
//! read) and routing state (the round-robin cursor and the statement
//! counter). What queries report back — the evidence in the table's
//! workload sink — is process state: it restarts empty, like the advisor
//! that drains it, which windows only the deltas it saw itself.
//!
//! Replay is deterministic: the statement counter and routing cursor are
//! part of the checkpoint, and nothing outside the log decides what a
//! statement does to an index. The crash-point
//! property tests assert the strong form: for a crash at *every* IO
//! boundary, the recovered table's [`state_image`] is byte-identical to
//! replaying the surviving statement prefix on a fresh table.
//!
//! All file IO goes through [`pi_storage::dfs::DurableFs`], so the same
//! code runs against the real filesystem and against the fault-injecting
//! [`pi_storage::dfs::SimFs`] used by the tests. Every byte format — the
//! six checkpoint frame kinds, the value and tag encodings the WAL shares
//! with them, and the [`state_image`] — lives in one private module,
//! `codec`; no other crate reads or writes these bytes.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pi_obs::{Counter, MetricsRegistry};
use pi_storage::dfs::{write_atomic, DurableFs};
use pi_storage::{Partition, RowAddr, Table, Value};

use patchindex::{
    Applied, ChangeSet, ConcurrentTable, IndexedTable, MaintenancePolicy, PatchIndex, Statement,
    TableWriter,
};

pub mod wal;

#[cfg(test)]
mod checkpoint;
mod codec;

use codec::bad;
pub use codec::state_image;
pub use wal::{Record, SyncPolicy};

const MANIFEST_NAME: &str = "MANIFEST";

/// Tuning knobs for a [`DurableWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// When WAL appends reach stable storage.
    pub sync: SyncPolicy,
    /// Soft WAL segment size; a segment rolls at the first append past
    /// this many bytes.
    pub wal_segment_bytes: usize,
    /// Checkpoint once per this many publishes (1 = every publish).
    /// Between checkpoints the WAL alone carries recovery.
    pub checkpoint_every: u64,
    /// Run [`DurableWriter::compact`] automatically after this many
    /// checkpoints (0 disables automatic compaction).
    pub compact_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::EveryRecord,
            wal_segment_bytes: 4 << 20,
            checkpoint_every: 1,
            compact_every: 4,
        }
    }
}

/// Byte and file counters for the durability subsystem (the economics
/// `pibench`'s `durability.*` metrics are computed from).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Total WAL frame bytes appended.
    pub wal_bytes: u64,
    /// Checkpoints taken (incremental or full).
    pub checkpoints: u64,
    /// Total checkpoint bytes written across all checkpoints (manifest
    /// included).
    pub checkpoint_bytes: u64,
    /// Checkpoint files written (reused files are free and not counted).
    pub checkpoint_files: u64,
    /// Bytes written by the most recent checkpoint (manifest included).
    pub last_checkpoint_bytes: u64,
    /// Files written by the most recent checkpoint.
    pub last_checkpoint_files: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Files deleted by compaction (superseded checkpoints, covered WAL
    /// segments, orphaned temporaries).
    pub files_removed: u64,
}

/// What [`DurableWriter::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The table's epoch at the checkpoint the manifest pointed at.
    pub checkpoint_epoch: u64,
    /// The table's epoch after WAL replay, as the live writer had it at
    /// the last durable publish.
    pub epoch: u64,
    /// The manifest's WAL high-water mark (replay started past it).
    pub hwm: u64,
    /// WAL records replayed (up to and including the last publish).
    pub replayed: usize,
    /// Decodable WAL records discarded because no publish followed them.
    pub discarded: usize,
}

/// Pre-registered handles for the checkpoint/compaction counters.
struct CkptMetrics {
    checkpoints: Arc<Counter>,
    bytes: Arc<Counter>,
    files: Arc<Counter>,
    compactions: Arc<Counter>,
    files_removed: Arc<Counter>,
}

impl CkptMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        CkptMetrics {
            checkpoints: registry.counter("checkpoint.count"),
            bytes: registry.counter("checkpoint.bytes"),
            files: registry.counter("checkpoint.files"),
            compactions: registry.counter("compact.runs"),
            files_removed: registry.counter("compact.files_removed"),
        }
    }
}

/// The newest durable checkpoint: its manifest (every file name, each
/// partition's base frame among them) plus the shared state handles the
/// files serialize, in manifest order — the next checkpoint's
/// [`ChangeSet`] starts from these.
struct CkptState {
    parts: Vec<Arc<Partition>>,
    indexes: Vec<Arc<PatchIndex>>,
    dict_lens: Vec<usize>,
    manifest: codec::Manifest,
}

/// The crash-safe single-writer: wraps a [`TableWriter`] so that every
/// statement is WAL-logged before it is applied and every published
/// epoch can be checkpointed incrementally.
///
/// Statement methods return [`io::Result`]: an `Err` means the statement
/// was **not** logged and **not** applied — the caller may retry or give
/// up, the table state is unchanged either way. A statement naming state
/// the table does not have fails with [`io::ErrorKind::InvalidInput`]
/// ([`Statement::check`]).
pub struct DurableWriter {
    fs: Arc<dyn DurableFs>,
    dir: PathBuf,
    opts: DurableOptions,
    writer: TableWriter,
    wal: wal::WalWriter,
    publishes_since_ckpt: u64,
    ckpts_since_compact: u64,
    ckpt: Option<CkptState>,
    stats: DurabilityStats,
    metrics: Option<CkptMetrics>,
}

impl DurableWriter {
    /// Starts durability for a fresh table: publishes epoch 0, writes the
    /// initial full checkpoint + manifest, and opens the WAL at sequence 1.
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if `dir` already holds
    /// a manifest — recover instead of clobbering.
    pub fn create(
        it: IndexedTable,
        fs: Arc<dyn DurableFs>,
        dir: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> io::Result<(ConcurrentTable, DurableWriter)> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        if fs.exists(&dir.join(MANIFEST_NAME)) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a durable table", dir.display()),
            ));
        }
        let (handle, writer) = ConcurrentTable::new(it);
        let mut dw = DurableWriter::open(fs, dir, opts, writer, 1, None);
        dw.write_checkpoint(0)?;
        Ok((handle, dw))
    }

    /// A writer whose WAL continues at sequence `next_seq` and whose next
    /// checkpoint is incremental over `ckpt`.
    fn open(
        fs: Arc<dyn DurableFs>,
        dir: PathBuf,
        opts: DurableOptions,
        writer: TableWriter,
        next_seq: u64,
        ckpt: Option<CkptState>,
    ) -> DurableWriter {
        let wal = wal::WalWriter::new(
            Arc::clone(&fs),
            dir.clone(),
            opts.sync,
            opts.wal_segment_bytes,
            next_seq,
        );
        DurableWriter {
            fs,
            dir,
            opts,
            writer,
            wal,
            publishes_since_ckpt: 0,
            ckpts_since_compact: 0,
            ckpt,
            stats: DurabilityStats::default(),
            metrics: None,
        }
    }

    /// Recovers a durable table from `dir`: manifest → checkpoint →
    /// WAL-tail replay, publishing at each publish record, up to the last
    /// one: the recovered epoch continues the live writer's. Finishes by
    /// checkpointing the tail, if any, and truncating the WAL, so a crash
    /// loop cannot re-pay replay cost.
    ///
    /// The field-less [`MaintenancePolicy`] is accepted and ignored; it is
    /// carried only for pibench's existing recovery call.
    pub fn recover(
        fs: Arc<dyn DurableFs>,
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        _: MaintenancePolicy,
    ) -> io::Result<(ConcurrentTable, DurableWriter, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = codec::decode_manifest(&fs.read(&dir.join(MANIFEST_NAME))?)?;
        let meta = codec::decode_meta(&fs.read(&dir.join(&manifest.meta_file))?)?;
        let dicts = codec::decode_dicts(&fs.read(&dir.join(&manifest.dict_file))?)?;
        if meta.schema.len() != dicts.len() {
            return Err(bad("manifest: dict file does not match schema"));
        }
        meta.partitioning
            .validate(&meta.schema, manifest.part_files.len())
            .map_err(|e| bad(format!("table meta checkpoint: {e}")))?;

        let partitions = manifest
            .part_files
            .iter()
            .enumerate()
            .map(|(pid, (base, delta))| {
                codec::decode_partition(
                    &fs.read(&dir.join(base))?,
                    &fs.read(&dir.join(delta))?,
                    pid,
                    &meta.schema,
                    &dicts,
                )
            })
            .collect::<io::Result<Vec<Partition>>>()?;
        let table = Table::restore(
            meta.name,
            meta.schema,
            partitions,
            dicts,
            meta.partitioning,
            meta.rr_cursor as usize,
        );

        let indexes = manifest
            .index_files
            .iter()
            .map(|file| {
                Ok(Arc::new(codec::decode_index(
                    &fs.read(&dir.join(file))?,
                    &table,
                )?))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let it = IndexedTable::with_restored_indexes(table, indexes, meta.statements);

        // Prime the incremental dirty-set with the loaded handles *before*
        // replay: partitions and indexes replay leaves untouched keep
        // pointer identity and reuse their checkpoint files, and replay
        // never propagates, so every base frame is reused.
        let prime = CkptState {
            parts: it.table().partitions().to_vec(),
            indexes: it.indexes().to_vec(),
            dict_lens: dict_lens_of(it.table()),
            manifest: manifest.clone(),
        };
        let (handle, mut writer) = ConcurrentTable::at_epoch(it, manifest.epoch);

        // Replay the WAL tail, stopping at the last complete publish:
        // statements past it were never part of a durable epoch.
        let tail: Vec<(u64, Record)> = wal::read_log(fs.as_ref(), &dir)?
            .into_iter()
            .filter(|(seq, _)| *seq > manifest.hwm)
            .collect();
        let max_seq = tail.iter().map(|(s, _)| *s).max().unwrap_or(manifest.hwm);
        let apply_upto = tail
            .iter()
            .rposition(|(_, r)| matches!(r, Record::Publish))
            .map_or(0, |i| i + 1);
        // Publishing makes the live writer's no-op decisions again.
        for (seq, record) in &tail[..apply_upto] {
            match record {
                Record::Publish => {
                    writer.publish();
                }
                Record::Statement(stmt) => {
                    let it = writer.staging();
                    stmt.check(it.table(), it.indexes().len())
                        .map_err(|e| bad(format!("WAL record {seq}: {e}")))?;
                    writer.staging_mut().apply(stmt);
                }
            }
        }
        let report = RecoveryReport {
            checkpoint_epoch: manifest.epoch,
            epoch: writer.epoch(),
            hwm: manifest.hwm,
            replayed: apply_upto,
            discarded: tail.len() - apply_upto,
        };

        let mut dw = DurableWriter::open(fs, dir, opts, writer, max_seq + 1, Some(prime));
        // Finalize: make the recovered state the durable baseline (hwm
        // covers even the discarded tail so its records can never be
        // replayed again), then drop the now-covered WAL. Ordering is
        // crash-safe: the manifest is durable before any segment dies.
        // Without a tail, a checkpoint would rewrite the files it names.
        if max_seq > manifest.hwm {
            dw.write_checkpoint(max_seq)?;
        }
        dw.wal.remove_all_segments()?;
        dw.compact()?;
        Ok((handle, dw, report))
    }

    /// Applies one statement, the writer's one write path: checked,
    /// WAL-logged, then applied. Returns the statement's receipt. A
    /// statement [`Statement::check`] refuses is neither logged nor
    /// applied, so replay never meets a record it cannot apply.
    pub fn apply(&mut self, stmt: Statement) -> io::Result<Applied> {
        let it = self.writer.staging();
        stmt.check(it.table(), it.indexes().len())
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        let record = Record::Statement(stmt);
        self.wal.append(&record)?;
        let Record::Statement(stmt) = record else {
            unreachable!("logged a statement")
        };
        Ok(self.writer.staging_mut().apply(&stmt))
    }

    /// Inserts rows (WAL-logged, then applied).
    pub fn insert(&mut self, rows: &[Vec<Value>]) -> io::Result<Vec<RowAddr>> {
        self.apply(Statement::Insert(rows.to_vec()))
            .map(|applied| applied.rows)
    }

    /// Patches one column of visible rows (WAL-logged, then applied).
    pub fn modify(
        &mut self,
        pid: usize,
        rids: &[usize],
        col: usize,
        values: &[Value],
    ) -> io::Result<()> {
        self.apply(Statement::Modify {
            pid,
            rids: rids.to_vec(),
            col,
            values: values.to_vec(),
        })
        .map(drop)
    }

    /// Deletes visible rows (WAL-logged, then applied).
    pub fn delete(&mut self, pid: usize, rids: &[usize]) -> io::Result<()> {
        self.apply(Statement::Delete {
            pid,
            rids: rids.to_vec(),
        })
        .map(drop)
    }

    /// Publishes an epoch durably: logs the publish record, applies the
    /// sync policy (a returned `Ok` means the epoch will survive any
    /// later crash under [`SyncPolicy::EveryRecord`] /
    /// [`SyncPolicy::EveryPublish`]), then publishes and, every
    /// [`DurableOptions::checkpoint_every`] calls, checkpoints. Returns
    /// [`TableWriter::publish`]'s epoch, unmoved if nothing changed.
    pub fn publish(&mut self) -> io::Result<u64> {
        self.wal.append(&Record::Publish)?;
        let publish_seq = self.wal.next_seq() - 1;
        if self.opts.sync == SyncPolicy::EveryPublish {
            self.wal.sync_all()?;
        }
        let epoch = self.writer.publish();
        self.publishes_since_ckpt += 1;
        if self.publishes_since_ckpt >= self.opts.checkpoint_every {
            self.write_checkpoint(publish_seq)?;
        }
        Ok(epoch)
    }

    /// Starts reporting durability activity to a metrics registry:
    /// `wal.appends` / `wal.bytes` / `wal.fsyncs` and the `wal.fsync_nanos`
    /// latency histogram from the log path, `checkpoint.*` and
    /// `compact.*` from the checkpoint path.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.wal.set_metrics(wal::WalMetrics::new(registry));
        self.metrics = Some(CkptMetrics::new(registry));
    }

    /// Writes a checkpoint of the current staging state covering WAL
    /// sequences up to `hwm`. Only files whose backing state changed
    /// since the previous checkpoint are written; the rest are
    /// re-referenced by the new manifest. New files are named by `hwm`,
    /// not the epoch, which a no-op publish's checkpoint shares with the
    /// one before it: no checkpoint rewrites a file the manifest names.
    fn write_checkpoint(&mut self, hwm: u64) -> io::Result<()> {
        let mut bytes = 0u64;
        let mut files = 0u64;
        let mut put = |name: String, data: Vec<u8>| -> io::Result<String> {
            write_atomic(self.fs.as_ref(), &self.dir.join(&name), &data)?;
            bytes += data.len() as u64;
            files += 1;
            Ok(name)
        };
        let prev = self.ckpt.as_ref();
        let it = self.writer.staging();
        let table = it.table();
        let (old_parts, old_indexes) = prev.map_or((&[][..], &[][..]), |c| (&c.parts, &c.indexes));
        let changes = ChangeSet::between(old_parts, old_indexes, table.partitions(), it.indexes());
        let named = prev.map(|c| &c.manifest);

        let dict_lens = dict_lens_of(table);
        let dict_file = match prev {
            Some(prev) if prev.dict_lens == dict_lens => prev.manifest.dict_file.clone(),
            _ => put(format!("dict-h{hwm:012}.ckp"), codec::encode_dicts(table))?,
        };

        let mut part_files = Vec::with_capacity(table.partition_count());
        for (pid, part) in table.partitions().iter().enumerate() {
            let base = match named {
                Some(m) if changes.same_base[pid] => m.part_files[pid].0.clone(),
                _ => put(
                    format!("base-{pid}-h{hwm:012}.ckp"),
                    codec::encode_base(part),
                )?,
            };
            let delta = match named {
                Some(m) if changes.same_partition[pid] => m.part_files[pid].1.clone(),
                _ => put(
                    format!("delta-{pid}-h{hwm:012}.ckp"),
                    codec::encode_delta(part),
                )?,
            };
            part_files.push((base, delta));
        }

        let mut index_files = Vec::with_capacity(it.indexes().len());
        for (slot, idx) in it.indexes().iter().enumerate() {
            index_files.push(match (named, changes.index_from[slot]) {
                (Some(m), Some(at)) => m.index_files[at].clone(),
                _ => put(
                    format!("idx-{slot}-h{hwm:012}.ckp"),
                    codec::encode_index(idx),
                )?,
            });
        }

        // Meta changes with every statement (the counter), so it is
        // written every checkpoint; it is a few hundred bytes.
        let meta_file = put(
            format!("meta-h{hwm:012}.ckp"),
            codec::encode_meta(&codec::TableMeta::of(it)),
        )?;

        let manifest = codec::Manifest {
            epoch: self.writer.epoch(),
            hwm,
            meta_file,
            dict_file,
            part_files,
            index_files,
        };
        put(MANIFEST_NAME.to_string(), codec::encode_manifest(&manifest))?;

        self.ckpt = Some(CkptState {
            parts: table.partitions().to_vec(),
            indexes: it.indexes().to_vec(),
            dict_lens,
            manifest,
        });
        self.publishes_since_ckpt = 0;
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += bytes;
        self.stats.checkpoint_files += files;
        self.stats.last_checkpoint_bytes = bytes;
        self.stats.last_checkpoint_files = files;
        if let Some(m) = &self.metrics {
            m.checkpoints.inc();
            m.bytes.add(bytes);
            m.files.add(files);
        }

        self.ckpts_since_compact += 1;
        if self.opts.compact_every > 0 && self.ckpts_since_compact >= self.opts.compact_every {
            self.compact()?;
        }
        Ok(())
    }

    /// Garbage-collects the durability directory: deletes checkpoint
    /// files and temporaries the current manifest does not reference,
    /// and WAL segments fully covered by its high-water mark. Safe at
    /// any crash point — the manifest is always durable before anything
    /// it supersedes is removed.
    pub fn compact(&mut self) -> io::Result<usize> {
        self.ckpts_since_compact = 0;
        let Some(ckpt) = &self.ckpt else {
            return Ok(0);
        };
        let m = &ckpt.manifest;
        let mut referenced: HashSet<&str> = HashSet::new();
        referenced.insert(m.meta_file.as_str());
        referenced.insert(m.dict_file.as_str());
        for (base, delta) in &m.part_files {
            referenced.insert(base);
            referenced.insert(delta);
        }
        for f in &m.index_files {
            referenced.insert(f);
        }
        let hwm = m.hwm;

        let mut removed = 0usize;
        let segments = wal::list_segments(self.fs.as_ref(), &self.dir)?;
        for (i, (_, seg)) in segments.iter().enumerate() {
            // A segment is dead when the *next* segment starts at or
            // below hwm+1 (every record in it is covered). The newest
            // segment is never removed here: the writer may still be
            // appending to it.
            if i + 1 < segments.len() && segments[i + 1].0 <= hwm + 1 && self.fs.remove(seg).is_ok()
            {
                removed += 1;
            }
        }
        for path in self.fs.list(&self.dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let is_ckpt = name.ends_with(".ckp");
            let is_tmp = name.ends_with(".tmp");
            if (is_ckpt || is_tmp) && !referenced.contains(name) && self.fs.remove(&path).is_ok() {
                removed += 1;
            }
        }
        if removed > 0 {
            self.fs.fsync_dir(&self.dir)?;
            self.stats.files_removed += removed as u64;
        }
        self.stats.compactions += 1;
        if let Some(m) = &self.metrics {
            m.compactions.inc();
            m.files_removed.add(removed as u64);
        }
        Ok(removed)
    }

    /// The table's epoch ([`TableWriter::epoch`]), across recoveries.
    pub fn epoch(&self) -> u64 {
        self.writer.epoch()
    }

    /// The staging table (reflects all applied statements).
    pub fn staging(&self) -> &IndexedTable {
        self.writer.staging()
    }

    /// Byte/file counters, including WAL bytes appended so far.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_bytes: self.wal.bytes_appended,
            ..self.stats
        }
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn dict_lens_of(table: &Table) -> Vec<usize> {
    (0..table.schema().len())
        .map(|c| table.dict(c).map_or(0, |d| d.read().len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::{Constraint, Design, SortDir, WorkloadEvent};
    use pi_storage::dfs::SimFs;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};
    use proptest::prelude::*;

    fn fresh(parts: usize) -> IndexedTable {
        fresh_rows(parts, 3)
    }

    /// `parts` propagated partitions of `rows` rows: `k = 10 pid + i`,
    /// `v = 2 k`, `s` alternating between two strings per partition.
    fn fresh_rows(parts: usize, rows: usize) -> IndexedTable {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
                Field::new("s", DataType::Str),
            ]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            let base = pid as i64 * 10;
            let strs: Vec<String> = (0..rows)
                .map(|i| format!("p{pid}-{}", if i % 2 == 0 { 'a' } else { 'b' }))
                .collect();
            let keys: Vec<i64> = (0..rows as i64).map(|i| base + i).collect();
            let s = t.encode_strings(2, &strs);
            t.load_partition(
                pid,
                &[
                    ColumnData::Int(keys.clone()),
                    ColumnData::Int(keys.iter().map(|k| 2 * k).collect()),
                    s,
                ],
            );
        }
        t.propagate_all();
        IndexedTable::new(t)
    }

    /// A NUC Bitmap index on `v`.
    fn nuc_on_v() -> Statement {
        Statement::AddIndex {
            col: 1,
            constraint: Constraint::NearlyUnique,
            design: Design::Bitmap,
        }
    }

    fn row(k: i64, v: i64, s: &str) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v), Value::Str(s.to_string())]
    }

    fn setup(parts: usize, opts: DurableOptions) -> (Arc<SimFs>, ConcurrentTable, DurableWriter) {
        setup_with(fresh(parts), opts)
    }

    fn setup_with(
        it: IndexedTable,
        opts: DurableOptions,
    ) -> (Arc<SimFs>, ConcurrentTable, DurableWriter) {
        let fs = Arc::new(SimFs::new());
        let dyn_fs: Arc<dyn DurableFs> = fs.clone();
        let (handle, dw) = DurableWriter::create(it, dyn_fs, PathBuf::from("/db"), opts).unwrap();
        (fs, handle, dw)
    }

    fn manifest_of(fs: &SimFs) -> codec::Manifest {
        codec::decode_manifest(&fs.read(&PathBuf::from("/db").join(MANIFEST_NAME)).unwrap())
            .unwrap()
    }

    fn try_recover(
        fs: &Arc<SimFs>,
    ) -> io::Result<(ConcurrentTable, DurableWriter, RecoveryReport)> {
        DurableWriter::recover(
            fs.clone(),
            PathBuf::from("/db"),
            DurableOptions::default(),
            MaintenancePolicy::default(),
        )
    }

    fn recover_from(fs: &Arc<SimFs>) -> DurableWriter {
        try_recover(fs).unwrap().1
    }

    /// What a partition's delta store holds, in a comparable form.
    fn delta_shape(p: &Partition) -> (usize, Vec<usize>, Vec<(usize, usize, Value)>) {
        let d = p.delta();
        let cells = d
            .modified_cells()
            .map(|(p, c, v)| (p, c, v.clone()))
            .collect();
        (d.append_len(), d.deleted().to_vec(), cells)
    }

    /// Recovery without a crash lands on the live state, and restores
    /// every partition with the base/delta split it had.
    fn assert_recovers_each_split(fs: &Arc<SimFs>, dw: DurableWriter) {
        let want = state_image(dw.staging());
        let shapes: Vec<_> = dw
            .staging()
            .table()
            .partitions()
            .iter()
            .map(|p| delta_shape(p))
            .collect();
        drop(dw);
        let dw = recover_from(fs);
        assert_eq!(state_image(dw.staging()), want);
        for (p, shape) in dw.staging().table().partitions().iter().zip(&shapes) {
            assert_eq!(&delta_shape(p), shape, "partition {}", p.id);
            assert_eq!(p.delta().has_modifies(), !shape.2.is_empty());
        }
        dw.staging().check_consistency();
    }

    #[test]
    fn create_then_recover_restores_the_exact_state() {
        let (fs, _handle, mut dw) = setup(2, DurableOptions::default());
        dw.apply(nuc_on_v()).unwrap();
        dw.insert(&[row(100, 2, "x"), row(101, 24, "p0-a")])
            .unwrap();
        dw.modify(0, &[0], 1, &[Value::Int(2)]).unwrap();
        dw.delete(1, &[1]).unwrap();
        dw.publish().unwrap();
        let want = state_image(dw.staging());
        let epoch = dw.epoch();
        drop(dw);
        fs.crash(7);

        let (_h2, dw2, report) = try_recover(&fs).unwrap();
        assert_eq!(report.epoch, epoch);
        assert_eq!(state_image(dw2.staging()), want);
        dw2.staging().check_consistency();
    }

    /// Regression: the durable writer counted publish calls while its
    /// readers counted publishes that changed something, so a no-op
    /// publish returned 1 to a handle at 0, and recovery reported 2 to a
    /// recovered handle at 0. The table's epoch is the only epoch.
    #[test]
    fn the_writer_its_readers_and_recovery_agree_on_the_epoch() {
        let (fs, handle, mut dw) = setup(2, DurableOptions::default());
        assert_eq!(dw.publish().unwrap(), 0, "nothing changed");
        assert_eq!(handle.epoch(), 0);
        dw.insert(&[row(100, 2, "x")]).unwrap();
        assert_eq!(dw.publish().unwrap(), 1);
        assert_eq!(handle.epoch(), 1);
        assert_eq!(dw.epoch(), 1);
        drop(dw);

        let (recovered, mut dw, report) = try_recover(&fs).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(dw.epoch(), 1);
        // The recovered writer continues the live epochs.
        dw.insert(&[row(101, 3, "y")]).unwrap();
        assert_eq!(dw.publish().unwrap(), 2);
        assert_eq!(recovered.epoch(), 2);
    }

    /// A publish that changes nothing but the statement counter keeps the
    /// epoch, and with `checkpoint_every: 1` it still checkpoints. Were
    /// checkpoint files named by epoch, that checkpoint would overwrite
    /// the meta frame the durable manifest names, and a crash before the
    /// new manifest lands would pair the old manifest with a statement
    /// counter past its high-water mark. Crash at every IO boundary: each
    /// recovery lands on the `(epoch, image)` of a durable publish.
    #[test]
    fn a_noop_publish_checkpoint_overwrites_no_named_file() {
        let opts = DurableOptions {
            checkpoint_every: 1,
            ..DurableOptions::default()
        };
        let stmts = [
            Statement::Insert(vec![row(100, 2, "x")]),
            Statement::Delete {
                pid: 0,
                rids: vec![],
            },
            Statement::Insert(vec![row(101, 3, "y")]),
        ];
        // Each statement then a publish, stopping at the first IO error;
        // returns the `(epoch, image)` of creation and of each publish
        // that returned `Ok`.
        let drive = |fs: Arc<SimFs>| -> Vec<(u64, Vec<u8>)> {
            let Ok((_handle, mut dw)) = DurableWriter::create(fresh(2), fs, "/db", opts) else {
                return Vec::new();
            };
            let mut acked = vec![(0, state_image(dw.staging()))];
            for stmt in &stmts {
                let Ok(epoch) = dw.apply(stmt.clone()).and_then(|_| dw.publish()) else {
                    break;
                };
                acked.push((epoch, state_image(dw.staging())));
            }
            acked
        };
        let reference_fs = Arc::new(SimFs::new());
        let reference = drive(reference_fs.clone());
        let epochs: Vec<u64> = reference.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, [0, 1, 1, 2], "the second publish is a no-op");
        assert_ne!(reference[1].1, reference[2].1, "yet it counts a statement");

        for crash_point in 1..=reference_fs.ops() {
            let fs = Arc::new(SimFs::new());
            fs.set_fuse(Some(crash_point));
            let acked = drive(fs.clone());
            fs.crash(crash_point ^ 0x5EED);
            let recovered = try_recover(&fs);
            // Durable publishes: every acknowledged one, at most one more.
            let candidates = match acked.len() {
                0 => &reference[..1],
                n => &reference[n - 1..(n + 1).min(reference.len())],
            };
            let (_h, dw, report) = match recovered {
                Ok(found) => found,
                Err(_) if acked.is_empty() => continue,
                Err(e) => panic!("crash point {crash_point}: recovery failed: {e}"),
            };
            let got = (report.epoch, state_image(dw.staging()));
            assert!(
                candidates.contains(&got),
                "crash point {crash_point}: recovered epoch {} matches no durable publish \
                 after {} acknowledged",
                report.epoch,
                acked.len()
            );
        }
    }

    /// Regression: an index image's row counts are bounded by nothing in
    /// its own bytes; a re-sealed one claiming 2^60 rows used to make the
    /// bitmap design allocate for them. Recovery knows the table first.
    #[test]
    fn index_image_disagreeing_with_the_table_is_rejected_before_allocating() {
        let (fs, _handle, mut dw) = setup(2, DurableOptions::default());
        dw.apply(nuc_on_v()).unwrap();
        dw.publish().unwrap();
        drop(dw);
        let dir = PathBuf::from("/db");
        let manifest = codec::decode_manifest(&fs.read(&dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        let path = dir.join(&manifest.index_files[0]);
        let mut image = fs.read(&path).unwrap();
        // First partition's row count: after magic, version, four header
        // words, seven counters and the partition count.
        let nrows_at = 8 + 4 * 4 + 7 * 8 + 4;
        image[nrows_at..nrows_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let body = image.len() - 4;
        let crc = pi_storage::crc::crc32(&image[..body]);
        image[body..].copy_from_slice(&crc.to_le_bytes());
        write_atomic(fs.as_ref(), &path, &image).unwrap();

        let err = DurableWriter::recover(
            fs.clone(),
            dir,
            DurableOptions::default(),
            MaintenancePolicy::default(),
        )
        .err()
        .expect("a lying index image must not recover");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("claims 1152921504606846976 rows"),
            "{err}"
        );
    }

    /// Recovers after rewriting the table meta file of a fresh two
    /// partition directory to route by `routing`: CRC-valid, so only the
    /// check against the schema and the partitions can refuse it.
    fn recover_with_routing(routing: Partitioning) -> io::Error {
        let (fs, _handle, dw) = setup(2, DurableOptions::default());
        drop(dw);
        let path = PathBuf::from("/db").join(manifest_of(&fs).meta_file);
        let mut meta = codec::decode_meta(&fs.read(&path).unwrap()).unwrap();
        meta.partitioning = routing;
        write_atomic(fs.as_ref(), &path, &codec::encode_meta(&meta)).unwrap();
        let err = try_recover(&fs).err().expect("must not recover");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err
    }

    /// Regression: recovered, then the first insert panicked with "index
    /// out of bounds" in `Table::insert_rows`.
    #[test]
    fn routing_key_outside_the_schema_is_invalid_data() {
        let err = recover_with_routing(Partitioning::KeyRange {
            col: 7,
            boundaries: vec![10],
        });
        assert!(err.to_string().contains("column 7 out of range"), "{err}");
    }

    /// Regression: recovered, then the first insert panicked with
    /// "expected Int, got Str".
    #[test]
    fn routing_key_on_a_string_column_is_invalid_data() {
        let err = recover_with_routing(Partitioning::KeyRange {
            col: 2,
            boundaries: vec![10],
        });
        assert!(err.to_string().contains("must be int-backed"), "{err}");
    }

    /// Regression: recovered, and a key at or above the last boundary
    /// routed past the last partition.
    #[test]
    fn routing_with_more_boundaries_than_partitions_is_invalid_data() {
        let err = recover_with_routing(Partitioning::KeyRange {
            col: 0,
            boundaries: vec![10, 20, 30],
        });
        assert!(
            err.to_string().contains("3 boundaries for 2 partitions"),
            "{err}"
        );
    }

    /// Regression: an index image whose column word names a `Float`
    /// column recovered, and recovery or the first insert panicked with
    /// "NSC over Float" in maintenance — for every constraint.
    #[test]
    fn index_image_on_a_float_column_is_invalid_data() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("f", DataType::Float),
        ]);
        for constraint in [
            Constraint::NearlyUnique,
            Constraint::NearlySorted(SortDir::Asc),
            Constraint::NearlyConstant,
        ] {
            let t = Table::new("t", schema.clone(), 1, Partitioning::RoundRobin);
            let (fs, _handle, mut dw) = setup_with(IndexedTable::new(t), DurableOptions::default());
            dw.insert(&[vec![Value::Int(1), Value::Float(0.5)]])
                .unwrap();
            dw.apply(Statement::AddIndex {
                col: 0,
                constraint,
                design: Design::Bitmap,
            })
            .unwrap();
            dw.publish().unwrap();
            drop(dw);
            let path = PathBuf::from("/db").join(&manifest_of(&fs).index_files[0]);
            let mut image = fs.read(&path).unwrap();
            // The column word follows magic and version; seal it again.
            image[8..12].copy_from_slice(&1u32.to_le_bytes());
            let body = image.len() - 4;
            let crc = pi_storage::crc::crc32(&image[..body]);
            image[body..].copy_from_slice(&crc.to_le_bytes());
            write_atomic(fs.as_ref(), &path, &image).unwrap();

            let err = try_recover(&fs).err().expect("must not recover");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(
                err.to_string().contains("cannot index Float column 1"),
                "{constraint:?}: {err}"
            );
        }
    }

    #[test]
    fn unpublished_tail_is_discarded_on_recovery() {
        let (fs, _handle, mut dw) = setup(2, DurableOptions::default());
        dw.insert(&[row(100, 2, "x")]).unwrap();
        dw.publish().unwrap();
        let at_publish = state_image(dw.staging());
        // Statements past the publish are durable in the WAL but no
        // publish follows them: recovery must land on the epoch boundary.
        dw.insert(&[row(101, 3, "y")]).unwrap();
        dw.delete(0, &[0]).unwrap();
        drop(dw);
        fs.crash(3);

        let (_h2, dw2, report) = try_recover(&fs).unwrap();
        assert_eq!(report.discarded, 2);
        assert_eq!(state_image(dw2.staging()), at_publish);
    }

    #[test]
    fn checkpoints_are_incremental_over_clean_partitions() {
        let (_fs, _handle, mut dw) = setup(8, DurableOptions::default());
        let full = dw.stats().last_checkpoint_files;
        assert!(
            full > 3,
            "the create-time checkpoint writes every partition"
        );
        // Touch one partition only: the next checkpoint rewrites that
        // partition + meta + manifest, nothing else.
        dw.modify(3, &[0], 1, &[Value::Int(999)]).unwrap();
        dw.publish().unwrap();
        let incr = dw.stats();
        assert_eq!(incr.last_checkpoint_files, 3);
        assert!(incr.last_checkpoint_bytes < full_checkpoint_bytes(&dw));
    }

    /// The bytes a non-incremental checkpoint of the current state would
    /// write (every partition's base and delta, every index, dicts, meta)
    /// — the baseline the incremental economics are measured against.
    fn full_checkpoint_bytes(dw: &DurableWriter) -> u64 {
        let it = dw.staging();
        let table = it.table();
        let mut total =
            codec::encode_dicts(table).len() + codec::encode_meta(&codec::TableMeta::of(it)).len();
        for p in table.partitions() {
            total += codec::encode_base(p).len() + codec::encode_delta(p).len();
        }
        for idx in it.indexes() {
            total += codec::encode_index(idx).len();
        }
        total as u64
    }

    /// A base frame is written once per base generation — at `create`,
    /// since the writer never propagates — and every later checkpoint,
    /// recovery's covering one included, writes deltas only.
    #[test]
    fn checkpoints_write_base_frames_once() {
        let opts = DurableOptions {
            checkpoint_every: 5,
            ..DurableOptions::default()
        };
        let (fs, _handle, mut dw) = setup_with(fresh_rows(8, 2_000), opts);
        dw.apply(nuc_on_v()).unwrap();
        let base_files = |fs: &SimFs| -> Vec<String> {
            manifest_of(fs)
                .part_files
                .into_iter()
                .map(|(base, _)| base)
                .collect()
        };
        let bases = base_files(&fs);
        let base_bytes: u64 = bases
            .iter()
            .map(|b| fs.read(&dw.dir().join(b)).unwrap().len() as u64)
            .sum();
        let mut checkpoints = dw.stats().checkpoints;
        // Each partition sees one delete, and inserts and modifies spread
        // over all eight; the last four statements stay in the WAL.
        for i in 0..24usize {
            let pid = i % 8;
            match i % 3 {
                0 => {
                    let k = 50_000 + i as i64;
                    dw.insert(&[row(k, k, "new"), row(k + 1, k + 1, "p1-a")])
                        .unwrap();
                }
                1 => dw
                    .modify(
                        pid,
                        &[i, 1_500],
                        2,
                        &[Value::from("m"), Value::from("p0-b")],
                    )
                    .unwrap(),
                _ => dw.delete(pid, &[3 * i, 1_999]).unwrap(),
            }
            dw.publish().unwrap();
            let stats = dw.stats();
            if stats.checkpoints > checkpoints {
                checkpoints = stats.checkpoints;
                assert!(
                    stats.last_checkpoint_bytes < base_bytes,
                    "statement {i}: {} checkpoint bytes against {base_bytes} of base frames",
                    stats.last_checkpoint_bytes
                );
                assert_eq!(base_files(&fs), bases, "statement {i} rewrote a base frame");
            }
        }
        assert_eq!(checkpoints, 1 + 24 / 5);

        drop(dw);
        fs.crash(4);
        let dw = recover_from(&fs);
        let covering = dw.stats();
        assert!(
            covering.last_checkpoint_files > 2,
            "the replayed tail dirtied partitions"
        );
        assert!(covering.last_checkpoint_bytes < base_bytes);
        assert_eq!(base_files(&fs), bases, "recovery rewrote a base frame");
        let on_disk = fs
            .list(dw.dir())
            .unwrap()
            .into_iter()
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .starts_with("base-")
            })
            .count();
        assert_eq!(on_disk, 8, "recovery wrote no base frame");
    }

    /// Deletes and modifies of base and appended rows, string values, an
    /// empty delta and a delete-only delta all survive a checkpoint.
    #[test]
    fn delta_shapes_survive_recovery() {
        let (fs, _handle, mut dw) = setup(5, DurableOptions::default());
        // One appended row each in partitions 0 and 1 (rowID 3).
        dw.insert(&[row(7, 7, "x"), row(8, 8, "y")]).unwrap();
        // Partition 0: base and appended rows modified (strings too), a
        // base row deleted.
        dw.modify(
            0,
            &[0, 3],
            2,
            &[Value::from("base-m"), Value::from("app-m")],
        )
        .unwrap();
        dw.modify(0, &[1], 1, &[Value::Int(-1)]).unwrap();
        dw.delete(0, &[2]).unwrap();
        // Partition 1: its appended row deleted again — dirty, yet empty.
        dw.delete(1, &[3]).unwrap();
        // Partition 2: deletes only.
        dw.delete(2, &[0, 2]).unwrap();
        // Partition 3: a modified row deleted, which drops the patch.
        dw.modify(3, &[1], 1, &[Value::Int(-2)]).unwrap();
        dw.delete(3, &[1]).unwrap();
        // Partition 4: untouched.
        dw.publish().unwrap();
        let shapes: Vec<_> = dw
            .staging()
            .table()
            .partitions()
            .iter()
            .map(|p| delta_shape(p))
            .collect();
        let cells = vec![(0, 2, Value::from("base-m")), (1, 1, Value::Int(-1))];
        assert_eq!(
            shapes,
            [
                (1, vec![2], cells),
                (0, vec![], vec![]),
                (0, vec![0, 2], vec![]),
                (0, vec![1], vec![]),
                (0, vec![], vec![]),
            ]
        );
        assert_recovers_each_split(&fs, dw);
    }

    #[derive(Debug, Clone)]
    enum Stmt {
        Insert(Vec<u8>),
        Modify {
            pid: usize,
            seeds: Vec<u32>,
            col: usize,
            value: u8,
        },
        Delete {
            pid: usize,
            seeds: Vec<u32>,
        },
        Publish,
    }

    fn stmt_strategy() -> impl Strategy<Value = Stmt> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 1..5).prop_map(Stmt::Insert),
            (
                0usize..3,
                proptest::collection::vec(any::<u32>(), 1..4),
                1usize..3,
                any::<u8>()
            )
                .prop_map(|(pid, seeds, col, value)| Stmt::Modify {
                    pid,
                    seeds,
                    col,
                    value
                }),
            (0usize..3, proptest::collection::vec(any::<u32>(), 1..3))
                .prop_map(|(pid, seeds)| Stmt::Delete { pid, seeds }),
            Just(Stmt::Publish),
        ]
    }

    /// Random delta shapes, with checkpoints taken between them.
    fn run_and_recover(stmts: &[Stmt]) {
        let (fs, _handle, mut dw) = setup(3, DurableOptions::default());
        // Visible rowIDs of `pid` picked by `seeds`, sorted and distinct.
        let pick = |dw: &DurableWriter, pid: usize, seeds: &[u32]| -> Vec<usize> {
            let len = dw.staging().table().partition(pid).visible_len();
            let mut rids: Vec<usize> = seeds.iter().map(|&s| s as usize % len.max(1)).collect();
            rids.sort_unstable();
            rids.dedup();
            rids.retain(|&r| r < len);
            rids
        };
        for stmt in stmts {
            match stmt {
                Stmt::Insert(vals) => {
                    let rows: Vec<Vec<Value>> = vals
                        .iter()
                        .map(|&v| row(1_000 + v as i64, v as i64, &format!("s{}", v % 7)))
                        .collect();
                    dw.insert(&rows).unwrap();
                }
                Stmt::Modify {
                    pid,
                    seeds,
                    col,
                    value,
                } => {
                    let rids = pick(&dw, *pid, seeds);
                    let v = if *col == 1 {
                        Value::Int(*value as i64)
                    } else {
                        Value::Str(format!("m{}", value % 5))
                    };
                    dw.modify(*pid, &rids, *col, &vec![v; rids.len()]).unwrap();
                }
                Stmt::Delete { pid, seeds } => {
                    let rids = pick(&dw, *pid, seeds);
                    dw.delete(*pid, &rids).unwrap();
                }
                Stmt::Publish => {
                    dw.publish().unwrap();
                }
            }
        }
        dw.publish().unwrap();
        assert_recovers_each_split(&fs, dw);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn random_delta_shapes_recover_with_their_split(
            stmts in proptest::collection::vec(stmt_strategy(), 0..24),
        ) {
            run_and_recover(&stmts);
        }
    }

    #[test]
    fn recovery_is_idempotent_across_repeated_crashes() {
        let (fs, _handle, mut dw) = setup(2, DurableOptions::default());
        dw.apply(Statement::AddIndex {
            col: 0,
            constraint: Constraint::NearlySorted(SortDir::Asc),
            design: Design::Identifier,
        })
        .unwrap();
        dw.insert(&[row(100, 2, "z"), row(50, 3, "p1-b")]).unwrap();
        dw.publish().unwrap();
        let want = state_image(dw.staging());
        drop(dw);
        for seed in 0..4 {
            fs.crash(seed);
            let dw = recover_from(&fs);
            assert_eq!(state_image(dw.staging()), want, "seed {seed}");
            drop(dw);
        }
    }

    #[test]
    fn compaction_prunes_superseded_files_and_covered_segments() {
        let opts = DurableOptions {
            compact_every: 0, // manual compaction for the test
            wal_segment_bytes: 32,
            ..DurableOptions::default()
        };
        let (fs, _handle, mut dw) = setup(2, opts);
        for i in 0..6 {
            dw.insert(&[row(1000 + i, i, "w")]).unwrap();
            dw.publish().unwrap();
        }
        let before = fs.list(Path::new("/db")).unwrap().len();
        let removed = dw.compact().unwrap();
        let after = fs.list(Path::new("/db")).unwrap().len();
        assert!(removed > 0, "superseded checkpoints must be collected");
        assert_eq!(before - removed, after);
        // Everything still referenced survives: recovery works.
        drop(dw);
        fs.crash(11);
        let (_h, dw, _r) = DurableWriter::recover(
            fs.clone(),
            PathBuf::from("/db"),
            opts,
            MaintenancePolicy::default(),
        )
        .unwrap();
        dw.staging().check_consistency();
    }

    /// Regression for "pointer identity is the exact dirty set": evidence
    /// queries leave behind waits in the sink, outside the indexes, so a
    /// publish + checkpoint after read-only traffic rewrites no index
    /// image. The
    /// evidence is process state: nothing logs or checkpoints it, and a
    /// restart begins without it.
    #[test]
    fn read_only_traffic_checkpoints_no_index_image() {
        let (fs, handle, mut dw) = setup(2, DurableOptions::default());
        dw.apply(nuc_on_v()).unwrap();
        dw.publish().unwrap();
        let index_files = |fs: &SimFs| {
            let manifest = fs.read(&PathBuf::from("/db").join(MANIFEST_NAME)).unwrap();
            codec::decode_manifest(&manifest).unwrap().index_files
        };
        let before = index_files(&fs);
        assert_eq!(before.len(), 1);

        let logged_by_publish = |dw: &mut DurableWriter| {
            let before = dw.stats().wal_bytes;
            dw.publish().unwrap();
            dw.stats().wal_bytes - before
        };
        // What executed queries on a snapshot report back.
        handle.snapshot().sink().record([WorkloadEvent::Feedback {
            column: 1,
            constraint: Constraint::NearlyUnique,
            est_cost_saved: 42.5,
        }]);
        let with_evidence = logged_by_publish(&mut dw);
        assert_eq!(
            dw.stats().last_checkpoint_files,
            2,
            "meta + manifest only: no partition and no index changed"
        );
        assert_eq!(index_files(&fs), before);
        assert_eq!(
            with_evidence,
            logged_by_publish(&mut dw),
            "evidence logs nothing beyond the publish record"
        );
        let pending = dw.staging().sink().take();
        assert_eq!(
            pending.feedback[&(1, Constraint::NearlyUnique)].times_bound,
            1
        );

        let want = state_image(dw.staging());
        drop(dw);
        fs.crash(9);
        let dw = recover_from(&fs);
        assert_eq!(state_image(dw.staging()), want);
        assert_eq!(dw.staging().sink().take(), Default::default());
    }

    /// Statements naming state the table does not have: a slot,
    /// partition, rowID or column out of range, a short row, a value of
    /// the wrong type. Each used to panic replay or load silently. And a
    /// nearly sorted index on the `Str` column, which used to be logged
    /// and then sort by dictionary code.
    fn records_naming_missing_state() -> Vec<Statement> {
        vec![
            Statement::DropIndex { slot: 5 },
            Statement::Recompute { slot: 5 },
            Statement::Delete {
                pid: 9,
                rids: vec![0],
            },
            Statement::Delete {
                pid: 0,
                rids: vec![999],
            },
            Statement::Insert(vec![vec![Value::Int(1)]]),
            Statement::AddIndex {
                col: 9,
                constraint: Constraint::NearlyUnique,
                design: Design::Bitmap,
            },
            Statement::AddIndex {
                col: 2,
                constraint: Constraint::NearlySorted(SortDir::Asc),
                design: Design::Bitmap,
            },
            Statement::Modify {
                pid: 0,
                rids: vec![0],
                col: 9,
                values: vec![Value::Int(1)],
            },
            Statement::Modify {
                pid: 0,
                rids: vec![0],
                col: 1,
                values: vec![Value::from("x")],
            },
        ]
    }

    /// The live writer refuses each before logging it, and replay refuses
    /// a CRC-valid one (written behind the writer's back) with the WAL
    /// sequence it sits at.
    #[test]
    fn records_naming_missing_state_are_refused() {
        for stmt in records_naming_missing_state() {
            let (fs, _handle, mut dw) = setup(2, DurableOptions::default());
            let refused = dw
                .apply(stmt.clone())
                .expect_err("the writer must refuse it");
            assert_eq!(refused.kind(), io::ErrorKind::InvalidInput, "{stmt:?}");
            assert_eq!(dw.stats().wal_bytes, 0, "{stmt:?} was logged");
            drop(dw);

            let mut wal = wal::WalWriter::new(
                fs.clone(),
                PathBuf::from("/db"),
                SyncPolicy::EveryRecord,
                1 << 20,
                1,
            );
            wal.append(&Record::Statement(stmt.clone())).unwrap();
            wal.append(&Record::Publish).unwrap();
            let err = try_recover(&fs)
                .err()
                .unwrap_or_else(|| panic!("{stmt:?} must not recover"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{stmt:?}: {err}");
            assert!(err.to_string().contains("WAL record 1"), "{err}");
        }
    }

    #[test]
    fn metrics_registry_mirrors_durability_stats() {
        let registry = Arc::new(MetricsRegistry::new());
        let (_fs, _handle, mut dw) = setup(2, DurableOptions::default());
        dw.attach_metrics(&registry);
        dw.insert(&[row(100, 2, "x")]).unwrap();
        dw.modify(0, &[0], 1, &[Value::Int(7)]).unwrap();
        dw.publish().unwrap();
        let stats = dw.stats();
        assert_eq!(registry.counter("wal.appends").get(), 3);
        // The registry was attached after the create-time checkpoint, so
        // it counts only the publish-time one.
        assert_eq!(registry.counter("checkpoint.count").get(), 1);
        assert_eq!(
            registry.counter("checkpoint.bytes").get(),
            stats.last_checkpoint_bytes
        );
        let fsync = registry.histogram("wal.fsync_nanos").snapshot();
        assert_eq!(fsync.count, registry.counter("wal.fsyncs").get());
        assert!(fsync.count >= 3, "EveryRecord syncs each append");
    }

    #[test]
    fn create_refuses_an_existing_durable_directory() {
        let (fs, _handle, dw) = setup(1, DurableOptions::default());
        drop(dw);
        let dyn_fs: Arc<dyn DurableFs> = fs;
        let err = match DurableWriter::create(
            fresh(1),
            dyn_fs,
            PathBuf::from("/db"),
            DurableOptions::default(),
        ) {
            Ok(_) => panic!("create over an existing manifest must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }
}
