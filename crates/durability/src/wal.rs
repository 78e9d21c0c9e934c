//! The statement write-ahead log.
//!
//! Every update statement against a [`crate::DurableWriter`] is encoded as
//! one WAL record and appended **before** it is applied (log-then-apply:
//! if the append fails, the statement is not applied, so the durable log
//! always describes a superset of the applied state). Records live in
//! append-only segment files `wal-<startseq>.log`; each record is framed
//!
//! ```text
//! [len: u32][crc32(payload): u32][payload]
//! payload = [seq: u64][type: u8][body]
//! ```
//!
//! so a torn tail or a flipped bit is detected by the checksum and read
//! as end-of-segment, never parsed into a half statement. Sequence
//! numbers are contiguous across segments; the reader refuses any gap,
//! which is what lets it distinguish "stale pre-crash segment tail" from
//! "the log continues in the next segment".

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pi_obs::{Counter, Histogram, MetricsRegistry};
use pi_storage::crc::crc32;
use pi_storage::dfs::DurableFs;

use patchindex::Statement;

use crate::codec::{
    bad, constraint_from_tag, constraint_tag, design_from_tag, design_tag, put_u32, put_u64,
    put_value, read_u32, read_u64, read_u8, read_value,
};

/// When WAL appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every record — no acknowledged statement is ever lost.
    #[default]
    EveryRecord,
    /// fsync once per publish — an epoch is durable the moment
    /// `publish()` returns; statements inside an unpublished epoch may be
    /// lost (they would be discarded by recovery anyway — recovery always
    /// lands on a published prefix).
    EveryPublish,
    /// Never fsync the WAL explicitly; durability degrades to the atomic
    /// checkpoints written at publish time. Cheapest, weakest.
    OsBuffered,
}

/// One WAL record: a statement, or the publish that makes the statements
/// before it a durable epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A statement, logged before it is applied.
    Statement(Statement),
    /// An epoch published (durable high-water marks point at these).
    Publish,
}

const T_INSERT: u8 = 1;
const T_MODIFY: u8 = 2;
const T_DELETE: u8 = 3;
const T_ADD_INDEX: u8 = 4;
const T_DROP_INDEX: u8 = 5;
const T_RECOMPUTE: u8 = 6;
// 7 is retired (it named a flush of batched maintenance): never reused,
// and a frame carrying it is refused like any unknown tag.
const T_PUBLISH: u8 = 8;
// 9 and 10 are retired the same way (they named query feedback and a
// wall-clock query timing: process state, not table state).

/// Upper bound on one frame's payload — anything larger is treated as a
/// corrupt length field, not an allocation request.
const MAX_PAYLOAD: u32 = 64 << 20;

impl Record {
    /// Writes the record's type tag, then its body.
    fn encode(&self, b: &mut Vec<u8>) {
        let Record::Statement(stmt) = self else {
            b.push(T_PUBLISH);
            return;
        };
        match stmt {
            Statement::Insert(rows) => {
                b.push(T_INSERT);
                put_u32(b, rows.len() as u32);
                for row in rows {
                    put_u32(b, row.len() as u32);
                    for v in row {
                        put_value(b, v);
                    }
                }
            }
            Statement::Modify {
                pid,
                rids,
                col,
                values,
            } => {
                b.push(T_MODIFY);
                put_u32(b, *pid as u32);
                put_u32(b, *col as u32);
                put_u32(b, rids.len() as u32);
                for r in rids {
                    put_u64(b, *r as u64);
                }
                for v in values {
                    put_value(b, v);
                }
            }
            Statement::Delete { pid, rids } => {
                b.push(T_DELETE);
                put_u32(b, *pid as u32);
                put_u32(b, rids.len() as u32);
                for r in rids {
                    put_u64(b, *r as u64);
                }
            }
            Statement::AddIndex {
                col,
                constraint,
                design,
            } => {
                b.push(T_ADD_INDEX);
                put_u32(b, *col as u32);
                b.push(constraint_tag(*constraint) as u8);
                b.push(design_tag(*design) as u8);
            }
            Statement::DropIndex { slot } => {
                b.push(T_DROP_INDEX);
                put_u32(b, *slot as u32);
            }
            Statement::Recompute { slot } => {
                b.push(T_RECOMPUTE);
                put_u32(b, *slot as u32);
            }
        }
    }

    fn decode(tag: u8, r: &mut &[u8]) -> io::Result<Record> {
        Ok(Record::Statement(match tag {
            T_INSERT => {
                let nrows = read_u32(r)? as usize;
                let mut rows = Vec::with_capacity(nrows.min(1 << 16));
                for _ in 0..nrows {
                    let ncols = read_u32(r)? as usize;
                    let mut row = Vec::with_capacity(ncols.min(1 << 10));
                    for _ in 0..ncols {
                        row.push(read_value(r)?);
                    }
                    rows.push(row);
                }
                Statement::Insert(rows)
            }
            T_MODIFY => {
                let pid = read_u32(r)? as usize;
                let col = read_u32(r)? as usize;
                let n = read_u32(r)? as usize;
                let mut rids = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rids.push(read_u64(r)? as usize);
                }
                let mut values = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    values.push(read_value(r)?);
                }
                Statement::Modify {
                    pid,
                    rids,
                    col,
                    values,
                }
            }
            T_DELETE => {
                let pid = read_u32(r)? as usize;
                let n = read_u32(r)? as usize;
                let mut rids = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rids.push(read_u64(r)? as usize);
                }
                Statement::Delete { pid, rids }
            }
            T_ADD_INDEX => Statement::AddIndex {
                col: read_u32(r)? as usize,
                constraint: constraint_from_tag(read_u8(r)?.into())?,
                design: design_from_tag(read_u8(r)?.into())?,
            },
            T_DROP_INDEX => Statement::DropIndex {
                slot: read_u32(r)? as usize,
            },
            T_RECOMPUTE => Statement::Recompute {
                slot: read_u32(r)? as usize,
            },
            T_PUBLISH => return Ok(Record::Publish),
            t => return Err(bad(format!("unknown record type {t}"))),
        }))
    }
}

fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

fn segment_start_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

/// Lists a directory's WAL segments in sequence order.
pub(crate) fn list_segments(fs: &dyn DurableFs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs: Vec<(u64, PathBuf)> = fs
        .list(dir)?
        .into_iter()
        .filter_map(|p| segment_start_seq(&p).map(|s| (s, p)))
        .collect();
    segs.sort();
    Ok(segs)
}

/// Pre-registered registry handles for the WAL's hot path — one lookup
/// at attach time, atomic bumps per record afterwards.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    pub appends: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub fsyncs: Arc<Counter>,
    pub fsync_nanos: Arc<Histogram>,
}

impl WalMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            appends: registry.counter("wal.appends"),
            bytes: registry.counter("wal.bytes"),
            fsyncs: registry.counter("wal.fsyncs"),
            fsync_nanos: registry.histogram("wal.fsync_nanos"),
        }
    }
}

/// The append half of the WAL.
#[derive(Debug)]
pub(crate) struct WalWriter {
    fs: Arc<dyn DurableFs>,
    dir: PathBuf,
    sync: SyncPolicy,
    segment_bytes: usize,
    cur_seg: Option<PathBuf>,
    cur_seg_bytes: usize,
    next_seq: u64,
    /// Segments appended to since their last fsync.
    dirty_segs: Vec<PathBuf>,
    /// Whether a segment was created/removed since the last dir fsync.
    dir_dirty: bool,
    /// Total frame bytes appended (durability economics reporting).
    pub bytes_appended: u64,
    metrics: Option<WalMetrics>,
}

impl WalWriter {
    pub fn new(
        fs: Arc<dyn DurableFs>,
        dir: PathBuf,
        sync: SyncPolicy,
        segment_bytes: usize,
        next_seq: u64,
    ) -> Self {
        WalWriter {
            fs,
            dir,
            sync,
            segment_bytes: segment_bytes.max(1),
            cur_seg: None,
            cur_seg_bytes: 0,
            next_seq,
            dirty_segs: Vec::new(),
            dir_dirty: false,
            bytes_appended: 0,
            metrics: None,
        }
    }

    /// Starts reporting append counts/bytes and fsync latency to a
    /// metrics registry.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record (rolling segments as needed) and applies the
    /// per-record half of the sync policy. Returns the record's sequence
    /// number. On error nothing was logged: the caller must not apply
    /// the statement.
    pub fn append(&mut self, record: &Record) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut payload = Vec::new();
        put_u64(&mut payload, seq);
        record.encode(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);

        if self.cur_seg.is_none() || self.cur_seg_bytes >= self.segment_bytes {
            self.cur_seg = Some(self.dir.join(segment_name(seq)));
            self.cur_seg_bytes = 0;
            self.dir_dirty = true;
        }
        let seg = self.cur_seg.clone().expect("segment just ensured");
        self.fs.append(&seg, &frame)?;
        self.cur_seg_bytes += frame.len();
        self.bytes_appended += frame.len() as u64;
        self.next_seq += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.bytes.add(frame.len() as u64);
        }
        match self.sync {
            SyncPolicy::EveryRecord => {
                let start = Instant::now();
                self.fs.fsync(&seg)?;
                if self.dir_dirty {
                    self.fs.fsync_dir(&self.dir)?;
                    self.dir_dirty = false;
                }
                if let Some(m) = &self.metrics {
                    m.fsyncs.inc();
                    m.fsync_nanos.record(start.elapsed().as_nanos() as u64);
                }
            }
            SyncPolicy::EveryPublish | SyncPolicy::OsBuffered => {
                if !self.dirty_segs.contains(&seg) {
                    self.dirty_segs.push(seg);
                }
            }
        }
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage (the
    /// publish-time half of [`SyncPolicy::EveryPublish`]).
    pub fn sync_all(&mut self) -> io::Result<()> {
        if self.dirty_segs.is_empty() && !self.dir_dirty {
            return Ok(());
        }
        let start = Instant::now();
        for seg in std::mem::take(&mut self.dirty_segs) {
            self.fs.fsync(&seg)?;
        }
        if self.dir_dirty {
            self.fs.fsync_dir(&self.dir)?;
            self.dir_dirty = false;
        }
        if let Some(m) = &self.metrics {
            m.fsyncs.inc();
            m.fsync_nanos.record(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Removes every segment file (recovery finalization: the fresh
    /// checkpoint's high-water mark covers all of them). Removal failures
    /// are harmless — covered records are skipped at replay — so errors
    /// propagate only from the final dir fsync.
    pub fn remove_all_segments(&mut self) -> io::Result<()> {
        let mut removed = false;
        for (_, seg) in list_segments(self.fs.as_ref(), &self.dir)? {
            fs_remove_best_effort(self.fs.as_ref(), &seg, &mut removed);
        }
        self.cur_seg = None;
        self.cur_seg_bytes = 0;
        self.dirty_segs.clear();
        if removed {
            self.fs.fsync_dir(&self.dir)?;
        }
        Ok(())
    }
}

fn fs_remove_best_effort(fs: &dyn DurableFs, path: &Path, removed: &mut bool) {
    if fs.remove(path).is_ok() {
        *removed = true;
    }
}

/// Reads every decodable record from the WAL, in sequence order, starting
/// the count at `first_seq` (the sequence the oldest retained segment is
/// expected to start at; gaps before it are tolerated because compaction
/// removes whole leading segments).
///
/// Stops — without error — at the first torn or corrupt frame whose
/// segment has no contiguous successor, at any sequence gap, and at end
/// of log. This is deliberate: a checksum failure at the tail is
/// indistinguishable from a crash mid-append, and everything past it was
/// never acknowledged as durable.
pub(crate) fn read_log(fs: &dyn DurableFs, dir: &Path) -> io::Result<Vec<(u64, Record)>> {
    let segs = list_segments(fs, dir)?;
    let mut out: Vec<(u64, Record)> = Vec::new();
    let mut expect_seq: Option<u64> = None;
    for (start_seq, path) in segs {
        match expect_seq {
            // A segment that does not continue the sequence exactly is
            // stale (pre-crash leftovers past a tear) — stop.
            Some(e) if start_seq != e => break,
            // First segment: trust its own start seq.
            _ => {}
        }
        let data = fs.read(&path)?;
        let mut off = 0usize;
        let mut tore = false;
        while off + 8 <= data.len() {
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
            if len > MAX_PAYLOAD || off + 8 + len as usize > data.len() {
                tore = true;
                break;
            }
            let payload = &data[off + 8..off + 8 + len as usize];
            if crc32(payload) != crc {
                tore = true;
                break;
            }
            let mut r: &[u8] = payload;
            let seq = read_u64(&mut r)?;
            let expected = expect_seq.unwrap_or(start_seq);
            if seq != expected {
                tore = true;
                break;
            }
            let tag = read_u8(&mut r)?;
            let record = Record::decode(tag, &mut r)?;
            if !r.is_empty() {
                return Err(bad("trailing bytes inside WAL record payload"));
            }
            out.push((seq, record));
            expect_seq = Some(seq + 1);
            off += 8 + len as usize;
        }
        if tore || off < data.len() {
            // Torn tail: later segments are only valid if they continue
            // the sequence exactly (the loop's gap check enforces it).
            continue;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::{Constraint, Design, SortDir};
    use pi_storage::dfs::SimFs;
    use pi_storage::Value;

    fn sample_records() -> Vec<Record> {
        let statements = [
            Statement::Insert(vec![
                vec![Value::Int(1), Value::Float(2.5), Value::Str("ab".into())],
                vec![Value::Int(2), Value::Float(-0.0), Value::Str("".into())],
            ]),
            Statement::Modify {
                pid: 3,
                rids: vec![0, 7],
                col: 1,
                values: vec![Value::Int(9), Value::Int(10)],
            },
            Statement::Delete {
                pid: 0,
                rids: vec![5],
            },
            Statement::AddIndex {
                col: 2,
                constraint: Constraint::NearlySorted(SortDir::Desc),
                design: Design::Identifier,
            },
            Statement::DropIndex { slot: 1 },
            Statement::Recompute { slot: 0 },
        ];
        statements
            .into_iter()
            .map(Record::Statement)
            .chain([Record::Publish])
            .collect()
    }

    #[test]
    fn roundtrip_through_segments() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        // Tiny segment budget: every record rolls a segment.
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 16, 1);
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), records.len());
        for (i, (seq, rec)) in read.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(rec, &records[i]);
        }
    }

    /// The frame bytes of every record kind, pinned: a WAL written by an
    /// older build must replay unchanged.
    #[test]
    fn record_frames_are_unchanged() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let bytes = fs.read(&dir.join(segment_name(1))).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        // `[len][crc][seq][tag][body]` per record: insert and modify take
        // two lines each, then delete, add-index, drop, recompute, publish.
        let want = concat!(
            "4500000024979630010000000000000001020000000300000000010000000000000001000000",
            "000000044002020000006162030000000002000000000000000100000000000000800200000000",
            "370000004684784e0200000000000000020300000001000000020000000000000000000000070000",
            "0000000000000900000000000000000a00000000000000",
            "1900000053a1fd5c03000000000000000300000000010000000500000000000000",
            "0f00000088b119a1040000000000000004020000000201",
            "0d000000841d076205000000000000000501000000",
            "0d000000ff6cd12006000000000000000600000000",
            "0900000055f1b38c070000000000000008",
        );
        assert_eq!(hex, want);
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let seg = dir.join(segment_name(1));
        let full = fs.read(&seg).unwrap();
        // Rewrite a truncated copy: all but the last 3 bytes.
        fs.remove(&seg).unwrap();
        fs.append(&seg, &full[..full.len() - 3]).unwrap();
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), sample_records().len() - 1);
    }

    #[test]
    fn bit_flip_stops_at_the_flip() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let seg = dir.join(segment_name(1));
        let len = fs.len(&seg).unwrap();
        fs.flip_bit(&seg, len - 10, 2);
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert!(read.len() < sample_records().len());
        for (i, (seq, _)) in read.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "prefix must stay contiguous");
        }
    }

    #[test]
    fn stale_segment_past_a_tear_is_ignored() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        // Segment 1 holds seqs 1-2 with a torn third record; a stale
        // pre-crash segment starting at seq 5 must not be replayed.
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        w.append(&Record::Statement(Statement::Recompute { slot: 0 }))
            .unwrap();
        w.append(&Record::Publish).unwrap();
        w.append(&Record::Statement(Statement::Recompute { slot: 0 }))
            .unwrap();
        let seg = dir.join(segment_name(1));
        let full = fs.read(&seg).unwrap();
        fs.remove(&seg).unwrap();
        fs.append(&seg, &full[..full.len() - 2]).unwrap();
        let mut stale = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 16, 5);
        stale.append(&Record::Publish).unwrap();
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), 2);
        // A successor that *does* continue the sequence is replayed.
        let mut cont = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 16, 3);
        cont.append(&Record::Publish).unwrap();
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), 3);
        assert_eq!(read[2], (3, Record::Publish));
    }

    /// An unknown record tag inside a CRC-valid frame is not a torn tail:
    /// the log says something this build cannot replay, so reading it is
    /// an error, never a silently shortened history. Tag 7 is the retired
    /// flush record, 9 the retired feedback record, 10 the retired timing
    /// record, 200 was never assigned.
    #[test]
    fn unknown_record_tag_is_refused_not_skipped() {
        for tag in [7u8, 9, 10, 200] {
            let fs = Arc::new(SimFs::new());
            let dir = PathBuf::from("/wal");
            let mut w =
                WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
            w.append(&Record::Publish).unwrap();
            let mut payload = 2u64.to_le_bytes().to_vec();
            payload.push(tag);
            let mut frame = Vec::new();
            put_u32(&mut frame, payload.len() as u32);
            put_u32(&mut frame, crc32(&payload));
            frame.extend_from_slice(&payload);
            fs.append(&dir.join(segment_name(1)), &frame).unwrap();
            let err = read_log(fs.as_ref(), &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}: {err}");
        }
    }
}
