//! Every byte format this crate writes.
//!
//! A checkpoint is made of six frame kinds, each one self-describing
//! file: 4-byte magic, version word, payload, CRC-32 trailer.
//!
//! | magic | what | written |
//! |---|---|---|
//! | `PIDB` | a partition's base columns | once per base generation |
//! | `PIDP` | a partition's pending deltas | when the partition changed |
//! | `PIDD` | the string dictionaries | when a dictionary grew |
//! | `PIDX` | one PatchIndex image | when the index version changed |
//! | `PIDT` | table meta: schema, routing, statement counter | every checkpoint |
//! | `PIDM` | the manifest naming the files above | every checkpoint, last |
//!
//! Files are written through [`pi_storage::dfs::write_atomic`], so every
//! file a manifest references is complete and fsynced before the manifest
//! naming it becomes visible — a load never has to tolerate a torn
//! checkpoint, only reject a corrupt one. String columns store dictionary
//! codes; the shared dictionaries travel in one dict file per checkpoint
//! generation so codes stay meaningful.
//!
//! The WAL ([`crate::wal`]) frames its records differently, but encodes
//! values, constraints and designs with the helpers and tag tables here,
//! and [`state_image`] embeds each index as its image payload.

use std::io::{self, Read};
use std::sync::Arc;

use pi_storage::crc::crc32;
use pi_storage::{
    ColumnData, DataType, DeltaStore, DictRef, Field, Partition, Partitioning, Schema, Table, Value,
};

use patchindex::{
    Constraint, Design, DriftBaseline, IndexedTable, MaintenanceStats, PartitionIndex, PatchIndex,
    PatchStore, SortDir, Statement,
};

// ------------------------------------------------------------ byte helpers

/// An [`io::ErrorKind::InvalidData`] error: the bytes say something this
/// build cannot or will not load.
pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

pub(crate) fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(b: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            b.push(0);
            put_i64(b, *i);
        }
        Value::Float(f) => {
            b.push(1);
            put_f64(b, *f);
        }
        Value::Str(s) => {
            b.push(2);
            put_str(b, s);
        }
    }
}

pub(crate) fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

pub(crate) fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_i64(r: &mut impl Read) -> io::Result<i64> {
    Ok(read_u64(r)? as i64)
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

fn read_str(r: &mut &[u8]) -> io::Result<String> {
    let len = checked_count(read_u32(r)? as u64, 1, r, "string")?;
    let (s, rest) = r.split_at(len);
    *r = rest;
    String::from_utf8(s.to_vec()).map_err(|_| bad("non-utf8 string"))
}

pub(crate) fn read_value(r: &mut &[u8]) -> io::Result<Value> {
    match read_u8(r)? {
        0 => Ok(Value::Int(read_i64(r)?)),
        1 => Ok(Value::Float(read_f64(r)?)),
        2 => Ok(Value::Str(read_str(r)?)),
        t => Err(bad(format!("unknown value tag {t}"))),
    }
}

/// The one constraint tag table: a `u32` word in index images, one byte
/// in the WAL.
pub(crate) fn constraint_tag(c: Constraint) -> u32 {
    match c {
        Constraint::NearlyUnique => 0,
        Constraint::NearlySorted(SortDir::Asc) => 1,
        Constraint::NearlySorted(SortDir::Desc) => 2,
        Constraint::NearlyConstant => 3,
    }
}

pub(crate) fn constraint_from_tag(tag: u32) -> io::Result<Constraint> {
    match tag {
        0 => Ok(Constraint::NearlyUnique),
        1 => Ok(Constraint::NearlySorted(SortDir::Asc)),
        2 => Ok(Constraint::NearlySorted(SortDir::Desc)),
        3 => Ok(Constraint::NearlyConstant),
        t => Err(bad(format!("unknown constraint tag {t}"))),
    }
}

/// The one design tag: 1 for the identifier design, 0 for the bitmap.
pub(crate) fn design_tag(d: Design) -> u32 {
    matches!(d, Design::Identifier) as u32
}

pub(crate) fn design_from_tag(tag: u32) -> io::Result<Design> {
    match tag {
        0 => Ok(Design::Bitmap),
        1 => Ok(Design::Identifier),
        t => Err(bad(format!("unknown design tag {t}"))),
    }
}

/// A count read from a payload is a claim — the checksum proves the bytes
/// arrived, not that they are true. Accepts it only if `count` elements
/// of at least `min_bytes` each still fit in the rest of the payload, so
/// no decoder allocates for more than the file can hold.
fn checked_count(count: u64, min_bytes: usize, rest: &[u8], what: &str) -> io::Result<usize> {
    if count > (rest.len() / min_bytes) as u64 {
        return Err(bad(format!(
            "{what}: count {count} exceeds the bytes present"
        )));
    }
    Ok(count as usize)
}

/// Wraps a payload in `magic + version + payload + crc32`.
pub(crate) fn seal(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(payload.len() + 12);
    b.extend_from_slice(magic);
    put_u32(&mut b, version);
    b.extend_from_slice(payload);
    let crc = crc32(&b);
    put_u32(&mut b, crc);
    b
}

/// Verifies `magic + version + crc` framing and returns the payload.
fn unseal<'a>(magic: &[u8; 4], version: u32, bytes: &'a [u8], what: &str) -> io::Result<&'a [u8]> {
    if bytes.len() < 12 {
        return Err(bad(format!("{what}: file too short")));
    }
    if &bytes[..4] != magic {
        return Err(bad(format!("{what}: bad magic")));
    }
    let got_version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if got_version != version {
        return Err(bad(format!(
            "{what}: unsupported version {got_version} (expected {version})"
        )));
    }
    let trailer_at = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[trailer_at..].try_into().unwrap());
    if crc32(&bytes[..trailer_at]) != stored {
        return Err(bad(format!("{what}: checksum mismatch (corrupt file)")));
    }
    Ok(&bytes[8..trailer_at])
}

fn expect_drained(r: &[u8], what: &str) -> io::Result<()> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(bad(format!("{what}: trailing garbage after payload")))
    }
}

// -------------------------------------------------------------- partitions
//
// A partition is checkpointed as the two halves storage keeps: its base
// columns, immutable until a propagate, in a base frame written once per
// base generation, and its positional deltas in a delta frame written
// whenever the partition changed. Recovery reassembles the same split.

const BASE_MAGIC: &[u8; 4] = b"PIDB";
const BASE_VERSION: u32 = 1;
const DELTA_MAGIC: &[u8; 4] = b"PIDP";
const DELTA_VERSION: u32 = 2;
/// The smallest encoded modified cell: position, column, and a value's
/// tag plus a string length.
const MIN_CELL_BYTES: usize = 8 + 4 + 5;

/// Appends a column count and each column as `tag, row count, values`;
/// string columns store dictionary codes.
fn put_columns<'a>(b: &mut Vec<u8>, cols: impl ExactSizeIterator<Item = &'a ColumnData>) {
    put_u32(b, cols.len() as u32);
    for col in cols {
        match col {
            ColumnData::Int(v) => {
                b.push(0);
                put_u64(b, v.len() as u64);
                for x in v {
                    put_i64(b, *x);
                }
            }
            ColumnData::Float(v) => {
                b.push(1);
                put_u64(b, v.len() as u64);
                for x in v {
                    put_f64(b, *x);
                }
            }
            ColumnData::Str { codes, .. } => {
                b.push(2);
                put_u64(b, codes.len() as u64);
                for c in codes {
                    put_u32(b, *c);
                }
            }
        }
    }
}

/// Reads what [`put_columns`] wrote, one column per entry of `dicts`,
/// wiring string columns to the shared dictionaries.
fn read_columns(
    r: &mut &[u8],
    dicts: &[Option<DictRef>],
    what: &str,
) -> io::Result<Vec<ColumnData>> {
    if read_u32(r)? as usize != dicts.len() {
        return Err(bad(format!("{what}: column count mismatch")));
    }
    let mut cols = Vec::with_capacity(dicts.len());
    for (ci, dict) in dicts.iter().enumerate() {
        let tag = read_u8(r)?;
        let width = if tag == 2 { 4 } else { 8 };
        let n = checked_count(read_u64(r)?, width, r, what)?;
        cols.push(match tag {
            0 => ColumnData::Int((0..n).map(|_| read_i64(r)).collect::<io::Result<_>>()?),
            1 => ColumnData::Float((0..n).map(|_| read_f64(r)).collect::<io::Result<_>>()?),
            2 => {
                let dict = dict
                    .as_ref()
                    .ok_or_else(|| bad(format!("{what}: string column {ci} without dict")))?;
                ColumnData::Str {
                    codes: (0..n).map(|_| read_u32(r)).collect::<io::Result<_>>()?,
                    dict: Arc::clone(dict),
                }
            }
            t => return Err(bad(format!("{what}: column tag {t}; col {ci}"))),
        });
    }
    Ok(cols)
}

fn read_usize(r: &mut &[u8]) -> io::Result<usize> {
    usize::try_from(read_u64(r)?).map_err(|_| bad("position does not fit in memory"))
}

/// Reads a frame's partition id and checks it names the manifest slot the
/// frame was listed in.
fn read_pid(r: &mut &[u8], pid: usize, what: &str) -> io::Result<()> {
    let got = read_u32(r)?;
    if got as usize != pid {
        return Err(bad(format!(
            "{what}: frame of partition {got} in slot {pid}"
        )));
    }
    Ok(())
}

/// Serializes a partition's base columns.
pub(crate) fn encode_base(p: &Partition) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, p.id as u32);
    put_columns(&mut b, (0..p.schema().len()).map(|c| p.base_column(c)));
    seal(BASE_MAGIC, BASE_VERSION, &b)
}

/// Serializes a partition's pending deltas: base row count, deleted base
/// positions, modified base cells in (position, column) order, append
/// columns. The bytes follow from the delta's contents alone, whatever
/// order its cells were modified in.
pub(crate) fn encode_delta(p: &Partition) -> Vec<u8> {
    let d = p.delta();
    let mut b = Vec::new();
    put_u32(&mut b, p.id as u32);
    put_u64(&mut b, d.base_rows() as u64);
    put_u64(&mut b, d.deleted().len() as u64);
    for &pos in d.deleted() {
        put_u64(&mut b, pos as u64);
    }
    let cells: Vec<_> = d.modified_cells().collect();
    put_u64(&mut b, cells.len() as u64);
    for (pos, col, v) in &cells {
        put_u64(&mut b, *pos as u64);
        put_u32(&mut b, *col as u32);
        put_value(&mut b, v);
    }
    put_columns(&mut b, d.append_columns().iter());
    seal(DELTA_MAGIC, DELTA_VERSION, &b)
}

/// Reassembles partition `pid` from its base and delta frames, wiring
/// string columns to the shared dictionaries. Anything the frames claim
/// that the schema or the storage invariants refute is `InvalidData`.
pub(crate) fn decode_partition(
    base: &[u8],
    delta: &[u8],
    pid: usize,
    schema: &Arc<Schema>,
    dicts: &[Option<DictRef>],
) -> io::Result<Partition> {
    const BASE: &str = "partition base frame";
    const DELTA: &str = "partition delta frame";
    let mut r = unseal(BASE_MAGIC, BASE_VERSION, base, BASE)?;
    read_pid(&mut r, pid, BASE)?;
    let columns = read_columns(&mut r, dicts, BASE)?;
    expect_drained(r, BASE)?;

    let mut r = unseal(DELTA_MAGIC, DELTA_VERSION, delta, DELTA)?;
    read_pid(&mut r, pid, DELTA)?;
    let base_rows = read_usize(&mut r)?;
    let ndeleted = checked_count(read_u64(&mut r)?, 8, r, DELTA)?;
    let deleted = (0..ndeleted)
        .map(|_| read_usize(&mut r))
        .collect::<io::Result<_>>()?;
    let ncells = checked_count(read_u64(&mut r)?, MIN_CELL_BYTES, r, DELTA)?;
    let mut cells = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        let pos = read_usize(&mut r)?;
        let col = read_u32(&mut r)? as usize;
        cells.push((pos, col, read_value(&mut r)?));
    }
    let appends = read_columns(&mut r, dicts, DELTA)?;
    expect_drained(r, DELTA)?;

    let invalid = |e: String| bad(format!("partition {pid}: {e}"));
    let delta = DeltaStore::from_parts(base_rows, deleted, cells, appends).map_err(invalid)?;
    Partition::restore(pid, Arc::clone(schema), columns, delta).map_err(invalid)
}

// ------------------------------------------------------------ dictionaries

const DICT_MAGIC: &[u8; 4] = b"PIDD";
const DICT_VERSION: u32 = 1;

/// Serializes every string column's dictionary (in column order).
pub(crate) fn encode_dicts(table: &Table) -> Vec<u8> {
    let mut b = Vec::new();
    let ncols = table.schema().len();
    put_u32(&mut b, ncols as u32);
    for col in 0..ncols {
        match table.dict(col) {
            Some(d) => {
                b.push(1);
                let d = d.read();
                put_u32(&mut b, d.len() as u32);
                for code in 0..d.len() as u32 {
                    put_str(&mut b, d.decode(code));
                }
            }
            None => b.push(0),
        }
    }
    seal(DICT_MAGIC, DICT_VERSION, &b)
}

/// Rebuilds shared dictionaries from a dict file.
pub(crate) fn decode_dicts(bytes: &[u8]) -> io::Result<Vec<Option<DictRef>>> {
    let payload = unseal(DICT_MAGIC, DICT_VERSION, bytes, "dict checkpoint")?;
    let mut r: &[u8] = payload;
    let ncols = checked_count(read_u32(&mut r)? as u64, 1, r, "dict checkpoint")?;
    let mut out = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if read_u8(&mut r)? == 1 {
            let n = read_u32(&mut r)?;
            let dict = pi_storage::new_dict();
            {
                let mut d = dict.write();
                for i in 0..n {
                    let s = read_str(&mut r)?;
                    let code = d.encode(&s);
                    if code != i {
                        return Err(bad("dict checkpoint: non-sequential codes"));
                    }
                }
            }
            out.push(Some(dict));
        } else {
            out.push(None);
        }
    }
    expect_drained(r, "dict checkpoint")?;
    Ok(out)
}

// ------------------------------------------------------------ index images
//
// The paper keeps patch data out of the log (Section 3.4): recovery loads
// a checkpointed image of each index instead of replaying its history.

pub(crate) const INDEX_MAGIC: &[u8; 4] = b"PIDX";
/// Header, maintenance counters and drift baseline, then per partition
/// its row count, anchor and patch rowIDs. Versions 2–5 (no flag word,
/// no trailer, or per-slot query feedback) are refused by the version
/// word like any other.
pub(crate) const INDEX_VERSION: u32 = 6;
/// Word after the design word. Patch sets are always globally
/// deduplicated (NUC discovery counts values across partitions), so
/// it is written as 1 and any other value is rejected.
pub(crate) const GLOBALLY_DEDUPLICATED: u32 = 1;
/// Smallest encoding of one partition: row count, anchor tag, patch count.
const MIN_PARTITION_BYTES: usize = 8 + 4 + 8;

/// Appends an index image's payload — everything recovery restores and
/// the drift rules read. [`state_image`] embeds the same bytes.
fn put_index(b: &mut Vec<u8>, idx: &PatchIndex) {
    put_u32(b, idx.column() as u32);
    put_u32(b, constraint_tag(idx.constraint()));
    put_u32(b, design_tag(idx.design()));
    put_u32(b, GLOBALLY_DEDUPLICATED);
    let stats = idx.maintenance_stats();
    put_u64(b, stats.collision_rounds);
    put_u64(b, stats.build_invocations);
    put_u64(b, stats.probed_partitions);
    put_u64(b, stats.maintained_rows);
    let baseline = idx.baseline();
    put_f64(b, baseline.match_fraction);
    put_u64(b, baseline.patches);
    put_u64(b, baseline.maintained_rows);
    put_u32(b, idx.partition_count() as u32);
    for pid in 0..idx.partition_count() {
        let part = idx.partition(pid);
        put_u64(b, part.store.nrows());
        match part.last_sorted {
            Some(v) => {
                put_u32(b, 1);
                put_i64(b, v);
            }
            None => put_u32(b, 0),
        }
        let rids = part.store.patch_rids();
        put_u64(b, rids.len() as u64);
        for r in rids {
            put_u64(b, r);
        }
    }
}

/// Serializes one index image.
pub(crate) fn encode_index(idx: &PatchIndex) -> Vec<u8> {
    let mut b = Vec::new();
    put_index(&mut b, idx);
    seal(INDEX_MAGIC, INDEX_VERSION, &b)
}

/// Parses an image of an index over `table` (recovery restores the table
/// first). The row counts an image claims are bounded by nothing in its
/// own bytes — and the bitmap design allocates for them — so an image
/// whose column the table cannot index ([`Statement::indexable`]), whose
/// partition count differs from the table's, or whose per-partition row
/// count differs from that partition's visible rows is rejected before
/// any patch store is built. So are patch rowIDs outside their partition
/// and trailing garbage.
pub(crate) fn decode_index(bytes: &[u8], table: &Table) -> io::Result<PatchIndex> {
    const WHAT: &str = "index image";
    let mut r = unseal(INDEX_MAGIC, INDEX_VERSION, bytes, WHAT)?;
    let column = read_u32(&mut r)? as usize;
    let constraint = constraint_from_tag(read_u32(&mut r)?)?;
    Statement::indexable(table.schema(), column, constraint)
        .map_err(|e| bad(format!("{WHAT}: {e}")))?;
    let design = design_from_tag(read_u32(&mut r)?)?;
    if read_u32(&mut r)? != GLOBALLY_DEDUPLICATED {
        return Err(bad(format!(
            "{WHAT}: does not claim globally deduplicated patch sets"
        )));
    }
    let stats = MaintenanceStats {
        collision_rounds: read_u64(&mut r)?,
        build_invocations: read_u64(&mut r)?,
        probed_partitions: read_u64(&mut r)?,
        maintained_rows: read_u64(&mut r)?,
    };
    let baseline = DriftBaseline {
        match_fraction: read_f64(&mut r)?,
        patches: read_u64(&mut r)?,
        maintained_rows: read_u64(&mut r)?,
    };
    let nparts = checked_count(
        read_u32(&mut r)? as u64,
        MIN_PARTITION_BYTES,
        r,
        "index image partitions",
    )?;
    if nparts != table.partition_count() {
        return Err(bad(format!(
            "{WHAT}: covers {nparts} partitions, the table has {}",
            table.partition_count()
        )));
    }
    let mut parts = Vec::with_capacity(nparts);
    for (pid, partition) in table.partitions().iter().enumerate() {
        let nrows = read_u64(&mut r)?;
        if nrows != partition.visible_len() as u64 {
            return Err(bad(format!(
                "{WHAT}: partition {pid} claims {nrows} rows, the table holds {}",
                partition.visible_len()
            )));
        }
        let last_sorted = match read_u32(&mut r)? {
            0 => None,
            1 => Some(read_i64(&mut r)?),
            t => return Err(bad(format!("{WHAT}: unknown anchor tag {t}"))),
        };
        let count = checked_count(read_u64(&mut r)?, 8, r, "index image patches")?;
        let rids = (0..count)
            .map(|_| match read_u64(&mut r)? {
                rid if rid < nrows => Ok(rid),
                rid => Err(bad(format!(
                    "{WHAT}: partition {pid}: patch rowID {rid} outside its {nrows} rows"
                ))),
            })
            .collect::<io::Result<Vec<u64>>>()?;
        parts.push(PartitionIndex {
            store: PatchStore::new(design, nrows, &rids),
            last_sorted,
        });
    }
    expect_drained(r, WHAT)?;
    Ok(PatchIndex::restore(
        column, constraint, design, parts, stats, baseline,
    ))
}

// ------------------------------------------------------------- table meta

const META_MAGIC: &[u8; 4] = b"PIDT";
const META_VERSION: u32 = 4;

/// Everything about the table that is neither row data nor patch data:
/// identity, schema, routing state and the statement counter the advisor
/// cadence runs on. The counter changes with every statement, even one
/// that changes no partition or index version, which is why it travels in
/// the one file every checkpoint rewrites.
#[derive(Debug)]
pub(crate) struct TableMeta {
    pub name: String,
    pub schema: Arc<Schema>,
    pub partitioning: Partitioning,
    pub rr_cursor: u64,
    pub statements: u64,
}

impl TableMeta {
    pub fn of(it: &IndexedTable) -> Self {
        let table = it.table();
        TableMeta {
            name: table.name().to_string(),
            schema: Arc::clone(table.schema()),
            partitioning: table.partitioning().clone(),
            rr_cursor: table.rr_cursor() as u64,
            statements: it.statements(),
        }
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    }
}

fn dtype_from_tag(t: u8) -> io::Result<DataType> {
    match t {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Date),
        t => Err(bad(format!("unknown dtype tag {t}"))),
    }
}

pub(crate) fn encode_meta(meta: &TableMeta) -> Vec<u8> {
    let mut b = Vec::new();
    put_str(&mut b, &meta.name);
    put_u32(&mut b, meta.schema.len() as u32);
    for f in meta.schema.fields() {
        put_str(&mut b, &f.name);
        b.push(dtype_tag(f.dtype));
    }
    match &meta.partitioning {
        Partitioning::RoundRobin => b.push(0),
        Partitioning::KeyRange { col, boundaries } => {
            b.push(1);
            put_u32(&mut b, *col as u32);
            put_u32(&mut b, boundaries.len() as u32);
            for x in boundaries {
                put_i64(&mut b, *x);
            }
        }
    }
    put_u64(&mut b, meta.rr_cursor);
    put_u64(&mut b, meta.statements);
    seal(META_MAGIC, META_VERSION, &b)
}

/// Parses a table meta file. Whether its routing fits the partitions the
/// manifest lists is the caller's check ([`Partitioning::validate`]).
pub(crate) fn decode_meta(bytes: &[u8]) -> io::Result<TableMeta> {
    const WHAT: &str = "table meta checkpoint";
    let mut r = unseal(META_MAGIC, META_VERSION, bytes, WHAT)?;
    let name = read_str(&mut r)?;
    // A field is at least a name length and a type tag.
    let nfields = checked_count(read_u32(&mut r)? as u64, 5, r, WHAT)?;
    let mut fields: Vec<Field> = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let fname = read_str(&mut r)?;
        if fields.iter().any(|f| f.name == fname) {
            return Err(bad(format!("{WHAT}: duplicate field name {fname:?}")));
        }
        fields.push(Field::new(fname, dtype_from_tag(read_u8(&mut r)?)?));
    }
    let partitioning = match read_u8(&mut r)? {
        0 => Partitioning::RoundRobin,
        1 => {
            let col = read_u32(&mut r)? as usize;
            let n = checked_count(read_u32(&mut r)? as u64, 8, r, WHAT)?;
            let boundaries = (0..n)
                .map(|_| read_i64(&mut r))
                .collect::<io::Result<_>>()?;
            Partitioning::KeyRange { col, boundaries }
        }
        t => return Err(bad(format!("unknown partitioning tag {t}"))),
    };
    let rr_cursor = read_u64(&mut r)?;
    let statements = read_u64(&mut r)?;
    expect_drained(r, WHAT)?;
    Ok(TableMeta {
        name,
        schema: Arc::new(Schema::new(fields)),
        partitioning,
        rr_cursor,
        statements,
    })
}

// --------------------------------------------------------------- manifest

const MANIFEST_MAGIC: &[u8; 4] = b"PIDM";
const MANIFEST_VERSION: u32 = 2;

/// The checkpoint directory's root of trust: which files make up the
/// newest complete checkpoint, which epoch it is, and the WAL sequence it
/// covers (replay resumes past `hwm`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    pub epoch: u64,
    pub hwm: u64,
    pub meta_file: String,
    pub dict_file: String,
    /// `(base frame, delta frame)` per partition, in partition order.
    pub part_files: Vec<(String, String)>,
    pub index_files: Vec<String>,
}

pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, m.epoch);
    put_u64(&mut b, m.hwm);
    put_str(&mut b, &m.meta_file);
    put_str(&mut b, &m.dict_file);
    put_u32(&mut b, m.part_files.len() as u32);
    for (base, delta) in &m.part_files {
        put_str(&mut b, base);
        put_str(&mut b, delta);
    }
    put_u32(&mut b, m.index_files.len() as u32);
    for f in &m.index_files {
        put_str(&mut b, f);
    }
    seal(MANIFEST_MAGIC, MANIFEST_VERSION, &b)
}

pub(crate) fn decode_manifest(bytes: &[u8]) -> io::Result<Manifest> {
    let payload = unseal(MANIFEST_MAGIC, MANIFEST_VERSION, bytes, "manifest")?;
    let mut r: &[u8] = payload;
    let epoch = read_u64(&mut r)?;
    let hwm = read_u64(&mut r)?;
    let meta_file = read_str(&mut r)?;
    let dict_file = read_str(&mut r)?;
    let nparts = checked_count(read_u32(&mut r)? as u64, 8, r, "manifest")?;
    if nparts == 0 {
        return Err(bad("manifest: lists no partitions"));
    }
    let mut part_files = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        part_files.push((read_str(&mut r)?, read_str(&mut r)?));
    }
    let nindexes = checked_count(read_u32(&mut r)? as u64, 4, r, "manifest")?;
    let mut index_files = Vec::with_capacity(nindexes);
    for _ in 0..nindexes {
        index_files.push(read_str(&mut r)?);
    }
    expect_drained(r, "manifest")?;
    Ok(Manifest {
        epoch,
        hwm,
        meta_file,
        dict_file,
        part_files,
        index_files,
    })
}

// ------------------------------------------------------------ state image

/// Serializes the state recovery restores — decoded row values, the
/// routing cursor and statement counter, and every index's image payload
/// (patch sets, anchors and the maintenance counters the drift rules
/// read). Two tables with equal images give the same answers and maintain
/// their indexes the same way; the recovery property tests compare these
/// byte-for-byte. Query evidence waiting in the workload sink is process
/// state and not part of the image.
pub fn state_image(it: &IndexedTable) -> Vec<u8> {
    let mut b = Vec::new();
    let table = it.table();
    put_str(&mut b, table.name());
    put_u64(&mut b, table.rr_cursor() as u64);
    put_u64(&mut b, it.statements());
    put_u32(&mut b, table.partition_count() as u32);
    let ncols = table.schema().len();
    for pid in 0..table.partition_count() {
        let p = table.partition(pid);
        put_u64(&mut b, p.visible_len() as u64);
        for rid in 0..p.visible_len() {
            for col in 0..ncols {
                put_value(&mut b, &p.value_at(col, rid));
            }
        }
    }
    put_u32(&mut b, it.indexes().len() as u32);
    for idx in it.indexes() {
        put_index(&mut b, idx);
    }
    b
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn rejected<T>(r: io::Result<T>) -> String {
        let err = r.err().expect("a lying count must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    /// A valid checksum proves the bytes arrived, not that the counts in
    /// them are true: every decoder must refuse a count its payload
    /// cannot hold instead of allocating for it.
    #[test]
    fn lying_counts_are_rejected_not_allocated() {
        // Base frame: one int column claiming u64::MAX values.
        let mut p = Vec::new();
        put_u32(&mut p, 0);
        put_u32(&mut p, 2);
        p.push(0);
        put_u64(&mut p, u64::MAX);
        let msg = rejected(decode(seal(BASE_MAGIC, BASE_VERSION, &p), valid_delta()));
        assert!(msg.contains("partition base frame"), "{msg}");
        // Delta frame: u64::MAX deleted positions, then u64::MAX cells.
        let mut d = Vec::new();
        put_u32(&mut d, 0);
        put_u64(&mut d, 4);
        put_u64(&mut d, u64::MAX);
        let msg = rejected(decode(valid_base(), seal(DELTA_MAGIC, DELTA_VERSION, &d)));
        assert!(msg.contains("partition delta frame"), "{msg}");
        let mut d = Vec::new();
        put_u32(&mut d, 0);
        put_u64(&mut d, 4);
        put_u64(&mut d, 0);
        put_u64(&mut d, u64::MAX);
        let msg = rejected(decode(valid_base(), seal(DELTA_MAGIC, DELTA_VERSION, &d)));
        assert!(msg.contains("count 18446744073709551615"), "{msg}");

        // Dict file claiming u32::MAX columns.
        let mut d = Vec::new();
        put_u32(&mut d, u32::MAX);
        let msg = rejected(decode_dicts(&seal(DICT_MAGIC, DICT_VERSION, &d)));
        assert!(msg.contains("dict checkpoint"), "{msg}");

        // Table meta claiming u32::MAX fields, and a string longer than
        // the file.
        let mut m = Vec::new();
        put_str(&mut m, "t");
        put_u32(&mut m, u32::MAX);
        let msg = rejected(decode_meta(&seal(META_MAGIC, META_VERSION, &m)));
        assert!(msg.contains("table meta checkpoint"), "{msg}");
        let mut m = Vec::new();
        put_u32(&mut m, u32::MAX);
        m.extend_from_slice(b"t");
        rejected(decode_meta(&seal(META_MAGIC, META_VERSION, &m)));

        // Manifest claiming u32::MAX partition files.
        let mut f = Vec::new();
        put_u64(&mut f, 1);
        put_u64(&mut f, 1);
        put_str(&mut f, "meta");
        put_str(&mut f, "dict");
        put_u32(&mut f, u32::MAX);
        let msg = rejected(decode_manifest(&seal(MANIFEST_MAGIC, MANIFEST_VERSION, &f)));
        assert!(msg.contains("manifest"), "{msg}");
    }

    /// The table the index image tests run over: two partitions of five
    /// and three rows, columns `k` and `v` (Int) and `f` (Float).
    pub(crate) fn index_table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
                Field::new("f", DataType::Float),
            ]),
            2,
            Partitioning::RoundRobin,
        );
        let floats = |n| ColumnData::Float(vec![0.5; n]);
        t.load_partition(
            0,
            &[ints(&[1, 2, 9, 3, 4]), ints(&[1, 5, 5, 9, 7]), floats(5)],
        );
        t.load_partition(1, &[ints(&[5, 6, 7]), ints(&[3, 3, 4]), floats(3)]);
        t.propagate_all();
        t
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `PIDX` v6 as written before the image moved into this module: an
    /// index directory written then still recovers.
    #[test]
    fn index_image_bytes_are_unchanged() {
        let part = |nrows, design, rids: &[u64], last_sorted| PartitionIndex {
            store: PatchStore::new(design, nrows, rids),
            last_sorted,
        };
        let nuc = PatchIndex::restore(
            1,
            Constraint::NearlyUnique,
            Design::Bitmap,
            vec![
                part(5, Design::Bitmap, &[1, 3], None),
                part(3, Design::Bitmap, &[2], None),
            ],
            MaintenanceStats {
                collision_rounds: 3,
                build_invocations: 2,
                probed_partitions: 5,
                maintained_rows: 11,
            },
            DriftBaseline {
                match_fraction: 0.625,
                patches: 2,
                maintained_rows: 7,
            },
        );
        let nsc = PatchIndex::restore(
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
            vec![
                part(5, Design::Identifier, &[0, 4], Some(-5)),
                part(3, Design::Identifier, &[], Some(42)),
            ],
            MaintenanceStats {
                maintained_rows: 9,
                ..MaintenanceStats::default()
            },
            DriftBaseline {
                match_fraction: 0.75,
                patches: 2,
                maintained_rows: 9,
            },
        );
        let golden = [
            (
                nuc,
                "504944580600000001000000000000000000000001000000030000000000000002000000\
                 0000000005000000000000000b00000000000000000000000000e43f0200000000000000\
                 070000000000000002000000050000000000000000000000020000000000000001000000\
                 000000000300000000000000030000000000000000000000010000000000000002000000\
                 00000000a2e17457",
            ),
            (
                nsc,
                "504944580600000000000000010000000100000001000000000000000000000000000000\
                 0000000000000000000000000900000000000000000000000000e83f0200000000000000\
                 090000000000000002000000050000000000000001000000fbffffffffffffff02000000\
                 00000000000000000000000004000000000000000300000000000000010000002a000000\
                 0000000000000000000000009032f8c3",
            ),
        ];
        let t = index_table();
        for (idx, hex) in golden {
            let want = unhex(hex);
            assert_eq!(encode_index(&idx), want, "{:?}", idx.constraint());
            assert_eq!(encode_index(&decode_index(&want, &t).unwrap()), want);
        }
    }

    // The regression tests below hand-write CRC-valid partition frames
    // for a two-`Int`-column schema: a checksum proves the bytes arrived,
    // and each of these says something the schema or the storage
    // invariants refute.

    fn base_frame(pid: u32, cols: &[ColumnData]) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, pid);
        put_columns(&mut b, cols.iter());
        seal(BASE_MAGIC, BASE_VERSION, &b)
    }

    fn delta_frame(
        pid: u32,
        base_rows: u64,
        deleted: &[u64],
        cells: &[(u64, u32, Value)],
        appends: &[ColumnData],
    ) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, pid);
        put_u64(&mut b, base_rows);
        put_u64(&mut b, deleted.len() as u64);
        for &d in deleted {
            put_u64(&mut b, d);
        }
        put_u64(&mut b, cells.len() as u64);
        for (pos, col, v) in cells {
            put_u64(&mut b, *pos);
            put_u32(&mut b, *col);
            put_value(&mut b, v);
        }
        put_columns(&mut b, appends.iter());
        seal(DELTA_MAGIC, DELTA_VERSION, &b)
    }

    fn ints(v: &[i64]) -> ColumnData {
        ColumnData::Int(v.to_vec())
    }

    /// Four base rows.
    fn valid_base() -> Vec<u8> {
        base_frame(0, &[ints(&[0, 1, 2, 3]), ints(&[5, 6, 7, 8])])
    }

    /// Base row 1 deleted, cell (2, 1) modified, one appended row.
    fn valid_delta() -> Vec<u8> {
        delta_frame(
            0,
            4,
            &[1],
            &[(2, 1, Value::Int(9))],
            &[ints(&[4]), ints(&[9])],
        )
    }

    fn decode(base: Vec<u8>, delta: Vec<u8>) -> io::Result<Partition> {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]));
        decode_partition(&base, &delta, 0, &schema, &[None, None])
    }

    #[test]
    fn partition_frames_roundtrip_the_base_delta_split() {
        let p = decode(valid_base(), valid_delta()).unwrap();
        assert_eq!(p.delta().deleted(), &[1]);
        assert_eq!(p.delta().append_len(), 1);
        let k: Vec<Value> = (0..p.visible_len()).map(|r| p.value_at(1, r)).collect();
        assert_eq!(k, [5, 9, 8, 9].map(Value::Int));
        assert_eq!(encode_base(&p), valid_base());
        assert_eq!(encode_delta(&p), valid_delta());
    }

    /// Two modify histories that reach the same state encode the same
    /// delta bytes: cells come out in (position, column) order, not in the
    /// order their columns were first patched.
    #[test]
    fn delta_bytes_follow_from_the_state_not_its_history() {
        let fresh = || decode(valid_base(), valid_delta()).unwrap();
        let (mut a, mut b) = (fresh(), fresh());
        a.modify(&[0], 0, &[Value::Int(-1)]);
        a.modify(&[2, 0], 1, &[Value::Int(-2), Value::Int(-3)]);
        b.modify(&[0, 2], 1, &[Value::Int(-4), Value::Int(-2)]);
        b.modify(&[0], 0, &[Value::Int(-1)]);
        b.modify(&[0], 1, &[Value::Int(-3)]);
        let cells: Vec<_> = b.delta().modified_cells().collect();
        let want = [(0, 0, -1), (0, 1, -3), (2, 1, 9), (3, 1, -2)];
        assert_eq!(cells, want.map(|(p, c, v)| (p, c, Value::Int(v))));
        assert_eq!(encode_delta(&a), encode_delta(&b));
        let again = decode(valid_base(), encode_delta(&a)).unwrap();
        assert_eq!(encode_delta(&again), encode_delta(&a));
    }

    /// Regression: used to panic with "ragged columns" in `Partition::new`.
    #[test]
    fn ragged_base_columns_are_invalid_data() {
        let base = base_frame(0, &[ints(&[0, 1, 2, 3]), ints(&[5, 6, 7])]);
        let msg = rejected(decode(base, valid_delta()));
        assert!(msg.contains("ragged"), "{msg}");
    }

    /// Regression: used to panic with "need at least one partition" in
    /// `Table::restore`.
    #[test]
    fn manifest_listing_no_partitions_is_invalid_data() {
        let mut m = Vec::new();
        put_u64(&mut m, 1);
        put_u64(&mut m, 1);
        put_str(&mut m, "meta");
        put_str(&mut m, "dict");
        put_u32(&mut m, 0);
        put_u32(&mut m, 0);
        let msg = rejected(decode_manifest(&seal(MANIFEST_MAGIC, MANIFEST_VERSION, &m)));
        assert!(msg.contains("no partitions"), "{msg}");
    }

    /// Regression: a `Float` column under an `Int` field used to be
    /// restored, leaving the table type-confused.
    #[test]
    fn float_column_under_an_int_field_is_invalid_data() {
        let float = ColumnData::Float(vec![0.5; 4]);
        let msg = rejected(decode(
            base_frame(0, &[ints(&[0, 1, 2, 3]), float]),
            valid_delta(),
        ));
        assert!(msg.contains("Float data under the Int field"), "{msg}");
        let appends = [ints(&[4]), ColumnData::Float(vec![0.5])];
        let delta = delta_frame(0, 4, &[], &[], &appends);
        rejected(decode(valid_base(), delta));
    }

    #[test]
    fn delta_over_another_base_row_count_is_invalid_data() {
        let delta = delta_frame(0, 5, &[1], &[], &[ints(&[]), ints(&[])]);
        let msg = rejected(decode(valid_base(), delta));
        assert!(
            msg.contains("delta over 5 base rows, base holds 4"),
            "{msg}"
        );
    }

    #[test]
    fn unsorted_duplicate_or_out_of_range_deletes_are_invalid_data() {
        let none = [ints(&[]), ints(&[])];
        for deleted in [&[2, 1][..], &[1, 1], &[4]] {
            let delta = delta_frame(0, 4, deleted, &[], &none);
            let msg = rejected(decode(valid_base(), delta));
            assert!(msg.contains("deleted position"), "{deleted:?}: {msg}");
        }
    }

    #[test]
    fn misplaced_or_mistyped_modified_cells_are_invalid_data() {
        let none = [ints(&[]), ints(&[])];
        let cases = [
            ((1, 0, Value::Int(7)), "not a live base row"),
            ((4, 0, Value::Int(7)), "not a live base row"),
            ((0, 2, Value::Int(7)), "column 2 of 2"),
            ((0, 1, Value::Str("x".into())), "holds Str in a Int column"),
            ((0, 1, Value::Float(1.0)), "holds Float in a Int column"),
        ];
        for (cell, want) in cases {
            let delta = delta_frame(0, 4, &[1], std::slice::from_ref(&cell), &none);
            let msg = rejected(decode(valid_base(), delta));
            assert!(msg.contains(want), "{cell:?}: {msg}");
        }
        let twice = [(0, 1, Value::Int(1)), (0, 1, Value::Int(2))];
        let msg = rejected(decode(valid_base(), delta_frame(0, 4, &[], &twice, &none)));
        assert!(msg.contains("given twice"), "{msg}");
    }

    #[test]
    fn unequal_append_columns_are_invalid_data() {
        let delta = delta_frame(0, 4, &[], &[], &[ints(&[4, 5]), ints(&[9])]);
        let msg = rejected(decode(valid_base(), delta));
        assert!(msg.contains("append columns of unequal length"), "{msg}");
    }

    #[test]
    fn frame_of_another_partition_is_invalid_data() {
        let base = base_frame(1, &[ints(&[0, 1, 2, 3]), ints(&[5, 6, 7, 8])]);
        let msg = rejected(decode(base, valid_delta()));
        assert!(msg.contains("frame of partition 1 in slot 0"), "{msg}");
        let delta = delta_frame(3, 4, &[], &[], &[ints(&[]), ints(&[])]);
        let msg = rejected(decode(valid_base(), delta));
        assert!(msg.contains("frame of partition 3 in slot 0"), "{msg}");
    }

    /// Regression: `Schema::new` panicked on the repeated name.
    #[test]
    fn meta_with_a_repeated_field_name_is_invalid_data() {
        let mut m = Vec::new();
        put_str(&mut m, "t");
        put_u32(&mut m, 2);
        for _ in 0..2 {
            put_str(&mut m, "k");
            m.push(dtype_tag(DataType::Int));
        }
        m.push(0); // round-robin
        put_u64(&mut m, 0);
        put_u64(&mut m, 0);
        let msg = rejected(decode_meta(&seal(META_MAGIC, META_VERSION, &m)));
        assert!(msg.contains("duplicate field name \"k\""), "{msg}");
    }

    /// No legacy decoder: a manifest v1 (one file per partition), a
    /// `PIDP` v1 file (visible rows) and meta files v1 (no feedback), v2
    /// (wall-clock timing counters per feedback slot) and v3 (query
    /// feedback per slot) are refused by their version word, which is
    /// checked before the checksum. Index image versions are covered by
    /// `checkpoint::tests::other_versions_and_flag_words_are_rejected`.
    #[test]
    fn old_manifest_and_partition_versions_are_refused() {
        let msg = rejected(decode_manifest(&seal(MANIFEST_MAGIC, 1, &[])));
        assert!(msg.contains("unsupported version 1"), "{msg}");
        let msg = rejected(decode(valid_base(), seal(DELTA_MAGIC, 1, &[])));
        assert!(msg.contains("unsupported version 1"), "{msg}");
        for version in [1, 2, 3] {
            let msg = rejected(decode_meta(&seal(META_MAGIC, version, &[])));
            assert!(
                msg.contains(&format!("unsupported version {version}")),
                "{msg}"
            );
        }
    }
}
