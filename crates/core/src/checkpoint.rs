//! The index image recovery restores (paper, Section 3.4).
//!
//! PatchIndexes are main-memory structures; to keep the database log slim
//! the actual patch information is not logged. The paper recovers an
//! index by recreating it from the table ([`PatchIndex::create`]) or by
//! loading a checkpoint of it. This module is the checkpoint's format: a
//! hand-rolled little-endian image with a CRC-32 trailer
//! ([`PatchIndex::checkpoint_bytes`]) and its one decoder
//! ([`PatchIndex::load_checkpoint_for`]), which checks the image against
//! the table it restores into. Writing the image to disk — atomically,
//! next to the table data it describes — is the `pi-durability` crate's
//! job; its epoch checkpoints embed one image per index.

use std::io::{self, Read};

use pi_storage::crc::crc32;
use pi_storage::Table;

use crate::constraint::{Constraint, Design, SortDir};
use crate::index::{DriftBaseline, PartitionIndex, PatchIndex};
use crate::maintenance::MaintenanceStats;
use crate::store::PatchStore;

const MAGIC: &[u8; 4] = b"PIDX";
/// The only format this build reads or writes: header, maintenance
/// counters and drift baseline, per-partition patch sets, then a CRC-32
/// trailer over everything before it, so torn or bit-flipped files are
/// rejected at load instead of parsed. (Query feedback is not part of an
/// index, and nothing persists it.)
const VERSION: u32 = 6;
/// Word after the design word. Patch sets are always globally
/// deduplicated (NUC discovery includes the cross-partition residual), so
/// it is written as 1 and any other value is rejected.
const GLOBALLY_DEDUPLICATED: u32 = 1;
/// Smallest encoding of one partition: row count, anchor tag, patch count.
const MIN_PARTITION_BYTES: usize = 8 + 4 + 8;

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(b: &mut Vec<u8>, v: f64) {
    put_u64(b, v.to_bits());
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_i64(r: &mut impl Read) -> io::Result<i64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(i64::from_le_bytes(buf))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

fn constraint_tag(c: Constraint) -> u32 {
    match c {
        Constraint::NearlyUnique => 0,
        Constraint::NearlySorted(SortDir::Asc) => 1,
        Constraint::NearlySorted(SortDir::Desc) => 2,
        Constraint::NearlyConstant => 3,
    }
}

fn constraint_from_tag(tag: u32) -> io::Result<Constraint> {
    match tag {
        0 => Ok(Constraint::NearlyUnique),
        1 => Ok(Constraint::NearlySorted(SortDir::Asc)),
        2 => Ok(Constraint::NearlySorted(SortDir::Desc)),
        3 => Ok(Constraint::NearlyConstant),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown constraint tag {other}"),
        )),
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl PatchIndex {
    /// Serializes the index to the current checkpoint format (v6,
    /// CRC-32 trailer included).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        put_u32(&mut b, VERSION);
        put_u32(&mut b, self.column() as u32);
        put_u32(&mut b, constraint_tag(self.constraint()));
        put_u32(&mut b, matches!(self.design(), Design::Identifier) as u32);
        put_u32(&mut b, GLOBALLY_DEDUPLICATED);
        // Monitoring counters: maintenance stats and drift baseline — the
        // index's share of the advisor's observe state survives recovery.
        let stats = self.maintenance_stats();
        put_u64(&mut b, stats.collision_rounds);
        put_u64(&mut b, stats.build_invocations);
        put_u64(&mut b, stats.probed_partitions);
        put_u64(&mut b, stats.maintained_rows);
        let baseline = self.baseline();
        put_f64(&mut b, baseline.match_fraction);
        put_u64(&mut b, baseline.patches);
        put_u64(&mut b, baseline.maintained_rows);
        put_u32(&mut b, self.partition_count() as u32);
        for pid in 0..self.partition_count() {
            let part = self.partition(pid);
            put_u64(&mut b, part.store.nrows());
            match part.last_sorted {
                Some(v) => {
                    put_u32(&mut b, 1);
                    put_i64(&mut b, v);
                }
                None => put_u32(&mut b, 0),
            }
            let rids = part.store.patch_rids();
            put_u64(&mut b, rids.len() as u64);
            for r in rids {
                put_u64(&mut b, r);
            }
        }
        let crc = crc32(&b);
        put_u32(&mut b, crc);
        b
    }

    /// Parses a checkpoint image of an index over `table` (recovery
    /// restores the table first). Rejects other versions, checksum
    /// mismatches, counts that exceed the bytes present, patch rowIDs
    /// outside their partition and trailing garbage with a clear
    /// [`io::ErrorKind::InvalidData`] error. The row counts an image
    /// claims are bounded by nothing in its own bytes — and the bitmap
    /// design allocates for them — so an image whose column is outside
    /// the schema, whose partition count differs from the table's, or
    /// whose per-partition row count differs from that partition's
    /// visible rows is rejected before any patch store is built.
    pub fn load_checkpoint_for(bytes: &[u8], table: &Table) -> io::Result<Self> {
        let mut header: &[u8] = bytes;
        let mut magic = [0u8; 4];
        header
            .read_exact(&mut magic)
            .map_err(|_| bad_data("not a PatchIndex checkpoint (too short)"))?;
        if &magic != MAGIC {
            return Err(bad_data("not a PatchIndex checkpoint"));
        }
        let version = read_u32(&mut header)?;
        if version != VERSION {
            return Err(bad_data(&format!(
                "unsupported checkpoint version {version}"
            )));
        }
        // The file ends in a CRC-32 of everything before it; verify before
        // trusting a single payload byte.
        if bytes.len() < 12 {
            return Err(bad_data("checkpoint truncated before checksum"));
        }
        let trailer_at = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[trailer_at..].try_into().unwrap());
        if crc32(&bytes[..trailer_at]) != stored {
            return Err(bad_data(
                "checkpoint checksum mismatch (corrupt or torn file)",
            ));
        }
        let mut r: &[u8] = &bytes[8..trailer_at];
        let column = read_u32(&mut r)? as usize;
        if column >= table.schema().len() {
            return Err(bad_data(&format!(
                "checkpoint column {column} outside the table's schema"
            )));
        }
        let constraint = constraint_from_tag(read_u32(&mut r)?)?;
        let design = if read_u32(&mut r)? == 1 {
            Design::Identifier
        } else {
            Design::Bitmap
        };
        if read_u32(&mut r)? != GLOBALLY_DEDUPLICATED {
            return Err(bad_data(
                "checkpoint does not claim globally deduplicated patch sets",
            ));
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
        // A valid checksum does not make a count true: bound each by the
        // bytes that remain before allocating for it.
        let nparts = read_u32(&mut r)? as usize;
        if nparts > r.len() / MIN_PARTITION_BYTES {
            return Err(bad_data(
                "checkpoint partition count exceeds the bytes present",
            ));
        }
        if nparts != table.partition_count() {
            return Err(bad_data(&format!(
                "checkpoint covers {nparts} partitions, the table has a different count"
            )));
        }
        let mut parts = Vec::with_capacity(nparts);
        for pid in 0..nparts {
            let nrows = read_u64(&mut r)?;
            if nrows != table.partition(pid).visible_len() as u64 {
                return Err(bad_data(&format!(
                    "partition {pid}: checkpoint claims {nrows} rows, the table holds a different count"
                )));
            }
            let last_sorted = if read_u32(&mut r)? == 1 {
                Some(read_i64(&mut r)?)
            } else {
                None
            };
            let count = read_u64(&mut r)?;
            if count > (r.len() / 8) as u64 {
                return Err(bad_data(&format!(
                    "partition {pid}: patch count {count} exceeds the bytes present"
                )));
            }
            let mut rids = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let rid = read_u64(&mut r)?;
                if rid >= nrows {
                    return Err(bad_data(&format!(
                        "partition {pid}: patch rowID {rid} outside its {nrows} rows"
                    )));
                }
                rids.push(rid);
            }
            parts.push(PartitionIndex {
                store: PatchStore::new(design, nrows, &rids),
                last_sorted,
            });
        }
        if !r.is_empty() {
            return Err(bad_data("trailing garbage after checkpoint payload"));
        }
        let mut idx = PatchIndex::from_parts(column, constraint, design, parts);
        idx.restore_meta(stats, baseline);
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![1, 5, 5, 9])]);
        t.load_partition(1, &[ColumnData::Int(vec![3, 3, 4])]);
        t.propagate_all();
        t
    }

    fn roundtrip(idx: &PatchIndex, t: &Table) -> PatchIndex {
        PatchIndex::load_checkpoint_for(&idx.checkpoint_bytes(), t).unwrap()
    }

    #[test]
    fn checkpoint_roundtrip() {
        let t = table();
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let loaded = roundtrip(&idx, &t);
        assert_eq!(loaded.column(), 0);
        assert_eq!(loaded.constraint(), Constraint::NearlyUnique);
        assert_eq!(loaded.exception_count(), idx.exception_count());
        for pid in 0..2 {
            assert_eq!(
                loaded.partition(pid).store.patch_rids(),
                idx.partition(pid).store.patch_rids()
            );
        }
        loaded.check_consistency(&t);
    }

    #[test]
    fn checkpoint_preserves_nsc_anchor() {
        let t = table();
        let idx = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
        );
        let loaded = roundtrip(&idx, &t);
        assert_eq!(
            loaded.partition(0).last_sorted,
            idx.partition(0).last_sorted
        );
        assert_eq!(loaded.design(), Design::Identifier);
    }

    #[test]
    fn design_migrated_index_roundtrips() {
        // Created as Bitmap over clean data; the recompute migrates to
        // Identifier (exception rate 0 is below the crossover) and a
        // checkpoint round-trips the migrated design with byte accounting
        // intact.
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![1, 2, 3, 4])]);
        t.load_partition(1, &[ColumnData::Int(vec![5, 6, 7])]);
        t.propagate_all();
        let mut idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        idx.recompute(&t);
        assert_eq!(idx.design(), Design::Identifier);
        let loaded = roundtrip(&idx, &t);
        assert_eq!(loaded.design(), Design::Identifier);
        assert_eq!(loaded.memory_bytes(), idx.memory_bytes());
        for pid in 0..2 {
            assert_eq!(loaded.partition(pid).store.design(), Design::Identifier);
            assert_eq!(
                loaded.partition(pid).store.patch_rids(),
                idx.partition(pid).store.patch_rids()
            );
        }
        loaded.check_consistency(&t);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(PatchIndex::load_checkpoint_for(b"NOPE....", &table()).is_err());
    }

    #[test]
    fn bit_flip_anywhere_is_rejected() {
        let t = table();
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let clean = idx.checkpoint_bytes();
        PatchIndex::load_checkpoint_for(&clean, &t).unwrap();
        // Flipping any single bit past the version word must fail the
        // checksum (flips inside magic/version hit those checks first).
        for pos in [8, 13, 27, clean.len() / 2, clean.len() - 5, clean.len() - 1] {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x04;
            let err = PatchIndex::load_checkpoint_for(&corrupt, &t).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "pos {pos}");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let t = table();
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let clean = idx.checkpoint_bytes();
        for cut in [clean.len() - 1, clean.len() - 4, clean.len() / 2, 9] {
            assert!(
                PatchIndex::load_checkpoint_for(&clean[..cut], &t).is_err(),
                "cut {cut}"
            );
        }
    }

    /// Appends the CRC-32 trailer, so a doctored payload gets past the
    /// checksum and has to be caught by the parser itself.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        body
    }

    /// Rows of the one-partition table the hand-built images describe.
    const ROWS: u64 = 8;

    /// The unsealed payload of a NUC/Bitmap image over one partition of
    /// [`ROWS`] rows whose patch block claims `count` rowIDs and carries
    /// `rids`. Versions before 4 had no flag word.
    fn body(version: u32, count: u64, rids: &[u64]) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        put_u32(&mut b, version);
        put_u32(&mut b, 0); // column
        put_u32(&mut b, constraint_tag(Constraint::NearlyUnique));
        put_u32(&mut b, 0); // bitmap design
        if version >= 4 {
            put_u32(&mut b, GLOBALLY_DEDUPLICATED);
        }
        b.extend_from_slice(&[0u8; 7 * 8]); // stats, baseline
        put_u32(&mut b, 1); // partitions
        put_u64(&mut b, ROWS);
        put_u32(&mut b, 0); // no anchor
        put_u64(&mut b, count);
        for r in rids {
            put_u64(&mut b, *r);
        }
        b
    }

    /// [`body`] as a file of that version: versions before 5 had no trailer.
    fn image(version: u32, count: u64, rids: &[u64]) -> Vec<u8> {
        let b = body(version, count, rids);
        if version >= 5 {
            seal(b)
        } else {
            b
        }
    }

    fn load(bytes: &[u8]) -> io::Result<PatchIndex> {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            1,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int((0..ROWS as i64).collect())]);
        t.propagate_all();
        PatchIndex::load_checkpoint_for(bytes, &t)
    }

    fn rejected(bytes: &[u8]) -> String {
        let err = load(bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn trailing_garbage_is_rejected_even_on_legacy_versions() {
        let mut b = body(VERSION, 1, &[1]);
        load(&seal(b.clone())).unwrap();
        b.extend_from_slice(b"junk");
        let msg = rejected(&seal(b));
        assert!(msg.contains("trailing garbage"), "{msg}");
        // A legacy image is refused whole, whatever follows it.
        let mut legacy = image(3, 1, &[1]);
        legacy.extend_from_slice(b"junk");
        rejected(&legacy);
    }

    #[test]
    fn lying_counts_are_rejected_not_allocated() {
        // The patch count is a claim, checksummed or not: u64::MAX asked
        // `Vec::with_capacity` for a capacity overflow, 2^40 for 8 TiB.
        for count in [u64::MAX, 1 << 40, 2] {
            let msg = rejected(&image(VERSION, count, &[1]));
            assert!(msg.contains("patch count"), "{msg}");
        }
        // Same for the partition count.
        let mut b = body(VERSION, 1, &[1]);
        let nparts_at = 8 + 4 * 4 + 7 * 8;
        b[nparts_at..nparts_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let msg = rejected(&seal(b));
        assert!(msg.contains("partition count"), "{msg}");
        // An unsealed legacy image never gets as far as its counts.
        let msg = rejected(&image(3, u64::MAX, &[1]));
        assert!(msg.contains("unsupported checkpoint version 3"), "{msg}");
    }

    #[test]
    fn patch_rowid_outside_its_partition_is_rejected() {
        load(&image(VERSION, 2, &[1, 7])).unwrap();
        let msg = rejected(&image(VERSION, 2, &[1, 8]));
        assert!(msg.contains("rowID 8"), "{msg}");
    }

    #[test]
    fn other_versions_and_flag_words_are_rejected() {
        for version in [2, 3, 4, 5, 7] {
            let msg = rejected(&image(version, 1, &[1]));
            assert!(
                msg.contains(&format!("unsupported checkpoint version {version}")),
                "{msg}"
            );
        }
        let mut b = body(VERSION, 1, &[1]);
        b[20..24].copy_from_slice(&0u32.to_le_bytes());
        let msg = rejected(&seal(b));
        assert!(msg.contains("globally deduplicated"), "{msg}");
    }
}
