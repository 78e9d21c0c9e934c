//! Durable filesystem abstraction with a crash-simulating failpoint
//! implementation.
//!
//! Every byte the durability subsystem writes — WAL records, checkpoint
//! files, manifests — goes through the [`DurableFs`] trait, so the same
//! code runs against the real filesystem ([`RealFs`]) in production and
//! against the in-memory [`SimFs`] under fault injection. `SimFs` models
//! exactly the crash semantics a POSIX filesystem gives you:
//!
//! * written bytes live in a volatile page cache until `fsync`;
//! * a crash keeps an arbitrary *prefix* of each file's unsynced tail
//!   (torn write), possibly with flipped bits in the torn region;
//! * file creations, renames and removals are directory-namespace
//!   operations that only become durable at `fsync_dir` — until then a
//!   crash may keep or revert each one independently.
//!
//! The failpoint fuse ([`SimFs::set_fuse`]) makes the *k*-th mutating
//! operation (and everything after it) fail, which is how the recovery
//! property test enumerates every write/fsync boundary of a workload.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// Filesystem operations the durability layer relies on. All paths are
/// interpreted by the implementation ([`RealFs`] against the OS, [`SimFs`]
/// against its in-memory namespace).
pub trait DurableFs: Send + Sync + fmt::Debug {
    /// Appends `data` to `path`, creating the file if absent. The bytes
    /// are *not* durable until [`DurableFs::fsync`]; a new file's *name*
    /// is not durable until [`DurableFs::fsync_dir`] on its parent.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Forces `path`'s written content to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (replacing `to` if it exists).
    /// Durable only after [`DurableFs::fsync_dir`] on the parent.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Forces the directory's namespace (creations, renames, removals)
    /// to stable storage.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Reads the full content of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Removes `path`. Removal is durable after
    /// [`DurableFs::fsync_dir`].
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Whether `path` currently exists.
    fn exists(&self, path: &Path) -> bool;

    /// The files directly inside `dir`, sorted by name.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// Writes `bytes` to `path` atomically: tmp file + fsync + rename +
/// parent-directory fsync. After a crash at any interior point the old
/// content of `path` (or its absence) is still intact; after the final
/// fsync the new content is durable.
pub fn write_atomic(fs: &dyn DurableFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if fs.exists(&tmp) {
        fs.remove(&tmp)?;
    }
    fs.append(&tmp, bytes)?;
    fs.fsync(&tmp)?;
    fs.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        fs.fsync_dir(dir)?;
    }
    Ok(())
}

// ------------------------------------------------------------------ RealFs

/// The production implementation: plain `std::fs` with real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl DurableFs for RealFs {
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(data)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Windows cannot open directories as files; directory fsync is a
        // POSIX-ism and a no-op there.
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .map(|e| e.path())
            .collect();
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

// ------------------------------------------------------------------- SimFs

/// An in-memory file.
#[derive(Debug, Clone, Default)]
struct Inode {
    data: Vec<u8>,
    /// Bytes guaranteed durable (prefix length); the rest is page cache.
    synced: usize,
}

#[derive(Debug, Default)]
struct SimState {
    /// The live namespace (what the process sees).
    cur: BTreeMap<PathBuf, u64>,
    /// The durable namespace (what survives a crash).
    dur: BTreeMap<PathBuf, u64>,
    inodes: HashMap<u64, Inode>,
    next_id: u64,
    /// Mutating ops executed so far (monotonic across crashes).
    ops: u64,
    /// Mutating ops allowed before every further one fails.
    fuse: Option<u64>,
    tripped: bool,
}

/// Crash-simulating in-memory filesystem (the failpoint fs).
///
/// Clone-cheap handle (`Arc` inside): the workload under test and the
/// test harness share one instance. Drive a crash experiment with
/// [`SimFs::set_fuse`] → run workload until an op fails →
/// [`SimFs::crash`] → run recovery against the same handle.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    inner: Arc<Mutex<SimState>>,
}

/// A deterministic xorshift generator for crash-state randomization —
/// private so `pi-storage` needs no rand dependency.
struct XorShift(u64);

impl XorShift {
    /// Seeds through a splitmix64 step so nearby seeds give unrelated
    /// streams (raw xorshift has degenerate low bits for small seeds).
    fn seeded(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            (self.next() >> 24) % bound
        }
    }
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash (SimFs fuse tripped)")
}

impl SimFs {
    /// A fresh, empty filesystem with no fuse armed.
    pub fn new() -> Self {
        SimFs::default()
    }

    /// Arms the failpoint: the next `ops` mutating operations (append /
    /// fsync / rename / fsync_dir / remove) succeed, every one after
    /// that fails with a "simulated crash" error. Counting starts from
    /// now, not from filesystem creation. `None` disarms.
    pub fn set_fuse(&self, ops: Option<u64>) {
        let mut s = self.inner.lock();
        let base = s.ops;
        s.fuse = ops.map(|n| base + n);
        s.tripped = false;
    }

    /// Mutating operations executed so far (sweeping crash points runs
    /// the workload once unfused to learn this total).
    pub fn ops(&self) -> u64 {
        self.inner.lock().ops
    }

    /// Whether the fuse has tripped (some operation already failed).
    pub fn tripped(&self) -> bool {
        self.inner.lock().tripped
    }

    /// Simulates the machine dying and rebooting: unsynced file tails
    /// survive only as a `seed`-random prefix (occasionally with a bit
    /// flipped — torn-sector garbage), and each namespace change not yet
    /// committed by `fsync_dir` independently survives or reverts. The
    /// fuse is disarmed so recovery code can run against the survivor
    /// state.
    pub fn crash(&self, seed: u64) {
        let mut s = self.inner.lock();
        let mut rng = XorShift::seeded(seed);
        // Resolve the namespace first: every divergent path keeps either
        // its durable or its live binding.
        let mut resolved: BTreeMap<PathBuf, u64> = BTreeMap::new();
        let paths: Vec<PathBuf> = s.cur.keys().chain(s.dur.keys()).cloned().collect();
        for path in paths {
            if resolved.contains_key(&path) {
                continue;
            }
            let cur = s.cur.get(&path).copied();
            let dur = s.dur.get(&path).copied();
            let keep = if cur == dur || rng.below(2) == 0 {
                cur
            } else {
                dur
            };
            if let Some(id) = keep {
                resolved.insert(path, id);
            }
        }
        // Tear unsynced tails of surviving inodes.
        let live: std::collections::HashSet<u64> = resolved.values().copied().collect();
        s.inodes.retain(|id, _| live.contains(id));
        for inode in s.inodes.values_mut() {
            let unsynced = inode.data.len() - inode.synced;
            let keep = inode.synced + rng.below(unsynced as u64 + 1) as usize;
            inode.data.truncate(keep);
            if keep > inode.synced && rng.below(8) == 0 {
                // A torn sector: flip one bit somewhere in the torn tail.
                let pos = inode.synced + rng.below((keep - inode.synced) as u64) as usize;
                inode.data[pos] ^= 1 << rng.below(8);
            }
            inode.synced = inode.data.len();
        }
        s.cur = resolved.clone();
        s.dur = resolved;
        s.fuse = None;
        s.tripped = false;
    }

    /// Flips one bit of `path` at byte `offset` in place (both the live
    /// and durable image) — targeted corruption for checksum tests.
    pub fn flip_bit(&self, path: &Path, offset: usize, bit: u8) {
        let mut s = self.inner.lock();
        let id = *s.cur.get(path).expect("flip_bit: no such file");
        let inode = s.inodes.get_mut(&id).expect("dangling inode");
        inode.data[offset] ^= 1 << (bit % 8);
    }

    /// The current length of `path`, if it exists.
    pub fn len(&self, path: &Path) -> Option<usize> {
        let s = self.inner.lock();
        let id = s.cur.get(path)?;
        Some(s.inodes[id].data.len())
    }

    fn charge(s: &mut SimState) -> io::Result<()> {
        s.ops += 1;
        if s.tripped {
            return Err(crash_error());
        }
        if let Some(limit) = s.fuse {
            if s.ops > limit {
                s.tripped = true;
                return Err(crash_error());
            }
        }
        Ok(())
    }
}

impl DurableFs for SimFs {
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.inner.lock();
        Self::charge(&mut s)?;
        let id = match s.cur.get(path) {
            Some(&id) => id,
            None => {
                let id = s.next_id;
                s.next_id += 1;
                s.inodes.insert(id, Inode::default());
                s.cur.insert(path.to_path_buf(), id);
                id
            }
        };
        s.inodes
            .get_mut(&id)
            .expect("dangling inode")
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut s = self.inner.lock();
        Self::charge(&mut s)?;
        let id = *s
            .cur
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fsync: no such file"))?;
        let inode = s.inodes.get_mut(&id).expect("dangling inode");
        inode.synced = inode.data.len();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.inner.lock();
        Self::charge(&mut s)?;
        let id = s
            .cur
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "rename: no such file"))?;
        s.cur.insert(to.to_path_buf(), id);
        Ok(())
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.inner.lock();
        Self::charge(&mut s)?;
        // Commit the namespace of this directory: durable bindings for
        // its direct children become the live ones.
        let in_dir = |p: &Path| p.parent() == Some(dir);
        let committed: Vec<(PathBuf, Option<u64>)> = s
            .cur
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, &id)| (p.clone(), Some(id)))
            .chain(
                s.dur
                    .keys()
                    .filter(|p| in_dir(p) && !s.cur.contains_key(*p))
                    .map(|p| (p.clone(), None))
                    .collect::<Vec<_>>(),
            )
            .collect();
        for (path, id) in committed {
            match id {
                Some(id) => {
                    s.dur.insert(path, id);
                }
                None => {
                    s.dur.remove(&path);
                }
            }
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.inner.lock();
        let id = s
            .cur
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "read: no such file"))?;
        Ok(s.inodes[id].data.clone())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut s = self.inner.lock();
        Self::charge(&mut s)?;
        s.cur
            .remove(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "remove: no such file"))?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.lock().cur.contains_key(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.inner.lock();
        Ok(s.cur
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        // Directories are implicit in the path map.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn append_read_roundtrip() {
        let fs = SimFs::new();
        fs.append(&p("/d/a"), b"hel").unwrap();
        fs.append(&p("/d/a"), b"lo").unwrap();
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"hello");
        assert!(fs.exists(&p("/d/a")));
        assert!(!fs.exists(&p("/d/b")));
    }

    #[test]
    fn crash_drops_unsynced_tail_but_keeps_synced_prefix() {
        let fs = SimFs::new();
        fs.append(&p("/d/a"), b"durable").unwrap();
        fs.fsync(&p("/d/a")).unwrap();
        fs.fsync_dir(&p("/d")).unwrap();
        fs.append(&p("/d/a"), b" volatile").unwrap();
        fs.crash(7);
        let data = fs.read(&p("/d/a")).unwrap();
        assert!(data.starts_with(b"durable") || data[..7] != *b"durable" && data.len() > 7);
        // The synced prefix always survives byte-exact.
        assert!(data.len() >= 7);
        assert!(data.len() <= "durable volatile".len());
    }

    #[test]
    fn crash_may_revert_uncommitted_rename() {
        // Deterministically probe both outcomes across seeds.
        let mut kept_new = false;
        let mut kept_old = false;
        for seed in 0..32 {
            let fs = SimFs::new();
            fs.append(&p("/d/f"), b"old").unwrap();
            fs.fsync(&p("/d/f")).unwrap();
            fs.fsync_dir(&p("/d")).unwrap();
            fs.append(&p("/d/f.tmp"), b"new").unwrap();
            fs.fsync(&p("/d/f.tmp")).unwrap();
            fs.rename(&p("/d/f.tmp"), &p("/d/f")).unwrap();
            // No fsync_dir: the rename is not durable yet.
            fs.crash(seed);
            match fs.read(&p("/d/f")).unwrap().as_slice() {
                b"new" => kept_new = true,
                b"old" => kept_old = true,
                other => panic!("file must hold one full version, got {other:?}"),
            }
        }
        assert!(
            kept_new && kept_old,
            "both crash outcomes must be reachable"
        );
    }

    #[test]
    fn committed_rename_survives_every_crash() {
        for seed in 0..16 {
            let fs = SimFs::new();
            fs.append(&p("/d/f"), b"old").unwrap();
            fs.fsync(&p("/d/f")).unwrap();
            fs.fsync_dir(&p("/d")).unwrap();
            write_atomic(&fs, &p("/d/f"), b"new").unwrap();
            fs.crash(seed);
            assert_eq!(fs.read(&p("/d/f")).unwrap(), b"new");
        }
    }

    /// Overwriting with the fuse tripping at every IO boundary: after
    /// every crash the file holds one complete version, the old or the
    /// new one, and only the new one once `write_atomic` returned `Ok`.
    #[test]
    fn write_atomic_survives_a_crash_at_every_io_boundary() {
        let mut saw_failure = false;
        for fuse in 1..12 {
            for seed in 0..6 {
                let fs = SimFs::new();
                write_atomic(&fs, &p("/d/f"), b"old").unwrap();
                fs.set_fuse(Some(fuse));
                let wrote = write_atomic(&fs, &p("/d/f"), b"new");
                saw_failure |= wrote.is_err();
                fs.crash(fuse * 1000 + seed);
                match fs.read(&p("/d/f")).unwrap().as_slice() {
                    b"new" => {}
                    b"old" => assert!(wrote.is_err(), "fuse {fuse}: a committed write reverted"),
                    other => panic!("fuse {fuse}: torn file {other:?}"),
                }
            }
        }
        assert!(saw_failure, "fuse range must cover actual crash points");
    }

    #[test]
    fn fuse_trips_exactly_at_the_limit() {
        let fs = SimFs::new();
        fs.set_fuse(Some(2));
        fs.append(&p("/a"), b"1").unwrap();
        fs.append(&p("/a"), b"2").unwrap();
        assert!(fs.append(&p("/a"), b"3").is_err());
        assert!(fs.tripped());
        // Sticky: everything keeps failing until crash() resets.
        assert!(fs.fsync(&p("/a")).is_err());
        fs.crash(1);
        assert!(!fs.tripped());
        fs.append(&p("/a"), b"4").unwrap();
    }

    #[test]
    fn flip_bit_corrupts_in_place() {
        let fs = SimFs::new();
        fs.append(&p("/a"), b"\x00\x00").unwrap();
        fs.flip_bit(&p("/a"), 1, 3);
        assert_eq!(fs.read(&p("/a")).unwrap(), vec![0x00, 0x08]);
    }

    #[test]
    fn real_fs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pi_dfs_{}", std::process::id()));
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        let file = dir.join("x");
        let _ = fs.remove(&file);
        fs.append(&file, b"ab").unwrap();
        fs.append(&file, b"cd").unwrap();
        fs.fsync(&file).unwrap();
        assert_eq!(fs.read(&file).unwrap(), b"abcd");
        write_atomic(&fs, &file, b"replaced").unwrap();
        assert_eq!(fs.read(&file).unwrap(), b"replaced");
        assert_eq!(fs.list(&dir).unwrap(), vec![file.clone()]);
        fs.remove(&file).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
