//! Small pieces every workload needs: a seeded generator, an FNV hash of
//! the op sequence, `/proc` readers, the scratch directory and the
//! in-memory file system `ingest_durable` writes to.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pi_storage::DurableFs;

/// xorshift64* — the benchmark's only source of randomness, so the same
/// `--seed` gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // SplitMix64 step: spreads small seeds (1, 2, ...) over the state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next() >> 11) as u128 * n as u128) >> 53) as u64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// `k` distinct values in `lo..hi`, ascending.
    pub fn distinct_sorted(&mut self, k: usize, lo: usize, hi: usize) -> Vec<usize> {
        assert!(hi - lo >= k, "cannot draw {k} distinct from {}", hi - lo);
        let mut out = std::collections::BTreeSet::new();
        while out.len() < k {
            out.insert(lo + self.below((hi - lo) as u64) as usize);
        }
        out.into_iter().collect()
    }
}

/// FNV-1a over the op sequence a run issued (kinds and parameters).
#[derive(Debug, Clone, Copy)]
pub struct OpHash(pub u64);

impl Default for OpHash {
    fn default() -> Self {
        OpHash(0xcbf2_9ce4_8422_2325)
    }
}

impl OpHash {
    pub fn feed(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn proc_field(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// CPU milliseconds (user + system) of this process, all threads, from
/// `/proc/self/stat` (10 ms ticks).
pub fn cpu_ms() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so 12th and 13th after ") ".
    let Some(rest) = text.rsplit_once(") ").map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 10.0
}

/// Where trace files and temp dirs go: a directory beside the
/// executable, i.e. inside the build directory, which is inside the
/// checkout.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .unwrap_or(exe.as_path())
        .join("pibench-scratch")
}

/// Removes the directory when dropped, so a failed audit cleans up too.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn fresh(tag: &str) -> TempDir {
        let dir = scratch_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `DurableFs` that keeps its files in memory and frees what is removed.
/// `ingest_durable` writes through it: what the durability layer does to
/// make a write durable — framing, checksums, serialising a checkpoint,
/// copying the bytes out — is all still paid, what the sandbox's shared
/// disk adds on top is not. That part is not the program's, and it is the
/// noisiest thing on the box (one 13 MB checkpoint: 15-55 ms from one
/// minute to the next). `fsync` has nothing to wait for.
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemFs {
    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.files.lock().expect("no file operation panics")
    }

    /// A copy that shares nothing with `self`: what a crash right now
    /// would leave behind, every byte being durable once written.
    pub fn copy(&self) -> MemFs {
        MemFs {
            files: Mutex::new(self.files().clone()),
        }
    }

    /// Bytes in all files.
    pub fn bytes(&self) -> u64 {
        self.files().values().map(|f| f.len() as u64).sum()
    }
}

impl DurableFs for MemFs {
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if self.exists(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let data = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn fsync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.files().contains_key(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .files()
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}
