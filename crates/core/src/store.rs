//! Physical patch-set storage: the bitmap-based and identifier-based design
//! approaches (paper, Section 3.2).

use pi_bitmap::{BulkDeleteMode, ShardedBitmap};
use pi_exec::ops::patch_select::PatchLookup;

use crate::constraint::Design;

/// Patch storage for one partition.
#[derive(Debug, Clone)]
pub enum PatchStore {
    /// Dense: one bit per tuple of the indexed column.
    Bitmap(ShardedBitmap),
    /// Sparse: sorted 64-bit rowIDs of the patches.
    Identifier {
        /// Sorted patch rowIDs.
        ids: Vec<u64>,
        /// Tuples covered (tracked explicitly; the bitmap encodes this in
        /// its length).
        nrows: u64,
    },
}

impl PatchStore {
    /// Creates a store over `nrows` tuples with the given (sorted or
    /// unsorted) patch rowIDs.
    pub fn new(design: Design, nrows: u64, patches: &[u64]) -> Self {
        match design {
            Design::Bitmap => PatchStore::Bitmap(ShardedBitmap::from_positions(nrows, patches)),
            Design::Identifier => {
                let mut ids = patches.to_vec();
                ids.sort_unstable();
                ids.dedup();
                PatchStore::Identifier { ids, nrows }
            }
        }
    }

    /// The design this store implements.
    pub fn design(&self) -> Design {
        match self {
            PatchStore::Bitmap(_) => Design::Bitmap,
            PatchStore::Identifier { .. } => Design::Identifier,
        }
    }

    /// Tuples covered by the index.
    pub fn nrows(&self) -> u64 {
        match self {
            PatchStore::Bitmap(bm) => bm.len(),
            PatchStore::Identifier { nrows, .. } => *nrows,
        }
    }

    /// Number of patches.
    pub fn patch_count(&self) -> u64 {
        match self {
            PatchStore::Bitmap(bm) => bm.count_ones(),
            PatchStore::Identifier { ids, .. } => ids.len() as u64,
        }
    }

    /// Whether `rid` is a patch.
    pub fn contains(&self, rid: u64) -> bool {
        match self {
            PatchStore::Bitmap(bm) => bm.get(rid),
            PatchStore::Identifier { ids, .. } => ids.binary_search(&rid).is_ok(),
        }
    }

    /// Lookup handle for the PatchIndex selection operator.
    pub fn as_lookup(&self) -> &dyn PatchLookup {
        match self {
            PatchStore::Bitmap(bm) => bm,
            PatchStore::Identifier { ids, .. } => ids as &dyn PatchLookup,
        }
    }

    /// All patch rowIDs, ascending.
    pub fn patch_rids(&self) -> Vec<u64> {
        match self {
            PatchStore::Bitmap(bm) => bm.iter_ones().collect(),
            PatchStore::Identifier { ids, .. } => ids.clone(),
        }
    }

    /// Extends coverage by `n` freshly appended tuples (bitmap resize /
    /// plain counter bump) — insert handling step one.
    pub fn extend_rows(&mut self, n: u64) {
        match self {
            PatchStore::Bitmap(bm) => bm.append_zeros(n),
            PatchStore::Identifier { nrows, .. } => *nrows += n,
        }
    }

    /// Marks additional rowIDs as patches (merging into the existing set).
    pub fn add_patches(&mut self, rids: &[u64]) {
        match self {
            PatchStore::Bitmap(bm) => {
                for &r in rids {
                    bm.set(r);
                }
            }
            PatchStore::Identifier { ids, .. } => {
                ids.extend_from_slice(rids);
                ids.sort_unstable();
                ids.dedup();
            }
        }
    }

    /// Applies a table delete: `deleted` (any order, pre-delete rowIDs)
    /// disappear and all subsequent rowIDs shift down. The bitmap uses its
    /// bulk delete, which decides itself whether the affected shards are
    /// worth a second thread and when to condense; the identifier list
    /// drops deleted ids and decrements each remaining id by the number
    /// of smaller deleted rowIDs (paper, Section 5.3).
    pub fn on_delete(&mut self, deleted: &[u64]) {
        if deleted.is_empty() {
            return;
        }
        match self {
            PatchStore::Bitmap(bm) => bm.bulk_delete(deleted, BulkDeleteMode::default()),
            PatchStore::Identifier { ids, nrows } => {
                let mut sorted = deleted.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                let mut out = Vec::with_capacity(ids.len());
                for &id in ids.iter() {
                    // Number of deleted rowIDs <= id.
                    let k = sorted.partition_point(|&d| d <= id);
                    if k > 0 && sorted[k - 1] == id {
                        continue; // the patch itself was deleted
                    }
                    out.push(id - k as u64);
                }
                *ids = out;
                *nrows -= sorted.len() as u64;
            }
        }
    }

    /// Heap bytes used by the store.
    pub fn memory_bytes(&self) -> usize {
        match self {
            PatchStore::Bitmap(bm) => bm.memory_bytes(),
            PatchStore::Identifier { ids, .. } => ids.capacity() * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(nrows: u64, patches: &[u64]) -> [PatchStore; 2] {
        [
            PatchStore::new(Design::Bitmap, nrows, patches),
            PatchStore::new(Design::Identifier, nrows, patches),
        ]
    }

    #[test]
    fn creation_and_lookup() {
        for store in both(100, &[3, 50, 99]) {
            assert_eq!(store.nrows(), 100);
            assert_eq!(store.patch_count(), 3);
            assert!(store.contains(50));
            assert!(!store.contains(51));
            assert_eq!(store.patch_rids(), vec![3, 50, 99]);
        }
    }

    #[test]
    fn extend_and_add() {
        for mut store in both(10, &[2]) {
            store.extend_rows(5);
            assert_eq!(store.nrows(), 15);
            store.add_patches(&[12, 14, 2]);
            assert_eq!(store.patch_rids(), vec![2, 12, 14]);
        }
    }

    #[test]
    fn delete_shifts_both_designs_identically() {
        for mut store in both(20, &[0, 5, 10, 19]) {
            // Delete rows 3 (unpatched), 5 (a patch) and 12 (unpatched).
            store.on_delete(&[3, 5, 12]);
            assert_eq!(store.nrows(), 17);
            // 0 stays; 10 -> 8 (two deletes below); 19 -> 16 (three below).
            assert_eq!(store.patch_rids(), vec![0, 8, 16]);
        }
    }

    #[test]
    fn delete_unsorted_input() {
        for mut store in both(10, &[4, 9]) {
            store.on_delete(&[8, 1]);
            assert_eq!(store.patch_rids(), vec![3, 7]);
        }
    }

    #[test]
    fn designs_report_correctly() {
        let [b, i] = both(10, &[]);
        assert_eq!(b.design(), Design::Bitmap);
        assert_eq!(i.design(), Design::Identifier);
    }

    #[test]
    fn memory_crossover_matches_paper() {
        // Paper, Section 3.2: the bitmap wins for e >= 1/64.
        let n = 1_000_000u64;
        let low_e: Vec<u64> = (0..n / 1000).collect(); // e = 0.1%
        let high_e: Vec<u64> = (0..n / 10).collect(); // e = 10%
        let [b_low, i_low] = both(n, &low_e);
        let [b_high, i_high] = both(n, &high_e);
        assert!(i_low.memory_bytes() < b_low.memory_bytes());
        assert!(b_high.memory_bytes() < i_high.memory_bytes());
    }
}
