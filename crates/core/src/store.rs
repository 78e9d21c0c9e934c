//! Physical patch-set storage: the bitmap-based and identifier-based design
//! approaches (paper, Section 3.2).

use pi_bitmap::{BulkDeleteMode, ShardedBitmap};
use pi_exec::ops::patch_select::PatchLookup;
use pi_storage::merge_disjoint;

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
                ids.shrink_to_fit();
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
                let mut new = rids.to_vec();
                new.sort_unstable();
                new.dedup();
                new.retain(|r| ids.binary_search(r).is_err());
                ids.reserve_exact(new.len());
                merge_disjoint(ids, &new);
            }
        }
    }

    /// Applies a table delete: `deleted` (any order, pre-delete rowIDs)
    /// disappear and all subsequent rowIDs shift down. The bitmap uses its
    /// bulk delete, which decides itself whether the affected shards are
    /// worth a second thread and when to condense; the identifier list
    /// drops deleted ids and decrements each remaining id by the number
    /// of smaller deleted rowIDs (paper, Section 5.3), counted by one
    /// cursor over the sorted deletes.
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
                // `k` counts the deleted rowIDs below the current id.
                let mut k = 0;
                ids.retain_mut(|id| {
                    while k < sorted.len() && sorted[k] < *id {
                        k += 1;
                    }
                    if sorted.get(k) == Some(id) {
                        return false; // the patch itself was deleted
                    }
                    *id -= k as u64;
                    true
                });
                ids.shrink_to_fit();
                *nrows -= sorted.len() as u64;
            }
        }
    }

    /// Heap bytes used by the store, at capacity. Both designs hold what
    /// the paper's Table 3 prices: the bitmap `t / 8` plus at most 32 bytes
    /// per shard, the identifier list exactly 8 bytes per patch (`ids` is
    /// kept at capacity equal to length).
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
    fn random_adds_and_deletes_keep_both_designs_identical() {
        let mut state = 52u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut stores = both(200, &[7, 50, 120]);
        for _ in 0..300 {
            let nrows = stores[0].nrows();
            let k = 1 + below(12);
            if below(3) == 0 && nrows > 20 {
                let dels: Vec<u64> = (0..k).map(|_| below(nrows)).collect();
                stores.iter_mut().for_each(|s| s.on_delete(&dels));
            } else {
                let grow = below(2) * k;
                // Patches anywhere, or on the freshly appended rows.
                let rids: Vec<u64> = (0..k)
                    .map(|_| match grow {
                        0 => below(nrows),
                        _ => nrows + below(grow),
                    })
                    .collect();
                for s in &mut stores {
                    s.extend_rows(grow);
                    s.add_patches(&rids);
                }
            }
            assert_eq!(stores[0].nrows(), stores[1].nrows());
            assert_eq!(stores[0].patch_rids(), stores[1].patch_rids());
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

    /// Both designs hold what Table 3 prices them at, through appends,
    /// deletes and added patches: the bitmap `t / 8` plus at most 32 bytes
    /// per shard, the identifier list exactly 8 bytes per patch.
    #[test]
    fn stores_hold_the_table3_model() {
        let patches: Vec<u64> = (0..100_000).step_by(50).collect();
        let check = |store: &PatchStore| match store {
            PatchStore::Bitmap(bm) => {
                let model = store.nrows() as usize / 8 + 32 * bm.shard_count();
                assert!(
                    store.memory_bytes() <= model,
                    "{} B > {model} B",
                    store.memory_bytes()
                );
            }
            PatchStore::Identifier { ids, .. } => {
                assert_eq!(store.memory_bytes(), 8 * ids.len());
            }
        };
        for mut store in both(100_000, &patches) {
            check(&store);
            for round in 0..20u64 {
                let nrows = store.nrows();
                store.extend_rows(3_000 + round);
                store.add_patches(&(nrows..nrows + 3_000).step_by(7).collect::<Vec<_>>());
                check(&store);
                store.on_delete(&(0..nrows).step_by(40 + round as usize).collect::<Vec<_>>());
                check(&store);
                store.add_patches(&[round * 11, nrows / 2 + round]);
                check(&store);
            }
        }
    }
}
