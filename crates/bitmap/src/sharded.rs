//! The sharded bitmap (paper, Section 4).
//!
//! An ordinary bitmap is virtually divided into fixed-size *shards*. Each
//! shard additionally stores the logical index of its first bit (the *start
//! value*, akin to UpBit's fence pointers). Deleting a bit then only shifts
//! bits inside one shard; the start values of all subsequent shards are
//! decremented instead of moving their data.
//!
//! The price is one "lost" bit slot at the end of the affected shard per
//! delete (capacity the shard can no longer address). A lost slot costs
//! addressing, not memory: every shard is its own allocation of exactly the
//! words its valid bits need, so a delete that frees a word gives it back,
//! and the bitmap holds about `len / 8` bytes plus one pointer and one start
//! value per shard (the paper's Table 3). The [`ShardedBitmap::condense`]
//! operation re-packs shards to restore addressing. The bitmap runs it
//! itself (Section 4.2.4): after every public operation it holds fewer
//! than twice the shards its bits need, or at most one shard.

use crate::bitcopy::{copy_bits, remove_bits};
use crate::simd::ShiftKernel;

/// How a bulk delete distributes work (paper, Section 4.2.3 / Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BulkDeleteMode {
    /// One shard at a time on the calling thread, scalar shift kernel.
    Sequential,
    /// Affected shards spread over worker threads, scalar shift kernel.
    Parallel,
    /// Affected shards spread over worker threads, vectorized shift kernel.
    #[default]
    ParallelVectorized,
}

/// Dense bitmap with virtual shards, efficient deletes and condense support.
///
/// Logical positions are `0..len()`. Deleting position `p` removes that bit
/// entirely: every subsequent bit moves one position down, exactly like
/// removing an element from a vector (Figure 3 of the paper: after deleting
/// bit 5, the old bit 26 answers queries for position 25).
#[derive(Debug, Clone)]
pub struct ShardedBitmap {
    /// `shards[s]` holds shard `s`'s valid bits in exactly
    /// `ceil(valid / 64)` words; the bits past `valid` in its last word are
    /// zero. The list has no spare capacity.
    shards: Vec<Box<[u64]>>,
    /// `starts[s]` = logical index of the first bit held by shard `s`. No
    /// spare capacity either.
    starts: Vec<u64>,
    /// log2 of the shard size in bits.
    shard_bits_log2: u32,
    /// Total number of logical bits.
    logical_len: u64,
}

/// Default shard size: the optimum determined in Figure 6 of the paper.
pub const DEFAULT_SHARD_BITS: usize = 1 << 14;

/// Fewest affected shards a bulk delete hands to one worker: starting a
/// thread costs about as much as compacting a few dozen default-size
/// shards, so below this the calling thread does the work alone.
const MIN_SHARDS_PER_WORKER: usize = 32;

/// Words that hold `bits` bits.
#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// An all-zero shard of exactly the words `bits` bits need.
fn zero_shard(bits: usize) -> Box<[u64]> {
    vec![0; words_for(bits)].into_boxed_slice()
}

/// Re-sizes `shard` to exactly the words `bits` bits need: new words are
/// zero, and dropped words must already be zero. At most one reallocation,
/// and none when the word count stays.
fn fit_shard(shard: &mut Box<[u64]>, bits: usize) {
    let words = words_for(bits);
    if shard.len() == words {
        return;
    }
    let mut v = std::mem::take(shard).into_vec();
    v.reserve_exact(words.saturating_sub(v.len()));
    v.resize(words, 0);
    *shard = v.into_boxed_slice();
}

impl ShardedBitmap {
    /// Creates an all-zero sharded bitmap of `len` bits with the default
    /// 2^14-bit shard size.
    pub fn new(len: u64) -> Self {
        Self::with_shard_bits(len, DEFAULT_SHARD_BITS)
    }

    /// Creates an all-zero bitmap with a specific shard size.
    ///
    /// # Panics
    /// Panics unless `shard_bits` is a power of two and at least 64.
    pub fn with_shard_bits(len: u64, shard_bits: usize) -> Self {
        assert!(
            shard_bits.is_power_of_two() && shard_bits >= 64,
            "shard size must be a power of two >= 64, got {shard_bits}"
        );
        let log2 = shard_bits.trailing_zeros();
        let nshards = len.div_ceil(shard_bits as u64);
        ShardedBitmap {
            shards: (0..nshards)
                .map(|s| zero_shard((len - (s << log2)).min(shard_bits as u64) as usize))
                .collect(),
            starts: (0..nshards).map(|s| s << log2).collect(),
            shard_bits_log2: log2,
            logical_len: len,
        }
    }

    /// Builds a bitmap with exactly the given positions set.
    pub fn from_positions(len: u64, positions: &[u64]) -> Self {
        let mut bm = Self::new(len);
        for &p in positions {
            bm.set(p);
        }
        bm
    }

    /// Shard size in bits.
    #[inline]
    pub fn shard_bits(&self) -> usize {
        1usize << self.shard_bits_log2
    }

    /// Number of shards currently allocated.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.starts.len()
    }

    /// Number of logical bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.logical_len
    }

    /// Whether the bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.logical_len == 0
    }

    /// Logical index one past the last bit of shard `s`.
    #[inline]
    fn shard_end(&self, s: usize) -> u64 {
        if s + 1 < self.starts.len() {
            self.starts[s + 1]
        } else {
            self.logical_len
        }
    }

    /// Number of valid bits currently held by shard `s`.
    #[inline]
    fn shard_valid(&self, s: usize) -> usize {
        (self.shard_end(s) - self.starts[s]) as usize
    }

    /// Locates the shard containing logical position `p` (Section 4.2.1):
    /// a bit shift produces a lower-bound guess, then start values of
    /// upcoming shards are compared to account for previous deletes.
    #[inline]
    fn find_shard(&self, p: u64) -> usize {
        debug_assert!(
            p < self.logical_len,
            "bit {p} out of bounds (len {})",
            self.logical_len
        );
        let mut s = ((p >> self.shard_bits_log2) as usize).min(self.starts.len() - 1);
        while s + 1 < self.starts.len() && self.starts[s + 1] <= p {
            s += 1;
        }
        debug_assert!(self.starts[s] <= p);
        s
    }

    /// The shard holding logical position `p` and the bit's offset in it.
    #[inline]
    fn locate(&self, p: u64) -> (usize, usize) {
        assert!(
            p < self.logical_len,
            "bit {p} out of bounds (len {})",
            self.logical_len
        );
        let s = self.find_shard(p);
        (s, (p - self.starts[s]) as usize)
    }

    /// Returns the bit at logical position `p`.
    #[inline]
    pub fn get(&self, p: u64) -> bool {
        let (s, bit) = self.locate(p);
        self.shards[s][bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Sets the bit at logical position `p`.
    #[inline]
    pub fn set(&mut self, p: u64) {
        let (s, bit) = self.locate(p);
        self.shards[s][bit / 64] |= 1 << (bit % 64);
    }

    /// Clears the bit at logical position `p`.
    #[inline]
    pub fn unset(&mut self, p: u64) {
        let (s, bit) = self.locate(p);
        self.shards[s][bit / 64] &= !(1 << (bit % 64));
    }

    /// Extends the bitmap by `n` zero bits. Appended bits fill the spare
    /// slots of the final shard, which grows to the words they need, before
    /// new exact shards open, so one append reallocates at most one shard
    /// and resizing after a table insert is `O(n / 64)`.
    pub fn append_zeros(&mut self, n: u64) {
        let shard_bits = self.shard_bits() as u64;
        let mut remaining = n;
        if let Some(last) = self.starts.len().checked_sub(1) {
            let valid = self.shard_valid(last) as u64;
            let take = (shard_bits - valid).min(remaining);
            fit_shard(&mut self.shards[last], (valid + take) as usize);
            self.logical_len += take;
            remaining -= take;
        }
        let opened = remaining.div_ceil(shard_bits) as usize;
        self.shards.reserve_exact(opened);
        self.starts.reserve_exact(opened);
        while remaining > 0 {
            let take = shard_bits.min(remaining);
            self.starts.push(self.logical_len);
            self.shards.push(zero_shard(take as usize));
            self.logical_len += take;
            remaining -= take;
        }
        self.condense_if_sparse();
    }

    /// Deletes the bit at logical position `p` entirely (Section 4.2.2):
    /// (a) locate the shard, (b) shift subsequent bits of that shard one
    /// position down and drop a word the shard no longer needs, (c)
    /// decrement the start values of later shards. Condenses once the
    /// deletes have freed half the shards.
    pub fn delete(&mut self, p: u64) {
        let (s, local) = self.locate(p);
        let valid = self.shard_valid(s);
        let shard = &mut self.shards[s];
        ShiftKernel::Auto.shift_tail_left(shard, local, valid);
        fit_shard(shard, valid - 1);
        for start in &mut self.starts[s + 1..] {
            *start -= 1;
        }
        self.logical_len -= 1;
        self.condense_if_sparse();
    }

    /// Deletes many logical positions at once (Section 4.2.3 / Figure 4).
    ///
    /// Positions refer to the bitmap state *before* the call; duplicates are
    /// ignored. A preprocessing pass groups positions by shard, each affected
    /// shard drops its whole group in one left-compaction pass (in parallel
    /// across shards when enough of them are affected to occupy a worker)
    /// and is cut to the words its remaining bits need, and all start values
    /// are adapted in a single traversal with a running sum of preceding
    /// deletes. Condenses like [`ShardedBitmap::delete`].
    pub fn bulk_delete(&mut self, positions: &[u64], mode: BulkDeleteMode) {
        if positions.is_empty() {
            return;
        }
        let mut sorted: Vec<u64> = positions.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(
            *sorted.last().unwrap() < self.logical_len,
            "bulk delete position out of bounds"
        );

        // Preprocessing: group local offsets per shard (positions ascending,
        // shards ascending, so a single forward sweep suffices).
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut s = 0usize;
        for &p in &sorted {
            s = if self.starts[s] <= p && p < self.shard_end(s) {
                s
            } else {
                self.find_shard(p)
            };
            let local = (p - self.starts[s]) as usize;
            match groups.last_mut() {
                Some((shard, offs)) if *shard == s => offs.push(local),
                _ => groups.push((s, vec![local])),
            }
        }

        let kernel = match mode {
            BulkDeleteMode::Sequential | BulkDeleteMode::Parallel => ShiftKernel::Scalar,
            BulkDeleteMode::ParallelVectorized => ShiftKernel::Auto,
        };

        // Per-shard work item: a lone offset is the single delete's tail
        // shift; a group costs one pass over the shard, not one per offset.
        let valid_of: Vec<usize> = groups.iter().map(|(s, _)| self.shard_valid(*s)).collect();
        let run = |shard: &mut Box<[u64]>, offs: &[usize], valid: usize| {
            match offs {
                [off] => kernel.shift_tail_left(shard, *off, valid),
                _ => remove_bits(shard, offs, valid),
            }
            fit_shard(shard, valid - offs.len());
        };

        // Groups ascend by shard, so one mutable iterator hands out
        // aliasing-free access to each affected shard, skipping to it in
        // O(1) with `nth`.
        let mut shards = self.shards.iter_mut();
        let mut next = 0;
        let mut work: Vec<_> = groups
            .iter()
            .zip(&valid_of)
            .map(|((shard, offs), valid)| {
                let this = shards.nth(shard - next).expect("groups ascend by shard");
                next = shard + 1;
                (this, offs.as_slice(), *valid)
            })
            .collect();
        // `available_parallelism` re-reads the cgroup limits on every call
        // (tens of microseconds): ask only when a second worker could pay.
        let occupied = work.len() / MIN_SHARDS_PER_WORKER;
        let workers = if mode == BulkDeleteMode::Sequential || occupied < 2 {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(occupied))
        };
        // Each worker takes a contiguous slice of the affected-shard list;
        // the calling thread is the first of them.
        let per_worker = work.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut chunks = work.chunks_mut(per_worker);
            let mine = chunks.next().expect("at least one affected shard");
            for chunk in chunks {
                scope.spawn(move || {
                    for (shard, offs, valid) in chunk {
                        run(shard, offs, *valid);
                    }
                });
            }
            for (shard, offs, valid) in mine {
                run(shard, offs, *valid);
            }
        });

        // Single traversal over the start array with a running sum of
        // deleted bits in preceding shards (Figure 4, final step).
        let mut deleted_before = 0u64;
        let mut g = groups.iter().peekable();
        for (s, start) in self.starts.iter_mut().enumerate() {
            *start -= deleted_before;
            if let Some((shard, offs)) = g.peek() {
                if *shard == s {
                    deleted_before += offs.len() as u64;
                    g.next();
                }
            }
        }
        self.logical_len -= deleted_before;
        self.condense_if_sparse();
    }

    /// Condenses once the bitmap holds at least twice the shards its bits
    /// need (Section 4.2.4). Re-packing `s` shards costs `s` shards of
    /// copying, and at least half of them were freed by deletes since the
    /// last condense, so the cost is about 1/32 word per deleted position.
    /// A one-shard bitmap never re-packs: it has nothing to free.
    fn condense_if_sparse(&mut self) {
        let needed = self.logical_len.div_ceil(self.shard_bits() as u64) as usize;
        if self.starts.len() > 1 && self.starts.len() >= 2 * needed {
            self.condense();
        }
    }

    /// Fraction of allocated bit slots that are still addressable. Every
    /// delete "loses" one slot at the end of its shard; condensing restores
    /// utilization to 1.0.
    pub fn utilization(&self) -> f64 {
        let capacity = (self.starts.len() * self.shard_bits()) as u64;
        if capacity == 0 {
            return 1.0;
        }
        self.logical_len as f64 / capacity as f64
    }

    /// Re-packs all shards so every shard (except possibly the last) is
    /// completely full again, reclaiming the slots lost to deletes
    /// (Section 4.2.4). Single traversal over the bitmap.
    pub fn condense(&mut self) {
        let shard_bits = self.shard_bits();
        let len = self.logical_len as usize;
        let mut packed: Vec<Box<[u64]>> = (0..len.div_ceil(shard_bits))
            .map(|s| zero_shard((len - s * shard_bits).min(shard_bits)))
            .collect();
        let mut out_bit = 0usize;
        for (s, shard) in self.shards.iter().enumerate() {
            let valid = self.shard_valid(s);
            let mut copied = 0;
            while copied < valid {
                let (dst, at) = (out_bit >> self.shard_bits_log2, out_bit % shard_bits);
                let take = (valid - copied).min(shard_bits - at);
                copy_bits(shard, copied, &mut packed[dst], at, take);
                copied += take;
                out_bit += take;
            }
        }
        debug_assert_eq!(out_bit, len);
        self.starts = (0..packed.len() as u64)
            .map(|s| s << self.shard_bits_log2)
            .collect();
        self.shards = packed;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        // Bits past a shard's valid count are kept zero, so whole-word
        // popcounts are exact.
        self.shards
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|w| w.count_ones() as u64)
            .sum()
    }

    /// Iterates the logical positions of all set bits in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bm: self,
            shard: 0,
            words: &[],
            start: 0,
            word: 0,
            bits: 0,
        }
    }

    /// Reads the logical bit range `[from, from + out.len() * 64)` (clamped
    /// to `len()`) into packed words. Used to merge the patch mask into a
    /// scan batch without per-bit shard lookups.
    pub fn fill_words(&self, from: u64, out: &mut [u64]) {
        out.iter_mut().for_each(|w| *w = 0);
        if self.logical_len == 0 || from >= self.logical_len {
            return;
        }
        let want = (out.len() * 64).min((self.logical_len - from) as usize);
        let mut s = self.find_shard(from);
        let mut copied = 0usize;
        while copied < want && s < self.starts.len() {
            let shard_start = self.starts[s];
            let valid = self.shard_valid(s);
            let cur = from + copied as u64;
            let local = (cur - shard_start) as usize;
            let take = (valid - local).min(want - copied);
            if take > 0 {
                copy_bits(&self.shards[s], local, out, copied, take);
                copied += take;
            }
            s += 1;
        }
    }

    /// Heap bytes the bitmap holds: every shard's words, plus the shard
    /// list and the start values, all at capacity. Shards are exact, so
    /// this is `len / 8` plus at most 32 bytes per shard (one pointer, one
    /// start value, one partly used word), whatever slots deletes lost.
    pub fn memory_bytes(&self) -> usize {
        let words: usize = self.shards.iter().map(|shard| shard.len()).sum();
        words * 8
            + self.shards.capacity() * std::mem::size_of::<Box<[u64]>>()
            + self.starts.capacity() * 8
    }

    /// Relative memory overhead of the start-value array versus the raw
    /// bitmap: `64 / shard_bits` (paper: 0.39% at the 2^14 default). The
    /// shard pointers add `128 / shard_bits`, which
    /// [`ShardedBitmap::memory_bytes`] counts.
    pub fn sharding_overhead(&self) -> f64 {
        64.0 / self.shard_bits() as f64
    }

    /// Validates all structural invariants (tests / debug assertions).
    pub fn check_invariants(&self) {
        let shard_bits = self.shard_bits() as u64;
        assert_eq!(self.shards.len(), self.starts.len(), "one start per shard");
        for (s, shard) in self.shards.iter().enumerate() {
            assert!(
                self.starts[s] <= (s as u64) * shard_bits,
                "start exceeds initial position"
            );
            let valid = self
                .shard_end(s)
                .checked_sub(self.starts[s])
                .expect("starts not monotone");
            assert!(valid <= shard_bits, "shard over capacity");
            // Exactly `ceil(valid / 64)` words, spelled apart from
            // `words_for` so that a slip there shows here.
            let bits = shard.len() as u64 * 64;
            assert!(
                valid <= bits && bits < valid + 64,
                "shard {s} holds {} words for {valid} bits",
                shard.len()
            );
            // Bits past the valid ones must be zero.
            for b in valid as usize..shard.len() * 64 {
                assert_eq!(
                    shard[b / 64] >> (b % 64) & 1,
                    0,
                    "garbage bit set in shard {s}"
                );
            }
        }
        if let Some(&first) = self.starts.first() {
            assert_eq!(first, 0, "first shard must start at 0");
        }
        assert_eq!(
            self.shards.capacity(),
            self.shards.len(),
            "spare shard slots"
        );
        assert_eq!(
            self.starts.capacity(),
            self.starts.len(),
            "spare start values"
        );
        let bound = self.logical_len as usize / 8 + 32 * self.shards.len() + 8;
        assert!(
            self.memory_bytes() <= bound,
            "{} B for {} bits in {} shards, bound {bound} B",
            self.memory_bytes(),
            self.logical_len,
            self.shards.len()
        );
        let needed = self.logical_len.div_ceil(shard_bits) as usize;
        assert!(
            self.starts.len() <= 1 || self.starts.len() < 2 * needed,
            "{} shards hold bits that need {needed}: not condensed",
            self.starts.len()
        );
    }
}

/// Ascending iterator over set bit positions of a [`ShardedBitmap`].
pub struct OnesIter<'a> {
    bm: &'a ShardedBitmap,
    /// Next shard to load.
    shard: usize,
    /// The loaded shard's words and the logical position of its first bit.
    words: &'a [u64],
    start: u64,
    /// Index of the current word in `words`, and its set bits not yet
    /// returned.
    word: usize,
    bits: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        // Bits past a shard's valid count are zero, so every set bit of a
        // shard's words is a valid position.
        while self.bits == 0 {
            self.word += 1;
            while self.word >= self.words.len() {
                self.words = self.bm.shards.get(self.shard)?;
                self.start = self.bm.starts[self.shard];
                self.shard += 1;
                self.word = 0;
            }
            self.bits = self.words[self.word];
        }
        let tz = self.bits.trailing_zeros() as u64;
        self.bits &= self.bits - 1;
        Some(self.start + self.word as u64 * 64 + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainBitmap;

    /// Tiny shards (64 bits) stress shard-boundary logic.
    fn small(len: u64, positions: &[u64]) -> ShardedBitmap {
        let mut bm = ShardedBitmap::with_shard_bits(len, 64);
        for &p in positions {
            bm.set(p);
        }
        bm
    }

    #[test]
    fn figure3_delete_example() {
        // Paper Figure 3 (scaled): deleting bit 5 makes old bit 26 answer
        // queries for position 25.
        let mut bm = small(256, &[5, 26]);
        bm.delete(5);
        assert_eq!(bm.len(), 255);
        assert!(bm.get(25));
        assert_eq!(bm.count_ones(), 1);
        bm.check_invariants();
    }

    #[test]
    fn set_get_unset_across_shards() {
        let mut bm = ShardedBitmap::with_shard_bits(1000, 128);
        for p in [0u64, 127, 128, 500, 999] {
            bm.set(p);
            assert!(bm.get(p));
        }
        bm.unset(128);
        assert!(!bm.get(128));
        assert_eq!(bm.count_ones(), 4);
        bm.check_invariants();
    }

    #[test]
    fn delete_keeps_reads_consistent_with_plain() {
        let mut plain = PlainBitmap::from_positions(512, &[3, 64, 100, 200, 300, 511]);
        let mut sharded = small(512, &[3, 64, 100, 200, 300, 511]);
        for p in [100u64, 0, 250, 508] {
            plain.delete(p);
            sharded.delete(p);
            sharded.check_invariants();
            assert_eq!(plain.len(), sharded.len());
            for i in 0..plain.len() {
                assert_eq!(
                    plain.get(i),
                    sharded.get(i),
                    "mismatch at {i} after deleting {p}"
                );
            }
        }
    }

    #[test]
    fn bulk_delete_modes_agree() {
        // 16 affected shards stay on the calling thread; 128 are enough to
        // be split over workers.
        for bits in [2048u64, 16384] {
            let positions: Vec<u64> = (0..bits).filter(|p| p % 7 == 0).collect();
            let deletes: Vec<u64> = (0..bits).filter(|p| p % 13 == 0).collect();
            let mut expected = ShardedBitmap::with_shard_bits(bits, 128);
            positions.iter().for_each(|&p| expected.set(p));
            // Reference: descending single deletes.
            for &d in deletes.iter().rev() {
                expected.delete(d);
            }
            for mode in [
                BulkDeleteMode::Sequential,
                BulkDeleteMode::Parallel,
                BulkDeleteMode::ParallelVectorized,
            ] {
                let mut bm = ShardedBitmap::with_shard_bits(bits, 128);
                positions.iter().for_each(|&p| bm.set(p));
                bm.bulk_delete(&deletes, mode);
                bm.check_invariants();
                assert_eq!(bm.len(), expected.len(), "{bits} {mode:?}");
                let a: Vec<u64> = bm.iter_ones().collect();
                let b: Vec<u64> = expected.iter_ones().collect();
                assert_eq!(a, b, "{bits} {mode:?}");
            }
        }
    }

    #[test]
    fn bulk_delete_unsorted_input_with_duplicates() {
        let mut bm = small(256, &[10, 20, 30]);
        bm.bulk_delete(&[20, 5, 20, 100], BulkDeleteMode::Sequential);
        assert_eq!(bm.len(), 253);
        let ones: Vec<u64> = bm.iter_ones().collect();
        // 10 shifts to 9 (5 deleted before it); 30 shifts to 28 (5, 20 deleted).
        assert_eq!(ones, vec![9, 28]);
    }

    #[test]
    fn condense_restores_utilization() {
        let mut bm = small(64 * 8, &(0..512).step_by(3).collect::<Vec<_>>());
        let before: Vec<u64> = bm.iter_ones().collect();
        let dels: Vec<u64> = (0..100u64).map(|i| i * 5).collect();
        bm.bulk_delete(&dels, BulkDeleteMode::Sequential);
        assert!(bm.utilization() < 1.0);
        let ones_before: Vec<u64> = bm.iter_ones().collect();
        bm.condense();
        bm.check_invariants();
        assert!(
            (bm.utilization() - bm.len() as f64 / (bm.shard_count() * 64) as f64).abs() < 1e-12
        );
        let ones_after: Vec<u64> = bm.iter_ones().collect();
        assert_eq!(ones_before, ones_after);
        assert_ne!(before, ones_after);
        // Reads still agree position by position.
        for (i, _) in ones_after.iter().enumerate() {
            assert!(bm.get(ones_after[i]));
        }
    }

    #[test]
    fn deletes_condense_once_half_the_shards_are_free() {
        // 10 shards of 64 bits. Deleting from the front empties shard 0
        // first; the bitmap keeps its shards until 5 of them would do.
        let mut bm = small(640, &[639]);
        for _ in 0..319 {
            bm.delete(0);
        }
        assert_eq!((bm.len(), bm.shard_count()), (321, 10));
        bm.delete(0);
        assert_eq!((bm.len(), bm.shard_count()), (320, 5));
        assert!(bm.get(319));
        bm.check_invariants();
        // A bulk delete condenses the same way: 160 bits still need 3
        // of the 5 shards, 128 bits need 2.
        bm.bulk_delete(&(0..160).collect::<Vec<_>>(), BulkDeleteMode::Sequential);
        assert_eq!((bm.len(), bm.shard_count()), (160, 5));
        bm.bulk_delete(&(0..32).collect::<Vec<_>>(), BulkDeleteMode::Sequential);
        assert_eq!((bm.len(), bm.shard_count()), (128, 2));
        assert!(bm.get(127));
        bm.check_invariants();
        // One shard is never re-packed, however empty.
        let mut one = small(64, &[]);
        one.bulk_delete(&(0..63).collect::<Vec<_>>(), BulkDeleteMode::Sequential);
        assert_eq!((one.len(), one.shard_count()), (1, 1));
    }

    #[test]
    fn append_keeps_the_condense_invariant() {
        // Shard 0 holds 1 bit, shard 1 none, shard 2 is full: 3 shards
        // for 65 bits is allowed, a 4th for 66 bits is not.
        let mut bm = small(192, &[]);
        bm.bulk_delete(&(1..128).collect::<Vec<_>>(), BulkDeleteMode::Sequential);
        assert_eq!((bm.len(), bm.shard_count()), (65, 3));
        bm.set(64);
        bm.append_zeros(1);
        assert_eq!((bm.len(), bm.shard_count()), (66, 2));
        assert!(bm.get(64) && !bm.get(65));
        bm.check_invariants();
    }

    #[test]
    fn append_zeros_fills_spare_then_allocates() {
        let mut bm = small(100, &[99]);
        assert_eq!(bm.shard_count(), 2);
        bm.append_zeros(28); // fills shard 1 spare (28 left)
        assert_eq!(bm.shard_count(), 2);
        assert_eq!(bm.len(), 128);
        bm.append_zeros(1);
        assert_eq!(bm.shard_count(), 3);
        bm.set(128);
        assert!(bm.get(128) && bm.get(99));
        bm.check_invariants();
    }

    #[test]
    fn append_after_delete_reuses_lost_slot_of_last_shard() {
        let mut bm = small(128, &[]);
        bm.delete(127); // lost slot at the end of shard 1
        assert_eq!(bm.len(), 127);
        bm.append_zeros(1);
        assert_eq!(bm.shard_count(), 2, "spare capacity of last shard reused");
        assert_eq!(bm.len(), 128);
        bm.check_invariants();
    }

    #[test]
    fn append_to_empty_bitmap() {
        let mut bm = ShardedBitmap::with_shard_bits(0, 64);
        assert!(bm.is_empty());
        bm.append_zeros(70);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.shard_count(), 2);
        bm.set(69);
        assert!(bm.get(69));
    }

    #[test]
    fn fill_words_matches_gets() {
        let positions: Vec<u64> = (0..1024).filter(|p| p % 5 == 0).collect();
        let mut bm = small(1024, &positions);
        bm.bulk_delete(&[7, 130, 700], BulkDeleteMode::Sequential);
        for from in [0u64, 1, 63, 64, 100, 1000] {
            let mut out = [0u64; 4];
            bm.fill_words(from, &mut out);
            for i in 0..256u64 {
                let expected = from + i < bm.len() && bm.get(from + i);
                let got = out[(i / 64) as usize] >> (i % 64) & 1 == 1;
                assert_eq!(got, expected, "from={from} i={i}");
            }
        }
    }

    #[test]
    fn iter_ones_ascending_and_complete() {
        let positions: Vec<u64> = vec![0, 1, 63, 64, 65, 127, 128, 300, 511];
        let bm = small(512, &positions);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), positions);
    }

    #[test]
    fn default_shard_size_matches_paper_optimum() {
        let bm = ShardedBitmap::new(1 << 20);
        assert_eq!(bm.shard_bits(), 1 << 14);
        assert!((bm.sharding_overhead() - 0.0039).abs() < 1e-4);
    }

    #[test]
    fn memory_overhead_formula() {
        let bm = ShardedBitmap::with_shard_bits(1 << 20, 1 << 8);
        assert!((bm.sharding_overhead() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delete_everything() {
        let mut bm = small(130, &[0, 64, 129]);
        for _ in 0..130 {
            bm.delete(0);
        }
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        bm.check_invariants();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn delete_out_of_bounds_panics() {
        let mut bm = small(64, &[]);
        bm.delete(64);
    }

    #[test]
    fn bulk_delete_empty_is_noop() {
        let mut bm = small(128, &[5]);
        bm.bulk_delete(&[], BulkDeleteMode::ParallelVectorized);
        assert_eq!(bm.len(), 128);
        assert!(bm.get(5));
    }
}
