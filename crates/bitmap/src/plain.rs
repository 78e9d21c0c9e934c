//! Ordinary (unsharded) bitmap — the baseline the sharded design is compared
//! against in Table 2 of the paper.
//!
//! Bit access is one shift + mask cheaper than the sharded variant, but a
//! delete must shift the *entire tail* of the bitmap towards the deleted
//! position, making it `O(n)` in the bitmap size.

use crate::simd::shift_tail_left_auto;

/// A dense, flat bitmap over logical positions `0..len`.
///
/// Bits are stored LSB-first in `u64` words. All positions at and beyond
/// `len` are kept zero so that [`PlainBitmap::count_ones`] can use whole-word
/// popcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainBitmap {
    words: Vec<u64>,
    len: u64,
}

#[inline(always)]
fn words_for(bits: u64) -> usize {
    bits.div_ceil(64) as usize
}

impl PlainBitmap {
    /// Creates an all-zero bitmap of `len` bits.
    pub fn new(len: u64) -> Self {
        PlainBitmap {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Builds a bitmap of `len` bits with exactly the given positions set.
    ///
    /// # Panics
    /// Panics if any position is `>= len`.
    pub fn from_positions(len: u64, positions: &[u64]) -> Self {
        let mut bm = Self::new(len);
        for &p in positions {
            bm.set(p);
        }
        bm
    }

    /// Number of logical bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit at `pos` to one.
    #[inline]
    pub fn set(&mut self, pos: u64) {
        assert!(pos < self.len, "bit {pos} out of bounds (len {})", self.len);
        self.words[(pos / 64) as usize] |= 1 << (pos % 64);
    }

    /// Clears the bit at `pos`.
    #[inline]
    pub fn unset(&mut self, pos: u64) {
        assert!(pos < self.len, "bit {pos} out of bounds (len {})", self.len);
        self.words[(pos / 64) as usize] &= !(1 << (pos % 64));
    }

    /// Returns the bit at `pos`.
    #[inline]
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.len, "bit {pos} out of bounds (len {})", self.len);
        self.words[(pos / 64) as usize] >> (pos % 64) & 1 == 1
    }

    /// Extends the bitmap by `n` zero bits (e.g. after a table insert).
    pub fn append_zeros(&mut self, n: u64) {
        self.len += n;
        self.words.resize(words_for(self.len), 0);
    }

    /// Removes the bit at `pos` entirely; all subsequent bits move one
    /// position down. `O(len)` — this is the weakness the sharded bitmap
    /// addresses.
    pub fn delete(&mut self, pos: u64) {
        assert!(pos < self.len, "bit {pos} out of bounds (len {})", self.len);
        shift_tail_left_auto(&mut self.words, pos as usize, self.len as usize);
        self.len -= 1;
        self.words.truncate(words_for(self.len));
        self.clear_tail();
    }

    /// Deletes many positions (given in any order, no duplicates). Performed
    /// descending so earlier deletes do not shift later target positions,
    /// matching the order-sensitivity discussion in Section 4.2.3.
    pub fn bulk_delete(&mut self, positions: &[u64]) {
        let mut sorted: Vec<u64> = positions.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        for p in sorted {
            self.delete(p);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Iterates over the positions of all set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi as u64 * 64;
            std::iter::successors(if w == 0 { None } else { Some(w) }, |&rem| {
                let next = rem & (rem - 1);
                if next == 0 {
                    None
                } else {
                    Some(next)
                }
            })
            .map(move |rem| base + rem.trailing_zeros() as u64)
        })
    }

    /// Heap memory used by the bit data, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Raw word slice (used by scan batch mask extraction).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zeroes the slack bits of the last word so whole-word popcounts stay
    /// exact.
    fn clear_tail(&mut self) {
        let slack = (self.len % 64) as usize;
        if slack != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << slack) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset_roundtrip() {
        let mut bm = PlainBitmap::new(200);
        assert!(!bm.get(5));
        bm.set(5);
        bm.set(64);
        bm.set(199);
        assert!(bm.get(5) && bm.get(64) && bm.get(199));
        bm.unset(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn delete_shifts_subsequent_bits() {
        // Paper Figure 3: deleting bit 5 moves bit 26 to position 25.
        let mut bm = PlainBitmap::new(32);
        bm.set(5);
        bm.set(26);
        bm.delete(5);
        assert_eq!(bm.len(), 31);
        assert!(bm.get(25));
        assert!(!bm.get(26));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn delete_unset_bit_preserves_set_bits() {
        let mut bm = PlainBitmap::from_positions(128, &[0, 100, 127]);
        bm.delete(50);
        assert_eq!(bm.len(), 127);
        assert!(bm.get(0));
        assert!(bm.get(99));
        assert!(bm.get(126));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn bulk_delete_matches_sequential_descending_deletes() {
        let mut a = PlainBitmap::from_positions(300, &[1, 50, 120, 250, 299]);
        let mut b = a.clone();
        a.bulk_delete(&[10, 120, 260]);
        for p in [260u64, 120, 10] {
            b.delete(p);
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 297);
    }

    #[test]
    fn append_zeros_grows_len() {
        let mut bm = PlainBitmap::new(10);
        bm.append_zeros(100);
        assert_eq!(bm.len(), 110);
        bm.set(109);
        assert!(bm.get(109));
    }

    #[test]
    fn iter_ones_yields_ascending_positions() {
        let positions = [0u64, 3, 63, 64, 65, 190];
        let bm = PlainBitmap::from_positions(191, &positions);
        let got: Vec<u64> = bm.iter_ones().collect();
        assert_eq!(got, positions);
    }

    #[test]
    fn delete_last_bit() {
        let mut bm = PlainBitmap::from_positions(65, &[64]);
        bm.delete(64);
        assert_eq!(bm.len(), 64);
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        PlainBitmap::new(8).get(8);
    }

    #[test]
    fn empty_bitmap() {
        let bm = PlainBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_ones().count(), 0);
    }
}
