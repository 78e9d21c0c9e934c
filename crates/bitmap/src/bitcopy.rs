//! Word-level copying of arbitrary bit ranges between packed `u64` buffers.
//!
//! Used by the sharded bitmap's condense operation (re-packing valid bit
//! ranges of each shard into a fresh dense buffer), by windowed reads that
//! assemble the patch mask for a scan batch across shard boundaries, and by
//! the bulk delete (removing a shard's deleted bits in one compaction pass).

/// Copies `len` bits from `src` starting at bit offset `src_off` into `dst`
/// starting at bit offset `dst_off`.
///
/// Destination bits outside the target range are preserved. The ranges must
/// lie within the respective buffers; `src` and `dst` must not alias.
pub fn copy_bits(src: &[u64], src_off: usize, dst: &mut [u64], dst_off: usize, len: usize) {
    debug_assert!(
        src_off + len <= src.len() * 64,
        "source range out of bounds"
    );
    debug_assert!(
        dst_off + len <= dst.len() * 64,
        "destination range out of bounds"
    );
    let mut copied = 0;
    while copied < len {
        let s = src_off + copied;
        let d = dst_off + copied;
        let (sw, sb) = (s / 64, s % 64);
        let (dw, db) = (d / 64, d % 64);
        // Bits available in the current source / destination word.
        let take = (64 - sb).min(64 - db).min(len - copied);
        let chunk = (src[sw] >> sb) & mask(take);
        dst[dw] = (dst[dw] & !(mask(take) << db)) | (chunk << db);
        copied += take;
    }
}

/// Removes the bits at the ascending, distinct offsets `dels` from the first
/// `valid` bits of `buf`, in place and in one pass: each run of bits between
/// two deleted offsets moves down by the number of deletes before it, and
/// the `dels.len()` slots vacated below `valid` are zeroed.
pub fn remove_bits(buf: &mut [u64], dels: &[usize], valid: usize) {
    let Some(&first) = dels.first() else {
        return;
    };
    debug_assert!(
        dels.windows(2).all(|w| w[0] < w[1]),
        "offsets not ascending"
    );
    debug_assert!(*dels.last().unwrap() < valid && valid <= buf.len() * 64);
    let mut dst = first;
    for (i, &del) in dels.iter().enumerate() {
        let src = del + 1;
        let run = dels.get(i + 1).copied().unwrap_or(valid) - src;
        // Ascending and `dst < src`: every word is read before the pass
        // overwrites it.
        let mut moved = 0;
        while moved < run {
            let take = (64 - (dst + moved) % 64).min(run - moved);
            let chunk = read_bits(buf, src + moved, take);
            write_bits(buf, dst + moved, take, chunk);
            moved += take;
        }
        dst += run;
    }
    while dst < valid {
        let take = (64 - dst % 64).min(valid - dst);
        write_bits(buf, dst, take, 0);
        dst += take;
    }
}

/// Overwrites the `len` bits at `off`, which must lie within one word, with
/// the low `len` bits of `value`.
#[inline]
fn write_bits(dst: &mut [u64], off: usize, len: usize, value: u64) {
    let (w, b) = (off / 64, off % 64);
    debug_assert!(b + len <= 64);
    dst[w] = (dst[w] & !(mask(len) << b)) | (value << b);
}

/// Reads `len <= 64` bits starting at `off` as a single value (LSB-first).
#[inline]
pub fn read_bits(src: &[u64], off: usize, len: usize) -> u64 {
    debug_assert!(len <= 64);
    debug_assert!(off + len <= src.len() * 64);
    if len == 0 {
        return 0;
    }
    let (w, b) = (off / 64, off % 64);
    let lo = src[w] >> b;
    let val = if b + len > 64 {
        lo | (src[w + 1] << (64 - b))
    } else {
        lo
    };
    val & mask(len)
}

/// Mask with the lowest `n` bits set; `n == 64` yields all ones.
#[inline(always)]
pub fn mask(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(words: &[u64], off: usize, len: usize) -> Vec<bool> {
        (off..off + len)
            .map(|i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn copy_aligned_words() {
        let src = [0xDEAD_BEEF_u64, 0xCAFE_BABE];
        let mut dst = [0u64; 2];
        copy_bits(&src, 0, &mut dst, 0, 128);
        assert_eq!(dst, src);
    }

    #[test]
    fn copy_unaligned_offsets() {
        let src = [0xAAAA_AAAA_AAAA_AAAA_u64, 0x5555_5555_5555_5555];
        for src_off in [0usize, 1, 7, 63, 64, 65] {
            for dst_off in [0usize, 3, 13, 63] {
                let len = 60;
                let mut dst = [0u64; 3];
                copy_bits(&src, src_off, &mut dst, dst_off, len);
                assert_eq!(
                    bits_of(&dst, dst_off, len),
                    bits_of(&src, src_off, len),
                    "src_off={src_off} dst_off={dst_off}"
                );
            }
        }
    }

    #[test]
    fn copy_preserves_surrounding_destination_bits() {
        let src = [u64::MAX];
        let mut dst = [0u64; 2];
        copy_bits(&src, 0, &mut dst, 10, 20);
        assert_eq!(dst[0], mask(20) << 10);
        assert_eq!(dst[1], 0);
        // Now copy zeros into the middle of ones.
        let zeros = [0u64];
        let mut dst2 = [u64::MAX; 1];
        copy_bits(&zeros, 0, &mut dst2, 16, 8);
        assert_eq!(dst2[0], !(mask(8) << 16));
    }

    #[test]
    fn copy_zero_len_is_noop() {
        let src = [u64::MAX];
        let mut dst = [0u64];
        copy_bits(&src, 5, &mut dst, 9, 0);
        assert_eq!(dst[0], 0);
    }

    #[test]
    fn remove_bits_matches_a_vec_model() {
        let words = [0xDEAD_BEEF_0123_4567_u64, 0xAAAA_5555_F0F0_0FF0, u64::MAX];
        for (dels, valid) in [
            (vec![0usize], 192usize),
            (vec![191], 192),
            (vec![0, 1, 2, 63, 64, 65, 127, 128], 192),
            (vec![5, 70, 71, 100], 130),
            ((0..100).collect(), 100),
            ((0..192).step_by(3).collect(), 192),
        ] {
            let mut model = bits_of(&words, 0, valid);
            for &d in dels.iter().rev() {
                model.remove(d);
            }
            let mut buf = words;
            remove_bits(&mut buf, &dels, valid);
            assert_eq!(bits_of(&buf, 0, model.len()), model, "{dels:?}");
            let vacated = bits_of(&buf, model.len(), dels.len());
            assert!(vacated.iter().all(|&b| !b), "{dels:?}");
            assert_eq!(
                bits_of(&buf, valid, 192 - valid),
                bits_of(&words, valid, 192 - valid),
                "{dels:?}: bits above `valid` untouched"
            );
        }
    }

    #[test]
    fn read_bits_spanning_words() {
        let src = [0xFF00_0000_0000_0000_u64, 0x0F];
        assert_eq!(read_bits(&src, 56, 12), 0xFFF);
        assert_eq!(read_bits(&src, 60, 8), 0xFF);
        assert_eq!(read_bits(&src, 0, 64), src[0]);
        assert_eq!(read_bits(&src, 64, 4), 0xF);
    }

    #[test]
    fn mask_edge_cases() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(64), u64::MAX);
    }
}
