//! Fast non-cryptographic hashing for join and aggregation keys.
//!
//! The standard library's SipHash is a poor fit for hot integer keys; the
//! usual remedy (`rustc-hash`) is outside the allowed dependency set, so
//! this is a hand-rolled implementation of the same multiply-fold scheme
//! (see DESIGN.md, dependency policy).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher in the spirit of `FxHash`: each word is folded into
/// the state with a rotate + xor + multiply by a large odd constant.
#[derive(Default)]
pub struct FoldHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds word `v` into hash state `state`: one step of [`FoldHasher`],
/// for a caller that hashes a key column by column over a whole batch.
#[inline]
pub fn fold(state: u64, v: u64) -> u64 {
    (state.rotate_left(5) ^ v).wrapping_mul(SEED)
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = fold(self.state, v);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed by integers with the fold hasher.
pub type IntMap<V> = HashMap<i64, V, BuildHasherDefault<FoldHasher>>;

/// `HashSet` of integers with the fold hasher.
pub type IntSet = HashSet<i64, BuildHasherDefault<FoldHasher>>;

/// Creates an empty [`IntMap`].
pub fn int_map<V>() -> IntMap<V> {
    IntMap::default()
}

/// Creates an empty [`IntSet`].
pub fn int_set() -> IntSet {
    IntSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_hash_differently() {
        let h = |v: i64| {
            let mut hasher = FoldHasher::default();
            hasher.write_i64(v);
            hasher.finish()
        };
        assert_ne!(h(0), h(1));
        assert_ne!(h(1), h(2));
        assert_ne!(h(-1), h(1));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: IntMap<&str> = int_map();
        m.insert(42, "x");
        m.insert(-7, "y");
        assert_eq!(m.get(&42), Some(&"x"));
        assert_eq!(m.get(&-7), Some(&"y"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn byte_writes_consistent() {
        let mut a = FoldHasher::default();
        a.write(b"hello world!");
        let mut b = FoldHasher::default();
        b.write(b"hello world!");
        assert_eq!(a.finish(), b.finish());
        let mut c = FoldHasher::default();
        c.write(b"hello world?");
        assert_ne!(a.finish(), c.finish());
    }
}
