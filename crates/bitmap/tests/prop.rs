//! Property-based tests: the sharded bitmap must behave exactly like a
//! `Vec<bool>` model under arbitrary interleavings of set / unset / delete /
//! bulk-delete / append / condense operations.

use pi_bitmap::{BulkDeleteMode, PlainBitmap, ShardedBitmap, ShiftKernel};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set(u64),
    Unset(u64),
    Delete(u64),
    BulkDelete(Vec<u64>),
    AppendZeros(u64),
    Condense,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4096).prop_map(Op::Set),
        (0u64..4096).prop_map(Op::Unset),
        (0u64..4096).prop_map(Op::Delete),
        proptest::collection::vec(0u64..4096, 0..20).prop_map(Op::BulkDelete),
        (0u64..256).prop_map(Op::AppendZeros),
        Just(Op::Condense),
    ]
}

fn apply_model(model: &mut Vec<bool>, op: &Op) {
    match op {
        Op::Set(p) => {
            let p = *p as usize % model.len().max(1);
            if !model.is_empty() {
                model[p] = true;
            }
        }
        Op::Unset(p) => {
            let p = *p as usize % model.len().max(1);
            if !model.is_empty() {
                model[p] = false;
            }
        }
        Op::Delete(p) => {
            if !model.is_empty() {
                let p = *p as usize % model.len();
                model.remove(p);
            }
        }
        Op::BulkDelete(ps) => {
            if !model.is_empty() {
                let mut ps: Vec<usize> = ps.iter().map(|p| *p as usize % model.len()).collect();
                ps.sort_unstable();
                ps.dedup();
                for p in ps.into_iter().rev() {
                    model.remove(p);
                }
            }
        }
        Op::AppendZeros(n) => model.extend(std::iter::repeat_n(false, *n as usize)),
        Op::Condense => {}
    }
}

fn apply_sharded(bm: &mut ShardedBitmap, op: &Op, mode: BulkDeleteMode) {
    let len = bm.len();
    match op {
        Op::Set(p) => {
            if len > 0 {
                bm.set(*p % len);
            }
        }
        Op::Unset(p) => {
            if len > 0 {
                bm.unset(*p % len);
            }
        }
        Op::Delete(p) => {
            if len > 0 {
                bm.delete(*p % len);
            }
        }
        Op::BulkDelete(ps) => {
            if len > 0 {
                let ps: Vec<u64> = ps.iter().map(|p| *p % len).collect();
                bm.bulk_delete(&ps, mode);
            }
        }
        Op::AppendZeros(n) => bm.append_zeros(*n),
        Op::Condense => bm.condense(),
    }
}

fn check_equivalence(shard_bits: usize, initial_len: u64, ops: &[Op], mode: BulkDeleteMode) {
    let mut model: Vec<bool> = vec![false; initial_len as usize];
    let mut bm = ShardedBitmap::with_shard_bits(initial_len, shard_bits);
    for op in ops {
        apply_model(&mut model, op);
        apply_sharded(&mut bm, op, mode);
        bm.check_invariants();
        assert_eq!(bm.len(), model.len() as u64, "length diverged after {op:?}");
    }
    let expected: Vec<u64> = model
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.then_some(i as u64))
        .collect();
    assert_eq!(bm.iter_ones().collect::<Vec<_>>(), expected);
    assert_eq!(bm.count_ones(), expected.len() as u64);
    for (i, b) in model.iter().enumerate() {
        assert_eq!(bm.get(i as u64), *b, "bit {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_matches_model_small_shards(
        initial_len in 0u64..2000,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        check_equivalence(64, initial_len, &ops, BulkDeleteMode::Sequential);
    }

    #[test]
    fn sharded_matches_model_medium_shards(
        initial_len in 0u64..4000,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        check_equivalence(512, initial_len, &ops, BulkDeleteMode::ParallelVectorized);
    }

    #[test]
    fn plain_and_sharded_agree(
        initial_len in 1u64..1500,
        sets in proptest::collection::vec(0u64..1500, 0..50),
        dels in proptest::collection::vec(0u64..1500, 0..20),
    ) {
        let sets: Vec<u64> = sets.iter().map(|p| p % initial_len).collect();
        let mut plain = PlainBitmap::from_positions(initial_len, &sets);
        let mut sharded = ShardedBitmap::with_shard_bits(initial_len, 128);
        sets.iter().for_each(|&p| sharded.set(p));
        let mut dels: Vec<u64> = dels.iter().map(|p| p % initial_len).collect();
        dels.sort_unstable();
        dels.dedup();
        // Clamp deletes to remaining length as we go (descending order).
        for &d in dels.iter().rev() {
            if d < plain.len() {
                plain.delete(d);
                sharded.delete(d);
            }
        }
        prop_assert_eq!(plain.len(), sharded.len());
        let a: Vec<u64> = plain.iter_ones().collect();
        let b: Vec<u64> = sharded.iter_ones().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn kernels_agree_on_random_words(
        words in proptest::collection::vec(any::<u64>(), 1..40),
        from in 0usize..2000,
    ) {
        let len_bits = words.len() * 64;
        let from = from % len_bits;
        let mut scalar = words.clone();
        let mut unrolled = words.clone();
        let mut auto = words;
        ShiftKernel::Scalar.shift_tail_left(&mut scalar, from, len_bits);
        ShiftKernel::Unrolled.shift_tail_left(&mut unrolled, from, len_bits);
        ShiftKernel::Auto.shift_tail_left(&mut auto, from, len_bits);
        prop_assert_eq!(&scalar, &unrolled);
        prop_assert_eq!(&scalar, &auto);
    }

    #[test]
    fn condense_preserves_content(
        initial_len in 64u64..3000,
        sets in proptest::collection::vec(0u64..3000, 1..60),
        dels in proptest::collection::vec(0u64..3000, 1..40),
    ) {
        let sets: Vec<u64> = sets.iter().map(|p| p % initial_len).collect();
        let mut bm = ShardedBitmap::with_shard_bits(initial_len, 64);
        sets.iter().for_each(|&p| bm.set(p));
        let dels: Vec<u64> = dels.iter().map(|p| p % initial_len).collect();
        let mut sorted = dels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // Keep deletes valid against the shrinking bitmap.
        let valid: Vec<u64> = sorted.iter().copied()
            .take_while(|&d| d < initial_len - sorted.len() as u64 + 1).collect();
        if !valid.is_empty() {
            bm.bulk_delete(&valid, BulkDeleteMode::Sequential);
        }
        let before: Vec<u64> = bm.iter_ones().collect();
        let len_before = bm.len();
        bm.condense();
        bm.check_invariants();
        prop_assert_eq!(bm.len(), len_before);
        let after: Vec<u64> = bm.iter_ones().collect();
        prop_assert_eq!(before, after);
        // Condense packs to the minimal number of shards: every slot except
        // the tail of the last shard is addressable again.
        prop_assert_eq!(bm.shard_count() as u64, bm.len().div_ceil(64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Exact shard allocation at small shard sizes, from lengths whose last
    // shard ends part-way into the AVX2 kernel's four-word block: one to
    // three words (at most 192 bits). Every op re-checks that each shard
    // holds exactly the words its bits need.
    #[test]
    fn sharded_matches_model_exact_shards(
        shard_log2 in 6u32..9,
        full_shards in 0u64..24,
        tail in 0u64..192,
        ops in proptest::collection::vec(op_strategy(), 1..40),
        vectorized in any::<bool>(),
    ) {
        let shard_bits = 1usize << shard_log2;
        let tail = tail % shard_bits.min(192) as u64 + 1;
        let mode = if vectorized {
            BulkDeleteMode::ParallelVectorized
        } else {
            BulkDeleteMode::Sequential
        };
        check_equivalence(shard_bits, full_shards * shard_bits as u64 + tail, &ops, mode);
    }
}
