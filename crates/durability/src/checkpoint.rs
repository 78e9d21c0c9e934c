//! Tests of the index image a checkpoint writes for each PatchIndex
//! ([`crate::codec::encode_index`] / [`crate::codec::decode_index`]): it
//! round-trips everything recovery restores, and a damaged image, or a
//! CRC-valid one claiming what its table cannot hold, is `InvalidData`
//! before anything is allocated for it.

mod tests {
    use crate::codec::tests::{index_table, rejected};
    use crate::codec::{
        constraint_tag, decode_index, design_tag, encode_index, put_u32, put_u64, seal,
        GLOBALLY_DEDUPLICATED, INDEX_MAGIC, INDEX_VERSION,
    };
    use patchindex::{Constraint, Design, PatchIndex, SortDir};
    use pi_storage::Table;

    fn index_image(payload: &[u8]) -> Vec<u8> {
        seal(INDEX_MAGIC, INDEX_VERSION, payload)
    }

    /// The image of a NUC/Bitmap index over column `v` of [`index_table`]:
    /// four patches, two per partition.
    fn clean_image() -> Vec<u8> {
        let t = index_table();
        let idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        let clean = encode_index(&idx);
        decode_index(&clean, &t).unwrap();
        clean
    }

    /// Checks that `bytes`, read as an index image over [`index_table`],
    /// are refused as `InvalidData` with a message containing `want`.
    #[track_caller]
    fn refused(bytes: &[u8], want: &str) {
        let msg = rejected(decode_index(bytes, &index_table()));
        assert!(msg.contains(want), "want {want:?}: {msg}");
    }

    /// Offset of the partition count in an image payload: four header
    /// words, then seven counters.
    const NPARTS_AT: usize = 4 * 4 + 7 * 8;

    /// A NUC/Bitmap image payload over column `v` of [`index_table`]
    /// whose first partition claims `count` patches and carries `rids`;
    /// the second has none.
    fn nuc_payload(count: u64, rids: &[u64]) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, 1);
        put_u32(&mut b, constraint_tag(Constraint::NearlyUnique));
        put_u32(&mut b, design_tag(Design::Bitmap));
        put_u32(&mut b, GLOBALLY_DEDUPLICATED);
        b.extend_from_slice(&[0u8; 7 * 8]);
        put_u32(&mut b, 2);
        put_u64(&mut b, 5);
        put_u32(&mut b, 0);
        put_u64(&mut b, count);
        for &r in rids {
            put_u64(&mut b, r);
        }
        put_u64(&mut b, 3);
        put_u32(&mut b, 0);
        put_u64(&mut b, 0);
        b
    }

    fn with_word(mut payload: Vec<u8>, at: usize, word: u32) -> Vec<u8> {
        payload[at..at + 4].copy_from_slice(&word.to_le_bytes());
        payload
    }

    /// Encodes, decodes against `t` and checks the decoded index encodes
    /// to the same bytes, keeps the design in every partition and its
    /// memory accounting, and holds its invariant over the table.
    fn roundtrip(idx: &PatchIndex, t: &Table) -> PatchIndex {
        let bytes = encode_index(idx);
        let loaded = decode_index(&bytes, t).unwrap();
        assert_eq!(encode_index(&loaded), bytes);
        assert_eq!(loaded.memory_bytes(), idx.memory_bytes());
        for pid in 0..loaded.partition_count() {
            assert_eq!(loaded.partition(pid).store.design(), idx.design());
        }
        loaded.check_consistency(t);
        loaded
    }

    #[test]
    fn checkpoint_roundtrip() {
        let t = index_table();
        let idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.exception_count(), 4);
        let loaded = roundtrip(&idx, &t);
        assert_eq!(loaded.column(), 1);
        assert_eq!(loaded.constraint(), Constraint::NearlyUnique);
        assert_eq!(loaded.partition(0).store.patch_rids(), [1, 2]);
        assert_eq!(loaded.partition(1).store.patch_rids(), [0, 1]);
    }

    #[test]
    fn checkpoint_preserves_nsc_anchor() {
        let t = index_table();
        let asc = Constraint::NearlySorted(SortDir::Asc);
        let idx = PatchIndex::create(&t, 0, asc, Design::Identifier);
        let loaded = roundtrip(&idx, &t);
        assert_eq!(loaded.design(), Design::Identifier);
        assert_eq!(loaded.partition(0).store.patch_rids(), [2]);
        assert_eq!(loaded.partition(0).last_sorted, Some(4));
        assert_eq!(loaded.partition(1).last_sorted, Some(7));
    }

    /// Created as Bitmap over a clean column, the recompute migrates to
    /// Identifier (exception rate 0 is below the crossover), and the
    /// image carries the migrated design.
    #[test]
    fn design_migrated_index_roundtrips() {
        let t = index_table();
        let mut idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        idx.recompute(&t);
        assert_eq!(idx.design(), Design::Identifier);
        assert_eq!(roundtrip(&idx, &t).design(), Design::Identifier);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut foreign = clean_image();
        foreign[..4].copy_from_slice(b"NOPE");
        refused(&foreign, "bad magic");
    }

    /// A flip in the magic or version word fails those checks; one
    /// anywhere past them fails the checksum.
    #[test]
    fn bit_flip_anywhere_is_rejected() {
        let clean = clean_image();
        for pos in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[pos] ^= 0x04;
            let want = match pos {
                0..=3 => "bad magic",
                4..=7 => "unsupported version",
                _ => "checksum mismatch",
            };
            refused(&flipped, want);
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let clean = clean_image();
        for cut in [clean.len() - 1, clean.len() - 4, clean.len() / 2] {
            refused(&clean[..cut], "checksum mismatch");
        }
        refused(&clean[..9], "too short");
        refused(&[], "too short");
    }

    /// Bytes past the payload, outside or inside the checksum. An image
    /// of an older version is refused whole, whatever follows it.
    #[test]
    fn trailing_garbage_is_rejected_even_on_legacy_versions() {
        let clean = clean_image();
        let mut appended = clean.clone();
        appended.extend_from_slice(b"junk");
        refused(&appended, "checksum mismatch");
        let mut payload = clean[8..clean.len() - 4].to_vec();
        payload.extend_from_slice(b"junk");
        refused(&index_image(&payload), "trailing garbage");
        let mut legacy = seal(INDEX_MAGIC, 3, &nuc_payload(1, &[1]));
        legacy.extend_from_slice(b"junk");
        refused(&legacy, "unsupported version 3");
    }

    /// The counts are claims, checksummed or not: a partition count of
    /// u32::MAX, then patch counts from a capacity overflow, through
    /// 8 TiB, down to one rowID more than the bytes left.
    #[test]
    fn lying_counts_are_rejected_not_allocated() {
        let payload = with_word(nuc_payload(1, &[1]), NPARTS_AT, u32::MAX);
        refused(&index_image(&payload), "index image partitions");
        for count in [u64::MAX, 1 << 40, 4] {
            refused(
                &index_image(&nuc_payload(count, &[1])),
                "index image patches",
            );
        }
    }

    #[test]
    fn patch_rowid_outside_its_partition_is_rejected() {
        decode_index(&index_image(&nuc_payload(2, &[1, 4])), &index_table()).unwrap();
        let image = index_image(&nuc_payload(2, &[1, 5]));
        refused(&image, "partition 0: patch rowID 5 outside its 5 rows");
    }

    /// Versions 2–5 (no flag word, no trailer, or per-slot query
    /// feedback) and one from a newer build (7) are refused by the
    /// version word, which is checked before the checksum; a flag word
    /// other than "globally deduplicated" is refused by the parser.
    #[test]
    fn other_versions_and_flag_words_are_rejected() {
        let payload = nuc_payload(1, &[1]);
        for version in [2, 3, 4, 5, 7] {
            let want = format!("unsupported version {version}");
            refused(&seal(INDEX_MAGIC, version, &payload), &want);
        }
        for flag in [0, 2] {
            let payload = with_word(payload.clone(), 12, flag);
            refused(&index_image(&payload), "globally deduplicated");
        }
    }

    /// One word of a CRC-valid image naming something the table cannot
    /// serve: a column, a tag, or the partition count.
    #[test]
    fn index_images_the_table_refutes_are_invalid_data() {
        decode_index(&index_image(&nuc_payload(2, &[1, 4])), &index_table()).unwrap();
        let anchor_at = NPARTS_AT + 4 + 8;
        let cases = [
            (0, 3, "column 3 out of range"),
            (0, 2, "cannot index Float column 2"),
            (4, 4, "unknown constraint tag 4"),
            (8, 2, "unknown design tag 2"),
            (NPARTS_AT, 1, "covers 1 partitions, the table has 2"),
            (anchor_at, 2, "unknown anchor tag 2"),
        ];
        for (at, word, want) in cases {
            refused(
                &index_image(&with_word(nuc_payload(2, &[1, 4]), at, word)),
                want,
            );
        }
    }
}
