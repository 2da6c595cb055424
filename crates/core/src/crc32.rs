//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the one
//! checksum behind superblocks, snapshot manifests and value-log records.
//!
//! Every spilled read, append, verify and GC step checksums a whole
//! record, so the kernel is slicing-by-8: eight `const`-generated tables
//! fold one 64-bit little-endian word per step instead of running eight
//! dependent shift/xor rounds per byte. The polynomial, reflection and
//! final inversion are unchanged, so checksums written by earlier builds
//! verify as they are.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE of `data` (check value: `crc32_ieee(b"123456789") ==
/// 0xCBF43926`). Public because the snapshot manifest, the restart tests
/// and external tooling share the same checksum.
pub fn crc32_ieee(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A running CRC-32/IEEE for input that arrives in pieces (a file read in
/// chunks): [`new`](Self::new), any number of [`update`](Self::update)s,
/// then [`finish`](Self::finish). However the input is split, the value
/// is [`crc32_ieee`] of the whole.
#[derive(Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    #[inline]
    pub(crate) fn new() -> Self {
        Crc32(!0)
    }

    /// Folds `data` into the register.
    #[inline]
    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    #[inline]
    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise form the table kernel replaced, kept as the oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn matches_reference_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32_ieee(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ieee(b""), 0);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // Golden fixtures: bytes produced by the bitwise kernel of the commit
    // before this module existed. They must keep verifying, or pools,
    // logs and snapshots written by earlier builds would stop opening.
    const GOLDEN_SUPERBLOCK: &str =
        "48444e48504f4f4c0200000001000000004000000000000007000000000000000000\
        00000000000000000000000000000000000000000000000000005765c8a7";
    const GOLDEN_LOG_RECORD: &str = "c8000000eeffc000000000000000000000000000001f3e5d7c9bbad9f81c3b5a7998\
        b7d6f51938577695b4d3f21635547392b1d0ef133251708faecdec102f4e6d8cabcae90d2c4b6a89a8c7e60a29486786\
        a5c4e30726456483a2c1e004234261809fbedd01203f5e7d9cbbdaf91d3c5b7a99b8d7f61a39587796b5d4f317365574\
        93b2d1f01433527190afceed11304f6e8daccbea0e2d4c6b8aa9c8e70b2a496887a6c5e40827466584a3c2e105244362\
        81a0bfde0221405f7e9dbcdbfa1e3d5c7b9ab9d8f71b3a597897b6d5f41837567594b3d2f115345372910217d8f9";
    const GOLDEN_MANIFEST: &str = "HDNHSNAP 1\nsegment_bytes 16384\nlayout_epoch 7\n\
        file superblock 64 2144df1c\nfile vlog-3.dat 224 2144df1c\nend 6842205d\n";

    #[test]
    fn golden_superblock_still_decodes() {
        let sb = crate::pool::Superblock::decode(&unhex(GOLDEN_SUPERBLOCK)).unwrap();
        assert_eq!(sb.version, crate::pool::SUPERBLOCK_VERSION);
        assert!(sb.clean);
        assert_eq!(sb.segment_bytes, 16_384);
        assert_eq!(sb.layout_epoch, 7);
    }

    #[test]
    fn golden_log_record_still_decodes() {
        let rec = unhex(GOLDEN_LOG_RECORD);
        assert_eq!(rec.len(), crate::vlog::footprint(200));
        let (key, payload) = crate::vlog::decode_record(&rec).expect("parent's record verifies");
        assert_eq!(key, hdnh_common::Key::from_u64(0xC0FFEE));
        let want: Vec<u8> = (0..200u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(payload, &want[..]);
    }

    #[test]
    fn golden_manifest_seal_still_verifies() {
        let m = crate::snapshot::SnapshotManifest::decode(GOLDEN_MANIFEST).unwrap();
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.layout_epoch, 7);
    }

    proptest! {
        #[test]
        fn table_kernel_matches_bitwise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + 8),
            start in 0usize..8,
        ) {
            // Every start alignment relative to the buffer: the word loop
            // must not depend on where the slice begins.
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(crc32_ieee(data), crc32_bitwise(data));
        }

        #[test]
        fn split_input_matches_the_whole(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + 8),
            cut in 0usize..4096 + 8,
        ) {
            let (head, tail) = data.split_at(cut.min(data.len()));
            let mut crc = Crc32::new();
            crc.update(head);
            crc.update(tail);
            prop_assert_eq!(crc.finish(), crc32_ieee(&data));
        }
    }

    #[test]
    fn every_split_point_matches_the_whole() {
        let data: Vec<u8> = (0..4104u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for len in [0, 1, 7, 8, 9, 4104] {
            let data = &data[..len];
            for cut in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&data[..cut]);
                crc.update(&data[cut..]);
                assert_eq!(crc.finish(), crc32_ieee(data), "len {len}, cut {cut}");
            }
        }
    }

    #[test]
    fn chunks_around_the_copy_buffer_match_the_whole() {
        const MIB: usize = 1 << 20;
        let data: Vec<u8> = (0..3 * MIB + 5).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32_ieee(&data);
        for chunk in [MIB - 1, MIB, MIB + 1, 3 * MIB + 4, 3 * MIB + 5] {
            let mut crc = Crc32::new();
            data.chunks(chunk).for_each(|c| crc.update(c));
            assert_eq!(crc.finish(), whole, "chunk {chunk}");
        }
    }
}
