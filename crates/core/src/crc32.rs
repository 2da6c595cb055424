//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the one
//! checksum behind superblocks, snapshot manifests and value-log records.
//!
//! Every spilled read, append, verify, relocation, recovery scan and
//! snapshot checksums whole records or files, so the checksum has two
//! kernels behind one [`Crc32::update`]:
//!
//! * **carry-less multiply** (x86-64 with `PCLMULQDQ` and SSE4.1, detected
//!   at run time): four 128-bit lanes fold 64 bytes per step, one lane
//!   folds what is left 16 bytes at a time, and a Barrett reduction for
//!   the reflected polynomial brings the 128-bit remainder down to the
//!   32-bit register. Inputs under 16 bytes, and the last under-16-byte
//!   piece of a longer one, go to the table kernel;
//! * **slicing-by-8 tables**: eight `const`-generated tables fold one
//!   64-bit little-endian word per step instead of running eight
//!   dependent shift/xor rounds per byte. It is the kernel on every other
//!   host, the tail of the first, and the tests' oracle for it.
//!
//! Both compute the same function: the polynomial, reflection and final
//! inversion are unchanged, so checksums written by earlier builds verify
//! as they are.

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
        #[cfg(target_arch = "x86_64")]
        if data.len() >= 16 && clmul::available() {
            // SAFETY: the CPU has the features the kernel is compiled for.
            self.0 = unsafe { clmul::update(self.0, data) };
            return;
        }
        self.0 = update_table(self.0, data);
    }

    #[inline]
    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

/// The slicing-by-8 kernel: folds `data` into the register `crc`.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// The carry-less-multiply kernel (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in its
/// bit-reflected form. Each constant is `x^k mod P(x)`, reflected, for the
/// fold distance `k` it serves; `P_X` is the polynomial with its x^32 term
/// and `MU` is `⌊x^64 / P(x)⌋`, both reflected, for the Barrett step.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128−32): fold a lane across 64 bytes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32): fold across 16 bytes.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64: fold the last 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`update`]. The detection is cached by `std`:
    /// after the first call this is two loads of one static.
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `a`'s two 64-bit halves multiplied across the fold distance in
    /// `k`, added into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The next 16 bytes of `data`, which has at least that many.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn next(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(head.as_ptr().cast()) }
    }

    /// Folds `data` (at least 16 bytes) into the register `crc`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 16);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = _mm_xor_si128(next(&mut data), _mm_cvtsi32_si128(crc as i32));
        if data.len() >= 48 {
            let k1k2 = _mm_set_epi64x(K2, K1);
            let (mut x1, mut x2, mut x3) = (next(&mut data), next(&mut data), next(&mut data));
            while data.len() >= 64 {
                x = fold(x, next(&mut data), k1k2);
                x1 = fold(x1, next(&mut data), k1k2);
                x2 = fold(x2, next(&mut data), k1k2);
                x3 = fold(x3, next(&mut data), k1k2);
            }
            x = fold(x, x1, k3k4);
            x = fold(x, x2, k3k4);
            x = fold(x, x3, k3k4);
        }
        while data.len() >= 16 {
            x = fold(x, next(&mut data), k3k4);
        }
        // 128 bits to 64: the low 64 bits fold over the rest (K4), then the
        // low 32 of what remains (K5), as in the Linux and zlib kernels.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·µ, T2 = (T1 mod x^32)·P, and the
        // remainder is the upper half of R + T2 (reflected).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_table(crc, data)
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
        let (key, payload) = crate::vlog::segment::decode_record(&rec).expect("parent's record verifies");
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
        fn table_kernel_alone_matches_bitwise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + 8),
            start in 0usize..8,
        ) {
            // The fallback of every non-x86 host, called directly so an
            // x86 host checks it too.
            let data = &data[start.min(data.len())..];
            prop_assert_eq!(!update_table(!0, data), crc32_bitwise(data));
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

    /// The dispatching kernel (carry-less multiply where the CPU has it)
    /// against the table kernel on every length from 0 to 4 KiB + 15 — each
    /// lane count and every tail length — at every start offset mod 16,
    /// fed whole and in two pieces split at a point that moves with the
    /// length and offset.
    #[test]
    fn kernels_agree_on_every_length_offset_and_split() {
        const MAX: usize = 4096 + 15;
        let buf: Vec<u8> = (0..MAX + 16)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_left(7) as u8)
            .collect();
        for len in 0..=MAX {
            for off in 0..16 {
                let data = &buf[off..off + len];
                let want = !update_table(!0, data);
                let mut whole = Crc32::new();
                whole.update(data);
                assert_eq!(whole.finish(), want, "len {len}, offset {off}");
                let cut = (len * 7 + off * 13) % (len + 1);
                let mut split = Crc32::new();
                split.update(&data[..cut]);
                split.update(&data[cut..]);
                assert_eq!(split.finish(), want, "len {len}, offset {off}, cut {cut}");
            }
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
