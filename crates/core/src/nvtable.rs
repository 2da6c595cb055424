//! The non-volatile table (paper §3.1, figure 2).
//!
//! One [`Level`] is an array of segments in NVM; each segment is an array of
//! 256-byte buckets; each bucket is an 8-byte persisted header (the bitmap
//! word, written with failure-atomic 8-byte stores) followed by eight
//! 31-byte record slots:
//!
//! ```text
//! bucket (256 B, block-aligned):
//!   [ header u64 ][ slot0 31B ][ slot1 31B ] … [ slot7 31B ]
//!     bit i of header = slot i valid           8 + 8×31 = 256
//! ```
//!
//! Keys choose **two candidate segments** (one per hash) and **two candidate
//! buckets inside each segment** — the paper's "2-cuckoo strategy" applied
//! at both granularities, yielding four candidate buckets per level and
//! eight across the two levels.
//!
//! # Integrity bytes and the spill flag
//!
//! The paper leaves the header's upper 7 bytes unused. We pack a **7-bit
//! metadata field per slot** into them — 8 × 7 = 56 bits, exactly filling
//! bits 8..64:
//!
//! ```text
//! header u64:  [ bit 0..8: validity bitmap ][ bits 8+7s .. 15+7s: meta(slot s) ]
//! meta (7 bits): [ bit 6: spill flag ][ bits 0..6: CRC-6 of the record ]
//! ```
//!
//! Bit 6 of the field is the **spill flag**: when set, the slot's 15-byte
//! value is not a payload but a packed pointer into the value log (see
//! `crate::vlog`). The low 6 bits are a CRC-6 (polynomial x⁶+x+1,
//! irreducible) of the record's 31 wire bytes. Because the polynomial is
//! irreducible with a nonzero constant term, the CRC provably detects
//! every single-bit flip and every whole-byte (0xFF) flip; a random
//! corruption is missed with probability 1/64.
//!
//! A slot's meta field is installed **in the same failure-atomic 8-byte
//! header store** that sets its valid bit, so a reader that observes the
//! valid bit always observes the matching checksum *and* spill flag; a
//! checksum mismatch against the record bytes therefore indicates media
//! damage (or a torn record write that a crash made durable), never an
//! in-flight writer. The scrubber and the read path treat a mismatch as a
//! detection, repair from the DRAM hot table when possible, and quarantine
//! the slot otherwise.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{Record, RECORD_LEN};
use hdnh_nvm::{NvmOptions, NvmRegion};

use crate::params::{BUCKET_BYTES, BUCKET_HEADER, SLOTS_PER_BUCKET};

/// Mask selecting the validity bitmap in a bucket header.
pub const HEADER_VALID_MASK: u64 = 0xFF;
/// Width in bits of one per-slot metadata field (spill flag + checksum).
pub const SLOT_META_BITS: u32 = 7;
/// Mask of one metadata field (before shifting).
pub const SLOT_META_MASK: u64 = (1 << SLOT_META_BITS) - 1;
/// Width in bits of the checksum inside a metadata field.
pub const CHECKSUM_BITS: u32 = 6;
/// Mask of the checksum inside a metadata field.
pub const CHECKSUM_MASK: u64 = (1 << CHECKSUM_BITS) - 1;
/// Spill flag inside a metadata field: the slot's value is a packed
/// value-log pointer, not an inline payload.
pub const SPILL_FLAG: u8 = 1 << CHECKSUM_BITS;

/// Bit position of slot `slot`'s metadata field inside the header word.
#[inline]
pub const fn meta_shift(slot: usize) -> u32 {
    8 + SLOT_META_BITS * slot as u32
}

/// One MSB-first bit step of the CRC-6 register: x⁶ feeds back as the low
/// terms x+1 (0b000011).
const fn crc6_bit(crc: u8, bit: u8) -> u8 {
    let fb = ((crc >> 5) ^ bit) & 1;
    ((crc << 1) & 0x3F) ^ (fb * 0b11)
}

/// The register after shifting `byte` in, starting from `crc`.
const fn crc6_byte(mut crc: u8, byte: u8) -> u8 {
    let mut bit = 8;
    while bit > 0 {
        bit -= 1;
        crc = crc6_bit(crc, (byte >> bit) & 1);
    }
    crc
}

/// `CRC6_BYTE[k][b]`: what byte value `b`, followed by `k` zero bytes,
/// leaves in a register that started at zero.
const CRC6_BYTE: [[u8; 256]; 8] = {
    let mut t = [[0u8; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc6_byte(0, b as u8);
        let mut k = 1;
        while k < 8 {
            t[k][b] = crc6_byte(t[k - 1][b], 0);
            k += 1;
        }
        b += 1;
    }
    t
};

/// `CRC6_SKIP8[s]`: register `s` after eight zero bytes.
const CRC6_SKIP8: [u8; 64] = {
    let mut t = [0u8; 64];
    let mut s = 0;
    while s < 64 {
        let mut crc = s as u8;
        let mut k = 0;
        while k < 8 {
            crc = crc6_byte(crc, 0);
            k += 1;
        }
        t[s] = crc;
        s += 1;
    }
    t
};

/// What the 0x3F initial register becomes over a record of zero bytes.
const CRC6_INIT_TAIL: u8 = {
    let mut crc = 0x3F;
    let mut k = 0;
    while k < RECORD_LEN {
        crc = crc6_byte(crc, 0);
        k += 1;
    }
    crc
};

/// CRC-6 (polynomial x⁶+x+1, register initialised to 0x3F, bits taken
/// MSB-first) of a record's wire bytes.
///
/// The polynomial is irreducible over GF(2) with a nonzero constant term,
/// so the check provably detects every single-bit error (x^k is never
/// divisible by it) and every whole-byte 0xFF flip (x^k·(x+1)⁷ shares no
/// factor with an irreducible sextic). Random corruption is missed with
/// probability 1/64 — the price of sharing the 7-bit header field with
/// the spill flag.
///
/// The register update is linear over GF(2), so the checksum is the XOR
/// of what the initial value and each byte contribute on their own. The
/// record is cut into four 8-byte chunks (the first one short a leading
/// byte); a chunk's bytes are looked up independently of each other and
/// of the other chunks, and only three table steps, one per chunk
/// boundary, depend on one another — against 248 dependent shift/xor
/// rounds for the bit-at-a-time form, which the tests keep as the oracle.
#[inline]
pub fn checksum6(bytes: &[u8; RECORD_LEN]) -> u8 {
    #[inline(always)]
    fn chunk(bytes: &[u8]) -> u8 {
        let n = bytes.len();
        let mut acc = 0;
        for (i, &b) in bytes.iter().enumerate() {
            acc ^= CRC6_BYTE[n - 1 - i][b as usize];
        }
        acc
    }
    let (c0, c1, c2, c3) = (
        chunk(&bytes[..7]),
        chunk(&bytes[7..15]),
        chunk(&bytes[15..23]),
        chunk(&bytes[23..]),
    );
    let mut crc = CRC6_SKIP8[c0 as usize] ^ c1;
    crc = CRC6_SKIP8[crc as usize] ^ c2;
    crc = CRC6_SKIP8[crc as usize] ^ c3;
    crc ^ CRC6_INIT_TAIL
}

/// The 7-bit metadata field for a record: CRC-6 of its wire bytes plus
/// the spill flag when the value is a packed value-log pointer.
#[inline]
pub fn slot_meta(rec: &Record, spilled: bool) -> u8 {
    checksum6(&rec.to_bytes()) | if spilled { SPILL_FLAG } else { 0 }
}

/// Validity bitmap of a header word.
#[inline]
pub const fn header_valid_bits(header: u64) -> u64 {
    header & HEADER_VALID_MASK
}

/// Whether slot `slot`'s valid bit is set in `header`.
#[inline]
pub const fn header_slot_valid(header: u64, slot: usize) -> bool {
    header & (1 << slot) != 0
}

/// Extracts slot `slot`'s full 7-bit metadata field from a header word.
#[inline]
pub const fn header_slot_meta(header: u64, slot: usize) -> u8 {
    ((header >> meta_shift(slot)) & SLOT_META_MASK) as u8
}

/// Extracts slot `slot`'s stored CRC-6 checksum from a header word.
#[inline]
pub const fn header_checksum(header: u64, slot: usize) -> u8 {
    header_slot_meta(header, slot) & CHECKSUM_MASK as u8
}

/// Whether slot `slot`'s spill flag is set: its value bytes are a packed
/// value-log pointer, not an inline payload.
#[inline]
pub const fn header_slot_spilled(header: u64, slot: usize) -> bool {
    header_slot_meta(header, slot) & SPILL_FLAG != 0
}

/// Returns `header` with slot `slot`'s metadata field replaced by `meta`.
#[inline]
pub const fn header_with_meta(header: u64, slot: usize, meta: u8) -> u64 {
    let shift = meta_shift(slot);
    (header & !(SLOT_META_MASK << shift)) | (((meta as u64) & SLOT_META_MASK) << shift)
}

/// Packs a validity bitmap and eight 7-bit metadata fields into a header
/// word.
pub fn header_pack(valid: u8, metas: [u8; SLOTS_PER_BUCKET]) -> u64 {
    let mut h = valid as u64;
    let mut s = 0;
    while s < SLOTS_PER_BUCKET {
        h = header_with_meta(h, s, metas[s]);
        s += 1;
    }
    h
}

/// Unpacks a header word into its validity bitmap and eight metadata
/// fields.
pub fn header_unpack(header: u64) -> (u8, [u8; SLOTS_PER_BUCKET]) {
    let mut metas = [0u8; SLOTS_PER_BUCKET];
    for (s, meta) in metas.iter_mut().enumerate() {
        *meta = header_slot_meta(header, s);
    }
    (header_valid_bits(header) as u8, metas)
}

/// Whether a record's bytes match the checksum the header stores for its
/// slot (the spill flag is excluded — it is protocol state, not payload).
/// Only meaningful when the slot's valid bit is set.
#[inline]
pub fn slot_checksum_ok(header: u64, slot: usize, rec: &Record) -> bool {
    header_checksum(header, slot) == checksum6(&rec.to_bytes())
}

/// One level of the non-volatile table.
#[derive(Debug, Clone)]
pub struct Level {
    region: Arc<NvmRegion>,
    n_segments: usize,
    buckets_per_segment: usize,
}

impl Level {
    /// Allocates a zeroed level of `n_segments × buckets_per_segment`
    /// buckets. Panics on backend allocation failure; fallible
    /// construction is [`Level::try_new`].
    pub fn new(n_segments: usize, buckets_per_segment: usize, opts: &NvmOptions) -> Self {
        Self::try_new(n_segments, buckets_per_segment, opts)
            .unwrap_or_else(|e| panic!("level allocation failed: {e}"))
    }

    /// Allocates a zeroed level, surfacing backend (pool-file) failures as
    /// [`HdnhError::Io`](crate::HdnhError::Io) instead of panicking.
    pub fn try_new(
        n_segments: usize,
        buckets_per_segment: usize,
        opts: &NvmOptions,
    ) -> Result<Self, crate::HdnhError> {
        assert!(n_segments.is_power_of_two() && buckets_per_segment.is_power_of_two());
        let bytes = n_segments * buckets_per_segment * BUCKET_BYTES;
        let region = NvmRegion::alloc(bytes, opts, "seg")?;
        Ok(Level {
            region: Arc::new(region),
            n_segments,
            buckets_per_segment,
        })
    }

    /// Re-adopts an existing region (recovery).
    pub fn from_region(
        region: Arc<NvmRegion>,
        n_segments: usize,
        buckets_per_segment: usize,
    ) -> Self {
        assert_eq!(region.len(), n_segments * buckets_per_segment * BUCKET_BYTES);
        Level {
            region,
            n_segments,
            buckets_per_segment,
        }
    }

    /// The backing region.
    #[inline]
    pub fn region(&self) -> &Arc<NvmRegion> {
        &self.region
    }

    /// Segments in this level.
    #[inline]
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// Buckets per segment.
    #[inline]
    pub fn buckets_per_segment(&self) -> usize {
        self.buckets_per_segment
    }

    /// Total buckets.
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.n_segments * self.buckets_per_segment
    }

    /// Total slots.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.n_buckets() * SLOTS_PER_BUCKET
    }

    /// The four candidate (global) bucket indices for a key in this level:
    /// two segment choices × two in-segment bucket choices. Duplicates are
    /// possible when the hashes collide; callers tolerate re-probing.
    ///
    /// Bit budget: the OCF fingerprint is `h1 & 0xFF`, so **no index may
    /// consume h1's low byte** — otherwise every h1-routed resident of a
    /// probed bucket would share the search key's fingerprint and the
    /// filter would silently stop filtering as the table grows (segment
    /// counts ≥ 256 would alias the full fingerprint). h1 therefore
    /// contributes bits 8.. for the segment and 40.. for the bucket; h2 is
    /// fingerprint-free and contributes bits 0.. and 32...
    #[inline]
    pub fn candidates(&self, h: &KeyHashes) -> [usize; 4] {
        let s1 = ((h.h1 >> 8) as usize) & (self.n_segments - 1);
        let s2 = (h.h2 as usize) & (self.n_segments - 1);
        let b1 = ((h.h1 >> 40) as usize) & (self.buckets_per_segment - 1);
        let b2 = ((h.h2 >> 32) as usize) & (self.buckets_per_segment - 1);
        [
            s1 * self.buckets_per_segment + b1,
            s1 * self.buckets_per_segment + b2,
            s2 * self.buckets_per_segment + b1,
            s2 * self.buckets_per_segment + b2,
        ]
    }

    // ---------------- byte offsets ----------------

    /// Byte offset of a bucket's persisted header word.
    #[inline]
    pub fn header_off(&self, bucket: usize) -> usize {
        bucket * BUCKET_BYTES
    }

    /// Byte offset of a record slot.
    #[inline]
    pub fn slot_off(&self, bucket: usize, slot: usize) -> usize {
        debug_assert!(slot < SLOTS_PER_BUCKET);
        bucket * BUCKET_BYTES + BUCKET_HEADER + slot * RECORD_LEN
    }

    // ---------------- persisted bitmap header ----------------

    /// Loads the persisted bitmap word (charged as one NVM block read).
    #[inline]
    pub fn load_header(&self, bucket: usize) -> u64 {
        self.region.atomic_load_u64(self.header_off(bucket), Ordering::Acquire)
    }

    /// Header load *without* a media charge — used right after the same
    /// thread wrote the bucket (line still in cache).
    #[inline]
    pub fn load_header_cached(&self, bucket: usize) -> u64 {
        self.region
            .atomic_load_u64_cached(self.header_off(bucket), Ordering::Acquire)
    }

    /// Atomically sets slot `slot`'s valid bit **and** installs `meta`
    /// (checksum + spill flag, see [`slot_meta`]) in one failure-atomic
    /// 8-byte store, then persists — the commit point of an insert
    /// (figure 9c). A reader that sees the valid bit is guaranteed to see
    /// the matching metadata.
    pub fn commit_slot_valid(&self, bucket: usize, slot: usize, meta: u8) {
        self.commit_header(bucket, |h| {
            header_with_meta(h | (1 << slot), slot, meta)
        });
    }

    /// Atomically clears slot `slot`'s valid bit and zeroes its metadata
    /// field, then persists — the commit point of a delete (and of a
    /// corruption quarantine).
    pub fn commit_slot_invalid(&self, bucket: usize, slot: usize) {
        self.commit_header(bucket, |h| {
            header_with_meta(h & !(1 << slot), slot, 0)
        });
    }

    /// Atomically flips the old and new slots' valid bits and moves the
    /// metadata (`meta` = new record's checksum + spill flag) **in one
    /// 8-byte store** and persists — the paper's figure-10(c) update
    /// commit, which is why the out-of-place slot must live in the same
    /// bucket.
    pub fn commit_slot_swap(&self, bucket: usize, old_slot: usize, new_slot: usize, meta: u8) {
        self.commit_header(bucket, |h| {
            let flipped = h ^ ((1 << old_slot) | (1 << new_slot));
            header_with_meta(header_with_meta(flipped, old_slot, 0), new_slot, meta)
        });
    }

    /// CAS loop applying `f` to the header word, then persist. Each CAS
    /// attempt is one charged 8-byte store, so a single-threaded commit
    /// costs exactly what the old fetch-op commit did; the pre-read rides
    /// the cached line the caller just wrote (same 256 B block as the
    /// record).
    fn commit_header(&self, bucket: usize, f: impl Fn(u64) -> u64) {
        let off = self.header_off(bucket);
        let mut cur = self.load_header_cached(bucket);
        loop {
            match self
                .region
                .atomic_cas_u64(off, cur, f(cur), Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.region.persist(off, 8);
        self.region.assert_persisted(off, 8);
    }

    // ---------------- record slots ----------------

    /// Writes a record into a slot and persists it (flush + fence). Does
    /// **not** set the valid bit; the caller commits separately so a crash
    /// between the two leaves the slot invisible (invariant I1).
    pub fn write_record(&self, bucket: usize, slot: usize, rec: &Record) {
        let off = self.slot_off(bucket, slot);
        self.region.write_pod(off, &rec.to_bytes());
        self.region.persist(off, RECORD_LEN);
        self.region.assert_persisted(off, RECORD_LEN);
    }

    /// Reads the record stored in a slot (charged as one NVM block read —
    /// a slot never crosses a 256-byte bucket boundary).
    #[inline]
    pub fn read_record(&self, bucket: usize, slot: usize) -> Record {
        let bytes: [u8; RECORD_LEN] = self.region.read_pod(self.slot_off(bucket, slot));
        Record::from_bytes(&bytes)
    }

    /// Reads an entire bucket (header + slots) in one charged access —
    /// what a recovery scan or a filter-less probe does: one media block.
    pub fn read_bucket(&self, bucket: usize) -> (u64, [Record; SLOTS_PER_BUCKET]) {
        let mut raw = [0u8; BUCKET_BYTES];
        self.region.read_into(self.header_off(bucket), &mut raw);
        let header = u64::from_le_bytes(raw[..8].try_into().unwrap());
        let mut recs = [Record::new(hdnh_common::Key::ZERO, hdnh_common::Value::ZERO);
            SLOTS_PER_BUCKET];
        for (i, rec) in recs.iter_mut().enumerate() {
            let start = BUCKET_HEADER + i * RECORD_LEN;
            let bytes: [u8; RECORD_LEN] =
                raw[start..start + RECORD_LEN].try_into().unwrap();
            *rec = Record::from_bytes(&bytes);
        }
        (header, recs)
    }

    /// Re-zeroes every bucket header, persisted — recovery's "apply for
    /// the new level again": a region that was mid-allocation at the crash
    /// may hold torn header words, and clearing the valid bits is enough
    /// to make every stale slot invisible again.
    pub fn wipe_headers(&self) {
        for b in 0..self.n_buckets() {
            let off = self.header_off(b);
            self.region.atomic_store_u64(off, 0, Ordering::Release);
            self.region.persist(off, 8);
        }
    }

    /// Number of valid slots according to the persisted headers (recovery /
    /// diagnostics; charged reads). Masks off the checksum bits — only the
    /// low byte is the validity bitmap.
    pub fn count_valid(&self) -> usize {
        (0..self.n_buckets())
            .map(|b| header_valid_bits(self.load_header(b)).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh_common::{Key, Value};
    use proptest::prelude::*;

    /// The bit-at-a-time form the table kernel replaced, kept as the
    /// oracle.
    fn checksum6_bitwise(bytes: &[u8; RECORD_LEN]) -> u8 {
        // MSB-first; x⁶ feeds back as the low terms x+1 (0b000011).
        let mut crc: u8 = 0x3F;
        for &b in bytes {
            let mut bit = 8u32;
            while bit > 0 {
                bit -= 1;
                let fb = ((crc >> 5) ^ (b >> bit)) & 1;
                crc = ((crc << 1) & 0x3F) ^ (fb * 0b11);
            }
        }
        crc
    }

    /// The records behind [`GOLDEN_FULL`] and [`GOLDEN_SPARSE`], with
    /// whether each is spilled.
    fn golden_records() -> [(Record, bool); SLOTS_PER_BUCKET] {
        let ptr = |segment, offset, len| crate::VlogPtr { segment, offset, len }.to_value();
        [
            (Record::new(Key::from_u64(0), Value::from_u64(0)), false),
            (Record::new(Key::from_u64(1), Value::from_u64(u64::MAX)), false),
            (
                Record::new(Key::from_u64(0xC0FFEE), Value::from_u64(0x1234_5678_9ABC_DEF0)),
                false,
            ),
            (Record::new(Key([0xFF; 16]), Value([0xFF; 15])), false),
            (Record::new(Key::from_u64(42), ptr(3, 4096, 200)), true),
            (Record::new(Key::from_u64(7), ptr(0, 0, 15)), true),
            (Record::new(Key(*b"sixteen byte key"), Value(*b"fifteen b value")), false),
            (
                Record::new(Key::from_u64(u64::MAX), ptr(u32::MAX, u32::MAX - 7, 1 << 20)),
                true,
            ),
        ]
    }

    // Header words the bitwise kernel of the parent commit packed for
    // `golden_records` (all eight slots; slots 2, 4 and 7 only). They must
    // keep verifying, or every bucket written by an earlier build would
    // read as damaged.
    const GOLDEN_FULL: u64 = 0xbe9e_6f85_6844_17ff;
    const GOLDEN_SPARSE: u64 = 0xbe00_0780_0840_0094;

    #[test]
    fn golden_headers_from_the_parent_still_verify() {
        let recs = golden_records();
        for (slot, (rec, spilled)) in recs.iter().enumerate() {
            assert!(header_slot_valid(GOLDEN_FULL, slot));
            assert!(slot_checksum_ok(GOLDEN_FULL, slot, rec), "slot {slot}");
            assert_eq!(header_slot_spilled(GOLDEN_FULL, slot), *spilled, "slot {slot}");
            assert_eq!(header_slot_meta(GOLDEN_FULL, slot), slot_meta(rec, *spilled));
        }
        for slot in [2, 4, 7] {
            assert!(header_slot_valid(GOLDEN_SPARSE, slot));
            assert!(slot_checksum_ok(GOLDEN_SPARSE, slot, &recs[slot].0), "slot {slot}");
        }
        let metas = std::array::from_fn(|s| slot_meta(&recs[s].0, recs[s].1));
        assert_eq!(header_pack(0xFF, metas), GOLDEN_FULL);
    }

    #[test]
    fn table_kernel_matches_oracle_on_every_flip_of_a_fixed_record() {
        let clean = golden_records()[2].0.to_bytes();
        let ck = checksum6(&clean);
        assert_eq!(ck, checksum6_bitwise(&clean));
        for i in 0..RECORD_LEN {
            // Every single-bit flip and the whole-byte flip: equal to the
            // oracle, and (the polynomial's guarantee) never equal to the
            // clean checksum.
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut dam = clean;
                dam[i] ^= mask;
                assert_eq!(checksum6(&dam), checksum6_bitwise(&dam), "byte {i} mask {mask:#x}");
                assert_ne!(checksum6(&dam), ck, "byte {i} mask {mask:#x} undetected");
            }
        }
    }

    proptest! {
        #[test]
        fn table_kernel_matches_bitwise_oracle(bytes in any::<[u8; RECORD_LEN]>()) {
            prop_assert_eq!(checksum6(&bytes), checksum6_bitwise(&bytes));
            prop_assert!(checksum6(&bytes) <= CHECKSUM_MASK as u8);
        }
    }

    fn level() -> Level {
        Level::new(4, 8, &NvmOptions::fast())
    }

    #[test]
    fn geometry() {
        let l = level();
        assert_eq!(l.n_buckets(), 32);
        assert_eq!(l.n_slots(), 256);
        assert_eq!(l.region().len(), 32 * 256);
        assert_eq!(l.header_off(3), 768);
        assert_eq!(l.slot_off(0, 0), 8);
        assert_eq!(l.slot_off(0, 7), 8 + 7 * 31);
        assert_eq!(l.slot_off(1, 0), 256 + 8);
    }

    #[test]
    fn slots_stay_inside_their_bucket() {
        let l = level();
        for b in 0..l.n_buckets() {
            for s in 0..SLOTS_PER_BUCKET {
                let off = l.slot_off(b, s);
                assert!(off / BUCKET_BYTES == b && (off + RECORD_LEN - 1) / BUCKET_BYTES == b);
            }
        }
    }

    #[test]
    fn candidates_in_range_and_deterministic() {
        let l = level();
        for i in 0..1000u64 {
            let h = KeyHashes::of(&Key::from_u64(i));
            let c = l.candidates(&h);
            assert_eq!(c, l.candidates(&h));
            for b in c {
                assert!(b < l.n_buckets());
            }
        }
    }

    #[test]
    fn candidates_share_segments_pairwise() {
        let l = level();
        let h = KeyHashes::of(&Key::from_u64(99));
        let c = l.candidates(&h);
        // c[0],c[1] in one segment; c[2],c[3] in another (possibly equal).
        assert_eq!(c[0] / l.buckets_per_segment(), c[1] / l.buckets_per_segment());
        assert_eq!(c[2] / l.buckets_per_segment(), c[3] / l.buckets_per_segment());
    }

    #[test]
    fn record_roundtrip_and_commit() {
        let l = level();
        let rec = Record::new(Key::from_u64(5), Value::from_u64(55));
        let ck = checksum6(&rec.to_bytes());
        l.write_record(2, 3, &rec);
        assert_eq!(l.load_header(2), 0, "valid bit not yet set");
        l.commit_slot_valid(2, 3, ck);
        assert_eq!(header_valid_bits(l.load_header(2)), 1 << 3);
        assert_eq!(header_checksum(l.load_header(2), 3), ck);
        assert!(slot_checksum_ok(l.load_header(2), 3, &rec));
        assert_eq!(l.read_record(2, 3), rec);
        l.commit_slot_invalid(2, 3);
        assert_eq!(l.load_header(2), 0, "valid bit and checksum both cleared");
    }

    #[test]
    fn swap_flips_both_bits_atomically() {
        let l = level();
        let old = Record::new(Key::from_u64(8), Value::from_u64(80));
        let new = Record::new(Key::from_u64(8), Value::from_u64(81));
        l.write_record(0, 1, &old);
        l.commit_slot_valid(0, 1, checksum6(&old.to_bytes()));
        l.write_record(0, 4, &new);
        let before = l.stats_writes();
        l.commit_slot_swap(0, 1, 4, checksum6(&new.to_bytes()));
        let h = l.load_header(0);
        assert_eq!(header_valid_bits(h), 1 << 4);
        assert_eq!(header_checksum(h, 1), 0, "old slot's checksum cleared");
        assert!(slot_checksum_ok(h, 4, &new));
        // Exactly one data store (plus persist) for the double flip.
        assert_eq!(l.stats_writes() - before, 1);
    }

    impl Level {
        fn stats_writes(&self) -> u64 {
            self.region.stats().snapshot().writes
        }
    }

    #[test]
    fn read_bucket_matches_slot_reads() {
        let l = level();
        for s in [0usize, 3, 7] {
            let rec = Record::new(Key::from_u64(s as u64), Value::from_u64(100 + s as u64));
            l.write_record(1, s, &rec);
            l.commit_slot_valid(1, s, checksum6(&rec.to_bytes()));
        }
        let (header, recs) = l.read_bucket(1);
        assert_eq!(header_valid_bits(header), 0b1000_1001);
        for s in [0usize, 3, 7] {
            assert_eq!(recs[s], l.read_record(1, s));
            assert_eq!(recs[s].key.as_u64(), s as u64);
            assert!(slot_checksum_ok(header, s, &recs[s]));
        }
    }

    #[test]
    fn bucket_read_is_one_block() {
        let l = level();
        let before = l.region().stats().snapshot();
        let _ = l.read_bucket(9);
        let d = l.region().stats().snapshot().since(&before);
        assert_eq!(d.read_blocks, 1);
    }

    #[test]
    fn count_valid_sums_headers() {
        let l = level();
        // Non-zero checksums must not inflate the count.
        l.commit_slot_valid(0, 0, 0x7F);
        l.commit_slot_valid(0, 1, 0x55);
        l.commit_slot_valid(31, 7, 0x7F);
        assert_eq!(l.count_valid(), 3);
    }

    #[test]
    fn header_pack_unpack_roundtrip() {
        let cks = [0u8, 1, 0x7F, 0x2A, 0x55, 0x13, 0x40, 0x6E];
        let h = header_pack(0b1010_0110, cks);
        let (valid, got) = header_unpack(h);
        assert_eq!(valid, 0b1010_0110);
        assert_eq!(got, cks);
        // Fields are independent: replacing one checksum leaves the rest.
        let h2 = header_with_meta(h, 2, 0x01);
        let (_, got2) = header_unpack(h2);
        assert_eq!(got2[2], 0x01);
        for s in [0usize, 1, 3, 4, 5, 6, 7] {
            assert_eq!(got2[s], cks[s], "slot {s} disturbed");
        }
        assert_eq!(header_valid_bits(h2), 0b1010_0110);
    }

    #[test]
    fn checksum_detects_single_byte_damage() {
        let rec = Record::new(Key::from_u64(77), Value::from_u64(770));
        let clean = rec.to_bytes();
        let ck = checksum6(&clean);
        for i in 0..RECORD_LEN {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut dam = clean;
                dam[i] ^= mask;
                assert_ne!(checksum6(&dam), ck, "byte {i} mask {mask:#x} undetected");
            }
        }
    }

    #[test]
    fn checksum_mismatch_after_in_place_corruption() {
        let l = level();
        let rec = Record::new(Key::from_u64(5), Value::from_u64(55));
        l.write_record(0, 2, &rec);
        l.commit_slot_valid(0, 2, checksum6(&rec.to_bytes()));
        assert!(slot_checksum_ok(l.load_header(0), 2, &l.read_record(0, 2)));
        // Flip one media bit in the record's value bytes.
        l.region().corrupt(l.slot_off(0, 2) + 20, &[0x04]);
        assert!(!slot_checksum_ok(l.load_header(0), 2, &l.read_record(0, 2)));
    }

    #[test]
    fn insert_protocol_is_crash_safe_record_first() {
        // Strict region: crash between record write and bit set leaves the
        // slot invisible; crash after bit set keeps the full record.
        let l = Level::new(1, 2, &NvmOptions::strict());
        let rec = Record::new(Key::from_u64(1), Value::from_u64(2));
        l.write_record(0, 0, &rec);
        // Crash before commit: record bytes may be anything, but the valid
        // bit is 0.
        let mut rng = hdnh_common::rng::XorShift64Star::new(3);
        l.region().crash(&mut rng, hdnh_nvm::LossMode::TearLines);
        assert_eq!(l.load_header(0) & 1, 0);

        let rec2 = Record::new(Key::from_u64(9), Value::from_u64(10));
        l.write_record(0, 1, &rec2);
        l.commit_slot_valid(0, 1, checksum6(&rec2.to_bytes()));
        l.region().crash(&mut rng, hdnh_nvm::LossMode::TearLines);
        assert_eq!(l.load_header(0) & 0b10, 0b10);
        assert_eq!(l.read_record(0, 1), rec2);
    }
}
