//! One value-log segment: an append-only NVM region of checksummed
//! records.
//!
//! Record wire format (all integers little-endian):
//!
//! ```text
//! ┌──────────┬──────────┬───────────────┬──────────┬─────────┐
//! │ len: u32 │ key: 16B │ payload: len B│ crc: u32 │ pad → 8 │
//! └──────────┴──────────┴───────────────┴──────────┴─────────┘
//! ```
//!
//! The CRC32 (IEEE, the same polynomial as the superblock's) covers the
//! length, key and payload, so a torn write anywhere in a record — length
//! word, key, payload or the checksum itself — is detected and never
//! forged into a shorter-but-valid record. Records are reserved at 8-byte
//! granularity with one `fetch_add` on the tail cursor; a reservation that
//! would cross the end of the region seals the segment instead of writing,
//! leaving the unreserved suffix zero (a zero length word is the scan
//! terminator).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hdnh_common::{Key, KEY_LEN};
use hdnh_nvm::{fault, NvmRegion};

use crate::crc32::crc32_ieee;

/// Fixed bytes around each record's payload: 4-byte length, 16-byte key,
/// 4-byte CRC32.
pub(crate) const RECORD_OVERHEAD: usize = 4 + KEY_LEN + 4;

/// Bytes a record with a `payload_len`-byte payload occupies in a segment
/// (8-byte aligned so concurrent reservations never share a word).
pub fn footprint(payload_len: usize) -> usize {
    (RECORD_OVERHEAD + payload_len + 7) & !7
}

/// Record images up to this many bytes are staged on the stack — by an
/// append that encodes one and by a visitor read that verifies one; a
/// larger image gets a heap buffer of its own for the one call. 1 KiB
/// takes a payload of 1 000 bytes.
pub(crate) const STACK_IMAGE_MAX: usize = 1024;

/// Encodes one record into `image`, whose length is the record's aligned
/// [`footprint`]; the pad past the checksum is zeroed.
pub(crate) fn encode_record_into(key: &Key, payload: &[u8], image: &mut [u8]) {
    let n = payload.len();
    assert_eq!(image.len(), footprint(n), "a record image is its footprint long");
    image[0..4].copy_from_slice(&(n as u32).to_le_bytes());
    image[4..4 + KEY_LEN].copy_from_slice(&key.0);
    image[4 + KEY_LEN..4 + KEY_LEN + n].copy_from_slice(payload);
    let crc = crc32_ieee(&image[..4 + KEY_LEN + n]);
    image[4 + KEY_LEN + n..RECORD_OVERHEAD + n].copy_from_slice(&crc.to_le_bytes());
    image[RECORD_OVERHEAD + n..].fill(0);
}

/// [`encode_record_into`] a fresh buffer.
pub(crate) fn encode_record(key: &Key, payload: &[u8]) -> Vec<u8> {
    let mut image = vec![0u8; footprint(payload.len())];
    encode_record_into(key, payload, &mut image);
    image
}

/// Decodes a record from `buf` (which must start at a record boundary and
/// hold at least `RECORD_OVERHEAD + len` bytes). Returns the key and
/// payload when the length matches and the CRC verifies.
pub(crate) fn decode_record(buf: &[u8]) -> Option<(Key, &[u8])> {
    if buf.len() < RECORD_OVERHEAD {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > super::MAX_VALUE_BYTES || buf.len() < RECORD_OVERHEAD + len {
        return None;
    }
    let crc = u32::from_le_bytes(buf[4 + KEY_LEN + len..RECORD_OVERHEAD + len].try_into().unwrap());
    if crc != crc32_ieee(&buf[..4 + KEY_LEN + len]) {
        return None;
    }
    let mut key = [0u8; KEY_LEN];
    key.copy_from_slice(&buf[4..4 + KEY_LEN]);
    Some((Key(key), &buf[4 + KEY_LEN..4 + KEY_LEN + len]))
}

/// One append-only log segment over an [`NvmRegion`].
#[derive(Debug)]
pub(crate) struct VlogSegment {
    id: u32,
    region: Arc<NvmRegion>,
    /// Reservation cursor in bytes. May overshoot the capacity: the first
    /// reservation whose end crosses the capacity seals the segment and
    /// writes nothing.
    tail: AtomicU64,
    sealed: AtomicBool,
    /// Appends between announcing themselves and their caller's index
    /// publish (or abandonment) returning — see [`AppendTicket`].
    inflight: AtomicU64,
    /// Bytes (aligned footprints) of records no longer referenced by the
    /// index — tombstoned by overwrite, delete, or GC relocation.
    garbage: AtomicU64,
}

/// Held from an append's announcement until the index publish of its
/// pointer (or its abandonment) has returned. The compactor seals a
/// victim and then waits for its tickets to drain
/// ([`VlogSegment::quiesce`]), so it never scans past a reserved but
/// unwritten record, nor judges a written but unpublished one dead.
/// Dropping the ticket (also on unwind) releases it.
#[derive(Debug)]
pub(crate) struct AppendTicket(Arc<VlogSegment>);

impl Drop for AppendTicket {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl VlogSegment {
    pub(crate) fn new(id: u32, region: Arc<NvmRegion>) -> VlogSegment {
        VlogSegment {
            id,
            region,
            tail: AtomicU64::new(0),
            sealed: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            garbage: AtomicU64::new(0),
        }
    }

    /// The segment's id (the pointer's `segment` field).
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// Total region bytes.
    pub(crate) fn capacity(&self) -> u64 {
        self.region.len() as u64
    }

    /// Bytes written so far (reservation cursor clamped to capacity).
    pub(crate) fn used(&self) -> u64 {
        self.tail.load(Ordering::Acquire).min(self.capacity())
    }

    /// Bytes of tombstoned records.
    pub(crate) fn garbage_bytes(&self) -> u64 {
        self.garbage.load(Ordering::Relaxed)
    }

    /// Whether the segment accepts no further appends.
    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    pub(crate) fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// Waits until no append that could still land in this (sealed)
    /// segment is in flight. `sealed` and `inflight` are both `SeqCst`: an
    /// appender announces itself *before* it checks the seal and the
    /// compactor seals *before* it reads the count, so either the
    /// compactor sees the appender or the appender sees the seal.
    pub(crate) fn quiesce(&self) {
        debug_assert!(self.is_sealed());
        while self.inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    pub(crate) fn region(&self) -> &Arc<NvmRegion> {
        &self.region
    }

    /// Installs recovered state: the scanned tail and recomputed garbage.
    pub(crate) fn set_recovered(&self, tail: u64, garbage: u64) {
        self.tail.store(tail, Ordering::Release);
        self.garbage.store(garbage, Ordering::Release);
        self.seal();
    }

    pub(crate) fn mark_garbage(&self, bytes: u64) {
        self.garbage.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Appends one encoded record image (`rec.len()` is its aligned
    /// [`footprint`]): reserve with a single `fetch_add`, write, then
    /// persist (flush + fence) so the payload is durable *before* the
    /// caller publishes an index pointer to it — the §15 power-loss model's
    /// ordering requirement. Returns the record's byte offset and the
    /// ticket the caller holds across that publish, or `None` when the
    /// record does not fit (the segment is sealed as a side effect; the
    /// caller rotates to a fresh segment).
    pub(crate) fn try_append(self: &Arc<Self>, rec: &[u8]) -> Option<(u32, AppendTicket)> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let ticket = AppendTicket(Arc::clone(self));
        if self.is_sealed() {
            return None;
        }
        let need = rec.len() as u64;
        let off = self.tail.fetch_add(need, Ordering::AcqRel);
        if off + need > self.capacity() {
            self.seal();
            return None;
        }
        self.region.write_bytes(off as usize, rec);
        self.region.persist(off as usize, rec.len());
        fault::point("vlog.appended");
        Some((off as u32, ticket))
    }

    /// Bytes of the record image a pointer to `offset` with a `len`-byte
    /// payload names (length, key, payload, checksum — no pad), or
    /// `Err(())` when no such record can lie in this segment. Checked
    /// before a buffer is sized by a length that came off the media.
    fn image_len(&self, offset: u32, len: u32) -> Result<usize, ()> {
        let len = len as usize;
        if len > super::MAX_VALUE_BYTES || offset as usize + footprint(len) > self.region.len() {
            return Err(());
        }
        Ok(RECORD_OVERHEAD + len)
    }

    /// The one spilled read: fills `image` — exactly
    /// [`image_len`](Self::image_len) bytes — with the record at `offset`
    /// in one media read, verifies it in place and lends its payload.
    /// `Err(())` means the bytes there do not checksum to a record
    /// carrying this key and length — corruption (or a dangling pointer),
    /// never a forged value, and not a byte of it is lent.
    fn read_record_into<'a>(&self, offset: u32, key: &Key, image: &'a mut [u8]) -> Result<&'a [u8], ()> {
        let len = image.len() - RECORD_OVERHEAD;
        self.region.read_into(offset as usize, image);
        match decode_record(image) {
            Some((k, payload)) if k == *key && payload.len() == len => Ok(payload),
            _ => Err(()),
        }
    }

    /// Lends `f` the verified payload of the record at `offset`: its image
    /// is staged on the stack, or — above [`STACK_IMAGE_MAX`] — in a heap
    /// buffer that lives for this call.
    pub(crate) fn read_with<R>(
        &self,
        offset: u32,
        len: u32,
        key: &Key,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, ()> {
        let n = self.image_len(offset, len)?;
        if n <= STACK_IMAGE_MAX {
            let mut image = [0u8; STACK_IMAGE_MAX];
            self.read_record_into(offset, key, &mut image[..n]).map(f)
        } else {
            let mut image = vec![0u8; n];
            self.read_record_into(offset, key, &mut image).map(f)
        }
    }

    /// The verified payload of the record at `offset`, returned in the
    /// buffer the media read filled: one allocation, one copy.
    pub(crate) fn read(&self, offset: u32, len: u32, key: &Key) -> Result<Vec<u8>, ()> {
        let mut rec = vec![0u8; self.image_len(offset, len)?];
        self.read_record_into(offset, key, &mut rec)?;
        let payload = 4 + KEY_LEN..4 + KEY_LEN + len as usize;
        rec.copy_within(payload, 0);
        rec.truncate(len as usize);
        Ok(rec)
    }

    /// Whether the record at `offset` verifies for this key and length.
    pub(crate) fn verify(&self, offset: u32, len: u32, key: &Key) -> bool {
        self.read_with(offset, len, key, |_| ()).is_ok()
    }

    /// Walks the dense prefix of decodable records in `[0, end)`, handing
    /// each one's offset, key, payload length and whole image (its aligned
    /// footprint, checksummed once, in a buffer reused across records) to
    /// `f`. Returns the offset of the first hole: a zero/absurd length
    /// word, a record overrunning `end`, or a CRC failure (a torn append).
    fn walk(&self, end: usize, mut f: impl FnMut(u32, &Key, usize, &[u8])) -> u64 {
        let mut rec = Vec::new();
        let mut off = 0usize;
        while off + RECORD_OVERHEAD <= end {
            let mut lenb = [0u8; 4];
            self.region.peek(off, &mut lenb);
            let len = u32::from_le_bytes(lenb) as usize;
            if len == 0 || len > super::MAX_VALUE_BYTES || off + footprint(len) > end {
                break;
            }
            rec.resize(footprint(len), 0);
            self.region.peek(off, &mut rec);
            match decode_record(&rec) {
                Some((k, _)) => f(off as u32, &k, len, &rec),
                None => break,
            }
            off += footprint(len);
        }
        off as u64
    }

    /// The offset of the first hole in the whole region. Used on recovery;
    /// the true tail is the max of this and the highest end of any live
    /// pointer.
    pub(crate) fn scan_tail(&self) -> u64 {
        self.walk(self.region.len(), |_, _, _, _| {})
    }

    /// Iterates decodable records (offset, key, payload length, record
    /// image) from offset 0 up to the current tail, skipping nothing: a
    /// quiesced log is dense until its tail by construction.
    pub(crate) fn for_each_record(&self, f: impl FnMut(u32, &Key, usize, &[u8])) {
        self.walk(self.used() as usize, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdnh_nvm::NvmOptions;
    use proptest::prelude::*;

    fn seg(cap: usize) -> Arc<VlogSegment> {
        let region = NvmRegion::alloc(cap, &NvmOptions::fast(), "vlog").unwrap();
        Arc::new(VlogSegment::new(7, Arc::new(region)))
    }

    fn append(s: &Arc<VlogSegment>, key: &Key, payload: &[u8]) -> Option<u32> {
        s.try_append(&encode_record(key, payload)).map(|(off, _ticket)| off)
    }

    #[test]
    fn record_roundtrip_and_footprint_alignment() {
        for n in [0usize, 1, 7, 8, 100, 4096] {
            let key = Key::from_u64(n as u64 + 1);
            let payload: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            let rec = encode_record(&key, &payload);
            assert_eq!(rec.len(), footprint(n));
            assert_eq!(rec.len() % 8, 0);
            let (k, p) = decode_record(&rec).expect("decodes");
            assert_eq!(k, key);
            assert_eq!(p, &payload[..]);
        }
    }

    #[test]
    fn single_byte_damage_is_detected() {
        let key = Key::from_u64(42);
        let payload = vec![0xA5u8; 200];
        let rec = encode_record(&key, &payload);
        for pos in 0..RECORD_OVERHEAD + payload.len() {
            let mut bad = rec.clone();
            bad[pos] ^= 0x01;
            // Damage may shrink the length field; the decode must never
            // produce a (key, payload) pair different from the original
            // without failing the CRC.
            if let Some((k, p)) = decode_record(&bad) {
                assert!(k == key && p == &payload[..], "forged record at byte {pos}");
            }
        }
    }

    #[test]
    fn append_read_and_seal_on_overflow() {
        let s = seg(256);
        let key = Key::from_u64(1);
        let payload = vec![9u8; 40]; // footprint 64
        let mut offs = Vec::new();
        for _ in 0..4 {
            offs.push(append(&s, &key, &payload).expect("fits"));
        }
        assert!(append(&s, &key, &payload).is_none(), "fifth append overflows");
        assert!(s.is_sealed());
        for off in offs {
            assert_eq!(s.read(off, 40, &key).unwrap(), payload);
        }
        // Wrong key / wrong length never forge a value.
        assert!(s.read(0, 40, &Key::from_u64(2)).is_err());
        assert!(s.read(0, 39, &key).is_err());
    }

    #[test]
    fn in_place_read_never_forges_under_damage_or_wrong_pointer() {
        let s = seg(1024);
        let key = Key::from_u64(42);
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 7 % 253) as u8).collect();
        append(&s, &Key::from_u64(1), &[0x11u8; 30]).unwrap();
        let off = append(&s, &key, &payload).unwrap();
        assert_eq!(s.read(off, 200, &key).unwrap(), payload);
        assert!(s.verify(off, 200, &key));
        // Every single-byte flip of the record fails the read outright —
        // the in-place shift never hands back a partly verified buffer.
        for pos in 0..RECORD_OVERHEAD + payload.len() {
            s.region().corrupt(off as usize + pos, &[0x01]);
            assert!(s.read(off, 200, &key).is_err(), "flip at byte {pos} served");
            assert!(!s.verify(off, 200, &key), "flip at byte {pos} verified");
            s.region().corrupt(off as usize + pos, &[0x01]);
        }
        assert_eq!(s.read(off, 200, &key).unwrap(), payload);
        // A wrong key, a wrong length, a misaligned or out-of-range offset
        // never forge a value.
        assert!(s.read(off, 200, &Key::from_u64(43)).is_err());
        for len in [0, 1, 199, 201, 1000, u32::MAX] {
            assert!(s.read(off, len, &key).is_err(), "length {len} served");
        }
        assert!(s.read(off + 8, 200, &key).is_err());
        assert!(s.read(1000, 200, &key).is_err());
    }

    #[test]
    fn lent_and_owned_reads_agree_on_both_sides_of_the_stack_limit() {
        let at_limit = STACK_IMAGE_MAX - RECORD_OVERHEAD;
        let s = seg(64 * 1024);
        let key = Key::from_u64(5);
        for n in [1, 15, 200, at_limit - 1, at_limit, at_limit + 1, 8 * 1024] {
            let payload: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
            // A dirty buffer: the encoder owns every byte of the image.
            let mut image = vec![0xEEu8; footprint(n)];
            encode_record_into(&key, &payload, &mut image);
            assert_eq!(image, encode_record(&key, &payload), "{n} bytes");
            let off = s.try_append(&image).map(|(off, _ticket)| off).expect("fits");
            let owned = s.read(off, n as u32, &key).unwrap();
            assert_eq!(owned, payload, "{n} bytes");
            assert_eq!(s.read_with(off, n as u32, &key, <[u8]>::to_vec).unwrap(), owned);
            // The visitor is not called on a record that does not verify.
            s.region().corrupt(off as usize + RECORD_OVERHEAD + n - 1, &[0x80]);
            let mut called = false;
            assert!(s.read_with(off, n as u32, &key, |_| called = true).is_err());
            assert!(!called && s.read(off, n as u32, &key).is_err());
        }
    }

    #[test]
    fn scan_tail_stops_at_first_hole() {
        let s = seg(1024);
        let key = Key::from_u64(3);
        append(&s, &key, &[1u8; 10]).unwrap();
        append(&s, &key, &[2u8; 20]).unwrap();
        assert_eq!(s.scan_tail(), (footprint(10) + footprint(20)) as u64);
        // Corrupt the second record's CRC: the scan now stops after the
        // first record.
        let mut mask = vec![0u8; 1];
        mask[0] = 0xFF;
        s.region().corrupt(footprint(10) + RECORD_OVERHEAD + 20 - 4, &mask);
        assert_eq!(s.scan_tail(), footprint(10) as u64);
    }

    proptest! {
        /// Value-log records round-trip for arbitrary keys and payloads.
        #[test]
        fn vlog_record_roundtrip(
            key in any::<[u8; 16]>(),
            payload in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            let rec = encode_record(&Key(key), &payload);
            prop_assert_eq!(rec.len(), footprint(payload.len()));
            prop_assert_eq!(rec.len() % 8, 0);
            let (k, p) = decode_record(&rec).expect("fully written record decodes");
            prop_assert_eq!(k, Key(key));
            prop_assert_eq!(p, &payload[..]);
        }

        /// A torn append — the record's tail cachelines still holding stale
        /// log bytes — is detected by the CRC, and detection never turns into
        /// forgery: any decode that succeeds yields exactly the original.
        #[test]
        fn vlog_torn_cacheline_is_detected_never_forged(
            key in any::<[u8; 16]>(),
            payload in proptest::collection::vec(any::<u8>(), 1..1024),
            stale_seed in any::<u64>(),
            cut_line in 0usize..32,
        ) {
            let rec = encode_record(&Key(key), &payload);
            // Tear at a 64-byte cacheline boundary: lines before `cut` carry
            // the new write, lines after still hold stale bytes (an LCG fill
            // standing in for whatever the log held before).
            let cut = (cut_line * 64) % rec.len();
            let mut torn = rec.clone();
            let mut x = stale_seed;
            for b in &mut torn[cut..] {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            if torn != rec {
                if let Some((k, p)) = decode_record(&torn) {
                    // A decode may still succeed when the tear only touched
                    // the zero padding past the CRC; it must then describe
                    // the original record, never a forged (key, payload).
                    prop_assert!(k == Key(key) && p == &payload[..], "forged record");
                }
            }
        }
    }
}
