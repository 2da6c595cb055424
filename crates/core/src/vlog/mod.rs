//! Value log: variable-length values behind the paper-faithful index.
//!
//! HDNH's 31-byte NVM record (16-byte key, 15-byte value) is the *index
//! entry*; this module adds an out-of-band, log-structured store for
//! values that do not fit. Values up to the inline budget
//! ([`INLINE_MAX`]) are stored directly in the slot — the paper's fast
//! path, unchanged. Longer values are appended to a segmented,
//! CRC32-checksummed log (`segment::VlogSegment`) and the slot stores a
//! packed `(segment, offset, length)` pointer ([`VlogPtr`]). Which of the
//! two a slot word is says the spare per-slot header bit (`nvtable`'s
//! spill flag), which travels with the word; nothing classifies a word by
//! its bytes. The `SPILL_SENTINEL` first byte, the non-zero length and
//! the zero pad of a pointer are redundancy: under a set spill flag,
//! `VlogPtr::from_value` checks them as part of the word's integrity.
//!
//! Durability ordering: a record is flushed and fenced *before* its
//! pointer is published to the index, so under `--sync-policy sync` a
//! pointer is never durable ahead of its payload (DESIGN.md §15/§17). A
//! crash between append and publish leaves an orphaned record that the
//! recovery scan treats as garbage.
//!
//! Garbage collection (`gc`, `Hdnh::compact`) sweeps the index for the
//! records still referenced in every segment carrying garbage, relocates
//! them, and retires the emptied segments without ever blocking readers:
//! readers hold an `Arc` to the segment they are reading, and a reader
//! that loses the race (its segment left the map) simply re-probes the
//! index, which by then names the relocated copy.

mod gc;
pub(crate) mod segment;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hdnh_common::{Key, Record, Value, VALUE_LEN};
use hdnh_nvm::{NvmOptions, NvmRegion};
use parking_lot::{Mutex, RwLock};

use crate::error::HdnhError;

pub use gc::CompactReport;
pub(crate) use gc::Victims;
pub(crate) use segment::AppendTicket;
pub use segment::footprint;
pub(crate) use segment::{encode_record_into, VlogSegment};

/// Largest payload the 15-byte slot stores inline: one length byte plus
/// up to 14 payload bytes.
pub const INLINE_MAX: usize = VALUE_LEN - 1;

/// First value byte of a spill pointer: a check byte under a set spill
/// flag (an inline encoding's first byte is its length, 0..=14).
pub(crate) const SPILL_SENTINEL: u8 = 0xFF;

/// Largest accepted value. The RESP frame budget is 1 MiB; the headroom
/// keeps a maximal `SET key value` request (command, key, framing)
/// inside one frame, so the boundary is reachable over the wire.
pub const MAX_VALUE_BYTES: usize = (1 << 20) - 4096;

/// Encodes a payload of at most [`INLINE_MAX`] bytes into a slot value.
pub(crate) fn encode_inline(payload: &[u8]) -> Value {
    debug_assert!(payload.len() <= INLINE_MAX);
    let mut buf = [0u8; VALUE_LEN];
    buf[0] = payload.len() as u8;
    buf[1..1 + payload.len()].copy_from_slice(payload);
    Value(buf)
}

/// Decodes an inline slot value back into its payload; `None` when the
/// first byte is not a valid inline length ([`encode_inline`] did not
/// write this word).
pub(crate) fn decode_inline(v: &Value) -> Option<&[u8]> {
    let len = v.0[0] as usize;
    if len > INLINE_MAX {
        return None;
    }
    Some(&v.0[1..1 + len])
}

/// A packed pointer into the value log, stored in the 15-byte slot value:
/// sentinel byte, then segment id, byte offset and payload length as
/// little-endian `u32`s (2 spare bytes, zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VlogPtr {
    /// Id of the segment holding the record.
    pub segment: u32,
    /// Byte offset of the record inside the segment.
    pub offset: u32,
    /// Payload length in bytes (always > [`INLINE_MAX`] ≥ 0, never 0).
    pub len: u32,
}

impl VlogPtr {
    /// Packs the pointer into a slot value.
    pub(crate) fn to_value(self) -> Value {
        let mut buf = [0u8; VALUE_LEN];
        buf[0] = SPILL_SENTINEL;
        buf[1..5].copy_from_slice(&self.segment.to_le_bytes());
        buf[5..9].copy_from_slice(&self.offset.to_le_bytes());
        buf[9..13].copy_from_slice(&self.len.to_le_bytes());
        Value(buf)
    }

    /// Unpacks the value bytes of a spill-flagged slot; `None` when they
    /// are not what [`to_value`](Self::to_value) packs — the word is
    /// damaged. Not a classifier: an unflagged word is never passed here.
    pub(crate) fn from_value(v: &Value) -> Option<VlogPtr> {
        if v.0[0] != SPILL_SENTINEL {
            return None;
        }
        let ptr = VlogPtr {
            segment: u32::from_le_bytes(v.0[1..5].try_into().unwrap()),
            offset: u32::from_le_bytes(v.0[5..9].try_into().unwrap()),
            len: u32::from_le_bytes(v.0[9..13].try_into().unwrap()),
        };
        // A spill pointer always names a payload too large for the slot,
        // and its two spare bytes are written as zero.
        if ptr.len == 0 || v.0[13] != 0 || v.0[14] != 0 {
            return None;
        }
        Some(ptr)
    }
}

/// Point-in-time statistics over the whole value log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VlogStats {
    /// Mapped segments (including the active one).
    pub segments: usize,
    /// Sum of segment capacities in bytes.
    pub capacity_bytes: u64,
    /// Bytes appended (aligned record footprints).
    pub used_bytes: u64,
    /// Bytes of tombstoned records awaiting compaction.
    pub garbage_bytes: u64,
    /// Bytes of still-referenced records (`used - garbage`).
    pub live_bytes: u64,
    /// Report of the most recent compaction, if any ran.
    pub last_gc: Option<CompactReport>,
}

/// The segmented value log. One instance per table; shared across resizes
/// (the log is keyed by segment id, not by index geometry).
#[derive(Debug)]
pub struct Vlog {
    opts: NvmOptions,
    segment_bytes: usize,
    /// Every mapped segment by id. Readers clone the `Arc` under the read
    /// lock; GC removes retired segments under the write lock.
    segments: RwLock<BTreeMap<u32, Arc<VlogSegment>>>,
    /// The segment taking new appends (`None` until the first spill).
    /// The mutex serializes rotation only — appends themselves are a
    /// lock-free `fetch_add` inside the segment.
    active: Mutex<Option<Arc<VlogSegment>>>,
    /// Id source for heap-backed segments (pool-backed segments take
    /// their id from the `vlog-<id>.dat` filename).
    next_id: AtomicU64,
    /// Serializes compactions. Deliberately *not* the table's maintenance
    /// mutex: a long compaction must not block a resize (or vice versa) —
    /// their shared state is only the per-slot lock protocol.
    pub(crate) gc_lock: Mutex<()>,
    last_gc: Mutex<Option<CompactReport>>,
}

impl Vlog {
    /// An empty log allocating segments of `segment_bytes` on the backend
    /// in `opts`.
    pub fn new(opts: NvmOptions, segment_bytes: usize) -> Vlog {
        Vlog {
            opts,
            segment_bytes,
            segments: RwLock::new(BTreeMap::new()),
            active: Mutex::new(None),
            next_id: AtomicU64::new(0),
            gc_lock: Mutex::new(()),
            last_gc: Mutex::new(None),
        }
    }

    /// Rebuilds a log from recovered segment regions (reopened
    /// `vlog-<id>.dat` files). Each segment's tail is the scanned dense
    /// prefix and all recovered segments are sealed; garbage accounting
    /// is provisional until the recovery scan has resolved every pointer
    /// and calls [`finish_recovery`](Self::finish_recovery).
    pub(crate) fn from_recovered(
        opts: NvmOptions,
        segment_bytes: usize,
        regions: Vec<(u32, Arc<NvmRegion>)>,
    ) -> Vlog {
        let vlog = Vlog::new(opts, segment_bytes);
        let mut max_id = 0u64;
        {
            let mut map = vlog.segments.write();
            for (id, region) in regions {
                let seg = Arc::new(VlogSegment::new(id, region));
                let tail = seg.scan_tail();
                seg.set_recovered(tail, 0);
                max_id = max_id.max(id as u64 + 1);
                map.insert(id, seg);
            }
        }
        vlog.next_id.store(max_id, Ordering::Relaxed);
        vlog
    }

    /// Completes recovery: for each segment, `live` gives the summed
    /// footprint of index-referenced records and the highest byte end of
    /// any such record. The tail is raised to cover live records past the
    /// scanned dense prefix (a torn *earlier* record must not hide later
    /// live ones) and everything not live becomes garbage.
    pub(crate) fn finish_recovery(&self, live: &BTreeMap<u32, (u64, u64)>) {
        let map = self.segments.read();
        for (id, seg) in map.iter() {
            let (live_bytes, max_end) = live.get(id).copied().unwrap_or((0, 0));
            let tail = seg.used().max(max_end);
            seg.set_recovered(tail, tail.saturating_sub(live_bytes));
        }
    }

    /// Every mapped segment region with its id (for pool close/crash
    /// plumbing and snapshots).
    pub(crate) fn regions(&self) -> Vec<(u32, Arc<NvmRegion>)> {
        self.segments
            .read()
            .iter()
            .map(|(id, seg)| (*id, Arc::clone(seg.region())))
            .collect()
    }

    /// The segment with `id`, if still mapped.
    pub(crate) fn segment(&self, id: u32) -> Option<Arc<VlogSegment>> {
        self.segments.read().get(&id).cloned()
    }

    /// All currently mapped segments, ordered by id.
    pub(crate) fn segments_snapshot(&self) -> Vec<Arc<VlogSegment>> {
        self.segments.read().values().cloned().collect()
    }

    /// Removes a retired segment from the map. Readers that already hold
    /// the `Arc` finish their read on the unlinked mapping.
    pub(crate) fn remove_segment(&self, id: u32) -> Option<Arc<VlogSegment>> {
        self.segments.write().remove(&id)
    }

    fn new_segment(&self, min_capacity: usize) -> Result<Arc<VlogSegment>, HdnhError> {
        let cap = self.segment_bytes.max(segment::footprint(min_capacity));
        let region = Arc::new(NvmRegion::alloc(cap, &self.opts, "vlog")?);
        // Pool-backed segments take their id from the vlog-<id>.dat
        // filename (the pool's counter also feeds seg files, so ids can
        // jump); heap segments use the log's own counter.
        let id = region
            .file_path()
            .and_then(hdnh_nvm::pool::vlog_id)
            .unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let seg = Arc::new(VlogSegment::new(id as u32, region));
        self.segments.write().insert(id as u32, Arc::clone(&seg));
        Ok(seg)
    }

    /// Appends one record and returns its pointer. One `fetch_add` per
    /// append on the hot path; the rotation mutex is taken only to
    /// install a fresh segment when the active one seals.
    ///
    /// For a log used on its own. A caller that publishes the pointer into
    /// an index a compactor consults must hold the append's ticket across
    /// that publish — `append_ticketed`.
    pub fn append(&self, key: &Key, payload: &[u8]) -> Result<VlogPtr, HdnhError> {
        self.append_ticketed(key, payload).map(|(ptr, _ticket)| ptr)
    }

    /// [`append`](Self::append), plus the ticket that keeps the compactor
    /// from sweeping for pointers into the record's segment until it is
    /// dropped.
    pub(crate) fn append_ticketed(
        &self,
        key: &Key,
        payload: &[u8],
    ) -> Result<(VlogPtr, AppendTicket), HdnhError> {
        if payload.len() > MAX_VALUE_BYTES {
            return Err(HdnhError::Capacity(format!(
                "value of {} bytes exceeds the {MAX_VALUE_BYTES}-byte maximum",
                payload.len()
            )));
        }
        segment::with_buffer(footprint(payload.len()), |image| {
            encode_record_into(key, payload, image);
            self.append_image(image, payload.len())
        })
    }

    /// Appends an already encoded (and, for the compactor, already
    /// verified) record image carrying a `payload_len`-byte payload.
    pub(crate) fn append_image(
        &self,
        rec: &[u8],
        payload_len: usize,
    ) -> Result<(VlogPtr, AppendTicket), HdnhError> {
        debug_assert_eq!(rec.len(), footprint(payload_len));
        loop {
            let seg = {
                let guard = self.active.lock();
                match guard.as_ref() {
                    Some(seg) if !seg.is_sealed() => Arc::clone(seg),
                    _ => {
                        drop(guard);
                        self.rotate(payload_len)?
                    }
                }
            };
            if let Some((offset, ticket)) = seg.try_append(rec) {
                hdnh_obs::count(hdnh_obs::Counter::VlogAppends);
                let ptr = VlogPtr {
                    segment: seg.id(),
                    offset,
                    len: payload_len as u32,
                };
                return Ok((ptr, ticket));
            }
            // The segment sealed under us (overflow); rotate and retry.
            self.rotate(payload_len)?;
        }
    }

    /// Installs a fresh active segment unless another thread already did.
    fn rotate(&self, min_capacity: usize) -> Result<Arc<VlogSegment>, HdnhError> {
        let mut guard = self.active.lock();
        if let Some(seg) = guard.as_ref() {
            if !seg.is_sealed() && seg.capacity() >= segment::footprint(min_capacity) as u64 {
                return Ok(Arc::clone(seg));
            }
        }
        let seg = self.new_segment(min_capacity)?;
        *guard = Some(Arc::clone(&seg));
        Ok(seg)
    }

    /// The mapped segment `ptr` names. `None` means the GC retired it
    /// after relocating its live records (counted as a read retry): the
    /// caller re-probes the index for the new pointer. A reader that holds
    /// the `Arc` finishes its read on the unlinked mapping.
    pub(crate) fn segment_of(&self, ptr: &VlogPtr) -> Option<Arc<VlogSegment>> {
        let seg = self.segment(ptr.segment);
        if seg.is_none() {
            hdnh_obs::count(hdnh_obs::Counter::VlogReadRetries);
        }
        seg
    }

    /// Accounts one read of the record behind `ptr` in a mapped segment: a
    /// verified payload is counted as served; a checksum or key mismatch
    /// is real corruption and is surfaced, never forged.
    pub(crate) fn served<T>(ptr: &VlogPtr, read: Result<T, ()>) -> Result<T, HdnhError> {
        match read {
            Ok(payload) => {
                hdnh_obs::count(hdnh_obs::Counter::VlogReads);
                Ok(payload)
            }
            Err(()) => Err(HdnhError::VlogCorruption {
                segment: ptr.segment,
                offset: ptr.offset,
            }),
        }
    }

    /// Materializes the payload behind `ptr` in a `Vec` of its own — for a
    /// log used on its own; the table reads through
    /// `Hdnh::get_bytes_with`. `Ok(None)` means the segment is no longer
    /// mapped (`segment_of`).
    pub fn read(&self, ptr: &VlogPtr, key: &Key) -> Result<Option<Vec<u8>>, HdnhError> {
        self.segment_of(ptr)
            .map(|seg| Self::served(ptr, seg.read(ptr.offset, ptr.len, key)))
            .transpose()
    }

    /// Verifies the record behind `ptr` without materializing it.
    pub(crate) fn verify(&self, ptr: &VlogPtr, key: &Key) -> bool {
        self.segment(ptr.segment)
            .is_some_and(|seg| seg.verify(ptr.offset, ptr.len, key))
    }

    /// The integrity check of a spill-flagged slot, shared by recovery,
    /// the audit and the scrubber: `rec`'s value bytes decode to a
    /// pointer, and the pointer names a CRC-valid record of this log
    /// carrying `rec`'s key. Only for a slot whose spill bit is set.
    pub(crate) fn resolve(&self, rec: &Record) -> Option<VlogPtr> {
        VlogPtr::from_value(&rec.value).filter(|ptr| self.verify(ptr, &rec.key))
    }

    /// Tombstones the record behind `ptr` (its bytes stay in place; the
    /// segment's garbage counter makes it a compaction victim).
    pub(crate) fn mark_garbage(&self, ptr: &VlogPtr) {
        if let Some(seg) = self.segment(ptr.segment) {
            seg.mark_garbage(segment::footprint(ptr.len as usize) as u64);
        }
    }

    pub(crate) fn set_last_gc(&self, report: CompactReport) {
        *self.last_gc.lock() = Some(report);
    }

    /// Aggregated statistics across all mapped segments.
    pub(crate) fn stats(&self) -> VlogStats {
        let map = self.segments.read();
        let mut s = VlogStats {
            segments: map.len(),
            ..VlogStats::default()
        };
        for seg in map.values() {
            s.capacity_bytes += seg.capacity();
            s.used_bytes += seg.used();
            s.garbage_bytes += seg.garbage_bytes();
        }
        s.live_bytes = s.used_bytes.saturating_sub(s.garbage_bytes);
        s.last_gc = *self.last_gc.lock();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_roundtrip_and_sentinel_discrimination() {
        for n in 0..=INLINE_MAX {
            let payload: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let v = encode_inline(&payload);
            assert_eq!(decode_inline(&v).unwrap(), &payload[..]);
            assert!(VlogPtr::from_value(&v).is_none());
        }
    }

    #[test]
    fn ptr_roundtrip_and_inline_rejection() {
        let ptr = VlogPtr {
            segment: 3,
            offset: 0x1234_5678,
            len: 65_536,
        };
        let v = ptr.to_value();
        assert_eq!(v.0[0], SPILL_SENTINEL);
        assert_eq!(VlogPtr::from_value(&v).unwrap(), ptr);
        assert!(decode_inline(&v).is_none());
        // Under a set spill flag any byte out of place is damage.
        for (byte, bad) in [(0, 0xFE), (13, 1), (14, 0x80)] {
            let mut damaged = v;
            damaged.0[byte] = bad;
            assert!(VlogPtr::from_value(&damaged).is_none(), "byte {byte}");
        }
        assert!(VlogPtr::from_value(&VlogPtr { len: 0, ..ptr }.to_value()).is_none());
    }

    #[test]
    fn append_read_rotate_and_stats() {
        let vlog = Vlog::new(NvmOptions::fast(), 256);
        let key = Key::from_u64(1);
        let payload = vec![7u8; 100]; // footprint 128: two per segment
        let mut ptrs = Vec::new();
        for _ in 0..5 {
            ptrs.push(vlog.append(&key, &payload).unwrap());
        }
        let s = vlog.stats();
        assert_eq!(s.segments, 3, "5 records at 2/segment need 3 segments");
        for ptr in &ptrs {
            assert_eq!(vlog.read(ptr, &key).unwrap().unwrap(), payload);
        }
        // Distinct ids, and garbage accounting moves bytes live → garbage.
        assert_eq!(s.garbage_bytes, 0);
        vlog.mark_garbage(&ptrs[0]);
        let s2 = vlog.stats();
        assert_eq!(s2.garbage_bytes, 128);
        assert_eq!(s2.live_bytes + s2.garbage_bytes, s2.used_bytes);
    }

    #[test]
    fn oversized_record_gets_its_own_segment() {
        let vlog = Vlog::new(NvmOptions::fast(), 256);
        let key = Key::from_u64(9);
        let big = vec![3u8; 4000];
        let ptr = vlog.append(&key, &big).unwrap();
        assert_eq!(vlog.read(&ptr, &key).unwrap().unwrap(), big);
    }

    #[test]
    fn over_max_value_is_a_capacity_error() {
        let vlog = Vlog::new(NvmOptions::fast(), 256);
        let e = vlog
            .append(&Key::from_u64(1), &vec![0u8; MAX_VALUE_BYTES + 1])
            .unwrap_err();
        assert!(matches!(e, HdnhError::Capacity(_)), "{e}");
    }

    #[test]
    fn retired_segment_read_returns_none() {
        let vlog = Vlog::new(NvmOptions::fast(), 256);
        let key = Key::from_u64(2);
        let ptr = vlog.append(&key, &[1u8; 50]).unwrap();
        vlog.remove_segment(ptr.segment).unwrap();
        assert_eq!(vlog.read(&ptr, &key).unwrap(), None);
    }

    #[test]
    fn recovery_scan_accounts_garbage() {
        let vlog = Vlog::new(NvmOptions::fast(), 1024);
        let key = Key::from_u64(5);
        let p1 = vlog.append(&key, &[1u8; 40]).unwrap();
        let _p2 = vlog.append(&key, &[2u8; 40]).unwrap();
        let regions = vlog.regions();
        let re = Vlog::from_recovered(NvmOptions::fast(), 1024, regions);
        // Only record 1 is still referenced by the (hypothetical) index.
        let fp = segment::footprint(40) as u64;
        let mut live = BTreeMap::new();
        live.insert(p1.segment, (fp, fp));
        re.finish_recovery(&live);
        let s = re.stats();
        assert_eq!(s.used_bytes, 2 * fp);
        assert_eq!(s.live_bytes, fp);
        assert_eq!(s.garbage_bytes, fp);
        assert_eq!(re.read(&p1, &key).unwrap().unwrap(), vec![1u8; 40]);
    }
}
