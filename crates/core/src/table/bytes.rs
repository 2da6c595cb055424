//! Variable-length values (DESIGN.md §17): the bytes API over the
//! fixed 15-byte slot word.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{Key, Value};
use hdnh_obs as obs;

use super::{Accept, Hdnh};
use crate::error::HdnhError;
use crate::nvtable::{header_slot_spilled, header_slot_valid};
use crate::params::SLOTS_PER_BUCKET;
use crate::vlog::{self, Vlog, VlogPtr};
/// A bytes-API payload made ready for a slot: the slot's value bytes, and
/// — when they are a pointer — the log record already appended for them.
/// The ticket is held until the write has published (or given up), as the
/// compactor requires.
struct StagedValue {
    value: Value,
    appended: Option<(VlogPtr, vlog::AppendTicket)>,
}

impl Hdnh {
    /// Tombstones the log entry behind a replaced or removed slot value.
    pub(super) fn tombstone_old(vlog: &Vlog, old: Option<(Value, bool)>) {
        if let Some((old, true)) = old {
            if let Some(ptr) = VlogPtr::from_value(&old) {
                vlog.mark_garbage(&ptr);
            }
        }
    }

    /// Makes `payload` ready for a slot. Payloads up to the configured
    /// inline budget become the slot's 15 value bytes — the paper-faithful
    /// fast path, unchanged in cost; larger ones are appended (and
    /// persisted) to the value log *first* and become a packed pointer,
    /// committed under the header's spill bit, so a crash between the two
    /// leaves at worst an unreferenced log record.
    fn stage_bytes(&self, key: &Key, payload: &[u8]) -> Result<StagedValue, HdnhError> {
        if payload.len() <= self.params.vlog_inline_max {
            obs::count(obs::Counter::VlogInlineWrites);
            return Ok(StagedValue {
                value: vlog::encode_inline(payload),
                appended: None,
            });
        }
        obs::count(obs::Counter::VlogSpillWrites);
        let (ptr, ticket) = self.vlog.append_ticketed(key, payload)?;
        Ok(StagedValue {
            value: ptr.to_value(),
            appended: Some((ptr, ticket)),
        })
    }

    /// Closes a staged write: a log record whose publish failed was never
    /// referenced, so it is orphaned on the spot.
    fn settle<T>(&self, staged: StagedValue, out: Result<T, HdnhError>) -> Result<T, HdnhError> {
        if let (Err(_), Some((ptr, _ticket))) = (&out, &staged.appended) {
            self.vlog.mark_garbage(ptr);
        }
        out
    }

    /// The bytes writes: `payload` is staged once — inline in the slot when
    /// it fits, otherwise in the value log with the slot holding its
    /// pointer — and stored if the key is in a state `accept` takes. The
    /// old value's log entry, if spilled, is tombstoned.
    fn store_bytes(&self, key: &Key, payload: &[u8], accept: Accept) -> Result<(), HdnhError> {
        let staged = self.stage_bytes(key, payload)?;
        let out = self.store(key, &staged.value, staged.appended.is_some(), accept);
        Self::tombstone_old(&self.vlog, self.settle(staged, out)?);
        Ok(())
    }

    /// Stores `payload` under `key` (insert semantics): inline in the slot
    /// when it fits, otherwise in the value log with the slot holding its
    /// pointer.
    pub fn insert_bytes(&self, key: &Key, payload: &[u8]) -> Result<(), HdnhError> {
        self.store_bytes(key, payload, Accept::Absent)
    }

    /// Replaces `key`'s value with `payload` (update semantics). The old
    /// value's log entry, if spilled, is tombstoned.
    pub fn update_bytes(&self, key: &Key, payload: &[u8]) -> Result<(), HdnhError> {
        self.store_bytes(key, payload, Accept::Present)
    }

    /// Insert-or-replace in one call (the RESP `SET` semantics), in one
    /// probe: whether the key turns out present or absent, the one staged
    /// record is what gets published.
    pub fn upsert_bytes(&self, key: &Key, payload: &[u8]) -> Result<(), HdnhError> {
        self.store_bytes(key, payload, Accept::Either)
    }

    /// Fetches `key`'s value as bytes. Inline values decode from the slot;
    /// spilled values are read (and CRC-verified) from the value log. A
    /// pointer into a segment the compactor retired mid-read re-probes the
    /// index — the relocated pointer is already published before a segment
    /// disappears — so readers never block on (or race destructively with)
    /// the GC. A pointer that keeps naming an unmapped segment is dangling
    /// and surfaces as [`HdnhError::VlogCorruption`] rather than a spin.
    pub fn get_bytes(&self, key: &Key) -> Result<Option<Vec<u8>>, HdnhError> {
        // Each legitimate retry needs a whole compaction pass to retire
        // the freshly re-probed segment in the gap between probe and read.
        const RETIRED_SEGMENT_RETRIES: usize = 64;
        let mut retries = 0;
        loop {
            let Some(v) = self.get(key)? else { return Ok(None) };
            if let Some(ptr) = VlogPtr::from_value(&v) {
                match self.vlog.read(&ptr, key)? {
                    Some(payload) => return Ok(Some(payload)),
                    // Segment retired between the index probe and the log
                    // read: the GC already republished the pointer.
                    None if retries < RETIRED_SEGMENT_RETRIES => {
                        retries += 1;
                        std::thread::yield_now();
                        continue;
                    }
                    None => {
                        return Err(HdnhError::VlogCorruption {
                            segment: ptr.segment,
                            offset: ptr.offset,
                        })
                    }
                }
            }
            return Ok(Some(match vlog::decode_inline(&v) {
                Some(p) => p.to_vec(),
                // Not written through the bytes API (a fixed 15-byte value
                // whose first byte exceeds the inline budget): surface the
                // raw slot bytes rather than guessing at an encoding.
                None => v.0.to_vec(),
            }));
        }
    }

    /// Handle to the value log (spilled-value storage).
    pub fn vlog(&self) -> &Arc<Vlog> {
        &self.vlog
    }

    /// Value-log occupancy and last-GC statistics.
    pub fn vlog_stats(&self) -> vlog::VlogStats {
        self.vlog.stats()
    }

    /// Recovery pass: walks every live spill-flagged slot, verifies its
    /// pointer resolves to a CRC-valid log record, quarantines danglers
    /// (a pointer published without its log record is a torn pre-ack
    /// write — §15's model never acks it), and installs per-segment
    /// live-byte accounting into the value log. Runs once, before the
    /// recovered table serves traffic. Returns the quarantined count.
    pub(crate) fn rebuild_vlog_index(&self) -> usize {
        use std::collections::BTreeMap;
        let _m = self.maintenance_lock();
        // Safety: the maintenance lock is held — the pointer cannot swap.
        let inner = unsafe { &*self.current.load(Ordering::SeqCst) };
        let mut live: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut quarantined = 0usize;
        for li in 0..2 {
            let (level, ocf) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                let header = level.load_header(bucket);
                for slot in 0..SLOTS_PER_BUCKET {
                    if !header_slot_valid(header, slot) || !header_slot_spilled(header, slot) {
                        continue;
                    }
                    let rec = level.read_record(bucket, slot);
                    let resolved = VlogPtr::from_value(&rec.value)
                        .filter(|ptr| self.vlog.verify(ptr, &rec.key));
                    match resolved {
                        Some(ptr) => {
                            let fp = vlog::segment::footprint(ptr.len as usize) as u64;
                            let end = ptr.offset as u64 + fp;
                            let e = live.entry(ptr.segment).or_insert((0, 0));
                            e.0 += fp;
                            e.1 = e.1.max(end);
                        }
                        None => {
                            obs::count(obs::Counter::CorruptionDetected);
                            obs::count(obs::Counter::CorruptionQuarantined);
                            if let Some(hot) = &inner.hot {
                                let h = KeyHashes::of(&rec.key);
                                hot.delete(&rec.key, h.h1, h.h2, h.fp);
                            }
                            level.commit_slot_invalid(bucket, slot);
                            ocf.install(bucket, slot, false, 0);
                            self.count.fetch_sub(1, Ordering::Relaxed);
                            quarantined += 1;
                        }
                    }
                }
            }
        }
        self.vlog.finish_recovery(&live);
        quarantined
    }
}
