//! Variable-length values (DESIGN.md §17): the bytes API, the one
//! encoding layered on the fixed 15-byte slot word.
//!
//! The table has two levels. The *word level* — `insert`, `update`, `get`,
//! `HashIndex` — stores and returns a slot's 15 value bytes as they are:
//! the paper's vocabulary, used by the figure binaries, the baselines
//! comparison and the crash tests. The *bytes level* in this file encodes a
//! payload of any length into a word — inline with a length byte, or a
//! pointer to a value-log record — and commits which of the two it is as
//! the slot's spill bit. That bit travels with the word wherever the word
//! goes: the NVM header, a probe's `Located`, the hot entry, `get_word`.
//! A reader learns a word's kind from the bit and never from its bytes;
//! under a set bit, a word that does not decode to a pointer is damage.
//!
//! Everything that knows the encoding is here and in the codec
//! (`crate::vlog`): staging, decoding, tombstoning, and the integrity
//! check of a spill-flagged word the audits share.

use std::sync::Arc;

use hdnh_common::{Key, Value};
use hdnh_nvm::fault;
use hdnh_obs as obs;

use super::write::Decision;
use super::{Accept, Hdnh};
use crate::error::HdnhError;
use crate::vlog::{self, Vlog, VlogPtr};

/// A bytes-API payload made ready for a slot: the slot's value bytes, and
/// — when they are a pointer — the log record already appended for them.
/// The ticket is held until the write has published (or given up), as the
/// compactor requires.
struct StagedValue {
    value: Value,
    appended: Option<(VlogPtr, vlog::AppendTicket)>,
}

/// What a key's word turned out to be ([`Hdnh::locate_bytes`]).
enum Stored {
    /// An unspilled word, as stored.
    Inline(Value),
    /// A log pointer and the mapped segment it names.
    Spilled(Arc<vlog::VlogSegment>, VlogPtr),
}

fn not_of_its_kind(key: &Key, invariant: &'static str, what: &str) -> HdnhError {
    HdnhError::Integrity {
        invariant,
        violations: vec![format!("the word of {key:?} {what}")],
    }
}

/// The payload an unspilled word carries, or the typed error for a word
/// the bytes level did not write.
fn inline_payload<'a>(key: &Key, word: &'a Value) -> Result<&'a [u8], HdnhError> {
    vlog::decode_inline(word).ok_or_else(|| {
        not_of_its_kind(
            key,
            "value-encoding",
            "was stored through the fixed-value API and is not a bytes encoding",
        )
    })
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

    /// Makes `payload` ready for a slot. Payloads up to the inline budget
    /// ([`vlog::INLINE_MAX`]) become the slot's 15 value bytes — the
    /// paper-faithful fast path, unchanged in cost; larger ones are
    /// appended (and persisted) to the value log *first* and become a
    /// packed pointer, committed under the header's spill bit, so a crash
    /// between the two leaves at worst an unreferenced log record.
    fn stage_bytes(&self, key: &Key, payload: &[u8]) -> Result<StagedValue, HdnhError> {
        if payload.len() <= vlog::INLINE_MAX {
            obs::count(obs::Counter::VlogInlineWrites);
            return Ok(StagedValue {
                value: vlog::encode_inline(payload),
                appended: None,
            });
        }
        let (ptr, ticket) = self.vlog.append_ticketed(key, payload)?;
        obs::count(obs::Counter::VlogSpillWrites);
        Ok(StagedValue {
            value: ptr.to_value(),
            appended: Some((ptr, ticket)),
        })
    }

    /// The bytes writes: `payload` is staged once — inline in the slot when
    /// it fits, otherwise in the value log with the slot holding its
    /// pointer — and stored, as a word with its kind, if the key is in a
    /// state `accept` takes.
    fn store_bytes(&self, key: &Key, payload: &[u8], accept: Accept) -> Result<(), HdnhError> {
        let started = obs::op_start();
        let staged = self.stage_bytes(key, payload)?;
        let out = self.store(started, key, &staged.value, staged.appended.is_some(), accept);
        // A log record whose publish failed was never referenced: it is
        // orphaned on the spot. A published one is live whether or not the
        // write is acknowledged, so the fault check comes only after this.
        if let (Err(_), Some((ptr, _ticket))) = (&out, &staged.appended) {
            self.vlog.mark_garbage(ptr);
        }
        self.acked(out)
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

    /// The one read of the bytes level: probes for `key`'s word and says
    /// what it is. What the word is comes with it — the spill bit, never
    /// the bytes: an unspilled word is handed back as stored, a spilled one
    /// as its pointer with the log segment it names. A pointer into a
    /// segment the compactor retired mid-read re-probes the index — the
    /// relocated pointer is already published before a segment disappears —
    /// so readers never block on (or race destructively with) the GC. A
    /// pointer that keeps naming an unmapped segment is dangling and
    /// surfaces as [`HdnhError::VlogCorruption`] rather than a spin.
    ///
    /// Nothing is held on return but the segment's `Arc`: no epoch pin, no
    /// slot lock.
    ///
    /// Compiled into each of its two callers: as a call of its own it cost
    /// the in-process read workloads 4 % (`kv-read-skew`, 9 of 10 pairs).
    #[inline(always)]
    fn locate_bytes(&self, key: &Key) -> Result<Option<Stored>, HdnhError> {
        // Each legitimate retry needs a whole compaction pass to retire
        // the freshly re-probed segment in the gap between probe and read.
        const RETIRED_SEGMENT_RETRIES: usize = 64;
        let mut retries = 0;
        loop {
            let Some((word, spilled)) = self.get_word(key) else { return Ok(None) };
            if !spilled {
                return Ok(Some(Stored::Inline(word)));
            }
            let ptr = VlogPtr::from_value(&word).ok_or_else(|| {
                not_of_its_kind(key, "vlog-pointer-valid", "is spill-flagged but is not a log pointer")
            })?;
            match self.vlog.segment_of(&ptr) {
                Some(seg) => return Ok(Some(Stored::Spilled(seg, ptr))),
                // Segment retired between the index probe and the log
                // read: the GC already republished the pointer.
                None if retries < RETIRED_SEGMENT_RETRIES => {
                    retries += 1;
                    std::thread::yield_now();
                }
                None => {
                    return Err(HdnhError::VlogCorruption {
                        segment: ptr.segment,
                        offset: ptr.offset,
                    })
                }
            }
        }
    }

    /// Lends `key`'s value to `f` and returns what `f` made of it; `None`
    /// when the key is absent (`f` is not called). The read primitive of
    /// the bytes level: an inline payload is lent from the slot word on
    /// the stack; a spilled one from its log record, read by one media
    /// read and verified — checksum, key and length — before `f` sees a
    /// byte. The record image is staged on the stack when small and in a
    /// heap buffer of its own for this one call otherwise, so a read of a
    /// small value allocates nothing.
    ///
    /// `f` runs with no epoch pin and no slot lock held: it may take as
    /// long as it likes, and may call back into the table.
    ///
    /// A word that is not of its kind is [`HdnhError::Integrity`]: an
    /// unspilled word whose length byte exceeds the inline budget was
    /// written at the word level (`value-encoding`; such a word is never
    /// followed as a pointer, whatever its bytes), and a spilled word that
    /// does not decode to a pointer is damaged (`vlog-pointer-valid`).
    pub fn get_bytes_with<R>(
        &self,
        key: &Key,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, HdnhError> {
        Ok(match self.locate_bytes(key)? {
            None => None,
            Some(Stored::Inline(word)) => Some(f(inline_payload(key, &word)?)),
            Some(Stored::Spilled(seg, ptr)) => {
                Some(Vlog::served(&ptr, seg.read_with(ptr.offset, ptr.len, key, f))?)
            }
        })
    }

    /// Fetches `key`'s value as bytes of its own:
    /// [`get_bytes_with`](Self::get_bytes_with) plus the one allocation an
    /// owned value costs. A spilled record is read into the `Vec` that is
    /// returned and verified there.
    pub fn get_bytes(&self, key: &Key) -> Result<Option<Vec<u8>>, HdnhError> {
        Ok(match self.locate_bytes(key)? {
            None => None,
            Some(Stored::Inline(word)) => Some(inline_payload(key, &word)?.to_vec()),
            Some(Stored::Spilled(seg, ptr)) => {
                Some(Vlog::served(&ptr, seg.read(ptr.offset, ptr.len, key))?)
            }
        })
    }

    /// `key`'s current log pointer, if its value is spilled.
    #[cfg(test)]
    pub(crate) fn spill_pointer(&self, key: &Key) -> Option<VlogPtr> {
        let (word, spilled) = self.get_word(key)?;
        spilled.then(|| VlogPtr::from_value(&word)).flatten()
    }

    /// The value-log compactor's relocation of one live record, in a
    /// single probe (DESIGN.md §17): lock `key`'s slot through the writer
    /// probe; compare the slot's pointer with `old` under the lock; only
    /// on a match append `image` (the record's verified bytes, carrying a
    /// `payload_len`-byte payload) and swap the new pointer in out of
    /// place. Returns the new pointer, or `None` when the slot no longer
    /// names `old` — final, since a log pointer is published once: the
    /// record was overwritten or removed, nothing was appended and there
    /// is nothing to orphan.
    ///
    /// The hot table is refreshed, not filled: a cached copy of the old
    /// pointer is rewritten, but a record nobody read is not promoted for
    /// being moved.
    pub(crate) fn relocate_spilled(
        &self,
        key: &Key,
        old: &VlogPtr,
        image: &[u8],
        payload_len: usize,
    ) -> Result<Option<VlogPtr>, HdnhError> {
        let expect = old.to_value();
        // Appended at most once; the ticket outlives the publish. Kept
        // across a retry: a full bucket sends the write through a resize
        // and back under a fresh lock, where the guard is checked again.
        let mut appended = None;
        let swapped = self.write_with(key, |old| {
            old.inspect(|_| fault::point("update.old_locked"));
            if old != Some((expect, true)) {
                return Ok(Decision::Keep);
            }
            let (ptr, _ticket) = match &appended {
                Some(once) => once,
                None => appended.insert(self.vlog.append_image(image, payload_len)?),
            };
            Ok(Decision::Put { value: ptr.to_value(), spilled: true, refresh_only: true })
        });
        match (appended, swapped) {
            (Some((ptr, _ticket)), Ok(Some(_))) => Ok(Some(ptr)),
            // Absent, superseded, or the append itself failed — or appended
            // before a resize and superseded (or failed) after it: that
            // copy was never published.
            (appended, not_swapped) => {
                if let Some((ptr, _ticket)) = &appended {
                    self.vlog.mark_garbage(ptr);
                }
                not_swapped.map(|_| None)
            }
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
}
