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
//! (`crate::vlog`): staging, decoding, tombstoning, the compactor's sweep
//! for pointers into victim segments, and the integrity check of a
//! spill-flagged word the audits share.

use std::sync::Arc;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{Key, Record, Value};
use hdnh_nvm::fault;
use hdnh_obs as obs;

use super::probe::Located;
use super::{Accept, Hdnh, Inner};
use crate::error::HdnhError;
use crate::nvtable::{header_slot_spilled, header_slot_valid, slot_checksum_ok};
use crate::ocf::{self, Backoff, LockOutcome};
use crate::params::SLOTS_PER_BUCKET;
use crate::vlog::{self, Victims, Vlog, VlogPtr};

/// A bytes-API payload made ready for a slot: the slot's value bytes, and
/// — when they are a pointer — the log record already appended for them.
/// The ticket is held until the write has published (or given up), as the
/// compactor requires.
struct StagedValue {
    value: Value,
    appended: Option<(VlogPtr, vlog::AppendTicket)>,
}

/// How one slot's relocation ended ([`Hdnh::relocate_slot`]).
enum Relocation {
    /// Moved, or nothing to move.
    Done,
    /// The slot changed since it was read: read it again.
    Raced,
    /// No empty slot to move to.
    Full,
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

    /// The compactor's sweep (DESIGN.md §17): walks every bucket of both
    /// levels once and relocates each slot whose log pointer names one of
    /// `victims`, telling the victim what moved out of it and what could
    /// not. A record nothing references is never read.
    ///
    /// Each bucket is visited under a writer's pin of its own, so a resize
    /// waits for one bucket, not for the pass. A resize between two
    /// buckets restarts the walk on the new snapshot: the records it
    /// migrated may have landed in buckets already visited. A relocation
    /// with no empty slot to go to grows the table and restarts too.
    /// Records already moved no longer name a victim, so a restart only
    /// reads buckets again.
    pub(crate) fn sweep(&self, victims: &mut Victims) -> Result<(), HdnhError> {
        'walk: loop {
            let (snap, gen) = self.pin_for_write();
            let levels = [snap.inner.top.n_buckets(), snap.inner.bottom.n_buckets()];
            drop(snap);
            for (li, buckets) in levels.into_iter().enumerate() {
                for bucket in 0..buckets {
                    let (snap, now) = self.pin_for_write();
                    if now != gen {
                        continue 'walk;
                    }
                    if !self.sweep_bucket(snap.inner, li, bucket, victims)? {
                        drop(snap); // the resize drain must not wait on us
                        self.resize(gen)?;
                        continue 'walk;
                    }
                }
            }
            return Ok(());
        }
    }

    /// Relocates the slots of one bucket that name a victim. `Ok(false)`
    /// when a record had nowhere to go: the table must grow.
    fn sweep_bucket(
        &self,
        inner: &Inner,
        li: usize,
        bucket: usize,
        victims: &mut Victims,
    ) -> Result<bool, HdnhError> {
        let (level, ocf) = inner.level(li);
        // The entries first, then the bucket in one media read: every
        // slot's record is read after its entry, as a seqlock reader reads.
        let entries: [u16; SLOTS_PER_BUCKET] = std::array::from_fn(|slot| ocf.load(bucket, slot));
        if !entries.into_iter().any(ocf::is_valid) {
            return Ok(true);
        }
        let (header, records) = level.read_bucket(bucket);
        let mut backoff = Backoff::new();
        for (slot, (mut e, mut rec)) in entries.into_iter().zip(records).enumerate() {
            let mut header = header;
            while ocf::is_valid(e) {
                if ocf::is_busy(e) {
                    // A writer or a reader's promotion holds the slot.
                    backoff.wait();
                } else {
                    let at = Located { li, bucket, slot, entry: e, value: rec.value, spilled: true };
                    match self.relocate_slot(inner, at, header, &rec.key, victims)? {
                        Relocation::Done => break,
                        Relocation::Raced => {}
                        Relocation::Full => return Ok(false),
                    }
                }
                // Read the slot again, entry first.
                e = ocf.load(bucket, slot);
                rec = level.read_record(bucket, slot);
                header = level.load_header_cached(bucket);
            }
        }
        Ok(true)
    }

    /// Moves the record behind `at` — a valid slot holding `key`, read
    /// after its entry `at.entry` — if its word is a pointer into a
    /// victim: lock the slot, read and verify that one log record, append
    /// its image as it is, and place the new pointer out of place, as an
    /// update would. The hot table is refreshed, not filled: a cached copy
    /// of the old pointer is rewritten, but a record nobody read is not
    /// promoted for being moved.
    ///
    /// A slot whose checksum fails is media damage, met as a writer's
    /// probe meets it: repaired from its hot copy or quarantined, then
    /// read again. A log record that does not verify stays where it is
    /// and keeps its victim: the bytes it names are never dropped.
    fn relocate_slot(
        &self,
        inner: &Inner,
        at: Located,
        header: u64,
        key: &Key,
        victims: &mut Victims,
    ) -> Result<Relocation, HdnhError> {
        let (bucket, slot) = (at.bucket, at.slot);
        if !header_slot_valid(header, slot) || !header_slot_spilled(header, slot) {
            return Ok(Relocation::Done);
        }
        let (_, ocf) = inner.level(at.li);
        if !ocf.revalidate(bucket, slot, at.entry) {
            return Ok(Relocation::Raced);
        }
        // Checked before the pointer is trusted: a repair behind the walk
        // could otherwise put a victim's pointer back into a bucket the
        // walk has left.
        if !slot_checksum_ok(header, slot, &Record::new(*key, at.value)) {
            self.handle_corruption(inner, at.li, bucket, slot, at.entry);
            return Ok(Relocation::Raced);
        }
        // A word that is not a pointer is the audit's to report.
        let Some(ptr) = VlogPtr::from_value(&at.value) else { return Ok(Relocation::Done) };
        let Some(victim) = victims.get_mut(ptr.segment) else { return Ok(Relocation::Done) };
        if !matches!(ocf.try_lock_at(bucket, slot, at.entry), LockOutcome::Locked(_)) {
            return Ok(Relocation::Raced);
        }
        fault::point("update.old_locked");
        let probe = inner.probe_hot(&KeyHashes::of(key), self.n_candidates());
        let appended = victim.segment().with_image(ptr.offset, ptr.len, key, |image| {
            self.vlog.append_image(image, ptr.len as usize)
        });
        let (new_ptr, _ticket) = match appended {
            Ok(Ok(appended)) => appended,
            Ok(Err(e)) => {
                probe.unlock(&at);
                return Err(e);
            }
            Err(()) => {
                probe.unlock(&at);
                victim.keep();
                return Ok(Relocation::Done);
            }
        };
        let Some(new) = probe.claim_empty(Some(&at), new_ptr.to_value(), true) else {
            // Every candidate bucket is full: this copy is never published.
            probe.unlock(&at);
            self.vlog.mark_garbage(&new_ptr);
            return Ok(Relocation::Full);
        };
        self.place(&probe, key, Some(&at), &new, true);
        victim.moved(ptr.len as usize);
        Ok(Relocation::Done)
    }

    /// Value-log occupancy and last-GC statistics.
    pub fn vlog_stats(&self) -> vlog::VlogStats {
        self.vlog.stats()
    }
}
