//! Audits and media errors: the integrity report, the scrubber, and
//! what the table does with a slot that fails its checksum.

use std::sync::atomic::Ordering;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{Key, Record};
use hdnh_obs as obs;

use super::{Hdnh, Inner};
use crate::error::{CorruptionOutcome, HdnhError};
use crate::meta::ResizeState;
use crate::nvtable::{header_slot_spilled, header_slot_valid, slot_checksum_ok, slot_meta};
use crate::ocf::{self, LockOutcome};
use crate::params::SLOTS_PER_BUCKET;

/// Outcome of one named integrity invariant from
/// [`Hdnh::verify_integrity_report`].
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Stable invariant identifier (see `verify_integrity_report` docs).
    pub name: &'static str,
    /// Whether every check under this invariant passed.
    pub ok: bool,
    /// The first few violations, human-readable (capped).
    pub violations: Vec<String>,
}

/// Machine-readable outcome of one [`Hdnh::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live slots whose record was checksum-verified.
    pub scanned: usize,
    /// Slots whose bytes failed the checksum committed with them.
    pub detected: usize,
    /// Detected slots rebuilt in place from a clean DRAM hot-table copy.
    pub repaired: usize,
    /// Detected slots with no clean copy: valid bit cleared, record lost.
    pub quarantined: usize,
    /// Per-slot detail for each detection (capped at `ScrubReport::ERRORS_CAP`).
    pub errors: Vec<HdnhError>,
}

impl ScrubReport {
    /// Cap on retained per-slot errors so a badly damaged pool stays
    /// reportable.
    pub(crate) const ERRORS_CAP: usize = 64;

    /// `true` when the pass found no corruption.
    pub fn clean(&self) -> bool {
        self.detected == 0
    }

    /// One-line JSON summary for tooling and CI artifacts.
    pub fn to_json(&self) -> String {
        obs::json::object(|w| {
            w.key("scanned").u64(self.scanned as u64).key("detected").u64(self.detected as u64);
            w.key("repaired").u64(self.repaired as u64);
            w.key("quarantined").u64(self.quarantined as u64);
        })
    }
}

impl Hdnh {
    /// Full-table audit of invariant I2: for every slot, the OCF entry's
    /// valid bit must equal the persisted bitmap bit, and a valid entry's
    /// fingerprint must match the stored key's. Also verifies that `len()`
    /// equals the number of valid slots and that no key appears twice.
    /// Pauses writers (odd generation + epoch drain) for the scan; readers
    /// keep running. Intended for tests and tooling. Returns the number of
    /// live records on success, or the first failing invariant as a typed
    /// [`HdnhError::Integrity`].
    pub fn verify_integrity(&self) -> Result<usize, HdnhError> {
        let (reports, live) = self.verify_integrity_report();
        match reports.into_iter().find(|r| !r.ok) {
            Some(r) => Err(HdnhError::Integrity {
                invariant: r.name,
                violations: r.violations,
            }),
            None => Ok(live),
        }
    }

    /// Per-invariant variant of [`verify_integrity`](Self::verify_integrity): audits every named
    /// invariant independently (one failing check does not hide the others)
    /// and returns the reports plus the scanned live-record count.
    ///
    /// Invariants:
    /// * `no-locks-at-rest` — no OCF slot is BUSY while the table is idle.
    /// * `ocf-bitmap-agreement` — every OCF valid bit equals the persisted
    ///   bitmap bit (I2).
    /// * `fingerprint-match` — every valid OCF entry carries the stored
    ///   key's fingerprint.
    /// * `no-duplicate-keys` — no key is bitmap-valid in two slots (the
    ///   update-fallback double-copy window must have been repaired).
    /// * `hot-consistency` — a hot-table hit for a live key returns the
    ///   authoritative NVM word: the value bytes, and the spill bit the
    ///   header committed them under.
    /// * `checksum-match` — every bitmap-valid record's bytes match the
    ///   7-bit checksum committed with its valid bit (media integrity).
    /// * `vlog-pointer-valid` — every spill-flagged slot's value bytes
    ///   decode to a pointer that resolves to a CRC-valid value-log record
    ///   carrying the slot's key.
    /// * `count-consistency` — `len()` equals the number of valid slots.
    /// * `meta-quiescent` — the metadata block is stable (no resize state,
    ///   no rehash cursor) and its geometry matches the live levels.
    pub fn verify_integrity_report(&self) -> (Vec<InvariantReport>, usize) {
        /// Cap per invariant so a badly corrupted table stays readable.
        const MAX_VIOLATIONS: usize = 8;
        fn push(v: &mut Vec<String>, msg: String) {
            if v.len() < MAX_VIOLATIONS {
                v.push(msg);
            }
        }
        // Readers keep running: the scan is read-only, and reader-side
        // corruption repairs defer themselves while writers are paused.
        let mut m = self.maintain();
        m.pause_writers();
        let inner = m.inner();
        let mut locks = Vec::new();
        let mut agree = Vec::new();
        let mut fps = Vec::new();
        let mut dups = Vec::new();
        let mut hots = Vec::new();
        let mut cks = Vec::new();
        let mut vlogs = Vec::new();
        let mut counts = Vec::new();
        let mut metas = Vec::new();
        let mut live = 0usize;
        let mut seen = std::collections::HashSet::new();
        for li in 0..2 {
            let (level, ocf) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                let header = level.load_header(bucket);
                for slot in 0..SLOTS_PER_BUCKET {
                    let e = ocf.load(bucket, slot);
                    let nv_valid = header & (1 << slot) != 0;
                    if ocf::is_busy(e) {
                        push(&mut locks, format!("slot L{li}/{bucket}/{slot} locked at rest"));
                    }
                    if ocf::is_valid(e) != nv_valid {
                        push(
                            &mut agree,
                            format!(
                                "OCF/bitmap disagree at L{li}/{bucket}/{slot}: ocf={} nv={}",
                                ocf::is_valid(e),
                                nv_valid
                            ),
                        );
                    }
                    if nv_valid {
                        let rec = level.read_record(bucket, slot);
                        if !slot_checksum_ok(header, slot, &rec) {
                            push(
                                &mut cks,
                                format!("checksum mismatch at L{li}/{bucket}/{slot}"),
                            );
                        }
                        let spilled = header_slot_spilled(header, slot);
                        if spilled && self.vlog.resolve(&rec).is_none() {
                            push(
                                &mut vlogs,
                                format!(
                                    "spill pointer at L{li}/{bucket}/{slot} does not resolve \
                                     to a valid log record"
                                ),
                            );
                        }
                        let h = KeyHashes::of(&rec.key);
                        if self.params.enable_ocf && ocf::fp(e) != h.fp {
                            push(&mut fps, format!("fingerprint mismatch at L{li}/{bucket}/{slot}"));
                        }
                        if !seen.insert(rec.key) {
                            push(&mut dups, format!("duplicate key at L{li}/{bucket}/{slot}"));
                        }
                        if let Some(hot) = &inner.hot {
                            let at = hot.buckets(h.h1, h.h2);
                            if let Some((v, hot_spilled)) = hot.search_at(&rec.key, at, h.fp) {
                                if (v, hot_spilled) != (rec.value, spilled) {
                                    push(
                                        &mut hots,
                                        format!(
                                            "hot table stale at L{li}/{bucket}/{slot}: cached {} \
                                             (spilled: {hot_spilled}) nvm {} (spilled: {spilled})",
                                            v.as_u64(),
                                            rec.value.as_u64()
                                        ),
                                    );
                                }
                            }
                        }
                        live += 1;
                    }
                }
            }
        }
        if live != self.len() {
            push(&mut counts, format!("count drift: scanned {live}, len() {}", self.len()));
        }
        if self.meta.state() != ResizeState::Stable {
            push(&mut metas, format!("resize state {:?} at rest", self.meta.state()));
        }
        if let Some(cursor) = self.meta.rehash_progress() {
            push(&mut metas, format!("dangling rehash cursor {cursor}"));
        }
        if self.meta.top_segments() != inner.top.n_segments()
            || self.meta.bottom_segments() != inner.bottom.n_segments()
        {
            push(
                &mut metas,
                format!(
                    "meta geometry {}/{} != live levels {}/{}",
                    self.meta.top_segments(),
                    self.meta.bottom_segments(),
                    inner.top.n_segments(),
                    inner.bottom.n_segments()
                ),
            );
        }
        if self.pending_new_top.lock().is_some() {
            push(&mut metas, "in-flight resize level leaked past quiescence".into());
        }
        let mk = |name: &'static str, violations: Vec<String>| InvariantReport {
            name,
            ok: violations.is_empty(),
            violations,
        };
        (
            vec![
                mk("no-locks-at-rest", locks),
                mk("ocf-bitmap-agreement", agree),
                mk("fingerprint-match", fps),
                mk("no-duplicate-keys", dups),
                mk("hot-consistency", hots),
                mk("checksum-match", cks),
                mk("vlog-pointer-valid", vlogs),
                mk("count-consistency", counts),
                mk("meta-quiescent", metas),
            ],
            live,
        )
    }

    /// On-demand media scrub (DESIGN.md §10): walks every live slot of both
    /// levels, re-verifies each record against the checksum committed with
    /// its valid bit, and handles every mismatch — rebuilt in place when the
    /// DRAM hot table still holds a clean copy (and the OCF fingerprint
    /// vouches for the damaged record's key bytes), quarantined otherwise.
    /// Holds only the maintenance mutex: readers *and writers* keep running,
    /// because every repair goes through the per-slot lock protocol
    /// (`handle_corruption`). After it returns,
    /// [`verify_integrity_report`](Hdnh::verify_integrity_report) is clean
    /// with respect to `checksum-match`.
    pub fn scrub(&self) -> ScrubReport {
        let span = obs::phase_enter(obs::Phase::Scrub);
        let m = self.maintain();
        let inner = m.inner();
        let mut report = ScrubReport::default();
        for li in 0..2 {
            let (level, ocf) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                for slot in 0..SLOTS_PER_BUCKET {
                    let header = level.load_header(bucket);
                    if !header_slot_valid(header, slot) {
                        continue;
                    }
                    report.scanned += 1;
                    let rec = level.read_record(bucket, slot);
                    if slot_checksum_ok(header, slot, &rec) {
                        // The slot's own bytes are clean; a spill-flagged
                        // slot must additionally resolve to a CRC-valid log
                        // record (the damage may live in the value log).
                        if header_slot_spilled(header, slot) && self.vlog.resolve(&rec).is_none() {
                            if let Some(err) =
                                self.quarantine_dangling_pointer(inner, li, bucket, slot)
                            {
                                report.detected += 1;
                                report.quarantined += 1;
                                if report.errors.len() < ScrubReport::ERRORS_CAP {
                                    report.errors.push(err);
                                }
                            }
                        }
                        continue;
                    }
                    let entry = ocf.load(bucket, slot);
                    // A mismatch seen while a writer holds the slot resolves
                    // under the slot lock: `handle_corruption` re-verifies
                    // and reports `None` (transient or superseded — media is
                    // fine) when the writer superseded it.
                    if let Some(err) = self.handle_corruption(inner, li, bucket, slot, entry) {
                        report.detected += 1;
                        if let HdnhError::Corruption { outcome, .. } = &err {
                            match outcome {
                                CorruptionOutcome::Repaired => report.repaired += 1,
                                CorruptionOutcome::Quarantined => report.quarantined += 1,
                            }
                        }
                        if report.errors.len() < ScrubReport::ERRORS_CAP {
                            report.errors.push(err);
                        }
                    }
                }
            }
        }
        obs::phase_record(obs::Phase::Scrub, span, report.scanned as u64);
        report
    }

    /// Fault-injection hook: XORs `mask` into byte `byte` (0-based within
    /// the 31-byte record) of `key`'s persisted record, bypassing the write
    /// path — simulating in-place media decay. Returns `None` when the key
    /// has no live NVM slot, otherwise whether the damage is *detectable*
    /// (the 7-bit checksum admits a 1/128 false-accept; deterministic tests
    /// must check this and pick a different mask on collision).
    ///
    /// Test/diagnostics support only — not part of the stable API.
    #[doc(hidden)]
    pub fn corrupt_record_for_test(&self, key: &Key, byte: usize, mask: u8) -> Option<bool> {
        let m = self.maintain();
        let inner = m.inner();
        for li in 0..2 {
            let (level, _) = inner.level(li);
            for bucket in 0..level.n_buckets() {
                let header = level.load_header(bucket);
                for slot in 0..SLOTS_PER_BUCKET {
                    if header_slot_valid(header, slot)
                        && level.read_record(bucket, slot).key == *key
                    {
                        level.region().corrupt(level.slot_off(bucket, slot) + byte, &[mask]);
                        let damaged = level.read_record(bucket, slot);
                        return Some(!slot_checksum_ok(header, slot, &damaged));
                    }
                }
            }
        }
        None
    }

    /// Handles a seqlock-stable checksum mismatch at `(li, bucket, slot)`:
    /// the persisted record no longer matches the checksum committed with
    /// it. Locks the slot, re-verifies under the lock (a transient device
    /// read error heals itself and needs no repair), then either rewrites
    /// the record from the clean DRAM hot-table copy (**repair**) or clears
    /// the valid bit so the damaged bytes can never be served again
    /// (**quarantine**). Returns what was done, or `None` when a concurrent
    /// writer superseded the damaged bytes first.
    ///
    /// Repair is gated on the OCF fingerprint — a DRAM-held witness of the
    /// true key — still matching the damaged record's key bytes: if the
    /// damage hit the key, the fingerprint disagrees with probability
    /// 255/256 and the slot is quarantined rather than rebuilt under a
    /// forged key.
    pub(super) fn handle_corruption(
        &self,
        inner: &Inner,
        li: usize,
        bucket: usize,
        slot: usize,
        entry: u16,
    ) -> Option<HdnhError> {
        obs::count(obs::Counter::CorruptionDetected);
        let (level, ocf) = inner.level(li);
        let LockOutcome::Locked(pre) = ocf.try_lock_at(bucket, slot, entry) else {
            return None;
        };
        let rec = level.read_record(bucket, slot);
        let header = level.load_header_cached(bucket);
        if !header_slot_valid(header, slot) || slot_checksum_ok(header, slot, &rec) {
            ocf.abort(bucket, slot, pre);
            return None;
        }
        let h = KeyHashes::of(&rec.key);
        let hot_copy = inner.hot.as_ref().and_then(|hot| {
            (h.fp == ocf::fp(pre))
                .then(|| hot.search_at(&rec.key, hot.buckets(h.h1, h.h2), h.fp))
                .flatten()
        });
        let outcome = if let Some((value, spilled)) = hot_copy {
            // The hot entry is the clean word whole: the slot's 15 value
            // bytes verbatim — for a spilled slot the packed value-log
            // pointer — and the spill bit they were committed under.
            let clean = Record::new(rec.key, value);
            level.write_record(bucket, slot, &clean);
            level.commit_slot_valid(bucket, slot, slot_meta(&clean, spilled));
            ocf.commit(bucket, slot, pre, true, h.fp);
            obs::count(obs::Counter::CorruptionRepaired);
            CorruptionOutcome::Repaired
        } else {
            level.commit_slot_invalid(bucket, slot);
            ocf.commit(bucket, slot, pre, false, 0);
            self.count.fetch_sub(1, Ordering::Relaxed);
            obs::count(obs::Counter::CorruptionQuarantined);
            CorruptionOutcome::Quarantined
        };
        Some(HdnhError::Corruption {
            level: li,
            bucket,
            slot,
            outcome,
        })
    }

    /// Quarantines a spill-flagged slot whose pointer no longer resolves to
    /// a CRC-valid log record carrying its key. The slot bytes themselves
    /// checksum clean — the damage lives in the value log — so there is
    /// nothing to repair from: the hot table caches the pointer, not the
    /// payload. Locks the slot, re-verifies under the lock (a concurrent
    /// overwrite or GC relocation may have superseded the stale pointer),
    /// then clears the valid bit. `None` when the slot healed.
    fn quarantine_dangling_pointer(
        &self,
        inner: &Inner,
        li: usize,
        bucket: usize,
        slot: usize,
    ) -> Option<HdnhError> {
        let (level, ocf) = inner.level(li);
        let entry = ocf.load(bucket, slot);
        let LockOutcome::Locked(pre) = ocf.try_lock_at(bucket, slot, entry) else {
            return None;
        };
        let header = level.load_header_cached(bucket);
        let rec = level.read_record(bucket, slot);
        let still_dangling = header_slot_valid(header, slot)
            && header_slot_spilled(header, slot)
            && self.vlog.resolve(&rec).is_none();
        if !still_dangling {
            ocf.abort(bucket, slot, pre);
            return None;
        }
        obs::count(obs::Counter::CorruptionDetected);
        if let Some(hot) = &inner.hot {
            let h = KeyHashes::of(&rec.key);
            hot.delete(&rec.key, h.h1, h.h2, h.fp);
        }
        level.commit_slot_invalid(bucket, slot);
        ocf.commit(bucket, slot, pre, false, 0);
        self.count.fetch_sub(1, Ordering::Relaxed);
        obs::count(obs::Counter::CorruptionQuarantined);
        Some(HdnhError::Corruption {
            level: li,
            bucket,
            slot,
            outcome: CorruptionOutcome::Quarantined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{k, table, v};
    use super::*;
    use crate::params::HdnhParams;
    use hdnh_common::{HashIndex, IndexError};

    #[test]
    fn verify_integrity_passes_after_heavy_churn() {
        let t = table();
        for i in 0..800u64 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..400u64 {
            t.update(&k(i), &v(i + 9_000)).unwrap();
        }
        for i in 600..800u64 {
            assert!(t.remove(&k(i)).unwrap());
        }
        assert_eq!(t.verify_integrity().unwrap(), 600);
    }

    #[test]
    fn hot_consistency_compares_the_spill_bit() {
        let t = table();
        let key = k(1);
        t.insert_bytes(&key, &[7u8; 100]).unwrap();
        t.verify_integrity().unwrap();
        // The right value bytes as the wrong kind of word: the cached
        // pointer loses its spill bit.
        let hot = t.hot_table().unwrap();
        let h = KeyHashes::of(&key);
        let at = hot.buckets(h.h1, h.h2);
        let (word, spilled) = hot.search_at(&key, at, h.fp).expect("writes cache");
        assert!(spilled, "a log pointer is cached as one");
        assert!(hot.refresh_at(&Record::new(key, word), false, at, h.fp));
        let (reports, _) = t.verify_integrity_report();
        let failed: Vec<_> = reports.iter().filter(|r| !r.ok).map(|r| r.name).collect();
        assert_eq!(failed, ["hot-consistency"], "{reports:?}");
    }

    /// Locates a key's live NVM slot by exhaustive scan (tests only).
    fn locate(t: &Hdnh, key: &Key) -> (usize, usize, usize) {
        let snap = t.pinned();
        let inner = snap.inner;
        for li in 0..2 {
            let (level, _) = inner.level(li);
            for b in 0..level.n_buckets() {
                let header = level.load_header(b);
                for s in 0..SLOTS_PER_BUCKET {
                    if header_slot_valid(header, s) && level.read_record(b, s).key == *key {
                        return (li, b, s);
                    }
                }
            }
        }
        panic!("key not persisted");
    }

    /// XORs `mask` into one byte of the key's persisted record.
    fn corrupt_record_byte(t: &Hdnh, key: &Key, byte: usize, mask: u8) {
        let (li, b, s) = locate(t, key);
        let snap = t.pinned();
        let inner = snap.inner;
        let (level, _) = inner.level(li);
        level.region().corrupt(level.slot_off(b, s) + byte, &[mask]);
    }

    #[test]
    fn corrupted_record_is_never_served_and_quarantined_without_hot_copy() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .enable_hot_table(false)
        .build()
        .unwrap());
        for i in 0..50 {
            t.insert(&k(i), &v(i + 100)).unwrap();
        }
        // Flip one bit in the value bytes of key 7's persisted record.
        corrupt_record_byte(&t, &k(7), hdnh_common::KEY_LEN + 3, 0x10);
        // The damaged bytes must never reach the caller: with no clean
        // copy the slot is quarantined and the lookup misses.
        assert_eq!(t.get(&k(7)), None);
        assert_eq!(t.len(), 49);
        // The table stays fully consistent and the other keys are intact.
        assert!(t.verify_integrity().is_ok());
        for i in 0..50 {
            if i != 7 {
                assert_eq!(t.get(&k(i)).unwrap().as_u64(), i + 100);
            }
        }
    }

    #[test]
    fn corrupted_record_is_repaired_from_hot_copy() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .hot_capacity_ratio(2.0)
        .build()
        .unwrap());
        for i in 0..50 {
            t.insert(&k(i), &v(i + 100)).unwrap();
        }
        // Damage key 9's value bytes in NVM; its clean copy is in the hot
        // table (inserts cache through it).
        corrupt_record_byte(&t, &k(9), hdnh_common::KEY_LEN + 1, 0x80);
        // A write-path probe reads the NVM record even when the key is hot:
        // the duplicate check detects the damage and repairs it in place.
        assert_eq!(t.insert(&k(9), &v(1)), Err(IndexError::DuplicateKey));
        let (li, b, s) = locate(&t, &k(9));
        let snap = t.pinned();
        let inner = snap.inner;
        let (level, _) = inner.level(li);
        let rec = level.read_record(b, s);
        assert_eq!(rec.value.as_u64(), 109, "record not rebuilt from hot copy");
        assert!(slot_checksum_ok(level.load_header(b), s, &rec));
        drop(snap);
        assert_eq!(t.len(), 50, "repair must not change the live count");
        assert!(t.verify_integrity().is_ok());
    }

    #[test]
    fn corrupted_key_bytes_are_quarantined_not_forged() {
        // Damage to the key bytes makes the record's fingerprint disagree
        // with the DRAM-held OCF witness: repair must refuse to rebuild
        // under a forged key even though a hot copy of the true key exists.
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .enable_hot_table(false)
        .build()
        .unwrap());
        for i in 0..50 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let (li, b, s) = locate(&t, &k(3));
        corrupt_record_byte(&t, &k(3), 0, 0x04);
        {
            // Guard against the 7-bit checksum's documented 1/128
            // false-accept: this particular (byte, mask) pair must be
            // detectable or the assertions below are vacuous.
            let snap = t.pinned();
            let inner = snap.inner;
            let (level, _) = inner.level(li);
            assert!(
                !slot_checksum_ok(level.load_header(b), s, &level.read_record(b, s)),
                "chosen corruption collides in the 7-bit checksum; pick another mask"
            );
        }
        assert_eq!(t.get(&k(3)), None);
        assert_eq!(t.len(), 49);
        assert!(t.verify_integrity().is_ok());
    }

    #[test]
    fn scrub_repairs_hot_backed_slots_and_quarantines_the_rest() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .hot_capacity_ratio(2.0)
        .build()
        .unwrap());
        for i in 0..80 {
            t.insert(&k(i), &v(i + 500)).unwrap();
        }
        assert!(t.scrub().clean(), "fresh table must scrub clean");
        // Three value corruptions (hot copies exist → repair) and two key
        // corruptions (fingerprint witness disagrees → quarantine).
        for key in [11u64, 22, 33] {
            corrupt_record_byte(&t, &k(key), hdnh_common::KEY_LEN + 2, 0x40);
        }
        for key in [44u64, 55] {
            corrupt_record_byte(&t, &k(key), 1, 0x02);
        }
        let report = t.scrub();
        assert_eq!(report.detected, 5, "{report:?}");
        assert_eq!(report.repaired, 3, "{report:?}");
        assert_eq!(report.quarantined, 2, "{report:?}");
        assert_eq!(report.scanned, 80);
        assert_eq!(report.errors.len(), 5);
        assert!(!report.clean());
        let json = report.to_json();
        assert!(json.contains("\"detected\":5") && json.contains("\"repaired\":3"));
        // Post-scrub the table is consistent; repaired keys read back.
        assert!(t.verify_integrity().is_ok());
        assert_eq!(t.len(), 78);
        for key in [11u64, 22, 33] {
            assert_eq!(t.get(&k(key)).unwrap().as_u64(), key + 500);
        }
        // A second pass finds nothing left to do.
        assert!(t.scrub().clean());
    }
}
