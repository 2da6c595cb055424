//! Value-log compaction: reclaim tombstoned bytes without blocking
//! readers (DESIGN.md §17).
//!
//! The compactor picks every segment carrying tombstoned bytes, seals it,
//! waits for the appends still in flight on it (seal → quiesce), and then
//! sweeps the index, not the log: one walk over every bucket of both
//! levels finds each slot whose pointer names a victim and relocates that
//! record in place (lock the slot, read and verify the one record, append
//! its image as it is to the active segment, swap the new pointer in).
//! Records nothing references are never read. A victim is unmapped once
//! the walk is complete, unless a record it holds failed to verify.
//! Safety for concurrent readers is two-layered:
//!
//! * a reader that already resolved a pointer holds an `Arc` to the
//!   segment, so the bytes stay mapped until its read completes even
//!   after the segment leaves the map (and, on the pool backend, after
//!   the file is unlinked — POSIX keeps unlinked mappings readable);
//! * a reader that resolves the pointer *after* retirement finds the
//!   segment gone (`Vlog::read` → `Ok(None)`) and re-probes the index,
//!   which by then names the relocated copy. Readers therefore never
//!   wait for a pass, a victim or a retirement, and never observe a
//!   missing value.
//!
//! The walk is complete because nothing but the compactor and a resize
//! moves an existing pointer from one slot to another: a write publishes
//! a fresh pointer, never one into a sealed segment once its appends have
//! drained. A resize restarts the walk. So when a walk ends, no slot
//! names a victim but those it found, moved, or had to leave.
//!
//! The price is the hold time. A relocated slot stays locked across its
//! log append (write, flush, fence; at worst a segment rotation and up to
//! 1 MiB of payload). A probe backs off on *any* busy slot of its
//! candidate buckets, whatever its fingerprint, so for that long every
//! reader or writer whose candidates include the slot — and a resize
//! drain behind them — waits, as it would behind any writer. One record
//! at a time, never a pass: `tests/valuelog.rs` times reads inside passes
//! against the pass length.

use std::sync::Arc;

use crate::epoch;
use crate::error::HdnhError;
use crate::table::Hdnh;
use hdnh_obs as obs;

use super::{segment, VlogSegment};

/// Outcome of one [`Hdnh::compact`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Segments selected as victims (they carried tombstoned bytes).
    pub victims: usize,
    /// Victims fully evacuated and unmapped (pool files unlinked).
    pub segments_retired: usize,
    /// Live records rewritten into fresh segments.
    pub records_relocated: usize,
    /// Net bytes returned: victim footprints minus relocated live bytes.
    pub bytes_reclaimed: u64,
}

/// The victims of one pass, by segment id, and what the sweep
/// (`Hdnh::sweep`) found in each.
pub(crate) struct Victims(Vec<Victim>);

/// One victim segment and its side of the sweep.
pub(crate) struct Victim {
    seg: Arc<VlogSegment>,
    /// Records moved out, and their footprint bytes.
    moved: usize,
    moved_bytes: u64,
    /// A record the index names here did not verify: the segment stays.
    kept: bool,
}

impl Victims {
    /// `segments` must be sorted by id (as `Vlog::segments_snapshot`
    /// lists them).
    pub(crate) fn new(segments: Vec<Arc<VlogSegment>>) -> Victims {
        debug_assert!(segments.windows(2).all(|w| w[0].id() < w[1].id()));
        let victim = |seg| Victim { seg, moved: 0, moved_bytes: 0, kept: false };
        Victims(segments.into_iter().map(victim).collect())
    }

    /// The victim with this segment id, if it is one.
    #[inline]
    pub(crate) fn get_mut(&mut self, segment: u32) -> Option<&mut Victim> {
        let at = self.0.binary_search_by_key(&segment, |v| v.seg.id()).ok()?;
        Some(&mut self.0[at])
    }

    /// Records moved out of every victim.
    pub(crate) fn records_moved(&self) -> usize {
        self.0.iter().map(|v| v.moved).sum()
    }
}

impl Victim {
    pub(crate) fn segment(&self) -> &VlogSegment {
        &self.seg
    }

    /// A record with a `payload_len`-byte payload moved out. Its old copy
    /// is unreferenced now: account it, so a victim that stays still
    /// carries honest garbage numbers.
    pub(crate) fn moved(&mut self, payload_len: usize) {
        let bytes = segment::footprint(payload_len) as u64;
        self.seg.mark_garbage(bytes);
        self.moved += 1;
        self.moved_bytes += bytes;
        obs::count(obs::Counter::VlogGcRecordsRelocated);
    }

    /// A record the index names here cannot be moved: keep the segment.
    pub(crate) fn keep(&mut self) {
        self.kept = true;
    }
}

impl Hdnh {
    /// Compacts the value log: evacuates every segment carrying
    /// tombstoned bytes and retires it. Serialized against other
    /// compactions only — readers, writers, and even a concurrent resize
    /// keep running (relocation goes through the ordinary per-slot lock
    /// protocol). Returns what was reclaimed. A victim holding a
    /// referenced record that does not verify is not retired: the record
    /// stays where it is, and its reader gets the corruption. An I/O
    /// failure mid-pass surfaces after the relocations done so far are
    /// accounted, and retires nothing.
    pub fn compact(&self) -> Result<CompactReport, HdnhError> {
        let _g = self.vlog.gc_lock.lock();
        let span = obs::phase_enter(obs::Phase::VlogGc);
        obs::trace::milestone(obs::trace::Milestone::VlogGcStart);
        let mut report = CompactReport::default();
        let out = self.compact_victims(&mut report);
        obs::add(obs::Counter::VlogGcBytesReclaimed, report.bytes_reclaimed);
        obs::add(
            obs::Counter::VlogGcSegmentsRetired,
            report.segments_retired as u64,
        );
        self.vlog.set_last_gc(report);
        obs::phase_record(obs::Phase::VlogGc, span, report.records_relocated as u64);
        obs::trace::milestone(obs::trace::Milestone::VlogGcDone);
        out.map(|()| report)
    }

    fn compact_victims(&self, report: &mut CompactReport) -> Result<(), HdnhError> {
        // Victims: every segment with tombstoned bytes, sealed up front so
        // no new record lands in a segment about to disappear (the next
        // append rotates to a fresh active segment). Relocation targets
        // are whatever segment is active — never a sealed victim.
        let segments = self.vlog.segments_snapshot().into_iter();
        let mut victims = Victims::new(segments.filter(|s| s.garbage_bytes() > 0).collect());
        if victims.0.is_empty() {
            return Ok(());
        }
        for v in &victims.0 {
            v.seg.seal();
        }
        // Seal → quiesce → sweep. An appender that reserved before the seal
        // may not have published its pointer yet: the sweep would miss it,
        // and the pointer would then land in a retired segment. It holds a
        // ticket until its publish returns; wait it out. No epoch pin is
        // held here, so a ticket holder that has to resize can drain.
        for v in &victims.0 {
            v.seg.quiesce();
        }
        report.victims = victims.0.len();
        let swept = self.sweep(&mut victims);
        report.records_relocated = victims.records_moved();
        // An unfinished walk proves no victim empty.
        swept?;
        let mut retired_paths = Vec::new();
        for v in victims.0.iter().filter(|v| !v.kept) {
            // Nothing references the victim any more: unmap it. Readers
            // holding the Arc finish unharmed; later readers re-probe the
            // index.
            self.vlog.remove_segment(v.seg.id());
            report.segments_retired += 1;
            report.bytes_reclaimed += v.seg.used().saturating_sub(v.moved_bytes);
            if let Some(p) = v.seg.region().file_path() {
                retired_paths.push(p.to_path_buf());
            }
        }
        // Quiesce in-flight operations that pinned the index before the
        // relocated pointers were published, then drop the backing files.
        // (Unlinking earlier would also be safe — mappings survive the
        // unlink — but this keeps "no reader can still reach a retired
        // path" a one-line argument.)
        if !retired_paths.is_empty() {
            epoch::drain();
            for p in retired_paths {
                let _ = std::fs::remove_file(&p);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::VlogPtr;
    use super::*;
    use crate::params::HdnhParams;
    use hdnh_common::hash::KeyHashes;
    use hdnh_common::Key;

    fn table() -> Hdnh {
        Hdnh::new(
            HdnhParams::builder()
                .segment_bytes(4096)
                .initial_bottom_segments(2)
                .vlog_segment_bytes(1024)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn compact_on_empty_log_is_a_noop() {
        let t = table();
        assert_eq!(t.compact().unwrap(), CompactReport::default());
    }

    #[test]
    fn compact_reclaims_overwritten_values() {
        let t = table();
        let key = Key::from_u64(1);
        t.insert_bytes(&key, &[1u8; 200]).unwrap();
        for round in 2..10u8 {
            t.update_bytes(&key, &[round; 200]).unwrap();
        }
        let before = t.vlog_stats();
        assert!(before.garbage_bytes > 0);
        let report = t.compact().unwrap();
        assert!(report.segments_retired > 0, "{report:?}");
        assert!(
            report.bytes_reclaimed * 2 >= before.garbage_bytes,
            "reclaimed {} of {} garbage bytes",
            report.bytes_reclaimed,
            before.garbage_bytes
        );
        assert!(t.vlog_stats().garbage_bytes < before.garbage_bytes);
        assert_eq!(t.get_bytes(&key).unwrap().unwrap(), vec![9u8; 200]);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn compact_relocates_live_records_readably() {
        let t = table();
        for i in 0..20u64 {
            t.insert_bytes(&Key::from_u64(i), &[i as u8; 100]).unwrap();
        }
        for i in 0..10u64 {
            assert!(t.remove(&Key::from_u64(i)).unwrap());
        }
        let report = t.compact().unwrap();
        assert!(report.records_relocated > 0, "{report:?}");
        assert!(report.segments_retired > 0, "{report:?}");
        for i in 10..20u64 {
            assert_eq!(
                t.get_bytes(&Key::from_u64(i)).unwrap().unwrap(),
                vec![i as u8; 100],
                "key {i} after compaction"
            );
        }
        t.verify_integrity().unwrap();
        // The report is surfaced through stats for INFO / /varz.
        assert_eq!(t.vlog_stats().last_gc, Some(report));
    }

    #[test]
    fn compact_waits_out_an_append_published_after_the_seal() {
        let t = std::sync::Arc::new(table());
        let key = Key::from_u64(1);
        t.insert_bytes(&key, &[1u8; 200]).unwrap();
        // The overwrite leaves garbage: the first segment is a victim.
        t.update_bytes(&key, &[2u8; 200]).unwrap();
        // An append that reserved and wrote in the victim but has not
        // published its pointer when the compactor seals.
        let late = Key::from_u64(2);
        let (ptr, ticket) = t.vlog.append_ticketed(&late, &[3u8; 200]).unwrap();
        let victim = t.vlog.segment(ptr.segment).unwrap();
        assert!(victim.garbage_bytes() > 0);
        let gc = std::thread::spawn({
            let t = std::sync::Arc::clone(&t);
            move || t.compact().unwrap()
        });
        while !victim.is_sealed() {
            std::thread::yield_now();
        }
        // The ticket holds the compactor at the quiesce step: publishing
        // now still lands before the sweep, which must find the pointer
        // and carry the record out of the victim.
        t.store(None, &late, &ptr.to_value(), true, crate::table::Accept::Absent).unwrap();
        drop(ticket);
        let report = gc.join().unwrap();
        assert!(t.vlog.segment(ptr.segment).is_none(), "victim retired: {report:?}");
        assert_eq!(report.records_relocated, 2, "{report:?}");
        assert_eq!(t.get_bytes(&late).unwrap().unwrap(), vec![3u8; 200]);
        assert_eq!(t.get_bytes(&key).unwrap().unwrap(), vec![2u8; 200]);
        t.verify_integrity().unwrap();
    }

    /// The slot's current spill pointer for `key`.
    fn pointer_of(t: &Hdnh, key: &Key) -> VlogPtr {
        t.spill_pointer(key).expect("spilled")
    }

    /// Sweeps the index for pointers into `segment` alone, unsealed, as a
    /// pass does for each victim; returns the records moved out of it.
    fn sweep_segment(t: &Hdnh, segment: u32) -> usize {
        let mut victims = Victims::new(vec![t.vlog.segment(segment).expect("mapped")]);
        t.sweep(&mut victims).unwrap();
        assert!(!victims.0[0].kept, "a verified record was left behind");
        victims.records_moved()
    }

    #[test]
    fn relocation_on_a_matching_pointer_appends_exactly_one_record() {
        let t = table();
        let key = Key::from_u64(1);
        t.insert_bytes(&key, &[7u8; 200]).unwrap();
        let old = pointer_of(&t, &key);
        let before = t.vlog_stats();
        assert_eq!(sweep_segment(&t, old.segment), 1);
        let new = pointer_of(&t, &key);
        assert_ne!(new, old, "the slot names the new copy");
        let after = t.vlog_stats();
        let fp = segment::footprint(200) as u64;
        assert_eq!(after.used_bytes, before.used_bytes + fp);
        // The moved-out copy is tombstoned in its victim, and nothing else.
        assert_eq!(after.garbage_bytes, before.garbage_bytes + fp);
        assert_eq!(t.get_bytes(&key).unwrap().unwrap(), vec![7u8; 200]);
        assert_eq!(t.len(), 1);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn relocation_after_an_overwrite_or_a_remove_appends_nothing() {
        let t = table();
        let (overwritten, removed, inlined) = (Key::from_u64(1), Key::from_u64(2), Key::from_u64(3));
        // Three 300-byte records fill one 1 KiB segment: what is written
        // after them goes to the next one.
        for key in [&overwritten, &removed, &inlined] {
            t.insert_bytes(key, &[1u8; 300]).unwrap();
        }
        let victim = pointer_of(&t, &overwritten).segment;
        assert!([&removed, &inlined].iter().all(|key| pointer_of(&t, key).segment == victim));
        t.update_bytes(&overwritten, &[2u8; 300]).unwrap();
        assert_ne!(pointer_of(&t, &overwritten).segment, victim);
        assert!(t.remove(&removed).unwrap());
        t.update_bytes(&inlined, &[3u8; 8]).unwrap();
        let before = t.vlog_stats();
        assert_eq!(sweep_segment(&t, victim), 0, "stale pointers are final");
        // No append, so nothing to orphan: the log did not move at all.
        assert_eq!(t.vlog_stats(), before);
        assert_eq!(t.get_bytes(&overwritten).unwrap().unwrap(), vec![2u8; 300]);
        assert_eq!(t.get_bytes(&removed).unwrap(), None);
        assert_eq!(t.get_bytes(&inlined).unwrap().unwrap(), vec![3u8; 8]);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn relocation_refreshes_a_cached_pointer_but_does_not_promote() {
        let t = table();
        let (cached, cold) = (Key::from_u64(1), Key::from_u64(2));
        t.insert_bytes(&cached, &[1u8; 100]).unwrap();
        t.insert_bytes(&cold, &[2u8; 100]).unwrap();
        let hot = t.hot_table().unwrap();
        let in_hot = |key: &Key| {
            let h = KeyHashes::of(key);
            hot.is_hot(key, h.h1, h.h2, h.fp).is_some()
        };
        let victim = pointer_of(&t, &cached).segment;
        assert_eq!(pointer_of(&t, &cold).segment, victim);
        // Inserts cache through; `pointer_of` reads through `get`, which
        // promotes: evict the cold key's copy by hand, after both.
        let h = KeyHashes::of(&cold);
        hot.delete(&cold, h.h1, h.h2, h.fp);
        assert!(in_hot(&cached) && !in_hot(&cold));
        assert_eq!(sweep_segment(&t, victim), 2);
        assert!(in_hot(&cached), "a cached pointer is rewritten in place");
        assert!(!in_hot(&cold), "moving a record nobody read must not cache it");
        // The cached copy is the new pointer, not the stale one.
        let (reports, _) = t.verify_integrity_report();
        assert!(reports.iter().all(|r| r.ok), "{reports:?}");
        assert_eq!(t.get_bytes(&cached).unwrap().unwrap(), vec![1u8; 100]);
        assert_eq!(t.get_bytes(&cold).unwrap().unwrap(), vec![2u8; 100]);
    }

    /// One damaged record among ten in a victim: the nine intact values
    /// are moved and read back, the damaged one keeps its victim mapped
    /// and reports its corruption, as it did before the pass.
    #[test]
    fn a_damaged_record_keeps_its_victim_and_costs_no_other_value() {
        let t = Hdnh::new(
            HdnhParams::builder()
                .segment_bytes(4096)
                .initial_bottom_segments(2)
                .vlog_segment_bytes(64 * 1024)
                .build()
                .unwrap(),
        );
        let value = |k: u64| vec![k as u8 + 1; 200];
        for k in 0..10u64 {
            t.insert_bytes(&Key::from_u64(k), &value(k)).unwrap();
        }
        // Key 0's new copy lands after key 3's record in the same segment,
        // which the overwrite made a victim.
        t.update_bytes(&Key::from_u64(0), &value(0)).unwrap();
        let damaged = Key::from_u64(3);
        let ptr = pointer_of(&t, &damaged);
        assert_eq!(pointer_of(&t, &Key::from_u64(0)).segment, ptr.segment);
        let victim = t.vlog.segment(ptr.segment).unwrap();
        victim.region().corrupt(ptr.offset as usize + 4 + hdnh_common::KEY_LEN + 50, &[0x01]);
        let report = t.compact().unwrap();
        assert_eq!(
            (report.victims, report.segments_retired, report.records_relocated),
            (1, 0, 9),
            "{report:?}"
        );
        assert!(t.vlog.segment(ptr.segment).is_some(), "the victim stays mapped");
        for k in (0..10u64).filter(|&k| k != 3) {
            assert_eq!(t.get_bytes(&Key::from_u64(k)).unwrap(), Some(value(k)), "key {k}");
        }
        let e = t.get_bytes(&damaged).unwrap_err();
        let HdnhError::VlogCorruption { segment, .. } = e else { panic!("{e}") };
        assert_eq!(segment, ptr.segment);
        // The next pass finds the victim again, and still leaves it.
        let again = t.compact().unwrap();
        assert_eq!((again.segments_retired, again.records_relocated), (0, 0), "{again:?}");
    }

    /// A slot whose pointer bytes are damaged is repaired from its hot
    /// copy by the sweep itself, and the record it names moved, before
    /// its victim retires: a repair behind the walk would otherwise bring
    /// back a pointer into a retired segment.
    #[test]
    fn a_damaged_slot_is_repaired_and_its_record_moved() {
        let t = table();
        let (key, other) = (Key::from_u64(1), Key::from_u64(2));
        t.insert_bytes(&key, &[7u8; 200]).unwrap();
        t.insert_bytes(&other, &[8u8; 200]).unwrap();
        t.update_bytes(&other, &[9u8; 200]).unwrap();
        let old = pointer_of(&t, &key);
        // Value byte 1 is the low byte of the pointer's segment id: the
        // damaged word names no victim.
        assert_eq!(t.corrupt_record_for_test(&key, hdnh_common::KEY_LEN + 1, 0x40), Some(true));
        let report = t.compact().unwrap();
        assert_eq!(report.segments_retired, report.victims, "{report:?}");
        assert!(t.vlog.segment(old.segment).is_none(), "the victim retired");
        assert_eq!(t.get_bytes(&key).unwrap().unwrap(), vec![7u8; 200]);
        assert_eq!(t.get_bytes(&other).unwrap().unwrap(), vec![9u8; 200]);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn compact_moves_each_live_record_once_and_tombstones_its_old_copy() {
        let t = table();
        let (kept, gone) = (Key::from_u64(1), Key::from_u64(2));
        t.insert_bytes(&kept, &[5u8; 200]).unwrap();
        t.insert_bytes(&gone, &[6u8; 200]).unwrap();
        assert!(t.remove(&gone).unwrap());
        let report = t.compact().unwrap();
        assert_eq!((report.victims, report.segments_retired, report.records_relocated), (1, 1, 1));
        let fp = segment::footprint(200) as u64;
        assert_eq!(report.bytes_reclaimed, fp, "the removed record's bytes, net of the move");
        let stats = t.vlog_stats();
        assert_eq!((stats.used_bytes, stats.garbage_bytes), (fp, 0), "{stats:?}");
        assert_eq!(t.get_bytes(&kept).unwrap().unwrap(), vec![5u8; 200]);
        t.verify_integrity().unwrap();
    }

    /// A writer overwrites, removes and re-inserts the keys the compactor
    /// is relocating, both sides released together each round. Whoever
    /// wins a slot, the log's books must balance afterwards: the bytes
    /// not tombstoned are exactly the live values' footprints — an
    /// appended-but-unpublished copy left unaccounted would show here.
    #[test]
    fn relocation_racing_overwrites_and_removes_keeps_the_books() {
        const KEYS: u64 = 24;
        const ROUNDS: u64 = 150;
        let t = std::sync::Arc::new(table());
        let len_of = |k: u64, round: u64| 40 + ((k * 7 + round * 13) % 160) as usize;
        for k in 0..KEYS {
            t.insert_bytes(&Key::from_u64(k), &vec![k as u8; len_of(k, 0)]).unwrap();
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 1..=ROUNDS {
                    start.wait();
                    for k in 0..KEYS {
                        let key = Key::from_u64(k);
                        match (k + round) % 3 {
                            0 => {
                                t.remove(&key).unwrap();
                            }
                            _ => t.upsert_bytes(&key, &vec![k as u8; len_of(k, round)]).unwrap(),
                        }
                    }
                }
            });
            for _ in 1..=ROUNDS {
                start.wait();
                t.compact().unwrap();
            }
        });
        let live: u64 = (0..KEYS)
            .filter_map(|k| t.get_bytes(&Key::from_u64(k)).unwrap())
            .map(|v| segment::footprint(v.len()) as u64)
            .sum();
        // Bytes of records physically in the log (a segment sealed by an
        // append that did not fit also counts its unused tail as used).
        let recorded = |t: &Hdnh| -> u64 {
            let mut bytes = 0;
            for seg in t.vlog.segments_snapshot() {
                seg.for_each_record(|_, _, len, _| bytes += segment::footprint(len) as u64);
            }
            bytes
        };
        assert_eq!(recorded(&t) - t.vlog_stats().garbage_bytes, live, "{:?}", t.vlog_stats());
        t.verify_integrity().unwrap();
        // One more pass with nobody racing leaves no garbage at all.
        t.compact().unwrap();
        assert_eq!(t.vlog_stats().garbage_bytes, 0);
        assert_eq!(recorded(&t), live);
    }

    #[test]
    fn dangling_pointer_is_an_error_not_a_spin() {
        let t = table();
        let key = Key::from_u64(7);
        t.insert_bytes(&key, &[5u8; 100]).unwrap();
        let ptr = pointer_of(&t, &key);
        t.vlog.remove_segment(ptr.segment).unwrap();
        let e = t.get_bytes(&key).unwrap_err();
        assert!(matches!(e, HdnhError::VlogCorruption { segment, .. } if segment == ptr.segment));
    }
}
