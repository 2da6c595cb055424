//! Value-log compaction: reclaim tombstoned bytes without blocking
//! readers (DESIGN.md §17).
//!
//! The compactor picks every segment carrying tombstoned bytes, seals it,
//! waits for the appends still in flight on it (seal → quiesce → scan),
//! relocates each still-live record in one probe (lock the key's slot,
//! compare its pointer under the lock, and only on a match append the
//! verified image to the active segment as is and swap the new pointer
//! in), and finally unmaps the victim. Safety for concurrent readers is
//! two-layered:
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
//! Comparing under the slot lock makes relocation race-free against
//! writers: if a concurrent overwrite or delete wins the lock first, the
//! pointer no longer matches — and never will again, a log pointer being
//! published once — so the record is dead and nothing is appended for it.
//!
//! The price is the hold time. A live record's slot stays locked across
//! its log append (write, flush, fence; at worst a segment rotation and
//! up to 1 MiB of payload); appending first would hold it for a 31 B slot
//! write only, and cost a second probe per record and an orphaned copy per
//! lost race. A probe backs off on *any* busy slot of its candidate
//! buckets, whatever its fingerprint, so for that long every reader or
//! writer whose candidates include the slot — and a resize drain behind
//! them — waits, as it would behind any writer. One record at a time,
//! never a pass: `tests/valuelog.rs` times reads inside passes against
//! the pass length.

use crate::epoch;
use crate::error::HdnhError;
use crate::table::Hdnh;
use hdnh_nvm::PoolDir;
use hdnh_obs as obs;

use super::{segment, VlogPtr};

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

impl Hdnh {
    /// Compacts the value log: evacuates every segment carrying
    /// tombstoned bytes and retires it. Serialized against other
    /// compactions only — readers, writers, and even a concurrent resize
    /// keep running (relocation goes through the ordinary per-slot lock
    /// protocol). Returns what was reclaimed; an I/O failure mid-pass
    /// surfaces after the already-completed victims are accounted.
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
        let victims: Vec<_> = self
            .vlog
            .segments_snapshot()
            .into_iter()
            .filter(|s| s.garbage_bytes() > 0)
            .collect();
        for seg in &victims {
            seg.seal();
        }
        // Seal → quiesce → scan. An appender that reserved before the seal
        // may not have written yet (the scan would stop at its hole and
        // retire every later record unvisited) or not have published its
        // pointer yet (the scan would judge the record dead, and the
        // pointer would then land in a retired segment). Both hold a
        // ticket until their publish returns; wait them out. No epoch pin
        // is held here, so a ticket holder that has to resize can drain.
        for seg in &victims {
            seg.quiesce();
        }
        let mut retired_paths = Vec::new();
        for seg in &victims {
            report.victims += 1;
            let mut relocated = 0u64;
            let mut failure: Option<HdnhError> = None;
            seg.for_each_record(|offset, key, payload_len, image| {
                if failure.is_some() {
                    return;
                }
                let old_ptr = VlogPtr {
                    segment: seg.id(),
                    offset,
                    len: payload_len as u32,
                };
                // Liveness is decided under the slot lock: the index must
                // reference exactly this record. Tombstoned records (and
                // older versions of a rewritten key) fail the pointer
                // comparison and are skipped. The scan already verified
                // the image; the copy is byte-identical, so its checksum
                // still holds.
                match self.relocate_spilled(key, &old_ptr, image, payload_len) {
                    Ok(Some(_new_ptr)) => {
                        // The old record is now unreferenced; account it so
                        // a victim kept alive by a mid-pass failure still
                        // carries honest garbage numbers.
                        seg.mark_garbage(segment::footprint(payload_len) as u64);
                        relocated += segment::footprint(payload_len) as u64;
                        report.records_relocated += 1;
                        obs::count(obs::Counter::VlogGcRecordsRelocated);
                    }
                    Ok(None) => {}
                    Err(e) => failure = Some(e),
                }
            });
            if let Some(e) = failure {
                return Err(e);
            }
            // Every record in the victim is now tombstoned or relocated:
            // unmap it. Readers holding the Arc finish unharmed; later
            // readers re-probe the index.
            self.vlog.remove_segment(seg.id());
            report.segments_retired += 1;
            report.bytes_reclaimed += seg.used().saturating_sub(relocated);
            if let Some(p) = seg.region().file_path() {
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
                let _ = PoolDir::remove_region(&p);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
        // now still lands before the scan, which must find the record
        // live and carry it out of the victim.
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

    fn relocate(t: &Hdnh, key: &Key, old: &VlogPtr, payload: &[u8]) -> Option<VlogPtr> {
        let image = segment::encode_record(key, payload);
        t.relocate_spilled(key, old, &image, payload.len()).unwrap()
    }

    #[test]
    fn relocation_on_a_matching_pointer_appends_exactly_one_record() {
        let t = table();
        let key = Key::from_u64(1);
        t.insert_bytes(&key, &[7u8; 200]).unwrap();
        let old = pointer_of(&t, &key);
        let before = t.vlog_stats();
        let new = relocate(&t, &key, &old, &[7u8; 200]).expect("pointer matched");
        assert_ne!(new, old);
        assert_eq!(pointer_of(&t, &key), new, "the slot names the new copy");
        let after = t.vlog_stats();
        assert_eq!(after.used_bytes, before.used_bytes + segment::footprint(200) as u64);
        // The old record is the caller's to tombstone; nothing else is.
        assert_eq!(after.garbage_bytes, before.garbage_bytes);
        assert_eq!(t.get_bytes(&key).unwrap().unwrap(), vec![7u8; 200]);
        assert_eq!(t.len(), 1);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn relocation_after_an_overwrite_or_a_remove_appends_nothing() {
        let t = table();
        let (overwritten, removed, inlined) = (Key::from_u64(1), Key::from_u64(2), Key::from_u64(3));
        for key in [&overwritten, &removed, &inlined] {
            t.insert_bytes(key, &[1u8; 200]).unwrap();
        }
        let stale = [&overwritten, &removed, &inlined].map(|key| pointer_of(&t, key));
        t.update_bytes(&overwritten, &[2u8; 200]).unwrap();
        assert!(t.remove(&removed).unwrap());
        t.update_bytes(&inlined, &[3u8; 8]).unwrap();
        let before = t.vlog_stats();
        for (key, old) in [&overwritten, &removed, &inlined].into_iter().zip(&stale) {
            assert_eq!(relocate(&t, key, old, &[1u8; 200]), None, "a stale pointer is final");
        }
        // No append, so nothing to orphan: the log did not move at all.
        assert_eq!(t.vlog_stats(), before);
        assert_eq!(t.get_bytes(&overwritten).unwrap().unwrap(), vec![2u8; 200]);
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
        // Inserts cache through; evict the cold key's copy by hand.
        let h = KeyHashes::of(&cold);
        hot.delete(&cold, h.h1, h.h2, h.fp);
        assert!(in_hot(&cached) && !in_hot(&cold));
        for key in [&cached, &cold] {
            let old = pointer_of(&t, key);
            // `pointer_of` reads through `get`, which promotes: undo it.
            if *key == cold {
                hot.delete(&cold, h.h1, h.h2, h.fp);
            }
            let payload = vec![key.as_u64() as u8; 100];
            relocate(&t, key, &old, &payload).expect("live");
        }
        assert!(in_hot(&cached), "a cached pointer is rewritten in place");
        assert!(!in_hot(&cold), "moving a record nobody read must not cache it");
        // The cached copy is the new pointer, not the stale one.
        let (reports, _) = t.verify_integrity_report();
        assert!(reports.iter().all(|r| r.ok), "{reports:?}");
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
