//! Value-log compaction: reclaim tombstoned bytes without blocking
//! readers (DESIGN.md §17).
//!
//! The compactor picks every segment carrying tombstoned bytes, seals it,
//! waits for the appends still in flight on it (seal → quiesce → scan),
//! relocates each still-live record (its verified image is appended to the
//! active segment as is, then a *guarded* index update lands only while
//! the slot still carries the old pointer), and finally unmaps the victim.
//! Safety for concurrent readers is two-layered:
//!
//! * a reader that already resolved a pointer holds an `Arc` to the
//!   segment, so the bytes stay mapped until its read completes even
//!   after the segment leaves the map (and, on the pool backend, after
//!   the file is unlinked — POSIX keeps unlinked mappings readable);
//! * a reader that resolves the pointer *after* retirement finds the
//!   segment gone (`Vlog::read` → `Ok(None)`) and re-probes the index,
//!   which by then names the relocated copy. Readers therefore never
//!   block on the compactor and never observe a missing value.
//!
//! The guarded update makes relocation race-free against writers: if a
//! concurrent overwrite or delete wins the slot lock first, the guard
//! mismatches, the relocation aborts, and the freshly appended copy is
//! immediately tombstoned (it was never referenced).

use crate::epoch;
use crate::error::HdnhError;
use crate::table::Hdnh;
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
                // Liveness: the index must reference exactly this record.
                // Tombstoned records (and older versions of a rewritten
                // key) fail the pointer comparison and are skipped.
                let live = matches!(
                    self.get(key),
                    Ok(Some(v)) if VlogPtr::from_value(&v) == Some(old_ptr)
                );
                if !live {
                    return;
                }
                // The scan already verified the image; the copy is
                // byte-identical, so its checksum still holds.
                let (new_ptr, _ticket) = match self.vlog.append_image(image, payload_len) {
                    Ok(appended) => appended,
                    Err(e) => {
                        failure = Some(e);
                        return;
                    }
                };
                // Guarded swap under the slot lock: lands only while the
                // slot is still spill-flagged with the old pointer.
                match self.update_inner(key, &new_ptr.to_value(), true, Some(&old_ptr.to_value()))
                {
                    Ok(_) => {
                        // The old record is now unreferenced; account it so
                        // a victim kept alive by a mid-pass failure still
                        // carries honest garbage numbers.
                        self.vlog.mark_garbage(&old_ptr);
                        relocated += segment::footprint(payload_len) as u64;
                        report.records_relocated += 1;
                        obs::count(obs::Counter::VlogGcRecordsRelocated);
                    }
                    // A writer superseded the record mid-relocation: the
                    // new copy was never published — orphan it.
                    Err(_) => self.vlog.mark_garbage(&new_ptr),
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
                let _ = std::fs::remove_file(&p);
                hdnh_nvm::shadow::remove_sidecar(&p);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HdnhParams;
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
        t.insert_inner(&late, &ptr.to_value(), true).unwrap();
        drop(ticket);
        let report = gc.join().unwrap();
        assert!(t.vlog.segment(ptr.segment).is_none(), "victim retired: {report:?}");
        assert_eq!(report.records_relocated, 2, "{report:?}");
        assert_eq!(t.get_bytes(&late).unwrap().unwrap(), vec![3u8; 200]);
        assert_eq!(t.get_bytes(&key).unwrap().unwrap(), vec![2u8; 200]);
        t.verify_integrity().unwrap();
    }

    #[test]
    fn dangling_pointer_is_an_error_not_a_spin() {
        let t = table();
        let key = Key::from_u64(7);
        t.insert_bytes(&key, &[5u8; 100]).unwrap();
        let ptr = VlogPtr::from_value(&t.get(&key).unwrap().unwrap()).unwrap();
        t.vlog.remove_segment(ptr.segment).unwrap();
        let e = t.get_bytes(&key).unwrap_err();
        assert!(matches!(e, HdnhError::VlogCorruption { segment, .. } if segment == ptr.segment));
    }
}
