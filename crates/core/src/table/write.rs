//! The write protocol: one `write_with` behind every insert, update,
//! upsert and remove, the `place` a GC relocation (`bytes.rs`) shares with
//! them, and the hot-table half of each.

use std::sync::atomic::Ordering;
use std::time::Instant;

use hdnh_common::hash::KeyHashes;
use hdnh_common::{HashIndex, IndexResult, Key, Record, Value};
use hdnh_nvm::fault;
use hdnh_obs as obs;

use super::probe::{Located, Probe, Witness};
use super::{Hdnh, RAFL_RNG};
use crate::error::HdnhError;
use crate::hot::{HotBuckets, HotTable};
use crate::nvtable::slot_meta;
use crate::ocf::Backoff;
use crate::sync::HotOp;

/// What a write does about a key, answered under the key's slot lock — or,
/// for an absent key, after a validated miss.
pub(super) enum Decision {
    /// Store `value`. `spilled`: the 15 bytes are a packed value-log
    /// pointer (committed into the header's spill flag). `refresh_only`
    /// limits the hot-table half to rewriting a copy already cached.
    Put { value: Value, spilled: bool, refresh_only: bool },
    /// Remove the key (nothing to do when it is absent).
    Remove,
}

/// Which of a key's two states a store accepts.
#[derive(Clone, Copy)]
pub(crate) enum Accept {
    /// Insert: a present key is `DuplicateKey`.
    Absent,
    /// Update: an absent key is `KeyNotFound`.
    Present,
    /// Upsert.
    Either,
}

impl Hdnh {
    /// Starts the hot-table half of a write. Returns a waiter to invoke
    /// after the NVM half committed.
    fn begin_hot_write<'a>(
        &self,
        probe: &Probe<'a>,
        op: impl FnOnce(HotBuckets) -> HotOp,
    ) -> HotWrite<'a> {
        match (probe.hot, &self.sync) {
            (Some((hot, at)), Some(pool)) => {
                fault::point("hot.dispatched");
                HotWrite::Pending(pool.dispatch(hot, op(at)))
            }
            (Some((hot, at)), None) => HotWrite::Inline(hot, op(at)),
            (None, _) => HotWrite::None,
        }
    }

    fn finish_hot_write(w: HotWrite) {
        match w {
            HotWrite::Pending(handle) => {
                fault::point("hot.wait_completed");
                handle.wait()
            }
            HotWrite::Inline(hot, op) => RAFL_RNG.with(|r| op.apply(hot, &mut r.borrow_mut())),
            HotWrite::None => {}
        }
    }

    /// A settled write's answer: its own outcome, or the pool's sticky I/O
    /// fault ([`Hdnh::io_fault`]) — a write whose flush may have failed is
    /// never acknowledged as durable.
    pub(super) fn acked<T>(&self, out: Result<T, HdnhError>) -> Result<T, HdnhError> {
        let done = out?;
        match self.io_fault() {
            None => Ok(done),
            Some(fault) => {
                if !self.io_fault_traced.swap(true, Ordering::Relaxed) {
                    obs::trace::emit(obs::trace::EventKind::IoFault, 0, 0);
                }
                Err(fault)
            }
        }
    }

    /// A word-level write through [`HashIndex`]: `store` of an unspilled
    /// word, acknowledged like every other write.
    fn word_write(&self, key: &Key, value: &Value, accept: Accept) -> IndexResult<()> {
        Ok(self.acked(self.store(obs::op_start(), key, value, false, accept))?)
    }

    /// Removes a key. Returns `Ok(true)` if it was present. A spilled
    /// value's log entry is tombstoned for the compactor to reclaim.
    pub fn remove(&self, key: &Key) -> Result<bool, HdnhError> {
        let t = obs::op_start();
        let out = self.write_with(key, |old| {
            old.inspect(|_| fault::point("remove.old_locked"));
            Ok(Decision::Remove)
        });
        obs::op_record(obs::OpKind::Remove, t);
        let old = out?;
        Self::tombstone_old(&self.vlog, old);
        self.acked(Ok(old.is_some()))
    }

    /// The word-level store behind every insert, update and upsert of
    /// either vocabulary: stores `value` if the key is in a state `accept`
    /// takes. `spilled` marks the value bytes as a packed value-log
    /// pointer. A spilled word it replaces has its log entry tombstoned,
    /// and the operation, timed from `started`, is recorded once, here,
    /// as the insert or the update it turned out to be.
    pub(crate) fn store(
        &self,
        started: Option<Instant>,
        key: &Key,
        value: &Value,
        spilled: bool,
        accept: Accept,
    ) -> Result<(), HdnhError> {
        let out = self.write_with(key, |old| match (old, accept) {
            (Some(_), Accept::Absent) => Err(HdnhError::DuplicateKey),
            (None, Accept::Present) => Err(HdnhError::KeyNotFound),
            _ => {
                old.inspect(|_| fault::point("update.old_locked"));
                Ok(Decision::Put { value: *value, spilled, refresh_only: false })
            }
        });
        let kind = match (accept, &out) {
            (Accept::Present, _) | (Accept::Either, Ok(Some(_))) => obs::OpKind::Update,
            _ => obs::OpKind::Insert,
        };
        obs::op_record(kind, started);
        Self::tombstone_old(&self.vlog, out?);
        Ok(())
    }

    /// The write protocol (figures 9 & 10; module docs), once for every
    /// operation: one pin, one hash, one address-first probe, one
    /// search-and-lock, then `decide` — shown the key's old
    /// `(value, spilled)` pair, stable under the slot lock, or `None` after
    /// a validated miss — says what to do. Returns the pair the write
    /// replaced or removed: `None` when the key was absent or kept.
    /// `decide` runs again whenever the attempt starts over: after growing
    /// a table with no room for the record, or after backing off from a
    /// rival writer of the same absent key.
    pub(super) fn write_with(
        &self,
        key: &Key,
        mut decide: impl FnMut(Option<(Value, bool)>) -> Result<Decision, HdnhError>,
    ) -> Result<Option<(Value, bool)>, HdnhError> {
        let h = KeyHashes::of(key);
        let mut backoff = Backoff::new();
        'attempt: loop {
            let gen = 'pinned: {
                let (snap, gen) = self.pin_for_write();
                let probe = snap.inner.probe(&h, self.n_candidates());
                let mut seen = Witness::default();
                let found = self.find_and_lock(key, &probe, &mut seen);
                let old = found.as_ref();
                let replaced = old.map(|o| (o.value, o.spilled));
                match (decide(replaced), old) {
                    (Ok(Decision::Put { value, spilled, refresh_only }), _) => {
                        let Some(new) = probe.claim_empty(old, value, spilled) else {
                            // Every candidate bucket full in both levels: grow.
                            old.inspect(|o| probe.unlock(o));
                            break 'pinned gen;
                        };
                        if old.is_none() && !probe.unchanged_since(&seen, &new) {
                            // A rival is placing this key: give way, look again.
                            probe.unlock(&new);
                            backoff.wait();
                            continue 'attempt;
                        }
                        self.place(&probe, key, old, &new, refresh_only);
                    }
                    (Ok(Decision::Remove), Some(o)) => {
                        let (level, ocf) = probe.inner.level(o.li);
                        let hot = self.begin_hot_write(&probe, |at| HotOp::Delete {
                            key: *key,
                            at,
                            fp: h.fp,
                        });
                        level.commit_slot_invalid(o.bucket, o.slot);
                        fault::point("remove.bitmap_cleared");
                        ocf.commit(o.bucket, o.slot, o.entry, false, 0);
                        fault::point("remove.published");
                        Self::finish_hot_write(hot);
                        self.count.fetch_sub(1, Ordering::Relaxed);
                    }
                    (declined, _) => {
                        old.inspect(|o| probe.unlock(o));
                        return declined.map(|_| None);
                    }
                }
                return Ok(replaced);
            }; // pin dropped here: the resize drain must not wait on us
            self.resize(gen)?;
        }
    }

    /// Figure 9 and figure 10 from where they are the same: writes the
    /// record into `new`, a claimed empty slot, commits and publishes it,
    /// and retires `old`, the key's locked slot, if it had one.
    ///
    /// The hot-table half starts once the slot is held, overlapping the
    /// NVM write, and always completes BEFORE the OCF publish: the moment
    /// the new slot is visible another writer can claim the key and write
    /// its own hot copy, which a hot write finishing later would overwrite
    /// with this, by then stale, one.
    pub(super) fn place(
        &self,
        probe: &Probe,
        key: &Key,
        old: Option<&Located>,
        new: &Located,
        refresh_only: bool,
    ) {
        let (level, ocf) = probe.inner.level(new.li);
        // Same bucket: both bitmap bits flip in ONE atomic store (figure
        // 10c). Another bucket: two atomic commits.
        let swap = old.is_some_and(|o| (o.li, o.bucket) == (new.li, new.bucket));
        let [written, committed, published] = match old {
            None => ["insert.record_written", "insert.bitmap_committed", "insert.published"],
            Some(_) if swap => ["update.new_written", "update.swap_committed", "update.published"],
            Some(_) => [
                "update.fallback.new_written",
                "update.fallback.new_committed",
                "update.fallback.published",
            ],
        };
        if old.is_none() {
            fault::point("insert.slot_locked");
        }
        let rec = Record::new(*key, new.value);
        let (ck, fp) = (slot_meta(&rec, new.spilled), probe.h.fp);
        let hot = self.begin_hot_write(probe, |at| match refresh_only {
            true => HotOp::Refresh { rec, spilled: new.spilled, at, fp },
            false => HotOp::Put { rec, spilled: new.spilled, at, fp },
        });
        // The record is persisted while invisible.
        level.write_record(new.bucket, new.slot, &rec);
        fault::point(written);
        let Some(old) = old else {
            // The failure-atomic commit: valid bit and record checksum in
            // one store. Then publish in DRAM, releasing the lock.
            level.commit_slot_valid(new.bucket, new.slot, ck);
            fault::point(committed);
            Self::finish_hot_write(hot);
            ocf.commit(new.bucket, new.slot, new.entry, true, fp);
            fault::point(published);
            self.count.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let (old_level, old_ocf) = probe.inner.level(old.li);
        Self::finish_hot_write(hot);
        if swap {
            level.commit_slot_swap(new.bucket, old.slot, new.slot, ck);
        } else {
            // The double-copy window: both versions are bitmap-valid until
            // the old slot is cleared below; recovery dedupes it.
            level.commit_slot_valid(new.bucket, new.slot, ck);
        }
        fault::point(committed);
        ocf.commit(new.bucket, new.slot, new.entry, true, fp);
        // Bumped strictly between publishing the new copy and retiring the
        // old one: a reader that missed the new slot (read before the line
        // above) and the old slot (read after the commit below) observes
        // the bump and retries.
        self.relocations.fetch_add(1, Ordering::SeqCst);
        if !swap {
            old_level.commit_slot_invalid(old.bucket, old.slot);
            fault::point("update.fallback.old_cleared");
        }
        old_ocf.commit(old.bucket, old.slot, old.entry, false, 0);
        fault::point(published);
    }
}

enum HotWrite<'a> {
    Pending(crate::sync::SyncHandle),
    Inline(&'a HotTable, HotOp),
    None,
}

/// The word level (DESIGN.md §17): the paper's fixed 15-byte values, the
/// vocabulary the baselines and the bench harness share. Errors narrow to
/// [`IndexError`](hdnh_common::IndexError) through `From<HdnhError>`.
impl HashIndex for Hdnh {
    /// Inserts a new record (figure 9).
    fn insert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        self.word_write(key, value, Accept::Absent)
    }

    /// Point lookup (§3.5, figure 8): the slot's 15 value bytes as stored.
    fn get(&self, key: &Key) -> Option<Value> {
        self.get_word(key).map(|(value, _)| value)
    }

    /// Replaces the value of an existing key (figure 10).
    fn update(&self, key: &Key, value: &Value) -> IndexResult<()> {
        self.word_write(key, value, Accept::Present)
    }

    fn remove(&self, key: &Key) -> bool {
        Hdnh::remove(self, key).unwrap_or(false)
    }

    /// One probe, recorded as the update or the insert it turned out to be.
    fn upsert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        self.word_write(key, value, Accept::Either)
    }

    fn len(&self) -> usize {
        Hdnh::len(self)
    }

    fn load_factor(&self) -> f64 {
        Hdnh::load_factor(self)
    }

    fn scheme_name(&self) -> &'static str {
        "HDNH"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{k, table, v};
    use super::*;
    use crate::params::{HdnhParams, SyncMode};
    use hdnh_common::IndexError;
    use std::sync::Arc;

    #[test]
    fn insert_get_roundtrip() {
        let t = table();
        for i in 0..100 {
            t.insert(&k(i), &v(i * 2)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i * 2, "key {i}");
        }
        assert_eq!(t.get(&k(1000)), None);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let t = table();
        t.insert(&k(1), &v(1)).unwrap();
        assert_eq!(t.insert(&k(1), &v(2)), Err(IndexError::DuplicateKey));
        assert_eq!(t.get(&k(1)).unwrap().as_u64(), 1);
    }

    #[test]
    fn update_changes_value() {
        let t = table();
        t.insert(&k(7), &v(70)).unwrap();
        t.update(&k(7), &v(71)).unwrap();
        assert_eq!(t.get(&k(7)).unwrap().as_u64(), 71);
        assert_eq!(t.len(), 1);
        assert_eq!(t.update(&k(8), &v(1)), Err(IndexError::KeyNotFound));
    }

    #[test]
    fn repeated_updates_do_not_leak_slots() {
        let t = table();
        t.insert(&k(3), &v(0)).unwrap();
        for i in 1..200 {
            t.update(&k(3), &v(i)).unwrap();
            assert_eq!(t.get(&k(3)).unwrap().as_u64(), i);
        }
        assert_eq!(t.len(), 1);
        // Only one valid NVM slot for the key.
        let snap = t.pinned();
        let inner = snap.inner;
        let total_valid: u32 = [&inner.top, &inner.bottom]
            .iter()
            .flat_map(|l| (0..l.n_buckets()).map(|b| (l.load_header(b) as u8).count_ones()))
            .sum();
        assert_eq!(total_valid, 1);
    }

    #[test]
    fn remove_works() {
        let t = table();
        for i in 0..50 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..50 {
            assert!(t.remove(&k(i)).unwrap(), "remove {i}");
            assert_eq!(t.get(&k(i)), None);
            assert!(!t.remove(&k(i)).unwrap());
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn background_sync_mode_correctness() {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .sync_mode(SyncMode::Background)
        .build()
        .unwrap());
        for i in 0..1000 {
            t.insert(&k(i), &v(i * 3)).unwrap();
        }
        for i in 0..1000 {
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i * 3);
        }
        for i in 0..1000 {
            t.update(&k(i), &v(i * 5)).unwrap();
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i * 5, "hot table stale after update");
        }
        for i in (0..1000).step_by(2) {
            assert!(t.remove(&k(i)).unwrap());
            assert_eq!(t.get(&k(i)), None, "hot table resurrects deleted key");
        }
    }

    #[test]
    fn upsert_via_trait() {
        let t = table();
        let idx: &dyn HashIndex = &t;
        idx.upsert(&k(1), &v(1)).unwrap();
        idx.upsert(&k(1), &v(2)).unwrap();
        assert_eq!(idx.get(&k(1)).unwrap().as_u64(), 2);
        assert_eq!(idx.scheme_name(), "HDNH");
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(4096)
        .initial_bottom_segments(4)
        .sync_mode(SyncMode::Background)
        .build()
        .unwrap()));
        let mut handles = Vec::new();
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let id = tid * 1_000_000 + i;
                    t.insert(&k(id), &v(id ^ 0xABCD)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 16_000);
        for tid in 0..8u64 {
            for i in (0..2_000u64).step_by(97) {
                let id = tid * 1_000_000 + i;
                assert_eq!(t.get(&k(id)).unwrap().as_u64(), id ^ 0xABCD);
            }
        }
    }

    #[test]
    fn concurrent_readers_and_writers_see_consistent_values() {
        // Writers update keys with values derived from the key; readers
        // must never observe a torn/foreign value (invariant I3).
        let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(4096)
        .initial_bottom_segments(8)
        .build()
        .unwrap()));
        const KEYS: u64 = 256;
        for i in 0..KEYS {
            t.insert(&k(i), &v(i << 32)).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for tid in 0..2u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut seq = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = (seq * 31 + tid * 7) % KEYS;
                    // Writers own disjoint halves of the key space.
                    let id = if tid == 0 { id / 2 * 2 } else { id / 2 * 2 + 1 };
                    let _ = t.update(&k(id), &v((id << 32) | seq));
                    seq += 1;
                }
            }));
        }
        for _ in 0..4 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = n % KEYS;
                    if let Some(val) = t.get(&k(id)) {
                        assert_eq!(
                            val.as_u64() >> 32,
                            id,
                            "torn value for key {id}: {:#x}",
                            val.as_u64()
                        );
                    }
                    n += 1;
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn contended_writers_count_backoff_rounds() {
        obs::set_enabled(true);
        let rounds = || obs::snapshot().counter(obs::Counter::OpmapBackoffRound);
        let t = Arc::new(table());
        t.insert(&k(1), &v(0)).unwrap();
        // Hold the key's slot lock, so the writer below must wait for it.
        let snap = t.pinned();
        let probe = snap.inner.probe(&KeyHashes::of(&k(1)), t.n_candidates());
        let held = t.find_and_lock(&k(1), &probe, &mut Witness::default()).unwrap();
        // The counter is process-global: other tests can only raise it, so
        // none of them can make this wait fail.
        let before = rounds();
        let writer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.update(&k(1), &v(7)).unwrap())
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while rounds() == before {
            assert!(Instant::now() < deadline, "a writer on a held slot took no backoff round");
            std::thread::yield_now();
        }
        probe.unlock(&held);
        drop(snap);
        writer.join().unwrap();
        assert_eq!(t.get(&k(1)), Some(v(7)));
        assert!(t.verify_integrity().is_ok());
    }
}
