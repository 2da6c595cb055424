//! Optimistic Compression Filter (paper §3.2, §3.6).
//!
//! The OCF is a DRAM mirror of the non-volatile table: one 16-bit entry per
//! NVM slot packing the four per-slot metadata fields of figure 4:
//!
//! ```text
//!  bit 0      VALID   (the paper's per-slot bitmap bit)
//!  bit 1      BUSY    (the paper's opmap lock bit)
//!  bits 2..8  VERSION (6 bits, wraps mod 64)
//!  bits 8..16 FP      (1-byte key fingerprint)
//! ```
//!
//! Packing all four into one atomic word means lock acquisition, version
//! bump and fingerprint publication are a single CAS/store — the paper's
//! "modified atomically using compare-and-swap" — and a reader validates a
//! whole slot with one load.
//!
//! # Seqlock protocol
//!
//! Writers: CAS `BUSY` 0→1 (acquire), **release fence**, write the NVM slot,
//! then one release store that clears `BUSY`, bumps `VERSION` and sets
//! `VALID`/`FP`. Readers: load the entry (acquire), read the NVM slot,
//! **acquire fence**, re-load the entry; the read is consistent iff both
//! loads are equal and not busy. The release fence after lock acquisition is
//! what makes the protocol sound under the C++ memory model: any thread that
//! observes one of the writer's data stores and then issues the acquire
//! fence is guaranteed to observe the `BUSY` bit.

use std::sync::atomic::{fence, AtomicU16, Ordering};

use hdnh_common::prefetch::prefetch_read;
use hdnh_nvm::zeroed_atomics;
use hdnh_obs as obs;

/// VALID bit: slot holds a live record.
pub(crate) const E_VALID: u16 = 1;
/// BUSY bit: slot is locked by a writer (the paper's opmap).
pub(crate) const E_BUSY: u16 = 1 << 1;
const VERSION_SHIFT: u16 = 2;
const VERSION_MASK: u16 = 0x3F << VERSION_SHIFT;
const FP_SHIFT: u16 = 8;

/// Packs an entry from its fields.
#[inline]
pub(crate) fn pack(valid: bool, busy: bool, version: u16, fp: u8) -> u16 {
    (valid as u16)
        | ((busy as u16) << 1)
        | ((version & 0x3F) << VERSION_SHIFT)
        | ((fp as u16) << FP_SHIFT)
}

/// Entry field accessors.
#[inline]
pub fn is_valid(e: u16) -> bool {
    e & E_VALID != 0
}
/// True if a writer holds the slot.
#[inline]
pub(crate) fn is_busy(e: u16) -> bool {
    e & E_BUSY != 0
}
/// 6-bit version counter.
#[inline]
pub(crate) fn version(e: u16) -> u16 {
    (e & VERSION_MASK) >> VERSION_SHIFT
}
/// Stored fingerprint byte.
#[inline]
pub fn fp(e: u16) -> u8 {
    (e >> FP_SHIFT) as u8
}

/// The filter for one level: a flat array of entries, one per NVM slot.
#[derive(Debug)]
pub struct Ocf {
    entries: Box<[AtomicU16]>,
    slots_per_bucket: usize,
}

/// Outcome of a lock attempt on one slot.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LockOutcome {
    /// Lock acquired; contains the pre-lock entry value.
    Locked(u16),
    /// Entry changed under us (busy or mutated); caller rescans.
    Contended,
    /// Entry no longer satisfies the caller's predicate.
    Mismatch,
}

impl Ocf {
    /// Zeroed filter for `n_buckets × slots_per_bucket` slots (all invalid,
    /// unlocked, version 0).
    pub fn new(n_buckets: usize, slots_per_bucket: usize) -> Self {
        Ocf {
            entries: zeroed_atomics(n_buckets * slots_per_bucket),
            slots_per_bucket,
        }
    }

    #[inline]
    fn idx(&self, bucket: usize, slot: usize) -> usize {
        debug_assert!(slot < self.slots_per_bucket);
        bucket * self.slots_per_bucket + slot
    }

    /// Hints that `bucket`'s entry group is about to be walked. Changes
    /// nothing; a bucket past the end is ignored.
    #[inline]
    pub(crate) fn prefetch_bucket(&self, bucket: usize) {
        let first = bucket * self.slots_per_bucket;
        prefetch_read(&self.entries, first..first + self.slots_per_bucket);
    }

    /// Acquire-loads one entry (the reader's first load).
    #[inline]
    pub fn load(&self, bucket: usize, slot: usize) -> u16 {
        self.entries[self.idx(bucket, slot)].load(Ordering::Acquire)
    }

    /// A claimer's look at `bucket`'s slots, in order, after its own
    /// [`try_lock_empty`](Self::try_lock_empty) succeeded. Both are `SeqCst`,
    /// which orders the claim (a store) before this load, as acquire and
    /// release do not: of two writers that each claim a slot and then load
    /// the other's, at least one load observes the other's claim. (On x86-64
    /// these are the instructions `Acquire` compiles to.)
    #[inline]
    pub(crate) fn load_after_claim(&self, bucket: usize) -> impl Iterator<Item = u16> + '_ {
        let first = bucket * self.slots_per_bucket;
        let entries = &self.entries[first..first + self.slots_per_bucket];
        entries.iter().map(|e| e.load(Ordering::SeqCst))
    }

    /// The reader's validation load: acquire fence, then re-load. Returns
    /// `true` iff the entry still equals `expected` (and is therefore not
    /// busy, assuming `expected` was not busy).
    #[inline]
    pub(crate) fn revalidate(&self, bucket: usize, slot: usize, expected: u16) -> bool {
        fence(Ordering::Acquire);
        self.entries[self.idx(bucket, slot)].load(Ordering::Relaxed) == expected
    }

    /// Tries to lock an **empty** slot for insertion: CAS from
    /// `(valid=0, busy=0)` to busy. On success, issues the writer-side
    /// release fence; the caller may then write the NVM slot. The CAS is
    /// sequentially consistent for `load_after_claim`.
    pub(crate) fn try_lock_empty(&self, bucket: usize, slot: usize) -> LockOutcome {
        let cell = &self.entries[self.idx(bucket, slot)];
        let cur = cell.load(Ordering::Relaxed);
        if is_valid(cur) || is_busy(cur) {
            return if is_busy(cur) {
                // Contention events only: a Mismatch on a valid slot is the
                // insert scan walking occupied slots, not a failed lock.
                obs::count(obs::Counter::OpmapCasFail);
                LockOutcome::Contended
            } else {
                LockOutcome::Mismatch
            };
        }
        match cell.compare_exchange(cur, cur | E_BUSY, Ordering::SeqCst, Ordering::Relaxed) {
            Ok(_) => {
                fence(Ordering::Release);
                LockOutcome::Locked(cur)
            }
            Err(_) => {
                obs::count(obs::Counter::OpmapCasFail);
                LockOutcome::Contended
            }
        }
    }

    /// Tries to lock a **valid** slot whose entry currently equals
    /// `expected` (as previously loaded by the caller during its probe).
    /// Guarantees the slot content cannot have changed since that load.
    pub(crate) fn try_lock_at(&self, bucket: usize, slot: usize, expected: u16) -> LockOutcome {
        if is_busy(expected) {
            obs::count(obs::Counter::OpmapCasFail);
            return LockOutcome::Contended;
        }
        let cell = &self.entries[self.idx(bucket, slot)];
        match cell.compare_exchange(
            expected,
            expected | E_BUSY,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                fence(Ordering::Release);
                LockOutcome::Locked(expected)
            }
            Err(now) => {
                obs::count(obs::Counter::OpmapCasFail);
                if now & !E_BUSY != expected & !E_BUSY {
                    LockOutcome::Mismatch
                } else {
                    LockOutcome::Contended
                }
            }
        }
    }

    /// Commit: unlock, bump version, publish `valid`/`fp`. One release
    /// store (the paper's "atomic write … incrementing the version").
    pub(crate) fn commit(&self, bucket: usize, slot: usize, pre_lock: u16, valid: bool, fp: u8) {
        debug_assert!(
            is_busy(self.entries[self.idx(bucket, slot)].load(Ordering::Relaxed)),
            "commit without lock"
        );
        let next = pack(valid, false, version(pre_lock).wrapping_add(1), fp);
        self.entries[self.idx(bucket, slot)].store(next, Ordering::Release);
    }

    /// Abort: unlock without changing valid/fp. Bumps the version anyway —
    /// cheap, and conservatively invalidates any reader that overlapped the
    /// lock window.
    pub(crate) fn abort(&self, bucket: usize, slot: usize, pre_lock: u16) {
        let next = pack(
            is_valid(pre_lock),
            false,
            version(pre_lock).wrapping_add(1),
            fp(pre_lock),
        );
        self.entries[self.idx(bucket, slot)].store(next, Ordering::Release);
    }

    /// Recovery-time raw install (single-threaded per bucket, pre-publication).
    pub fn install(&self, bucket: usize, slot: usize, valid: bool, fp: u8) {
        self.entries[self.idx(bucket, slot)].store(pack(valid, false, 0, fp), Ordering::Relaxed);
    }

    /// Approximate memory footprint in bytes (for the paper's "an OCF entry
    /// only occupies 2 bytes" accounting).
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<AtomicU16>()
    }
}

/// Bounded exponential backoff for opmap CAS retry loops.
///
/// Round `k` burns `2^min(k, MAX_EXP)` [`std::hint::spin_loop`] hints; once
/// the spin budget saturates the waiter yields the CPU instead, so a
/// descheduled lock holder cannot starve its contenders. Every round is
/// counted under [`obs::Counter::OpmapBackoffRound`].
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    round: u32,
}

impl Backoff {
    /// Spin budget cap: at most `2^MAX_EXP` hints per round.
    pub(crate) const MAX_EXP: u32 = 6;
    /// Rounds after which the waiter yields instead of spinning.
    pub(crate) const YIELD_AFTER: u32 = 10;

    /// Fresh backoff state (round 0).
    pub(crate) const fn new() -> Self {
        Backoff { round: 0 }
    }

    /// Wait one round: exponential spinning up to the cap, then yields.
    pub(crate) fn wait(&mut self) {
        obs::count(obs::Counter::OpmapBackoffRound);
        if self.round < Self::YIELD_AFTER {
            for _ in 0..(1u32 << self.round.min(Self::MAX_EXP)) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.round = self.round.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Valid entries in the filter.
    fn count_valid(ocf: &Ocf) -> usize {
        ocf.entries.iter().filter(|e| is_valid(e.load(Ordering::Relaxed))).count()
    }

    #[test]
    fn a_committed_fingerprint_answers_one_load() {
        let filter = Ocf::new(16, 8); // 16 buckets x 8 slots
        // Writer: lock an empty slot, publish fingerprint 0x42.
        let LockOutcome::Locked(pre) = filter.try_lock_empty(3, 0) else { panic!() };
        filter.commit(3, 0, pre, true, 0x42);
        // Reader: one load answers "could slot (3,0) hold a key with fp 0x42?"
        let e = filter.load(3, 0);
        assert!(is_valid(e) && fp(e) == 0x42);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for valid in [false, true] {
            for busy in [false, true] {
                for ver in [0u16, 1, 63] {
                    for f in [0u8, 0xAB, 0xFF] {
                        let e = pack(valid, busy, ver, f);
                        assert_eq!(is_valid(e), valid);
                        assert_eq!(is_busy(e), busy);
                        assert_eq!(version(e), ver);
                        assert_eq!(fp(e), f);
                    }
                }
            }
        }
    }

    #[test]
    fn entry_is_two_bytes() {
        // The paper's space argument: 2 bytes per slot.
        assert_eq!(std::mem::size_of::<AtomicU16>(), 2);
        let ocf = Ocf::new(100, 8);
        assert_eq!(ocf.footprint_bytes(), 1600);
    }

    #[test]
    fn version_wraps_mod_64() {
        let e = pack(true, false, 63, 0);
        let ocf = Ocf::new(1, 8);
        ocf.install(0, 0, true, 0);
        // Install sets version 0; drive it to 63 then wrap.
        let mut pre = ocf.load(0, 0);
        for _ in 0..64 {
            match ocf.try_lock_at(0, 0, pre) {
                LockOutcome::Locked(p) => ocf.commit(0, 0, p, true, 0),
                other => panic!("{other:?}"),
            }
            pre = ocf.load(0, 0);
        }
        assert_eq!(version(pre), 0, "64 commits wrap to 0");
        let _ = e;
    }

    #[test]
    fn lock_empty_only_succeeds_on_empty() {
        let ocf = Ocf::new(1, 8);
        match ocf.try_lock_empty(0, 0) {
            LockOutcome::Locked(pre) => ocf.commit(0, 0, pre, true, 0x42),
            other => panic!("{other:?}"),
        }
        assert_eq!(ocf.try_lock_empty(0, 0), LockOutcome::Mismatch);
        let e = ocf.load(0, 0);
        assert!(is_valid(e));
        assert_eq!(fp(e), 0x42);
        assert_eq!(version(e), 1);
    }

    #[test]
    fn lock_at_detects_mutation() {
        let ocf = Ocf::new(1, 8);
        let LockOutcome::Locked(pre) = ocf.try_lock_empty(0, 3) else {
            panic!()
        };
        ocf.commit(0, 3, pre, true, 7);
        let seen = ocf.load(0, 3);
        // Another writer commits in between…
        let LockOutcome::Locked(pre2) = ocf.try_lock_at(0, 3, seen) else {
            panic!()
        };
        ocf.commit(0, 3, pre2, true, 8);
        // …so locking with the stale snapshot must report Mismatch.
        assert_eq!(ocf.try_lock_at(0, 3, seen), LockOutcome::Mismatch);
    }

    #[test]
    fn busy_slot_reports_contended() {
        let ocf = Ocf::new(1, 8);
        let LockOutcome::Locked(_) = ocf.try_lock_empty(0, 0) else {
            panic!()
        };
        assert_eq!(ocf.try_lock_empty(0, 0), LockOutcome::Contended);
        let busy_entry = ocf.load(0, 0);
        assert_eq!(ocf.try_lock_at(0, 0, busy_entry), LockOutcome::Contended);
    }

    #[test]
    fn abort_restores_and_bumps() {
        let ocf = Ocf::new(1, 8);
        let LockOutcome::Locked(pre) = ocf.try_lock_empty(0, 0) else {
            panic!()
        };
        ocf.abort(0, 0, pre);
        let e = ocf.load(0, 0);
        assert!(!is_valid(e));
        assert!(!is_busy(e));
        assert_eq!(version(e), 1);
        // Slot is lockable again.
        assert!(matches!(ocf.try_lock_empty(0, 0), LockOutcome::Locked(_)));
    }

    #[test]
    fn revalidate_detects_commit() {
        let ocf = Ocf::new(1, 8);
        let LockOutcome::Locked(pre) = ocf.try_lock_empty(0, 1) else {
            panic!()
        };
        ocf.commit(0, 1, pre, true, 9);
        let snapshot = ocf.load(0, 1);
        assert!(ocf.revalidate(0, 1, snapshot));
        let LockOutcome::Locked(pre) = ocf.try_lock_at(0, 1, snapshot) else {
            panic!()
        };
        ocf.commit(0, 1, pre, true, 9);
        assert!(!ocf.revalidate(0, 1, snapshot));
    }

    #[test]
    fn prefetch_accepts_every_bucket_and_changes_nothing() {
        for (buckets, slots) in [(1, 8), (2, 8), (16, 8), (5, 3)] {
            let ocf = Ocf::new(buckets, slots);
            ocf.install(buckets - 1, slots - 1, true, 0x5A);
            // First, last, and (ignored) one past the end.
            for bucket in [0, buckets - 1, buckets] {
                ocf.prefetch_bucket(bucket);
            }
            assert_eq!(count_valid(&ocf), 1);
            assert_eq!(fp(ocf.load(buckets - 1, slots - 1)), 0x5A);
        }
    }

    #[test]
    fn count_valid_counts() {
        let ocf = Ocf::new(4, 8);
        assert_eq!(count_valid(&ocf), 0);
        ocf.install(0, 0, true, 1);
        ocf.install(3, 7, true, 2);
        ocf.install(2, 2, false, 3);
        assert_eq!(count_valid(&ocf), 2);
    }

    #[test]
    fn seqlock_detects_any_change_below_the_version_wrap() {
        // Deterministic boundary test: a reader snapshot is invalidated by
        // ANY number of intervening commits from 1 to 63. (At exactly 64
        // the 6-bit version wraps — see the companion test below.)
        use hdnh_common::{Key, Record, Value};
        use hdnh_nvm::{NvmOptions, NvmRegion};
        for commits in [1usize, 2, 63] {
            let ocf = Ocf::new(1, 8);
            let region = NvmRegion::new(256, NvmOptions::fast());
            let LockOutcome::Locked(pre) = ocf.try_lock_empty(0, 0) else {
                panic!()
            };
            region.write_pod(8, &Record::new(Key::from_u64(1), Value::from_u64(10)).to_bytes());
            ocf.commit(0, 0, pre, true, 0x42);
            // Reader takes its snapshot…
            let e1 = ocf.load(0, 0);
            // …writer performs `commits` commits in between…
            for i in 0..commits {
                let e = ocf.load(0, 0);
                let LockOutcome::Locked(p) = ocf.try_lock_at(0, 0, e) else {
                    panic!()
                };
                region.write_pod(
                    8,
                    &Record::new(Key::from_u64(2 + i as u64), Value::from_u64(99)).to_bytes(),
                );
                ocf.commit(0, 0, p, true, 0x42);
            }
            // …and the snapshot must be rejected.
            assert!(
                !ocf.revalidate(0, 0, e1),
                "revalidation missed {commits} intervening commits"
            );
        }
    }

    /// Documented limitation inherited from the paper's 2-byte OCF entry:
    /// the 6-bit version wraps mod 64, so a reader descheduled long enough
    /// for a slot to receive exactly 64 commits (with identical final
    /// valid/fp bits) revalidates a stale snapshot — the classic seqlock
    /// ABA. The paper accepts this window; real deployments make it
    /// vanishingly small because every commit includes an NVM persist.
    /// This test pins the behaviour so any future fix (e.g. wider entries)
    /// updates it consciously.
    #[test]
    fn seqlock_version_wrap_aba_window_is_exactly_64() {
        use hdnh_common::{Key, Record, Value};
        use hdnh_nvm::{NvmOptions, NvmRegion};
        let ocf = Ocf::new(1, 8);
        let region = NvmRegion::new(256, NvmOptions::fast());
        let LockOutcome::Locked(pre) = ocf.try_lock_empty(0, 0) else {
            panic!()
        };
        region.write_pod(8, &Record::new(Key::from_u64(1), Value::from_u64(10)).to_bytes());
        ocf.commit(0, 0, pre, true, 0x42);
        let e1 = ocf.load(0, 0);
        for i in 0..64usize {
            let e = ocf.load(0, 0);
            let LockOutcome::Locked(p) = ocf.try_lock_at(0, 0, e) else {
                panic!()
            };
            region.write_pod(
                8,
                &Record::new(Key::from_u64(100 + i as u64), Value::from_u64(1)).to_bytes(),
            );
            ocf.commit(0, 0, p, true, 0x42);
        }
        // 64 commits: version wrapped all the way around — ABA.
        assert!(
            ocf.revalidate(0, 0, e1),
            "entry layout changed: ABA window is no longer 64 commits"
        );
    }

    #[test]
    fn backoff_rounds_accumulate_and_saturate() {
        let mut b = Backoff::new();
        assert_eq!(b.round, 0);
        // Drive it well past the yield threshold; must neither panic nor
        // overflow the shift (the exponent is capped at MAX_EXP).
        for _ in 0..(Backoff::YIELD_AFTER + 20) {
            b.wait();
        }
        assert_eq!(b.round, Backoff::YIELD_AFTER + 20);
    }

    #[test]
    fn concurrent_lock_is_exclusive() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let ocf = Arc::new(Ocf::new(1, 8));
        let holders = Arc::new(AtomicUsize::new(0));
        let winners = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ocf = Arc::clone(&ocf);
            let holders = Arc::clone(&holders);
            let winners = Arc::clone(&winners);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    if let LockOutcome::Locked(pre) = ocf.try_lock_empty(0, 0) {
                        let h = holders.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(h, 0, "two threads inside the critical section");
                        winners.fetch_add(1, Ordering::Relaxed);
                        holders.fetch_sub(1, Ordering::SeqCst);
                        ocf.abort(0, 0, pre);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(winners.load(Ordering::Relaxed) > 0);
    }
}
