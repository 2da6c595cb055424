//! Level hashing baseline (Zuo, Hua, Wu — OSDI'18), adapted to the
//! evaluation's 31-byte records.
//!
//! Structure: a top level of `N` buckets and a bottom level of `N/2`
//! buckets. Each key has two hash locations per level (four candidate
//! buckets total, 4 slots each). Inserts that find no free slot attempt one
//! **one-step cuckoo displacement** (move an occupant of a candidate bucket
//! to its alternative location in the same level); if that fails, a
//! stop-the-world resize rehashes the bottom level into a fresh top level
//! twice the size of the old top (the old top becomes the new bottom).
//!
//! Buckets are 136 bytes (8-byte persisted bitmap header + 4 × 31 B slots) —
//! deliberately *not* aligned to AEP's 256-byte blocks, so roughly a third
//! of bucket probes straddle two media blocks. That is the read-amplification
//! disadvantage the HDNH paper assigns to 128-byte-bucket schemes (§2.1,
//! issue 1), and it emerges here mechanically from the layout.
//!
//! Concurrency: a reader-writer lock **per bucket** (taken in index order
//! to avoid deadlock) plus a global resize lock — the "bucket-level locking
//! … prevents concurrent accesses" design §2.2 describes.

use std::sync::atomic::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AOrd};

use hdnh_common::hash::{key_hash, key_hash2};
use hdnh_common::{HashIndex, IndexError, IndexResult, Key, Record, Value, RECORD_LEN};
use hdnh_nvm::{NvmOptions, NvmRegion, StatsSnapshot};
use parking_lot::{RwLock, RwLockWriteGuard};

/// Slots per bucket (the Level hashing paper's choice).
pub const SLOTS: usize = 4;
/// Bucket stride: 8-byte header + 4 records, padded to 8-byte alignment.
const BUCKET_BYTES: usize = 136;
const _: () = assert!(BUCKET_BYTES >= 8 + SLOTS * RECORD_LEN && BUCKET_BYTES.is_multiple_of(8));

/// Configuration for [`LevelHash`].
#[derive(Clone, Debug)]
pub struct LevelParams {
    /// Initial top-level bucket count (power of two). Bottom level has half.
    pub initial_top_buckets: usize,
    /// NVM simulation options.
    pub nvm: NvmOptions,
}

impl LevelParams {
    /// Sized so `records` items fit at ≈75 % load without resizing.
    pub fn for_capacity(records: usize) -> Self {
        let slots_needed = (records as f64 / 0.75).ceil() as usize;
        // total slots = 1.5 × top × SLOTS.
        let top = (slots_needed as f64 / (1.5 * SLOTS as f64)).ceil() as usize;
        LevelParams {
            initial_top_buckets: top.next_power_of_two().max(4),
            nvm: NvmOptions::fast(),
        }
    }
}

impl Default for LevelParams {
    fn default() -> Self {
        LevelParams {
            initial_top_buckets: 8,
            nvm: NvmOptions::fast(),
        }
    }
}

struct LevelStorage {
    region: NvmRegion,
    n_buckets: usize,
    locks: Box<[RwLock<()>]>,
}

impl LevelStorage {
    fn new(n_buckets: usize, opts: &NvmOptions) -> Self {
        let mut locks = Vec::with_capacity(n_buckets);
        locks.resize_with(n_buckets, || RwLock::new(()));
        LevelStorage {
            region: NvmRegion::new(n_buckets * BUCKET_BYTES, opts.clone()),
            n_buckets,
            locks: locks.into_boxed_slice(),
        }
    }

    #[inline]
    fn header_off(&self, b: usize) -> usize {
        b * BUCKET_BYTES
    }

    #[inline]
    fn slot_off(&self, b: usize, s: usize) -> usize {
        b * BUCKET_BYTES + 8 + s * RECORD_LEN
    }

    fn header(&self, b: usize) -> u64 {
        self.region.atomic_load_u64(self.header_off(b), Ordering::Acquire)
    }

    /// Reads the whole bucket in one charged access (1–2 media blocks,
    /// depending on alignment).
    fn read_bucket(&self, b: usize) -> (u64, [Record; SLOTS]) {
        let mut raw = [0u8; BUCKET_BYTES];
        self.region.read_into(self.header_off(b), &mut raw);
        let header = u64::from_le_bytes(raw[..8].try_into().unwrap());
        let mut recs = [Record::new(Key::ZERO, Value::ZERO); SLOTS];
        for (i, rec) in recs.iter_mut().enumerate() {
            let start = 8 + i * RECORD_LEN;
            let bytes: [u8; RECORD_LEN] = raw[start..start + RECORD_LEN].try_into().unwrap();
            *rec = Record::from_bytes(&bytes);
        }
        (header, recs)
    }

    fn write_slot(&self, b: usize, s: usize, rec: &Record) {
        let off = self.slot_off(b, s);
        self.region.write_pod(off, &rec.to_bytes());
        self.region.persist(off, RECORD_LEN);
    }

    fn set_valid(&self, b: usize, s: usize) {
        let off = self.header_off(b);
        self.region.atomic_fetch_or_u64(off, 1 << s, Ordering::AcqRel);
        self.region.persist(off, 8);
    }

    fn clear_valid(&self, b: usize, s: usize) {
        let off = self.header_off(b);
        self.region.atomic_fetch_and_u64(off, !(1 << s), Ordering::AcqRel);
        self.region.persist(off, 8);
    }

    #[cfg_attr(not(test), allow(dead_code))] // test-only audit helper
    fn count_valid(&self) -> usize {
        (0..self.n_buckets)
            .map(|b| self.header(b).count_ones() as usize)
            .sum()
    }
}

struct Tables {
    top: LevelStorage,
    bottom: LevelStorage,
}

impl Tables {
    /// Candidate buckets per level: two hash locations.
    fn candidates(storage: &LevelStorage, key: &Key) -> [usize; 2] {
        let n = storage.n_buckets as u64;
        [(key_hash(key) % n) as usize, (key_hash2(key) % n) as usize]
    }

    fn levels(&self) -> [&LevelStorage; 2] {
        [&self.top, &self.bottom]
    }
}

/// Level hashing with bucket-level reader-writer locks and a global resize
/// lock.
///
/// ```
/// use hdnh_baselines::{LevelHash, LevelParams};
/// use hdnh_common::{HashIndex, Key, Value};
///
/// let t = LevelHash::new(LevelParams::for_capacity(1_000));
/// t.insert(&Key::from_u64(1), &Value::from_u64(10)).unwrap();
/// assert_eq!(t.get(&Key::from_u64(1)).unwrap().as_u64(), 10);
/// ```
pub struct LevelHash {
    params: LevelParams,
    tables: RwLock<Tables>,
    count: AtomicUsize,
    resizes: AtomicUsize,
}

impl LevelHash {
    /// Creates an empty table.
    pub fn new(params: LevelParams) -> Self {
        assert!(params.initial_top_buckets.is_power_of_two());
        assert!(params.initial_top_buckets >= 4);
        let top = LevelStorage::new(params.initial_top_buckets, &params.nvm);
        let bottom = LevelStorage::new(params.initial_top_buckets / 2, &params.nvm);
        LevelHash {
            params,
            tables: RwLock::new(Tables { top, bottom }),
            count: AtomicUsize::new(0),
            resizes: AtomicUsize::new(0),
        }
    }

    /// Completed resize count.
    pub fn resize_count(&self) -> usize {
        self.resizes.load(AOrd::Relaxed)
    }

    /// Aggregated media counters.
    pub fn nvm_stats(&self) -> StatsSnapshot {
        let t = self.tables.read();
        let a = t.top.region.stats().snapshot();
        let b = t.bottom.region.stats().snapshot();
        StatsSnapshot {
            reads: a.reads + b.reads,
            read_bytes: a.read_bytes + b.read_bytes,
            read_blocks: a.read_blocks + b.read_blocks,
            writes: a.writes + b.writes,
            write_bytes: a.write_bytes + b.write_bytes,
            write_lines: a.write_lines + b.write_lines,
            flushes: a.flushes + b.flushes,
            fences: a.fences + b.fences,
        }
    }

    fn find_in(
        storage: &LevelStorage,
        key: &Key,
    ) -> Option<(usize, usize, Value)> {
        for b in Tables::candidates(storage, key) {
            let _g = storage.locks[b].read();
            let (header, recs) = storage.read_bucket(b);
            for (s, rec) in recs.iter().enumerate() {
                if header & (1 << s) != 0 && rec.key == *key {
                    return Some((b, s, rec.value));
                }
            }
        }
        None
    }

    /// Tries to insert into a free slot of bucket `b` (write lock held by
    /// caller).
    fn insert_into_locked(storage: &LevelStorage, b: usize, rec: &Record) -> bool {
        let header = storage.header(b);
        for s in 0..SLOTS {
            if header & (1 << s) == 0 {
                storage.write_slot(b, s, rec);
                storage.set_valid(b, s);
                return true;
            }
        }
        false
    }

    /// One-step cuckoo displacement inside one level: evict an occupant of
    /// `b` to its alternative bucket, freeing a slot for `rec`.
    fn try_displace(storage: &LevelStorage, b: usize, rec: &Record) -> bool {
        let (header, recs) = {
            let _g = storage.locks[b].read();
            storage.read_bucket(b)
        };
        for (s, &occupant) in recs.iter().enumerate() {
            if header & (1 << s) == 0 {
                continue;
            }
            let alts = Tables::candidates(storage, &occupant.key);
            let alt = if alts[0] == b { alts[1] } else { alts[0] };
            if alt == b {
                continue;
            }
            // Lock both buckets in index order (deadlock avoidance).
            let (lo, hi) = (b.min(alt), b.max(alt));
            let _g1 = storage.locks[lo].write();
            let _g2: Option<RwLockWriteGuard<()>> =
                (hi != lo).then(|| storage.locks[hi].write());
            // Re-validate under the locks.
            let header_now = storage.header(b);
            if header_now & (1 << s) == 0 {
                continue;
            }
            let occupant_now = storage.read_bucket(b).1[s];
            if occupant_now.key != occupant.key {
                continue;
            }
            if Self::insert_into_locked(storage, alt, &occupant_now) {
                // Occupant now lives in both buckets; clear the source,
                // then reuse the freed slot.
                storage.clear_valid(b, s);
                storage.write_slot(b, s, rec);
                storage.set_valid(b, s);
                return true;
            }
        }
        false
    }

    /// Stop-the-world resize: rehash the bottom level into a new top level
    /// twice the size of the current top; the old top becomes the bottom.
    fn resize(&self, observed_top: usize) {
        let mut t = self.tables.write();
        if t.top.n_buckets != observed_top {
            return; // another thread already resized
        }
        let new_top = LevelStorage::new(t.top.n_buckets * 2, &self.params.nvm);
        for b in 0..t.bottom.n_buckets {
            let (header, recs) = t.bottom.read_bucket(b);
            for (s, &rec) in recs.iter().enumerate() {
                if header & (1 << s) == 0 {
                    continue;
                }
                let mut placed = false;
                for nb in Tables::candidates(&new_top, &rec.key) {
                    if Self::insert_into_locked(&new_top, nb, &rec) {
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    // Extremely unlikely at ≤ 37% load; displace once.
                    let nb = Tables::candidates(&new_top, &rec.key)[0];
                    assert!(
                        Self::try_displace(&new_top, nb, &rec),
                        "level-hash resize target overflowed"
                    );
                }
            }
        }
        let old_top = std::mem::replace(&mut t.top, new_top);
        t.bottom = old_top;
        self.resizes.fetch_add(1, AOrd::Relaxed);
    }
}

impl HashIndex for LevelHash {
    fn insert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        let rec = Record::new(*key, *value);
        loop {
            let observed_top;
            {
                let t = self.tables.read();
                observed_top = t.top.n_buckets;
                // Reject duplicates (scan all four candidates).
                for storage in t.levels() {
                    if Self::find_in(storage, key).is_some() {
                        return Err(IndexError::DuplicateKey);
                    }
                }
                // Top first, then bottom (stash), free slot anywhere.
                for storage in t.levels() {
                    for b in Tables::candidates(storage, key) {
                        let _g = storage.locks[b].write();
                        if Self::insert_into_locked(storage, b, &rec) {
                            self.count.fetch_add(1, AOrd::Relaxed);
                            return Ok(());
                        }
                    }
                }
                // One-step cuckoo displacement, per level.
                for storage in t.levels() {
                    for b in Tables::candidates(storage, key) {
                        if Self::try_displace(storage, b, &rec) {
                            self.count.fetch_add(1, AOrd::Relaxed);
                            return Ok(());
                        }
                    }
                }
            }
            self.resize(observed_top);
        }
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let t = self.tables.read();
        for storage in t.levels() {
            if let Some((_, _, v)) = Self::find_in(storage, key) {
                return Some(v);
            }
        }
        None
    }

    fn update(&self, key: &Key, value: &Value) -> IndexResult<()> {
        let t = self.tables.read();
        let rec = Record::new(*key, *value);
        for storage in t.levels() {
            for b in Tables::candidates(storage, key) {
                let _g = storage.locks[b].write();
                let (header, recs) = storage.read_bucket(b);
                for (s, occupant) in recs.iter().enumerate() {
                    if header & (1 << s) != 0 && occupant.key == *key {
                        // Out-of-place within the bucket when possible
                        // (crash-consistent); in-place otherwise (original
                        // Level hashing logs; we accept the simpler scheme
                        // since only HDNH's recovery is evaluated).
                        for ns in 0..SLOTS {
                            if header & (1 << ns) == 0 {
                                storage.write_slot(b, ns, &rec);
                                let off = storage.header_off(b);
                                storage.region.atomic_fetch_xor_u64(
                                    off,
                                    (1 << s) | (1 << ns),
                                    Ordering::AcqRel,
                                );
                                storage.region.persist(off, 8);
                                return Ok(());
                            }
                        }
                        storage.write_slot(b, s, &rec);
                        return Ok(());
                    }
                }
            }
        }
        Err(IndexError::KeyNotFound)
    }

    fn remove(&self, key: &Key) -> bool {
        let t = self.tables.read();
        for storage in t.levels() {
            for b in Tables::candidates(storage, key) {
                let _g = storage.locks[b].write();
                let (header, recs) = storage.read_bucket(b);
                for (s, occupant) in recs.iter().enumerate() {
                    if header & (1 << s) != 0 && occupant.key == *key {
                        storage.clear_valid(b, s);
                        self.count.fetch_sub(1, AOrd::Relaxed);
                        return true;
                    }
                }
            }
        }
        false
    }

    fn len(&self) -> usize {
        self.count.load(AOrd::Relaxed)
    }

    fn load_factor(&self) -> f64 {
        let t = self.tables.read();
        let slots = (t.top.n_buckets + t.bottom.n_buckets) * SLOTS;
        self.len() as f64 / slots as f64
    }

    fn scheme_name(&self) -> &'static str {
        "LEVEL"
    }
}

impl std::fmt::Debug for LevelHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelHash")
            .field("len", &self.len())
            .field("resizes", &self.resize_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(id: u64) -> Key {
        Key::from_u64(id)
    }
    fn v(x: u64) -> Value {
        Value::from_u64(x)
    }

    fn table() -> LevelHash {
        LevelHash::new(LevelParams {
            initial_top_buckets: 8,
            nvm: NvmOptions::fast(),
        })
    }

    #[test]
    fn basic_crud() {
        let t = table();
        t.insert(&k(1), &v(10)).unwrap();
        assert_eq!(t.get(&k(1)).unwrap().as_u64(), 10);
        assert_eq!(t.insert(&k(1), &v(11)), Err(IndexError::DuplicateKey));
        t.update(&k(1), &v(12)).unwrap();
        assert_eq!(t.get(&k(1)).unwrap().as_u64(), 12);
        assert!(t.remove(&k(1)));
        assert_eq!(t.get(&k(1)), None);
        assert_eq!(t.update(&k(1), &v(1)), Err(IndexError::KeyNotFound));
    }

    #[test]
    fn fills_and_resizes() {
        let t = table();
        let n = 3_000u64;
        for i in 0..n {
            t.insert(&k(i), &v(i * 2)).unwrap();
        }
        assert!(t.resize_count() > 0);
        for i in 0..n {
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i * 2, "key {i}");
        }
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn update_preserves_single_copy() {
        let t = table();
        t.insert(&k(5), &v(1)).unwrap();
        for i in 2..100 {
            t.update(&k(5), &v(i)).unwrap();
            assert_eq!(t.get(&k(5)).unwrap().as_u64(), i);
        }
        let tables = t.tables.read();
        assert_eq!(tables.top.count_valid() + tables.bottom.count_valid(), 1);
    }

    #[test]
    fn achieves_reasonable_load_factor_before_resize() {
        // With 2+2 candidate buckets and one-step displacement, level
        // hashing reaches a decent load factor before resizing.
        let t = table();
        let mut inserted = 0u64;
        while t.resize_count() == 0 {
            t.insert(&k(inserted), &v(0)).unwrap();
            inserted += 1;
        }
        // capacity before resize = (8 + 4) * 4 = 48 slots.
        assert!(
            inserted >= 48 / 2,
            "resize fired at only {inserted} of 48 slots"
        );
    }

    #[test]
    fn search_reads_multiple_blocks() {
        // The architectural contrast with HDNH: a Level-hash positive
        // search must read candidate buckets from NVM.
        let t = table();
        for i in 0..40 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let before = t.nvm_stats();
        for i in 0..40 {
            let _ = t.get(&k(i));
        }
        let delta = t.nvm_stats().since(&before);
        assert!(
            delta.read_blocks >= 40,
            "expected ≥1 block read per search, got {}",
            delta.read_blocks
        );
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        use std::sync::Arc;
        let t = Arc::new(LevelHash::new(LevelParams {
            initial_top_buckets: 64,
            nvm: NvmOptions::fast(),
        }));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let id = tid * 1_000_000 + i;
                    t.insert(&k(id), &v(id)).unwrap();
                    assert_eq!(t.get(&k(id)).unwrap().as_u64(), id);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8_000);
    }

    #[test]
    fn delete_then_reinsert() {
        let t = table();
        for i in 0..100 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..100 {
            assert!(t.remove(&k(i)));
        }
        assert_eq!(t.len(), 0);
        for i in 0..100 {
            t.insert(&k(i), &v(i + 1)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i + 1);
        }
    }
}
