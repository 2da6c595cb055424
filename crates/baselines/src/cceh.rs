//! CCEH baseline (Nam, Cha, Choi, Noh, Nam — FAST'19), adapted to the
//! evaluation's 31-byte records.
//!
//! Cacheline-Conscious Extendible Hashing: a directory of pointers to
//! fixed-size **segments** (16 KB, as the HDNH paper configures it); inside
//! a segment, 64-byte cacheline **buckets** of two 32-byte slots (31-byte
//! record + 1-byte valid tag); **linear probing** across 4 consecutive
//! buckets bounds every lookup to one or two 256-byte media blocks. When a
//! segment fills, it **splits** by the next hash bit (local depth), doubling
//! the directory when the local depth exceeds the global depth.
//!
//! Segment index bits come from the hash MSBs, bucket index from the LSBs,
//! exactly like the original (that is what makes splits directory-friendly).
//!
//! Concurrency is the part the HDNH paper measures (§2, §4.5): CCEH takes a
//! **segment-granularity reader-writer lock, and the lock word lives in the
//! segment's NVM header**. Acquiring and releasing even a *read* lock is
//! therefore an NVM write — "unnecessary NVM access for read locks …
//! generates large amount of NVM writes". The lock here is a reader-counter
//! / writer-bit spinlock implemented directly on the region's atomic word,
//! so every acquire/release shows up in the region's write counters (and
//! pays write latency), mechanically reproducing that critique.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hdnh_common::hash::key_hash;
use hdnh_common::{HashIndex, IndexError, IndexResult, Key, Record, Value, RECORD_LEN};
use hdnh_nvm::{NvmOptions, NvmRegion, StatsSnapshot};
use parking_lot::RwLock;

/// Slot stride: record + valid tag.
const SLOT_BYTES: usize = 32;
/// Slots per 64-byte bucket.
const SLOTS_PER_BUCKET: usize = 2;
/// Bucket size (one cacheline).
const BUCKET_BYTES: usize = 64;
/// Linear probing distance in buckets (the paper sets 4).
pub const PROBE_BUCKETS: usize = 4;
/// Segment header: lock word, local-depth word and prefix word (the
/// segment's directory prefix, persisted so the directory is rebuildable —
/// CCEH's recovery story), padded to one bucket.
const SEG_HEADER: usize = 64;
const HDR_LOCK: usize = 0;
const HDR_LOCAL_DEPTH: usize = 8;
const HDR_PREFIX: usize = 16;

const WRITER_BIT: u64 = 1 << 63;

/// Configuration for [`Cceh`].
#[derive(Clone, Debug)]
pub struct CcehParams {
    /// Segment payload size in bytes (16 KB per the HDNH paper's setup).
    pub segment_bytes: usize,
    /// Initial global depth (directory has `2^depth` entries).
    pub initial_depth: u32,
    /// NVM simulation options.
    pub nvm: NvmOptions,
}

impl CcehParams {
    /// Sized so `records` fit at ≈70 % load with the initial directory.
    pub fn for_capacity(records: usize) -> Self {
        let per_segment = (16 * 1024 / BUCKET_BYTES) * SLOTS_PER_BUCKET; // 512
        let segments = ((records as f64 / 0.7) / per_segment as f64).ceil() as usize;
        CcehParams {
            segment_bytes: 16 * 1024,
            initial_depth: segments.next_power_of_two().trailing_zeros().max(1),
            nvm: NvmOptions::fast(),
        }
    }
}

impl Default for CcehParams {
    fn default() -> Self {
        CcehParams {
            segment_bytes: 16 * 1024,
            initial_depth: 1,
            nvm: NvmOptions::fast(),
        }
    }
}

/// One segment: an NVM region holding `[header][buckets…]`.
struct Segment {
    region: Arc<NvmRegion>,
    n_buckets: usize,
    /// Local depth mirrored in DRAM (also persisted in the header).
    local_depth: std::sync::atomic::AtomicU32,
}

impl Segment {
    fn new(segment_bytes: usize, local_depth: u32, prefix: u64, opts: &NvmOptions) -> Arc<Self> {
        let n_buckets = segment_bytes / BUCKET_BYTES;
        assert!(n_buckets.is_power_of_two());
        let region = NvmRegion::new(SEG_HEADER + segment_bytes, opts.clone());
        region.atomic_store_u64(HDR_LOCAL_DEPTH, local_depth as u64, Ordering::Release);
        region.persist(HDR_LOCAL_DEPTH, 8);
        region.atomic_store_u64(HDR_PREFIX, prefix, Ordering::Release);
        region.persist(HDR_PREFIX, 8);
        Arc::new(Segment {
            region: Arc::new(region),
            n_buckets,
            local_depth: std::sync::atomic::AtomicU32::new(local_depth),
        })
    }

    /// Re-adopts a persisted segment region (recovery). Reads the depth and
    /// prefix from the header; the lock word is reset (locks are volatile).
    fn from_region(region: Arc<NvmRegion>, segment_bytes: usize) -> (Arc<Self>, u32, u64) {
        assert_eq!(region.len(), SEG_HEADER + segment_bytes, "segment size mismatch");
        region.atomic_store_u64(HDR_LOCK, 0, Ordering::Release);
        let depth = region.atomic_load_u64_cached(HDR_LOCAL_DEPTH, Ordering::Acquire) as u32;
        let prefix = region.atomic_load_u64_cached(HDR_PREFIX, Ordering::Acquire);
        let n_buckets = segment_bytes / BUCKET_BYTES;
        (
            Arc::new(Segment {
                region,
                n_buckets,
                local_depth: std::sync::atomic::AtomicU32::new(depth),
            }),
            depth,
            prefix,
        )
    }

    // ---- the in-NVM reader-writer lock ----

    /// Read-lock: CAS the reader count up. Every attempt is an NVM write.
    fn lock_read(&self) {
        loop {
            let v = self.region.atomic_load_u64_cached(0, Ordering::Acquire);
            if v & WRITER_BIT != 0 {
                std::hint::spin_loop();
                continue;
            }
            if self
                .region
                .atomic_cas_u64(0, v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    fn unlock_read(&self) {
        loop {
            let v = self.region.atomic_load_u64_cached(0, Ordering::Relaxed);
            if self
                .region
                .atomic_cas_u64(0, v, v - 1, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    fn lock_write(&self) {
        // Claim the writer bit, then wait for readers to drain.
        loop {
            let v = self.region.atomic_load_u64_cached(0, Ordering::Acquire);
            if v & WRITER_BIT != 0 {
                std::hint::spin_loop();
                continue;
            }
            if self
                .region
                .atomic_cas_u64(0, v, v | WRITER_BIT, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        while self.region.atomic_load_u64_cached(0, Ordering::Acquire) != WRITER_BIT {
            std::hint::spin_loop();
        }
    }

    fn unlock_write(&self) {
        self.region.atomic_store_u64(0, 0, Ordering::Release);
    }

    // ---- layout ----

    #[inline]
    fn slot_off(&self, bucket: usize, slot: usize) -> usize {
        SEG_HEADER + bucket * BUCKET_BYTES + slot * SLOT_BYTES
    }

    /// Reads the full probe window (4 buckets, wrapping within the segment)
    /// with at most two charged accesses.
    fn read_probe_window(
        &self,
        first_bucket: usize,
    ) -> [(bool, Record); PROBE_BUCKETS * SLOTS_PER_BUCKET] {
        let mut raw = [0u8; PROBE_BUCKETS * BUCKET_BYTES];
        let contiguous = (first_bucket + PROBE_BUCKETS).min(self.n_buckets) - first_bucket;
        self.region.read_into(
            SEG_HEADER + first_bucket * BUCKET_BYTES,
            &mut raw[..contiguous * BUCKET_BYTES],
        );
        if contiguous < PROBE_BUCKETS {
            let rest = PROBE_BUCKETS - contiguous;
            self.region
                .read_into(SEG_HEADER, &mut raw[contiguous * BUCKET_BYTES..][..rest * BUCKET_BYTES]);
        }
        let mut out = [(false, Record::new(Key::ZERO, Value::ZERO));
            PROBE_BUCKETS * SLOTS_PER_BUCKET];
        for (i, entry) in out.iter_mut().enumerate() {
            let base = i * SLOT_BYTES;
            let rec_bytes: [u8; RECORD_LEN] = raw[base..base + RECORD_LEN].try_into().unwrap();
            *entry = (raw[base + RECORD_LEN] == 1, Record::from_bytes(&rec_bytes));
        }
        out
    }

    /// Absolute (bucket, slot) of probe-window entry `i` starting at
    /// `first_bucket`.
    fn window_pos(&self, first_bucket: usize, i: usize) -> (usize, usize) {
        let b = (first_bucket + i / SLOTS_PER_BUCKET) % self.n_buckets;
        (b, i % SLOTS_PER_BUCKET)
    }

    fn write_record(&self, bucket: usize, slot: usize, rec: &Record) {
        let off = self.slot_off(bucket, slot);
        self.region.write_pod(off, &rec.to_bytes());
        self.region.persist(off, RECORD_LEN);
        // Valid tag last: 1-byte store is failure-atomic.
        self.region.write_pod(off + RECORD_LEN, &1u8);
        self.region.persist(off + RECORD_LEN, 1);
    }

    fn clear_slot(&self, bucket: usize, slot: usize) {
        let off = self.slot_off(bucket, slot) + RECORD_LEN;
        self.region.write_pod(off, &0u8);
        self.region.persist(off, 1);
    }

    #[cfg_attr(not(test), allow(dead_code))] // test-only audit helper
    fn count_valid(&self) -> usize {
        let mut n = 0;
        for b in 0..self.n_buckets {
            for s in 0..SLOTS_PER_BUCKET {
                let tag: u8 = self.region.read_pod(self.slot_off(b, s) + RECORD_LEN);
                n += (tag == 1) as usize;
            }
        }
        n
    }
}

struct Directory {
    global_depth: u32,
    entries: Vec<Arc<Segment>>,
}

/// CCEH: directory + segments, segment r/w locks resident in NVM.
///
/// ```
/// use hdnh_baselines::{Cceh, CcehParams};
/// use hdnh_common::{HashIndex, Key, Value};
///
/// let t = Cceh::new(CcehParams::default());
/// for i in 0..2_000u64 {
///     t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
/// }
/// assert!(t.split_count() > 0, "growth happens through segment splits");
/// assert_eq!(t.get(&Key::from_u64(777)).unwrap().as_u64(), 777);
/// ```
pub struct Cceh {
    params: CcehParams,
    dir: RwLock<Directory>,
    count: AtomicUsize,
    splits: AtomicUsize,
}

impl Cceh {
    /// Creates an empty table.
    pub fn new(params: CcehParams) -> Self {
        assert!(params.segment_bytes.is_multiple_of(BUCKET_BYTES));
        let n = 1usize << params.initial_depth;
        let entries = (0..n)
            .map(|i| Segment::new(params.segment_bytes, params.initial_depth, i as u64, &params.nvm))
            .collect();
        Cceh {
            dir: RwLock::new(Directory {
                global_depth: params.initial_depth,
                entries,
            }),
            params,
            count: AtomicUsize::new(0),
            splits: AtomicUsize::new(0),
        }
    }

    /// Completed segment splits.
    pub fn split_count(&self) -> usize {
        self.splits.load(Ordering::Relaxed)
    }

    /// Aggregated media counters over all segments.
    pub fn nvm_stats(&self) -> StatsSnapshot {
        let dir = self.dir.read();
        let mut acc = StatsSnapshot::default();
        let mut seen = std::collections::HashSet::new();
        for seg in &dir.entries {
            if seen.insert(Arc::as_ptr(seg) as usize) {
                let s = seg.region.stats().snapshot();
                acc.reads += s.reads;
                acc.read_bytes += s.read_bytes;
                acc.read_blocks += s.read_blocks;
                acc.writes += s.writes;
                acc.write_bytes += s.write_bytes;
                acc.write_lines += s.write_lines;
                acc.flushes += s.flushes;
                acc.fences += s.fences;
            }
        }
        acc
    }

    #[inline]
    fn seg_index(h: u64, global_depth: u32) -> usize {
        if global_depth == 0 {
            0
        } else {
            (h >> (64 - global_depth)) as usize
        }
    }

    #[inline]
    fn bucket_index(h: u64, n_buckets: usize) -> usize {
        (h as usize) & (n_buckets - 1)
    }

    fn segment_for(&self, h: u64) -> Arc<Segment> {
        let dir = self.dir.read();
        Arc::clone(&dir.entries[Self::seg_index(h, dir.global_depth)])
    }

    /// Splits the segment currently owning `h`, doubling the directory if
    /// needed. Returns after the directory maps `h` to a segment with free
    /// probability again (caller retries the insert).
    ///
    /// Lock order is segment-then-directory everywhere (search re-checks
    /// take the directory read lock while holding a segment read lock), so
    /// the split must win its segment's write lock *before* touching the
    /// directory.
    fn split(&self, h: u64) {
        let old = loop {
            let seg = self.segment_for(h);
            seg.lock_write();
            let dir = self.dir.read();
            let still = Arc::ptr_eq(&dir.entries[Self::seg_index(h, dir.global_depth)], &seg);
            drop(dir);
            if still {
                break seg;
            }
            seg.unlock_write(); // lost a race with another split
        };
        let mut dir = self.dir.write();
        let local = old.local_depth.load(Ordering::Acquire);

        // Collect the segment's live records once.
        let mut records: Vec<(u64, Record)> = Vec::new();
        for b in 0..old.n_buckets {
            for s in 0..SLOTS_PER_BUCKET {
                let off = old.slot_off(b, s);
                let tag: u8 = old.region.read_pod(off + RECORD_LEN);
                if tag == 1 {
                    let bytes: [u8; RECORD_LEN] = old.region.read_pod(off);
                    let rec = Record::from_bytes(&bytes);
                    records.push((key_hash(&rec.key), rec));
                }
            }
        }

        // A 2-way split can itself overflow a child's probe window when the
        // window's residents share the split bit; real CCEH answers with a
        // cascading split of the child. We pick the smallest k such that a
        // 2^k-way split (by the next k hash bits) fits every child, checked
        // with a DRAM simulation before any NVM write.
        let n_buckets = old.n_buckets;
        let mut k = 1u32;
        loop {
            assert!(local + k <= 48, "cceh split could not separate records");
            let parts = 1usize << k;
            let mut occupancy = vec![vec![0u8; n_buckets]; parts];
            let mut ok = true;
            'sim: for (kh, _) in &records {
                let child = ((kh >> (64 - local - k)) & (parts as u64 - 1)) as usize;
                let fb = Self::bucket_index(*kh, n_buckets);
                for d in 0..PROBE_BUCKETS {
                    let b = (fb + d) % n_buckets;
                    if occupancy[child][b] < SLOTS_PER_BUCKET as u8 {
                        occupancy[child][b] += 1;
                        continue 'sim;
                    }
                }
                ok = false;
                break;
            }
            if ok {
                break;
            }
            k += 1;
        }
        let new_depth = local + k;
        let parts = 1usize << k;

        while dir.global_depth < new_depth {
            let doubled: Vec<Arc<Segment>> = dir
                .entries
                .iter()
                .flat_map(|e| [Arc::clone(e), Arc::clone(e)])
                .collect();
            dir.entries = doubled;
            dir.global_depth += 1;
        }

        let old_prefix = old.region.atomic_load_u64_cached(HDR_PREFIX, Ordering::Acquire);
        let children: Vec<Arc<Segment>> = (0..parts)
            .map(|j| {
                Segment::new(
                    self.params.segment_bytes,
                    new_depth,
                    (old_prefix << k) | j as u64,
                    &self.params.nvm,
                )
            })
            .collect();
        for (kh, rec) in &records {
            let child = &children[((kh >> (64 - new_depth)) & (parts as u64 - 1)) as usize];
            let fb = Self::bucket_index(*kh, child.n_buckets);
            let window = child.read_probe_window(fb);
            let slot = window
                .iter()
                .position(|(valid, _)| !valid)
                .expect("simulation guaranteed a free slot");
            let (tb, ts) = child.window_pos(fb, slot);
            child.write_record(tb, ts, rec);
        }

        // Redirect all directory entries that pointed at `old`: the group of
        // 2^(G-local) entries splits evenly across the children.
        let group_bits = dir.global_depth - local;
        let group = (Self::seg_index(h, dir.global_depth) >> group_bits) << group_bits;
        let span = 1usize << (dir.global_depth - new_depth);
        for (j, child) in children.iter().enumerate() {
            for slot in dir.entries[group + j * span..group + (j + 1) * span].iter_mut() {
                *slot = Arc::clone(child);
            }
        }
        drop(dir);
        old.unlock_write();
        self.splits.fetch_add(1, Ordering::Relaxed);
    }
}

/// The persistent half of a CCEH instance: its segment regions, in any
/// order (each header carries the local depth and directory prefix needed
/// to rebuild the directory — CCEH's recovery design).
pub struct CcehPool {
    /// Segment regions (deduplicated).
    pub segments: Vec<Arc<NvmRegion>>,
    /// Segment payload size the pool was built with.
    pub segment_bytes: usize,
}

impl Cceh {
    /// Shutdown: drop the volatile directory, keep the segment regions.
    pub fn into_pool(self) -> CcehPool {
        let dir = self.dir.into_inner();
        let mut seen = std::collections::HashSet::new();
        let mut segments = Vec::new();
        for seg in &dir.entries {
            if seen.insert(Arc::as_ptr(seg) as usize) {
                segments.push(Arc::clone(&seg.region));
            }
        }
        CcehPool {
            segments,
            segment_bytes: self.params.segment_bytes,
        }
    }

    /// Rebuilds the directory from persisted segment headers and recounts
    /// live records — extendible hashing's recovery path.
    ///
    /// Panics if the segments do not tile the directory exactly (corrupt or
    /// incomplete pool).
    pub fn recover(params: CcehParams, pool: CcehPool) -> Cceh {
        assert_eq!(params.segment_bytes, pool.segment_bytes, "segment size mismatch");
        let mut parsed = Vec::with_capacity(pool.segments.len());
        let mut global_depth = 1u32;
        for region in pool.segments {
            let (seg, depth, prefix) = Segment::from_region(region, params.segment_bytes);
            global_depth = global_depth.max(depth);
            parsed.push((seg, depth, prefix));
        }
        let size = 1usize << global_depth;
        let mut entries: Vec<Option<Arc<Segment>>> = vec![None; size];
        let mut count = 0usize;
        for (seg, depth, prefix) in parsed {
            let span = 1usize << (global_depth - depth);
            let base = (prefix as usize) << (global_depth - depth);
            for slot in entries[base..base + span].iter_mut() {
                assert!(slot.is_none(), "segments overlap in the directory");
                *slot = Some(Arc::clone(&seg));
            }
            count += seg.count_valid();
        }
        let entries: Vec<Arc<Segment>> = entries
            .into_iter()
            .map(|s| s.expect("directory hole: missing segment"))
            .collect();
        Cceh {
            dir: RwLock::new(Directory {
                global_depth,
                entries,
            }),
            params,
            count: AtomicUsize::new(count),
            splits: AtomicUsize::new(0),
        }
    }
}

impl HashIndex for Cceh {
    fn insert(&self, key: &Key, value: &Value) -> IndexResult<()> {
        let h = key_hash(key);
        let rec = Record::new(*key, *value);
        loop {
            let seg = self.segment_for(h);
            seg.lock_write();
            // Re-check the directory still maps h here (split race).
            if !Arc::ptr_eq(&seg, &self.segment_for(h)) {
                seg.unlock_write();
                continue;
            }
            let fb = Self::bucket_index(h, seg.n_buckets);
            let window = seg.read_probe_window(fb);
            // Duplicate check within the probe window.
            for (valid, wrec) in window.iter() {
                if *valid && wrec.key == *key {
                    seg.unlock_write();
                    return Err(IndexError::DuplicateKey);
                }
            }
            for (i, (valid, _)) in window.iter().enumerate() {
                if !valid {
                    let (b, s) = seg.window_pos(fb, i);
                    seg.write_record(b, s, &rec);
                    seg.unlock_write();
                    self.count.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
            }
            seg.unlock_write();
            self.split(h);
        }
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let h = key_hash(key);
        loop {
            let seg = self.segment_for(h);
            seg.lock_read(); // NVM write — CCEH's read-lock cost
            if !Arc::ptr_eq(&seg, &self.segment_for(h)) {
                seg.unlock_read();
                continue;
            }
            let fb = Self::bucket_index(h, seg.n_buckets);
            let window = seg.read_probe_window(fb);
            let found = window
                .iter()
                .find(|(valid, rec)| *valid && rec.key == *key)
                .map(|(_, rec)| rec.value);
            seg.unlock_read();
            return found;
        }
    }

    fn update(&self, key: &Key, value: &Value) -> IndexResult<()> {
        let h = key_hash(key);
        let rec = Record::new(*key, *value);
        loop {
            let seg = self.segment_for(h);
            seg.lock_write();
            if !Arc::ptr_eq(&seg, &self.segment_for(h)) {
                seg.unlock_write();
                continue;
            }
            let fb = Self::bucket_index(h, seg.n_buckets);
            let window = seg.read_probe_window(fb);
            for (i, (valid, wrec)) in window.iter().enumerate() {
                if *valid && wrec.key == *key {
                    let (b, s) = seg.window_pos(fb, i);
                    // In-place value update (original CCEH is not
                    // failure-atomic for values either; lazy recovery).
                    seg.write_record(b, s, &rec);
                    seg.unlock_write();
                    return Ok(());
                }
            }
            seg.unlock_write();
            return Err(IndexError::KeyNotFound);
        }
    }

    fn remove(&self, key: &Key) -> bool {
        let h = key_hash(key);
        loop {
            let seg = self.segment_for(h);
            seg.lock_write();
            if !Arc::ptr_eq(&seg, &self.segment_for(h)) {
                seg.unlock_write();
                continue;
            }
            let fb = Self::bucket_index(h, seg.n_buckets);
            let window = seg.read_probe_window(fb);
            for (i, (valid, wrec)) in window.iter().enumerate() {
                if *valid && wrec.key == *key {
                    let (b, s) = seg.window_pos(fb, i);
                    seg.clear_slot(b, s);
                    seg.unlock_write();
                    self.count.fetch_sub(1, Ordering::Relaxed);
                    return true;
                }
            }
            seg.unlock_write();
            return false;
        }
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    fn load_factor(&self) -> f64 {
        let dir = self.dir.read();
        let mut seen = std::collections::HashSet::new();
        let mut slots = 0usize;
        for seg in &dir.entries {
            if seen.insert(Arc::as_ptr(seg) as usize) {
                slots += seg.n_buckets * SLOTS_PER_BUCKET;
            }
        }
        self.len() as f64 / slots as f64
    }

    fn scheme_name(&self) -> &'static str {
        "CCEH"
    }
}

impl std::fmt::Debug for Cceh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cceh")
            .field("len", &self.len())
            .field("splits", &self.split_count())
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

    fn small() -> Cceh {
        Cceh::new(CcehParams {
            segment_bytes: 1024, // 16 buckets, 32 slots per segment
            initial_depth: 1,
            nvm: NvmOptions::fast(),
        })
    }

    #[test]
    fn basic_crud() {
        let t = small();
        t.insert(&k(1), &v(10)).unwrap();
        assert_eq!(t.get(&k(1)).unwrap().as_u64(), 10);
        assert_eq!(t.insert(&k(1), &v(11)), Err(IndexError::DuplicateKey));
        t.update(&k(1), &v(12)).unwrap();
        assert_eq!(t.get(&k(1)).unwrap().as_u64(), 12);
        assert!(t.remove(&k(1)));
        assert!(!t.remove(&k(1)));
        assert_eq!(t.get(&k(1)), None);
    }

    #[test]
    fn grows_through_splits_and_doubling() {
        let t = small();
        let n = 5_000u64;
        for i in 0..n {
            t.insert(&k(i), &v(i ^ 7)).unwrap();
        }
        assert!(t.split_count() > 2, "expected several splits");
        for i in 0..n {
            assert_eq!(t.get(&k(i)).unwrap().as_u64(), i ^ 7, "key {i}");
        }
        assert_eq!(t.len(), n as usize);
        let dir = t.dir.read();
        assert!(dir.global_depth > 1);
        assert_eq!(dir.entries.len(), 1 << dir.global_depth);
    }

    #[test]
    fn split_preserves_all_records() {
        let t = small();
        // Insert until exactly one split has happened, then verify.
        let mut i = 0u64;
        while t.split_count() == 0 {
            t.insert(&k(i), &v(i)).unwrap();
            i += 1;
        }
        for j in 0..i {
            assert_eq!(t.get(&k(j)).unwrap().as_u64(), j, "key {j} lost in split");
        }
        // Count on media agrees.
        let dir = t.dir.read();
        let mut seen = std::collections::HashSet::new();
        let mut on_media = 0;
        for seg in &dir.entries {
            if seen.insert(Arc::as_ptr(seg) as usize) {
                on_media += seg.count_valid();
            }
        }
        assert_eq!(on_media, i as usize);
    }

    #[test]
    fn read_locks_write_to_nvm() {
        // The HDNH paper's critique, verified mechanically: CCEH searches
        // generate NVM writes for lock acquire/release.
        let t = small();
        for i in 0..20 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let before = t.nvm_stats();
        for i in 0..20 {
            let _ = t.get(&k(i));
        }
        let delta = t.nvm_stats().since(&before);
        assert!(
            delta.writes >= 40,
            "expected ≥2 NVM writes per search (lock/unlock), got {}",
            delta.writes
        );
    }

    #[test]
    fn probe_window_is_at_most_two_blocks() {
        let t = small();
        t.insert(&k(42), &v(1)).unwrap();
        let before = t.nvm_stats();
        let _ = t.get(&k(42));
        let delta = t.nvm_stats().since(&before);
        assert!(
            delta.read_blocks <= 2,
            "probe read {} blocks",
            delta.read_blocks
        );
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        use std::sync::Arc as StdArc;
        let t = StdArc::new(Cceh::new(CcehParams {
            segment_bytes: 4096,
            initial_depth: 2,
            nvm: NvmOptions::fast(),
        }));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = StdArc::clone(&t);
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
        for tid in 0..4u64 {
            for i in (0..2_000u64).step_by(101) {
                let id = tid * 1_000_000 + i;
                assert_eq!(t.get(&k(id)).unwrap().as_u64(), id);
            }
        }
    }

    #[test]
    fn recover_rebuilds_directory_after_shutdown() {
        let t = small();
        for i in 0..3_000u64 {
            t.insert(&k(i), &v(i * 2)).unwrap();
        }
        assert!(t.split_count() > 0, "want splits before recovery");
        let params = CcehParams {
            segment_bytes: 1024,
            initial_depth: 1,
            nvm: NvmOptions::fast(),
        };
        let pool = t.into_pool();
        let r = Cceh::recover(params, pool);
        assert_eq!(r.len(), 3_000);
        for i in 0..3_000u64 {
            assert_eq!(r.get(&k(i)).unwrap().as_u64(), i * 2, "key {i}");
        }
        // Recovered table keeps working (inserts, further splits).
        for i in 3_000..6_000u64 {
            r.insert(&k(i), &v(i)).unwrap();
        }
        assert_eq!(r.len(), 6_000);
    }

    #[test]
    fn recover_after_crash_preserves_acknowledged_inserts() {
        // Inserts are failure-atomic (record persisted, then the 1-byte
        // valid tag); recovery after a crash must see every acknowledged
        // insert. (In-place updates are NOT failure-atomic in CCEH — the
        // original defers that to lazy recovery — so only inserts are
        // asserted here.)
        let params = CcehParams {
            segment_bytes: 1024,
            initial_depth: 1,
            nvm: NvmOptions::strict(),
        };
        let t = Cceh::new(params.clone());
        for i in 0..500u64 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        let pool = t.into_pool();
        let mut rng = hdnh_common::rng::XorShift64Star::new(3);
        for region in &pool.segments {
            region.crash(&mut rng, hdnh_nvm::LossMode::TearLines);
        }
        let r = Cceh::recover(params, pool);
        assert_eq!(r.len(), 500);
        for i in 0..500u64 {
            assert_eq!(r.get(&k(i)).unwrap().as_u64(), i, "key {i}");
        }
    }

    #[test]
    #[should_panic(expected = "segment size mismatch")]
    fn recover_with_wrong_geometry_panics() {
        let t = small();
        let pool = t.into_pool();
        let wrong = CcehParams {
            segment_bytes: 2048,
            initial_depth: 1,
            nvm: NvmOptions::fast(),
        };
        let _ = Cceh::recover(wrong, pool);
    }

    #[test]
    fn for_capacity_sizes_sensibly() {
        let p = CcehParams::for_capacity(100_000);
        let t = Cceh::new(p);
        for i in 0..10_000u64 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        assert_eq!(t.len(), 10_000);
    }
}
