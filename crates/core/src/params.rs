//! Tunable parameters of an HDNH instance.
//!
//! Defaults follow the paper's evaluated configuration (§3.1, §4.1/§4.2):
//! 256-byte NVM buckets with 8 slots, 16 KB segments (figure 11a's optimum),
//! 4 slots per hot-table bucket (figure 11b's balance point), top level twice
//! the bottom level.

use hdnh_nvm::NvmOptions;

/// Bytes per non-volatile bucket — fixed at AEP's 256-byte block granularity.
pub const BUCKET_BYTES: usize = 256;
/// Persisted header bytes per bucket (bitmap word).
pub(crate) const BUCKET_HEADER: usize = 8;
/// Slots per non-volatile bucket.
pub const SLOTS_PER_BUCKET: usize = 8;
/// Bytes per slot (one 31-byte record).
pub(crate) const SLOT_BYTES: usize = hdnh_common::RECORD_LEN;

// 8 + 8×31 = 256: the record geometry exactly fills a bucket.
const _: () = assert!(BUCKET_HEADER + SLOTS_PER_BUCKET * SLOT_BYTES == BUCKET_BYTES);

/// How hot-table writes are synchronized with non-volatile writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// The foreground thread performs the hot-table write itself, after the
    /// NVM write. Simple; serializes DRAM and NVM latencies.
    Inline,
    /// The paper's synchronous write mechanism (§3.4): a background thread
    /// performs the hot-table write concurrently with the foreground NVM
    /// write; the foreground thread waits on the `sync_write_signal` before
    /// returning, hiding the DRAM write under the NVM latency.
    Background,
}

/// Hot-table replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotPolicy {
    /// The paper's RAFL (§3.3): one hotmap bit per slot; evict a cold slot
    /// if any, else a random slot, then clear all hotmap bits in the bucket.
    Rafl,
    /// LRU comparison point used in figure 12: per-slot access stamps, evict
    /// the least recently used. Costs a stamp store on every hit and a scan
    /// on every eviction — the maintenance overhead RAFL avoids.
    Lru,
}

/// Configuration for [`crate::Hdnh`].
#[derive(Clone, Debug)]
pub struct HdnhParams {
    /// Segment size in bytes (power-of-two multiple of 256; default 16 KB).
    pub segment_bytes: usize,
    /// Initial number of bottom-level segments (power of two). The top
    /// level always has twice as many.
    pub initial_bottom_segments: usize,
    /// Slots per hot-table bucket (1..=8; default 4 per figure 11b).
    pub hot_slots_per_bucket: usize,
    /// Hot-table capacity as a fraction of non-volatile slots (default 1/4;
    /// set ≥ 1.0 for the "hot table has not overflowed" regime of §3.5).
    pub hot_capacity_ratio: f64,
    /// Enable the Optimistic Compression Filter. Disabling it (ablation)
    /// makes probes scan NVM buckets directly like Level hashing.
    pub enable_ocf: bool,
    /// Use two segment choices per level (the paper's "2-cuckoo strategy",
    /// 4 candidate buckets per level). Disabling (ablation) probes a single
    /// segment choice (2 candidate buckets per level): cheaper probes,
    /// lower achievable load factor, earlier resizes.
    pub two_choice_segments: bool,
    /// Enable the DRAM hot table.
    pub enable_hot_table: bool,
    /// Replacement policy for the hot table.
    pub hot_policy: HotPolicy,
    /// Synchronous-write mechanism mode.
    pub sync_mode: SyncMode,
    /// NVM simulation options for the table's regions.
    pub nvm: NvmOptions,
    /// Value-log segment size in bytes (multiple of 8; default 4 MiB). An
    /// oversized value still fits: its segment is sized to the record.
    pub vlog_segment_bytes: usize,
}

impl HdnhParams {
    /// Starts a validating builder over the paper's default configuration.
    ///
    /// Unlike struct-literal construction (checked only when a table is
    /// built from it), the builder reports bad configurations as typed
    /// [`HdnhError::Config`](crate::HdnhError::Config) values at build time.
    pub fn builder() -> HdnhParamsBuilder {
        HdnhParamsBuilder {
            params: HdnhParams::default(),
            capacity: None,
        }
    }

    /// Sized so that roughly `records` items fit at ≈80 % load without
    /// resizing — what the throughput benchmarks use for search workloads.
    pub fn for_capacity(records: usize) -> Self {
        let mut p = HdnhParams::default();
        p.size_for(records);
        p
    }

    /// Sets `initial_bottom_segments` so `records` items fit at ≈80 % load.
    fn size_for(&mut self, records: usize) {
        let slots_needed = (records as f64 / 0.8).ceil() as usize;
        // `max(1)`: a segment too small to hold a bucket is `check`'s to
        // reject, not a division by zero here.
        let slots_per_segment = (self.segment_bytes / BUCKET_BYTES * SLOTS_PER_BUCKET).max(1);
        // total slots = (2M + M) × slots_per_segment  ⇒  M.
        let m = slots_needed.div_ceil(3 * slots_per_segment).max(1);
        self.initial_bottom_segments = m.next_power_of_two();
    }

    /// The one rule set every configuration must meet.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.segment_bytes < BUCKET_BYTES || !self.segment_bytes.is_multiple_of(BUCKET_BYTES) {
            return Err(format!(
                "segment_bytes must be a multiple of {BUCKET_BYTES}, got {}",
                self.segment_bytes
            ));
        }
        if !(self.segment_bytes / BUCKET_BYTES).is_power_of_two() {
            return Err(format!(
                "segment_bytes must hold a power-of-two number of buckets, got {}",
                self.segment_bytes
            ));
        }
        if !self.initial_bottom_segments.is_power_of_two() {
            return Err(format!(
                "initial_bottom_segments must be a power of two, got {}",
                self.initial_bottom_segments
            ));
        }
        if !(1..=SLOTS_PER_BUCKET).contains(&self.hot_slots_per_bucket) {
            return Err(format!(
                "hot_slots_per_bucket must be 1..={SLOTS_PER_BUCKET}, got {}",
                self.hot_slots_per_bucket
            ));
        }
        let ratio = self.hot_capacity_ratio;
        if !ratio.is_finite() || ratio <= 0.0 || ratio > 16.0 {
            return Err(format!("hot_capacity_ratio must be in (0, 16], got {ratio}"));
        }
        if self.vlog_segment_bytes < 64 || !self.vlog_segment_bytes.is_multiple_of(8) {
            return Err(format!(
                "vlog_segment_bytes must be a multiple of 8, at least 64, got {}",
                self.vlog_segment_bytes
            ));
        }
        Ok(())
    }
}

/// Validating builder for [`HdnhParams`]; see [`HdnhParams::builder`].
#[derive(Clone, Debug)]
pub struct HdnhParamsBuilder {
    params: HdnhParams,
    capacity: Option<usize>,
}

impl HdnhParamsBuilder {
    /// Segment size in bytes (power-of-two multiple of 256).
    pub fn segment_bytes(mut self, bytes: usize) -> Self {
        self.params.segment_bytes = bytes;
        self
    }

    /// Initial bottom-level segment count (power of two). Overridden by
    /// [`capacity`](Self::capacity) if both are given.
    pub fn initial_bottom_segments(mut self, segments: usize) -> Self {
        self.params.initial_bottom_segments = segments;
        self
    }

    /// Sizes the table so `records` items fit at ≈80 % load without a
    /// resize (the [`HdnhParams::for_capacity`] computation).
    pub fn capacity(mut self, records: usize) -> Self {
        self.capacity = Some(records);
        self
    }

    /// Hot-table capacity as a fraction of non-volatile slots.
    pub fn hot_capacity_ratio(mut self, ratio: f64) -> Self {
        self.params.hot_capacity_ratio = ratio;
        self
    }

    /// Enables or disables the DRAM hot table.
    pub fn enable_hot_table(mut self, on: bool) -> Self {
        self.params.enable_hot_table = on;
        self
    }

    /// Hot-table replacement policy.
    pub fn hot_policy(mut self, policy: HotPolicy) -> Self {
        self.params.hot_policy = policy;
        self
    }

    /// Synchronous-write mechanism mode.
    pub fn sync_mode(mut self, mode: SyncMode) -> Self {
        self.params.sync_mode = mode;
        self
    }

    /// NVM simulation options for the table's regions.
    pub fn nvm(mut self, nvm: NvmOptions) -> Self {
        self.params.nvm = nvm;
        self
    }

    /// Value-log segment size in bytes (multiple of 8, at least 64).
    pub fn vlog_segment_bytes(mut self, bytes: usize) -> Self {
        self.params.vlog_segment_bytes = bytes;
        self
    }

    /// Pool-backend fence policy:
    /// [`SyncPolicy::Sync`](hdnh_nvm::SyncPolicy::Sync) blocks write acks
    /// on `msync(MS_SYNC)` and is the only power-loss-safe setting;
    /// [`SyncPolicy::Async`](hdnh_nvm::SyncPolicy::Async) (default) acks
    /// after `MS_ASYNC` and can lose acked writes on power failure.
    pub fn sync_policy(mut self, policy: hdnh_nvm::SyncPolicy) -> Self {
        self.params.nvm.sync_policy = policy;
        self
    }

    /// Validates and produces the final configuration.
    pub fn build(self) -> Result<HdnhParams, crate::HdnhError> {
        let mut p = self.params;
        if let Some(records) = self.capacity {
            p.size_for(records);
        }
        p.check().map_err(crate::HdnhError::Config)?;
        Ok(p)
    }
}

impl Default for HdnhParams {
    fn default() -> Self {
        HdnhParams {
            segment_bytes: 16 * 1024,
            initial_bottom_segments: 1,
            hot_slots_per_bucket: 4,
            hot_capacity_ratio: 0.25,
            enable_ocf: true,
            two_choice_segments: true,
            enable_hot_table: true,
            hot_policy: HotPolicy::Rafl,
            sync_mode: SyncMode::Inline,
            nvm: NvmOptions::fast(),
            vlog_segment_bytes: 4 * 1024 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total slot capacity of the initial table (both levels): the top
    /// level has twice the bottom's segments.
    fn initial_slots(p: &HdnhParams) -> usize {
        3 * p.initial_bottom_segments * (p.segment_bytes / BUCKET_BYTES) * SLOTS_PER_BUCKET
    }

    /// What the builder returns for `params`.
    fn built(params: HdnhParams) -> Result<HdnhParams, crate::HdnhError> {
        HdnhParamsBuilder { params, capacity: None }.build()
    }

    #[test]
    fn default_is_valid() {
        assert_eq!(HdnhParams::default().check(), Ok(()));
    }

    #[test]
    fn default_matches_paper() {
        let p = HdnhParams::default();
        assert_eq!(p.segment_bytes, 16 * 1024);
        assert_eq!(p.hot_slots_per_bucket, 4);
        assert_eq!(p.hot_policy, HotPolicy::Rafl);
    }

    #[test]
    fn for_capacity_is_large_enough() {
        for records in [100, 10_000, 1_000_000] {
            let p = HdnhParams::for_capacity(records);
            assert_eq!(p.check(), Ok(()));
            assert!(
                initial_slots(&p) as f64 * 0.8 >= records as f64,
                "records={records} slots={}",
                initial_slots(&p)
            );
        }
    }

    #[test]
    fn non_pow2_segments_rejected() {
        let p = HdnhParams {
            initial_bottom_segments: 3,
            ..Default::default()
        };
        assert!(p.check().unwrap_err().contains("power of two"));
    }

    #[test]
    fn bad_hot_slots_rejected() {
        let p = HdnhParams {
            hot_slots_per_bucket: 9,
            ..Default::default()
        };
        assert!(p.check().unwrap_err().contains("1..=8"));
    }

    #[test]
    fn fallible_constructors_report_bad_params_as_config_errors() {
        use crate::{Hdnh, HdnhError};
        let bad = HdnhParams {
            hot_slots_per_bucket: 9,
            ..Default::default()
        };
        assert!(matches!(Hdnh::try_new(bad.clone()), Err(HdnhError::Config(_))));
        let pool = Hdnh::new(HdnhParams::default()).into_pool();
        assert!(matches!(Hdnh::try_recover(bad, pool, 1), Err(HdnhError::Config(_))));
    }

    #[test]
    fn builder_defaults_match_struct_defaults() {
        let built = HdnhParams::builder().build().unwrap();
        let dflt = HdnhParams::default();
        assert_eq!(built.segment_bytes, dflt.segment_bytes);
        assert_eq!(built.initial_bottom_segments, dflt.initial_bottom_segments);
        assert_eq!(built.hot_policy, dflt.hot_policy);
    }

    #[test]
    fn builder_applies_setters_and_capacity() {
        let p = HdnhParams::builder()
            .segment_bytes(1024)
            .capacity(10_000)
            .enable_hot_table(false)
            .sync_mode(SyncMode::Background)
            .build()
            .unwrap();
        assert_eq!(p.segment_bytes, 1024);
        assert!(!p.enable_hot_table);
        assert_eq!(p.sync_mode, SyncMode::Background);
        assert!(p.initial_bottom_segments.is_power_of_two());
        assert!(initial_slots(&p) as f64 * 0.8 >= 10_000.0);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        use crate::HdnhError;
        let bad = [
            HdnhParams::builder().segment_bytes(100).build(),
            HdnhParams::builder().segment_bytes(3 * 256).build(),
            HdnhParams::builder().initial_bottom_segments(3).build(),
            built(HdnhParams { hot_slots_per_bucket: 0, ..Default::default() }),
            built(HdnhParams { hot_slots_per_bucket: 9, ..Default::default() }),
            HdnhParams::builder().hot_capacity_ratio(0.0).build(),
            HdnhParams::builder().hot_capacity_ratio(f64::NAN).build(),
            HdnhParams::builder().hot_capacity_ratio(100.0).build(),
            HdnhParams::builder().vlog_segment_bytes(60).build(),
            HdnhParams::builder().vlog_segment_bytes(100).build(),
        ];
        for (i, r) in bad.into_iter().enumerate() {
            assert!(matches!(r, Err(HdnhError::Config(_))), "case {i} accepted");
        }
    }
}
