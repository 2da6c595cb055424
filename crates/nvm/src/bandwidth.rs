//! NVM bandwidth modeling.
//!
//! Beyond latency, AEP's distinguishing limit is bandwidth: roughly 1/3 of
//! DRAM for reads and 1/6 for writes (§2.1). Bandwidth is what the paper's
//! concurrency arguments lean on — "heavyweight concurrency control can
//! easily exhaust NVM's limited bandwidth" — so multi-threaded runs need a
//! *shared* throughput ceiling, not just per-access latency.
//!
//! [`BandwidthLimiter`] is a lock-free token bucket: a region (or a group
//! of regions sharing one limiter, like DIMMs behind one controller)
//! accrues byte-credit with wall-clock time; each access consumes credit
//! and spins out the deficit. Single-threaded workloads rarely hit the
//! ceiling (latency dominates); with many threads the limiter converts
//! excess offered load into stalls, exactly like saturated DIMMs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::latency::busy_wait_ns;

/// Bandwidth ceilings in bytes per microsecond (= MB/s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BandwidthModel {
    /// Read ceiling (AEP: ~6 GB/s random read per socket → default 6000).
    pub read_bytes_per_us: u32,
    /// Write ceiling (AEP: ~2 GB/s sustained write → default 2000).
    pub write_bytes_per_us: u32,
}

impl BandwidthModel {
    /// AEP-like defaults (per-socket figures from the Optane measurement
    /// literature, scaled to a single simulated device).
    pub const fn aep() -> Self {
        BandwidthModel {
            read_bytes_per_us: 6000,
            write_bytes_per_us: 2000,
        }
    }
}

/// Shared token-bucket limiter. Cheap when under the ceiling: one atomic
/// add and a comparison per access.
#[derive(Debug)]
pub struct BandwidthLimiter {
    model: BandwidthModel,
    epoch: Instant,
    read_consumed: AtomicU64,
    write_consumed: AtomicU64,
}

impl BandwidthLimiter {
    /// A fresh limiter; credit accrues from now.
    pub fn new(model: BandwidthModel) -> Self {
        BandwidthLimiter {
            model,
            epoch: Instant::now(),
            read_consumed: AtomicU64::new(0),
            write_consumed: AtomicU64::new(0),
        }
    }

    /// The model in force.
    pub fn model(&self) -> BandwidthModel {
        self.model
    }

    /// Total read bytes charged so far (observability/tests).
    pub fn consumed_read_bytes(&self) -> u64 {
        self.read_consumed.load(Ordering::Relaxed)
    }

    /// Total write bytes charged so far (observability/tests).
    pub fn consumed_write_bytes(&self) -> u64 {
        self.write_consumed.load(Ordering::Relaxed)
    }

    #[inline]
    fn throttle(&self, consumed: &AtomicU64, bytes: u64, rate_bytes_per_us: u32) {
        if rate_bytes_per_us == 0 {
            return;
        }
        let total = consumed.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let budget_us = self.epoch.elapsed().as_micros() as u64;
        let budget_bytes = budget_us.saturating_mul(rate_bytes_per_us as u64);
        if total > budget_bytes {
            // Deficit: stall until the bucket catches up.
            let deficit = total - budget_bytes;
            let wait_ns = deficit.saturating_mul(1000) / rate_bytes_per_us as u64;
            busy_wait_ns(wait_ns);
        }
    }

    /// Charges a read of `bytes` against the read ceiling.
    #[inline]
    pub fn charge_read(&self, bytes: usize) {
        self.throttle(&self.read_consumed, bytes as u64, self.model.read_bytes_per_us);
    }

    /// Charges a write of `bytes` against the write ceiling.
    #[inline]
    pub fn charge_write(&self, bytes: usize) {
        self.throttle(&self.write_consumed, bytes as u64, self.model.write_bytes_per_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn under_the_ceiling_is_free() {
        // Tiny trickle against a huge ceiling: negligible time.
        let lim = BandwidthLimiter::new(BandwidthModel {
            read_bytes_per_us: 100_000,
            write_bytes_per_us: 100_000,
        });
        std::thread::sleep(Duration::from_millis(5)); // accrue credit
        let start = Instant::now();
        for _ in 0..1000 {
            lim.charge_read(64);
        }
        assert!(start.elapsed().as_millis() < 50);
    }

    #[test]
    fn sustained_overload_converges_to_the_ceiling() {
        // Ceiling 200 MB/s; push 2 MB of reads as fast as possible: must
        // take ≈10 ms wall-clock (allow 5..100 ms for timer noise).
        let lim = BandwidthLimiter::new(BandwidthModel {
            read_bytes_per_us: 200,
            write_bytes_per_us: 200,
        });
        let start = Instant::now();
        let mut pushed = 0u64;
        while pushed < 2_000_000 {
            lim.charge_read(256);
            pushed += 256;
        }
        let ms = start.elapsed().as_millis();
        // The hard invariant is the lower bound (throttling happened);
        // the upper bound is generous because debug builds and parallel
        // test threads inflate the calibrated spins.
        assert!((5..2000).contains(&ms), "2MB at 200MB/s took {ms}ms");
    }

    #[test]
    fn read_and_write_buckets_are_independent() {
        let lim = BandwidthLimiter::new(BandwidthModel {
            read_bytes_per_us: 1,
            write_bytes_per_us: 1_000_000,
        });
        // The limiter's first deficit pays the one-time spin calibration
        // (tens of ms); warm it before starting the clock.
        busy_wait_ns(1);
        // Writes against the huge ceiling stay fast even though the read
        // bucket is tiny.
        let start = Instant::now();
        for _ in 0..1000 {
            lim.charge_write(64);
        }
        assert!(start.elapsed().as_millis() < 50);
    }

    #[test]
    fn zero_rate_disables() {
        let lim = BandwidthLimiter::new(BandwidthModel {
            read_bytes_per_us: 0,
            write_bytes_per_us: 0,
        });
        let start = Instant::now();
        for _ in 0..10_000 {
            lim.charge_read(1_000_000);
            lim.charge_write(1_000_000);
        }
        assert!(start.elapsed().as_millis() < 100);
    }

    #[test]
    fn concurrent_threads_share_one_budget() {
        use std::sync::Arc;
        // 100 MB/s shared; 2 threads × 1 MB = 2 MB → ≥ ~15 ms total.
        let lim = Arc::new(BandwidthLimiter::new(BandwidthModel {
            read_bytes_per_us: 100,
            write_bytes_per_us: 100,
        }));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let lim = Arc::clone(&lim);
                s.spawn(move || {
                    let mut pushed = 0;
                    while pushed < 1_000_000 {
                        lim.charge_read(256);
                        pushed += 256;
                    }
                });
            }
        });
        let ms = start.elapsed().as_millis();
        assert!(ms >= 10, "2MB at shared 100MB/s took only {ms}ms");
    }
}
