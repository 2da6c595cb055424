//! Simulated persistent memory for the HDNH reproduction.
//!
//! The paper evaluates on Intel Optane DC Persistent Memory (AEP). This
//! environment has no NVM hardware, so this crate provides the closest
//! software equivalent that exercises the same code paths:
//!
//! * [`NvmRegion`] — an offset-addressed, heap-backed memory region with the
//!   access API real persistent-memory code uses: raw byte/typed reads and
//!   writes, 8-byte atomic operations, per-cacheline `clwb`-style `flush`
//!   and `sfence`-style `fence`, and [`persist`](NvmRegion::persist) for
//!   both.
//! * [`LatencyModel`] — injects AEP's measured latency profile (≈3× DRAM
//!   read latency, ≈DRAM write latency, 256-byte media access granularity,
//!   per-line flush cost) with a calibrated busy-wait, so benchmark *shapes*
//!   match the hardware even though absolute numbers differ.
//! * [`NvmStats`] — counts every media block read, line written, flush and
//!   fence. The paper's arguments are about these counts; the stats make
//!   them directly observable.
//! * strict mode ([`NvmOptions::strict`]) — a shadow "media" image with
//!   dirty/staged cacheline tracking, on either backend, and seeded
//!   power-loss simulation (unfenced lines survive or vanish at random,
//!   torn at 8-byte granularity or a page at a time), used by the
//!   crash-consistency tests.
//! * file backend ([`Backend::Pool`]) — regions mapped `MAP_SHARED` over
//!   files in a [`PoolDir`], flushed with `msync`. The store survives real
//!   `kill -9`, so the recovery protocol can be exercised against actual
//!   process death instead of only the simulated crash model.
//!
//! # Persistence model
//!
//! The ADR model the paper describes (§2.1): a store is persistent only
//! once its cacheline has been flushed **and** a subsequent fence has
//! executed. There is one implementation of it. A strict region tracks, per
//! cacheline, whether the line is *dirty* (written, not flushed) or *staged*
//! (flushed, fence pending), and keeps the image media is guaranteed to
//! hold in a heap buffer, under [`Backend::Heap`] and [`Backend::Pool`]
//! alike. The backends differ only in when a fence counts as durable:
//! always on the heap; on a pool, when its `msync` was blocking
//! ([`SyncPolicy::Sync`]) and succeeded, or on a full
//! [`sync_to_disk`](NvmRegion::sync_to_disk).
//!
//! Unfenced lines may still reach media — cache eviction, page writeback —
//! so at a simulated power cut one loss engine decides, from a seed, which
//! of them survive. [`NvmRegion::crash`] applies it to a live region by
//! handle on either backend, under any [`LossMode`]: lines torn per 8-byte
//! word, or pages dropped or reordered, which is what a page cache can do
//! to a file. At-risk lines are the tracker's own, visited in address
//! order, so a seed always replays the same outcome.
//! Code that forgets a flush does not fail deterministically on real
//! hardware and does not fail for every seed here either; the randomized
//! crash tests run many seeds to expose such bugs.


#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "hdnh-nvm supports Linux only: pool durability is built on `mmap`, `msync` and `flock`"
);

mod bandwidth;
pub mod fault;
mod latency;
mod mapfile;
mod pod;
pub mod pool;
mod region;
mod shadow;
mod stats;

pub use bandwidth::{BandwidthLimiter, BandwidthModel};
pub use fault::{CorruptionEvent, CorruptionKind, CorruptionPlan, FaultPlan, InjectedCrash};
pub use latency::LatencyModel;
pub use mapfile::NvmIoError;
pub use pod::Pod;
pub use pool::{PoolDir, META_FILE};
pub use region::{Backend, NvmOptions, NvmRegion, SyncPolicy};
pub use shadow::LossMode;
pub use stats::{NvmStats, PerOpStats, StatsSnapshot};
