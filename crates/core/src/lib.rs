//! # HDNH — Hybrid DRAM-NVM Hashing
//!
//! A reproduction of *"HDNH: a read-efficient and write-optimized hashing
//! scheme for hybrid DRAM-NVM memory"* (Zhu et al., ICPP 2021), built on the
//! simulated persistent-memory substrate in [`hdnh_nvm`].
//!
//! HDNH persists key-value records in a two-level **non-volatile table** in
//! NVM while keeping all probe metadata in DRAM:
//!
//! * the **Optimistic Compression Filter** ([`ocf`]) — 2 bytes per slot
//!   (valid bit, lock bit, 6-bit version, 1-byte fingerprint) — answers
//!   most key-match questions without touching NVM;
//! * the **hot table** ([`hot`]) caches frequently-read records in DRAM with
//!   the lightweight **RAFL** replacement policy;
//! * the **synchronous write mechanism** ([`sync`]) hides the hot-table
//!   update under the NVM write;
//! * **fine-grained optimistic concurrency** gives lock-free reads and
//!   per-slot writer locks — no NVM traffic for read locks.
//!
//! # Quick start
//!
//! ```
//! use hdnh::{Hdnh, HdnhParams};
//! use hdnh_common::{Key, Value};
//!
//! let params = HdnhParams::builder().capacity(10_000).build().unwrap();
//! let table = Hdnh::new(params);
//! let (k, v) = (Key::from_u64(1), Value::from_u64(42));
//! table.insert(&k, &v).unwrap();
//! assert_eq!(table.get(&k).unwrap().unwrap().as_u64(), 42);
//! table.update(&k, &Value::from_u64(43)).unwrap();
//! assert!(table.remove(&k).unwrap());
//! ```
//!
//! # Persistence
//!
//! [`Hdnh::into_pool`] returns the persistent regions (simulating process
//! exit); [`Hdnh::recover`] re-opens them, completing any interrupted resize
//! and rebuilding the DRAM structures with a parallel scan. With
//! [`hdnh_nvm::NvmOptions::strict`] regions, [`PersistentPool::crash`]
//! simulates a power failure at the current instant.


#![warn(missing_docs)]
mod crc32;
mod epoch;

pub mod error;
pub mod faultexplore;
pub mod hot;
pub mod meta;
pub mod nvtable;
pub mod ocf;
pub mod params;
pub mod pool;
pub mod recovery;
pub mod snapshot;
pub mod sync;
pub mod table;
pub mod vlog;

pub use error::{CorruptionOutcome, HdnhError};
pub use faultexplore::{ExploreConfig, ExploreReport, FaultCaseResult, OpMix};
pub use hot::HotTable;
pub use params::{HdnhParams, HdnhParamsBuilder, HotPolicy, SyncMode};
pub use crc32::crc32_ieee;
pub use pool::{PoolOpenReport, Superblock, SUPERBLOCK_FILE};
pub use recovery::PersistentPool;
pub use snapshot::{
    verify_snapshot, ManifestEntry, SnapshotManifest, SnapshotReport, SNAPSHOT_MANIFEST_FILE,
};
pub use table::{Hdnh, InvariantReport, ScrubReport};
pub use vlog::{CompactReport, Vlog, VlogPtr, VlogStats, INLINE_MAX, MAX_VALUE_BYTES};
