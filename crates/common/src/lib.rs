//! Shared substrate for the HDNH reproduction.
//!
//! This crate holds everything the hash tables, the workload generator and
//! the benchmark harness have in common:
//!
//! * fixed-size [`Key`] / [`Value`] types matching the paper's evaluation
//!   setup (16-byte keys, 15-byte values, §4.1),
//! * a self-contained 64-bit hash ([`hash::hash64`], xxhash64-style) plus the
//!   derived quantities every scheme needs: second independent hash and the
//!   one-byte [`fingerprint`](hash::fingerprint) used by HDNH's Optimistic
//!   Compression Filter,
//! * the [`HashIndex`] trait implemented by HDNH and all three baselines so
//!   the harness can drive them uniformly,
//! * small deterministic PRNGs ([`rng`]) used for RAFL's random eviction and
//!   for workload generation,
//! * a safe software-prefetch hint ([`prefetch::prefetch_read`]) for the
//!   tables' address-first probes.


#![warn(missing_docs)]
pub mod hash;
pub mod index;
pub mod kv;
pub mod prefetch;
pub mod rng;

pub use index::{HashIndex, IndexError, IndexResult};
pub use kv::{Key, Record, Value, KEY_LEN, RECORD_LEN, VALUE_LEN};
