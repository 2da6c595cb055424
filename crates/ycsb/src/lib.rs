//! YCSB-style workload generation.
//!
//! The paper drives every experiment with YCSB (Cooper et al., SoCC'10)
//! microbenchmarks: uniform and zipfian key distributions (with the zipfian
//! exponent `s` tuned between 0.5 and 1.22 for figure 12), 16-byte keys,
//! 15-byte values, and standard operation mixes (100 % insert, 100 % search,
//! 50/50 insert+search, YCSB-A). This crate is a faithful Rust port of the
//! relevant YCSB machinery:
//!
//! * [`dist`] — the key-choice generators, including Gray et al.'s
//!   rejection-free zipfian sampler exactly as YCSB implements it, the
//!   scrambled-zipfian variant (hot items spread over the keyspace) and a
//!   "latest" distribution.
//! * [`keys`] — the mapping from abstract record ids to concrete
//!   [`hdnh_common::Key`]/[`hdnh_common::Value`] bytes, including a
//!   deterministic value derivation so correctness checks can validate any
//!   returned value.
//! * [`workload`] — operation-mix specs, the standard YCSB-A/B/C presets and
//!   the paper's custom mixes, deterministic per-thread operation streams
//!   (the paper pre-generates all operations before timing; so do we),
//!   and [`execute`], which applies one op to any
//!   [`HashIndex`](hdnh_common::HashIndex).


#![warn(missing_docs)]
pub mod dist;
pub mod keys;
pub mod workload;

pub use dist::{KeyDist, Latest, ScrambledZipfian, Uniform, Zipfian};
pub use keys::KeySpace;
pub use workload::{execute, generate_ops, Mix, Op, WorkloadSpec};
