//! The pieces of the repository's benchmark; `main.rs` is the command
//! line over them. See `README.md` beside this crate.

pub mod aa;
pub mod alloc;
pub mod harness;
pub mod json;
pub mod kv;
pub mod ladder;
pub mod net;
pub mod run;
pub mod spec;
pub mod trace;
pub mod workload;
