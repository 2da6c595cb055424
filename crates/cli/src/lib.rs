//! A small command shell around an HDNH table.
//!
//! The parser and execution engine live in the library so they are unit
//! testable; the `hdnh-cli` binary is a thin stdin loop. Intended uses:
//! poking at the data structure interactively, scripting smoke tests
//! (`echo "fill 1000\ninfo" | hdnh-cli`), and demonstrating the
//! crash/recover lifecycle without writing Rust. A line that is not one
//! of the shell's own commands is a RESP request, run by the server's
//! executor (`hdnh_server::execute`), as `redis-cli` sends it to a server.
//!
//! ```text
//! > set 1 42
//! OK
//! > get 1
//! 42
//! > del 1 2
//! 1
//! > fill 10000
//! inserted 10000 records (ids 0..10000)
//! > workload a 50000
//! YCSB-A: 50000 ops in 74.5 ms (0.671 Mops/s)
//! > crash 7
//! crashed (1234 words dropped), recovered 10001 records
//! ```


#![warn(missing_docs)]
pub mod command;
pub mod engine;

pub use command::{parse, Command};
pub use engine::{fill, open_table, Engine, EngineConfig};
