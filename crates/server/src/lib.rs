//! Network service layer for HDNH: a RESP2-subset TCP front-end plus an
//! HTTP ops plane.
//!
//! Six pieces:
//!
//! - [`resp`] — the wire grammar: a zero-copy incremental request
//!   [`resp::Decoder`] (frames are byte ranges into the decoder's buffer;
//!   partial reads and deep pipelining are first-class) plus reply
//!   encoders.
//! - [`reactor`] — the connection runtime: N epoll-driven event loops
//!   over non-blocking sockets, a per-connection state machine
//!   ([`reactor::Conn`]) owning decoder + output buffer + deadlines, and
//!   the [`reactor::Engine`] trait that separates command execution and
//!   admission policy from byte shoveling. Tens of thousands of mostly
//!   idle connections cost zero threads and zero scheduled wakeups.
//! - [`server`] — the RESP policy: [`execute`], the one executor of the
//!   table's commands (the server's engine and `hdnh-cli`'s shell both run
//!   them through it, against one [`hdnh::Hdnh`] through its lock-free
//!   read path), an `Engine` implementation that adds the commands needing
//!   the server, plus the public [`start`]/[`ServerHandle`] surface and
//!   signal-driven drain.
//! - [`config`] — [`ServerConfig`], obtainable only through `Default` or
//!   the validated [`ServerConfig::builder`] (typed [`ConfigError`]s for
//!   nonsense knobs).
//! - [`client`] — a blocking pipelining [`client::RespClient`] used by
//!   the `netbench` load generator and the integration tests.
//! - [`ops`] — a dependency-free HTTP/1.0 listener on a separate port
//!   serving `/metrics`, `/healthz`, `/readyz`, `/varz`, and `/trace`,
//!   sharing readiness/drain state with the RESP server through
//!   [`ops::OpsState`].
//!
//! The command vocabulary (`PING GET SET DEL EXISTS MGET MSET BACKUP
//! COMPACT`, run by [`execute`], plus the server's own `INFO SCRUB METRICS
//! SHUTDOWN`) maps 1:1 onto the table's typed API; table errors
//! come back as RESP errors with a machine-readable code prefix
//! (`-CORRUPTION`, `-IO`, `-CAPACITY`, `-RECOVERY`, `-INTEGRITY`,
//! `-ERR`). See DESIGN.md §12 for the full protocol contract and §16 for
//! the reactor architecture.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("hdnh-server supports Linux only: its reactor is built on `epoll` and `eventfd`");

pub mod client;
pub mod config;
pub mod ops;
pub mod reactor;
pub mod resp;
pub mod server;

pub use client::{Reply, RespClient};
pub use config::{ConfigError, ServerConfig, ServerConfigBuilder};
pub use ops::{start_ops, OpsHandle, OpsState, GIT_HASH, VERSION};
pub use reactor::{Conn, Engine, EngineAction};
pub use resp::{Decoder, Frame, ProtoError};
pub use server::{
    execute, install_signal_handlers, serve_until_signal, signaled, start, start_with_state,
    ServerHandle,
};
