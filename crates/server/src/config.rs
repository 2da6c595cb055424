//! Validated server configuration: the two settable values, `threads` and
//! `max_conns`.
//!
//! A [`ServerConfig`] can only be obtained two ways, both of which
//! guarantee a sane configuration:
//!
//! * [`ServerConfig::default`] — the production values;
//! * [`ServerConfig::builder`] — explicit knobs, checked by
//!   [`ServerConfigBuilder::build`] with a typed [`ConfigError`] naming
//!   the first offending knob.
//!
//! Fields are private on purpose: read them through the accessors, and
//! construct through the builder so validation cannot be skipped. The
//! per-connection budgets are constants:
//! [`READ_TIMEOUT`](crate::reactor::READ_TIMEOUT),
//! [`WRITE_TIMEOUT`](crate::reactor::WRITE_TIMEOUT),
//! [`MAX_INFLIGHT`](crate::reactor::MAX_INFLIGHT) and
//! [`DEFAULT_MAX_FRAME`](crate::resp::DEFAULT_MAX_FRAME).

use std::fmt;

/// A rejected configuration: the first nonsense knob found by
/// [`ServerConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads == 0`: the reactor needs at least one event loop.
    ZeroThreads,
    /// `max_conns == 0`: a server that admits nothing serves nothing.
    ZeroMaxConns,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "threads must be >= 1"),
            ConfigError::ZeroMaxConns => write!(f, "max_conns must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Server tuning knobs (validated; see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    threads: usize,
    max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            max_conns: 64,
        }
    }
}

impl ServerConfig {
    /// A builder seeded with the [`Default`] values.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }

    /// Reactor event loops (each pinned to its own poller; loop 0 also
    /// accepts).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Concurrent connection budget; extra connections are answered
    /// `-ERR max connections reached` and closed.
    pub fn max_conns(&self) -> usize {
        self.max_conns
    }
}

/// Builder for [`ServerConfig`]; every setter overrides one default.
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the number of reactor event loops.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Sets the concurrent connection budget.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.cfg.max_conns = n;
        self
    }

    /// Validates and produces the configuration, or names the first
    /// nonsense knob.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let c = self.cfg;
        if c.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if c.max_conns == 0 {
            return Err(ConfigError::ZeroMaxConns);
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_historical_values() {
        let c = ServerConfig::default();
        assert_eq!(c.threads(), 4);
        assert_eq!(c.max_conns(), 64);
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let c = ServerConfig::builder().threads(2).max_conns(10).build().unwrap();
        assert_eq!(c.threads(), 2);
        assert_eq!(c.max_conns(), 10);
    }

    #[test]
    fn nonsense_knobs_get_typed_errors() {
        assert_eq!(
            ServerConfig::builder().threads(0).build(),
            Err(ConfigError::ZeroThreads)
        );
        assert_eq!(
            ServerConfig::builder().max_conns(0).build(),
            Err(ConfigError::ZeroMaxConns)
        );
        // Errors render a human-readable reason naming the knob.
        let msg = ConfigError::ZeroMaxConns.to_string();
        assert!(msg.contains("max_conns"), "{msg}");
    }

    #[test]
    fn config_errors_implement_partial_eq_for_matching() {
        assert_ne!(ConfigError::ZeroThreads, ConfigError::ZeroMaxConns);
    }
}
