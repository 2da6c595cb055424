//! Command grammar and parser.

use std::fmt;

/// One shell command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Any line whose first word is none of the shell's own commands: its
    /// words are a RESP request (`GET 1`, `SET 1 x`, `MSET 1 a 2 b`, ...)
    /// run by the server's executor, `hdnh_server::execute`.
    Resp(Vec<String>),
    /// `fill <n>` — insert keys `0..n`, each valued by its own digits.
    Fill(u64),
    /// `workload <a|b|c|f> <ops>` — run a YCSB mix against the table.
    Workload(char, usize),
    /// `stats [delta|reset]` — NVM media counters (see [`StatsMode`]).
    Stats(StatsMode),
    /// `metrics [...]` — hdnh-obs registry exposition (see [`MetricsMode`]).
    Metrics(MetricsMode),
    /// `trace [...]` — flight-recorder timeline (see [`TraceMode`]).
    Trace(TraceMode),
    /// `info` — table geometry, length, load factor, footprints.
    Info,
    /// `verify` — full integrity audit.
    Verify,
    /// `scrub` — checksum-verify every live record, repairing from the hot
    /// table or quarantining damaged slots.
    Scrub,
    /// `vlog` — value-log occupancy: segments, used/garbage/live bytes.
    Vlog,
    /// `crash <seed>` — simulate power failure + recovery (strict mode).
    Crash(u64),
    /// `faultrun [...]` — crash-point injection matrix (see [`FaultRunMode`]).
    FaultRun(FaultRunMode),
    /// `restore <snapshot-dir> <dest-dir>` — verify a snapshot's CRC
    /// manifest, copy it into a fresh pool directory, and open it.
    Restore(String, String),
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
}

/// What `stats` should print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsMode {
    /// Counters since process start.
    Absolute,
    /// Counters since the last `stats reset`.
    Delta,
    /// Move the delta baseline to now (prints nothing else).
    Reset,
}

/// Output format for `metrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricsFormat {
    /// Prometheus text followed by the one-line JSON document.
    Both,
    /// One-line JSON only.
    Json,
    /// Prometheus text only.
    Prom,
}

/// What `metrics` should do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricsMode {
    /// Print the registry (optionally as a delta since the last
    /// `metrics reset`).
    Show {
        /// Which exposition format(s) to print.
        format: MetricsFormat,
        /// Subtract the baseline captured by the last `metrics reset`.
        delta: bool,
    },
    /// Move the delta baseline to now.
    Reset,
}

/// What `trace` should do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceMode {
    /// Dump the merged flight-recorder timeline as JSON.
    Dump,
    /// Clear every ring buffer.
    Reset,
    /// Arm (or with 0, disarm) the slow-op/slow-command thresholds, in
    /// microseconds; slower operations leave exemplars in the recorder.
    Slow(u64),
}

/// What `faultrun` should execute.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRunMode {
    /// The full matrix: every mix, site, hit sample and crash seed, plus
    /// crashes injected into recovery itself.
    Full,
    /// Bounded smoke sweep (one seed, no recovery-phase injection).
    Quick,
    /// Recording only: list every crash site with its hit counts per mix.
    Sites,
    /// Replay one case from its reproduction tuple
    /// `[pool:]mix:site:hit:seed[:recovery_site:recovery_hit]` (`pool:`: on
    /// a pool directory).
    Repro(String),
}

/// Parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn int(tok: Option<&str>, what: &str) -> Result<u64, ParseError> {
    tok.ok_or_else(|| ParseError(format!("missing {what}")))?
        .parse()
        .map_err(|_| ParseError(format!("{what} must be an unsigned integer")))
}

/// Parses a workload letter token into its canonical lowercase char.
fn mix_letter(tok: Option<&str>) -> Result<char, ParseError> {
    let mix = tok
        .ok_or_else(|| ParseError("missing workload letter (a/b/c/f)".into()))?
        .to_ascii_lowercase();
    match mix.as_str() {
        "a" => Ok('a'),
        "b" => Ok('b'),
        "c" => Ok('c'),
        "f" => Ok('f'),
        other => Err(ParseError(format!("unknown workload '{other}'"))),
    }
}

/// Parses one line. Empty/comment lines return `Ok(None)`.
pub fn parse(line: &str) -> Result<Option<Command>, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut toks = line.split_whitespace();
    let cmd = toks
        .next()
        .ok_or_else(|| ParseError("empty command".into()))?
        .to_ascii_lowercase();
    let parsed = match cmd.as_str() {
        "fill" | "load" => Command::Fill(int(toks.next(), "count")?),
        "workload" | "ycsb" => {
            let mix = mix_letter(toks.next())?;
            Command::Workload(mix, int(toks.next(), "op count")? as usize)
        }
        "stats" => {
            let mode = match toks.next() {
                None => StatsMode::Absolute,
                Some("delta") => StatsMode::Delta,
                Some("reset") => StatsMode::Reset,
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown stats mode '{other}' (delta|reset)"
                    )))
                }
            };
            Command::Stats(mode)
        }
        "metrics" => {
            let mut format = MetricsFormat::Both;
            let mut delta = false;
            let mut reset = false;
            for tok in toks.by_ref() {
                match tok {
                    "json" => format = MetricsFormat::Json,
                    "prom" | "prometheus" => format = MetricsFormat::Prom,
                    "delta" => delta = true,
                    "reset" => reset = true,
                    other => {
                        return Err(ParseError(format!(
                            "unknown metrics argument '{other}' (json|prom|delta|reset)"
                        )))
                    }
                }
            }
            if reset && (delta || format != MetricsFormat::Both) {
                return Err(ParseError("'metrics reset' takes no other arguments".into()));
            }
            Command::Metrics(if reset {
                MetricsMode::Reset
            } else {
                MetricsMode::Show { format, delta }
            })
        }
        "trace" => {
            let mode = match toks.next() {
                None => TraceMode::Dump,
                Some("reset") => TraceMode::Reset,
                Some("slow") => TraceMode::Slow(int(toks.next(), "threshold (µs)")?),
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown trace mode '{other}' (reset|slow <us>)"
                    )))
                }
            };
            Command::Trace(mode)
        }
        "info" => Command::Info,
        "verify" | "check" => Command::Verify,
        "scrub" => Command::Scrub,
        "vlog" => Command::Vlog,
        "crash" => Command::Crash(int(toks.next(), "seed")?),
        "faultrun" => {
            let mode = match toks.next() {
                None | Some("full") => FaultRunMode::Full,
                Some("quick") => FaultRunMode::Quick,
                Some("sites") => FaultRunMode::Sites,
                Some("repro") => FaultRunMode::Repro(
                    toks.next()
                        .ok_or_else(|| {
                            ParseError(
                                "missing reproduction tuple [pool:]mix:site:hit:seed[:rsite:rhit]".into(),
                            )
                        })?
                        .to_string(),
                ),
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown faultrun mode '{other}' (full|quick|sites|repro)"
                    )))
                }
            };
            Command::FaultRun(mode)
        }
        "restore" => Command::Restore(
            toks.next()
                .ok_or_else(|| ParseError("missing snapshot directory".into()))?
                .to_string(),
            toks.next()
                .ok_or_else(|| ParseError("missing destination directory".into()))?
                .to_string(),
        ),
        "help" | "?" => Command::Help,
        "quit" | "exit" | "q" => Command::Quit,
        _ => return Ok(Some(Command::Resp(line.split_whitespace().map(str::to_string).collect()))),
    };
    if let Some(extra) = toks.next() {
        return Err(ParseError(format!("unexpected trailing argument '{extra}'")));
    }
    Ok(Some(parsed))
}

/// The help text shown by `help`.
pub const HELP: &str = "\
commands:
  PING GET SET DEL EXISTS MGET MSET BACKUP COMPACT
                          RESP commands, any case, run by the server's own
                          executor (DESIGN.md §12): u64 keys, a value token
                          stored as its bytes; nil prints (not found), an
                          error reply error: CODE msg
  fill <n>                insert keys 0..n, each with its own digits as the
                          value (serve --fill's prefill): get 42 prints 42
  workload <a|b|c|f> <n>  run n ops of a YCSB mix over the filled ids as
                          RESP commands; Mops/s includes encoding and
                          decoding them in process
  stats [delta|reset]     NVM media counters (absolute, since-reset, or
                          move the baseline)
  metrics [json|prom] [delta]  hdnh-obs registry: per-op latency histograms,
                          event counters, derived rates, phase spans
  metrics reset           move the metrics delta baseline
  trace                   dump the flight-recorder timeline as JSON
  trace slow <us>         record ops/commands slower than <us> µs (0 = off)
  trace reset             clear the flight-recorder rings
  info                    table geometry and occupancy
  verify                  per-invariant integrity audit
  scrub                   checksum-verify all live records; repair or
                          quarantine damaged slots
  vlog                    value-log occupancy (segments, used/garbage bytes)
  crash <seed>            simulate power failure + recovery (strict mode)
  faultrun [mode]         crash-point injection matrix; modes: full (default),
                          quick, sites, repro <[pool:]mix:site:hit:seed[:rsite:rhit]>
  restore <snap> <dest>   verify a snapshot's manifest, copy it into a fresh
                          pool directory and open it there
  help                    this text
  quit                    exit";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_command_parses_to_a_resp_request() {
        assert_eq!(
            parse("GET 7").unwrap(),
            Some(Command::Resp(vec!["GET".into(), "7".into()]))
        );
    }

    #[test]
    fn rejects_nothing_silently() {
        // The first-token path is a typed error, never a panic, even for
        // exotic whitespace-only inputs the trim above normally absorbs.
        assert_eq!(parse("\t \u{a0}#c").unwrap_or(None), None);
    }

    #[test]
    fn parses_bulk_and_workload() {
        assert_eq!(parse("fill 1000").unwrap(), Some(Command::Fill(1000)));
        assert_eq!(parse("workload a 500").unwrap(), Some(Command::Workload('a', 500)));
        assert_eq!(parse("ycsb C 10").unwrap(), Some(Command::Workload('c', 10)));
    }

    #[test]
    fn parses_admin() {
        assert_eq!(parse("stats").unwrap(), Some(Command::Stats(StatsMode::Absolute)));
        assert_eq!(parse("info").unwrap(), Some(Command::Info));
        assert_eq!(parse("verify").unwrap(), Some(Command::Verify));
        assert_eq!(parse("scrub").unwrap(), Some(Command::Scrub));
        assert!(parse("scrub extra").is_err());
        assert_eq!(parse("vlog").unwrap(), Some(Command::Vlog));
        assert_eq!(parse("crash 42").unwrap(), Some(Command::Crash(42)));
        assert_eq!(parse("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse("?").unwrap(), Some(Command::Help));
    }

    #[test]
    fn parses_faultrun() {
        assert_eq!(
            parse("faultrun").unwrap(),
            Some(Command::FaultRun(FaultRunMode::Full))
        );
        assert_eq!(
            parse("faultrun quick").unwrap(),
            Some(Command::FaultRun(FaultRunMode::Quick))
        );
        assert_eq!(
            parse("faultrun sites").unwrap(),
            Some(Command::FaultRun(FaultRunMode::Sites))
        );
        assert_eq!(
            parse("faultrun repro churn:insert.published:3:1").unwrap(),
            Some(Command::FaultRun(FaultRunMode::Repro(
                "churn:insert.published:3:1".into()
            )))
        );
        assert!(parse("faultrun bogus").is_err());
        assert!(parse("faultrun repro").is_err());
    }

    #[test]
    fn parses_stats_modes() {
        assert_eq!(
            parse("stats delta").unwrap(),
            Some(Command::Stats(StatsMode::Delta))
        );
        assert_eq!(
            parse("stats reset").unwrap(),
            Some(Command::Stats(StatsMode::Reset))
        );
        assert!(parse("stats bogus").is_err());
        assert!(parse("stats delta extra").is_err());
    }

    #[test]
    fn parses_metrics_forms() {
        assert_eq!(
            parse("metrics").unwrap(),
            Some(Command::Metrics(MetricsMode::Show {
                format: MetricsFormat::Both,
                delta: false,
            }))
        );
        assert_eq!(
            parse("metrics json").unwrap(),
            Some(Command::Metrics(MetricsMode::Show {
                format: MetricsFormat::Json,
                delta: false,
            }))
        );
        assert_eq!(
            parse("metrics prom delta").unwrap(),
            Some(Command::Metrics(MetricsMode::Show {
                format: MetricsFormat::Prom,
                delta: true,
            }))
        );
        assert_eq!(
            parse("metrics delta json").unwrap(),
            Some(Command::Metrics(MetricsMode::Show {
                format: MetricsFormat::Json,
                delta: true,
            }))
        );
        assert_eq!(
            parse("metrics reset").unwrap(),
            Some(Command::Metrics(MetricsMode::Reset))
        );
        assert!(parse("metrics bogus").is_err());
        assert!(parse("metrics reset delta").is_err());
        assert!(parse("metrics json reset").is_err());
    }

    #[test]
    fn parses_flight_recorder_forms() {
        assert_eq!(parse("trace").unwrap(), Some(Command::Trace(TraceMode::Dump)));
        assert_eq!(
            parse("trace reset").unwrap(),
            Some(Command::Trace(TraceMode::Reset))
        );
        assert_eq!(
            parse("trace slow 250").unwrap(),
            Some(Command::Trace(TraceMode::Slow(250)))
        );
        assert_eq!(
            parse("trace slow 0").unwrap(),
            Some(Command::Trace(TraceMode::Slow(0)))
        );
        assert!(parse("trace slow").is_err());
        assert!(parse("trace bogus").is_err());
        assert!(parse("trace reset extra").is_err());
    }

    #[test]
    fn skips_blank_and_comments() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("   ").unwrap(), None);
        assert_eq!(parse("# a comment").unwrap(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("fill").is_err());
        assert!(parse("fill x").is_err());
        assert!(parse("crash 1 2").is_err());
        assert!(parse("workload z 10").is_err());
    }
}
