//! Command grammar and parser.

use std::fmt;

/// One shell command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `insert <key> <value>` — insert a new record; the value token's
    /// bytes are the value, as with RESP `SET`.
    Insert(u64, String),
    /// `get <key>` — point lookup.
    Get(u64),
    /// `exists <key>` — membership probe (no value printed).
    Exists(u64),
    /// `mget <key> <key> ...` — batched point lookups in argument order.
    MGet(Vec<u64>),
    /// `update <key> <value>` — replace an existing record's value.
    Update(u64, String),
    /// `delete <key>` — remove a record.
    Delete(u64),
    /// `fill <n>` — bulk-insert ids `0..n` from the key space.
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
    /// `compact` — evacuate and retire garbage-carrying value-log segments.
    Compact,
    /// `crash <seed>` — simulate power failure + recovery (strict mode).
    Crash(u64),
    /// `faultrun [...]` — crash-point injection matrix (see [`FaultRunMode`]).
    FaultRun(FaultRunMode),
    /// `backup <dir>` — crash-consistent snapshot of a pool-backed table.
    Backup(String),
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

fn value(tok: Option<&str>) -> Result<String, ParseError> {
    tok.map(str::to_string).ok_or_else(|| ParseError("missing value".into()))
}

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
        "insert" | "put" => Command::Insert(int(toks.next(), "key")?, value(toks.next())?),
        "get" | "read" => Command::Get(int(toks.next(), "key")?),
        "exists" => Command::Exists(int(toks.next(), "key")?),
        "mget" => {
            let mut keys = Vec::new();
            for tok in toks.by_ref() {
                keys.push(int(Some(tok), "key")?);
            }
            if keys.is_empty() {
                return Err(ParseError("mget needs at least one key".into()));
            }
            Command::MGet(keys)
        }
        "update" | "set" => Command::Update(int(toks.next(), "key")?, value(toks.next())?),
        "delete" | "del" | "remove" => Command::Delete(int(toks.next(), "key")?),
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
        "compact" | "gc" => Command::Compact,
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
        "backup" => Command::Backup(
            toks.next()
                .ok_or_else(|| ParseError("missing snapshot directory".into()))?
                .to_string(),
        ),
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
        other => return Err(ParseError(format!("unknown command '{other}' (try 'help')"))),
    };
    if let Some(extra) = toks.next() {
        return Err(ParseError(format!("unexpected trailing argument '{extra}'")));
    }
    Ok(Some(parsed))
}

/// The help text shown by `help`.
pub const HELP: &str = "\
commands:
  insert <key> <value>    insert a new record: a u64 key, and a value token
                          stored as its bytes, exactly as RESP SET would
  get <key>               point lookup; prints what RESP GET would return
  exists <key>            membership probe (prints 1 or 0)
  mget <key> <key> ...    batched point lookups in argument order
  update <key> <value>    replace an existing record's value
  delete <key>            remove a record
  fill <n>                bulk-insert generator ids 0..n (the YCSB generator's
                          own 16-byte keys and 15-byte values; fill and
                          workload never touch a key get can name)
  workload <a|b|c|f> <n>  run n ops of a YCSB mix over the filled ids
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
  compact                 evacuate and retire garbage-carrying value-log
                          segments (readers never block)
  crash <seed>            simulate power failure + recovery (strict mode)
  faultrun [mode]         crash-point injection matrix; modes: full (default),
                          quick, sites, repro <[pool:]mix:site:hit:seed[:rsite:rhit]>
  backup <dir>            crash-consistent snapshot (pool-backed tables only)
  restore <snap> <dest>   verify a snapshot's manifest, copy it into a fresh
                          pool directory and open it there
  help                    this text
  quit                    exit";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_crud() {
        assert_eq!(parse("insert 1 2").unwrap(), Some(Command::Insert(1, "2".into())));
        assert_eq!(parse("put 1 hello").unwrap(), Some(Command::Insert(1, "hello".into())));
        assert_eq!(parse("get 7").unwrap(), Some(Command::Get(7)));
        assert_eq!(parse("UPDATE 3 4").unwrap(), Some(Command::Update(3, "4".into())));
        assert_eq!(parse("del 9").unwrap(), Some(Command::Delete(9)));
    }

    #[test]
    fn parses_exists_and_mget() {
        assert_eq!(parse("exists 5").unwrap(), Some(Command::Exists(5)));
        assert_eq!(parse("EXISTS 0").unwrap(), Some(Command::Exists(0)));
        assert!(parse("exists").is_err());
        assert!(parse("exists 1 2").is_err());
        assert!(parse("exists x").is_err());
        assert_eq!(parse("mget 1").unwrap(), Some(Command::MGet(vec![1])));
        assert_eq!(
            parse("mget 3 1 4 1 5").unwrap(),
            Some(Command::MGet(vec![3, 1, 4, 1, 5]))
        );
        assert!(parse("mget").is_err());
        assert!(parse("mget 1 two 3").is_err());
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
        assert_eq!(parse("compact").unwrap(), Some(Command::Compact));
        assert_eq!(parse("GC").unwrap(), Some(Command::Compact));
        assert!(parse("compact now").is_err());
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
        assert!(parse("frobnicate").is_err());
        assert!(parse("insert").is_err());
        assert!(parse("insert 1").is_err());
        assert!(parse("insert x y").is_err());
        assert!(parse("get 1 2").is_err());
        assert!(parse("workload z 10").is_err());
        assert_eq!(
            parse("record x a 5"),
            Err(ParseError("unknown command 'record' (try 'help')".into()))
        );
    }
}
