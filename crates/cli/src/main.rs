//! `hdnh-cli` — interactive/scriptable shell for an HDNH table.
//!
//! ```text
//! hdnh-cli [--strict] [--latency] [--capacity N] [--pool DIR] [--sync-policy async|sync]
//! hdnh-cli serve <addr> [--threads N] [--max-conns N] [--capacity N] [--fill N] [--pool DIR]
//!                       [--sync-policy async|sync] [--ops-addr ADDR] [--slow-us N]
//! ```
//!
//! Without a subcommand, reads shell commands from stdin (one per line;
//! `help` lists them). Suitable both interactively and piped:
//! `printf 'fill 1000\ninfo\n' | hdnh-cli`.
//!
//! `serve` runs the RESP network front-end from `hdnh-server` over a fresh
//! table until `SHUTDOWN` or SIGTERM/SIGINT, then drains and exits 0.
//!
//! `--pool DIR` swaps the heap simulator for the mmap-backed pool-file
//! backend: the table lives in `DIR` and survives process restarts,
//! including `kill -9`. A `quit` (shell) or drained signal (serve) marks
//! the pool clean; anything else leaves it dirty and the next open runs
//! recovery.
//!
//! Exit status: 0 when every command succeeded; 1 when any command reported
//! a failure (`verify` violation, `scrub` detection, failing `faultrun`
//! case, i/o error, a RESP error reply, an unknown command) or — when
//! stdin is not a terminal — any line failed to parse; 2 for bad flags.

use std::io::{BufRead, IsTerminal, Write};

use hdnh_cli::{open_table, parse, Engine, EngineConfig};

fn main() {
    let mut config = EngineConfig::default();
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        serve_main(args);
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => config.strict = true,
            "--latency" => config.latency = true,
            flag if table_flag(flag, &mut args, &mut config) => {}
            "--help" | "-h" => {
                println!("hdnh-cli [--strict] [--latency] [--capacity N] [--pool DIR] [--sync-policy async|sync]");
                println!("hdnh-cli serve <addr> [--threads N] [--max-conns N] [--capacity N] [--fill N] [--pool DIR] [--sync-policy async|sync] [--ops-addr ADDR] [--slow-us N]");
                println!("{}", hdnh_cli::command::HELP);
                return;
            }
            other => {
                eprintln!("unknown flag '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    let mut engine = Engine::try_new(config).unwrap_or_else(|e| {
        eprintln!("cannot start: {e}");
        std::process::exit(1);
    });
    if let Some(banner) = engine.open_banner() {
        println!("{banner}");
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let interactive = atty_stdin();
    if interactive {
        println!("hdnh-cli — type 'help' for commands");
    }
    let mut failed = false;
    loop {
        if interactive {
            print!("> ");
            let _ = stdout.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                failed = true;
                break;
            }
        }
        match parse(&line) {
            Ok(None) => {}
            Ok(Some(cmd)) => match engine.execute(cmd) {
                hdnh_cli::engine::Outcome::Text(text) => println!("{text}"),
                hdnh_cli::engine::Outcome::Failure(text) => {
                    println!("{text}");
                    failed = true;
                }
                hdnh_cli::engine::Outcome::Quit => break,
            },
            Err(e) => {
                println!("parse error: {e}");
                // A typo at the prompt shouldn't poison the session's exit
                // status, but a bad line in a script must fail CI.
                if !interactive {
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Applies one of the table flags the shell and `serve` share to `config`:
/// `--capacity N`, `--pool DIR`, and `--sync-policy async|sync` (`sync`
/// blocks every write ack on `msync(MS_SYNC)` — the only power-loss-safe
/// setting; `async`, the default, acks after a non-blocking `MS_ASYNC` and
/// can lose acked writes if power fails before writeback). Returns `false`
/// when `flag` is none of them.
fn table_flag(
    flag: &str,
    args: &mut dyn Iterator<Item = String>,
    config: &mut EngineConfig,
) -> bool {
    match flag {
        "--capacity" => {
            config.capacity = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--capacity needs an integer");
                std::process::exit(2);
            })
        }
        "--pool" => {
            config.pool = Some(args.next().unwrap_or_else(|| {
                eprintln!("--pool needs a directory path");
                std::process::exit(2);
            }))
        }
        "--sync-policy" => {
            config.sync_policy = match args.next().as_deref() {
                Some("async") => hdnh_nvm::SyncPolicy::Async,
                Some("sync") => hdnh_nvm::SyncPolicy::Sync,
                _ => {
                    eprintln!("--sync-policy takes 'async' or 'sync'");
                    std::process::exit(2);
                }
            }
        }
        _ => return false,
    }
    true
}

/// Whether stdin is a terminal: prompts and forgiven parse errors are for
/// a person typing; a piped script is batch mode.
fn atty_stdin() -> bool {
    std::io::stdin().is_terminal()
}

/// `serve <addr> [--threads N] [--max-conns N] [--capacity N] [--fill N]
/// [--pool DIR] [--ops-addr ADDR] [--slow-us N]` — RESP front-end; blocks
/// until drain, then exits 0. With `--pool` the table is file-backed: the
/// pool is opened (running recovery if the last run died) and marked clean
/// after the drain. With `--ops-addr` an HTTP ops listener comes up
/// *before* the pool opens, so `/healthz` answers and `/readyz` reports
/// 503 throughout recovery. `--slow-us` arms the slow-op log: any table op
/// or network command taking at least that many microseconds leaves an
/// exemplar in the flight recorder (`/trace`) and bumps the slowlog
/// counters. `HDNH_NO_OBS=1` disables the whole observability layer (the
/// CI overhead job compares against this).
fn serve_main(mut args: impl Iterator<Item = String>) -> ! {
    const USAGE: &str = "usage: hdnh-cli serve <addr> [--threads N] [--max-conns N] [--capacity N] [--fill N] [--pool DIR] [--sync-policy async|sync] [--ops-addr ADDR] [--slow-us N]";
    let Some(addr) = args.next().filter(|a| !a.starts_with("--")) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut server_cfg = hdnh_server::ServerConfig::builder();
    // The shell's configuration with the server's own default capacity.
    let mut config = EngineConfig {
        capacity: 100_000,
        ..EngineConfig::default()
    };
    let mut fill = 0u64;
    let mut ops_addr: Option<String> = None;
    let mut slow_us = 0u64;
    while let Some(flag) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>, what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs an integer");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--threads" => {
                server_cfg = server_cfg.threads(val(&mut args, "--threads") as usize);
            }
            "--max-conns" => {
                server_cfg = server_cfg.max_conns(val(&mut args, "--max-conns") as usize);
            }
            "--fill" => fill = val(&mut args, "--fill"),
            "--ops-addr" => {
                ops_addr = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--ops-addr needs an address (host:port)");
                    std::process::exit(2);
                }));
            }
            "--slow-us" => slow_us = val(&mut args, "--slow-us"),
            flag if table_flag(flag, &mut args, &mut config) => {}
            other => {
                eprintln!("unknown serve flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    // Validate the server knobs before doing any expensive table work so
    // `--threads 0` fails in microseconds, not after a pool recovery.
    let cfg = server_cfg.build().unwrap_or_else(|e| {
        eprintln!("bad server configuration: {e}");
        std::process::exit(2);
    });
    // HDNH_NO_OBS=1 keeps the whole observability layer off (counters,
    // histograms, flight recorder) so its overhead can be measured.
    let obs_on = std::env::var("HDNH_NO_OBS").is_err();
    hdnh_obs::set_enabled(obs_on);
    if obs_on && slow_us > 0 {
        hdnh_obs::trace::set_slow_threshold_ns(slow_us.saturating_mul(1_000));
    }
    // Ops plane first: during a long pool recovery, probes already get
    // `/healthz` 200 and `/readyz` 503 ("starting") instead of a refused
    // connection.
    let state = hdnh_server::OpsState::new();
    let ops_handle = ops_addr.map(|a| match hdnh_server::start_ops(a.as_str(), std::sync::Arc::clone(&state)) {
        Ok(h) => {
            println!("hdnh-ops listening on {}", h.local_addr());
            h
        }
        Err(e) => {
            eprintln!("cannot bind ops address {a}: {e}");
            std::process::exit(1);
        }
    });
    let (_, table, banner) = open_table(&config).unwrap_or_else(|e| {
        eprintln!("cannot start: {e}");
        std::process::exit(1);
    });
    if let Some(banner) = banner {
        println!("{banner}");
    }
    let table = std::sync::Arc::new(table);
    let pooled = config.pool.is_some();
    if let Err((id, e)) = hdnh_cli::fill(&table, 0..fill) {
        eprintln!("prefill failed at id {id}: {e}");
        std::process::exit(1);
    }
    state.set_table(&table);
    match hdnh_server::start_with_state(
        std::sync::Arc::clone(&table),
        addr.as_str(),
        cfg,
        std::sync::Arc::clone(&state),
    ) {
        Ok(handle) => {
            state.set_ready();
            // The bench/CI side greps for this line to learn the bound port.
            println!("hdnh-server listening on {}", handle.local_addr());
            let _ = std::io::stdout().flush();
            hdnh_server::serve_until_signal(handle);
            // Keep the ops plane up briefly after the drain so external
            // probes reliably observe `/readyz` flipping to "draining"
            // before the process disappears.
            if let Some(ops) = ops_handle {
                std::thread::sleep(std::time::Duration::from_millis(750));
                ops.stop();
            }
            if pooled {
                // All workers have joined; ours is the last table handle.
                // Marking the pool clean lets the next open skip recovery.
                match std::sync::Arc::try_unwrap(table) {
                    Ok(t) => {
                        if let Err(e) = t.close_pool() {
                            eprintln!("pool close failed: {e}");
                            std::process::exit(1);
                        }
                        println!("pool marked clean");
                    }
                    Err(_) => {
                        eprintln!("pool close failed: table still shared after drain");
                        std::process::exit(1);
                    }
                }
            }
            println!("hdnh-server drained, exiting");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
