//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark run <workload> [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark aa [--runs N] [--seconds S]
//! benchmark spec
//! ```
//!
//! `run` executes one workload in this process (the epoch, obs and fault
//! registries are process-global, so one process runs one workload),
//! prints a line describing the run, and prints the result as the last
//! line of standard output. It exits 1 when any reply was wrong.

use std::process::ExitCode;

use hdnh_benchmark::workload::Which;
use hdnh_benchmark::{aa, alloc, run, spec};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark run <workload> [--seed N] [--seconds S] [--trace [0|1]]
  benchmark aa [--runs N] [--seconds S]
  benchmark spec
workloads: kv-read-skew kv-read-uniform kv-write-grow net-mixed";

/// `--flag value` pairs and bare words, in order.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = args.next_if(|next| !next.starts_with("--"));
                    cli.flags.push((flag.to_string(), value));
                }
                None => cli.words.push(arg),
            }
        }
        cli
    }

    fn flag(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(f, _)| f == name).map(|(_, v)| v)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(Some(text)) => text
                .parse()
                .map_err(|_| format!("--{name}: bad value {text:?}")),
            Some(None) => Err(format!("--{name} needs a value")),
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let cli = Cli::parse(std::env::args().skip(1));
    let known = ["workload", "seed", "seconds", "trace", "runs"];
    if let Some((flag, _)) = cli.flags.iter().find(|(f, _)| !known.contains(&f.as_str())) {
        return Err(format!("unknown flag --{flag}"));
    }
    let seconds: f64 = cli.number("seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    match cli.words.first().map(String::as_str) {
        Some("run") => {
            let name = match (cli.flag("workload"), cli.words.get(1)) {
                (Some(Some(name)), None) | (None, Some(name)) => name,
                _ => return Err("name one workload".to_string()),
            };
            let which = Which::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            let trace = match cli.flag("trace") {
                None => false,
                Some(None) => true,
                Some(Some(v)) => match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: bad value {v:?}")),
                },
            };
            let args = run::Args {
                which,
                seed: cli.number("seed", 1)?,
                seconds,
                trace,
            };
            let outcome = run::run(&args);
            println!("{}", outcome.details.line());
            println!("{}", run::result_line(&outcome, trace));
            Ok(if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("aa") => aa::run(cli.number("runs", 5)?, seconds),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("name a command".to_string()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}
