//! What the tests that drive the real `hdnh-cli` binary share: spawn
//! `serve` and learn its ports, connect over RESP, drive YCSB over the
//! wire the way `netbench` does, pipe a script into the shell, and probe
//! the ops plane.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

pub mod http;

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::Duration;

use hdnh_common::rng::mix64;
use hdnh_server::client::op_requests;
use hdnh_server::{Reply, RespClient};
use hdnh_ycsb::{generate_ops, WorkloadSpec};

/// A running `hdnh-cli serve` and what its banners said.
pub struct Server {
    pub child: Child,
    /// The bound RESP address.
    pub addr: String,
    /// The bound ops-plane address, when `--ops-addr` was given.
    pub ops_addr: Option<String>,
    /// Whatever the server prints after its listening banner.
    pub stdout: BufReader<ChildStdout>,
}

impl Server {
    /// SIGKILLs the server and reaps it.
    pub fn kill9(mut self) {
        self.child.kill().expect("SIGKILL the server");
        self.child.wait().expect("reap killed server");
    }

    /// Waits for the server to exit by itself; returns whether it exited 0
    /// and the rest of its stdout.
    pub fn wait_exit(mut self) -> (bool, String) {
        let status = self.child.wait().expect("wait for server exit");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("drain server stdout");
        (status.success(), rest)
    }
}

/// A failed test must not leave its server running: an orphan holds the
/// test's output pipes open, and the run never finishes.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `hdnh-cli serve 127.0.0.1:0 <args>` and waits for the listening
/// banner to learn the bound port (and the ops banner, printed before it,
/// for the ops port).
pub fn spawn_serve(args: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdnh-cli"))
        .args(["serve", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn hdnh-cli serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (mut addr, mut ops_addr) = (None, None);
    let mut line = String::new();
    while stdout.read_line(&mut line).expect("read server stdout") > 0 {
        if let Some(rest) = line.trim().strip_prefix("hdnh-ops listening on ") {
            ops_addr = Some(rest.to_string());
        } else if let Some(rest) = line.trim().strip_prefix("hdnh-server listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("server exited without printing the listening banner");
    });
    Server {
        child,
        addr,
        ops_addr,
        stdout,
    }
}

pub fn connect(addr: &str) -> RespClient {
    let c = RespClient::connect_retry(addr, Duration::from_secs(10)).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    c
}

/// A fresh, not yet existing pool directory under the temp dir.
pub fn tmp_pool(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hdnh-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pipes `script` into `hdnh-cli <args>`, which makes it a batch run;
/// returns the exit code and stdout.
pub fn batch(args: &[&str], script: &str) -> (Option<i32>, String) {
    let out = batch_output(args, script, Stdio::inherit());
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// [`batch`]'s run, with the binary's stderr going to `stderr`.
pub fn batch_output(args: &[&str], script: &str, stderr: Stdio) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hdnh-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn hdnh-cli");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    child.wait_with_output().expect("hdnh-cli runs to the end")
}

/// The number after the first `"key":` in `json`.
pub fn number(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let end = json[at..].find([',', '}']).map_or(json.len(), |e| at + e);
    json[at..end]
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e} in {json}"))
}

/// The count on the shell's `info` line `records      N`.
pub fn records(shell_out: &str) -> u64 {
    shell_out
        .lines()
        .find_map(|l| l.strip_prefix("records "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no records line in {shell_out}"))
}

/// The SET payload for `(id, seq)`: a function of the two, so a rerun
/// sends identical traffic. `seq` 0 is the preload's write.
pub type ValueFn = fn(u64, u64) -> Vec<u8>;

/// netbench's default values: the decimal id, then the sequence number.
pub fn decimal_value(id: u64, seq: u64) -> Vec<u8> {
    if seq == 0 { id } else { seq }.to_string().into_bytes()
}

/// netbench's `--value-size mix`: 80 % 8 B (inline), 15 % 128 B, 4 %
/// 4 KiB and 1 % 64 KiB, so the long tail spills to the value log.
pub fn mix_value(id: u64, seq: u64) -> Vec<u8> {
    let len = match mix64(id ^ seq.rotate_left(17)) % 100 {
        0..=79 => 8,
        80..=94 => 128,
        95..=98 => 4096,
        _ => 64 * 1024,
    };
    vec![(mix64(id) as u8) ^ (seq as u8); len]
}

/// Sends `cmds` pipelined in bursts of `pipeline` and reads every reply;
/// an error reply or a broken connection fails the test.
fn pipelined(c: &mut RespClient, cmds: &[Vec<Vec<u8>>], pipeline: usize) {
    for burst in cmds.chunks(pipeline) {
        for args in burst {
            let args: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
            c.cmd(&args);
        }
        c.flush().expect("send a burst");
        for args in burst {
            if let Reply::Error(e) = c.read_reply().expect("read a reply") {
                panic!("{} failed: {e}", String::from_utf8_lossy(&args[0]));
            }
        }
    }
}

/// SETs ids `0..n` through one pipelined connection.
pub fn preload(addr: &str, n: u64, pipeline: usize, value: ValueFn) {
    let cmds: Vec<_> = (0..n)
        .map(|id| vec![b"SET".to_vec(), id.to_string().into_bytes(), value(id, 0)])
        .collect();
    pipelined(&mut connect(addr), &cmds, pipeline);
}

/// Runs `ops` YCSB operations of `spec` against ids `0..preloaded`, split
/// over `conns` connections that each pipeline `pipeline` requests, as
/// netbench does. Every reply must succeed and no connection may break.
pub fn run_ycsb(
    addr: &str,
    spec: &WorkloadSpec,
    preloaded: u64,
    ops: usize,
    conns: usize,
    pipeline: usize,
    value: ValueFn,
) {
    let per_conn = ops / conns;
    std::thread::scope(|s| {
        for ci in 0..conns {
            s.spawn(move || {
                // Disjoint insert ranges per connection, past the preload.
                let base = preloaded + (ci * per_conn) as u64;
                let seed = 0x9E37_79B9_7F4A_7C15 ^ ci as u64;
                let mut cmds = Vec::new();
                for op in generate_ops(spec, preloaded, base, per_conn, seed) {
                    op_requests(&op, value, |args| {
                        cmds.push(args.iter().map(|a| a.to_vec()).collect());
                    });
                }
                pipelined(&mut connect(addr), &cmds, pipeline);
            });
        }
    });
}
