//! Pipelined multi-connection load generator for `hdnh-server`.
//!
//! Drives YCSB A/B/C (from `hdnh-ycsb`) over the RESP wire: each
//! connection runs its own deterministic op stream, sending `--pipeline`
//! requests per burst and timing every reply against the burst's send
//! instant (so the numbers include queueing inside the pipeline, which is
//! what a pipelining client actually experiences). Results land in
//! `BENCH_net.json`.
//!
//! ```text
//! netbench 127.0.0.1:6399 --conns 4 --pipeline 64 --ops 20000 \
//!     --preload 10000 --mixes a,b,c --out BENCH_net.json --shutdown
//! ```
//!
//! Beyond the closed-loop mixes, `--open-loop-rate R` adds an *open-loop*
//! phase: `--idle-conns N` connections park silently (they exercise the
//! reactor's idle bookkeeping, not the protocol) while `--hot-conns H`
//! connections send PINGs on a fixed arrival schedule for
//! `--open-loop-secs S` seconds. Latency is measured from the *scheduled*
//! send instant, not the actual write, so a stalled server shows up as
//! tail latency instead of being hidden by coordinated omission. Results
//! land in a top-level `open_loop` section of the JSON artifact.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdnh_obs::hist::{AtomicHistogram, HistSnapshot};
use hdnh_server::client::{Reply, RespClient};
use hdnh_ycsb::{generate_ops, Op, WorkloadSpec};

const OP_KINDS: [&str; 6] = ["read", "read_absent", "insert", "update", "rmw", "delete"];

fn kind_idx(kind: &str) -> usize {
    OP_KINDS.iter().position(|k| *k == kind).expect("known op kind")
}

struct Config {
    addr: String,
    conns: usize,
    pipeline: usize,
    ops: usize,
    preload: u64,
    mixes: Vec<String>,
    out: String,
    shutdown: bool,
    idle_conns: usize,
    hot_conns: usize,
    open_loop_rate: f64,
    open_loop_secs: f64,
    value_size: ValueSize,
    value_size_label: String,
}

/// Value-size distribution for SET payloads. The default (`legacy`)
/// writes the decimal id/sequence strings the u64 wire vocabulary always
/// used — every value stays inline. The other shapes exercise the value
/// log: anything past the table's inline budget spills.
#[derive(Clone, Copy, Debug)]
enum ValueSize {
    /// Decimal id strings (pre-variable-length behavior).
    Legacy,
    /// Every value exactly `n` bytes.
    Fixed(usize),
    /// Uniform in `[a, b]` bytes, deterministic per (id, seq).
    Uniform(usize, usize),
    /// Zipf-flavored mixture: 80% 8 B (inline), 15% 128 B, 4% 4 KiB,
    /// 1% 64 KiB — mostly-small with a heavy tail, like real caches.
    Mix,
}

fn parse_value_size(s: &str) -> Option<ValueSize> {
    if s == "legacy" {
        return Some(ValueSize::Legacy);
    }
    if s == "mix" {
        return Some(ValueSize::Mix);
    }
    if let Some(n) = s.strip_prefix("fixed=") {
        return n.parse().ok().map(ValueSize::Fixed);
    }
    if let Some(r) = s.strip_prefix("uniform=") {
        let (a, b) = r.split_once("..")?;
        let (a, b): (usize, usize) = (a.parse().ok()?, b.parse().ok()?);
        return (a <= b).then_some(ValueSize::Uniform(a, b));
    }
    None
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The SET payload for `(id, seq)` under `vs` — deterministic, so reruns
/// of the same config produce identical traffic.
fn set_value(vs: ValueSize, id: u64, seq: u64) -> Vec<u8> {
    let len = match vs {
        ValueSize::Legacy if seq == 0 => return id.to_string().into_bytes(),
        ValueSize::Legacy => return seq.to_string().into_bytes(),
        ValueSize::Fixed(n) => n,
        ValueSize::Uniform(a, b) => a + (splitmix64(id ^ seq.rotate_left(17)) as usize) % (b - a + 1),
        ValueSize::Mix => match splitmix64(id ^ seq.rotate_left(17)) % 100 {
            0..=79 => 8,
            80..=94 => 128,
            95..=98 => 4096,
            _ => 64 * 1024,
        },
    };
    vec![(splitmix64(id) as u8) ^ (seq as u8); len]
}

fn usage() -> ! {
    eprintln!(
        "usage: netbench <addr> [--conns N] [--pipeline N] [--ops N] [--preload N] \
         [--mixes a,b,c] [--out PATH] [--shutdown] \
         [--value-size legacy|fixed=N|uniform=A..B|mix] \
         [--open-loop-rate R --open-loop-secs S --idle-conns N --hot-conns N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else { usage() };
    if addr.starts_with("--") {
        usage();
    }
    let mut cfg = Config {
        addr,
        conns: 4,
        pipeline: 64,
        ops: 20_000,
        preload: 10_000,
        mixes: vec!["a".into(), "b".into(), "c".into()],
        out: "BENCH_net.json".into(),
        shutdown: false,
        idle_conns: 0,
        hot_conns: 4,
        open_loop_rate: 0.0,
        open_loop_secs: 10.0,
        value_size: ValueSize::Legacy,
        value_size_label: "legacy".into(),
    };
    while let Some(flag) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
        };
        let fnum = |args: &mut dyn Iterator<Item = String>| -> f64 {
            args.next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v > 0.0)
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--conns" => cfg.conns = num(&mut args).max(1) as usize,
            "--pipeline" => cfg.pipeline = num(&mut args).max(1) as usize,
            "--ops" => cfg.ops = num(&mut args).max(1) as usize,
            "--preload" => cfg.preload = num(&mut args).max(1),
            "--mixes" => {
                cfg.mixes = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--out" => cfg.out = args.next().unwrap_or_else(|| usage()),
            "--shutdown" => cfg.shutdown = true,
            "--value-size" => {
                let spec = args.next().unwrap_or_else(|| usage());
                cfg.value_size = parse_value_size(&spec).unwrap_or_else(|| usage());
                cfg.value_size_label = spec;
            }
            "--idle-conns" => cfg.idle_conns = num(&mut args) as usize,
            "--hot-conns" => cfg.hot_conns = num(&mut args).max(1) as usize,
            "--open-loop-rate" => cfg.open_loop_rate = fnum(&mut args),
            "--open-loop-secs" => cfg.open_loop_secs = fnum(&mut args),
            _ => usage(),
        }
    }
    cfg
}

fn spec_for(mix: &str) -> WorkloadSpec {
    match mix {
        "a" => WorkloadSpec::ycsb_a(),
        "b" => WorkloadSpec::ycsb_b(),
        "c" => WorkloadSpec::ycsb_c(),
        "f" => WorkloadSpec::ycsb_f(),
        other => {
            eprintln!("netbench: unknown mix '{other}' (expected a|b|c|f)");
            std::process::exit(2);
        }
    }
}

/// Connects with retry — the server may still be binding when CI launches
/// the bench. A connection still refused after the whole backoff window is
/// a hard error.
fn connect_retry(addr: &str) -> RespClient {
    match RespClient::connect_retry(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("netbench: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Preloads ids `0..n` through one pipelined connection.
fn preload(addr: &str, n: u64, pipeline: usize, vs: ValueSize) {
    let mut c = connect_retry(addr);
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let mut id = 0u64;
    while id < n {
        let burst = pipeline.min((n - id) as usize);
        for _ in 0..burst {
            let v = set_value(vs, id, 0);
            c.cmd(&[b"SET", id.to_string().as_bytes(), &v]);
            id += 1;
        }
        c.flush().expect("preload flush");
        for _ in 0..burst {
            let r = c.read_reply().expect("preload reply");
            assert!(r.is_ok(), "preload SET failed: {r:?}");
        }
    }
}

/// Turns one YCSB op into a queued RESP request, returning its kind index.
fn enqueue(c: &mut RespClient, op: &Op, vs: ValueSize) -> usize {
    match *op {
        Op::Read(id) => c.cmd(&[b"GET", id.to_string().as_bytes()]),
        // Negative reads probe far beyond any inserted id.
        Op::ReadAbsent(id) => c.cmd(&[b"GET", (u64::MAX / 2 + id).to_string().as_bytes()]),
        Op::Insert(id) => {
            let v = set_value(vs, id, 0);
            c.cmd(&[b"SET", id.to_string().as_bytes(), &v]);
        }
        Op::Update(id, seq) => {
            let v = set_value(vs, id, u64::from(seq) + 1);
            c.cmd(&[b"SET", id.to_string().as_bytes(), &v]);
        }
        Op::ReadModifyWrite(id, seq) => {
            // The read half happens server-side via GET pipelined just ahead.
            c.cmd(&[b"GET", id.to_string().as_bytes()]);
            let v = set_value(vs, id, u64::from(seq) + 1);
            c.cmd(&[b"SET", id.to_string().as_bytes(), &v]);
            return kind_idx("rmw");
        }
        Op::Delete(id) => c.cmd(&[b"DEL", id.to_string().as_bytes()]),
    }
    kind_idx(op.kind())
}

/// How many replies one op produces (RMW pipelines GET+SET).
fn replies_for(op: &Op) -> usize {
    match op {
        Op::ReadModifyWrite(..) => 2,
        _ => 1,
    }
}

struct MixStats {
    hists: [AtomicHistogram; 6],
    errors: AtomicU64,
    reconnects: AtomicU64,
}

fn run_conn(addr: &str, ops: &[Op], pipeline: usize, vs: ValueSize, stats: &MixStats) {
    let mut c = connect_retry(addr);
    c.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let mut i = 0usize;
    while i < ops.len() {
        let burst = &ops[i..(i + pipeline).min(ops.len())];
        let mut kinds = Vec::with_capacity(burst.len());
        for op in burst {
            kinds.push((enqueue(&mut c, op, vs), replies_for(op)));
        }
        if let Err(e) = c.flush() {
            eprintln!("netbench: flush failed ({e}); reconnecting");
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
            c = connect_retry(addr);
            continue; // replay the burst on the fresh connection
        }
        let sent = Instant::now();
        let mut failed = false;
        'burst: for &(kind, n_replies) in &kinds {
            for _ in 0..n_replies {
                match c.read_reply() {
                    Ok(Reply::Error(_)) => {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("netbench: read failed ({e}); reconnecting");
                        stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        c = connect_retry(addr);
                        failed = true;
                        break 'burst;
                    }
                }
            }
            stats.hists[kind].record(sent.elapsed().as_nanos() as u64);
        }
        if failed {
            continue; // replay the burst
        }
        i += burst.len();
    }
}

/// Sends one inline PING and waits for its reply line. Used to confirm a
/// parked connection is registered (and later, still alive).
fn ping_inline(s: &mut TcpStream) -> std::io::Result<bool> {
    s.write_all(b"PING\r\n")?;
    let mut buf = [0u8; 64];
    let mut got = Vec::new();
    while !got.ends_with(b"\r\n") {
        let n = s.read(&mut buf)?;
        if n == 0 {
            return Ok(false);
        }
        got.extend_from_slice(&buf[..n]);
    }
    Ok(got.starts_with(b"+PONG"))
}

struct OpenLoopReport {
    idle_conns: usize,
    hot_conns: usize,
    target_rate: f64,
    achieved_rate: f64,
    duration_s: f64,
    sent: u64,
    replies: u64,
    errors: u64,
    latency: HistSnapshot,
}

/// One hot connection: a writer paces PINGs on the arrival schedule while
/// a reader attributes each reply to its *scheduled* instant. The two
/// halves share the stream via `try_clone` and a channel of schedule
/// points; the channel closing is the reader's signal to drain and stop.
fn run_hot_conn(
    addr: &str,
    rate: f64,
    secs: f64,
    hist: &AtomicHistogram,
    sent: &AtomicU64,
    replies: &AtomicU64,
    errors: &AtomicU64,
) {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("netbench: hot connect failed: {e}");
            errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut wtr = stream.try_clone().expect("clone stream");
    let mut rdr = BufReader::new(stream);
    let (tx, rx) = std::sync::mpsc::channel::<Instant>();

    std::thread::scope(|s| {
        s.spawn(move || {
            let mut line = Vec::new();
            while let Ok(sched) = rx.recv() {
                line.clear();
                match rdr.read_until(b'\n', &mut line) {
                    Ok(0) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Ok(_) if line.first() == Some(&b'+') => {
                        hist.record(sched.elapsed().as_nanos() as u64);
                        replies.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) | Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        });

        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let mut k = 0u64;
        loop {
            let sched = t0 + Duration::from_secs_f64(k as f64 / rate);
            if sched >= deadline {
                break;
            }
            let now = Instant::now();
            if sched > now {
                std::thread::sleep(sched - now);
            }
            if wtr.write_all(b"PING\r\n").is_err() {
                errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            sent.fetch_add(1, Ordering::Relaxed);
            // The reader measures from `sched`, not from the write: if the
            // writer itself fell behind schedule (server pushed back), that
            // delay is part of what the client experienced.
            let _ = tx.send(sched);
            k += 1;
        }
        drop(tx);
    });
}

/// Open-loop overload phase: park `idle_conns` silent connections, then
/// drive `hot_conns` paced PING streams at `rate` requests/s total for
/// `secs`. Afterwards every parked connection is pinged once — an idle
/// connection dropped under load counts as an error.
fn run_open_loop(cfg: &Config) -> OpenLoopReport {
    eprintln!(
        "netbench: open-loop idle={} hot={} rate={}/s secs={}",
        cfg.idle_conns, cfg.hot_conns, cfg.open_loop_rate, cfg.open_loop_secs
    );
    let errors = AtomicU64::new(0);

    let mut parked: Vec<TcpStream> = Vec::with_capacity(cfg.idle_conns);
    for i in 0..cfg.idle_conns {
        match TcpStream::connect(&cfg.addr) {
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
                match ping_inline(&mut s) {
                    Ok(true) => parked.push(s),
                    r => {
                        eprintln!("netbench: idle conn {i} failed to register: {r:?}");
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) => {
                eprintln!("netbench: idle connect {i} failed: {e}");
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    eprintln!("netbench: parked {} idle connections", parked.len());

    let hist = AtomicHistogram::new();
    let sent = AtomicU64::new(0);
    let replies = AtomicU64::new(0);
    let per_conn_rate = cfg.open_loop_rate / cfg.hot_conns as f64;
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cfg.hot_conns {
            s.spawn(|| {
                run_hot_conn(
                    &cfg.addr,
                    per_conn_rate,
                    cfg.open_loop_secs,
                    &hist,
                    &sent,
                    &replies,
                    &errors,
                );
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    // The hot phase is over; the parked fleet must have survived it.
    for (i, s) in parked.iter_mut().enumerate() {
        if !matches!(ping_inline(s), Ok(true)) {
            eprintln!("netbench: idle conn {i} died during the hot phase");
            errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    let report = OpenLoopReport {
        idle_conns: cfg.idle_conns,
        hot_conns: cfg.hot_conns,
        target_rate: cfg.open_loop_rate,
        achieved_rate: replies.load(Ordering::Relaxed) as f64 / elapsed.max(1e-9),
        duration_s: elapsed,
        sent: sent.load(Ordering::Relaxed),
        replies: replies.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        latency: hist.snapshot(),
    };
    eprintln!(
        "netbench: open-loop sent={} replies={} errors={} achieved={:.0}/s p99={}ns p999={}ns",
        report.sent,
        report.replies,
        report.errors,
        report.achieved_rate,
        report.latency.quantile(0.99),
        report.latency.quantile(0.999),
    );
    report
}

fn main() {
    let cfg = parse_args();
    // Resolve early so a bad address fails fast with a clear message.
    if cfg.addr.to_socket_addrs().map(|mut a| a.next().is_none()).unwrap_or(true) {
        eprintln!("netbench: cannot resolve address '{}'", cfg.addr);
        std::process::exit(2);
    }

    eprintln!(
        "netbench: {} conns={} pipeline={} ops={} preload={} mixes={:?} value_size={}",
        cfg.addr, cfg.conns, cfg.pipeline, cfg.ops, cfg.preload, cfg.mixes, cfg.value_size_label
    );
    preload(&cfg.addr, cfg.preload, cfg.pipeline, cfg.value_size);
    eprintln!("netbench: preloaded {} records", cfg.preload);

    let mut mix_reports = Vec::new();
    let mut insert_base = cfg.preload;
    for (mix_idx, mix) in cfg.mixes.iter().enumerate() {
        let spec = spec_for(mix);
        let per_conn = cfg.ops / cfg.conns.max(1);
        let stats = Arc::new(MixStats {
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
            errors: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        });
        // Disjoint insert id ranges per connection (and per mix): a
        // generated Insert must never collide with a preloaded or
        // previously inserted id, or SET would just overwrite — fine for
        // the server but wrong for the op accounting.
        let streams: Vec<Vec<Op>> = (0..cfg.conns)
            .map(|ci| {
                let base = insert_base + (ci as u64) * (per_conn as u64);
                let seed = 0x9E37_79B9_7F4A_7C15 ^ ((mix_idx as u64) << 32) ^ ci as u64;
                generate_ops(&spec, cfg.preload, base, per_conn, seed)
            })
            .collect();
        insert_base += (cfg.conns as u64) * (per_conn as u64);

        let started = Instant::now();
        std::thread::scope(|s| {
            for ops in &streams {
                let stats = Arc::clone(&stats);
                let addr = cfg.addr.as_str();
                s.spawn(move || run_conn(addr, ops, cfg.pipeline, cfg.value_size, &stats));
            }
        });
        let elapsed = started.elapsed();
        let total_ops: usize = streams.iter().map(Vec::len).sum();
        let thr = total_ops as f64 / elapsed.as_secs_f64();
        let errors = stats.errors.load(Ordering::Relaxed);
        let reconnects = stats.reconnects.load(Ordering::Relaxed);
        eprintln!(
            "netbench: mix={mix} ops={total_ops} elapsed={:.2}s throughput={thr:.0} ops/s errors={errors} reconnects={reconnects}",
            elapsed.as_secs_f64()
        );

        mix_reports.push((mix, total_ops, elapsed.as_secs_f64(), stats));
    }

    // The overload phase runs after the closed-loop mixes so its parked
    // fleet does not compete with them for connection slots.
    let open_loop = (cfg.open_loop_rate > 0.0).then(|| run_open_loop(&cfg));

    let json = hdnh_obs::json::object(|w| {
        w.key("bench").str("net").key("config").object(|w| {
            w.key("addr").str(&cfg.addr).key("conns").u64(cfg.conns as u64);
            w.key("pipeline").u64(cfg.pipeline as u64).key("ops_per_mix").u64(cfg.ops as u64);
            w.key("preload").u64(cfg.preload).key("value_size").str(&cfg.value_size_label);
        });
        w.key("mixes").array(|w| {
            for (mix, ops, elapsed_s, stats) in &mix_reports {
                w.object(|w| {
                    w.key("mix").str(mix).key("ops").u64(*ops as u64);
                    w.key("elapsed_s").f64(*elapsed_s, 4);
                    w.key("throughput_ops_s").f64(*ops as f64 / elapsed_s, 1);
                    w.key("errors").u64(stats.errors.load(Ordering::Relaxed));
                    w.key("reconnects").u64(stats.reconnects.load(Ordering::Relaxed));
                    w.key("latency").object(|w| {
                        for (kind, h) in OP_KINDS.iter().zip(&stats.hists) {
                            let h = h.snapshot();
                            if h.count() > 0 {
                                w.key(kind).object(|w| h.write_summary(w));
                            }
                        }
                    });
                });
            }
        });
        if let Some(ol) = &open_loop {
            w.key("open_loop").object(|w| {
                w.key("idle_conns").u64(ol.idle_conns as u64);
                w.key("hot_conns").u64(ol.hot_conns as u64);
                w.key("target_rate_ops_s").f64(ol.target_rate, 1);
                w.key("achieved_rate_ops_s").f64(ol.achieved_rate, 1);
                w.key("duration_s").f64(ol.duration_s, 4).key("sent").u64(ol.sent);
                w.key("replies").u64(ol.replies).key("errors").u64(ol.errors);
                w.key("latency").object(|w| ol.latency.write_summary(w));
            });
        }
    });
    let mut f = std::fs::File::create(&cfg.out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output");
    f.write_all(b"\n").expect("write output");
    eprintln!("netbench: wrote {}", cfg.out);

    if cfg.shutdown {
        let mut c = connect_retry(&cfg.addr);
        match c.shutdown() {
            Ok(r) if r.is_ok() => eprintln!("netbench: server shutdown requested"),
            other => eprintln!("netbench: shutdown reply {other:?}"),
        }
    }
}
