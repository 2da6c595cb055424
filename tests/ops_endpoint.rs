//! End-to-end coverage of the HTTP ops plane: every route answers over a
//! real socket, `/readyz` follows the startup → ready → draining
//! lifecycle, and a forced resize under live RESP traffic shows up in the
//! `/trace` timeline as all three resize phases interleaved with slow-op
//! exemplars.
//!
//! The obs registry and flight recorder are process-global, so the tests
//! serialize on one mutex (same discipline as `metrics_accounting.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hdnh::{Hdnh, HdnhParams};
use hdnh_obs as obs;
use proptest::prelude::*;
use hdnh_server::{start_ops, start_with_state, OpsState, RespClient, ServerConfig};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimal HTTP/1.0 GET: returns (status code, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect ops port");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Whether `s` is exactly one well-formed JSON value (RFC 8259; numbers
/// are checked loosely). Strings must escape `"`, `\` and every control
/// character, which is what a hand-built document gets wrong.
fn is_json(s: &str) -> bool {
    decoded_strings(s).is_some()
}

/// Every string in `s` (member names and values, in document order),
/// decoded; `None` unless [`is_json`] holds. A surrogate escape decodes
/// as U+FFFD: the writer never emits one.
fn decoded_strings(s: &str) -> Option<Vec<String>> {
    let mut p = Parser { b: s.as_bytes(), i: 0, strings: Vec::new() };
    p.value()?;
    p.ws();
    (p.i == p.b.len()).then_some(p.strings)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    strings: Vec<String>,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| b" \t\r\n".contains(c)) {
            self.i += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Option<()> {
        self.ws();
        (self.b.get(self.i) == Some(&want)).then(|| self.i += 1)
    }

    fn string(&mut self) -> Option<()> {
        self.eat(b'"')?;
        // Bytes, not chars: escapes are ASCII, so every multi-byte UTF-8
        // sequence of the input is copied whole.
        let mut out = Vec::new();
        loop {
            let c = *self.b.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.b.get(self.i)?;
                    self.i += 1;
                    let decoded = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let h = self.b.get(self.i..self.i + 4)?;
                            if !h.iter().all(u8::is_ascii_hexdigit) {
                                return None;
                            }
                            self.i += 4;
                            let code = u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return None,
                    };
                    out.extend_from_slice(decoded.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c if c < 0x20 => return None,
                c => out.push(c),
            }
        }
        self.strings.push(String::from_utf8(out).ok()?);
        Some(())
    }

    // Elements up to `close`, comma-separated; the opener is consumed.
    fn seq(&mut self, close: u8, elem: fn(&mut Self) -> Option<()>) -> Option<()> {
        self.i += 1;
        if self.eat(close).is_some() {
            return Some(());
        }
        loop {
            elem(self)?;
            if self.eat(close).is_some() {
                return Some(());
            }
            self.eat(b',')?;
        }
    }

    fn member(&mut self) -> Option<()> {
        self.string()?;
        self.eat(b':')?;
        self.value()
    }

    fn value(&mut self) -> Option<()> {
        self.ws();
        let lit = |p: &mut Self, word: &[u8]| {
            p.b[p.i..].starts_with(word).then(|| p.i += word.len())
        };
        match *self.b.get(self.i)? {
            b'{' => self.seq(b'}', Self::member),
            b'[' => self.seq(b']', Self::value),
            b'"' => self.string(),
            b't' => lit(self, b"true"),
            b'f' => lit(self, b"false"),
            b'n' => lit(self, b"null"),
            c if c == b'-' || c.is_ascii_digit() => {
                while self.b.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                Some(())
            }
            _ => None,
        }
    }
}

/// One step of a random document: open an object or array, close the
/// innermost one, or write a scalar. Inside an object the step's key
/// names the member.
#[derive(Debug, Clone)]
enum Step {
    Object,
    Array,
    Close,
    Str(String),
    U64(u64),
    F64(f64, usize),
    Bool(bool),
    Null,
}

/// Writes `steps` as the members (`in_object`) or elements of the open
/// container until a `Close` or the end, pushing every string it writes
/// onto `strings` in document order.
fn emit(
    w: &mut obs::json::Writer,
    steps: &mut std::slice::Iter<(String, Step)>,
    in_object: bool,
    strings: &mut Vec<String>,
) {
    while let Some((key, step)) = steps.next() {
        if matches!(step, Step::Close) {
            return;
        }
        if in_object {
            strings.push(key.clone());
            w.key(key);
        }
        match step {
            Step::Object => w.object(|w| emit(w, steps, true, strings)),
            Step::Array => w.array(|w| emit(w, steps, false, strings)),
            Step::Str(s) => {
                strings.push(s.clone());
                w.str(s)
            }
            Step::U64(v) => w.u64(*v),
            Step::F64(v, decimals) => w.f64(*v, *decimals),
            Step::Bool(v) => w.bool(*v),
            Step::Null => w.null(),
            Step::Close => unreachable!("a close returns above"),
        };
    }
}

/// Strings over all of `char`, half of whose characters come from the
/// first 256 code points, where the quote, the backslash and every
/// control character live.
fn text() -> impl Strategy<Value = String> {
    let c = prop_oneof![
        (0u32..0x100).prop_map(|c| char::from_u32(c).unwrap()),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{d7ff}')),
    ];
    proptest::collection::vec(c, 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..4).prop_map(|i| [Step::Object, Step::Array, Step::Close, Step::Null][i].clone()),
        text().prop_map(Step::Str),
        any::<u64>().prop_map(Step::U64),
        (any::<u64>(), 0usize..8).prop_map(|(bits, d)| Step::F64(f64::from_bits(bits), d)),
        (0usize..4, 0usize..8).prop_map(|(i, d)| {
            Step::F64([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][i], d)
        }),
        any::<bool>().prop_map(Step::Bool),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// The JSON writer's round trip, with `is_json` as the oracle: every
    /// document it writes parses, and every string decodes to its input.
    #[test]
    fn every_written_document_parses_and_its_strings_round_trip(
        steps in proptest::collection::vec((text(), step()), 0..48),
    ) {
        let mut want = Vec::new();
        let doc = obs::json::object(|w| emit(w, &mut steps.iter(), true, &mut want));
        prop_assert!(is_json(&doc), "{doc}");
        prop_assert_eq!(decoded_strings(&doc), Some(want), "{}", doc);
    }
}

#[test]
fn json_checker_rejects_what_a_careless_emitter_writes() {
    assert!(is_json(
        r#"{"a":[1,-2.5e3,true,null],"b":{"c":"x\"\\\u0001"}}"#
    ));
    for bad in [
        "{\"a\":\"x\ny\"}",
        r#"{"a":"C:\pool"}"#,
        r#"{"a":1,}"#,
        r#"{"a" 1}"#,
        "[1] 2",
    ] {
        assert!(!is_json(bad), "{bad}");
    }
}

#[test]
fn ops_routes_answer_and_readyz_tracks_lifecycle() {
    let _g = lock();
    obs::reset();
    obs::trace::reset();
    obs::set_enabled(true);

    // Ops listener first, before any table exists — exactly the serve
    // startup order, so probes during "recovery" see 503.
    let state = OpsState::new();
    let ops = start_ops("127.0.0.1:0", Arc::clone(&state)).expect("bind ops");
    let ops_addr = ops.local_addr().to_string();

    let (st, body) = http_get(&ops_addr, "/readyz");
    assert_eq!(st, 503, "not ready before the table is open: {body}");
    assert!(body.contains("starting"), "reason names the state: {body}");
    assert_eq!(http_get(&ops_addr, "/healthz").0, 200, "alive while starting");
    let (_, varz) = http_get(&ops_addr, "/varz");
    assert!(
        varz.contains("\"not_ready_reason\":\"starting"),
        "varz reason: {varz}"
    );
    assert!(is_json(&varz), "varz while starting is not JSON: {varz}");

    // Table opens, data path comes up, readiness flips true.
    let table = Arc::new(Hdnh::new(HdnhParams::for_capacity(4_000)));
    state.set_table(&table);
    let handle = start_with_state(
        table,
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&state),
    )
    .expect("bind data port");
    state.set_ready();

    let (st, body) = http_get(&ops_addr, "/readyz");
    assert_eq!(st, 200, "ready after startup: {body}");

    // Generate some traffic so /metrics and /varz carry real numbers.
    let mut c = RespClient::connect(handle.local_addr().to_string()).expect("connect");
    for i in 0..50u64 {
        assert_eq!(c.set(i, i).unwrap(), Ok(()));
    }
    assert_eq!(c.get(7).unwrap(), Some(7));

    let (st, metrics) = http_get(&ops_addr, "/metrics");
    assert_eq!(st, 200);
    assert!(metrics.contains("# TYPE hdnh_net_cmd_latency_hist_ns histogram"));
    assert!(metrics.contains("hdnh_events_total{"), "counters exported");

    let (st, varz) = http_get(&ops_addr, "/varz");
    assert_eq!(st, 200);
    assert!(varz.contains("\"ready\":true"), "varz readiness: {varz}");
    assert!(varz.contains("\"backend\":\"heap\""), "varz backend: {varz}");
    assert!(varz.contains("\"records\":50"), "varz table stats: {varz}");
    assert!(varz.contains("\"metrics\":{"), "varz embeds the registry");
    assert!(is_json(&varz), "varz is not JSON: {varz}");

    let (st, trace) = http_get(&ops_addr, "/trace");
    assert_eq!(st, 200);
    assert!(trace.starts_with("{\"anchor_unix_ns\":"), "trace shape: {trace}");
    assert!(trace.contains("\"what\":\"ready\""), "ready milestone: {trace}");

    assert_eq!(http_get(&ops_addr, "/nope").0, 404);

    // INFO carries the same identity and readiness fields in-band.
    let info = match c.call(&[b"INFO"]).unwrap() {
        hdnh_server::Reply::Bulk(b) => String::from_utf8(b).unwrap(),
        other => panic!("INFO reply: {other:?}"),
    };
    for field in [
        "version:",
        "git_sha:",
        "uptime_seconds:",
        "backend:heap",
        "ready:1",
        "draining:0",
    ] {
        assert!(info.contains(field), "INFO missing {field}: {info}");
    }
    drop(c);

    // Drain begins: readyz flips false immediately, healthz stays true.
    handle.shutdown();
    let (st, body) = http_get(&ops_addr, "/readyz");
    assert_eq!(st, 503, "draining must fail readiness: {body}");
    assert!(body.contains("draining"), "reason names the drain: {body}");
    assert_eq!(http_get(&ops_addr, "/healthz").0, 200, "alive while draining");
    let (_, varz) = http_get(&ops_addr, "/varz");
    assert!(is_json(&varz), "varz while draining is not JSON: {varz}");
    let (_, trace) = http_get(&ops_addr, "/trace");
    assert!(trace.contains("\"kind\":\"drain_begin\""), "drain event: {trace}");
    handle.join();
    ops.stop();
    obs::set_enabled(false);
    obs::trace::reset();
}

#[test]
fn forced_resize_under_live_traffic_lands_in_the_timeline() {
    let _g = lock();
    obs::reset();
    obs::trace::reset();
    obs::set_enabled(true);
    // A 1 ns threshold: every op/command is a slow exemplar, guaranteeing
    // the timeline interleaves slow-op events with the resize phases.
    obs::trace::set_slow_threshold_ns(1);

    let state = OpsState::new();
    let ops = start_ops("127.0.0.1:0", Arc::clone(&state)).expect("bind ops");
    // Undersized on purpose: the SET stream below must outgrow it.
    let table = Arc::new(Hdnh::new(HdnhParams::for_capacity(128)));
    state.set_table(&table);
    let handle = start_with_state(
        Arc::clone(&table),
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::clone(&state),
    )
    .expect("bind data port");
    state.set_ready();

    let mut c = RespClient::connect(handle.local_addr().to_string()).expect("connect");
    for i in 0..2_000u64 {
        assert_eq!(c.set(i, i * 3).unwrap(), Ok(()), "set {i}");
    }
    assert!(table.resize_count() >= 1, "load must have forced a resize");
    drop(c);

    let (st, trace) = http_get(&ops.local_addr().to_string(), "/trace");
    assert_eq!(st, 200);
    for phase in ["resize_allocate", "resize_rehash", "resize_swap"] {
        assert!(
            trace.contains(&format!("\"kind\":\"phase_enter\",\"what\":\"{phase}\"")),
            "timeline missing enter of {phase}"
        );
        assert!(
            trace.contains(&format!("\"kind\":\"phase_exit\",\"what\":\"{phase}\"")),
            "timeline missing exit of {phase}"
        );
    }
    assert!(
        trace.contains("\"kind\":\"slow_cmd\""),
        "timeline must carry slow command exemplars"
    );

    // The same facts, structurally: the resize phases and slow exemplars
    // interleave in one monotonic timeline.
    let events = obs::trace::drain();
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    let slow = events
        .iter()
        .filter(|e| matches!(e.kind, obs::trace::EventKind::SlowCmd | obs::trace::EventKind::SlowOp))
        .count();
    assert!(slow >= 1, "at least one slow exemplar recorded");
    // Slowlog counters moved with the exemplars.
    assert!(obs::snapshot().total_slowlog() >= 1);

    obs::trace::set_slow_threshold_ns(0);
    handle.shutdown_and_join();
    ops.stop();
    obs::set_enabled(false);
    obs::trace::reset();
    obs::reset();
}
