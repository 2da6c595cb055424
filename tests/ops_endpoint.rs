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
    fn ws(b: &[u8], i: &mut usize) {
        while b.get(*i).is_some_and(|c| b" \t\r\n".contains(c)) {
            *i += 1;
        }
    }
    fn eat(b: &[u8], i: &mut usize, want: u8) -> bool {
        ws(b, i);
        let hit = b.get(*i) == Some(&want);
        *i += hit as usize;
        hit
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if !eat(b, i, b'"') {
            return false;
        }
        loop {
            let Some(&c) = b.get(*i) else { return false };
            *i += 1;
            match c {
                b'"' => return true,
                b'\\' => match b.get(*i) {
                    Some(b'u')
                        if b.get(*i + 1..*i + 5)
                            .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
                    {
                        *i += 5
                    }
                    Some(e) if b"\"\\/bfnrt".contains(e) => *i += 1,
                    _ => return false,
                },
                c if c < 0x20 => return false,
                _ => {}
            }
        }
    }
    // Elements up to `close`, comma-separated; the opener is consumed.
    fn seq(b: &[u8], i: &mut usize, close: u8, elem: fn(&[u8], &mut usize) -> bool) -> bool {
        *i += 1;
        if eat(b, i, close) {
            return true;
        }
        loop {
            if !elem(b, i) {
                return false;
            }
            if eat(b, i, close) {
                return true;
            }
            if !eat(b, i, b',') {
                return false;
            }
        }
    }
    fn member(b: &[u8], i: &mut usize) -> bool {
        string(b, i) && eat(b, i, b':') && value(b, i)
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        let lit = |i: &mut usize, word: &[u8]| {
            let hit = b[*i..].starts_with(word);
            *i += if hit { word.len() } else { 0 };
            hit
        };
        match b.get(*i) {
            Some(b'{') => seq(b, i, b'}', member),
            Some(b'[') => seq(b, i, b']', value),
            Some(b'"') => string(b, i),
            Some(b't') => lit(i, b"true"),
            Some(b'f') => lit(i, b"false"),
            Some(b'n') => lit(i, b"null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                while b.get(*i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    *i += 1;
                }
                true
            }
            _ => false,
        }
    }
    let (b, mut i) = (s.as_bytes(), 0);
    let ok = value(b, &mut i);
    ws(b, &mut i);
    ok && i == b.len()
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
    // 1 ns thresholds: every op/command is a slow exemplar, guaranteeing
    // the timeline interleaves slow-op events with the resize phases.
    obs::trace::set_slow_op_threshold_ns(1);
    obs::trace::set_slow_cmd_threshold_ns(1);

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

    obs::trace::set_slow_op_threshold_ns(0);
    obs::trace::set_slow_cmd_threshold_ns(0);
    handle.shutdown_and_join();
    ops.stop();
    obs::set_enabled(false);
    obs::trace::reset();
    obs::reset();
}
