//! The served binary under pipelined load: `hdnh-cli serve` with its ops
//! plane answers YCSB A, B and C over RESP from three connections with no
//! error reply and no broken connection, serves `/healthz`, `/readyz`,
//! `/metrics`, `/varz` and `/trace` while that load runs, and on
//! `SHUTDOWN` fails readiness with `draining` while its ops listener
//! lingers, then exits 0 by itself.

mod common;

use std::time::Duration;

use common::http::http_get;
use common::{connect, decimal_value, number, preload, run_ycsb, spawn_serve};
use hdnh_ycsb::WorkloadSpec;

/// Preloaded records, and operations per mix: netbench's sizes in
/// release, and a debug-build run short enough for the default
/// `cargo test`.
const PRELOAD: u64 = if cfg!(debug_assertions) {
    2_000
} else {
    10_000
};
const OPS_PER_MIX: usize = if cfg!(debug_assertions) {
    6_000
} else {
    30_000
};
const CONNS: usize = 3;
const PIPELINE: usize = 64;

/// The ops-plane checks that must hold while the server is serving.
fn probe_ops_plane(ops: &str) {
    for route in ["/healthz", "/readyz"] {
        let (st, body) = http_get(ops, route);
        assert_eq!(st, 200, "{route} under load: {body}");
    }
    let (st, metrics) = http_get(ops, "/metrics");
    assert_eq!(st, 200);
    assert!(
        metrics.contains("# TYPE hdnh_net_cmd_latency_hist_ns histogram"),
        "{metrics}"
    );
    assert!(metrics.contains("hdnh_events_total{"), "{metrics}");
    let (st, varz) = http_get(ops, "/varz");
    assert_eq!(st, 200);
    for field in [
        "\"ready\":true",
        "\"draining\":false",
        "\"backend\":\"heap\"",
    ] {
        assert!(varz.contains(field), "varz lacks {field}: {varz}");
    }
    let (st, trace) = http_get(ops, "/trace");
    assert_eq!(st, 200);
    assert!(number(&trace, "anchor_unix_ns") > 0.0, "{trace}");
    assert!(trace.contains("\"events\":["), "no events array in {trace}");
}

#[test]
fn pipelined_load_scrape_and_graceful_drain() {
    let server = spawn_serve(&[
        "--threads",
        "4",
        "--max-conns",
        "64",
        "--capacity",
        "200000",
        "--fill",
        "1000",
        "--ops-addr",
        "127.0.0.1:0",
        "--slow-us",
        "1000",
    ]);
    let ops = server.ops_addr.clone().expect("ops banner");
    preload(&server.addr, PRELOAD, PIPELINE, decimal_value);

    std::thread::scope(|s| {
        let load = s.spawn(|| {
            for spec in [
                WorkloadSpec::ycsb_a(),
                WorkloadSpec::ycsb_b(),
                WorkloadSpec::ycsb_c(),
            ] {
                run_ycsb(
                    &server.addr,
                    &spec,
                    PRELOAD,
                    OPS_PER_MIX,
                    CONNS,
                    PIPELINE,
                    decimal_value,
                );
            }
        });
        probe_ops_plane(&ops);
        load.join()
            .expect("the load saw no error reply and no broken connection");
    });

    // Drain: the server answers SHUTDOWN, closes this connection once it
    // goes quiet, and joins its loops. The ops listener lingers 750 ms
    // past that, so a probe 200 ms after the close is past the drain and
    // still gets an answer.
    let mut c = connect(&server.addr);
    assert!(c.shutdown().expect("shutdown").is_ok());
    assert!(c.read_reply().is_err(), "the drain closes the connection");
    std::thread::sleep(Duration::from_millis(200));
    let (st, body) = http_get(&ops, "/readyz");
    assert_eq!(st, 503, "draining must fail readiness: {body}");
    assert!(body.contains("draining"), "{body}");

    let (exited_zero, rest) = server.wait_exit();
    assert!(exited_zero, "the drained server exits 0: {rest}");
    assert!(rest.contains("hdnh-server drained, exiting"), "{rest}");
}
