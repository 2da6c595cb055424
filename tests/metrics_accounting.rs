//! Ground-truth accounting for the `hdnh-obs` registry: recorded OCF and
//! hot-table outcomes are checked against independently computed
//! expectations, and histogram populations against exact op counts.
//!
//! The registry is process-global, so every test here serializes on one
//! mutex and asserts only *deltas* between snapshots taken inside the
//! critical section.

use std::sync::Mutex;

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::hash::KeyHashes;
use hdnh_common::HashIndex;
use hdnh_obs as obs;
use hdnh_server::{RespClient, ServerConfig};
use hdnh_ycsb::{generate_ops, KeySpace, Op, WorkloadSpec};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another accounting test failed; the
    // registry itself is still usable.
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn ocf_outcomes_match_nvm_read_ground_truth() {
    let _g = lock();
    obs::set_enabled(true);
    // Hot table off: every get goes through the OCF to NVM, so the NVM
    // `reads` counter (API read calls; one per record the filter let
    // through) is an independent witness for the OCF outcome counters.
    let n = 2_000u64;
    let t = Hdnh::new(HdnhParams {
        enable_hot_table: false,
        ..HdnhParams::for_capacity(4 * n as usize)
    });
    let ks = KeySpace::default();
    for id in 0..n {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    assert_eq!(t.resize_count(), 0, "sized to avoid resize during the probes");

    // Negative probes: no true matches; every record actually read from
    // NVM is by definition a fingerprint false positive.
    let m0 = obs::snapshot();
    let s0 = t.nvm_stats();
    for i in 0..n {
        assert!(t.get(&ks.negative_key(i)).unwrap().is_none());
    }
    let dm = obs::snapshot().since(&m0);
    let ds = t.nvm_stats().since(&s0);
    assert_eq!(dm.counter(obs::Counter::OcfTrueMatch), 0);
    assert_eq!(
        dm.counter(obs::Counter::OcfFalsePositive),
        ds.reads,
        "every NVM read on a negative probe is a false positive"
    );
    assert_eq!(dm.op(obs::OpKind::Get).count(), n);

    // Positive gets: exactly one true match per key; NVM reads are the
    // true matches plus the false positives hit along the way.
    let m0 = obs::snapshot();
    let s0 = t.nvm_stats();
    for id in 0..n {
        assert!(t.get(&ks.key(id)).unwrap().is_some());
    }
    let dm = obs::snapshot().since(&m0);
    let ds = t.nvm_stats().since(&s0);
    assert_eq!(dm.counter(obs::Counter::OcfTrueMatch), n);
    assert_eq!(
        ds.reads,
        dm.counter(obs::Counter::OcfTrueMatch) + dm.counter(obs::Counter::OcfFalsePositive),
    );
    let derived = dm.ocf_false_positive_rate();
    let expect = dm.counter(obs::Counter::OcfFalsePositive) as f64
        / (dm.counter(obs::Counter::OcfFalsePositive) + n) as f64;
    assert!((derived - expect).abs() < 1e-12, "{derived} vs {expect}");
}

#[test]
fn hot_hit_counters_match_is_hot_predictions() {
    let _g = lock();
    obs::set_enabled(true);
    let t = Hdnh::new(HdnhParams::for_capacity(4_000));
    let ks = KeySpace::default();
    for id in 0..1_000 {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    let hot = t.hot_table().expect("hot table enabled by default");

    // Predict each get's hot-table outcome immediately beforehand with
    // `is_hot` (a passive probe that records nothing), then check the
    // registry recorded exactly the predicted outcome tallies.
    let m0 = obs::snapshot();
    let (mut hits, mut misses, mut gets) = (0u64, 0u64, 0u64);
    for _round in 0..3 {
        for id in 0..1_000u64 {
            let key = ks.key(id);
            let h = KeyHashes::of(&key);
            if hot.is_hot(&key, h.h1, h.h2, h.fp).is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
            assert!(t.get(&key).unwrap().is_some());
            gets += 1;
        }
    }
    let dm = obs::snapshot().since(&m0);
    assert_eq!(dm.counter(obs::Counter::HotHit), hits);
    assert_eq!(dm.counter(obs::Counter::HotMiss), misses);
    assert_eq!(hits + misses, gets, "every get consults the hot table once");
    assert_eq!(dm.op(obs::OpKind::Get).count(), gets);
    assert!(hits > 0, "repeat access must produce hot-table hits");
    let expect = hits as f64 / gets as f64;
    assert!((dm.hot_hit_rate() - expect).abs() < 1e-12);
}

#[test]
fn ycsb_a_histogram_population_equals_op_count() {
    let _g = lock();
    obs::set_enabled(true);
    let t = Hdnh::new(HdnhParams::for_capacity(20_000));
    let ks = KeySpace::default();
    let preload = 5_000u64;
    for id in 0..preload {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    let n_ops = 10_000usize;
    let ops = generate_ops(&WorkloadSpec::ycsb_a(), preload, preload, n_ops, 0xC0FFEE);

    let m0 = obs::snapshot();
    for op in &ops {
        match op {
            Op::Read(id) => {
                assert!(t.get(&ks.key(*id)).unwrap().is_some());
            }
            // All keys are preloaded, so the upsert resolves as exactly one
            // update — never a fallback insert.
            Op::Update(id, seq) => t.upsert(&ks.key(*id), &ks.value(*id, *seq)).unwrap(),
            other => panic!("unexpected op in YCSB-A: {other:?}"),
        }
    }
    let dm = obs::snapshot().since(&m0);

    let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count() as u64;
    assert_eq!(dm.total_ops(), n_ops as u64, "one histogram record per op");
    assert_eq!(dm.op(obs::OpKind::Get).count(), reads);
    assert_eq!(dm.op(obs::OpKind::Update).count(), n_ops as u64 - reads);
    assert_eq!(dm.op(obs::OpKind::Insert).count(), 0);
    assert_eq!(dm.op(obs::OpKind::Remove).count(), 0);
    for kind in obs::OpKind::ALL {
        let h = dm.op(kind);
        if h.count() > 0 {
            assert!(h.quantile(0.5) >= 1, "{:?} p50", kind);
            assert!(h.max() >= h.quantile(0.99), "{:?} max vs p99", kind);
        }
    }
}

/// The bytes vocabulary — what the server speaks — lands in the same op
/// histograms as the fixed one: one record per call, an upsert as the
/// insert or the update it turned out to be, on both sides of the inline
/// budget.
#[test]
fn bytes_workload_histogram_population_equals_op_count() {
    let _g = lock();
    obs::set_enabled(true);
    let t = Hdnh::new(HdnhParams::for_capacity(8_000));
    let key = hdnh_common::Key::from_u64;
    let payload = |id: u64, round: u8| vec![round; if id.is_multiple_of(2) { 9 } else { 120 }];
    let n = 1_000u64;

    let m0 = obs::snapshot();
    for id in 0..n {
        t.insert_bytes(&key(id), &payload(id, 0)).unwrap();
    }
    // Upserts: the first half replace, the second half place fresh keys.
    for id in n / 2..n + n / 2 {
        t.upsert_bytes(&key(id), &payload(id + 1, 1)).unwrap();
    }
    for id in 0..n / 4 {
        t.update_bytes(&key(id), &payload(id + 1, 2)).unwrap();
    }
    // A refused write is still an operation of its kind.
    assert_eq!(t.insert_bytes(&key(0), b"dup"), Err(hdnh::HdnhError::DuplicateKey));
    assert_eq!(t.update_bytes(&key(9 * n), b"absent"), Err(hdnh::HdnhError::KeyNotFound));
    for id in 0..n + n / 2 {
        assert!(t.get_bytes(&key(id)).unwrap().is_some());
    }
    for id in 0..n / 10 {
        assert!(t.remove(&key(id)).unwrap());
    }
    let dm = obs::snapshot().since(&m0);

    let (inserts, updates) = (n + n / 2 + 1, n / 2 + n / 4 + 1);
    assert_eq!(dm.op(obs::OpKind::Insert).count(), inserts);
    assert_eq!(dm.op(obs::OpKind::Update).count(), updates);
    assert_eq!(dm.op(obs::OpKind::Get).count(), n + n / 2);
    assert_eq!(dm.op(obs::OpKind::Remove).count(), n / 10);
    assert_eq!(dm.total_ops(), inserts + updates + n + n / 2 + n / 10);
}

#[test]
fn net_frames_decoded_match_commands_executed() {
    let _g = lock();
    obs::set_enabled(true);
    let table = std::sync::Arc::new(Hdnh::new(HdnhParams::for_capacity(4_000)));
    let handle = hdnh_server::start(table, "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = handle.local_addr().to_string();

    let m0 = obs::snapshot();
    let mut c = RespClient::connect(&addr).expect("connect");
    c.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();

    // A known command script: every request is one frame, and every frame
    // is either a recognized command (lands in exactly one per-command
    // histogram) or an unknown one (lands in the unknown counter).
    let sets = 40u64;
    let gets = 25u64;
    let unknowns = 3u64;
    for i in 0..sets {
        assert_eq!(c.set(i, i * 2).unwrap(), Ok(()));
    }
    for i in 0..gets {
        assert_eq!(c.get(i).unwrap(), Some(i * 2));
    }
    for _ in 0..unknowns {
        assert!(matches!(
            c.call(&[b"NOSUCH", b"1"]).unwrap(),
            hdnh_server::Reply::Error(_)
        ));
    }
    assert!(c.del(0).unwrap());
    assert!(c.exists(1).unwrap());
    assert_eq!(c.mget(&[1, 2, 999_999]).unwrap().len(), 3);
    assert!(c.ping().unwrap());
    drop(c);
    handle.shutdown_and_join();

    let dm = obs::snapshot().since(&m0);

    // Ground truth: frames decoded = recognized commands (one histogram
    // record each) + unknown commands.
    let frames = dm.counter(obs::Counter::NetFrameDecoded);
    let executed = dm.total_net_cmds();
    let unknown = dm.counter(obs::Counter::NetUnknownCmd);
    assert_eq!(frames, executed + unknown, "frame accounting must balance");
    assert_eq!(unknown, unknowns);
    assert_eq!(dm.net(obs::NetCmd::Set).count(), sets);
    assert_eq!(dm.net(obs::NetCmd::Get).count(), gets);
    assert_eq!(dm.net(obs::NetCmd::Del).count(), 1);
    assert_eq!(dm.net(obs::NetCmd::Exists).count(), 1);
    assert_eq!(dm.net(obs::NetCmd::MGet).count(), 1);
    assert_eq!(dm.net(obs::NetCmd::Ping).count(), 1);
    assert_eq!(dm.net(obs::NetCmd::Shutdown).count(), 0, "shutdown came via the handle");

    // The wire moved real bytes in both directions, and the server-side
    // command execution rode the table's own op histograms too.
    assert!(dm.counter(obs::Counter::NetBytesIn) > 0);
    assert!(dm.counter(obs::Counter::NetBytesOut) > 0);
    assert_eq!(dm.counter(obs::Counter::NetConnAccepted), 1);
    assert_eq!(dm.counter(obs::Counter::NetConnRejected), 0);
    assert_eq!(dm.counter(obs::Counter::NetProtocolError), 0);
    assert!(dm.op(obs::OpKind::Get).count() >= gets, "GETs hit the table path");
    // Every SET is a table write: the first of a key an insert.
    assert_eq!(dm.op(obs::OpKind::Insert).count(), sets);
    assert_eq!(dm.op(obs::OpKind::Remove).count(), 1);
}
