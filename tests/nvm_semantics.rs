//! Cross-crate tests of the NVM substrate's semantics as the hash tables
//! rely on them: persistence ordering, stats attribution, bandwidth wiring
//! and crash behaviour observed *through* a table rather than the raw
//! region API (which `hdnh-nvm`'s unit tests already cover).

use hdnh::{Hdnh, HdnhParams, PersistentPool};
use hdnh_common::{HashIndex, Key, Value};
use hdnh_nvm::{BandwidthLimiter, BandwidthModel, LatencyModel, NvmOptions, NvmRegion, SyncPolicy};
use std::sync::Arc;

#[test]
fn every_acknowledged_insert_leaves_no_at_risk_lines() {
    // Invariant: when an operation returns, everything it needed durable
    // has been flushed AND fenced — nothing is left to luck. One check on
    // both media images: the heap, and a pool whose fences block.
    let strict = |sync_policy| {
        HdnhParams::builder()
            .segment_bytes(1024)
            .initial_bottom_segments(2)
            .nvm(NvmOptions { sync_policy, ..NvmOptions::strict() })
            .build()
            .unwrap()
    };
    let acked_ops = |t: &Hdnh| {
        for i in 0..500u64 {
            t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
        }
        for i in 0..200u64 {
            t.update(&Key::from_u64(i), &Value::from_u64(i + 1)).unwrap();
        }
        for i in 400..500u64 {
            assert!(t.remove(&Key::from_u64(i)).unwrap());
        }
        for i in 500..520u64 {
            t.insert_bytes(&Key::from_u64(i), &[i as u8; 100]).unwrap();
        }
    };
    let no_line_at_risk = |pool: &PersistentPool| {
        assert!(!pool.vlog.is_empty(), "the spilled values left no log segment");
        for region in pool.regions() {
            assert_eq!(region.at_risk_lines(), 0, "{region:?}");
        }
    };
    let all_acked_state_present = |r: &Hdnh| {
        assert_eq!(r.len(), 420);
        for i in 0..200u64 {
            assert_eq!(r.get(&Key::from_u64(i)).unwrap().as_u64(), i + 1);
        }
        for i in 500..520u64 {
            assert_eq!(r.get_bytes(&Key::from_u64(i)).unwrap(), Some(vec![i as u8; 100]));
        }
    };

    let heap = strict(SyncPolicy::Async);
    let t = Hdnh::new(heap.clone());
    acked_ops(&t);
    let pool = t.into_pool();
    no_line_at_risk(&pool);
    // A crash that loses EVERY unflushed line must still preserve all
    // acknowledged state — verified by the cruellest deterministic crash.
    for region in pool.regions() {
        region.crash_with(|_| false);
    }
    all_acked_state_present(&Hdnh::recover(heap, pool, 2));

    let dir = std::env::temp_dir().join(format!("hdnh-nvmsem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (t, _) = Hdnh::open_pool(strict(SyncPolicy::Sync), &dir, 2).unwrap();
    acked_ops(&t);
    let pool = t.into_pool();
    no_line_at_risk(&pool);
    // The same cut by handle: with nothing at risk in any region, the log's
    // segments included, no word is dropped.
    assert_eq!(pool.crash(1), 0);
    drop(pool);
    let (r, _) = Hdnh::open_pool(strict(SyncPolicy::Sync), &dir, 2).unwrap();
    all_acked_state_present(&r);
    drop(r);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_attribute_writes_to_write_path_only() {
    let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(2048)
        .initial_bottom_segments(2)
        .build()
        .unwrap());
    for i in 0..1_000u64 {
        t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
    }
    let s = t.nvm_stats();
    // Insert path: ≥2 writes (record + header) and ≥2 flushes + 2 fences
    // per op, minus resize effects; sanity-check the orders of magnitude.
    assert!(s.writes >= 2_000, "writes {}", s.writes);
    assert!(s.flushes >= 2_000, "flushes {}", s.flushes);
    assert!(s.fences >= 2_000, "fences {}", s.fences);
}

#[test]
fn latency_model_slows_throughput_measurably() {
    // Same workload with and without latency injection: the injected run
    // must be slower (this is the knob the benchmarks depend on).
    // Amplified profile (20x AEP) so the injected time dominates debug-build
    // noise: 20k reads × ~4 µs ≈ 80 ms of injected latency.
    let run = |latency: bool| {
        let t = Hdnh::new(HdnhParams {
            nvm: NvmOptions {
                latency: if latency { LatencyModel::aep_scaled(20.0) } else { LatencyModel::off() },
                ..NvmOptions::fast()
            },
            enable_hot_table: false, // force NVM reads
            ..HdnhParams::for_capacity(20_000)
        });
        for i in 0..20_000u64 {
            t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
        }
        let start = std::time::Instant::now();
        for i in 0..20_000u64 {
            assert!(t.get(&Key::from_u64(i)).is_some());
        }
        start.elapsed()
    };
    let fast = run(false);
    let slow = run(true);
    assert!(
        slow > fast + std::time::Duration::from_millis(20),
        "latency model had no effect: fast {fast:?} vs aep {slow:?}"
    );
}

#[test]
fn shared_bandwidth_limiter_spans_regions() {
    // Two regions built from the same options share one limiter: traffic
    // through either region must charge the same token bucket. (Verified
    // structurally via the limiter's counters; the throttling behaviour
    // itself is covered by hdnh-nvm's timed unit tests.)
    let limiter = Arc::new(BandwidthLimiter::new(BandwidthModel {
        read_bytes_per_us: 1_000_000, // effectively unlimited: no stalls
        write_bytes_per_us: 1_000_000,
    }));
    let opts = NvmOptions {
        bandwidth: Some(Arc::clone(&limiter)),
        ..NvmOptions::fast()
    };
    let a = NvmRegion::new(64 * 1024, opts.clone());
    let b = NvmRegion::new(64 * 1024, opts);
    let mut buf = [0u8; 256];
    a.read_into(0, &mut buf); // 1 block
    a.read_into(300, &mut buf); // spans 2 blocks
    b.read_into(0, &mut buf); // 1 block via the *other* region
    assert_eq!(limiter.consumed_read_bytes(), 4 * 256);
    a.write_bytes(0, &[1u8; 64]); // 1 line
    b.write_bytes(0, &[1u8; 65]); // 2 lines
    assert_eq!(limiter.consumed_write_bytes(), 3 * 64);
}

#[test]
fn region_checks_bounds_from_table_layer() {
    // Indirect: a table sized for N records never trips region bounds even
    // at full load + resize (would panic).
    let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(512)
        .initial_bottom_segments(1)
        .build()
        .unwrap());
    for i in 0..5_000u64 {
        t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
    }
    assert!(t.resize_count() > 0);
    assert_eq!(t.verify_integrity().unwrap(), 5_000);
}
