//! Cross-scheme conformance: every index (HDNH and the three baselines)
//! must agree with an in-memory oracle over randomized operation
//! sequences, through the shared `HashIndex` trait.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use hdnh::{Hdnh, HdnhParams, HotPolicy, SyncMode};
use hdnh_baselines::{Cceh, CcehParams, LevelHash, LevelParams, PathHash, PathParams};
use hdnh_common::rng::XorShift64Star;
use hdnh_common::{HashIndex, IndexError, Key, Value};

// Its own list, not `hdnh_bench::schemes::build`: these tiny geometries
// (1 KiB segments, 16-bucket levels) force resizes mid-sequence, which
// `build`'s sizing for the whole record count would not.
fn schemes() -> Vec<(&'static str, Box<dyn HashIndex>)> {
    vec![
        (
            "HDNH",
            Box::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .build()
        .unwrap())) as Box<dyn HashIndex>,
        ),
        (
            "HDNH-bg-lru",
            Box::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .sync_mode(SyncMode::Background)
        .hot_policy(HotPolicy::Lru)
        .build()
        .unwrap())),
        ),
        (
            "LEVEL",
            Box::new(LevelHash::new(LevelParams {
                initial_top_buckets: 16,
                ..Default::default()
            })),
        ),
        (
            "CCEH",
            Box::new(Cceh::new(CcehParams {
                segment_bytes: 2048,
                initial_depth: 1,
                ..Default::default()
            })),
        ),
        (
            "PATH",
            Box::new(PathHash::new(PathParams {
                root_cells: 1 << 13, // static: size for the whole test
                reserved_levels: 8,
                ..Default::default()
            })),
        ),
    ]
}

/// Randomized CRUD fuzz against a HashMap oracle.
#[test]
fn randomized_ops_match_oracle() {
    for (name, idx) in schemes() {
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut rng = XorShift64Star::new(0xFACE);
        for step in 0..30_000u64 {
            let id = rng.next_u64() % 2_000;
            let key = Key::from_u64(id);
            match rng.next_below(10) {
                // 40%: insert
                0..=3 => {
                    let val = step;
                    let res = idx.insert(&key, &Value::from_u64(val));
                    match oracle.entry(id) {
                        Entry::Occupied(_) => {
                            assert_eq!(res, Err(IndexError::DuplicateKey), "{name} step {step}");
                        }
                        Entry::Vacant(slot) => {
                            res.unwrap_or_else(|e| panic!("{name} insert failed: {e} at {step}"));
                            slot.insert(val);
                        }
                    }
                }
                // 20%: update
                4..=5 => {
                    let val = step + 1_000_000_000;
                    let res = idx.update(&key, &Value::from_u64(val));
                    match oracle.entry(id) {
                        Entry::Occupied(mut slot) => {
                            res.unwrap_or_else(|e| panic!("{name} update failed: {e} at {step}"));
                            slot.insert(val);
                        }
                        Entry::Vacant(_) => {
                            assert_eq!(res, Err(IndexError::KeyNotFound), "{name} step {step}");
                        }
                    }
                }
                // 20%: delete
                6..=7 => {
                    let res = idx.remove(&key);
                    assert_eq!(res, oracle.remove(&id).is_some(), "{name} step {step}");
                }
                // 20%: get
                _ => {
                    let got = idx.get(&key).map(|v| v.as_u64());
                    assert_eq!(got, oracle.get(&id).copied(), "{name} step {step} id {id}");
                }
            }
            if step % 5_000 == 0 {
                assert_eq!(idx.len(), oracle.len(), "{name} len drift at {step}");
            }
        }
        // Full final audit.
        assert_eq!(idx.len(), oracle.len(), "{name} final len");
        for (&id, &val) in &oracle {
            assert_eq!(
                idx.get(&Key::from_u64(id)).map(|v| v.as_u64()),
                Some(val),
                "{name} final id {id}"
            );
        }
    }
}

/// The upsert default must behave identically everywhere.
#[test]
fn upsert_semantics_are_uniform() {
    for (name, idx) in schemes() {
        let k = Key::from_u64(99);
        idx.upsert(&k, &Value::from_u64(1)).unwrap();
        idx.upsert(&k, &Value::from_u64(2)).unwrap();
        assert_eq!(idx.get(&k).unwrap().as_u64(), 2, "{name}");
        assert_eq!(idx.len(), 1, "{name}");
    }
}

/// Growth far past the initial capacity (resize/split paths) while keeping
/// every record reachable.
#[test]
fn growth_preserves_all_records() {
    for (name, idx) in schemes() {
        let n: u64 = if name == "PATH" { 4_000 } else { 20_000 };
        for i in 0..n {
            idx.insert(&Key::from_u64(i), &Value::from_u64(i * 3))
                .unwrap_or_else(|e| panic!("{name}: insert {i}: {e}"));
        }
        assert_eq!(idx.len(), n as usize, "{name}");
        for i in (0..n).step_by(7) {
            assert_eq!(idx.get(&Key::from_u64(i)).unwrap().as_u64(), i * 3, "{name} key {i}");
        }
        let lf = idx.load_factor();
        assert!(lf > 0.0 && lf <= 1.0, "{name} load factor {lf}");
    }
}

/// Concurrent mixed workload on every scheme: disjoint writer key ranges,
/// readers validating value integrity.
#[test]
fn concurrent_mixed_workload_is_linearizable_per_key() {
    for (name, idx) in schemes() {
        let idx = std::sync::Arc::new(idx);
        std::thread::scope(|s| {
            for tid in 0..2u64 {
                let idx = std::sync::Arc::clone(&idx);
                s.spawn(move || {
                    let base = tid * 100_000;
                    for i in 0..3_000u64 {
                        let id = base + (i % 500);
                        let key = Key::from_u64(id);
                        // Value always encodes its key: readers can detect
                        // foreign/torn values.
                        let _ = idx.upsert(&key, &Value::from_u64(id ^ 0x5555));
                    }
                });
            }
            for _ in 0..2 {
                let idx = std::sync::Arc::clone(&idx);
                s.spawn(move || {
                    let mut rng = XorShift64Star::new(7);
                    for _ in 0..6_000 {
                        let tid = rng.next_below(2) as u64;
                        let id = tid * 100_000 + rng.next_u64() % 500;
                        if let Some(v) = idx.get(&Key::from_u64(id)) {
                            assert_eq!(v.as_u64(), id ^ 0x5555, "{name}: foreign value for {id}");
                        }
                    }
                });
            }
        });
    }
}
