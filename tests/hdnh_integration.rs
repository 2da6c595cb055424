//! End-to-end HDNH integration tests: YCSB workloads with value
//! validation, resize under concurrent load, media-access invariants, and
//! the full shutdown/recover lifecycle against generated workload state.

use std::sync::Arc;

use hdnh::{Hdnh, HdnhParams, HotPolicy, SyncMode};
use hdnh_common::HashIndex;
use hdnh_nvm::NvmOptions;
use hdnh_ycsb::{generate_ops, KeySpace, Op, WorkloadSpec};

fn small_params() -> HdnhParams {
    HdnhParams::builder()
        .segment_bytes(2048)
        .initial_bottom_segments(2)
        .build()
        .unwrap()
}

/// Replays a generated workload and tracks the expected version of every
/// id so each read can be validated byte-for-byte.
fn replay_validated(t: &Hdnh, ks: &KeySpace, preload: u64, ops: &[Op]) {
    for id in 0..preload {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    let mut versions: std::collections::HashMap<u64, u32> = Default::default();
    let mut deleted: std::collections::HashSet<u64> = Default::default();
    for op in ops {
        match op {
            Op::Read(id) => {
                if deleted.contains(id) {
                    assert!(t.get(&ks.key(*id)).is_none(), "deleted id {id} readable");
                } else {
                    let v = t.get(&ks.key(*id)).unwrap_or_else(|| panic!("missing id {id}"));
                    let expected = versions.get(id).copied().unwrap_or(0);
                    assert_eq!(ks.validate(*id, &v), Some(expected), "stale/torn id {id}");
                }
            }
            Op::ReadAbsent(id) => {
                assert!(t.get(&ks.negative_key(*id)).is_none());
            }
            Op::Insert(id) => {
                t.insert(&ks.key(*id), &ks.value(*id, 0)).unwrap();
            }
            Op::Update(id, seq) | Op::ReadModifyWrite(id, seq) => {
                if !deleted.contains(id) {
                    t.update(&ks.key(*id), &ks.value(*id, *seq)).unwrap();
                    versions.insert(*id, *seq);
                }
            }
            Op::Delete(id) => {
                assert!(t.remove(&ks.key(*id)).unwrap(), "delete of missing id {id}");
                deleted.insert(*id);
            }
        }
    }
}

#[test]
fn ycsb_a_with_full_value_validation() {
    let t = Hdnh::new(small_params());
    let ks = KeySpace::default();
    let ops = generate_ops(&WorkloadSpec::ycsb_a(), 2_000, 2_000, 20_000, 1);
    replay_validated(&t, &ks, 2_000, &ops);
}

#[test]
fn mixed_workload_with_deletes_and_negatives() {
    let spec = WorkloadSpec {
        read: 0.3,
        read_absent: 0.1,
        insert: 0.3,
        update: 0.2,
        rmw: 0.0,
        delete: 0.1,
        mix: hdnh_ycsb::Mix::Uniform,
    };
    let t = Hdnh::new(small_params());
    let ks = KeySpace::default();
    let ops = generate_ops(&spec, 3_000, 3_000, 20_000, 2);
    replay_validated(&t, &ks, 3_000, &ops);
}

#[test]
fn background_mode_ycsb_under_threads() {
    let t = Arc::new(Hdnh::new(HdnhParams {
        sync_mode: SyncMode::Background,
        ..small_params()
    }));
    let ks = KeySpace::default();
    for id in 0..4_000u64 {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    // Disjoint writer ranges + validating readers.
    std::thread::scope(|s| {
        for tid in 0..2u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for seq in 1..=200u32 {
                    for id in (tid * 2_000)..(tid * 2_000 + 50) {
                        t.update(&ks.key(id), &ks.value(id, seq)).unwrap();
                    }
                }
            });
        }
        for _ in 0..2 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for round in 0..10_000u64 {
                    let id = round % 4_000;
                    if let Some(v) = t.get(&ks.key(id)) {
                        assert!(
                            ks.validate(id, &v).is_some(),
                            "torn value for id {id}: {v:?}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn several_resizes_under_concurrent_inserts_with_validation() {
    let t = Arc::new(Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(1)
        .build()
        .unwrap()));
    let ks = KeySpace::default();
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..4_000u64 {
                    let id = tid * 1_000_000 + i;
                    t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
                    if i % 97 == 0 {
                        let v = t.get(&ks.key(id)).expect("own insert visible");
                        assert_eq!(ks.validate(id, &v), Some(0));
                    }
                }
            });
        }
    });
    assert!(t.resize_count() >= 2, "expected multiple resizes, got {}", t.resize_count());
    assert_eq!(t.len(), 16_000);
    for tid in 0..4u64 {
        for i in 0..4_000u64 {
            let id = tid * 1_000_000 + i;
            let v = t.get(&ks.key(id)).unwrap_or_else(|| panic!("lost id {id}"));
            assert_eq!(ks.validate(id, &v), Some(0), "id {id}");
        }
    }
}

#[test]
fn shutdown_recover_roundtrip_preserves_workload_state() {
    let params = HdnhParams {
        nvm: NvmOptions::strict(),
        ..small_params()
    };
    let t = Hdnh::new(params.clone());
    let ks = KeySpace::default();
    let spec = WorkloadSpec {
        read: 0.2,
        read_absent: 0.0,
        insert: 0.4,
        update: 0.3,
        rmw: 0.0,
        delete: 0.1,
        mix: hdnh_ycsb::Mix::ScrambledZipfian { s: 0.99 },
    };
    let ops = generate_ops(&spec, 2_000, 2_000, 10_000, 3);
    replay_validated(&t, &ks, 2_000, &ops);
    let expected_len = t.len();

    // Crash, recover, and verify the recovered table serves the same state.
    let pool = t.into_pool();
    pool.crash(0xABCD);
    let r = Hdnh::recover(params, pool, 3);
    assert_eq!(r.len(), expected_len);

    // Recompute expected state from the op stream and audit.
    let mut versions: std::collections::HashMap<u64, u32> = Default::default();
    let mut live: std::collections::HashSet<u64> = (0..2_000).collect();
    for op in &ops {
        match op {
            Op::Insert(id) => {
                live.insert(*id);
            }
            Op::Update(id, seq) | Op::ReadModifyWrite(id, seq) if live.contains(id) => {
                versions.insert(*id, *seq);
            }
            Op::Delete(id) => {
                live.remove(id);
                versions.remove(id);
            }
            _ => {}
        }
    }
    assert_eq!(r.len(), live.len());
    for &id in &live {
        let v = r.get(&ks.key(id)).unwrap_or_else(|| panic!("lost id {id}"));
        let expected = versions.get(&id).copied().unwrap_or(0);
        assert_eq!(ks.validate(id, &v), Some(expected), "id {id}");
    }
}

#[test]
fn search_path_never_writes_nvm_even_under_skew() {
    // The §3.6 claim at workload level: a pure-read phase (after warm-up)
    // performs zero NVM writes/flushes regardless of skew.
    let t = Hdnh::new(small_params());
    let ks = KeySpace::default();
    for id in 0..5_000u64 {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    let ops = generate_ops(
        &WorkloadSpec::search_only(hdnh_ycsb::Mix::ScrambledZipfian { s: 1.22 }),
        5_000,
        5_000,
        20_000,
        4,
    );
    let before = t.nvm_stats();
    for op in &ops {
        if let Op::Read(id) = op {
            t.get(&ks.key(*id)).unwrap();
        }
    }
    let delta = t.nvm_stats().since(&before);
    assert_eq!(delta.writes, 0);
    assert_eq!(delta.flushes, 0);
    assert_eq!(delta.fences, 0);
}

#[test]
fn lru_policy_full_lifecycle() {
    let t = Hdnh::new(HdnhParams {
        hot_policy: HotPolicy::Lru,
        hot_capacity_ratio: 0.1, // force heavy eviction traffic
        ..small_params()
    });
    let ks = KeySpace::default();
    let ops = generate_ops(&WorkloadSpec::ycsb_a(), 3_000, 3_000, 15_000, 5);
    replay_validated(&t, &ks, 3_000, &ops);
}

#[test]
fn tiny_hot_table_still_correct() {
    // Pathologically small cache: every put evicts.
    let t = Hdnh::new(HdnhParams {
        hot_capacity_ratio: 0.01,
        ..small_params()
    });
    let ks = KeySpace::default();
    for id in 0..2_000u64 {
        t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
    }
    for id in 0..2_000u64 {
        let v = t.get(&ks.key(id)).unwrap();
        assert_eq!(ks.validate(id, &v), Some(0));
    }
}
