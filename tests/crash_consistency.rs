//! Randomized crash-consistency tests (invariants I1 and I5 of DESIGN.md).
//!
//! Strict-mode NVM regions track which cachelines were persisted; a
//! simulated crash keeps a random subset of the unflushed ones (torn at
//! 8-byte granularity, or a page at a time: the crash seed picks the loss
//! mode). These tests crash at many random points and after
//! every resize phase, then verify that recovery reconstructs exactly the
//! acknowledged state.
//!
//! Every scenario prints a `repro:` line to stderr before the crash; the
//! harness replays captured output on failure, so any panic — including
//! internal persistence-lint asserts with no seed in their message — comes
//! with the exact (seed, op index, crash context) needed to re-run it.
//! For crash-*site* level replay use `faultrun repro <tuple>` in the CLI.

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::rng::XorShift64Star;
use hdnh_common::{Key, Value};
use hdnh_nvm::NvmOptions;

fn params() -> HdnhParams {
    HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .nvm(NvmOptions::strict())
        .build()
        .unwrap()
}

fn k(id: u64) -> Key {
    Key::from_u64(id)
}
fn v(x: u64) -> Value {
    Value::from_u64(x)
}

/// Crash after a random prefix of a mixed op sequence: everything
/// acknowledged before the crash must be intact afterwards.
#[test]
fn random_crash_points_preserve_acknowledged_state() {
    for seed in 0..15u64 {
        let mut rng = XorShift64Star::new(seed);
        let t = Hdnh::new(params());
        let mut oracle = std::collections::HashMap::new();
        let n_ops = 200 + (rng.next_u64() % 800) as usize;
        for step in 0..n_ops {
            let id = rng.next_u64() % 600;
            match rng.next_below(10) {
                0..=4 => {
                    if t.insert(&k(id), &v(step as u64)).is_ok() {
                        oracle.insert(id, step as u64);
                    }
                }
                5..=6 => {
                    if t.update(&k(id), &v(step as u64 + 1_000_000)).is_ok() {
                        oracle.insert(id, step as u64 + 1_000_000);
                    }
                }
                7 => {
                    if t.remove(&k(id)).unwrap() {
                        oracle.remove(&id);
                    }
                }
                _ => {
                    assert_eq!(
                        t.get(&k(id)).unwrap().map(|x| x.as_u64()),
                        oracle.get(&id).copied(),
                        "pre-crash divergence at op {step}/{n_ops} id {id} (rng_seed={seed})"
                    );
                }
            }
        }
        let crash_seed = seed.wrapping_mul(0x9E37_79B9);
        let pool = t.into_pool();
        let dropped = pool.crash(crash_seed);
        eprintln!(
            "repro: random_crash_points rng_seed={seed} n_ops={n_ops} \
             crash_seed={crash_seed} dropped_words={dropped}"
        );
        let r = Hdnh::recover(params(), pool, 2);
        assert_eq!(
            r.len(),
            oracle.len(),
            "live count after recovery (rng_seed={seed} n_ops={n_ops} crash_seed={crash_seed})"
        );
        for (&id, &val) in &oracle {
            assert_eq!(
                r.get(&k(id)).unwrap().map(|x| x.as_u64()),
                Some(val),
                "id {id} (rng_seed={seed} n_ops={n_ops} crash_seed={crash_seed})"
            );
        }
    }
}

/// Crash at every possible rehash cursor position.
#[test]
fn crash_at_every_rehash_cursor() {
    let probe = Hdnh::new(params());
    for i in 0..300u64 {
        probe.insert(&k(i), &v(i)).unwrap();
    }
    let buckets = {
        // Bottom-level bucket count drives the cursor range.
        let pool = probe.into_pool();
        let r = Hdnh::recover(params(), pool, 1);
        let n = r.meta_bottom_buckets();
        drop(r);
        n
    };
    for stop in 0..=buckets {
        let t = Hdnh::new(params());
        for i in 0..300u64 {
            t.insert(&k(i), &v(i * 2 + 1)).unwrap();
        }
        let pool = t.into_crashed_mid_resize(stop);
        let dropped = pool.crash(stop as u64);
        eprintln!(
            "repro: rehash_cursor crash at rehash cursor {stop}/{buckets} \
             crash_seed={stop} dropped_words={dropped}"
        );
        let r = Hdnh::recover(params(), pool, 2);
        assert_eq!(r.len(), 300, "live count (rehash cursor {stop}, crash_seed={stop})");
        for i in 0..300u64 {
            assert_eq!(
                r.get(&k(i)).unwrap().unwrap().as_u64(),
                i * 2 + 1,
                "key {i} (rehash cursor {stop}, crash_seed={stop})"
            );
        }
    }
}

/// Double-crash: crash during recovery's own resize completion, then
/// recover again (recovery must itself be crash-consistent).
#[test]
fn crash_then_crash_again_during_recovered_state() {
    let t = Hdnh::new(params());
    for i in 0..400u64 {
        t.insert(&k(i), &v(i)).unwrap();
    }
    let pool = t.into_crashed_mid_resize(2);
    let dropped = pool.crash(1);
    eprintln!("repro: double_crash first crash at rehash cursor 2, crash_seed=1, dropped_words={dropped}");
    let r = Hdnh::recover(params(), pool, 2);
    assert_eq!(r.len(), 400, "after first recovery");
    // Crash the *recovered* table immediately.
    let pool = r.into_pool();
    let dropped = pool.crash(2);
    eprintln!("repro: double_crash second crash of recovered table, crash_seed=2, dropped_words={dropped}");
    let r2 = Hdnh::recover(params(), pool, 2);
    assert_eq!(r2.len(), 400, "after second recovery");
    for i in 0..400u64 {
        assert_eq!(r2.get(&k(i)).unwrap().unwrap().as_u64(), i, "key {i} after second recovery");
    }
}

/// Repeated crash/recover cycles with work in between.
#[test]
fn survives_many_crash_cycles() {
    let mut expected: std::collections::HashMap<u64, u64> = Default::default();
    let mut t = Hdnh::new(params());
    for cycle in 0..8u64 {
        let base = cycle * 1_000;
        for i in 0..150 {
            let id = base + i;
            t.insert(&k(id), &v(id ^ cycle)).unwrap();
            expected.insert(id, id ^ cycle);
        }
        // Update a slice of older keys.
        if cycle > 0 {
            for i in 0..50 {
                let id = (cycle - 1) * 1_000 + i;
                t.update(&k(id), &v(id + 7)).unwrap();
                expected.insert(id, id + 7);
            }
        }
        let pool = t.into_pool();
        let crash_seed = 0xC0FFEE + cycle;
        let dropped = pool.crash(crash_seed);
        eprintln!("repro: crash_cycles cycle={cycle} crash_seed={crash_seed:#x} dropped_words={dropped}");
        t = Hdnh::recover(params(), pool, 2);
        assert_eq!(
            t.len(),
            expected.len(),
            "live count (cycle {cycle}, crash_seed={crash_seed:#x})"
        );
        for (&id, &val) in &expected {
            assert_eq!(
                t.get(&k(id)).unwrap().map(|x| x.as_u64()),
                Some(val),
                "id {id} (cycle {cycle}, crash_seed={crash_seed:#x})"
            );
        }
    }
}

/// The update fallback window (new copy committed, old not yet cleared)
/// must be healed by recovery's deduplication: never two values for one
/// key, and the surviving value is one of the two written.
#[test]
fn update_crash_window_deduplicates() {
    for seed in 0..10u64 {
        let t = Hdnh::new(params());
        for i in 0..200u64 {
            t.insert(&k(i), &v(i)).unwrap();
        }
        for i in 0..200u64 {
            t.update(&k(i), &v(i + 500)).unwrap();
        }
        let pool = t.into_pool();
        let crash_seed = seed + 77;
        let dropped = pool.crash(crash_seed);
        eprintln!("repro: update_window crash after 200 updates, crash_seed={crash_seed} dropped_words={dropped}");
        let r = Hdnh::recover(params(), pool, 2);
        assert_eq!(r.len(), 200, "live count (crash_seed={crash_seed})");
        for i in 0..200u64 {
            let got = r.get(&k(i)).unwrap().unwrap().as_u64();
            assert_eq!(
                got,
                i + 500,
                "id {i}: update was acknowledged (crash_seed={crash_seed})"
            );
        }
    }
}
