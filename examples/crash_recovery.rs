//! Crash-recovery demo: strict-mode NVM, random power failures at nasty
//! moments (including mid-resize), and HDNH's recovery putting the table
//! back together — the paper's §3.7 running before your eyes.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::{HashIndex, Key, Value};
use hdnh_nvm::NvmOptions;

fn params() -> HdnhParams {
    HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(2)
        .nvm(NvmOptions::strict()) // shadow media + dirty-line tracking
        .build()
        .expect("demo params are valid")
}

fn main() {
    // Scenario 1: crash right after a batch of acknowledged operations.
    let t = Hdnh::new(params());
    for i in 0..500u64 {
        t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
    }
    for i in 0..250u64 {
        t.update(&Key::from_u64(i), &Value::from_u64(i + 10_000)).unwrap();
    }
    for i in 400..500u64 {
        t.remove(&Key::from_u64(i)).unwrap();
    }
    let pool = t.into_pool();
    let dropped = pool.crash(0xDEAD); // unflushed lines vanish at random
    println!("scenario 1: power failure dropped {dropped} unflushed words from the caches");
    let r = Hdnh::recover(params(), pool, 2);
    assert_eq!(r.len(), 400);
    for i in 0..250u64 {
        assert_eq!(r.get(&Key::from_u64(i)).unwrap().as_u64(), i + 10_000);
    }
    for i in 250..400u64 {
        assert_eq!(r.get(&Key::from_u64(i)).unwrap().as_u64(), i);
    }
    for i in 400..500u64 {
        assert!(r.get(&Key::from_u64(i)).is_none());
    }
    println!("scenario 1: all 400 acknowledged records recovered, deletes stayed deleted\n");

    // Scenario 2: crash in the middle of a resize ("level number = 3").
    let t = Hdnh::new(params());
    for i in 0..800u64 {
        t.insert(&Key::from_u64(i), &Value::from_u64(i * 3)).unwrap();
    }
    let pool = t.into_crashed_mid_resize(3); // 3 buckets migrated, then poof
    pool.crash(0xBEEF);
    println!("scenario 2: crashed while rehashing (3 buckets migrated)");
    let r = Hdnh::recover(params(), pool, 2);
    assert_eq!(r.len(), 800);
    for i in 0..800u64 {
        assert_eq!(r.get(&Key::from_u64(i)).unwrap().as_u64(), i * 3);
    }
    println!("scenario 2: recovery resumed the rehash; all 800 records intact\n");

    // Scenario 3: many random crash points.
    let mut worst_dropped = 0;
    for seed in 0..20u64 {
        let t = Hdnh::new(params());
        for i in 0..300u64 {
            t.insert(&Key::from_u64(i), &Value::from_u64(i)).unwrap();
        }
        let pool = t.into_pool();
        worst_dropped = worst_dropped.max(pool.crash(seed));
        let r = Hdnh::recover(params(), pool, 2);
        assert_eq!(r.len(), 300, "seed {seed}");
    }
    println!("scenario 3: 20 random crashes, worst dropped {worst_dropped} words — zero data loss");
    println!("\ncrash_recovery OK");
}
