//! Hot-table deep dive: watch RAFL's hotmap state machine work, and see
//! how the hot table converts a skewed read workload from NVM traffic into
//! DRAM hits (the paper's §3.3 and figure 12, interactively).
//!
//! ```text
//! cargo run --release --example hot_cache_demo
//! ```

use hdnh::{Hdnh, HdnhParams, HotPolicy};
use hdnh_common::hash::KeyHashes;
use hdnh_common::{HashIndex, Key, Value};
use hdnh_nvm::NvmOptions;
use hdnh_ycsb::{KeyDist, KeySpace, Zipfian};

fn main() {
    // Part 1: the RAFL state machine on a single record.
    let t = Hdnh::new(HdnhParams::default());
    let k = Key::from_u64(7);
    t.insert(&k, &Value::from_u64(70)).unwrap();
    let hot = t.hot_table().unwrap();
    let h = KeyHashes::of(&k);
    println!(
        "after insert: cached={}, hot bit={:?}  (cold: 'has not been searched since it was added')",
        hot.is_hot(&k, h.h1, h.h2, h.fp).is_some(),
        hot.is_hot(&k, h.h1, h.h2, h.fp)
    );
    t.get(&k).unwrap();
    println!(
        "after one search: hot bit={:?}  (RAFL flips the hotmap bit on a hit)",
        hot.is_hot(&k, h.h1, h.h2, h.fp)
    );

    // Part 2: skewed reads — measure NVM block reads per search as skew
    // grows, with the hot table on and off.
    println!("\nNVM block reads per search under zipfian skew (100k records, 25% hot-table capacity):");
    println!("{:>6} {:>12} {:>12}", "s", "with hot", "without hot");
    let ks = KeySpace::default();
    const N: u64 = 100_000;
    const OPS: usize = 100_000;
    for s in [0.5, 0.9, 0.99, 1.22] {
        let mut cells = Vec::new();
        for enable_hot in [true, false] {
            let t = Hdnh::new(HdnhParams {
                enable_hot_table: enable_hot,
                nvm: NvmOptions::fast(),
                ..HdnhParams::for_capacity(N as usize)
            });
            for id in 0..N {
                t.insert(&ks.key(id), &ks.value(id, 0)).unwrap();
            }
            let mut dist = Zipfian::new(N, s);
            let mut rng = hdnh_common::rng::XorShift64Star::new(9);
            let before = t.nvm_stats();
            for _ in 0..OPS {
                let id = hdnh_common::rng::mix64(dist.next_id(&mut rng)) % N;
                t.get(&ks.key(id)).expect("present");
            }
            let delta = t.nvm_stats().since(&before);
            cells.push(delta.read_blocks as f64 / OPS as f64);
        }
        println!("{s:>6.2} {:>12.3} {:>12.3}", cells[0], cells[1]);
    }
    println!("(higher skew → the hot set fits the DRAM table → NVM reads vanish)");

    // Part 3: RAFL vs LRU footprint.
    let rafl = Hdnh::new(HdnhParams {
        hot_policy: HotPolicy::Rafl,
        ..HdnhParams::for_capacity(N as usize)
    });
    let lru = Hdnh::new(HdnhParams {
        hot_policy: HotPolicy::Lru,
        ..HdnhParams::for_capacity(N as usize)
    });
    println!(
        "\nhot-table DRAM footprint at equal capacity: RAFL {} KB vs LRU {} KB \
         (the paper's 'LRU list consumes a lot of memory')",
        rafl.hot_table().unwrap().footprint_bytes() / 1024,
        lru.hot_table().unwrap().footprint_bytes() / 1024,
    );
}
