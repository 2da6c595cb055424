//! Quickstart: build an HDNH table, do the four operations, peek at the
//! DRAM/NVM split the paper is about.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::{HashIndex, Key, Value};

fn main() {
    // Default parameters = the paper's configuration: 16 KB segments,
    // 256 B / 8-slot NVM buckets, 4-slot hot-table buckets, RAFL.
    let table = Hdnh::new(HdnhParams::builder().build().expect("defaults are valid"));

    // Insert a handful of records.
    for id in 0..1000u64 {
        table
            .insert(&Key::from_u64(id), &Value::from_u64(id * 10))
            .expect("insert");
    }
    println!("inserted 1000 records, load factor {:.2}", table.load_factor());

    // Point lookups: first read may touch NVM, repeats hit the DRAM hot
    // table.
    let k = Key::from_u64(42);
    assert_eq!(table.get(&k).unwrap().as_u64(), 420);
    let before = table.nvm_stats();
    for _ in 0..1000 {
        assert_eq!(table.get(&k).unwrap().as_u64(), 420);
    }
    let delta = table.nvm_stats().since(&before);
    println!(
        "1000 repeated reads of a hot key: {} NVM block reads (hot table absorbed the rest)",
        delta.read_blocks
    );

    // Update is out-of-place in NVM with a single atomic bitmap commit.
    table.update(&k, &Value::from_u64(421)).expect("update");
    assert_eq!(table.get(&k).unwrap().as_u64(), 421);

    // Delete.
    assert!(table.remove(&k).unwrap());
    assert!(table.get(&k).is_none());

    // Where does the memory live? Metadata in DRAM, records in NVM.
    println!(
        "OCF footprint: {} bytes of DRAM for {} records in NVM",
        table.ocf_footprint_bytes(),
        table.len()
    );

    // Persistence round-trip: shut down, recover, data is still there.
    let params = table.params().clone();
    let pool = table.into_pool();
    let recovered = Hdnh::recover(params, pool, 2);
    assert_eq!(recovered.len(), 999);
    assert_eq!(recovered.get(&Key::from_u64(7)).unwrap().as_u64(), 70);
    println!("recovered table has {} records — quickstart OK", recovered.len());
}
