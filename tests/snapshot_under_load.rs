//! Crash-consistent snapshots under concurrent write load.
//!
//! Writers hammer a file-backed pool (inserts + updates, enough volume to
//! force at least one resize) while the main thread takes a live snapshot
//! mid-load. The snapshot must verify against its manifest, restore into a
//! fresh directory, and the restored table must contain **every write that
//! was acknowledged before the snapshot began** — with a clean scrub.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hdnh::{verify_snapshot, Hdnh, HdnhParams};
use hdnh_common::{HashIndex, Key, Value};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdnh-snapload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn params() -> HdnhParams {
    // Small capacity so the load forces resizes while writers are live.
    HdnhParams::builder().capacity(2_000).build().unwrap()
}

const WRITERS: usize = 4;
const KEY_STRIDE: u64 = 1_000_000;

fn key_of(writer: usize, i: u64) -> u64 {
    writer as u64 * KEY_STRIDE + i
}

fn value_of(key: u64) -> u64 {
    key.wrapping_mul(7).wrapping_add(3)
}

#[test]
fn snapshot_mid_load_restores_every_acked_write() {
    let pool = tmp_dir("pool");
    let snap = tmp_dir("snap");
    let dest = tmp_dir("dest");
    let (table, _) = Hdnh::open_pool(params(), &pool, WRITERS + 1).unwrap();

    // Per-writer watermark: keys 0..watermark are acknowledged durable.
    let acked: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);

    let (files, bytes, watermarks) = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let table = &table;
            let acked = &acked[w];
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = key_of(w, i);
                    table
                        .insert(&Key::from_u64(k), &Value::from_u64(value_of(k)))
                        .unwrap_or_else(|e| panic!("writer {w} insert {k}: {e}"));
                    acked.store(i + 1, Ordering::Release);
                    // Churn an older key so update paths run under load too.
                    if i > 16 {
                        let old = key_of(w, i / 2);
                        table
                            .update(&Key::from_u64(old), &Value::from_u64(value_of(old)))
                            .unwrap_or_else(|e| panic!("writer {w} update {old}: {e}"));
                    }
                    i += 1;
                }
            });
        }

        // Let the load build up past at least one resize, then snapshot
        // while the writers are still running — all of them: the first
        // writers scheduled can force the resize before the last one has
        // started, so also wait for every writer's first acknowledgement.
        let all_started = || acked.iter().all(|a| a.load(Ordering::Acquire) > 0);
        while table.resize_count() == 0 || !all_started() {
            std::thread::yield_now();
        }
        let watermarks: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
        let report = table
            .snapshot(&snap)
            .unwrap_or_else(|e| panic!("snapshot under load failed: {e}"));
        stop.store(true, Ordering::Relaxed);
        (report.files, report.bytes, watermarks)
    });
    assert!(table.resize_count() > 0, "load never forced a resize");
    assert!(files >= 4, "snapshot copied only {files} files");
    assert!(bytes > 0);
    assert!(
        watermarks.iter().all(|&w| w > 0),
        "some writer never acked anything before the snapshot: {watermarks:?}"
    );

    // The live pool is untouched by the snapshot: still consistent, still
    // writable, and closeable clean.
    let scrub = table.scrub();
    assert!(scrub.clean(), "live table dirty after snapshot: {scrub:?}");
    table.close_pool().unwrap();

    // The snapshot verifies standalone and restores into a fresh dir.
    let manifest = verify_snapshot(&snap).unwrap_or_else(|e| panic!("snapshot corrupt: {e}"));
    assert!(manifest.entries.len() >= 4);
    let (restored, report) =
        Hdnh::restore_snapshot(params(), &snap, &dest, 2).unwrap_or_else(|e| {
            panic!("restore failed: {e}")
        });
    // The snapshot superblock is always written dirty, so the restore ran
    // full recovery on a pre-existing pool image.
    assert!(!report.created);
    assert!(!report.was_clean);
    assert!(report.layout_epoch >= 1);

    // Every write acked before the snapshot began must have survived.
    for (w, &hi) in watermarks.iter().enumerate() {
        for i in 0..hi {
            let k = key_of(w, i);
            let got = restored.get(&Key::from_u64(k)).map(|v| v.as_u64());
            assert_eq!(
                got,
                Some(value_of(k)),
                "writer {w} key {k} was acked before the snapshot but is missing"
            );
        }
    }
    let (reports, live) = restored.verify_integrity_report();
    assert!(reports.iter().all(|r| r.ok), "{reports:?}");
    assert!(live as u64 >= watermarks.iter().sum::<u64>());
    let scrub = restored.scrub();
    assert!(scrub.clean(), "restored table dirty: {scrub:?}");
    restored.close_pool().unwrap();

    // The restored pool also reopens clean afterwards (restore closed it
    // with a clean superblock).
    let (again, report) = Hdnh::open_pool(params(), &dest, 2).unwrap();
    assert!(report.was_clean, "restore must leave a cleanly-closed pool");
    again.close_pool().unwrap();

    for d in [&pool, &snap, &dest] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A second snapshot of the same table into the same directory must be
/// refused (the target is not empty), and snapshotting a heap-backed table
/// is a config error — the documented CLI/BACKUP failure modes.
#[test]
fn snapshot_refuses_bad_targets() {
    let pool = tmp_dir("refuse-pool");
    let snap = tmp_dir("refuse-snap");
    let (table, _) = Hdnh::open_pool(params(), &pool, 2).unwrap();
    for id in 0..100u64 {
        table
            .insert(&Key::from_u64(id), &Value::from_u64(id + 1))
            .unwrap();
    }
    table.snapshot(&snap).unwrap();
    match table.snapshot(&snap) {
        Err(hdnh::HdnhError::Config(msg)) => {
            assert!(msg.contains("snapshot"), "{msg}");
        }
        other => panic!("re-snapshot into a full dir must fail, got {other:?}"),
    }
    table.close_pool().unwrap();

    let heap = Hdnh::new(params());
    match heap.snapshot(&tmp_dir("refuse-heap")) {
        Err(hdnh::HdnhError::Config(_)) => {}
        other => panic!("heap snapshot must be a Config error, got {other:?}"),
    }

    for d in [&pool, &snap] {
        let _ = std::fs::remove_dir_all(d);
    }
}
