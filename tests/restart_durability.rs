//! Restart durability for the file-backed pool backend: a table opened on
//! a pool directory must come back after a drop (dirty reopen → recovery)
//! and after a clean close (clean reopen → no recovery), including across
//! resizes, and a damaged superblock must never open clean.

#![allow(clippy::needless_update)]

use std::path::PathBuf;

use hdnh::{Hdnh, HdnhError, HdnhParams};
use hdnh_common::{Key, Value};
use proptest::prelude::*;

fn tmp_pool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdnh-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn params(capacity: usize) -> HdnhParams {
    HdnhParams::builder().capacity(capacity).build().unwrap()
}

fn fill(table: &Hdnh, range: std::ops::Range<u64>) {
    for id in range {
        table
            .insert(&Key::from_u64(id), &Value::from_u64(id * 3 + 1))
            .unwrap_or_else(|e| panic!("insert {id}: {e}"));
    }
}

fn check(table: &Hdnh, range: std::ops::Range<u64>) {
    for id in range {
        let got = table.get(&Key::from_u64(id)).unwrap().map(|v| v.as_u64());
        assert_eq!(got, Some(id * 3 + 1), "key {id} wrong after reopen");
    }
}

#[test]
fn clean_close_then_reopen_skips_recovery_and_keeps_data() {
    let dir = tmp_pool("clean");
    let (table, report) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    assert!(report.created);
    fill(&table, 0..1_000);
    table.close_pool().unwrap();

    let (table, report) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    assert!(!report.created);
    assert!(report.was_clean, "clean close must set the clean flag");
    assert_eq!(table.len(), 1_000);
    check(&table, 0..1_000);
    let (reports, live) = table.verify_integrity_report();
    assert_eq!(live, 1_000);
    assert!(reports.iter().all(|r| r.ok), "{reports:?}");
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_table_reopens_dirty_and_recovers_every_record() {
    let dir = tmp_pool("dirty");
    let (table, _) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    fill(&table, 0..1_500);
    // Simulated kill: no close_pool, the superblock stays dirty.
    drop(table);

    let (table, report) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    assert!(!report.was_clean, "a dropped pool must reopen via recovery");
    assert_eq!(table.len(), 1_500);
    check(&table, 0..1_500);
    let scrub = table.scrub();
    assert!(scrub.clean(), "{scrub:?}");
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resize state word the format does not define (1 = stable, 2 =
/// allocating, 3 = rehashing) is a damaged meta block, not a stable pool:
/// the open fails typed and writes nothing, and the pool opens again once
/// the word is repaired.
#[test]
fn an_unknown_resize_state_word_is_a_typed_error() {
    let dir = tmp_pool("stateword");
    let (table, _) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    fill(&table, 0..100);
    drop(table);
    let meta = dir.join(hdnh_nvm::META_FILE);
    let pristine = std::fs::read(&meta).unwrap();
    let superblock = std::fs::read(dir.join(hdnh::SUPERBLOCK_FILE)).unwrap();
    let mut damaged = pristine.clone();
    // The state word is the meta block's second 8-byte word.
    damaged[8..16].copy_from_slice(&7u64.to_le_bytes());
    std::fs::write(&meta, &damaged).unwrap();
    match Hdnh::open_pool(params(2_000), &dir, 2) {
        Err(HdnhError::Recovery(msg)) => assert!(msg.contains("state word 7"), "{msg}"),
        Err(other) => panic!("expected a Recovery error, got {other:?}"),
        Ok(_) => panic!("a pool with resize state word 7 opened"),
    }
    assert_eq!(std::fs::read(dir.join(hdnh::SUPERBLOCK_FILE)).unwrap(), superblock);

    std::fs::write(&meta, &pristine).unwrap();
    let (table, report) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    assert!(!report.was_clean);
    check(&table, 0..100);
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One opener at a time. While a table opened from the pool lives, a second
/// open — and a restore aimed at the same directory — fails with a typed
/// error naming the directory, and changes nothing: the layout epoch the
/// first opener wrote is still there. A clean close, or a drop, frees it.
#[test]
fn a_second_open_fails_while_the_first_lives() {
    let dir = tmp_pool("locked");
    let is_locked_out = |r: Result<(Hdnh, hdnh::PoolOpenReport), HdnhError>| match r {
        Err(HdnhError::Io(msg)) => {
            assert!(msg.contains("lock") && msg.contains(dir.to_str().unwrap()), "{msg}")
        }
        Err(other) => panic!("expected the lock's Io error, got {other:?}"),
        Ok(_) => panic!("a second handle on an open pool"),
    };
    let (table, created) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    fill(&table, 0..200);
    is_locked_out(Hdnh::open_pool(params(2_000), &dir, 2));
    let snap = tmp_pool("locked-snap");
    table.snapshot(&snap).unwrap();
    is_locked_out(Hdnh::restore_snapshot(params(2_000), &snap, &dir, 2));
    table.close_pool().unwrap();

    let (table, report) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    assert!(report.was_clean, "the refused openers left the superblock alone");
    assert_eq!(report.layout_epoch, created.layout_epoch + 1);
    check(&table, 0..200);
    is_locked_out(Hdnh::open_pool(params(2_000), &dir, 2));
    drop(table);
    let (table, report) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    assert!(!report.was_clean);
    check(&table, 0..200);
    table.close_pool().unwrap();
    for d in [&dir, &snap] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn resize_survives_both_clean_and_dirty_reopen() {
    let dir = tmp_pool("resize");
    let (table, _) = Hdnh::open_pool(params(1_000), &dir, 2).unwrap();
    // Overfill well past the initial capacity to force at least one resize.
    fill(&table, 0..6_000);
    assert!(table.resize_count() > 0, "test did not trigger a resize");
    table.close_pool().unwrap();

    let (table, report) = Hdnh::open_pool(params(1_000), &dir, 2).unwrap();
    assert!(report.was_clean);
    check(&table, 0..6_000);
    // Grow again, then crash-drop on the post-resize geometry.
    fill(&table, 6_000..9_000);
    drop(table);

    let (table, report) = Hdnh::open_pool(params(1_000), &dir, 2).unwrap();
    assert!(!report.was_clean);
    assert_eq!(table.len(), 9_000);
    check(&table, 0..9_000);
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Variable-length values across restarts: inline and spilled payloads
/// (up to the 64 KiB acceptance size) survive a clean close, a compaction,
/// and a dirty reopen's recovery, byte-identical.
#[test]
fn spilled_values_survive_clean_and_dirty_reopen() {
    let dir = tmp_pool("vlog");
    let payload = |id: u64| -> Vec<u8> {
        let n = match id % 4 {
            0 => 8, // inline
            1 => 100,
            2 => 4096,
            _ => 64 * 1024,
        };
        (0..n).map(|i| (id as usize * 31 + i * 7) as u8).collect()
    };
    // After the writes below: keys 0..100 overwritten, 150..170 removed.
    let expected = |id: u64| -> Option<Vec<u8>> {
        if (150..170).contains(&id) {
            None
        } else if id < 100 {
            Some(payload(id + 1000))
        } else {
            Some(payload(id))
        }
    };

    let (table, _) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    for id in 0..200u64 {
        table.insert_bytes(&Key::from_u64(id), &payload(id)).unwrap();
    }
    for id in 0..100u64 {
        // `id + 1000` keeps the size class (1000 % 4 == 0) but changes
        // every byte, so a stale read cannot pass by length alone.
        table.update_bytes(&Key::from_u64(id), &payload(id + 1000)).unwrap();
    }
    for id in 150..170u64 {
        assert!(table.remove(&Key::from_u64(id)).unwrap());
    }
    table.close_pool().unwrap();

    // Clean reopen: no recovery, every byte back.
    let (table, report) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    assert!(report.was_clean, "clean close must set the clean flag");
    for id in 0..200u64 {
        assert_eq!(
            table.get_bytes(&Key::from_u64(id)).unwrap(),
            expected(id),
            "key {id} after clean reopen"
        );
    }

    // Compact (the overwrites and removes left garbage), then pull the
    // plug: a dirty reopen must rebuild the log accounting from the
    // surviving segments and still serve every byte.
    let gc = table.compact().unwrap();
    assert!(gc.bytes_reclaimed > 0, "{gc:?}");
    for id in 0..200u64 {
        assert_eq!(
            table.get_bytes(&Key::from_u64(id)).unwrap(),
            expected(id),
            "key {id} after compaction"
        );
    }
    drop(table);

    let (table, report) = Hdnh::open_pool(params(5_000), &dir, 2).unwrap();
    assert!(!report.was_clean, "dropped table must reopen dirty");
    for id in 0..200u64 {
        assert_eq!(
            table.get_bytes(&Key::from_u64(id)).unwrap(),
            expected(id),
            "key {id} after dirty reopen"
        );
    }
    let (reports, _) = table.verify_integrity_report();
    assert!(reports.iter().all(|r| r.ok), "{reports:?}");
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// On-media compatibility across the slot-checksum kernel change: two pool
/// directories written by the commit before it (`tests/fixtures/`, one
/// closed cleanly, one `kill -9`ed; 120 keys of 9 B inline / 40 B and
/// 200 B spilled values inserted through a resize, every fourth
/// overwritten, every seventh removed) must reopen, read back exactly,
/// scrub clean, pass the integrity audit, and survive a compaction.
#[test]
fn pools_written_by_the_parent_commit_reopen_scrub_and_verify() {
    let payload = |k: u64, ver: u64| -> Vec<u8> {
        let n = match k % 3 {
            0 => 200,
            1 => 9,
            _ => 40,
        };
        (0..n).map(|i| (k * 131 + ver * 17 + i as u64) as u8).collect()
    };
    let expected =
        |k: u64| (!k.is_multiple_of(7)).then(|| payload(k, u64::from(k.is_multiple_of(4))));
    for (name, clean) in [("parent-pool-clean", true), ("parent-pool-killed", false)] {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        // Opening writes (superblock, recovery): work on a copy.
        let dir = tmp_pool(name);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&fixture).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        let params = HdnhParams::builder()
            .segment_bytes(1024)
            .initial_bottom_segments(1)
            .vlog_segment_bytes(8192)
            .build()
            .unwrap();
        let (table, report) = Hdnh::open_pool(params, &dir, 2)
            .unwrap_or_else(|e| panic!("{name}: the parent's pool does not open: {e}"));
        assert!(!report.created, "{name}");
        assert_eq!(report.was_clean, clean, "{name}");
        let read_back = |table: &Hdnh, when: &str| {
            for k in 0..120u64 {
                let got = table.get_bytes(&Key::from_u64(k)).unwrap();
                assert_eq!(got, expected(k), "{name}: key {k} {when}");
            }
        };
        read_back(&table, "after reopen");
        let scrub = table.scrub();
        assert!(scrub.clean(), "{name}: {scrub:?}");
        let (reports, live) = table.verify_integrity_report();
        assert!(reports.iter().all(|r| r.ok), "{name}: {reports:?}");
        assert_eq!(live, (0..120u64).filter(|k| !k.is_multiple_of(7)).count(), "{name}");
        // The overwrites and removes left garbage: relocate the parent's
        // log records with this build's compactor.
        let gc = table.compact().unwrap();
        assert!(gc.records_relocated > 0, "{name}: {gc:?}");
        read_back(&table, "after compaction");
        table.verify_integrity().unwrap();
        table.close_pool().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Shared fixture for the superblock-damage property: the pool directory
/// and its pristine superblock bytes (the shim's `proptest!` expands to a
/// plain fn, which cannot capture locals).
static SB_CTX: std::sync::OnceLock<(PathBuf, Vec<u8>)> = std::sync::OnceLock::new();

/// A pool whose superblock is damaged — any single bit flip or any
/// truncation — must fail to open with a typed error, never open clean.
#[test]
fn damaged_superblock_never_opens() {
    let dir = tmp_pool("sbdamage");
    let (table, _) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    fill(&table, 0..100);
    table.close_pool().unwrap();
    let sb_path = dir.join(hdnh::SUPERBLOCK_FILE);
    let pristine = std::fs::read(&sb_path).unwrap();
    SB_CTX.set((dir.clone(), pristine.clone())).unwrap();

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        fn damage_case(bit in 0usize..(64 * 8), cut in 0usize..64) {
            let (dir, pristine) = SB_CTX.get().unwrap();
            let sb_path = dir.join(hdnh::SUPERBLOCK_FILE);
            // Bit flip.
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&sb_path, &bytes).unwrap();
            prop_assert!(
                Hdnh::open_pool(params(2_000), dir, 2).is_err(),
                "bit {bit} flip opened anyway"
            );
            // Truncation.
            std::fs::write(&sb_path, &pristine[..cut]).unwrap();
            prop_assert!(
                Hdnh::open_pool(params(2_000), dir, 2).is_err(),
                "truncation to {cut} bytes opened anyway"
            );
            std::fs::write(&sb_path, pristine).unwrap();
        }
    }
    damage_case();

    // The pristine superblock still opens (damage was the only problem).
    let (table, report) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    assert!(report.was_clean);
    check(&table, 0..100);
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fixture for the mismatch property below (same OnceLock workaround).
static MM_CTX: std::sync::OnceLock<(PathBuf, Vec<u8>)> = std::sync::OnceLock::new();

/// A *CRC-valid* superblock whose version or `segment_bytes` disagrees
/// with this build/these params must be rejected with a typed
/// `HdnhError::Recovery` — never a panic, never a size-classification
/// abort deeper in recovery. (The CRC is re-sealed after each patch, so
/// only the semantic checks can reject these blocks.)
#[test]
fn mismatched_superblock_rejected_with_typed_error() {
    let dir = tmp_pool("sbmismatch");
    let (table, _) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    fill(&table, 0..50);
    table.close_pool().unwrap();
    let sb_path = dir.join(hdnh::SUPERBLOCK_FILE);
    let pristine = std::fs::read(&sb_path).unwrap();
    MM_CTX.set((dir.clone(), pristine.clone())).unwrap();

    fn reseal(bytes: &mut [u8]) {
        let crc = hdnh::crc32_ieee(&bytes[..60]);
        bytes[60..64].copy_from_slice(&crc.to_le_bytes());
    }
    fn open_is_typed_recovery(dir: &std::path::Path) -> Result<(), String> {
        let dir = dir.to_path_buf();
        match std::panic::catch_unwind(move || Hdnh::open_pool(params(2_000), &dir, 2)) {
            Err(_) => Err("open panicked".into()),
            Ok(Ok(_)) => Err("mismatched superblock opened anyway".into()),
            Ok(Err(HdnhError::Recovery(_))) => Ok(()),
            Ok(Err(other)) => Err(format!("expected Recovery error, got {other:?}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        fn mismatch_case(version in 0u32..1_000_000, seg_shift in 1u64..16, add in 1u64..4096) {
            let (dir, pristine) = MM_CTX.get().unwrap();
            let sb_path = dir.join(hdnh::SUPERBLOCK_FILE);
            let real_seg = u64::from_le_bytes(pristine[16..24].try_into().unwrap());

            // Wrong version, CRC valid.
            if version != 1 {
                let mut bytes = pristine.clone();
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
                reseal(&mut bytes);
                std::fs::write(&sb_path, &bytes).unwrap();
                prop_assert!(open_is_typed_recovery(dir).is_ok(),
                    "version {version}: {:?}", open_is_typed_recovery(dir));
            }

            // Wrong segment_bytes (both power-of-two-ish shifts and odd
            // offsets), CRC valid.
            for wrong in [real_seg << seg_shift, real_seg + add] {
                if wrong == real_seg {
                    continue;
                }
                let mut bytes = pristine.clone();
                bytes[16..24].copy_from_slice(&wrong.to_le_bytes());
                reseal(&mut bytes);
                std::fs::write(&sb_path, &bytes).unwrap();
                prop_assert!(open_is_typed_recovery(dir).is_ok(),
                    "segment_bytes {wrong}: {:?}", open_is_typed_recovery(dir));
            }
            std::fs::write(&sb_path, pristine).unwrap();
        }
    }
    mismatch_case();

    // Params that disagree with an honest superblock are typed too.
    let bad_params = HdnhParams {
        segment_bytes: params(2_000).segment_bytes * 2,
        ..params(2_000)
    };
    match Hdnh::open_pool(bad_params, &dir, 2) {
        Err(HdnhError::Recovery(msg)) => {
            assert!(msg.contains("segment_bytes"), "{msg}");
        }
        other => panic!("expected Recovery error, got {other:?}"),
    }

    let (table, _) = Hdnh::open_pool(params(2_000), &dir, 2).unwrap();
    check(&table, 0..50);
    table.close_pool().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
