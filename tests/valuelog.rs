//! Value-log acceptance test: a forced compaction under a live YCSB-A
//! style workload (50% reads, 50% updates, uniform keys) must reclaim at
//! least half the pre-pass garbage while concurrent readers keep
//! succeeding — they never block on the compactor and never observe a
//! missing or torn value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hdnh::{Hdnh, HdnhError, HdnhParams, HotPolicy};
use hdnh_common::rng::XorShift64Star;
use hdnh_common::Key;

const KEYS: u64 = 256;

/// Self-validating over-inline payload: 8 bytes key, 8 bytes version,
/// then an LCG stream seeded by both — any byte out of place fails
/// [`validate`], so racing reads can check correctness without knowing
/// which concurrent update they observed.
fn payload(k: u64, ver: u64) -> Vec<u8> {
    let n = 64 + ((k ^ ver) % 192) as usize;
    let mut out = vec![0u8; 16 + n];
    out[..8].copy_from_slice(&k.to_le_bytes());
    out[8..16].copy_from_slice(&ver.to_le_bytes());
    let mut x = (k ^ ver.rotate_left(32)) | 1;
    for b in &mut out[16..] {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    out
}

fn validate(k: u64, got: &[u8]) -> bool {
    if got.len() < 16 {
        return false;
    }
    let kk = u64::from_le_bytes(got[..8].try_into().unwrap());
    let ver = u64::from_le_bytes(got[8..16].try_into().unwrap());
    kk == k && got == &payload(k, ver)[..]
}

#[test]
fn compaction_under_live_ycsb_a_reclaims_garbage_without_blocking_reads() {
    let table = Arc::new(Hdnh::new(
        HdnhParams::builder()
            .capacity(10_000)
            .vlog_segment_bytes(16 * 1024)
            .build()
            .unwrap(),
    ));

    // Preload, then overwrite everything twice: about two thirds of the
    // log is now tombstoned.
    for k in 0..KEYS {
        table.insert_bytes(&Key::from_u64(k), &payload(k, 0)).unwrap();
    }
    for ver in 1..=2 {
        for k in 0..KEYS {
            table.update_bytes(&Key::from_u64(k), &payload(k, ver)).unwrap();
        }
    }
    let before = table.vlog_stats();
    assert!(before.garbage_bytes * 2 >= before.used_bytes, "{before:?}");

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..4u64)
        .map(|w| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let mut rng = XorShift64Star::new(0xACE1 + w);
                // Distinct version ranges per worker keep payloads unique.
                let mut ver = 2 + w * 1_000_000;
                let mut owning = false;
                while !stop.load(Ordering::Relaxed) {
                    let k = u64::from(rng.next_below(KEYS as u32));
                    if rng.next_u64() & 1 == 0 {
                        // Alternately the owning read and the visitor: both
                        // re-probe past a segment retired under them.
                        let key = Key::from_u64(k);
                        owning = !owning;
                        let valid = if owning {
                            table.get_bytes(&key).map(|got| got.map(|got| validate(k, &got)))
                        } else {
                            table.get_bytes_with(&key, |got| validate(k, got))
                        };
                        let valid = valid
                            .expect("read must not fail during GC")
                            .expect("key must not vanish during GC");
                        assert!(valid, "torn or forged value for key {k}");
                        reads.fetch_add(1, Ordering::Relaxed);
                    } else {
                        ver += 1;
                        table
                            .update_bytes(&Key::from_u64(k), &payload(k, ver))
                            .expect("update must not fail during GC");
                    }
                }
            })
        })
        .collect();

    // Let the mix get going, force one compaction pass, then require the
    // readers to make another chunk of progress before stopping — if the
    // pass blocked them, this would hang rather than pass vacuously.
    while reads.load(Ordering::Relaxed) < 500 {
        std::thread::yield_now();
    }
    let report = table.compact().unwrap();
    let at_gc_done = reads.load(Ordering::Relaxed);
    while reads.load(Ordering::Relaxed) < at_gc_done + 500 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    assert!(
        report.bytes_reclaimed * 2 >= before.garbage_bytes,
        "reclaimed {} of {} garbage bytes: {report:?}",
        report.bytes_reclaimed,
        before.garbage_bytes
    );
    assert!(report.segments_retired > 0, "{report:?}");

    // Post-GC: every key readable and self-consistent, deep integrity
    // clean, and the report surfaced through the stats plumbing.
    for k in 0..KEYS {
        let got = table.get_bytes(&Key::from_u64(k)).unwrap().unwrap();
        assert!(validate(k, &got), "key {k} unreadable after GC");
    }
    table.verify_integrity().unwrap();
    assert_eq!(table.vlog_stats().last_gc, Some(report));
}

/// Readers do wait on the compactor — for one record at a time. A
/// relocation holds its key's slot lock across the log append
/// (DESIGN.md §17), and a probe backs off on any busy slot of a candidate
/// bucket, so on this deliberately tiny table (48 buckets, 8 of them
/// candidates of every key) one read in six walks past the slot being
/// moved. This pins the size of that wait against the length of a pass:
/// were the lock held for a whole pass (or a quiesce, or an epoch drain),
/// that sixth of the reads timed inside passes would wait half a pass on
/// average and drag the 90th percentile of all of them to about 0.4 of a
/// pass; it must stay under a quarter (measured: between one and two
/// percent). The 90th percentile and the relative bound are what a shared
/// two-core host allows — a preempted read costs a timeslice, and several
/// percent of reads are preempted when the other tests of this binary run
/// alongside — so a few microseconds more per hold do not fail this; the
/// percentiles are printed for that (EXPERIMENTS.md, "Overlapped probes").
/// It runs twelve rounds, and more until 200 reads have fallen inside
/// passes: a pass lasts about half a millisecond, shorter than a
/// timeslice, and while the other tests of this binary hold both cores
/// the readers can miss twelve passes entirely.
#[test]
fn readers_wait_out_one_relocation_not_a_compaction_pass() {
    const LIVE: u64 = 96;
    const LEN: usize = 32 * 1024;
    let big = |k: u64| -> Vec<u8> {
        let mut v = payload(k, 0);
        v.resize(LEN, k as u8);
        v
    };
    let table = Arc::new(Hdnh::new(
        HdnhParams::builder()
            .segment_bytes(4096)
            .initial_bottom_segments(1)
            .vlog_segment_bytes(256 * 1024)
            .build()
            .unwrap(),
    ));
    for k in 0..LIVE {
        table.insert_bytes(&Key::from_u64(k), &big(k)).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let in_pass = Arc::new(AtomicBool::new(false));
    let inside = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..2u64)
        .map(|w| {
            let (table, stop, in_pass) = (Arc::clone(&table), Arc::clone(&stop), Arc::clone(&in_pass));
            let inside = Arc::clone(&inside);
            std::thread::spawn(move || {
                let mut rng = XorShift64Star::new(0xFEED + w);
                let mut timed_ns = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let k = u64::from(rng.next_below(LIVE as u32));
                    let during = in_pass.load(Ordering::Relaxed);
                    let t = std::time::Instant::now();
                    let got = table.get_bytes(&Key::from_u64(k)).unwrap().expect("live key");
                    let ns = t.elapsed().as_nanos() as u64;
                    assert!(got.len() == LEN && validate(k, &got[..payload(k, 0).len()]));
                    if during && in_pass.load(Ordering::Relaxed) {
                        timed_ns.push(ns);
                        inside.fetch_add(1, Ordering::Relaxed);
                    }
                }
                timed_ns
            })
        })
        .collect();
    // Each round rewrites every third value (the old copies become
    // garbage spread over every segment), then a pass moves the rest.
    let (mut relocated, mut pass_ns) = (0, 0u64);
    const ROUNDS: u64 = 12;
    let mut round = 0;
    while round < ROUNDS || inside.load(Ordering::Relaxed) < 200 {
        assert!(round < 50 * ROUNDS, "readers never ran inside {round} passes");
        for k in (round % 3..LIVE).step_by(3) {
            table.update_bytes(&Key::from_u64(k), &big(k)).unwrap();
        }
        in_pass.store(true, Ordering::Relaxed);
        let t = std::time::Instant::now();
        relocated += table.compact().unwrap().records_relocated;
        pass_ns += t.elapsed().as_nanos() as u64;
        in_pass.store(false, Ordering::Relaxed);
        round += 1;
    }
    let pass_ns = pass_ns / round;
    stop.store(true, Ordering::Relaxed);
    let mut timed_ns: Vec<u64> = readers.into_iter().flat_map(|r| r.join().unwrap()).collect();
    timed_ns.sort_unstable();
    assert!(relocated >= 100, "the passes must have had records to move: {relocated}");
    assert!(timed_ns.len() >= 200, "only {} reads ran inside a pass", timed_ns.len());
    let pct = |p: usize| timed_ns[(timed_ns.len() - 1) * p / 100];
    eprintln!(
        "pass={pass_ns}ns ({relocated} records moved); reads inside passes: n={} p50={}ns p90={}ns p95={}ns p97={}ns p99={}ns max={}ns",
        timed_ns.len(),
        pct(50),
        pct(90),
        pct(95),
        pct(97),
        pct(99),
        pct(100)
    );
    assert!(
        pct(90) < pass_ns / 4,
        "p90 read {} ns against a {pass_ns} ns pass: readers parked behind the compactor",
        pct(90)
    );
    table.verify_integrity().unwrap();
}

/// A `SET` of a key that does not exist yet stages its value once and
/// publishes that log record from the one probe that found the key
/// absent. A second append would show as used bytes and as garbage.
#[test]
fn fresh_key_spilled_upsert_appends_once() {
    let table = Hdnh::new(HdnhParams::builder().capacity(1_000).build().unwrap());
    let key = Key::from_u64(1);
    let fp = hdnh::vlog::footprint(200) as u64;
    table.upsert_bytes(&key, &[9u8; 200]).unwrap();
    let fresh = table.vlog_stats();
    assert_eq!((fresh.used_bytes, fresh.garbage_bytes), (fp, 0), "{fresh:?}");
    assert_eq!(table.get_bytes(&key).unwrap().unwrap(), vec![9u8; 200]);
    // The same call on the now-present key is an update: one more record,
    // and the replaced one tombstoned.
    table.upsert_bytes(&key, &[8u8; 200]).unwrap();
    let replaced = table.vlog_stats();
    assert_eq!((replaced.used_bytes, replaced.garbage_bytes), (2 * fp, fp), "{replaced:?}");
    assert_eq!(table.get_bytes(&key).unwrap().unwrap(), vec![8u8; 200]);
    table.verify_integrity().unwrap();
}

/// An upsert and a remove of one key released together, round after
/// round: the upsert's staged record must end up either published or
/// tombstoned whichever way each round falls (the upsert replaces, or
/// finds the key already removed and places it), so that after a last
/// upsert the only bytes not tombstoned are that value's.
#[test]
fn upsert_racing_a_remove_converges() {
    const ROUNDS: u64 = 2_000;
    // The default 4 MiB segment holds the whole run: no segment seals, so
    // `live_bytes` counts records only.
    let table = Hdnh::new(HdnhParams::builder().capacity(1_000).build().unwrap());
    let key = Key::from_u64(7);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..ROUNDS {
                start.wait();
                table.remove(&key).unwrap();
            }
        });
        for round in 0..ROUNDS {
            start.wait();
            table.upsert_bytes(&key, &payload(7, round)).unwrap();
            if let Some(got) = table.get_bytes(&key).unwrap() {
                assert!(validate(7, &got), "torn or forged value in round {round}");
            }
        }
    });
    let last = payload(7, ROUNDS);
    table.upsert_bytes(&key, &last).unwrap();
    assert_eq!(table.get_bytes(&key).unwrap().unwrap(), last);
    assert_eq!(table.len(), 1);
    let stats = table.vlog_stats();
    assert_eq!(stats.live_bytes, hdnh::vlog::footprint(last.len()) as u64, "{stats:?}");
    table.verify_integrity().unwrap();
}

/// Deterministic payload in one of three size classes: inline, a 200 B
/// spill, a 64 KiB spill that needs a segment of its own.
fn sized_payload(k: u64, ver: u64) -> Vec<u8> {
    let n = match (k + ver) % 8 {
        7 => 64 * 1024,
        c if c % 2 == 0 => 200,
        _ => 9,
    };
    (0..n).map(|i| (k * 131 + ver * 17 + i as u64) as u8).collect()
}

/// "No NVM count moved" as a tier-1 check: one single-threaded script over
/// every value-log path, with the media counters after each phase pinned
/// to recorded values. A change that adds, drops or resizes one media
/// access anywhere under `insert`/`update`/`upsert`/`get`/`remove`/
/// resize/`compact` moves a number here.
///
/// The rows were first recorded at the commit before the table-driven
/// CRC-32. They were re-recorded for three deliberate changes, each
/// isolated by building it alone on the commit before it:
///
/// * a fresh-key spilled `upsert_bytes` appends its value once, not twice:
///   from the upsert phase on, the 25 duplicate appends are gone
///   (−25 fences, −5 205 lines written and flushed, −327 800 `used_bytes`;
///   one 64 KiB value now straddles one media block fewer when read).
///   With only this change the compact row read `[754, 8187, 31477,
///   31477, 1238]` and the last row `[1112, 16050, ..]`;
/// * the compactor decides liveness and relocates in one probe instead of
///   a `get` plus a guarded update: the compact phase issues 65 fewer
///   reads (754 → 689, a block each) and exactly the same writes, flushes
///   and fences. It also no longer pulls every record it visits into the
///   hot table, so the reads after it find 10 fewer keys cached
///   (358 → 368 reads for the same 300 gets);
/// * an upsert is one probe whether the key is there or not: the 40
///   fresh-key upserts (ids 240..280) no longer walk their candidate
///   buckets a second time for the insert's duplicate check, and the 9
///   fingerprint false positives that walk re-read are gone — 9 reads, a
///   block each, off the upsert row (145 → 136) and carried down every
///   later row. Lines written, flushes, fences and `used_bytes` are
///   identical in every row;
/// * the compactor sweeps the index for pointers into its victims instead
///   of walking the victims' records and probing each key. The same 97
///   records move and the same 68 victims retire. The levels now pay one
///   read (a 256-byte block) per bucket holding a valid slot, where they
///   paid one record read (a block) per victim record probed, dead ones
///   included; the record reads move to the victims, whose counters
///   retire with them: 125 reads and 125 blocks fewer (680 → 555,
///   8113 → 7988). Records move in bucket order rather than log order,
///   so one of them now finds its free slot in its own bucket and commits
///   with one 8-byte header write and one fence fewer (1238 → 1237); the
///   lines written come out equal. The gets after the pass cost exactly
///   what they did (368 reads, 7873 blocks).
#[test]
fn nvm_counts_match_the_recorded_ledger() {
    // LRU, not RAFL: RAFL's eviction RNG is seeded from a process-global
    // thread counter, which would let test scheduling pick hot victims.
    let t = Hdnh::new(
        HdnhParams::builder()
            .segment_bytes(1024)
            .initial_bottom_segments(1)
            .hot_policy(HotPolicy::Lru)
            .vlog_segment_bytes(16 * 1024)
            .build()
            .unwrap(),
    );
    let key = Key::from_u64;
    let mut ledger = Vec::new();
    let mut checkpoint = |t: &Hdnh| {
        let s = t.nvm_stats();
        let row = [s.reads, s.read_blocks, s.write_lines, s.flushes, s.fences];
        ledger.push((row, t.vlog_stats().used_bytes));
    };

    for k in 0..240 {
        t.insert_bytes(&key(k), &sized_payload(k, 0)).unwrap();
    }
    assert!(t.resize_count() > 0, "the script must force a resize");
    checkpoint(&t);

    // Updates cross size classes both ways; upserts hit and miss.
    for k in (0..240).step_by(3) {
        t.update_bytes(&key(k), &sized_payload(k, 1)).unwrap();
    }
    for k in 200..280 {
        t.upsert_bytes(&key(k), &sized_payload(k, 2)).unwrap();
    }
    assert!(matches!(
        t.update_bytes(&key(999), &sized_payload(999, 0)),
        Err(HdnhError::KeyNotFound)
    ));
    checkpoint(&t);

    let version = |k: u64| match k {
        200..=279 => Some(2),
        0..=199 => Some(u64::from(k.is_multiple_of(3))),
        _ => None,
    };
    for k in 0..300 {
        let want = version(k).map(|ver| sized_payload(k, ver));
        assert_eq!(t.get_bytes(&key(k)).unwrap(), want, "key {k}");
    }
    checkpoint(&t);

    for k in (0..280).step_by(5) {
        assert!(t.remove(&key(k)).unwrap());
    }
    checkpoint(&t);

    let report = t.compact().unwrap();
    assert!(report.segments_retired > 0 && report.records_relocated > 0, "{report:?}");
    checkpoint(&t);

    for k in 0..300 {
        let want = version(k).filter(|_| !k.is_multiple_of(5)).map(|ver| sized_payload(k, ver));
        assert_eq!(t.get_bytes(&key(k)).unwrap(), want, "key {k} after compaction");
    }
    checkpoint(&t);
    t.verify_integrity().unwrap();

    // ([reads, read_blocks, write_lines, flushes, fences], vlog used_bytes)
    let recorded = [
        ([7u64, 7, 31849, 31849, 665], 2458320u64), // inserts (levels replaced by resizes)
        ([136, 136, 54086, 54086, 1094], 4179144),  // updates + upserts
        ([581, 9901, 54086, 54086, 1094], 4179144), // gets, hit and miss
        ([639, 9959, 54142, 54142, 1150], 4179144), // removes
        ([555, 7988, 31477, 31477, 1237], 2004920), // compact (victims' counters retire)
        ([923, 15861, 31477, 31477, 1237], 2004920), // gets after compaction
    ];
    assert_eq!(ledger, recorded);
}

/// Four writers and one compactor on 64 keys for a fixed number of ops:
/// every same-key out-of-place update and every guarded GC relocation is a
/// window in which a writer's probe can miss both copies. No update may
/// report `KeyNotFound`, no key may end up duplicated, and every key stays
/// readable.
#[test]
fn writers_and_compactor_on_few_keys_never_lose_or_duplicate_a_key() {
    const STRESS_KEYS: u64 = 64;
    const OPS_PER_WRITER: u64 = 20_000;
    let table = Arc::new(Hdnh::new(
        HdnhParams::builder()
            .capacity(10_000)
            .vlog_segment_bytes(16 * 1024)
            .build()
            .unwrap(),
    ));
    for k in 0..STRESS_KEYS {
        table.insert_bytes(&Key::from_u64(k), &payload(k, 0)).unwrap();
    }
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let table = Arc::clone(&table);
                s.spawn(move || {
                    let mut rng = XorShift64Star::new(0xBEEF + w);
                    for i in 1..=OPS_PER_WRITER {
                        let k = u64::from(rng.next_below(STRESS_KEYS as u32));
                        let ver = w * 1_000_000 + i;
                        // `update`, not `upsert`: a spurious miss must surface
                        // here instead of turning into a duplicate insert.
                        table
                            .update_bytes(&Key::from_u64(k), &payload(k, ver))
                            .unwrap_or_else(|e| panic!("update of key {k} failed: {e}"));
                        if i % 8 == 0 {
                            let got = table.get_bytes(&Key::from_u64(k)).unwrap().unwrap();
                            assert!(validate(k, &got), "torn or forged value for key {k}");
                        } else if i % 8 == 4 {
                            let valid = table.get_bytes_with(&Key::from_u64(k), |got| validate(k, got));
                            assert!(valid.unwrap().unwrap(), "torn or forged value for key {k}");
                        }
                    }
                })
            })
            .collect();
        // This thread is the compactor, for as long as any writer runs (a
        // writer that panicked has finished too; the scope re-raises it).
        while !writers.iter().all(|w| w.is_finished()) {
            table.compact().unwrap();
        }
    });
    assert_eq!(table.len(), STRESS_KEYS as usize);
    for k in 0..STRESS_KEYS {
        let got = table.get_bytes(&Key::from_u64(k)).unwrap().unwrap();
        assert!(validate(k, &got), "key {k} unreadable after the stress");
    }
    // Includes the duplicate-key audit.
    table.verify_integrity().unwrap();
}

/// A 232-byte payload (a 256-byte log footprint, so 64 records fill a
/// 16 KiB segment exactly and no segment has slack) that [`validate_232`]
/// checks for key and version.
fn payload_232(k: u64, ver: u64) -> Vec<u8> {
    let mut out = payload(k, ver);
    out.resize(232, (k ^ ver) as u8);
    out
}

fn validate_232(k: u64, got: &[u8]) -> bool {
    got.len() == 232 && got[..8] == k.to_le_bytes() && {
        let ver = u64::from_le_bytes(got[8..16].try_into().unwrap());
        got == &payload_232(k, ver)[..]
    }
}

/// The compactor's sweep racing resizes: two writers insert fresh keys
/// into a tiny table (96 slots to begin with), overwrite and remove their
/// own, while this thread compacts back to back. A resize during a pass
/// restarts the sweep on the grown table. No key may be lost or
/// duplicated, and the log's books must close exactly: every live value
/// is one 256-byte record, so the bytes not tombstoned are exactly 256
/// per live key, and a last pass with nobody racing retires every victim.
#[test]
fn sweep_racing_resizes_never_loses_a_key_and_closes_the_books() {
    const STEPS: u64 = 3_000;
    const RECORD: u64 = 256;
    let table = Hdnh::new(
        HdnhParams::builder()
            .segment_bytes(1024)
            .initial_bottom_segments(1)
            .vlog_segment_bytes(16 * 1024)
            .build()
            .unwrap(),
    );
    assert_eq!(hdnh::vlog::footprint(232) as u64, RECORD);
    let resizes_at_start = table.resize_count();
    let (mut passes, mut resized_in_pass) = (0u64, 0u64);
    let expected: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let table = &table;
                s.spawn(move || {
                    // Key `k` belongs to writer `k % 2`; its live keys and
                    // the version each holds.
                    let mut live = BTreeMap::new();
                    let mut rng = XorShift64Star::new(0x5EE9 + w);
                    let mut next = w;
                    let pick = |rng: &mut XorShift64Star, live: &BTreeMap<u64, u64>| {
                        let i = rng.next_below(live.len() as u32) as usize;
                        *live.keys().nth(i).unwrap()
                    };
                    for step in 1..=STEPS {
                        match rng.next_below(10) {
                            0..=4 => {
                                let value = payload_232(next, step);
                                table.insert_bytes(&Key::from_u64(next), &value).unwrap();
                                live.insert(next, step);
                                next += 2;
                            }
                            5..=7 if !live.is_empty() => {
                                let k = pick(&mut rng, &live);
                                let value = payload_232(k, step);
                                table.update_bytes(&Key::from_u64(k), &value).unwrap();
                                live.insert(k, step);
                            }
                            _ if !live.is_empty() => {
                                let k = pick(&mut rng, &live);
                                assert!(table.remove(&Key::from_u64(k)).unwrap(), "key {k} lost");
                                live.remove(&k);
                            }
                            _ => {}
                        }
                    }
                    live
                })
            })
            .collect();
        while !writers.iter().all(|w| w.is_finished()) {
            let before = table.resize_count();
            table.compact().unwrap();
            passes += 1;
            resized_in_pass += u64::from(table.resize_count() != before);
        }
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(table.resize_count() - resizes_at_start >= 3, "the writers must grow the table");
    assert!(resized_in_pass > 0, "no resize overlapped any of {passes} passes");
    let live: usize = expected.iter().map(|m| m.len()).sum();
    assert_eq!(table.len(), live);
    for (k, ver) in expected.iter().flatten() {
        let got = table.get_bytes(&Key::from_u64(*k)).unwrap();
        let got = got.unwrap_or_else(|| panic!("key {k} lost"));
        assert!(validate_232(*k, &got) && got == payload_232(*k, *ver), "key {k}: stale or torn");
    }
    // Includes the duplicate-key audit.
    table.verify_integrity().unwrap();
    let stats = table.vlog_stats();
    assert_eq!(stats.live_bytes, RECORD * live as u64, "{stats:?}");
    let last = table.compact().unwrap();
    assert_eq!(last.segments_retired, last.victims, "{last:?}");
    let stats = table.vlog_stats();
    assert_eq!(stats.live_bytes, RECORD * live as u64, "{stats:?}");
    table.verify_integrity().unwrap();
}
