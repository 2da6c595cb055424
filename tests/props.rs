//! Property-based tests (proptest) over the core data structures and
//! invariants: random op sequences vs an oracle for every scheme, codec
//! roundtrips, region semantics, and distribution sanity.

// The `.. ProptestConfig::default()` spread is redundant against the local
// proptest shim (one field) but required by the real crate; keep the
// portable spelling.
#![allow(clippy::needless_update)]

use std::collections::HashMap;

use hdnh::{Hdnh, HdnhParams, HotPolicy};
use hdnh_common::{HashIndex, Key, Record, Value, RECORD_LEN};
use hdnh_nvm::{NvmOptions, NvmRegion};
use hdnh_ycsb::KeySpace;
use proptest::prelude::*;

/// Abstract operation for model-based testing.
#[derive(Clone, Debug)]
enum MOp {
    Insert(u16, u32),
    Update(u16, u32),
    Upsert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn mop_strategy() -> impl Strategy<Value = MOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MOp::Insert(k % 512, v)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MOp::Update(k % 512, v)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MOp::Upsert(k % 512, v)),
        any::<u16>().prop_map(|k| MOp::Remove(k % 512)),
        any::<u16>().prop_map(|k| MOp::Get(k % 512)),
    ]
}

fn check_against_oracle(idx: &dyn HashIndex, ops: &[MOp]) {
    let mut oracle: HashMap<u16, u32> = HashMap::new();
    for op in ops {
        match op {
            MOp::Insert(id, val) => {
                let res = idx.insert(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64));
                assert_eq!(res.is_ok(), !oracle.contains_key(id), "{op:?}");
                if res.is_ok() {
                    oracle.insert(*id, *val);
                }
            }
            MOp::Update(id, val) => {
                let res = idx.update(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64));
                assert_eq!(res.is_ok(), oracle.contains_key(id), "{op:?}");
                if res.is_ok() {
                    oracle.insert(*id, *val);
                }
            }
            MOp::Upsert(id, val) => {
                idx.upsert(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64))
                    .unwrap_or_else(|e| panic!("{op:?}: {e}"));
                oracle.insert(*id, *val);
            }
            MOp::Remove(id) => {
                assert_eq!(
                    idx.remove(&Key::from_u64(*id as u64)),
                    oracle.remove(id).is_some(),
                    "{op:?}"
                );
            }
            MOp::Get(id) => {
                assert_eq!(
                    idx.get(&Key::from_u64(*id as u64)).map(|v| v.as_u64()),
                    oracle.get(id).map(|&v| v as u64),
                    "{op:?}"
                );
            }
        }
    }
    assert_eq!(idx.len(), oracle.len());
}

/// A seed is the trace: `generate_ops` is a pure function of its five
/// arguments, so a stream replays from them alone — provided the generator
/// itself does not drift between versions. Each constant is the CRC-32 of a
/// shell mix's stream, encoded as (tag, id, seq), as the generator produced
/// it when saved op traces were retired; a change to the distributions, the
/// rng or the mix thresholds fails here.
#[test]
fn seeded_streams_match_their_recorded_hashes() {
    use hdnh_ycsb::{generate_ops, Op, WorkloadSpec};
    for (mix, spec, want) in [
        ('a', WorkloadSpec::ycsb_a(), 0x1d75_82b3),
        ('b', WorkloadSpec::ycsb_b(), 0x4283_340c),
        ('c', WorkloadSpec::ycsb_c(), 0x74a5_52d1),
        ('f', WorkloadSpec::ycsb_f(), 0x0c7a_09c5),
    ] {
        let mut bytes = Vec::new();
        for op in generate_ops(&spec, 10_000, 10_000, 20_000, 0xC11) {
            let (tag, id, seq) = match op {
                Op::Read(id) => (1u8, id, 0u32),
                Op::ReadAbsent(id) => (2, id, 0),
                Op::Insert(id) => (3, id, 0),
                Op::Update(id, seq) => (4, id, seq),
                Op::ReadModifyWrite(id, seq) => (5, id, seq),
                Op::Delete(id) => (6, id, 0),
            };
            bytes.push(tag);
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&seq.to_le_bytes());
        }
        assert_eq!(hdnh::crc32_ieee(&bytes), want, "YCSB-{mix}'s seeded stream changed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn hdnh_matches_oracle(ops in proptest::collection::vec(mop_strategy(), 1..400)) {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(1)
        .build()
        .unwrap());
        check_against_oracle(&t, &ops);
    }

    #[test]
    fn hdnh_lru_matches_oracle(ops in proptest::collection::vec(mop_strategy(), 1..300)) {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(1)
        .hot_policy(HotPolicy::Lru)
        .hot_capacity_ratio(0.05)
        .build()
        .unwrap());
        check_against_oracle(&t, &ops);
    }

    #[test]
    fn level_hash_matches_oracle(ops in proptest::collection::vec(mop_strategy(), 1..300)) {
        let t = hdnh_baselines::LevelHash::new(hdnh_baselines::LevelParams {
            initial_top_buckets: 8,
            ..Default::default()
        });
        check_against_oracle(&t, &ops);
    }

    #[test]
    fn cceh_matches_oracle(ops in proptest::collection::vec(mop_strategy(), 1..300)) {
        let t = hdnh_baselines::Cceh::new(hdnh_baselines::CcehParams {
            segment_bytes: 1024,
            initial_depth: 1,
            ..Default::default()
        });
        check_against_oracle(&t, &ops);
    }

    #[test]
    fn path_hash_matches_oracle(ops in proptest::collection::vec(mop_strategy(), 1..300)) {
        let t = hdnh_baselines::PathHash::new(hdnh_baselines::PathParams {
            root_cells: 2048,
            reserved_levels: 8,
            ..Default::default()
        });
        check_against_oracle(&t, &ops);
    }

    /// Crash/recover with random ops and a random crash seed: recovered
    /// state equals pre-crash acknowledged state (invariant I5).
    #[test]
    fn recovery_equals_acknowledged_state(
        ops in proptest::collection::vec(mop_strategy(), 1..200),
        crash_seed in any::<u64>(),
    ) {
        let params = HdnhParams::builder()
         .segment_bytes(1024)
         .initial_bottom_segments(1)
         .nvm(NvmOptions::strict())
         .build()
         .unwrap();
        let t = Hdnh::new(params.clone());
        let mut oracle: HashMap<u16, u32> = HashMap::new();
        for op in &ops {
            match op {
                MOp::Insert(id, val) => {
                    if t.insert(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64)).is_ok() {
                        oracle.insert(*id, *val);
                    }
                }
                MOp::Update(id, val) => {
                    if t.update(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64)).is_ok() {
                        oracle.insert(*id, *val);
                    }
                }
                MOp::Upsert(id, val) => {
                    HashIndex::upsert(&t, &Key::from_u64(*id as u64), &Value::from_u64(*val as u64))
                        .unwrap();
                    oracle.insert(*id, *val);
                }
                MOp::Remove(id) => {
                    if t.remove(&Key::from_u64(*id as u64)).unwrap() {
                        oracle.remove(id);
                    }
                }
                MOp::Get(_) => {}
            }
        }
        let pool = t.into_pool();
        pool.crash(crash_seed);
        let r = Hdnh::recover(params, pool, 2);
        prop_assert_eq!(r.len(), oracle.len());
        for (&id, &val) in &oracle {
            prop_assert_eq!(
                r.get(&Key::from_u64(id as u64)).unwrap().map(|v| v.as_u64()),
                Some(val as u64)
            );
        }
    }

    /// Record serialization roundtrips for arbitrary bytes.
    #[test]
    fn record_codec_roundtrip(key in any::<[u8; 16]>(), value in any::<[u8; 15]>()) {
        let rec = Record::new(Key(key), Value(value));
        let bytes = rec.to_bytes();
        prop_assert_eq!(bytes.len(), RECORD_LEN);
        prop_assert_eq!(Record::from_bytes(&bytes), rec);
    }

    /// Region writes at arbitrary (offset, data) never disturb neighbours.
    #[test]
    fn region_writes_are_exact(
        off in 0usize..1000,
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let region = NvmRegion::new(1064, NvmOptions::fast());
        // Paint the whole region, overwrite a window, check all bytes.
        let backdrop = vec![0xA5u8; 1064];
        region.write_bytes(0, &backdrop);
        region.write_bytes(off, &data);
        let mut out = vec![0u8; 1064];
        region.peek(0, &mut out);
        for (i, &b) in out.iter().enumerate() {
            if i >= off && i < off + data.len() {
                prop_assert_eq!(b, data[i - off]);
            } else {
                prop_assert_eq!(b, 0xA5);
            }
        }
    }

    /// KeySpace validation accepts every canonical value and rejects any
    /// single-byte corruption.
    #[test]
    fn keyspace_validation_detects_corruption(
        id in any::<u64>(),
        version in any::<u32>(),
        flip_byte in 0usize..15,
        flip_bit in 0u8..8,
    ) {
        let ks = KeySpace::default();
        let val = ks.value(id, version);
        prop_assert_eq!(ks.validate(id, &val), Some(version));
        let mut corrupted = val;
        corrupted.0[flip_byte] ^= 1 << flip_bit;
        prop_assert_eq!(ks.validate(id, &corrupted), None);
    }

    /// The 8-byte bucket header round-trips (validity bitmap, 8×7-bit
    /// slot metadata fields) exactly — no bit of the CRC-6 digest or the
    /// spill flag is lost to packing.
    #[test]
    fn header_roundtrips_validity_and_checksums(valid in any::<u8>(), raw in any::<u64>()) {
        use hdnh::nvtable::{
            header_checksum, header_pack, header_slot_spilled, header_slot_valid,
            header_unpack, CHECKSUM_MASK, SPILL_FLAG,
        };
        use hdnh::params::SLOTS_PER_BUCKET;
        let mut metas = [0u8; SLOTS_PER_BUCKET];
        for (s, meta) in metas.iter_mut().enumerate() {
            *meta = ((raw >> (7 * s)) & 0x7F) as u8;
        }
        let h = header_pack(valid, metas);
        let (v2, metas2) = header_unpack(h);
        prop_assert_eq!(v2, valid);
        prop_assert_eq!(metas2, metas);
        for (s, &meta) in metas.iter().enumerate() {
            prop_assert_eq!(header_slot_valid(h, s), valid & (1 << s) != 0);
            prop_assert_eq!(header_checksum(h, s), meta & CHECKSUM_MASK as u8);
            prop_assert_eq!(header_slot_spilled(h, s), meta & SPILL_FLAG != 0);
        }
    }

    /// A torn record write — leading bytes from the new version, the tail
    /// still holding the old — is accepted by the committed checksum only
    /// on a 7-bit digest collision (the documented 1/128 false-accept);
    /// the fully-written record always verifies.
    #[test]
    fn torn_record_write_is_detected_modulo_digest_collision(
        new_bytes in any::<[u8; 31]>(),
        old_bytes in any::<[u8; 31]>(),
        cut in 1usize..31,
        slot in 0usize..8,
    ) {
        use hdnh::nvtable::{checksum6, header_pack, slot_checksum_ok};
        use hdnh::params::SLOTS_PER_BUCKET;
        let ck = checksum6(&new_bytes);
        let mut cks = [0u8; SLOTS_PER_BUCKET];
        cks[slot] = ck;
        let header = header_pack(0xFF, cks);
        let mut torn = new_bytes;
        torn[cut..].copy_from_slice(&old_bytes[cut..]);
        prop_assert!(slot_checksum_ok(header, slot, &Record::from_bytes(&new_bytes)));
        let collide = checksum6(&torn) == ck;
        prop_assert_eq!(
            slot_checksum_ok(header, slot, &Record::from_bytes(&torn)),
            collide
        );
    }

    /// Value-log records round-trip for arbitrary keys and payloads.
    #[test]
    fn vlog_record_roundtrip(
        key in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        use hdnh::vlog::{decode_record, encode_record, footprint};
        let rec = encode_record(&Key(key), &payload);
        prop_assert_eq!(rec.len(), footprint(payload.len()));
        prop_assert_eq!(rec.len() % 8, 0);
        let (k, p) = decode_record(&rec).expect("fully written record decodes");
        prop_assert_eq!(k, Key(key));
        prop_assert_eq!(p, &payload[..]);
    }

    /// A torn append — the record's tail cachelines still holding stale
    /// log bytes — is detected by the CRC, and detection never turns into
    /// forgery: any decode that succeeds yields exactly the original.
    #[test]
    fn vlog_torn_cacheline_is_detected_never_forged(
        key in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 1..1024),
        stale_seed in any::<u64>(),
        cut_line in 0usize..32,
    ) {
        use hdnh::vlog::{decode_record, encode_record};
        let rec = encode_record(&Key(key), &payload);
        // Tear at a 64-byte cacheline boundary: lines before `cut` carry
        // the new write, lines after still hold stale bytes (an LCG fill
        // standing in for whatever the log held before).
        let cut = (cut_line * 64) % rec.len();
        let mut torn = rec.clone();
        let mut x = stale_seed;
        for b in &mut torn[cut..] {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        if torn != rec {
            if let Some((k, p)) = decode_record(&torn) {
                // A decode may still succeed when the tear only touched
                // the zero padding past the CRC; it must then describe
                // the original record, never a forged (key, payload).
                prop_assert!(k == Key(key) && p == &payload[..], "forged record");
            }
        }
    }

    /// The bytes API returns what it stored, for any payload on either side
    /// of the inline budget, whether the hot table or NVM serves the read:
    /// the word's kind travels with it. And a word written at the word
    /// level is never followed as a log pointer, whatever its bytes — a
    /// 0xFF first byte and a zero pad included: it yields at most what an
    /// inline word can hold, or the typed error.
    #[test]
    fn bytes_roundtrip_hot_and_cold_and_raw_words_are_never_pointers(
        payload in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..17),
            proptest::collection::vec(any::<u8>(), 0..64 * 1024 + 1),
        ],
        raw in any::<[u8; 15]>(),
        pointer_like in any::<bool>(),
    ) {
        use hdnh::HdnhError;
        use hdnh_common::hash::KeyHashes;
        let mut raw = raw;
        if pointer_like {
            (raw[0], raw[13], raw[14]) = (0xFF, 0, 0);
        }
        for hot_table in [true, false] {
            let t = Hdnh::new(HdnhParams::builder()
                .segment_bytes(1024)
                .initial_bottom_segments(1)
                .vlog_segment_bytes(128 * 1024)
                .enable_hot_table(hot_table)
                .build()
                .unwrap());
            let (key, raw_key) = (Key::from_u64(1), Key::from_u64(2));
            let h = KeyHashes::of(&key);
            t.upsert_bytes(&key, &payload).unwrap();
            // Served by the copy the write cached, then — that copy
            // evicted — by NVM, then by the copy the miss promoted.
            for read in 0..3 {
                if let (1, Some(hot)) = (read, t.hot_table()) {
                    prop_assert!(hot.is_hot(&key, h.h1, h.h2, h.fp).is_some(), "writes cache");
                    hot.delete(&key, h.h1, h.h2, h.fp);
                }
                prop_assert_eq!(t.get_bytes(&key).unwrap().as_deref(), Some(&payload[..]));
            }
            t.insert(&raw_key, &Value(raw)).unwrap();
            for _hot_then_cold in 0..2 {
                match t.get_bytes(&raw_key) {
                    Ok(Some(bytes)) => prop_assert!(bytes.len() <= hdnh::INLINE_MAX),
                    Err(HdnhError::Integrity { invariant: "value-encoding", .. }) => {}
                    other => prop_assert!(false, "a raw word was followed: {:?}", other),
                }
                if let Some(hot) = t.hot_table() {
                    let h = KeyHashes::of(&raw_key);
                    hot.delete(&raw_key, h.h1, h.h2, h.fp);
                }
            }
            prop_assert!(t.verify_integrity().is_ok());
        }
    }

    /// The visitor read and the owning read are one primitive with two
    /// callers: for a payload of any size class — empty, inline, the first
    /// spilled size, both sides of the record image the visitor stages on
    /// the stack (1 KiB: a 1 000-byte payload), one that needs a heap
    /// buffer, the largest there is — whichever tier serves it,
    /// `get_bytes_with(k, to_vec)` is `get_bytes(k)`; and on a word the
    /// bytes level did not write both give the same answer, the typed
    /// error included.
    #[test]
    fn visitor_read_equals_owning_read(fill in any::<u64>(), raw in any::<[u8; 15]>()) {
        use hdnh_common::hash::KeyHashes;
        const SIZES: [usize; 9] =
            [0, 1, 14, 15, 999, 1000, 1001, 64 * 1024, hdnh::MAX_VALUE_BYTES];
        for hot_table in [true, false] {
            let t = Hdnh::new(HdnhParams::builder()
                .segment_bytes(1024)
                .initial_bottom_segments(1)
                .vlog_segment_bytes(128 * 1024)
                .enable_hot_table(hot_table)
                .build()
                .unwrap());
            let evict = |key: &Key| {
                if let Some(hot) = t.hot_table() {
                    let h = KeyHashes::of(key);
                    hot.delete(key, h.h1, h.h2, h.fp);
                }
            };
            for (i, &n) in SIZES.iter().enumerate() {
                let key = Key::from_u64(i as u64);
                let mut x = fill ^ n as u64;
                let payload: Vec<u8> = (0..n)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (x >> 56) as u8
                    })
                    .collect();
                t.upsert_bytes(&key, &payload).unwrap();
                // Served by the copy the write cached, then — that copy
                // evicted — by NVM, then by the copy the miss promoted.
                for read in 0..3 {
                    if read == 1 {
                        evict(&key);
                    }
                    let lent = t.get_bytes_with(&key, <[u8]>::to_vec).unwrap();
                    prop_assert_eq!(lent.as_deref(), Some(&payload[..]), "{} bytes", n);
                    prop_assert_eq!(lent, t.get_bytes(&key).unwrap(), "{} bytes", n);
                }
            }
            let mut called = false;
            prop_assert_eq!(t.get_bytes_with(&Key::from_u64(99), |_| called = true).unwrap(), None);
            prop_assert!(!called, "the visitor ran for an absent key");

            let raw_key = Key::from_u64(100);
            t.insert(&raw_key, &Value(raw)).unwrap();
            for _hot_then_cold in 0..2 {
                let lent = t.get_bytes_with(&raw_key, <[u8]>::to_vec);
                let owned = t.get_bytes(&raw_key);
                prop_assert_eq!(format!("{lent:?}"), format!("{owned:?}"));
                prop_assert_eq!(owned.is_ok(), raw[0] as usize <= hdnh::INLINE_MAX, "{:?}", owned);
                evict(&raw_key);
            }
            prop_assert!(t.verify_integrity().is_ok());
        }
    }

    /// Load factor stays within [0, 1] under arbitrary sequences.
    #[test]
    fn load_factor_bounded(ops in proptest::collection::vec(mop_strategy(), 1..200)) {
        let t = Hdnh::new(HdnhParams::builder()
        .segment_bytes(1024)
        .initial_bottom_segments(1)
        .build()
        .unwrap());
        for op in &ops {
            match op {
                MOp::Insert(id, val) => { let _ = t.insert(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64)); }
                MOp::Update(id, val) => { let _ = t.update(&Key::from_u64(*id as u64), &Value::from_u64(*val as u64)); }
                MOp::Upsert(id, val) => { let _ = HashIndex::upsert(&t, &Key::from_u64(*id as u64), &Value::from_u64(*val as u64)); }
                MOp::Remove(id) => { let _ = t.remove(&Key::from_u64(*id as u64)).unwrap(); }
                MOp::Get(id) => { let _ = t.get(&Key::from_u64(*id as u64)); }
            }
            let lf = t.load_factor();
            prop_assert!((0.0..=1.0).contains(&lf), "load factor {}", lf);
        }
    }
}
