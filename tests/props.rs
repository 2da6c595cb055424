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

    /// Trace codec roundtrips arbitrary op streams.
    #[test]
    fn trace_roundtrip_arbitrary_ops(
        raw in proptest::collection::vec((0u8..6, any::<u64>(), any::<u32>()), 0..300)
    ) {
        use hdnh_ycsb::trace::{read_trace, write_trace};
        use hdnh_ycsb::Op;
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(tag, id, seq)| match tag {
                0 => Op::Read(id),
                1 => Op::ReadAbsent(id),
                2 => Op::Insert(id),
                3 => Op::Update(id, seq),
                4 => Op::ReadModifyWrite(id, seq),
                _ => Op::Delete(id),
            })
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &ops).unwrap();
        prop_assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), ops);
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

    /// Spill pointers round-trip through the 15-byte slot encoding, never
    /// collide with inline encodings, and reject doctored pad bytes.
    #[test]
    fn vlog_ptr_roundtrip_and_discrimination(
        segment in any::<u32>(),
        offset in any::<u32>(),
        len in 1u32..hdnh::MAX_VALUE_BYTES as u32 + 1,
        inline in proptest::collection::vec(any::<u8>(), 0..hdnh::INLINE_MAX + 1),
    ) {
        use hdnh::{vlog, VlogPtr};
        let ptr = VlogPtr { segment, offset, len };
        let v = ptr.to_value();
        prop_assert_eq!(VlogPtr::from_value(&v), Some(ptr));
        // A pointer value is never mistaken for an inline payload...
        prop_assert_eq!(vlog::decode_inline(&v), None);
        // ...and an inline value is never mistaken for a pointer.
        let iv = vlog::encode_inline(&inline);
        prop_assert_eq!(VlogPtr::from_value(&iv), None);
        prop_assert_eq!(vlog::decode_inline(&iv), Some(&inline[..]));
        // Non-zero pad bytes mark a fixed-API value, not a pointer.
        let mut doctored = v;
        doctored.0[13] = 1;
        prop_assert_eq!(VlogPtr::from_value(&doctored), None);
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
