//! Property tests for the RESP request codec: whatever `enc_request`
//! produces, the [`Decoder`] must reproduce argument-for-argument — no
//! matter how the byte stream is fragmented across feeds.

// The `.. ProptestConfig::default()` spread is redundant against the local
// proptest shim (one field) but required by the real crate; keep the
// portable spelling.
#![allow(clippy::needless_update)]

use hdnh_server::resp::{
    enc_array_header, enc_bulk, enc_int, enc_request, Decoder, Frame, DEFAULT_MAX_FRAME, MAX_ARGS,
};
use proptest::prelude::*;

/// Arbitrary binary argument, 1..32 bytes (RESP bulk strings carry any
/// bytes; empty args are legal on the wire but indistinguishable from a
/// skipped blank inline token, so the grammar keeps them non-empty).
fn arg_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..32)
}

/// One request: 1..8 arguments.
fn request_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arg_strategy(), 1..8)
}

/// Encodes requests, splits the wire at boundaries derived from `cuts`,
/// feeds the chunks one by one, and returns every decoded frame's args.
fn roundtrip(requests: &[Vec<Vec<u8>>], cuts: &[u16]) -> Vec<Vec<Vec<u8>>> {
    let mut wire = Vec::new();
    for req in requests {
        let borrowed: Vec<&[u8]> = req.iter().map(Vec::as_slice).collect();
        enc_request(&mut wire, &borrowed);
    }
    // Turn the cut seeds into sorted distinct offsets inside the wire.
    let mut offsets: Vec<usize> = cuts
        .iter()
        .map(|&c| c as usize % wire.len().max(1))
        .collect();
    offsets.sort_unstable();
    offsets.dedup();

    let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
    let mut decoded = Vec::new();
    let mut prev = 0usize;
    let drain = |dec: &mut Decoder, decoded: &mut Vec<Vec<Vec<u8>>>| {
        while let Some(f) = dec.next().expect("valid wire bytes must decode") {
            decoded.push((0..f.len()).map(|i| dec.arg(&f, i).to_vec()).collect());
        }
        dec.compact();
    };
    for off in offsets {
        if off > prev {
            dec.feed(&wire[prev..off]);
            prev = off;
        }
        drain(&mut dec, &mut decoded);
    }
    dec.feed(&wire[prev..]);
    drain(&mut dec, &mut decoded);
    assert_eq!(dec.pending(), 0, "no bytes may be left behind");
    decoded
}

/// The two request grammars, over the same arguments.
fn both_grammars(args: &[Vec<u8>]) -> [Vec<u8>; 2] {
    let mut array = Vec::new();
    enc_request(&mut array, &args.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let mut inline = args.join(&b' ');
    inline.extend_from_slice(b"\r\n");
    [array, inline]
}

/// Decodes `wire` whole, then once per split point: the prefix alone is a
/// partial frame, and offering it again with the rest of the bytes yields
/// the same [`Frame`] — the same ranges, wherever its arguments are kept —
/// over the same argument bytes.
fn split_at_every_byte(args: &[Vec<u8>], wire: &[u8]) {
    let decode = |dec: &mut Decoder| -> Option<Frame> { dec.next().expect("valid wire bytes") };
    let mut whole = Decoder::new(DEFAULT_MAX_FRAME);
    whole.feed(wire);
    let frame = decode(&mut whole).expect("a whole frame decodes");
    assert_eq!(frame.len(), args.len());
    for (i, arg) in args.iter().enumerate() {
        assert_eq!(whole.arg(&frame, i), &arg[..], "argument {i}");
    }
    for cut in 1..wire.len() {
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        dec.feed(&wire[..cut]);
        assert_eq!(decode(&mut dec), None, "cut at {cut} of {}", wire.len());
        dec.feed(&wire[cut..]);
        let again = decode(&mut dec).expect("the completed frame decodes");
        assert_eq!(again, frame, "cut at {cut}");
        let last = args.len() - 1;
        assert_eq!(dec.arg(&again, last), &args[last][..], "cut at {cut}");
        assert_eq!(dec.pending(), 0);
    }
}

/// An argument both grammars carry: no whitespace, not a leading `*`.
fn token_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>().prop_map(|b| b'a' + b % 26), 1..12)
}

/// `MAX_ARGS` one-byte arguments: the far side of the in-frame limit, at a
/// wire size that still lets every byte be a split point.
#[test]
fn a_frame_of_max_args_decodes_the_same_split_anywhere() {
    let args: Vec<Vec<u8>> = (0..MAX_ARGS).map(|i| vec![b'a' + (i % 26) as u8]).collect();
    for wire in both_grammars(&args) {
        split_at_every_byte(&args, &wire);
    }
}

#[test]
fn integer_encoders_match_to_string_at_the_edges() {
    for v in [0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX] {
        let mut out = Vec::new();
        enc_int(&mut out, v);
        assert_eq!(out, format!(":{v}\r\n").into_bytes());
    }
    for n in [0, 9, 10, 99, 100, MAX_ARGS, usize::MAX] {
        let mut out = Vec::new();
        enc_array_header(&mut out, n);
        assert_eq!(out, format!("*{n}\r\n").into_bytes());
    }
    for n in [0, 1, 9, 10, 99, 100, 999, 1000, 65_536] {
        let body = vec![b'x'; n];
        let mut out = Vec::new();
        enc_bulk(&mut out, &body);
        let mut oracle = format!("${n}\r\n").into_bytes();
        oracle.extend_from_slice(&body);
        oracle.extend_from_slice(b"\r\n");
        assert_eq!(out, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// One to six arguments straddle the number a frame keeps in place
    /// (four): neither side of that limit, in neither grammar, may decode
    /// differently for where the bytes were split.
    #[test]
    fn frames_around_the_inline_limit_decode_the_same_split_anywhere(
        args in proptest::collection::vec(token_strategy(), 1..7),
    ) {
        for wire in both_grammars(&args) {
            split_at_every_byte(&args, &wire);
        }
    }

    /// Every digit count and both signs, against `to_string`.
    #[test]
    fn integer_encoders_match_to_string(v in any::<i64>(), shift in 0u32..64) {
        let v = v >> shift;
        let mut out = Vec::new();
        enc_int(&mut out, v);
        prop_assert_eq!(out, format!(":{v}\r\n").into_bytes());
        let n = v.unsigned_abs() as usize;
        let mut out = Vec::new();
        enc_array_header(&mut out, n);
        prop_assert_eq!(out, format!("*{n}\r\n").into_bytes());
    }

    #[test]
    fn encode_then_split_then_decode_is_identity(
        requests in proptest::collection::vec(request_strategy(), 1..12),
        cuts in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let decoded = roundtrip(&requests, &cuts);
        prop_assert_eq!(decoded, requests);
    }

    #[test]
    fn byte_at_a_time_decode_is_identity(
        requests in proptest::collection::vec(request_strategy(), 1..6),
    ) {
        let mut wire = Vec::new();
        for req in &requests {
            let borrowed: Vec<&[u8]> = req.iter().map(Vec::as_slice).collect();
            enc_request(&mut wire, &borrowed);
        }
        let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
        let mut decoded: Vec<Vec<Vec<u8>>> = Vec::new();
        for &b in &wire {
            dec.feed(&[b]);
            while let Some(f) = dec.next().expect("valid wire bytes must decode") {
                decoded.push((0..f.len()).map(|i| dec.arg(&f, i).to_vec()).collect());
                dec.compact();
            }
        }
        prop_assert_eq!(decoded, requests);
    }
}
