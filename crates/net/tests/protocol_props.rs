//! Protocol property tests: the wire codec round-trips arbitrary frames
//! bit-identically, and the decoder survives arbitrary corruption —
//! truncated headers, oversized length prefixes, mid-frame disconnects,
//! flipped bytes, random soup — without ever panicking or over-reading.
//!
//! Frame equality is asserted on the *re-encoded bytes*: byte equality
//! is strictly stronger than structural equality (it proves `f64` cost
//! breakdowns survive with their exact bit patterns, including NaN
//! payloads, negative zero and infinities, where `PartialEq` would
//! either lie or refuse).

use bwd_device::{Breakdown, TrafficBytes};
use bwd_engine::{ApproxAnswer, QueryResult};
use bwd_net::{Frame, FrameDecoder, FrameError, WireMode};
use bwd_types::{BwdError, Date, Value};
use proptest::prelude::*;

/// Local SplitMix64 step: one drawn `u64` seed expands into an arbitrary
/// frame deterministically.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn arb_string(rng: &mut u64, max_len: usize) -> String {
    let len = (mix(rng) as usize) % (max_len + 1);
    (0..len)
        .map(|_| char::from_u32(0x20 + (mix(rng) % 0x5F) as u32).unwrap())
        .collect()
}

/// Arbitrary `f64` bit patterns, biased toward the values `PartialEq`
/// handles worst: NaNs with payloads, ±0.0, infinities, subnormals.
fn arb_f64(rng: &mut u64) -> f64 {
    match mix(rng) % 8 {
        0 => f64::NAN,
        1 => f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with payload
        2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::from_bits(mix(rng) % 4096), // subnormal
        _ => f64::from_bits(mix(rng)),
    }
}

fn arb_value(rng: &mut u64) -> Value {
    match mix(rng) % 6 {
        0 => Value::Int(mix(rng) as i64),
        1 => Value::Decimal {
            unscaled: mix(rng) as i64,
            scale: (mix(rng) % 19) as u8,
        },
        2 => Value::Date(Date(mix(rng) as i32)),
        3 => Value::Str(arb_string(rng, 40)),
        4 => Value::Bool(mix(rng).is_multiple_of(2)),
        _ => Value::Double(arb_f64(rng)),
    }
}

fn arb_breakdown(rng: &mut u64) -> Breakdown {
    Breakdown {
        device: arb_f64(rng),
        host: arb_f64(rng),
        pcie: arb_f64(rng),
    }
}

fn arb_result(rng: &mut u64) -> QueryResult {
    let cols = (mix(rng) % 5) as usize;
    let rows = (mix(rng) % 20) as usize;
    QueryResult {
        columns: (0..cols).map(|i| format!("c{i}")).collect(),
        rows: (0..rows)
            .map(|_| (0..cols).map(|_| arb_value(rng)).collect())
            .collect(),
        breakdown: arb_breakdown(rng),
        traffic: TrafficBytes {
            device: mix(rng),
            host: mix(rng),
            pcie: mix(rng),
        },
        survivors: (mix(rng) % (u32::MAX as u64)) as usize,
        approx: if mix(rng).is_multiple_of(2) {
            Some(ApproxAnswer {
                candidate_count: (mix(rng) % (u32::MAX as u64)) as usize,
                breakdown: arb_breakdown(rng),
            })
        } else {
            None
        },
    }
}

/// Every [`BwdError`] variant once, with arbitrary fields, in the order
/// [`variant`] numbers them.
fn every_error(rng: &mut u64) -> Vec<BwdError> {
    vec![
        BwdError::DeviceOutOfMemory {
            requested: mix(rng),
            available: mix(rng),
        },
        BwdError::AdmissionTimeout {
            requested: mix(rng),
            waited_ms: mix(rng),
        },
        BwdError::InvalidBuffer(arb_string(rng, 60)),
        BwdError::TypeMismatch(arb_string(rng, 60)),
        BwdError::Parse(arb_string(rng, 60)),
        BwdError::Bind(arb_string(rng, 60)),
        BwdError::Plan(arb_string(rng, 60)),
        BwdError::Exec(arb_string(rng, 60)),
        BwdError::NotFound(arb_string(rng, 60)),
        BwdError::Unsupported(arb_string(rng, 60)),
        BwdError::InvalidArgument(arb_string(rng, 60)),
        BwdError::Cancelled,
        BwdError::DeadlineExceeded {
            deadline_ms: mix(rng),
        },
        BwdError::DeviceFault(arb_string(rng, 60)),
    ]
}

/// The position of `e`'s variant in [`every_error`]. No wildcard arm: a
/// new variant does not compile until it has a position here, and
/// `the_generator_makes_every_variant` fails until [`every_error`] makes
/// it.
fn variant(e: &BwdError) -> usize {
    match e {
        BwdError::DeviceOutOfMemory { .. } => 0,
        BwdError::AdmissionTimeout { .. } => 1,
        BwdError::InvalidBuffer(_) => 2,
        BwdError::TypeMismatch(_) => 3,
        BwdError::Parse(_) => 4,
        BwdError::Bind(_) => 5,
        BwdError::Plan(_) => 6,
        BwdError::Exec(_) => 7,
        BwdError::NotFound(_) => 8,
        BwdError::Unsupported(_) => 9,
        BwdError::InvalidArgument(_) => 10,
        BwdError::Cancelled => 11,
        BwdError::DeadlineExceeded { .. } => 12,
        BwdError::DeviceFault(_) => 13,
    }
}

fn arb_error(rng: &mut u64) -> BwdError {
    let mut all = every_error(rng);
    all.swap_remove((mix(rng) % all.len() as u64) as usize)
}

fn arb_mode(rng: &mut u64) -> WireMode {
    if mix(rng).is_multiple_of(2) {
        WireMode::Classic
    } else {
        WireMode::ApproxRefine
    }
}

/// Every frame variant, including zero-length payloads (ping/pong) and
/// payloads up to a few KiB.
fn arb_frame(rng: &mut u64) -> Frame {
    match mix(rng) % 7 {
        0 => Frame::Query {
            mode: arb_mode(rng),
            sql: arb_string(rng, 2048),
        },
        1 => Frame::RunPlan {
            mode: arb_mode(rng),
            plan: mix(rng),
        },
        2 => Frame::Ping,
        3 => Frame::Result(Box::new(arb_result(rng))),
        4 => Frame::Error {
            error: arb_error(rng),
            retryable: mix(rng).is_multiple_of(2),
        },
        5 => Frame::Busy {
            queued: mix(rng) as u32,
        },
        _ => Frame::Pong,
    }
}

/// Whether `frame` embeds any `f64` (where structural equality on NaN is
/// the wrong tool and byte equality is the only honest check).
fn has_floats(frame: &Frame) -> bool {
    matches!(frame, Frame::Result(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → chunked feed → decode → re-encode is the identity on
    /// bytes, for arbitrary frames and arbitrary chunk sizes.
    #[test]
    fn prop_frame_round_trips_bit_identically(seed in any::<u64>(), chunk in 1usize..97) {
        let mut rng = seed;
        let frame = arb_frame(&mut rng);
        let bytes = frame.encode();

        let mut dec = FrameDecoder::new();
        let mut decoded = None;
        for piece in bytes.chunks(chunk) {
            dec.feed(piece);
            if let Some(f) = dec.next().unwrap() {
                prop_assert!(decoded.is_none(), "one encoding, one frame");
                decoded = Some(f);
            }
        }
        let decoded = decoded.expect("full encoding decodes");
        prop_assert_eq!(decoded.encode(), bytes, "re-encoding is bit-identical");
        if !has_floats(&frame) {
            prop_assert_eq!(decoded, frame);
        }
        // Nothing left over, and EOF here is clean.
        prop_assert_eq!(dec.buffered(), 0);
        prop_assert!(dec.finish_eof().is_ok());
    }

    /// Back-to-back frames decode in order from one buffer regardless of
    /// how the stream is chunked.
    #[test]
    fn prop_frame_sequences_preserve_order_and_count(seed in any::<u64>(), chunk in 1usize..53) {
        let mut rng = seed;
        let frames: Vec<Frame> = (0..(mix(&mut rng) % 6 + 2)).map(|_| arb_frame(&mut rng)).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }

        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next().unwrap() {
                out.push(f);
            }
        }
        prop_assert_eq!(out.len(), frames.len(), "no lost or duplicated frames");
        for (got, want) in out.iter().zip(&frames) {
            prop_assert_eq!(got.encode(), want.encode());
        }
    }

    /// A stream cut at *any* byte offset never panics: mid-frame cuts
    /// report `TruncatedByEof`, whole-frame cuts are clean EOF.
    #[test]
    fn prop_truncation_at_any_offset_is_clean(seed in any::<u64>(), cut_sel in any::<u64>()) {
        let mut rng = seed;
        let frame = arb_frame(&mut rng);
        let bytes = frame.encode();
        let cut = (cut_sel as usize) % (bytes.len() + 1);

        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..cut]);
        let first = dec.next().unwrap(); // must not error: prefix of valid stream
        if cut == bytes.len() {
            prop_assert!(first.is_some());
            prop_assert!(dec.finish_eof().is_ok());
        } else if cut == 0 {
            // Disconnect before any byte: clean EOF, zero frames.
            prop_assert!(first.is_none());
            prop_assert!(dec.finish_eof().is_ok());
        } else {
            prop_assert!(first.is_none(), "partial frame must not decode");
            let err = dec.finish_eof().unwrap_err();
            prop_assert_eq!(err, FrameError::TruncatedByEof { buffered: cut });
            prop_assert!(dec.is_poisoned());
        }
    }

    /// An oversized length prefix is rejected before any payload is
    /// buffered, and the error is sticky.
    #[test]
    fn prop_oversized_length_prefix_rejected_eagerly(declared in any::<u32>(), cap in 1u32..4096) {
        let mut dec = FrameDecoder::with_max_len(cap);
        dec.feed(&declared.to_le_bytes());
        let r = dec.next();
        if declared == 0 {
            prop_assert_eq!(r.unwrap_err(), FrameError::EmptyFrame);
        } else if declared > cap {
            prop_assert_eq!(r.unwrap_err(), FrameError::Oversized { len: declared, max: cap });
            prop_assert!(dec.next().is_err(), "poisoning is sticky");
        } else {
            prop_assert!(r.unwrap().is_none(), "within cap: wait for the body");
        }
    }

    /// Flipping any single byte of a valid stream never panics and never
    /// yields extra frames; decoding stops at `None` or a clean error.
    #[test]
    fn prop_single_byte_corruption_never_panics(seed in any::<u64>(), flip_sel in any::<u64>(), xor in 1u8..=255) {
        let mut rng = seed;
        let frame = arb_frame(&mut rng);
        let mut bytes = frame.encode();
        let at = (flip_sel as usize) % bytes.len();
        bytes[at] ^= xor;

        let mut dec = FrameDecoder::with_max_len(1 << 20);
        dec.feed(&bytes);
        let mut frames = 0;
        loop {
            match dec.next() {
                Ok(Some(_)) => frames += 1,
                Ok(None) => break,
                Err(_) => {
                    prop_assert!(dec.is_poisoned());
                    break;
                }
            }
        }
        prop_assert!(frames <= 1, "one corrupted encoding cannot yield several frames");
    }

    /// Arbitrary byte soup: the decoder terminates with bounded frames
    /// and no panic, whatever the input.
    #[test]
    fn prop_random_soup_never_panics(seed in any::<u64>(), len in 0usize..512) {
        let mut rng = seed;
        let bytes: Vec<u8> = (0..len).map(|_| mix(&mut rng) as u8).collect();
        let mut dec = FrameDecoder::with_max_len(1 << 16);
        dec.feed(&bytes);
        loop {
            match dec.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
        let _ = dec.finish_eof();
    }
}

/// Boundary check at the configured cap: a frame whose declared length is
/// exactly `max_len` decodes; one byte more is `Oversized`.
#[test]
fn max_length_frame_is_accepted_and_one_more_rejected() {
    // A query whose encoding we can size exactly: len = 1 (type) + 1
    // (mode) + 4 (str len) + sql bytes.
    let sql_len = 100usize;
    let frame = Frame::Query {
        mode: WireMode::Classic,
        sql: "q".repeat(sql_len),
    };
    let bytes = frame.encode();
    let declared = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    assert_eq!(declared as usize, 1 + 1 + 4 + sql_len);

    let mut exact = FrameDecoder::with_max_len(declared);
    exact.feed(&bytes);
    assert_eq!(exact.next().unwrap().unwrap(), frame);

    let mut tight = FrameDecoder::with_max_len(declared - 1);
    tight.feed(&bytes);
    assert_eq!(
        tight.next().unwrap_err(),
        FrameError::Oversized {
            len: declared,
            max: declared - 1
        }
    );
}

/// The decoder never reads past a frame's declared length: payload bytes
/// beyond what the body consumed are a `Malformed` error, not silently
/// swallowed into the next frame.
#[test]
fn trailing_payload_bytes_are_rejected_not_overread() {
    let mut bytes = Frame::Ping.encode();
    // Declare one extra payload byte and append it: same stream position
    // where a sloppy decoder would silently over-read.
    bytes[0] = 2; // len: type byte + 1 trailing byte
    bytes.push(0xEE);
    let mut dec = FrameDecoder::new();
    dec.feed(&bytes);
    assert!(matches!(dec.next(), Err(FrameError::Malformed(_))));
}

#[test]
fn the_generator_makes_every_variant() {
    let all = every_error(&mut 1);
    let positions: Vec<usize> = all.iter().map(variant).collect();
    assert_eq!(positions, (0..all.len()).collect::<Vec<_>>());
}

/// Every variant survives the codec, each under both `retryable` flags.
#[test]
fn every_error_variant_round_trips() {
    for error in every_error(&mut 7) {
        for retryable in [false, true] {
            let frame = Frame::Error {
                error: error.clone(),
                retryable,
            };
            let mut dec = FrameDecoder::new();
            dec.feed(&frame.encode());
            assert_eq!(dec.next().unwrap(), Some(frame));
        }
    }
}

/// Wire code 11 is retired: a frame carrying it is malformed, never some
/// other variant.
#[test]
fn the_retired_error_code_decodes_to_an_error() {
    let mut bytes = Frame::Error {
        error: BwdError::Cancelled,
        retryable: false,
    }
    .encode();
    // Length prefix (4), frame type (1), retryable flag (1), error code.
    assert_eq!(bytes[6], 12, "Cancelled's code");
    bytes[6] = 11;
    let mut dec = FrameDecoder::new();
    dec.feed(&bytes);
    match dec.next() {
        Err(FrameError::Malformed(msg)) => assert!(msg.contains("code 11"), "{msg}"),
        other => panic!("retired code decoded as {other:?}"),
    }
}
