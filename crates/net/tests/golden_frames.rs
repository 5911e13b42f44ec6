//! Golden wire corpus: the bytes of a fixed set of frames, committed as
//! data in `tests/golden/frames.hex` (one `name hex` line per frame).
//!
//! A codec whose encoder and decoder share one field walk agrees with
//! itself by construction, so a round trip cannot see a field moved, a
//! width changed or a tag renumbered. These bytes can: every frame must
//! encode to its committed line, and decoding that line and re-encoding
//! must give it back. The same corpus seeds the hostile-bytes sweep: each
//! frame cut at every offset, and each byte flipped, must decode to a
//! frame or a `FrameError`, never a panic.

use bwd_device::{Breakdown, TrafficBytes};
use bwd_engine::{ApproxAnswer, QueryResult};
use bwd_net::{Frame, FrameDecoder, FrameError, WireMode};
use bwd_types::{BwdError, Date, Value};

const CORPUS: &str = include_str!("golden/frames.hex");

fn result(
    columns: &[&str],
    rows: Vec<Vec<Value>>,
    breakdown: Breakdown,
    approx: Option<ApproxAnswer>,
) -> Frame {
    Frame::Result(Box::new(QueryResult {
        columns: columns.iter().map(|c| c.to_string()).collect(),
        rows,
        breakdown,
        traffic: TrafficBytes {
            device: 0x0102_0304_0506_0708,
            host: 17,
            pcie: u64::MAX,
        },
        survivors: 3,
        approx,
    }))
}

fn error(name: &'static str, error: BwdError, retryable: bool) -> (&'static str, Frame) {
    (name, Frame::Error { error, retryable })
}

/// Every frame type, every `Value` tag, every `BwdError` variant, `approx`
/// both ways, the awkward `f64`s, an empty and a multi-row result.
fn frames() -> Vec<(&'static str, Frame)> {
    let nan_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    vec![
        (
            "query_classic",
            Frame::Query {
                mode: WireMode::Classic,
                sql: "select count(*) from trips".into(),
            },
        ),
        (
            "query_ar_utf8",
            Frame::Query {
                mode: WireMode::ApproxRefine,
                sql: "select 'grüße'".into(),
            },
        ),
        (
            "query_empty",
            Frame::Query {
                mode: WireMode::Classic,
                sql: String::new(),
            },
        ),
        (
            "run_plan_classic",
            Frame::RunPlan {
                mode: WireMode::Classic,
                plan: 7,
            },
        ),
        (
            "run_plan_ar",
            Frame::RunPlan {
                mode: WireMode::ApproxRefine,
                plan: u64::MAX - 1,
            },
        ),
        ("ping", Frame::Ping),
        ("pong", Frame::Pong),
        (
            "busy",
            Frame::Busy {
                queued: 0x0A0B_0C0D,
            },
        ),
        ("busy_zero", Frame::Busy { queued: 0 }),
        (
            "result_empty",
            Frame::Result(Box::new(QueryResult {
                columns: vec![],
                rows: vec![],
                breakdown: Breakdown::default(),
                traffic: TrafficBytes::default(),
                survivors: 0,
                approx: None,
            })),
        ),
        (
            "result_every_value",
            result(
                &["i", "d", "t", "s", "b", "f"],
                vec![
                    vec![
                        Value::Int(-2),
                        Value::Decimal {
                            unscaled: 123_456,
                            scale: 2,
                        },
                        Value::Date(Date(-1)),
                        Value::Str("é".into()),
                        Value::Bool(true),
                        Value::Double(1.5),
                    ],
                    vec![
                        Value::Int(i64::MIN),
                        Value::Decimal {
                            unscaled: -1,
                            scale: 18,
                        },
                        Value::Date(Date(i32::MAX)),
                        Value::Str(String::new()),
                        Value::Bool(false),
                        Value::Double(-0.0),
                    ],
                    vec![
                        Value::Int(0),
                        Value::Double(f64::NAN),
                        Value::Double(nan_payload),
                    ],
                ],
                Breakdown {
                    device: 0.25,
                    host: 1e-9,
                    pcie: 3.0,
                },
                None,
            ),
        ),
        (
            "result_awkward_costs_approx",
            result(
                &["n"],
                vec![vec![Value::Int(42)]],
                Breakdown {
                    device: nan_payload,
                    host: -0.0,
                    pcie: f64::INFINITY,
                },
                Some(ApproxAnswer {
                    candidate_count: 1 << 20,
                    breakdown: Breakdown {
                        device: f64::NEG_INFINITY,
                        host: f64::NAN,
                        pcie: f64::from_bits(1),
                    },
                }),
            ),
        ),
        error(
            "error_device_oom",
            BwdError::DeviceOutOfMemory {
                requested: 1 << 33,
                available: 5,
            },
            false,
        ),
        error(
            "error_admission_timeout",
            BwdError::AdmissionTimeout {
                requested: 4096,
                waited_ms: 250,
            },
            true,
        ),
        error(
            "error_invalid_buffer",
            BwdError::InvalidBuffer("buf 3".into()),
            false,
        ),
        error(
            "error_type_mismatch",
            BwdError::TypeMismatch("int vs str".into()),
            false,
        ),
        error("error_parse", BwdError::Parse("at 7".into()), false),
        error("error_bind", BwdError::Bind("no column x".into()), false),
        error("error_plan", BwdError::Plan(String::new()), false),
        error("error_exec", BwdError::Exec("boom".into()), true),
        error("error_not_found", BwdError::NotFound("t".into()), false),
        error(
            "error_unsupported",
            BwdError::Unsupported("later".into()),
            false,
        ),
        error(
            "error_invalid_argument",
            BwdError::InvalidArgument("cap".into()),
            false,
        ),
        error("error_cancelled", BwdError::Cancelled, false),
        error(
            "error_deadline_exceeded",
            BwdError::DeadlineExceeded { deadline_ms: 1500 },
            false,
        ),
        error(
            "error_device_fault",
            BwdError::DeviceFault("card 1".into()),
            true,
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("corpus is hex"))
        .collect()
}

/// The committed corpus, in file order.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    CORPUS
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (name, bytes) = l.split_once(' ').expect("`name hex` per line");
            (name, unhex(bytes))
        })
        .collect()
}

fn decode_one(bytes: &[u8]) -> Frame {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    let frame = dec.next().unwrap().expect("a whole frame");
    assert_eq!(dec.buffered(), 0);
    frame
}

#[test]
fn every_frame_encodes_to_its_committed_bytes() {
    let built = frames();
    let committed = corpus();
    assert_eq!(
        committed.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        built.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "the corpus names the frames this test builds, in order"
    );
    for ((name, frame), (_, bytes)) in built.iter().zip(&committed) {
        assert_eq!(
            hex(&frame.encode()),
            hex(bytes),
            "{name}: encoding differs from the corpus"
        );
    }
}

#[test]
fn every_committed_frame_decodes_and_re_encodes_to_itself() {
    for (name, bytes) in corpus() {
        let frame = decode_one(&bytes);
        assert_eq!(hex(&frame.encode()), hex(&bytes), "{name}");
    }
    // The whole corpus as one stream: every frame, in order.
    let stream: Vec<u8> = corpus().into_iter().flat_map(|(_, b)| b).collect();
    let mut dec = FrameDecoder::new();
    dec.feed(&stream);
    let mut again = Vec::new();
    while let Some(frame) = dec.next().unwrap() {
        frame.encode_into(&mut again);
    }
    assert_eq!(again, stream);
}

#[test]
fn a_cut_at_every_offset_waits_then_reports_truncation() {
    for (name, bytes) in corpus() {
        for cut in 0..bytes.len() {
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes[..cut]);
            assert_eq!(dec.next(), Ok(None), "{name} cut at {cut}");
            let eof = dec.finish_eof();
            if cut == 0 {
                assert_eq!(eof, Ok(()), "{name}: nothing buffered is a clean EOF");
            } else {
                assert_eq!(
                    eof,
                    Err(FrameError::TruncatedByEof { buffered: cut }),
                    "{name} cut at {cut}"
                );
            }
        }
    }
}

#[test]
fn a_flipped_byte_decodes_to_a_frame_or_an_error() {
    for (name, bytes) in corpus() {
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xFF;
            let mut dec = FrameDecoder::new();
            dec.feed(&flipped);
            match dec.next() {
                Ok(Some(frame)) => {
                    // Whatever decoded re-encodes to a well-formed frame.
                    let _ = decode_one(&frame.encode());
                }
                Ok(None) => assert!(dec.finish_eof().is_err(), "{name} flipped at {at}"),
                Err(_) => assert!(dec.is_poisoned(), "{name} flipped at {at}"),
            }
        }
    }
}
