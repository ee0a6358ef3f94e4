//! Property tests for the frame codec: encode∘decode is the identity for
//! every `Request`/`Response` variant at arbitrary correlation ids, every
//! truncation of a valid encoding is an error, and no byte string —
//! random, or a valid encoding with one bit flipped — panics a decoder
//! or the frame reassembler.

use bolt_obs::{HistogramSnapshot, HIST_BUCKETS};
use bolt_serve::protocol::{DecodedRequest, FrameBuffer};
use bolt_serve::{DiffRequest, MetricsReply, QueryReply, QueryRequest, Request, Response};
use proptest::prelude::*;

/// Short strings that exercise multi-byte UTF-8 (surrogate code points
/// fold to U+FFFD).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u16>(), 0..8).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c as u32).unwrap_or('\u{fffd}'))
            .collect()
    })
}

fn arb_pairs() -> impl Strategy<Value = Vec<(String, u64)>> {
    prop::collection::vec((arb_string(), any::<u64>()), 0..4)
}

fn arb_request() -> impl Strategy<Value = Request> {
    let tag = prop_oneof![Just(None), arb_string().prop_map(Some)];
    prop_oneof![
        Just(Request::Ping),
        Just(Request::List),
        Just(Request::Shutdown),
        Just(Request::Metrics),
        (arb_string(), any::<u8>(), any::<u8>(), tag, arb_pairs()).prop_map(
            |(nf, level, metric, tag, pcvs)| Request::Query(QueryRequest {
                nf,
                level,
                metric,
                tag,
                pcvs,
            })
        ),
        (arb_string(), arb_string(), any::<u8>())
            .prop_map(|(a, b, metric)| Request::Diff(DiffRequest { a, b, metric })),
        (arb_string(), any::<u8>()).prop_map(|(nf, level)| Request::Provenance { nf, level }),
        any::<u32>().prop_map(|depth| Request::Hello { depth }),
    ]
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    let buckets = prop::collection::vec((0..HIST_BUCKETS, any::<u64>()), 0..4);
    (any::<u64>(), any::<u64>(), any::<u64>(), buckets).prop_map(|(count, sum, max, hits)| {
        let mut h = HistogramSnapshot {
            count,
            sum,
            max,
            ..HistogramSnapshot::default()
        };
        for (i, c) in hits {
            h.buckets[i] = c;
        }
        h
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let gauges = prop::collection::vec((arb_string(), any::<u64>().prop_map(|v| v as i64)), 0..4);
    let histograms = prop::collection::vec((arb_string(), arb_histogram()), 0..3);
    prop_oneof![
        arb_string().prop_map(|version| Response::Pong { version }),
        (any::<bool>(), any::<u64>(), any::<u64>(), arb_string()).prop_map(
            |(found, path_index, value, text)| Response::Query(QueryReply {
                found,
                path_index,
                value,
                text,
            })
        ),
        arb_string().prop_map(|text| Response::Diff { text }),
        (any::<u64>(), arb_string()).prop_map(|(entries, text)| Response::List { entries, text }),
        arb_string().prop_map(|text| Response::Provenance { text }),
        (arb_pairs(), gauges, histograms).prop_map(|(counters, gauges, histograms)| {
            Response::Metrics(MetricsReply {
                counters,
                gauges,
                histograms,
            })
        }),
        Just(Response::ShuttingDown),
        any::<u32>().prop_map(|depth| Response::HelloAck { depth }),
        arb_string().prop_map(|message| Response::Error { message }),
    ]
}

/// `payload` as it travels: behind its length prefix.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// Feed `stream` to a fresh reassembler and pop frames until it wants
/// more bytes or declares the stream poisoned.
fn reassemble(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut fb = FrameBuffer::new();
    fb.extend(stream);
    std::iter::from_fn(|| fb.next_frame().ok().flatten()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_round_trip_at_any_correlation_id(req in arb_request(), corr: u64) {
        let bytes = req.encode_v2(corr);
        prop_assert_eq!(Request::decode_framed(&bytes), Ok(DecodedRequest { corr, req }));
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode_framed(&bytes[..cut]).is_err());
        }
        prop_assert_eq!(reassemble(&framed(&bytes)), vec![bytes]);
    }

    #[test]
    fn responses_round_trip_at_any_correlation_id(resp in arb_response(), corr: u64) {
        let bytes = resp.encode_v2(corr);
        prop_assert_eq!(Response::decode_v2(&bytes), Ok((corr, resp)));
        for cut in 0..bytes.len() {
            prop_assert!(Response::decode_v2(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = Request::decode_framed(&bytes);
        let _ = Response::decode_v2(&bytes);
        // As a raw stream (the first four bytes are the length prefix)…
        let _ = reassemble(&bytes);
        // …and as one well-framed payload.
        prop_assert_eq!(reassemble(&framed(&bytes)), vec![bytes]);
    }

    #[test]
    fn single_bit_flips_never_panic_a_decoder(
        req in arb_request(),
        resp in arb_response(),
        corr: u64,
        at: usize,
    ) {
        let flip = |mut bytes: Vec<u8>| {
            let bit = at % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        };
        let _ = Request::decode_framed(&flip(req.encode_v2(corr)));
        let _ = Response::decode_v2(&flip(resp.encode_v2(corr)));
        // A flipped length prefix either waits for more bytes, yields a
        // shorter frame, or poisons the stream — never a panic.
        let _ = reassemble(&flip(framed(&req.encode_v2(corr))));
    }
}
