//! Property tests of the decoders `hbar serve` and its client run on
//! bytes off the network. On arbitrary byte strings, and on valid
//! encodings with one byte changed or the tail cut off, the frame reader
//! and the request, response and tune-error decoders never panic, fail
//! only with `InvalidData` or `UnexpectedEof`, and the frame reader
//! holds no more memory than the bytes it was sent warrant. The request
//! head parser the daemon answers hits from agrees with the full decoder
//! on every input: the same verdict, the same error, the same key.

use hbar_serve::frame::{read_frame_into, write_frame};
use hbar_serve::proto::{
    decode_tune_error, encode_tune_error, RequestHead, TuneRequest, TuneResponse, FRAME_TUNE_REQ,
};
use hbar_serve::workload::synthetic_topologies;
use hbar_topo::cost::CostMatrices;
use proptest::prelude::*;
use std::io;

/// Asserts that a decoder's failure is one a peer's bad bytes may cause.
fn expected_failure<T>(outcome: io::Result<T>) {
    if let Err(e) = outcome {
        let kind = e.kind();
        assert!(
            matches!(
                kind,
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ),
            "{kind:?}: {e}"
        );
    }
}

/// Runs every network-facing decoder on `bytes`.
fn decode_all(bytes: &[u8]) {
    let mut payload = Vec::new();
    expected_failure(read_frame_into(&mut &bytes[..], &mut payload));
    let bound = (2 * bytes.len()).next_multiple_of(4096);
    assert!(
        payload.capacity() <= bound,
        "a frame buffer of {} bytes from {} bytes sent",
        payload.capacity(),
        bytes.len()
    );
    expected_failure(TuneRequest::decode(bytes));
    expected_failure(RequestHead::parse(bytes));
    parse_agrees_with_decode(bytes);
    expected_failure(TuneResponse::decode(bytes));
    expected_failure(decode_tune_error(bytes));
}

/// `RequestHead::parse` accepts exactly what `TuneRequest::decode`
/// accepts, refuses the rest with the same error, and on success reads
/// the same header and the key of the decoded request.
fn parse_agrees_with_decode(bytes: &[u8]) {
    match (RequestHead::parse(bytes), TuneRequest::decode(bytes)) {
        (Ok(head), Ok(req)) => {
            assert_eq!(
                (head.id, head.flags, head.max_depth),
                (req.id, req.flags, req.max_depth)
            );
            assert_eq!(head.sparseness.to_bits(), req.sparseness.to_bits());
            assert_eq!(head.p, req.cost.p());
            assert_eq!(head.key, req.cache_key());
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.to_string(), b.to_string());
        }
        (a, b) => panic!(
            "parse {:?} but decode {:?}",
            a.map(|h| h.id),
            b.map(|r| r.id)
        ),
    }
}

/// A P × P cost with distinct entries, for the small and odd `p` the
/// synthetic fleet does not cover.
fn small_cost(p: usize) -> CostMatrices {
    let mut cost = CostMatrices::zeros(p);
    for i in 0..p {
        for j in 0..p {
            cost.o[(i, j)] = 1e-6 * (1 + i * p + j) as f64;
            cost.l[(i, j)] = 1e-7 * (2 + j * p + i) as f64;
        }
    }
    cost
}

/// One valid encoding of each thing a peer sends: a request, a response,
/// a tune-error payload and a framed request; then requests at P = 1, 3
/// and 5, whose odd `p²` leaves each matrix a partial lane group.
fn valid_encodings() -> [Vec<u8>; 7] {
    let cost = synthetic_topologies(1, 7).pop().expect("one topology");
    let mut request = Vec::new();
    TuneRequest::new(11, cost).encode_into(&mut request);
    let response = TuneResponse {
        id: 11,
        cache_hit: false,
        predicted_cost: 4.5e-6,
        schedule_json: "{\"n\":8,\"stages\":[\"é\"]}".to_string(),
        code_c: "/* généré */\n".to_string(),
    };
    let mut response_bytes = Vec::new();
    response.encode_into(&mut response_bytes);
    let mut error = Vec::new();
    encode_tune_error(11, "raison: ünknown", &mut error);
    let mut frame = Vec::new();
    write_frame(&mut frame, FRAME_TUNE_REQ, &request).expect("a Vec takes every write");
    let odd = [1, 3, 5].map(|p| {
        let mut bytes = Vec::new();
        TuneRequest::new(11, small_cost(p)).encode_into(&mut bytes);
        bytes
    });
    let [p1, p3, p5] = odd;
    [request, response_bytes, error, frame, p1, p3, p5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_refused_cleanly(
        bytes in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        decode_all(&bytes);
    }

    #[test]
    fn corrupt_and_truncated_encodings_are_refused_cleanly(
        which in 0usize..7,
        at in any::<usize>(),
        byte in 0u8..=255,
        truncate in any::<bool>(),
    ) {
        let mut bytes = valid_encodings()[which].clone();
        let at = at % bytes.len();
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] = byte;
        }
        decode_all(&bytes);
    }
}

#[test]
fn the_valid_encodings_decode() {
    let [request, response, error, frame, p1, p3, p5] = valid_encodings();
    assert_eq!(TuneRequest::decode(&request).unwrap().id, 11);
    assert_eq!(TuneResponse::decode(&response).unwrap().id, 11);
    assert_eq!(decode_tune_error(&error).unwrap().0, 11);
    let mut payload = Vec::new();
    let tag = read_frame_into(&mut &frame[..], &mut payload).unwrap();
    assert_eq!((tag, payload), (FRAME_TUNE_REQ, request.clone()));
    for (bytes, p) in [(request, 8), (p1, 1), (p3, 3), (p5, 5)] {
        let head = RequestHead::parse(&bytes).unwrap();
        assert_eq!((head.id, head.p), (11, p));
        assert_eq!(head.key, TuneRequest::decode(&bytes).unwrap().cache_key());
    }
}
