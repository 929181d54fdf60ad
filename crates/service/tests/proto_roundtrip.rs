//! Property tests for the wire protocol: whatever the encoder produces,
//! the decoder must reconstruct exactly; whatever violates the framing
//! rules must be rejected, never mangled into a plausible request.

use proptest::prelude::*;

use gb_service::proto::{
    binary_ok_tail, json_hit_reply, json_ok_tail, Algorithm, BalanceRequest, BalanceResponse,
    Codec, ErrorCode, Frame, FrameError, FrameReader, Json, ProtoError, Request, Response,
    WireCodec, BIN_HDR, MAGIC, MAX_FRAME,
};
use gb_service::spec::ProblemSpec;

/// Encodes with `codec` and strips the framing, returning the payload
/// the decoder sees (the newline for JSON, the 5-byte header for
/// binary) after asserting the frame is well-formed.
fn deframe(codec: WireCodec, frame: &[u8]) -> Vec<u8> {
    match codec {
        WireCodec::Json => {
            assert_eq!(frame.last(), Some(&b'\n'), "JSON frames end in newline");
            frame[..frame.len() - 1].to_vec()
        }
        WireCodec::Binary => {
            assert_eq!(frame[0], MAGIC);
            let len = u32::from_le_bytes(frame[1..BIN_HDR].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - BIN_HDR, "length prefix matches body");
            frame[BIN_HDR..].to_vec()
        }
    }
}

fn request_round_trip(codec: WireCodec, req: &Request) -> Request {
    let mut frame = Vec::new();
    codec.encode_request(req, &mut frame);
    codec
        .decode_request(&deframe(codec, &frame))
        .expect("round trip decodes")
}

fn response_round_trip(codec: WireCodec, resp: &Response) -> Response {
    let mut frame = Vec::new();
    codec.encode_response(resp, &mut frame);
    codec
        .decode_response(&deframe(codec, &frame))
        .expect("round trip decodes")
}

fn algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Hf),
        Just(Algorithm::Ba),
        Just(Algorithm::BaHf),
        Just(Algorithm::Phf),
    ]
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Timeout),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::Internal),
    ]
}

fn problem_spec() -> impl Strategy<Value = ProblemSpec> {
    prop_oneof![
        (1u64..1_000_000, 0..1_000u64).prop_map(|(w, seed)| ProblemSpec::Synthetic {
            weight: w as f64 / 1000.0,
            lo: 0.1,
            hi: 0.5,
            seed,
        }),
        (1usize..5_000, 0..100u64).prop_map(|(refinements, seed)| ProblemSpec::FeTree {
            refinements,
            bias: 0.75,
            seed,
        }),
        (1usize..100, 1usize..100, 0usize..5, 0..100u64).prop_map(
            |(rows, cols, hotspots, seed)| ProblemSpec::Grid {
                rows,
                cols,
                hotspots,
                seed,
            }
        ),
        (1usize..6, 1u64..50, 0..100u64).prop_map(|(dims, sharp, seed)| {
            ProblemSpec::Quadrature {
                dims,
                sharpness: sharp as f64,
                min_width: 0.01,
                seed,
            }
        }),
        (1usize..5_000, 2usize..16, 0..100u64).prop_map(|(nodes, branch, seed)| {
            ProblemSpec::SearchTree {
                nodes,
                branch,
                seed,
            }
        }),
        (1usize..5_000, any::<bool>(), 0..100u64)
            .prop_map(|(tasks, heavy, seed)| { ProblemSpec::TaskList { tasks, heavy, seed } }),
    ]
}

fn balance_request() -> impl Strategy<Value = BalanceRequest> {
    (
        any::<bool>(),
        any::<u64>(),
        algorithm(),
        1usize..4096,
        1u64..100,
        any::<bool>(),
        problem_spec(),
    )
        .prop_map(
            |(has_id, id, algorithm, n, theta_tenths, want_pieces, problem)| BalanceRequest {
                id: has_id.then_some(id),
                algorithm,
                n,
                theta: theta_tenths as f64 / 10.0,
                deadline_ms: (id % 3 == 0).then_some(id % 10_000),
                want_pieces,
                problem,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn balance_requests_round_trip(req in balance_request()) {
        let wire = Request::Balance(req);
        let line = wire.encode();
        prop_assert!(line.len() < MAX_FRAME, "encoded request too large");
        prop_assert!(!line.contains('\n'), "frames must be single lines");
        let decoded = Request::decode(&line);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), wire);
    }

    #[test]
    fn ok_responses_round_trip(
        id in 0u64..u64::MAX / 2,
        alg in algorithm(),
        n in 1usize..4096,
        ratio_m in 1_000u64..100_000,
        micros in 0u64..10_000_000,
        pieces in prop::collection::vec(1u64..1_000_000, 0..64),
    ) {
        let resp = Response::Ok(BalanceResponse {
            id: Some(id),
            algorithm: alg,
            n,
            ratio: ratio_m as f64 / 1000.0,
            bound: ratio_m as f64 / 500.0,
            alpha: 0.25,
            cached: micros % 2 == 0,
            micros,
            pieces: pieces.iter().map(|&w| w as f64 / 1000.0).collect(),
        });
        let line = resp.encode();
        prop_assert!(!line.contains('\n'));
        let decoded = Response::decode(&line);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), resp);
    }

    #[test]
    fn error_responses_round_trip(
        code in error_code(),
        has_id in any::<bool>(),
        id in 0u64..1_000_000,
        msg_seed in 0u64..1_000,
    ) {
        let resp = Response::Error {
            id: has_id.then_some(id),
            code,
            message: format!("failure #{msg_seed} with \"quotes\" and \\backslashes\\ and\tescapes"),
        };
        let decoded = Response::decode(&resp.encode());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), resp);
    }

    #[test]
    fn arbitrary_json_survives_reencoding(
        ints in prop::collection::vec(i64::MIN / 2..i64::MAX / 2, 1..8),
        key_seed in 0u64..1_000,
    ) {
        // Build a nested document, encode, parse, re-encode: fixpoint.
        let doc = Json::Obj(vec![
            (format!("k{key_seed}"), Json::Arr(ints.iter().map(|&i| Json::Int(i)).collect())),
            ("nested".into(), Json::Obj(vec![
                ("f".into(), Json::Num(key_seed as f64 / 7.0)),
                ("s".into(), Json::Str(format!("v{key_seed}\n\"end\""))),
                ("b".into(), Json::Bool(key_seed % 2 == 0)),
                ("z".into(), Json::Null),
            ])),
        ]);
        let once = doc.encode();
        let parsed = Json::parse(&once);
        prop_assert!(parsed.is_ok(), "parse failed: {:?}", parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &doc);
        prop_assert_eq!(parsed.encode(), once);
    }

    /// Every request variant survives both codecs, and the two codecs
    /// agree on what they carried: binary-decode(binary-encode(x)) ==
    /// json-decode(json-encode(x)) == x.
    #[test]
    fn requests_round_trip_in_both_codecs(req in balance_request()) {
        for wire in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Balance(req),
        ] {
            let via_json = request_round_trip(WireCodec::Json, &wire);
            let via_binary = request_round_trip(WireCodec::Binary, &wire);
            prop_assert_eq!(&via_json, &wire);
            prop_assert_eq!(&via_binary, &via_json);
        }
    }

    /// Every response variant survives both codecs and the codecs agree.
    #[test]
    fn responses_round_trip_in_both_codecs(
        has_id in any::<bool>(),
        id in any::<u64>(),
        alg in algorithm(),
        n in 1usize..4096,
        ratio_m in 1_000u64..100_000,
        micros in 0u64..10_000_000,
        code in error_code(),
        pieces in prop::collection::vec(1u64..1_000_000, 0..64),
    ) {
        let stats = Json::Obj(vec![
            ("requests".into(), Json::Int(id as i64 % 100_000)),
            ("engine".into(), Json::Str("epoll".into())),
            ("rate".into(), Json::Num(ratio_m as f64 / 7.0)),
        ]);
        for resp in [
            Response::Pong,
            Response::Stats(stats),
            Response::Error {
                id: has_id.then_some(id),
                code,
                message: format!("err #{micros} with \"quotes\" and \u{1F600}"),
            },
            Response::Ok(BalanceResponse {
                id: has_id.then_some(id),
                algorithm: alg,
                n,
                ratio: ratio_m as f64 / 1000.0,
                bound: ratio_m as f64 / 500.0,
                alpha: 0.25,
                cached: micros % 2 == 0,
                micros,
                pieces: pieces.iter().map(|&w| w as f64 / 1000.0).collect(),
            }),
        ] {
            let via_json = response_round_trip(WireCodec::Json, &resp);
            let via_binary = response_round_trip(WireCodec::Binary, &resp);
            prop_assert_eq!(&via_json, &resp);
            prop_assert_eq!(&via_binary, &via_json);
        }
    }

    /// The spliced hit path must be byte-identical to the full encoder:
    /// a JSON client cannot tell a zero-copy cache hit from a freshly
    /// serialized reply.
    #[test]
    fn spliced_hit_replies_match_full_encoding(
        has_id in any::<bool>(),
        id in any::<u64>(),
        alg in algorithm(),
        n in 1usize..4096,
        ratio_m in 1_000u64..100_000,
        micros in 0u64..10_000_000,
        pieces_raw in prop::collection::vec(1u64..1_000_000, 0..32),
    ) {
        let pieces: Vec<f64> = pieces_raw.iter().map(|&w| w as f64 / 1000.0).collect();
        let resp = Response::Ok(BalanceResponse {
            id: has_id.then_some(id),
            algorithm: alg,
            n,
            ratio: ratio_m as f64 / 1000.0,
            bound: ratio_m as f64 / 500.0,
            alpha: 0.25,
            cached: true,
            micros,
            pieces: pieces.clone(),
        });
        // JSON: splice id + micros into the invariant tail.
        let (tail, split) = json_ok_tail(
            alg, n, ratio_m as f64 / 1000.0, ratio_m as f64 / 500.0, 0.25, &pieces,
        );
        let mut spliced = Vec::new();
        json_hit_reply(&mut spliced, has_id.then_some(id), micros, &tail, split);
        let mut full = Vec::new();
        WireCodec::Json.encode_response(&resp, &mut full);
        prop_assert_eq!(&spliced, &full, "JSON splice diverged from encoder");
        // Binary: head + invariant tail.
        let (mut bin_spliced, mut bin_full) = (Vec::new(), Vec::new());
        let mut bin_tail = Vec::new();
        binary_ok_tail(
            alg, n, ratio_m as f64 / 1000.0, ratio_m as f64 / 500.0, 0.25, &pieces, &mut bin_tail,
        );
        gb_service::proto::binary_hit_reply(
            &mut bin_spliced, has_id.then_some(id), micros, &bin_tail,
        );
        WireCodec::Binary.encode_response(&resp, &mut bin_full);
        prop_assert_eq!(&bin_spliced, &bin_full, "binary splice diverged from encoder");
    }

    /// Mutated binary payloads must produce errors, never panics.
    #[test]
    fn mutated_binary_frames_never_panic(
        req in balance_request(),
        flip in 0usize..300,
        cut in 0usize..300,
    ) {
        let mut frame = Vec::new();
        WireCodec::Binary.encode_request(&Request::Balance(req), &mut frame);
        let payload = &frame[BIN_HDR..];
        let truncated = &payload[..payload.len().saturating_sub(cut % (payload.len() + 1))];
        let _ = WireCodec::Binary.decode_request(truncated);
        let mut mutated = payload.to_vec();
        if !mutated.is_empty() {
            let i = flip % mutated.len();
            mutated[i] = mutated[i].wrapping_add(1);
            let _ = WireCodec::Binary.decode_request(&mutated);
        }
        let _ = WireCodec::Binary.decode_response(payload);
    }

    #[test]
    fn mutated_frames_never_panic(req in balance_request(), cut in 1usize..200, flip in 0usize..200) {
        // Truncations and byte edits must produce Err or a valid request —
        // never a panic.
        let line = Request::Balance(req).encode();
        let truncated = &line[..line.len().saturating_sub(cut.min(line.len()))];
        let _ = Request::decode(truncated);
        let mut bytes = line.clone().into_bytes();
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] = bytes[i].wrapping_add(1);
            if let Ok(s) = String::from_utf8(bytes) {
                let _ = Request::decode(&s);
            }
        }
    }
}

/// Any `f64` bit pattern: finite values of every magnitude, infinities
/// and NaNs, plus values with few significant digits.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1_000_000).prop_map(|w| w as f64 / 1000.0),
        (0u64..64).prop_map(|e| 2f64.powi(e as i32 - 32)),
    ]
}

/// An ok reply line as the encoder wrote it before floats were printed
/// in-tree: `Display` plus the `.0` tag, or `null` for a non-finite
/// value, and ids, `n` and micros as unsigned integers.
fn reference_ok_line(r: &BalanceResponse) -> String {
    let num = |x: f64| {
        if !x.is_finite() {
            return "null".to_string();
        }
        let s = x.to_string();
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            s + ".0"
        }
    };
    let id = r.id.map_or(String::new(), |id| format!("\"id\":{id},"));
    let pieces: Vec<String> = r.pieces.iter().map(|&w| num(w)).collect();
    format!(
        "{{{id}\"status\":\"ok\",\"algorithm\":\"{}\",\"n\":{},\"cached\":{},\"ratio\":{},\"bound\":{},\"alpha\":{},\"micros\":{},\"pieces\":[{}]}}",
        r.algorithm.name(),
        r.n,
        r.cached,
        num(r.ratio),
        num(r.bound),
        num(r.alpha),
        r.micros,
        pieces.join(","),
    )
}

/// The generic decoder: the whole line into a `Json` tree, then the
/// response out of the tree.
fn decode_via_tree(line: &str) -> Result<Response, ProtoError> {
    let json = Json::parse(line).map_err(|e| ProtoError {
        message: e.to_string(),
    })?;
    Response::from_json(&json)
}

/// Re-encodes a top-level object with its keys rotated by `turn` and
/// `gap` spaces around every separator outside the values.
fn reshuffled(line: &str, turn: usize, gap: usize) -> String {
    let Ok(Json::Obj(mut entries)) = Json::parse(line) else {
        return line.to_string();
    };
    if !entries.is_empty() {
        let k = turn % entries.len();
        entries.rotate_left(k);
    }
    let pad = " ".repeat(gap);
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| {
            format!(
                "{pad}{}{pad}:{pad}{}{pad}",
                Json::Str(k.clone()).encode(),
                v.encode()
            )
        })
        .collect();
    format!("{pad}{{{}}}{pad}", fields.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ok replies are written straight into the frame, byte for byte as
    /// the `Json`-tree encoder with `Display` floats wrote them, and the
    /// spliced cached-hit tail agrees.
    #[test]
    fn ok_replies_keep_their_wire_bytes(
        has_id in any::<bool>(),
        id in any::<u64>(),
        alg in algorithm(),
        n in 1usize..70_000,
        cached in any::<bool>(),
        micros in any::<u64>(),
        ratio in any_f64(),
        bound in any_f64(),
        alpha in any_f64(),
        pieces in prop::collection::vec(any_f64(), 0..40),
    ) {
        let id = has_id.then_some(id);
        let r = BalanceResponse { id, algorithm: alg, n, ratio, bound, alpha, cached, micros, pieces };
        let want = reference_ok_line(&r);
        prop_assert_eq!(Response::Ok(r.clone()).encode(), want.clone());
        let mut frame = Vec::new();
        WireCodec::Json.encode_response(&Response::Ok(r.clone()), &mut frame);
        prop_assert_eq!(frame, format!("{want}\n").into_bytes());
        if cached {
            let (tail, split) = json_ok_tail(alg, n, ratio, bound, alpha, &r.pieces);
            let mut spliced = Vec::new();
            json_hit_reply(&mut spliced, id, micros, &tail, split);
            prop_assert_eq!(spliced, format!("{want}\n").into_bytes());
        }
    }

    /// The decoder that reads `pieces` straight into `f64`s answers as
    /// the generic one does, errors included: on encoded replies of every
    /// kind, on the same replies with their keys reordered and spaces
    /// added, with `pieces` broken or repeated, and on every truncation.
    #[test]
    fn decoded_replies_match_the_generic_path(
        has_id in any::<bool>(),
        id in 0u64..u64::MAX / 2,
        alg in algorithm(),
        n in 1usize..4096,
        micros in 0u64..10_000_000,
        code in error_code(),
        pieces in prop::collection::vec(any_f64(), 0..16),
        turn in 0usize..16,
        gap in 0usize..3,
        cut in any::<usize>(),
        kind in 0usize..4,
    ) {
        let ok = Response::Ok(BalanceResponse {
            id: has_id.then_some(id),
            algorithm: alg,
            n,
            ratio: 1.25,
            bound: 3.5,
            alpha: 0.25,
            cached: micros % 2 == 0,
            micros,
            pieces,
        })
        .encode();
        let line = match kind {
            0 => ok,
            1 => Response::Error {
                id: has_id.then_some(id),
                code,
                message: format!("err #{micros} with \"quotes\" and \u{1F600}"),
            }
            .encode(),
            2 => Response::Pong.encode(),
            _ => Response::Stats(Json::Obj(vec![("pieces".into(), Json::Int(3))])).encode(),
        };
        let broken = line
            .replacen("\"pieces\":[", "\"pieces\":[\"x\",", 1)
            .replacen("\"status\"", "\"pieces\":{\"a\":[1]},\"status\"", 1);
        let repeated = line.replacen("\"status\"", "\"pieces\":[1,2],\"status\"", 1);
        for text in [
            line.clone(),
            reshuffled(&line, turn, gap),
            broken.clone(),
            reshuffled(&broken, turn, gap),
            repeated,
            line.replace("null", "[null]"),
        ] {
            prop_assert_eq!(Response::decode(&text), decode_via_tree(&text), "{}", text);
            let mut end = cut % (text.len() + 1);
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            let short = &text[..end];
            prop_assert_eq!(Response::decode(short), decode_via_tree(short), "{}", short);
        }
    }
}

#[test]
fn malformed_frames_are_rejected() {
    for line in [
        "",
        "{}",
        "[]",
        "42",
        "{\"op\":\"balance\"}",
        "{\"op\":\"balance\",\"algorithm\":\"hf\",\"n\":4}",
        "{\"op\":\"nope\"}",
        "{\"op\":\"balance\",\"algorithm\":\"hf\",\"n\":4,\"problem\":{\"class\":\"synthetic\",\"weight\":-1.0,\"lo\":0.1,\"hi\":0.5,\"seed\":1}}",
        "not json at all",
        "{\"op\": \"balance\", \"algorithm\": \"hf\", \"n\": 1e99, \"problem\": {}}",
    ] {
        assert!(Request::decode(line).is_err(), "accepted {line:?}");
    }
}

#[test]
fn oversized_frame_is_rejected_and_stream_resyncs() {
    // A single line longer than MAX_FRAME must surface TooLong and the
    // next (valid) line must still be readable.
    let huge_padding = "x".repeat(MAX_FRAME + 1);
    let stream = format!("{huge_padding}\n{}\n", Request::Ping.encode());
    let mut reader = FrameReader::new(stream.as_bytes());
    assert!(matches!(reader.poll_line(), Err(FrameError::TooLong)));
    match reader.poll_line() {
        Ok(Frame::Line(line)) => {
            assert!(matches!(Request::decode(line), Ok(Request::Ping)));
        }
        other => panic!("expected the ping line after resync, got {other:?}"),
    }
    assert!(matches!(reader.poll_line(), Ok(Frame::Eof)));
}

#[test]
fn exactly_max_frame_is_accepted() {
    // Boundary: a line of exactly MAX_FRAME bytes is legal.
    let body = "y".repeat(MAX_FRAME);
    let stream = format!("{body}\n");
    let mut reader = FrameReader::new(stream.as_bytes());
    match reader.poll_line() {
        Ok(Frame::Line(line)) => assert_eq!(line.len(), MAX_FRAME),
        other => panic!("expected max-size line, got {other:?}"),
    }
}
