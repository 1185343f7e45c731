//! Wire-codec round-trip and rejection suite.
//!
//! Every envelope shape the protocols can emit — all 16 message kinds ×
//! all 3 payload classes × payload sizes from empty to 64 KiB — must
//! survive encode → decode bit-exactly, both through the buffer API and
//! through the streaming reader. And the decoder must reject (never
//! panic on) truncated, trailing-garbage, and fuzzed frames.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repmem_core::{
    CopyState, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag, PayloadKind, QueueKind,
};
use repmem_net::codec::{
    decode_frame, encode_envelope_frame, encode_envelope_frame_into, encode_frame,
    encode_frame_into, envelope_frame_len, read_frame, CodecError, Frame, MAX_FRAME_LEN,
    WIRE_VERSION,
};
use repmem_net::{Envelope, Payload};

const SIZES: [usize; 5] = [0, 1, 16, 1024, 64 * 1024];

fn random_payload(rng: &mut StdRng, size: usize) -> Payload {
    let data: Vec<u8> = (0..size)
        .map(|_| rng.random_range(0..256u32) as u8)
        .collect();
    Payload {
        data: Bytes::from(data),
        version: rng.random::<u64>(),
        writer: NodeId(rng.random_range(0..64u32) as u16),
    }
}

fn random_envelope(rng: &mut StdRng, kind: MsgKind, payload: PayloadKind, size: usize) -> Envelope {
    let msg = Msg {
        kind,
        initiator: NodeId(rng.random_range(0..64u32) as u16),
        sender: NodeId(rng.random_range(0..64u32) as u16),
        object: ObjectId(rng.random::<u32>()),
        queue: QueueKind::ALL[rng.random_range(0..QueueKind::ALL.len())],
        payload,
        op: OpTag(rng.random::<u64>()),
        epoch: rng.random::<u64>(),
    };
    Envelope {
        msg,
        params: (payload == PayloadKind::Params).then(|| random_payload(rng, size)),
        copy: (payload == PayloadKind::Copy).then(|| random_payload(rng, size)),
        clock: rng.random::<u64>(),
    }
}

#[test]
fn every_envelope_shape_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for kind in MsgKind::ALL {
        for payload in PayloadKind::ALL {
            for size in SIZES {
                let env = random_envelope(&mut rng, kind, payload, size);
                let framed = encode_frame(&Frame::Envelope(env.clone()));
                // The borrow-based hot path must produce identical bytes.
                assert_eq!(framed, encode_envelope_frame(&env), "{kind:?}/{payload:?}");
                let decoded = decode_frame(&framed[4..]).expect("decode");
                assert_eq!(decoded, Frame::Envelope(env), "{kind:?}/{payload:?}/{size}");
            }
        }
    }
}

#[test]
fn streaming_reader_round_trips_back_to_back_frames() {
    let mut rng = StdRng::seed_from_u64(7);
    let envs: Vec<Envelope> = MsgKind::ALL
        .into_iter()
        .flat_map(|kind| {
            PayloadKind::ALL.map(|payload| random_envelope(&mut rng, kind, payload, 128))
        })
        .collect();
    let mut stream = Vec::new();
    for env in &envs {
        stream.extend_from_slice(&encode_envelope_frame(env));
    }
    let mut r = &stream[..];
    for env in &envs {
        match read_frame(&mut r).expect("read") {
            Frame::Envelope(e) => assert_eq!(&e, env),
            other => panic!("expected an envelope, got {other:?}"),
        }
    }
    assert!(matches!(read_frame(&mut r), Err(CodecError::Eof)));
}

#[test]
fn control_frames_round_trip() {
    let frames = vec![
        Frame::Hello {
            version: WIRE_VERSION,
            node: 0xFFFF,
        },
        Frame::Op {
            op: OpKind::Read,
            object: ObjectId(17),
            data: None,
        },
        Frame::Op {
            op: OpKind::Write,
            object: ObjectId(0),
            data: Some(Bytes::from_static(b"payload")),
        },
        Frame::OpDone {
            result: Ok(Bytes::from_static(b"value")),
        },
        Frame::OpDone {
            result: Err("cluster poisoned by node 2: boom".into()),
        },
        Frame::CostQuery,
        Frame::CostReport {
            cost: u64::MAX,
            messages: 12345,
        },
        Frame::Shutdown,
        Frame::Dump {
            objects: vec![
                (CopyState::Invalid, 0, 0, Bytes::new()),
                (CopyState::Valid, 7, 1, Bytes::from_static(b"x")),
                (CopyState::Reserved, 8, 2, Bytes::from_static(b"yy")),
                (CopyState::Dirty, 9, 3, Bytes::from_static(b"zzz")),
                (CopyState::SharedClean, 10, 4, Bytes::new()),
                (CopyState::SharedDirty, 11, 5, Bytes::new()),
                (CopyState::Recalling, 12, 6, Bytes::new()),
            ],
        },
    ];
    for frame in frames {
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes[4..]).expect("decode"), frame);
        let mut r = &bytes[..];
        assert_eq!(read_frame(&mut r).expect("read"), frame);
    }
}

#[test]
fn envelope_frame_len_is_computed_exactly() {
    let mut rng = StdRng::seed_from_u64(42);
    for kind in MsgKind::ALL {
        for payload in PayloadKind::ALL {
            for size in SIZES {
                let env = random_envelope(&mut rng, kind, payload, size);
                assert_eq!(
                    envelope_frame_len(&env),
                    encode_envelope_frame(&env).len() as u64,
                    "{kind:?}/{payload:?}/{size}"
                );
            }
        }
    }
}

#[test]
fn encoding_is_copy_count_stable() {
    // The into-buffer encoders write each byte exactly once: body bytes
    // go straight into the output after a 4-byte placeholder that is
    // backpatched, with no intermediate body buffer. Observable
    // consequences pinned here: (a) identical bytes to the allocating
    // API, (b) append semantics (burst assembly), and (c) zero
    // reallocation once the scratch buffer has grown — re-encoding into
    // a cleared buffer must not allocate again.
    let mut rng = StdRng::seed_from_u64(0x5C1A7C8);
    let envs: Vec<Envelope> = PayloadKind::ALL
        .map(|payload| random_envelope(&mut rng, MsgKind::WReq, payload, 512))
        .to_vec();

    let mut scratch = Vec::new();
    for env in &envs {
        scratch.clear();
        encode_envelope_frame_into(env, &mut scratch);
        assert_eq!(scratch, encode_envelope_frame(env));
        scratch.clear();
        encode_frame_into(&Frame::Envelope(env.clone()), &mut scratch);
        assert_eq!(scratch, encode_frame(&Frame::Envelope(env.clone())));
    }

    // Append semantics: two frames in one buffer equal their
    // concatenated standalone encodings.
    scratch.clear();
    encode_envelope_frame_into(&envs[0], &mut scratch);
    encode_envelope_frame_into(&envs[1], &mut scratch);
    let mut concat = encode_envelope_frame(&envs[0]);
    concat.extend_from_slice(&encode_envelope_frame(&envs[1]));
    assert_eq!(scratch, concat);

    // Reallocation stability: once warm, re-encoding the same shapes
    // into the reused buffer keeps the exact same capacity.
    let warm_capacity = scratch.capacity();
    for _ in 0..16 {
        scratch.clear();
        encode_envelope_frame_into(&envs[0], &mut scratch);
        encode_envelope_frame_into(&envs[1], &mut scratch);
        assert_eq!(
            scratch.capacity(),
            warm_capacity,
            "scratch buffer reallocated"
        );
    }
}

#[test]
fn truncation_is_rejected_at_every_length() {
    let mut rng = StdRng::seed_from_u64(99);
    let env = random_envelope(&mut rng, MsgKind::WGnt, PayloadKind::Copy, 64);
    let full = encode_envelope_frame(&env);
    for cut in 1..full.len() {
        let mut r = &full[..cut];
        match read_frame(&mut r) {
            Err(CodecError::Malformed(_)) => {}
            other => panic!("cut at {cut}/{} gave {other:?}", full.len()),
        }
    }
    // The same bodies through the buffer API.
    let body = &full[4..];
    for cut in 0..body.len() {
        assert!(
            matches!(decode_frame(&body[..cut]), Err(CodecError::Malformed(_))),
            "body cut at {cut}"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut rng = StdRng::seed_from_u64(5);
    let env = random_envelope(&mut rng, MsgKind::Ack, PayloadKind::Token, 0);
    let full = encode_envelope_frame(&env);
    let mut body = full[4..].to_vec();
    body.push(0);
    assert!(matches!(decode_frame(&body), Err(CodecError::Malformed(_))));
}

#[test]
fn unknown_codes_are_rejected() {
    // Unknown frame tag.
    assert!(matches!(
        decode_frame(&[0xEE]),
        Err(CodecError::Malformed(_))
    ));
    // Empty body.
    assert!(matches!(decode_frame(&[]), Err(CodecError::Malformed(_))));
    // Valid envelope with the MsgKind byte out of range.
    let mut rng = StdRng::seed_from_u64(3);
    let env = random_envelope(&mut rng, MsgKind::RReq, PayloadKind::Token, 0);
    let full = encode_envelope_frame(&env);
    let mut body = full[4..].to_vec();
    body[1] = MsgKind::ALL.len() as u8; // first byte past the last kind
    assert!(matches!(decode_frame(&body), Err(CodecError::Malformed(_))));
    // Tag 8, the retired batch frame, is as unknown as any other tag —
    // even in front of a count and a well-formed envelope.
    let mut retired = vec![8u8, 1, 0, 0, 0];
    retired.extend_from_slice(&full[4..]);
    assert!(matches!(
        decode_frame(&retired),
        Err(CodecError::Malformed(_))
    ));
    // Unknown envelope flag bits.
    let mut body = full[4..].to_vec();
    let flags_at = body.len() - 1; // token-only: flags is the last byte
    body[flags_at] = 0b100;
    assert!(matches!(decode_frame(&body), Err(CodecError::Malformed(_))));
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocating() {
    let mut framed = Vec::new();
    framed.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
    framed.extend_from_slice(&[0u8; 16]);
    let mut r = &framed[..];
    assert!(matches!(read_frame(&mut r), Err(CodecError::Malformed(_))));
}

#[test]
fn every_frame_variant_rejects_every_truncated_prefix() {
    // One representative of every Frame variant (every wire tag),
    // payload-bearing where the variant allows it. Any strict prefix of
    // any encoding must come back as a CodecError — a clean Eof only
    // for the empty stream, Malformed everywhere else, a panic never.
    let mut rng = StdRng::seed_from_u64(0x7A61C);
    let env = random_envelope(&mut rng, MsgKind::WGnt, PayloadKind::Copy, 32);
    let frames: Vec<Frame> = vec![
        Frame::Hello {
            version: WIRE_VERSION,
            node: 3,
        },
        Frame::Envelope(env.clone()),
        Frame::Op {
            op: OpKind::Read,
            object: ObjectId(1),
            data: None,
        },
        Frame::Op {
            op: OpKind::Write,
            object: ObjectId(9),
            data: Some(Bytes::from_static(b"abcdef")),
        },
        Frame::OpDone {
            result: Ok(Bytes::from_static(b"value")),
        },
        Frame::OpDone {
            result: Err("node 1 is permanently unreachable".into()),
        },
        Frame::CostQuery,
        Frame::CostReport {
            cost: 17,
            messages: 4,
        },
        Frame::Shutdown,
        Frame::Dump {
            objects: vec![
                (CopyState::Dirty, 5, 2, Bytes::from_static(b"zz")),
                (CopyState::Valid, 6, 3, Bytes::new()),
            ],
        },
    ];
    for frame in &frames {
        let full = encode_frame(frame);
        // The streaming reader, over every strict prefix of the wire
        // bytes (length prefix included).
        for cut in 0..full.len() {
            let mut r = &full[..cut];
            match read_frame(&mut r) {
                Err(CodecError::Eof) if cut == 0 => {}
                Err(CodecError::Malformed(_)) if cut > 0 => {}
                other => panic!("{frame:?} cut at {cut}/{} gave {other:?}", full.len()),
            }
        }
        // The buffer decoder, over every strict prefix of the body.
        let body = &full[4..];
        for cut in 0..body.len() {
            assert!(
                matches!(decode_frame(&body[..cut]), Err(CodecError::Malformed(_))),
                "{frame:?} body cut at {cut}/{}",
                body.len()
            );
        }
    }
}

#[test]
fn garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for _ in 0..2000 {
        let len = rng.random_range(0..256usize);
        let body: Vec<u8> = (0..len)
            .map(|_| rng.random_range(0..256u32) as u8)
            .collect();
        // Any result is fine; panics and aborts are not.
        let _ = decode_frame(&body);
        let mut r = &body[..];
        let _ = read_frame(&mut r);
    }
}
