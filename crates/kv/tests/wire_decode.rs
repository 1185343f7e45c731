//! KV request-protocol decode under hostile bytes, mirroring the net
//! codec's suite: every strict prefix of every frame must be rejected,
//! and seeded garbage — random bodies and mutated valid frames — must
//! never panic the decoder. (Round trips are `wire.rs`'s unit tests.)

use bytes::Bytes;
use repmem_kv::wire::{decode_kv_frame, read_kv_frame, write_kv_frame};
use repmem_kv::{KvFrame, WireError, KV_WIRE_VERSION};
use std::io::ErrorKind;

/// SplitMix64: a seeded byte source with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// One representative of every `KvFrame` variant (every wire tag), with
/// both option codes and payloads where the variant carries them.
fn every_frame() -> Vec<KvFrame> {
    vec![
        KvFrame::Hello {
            version: KV_WIRE_VERSION,
        },
        KvFrame::Get {
            key: "user000000000042".into(),
        },
        KvFrame::Put {
            key: "k".into(),
            value: Bytes::from_static(b"value bytes"),
        },
        KvFrame::Scan {
            keys: vec!["a".into(), "bb".into(), String::new()],
        },
        KvFrame::Value { value: None },
        KvFrame::Value {
            value: Some(Bytes::from_static(b"hit")),
        },
        KvFrame::Done,
        KvFrame::Values {
            values: vec![Some(Bytes::from_static(b"x")), None, Some(Bytes::new())],
        },
        KvFrame::Error {
            reason: "node 4 is not running".into(),
        },
        KvFrame::Stats,
        KvFrame::StatsReport {
            ops: u64::MAX,
            cost: 345,
            messages: 67,
        },
        KvFrame::Shutdown,
    ]
}

fn wire(frame: &KvFrame) -> Vec<u8> {
    let mut w = Vec::new();
    write_kv_frame(&mut w, frame).expect("write to a Vec");
    w
}

#[test]
fn every_frame_rejects_every_truncated_prefix() {
    for frame in every_frame() {
        let full = wire(&frame);
        // The streaming reader, over every strict prefix of the wire
        // bytes (length prefix included): a clean Eof only for the empty
        // stream, an unexpected-EOF I/O error everywhere else.
        for cut in 0..full.len() {
            let mut r = &full[..cut];
            match read_kv_frame(&mut r) {
                Err(WireError::Eof) if cut == 0 => {}
                Err(WireError::Io(e)) if cut > 0 && e.kind() == ErrorKind::UnexpectedEof => {}
                other => panic!("{frame:?} cut at {cut}/{} gave {other:?}", full.len()),
            }
        }
        // The buffer decoder, over every strict prefix of the body.
        let body = &full[4..];
        for cut in 0..body.len() {
            assert!(
                matches!(decode_kv_frame(&body[..cut]), Err(WireError::Malformed(_))),
                "{frame:?} body cut at {cut}/{}",
                body.len()
            );
        }
    }
}

#[test]
fn garbage_never_panics() {
    let mut rng = Rng(0xFACADE);
    // Random bodies, and the same bytes as a stream.
    for _ in 0..2000 {
        let len = rng.below(256);
        let body = rng.bytes(len);
        // Any result is fine; panics and aborts are not.
        let _ = decode_kv_frame(&body);
        let _ = read_kv_frame(&mut &body[..]);
    }
    // Valid frames with a few bytes overwritten: these get past the tag
    // and into the length and count fields.
    let frames: Vec<Vec<u8>> = every_frame().iter().map(wire).collect();
    for _ in 0..4000 {
        let mut w = frames[rng.below(frames.len())].clone();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(w.len());
            w[at] = rng.next() as u8;
        }
        let _ = decode_kv_frame(&w[4..]);
        let _ = read_kv_frame(&mut &w[..]);
    }
}
