//! Length-prefixed binary wire codec (std-only, little-endian).
//!
//! Every frame is `[u32 LE body length][body]`; `body[0]` is a frame
//! tag. The [`Frame::Envelope`] body carries the paper's five-tuple
//! message token verbatim (via the stable `wire_code`s defined in
//! `repmem-core`) plus the optional `params`/`copy` payloads; the
//! remaining frames form the small control plane used by `repmem-node`
//! processes (hello handshake, remote operation injection, cost polling,
//! shutdown/dump).
//!
//! Decoding is strict: unknown tags, unknown enum codes, truncated
//! bodies, trailing bytes and oversized length prefixes are all rejected
//! with a descriptive [`CodecError`] — a garbage or hostile peer can
//! never panic the node.

use crate::{Envelope, Payload};
use bytes::Bytes;
use repmem_core::{
    CopyState, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag, PayloadKind, QueueKind,
};
use std::io::{Read, Write};

/// Wire protocol version carried by the hello handshake. Version 2
/// added the ownership-epoch field to envelope bodies.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation happens.
pub const MAX_FRAME_LEN: usize = 1 << 26; // 64 MiB

/// Codec / framing failures.
#[derive(Debug)]
pub enum CodecError {
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// Underlying stream failure (includes mid-frame EOF).
    Io(std::io::Error),
    /// Structurally invalid frame.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof => write!(f, "end of stream"),
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Everything that can travel on a `repmem-net` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake: protocol version + the dialer's node id
    /// ([`crate::CTRL_NODE`] marks a control connection).
    Hello { version: u8, node: u16 },
    /// A protocol message envelope.
    Envelope(Envelope),
    /// Control: inject an application operation at the receiving node.
    Op {
        op: OpKind,
        object: ObjectId,
        data: Option<Bytes>,
    },
    /// Control: the injected operation completed (`Err` carries the
    /// cluster poison reason).
    OpDone { result: Result<Bytes, String> },
    /// Control: ask for the node's local cost counters.
    CostQuery,
    /// Control: the node's local communication-cost counters.
    CostReport { cost: u64, messages: u64 },
    /// Control: stop the node process and reply with a `Dump`.
    Shutdown,
    /// Control: final per-object replica snapshot
    /// `(state, version, writer, data)`.
    Dump {
        objects: Vec<(CopyState, u64, u16, Bytes)>,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_ENVELOPE: u8 = 1;
const TAG_OP: u8 = 2;
const TAG_OP_DONE: u8 = 3;
const TAG_COST_QUERY: u8 = 4;
const TAG_COST_REPORT: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_DUMP: u8 = 7;

/// Fixed encoded size of an envelope body with no payload sections:
/// frame tag, msg kind, initiator, sender, object, queue, payload kind,
/// op tag, ownership epoch, clock, flags.
const ENVELOPE_FIXED_LEN: u64 = 1 + 1 + 2 + 2 + 4 + 1 + 1 + 8 + 8 + 8 + 1;
/// Fixed per-payload overhead: version, writer, data length prefix.
const PAYLOAD_FIXED_LEN: u64 = 8 + 2 + 4;

fn copy_state_code(s: CopyState) -> u8 {
    match s {
        CopyState::Invalid => 0,
        CopyState::Valid => 1,
        CopyState::Reserved => 2,
        CopyState::Dirty => 3,
        CopyState::SharedClean => 4,
        CopyState::SharedDirty => 5,
        CopyState::Recalling => 6,
        CopyState::Querying => 7,
        CopyState::Committing => 8,
    }
}

fn copy_state_from_code(code: u8) -> Option<CopyState> {
    Some(match code {
        0 => CopyState::Invalid,
        1 => CopyState::Valid,
        2 => CopyState::Reserved,
        3 => CopyState::Dirty,
        4 => CopyState::SharedClean,
        5 => CopyState::SharedDirty,
        6 => CopyState::Recalling,
        7 => CopyState::Querying,
        8 => CopyState::Committing,
        _ => return None,
    })
}

// ---------------------------------------------------------------- encode

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_payload(out: &mut Vec<u8>, p: &Payload) {
    out.extend_from_slice(&p.version.to_le_bytes());
    out.extend_from_slice(&p.writer.0.to_le_bytes());
    put_bytes(out, &p.data);
}

fn put_envelope(out: &mut Vec<u8>, env: &Envelope) {
    out.push(TAG_ENVELOPE);
    let m = &env.msg;
    out.push(m.kind.wire_code());
    out.extend_from_slice(&m.initiator.0.to_le_bytes());
    out.extend_from_slice(&m.sender.0.to_le_bytes());
    out.extend_from_slice(&m.object.0.to_le_bytes());
    out.push(m.queue.wire_code());
    out.push(m.payload.wire_code());
    out.extend_from_slice(&m.op.0.to_le_bytes());
    out.extend_from_slice(&m.epoch.to_le_bytes());
    out.extend_from_slice(&env.clock.to_le_bytes());
    let flags = u8::from(env.params.is_some()) | (u8::from(env.copy.is_some()) << 1);
    out.push(flags);
    if let Some(p) = &env.params {
        put_payload(out, p);
    }
    if let Some(c) = &env.copy {
        put_payload(out, c);
    }
}

fn encode_body(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello { version, node } => {
            out.push(TAG_HELLO);
            out.push(*version);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Frame::Envelope(env) => put_envelope(out, env),
        Frame::Op { op, object, data } => {
            out.push(TAG_OP);
            out.push(match op {
                OpKind::Read => 0,
                OpKind::Write => 1,
            });
            out.extend_from_slice(&object.0.to_le_bytes());
            match data {
                Some(d) => {
                    out.push(1);
                    put_bytes(out, d);
                }
                None => out.push(0),
            }
        }
        Frame::OpDone { result } => {
            out.push(TAG_OP_DONE);
            match result {
                Ok(v) => {
                    out.push(1);
                    put_bytes(out, v);
                }
                Err(e) => {
                    out.push(0);
                    put_bytes(out, e.as_bytes());
                }
            }
        }
        Frame::CostQuery => out.push(TAG_COST_QUERY),
        Frame::CostReport { cost, messages } => {
            out.push(TAG_COST_REPORT);
            out.extend_from_slice(&cost.to_le_bytes());
            out.extend_from_slice(&messages.to_le_bytes());
        }
        Frame::Shutdown => out.push(TAG_SHUTDOWN),
        Frame::Dump { objects } => {
            out.push(TAG_DUMP);
            out.extend_from_slice(&(objects.len() as u32).to_le_bytes());
            for (state, version, writer, data) in objects {
                out.push(copy_state_code(*state));
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&writer.to_le_bytes());
                put_bytes(out, data);
            }
        }
    }
}

/// Append a frame as `[u32 LE length][body]` to `out`, encoding the
/// body in place after a 4-byte length placeholder and backpatching the
/// prefix — one buffer, no intermediate body allocation. `out` is *not*
/// cleared: successive frames append, so a link can assemble its whole
/// outbound burst in one reusable buffer.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_body(frame, out);
    let body_len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Append an envelope frame to `out` (see [`encode_frame_into`] for the
/// placeholder/backpatch contract) — the hot path for socket sends.
pub fn encode_envelope_frame_into(env: &Envelope, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    put_envelope(out, env);
    let body_len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Encode a frame as `[u32 LE length][body]`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_frame_into(frame, &mut out);
    out
}

/// Encode an envelope frame without taking ownership of the envelope.
pub fn encode_envelope_frame(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + envelope_frame_len(env) as usize);
    encode_envelope_frame_into(env, &mut out);
    out
}

/// Encoded length (prefix included) of an envelope frame, computed
/// without encoding anything — the per-link byte meters charge from
/// this, so metering stays allocation-free.
pub fn envelope_frame_len(env: &Envelope) -> u64 {
    let mut len = 4 + ENVELOPE_FIXED_LEN;
    if let Some(p) = &env.params {
        len += PAYLOAD_FIXED_LEN + p.data.len() as u64;
    }
    if let Some(c) = &env.copy {
        len += PAYLOAD_FIXED_LEN + c.data.len() as u64;
    }
    len
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

// ---------------------------------------------------------------- decode

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.at + n > self.buf.len() {
            return Err(CodecError::Malformed(format!(
                "truncated frame: wanted {n} bytes at offset {}, body is {} bytes",
                self.at,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// `take` as a fixed-size array; the length mismatch arm is
    /// unreachable (`take` returned exactly `N` bytes) but mapped to a
    /// `CodecError` rather than a panic — decode never unwraps.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?
            .try_into()
            .map_err(|_| CodecError::Malformed(format!("internal: take({N}) length mismatch")))
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Malformed(format!(
                "payload length {len} exceeds the {MAX_FRAME_LEN}-byte frame cap"
            )));
        }
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    fn payload(&mut self) -> Result<Payload, CodecError> {
        let version = self.u64()?;
        let writer = NodeId(self.u16()?);
        let data = self.bytes()?;
        Ok(Payload {
            data,
            version,
            writer,
        })
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.at != self.buf.len() {
            return Err(CodecError::Malformed(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

fn bad_code(what: &str, code: u8) -> CodecError {
    CodecError::Malformed(format!("unknown {what} code {code}"))
}

/// Decode one envelope body (the bytes after its `TAG_ENVELOPE` tag).
fn get_envelope(c: &mut Cursor<'_>) -> Result<Envelope, CodecError> {
    let kc = c.u8()?;
    let kind = MsgKind::from_wire_code(kc).ok_or_else(|| bad_code("MsgKind", kc))?;
    let initiator = NodeId(c.u16()?);
    let sender = NodeId(c.u16()?);
    let object = ObjectId(c.u32()?);
    let qc = c.u8()?;
    let queue = QueueKind::from_wire_code(qc).ok_or_else(|| bad_code("QueueKind", qc))?;
    let pc = c.u8()?;
    let payload = PayloadKind::from_wire_code(pc).ok_or_else(|| bad_code("PayloadKind", pc))?;
    let op = OpTag(c.u64()?);
    let epoch = c.u64()?;
    let clock = c.u64()?;
    let flags = c.u8()?;
    if flags & !0b11 != 0 {
        return Err(CodecError::Malformed(format!(
            "unknown envelope flag bits {flags:#04x}"
        )));
    }
    let params = if flags & 1 != 0 {
        Some(c.payload()?)
    } else {
        None
    };
    let copy = if flags & 2 != 0 {
        Some(c.payload()?)
    } else {
        None
    };
    Ok(Envelope {
        msg: Msg {
            kind,
            initiator,
            sender,
            object,
            queue,
            payload,
            op,
            epoch,
        },
        params,
        copy,
        clock,
    })
}

/// Decode one frame body (the bytes after the length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, CodecError> {
    let mut c = Cursor { buf: body, at: 0 };
    let tag = c.u8()?;
    let frame = match tag {
        TAG_HELLO => Frame::Hello {
            version: c.u8()?,
            node: c.u16()?,
        },
        TAG_ENVELOPE => Frame::Envelope(get_envelope(&mut c)?),
        TAG_OP => {
            let op = match c.u8()? {
                0 => OpKind::Read,
                1 => OpKind::Write,
                other => return Err(bad_code("OpKind", other)),
            };
            let object = ObjectId(c.u32()?);
            let data = match c.u8()? {
                0 => None,
                1 => Some(c.bytes()?),
                other => return Err(bad_code("data-presence", other)),
            };
            Frame::Op { op, object, data }
        }
        TAG_OP_DONE => {
            let ok = c.u8()?;
            let bytes = c.bytes()?;
            let result = match ok {
                1 => Ok(bytes),
                0 => Err(String::from_utf8_lossy(&bytes).into_owned()),
                other => return Err(bad_code("result", other)),
            };
            Frame::OpDone { result }
        }
        TAG_COST_QUERY => Frame::CostQuery,
        TAG_COST_REPORT => Frame::CostReport {
            cost: c.u64()?,
            messages: c.u64()?,
        },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_DUMP => {
            let count = c.u32()? as usize;
            if count > MAX_FRAME_LEN / 11 {
                return Err(CodecError::Malformed(format!(
                    "dump object count {count} exceeds the frame cap"
                )));
            }
            let mut objects = Vec::with_capacity(count);
            for _ in 0..count {
                let sc = c.u8()?;
                let state = copy_state_from_code(sc).ok_or_else(|| bad_code("CopyState", sc))?;
                let version = c.u64()?;
                let writer = c.u16()?;
                let data = c.bytes()?;
                objects.push((state, version, writer, data));
            }
            Frame::Dump { objects }
        }
        other => return Err(bad_code("frame tag", other)),
    };
    c.done()?;
    Ok(frame)
}

/// Incremental frame assembler for nonblocking sockets.
///
/// A readiness-driven reader cannot use [`read_frame`] (a partial frame
/// would block the whole event loop), so it appends whatever bytes the
/// socket had via [`FrameBuf::extend`] and drains complete frames with
/// [`FrameBuf::next`] — any trailing partial frame stays buffered until
/// the next readable event. The length prefix is validated against
/// [`MAX_FRAME_LEN`] *before* the body arrives, so a hostile peer cannot
/// make the assembler buffer without bound.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the first undecoded byte in `buf`.
    at: usize,
}

impl FrameBuf {
    /// An empty assembler.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append bytes read off the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: decoded prefixes are dead weight and
        // letting them pile up would double the buffer's high-water mark.
        if self.at > 0 && (self.at >= self.buf.len() || self.at >= 64 * 1024) {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, or `None` if more bytes are
    /// needed. Malformed frames (oversized prefix, bad body) are
    /// permanent: the stream is unusable past them.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        let pending = &self.buf[self.at..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::Malformed(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_frame(&pending[4..4 + len])?;
        self.at += 4 + len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet decoded (a partial frame, or frames
    /// not yet pulled with [`FrameBuf::next`]).
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.at..]
    }
}

/// Read one frame from a stream. Returns [`CodecError::Eof`] on a clean
/// end-of-stream at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, CodecError> {
    let mut len_buf = [0u8; 4];
    // Distinguish a clean EOF (no bytes of the next frame yet) from a
    // truncated prefix.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(CodecError::Eof),
            Ok(0) => {
                return Err(CodecError::Malformed(format!(
                    "stream ended inside a {got}-byte length prefix"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::Malformed(format!("stream ended inside a {len}-byte frame body"))
        } else {
            CodecError::Io(e)
        }
    })?;
    decode_frame(&body)
}
