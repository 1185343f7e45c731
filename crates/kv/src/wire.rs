//! The KV request protocol: a tiny length-prefixed framing for external
//! load generators, following the `repmem-net` codec conventions
//! (`[u32 LE body length][tag byte][fields…]`, strict decoding: unknown
//! tags, truncated bodies, trailing bytes and oversized prefixes are
//! all rejected — a garbage peer can never panic the server).
//!
//! Connection lifecycle: the client sends `Hello` first and the server
//! echoes it (version check); then any number of `Get`/`Put`/`Scan`/
//! `Stats` requests, each answered by exactly one `Value`/`Done`/
//! `Values`/`StatsReport` — or `Error` if the cluster failed the
//! operation. `Shutdown` asks the server process to stop (answered
//! with `Done` before the socket closes).
//!
//! A frame is one write: [`write_kv_frame`] builds the length prefix
//! and the body in one buffer and hands it to the stream in a single
//! `write_all`. Both ends set `TCP_NODELAY`, so every `write` leaves as
//! its own segment; writing the prefix apart from the body would cost
//! each request and reply a second syscall and a second segment, and
//! wake the reader for four bytes. A frame over [`MAX_FRAME_LEN`] is
//! refused before any byte is written, so the stream stays in step.
//! The reader assumes nothing about segments: [`read_kv_frame`] decodes
//! a frame that arrives a byte at a time.

use bytes::Bytes;
use repmem_net::MAX_FRAME_LEN;
use std::io::{Read, Write};

/// KV request-protocol version carried by the hello handshake.
pub const KV_WIRE_VERSION: u8 = 1;

/// Framing / protocol failures on a KV connection.
#[derive(Debug)]
pub enum WireError {
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// Underlying stream failure (includes mid-frame EOF).
    Io(std::io::Error),
    /// Structurally invalid frame.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "end of stream"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed kv frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Everything that travels on a KV connection.
#[derive(Debug, Clone, PartialEq)]
pub enum KvFrame {
    /// Handshake: sent by the client, echoed by the server.
    Hello { version: u8 },
    /// Point lookup request.
    Get { key: String },
    /// Store request.
    Put { key: String, value: Bytes },
    /// Multi-get request.
    Scan { keys: Vec<String> },
    /// `Get` response.
    Value { value: Option<Bytes> },
    /// `Put` / `Shutdown` acknowledgement.
    Done,
    /// `Scan` response, one slot per requested key, in request order.
    Values { values: Vec<Option<Bytes>> },
    /// The server could not complete the request (e.g. the record's
    /// shard is down); the connection stays usable.
    Error { reason: String },
    /// Ask for the server's operation and cost counters.
    Stats,
    /// `Stats` response: operations served, paper cost units, messages.
    StatsReport { ops: u64, cost: u64, messages: u64 },
    /// Stop the server process.
    Shutdown,
}

const TAG_HELLO: u8 = 0;
const TAG_GET: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_SCAN: u8 = 3;
const TAG_VALUE: u8 = 4;
const TAG_DONE: u8 = 5;
const TAG_VALUES: u8 = 6;
const TAG_ERROR: u8 = 7;
const TAG_STATS: u8 = 8;
const TAG_STATS_REPORT: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_bytes(buf: &mut Vec<u8>, v: &Option<Bytes>) {
    match v {
        None => buf.push(0),
        Some(b) => {
            buf.push(1);
            buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
            buf.extend_from_slice(b);
        }
    }
}

/// Append `frame`'s body (no length prefix) to `buf`. A field longer
/// than `u32::MAX` would wrap its length, but such a body is far over
/// [`MAX_FRAME_LEN`] and [`write_kv_frame`] never sends it.
fn encode_into(frame: &KvFrame, buf: &mut Vec<u8>) {
    match frame {
        KvFrame::Hello { version } => {
            buf.push(TAG_HELLO);
            buf.push(*version);
        }
        KvFrame::Get { key } => {
            buf.push(TAG_GET);
            put_str(buf, key);
        }
        KvFrame::Put { key, value } => {
            buf.push(TAG_PUT);
            put_str(buf, key);
            buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
            buf.extend_from_slice(value);
        }
        KvFrame::Scan { keys } => {
            buf.push(TAG_SCAN);
            buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for k in keys {
                put_str(buf, k);
            }
        }
        KvFrame::Value { value } => {
            buf.push(TAG_VALUE);
            put_opt_bytes(buf, value);
        }
        KvFrame::Done => buf.push(TAG_DONE),
        KvFrame::Values { values } => {
            buf.push(TAG_VALUES);
            buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                put_opt_bytes(buf, v);
            }
        }
        KvFrame::Error { reason } => {
            buf.push(TAG_ERROR);
            put_str(buf, reason);
        }
        KvFrame::Stats => buf.push(TAG_STATS),
        KvFrame::StatsReport {
            ops,
            cost,
            messages,
        } => {
            buf.push(TAG_STATS_REPORT);
            buf.extend_from_slice(&ops.to_le_bytes());
            buf.extend_from_slice(&cost.to_le_bytes());
            buf.extend_from_slice(&messages.to_le_bytes());
        }
        KvFrame::Shutdown => buf.push(TAG_SHUTDOWN),
    }
}

/// Encode `frame` into a body (no length prefix).
pub fn encode_kv_frame(frame: &KvFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    encode_into(frame, &mut buf);
    buf
}

/// Strict little cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed(format!("truncated: wanted {n} more bytes")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    fn opt_bytes(&mut self) -> Result<Option<Bytes>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let len = self.u32()? as usize;
                Ok(Some(Bytes::copy_from_slice(self.take(len)?)))
            }
            c => Err(WireError::Malformed(format!("bad option code {c}"))),
        }
    }

    fn done(self, what: &str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Decode one frame body (no length prefix).
pub fn decode_kv_frame(body: &[u8]) -> Result<KvFrame, WireError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let tag = c.u8()?;
    let frame = match tag {
        TAG_HELLO => KvFrame::Hello { version: c.u8()? },
        TAG_GET => KvFrame::Get { key: c.str()? },
        TAG_PUT => {
            let key = c.str()?;
            let len = c.u32()? as usize;
            let value = Bytes::copy_from_slice(c.take(len)?);
            KvFrame::Put { key, value }
        }
        TAG_SCAN => {
            let n = c.u32()? as usize;
            if n > body.len() {
                return Err(WireError::Malformed(format!("scan claims {n} keys")));
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(c.str()?);
            }
            KvFrame::Scan { keys }
        }
        TAG_VALUE => KvFrame::Value {
            value: c.opt_bytes()?,
        },
        TAG_DONE => KvFrame::Done,
        TAG_VALUES => {
            let n = c.u32()? as usize;
            if n > body.len() {
                return Err(WireError::Malformed(format!("values claims {n} slots")));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.opt_bytes()?);
            }
            KvFrame::Values { values }
        }
        TAG_ERROR => KvFrame::Error { reason: c.str()? },
        TAG_STATS => KvFrame::Stats,
        TAG_STATS_REPORT => KvFrame::StatsReport {
            ops: c.u64()?,
            cost: c.u64()?,
            messages: c.u64()?,
        },
        TAG_SHUTDOWN => KvFrame::Shutdown,
        t => return Err(WireError::Malformed(format!("unknown kv tag {t}"))),
    };
    c.done("kv frame")?;
    Ok(frame)
}

/// Write one length-prefixed frame with a single `write_all`. A body
/// over [`MAX_FRAME_LEN`], which every reader would reject, is
/// [`WireError::Malformed`] and nothing is written.
pub fn write_kv_frame(w: &mut impl Write, frame: &KvFrame) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(128);
    buf.extend_from_slice(&[0u8; 4]);
    encode_into(frame, &mut buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Malformed(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame. [`WireError::Eof`] on a clean
/// end-of-stream between frames.
pub fn read_kv_frame(r: &mut impl Read) -> Result<KvFrame, WireError> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Err(WireError::Eof),
            0 => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside length prefix",
                )))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Malformed(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    decode_kv_frame(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: KvFrame) {
        let body = encode_kv_frame(&f);
        assert_eq!(decode_kv_frame(&body).unwrap(), f, "{f:?}");
        // And through a stream.
        let mut wire = Vec::new();
        write_kv_frame(&mut wire, &f).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_kv_frame(&mut r).unwrap(), f);
        assert!(matches!(read_kv_frame(&mut r), Err(WireError::Eof)));
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(KvFrame::Hello {
            version: KV_WIRE_VERSION,
        });
        roundtrip(KvFrame::Get { key: "k".into() });
        roundtrip(KvFrame::Put {
            key: "user000000000001".into(),
            value: Bytes::from_static(b"v1"),
        });
        roundtrip(KvFrame::Scan {
            keys: vec!["a".into(), "b".into(), "c".into()],
        });
        roundtrip(KvFrame::Value { value: None });
        roundtrip(KvFrame::Value {
            value: Some(Bytes::from_static(b"hit")),
        });
        roundtrip(KvFrame::Done);
        roundtrip(KvFrame::Values {
            values: vec![Some(Bytes::from_static(b"x")), None],
        });
        roundtrip(KvFrame::Error {
            reason: "node 4 is not running".into(),
        });
        roundtrip(KvFrame::Stats);
        roundtrip(KvFrame::StatsReport {
            ops: 12,
            cost: 345,
            messages: 67,
        });
        roundtrip(KvFrame::Shutdown);
    }

    #[test]
    fn strict_decoding_rejects_garbage() {
        // Unknown tag.
        assert!(matches!(
            decode_kv_frame(&[99]),
            Err(WireError::Malformed(_))
        ));
        // Truncated string.
        let mut body = vec![TAG_GET];
        body.extend_from_slice(&10u32.to_le_bytes());
        body.extend_from_slice(b"shrt");
        assert!(matches!(
            decode_kv_frame(&body),
            Err(WireError::Malformed(_))
        ));
        // Trailing bytes.
        let mut body = encode_kv_frame(&KvFrame::Done);
        body.push(0);
        assert!(matches!(
            decode_kv_frame(&body),
            Err(WireError::Malformed(_))
        ));
        // Bad option code.
        assert!(matches!(
            decode_kv_frame(&[TAG_VALUE, 2]),
            Err(WireError::Malformed(_))
        ));
        // Oversized length prefix is rejected before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_kv_frame(&mut &wire[..]),
            Err(WireError::Malformed(_))
        ));
        // Empty body.
        assert!(matches!(decode_kv_frame(&[]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn a_frame_over_the_cap_is_refused_before_any_byte_is_written() {
        // A `Value` body is tag + option code + u32 length + the bytes.
        let value = |body_len: usize| KvFrame::Value {
            value: Some(Bytes::from(vec![0u8; body_len - 6])),
        };
        let mut wire = Vec::new();
        assert!(matches!(
            write_kv_frame(&mut wire, &value(MAX_FRAME_LEN + 1)),
            Err(WireError::Malformed(_))
        ));
        assert!(wire.is_empty(), "{} bytes written", wire.len());
        // Exactly at the cap is a frame every reader accepts.
        write_kv_frame(&mut wire, &value(MAX_FRAME_LEN)).unwrap();
        assert_eq!(wire[..4], (MAX_FRAME_LEN as u32).to_le_bytes());
        assert_eq!(wire.len(), 4 + MAX_FRAME_LEN);
    }
}
