//! [`KvStore`]: get/put/scan over one node's DSM [`Handle`].
//!
//! Records are stored in the object payload as
//! `[u16 LE key length][key bytes][value bytes]`; an empty payload is
//! an absent record. Storing the full key realizes the collision
//! policy documented in [`crate::keyspace`]: `put` overwrites whatever
//! record occupies the slot (last writer wins, across keys), and `get`
//! verifies the stored key so a colliding slot reads as a miss rather
//! than returning another key's value.
//!
//! `scan` is a multi-get: every key's read is issued through the
//! pipelined async API up front ([`Handle::read_async`]), then the
//! tickets are drained in issue order — on a cluster with `W > 1` the
//! reads overlap across shards, and per-object program order still
//! holds because the node loop serializes operations per object. A
//! scan touching a dead shard fails with [`ClusterError::NodeDown`] on
//! its first affected key: a send to a dead node fails at once.

use crate::keyspace::KeySpace;
use bytes::Bytes;
use repmem_runtime::{ClusterError, Handle};

/// Maximum key length the record encoding can carry.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// A key-value view over one node's replica set.
#[derive(Clone)]
pub struct KvStore {
    handle: Handle,
    space: KeySpace,
}

/// Encode a record payload: `[u16 LE klen][key][value]`.
pub(crate) fn encode_record(key: &str, value: &[u8]) -> Bytes {
    assert!(key.len() <= MAX_KEY_LEN, "key longer than {MAX_KEY_LEN}");
    let mut buf = Vec::with_capacity(2 + key.len() + value.len());
    buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(value);
    Bytes::from(buf)
}

/// Decode a record payload into `(key bytes, value bytes)`. `None` for
/// the empty (absent) payload or a malformed record.
pub(crate) fn decode_record(raw: &[u8]) -> Option<(&[u8], &[u8])> {
    if raw.is_empty() {
        return None;
    }
    let klen = u16::from_le_bytes([*raw.first()?, *raw.get(1)?]) as usize;
    let rest = raw.get(2..)?;
    if rest.len() < klen {
        return None;
    }
    Some((&rest[..klen], &rest[klen..]))
}

impl KvStore {
    /// A store issuing through `handle` and routing keys via `space`.
    pub fn new(handle: Handle, space: KeySpace) -> KvStore {
        KvStore { handle, space }
    }

    /// The key→object mapping this store routes with.
    pub fn keyspace(&self) -> &KeySpace {
        &self.space
    }

    /// Extract `key`'s value from a raw slot payload (collision-aware).
    fn extract(key: &str, raw: &Bytes) -> Option<Bytes> {
        match decode_record(raw) {
            Some((k, v)) if k == key.as_bytes() => Some(Bytes::copy_from_slice(v)),
            _ => None,
        }
    }

    /// Point lookup; `Ok(None)` for an absent key (or one evicted by a
    /// slot collision).
    pub fn get(&self, key: &str) -> Result<Option<Bytes>, ClusterError> {
        let raw = self.handle.read(self.space.object_of(key))?;
        Ok(Self::extract(key, &raw))
    }

    /// Store `value` under `key` (blocking until the coherence protocol
    /// considers the write issued).
    pub fn put(&self, key: &str, value: &[u8]) -> Result<(), ClusterError> {
        self.handle
            .write(self.space.object_of(key), encode_record(key, value))
    }

    /// Multi-get: fetch every key, pipelined through the node's async
    /// window. Results are in input order; the first failing key aborts
    /// the scan with its error.
    pub fn scan<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k str>,
    ) -> Result<Vec<Option<Bytes>>, ClusterError> {
        let keys: Vec<&str> = keys.into_iter().collect();
        let tickets: Vec<_> = keys
            .iter()
            .map(|k| self.handle.read_async(self.space.object_of(k)))
            .collect();
        keys.iter()
            .zip(tickets)
            .map(|(k, t)| t.wait().map(|raw| Self::extract(k, &raw)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let rec = encode_record("user000000000007", b"payload");
        let (k, v) = decode_record(&rec).unwrap();
        assert_eq!(k, b"user000000000007");
        assert_eq!(v, b"payload");
        assert_eq!(decode_record(b""), None);
    }

    #[test]
    fn truncated_records_read_as_absent() {
        assert_eq!(decode_record(&[5]), None);
        assert_eq!(decode_record(&[5, 0, b'a', b'b']), None);
        // Zero-length key with empty value is structurally valid.
        assert_eq!(decode_record(&[0, 0]), Some((&b""[..], &b""[..])));
    }
}
