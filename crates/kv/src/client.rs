//! TCP client for the KV request protocol, plus the [`KvBackend`]
//! abstraction that lets the YCSB driver run against either an
//! in-process [`KvStore`] or a remote server through one interface.

use crate::store::KvStore;
use crate::wire::{read_kv_frame, write_kv_frame, KvFrame, WireError, KV_WIRE_VERSION};
use bytes::Bytes;
use repmem_runtime::ClusterError;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

/// A KV operation failure, from either side of the wire.
#[derive(Debug)]
pub enum KvError {
    /// The local cluster failed the operation.
    Cluster(ClusterError),
    /// The server failed the operation and relayed the reason.
    Remote(String),
    /// Framing or transport failure on the connection.
    Wire(WireError),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Cluster(e) => write!(f, "cluster error: {e}"),
            KvError::Remote(m) => write!(f, "server error: {m}"),
            KvError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<ClusterError> for KvError {
    fn from(e: ClusterError) -> Self {
        KvError::Cluster(e)
    }
}

impl From<WireError> for KvError {
    fn from(e: WireError) -> Self {
        KvError::Wire(e)
    }
}

/// One request/response KV connection.
pub struct KvClient {
    /// Also the write side: requests go out through `get_ref()`
    /// (`&TcpStream: Write`), one socket for both directions.
    reader: BufReader<TcpStream>,
}

impl KvClient {
    /// Connect and run the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<KvClient, KvError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        // Request/response pattern: without NODELAY every op eats a
        // Nagle + delayed-ACK round (~40 ms) on loopback.
        stream.set_nodelay(true).map_err(WireError::Io)?;
        let mut client = KvClient {
            reader: BufReader::new(stream),
        };
        match client.request(&KvFrame::Hello {
            version: KV_WIRE_VERSION,
        })? {
            KvFrame::Hello { .. } => Ok(client),
            other => Err(KvError::Remote(format!("bad handshake reply {other:?}"))),
        }
    }

    /// One request, one reply; server-side `Error` frames become
    /// [`KvError::Remote`].
    fn request(&mut self, req: &KvFrame) -> Result<KvFrame, KvError> {
        write_kv_frame(&mut self.reader.get_ref(), req)?;
        match read_kv_frame(&mut self.reader)? {
            KvFrame::Error { reason } => Err(KvError::Remote(reason)),
            reply => Ok(reply),
        }
    }

    /// Point lookup over the wire.
    pub fn get(&mut self, key: &str) -> Result<Option<Bytes>, KvError> {
        match self.request(&KvFrame::Get { key: key.into() })? {
            KvFrame::Value { value } => Ok(value),
            other => Err(KvError::Remote(format!("bad get reply {other:?}"))),
        }
    }

    /// Store over the wire.
    pub fn put(&mut self, key: &str, value: &[u8]) -> Result<(), KvError> {
        let req = KvFrame::Put {
            key: key.into(),
            value: Bytes::copy_from_slice(value),
        };
        match self.request(&req)? {
            KvFrame::Done => Ok(()),
            other => Err(KvError::Remote(format!("bad put reply {other:?}"))),
        }
    }

    /// Multi-get over the wire; results in request order.
    pub fn scan(&mut self, keys: &[String]) -> Result<Vec<Option<Bytes>>, KvError> {
        let req = KvFrame::Scan {
            keys: keys.to_vec(),
        };
        match self.request(&req)? {
            KvFrame::Values { values } => Ok(values),
            other => Err(KvError::Remote(format!("bad scan reply {other:?}"))),
        }
    }

    /// Fetch the server's `(ops, cost, messages)` counters.
    pub fn stats(&mut self) -> Result<(u64, u64, u64), KvError> {
        match self.request(&KvFrame::Stats)? {
            KvFrame::StatsReport {
                ops,
                cost,
                messages,
            } => Ok((ops, cost, messages)),
            other => Err(KvError::Remote(format!("bad stats reply {other:?}"))),
        }
    }

    /// Ask the server process to stop (acknowledged before the socket
    /// closes).
    pub fn shutdown_server(&mut self) -> Result<(), KvError> {
        match self.request(&KvFrame::Shutdown)? {
            KvFrame::Done => Ok(()),
            other => Err(KvError::Remote(format!("bad shutdown reply {other:?}"))),
        }
    }
}

/// The operations the YCSB driver needs, implemented by both the
/// in-process store and the TCP client — the acceptance check that
/// in-proc and TCP runs are op-identical drives both through this.
pub trait KvBackend {
    /// Point lookup.
    fn get(&mut self, key: &str) -> Result<Option<Bytes>, KvError>;
    /// Store.
    fn put(&mut self, key: &str, value: &[u8]) -> Result<(), KvError>;
}

impl KvBackend for KvStore {
    fn get(&mut self, key: &str) -> Result<Option<Bytes>, KvError> {
        Ok(KvStore::get(self, key)?)
    }
    fn put(&mut self, key: &str, value: &[u8]) -> Result<(), KvError> {
        Ok(KvStore::put(self, key, value)?)
    }
}

impl KvBackend for KvClient {
    fn get(&mut self, key: &str) -> Result<Option<Bytes>, KvError> {
        KvClient::get(self, key)
    }
    fn put(&mut self, key: &str, value: &[u8]) -> Result<(), KvError> {
        KvClient::put(self, key, value)
    }
}
