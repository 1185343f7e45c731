//! The `repmem-kv` TCP server: an in-process DSM cluster fronted by the
//! KV request protocol.
//!
//! The server hosts the full `N + K` node cluster and one [`KvStore`]
//! per client node; external connections are assigned to client nodes
//! round-robin, so concurrent load generators spread over the cluster's
//! client side exactly like the paper's application processes. Each
//! connection is served by one thread (request/response, in order);
//! coherence-level concurrency comes from multiple connections landing
//! on different client nodes.

use crate::keyspace::KeySpace;
use crate::store::KvStore;
use crate::wire::{read_kv_frame, write_kv_frame, KvFrame, WireError, KV_WIRE_VERSION};
use repmem_core::{NodeId, ProtocolKind, SystemParams};
use repmem_runtime::{Cluster, ClusterDump, ClusterError, ShardConfig};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Everything needed to spin up a KV server.
#[derive(Debug, Clone, Copy)]
pub struct KvServerConfig {
    /// DSM system parameters; `m_objects` is the KV slot count.
    pub sys: SystemParams,
    /// Coherence protocol (any of the nine, including Quorum).
    pub kind: ProtocolKind,
    /// Sequencer sharding and pipelining.
    pub cfg: ShardConfig,
    /// Key-hash seed; clients of one deployment must agree on it.
    pub key_seed: u64,
}

/// A running KV service: cluster + accept loop.
pub struct KvServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    /// The cluster lives behind a mutex so connection threads can read
    /// its cost counters for `Stats`; `shutdown` takes it out.
    cluster: Arc<Mutex<Option<Cluster>>>,
    ops: Arc<AtomicU64>,
}

struct ConnCtx {
    store: KvStore,
    cluster: Arc<Mutex<Option<Cluster>>>,
    ops: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl KvServer {
    /// Build the cluster and start accepting on `listen` (use port 0
    /// for an ephemeral port; the bound address is [`KvServer::addr`]).
    pub fn start(config: KvServerConfig, listen: &str) -> Result<KvServer, ClusterError> {
        let cluster = Cluster::with_config(config.sys, config.kind, config.cfg);
        let space = KeySpace::new(config.sys.m_objects, config.key_seed);
        let stores: Vec<KvStore> = (0..config.sys.n_clients)
            .map(|i| KvStore::new(cluster.handle(NodeId(i as u16)), space))
            .collect();
        let listener = TcpListener::bind(listen)
            .map_err(|e| ClusterError::Transport(format!("bind {listen}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Transport(format!("local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let cluster = Arc::new(Mutex::new(Some(cluster)));
        let accept = {
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Request/response traffic: with Nagle on, a reply
                    // written behind an unacknowledged segment waits out
                    // the client's delayed ACK. With NODELAY every
                    // `write` leaves as its own segment, which is why
                    // `write_kv_frame` writes a frame in one call.
                    let _ = stream.set_nodelay(true);
                    let ctx = ConnCtx {
                        store: stores[next % stores.len()].clone(),
                        cluster: Arc::clone(&cluster),
                        ops: Arc::clone(&ops),
                        stop: Arc::clone(&stop),
                        addr,
                    };
                    next += 1;
                    // Connection threads are not joined: they exit when
                    // their peer disconnects (or the process ends), and
                    // every cluster interaction they can still make
                    // after shutdown fails cleanly with `NodeDown`.
                    std::thread::spawn(move || serve_conn(stream, ctx));
                }
            })
        };
        Ok(KvServer {
            addr,
            stop,
            accept: Some(accept),
            cluster,
            ops,
        })
    }

    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Operations served so far (across all connections).
    pub fn ops_served(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Block until a client's `Shutdown` request stops the accept loop.
    pub fn wait_for_shutdown(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting and shut the cluster down, returning the final
    /// replica dump.
    pub fn shutdown(mut self) -> Result<ClusterDump, ClusterError> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let cluster = self
            .cluster
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match cluster {
            Some(c) => c.shutdown(),
            None => Err(ClusterError::Transport("cluster already taken".into())),
        }
    }
}

/// Serve one connection until EOF, a wire error, or `Shutdown`.
fn serve_conn(stream: TcpStream, ctx: ConnCtx) {
    // One socket for both directions: replies go out through the
    // buffered reader's stream (`&TcpStream: Write`).
    let mut reader = BufReader::new(stream);
    // Handshake first: anything else is a protocol violation.
    match read_kv_frame(&mut reader) {
        Ok(KvFrame::Hello { version }) if version == KV_WIRE_VERSION => {
            if write_kv_frame(
                &mut reader.get_ref(),
                &KvFrame::Hello {
                    version: KV_WIRE_VERSION,
                },
            )
            .is_err()
            {
                return;
            }
        }
        Ok(KvFrame::Hello { version }) => {
            let _ = write_kv_frame(
                &mut reader.get_ref(),
                &KvFrame::Error {
                    reason: format!("kv wire version {version} != {KV_WIRE_VERSION}"),
                },
            );
            return;
        }
        _ => return,
    }
    loop {
        let req = match read_kv_frame(&mut reader) {
            Ok(f) => f,
            Err(WireError::Eof) => return,
            Err(WireError::Malformed(m)) => {
                let _ = write_kv_frame(&mut reader.get_ref(), &KvFrame::Error { reason: m });
                return;
            }
            Err(WireError::Io(_)) => return,
        };
        let reply = match req {
            KvFrame::Get { key } => match ctx.store.get(&key) {
                Ok(value) => {
                    ctx.ops.fetch_add(1, Ordering::Relaxed);
                    KvFrame::Value { value }
                }
                Err(e) => KvFrame::Error {
                    reason: e.to_string(),
                },
            },
            KvFrame::Put { key, value } => match ctx.store.put(&key, &value) {
                Ok(()) => {
                    ctx.ops.fetch_add(1, Ordering::Relaxed);
                    KvFrame::Done
                }
                Err(e) => KvFrame::Error {
                    reason: e.to_string(),
                },
            },
            KvFrame::Scan { keys } => match ctx.store.scan(keys.iter().map(String::as_str)) {
                Ok(values) => {
                    ctx.ops.fetch_add(keys.len() as u64, Ordering::Relaxed);
                    KvFrame::Values { values }
                }
                Err(e) => KvFrame::Error {
                    reason: e.to_string(),
                },
            },
            KvFrame::Stats => {
                let guard = ctx.cluster.lock().unwrap_or_else(|e| e.into_inner());
                let (cost, messages) = guard
                    .as_ref()
                    .map(|c| (c.total_cost(), c.total_messages()))
                    .unwrap_or((0, 0));
                KvFrame::StatsReport {
                    ops: ctx.ops.load(Ordering::Relaxed),
                    cost,
                    messages,
                }
            }
            KvFrame::Shutdown => {
                let _ = write_kv_frame(&mut reader.get_ref(), &KvFrame::Done);
                ctx.stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so the main thread can join it.
                let _ = TcpStream::connect(ctx.addr);
                return;
            }
            other => KvFrame::Error {
                reason: format!("unexpected request {other:?}"),
            },
        };
        let sent = match write_kv_frame(&mut reader.get_ref(), &reply) {
            // The reply is over the frame cap (a big `Scan`) and nothing
            // was written: say so and keep the connection.
            Err(WireError::Malformed(reason)) => {
                write_kv_frame(&mut reader.get_ref(), &KvFrame::Error { reason })
            }
            sent => sent,
        };
        if sent.is_err() {
            return;
        }
    }
}
