//! The system under test, built fresh for every rep through the public
//! constructors of `repmem-kv`, `repmem-runtime` and `repmem-net`.

use crate::inputs::{keyspace, Surface, Workload};
use crate::trace::{TraceTransport, Tracer};
use bytes::Bytes;
use repmem_core::NodeId;
use repmem_kv::{KeySpace, KvBackend, KvClient, KvError, KvServer, KvServerConfig, KvStore};
use repmem_net::{EpollTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterDump, Handle};
use std::sync::Arc;
use std::time::Instant;

/// Get/put straight on a [`Handle`]: the YCSB key stream mapped through
/// [`KeySpace::object_of`] with bare values as payloads — the set-up
/// and checking path of the raw-handle workload, whose timed loop uses
/// the async API directly.
struct RawStore {
    handle: Handle,
    space: KeySpace,
}

impl KvBackend for RawStore {
    fn get(&mut self, key: &str) -> Result<Option<Bytes>, KvError> {
        let raw = self.handle.read(self.space.object_of(key))?;
        Ok((!raw.is_empty()).then_some(raw))
    }

    fn put(&mut self, key: &str, value: &[u8]) -> Result<(), KvError> {
        Ok(self
            .handle
            .write(self.space.object_of(key), Bytes::copy_from_slice(value))?)
    }
}

enum Inner {
    Server {
        server: KvServer,
        /// Control connection for `Stats`; opened after the callers'
        /// connections so it does not shift their node assignment.
        control: Option<KvClient>,
    },
    Cluster(Cluster),
}

/// A running system plus how long its construction took.
pub struct Sut {
    inner: Inner,
    surface: Surface,
    /// `KvServer::start` / `Cluster::with_*` wall time.
    pub build_ms: f64,
    /// `EpollTransport::loopback` plus the binds inside
    /// `Cluster::with_transport`; zero off the mesh.
    pub mesh_setup_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Sut {
    /// Build the system `w` runs against. With a tracer, the cluster's
    /// transport is wrapped in a [`TraceTransport`] — except behind
    /// `KvServer`, which builds its transport internally.
    pub fn build(w: &Workload, tracer: Option<&Arc<Tracer>>) -> Result<Sut, String> {
        let (sys, kind, cfg) = (w.sys(), w.protocol, w.shard_config());
        let n = cfg.total_nodes(&sys);
        let start = Instant::now();
        let mut mesh_setup_ms = 0.0;
        let inner = match (w.surface, tracer) {
            (Surface::Svc, _) => Inner::Server {
                server: KvServer::start(
                    KvServerConfig {
                        sys,
                        kind,
                        cfg,
                        key_seed: keyspace().seed(),
                    },
                    "127.0.0.1:0",
                )
                .map_err(|e| format!("KvServer::start: {e}"))?,
                control: None,
            },
            (Surface::Embed | Surface::Pipe, None) => {
                Inner::Cluster(Cluster::with_config(sys, kind, cfg))
            }
            (Surface::Embed | Surface::Pipe, Some(tracer)) => {
                let transport = TraceTransport::new(InProcTransport::new(n), Arc::clone(tracer));
                Inner::Cluster(
                    Cluster::with_transport(sys, kind, cfg, transport)
                        .map_err(|e| format!("Cluster::with_transport: {e}"))?,
                )
            }
            (Surface::Mesh, tracer) => {
                let mesh =
                    EpollTransport::loopback(n).map_err(|e| format!("EpollTransport: {e}"))?;
                let cluster = match tracer {
                    None => Cluster::with_transport(sys, kind, cfg, mesh),
                    Some(tracer) => Cluster::with_transport(
                        sys,
                        kind,
                        cfg,
                        TraceTransport::new(mesh, Arc::clone(tracer)),
                    ),
                };
                mesh_setup_ms = ms_since(start);
                Inner::Cluster(cluster.map_err(|e| format!("Cluster::with_transport: {e}"))?)
            }
        };
        Ok(Sut {
            inner,
            surface: w.surface,
            build_ms: ms_since(start),
            mesh_setup_ms,
        })
    }

    /// The backend issuer `t` drives client node `t` through. For the
    /// server, call in issuer order: it assigns connections to client
    /// nodes round-robin in accept order.
    pub fn backend(&self, t: usize) -> Result<Box<dyn KvBackend + Send>, String> {
        Ok(match &self.inner {
            Inner::Server { server, .. } => Box::new(
                KvClient::connect(server.addr()).map_err(|e| format!("KvClient::connect: {e}"))?,
            ),
            Inner::Cluster(cluster) if self.surface == Surface::Pipe => Box::new(RawStore {
                handle: cluster.handle(NodeId(t as u16)),
                space: keyspace(),
            }),
            Inner::Cluster(cluster) => {
                Box::new(KvStore::new(cluster.handle(NodeId(t as u16)), keyspace()))
            }
        })
    }

    /// Client node `t`'s handle (raw-handle workload).
    pub fn handle(&self, t: usize) -> Handle {
        match &self.inner {
            Inner::Cluster(cluster) => cluster.handle(NodeId(t as u16)),
            Inner::Server { .. } => unreachable!("the server hides its cluster"),
        }
    }

    /// `(total_cost, total_messages)` so far, in the paper's units.
    pub fn counters(&mut self) -> Result<(u64, u64), String> {
        match &mut self.inner {
            Inner::Cluster(cluster) => Ok((cluster.total_cost(), cluster.total_messages())),
            Inner::Server { server, control } => {
                if control.is_none() {
                    *control = Some(
                        KvClient::connect(server.addr())
                            .map_err(|e| format!("control connection: {e}"))?,
                    );
                }
                let (_, cost, messages) = control
                    .as_mut()
                    .expect("just connected")
                    .stats()
                    .map_err(|e| format!("KvClient::stats: {e}"))?;
                Ok((cost, messages))
            }
        }
    }

    /// The error that poisoned the cluster, if one did. The server does
    /// not expose its cluster; there a poisoned cluster shows as failed
    /// operations and a failed shutdown.
    pub fn poisoned(&self) -> Option<String> {
        match &self.inner {
            Inner::Cluster(cluster) => cluster.poisoned().map(|e| e.to_string()),
            Inner::Server { .. } => None,
        }
    }

    /// Stop the system and return its final replica dump. Every backend
    /// must be dropped first: the server's connection threads exit when
    /// their peer disconnects.
    pub fn shutdown(self) -> Result<ClusterDump, String> {
        match self.inner {
            Inner::Cluster(cluster) => cluster.shutdown(),
            Inner::Server { server, control } => {
                drop(control);
                server.shutdown()
            }
        }
        .map_err(|e| format!("shutdown: {e}"))
    }
}
