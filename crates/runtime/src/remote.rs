//! Multi-process clusters: one node per OS process over TCP.
//!
//! Two halves share the wire control plane defined in
//! `repmem_net::codec`:
//!
//! * [`serve`] — runs *one* node of the cluster in the current process:
//!   the same node loop as [`crate::Cluster`], attached to an
//!   [`EpollEndpoint`] on the TCP mesh, with operations injected over
//!   control connections instead of in-process handles. The
//!   `repmem-node` binary is a thin argument parser around this function.
//! * [`RemoteCluster`] — the driver: launches `N+1` `repmem-node`
//!   processes on localhost, exchanges listen addresses over their
//!   stdio (`LISTEN` / `PEERS` lines), and then speaks the framed
//!   control protocol (`Op`/`OpDone`, `CostQuery`/`CostReport`,
//!   `Shutdown`/`Dump`) over one TCP control connection per node.
//!
//! Version stamps in this mode come from a per-process Lamport clock
//! pushed forward by the `clock` field piggybacked on every envelope,
//! so the merged outcome is deterministic without any shared counter
//! (see the node module docs).

use crate::cluster::{ClusterDump, Handle};
use crate::node::{
    node_loop, ClusterError, NodeCtx, Poison, RecoveryPolicy, ReplicaSnap, VersionClock, Wire,
};
use crate::shard::ShardConfig;
use crate::table::ReplicaTable;
use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, OpKind, ProtocolKind, SystemParams};
use repmem_net::codec::{read_frame, write_frame, Frame};
use repmem_net::mesh::dial_with_retry;
use repmem_net::{
    CtrlConn, CtrlHandler, Endpoint, EpollEndpoint, MeshConfig, ReconnectPolicy, CTRL_NODE,
    WIRE_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything one `repmem-node` process needs to join a cluster.
pub struct ServeConfig {
    /// System parameters (identical at every node).
    pub sys: SystemParams,
    /// Coherence protocol (identical at every node).
    pub kind: ProtocolKind,
    /// This process's node id.
    pub me: NodeId,
    /// This process's bound listener.
    pub listener: TcpListener,
    /// Listen address of every node, indexed by node id.
    pub peers: Vec<SocketAddr>,
    /// Budget for dialing peers / waiting on inbound links.
    pub link_timeout: Duration,
    /// Redial dead mesh links with this policy (`None`: a dead link
    /// stays dead, the historical behaviour).
    pub reconnect: Option<ReconnectPolicy>,
    /// Node-loop reaction to transient send failures (default: none —
    /// the paper's fault-free assumption).
    pub recovery: RecoveryPolicy,
    /// Sequencer sharding / pipelining (identical at every node; the
    /// default is the paper's exact topology: one sequencer, blocking
    /// operations). `peers` must cover `shard.total_nodes(&sys)` nodes.
    pub shard: ShardConfig,
}

/// Run one node of a multi-process cluster until a control connection
/// sends `Shutdown` (or the node poisons itself). Blocks the calling
/// thread for the lifetime of the node.
pub fn serve(cfg: ServeConfig) -> Result<(), ClusterError> {
    let (tx, rx) = channel::<Wire>();
    let cost = Arc::new(AtomicU64::new(0));
    let messages = Arc::new(AtomicU64::new(0));
    let poison = Arc::new(Poison::default());
    let (snap_tx, snap_rx) = channel::<Vec<ReplicaSnap>>();
    // Only one control connection gets to collect the final snapshot.
    let snap_slot = Arc::new(Mutex::new(Some(snap_rx)));
    let table = Arc::new(ReplicaTable::new(cfg.me, cfg.sys, cfg.kind, cfg.shard));
    // Control connections issue operations exactly as in-process
    // callers do: through a handle on this node.
    let handle = Handle {
        node: cfg.me,
        tx: tx.clone(),
        // High bits carry the node id so tags stay unique across
        // processes without coordination.
        next_tag: Arc::new(AtomicU64::new((u64::from(cfg.me.0) << 48) | 1)),
        poison: Arc::clone(&poison),
        table: Arc::clone(&table),
    };

    let deliver = {
        let tx = tx.clone();
        Box::new(move |env| {
            let _ = tx.send(Wire::Net(env));
        })
    };
    let ctrl: CtrlHandler = {
        let cost = Arc::clone(&cost);
        let messages = Arc::clone(&messages);
        Box::new(move |conn| {
            control_loop(
                conn,
                handle.clone(),
                tx.clone(),
                Arc::clone(&cost),
                Arc::clone(&messages),
                Arc::clone(&snap_slot),
            )
        })
    };
    let n_nodes = cfg.peers.len();
    let endpoint: Box<dyn Endpoint> = Box::new(
        EpollEndpoint::establish(
            MeshConfig {
                me: cfg.me,
                listener: cfg.listener,
                peers: cfg.peers,
                link_timeout: cfg.link_timeout,
                reconnect: cfg.reconnect,
            },
            deliver,
            Some(ctrl),
        )
        .map_err(|e| ClusterError::Transport(e.to_string()))?,
    );

    let ctx = NodeCtx::new(
        Arc::clone(&table),
        cfg.sys,
        cfg.shard,
        endpoint,
        cost,
        messages,
        VersionClock::Lamport(AtomicU64::new(0)),
        Arc::clone(&poison),
        cfg.recovery,
        // One node per process: the "cluster-wide" dead set degenerates
        // to this node's own view (no shared memory to share it over).
        Arc::new(crate::node::DeadSet::new(n_nodes)),
    );
    // Publish the snapshot before closing the endpoint: close joins the
    // control threads, and the shutdown-issuing one is waiting on it.
    let endpoint = node_loop(ctx, rx);
    let _ = snap_tx.send(table.snaps());
    endpoint.close();
    match poison.get() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn control_loop(
    mut conn: CtrlConn,
    handle: Handle,
    tx: Sender<Wire>,
    cost: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
    snap_slot: Arc<Mutex<Option<Receiver<Vec<ReplicaSnap>>>>>,
) {
    loop {
        let frame = match read_frame(&mut conn.reader) {
            Ok(f) => f,
            Err(_) => return, // driver went away
        };
        match frame {
            Frame::Op { op, object, data } => {
                let result = handle
                    .request(op, object, data)
                    .wait()
                    .map_err(|e| e.to_string());
                if write_frame(&mut conn.writer, &Frame::OpDone { result }).is_err() {
                    return;
                }
            }
            Frame::CostQuery => {
                let report = Frame::CostReport {
                    cost: cost.load(Ordering::Relaxed),
                    messages: messages.load(Ordering::Relaxed),
                };
                if write_frame(&mut conn.writer, &report).is_err() {
                    return;
                }
            }
            Frame::Shutdown => {
                let _ = tx.send(Wire::Stop);
                let snap_rx = lock(&snap_slot).take();
                let snap = snap_rx.and_then(|rx| rx.recv().ok()).unwrap_or_default();
                let objects = snap
                    .into_iter()
                    .map(|r| (r.state, r.version, r.writer.0, r.data))
                    .collect();
                let _ = write_frame(&mut conn.writer, &Frame::Dump { objects });
                return;
            }
            // Anything else on a control connection is a protocol
            // violation; drop the connection.
            _ => return,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cluster of `repmem-node` OS processes on localhost, driven over
/// per-node TCP control connections.
pub struct RemoteCluster {
    sys: SystemParams,
    children: Vec<Child>,
    /// The cluster's own control link to each node, indexed by node id.
    links: Vec<RemoteHandle>,
    addrs: Vec<SocketAddr>,
}

impl RemoteCluster {
    /// Launch `N+1` `repmem-node` processes running `kind` over `sys`,
    /// wire them into a mesh, and connect a control link to each.
    ///
    /// `bin` is the `repmem-node` executable (tests use
    /// `env!("CARGO_BIN_EXE_repmem-node")`).
    pub fn launch(
        sys: SystemParams,
        kind: ProtocolKind,
        bin: &Path,
    ) -> Result<RemoteCluster, ClusterError> {
        RemoteCluster::launch_with(sys, kind, bin, ShardConfig::default())
    }

    /// [`RemoteCluster::launch`] with sharded sequencers and/or
    /// pipelining: the cluster then runs `n_clients + shards` processes.
    pub fn launch_with(
        sys: SystemParams,
        kind: ProtocolKind,
        bin: &Path,
        shard: ShardConfig,
    ) -> Result<RemoteCluster, ClusterError> {
        let n = shard.total_nodes(&sys);
        let fail =
            |what: &str, e: &dyn std::fmt::Display| ClusterError::Transport(format!("{what}: {e}"));
        let mut children = Vec::with_capacity(n);
        for i in 0..n {
            let child = Command::new(bin)
                .arg("--node")
                .arg(i.to_string())
                .arg("--n-clients")
                .arg(sys.n_clients.to_string())
                .arg("--s")
                .arg(sys.s.to_string())
                .arg("--p")
                .arg(sys.p.to_string())
                .arg("--m")
                .arg(sys.m_objects.to_string())
                .arg("--protocol")
                .arg(kind.name())
                .arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--shards")
                .arg(shard.shards.to_string())
                .arg("--window")
                .arg(shard.window.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| fail(&format!("spawning {}", bin.display()), &e))?;
            children.push(child);
        }
        let mut cluster = RemoteCluster {
            sys,
            children,
            links: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        };
        // Each node binds an ephemeral port and announces it on stdout.
        for child in &mut cluster.children {
            let stdout = child.stdout.take().expect("stdout was piped");
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| fail("reading LISTEN line", &e))?;
            let addr = line
                .strip_prefix("LISTEN ")
                .map(str::trim)
                .and_then(|a| a.parse::<SocketAddr>().ok())
                .ok_or_else(|| fail("parsing LISTEN line", &line.trim()))?;
            cluster.addrs.push(addr);
        }
        // Tell every node the full address map; it then dials its peers.
        let peer_line = cluster
            .addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        for child in &mut cluster.children {
            let mut stdin = child.stdin.take().expect("stdin was piped");
            writeln!(stdin, "PEERS {peer_line}").map_err(|e| fail("writing PEERS line", &e))?;
        }
        for i in 0..n {
            let link = cluster.connect_handle(NodeId(i as u16))?;
            cluster.links.push(link);
        }
        Ok(cluster)
    }

    /// System parameters this cluster runs with.
    pub fn system(&self) -> SystemParams {
        self.sys
    }

    /// Total nodes (client + sequencer-shard processes) in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.links.len()
    }

    /// Open an *additional* control connection to `node`, independent of
    /// the cluster's own links: each handle owns its connection, so many
    /// driver threads can issue operations concurrently (the scale-out
    /// harness runs one per simulated client process). Drop every handle
    /// before [`RemoteCluster::shutdown`] — a node's endpoint close
    /// joins its control threads, which exit when their driver hangs up.
    pub fn connect_handle(&self, node: NodeId) -> Result<RemoteHandle, ClusterError> {
        let fail =
            |what: &str, e: &dyn std::fmt::Display| ClusterError::Transport(format!("{what}: {e}"));
        let addr = self
            .addrs
            .get(node.idx())
            .ok_or(ClusterError::NodeDown(node))?;
        let stream = dial_with_retry(*addr, Duration::from_secs(10))
            .map_err(|e| fail(&format!("control connection to {node}"), &e))?;
        let _ = stream.set_nodelay(true);
        let mut writer = stream
            .try_clone()
            .map_err(|e| fail("cloning control stream", &e))?;
        write_frame(
            &mut writer,
            &Frame::Hello {
                version: WIRE_VERSION,
                node: CTRL_NODE,
            },
        )
        .map_err(|e| fail("control hello", &e))?;
        Ok(RemoteHandle {
            node,
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn link(&mut self, node: NodeId) -> Result<&mut RemoteHandle, ClusterError> {
        self.links
            .get_mut(node.idx())
            .ok_or(ClusterError::NodeDown(node))
    }

    /// Read the shared object through `node`'s replica (blocking).
    pub fn read(&mut self, node: NodeId, object: ObjectId) -> Result<Bytes, ClusterError> {
        self.link(node)?.read(object)
    }

    /// Write the shared object through `node` (blocking, like
    /// `Handle::write`).
    pub fn write(
        &mut self,
        node: NodeId,
        object: ObjectId,
        data: Bytes,
    ) -> Result<(), ClusterError> {
        self.link(node)?.write(object, data)
    }

    /// Cluster-wide `(cost, messages)` totals right now.
    pub fn costs(&mut self) -> Result<(u64, u64), ClusterError> {
        let mut total = (0u64, 0u64);
        for link in &mut self.links {
            match link.call(&Frame::CostQuery)? {
                Frame::CostReport { cost, messages } => {
                    total.0 += cost;
                    total.1 += messages;
                }
                other => return Err(link.unexpected(&other)),
            }
        }
        Ok(total)
    }

    /// Poll [`RemoteCluster::costs`] until two consecutive samples agree
    /// — lets in-flight fire-and-forget cascades drain before a
    /// per-operation cost is attributed.
    pub fn settle(&mut self) -> Result<(u64, u64), ClusterError> {
        let mut last = self.costs()?;
        loop {
            std::thread::sleep(Duration::from_millis(2));
            let now = self.costs()?;
            if now == last {
                return Ok(now);
            }
            last = now;
        }
    }

    /// Stop every node process and collect the final replica snapshot.
    pub fn shutdown(mut self) -> Result<ClusterDump, ClusterError> {
        let mut copies = Vec::with_capacity(self.links.len());
        for link in &mut self.links {
            match link.call(&Frame::Shutdown)? {
                Frame::Dump { objects } => copies.push(
                    objects
                        .into_iter()
                        .map(|(state, version, writer, data)| ReplicaSnap {
                            state,
                            data,
                            version,
                            writer: NodeId(writer),
                        })
                        .collect(),
                ),
                other => return Err(link.unexpected(&other)),
            }
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        Ok(ClusterDump {
            copies: copies.into(),
        })
    }
}

/// A driver connection to one node of a [`RemoteCluster`]: the cluster's
/// own link to that node, or an independent one from
/// [`RemoteCluster::connect_handle`]. It issues blocking operations over
/// its own control stream, so handles on different threads don't
/// serialize against each other or the cluster's own links.
pub struct RemoteHandle {
    node: NodeId,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RemoteHandle {
    /// The node this handle drives.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read the object through this node's replica (blocking).
    pub fn read(&mut self, object: ObjectId) -> Result<Bytes, ClusterError> {
        self.op(OpKind::Read, object, None)
    }

    /// Write the object through this node (blocking).
    pub fn write(&mut self, object: ObjectId, data: Bytes) -> Result<(), ClusterError> {
        self.op(OpKind::Write, object, Some(data)).map(|_| ())
    }

    fn op(
        &mut self,
        op: OpKind,
        object: ObjectId,
        data: Option<Bytes>,
    ) -> Result<Bytes, ClusterError> {
        let node = self.node;
        match self.call(&Frame::Op { op, object, data })? {
            Frame::OpDone { result } => {
                result.map_err(|reason| ClusterError::Poisoned { node, reason })
            }
            other => Err(self.unexpected(&other)),
        }
    }

    /// One control round trip: send `request`, read the reply frame.
    fn call(&mut self, request: &Frame) -> Result<Frame, ClusterError> {
        let node = self.node;
        write_frame(&mut self.writer, request)
            .map_err(|e| ClusterError::Transport(format!("control request to {node}: {e}")))?;
        read_frame(&mut self.reader)
            .map_err(|e| ClusterError::Transport(format!("control reply from {node}: {e}")))
    }

    fn unexpected(&self, reply: &Frame) -> ClusterError {
        ClusterError::Transport(format!(
            "unexpected control reply {reply:?} from {}",
            self.node
        ))
    }
}

impl Drop for RemoteCluster {
    fn drop(&mut self) {
        // Reap anything still running (e.g. a test failed mid-drive);
        // after a clean shutdown these are no-ops on exited children.
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
