//! The node threads, transport wiring and the application API
//! (blocking and pipelined).

use crate::node::{
    node_loop, AppReq, ClusterError, NodeCtx, Poison, RecoveryPolicy, ReplicaSnap, VersionClock,
    Wire,
};
use crate::shard::ShardConfig;
use crate::table::ReplicaTable;
use bytes::Bytes;
use repmem_core::{CopyState, NodeId, ObjectId, OpKind, OpTag, ProtocolKind, SystemParams};
use repmem_net::{InProcTransport, MeterHandle, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`Cluster::shutdown`] deadline for joining node threads.
pub const DEFAULT_STOP_DEADLINE: Duration = Duration::from_secs(5);

/// A running DSM cluster of `N + K` node threads (`N` clients plus `K`
/// sequencer shards, `K = 1` by default) over a pluggable transport.
pub struct Cluster {
    sys: SystemParams,
    cfg: ShardConfig,
    txs: Vec<Sender<Wire>>,
    /// Each node's replica table, shared with its loop and its handles.
    tables: Vec<Arc<ReplicaTable>>,
    threads: Vec<JoinHandle<()>>,
    /// Each node reports here once its loop has exited.
    done_rx: Receiver<NodeId>,
    cost: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
    next_tag: Arc<AtomicU64>,
    poison: Arc<Poison>,
    meter: Option<MeterHandle>,
}

/// Final per-node replica snapshot returned by [`Cluster::shutdown`].
#[derive(Debug, Clone)]
pub struct ClusterDump {
    /// `copies[node][object]`.
    pub copies: Copies,
}

/// The `copies[node][object]` matrix of a [`ClusterDump`]; use it as the
/// `[Vec<ReplicaSnap>]` it dereferences to.
///
/// An in-process cluster's dump reads its nodes' replica tables — final
/// once their loops have exited — and builds the dense matrix only when
/// somebody looks at it: at 40 bytes per replica the matrix outweighs
/// the live tables whenever few objects were touched (15 MB against
/// 13 MB on the benchmark's 65 536 objects × 6 nodes), and
/// [`ClusterDump::is_coherent`] does not need it.
#[derive(Clone)]
pub struct Copies {
    tables: Vec<Arc<ReplicaTable>>,
    dense: OnceLock<Vec<Vec<ReplicaSnap>>>,
}

impl Copies {
    /// Copy state and write stamp of one replica, without building the
    /// dense matrix.
    fn brief(&self, node: usize, object: usize) -> (CopyState, (u64, NodeId)) {
        match self.dense.get() {
            Some(dense) => {
                let replica = &dense[node][object];
                (replica.state, replica.stamp())
            }
            None => self.tables[node].brief(ObjectId(object as u32)),
        }
    }
}

impl From<Vec<Vec<ReplicaSnap>>> for Copies {
    fn from(dense: Vec<Vec<ReplicaSnap>>) -> Copies {
        Copies {
            tables: Vec::new(),
            dense: OnceLock::from(dense),
        }
    }
}

impl std::ops::Deref for Copies {
    type Target = [Vec<ReplicaSnap>];
    fn deref(&self) -> &[Vec<ReplicaSnap>] {
        self.dense
            .get_or_init(|| self.tables.iter().map(|t| t.snaps()).collect())
    }
}

impl std::fmt::Debug for Copies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl ClusterDump {
    /// All readable replicas of every object agree on the newest data.
    pub fn is_coherent(&self) -> bool {
        let (nodes, objects) = match self.copies.dense.get() {
            Some(dense) => (dense.len(), dense.first().map_or(0, Vec::len)),
            None => {
                let tables = &self.copies.tables;
                (tables.len(), tables.first().map_or(0, |t| t.objects()))
            }
        };
        (0..objects).all(|object| {
            let replicas = || (0..nodes).map(|node| self.copies.brief(node, object));
            let latest = replicas().map(|(_, stamp)| stamp).max();
            replicas().all(|(state, stamp)| !state.readable() || Some(stamp) == latest)
        })
    }
}

/// A completion ticket for a pipelined operation issued with
/// [`Handle::read_async`] / [`Handle::write_async`].
///
/// The operation is already on its way when the ticket is handed out;
/// [`Ticket::wait`] blocks until the protocol completes it and yields
/// the replica value the operation observed (for writes, the data just
/// written). Dropping a ticket abandons the result but not the
/// operation — it still runs to completion at the node.
#[must_use = "the operation runs regardless, but its result is in the ticket"]
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    /// Decided without the node loop: a read served from the replica
    /// table, or an operation that failed before it was queued.
    Ready(Result<Bytes, ClusterError>),
    Waiting {
        rx: Receiver<Result<Bytes, ClusterError>>,
        node: NodeId,
        poison: Arc<Poison>,
    },
}

impl Ticket {
    /// Block until the operation completes.
    pub fn wait(self) -> Result<Bytes, ClusterError> {
        match self.inner {
            TicketInner::Ready(result) => result,
            TicketInner::Waiting { rx, node, poison } => match rx.recv() {
                Ok(result) => result,
                // The node loop is gone: either it poisoned the cluster
                // (report why) or it was shut down.
                Err(_) => Err(poison.get().unwrap_or(ClusterError::NodeDown(node))),
            },
        }
    }
}

/// A cloneable application-side handle bound to one node.
#[derive(Clone)]
pub struct Handle {
    pub(crate) node: NodeId,
    pub(crate) tx: Sender<Wire>,
    pub(crate) next_tag: Arc<AtomicU64>,
    pub(crate) poison: Arc<Poison>,
    pub(crate) table: Arc<ReplicaTable>,
}

impl Handle {
    /// Read the shared object through this node's replica (blocking).
    ///
    /// A read the protocol prices at 0 — a local hit with no earlier
    /// operation of this node pending on the object — is served from
    /// the node's replica table without visiting the node loop.
    pub fn read(&self, object: ObjectId) -> Result<Bytes, ClusterError> {
        self.read_async(object).wait()
    }

    /// Write the shared object (blocking until the protocol considers the
    /// operation issued; fire-and-forget protocols return as soon as the
    /// write is on the wire).
    pub fn write(&self, object: ObjectId, data: Bytes) -> Result<(), ClusterError> {
        self.write_async(object, data).wait().map(|_| ())
    }

    /// Issue a read without waiting for it. Up to the cluster's
    /// configured window ([`ShardConfig::window`]) of operations run
    /// concurrently per node; operations on the *same* object always
    /// execute in the order they were issued from this node.
    pub fn read_async(&self, object: ObjectId) -> Ticket {
        self.request(OpKind::Read, object, None)
    }

    /// Issue a write without waiting for it (see [`Handle::read_async`]
    /// for the ordering guarantees).
    pub fn write_async(&self, object: ObjectId, data: Bytes) -> Ticket {
        self.request(OpKind::Write, object, Some(data))
    }

    pub(crate) fn request(&self, op: OpKind, object: ObjectId, data: Option<Bytes>) -> Ticket {
        if let Some(e) = self.poison.get() {
            return Ticket {
                inner: TicketInner::Ready(Err(e)),
            };
        }
        let tag = OpTag(self.next_tag.fetch_add(1, Ordering::Relaxed));
        if let Some(value) = self.table.admit(op, object) {
            return Ticket {
                inner: TicketInner::Ready(Ok(value)),
            };
        }
        // Buffer of 1 lets the node loop complete the operation without
        // blocking on a caller that has not reached `wait` yet (or
        // dropped the ticket entirely).
        let (reply_tx, reply_rx) = sync_channel(1);
        let req = AppReq {
            op,
            object,
            data,
            reply: reply_tx,
        };
        if self.tx.send(Wire::Local(req, tag)).is_err() {
            return Ticket {
                inner: TicketInner::Ready(Err(self
                    .poison
                    .get()
                    .unwrap_or(ClusterError::NodeDown(self.node)))),
            };
        }
        Ticket {
            inner: TicketInner::Waiting {
                rx: reply_rx,
                node: self.node,
                poison: Arc::clone(&self.poison),
            },
        }
    }
}

impl Cluster {
    /// Spawn the paper's `N+1` node threads over the in-process
    /// transport (one sequencer, blocking operations).
    pub fn new(sys: SystemParams, kind: ProtocolKind) -> Cluster {
        Cluster::with_config(sys, kind, ShardConfig::default())
    }

    /// Spawn `N + K` node threads over the in-process transport with
    /// the given sharding/pipelining configuration.
    pub fn with_config(sys: SystemParams, kind: ProtocolKind, cfg: ShardConfig) -> Cluster {
        Cluster::with_transport(sys, kind, cfg, InProcTransport::new(cfg.total_nodes(&sys)))
            .expect("in-process transport cannot fail to bind")
    }

    /// Spawn the `N + K` node threads over an arbitrary transport.
    ///
    /// The transport must wire exactly [`ShardConfig::total_nodes`]
    /// endpoints. Whatever the transport, the nodes are threads of this
    /// process and stamp writes from one shared counter; only
    /// [`crate::remote`]'s one-node-per-process clusters run a Lamport
    /// clock (see `VersionClock` in the node module).
    pub fn with_transport(
        sys: SystemParams,
        kind: ProtocolKind,
        cfg: ShardConfig,
        transport: impl Transport,
    ) -> Result<Cluster, ClusterError> {
        Cluster::with_recovery(sys, kind, cfg, transport, RecoveryPolicy::default())
    }

    /// [`Cluster::with_transport`] plus a [`RecoveryPolicy`]: how node
    /// loops react when a send fails — retry transient errors up to the
    /// policy's deadline, then degrade (fail the one affected operation
    /// with [`ClusterError::NodeDown`]) instead of poisoning. The
    /// default policy never retries, restoring the paper's fault-free
    /// channel assumption exactly.
    pub fn with_recovery(
        sys: SystemParams,
        kind: ProtocolKind,
        cfg: ShardConfig,
        mut transport: impl Transport,
        recovery: RecoveryPolicy,
    ) -> Result<Cluster, ClusterError> {
        if cfg.shards == 0 || cfg.window == 0 {
            return Err(ClusterError::Transport(format!(
                "invalid shard config: {} shards, window {}",
                cfg.shards, cfg.window
            )));
        }
        let n = cfg.total_nodes(&sys);
        if transport.n_nodes() != n {
            return Err(ClusterError::Transport(format!(
                "transport wires {} nodes but the sharded system has {n}",
                transport.n_nodes()
            )));
        }
        let cost = Arc::new(AtomicU64::new(0));
        let messages = Arc::new(AtomicU64::new(0));
        let versions = Arc::new(AtomicU64::new(0));
        let poison = Arc::new(Poison::default());
        let dead = Arc::new(crate::node::DeadSet::new(n));
        let meter = transport.meter();
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Wire>();
            txs.push(tx);
            rxs.push(rx);
        }
        let (done_tx, done_rx) = channel();
        let mut tables = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for (i, rx) in rxs.into_iter().enumerate() {
            let me = NodeId(i as u16);
            let net_tx = txs[i].clone();
            let endpoint = transport
                .bind(
                    me,
                    Box::new(move |env| {
                        let _ = net_tx.send(Wire::Net(env));
                    }),
                )
                .map_err(|e| ClusterError::Transport(e.to_string()))?;
            let ctx = NodeCtx::new(
                Arc::new(ReplicaTable::new(me, sys, kind, cfg)),
                sys,
                cfg,
                endpoint,
                Arc::clone(&cost),
                Arc::clone(&messages),
                VersionClock::Shared(Arc::clone(&versions)),
                Arc::clone(&poison),
                recovery,
                Arc::clone(&dead),
            );
            tables.push(Arc::clone(&ctx.table));
            let done_tx = done_tx.clone();
            threads.push(std::thread::spawn(move || {
                let endpoint = node_loop(ctx, rx);
                let _ = done_tx.send(me);
                endpoint.close();
            }));
        }
        Ok(Cluster {
            sys,
            cfg,
            txs,
            tables,
            threads,
            done_rx,
            cost,
            messages,
            next_tag: Arc::new(AtomicU64::new(1)),
            poison,
            meter,
        })
    }

    /// An application handle bound to `node` (clients *or* shards: a
    /// sequencer shard is a full protocol node and may issue operations
    /// like any client, exactly as the paper's home node does).
    pub fn handle(&self, node: NodeId) -> Handle {
        assert!(node.idx() < self.txs.len(), "no such node");
        Handle {
            node,
            tx: self.txs[node.idx()].clone(),
            next_tag: Arc::clone(&self.next_tag),
            poison: Arc::clone(&self.poison),
            table: Arc::clone(&self.tables[node.idx()]),
        }
    }

    /// Total communication cost accumulated so far, in the paper's units.
    pub fn total_cost(&self) -> u64 {
        self.cost.load(Ordering::Relaxed)
    }

    /// Total inter-node messages sent so far.
    pub fn total_messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Reads served so far from a node's replica table without
    /// visiting its node loop, summed over the nodes — the operations
    /// that met all three clauses of the local-hit rule (see DESIGN,
    /// runtime section). Divide by the operations issued for the share
    /// of a workload that has the property.
    pub fn local_read_hits(&self) -> u64 {
        self.tables.iter().map(|t| t.hits()).sum()
    }

    /// Replica-table entries built so far, summed over the nodes: one
    /// per (node, object) pair that an operation or message has
    /// touched. A fresh cluster has none.
    pub fn materialised_entries(&self) -> usize {
        self.tables.iter().map(|t| t.materialised()).sum()
    }

    /// System parameters this cluster runs with.
    pub fn system(&self) -> SystemParams {
        self.sys
    }

    /// Sharding/pipelining configuration this cluster runs with.
    pub fn shard_config(&self) -> ShardConfig {
        self.cfg
    }

    /// The first error that poisoned this cluster, if any.
    pub fn poisoned(&self) -> Option<ClusterError> {
        self.poison.get()
    }

    /// Per-link traffic meter, when the transport stack contains a
    /// `MeteredTransport` layer.
    pub fn meter(&self) -> Option<&MeterHandle> {
        self.meter.as_ref()
    }

    /// Wait until the cluster is quiescent — every envelope any node
    /// sent has been handled and every node is idle, so nothing further
    /// can happen until the application issues another operation — and
    /// return the `(cost, messages)` totals of that moment.
    ///
    /// Exact, not timed: each node loop counts the envelopes a link
    /// accepted from it and the envelopes it took off its inbox, and
    /// reports both only at an idle point (inbox drained, nothing
    /// startable, outbound flushed). Two consecutive rounds of answers
    /// that are identical and whose sums agree prove that between the
    /// rounds no node sent or handled anything and nothing was in
    /// flight (Mattern's four-counter termination test; DESIGN,
    /// "Quiescence"). An operation blocked on a reply that can never
    /// come does not hold it up; a sender still retrying does.
    ///
    /// Fails with the poison, or [`ClusterError::NodeDown`] naming a
    /// node that never reached an idle point, once
    /// [`DEFAULT_STOP_DEADLINE`] has passed.
    pub fn settle(&self) -> Result<(u64, u64), ClusterError> {
        self.quiesce(Instant::now() + DEFAULT_STOP_DEADLINE)
    }

    fn quiesce(&self, end: Instant) -> Result<(u64, u64), ClusterError> {
        let gone = |node: usize| {
            let node = NodeId(node as u16);
            self.poison.get().unwrap_or(ClusterError::NodeDown(node))
        };
        let mut last = Vec::new();
        loop {
            // One round: every node reports its counters at its next
            // idle point. A node that stays silent is inside a step, or
            // its loop exited with the probe queued.
            let (tx, rx) = channel();
            for (i, inbox) in self.txs.iter().enumerate() {
                inbox.send(Wire::Probe(tx.clone())).map_err(|_| gone(i))?;
            }
            drop(tx);
            let mut round = vec![None; self.txs.len()];
            while let Ok((node, sent, handled)) =
                rx.recv_timeout(end.saturating_duration_since(Instant::now()))
            {
                round[node.idx()] = Some((sent, handled));
            }
            if let Some(silent) = round.iter().position(Option::is_none) {
                return Err(gone(silent));
            }
            let sent: u64 = round.iter().flatten().map(|&(sent, _)| sent).sum();
            let handled: u64 = round.iter().flatten().map(|&(_, handled)| handled).sum();
            if sent == handled && round == last {
                return Ok((self.total_cost(), self.total_messages()));
            }
            if Instant::now() >= end {
                return Err(self.poison.get().unwrap_or(ClusterError::Transport(format!(
                    "no quiescence: {sent} envelopes sent, {handled} handled"
                ))));
            }
            last = round;
        }
    }

    /// Stop all node threads and return the final replica snapshot,
    /// waiting up to [`DEFAULT_STOP_DEADLINE`] for them to exit.
    pub fn shutdown(self) -> Result<ClusterDump, ClusterError> {
        self.shutdown_within(DEFAULT_STOP_DEADLINE)
    }

    /// Stop all node threads — clients and sequencer shards — joining
    /// them with a deadline. If some node fails to exit in time, the
    /// stragglers are reported per role (client vs. sequencer shard) in
    /// [`ClusterError::StopTimeout`] and left detached. A poisoned
    /// cluster shuts down cleanly but reports the poison error.
    pub fn shutdown_within(mut self, deadline: Duration) -> Result<ClusterDump, ClusterError> {
        let end = Instant::now() + deadline;
        // Drain before stopping. The inboxes are FIFO, but a wave is
        // several hops: a `Stop` queued behind a request the sequencer
        // has yet to handle is *ahead* of the invalidations that
        // request will fan out, and would leave their receivers stale.
        // Half the budget goes to the drain; a cluster that will not
        // quiesce (callers still issuing, a sender stuck in its retry
        // loop) is stopped regardless and reports its stragglers below.
        let _ = self.quiesce(Instant::now() + deadline / 2);
        for tx in &self.txs {
            let _ = tx.send(Wire::Stop);
        }
        let n = self.txs.len();
        let mut exited = vec![false; n];
        let mut got = 0;
        while got < n {
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.done_rx.recv_timeout(left) {
                Ok(node) => {
                    if !std::mem::replace(&mut exited[node.idx()], true) {
                        got += 1;
                    }
                }
                Err(_) => break,
            }
        }
        if got < n {
            let map = self.cfg.map(&self.sys);
            let (shard_stragglers, stragglers) = exited
                .iter()
                .enumerate()
                .filter(|(_, done)| !**done)
                .map(|(i, _)| NodeId(i as u16))
                .partition(|&node| map.is_shard(node));
            let err = ClusterError::StopTimeout {
                stragglers,
                shard_stragglers,
            };
            self.poison.set(err.clone());
            // Leave the straggling threads detached: joining would hang.
            self.threads.clear();
            return Err(err);
        }
        // Every node loop has exited, so joins complete promptly.
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(e) = self.poison.get() {
            return Err(e);
        }
        // The tables are closed and final: the dump reads them.
        Ok(ClusterDump {
            copies: Copies {
                tables: std::mem::take(&mut self.tables),
                dense: OnceLock::new(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemParams {
        SystemParams {
            n_clients: 4,
            s: 64,
            p: 16,
            m_objects: 4,
        }
    }

    #[test]
    fn read_your_writes_everywhere() {
        for kind in ProtocolKind::EVERY {
            let cluster = Cluster::new(sys(), kind);
            for node in [NodeId(0), NodeId(2), sys().home()] {
                let h = cluster.handle(node);
                let payload = Bytes::from(format!("{kind:?}@{node}"));
                h.write(ObjectId(1), payload.clone()).unwrap();
                assert_eq!(h.read(ObjectId(1)).unwrap(), payload, "{kind:?} at {node}");
            }
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn cross_node_visibility() {
        for kind in ProtocolKind::EVERY {
            let cluster = Cluster::new(sys(), kind);
            let writer = cluster.handle(NodeId(0));
            let reader = cluster.handle(NodeId(3));
            writer
                .write(ObjectId(2), Bytes::from_static(b"shared"))
                .unwrap();
            // The write is asynchronous for the fire-and-forget and
            // update protocols: its wave lands, then the reader reads.
            cluster.settle().unwrap();
            let seen = reader.read(ObjectId(2)).unwrap();
            assert_eq!(&seen[..], b"shared", "{kind:?}");
            cluster.shutdown().unwrap();
        }
    }

    #[test]
    fn costs_match_the_model_for_serial_write_through_usage() {
        let sys = sys();
        let cluster = Cluster::new(sys, ProtocolKind::WriteThrough);
        let h = cluster.handle(NodeId(0));
        h.write(ObjectId(0), Bytes::from_static(b"x")).unwrap(); // P+N
        let (base, _) = cluster.settle().unwrap();
        assert_eq!(base, sys.p + sys.n_clients as u64);
        h.read(ObjectId(0)).unwrap(); // own copy INVALID -> S+2
        let after = cluster.total_cost();
        assert_eq!(after - base, sys.s + 2);
        h.read(ObjectId(0)).unwrap(); // now VALID -> free
        assert_eq!(cluster.total_cost(), after);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn replicas_converge_after_shutdown() {
        for kind in ProtocolKind::EVERY {
            let cluster = Cluster::new(sys(), kind);
            let handles: Vec<_> = (0..4).map(|i| cluster.handle(NodeId(i))).collect();
            let threads: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    std::thread::spawn(move || {
                        for round in 0..25u64 {
                            let obj = ObjectId(((i as u64 + round) % 4) as u32);
                            if (round + i as u64).is_multiple_of(3) {
                                h.write(obj, Bytes::from(round.to_le_bytes().to_vec()))
                                    .unwrap();
                            } else {
                                let _ = h.read(obj).unwrap();
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let dump = cluster.shutdown().unwrap();
            assert!(dump.is_coherent(), "{kind:?}: replicas diverged");
        }
    }

    #[test]
    fn concurrent_writers_do_not_deadlock() {
        let cluster = Cluster::new(sys(), ProtocolKind::Illinois);
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let h = cluster.handle(NodeId(i));
                std::thread::spawn(move || {
                    for r in 0..50u64 {
                        h.write(ObjectId(0), Bytes::from(vec![i as u8, r as u8]))
                            .unwrap();
                        let _ = h.read(ObjectId(0)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(cluster.total_messages() > 0);
        cluster.shutdown().unwrap();
    }

    /// The dump judges coherence straight off the tables and builds the
    /// dense matrix only on demand; both views must agree, on a
    /// coherent cluster and on a diverged one.
    #[test]
    fn dump_reads_tables_lazily_and_agrees_with_its_dense_view() {
        let tables: Vec<_> = (0..3u16)
            .map(|i| {
                Arc::new(ReplicaTable::new(
                    NodeId(i),
                    sys(),
                    ProtocolKind::Dragon,
                    ShardConfig::default(),
                ))
            })
            .collect();
        let dump = |tables: &[Arc<ReplicaTable>]| ClusterDump {
            copies: Copies {
                tables: tables.to_vec(),
                dense: OnceLock::new(),
            },
        };
        let write = |table: &ReplicaTable, version| {
            let mut replica = table.entry(ObjectId(1)).expect("in range").lock();
            replica.copy.version = version;
            replica.copy.data = Bytes::from(vec![version as u8]);
        };
        // Untouched tables: every replica in its (readable) initial state.
        let fresh = dump(&tables);
        assert!(fresh.is_coherent());
        assert_eq!(fresh.copies.len(), 3);
        assert!(fresh
            .copies
            .iter()
            .all(|node| node.len() == sys().m_objects));

        for table in &tables {
            write(table, 7);
        }
        assert!(dump(&tables).is_coherent());
        // One readable replica left behind: incoherent, seen from the
        // tables and again from the materialised matrix.
        write(&tables[2], 9);
        let diverged = dump(&tables);
        assert!(!diverged.is_coherent());
        assert_eq!(diverged.copies[2][1].version, 9);
        assert_eq!(&diverged.copies[0][1].data[..], &[7]);
        assert!(!diverged.is_coherent());
    }

    #[test]
    fn bad_operation_poisons_instead_of_hanging() {
        let cluster = Cluster::new(sys(), ProtocolKind::WriteThrough);
        let h = cluster.handle(NodeId(1));
        // An operation on an object the cluster does not have is the
        // simplest API-reachable trigger of the node-loop error path.
        let bad = ObjectId(sys().m_objects as u32 + 7);
        let err = h.write(bad, Bytes::from_static(b"boom")).unwrap_err();
        assert!(matches!(err, ClusterError::Poisoned { .. }), "{err}");
        // Every subsequent operation fails fast with the same poison...
        let err2 = cluster.handle(NodeId(0)).read(ObjectId(0)).unwrap_err();
        assert!(matches!(err2, ClusterError::Poisoned { .. }), "{err2}");
        assert!(cluster.poisoned().is_some());
        // ...and shutdown reports the poison instead of hanging.
        let res = cluster.shutdown();
        assert!(matches!(res, Err(ClusterError::Poisoned { .. })));
    }
}
