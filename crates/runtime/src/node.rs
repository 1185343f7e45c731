//! The node loop: one protocol process pumping envelopes from a
//! transport endpoint and operations from its local application queue.
//!
//! This module is transport-agnostic and shared by the two cluster
//! shapes: [`crate::Cluster`] (all nodes as threads of one process, any
//! [`Transport`] backend) and [`crate::remote`] (one node per OS process
//! over the TCP mesh).
//!
//! A node's work comes in *turns* (`NodeCtx::turn`): handle what woke
//! it, drain what is queued, start backlogged requests, flush, answer
//! quiescence probes. The node's state sits behind one lock in a
//! [`NodeCell`], and whoever runs a turn holds it. Two kinds of thread
//! run the same turn:
//!
//! * the node's own thread ([`node_loop`]), for every item on its inbox —
//!   local requests, probes, `Stop`, and the envelopes that were queued;
//! * the thread that delivers an envelope ([`NodeCell::deliver`]), when
//!   it holds no node's turn itself, finds the node idle and no earlier
//!   envelope queued. On the TCP mesh that thread is the mesh runner, so
//!   an envelope costs no thread handoff. An in-process send delivers
//!   inside the sender's turn, so there the envelope is always queued.
//!
//! [`Transport`]: repmem_net::Transport

use crate::shard::{ShardConfig, ShardMap};
use crate::table::ReplicaTable;
use bytes::Bytes;
use repmem_core::{
    CopyState, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag, ProtocolKind, SystemParams,
};
use repmem_net::{Endpoint, Envelope, NetError, Payload};
use repmem_protocols::host::{Driver, Host, Leg, Round, StepFlags};
use repmem_protocols::protocol;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};

/// Errors surfaced by the cluster API instead of panics or hangs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node's protocol process hit an unrecoverable condition; the
    /// cluster is poisoned and every subsequent operation fails fast.
    Poisoned {
        /// The node that poisoned the cluster.
        node: NodeId,
        /// Human-readable description of the failure.
        reason: String,
    },
    /// The target node's loop is gone (shut down or crashed).
    NodeDown(NodeId),
    /// `shutdown` gave up waiting on node threads that never exited.
    StopTimeout {
        /// Client nodes that failed to stop within the deadline.
        stragglers: Vec<NodeId>,
        /// Sequencer-shard nodes that failed to stop within the deadline.
        shard_stragglers: Vec<NodeId>,
    },
    /// Transport-level failure while wiring or running the cluster.
    Transport(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Poisoned { node, reason } => {
                write!(f, "cluster poisoned by {node}: {reason}")
            }
            ClusterError::NodeDown(node) => write!(f, "{node} is not running"),
            ClusterError::StopTimeout {
                stragglers,
                shard_stragglers,
            } => {
                write!(f, "shutdown deadline expired")?;
                let list = |f: &mut std::fmt::Formatter<'_>, nodes: &[NodeId]| {
                    for (i, n) in nodes.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{n}")?;
                    }
                    Ok(())
                };
                if !stragglers.is_empty() {
                    write!(f, "; straggling client nodes: ")?;
                    list(f, stragglers)?;
                }
                if !shard_stragglers.is_empty() {
                    write!(f, "; straggling sequencer shards: ")?;
                    list(f, shard_stragglers)?;
                }
                Ok(())
            }
            ClusterError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The cluster's dead set: one monotonic flag per node, shared by every
/// node loop of a cluster (one node per process under
/// [`crate::remote`], where it is that node's own view).
///
/// A node marks the node a failed send names
/// ([`repmem_net::NetError::Down`]). Every node reads it in the sweep
/// that fails operations blocked on a dead service node, and in a
/// Quorum round's count of the voters still alive. Nodes crash-stop
/// and dead links stay dead, so flags only ever go up and a reader
/// needs no lock — a relaxed load is a valid hint.
pub(crate) struct DeadSet {
    peers: Vec<AtomicBool>,
}

impl DeadSet {
    pub fn new(n: usize) -> DeadSet {
        DeadSet {
            peers: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    pub fn mark(&self, peer: NodeId) {
        if let Some(f) = self.peers.get(peer.idx()) {
            f.store(true, Ordering::Relaxed);
        }
    }

    pub fn is_down(&self, peer: NodeId) -> bool {
        self.peers
            .get(peer.idx())
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The lowest-numbered dead node, if any.
    fn first(&self) -> Option<NodeId> {
        let i = self.peers.iter().position(|f| f.load(Ordering::Relaxed))?;
        Some(NodeId(i as u16))
    }
}

/// First-error-wins poison cell shared by every node of a cluster.
///
/// Every operation asks "poisoned?" and the answer is almost always no,
/// so the question is one atomic load; the mutex is taken only to set
/// the error or to clone it out once the flag is up.
#[derive(Default)]
pub(crate) struct Poison {
    /// Raised (release) after `first` is written; pairs with the
    /// acquire load in [`Poison::get`].
    set: AtomicBool,
    first: Mutex<Option<ClusterError>>,
}

impl Poison {
    pub fn get(&self) -> Option<ClusterError> {
        if !self.set.load(Ordering::Acquire) {
            return None;
        }
        self.first.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn set(&self, err: ClusterError) {
        let mut first = self.first.lock().unwrap_or_else(|e| e.into_inner());
        if first.is_none() {
            *first = Some(err);
            self.set.store(true, Ordering::Release);
        }
    }
}

/// Write-version stamp source.
///
/// Versions must agree with the protocol's serialization order (see
/// [`NodeLink::own_params`]); the two variants realize that with and
/// without shared memory:
///
/// * `Shared` — one cluster-global counter (all nodes in one process):
///   every stamp is unique and totally ordered.
/// * `Lamport` — a per-process counter pushed forward by the clock value
///   piggybacked on every incoming envelope: a node's stamp always
///   exceeds every write it has heard about. Concurrent unrelated
///   writes may tie on the counter, so the merge key is the pair
///   `(version, writer)`.
pub(crate) enum VersionClock {
    Shared(Arc<AtomicU64>),
    Lamport(AtomicU64),
}

impl VersionClock {
    fn observe(&self, seen: u64) {
        if let VersionClock::Lamport(c) = self {
            c.fetch_max(seen, Ordering::Relaxed);
        }
    }

    fn next(&self) -> u64 {
        match self {
            VersionClock::Shared(c) => c.fetch_add(1, Ordering::Relaxed) + 1,
            VersionClock::Lamport(c) => c.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    fn now(&self) -> u64 {
        match self {
            VersionClock::Shared(c) => c.load(Ordering::Relaxed),
            VersionClock::Lamport(c) => c.load(Ordering::Relaxed),
        }
    }
}

/// Everything a node loop can receive on its single merged inbox.
///
/// Merging the distributed and local queues into one FIFO channel keeps
/// the node loop on `std::sync::mpsc` (no `select!` needed): local
/// requests that arrive while an operation is in flight are parked in a
/// backlog and started as soon as the node is free again.
pub(crate) enum Wire {
    Net(Envelope),
    Local(AppReq, OpTag),
    /// A quiescence probe from [`crate::Cluster::settle`]: answered with
    /// the node's [`Tally`] at its next idle point. Not a message — it
    /// never touches the transport, the cost counters or a meter.
    Probe(Sender<Tally>),
    /// The node's thread exits. Also what wakes it after a turn run by
    /// a deliverer failed (`NodeCtx::broken`).
    Stop,
}

/// One node's answer to a quiescence probe: `(node, sent, handled)` —
/// envelopes it has handed to a link that accepted them (self-sends
/// included) and envelopes it has taken off its inbox.
pub(crate) type Tally = (NodeId, u64, u64);

/// An application request delivered to the local protocol process.
pub(crate) struct AppReq {
    pub op: OpKind,
    pub object: ObjectId,
    pub data: Option<Bytes>,
    pub reply: SyncSender<Result<Bytes, ClusterError>>,
}

/// What a ticket yields: the value the operation observed, or why it
/// failed.
type Outcome = Result<Bytes, ClusterError>;

/// Ticket answers a turn decided: sent only once the turn has let go of
/// the node's lock ([`Answers::send`]). A woken caller may preempt the
/// thread that answers it; answered under the lock, it would preempt the
/// lock holder, and the node's own thread, woken by the caller's next
/// request, would then sleep on the lock.
#[derive(Default)]
pub(crate) struct Answers(Vec<(SyncSender<Outcome>, Outcome)>);

impl Answers {
    pub fn send(self) {
        for (reply, result) in self.0 {
            let _ = reply.send(result);
        }
    }
}

/// Final state of one replica, reported at node exit.
#[derive(Debug, Clone)]
pub struct ReplicaSnap {
    /// Protocol state the replica stopped in.
    pub state: CopyState,
    /// The replica's data.
    pub data: Bytes,
    /// Stamp-order version of the data.
    pub version: u64,
    /// Node whose write produced the data.
    pub writer: NodeId,
}

impl ReplicaSnap {
    /// The totally-ordered write id of this replica's data.
    pub fn stamp(&self) -> (u64, NodeId) {
        (self.version, self.writer)
    }
}

/// One in-flight application operation at a node.
///
/// With pipelining (`window > 1`) a node keeps up to `window` of these,
/// at most one per object — the per-object Mealy machine serializes its
/// own operations, so the in-flight map is keyed by object.
struct PendingApp {
    op: OpKind,
    tag: OpTag,
    data: Option<Payload>,
    reply: SyncSender<Result<Bytes, ClusterError>>,
    /// `true` once the protocol requires a response before completion.
    blocked: bool,
    /// The operation's quorum round, if it runs one. Its `voted` list
    /// tells the shortfall sweep which live peers could still
    /// contribute a fresh vote.
    round: Round<(u64, NodeId)>,
}

pub(crate) struct NodeCtx {
    pub me: NodeId,
    pub sys: SystemParams,
    pub kind: ProtocolKind,
    pub endpoint: Box<dyn Endpoint>,
    /// This node's replicas, shared with its application handles.
    pub table: Arc<ReplicaTable>,
    pub cost: Arc<AtomicU64>,
    pub messages: Arc<AtomicU64>,
    pub clock: VersionClock,
    pub poison: Arc<Poison>,
    shards: ShardMap,
    /// Max in-flight application operations (`ShardConfig::window`).
    window: usize,
    /// In-flight operations by object, at most `window` of them.
    pending: HashMap<ObjectId, PendingApp>,
    /// Operations the unreachable-peer sweep failed with `NodeDown`
    /// after their request had left. An answer may still be in flight —
    /// sent before the peer died — and must not be run against whatever
    /// holds the object by then. At most `window` tags per discovered
    /// death.
    abandoned: HashSet<OpTag>,
    /// The cluster's dead set (see [`DeadSet`]): written when a send of
    /// this node finds a peer dead, read to fail operations blocked on
    /// peers anybody already buried.
    dead: Arc<DeadSet>,
    /// Envelopes a link accepted from this node, self-sends included.
    sent: u64,
    /// Envelopes a turn took up, counted before they are handled (so a
    /// dropped straggler counts too). With `sent`, this node's half of
    /// the cluster's quiescence test; both change only inside a turn.
    handled: u64,
    /// Local requests waiting for a window slot or for their object.
    backlog: VecDeque<(AppReq, OpTag)>,
    /// Quiescence probes waiting for this node's next idle point.
    probes: Vec<Sender<Tally>>,
    /// Why a turn run by a deliverer failed: the node's thread poisons
    /// the cluster with it at its next turn, and no deliverer runs
    /// another.
    broken: Option<String>,
    /// Tickets the steps so far completed or failed, not yet answered.
    pub answers: Answers,
}

impl NodeCtx {
    /// A node loop's state over `table` (which names the node, the
    /// protocol and the shard map, and is what the node's handles read).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        table: Arc<ReplicaTable>,
        sys: SystemParams,
        cfg: ShardConfig,
        endpoint: Box<dyn Endpoint>,
        cost: Arc<AtomicU64>,
        messages: Arc<AtomicU64>,
        clock: VersionClock,
        poison: Arc<Poison>,
        dead: Arc<DeadSet>,
    ) -> NodeCtx {
        let window = cfg.window.max(1);
        NodeCtx {
            me: table.me,
            sys,
            kind: table.kind,
            endpoint,
            table,
            cost,
            messages,
            clock,
            poison,
            shards: cfg.map(&sys),
            window,
            // Bounded by the window, not by the object count.
            pending: HashMap::with_capacity(window.min(1024)),
            abandoned: HashSet::new(),
            dead,
            sent: 0,
            handled: 0,
            backlog: VecDeque::new(),
            probes: Vec::new(),
            broken: None,
            answers: Answers::default(),
        }
    }
}

impl NodeCtx {
    /// Whether a new application operation on `object` may start now:
    /// a window slot is free and no operation is in flight on the
    /// object. Used by the step-driven cluster, which has no backlog.
    pub(crate) fn can_accept(&self, object: ObjectId) -> bool {
        object.idx() < self.sys.m_objects
            && self.pending.len() < self.window
            && !self.pending.contains_key(&object)
    }

    /// The in-flight operations at this node, by object:
    /// `(object, kind, tag, blocked)`.
    pub(crate) fn pending_brief(&self) -> Vec<(ObjectId, OpKind, OpTag, bool)> {
        let mut ops: Vec<_> = self
            .pending
            .iter()
            .map(|(&object, p)| (object, p.op, p.tag, p.blocked))
            .collect();
        ops.sort_unstable_by_key(|&(object, ..)| object);
        ops
    }
}

/// The runtime's [`Driver`]: legs go to the transport endpoint, and a
/// send that finds its peer dead degrades the step instead of failing it.
struct NodeLink<'a> {
    endpoint: &'a dyn Endpoint,
    cost: &'a AtomicU64,
    messages: &'a AtomicU64,
    clock: &'a VersionClock,
    /// The cluster's dead set (see [`DeadSet`]): a send that finds its
    /// peer dead marks it.
    dead: &'a DeadSet,
    /// The node's count of envelopes a link accepted (`NodeCtx::sent`).
    sent: &'a mut u64,
    shards: ShardMap,
    /// Whether broadcast waves skip foreign shard nodes
    /// ([`ShardMap::prunes`]).
    prune: bool,
    /// The stepped object's home shard.
    home: NodeId,
    /// Whether an operation of this node is in flight on the object.
    has_op: bool,
    /// That operation's write data, stamped on first materialisation.
    own: Option<&'a mut Payload>,
    /// First unrecoverable condition hit during this step, if any.
    error: Option<String>,
    /// The one peer this step's own operation needed, found dead: the
    /// step must degrade (fail the pending operation, keep the protocol
    /// state) instead of poisoning the cluster.
    dead_dest: Option<NodeId>,
    /// Whether a send of this step (broadcast legs included) found its
    /// peer dead: the node then sweeps its blocked operations, whoever
    /// raised the flag first.
    buried: bool,
}

impl Driver for NodeLink<'_> {
    type Data = Payload;
    type Stamp = (u64, NodeId);

    fn stamp(data: &Payload) -> (u64, NodeId) {
        data.stamp()
    }

    /// Versions are stamped *here*, at the first materialization of the
    /// parameters (i.e. when the write is applied or shipped), from the
    /// version clock. Stamping at request time instead would let the
    /// version order disagree with the protocol's serialization order
    /// (a later-granted write could carry an earlier stamp), and the
    /// last-writer-wins merge in `change`/`install` would then discard
    /// the write the sequencing point committed last.
    fn own_params(&mut self) -> Option<Payload> {
        let p = self.own.as_deref_mut()?;
        if p.version == 0 {
            p.version = self.clock.next();
        }
        Some(p.clone())
    }

    /// Meter the leg, send it, and fold a dead peer into the step's
    /// degradation state. Only a `Dest::To` send can take the
    /// initiator's own pending operation down with it; a lost broadcast
    /// leg is degraded service, not a failure.
    ///
    /// Client-driven sharded clusters prune foreign shard nodes from
    /// broadcast waves: their replicas start INVALID, nothing ever reads
    /// them, so an invalidation or update to them is pure wire cost (the
    /// sharded-W=1 regression). Quorum is exempt — every replica votes.
    fn send(&mut self, leg: Leg<'_, Payload>) -> Result<(), String> {
        if !leg.single && self.prune && leg.to != self.home && self.shards.is_shard(leg.to) {
            return Ok(());
        }
        if leg.remote() {
            self.cost.fetch_add(leg.cost, Ordering::Relaxed);
            self.messages.fetch_add(1, Ordering::Relaxed);
        }
        let env = Envelope {
            msg: leg.msg,
            params: leg.params.cloned(),
            copy: leg.copy.cloned(),
            clock: self.clock.now(),
        };
        match self.endpoint.send(leg.to, &env) {
            Ok(()) => *self.sent += 1,
            Err(NetError::Down(gone)) => {
                // The peer is gone or — `Down(me)` from a fault layer —
                // this node is. Bury whichever the transport named. If
                // this step is my own operation talking to the one peer
                // it needs, that operation must fail; a broadcast or
                // relayed message to a dead peer is simply dropped.
                self.dead.mark(gone);
                self.buried = true;
                let mine = leg.msg.initiator == leg.msg.sender;
                if leg.single && mine && self.has_op && self.dead_dest.is_none() {
                    self.dead_dest = Some(gone);
                }
            }
            // This endpoint has closed: the node is shutting down.
            Err(NetError::Closed(_)) => {}
            Err(e) => return Err(format!("send {:?} to {} failed: {e}", leg.msg.kind, leg.to)),
        }
        Ok(())
    }

    fn fail(&mut self, reason: String) {
        if self.error.is_none() {
            self.error = Some(reason);
        }
    }
}

impl NodeCtx {
    /// Run one machine step and answer the operation it completes, if
    /// any; `Err` is the reason this node must poison the cluster.
    fn step(&mut self, env: &Envelope) -> Result<(), String> {
        let proto = protocol(self.kind);
        let object = env.msg.object;
        let Some(entry) = self.table.entry(object) else {
            return Err(format!(
                "message for out-of-range {object} (cluster has {} objects)",
                self.sys.m_objects
            ));
        };
        let (value, dead, buried) = {
            // Held across the whole step, sends included: handles must
            // see the post-step replica before anything the step emits
            // can be observed (see the table module).
            let mut replica = entry.lock();
            let r = &mut *replica;
            let home = self.shards.home_of(object);
            let mut pending = self.pending.get_mut(&object);
            let (op, round, own) = match pending.as_deref_mut() {
                Some(p) => (Some(p.op), Some(&mut p.round), p.data.as_mut()),
                None => (None, None, None),
            };
            let mut host = Host {
                driver: NodeLink {
                    endpoint: self.endpoint.as_ref(),
                    cost: &self.cost,
                    messages: &self.messages,
                    clock: &self.clock,
                    dead: &self.dead,
                    sent: &mut self.sent,
                    shards: self.shards,
                    prune: self.shards.prunes(self.kind),
                    home,
                    has_op: op.is_some(),
                    own,
                    error: None,
                    dead_dest: None,
                    buried: false,
                },
                sys: &self.sys,
                me: self.me,
                // Per-object home: the sequencer shard this step's object
                // hashes to. With one shard this is the paper's node N.
                home,
                n_nodes: self.shards.n_nodes(),
                msg: &env.msg,
                params: env.params.as_ref(),
                carried: env.copy.as_ref(),
                copy: &mut r.copy,
                owner: &mut r.owner,
                epoch: &mut r.owner_epoch,
                pending: op,
                round,
                flags: StepFlags::default(),
            };
            let next = proto.step(&mut host, r.state, &env.msg);
            let Host { driver, flags, .. } = host;
            if let Some(reason) = driver.error {
                return Err(reason);
            }
            let (dead, buried) = (driver.dead_dest, driver.buried);
            // Whether this step completed the object's in-flight
            // operation: the step belongs to it, and its read returned
            // or its write is no longer (or never was) blocked.
            let completed = pending.is_some_and(|p| {
                p.blocked |= flags.disabled;
                p.tag == env.msg.op
                    && match p.op {
                        OpKind::Read => flags.rets > 0,
                        OpKind::Write => flags.enabled || !p.blocked,
                    }
            });
            // Degraded completion (`dead` set) does *not* advance the
            // machine — the request never left, so the replica stays in
            // its pre-request state and later operations start clean.
            if dead.is_none() {
                replica.state = next;
            }
            // The operation is retired under the lock of the step that
            // completes it, before its ticket is answered (after the turn).
            let value = (completed && dead.is_none()).then(|| replica.retire());
            (value, dead, buried)
        };
        if let Some(value) = value {
            if let Some(p) = self.pending.remove(&object) {
                self.answers.0.push((p.reply, Ok(value)));
            }
        }
        if let Some(peer) = dead {
            // The one peer this step's operation needed is gone: fail
            // that operation with `NodeDown`.
            self.fail_op(object, ClusterError::NodeDown(peer));
        }
        // Sweep on this step's own finding, not on having raised the
        // shared flag first: the second node to run into a death still
        // has operations of its own blocked on it.
        if buried {
            self.sweep_unreachable();
        }
        Ok(())
    }

    /// Fail the in-flight operation on `object` with `err`: drop it
    /// from the in-flight map, retire it in the table, and only then
    /// queue its ticket's answer.
    fn fail_op(&mut self, object: ObjectId, err: ClusterError) {
        let Some(p) = self.pending.remove(&object) else {
            return;
        };
        self.table.retire(object);
        self.answers.0.push((p.reply, Err(err)));
    }

    /// Fail every in-flight operation whose service node is already
    /// known dead, instead of leaving it to wait out the shutdown
    /// deadline. For sequencer protocols the service node is the owner
    /// register (migrating sequencer) or the object's home shard;
    /// quorum operations fail only once the votes already counted plus
    /// the live peers that have not voted yet can no longer reach a
    /// majority — a conservative test that never fails a round that
    /// could still commit (counted votes stay counted, and every
    /// unanswered live peer is presumed to vote).
    fn sweep_unreachable(&mut self) {
        let quorum = self.kind == ProtocolKind::Quorum;
        let migrating = self.kind.migrating_sequencer();
        let mut doomed = Vec::new();
        for (&object, p) in &self.pending {
            let Some(entry) = self.table.entry(object) else {
                continue;
            };
            let mut replica = entry.lock();
            if quorum {
                // Peers that could still contribute a fresh vote: alive
                // and not already counted this round.
                let potential = (0..self.sys.n_nodes() as u16)
                    .map(NodeId)
                    .filter(|&n| {
                        n != self.me && !self.dead.is_down(n) && !p.round.voted.contains(&n)
                    })
                    .count();
                let shortfall =
                    matches!(replica.state, CopyState::Querying | CopyState::Committing)
                        && p.round.votes + potential < p.round.need;
                if let Some(peer) = self.dead.first().filter(|_| shortfall) {
                    // Abort the round: the object returns to VALID with
                    // the (unchanged) local copy, ready for later
                    // operations.
                    replica.state = CopyState::Valid;
                    doomed.push((object, peer));
                }
            } else {
                let service = if migrating {
                    replica.owner
                } else {
                    self.shards.home_of(object)
                };
                if service != self.me && self.dead.is_down(service) {
                    doomed.push((object, service));
                }
            }
        }
        for (object, peer) in doomed {
            if let Some(p) = self.pending.get(&object) {
                self.abandoned.insert(p.tag);
            }
            self.fail_op(object, ClusterError::NodeDown(peer));
        }
    }

    pub(crate) fn handle_env(&mut self, env: Envelope) -> Result<(), String> {
        self.clock.observe(env.clock);
        if let Some(p) = &env.params {
            self.clock.observe(p.version);
        }
        if let Some(c) = &env.copy {
            self.clock.observe(c.version);
        }
        if env.msg.initiator == self.me && self.abandoned.contains(&env.msg.op) {
            // A straggling answer to an operation the sweep already
            // failed: the caller has its `NodeDown`, and a grant with no
            // operation to apply would be a protocol error. Treat it as
            // lost with the peer.
            return Ok(());
        }
        self.step(&env)
    }

    /// Why `req` must not be started at this node, if it must not: each
    /// reason poisons the cluster. Checked while the caller can still be
    /// answered (the request is backlogged, or its issuer is at hand) —
    /// a reply channel dropped on the way to the poison would let
    /// `Ticket::wait` see a disconnect before the poison is set.
    pub(crate) fn refusal(&self, req: &AppReq) -> Option<String> {
        if req.object.idx() >= self.sys.m_objects {
            return Some(format!(
                "operation on out-of-range {} (cluster has {} objects)",
                req.object, self.sys.m_objects
            ));
        }
        if self.pending.contains_key(&req.object) {
            return Some(format!(
                "{}: second operation on {} started while one is in flight",
                self.me, req.object
            ));
        }
        let is_home = self.me == self.shards.home_of(req.object);
        if !is_home && self.shards.prunes(self.kind) && self.shards.is_shard(self.me) {
            // The client-driven promise was broken: this shard's replica
            // of the foreign object was pruned from every wave, so
            // serving the operation here could return stale data. Fail
            // loudly instead.
            return Some(format!(
                "{}: operation on foreign {} at a sequencer shard violates \
                 the client-driven promise (ShardConfig::exclusive)",
                self.me, req.object
            ));
        }
        None
    }

    /// Start an application operation that passed [`NodeCtx::refusal`]
    /// and entered through [`ReplicaTable::admit`] (so it is counted as
    /// queued on its object until the step that completes it, or
    /// [`NodeCtx::fail_op`], retires it).
    pub(crate) fn handle_app(&mut self, req: AppReq, tag: OpTag) -> Result<(), String> {
        let is_home = self.me == self.shards.home_of(req.object);
        let kind = match req.op {
            OpKind::Read => MsgKind::RReq,
            OpKind::Write => MsgKind::WReq,
        };
        let msg = Msg::app_request(kind, self.me, is_home, req.object, tag);
        // Version 0 is the "unstamped" placeholder; the real version is
        // assigned by `NodeLink::own_params` when the write first
        // materializes.
        let data = req.data.map(|d| Payload {
            data: d,
            version: 0,
            writer: self.me,
        });
        self.pending.insert(
            req.object,
            PendingApp {
                op: req.op,
                tag,
                data,
                reply: req.reply,
                blocked: false,
                round: Round::default(),
            },
        );
        let env = Envelope {
            msg,
            params: None,
            copy: None,
            clock: self.clock.now(),
        };
        self.step(&env)
    }

    /// Start the first backlogged operation that can run now: the node
    /// has a free window slot, no operation is in flight on its object,
    /// and no *earlier* backlog entry targets the same object (per-object
    /// program order). Returns whether an operation was started.
    fn start_from_backlog(&mut self) -> Result<bool, String> {
        if self.pending.len() >= self.window {
            return Ok(false);
        }
        let mut pick = None;
        for (i, (req, _)) in self.backlog.iter().enumerate() {
            let object_free = !self.pending.contains_key(&req.object)
                && !self
                    .backlog
                    .iter()
                    .take(i)
                    .any(|(earlier, _)| earlier.object == req.object);
            if object_free {
                pick = Some(i);
                break;
            }
        }
        let Some(i) = pick else {
            return Ok(false);
        };
        // Refused while still backlogged: `fail_all` answers it.
        if let Some(reason) = self.refusal(&self.backlog[i].0) {
            return Err(reason);
        }
        let Some((req, tag)) = self.backlog.remove(i) else {
            return Ok(false);
        };
        self.handle_app(req, tag)?;
        Ok(true)
    }

    /// Push buffered outbound frames onto the wire (no-op for
    /// non-batching endpoints). A closed link during shutdown is
    /// routine; anything else poisons the cluster.
    fn flush_outbound(&mut self) -> Result<(), String> {
        match self.endpoint.flush() {
            Ok(()) | Err(NetError::Closed(_)) => Ok(()),
            Err(e) => Err(format!("outbound flush failed: {e}")),
        }
    }

    /// Fail every in-flight and backlogged caller with `err`.
    fn fail_all(&mut self, err: &ClusterError) {
        for (_, p) in self.pending.drain() {
            let _ = p.reply.send(Err(err.clone()));
        }
        for (req, _) in self.backlog.drain(..) {
            let _ = req.reply.send(Err(err.clone()));
        }
    }

    /// One turn: take up `first`, then every item on `inbox` (given only
    /// on the node's own thread), and once nothing is left to take up
    /// start what the backlog can start, flush, and answer the waiting
    /// probes. `accepted` is the cell's count of envelopes handed to the
    /// node (see [`NodeCell`]). `Ok(false)`: the node stops; `Err`: it
    /// poisons the cluster.
    fn turn(
        &mut self,
        first: Wire,
        inbox: Option<&Receiver<Wire>>,
        accepted: &AtomicU64,
    ) -> Result<bool, String> {
        if let Some(reason) = self.broken.take() {
            // Keep a request that came in behind the failure: it is
            // answered with the poison like the rest of the backlog.
            if let Wire::Local(req, tag) = first {
                self.backlog.push_back((req, tag));
            }
            return Err(reason);
        }
        let mut next = Some(first);
        loop {
            let wire = match next
                .take()
                .map(Ok)
                .or_else(|| inbox.map(Receiver::try_recv))
            {
                Some(Ok(wire)) => wire,
                Some(Err(TryRecvError::Disconnected)) => return Ok(false),
                Some(Err(TryRecvError::Empty)) | None => {
                    // Distributed messages take priority (global
                    // sequencing): a local request starts only when no
                    // envelope handed to this node waits on its inbox.
                    // Start backlogged local requests while window slots
                    // are free, preserving per-object program order.
                    if accepted.load(Ordering::Relaxed) == self.handled
                        && self.start_from_backlog()?
                    {
                        continue;
                    }
                    // Everything this turn produced must be on the wire
                    // before the lock is let go, or a batching endpoint
                    // would deadlock the cluster (every node waiting on
                    // a neighbour's buffered frame).
                    self.flush_outbound()?;
                    // The idle point: inbox drained, nothing startable,
                    // all sends made and counted. Only here is a probe
                    // answered — a node parked inside a step (a send
                    // stalled by a delay burst) stays silent until the
                    // step is over.
                    for probe in self.probes.drain(..) {
                        let _ = probe.send((self.me, self.sent, self.handled));
                    }
                    return Ok(true);
                }
            };
            match wire {
                Wire::Net(env) => {
                    self.handled += 1;
                    // A node re-queuing its own request (a sequencer's
                    // RETRY to itself) keeps its inbox non-empty and
                    // never reaches the idle flush above, so the peer
                    // whose answer it waits for would never see what it
                    // sent that peer.
                    if env.msg.sender == self.me {
                        self.flush_outbound()?;
                    }
                    self.handle_env(env)?;
                }
                Wire::Local(req, tag) => self.backlog.push_back((req, tag)),
                Wire::Probe(reply) => self.probes.push(reply),
                Wire::Stop => return Ok(false),
            }
        }
    }
}

thread_local! {
    /// Whether this thread is running a node's turn. A delivery made
    /// from inside a turn (an in-process send, a self-send) is queued:
    /// a thread holds at most one node's turn.
    static IN_TURN: Cell<bool> = const { Cell::new(false) };
}

/// Run `turn` with this thread marked as inside a turn.
fn in_turn<R>(turn: impl FnOnce() -> R) -> R {
    IN_TURN.set(true);
    let out = turn();
    IN_TURN.set(false);
    out
}

/// One node as its thread and its deliver sink share it: the node's
/// state behind its turn lock, and the sender half of its inbox.
///
/// Per-link FIFO holds because an envelope runs inline only when every
/// envelope handed to the node before it has been taken up by a turn
/// (`accepted == handled`, read under the lock): a transport calls the
/// sink of one link in order, so an earlier envelope of the link was
/// either handled inline already or is still counted as queued.
///
/// `ctx` owns the endpoint, whose transport owns the sink, which holds
/// this cell: the node's thread takes `ctx` out when it stops, which
/// breaks that cycle.
pub(crate) struct NodeCell {
    /// The node's state; whoever runs a turn holds the lock. `None`
    /// until the node's thread starts and after it stops.
    ctx: Mutex<Option<NodeCtx>>,
    /// Envelopes handed to the node's deliver sink so far.
    accepted: AtomicU64,
    inbox: Sender<Wire>,
}

impl NodeCell {
    /// A cell for a node whose inbox `inbox` feeds.
    pub fn new(inbox: Sender<Wire>) -> NodeCell {
        NodeCell {
            ctx: Mutex::new(None),
            accepted: AtomicU64::new(0),
            inbox,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Option<NodeCtx>> {
        self.ctx.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The node's deliver sink. A caller that holds no turn and finds
    /// the node idle (its lock free, running, nothing queued ahead of
    /// this envelope) runs the node's turn on the envelope itself;
    /// otherwise the envelope is queued on the inbox, which wakes the
    /// node's thread. A stopped node, or one whose cluster is poisoned,
    /// runs no turn here.
    pub fn deliver(&self, env: Envelope) {
        if !IN_TURN.get() {
            if let Ok(mut slot) = self.ctx.try_lock() {
                let idle = slot.as_mut().filter(|ctx| {
                    ctx.broken.is_none()
                        && ctx.poison.get().is_none()
                        && self.accepted.load(Ordering::Relaxed) == ctx.handled
                });
                if let Some(ctx) = idle {
                    self.accepted.fetch_add(1, Ordering::Relaxed);
                    if let Err(reason) = in_turn(|| ctx.turn(Wire::Net(env), None, &self.accepted))
                    {
                        // Only the node's thread tears the node down:
                        // the endpoint's close may wait on this very
                        // thread (the mesh runner).
                        ctx.broken = Some(reason);
                        let _ = self.inbox.send(Wire::Stop);
                    }
                    let answers = std::mem::take(&mut ctx.answers);
                    drop(slot);
                    answers.send();
                    return;
                }
            }
        }
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = self.inbox.send(Wire::Net(env));
    }
}

/// Drive one node until `Stop`, channel disconnect, or an error that
/// poisons the cluster: install `ctx` in `cell`, then run a turn for
/// every item on `inbox`. On return the node's replica table is closed
/// and final, and `cell` is empty, so deliveries only queue; on error,
/// the pending and backlogged callers are failed with the poison reason
/// instead of being left to hang.
///
/// On Linux the calling thread first puts itself under `SCHED_BATCH`
/// ([`repmem_net::epoll::set_batch_scheduling`]): a node whose send
/// wakes a peer's loop then finishes its burst before that loop runs,
/// instead of being preempted once per message, and the woken loop
/// drains its inbox in a batch.
///
/// The endpoint is handed back (not closed) so the caller can publish
/// the final replicas *before* tearing the transport down — endpoint
/// close may join service threads that are themselves waiting on them
/// (the multi-process control plane does exactly that).
pub(crate) fn node_loop(cell: &NodeCell, ctx: NodeCtx, inbox: Receiver<Wire>) -> Box<dyn Endpoint> {
    #[cfg(target_os = "linux")]
    repmem_net::epoll::set_batch_scheduling();
    *cell.lock() = Some(ctx);
    let (ctx, stopped) = loop {
        let wire = inbox.recv();
        let mut slot = cell.lock();
        let turn = match (wire, slot.as_mut()) {
            (Ok(wire), Some(ctx)) => in_turn(|| ctx.turn(wire, Some(&inbox), &cell.accepted)),
            _ => Ok(false),
        };
        if turn != Ok(true) {
            // Taken out under the lock of the last turn: no deliverer
            // runs a turn of a node that has stopped.
            break (slot.take(), turn.map(drop));
        }
        let answers = slot.as_mut().map(|ctx| std::mem::take(&mut ctx.answers));
        drop(slot);
        answers.unwrap_or_default().send();
    };
    let mut ctx = ctx.expect("only the node's own thread takes its state out");
    // Nobody retires operations or applies invalidations from here on:
    // handles must stop reading the table before any caller is failed.
    ctx.table.close();
    // What the last turn decided is answered before the rest is failed.
    std::mem::take(&mut ctx.answers).send();
    match stopped {
        Err(reason) => {
            let err = ClusterError::Poisoned {
                node: ctx.me,
                reason,
            };
            ctx.poison.set(err.clone());
            ctx.fail_all(&err);
            // Fail late arrivals that were already queued behind the error.
            while let Ok(wire) = inbox.try_recv() {
                if let Wire::Local(req, _) = wire {
                    let _ = req.reply.send(Err(err.clone()));
                }
            }
        }
        Ok(()) => {
            // Clean stop with operations still outstanding (a response
            // that will never come, a backlog never started): fail the
            // callers explicitly with the cluster's own error — never
            // drop a reply channel and leave `Ticket::wait` to guess
            // from a disconnect.
            if !ctx.pending.is_empty() || !ctx.backlog.is_empty() {
                let err = ctx.poison.get().unwrap_or(ClusterError::NodeDown(ctx.me));
                ctx.fail_all(&err);
            }
        }
    }
    // Push out anything still buffered (batching endpoints) so peers
    // aren't left waiting on messages this node already "sent".
    let _ = ctx.endpoint.flush();
    ctx.endpoint
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::{PayloadKind, QueueKind};
    use repmem_net::{InProcTransport, Transport};
    use std::sync::mpsc::channel;

    /// What node 1's sink has been handed, in order.
    type Arrivals = Arc<Mutex<Vec<Envelope>>>;

    /// Node 0 of a two-node Quorum cluster over the in-process
    /// transport, its state not yet installed in its cell; node 1's sink
    /// records what node 0 sends it.
    fn quorum_node() -> (Arc<NodeCell>, NodeCtx, Receiver<Wire>, Arrivals) {
        let sys = SystemParams {
            n_clients: 1,
            s: 4,
            p: 2,
            m_objects: 2,
        };
        let cfg = ShardConfig::default();
        let mut transport = InProcTransport::new(sys.n_nodes());
        let (tx, rx) = channel();
        let cell = Arc::new(NodeCell::new(tx));
        let sink = Arc::clone(&cell);
        let endpoint = transport
            .bind(NodeId(0), Box::new(move |env| sink.deliver(env)))
            .unwrap();
        let peer = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&peer);
        transport
            .bind(
                NodeId(1),
                Box::new(move |env| seen.lock().unwrap().push(env)),
            )
            .unwrap();
        let ctx = NodeCtx::new(
            Arc::new(ReplicaTable::new(NodeId(0), sys, ProtocolKind::Quorum, cfg)),
            sys,
            cfg,
            endpoint,
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicU64::new(0)),
            VersionClock::Shared(Arc::new(AtomicU64::new(0))),
            Arc::new(Poison::default()),
            Arc::new(DeadSet::new(sys.n_nodes())),
        );
        (cell, ctx, rx, peer)
    }

    /// Node 1's probe for operation `op` on `object`: node 0 answers it
    /// with one vote.
    fn probe(object: u32, op: u64) -> Envelope {
        Envelope {
            msg: Msg {
                kind: MsgKind::QProbe,
                initiator: NodeId(1),
                sender: NodeId(1),
                object: ObjectId(object),
                queue: QueueKind::Distributed,
                payload: PayloadKind::Token,
                op: OpTag(op),
                epoch: 0,
            },
            params: None,
            copy: None,
            clock: 0,
        }
    }

    /// The operations node 1 has been sent votes for, in order.
    fn votes(peer: &Mutex<Vec<Envelope>>) -> Vec<u64> {
        let peer = peer.lock().unwrap();
        assert!(peer.iter().all(|env| env.msg.kind == MsgKind::QVote));
        peer.iter().map(|env| env.msg.op.0).collect()
    }

    /// The operations of the probes queued on the inbox, in order.
    fn queued(rx: &Receiver<Wire>) -> Vec<u64> {
        rx.try_iter()
            .map(|wire| match wire {
                Wire::Net(env) => env.msg.op.0,
                _ => panic!("only envelopes were delivered"),
            })
            .collect()
    }

    #[test]
    fn a_delivery_behind_a_queued_one_queues_too() {
        let (cell, ctx, rx, peer) = quorum_node();
        *cell.lock() = Some(ctx);
        // The node is busy: the first probe queues.
        let busy = cell.lock();
        cell.deliver(probe(0, 1));
        drop(busy);
        // The node is idle now, but the first probe has not been taken
        // up: the second must not overtake it.
        cell.deliver(probe(0, 2));
        assert_eq!(votes(&peer), [] as [u64; 0]);
        // The node's thread takes both up in one turn, in link order.
        let first = rx.recv().unwrap();
        let mut slot = cell.lock();
        let ctx = slot.as_mut().unwrap();
        assert_eq!(
            in_turn(|| ctx.turn(first, Some(&rx), &cell.accepted)),
            Ok(true)
        );
        assert_eq!((ctx.handled, cell.accepted.load(Ordering::Relaxed)), (2, 2));
        drop(slot);
        assert_eq!(votes(&peer), [1, 2]);
        // Nothing is queued any more: the deliverer runs the turn.
        cell.deliver(probe(0, 3));
        assert_eq!(votes(&peer), [1, 2, 3]);
        assert_eq!(queued(&rx), [] as [u64; 0]);
        // From inside a turn, even an idle node's delivery queues.
        in_turn(|| cell.deliver(probe(1, 4)));
        assert_eq!(votes(&peer), [1, 2, 3]);
        assert_eq!(queued(&rx), [4]);
    }

    #[test]
    fn a_stopped_broken_or_poisoned_node_runs_no_turn_for_a_deliverer() {
        // Not started yet (or stopped): the cell holds no state.
        let (cell, _, rx, peer) = quorum_node();
        cell.deliver(probe(0, 1));
        assert_eq!(queued(&rx), [1]);
        assert_eq!(votes(&peer), [] as [u64; 0]);

        // A turn run by the deliverer fails: the node's thread is woken
        // to poison the cluster, and no deliverer runs another turn.
        let (cell, ctx, rx, peer) = quorum_node();
        *cell.lock() = Some(ctx);
        cell.deliver(probe(7, 2));
        assert!(matches!(rx.try_recv(), Ok(Wire::Stop)));
        cell.deliver(probe(0, 3));
        assert_eq!(queued(&rx), [3]);
        assert_eq!(votes(&peer), [] as [u64; 0]);
        let reason = cell.lock().as_ref().unwrap().broken.clone().unwrap();
        assert!(reason.contains("out-of-range"), "{reason}");

        // Another node poisoned the cluster.
        let (cell, ctx, rx, peer) = quorum_node();
        ctx.poison.set(ClusterError::NodeDown(NodeId(1)));
        *cell.lock() = Some(ctx);
        cell.deliver(probe(0, 4));
        assert_eq!(queued(&rx), [4]);
        assert_eq!(votes(&peer), [] as [u64; 0]);
    }

    #[test]
    fn dead_set_is_monotone_and_names_its_lowest_member() {
        let dead = DeadSet::new(4);
        assert_eq!(dead.first(), None);
        assert!((0..4).all(|n| !dead.is_down(NodeId(n))));
        dead.mark(NodeId(3));
        dead.mark(NodeId(1));
        dead.mark(NodeId(3));
        assert!(dead.is_down(NodeId(1)) && dead.is_down(NodeId(3)));
        assert!(!dead.is_down(NodeId(0)) && !dead.is_down(NodeId(2)));
        assert_eq!(dead.first(), Some(NodeId(1)));
        // A node the cluster does not have is neither marked nor dead.
        dead.mark(NodeId(9));
        assert!(!dead.is_down(NodeId(9)));
        assert_eq!(dead.first(), Some(NodeId(1)));
    }
}
