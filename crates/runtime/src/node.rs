//! The node loop: one protocol process pumping envelopes from a
//! transport endpoint and operations from its local application queue.
//!
//! This module is transport-agnostic and shared by the two cluster
//! shapes: [`crate::Cluster`] (all nodes as threads of one process, any
//! [`Transport`] backend) and [`crate::remote`] (one node per OS process
//! over the TCP mesh).
//!
//! [`Transport`]: repmem_net::Transport

use crate::shard::{ShardConfig, ShardMap};
use crate::table::{Replica, ReplicaTable};
use bytes::Bytes;
use repmem_core::{
    Actions, CopyState, Dest, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag, PayloadKind,
    ProtocolKind, QueueKind, SystemParams, VoteAgreement,
};
use repmem_net::{Endpoint, Envelope, NetError, Payload};
use repmem_protocols::protocol;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};

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
/// [`NodeHost::context_params`]); the two variants realize that with and
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
    /// Quorum round bookkeeping: votes counted and votes needed in the
    /// armed phase. The round *is* this operation — stragglers from a
    /// superseded round carry another tag and must not count.
    votes: usize,
    need: usize,
    /// Peers whose vote was counted this phase, so the shortfall sweep
    /// can tell which live peers could still contribute a fresh vote.
    voted: Vec<NodeId>,
    /// Whether this phase's counted votes carried one stamp: the
    /// one-round read's test ([`Actions::quorum_unanimous`]).
    agreement: VoteAgreement<(u64, NodeId)>,
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
    /// Envelopes taken off this node's inbox, counted at dequeue (so a
    /// dropped straggler counts too). With `sent`, this node's half of
    /// the cluster's quiescence test; both are private to its loop.
    handled: u64,
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

struct NodeHost<'a> {
    me: NodeId,
    sys: SystemParams,
    kind: ProtocolKind,
    shards: ShardMap,
    endpoint: &'a dyn Endpoint,
    /// This step's replica, locked for the whole step (the table's
    /// publication invariant).
    proc_: &'a mut Replica,
    /// The in-flight operation *for this step's object*, if any.
    pending: Option<&'a mut PendingApp>,
    env: &'a Envelope,
    cost: &'a AtomicU64,
    messages: &'a AtomicU64,
    clock: &'a VersionClock,
    /// The cluster's dead set (see [`DeadSet`]): a send that finds its
    /// peer dead marks it.
    dead: &'a DeadSet,
    /// The node's count of envelopes a link accepted (`NodeCtx::sent`).
    sent: &'a mut u64,
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
    /// Set when `ret` fires (read completion).
    returned: bool,
    /// Set when `enable_local` fires (blocked-write completion).
    enabled: bool,
}

impl NodeHost<'_> {
    fn fail(&mut self, reason: String) {
        if self.error.is_none() {
            self.error = Some(reason);
        }
    }

    /// Whether this step completed the object's in-flight operation:
    /// the step belongs to it, and its read returned or its write is
    /// no longer (or never was) blocked.
    fn completed(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| {
            p.tag == self.env.msg.op
                && match p.op {
                    OpKind::Read => self.returned,
                    OpKind::Write => self.enabled || !p.blocked,
                }
        })
    }

    /// The write parameters in scope for the current step: either carried
    /// by the envelope or, at the initiator, the pending operation's data.
    ///
    /// Versions are stamped *here*, at the first materialization of the
    /// parameters (i.e. when the write is applied or shipped), from the
    /// version clock. Stamping at request time instead would let the
    /// version order disagree with the protocol's serialization order
    /// (a later-granted write could carry an earlier stamp), and the
    /// last-writer-wins merge in `change`/`install` would then discard
    /// the write the sequencing point committed last.
    fn context_params(&mut self) -> Payload {
        if let Some(p) = &self.env.params {
            return p.clone();
        }
        if self.env.msg.initiator == self.me {
            if let Some(p) = self.pending.as_mut().and_then(|p| p.data.as_mut()) {
                if p.version == 0 {
                    p.version = self.clock.next();
                }
                return p.clone();
            }
        }
        self.fail(format!(
            "no write parameters in scope for {:?} (initiator {}, sender {})",
            self.env.msg.kind, self.env.msg.initiator, self.env.msg.sender
        ));
        Payload::initial()
    }

    /// One receiver's leg of [`Actions::push`]: meter the message, build
    /// the envelope, send it, and fold a failure into the step's
    /// degradation state. `single` marks a `Dest::To` send — only those
    /// can take the initiator's own pending operation down with them; a
    /// lost broadcast leg is degraded service, not a failure.
    fn push_to(
        &mut self,
        r: NodeId,
        single: bool,
        kind: MsgKind,
        payload: PayloadKind,
        params: &Option<Payload>,
        copy: &Option<Payload>,
    ) {
        if r != self.me {
            self.cost
                .fetch_add(self.sys.msg_cost(payload), Ordering::Relaxed);
            self.messages.fetch_add(1, Ordering::Relaxed);
        }
        let msg = Msg {
            kind,
            initiator: self.env.msg.initiator,
            sender: self.me,
            object: self.env.msg.object,
            queue: QueueKind::Distributed,
            payload,
            op: self.env.msg.op,
            epoch: self.proc_.owner_epoch,
        };
        let env = Envelope {
            msg,
            params: params.clone(),
            copy: copy.clone(),
            clock: self.clock.now(),
        };
        match self.endpoint.send(r, &env) {
            Ok(()) => *self.sent += 1,
            Err(NetError::Down(gone)) => {
                // The peer is gone or — `Down(me)` from a fault layer —
                // this node is. Bury whichever the transport named. If
                // this step is my own operation talking to the one peer
                // it needs, that operation must fail; a broadcast or
                // relayed message to a dead peer is simply dropped.
                self.dead.mark(gone);
                self.buried = true;
                if single
                    && self.env.msg.initiator == self.me
                    && self.pending.is_some()
                    && self.dead_dest.is_none()
                {
                    self.dead_dest = Some(gone);
                }
            }
            // This endpoint has closed: the node is shutting down.
            Err(NetError::Closed(_)) => {}
            Err(e) => self.fail(format!("send {kind:?} to {r} failed: {e}")),
        }
    }
}

impl Actions for NodeHost<'_> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn home(&self) -> NodeId {
        // Per-object home: the sequencer shard this step's object hashes
        // to. With one shard this is the paper's fixed node N.
        self.shards.home_of(self.env.msg.object)
    }
    fn n_nodes(&self) -> usize {
        self.shards.n_nodes()
    }
    fn owner(&self) -> NodeId {
        self.proc_.owner
    }
    fn set_owner(&mut self, owner: NodeId) {
        self.proc_.owner = owner;
    }
    fn owner_epoch(&self) -> u64 {
        self.proc_.owner_epoch
    }
    fn set_owner_epoch(&mut self, epoch: u64) {
        self.proc_.owner_epoch = epoch;
    }
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind) {
        let params = match payload {
            PayloadKind::Params => Some(self.context_params()),
            _ => None,
        };
        let copy = match payload {
            PayloadKind::Copy => Some(self.proc_.copy.clone()),
            _ => None,
        };
        if self.error.is_some() {
            return;
        }
        match dest {
            Dest::To(r) => self.push_to(r, true, kind, payload, &params, &copy),
            Dest::AllExcept(a, b) => {
                // Client-driven sharded clusters prune foreign shard
                // nodes from broadcast waves: their replicas start
                // INVALID, nothing ever reads them, so an invalidation
                // or update to them is pure wire cost (the sharded-W=1
                // regression). Quorum is exempt — every replica votes.
                let prune = self.shards.prunes(self.kind);
                let home = self.shards.home_of(self.env.msg.object);
                for i in 0..self.shards.n_nodes() as u16 {
                    let r = NodeId(i);
                    if r == a || Some(r) == b {
                        continue;
                    }
                    if prune && r != home && self.shards.is_shard(r) {
                        continue;
                    }
                    self.push_to(r, false, kind, payload, &params, &copy);
                }
            }
        }
    }
    fn change(&mut self) {
        let p = self.context_params();
        if self.error.is_some() {
            return;
        }
        if p.stamp() >= self.proc_.copy.stamp() {
            self.proc_.copy = p;
        }
    }
    fn install(&mut self) {
        let Some(incoming) = self.env.copy.clone() else {
            self.fail(format!(
                "install without copy payload on {:?} from {}",
                self.env.msg.kind, self.env.msg.sender
            ));
            return;
        };
        if incoming.stamp() >= self.proc_.copy.stamp() {
            self.proc_.copy = incoming;
        }
    }
    fn ret(&mut self) {
        self.returned = true;
    }
    fn disable_local(&mut self) {
        if let Some(p) = self.pending.as_mut() {
            p.blocked = true;
        }
    }
    fn enable_local(&mut self) {
        self.enabled = true;
    }
    fn pending_op(&self) -> Option<OpKind> {
        self.pending.as_ref().map(|p| p.op)
    }
    fn quorum_arm(&mut self, need: usize) {
        if let Some(p) = self.pending.as_mut() {
            debug_assert_eq!(
                p.tag, self.env.msg.op,
                "a round is armed by its own operation"
            );
            p.need = need;
            p.votes = 0;
            p.voted.clear();
            p.agreement = VoteAgreement::default();
        }
    }
    fn quorum_vote(&mut self) -> bool {
        let Some(p) = self.pending.as_mut() else {
            return false;
        };
        if self.env.msg.op != p.tag {
            return false; // straggler from a superseded round
        }
        p.votes += 1;
        p.voted.push(self.env.msg.sender);
        if let Some(copy) = &self.env.copy {
            p.agreement.count(copy.stamp());
        }
        p.votes == p.need
    }
    fn quorum_unanimous(&self) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.agreement.unanimous_at(&self.proc_.copy.stamp()))
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
            let state = replica.state;
            let mut host = NodeHost {
                me: self.me,
                sys: self.sys,
                kind: self.kind,
                shards: self.shards,
                endpoint: self.endpoint.as_ref(),
                proc_: &mut replica,
                pending: self.pending.get_mut(&object),
                env,
                cost: &self.cost,
                messages: &self.messages,
                clock: &self.clock,
                dead: &self.dead,
                sent: &mut self.sent,
                error: None,
                dead_dest: None,
                buried: false,
                returned: false,
                enabled: false,
            };
            let next = proto.step(&mut host, state, &env.msg);
            let completed = host.completed();
            let (error, dead, buried) = (host.error, host.dead_dest, host.buried);
            if let Some(reason) = error {
                return Err(reason);
            }
            // Degraded completion (`dead` set) does *not* advance the
            // machine — the request never left, so the replica stays in
            // its pre-request state and later operations start clean.
            if dead.is_none() {
                replica.state = next;
            }
            // The operation is retired under the lock of the step that
            // completes it, before its ticket is answered below.
            let value = (completed && dead.is_none()).then(|| replica.retire());
            (value, dead, buried)
        };
        if let Some(value) = value {
            if let Some(p) = self.pending.remove(&object) {
                let _ = p.reply.send(Ok(value));
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
    /// answer its ticket.
    fn fail_op(&mut self, object: ObjectId, err: ClusterError) {
        let Some(p) = self.pending.remove(&object) else {
            return;
        };
        self.table.retire(object);
        let _ = p.reply.send(Err(err));
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
                    .filter(|&n| n != self.me && !self.dead.is_down(n) && !p.voted.contains(&n))
                    .count();
                let shortfall =
                    matches!(replica.state, CopyState::Querying | CopyState::Committing)
                        && p.votes + potential < p.need;
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
        // assigned by `context_params` when the write first materializes.
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
                votes: 0,
                need: 0,
                voted: Vec::new(),
                agreement: VoteAgreement::default(),
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
    fn start_from_backlog(
        &mut self,
        backlog: &mut VecDeque<(AppReq, OpTag)>,
    ) -> Result<bool, String> {
        if self.pending.len() >= self.window {
            return Ok(false);
        }
        let mut pick = None;
        for (i, (req, _)) in backlog.iter().enumerate() {
            let object_free = !self.pending.contains_key(&req.object)
                && !backlog
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
        if let Some(reason) = self.refusal(&backlog[i].0) {
            return Err(reason);
        }
        let Some((req, tag)) = backlog.remove(i) else {
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
    fn fail_all(&mut self, backlog: &mut VecDeque<(AppReq, OpTag)>, err: &ClusterError) {
        for (_, p) in self.pending.drain() {
            let _ = p.reply.send(Err(err.clone()));
        }
        for (req, _) in backlog.drain(..) {
            let _ = req.reply.send(Err(err.clone()));
        }
    }
}

/// Drive one node until `Stop`, channel disconnect, or an error that
/// poisons the cluster. On return the node's replica table is closed
/// and final; on error, the pending and backlogged callers are failed
/// with the poison reason instead of being left to hang.
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
pub(crate) fn node_loop(mut ctx: NodeCtx, rx: Receiver<Wire>) -> Box<dyn Endpoint> {
    #[cfg(target_os = "linux")]
    repmem_net::epoll::set_batch_scheduling();
    let mut backlog: VecDeque<(AppReq, OpTag)> = VecDeque::new();
    let stopped = run_loop(&mut ctx, &rx, &mut backlog);
    // Nobody retires operations or applies invalidations from here on:
    // handles must stop reading the table before any caller is failed.
    ctx.table.close();
    match stopped {
        Err(reason) => {
            let err = ClusterError::Poisoned {
                node: ctx.me,
                reason,
            };
            ctx.poison.set(err.clone());
            ctx.fail_all(&mut backlog, &err);
            // Fail late arrivals that were already queued behind the error.
            while let Ok(wire) = rx.try_recv() {
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
            if !ctx.pending.is_empty() || !backlog.is_empty() {
                let err = ctx.poison.get().unwrap_or(ClusterError::NodeDown(ctx.me));
                ctx.fail_all(&mut backlog, &err);
            }
        }
    }
    // Push out anything still buffered (batching endpoints) so peers
    // aren't left waiting on messages this node already "sent".
    let _ = ctx.endpoint.flush();
    ctx.endpoint
}

fn run_loop(
    ctx: &mut NodeCtx,
    rx: &Receiver<Wire>,
    backlog: &mut VecDeque<(AppReq, OpTag)>,
) -> Result<(), String> {
    // Quiescence probes waiting for this node's next idle point.
    let mut probes: Vec<Sender<Tally>> = Vec::new();
    loop {
        // Distributed messages take priority (global sequencing): drain
        // everything already queued before starting a local request.
        let wire = match rx.try_recv() {
            Ok(wire) => wire,
            Err(TryRecvError::Disconnected) => return Ok(()),
            Err(TryRecvError::Empty) => {
                // Start backlogged local requests while window slots are
                // free, preserving per-object program order.
                if ctx.start_from_backlog(backlog)? {
                    continue;
                }
                // About to block: everything this iteration produced
                // must be on the wire first, or a batching endpoint
                // would deadlock the cluster (every node waiting on a
                // neighbour's buffered frame).
                ctx.flush_outbound()?;
                // The idle point: inbox drained, nothing startable, all
                // sends made and counted. Only here is a probe answered
                // — a node parked inside a step (a send stalled by a
                // delay burst) stays silent until the step is over.
                for probe in probes.drain(..) {
                    let _ = probe.send((ctx.me, ctx.sent, ctx.handled));
                }
                match rx.recv() {
                    Ok(wire) => wire,
                    Err(_) => return Ok(()),
                }
            }
        };
        match wire {
            Wire::Net(env) => {
                ctx.handled += 1;
                // A node re-queuing its own request (a sequencer's RETRY
                // to itself) keeps its inbox non-empty and never reaches
                // the idle flush below, so the peer whose answer it
                // waits for would never see what it sent that peer.
                if env.msg.sender == ctx.me {
                    ctx.flush_outbound()?;
                }
                ctx.handle_env(env)?;
            }
            Wire::Local(req, tag) => backlog.push_back((req, tag)),
            Wire::Probe(reply) => probes.push(reply),
            Wire::Stop => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
