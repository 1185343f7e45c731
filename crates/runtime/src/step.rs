//! Deterministic, step-driven cluster mode: the schedule explorer's view
//! of the runtime, and the discrete-event simulator's (`repmem-sim` runs
//! it under a virtual clock, delivering in global send order).
//!
//! A [`crate::Cluster`] runs one thread per node and lets the OS pick
//! the interleaving. [`StepCluster`] runs the *same* protocol logic —
//! the per-node `NodeCtx` step functions the threaded node loop uses —
//! but on a single thread, over links it owns as plain data
//! ([`repmem_net::SchedLinks`]): a send parks in its link's FIFO queue,
//! and nothing happens until the driver explicitly
//!
//! * [`StepCluster::issue`]s an application operation at a node,
//! * [`StepCluster::deliver`]s the head envelope of a chosen link, which
//!   runs the destination node's step on it there and then, or
//! * [`StepCluster::fault`]s the network (sever/restore/kill).
//!
//! Every step is a plain synchronous call, so a sequence of steps is a
//! *schedule* and replaying it reproduces the execution exactly — no
//! wall clocks, no thread scheduler, no randomness. What a step
//! completes is read off the nodes' answers ([`StepCluster::poll`]); no
//! operation has a channel. The quiescence and state-extraction
//! accessors ([`StepCluster::is_quiescent`], [`StepCluster::replicas`],
//! [`StepCluster::pending_ops`], the link views …) expose everything a
//! model checker needs to fingerprint a state and to judge sequential
//! consistency and replica convergence at the end of a schedule (see
//! the `repmem-check` crate).
//!
//! The state is data the cluster owns — node contexts, replica tables,
//! links, counters — so [`StepCluster::fork`] copies it: the explorer
//! steps a copy of a state instead of replaying the schedule that led
//! there.
//!
//! Fidelity notes:
//!
//! * Version stamps come from the shared cluster-wide counter, exactly
//!   as in the threaded in-process cluster.
//! * A send fails only when a kill took its peer (or its sender), with
//!   the same `Down` the threaded runtime buries a peer on. A sever
//!   fails nothing: the links park the pair's sends until the restore,
//!   a delay that never loses.
//! * A node's self-sends queue on its loopback link and are delivered
//!   when scheduled; delaying them is indistinguishable from the node
//!   being slow, so the explored set is a superset of what one merged
//!   thread inbox can exhibit.

use crate::node::{AppReq, ClusterError, DeadSet, NodeCtx, Poison, ReplicaSnap, VersionClock};
use crate::shard::ShardConfig;
use crate::table::ReplicaTable;
use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, OpKind, OpTag, ProtocolKind, SystemParams};
use repmem_net::{Envelope, SchedAction, SchedEndpoint, SchedLinks};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A single-threaded cluster advanced one explicit step at a time.
pub struct StepCluster {
    sys: SystemParams,
    nodes: Vec<NodeCtx>,
    /// The network; only the nodes' endpoints and this cluster touch it.
    links: Arc<Mutex<SchedLinks>>,
    poison: Arc<Poison>,
    versions: Arc<AtomicU64>,
    cost: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
    dead: Arc<DeadSet>,
}

impl StepCluster {
    /// A step-driven cluster with the paper's topology (`N` clients + 1
    /// home sequencer, one operation in flight per node).
    pub fn new(sys: SystemParams, kind: ProtocolKind) -> StepCluster {
        let cfg = ShardConfig::default();
        let n = cfg.total_nodes(&sys);
        let (links, dead) = (SchedLinks::new(n), DeadSet::new(n));
        let mut c = StepCluster::empty(sys, links, Poison::default(), dead, 0, 0, 0);
        for i in 0..n {
            let me = NodeId(i as u16);
            let endpoint = Box::new(SchedEndpoint::new(me, Arc::clone(&c.links)));
            c.nodes.push(NodeCtx::new(
                Arc::new(ReplicaTable::new(me, sys, kind, cfg)),
                sys,
                cfg,
                endpoint,
                Arc::clone(&c.cost),
                Arc::clone(&c.messages),
                VersionClock::Shared(Arc::clone(&c.versions)),
                Arc::clone(&c.poison),
                Arc::clone(&c.dead),
            ));
        }
        c
    }

    /// A cluster with no nodes over `links` and the given shared parts.
    fn empty(
        sys: SystemParams,
        links: SchedLinks,
        poison: Poison,
        dead: DeadSet,
        versions: u64,
        cost: u64,
        messages: u64,
    ) -> StepCluster {
        StepCluster {
            sys,
            nodes: Vec::new(),
            links: Arc::new(Mutex::new(links)),
            poison: Arc::new(poison),
            versions: Arc::new(AtomicU64::new(versions)),
            cost: Arc::new(AtomicU64::new(cost)),
            messages: Arc::new(AtomicU64::new(messages)),
            dead: Arc::new(dead),
        }
    }

    /// A copy of this cluster that shares no lock, endpoint or counter
    /// with it: stepping either leaves the other as it was, and the copy
    /// runs on exactly as this cluster would.
    pub fn fork(&self) -> StepCluster {
        let links = self.net().clone();
        let mut c = StepCluster::empty(
            self.sys,
            links,
            self.poison.fork(),
            self.dead.fork(),
            self.version_clock(),
            self.total_cost(),
            self.total_messages(),
        );
        for ctx in &self.nodes {
            let endpoint = Box::new(SchedEndpoint::new(ctx.me, Arc::clone(&c.links)));
            c.nodes.push(ctx.fork(
                endpoint,
                Arc::clone(&c.cost),
                Arc::clone(&c.messages),
                VersionClock::Shared(Arc::clone(&c.versions)),
                Arc::clone(&c.poison),
                Arc::clone(&c.dead),
            ));
        }
        c
    }

    /// The links, between steps (no node is sending).
    fn net(&self) -> MutexGuard<'_, SchedLinks> {
        self.links.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// System parameters this cluster runs with.
    pub fn system(&self) -> SystemParams {
        self.sys
    }

    /// Whether `node` is still alive (not scripted dead by a kill).
    pub fn alive(&self, node: NodeId) -> bool {
        self.net().alive(node)
    }

    /// Whether `node` could start an application operation on `object`
    /// right now: the node is alive, has a free window slot, and no
    /// operation is in flight on that object.
    pub fn can_issue(&self, node: NodeId, object: ObjectId) -> bool {
        self.alive(node)
            && self.poison.get().is_none()
            && self
                .nodes
                .get(node.idx())
                .is_some_and(|ctx| ctx.can_accept(object))
    }

    /// Step: start an application operation at `node`. `op_id` is the
    /// caller's completion key — it must be unique for the cluster's
    /// lifetime (it doubles as the protocol-level operation tag) and is
    /// echoed by [`StepCluster::poll`] when the operation completes.
    ///
    /// The operation enters through the same door as a threaded
    /// [`crate::Handle`]'s: a read the node's replica table can serve
    /// (see the `table` module's three clauses) completes on the spot
    /// without running the machine. Otherwise the *request* runs
    /// synchronously (the protocol machine consumes the request token
    /// and typically queues messages on the links); its completion
    /// generally needs later [`StepCluster::deliver`] steps.
    pub fn issue(
        &mut self,
        node: NodeId,
        op: OpKind,
        object: ObjectId,
        data: Option<Bytes>,
        op_id: u64,
    ) -> Result<(), ClusterError> {
        if let Some(e) = self.poison.get() {
            return Err(e);
        }
        if !self.alive(node) {
            return Err(ClusterError::NodeDown(node));
        }
        let ctx = self
            .nodes
            .get_mut(node.idx())
            .ok_or(ClusterError::NodeDown(node))?;
        if !ctx.can_accept(object) {
            return Err(ClusterError::Transport(format!(
                "{node} cannot accept an operation on {object} now"
            )));
        }
        let tag = OpTag(op_id);
        if let Some(value) = ctx.table.admit(op, object) {
            ctx.answers.0.push((tag, None, Ok(value)));
            return Ok(());
        }
        let req = AppReq {
            op,
            object,
            data,
            reply: None,
        };
        let started = match ctx.refusal(&req) {
            Some(reason) => Err(reason),
            None => ctx.handle_app(req, tag),
        };
        self.poison_on(node, started)
    }

    /// Step: deliver the head envelope of link `(from, to)` and run the
    /// destination's protocol machine on it. Returns `false` when the
    /// link had nothing deliverable (empty queue or dead destination) —
    /// a no-op, not an error.
    pub fn deliver(&mut self, from: NodeId, to: NodeId) -> Result<bool, ClusterError> {
        if let Some(e) = self.poison.get() {
            return Err(e);
        }
        let Some(env) = self.net().deliver(from, to) else {
            return Ok(false);
        };
        let handled = self.nodes[to.idx()].handle_env(env);
        self.poison_on(to, handled)?;
        Ok(true)
    }

    /// Poison the cluster when `node`'s step failed.
    fn poison_on(&mut self, node: NodeId, step: Result<(), String>) -> Result<(), ClusterError> {
        step.map_err(|reason| {
            let err = ClusterError::Poisoned { node, reason };
            self.poison.set(err.clone());
            err
        })
    }

    /// Step: apply a fault action to the links (see
    /// [`repmem_net::sched`] for scheduler-mode fault semantics).
    pub fn fault(&mut self, action: SchedAction) {
        self.net().apply(action);
    }

    /// Drain completed operations: `(op_id, result)` for every
    /// operation that has finished since the last poll, by node. A
    /// degraded operation (its one needed peer was killed) reports
    /// [`ClusterError::NodeDown`]; operations at a killed node simply
    /// never complete.
    pub fn poll(&mut self) -> Vec<(u64, Result<Bytes, ClusterError>)> {
        let answers = self
            .nodes
            .iter_mut()
            .flat_map(|ctx| ctx.answers.0.drain(..));
        answers.map(|(tag, _, result)| (tag.0, result)).collect()
    }

    /// Links with a deliverable head envelope, sorted by `(from, to)`.
    pub fn links_ready(&self) -> Vec<(NodeId, NodeId)> {
        self.net().links_ready()
    }

    /// No envelope is on the wire or parked on a severed link: the
    /// network can cause no further state change.
    pub fn is_quiescent(&self) -> bool {
        self.net().is_quiet()
    }

    /// Mutation hook: lose the head envelope of `(from, to)` (see
    /// [`SchedLinks::drop_head`]).
    pub fn drop_head(&mut self, from: NodeId, to: NodeId) -> bool {
        self.net().drop_head(from, to)
    }

    /// Mutation hook: move the head envelope of `(from, to)` to the back
    /// (see [`SchedLinks::rotate`]).
    pub fn rotate(&mut self, from: NodeId, to: NodeId) -> bool {
        self.net().rotate(from, to)
    }

    /// The envelopes queued on `(from, to)`, head first.
    pub fn queued(&self, from: NodeId, to: NodeId) -> Vec<Envelope> {
        self.net().queued(from, to)
    }

    /// Every queue on the wire, sorted by link, head first.
    pub fn queues(&self) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
        self.net().queues()
    }

    /// Every buffer parked behind a sever, sorted by link.
    pub fn parked(&self) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
        self.net().parked()
    }

    /// Currently severed pairs, sorted.
    pub fn severed(&self) -> Vec<(NodeId, NodeId)> {
        self.net().severed()
    }

    /// Killed nodes, sorted.
    pub fn killed(&self) -> Vec<NodeId> {
        self.net().killed()
    }

    /// The deliverable head the links accepted first (see
    /// [`SchedLinks::oldest`]).
    pub fn oldest(&self) -> Option<(u64, (NodeId, NodeId), OpTag)> {
        self.net().oldest()
    }

    /// Sends the links have accepted so far, parked ones included.
    pub fn accepted(&self) -> u64 {
        self.net().accepted()
    }

    /// State extraction: `replicas()[node][object]` — every replica of
    /// every node, killed nodes included (callers filter by
    /// [`StepCluster::alive`]).
    pub fn replicas(&self) -> Vec<Vec<ReplicaSnap>> {
        self.nodes.iter().map(|ctx| ctx.table.snaps()).collect()
    }
    /// State extraction: `owners()[node][object]` — each protocol
    /// process's ownership register (part of the machine state for the
    /// migrating-ownership protocols).
    pub fn owners(&self) -> Vec<Vec<NodeId>> {
        self.nodes.iter().map(|ctx| ctx.table.owners()).collect()
    }

    /// State extraction: the in-flight operations of every node as
    /// `(node, object, kind, tag, blocked)`.
    pub fn pending_ops(&self) -> Vec<(NodeId, ObjectId, OpKind, u64, bool)> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(i, ctx)| {
                ctx.pending_brief()
                    .into_iter()
                    .map(move |(obj, op, tag, blocked)| (NodeId(i as u16), obj, op, tag.0, blocked))
            })
            .collect()
    }

    /// Current value of the cluster-wide write-version counter.
    pub fn version_clock(&self) -> u64 {
        self.versions.load(Ordering::Relaxed)
    }

    /// Total communication cost accumulated so far, in the paper's units.
    pub fn total_cost(&self) -> u64 {
        self.cost.load(Ordering::Relaxed)
    }

    /// Total inter-node messages sent so far.
    pub fn total_messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Reads completed by [`StepCluster::issue`] from a node's replica
    /// table, without running the machine (see
    /// [`crate::Cluster::local_read_hits`]).
    pub fn local_read_hits(&self) -> u64 {
        self.nodes.iter().map(|ctx| ctx.table.hits()).sum()
    }

    /// The first error that poisoned this cluster, if any.
    pub fn poisoned(&self) -> Option<ClusterError> {
        self.poison.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemParams {
        SystemParams {
            n_clients: 2,
            s: 16,
            p: 4,
            m_objects: 2,
        }
    }

    /// Deliver greedily (first ready link each time) until quiescent.
    fn drain(c: &mut StepCluster) -> usize {
        let mut steps = 0;
        while let Some(&(from, to)) = c.links_ready().first() {
            assert!(c.deliver(from, to).unwrap());
            steps += 1;
            assert!(steps < 10_000, "drain did not terminate");
        }
        steps
    }

    #[test]
    fn write_then_read_completes_for_every_protocol() {
        for kind in ProtocolKind::EVERY {
            let mut c = StepCluster::new(sys(), kind);
            c.issue(
                NodeId(0),
                OpKind::Write,
                ObjectId(0),
                Some(Bytes::from_static(b"v1")),
                1,
            )
            .unwrap();
            drain(&mut c);
            let done = c.poll();
            assert!(
                done.iter().any(|(id, r)| *id == 1 && r.is_ok()),
                "{kind:?}: write never completed: {done:?}"
            );
            c.issue(NodeId(1), OpKind::Read, ObjectId(0), None, 2)
                .unwrap();
            drain(&mut c);
            let done = c.poll();
            let read = done.iter().find(|(id, _)| *id == 2);
            assert_eq!(
                read.map(|(_, r)| r.clone().unwrap()),
                Some(Bytes::from_static(b"v1")),
                "{kind:?}: read did not observe the write"
            );
            assert!(c.is_quiescent(), "{kind:?}");
            assert!(c.poisoned().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn nothing_happens_between_steps() {
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough);
        c.issue(
            NodeId(0),
            OpKind::Write,
            ObjectId(0),
            Some(Bytes::from_static(b"x")),
            1,
        )
        .unwrap();
        // The request token was consumed, messages are queued, but no
        // peer has run: the sequencer's replica is untouched.
        assert!(!c.is_quiescent());
        let home = sys().home();
        assert_eq!(c.replicas()[home.idx()][0].version, 0);
        drain(&mut c);
        assert!(c.replicas()[home.idx()][0].version > 0);
    }

    #[test]
    fn kill_degrades_the_dependent_operation() {
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough);
        let home = sys().home();
        c.fault(SchedAction::Kill(home));
        assert!(!c.alive(home));
        // A write needs the (dead) sequencer: it must fail with
        // NodeDown via the runtime's degrade path, not hang or poison.
        c.issue(
            NodeId(0),
            OpKind::Write,
            ObjectId(0),
            Some(Bytes::from_static(b"x")),
            1,
        )
        .unwrap();
        drain(&mut c);
        let done = c.poll();
        assert!(
            matches!(&done[..], [(1, Err(ClusterError::NodeDown(n)))] if *n == home),
            "{done:?}"
        );
        assert!(c.poisoned().is_none());
    }

    #[test]
    fn an_envelope_without_a_transition_poisons() {
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough);
        let (n0, home) = (NodeId(0), sys().home());
        c.issue(n0, OpKind::Read, ObjectId(0), None, 1).unwrap();
        assert!(c.deliver(n0, home).unwrap());
        // Swap the home's R-GNT for a W-GNT, which a Write-Through
        // client has no transition for.
        let mut grant = c.queued(home, n0).remove(0);
        assert_eq!(grant.msg.kind, repmem_core::MsgKind::RGnt);
        assert!(c.drop_head(home, n0));
        grant.msg.kind = repmem_core::MsgKind::WGnt;
        c.nodes[home.idx()].endpoint.send(n0, &grant).unwrap();
        let err = c.deliver(home, n0).unwrap_err();
        let ClusterError::Poisoned { node, reason } = &err else {
            panic!("{err}");
        };
        assert_eq!(*node, n0);
        assert!(reason.contains("from state INVALID on W-GNT"), "{reason}");
        assert_eq!(c.poisoned(), Some(err.clone()));
        // The machine kept its state, and every later step fails alike.
        assert_eq!(c.replicas()[0][0].state, repmem_core::CopyState::Invalid);
        assert_eq!(
            c.issue(NodeId(1), OpKind::Read, ObjectId(1), None, 2),
            Err(err)
        );
    }

    #[test]
    fn sever_parks_and_restore_releases_deterministically() {
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough);
        let home = sys().home();
        c.fault(SchedAction::Sever(NodeId(0), home));
        c.issue(
            NodeId(0),
            OpKind::Write,
            ObjectId(0),
            Some(Bytes::from_static(b"x")),
            1,
        )
        .unwrap();
        // The write request is parked on the severed link: nothing
        // deliverable, but the network is not quiet either.
        assert!(c.links_ready().is_empty());
        assert!(!c.is_quiescent());
        c.fault(SchedAction::Restore(NodeId(0), home));
        drain(&mut c);
        assert!(c.poll().iter().any(|(id, r)| *id == 1 && r.is_ok()));
        assert!(c.is_quiescent());
    }

    #[test]
    fn step_run_matches_threaded_cost_model() {
        // Serial write-through usage must cost exactly what the
        // threaded cluster (and the analytic model) charges.
        let sys = sys();
        let mut c = StepCluster::new(sys, ProtocolKind::WriteThrough);
        c.issue(
            NodeId(0),
            OpKind::Write,
            ObjectId(0),
            Some(Bytes::from_static(b"x")),
            1,
        )
        .unwrap();
        drain(&mut c);
        assert_eq!(c.total_cost(), sys.p + sys.n_clients as u64);
        let base = c.total_cost();
        c.issue(NodeId(0), OpKind::Read, ObjectId(0), None, 2)
            .unwrap();
        drain(&mut c);
        assert_eq!(c.total_cost() - base, sys.s + 2);
    }
}
