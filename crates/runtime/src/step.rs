//! Deterministic, step-driven cluster mode: the schedule explorer's view
//! of the runtime, and the discrete-event simulator's (`repmem-sim` runs
//! it under a virtual clock, delivering in global send order).
//!
//! A [`crate::Cluster`] runs one thread per node and lets the OS pick
//! the interleaving. [`StepCluster`] runs the *same* protocol logic —
//! the per-node [`NodeCtx`] step functions the threaded node loop uses —
//! but on a single thread, over the scheduler-hooked in-proc mesh
//! ([`repmem_net::SchedTransport`]): a send parks in its link's FIFO
//! queue, and nothing happens until the driver explicitly
//!
//! * [`StepCluster::issue`]s an application operation at a node,
//! * [`StepCluster::deliver`]s the head envelope of a chosen link, or
//! * [`StepCluster::fault`]s the network (sever/restore/kill).
//!
//! Every step is a plain synchronous call, so a sequence of steps is a
//! *schedule* and replaying it reproduces the execution exactly — no
//! wall clocks, no thread scheduler, no randomness. The quiescence and
//! state-extraction accessors ([`StepCluster::is_quiescent`],
//! [`StepCluster::replicas`], [`StepCluster::pending_ops`], …) expose
//! everything a model checker needs to fingerprint a state and to judge
//! sequential consistency and replica convergence at the end of a
//! schedule (see the `repmem-check` crate).
//!
//! Fidelity notes:
//!
//! * Version stamps come from the shared cluster-wide counter, exactly
//!   as in the threaded in-process cluster.
//! * A send fails only when a kill took its peer (or its sender), with
//!   the same `Down` the threaded runtime buries a peer on. A sever
//!   fails nothing: the sched transport parks the link's sends until
//!   the restore, a delay that never loses.
//! * A node's self-sends queue on its loopback link and are delivered
//!   when scheduled; delaying them is indistinguishable from the node
//!   being slow, so the explored set is a superset of what one merged
//!   thread inbox can exhibit.

use crate::node::{AppReq, ClusterError, NodeCtx, Poison, ReplicaSnap, VersionClock};
use crate::shard::ShardConfig;
use crate::table::ReplicaTable;
use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, OpKind, OpTag, ProtocolKind, SystemParams};
use repmem_net::{Envelope, SchedAction, SchedHandle, SchedTransport, Transport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};

/// A single-threaded cluster advanced one explicit step at a time.
pub struct StepCluster {
    sys: SystemParams,
    nodes: Vec<NodeCtx>,
    inboxes: Vec<Arc<Mutex<VecDeque<Envelope>>>>,
    sched: SchedHandle,
    poison: Arc<Poison>,
    versions: Arc<AtomicU64>,
    cost: Arc<AtomicU64>,
    messages: Arc<AtomicU64>,
    replies: Vec<(u64, Receiver<Result<Bytes, ClusterError>>)>,
}

impl StepCluster {
    /// A step-driven cluster with the paper's default topology
    /// (`N` clients + 1 home sequencer, blocking window).
    pub fn new(sys: SystemParams, kind: ProtocolKind) -> Result<StepCluster, ClusterError> {
        StepCluster::with_config(sys, kind, ShardConfig::default())
    }

    /// A step-driven cluster with an explicit shard/window configuration.
    pub fn with_config(
        sys: SystemParams,
        kind: ProtocolKind,
        cfg: ShardConfig,
    ) -> Result<StepCluster, ClusterError> {
        let n = cfg.total_nodes(&sys);
        let (mut transport, sched) = SchedTransport::new(n);
        let poison = Arc::new(Poison::default());
        let versions = Arc::new(AtomicU64::new(0));
        let cost = Arc::new(AtomicU64::new(0));
        let messages = Arc::new(AtomicU64::new(0));
        let dead = Arc::new(crate::node::DeadSet::new(n));
        let mut nodes = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for i in 0..n {
            let me = NodeId(i as u16);
            let inbox: Arc<Mutex<VecDeque<Envelope>>> = Arc::new(Mutex::new(VecDeque::new()));
            let sink = Arc::clone(&inbox);
            let endpoint = transport
                .bind(
                    me,
                    Box::new(move |env| {
                        sink.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push_back(env);
                    }),
                )
                .map_err(|e| ClusterError::Transport(e.to_string()))?;
            nodes.push(NodeCtx::new(
                Arc::new(ReplicaTable::new(me, sys, kind, cfg)),
                sys,
                cfg,
                endpoint,
                Arc::clone(&cost),
                Arc::clone(&messages),
                VersionClock::Shared(Arc::clone(&versions)),
                Arc::clone(&poison),
                Arc::clone(&dead),
            ));
            inboxes.push(inbox);
        }
        Ok(StepCluster {
            sys,
            nodes,
            inboxes,
            sched,
            poison,
            versions,
            cost,
            messages,
            replies: Vec::new(),
        })
    }

    /// System parameters this cluster runs with.
    pub fn system(&self) -> SystemParams {
        self.sys
    }

    /// The scheduler handle: link queues, fault injection and the
    /// mutation hooks (see [`repmem_net::SchedHandle`]).
    pub fn sched(&self) -> &SchedHandle {
        &self.sched
    }

    /// Whether `node` is still alive (not scripted dead by a kill).
    pub fn alive(&self, node: NodeId) -> bool {
        !self.sched.killed().contains(&node)
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
    /// and typically queues messages on the mesh); its completion
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
        let (reply_tx, reply_rx) = sync_channel(1);
        self.replies.push((op_id, reply_rx));
        if let Some(value) = ctx.table.admit(op, object) {
            let _ = reply_tx.send(Ok(value));
            return Ok(());
        }
        let req = AppReq {
            op,
            object,
            data,
            reply: reply_tx,
        };
        let started = match ctx.refusal(&req) {
            Some(reason) => Err(reason),
            None => ctx.handle_app(req, OpTag(op_id)),
        };
        std::mem::take(&mut ctx.answers).send();
        if let Err(reason) = started {
            let err = ClusterError::Poisoned { node, reason };
            self.poison.set(err.clone());
            return Err(err);
        }
        self.pump(node)
    }

    /// Step: deliver the head envelope of link `(from, to)` and run the
    /// destination's protocol machine on it. Returns `false` when the
    /// link had nothing deliverable (empty queue or dead destination) —
    /// a no-op, not an error.
    pub fn deliver(&mut self, from: NodeId, to: NodeId) -> Result<bool, ClusterError> {
        if let Some(e) = self.poison.get() {
            return Err(e);
        }
        if !self.sched.deliver(from, to) {
            return Ok(false);
        }
        self.pump(to)?;
        Ok(true)
    }

    /// Step: apply a fault action to the mesh (see
    /// [`repmem_net::sched`] for scheduler-mode fault semantics).
    pub fn fault(&mut self, action: SchedAction) {
        self.sched.apply(action);
    }

    /// Run the destination node on everything sitting in its inbox
    /// (normally exactly one envelope per deliver step).
    fn pump(&mut self, node: NodeId) -> Result<(), ClusterError> {
        loop {
            let env = {
                let mut inbox = self.inboxes[node.idx()]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                inbox.pop_front()
            };
            let Some(env) = env else {
                return Ok(());
            };
            let ctx = &mut self.nodes[node.idx()];
            let handled = ctx.handle_env(env);
            std::mem::take(&mut ctx.answers).send();
            if let Err(reason) = handled {
                let err = ClusterError::Poisoned { node, reason };
                self.poison.set(err.clone());
                return Err(err);
            }
        }
    }

    /// Drain completed operations: `(op_id, result)` for every
    /// operation that has finished since the last poll. A degraded
    /// operation (its one needed peer was killed) reports
    /// [`ClusterError::NodeDown`]; operations at a killed node simply
    /// never complete.
    pub fn poll(&mut self) -> Vec<(u64, Result<Bytes, ClusterError>)> {
        let mut done = Vec::new();
        self.replies.retain(|(id, rx)| match rx.try_recv() {
            Ok(result) => {
                done.push((*id, result));
                false
            }
            Err(_) => true,
        });
        done
    }

    /// Links with a deliverable head envelope, sorted by `(from, to)`.
    pub fn links_ready(&self) -> Vec<(NodeId, NodeId)> {
        self.sched.links_ready()
    }

    /// No envelope is on the wire or parked on a severed link: the
    /// network can cause no further state change.
    pub fn is_quiescent(&self) -> bool {
        self.sched.total_queued() == 0 && self.sched.total_parked() == 0
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
            let mut c = StepCluster::new(sys(), kind).unwrap();
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
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough).unwrap();
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
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough).unwrap();
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
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough).unwrap();
        let (n0, home) = (NodeId(0), sys().home());
        c.issue(n0, OpKind::Read, ObjectId(0), None, 1).unwrap();
        assert!(c.deliver(n0, home).unwrap());
        // Swap the home's R-GNT for a W-GNT, which a Write-Through
        // client has no transition for.
        let mut grant = c.sched().queued(home, n0).remove(0);
        assert_eq!(grant.msg.kind, repmem_core::MsgKind::RGnt);
        assert!(c.sched().drop_head(home, n0));
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
        let mut c = StepCluster::new(sys(), ProtocolKind::WriteThrough).unwrap();
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
        let mut c = StepCluster::new(sys, ProtocolKind::WriteThrough).unwrap();
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
