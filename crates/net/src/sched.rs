//! Scheduled links: the in-process mesh as plain data, with every send
//! *queued* until a driver decides which link delivers next.
//!
//! [`InProcTransport`](crate::InProcTransport) delivers an envelope the
//! instant it is sent, so a threaded cluster's interleavings are chosen
//! by the OS scheduler. [`SchedLinks`] keeps the same mesh shape but
//! parks every accepted envelope in a per-directed-link FIFO queue;
//! nothing arrives anywhere until its owner takes a link's head
//! ([`SchedLinks::deliver`]) and hands it to the destination itself. A
//! schedule explorer (see `repmem-check`) enumerates or samples the
//! delivery orders, which is exactly the set of behaviours the paper's
//! FIFO-channel axioms admit: per-link order is fixed, cross-link order
//! is arbitrary.
//!
//! The links are plain data: no deliver sink, no channel, no thread.
//! Their owner (`repmem-runtime`'s `StepCluster`) shares them behind one
//! lock with the [`SchedEndpoint`]s its nodes send through, and a
//! `clone` of them is a network that shares nothing with the original.
//!
//! Faults are [`SchedAction`]s the driver applies at steps it chooses,
//! with deterministic, time-free semantics:
//!
//! * **Sever** — new sends on the pair *park* in a holding buffer and
//!   are appended to the live queue on **Restore**, preserving send
//!   order. A sever is a delay that never loses: the message is
//!   accepted, waits out the blackout, and arrives after everything
//!   sent before the sever. Envelopes already queued before the sever
//!   were on the wire and stay deliverable. No send fails, so a sever
//!   is a blackout the explorer can schedule, not a failure model.
//! * **Kill** — the endpoint is gone: sends to or from it fail with
//!   [`NetError::Down`] naming it, queued and parked envelopes *to* it
//!   are dropped, and parked envelopes *from* it will never be re-sent.
//!   Envelopes it put on the wire before dying stay deliverable.
//!
//! Time does not pass here, so [`crate::FaultTransport`]'s delay bursts
//! have no counterpart: the scheduler already owns every reordering a
//! delay could cause. What the links do keep is the global send order
//! (each accepted envelope is numbered, see [`SchedLinks::oldest`]): a
//! driver that keeps a clock of its own, like the discrete-event
//! simulator's, dates the sends of each step by it.
//!
//! Self-sends queue on the node's own loopback link `(n, n)` and are
//! scheduled like any other delivery (a node that has not yet processed
//! its own loopback message is simply a slow node); they are never
//! faulted, matching [`crate::FaultTransport`].
//!
//! Two *mutation* hooks, [`SchedLinks::rotate`] and
//! [`SchedLinks::drop_head`], deliberately violate the FIFO /
//! reliable-delivery axioms. They exist so the checker can prove it
//! *would* catch a protocol whose correctness argument silently leaned
//! on a property the transport no longer provides.

use crate::{Endpoint, Envelope, NetError};
use repmem_core::{NodeId, OpTag};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// Directed link key `(from, to)`.
type Link = (u16, u16);

/// Envelopes in FIFO order, each with its send number.
type Queue = VecDeque<(u64, Envelope)>;

/// A fault [`SchedLinks::apply`] injects (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// Park new sends between the unordered pair `(a, b)` until the
    /// matching restore.
    Sever(NodeId, NodeId),
    /// Release the pair's parked envelopes behind its wire traffic.
    Restore(NodeId, NodeId),
    /// Kill the endpoint for good.
    Kill(NodeId),
}

/// Every link of an `n`-node mesh: what is on the wire, what is parked,
/// and which faults hold (see the module docs). Only non-empty queues
/// stay in the maps.
#[derive(Clone)]
pub struct SchedLinks {
    n: usize,
    /// Envelopes on the wire, deliverable in FIFO order per link.
    queues: BTreeMap<Link, Queue>,
    /// Envelopes accepted while the link pair was severed, waiting for
    /// the restore that re-sends them.
    parked: BTreeMap<Link, Queue>,
    /// Sends accepted so far: the next one's send number.
    accepted: u64,
    /// Currently severed unordered pairs.
    severed: BTreeSet<Link>,
    /// Permanently killed endpoints.
    killed: BTreeSet<u16>,
}

/// Normalized unordered pair key for the severed set.
fn pair(a: NodeId, b: NodeId) -> Link {
    (a.0.min(b.0), a.0.max(b.0))
}

/// `(link, envelopes head first)` for every queue of `map`.
fn listed(map: &BTreeMap<Link, Queue>) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
    map.iter()
        .map(|(&(f, t), q)| {
            let envs = q.iter().map(|(_, env)| env.clone()).collect();
            ((NodeId(f), NodeId(t)), envs)
        })
        .collect()
}

impl SchedLinks {
    /// The links of an `n`-node mesh, all empty and healthy.
    pub fn new(n: usize) -> SchedLinks {
        SchedLinks {
            n,
            queues: BTreeMap::new(),
            parked: BTreeMap::new(),
            accepted: 0,
            severed: BTreeSet::new(),
            killed: BTreeSet::new(),
        }
    }

    /// Accept `env` from `from` for `to`: queue it on the link, or park
    /// it behind a sever. Fails with `Down` when a kill took either end.
    pub fn send(&mut self, from: NodeId, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        if to.idx() >= self.n {
            return Err(NetError::Io(format!("no node {to}")));
        }
        let mut queues = &mut self.queues;
        if to != from {
            if self.killed.contains(&to.0) {
                return Err(NetError::Down(to));
            }
            if self.killed.contains(&from.0) {
                return Err(NetError::Down(from));
            }
            if self.severed.contains(&pair(from, to)) {
                // Parked, not lost: released in order on Restore.
                queues = &mut self.parked;
            }
        }
        queues
            .entry((from.0, to.0))
            .or_default()
            .push_back((self.accepted, env.clone()));
        self.accepted += 1;
        Ok(())
    }

    /// Take the head envelope of `link`, dropping the queue it empties.
    fn pop(&mut self, link: Link) -> Option<Envelope> {
        let q = self.queues.get_mut(&link)?;
        let head = q.pop_front().map(|(_, env)| env);
        if q.is_empty() {
            self.queues.remove(&link);
        }
        head
    }

    /// Whether `node` is still alive (not killed).
    pub fn alive(&self, node: NodeId) -> bool {
        !self.killed.contains(&node.0)
    }

    /// Directed links with at least one deliverable envelope whose
    /// destination is still alive, sorted by `(from, to)`.
    pub fn links_ready(&self) -> Vec<(NodeId, NodeId)> {
        self.queues
            .keys()
            .filter(|(_, to)| !self.killed.contains(to))
            .map(|&(f, t)| (NodeId(f), NodeId(t)))
            .collect()
    }

    /// Take the head envelope of link `(from, to)` for its destination.
    /// `None` when the link has no deliverable envelope (empty queue or
    /// dead destination).
    pub fn deliver(&mut self, from: NodeId, to: NodeId) -> Option<Envelope> {
        if self.killed.contains(&to.0) {
            return None;
        }
        self.pop((from.0, to.0))
    }

    /// Mutation hook: silently lose the head envelope of `(from, to)`,
    /// violating reliable delivery. Returns whether one was dropped.
    pub fn drop_head(&mut self, from: NodeId, to: NodeId) -> bool {
        self.pop((from.0, to.0)).is_some()
    }

    /// Mutation hook: move the head envelope of `(from, to)` to the back
    /// of its queue, violating per-link FIFO order. Returns whether a
    /// rotation happened (the queue held at least two envelopes).
    pub fn rotate(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.queues.get_mut(&(from.0, to.0)) {
            Some(q) if q.len() >= 2 => {
                q.rotate_left(1);
                true
            }
            _ => false,
        }
    }

    /// The deliverable head envelope the mesh accepted first, as `(send
    /// number, link, operation tag)`; the send number counts the sends
    /// accepted before it. Delivering this head every time replays the
    /// global send order.
    pub fn oldest(&self) -> Option<(u64, (NodeId, NodeId), OpTag)> {
        let mut oldest: Option<(u64, (NodeId, NodeId), OpTag)> = None;
        for (&(f, t), q) in &self.queues {
            if let Some((seq, env)) = q.front() {
                if oldest.is_none_or(|(first, ..)| *seq < first) && !self.killed.contains(&t) {
                    oldest = Some((*seq, (NodeId(f), NodeId(t)), env.msg.op));
                }
            }
        }
        oldest
    }

    /// Sends the mesh has accepted so far, parked ones included.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Apply one fault action now (see the module docs for the
    /// scheduler-mode semantics of each action).
    pub fn apply(&mut self, action: SchedAction) {
        match action {
            SchedAction::Sever(a, b) => {
                self.severed.insert(pair(a, b));
            }
            SchedAction::Restore(a, b) => {
                self.severed.remove(&pair(a, b));
                // Release parked envelopes behind whatever was already on
                // the wire: everything parked was sent later.
                for link in [(a.0, b.0), (b.0, a.0)] {
                    if let Some(mut held) = self.parked.remove(&link) {
                        self.queues.entry(link).or_default().append(&mut held);
                    }
                }
            }
            SchedAction::Kill(n) => {
                self.killed.insert(n.0);
                self.queues.retain(|&(_, to), _| to != n.0);
                self.parked
                    .retain(|&(from, to), _| from != n.0 && to != n.0);
            }
        }
    }

    /// Clones of the deliverable envelopes queued on `(from, to)`, head
    /// first (for targeted mutations).
    pub fn queued(&self, from: NodeId, to: NodeId) -> Vec<Envelope> {
        self.queues
            .get(&(from.0, to.0))
            .map(|q| q.iter().map(|(_, env)| env.clone()).collect())
            .unwrap_or_default()
    }

    /// Every queue on the wire, sorted by `(from, to)`, with clones of
    /// its envelopes head first.
    pub fn queues(&self) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
        listed(&self.queues)
    }

    /// Every parked (severed-link) buffer, sorted.
    pub fn parked(&self) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
        listed(&self.parked)
    }

    /// Nothing is on the wire or parked on a severed link.
    pub fn is_quiet(&self) -> bool {
        self.queues.is_empty() && self.parked.is_empty()
    }

    /// Currently severed unordered pairs, sorted.
    pub fn severed(&self) -> Vec<(NodeId, NodeId)> {
        self.severed
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect()
    }

    /// Permanently killed endpoints, sorted.
    pub fn killed(&self) -> Vec<NodeId> {
        self.killed.iter().map(|&n| NodeId(n)).collect()
    }
}

/// One node's sending side of links its owner shares with it: a send is
/// [`SchedLinks::send`] under the links' lock.
pub struct SchedEndpoint {
    me: NodeId,
    links: Arc<Mutex<SchedLinks>>,
}

impl SchedEndpoint {
    /// Node `me`'s endpoint on `links`.
    pub fn new(me: NodeId, links: Arc<Mutex<SchedLinks>>) -> SchedEndpoint {
        SchedEndpoint { me, links }
    }
}

impl Endpoint for SchedEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        let mut links = self.links.lock().unwrap_or_else(|e| e.into_inner());
        links.send(self.me, to, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::{Msg, MsgKind, ObjectId, OpTag, PayloadKind, QueueKind};

    fn env(sender: u16, tag: u64) -> Envelope {
        Envelope {
            msg: Msg {
                kind: MsgKind::Ack,
                initiator: NodeId(sender),
                sender: NodeId(sender),
                object: ObjectId(0),
                queue: QueueKind::Distributed,
                payload: PayloadKind::Token,
                op: OpTag(tag),
                epoch: 0,
            },
            params: None,
            copy: None,
            clock: 0,
        }
    }

    /// Send `env(from, tag)` from `from` to `to`.
    fn send(l: &mut SchedLinks, from: u16, to: u16, tag: u64) -> Result<(), NetError> {
        l.send(NodeId(from), NodeId(to), &env(from, tag))
    }

    /// The operation tag of the head `(from, to)` delivers, if any.
    fn deliver(l: &mut SchedLinks, from: u16, to: u16) -> Option<u64> {
        l.deliver(NodeId(from), NodeId(to)).map(|env| env.msg.op.0)
    }

    #[test]
    fn nothing_delivers_until_scheduled() {
        let mut l = SchedLinks::new(2);
        send(&mut l, 0, 1, 1).unwrap();
        assert_eq!(l.links_ready(), vec![(NodeId(0), NodeId(1))]);
        assert_eq!(deliver(&mut l, 0, 1), Some(1));
        assert_eq!(deliver(&mut l, 0, 1), None);
        assert!(l.links_ready().is_empty());
        assert!(l.is_quiet());
        assert_eq!(
            send(&mut l, 0, 2, 2),
            Err(NetError::Io("no node n2".into()))
        );
    }

    #[test]
    fn per_link_fifo_order_is_preserved() {
        let mut l = SchedLinks::new(2);
        for tag in 1..=3 {
            send(&mut l, 0, 1, tag).unwrap();
        }
        for tag in 1..=3 {
            assert_eq!(deliver(&mut l, 0, 1), Some(tag));
        }
    }

    #[test]
    fn sever_parks_until_restore_behind_wire_traffic() {
        let mut l = SchedLinks::new(2);
        send(&mut l, 0, 1, 1).unwrap(); // on the wire
        l.apply(SchedAction::Sever(NodeId(0), NodeId(1)));
        send(&mut l, 0, 1, 2).unwrap(); // parked
        assert_eq!(l.parked().len(), 1);
        assert_eq!(l.queues().len(), 1); // pre-sever envelope still deliverable
        l.apply(SchedAction::Restore(NodeId(0), NodeId(1)));
        assert!(l.parked().is_empty());
        for tag in 1..=2 {
            assert_eq!(deliver(&mut l, 0, 1), Some(tag));
        }
    }

    #[test]
    fn kill_is_permanent_and_purges_inbound() {
        let mut l = SchedLinks::new(3);
        send(&mut l, 0, 1, 1).unwrap();
        send(&mut l, 1, 2, 2).unwrap(); // node 1 already sent
        l.apply(SchedAction::Kill(NodeId(1)));
        assert_eq!(send(&mut l, 0, 1, 3), Err(NetError::Down(NodeId(1))));
        assert_eq!(send(&mut l, 1, 2, 4), Err(NetError::Down(NodeId(1))));
        assert_eq!(
            deliver(&mut l, 0, 1),
            None,
            "inbound to the dead node dropped"
        );
        // ...but its pre-kill send was on the wire and still arrives.
        assert_eq!(deliver(&mut l, 1, 2), Some(2));
        assert_eq!(l.killed(), vec![NodeId(1)]);
        assert!(!l.alive(NodeId(1)) && l.alive(NodeId(2)));
    }

    #[test]
    fn self_sends_queue_on_the_loopback_link_and_are_never_faulted() {
        let mut l = SchedLinks::new(2);
        l.apply(SchedAction::Sever(NodeId(0), NodeId(1)));
        send(&mut l, 0, 0, 9).unwrap();
        assert!(l.parked().is_empty());
        assert_eq!(deliver(&mut l, 0, 0), Some(9));
    }

    #[test]
    fn oldest_follows_the_global_send_order() {
        let mut l = SchedLinks::new(3);
        assert_eq!(l.oldest(), None);
        send(&mut l, 1, 2, 1).unwrap();
        l.apply(SchedAction::Sever(NodeId(0), NodeId(2)));
        send(&mut l, 0, 2, 2).unwrap(); // parked, still numbered
        send(&mut l, 0, 0, 3).unwrap();
        send(&mut l, 1, 2, 4).unwrap();
        assert_eq!(l.accepted(), 4);
        assert_eq!(l.oldest(), Some((0, (NodeId(1), NodeId(2)), OpTag(1))));
        assert_eq!(deliver(&mut l, 1, 2), Some(1));
        assert_eq!(l.oldest(), Some((2, (NodeId(0), NodeId(0)), OpTag(3))));
        l.apply(SchedAction::Restore(NodeId(0), NodeId(2)));
        assert_eq!(l.oldest(), Some((1, (NodeId(0), NodeId(2)), OpTag(2))));
    }

    #[test]
    fn mutation_hooks_break_the_axioms_on_purpose() {
        let mut l = SchedLinks::new(2);
        for tag in 1..=2 {
            send(&mut l, 0, 1, tag).unwrap();
        }
        assert!(l.rotate(NodeId(0), NodeId(1)));
        assert_eq!(deliver(&mut l, 0, 1), Some(2), "FIFO violated");
        assert!(l.drop_head(NodeId(0), NodeId(1)));
        assert!(l.is_quiet(), "envelope lost");
    }

    #[test]
    fn a_clone_is_a_network_of_its_own() {
        let mut l = SchedLinks::new(2);
        send(&mut l, 0, 1, 1).unwrap();
        let mut copy = l.clone();
        assert_eq!(deliver(&mut copy, 0, 1), Some(1));
        copy.apply(SchedAction::Kill(NodeId(1)));
        assert_eq!(l.queued(NodeId(0), NodeId(1)).len(), 1);
        assert!(l.alive(NodeId(1)));
        // An endpoint writes only to the links it was given.
        let shared = Arc::new(Mutex::new(l));
        SchedEndpoint::new(NodeId(1), Arc::clone(&shared))
            .send(NodeId(0), &env(1, 2))
            .unwrap();
        assert_eq!(shared.lock().unwrap().accepted(), 2);
        assert_eq!(copy.accepted(), 1);
    }
}
