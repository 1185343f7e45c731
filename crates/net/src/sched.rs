//! Scheduler hook on the in-process mesh: every send is *queued*, and an
//! external driver decides which link delivers next.
//!
//! [`InProcTransport`] delivers an envelope the instant it is sent, so a
//! threaded cluster's interleavings are chosen by the OS scheduler.
//! [`SchedTransport`] keeps the same mesh shape but parks every accepted
//! envelope in a per-directed-link FIFO queue; nothing reaches a deliver
//! sink until the owner of the paired [`SchedHandle`] says so. A
//! schedule explorer (see `repmem-check`) enumerates or samples the
//! delivery orders, which is exactly the set of behaviours the paper's
//! FIFO-channel axioms admit: per-link order is fixed, cross-link order
//! is arbitrary.
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
//! delay could cause. What the handle does keep is the global send order
//! (each accepted envelope is numbered, see [`SchedHandle::oldest`]): a
//! driver that keeps a clock of its own, like the discrete-event
//! simulator's, dates the sends of each step by it.
//!
//! Self-sends queue on the node's own loopback link `(n, n)` and are
//! scheduled like any other delivery (a node that has not yet processed
//! its own loopback message is simply a slow node); they are never
//! faulted, matching [`crate::FaultTransport`].
//!
//! The handle also exposes two *mutation* hooks, [`SchedHandle::rotate`]
//! and [`SchedHandle::drop_head`], which deliberately violate the FIFO /
//! reliable-delivery axioms. They exist so the checker can prove it
//! *would* catch a protocol whose correctness argument silently leaned
//! on a property the transport no longer provides.

use crate::{DeliverFn, Endpoint, Envelope, NetError, Transport};
use repmem_core::{NodeId, OpTag};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Directed link key `(from, to)`.
type Link = (u16, u16);

/// Envelopes in FIFO order, each with its send number.
type Queue = VecDeque<(u64, Envelope)>;

/// A fault [`SchedHandle::apply`] injects (see the module docs).
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

#[derive(Default)]
struct LinkMap {
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

struct SchedState {
    sinks: Vec<OnceLock<DeliverFn>>,
    links: Mutex<LinkMap>,
}

fn lock(state: &SchedState) -> MutexGuard<'_, LinkMap> {
    state.links.lock().unwrap_or_else(|e| e.into_inner())
}

impl LinkMap {
    /// Take the head envelope of `link`, dropping the queue it empties:
    /// only non-empty queues stay in the map.
    fn pop(&mut self, link: Link) -> Option<Envelope> {
        let q = self.queues.get_mut(&link)?;
        let head = q.pop_front().map(|(_, env)| env);
        if q.is_empty() {
            self.queues.remove(&link);
        }
        head
    }
}

/// Normalized unordered pair key for the severed set.
fn pair(a: NodeId, b: NodeId) -> Link {
    (a.0.min(b.0), a.0.max(b.0))
}

/// The in-proc mesh with its delivery loop handed to a scheduler; built
/// by [`InProcTransport::scheduled`](crate::InProcTransport::scheduled)
/// or [`SchedTransport::new`].
pub struct SchedTransport {
    state: Arc<SchedState>,
}

impl SchedTransport {
    /// A scheduler-driven interconnect for `n` nodes, plus the handle
    /// that pumps it.
    pub fn new(n: usize) -> (Self, SchedHandle) {
        let state = Arc::new(SchedState {
            sinks: (0..n).map(|_| OnceLock::new()).collect(),
            links: Mutex::new(LinkMap::default()),
        });
        (
            SchedTransport {
                state: Arc::clone(&state),
            },
            SchedHandle { state },
        )
    }
}

impl Transport for SchedTransport {
    fn n_nodes(&self) -> usize {
        self.state.sinks.len()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        if node.idx() >= self.state.sinks.len() {
            return Err(NetError::Io(format!("no node {node}")));
        }
        if self.state.sinks[node.idx()].set(deliver).is_err() {
            return Err(NetError::Io(format!("{node} bound twice")));
        }
        Ok(Box::new(SchedEndpoint {
            me: node,
            state: Arc::clone(&self.state),
            closed: AtomicBool::new(false),
        }))
    }
}

struct SchedEndpoint {
    me: NodeId,
    state: Arc<SchedState>,
    closed: AtomicBool,
}

impl Endpoint for SchedEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(NetError::Closed(to));
        }
        if to.idx() >= self.state.sinks.len() {
            return Err(NetError::Io(format!("no node {to}")));
        }
        let mut guard = lock(&self.state);
        let map = &mut *guard;
        let mut queues = &mut map.queues;
        if to != self.me {
            if map.killed.contains(&to.0) {
                return Err(NetError::Down(to));
            }
            if map.killed.contains(&self.me.0) {
                return Err(NetError::Down(self.me));
            }
            if map.severed.contains(&pair(self.me, to)) {
                // Parked, not lost: released in order on Restore.
                queues = &mut map.parked;
            }
        }
        queues
            .entry((self.me.0, to.0))
            .or_default()
            .push_back((map.accepted, env.clone()));
        map.accepted += 1;
        Ok(())
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }
}

/// Driver-side controls of a [`SchedTransport`]: inspect the queues,
/// deliver in any per-link-FIFO-respecting order, and inject faults.
#[derive(Clone)]
pub struct SchedHandle {
    state: Arc<SchedState>,
}

impl SchedHandle {
    /// Directed links with at least one deliverable envelope whose
    /// destination is still alive, sorted by `(from, to)`.
    pub fn links_ready(&self) -> Vec<(NodeId, NodeId)> {
        let map = lock(&self.state);
        map.queues
            .iter()
            .filter(|((_, to), q)| !q.is_empty() && !map.killed.contains(to))
            .map(|(&(f, t), _)| (NodeId(f), NodeId(t)))
            .collect()
    }

    /// Deliver the head envelope of link `(from, to)` into the
    /// destination's deliver sink. Returns `false` when the link has no
    /// deliverable envelope (empty queue or dead destination).
    pub fn deliver(&self, from: NodeId, to: NodeId) -> bool {
        let env = {
            let mut map = lock(&self.state);
            if map.killed.contains(&to.0) {
                return false;
            }
            match map.pop((from.0, to.0)) {
                Some(env) => env,
                None => return false,
            }
        };
        // Sink invoked outside the lock: it may re-enter `send`.
        match self.state.sinks.get(to.idx()).and_then(OnceLock::get) {
            Some(sink) => {
                sink(env);
                true
            }
            None => false,
        }
    }

    /// Mutation hook: silently lose the head envelope of `(from, to)`,
    /// violating reliable delivery. Returns whether one was dropped.
    pub fn drop_head(&self, from: NodeId, to: NodeId) -> bool {
        lock(&self.state).pop((from.0, to.0)).is_some()
    }

    /// Mutation hook: move the head envelope of `(from, to)` to the back
    /// of its queue, violating per-link FIFO order. Returns whether a
    /// rotation happened (the queue held at least two envelopes).
    pub fn rotate(&self, from: NodeId, to: NodeId) -> bool {
        let mut map = lock(&self.state);
        match map.queues.get_mut(&(from.0, to.0)) {
            Some(q) if q.len() >= 2 => {
                if let Some(head) = q.pop_front() {
                    q.push_back(head);
                }
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
        let map = lock(&self.state);
        let mut oldest: Option<(u64, (NodeId, NodeId), OpTag)> = None;
        for (&(f, t), q) in &map.queues {
            if let Some((seq, env)) = q.front() {
                if oldest.is_none_or(|(first, ..)| *seq < first) && !map.killed.contains(&t) {
                    oldest = Some((*seq, (NodeId(f), NodeId(t)), env.msg.op));
                }
            }
        }
        oldest
    }

    /// Sends the mesh has accepted so far, parked ones included.
    pub fn accepted(&self) -> u64 {
        lock(&self.state).accepted
    }

    /// Apply one fault action now (see the module docs for the
    /// scheduler-mode semantics of each action).
    pub fn apply(&self, action: SchedAction) {
        let mut map = lock(&self.state);
        match action {
            SchedAction::Sever(a, b) => {
                map.severed.insert(pair(a, b));
            }
            SchedAction::Restore(a, b) => {
                map.severed.remove(&pair(a, b));
                // Release parked envelopes behind whatever was already on
                // the wire: everything parked was sent later.
                for link in [(a.0, b.0), (b.0, a.0)] {
                    if let Some(mut held) = map.parked.remove(&link) {
                        map.queues.entry(link).or_default().append(&mut held);
                    }
                }
            }
            SchedAction::Kill(n) => {
                map.killed.insert(n.0);
                map.queues.retain(|&(_, to), _| to != n.0);
                map.parked.retain(|&(from, to), _| from != n.0 && to != n.0);
            }
        }
    }

    /// Clones of the deliverable envelopes queued on `(from, to)`, head
    /// first (for state fingerprinting and targeted mutations).
    pub fn queued(&self, from: NodeId, to: NodeId) -> Vec<Envelope> {
        lock(&self.state)
            .queues
            .get(&(from.0, to.0))
            .map(|q| q.iter().map(|(_, env)| env.clone()).collect())
            .unwrap_or_default()
    }

    /// Every non-empty queue, sorted by `(from, to)`, with clones of its
    /// envelopes head first. Includes queues to killed destinations only
    /// transiently (kill purges them).
    pub fn queues(&self) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
        lock(&self.state)
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(f, t), q)| {
                (
                    (NodeId(f), NodeId(t)),
                    q.iter().map(|(_, env)| env.clone()).collect(),
                )
            })
            .collect()
    }

    /// Every non-empty parked (severed-link) buffer, sorted.
    pub fn parked(&self) -> Vec<((NodeId, NodeId), Vec<Envelope>)> {
        lock(&self.state)
            .parked
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&(f, t), q)| {
                (
                    (NodeId(f), NodeId(t)),
                    q.iter().map(|(_, env)| env.clone()).collect(),
                )
            })
            .collect()
    }

    /// Total deliverable envelopes across all links.
    pub fn total_queued(&self) -> usize {
        lock(&self.state).queues.values().map(VecDeque::len).sum()
    }

    /// Total envelopes parked on severed links.
    pub fn total_parked(&self) -> usize {
        lock(&self.state).parked.values().map(VecDeque::len).sum()
    }

    /// Currently severed unordered pairs, sorted.
    pub fn severed(&self) -> Vec<(NodeId, NodeId)> {
        lock(&self.state)
            .severed
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect()
    }

    /// Permanently killed endpoints, sorted.
    pub fn killed(&self) -> Vec<NodeId> {
        lock(&self.state)
            .killed
            .iter()
            .map(|&n| NodeId(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::{Msg, MsgKind, ObjectId, OpTag, PayloadKind, QueueKind};
    use std::sync::mpsc::channel;

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

    fn mesh(
        n: usize,
    ) -> (
        Vec<Box<dyn Endpoint>>,
        Vec<std::sync::mpsc::Receiver<Envelope>>,
        SchedHandle,
    ) {
        let (mut t, h) = SchedTransport::new(n);
        let mut eps = Vec::new();
        let mut rxs = Vec::new();
        for i in 0..n {
            let (tx, rx) = channel();
            eps.push(
                t.bind(
                    NodeId(i as u16),
                    Box::new(move |e| tx.send(e).unwrap_or(())),
                )
                .unwrap(),
            );
            rxs.push(rx);
        }
        (eps, rxs, h)
    }

    #[test]
    fn nothing_delivers_until_scheduled() {
        let (eps, rxs, h) = mesh(2);
        eps[0].send(NodeId(1), &env(0, 1)).unwrap();
        assert!(rxs[1].try_recv().is_err());
        assert_eq!(h.links_ready(), vec![(NodeId(0), NodeId(1))]);
        assert!(h.deliver(NodeId(0), NodeId(1)));
        assert_eq!(rxs[1].try_recv().unwrap().msg.op, OpTag(1));
        assert!(!h.deliver(NodeId(0), NodeId(1)));
        assert!(h.links_ready().is_empty());
    }

    #[test]
    fn per_link_fifo_order_is_preserved() {
        let (eps, rxs, h) = mesh(2);
        for tag in 1..=3 {
            eps[0].send(NodeId(1), &env(0, tag)).unwrap();
        }
        for tag in 1..=3 {
            assert!(h.deliver(NodeId(0), NodeId(1)));
            assert_eq!(rxs[1].try_recv().unwrap().msg.op, OpTag(tag));
        }
    }

    #[test]
    fn sever_parks_until_restore_behind_wire_traffic() {
        let (eps, rxs, h) = mesh(2);
        eps[0].send(NodeId(1), &env(0, 1)).unwrap(); // on the wire
        h.apply(SchedAction::Sever(NodeId(0), NodeId(1)));
        eps[0].send(NodeId(1), &env(0, 2)).unwrap(); // parked
        assert_eq!(h.total_parked(), 1);
        assert_eq!(h.total_queued(), 1); // pre-sever envelope still deliverable
        h.apply(SchedAction::Restore(NodeId(0), NodeId(1)));
        assert_eq!(h.total_parked(), 0);
        for tag in 1..=2 {
            assert!(h.deliver(NodeId(0), NodeId(1)));
            assert_eq!(rxs[1].try_recv().unwrap().msg.op, OpTag(tag));
        }
    }

    #[test]
    fn kill_is_permanent_and_purges_inbound() {
        let (eps, rxs, h) = mesh(3);
        eps[0].send(NodeId(1), &env(0, 1)).unwrap();
        eps[1].send(NodeId(2), &env(1, 2)).unwrap(); // node 1 already sent
        h.apply(SchedAction::Kill(NodeId(1)));
        assert_eq!(
            eps[0].send(NodeId(1), &env(0, 3)),
            Err(NetError::Down(NodeId(1)))
        );
        assert_eq!(
            eps[1].send(NodeId(2), &env(1, 4)),
            Err(NetError::Down(NodeId(1)))
        );
        assert!(
            !h.deliver(NodeId(0), NodeId(1)),
            "inbound to the dead node dropped"
        );
        // ...but its pre-kill send was on the wire and still arrives.
        assert!(h.deliver(NodeId(1), NodeId(2)));
        assert_eq!(rxs[2].try_recv().unwrap().msg.op, OpTag(2));
        assert_eq!(h.killed(), vec![NodeId(1)]);
    }

    #[test]
    fn self_sends_queue_on_the_loopback_link_and_are_never_faulted() {
        let (eps, rxs, h) = mesh(2);
        h.apply(SchedAction::Sever(NodeId(0), NodeId(1)));
        eps[0].send(NodeId(0), &env(0, 9)).unwrap();
        assert_eq!(h.total_parked(), 0);
        assert!(h.deliver(NodeId(0), NodeId(0)));
        assert_eq!(rxs[0].try_recv().unwrap().msg.op, OpTag(9));
    }

    #[test]
    fn oldest_follows_the_global_send_order() {
        let (eps, _rxs, h) = mesh(3);
        assert_eq!(h.oldest(), None);
        eps[1].send(NodeId(2), &env(1, 1)).unwrap();
        h.apply(SchedAction::Sever(NodeId(0), NodeId(2)));
        eps[0].send(NodeId(2), &env(0, 2)).unwrap(); // parked, still numbered
        eps[0].send(NodeId(0), &env(0, 3)).unwrap();
        eps[1].send(NodeId(2), &env(1, 4)).unwrap();
        assert_eq!(h.accepted(), 4);
        assert_eq!(h.oldest(), Some((0, (NodeId(1), NodeId(2)), OpTag(1))));
        assert!(h.deliver(NodeId(1), NodeId(2)));
        assert_eq!(h.oldest(), Some((2, (NodeId(0), NodeId(0)), OpTag(3))));
        h.apply(SchedAction::Restore(NodeId(0), NodeId(2)));
        assert_eq!(h.oldest(), Some((1, (NodeId(0), NodeId(2)), OpTag(2))));
    }

    #[test]
    fn mutation_hooks_break_the_axioms_on_purpose() {
        let (eps, rxs, h) = mesh(2);
        for tag in 1..=2 {
            eps[0].send(NodeId(1), &env(0, tag)).unwrap();
        }
        assert!(h.rotate(NodeId(0), NodeId(1)));
        assert!(h.deliver(NodeId(0), NodeId(1)));
        assert_eq!(rxs[1].try_recv().unwrap().msg.op, OpTag(2), "FIFO violated");
        assert!(h.drop_head(NodeId(0), NodeId(1)));
        assert_eq!(h.total_queued(), 0, "envelope lost");
    }
}
