//! The host core: the one implementation of [`Actions`], which the
//! analytic oracle and the runtime step the machines through (the
//! discrete-event simulator runs the runtime's node code).
//!
//! [`Host`] owns what the output routines mean: the `Dest` fan-out, the
//! price of each message leg, building each outgoing [`Msg`] (stamped
//! from the epoch register), the last-writer-wins `change`/`install`
//! merge, the `ret`/`disable`/`enable` step flags and the quorum round.
//! Each of the two executors supplies a [`Driver`] for what really
//! differs — where a leg goes (or whether it is pruned), where a write's
//! version comes from, and what a failure does — and reads the
//! [`StepFlags`] after.

use repmem_core::{
    Actions, Dest, Msg, MsgKind, NodeId, OpKind, OpTag, PayloadKind, QueueKind, SystemParams,
};

/// The receivers of a push to `dest` among `n_nodes` nodes, in node
/// order; the sender is one of them unless excluded.
pub fn fanout(dest: Dest, n_nodes: usize) -> impl Iterator<Item = NodeId> {
    let (range, except) = match dest {
        Dest::To(n) => (n.0..n.0 + 1, (None, None)),
        Dest::AllExcept(a, b) => (0..n_nodes as u16, (Some(a), b)),
    };
    range
        .map(NodeId)
        .filter(move |&r| Some(r) != except.0 && Some(r) != except.1)
}

/// The price of one leg: [`SystemParams::msg_cost`], free within a node.
pub fn leg_cost(sys: &SystemParams, from: NodeId, to: NodeId, payload: PayloadKind) -> u64 {
    if from == to {
        0
    } else {
        sys.msg_cost(payload)
    }
}

/// The half of [`Actions::quorum_unanimous`] a round keeps: the stamp
/// the first counted vote carried, and whether a later one carried
/// another. Each vote is held against the first, not against the merged
/// local copy — an old vote followed by a newer one would otherwise
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteAgreement<T> {
    first: Option<T>,
    split: bool,
}

impl<T> Default for VoteAgreement<T> {
    fn default() -> Self {
        VoteAgreement {
            first: None,
            split: false,
        }
    }
}

impl<T: PartialEq> VoteAgreement<T> {
    /// Record the stamp a counted vote carried.
    pub fn count(&mut self, stamp: T) {
        match &self.first {
            None => self.first = Some(stamp),
            Some(first) => self.split |= *first != stamp,
        }
    }

    /// Whether every counted vote carried `local`, the stamp the local
    /// copy holds after installing them.
    pub fn unanimous_at(&self, local: &T) -> bool {
        !self.split && self.first.as_ref() == Some(local)
    }
}

/// The phase of a quorum operation its initiator last armed.
#[derive(Debug, Clone)]
pub struct Round<S> {
    /// The operation that armed it: votes for another are stragglers.
    pub tag: OpTag,
    /// Votes counted, and votes needed.
    pub votes: usize,
    pub need: usize,
    /// Peers whose vote was counted.
    pub voted: Vec<NodeId>,
    pub agreement: VoteAgreement<S>,
}

impl<S> Default for Round<S> {
    fn default() -> Self {
        Round {
            tag: OpTag(0),
            votes: 0,
            need: 0,
            voted: Vec::new(),
            agreement: VoteAgreement::default(),
        }
    }
}

/// One message leg of a push, handed to [`Driver::send`].
#[derive(Debug)]
pub struct Leg<'e, T> {
    pub to: NodeId,
    pub msg: Msg,
    /// [`leg_cost`].
    pub cost: u64,
    /// What a `Params` or `Copy` message carries.
    pub params: Option<&'e T>,
    pub copy: Option<&'e T>,
    /// A `Dest::To` send, not a broadcast leg.
    pub single: bool,
}

impl<T> Leg<'_, T> {
    /// Whether the leg crosses nodes.
    pub fn remote(&self) -> bool {
        self.to != self.msg.sender
    }
}

/// What an executor does differently from the others.
pub trait Driver {
    /// A replica's data, which applied write parameters also become.
    type Data: Clone;
    /// The merge key of `Data`: the larger stamp wins.
    type Stamp: PartialOrd;

    fn stamp(data: &Self::Data) -> Self::Stamp;

    /// The write parameters of this node's own pending operation, for a
    /// step at its initiator that no message carries them to: where a
    /// write gets its version.
    fn own_params(&mut self) -> Option<Self::Data>;

    /// Deliver one leg (or drop it, for a pruned broadcast leg); `Err`
    /// is a failure the step cannot go on from.
    fn send(&mut self, leg: Leg<'_, Self::Data>) -> Result<(), String>;

    /// The step could not do what the machine asked: a parameter or copy
    /// was missing, a send failed, or the machine has no transition for
    /// the message ([`Actions::no_transition`]).
    fn fail(&mut self, reason: String);
}

/// What one step did, for its executor to act on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepFlags {
    pub rets: u32,
    pub changes: u32,
    pub disabled: bool,
    pub enabled: bool,
    /// [`Driver::fail`] was called: later pushes and changes are skipped.
    pub failed: bool,
}

/// One protocol process's environment for one step.
pub struct Host<'a, D: Driver> {
    pub driver: D,
    pub sys: &'a SystemParams,
    pub me: NodeId,
    /// The stepped object's home sequencer.
    pub home: NodeId,
    pub n_nodes: usize,
    /// The message being stepped (the current context of `pop`) and the
    /// write parameters or copy it carries.
    pub msg: &'a Msg,
    pub params: Option<&'a D::Data>,
    pub carried: Option<&'a D::Data>,
    /// The replica's data and its owner and epoch registers.
    pub copy: &'a mut D::Data,
    pub owner: &'a mut NodeId,
    pub epoch: &'a mut u64,
    /// The operation this node's application has in flight.
    pub pending: Option<OpKind>,
    /// Where this node keeps its quorum round; `None` when it has no
    /// operation a round could belong to.
    pub round: Option<&'a mut Round<D::Stamp>>,
    pub flags: StepFlags,
}

impl<D: Driver> Host<'_, D> {
    fn fail(&mut self, reason: String) {
        self.flags.failed = true;
        self.driver.fail(reason);
    }

    /// The write parameters in scope: carried by the message, or the
    /// initiator's own pending operation's.
    fn context_params(&mut self) -> Option<D::Data> {
        if let Some(p) = self.params {
            return Some(p.clone());
        }
        if self.msg.initiator == self.me {
            if let Some(p) = self.driver.own_params() {
                return Some(p);
            }
        }
        self.fail(format!(
            "no write parameters in scope at {} for {:?} (initiator {}, sender {})",
            self.me, self.msg.kind, self.msg.initiator, self.msg.sender
        ));
        None
    }

    /// Last writer wins: replace the local copy unless it is newer.
    fn merge(&mut self, incoming: D::Data) {
        if D::stamp(&incoming) >= D::stamp(self.copy) {
            *self.copy = incoming;
        }
    }
}

impl<D: Driver> Actions for Host<'_, D> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn home(&self) -> NodeId {
        self.home
    }
    fn n_nodes(&self) -> usize {
        self.n_nodes
    }
    fn owner(&self) -> NodeId {
        *self.owner
    }
    fn set_owner(&mut self, owner: NodeId) {
        *self.owner = owner;
    }
    fn owner_epoch(&self) -> u64 {
        *self.epoch
    }
    fn set_owner_epoch(&mut self, epoch: u64) {
        *self.epoch = epoch;
    }
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind) {
        let params = match payload {
            PayloadKind::Params => match self.context_params() {
                Some(p) => Some(p),
                None => return,
            },
            _ => None,
        };
        let copy = (payload == PayloadKind::Copy).then(|| self.copy.clone());
        if self.flags.failed {
            return;
        }
        let msg = Msg {
            kind,
            initiator: self.msg.initiator,
            sender: self.me,
            object: self.msg.object,
            queue: QueueKind::Distributed,
            payload,
            op: self.msg.op,
            epoch: *self.epoch,
        };
        for to in fanout(dest, self.n_nodes) {
            let leg = Leg {
                to,
                msg,
                cost: leg_cost(self.sys, self.me, to, payload),
                params: params.as_ref(),
                copy: copy.as_ref(),
                single: matches!(dest, Dest::To(_)),
            };
            if let Err(reason) = self.driver.send(leg) {
                self.fail(reason);
            }
        }
    }
    fn change(&mut self) {
        self.flags.changes += 1;
        let Some(p) = self.context_params() else {
            return;
        };
        if !self.flags.failed {
            self.merge(p);
        }
    }
    fn install(&mut self) {
        match self.carried {
            Some(incoming) => self.merge(incoming.clone()),
            None => self.fail(format!(
                "install without copy payload at {} on {:?} from {}",
                self.me, self.msg.kind, self.msg.sender
            )),
        }
    }
    fn ret(&mut self) {
        self.flags.rets += 1;
    }
    fn disable_local(&mut self) {
        self.flags.disabled = true;
    }
    fn enable_local(&mut self) {
        self.flags.enabled = true;
    }
    fn pending_op(&self) -> Option<OpKind> {
        self.pending
    }
    fn quorum_arm(&mut self, need: usize) {
        if let Some(r) = self.round.as_deref_mut() {
            r.tag = self.msg.op;
            r.votes = 0;
            r.need = need;
            r.voted.clear();
            r.agreement = VoteAgreement::default();
        }
    }
    fn quorum_vote(&mut self) -> bool {
        let Some(r) = self.round.as_deref_mut() else {
            return false;
        };
        if self.msg.op != r.tag {
            return false; // straggler from a superseded round
        }
        r.votes += 1;
        r.voted.push(self.msg.sender);
        if let Some(copy) = self.carried {
            r.agreement.count(D::stamp(copy));
        }
        r.votes == r.need
    }
    fn quorum_unanimous(&self) -> bool {
        self.round
            .as_deref()
            .is_some_and(|r| r.agreement.unanimous_at(&D::stamp(self.copy)))
    }
    fn no_transition(&mut self, reason: String) {
        self.fail(reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_expands_except_in_node_order() {
        let all = |d| fanout(d, 5).collect::<Vec<_>>();
        assert_eq!(all(Dest::To(NodeId(3))), vec![NodeId(3)]);
        assert_eq!(
            all(Dest::AllExcept(NodeId(1), None)),
            vec![NodeId(0), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(
            all(Dest::AllExcept(NodeId(4), Some(NodeId(0)))),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(all(Dest::AllExcept(NodeId(2), Some(NodeId(2)))).len(), 4);
    }

    #[test]
    fn a_leg_within_a_node_is_free() {
        let sys = SystemParams::new(3, 100, 30);
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(leg_cost(&sys, a, a, PayloadKind::Copy), 0);
        assert_eq!(leg_cost(&sys, a, b, PayloadKind::Token), 1);
        assert_eq!(leg_cost(&sys, a, b, PayloadKind::Params), 31);
        assert_eq!(leg_cost(&sys, a, b, PayloadKind::Copy), 101);
    }
}
