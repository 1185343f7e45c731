//! A recording [`Actions`] implementation for unit-testing protocol
//! machines in isolation (no host, no channels).

use repmem_core::{Actions, Dest, MsgKind, NodeId, OpKind, PayloadKind, VoteAgreement};

/// One recorded `push` with its expanded destination list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedPush {
    /// Destination as issued by the protocol.
    pub dest: Dest,
    /// Message kind.
    pub kind: MsgKind,
    /// Parameter presence.
    pub payload: PayloadKind,
}

/// A mock host that records every output action a machine performs.
#[derive(Debug, Clone)]
pub struct MockActions {
    /// This process's node.
    pub me: NodeId,
    /// The fixed home sequencer.
    pub home: NodeId,
    /// Total nodes (`N+1`).
    pub n_nodes: usize,
    /// Current owner register.
    pub owner: NodeId,
    /// Ownership epoch register (reign number of `owner`).
    pub owner_epoch: u64,
    /// The operation the local application has in flight.
    pub pending: Option<OpKind>,
    /// Recorded pushes in order.
    pub pushes: Vec<RecordedPush>,
    /// Number of `change` calls.
    pub changes: u32,
    /// Number of `install` calls.
    pub installs: u32,
    /// Number of `ret` calls.
    pub returns: u32,
    /// Number of `disable_local` calls.
    pub disables: u32,
    /// Number of `enable_local` calls.
    pub enables: u32,
    /// Armed quorum threshold, if a round is in flight.
    pub armed: Option<usize>,
    /// Votes counted toward the armed round.
    pub votes: usize,
    /// Stamp of the local copy; `install` raises it to `carried`.
    pub copy: u64,
    /// Stamp of the copy the message being stepped carries (a test sets
    /// it before each `Q-VOTE`); every replica starts at stamp 0.
    pub carried: u64,
    /// Agreement of the votes counted toward the armed round.
    pub agreement: VoteAgreement<u64>,
}

impl MockActions {
    /// A client-node mock in an `N+1`-node system (home = node `N`).
    pub fn client(me: u16, n_clients: usize) -> Self {
        MockActions {
            me: NodeId(me),
            home: NodeId(n_clients as u16),
            n_nodes: n_clients + 1,
            owner: NodeId(n_clients as u16),
            owner_epoch: 0,
            pending: None,
            pushes: Vec::new(),
            changes: 0,
            installs: 0,
            returns: 0,
            disables: 0,
            enables: 0,
            armed: None,
            votes: 0,
            copy: 0,
            carried: 0,
            agreement: VoteAgreement::default(),
        }
    }

    /// A home-sequencer mock in an `N+1`-node system.
    pub fn sequencer(n_clients: usize) -> Self {
        Self::client(n_clients as u16, n_clients)
    }

    /// Number of physical receivers of push `i` (expanding `except`).
    pub fn fanout(&self, i: usize) -> usize {
        match self.pushes[i].dest {
            Dest::To(_) => 1,
            Dest::AllExcept(_, None) => self.n_nodes - 1,
            Dest::AllExcept(a, Some(b)) => self.n_nodes - if a == b { 1 } else { 2 },
        }
    }

    /// Total communication cost of the recorded pushes under `(s, p)`,
    /// counting only inter-node messages (a `To(me)` push is free).
    pub fn cost(&self, s: u64, p: u64) -> u64 {
        self.pushes
            .iter()
            .enumerate()
            .map(|(i, push)| {
                let unit = match push.payload {
                    PayloadKind::Token => 1,
                    PayloadKind::Params => p + 1,
                    PayloadKind::Copy => s + 1,
                };
                let receivers = match push.dest {
                    Dest::To(n) if n == self.me => 0,
                    _ => self.fanout(i),
                };
                unit * receivers as u64
            })
            .sum()
    }
}

impl Actions for MockActions {
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
        self.owner
    }
    fn set_owner(&mut self, owner: NodeId) {
        self.owner = owner;
    }
    fn owner_epoch(&self) -> u64 {
        self.owner_epoch
    }
    fn set_owner_epoch(&mut self, epoch: u64) {
        self.owner_epoch = epoch;
    }
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind) {
        self.pushes.push(RecordedPush {
            dest,
            kind,
            payload,
        });
    }
    fn change(&mut self) {
        self.changes += 1;
    }
    fn install(&mut self) {
        self.installs += 1;
        self.copy = self.copy.max(self.carried);
    }
    fn ret(&mut self) {
        self.returns += 1;
    }
    fn disable_local(&mut self) {
        self.disables += 1;
    }
    fn enable_local(&mut self) {
        self.enables += 1;
    }
    fn pending_op(&self) -> Option<OpKind> {
        self.pending
    }
    fn quorum_arm(&mut self, need: usize) {
        self.armed = Some(need);
        self.votes = 0;
        self.agreement = VoteAgreement::default();
    }
    fn quorum_vote(&mut self) -> bool {
        let Some(need) = self.armed else { return false };
        self.votes += 1;
        self.agreement.count(self.carried);
        self.votes == need
    }
    fn quorum_unanimous(&self) -> bool {
        self.agreement.unanimous_at(&self.copy)
    }
}

/// Build an application request aimed at `env.me()`.
pub fn app_req(env: &MockActions, op: OpKind) -> repmem_core::Msg {
    let kind = match op {
        OpKind::Read => MsgKind::RReq,
        OpKind::Write => MsgKind::WReq,
    };
    repmem_core::Msg::app_request(
        kind,
        env.me,
        env.me == env.home,
        repmem_core::ObjectId(0),
        repmem_core::OpTag(1),
    )
}

/// Build an inter-node protocol message delivered to `env.me()`.
pub fn net_msg(
    kind: MsgKind,
    initiator: u16,
    sender: u16,
    payload: PayloadKind,
) -> repmem_core::Msg {
    repmem_core::Msg {
        kind,
        initiator: NodeId(initiator),
        sender: NodeId(sender),
        object: repmem_core::ObjectId(0),
        queue: repmem_core::QueueKind::Distributed,
        payload,
        op: repmem_core::OpTag(1),
        epoch: 0,
    }
}
