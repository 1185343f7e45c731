//! The synchronous oracle: executes one shared-memory operation atomically
//! over the real protocol machines.
//!
//! The paper's analysis (§4.2–4.3) treats the global operation sequence as
//! repeated independent trials — each operation runs to completion in the
//! globally sequenced order before the next begins. The oracle realizes
//! exactly that semantics: it drives the initiating Mealy machine and then
//! delivers every message it (transitively) produces, FIFO, until the
//! system is quiescent, summing inter-node message costs along the way.
//! The resulting `(trace, cost)` pair is precisely one of the paper's
//! traces `tr_h` with its trace communication cost `cc_h`.

use repmem_core::{
    Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag,
    PayloadKind, QueueKind, Role, SystemParams, TraceSig,
};
use std::collections::VecDeque;

/// The global copy-state of one shared object across all `N+1` nodes.
///
/// The oracle keeps a *single* owner register: under serialized execution
/// every node's ownership belief is identical after each operation, so
/// the per-node registers of a real deployment collapse to one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Global {
    /// Copy state at each node (index = node id; last = home sequencer).
    pub states: Vec<CopyState>,
    /// The consensus owner register.
    pub owner: NodeId,
}

impl Global {
    /// The initial configuration: every client in the protocol's client
    /// start state, the home sequencer in its sequencer start state,
    /// ownership at home.
    pub fn initial(protocol: &dyn CoherenceProtocol, sys: &SystemParams) -> Self {
        let mut states = vec![protocol.initial_state(Role::Client); sys.n_nodes()];
        states[sys.home().idx()] = protocol.initial_state(Role::Sequencer);
        Global {
            states,
            owner: sys.home(),
        }
    }
}

/// What one atomic operation execution did.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Trace signature: initiator, operation kind, total cost.
    pub sig: TraceSig,
    /// Total communication cost (`cc_h` for this trace).
    pub cost: u64,
    /// Kinds of the inter-node messages, in send order.
    pub kinds: Vec<MsgKind>,
    /// Number of `return`s performed (reads must return exactly once).
    pub rets: u32,
    /// Number of local-copy mutations (`change`) performed system-wide.
    pub changes: u32,
}

struct OracleHost<'a> {
    me: NodeId,
    sys: &'a SystemParams,
    owner: &'a mut NodeId,
    queue: &'a mut VecDeque<(NodeId, Msg)>,
    current: Msg,
    op_node: NodeId,
    op_kind: OpKind,
    cost: &'a mut u64,
    kinds: &'a mut Vec<MsgKind>,
    rets: &'a mut u32,
    changes: &'a mut u32,
    // Quorum vote counter, shared across the cascade (the host is
    // rebuilt per delivered message; one counter pair suffices because
    // the oracle runs one operation — hence one round — at a time).
    votes: &'a mut usize,
    need: &'a mut usize,
}

impl Actions for OracleHost<'_> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn home(&self) -> NodeId {
        self.sys.home()
    }
    fn n_nodes(&self) -> usize {
        self.sys.n_nodes()
    }
    fn owner(&self) -> NodeId {
        *self.owner
    }
    fn set_owner(&mut self, owner: NodeId) {
        *self.owner = owner;
    }
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind) {
        let receivers: Vec<NodeId> = match dest {
            Dest::To(n) => vec![n],
            Dest::AllExcept(a, b) => (0..self.sys.n_nodes() as u16)
                .map(NodeId)
                .filter(|&n| n != a && Some(n) != b)
                .collect(),
        };
        for r in receivers {
            if r != self.me {
                *self.cost += self.sys.msg_cost(payload);
                self.kinds.push(kind);
            }
            let msg = Msg {
                kind,
                initiator: self.current.initiator,
                sender: self.me,
                object: self.current.object,
                queue: QueueKind::Distributed,
                payload,
                op: self.current.op,
                epoch: 0,
            };
            self.queue.push_back((r, msg));
        }
    }
    fn change(&mut self) {
        *self.changes += 1;
    }
    fn install(&mut self) {}
    fn ret(&mut self) {
        *self.rets += 1;
    }
    fn disable_local(&mut self) {}
    fn enable_local(&mut self) {}
    fn pending_op(&self) -> Option<OpKind> {
        if self.me == self.op_node {
            Some(self.op_kind)
        } else {
            None
        }
    }
    fn quorum_arm(&mut self, need: usize) {
        *self.need = need;
        *self.votes = 0;
    }
    fn quorum_vote(&mut self) -> bool {
        *self.votes += 1;
        *self.votes == *self.need
    }
    /// Always unanimous: serialized delivery runs every write's commit
    /// wave to every replica before the next operation starts, so all
    /// replicas hold the last committed write and every vote agrees —
    /// the same argument as the zero owner epochs.
    fn quorum_unanimous(&self) -> bool {
        true
    }
}

/// Execute one operation atomically, mutating `g` to the successor global
/// state and returning the trace outcome.
///
/// # Panics
///
/// Panics if the message cascade does not quiesce within a generous bound
/// (a protocol livelock would be an implementation bug) or if a machine
/// hits one of its *error* entries.
pub fn execute(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    g: &mut Global,
    node: NodeId,
    op: OpKind,
) -> OpOutcome {
    let obj = ObjectId(0);
    let req_kind = match op {
        OpKind::Read => MsgKind::RReq,
        OpKind::Write => MsgKind::WReq,
    };
    let mut queue: VecDeque<(NodeId, Msg)> = VecDeque::new();
    queue.push_back((
        node,
        Msg::app_request(req_kind, node, node == sys.home(), obj, OpTag(0)),
    ));

    let mut cost = 0u64;
    let mut kinds = Vec::new();
    let mut rets = 0u32;
    let mut changes = 0u32;
    let (mut votes, mut need) = (0usize, 0usize);
    let budget = 64 * sys.n_nodes() + 256;
    let mut steps = 0usize;

    while let Some((dst, msg)) = queue.pop_front() {
        steps += 1;
        assert!(
            steps <= budget,
            "{}: operation did not quiesce within {budget} steps ({op:?} at {node})",
            protocol.kind().name()
        );
        let state = g.states[dst.idx()];
        let mut host = OracleHost {
            me: dst,
            sys,
            owner: &mut g.owner,
            queue: &mut queue,
            current: msg,
            op_node: node,
            op_kind: op,
            cost: &mut cost,
            kinds: &mut kinds,
            rets: &mut rets,
            changes: &mut changes,
            votes: &mut votes,
            need: &mut need,
        };
        let next = protocol.step(&mut host, state, &msg);
        g.states[dst.idx()] = next;
    }

    OpOutcome {
        sig: TraceSig {
            initiator: node,
            op,
            cost,
        },
        cost,
        kinds,
        rets,
        changes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::ProtocolKind;
    use repmem_protocols::protocol;

    fn sys() -> SystemParams {
        SystemParams::new(3, 100, 30) // N=3, S=100, P=30 (Table 7 shape)
    }

    /// Drive the Write-Through traces of paper §4.1 end to end.
    #[test]
    fn write_through_trace_set_matches_paper() {
        let sys = sys();
        let wt = protocol(ProtocolKind::WriteThrough);
        let mut g = Global::initial(wt, &sys);
        let ac = NodeId(0);

        // tr2: first read misses, cost S+2.
        let o = execute(wt, &sys, &mut g, ac, OpKind::Read);
        assert_eq!(o.cost, sys.s + 2);
        assert_eq!(o.rets, 1);

        // tr1: second read hits, cost 0.
        let o = execute(wt, &sys, &mut g, ac, OpKind::Read);
        assert_eq!(o.cost, 0);
        assert_eq!(o.rets, 1);

        // tr3: write from VALID, cost P+N.
        let o = execute(wt, &sys, &mut g, ac, OpKind::Write);
        assert_eq!(o.cost, sys.p + sys.n_clients as u64);

        // tr4: write from INVALID (own copy was just invalidated), same.
        let o = execute(wt, &sys, &mut g, ac, OpKind::Write);
        assert_eq!(o.cost, sys.p + sys.n_clients as u64);

        // tr5/tr6: sequencer read free, write costs N.
        let o = execute(wt, &sys, &mut g, sys.home(), OpKind::Read);
        assert_eq!(o.cost, 0);
        let o = execute(wt, &sys, &mut g, sys.home(), OpKind::Write);
        assert_eq!(o.cost, sys.n_clients as u64);
    }

    #[test]
    fn write_through_v_write_costs_p_plus_n_plus_2() {
        let sys = sys();
        let p = protocol(ProtocolKind::WriteThroughV);
        let mut g = Global::initial(p, &sys);
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, sys.p + sys.n_clients as u64 + 2);
        // The writer's copy stays valid: an immediate read is free.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Read);
        assert_eq!(o.cost, 0);
    }

    #[test]
    fn synapse_costs() {
        let sys = sys();
        let p = protocol(ProtocolKind::Synapse);
        let (n, s) = (sys.n_clients as u64, sys.s);
        let mut g = Global::initial(p, &sys);

        // Acquire: S+N+1, then free writes.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, s + n + 1);
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, 0);

        // Remote read of the dirty block: broadcast recall, 2S+N+3.
        let o = execute(p, &sys, &mut g, NodeId(1), OpKind::Read);
        assert_eq!(o.cost, 2 * s + n + 2);
        assert_eq!(o.rets, 1);

        // Synapse invalidated the old owner: its next read misses (S+2).
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Read);
        assert_eq!(o.cost, s + 2);
    }

    #[test]
    fn illinois_costs() {
        let sys = sys();
        let p = protocol(ProtocolKind::Illinois);
        let (n, s) = (sys.n_clients as u64, sys.s);
        let mut g = Global::initial(p, &sys);

        // Acquire from INVALID: S+N+1.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, s + n + 1);

        // Remote read of dirty: targeted recall, 2S+4.
        let o = execute(p, &sys, &mut g, NodeId(1), OpKind::Read);
        assert_eq!(o.cost, 2 * s + 4);

        // Old owner kept a VALID copy: its read is free, and its next
        // write is a cheap upgrade (N+1).
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Read);
        assert_eq!(o.cost, 0);
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, n + 1);
    }

    #[test]
    fn berkeley_activity_center_becomes_sequencer() {
        let sys = sys();
        let p = protocol(ProtocolKind::Berkeley);
        let (n, s) = (sys.n_clients as u64, sys.s);
        let mut g = Global::initial(p, &sys);

        // First write: acquisition from the home owner, S+N+1.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, s + n + 1);
        assert_eq!(g.owner, NodeId(0));

        // Subsequent writes free.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, 0);

        // Disturbing read served by the owner for S+2.
        let o = execute(p, &sys, &mut g, NodeId(1), OpKind::Read);
        assert_eq!(o.cost, s + 2);

        // Owner now SHARED-DIRTY: next write pays one wave (N).
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, n);
    }

    #[test]
    fn update_protocols_write_costs() {
        let sys = sys();
        let (n, pp) = (sys.n_clients as u64, sys.p);
        let d = protocol(ProtocolKind::Dragon);
        let mut g = Global::initial(d, &sys);
        let o = execute(d, &sys, &mut g, NodeId(1), OpKind::Write);
        assert_eq!(o.cost, n * (pp + 1));
        let o = execute(d, &sys, &mut g, NodeId(2), OpKind::Read);
        assert_eq!(o.cost, 0);

        let f = protocol(ProtocolKind::Firefly);
        let mut g = Global::initial(f, &sys);
        let o = execute(f, &sys, &mut g, NodeId(1), OpKind::Write);
        assert_eq!(o.cost, n * (pp + 1) + 1);
    }

    #[test]
    fn write_once_escalation() {
        let sys = sys();
        let p = protocol(ProtocolKind::WriteOnce);
        let (n, s, pp) = (sys.n_clients as u64, sys.s, sys.p);
        let mut g = Global::initial(p, &sys);

        // Populate the writer's copy first.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Read);
        assert_eq!(o.cost, s + 2);
        // First write: write-through, P+N.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, pp + n);
        // Second write: one token.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, 1);
        // Third write: free.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Write);
        assert_eq!(o.cost, 0);
        // Remote read of the dirty copy: targeted recall, 2S+4.
        let o = execute(p, &sys, &mut g, NodeId(1), OpKind::Read);
        assert_eq!(o.cost, 2 * s + 4);
    }

    #[test]
    fn quorum_rounds_are_state_independent() {
        let sys = sys();
        let p = protocol(ProtocolKind::Quorum);
        let (n, s, pp) = (sys.n_clients as u64, sys.s, sys.p);
        let mut g = Global::initial(p, &sys);

        // Every read pays one round — N(S+2) — hit or not: the replicas
        // agree at quiescence, so no read writes back.
        for node in [NodeId(0), NodeId(0), NodeId(2), sys.home()] {
            let o = execute(p, &sys, &mut g, node, OpKind::Read);
            assert_eq!(o.cost, n * (s + 2));
            assert_eq!(o.rets, 1);
            assert!(!o.kinds.contains(&MsgKind::QCommit));
        }
        // Every write pays N(S+P+4) and lands on every replica (the
        // initiator's change plus N commit applications).
        for node in [NodeId(1), NodeId(1), sys.home()] {
            let o = execute(p, &sys, &mut g, node, OpKind::Write);
            assert_eq!(o.cost, n * (s + pp + 4));
            assert_eq!(o.changes, 1 + n as u32);
        }
        // A write leaves every replica on its value: the next read is
        // still one round.
        let o = execute(p, &sys, &mut g, NodeId(0), OpKind::Read);
        assert_eq!(o.cost, n * (s + 2));
        // No state ever leaves VALID at quiescence: the chain engine
        // sees a single global state.
        assert_eq!(g, Global::initial(p, &sys));
    }

    #[test]
    fn reads_always_return_exactly_once() {
        for kind in ProtocolKind::EVERY {
            let sys = sys();
            let p = protocol(kind);
            let mut g = Global::initial(p, &sys);
            for node in [NodeId(0), NodeId(1), sys.home()] {
                for _ in 0..3 {
                    let o = execute(p, &sys, &mut g, node, OpKind::Read);
                    assert_eq!(o.rets, 1, "{kind:?} read at {node}");
                    let o = execute(p, &sys, &mut g, node, OpKind::Write);
                    assert_eq!(o.rets, 0, "{kind:?} write at {node}");
                }
            }
        }
    }

    #[test]
    fn every_write_reaches_the_authoritative_copy() {
        // In serialized execution every protocol propagates a write to at
        // least one copy (change >= 1).
        for kind in ProtocolKind::EVERY {
            let sys = sys();
            let p = protocol(kind);
            let mut g = Global::initial(p, &sys);
            for i in 0..6u16 {
                let node = NodeId(i % sys.n_nodes() as u16);
                let o = execute(p, &sys, &mut g, node, OpKind::Write);
                assert!(o.changes >= 1, "{kind:?}: write applied nowhere");
            }
        }
    }
}
