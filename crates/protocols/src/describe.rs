//! Transition-table introspection: regenerates the paper's Tables 1–3
//! (and their analogues for the other seven protocols) directly from the
//! executable machines.
//!
//! Every `(state, input-token)` pair is fed to the machine under a
//! recording host; pairs the protocol treats as *error* (the paper's `E`
//! entries — "errors are not analyzed by the given protocol") are shown
//! as such.

use crate::testutil::MockActions;
use repmem_core::{
    Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag,
    PayloadKind, QueueKind, Role,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One input symbol of the Mealy machine's alphabet: a message-token kind
/// with its parameter presence (and, for RETRY, the pending operation the
/// retried client re-issues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSym {
    /// Message kind.
    pub kind: MsgKind,
    /// Parameter presence.
    pub payload: PayloadKind,
    /// Pending application operation, where it affects the transition.
    pub pending: Option<OpKind>,
}

impl InputSym {
    fn label(&self) -> String {
        let presence = match self.payload {
            PayloadKind::Token => "0",
            PayloadKind::Params => "w",
            PayloadKind::Copy => "ui",
        };
        match self.pending {
            Some(OpKind::Read) => format!("{}/{presence} (pend r)", self.kind.mnemonic()),
            Some(OpKind::Write) => format!("{}/{presence} (pend w)", self.kind.mnemonic()),
            None => format!("{}/{presence}", self.kind.mnemonic()),
        }
    }
}

/// One resolved table entry.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Machine state before the input.
    pub state: CopyState,
    /// The input symbol.
    pub input: InputSym,
    /// Successor state, or `None` for an *error* entry.
    pub next: Option<CopyState>,
    /// The output routine, as a `;`-joined action list.
    pub actions: String,
}

/// The input alphabet enumerated for table generation.
pub fn input_alphabet() -> Vec<InputSym> {
    use MsgKind::*;
    use PayloadKind::*;
    let mut v = vec![
        InputSym {
            kind: RReq,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: WReq,
            payload: Params,
            pending: None,
        },
        InputSym {
            kind: RPer,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: WPer,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: WPer,
            payload: Params,
            pending: None,
        },
        InputSym {
            kind: WUpg,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: RGnt,
            payload: Copy,
            pending: None,
        },
        InputSym {
            kind: WGnt,
            payload: Copy,
            pending: None,
        },
        InputSym {
            kind: WGnt,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: WInv,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: Upd,
            payload: Params,
            pending: None,
        },
        InputSym {
            kind: Recall,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: RecallX,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: Flush,
            payload: Copy,
            pending: None,
        },
        InputSym {
            kind: FlushX,
            payload: Copy,
            pending: None,
        },
        InputSym {
            kind: DirtyNote,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: QProbe,
            payload: Token,
            pending: None,
        },
        InputSym {
            kind: QCommit,
            payload: Params,
            pending: None,
        },
        InputSym {
            kind: QCommit,
            payload: Copy,
            pending: None,
        },
    ];
    v.push(InputSym {
        kind: Retry,
        payload: Token,
        pending: Some(OpKind::Read),
    });
    v.push(InputSym {
        kind: Retry,
        payload: Token,
        pending: Some(OpKind::Write),
    });
    // Quorum vote/ack handling depends on which operation the initiator
    // has pending, like RETRY.
    for kind in [QVote, QAck] {
        let payload = if kind == QVote { Copy } else { Token };
        for pending in [OpKind::Read, OpKind::Write] {
            v.push(InputSym {
                kind,
                payload,
                pending: Some(pending),
            });
        }
    }
    v
}

/// All copy states, in display order.
pub const ALL_STATES: [CopyState; 9] = [
    CopyState::Invalid,
    CopyState::Valid,
    CopyState::Reserved,
    CopyState::Dirty,
    CopyState::SharedClean,
    CopyState::SharedDirty,
    CopyState::Recalling,
    CopyState::Querying,
    CopyState::Committing,
];

/// A host that renders output actions as the paper's routine notation.
struct RecordingActions {
    inner: MockActions,
    log: Vec<String>,
}

impl RecordingActions {
    fn new(role: Role, n_clients: usize) -> Self {
        let inner = match role {
            Role::Client => MockActions::client(0, n_clients),
            Role::Sequencer => MockActions::sequencer(n_clients),
        };
        RecordingActions {
            inner,
            log: Vec::new(),
        }
    }
}

impl Actions for RecordingActions {
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn home(&self) -> NodeId {
        self.inner.home()
    }
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }
    fn owner(&self) -> NodeId {
        self.inner.owner()
    }
    fn set_owner(&mut self, owner: NodeId) {
        self.log.push(format!("owner←{owner}"));
        self.inner.set_owner(owner);
    }
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind) {
        let presence = match payload {
            PayloadKind::Token => "0",
            PayloadKind::Params => "w",
            PayloadKind::Copy => "ui",
        };
        let to = match dest {
            Dest::To(n) => format!("{n}"),
            Dest::AllExcept(a, None) => format!("except({a})"),
            Dest::AllExcept(a, Some(b)) => format!("except({a},{b})"),
        };
        self.log
            .push(format!("push({to}, {}/{presence})", kind.mnemonic()));
        self.inner.push(dest, kind, payload);
    }
    fn change(&mut self) {
        self.log.push("change".into());
        self.inner.change();
    }
    fn install(&mut self) {
        self.log.push("pop(ui)".into());
        self.inner.install();
    }
    fn ret(&mut self) {
        self.log.push("return".into());
        self.inner.ret();
    }
    fn disable_local(&mut self) {
        self.log.push("disable".into());
        self.inner.disable_local();
    }
    fn enable_local(&mut self) {
        self.log.push("enable".into());
        self.inner.enable_local();
    }
    fn pending_op(&self) -> Option<OpKind> {
        self.inner.pending_op()
    }
    fn quorum_arm(&mut self, need: usize) {
        self.log.push(format!("arm({need})"));
        self.inner.quorum_arm(need);
    }
    fn quorum_vote(&mut self) -> bool {
        // Probing feeds one symbol at a time, so treat every vote as the
        // threshold-crossing one: the rendered entry shows the full
        // output routine of the decisive vote.
        self.inner.quorum_arm(1);
        self.log.push("vote".into());
        self.inner.quorum_vote()
    }
    fn quorum_unanimous(&self) -> bool {
        // Every mock replica holds stamp 0, so the decisive vote agrees:
        // the rendered read entry is the one-round read.
        self.inner.quorum_unanimous()
    }
}

/// Probe one `(state, input)` pair of a machine; `None` = error entry.
pub fn probe(
    protocol: &dyn CoherenceProtocol,
    role: Role,
    state: CopyState,
    input: InputSym,
) -> TableEntry {
    let n_clients = 4;
    let mut env = RecordingActions::new(role, n_clients);
    env.inner.pending = input.pending;
    let me = env.me();
    let is_seq_node = role == Role::Sequencer;
    // Application requests originate locally; other tokens arrive from a
    // plausible peer (a client for the sequencer's table, the home node
    // for a client's table).
    let (initiator, sender, queue) = if input.kind.is_app_request() {
        (
            me,
            me,
            if is_seq_node {
                QueueKind::Distributed
            } else {
                QueueKind::Local
            },
        )
    } else {
        let peer = if is_seq_node { NodeId(1) } else { env.home() };
        let init = if is_seq_node { NodeId(1) } else { me };
        (init, peer, QueueKind::Distributed)
    };
    let msg = Msg {
        kind: input.kind,
        initiator,
        sender,
        object: ObjectId(0),
        queue,
        payload: input.payload,
        op: OpTag(0),
        epoch: 0,
    };
    let result = catch_unwind(AssertUnwindSafe(|| protocol.step(&mut env, state, &msg)));
    match result {
        Ok(next) => TableEntry {
            state,
            input,
            next: Some(next),
            actions: env.log.join("; "),
        },
        Err(_) => TableEntry {
            state,
            input,
            next: None,
            actions: String::new(),
        },
    }
}

/// The reachable-states filter: a state belongs in a protocol's table if
/// an application request (read or write) is accepted in it — defensive
/// wildcard arms (e.g. invalidations accepted from any state) do not make
/// a state live on their own.
fn live_states(protocol: &dyn CoherenceProtocol, role: Role) -> Vec<CopyState> {
    let app_inputs = [
        InputSym {
            kind: MsgKind::RReq,
            payload: PayloadKind::Token,
            pending: None,
        },
        InputSym {
            kind: MsgKind::WReq,
            payload: PayloadKind::Params,
            pending: None,
        },
    ];
    ALL_STATES
        .iter()
        .copied()
        .filter(|&s| {
            app_inputs
                .iter()
                .any(|&i| probe(protocol, role, s, i).next.is_some())
        })
        .collect()
}

/// Render the full transition table for one role of one protocol, in the
/// spirit of the paper's Table 1/Table 3.
pub fn transition_table(protocol: &dyn CoherenceProtocol, role: Role) -> String {
    // Silence the intentional panics of error entries.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let states = live_states(protocol, role);
    let inputs = input_alphabet();
    let mut out = String::new();
    let role_name = match role {
        Role::Client => "client",
        Role::Sequencer => "sequencer",
    };
    out.push_str(&format!(
        "{} — {} machine (start: {})\n",
        protocol.kind().name(),
        role_name,
        protocol.initial_state(role).name()
    ));
    for state in &states {
        out.push_str(&format!("  state {}\n", state.name()));
        for &input in &inputs {
            let e = probe(protocol, role, *state, input);
            match e.next {
                Some(next) => {
                    let actions = if e.actions.is_empty() {
                        "—".to_string()
                    } else {
                        e.actions
                    };
                    out.push_str(&format!(
                        "    {:<22} -> {:<13} [{}]\n",
                        input.label(),
                        next.name(),
                        actions
                    ));
                }
                None => { /* error entry: omitted like the paper's E cells */ }
            }
        }
    }
    std::panic::set_hook(prev_hook);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{protocol, WriteThrough};
    use repmem_core::ProtocolKind;

    #[test]
    fn write_through_client_table_matches_paper_table_1() {
        // Paper Table 1: the client machine has exactly states
        // INVALID/VALID; read hit returns locally; write always goes to
        // the sequencer with parameters and leaves the copy INVALID.
        let e = probe(
            &WriteThrough,
            Role::Client,
            CopyState::Valid,
            InputSym {
                kind: MsgKind::RReq,
                payload: PayloadKind::Token,
                pending: None,
            },
        );
        assert_eq!(e.next, Some(CopyState::Valid));
        assert_eq!(e.actions, "return");

        let e = probe(
            &WriteThrough,
            Role::Client,
            CopyState::Valid,
            InputSym {
                kind: MsgKind::WReq,
                payload: PayloadKind::Params,
                pending: None,
            },
        );
        assert_eq!(e.next, Some(CopyState::Invalid));
        assert!(e.actions.contains("push(n4, W-PER/w)"));
    }

    #[test]
    fn error_entries_are_detected() {
        let e = probe(
            &WriteThrough,
            Role::Client,
            CopyState::Valid,
            InputSym {
                kind: MsgKind::Flush,
                payload: PayloadKind::Copy,
                pending: None,
            },
        );
        assert_eq!(e.next, None);
    }

    #[test]
    fn live_state_sets_match_paper() {
        // WT: client {I,V}, sequencer {V}.
        assert_eq!(
            live_states(&WriteThrough, Role::Client),
            vec![CopyState::Invalid, CopyState::Valid]
        );
        assert_eq!(
            live_states(&WriteThrough, Role::Sequencer),
            vec![CopyState::Valid]
        );
        // Synapse client: {I,V,D}.
        let syn = protocol(ProtocolKind::Synapse);
        assert_eq!(
            live_states(syn, Role::Client),
            vec![CopyState::Invalid, CopyState::Valid, CopyState::Dirty]
        );
        // Dragon: single state per role.
        let d = protocol(ProtocolKind::Dragon);
        assert_eq!(live_states(d, Role::Client), vec![CopyState::SharedClean]);
        assert_eq!(
            live_states(d, Role::Sequencer),
            vec![CopyState::SharedDirty]
        );
    }

    #[test]
    fn all_protocols_render_tables() {
        for p in crate::all_protocols() {
            for role in [Role::Client, Role::Sequencer] {
                let t = transition_table(p, role);
                assert!(t.contains("state"), "{}: empty table\n{t}", p.kind());
            }
        }
    }
}
