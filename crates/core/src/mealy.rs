//! The Mealy-machine formalism for coherence protocols (paper §3).
//!
//! Every replica of a shared object is controlled by a protocol process
//! implemented as a Mealy machine `MM = (Q, Σ, Ω, δ, λ, q0)`:
//!
//! * `Q` — the states of the copy ([`CopyState`]),
//! * `Σ` — the message tokens ([`crate::Msg`]),
//! * `Ω` — output routines, concatenations of seven simple functions
//!   (`pop`, `push`, `except`, `change`, `return`, `disable`, `enable`)
//!   exposed as the [`Actions`] host interface,
//! * `δ`/`λ` — combined in [`CoherenceProtocol::step`], which consumes one
//!   input token, performs the output routine through [`Actions`], and
//!   returns the successor state.
//!
//! One implementation of [`Actions`] — `repmem_protocols::host::Host` —
//! serves every executor: the synchronous analytic oracle and the
//! runtime each drive it through a small `Driver` (where a message leg
//! goes, where a write's version comes from), and the discrete-event
//! simulator runs the runtime's. So the analytic model is faithful to the
//! executable protocol **by construction**, host semantics included.

use crate::ids::NodeId;
use crate::message::{Msg, MsgKind, PayloadKind};
use serde::{Deserialize, Serialize};

/// Whether a protocol process currently plays the client or the sequencer
/// role for its object.
///
/// For most protocols the sequencer is the fixed home node; for Berkeley
/// and Dragon the sequencer role migrates with ownership (paper
/// Appendix A), so the role is a function of the `owner` register rather
/// than of the node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// An ordinary client protocol process.
    Client,
    /// The process performing global sequential filtering for the object.
    Sequencer,
}

/// State of one copy of a shared object — the union of the state sets used
/// by the eight protocols (paper Fig. 1 and Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CopyState {
    /// The copy may be stale; reads must re-fetch.
    Invalid,
    /// The copy is readable (possibly shared with other nodes).
    Valid,
    /// Write-Once: written through exactly once; a further local write
    /// makes it dirty without another write-through.
    Reserved,
    /// The only up-to-date copy; local reads and writes are free.
    Dirty,
    /// Dragon: a reader's copy, kept coherent by update broadcasts.
    SharedClean,
    /// Dragon/Berkeley: the owner's copy while other copies may exist.
    SharedDirty,
    /// Sequencer-only transient state: a recall of a dirty copy is in
    /// flight and further requests are answered with RETRY. Not drawn in
    /// the paper's diagrams (its serialized analysis never observes it),
    /// but required to serialize concurrent recalls correctly.
    Recalling,
    /// Quorum transient state: phase 1 of an SC-ABD round — this node
    /// initiated an operation and is collecting Q-VOTE version replies
    /// from its peers. The local copy may be stale until the round
    /// commits, so the state is not readable.
    Querying,
    /// Quorum transient state: phase 2 of an SC-ABD round — the
    /// initiator has the winning version and is collecting Q-ACKs for
    /// its commit wave.
    Committing,
}

impl CopyState {
    /// Uppercase name as used in the paper's tables and diagrams.
    pub fn name(self) -> &'static str {
        match self {
            CopyState::Invalid => "INVALID",
            CopyState::Valid => "VALID",
            CopyState::Reserved => "RESERVED",
            CopyState::Dirty => "DIRTY",
            CopyState::SharedClean => "SHARED-CLEAN",
            CopyState::SharedDirty => "SHARED-DIRTY",
            CopyState::Recalling => "RECALLING",
            CopyState::Querying => "QUERYING",
            CopyState::Committing => "COMMITTING",
        }
    }

    /// Whether a local read can be satisfied from this copy without
    /// communication.
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(
            self,
            CopyState::Invalid | CopyState::Recalling | CopyState::Querying | CopyState::Committing
        )
    }
}

/// Destination of a `push` output action.
///
/// The paper composes `push` with `except(address-list)`; the only
/// exclusion lists the eight protocols need are "all but me" and "all but
/// me and one other node", so the list is capped at two entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Send to exactly one node.
    To(NodeId),
    /// Send to every node except the listed ones (`push ∘ except`).
    AllExcept(NodeId, Option<NodeId>),
}

/// The host interface through which a protocol machine's output routines
/// act on the world — the paper's seven simple functions plus the
/// identity/topology and ownership registers the adapted protocols need.
///
/// `pop` is implicit: the payload of the message being processed is the
/// "current context"; [`Actions::change`] applies context write
/// parameters to the local replica and [`Actions::install`] replaces the
/// local replica with a context-carried copy.
pub trait Actions {
    /// This protocol process's node id.
    fn me(&self) -> NodeId;
    /// The fixed home sequencer node (node `N`).
    fn home(&self) -> NodeId;
    /// Total number of nodes (`N+1`).
    fn n_nodes(&self) -> usize;

    /// Current owner / sequencer-role holder for this object. Initially
    /// the home node; updated by protocols with migrating ownership and by
    /// the Illinois sequencer to track the dirty copy's address.
    fn owner(&self) -> NodeId;
    /// Update the owner register.
    fn set_owner(&mut self, owner: NodeId);

    /// Ownership epoch register paired with [`Actions::owner`]: the
    /// reign number of the owner the register currently names. A
    /// granting owner bumps it at every ownership transfer, and hosts
    /// stamp outgoing messages with it ([`crate::Msg::epoch`]), so a
    /// receiver can tell a fresh ownership announcement from a stale
    /// one — invalidation waves from *different* grantors share no
    /// FIFO channel, so under concurrency an old wave can arrive after
    /// a newer one. Registers guarded by `msg.epoch >= owner_epoch()`
    /// only ever move forward along the grant chain, which makes
    /// request forwarding terminate at the current owner. No default:
    /// a host that kept every register at zero would run a protocol
    /// whose stale waves and stray flushes always look fresh.
    fn owner_epoch(&self) -> u64;
    /// Update the ownership epoch register.
    fn set_owner_epoch(&mut self, epoch: u64);

    /// `push(destination, message-token, additional-parameters)`: send a
    /// token (optionally composed with `except`). The host attaches the
    /// actual data for `Params` (from the current operation context) and
    /// `Copy` (a snapshot of the sender's local replica).
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind);

    /// `change(parameters-w, user-information)`: apply the write
    /// parameters of the current context to the local replica.
    fn change(&mut self);

    /// `pop(user-information)`: install the copy carried by the message
    /// being processed as the new local replica.
    fn install(&mut self);

    /// `return(parameters-r, user-information)`: deliver read data to the
    /// local application process, completing a read operation.
    fn ret(&mut self);

    /// `disable`: suspend servicing of the local queue until the pending
    /// response arrives.
    fn disable_local(&mut self);

    /// `enable`: resume servicing of the local queue.
    fn enable_local(&mut self);

    /// The operation this node's application process currently has in
    /// flight, if any. Protocols use it to re-issue the right request on
    /// RETRY; the paper's machines carry the same information as pending
    /// additional parameters in the disabled local queue.
    fn pending_op(&self) -> Option<crate::scenario::OpKind>;

    /// Arm a quorum round: reset the vote counter and require `need`
    /// further votes before [`Actions::quorum_vote`] reports the
    /// threshold crossed. Only the quorum family uses this; sequencer
    /// protocols never call it.
    fn quorum_arm(&mut self, need: usize);

    /// Count one vote (or ack) toward the armed quorum round. Returns
    /// `true` exactly when this vote crosses the armed threshold; later
    /// stragglers return `false`. Hosts that track per-operation tags
    /// discard votes for superseded rounds before counting.
    fn quorum_vote(&mut self) -> bool;

    /// Whether the phase-1 round just completed was unanimous: every
    /// vote [`Actions::quorum_vote`] counted since the last
    /// [`Actions::quorum_arm`] carried the same stamp, and that stamp is
    /// the local copy's after installing them. The initiator plus its
    /// counted voters are then a strict majority that already stores
    /// the value a read returns, so the read needs no write-back round
    /// (the Quorum one-round read). No default: a host that answered
    /// `true` without tracking stamps would break atomicity.
    fn quorum_unanimous(&self) -> bool;

    /// The machine has no transition for the message being stepped in
    /// its current state: one of the *error* entries the paper leaves
    /// "not analyzed by the protocol" (Table 1, note 5). The machine
    /// reports `reason` here, produces no output and keeps its state;
    /// the host fails the step (the runtime poisons the cluster, the
    /// analytic oracle panics). No default: a host that ignored it
    /// would run on from a step the protocol does not define.
    fn no_transition(&mut self, reason: String);
}

/// The eight analyzed coherence protocols (paper §1, Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Distributed Write-Through: writes ship parameters to the sequencer
    /// and invalidate **all** other copies, including the writer's own.
    WriteThrough,
    /// Write-Through-V: like Write-Through, but the writer's copy stays
    /// valid at the price of a permission round-trip.
    WriteThroughV,
    /// Write-Once: first write is written through (→ RESERVED), later
    /// writes are local (→ DIRTY).
    WriteOnce,
    /// Synapse: ownership acquired through the sequencer; a remote read of
    /// a dirty block forces a write-back and a retried request.
    Synapse,
    /// Illinois: like Synapse, but the sequencer tracks the dirty owner's
    /// address, serving remote reads without a retry, and a write hit on a
    /// valid copy invalidates without re-fetching data.
    Illinois,
    /// Berkeley: the sequencer role migrates to the last writer.
    Berkeley,
    /// Dragon: update-based; the owner broadcasts write parameters.
    Dragon,
    /// Firefly: update-based through the fixed sequencer.
    Firefly,
    /// Sequencer-free majority-quorum protocol (SC-ABD): every write
    /// runs a two-phase majority round (probe for versions, then commit
    /// the winner), a read one round when the majority it polled agrees
    /// and two otherwise, so there is no sequencer node and a minority
    /// of dead replicas is survivable.
    Quorum,
}

impl ProtocolKind {
    /// The paper's eight sequencer-based protocols, in the paper's
    /// comparison order. The quorum family is deliberately outside this
    /// list: the paper's tables, figures, and region maps are defined
    /// over exactly these eight.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::WriteThrough,
        ProtocolKind::WriteThroughV,
        ProtocolKind::WriteOnce,
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Berkeley,
        ProtocolKind::Dragon,
        ProtocolKind::Firefly,
    ];

    /// Every implemented protocol: the paper's eight plus the
    /// sequencer-free quorum family.
    pub const EVERY: [ProtocolKind; 9] = [
        ProtocolKind::WriteThrough,
        ProtocolKind::WriteThroughV,
        ProtocolKind::WriteOnce,
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Berkeley,
        ProtocolKind::Dragon,
        ProtocolKind::Firefly,
        ProtocolKind::Quorum,
    ];

    /// Human-readable protocol name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::WriteThrough => "Write-Through",
            ProtocolKind::WriteThroughV => "Write-Through-V",
            ProtocolKind::WriteOnce => "Write-Once",
            ProtocolKind::Synapse => "Synapse",
            ProtocolKind::Illinois => "Illinois",
            ProtocolKind::Berkeley => "Berkeley",
            ProtocolKind::Dragon => "Dragon",
            ProtocolKind::Firefly => "Firefly",
            ProtocolKind::Quorum => "Quorum",
        }
    }

    /// Whether the sequencer role migrates with ownership (Berkeley)
    /// instead of staying at the home node. (Our Dragon routes writes
    /// through a fixed sequencer — cost-equivalent to the migrating
    /// formulation for all client-driven workloads; see DESIGN.md §4.)
    pub fn migrating_sequencer(self) -> bool {
        matches!(self, ProtocolKind::Berkeley)
    }

    /// Whether every replica is a first-class voter the protocol polls
    /// directly (the sequencer-free quorum family), as opposed to the
    /// eight sequencer-based protocols, whose waves fan out from a
    /// per-object sequencing point. A polling protocol's replicas can
    /// never be dropped from broadcast waves: a majority is counted
    /// over all of them.
    pub fn polls_all_replicas(self) -> bool {
        matches!(self, ProtocolKind::Quorum)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A coherence protocol: the pair of client/sequencer Mealy machines for
/// one copy of one shared object.
pub trait CoherenceProtocol: Send + Sync {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;

    /// Starting state `q0` for the given role (paper §3: INVALID at
    /// clients, VALID at the sequencer for Write-Through; other protocols
    /// override as per Appendix A).
    fn initial_state(&self, role: Role) -> CopyState;

    /// The node currently playing the sequencer role, from `env`'s view.
    fn sequencer_node(&self, env: &dyn Actions) -> NodeId {
        if self.kind().migrating_sequencer() {
            env.owner()
        } else {
            env.home()
        }
    }

    /// The role `env.me()` currently plays.
    fn role_of(&self, env: &dyn Actions) -> Role {
        if env.me() == self.sequencer_node(env) {
            Role::Sequencer
        } else {
            Role::Client
        }
    }

    /// Combined transition/output function (`δ` and `λ`): process one
    /// input token in `state`, perform the output routine through `env`,
    /// and return the successor state of the local copy.
    ///
    /// A (state, token) combination the protocol marks as *error* — the
    /// paper's protocols do not analyze errors — goes through
    /// [`error_entry`]: no output, the state kept, and the host told.
    fn step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState;
}

/// An *error* entry of `kind`'s transition table: report it through
/// [`Actions::no_transition`] and keep `state`. Reaching one means a peer
/// or the host sent a message this machine cannot take.
#[cold]
#[inline(never)]
pub fn error_entry(
    kind: ProtocolKind,
    env: &mut dyn Actions,
    state: CopyState,
    msg: &Msg,
) -> CopyState {
    env.no_transition(format!(
        "{} protocol error: no transition from state {} on {} (initiator {}, sender {}, queue {:?})",
        kind.name(),
        state.name(),
        msg.kind.mnemonic(),
        msg.initiator,
        msg.sender,
        msg.queue,
    ));
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_state_names_match_paper() {
        assert_eq!(CopyState::Invalid.name(), "INVALID");
        assert_eq!(CopyState::SharedDirty.name(), "SHARED-DIRTY");
    }

    #[test]
    fn readable_states() {
        assert!(!CopyState::Invalid.readable());
        assert!(!CopyState::Recalling.readable());
        assert!(!CopyState::Querying.readable());
        assert!(!CopyState::Committing.readable());
        for s in [
            CopyState::Valid,
            CopyState::Reserved,
            CopyState::Dirty,
            CopyState::SharedClean,
            CopyState::SharedDirty,
        ] {
            assert!(s.readable(), "{} should be readable", s.name());
        }
    }

    #[test]
    fn eight_protocols() {
        assert_eq!(ProtocolKind::ALL.len(), 8);
        let mut names: Vec<_> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "protocol names must be distinct");
    }

    #[test]
    fn only_berkeley_migrates() {
        for p in ProtocolKind::EVERY {
            let expect = matches!(p, ProtocolKind::Berkeley);
            assert_eq!(p.migrating_sequencer(), expect, "{}", p);
        }
    }

    #[test]
    fn every_is_all_plus_quorum() {
        assert_eq!(ProtocolKind::EVERY.len(), 9);
        assert_eq!(&ProtocolKind::EVERY[..8], &ProtocolKind::ALL[..]);
        assert_eq!(ProtocolKind::EVERY[8], ProtocolKind::Quorum);
        let mut names: Vec<_> = ProtocolKind::EVERY.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9, "protocol names must be distinct");
    }
}
