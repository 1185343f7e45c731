//! Message tokens exchanged between protocol processes.
//!
//! A message consists of a *token* and optional additional parameters.
//! The paper (§3) represents a token as the five-tuple
//! `(type, operation-initiator, object-name, queue, parameter-presence)`;
//! [`Msg`] carries the same five fields plus two host-level fields
//! (`sender` for routing, `op` for per-operation cost attribution) that the
//! paper leaves implicit in its channel structure.

use crate::ids::{NodeId, ObjectId, OpTag};
use serde::{Deserialize, Serialize};

/// The queue a message is (to be) enqueued into (paper's `queue` field).
///
/// Clients have two input queues: a *local* queue fed by the node's own
/// application process and a *distributed* queue fed by other protocol
/// processes. The sequencer has only a distributed queue, which also
/// receives its own application's requests — that queue performs the global
/// sequential filtering of concurrent distributed operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// The client-side local queue (`l`).
    Local,
    /// The distributed queue (`d`).
    Distributed,
}

impl QueueKind {
    /// Both queue kinds, in wire-code order.
    pub const ALL: [QueueKind; 2] = [QueueKind::Local, QueueKind::Distributed];

    /// Stable single-byte code used by wire codecs (`repmem-net`).
    #[inline]
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`QueueKind::wire_code`]; `None` for unknown codes.
    #[inline]
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }
}

/// Parameter presence of a message (paper's `parameter-presence` field),
/// which determines its communication cost:
///
/// | presence | paper symbol | cost |
/// |---|---|---|
/// | [`PayloadKind::Token`]  | `0`  | 1 |
/// | [`PayloadKind::Params`] | `w` (or `r`) | `P+1` |
/// | [`PayloadKind::Copy`]   | `ui` | `S+1` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PayloadKind {
    /// Message token only.
    Token,
    /// Token + write-operation parameters.
    Params,
    /// Token + complete new user-information part of a copy.
    Copy,
}

impl PayloadKind {
    /// All parameter presences, in wire-code order. The order matches the
    /// cost-class buckets (`1`, `P+1`, `S+1`) used by per-link meters.
    pub const ALL: [PayloadKind; 3] = [PayloadKind::Token, PayloadKind::Params, PayloadKind::Copy];

    /// Stable single-byte code used by wire codecs (`repmem-net`); also
    /// the cost-class bucket index.
    #[inline]
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`PayloadKind::wire_code`]; `None` for unknown codes.
    #[inline]
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }
}

/// Message types used across the eight protocols (paper's `type` field).
///
/// The Write-Through protocol uses exactly six of these (`RReq`, `WReq`,
/// `RPer`, `WPer`, `RGnt`, `WInv`); the remaining kinds appear in the other
/// seven adapted protocols (ownership transfer, recall/flush of a dirty
/// copy, retry after a Synapse-style write-back, update broadcasts, plain
/// acknowledgements, and the Write-Once "going dirty" notice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MsgKind {
    /// Application read request (`R-REQ`).
    RReq,
    /// Application write request (`W-REQ`).
    WReq,
    /// Read permission-asking message (`R-PER`).
    RPer,
    /// Write permission-asking message (`W-PER`).
    WPer,
    /// Write-upgrade request: the writer already holds a VALID copy and
    /// only needs exclusivity, not data (Illinois, Berkeley).
    WUpg,
    /// Read grant, carries the user information (`R-GNT`).
    RGnt,
    /// Write grant / ownership grant (may carry the user information).
    WGnt,
    /// Invalidation (`W-INV`).
    WInv,
    /// Update carrying write parameters (Dragon, Firefly).
    Upd,
    /// Demand that a dirty owner flush its copy back so a **read** can be
    /// served (Synapse/Illinois/Write-Once sequencer → owner).
    Recall,
    /// Demand that a dirty owner flush **and invalidate** its copy so an
    /// exclusive (write) grant can be made.
    RecallX,
    /// Write-back of a dirty copy (owner → sequencer) answering a
    /// [`MsgKind::Recall`]; carries the copy.
    Flush,
    /// Write-back answering a [`MsgKind::RecallX`]; the owner invalidates
    /// itself. Carries the copy.
    FlushX,
    /// Tell a requester to re-issue its request (Synapse's two-phase
    /// read-miss service of a dirty block).
    Retry,
    /// Plain acknowledgement token.
    Ack,
    /// Write-Once client → sequencer notice that a RESERVED copy is being
    /// written a second time and the sequencer's copy is now stale.
    DirtyNote,
    /// Quorum phase-1 probe: the initiator asks every peer for its
    /// current version (SC-ABD "get").
    QProbe,
    /// Quorum phase-1 reply: a peer ships its copy (version + data) back
    /// to the initiator.
    QVote,
    /// Quorum phase-2 commit wave: the initiator broadcasts the winning
    /// write parameters (writes) or the freshest copy (the write-back of
    /// a read whose votes disagreed).
    QCommit,
    /// Quorum phase-2 acknowledgement of a commit.
    QAck,
}

impl MsgKind {
    /// Every message kind, in wire-code order ([`MsgKind::wire_code`]
    /// indexes into this array).
    pub const ALL: [MsgKind; 20] = [
        MsgKind::RReq,
        MsgKind::WReq,
        MsgKind::RPer,
        MsgKind::WPer,
        MsgKind::WUpg,
        MsgKind::RGnt,
        MsgKind::WGnt,
        MsgKind::WInv,
        MsgKind::Upd,
        MsgKind::Recall,
        MsgKind::RecallX,
        MsgKind::Flush,
        MsgKind::FlushX,
        MsgKind::Retry,
        MsgKind::Ack,
        MsgKind::DirtyNote,
        MsgKind::QProbe,
        MsgKind::QVote,
        MsgKind::QCommit,
        MsgKind::QAck,
    ];

    /// Stable single-byte code used by wire codecs (`repmem-net`).
    #[inline]
    pub fn wire_code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`MsgKind::wire_code`]; `None` for unknown codes.
    #[inline]
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// `true` for the two application-request kinds that enter via a
    /// node's own queue rather than over a channel.
    #[inline]
    pub fn is_app_request(self) -> bool {
        matches!(self, MsgKind::RReq | MsgKind::WReq)
    }

    /// Short uppercase mnemonic used by transition-table dumps.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MsgKind::RReq => "R-REQ",
            MsgKind::WReq => "W-REQ",
            MsgKind::RPer => "R-PER",
            MsgKind::WPer => "W-PER",
            MsgKind::WUpg => "W-UPG",
            MsgKind::RGnt => "R-GNT",
            MsgKind::WGnt => "W-GNT",
            MsgKind::WInv => "W-INV",
            MsgKind::Upd => "UPD",
            MsgKind::Recall => "RECALL",
            MsgKind::RecallX => "RECALL-X",
            MsgKind::Flush => "FLUSH",
            MsgKind::FlushX => "FLUSH-X",
            MsgKind::Retry => "RETRY",
            MsgKind::Ack => "ACK",
            MsgKind::DirtyNote => "DIRTY-NOTE",
            MsgKind::QProbe => "Q-PROBE",
            MsgKind::QVote => "Q-VOTE",
            MsgKind::QCommit => "Q-COMMIT",
            MsgKind::QAck => "Q-ACK",
        }
    }
}

/// A message token together with the host-level routing/attribution fields.
///
/// `payload` describes *what class of data* travels with the token; the
/// hosts (oracle, simulator, runtime) attach and move the actual data so
/// that the protocol machines stay data-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Msg {
    /// Message type.
    pub kind: MsgKind,
    /// Node whose application process initiated the operation this message
    /// belongs to (paper's `operation-initiator`).
    pub initiator: NodeId,
    /// Node that sent this message (equals the receiver for application
    /// requests popped from a local queue).
    pub sender: NodeId,
    /// The shared object concerned (paper's `object-name`).
    pub object: ObjectId,
    /// Which input queue the message arrived on.
    pub queue: QueueKind,
    /// Parameter presence (cost class).
    pub payload: PayloadKind,
    /// Host-assigned operation tag for cost attribution.
    pub op: OpTag,
    /// Ownership epoch the sender's registers were at when this message
    /// was pushed (see [`crate::Actions::owner_epoch`]). Protocols with
    /// migrating ownership use it to tell a fresh ownership
    /// announcement from one that was delayed in flight; everywhere
    /// else it is zero.
    pub epoch: u64,
}

impl Msg {
    /// Construct an application request (read or write) as it appears at
    /// the head of the issuing node's queue. On a client the request sits
    /// in the local queue; on the sequencer it goes through the
    /// distributed queue (paper §2).
    pub fn app_request(
        kind: MsgKind,
        node: NodeId,
        is_sequencer: bool,
        object: ObjectId,
        op: OpTag,
    ) -> Self {
        debug_assert!(kind.is_app_request());
        Msg {
            kind,
            initiator: node,
            sender: node,
            object,
            queue: if is_sequencer {
                QueueKind::Distributed
            } else {
                QueueKind::Local
            },
            payload: match kind {
                MsgKind::WReq => PayloadKind::Params,
                _ => PayloadKind::Token,
            },
            op,
            epoch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_request_queue_placement() {
        let obj = ObjectId(0);
        let m = Msg::app_request(MsgKind::RReq, NodeId(2), false, obj, OpTag(1));
        assert_eq!(m.queue, QueueKind::Local);
        assert_eq!(m.payload, PayloadKind::Token);
        let m = Msg::app_request(MsgKind::WReq, NodeId(5), true, obj, OpTag(2));
        assert_eq!(m.queue, QueueKind::Distributed);
        assert_eq!(m.payload, PayloadKind::Params);
        assert_eq!(m.initiator, NodeId(5));
        assert_eq!(m.sender, NodeId(5));
    }

    #[test]
    fn app_request_kinds() {
        assert!(MsgKind::RReq.is_app_request());
        assert!(MsgKind::WReq.is_app_request());
        assert!(!MsgKind::RPer.is_app_request());
        assert!(!MsgKind::WInv.is_app_request());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<_> = MsgKind::ALL.iter().map(|k| k.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MsgKind::ALL.len());
    }

    #[test]
    fn wire_codes_round_trip() {
        for (i, &k) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(k.wire_code(), i as u8);
            assert_eq!(MsgKind::from_wire_code(i as u8), Some(k));
        }
        assert_eq!(MsgKind::from_wire_code(MsgKind::ALL.len() as u8), None);
        for &p in &PayloadKind::ALL {
            assert_eq!(PayloadKind::from_wire_code(p.wire_code()), Some(p));
        }
        assert_eq!(PayloadKind::from_wire_code(3), None);
        for &q in &QueueKind::ALL {
            assert_eq!(QueueKind::from_wire_code(q.wire_code()), Some(q));
        }
        assert_eq!(QueueKind::from_wire_code(2), None);
    }
}
