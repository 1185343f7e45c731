//! # repmem-core
//!
//! Core vocabulary and formal model for a **data-replication based
//! distributed shared memory** (DSM), following Srbljić & Budin,
//! *Analytical Performance Evaluation of Data Replication Based Shared
//! Memory Model*, HPDC 1993.
//!
//! The system consists of `N+1` nodes — `N` *clients* plus one
//! *sequencer* — connected by fault-free FIFO channels. The global address
//! space is decomposed into `M` disjoint shared objects, each fully
//! replicated at every node. Every replica is managed by a *protocol
//! process* formalized as a Mealy machine ([`CoherenceProtocol`]) whose
//! output routines are concatenations of seven primitive functions
//! (`pop`, `push`, `except`, `change`, `return`, `disable`, `enable`),
//! exposed here as the [`Actions`] trait.
//!
//! This crate defines only the *shared formal model*; the concrete
//! protocol machines live in `repmem-protocols`, the analytic engine in
//! `repmem-analytic`, and the executable hosts (discrete-event simulator,
//! threaded runtime) in `repmem-sim` / `repmem-runtime`.
//!
//! ## Cost model (paper §4.1)
//!
//! Every inter-node message is charged by its *parameter presence*:
//!
//! * token only → `1` unit,
//! * token + write-operation parameters → `P+1` units,
//! * token + full user information (a copy of the object) → `S+1` units,
//! * any intra-node action → `0` units.

pub mod ids;
pub mod mealy;
pub mod message;
pub mod params;
pub mod scenario;
pub mod trace;

pub use ids::{NodeId, ObjectId, OpTag};
pub use mealy::{
    all_except, protocol_error, Actions, CoherenceProtocol, CopyState, Dest, ProtocolKind, Role,
    VoteAgreement,
};
pub use message::{Msg, MsgKind, PayloadKind, QueueKind};
pub use params::SystemParams;
pub use scenario::{ActorSpec, OpKind, Scenario, ScenarioError};
pub use trace::TraceSig;
