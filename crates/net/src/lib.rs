//! # repmem-net
//!
//! Pluggable transport subsystem for the replication-based DSM runtime.
//!
//! The paper's system model assumes only *fault-free FIFO channels*
//! between the `N+1` nodes; everything else about the interconnect is an
//! implementation detail. This crate makes that channel a first-class,
//! swappable component:
//!
//! * [`Transport`] / [`Endpoint`] — the channel axioms as a trait pair: a
//!   transport wires every node of one cluster to an endpoint, and an
//!   endpoint delivers [`Envelope`] frames reliably and in per-link FIFO
//!   order.
//! * [`InProcTransport`] — the original `std::sync::mpsc` path, extracted
//!   from the runtime: direct in-process delivery, zero copies beyond an
//!   `Arc` bump.
//! * [`EpollTransport`] — real sockets, the one TCP mesh ([`mesh`]): a
//!   hand-rolled length-prefixed binary codec ([`codec`]) for the
//!   paper's five-tuple message token plus `params`/`copy` payloads, one
//!   TCP stream per node pair (dialer = lower id) so the stream order
//!   *is* the link FIFO order, all of an endpoint's links on one epoll
//!   event loop with one write per link per flush, and a retrying
//!   dial/hello handshake so a full cluster can run as separate OS
//!   processes. Links are fail-stop: a dead stream is never redialled.
//!   Linux-only, like the [`epoll`] bindings under it.
//! * [`MeteredTransport`] — per-link message/byte counters bucketed by
//!   the paper's cost classes (`1`, `P+1`, `S+1`), so measured wire
//!   traffic can be reconciled against the analytic cost model.
//! * [`FaultTransport`] — scripted fault injection: kill endpoints and
//!   stretch delivery at exact send counts, with FIFO order preserved on
//!   every link — the harness behind the runtime's dead-peer guarantees.
//! * [`SchedLinks`] — the in-proc mesh as plain data for a scheduler:
//!   sends (through a [`SchedEndpoint`]) park in per-link FIFO queues
//!   and the links' owner decides which link delivers next, so a checker
//!   can enumerate every interleaving the FIFO-channel axioms admit (plus
//!   inject [`SchedAction`]s at chosen points). Not a [`Transport`]: it
//!   calls no sink, and cloning it copies the whole network. The
//!   substrate of the runtime's `StepCluster`, hence of the
//!   `repmem-check` explorer and the discrete-event simulator.
//!
//! Wrappers compose: `MeteredTransport::new(FaultTransport::new(...))`
//! meters the faulted link.

pub mod codec;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod fault;
pub mod inproc;
#[cfg(target_os = "linux")]
pub mod mesh;
pub mod metered;
pub mod sched;

pub use codec::{CodecError, Frame, FrameBuf, MAX_FRAME_LEN, WIRE_VERSION};
pub use fault::{FaultHandle, FaultSchedule, FaultTransport};
pub use inproc::InProcTransport;
#[cfg(target_os = "linux")]
pub use mesh::{CtrlConn, CtrlHandler, EpollEndpoint, EpollTransport, MeshConfig, CTRL_NODE};
pub use metered::{ClassCounters, LinkSnapshot, MeterHandle, MeterStats, MeteredTransport};
pub use sched::{SchedAction, SchedEndpoint, SchedLinks};

use bytes::Bytes;
use repmem_core::{Msg, NodeId};

/// Versioned user-information payload travelling with a message token.
///
/// `version` is the write's position in the cluster-wide stamp order and
/// `writer` the node that issued it; together they form a unique,
/// totally-ordered write id used by the runtime's last-writer-wins merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    /// The user-information bytes (write parameters or a full copy).
    pub data: Bytes,
    /// Stamp-order version of the write that produced this data.
    pub version: u64,
    /// Node whose write produced this data.
    pub writer: NodeId,
}

impl Payload {
    /// The pristine (never written) payload every replica starts from.
    pub fn initial() -> Self {
        Payload {
            data: Bytes::new(),
            version: 0,
            writer: NodeId(0),
        }
    }

    /// Totally-ordered write id `(version, writer)`: the merge key for
    /// last-writer-wins replica updates.
    #[inline]
    pub fn stamp(&self) -> (u64, NodeId) {
        (self.version, self.writer)
    }
}

/// A message envelope on a link: the five-tuple token plus optional data
/// parts and a piggybacked version clock.
///
/// `clock` carries the sender's version high-water mark on *every*
/// frame (including token-only ones, where it adds no model cost); it is
/// how separate OS processes keep their write-version stamps ahead of
/// every write they have heard about, without a shared counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The message token (paper's five-tuple plus host fields).
    pub msg: Msg,
    /// Write-operation parameters, when `msg.payload` is `Params`.
    pub params: Option<Payload>,
    /// Full user-information copy, when `msg.payload` is `Copy`.
    pub copy: Option<Payload>,
    /// Sender's version high-water mark (Lamport-style piggyback).
    pub clock: u64,
}

/// Transport-layer failures.
///
/// Short of an I/O or codec error, a failed send means one of two
/// things, and neither heals. `Closed`: this endpoint itself has shut
/// down, so the node is on its way out and the envelope is not needed.
/// `Down(n)`: node `n` is gone for good — the TCP mesh says so when the
/// stream to `n` died, the fault layers when a script killed `n` (a
/// killed sender is told `Down` of itself). Links are fail-stop and
/// nodes crash-stop, so nobody retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// This endpoint has been closed; the send to `NodeId` was refused.
    Closed(NodeId),
    /// The node is permanently unreachable: its link died, or a fault
    /// layer killed it.
    Down(NodeId),
    /// Socket-level failure.
    Io(String),
    /// Malformed frame on the wire.
    Codec(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed(n) => write!(f, "endpoint closed, send to {n} refused"),
            NetError::Down(n) => write!(f, "{n} is permanently unreachable"),
            NetError::Io(e) => write!(f, "transport i/o error: {e}"),
            NetError::Codec(e) => write!(f, "wire codec error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Sink invoked by a transport for every envelope arriving at a node.
///
/// Calls happen in per-link FIFO order; the callee must not block for
/// long (the runtime's sink is an unbounded channel send).
pub type DeliverFn = Box<dyn Fn(Envelope) + Send + Sync>;

/// One node's attachment point to the interconnect.
///
/// Implementations guarantee reliable, per-link FIFO delivery: two
/// envelopes sent to the same destination arrive in send order. Sends to
/// the endpoint's own node loop back through the local deliver sink,
/// preserving the same ordering guarantee.
pub trait Endpoint: Send + Sync {
    /// Send one envelope to `to` (which may be the local node).
    ///
    /// The TCP mesh only appends the envelope to the link's outbound
    /// burst; [`Endpoint::flush`] puts it on the wire. The in-process
    /// endpoints deliver eagerly and their `flush` is a no-op — FIFO
    /// order per link holds either way.
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError>;

    /// Push any buffered outbound envelopes onto the wire. Callers that
    /// are about to block on their inbox **must** flush first, or a
    /// buffering endpoint can deadlock the cluster.
    fn flush(&self) -> Result<(), NetError> {
        Ok(())
    }

    /// Tear the endpoint down; in-flight deliveries may still land, but
    /// further sends fail with [`NetError::Closed`].
    fn close(&self) {}
}

/// A factory wiring every node of one cluster to an [`Endpoint`].
///
/// `bind` is called once per node (in any order) before traffic starts;
/// incoming envelopes for that node are handed to its `deliver` sink.
pub trait Transport {
    /// Number of nodes this transport interconnects.
    fn n_nodes(&self) -> usize;

    /// Attach `node` and return its endpoint.
    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError>;
}
