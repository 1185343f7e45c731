//! In-process transport: the runtime's original `std::sync::mpsc` path,
//! extracted behind the [`Transport`] trait.
//!
//! Delivery is a direct call into the destination node's deliver sink
//! from the sender's thread (the sink is an unbounded channel send, so
//! it never blocks). Per-link FIFO order holds because each node loop is
//! single-threaded: its sends to a given peer happen in program order,
//! and the peer's inbox is a FIFO channel.

use crate::{DeliverFn, Endpoint, Envelope, NetError, Transport};
use repmem_core::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared routing table: one deliver sink per node, registered at bind.
struct Mesh {
    sinks: Vec<OnceLock<DeliverFn>>,
}

/// The original mpsc-backed interconnect (see module docs).
pub struct InProcTransport {
    mesh: Arc<Mesh>,
}

impl InProcTransport {
    /// An interconnect for `n` nodes.
    pub fn new(n: usize) -> Self {
        InProcTransport {
            mesh: Arc::new(Mesh {
                sinks: (0..n).map(|_| OnceLock::new()).collect(),
            }),
        }
    }

    /// The scheduler hook: the same `n`-node in-process mesh, but with
    /// every delivery parked in a per-link FIFO queue until the returned
    /// [`SchedHandle`](crate::SchedHandle) releases it. This is the
    /// entry point of the schedule-exploration harness (`repmem-check`);
    /// see [`crate::sched`] for the full semantics.
    pub fn scheduled(n: usize) -> (crate::SchedTransport, crate::SchedHandle) {
        crate::SchedTransport::new(n)
    }
}

impl Transport for InProcTransport {
    fn n_nodes(&self) -> usize {
        self.mesh.sinks.len()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        if node.idx() >= self.mesh.sinks.len() {
            return Err(NetError::Io(format!("no node {node}")));
        }
        if self.mesh.sinks[node.idx()].set(deliver).is_err() {
            return Err(NetError::Io(format!("{node} bound twice")));
        }
        Ok(Box::new(InProcEndpoint {
            mesh: Arc::clone(&self.mesh),
            closed: AtomicBool::new(false),
        }))
    }
}

struct InProcEndpoint {
    mesh: Arc<Mesh>,
    closed: AtomicBool,
}

impl Endpoint for InProcEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(NetError::Closed(to));
        }
        let sink = self
            .mesh
            .sinks
            .get(to.idx())
            .and_then(OnceLock::get)
            .ok_or_else(|| NetError::Io(format!("{to} is not bound")))?;
        sink(env.clone());
        Ok(())
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }
}
