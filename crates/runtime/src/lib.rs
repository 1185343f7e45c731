//! # repmem-runtime
//!
//! A threaded realization of the replication-based DSM: every node of
//! the paper's §2 system runs the *same* Mealy protocol machines as the
//! analytic model and the simulator, connected by a pluggable
//! [`repmem_net::Transport`]:
//!
//! * [`Cluster::new`] — all `N+1` nodes as threads of one process over
//!   the in-process transport (the original mpsc path).
//! * [`Cluster::with_transport`] — any transport: metered,
//!   fault-injecting, or TCP-loopback meshes plug in without touching
//!   the node loop.
//! * [`remote`] — one node per OS process over the TCP mesh
//!   (Linux-only, like the mesh): the `repmem-node` binary serves a
//!   node, [`remote::RemoteCluster`] launches and drives a full cluster
//!   of them.
//!
//! ```no_run
//! use repmem_runtime::Cluster;
//! use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
//!
//! let sys = SystemParams { n_clients: 4, s: 64, p: 16, m_objects: 8 };
//! let cluster = Cluster::new(sys, ProtocolKind::Berkeley);
//! let h = cluster.handle(NodeId(0));
//! h.write(ObjectId(3), b"hello".as_ref().into()).unwrap();
//! assert_eq!(&h.read(ObjectId(3)).unwrap()[..], b"hello");
//! println!("communication cost so far: {}", cluster.total_cost());
//! cluster.shutdown().unwrap();
//! ```
//!
//! The model's abstract cost units are metered exactly as in the
//! analysis: every inter-node message adds `1`, `P+1` or `S+1` units
//! according to its parameter presence, so a runtime workload's measured
//! cost-per-operation can be compared directly against
//! `repmem-analytic`'s predictions (that comparison is one of the
//! integration tests).

pub mod cluster;
mod node;
#[cfg(target_os = "linux")]
pub mod remote;
pub mod shard;
pub mod step;
mod table;

pub use cluster::{Cluster, ClusterDump, Handle, Ticket, DEFAULT_STOP_DEADLINE};
pub use node::{ClusterError, RecoveryPolicy, ReplicaSnap};
pub use shard::ShardConfig;
pub use step::StepCluster;
pub use table::ENTRY_BYTES;
