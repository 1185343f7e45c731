//! # repmem — data-replication based distributed shared memory
//!
//! A complete implementation and analytical performance model of the
//! replication-based DSM of **Srbljić & Budin, “Analytical Performance
//! Evaluation of Data Replication Based Shared Memory Model”, HPDC 1993**:
//! eight coherence protocols as Mealy machines, a synchronous analytic
//! engine that derives each protocol's steady-state communication cost
//! under the paper's five-parameter workload model, a discrete-event
//! simulator, a threaded DSM runtime, and a self-tuning protocol
//! selector.
//!
//! This crate is a facade that re-exports the workspace's crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `repmem-core` | ids, message tokens, Mealy formalism, workload scenarios |
//! | [`protocols`] | `repmem-protocols` | the eight coherence protocols |
//! | [`analytic`] | `repmem-analytic` | chain engine, closed forms, crossover analysis |
//! | [`sim`] | `repmem-sim` | deterministic discrete-event simulator |
//! | [`net`] | `repmem-net` | pluggable transports: in-process, TCP, metered, delayed |
//! | [`runtime`] | `repmem-runtime` | threaded DSM cluster with a blocking API |
//! | [`workload`] | `repmem-workload` | synthetic & application-shaped workloads |
//! | [`adaptive`] | `repmem-adaptive` | workload estimation and protocol selection |
//! | [`linalg`] | `repmem-linalg` | dense/sparse kernels, stationary solvers |
//!
//! ## Quick taste
//!
//! Predict the steady-state average communication cost per operation of
//! every protocol under a read-disturbance workload, then confirm by
//! simulation:
//!
//! ```
//! use repmem::prelude::*;
//!
//! let sys = SystemParams::new(8, 100, 30); // N=8 clients, S=100, P=30
//! let workload = Scenario::read_disturbance(0.3, 0.05, 4).unwrap();
//!
//! // Analytic prediction (paper §4).
//! let pred = analyze(protocol(ProtocolKind::Berkeley), &sys, &workload).unwrap();
//!
//! // Discrete-event simulation (paper §5.2).
//! let cfg = SimConfig {
//!     sys,
//!     protocol: ProtocolKind::Berkeley,
//!     mode: IssueMode::Serialized,
//!     warmup_ops: 500,
//!     measured_ops: 4000,
//!     seed: 7,
//! };
//! let sim = simulate(&cfg, &workload);
//! let rel = (sim.acc() - pred.acc).abs() / pred.acc;
//! assert!(rel < 0.1, "analysis {} vs simulation {}", pred.acc, sim.acc());
//! ```

pub use repmem_adaptive as adaptive;
pub use repmem_analytic as analytic;
pub use repmem_core as core;
pub use repmem_linalg as linalg;
pub use repmem_net as net;
pub use repmem_protocols as protocols;
pub use repmem_runtime as runtime;
pub use repmem_sim as sim;
pub use repmem_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use repmem_adaptive::{plan, Classifier, Phase, WorkloadEstimator};
    pub use repmem_analytic::chain::{analyze, ChainResult};
    pub use repmem_analytic::closed;
    pub use repmem_analytic::oracle::{execute, Global};
    pub use repmem_core::{
        ActorSpec, CoherenceProtocol, CopyState, NodeId, ObjectId, OpKind, ProtocolKind, Role,
        Scenario, SystemParams,
    };
    pub use repmem_protocols::{all_protocols, protocol};
    pub use repmem_runtime::{Cluster, ClusterDump, ClusterError, Handle, ShardConfig, Ticket};
    pub use repmem_sim::{replay, simulate, IssueMode, SimConfig, SimReport};
    pub use repmem_workload::{per_node_mix, OpEvent, ScenarioSampler};
}
