//! # repmem-sim
//!
//! A deterministic discrete-event simulator for the replication-based DSM
//! — the role the multitasking Ada environment of the paper's reference
//! [10] plays in its §5.2 evaluation.
//!
//! The kernel drives the runtime's single-threaded `StepCluster` (the
//! node code the threaded runtime runs, over per-link FIFO queues) under
//! a virtual clock; it has no executor of its own. The simulated system
//! is therefore the paper's §2 structure as the runtime realizes it:
//!
//! * `N+1` nodes; per-object protocol processes at every node running
//!   the real Mealy machines from `repmem-protocols` through the one
//!   host core, with the runtime's in-flight window standing in for the
//!   local queue and its disable/enable gating;
//! * fault-free FIFO channels with unit latency, delivered in global
//!   send order;
//! * per-message communication costs `1` / `P+1` / `S+1`, accounted per
//!   operation (= the paper's trace costs).
//!
//! Two issue modes:
//!
//! * [`IssueMode::Serialized`] — one operation in flight globally; the
//!   next operation is issued only after full quiescence. This is exactly
//!   the independent-trials semantics of the analytic model, so measured
//!   `acc` converges to the analytic value with pure sampling error.
//! * [`IssueMode::Concurrent`] — every application process issues its own
//!   stream with random think times (the paper's simulation setup);
//!   operations from different nodes overlap in flight, which is what
//!   produces the small analysis-vs-simulation discrepancies of the
//!   paper's Table 7 (< ±8 %).
//!
//! A write writes its own operation tag, and replicas merge by the
//! runtime's `(version, writer)` stamp, so coherence invariants (replica
//! convergence, read freshness) are machine-checkable after every run.

pub mod kernel;
pub mod replicate;
pub mod report;

pub use kernel::{replay, simulate, IssueMode, SimConfig};
pub use replicate::{mean_acc, replication_seeds};
pub use report::SimReport;
