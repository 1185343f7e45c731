//! # repmem-sim
//!
//! A deterministic discrete-event simulator for the replication-based DSM
//! — the role the multitasking Ada environment of the paper's reference
//! [10] plays in its §5.2 evaluation.
//!
//! The simulated system is the paper's §2 structure, faithfully:
//!
//! * `N+1` nodes; per-object *protocol processes* at every node running
//!   the real Mealy machines from `repmem-protocols`;
//! * fault-free FIFO channels (unit latency, stable tie-breaking);
//! * two input queues per client process (local + distributed) with the
//!   disable/enable mechanism on the local queue; the sequencer's
//!   distributed queue performs the global sequential filtering;
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
//! Replica payloads are modelled as `(value, version)` registers merged
//! by version, so coherence invariants (replica convergence, read
//! freshness) are machine-checkable after every run.

pub mod kernel;
pub mod replicate;
pub mod report;

pub use kernel::{replay, simulate, IssueMode, SimConfig};
pub use replicate::{mean_acc, replication_seeds};
pub use report::{CoherenceCheck, SimReport};
