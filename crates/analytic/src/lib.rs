//! # repmem-analytic
//!
//! The paper's analytic performance model (Srbljić & Budin, HPDC 1993,
//! §4): the steady-state **average communication cost per operation**
//!
//! ```text
//! acc = Σ_h π_h · cc_h          (paper eq. 1)
//! ```
//!
//! over a protocol's finite trace set, as a function of the five workload
//! parameters `(p, σ, ξ, a, β)` and the system parameters `(N, S, P)`.
//!
//! Three layers, cross-validated against each other:
//!
//! * [`oracle`] — a synchronous interpreter that executes one shared-memory
//!   operation **atomically** over the real protocol Mealy machines,
//!   returning its trace and communication cost. This is the paper's
//!   "globally sequenced" execution semantics.
//! * [`chain`] — builds the finite Markov chain of global copy-states
//!   under a [`repmem_core::Scenario`] (each operation is an independent
//!   trial, paper §4.2), lumps exchangeable clients exactly, solves for
//!   the stationary distribution (via `repmem-linalg`), and returns `acc`
//!   plus the trace probabilities `π_h`. Because the chain is generated by
//!   running the *executable* machines, it cannot drift from the
//!   implementation.
//! * [`closed`] — hand-derived closed forms: the paper's equations (3),
//!   (4), (5) for Write-Through and our reconstruction of Table 6 for the
//!   other protocols (the printed table is unreadable in the available
//!   scan; see DESIGN.md §4). Property tests pin every closed form to the
//!   chain engine.
//!
//! [`crossover`] reproduces the §5.1 comparison analysis: ideal-workload
//! limits, dominance relations and the protocol crossover lines.

pub mod chain;
pub mod closed;
pub mod composite;
pub mod crossover;
pub mod oracle;
pub mod traces;
pub mod transient;

pub use chain::{analyze, AnalyzeError, ChainResult};
pub use closed::closed_rd;
pub use oracle::{execute, Global, OpOutcome};
pub use traces::{trace_set, TraceInfo};
