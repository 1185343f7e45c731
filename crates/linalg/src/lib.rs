//! # repmem-linalg
//!
//! The small, self-contained linear-algebra core needed by the analytic
//! steady-state model: dense Gaussian elimination, sparse CSR matrices,
//! and stationary-distribution solvers for finite Markov chains.
//!
//! The paper's performance model reduces every protocol × workload pair to
//! a finite ergodic Markov chain over global copy-states; the average
//! communication cost per operation is an expectation under that chain's
//! stationary distribution. `nalgebra` is not part of this workspace's
//! approved offline dependency set, so the required kernels are
//! implemented here directly (see DESIGN.md §2).

pub mod csr;
pub mod dense;
pub mod stationary;

pub use csr::{Csr, Triplets};
pub use dense::Dense;
pub use stationary::{stationary_dense, stationary_power, StationaryError};

/// Numerical error type shared by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The system matrix is singular (to working precision).
    Singular,
    /// Dimension mismatch between operands.
    DimensionMismatch {
        /// Dimension the operation required.
        expected: usize,
        /// Dimension actually supplied.
        got: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
