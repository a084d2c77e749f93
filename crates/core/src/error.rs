//! Solver error types.

use std::fmt;

/// Failure modes of the direct solver.
#[derive(Clone, Debug)]
pub enum SolverError {
    /// A diagonal LU, or the LU of a reduced system's Schur complement,
    /// hit an exactly-singular pivot (or a non-finite value) at
    /// tree node `node` — the hard form of the §III instability (λ too
    /// small for the spectrum of the block).
    Factorization {
        /// Tree node whose block failed to factorize.
        node: usize,
        /// Underlying dense-LA error.
        source: kfds_la::LaError,
    },
    /// The operation requires a fully skeletonized tree (no level
    /// restriction), but node `node` has no skeleton.
    NotSkeletonized {
        /// Offending tree node.
        node: usize,
    },
    /// The hybrid solver requires every leaf to lie inside the
    /// skeletonization frontier.
    FrontierIncomplete,
    /// The factorization cannot be partitioned into rank-owned subtree
    /// shards (wrong shard count for the tree shape, incomplete
    /// factorization, or a non-contiguous cut).
    Partition {
        /// Human-readable validation failure.
        reason: String,
    },
    /// The [`AssembledBlocks`](crate::AssembledBlocks) handed to a
    /// refactorization were not assembled over this skeleton tree: another
    /// point set, or the same points skeletonized to other ranks.
    BlocksMismatch {
        /// First tree node whose blocks are missing or mis-shaped (the
        /// root when the trees themselves differ).
        node: usize,
    },
    /// The regularizer `λ` is NaN or infinite: every factor and every
    /// solve would be non-finite, so nothing is factorized.
    NonFiniteLambda {
        /// The rejected value.
        lambda: f64,
    },
    /// The factors multiply to a negative `det(λI + K̃)`: the system is
    /// not positive definite, so it has no log-determinant (see
    /// [`FactorTree::log_det`](crate::FactorTree::log_det)).
    NegativeDeterminant,
    /// A right-hand side whose row count is not the problem size.
    RhsShape {
        /// Rows the factorization expects (`N`).
        expected: usize,
        /// Rows (or vector length) the caller passed.
        got: usize,
    },
    /// A class label that is not below the class count.
    LabelOutOfRange {
        /// Position of the label in the caller's label vector.
        index: usize,
        /// The label itself.
        label: usize,
        /// Classes the caller declared (labels must be `0..n_classes`).
        n_classes: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Factorization { node, source } => {
                write!(f, "factorization failed at tree node {node}: {source}")
            }
            SolverError::NotSkeletonized { node } => {
                write!(f, "tree node {node} is not skeletonized (level restriction in effect?)")
            }
            SolverError::FrontierIncomplete => {
                write!(f, "skeletonization frontier does not cover all leaves")
            }
            SolverError::Partition { reason } => {
                write!(f, "factorization cannot be partitioned: {reason}")
            }
            SolverError::BlocksMismatch { node } => {
                write!(f, "assembled blocks do not fit the skeleton tree at node {node}")
            }
            SolverError::NonFiniteLambda { lambda } => {
                write!(f, "the regularizer λ must be finite, got {lambda}")
            }
            SolverError::NegativeDeterminant => {
                write!(f, "det(λI + K̃) is negative: the system is not positive definite")
            }
            SolverError::RhsShape { expected, got } => {
                write!(f, "right-hand side has {got} rows, the factorization has {expected}")
            }
            SolverError::LabelOutOfRange { index, label, n_classes } => {
                write!(f, "label {label} at index {index} is not below the class count {n_classes}")
            }
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Factorization { source, .. } => Some(source),
            _ => None,
        }
    }
}
