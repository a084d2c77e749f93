//! # kfds-core — an `O(N log N)` parallel fast direct solver for kernel
//! matrices
//!
//! From-scratch implementation of Yu, March & Biros (IPDPS 2017):
//! approximate factorization of the regularized kernel matrix `λI + K`
//! through the recursive Sherman–Morrison–Woodbury formula over an
//! ASKIT-style hierarchical (skeletonized) representation.
//!
//! * [`factorize`] — the paper's contribution: Algorithm II.2 with the
//!   telescoped `P̂_{αα̃}` of eq. (10), `O(s²N log N)` work;
//! * [`factorize_baseline`] — the `O(N log² N)` INV-ASKIT scheme (\[36\])
//!   producing identical factors, for the Table III comparison;
//! * [`FactorTree::solve_in_place`] — Algorithm II.3, `O(sN log N)` per
//!   right-hand side, with three `V`-block schemes (stored GEMV,
//!   recomputed GEMM, fused GSKS — Table IV);
//! * [`HybridSolver`] — Algorithms II.6–II.8: partial factorization up to
//!   the skeletonization frontier plus matrix-free GMRES on the reduced
//!   `2^L s` system (§II-C);
//! * [`dist_factorize`]/[`DistSolver`] — Algorithms II.4/II.5 over the
//!   simulated message-passing runtime;
//! * [`KernelRidge`] — kernel ridge regression, the paper's end-to-end
//!   learning task;
//! * [`stability`] — the §III conditioning diagnostics.

pub mod assemble;
pub mod baseline;
pub mod config;
pub mod crossval;
pub mod dist;
pub mod error;
pub mod factor;
pub mod gp;
pub mod hybrid;
pub mod leveldirect;
pub mod partition;
pub mod precond;
pub mod regression;
pub mod share;
pub mod solve;
pub mod stability;

pub use assemble::{assemble_blocks, refactor_enabled, AssembleStats, AssembledBlocks, NodeBlocks};
pub use baseline::factorize_baseline;
pub use config::{FactorStats, LeafFactorization, LevelStats, SolverConfig, StorageMode, WStorage};
pub use crossval::{
    grid_search_gaussian, lambda_sweep, train_best_gaussian, KernelRidgeMulti, LambdaSweepEntry,
};
pub use dist::{dist_factorize, DistSolver};
pub use error::SolverError;
pub use factor::{factorize, factorize_with_blocks, FactorTree, LeafFactor, NodeFactors};
pub use gp::{GaussianProcess, NoiseSweepEntry};
pub use hybrid::{HybridBlockOutcome, HybridOutcome, HybridSolver, ReducedOperator, ReducedReport};
pub use leveldirect::LevelRestrictedDirect;
pub use partition::PartitionedFactor;
pub use precond::{solve_exact_preconditioned, FactorPreconditioner};
pub use regression::{KernelRidge, TrainReport};
pub use share::{SharedFactor, SharedSetup};
pub use stability::{estimate_condition, estimate_sigma1, ConditionEstimate};

#[cfg(test)]
mod tests;
