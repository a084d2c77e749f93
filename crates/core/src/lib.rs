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
//!   right-hand side, with two `V`-block schemes (stored GEMV, fused
//!   GSKS — Table IV);
//! * [`HybridSolver`] — Algorithms II.6–II.8: partial factorization up to
//!   the skeletonization frontier plus the reduced `2^L s` system (§II-C),
//!   solved by GMRES (assembled or matrix-free) or, as Table V's direct
//!   variant, by one dense LU; the factor keeps the reduced system, so
//!   every solver on it shares one assembly;
//! * [`SharedFactor`] — a factor that owns its skeleton tree and kernel,
//!   behind one `Arc`, for caches and worker threads;
//! * [`dist_factorize`]/[`DistSolver`] — Algorithms II.4/II.5 over the
//!   simulated message-passing runtime;
//! * [`KernelRidge`] — kernel ridge regression, the paper's end-to-end
//!   learning task;
//! * [`estimate_condition`] — the §III conditioning diagnostics.
//!
//! The crate forbids `unsafe`; the raw-pointer views it runs on are `kfds-la`'s.

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

mod assemble;
mod baseline;
mod config;
mod crossval;
mod dist;
mod error;
mod factor;
mod gp;
mod hybrid;
mod partition;
mod precond;
mod reduced;
mod regression;
mod share;
mod solve;
mod stability;

pub use assemble::{assemble_blocks, AssembleStats, AssembledBlocks};
pub use baseline::factorize_baseline;
pub use config::{FactorStats, LevelStats, SolverConfig, StorageMode};
pub use crossval::{grid_search_gaussian, lambda_sweep, KernelRidgeMulti, LambdaSweepEntry};
pub use dist::{dist_factorize, DistSolver};
pub use error::SolverError;
pub use factor::{factorize, factorize_with_blocks, FactorTree};
pub use gp::{GaussianProcess, NoiseSweepEntry};
pub use hybrid::{HybridBlockOutcome, HybridOutcome, HybridSolver, ReducedOperator, ReducedReport};
pub use partition::PartitionedFactor;
pub use precond::solve_exact_preconditioned;
pub use regression::{KernelRidge, TrainReport};
pub use share::{SharedFactor, SharedSetup};
pub use stability::{estimate_condition, estimate_sigma1, ConditionEstimate};

#[cfg(test)]
mod digests;
#[cfg(test)]
mod tests;
