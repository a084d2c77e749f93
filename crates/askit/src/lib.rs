//! # kfds-askit — ASKIT-style hierarchical skeletonization
//!
//! Re-implementation of the construction phase the fast direct solver
//! builds on (March, Xiao & Biros \[21\]–\[23\], as summarized in §II-A of the
//! paper): a ball tree orders the kernel matrix; each node is compressed by
//! an interpolative decomposition of a *sampled* off-node block (nearest
//! neighbors for the near field + uniform samples for the far field); the
//! internal-node IDs act on the children's skeletons, giving the nested
//! basis that makes factorization and matvec `O(N log N)`.
//!
//! The crate also provides the treecode matvec `u ↦ (λI + K̃)u` in the
//! same symmetric form (eq. 6) the factorization uses — the factorization
//! must invert exactly this operator, which the tests verify.

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

pub mod config;
pub mod evaluate;
pub mod matvec;
pub mod sampling;
pub mod skeleton;
pub mod skeletonize;

pub use config::SkelConfig;
pub use evaluate::TreecodeEvaluator;
pub use matvec::{approx_error_estimate, exact_matvec, hier_matvec};
pub use skeleton::{NodeSkeleton, SkeletonTree};
pub use skeletonize::{compute_neighbors, skeletonize, skeletonize_with_neighbors};
