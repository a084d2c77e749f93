//! # kernel-fds — an `O(N log N)` parallel fast direct solver for kernel
//! matrices
//!
//! A from-scratch Rust reproduction of *“An N log N Parallel Fast Direct
//! Solver for Kernel Matrices”* (Chenhan D. Yu, William B. March, George
//! Biros — IPDPS 2017, arXiv:1701.02324), including every substrate the
//! paper builds on: ASKIT-style skeletonization, interpolative
//! decompositions over a rank-revealing pivoted QR, ball trees and exact
//! kNN, a GSKS-style fused matrix-free kernel summation, GMRES, and a
//! simulated message-passing runtime for the distributed algorithms.
//!
//! ## Quickstart
//!
//! ```
//! use kernel_fds::prelude::*;
//!
//! // 1. Points with low intrinsic dimension (the compressible regime).
//! let points = datasets::normal_embedded(1024, 3, 8, 0.05, 42);
//!
//! // 2. Hierarchical representation: ball tree + skeletonization.
//! let kernel = Gaussian::new(1.0);
//! let tree = BallTree::build(&points, 64);
//! let st = skeletonize(tree, &kernel, SkelConfig::default().with_tol(1e-5));
//!
//! // 3. O(N log N) factorization of λI + K̃ and a direct solve.
//! let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(1.0)).unwrap();
//! let b = vec![1.0; 1024];
//! let x = ft.solve(&b).unwrap();
//!
//! // 4. Verify: the factorization inverts the compressed operator.
//! let xp = st.tree().permute_vec(&x);
//! let bp = st.tree().permute_vec(&b);
//! let applied = hier_matvec(&st, &kernel, 1.0, &xp);
//! let err: f64 = applied.iter().zip(&bp).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt()
//!     / bp.iter().map(|v| v * v).sum::<f64>().sqrt();
//! assert!(err < 1e-8);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`la`] | dense linear algebra: GEMM, LU, QR, RRQR, interpolative decomposition |
//! | [`tree`] | point sets, ball tree, kNN, synthetic datasets |
//! | [`kernels`] | kernel functions + stored/two-pass/fused (GSKS) summation |
//! | [`askit`] | skeletonization (Algorithm II.1) and the treecode matvec |
//! | [`krylov`] | GMRES (MGS + re-orthogonalization) and CG |
//! | [`rt`] | simulated MPI (thread ranks, communicators, collectives) |
//! | [`solver`] | factorization (II.2), solve (II.3), hybrid (II.6–8), distributed (II.4–5), ridge regression |
//! | [`serve`] | batched solve service: factorization cache + adaptive multi-RHS coalescing |

#![forbid(unsafe_code)]

pub use kfds_askit as askit;
pub use kfds_core as solver;
pub use kfds_kernels as kernels;
pub use kfds_krylov as krylov;
pub use kfds_la as la;
pub use kfds_rt as rt;
pub use kfds_serve as serve;
pub use kfds_tree as tree;

/// Everything a typical user needs, re-exported flat.
pub mod prelude {
    pub use kfds_askit::{
        approx_error_estimate, exact_matvec, hier_matvec, skeletonize, SkelConfig, SkeletonTree,
        TreecodeEvaluator,
    };
    pub use kfds_core::{
        dist_factorize, estimate_condition, estimate_sigma1, factorize, factorize_baseline,
        DistSolver, FactorStats, FactorTree, HybridOutcome, HybridSolver, KernelRidge,
        LeafFactorization, LevelRestrictedDirect, ReducedOperator, ReducedReport, SolverConfig,
        SolverError, StorageMode, WStorage,
    };
    pub use kfds_kernels::{Gaussian, Kernel, Laplacian, Matern32, Polynomial};
    pub use kfds_krylov::{cg, gmres, CgOptions, GmresOptions, LinOp};
    pub use kfds_tree::datasets;
    pub use kfds_tree::{BallTree, PointSet};
}
