//! Blocked multi-RHS solves must agree with column-at-a-time solves.
//!
//! The blocked paths ([`FactorTree::solve_mat_in_place`] and
//! [`HybridSolver::solve_mat_in_place`]) reorganize the same arithmetic
//! into GEMM-shaped sweeps, so each column must match the single-RHS
//! result to tight tolerance; and because every path is deterministic,
//! repeating the identical blocked solve must reproduce itself bitwise.

use kfds_askit::{skeletonize, SkelConfig, SkeletonTree};
use kfds_core::{factorize, HybridSolver, SharedFactor, SolverConfig};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::Arc;

const NRHS: usize = 8;

fn fixture(n: usize, max_level: usize) -> (SkeletonTree, Gaussian) {
    let pts = normal_embedded(n, 3, 8, 0.05, 23);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(64)
            .with_neighbors(8)
            .with_max_level(max_level),
    );
    (st, kernel)
}

fn rhs_matrix(n: usize) -> Mat {
    let mut b = Mat::zeros(n, NRHS);
    for j in 0..NRHS {
        for (i, v) in b.col_mut(j).iter_mut().enumerate() {
            // Deterministic, distinct, O(1)-magnitude columns.
            *v = ((i * (j + 3) + 7) % 31) as f64 / 31.0 - 0.5;
        }
    }
    b
}

fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let den: f64 = want.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

#[test]
fn blocked_direct_solve_matches_columnwise() {
    let n = 1024;
    let (st, kernel) = fixture(n, 1);
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(0.5)).expect("factorize");
    assert!(ft.is_complete(), "fixture must exercise the complete-factorization direct path");

    let b = rhs_matrix(n);
    let mut blocked = b.clone();
    ft.solve_mat_in_place(&mut blocked).expect("blocked solve");

    for j in 0..NRHS {
        let mut single = b.col(j).to_vec();
        ft.solve_in_place(&mut single).expect("single-RHS solve");
        let err = rel_err(blocked.col(j), &single);
        assert!(err < 1e-12, "direct path column {j}: blocked vs single rel err {err:.3e}");
    }

    // Determinism: the identical blocked solve reproduces itself bitwise.
    let mut again = b.clone();
    ft.solve_mat_in_place(&mut again).expect("repeat blocked solve");
    for j in 0..NRHS {
        assert_eq!(again.col(j), blocked.col(j), "blocked solve must be deterministic (col {j})");
    }
}

#[test]
fn blocked_hybrid_solve_matches_columnwise() {
    let n = 1024;
    // max_level = 2 leaves the top levels unskeletonized: a partial
    // factorization, so solves route through the hybrid reduced system.
    // max_level = 3 doubles the frontier to eight nodes, so every `V`
    // block sums over `X∖φ` with interior nodes that have points on both
    // sides of their own range.
    for max_level in [2, 3] {
        let (st, kernel) = fixture(n, max_level);
        let ft =
            factorize(&st, &kernel, SolverConfig::default().with_lambda(0.5)).expect("factorize");
        assert!(!ft.is_complete(), "fixture must exercise the hybrid path");
        let hs = HybridSolver::new(&ft).expect("hybrid solver");
        assert_eq!(hs.frontier().len(), 1 << max_level);
        assert!(hs.reduced_dim() > 0, "reduced system must be nontrivial");
        let opts = GmresOptions::default();

        let b = rhs_matrix(n);
        let mut blocked = b.clone();
        let results = hs.solve_mat_in_place(&mut blocked, &opts).expect("blocked hybrid solve");
        assert_eq!(results.len(), NRHS);
        for (j, r) in results.iter().enumerate() {
            assert!(r.converged, "L={max_level} column {j}: reduced GMRES did not converge");
        }

        for j in 0..NRHS {
            let out = hs.solve(b.col(j), &opts).expect("single-RHS hybrid solve");
            assert!(out.gmres.converged);
            let err = rel_err(blocked.col(j), &out.x);
            // The blocked path runs the same GMRES on the same reduced
            // system with the same options; only blocked-vs-columnwise
            // D⁻¹/V/W application order differs.
            assert!(err < 1e-10, "L={max_level} column {j}: blocked vs single rel err {err:.3e}");
        }

        let mut again = b.clone();
        hs.solve_mat_in_place(&mut again, &opts).expect("repeat blocked hybrid solve");
        for j in 0..NRHS {
            assert_eq!(again.col(j), blocked.col(j), "hybrid blocked solve must be deterministic");
        }
    }
}

#[test]
fn shared_factor_blocked_solve_dispatches_both_paths() {
    let n = 512;
    let opts = GmresOptions::default();
    for (max_level, complete) in [(1usize, true), (2usize, false)] {
        let (st, kernel) = fixture(n, max_level);
        let cfg = SolverConfig::default().with_lambda(0.5);
        let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), cfg).expect("shared");
        assert_eq!(sf.is_complete(), complete);

        let b = rhs_matrix(n);
        let mut blocked = b.clone();
        sf.solve_block_in_place(&mut blocked, &opts).expect("shared blocked solve");
        for j in 0..NRHS {
            let ft = sf.factor_tree();
            let want = if complete {
                let mut x = b.col(j).to_vec();
                ft.solve_in_place(&mut x).expect("single direct");
                x
            } else {
                HybridSolver::new(ft)
                    .expect("hybrid")
                    .solve(b.col(j), &opts)
                    .expect("single hybrid")
                    .x
            };
            let err = rel_err(blocked.col(j), &want);
            assert!(
                err < 1e-10,
                "SharedFactor (complete={complete}) column {j}: rel err {err:.3e}"
            );
        }
    }
}
