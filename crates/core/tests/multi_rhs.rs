//! Blocked multi-RHS solves must agree with column-at-a-time solves.
//!
//! The blocked paths ([`FactorTree::solve_mat_in_place`] and
//! [`HybridSolver::solve_mat_in_place`]) reorganize the same arithmetic
//! into GEMM-shaped sweeps, so each column must match the single-RHS
//! result to tight tolerance; and because every path is deterministic,
//! repeating the identical blocked solve must reproduce itself bitwise.

use kfds_askit::{hier_matvec, skeletonize, SkelConfig, SkeletonTree};
use kfds_core::{
    factorize, HybridSolver, LeafFactorization, PartitionedFactor, ReducedOperator, ReducedReport,
    SharedFactor, SharedSetup, SolverConfig, SolverError, StorageMode, WStorage,
};
use kfds_kernels::Gaussian;
use kfds_krylov::{gmres, FnOp, GmresOptions};
use kfds_la::{workspace, Mat};
use kfds_tree::datasets::{normal_embedded, uniform_cube};
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
        assert_eq!(hs.reduced_bytes(), 0, "nothing is assembled before the first solve");
        let results = hs.solve_mat_in_place(&mut blocked, &opts).expect("blocked hybrid solve");
        assert_eq!(results.gmres.len(), NRHS);
        for (j, r) in results.gmres.iter().enumerate() {
            assert!(r.converged, "L={max_level} column {j}: reduced GMRES did not converge");
        }
        // r = 256 / 512 against a 3.7 / 2.6 MB factor: the dense operator
        // is the smaller of the two, so this fixture runs assembled.
        let held = 8 * hs.reduced_dim() * hs.reduced_dim();
        assert_eq!(results.reduced.operator, ReducedOperator::Assembled);
        assert_eq!((results.reduced.bytes, hs.reduced_bytes()), (held, held));
        assert!(results.reduced.assembly_seconds > 0.0, "the first solve assembles");

        for j in 0..NRHS {
            let out = hs.solve(b.col(j), &opts).expect("single-RHS hybrid solve");
            assert!(out.gmres.converged);
            // Later solves on the same solver find the operator in place.
            assert_eq!(out.reduced, ReducedReport { assembly_seconds: 0.0, ..results.reduced });
            let err = rel_err(blocked.col(j), &out.x);
            // The blocked path runs the same GMRES on the same reduced
            // system with the same options; only blocked-vs-columnwise
            // D⁻¹/V/W application order differs.
            assert!(err < 1e-10, "L={max_level} column {j}: blocked vs single rel err {err:.3e}");
        }

        // Neither the per-column parallel GMRES nor the cached operator
        // may change a column's bits from one call to the next.
        let mut again = b.clone();
        hs.solve_mat_in_place(&mut again, &opts).expect("repeat blocked hybrid solve");
        for j in 0..NRHS {
            assert_eq!(again.col(j), blocked.col(j), "hybrid blocked solve must be deterministic");
        }
    }
}

/// Solves through the matrix-free `I + VW` (the `W`/`V` probes behind a
/// `FnOp`) whatever the size rule would pick: the reference for the
/// assembled operator.
fn solve_matrix_free(
    hs: &HybridSolver<'_, '_, Gaussian>,
    b: &[f64],
    opts: &GmresOptions,
) -> (Vec<f64>, usize) {
    let op = FnOp::new(hs.reduced_dim(), |z: &[f64], out: &mut [f64]| {
        let mut wz = vec![0.0; b.len()];
        hs.apply_w_pub(z, &mut wz);
        for (o, (zi, vi)) in out.iter_mut().zip(z.iter().zip(hs.apply_v_pub(&wz))) {
            *o = zi + vi;
        }
    });
    let mut x = b.to_vec();
    hs.apply_dinv_pub(&mut x);
    let gm = gmres(&op, &hs.apply_v_pub(&x), None, opts);
    assert!(gm.converged, "matrix-free reference did not converge");
    let mut wz = vec![0.0; b.len()];
    hs.apply_w_pub(&gm.x, &mut wz);
    for (xi, wi) in x.iter_mut().zip(&wz) {
        *xi -= wi;
    }
    (x, gm.iters)
}

#[test]
fn assembled_operator_matches_matrix_free() {
    let n = 1024;
    let (st, kernel) = fixture(n, 3);
    let opts = GmresOptions { tol: 1e-12, ..Default::default() };
    let b = rhs_matrix(n);
    let mut stored_answer = Vec::new();
    // Recompute-W drops the frontier P̂, so assembly has to telescope it.
    for w in [WStorage::Stored, WStorage::Recompute] {
        let cfg = SolverConfig::default().with_lambda(0.5).with_w_storage(w);
        let ft = factorize(&st, &kernel, cfg).expect("factorize");
        let hs = HybridSolver::new(&ft).expect("hybrid solver");

        let out = hs.solve(b.col(0), &opts).expect("hybrid solve");
        assert!(out.gmres.converged);
        assert_eq!(out.reduced.operator, ReducedOperator::Assembled, "{w:?}");
        let (want, iters) = solve_matrix_free(&hs, b.col(0), &opts);
        let err = rel_err(&out.x, &want);
        assert!(err < 1e-10, "{w:?}: assembled vs matrix-free rel err {err:.3e}");
        assert!(out.gmres.iters.abs_diff(iters) <= 1, "{w:?}: {} vs {iters}", out.gmres.iters);

        // Column j of the assembled matrix is (I + VW) e_j (a stride of
        // columns that visits every frontier node's panel).
        let z = hs.assemble_reduced();
        let mut e = vec![0.0; hs.reduced_dim()];
        let mut wz = vec![0.0; n];
        for j in (0..hs.reduced_dim()).step_by(9) {
            e[j] = 1.0;
            hs.apply_w_pub(&e, &mut wz);
            let mut col = hs.apply_v_pub(&wz);
            col[j] += 1.0;
            e[j] = 0.0;
            let diff = z.col(j).iter().zip(&col).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(diff < 1e-12, "{w:?}: column {j} of I + VW off by {diff:.3e}");
        }

        if w == WStorage::Stored {
            stored_answer = out.x;
        } else {
            let err = rel_err(&out.x, &stored_answer);
            assert!(err < 1e-10, "recompute-W vs stored-P̂ rel err {err:.3e}");
        }
    }
}

#[test]
fn assembled_operator_skips_rank_zero_frontier_nodes() {
    // Tight clusters on a line, some so far from the rest that every
    // kernel value leaving them underflows to zero and their frontier node
    // has an empty skeleton: one node of four at level 2, and — the
    // degenerate reduced system of dimension 0 — both nodes at level 1.
    let n = 512;
    let layouts: [(&[f64], usize, usize); 2] =
        [(&[-400.0, 0.0, 1.5, 3.0], 2, 1), (&[-400.0, 400.0], 1, 2)];
    for (centers, max_level, rank_zero_nodes) in layouts {
        let mut pts = uniform_cube(n, 3, 5);
        for i in 0..n {
            let p = pts.point_mut(i);
            p.iter_mut().for_each(|c| *c *= 0.3);
            p[0] += centers[i % centers.len()];
        }
        let kernel = Gaussian::new(1.0);
        let skel = SkelConfig::default().with_tol(1e-6).with_max_rank(48).with_neighbors(8);
        let st = skeletonize(BallTree::build(&pts, 32), &kernel, skel.with_max_level(max_level));
        let lambda = 0.4;
        let opts = GmresOptions { tol: 1e-12, ..Default::default() };
        let b = rhs_matrix(n);
        let mut answers = Vec::new();
        for w in [WStorage::Stored, WStorage::Recompute] {
            let cfg = SolverConfig::default().with_lambda(lambda).with_w_storage(w);
            let ft = factorize(&st, &kernel, cfg).expect("factorize");
            let hs = HybridSolver::new(&ft).expect("hybrid solver");
            let ranks: Vec<usize> = hs
                .frontier()
                .iter()
                .map(|&f| st.skeleton(f).expect("frontier skeleton").rank())
                .collect();
            assert_eq!(ranks.len(), 1 << max_level);
            assert_eq!(ranks.iter().filter(|&&r| r == 0).count(), rank_zero_nodes, "{ranks:?}");
            let out = hs.solve(b.col(0), &opts).expect("hybrid solve");
            assert_eq!(out.reduced.operator, ReducedOperator::Assembled);
            let resid = rel_err(&hier_matvec(&st, &kernel, lambda, &out.x), b.col(0));
            assert!(resid < 1e-9, "L={max_level} {w:?}: residual {resid:.3e}");
            // The blocked path, and a block of no columns at all.
            let mut blocked = b.clone();
            hs.solve_mat_in_place(&mut blocked, &opts).expect("blocked hybrid solve");
            let err = rel_err(blocked.col(0), &out.x);
            assert!(err < 1e-10, "L={max_level} {w:?}: blocked vs single rel err {err:.3e}");
            let none = hs.solve_mat_in_place(&mut Mat::zeros(n, 0), &opts).expect("empty block");
            assert!(none.gmres.is_empty());
            answers.push(out.x);
        }
        let err = rel_err(&answers[1], &answers[0]);
        assert!(err < 1e-10, "L={max_level}: recompute-W vs stored-P̂ rel err {err:.3e}");
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
        let first = sf.solve_block_in_place(&mut blocked, &opts).expect("shared blocked solve");
        // The handle keeps the hybrid's reduced operator: a second batch on
        // it assembles nothing and reproduces the first bit for bit.
        let mut again = b.clone();
        let second = sf.solve_block_in_place(&mut again, &opts).expect("second batch");
        assert_eq!(again.as_slice(), blocked.as_slice());
        match (first, second) {
            (None, None) => assert!(complete),
            (Some(first), Some(second)) => {
                assert_eq!(first.operator, ReducedOperator::Assembled);
                assert!(first.assembly_seconds > 0.0 && first.bytes > 0);
                assert_eq!(second, ReducedReport { assembly_seconds: 0.0, ..first });
            }
            other => panic!("the two batches took different paths: {other:?}"),
        }
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

#[test]
fn size_rule_does_not_depend_on_who_owns_the_stored_blocks() {
    use ReducedOperator::{Assembled, MatrixFree};
    let opts = GmresOptions::default();
    // Stored mode at L = 3, r = 8·64, so 8r² = 2.0 MiB on both fixtures. At
    // n = 864 the stored factor is 2.2 MiB, of which 0.36 MiB are V blocks
    // — the rule lands on "assembled" only if the V bytes a refactorized
    // tree shares with its setup still count; at n = 768 it is 1.8 MiB, V
    // blocks included, and the rule stays matrix-free.
    for (n, operator) in [(864, Assembled), (768, MatrixFree)] {
        let (st, kernel) = fixture(n, 3);
        let (st, kernel) = (Arc::new(st), Arc::new(kernel));
        let cfg = SolverConfig::default().with_lambda(0.5).with_storage(StorageMode::StoredGemv);
        let fresh = SharedFactor::factorize(Arc::clone(&st), Arc::clone(&kernel), cfg)
            .expect("fresh stored factor");
        let setup = SharedSetup::build(st, kernel);
        let over = SharedFactor::refactorize(&setup, cfg).expect("factor over the setup");

        let (fs, os) = (fresh.factor_tree().stats(), over.factor_tree().stats());
        assert_eq!(fs.shared_bytes, 0);
        assert_eq!(fs.stored_bytes, os.stored_bytes + os.shared_bytes, "n={n}");
        let r = HybridSolver::new(fresh.factor_tree()).expect("hybrid").reduced_dim();
        if kfds_core::refactor_enabled() {
            assert!(os.shared_bytes > 0, "n={n}: the fixture must have V blocks to share");
            if operator == Assembled {
                assert!(
                    os.stored_bytes < 8 * r * r && 8 * r * r <= fs.stored_bytes,
                    "n={n}: 8r² = {} must sit between the factor without its V blocks ({}) \
                     and with them ({})",
                    8 * r * r,
                    os.stored_bytes,
                    fs.stored_bytes
                );
            }
        }

        let b = rhs_matrix(n);
        let (mut xf, mut xo) = (b.clone(), b.clone());
        let rf = fresh.solve_block_in_place(&mut xf, &opts).expect("fresh solve");
        let ro = over.solve_block_in_place(&mut xo, &opts).expect("solve over the setup");
        assert_eq!(rf.expect("hybrid path").operator, operator, "n={n}: fresh");
        assert_eq!(ro.expect("hybrid path").operator, operator, "n={n}: over a shared assembly");
        assert_eq!(xf.as_slice(), xo.as_slice(), "n={n}: the two factors must answer alike");
    }
}

/// `b`'s column `j` as an `n x 1` block.
fn one_column(b: &Mat, j: usize) -> Mat {
    Mat::from_col_major(b.nrows(), 1, b.col(j).to_vec())
}

#[test]
fn single_rhs_direct_solve_is_column_zero_of_the_one_column_block() {
    // One recursion: a vector is the n x 1 view, so the two entry points
    // must agree bit for bit in every configuration the solve branches on.
    let n = 1024;
    let (st, kernel) = fixture(n, 1);
    let b = rhs_matrix(n);
    for storage in [StorageMode::StoredGemv, StorageMode::RecomputeGemm, StorageMode::Gsks] {
        for w in [WStorage::Stored, WStorage::Recompute] {
            for leaf in [LeafFactorization::Lu, LeafFactorization::Cholesky] {
                let cfg = SolverConfig::default()
                    .with_lambda(0.5)
                    .with_storage(storage)
                    .with_w_storage(w)
                    .with_leaf(leaf);
                let ft = factorize(&st, &kernel, cfg).expect("factorize");
                let mut single = b.col(1).to_vec();
                ft.solve_in_place(&mut single).expect("single-RHS solve");
                let mut block = one_column(&b, 1);
                ft.solve_mat_in_place(&mut block).expect("one-column blocked solve");
                assert_eq!(single, block.col(0), "{storage:?} / {w:?} / {leaf:?}");
            }
        }
    }
}

#[test]
fn single_rhs_hybrid_solve_is_column_zero_of_the_one_column_block() {
    use ReducedOperator::{Assembled, MatrixFree};
    let opts = GmresOptions::default();
    // The n = 1024 fixtures sit on the assembled side of the size rule; at
    // n = 512, L = 3 the frontier is the leaves, r = 8·64 against a 0.5 MB
    // factor, and GMRES runs over the matrix-free W/V applications.
    for (n, max_level, operator) in
        [(1024, 2, Assembled), (1024, 3, Assembled), (512, 3, MatrixFree)]
    {
        let (st, kernel) = fixture(n, max_level);
        let ft =
            factorize(&st, &kernel, SolverConfig::default().with_lambda(0.5)).expect("factorize");
        let hs = HybridSolver::new(&ft).expect("hybrid solver");
        let b = rhs_matrix(n);
        let single = hs.solve(b.col(2), &opts).expect("single-RHS hybrid solve");
        assert_eq!(single.reduced.operator, operator, "n={n} L={max_level}");
        assert!(single.gmres.converged);
        let mut block = one_column(&b, 2);
        let out = hs.solve_mat_in_place(&mut block, &opts).expect("one-column blocked solve");
        assert_eq!(out.reduced.operator, operator);
        assert_eq!(out.gmres[0].iters, single.gmres.iters);
        assert_eq!(single.x, block.col(0), "n={n} L={max_level} {operator}");
    }
}

#[test]
fn solving_a_strided_view_equals_solving_its_owned_copy() {
    // The partition top sweep and the shard payload hand the recursion
    // row/column sub-views (col_stride > nrows) of a larger matrix. A
    // one-shard partition's local solve is the whole solve on a view.
    let n = 512;
    for storage in [StorageMode::Gsks, StorageMode::StoredGemv] {
        let (st, kernel) = fixture(n, 1);
        let cfg = SolverConfig::default().with_lambda(0.5).with_storage(storage);
        let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), cfg).expect("shared");
        let pf = PartitionedFactor::partition(sf.clone(), 1).expect("one shard");
        for nrhs in [1usize, 3, 16, 17] {
            let mut owned =
                Mat::from_fn(n, nrhs, |i, j| ((i * (j + 2) + 5) % 29) as f64 / 29.0 - 0.5);
            // The block sits at (3, 2) of a larger pooled matrix whose
            // other elements must come back untouched.
            let (r0, c0) = (3, 2);
            let mut big = workspace::take_mat_detached(n + 7, nrhs + 3);
            big.as_mut_slice().fill(-7.25);
            for j in 0..nrhs {
                big.col_mut(c0 + j)[r0..r0 + n].copy_from_slice(owned.col(j));
            }
            pf.solve_local(0, big.rb_mut().submatrix_mut(r0..r0 + n, c0..c0 + nrhs));
            sf.factor_tree().solve_mat_in_place(&mut owned).expect("owned solve");
            for j in 0..nrhs + 3 {
                for (i, &v) in big.col(j).iter().enumerate() {
                    let inside = (r0..r0 + n).contains(&i) && (c0..c0 + nrhs).contains(&j);
                    let want = if inside { owned[(i - r0, j - c0)] } else { -7.25 };
                    assert_eq!(v.to_bits(), want.to_bits(), "{storage:?} nrhs={nrhs} ({i},{j})");
                }
            }
            workspace::recycle_mat(big);
        }
    }
}

#[test]
fn mis_shaped_right_hand_sides_are_typed_errors() {
    let n = 512;
    let opts = GmresOptions::default();
    let shape = |r: Result<(), SolverError>, got: usize| match r {
        Err(SolverError::RhsShape { expected, got: g }) => assert_eq!((expected, g), (n, got)),
        other => panic!("expected RhsShape {{ expected: {n}, got: {got} }}, got {other:?}"),
    };
    // The direct route, borrowed and shared.
    let (st, kernel) = fixture(n, 1);
    let cfg = SolverConfig::default().with_lambda(0.5);
    let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), cfg).expect("shared");
    let ft = sf.factor_tree();
    shape(ft.solve_in_place(&mut vec![0.0; n - 1]), n - 1);
    shape(ft.solve_in_place(&mut []), 0);
    shape(ft.solve(&vec![0.0; n + 1]).map(drop), n + 1);
    shape(ft.solve_mat_in_place(&mut Mat::zeros(n + 2, 3)), n + 2);
    shape(ft.solve_mat_in_place(&mut Mat::zeros(0, 4)), 0);
    shape(sf.solve_in_place(&mut vec![0.0; n - 1]), n - 1);
    shape(sf.solve_block_in_place(&mut Mat::zeros(0, 4), &opts).map(drop), 0);
    // A block of the right height and no columns is a solve of nothing.
    let mut none = Mat::zeros(n, 0);
    ft.solve_mat_in_place(&mut none).expect("n x 0 direct solve");
    sf.solve_block_in_place(&mut none, &opts).expect("n x 0 shared solve");

    // The hybrid route.
    let (st, kernel) = fixture(n, 2);
    let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), cfg).expect("shared partial");
    let hs = HybridSolver::new(sf.factor_tree()).expect("hybrid solver");
    shape(hs.solve(&vec![0.0; n - 1], &opts).map(drop), n - 1);
    shape(hs.solve_original_order(&vec![0.0; n + 1], &opts).map(drop), n + 1);
    shape(hs.solve_mat_in_place(&mut Mat::zeros(n - 3, 2), &opts).map(drop), n - 3);
    shape(hs.solve_mat_in_place(&mut Mat::zeros(0, 4), &opts).map(drop), 0);
    shape(sf.solve_block_in_place(&mut Mat::zeros(0, 4), &opts).map(drop), 0);
    let out = hs.solve_mat_in_place(&mut none, &opts).expect("n x 0 hybrid solve");
    assert!(out.gmres.is_empty());
}
