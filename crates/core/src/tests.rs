//! Correctness tests for the direct, baseline, hybrid and distributed
//! solvers.

use crate::config::{SolverConfig, StorageMode};
use crate::{
    dist_factorize, estimate_condition, factorize, factorize_baseline, HybridSolver, KernelRidge,
    PartitionedFactor, SharedFactor,
};
use kfds_askit::{hier_matvec, skeletonize, SkelConfig, SkeletonTree};
use kfds_kernels::{eval_symmetric, Gaussian};
use kfds_krylov::GmresOptions;
use kfds_la::blas1::nrm2;
use kfds_la::{workspace, Mat};
use kfds_tree::datasets::{normal_embedded, two_class_annulus};
use kfds_tree::{BallTree, PointSet};
use std::sync::Arc;

fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    (num / den.max(1e-300)).sqrt()
}

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Standard fixture: 512 points with intrinsic dimension 3 in 8-D.
fn fixture(max_level: usize, tol: f64) -> (SkeletonTree, Gaussian) {
    sized_fixture(512, 32, max_level, tol)
}

fn sized_fixture(n: usize, leaf: usize, max_level: usize, tol: f64) -> (SkeletonTree, Gaussian) {
    let pts = normal_embedded(n, 3, 8, 0.05, 42);
    let tree = BallTree::build(&pts, leaf);
    let kernel = Gaussian::new(1.0);
    let cfg = SkelConfig::default()
        .with_tol(tol)
        .with_max_rank(96)
        .with_neighbors(8)
        .with_max_level(max_level);
    let st = skeletonize(tree, &kernel, cfg);
    (st, kernel)
}

#[test]
fn factorization_inverts_the_approximated_operator() {
    // The key invariant: regardless of how well K̃ approximates K, the
    // factorization must invert λI + K̃ to near machine precision.
    let (st, kernel) = fixture(1, 1e-4);
    let cfg = SolverConfig::default().with_lambda(0.5);
    let ft = factorize(&st, &kernel, cfg).expect("factorize");
    assert!(ft.is_complete());
    let b = rand_vec(512, 7);
    let mut x = b.clone();
    ft.solve_in_place(&mut x).expect("solve");
    let applied = hier_matvec(&st, &kernel, 0.5, &x);
    let r = rel_err(&applied, &b);
    assert!(r < 1e-9, "exact-inverse residual {r}");
}

#[test]
fn solve_matches_dense_within_approximation_error() {
    let pts = normal_embedded(192, 2, 5, 0.05, 9);
    let tree = BallTree::build(&pts, 24);
    let kernel = Gaussian::new(1.5);
    let cfg = SkelConfig::default().with_tol(1e-9).with_max_rank(128).with_neighbors(12);
    let st = skeletonize(tree, &kernel, cfg);
    let lambda = 0.3;
    let ft =
        factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("factorize");
    let b = rand_vec(192, 3);
    let mut x = b.clone();
    ft.solve_in_place(&mut x).expect("solve");
    // Dense reference on the *exact* kernel matrix.
    let mut km = eval_symmetric(&kernel, st.tree().points(), 0..192);
    for i in 0..192 {
        km[(i, i)] += lambda;
    }
    let dense = kfds_la::Lu::factor(km).expect("dense LU").solve(&b);
    let r = rel_err(&x, &dense);
    assert!(r < 1e-4, "direct-vs-dense error {r}");
}

#[test]
fn preconditioned_solve_rejects_a_short_rhs() {
    let (st, kernel) = fixture(1, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(1.0)).expect("factorize");
    let got = crate::solve_exact_preconditioned(&ft, &rand_vec(511, 3), &GmresOptions::default());
    assert!(
        matches!(got, Err(crate::SolverError::RhsShape { expected: 512, got: 511 })),
        "a short right-hand side must be a typed error"
    );
    // A level-restricted factor has no root reduced system to precondition
    // with.
    let (st, kernel) = fixture(3, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(1.0)).expect("factorize");
    assert!(!ft.is_complete());
    let got = crate::solve_exact_preconditioned(&ft, &rand_vec(512, 3), &GmresOptions::default());
    assert!(
        matches!(got, Err(crate::SolverError::NotSkeletonized { .. })),
        "a partial factor must be refused, typed"
    );
}

#[test]
fn baseline_produces_identical_factorization() {
    // Table III note: "Both methods construct exactly the same
    // factorization (up to roundoff errors)".
    let (st, kernel) = fixture(1, 1e-5);
    let b = rand_vec(512, 21);
    for storage in [StorageMode::Gsks, StorageMode::StoredGemv] {
        let cfg = SolverConfig::default().with_lambda(1.0).with_storage(storage);
        let fast = factorize(&st, &kernel, cfg).expect("telescoped");
        let slow = factorize_baseline(&st, &kernel, cfg).expect("baseline");
        let mut x1 = b.clone();
        let mut x2 = b.clone();
        fast.solve_in_place(&mut x1).expect("solve fast");
        slow.solve_in_place(&mut x2).expect("solve slow");
        let r = rel_err(&x1, &x2);
        assert!(r < 1e-9, "{storage:?}: baseline mismatch {r}");
        // The telescoping must also save flops even at this tiny size.
        assert!(fast.stats().flops < slow.stats().flops, "{storage:?}");
        // The same factors hold the same bytes: the baseline's full
        // projections are scratch, not factor.
        assert_eq!(fast.stats().stored_bytes, slow.stats().stored_bytes, "{storage:?}");
    }
}

#[test]
fn storage_modes_agree() {
    let (st, kernel) = fixture(1, 1e-5);
    let b = rand_vec(512, 33);
    let mut sols = Vec::new();
    for mode in [StorageMode::StoredGemv, StorageMode::Gsks] {
        let cfg = SolverConfig::default().with_lambda(0.7).with_storage(mode);
        let ft = factorize(&st, &kernel, cfg).expect("factorize");
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("solve");
        sols.push(x);
    }
    assert!(rel_err(&sols[0], &sols[1]) < 1e-10);
}

#[test]
fn multi_rhs_solve_matches_single() {
    let (st, kernel) = fixture(1, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default()).expect("factorize");
    let mut b = kfds_la::Mat::zeros(512, 3);
    for j in 0..3 {
        b.col_mut(j).copy_from_slice(&rand_vec(512, 100 + j as u64));
    }
    let b0 = b.clone();
    ft.solve_mat_in_place(&mut b).expect("solve mat");
    for j in 0..3 {
        let mut x = b0.col(j).to_vec();
        ft.solve_in_place(&mut x).expect("solve single");
        assert!(rel_err(b.col(j), &x) < 1e-12, "column {j}");
    }
}

#[test]
fn solve_original_order_roundtrip() {
    let (st, kernel) = fixture(1, 1e-5);
    let lambda = 0.9;
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let b_orig = rand_vec(512, 55);
    let x_orig = ft.solve(&b_orig).expect("solve");
    // Check in permuted space against the operator.
    let xp = st.tree().permute_vec(&x_orig);
    let bp = st.tree().permute_vec(&b_orig);
    let applied = hier_matvec(&st, &kernel, lambda, &xp);
    assert!(rel_err(&applied, &bp) < 1e-9);
}

#[test]
fn hybrid_matches_direct_without_restriction() {
    let (st, kernel) = fixture(1, 1e-5);
    let cfg = SolverConfig::default().with_lambda(0.5);
    let ft = factorize(&st, &kernel, cfg).expect("factorize");
    let hy = HybridSolver::new(&ft).expect("hybrid");
    let b = rand_vec(512, 11);
    let mut direct = b.clone();
    ft.solve_in_place(&mut direct).expect("direct");
    let opts = GmresOptions { tol: 1e-12, ..Default::default() };
    let out = hy.solve(&b, &opts).expect("hybrid solve");
    assert!(out.gmres.converged);
    let r = rel_err(&out.x, &direct);
    assert!(r < 1e-8, "hybrid-vs-direct {r}");
}

#[test]
fn hybrid_inverts_level_restricted_operator() {
    // L = 3: the direct factorization is impossible (root levels are not
    // skeletonized), the hybrid must still invert λI + K̃ exactly.
    let (st, kernel) = fixture(3, 1e-5);
    assert!(!st.is_fully_skeletonized());
    let lambda = 0.8;
    let cfg = SolverConfig::default().with_lambda(lambda);
    let ft = factorize(&st, &kernel, cfg).expect("partial factorize");
    assert!(!ft.is_complete());
    assert!(ft.solve_in_place(&mut rand_vec(512, 1)).is_err());
    let hy = HybridSolver::new(&ft).expect("hybrid");
    assert!(hy.reduced_dim() > 0);
    assert_eq!(hy.frontier().len(), 8); // 2^3 frontier nodes
    let b = rand_vec(512, 13);
    let opts = GmresOptions { tol: 1e-12, max_iters: 300, ..Default::default() };
    let out = hy.solve(&b, &opts).expect("hybrid solve");
    assert!(out.gmres.converged, "GMRES residual {}", out.gmres.residual);
    let applied = hier_matvec(&st, &kernel, lambda, &out.x);
    let r = rel_err(&applied, &b);
    assert!(r < 1e-8, "hybrid exact-inverse residual {r}");
    // r = 511 here: the dense operator would be 2.0 MB on a 0.7 MB factor,
    // so this fixture stays on the matrix-free side of the size rule (the
    // n = 1024 fixtures of tests/multi_rhs.rs sit on the assembled side).
    assert!(8 * hy.reduced_dim() * hy.reduced_dim() > ft.stats().stored_bytes);
    assert_eq!(out.reduced.operator, crate::ReducedOperator::MatrixFree);
    assert_eq!((out.reduced.bytes, hy.reduced_bytes()), (0, 0));
}

#[test]
fn level_restricted_direct_matches_hybrid() {
    // Table V compares the hybrid (GMRES on the reduced system) against
    // the direct variant that LU-factorizes the coalesced 2^L s system:
    // one solver, two reduced steps.
    let (st, kernel) = fixture(3, 1e-5);
    let lambda = 0.8;
    let b = rand_vec(512, 29);
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let hy = HybridSolver::new(&ft).expect("hybrid");
    let mut xd = kfds_la::Mat::from_col_major(512, 1, b.clone());
    let report = hy.solve_factored_in_place(&mut xd).expect("factored solve");
    assert_eq!(report.operator, crate::ReducedOperator::Factored);
    // The direct variant must invert the level-restricted operator exactly.
    let applied = hier_matvec(&st, &kernel, lambda, xd.col(0));
    assert!(rel_err(&applied, &b) < 1e-9, "direct level-restricted residual");
    let opts = GmresOptions { tol: 1e-12, max_iters: 400, ..Default::default() };
    let out = hy.solve(&b, &opts).expect("hybrid");
    let applied = hier_matvec(&st, &kernel, lambda, &out.x);
    assert!(rel_err(&applied, &b) < 1e-8, "hybrid residual");
    assert!(rel_err(xd.col(0), &out.x) < 1e-8, "direct vs hybrid mismatch");
}

#[test]
fn distributed_matches_serial() {
    let (st, kernel) = fixture(1, 1e-5);
    // n = 1001 over leaves of 64: the ranks' subtrees hold unequal counts.
    let (ragged, _) = sized_fixture(1001, 64, 1, 1e-5);
    let base = SolverConfig::default().with_lambda(0.6);
    // The ranks' local sweeps are the serial sweep restricted to a
    // subtree: under stored V each assembles its own subtree's coupling
    // blocks.
    let stored = base.with_storage(StorageMode::StoredGemv);
    for (st, cfg, ranks) in
        [(&st, base, &[1, 2, 4][..]), (&st, stored, &[2, 4]), (&ragged, base, &[2, 4])]
    {
        let serial = factorize(st, &kernel, cfg).expect("serial");
        let b = rand_vec(st.tree().points().len(), 17);
        let mut want = b.clone();
        serial.solve_in_place(&mut want).expect("serial solve");
        for &p in ranks {
            let ds = dist_factorize(st, &kernel, cfg, p).expect("dist factorize");
            let got = ds.solve(&b);
            let r = rel_err(&got, &want);
            assert!(r < 1e-9, "{:?} n={} p={p}: dist-vs-serial {r}", cfg.storage, b.len());
        }
    }
}

#[test]
fn rank_owned_cut_rejects_what_does_not_fit_the_tree() {
    // One cut, two entry points: every (tree, p) case runs
    // `dist_factorize` and `PartitionedFactor::partition`. Each keeps its
    // own typed error: a level restriction above the cut is
    // `NotSkeletonized` to the ranks (they telescope through those
    // skeletons) and `Partition` to the finished factor.
    let cfg = SolverConfig::default().with_lambda(0.6);
    let kernel = Gaussian::new(1.0);
    let full = Arc::new(fixture(1, 1e-5).0);
    // Ten points are one leaf: no level to give two ranks.
    let one_leaf = Arc::new(sized_fixture(10, 64, 1, 1e-5).0);
    let restricted = Arc::new(fixture(2, 1e-5).0);
    // Not a power of two; a power of two one level past the leaves; one
    // far past them.
    let too_many = 2 * full.tree().leaves().len();
    let cases = [
        (&full, 0, false),
        (&full, 3, false),
        (&full, too_many, false),
        (&full, 1 << 12, false),
        (&one_leaf, 2, false),
        (&restricted, 2, true),
        (&restricted, 4, true),
    ];
    for (st, p, level_restricted) in cases {
        let n = st.tree().points().len();
        match dist_factorize(st, &kernel, cfg, p) {
            Err(crate::SolverError::NotSkeletonized { node }) if level_restricted => {
                assert!(st.skeleton(node).is_none(), "n={n} p={p}: node {node}");
            }
            Err(crate::SolverError::Partition { .. }) if !level_restricted => {}
            Err(e) => panic!("n={n} p={p}: dist_factorize answered {e}"),
            Ok(_) => panic!("n={n} p={p}: dist_factorize must refuse"),
        }
        let sf = SharedFactor::factorize(Arc::clone(st), Arc::new(Gaussian::new(1.0)), cfg)
            .expect("factorize");
        let got = PartitionedFactor::partition(sf, p);
        assert!(matches!(got, Err(crate::SolverError::Partition { .. })), "n={n} p={p}");
    }
}

#[test]
fn distributed_rejects_a_level_restricted_tree() {
    // The ranks telescope every node at levels 1..=log2 p up to the root, so
    // a level restriction above them is refused, typed, before any rank
    // thread starts; a level-1 tree still factorizes.
    let pts = normal_embedded(1024, 3, 6, 0.05, 3);
    let kernel = Gaussian::new(1.0);
    let cfg = SolverConfig::default().with_lambda(0.6);
    for max_level in [1, 2, 3] {
        let skel = SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(96)
            .with_neighbors(8)
            .with_max_level(max_level);
        let st = skeletonize(BallTree::build(&pts, 64), &kernel, skel);
        for p in [2, 4] {
            match dist_factorize(&st, &kernel, cfg, p) {
                Ok(_) => assert_eq!(max_level, 1, "L={max_level} p={p} must be refused"),
                Err(crate::SolverError::NotSkeletonized { node }) => {
                    assert!(max_level > 1, "L=1 p={p} must factorize");
                    assert!(st.skeleton(node).is_none(), "L={max_level} p={p}: node {node}");
                }
                Err(e) => panic!("L={max_level} p={p}: {e}"),
            }
        }
    }
}

#[test]
fn solving_a_strided_view_equals_solving_its_owned_copy() {
    // The partition's shard solves and its top sweep hand the recursion
    // row/column sub-views (col_stride > nrows) of a larger matrix. The
    // root's recursion on a view is the whole solve.
    let n = 512;
    for storage in [StorageMode::Gsks, StorageMode::StoredGemv] {
        let (st, kernel) = sized_fixture(n, 64, 1, 1e-5);
        let cfg = SolverConfig::default().with_lambda(0.5).with_storage(storage);
        let ft = factorize(&st, &kernel, cfg).expect("factorize");
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
            let view = big.rb_mut().submatrix_mut(r0..r0 + n, c0..c0 + nrhs);
            ft.ctx().solve_node(st.tree().root(), view);
            ft.solve_mat_in_place(&mut owned).expect("owned solve");
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
fn ridge_regression_learns_annulus() {
    let (pts, labels) = two_class_annulus(600, 3, 5);
    let test_pts = pts.select(&(500..600).collect::<Vec<_>>());
    let test_labels = &labels[500..600];
    let train_pts = pts.select(&(0..500).collect::<Vec<_>>());
    let train_labels = &labels[..500];
    let kernel = Gaussian::new(0.5);
    let skel = SkelConfig::default().with_tol(1e-6).with_max_rank(128).with_neighbors(8);
    let solver = SolverConfig::default().with_lambda(1e-2);
    let (model, report) =
        KernelRidge::train(&train_pts, train_labels, kernel, 32, skel, solver).expect("train");
    assert!(model.train_residual < 1e-6, "train residual {}", model.train_residual);
    let acc = model.accuracy(&test_pts, test_labels);
    assert!(acc > 0.9, "accuracy {acc}");
    assert!(report.factor_seconds >= 0.0 && report.setup_seconds >= 0.0);
}

#[test]
fn instability_detected_for_tiny_lambda_flat_kernel() {
    // A huge bandwidth makes K nearly rank-one, so λI + K_αα has σ_min ≈ λ;
    // with λ ≈ 1e-14 the leaf pivots collapse and the §III detector fires.
    let pts = normal_embedded(256, 2, 4, 0.05, 3);
    let tree = BallTree::build(&pts, 32);
    let kernel = Gaussian::new(50.0);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-7).with_max_rank(64).with_neighbors(8),
    );
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(1e-14));
    // An Err is also a valid detection: the matrix may be exactly singular.
    if let Ok(f) = ft {
        assert!(
            f.stats().is_unstable(),
            "expected instability flag, min pivot ratio {}",
            f.stats().min_pivot_ratio
        );
    }
}

#[test]
fn non_positive_lambda_factorizes_and_is_flagged_only_by_pivots() {
    // λ ≤ 0 takes no special path: the factorization inverts λI + K̃ like
    // any other, and the §III flag follows the pivot ratio, not λ's sign.
    let pts = normal_embedded(300, 3, 8, 0.05, 1);
    let tree = BallTree::build(&pts, 16);
    let kernel = Gaussian::new(1.0);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(32).with_neighbors(8),
    );
    let b = rand_vec(300, 5);
    for lambda in [0.0, -1.0] {
        let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda))
            .unwrap_or_else(|e| panic!("λ = {lambda}: {e}"));
        let stats = ft.stats();
        assert_eq!(
            stats.is_unstable(),
            stats.min_pivot_ratio < 1e-12,
            "λ = {lambda}: flag {} at min pivot ratio {}",
            stats.is_unstable(),
            stats.min_pivot_ratio
        );
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("solve");
        // λ = 0 inverts K̃ alone: 2e-9 to 1.2e-8 over random right-hand
        // sides (1e-12 at λ = -1), where a broken factorization reads O(1).
        let r = rel_err(&hier_matvec(&st, &kernel, lambda, &x), &b);
        assert!(r <= 1e-7, "λ = {lambda}: exact-inverse residual {r}");
    }
}

#[test]
fn level_restricted_direct_storage_modes_agree() {
    // The factored solve over every V-block scheme: the same D⁻¹, V and W
    // renderings the direct solves use around one LU.
    let (st, kernel) = fixture(2, 1e-5);
    let b = rand_vec(512, 41);
    let mut sols: Vec<(String, Vec<f64>)> = Vec::new();
    for storage in [StorageMode::Gsks, StorageMode::StoredGemv] {
        let cfg = SolverConfig::default().with_lambda(0.6).with_storage(storage);
        let ft = factorize(&st, &kernel, cfg).expect("f");
        let hy = HybridSolver::new(&ft).expect("hybrid");
        let mut x = kfds_la::Mat::from_col_major(512, 1, b.clone());
        let report = hy.solve_factored_in_place(&mut x).expect("factored solve");
        // The LU is the reduced system's only storage in every mode.
        let r = hy.reduced_dim();
        assert_eq!((report.bytes, hy.reduced_bytes()), (8 * r * r, 8 * r * r));
        sols.push((format!("{storage:?}"), x.into_vec()));
    }
    for (what, x) in &sols[1..] {
        let err = rel_err(x, &sols[0].1);
        assert!(err < 1e-10, "{what} differs from {}: {err:.3e}", sols[0].0);
    }
}

#[test]
fn approximate_knn_sampling_preserves_solver_quality() {
    // The row sampling only needs good (not exact) neighbor lists; the
    // factorization must still invert its compressed operator exactly and
    // the approximation error must stay comparable to exact-kNN sampling.
    let pts = normal_embedded(512, 3, 32, 0.05, 61);
    let tree = BallTree::build(&pts, 32);
    let kernel = Gaussian::new(2.5);
    let base = SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8);
    let st_exact = skeletonize(tree.clone(), &kernel, base.clone());
    let st_approx = skeletonize(tree, &kernel, base.with_approx_knn(6));
    let e_exact = kfds_askit::approx_error_estimate(&st_exact, &kernel, 1);
    let e_approx = kfds_askit::approx_error_estimate(&st_approx, &kernel, 1);
    assert!(e_approx < 20.0 * e_exact + 1e-6, "approx {e_approx} vs exact {e_exact}");
    let ft = factorize(&st_approx, &kernel, SolverConfig::default().with_lambda(0.5)).expect("f");
    let b = rand_vec(512, 63);
    let mut x = b.clone();
    ft.solve_in_place(&mut x).expect("solve");
    let applied = hier_matvec(&st_approx, &kernel, 0.5, &x);
    assert!(rel_err(&applied, &b) < 1e-8);
}

#[test]
fn lambda_sweep_shares_skeletons() {
    let (pts, labels) = two_class_annulus(500, 3, 19);
    let train = pts.select(&(0..400).collect::<Vec<_>>());
    let valid = pts.select(&(400..500).collect::<Vec<_>>());
    let kernel = Gaussian::new(0.5);
    let tree = BallTree::build(&train, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8),
    );
    let y_perm = st.tree().permute_vec(&labels[..400]);
    let entries = crate::lambda_sweep(
        &st,
        &kernel,
        SolverConfig::default(),
        &[10.0, 0.1, 1e-3],
        &y_perm,
        Some((&valid, &labels[400..])),
    )
    .expect("one label per point");
    assert_eq!(entries.len(), 3);
    for e in &entries {
        if !e.unstable {
            assert!(e.residual < 1e-6, "lambda {}: residual {}", e.lambda, e.residual);
        }
        assert!(e.accuracy.is_some());
    }
    // Small-λ models should fit the training data at least as well as
    // heavy regularization on this easy task.
    let acc_small = entries[2].accuracy.unwrap_or(0.0);
    assert!(acc_small > 0.8, "small-lambda accuracy {acc_small}");
}

#[test]
fn multiclass_one_vs_all() {
    // Three Gaussian blobs in 4-D, well separated.
    let n = 450;
    let mut data = Vec::with_capacity(n * 4);
    let mut labels = Vec::with_capacity(n);
    let mut state = 5u64;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    for i in 0..n {
        let c = i % 3;
        let center = [(c as f64) * 4.0, (c as f64) * -3.0, 0.0, (c as f64) * 2.0];
        for ck in center {
            data.push(ck + 0.5 * rnd());
        }
        labels.push(c);
    }
    let pts = kfds_tree::PointSet::from_col_major(4, data);
    let train = pts.select(&(0..360).collect::<Vec<_>>());
    let test = pts.select(&(360..n).collect::<Vec<_>>());
    let model = crate::KernelRidgeMulti::train(
        &train,
        &labels[..360],
        3,
        Gaussian::new(1.0),
        32,
        SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8),
        SolverConfig::default().with_lambda(1e-2),
    )
    .expect("train");
    let acc = model.accuracy(&test, &labels[360..], 0.5);
    assert!(acc > 0.95, "multiclass accuracy {acc}");
}

#[test]
fn wrong_label_count_is_a_typed_error() {
    // n − 1 labels: every training front door answers `RhsShape`, as the
    // solves do, rather than panicking.
    let (pts, labels) = two_class_annulus(200, 3, 9);
    let kernel = Gaussian::new(0.5);
    let skel = SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8);
    let cfg = SolverConfig::default().with_lambda(0.1);
    let short = |got: Option<&crate::SolverError>| {
        matches!(got, Some(crate::SolverError::RhsShape { expected: 200, got: 199 }))
    };
    let ridge = KernelRidge::train(&pts, &labels[..199], kernel, 32, skel.clone(), cfg);
    assert!(short(ridge.as_ref().err()), "KernelRidge::train");
    let classes = vec![0usize; 199];
    let multi = crate::KernelRidgeMulti::train(&pts, &classes, 2, kernel, 32, skel.clone(), cfg);
    assert!(short(multi.as_ref().err()), "KernelRidgeMulti::train");
    let st = skeletonize(BallTree::build(&pts, 32), &kernel, skel);
    let gp = crate::gp::GaussianProcess::fit(&st, &kernel, 0.1, &labels[..199]);
    assert!(short(gp.as_ref().err()), "GaussianProcess::fit");
    let gp = crate::gp::GaussianProcess::fit_best_noise(&st, &kernel, &[0.1], &labels[..199]);
    assert!(short(gp.as_ref().err()), "GaussianProcess::fit_best_noise");
}

#[test]
fn cross_validation_wrong_label_count_is_a_typed_error() {
    // n − 1 training labels, or n − 1 validation labels, through the λ
    // sweep and the grid search: `RhsShape`, not a panic.
    let (pts, labels) = two_class_annulus(250, 3, 13);
    let train = pts.select(&(0..200).collect::<Vec<_>>());
    let valid = pts.select(&(200..250).collect::<Vec<_>>());
    let kernel = Gaussian::new(0.5);
    let skel = SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8);
    let st = skeletonize(BallTree::build(&train, 32), &kernel, skel.clone());
    let shape = |got: Option<&crate::SolverError>, expected: usize| match got {
        Some(&crate::SolverError::RhsShape { expected: e, got: g }) => (e, g + 1) == (expected, e),
        _ => false,
    };
    let y = st.tree().permute_vec(&labels[..200]);
    let cfg = SolverConfig::default();
    let sweep = crate::lambda_sweep(&st, &kernel, cfg, &[0.1], &y[..199], None);
    assert!(shape(sweep.as_ref().err(), 200), "lambda_sweep, y");
    let validation = Some((&valid, &labels[200..249]));
    let sweep = crate::lambda_sweep(&st, &kernel, cfg, &[0.1], &y, validation);
    assert!(shape(sweep.as_ref().err(), 50), "lambda_sweep, validation labels");
    let (hs, lambdas) = ([0.5], [0.1]);
    let grid = |y_train: &[f64], y_valid: &[f64]| {
        crate::grid_search_gaussian(
            &train,
            y_train,
            &valid,
            y_valid,
            &hs,
            &lambdas,
            32,
            skel.clone(),
        )
    };
    assert!(shape(grid(&labels[..199], &labels[200..]).as_ref().err(), 200), "grid, y_train");
    assert!(shape(grid(&labels[..200], &labels[200..249]).as_ref().err(), 50), "grid, y_valid");
}

#[test]
fn out_of_range_class_label_is_a_typed_error() {
    // A label equal to the class count names itself, its index and the
    // count.
    let (pts, labels) = two_class_annulus(200, 3, 9);
    let mut classes: Vec<usize> = labels.iter().map(|&l| usize::from(l > 0.0)).collect();
    classes[17] = 2;
    let skel = SkelConfig::default().with_tol(1e-5).with_max_rank(64).with_neighbors(8);
    let cfg = SolverConfig::default().with_lambda(0.1);
    let got = crate::KernelRidgeMulti::train(&pts, &classes, 2, Gaussian::new(0.5), 32, skel, cfg);
    assert!(
        matches!(
            got.as_ref().err(),
            Some(crate::SolverError::LabelOutOfRange { index: 17, label: 2, n_classes: 2 })
        ),
        "got {:?}",
        got.err()
    );
}

#[test]
fn factorization_preconditions_exact_operator() {
    // A *loose* factorization of K̃ preconditions GMRES on the exact
    // λI + K: the preconditioned solve must converge in far fewer
    // iterations than the unpreconditioned one and give an exact-operator
    // residual at the Krylov tolerance (better than K̃'s approximation).
    let pts = normal_embedded(384, 2, 6, 0.05, 51);
    let tree = BallTree::build(&pts, 32);
    let kernel = Gaussian::new(1.5);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-3).with_max_rank(48).with_neighbors(8),
    );
    let lambda = 0.05;
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let b = rand_vec(384, 71);
    let opts = GmresOptions { tol: 1e-10, max_iters: 300, ..Default::default() };

    let pre = crate::solve_exact_preconditioned(&ft, &b, &opts).expect("preconditioned");
    assert!(pre.converged, "residual {}", pre.residual);

    // Unpreconditioned reference on the same exact operator.
    let op = kfds_krylov::FnOp::new(384, |x: &[f64], y: &mut [f64]| {
        y.copy_from_slice(&kfds_askit::exact_matvec(&st, &kernel, lambda, x));
    });
    let plain = kfds_krylov::gmres(&op, &b, None, &opts);
    assert!(
        pre.iters < plain.iters,
        "preconditioning should cut iterations: {} vs {}",
        pre.iters,
        plain.iters
    );
    // True residual against the exact operator.
    let applied = kfds_askit::exact_matvec(&st, &kernel, lambda, &pre.x);
    assert!(rel_err(&applied, &b) < 1e-8);
}

#[test]
fn non_finite_blocks_are_a_factorization_error() {
    // A kernel that evaluates to NaN makes every leaf block NaN. The leaf
    // LU must refuse it: a factor with a pivot ratio of +inf would read as
    // perfectly conditioned (`is_unstable()` false).
    struct NanKernel;
    impl kfds_kernels::Kernel for NanKernel {
        fn eval_parts(&self, _dot: f64, _nx: f64, _ny: f64) -> f64 {
            f64::NAN
        }
        fn name(&self) -> &'static str {
            "nan"
        }
    }
    let (st, _) = fixture(1, 1e-4);
    for storage in [StorageMode::Gsks, StorageMode::StoredGemv] {
        let cfg = SolverConfig::default().with_lambda(0.5).with_storage(storage);
        match factorize(&st, &NanKernel, cfg) {
            Err(crate::SolverError::Factorization {
                source: kfds_la::LaError::NonFinite { step: 0 },
                ..
            }) => {}
            Err(other) => panic!("{storage:?}: unexpected error {other}"),
            Ok(f) => panic!("{storage:?}: factored, stats {:?}", f.stats()),
        }
    }
}

#[test]
fn hybrid_reports_nonconvergence_honestly() {
    let (st, kernel) = fixture(3, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(0.5)).expect("f");
    let hy = HybridSolver::new(&ft).expect("hybrid");
    let b = rand_vec(512, 31);
    let opts = GmresOptions { tol: 1e-14, max_iters: 2, ..Default::default() };
    let out = hy.solve(&b, &opts).expect("solve returns even when unconverged");
    assert!(!out.gmres.converged);
    assert_eq!(out.gmres.iters, 2);
    assert!(out.gmres.residual > 1e-14);
}

#[test]
fn adaptive_frontier_pipeline() {
    // With adaptive frontier on a poorly compressible configuration the
    // skeletonization stops early; the hybrid solver must still invert
    // the resulting operator. Uniform points in the full ambient
    // dimension with a moderate bandwidth compress badly near the root.
    let pts = kfds_tree::datasets::uniform_cube(512, 6, 13);
    let tree = BallTree::build(&pts, 32);
    let kernel = Gaussian::new(0.8);
    let cfg = SkelConfig::default()
        .with_tol(1e-6)
        .with_max_rank(48)
        .with_neighbors(8)
        .with_adaptive_frontier(true);
    let st = skeletonize(tree, &kernel, cfg);
    let lambda = 1.0;
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let b = rand_vec(512, 77);
    if st.is_fully_skeletonized() {
        // Compression happened to succeed everywhere: direct solve path.
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("direct");
        let applied = hier_matvec(&st, &kernel, lambda, &x);
        assert!(rel_err(&applied, &b) < 1e-8);
    } else {
        let hy = HybridSolver::new(&ft).expect("hybrid");
        let opts = GmresOptions { tol: 1e-11, max_iters: 400, ..Default::default() };
        let out = hy.solve(&b, &opts).expect("hybrid");
        let applied = hier_matvec(&st, &kernel, lambda, &out.x);
        assert!(rel_err(&applied, &b) < 1e-7, "adaptive-frontier hybrid residual");
    }
}

#[test]
fn matern_and_polynomial_kernels_factorize() {
    let pts = normal_embedded(256, 2, 6, 0.05, 21);
    let tree = BallTree::build(&pts, 32);
    {
        let kernel = kfds_kernels::Matern32::new(1.5);
        let st = skeletonize(
            tree.clone(),
            &kernel,
            SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8),
        );
        let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(0.4)).expect("f");
        let b = rand_vec(256, 9);
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("solve");
        let applied = hier_matvec(&st, &kernel, 0.4, &x);
        assert!(rel_err(&applied, &b) < 1e-8, "matern");
    }
    {
        // Low-degree polynomial kernel: globally low rank, trivially
        // hierarchical; λ keeps the system well posed.
        let kernel = kfds_kernels::Polynomial::new(0.5, 1.0, 2);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-8).with_max_rank(96).with_neighbors(8),
        );
        let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(2.0)).expect("f");
        let b = rand_vec(256, 10);
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("solve");
        let applied = hier_matvec(&st, &kernel, 2.0, &x);
        assert!(rel_err(&applied, &b) < 1e-7, "polynomial");
    }
}

#[test]
fn condition_estimate_sane() {
    let (st, kernel) = fixture(1, 1e-6);
    let lambda = 1.0;
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let est = estimate_condition(&ft, 60);
    assert!(est.kappa() >= 1.0 - 1e-6, "kappa {}", est.kappa());
    assert!(est.kappa().is_finite());
    // λI + K with PSD-ish K and λ = 1: σ_min >= λ (approximately), so
    // 1/σ_min <= ~1/λ.
    assert!(est.inv_sigma_min < 2.0 / lambda, "inv sigma min {}", est.inv_sigma_min);
}

#[test]
fn factor_stats_populated() {
    let (st, kernel) = fixture(1, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default()).expect("f");
    let s = ft.stats();
    assert!(s.flops > 0.0);
    assert!(s.stored_bytes > 0);
    assert!(s.max_rank > 0);
    assert!(s.seconds > 0.0);
    assert!(s.min_pivot_ratio > 0.0 && s.min_pivot_ratio <= 1.0);
}

#[test]
fn factorization_reports_level_breakdown() {
    let (st, kernel) = fixture(1, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default()).expect("f");
    let levels = &ft.stats().levels;
    assert!(!levels.is_empty(), "the sweep records per-level stats");
    // Bottom-up: recorded root-last.
    for w in levels.windows(2) {
        assert!(w[0].level > w[1].level, "levels must be recorded bottom-up");
    }
    assert_eq!(
        levels.last().map(|l| (l.level, l.nodes)),
        Some((0, 1)),
        "the root closes the sweep"
    );
    let factored = ft.factors().iter().filter(|nf| nf.leaf_lu.is_some() || nf.z.is_some()).count();
    assert_eq!(levels.iter().map(|l| l.nodes).sum::<usize>(), factored);
    assert!(levels.iter().all(|l| l.seconds >= 0.0));
    let level_seconds: f64 = levels.iter().map(|l| l.seconds).sum();
    assert!(level_seconds <= ft.stats().seconds, "levels are timed inside the sweep");
}

#[test]
fn works_with_other_kernels() {
    let pts = normal_embedded(256, 2, 6, 0.05, 77);
    let tree = BallTree::build(&pts, 32);
    let kernel = kfds_kernels::Laplacian::new(2.0);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(96).with_neighbors(8),
    );
    let lambda = 0.5;
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let b = rand_vec(256, 5);
    let mut x = b.clone();
    ft.solve_in_place(&mut x).expect("solve");
    let applied = hier_matvec(&st, &kernel, lambda, &x);
    let err = rel_err(&applied, &b);
    // The Laplacian operator at this size leaves this residual near 1e-8
    // (scalar path ~9.9e-9); the SIMD kernels' FMA/reassociation shifts it
    // by a few percent, so the bound carries a small margin over 1e-8.
    assert!(err < 3e-8, "rel err {err:.3e}");
}

#[test]
fn rhs_norm_preserved_shape() {
    // Sanity: solving then applying the operator is the identity on
    // random vectors of very different scales.
    let (st, kernel) = fixture(1, 1e-5);
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(2.0)).expect("f");
    for scale in [1e-8, 1.0, 1e8] {
        let mut b = rand_vec(512, 3);
        for v in &mut b {
            *v *= scale;
        }
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("solve");
        let applied = hier_matvec(&st, &kernel, 2.0, &x);
        assert!(rel_err(&applied, &b) < 1e-9, "scale {scale}");
        assert!(nrm2(&x) > 0.0);
    }
}

mod refactor {
    //! λ-sweep refactorization: the blocked path must be bitwise
    //! identical to a fresh `factorize` under `StoredGemv`, across
    //! successes *and* failures, and each sweep consumer must answer what
    //! a loop of such public `factorize` calls answers.

    use super::*;
    use crate::assemble::assemble_blocks;
    use crate::factor::{factorize_with_blocks, in_factored_region, FactorTree};
    use crate::gp::GaussianProcess;
    use kfds_kernels::Kernel;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn solve_bits<K: Kernel>(ft: &FactorTree<'_, K>, b: &[f64]) -> Vec<u64> {
        let mut x = b.to_vec();
        ft.solve_in_place(&mut x).expect("solve");
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_factorize_is_bitwise_fresh_stored_gemv() {
        let (st, kernel) = fixture(1, 1e-5);
        let blocks = Arc::new(assemble_blocks(&st, &kernel));
        assert!(blocks.stats().bytes > 0 && blocks.stats().kernel_flops > 0.0);
        let b = rand_vec(512, 23);
        let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
        for lambda in [1e-3, 0.1, 0.5, 10.0] {
            let fresh = factorize(&st, &kernel, base.with_lambda(lambda)).expect("fresh");
            let blocked =
                factorize_with_blocks(&st, &kernel, Arc::clone(&blocks), base.with_lambda(lambda))
                    .expect("blocked");
            assert_eq!(
                solve_bits(&fresh, &b),
                solve_bits(&blocked, &b),
                "lambda {lambda}: blocked solve must be bitwise fresh-StoredGemv"
            );
            assert_eq!(
                fresh.log_det().expect("ld").to_bits(),
                blocked.log_det().expect("ld").to_bits(),
                "lambda {lambda}: log det must match bitwise"
            );
        }
    }

    #[test]
    fn blocked_factorize_normalizes_storage_mode() {
        // A Gsks-base config routed through the blocked path must come out
        // StoredGemv (the cached blocks ARE the stored V blocks).
        let (st, kernel) = fixture(1, 1e-5);
        let blocks = Arc::new(assemble_blocks(&st, &kernel));
        let ft =
            factorize_with_blocks(&st, &kernel, blocks, SolverConfig::default()).expect("blocked");
        assert_eq!(ft.config().storage, StorageMode::StoredGemv);
    }

    #[test]
    fn refactor_chains_without_reassembly() {
        let (st, kernel) = fixture(1, 1e-5);
        let b = rand_vec(512, 29);
        // Start from a legacy (Gsks-storage, block-less) tree: the first
        // refactor assembles, the second reuses the same store.
        let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(0.5)).expect("f");
        assert!(ft.assembled_blocks().is_none());
        let r1 = ft.refactor(0.05).expect("refactor 1");
        let r2 = r1.refactor(2.0).expect("refactor 2");
        let b1 = r1.assembled_blocks().expect("r1 carries blocks");
        let b2 = r2.assembled_blocks().expect("r2 carries blocks");
        assert!(Arc::ptr_eq(b1, b2), "chained refactor must reuse the assembly");
        // Each refactor is bitwise a fresh StoredGemv factorize at its λ.
        for (rf, lambda) in [(&r1, 0.05), (&r2, 2.0)] {
            let fresh = factorize(
                &st,
                &kernel,
                SolverConfig::default().with_storage(StorageMode::StoredGemv).with_lambda(lambda),
            )
            .expect("fresh");
            assert_eq!(solve_bits(&fresh, &b), solve_bits(rf, &b), "lambda {lambda}");
        }
        // A fresh *stored* tree already has an assembly (its V blocks):
        // its refactored child shares it instead of assembling another.
        let stored = SolverConfig::default().with_storage(StorageMode::StoredGemv);
        let fs = factorize(&st, &kernel, stored.with_lambda(0.5)).expect("fresh stored");
        let child = fs.refactor(2.0).expect("refactor of a fresh stored tree");
        assert!(
            Arc::ptr_eq(
                fs.assembled_blocks().expect("a stored tree carries its V blocks"),
                child.assembled_blocks().expect("child carries blocks"),
            ),
            "a fresh stored tree's refactor must reuse its assembly"
        );
        assert_eq!(solve_bits(&child, &b), solve_bits(&r2, &b), "lambda 2.0 from a stored tree");
        // No coupling-block evaluation on the refactor path: that work is
        // attributed to AssembleStats, so the refactor's flop count (leaf
        // diagonals + LA) must be below the fresh factorize's, which
        // evaluates every block.
        let fresh_gsks =
            factorize(&st, &kernel, SolverConfig::default().with_lambda(0.05)).expect("f");
        assert!(
            r1.stats().flops < fresh_gsks.stats().flops,
            "refactor flops {} must exclude kernel evaluation (fresh {})",
            r1.stats().flops,
            fresh_gsks.stats().flops
        );
    }

    /// Bytes the factors of `ft` hold, counted from the matrices
    /// themselves (dense factors by their dimension).
    fn factor_bytes_held<K: Kernel>(ft: &FactorTree<'_, K>) -> usize {
        let tree = ft.skeleton_tree().tree();
        let mat = |m: Option<&kfds_la::Mat>| m.map_or(0, |m| m.nrows() * m.ncols());
        let words: usize = (ft.factors().iter().enumerate())
            .map(|(i, nf)| {
                let leaf = nf.leaf_lu.as_ref().map_or(0, |_| tree.node(i).len().pow(2));
                // B_l, B_r, and the LU of S, the smaller child's square.
                let z = (nf.z.as_ref()).map_or(0, |z| {
                    mat(Some(&z.b_l)) + mat(Some(&z.b_r)) + z.b_l.nrows().min(z.b_r.nrows()).pow(2)
                });
                leaf + z + mat(nf.p_hat.as_ref())
            })
            .sum();
        8 * words
    }

    /// Bytes of the coupling blocks `blocks` holds, counted from the
    /// matrices themselves.
    fn coupling_bytes_held(blocks: &crate::AssembledBlocks) -> usize {
        (blocks.nodes.iter())
            .flat_map(|nb| [&nb.k_lr, &nb.k_rl])
            .flatten()
            .map(|m| 8 * m.nrows() * m.ncols())
            .sum()
    }

    #[test]
    fn stored_coupling_blocks_exist_once() {
        let (st, kernel) = fixture(1, 1e-5);
        let tree = st.tree();
        let blocks = Arc::new(assemble_blocks(&st, &kernel));
        let lambdas = [1e-2, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0];
        let trees: Vec<_> = lambdas
            .iter()
            .map(|&l| {
                let cfg = SolverConfig::default().with_lambda(l);
                factorize_with_blocks(&st, &kernel, Arc::clone(&blocks), cfg).expect("refactor")
            })
            .collect();
        assert_eq!(Arc::strong_count(&blocks), 1 + trees.len(), "one handle per live tree");

        // No copy: the matrices the solve reads are the assembly's own.
        let internal: Vec<usize> = (0..tree.nodes().len())
            .filter(|&i| tree.node(i).children.is_some() && in_factored_region(&st, i))
            .collect();
        assert!(!internal.is_empty());
        for ft in &trees {
            let read = ft.ctx().blocks.expect("a stored tree solves over its assembly");
            for &i in &internal {
                let (v_lr, v_rl) = read.coupling(i);
                let nb = &blocks.nodes[i];
                assert!(std::ptr::eq(v_lr, nb.k_lr.as_ref().expect("K_lr")), "node {i}");
                assert!(std::ptr::eq(v_rl, nb.k_rl.as_ref().expect("K_rl")), "node {i}");
            }
        }

        // Bytes follow ownership: each tree reports what it allocated, the
        // assembly is counted once, and together that is what is held.
        let reported: usize = trees.iter().map(|ft| ft.stats().stored_bytes).sum();
        let held: usize = trees.iter().map(factor_bytes_held).sum();
        assert_eq!(reported, held, "stored_bytes must be the λ-dependent factors only");
        assert_eq!(blocks.stats().bytes, coupling_bytes_held(&blocks));
        for ft in &trees {
            assert_eq!(ft.stats().shared_bytes, blocks.stats().bytes);
        }

        drop(trees);
        assert_eq!(Arc::strong_count(&blocks), 1);
    }

    #[test]
    fn byte_accounting_follows_ownership_in_every_mode() {
        let (st, kernel) = fixture(1, 1e-5);
        let full = Arc::new(assemble_blocks(&st, &kernel));
        let v_bytes = coupling_bytes_held(&full);
        assert!(v_bytes > 0);
        assert_eq!(full.stats().bytes, v_bytes, "an assembly is its coupling blocks");
        let base = SolverConfig::default().with_lambda(0.7);
        let over = factorize_with_blocks(&st, &kernel, Arc::clone(&full), base).expect("over");
        let (owned, shared) = (over.stats().stored_bytes, over.stats().shared_bytes);
        assert_eq!(shared, v_bytes);
        assert_eq!(owned, factor_bytes_held(&over));
        for storage in [StorageMode::StoredGemv, StorageMode::Gsks] {
            let fresh = factorize(&st, &kernel, base.with_storage(storage)).expect("fresh");
            let what = format!("{storage:?}");
            assert_eq!(fresh.stats().shared_bytes, 0, "{what}: a fresh tree shares nothing");
            match fresh.assembled_blocks() {
                // A fresh stored tree owns its V blocks.
                Some(own) => {
                    assert_eq!(storage, StorageMode::StoredGemv, "{what}");
                    assert_eq!(fresh.stats().stored_bytes, owned + shared, "{what}");
                    assert_eq!(own.stats().bytes, v_bytes, "{what}: the same assembly");
                }
                None => {
                    assert_ne!(storage, StorageMode::StoredGemv, "{what}");
                    assert_eq!(fresh.stats().stored_bytes, owned, "{what}: no V held");
                }
            }
            // Whatever it starts from, a refactored tree reads the same
            // bytes.
            let re = fresh.refactor(0.7).expect("refactor");
            assert_eq!(re.stats().stored_bytes + re.stats().shared_bytes, owned + shared, "{what}");
        }
    }

    #[test]
    fn mismatched_assembly_is_a_typed_error() {
        // The same points skeletonized to other ranks: tree shape and
        // point count agree, the block shapes do not.
        let (loose, kernel) = fixture(1, 1e-3);
        let (tight, _) = fixture(1, 1e-6);
        let cfg = SolverConfig::default().with_lambda(0.5);
        let stale = Arc::new(assemble_blocks(&loose, &kernel));
        let got = factorize_with_blocks(&tight, &kernel, Arc::clone(&stale), cfg);
        assert!(matches!(got, Err(crate::SolverError::BlocksMismatch { .. })), "other ranks");
        assert!(factorize_with_blocks(&loose, &kernel, stale, cfg).is_ok(), "its own tree");
        // Another point set altogether is caught before any block is read.
        let pts = normal_embedded(256, 3, 8, 0.05, 42);
        let small = skeletonize(
            BallTree::build(&pts, 32),
            &kernel,
            SkelConfig::default().with_tol(1e-5).with_max_rank(96).with_neighbors(8),
        );
        let other = Arc::new(assemble_blocks(&small, &kernel));
        let got = factorize_with_blocks(&tight, &kernel, other, cfg);
        assert!(matches!(got, Err(crate::SolverError::BlocksMismatch { node: 0 })), "other tree");
    }

    #[test]
    fn non_finite_lambda_is_a_typed_error() {
        // A NaN or infinite shift used to factorize "successfully" and
        // answer every solve with NaN, `is_unstable()` false.
        let (st, kernel) = fixture(1, 1e-5);
        let blocks = Arc::new(assemble_blocks(&st, &kernel));
        let good = factorize(&st, &kernel, SolverConfig::default()).expect("finite λ");
        let rejected = |got: Result<FactorTree<'_, Gaussian>, crate::SolverError>| {
            matches!(got, Err(crate::SolverError::NonFiniteLambda { .. }))
        };
        for lambda in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = SolverConfig::default().with_lambda(lambda);
            for storage in [StorageMode::StoredGemv, StorageMode::Gsks] {
                let got = factorize(&st, &kernel, cfg.with_storage(storage));
                assert!(rejected(got), "factorize, λ = {lambda}, {storage:?}");
            }
            let got = factorize_with_blocks(&st, &kernel, Arc::clone(&blocks), cfg);
            assert!(rejected(got), "factorize_with_blocks, λ = {lambda}");
            assert!(rejected(good.refactor(lambda)), "refactor, λ = {lambda}");
        }
    }

    #[test]
    fn lambda_sweep_is_a_loop_of_stored_factorizations() {
        let (pts, labels) = two_class_annulus(400, 3, 77);
        let train = pts.select(&(0..320).collect::<Vec<_>>());
        let valid = pts.select(&(320..400).collect::<Vec<_>>());
        let kernel = Gaussian::new(0.5);
        let tree = BallTree::build(&train, 32);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8),
        );
        let y_perm = st.tree().permute_vec(&labels[..320]);
        // The NaN λ fails (`NonFiniteLambda`). The sweep is given the
        // default (Gsks) storage and pins StoredGemv all the same.
        let base = SolverConfig::default();
        let lambdas = [10.0, 0.1, f64::NAN, 1e-3];
        let validation = Some((&valid, &labels[320..]));
        let sweep = crate::lambda_sweep(&st, &kernel, base, &lambdas, &y_perm, validation)
            .expect("one label per point");
        assert_eq!(sweep.len(), lambdas.len());
        for (a, &lambda) in sweep.iter().zip(&lambdas) {
            assert_eq!(a.lambda.to_bits(), lambda.to_bits());
            let cfg = base.with_storage(StorageMode::StoredGemv).with_lambda(lambda);
            let Ok(ft) = factorize(&st, &kernel, cfg) else {
                assert!(a.failed, "lambda {lambda}: a public factorize failed, the sweep did not");
                continue;
            };
            let b =
                crate::crossval::sweep_entry(&st, &kernel, &ft, lambda, 0.0, &y_perm, validation);
            assert!(!a.failed, "lambda {lambda}");
            assert_eq!(a.unstable, b.unstable, "lambda {}", a.lambda);
            assert_eq!(
                a.residual.to_bits(),
                b.residual.to_bits(),
                "lambda {}: the sweep's residual must be the public factorize's, bitwise",
                a.lambda
            );
            assert_eq!(
                a.accuracy.map(f64::to_bits),
                b.accuracy.map(f64::to_bits),
                "lambda {}",
                a.lambda
            );
        }
        // The failed entry reports honest timing and the distinct marker.
        let failed: Vec<_> = sweep.iter().filter(|e| e.failed).collect();
        assert_eq!(failed.len(), 1, "exactly the NaN λ fails");
        assert!(failed[0].lambda.is_nan());
        assert!(failed[0].factor_seconds > 0.0, "failed λ must report elapsed time, not 0.0");
        assert!(failed[0].unstable && failed[0].residual.is_nan());
        // Completed entries are unfailed regardless of stability flags.
        assert!(sweep.iter().filter(|e| !e.failed).all(|e| e.factor_seconds > 0.0));
    }

    #[test]
    fn grid_search_hoisted_tree_matches_per_h_rebuild() {
        // The hoisted (one tree + one kNN for the whole grid) search must
        // pick the same (h, λ, accuracy) as the legacy shape that rebuilt
        // the tree per h — tree build and kNN are pure geometry.
        let (pts, labels) = two_class_annulus(400, 3, 5);
        let train = pts.select(&(0..320).collect::<Vec<_>>());
        let valid = pts.select(&(320..400).collect::<Vec<_>>());
        let hs = [0.3, 0.6, 1.2];
        let lambdas = [1.0, 1e-2];
        let skel = SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8);
        let got = crate::grid_search_gaussian(
            &train,
            &labels[..320],
            &valid,
            &labels[320..],
            &hs,
            &lambdas,
            32,
            skel.clone(),
        )
        .expect("one label per point");
        // Reference: the pre-hoist loop shape.
        let mut want: Option<(f64, f64, f64)> = None;
        for &h in &hs {
            let kernel = Gaussian::new(h);
            let tree = BallTree::build(&train, 32);
            let st = skeletonize(tree, &kernel, skel.clone());
            let y_perm = st.tree().permute_vec(&labels[..320]);
            let entries = crate::lambda_sweep(
                &st,
                &kernel,
                SolverConfig::default(),
                &lambdas,
                &y_perm,
                Some((&valid, &labels[320..])),
            )
            .expect("one label per point");
            for e in entries {
                let acc = e.accuracy.unwrap_or(0.0);
                if !e.unstable && want.map(|(_, _, a)| acc > a).unwrap_or(true) {
                    want = Some((h, e.lambda, acc));
                }
            }
        }
        let (gh, gl, ga) = got.expect("grid search finds a best");
        let (wh, wl, wa) = want.expect("reference finds a best");
        assert_eq!((gh, gl), (wh, wl), "hoisted grid must pick the same (h, λ)");
        assert_eq!(ga.to_bits(), wa.to_bits(), "same best accuracy bitwise");
        assert!(ga > 0.8, "annulus accuracy {ga}");
    }

    #[test]
    fn gp_noise_grid_is_a_loop_of_stored_factorizations() {
        let pts = normal_embedded(256, 2, 5, 0.05, 71);
        let tree = BallTree::build(&pts, 32);
        let kernel = Gaussian::new(1.5);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-10).with_max_rank(160).with_neighbors(12),
        );
        let y: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).sin()).collect();
        let grid = [1e-3, 0.05, 0.5, 5.0];
        let (gp, curve) = GaussianProcess::fit_best_noise(&st, &kernel, &grid, &y).expect("fit");
        assert_eq!(curve.len(), 4);
        assert!(curve.iter().all(|e| !e.failed && e.factor_seconds > 0.0));
        // Every point of the curve is the log marginal likelihood of a
        // public stored factorization at that noise level, bit for bit.
        let y_perm = st.tree().permute_vec(&y);
        for (e, &noise2) in curve.iter().zip(&grid) {
            let cfg = SolverConfig::default().with_storage(StorageMode::StoredGemv);
            let ft = factorize(&st, &kernel, cfg.with_lambda(noise2)).expect("stored factorize");
            let mut alpha = y_perm.clone();
            ft.solve_in_place(&mut alpha).expect("solve");
            let lml = -0.5 * kfds_la::blas1::dot(&y_perm, &alpha)
                - 0.5 * ft.log_det().expect("log det")
                - 0.5 * 256.0 * (2.0 * std::f64::consts::PI).ln();
            assert_eq!(e.noise2, noise2);
            assert_eq!(e.log_marginal.to_bits(), lml.to_bits(), "noise {noise2}");
        }
        // The selected noise maximizes the curve.
        let best = curve
            .iter()
            .max_by(|a, b| a.log_marginal.partial_cmp(&b.log_marginal).expect("no NaN"))
            .expect("non-empty");
        assert_eq!(best.noise2, gp.noise_variance());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random geometry, leaf size, and λ grid: `refactor(λ)` must be
        /// bitwise a fresh StoredGemv factorize at every λ.
        #[test]
        fn prop_refactor_bitwise(
            seed in 0u64..1000,
            leaf in 16usize..48,
            lambdas in proptest::collection::vec(-2.0f64..4.0, 1..4),
        ) {
            let pts = normal_embedded(160, 2, 5, 0.05, seed);
            let tree = BallTree::build(&pts, leaf);
            let kernel = Gaussian::new(1.0);
            let st = skeletonize(
                tree,
                &kernel,
                SkelConfig::default().with_tol(1e-7).with_max_rank(64).with_neighbors(8),
            );
            let blocks = Arc::new(assemble_blocks(&st, &kernel));
            let b = rand_vec(160, seed | 1);
            let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
            for &raw in &lambdas {
                // 10^raw spans strongly- to weakly-regularized regimes.
                let lambda = 10f64.powf(raw);
                let cfg = base.with_lambda(lambda);
                let fresh = factorize(&st, &kernel, cfg);
                let blocked = factorize_with_blocks(&st, &kernel, Arc::clone(&blocks), cfg);
                match (fresh, blocked) {
                    (Ok(f), Ok(bl)) => {
                        prop_assert_eq!(solve_bits(&f, &b), solve_bits(&bl, &b));
                    }
                    (Err(_), Err(_)) => {}
                    (f, bl) => {
                        prop_assert!(
                            false,
                            "paths disagree at λ={}: fresh ok={} blocked ok={}",
                            lambda, f.is_ok(), bl.is_ok()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn hostile_small_inputs_factorize_and_solve() {
    // Coincident points, sites with copies, fewer points than a leaf and a
    // single point: each skeletonizes, factorizes and inverts λI + K̃ with
    // no panic and a finite residual.
    let kernel = Gaussian::new(1.0);
    let cfg = SolverConfig::default().with_lambda(0.5);
    let skel = SkelConfig::default().with_tol(1e-5).with_max_rank(96).with_neighbors(8);
    let sites = normal_embedded(40, 3, 3, 0.05, 5);
    let copies: Vec<usize> = (0..320).map(|i| i % 40).collect();
    let cases = [
        ("300 coincident", PointSet::from_col_major(3, [0.25, -1.0, 0.5].repeat(300)), 32),
        ("40 sites x 8 copies", sites.select(&copies), 32),
        ("n = 10", normal_embedded(10, 3, 3, 0.05, 6), 16),
        ("n = 17", normal_embedded(17, 3, 3, 0.05, 7), 16),
        ("n = 1", normal_embedded(1, 3, 3, 0.05, 8), 16),
    ];
    for (what, pts, leaf) in cases {
        let st = skeletonize(BallTree::build(&pts, leaf), &kernel, skel.clone());
        let ft = factorize(&st, &kernel, cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
        let b = rand_vec(pts.len(), 3);
        let mut x = b.clone();
        ft.solve_in_place(&mut x).unwrap_or_else(|e| panic!("{what}: {e}"));
        let r = rel_err(&hier_matvec(&st, &kernel, 0.5, &x), &b);
        assert!(r <= 1e-8, "{what}: residual {r}"); // false for a NaN too
    }
}
