//! Correctness tests for the direct, baseline, hybrid and distributed
//! solvers.

use crate::config::{SolverConfig, StorageMode};
use crate::{
    dist_factorize, estimate_condition, factorize, factorize_baseline, HybridSolver, KernelRidge,
};
use kfds_askit::{hier_matvec, skeletonize, SkelConfig, SkeletonTree};
use kfds_kernels::{eval_symmetric, Gaussian};
use kfds_krylov::GmresOptions;
use kfds_la::blas1::nrm2;
use kfds_tree::datasets::{normal_embedded, two_class_annulus};
use kfds_tree::BallTree;

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
    let pts = normal_embedded(512, 3, 8, 0.05, 42);
    let tree = BallTree::build(&pts, 32);
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
}

#[test]
fn baseline_produces_identical_factorization() {
    // Table III note: "Both methods construct exactly the same
    // factorization (up to roundoff errors)".
    let (st, kernel) = fixture(1, 1e-5);
    let cfg = SolverConfig::default().with_lambda(1.0);
    let fast = factorize(&st, &kernel, cfg).expect("telescoped");
    let slow = factorize_baseline(&st, &kernel, cfg).expect("baseline");
    let b = rand_vec(512, 21);
    let mut x1 = b.clone();
    let mut x2 = b.clone();
    fast.solve_in_place(&mut x1).expect("solve fast");
    slow.solve_in_place(&mut x2).expect("solve slow");
    let r = rel_err(&x1, &x2);
    assert!(r < 1e-9, "baseline mismatch {r}");
    // The telescoping must also save flops even at this tiny size.
    assert!(fast.stats().flops < slow.stats().flops);
}

#[test]
fn storage_modes_agree() {
    let (st, kernel) = fixture(1, 1e-5);
    let b = rand_vec(512, 33);
    let mut sols = Vec::new();
    for mode in [StorageMode::StoredGemv, StorageMode::RecomputeGemm, StorageMode::Gsks] {
        let cfg = SolverConfig::default().with_lambda(0.7).with_storage(mode);
        let ft = factorize(&st, &kernel, cfg).expect("factorize");
        let mut x = b.clone();
        ft.solve_in_place(&mut x).expect("solve");
        sols.push(x);
    }
    assert!(rel_err(&sols[0], &sols[1]) < 1e-10);
    assert!(rel_err(&sols[0], &sols[2]) < 1e-10);
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
    // the direct variant that LU-factorizes the coalesced 2^L s system.
    let (st, kernel) = fixture(3, 1e-5);
    let lambda = 0.8;
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda)).expect("f");
    let direct = crate::LevelRestrictedDirect::new(&ft).expect("level-restricted direct");
    let hy = HybridSolver::new(&ft).expect("hybrid");
    assert_eq!(direct.reduced_dim(), hy.reduced_dim());
    let b = rand_vec(512, 29);
    let xd = direct.solve(&b);
    // Direct variant must invert the level-restricted operator exactly.
    let applied = hier_matvec(&st, &kernel, lambda, &xd);
    assert!(rel_err(&applied, &b) < 1e-9, "direct level-restricted residual");
    let opts = GmresOptions { tol: 1e-12, max_iters: 400, ..Default::default() };
    let out = hy.solve(&b, &opts).expect("hybrid");
    assert!(rel_err(&xd, &out.x) < 1e-8, "direct vs hybrid mismatch");
}

#[test]
fn distributed_matches_serial() {
    let (st, kernel) = fixture(1, 1e-5);
    let base = SolverConfig::default().with_lambda(0.6);
    // The ranks' local sweeps are the serial sweep restricted to a
    // subtree: under stored V each assembles its own subtree's coupling
    // blocks, under recompute-W each drops its internal P̂ as it goes.
    let stored = base.with_storage(StorageMode::StoredGemv);
    let recompute = base.with_w_storage(crate::WStorage::Recompute);
    for (cfg, ranks) in [(base, &[1, 2, 4][..]), (stored, &[2, 4]), (recompute, &[2, 4])] {
        let serial = factorize(&st, &kernel, cfg).expect("serial");
        let b = rand_vec(512, 17);
        let mut want = b.clone();
        serial.solve_in_place(&mut want).expect("serial solve");
        for &p in ranks {
            let ds = dist_factorize(&st, &kernel, cfg, p).expect("dist factorize");
            let got = ds.solve(&b);
            let r = rel_err(&got, &want);
            assert!(r < 1e-9, "{:?}/{:?} p={p}: dist-vs-serial {r}", cfg.storage, cfg.w_storage);
        }
    }
}

#[test]
fn distributed_rejects_rank_counts_that_do_not_fit_the_tree() {
    let (st, kernel) = fixture(1, 1e-5);
    let cfg = SolverConfig::default().with_lambda(0.6);
    // Not a power of two; and a power of two one level past the leaves.
    let too_many = 2 * st.tree().leaves().len();
    for p in [0, 3, too_many] {
        let got = dist_factorize(&st, &kernel, cfg, p);
        assert!(matches!(got, Err(crate::SolverError::Partition { .. })), "p={p}");
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
fn level_restricted_direct_storage_modes_agree() {
    let (st, kernel) = fixture(2, 1e-5);
    let b = rand_vec(512, 41);
    let mut sols = Vec::new();
    let mut bytes = Vec::new();
    for mode in [StorageMode::Gsks, StorageMode::StoredGemv] {
        let cfg = SolverConfig::default().with_lambda(0.6).with_storage(mode);
        let ft = factorize(&st, &kernel, cfg).expect("f");
        let direct = crate::LevelRestrictedDirect::new(&ft).expect("direct");
        sols.push(direct.solve(&b));
        bytes.push(direct.reduced_bytes);
    }
    assert!(rel_err(&sols[0], &sols[1]) < 1e-10, "stored-V direct differs from fused");
    // Stored V holds K_{φ̃, X∖φ}: no columns for a node's own points.
    let v_bytes: usize = st
        .frontier()
        .iter()
        .map(|&f| {
            st.skeleton(f).expect("frontier skeleton").rank() * (512 - st.tree().node(f).len())
        })
        .sum::<usize>()
        * 8;
    assert_eq!(bytes[1] - bytes[0], v_bytes);
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
    );
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
fn fast_prediction_matches_exact_prediction() {
    let (pts, labels) = two_class_annulus(400, 3, 33);
    let train = pts.select(&(0..320).collect::<Vec<_>>());
    let test = pts.select(&(320..400).collect::<Vec<_>>());
    let (model, _) = KernelRidge::train(
        &train,
        &labels[..320],
        Gaussian::new(0.5),
        32,
        SkelConfig::default().with_tol(1e-7).with_max_rank(128).with_neighbors(8),
        SolverConfig::default().with_lambda(1e-2),
    )
    .expect("train");
    let exact = model.predict(&test);
    let fast = model.predict_fast(&test, 0.4);
    for (e, f) in exact.iter().zip(&fast) {
        assert!((e - f).abs() < 1e-3 * (1.0 + e.abs()), "{e} vs {f}");
    }
}

#[test]
fn recompute_w_matches_stored_w() {
    // §III memory scheme: P̂ stored only at leaves, internal applications
    // telescoped through eq. (10). Must agree with the stored scheme to
    // roundoff and retain strictly less memory.
    let (st, kernel) = fixture(1, 1e-5);
    let b = rand_vec(512, 81);
    let stored_cfg = SolverConfig::default().with_lambda(0.9);
    let rec_cfg = stored_cfg.with_w_storage(crate::config::WStorage::Recompute);
    let ft_s = factorize(&st, &kernel, stored_cfg).expect("stored");
    let ft_r = factorize(&st, &kernel, rec_cfg).expect("recompute");
    let mut x1 = b.clone();
    let mut x2 = b.clone();
    ft_s.solve_in_place(&mut x1).expect("solve stored");
    ft_r.solve_in_place(&mut x2).expect("solve recompute");
    assert!(rel_err(&x1, &x2) < 1e-10, "recompute-W solution differs");
    assert!(
        ft_r.stats().stored_bytes < ft_s.stats().stored_bytes,
        "recompute-W should retain less: {} vs {}",
        ft_r.stats().stored_bytes,
        ft_s.stats().stored_bytes
    );
    // Several columns through the telescoped apply_p_hat.
    let mut bm = kfds_la::Mat::zeros(512, 2);
    bm.col_mut(0).copy_from_slice(&b);
    bm.col_mut(1).copy_from_slice(&rand_vec(512, 82));
    let bm0 = bm.clone();
    ft_r.solve_mat_in_place(&mut bm).expect("solve mat");
    let mut c0 = bm0.col(0).to_vec();
    ft_s.solve_in_place(&mut c0).expect("s");
    assert!(rel_err(bm.col(0), &c0) < 1e-10);
}

#[test]
fn recompute_w_hybrid_and_leveldirect() {
    let (st, kernel) = fixture(3, 1e-5);
    let b = rand_vec(512, 91);
    let lambda = 0.7;
    let rec_cfg = SolverConfig::default()
        .with_lambda(lambda)
        .with_w_storage(crate::config::WStorage::Recompute);
    let ft = factorize(&st, &kernel, rec_cfg).expect("recompute partial");
    let hy = HybridSolver::new(&ft).expect("hybrid");
    let opts = GmresOptions { tol: 1e-12, max_iters: 400, ..Default::default() };
    let out = hy.solve(&b, &opts).expect("hybrid solve");
    let applied = hier_matvec(&st, &kernel, lambda, &out.x);
    assert!(rel_err(&applied, &b) < 1e-8, "recompute-W hybrid residual");
    let direct = crate::LevelRestrictedDirect::new(&ft).expect("direct");
    let xd = direct.solve(&b);
    assert!(rel_err(&xd, &out.x) < 1e-8, "recompute-W leveldirect mismatch");
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
fn cholesky_leaf_matches_lu_leaf() {
    let (st, kernel) = fixture(1, 1e-5);
    let b = rand_vec(512, 61);
    let lu_cfg = SolverConfig::default().with_lambda(0.5);
    let ch_cfg = lu_cfg.with_leaf(crate::config::LeafFactorization::Cholesky);
    let ft_lu = factorize(&st, &kernel, lu_cfg).expect("lu");
    let ft_ch = factorize(&st, &kernel, ch_cfg).expect("cholesky");
    let mut x1 = b.clone();
    let mut x2 = b.clone();
    ft_lu.solve_in_place(&mut x1).expect("solve");
    ft_ch.solve_in_place(&mut x2).expect("solve");
    assert!(rel_err(&x1, &x2) < 1e-9, "cholesky leaves disagree with LU");
    // Cholesky leaves cost half the factorization flops at the leaves.
    assert!(ft_ch.stats().flops < ft_lu.stats().flops);
}

#[test]
fn cholesky_detects_indefiniteness() {
    // Flat kernel + tiny λ: the compressed leaf blocks are numerically
    // semidefinite; Cholesky must refuse (or flag) rather than produce a
    // garbage factorization.
    let pts = normal_embedded(256, 2, 4, 0.05, 3);
    let tree = BallTree::build(&pts, 32);
    let kernel = Gaussian::new(50.0);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-7).with_max_rank(64).with_neighbors(8),
    );
    let cfg = SolverConfig::default()
        .with_lambda(1e-16)
        .with_leaf(crate::config::LeafFactorization::Cholesky);
    match factorize(&st, &kernel, cfg) {
        Err(crate::SolverError::Factorization { .. }) => {}
        Ok(f) => assert!(f.stats().is_unstable()),
        Err(other) => panic!("unexpected error {other}"),
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
    let factored =
        ft.factors().iter().filter(|nf| nf.leaf_lu.is_some() || nf.z_lu.is_some()).count();
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
    //! successes *and* failures, and the sweep consumers must agree
    //! between the refactor and legacy paths.

    use super::*;
    use crate::assemble::assemble_blocks;
    use crate::config::LeafFactorization;
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
    fn refactorization_is_on_unless_the_switch_opts_out() {
        assert_eq!(crate::refactor_enabled(), !kfds_switches::KFDS_REFACTOR.is_off());
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
        let mat = |m: &Option<kfds_la::Mat>| m.as_ref().map_or(0, |m| m.nrows() * m.ncols());
        let words: usize = (ft.factors().iter().enumerate())
            .map(|(i, nf)| {
                let leaf = nf.leaf_lu.as_ref().map_or(0, |_| tree.node(i).len().pow(2));
                let z = nf.z_lu.as_ref().map_or(0, |z| z.dim().pow(2));
                leaf + z + mat(&nf.p_hat) + mat(&nf.b_l) + mat(&nf.b_r)
            })
            .sum();
        8 * words
    }

    /// Bytes of the coupling blocks `blocks` holds, counted from the
    /// matrices themselves.
    fn coupling_bytes_held(blocks: &crate::AssembledBlocks) -> usize {
        (0..blocks.len())
            .flat_map(|i| [&blocks.node(i).k_lr, &blocks.node(i).k_rl])
            .flatten()
            .map(|m| 8 * m.nrows() * m.ncols())
            .sum()
    }

    #[test]
    fn stored_v_blocks_exist_once() {
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
                let nb = blocks.node(i);
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
        use crate::config::WStorage;
        let (st, kernel) = fixture(1, 1e-5);
        let full = Arc::new(assemble_blocks(&st, &kernel));
        let v_bytes = coupling_bytes_held(&full);
        assert!(v_bytes > 0);
        assert_eq!(full.stats().bytes, v_bytes, "an assembly is its coupling blocks");
        for w in [WStorage::Stored, WStorage::Recompute] {
            let base = SolverConfig::default().with_lambda(0.7).with_w_storage(w);
            let over = factorize_with_blocks(&st, &kernel, Arc::clone(&full), base).expect("over");
            let (owned, shared) = (over.stats().stored_bytes, over.stats().shared_bytes);
            assert_eq!(shared, v_bytes, "{w:?}");
            assert_eq!(owned, factor_bytes_held(&over), "{w:?}");
            for storage in [StorageMode::StoredGemv, StorageMode::RecomputeGemm, StorageMode::Gsks]
            {
                let fresh = factorize(&st, &kernel, base.with_storage(storage)).expect("fresh");
                let what = format!("{storage:?}/{w:?}");
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
                // Whatever it starts from, a refactored tree reads the
                // same bytes.
                let re = fresh.refactor(0.7).expect("refactor");
                assert_eq!(
                    re.stats().stored_bytes + re.stats().shared_bytes,
                    owned + shared,
                    "{what}"
                );
            }
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
    fn blocked_path_agrees_on_failure() {
        // λ far below -||K||: the shifted leaf blocks go negative
        // definite and Cholesky must refuse on both paths.
        let (st, kernel) = fixture(1, 1e-5);
        let blocks = Arc::new(assemble_blocks(&st, &kernel));
        let cfg = SolverConfig::default()
            .with_storage(StorageMode::StoredGemv)
            .with_leaf(LeafFactorization::Cholesky)
            .with_lambda(-1e3);
        let fresh = factorize(&st, &kernel, cfg);
        let blocked = factorize_with_blocks(&st, &kernel, blocks, cfg);
        assert!(fresh.is_err(), "fresh path must fail at this λ");
        assert!(blocked.is_err(), "blocked path must fail at this λ");
    }

    #[test]
    fn lambda_sweep_refactor_matches_legacy_bitwise() {
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
        // A StoredGemv + Cholesky base makes both paths take identical
        // code per λ, and the negative λ fails on both.
        let base = SolverConfig::default()
            .with_storage(StorageMode::StoredGemv)
            .with_leaf(LeafFactorization::Cholesky);
        let lambdas = [10.0, 0.1, -1e3, 1e-3];
        let on = crate::crossval::lambda_sweep_impl(
            &st,
            &kernel,
            base,
            &lambdas,
            &y_perm,
            Some((&valid, &labels[320..])),
            true,
        );
        let off = crate::crossval::lambda_sweep_impl(
            &st,
            &kernel,
            base,
            &lambdas,
            &y_perm,
            Some((&valid, &labels[320..])),
            false,
        );
        assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.lambda, b.lambda);
            assert_eq!(a.failed, b.failed, "lambda {}", a.lambda);
            assert_eq!(a.unstable, b.unstable, "lambda {}", a.lambda);
            assert_eq!(
                a.residual.to_bits(),
                b.residual.to_bits(),
                "lambda {}: refactor-path residual must be bitwise legacy",
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
        let failed: Vec<_> = on.iter().filter(|e| e.failed).collect();
        assert_eq!(failed.len(), 1, "exactly the negative λ fails");
        assert_eq!(failed[0].lambda, -1e3);
        assert!(failed[0].factor_seconds > 0.0, "failed λ must report elapsed time, not 0.0");
        assert!(failed[0].unstable && failed[0].residual.is_nan());
        // Completed entries are unfailed regardless of stability flags.
        assert!(on.iter().filter(|e| !e.failed).all(|e| e.factor_seconds > 0.0));
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
        );
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
            );
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
    fn gp_noise_grid_shares_one_assembly() {
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
        let (gp_on, curve_on) =
            GaussianProcess::fit_best_noise_impl(&st, &kernel, &grid, &y, true).expect("on");
        let (gp_off, curve_off) =
            GaussianProcess::fit_best_noise_impl(&st, &kernel, &grid, &y, false).expect("off");
        assert_eq!(curve_on.len(), 4);
        assert!(curve_on.iter().all(|e| !e.failed && e.factor_seconds > 0.0));
        // Both paths pick the same model; LMLs agree to storage-mode
        // reassociation tolerance (off runs the Gsks default).
        assert_eq!(gp_on.noise_variance(), gp_off.noise_variance());
        for (a, b) in curve_on.iter().zip(&curve_off) {
            let scale = b.log_marginal.abs().max(1.0);
            assert!(
                (a.log_marginal - b.log_marginal).abs() < 1e-6 * scale,
                "noise {}: {} vs {}",
                a.noise2,
                a.log_marginal,
                b.log_marginal
            );
        }
        // The selected noise maximizes the curve.
        let best = curve_on
            .iter()
            .max_by(|a, b| a.log_marginal.partial_cmp(&b.log_marginal).expect("no NaN"))
            .expect("non-empty");
        assert_eq!(best.noise2, gp_on.noise_variance());
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
