//! Cross-crate integration tests: the full pipeline from raw points to a
//! verified solve, through the public API only.

use kernel_fds::prelude::*;

fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|v| v * v).sum();
    (num / den.max(1e-300)).sqrt()
}

fn pipeline(n: usize, h: f64, lambda: f64, tol: f64, seed: u64) -> f64 {
    let points = datasets::normal_embedded(n, 3, 10, 0.05, seed);
    let kernel = Gaussian::new(h);
    let tree = BallTree::build(&points, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(tol).with_max_rank(96).with_neighbors(8),
    );
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda))
        .expect("factorization");
    let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.73).cos()).collect();
    let x = ft.solve(&b).expect("solve");
    // Residual against the compressed operator in permuted space.
    let xp = st.tree().permute_vec(&x);
    let bp = st.tree().permute_vec(&b);
    let applied = hier_matvec(&st, &kernel, lambda, &xp);
    rel_err(&applied, &bp)
}

#[test]
fn full_pipeline_inverts_operator() {
    let r = pipeline(768, 1.0, 0.8, 1e-5, 1);
    assert!(r < 1e-9, "residual {r}");
    // Down to one point: a single-leaf tree (n ≤ 32) is one dense LU, a
    // one-point set has no neighbours to search and is the 1 x 1 system.
    for n in [1, 2, 3, 32, 33] {
        let r = pipeline(n, 1.0, 0.8, 1e-5, 1);
        assert!(r < 1e-12, "n = {n}: residual {r}");
    }
}

#[test]
fn pipeline_across_bandwidths() {
    // Small h (nearly diagonal), moderate, and large (nearly rank one):
    // the factorization must invert the compressed operator in all
    // regimes (the regimes of the paper's intro discussion).
    for (h, lambda) in [(0.2, 1.0), (1.0, 0.5), (5.0, 1.0)] {
        let r = pipeline(512, h, lambda, 1e-5, 2);
        assert!(r < 1e-8, "h={h}: residual {r}");
    }
}

#[test]
fn pipeline_lambda_sweep_cross_validation_style() {
    // The factorization is recomputed per λ during cross-validation
    // (paper §I); verify several λ against the same skeletons.
    let points = datasets::normal_embedded(512, 3, 8, 0.05, 3);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&points, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(96).with_neighbors(8),
    );
    let b: Vec<f64> = (0..512).map(|i| (i as f64 * 0.11).sin()).collect();
    let bp = st.tree().permute_vec(&b);
    for lambda in [10.0, 1.0, 0.1, 0.01] {
        let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(lambda))
            .expect("factorization");
        let mut x = bp.clone();
        ft.solve_in_place(&mut x).expect("solve");
        let applied = hier_matvec(&st, &kernel, lambda, &x);
        let r = rel_err(&applied, &bp);
        assert!(r < 1e-7, "lambda={lambda}: residual {r}");
    }
}

#[test]
fn hybrid_and_direct_equivalent_through_public_api() {
    let points = datasets::normal_embedded(512, 3, 8, 0.05, 5);
    let kernel = Gaussian::new(1.2);
    let tree = BallTree::build(&points, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-6).with_max_rank(96).with_neighbors(8),
    );
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(0.3)).expect("f");
    let hy = HybridSolver::new(&ft).expect("hybrid");
    let b: Vec<f64> = (0..512).map(|i| ((7 * i % 13) as f64) - 6.0).collect();
    let direct = ft.solve(&b).expect("direct");
    let opts = GmresOptions { tol: 1e-12, ..Default::default() };
    let hybrid = hy.solve_original_order(&b, &opts).expect("hybrid");
    assert!(rel_err(&hybrid.x, &direct) < 1e-8);
}

#[test]
fn distributed_pipeline_through_public_api() {
    let points = datasets::normal_embedded(512, 3, 8, 0.05, 7);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&points, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-5).with_max_rank(96).with_neighbors(8),
    );
    let cfg = SolverConfig::default().with_lambda(0.5);
    let serial = factorize(&st, &kernel, cfg).expect("serial");
    let ds = dist_factorize(&st, &kernel, cfg, 4).expect("distributed");
    let b: Vec<f64> = (0..512).map(|i| (i as f64 * 0.31).cos()).collect();
    let bp = st.tree().permute_vec(&b);
    let mut want = bp.clone();
    serial.solve_in_place(&mut want).expect("serial solve");
    let got = ds.solve(&bp);
    assert!(rel_err(&got, &want) < 1e-9);
}

#[test]
fn approximation_error_tracks_tolerance() {
    // Tighter τ must not worsen the kernel approximation (monotone-ish);
    // loose and tight runs bracket the expected orders of magnitude.
    let points = datasets::normal_embedded(512, 2, 6, 0.05, 9);
    let kernel = Gaussian::new(1.5);
    let mut errs = Vec::new();
    for tol in [1e-2, 1e-6] {
        let tree = BallTree::build(&points, 32);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(tol).with_max_rank(160).with_neighbors(12),
        );
        errs.push(approx_error_estimate(&st, &kernel, 2));
    }
    assert!(errs[1] < errs[0], "tight tolerance should approximate better: {errs:?}");
    assert!(errs[1] < 1e-4, "tight tolerance error {}", errs[1]);
}

#[test]
fn unstable_configuration_is_flagged_not_wrong() {
    // λ ~ 0 with a flat kernel: either an error or a raised flag, never a
    // silently wrong "success".
    let points = datasets::normal_embedded(256, 2, 5, 0.05, 11);
    let kernel = Gaussian::new(30.0);
    let tree = BallTree::build(&points, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-7).with_max_rank(64).with_neighbors(8),
    );
    match factorize(&st, &kernel, SolverConfig::default().with_lambda(1e-13)) {
        Ok(ft) => assert!(ft.stats().is_unstable()),
        Err(SolverError::Factorization { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
    }
}
