//! Gaussian process regression on top of the fast direct solver.
//!
//! GP training is the paper's canonical workload ("kernel matrices appear
//! in ... Gaussian process regression", §I): the posterior mean needs
//! `α = (K + σ²I)^{-1} y`, the predictive variance needs more solves, and
//! the log marginal likelihood needs `log det(K + σ²I)` — which the
//! hierarchical factorization yields *for free*: by Sylvester's identity
//! `det(D(I+WV)) = det(D) det(Z)`, so
//!
//! ```text
//! log det(λI + K̃) = Σ_leaves log det(λI + K_αα) + Σ_internal log det(Z_α)
//! ```
//!
//! an `O(N log N)` determinant that normally costs `O(N³)`. Each
//! `det Z_α` is read as `det S_α`, of the Schur complement through which
//! the reduced system is factored.

use crate::assemble::assemble_blocks;
use crate::error::SolverError;
use crate::factor::{factorize, factorize_with_blocks, FactorTree};
use crate::reduced::ReducedLu;
use crate::solve::check_rhs_rows;
use kfds_askit::{SkeletonTree, TreecodeEvaluator};
use kfds_kernels::Kernel;
use kfds_la::Mat;
use kfds_tree::PointSet;
use std::sync::Arc;
use std::time::Instant;

impl<K: Kernel> FactorTree<'_, K> {
    /// `log det(λI + K̃)` from the factors (Sylvester's identity): the sum
    /// of `log |det|` over every leaf LU and every `Z_α` — the LU of its
    /// Schur complement `S_α`, as `det Z_α = det S_α` — and the product of
    /// their signs as the sign of the determinant.
    ///
    /// # Errors
    /// [`SolverError::NotSkeletonized`] for partial factorizations;
    /// [`SolverError::NegativeDeterminant`] when the signs multiply to a
    /// negative determinant — `λI + K̃` is then not positive definite (an
    /// indefinite compressed operator, or a `λ` below `−σ_min(K̃)`), so it
    /// has no log-determinant. A positive sign does not prove the matrix
    /// positive definite: an even number of negative eigenvalues passes.
    pub fn log_det(&self) -> Result<f64, SolverError> {
        if !self.is_complete() {
            return Err(SolverError::NotSkeletonized { node: self.skeleton_tree().tree().root() });
        }
        let (mut acc, mut sign) = (0.0, 1.0);
        // det Z_α = det S_α (Schur determinant identity).
        let lus = self
            .factors()
            .iter()
            .flat_map(|nf| nf.leaf_lu.iter().chain(nf.z.iter().map(ReducedLu::s_lu)));
        for lu in lus {
            acc += lu.log_abs_det();
            sign *= lu.det_sign();
        }
        if sign > 0.0 {
            Ok(acc)
        } else {
            Err(SolverError::NegativeDeterminant)
        }
    }
}

/// One row of a GP noise-variance sweep ([`GaussianProcess::fit_best_noise`]).
#[derive(Clone, Debug)]
pub struct NoiseSweepEntry {
    /// Observation noise variance `σ²` (enters as λ).
    pub noise2: f64,
    /// Log marginal likelihood at this noise level (`NaN` when failed).
    pub log_marginal: f64,
    /// Wall-clock seconds for the factorization + fit at this grid point
    /// (for a failed point, the time spent failing).
    pub factor_seconds: f64,
    /// `true` iff factorization/fit failed outright at this grid point.
    pub failed: bool,
}

/// A fitted Gaussian process (zero prior mean).
pub struct GaussianProcess<'a, K: Kernel> {
    ft: FactorTree<'a, K>,
    /// `α = (K̃ + σ²I)^{-1} y`, permuted order.
    alpha_perm: Vec<f64>,
    /// Observation noise variance `σ²`.
    noise2: f64,
    /// Cached `log det(K̃ + σ²I)`.
    log_det: f64,
    /// Cached `yᵀ α`.
    y_dot_alpha: f64,
}

impl<'a, K: Kernel> GaussianProcess<'a, K> {
    /// Fits the GP: one factorization of `σ²I + K̃` plus one solve.
    ///
    /// `y` is in *original* point order.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `y.len()` differs from the point count;
    /// factorization failures; [`SolverError::NegativeDeterminant`] when
    /// the factor is certified indefinite (see [`FactorTree::log_det`]).
    ///
    /// # Panics
    /// Panics if `noise2 <= 0`.
    pub fn fit(
        st: &'a SkeletonTree,
        kernel: &'a K,
        noise2: f64,
        y: &[f64],
    ) -> Result<Self, SolverError> {
        assert!(noise2 > 0.0, "observation noise variance must be positive");
        check_rhs_rows(st.tree().points().len(), y.len())?;
        let cfg = crate::SolverConfig::default().with_lambda(noise2);
        let ft = factorize(st, kernel, cfg)?;
        Self::from_factor_tree(ft, noise2, y)
    }

    /// Finishes a fit over an already-built factorization: one solve for
    /// `α`, the Sylvester log-determinant, and the cached `yᵀα`.
    fn from_factor_tree(
        ft: FactorTree<'a, K>,
        noise2: f64,
        y: &[f64],
    ) -> Result<Self, SolverError> {
        let y_perm = ft.skeleton_tree().tree().permute_vec(y);
        let mut alpha = y_perm.clone();
        ft.solve_in_place(&mut alpha)?;
        let log_det = ft.log_det()?;
        let y_dot_alpha = kfds_la::blas1::dot(&y_perm, &alpha);
        Ok(GaussianProcess { ft, alpha_perm: alpha, noise2, log_det, y_dot_alpha })
    }

    /// Fits the GP at every noise variance in `noise_grid` and returns
    /// the fit maximizing the log marginal likelihood, plus the full
    /// sweep curve — the GP model-selection loop the paper motivates.
    ///
    /// The coupling blocks are assembled once and every grid point pays
    /// the leaf diagonals and the linear algebra ([`factorize_with_blocks`],
    /// so every fit is a stored-`V`
    /// [`StorageMode::StoredGemv`](crate::StorageMode::StoredGemv) factor,
    /// bitwise what [`factorize`] under `StoredGemv` builds). Grid points
    /// whose fit fails — the factorization, or a negative determinant
    /// ([`SolverError::NegativeDeterminant`]) — are recorded in the curve
    /// (`failed = true`, with honest elapsed seconds) and skipped for model
    /// selection.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `y.len()` differs from the point count;
    /// otherwise the [`SolverError`] of the *last* failure when every grid
    /// point fails.
    ///
    /// # Panics
    /// Panics on an empty grid or a non-positive noise variance.
    pub fn fit_best_noise(
        st: &'a SkeletonTree,
        kernel: &'a K,
        noise_grid: &[f64],
        y: &[f64],
    ) -> Result<(Self, Vec<NoiseSweepEntry>), SolverError> {
        assert!(!noise_grid.is_empty(), "noise grid must be non-empty");
        assert!(noise_grid.iter().all(|&s| s > 0.0), "noise variances must be positive");
        check_rhs_rows(st.tree().points().len(), y.len())?;
        // One assembly amortized across the whole noise grid.
        let blocks = Arc::new(assemble_blocks(st, kernel));
        let mut curve = Vec::with_capacity(noise_grid.len());
        let mut best: Option<Self> = None;
        let mut last_err = None;
        for &noise2 in noise_grid {
            let cfg = crate::SolverConfig::default().with_lambda(noise2);
            let t0 = Instant::now();
            let fitted = factorize_with_blocks(st, kernel, Arc::clone(&blocks), cfg)
                .and_then(|ft| Self::from_factor_tree(ft, noise2, y));
            let factor_seconds = t0.elapsed().as_secs_f64();
            match fitted {
                Ok(gp) => {
                    let lml = gp.log_marginal_likelihood();
                    curve.push(NoiseSweepEntry {
                        noise2,
                        log_marginal: lml,
                        factor_seconds,
                        failed: false,
                    });
                    if best.as_ref().map(|b| lml > b.log_marginal_likelihood()).unwrap_or(true) {
                        best = Some(gp);
                    }
                }
                Err(e) => {
                    curve.push(NoiseSweepEntry {
                        noise2,
                        log_marginal: f64::NAN,
                        factor_seconds,
                        failed: true,
                    });
                    last_err = Some(e);
                }
            }
        }
        match best {
            Some(gp) => Ok((gp, curve)),
            None => Err(last_err.expect("non-empty grid with no fit must have an error")),
        }
    }

    /// The log marginal likelihood
    /// `−½ yᵀα − ½ log det(K+σ²I) − (n/2) log 2π` — the GP model-selection
    /// objective, computable here in `O(N log N)`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.ft.skeleton_tree().tree().points().len() as f64;
        -0.5 * self.y_dot_alpha - 0.5 * self.log_det - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Posterior mean at the test points (treecode evaluation with
    /// acceptance parameter `theta`; `theta = 0` is exact).
    pub fn predict_mean(&self, test: &PointSet, theta: f64) -> Vec<f64> {
        let ev = TreecodeEvaluator::new(
            self.ft.skeleton_tree(),
            self.ft.kernel(),
            self.alpha_perm.clone(),
            theta,
        );
        ev.evaluate_batch(test)
    }

    /// Posterior variance of the latent function at the test points:
    /// `k(x,x) − k*ᵀ (K+σ²I)^{-1} k*`, batched through the multi-RHS
    /// solve.
    pub fn predict_variance(&self, test: &PointSet) -> Vec<f64> {
        let st = self.ft.skeleton_tree();
        let pts = st.tree().points();
        let kernel = self.ft.kernel();
        let n = pts.len();
        let t = test.len();
        let mut out = Vec::with_capacity(t);
        // Batch test columns to bound memory (n x batch).
        const BATCH: usize = 64;
        for chunk_start in (0..t).step_by(BATCH) {
            let chunk = chunk_start..(chunk_start + BATCH).min(t);
            let width = chunk.len();
            let mut kstar = Mat::zeros(n, width);
            for (jj, j) in chunk.clone().enumerate() {
                let col = kstar.col_mut(jj);
                let x = test.point(j);
                for (i, ci) in col.iter_mut().enumerate() {
                    *ci = kernel.eval(x, pts.point(i));
                }
            }
            let kstar0 = kstar.clone();
            let mut solved = kstar;
            self.ft.solve_mat_in_place(&mut solved).expect("complete factorization");
            for (jj, j) in chunk.enumerate() {
                let x = test.point(j);
                let kxx = kernel.eval(x, x);
                let quad = kfds_la::blas1::dot(kstar0.col(jj), solved.col(jj));
                out.push((kxx - quad).max(0.0));
            }
        }
        out
    }

    /// Observation noise variance `σ²`.
    pub fn noise_variance(&self) -> f64 {
        self.noise2
    }

    /// The underlying factorization (for diagnostics).
    pub fn factor_tree(&self) -> &FactorTree<'a, K> {
        &self.ft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfds_askit::{skeletonize, SkelConfig};
    use kfds_kernels::{eval_symmetric, Gaussian, Polynomial};
    use kfds_la::Lu;
    use kfds_tree::datasets::normal_embedded;
    use kfds_tree::BallTree;

    fn fixture() -> (SkeletonTree, Gaussian, Vec<f64>) {
        let pts = normal_embedded(256, 2, 5, 0.05, 71);
        let tree = BallTree::build(&pts, 32);
        let kernel = Gaussian::new(1.5);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-10).with_max_rank(160).with_neighbors(12),
        );
        let y: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).sin()).collect();
        (st, kernel, y)
    }

    fn dense_system(st: &SkeletonTree, kernel: &Gaussian, noise2: f64) -> kfds_la::Mat {
        let n = st.tree().points().len();
        let mut km = eval_symmetric(kernel, st.tree().points(), 0..n);
        for i in 0..n {
            km[(i, i)] += noise2;
        }
        km
    }

    #[test]
    fn log_det_matches_dense() {
        let (st, kernel, _) = fixture();
        let noise2 = 0.1;
        let ft = factorize(&st, &kernel, crate::SolverConfig::default().with_lambda(noise2))
            .expect("factorize");
        let fast = ft.log_det().expect("log det");
        let km = dense_system(&st, &kernel, noise2);
        let dense = Lu::factor(km).expect("dense LU").log_abs_det();
        // The factorization's K̃ differs from K by the (tight) tolerance.
        assert!((fast - dense).abs() < 1e-3 * dense.abs().max(1.0), "fast {fast} vs dense {dense}");
    }

    /// `K ≡ −3` over `n` points: `λI + K` has the eigenvalues `λ − 3n`
    /// (once) and `λ`, so its determinant is negative for `0 < λ < 3n`, yet
    /// every 16-point leaf block's is positive for even leaf counts — the
    /// sign has to come from the reduced systems `Z_α`.
    fn negative_fixture(n: usize) -> (SkeletonTree, Polynomial) {
        let pts = normal_embedded(n, 2, 3, 0.05, 5);
        let tree = BallTree::build(&pts, 16);
        let kernel = Polynomial::new(0.0, -3.0, 1);
        let st = skeletonize(tree, &kernel, SkelConfig::default().with_tol(1e-10));
        (st, kernel)
    }

    #[test]
    fn log_det_refuses_a_negative_determinant() {
        // One point (a root leaf) and a 64-point tree of leaves and Z_α,
        // against the sign of the dense determinant.
        for (n, lambda) in [(1, -2.0), (1, 0.5), (1, 4.0), (64, 1.0), (64, 100.0), (64, 250.0)] {
            let (st, kernel) = negative_fixture(n);
            let ft = factorize(&st, &kernel, crate::SolverConfig::default().with_lambda(lambda))
                .expect("factorize");
            let mut km = eval_symmetric(&kernel, st.tree().points(), 0..n);
            for i in 0..n {
                km[(i, i)] += lambda;
            }
            let dense = Lu::factor(km).expect("dense LU");
            match ft.log_det() {
                Ok(ld) => {
                    assert!(dense.det_sign() > 0.0, "n {n}, λ {lambda}: log det {ld}");
                    let want = dense.log_abs_det();
                    assert!((ld - want).abs() < 1e-8 * want.abs().max(1.0), "{ld} vs {want}");
                }
                Err(SolverError::NegativeDeterminant) => {
                    assert!(dense.det_sign() < 0.0, "n {n}, λ {lambda}: refused a positive det")
                }
                Err(e) => panic!("n {n}, λ {lambda}: {e}"),
            }
        }
    }

    #[test]
    fn noise_sweep_fails_a_grid_point_with_a_negative_determinant() {
        // σ² = 1 leaves λI + K̃ indefinite (det < 0); σ² = 250 does not.
        let (st, kernel) = negative_fixture(64);
        let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos()).collect();
        let (gp, curve) =
            GaussianProcess::fit_best_noise(&st, &kernel, &[1.0, 250.0], &y).expect("sweep");
        assert!(curve[0].failed && curve[0].log_marginal.is_nan(), "σ² = 1 must fail");
        assert!(!curve[1].failed);
        assert_eq!(gp.noise_variance(), 250.0);
        assert!(matches!(
            GaussianProcess::fit(&st, &kernel, 1.0, &y),
            Err(SolverError::NegativeDeterminant)
        ));
    }

    #[test]
    fn log_det_scales_with_lambda() {
        let (st, kernel, _) = fixture();
        // Huge lambda: log det ~ n log lambda.
        let lam = 1e6;
        let ft = factorize(&st, &kernel, crate::SolverConfig::default().with_lambda(lam))
            .expect("factorize");
        let ld = ft.log_det().expect("log det");
        let want = 256.0 * lam.ln();
        assert!((ld - want).abs() / want < 1e-3, "{ld} vs {want}");
    }

    #[test]
    fn marginal_likelihood_matches_dense() {
        let (st, kernel, y) = fixture();
        let noise2 = 0.05;
        let gp = GaussianProcess::fit(
            &st,
            &kernel,
            noise2,
            &st.tree().unpermute_vec(
                &st.tree().permute_vec(&y), // identity round-trip keeps order explicit
            ),
        )
        .expect("fit");
        let lml = gp.log_marginal_likelihood();
        // Dense reference.
        let km = dense_system(&st, &kernel, noise2);
        let lu = Lu::factor(km).expect("LU");
        let yp = st.tree().permute_vec(&y);
        let alpha = lu.solve(&yp);
        let dense_lml = -0.5 * kfds_la::blas1::dot(&yp, &alpha)
            - 0.5 * lu.log_abs_det()
            - 128.0 * (2.0 * std::f64::consts::PI).ln();
        assert!(
            (lml - dense_lml).abs() < 1e-2 * dense_lml.abs().max(1.0),
            "fast {lml} vs dense {dense_lml}"
        );
    }

    #[test]
    fn exact_mean_is_the_pointwise_kernel_sum() {
        let (st, kernel, y) = fixture();
        let gp = GaussianProcess::fit(&st, &kernel, 0.05, &y).expect("fit");
        // Training points and midpoints between neighbours in tree order.
        let pts = st.tree().points();
        let mut test = kfds_tree::PointSet::with_capacity(pts.dim(), 8);
        for i in [0usize, 10, 100, 255] {
            test.push(pts.point(i));
        }
        for i in [3usize, 64, 130, 200] {
            let mid: Vec<f64> =
                pts.point(i).iter().zip(pts.point(i + 1)).map(|(a, b)| 0.5 * (a + b)).collect();
            test.push(&mid);
        }
        let fast = gp.predict_mean(&test, 0.0);
        let want: Vec<f64> = (0..test.len())
            .map(|t| {
                let x = test.point(t);
                (0..pts.len()).map(|i| kernel.eval(x, pts.point(i)) * gp.alpha_perm[i]).sum()
            })
            .collect();
        let err: f64 = fast.iter().zip(&want).map(|(f, w)| (f - w).powi(2)).sum::<f64>().sqrt();
        let norm: f64 = want.iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(err <= 1e-10 * norm, "treecode at theta = 0 is {err:e} from the sum ({norm:e})");
    }

    #[test]
    fn variance_matches_dense_and_shrinks_near_data() {
        let (st, kernel, y) = fixture();
        let noise2 = 0.05;
        let gp = GaussianProcess::fit(&st, &kernel, noise2, &y).expect("fit");
        // Test points: 3 training points (variance ~ small) + 1 far point.
        let mut test = kfds_tree::PointSet::with_capacity(5, 4);
        let pts = st.tree().points();
        for i in [0usize, 10, 100] {
            test.push(pts.point(i));
        }
        test.push(&[50.0, -50.0, 50.0, -50.0, 50.0]);
        let var = gp.predict_variance(&test);
        // Dense reference.
        let km = dense_system(&st, &kernel, noise2);
        let lu = Lu::factor(km).expect("LU");
        for (j, &vj) in var.iter().enumerate() {
            let x = test.point(j);
            let kstar: Vec<f64> = (0..256).map(|i| kernel.eval(x, pts.point(i))).collect();
            let solved = lu.solve(&kstar);
            let want = (kernel.eval(x, x) - kfds_la::blas1::dot(&kstar, &solved)).max(0.0);
            assert!((vj - want).abs() < 1e-3, "point {j}: {vj} vs {want}");
        }
        // Far from data: variance approaches the prior k(x,x) = 1.
        assert!(var[3] > 0.99, "far-point variance {}", var[3]);
        // Near data: substantially reduced.
        assert!(var[0] < 0.5, "on-data variance {}", var[0]);
    }
}
