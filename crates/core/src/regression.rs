//! Kernel ridge regression — the end-to-end learning task of the paper's
//! evaluation (§IV): train `w = (λI + K̃)^{-1} y` with the fast direct
//! solver, predict `ŷ(x) = sign(K(x, X) w)`.

use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::factor::{factorize, FactorTree};
use crate::solve::check_rhs_rows;
use kfds_askit::{skeletonize, SkelConfig, SkeletonTree};
use kfds_kernels::Kernel;
use kfds_tree::{BallTree, PointSet};

/// A trained kernel ridge regression model.
pub struct KernelRidge<K: Kernel> {
    kernel: K,
    st: Box<SkeletonTree>,
    /// Weights in the tree's permuted ordering.
    w_perm: Vec<f64>,
    /// Relative residual of the training solve, `‖y − (λI+K̃)w‖/‖y‖`,
    /// measured with the hierarchical operator.
    pub train_residual: f64,
}

/// Training report.
pub struct TrainReport {
    /// Seconds spent building the tree + skeletons (the "ASKIT" column of
    /// Table V).
    pub setup_seconds: f64,
    /// Seconds spent factorizing.
    pub factor_seconds: f64,
    /// Seconds spent in the solve.
    pub solve_seconds: f64,
}

impl<K: Kernel + Clone> KernelRidge<K> {
    /// Trains on `(points, labels)` with leaf size `m`.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `labels.len() != points.len()`;
    /// factorization failures (singular diagonal blocks).
    pub fn train(
        points: &PointSet,
        labels: &[f64],
        kernel: K,
        m: usize,
        skel: SkelConfig,
        solver: SolverConfig,
    ) -> Result<(Self, TrainReport), SolverError> {
        check_rhs_rows(points.len(), labels.len())?;
        let t0 = std::time::Instant::now();
        let tree = BallTree::build(points, m);
        let st = Box::new(skeletonize(tree, &kernel, skel));
        let setup_seconds = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let ft: FactorTree<'_, K> = factorize(&st, &kernel, solver)?;
        let factor_seconds = t1.elapsed().as_secs_f64();

        let t2 = std::time::Instant::now();
        let y_perm = st.tree().permute_vec(labels);
        let mut w_perm = y_perm.clone();
        ft.solve_in_place(&mut w_perm)?;
        let solve_seconds = t2.elapsed().as_secs_f64();

        // Verification residual against the operator that was factorized.
        let applied = kfds_askit::hier_matvec(&st, &kernel, solver.lambda, &w_perm);
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, y) in applied.iter().zip(&y_perm) {
            num += (a - y) * (a - y);
            den += y * y;
        }
        let train_residual = if den > 0.0 { (num / den).sqrt() } else { 0.0 };
        drop(ft);

        Ok((
            KernelRidge { kernel, st, w_perm, train_residual },
            TrainReport { setup_seconds, factor_seconds, solve_seconds },
        ))
    }

    /// Regression prediction `K(x, X) w` for each test point.
    pub fn predict(&self, test: &PointSet) -> Vec<f64> {
        let train_pts = self.st.tree().points();
        assert_eq!(test.dim(), train_pts.dim(), "dimension mismatch");
        let n = train_pts.len();
        (0..test.len())
            .map(|t| {
                let x = test.point(t);
                let mut s = 0.0;
                for i in 0..n {
                    s += self.kernel.eval(x, train_pts.point(i)) * self.w_perm[i];
                }
                s
            })
            .collect()
    }

    /// Binary classification: `sign(K(x, X) w)`.
    pub fn classify(&self, test: &PointSet) -> Vec<f64> {
        self.predict(test).into_iter().map(|v| if v >= 0.0 { 1.0 } else { -1.0 }).collect()
    }

    /// Classification accuracy against ±1 labels.
    pub fn accuracy(&self, test: &PointSet, labels: &[f64]) -> f64 {
        assert_eq!(labels.len(), test.len());
        if labels.is_empty() {
            return 1.0;
        }
        let pred = self.classify(test);
        let correct = pred.iter().zip(labels).filter(|(p, y)| (**p > 0.0) == (**y > 0.0)).count();
        correct as f64 / labels.len() as f64
    }

    /// The underlying skeleton tree (for inspection).
    pub fn skeleton_tree(&self) -> &SkeletonTree {
        &self.st
    }

    /// Trained weights in original point order.
    pub fn weights(&self) -> Vec<f64> {
        self.st.tree().unpermute_vec(&self.w_perm)
    }
}
