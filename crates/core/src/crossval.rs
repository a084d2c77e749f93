//! Cross-validation workflows: the reason factorization speed matters.
//!
//! "The factorization has to be done for different values of λ during
//! cross-validation studies. Therefore optimizing the factorization is
//! crucial for the overall performance of a kernel method" (paper §I).
//! The skeletonization is λ-independent, so a λ sweep re-factorizes over
//! *shared* skeletons — exactly what [`lambda_sweep`] does. One-vs-all
//! multi-class training rides the multi-RHS solve.

use crate::assemble::assemble_blocks;
use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::factor::{factorize, factorize_with_blocks, FactorTree};
use crate::solve::check_rhs_rows;
use kfds_askit::{hier_matvec, SkeletonTree, TreecodeEvaluator};
use kfds_kernels::Kernel;
use kfds_la::Mat;
use kfds_tree::PointSet;
use std::sync::Arc;
use std::time::Instant;

/// One row of a λ sweep.
#[derive(Clone, Debug)]
pub struct LambdaSweepEntry {
    /// Regularizer value.
    pub lambda: f64,
    /// Factorization wall-clock seconds (per-λ cost of the sweep). For a
    /// failed λ this is the time spent *failing* — never a placeholder
    /// zero, so summed timing columns stay honest.
    pub factor_seconds: f64,
    /// Training-solve relative residual against `λI + K̃`.
    pub residual: f64,
    /// Held-out classification accuracy, when a validation set was given.
    pub accuracy: Option<f64>,
    /// §III instability flag for this λ (set for completed-but-marginal
    /// factorizations *and* for outright failures).
    pub unstable: bool,
    /// `true` iff the factorization at this λ failed outright (distinct
    /// from merely-unstable entries, which still produced factors).
    pub failed: bool,
}

/// Sweeps `λ` values over a *shared* skeletonization, re-factorizing per
/// value (the paper's cross-validation pattern). `y` is in the tree's
/// permuted order; an optional `(points, labels)` validation pair adds a
/// held-out accuracy column (treecode prediction with `theta = 0.5`).
///
/// The coupling blocks are assembled **once** and every λ pays the leaf
/// diagonals and the linear algebra ([`factorize_with_blocks`]). A sweep
/// therefore pins the stored `V`-block scheme
/// ([`StorageMode::StoredGemv`](crate::StorageMode::StoredGemv)) whatever
/// `base` names: each entry is bitwise what a [`factorize`] under
/// `StoredGemv` at that λ answers.
///
/// λ values whose factorization fails outright are reported with
/// `residual = NaN`, `unstable = true`, and `failed = true` rather than
/// aborting the sweep.
///
/// # Errors
/// [`SolverError::RhsShape`] if `y` is not one value per point, or the
/// validation labels not one per validation point; nothing is assembled
/// or factorized then.
pub fn lambda_sweep<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    base: SolverConfig,
    lambdas: &[f64],
    y: &[f64],
    validation: Option<(&PointSet, &[f64])>,
) -> Result<Vec<LambdaSweepEntry>, SolverError> {
    check_rhs_rows(st.tree().points().len(), y.len())?;
    if let Some((vp, vl)) = validation {
        check_rhs_rows(vp.len(), vl.len())?;
    }
    // One assembly amortized across the whole λ grid.
    let blocks = Arc::new(assemble_blocks(st, kernel));
    let mut out = Vec::with_capacity(lambdas.len());
    for &lambda in lambdas {
        let t0 = Instant::now();
        let result =
            factorize_with_blocks(st, kernel, Arc::clone(&blocks), base.with_lambda(lambda));
        let factor_seconds = t0.elapsed().as_secs_f64();
        match result {
            Ok(ft) => out.push(sweep_entry(st, kernel, &ft, lambda, factor_seconds, y, validation)),
            Err(_) => out.push(LambdaSweepEntry {
                lambda,
                factor_seconds,
                residual: f64::NAN,
                accuracy: None,
                unstable: true,
                failed: true,
            }),
        }
    }
    Ok(out)
}

/// Solves + scores one completed factorization of the sweep.
pub(crate) fn sweep_entry<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    ft: &FactorTree<'_, K>,
    lambda: f64,
    factor_seconds: f64,
    y: &[f64],
    validation: Option<(&PointSet, &[f64])>,
) -> LambdaSweepEntry {
    let mut w = y.to_vec();
    let solve_ok = ft.solve_in_place(&mut w).is_ok();
    let residual = if solve_ok {
        let applied = hier_matvec(st, kernel, lambda, &w);
        let num: f64 = applied.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = y.iter().map(|v| v * v).sum();
        (num / den.max(1e-300)).sqrt()
    } else {
        f64::NAN
    };
    let accuracy = validation.map(|(vp, vl)| {
        let ev = TreecodeEvaluator::new(st, kernel, w.clone(), 0.5);
        let pred = ev.evaluate_batch(vp);
        let correct = pred.iter().zip(vl).filter(|(p, l)| (**p >= 0.0) == (**l > 0.0)).count();
        correct as f64 / vl.len().max(1) as f64
    });
    LambdaSweepEntry {
        lambda,
        factor_seconds,
        residual,
        accuracy,
        unstable: ft.stats().is_unstable(),
        failed: false,
    }
}

/// A one-vs-all multi-class kernel ridge classifier.
///
/// Trains all `C` binary problems with a single multi-RHS solve against
/// one factorization (the `C` right-hand sides share `λI + K̃`).
pub struct KernelRidgeMulti<K: Kernel> {
    kernel: K,
    st: Box<SkeletonTree>,
    /// `N x C` weights in permuted order.
    w_perm: Mat,
}

impl<K: Kernel + Clone> KernelRidgeMulti<K> {
    /// Trains on class labels `0..n_classes`.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] on a label/point count mismatch;
    /// [`SolverError::LabelOutOfRange`] for the first label that is not
    /// below `n_classes` (both before any tree is built);
    /// factorization/solve failures.
    pub fn train(
        points: &PointSet,
        labels: &[usize],
        n_classes: usize,
        kernel: K,
        m: usize,
        skel: kfds_askit::SkelConfig,
        solver: SolverConfig,
    ) -> Result<Self, SolverError> {
        check_rhs_rows(points.len(), labels.len())?;
        if let Some((index, &label)) = labels.iter().enumerate().find(|(_, &c)| c >= n_classes) {
            return Err(SolverError::LabelOutOfRange { index, label, n_classes });
        }
        let tree = kfds_tree::BallTree::build(points, m);
        let st = Box::new(kfds_askit::skeletonize(tree, &kernel, skel));
        let ft = factorize(&st, &kernel, solver)?;
        let n = points.len();
        // One ±1 column per class, permuted to tree order.
        let mut y = Mat::zeros(n, n_classes);
        for (i, &c) in labels.iter().enumerate() {
            let pos = st.tree().inv_perm()[i];
            for k in 0..n_classes {
                y[(pos, k)] = if k == c { 1.0 } else { -1.0 };
            }
        }
        ft.solve_mat_in_place(&mut y)?;
        drop(ft);
        Ok(KernelRidgeMulti { kernel, st, w_perm: y })
    }

    /// Predicts class indices by one-vs-all argmax (treecode evaluation).
    pub fn classify(&self, test: &PointSet, theta: f64) -> Vec<usize> {
        let c = self.w_perm.ncols();
        let mut scores: Vec<Vec<f64>> = Vec::with_capacity(c);
        for k in 0..c {
            let ev =
                TreecodeEvaluator::new(&self.st, &self.kernel, self.w_perm.col(k).to_vec(), theta);
            scores.push(ev.evaluate_batch(test));
        }
        (0..test.len())
            .map(|i| {
                (0..c)
                    .max_by(|&a, &b| scores[a][i].partial_cmp(&scores[b][i]).expect("NaN score"))
                    .expect("at least one class")
            })
            .collect()
    }

    /// Classification accuracy against integer labels.
    pub fn accuracy(&self, test: &PointSet, labels: &[usize], theta: f64) -> f64 {
        assert_eq!(labels.len(), test.len());
        if labels.is_empty() {
            return 1.0;
        }
        let pred = self.classify(test, theta);
        pred.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64
    }
}

/// Grid search over `(h, λ)` for binary kernel ridge classification,
/// returning the best configuration by validation accuracy. Each `h`
/// needs its own skeletonization (the kernel changes), but the ball tree
/// and the kNN lists are **h-independent** (pure geometry), so they are
/// built once and shared across the whole `(h, λ)` grid; each `λ` then
/// shares its `h`'s skeletonization (and, with refactorization active,
/// its assembled kernel blocks) through [`lambda_sweep`].
///
/// Returns `Ok(None)` when no stable configuration was found.
///
/// # Errors
/// [`SolverError::RhsShape`] if `y_train` is not one label per training
/// point or `y_valid` one per validation point (checked before anything
/// is built).
#[allow(clippy::too_many_arguments)]
pub fn grid_search_gaussian(
    train: &PointSet,
    y_train: &[f64],
    valid: &PointSet,
    y_valid: &[f64],
    hs: &[f64],
    lambdas: &[f64],
    m: usize,
    skel: kfds_askit::SkelConfig,
) -> Result<Option<(f64, f64, f64)>, SolverError> {
    check_rhs_rows(train.len(), y_train.len())?;
    check_rhs_rows(valid.len(), y_valid.len())?;
    let mut best: Option<(f64, f64, f64)> = None;
    let tree = kfds_tree::BallTree::build(train, m);
    let nn = kfds_askit::compute_neighbors(&tree, &skel);
    for &h in hs {
        let kernel = kfds_kernels::Gaussian::new(h);
        let st = kfds_askit::skeletonize_with_neighbors(tree.clone(), &kernel, skel.clone(), &nn);
        let y_perm = st.tree().permute_vec(y_train);
        let entries = lambda_sweep(
            &st,
            &kernel,
            SolverConfig::default(),
            lambdas,
            &y_perm,
            Some((valid, y_valid)),
        )?;
        for e in entries {
            let acc = e.accuracy.unwrap_or(0.0);
            if !e.unstable && best.map(|(_, _, a)| acc > a).unwrap_or(true) {
                best = Some((h, e.lambda, acc));
            }
        }
    }
    Ok(best)
}
