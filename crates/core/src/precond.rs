//! The factorization as a preconditioner (paper §I, "Limitations"):
//! a loose-tolerance (cheap) factorization of `λI + K̃` preconditions
//! Krylov iterations on the *exact* operator `λI + K`, combining the
//! direct solver's robustness with exact-operator accuracy.

use crate::error::SolverError;
use crate::factor::FactorTree;
use crate::solve::check_rhs_rows;
use kfds_kernels::Kernel;
use kfds_krylov::{gmres_right_preconditioned, FnOp, GmresOptions, Preconditioner, SolveResult};

/// A [`Preconditioner`] applying the factorized `(λI + K̃)^{-1}`.
pub struct FactorPreconditioner<'a, 'f, K: Kernel> {
    ft: &'f FactorTree<'a, K>,
}

impl<K: Kernel> Preconditioner for FactorPreconditioner<'_, '_, K> {
    fn apply_inv(&self, x: &mut [f64]) {
        self.ft.solve_in_place(x).expect("complete factorization required");
    }
}

impl<'a, K: Kernel> FactorTree<'a, K> {
    /// Views this (complete) factorization as a preconditioner.
    ///
    /// # Errors
    /// [`SolverError::NotSkeletonized`] for partial factorizations.
    pub fn as_preconditioner(&self) -> Result<FactorPreconditioner<'a, '_, K>, SolverError> {
        if !self.is_complete() {
            return Err(SolverError::NotSkeletonized { node: self.skeleton_tree().tree().root() });
        }
        Ok(FactorPreconditioner { ft: self })
    }
}

/// Solves `(λI + K) x = b` — with the **exact** kernel matrix, applied
/// matrix-free — by GMRES preconditioned with this factorization of the
/// compressed operator. `b` is in the tree's permuted ordering.
///
/// # Errors
/// [`SolverError::RhsShape`] if `b` is not one value per point;
/// [`SolverError::NotSkeletonized`] for partial factorizations.
pub fn solve_exact_preconditioned<K: Kernel>(
    ft: &FactorTree<'_, K>,
    b: &[f64],
    opts: &GmresOptions,
) -> Result<SolveResult, SolverError> {
    let st = ft.skeleton_tree();
    let kernel = ft.kernel();
    let lambda = ft.config().lambda;
    let n = st.tree().points().len();
    check_rhs_rows(n, b.len())?;
    let prec = ft.as_preconditioner()?;
    let op = FnOp::new(n, |x: &[f64], y: &mut [f64]| {
        y.copy_from_slice(&kfds_askit::exact_matvec(st, kernel, lambda, x));
    });
    Ok(gmres_right_preconditioned(&op, &prec, b, opts))
}
