//! The factorization as a preconditioner (paper §I, "Limitations"):
//! a loose-tolerance (cheap) factorization of `λI + K̃` preconditions
//! Krylov iterations on the *exact* operator `λI + K`, combining the
//! direct solver's robustness with exact-operator accuracy.

use crate::error::SolverError;
use crate::factor::FactorTree;
use crate::solve::check_rhs_rows;
use kfds_kernels::Kernel;
use kfds_krylov::{gmres_right_preconditioned, FnOp, FnPrecond, GmresOptions, SolveResult};
use kfds_la::MatMut;

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
    if !ft.is_complete() {
        return Err(SolverError::NotSkeletonized { node: st.tree().root() });
    }
    let ctx = ft.ctx();
    let prec =
        FnPrecond::new(|x: &mut [f64]| ctx.solve_node(st.tree().root(), MatMut::from_col(x)));
    let op = FnOp::new(n, |x: &[f64], y: &mut [f64]| {
        y.copy_from_slice(&kfds_askit::exact_matvec(st, kernel, lambda, x));
    });
    Ok(gmres_right_preconditioned(&op, &prec, b, opts))
}
