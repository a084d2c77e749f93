//! Right-preconditioned GMRES.
//!
//! The paper notes (§I, "Limitations") that when the hierarchical
//! decomposition has structure the direct solver cannot exploit, the
//! factorization "can be used as a preconditioner, as discussed in
//! \[36\]": solve `A M^{-1} y = b`, then `x = M^{-1} y`, with `M` the
//! (approximately factorized) `λI + K̃`. Right preconditioning keeps the
//! true residual observable in the recurrence.

use crate::gmres::{gmres, GmresOptions, SolveResult};
use crate::operator::{FnOp, LinOp};

/// A preconditioner: an (approximate) solve `y = M^{-1} x`.
pub trait Preconditioner: Sync {
    /// Applies `M^{-1}` in place.
    fn apply_inv(&self, x: &mut [f64]);
}

/// Wraps a closure as a [`Preconditioner`].
pub struct FnPrecond<F: Fn(&mut [f64]) + Sync> {
    f: F,
}

impl<F: Fn(&mut [f64]) + Sync> FnPrecond<F> {
    /// Creates a preconditioner from a closure applying `M^{-1}` in place.
    pub fn new(f: F) -> Self {
        FnPrecond { f }
    }
}

impl<F: Fn(&mut [f64]) + Sync> Preconditioner for FnPrecond<F> {
    fn apply_inv(&self, x: &mut [f64]) {
        (self.f)(x)
    }
}

/// Solves `A x = b` with right-preconditioned GMRES: runs GMRES on
/// `A M^{-1}` and maps the result back through `M^{-1}`.
pub fn gmres_right_preconditioned(
    op: &dyn LinOp,
    prec: &dyn Preconditioner,
    b: &[f64],
    opts: &GmresOptions,
) -> SolveResult {
    let n = op.dim();
    let wrapped = FnOp::new(n, |x: &[f64], y: &mut [f64]| {
        let mut t = x.to_vec();
        prec.apply_inv(&mut t);
        op.apply(&t, y);
    });
    let mut res = gmres(&wrapped, b, None, opts);
    prec.apply_inv(&mut res.x);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DenseOp;
    use kfds_la::{Lu, Mat};

    fn ill_conditioned(n: usize) -> Mat {
        // Diagonal with huge spread plus a small random perturbation.
        let mut state = 17u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        Mat::from_fn(n, n, |i, j| {
            let base = if i == j { 10f64.powf(4.0 * i as f64 / n as f64) } else { 0.0 };
            base + 0.01 * rnd()
        })
    }

    #[test]
    fn preconditioning_cuts_iterations() {
        let n = 60;
        let a = ill_conditioned(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut b = vec![0.0; n];
        kfds_la::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
        let op = DenseOp::new(a.rb());
        let opts = GmresOptions { tol: 1e-10, max_iters: 400, restart: 40, ..Default::default() };
        let plain = gmres(&op, &b, None, &opts);

        // Preconditioner: exact LU of a nearby matrix (the diagonal).
        let m = Mat::from_fn(n, n, |i, j| if i == j { a[(i, j)] } else { 0.0 });
        let m_lu = Lu::factor(m).expect("diag LU");
        let prec = FnPrecond::new(move |x: &mut [f64]| m_lu.solve_inplace(x));
        let pre = gmres_right_preconditioned(&op, &prec, &b, &opts);

        assert!(pre.converged, "preconditioned residual {}", pre.residual);
        assert!(
            pre.iters < plain.iters || !plain.converged,
            "preconditioning should help: {} vs {}",
            pre.iters,
            plain.iters
        );
        for (u, v) in pre.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn exact_preconditioner_converges_immediately() {
        let n = 30;
        let a = ill_conditioned(n);
        let lu = Lu::factor(a.clone()).expect("LU");
        let op = DenseOp::new(a.rb());
        let prec = FnPrecond::new(move |x: &mut [f64]| lu.solve_inplace(x));
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let res = gmres_right_preconditioned(&op, &prec, &b, &GmresOptions::default());
        assert!(res.converged);
        assert!(res.iters <= 2, "iters = {}", res.iters);
    }
}
