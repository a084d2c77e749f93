//! Conjugate gradients for symmetric positive definite systems.
//!
//! `λI + K` with a positive-definite kernel is SPD, so CG is a natural
//! alternative operator-level baseline to GMRES; we provide it for the
//! ablation benches (the paper uses GMRES throughout).

use crate::gmres::{SolveResult, TraceEntry};
use crate::operator::LinOp;
use kfds_la::blas1::{axpy, dot, nrm2};
use std::time::Instant;

/// CG options.
#[derive(Clone, Debug)]
pub struct CgOptions {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Maximum iterations.
    pub max_iters: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { tol: 1e-10, max_iters: 1000 }
    }
}

/// Solves `A x = b` (A SPD) with conjugate gradients.
///
/// # Panics
/// Panics if `b.len() != op.dim()`.
pub fn cg(op: &dyn LinOp, b: &[f64], opts: &CgOptions) -> SolveResult {
    let n = op.dim();
    assert_eq!(b.len(), n, "cg: rhs length mismatch");
    let start = Instant::now();
    let bnorm = nrm2(b);
    if bnorm == 0.0 {
        return SolveResult {
            x: vec![0.0; n],
            converged: true,
            iters: 0,
            residual: 0.0,
            trace: vec![],
        };
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    let mut trace = vec![TraceEntry { iter: 0, residual: 1.0, seconds: 0.0 }];
    let mut ap = vec![0.0; n];
    for it in 1..=opts.max_iters {
        op.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Not SPD (or breakdown): stop with what we have.
            return SolveResult {
                x,
                converged: false,
                iters: it - 1,
                residual: rr.sqrt() / bnorm,
                trace,
            };
        }
        let alpha = rr / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot(&r, &r);
        let rel = rr_new.sqrt() / bnorm;
        trace.push(TraceEntry { iter: it, residual: rel, seconds: start.elapsed().as_secs_f64() });
        if rel <= opts.tol {
            return SolveResult { x, converged: true, iters: it, residual: rel, trace };
        }
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    let rel = rr.sqrt() / bnorm;
    SolveResult { x, converged: rel <= opts.tol, iters: opts.max_iters, residual: rel, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DenseOp;
    use kfds_la::Mat;

    #[test]
    fn cg_solves_spd() {
        let n = 30;
        let mut state = 5u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let b0 = Mat::from_fn(n, n, |_, _| rnd());
        let mut a = kfds_la::matmul_op(&b0, kfds_la::Trans::Yes, &b0, kfds_la::Trans::No);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut b = vec![0.0; n];
        kfds_la::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
        let res = cg(&DenseOp::new(a.rb()), &b, &CgOptions::default());
        assert!(res.converged);
        for (u, v) in res.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn cg_zero_rhs() {
        let a = Mat::identity(4);
        let res = cg(&DenseOp::new(a.rb()), &[0.0; 4], &CgOptions::default());
        assert!(res.converged);
        assert_eq!(res.iters, 0);
    }

    #[test]
    fn cg_detects_indefinite() {
        let mut a = Mat::identity(3);
        a[(2, 2)] = -1.0;
        let res = cg(&DenseOp::new(a.rb()), &[0.0, 0.0, 1.0], &CgOptions::default());
        assert!(!res.converged);
    }
}
