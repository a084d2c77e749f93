//! Restarted GMRES with modified Gram–Schmidt and optional
//! re-orthogonalization — the PETSc-configuration stand-in of the paper
//! ("modified Gram-Schmidt for re-orthogonalization and GMRES CGS
//! refinement", §IV).

use crate::operator::LinOp;
use kfds_la::blas1::{axpy, dot, nrm2, scal};
use std::time::Instant;

/// GMRES options.
#[derive(Clone, Debug)]
pub struct GmresOptions {
    /// Relative residual tolerance (`‖b − Ax‖ / ‖b‖`).
    pub tol: f64,
    /// Maximum total iterations across restarts.
    pub max_iters: usize,
    /// Restart length (Krylov subspace dimension per cycle).
    pub restart: usize,
    /// Run a second orthogonalization pass per Arnoldi step (the CGS
    /// refinement of the paper's PETSc setup).
    pub reorthogonalize: bool,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions { tol: 1e-10, max_iters: 500, restart: 60, reorthogonalize: true }
    }
}

/// One point of the convergence trace (for Figure 5's residual-vs-time
/// curves).
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// Global iteration count.
    pub iter: usize,
    /// Relative residual estimate.
    pub residual: f64,
    /// Wall-clock seconds since the solve started.
    pub seconds: f64,
}

/// Result of an iterative solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The (approximate) solution.
    pub x: Vec<f64>,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Iterations used.
    pub iters: usize,
    /// Final relative residual (recurrence estimate).
    pub residual: f64,
    /// Per-iteration convergence trace.
    pub trace: Vec<TraceEntry>,
}

/// Solves `A x = b` with restarted GMRES.
///
/// # Panics
/// Panics if `b.len() != op.dim()` (or `x0` mismatched).
pub fn gmres(op: &dyn LinOp, b: &[f64], x0: Option<&[f64]>, opts: &GmresOptions) -> SolveResult {
    let n = op.dim();
    assert_eq!(b.len(), n, "gmres: rhs length mismatch");
    let start = Instant::now();
    let bnorm = nrm2(b);
    let mut x = match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n, "gmres: x0 length mismatch");
            x0.to_vec()
        }
        None => vec![0.0; n],
    };
    if bnorm == 0.0 {
        return SolveResult {
            x: vec![0.0; n],
            converged: true,
            iters: 0,
            residual: 0.0,
            trace: vec![],
        };
    }
    let restart = opts.restart.max(1).min(n.max(1));
    let mut trace = Vec::new();
    let mut total_iters = 0usize;
    let mut rel;
    // With no initial guess the first cycle starts from x = 0, where
    // r = b exactly: no operator application is spent on the zero vector.
    let mut x_is_zero = x0.is_none();

    'outer: loop {
        // r = b - A x.
        let mut r = if x_is_zero {
            b.to_vec()
        } else {
            let mut r = vec![0.0; n];
            op.apply(&x, &mut r);
            for i in 0..n {
                r[i] = b[i] - r[i];
            }
            r
        };
        x_is_zero = false;
        let beta = nrm2(&r);
        rel = beta / bnorm;
        if total_iters == 0 {
            trace.push(TraceEntry {
                iter: 0,
                residual: rel,
                seconds: start.elapsed().as_secs_f64(),
            });
        }
        if rel <= opts.tol || total_iters >= opts.max_iters {
            break;
        }

        // Arnoldi basis and Hessenberg (column-major, restart+1 rows).
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(restart + 1);
        scal(1.0 / beta, &mut r);
        v.push(r);
        let mut h = vec![0.0f64; (restart + 1) * restart];
        let mut cs = vec![0.0f64; restart];
        let mut sn = vec![0.0f64; restart];
        let mut g = vec![0.0f64; restart + 1];
        g[0] = beta;
        let mut k_used = 0;

        for k in 0..restart {
            // w = A v_k, orthogonalized against the basis (MGS).
            let mut w = vec![0.0; n];
            op.apply(&v[k], &mut w);
            let hcol = &mut h[k * (restart + 1)..(k + 1) * (restart + 1)];
            for (j, vj) in v.iter().enumerate() {
                let hjk = dot(vj, &w);
                hcol[j] = hjk;
                axpy(-hjk, vj, &mut w);
            }
            if opts.reorthogonalize {
                // Second pass: recover orthogonality lost to cancellation.
                for (j, vj) in v.iter().enumerate() {
                    let c = dot(vj, &w);
                    hcol[j] += c;
                    axpy(-c, vj, &mut w);
                }
            }
            let hkk1 = nrm2(&w);
            hcol[k + 1] = hkk1;

            // Apply accumulated Givens rotations to the new column.
            for j in 0..k {
                let t = cs[j] * hcol[j] + sn[j] * hcol[j + 1];
                hcol[j + 1] = -sn[j] * hcol[j] + cs[j] * hcol[j + 1];
                hcol[j] = t;
            }
            // New rotation annihilating h[k+1, k].
            let denom = (hcol[k] * hcol[k] + hcol[k + 1] * hcol[k + 1]).sqrt();
            if denom == 0.0 {
                cs[k] = 1.0;
                sn[k] = 0.0;
            } else {
                cs[k] = hcol[k] / denom;
                sn[k] = hcol[k + 1] / denom;
            }
            hcol[k] = cs[k] * hcol[k] + sn[k] * hcol[k + 1];
            hcol[k + 1] = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] *= cs[k];

            total_iters += 1;
            k_used = k + 1;
            rel = g[k + 1].abs() / bnorm;
            trace.push(TraceEntry {
                iter: total_iters,
                residual: rel,
                seconds: start.elapsed().as_secs_f64(),
            });

            let breakdown = hkk1 == 0.0;
            if rel <= opts.tol || total_iters >= opts.max_iters || breakdown {
                update_solution(&mut x, &v, &h, &g, k_used, restart);
                if rel <= opts.tol || breakdown {
                    break 'outer;
                }
                continue 'outer; // max_iters: recompute true residual, exit
            }
            scal(1.0 / hkk1, &mut w);
            v.push(w);
        }
        update_solution(&mut x, &v, &h, &g, k_used, restart);
    }

    SolveResult { x, converged: rel <= opts.tol, iters: total_iters, residual: rel, trace }
}

/// Back-substitutes the triangularized Hessenberg system and accumulates
/// the correction into `x`.
fn update_solution(x: &mut [f64], v: &[Vec<f64>], h: &[f64], g: &[f64], k: usize, restart: usize) {
    if k == 0 {
        return;
    }
    let mut y = g[..k].to_vec();
    for i in (0..k).rev() {
        for j in i + 1..k {
            y[i] -= h[j * (restart + 1) + i] * y[j];
        }
        y[i] /= h[i * (restart + 1) + i];
    }
    for (j, yj) in y.iter().enumerate() {
        axpy(*yj, &v[j], x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{DenseOp, FnOp};
    use kfds_la::Mat;

    fn spd_system(n: usize, seed: u64) -> (Mat, Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let b0 = Mat::from_fn(n, n, |_, _| rnd());
        // A = B^T B + n I: SPD, well-conditioned.
        let mut a = kfds_la::matmul_op(&b0, kfds_la::Trans::Yes, &b0, kfds_la::Trans::No);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = vec![0.0; n];
        kfds_la::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
        (a, b, x_true)
    }

    #[test]
    fn solves_spd_system() {
        let (a, b, x_true) = spd_system(40, 3);
        let op = DenseOp::new(a.rb());
        let res = gmres(&op, &b, None, &GmresOptions::default());
        assert!(res.converged, "residual {}", res.residual);
        for (u, v) in res.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn identity_converges_in_one_iteration() {
        let op = FnOp::new(10, |x: &[f64], y: &mut [f64]| y.copy_from_slice(x));
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let res = gmres(&op, &b, None, &GmresOptions::default());
        assert!(res.converged);
        assert!(res.iters <= 1);
        for (u, v) in res.x.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn restart_still_converges() {
        let (a, b, x_true) = spd_system(50, 7);
        let op = DenseOp::new(a.rb());
        let opts = GmresOptions { restart: 5, max_iters: 2000, ..Default::default() };
        let res = gmres(&op, &b, None, &opts);
        assert!(res.converged, "residual {}", res.residual);
        for (u, v) in res.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn respects_max_iters_and_reports_nonconvergence() {
        let (a, b, _) = spd_system(60, 9);
        let op = DenseOp::new(a.rb());
        let opts = GmresOptions { tol: 1e-30, max_iters: 3, ..Default::default() };
        let res = gmres(&op, &b, None, &opts);
        assert!(!res.converged);
        assert_eq!(res.iters, 3);
    }

    #[test]
    fn trace_is_monotone_in_iter_and_time() {
        let (a, b, _) = spd_system(30, 11);
        let op = DenseOp::new(a.rb());
        let res = gmres(&op, &b, None, &GmresOptions::default());
        assert!(!res.trace.is_empty());
        for w in res.trace.windows(2) {
            assert!(w[1].iter > w[0].iter);
            assert!(w[1].seconds >= w[0].seconds);
        }
        // GMRES residuals are non-increasing within a cycle.
        let last = res.trace.last().expect("non-empty trace");
        assert!(last.residual <= res.trace[0].residual);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (a, _, _) = spd_system(8, 13);
        let op = DenseOp::new(a.rb());
        let res = gmres(&op, &[0.0; 8], None, &GmresOptions::default());
        assert!(res.converged);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (a, b, x_true) = spd_system(40, 17);
        let op = DenseOp::new(a.rb());
        let cold = gmres(&op, &b, None, &GmresOptions::default());
        let warm = gmres(&op, &b, Some(&x_true), &GmresOptions::default());
        assert!(warm.iters <= cold.iters);
        assert!(warm.converged);
    }

    #[test]
    fn cold_start_spends_no_apply_on_the_zero_vector() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (a, b, _) = spd_system(40, 19);
        let applies = AtomicUsize::new(0);
        let op = FnOp::new(40, |x: &[f64], y: &mut [f64]| {
            applies.fetch_add(1, Ordering::Relaxed);
            kfds_la::blas2::gemv(1.0, a.rb(), x, 0.0, y);
        });
        // One cycle (restart 60 > n): exactly one application per iteration.
        let cold = gmres(&op, &b, None, &GmresOptions::default());
        assert!(cold.converged && cold.iters > 0);
        assert_eq!(applies.swap(0, Ordering::Relaxed), cold.iters);
        // An initial guess — even the zero vector — pays for its residual,
        // and A·0 = 0 exactly, so the cold start keeps every bit.
        let warm = gmres(&op, &b, Some(&[0.0; 40]), &GmresOptions::default());
        assert_eq!(applies.load(Ordering::Relaxed), warm.iters + 1);
        assert_eq!((warm.iters, &warm.x), (cold.iters, &cold.x));
    }

    #[test]
    fn nonsymmetric_system() {
        // Shifted upper-shift matrix: A = I + 0.5 S (nonsymmetric).
        let n = 20;
        let op = FnOp::new(n, move |x: &[f64], y: &mut [f64]| {
            for i in 0..n {
                y[i] = x[i] + if i + 1 < n { 0.5 * x[i + 1] } else { 0.0 };
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut b = vec![0.0; n];
        op.apply(&x_true, &mut b);
        let res = gmres(&op, &b, None, &GmresOptions::default());
        assert!(res.converged);
        for (u, v) in res.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }
}
