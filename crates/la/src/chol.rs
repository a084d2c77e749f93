//! Cholesky factorization (LAPACK `POTRF`/`POTRS` analogue).
//!
//! `λI + K` with a positive-definite kernel is symmetric positive
//! definite, so leaf diagonal blocks can be factorized at half the flops
//! of LU. A failed Cholesky (non-positive pivot) is also a *sharper*
//! instability detector than the LU pivot-ratio monitor: it certifies
//! that roundoff has pushed the compressed block indefinite — the §III
//! failure mode.

use crate::error::LaError;
use crate::mat::{Mat, MatMut};

/// A lower-triangular Cholesky factorization `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// Lower-triangular factor (upper triangle is garbage).
    l: Mat,
    /// `min_k L_kk² / max|A|` — conditioning proxy, same scale as the LU
    /// pivot-ratio monitor.
    min_pivot_ratio: f64,
}

impl Cholesky {
    /// Factorizes symmetric positive definite `a` (consumed; only the
    /// lower triangle is read).
    ///
    /// Returns [`LaError::Singular`] when a non-positive pivot certifies
    /// that the matrix is not numerically positive definite.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor(mut a: Mat) -> Result<Self, LaError> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "Cholesky requires a square matrix");
        let amax = a.norm_max().max(f64::MIN_POSITIVE);
        let mut min_pivot_ratio = f64::INFINITY;
        for k in 0..n {
            // d = A[k,k] - sum_j L[k,j]^2 over the already-built row.
            let mut d = a[(k, k)];
            for j in 0..k {
                let lkj = a[(k, j)];
                d -= lkj * lkj;
            }
            if d <= 0.0 {
                return Err(LaError::Singular { step: k });
            }
            min_pivot_ratio = min_pivot_ratio.min(d / amax);
            let lkk = d.sqrt();
            a[(k, k)] = lkk;
            // Column update below the diagonal:
            // L[i,k] = (A[i,k] - sum_j L[i,j] L[k,j]) / L[k,k].
            // Column-major: accumulate with dots over the leading columns.
            let inv = 1.0 / lkk;
            for i in k + 1..n {
                let mut s = a[(i, k)];
                for j in 0..k {
                    s -= a[(i, j)] * a[(k, j)];
                }
                a[(i, k)] = s * inv;
            }
        }
        if n == 0 {
            min_pivot_ratio = 1.0;
        }
        Ok(Cholesky { l: a, min_pivot_ratio })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// `min_k L_kk² / max|A|` — small values signal near-indefiniteness.
    pub fn min_pivot_ratio(&self) -> f64 {
        self.min_pivot_ratio
    }

    /// Solves `A x = b` in place (`L Lᵀ x = b`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn solve_inplace(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "Cholesky solve: rhs length mismatch");
        crate::tri::solve_lower_inplace(self.l.rb(), false, b);
        crate::tri::solve_lower_transpose_inplace(self.l.rb(), b);
    }

    /// Solves `A X = B` in place on a view of a multi-column right-hand
    /// side: the two TRSMs of `POTRS`. The one multi-RHS entry — the owned
    /// form delegates here.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn solve_mat_mut(&self, mut b: MatMut<'_>) {
        assert_eq!(b.nrows(), self.dim(), "Cholesky solve: rhs rows mismatch");
        crate::tri::solve_lower_mat_inplace(self.l.rb(), false, b.rb_mut());
        crate::tri::solve_lower_transpose_mat_inplace(self.l.rb(), b);
    }

    /// Solves `A X = B` in place for a multi-column right-hand side.
    pub fn solve_mat_inplace(&self, b: &mut Mat) {
        self.solve_mat_mut(b.rb_mut());
    }

    /// `log det A = 2 Σ log L_kk` (useful for GP marginal likelihoods).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|k| self.l[(k, k)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        let b = Mat::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        });
        let mut a = crate::gemm::matmul_op(&b, crate::Trans::Yes, &b, crate::Trans::No);
        for i in 0..n {
            a[(i, i)] += n as f64 * 0.5;
        }
        a
    }

    #[test]
    fn solve_recovers_solution() {
        for n in [1, 3, 8, 25] {
            let a = spd(n, n as u64 + 3);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin() + 0.2).collect();
            let mut b = vec![0.0; n];
            crate::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
            let c = Cholesky::factor(a).expect("SPD");
            c.solve_inplace(&mut b);
            for (u, v) in b.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn reconstruction() {
        let n = 10;
        let a = spd(n, 7);
        let c = Cholesky::factor(a.clone()).expect("SPD");
        for i in 0..n {
            for j in 0..n {
                let rec: f64 = (0..=i.min(j)).map(|k| c.l[(i, k)] * c.l[(j, k)]).sum();
                assert!((rec - a[(i, j)]).abs() < 1e-9 * a.norm_max());
            }
        }
    }

    #[test]
    fn matches_lu_solution() {
        let n = 16;
        let a = spd(n, 11);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let xc = {
            let mut x = b.clone();
            Cholesky::factor(a.clone()).expect("SPD").solve_inplace(&mut x);
            x
        };
        let xl = crate::Lu::factor(a).expect("LU").solve(&b);
        for (u, v) in xc.iter().zip(&xl) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let mut a = Mat::identity(3);
        a[(2, 2)] = -1.0;
        assert!(matches!(Cholesky::factor(a), Err(LaError::Singular { step: 2 })));
    }

    #[test]
    fn near_semidefinite_flagged() {
        let mut a = Mat::identity(4);
        a[(3, 3)] = 1e-13;
        let c = Cholesky::factor(a).expect("still positive");
        assert!(c.min_pivot_ratio() < 1e-12);
    }

    #[test]
    fn log_det_of_diagonal() {
        let mut a = Mat::identity(3);
        a[(0, 0)] = 4.0;
        a[(1, 1)] = 9.0;
        let c = Cholesky::factor(a).expect("SPD");
        assert!((c.log_det() - (36.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn multi_rhs() {
        let n = 8;
        let a = spd(n, 5);
        let mut b = Mat::from_fn(n, 2, |i, j| (i + j) as f64 * 0.3);
        let b0 = b.clone();
        let c = Cholesky::factor(a).expect("SPD");
        c.solve_mat_inplace(&mut b);
        for j in 0..2 {
            let mut col = b0.col(j).to_vec();
            c.solve_inplace(&mut col);
            assert_eq!(b.col(j), col.as_slice());
        }
    }
}
