//! LU factorization with partial pivoting (LAPACK `GETRF`/`GETRS` analogue).
//!
//! The factorization also records a pivot-growth diagnostic used by the
//! solver's numerical-stability detector (paper §III): when the regularizer
//! `λ` is small relative to `σ_min` of a diagonal block, the block becomes
//! ill-conditioned, which manifests as a tiny relative pivot here.

use crate::blas1::iamax;
use crate::error::LaError;
use crate::gemm::{gemm, Trans};
use crate::mat::{Mat, MatMut, MatRef};

/// A partial-pivoted LU factorization `P A = L U` stored packed in one matrix.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Packed factors: unit-lower `L` below the diagonal, `U` on and above.
    lu: Mat,
    /// Row swap at step `k`: rows `k` and `piv[k]` were exchanged.
    piv: Vec<usize>,
    /// `min_k |u_kk| / max_ij |a_ij|` — a cheap conditioning proxy.
    min_pivot_ratio: f64,
}

/// Panel width of the blocked factorization (LAPACK-style `nb`).
const LU_BLOCK: usize = 48;
/// Below this size the unblocked kernel wins.
const LU_BLOCK_THRESHOLD: usize = 96;

impl Lu {
    /// Factorizes `a` (consumed) with partial pivoting.
    ///
    /// Uses a right-looking blocked algorithm (panel factorization +
    /// GEMM trailing update) for matrices above a size threshold, the
    /// straight unblocked kernel otherwise; both produce identical
    /// factors.
    ///
    /// Returns [`LaError::Singular`] when an exactly-zero pivot is hit; the
    /// near-singular case is *not* an error — inspect
    /// [`Lu::min_pivot_ratio`] to detect it (paper §III stability check).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn factor(a: Mat) -> Result<Self, LaError> {
        if a.nrows() >= LU_BLOCK_THRESHOLD {
            Self::factor_blocked(a)
        } else {
            Self::factor_unblocked(a)
        }
    }

    /// The unblocked right-looking kernel (rank-1 trailing updates).
    pub fn factor_unblocked(mut a: Mat) -> Result<Self, LaError> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "LU requires a square matrix");
        let amax = a.norm_max().max(f64::MIN_POSITIVE);
        let mut piv = vec![0usize; n];
        let mut min_pivot_ratio = f64::INFINITY;
        if n == 0 {
            return Ok(Lu { lu: a, piv, min_pivot_ratio: 1.0 });
        }
        for k in 0..n {
            // Pivot search in column k, rows k..n.
            let colk = &a.col(k)[k..];
            let p = k + iamax(colk).expect("non-empty pivot column");
            piv[k] = p;
            a.swap_rows(k, p);
            let pivot = a[(k, k)];
            if pivot == 0.0 {
                return Err(LaError::Singular { step: k });
            }
            min_pivot_ratio = min_pivot_ratio.min(pivot.abs() / amax);
            // Scale multipliers.
            let inv = 1.0 / pivot;
            for i in k + 1..n {
                a[(i, k)] *= inv;
            }
            // Trailing rank-1 update: A[k+1.., k+1..] -= l * u^T, column-wise.
            let (head, tail) = a.as_mut_slice().split_at_mut((k + 1) * n);
            let lcol = &head[k * n + k + 1..(k + 1) * n];
            let trailing = MatMut::from_parts(tail, n, n - k - 1, n);
            rank1_trailing(lcol, k, trailing);
        }
        Ok(Lu { lu: a, piv, min_pivot_ratio })
    }

    /// Right-looking blocked factorization (`GETRF`-style): factor an
    /// `n x nb` panel with the unblocked kernel, swap the pivot rows
    /// across the full width, solve the `U₁₂` strip with a unit-lower
    /// TRSM, and update the trailing block with one GEMM.
    pub fn factor_blocked(mut a: Mat) -> Result<Self, LaError> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "LU requires a square matrix");
        let amax = a.norm_max().max(f64::MIN_POSITIVE);
        let mut piv = vec![0usize; n];
        let mut min_pivot_ratio = f64::INFINITY;

        for k0 in (0..n).step_by(LU_BLOCK) {
            let nb = LU_BLOCK.min(n - k0);
            let k1 = k0 + nb;
            // --- Panel factorization on A[k0.., k0..k1] (unblocked). ---
            for k in k0..k1 {
                let colk = &a.col(k)[k..];
                let p = k + iamax(colk).expect("non-empty pivot column");
                piv[k] = p;
                // Swap full rows: applies the permutation to the left
                // factors and the not-yet-updated right part alike.
                a.swap_rows(k, p);
                let pivot = a[(k, k)];
                if pivot == 0.0 {
                    return Err(LaError::Singular { step: k });
                }
                min_pivot_ratio = min_pivot_ratio.min(pivot.abs() / amax);
                let inv = 1.0 / pivot;
                for i in k + 1..n {
                    a[(i, k)] *= inv;
                }
                // Rank-1 update restricted to the panel columns.
                for j in k + 1..k1 {
                    let ukj = a[(k, j)];
                    if ukj != 0.0 {
                        let (lo, hi) = a.as_mut_slice().split_at_mut(j * n);
                        let lcol = &lo[k * n + k + 1..(k + 1) * n];
                        crate::blas1::axpy(-ukj, lcol, &mut hi[k + 1..n]);
                    }
                }
            }
            if k1 == n {
                break;
            }
            // Rows k0..n of the trailing columns, split into the U12 strip
            // (nb rows) and A22 below it: disjoint row views of one block.
            let (left, right) = a.as_mut_slice().split_at_mut(k1 * n);
            let trailing = MatMut::from_parts(&mut right[k0..], n - k0, n - k1, n);
            let (mut u12, a22) = trailing.split_at_row(nb);
            // --- U12 = L11^{-1} A12 (unit-lower TRSM on the panel). ---
            let l11 = MatRef::from_parts(&left[k0 * n + k0..], nb, nb, n);
            crate::tri::solve_lower_mat_inplace(l11, true, u12.rb_mut());
            // --- Trailing update A22 -= L21 * U12 (GEMM). ---
            let l21 = MatRef::from_parts(&left[k0 * n + k1..], n - k1, nb, n);
            gemm(-1.0, l21, Trans::No, u12.rb(), Trans::No, 1.0, a22);
        }
        if n == 0 {
            min_pivot_ratio = 1.0;
        }
        Ok(Lu { lu: a, piv, min_pivot_ratio })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// `min_k |u_kk| / max|A|`: small values signal near-singularity.
    pub fn min_pivot_ratio(&self) -> f64 {
        self.min_pivot_ratio
    }

    /// Solves `A x = b` in place.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_inplace(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "LU solve: rhs length mismatch");
        for k in 0..n {
            b.swap(k, self.piv[k]);
        }
        crate::tri::solve_lower_inplace(self.lu.rb(), true, b);
        crate::tri::solve_upper_inplace(self.lu.rb(), b);
    }

    /// Solves `A X = B` in place on a view of a multi-column right-hand
    /// side (`GETRS`): the row swaps across every column, then the
    /// unit-lower and the upper TRSM. The one multi-RHS entry — the owned
    /// form delegates here.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn solve_mat_mut(&self, mut b: MatMut<'_>) {
        assert_eq!(b.nrows(), self.dim(), "LU solve: rhs rows mismatch");
        for j in 0..b.ncols() {
            let col = b.col_mut(j);
            for (k, &p) in self.piv.iter().enumerate() {
                col.swap(k, p);
            }
        }
        crate::tri::solve_lower_mat_inplace(self.lu.rb(), true, b.rb_mut());
        crate::tri::solve_upper_mat_inplace(self.lu.rb(), b);
    }

    /// Solves `A X = B` in place for a multi-column right-hand side.
    pub fn solve_mat_inplace(&self, b: &mut Mat) {
        self.solve_mat_mut(b.rb_mut());
    }

    /// Solves `A x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_inplace(&mut x);
        x
    }

    /// The determinant (product of pivots, sign-adjusted).
    pub fn det(&self) -> f64 {
        let n = self.dim();
        let mut d = 1.0;
        for k in 0..n {
            d *= self.lu[(k, k)];
            if self.piv[k] != k {
                d = -d;
            }
        }
        d
    }

    /// `log |det A|` — overflow-free (sums log-pivots instead of
    /// multiplying them).
    pub fn log_abs_det(&self) -> f64 {
        (0..self.dim()).map(|k| self.lu[(k, k)].abs().ln()).sum()
    }

    /// Sign of the determinant (`±1`, or `0` if a pivot is exactly zero —
    /// impossible for a successfully constructed factorization).
    pub fn det_sign(&self) -> f64 {
        let n = self.dim();
        let mut s = 1.0f64;
        for k in 0..n {
            if self.lu[(k, k)] < 0.0 {
                s = -s;
            }
            if self.piv[k] != k {
                s = -s;
            }
        }
        s
    }
}

/// `trailing[i, j] -= lcol[i] * urow[j]` where `urow` is row `k` of the
/// trailing columns (first row of each trailing column block).
fn rank1_trailing(lcol: &[f64], k: usize, mut trailing: MatMut<'_>) {
    let m = lcol.len();
    for j in 0..trailing.ncols() {
        let col = trailing.col_mut(j);
        let ukj = col[k];
        if ukj != 0.0 {
            crate::blas1::axpy(-ukj, lcol, &mut col[k + 1..k + 1 + m]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_mat(n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(n, n, |i, j| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            r + if i == j { n as f64 * 0.1 } else { 0.0 }
        })
    }

    #[test]
    fn lu_solve_recovers_solution() {
        for n in [1, 2, 5, 17, 64] {
            let a = test_mat(n, n as u64);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() + 0.1).collect();
            let mut b = vec![0.0; n];
            crate::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
            let f = Lu::factor(a).unwrap();
            let x = f.solve(&b);
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-9, "n={n}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn lu_reconstruction() {
        let n = 12;
        let a = test_mat(n, 7);
        let f = Lu::factor(a.clone()).unwrap();
        // Reconstruct PA = LU and compare against row-permuted A.
        let mut pa = a.clone();
        for k in 0..n {
            pa.swap_rows(k, f.piv[k]);
        }
        // sum over k of L[i,k] U[k,j], with L unit lower triangular.
        let rec = Mat::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| {
                    let l = if k < i {
                        f.lu[(i, k)]
                    } else if k == i {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if k <= j { f.lu[(k, j)] } else { 0.0 };
                    l * u
                })
                .sum()
        });
        for j in 0..n {
            for i in 0..n {
                assert!((rec[(i, j)] - pa[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn singular_detected() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        // Third row/col all zero -> exactly singular.
        match Lu::factor(a) {
            Err(LaError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn near_singular_flagged_by_pivot_ratio() {
        let mut a = Mat::identity(4);
        a[(3, 3)] = 1e-13;
        let f = Lu::factor(a).unwrap();
        assert!(f.min_pivot_ratio() < 1e-12);
    }

    #[test]
    fn det_of_permutation() {
        // A permutation matrix has determinant +-1.
        let mut a = Mat::zeros(3, 3);
        a[(0, 1)] = 1.0;
        a[(1, 2)] = 1.0;
        a[(2, 0)] = 1.0;
        let f = Lu::factor(a).unwrap();
        assert!((f.det().abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn blocked_matches_unblocked() {
        for n in [97, 130, 200, 257] {
            let a = test_mat(n, n as u64 * 3 + 1);
            let fb = Lu::factor_blocked(a.clone()).unwrap();
            let fu = Lu::factor_unblocked(a.clone()).unwrap();
            // Identical pivots and packed factors (same algorithm, same
            // elimination order).
            assert_eq!(fb.piv, fu.piv, "n={n}: pivot mismatch");
            let mut max_diff = 0.0f64;
            for (x, y) in fb.lu.as_slice().iter().zip(fu.lu.as_slice()) {
                max_diff = max_diff.max((x - y).abs());
            }
            assert!(max_diff < 1e-9 * fu.lu.norm_max(), "n={n}: factors differ {max_diff}");
            // And solves agree with the true solution.
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
            let mut b = vec![0.0; n];
            crate::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
            let xb = fb.solve(&b);
            for (u, v) in xb.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn blocked_boundary_sizes() {
        // Exactly one block, one block plus one column, threshold edges.
        for n in [48, 49, 95, 96] {
            let a = test_mat(n, 77 + n as u64);
            let f = Lu::factor_blocked(a.clone()).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut b = vec![0.0; n];
            crate::blas2::gemv(1.0, a.rb(), &x_true, 0.0, &mut b);
            let x = f.solve(&b);
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn log_abs_det_matches_det() {
        let a = test_mat(9, 13);
        let f = Lu::factor(a).unwrap();
        let d = f.det();
        assert!((f.log_abs_det() - d.abs().ln()).abs() < 1e-10);
        assert_eq!(f.det_sign(), d.signum());
    }

    #[test]
    fn log_det_no_overflow() {
        // det would overflow f64; log det must not.
        let n = 400;
        let a = Mat::from_fn(n, n, |i, j| if i == j { 10.0 } else { 0.0 });
        let f = Lu::factor(a).unwrap();
        assert!((f.log_abs_det() - n as f64 * 10f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn multi_rhs_solve() {
        let n = 9;
        let a = test_mat(n, 3);
        let xs = Mat::from_fn(n, 4, |i, j| ((i * 7 + j * 3) as f64 * 0.1).cos());
        let mut b = Mat::zeros(n, 4);
        crate::gemm::gemm(
            1.0,
            a.rb(),
            crate::gemm::Trans::No,
            xs.rb(),
            crate::gemm::Trans::No,
            0.0,
            b.rb_mut(),
        );
        let f = Lu::factor(a).unwrap();
        f.solve_mat_inplace(&mut b);
        for j in 0..4 {
            for i in 0..n {
                assert!((b[(i, j)] - xs[(i, j)]).abs() < 1e-9);
            }
        }
    }
}
