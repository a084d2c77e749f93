//! Triangular solves: column-oriented TRSVs for one right-hand side, and
//! recursive level-3 TRSMs for a block of them.
//!
//! A multi-column solve halves the triangle, solves the leading block,
//! folds it into the remaining rows with one [`gemm`](crate::gemm::gemm)
//! on disjoint row views of `B`, and recurses; only a diagonal block of at
//! most `TRSM_LEAF` (32) rows is solved one column at a time. Every temporary
//! comes from the GEMM's pooled packing panels.

use crate::blas1::{axpy, dot};
use crate::gemm::{gemm, Trans};
use crate::mat::{MatMut, MatRef};

/// Largest diagonal block a multi-column solve hands to the column loop.
const TRSM_LEAF: usize = 32;

/// Row at which a TRSM over `n > TRSM_LEAF` rows splits its triangle: the
/// midpoint, rounded up to the SIMD row-tile height so the off-diagonal
/// panel keeps the alignment of the parent.
fn trsm_split(n: usize) -> usize {
    (n / 2).next_multiple_of(8)
}

/// Solves `L x = b` in place, where `L` is the lower triangle of `a`.
///
/// With `unit_diag`, the diagonal is taken to be 1 (as in the packed LU
/// format) and the stored diagonal is ignored.
///
/// # Panics
/// Panics on dimension mismatch or (debug) non-square `a`.
pub fn solve_lower_inplace(a: MatRef<'_>, unit_diag: bool, b: &mut [f64]) {
    let n = a.ncols();
    debug_assert_eq!(a.nrows(), n, "triangular solve needs a square matrix");
    assert_eq!(b.len(), n, "solve_lower: rhs length mismatch");
    for j in 0..n {
        let col = a.col(j);
        if !unit_diag {
            b[j] /= col[j];
        }
        let xj = b[j];
        if xj != 0.0 {
            axpy(-xj, &col[j + 1..], &mut b[j + 1..]);
        }
    }
}

/// Solves `U x = b` in place, where `U` is the upper triangle of `a`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_upper_inplace(a: MatRef<'_>, b: &mut [f64]) {
    let n = a.ncols();
    debug_assert_eq!(a.nrows(), n, "triangular solve needs a square matrix");
    assert_eq!(b.len(), n, "solve_upper: rhs length mismatch");
    for j in (0..n).rev() {
        let col = a.col(j);
        b[j] /= col[j];
        let xj = b[j];
        if xj != 0.0 {
            axpy(-xj, &col[..j], &mut b[..j]);
        }
    }
}

/// Solves `Lᵀ x = b` in place, where `L` is the lower triangle of `a`
/// (the backward half of a Cholesky solve). Row `i` of `Lᵀ` is column `i`
/// of `L`, so the substitution is dot-based.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_lower_transpose_inplace(a: MatRef<'_>, b: &mut [f64]) {
    let n = a.ncols();
    debug_assert_eq!(a.nrows(), n, "triangular solve needs a square matrix");
    assert_eq!(b.len(), n, "solve_lower_t: rhs length mismatch");
    for i in (0..n).rev() {
        let col = a.col(i);
        let s = dot(&col[i + 1..], &b[i + 1..]);
        b[i] = (b[i] - s) / col[i];
    }
}

/// Which triangular system a [`trsm`] solves.
#[derive(Clone, Copy)]
enum Tri {
    /// `L X = B`, `L` the lower triangle (unit diagonal if `unit`).
    Lower { unit: bool },
    /// `U X = B`, `U` the upper triangle.
    Upper,
    /// `Lᵀ X = B`, `L` the lower triangle.
    LowerT,
}

/// The recursive TRSM behind the three `*_mat_inplace` entries (see the
/// module docs). `Lower` substitutes forward — the leading block first,
/// then `B₂ -= A₂₁ X₁`; `Upper` and `LowerT` substitute backward — the
/// trailing block first, then `B₁ -= A₁₂ X₂`, with `A₁₂ = A₂₁ᵀ` read from
/// the lower triangle for `LowerT`.
fn trsm(tri: Tri, a: MatRef<'_>, mut b: MatMut<'_>) {
    let n = a.ncols();
    debug_assert_eq!(a.nrows(), n, "triangular solve needs a square matrix");
    assert_eq!(n, b.nrows(), "trsm: dimension mismatch");
    if n <= TRSM_LEAF {
        for j in 0..b.ncols() {
            let col = b.col_mut(j);
            match tri {
                Tri::Lower { unit } => solve_lower_inplace(a, unit, col),
                Tri::Upper => solve_upper_inplace(a, col),
                Tri::LowerT => solve_lower_transpose_inplace(a, col),
            }
        }
        return;
    }
    let h = trsm_split(n);
    let (a11, a22) = (a.submatrix(0..h, 0..h), a.submatrix(h..n, h..n));
    let (mut b1, mut b2) = b.split_at_row(h);
    match tri {
        Tri::Lower { .. } => {
            trsm(tri, a11, b1.rb_mut());
            gemm(-1.0, a.submatrix(h..n, 0..h), Trans::No, b1.rb(), Trans::No, 1.0, b2.rb_mut());
            trsm(tri, a22, b2);
        }
        Tri::Upper | Tri::LowerT => {
            trsm(tri, a22, b2.rb_mut());
            let (a12, t) = match tri {
                Tri::Upper => (a.submatrix(0..h, h..n), Trans::No),
                _ => (a.submatrix(h..n, 0..h), Trans::Yes),
            };
            gemm(-1.0, a12, t, b2.rb(), Trans::No, 1.0, b1.rb_mut());
            trsm(tri, a11, b1);
        }
    }
}

/// Solves `L X = B` in place for a multi-column right-hand side (TRSM,
/// lower; `unit_diag` as in [`solve_lower_inplace`]).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_lower_mat_inplace(a: MatRef<'_>, unit_diag: bool, b: MatMut<'_>) {
    trsm(Tri::Lower { unit: unit_diag }, a, b);
}

/// Solves `U X = B` in place for a multi-column right-hand side (TRSM,
/// upper).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_upper_mat_inplace(a: MatRef<'_>, b: MatMut<'_>) {
    trsm(Tri::Upper, a, b);
}

/// Solves `Lᵀ X = B` in place for a multi-column right-hand side (TRSM,
/// transposed lower).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_lower_transpose_mat_inplace(a: MatRef<'_>, b: MatMut<'_>) {
    trsm(Tri::LowerT, a, b);
}

/// Solves `U^T x = b` in place (forward substitution on the upper triangle).
pub fn solve_upper_transpose_inplace(a: MatRef<'_>, b: &mut [f64]) {
    let n = a.ncols();
    assert_eq!(b.len(), n, "solve_upper_t: rhs length mismatch");
    // U^T is lower triangular with U^T[i,j] = U[j,i]; column j of U holds
    // row j of U^T contiguously, so use dot-based substitution.
    for i in 0..n {
        let col = a.col(i);
        let s = dot(&col[..i], &b[..i]);
        b[i] = (b[i] - s) / col[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn lower(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            if i > j {
                0.3 * ((i * n + j) as f64).sin()
            } else if i == j {
                2.0 + i as f64
            } else {
                0.0
            }
        })
    }

    fn upper(n: usize) -> Mat {
        lower(n).transpose()
    }

    #[test]
    fn lower_solve_roundtrip() {
        let l = lower(7);
        let x_true: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let mut b = vec![0.0; 7];
        crate::blas2::gemv(1.0, l.rb(), &x_true, 0.0, &mut b);
        solve_lower_inplace(l.rb(), false, &mut b);
        for (u, v) in b.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_lower_ignores_diagonal() {
        let mut l = lower(5);
        for i in 0..5 {
            l[(i, i)] = 1.0;
        }
        let x_true = vec![1.0, -1.0, 2.0, 0.5, 3.0];
        let mut b = vec![0.0; 5];
        crate::blas2::gemv(1.0, l.rb(), &x_true, 0.0, &mut b);
        // Poison the stored diagonal; unit solve must not read it.
        for i in 0..5 {
            l[(i, i)] = f64::NAN;
        }
        solve_lower_inplace(l.rb(), true, &mut b);
        for (u, v) in b.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_solve_roundtrip() {
        let u = upper(6);
        let x_true: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut b = vec![0.0; 6];
        crate::blas2::gemv(1.0, u.rb(), &x_true, 0.0, &mut b);
        solve_upper_inplace(u.rb(), &mut b);
        for (a, v) in b.iter().zip(&x_true) {
            assert!((a - v).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_transpose_solve() {
        let u = upper(6);
        let ut = u.transpose();
        let x_true: Vec<f64> = (0..6).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut b = vec![0.0; 6];
        crate::blas2::gemv(1.0, ut.rb(), &x_true, 0.0, &mut b);
        solve_upper_transpose_inplace(u.rb(), &mut b);
        for (a, v) in b.iter().zip(&x_true) {
            assert!((a - v).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_rhs_matches_single() {
        let l = lower(5);
        let mut b = Mat::from_fn(5, 3, |i, j| (i + j) as f64 + 1.0);
        let mut cols: Vec<Vec<f64>> = (0..3).map(|j| b.col(j).to_vec()).collect();
        solve_lower_mat_inplace(l.rb(), false, b.rb_mut());
        for (j, col) in cols.iter_mut().enumerate() {
            solve_lower_inplace(l.rb(), false, col);
            assert_eq!(b.col(j), col.as_slice());
        }
    }
}
