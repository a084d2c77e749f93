//! Triangular solves: column-oriented substitution for one right-hand side,
//! and recursive level-3 TRSMs for a block of them.
//!
//! A multi-column solve halves the triangle, solves the leading block,
//! folds it into the remaining rows with one [`gemm`]
//! on disjoint row views of `B`, and recurses. A diagonal block of at most
//! `TRSM_LEAF` (32) rows is solved by substitution on all its columns at
//! once: step `j` solves row `j` of every right-hand side, and one
//! [`rank1_update`] folds it into the other rows, the solved row supplying
//! the multipliers — with AVX-512, `simd::subst_in_registers` runs all the
//! steps with the block in registers. An element gets the operations one
//! `axpy` per column gave it, so a column's bits are the same alone (the
//! one-vector solves below are the same substitution on an `n × 1` view)
//! or among any others. Every temporary comes from the GEMM's pooled
//! packing panels.

use crate::gemm::{gemm, Trans};
use crate::mat::{MatMut, MatRef};
use crate::simd::{rank1_update, subst_in_registers, Subst};

/// Largest diagonal block a multi-column solve hands to substitution: the
/// largest the register body takes.
const TRSM_LEAF: usize = crate::simd::SUBST_MAX;

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
    assert_eq!(b.len(), a.ncols(), "solve_lower: rhs length mismatch");
    subst_lower(a, unit_diag, MatMut::from_col(b));
}

/// Solves `U x = b` in place, where `U` is the upper triangle of `a`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_upper_inplace(a: MatRef<'_>, b: &mut [f64]) {
    assert_eq!(b.len(), a.ncols(), "solve_upper: rhs length mismatch");
    subst_upper(a, MatMut::from_col(b));
}

/// Forward substitution `L X = B` on every column of `B` at once (see the
/// module docs): step `j` divides row `j` by `l_jj` unless `unit`, then
/// `B[j+1.., c] −= B[j, c] · L[j+1.., j]`.
fn subst_lower(a: MatRef<'_>, unit: bool, mut b: MatMut<'_>) {
    if subst_in_registers(Subst::Forward { unit }, a, b.rb_mut()) {
        return;
    }
    for j in 0..a.ncols() {
        let col = a.col(j);
        if !unit {
            for c in 0..b.ncols() {
                b.col_mut(c)[j] /= col[j];
            }
        }
        rank1_update(&col[j + 1..], j, j + 1, b.rb_mut());
    }
}

/// Back substitution `U X = B` on every column of `B` at once: step `j`
/// (last row first) divides row `j` by `u_jj`, then
/// `B[..j, c] −= B[j, c] · U[..j, j]`.
fn subst_upper(a: MatRef<'_>, mut b: MatMut<'_>) {
    if subst_in_registers(Subst::Backward, a, b.rb_mut()) {
        return;
    }
    for j in (0..a.ncols()).rev() {
        let col = a.col(j);
        for c in 0..b.ncols() {
            b.col_mut(c)[j] /= col[j];
        }
        rank1_update(&col[..j], j, 0, b.rb_mut());
    }
}

/// Which triangular system a [`trsm`] solves.
#[derive(Clone, Copy)]
enum Tri {
    /// `L X = B`, `L` the lower triangle (unit diagonal if `unit`).
    Lower { unit: bool },
    /// `U X = B`, `U` the upper triangle.
    Upper,
}

/// The recursive TRSM behind the two `*_mat_inplace` entries (see the
/// module docs). `Lower` substitutes forward — the leading block first,
/// then `B₂ -= A₂₁ X₁`; `Upper` substitutes backward — the trailing block
/// first, then `B₁ -= A₁₂ X₂`.
fn trsm(tri: Tri, a: MatRef<'_>, b: MatMut<'_>) {
    let n = a.ncols();
    debug_assert_eq!(a.nrows(), n, "triangular solve needs a square matrix");
    assert_eq!(n, b.nrows(), "trsm: dimension mismatch");
    if n <= TRSM_LEAF {
        match tri {
            Tri::Lower { unit } => subst_lower(a, unit, b),
            Tri::Upper => subst_upper(a, b),
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
        Tri::Upper => {
            trsm(tri, a22, b2.rb_mut());
            gemm(-1.0, a.submatrix(0..h, h..n), Trans::No, b2.rb(), Trans::No, 1.0, b1.rb_mut());
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
