//! The "best-known" two-pass kernel summation (paper eq. 11):
//! `K u = GEMV( K(GEMM(Xr^T, Xc)), u )`.
//!
//! This is the reference implementation the paper compares GSKS against
//! (labelled "MKL+VML" in Table I): a rank-`d` GEMM produces the Gram
//! block, the kernel function is applied elementwise (the VML `VEXP`
//! analogue), and a GEMV/GEMM reduces against the weights. The block is
//! [`eval_block`]'s, so it is materialized — `O(mn)` extra memory traffic,
//! which is what the fused engine removes.

use crate::eval::eval_block;
use crate::function::Kernel;
use kfds_la::{gemm, workspace, Mat, MatMut, MatRef, Trans};
use kfds_tree::PointSet;

/// Gathers `idx`-selected points as the columns of a `d x idx.len()` matrix.
///
/// The returned matrix is backed by a pooled buffer; callers on hot paths
/// should hand it back with [`workspace::recycle_mat`] when done.
pub fn gather_coords(pts: &PointSet, idx: &[usize]) -> Mat {
    let d = pts.dim();
    // Pooled: every column is fully overwritten below.
    let mut out = workspace::take_mat_detached(d, idx.len());
    for (j, &i) in idx.iter().enumerate() {
        out.col_mut(j).copy_from_slice(pts.point(i));
    }
    out
}

/// Two-pass kernel summation: `w = K[rows, cols] * u` (overwrites `w`).
///
/// # Panics
/// Panics on length mismatches.
pub fn sum_reference<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: &[f64],
    w: &mut [f64],
) {
    assert_eq!(u.len(), cols.len(), "sum_reference: weight length mismatch");
    assert_eq!(w.len(), rows.len(), "sum_reference: output length mismatch");
    let kb = eval_block(k, pts, rows, cols);
    kfds_la::blas2::gemv(1.0, kb.rb(), u, 0.0, w);
    workspace::recycle_mat(kb);
}

/// Two-pass multi-RHS summation: `W = K[rows, cols] * U` (overwrites `W`).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn sum_reference_multi<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: MatRef<'_>,
    w: MatMut<'_>,
) {
    assert_eq!(u.nrows(), cols.len(), "sum_reference_multi: U rows mismatch");
    assert_eq!(w.nrows(), rows.len(), "sum_reference_multi: W rows mismatch");
    assert_eq!(u.ncols(), w.ncols(), "sum_reference_multi: RHS count mismatch");
    let kb = eval_block(k, pts, rows, cols);
    gemm(1.0, kb.rb(), Trans::No, u, Trans::No, 0.0, w);
    workspace::recycle_mat(kb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Gaussian;

    fn pts(n: usize, d: usize) -> PointSet {
        let data: Vec<f64> =
            (0..n * d).map(|i| ((i * 2654435761) % 1000) as f64 / 500.0 - 1.0).collect();
        PointSet::from_col_major(d, data)
    }

    #[test]
    fn summation_matches_explicit() {
        let p = pts(25, 3);
        let k = Gaussian::new(0.6);
        let rows: Vec<usize> = (0..10).collect();
        let cols: Vec<usize> = (10..25).collect();
        let u: Vec<f64> = (0..15).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut w = vec![f64::NAN; 10];
        sum_reference(&k, &p, &rows, &cols, &u, &mut w);
        for (&r, got) in rows.iter().zip(&w) {
            let want: f64 =
                cols.iter().zip(&u).map(|(&c, uc)| k.eval(p.point(r), p.point(c)) * uc).sum();
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_rhs_matches_column_by_column() {
        let p = pts(20, 4);
        let k = Gaussian::new(1.2);
        let rows: Vec<usize> = (0..8).collect();
        let cols: Vec<usize> = (8..20).collect();
        let u = Mat::from_fn(12, 3, |i, j| ((i + 3 * j) as f64 * 0.17).sin());
        let mut w = Mat::zeros(8, 3);
        sum_reference_multi(&k, &p, &rows, &cols, u.rb(), w.rb_mut());
        for t in 0..3 {
            let mut wt = vec![0.0; 8];
            sum_reference(&k, &p, &rows, &cols, u.col(t), &mut wt);
            for i in 0..8 {
                assert!((w[(i, t)] - wt[i]).abs() < 1e-12);
            }
        }
    }
}
