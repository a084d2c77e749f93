//! Blocked evaluation of kernel sub-matrices `K[rows, cols]`.
//!
//! These routines materialize kernel blocks (the "stored" mode of §II-D);
//! the matrix-free engines live in [`crate::reference`] (two-pass) and
//! [`crate::gsks`] (fused).
//!
//! The inner-product pass is one packed rank-`d` GEMM over gathered
//! coordinate panels (`G = Xr^T Xc`, through the SIMD microkernel path)
//! followed by the batched [`Kernel::eval_parts_many`] epilogue; the
//! two-pass summation of [`crate::reference`] reduces against this same
//! block. Pointwise [`Kernel::eval`] is what the tests hold it to.

use crate::function::Kernel;
use kfds_la::blas1::dot;
use kfds_la::{gemm, workspace, Mat, MatRef, Trans};
use kfds_tree::PointSet;
use rayon::prelude::*;

/// Evaluates the kernel block `K[rows, cols]` between index lists into the
/// same point set.
///
/// The result is backed by pooled storage; hot-path callers that drop the
/// block should hand it back with [`workspace::recycle_mat`].
pub fn eval_block(kernel: &dyn Kernel, pts: &PointSet, rows: &[usize], cols: &[usize]) -> Mat {
    if rows.is_empty() || cols.is_empty() {
        return Mat::zeros(rows.len(), cols.len());
    }
    let xc = crate::reference::gather_coords(pts, cols);
    let out = eval_block_gemm(kernel, pts, rows, xc.rb());
    workspace::recycle_mat(xc);
    out
}

/// Evaluates `K[rows, range]` where the columns are a contiguous range of
/// (permuted) positions — the common case for tree-node blocks. The
/// column panel is a zero-copy view of the point set (points are stored
/// column-major), so no index list or coordinate gather is materialized.
pub fn eval_block_range(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    range: std::ops::Range<usize>,
) -> Mat {
    let n = range.len();
    if rows.is_empty() || n == 0 {
        return Mat::zeros(rows.len(), n);
    }
    let d = pts.dim();
    let xc = MatRef::from_parts(&pts.as_slice()[range.start * d..range.end * d], d, n, d);
    eval_block_gemm(kernel, pts, rows, xc)
}

/// GEMM assembly pipeline shared by [`eval_block`]/[`eval_block_range`]:
/// `G = Xr^T Xc` through the packed SIMD GEMM, then the batched kernel
/// transform per column (one `vexp` per column for Gaussian/Laplacian).
fn eval_block_gemm(kernel: &dyn Kernel, pts: &PointSet, rows: &[usize], xc: MatRef<'_>) -> Mat {
    let m = rows.len();
    let n = xc.ncols();
    let xr = crate::reference::gather_coords(pts, rows);
    let mut out = workspace::take_mat_detached(m, n);
    gemm(1.0, xr.rb(), Trans::Yes, xc, Trans::No, 0.0, out.rb_mut());
    let mut row_norms = workspace::take(m);
    let mut col_norms = workspace::take(n);
    for i in 0..m {
        row_norms[i] = sq_norm(xr.col(i));
    }
    for j in 0..n {
        col_norms[j] = sq_norm(xc.col(j));
    }
    let rn: &[f64] = &row_norms;
    let cn: &[f64] = &col_norms;
    out.as_mut_slice().par_chunks_mut(m).enumerate().for_each(|(j, col)| {
        kernel.eval_parts_many(col, rn, &cn[j..j + 1]);
    });
    workspace::recycle_mat(xr);
    out
}

/// Evaluates the full symmetric kernel matrix `K[range, range]` (used for
/// leaf diagonal blocks and dense cross-checks).
///
/// The Gram block comes from a zero-copy coordinate panel; the routine
/// overwrites the diagonal with the exact `x·x` dots before the kernel
/// transform (so `K(x, x)` is evaluated from bitwise-equal arguments and
/// the unit diagonal of distance kernels is exact), and mirrors the upper
/// triangle so the result is exactly symmetric.
pub fn eval_symmetric(kernel: &dyn Kernel, pts: &PointSet, range: std::ops::Range<usize>) -> Mat {
    let n = range.len();
    // Output is plainly allocated (not pooled): leaf diagonal blocks are
    // consumed into long-lived factors, so pooling them would only drain
    // the pool.
    let mut out = Mat::zeros(n, n);
    if n == 0 {
        return out;
    }
    let d = pts.dim();
    let xc = MatRef::from_parts(&pts.as_slice()[range.start * d..range.end * d], d, n, d);
    gemm(1.0, xc, Trans::Yes, xc, Trans::No, 0.0, out.rb_mut());
    let mut norms = workspace::take(n);
    for j in 0..n {
        norms[j] = sq_norm(xc.col(j));
    }
    for j in 0..n {
        out[(j, j)] = norms[j];
    }
    for j in 0..n {
        kernel.eval_parts_many(&mut out.col_mut(j)[..], &norms, &norms[j..j + 1]);
    }
    for j in 0..n {
        for i in j + 1..n {
            out[(i, j)] = out[(j, i)];
        }
    }
    out
}

#[inline]
fn sq_norm(x: &[f64]) -> f64 {
    dot(x, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Gaussian, Laplacian, Matern32, Polynomial};

    fn pts() -> PointSet {
        let data: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
        PointSet::from_col_major(2, data)
    }

    #[test]
    fn block_matches_pointwise() {
        let p = pts();
        let k = Gaussian::new(0.8);
        let rows = [0, 3, 7];
        let cols = [1, 2, 9, 4];
        let b = eval_block(&k, &p, &rows, &cols);
        for (i, &ri) in rows.iter().enumerate() {
            for (j, &cj) in cols.iter().enumerate() {
                let want = k.eval(p.point(ri), p.point(cj));
                assert!((b[(i, j)] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn range_block_matches_list_block() {
        let p = pts();
        let k = Gaussian::new(0.5);
        let rows = [2, 5];
        let a = eval_block_range(&k, &p, &rows, 3..8);
        let b = eval_block(&k, &p, &rows, &[3, 4, 5, 6, 7]);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn symmetric_block_is_symmetric_with_unit_diagonal() {
        let p = pts();
        let k = Gaussian::new(1.1);
        let s = eval_symmetric(&k, &p, 2..9);
        for i in 0..7 {
            assert_eq!(s[(i, i)], 1.0);
            for j in 0..7 {
                assert_eq!(s[(i, j)], s[(j, i)]);
            }
        }
    }

    #[test]
    fn gemm_path_matches_pointwise_eval() {
        // Larger panel in a higher dimension so the GEMM actually tiles.
        let d = 6;
        let n = 40;
        let data: Vec<f64> = (0..d * n).map(|i| (i as f64 * 0.13).cos()).collect();
        let p = PointSet::from_col_major(d, data);
        let rows: Vec<usize> = (0..n).step_by(3).collect();
        let cols: Vec<usize> = (1..n).step_by(2).collect();
        // Kernels smooth in the *squared* distance see only the raw
        // cancellation residual of the expanded form (~eps·‖x‖²); kernels
        // that take a square root (Laplacian, Matérn) amplify that
        // residual to ~√eps near coincident points.
        let kernels: Vec<(Box<dyn Kernel>, f64)> = vec![
            (Box::new(Gaussian::new(0.9)), 1e-13),
            (Box::new(Laplacian::new(0.7)), 5e-8),
            (Box::new(Matern32::new(1.2)), 5e-8),
            (Box::new(Polynomial::new(0.5, 1.0, 2)), 1e-13),
        ];
        for (k, tol) in &kernels {
            let a = eval_block(k.as_ref(), &p, &rows, &cols);
            for (j, &cj) in cols.iter().enumerate() {
                for (i, &ri) in rows.iter().enumerate() {
                    let want = k.eval(p.point(ri), p.point(cj));
                    assert!((a[(i, j)] - want).abs() <= *tol, "({i},{j}): {} vs {want}", a[(i, j)]);
                }
            }
            let sg = eval_symmetric(k.as_ref(), &p, 4..n - 3);
            for j in 0..sg.ncols() {
                for i in 0..sg.nrows() {
                    assert_eq!(sg[(i, j)], sg[(j, i)], "asymmetric at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn empty_blocks() {
        let p = pts();
        let k = Gaussian::new(1.0);
        assert_eq!(eval_block(&k, &p, &[], &[1, 2]).nrows(), 0);
        assert_eq!(eval_block(&k, &p, &[1], &[]).ncols(), 0);
        assert_eq!(eval_block_range(&k, &p, &[1], 3..3).ncols(), 0);
        assert_eq!(eval_symmetric(&k, &p, 5..5).nrows(), 0);
    }
}
