//! Blocked evaluation of kernel sub-matrices `K[rows, cols]`.
//!
//! These routines materialize kernel blocks (the "stored" mode of §II-D);
//! the matrix-free engines live in [`crate::reference`] (two-pass) and
//! [`crate::gsks`] (fused).
//!
//! By default the inner-product pass is one packed rank-`d` GEMM over
//! gathered coordinate panels (`G = Xr^T Xc`, through the SIMD microkernel
//! path) followed by the batched [`Kernel::eval_parts_many`] epilogue —
//! the same pipeline as [`crate::reference::kernel_block_gemm`].
//! `KFDS_EVAL_GEMM=off` (or `0`) falls back to the original per-entry
//! scalar `dot` loop, which reproduces the historical numerics bitwise
//! (same kill-switch convention as `KFDS_SIMD`/`KFDS_WS_POOL`).

use crate::function::Kernel;
use kfds_la::blas1::dot;
use kfds_la::{gemm, workspace, Mat, MatRef, Trans};
use kfds_tree::PointSet;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static GEMM_EVAL: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();

/// Whether block assembly routes through the packed GEMM pipeline
/// (env `KFDS_EVAL_GEMM` + runtime override).
#[inline]
pub fn gemm_eval_active() -> bool {
    ENV_INIT.call_once(|| {
        if kfds_switches::KFDS_EVAL_GEMM.is_off() {
            GEMM_EVAL.store(false, Ordering::Relaxed);
        }
    });
    GEMM_EVAL.load(Ordering::Relaxed)
}

/// Enables or disables the GEMM assembly path at runtime (overrides
/// `KFDS_EVAL_GEMM`), so benches and property tests can A/B both paths in
/// one process.
pub fn set_gemm_eval_enabled(on: bool) {
    let _ = gemm_eval_active(); // apply the env default first
    GEMM_EVAL.store(on, Ordering::Relaxed);
}

/// Evaluates the kernel block `K[rows, cols]` between index lists into the
/// same point set.
///
/// The result is backed by pooled storage; hot-path callers that drop the
/// block should hand it back with [`workspace::recycle_mat`].
pub fn eval_block(kernel: &dyn Kernel, pts: &PointSet, rows: &[usize], cols: &[usize]) -> Mat {
    if !gemm_eval_active() {
        return eval_block_scalar(kernel, pts, rows, cols);
    }
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
    if !gemm_eval_active() {
        // Scalar fallback: stream the range directly (bitwise identical to
        // the historical collect-then-eval_block path).
        let m = rows.len();
        let mut out = Mat::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        let row_norms: Vec<f64> = rows.iter().map(|&i| sq_norm(pts.point(i))).collect();
        let start = range.start;
        let data = out.as_mut_slice();
        data.par_chunks_mut(m).enumerate().for_each(|(j, col)| {
            let y = pts.point(start + j);
            let ny = sq_norm(y);
            for (i, out_ij) in col.iter_mut().enumerate() {
                *out_ij = dot(pts.point(rows[i]), y);
            }
            kernel.eval_parts_many(col, &row_norms, &[ny]);
        });
        return out;
    }
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

/// Original per-entry assembly, kept verbatim for `KFDS_EVAL_GEMM=off`.
fn eval_block_scalar(kernel: &dyn Kernel, pts: &PointSet, rows: &[usize], cols: &[usize]) -> Mat {
    let m = rows.len();
    let n = cols.len();
    let mut out = Mat::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let row_norms: Vec<f64> = rows.iter().map(|&i| sq_norm(pts.point(i))).collect();
    let data = out.as_mut_slice();
    data.par_chunks_mut(m).enumerate().for_each(|(j, col)| {
        let y = pts.point(cols[j]);
        let ny = sq_norm(y);
        for (i, out_ij) in col.iter_mut().enumerate() {
            *out_ij = dot(pts.point(rows[i]), y);
        }
        // Column = an m x 1 row-major tile; batches the kernel transform
        // (one vexp per column for Gaussian/Laplacian).
        kernel.eval_parts_many(col, &row_norms, &[ny]);
    });
    out
}

/// Evaluates the full symmetric kernel matrix `K[range, range]` (used for
/// leaf diagonal blocks and dense cross-checks).
///
/// The GEMM path forms the Gram block from a zero-copy coordinate panel,
/// overwrites the diagonal with the exact `x·x` dots before the kernel
/// transform (so `K(x, x)` is evaluated from bitwise-equal arguments and
/// the unit diagonal of distance kernels is exact), and mirrors the upper
/// triangle so the result is exactly symmetric.
pub fn eval_symmetric(kernel: &dyn Kernel, pts: &PointSet, range: std::ops::Range<usize>) -> Mat {
    let n = range.len();
    if !gemm_eval_active() {
        let idx: Vec<usize> = range.collect();
        let norms: Vec<f64> = idx.iter().map(|&i| sq_norm(pts.point(i))).collect();
        let mut out = Mat::zeros(n, n);
        for j in 0..n {
            let y = pts.point(idx[j]);
            for i in 0..=j {
                let v = kernel.eval_parts(dot(pts.point(idx[i]), y), norms[i], norms[j]);
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
        return out;
    }
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
    fn gemm_path_matches_scalar_path() {
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
            let b = eval_block_scalar(k.as_ref(), &p, &rows, &cols);
            for j in 0..cols.len() {
                for i in 0..rows.len() {
                    assert!(
                        (a[(i, j)] - b[(i, j)]).abs() <= *tol,
                        "({i},{j}): {} vs {}",
                        a[(i, j)],
                        b[(i, j)]
                    );
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
    fn gemm_assembly_is_the_default() {
        // No test of this binary flips the switch.
        assert_eq!(gemm_eval_active(), !kfds_switches::KFDS_EVAL_GEMM.is_off());
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
