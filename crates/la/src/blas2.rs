//! Level-2 BLAS-style kernels: matrix-vector products.

use crate::blas1::{axpy, dot};
use crate::mat::MatRef;
use crate::simd::Lane;

/// `y = alpha * A * x + beta * y`.
///
/// Walks `A` column-by-column (contiguous in column-major storage). With at
/// least 4 rows the columns go four at a time, so each pass over `y`
/// amortizes four columns: per element a chain of four fused multiply-adds
/// on the first `4⌊m/4⌋` rows and one multiply-then-add sum of the four
/// products on the rest, then one column at a time, fused the same way —
/// the AVX2 kernel where [`crate::simd::active`], the same chain in
/// portable code otherwise. Fewer rows take an `axpy` per column with a
/// nonzero `alpha * x_j`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv(alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.ncols(), x.len(), "gemv: A.ncols != x.len");
    assert_eq!(a.nrows(), y.len(), "gemv: A.nrows != y.len");
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        crate::blas1::scal(beta, y);
    }
    if alpha == 0.0 {
        return;
    }
    let m = a.nrows();
    if m >= 4 && a.ncols() > 0 {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::active() {
            // SAFETY: active() implies AVX2+FMA; the view exposes
            // `col_stride * (ncols - 1) + nrows` elements from `as_ptr()`
            // and the length asserts above cover x and y.
            unsafe {
                crate::simd::dgemv_add_avx2(
                    m,
                    a.ncols(),
                    alpha,
                    a.as_ptr(),
                    a.col_stride(),
                    x.as_ptr(),
                    y.as_mut_ptr(),
                );
            }
            return;
        }
        let (four, quads) = (x.len() / 4 * 4, m / 4 * 4);
        for j in (0..four).step_by(4) {
            let xs: [f64; 4] = std::array::from_fn(|t| alpha * x[j + t]);
            let cols: [&[f64]; 4] = std::array::from_fn(|t| a.col(j + t));
            for (i, yi) in y.iter_mut().enumerate() {
                if i < quads {
                    *yi = cols.iter().zip(xs).fold(*yi, |v, (c, xt)| c[i].mul_add(xt, v));
                } else {
                    *yi += xs[0] * cols[0][i]
                        + xs[1] * cols[1][i]
                        + xs[2] * cols[2][i]
                        + xs[3] * cols[3][i];
                }
            }
        }
        for (j, &xv) in x.iter().enumerate().skip(four) {
            let xa = alpha * xv;
            let (yf, yr) = y.split_at_mut(quads);
            let (cf, cr) = a.col(j).split_at(quads);
            for (yi, &c) in yf.iter_mut().zip(cf) {
                *yi = xa.mul_add(c, *yi);
            }
            for (yi, &c) in yr.iter_mut().zip(cr) {
                *yi += xa * c;
            }
        }
        return;
    }
    for (j, &xv) in x.iter().enumerate() {
        let xj = alpha * xv;
        if xj != 0.0 {
            axpy(xj, a.col(j), y);
        }
    }
}

/// `y = alpha * A^T * x + beta * y`.
///
/// Each output element is a dot product with a contiguous column of `A`.
/// With `beta == 0` and at least 8 rows and 4 columns, the columns go
/// through one body in every lane — 8-wide under AVX-512, 4-wide under
/// AVX2, the portable lanes otherwise — reducing every column in one order
/// (documented on `simd`'s `dgemv_t_v8`); any other shape takes one
/// [`dot`] per column.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv_t(alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.nrows(), x.len(), "gemv_t: A.nrows != x.len");
    assert_eq!(a.ncols(), y.len(), "gemv_t: A.ncols != y.len");
    if beta == 0.0 && alpha != 0.0 && a.nrows() >= 8 && a.ncols() >= 4 {
        let (m, n, ap, lda) = (a.nrows(), a.ncols(), a.as_ptr(), a.col_stride());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: the view exposes `col_stride * (ncols - 1) + nrows`
        // elements from `as_ptr()` and the length asserts above cover x and
        // y; a vector lane is only chosen where the CPU has its features.
        unsafe {
            match crate::simd::lane() {
                Lane::Portable => crate::simd::dgemv_t_portable(m, n, alpha, ap, lda, xp, yp),
                #[cfg(target_arch = "x86_64")]
                Lane::Avx2 => crate::simd::dgemv_t_avx2(m, n, alpha, ap, lda, xp, yp),
                #[cfg(target_arch = "x86_64")]
                Lane::Avx512 => crate::simd::dgemv_t_avx512(m, n, alpha, ap, lda, xp, yp),
            }
        }
        return;
    }
    for (j, yj) in y.iter_mut().enumerate() {
        let d = if alpha == 0.0 { 0.0 } else { alpha * dot(a.col(j), x) };
        *yj = if beta == 0.0 { d } else { beta * *yj + d };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn naive_gemv(a: &Mat, x: &[f64]) -> Vec<f64> {
        (0..a.nrows()).map(|i| (0..a.ncols()).map(|j| a[(i, j)] * x[j]).sum()).collect()
    }

    #[test]
    fn gemv_matches_naive() {
        let a = Mat::from_fn(4, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.5));
        let x = [1.0, -2.0, 0.5];
        let mut y = vec![1.0; 4];
        gemv(2.0, a.rb(), &x, 3.0, &mut y);
        let naive = naive_gemv(&a, &x);
        for i in 0..4 {
            assert!((y[i] - (2.0 * naive[i] + 3.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_t_matches_transpose() {
        let a = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.25);
        let at = a.transpose();
        let x = [0.5, -1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        gemv_t(1.5, a.rb(), &x, 0.0, &mut y1);
        gemv(1.5, at.rb(), &x, 0.0, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    /// The reduction order of the vector `gemv_t` body (see
    /// `simd`'s `dgemv_t_v8`) in portable code: `mul_add` chains in its lane
    /// order, its chain sum and its halving tree, the row tail unfused.
    fn gemv_t_order(alpha: f64, a: MatRef<'_>, x: &[f64]) -> Vec<f64> {
        let (m, n) = (a.nrows(), a.ncols());
        let four = n / 4 * 4;
        let mut y = vec![0.0; n];
        for (j, yj) in y.iter_mut().enumerate() {
            let c = a.col(j);
            let mut ch = [[0.0f64; 4]; 4];
            let step = |ch: &mut [[f64; 4]; 4], i: usize, chains: usize| {
                for (t, cht) in ch.iter_mut().enumerate().take(chains) {
                    for (l, v) in cht.iter_mut().enumerate() {
                        let r = i + 4 * t + l;
                        *v = c[r].mul_add(x[r], *v);
                    }
                }
            };
            let mut i = 0;
            if j < four {
                while i + 16 <= m {
                    step(&mut ch, i, 4);
                    i += 16;
                }
            }
            while i + 8 <= m {
                step(&mut ch, i, 2);
                i += 8;
            }
            let v: [f64; 4] = std::array::from_fn(|l| {
                if j < four {
                    (ch[0][l] + ch[2][l]) + (ch[1][l] + ch[3][l])
                } else {
                    ch[0][l] + ch[1][l]
                }
            });
            let mut d = (v[0] + v[2]) + (v[1] + v[3]);
            for r in i..m {
                d += c[r] * x[r];
            }
            *yj = alpha * d;
        }
        y
    }

    #[test]
    fn gemv_t_reduces_in_the_one_order() {
        // Rows through the 16-row steps, the one 8-row step and the tail;
        // columns through the four-column blocks and the n % 4 after them;
        // every A a window of a larger matrix (col_stride > nrows). The
        // wrapper with SIMD on and off, and the AVX2 body where it runs.
        let _mode = crate::simd::SIMD_MODE.lock().unwrap_or_else(|e| e.into_inner());
        let was = crate::simd::active();
        let big = Mat::from_fn(300, 20, |i, j| ((i * 37 + j * 101) % 199) as f64 / 97.0 - 1.0);
        let xs: Vec<f64> = (0..300).map(|i| ((i * 53) % 89) as f64 / 44.0 - 1.0).collect();
        for m in [8, 12, 15, 16, 17, 23, 24, 31, 32, 39, 40, 47, 100, 263] {
            for n in [4, 5, 6, 7, 8, 9, 13] {
                for alpha in [1.0, -1.0, 0.3] {
                    let a = big.submatrix(3..3 + m, 2..2 + n);
                    let x = &xs[1..1 + m];
                    let want = gemv_t_order(alpha, a, x);
                    let same = |got: &[f64]| {
                        got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits())
                    };
                    let lanes = [true, false].map(|simd| {
                        crate::simd::set_simd_enabled(simd);
                        let mut y = vec![f64::NAN; n];
                        gemv_t(alpha, a, x, 0.0, &mut y);
                        y
                    });
                    crate::simd::set_simd_enabled(was);
                    for (y, simd) in lanes.iter().zip([true, false]) {
                        let what = format!("m={m} n={n} α={alpha} simd={simd}");
                        assert!(same(y), "gemv_t {what}: {y:?} vs {want:?}");
                    }
                    #[cfg(target_arch = "x86_64")]
                    if crate::simd::cpu_supported() {
                        let mut y = vec![f64::NAN; n];
                        // SAFETY: AVX2+FMA checked; the window exposes
                        // col_stride * (n - 1) + m elements, x m and y n.
                        unsafe {
                            crate::simd::dgemv_t_avx2(
                                m,
                                n,
                                alpha,
                                a.as_ptr(),
                                a.col_stride(),
                                x.as_ptr(),
                                y.as_mut_ptr(),
                            );
                        }
                        assert!(same(&y), "AVX2 body m={m} n={n} α={alpha}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_beta_zero_clears_nan() {
        let a = Mat::zeros(2, 2);
        let mut y = vec![f64::NAN; 2];
        gemv(1.0, a.rb(), &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![0.0, 0.0]);
    }
}
