//! Level-2 BLAS-style kernels: matrix-vector products.

use crate::blas1::{axpy, dot};
use crate::mat::MatRef;

/// `y = alpha * A * x + beta * y`.
///
/// Walks `A` column-by-column (contiguous in column-major storage). With
/// SIMD active the columns are blocked four at a time through the AVX2
/// kernel so each load of `y` amortizes four FMA columns; the scalar path
/// (an `axpy` per unit-stride column) stays the reference implementation
/// under `KFDS_SIMD=off`.
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
    #[cfg(target_arch = "x86_64")]
    {
        if a.nrows() >= 4 && a.ncols() > 0 && crate::simd::active() {
            // SAFETY: active() implies AVX2+FMA; the view exposes
            // `col_stride * (ncols - 1) + nrows` elements from `as_ptr()`
            // and the length asserts above cover x and y.
            unsafe {
                crate::simd::dgemv_add_avx2(
                    a.nrows(),
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
/// With SIMD active, `beta == 0` and at least 8 rows and 4 columns, the
/// columns go through a vector body: 8-wide under AVX-512, 4-wide under
/// AVX2, both reducing every column in one order (documented on
/// `simd`'s `dgemv_t_v8`), so every AVX2+FMA host gives the same bits. The
/// scalar path (one `dot` per column) stays the reference implementation
/// under `KFDS_SIMD=off`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv_t(alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.nrows(), x.len(), "gemv_t: A.nrows != x.len");
    assert_eq!(a.ncols(), y.len(), "gemv_t: A.ncols != y.len");
    #[cfg(target_arch = "x86_64")]
    {
        if beta == 0.0 && alpha != 0.0 && a.nrows() >= 8 && a.ncols() >= 4 && crate::simd::active()
        {
            // SAFETY: active() implies AVX2+FMA (avx512_supported gates
            // the 8-wide body, which gives the same bits); the view exposes
            // `col_stride * (ncols - 1) + nrows` elements from `as_ptr()`
            // and the length asserts above cover x and y.
            unsafe {
                if crate::simd::avx512_supported() {
                    crate::simd::dgemv_t_avx512(
                        a.nrows(),
                        a.ncols(),
                        alpha,
                        a.as_ptr(),
                        a.col_stride(),
                        x.as_ptr(),
                        y.as_mut_ptr(),
                    );
                } else {
                    crate::simd::dgemv_t_avx2(
                        a.nrows(),
                        a.ncols(),
                        alpha,
                        a.as_ptr(),
                        a.col_stride(),
                        x.as_ptr(),
                        y.as_mut_ptr(),
                    );
                }
            }
            return;
        }
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
    fn vector_gemv_t_reduces_in_the_one_order() {
        // Rows through the 16-row steps, the one 8-row step and the tail;
        // columns through the four-column blocks and the n % 4 after them;
        // every A a window of a larger matrix (col_stride > nrows).
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
                    if crate::simd::active() {
                        let mut y = vec![f64::NAN; n];
                        gemv_t(alpha, a, x, 0.0, &mut y);
                        assert!(same(&y), "gemv_t m={m} n={n} α={alpha}: {y:?} vs {want:?}");
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
