//! Level-1 BLAS-style vector kernels.
//!
//! All routines operate on `f64` slices; lengths are checked with asserts so
//! the hot loops themselves compile to straight-line vectorized code.

/// Dot product `x . y`.
///
/// At 8 elements or more, the AVX2 kernel where [`crate::simd::active`]
/// and the same chain in portable code otherwise (see `dot_portable`).
/// Shorter vectors take four partial sums, unfused, in every lane.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if x.len() >= 8 && crate::simd::active() {
            // SAFETY: active() implies AVX2+FMA; lengths asserted equal.
            return unsafe { crate::simd::dot_avx2(x, y) };
        }
    }
    if x.len() >= 8 {
        return dot_portable(x, y);
    }
    // Four partial accumulators break the additive dependency chain so LLVM
    // can vectorize and pipeline the reduction.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for k in 0..chunks {
        let i = 4 * k;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in 4 * chunks..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// The AVX2 kernel's chain for [`dot`] in portable code: sixteen running
/// sums of fused multiply-adds — element `i` of each 16-element step into
/// sum `i % 16`, then 4-element steps into sums `0..4` — added four by
/// four, `t_l = (s_l + s_{l+4}) + (s_{l+8} + s_{l+12})`, then
/// `(t_0 + t_2) + (t_1 + t_3)`, and the last `len % 4` products added in
/// order, unfused.
fn dot_portable(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let mut acc = [[0.0f64; 4]; 4];
    let mut i = 0;
    while i + 16 <= n {
        for (a, (xs, ys)) in acc.iter_mut().zip(x[i..i + 16].chunks(4).zip(y[i..].chunks(4))) {
            for ((s, &xv), &yv) in a.iter_mut().zip(xs).zip(ys) {
                *s = xv.mul_add(yv, *s);
            }
        }
        i += 16;
    }
    while i + 4 <= n {
        for ((s, &xv), &yv) in acc[0].iter_mut().zip(&x[i..i + 4]).zip(&y[i..]) {
            *s = xv.mul_add(yv, *s);
        }
        i += 4;
    }
    let t: [f64; 4] = std::array::from_fn(|l| (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]));
    let mut s = (t[0] + t[2]) + (t[1] + t[3]);
    for (&xv, &yv) in x[i..].iter().zip(&y[i..]) {
        s += xv * yv;
    }
    s
}

/// `y += alpha * x`: one fused multiply-add per element on the first
/// `4⌊len/4⌋` of a vector of at least 8 elements, `y + alpha·x` (multiply,
/// then add) on the rest — the AVX2 kernel where [`crate::simd::active`],
/// the same operations in portable code otherwise.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if alpha == 0.0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if x.len() >= 8 && crate::simd::active() {
            // SAFETY: active() implies AVX2+FMA; lengths asserted equal.
            unsafe { crate::simd::axpy_avx2(alpha, x, y) };
            return;
        }
    }
    let fused = crate::simd::fused_rows(x.len());
    let (yf, yr) = y.split_at_mut(fused);
    for (yi, &xi) in yf.iter_mut().zip(x) {
        *yi = alpha.mul_add(xi, *yi);
    }
    for (yi, &xi) in yr.iter_mut().zip(&x[fused..]) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm with scaling to avoid overflow/underflow.
pub fn nrm2(x: &[f64]) -> f64 {
    let mx = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if mx == 0.0 || !mx.is_finite() {
        return mx;
    }
    // One pass of scaled squares; mx keeps intermediate values in range.
    let mut s = 0.0;
    for &v in x {
        let t = v / mx;
        s += t * t;
    }
    mx * s.sqrt()
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Index of the element with maximum absolute value (first on ties).
///
/// Returns `None` for an empty slice.
pub fn iamax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut bv = x[0].abs();
    for (i, &v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > bv {
            bv = a;
            best = i;
        }
    }
    Some(best)
}

/// Squared Euclidean norm (no overflow guard; used in hot distance loops).
#[inline]
pub fn nrm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5 - 3.0).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-10 * naive.abs().max(1.0));
    }

    #[test]
    fn axpy_updates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn nrm2_scaled_no_overflow() {
        let x = [1e200, 1e200];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!((n - 1e200 * 2.0f64.sqrt()).abs() / n < 1e-14);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn iamax_first_max() {
        assert_eq!(iamax(&[1.0, -5.0, 5.0]), Some(1));
        assert_eq!(iamax(&[]), None);
        assert_eq!(iamax(&[0.0]), Some(0));
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0, -2.0];
        scal(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }
}
