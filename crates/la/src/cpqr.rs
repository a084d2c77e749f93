//! Column-pivoted, rank-revealing QR (LAPACK `GEQP3`-style) with early
//! truncation — the engine behind the interpolative decomposition.
//!
//! The paper selects the skeleton rank `s` such that
//! `sigma_{s+1}(K_{S'alpha}) / sigma_1 < tau`, with the singular values
//! estimated by the diagonal of the rank-revealing QR (§II-A). This module
//! implements exactly that truncation rule.
//!
//! Two renderings share the truncation and pivoting rules, and the size
//! of the factorization picks one — nothing else does:
//!
//! * **Blocked** (`min(m, n, max_rank) ≥ 48`, LAPACK `DLAQPS`-style):
//!   pivoted panels of [`NB`] columns accumulate their reflectors' action
//!   in an auxiliary matrix `F = tau * A^T V`, so the trailing matrix is
//!   only *read* during the panel (one GEMV per step) and *written* once
//!   per panel by a single rank-`nb` GEMM through the SIMD microkernel
//!   path. Pivot columns and pivot rows are updated just-in-time, so pivot
//!   decisions and the stored `R` match the unblocked elimination order.
//! * **Unblocked** (BLAS-2, one reflector applied at a time) — what small
//!   factorizations run, and the reference the blocked path's pivot, rank
//!   and `R` tests compare against.

use crate::blas1::{axpy, dot, nrm2};
use crate::blas2::{gemv, gemv_t};
use crate::gemm::{gemm, Trans};
use crate::mat::{Mat, MatMut, MatRef};
use crate::workspace;

/// Panel width of the blocked path (LAPACK-style `nb`).
pub const NB: usize = 32;
/// Minimum truncation bound `min(m, n, max_rank)` for which the blocked
/// path is used; below this the BLAS-2 loop wins and the panel machinery
/// is pure overhead.
const BLOCK_MIN: usize = 48;

/// A truncated column-pivoted QR factorization `A P = Q R`.
#[derive(Clone, Debug)]
pub struct ColPivQr {
    /// Packed reflectors below the diagonal, `R` on and above (columns in
    /// pivoted order).
    qr: Mat,
    tau: Vec<f64>,
    /// `perm[k]` is the original column index in pivot position `k`.
    perm: Vec<usize>,
    /// Truncation rank (number of accepted pivot columns).
    rank: usize,
    /// `|R[k,k]|` for each accepted step, monotonically non-increasing in
    /// exact arithmetic; used as singular-value estimates.
    rdiag: Vec<f64>,
}

impl ColPivQr {
    /// Factorizes `a` (consumed), truncating at relative tolerance `tol`
    /// and at `max_rank` columns.
    ///
    /// The rank is the smallest `s` with `|R[s,s]| <= tol * |R[0,0]|`
    /// (clamped to `max_rank` and `min(m, n)`). `tol == 0` disables the
    /// tolerance-based truncation.
    pub fn factor_truncated(a: Mat, tol: f64, max_rank: usize) -> Self {
        let kmax = a.nrows().min(a.ncols()).min(max_rank);
        if kmax >= BLOCK_MIN {
            Self::factor_truncated_blocked(a, tol, max_rank)
        } else {
            Self::factor_truncated_unblocked(a, tol, max_rank)
        }
    }

    /// BLAS-2 path: one Householder reflector applied to the full trailing
    /// matrix per pivot step — the small-size path of
    /// [`ColPivQr::factor_truncated`] and the blocked path's reference.
    pub fn factor_truncated_unblocked(mut a: Mat, tol: f64, max_rank: usize) -> Self {
        let m = a.nrows();
        let n = a.ncols();
        let kmax = m.min(n).min(max_rank);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut tau = Vec::with_capacity(kmax);
        let mut rdiag = Vec::with_capacity(kmax);

        // Residual column norms, downdated incrementally and recomputed when
        // cancellation makes the downdate untrustworthy (LAPACK heuristic).
        let mut norms: Vec<f64> = (0..n).map(|j| nrm2(a.col(j))).collect();
        let mut norms_ref = norms.clone();
        let mut first_pivot_norm = 0.0f64;

        let mut rank = 0;
        for k in 0..kmax {
            // Pivot: residual column with the largest norm.
            let (p, &pn) = norms[k..]
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).expect("NaN column norm"))
                .expect("non-empty pivot range");
            let p = k + p;
            if k == 0 {
                first_pivot_norm = pn;
            }
            // Truncation rule: sigma_{k+1}/sigma_1 estimated by pivot norms.
            if pn == 0.0 || (tol > 0.0 && k > 0 && pn <= tol * first_pivot_norm) {
                break;
            }
            a.swap_cols(k, p);
            norms.swap(k, p);
            norms_ref.swap(k, p);
            perm.swap(k, p);

            let t = {
                let col = &mut a.col_mut(k)[k..];
                make_householder(col)
            };
            tau.push(t);
            rdiag.push(a[(k, k)].abs());
            rank = k + 1;

            if k + 1 < n && t != 0.0 {
                let (head, tail) = a.as_mut_slice().split_at_mut((k + 1) * m);
                let v = head[k * m + k + 1..(k + 1) * m].to_vec();
                let trailing = MatMut::from_parts(&mut tail[k..], m - k, n - k - 1, m);
                apply_householder_left(&v, t, trailing);
            }
            // Downdate residual norms of the trailing columns.
            for j in k + 1..n {
                if norms[j] == 0.0 {
                    continue;
                }
                let r = a[(k, j)].abs() / norms[j];
                let d = (1.0 - r * r).max(0.0);
                // If the downdate lost too much accuracy, recompute exactly.
                let ratio = norms[j] / norms_ref[j];
                if d * ratio * ratio <= 1e-14 {
                    norms[j] = nrm2(&a.col(j)[k + 1..]);
                    norms_ref[j] = norms[j];
                } else {
                    norms[j] *= d.sqrt();
                }
            }
        }
        ColPivQr { qr: a, tau, perm, rank, rdiag }
    }

    /// Blocked (LAPACK `DLAQPS`-style) path: within a panel of [`NB`]
    /// pivot steps the trailing matrix is only read (`F` accumulation);
    /// the rank-`nb` write-back `A22 -= V F2^T` happens once per panel as
    /// a GEMM. Pivot selection, the truncation rule and the norm-downdate
    /// heuristic are identical to the unblocked path; the one structural
    /// difference is that a column whose downdated norm becomes
    /// untrustworthy ends the panel early and is recomputed *after* the
    /// deferred trailing update (its below-panel rows are stale until
    /// then), exactly as `DLAQPS` does with its `lsticc` mechanism.
    pub fn factor_truncated_blocked(mut a: Mat, tol: f64, max_rank: usize) -> Self {
        let m = a.nrows();
        let n = a.ncols();
        let kmax = m.min(n).min(max_rank);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut tau = Vec::with_capacity(kmax);
        let mut rdiag = Vec::with_capacity(kmax);

        // Residual norms are tracked *squared* on this path: the downdate
        // `norms2 -= A[k,j]^2` is one FMA per column (the sqrt-domain
        // downdate costs a divide and a square root per column per step,
        // which is a sizeable fraction of the whole factorization on
        // cache-resident blocks). Pivot order, the truncation rule and the
        // staleness guard are algebraically identical:
        // `d * ratio^2 = (norms^2 - a^2) / norms_ref^2`.
        let mut norms2: Vec<f64> = (0..n)
            .map(|j| {
                let c = a.col(j);
                crate::blas1::dot(c, c)
            })
            .collect();
        let mut norms2_ref = norms2.clone();
        let mut first_pivot_norm2 = 0.0f64;
        let mut rank = 0;

        // Pooled panel scratch. `fbuf` holds F (tau * A_trailing^T * V,
        // one column per reflector, leading dimension n - k0 per panel);
        // `yrow` receives the just-in-time pivot row update.
        let mut fbuf = workspace::take(n * NB);
        let mut yrow = workspace::take(n);
        // Columns whose norm downdate went stale this panel (recomputed
        // after the trailing GEMM).
        let mut stale: Vec<usize> = Vec::new();

        let mut k0 = 0;
        let mut done = false;
        while k0 < kmax && !done {
            let nb = NB.min(kmax - k0);
            let fld = n - k0; // F leading dimension this panel
            let fslice = &mut fbuf[..fld * nb];
            stale.clear();
            let mut jb = 0; // reflectors completed this panel

            for j in 0..nb {
                let k = k0 + j;
                // Pivot: residual column with the largest norm (squaring
                // is monotone, so the comparator picks the same column as
                // the unblocked path up to downdate rounding).
                let (p, &pn2) = norms2[k..]
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).expect("NaN column norm"))
                    .expect("non-empty pivot range");
                let p = k + p;
                if k == 0 {
                    first_pivot_norm2 = pn2;
                }
                if pn2 == 0.0 || (tol > 0.0 && k > 0 && pn2 <= tol * tol * first_pivot_norm2) {
                    done = true;
                    break;
                }
                a.swap_cols(k, p);
                norms2.swap(k, p);
                norms2_ref.swap(k, p);
                perm.swap(k, p);
                // F rows travel with their columns.
                if p != k {
                    for jj in 0..j {
                        fslice.swap(jj * fld + (k - k0), jj * fld + (p - k0));
                    }
                }

                // Apply the j pending panel reflectors to the new pivot
                // column: a[k.., k] -= V[k.., 0..j] * F[k - k0, 0..j]^T.
                // Columns k0..k precede column k in the column-major
                // storage, so a split borrows V and the destination
                // disjointly and the gemv accumulates in place.
                if j > 0 {
                    let mut frow = [0.0f64; NB];
                    for (jj, f) in frow[..j].iter_mut().enumerate() {
                        *f = fslice[jj * fld + (k - k0)];
                    }
                    let (head, tail) = a.as_mut_slice().split_at_mut(k * m);
                    let v = MatRef::from_parts(&head[k0 * m + k..], m - k, j, m);
                    gemv(-1.0, v, &frow[..j], 1.0, &mut tail[k..m]);
                }

                let t = make_householder(&mut a.col_mut(k)[k..]);
                tau.push(t);
                rdiag.push(a[(k, k)].abs());
                rank = k + 1;
                jb = j + 1;

                // F(:, j) = tau * A(k..m, k+1..n)^T * v with v[0] := 1,
                // then the incremental correction through the previous F
                // columns (LAPACK's auxv step) so F reflects the panel
                // updates that have not yet been applied to A.
                let akk = a[(k, k)];
                a.col_mut(k)[k] = 1.0;
                {
                    let (fdone, frest) = fslice.split_at_mut(j * fld);
                    let fcol = &mut frest[..fld];
                    if k + 1 < n {
                        let at = a.submatrix(k..m, k + 1..n);
                        gemv_t(t, at, &a.col(k)[k..m], 0.0, &mut fcol[j + 1..]);
                    }
                    for f in fcol[..=j].iter_mut() {
                        *f = 0.0;
                    }
                    if j > 0 {
                        let mut auxv = [0.0f64; NB];
                        let ap = a.submatrix(k..m, k0..k);
                        gemv_t(-t, ap, &a.col(k)[k..m], 0.0, &mut auxv[..j]);
                        let fview = MatRef::from_parts(fdone, fld, j, fld);
                        gemv(1.0, fview, &auxv[..j], 1.0, fcol);
                    }
                }
                // Update the pivot row across the trailing columns so the
                // R row and the norm downdates below see current values:
                // A[k, k+1..n] -= A[k, k0..=k] * F[(k+1..n) - k0, 0..=j]^T.
                // The diagonal entry participates as the reflector's
                // implicit unit head (A[k, k] is still 1 here, as in
                // LAPACK, which restores `akk` only after this update).
                if k + 1 < n {
                    let mut arow = [0.0f64; NB];
                    for (jj, v) in arow[..=j].iter_mut().enumerate() {
                        *v = a[(k, k0 + jj)];
                    }
                    let f2 = MatRef::from_parts(&fslice[j + 1..], fld - j - 1, j + 1, fld);
                    gemv(1.0, f2, &arow[..=j], 0.0, &mut yrow[..n - k - 1]);
                    for (c, y) in (k + 1..n).zip(&yrow[..n - k - 1]) {
                        a[(k, c)] -= *y;
                    }
                }
                a.col_mut(k)[k] = akk;

                // Norm downdate in the squared domain — the same heuristic
                // as the unblocked path (`d * ratio^2 <= 1e-14` with
                // `d * ratio^2 = (norms^2 - a^2) / norms_ref^2`), one FMA
                // and one compare per column. Untrustworthy columns are
                // deferred (their below-panel rows are not yet updated).
                for j2 in k + 1..n {
                    if norms2[j2] == 0.0 {
                        continue;
                    }
                    let akj = a[(k, j2)];
                    let down = norms2[j2] - akj * akj;
                    if down <= 1e-14 * norms2_ref[j2] {
                        stale.push(j2);
                    } else {
                        norms2[j2] = down;
                    }
                }
                if !stale.is_empty() {
                    break; // finish the panel now, recompute after the GEMM
                }
            }

            // Deferred trailing update for the panel's jb reflectors:
            // A[k0+jb.., k0+jb..] -= V[k0+jb.., panel] * F[jb.., 0..jb]^T.
            let kend = k0 + jb;
            if jb > 0 && kend < n && kend < m {
                let (head, tail) = a.as_mut_slice().split_at_mut(kend * m);
                let v = MatRef::from_parts(&head[k0 * m + kend..], m - kend, jb, m);
                let c = MatMut::from_parts(&mut tail[kend..], m - kend, n - kend, m);
                let f2 = MatRef::from_parts(&fslice[jb..], fld - jb, jb, fld);
                gemm(-1.0, v, Trans::No, f2, Trans::Yes, 1.0, c);
            }
            for &j2 in &stale {
                let c = &a.col(j2)[kend..];
                norms2[j2] = crate::blas1::dot(c, c);
                norms2_ref[j2] = norms2[j2];
            }
            if jb == 0 {
                break; // truncated on the panel's first pivot
            }
            k0 = kend;
        }
        ColPivQr { qr: a, tau, perm, rank, rdiag }
    }

    /// The truncation rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Original column indices in pivoted order; the first [`rank`](Self::rank)
    /// entries are the selected (skeleton) columns.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// `|R[k,k]|` singular-value estimates for the accepted steps.
    pub fn rdiag(&self) -> &[f64] {
        &self.rdiag
    }

    /// Householder scalars of the accepted reflectors (one per pivot step;
    /// exposed so callers can apply `Q`/`Qᵀ` if they need the orthogonal
    /// factor explicitly).
    pub fn tau(&self) -> &[f64] {
        &self.tau
    }

    /// `R11` (rank x rank upper triangular block).
    pub fn r11(&self) -> Mat {
        let s = self.rank;
        Mat::from_fn(s, s, |i, j| if i <= j { self.qr[(i, j)] } else { 0.0 })
    }

    /// Solves `R11 X = R12`, the interpolation coefficients of the
    /// non-skeleton columns in terms of the skeleton columns. The result
    /// is backed by pooled storage; recycle it with
    /// [`workspace::recycle_mat`] when it does not escape the hot path.
    pub fn interp_coeffs(&self) -> Mat {
        let s = self.rank;
        let n = self.qr.ncols();
        let mut t = workspace::take_mat_detached(s, n - s);
        for j in 0..n - s {
            for i in 0..s {
                t[(i, j)] = self.qr[(i, j + s)];
            }
        }
        if s > 0 {
            crate::tri::solve_upper_mat_inplace(self.qr.submatrix(0..s, 0..s), t.rb_mut());
        }
        t
    }

    /// Consumes the factorization, yielding the packed `QR` storage (so
    /// hot paths can hand the sampled block's buffer back to the pool).
    pub fn into_matrix(self) -> Mat {
        self.qr
    }
}

/// Computes a Householder reflector for `x` in place.
///
/// On return `x\[0\]` holds the resulting `R` diagonal entry (beta) and
/// `x[1..]` holds the reflector tail `v` (with implicit `v\[0\] = 1`); the
/// returned `tau` satisfies `H = I - tau * v v^T`, `H x = beta e_1`.
fn make_householder(x: &mut [f64]) -> f64 {
    let alpha = x[0];
    let xnorm = nrm2(&x[1..]);
    if xnorm == 0.0 {
        return 0.0; // Already in e_1 direction; H = I.
    }
    let beta = -(alpha.signum()) * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in &mut x[1..] {
        *v *= scale;
    }
    x[0] = beta;
    tau
}

/// Applies `H = I - tau v v^T` (reflector tail `v`, implicit leading 1) to
/// every column of `a` from the left: `a[:, j] = H a[:, j]`.
///
/// `a` must have the same number of rows as `1 + v.len()`.
fn apply_householder_left(v: &[f64], tau: f64, mut a: MatMut<'_>) {
    if tau == 0.0 {
        return;
    }
    debug_assert_eq!(a.nrows(), v.len() + 1);
    for j in 0..a.ncols() {
        let col = a.col_mut(j);
        let w = tau * (col[0] + dot(v, &col[1..]));
        col[0] -= w;
        axpy(-w, v, &mut col[1..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
        let mut state = seed | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// Random matrix of numerical rank `r` (plus tiny noise).
    fn low_rank(m: usize, n: usize, r: usize, noise: f64, seed: u64) -> Mat {
        let u = rand_mat(m, r, seed);
        let v = rand_mat(r, n, seed + 1);
        let mut a = matmul(&u, &v);
        let e = rand_mat(m, n, seed + 2);
        for j in 0..n {
            for i in 0..m {
                a[(i, j)] += noise * e[(i, j)];
            }
        }
        a
    }

    #[test]
    fn full_rank_no_truncation() {
        let a = rand_mat(8, 6, 3);
        let f = ColPivQr::factor_truncated(a, 1e-12, usize::MAX);
        assert_eq!(f.rank(), 6);
        // rdiag non-increasing (rank-revealing property).
        for w in f.rdiag().windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12));
        }
    }

    #[test]
    fn detects_numerical_rank() {
        let a = low_rank(40, 30, 5, 1e-12, 7);
        let f = ColPivQr::factor_truncated(a, 1e-8, usize::MAX);
        assert_eq!(f.rank(), 5);
    }

    #[test]
    fn max_rank_caps() {
        let a = rand_mat(20, 20, 11);
        let f = ColPivQr::factor_truncated(a, 0.0, 7);
        assert_eq!(f.rank(), 7);
    }

    #[test]
    fn perm_is_permutation() {
        let a = low_rank(15, 12, 4, 1e-13, 5);
        let f = ColPivQr::factor_truncated(a, 1e-9, usize::MAX);
        let mut seen = [false; 12];
        for &p in f.perm() {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interp_coeffs_reconstruct_columns() {
        // A = A[:, skeleton] * [I, T] P^T up to the truncation tolerance.
        let a = low_rank(30, 18, 6, 0.0, 13);
        let f = ColPivQr::factor_truncated(a.clone(), 1e-10, usize::MAX);
        let s = f.rank();
        assert_eq!(s, 6);
        let skel: Vec<usize> = f.perm()[..s].to_vec();
        let ask = a.select_cols(&skel);
        let t = f.interp_coeffs();
        // Non-skeleton column j (pivot position s + jj) ~= A_skel * t[:, jj].
        let anorm = a.norm_max();
        for jj in 0..18 - s {
            let orig = f.perm()[s + jj];
            let mut rec = vec![0.0; 30];
            let tcol: Vec<f64> = (0..s).map(|i| t[(i, jj)]).collect();
            crate::blas2::gemv(1.0, ask.rb(), &tcol, 0.0, &mut rec);
            for i in 0..30 {
                assert!(
                    (rec[i] - a[(i, orig)]).abs() < 1e-8 * anorm,
                    "col {orig} row {i}: {} vs {}",
                    rec[i],
                    a[(i, orig)]
                );
            }
        }
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let a = Mat::zeros(6, 4);
        let f = ColPivQr::factor_truncated(a, 1e-10, usize::MAX);
        assert_eq!(f.rank(), 0);
    }

    // ------------------------- blocked path --------------------------

    /// Matrix with well-separated singular values `base^k` (known pivot
    /// order up to rounding), dense mixing from random orthogonal-ish
    /// factors.
    fn decaying_spectrum(m: usize, n: usize, base: f64, seed: u64) -> Mat {
        let r = m.min(n);
        let u = rand_mat(m, r, seed);
        let v = rand_mat(r, n, seed + 1);
        let mut a = Mat::zeros(m, n);
        for k in 0..r {
            let s = base.powi(k as i32);
            for j in 0..n {
                for i in 0..m {
                    a[(i, j)] += s * u[(i, k)] * v[(k, j)];
                }
            }
        }
        a
    }

    #[test]
    fn blocked_matches_unblocked_pivots_and_ranks() {
        for &(m, n, seed) in &[(96, 80, 1u64), (128, 128, 2), (80, 120, 3), (200, 64, 4)] {
            let a = decaying_spectrum(m, n, 0.82, seed);
            let fb = ColPivQr::factor_truncated_blocked(a.clone(), 1e-8, usize::MAX);
            let fu = ColPivQr::factor_truncated_unblocked(a, 1e-8, usize::MAX);
            assert_eq!(fb.rank(), fu.rank(), "rank mismatch at {m}x{n}");
            assert_eq!(
                &fb.perm()[..fb.rank()],
                &fu.perm()[..fu.rank()],
                "pivot sequence mismatch at {m}x{n}"
            );
            for (b, u) in fb.rdiag().iter().zip(fu.rdiag()) {
                assert!((b - u).abs() <= 1e-10 * fu.rdiag()[0], "rdiag drift: {b} vs {u}");
            }
        }
    }

    #[test]
    fn blocked_rdiag_monotone() {
        let a = decaying_spectrum(150, 130, 0.9, 11);
        let f = ColPivQr::factor_truncated_blocked(a, 0.0, usize::MAX);
        for w in f.rdiag().windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-10), "rdiag not monotone: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn blocked_reconstructs_within_tol() {
        // A ~= A[:, skeleton] * [I, T] at the truncation tolerance.
        let tol = 1e-6;
        let a = decaying_spectrum(120, 100, 0.5, 21);
        let f = ColPivQr::factor_truncated_blocked(a.clone(), tol, usize::MAX);
        let s = f.rank();
        assert!(s > 0 && s < 100, "expected truncation, got rank {s}");
        let skel: Vec<usize> = f.perm()[..s].to_vec();
        let ask = a.select_cols(&skel);
        let t = f.interp_coeffs();
        let anorm = a.norm_max();
        for jj in 0..100 - s {
            let orig = f.perm()[s + jj];
            let mut rec = vec![0.0; 120];
            let tcol: Vec<f64> = (0..s).map(|i| t[(i, jj)]).collect();
            crate::blas2::gemv(1.0, ask.rb(), &tcol, 0.0, &mut rec);
            for i in 0..120 {
                assert!(
                    (rec[i] - a[(i, orig)]).abs() < 100.0 * tol * anorm,
                    "col {orig} row {i}: {} vs {}",
                    rec[i],
                    a[(i, orig)]
                );
            }
        }
    }

    #[test]
    fn blocked_full_factor_matches_unblocked_r() {
        // With identical pivot sequences, R must agree to rounding on the
        // accepted rows (the stored below-diagonal reflectors may differ
        // in rounding only).
        let a = decaying_spectrum(64, 64, 0.85, 31);
        let fb = ColPivQr::factor_truncated_blocked(a.clone(), 0.0, usize::MAX);
        let fu = ColPivQr::factor_truncated_unblocked(a, 0.0, usize::MAX);
        assert_eq!(fb.perm(), fu.perm());
        let rb = fb.r11();
        let ru = fu.r11();
        let scale = fu.rdiag()[0];
        for j in 0..fb.rank() {
            for i in 0..=j {
                assert!(
                    (rb[(i, j)] - ru[(i, j)]).abs() <= 1e-10 * scale,
                    "R({i},{j}): {} vs {}",
                    rb[(i, j)],
                    ru[(i, j)]
                );
            }
        }
    }

    #[test]
    fn blocked_max_rank_caps_mid_panel() {
        // max_rank not a multiple of NB exercises the short final panel.
        let a = rand_mat(100, 90, 41);
        let f = ColPivQr::factor_truncated_blocked(a, 0.0, 50);
        assert_eq!(f.rank(), 50);
    }

    #[test]
    fn blocked_low_rank_truncates_mid_panel() {
        // Numerical rank far below the panel width: the first panel must
        // stop early and still leave a consistent partial factorization.
        let a = low_rank(90, 70, 9, 1e-13, 51);
        let fb = ColPivQr::factor_truncated_blocked(a.clone(), 1e-8, usize::MAX);
        let fu = ColPivQr::factor_truncated_unblocked(a, 1e-8, usize::MAX);
        assert_eq!(fb.rank(), 9);
        assert_eq!(&fb.perm()[..9], &fu.perm()[..9]);
    }

    #[test]
    fn blocked_zero_matrix_rank_zero() {
        let f = ColPivQr::factor_truncated_blocked(Mat::zeros(64, 64), 1e-10, usize::MAX);
        assert_eq!(f.rank(), 0);
    }

    #[test]
    fn dispatch_threshold() {
        // Above the threshold the dispatcher takes the panel path (the two
        // paths round differently on this matrix, so bit equality with one
        // identifies it)...
        let a = Mat::from_fn(96, 96, |i, j| ((i * 7 + j * 13) as f64 * 0.19).sin());
        let blocked = ColPivQr::factor_truncated_blocked(a.clone(), 0.0, usize::MAX);
        let unblocked = ColPivQr::factor_truncated_unblocked(a.clone(), 0.0, usize::MAX);
        assert_ne!(blocked.tau(), unblocked.tau());
        assert_eq!(ColPivQr::factor_truncated(a, 0.0, usize::MAX).tau(), blocked.tau());
        // ...and below it stays on the BLAS-2 loop.
        let tiny = rand_mat(10, 10, 62);
        let reference = ColPivQr::factor_truncated_unblocked(tiny.clone(), 0.0, usize::MAX);
        assert_eq!(ColPivQr::factor_truncated(tiny, 0.0, usize::MAX).tau(), reference.tau());
    }

    #[test]
    fn householder_annihilates() {
        let mut x = vec![3.0, 4.0, 0.0, 12.0];
        let orig = x.clone();
        let norm = nrm2(&x);
        let tau = make_householder(&mut x);
        // Applying H to the original vector must give (beta, 0, 0, 0).
        let v = x[1..].to_vec();
        let mut m = Mat::from_col_major(4, 1, orig);
        apply_householder_left(&v, tau, m.rb_mut());
        assert!((m[(0, 0)].abs() - norm).abs() < 1e-12);
        for i in 1..4 {
            assert!(m[(i, 0)].abs() < 1e-12);
        }
    }
}
