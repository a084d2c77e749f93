//! Explicit-SIMD microkernels with runtime dispatch (AVX2 + FMA).
//!
//! The paper's single-node performance rests on hand-written AVX2/AVX-512
//! register-tile kernels (GSKS \[24\], BLIS-style GEMM); the scalar
//! `[[f64; NR]; MR]` tiles this repo started with leave an order of
//! magnitude on the table per core. This module provides the explicit
//! vector kernels every hot path bottoms out in:
//!
//! * an `8 x 6` f64 GEMM microkernel ([`dgemm_tile_avx2`]) operating on
//!   MR/NR-packed panels, accumulators held in 12 `ymm` registers and
//!   written straight into column-major `C`;
//! * a fused-summation rank-`d` tile kernel ([`gsks_tile_8x4`]) for the
//!   GSKS engine (8 targets x 4 sources per register tile);
//! * a fused distance filter ([`dist_filter`]) for the neighbor searches:
//!   the same rank-`d` tile with the norms identity and a threshold
//!   compare in registers, one mask word out per 8 queries x candidate;
//! * GEMV ([`dgemv_add_avx2`]) with 4-column blocking so each `y` vector
//!   load amortizes four FMA columns;
//! * dot / axpy vector loops for BLAS-1 ([`dot_avx2`], [`axpy_avx2`]);
//! * a vectorized polynomial `exp` ([`vexp`]) for the Gaussian/Laplacian
//!   kernel transforms (paper §II-D evaluates the kernel inside the
//!   register tile; a scalar `exp` call per element destroys the fusion
//!   win). Accuracy is bounded against [`f64::exp`] — see [`vexp`].
//!
//! # Dispatch
//!
//! Whether the vector kernels run is decided at runtime:
//!
//! * the CPU must report AVX2 **and** FMA (`is_x86_feature_detected!`);
//!   on other targets the portable scalar paths are the implementation
//!   (no unconditional `std::arch::x86_64` imports anywhere);
//! * the `KFDS_SIMD=off` (or `=0`) environment kill-switch — mirroring
//!   `KFDS_WS_POOL` — forces the scalar reference paths, so
//!   pooled/unpooled x simd/scalar can be A/B'd in one binary;
//! * [`set_simd_enabled`] overrides the environment at runtime (used by
//!   the `microkernel` bench and the A/B property tests).
//!
//! # Tolerance model
//!
//! With SIMD off, every consumer takes its pre-existing scalar path and
//! reproduces the previous numerics **bitwise**. With SIMD on, results
//! differ from scalar by reassociation and fused multiply-adds: for a
//! length-`k` reduction the per-element deviation is bounded by
//! `O(k * eps * sum |terms|)` — the property tests in
//! `crates/la/tests/props.rs` assert agreement within that envelope.
//! [`vexp`] deviates from `f64::exp` by at most a few ulp (asserted at
//! `1e-14` relative); inputs below the normal range flush to zero.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// GEMM microkernel register-tile rows.
pub const GEMM_MR: usize = 8;
/// GEMM microkernel register-tile columns.
pub const GEMM_NR: usize = 6;
/// Widest right operand the unpacked skinny GEMM kernel takes: one `zmm`
/// accumulator per column of an 8-row tile, 16 of the 32 registers.
pub const GEMM_SKINNY_N: usize = 16;
/// GSKS tile kernel rows (targets).
pub const GSKS_MR: usize = 8;
/// GSKS tile kernel columns (sources).
pub const GSKS_NR: usize = 4;
/// Rows of one packed query group of [`dist_filter`]: one mask per group
/// and candidate, one bit per row.
pub const DIST_FILTER_MR: usize = 8;

/// Runtime kill-switch so benchmarks and tests can A/B the vector and
/// scalar paths in one process. Defaults to on; `KFDS_SIMD=off` (or `0`)
/// disables.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();

#[inline]
fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if kfds_switches::KFDS_SIMD.is_off() {
            SIMD_ENABLED.store(false, Ordering::Relaxed);
        }
    });
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables the SIMD kernels at runtime (overrides `KFDS_SIMD`).
/// With SIMD off every consumer runs its scalar reference path, which is
/// exactly the pre-SIMD behavior — used by the `microkernel` bench and
/// the scalar-vs-vector property tests to A/B from one binary.
pub fn set_simd_enabled(on: bool) {
    let _ = enabled(); // apply the env default first so it cannot clobber us
    SIMD_ENABLED.store(on, Ordering::Relaxed);
}

/// `true` if this CPU supports the vector kernels (x86-64 with AVX2+FMA).
/// Immutable for the process lifetime — [`active`] implies this, which is
/// what makes capturing the dispatch decision once per call sound.
///
/// Always `false` under Miri: the interpreter does not implement the AVX
/// intrinsics, so the Miri lane checks the scalar paths (where all the
/// raw-pointer/`set_len` reasoning lives) and dispatch stays honest.
pub fn cpu_supported() -> bool {
    if cfg!(miri) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` if the vector kernels are both supported and enabled.
#[inline]
pub fn active() -> bool {
    enabled() && cpu_supported()
}

/// Human-readable list of detected vector features (for perf reports),
/// e.g. `"avx2+fma+avx512f"`; `"none"` when nothing relevant is present.
pub fn detected_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let feats = [
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ];
        let have: Vec<&str> = feats.iter().filter(|(_, h)| *h).map(|(n, _)| *n).collect();
        if have.is_empty() {
            "none".to_string()
        } else {
            have.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// Elementwise `exp` over a slice, in place.
///
/// Dispatches to a 4-wide AVX2 polynomial kernel when [`active`]; falls
/// back to [`f64::exp`] per element otherwise (so `KFDS_SIMD=off` is
/// bitwise the scalar libm path).
///
/// Vector-path accuracy: relative error vs [`f64::exp`] is a few ulp
/// (tested at `1e-14`); inputs below `-708.396` (where `exp` enters the
/// subnormal range) flush to `0.0` (absolute error `< 2.5e-308`); inputs
/// above `709.783` saturate to `+inf`; NaN propagates.
pub fn vexp(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            // SAFETY: active() implies AVX2+FMA support.
            unsafe { x86::vexp_avx2(xs) };
            return;
        }
    }
    for v in xs.iter_mut() {
        *v = v.exp();
    }
}

/// The GSKS rank-`d` register tile: inner products between `GSKS_MR`
/// packed points `xr` (point-major, point `r` at `xr[r*d..(r+1)*d]`) and
/// `GSKS_NR` packed points `yct` stored **dimension-major**
/// (`yct[kk*GSKS_NR + c] = y_c[kk]`), written row-major into `out`
/// (`out[r*GSKS_NR + c] = xr_r . y_c`).
///
/// Correct on every target: uses the AVX2 kernel when [`active`], a
/// portable loop over the same transposed layout otherwise.
///
/// # Panics
/// Panics if `xr` or `yct` are shorter than the tile requires.
pub fn gsks_tile_8x4(xr: &[f64], yct: &[f64], d: usize, out: &mut [f64; GSKS_MR * GSKS_NR]) {
    assert!(xr.len() >= GSKS_MR * d, "gsks_tile_8x4: xr too short");
    assert!(yct.len() >= GSKS_NR * d, "gsks_tile_8x4: yct too short");
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            // SAFETY: bounds asserted above; active() implies AVX2+FMA.
            unsafe { x86::gsks_tile_avx2(xr.as_ptr(), yct.as_ptr(), d, out) };
            return;
        }
    }
    out.fill(0.0);
    for kk in 0..d {
        let yv = &yct[GSKS_NR * kk..GSKS_NR * kk + GSKS_NR];
        for r in 0..GSKS_MR {
            let xv = xr[r * d + kk];
            let orow = &mut out[GSKS_NR * r..GSKS_NR * r + GSKS_NR];
            for (o, &y) in orow.iter_mut().zip(yv) {
                *o += xv * y;
            }
        }
    }
}

/// The GSKS multi-RHS contraction: `W[r, t] += sum_c tile[r, c] * ut[c, t]`
/// for the `GSKS_MR x GSKS_NR` kernel-value tile (row-major) against an
/// `GSKS_NR x nrhs` slice of the **transposed** weight matrix (`ut[c, t]`
/// at `ut[c * nrhs + t]`), accumulating into the row-major `GSKS_MR x nrhs`
/// output chunk `wrows`.
///
/// This is the fused epilogue's hot loop when many right-hand sides share
/// one kernel block (the factorization's `P̂` panels): per tile the
/// `MR x NR` kernel values contract against every RHS, so the work is
/// `MR * NR * nrhs` FMAs — vectorized 4-wide over `t`. Correct on every
/// target: AVX2 kernel when [`active`], portable loop otherwise.
///
/// # Panics
/// Panics if `ut` or `wrows` are shorter than the tile requires.
pub fn gsks_contract_8x4(
    tile: &[f64; GSKS_MR * GSKS_NR],
    ut: &[f64],
    nrhs: usize,
    wrows: &mut [f64],
) {
    assert!(ut.len() >= GSKS_NR * nrhs, "gsks_contract_8x4: ut too short");
    assert!(wrows.len() >= GSKS_MR * nrhs, "gsks_contract_8x4: wrows too short");
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            // SAFETY: bounds asserted above; active() implies AVX2+FMA.
            unsafe {
                x86::gsks_contract_avx2(tile, ut.as_ptr(), nrhs, wrows.as_mut_ptr());
            }
            return;
        }
    }
    for (r, trow) in tile.chunks_exact(GSKS_NR).enumerate() {
        let wrow = &mut wrows[r * nrhs..(r + 1) * nrhs];
        for (c, &kv) in trow.iter().enumerate() {
            let urow = &ut[c * nrhs..c * nrhs + nrhs];
            for (wt, &uv) in wrow.iter_mut().zip(urow) {
                *wt += kv * uv;
            }
        }
    }
}

/// Squared-distance epilogue for GEMM-backed neighbor tiles: turns one
/// column of a Gram block `g[i] = x_i . y` into squared distances via the
/// norms identity `‖x_i − y‖² = ‖x_i‖² + ‖y‖² − 2 x_i . y`, clamped at
/// zero (the expanded form can go negative by cancellation for coincident
/// points). `row_norms[i] = ‖x_i‖²`, `col_norm = ‖y‖²`.
///
/// Dispatches to a 4-wide FMA kernel when [`active`]; the scalar loop is
/// the bitwise reference (`fnmadd` vs `mul_add` agree: both fuse).
///
/// # Panics
/// Panics if `row_norms.len() != g.len()`.
pub fn dist_epilogue(g: &mut [f64], row_norms: &[f64], col_norm: f64) {
    assert_eq!(g.len(), row_norms.len(), "dist_epilogue: norm length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            // SAFETY: lengths asserted equal above; active() implies
            // AVX2+FMA.
            unsafe { x86::dist_epilogue_avx2(g, row_norms, col_norm) };
            return;
        }
    }
    for (gi, &rn) in g.iter_mut().zip(row_norms) {
        *gi = (-2.0f64).mul_add(*gi, rn + col_norm).max(0.0);
    }
}

/// The fused distance **filter** under both neighbor searches: which
/// (query, candidate) pairs have a squared distance that may lie at or
/// under the query's threshold. The rank-`d` Gram update, the norms
/// identity `f = (‖q‖² + ‖c‖²) − 2 q·c` and the comparison all happen in
/// registers — no distance is stored (the GSKS idea of §II-D applied to
/// neighbor selection); the caller re-scores the flagged pairs exactly.
///
/// * Queries come packed in groups of [`DIST_FILTER_MR`] rows,
///   dimension-major inside a group: coordinate `k` of query `8g + r` at
///   `qpack[g·8d + k·8 + r]`, rows past `m` zero. `qn` and `thr` hold the
///   squared norm and the threshold of every packed row (`8·⌈m/8⌉` each).
/// * Candidates are a `d × nc` column-major panel `cand` with squared
///   norms `cn`; `d = cand.len() / cn.len()`.
/// * `masks[g·nc + j]` receives one mask per (group, candidate): bit `r`
///   is set unless `f > thr[8g + r]` for query `8g + r` against candidate
///   `j` — so `thr = +∞` flags every pair, `−∞` none, and a NaN `f`
///   (overflowing coordinates) is flagged rather than dropped. Bits of
///   padding rows are never set.
///
/// Whatever the summation order of the body that runs (AVX-512, AVX2,
/// scalar) and of the dots behind the norms, `f` differs from the scalar
/// `Σ (q_k − c_k)²` loop by at most `2(d + 8)·ε·(‖q‖² + ‖c‖²)`: each norm
/// and the Gram term carry `γ_d ≈ d·ε/2` relative to `‖q‖²`, `‖c‖²` and
/// `‖q‖‖c‖ ≤ (‖q‖² + ‖c‖²)/2`, the two final roundings add `1.5ε`, and the
/// scalar loop itself is within `(d + 2)·ε/2` of `‖q − c‖² ≤ 2(‖q‖² + ‖c‖²)`
/// — `(2d + 3.5)ε` in all. A caller that adds this bound to its thresholds
/// loses no pair.
///
/// # Panics
/// Panics if `cand.len()` is not a multiple of `cn.len()` or a slice is
/// shorter than the layout above requires.
pub fn dist_filter(
    m: usize,
    qpack: &[f64],
    qn: &[f64],
    thr: &[f64],
    cand: &[f64],
    cn: &[f64],
    masks: &mut [usize],
) {
    let nc = cn.len();
    if m == 0 || nc == 0 {
        return;
    }
    let d = cand.len() / nc;
    let rows = m.next_multiple_of(DIST_FILTER_MR);
    assert_eq!(cand.len(), d * nc, "dist_filter: candidate panel is not d x nc");
    assert!(qpack.len() >= rows * d, "dist_filter: qpack too short");
    assert!(qn.len() >= rows && thr.len() >= rows, "dist_filter: norms/thresholds too short");
    assert!(masks.len() >= rows / DIST_FILTER_MR * nc, "dist_filter: masks too short");
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            let (q, c) = (qpack.as_ptr(), cand.as_ptr());
            let (qn, thr, cn, out) = (qn.as_ptr(), thr.as_ptr(), cn.as_ptr(), masks.as_mut_ptr());
            // SAFETY: every length the kernels read or write was asserted
            // above; active() implies AVX2+FMA and the AVX-512 body runs
            // only when the CPU reports avx512f.
            unsafe {
                if avx512_supported() {
                    x86::dist_filter_avx512(d, m, nc, q, qn, thr, c, cn, out);
                } else {
                    x86::dist_filter_avx2(d, m, nc, q, qn, thr, c, cn, out);
                }
            }
            return;
        }
    }
    dist_filter_scalar(m, qpack, qn, thr, cand, cn, masks);
}

/// The portable body of [`dist_filter`] (and its `KFDS_SIMD=off` path):
/// eight running dots per (group, candidate), plain multiply-add.
fn dist_filter_scalar(
    m: usize,
    qpack: &[f64],
    qn: &[f64],
    thr: &[f64],
    cand: &[f64],
    cn: &[f64],
    masks: &mut [usize],
) {
    const MR: usize = DIST_FILTER_MR;
    let nc = cn.len();
    let d = cand.len() / nc.max(1);
    for g in 0..m.div_ceil(MR) {
        let rows = (m - MR * g).min(MR);
        let q = &qpack[g * MR * d..(g + 1) * MR * d];
        let (gn, gt) = (&qn[MR * g..MR * g + rows], &thr[MR * g..MR * g + rows]);
        for j in 0..nc {
            let mut acc = [0.0f64; MR];
            for (qk, &ck) in q.chunks_exact(MR).zip(&cand[j * d..(j + 1) * d]) {
                for (a, &qv) in acc.iter_mut().zip(qk) {
                    *a += qv * ck;
                }
            }
            let mut mask = 0usize;
            for (r, ((&g2, &n2), &t)) in acc.iter().zip(gn).zip(gt).enumerate() {
                let f = (n2 + cn[j]) - 2.0 * g2;
                // "unless f > t", so a NaN is flagged.
                mask |= usize::from(f.partial_cmp(&t) != Some(std::cmp::Ordering::Greater)) << r;
            }
            masks[g * nc + j] = mask;
        }
    }
}

/// `true` if this CPU additionally supports the 8-wide AVX-512 variants
/// (the baseline vector kernels require only AVX2+FMA). Immutable for the
/// process lifetime, like [`cpu_supported`]; gated by the same
/// `KFDS_SIMD` kill-switch through [`active`].
pub fn avx512_supported() -> bool {
    if cfg!(miri) {
        return false; // no AVX-512 intrinsics in the interpreter
    }
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{
    axpy_avx2, dgemm_skinny_avx512, dgemm_tile_avx2, dgemv_add_avx2, dgemv_t_avx2, dgemv_t_avx512,
    dot_avx2,
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// `C[0..8, 0..6] += alpha * sum_k ap[:, k] * bp[k, :]` — the BLIS-style
    /// register-tile microkernel. `ap` is an MR-major packed A panel (8
    /// consecutive rows per `k`), `bp` an NR-major packed B panel (6
    /// consecutive columns per `k`); `C` is column-major with stride `ldc`.
    /// The 12 accumulators live in `ymm` registers for the whole `k` loop;
    /// the epilogue fuses the `alpha` scale into the `C` update.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `ap`/`bp` must hold at least `8*kc` / `6*kc`
    /// readable elements and `c[i + j*ldc]` must be writable for all
    /// `i < 8`, `j < 6`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dgemm_tile_avx2(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
    ) {
        debug_assert!(super::cpu_supported(), "dgemm_tile_avx2 needs AVX2+FMA");
        debug_assert!(!ap.is_null() && !bp.is_null() && !c.is_null());
        debug_assert!(ldc >= 8, "C tile columns (8 rows) would overlap: ldc = {ldc}");
        let mut acc = [[_mm256_setzero_pd(); 2]; 6];
        for k in 0..kc {
            let a0 = _mm256_loadu_pd(ap.add(8 * k));
            let a1 = _mm256_loadu_pd(ap.add(8 * k + 4));
            for (j, accj) in acc.iter_mut().enumerate() {
                let b = _mm256_broadcast_sd(&*bp.add(6 * k + j));
                accj[0] = _mm256_fmadd_pd(a0, b, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, b, accj[1]);
            }
        }
        let va = _mm256_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            let col = c.add(j * ldc);
            let lo = _mm256_loadu_pd(col);
            let hi = _mm256_loadu_pd(col.add(4));
            _mm256_storeu_pd(col, _mm256_fmadd_pd(accj[0], va, lo));
            _mm256_storeu_pd(col.add(4), _mm256_fmadd_pd(accj[1], va, hi));
        }
    }

    /// `Ct += A[0..m, 0..kc] * Bp` for a skinny right operand
    /// (`n <= GEMM_SKINNY_N`), reading `A` in place: column-major with
    /// stride `lda`, never packed. `bp` is the `kc x n` right operand
    /// packed row-major (`bp[k * n + j]`, any `alpha` already folded in).
    /// `ct` is the `m x n` block of `C` packed by 8-row tiles: element
    /// `(i, j)` at `ct[(i / 8) * 8 * n + j * 8 + i % 8]`, rows padded to a
    /// multiple of 8 — one contiguous `8n`-element run per tile, so the
    /// accumulator loads never alias in cache whatever the stride of `C`.
    ///
    /// Each 8-row tile holds its `n` accumulators in `zmm` registers for
    /// the `k` run — loaded from `ct`, one FMA per `k` in ascending order,
    /// stored back — so an element of `C` is a single FMA chain whose bits
    /// depend on neither `n`, the tile it falls in, nor how the caller
    /// blocks `m` and `k`. A last tile of fewer than 8 rows reads `A`
    /// under a lane mask; its padding rows accumulate zeros.
    ///
    /// # Safety
    /// Requires AVX-512F. `1 <= n <= 16`; `a[i + k * lda]` must be
    /// readable for `i < m`, `k < kc`; `bp` must hold `kc * n` elements;
    /// `ct` must hold `m.next_multiple_of(8) * n` writable elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dgemm_skinny_avx512(
        m: usize,
        n: usize,
        kc: usize,
        a: *const f64,
        lda: usize,
        bp: *const f64,
        ct: *mut f64,
    ) {
        debug_assert!(super::avx512_supported(), "dgemm_skinny_avx512 needs AVX-512F");
        debug_assert!((1..=super::GEMM_SKINNY_N).contains(&n), "skinny n out of range: {n}");
        debug_assert!(m == 0 || kc == 0 || (!a.is_null() && !bp.is_null() && !ct.is_null()));
        debug_assert!(lda >= m || kc <= 1, "A columns would overlap: lda = {lda}, m = {m}");
        match n {
            1 => skinny_panel::<1>(m, kc, a, lda, bp, ct),
            2 => skinny_panel::<2>(m, kc, a, lda, bp, ct),
            3 => skinny_panel::<3>(m, kc, a, lda, bp, ct),
            4 => skinny_panel::<4>(m, kc, a, lda, bp, ct),
            5 => skinny_panel::<5>(m, kc, a, lda, bp, ct),
            6 => skinny_panel::<6>(m, kc, a, lda, bp, ct),
            7 => skinny_panel::<7>(m, kc, a, lda, bp, ct),
            8 => skinny_panel::<8>(m, kc, a, lda, bp, ct),
            9 => skinny_panel::<9>(m, kc, a, lda, bp, ct),
            10 => skinny_panel::<10>(m, kc, a, lda, bp, ct),
            11 => skinny_panel::<11>(m, kc, a, lda, bp, ct),
            12 => skinny_panel::<12>(m, kc, a, lda, bp, ct),
            13 => skinny_panel::<13>(m, kc, a, lda, bp, ct),
            14 => skinny_panel::<14>(m, kc, a, lda, bp, ct),
            15 => skinny_panel::<15>(m, kc, a, lda, bp, ct),
            _ => skinny_panel::<16>(m, kc, a, lda, bp, ct),
        }
    }

    /// The `N`-column instantiation of [`dgemm_skinny_avx512`]: walks the
    /// 8-row tiles of the panel, `N` `zmm` accumulators each.
    ///
    /// # Safety
    /// As [`dgemm_skinny_avx512`], with `n == N`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn skinny_panel<const N: usize>(
        m: usize,
        kc: usize,
        a: *const f64,
        lda: usize,
        bp: *const f64,
        ct: *mut f64,
    ) {
        let mut i0 = 0;
        while i0 < m {
            let rows = (m - i0).min(8);
            let mask: __mmask8 = if rows == 8 { 0xff } else { (1u8 << rows) - 1 };
            let at = a.add(i0);
            let tile = ct.add(i0 * N);
            let mut acc = [_mm512_setzero_pd(); N];
            for (j, accj) in acc.iter_mut().enumerate() {
                *accj = _mm512_loadu_pd(tile.add(8 * j));
            }
            for k in 0..kc {
                // The caller's next k block reads these rows kc columns on.
                _mm_prefetch::<_MM_HINT_T0>(at.wrapping_add((k + kc) * lda) as *const i8);
                let av = _mm512_maskz_loadu_pd(mask, at.add(k * lda));
                let bk = bp.add(k * N);
                for (j, accj) in acc.iter_mut().enumerate() {
                    *accj = _mm512_fmadd_pd(av, _mm512_set1_pd(*bk.add(j)), *accj);
                }
            }
            for (j, accj) in acc.iter().enumerate() {
                _mm512_storeu_pd(tile.add(8 * j), *accj);
            }
            i0 += 8;
        }
    }

    /// The GSKS tile kernel: 8 broadcast-FMA rows against one 4-wide
    /// source vector per dimension. See [`super::gsks_tile_8x4`].
    ///
    /// # Safety
    /// Requires AVX2+FMA; `xr` must hold `8*d` and `yct` `4*d` elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gsks_tile_avx2(xr: *const f64, yct: *const f64, d: usize, out: &mut [f64; 32]) {
        debug_assert!(super::cpu_supported(), "gsks_tile_avx2 needs AVX2+FMA");
        debug_assert!(!xr.is_null() && !yct.is_null());
        let mut acc = [_mm256_setzero_pd(); 8];
        for kk in 0..d {
            let yv = _mm256_loadu_pd(yct.add(4 * kk));
            for (r, a) in acc.iter_mut().enumerate() {
                let xv = _mm256_broadcast_sd(&*xr.add(r * d + kk));
                *a = _mm256_fmadd_pd(xv, yv, *a);
            }
        }
        for (r, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(out.as_mut_ptr().add(4 * r), *a);
        }
    }

    /// The GSKS multi-RHS contraction kernel: `W[r, 0..nrhs] +=
    /// tile[r, c] * ut[c, 0..nrhs]` vectorized 4-wide over the RHS index.
    /// Each 4-wide RHS block loads the four `ut` rows once and reuses them
    /// across all eight tile rows. See [`super::gsks_contract_8x4`].
    ///
    /// # Safety
    /// Requires AVX2+FMA; `ut` must hold `4 * nrhs` and `w` `8 * nrhs`
    /// elements (checked by the safe caller).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gsks_contract_avx2(tile: &[f64; 32], ut: *const f64, nrhs: usize, w: *mut f64) {
        debug_assert!(super::cpu_supported(), "gsks_contract_avx2 needs AVX2+FMA");
        debug_assert!(nrhs == 0 || (!ut.is_null() && !w.is_null()));
        let mut t = 0;
        while t + 4 <= nrhs {
            let u0 = _mm256_loadu_pd(ut.add(t));
            let u1 = _mm256_loadu_pd(ut.add(nrhs + t));
            let u2 = _mm256_loadu_pd(ut.add(2 * nrhs + t));
            let u3 = _mm256_loadu_pd(ut.add(3 * nrhs + t));
            for r in 0..8 {
                let wp = w.add(r * nrhs + t);
                let mut acc = _mm256_loadu_pd(wp);
                acc = _mm256_fmadd_pd(_mm256_broadcast_sd(&tile[4 * r]), u0, acc);
                acc = _mm256_fmadd_pd(_mm256_broadcast_sd(&tile[4 * r + 1]), u1, acc);
                acc = _mm256_fmadd_pd(_mm256_broadcast_sd(&tile[4 * r + 2]), u2, acc);
                acc = _mm256_fmadd_pd(_mm256_broadcast_sd(&tile[4 * r + 3]), u3, acc);
                _mm256_storeu_pd(wp, acc);
            }
            t += 4;
        }
        while t < nrhs {
            for r in 0..8 {
                let mut s = *w.add(r * nrhs + t);
                s = tile[4 * r].mul_add(*ut.add(t), s);
                s = tile[4 * r + 1].mul_add(*ut.add(nrhs + t), s);
                s = tile[4 * r + 2].mul_add(*ut.add(2 * nrhs + t), s);
                s = tile[4 * r + 3].mul_add(*ut.add(3 * nrhs + t), s);
                *w.add(r * nrhs + t) = s;
            }
            t += 1;
        }
    }

    /// The distance-tile epilogue: `g[i] = max(rn[i] + cn - 2*g[i], 0)`
    /// vectorized 4-wide (see [`super::dist_epilogue`]). `fnmadd` fuses
    /// exactly like the scalar `mul_add` reference, so both paths agree
    /// bitwise on finite inputs.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `g` and `rn` must have equal lengths (checked by
    /// the safe caller).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dist_epilogue_avx2(g: &mut [f64], rn: &[f64], cn: f64) {
        debug_assert!(super::cpu_supported(), "dist_epilogue_avx2 needs AVX2+FMA");
        debug_assert_eq!(g.len(), rn.len());
        let n = g.len();
        let gp = g.as_mut_ptr();
        let rp = rn.as_ptr();
        let vcn = _mm256_set1_pd(cn);
        let two = _mm256_set1_pd(2.0);
        let zero = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let s = _mm256_add_pd(_mm256_loadu_pd(rp.add(i)), vcn);
            let d = _mm256_fnmadd_pd(_mm256_loadu_pd(gp.add(i)), two, s);
            _mm256_storeu_pd(gp.add(i), _mm256_max_pd(d, zero));
            i += 4;
        }
        while i < n {
            *gp.add(i) = (-2.0f64).mul_add(*gp.add(i), *rp.add(i) + cn).max(0.0);
            i += 1;
        }
    }

    /// Lanes of query group `g` that hold one of the `m` real queries.
    #[inline]
    fn filter_valid_lanes(m: usize, g: usize) -> u8 {
        let rows = (m - 8 * g).min(8);
        if rows == 8 {
            0xff
        } else {
            (1u8 << rows) - 1
        }
    }

    /// AVX-512 body of [`super::dist_filter`]: a `16 x 4` register tile —
    /// two packed query groups against four candidates, eight `zmm` Gram
    /// accumulators — swept over the candidates with the query tile
    /// resident; an odd last group runs as an `8 x 4` tile and leftover
    /// candidates one column at a time. The epilogue forms
    /// `(qn + cn) − 2g` with one `fnmadd` and turns the compare mask
    /// straight into the output word.
    ///
    /// # Safety
    /// Requires AVX-512F. With `groups = ceil(m / 8)`: `qpack` must hold
    /// `groups * 8 * d` elements, `qn` and `thr` `groups * 8`, `cand`
    /// `d * nc`, `cn` `nc`, and `masks` `groups * nc` writable words.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dist_filter_avx512(
        d: usize,
        m: usize,
        nc: usize,
        qpack: *const f64,
        qn: *const f64,
        thr: *const f64,
        cand: *const f64,
        cn: *const f64,
        masks: *mut usize,
    ) {
        debug_assert!(super::avx512_supported(), "dist_filter_avx512 needs AVX-512F");
        debug_assert!(!qpack.is_null() && !qn.is_null() && !thr.is_null());
        debug_assert!(!cand.is_null() && !cn.is_null() && !masks.is_null());
        let groups = m.div_ceil(8);
        let mut g = 0;
        while g + 2 <= groups {
            filter_sweep_avx512::<2>(d, m, g, nc, qpack, qn, thr, cand, cn, masks);
            g += 2;
        }
        if g < groups {
            filter_sweep_avx512::<1>(d, m, g, nc, qpack, qn, thr, cand, cn, masks);
        }
    }

    /// Query groups `g .. g + MG` of [`dist_filter_avx512`] against every
    /// candidate, four at a time and then singly.
    ///
    /// # Safety
    /// As [`dist_filter_avx512`], with `g + MG <= ceil(m / 8)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn filter_sweep_avx512<const MG: usize>(
        d: usize,
        m: usize,
        g: usize,
        nc: usize,
        qpack: *const f64,
        qn: *const f64,
        thr: *const f64,
        cand: *const f64,
        cn: *const f64,
        masks: *mut usize,
    ) {
        let (q, gn, gt) = (qpack.add(8 * g * d), qn.add(8 * g), thr.add(8 * g));
        let out = masks.add(g * nc);
        let mut valid = [0u8; MG];
        for (gi, v) in valid.iter_mut().enumerate() {
            *v = filter_valid_lanes(m, g + gi);
        }
        let mut j = 0;
        while j + 4 <= nc {
            let (c, n) = (cand.add(j * d), cn.add(j));
            filter_tile_avx512::<MG, 4>(d, nc, q, gn, gt, valid, c, n, out.add(j));
            j += 4;
        }
        while j < nc {
            let (c, n) = (cand.add(j * d), cn.add(j));
            filter_tile_avx512::<MG, 1>(d, nc, q, gn, gt, valid, c, n, out.add(j));
            j += 1;
        }
    }

    /// One `8·MG x NR` tile of [`dist_filter_avx512`]: `q`, `qn`, `thr`
    /// point at the first of `MG` consecutive query groups, `c` / `cn` at
    /// the first of `NR` candidates, `out` at that candidate's word in the
    /// first group's mask row (rows are `nc` apart).
    ///
    /// # Safety
    /// As [`dist_filter_avx512`], restricted to this tile.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn filter_tile_avx512<const MG: usize, const NR: usize>(
        d: usize,
        nc: usize,
        q: *const f64,
        qn: *const f64,
        thr: *const f64,
        valid: [u8; MG],
        c: *const f64,
        cn: *const f64,
        out: *mut usize,
    ) {
        let mut acc = [[_mm512_setzero_pd(); NR]; MG];
        for k in 0..d {
            let mut a = [_mm512_setzero_pd(); MG];
            for (gi, av) in a.iter_mut().enumerate() {
                *av = _mm512_loadu_pd(q.add(8 * (gi * d + k)));
            }
            for j in 0..NR {
                let b = _mm512_set1_pd(*c.add(j * d + k));
                for (accg, av) in acc.iter_mut().zip(a) {
                    accg[j] = _mm512_fmadd_pd(av, b, accg[j]);
                }
            }
        }
        let two = _mm512_set1_pd(2.0);
        for (gi, accg) in acc.iter().enumerate() {
            let vqn = _mm512_loadu_pd(qn.add(8 * gi));
            let vthr = _mm512_loadu_pd(thr.add(8 * gi));
            for (j, g2) in accg.iter().enumerate() {
                let s = _mm512_add_pd(vqn, _mm512_set1_pd(*cn.add(j)));
                let f = _mm512_fnmadd_pd(*g2, two, s);
                // Not-greater-than, unordered true: a NaN is flagged.
                let hit = _mm512_cmp_pd_mask::<_CMP_NGT_UQ>(f, vthr);
                *out.add(gi * nc + j) = usize::from(hit & valid[gi]);
            }
        }
    }

    /// AVX2 body of [`super::dist_filter`]: an `8 x 4` register tile — one
    /// packed query group as two `ymm` halves against four candidates,
    /// eight accumulators — with the same sweep and epilogue as
    /// [`dist_filter_avx512`]; the two 4-bit `movemask`s of a column join
    /// into the output word.
    ///
    /// # Safety
    /// Requires AVX2+FMA. Same layout contract as [`dist_filter_avx512`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dist_filter_avx2(
        d: usize,
        m: usize,
        nc: usize,
        qpack: *const f64,
        qn: *const f64,
        thr: *const f64,
        cand: *const f64,
        cn: *const f64,
        masks: *mut usize,
    ) {
        debug_assert!(super::cpu_supported(), "dist_filter_avx2 needs AVX2+FMA");
        debug_assert!(!qpack.is_null() && !qn.is_null() && !thr.is_null());
        debug_assert!(!cand.is_null() && !cn.is_null() && !masks.is_null());
        for g in 0..m.div_ceil(8) {
            let (q, gn, gt) = (qpack.add(8 * g * d), qn.add(8 * g), thr.add(8 * g));
            let valid = filter_valid_lanes(m, g);
            let out = masks.add(g * nc);
            let mut j = 0;
            while j + 4 <= nc {
                filter_tile_avx2::<4>(d, q, gn, gt, valid, cand.add(j * d), cn.add(j), out.add(j));
                j += 4;
            }
            while j < nc {
                filter_tile_avx2::<1>(d, q, gn, gt, valid, cand.add(j * d), cn.add(j), out.add(j));
                j += 1;
            }
        }
    }

    /// One `8 x NR` tile of [`dist_filter_avx2`].
    ///
    /// # Safety
    /// As [`dist_filter_avx2`], restricted to this tile.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn filter_tile_avx2<const NR: usize>(
        d: usize,
        q: *const f64,
        qn: *const f64,
        thr: *const f64,
        valid: u8,
        c: *const f64,
        cn: *const f64,
        out: *mut usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; NR];
        for k in 0..d {
            let a0 = _mm256_loadu_pd(q.add(8 * k));
            let a1 = _mm256_loadu_pd(q.add(8 * k + 4));
            for (j, accj) in acc.iter_mut().enumerate() {
                let b = _mm256_broadcast_sd(&*c.add(j * d + k));
                accj[0] = _mm256_fmadd_pd(a0, b, accj[0]);
                accj[1] = _mm256_fmadd_pd(a1, b, accj[1]);
            }
        }
        let two = _mm256_set1_pd(2.0);
        let (qn0, qn1) = (_mm256_loadu_pd(qn), _mm256_loadu_pd(qn.add(4)));
        let (thr0, thr1) = (_mm256_loadu_pd(thr), _mm256_loadu_pd(thr.add(4)));
        for (j, accj) in acc.iter().enumerate() {
            let vcn = _mm256_broadcast_sd(&*cn.add(j));
            let f0 = _mm256_fnmadd_pd(accj[0], two, _mm256_add_pd(qn0, vcn));
            let f1 = _mm256_fnmadd_pd(accj[1], two, _mm256_add_pd(qn1, vcn));
            // Not-greater-than, unordered true: a NaN is flagged.
            let lo = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGT_UQ>(f0, thr0));
            let hi = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGT_UQ>(f1, thr1));
            *out.add(j) = usize::from((lo | hi << 4) as u8 & valid);
        }
    }

    /// Vector dot product with four independent FMA accumulators.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `x` and `y` must have equal lengths (checked by
    /// the safe caller in `blas1`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            a0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), a0);
            a1 =
                _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i + 4)), _mm256_loadu_pd(yp.add(i + 4)), a1);
            a2 =
                _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i + 8)), _mm256_loadu_pd(yp.add(i + 8)), a2);
            a3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 12)),
                _mm256_loadu_pd(yp.add(i + 12)),
                a3,
            );
            i += 16;
        }
        while i + 4 <= n {
            a0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), a0);
            i += 4;
        }
        let t = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
        let lo = _mm256_castpd256_pd128(t);
        let hi = _mm256_extractf128_pd(t, 1);
        let q = _mm_add_pd(lo, hi);
        let mut s = _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
        while i < n {
            s += *xp.add(i) * *yp.add(i);
            i += 1;
        }
        s
    }

    /// `y += alpha * x` with FMA.
    ///
    /// # Safety
    /// Requires AVX2+FMA. Lengths must match (checked by the safe caller).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let va = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 =
                _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i + 4)), _mm256_loadu_pd(yp.add(i + 4)));
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        while i + 4 <= n {
            let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) += alpha * *xp.add(i);
            i += 1;
        }
    }

    /// `y += alpha * A * x` for column-major `A` (`m x n`, stride `lda`),
    /// blocked four columns at a time so each load of `y` amortizes four
    /// column FMAs.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `a` must expose `lda*(n-1)+m` elements, `x` at
    /// least `n`, `y` at least `m`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dgemv_add_avx2(
        m: usize,
        n: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        x: *const f64,
        y: *mut f64,
    ) {
        debug_assert!(super::cpu_supported(), "dgemv_add_avx2 needs AVX2+FMA");
        debug_assert!(lda >= m || n <= 1, "A columns would overlap: lda = {lda}, m = {m}");
        debug_assert!(n == 0 || m == 0 || (!a.is_null() && !x.is_null() && !y.is_null()));
        let mut j = 0;
        while j + 4 <= n {
            let x0 = _mm256_set1_pd(alpha * *x.add(j));
            let x1 = _mm256_set1_pd(alpha * *x.add(j + 1));
            let x2 = _mm256_set1_pd(alpha * *x.add(j + 2));
            let x3 = _mm256_set1_pd(alpha * *x.add(j + 3));
            let c0 = a.add(j * lda);
            let c1 = a.add((j + 1) * lda);
            let c2 = a.add((j + 2) * lda);
            let c3 = a.add((j + 3) * lda);
            let mut i = 0;
            while i + 4 <= m {
                let mut v = _mm256_loadu_pd(y.add(i));
                v = _mm256_fmadd_pd(_mm256_loadu_pd(c0.add(i)), x0, v);
                v = _mm256_fmadd_pd(_mm256_loadu_pd(c1.add(i)), x1, v);
                v = _mm256_fmadd_pd(_mm256_loadu_pd(c2.add(i)), x2, v);
                v = _mm256_fmadd_pd(_mm256_loadu_pd(c3.add(i)), x3, v);
                _mm256_storeu_pd(y.add(i), v);
                i += 4;
            }
            while i < m {
                *y.add(i) += _mm256_cvtsd_f64(x0) * *c0.add(i)
                    + _mm256_cvtsd_f64(x1) * *c1.add(i)
                    + _mm256_cvtsd_f64(x2) * *c2.add(i)
                    + _mm256_cvtsd_f64(x3) * *c3.add(i);
                i += 1;
            }
            j += 4;
        }
        while j < n {
            let xa = alpha * *x.add(j);
            let va = _mm256_set1_pd(xa);
            let col = a.add(j * lda);
            let mut i = 0;
            while i + 4 <= m {
                let v = _mm256_fmadd_pd(va, _mm256_loadu_pd(col.add(i)), _mm256_loadu_pd(y.add(i)));
                _mm256_storeu_pd(y.add(i), v);
                i += 4;
            }
            while i < m {
                *y.add(i) += xa * *col.add(i);
                i += 1;
            }
            j += 1;
        }
    }

    /// AVX-512 variant of [`dgemv_t_avx2`]: same 4-column blocking with
    /// two accumulators per column, but 8-wide lanes (16 rows per
    /// iteration). Selected when the CPU additionally reports `avx512f`.
    ///
    /// # Safety
    /// Requires AVX-512F. Same layout contract as [`dgemv_t_avx2`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dgemv_t_avx512(
        m: usize,
        n: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        x: *const f64,
        y: *mut f64,
    ) {
        debug_assert!(super::avx512_supported(), "dgemv_t_avx512 needs AVX-512F");
        debug_assert!(lda >= m || n <= 1, "A columns would overlap: lda = {lda}, m = {m}");
        debug_assert!(n == 0 || m == 0 || (!a.is_null() && !x.is_null() && !y.is_null()));
        let mut j = 0;
        while j + 4 <= n {
            let c0 = a.add(j * lda);
            let c1 = a.add((j + 1) * lda);
            let c2 = a.add((j + 2) * lda);
            let c3 = a.add((j + 3) * lda);
            let mut s00 = _mm512_setzero_pd();
            let mut s01 = _mm512_setzero_pd();
            let mut s10 = _mm512_setzero_pd();
            let mut s11 = _mm512_setzero_pd();
            let mut s20 = _mm512_setzero_pd();
            let mut s21 = _mm512_setzero_pd();
            let mut s30 = _mm512_setzero_pd();
            let mut s31 = _mm512_setzero_pd();
            let mut i = 0;
            while i + 16 <= m {
                let x0 = _mm512_loadu_pd(x.add(i));
                let x1 = _mm512_loadu_pd(x.add(i + 8));
                s00 = _mm512_fmadd_pd(_mm512_loadu_pd(c0.add(i)), x0, s00);
                s01 = _mm512_fmadd_pd(_mm512_loadu_pd(c0.add(i + 8)), x1, s01);
                s10 = _mm512_fmadd_pd(_mm512_loadu_pd(c1.add(i)), x0, s10);
                s11 = _mm512_fmadd_pd(_mm512_loadu_pd(c1.add(i + 8)), x1, s11);
                s20 = _mm512_fmadd_pd(_mm512_loadu_pd(c2.add(i)), x0, s20);
                s21 = _mm512_fmadd_pd(_mm512_loadu_pd(c2.add(i + 8)), x1, s21);
                s30 = _mm512_fmadd_pd(_mm512_loadu_pd(c3.add(i)), x0, s30);
                s31 = _mm512_fmadd_pd(_mm512_loadu_pd(c3.add(i + 8)), x1, s31);
                i += 16;
            }
            if i + 8 <= m {
                let x0 = _mm512_loadu_pd(x.add(i));
                s00 = _mm512_fmadd_pd(_mm512_loadu_pd(c0.add(i)), x0, s00);
                s10 = _mm512_fmadd_pd(_mm512_loadu_pd(c1.add(i)), x0, s10);
                s20 = _mm512_fmadd_pd(_mm512_loadu_pd(c2.add(i)), x0, s20);
                s30 = _mm512_fmadd_pd(_mm512_loadu_pd(c3.add(i)), x0, s30);
                i += 8;
            }
            let mut d0 = _mm512_reduce_add_pd(_mm512_add_pd(s00, s01));
            let mut d1 = _mm512_reduce_add_pd(_mm512_add_pd(s10, s11));
            let mut d2 = _mm512_reduce_add_pd(_mm512_add_pd(s20, s21));
            let mut d3 = _mm512_reduce_add_pd(_mm512_add_pd(s30, s31));
            while i < m {
                let xv = *x.add(i);
                d0 += *c0.add(i) * xv;
                d1 += *c1.add(i) * xv;
                d2 += *c2.add(i) * xv;
                d3 += *c3.add(i) * xv;
                i += 1;
            }
            *y.add(j) = alpha * d0;
            *y.add(j + 1) = alpha * d1;
            *y.add(j + 2) = alpha * d2;
            *y.add(j + 3) = alpha * d3;
            j += 4;
        }
        while j < n {
            let col = a.add(j * lda);
            let mut s0 = _mm512_setzero_pd();
            let mut i = 0;
            while i + 8 <= m {
                s0 = _mm512_fmadd_pd(_mm512_loadu_pd(col.add(i)), _mm512_loadu_pd(x.add(i)), s0);
                i += 8;
            }
            let mut d = _mm512_reduce_add_pd(s0);
            while i < m {
                d += *col.add(i) * *x.add(i);
                i += 1;
            }
            *y.add(j) = alpha * d;
            j += 1;
        }
    }

    /// `y[j] = alpha * dot(A[:, j], x)` for column-major `A` (`m x n`,
    /// stride `lda`), four columns per pass with two FMA accumulators per
    /// column — eight independent chains, and each load of `x` amortizes
    /// four column streams. This is the transpose counterpart of
    /// [`dgemv_add_avx2`]: the per-pivot `F` accumulation of the blocked
    /// CPQR is wall-to-wall these products.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `a` must expose `lda*(n-1)+m` elements, `x` at
    /// least `m`, `y` at least `n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dgemv_t_avx2(
        m: usize,
        n: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        x: *const f64,
        y: *mut f64,
    ) {
        debug_assert!(super::cpu_supported(), "dgemv_t_avx2 needs AVX2+FMA");
        debug_assert!(lda >= m || n <= 1, "A columns would overlap: lda = {lda}, m = {m}");
        debug_assert!(n == 0 || m == 0 || (!a.is_null() && !x.is_null() && !y.is_null()));
        let mut j = 0;
        while j + 4 <= n {
            let c0 = a.add(j * lda);
            let c1 = a.add((j + 1) * lda);
            let c2 = a.add((j + 2) * lda);
            let c3 = a.add((j + 3) * lda);
            let mut s00 = _mm256_setzero_pd();
            let mut s01 = _mm256_setzero_pd();
            let mut s10 = _mm256_setzero_pd();
            let mut s11 = _mm256_setzero_pd();
            let mut s20 = _mm256_setzero_pd();
            let mut s21 = _mm256_setzero_pd();
            let mut s30 = _mm256_setzero_pd();
            let mut s31 = _mm256_setzero_pd();
            let mut i = 0;
            while i + 8 <= m {
                let x0 = _mm256_loadu_pd(x.add(i));
                let x1 = _mm256_loadu_pd(x.add(i + 4));
                s00 = _mm256_fmadd_pd(_mm256_loadu_pd(c0.add(i)), x0, s00);
                s01 = _mm256_fmadd_pd(_mm256_loadu_pd(c0.add(i + 4)), x1, s01);
                s10 = _mm256_fmadd_pd(_mm256_loadu_pd(c1.add(i)), x0, s10);
                s11 = _mm256_fmadd_pd(_mm256_loadu_pd(c1.add(i + 4)), x1, s11);
                s20 = _mm256_fmadd_pd(_mm256_loadu_pd(c2.add(i)), x0, s20);
                s21 = _mm256_fmadd_pd(_mm256_loadu_pd(c2.add(i + 4)), x1, s21);
                s30 = _mm256_fmadd_pd(_mm256_loadu_pd(c3.add(i)), x0, s30);
                s31 = _mm256_fmadd_pd(_mm256_loadu_pd(c3.add(i + 4)), x1, s31);
                i += 8;
            }
            if i + 4 <= m {
                let x0 = _mm256_loadu_pd(x.add(i));
                s00 = _mm256_fmadd_pd(_mm256_loadu_pd(c0.add(i)), x0, s00);
                s10 = _mm256_fmadd_pd(_mm256_loadu_pd(c1.add(i)), x0, s10);
                s20 = _mm256_fmadd_pd(_mm256_loadu_pd(c2.add(i)), x0, s20);
                s30 = _mm256_fmadd_pd(_mm256_loadu_pd(c3.add(i)), x0, s30);
                i += 4;
            }
            let hsum = |v: __m256d| -> f64 {
                let lo = _mm256_castpd256_pd128(v);
                let hi = _mm256_extractf128_pd(v, 1);
                let q = _mm_add_pd(lo, hi);
                _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)))
            };
            let mut d0 = hsum(_mm256_add_pd(s00, s01));
            let mut d1 = hsum(_mm256_add_pd(s10, s11));
            let mut d2 = hsum(_mm256_add_pd(s20, s21));
            let mut d3 = hsum(_mm256_add_pd(s30, s31));
            while i < m {
                let xv = *x.add(i);
                d0 += *c0.add(i) * xv;
                d1 += *c1.add(i) * xv;
                d2 += *c2.add(i) * xv;
                d3 += *c3.add(i) * xv;
                i += 1;
            }
            *y.add(j) = alpha * d0;
            *y.add(j + 1) = alpha * d1;
            *y.add(j + 2) = alpha * d2;
            *y.add(j + 3) = alpha * d3;
            j += 4;
        }
        while j < n {
            let col = std::slice::from_raw_parts(a.add(j * lda), m);
            let xs = std::slice::from_raw_parts(x, m);
            *y.add(j) = alpha * dot_avx2(col, xs);
            j += 1;
        }
    }

    /// In-place vectorized `exp` (see [`super::vexp`] for the contract).
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn vexp_avx2(xs: &mut [f64]) {
        debug_assert!(super::cpu_supported(), "vexp_avx2 needs AVX2+FMA");
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= n {
            _mm256_storeu_pd(p.add(i), exp4(_mm256_loadu_pd(p.add(i))));
            i += 4;
        }
        if i < n {
            let mut buf = [0.0f64; 4];
            buf[..n - i].copy_from_slice(&xs[i..]);
            _mm256_storeu_pd(buf.as_mut_ptr(), exp4(_mm256_loadu_pd(buf.as_ptr())));
            xs[i..].copy_from_slice(&buf[..n - i]);
        }
    }

    /// Largest input for which `exp` is finite.
    const EXP_HI: f64 = 709.782712893384;
    /// Smallest input for which `exp` is a normal double; below this the
    /// kernel flushes to zero (absolute error < 2.5e-308).
    const EXP_LO: f64 = -708.396418532264;
    /// Cody–Waite split of ln 2 for the argument reduction.
    const LN2_HI: f64 = 6.931471803691238e-1;
    const LN2_LO: f64 = 1.9082149292705877e-10;
    /// `1.5 * 2^52` — the round-to-int magic constant: for |n| < 2^51 the
    /// low mantissa bits of `n + MAGIC` hold `n` as a two's-complement
    /// integer.
    const MAGIC: f64 = 6755399441055744.0;

    /// 4-wide `exp`: round-to-nearest power-of-two argument reduction
    /// `x = n ln2 + r`, |r| <= ln2/2, degree-13 Taylor polynomial (Horner,
    /// truncation error < 1e-17 relative), and exponent reconstruction via
    /// integer bit manipulation.
    ///
    /// # Safety
    /// `#[target_feature]`: the caller must have verified AVX2 + FMA CPU
    /// support (all callers are themselves gated behind `cpu_supported`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp4(x: __m256d) -> __m256d {
        let n = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(x, _mm256_set1_pd(std::f64::consts::LOG2_E)),
        );
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(LN2_HI), x);
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(LN2_LO), r);
        // Taylor coefficients 1/k!, k = 13 down to 0.
        let mut p = _mm256_set1_pd(1.6059043836821613e-10);
        for c in [
            2.08767569878681e-9,
            2.505210838544172e-8,
            2.755731922398589e-7,
            2.755731922398589e-6,
            2.48015873015873e-5,
            1.984126984126984e-4,
            1.388888888888889e-3,
            8.333333333333333e-3,
            4.1666666666666664e-2,
            1.6666666666666666e-1,
            0.5,
            1.0,
            1.0,
        ] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c));
        }
        // 2^n in two steps, n = n1 + n2 with n1 ~ n/2: near the overflow
        // end n reaches 1024 (e.g. x = 709.5: exp(x) finite but 2^1024 is
        // not representable), so a single exponent insertion would saturate
        // to inf early. Each half stays comfortably inside the exponent
        // range. Bit trick per half: bits(ni + MAGIC) - bits(MAGIC) == ni.
        let magic_bits = MAGIC.to_bits() as i64;
        let n1 = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(n, _mm256_set1_pd(0.5)),
        );
        let n2 = _mm256_sub_pd(n, n1);
        let pow2_half = |ni: __m256d| {
            let nb = _mm256_castpd_si256(_mm256_add_pd(ni, _mm256_set1_pd(MAGIC)));
            let expo = _mm256_add_epi64(nb, _mm256_set1_epi64x(1023 - magic_bits));
            _mm256_castsi256_pd(_mm256_slli_epi64::<52>(expo))
        };
        let res = _mm256_mul_pd(_mm256_mul_pd(p, pow2_half(n1)), pow2_half(n2));
        // Range ends and NaN: flush deep-negative to 0, saturate to +inf,
        // propagate NaN (applied last so it wins).
        let res = _mm256_blendv_pd(
            res,
            _mm256_setzero_pd(),
            _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(EXP_LO)),
        );
        let res = _mm256_blendv_pd(
            res,
            _mm256_set1_pd(f64::INFINITY),
            _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(EXP_HI)),
        );
        _mm256_blendv_pd(res, x, _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_flags() {
        // Only this test flips the switch in this binary, so `before` is
        // the default: on whenever the CPU has the kernels, unless
        // KFDS_SIMD opts out.
        let before = active();
        assert_eq!(before, cpu_supported() && !kfds_switches::KFDS_SIMD.is_off());
        // The override wins over the default/env; cpu_supported is fixed.
        set_simd_enabled(false);
        assert!(!active());
        set_simd_enabled(true);
        assert_eq!(active(), cpu_supported());
        set_simd_enabled(before || cpu_supported());
        let feats = detected_features();
        assert!(!feats.is_empty());
    }

    #[test]
    fn vexp_matches_std_exp() {
        // Deterministic sweep over the argument ranges the kernels produce
        // (Gaussian: non-positive; general: both signs), plus tile-odd
        // lengths to exercise the masked tail.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut xs: Vec<f64> = (0..1021)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 1400.0 - 700.0
            })
            .collect();
        let want: Vec<f64> = xs.iter().map(|v| v.exp()).collect();
        vexp(&mut xs);
        for (i, (got, want)) in xs.iter().zip(&want).enumerate() {
            assert!(
                (got - want).abs() <= 1e-14 * want.abs(),
                "element {i}: {got} vs {want} (rel {})",
                (got - want).abs() / want.abs()
            );
        }
    }

    #[test]
    fn vexp_special_values() {
        let mut xs = [0.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -1000.0, 1000.0, -710.0];
        vexp(&mut xs);
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[1], 0.0);
        assert_eq!(xs[2], f64::INFINITY);
        assert!(xs[3].is_nan());
        assert_eq!(xs[4], 0.0);
        assert_eq!(xs[5], f64::INFINITY);
        // Subnormal range flushes to zero in the vector path; scalar path
        // returns the subnormal. Either way the absolute error is tiny.
        assert!(xs[6].abs() < 2.5e-308);
    }

    #[test]
    fn dist_epilogue_matches_scalar_and_clamps() {
        // Odd length exercises the vector tail; the coincident pair (g =
        // rn = cn) exercises the clamp.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        };
        for n in [1usize, 4, 7, 33] {
            let g0: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let rn: Vec<f64> = (0..n).map(|_| rnd().abs() + 1.0).collect();
            let cn = 1.75;
            let mut g = g0.clone();
            dist_epilogue(&mut g, &rn, cn);
            for i in 0..n {
                let want = (-2.0f64).mul_add(g0[i], rn[i] + cn).max(0.0);
                assert_eq!(g[i], want, "n={n} i={i}");
                assert!(g[i] >= 0.0);
            }
        }
        // Exact cancellation: ‖x‖² + ‖x‖² − 2 x·x clamps to zero.
        let mut g = [3.0];
        dist_epilogue(&mut g, &[3.0], 3.0);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn gsks_tile_matches_naive_both_paths() {
        for d in [1usize, 2, 3, 7, 16] {
            let xr: Vec<f64> =
                (0..GSKS_MR * d).map(|i| ((i * 13 % 29) as f64) * 0.3 - 2.0).collect();
            // Dimension-major packed sources.
            let ys: Vec<Vec<f64>> = (0..GSKS_NR)
                .map(|c| (0..d).map(|k| ((c * 7 + k * 3) % 11) as f64 * 0.5 - 1.0).collect())
                .collect();
            let mut yct = vec![0.0; GSKS_NR * d];
            for (c, y) in ys.iter().enumerate() {
                for (k, &v) in y.iter().enumerate() {
                    yct[k * GSKS_NR + c] = v;
                }
            }
            let mut out = [0.0f64; GSKS_MR * GSKS_NR];
            gsks_tile_8x4(&xr, &yct, d, &mut out);
            for r in 0..GSKS_MR {
                for c in 0..GSKS_NR {
                    let want: f64 = (0..d).map(|k| xr[r * d + k] * ys[c][k]).sum();
                    assert!(
                        (out[r * GSKS_NR + c] - want).abs() < 1e-12 * (1.0 + want.abs()),
                        "d={d} ({r},{c}): {} vs {want}",
                        out[r * GSKS_NR + c]
                    );
                }
            }
        }
    }

    /// One filter problem: `m` queries against `nc` candidates in `d`
    /// dimensions, coordinates uniform in `shift ± scale`, packed the way
    /// [`dist_filter`] wants them, with the exact-side reference beside it.
    struct FilterCase {
        m: usize,
        d: usize,
        nc: usize,
        qpack: Vec<f64>,
        qn: Vec<f64>,
        cand: Vec<f64>,
        cn: Vec<f64>,
        /// `reference[i * nc + j]`: the scalar `Σ (q_k − c_k)²` loop.
        reference: Vec<f64>,
    }

    impl FilterCase {
        fn new(m: usize, d: usize, nc: usize, scale: f64, shift: f64, seed: u64) -> Self {
            let mut state = seed | 1;
            let mut rnd = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) * scale + shift
            };
            let q: Vec<f64> = (0..m * d).map(|_| rnd()).collect();
            let cand: Vec<f64> = (0..nc * d).map(|_| rnd()).collect();
            let rows = m.next_multiple_of(DIST_FILTER_MR);
            let mut qpack = vec![0.0; rows * d];
            let mut qn = vec![0.0; rows];
            for i in 0..m {
                let (g, r) = (i / DIST_FILTER_MR, i % DIST_FILTER_MR);
                for k in 0..d {
                    qpack[(g * d + k) * DIST_FILTER_MR + r] = q[i * d + k];
                }
                qn[i] = q[i * d..(i + 1) * d].iter().map(|v| v * v).sum();
            }
            let cn: Vec<f64> = cand.chunks(d).map(|c| c.iter().map(|v| v * v).sum()).collect();
            let mut reference = vec![0.0; m * nc];
            for i in 0..m {
                for j in 0..nc {
                    let mut s = 0.0;
                    for k in 0..d {
                        let diff = q[i * d + k] - cand[j * d + k];
                        s += diff * diff;
                    }
                    reference[i * nc + j] = s;
                }
            }
            FilterCase { m, d, nc, qpack, qn, cand, cn, reference }
        }

        /// The documented bound on |filter distance − reference|.
        fn bound(&self, i: usize, j: usize) -> f64 {
            2.0 * (self.d as f64 + 8.0) * f64::EPSILON * (self.qn[i] + self.cn[j])
        }

        /// Masks of one body under per-query thresholds `thr` (length `m`).
        fn run(&self, body: &str, thr: &[f64]) -> Vec<usize> {
            let rows = self.m.next_multiple_of(DIST_FILTER_MR);
            let mut t = vec![f64::NEG_INFINITY; rows];
            t[..self.m].copy_from_slice(thr);
            // Poisoned, so a word the body fails to write is seen.
            let mut masks = vec![usize::MAX; rows / DIST_FILTER_MR * self.nc];
            let (m, d, nc) = (self.m, self.d, self.nc);
            match body {
                "scalar" => dist_filter_scalar(
                    m,
                    &self.qpack,
                    &self.qn,
                    &t,
                    &self.cand,
                    &self.cn,
                    &mut masks,
                ),
                "wrapper" => {
                    dist_filter(m, &self.qpack, &self.qn, &t, &self.cand, &self.cn, &mut masks)
                }
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the buffers were sized to the layout contract just
                // above; `filter_bodies` lists a vector body only when the
                // CPU supports it.
                "avx2" => unsafe {
                    x86::dist_filter_avx2(
                        d,
                        m,
                        nc,
                        self.qpack.as_ptr(),
                        self.qn.as_ptr(),
                        t.as_ptr(),
                        self.cand.as_ptr(),
                        self.cn.as_ptr(),
                        masks.as_mut_ptr(),
                    )
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as for the AVX2 body.
                "avx512" => unsafe {
                    x86::dist_filter_avx512(
                        d,
                        m,
                        nc,
                        self.qpack.as_ptr(),
                        self.qn.as_ptr(),
                        t.as_ptr(),
                        self.cand.as_ptr(),
                        self.cn.as_ptr(),
                        masks.as_mut_ptr(),
                    )
                },
                other => panic!("unknown filter body {other}"),
            }
            masks
        }

        fn bit(&self, masks: &[usize], i: usize, j: usize) -> bool {
            masks[i / DIST_FILTER_MR * self.nc + j] >> (i % DIST_FILTER_MR) & 1 == 1
        }
    }

    /// Every body this host can run, called directly — on an AVX-512 host
    /// dispatch would never reach the AVX2 one.
    fn filter_bodies() -> Vec<&'static str> {
        let mut bodies = vec!["scalar", "wrapper"];
        if cpu_supported() {
            bodies.push("avx2");
        }
        if avx512_supported() {
            bodies.push("avx512");
        }
        bodies
    }

    /// The mask contract of one body on one case: with one candidate's
    /// distance as each query's threshold (a mix of set and clear bits in
    /// every row), a pair clearly under its threshold is flagged and one
    /// clearly over it is not; `+inf` flags exactly the real rows, `-inf`
    /// nothing.
    fn assert_filter_masks(body: &str, case: &FilterCase, what: &str) {
        let (m, nc) = (case.m, case.nc);
        let thr: Vec<f64> =
            (0..m).map(|i| if nc == 0 { 1.0 } else { case.reference[i * nc + i % nc] }).collect();
        let masks = case.run(body, &thr);
        for (i, &t) in thr.iter().enumerate() {
            for j in 0..nc {
                let (r, b) = (case.reference[i * nc + j], case.bound(i, j));
                if r < t - b {
                    assert!(case.bit(&masks, i, j), "{what}: ({i},{j}) dropped");
                }
                if r > t + b {
                    assert!(!case.bit(&masks, i, j), "{what}: ({i},{j}) flagged");
                }
            }
        }
        let none = case.run(body, &vec![f64::NEG_INFINITY; m]);
        assert!(none.iter().all(|&w| w == 0), "{what}: bits under -inf");
        // Padding rows of the last group stay clear even under +inf.
        let all = case.run(body, &vec![f64::INFINITY; m]);
        let last = (m - 1) / DIST_FILTER_MR;
        for (w, &word) in all.iter().enumerate() {
            let rows = if w / nc == last { m - last * DIST_FILTER_MR } else { DIST_FILTER_MR };
            assert_eq!(word, (1usize << rows) - 1, "{what}: word {w} under +inf");
        }
    }

    #[test]
    fn dist_filter_flags_every_pair_under_threshold_and_no_padding() {
        // m off the 8- and 16-row tiles, nc off the 4-column one, clouds at
        // the origin and far from it.
        for body in filter_bodies() {
            for d in [1usize, 3, 8, 16, 54, 64] {
                for nc in [0usize, 1, 3, 4, 5, 127] {
                    for (m, shift) in [(1usize, 0.0), (7, 1e7), (9, 0.0), (20, 1e7), (33, 0.0)] {
                        let case = FilterCase::new(m, d, nc, 1.0, shift, (d * 131 + nc) as u64);
                        let what = format!("{body} d={d} nc={nc} m={m} shift={shift}");
                        assert_filter_masks(body, &case, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn dist_filter_distance_stays_within_the_documented_bound() {
        // The kernel stores no distance, so bracket it: with query i's
        // threshold at reference(i, j) + bound the pair must be flagged,
        // at reference(i, j) − bound it must not — for unit-scale, tiny
        // and far-translated clouds (where ‖x‖² dwarfs the distances).
        for body in filter_bodies() {
            for d in [1usize, 3, 8, 16, 54, 64] {
                for (scale, shift) in [(1.0, 0.0), (1e-3, 0.0), (1.0, 1e7), (0.05, -3e8)] {
                    let case = FilterCase::new(20, d, 6, scale, shift, d as u64 + 99);
                    for j in 0..case.nc {
                        let at = |sign: f64| -> Vec<f64> {
                            (0..case.m)
                                .map(|i| case.reference[i * case.nc + j] + sign * case.bound(i, j))
                                .collect()
                        };
                        let (above, below) = (case.run(body, &at(1.0)), case.run(body, &at(-1.0)));
                        for i in 0..case.m {
                            let what =
                                format!("{body} d={d} scale={scale} shift={shift} ({i},{j})");
                            assert!(case.bit(&above, i, j), "{what}: over the bound");
                            assert!(!case.bit(&below, i, j), "{what}: under the bound");
                        }
                    }
                }
            }
        }
    }
}
