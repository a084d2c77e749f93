//! Explicit-SIMD microkernels with runtime dispatch (AVX2 + FMA), and the
//! portable lanes that give their bits on any CPU.
//!
//! The paper's single-node performance rests on hand-written AVX2/AVX-512
//! register-tile kernels (GSKS \[24\], BLIS-style GEMM); the scalar
//! `[[f64; NR]; MR]` tiles this repo started with leave an order of
//! magnitude on the table per core. This module provides the explicit
//! vector kernels every hot path bottoms out in:
//!
//! * the f64 GEMM microkernel over MR/NR-packed panels, written straight
//!   into column-major `C`: an `8 x 6` tile (`dgemm_tile_avx2`, 12 `ymm`
//!   accumulators) on any panel, and with AVX-512 a `16 x 12` tile
//!   (`dgemm_tile_16x12_avx512`, 24 `zmm` accumulators) over two A panels
//!   by two B panels;
//! * the three kernels of the GSKS engine's one tile layout, 8 target rows
//!   in the vector lanes: the Gram tiles of two row groups at once
//!   ([`gsks_gram`], two `8 x 8` tiles) against sources read point-major
//!   where they lie, the one-weight epilogue
//!   ([`gsks_dot`]) and the multi-RHS contraction of a whole run of tiles
//!   ([`gsks_contract_run`]), which reads `U` and accumulates into `W` in
//!   place, holding a `16 x 12` block of `W` in `zmm` registers (`8 x 6`
//!   in `ymm` under AVX2) across every tile of the run;
//! * a fused distance filter ([`dist_filter`]) for the neighbor searches:
//!   the same rank-`d` tile with the norms identity and two threshold
//!   compares in registers — the query's and the candidate's, ORed — one
//!   mask word out per 8 queries x candidate;
//! * GEMV (`dgemv_add_avx2`) with 4-column blocking so each `y` vector
//!   load amortizes four FMA columns;
//! * the multi-column rank-1 update under the LU panel and the TRSM leaves
//!   ([`rank1_update`]): one block of `x` held in registers while every
//!   column of `C` goes by, each element getting the operation `axpy`
//!   would give it;
//! * dot / axpy vector loops for BLAS-1 (`dot_avx2`, `axpy_avx2`);
//! * a vectorized polynomial `exp` ([`vexp`]) for the Gaussian/Laplacian
//!   kernel transforms (paper §II-D evaluates the kernel inside the
//!   register tile; a scalar `exp` call per element destroys the fusion
//!   win). Accuracy is bounded against [`f64::exp`] — see [`vexp`].
//!
//! # Dispatch
//!
//! Which body runs is decided at runtime, and decides speed only:
//!
//! * the vector bodies run where the CPU reports AVX2 **and** FMA
//!   (`is_x86_feature_detected!`), unless [`set_simd_enabled`] turned them
//!   off for the process (the `microkernel` bench and the lane tests A/B
//!   through it); otherwise — off, on other targets, under Miri — the
//!   portable lanes run (no unconditional `std::arch::x86_64` imports
//!   anywhere);
//! * where a kernel has an AVX-512 entry point, [`avx512_supported`]
//!   selects it over the AVX2 one. The skinny GEMM is AVX-512 only and
//!   gives the packed path's bits; the TRSM leaf's register-resident
//!   substitution (`subst_in_registers`) is AVX-512 only and gives the
//!   bits of the [`rank1_update`] steps the leaf runs without it.
//!   [`gsks_dot`] and [`rank1_update`] are AVX2 only: an 8-wide body timed
//!   no faster end to end.
//!
//! # One source per kernel
//!
//! The packed GEMM tile, [`gsks_gram`], [`gsks_contract_run`]'s full row
//! groups, [`dist_filter`], the transposed GEMV and [`vexp`] are each
//! written once, generic over `V8`: one row group of eight `f64` lanes,
//! held in one `zmm`, in two `ymm` halves that each get the `zmm`
//! operation, or in eight plain `f64`s (`Lanes`) that each get it one lane
//! at a time. The `widths!` macro stamps out the body's three entry
//! points: `*_avx512` and `*_avx2` under `#[target_feature]`, so the body
//! and every intrinsic inline into a function that enables them, and
//! `*_portable` for any CPU. Each picks the register tile its width holds
//! (AVX-512 / AVX2, and the portable lanes the AVX2 shape): GEMM `16 x 12`
//! / `8 x 6`, Gram (two row groups) `16 x 8` in one pass, 16 `zmm`
//! accumulators / `16 x 2` per pass, 8 `ymm` halves, contraction
//! `16 x {12,8,4,2,1}` / `8 x {6,4,2,1}`, filter `{16,8} x {4,1}` /
//! `8 x {4,1}`, transposed GEMV columns per pass 4 / 2. Every element gets
//! the same operations in the same order at any shape. The unit tests that hold the three to the
//! same bits: `every_tile_gives_the_same_bits` (`gemm.rs`),
//! `gsks_gram_bodies_agree_bitwise`,
//! `gsks_contract_bodies_agree_bitwise_on_strided_views`,
//! `dist_filter_bodies_give_the_same_masks`,
//! `gemv_t_reduces_in_the_one_order` (`blas2.rs`) and
//! `vexp_lanes_agree_bitwise`. The kernels with an AVX2 body only — `dot`,
//! `axpy`, GEMV, [`rank1_update`], [`gsks_dot`], [`dist_epilogue`] — have a
//! portable body beside it that runs the same chain.
//!
//! # Tolerance model
//!
//! The bits depend on nothing the host or the process decides: SIMD on or
//! off, AVX2+FMA with or without AVX-512F or neither, every kernel gives
//! the same bits (`kfds-core`'s golden digests bind one table in both
//! lanes). The portable lanes fuse where the vector bodies fuse, with
//! [`f64::mul_add`] — one rounding, a libm call where FMA is not a
//! compile-time feature, so that lane is slower, not different — and leave
//! unfused what the vector paths leave unfused: `dot` and `axpy` below 8
//! elements, the last `m % 4` rows of `axpy`, [`rank1_update`] and GEMV,
//! and a partial row group of [`gsks_contract_run`]. Against exact
//! arithmetic a length-`k` reduction is off by `O(k * eps * sum |terms|)`.
//! [`vexp`] deviates from `f64::exp` by at most a few ulp (asserted at
//! `1e-14` relative); inputs below the normal range flush to zero.

use crate::mat::{MatMut, MatRef};
use std::sync::atomic::{AtomicBool, Ordering};

/// GEMM microkernel register-tile rows.
pub const GEMM_MR: usize = 8;
/// GEMM microkernel register-tile columns.
pub const GEMM_NR: usize = 6;
/// Widest right operand the unpacked skinny GEMM kernel takes: one `zmm`
/// accumulator per column of an 8-row tile, 16 of the 32 registers.
pub const GEMM_SKINNY_N: usize = 16;
/// Target rows of one GSKS tile (the vector lanes), and its source
/// columns: a tile is `GSKS_MR x GSKS_MR`, stored column-major.
pub const GSKS_MR: usize = 8;
/// Source columns per partial sum of the GSKS epilogues: a tile's columns
/// are summed in groups of this many from its first (see [`gsks_dot`] and
/// [`gsks_contract_run`] for which bodies pad a last group with zero
/// weights).
const GSKS_SUM: usize = 4;
/// Rows of one packed query group of [`dist_filter`]: one mask per group
/// and candidate, one bit per row.
pub const DIST_FILTER_MR: usize = 8;

/// Whether the vector kernels may run; on unless [`set_simd_enabled`]
/// turned them off.
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the vector kernels on or off for the process (on by default).
/// Off, every consumer runs the portable lanes, which give the same bits
/// more slowly — the seam the `microkernel` bench and the lane tests A/B
/// through from one binary.
pub fn set_simd_enabled(on: bool) {
    SIMD_ENABLED.store(on, Ordering::Relaxed);
}

/// Held by the unit tests that flip [`set_simd_enabled`], so none of them
/// sees the mode change under it.
#[cfg(test)]
pub(crate) static SIMD_MODE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `true` if this CPU supports the vector kernels (x86-64 with AVX2+FMA).
/// Immutable for the process lifetime — [`active`] implies this, which is
/// what makes capturing the dispatch decision once per call sound.
///
/// Always `false` under Miri: the interpreter does not implement the AVX
/// intrinsics, so the Miri lane checks the portable paths (where all the
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
    SIMD_ENABLED.load(Ordering::Relaxed) && cpu_supported()
}

/// Which instantiation of a [`V8`] body a call runs, decided once per
/// call by [`lane`]; the unit tests pass one explicitly to compare them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lane {
    /// [`Lanes`]: SIMD off, no AVX2+FMA, non-x86, Miri.
    Portable,
    /// `YmmPair`, AVX2+FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `Zmm`: only made where the CPU reports AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest lane this CPU runs with SIMD enabled. [`active`] implies CPU
/// support, which is immutable, so a concurrent [`set_simd_enabled`]
/// cannot make a vector call unsound — and every lane gives the same bits.
#[inline]
pub(crate) fn lane() -> Lane {
    #[cfg(target_arch = "x86_64")]
    if active() {
        return if avx512_supported() { Lane::Avx512 } else { Lane::Avx2 };
    }
    Lane::Portable
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
/// A polynomial kernel, the same arithmetic per element in every lane —
/// 8-wide under AVX-512, 4-wide under AVX2, one element at a time in the
/// portable lanes — so all of them give the same bits.
///
/// Accuracy: relative error vs [`f64::exp`] is a few ulp (tested at
/// `1e-14`); inputs below `-708.396` (where `exp` enters the subnormal
/// range) flush to `0.0` (absolute error `< 2.5e-308`); inputs above
/// `709.783` saturate to `+inf`; NaN propagates.
pub fn vexp(xs: &mut [f64]) {
    // SAFETY: a vector lane is only chosen where the CPU has its features.
    unsafe {
        match lane() {
            Lane::Portable => vexp_portable(xs),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx2 => vexp_avx2(xs),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx512 => vexp_avx512(xs),
        }
    }
}

/// The GSKS Gram tiles of two row groups against one source group:
/// `out[g][c * 8 + r] = x_{g,r} · y_c` for `g < 2`, 8 targets each against
/// the same 8 sources — the rank-`d` update of paper §II-D with the
/// targets in the vector lanes, each tile written column-major. A caller
/// with one group left passes it twice; it gets the same tile twice.
///
/// * `xg[g]` holds group `g`'s targets dimension-major: coordinate `k` of
///   target `r` at `xg[g][k * 8 + r]`.
/// * `ys` holds the sources point-major, the way a point set stores them:
///   coordinate `k` of source `c` at `ys[c * d + k]`. For a contiguous
///   run of points it is a window of the point set itself.
///
/// Each value is one chain of fused multiply-adds over `k = 0..d` starting
/// from `0`, in every lane, whichever group it is paired with.
///
/// # Panics
/// Panics if an operand is shorter than `8 * d`.
pub fn gsks_gram(xg: [&[f64]; 2], ys: &[f64], d: usize, out: [&mut [f64; GSKS_MR * GSKS_MR]; 2]) {
    let n = GSKS_MR * d;
    assert!(xg.iter().chain([&ys]).all(|v| v.len() >= n), "gsks_gram: operand under 8 x d");
    let [o0, o1] = out;
    let (x0, x1, y, o0, o1) =
        (xg[0].as_ptr(), xg[1].as_ptr(), ys.as_ptr(), o0.as_mut_ptr(), o1.as_mut_ptr());
    // SAFETY: every operand holds 8 x d elements (asserted above) and each
    // `out[g]` is one tile of its own; a vector lane is only chosen where
    // the CPU has its features.
    unsafe {
        match lane() {
            Lane::Portable => gsks_gram_portable(d, x0, x1, y, o0, o1),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx2 => gsks_gram_avx2(d, x0, x1, y, o0, o1),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx512 => gsks_gram_avx512(d, x0, x1, y, o0, o1),
        }
    }
}

/// The one-weight epilogue of a GSKS tile: `acc[r] += Σ_c k[c * 8 + r] u[c]`
/// over the tile's `u.len() <= 8` live source columns.
///
/// The columns go in groups of four from the first. Each group is summed
/// from `0`, multiply then add in column order, a last group completed
/// with zero weights; the group sum is then added to `acc[r]`. Nothing is
/// fused, so both bodies give the same bits.
///
/// # Panics
/// Panics if `u` has more weights than a tile has columns.
pub fn gsks_dot(k: &[f64; GSKS_MR * GSKS_MR], u: &[f64], acc: &mut [f64; GSKS_MR]) {
    assert!(u.len() <= GSKS_MR, "gsks_dot: more weights than tile columns");
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            let (kp, up, cols, ap) = (k.as_ptr(), u.as_ptr(), u.len(), acc.as_mut_ptr());
            // SAFETY: `u` holds the `cols <= 8` weights read (asserted
            // above), `k` is one tile and `acc` one lane vector; active()
            // implies AVX2+FMA.
            unsafe { x86::gsks_dot_avx2(kp, up, cols, ap) };
            return;
        }
    }
    gsks_dot_portable(k, u, acc);
}

/// The portable body of [`gsks_dot`].
fn gsks_dot_portable(k: &[f64; GSKS_MR * GSKS_MR], u: &[f64], acc: &mut [f64; GSKS_MR]) {
    let groups = u.len().div_ceil(GSKS_SUM);
    for (g, kg) in k.chunks_exact(GSKS_SUM * GSKS_MR).take(groups).enumerate() {
        let mut s = [0.0f64; GSKS_MR];
        for (c, kc) in kg.chunks_exact(GSKS_MR).enumerate() {
            let uc = u.get(g * GSKS_SUM + c).copied().unwrap_or(0.0);
            for (sr, &kv) in s.iter_mut().zip(kc) {
                *sr += kv * uc;
            }
        }
        for (a, sr) in acc.iter_mut().zip(s) {
            *a += sr;
        }
    }
}

/// The multi-RHS epilogue of a run of GSKS tiles:
/// `W[r, t] += Σ_c K[r, c] U[c, t]` for a `W` of at most two row groups
/// (`W.nrows() <= 16`) against one run of `U.nrows()` consecutive source
/// columns. `U` is read and `W` updated where they lie, at any column
/// stride; `W` stays in registers across every tile of the run.
///
/// `k` holds the run's tiles as [`gsks_gram`] writes them, one row group
/// after the other: with `tiles = U.nrows().div_ceil(8)`, row `8g + r` of
/// `W` against source column `c` is `k[g * tiles * 64 + c * 8 + r]`. So a
/// row group's tiles are one column-major `8 x 8·tiles` block, and only
/// the last tile of the run can be partial.
///
/// * A full 8-row group: each element is one chain of fused multiply-adds
///   from its `W` value over the columns in ascending order, with the
///   zero-weight columns that complete the last group of four
///   (`fma(k, 0, w)`, reading the tile's values there). The AVX-512 body
///   (`16 x 12` register tile, or `8 x 12` for an odd group), the AVX2 one
///   (`8 x 6`) and the portable one agree bitwise.
/// * A partial row group, in every lane: groups of four columns from the
///   first, each summed from `0` by multiply then add over its *live*
///   columns only (no zero-weight padding, unlike [`gsks_dot`]), then
///   added to `W`.
///
/// # Panics
/// Panics if `W` has more than 16 rows, the column counts of `U` and `W`
/// differ, or `k` holds fewer than `W.nrows().div_ceil(8) * tiles * 64`
/// values.
pub fn gsks_contract_run(k: &[f64], u: MatRef<'_>, mut w: MatMut<'_>) {
    let (cols, nrhs, rows) = (u.nrows(), u.ncols(), w.nrows());
    let span = cols.div_ceil(GSKS_MR) * GSKS_MR * GSKS_MR;
    assert!(rows <= 2 * GSKS_MR, "gsks_contract_run: W taller than two row groups");
    assert_eq!(nrhs, w.ncols(), "gsks_contract_run: RHS count mismatch");
    assert!(k.len() >= rows.div_ceil(GSKS_MR) * span, "gsks_contract_run: K shorter than the run");
    if cols == 0 || nrhs == 0 {
        return; // no term: every body leaves W as it is
    }
    let full = rows / GSKS_MR;
    if full > 0 {
        let (kp, up, us, ws) = (k.as_ptr(), u.as_ptr(), u.col_stride(), w.col_stride());
        let wp = w.as_mut_ptr();
        // SAFETY: `U` is a live cols x nrhs view and `W` a rows x nrhs one
        // with `full` whole row groups, `k` holds `full` runs of `span`
        // values (asserted above), so every element the bodies touch is
        // inside them; a vector lane is only chosen where the CPU has its
        // features.
        unsafe {
            match lane() {
                Lane::Portable => {
                    gsks_contract_run_portable(kp, span, full, cols, nrhs, up, us, wp, ws)
                }
                #[cfg(target_arch = "x86_64")]
                Lane::Avx2 => gsks_contract_run_avx2(kp, span, full, cols, nrhs, up, us, wp, ws),
                #[cfg(target_arch = "x86_64")]
                Lane::Avx512 => {
                    gsks_contract_run_avx512(kp, span, full, cols, nrhs, up, us, wp, ws)
                }
            }
        }
    }
    if rows > full * GSKS_MR {
        let rest = w.submatrix_mut(full * GSKS_MR..rows, 0..nrhs);
        contract_partial_group(&k[full * span..], u, rest);
    }
}

/// The partial row group (`W.nrows() < 8`) of [`gsks_contract_run`], in
/// every lane: `k` is that group's run of tiles.
fn contract_partial_group(k: &[f64], u: MatRef<'_>, mut w: MatMut<'_>) {
    debug_assert!(w.nrows() < GSKS_MR, "a partial row group has fewer than 8 rows");
    for t in 0..u.ncols() {
        let (ut, wt) = (u.col(t), w.col_mut(t));
        for (g, ug) in ut.chunks(GSKS_SUM).enumerate() {
            for (r, wr) in wt.iter_mut().enumerate() {
                let kr = &k[g * GSKS_SUM * GSKS_MR + r..];
                let mut s = 0.0;
                for (c, &uc) in ug.iter().enumerate() {
                    s += kr[c * GSKS_MR] * uc;
                }
                *wr += s;
            }
        }
    }
}

/// The multi-column rank-1 update of one elimination step:
/// `C[r0 + i, j] += α_j · x[i]` for `i < x.len()` and every column `j`,
/// with the multiplier `α_j = −C[p, j]` read from row `p` of the same
/// column — the pivot row of an LU step, the just-solved row of a
/// substitution step — which lies outside the updated rows. A column with
/// `α_j == 0` is skipped.
///
/// Every element gets exactly the operation [`crate::blas1::axpy`]`(α_j,
/// x, ..)` gives it at the same offset: with `x.len() >= 8`, one fused
/// multiply-add on the first `4⌊len/4⌋` rows and `y + α·x` (multiply, then
/// add) on the rest; `y + α·x` everywhere otherwise. So each column's bits
/// are those of one `axpy` per column, whatever the other columns hold, in
/// every lane. The vector body is AVX2 on every vector host (an 8-wide one
/// timed no faster end to end); the portable lane is one `axpy` per
/// column.
///
/// # Panics
/// Panics if row `p` or the rows `r0..r0 + x.len()` are outside `C`, or
/// `p` is one of those rows.
pub fn rank1_update(x: &[f64], p: usize, r0: usize, mut c: MatMut<'_>) {
    let (m, nc) = (x.len(), c.ncols());
    assert!(p < c.nrows() && r0 + m <= c.nrows(), "rank1_update: rows outside C");
    assert!(m == 0 || !(r0..r0 + m).contains(&p), "rank1_update: multiplier row updated");
    if m == 0 || nc == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if active() {
            let (cs, cp) = (c.col_stride(), c.as_mut_ptr());
            // SAFETY: rows `p` and `r0..r0 + m` of every one of the `nc`
            // columns are inside the view (asserted above; the view's
            // constructor checked its stride and extent), `p` is not among
            // the written rows, and `x` holds `m` elements. active() implies
            // AVX2+FMA.
            unsafe {
                let (u, cr) = (cp.add(p).cast_const(), cp.add(r0));
                x86::rank1_update_avx2(m, nc, x.as_ptr(), u, cr, cs);
            }
            return;
        }
    }
    for j in 0..nc {
        let col = c.col_mut(j);
        let alpha = -col[p];
        crate::blas1::axpy(alpha, x, &mut col[r0..r0 + m]);
    }
}

/// The rows [`crate::blas1::axpy`] gives a fused multiply-add, in every
/// lane: the 4-aligned body of a vector of at least 8, none of a shorter
/// one.
#[inline(always)]
pub(crate) fn fused_rows(m: usize) -> usize {
    if m >= 8 {
        m & !3
    } else {
        0
    }
}

/// Largest triangle [`subst_in_registers`] takes: a TRSM leaf, four `zmm`
/// per right-hand side.
pub(crate) const SUBST_MAX: usize = 32;

/// The substitutions [`subst_in_registers`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Subst {
    /// `L X = B`, `L` the lower triangle (unit diagonal if `unit`): steps
    /// `j = 0..n`, each updating the rows below `j`.
    Forward { unit: bool },
    /// `U X = B`, `U` the upper triangle: steps `j = n-1..0`, each updating
    /// the rows above `j`.
    Backward,
}

/// A whole substitution `T X = B` on a triangle of at most [`SUBST_MAX`]
/// rows, as the [`rank1_update`] steps it is made of with `B` held in
/// registers from the first step to the last. Step `j` first divides row
/// `j` of `B` by `a_jj` (not for a unit diagonal), then is one
/// [`rank1_update`] with `x` the off-diagonal part of column `j` and the
/// multipliers `−B[j, ..]`: per element the same operations, so the same
/// bits, as the steps run one call at a time.
///
/// Returns `false`, touching nothing, when no register body applies
/// (SIMD off, no AVX-512F, or more than [`SUBST_MAX`] rows); the caller
/// then runs the steps through [`rank1_update`].
///
/// # Panics
/// Panics if `a` is not square or `B` has another row count.
pub(crate) fn subst_in_registers(kind: Subst, a: MatRef<'_>, mut b: MatMut<'_>) -> bool {
    let (n, nrhs) = (a.nrows(), b.ncols());
    assert!(a.ncols() == n && b.nrows() == n, "subst_in_registers: shape mismatch");
    if n > SUBST_MAX || !active() || !avx512_supported() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    if n > 0 && nrhs > 0 {
        let (ap, lda, bs) = (a.as_ptr(), a.col_stride(), b.col_stride());
        // SAFETY: `a` is an n x n view and `B` an n x nrhs one with
        // 1 <= n <= 32, so every element the body reads or writes is inside
        // them (the view constructors checked the strides); the CPU reports
        // avx512f and active() implies AVX2+FMA.
        unsafe { x86::subst_avx512(kind, n, ap, lda, b.as_mut_ptr(), bs, nrhs) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (kind, nrhs, &mut b);
    true
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
/// * `cthr` holds one threshold per candidate (`nc`), ORed with the
///   queries' ones: a block filtered against itself sets both to its
///   members' thresholds, so one pair decides for both of its points. A
///   one-sided caller passes `−∞` for every candidate.
/// * `masks[g·nc + j]` receives one mask per (group, candidate): bit `r`
///   is set unless `f > thr[8g + r]` **and** `f > cthr[j]` for query
///   `8g + r` against candidate `j` — so a `+∞` on either side flags the
///   pair, `−∞` on both none, and a NaN `f` (overflowing coordinates) is
///   flagged rather than dropped. Bits of padding rows are never set.
///
/// Every lane gives the same masks. Whatever the summation order of the
/// dots behind the norms, `f` differs from the scalar `Σ (q_k − c_k)²`
/// loop by at most `2(d + 8)·ε·(‖q‖² + ‖c‖²)`: each norm and the Gram
/// term carry `γ_d ≈ d·ε/2` relative to `‖q‖²`, `‖c‖²` and
/// `‖q‖‖c‖ ≤ (‖q‖² + ‖c‖²)/2`, the two final roundings add `1.5ε`, and the
/// scalar loop itself is within `(d + 2)·ε/2` of `‖q − c‖² ≤ 2(‖q‖² + ‖c‖²)`
/// — `(2d + 3.5)ε` in all. A caller that adds this bound to its thresholds
/// loses no pair.
///
/// # Panics
/// Panics if `cand.len()` is not a multiple of `cn.len()` or a slice is
/// shorter than the layout above requires.
#[allow(clippy::too_many_arguments)]
pub fn dist_filter(
    m: usize,
    qpack: &[f64],
    qn: &[f64],
    thr: &[f64],
    cand: &[f64],
    cn: &[f64],
    cthr: &[f64],
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
    assert!(cthr.len() >= nc, "dist_filter: candidate thresholds too short");
    assert!(masks.len() >= rows / DIST_FILTER_MR * nc, "dist_filter: masks too short");
    let (q, c) = (qpack.as_ptr(), cand.as_ptr());
    let (qn, thr, cn, out) = (qn.as_ptr(), thr.as_ptr(), cn.as_ptr(), masks.as_mut_ptr());
    let ct = cthr.as_ptr();
    // SAFETY: every length the kernels read or write was asserted above; a
    // vector lane is only chosen where the CPU has its features.
    unsafe {
        match lane() {
            Lane::Portable => dist_filter_portable(d, m, nc, q, qn, thr, c, cn, ct, out),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx2 => dist_filter_avx2(d, m, nc, q, qn, thr, c, cn, ct, out),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx512 => dist_filter_avx512(d, m, nc, q, qn, thr, c, cn, ct, out),
        }
    }
}

/// `true` if this CPU additionally supports the 8-wide AVX-512 variants
/// (the baseline vector kernels require only AVX2+FMA). Immutable for the
/// process lifetime, like [`cpu_supported`]; a body runs under it only
/// while [`active`] holds, and gives the AVX2 body's bits.
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
pub(crate) use x86::{axpy_avx2, dgemm_skinny_avx512, dgemv_add_avx2, dot_avx2};
#[cfg(target_arch = "x86_64")]
use x86::{YmmPair, Zmm};

/// One row group of a kernel body: eight `f64` lanes, row `r` of the group
/// in lane `r`, held in one `zmm` (`Zmm`, AVX-512F), in two `ymm` halves,
/// rows `0..4` and `4..8` (`YmmPair`, AVX2+FMA), or in eight plain `f64`s
/// ([`Lanes`], any CPU). A `YmmPair` method is the `Zmm` one on each half
/// and a `Lanes` method the same operation lane by lane, so a kernel body
/// written once over `V8` gives every lane the same bits at every width;
/// [`widths!`] instantiates it at each, with the register tile that width
/// holds.
///
/// # Safety
/// Every method runs its type's instructions, so runs only where the
/// CPU has them; called from a body [`widths!`] instantiates, it inlines
/// into the function that enables them. `load` reads eight elements at
/// `p`, `store` writes eight.
trait V8: Copy {
    /// `[v; 8]`.
    /// # Safety
    /// As for [`V8`].
    unsafe fn splat(v: f64) -> Self;
    /// The eight elements at `p`.
    /// # Safety
    /// As for [`V8`].
    unsafe fn load(p: *const f64) -> Self;
    /// Writes the lanes to the eight elements at `p`.
    /// # Safety
    /// As for [`V8`].
    unsafe fn store(self, p: *mut f64);
    /// `self + b` per lane.
    /// # Safety
    /// As for [`V8`].
    unsafe fn add(self, b: Self) -> Self;
    /// `self · b + c` per lane, rounded once.
    /// # Safety
    /// As for [`V8`].
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// The sum of the lanes: the halves added, `w_l = v_l + v_{l+4}`,
    /// then `(w0 + w2) + (w1 + w3)`.
    /// # Safety
    /// As for [`V8`].
    unsafe fn reduce_add(self) -> f64;
    /// Bit `r` set unless lane `r` is greater than lane `r` of `t`, so a
    /// NaN sets its bit.
    /// # Safety
    /// As for [`V8`].
    unsafe fn ngt_mask(self, t: Self) -> u8;
    /// `exp` per lane: `exp8`, `exp4` on each half, or [`exp_lane`] on
    /// each lane (see [`vexp`] for the contract).
    /// # Safety
    /// As for [`V8`].
    unsafe fn exp(self) -> Self;
    /// `G` groups, the `g`-th at `p + g·step` (a loop, not a closure: see
    /// [`widths!`]).
    /// # Safety
    /// As for [`V8`], at each of the `G` addresses.
    #[inline(always)]
    unsafe fn load_groups<const G: usize>(p: *const f64, step: usize) -> [Self; G] {
        let mut v = [Self::splat(0.0); G];
        for (g, x) in v.iter_mut().enumerate() {
            *x = Self::load(p.add(g * step));
        }
        v
    }
}

/// [`V8`] in eight plain `f64`s, on any CPU: `fmadd` is [`f64::mul_add`]
/// (one rounding, as the vector FMA), `reduce_add` the documented halving
/// order and `exp` [`exp_lane`] on each lane. Where FMA is not a
/// compile-time feature `mul_add` is a libm call, so this lane is the slow
/// one, never a different one.
#[derive(Clone, Copy)]
struct Lanes([f64; 8]);

impl V8 for Lanes {
    // SAFETY: plain arithmetic; no CPU feature.
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        Lanes([v; 8])
    }
    // SAFETY: eight readable elements at `p`, which `V8` asks of the caller.
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Lanes(p.cast::<[f64; 8]>().read_unaligned())
    }
    // SAFETY: eight writable elements at `p`, which `V8` asks of the caller.
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        p.cast::<[f64; 8]>().write_unaligned(self.0)
    }
    // SAFETY: as for `splat`.
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        let mut v = self.0;
        for (x, y) in v.iter_mut().zip(b.0) {
            *x += y;
        }
        Lanes(v)
    }
    // SAFETY: as for `splat`.
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        let mut v = c.0;
        for ((x, a), b) in v.iter_mut().zip(self.0).zip(b.0) {
            *x = a.mul_add(b, *x);
        }
        Lanes(v)
    }
    // SAFETY: as for `splat`.
    #[inline(always)]
    unsafe fn reduce_add(self) -> f64 {
        let v = self.0;
        let w = [v[0] + v[4], v[1] + v[5], v[2] + v[6], v[3] + v[7]];
        (w[0] + w[2]) + (w[1] + w[3])
    }
    // SAFETY: as for `splat`.
    #[inline(always)]
    unsafe fn ngt_mask(self, t: Self) -> u8 {
        let mut mask = 0;
        for (r, (x, t)) in self.0.iter().zip(t.0).enumerate() {
            // Not greater than, unordered true: a NaN is flagged.
            mask |= u8::from(x.partial_cmp(&t) != Some(std::cmp::Ordering::Greater)) << r;
        }
        mask
    }
    // SAFETY: as for `splat`.
    #[inline(always)]
    unsafe fn exp(self) -> Self {
        Lanes(self.0.map(exp_lane))
    }
}

/// Stamps out the three entry points of a kernel body written once over
/// [`V8`]: `$wide` runs it in `Zmm` lanes under AVX-512F and `$narrow` in
/// `YmmPair` lanes under AVX2+FMA (both x86-64 only), `$plain` in
/// [`Lanes`] on any CPU, each with its width's tile shape (the const
/// parameters after the lane type). The body and every `V8` method under
/// it inline into the `#[target_feature]` entry point, so every intrinsic
/// does too; a generic helper called across the feature boundary might
/// not. A closure does not carry the `#[inline(always)]` nor its caller's
/// features, so no body calls a `V8` method from one.
macro_rules! widths {
    (
        $vis:vis fn $body:ident($($arg:ident: $ty:ty),* $(,)?);
        $wide:ident = <Zmm $(, $ws:tt)*>;
        $narrow:ident = <YmmPair $(, $ns:tt)*>;
        $plain:ident = <Lanes $(, $ps:tt)*>;
    ) => {
        #[doc = concat!("[`", stringify!($body), "`] in `Zmm` lanes.")]
        ///
        /// # Safety
        /// Requires AVX-512F; otherwise as the body.
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx512f")]
        $vis unsafe fn $wide($($arg: $ty),*) {
            debug_assert!(avx512_supported(), "{} needs AVX-512F", stringify!($wide));
            $body::<Zmm $(, $ws)*>($($arg),*)
        }

        #[doc = concat!("[`", stringify!($body), "`] in `YmmPair` lanes.")]
        ///
        /// # Safety
        /// Requires AVX2+FMA; otherwise as the body.
        #[cfg(target_arch = "x86_64")]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2", enable = "fma")]
        $vis unsafe fn $narrow($($arg: $ty),*) {
            debug_assert!(cpu_supported(), "{} needs AVX2+FMA", stringify!($narrow));
            $body::<YmmPair $(, $ns)*>($($arg),*)
        }

        #[doc = concat!("[`", stringify!($body), "`] in [`Lanes`], on any CPU.")]
        ///
        /// # Safety
        /// As the body.
        #[allow(clippy::too_many_arguments)]
        $vis unsafe fn $plain($($arg: $ty),*) {
            $body::<Lanes $(, $ps)*>($($arg),*)
        }
    };
}

/// `C[0..8G, 0..6P] += alpha * sum_k A[:, k] * B[k, :]` — the BLIS-style
/// register-tile microkernel over `G` packed A panels by `P` packed B
/// panels: an `8 x 6` tile in `ymm` pairs on any panel, a `16 x 12` one
/// in `zmm` over two by two. A panel `g` holds rows `8g..8g + 8` MR-major
/// (8 consecutive rows per `k`) at `ap + 8g·kc`, B panel `p` columns
/// `6p..6p + 6` NR-major (6 consecutive columns per `k`) at `bp + 6p·kc`;
/// `C` is column-major with stride `ldc`. The accumulators live in
/// registers for the whole `k` loop (12 `ymm` pairs, 24 `zmm`); the
/// epilogue fuses the `alpha` scale into the `C` update.
///
/// Each element is one FMA chain from zero in ascending `k`, then
/// `C = fma(acc, alpha, C)`. So the four `8 x 6` tiles a `16 x 12` one
/// covers come out with the bits they have when run one at a time.
///
/// # Safety
/// `V`'s CPU features. `ap`/`bp` must hold at least `8G·kc` / `6P·kc`
/// readable elements and `c[i + j*ldc]` must be writable for all
/// `i < 8G`, `j < 6P`.
#[inline(always)]
unsafe fn dgemm_tile_v8<V: V8, const G: usize, const P: usize>(
    kc: usize,
    alpha: f64,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    debug_assert!(!ap.is_null() && !bp.is_null() && !c.is_null());
    debug_assert!(ldc >= 8 * G, "C tile columns ({} rows) would overlap: ldc = {ldc}", 8 * G);
    let mut acc = [[[V::splat(0.0); G]; 6]; P];
    for k in 0..kc {
        let a = V::load_groups::<G>(ap.add(8 * k), 8 * kc);
        for (p, accp) in acc.iter_mut().enumerate() {
            let bk = bp.add(6 * (p * kc + k));
            for (j, accj) in accp.iter_mut().enumerate() {
                let b = V::splat(*bk.add(j));
                for (x, av) in accj.iter_mut().zip(a) {
                    *x = av.fmadd(b, *x);
                }
            }
        }
    }
    let va = V::splat(alpha);
    for (p, accp) in acc.iter().enumerate() {
        for (j, accj) in accp.iter().enumerate() {
            for (g, x) in accj.iter().enumerate() {
                let cg = c.add((6 * p + j) * ldc + 8 * g);
                x.fmadd(va, V::load(cg)).store(cg);
            }
        }
    }
}

widths! {
    pub(crate) fn dgemm_tile_v8(
        kc: usize,
        alpha: f64,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
    );
    dgemm_tile_16x12_avx512 = <Zmm, 2, 2>;
    dgemm_tile_avx2 = <YmmPair, 1, 1>;
    dgemm_tile_portable = <Lanes, 1, 1>;
}

/// [`gsks_gram`] over [`V8`]: two row groups of 8 targets in the lanes,
/// one accumulator per group and source column, `NC` columns per pass,
/// each coordinate of a source broadcast once from where it lies for both
/// groups — one FMA chain from zero per value. In `zmm` all 8 columns go
/// in one pass: a `16 x 8` tile, 16 accumulators, 2 target loads and 8
/// broadcasts per 16 FMAs. In `ymm` pairs 2 per pass, so the 16 registers
/// hold the accumulators and the operands.
///
/// # Safety
/// `V`'s CPU features; `NC` divides 8. `x0`, `x1` and `ys` must hold
/// `8 * d` readable elements, `o0` and `o1` 64 writable ones each (they
/// may be the same tile only if `x0 == x1`).
#[inline(always)]
unsafe fn gsks_gram_v8<V: V8, const NC: usize>(
    d: usize,
    x0: *const f64,
    x1: *const f64,
    ys: *const f64,
    o0: *mut f64,
    o1: *mut f64,
) {
    debug_assert!(!x0.is_null() && !x1.is_null() && !ys.is_null());
    debug_assert!(!o0.is_null() && !o1.is_null());
    for pass in 0..8 / NC {
        let mut acc = [[V::splat(0.0); NC]; 2];
        for k in 0..d {
            let x = [V::load(x0.add(8 * k)), V::load(x1.add(8 * k))];
            for j in 0..NC {
                let y = V::splat(*ys.add((NC * pass + j) * d + k));
                for (a, xv) in acc.iter_mut().zip(x) {
                    a[j] = xv.fmadd(y, a[j]);
                }
            }
        }
        for (a, o) in acc.iter().zip([o0, o1]) {
            for (j, v) in a.iter().enumerate() {
                v.store(o.add(8 * (NC * pass + j)));
            }
        }
    }
}

widths! {
    fn gsks_gram_v8(
        d: usize,
        x0: *const f64,
        x1: *const f64,
        ys: *const f64,
        o0: *mut f64,
        o1: *mut f64,
    );
    gsks_gram_avx512 = <Zmm, 8>;
    gsks_gram_avx2 = <YmmPair, 2>;
    gsks_gram_portable = <Lanes, 2>;
}

/// [`gsks_contract_run`] over [`V8`] for `groups` (1 or 2) full
/// row groups: both groups at once when `GM == 2` and there are two,
/// otherwise one at a time, by the right-hand sides in blocks of `NR`,
/// then at most one each of 8 (when `NR > 8`), 4, 2 and 1. Each block
/// holds its piece of `W` in registers for the whole run: `16 x 12` in
/// `zmm` (the shape of [`dgemm_tile_16x12_avx512`]), `8 x 6` in `ymm`
/// pairs (that of [`dgemm_tile_avx2`]).
///
/// # Safety
/// `V`'s CPU features. `1 <= groups <= 2`, `cols >= 1`; `k[g * span + i]`
/// must be readable for `g < groups`, `i < 8 * cols.next_multiple_of(4)`;
/// `u[c + t * ucs]` readable for `c < cols`, `t < nrhs`; and
/// `w[r + t * wcs]` readable and writable for `r < 8 * groups`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gsks_contract_run_v8<V: V8, const GM: usize, const NR: usize>(
    k: *const f64,
    span: usize,
    groups: usize,
    cols: usize,
    nrhs: usize,
    u: *const f64,
    ucs: usize,
    w: *mut f64,
    wcs: usize,
) {
    debug_assert!((1..=2).contains(&groups) && cols >= 1, "run shape: {groups} x {cols}");
    debug_assert!(nrhs <= 1 || (wcs >= 8 * groups && ucs >= cols), "U or W columns overlap");
    if GM == 2 && groups == 2 {
        run_blocks::<V, 2, NR>(k, span, cols, nrhs, u, ucs, w, wcs);
    } else {
        for g in 0..groups {
            let (kg, wg) = (k.add(g * span), w.add(8 * g));
            run_blocks::<V, 1, NR>(kg, span, cols, nrhs, u, ucs, wg, wcs);
        }
    }
}

widths! {
    fn gsks_contract_run_v8(
        k: *const f64,
        span: usize,
        groups: usize,
        cols: usize,
        nrhs: usize,
        u: *const f64,
        ucs: usize,
        w: *mut f64,
        wcs: usize,
    );
    gsks_contract_run_avx512 = <Zmm, 2, 12>;
    gsks_contract_run_avx2 = <YmmPair, 1, 6>;
    gsks_contract_run_portable = <Lanes, 1, 6>;
}

/// The right-hand-side blocks of [`gsks_contract_run_v8`] on `G` row
/// groups at `k` / `w`.
///
/// # Safety
/// As [`gsks_contract_run_v8`], with `groups == G`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn run_blocks<V: V8, const G: usize, const NR: usize>(
    k: *const f64,
    span: usize,
    cols: usize,
    nrhs: usize,
    u: *const f64,
    ucs: usize,
    w: *mut f64,
    wcs: usize,
) {
    let mut t = 0;
    while t < nrhs {
        let (ut, wt) = (u.add(t * ucs), w.add(t * wcs));
        t += match nrhs - t {
            r if r >= NR => run_block::<V, G, NR>(k, span, cols, ut, ucs, wt, wcs),
            8.. => run_block::<V, G, 8>(k, span, cols, ut, ucs, wt, wcs),
            4.. => run_block::<V, G, 4>(k, span, cols, ut, ucs, wt, wcs),
            2.. => run_block::<V, G, 2>(k, span, cols, ut, ucs, wt, wcs),
            _ => run_block::<V, G, 1>(k, span, cols, ut, ucs, wt, wcs),
        };
    }
}

/// One `8·G x NR` block of [`gsks_contract_run_v8`]: `W` loaded, one FMA
/// per source column and right-hand side in ascending column order, then
/// the zero-weight columns up to a multiple of four, stored back.
/// Returns `NR`.
///
/// # Safety
/// As [`gsks_contract_run_v8`], with `G` groups and `NR` right-hand sides
/// at `k` / `u` / `w`.
#[inline(always)]
unsafe fn run_block<V: V8, const G: usize, const NR: usize>(
    k: *const f64,
    span: usize,
    cols: usize,
    u: *const f64,
    ucs: usize,
    w: *mut f64,
    wcs: usize,
) -> usize {
    let mut acc = [[V::splat(0.0); G]; NR];
    for (j, aj) in acc.iter_mut().enumerate() {
        *aj = V::load_groups::<G>(w.add(j * wcs), 8);
    }
    for c in 0..cols {
        let kc = V::load_groups::<G>(k.add(8 * c), span);
        for (j, aj) in acc.iter_mut().enumerate() {
            let b = V::splat(*u.add(j * ucs + c));
            for (a, v) in aj.iter_mut().zip(&kc) {
                *a = v.fmadd(b, *a);
            }
        }
    }
    let zero = V::splat(0.0);
    for c in cols..cols.next_multiple_of(4) {
        let kc = V::load_groups::<G>(k.add(8 * c), span);
        for aj in acc.iter_mut() {
            for (a, v) in aj.iter_mut().zip(&kc) {
                *a = v.fmadd(zero, *a);
            }
        }
    }
    for (j, aj) in acc.iter().enumerate() {
        for (g, a) in aj.iter().enumerate() {
            a.store(w.add(j * wcs + 8 * g));
        }
    }
    NR
}

/// [`dist_filter`] over [`V8`]: an `8·MG x 4` register tile —
/// `MG` packed query groups against four candidates — swept over the
/// candidates with the query tile resident; a last group short of `MG`
/// runs as an `8 x 4` tile and leftover candidates one column at a time.
/// `MG` is 2 in `zmm` (eight accumulators) and 1 in `ymm` pairs (eight
/// halves). The epilogue forms `(qn + cn) − 2g` with one FMA, compares
/// it with the query thresholds and with the candidate's, and turns the
/// OR of the two compare masks into the output word.
///
/// # Safety
/// `V`'s CPU features. With `groups = ceil(m / 8)`: `qpack` must hold
/// `groups * 8 * d` elements, `qn` and `thr` `groups * 8`, `cand`
/// `d * nc`, `cn` and `cthr` `nc`, and `masks` `groups * nc` writable
/// words.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn dist_filter_v8<V: V8, const MG: usize>(
    d: usize,
    m: usize,
    nc: usize,
    qpack: *const f64,
    qn: *const f64,
    thr: *const f64,
    cand: *const f64,
    cn: *const f64,
    cthr: *const f64,
    masks: *mut usize,
) {
    debug_assert!(!qpack.is_null() && !qn.is_null() && !thr.is_null());
    debug_assert!(!cand.is_null() && !cn.is_null() && !cthr.is_null() && !masks.is_null());
    let groups = m.div_ceil(8);
    let mut g = 0;
    while g + MG <= groups {
        filter_sweep::<V, MG>(d, m, g, nc, qpack, qn, thr, cand, cn, cthr, masks);
        g += MG;
    }
    if MG > 1 && g < groups {
        filter_sweep::<V, 1>(d, m, g, nc, qpack, qn, thr, cand, cn, cthr, masks);
    }
}

widths! {
    fn dist_filter_v8(
        d: usize,
        m: usize,
        nc: usize,
        qpack: *const f64,
        qn: *const f64,
        thr: *const f64,
        cand: *const f64,
        cn: *const f64,
        cthr: *const f64,
        masks: *mut usize,
    );
    dist_filter_avx512 = <Zmm, 2>;
    dist_filter_avx2 = <YmmPair, 1>;
    dist_filter_portable = <Lanes, 1>;
}

/// Query groups `g .. g + MG` of [`dist_filter_v8`] against every
/// candidate, four at a time and then singly.
///
/// # Safety
/// As [`dist_filter_v8`], with `g + MG <= ceil(m / 8)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn filter_sweep<V: V8, const MG: usize>(
    d: usize,
    m: usize,
    g: usize,
    nc: usize,
    qpack: *const f64,
    qn: *const f64,
    thr: *const f64,
    cand: *const f64,
    cn: *const f64,
    cthr: *const f64,
    masks: *mut usize,
) {
    let (q, gn, gt) = (qpack.add(8 * g * d), qn.add(8 * g), thr.add(8 * g));
    let out = masks.add(g * nc);
    // The lanes of each group that hold one of the `m` real queries.
    let valid: [u8; MG] = std::array::from_fn(|gi| u8::MAX >> (8 - (m - 8 * (g + gi)).min(8)));
    let mut j = 0;
    while j + 4 <= nc {
        let (c, n, t) = (cand.add(j * d), cn.add(j), cthr.add(j));
        filter_tile::<V, MG, 4>(d, nc, q, gn, gt, valid, c, n, t, out.add(j));
        j += 4;
    }
    while j < nc {
        let (c, n, t) = (cand.add(j * d), cn.add(j), cthr.add(j));
        filter_tile::<V, MG, 1>(d, nc, q, gn, gt, valid, c, n, t, out.add(j));
        j += 1;
    }
}

/// One `8·MG x NR` tile of [`dist_filter_v8`]: `q`, `qn`, `thr` point at
/// the first of `MG` consecutive query groups, `c` / `cn` / `ct` at the
/// first of `NR` candidates, `out` at that candidate's word in the first group's
/// mask row (rows are `nc` apart).
///
/// # Safety
/// As [`dist_filter_v8`], restricted to this tile.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn filter_tile<V: V8, const MG: usize, const NR: usize>(
    d: usize,
    nc: usize,
    q: *const f64,
    qn: *const f64,
    thr: *const f64,
    valid: [u8; MG],
    c: *const f64,
    cn: *const f64,
    ct: *const f64,
    out: *mut usize,
) {
    let mut acc = [[V::splat(0.0); NR]; MG];
    for k in 0..d {
        let a = V::load_groups::<MG>(q.add(8 * k), 8 * d);
        for j in 0..NR {
            let b = V::splat(*c.add(j * d + k));
            for (accg, av) in acc.iter_mut().zip(a) {
                accg[j] = av.fmadd(b, accg[j]);
            }
        }
    }
    let minus_two = V::splat(-2.0);
    for (gi, accg) in acc.iter().enumerate() {
        let (vqn, vthr) = (V::load(qn.add(8 * gi)), V::load(thr.add(8 * gi)));
        for (j, g2) in accg.iter().enumerate() {
            let f = g2.fmadd(minus_two, vqn.add(V::splat(*cn.add(j))));
            let flags = f.ngt_mask(vthr) | f.ngt_mask(V::splat(*ct.add(j)));
            *out.add(gi * nc + j) = usize::from(flags & valid[gi]);
        }
    }
}

/// `y[j] = alpha * dot(A[:, j], x)` for column-major `A` (`m x n`,
/// stride `lda`) over [`V8`]: the transpose counterpart of
/// [`dgemv_add_avx2`], and the per-pivot `F` accumulation of the blocked
/// CPQR.
///
/// One reduction order, written out by `gemv_t_order` in `blas2.rs`'s
/// tests. A column of the first `4 * (n / 4)` is summed into two `V8`
/// chains from zero: 16-row steps put rows `i..i + 8` in chain 0 and
/// `i + 8..i + 16` in chain 1, then one 8-row step, if 8 rows remain,
/// feeds chain 0; the chains meet lane-wise and [`V8::reduce_add`] sums
/// the lanes. A later column takes one chain in 8-row steps, the same
/// sum. The last `m % 8` rows are then added in order (multiply, then
/// add), and the sum is scaled by `alpha`. `NC` columns go per pass: 4 in
/// `zmm`; 2 in `ymm` pairs, whose eight chain halves and four `x` halves
/// fit the 16 registers.
///
/// # Safety
/// `V`'s CPU features; `NC` divides 4. `a` must expose `lda*(n-1)+m`
/// elements, `x` at least `m`, `y` at least `n`.
#[inline(always)]
unsafe fn dgemv_t_v8<V: V8, const NC: usize>(
    m: usize,
    n: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    x: *const f64,
    y: *mut f64,
) {
    debug_assert!(lda >= m || n <= 1, "A columns would overlap: lda = {lda}, m = {m}");
    debug_assert!(n == 0 || m == 0 || (!a.is_null() && !x.is_null() && !y.is_null()));
    let four = n / 4 * 4;
    let mut j = 0;
    while j < four {
        let cols: [*const f64; NC] = std::array::from_fn(|jj| a.add((j + jj) * lda));
        let mut s = [[V::splat(0.0); 2]; NC];
        let mut i = 0;
        while i + 16 <= m {
            for h in 0..2 {
                let xv = V::load(x.add(i + 8 * h));
                for (sc, c) in s.iter_mut().zip(cols) {
                    sc[h] = V::load(c.add(i + 8 * h)).fmadd(xv, sc[h]);
                }
            }
            i += 16;
        }
        if i + 8 <= m {
            let xv = V::load(x.add(i));
            for (sc, c) in s.iter_mut().zip(cols) {
                sc[0] = V::load(c.add(i)).fmadd(xv, sc[0]);
            }
            i += 8;
        }
        let mut d = [0.0; NC];
        for (dj, sc) in d.iter_mut().zip(s) {
            *dj = sc[0].add(sc[1]).reduce_add();
        }
        for r in i..m {
            for (dj, c) in d.iter_mut().zip(cols) {
                *dj += *c.add(r) * *x.add(r);
            }
        }
        for (jj, dj) in d.iter().enumerate() {
            *y.add(j + jj) = alpha * dj;
        }
        j += NC;
    }
    while j < n {
        let c = a.add(j * lda);
        let mut s = V::splat(0.0);
        let mut i = 0;
        while i + 8 <= m {
            s = V::load(c.add(i)).fmadd(V::load(x.add(i)), s);
            i += 8;
        }
        let mut d = s.reduce_add();
        for r in i..m {
            d += *c.add(r) * *x.add(r);
        }
        *y.add(j) = alpha * d;
        j += 1;
    }
}

widths! {
    pub(crate) fn dgemv_t_v8(
        m: usize,
        n: usize,
        alpha: f64,
        a: *const f64,
        lda: usize,
        x: *const f64,
        y: *mut f64,
    );
    dgemv_t_avx512 = <Zmm, 4>;
    dgemv_t_avx2 = <YmmPair, 2>;
    dgemv_t_portable = <Lanes, 2>;
}

/// In-place `exp` over [`V8`] (see [`vexp`] for the contract):
/// [`V8::exp`] over every full group of eight, then once over a
/// zero-padded copy of a tail of 1–7.
///
/// # Safety
/// `V`'s CPU features.
#[inline(always)]
unsafe fn vexp_v8<V: V8>(xs: &mut [f64]) {
    let mut groups = xs.chunks_exact_mut(8);
    for g in &mut groups {
        V::load(g.as_ptr()).exp().store(g.as_mut_ptr());
    }
    let tail = groups.into_remainder();
    if !tail.is_empty() {
        let mut buf = [0.0f64; 8];
        buf[..tail.len()].copy_from_slice(tail);
        V::load(buf.as_ptr()).exp().store(buf.as_mut_ptr());
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

widths! {
    fn vexp_v8(xs: &mut [f64]);
    vexp_avx512 = <Zmm>;
    vexp_avx2 = <YmmPair>;
    vexp_portable = <Lanes>;
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
/// Taylor coefficients `1/k!`, `k = 13` down to `0`, in Horner order.
const EXP_TAYLOR: [f64; 14] = [
    1.6059043836821613e-10,
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
];

/// [`V8::exp`] on one lane, for any CPU: the vector `exp`'s steps on one
/// element — `x log2 e` rounded to nearest, ties to even; the two fused
/// Cody–Waite reduction steps; the fused Horner polynomial; `2^n` in two
/// halves through the exponent bits; the same range fix-ups — so the same
/// bits.
#[inline(always)]
fn exp_lane(x: f64) -> f64 {
    let n = (x * std::f64::consts::LOG2_E).round_ties_even();
    let r = (-n).mul_add(LN2_HI, x);
    let r = (-n).mul_add(LN2_LO, r);
    let p = EXP_TAYLOR[1..].iter().fold(EXP_TAYLOR[0], |p, &c| p.mul_add(r, c));
    // bits(ni + MAGIC) - bits(MAGIC) == ni, shifted into the exponent.
    let pow2_half = |ni: f64| {
        let expo = (ni + MAGIC).to_bits().wrapping_add(1023u64.wrapping_sub(MAGIC.to_bits()));
        f64::from_bits(expo << 52)
    };
    let n1 = (n * 0.5).round_ties_even();
    let res = p * pow2_half(n1) * pow2_half(n - n1);
    if x.is_nan() {
        x
    } else if x > EXP_HI {
        f64::INFINITY
    } else if x < EXP_LO {
        0.0
    } else {
        res
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fused_rows, EXP_HI, EXP_LO, EXP_TAYLOR, LN2_HI, LN2_LO, MAGIC, V8};
    use core::arch::x86_64::*;

    /// [`V8`] in one `zmm`.
    #[derive(Clone, Copy)]
    pub(super) struct Zmm(__m512d);

    impl V8 for Zmm {
        // SAFETY: AVX-512F, which `V8` asks of the caller.
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            Zmm(_mm512_set1_pd(v))
        }
        // SAFETY: as for `splat`, with eight elements at `p`.
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Zmm(_mm512_loadu_pd(p))
        }
        // SAFETY: as for `load`.
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Zmm(_mm512_add_pd(self.0, b.0))
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            Zmm(_mm512_fmadd_pd(self.0, b.0, c.0))
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn reduce_add(self) -> f64 {
            _mm512_reduce_add_pd(self.0)
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn ngt_mask(self, t: Self) -> u8 {
            // Not-greater-than, unordered true: a NaN is flagged.
            _mm512_cmp_pd_mask::<_CMP_NGT_UQ>(self.0, t.0)
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn exp(self) -> Self {
            Zmm(exp8(self.0))
        }
    }

    /// [`V8`] in two `ymm` halves.
    #[derive(Clone, Copy)]
    pub(super) struct YmmPair([__m256d; 2]);

    impl V8 for YmmPair {
        // SAFETY: AVX2+FMA, which `V8` asks of the caller.
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            YmmPair([_mm256_set1_pd(v); 2])
        }
        // SAFETY: as for `splat`, with eight elements at `p`.
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            YmmPair([_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))])
        }
        // SAFETY: as for `load`.
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0[0]);
            _mm256_storeu_pd(p.add(4), self.0[1]);
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            YmmPair([_mm256_add_pd(self.0[0], b.0[0]), _mm256_add_pd(self.0[1], b.0[1])])
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            let (a, b, c) = (self.0, b.0, c.0);
            YmmPair([_mm256_fmadd_pd(a[0], b[0], c[0]), _mm256_fmadd_pd(a[1], b[1], c[1])])
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn reduce_add(self) -> f64 {
            let v = _mm256_add_pd(self.0[0], self.0[1]);
            let q = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
            _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q))
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn ngt_mask(self, t: Self) -> u8 {
            // Not-greater-than, unordered true: a NaN is flagged.
            let lo = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGT_UQ>(self.0[0], t.0[0]));
            let hi = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGT_UQ>(self.0[1], t.0[1]));
            (lo | hi << 4) as u8
        }
        // SAFETY: as for `splat`.
        #[inline(always)]
        unsafe fn exp(self) -> Self {
            YmmPair([exp4(self.0[0]), exp4(self.0[1])])
        }
    }

    /// One `kc` run of the skinny product `A[0..m, 0..kc] * Bp`
    /// (`n <= GEMM_SKINNY_N` columns), reading `A` in place: column-major
    /// with stride `lda`, never packed. `bp` is the `kc x n` right operand
    /// packed row-major (`bp[k * n + j]`). `ct` is an `m x n` accumulator
    /// block packed by 8-row tiles: element `(i, j)` at
    /// `ct[(i / 8) * 8 * n + j * 8 + i % 8]`, rows padded to a multiple of
    /// 8 — one contiguous `8n`-element run per tile, so the accumulator
    /// loads never alias in cache whatever the stride of `C`.
    ///
    /// Each 8-row tile holds its `n` accumulators in `zmm` registers for
    /// the run: from zero if `fresh`, else loaded from `ct`; one FMA per
    /// `k` in ascending order; then stored back to `ct`, or, with
    /// `close = Some((alpha, c, ldc))`, folded into column-major `C` as
    /// `C = fma(acc, alpha, C)`, the packed tiles' update. So an element
    /// is one FMA chain per run of calls from `fresh` to `close`, whose
    /// bits depend on neither `n`, the tile it falls in, nor how the caller
    /// blocks `m`. A last tile of fewer than 8 rows reads `A` and `C` under
    /// a lane mask.
    ///
    /// # Safety
    /// Requires AVX-512F. `1 <= n <= 16`; `a[i + k * lda]` must be
    /// readable for `i < m`, `k < kc`; `bp` must hold `kc * n` elements;
    /// `ct` must hold `m.next_multiple_of(8) * n` writable elements; with
    /// `close`, `c[i + j * ldc]` must be writable for `i < m`, `j < n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn dgemm_skinny_avx512(
        m: usize,
        n: usize,
        kc: usize,
        a: *const f64,
        lda: usize,
        bp: *const f64,
        ct: *mut f64,
        fresh: bool,
        close: Option<(f64, *mut f64, usize)>,
    ) {
        debug_assert!(super::avx512_supported(), "dgemm_skinny_avx512 needs AVX-512F");
        debug_assert!((1..=super::GEMM_SKINNY_N).contains(&n), "skinny n out of range: {n}");
        debug_assert!(m == 0 || kc == 0 || (!a.is_null() && !bp.is_null() && !ct.is_null()));
        debug_assert!(lda >= m || kc <= 1, "A columns would overlap: lda = {lda}, m = {m}");
        match n {
            1 => skinny_panel::<1>(m, kc, a, lda, bp, ct, fresh, close),
            2 => skinny_panel::<2>(m, kc, a, lda, bp, ct, fresh, close),
            3 => skinny_panel::<3>(m, kc, a, lda, bp, ct, fresh, close),
            4 => skinny_panel::<4>(m, kc, a, lda, bp, ct, fresh, close),
            5 => skinny_panel::<5>(m, kc, a, lda, bp, ct, fresh, close),
            6 => skinny_panel::<6>(m, kc, a, lda, bp, ct, fresh, close),
            7 => skinny_panel::<7>(m, kc, a, lda, bp, ct, fresh, close),
            8 => skinny_panel::<8>(m, kc, a, lda, bp, ct, fresh, close),
            9 => skinny_panel::<9>(m, kc, a, lda, bp, ct, fresh, close),
            10 => skinny_panel::<10>(m, kc, a, lda, bp, ct, fresh, close),
            11 => skinny_panel::<11>(m, kc, a, lda, bp, ct, fresh, close),
            12 => skinny_panel::<12>(m, kc, a, lda, bp, ct, fresh, close),
            13 => skinny_panel::<13>(m, kc, a, lda, bp, ct, fresh, close),
            14 => skinny_panel::<14>(m, kc, a, lda, bp, ct, fresh, close),
            15 => skinny_panel::<15>(m, kc, a, lda, bp, ct, fresh, close),
            _ => skinny_panel::<16>(m, kc, a, lda, bp, ct, fresh, close),
        }
    }

    /// The `N`-column instantiation of [`dgemm_skinny_avx512`]: walks the
    /// 8-row tiles of the panel, `N` `zmm` accumulators each.
    ///
    /// # Safety
    /// As [`dgemm_skinny_avx512`], with `n == N`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn skinny_panel<const N: usize>(
        m: usize,
        kc: usize,
        a: *const f64,
        lda: usize,
        bp: *const f64,
        ct: *mut f64,
        fresh: bool,
        close: Option<(f64, *mut f64, usize)>,
    ) {
        let mut i0 = 0;
        while i0 < m {
            let rows = (m - i0).min(8);
            let mask: __mmask8 = if rows == 8 { 0xff } else { (1u8 << rows) - 1 };
            let at = a.add(i0);
            let tile = ct.add(i0 * N);
            let mut acc = [_mm512_setzero_pd(); N];
            if !fresh {
                for (j, accj) in acc.iter_mut().enumerate() {
                    *accj = _mm512_loadu_pd(tile.add(8 * j));
                }
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
            match close {
                None => {
                    for (j, accj) in acc.iter().enumerate() {
                        _mm512_storeu_pd(tile.add(8 * j), *accj);
                    }
                }
                Some((alpha, c, ldc)) => {
                    let va = _mm512_set1_pd(alpha);
                    for (j, accj) in acc.iter().enumerate() {
                        let cj = c.add(i0 + j * ldc);
                        let cv = _mm512_maskz_loadu_pd(mask, cj);
                        _mm512_mask_storeu_pd(cj, mask, _mm512_fmadd_pd(*accj, va, cv));
                    }
                }
            }
            i0 += 8;
        }
    }

    /// Weight `c` of a tile's `cols` live ones, zero past them.
    ///
    /// # Safety
    /// `u[c]` must be readable when `c < cols`.
    #[inline(always)]
    unsafe fn weight(u: *const f64, cols: usize, c: usize) -> f64 {
        if c < cols {
            *u.add(c)
        } else {
            0.0
        }
    }

    /// Vector body of [`super::gsks_dot`] (on every vector host): the 8
    /// rows as two `ymm` halves; per group of four columns a lane-wise
    /// multiply-then-add sum, added to the row accumulators.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `k` must hold 64 readable elements, `u` `cols <= 8`,
    /// `acc` 8 readable and writable ones.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gsks_dot_avx2(k: *const f64, u: *const f64, cols: usize, acc: *mut f64) {
        debug_assert!(super::cpu_supported(), "gsks_dot_avx2 needs AVX2+FMA");
        debug_assert!(cols <= 8 && !k.is_null() && !acc.is_null());
        let (mut a0, mut a1) = (_mm256_loadu_pd(acc), _mm256_loadu_pd(acc.add(4)));
        for g in 0..cols.div_ceil(4) {
            let (mut s0, mut s1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
            for c in 4 * g..4 * g + 4 {
                let uc = _mm256_set1_pd(weight(u, cols, c));
                s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_loadu_pd(k.add(8 * c)), uc));
                s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_loadu_pd(k.add(8 * c + 4)), uc));
            }
            a0 = _mm256_add_pd(a0, s0);
            a1 = _mm256_add_pd(a1, s1);
        }
        _mm256_storeu_pd(acc, a0);
        _mm256_storeu_pd(acc.add(4), a1);
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
    pub(super) unsafe fn dist_epilogue_avx2(g: &mut [f64], rn: &[f64], cn: f64) {
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

    /// Vector dot product with four independent FMA accumulators.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `x` and `y` must have equal lengths (checked by
    /// the safe caller in `blas1`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
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
    pub(crate) unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
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

    /// `ymm` of `x` one pass of [`rank1_update_avx2`] holds in registers
    /// while every column goes by.
    const RANK1_YMM: usize = 4;

    /// Vector body of [`super::rank1_update`]: the fused rows in blocks of
    /// up to 16, four `ymm` of `x` held while every column of `C` goes by —
    /// a load, one FMA and a store per 4 rows of a column; the rest (the
    /// last `m % 4` rows, or all of a vector shorter than 8) multiply then
    /// add, one element at a time — [`axpy_avx2`]'s split exactly.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `x` must hold `m` readable elements; `u[j * cs]`
    /// must be readable and `c[i + j * cs]` readable and writable for
    /// `i < m`, `j < nc`, and no `u[j * cs]` may be one of those `c`
    /// elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn rank1_update_avx2(
        m: usize,
        nc: usize,
        x: *const f64,
        u: *const f64,
        c: *mut f64,
        cs: usize,
    ) {
        debug_assert!(super::cpu_supported(), "rank1_update_avx2 needs AVX2+FMA");
        debug_assert!(!x.is_null() && !u.is_null() && !c.is_null());
        debug_assert!(nc <= 1 || cs >= m, "C columns would overlap: cs = {cs}, m = {m}");
        let fused = fused_rows(m);
        let mut i0 = 0;
        while i0 < fused {
            let quads = ((fused - i0) / 4).min(RANK1_YMM);
            let mut xv = [_mm256_setzero_pd(); RANK1_YMM];
            for (v, xr) in xv.iter_mut().enumerate().take(quads) {
                *xr = _mm256_loadu_pd(x.add(i0 + 4 * v));
            }
            for j in 0..nc {
                let a = -*u.add(j * cs);
                if a == 0.0 {
                    continue;
                }
                let va = _mm256_set1_pd(a);
                let cj = c.add(i0 + j * cs);
                for (v, xr) in xv.iter().enumerate().take(quads) {
                    let p = cj.add(4 * v);
                    _mm256_storeu_pd(p, _mm256_fmadd_pd(va, *xr, _mm256_loadu_pd(p)));
                }
            }
            i0 += 4 * quads;
        }
        if fused < m {
            for j in 0..nc {
                let a = -*u.add(j * cs);
                if a == 0.0 {
                    continue;
                }
                let cj = c.add(j * cs);
                for i in fused..m {
                    *cj.add(i) += a * *x.add(i);
                }
            }
        }
    }

    /// Lanes of row group `g` (rows `8g..8g + 8`) that fall in `lo..hi`.
    #[inline(always)]
    fn lane_span(lo: usize, hi: usize, g: usize) -> __mmask8 {
        let (lo, hi) = (lo.saturating_sub(8 * g).min(8), hi.saturating_sub(8 * g).min(8));
        ((1u32 << hi) - (1u32 << lo)) as __mmask8
    }

    /// AVX-512 body of [`super::subst_in_registers`]: the right-hand sides
    /// four at a time (then singly), each column's `n <= 32` rows in
    /// `⌈n/8⌉` `zmm` for all `n` steps. The steps go in phases of up to
    /// eight, one per row group holding row `j`, so which register row `j`
    /// sits in and which groups a step updates are constants. Per step,
    /// each column's multiplier is its row `j` negated — broadcast out of
    /// its register with a unit diagonal, otherwise carried in scalar,
    /// divided and written back (see [`subst_phase`]) — and the rows the
    /// step updates take a masked FMA where [`fused_rows`] says `axpy`
    /// fuses and a multiply then a masked add where it does not.
    ///
    /// # Safety
    /// Requires AVX-512F. `1 <= n <= 32`; `a[i + j * lda]` must be readable
    /// for `i, j < n`, and `b[i + c * ldb]` readable and writable for
    /// `i < n`, `c < nrhs`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn subst_avx512(
        kind: super::Subst,
        n: usize,
        a: *const f64,
        lda: usize,
        b: *mut f64,
        ldb: usize,
        nrhs: usize,
    ) {
        debug_assert!(super::avx512_supported(), "subst_avx512 needs AVX-512F");
        debug_assert!((1..=super::SUBST_MAX).contains(&n), "triangle out of range: {n}");
        debug_assert!(!a.is_null() && !b.is_null());
        debug_assert!(n == 1 || lda >= n, "A columns would overlap: lda = {lda}, n = {n}");
        debug_assert!(nrhs <= 1 || ldb >= n, "B columns would overlap: ldb = {ldb}, n = {n}");
        match kind {
            super::Subst::Forward { unit: true } => {
                subst_groups::<false, true>(n, a, lda, b, ldb, nrhs)
            }
            super::Subst::Forward { unit: false } => {
                subst_groups::<false, false>(n, a, lda, b, ldb, nrhs)
            }
            super::Subst::Backward => subst_groups::<true, false>(n, a, lda, b, ldb, nrhs),
        }
    }

    /// [`subst_avx512`] for one direction and diagonal: the row-group count.
    ///
    /// # Safety
    /// As [`subst_avx512`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn subst_groups<const BACK: bool, const UNIT: bool>(
        n: usize,
        a: *const f64,
        lda: usize,
        b: *mut f64,
        ldb: usize,
        nrhs: usize,
    ) {
        match n.div_ceil(8) {
            1 => subst_blocks::<1, BACK, UNIT>(n, a, lda, b, ldb, nrhs),
            2 => subst_blocks::<2, BACK, UNIT>(n, a, lda, b, ldb, nrhs),
            3 => subst_blocks::<3, BACK, UNIT>(n, a, lda, b, ldb, nrhs),
            _ => subst_blocks::<4, BACK, UNIT>(n, a, lda, b, ldb, nrhs),
        }
    }

    /// Runs `$body` once for each row group `$g < $groups` (at most 4),
    /// with `$g` a constant: arrays it indexes stay in registers, where a
    /// loop LLVM declines to unroll would move them to the stack.
    macro_rules! each_group {
        ($g:ident < $groups:expr => $body:block) => {{
            {
                let $g = 0usize;
                if $g < $groups $body
            }
            {
                let $g = 1usize;
                if $g < $groups $body
            }
            {
                let $g = 2usize;
                if $g < $groups $body
            }
            {
                let $g = 3usize;
                if $g < $groups $body
            }
        }};
    }

    /// [`subst_avx512`] for a triangle of `G` row groups, forward or
    /// `BACK`, unit diagonal or not: the column blocks, each loaded, taken
    /// through every phase and stored.
    ///
    /// # Safety
    /// As [`subst_avx512`], with `G == ⌈n/8⌉`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn subst_blocks<const G: usize, const BACK: bool, const UNIT: bool>(
        n: usize,
        a: *const f64,
        lda: usize,
        b: *mut f64,
        ldb: usize,
        nrhs: usize,
    ) {
        let mut c = 0;
        while c + 4 <= nrhs {
            subst_cols::<G, 4, BACK, UNIT>(n, a, lda, b.add(c * ldb), ldb);
            c += 4;
        }
        while c < nrhs {
            subst_cols::<G, 1, BACK, UNIT>(n, a, lda, b.add(c * ldb), ldb);
            c += 1;
        }
    }

    /// `C` columns at `b` through all `n` steps, in registers.
    ///
    /// # Safety
    /// As [`subst_avx512`], restricted to these columns.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn subst_cols<const G: usize, const C: usize, const BACK: bool, const UNIT: bool>(
        n: usize,
        a: *const f64,
        lda: usize,
        b: *mut f64,
        ldb: usize,
    ) {
        let mut r = [[_mm512_setzero_pd(); 4]; C];
        for (c, rc) in r.iter_mut().enumerate() {
            each_group!(g < G => {
                rc[g] = _mm512_maskz_loadu_pd(lane_span(0, n, g), b.add(c * ldb + 8 * g));
            });
        }
        // The first step's row j, of every column, as it was loaded.
        let j0 = if BACK { n - 1 } else { 0 };
        let mut row = [0.0; C];
        for (c, v) in row.iter_mut().enumerate() {
            *v = *b.add(c * ldb + j0);
        }
        if BACK {
            subst_phase::<G, C, BACK, UNIT, 3>(&mut r, &mut row, n, a, lda);
            subst_phase::<G, C, BACK, UNIT, 2>(&mut r, &mut row, n, a, lda);
            subst_phase::<G, C, BACK, UNIT, 1>(&mut r, &mut row, n, a, lda);
            subst_phase::<G, C, BACK, UNIT, 0>(&mut r, &mut row, n, a, lda);
        } else {
            subst_phase::<G, C, BACK, UNIT, 0>(&mut r, &mut row, n, a, lda);
            subst_phase::<G, C, BACK, UNIT, 1>(&mut r, &mut row, n, a, lda);
            subst_phase::<G, C, BACK, UNIT, 2>(&mut r, &mut row, n, a, lda);
            subst_phase::<G, C, BACK, UNIT, 3>(&mut r, &mut row, n, a, lda);
        }
        for (c, rc) in r.iter().enumerate() {
            each_group!(g < G => {
                _mm512_mask_storeu_pd(b.add(c * ldb + 8 * g), lane_span(0, n, g), rc[g]);
            });
        }
    }

    /// The steps whose row `j` lies in row group `JG`, in step order, on a
    /// block of `C` columns in registers. With a unit diagonal a step takes
    /// each column's multiplier straight out of register `JG`. Otherwise
    /// the chain from one step to the next runs through a division, and
    /// `row` carries each column's row `j` in scalar: a step divides it and
    /// writes it back, then works out the next step's row from the
    /// register's value before its own update — the operation the vector
    /// lane gets, so the same bits — keeping the register round trip off
    /// that chain. Then the step branches once per row group for the whole
    /// block; a zero multiplier masks its column out.
    ///
    /// # Safety
    /// As [`subst_avx512`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn subst_phase<
        const G: usize,
        const C: usize,
        const BACK: bool,
        const UNIT: bool,
        const JG: usize,
    >(
        r: &mut [[__m512d; 4]; C],
        row: &mut [f64; C],
        n: usize,
        a: *const f64,
        lda: usize,
    ) {
        if JG >= G {
            return;
        }
        // The group after JG in step order, where a phase's last step
        // finds the next step's row.
        const fn beyond(jg: usize, back: bool) -> usize {
            if back {
                jg.saturating_sub(1)
            } else if jg < 3 {
                jg + 1
            } else {
                3
            }
        }
        let rows = (n - 8 * JG).min(8);
        for t in 0..rows {
            let jl = if BACK { rows - 1 - t } else { t };
            let j = 8 * JG + jl;
            let col = a.add(j * lda);
            // The rows this step's axpy covers, and the ones it fuses, as
            // bit sets over the triangle's rows.
            let (lo, hi) = if BACK { (0, j) } else { (j + 1, n) };
            let fused = lo + fused_rows(hi - lo);
            let bits = |l: usize, h: usize| ((1u64 << h) - (1u64 << l)) as u32;
            let (fb, ub) = (bits(lo, fused), bits(fused, hi));
            let mut va = [_mm512_setzero_pd(); C];
            if UNIT {
                let (pick, sign) = (_mm512_set1_epi64(jl as i64), _mm512_set1_epi64(i64::MIN));
                for (rc, v) in r.iter().zip(va.iter_mut()) {
                    // Row j in every lane, negated: the multiplier.
                    let bj = _mm512_castpd_si512(_mm512_permutexvar_pd(pick, rc[JG]));
                    *v = _mm512_castsi512_pd(_mm512_xor_si512(bj, sign));
                }
            } else {
                // The next step's row `i`: the first (last) this one updates.
                let has_next = if BACK { j > 0 } else { j + 1 < n };
                let i = if BACK { j.wrapping_sub(1) } else { j + 1 };
                let (xi, fuse_i) = if has_next { (*col.add(i), i < fused) } else { (0.0, false) };
                let (same, pick) = (has_next && i / 8 == JG, _mm512_set1_epi64((i % 8) as i64));
                for ((rc, bj), v) in r.iter_mut().zip(row.iter_mut()).zip(va.iter_mut()) {
                    let src = _mm512_mask_mov_pd(
                        rc[beyond(JG, BACK)],
                        if same { 0xff } else { 0 },
                        rc[JG],
                    );
                    let bi = _mm512_cvtsd_f64(_mm512_permutexvar_pd(pick, src));
                    *bj /= *col.add(j);
                    rc[JG] = _mm512_mask_broadcastsd_pd(rc[JG], 1 << jl, _mm_set_sd(*bj));
                    let al = -*bj;
                    *bj = if al == 0.0 {
                        bi
                    } else if fuse_i {
                        al.mul_add(xi, bi)
                    } else {
                        bi + al * xi
                    };
                    *v = _mm512_set1_pd(al);
                }
            }
            let alpha = va.map(|v| _mm512_cvtsd_f64(v));
            if alpha.iter().all(|&al| al != 0.0) {
                subst_update::<G, C, BACK, JG>(r, &va, [0xff; C], col, fb, ub);
            } else {
                let live = alpha.map(|al| if al != 0.0 { 0xff } else { 0 });
                subst_update::<G, C, BACK, JG>(r, &va, live, col, fb, ub);
            }
        }
    }

    /// The update of one step of [`subst_phase`]: the rows in `fb` take a
    /// masked FMA and those in `ub` a multiply then a masked add, in the
    /// columns `live` lets through; `col` is column `j` of `a`. Only the
    /// groups on the updated side of group `JG` can hold such rows.
    ///
    /// # Safety
    /// Requires AVX-512F; `col[i]` readable for every row in `fb | ub`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn subst_update<const G: usize, const C: usize, const BACK: bool, const JG: usize>(
        r: &mut [[__m512d; 4]; C],
        va: &[__m512d; C],
        live: [__mmask8; C],
        col: *const f64,
        fb: u32,
        ub: u32,
    ) {
        each_group!(g < G => {
            let (kf, ku) = ((fb >> (8 * g)) as u8, (ub >> (8 * g)) as u8);
            if (if BACK { g <= JG } else { g >= JG }) && kf | ku != 0 {
                let x = _mm512_maskz_loadu_pd(kf | ku, col.add(8 * g));
                if kf != 0 {
                    for ((rc, &a), &l) in r.iter_mut().zip(va).zip(&live) {
                        rc[g] = _mm512_mask3_fmadd_pd(a, x, rc[g], kf & l);
                    }
                }
                if ku != 0 {
                    for ((rc, &a), &l) in r.iter_mut().zip(va).zip(&live) {
                        rc[g] = _mm512_mask_add_pd(rc[g], ku & l, rc[g], _mm512_mul_pd(a, x));
                    }
                }
            }
        });
    }

    /// `y += alpha * A * x` for column-major `A` (`m x n`, stride `lda`),
    /// blocked four columns at a time so each load of `y` amortizes four
    /// column FMAs.
    ///
    /// # Safety
    /// Requires AVX2+FMA. `a` must expose `lda*(n-1)+m` elements, `x` at
    /// least `n`, `y` at least `m`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dgemv_add_avx2(
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
        let mut p = _mm256_set1_pd(EXP_TAYLOR[0]);
        for c in &EXP_TAYLOR[1..] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(*c));
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

    /// [`exp4`] on eight lanes: the same reduction, polynomial, two-step
    /// exponent insertion and range fix-ups, instruction for instruction,
    /// so every lane gives the bits [`exp4`] gives.
    ///
    /// # Safety
    /// `#[target_feature]`: the caller must have verified AVX-512F support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn exp8(x: __m512d) -> __m512d {
        const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        let n = _mm512_roundscale_pd::<NEAREST>(_mm512_mul_pd(
            x,
            _mm512_set1_pd(std::f64::consts::LOG2_E),
        ));
        let r = _mm512_fnmadd_pd(n, _mm512_set1_pd(LN2_HI), x);
        let r = _mm512_fnmadd_pd(n, _mm512_set1_pd(LN2_LO), r);
        let mut p = _mm512_set1_pd(EXP_TAYLOR[0]);
        for c in &EXP_TAYLOR[1..] {
            p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(*c));
        }
        let magic_bits = MAGIC.to_bits() as i64;
        let n1 = _mm512_roundscale_pd::<NEAREST>(_mm512_mul_pd(n, _mm512_set1_pd(0.5)));
        let n2 = _mm512_sub_pd(n, n1);
        let pow2_half = |ni: __m512d| {
            let nb = _mm512_castpd_si512(_mm512_add_pd(ni, _mm512_set1_pd(MAGIC)));
            let expo = _mm512_add_epi64(nb, _mm512_set1_epi64(1023 - magic_bits));
            _mm512_castsi512_pd(_mm512_slli_epi64::<52>(expo))
        };
        let res = _mm512_mul_pd(_mm512_mul_pd(p, pow2_half(n1)), pow2_half(n2));
        let low = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, _mm512_set1_pd(EXP_LO));
        let res = _mm512_mask_blend_pd(low, res, _mm512_setzero_pd());
        let high = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(x, _mm512_set1_pd(EXP_HI));
        let res = _mm512_mask_blend_pd(high, res, _mm512_set1_pd(f64::INFINITY));
        _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_UNORD_Q>(x, x), res, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_flags() {
        // Every test that flips the switch in this binary holds SIMD_MODE
        // and puts it back, so `before` is the default: on whenever the CPU
        // has the kernels.
        let _mode = SIMD_MODE.lock().unwrap_or_else(|e| e.into_inner());
        let before = active();
        assert_eq!(before, cpu_supported());
        // The override wins over the default; cpu_supported is fixed.
        set_simd_enabled(false);
        assert!(!active());
        set_simd_enabled(true);
        assert_eq!(active(), cpu_supported());
        set_simd_enabled(before);
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
        // The subnormal range flushes to zero (absolute error < 2.5e-308).
        assert_eq!(xs[6], 0.0);
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

    /// Uniform values in `[-1, 1)` from a seeded LCG.
    fn lcg_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One body of [`gsks_gram`] on one pair of row groups: its two tiles.
    fn gram_body(body: &str, xg: [&[f64]; 2], ys: &[f64], d: usize) -> [[f64; 64]; 2] {
        // Poisoned, so a value the body fails to write is seen.
        let mut out = [[f64::NAN; 64]; 2];
        let [o0, o1] = &mut out;
        let (x0, x1, y) = (xg[0].as_ptr(), xg[1].as_ptr(), ys.as_ptr());
        let (p0, p1) = (o0.as_mut_ptr(), o1.as_mut_ptr());
        match body {
            // SAFETY: every operand holds 8 x d elements, the tiles are two.
            "portable" => unsafe { gsks_gram_portable(d, x0, x1, y, p0, p1) },
            "wrapper" => gsks_gram(xg, ys, d, [o0, o1]),
            // SAFETY: as for the portable body; `bodies` lists a vector
            // body only when the CPU supports it.
            #[cfg(target_arch = "x86_64")]
            "avx2" => unsafe { gsks_gram_avx2(d, x0, x1, y, p0, p1) },
            // SAFETY: as for the AVX2 body.
            #[cfg(target_arch = "x86_64")]
            "avx512" => unsafe { gsks_gram_avx512(d, x0, x1, y, p0, p1) },
            other => panic!("unknown body {other} ({x0:?}, {y:?}, {p0:?})"),
        }
        out
    }

    #[test]
    fn gsks_gram_bodies_agree_bitwise() {
        for d in (0..=70usize).chain([130]) {
            // Two row groups packed back to back, as a band packs them.
            let xs = lcg_values(16 * d, d as u64 + 1);
            let (x0, x1) = xs.split_at(8 * d);
            // The sources sit inside a wider window, as a point set's do.
            let window = lcg_values(8 * d + 3 * d + 5, d as u64 + 77);
            let ys = &window[2 * d + 1..];
            // One fused chain from 0 per value, in ascending k: the 8 x 8
            // tile of one group.
            let chain = |xg: &[f64]| -> Vec<u64> {
                let tile: Vec<f64> = (0..64)
                    .map(|i| {
                        (0..d).fold(0.0, |s, k| xg[k * 8 + i % 8].mul_add(ys[i / 8 * d + k], s))
                    })
                    .collect();
                bits(&tile)
            };
            let want = [chain(x0), chain(x1)];
            for body in bodies() {
                let [t0, t1] = gram_body(body, [x0, x1], ys, d);
                assert_eq!(bits(&t0), want[0], "{body} d={d}: group 0");
                assert_eq!(bits(&t1), want[1], "{body} d={d}: group 1");
                // An odd last group, paired with itself.
                let [t0, t1] = gram_body(body, [x1, x1], ys, d);
                assert_eq!(bits(&t0), want[1], "{body} d={d}: self-pair, first");
                assert_eq!(bits(&t1), want[1], "{body} d={d}: self-pair, second");
            }
        }
    }

    #[test]
    fn gsks_dot_bodies_agree_bitwise() {
        for cols in 0..=8usize {
            for seed in 0..6u64 {
                let k = lcg_values(64, seed * 31 + cols as u64);
                let k: [f64; 64] = k.try_into().expect("one tile");
                let u = lcg_values(cols, seed + 1000);
                let acc0: [f64; 8] = lcg_values(8, seed + 7).try_into().expect("8 lanes");
                let mut want = acc0;
                for g in 0..cols.div_ceil(4) {
                    for (r, a) in want.iter_mut().enumerate() {
                        let mut s = 0.0;
                        for c in 4 * g..4 * g + 4 {
                            s += k[c * 8 + r] * u.get(c).copied().unwrap_or(0.0);
                        }
                        *a += s;
                    }
                }
                // `gsks_dot` has no AVX-512 body.
                for body in bodies().into_iter().filter(|&b| b != "avx512") {
                    let mut acc = acc0;
                    let (kp, up, ap) = (k.as_ptr(), u.as_ptr(), acc.as_mut_ptr());
                    match body {
                        "portable" => gsks_dot_portable(&k, &u, &mut acc),
                        "wrapper" => gsks_dot(&k, &u, &mut acc),
                        // SAFETY: `u` holds `cols` weights, `k` one tile;
                        // the vector body is listed only when supported.
                        #[cfg(target_arch = "x86_64")]
                        "avx2" => unsafe { x86::gsks_dot_avx2(kp, up, cols, ap) },
                        other => panic!("unknown body {other} ({kp:?}, {up:?}, {ap:?})"),
                    }
                    assert_eq!(bits(&acc), bits(&want), "{body} cols={cols} seed={seed}");
                }
            }
        }
    }

    /// The run contraction's bodies on one case. `W` is rows `1..1 + rows`
    /// of a poisoned 19-row matrix (`col_stride` 19 > 16 rows), `U` rows
    /// `2..2 + cols` of `u` (`col_stride` > 32 columns); `k` holds the run
    /// as [`gsks_contract_run`] reads it. A lane's body is given the full
    /// row groups only, as the wrapper gives it them.
    fn contract_run_body(
        body: &str,
        k: &[f64],
        u: &crate::Mat,
        w0: &crate::Mat,
        rows: usize,
        cols: usize,
    ) -> crate::Mat {
        let nrhs = u.ncols();
        let span = cols.div_ceil(8) * 64;
        let mut w = w0.clone();
        let uv = u.submatrix(2..2 + cols, 0..nrhs);
        let full = if body == "wrapper" { rows } else { rows / 8 * 8 };
        let mut wv = w.rb_mut().submatrix_mut(1..1 + full, 0..nrhs);
        let (kp, up, us, ws) = (k.as_ptr(), uv.as_ptr(), uv.col_stride(), wv.col_stride());
        let (wp, g) = (wv.as_mut_ptr(), full / 8);
        match body {
            "wrapper" => gsks_contract_run(k, uv, wv),
            // SAFETY: `W` is `g` whole row groups and `U` cols x nrhs inside
            // their matrices, `k` holds a run of `span` per group; a body is
            // called only with at least one group and one column.
            "portable" => unsafe {
                gsks_contract_run_portable(kp, span, g, cols, nrhs, up, us, wp, ws)
            },
            // SAFETY: as for the portable body; `bodies` lists a vector body
            // only when the CPU supports it.
            #[cfg(target_arch = "x86_64")]
            "avx2" => unsafe { gsks_contract_run_avx2(kp, span, g, cols, nrhs, up, us, wp, ws) },
            // SAFETY: as for the AVX2 body.
            #[cfg(target_arch = "x86_64")]
            "avx512" => unsafe {
                gsks_contract_run_avx512(kp, span, g, cols, nrhs, up, us, wp, ws)
            },
            other => panic!("unknown body {other}"),
        }
        w
    }

    /// Bits, with every NaN one value: which NaN an FMA returns is the
    /// hardware's choice, not the chain's.
    fn nan_bits(x: f64) -> u64 {
        if x.is_nan() {
            u64::MAX
        } else {
            x.to_bits()
        }
    }

    #[test]
    fn gsks_contract_bodies_agree_bitwise_on_strided_views() {
        // Weights: seeded values, with ±0, NaN and ±inf in every fifth
        // right-hand side (the rest stay finite, so a wrong chain cannot
        // hide behind a NaN) and only +0 in another fifth. Those start
        // from W = -0 and meet K values that are negative in row 3 of a
        // group (W stays -0 over the live columns) but positive, or +inf
        // in row 7, in the padding columns: a body that skips the padding,
        // or pads with -0, gives other bits.
        let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let nrhs_set: Vec<usize> = (1..=30).chain([64, 128, 192]).collect();
        for &nrhs in &nrhs_set {
            let vals = lcg_values(37 * nrhs, nrhs as u64);
            let u = crate::Mat::from_fn(37, nrhs, |i, j| {
                if j % 5 == 3 && i % 3 == 1 {
                    special[(i / 3 + j) % special.len()]
                } else if j % 5 == 4 {
                    0.0
                } else {
                    vals[j * 37 + i]
                }
            });
            // Poison outside W (a NaN payload and a finite value); inside,
            // seeded starting values with some -0.0 among them.
            let start = lcg_values(19 * nrhs, nrhs as u64 + 500);
            let w0 = crate::Mat::from_fn(19, nrhs, |i, j| match i {
                0 => f64::from_bits(0x7ff8_dead_beef_0001),
                17 | 18 => 1234.5,
                _ if (i + j) % 7 == 0 || j % 5 == 4 => -0.0,
                _ => start[j * 19 + i],
            });
            for cols in 0..=32usize {
                let span = cols.div_ceil(8) * 64;
                let mut k = lcg_values(2 * span, (nrhs * 33 + cols) as u64);
                for (i, v) in k.iter_mut().enumerate() {
                    let pad = i % span / 8 >= cols;
                    match i % 8 {
                        3 if pad => *v = v.abs(),
                        3 => *v = -v.abs(),
                        7 if pad => *v = f64::INFINITY,
                        _ => {}
                    }
                }
                for rows in 1..=16usize {
                    let what = format!("nrhs={nrhs} cols={cols} rows={rows}");
                    // Row `r` of W against source column `c`.
                    let kv = |r: usize, c: usize| k[r / 8 * span + c * 8 + r % 8];
                    let fused = |r: usize, t: usize| {
                        (0..cols.next_multiple_of(4)).fold(w0[(1 + r, t)], |w, c| {
                            kv(r, c).mul_add(if c < cols { u[(2 + c, t)] } else { 0.0 }, w)
                        })
                    };
                    let grouped = |r: usize, t: usize| {
                        (0..cols.div_ceil(4)).fold(w0[(1 + r, t)], |w, g| {
                            w + (4 * g..(4 * g + 4).min(cols))
                                .fold(0.0, |s, c| s + kv(r, c) * u[(2 + c, t)])
                        })
                    };
                    let full = rows / 8 * 8;
                    for body in bodies() {
                        let lane = body != "wrapper";
                        if lane && (full == 0 || cols == 0) {
                            continue; // a lane's body takes whole row groups of a run only
                        }
                        let got = contract_run_body(body, &k, &u, &w0, rows, cols);
                        for t in 0..nrhs {
                            for i in 0..19usize {
                                let want = match i.checked_sub(1) {
                                    Some(r) if r < rows && cols > 0 => {
                                        if r < full {
                                            fused(r, t)
                                        } else if lane {
                                            w0[(i, t)] // the partial group is the wrapper's
                                        } else {
                                            grouped(r, t)
                                        }
                                    }
                                    _ => w0[(i, t)],
                                };
                                assert_eq!(
                                    nan_bits(got[(i, t)]),
                                    nan_bits(want),
                                    "{what}: {body} ({i},{t}) {} vs {want}",
                                    got[(i, t)]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn vexp_lanes_agree_bitwise() {
        // Every body this host runs against the portable one, at the
        // special values and at every tail of 1–7.
        let ulp = |x: f64, up: bool| {
            let b = x.to_bits() as i64;
            f64::from_bits((if (x > 0.0) == up { b + 1 } else { b - 1 }) as u64)
        };
        let (hi, lo) = (EXP_HI, EXP_LO);
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            hi,
            ulp(hi, true),
            ulp(hi, false),
            lo,
            ulp(lo, true),
            ulp(lo, false),
            // The subnormal range, flushed to zero.
            -720.0,
            -745.0,
            -708.5,
            1e-300,
            -1e-300,
            709.5,
        ];
        xs.extend(lcg_values(997, 42).iter().map(|v| v * 710.0));
        // Every length up to two vectors and a bit, so every tail of 1–7,
        // then the whole sweep.
        let spans: Vec<_> = (0..=19usize)
            .flat_map(|len| [0usize, 5, 11].map(|at| at..at + len))
            .chain(std::iter::once(0..xs.len()))
            .collect();
        for span in spans {
            let run = |body: &str| {
                let mut v = xs[span.clone()].to_vec();
                match body {
                    "wrapper" => vexp(&mut v),
                    // SAFETY: the portable lanes need no CPU feature.
                    "portable" => unsafe { vexp_portable(&mut v) },
                    // SAFETY: `bodies` lists a vector body only when the CPU
                    // supports it.
                    #[cfg(target_arch = "x86_64")]
                    "avx2" => unsafe { vexp_avx2(&mut v) },
                    // SAFETY: as for the AVX2 body.
                    #[cfg(target_arch = "x86_64")]
                    "avx512" => unsafe { vexp_avx512(&mut v) },
                    other => panic!("unknown body {other}"),
                }
                v
            };
            let want = run("portable");
            for body in bodies() {
                assert_eq!(bits(&run(body)), bits(&want), "{body} at {span:?}");
            }
            if span.len() == xs.len() {
                assert_eq!(want[12], 0.0, "the subnormal range flushes to zero");
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

        /// Masks of one body under per-query thresholds `thr` (length `m`)
        /// alone: every candidate threshold `−∞`.
        fn run(&self, body: &str, thr: &[f64]) -> Vec<usize> {
            self.run2(body, thr, &vec![f64::NEG_INFINITY; self.nc])
        }

        /// Masks of one body under per-query thresholds `thr` (length `m`)
        /// ORed with per-candidate ones `cthr` (length `nc`).
        fn run2(&self, body: &str, thr: &[f64], cthr: &[f64]) -> Vec<usize> {
            let rows = self.m.next_multiple_of(DIST_FILTER_MR);
            let mut t = vec![f64::NEG_INFINITY; rows];
            t[..self.m].copy_from_slice(thr);
            // Poisoned, so a word the body fails to write is seen.
            let mut masks = vec![usize::MAX; rows / DIST_FILTER_MR * self.nc];
            let (m, d, nc) = (self.m, self.d, self.nc);
            match body {
                // SAFETY: the buffers were sized to the layout contract just
                // above.
                "portable" => unsafe {
                    dist_filter_portable(
                        d,
                        m,
                        nc,
                        self.qpack.as_ptr(),
                        self.qn.as_ptr(),
                        t.as_ptr(),
                        self.cand.as_ptr(),
                        self.cn.as_ptr(),
                        cthr.as_ptr(),
                        masks.as_mut_ptr(),
                    )
                },
                "wrapper" => dist_filter(
                    m,
                    &self.qpack,
                    &self.qn,
                    &t,
                    &self.cand,
                    &self.cn,
                    cthr,
                    &mut masks,
                ),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the buffers were sized to the layout contract just
                // above; `bodies` lists a vector body only when the
                // CPU supports it.
                "avx2" => unsafe {
                    dist_filter_avx2(
                        d,
                        m,
                        nc,
                        self.qpack.as_ptr(),
                        self.qn.as_ptr(),
                        t.as_ptr(),
                        self.cand.as_ptr(),
                        self.cn.as_ptr(),
                        cthr.as_ptr(),
                        masks.as_mut_ptr(),
                    )
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as for the AVX2 body.
                "avx512" => unsafe {
                    dist_filter_avx512(
                        d,
                        m,
                        nc,
                        self.qpack.as_ptr(),
                        self.qn.as_ptr(),
                        t.as_ptr(),
                        self.cand.as_ptr(),
                        self.cn.as_ptr(),
                        cthr.as_ptr(),
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
    fn bodies() -> Vec<&'static str> {
        let mut bodies = vec!["portable", "wrapper"];
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
        // Padding rows of the last group stay clear even under +inf, on
        // either side.
        let last = (m - 1) / DIST_FILTER_MR;
        let full = |masks: &[usize], side: &str| {
            for (w, &word) in masks.iter().enumerate() {
                let rows = if w / nc == last { m - last * DIST_FILTER_MR } else { DIST_FILTER_MR };
                assert_eq!(word, (1usize << rows) - 1, "{what}: word {w} under +inf {side}");
            }
        };
        full(&case.run(body, &vec![f64::INFINITY; m]), "per query");
        full(&case.run2(body, &vec![f64::NEG_INFINITY; m], &vec![f64::INFINITY; nc]), "per cand");

        // Two-sided: query i's threshold as above, candidate j's its
        // distance to query (j % m). A pair clearly under either is
        // flagged; one clearly over both is not.
        let cthr: Vec<f64> = (0..nc).map(|j| case.reference[(j % m) * nc + j]).collect();
        let masks = case.run2(body, &thr, &cthr);
        for (i, &t) in thr.iter().enumerate() {
            for (j, &ct) in cthr.iter().enumerate() {
                let (r, b) = (case.reference[i * nc + j], case.bound(i, j));
                if r < t - b || r < ct - b {
                    assert!(case.bit(&masks, i, j), "{what}: ({i},{j}) dropped, two-sided");
                }
                if r > t + b && r > ct + b {
                    assert!(!case.bit(&masks, i, j), "{what}: ({i},{j}) flagged, two-sided");
                }
            }
        }
        for (w, &word) in masks.iter().enumerate() {
            let rows = if w / nc == last { m - last * DIST_FILTER_MR } else { DIST_FILTER_MR };
            assert_eq!(word >> rows, 0, "{what}: padding bit in word {w}, two-sided");
        }
    }

    #[test]
    fn dist_filter_flags_every_pair_under_threshold_and_no_padding() {
        // m off the 8- and 16-row tiles, nc off the 4-column one, clouds at
        // the origin and far from it.
        for body in bodies() {
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
        for body in bodies() {
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

    #[test]
    fn dist_filter_bodies_give_the_same_masks() {
        // The grid of the mask contract test; thresholds at each candidate's
        // reference distance and one ulp either side, where two bodies'
        // rounding would show, and ±inf.
        for d in [1usize, 3, 8, 16, 54, 64] {
            for nc in [0usize, 1, 3, 4, 5, 127] {
                for (m, shift) in [(1usize, 0.0), (7, 1e7), (9, 0.0), (20, 1e7), (33, 0.0)] {
                    let case = FilterCase::new(m, d, nc, 1.0, shift, (d * 131 + nc) as u64);
                    let mut thrs = vec![vec![f64::INFINITY; m], vec![f64::NEG_INFINITY; m]];
                    for j in 0..nc {
                        let at: Vec<f64> = (0..m).map(|i| case.reference[i * nc + j]).collect();
                        thrs.push(at.iter().map(|t| t.next_up()).collect());
                        thrs.push(at.iter().map(|t| t.next_down()).collect());
                        thrs.push(at);
                    }
                    for (t, thr) in thrs.iter().enumerate() {
                        let want = case.run("portable", thr);
                        for body in bodies() {
                            let got = case.run(body, thr);
                            assert_eq!(got, want, "{body} d={d} nc={nc} m={m} threshold set {t}");
                        }
                    }
                    // Two-sided: candidate j's threshold at its reference
                    // distance to query (j % m), and one ulp either side,
                    // against each query set — the OR is where the lanes
                    // could part.
                    let at: Vec<f64> = (0..nc).map(|j| case.reference[(j % m) * nc + j]).collect();
                    let cthrs = [
                        at.iter().map(|t| t.next_up()).collect::<Vec<_>>(),
                        at.iter().map(|t| t.next_down()).collect(),
                        at,
                        vec![f64::INFINITY; nc],
                    ];
                    for (t, thr) in thrs.iter().enumerate() {
                        for (u, cthr) in cthrs.iter().enumerate() {
                            let want = case.run2("portable", thr, cthr);
                            for body in bodies() {
                                let got = case.run2(body, thr, cthr);
                                let what = format!("threshold sets {t} / {u}");
                                assert_eq!(got, want, "{body} d={d} nc={nc} m={m} {what}");
                            }
                        }
                    }
                }
            }
        }
    }
}
