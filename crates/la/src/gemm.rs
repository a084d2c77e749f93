//! Level-3 BLAS-style blocked matrix-matrix multiply.
//!
//! The implementation follows the BLIS/GotoBLAS structure the paper's GSKS
//! kernel builds on: the operands are packed into cache-resident panels of
//! `MR` rows and `NR` columns and multiplied by register-tile microkernels —
//! the AVX2 `8 x 6` tile on any panel and, with AVX-512, a `16 x 12` tile on
//! two A panels by two B panels — with rayon parallelism across disjoint
//! column or row panels of `C`. A right operand of at most 16 columns takes
//! an unpacked AVX-512 path instead, where the CPU has it.
//!
//! Every element of `C` gets one chain on every path, SIMD on or off:
//! `beta` applied up front, then per KC block one FMA chain from zero in
//! ascending `k` and one fused update `C = fma(acc, alpha, C)`. Full tiles,
//! edge tiles, the `16 x 12` tile, the skinny path and the portable tiles
//! all give it, so which one ran never shows in the bits.

use crate::mat::{MatMut, MatRef};
use crate::simd::Lane;

/// Whether an operand is used as-is or transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Rows of one packed A panel: the AVX2 tile's height, two 4-wide `ymm`
/// per column. The AVX-512 tile reads two consecutive panels, 16 rows as
/// two 8-wide `zmm` per column.
const MR: usize = crate::simd::GEMM_MR;
/// Columns of one packed B panel: 6 columns x 2 row vectors leave 12 of
/// the 16 `ymm` registers as accumulators, the BLIS-style 8x6
/// double-precision tiling for AVX2. The AVX-512 tile reads two
/// consecutive panels, 24 of the 32 `zmm` registers as accumulators.
const NR: usize = crate::simd::GEMM_NR;
/// Cache block sizes (L2-ish for A panel, L1-ish for the k dimension).
const MC: usize = 256;
const KC: usize = 256;
/// Column-panel width for parallel splitting.
const NC_PAR: usize = 512;
/// Minimum row count before a tall-skinny product splits over rows.
const MC_PAR: usize = 2 * MC;

/// Cumulative column- and row-panel parallel splits, for tests asserting
/// the parallelization policy (tall-skinny products split over rows; GEMMs
/// issued from inside an already-parallel rayon scope stay serial).
static COL_SPLITS: AtomicUsize = AtomicUsize::new(0);
static ROW_SPLITS: AtomicUsize = AtomicUsize::new(0);

use std::sync::atomic::{AtomicUsize, Ordering};

/// `(column_splits, row_splits)` performed since process start.
#[doc(hidden)]
pub fn par_split_counts() -> (usize, usize) {
    (COL_SPLITS.load(Ordering::Relaxed), ROW_SPLITS.load(Ordering::Relaxed))
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// The parallelization decision is made once per top-level call: a GEMM
/// issued from inside an already-parallel rayon scope (a pool worker, i.e.
/// `rayon::current_thread_index()` is `Some`) runs serially, because the
/// outer loop already owns the cores; a GEMM issued from outside the pool
/// recursively bisects `C` — over columns for wide products, over
/// MC-aligned row panels for tall-skinny ones (`n <= NC_PAR`).
///
/// # Panics
/// Panics on dimension mismatch between `op(A)`, `op(B)` and `C`.
pub fn gemm(
    alpha: f64,
    a: MatRef<'_>,
    ta: Trans,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    c: MatMut<'_>,
) {
    let k = inner_dim(a, ta, b, tb, &c);
    let parallel = rayon::current_num_threads() > 1 && rayon::current_thread_index().is_none();
    gemm_parallel(alpha, a, ta, b, tb, beta, c, k, parallel);
}

/// Checks `op(A)`, `op(B)` and `C` against each other; returns `k`.
fn inner_dim(a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans, c: &MatMut<'_>) -> usize {
    let (m, ka) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(ka, kb, "gemm: inner dimension mismatch");
    assert_eq!(c.nrows(), m, "gemm: C row mismatch");
    assert_eq!(c.ncols(), n, "gemm: C col mismatch");
    ka
}

/// The packed serial path, whatever the shape: the reference the skinny
/// path is tested and benchmarked against.
#[doc(hidden)]
pub fn gemm_packed(
    alpha: f64,
    a: MatRef<'_>,
    ta: Trans,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    c: MatMut<'_>,
) {
    let k = inner_dim(a, ta, b, tb, &c);
    gemm_blocked(alpha, a, ta, b, tb, beta, c, k, crate::simd::lane());
}

/// Convenience wrapper: returns `A * B` as a new matrix.
///
/// The result buffer comes from the workspace pool without zero-filling
/// (the `beta = 0` path of the blocked kernel overwrites it), saving both
/// an allocation and a redundant memset per call.
pub fn matmul(a: &crate::mat::Mat, b: &crate::mat::Mat) -> crate::mat::Mat {
    matmul_op(a, Trans::No, b, Trans::No)
}

/// Convenience wrapper: returns `op(A) * op(B)` as a new matrix.
pub fn matmul_op(
    a: &crate::mat::Mat,
    ta: Trans,
    b: &crate::mat::Mat,
    tb: Trans,
) -> crate::mat::Mat {
    let (m, _) = op_shape(a.rb(), ta);
    let (_, n) = op_shape(b.rb(), tb);
    let buf = crate::workspace::take(m * n).detach();
    let mut c = crate::mat::Mat::from_col_major(m, n, buf);
    gemm(1.0, a.rb(), ta, b.rb(), tb, 0.0, c.rb_mut());
    c
}

fn op_shape(a: MatRef<'_>, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    }
}

/// Recursively bisects `C` into disjoint panels multiplied in parallel;
/// each leaf panel is handled by the serial blocked kernel. Wide products
/// (`n > NC_PAR`) split over NR-aligned column panels (with the matching
/// columns of `op(B)`); tall-skinny products (`n <= NC_PAR`, `m >= MC_PAR`)
/// split over MC-aligned row panels (with the matching rows of `op(A)`),
/// which is the shape the skeletonized sample blocks and telescoped
/// right-hand sides produce. Panels are disjoint — `split_at_col` /
/// `split_at_row` — so this is race-free by construction.
///
/// `parallel` is decided once at the top-level [`gemm`] entry (nested
/// GEMMs stay serial) and inherited by the recursive calls issued from
/// inside `rayon::join`, so the bisection itself still fans out.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    alpha: f64,
    a: MatRef<'_>,
    ta: Trans,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    c: MatMut<'_>,
    k: usize,
    parallel: bool,
) {
    let m = c.nrows();
    let n = c.ncols();
    if parallel && n > NC_PAR {
        COL_SPLITS.fetch_add(1, Ordering::Relaxed);
        let half = (n / 2).div_ceil(NR) * NR;
        let half = half.min(n);
        let (cl, cr) = c.split_at_col(half);
        let (bl, br) = match tb {
            Trans::No => (b.submatrix(0..k, 0..half), b.submatrix(0..k, half..n)),
            Trans::Yes => (b.submatrix(0..half, 0..k), b.submatrix(half..n, 0..k)),
        };
        rayon::join(
            || gemm_parallel(alpha, a, ta, bl, tb, beta, cl, k, parallel),
            || gemm_parallel(alpha, a, ta, br, tb, beta, cr, k, parallel),
        );
    } else if parallel && m >= MC_PAR {
        ROW_SPLITS.fetch_add(1, Ordering::Relaxed);
        // MC-aligned midpoint: both halves stay multiples of the cache
        // block except possibly the last, mirroring the serial ic loop.
        // Clamped to the largest MC multiple below m so the invariant
        // survives `m / 2` rounding up past `m` (m >= MC_PAR = 2*MC, so
        // the clamp is always a positive multiple of MC).
        let half = (m / 2).next_multiple_of(MC).min((m - 1) / MC * MC);
        let (ct, cb) = c.split_at_row(half);
        let (at, ab) = match ta {
            Trans::No => (a.submatrix(0..half, 0..k), a.submatrix(half..m, 0..k)),
            Trans::Yes => (a.submatrix(0..k, 0..half), a.submatrix(0..k, half..m)),
        };
        rayon::join(
            || gemm_parallel(alpha, at, ta, b, tb, beta, ct, k, parallel),
            || gemm_parallel(alpha, ab, ta, b, tb, beta, cb, k, parallel),
        );
    } else {
        #[cfg(target_arch = "x86_64")]
        if skinny_applies(alpha, ta, n, k) {
            gemm_skinny(alpha, a, b, tb, beta, c, k);
            return;
        }
        gemm_blocked(alpha, a, ta, b, tb, beta, c, k, crate::simd::lane());
    }
}

/// `true` when a product with an `n`-column result takes the unpacked
/// skinny path: `op(A) = A`, between 1 and
/// [`crate::simd::GEMM_SKINNY_N`] columns, something to add, and the
/// AVX-512 kernel available and enabled. Decided from the shape and the
/// CPU alone; everything else is the packed path, with the same bits.
#[cfg(target_arch = "x86_64")]
fn skinny_applies(alpha: f64, ta: Trans, n: usize, k: usize) -> bool {
    ta == Trans::No
        && (1..=crate::simd::GEMM_SKINNY_N).contains(&n)
        && alpha != 0.0
        && k != 0
        && crate::simd::active()
        && crate::simd::avx512_supported()
}

/// Rows of `C` one pass of the skinny path owns: with the widest right
/// operand the accumulator block is 32 KiB, L1/L2-resident across a `KC`
/// block.
#[cfg(target_arch = "x86_64")]
const SKINNY_MB: usize = 256;
/// Columns of `A` one kernel call consumes: that many sequential
/// `SKINNY_MB`-row streams for the hardware prefetcher, and the interval
/// at which a tile's accumulators are parked in the block.
#[cfg(target_arch = "x86_64")]
const SKINNY_KB: usize = 8;

/// The unpacked path for a skinny right operand: at `n <= 16` the packed
/// kernel copies every element of `A` to use it for `2n` flops, so here
/// only `op(B)` is packed (`k x n`, row-major) and `A` is streamed exactly
/// once, straight from where it lives and in long column runs, by
/// [`crate::simd::dgemm_skinny_avx512`], `SKINNY_MB` rows of `C` at a time.
///
/// Every `C[i, j]` gets the packed path's operations: `beta` applied up
/// front, then per `KC` block one FMA chain from zero in ascending `k`
/// (parked in a pooled tile-packed block between kernel calls) and
/// `C = fma(acc, alpha, C)`. So the path changes speed, not bits.
#[cfg(target_arch = "x86_64")]
fn gemm_skinny(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    mut c: MatMut<'_>,
    k: usize,
) {
    let (m, n) = (c.nrows(), c.ncols());
    scale_c(beta, &mut c);
    let mut bpack = crate::workspace::take(k * n);
    pack_b_skinny(b, tb, n, &mut bpack);
    let mut ct = crate::workspace::take(SKINNY_MB.min(m).next_multiple_of(8) * n);
    let (lda, ldc) = (a.col_stride(), c.col_stride());
    for ib in (0..m).step_by(SKINNY_MB) {
        let mb = SKINNY_MB.min(m - ib);
        for pc in (0..k).step_by(KC) {
            let end = KC.min(k - pc) + pc;
            for pk in (pc..end).step_by(SKINNY_KB) {
                let kb = SKINNY_KB.min(end - pk);
                // SAFETY: skinny_applies() checked AVX-512F and 1 <= n <= 16.
                // Rows ib..ib+mb and columns pk..pk+kb lie inside `a` (m x k)
                // and rows pk..pk+kb inside the k x n pack; `ct` holds mb
                // rounded up to whole tiles times n; rows ib..ib+mb of the
                // n columns of `c` (stride ldc) lie inside it.
                unsafe {
                    let close = (pk + kb == end).then(|| (alpha, c.as_mut_ptr().add(ib), ldc));
                    crate::simd::dgemm_skinny_avx512(
                        mb,
                        n,
                        kb,
                        a.as_ptr().add(ib + pk * lda),
                        lda,
                        bpack.as_ptr().add(pk * n),
                        ct.as_mut_ptr(),
                        pk == pc,
                        close,
                    );
                }
            }
        }
    }
}

/// Packs `op(B)` (`k x n`) row-major for the skinny kernel:
/// `out[kk * n + j]`, the `n` broadcasts of one `k` step contiguous.
#[cfg(target_arch = "x86_64")]
fn pack_b_skinny(b: MatRef<'_>, tb: Trans, n: usize, out: &mut [f64]) {
    match tb {
        // Row kk of B^T is the head of column kk of B.
        Trans::Yes => {
            for (kk, row) in out.chunks_exact_mut(n).enumerate() {
                row.copy_from_slice(&b.col(kk)[..n]);
            }
        }
        // A transpose of column runs; 64 rows at a time keeps the block
        // being written (at most 8 KiB) in L1 across the n column passes.
        Trans::No => {
            for (blk, rows) in out.chunks_mut(64 * n).enumerate() {
                for j in 0..n {
                    let col = &b.col(j)[blk * 64..];
                    for (row, &v) in rows.chunks_exact_mut(n).zip(col) {
                        row[j] = v;
                    }
                }
            }
        }
    }
}

/// `C = beta * C` ahead of a product's accumulation; `beta == 0` clears
/// `C` instead, so a NaN or infinity there does not survive.
fn scale_c(beta: f64, c: &mut MatMut<'_>) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for j in 0..c.ncols() {
            crate::blas1::scal(beta, c.col_mut(j));
        }
    }
}

/// The packed product on the register tiles of `lane`: the `8 x 6` tile
/// of that lane on every panel (the AVX2 one under either vector lane),
/// and under `Lane::Avx512` the `16 x 12` tile on the full panel pairs.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    alpha: f64,
    a: MatRef<'_>,
    ta: Trans,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    mut c: MatMut<'_>,
    k: usize,
    lane: Lane,
) {
    let m = c.nrows();
    let n = c.ncols();
    if m == 0 || n == 0 {
        return;
    }
    // Apply beta up front; the packed loops then always accumulate.
    scale_c(beta, &mut c);
    if alpha == 0.0 || k == 0 {
        return;
    }

    // Pooled packing panels: pack_a / pack_b write every live element; the
    // padding of a last partial panel keeps a recycled buffer's stale
    // contents, which reach only the tile lanes macro_kernel drops.
    let mut apack = crate::workspace::take(MC.min(m).next_multiple_of(MR) * KC.min(k));
    let mut bpack = crate::workspace::take(KC.min(k) * n.next_multiple_of(NR));

    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        pack_b(b, tb, pc, kc, 0, n, &mut bpack);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a(a, ta, ic, mc, pc, kc, &mut apack);
            macro_kernel(alpha, &apack, &bpack, mc, n, kc, ic, c.rb_mut(), lane);
        }
    }
}

/// Packs `op(A)[ic..ic+mc, pc..pc+kc]` into MR-row panels, padding
/// unspecified: the rows past `mc` reach only tile lanes the macro kernel
/// drops. Every element is read from a contiguous run of a column of `A`.
fn pack_a(a: MatRef<'_>, ta: Trans, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f64]) {
    for (p, panel) in out.chunks_exact_mut(MR * kc).take(mc.div_ceil(MR)).enumerate() {
        let r0 = ic + p * MR;
        let rows = MR.min(mc - p * MR);
        match ta {
            Trans::No => {
                for (kk, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    dst[..rows].copy_from_slice(&a.col(pc + kk)[r0..r0 + rows]);
                }
            }
            // Row r of op(A) is column r of A.
            Trans::Yes => {
                for r in 0..rows {
                    for (dst, &v) in panel.chunks_exact_mut(MR).zip(&a.col(r0 + r)[pc..pc + kc]) {
                        dst[r] = v;
                    }
                }
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc, jc..jc+nc]` into NR-column panels, padding
/// unspecified: the columns past `nc` reach only tile lanes the macro
/// kernel drops. Every element is read from a contiguous run of a column
/// of `B`.
fn pack_b(b: MatRef<'_>, tb: Trans, pc: usize, kc: usize, jc: usize, nc: usize, out: &mut [f64]) {
    for (p, panel) in out.chunks_exact_mut(NR * kc).take(nc.div_ceil(NR)).enumerate() {
        let c0 = jc + p * NR;
        let cols = NR.min(nc - p * NR);
        match tb {
            Trans::No => {
                for cl in 0..cols {
                    for (dst, &v) in panel.chunks_exact_mut(NR).zip(&b.col(c0 + cl)[pc..pc + kc]) {
                        dst[cl] = v;
                    }
                }
            }
            // Row kk of op(B) is column kk of B.
            Trans::Yes => {
                for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    dst[..cols].copy_from_slice(&b.col(pc + kk)[c0..c0 + cols]);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    ic: usize,
    mut c: MatMut<'_>,
    lane: Lane,
) {
    let mpanels = mc.div_ceil(MR);
    let npanels = nc.div_ceil(NR);
    let (mpairs, npairs) = wide_tiles(alpha, apack, bpack, mc, nc, kc, ic, &mut c, lane);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let jcols = NR.min(nc - j0);
        let bpanel = &bpack[jp * NR * kc..(jp * NR * kc) + NR * kc];
        // The wide tiles did the top 2 * mpairs panels of these columns.
        let first = if jp < 2 * npairs { 2 * mpairs } else { 0 };
        for ipn in first..mpanels {
            let i0 = ipn * MR;
            let irows = MR.min(mc - i0);
            let apanel = &apack[ipn * MR * kc..(ipn * MR * kc) + MR * kc];
            micro_tile(lane, alpha, apanel, bpanel, kc, irows, jcols, ic + i0, j0, &mut c);
        }
    }
}

/// Runs the `16 x 12` AVX-512 tile over the largest grid of full panel
/// pairs at the top left of the macro tile — `2 * mpairs` full A panels by
/// `2 * npairs` full B panels — and returns `(mpairs, npairs)`; `(0, 0)`,
/// touching nothing, in any other lane.
#[allow(clippy::too_many_arguments)]
fn wide_tiles(
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    ic: usize,
    c: &mut MatMut<'_>,
    lane: Lane,
) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    if lane == Lane::Avx512 {
        let (mpairs, npairs) = (mc / (2 * MR), nc / (2 * NR));
        assert!(ic + mc <= c.nrows() && nc <= c.ncols(), "wide_tiles: macro tile outside C");
        let ldc = c.col_stride();
        for jq in 0..npairs {
            let bpair = &bpack[2 * jq * NR * kc..][..2 * NR * kc];
            for iq in 0..mpairs {
                let apair = &apack[2 * iq * MR * kc..][..2 * MR * kc];
                // SAFETY: `Lane::Avx512` is only made where the CPU reports
                // AVX-512F. The slices above hold both packed panels of each
                // pair (16 * kc and 12 * kc elements), and rows
                // ic + 16 iq .. + 16 and columns 12 jq .. + 12 lie inside
                // `C`, which holds ic + mc rows and nc columns.
                unsafe {
                    let cptr = c.as_mut_ptr().add(ic + 2 * iq * MR + 2 * jq * NR * ldc);
                    crate::simd::dgemm_tile_16x12_avx512(
                        kc,
                        alpha,
                        apair.as_ptr(),
                        bpair.as_ptr(),
                        cptr,
                        ldc,
                    );
                }
            }
        }
        return (mpairs, npairs);
    }
    let _ = (alpha, apack, bpack, mc, nc, kc, ic, c, lane);
    (0, 0)
}

/// Runs one register tile through the `8 x 6` kernel of `lane` (the AVX2
/// one under either vector lane), accumulating `alpha * tile` into `C` at
/// `(i0, j0)` as `C = fma(acc, alpha, C)`. Full tiles are updated in place;
/// a partial edge tile goes through a stack buffer that carries the live
/// part of `C` in and out, so an edge element gets the full tile's update.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_tile(
    lane: Lane,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    kc: usize,
    irows: usize,
    jcols: usize,
    i0: usize,
    j0: usize,
    c: &mut MatMut<'_>,
) {
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    debug_assert!(i0 + irows <= c.nrows() && j0 + jcols <= c.ncols());
    let (ap, bp) = (apanel.as_ptr(), bpanel.as_ptr());
    // SAFETY: the packer hands over panels of kc * MR and kc * NR elements
    // and the caller a tile inside `C`, so `cp` is an MR x NR tile with
    // column stride `ldc` (or the stack tile below); a vector lane is only
    // made where the CPU reports AVX2+FMA.
    let tile = |cp: *mut f64, ldc: usize| unsafe {
        match lane {
            Lane::Portable => crate::simd::dgemm_tile_portable(kc, alpha, ap, bp, cp, ldc),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx2 | Lane::Avx512 => crate::simd::dgemm_tile_avx2(kc, alpha, ap, bp, cp, ldc),
        }
    };
    if irows == MR && jcols == NR {
        let ldc = c.col_stride();
        tile(c.as_mut_ptr().wrapping_add(i0 + j0 * ldc), ldc);
    } else {
        let mut t = [0.0f64; MR * NR];
        for (jl, tc) in t.chunks_exact_mut(MR).take(jcols).enumerate() {
            tc[..irows].copy_from_slice(&c.col_mut(j0 + jl)[i0..i0 + irows]);
        }
        tile(t.as_mut_ptr(), MR);
        for (jl, tc) in t.chunks_exact(MR).take(jcols).enumerate() {
            c.col_mut(j0 + jl)[i0..i0 + irows].copy_from_slice(&tc[..irows]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    fn op_get(a: MatRef<'_>, t: Trans, i: usize, j: usize) -> f64 {
        match t {
            Trans::No => a.get(i, j),
            Trans::Yes => a.get(j, i),
        }
    }

    fn naive(a: &Mat, ta: Trans, b: &Mat, tb: Trans) -> Mat {
        let (m, k) = op_shape(a.rb(), ta);
        let (_, n) = op_shape(b.rb(), tb);
        Mat::from_fn(m, n, |i, j| {
            (0..k).map(|p| op_get(a.rb(), ta, i, p) * op_get(b.rb(), tb, p, j)).sum()
        })
    }

    fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
        // Deterministic pseudo-random fill (LCG) to avoid test-only deps here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn check_close(a: &Mat, b: &Mat, tol: f64) {
        assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gemm_all_transpose_combos() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 9, 13), (64, 33, 20)] {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    let a = if ta == Trans::No { rand_mat(m, k, 1) } else { rand_mat(k, m, 2) };
                    let b = if tb == Trans::No { rand_mat(k, n, 3) } else { rand_mat(n, k, 4) };
                    let mut c = Mat::zeros(m, n);
                    gemm(1.0, a.rb(), ta, b.rb(), tb, 0.0, c.rb_mut());
                    check_close(&c, &naive(&a, ta, &b, tb), 1e-11 * k as f64);
                }
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = rand_mat(10, 7, 5);
        let b = rand_mat(7, 9, 6);
        let c0 = rand_mat(10, 9, 7);
        let mut c = c0.clone();
        gemm(2.0, a.rb(), Trans::No, b.rb(), Trans::No, -0.5, c.rb_mut());
        let ab = naive(&a, Trans::No, &b, Trans::No);
        for j in 0..9 {
            for i in 0..10 {
                let want = 2.0 * ab[(i, j)] - 0.5 * c0[(i, j)];
                assert!((c[(i, j)] - want).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn gemm_large_crosses_block_boundaries() {
        let (m, k, n) = (MC + 19, KC + 5, 2 * NR + 3);
        let a = rand_mat(m, k, 11);
        let b = rand_mat(k, n, 12);
        let mut c = Mat::zeros(m, n);
        gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, c.rb_mut());
        check_close(&c, &naive(&a, Trans::No, &b, Trans::No), 1e-10 * k as f64);
    }

    #[test]
    fn gemm_on_submatrix_views() {
        let a = rand_mat(12, 12, 21);
        let b = rand_mat(12, 12, 22);
        let asub = a.submatrix(2..7, 3..11); // 5 x 8
        let bsub = b.submatrix(1..9, 4..10); // 8 x 6
        let mut c = Mat::zeros(5, 6);
        gemm(1.0, asub, Trans::No, bsub, Trans::No, 0.0, c.rb_mut());
        let aow = asub.to_mat();
        let bow = bsub.to_mat();
        check_close(&c, &naive(&aow, Trans::No, &bow, Trans::No), 1e-11);
    }

    #[test]
    fn gemm_empty_k() {
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(0, 2);
        let mut c = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 1.0, c.rb_mut());
        assert_eq!(c[(2, 1)], 3.0);
    }

    #[test]
    fn parallel_split_policy() {
        // Both halves of the policy observed through the split counters, in
        // one test because the counters are process-global.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        pool.install(|| {
            // 1) A tall-skinny product issued from outside the rayon pool
            //    splits over MC-aligned row panels.
            let m = 2 * MC_PAR;
            let a = rand_mat(m, 8, 41);
            let b = rand_mat(8, 6, 42);
            let (_, rows0) = par_split_counts();
            let mut c = Mat::zeros(m, 6);
            gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, c.rb_mut());
            let (_, rows1) = par_split_counts();
            assert!(rows1 > rows0, "tall-skinny gemm should split over rows");
            check_close(&c, &naive(&a, Trans::No, &b, Trans::No), 1e-10);

            // 2) The same product issued from inside an already-parallel
            //    rayon scope stays serial: no new splits of either kind.
            use rayon::prelude::*;
            let (cols2, rows2) = par_split_counts();
            let outs: Vec<Mat> = (0..4usize)
                .into_par_iter()
                .map(|s| {
                    let a = rand_mat(m, 8, 50 + s as u64);
                    let b = rand_mat(8, 6, 60 + s as u64);
                    matmul(&a, &b)
                })
                .collect();
            let (cols3, rows3) = par_split_counts();
            assert_eq!(
                (cols3, rows3),
                (cols2, rows2),
                "gemm inside a par_iter scope must stay serial"
            );
            for (s, out) in outs.iter().enumerate() {
                let a = rand_mat(m, 8, 50 + s as u64);
                let b = rand_mat(8, 6, 60 + s as u64);
                check_close(out, &naive(&a, Trans::No, &b, Trans::No), 1e-10);
            }
        });
    }

    #[test]
    fn matmul_identity() {
        let a = rand_mat(8, 8, 31);
        let id = Mat::identity(8);
        check_close(&matmul(&a, &id), &a, 1e-14);
        check_close(&matmul(&id, &a), &a, 1e-14);
    }

    #[test]
    fn every_tile_gives_the_same_bits() {
        // Every lane's tiles this host runs against the portable tiles, over
        // the same packed panels: every m mod 16 and n mod 12, k on both
        // sides of KC, m past MC, both transposes, on a strided window of C
        // with signed zeros, NaNs and infinities in all three operands.
        // Equal bits, any NaN matching any NaN, as in props.rs.
        let mut lanes = vec![];
        #[cfg(target_arch = "x86_64")]
        if crate::simd::cpu_supported() {
            lanes.push(Lane::Avx2);
            if crate::simd::avx512_supported() {
                lanes.push(Lane::Avx512);
            }
        }
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let trans = [Trans::No, Trans::Yes];
        let (alphas, betas) = ([1.0, -1.0, 0.37], [0.0, 1.0, 0.5]);
        let mut case = 0usize;
        for rm in 0..16 {
            for rn in 0..12 {
                for (ki, k) in [0usize, 1, 54, 255, 256, 257, 600].into_iter().enumerate() {
                    case += 1;
                    let m = 16 * [1, 3, 17][(rm + rn + ki) % 3] + rm;
                    let n = 12 * [1, 2][(rn + ki) % 2] + rn;
                    let (ta, tb) = (trans[case % 2], trans[case / 2 % 2]);
                    let (alpha, beta) = (alphas[case % 3], betas[case / 3 % 3]);
                    let seed = case as u64;
                    let mut a =
                        if ta == Trans::No { rand_mat(m, k, seed) } else { rand_mat(k, m, seed) };
                    let mut b =
                        if tb == Trans::No { rand_mat(k, n, !seed) } else { rand_mat(n, k, !seed) };
                    let mut c0 = rand_mat(m + 5, n + 3, seed ^ 0x55);
                    for (s, &v) in specials.iter().enumerate() {
                        let t = case + 7 * s;
                        if k > 0 {
                            let (ar, ac, br, bc) = (a.nrows(), a.ncols(), b.nrows(), b.ncols());
                            a[(t % ar, t % ac)] = v;
                            b[(t / 3 % br, t % bc)] = v;
                        }
                        c0[(t % (m + 5), t / 2 % (n + 3))] = v;
                    }
                    let run = |lane| {
                        let mut big = c0.clone();
                        let c = big.rb_mut().submatrix_mut(2..2 + m, 1..1 + n);
                        gemm_blocked(alpha, a.rb(), ta, b.rb(), tb, beta, c, k, lane);
                        big
                    };
                    let want = run(Lane::Portable);
                    for &lane in &lanes {
                        let got = run(lane);
                        let diff = want.as_slice().iter().zip(got.as_slice()).position(|(w, g)| {
                            w.to_bits() != g.to_bits() && !(w.is_nan() && g.is_nan())
                        });
                        let what = format!("m={m} n={n} k={k} {ta:?}/{tb:?} α={alpha} β={beta}");
                        assert_eq!(diff, None, "{lane:?} {what}");
                    }
                }
            }
        }
    }
}
