//! Level-3 BLAS-style blocked matrix-matrix multiply.
//!
//! The implementation follows the BLIS/GotoBLAS structure the paper's GSKS
//! kernel builds on: the operands are packed into cache-resident panels and
//! multiplied by an `MR x NR` register-tile microkernel, with rayon
//! parallelism across disjoint column panels of `C`.

use crate::mat::{MatMut, MatRef};

/// Whether an operand is used as-is or transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Register tile rows of the microkernel (shared with the AVX2 kernel:
/// two 4-wide vector registers per column).
const MR: usize = crate::simd::GEMM_MR;
/// Register tile columns of the microkernel — 6 columns x 2 row vectors
/// leaves 12 of the 16 `ymm` registers as accumulators, the BLIS-style
/// 8x6 double-precision tiling for AVX2.
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
    gemm_blocked(alpha, a, ta, b, tb, beta, c, k);
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

#[inline]
fn op_get(a: MatRef<'_>, t: Trans, i: usize, j: usize) -> f64 {
    match t {
        Trans::No => a.get(i, j),
        Trans::Yes => a.get(j, i),
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
        gemm_blocked(alpha, a, ta, b, tb, beta, c, k);
    }
}

/// `true` when a product with an `n`-column result takes the unpacked
/// skinny path: `op(A) = A`, between 1 and
/// [`crate::simd::GEMM_SKINNY_N`] columns, something to add, and the
/// AVX-512 kernel available and enabled. Decided from the shape and the
/// CPU alone; everything else is the packed path.
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
/// operand the packed block is 32 KiB, L1/L2-resident across the `k` sweep.
#[cfg(target_arch = "x86_64")]
const SKINNY_MB: usize = 256;
/// Columns of `A` one kernel call consumes: that many sequential
/// `SKINNY_MB`-row streams for the hardware prefetcher, and the interval
/// at which a tile's accumulators are parked in the packed block.
#[cfg(target_arch = "x86_64")]
const SKINNY_KB: usize = 8;

/// The unpacked path for a skinny right operand: at `n <= 16` the packed
/// kernel copies every element of `A` to use it for `2n` flops, so here
/// only `op(B)` is packed (`k x n`, row-major, `alpha` folded in) and `A`
/// is streamed exactly once, straight from where it lives and in long
/// column runs, by [`crate::simd::dgemm_skinny_avx512`]. `C` goes through
/// a pooled tile-packed block of `SKINNY_MB` rows at a time: `beta * C`
/// in, the finished rows out.
///
/// Every `C[i, j]` is `beta * C[i, j]` followed by one FMA per `k` in
/// ascending order — the row and `k` blocking only decides when an
/// accumulator is parked in the block — so a column's bits depend neither
/// on how many other columns ride in the call nor on how the caller split
/// `m`.
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
    let mut bpack = crate::workspace::take(k * n);
    pack_b_skinny(alpha, b, tb, n, &mut bpack);
    let mut ct = crate::workspace::take(SKINNY_MB.min(m).next_multiple_of(8) * n);
    let lda = a.col_stride();
    for ib in (0..m).step_by(SKINNY_MB) {
        let mb = SKINNY_MB.min(m - ib);
        // Tile-pack beta * C; the padding rows of a last partial tile only
        // ever accumulate zeros (masked A lanes) and are dropped.
        ct[..mb.next_multiple_of(8) * n].fill(0.0);
        if beta != 0.0 {
            for j in 0..n {
                for (t, rows) in c.col_mut(j)[ib..ib + mb].chunks(8).enumerate() {
                    let tile = &mut ct[(t * n + j) * 8..][..rows.len()];
                    for (d, &v) in tile.iter_mut().zip(rows.iter()) {
                        *d = beta * v;
                    }
                }
            }
        }
        for pc in (0..k).step_by(SKINNY_KB) {
            let kc = SKINNY_KB.min(k - pc);
            // SAFETY: skinny_applies() checked AVX-512F and 1 <= n <= 16.
            // Rows ib..ib+mb and columns pc..pc+kc lie inside `a` (m x k),
            // rows pc..pc+kc inside the k x n pack, and `ct` holds mb
            // rounded up to whole tiles times n.
            unsafe {
                crate::simd::dgemm_skinny_avx512(
                    mb,
                    n,
                    kc,
                    a.as_ptr().add(ib + pc * lda),
                    lda,
                    bpack.as_ptr().add(pc * n),
                    ct.as_mut_ptr(),
                );
            }
        }
        for j in 0..n {
            for (t, rows) in c.col_mut(j)[ib..ib + mb].chunks_mut(8).enumerate() {
                rows.copy_from_slice(&ct[(t * n + j) * 8..][..rows.len()]);
            }
        }
    }
}

/// Packs `alpha * op(B)` (`k x n`) row-major for the skinny kernel:
/// `out[kk * n + j]`, the `n` broadcasts of one `k` step contiguous.
#[cfg(target_arch = "x86_64")]
fn pack_b_skinny(alpha: f64, b: MatRef<'_>, tb: Trans, n: usize, out: &mut [f64]) {
    match tb {
        // Row kk of B^T is the head of column kk of B.
        Trans::Yes => {
            for (kk, row) in out.chunks_exact_mut(n).enumerate() {
                for (d, &v) in row.iter_mut().zip(&b.col(kk)[..n]) {
                    *d = alpha * v;
                }
            }
        }
        // A transpose of column runs; 64 rows at a time keeps the block
        // being written (at most 8 KiB) in L1 across the n column passes.
        Trans::No => {
            for (blk, rows) in out.chunks_mut(64 * n).enumerate() {
                for j in 0..n {
                    let col = &b.col(j)[blk * 64..];
                    for (row, &v) in rows.chunks_exact_mut(n).zip(col) {
                        row[j] = alpha * v;
                    }
                }
            }
        }
    }
}

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
) {
    let m = c.nrows();
    let n = c.ncols();
    if m == 0 || n == 0 {
        return;
    }
    // Apply beta up front; the packed loops then always accumulate.
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for j in 0..n {
            crate::blas1::scal(beta, c.col_mut(j));
        }
    }
    if alpha == 0.0 || k == 0 {
        return;
    }

    // Pooled packing panels: pack_a / pack_b overwrite every element they
    // expose to the macro kernel (including zero padding), so the stale
    // contents of a recycled buffer are never read.
    let mut apack = crate::workspace::take(MC.min(m).next_multiple_of(MR) * KC.min(k));
    let mut bpack = crate::workspace::take(KC.min(k) * n.next_multiple_of(NR));

    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        pack_b(b, tb, pc, kc, 0, n, &mut bpack);
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a(a, ta, ic, mc, pc, kc, &mut apack);
            macro_kernel(alpha, &apack, &bpack, mc, n, kc, ic, c.rb_mut());
        }
    }
}

/// Packs `op(A)[ic..ic+mc, pc..pc+kc]` into MR-row panels, zero-padded.
fn pack_a(a: MatRef<'_>, ta: Trans, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f64]) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let r0 = p * MR;
        let rows = MR.min(mc - r0);
        let base = p * MR * kc;
        if ta == Trans::No && rows == MR {
            // Fast path: contiguous column reads.
            for kk in 0..kc {
                let col = a.col(pc + kk);
                let dst = &mut out[base + kk * MR..base + kk * MR + MR];
                dst.copy_from_slice(&col[ic + r0..ic + r0 + MR]);
            }
        } else {
            for kk in 0..kc {
                for r in 0..MR {
                    out[base + kk * MR + r] =
                        if r < rows { op_get(a, ta, ic + r0 + r, pc + kk) } else { 0.0 };
                }
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc, jc..jc+nc]` into NR-column panels, zero-padded.
fn pack_b(b: MatRef<'_>, tb: Trans, pc: usize, kc: usize, jc: usize, nc: usize, out: &mut [f64]) {
    let panels = nc.div_ceil(NR);
    for p in 0..panels {
        let c0 = p * NR;
        let cols = NR.min(nc - c0);
        let base = p * NR * kc;
        for kk in 0..kc {
            for cl in 0..NR {
                out[base + kk * NR + cl] =
                    if cl < cols { op_get(b, tb, pc + kk, jc + c0 + cl) } else { 0.0 };
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
) {
    let mpanels = mc.div_ceil(MR);
    let npanels = nc.div_ceil(NR);
    // Captured once per macro tile: active() implies CPU support, which is
    // immutable, so a concurrent kill-switch flip cannot make the vector
    // call unsound — at worst one macro tile finishes on the old path.
    let use_simd = crate::simd::active();
    for jp in 0..npanels {
        let j0 = jp * NR;
        let jcols = NR.min(nc - j0);
        let bpanel = &bpack[jp * NR * kc..(jp * NR * kc) + NR * kc];
        for ipn in 0..mpanels {
            let i0 = ipn * MR;
            let irows = MR.min(mc - i0);
            let apanel = &apack[ipn * MR * kc..(ipn * MR * kc) + MR * kc];
            if use_simd
                && simd_micro_tile(alpha, apanel, bpanel, kc, irows, jcols, ic + i0, j0, &mut c)
            {
                continue;
            }
            let acc = micro_kernel(apanel, bpanel, kc);
            // Accumulate the (possibly partial) tile into C. Plain index
            // loops here: `jl`/`il` address both the tile and C.
            #[allow(clippy::needless_range_loop)]
            for jl in 0..jcols {
                let ccol = c.col_mut(j0 + jl);
                for il in 0..irows {
                    ccol[ic + i0 + il] += alpha * acc[il][jl];
                }
            }
        }
    }
}

/// Runs one register tile through the AVX2 microkernel, accumulating
/// `alpha * tile` into `C` at `(i0, j0)`. Full tiles are written straight
/// into `C` (no intermediate store); partial edge tiles go through a stack
/// buffer whose live part is accumulated. Returns `false` on non-x86
/// builds, where the caller falls back to the scalar reference tile.
#[allow(clippy::too_many_arguments)]
#[inline]
fn simd_micro_tile(
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    kc: usize,
    irows: usize,
    jcols: usize,
    i0: usize,
    j0: usize,
    c: &mut MatMut<'_>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
        debug_assert!(i0 + irows <= c.nrows() && j0 + jcols <= c.ncols());
        let ldc = c.col_stride();
        if irows == MR && jcols == NR {
            // SAFETY: the caller's dispatch guarantees AVX2+FMA (active()
            // implies cpu_supported()); panel lengths and the full MR x NR
            // destination tile are checked above.
            unsafe {
                let cptr = c.as_mut_ptr().add(i0 + j0 * ldc);
                crate::simd::dgemm_tile_avx2(
                    kc,
                    alpha,
                    apanel.as_ptr(),
                    bpanel.as_ptr(),
                    cptr,
                    ldc,
                );
            }
        } else {
            let mut tile = [0.0f64; MR * NR];
            // SAFETY: as above, with the stack tile (ldc = MR) as C.
            unsafe {
                crate::simd::dgemm_tile_avx2(
                    kc,
                    alpha,
                    apanel.as_ptr(),
                    bpanel.as_ptr(),
                    tile.as_mut_ptr(),
                    MR,
                );
            }
            for jl in 0..jcols {
                let ccol = c.col_mut(j0 + jl);
                for (il, &t) in tile[jl * MR..jl * MR + irows].iter().enumerate() {
                    ccol[i0 + il] += t;
                }
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // active() is always false off x86-64, but keep the signature used.
        let _ = (alpha, apanel, bpanel, kc, irows, jcols, i0, j0, c);
        false
    }
}

/// The `MR x NR` register-tile kernel: `acc = sum_k a_panel[:,k] * b_panel[k,:]`.
#[inline]
fn micro_kernel(apanel: &[f64], bpanel: &[f64], kc: usize) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    for kk in 0..kc {
        let av: &[f64] = &apanel[kk * MR..kk * MR + MR];
        let bv: &[f64] = &bpanel[kk * NR..kk * NR + NR];
        for (il, accrow) in acc.iter_mut().enumerate() {
            let ai = av[il];
            for (jl, accel) in accrow.iter_mut().enumerate() {
                *accel += ai * bv[jl];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

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
}
