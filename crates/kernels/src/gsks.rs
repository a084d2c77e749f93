//! GSKS — fused, matrix-free kernel summation (paper §II-D, \[24\]).
//!
//! The two-pass reference streams an `m x n` kernel block through memory
//! twice. GSKS fuses the three stages — rank-`d` Gram update, elementwise
//! kernel evaluation, and the GEMV reduction — inside one register tile:
//! an `MR x NR` block of `K` is produced in registers by the semi-ring
//! rank-`d` update, transformed by the kernel function, contracted against
//! the weights, and discarded. Only `O(md + nd)` memory moves remain and
//! the `m x n` block never exists (`O(1)` extra storage), which is the
//! paper's 3–30x win over the reference for small `d`.
//!
//! The paper implements the microkernel in AVX2/AVX512 assembly; here the
//! tile goes through `kfds_la::simd::gsks_tile_8x4` — an explicit AVX2+FMA
//! register kernel when the host supports it and `KFDS_SIMD` is not off,
//! with the pre-existing scalar tile as the reference path (bitwise the
//! old numerics when SIMD is disabled). In SIMD mode the source panel is
//! packed **dimension-major** per NR tile so the kernel loads each
//! dimension's four source values with one vector load, and the kernel
//! transform of the whole tile is batched through
//! [`Kernel::eval_parts_many`] (one `vexp` per tile for Gaussian /
//! Laplacian instead of `MR x NR` scalar `exp` calls).

use crate::function::Kernel;
use kfds_la::workspace;
use kfds_la::{MatMut, MatRef};
use kfds_tree::PointSet;
use rayon::prelude::*;

/// Register tile height (rows = targets), matching the SIMD kernel.
const MR: usize = kfds_la::simd::GSKS_MR;
/// Register tile width (columns = sources), matching the SIMD kernel.
const NR: usize = kfds_la::simd::GSKS_NR;

/// Packed, zero-padded coordinates + norms for one side of a summation.
/// Storage comes from the workspace pool and returns to it on drop.
struct Packed {
    /// `padded x d`. Point-major (point `i` = `coords[i*d .. (i+1)*d]`)
    /// for target panels and scalar-mode source panels; dimension-major
    /// per NR tile for SIMD-mode source panels (see
    /// [`pack_cols_transposed`]).
    coords: workspace::WsVec,
    /// Squared norms, zero-padded.
    norms: workspace::WsVec,
}

fn pack(pts: &PointSet, idx: &[usize], pad_to: usize) -> Packed {
    let d = pts.dim();
    let padded = idx.len().next_multiple_of(pad_to);
    // Pooled buffers arrive with stale contents; the loop overwrites the
    // live region and only the padding tail needs explicit zeroing (padded
    // tile entries must evaluate the kernel at the origin, not at garbage
    // coordinates, so their weighted contribution of zero stays finite).
    let mut coords = workspace::take(padded * d);
    let mut norms = workspace::take(padded);
    for (i, &p) in idx.iter().enumerate() {
        coords[i * d..(i + 1) * d].copy_from_slice(pts.point(p));
    }
    coords[idx.len() * d..].fill(0.0);
    // Norms in one pass over the packed panel (cache-hot, just copied)
    // instead of re-walking each source point inside the copy loop.
    for (i, nv) in norms.iter_mut().enumerate().take(idx.len()) {
        *nv = kfds_la::blas1::nrm2_sq(&coords[i * d..(i + 1) * d]);
    }
    norms[idx.len()..].fill(0.0);
    Packed { coords, norms }
}

/// SIMD-mode source packing: within each NR-point tile the coordinates are
/// stored dimension-major (`coords[tile*NR*d + kk*NR + c] = y_c[kk]`), so
/// the vector kernel loads the tile's four values of dimension `kk` with a
/// single unaligned load instead of a strided gather. Norms come from one
/// NR-wide vectorizable accumulation pass over the packed panel.
fn pack_cols_transposed(pts: &PointSet, idx: &[usize]) -> Packed {
    let d = pts.dim();
    let padded = idx.len().next_multiple_of(NR);
    let mut coords = workspace::take(padded * d);
    let mut norms = workspace::take(padded);
    // Pad slots of a partial last tile interleave with live ones, so zero
    // that whole tile up front before scattering the live points in.
    if !idx.len().is_multiple_of(NR) {
        let last_tile = (padded / NR - 1) * NR * d;
        coords[last_tile..].fill(0.0);
    }
    for (i, &p) in idx.iter().enumerate() {
        let base = (i / NR) * NR * d + i % NR;
        for (kk, &v) in pts.point(p).iter().enumerate() {
            coords[base + kk * NR] = v;
        }
    }
    norms.fill(0.0);
    for t in 0..padded / NR {
        let base = t * NR * d;
        let (nrow, crow) = (&mut norms[t * NR..(t + 1) * NR], &coords[base..base + NR * d]);
        for kk in 0..d {
            for (nv, &v) in nrow.iter_mut().zip(&crow[kk * NR..kk * NR + NR]) {
                *nv += v * v;
            }
        }
    }
    Packed { coords, norms }
}

/// The packed operands of one summation — what both summations share up
/// to the epilogue: the two coordinate panels, and the dispatch they were
/// packed for (captured once: the packed source layout, the tile kernel
/// and the epilogue's weight layout must agree for the whole call).
struct Panels {
    rp: Packed,
    cp: Packed,
    use_simd: bool,
    d: usize,
}

impl Panels {
    fn pack(pts: &PointSet, rows: &[usize], cols: &[usize]) -> Self {
        let use_simd = kfds_la::simd::active();
        let rp = pack(pts, rows, MR);
        let cp = if use_simd { pack_cols_transposed(pts, cols) } else { pack(pts, cols, NR) };
        Panels { rp, cp, use_simd, d: pts.dim() }
    }

    /// Source columns including the zero padding of the last tile.
    fn padded_cols(&self) -> usize {
        self.cp.norms.len()
    }

    /// The `MR x NR` tile of `K[rows, cols]` at packed row `r0`, packed
    /// column `c0`, row-major: the rank-`d` update in registers, then the
    /// batched kernel transform of the `rows_here` live rows. Padded
    /// source columns carry finite (kernel-at-the-origin) values the
    /// epilogue must weight by zero; rows past `rows_here` are not
    /// transformed and must not be read.
    #[inline(always)]
    fn tile<K: Kernel>(&self, k: &K, r0: usize, rows_here: usize, c0: usize) -> [f64; MR * NR] {
        let d = self.d;
        let mut tile = [0.0f64; MR * NR];
        if self.use_simd {
            kfds_la::simd::gsks_tile_8x4(
                &self.rp.coords[r0 * d..(r0 + MR) * d],
                &self.cp.coords[c0 * d..(c0 + NR) * d],
                d,
                &mut tile,
            );
        } else {
            tile_dots(
                &self.rp.coords[r0 * d..(r0 + rows_here) * d],
                &self.cp.coords[c0 * d..(c0 + NR) * d],
                d,
                &mut tile,
            );
        }
        k.eval_parts_many(
            &mut tile[..rows_here * NR],
            &self.rp.norms[r0..r0 + rows_here],
            &self.cp.norms[c0..c0 + NR],
        );
        tile
    }
}

/// Fused kernel summation: `w = K[rows, cols] * u` (overwrites `w`),
/// matrix-free with `O((m + n) d)` workspace.
///
/// # Panics
/// Panics on length mismatches.
pub fn sum_fused<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: &[f64],
    w: &mut [f64],
) {
    assert_eq!(u.len(), cols.len(), "sum_fused: weight length mismatch");
    assert_eq!(w.len(), rows.len(), "sum_fused: output length mismatch");
    if rows.is_empty() {
        return;
    }
    if cols.is_empty() {
        w.fill(0.0);
        return;
    }
    let p = Panels::pack(pts, rows, cols);
    // Zero-padded weights so padded source columns contribute nothing.
    let mut upad = workspace::take(p.padded_cols());
    upad[..u.len()].copy_from_slice(u);
    upad[u.len()..].fill(0.0);

    // Parallel over disjoint MR-row chunks of the output. The
    // single-weight epilogue: one NR-term dot per live tile row, summed
    // over the tiles in registers.
    w.par_chunks_mut(MR).enumerate().for_each(|(rt, wchunk)| {
        let r0 = rt * MR;
        let rows_here = wchunk.len();
        let mut acc = [0.0f64; MR];
        for c0 in (0..p.padded_cols()).step_by(NR) {
            let tile = p.tile(k, r0, rows_here, c0);
            for (r, accr) in acc.iter_mut().enumerate().take(rows_here) {
                let mut s = 0.0;
                for (kv, uv) in tile[r * NR..r * NR + NR].iter().zip(&upad[c0..c0 + NR]) {
                    s += kv * uv;
                }
                *accr += s;
            }
        }
        wchunk.copy_from_slice(&acc[..rows_here]);
    });
}

/// Fused multi-RHS summation: `W = K[rows, cols] * U` (overwrites `W`),
/// matrix-free. `U` is `cols.len() x nrhs`, `W` is `rows.len() x nrhs`.
///
/// One column takes [`sum_fused`]'s single-weight epilogue (the answer is
/// `sum_fused`'s, bit for bit): transposing `U`, zeroing a row-major `W`
/// and the RHS-wide contraction buy nothing for one weight column and
/// cost 5–17 % at the solve's shapes.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn sum_fused_multi<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: MatRef<'_>,
    mut w: MatMut<'_>,
) {
    assert_eq!(u.nrows(), cols.len(), "sum_fused_multi: U rows mismatch");
    assert_eq!(w.nrows(), rows.len(), "sum_fused_multi: W rows mismatch");
    assert_eq!(u.ncols(), w.ncols(), "sum_fused_multi: RHS count mismatch");
    let nrhs = u.ncols();
    let m = rows.len();
    if m == 0 || nrhs == 0 {
        return;
    }
    if nrhs == 1 {
        return sum_fused(k, pts, rows, cols, u.col(0), w.col_mut(0));
    }
    if cols.is_empty() {
        w.fill(0.0);
        return;
    }
    let p = Panels::pack(pts, rows, cols);

    // SIMD mode: transpose U once into source-major layout (`ut[c * nrhs
    // + t] = U[c, t]`) so the contraction kernel sweeps each source's
    // weights with contiguous vector loads. The zero padding rows make the
    // padded tile columns — whose kernel values are finite but meaningless
    // — contribute nothing, so the kernel never needs a `cols_here` guard.
    let ut = p.use_simd.then(|| {
        let mut ut = workspace::take(p.padded_cols() * nrhs);
        for t in 0..nrhs {
            for (c, &v) in u.col(t).iter().enumerate() {
                ut[c * nrhs + t] = v;
            }
        }
        ut[cols.len() * nrhs..].fill(0.0);
        ut
    });
    let ut_ref = ut.as_deref();

    // Row-major accumulation buffer (m x nrhs) so row tiles are chunkable;
    // zeroed because the tile loop accumulates into it.
    let mut wbuf = workspace::take_zeroed(m * nrhs);
    wbuf.par_chunks_mut(MR * nrhs).enumerate().for_each(|(rt, wchunk)| {
        let r0 = rt * MR;
        let rows_here = MR.min(m - r0);
        for c0 in (0..p.padded_cols()).step_by(NR) {
            let tile = p.tile(k, r0, rows_here, c0);
            match ut_ref {
                // Vectorized contraction of a full row tile against every
                // RHS at once — this multi-RHS epilogue dominates the
                // factorization's P̂ panel applies (nrhs = skeleton size).
                Some(ut) if rows_here == MR => {
                    kfds_la::simd::gsks_contract_8x4(
                        &tile,
                        &ut[c0 * nrhs..(c0 + NR) * nrhs],
                        nrhs,
                        wchunk,
                    );
                }
                _ => {
                    let cols_here = NR.min(cols.len().saturating_sub(c0));
                    for r in 0..rows_here {
                        let krow = &tile[r * NR..r * NR + NR];
                        let wrow = &mut wchunk[r * nrhs..(r + 1) * nrhs];
                        for (t, wt) in wrow.iter_mut().enumerate() {
                            let ucol = u.col(t);
                            let mut s = 0.0;
                            for c in 0..cols_here {
                                s += krow[c] * ucol[c0 + c];
                            }
                            *wt += s;
                        }
                    }
                }
            }
        }
    });
    // Transpose the row-major buffer into the column-major output view.
    for t in 0..nrhs {
        let col = w.col_mut(t);
        for (i, c) in col.iter_mut().enumerate() {
            *c = wbuf[i * nrhs + t];
        }
    }
}

/// Computes the `MR x NR` tile of inner products between `xr` (up to MR
/// packed points) and `yc` (NR **point-major** packed points), the
/// semi-ring rank-`d` update at the heart of GSKS — the scalar reference
/// path, written row-major into `out` (`out[r*NR + c] = x_r . y_c`).
#[inline]
fn tile_dots(xr: &[f64], yc: &[f64], d: usize, out: &mut [f64; MR * NR]) {
    let rows = xr.len().checked_div(d).unwrap_or(0);
    for kk in 0..d {
        let mut yv = [0.0f64; NR];
        for (c, yvc) in yv.iter_mut().enumerate() {
            *yvc = yc[c * d + kk];
        }
        for r in 0..rows {
            let xv = xr[r * d + kk];
            for (acc, &y) in out[r * NR..r * NR + NR].iter_mut().zip(&yv) {
                *acc += xv * y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Gaussian, Laplacian};
    use crate::reference::{sum_reference, sum_reference_multi};
    use kfds_la::Mat;

    fn pts(n: usize, d: usize, seed: u64) -> PointSet {
        let mut state = seed | 1;
        let data: Vec<f64> = (0..n * d)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        PointSet::from_col_major(d, data)
    }

    #[test]
    fn fused_matches_reference_various_shapes() {
        for &(m, n, d) in &[(1, 1, 1), (4, 4, 2), (7, 13, 3), (33, 29, 8), (16, 64, 20)] {
            let p = pts(m + n, d, (m * 7 + n * 3 + d) as u64);
            let rows: Vec<usize> = (0..m).collect();
            let cols: Vec<usize> = (m..m + n).collect();
            let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
            let k = Gaussian::new(0.7);
            let mut w1 = vec![0.0; m];
            let mut w2 = vec![0.0; m];
            sum_reference(&k, &p, &rows, &cols, &u, &mut w1);
            sum_fused(&k, &p, &rows, &cols, &u, &mut w2);
            for i in 0..m {
                assert!(
                    (w1[i] - w2[i]).abs() < 1e-11 * (1.0 + w1[i].abs()),
                    "shape ({m},{n},{d}) row {i}: {} vs {}",
                    w1[i],
                    w2[i]
                );
            }
        }
    }

    #[test]
    fn fused_multi_matches_reference_multi() {
        let (m, n, d, nrhs) = (19, 23, 5, 6);
        let p = pts(m + n, d, 77);
        let rows: Vec<usize> = (0..m).collect();
        let cols: Vec<usize> = (m..m + n).collect();
        let u = Mat::from_fn(n, nrhs, |i, j| ((i * 5 + j) as f64 * 0.23).cos());
        let k = Laplacian::new(1.1);
        let mut w1 = Mat::zeros(m, nrhs);
        let mut w2 = Mat::zeros(m, nrhs);
        sum_reference_multi(&k, &p, &rows, &cols, u.rb(), w1.rb_mut());
        sum_fused_multi(&k, &p, &rows, &cols, u.rb(), w2.rb_mut());
        for t in 0..nrhs {
            for i in 0..m {
                assert!((w1[(i, t)] - w2[(i, t)]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn fused_with_noncontiguous_indices() {
        let p = pts(40, 3, 9);
        let rows = [0, 5, 11, 7, 39];
        let cols = [2, 3, 17, 30, 4, 8, 25];
        let u: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let k = Gaussian::new(0.5);
        let mut w1 = vec![0.0; 5];
        let mut w2 = vec![0.0; 5];
        sum_reference(&k, &p, &rows, &cols, &u, &mut w1);
        sum_fused(&k, &p, &rows, &cols, &u, &mut w2);
        for i in 0..5 {
            assert!((w1[i] - w2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_rows_cols_and_rhs() {
        let p = pts(6, 2, 1);
        let k = Gaussian::new(1.0);
        // Empty columns: output must be zeroed, not stale.
        let mut w = [f64::NAN; 2];
        sum_fused(&k, &p, &[0, 1], &[], &[], &mut w);
        assert_eq!(w, [0.0, 0.0]);
        // Empty rows: nothing to write.
        let mut w0: [f64; 0] = [];
        sum_fused(&k, &p, &[], &[2, 3], &[1.0, 1.0], &mut w0);
        // Zero RHS columns in the multi variant (rank-0 skeleton case).
        let u = Mat::zeros(3, 0);
        let mut wm = Mat::zeros(2, 0);
        sum_fused_multi(&k, &p, &[0, 1], &[2, 3, 4], u.rb(), wm.rb_mut());
        // Empty cols in the multi variant.
        let u2 = Mat::zeros(0, 2);
        let mut wm2 = Mat::from_fn(2, 2, |_, _| f64::NAN);
        sum_fused_multi(&k, &p, &[0, 1], &[], u2.rb(), wm2.rb_mut());
        assert_eq!(wm2.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn fused_overwrites_output() {
        let p = pts(10, 2, 4);
        let rows = [0, 1];
        let cols = [2, 3];
        let u = [0.0, 0.0];
        let mut w = [f64::NAN, f64::NAN];
        sum_fused(&Gaussian::new(1.0), &p, &rows, &cols, &u, &mut w);
        assert_eq!(w, [0.0, 0.0]);
    }
}
