//! Blocked squared-distance tiles — the BLAS-3 primitive under both kNN
//! paths.
//!
//! A pairwise-distance block is a rank-`d` GEMM plus a norms epilogue:
//! `D[i, j] = ‖x_i‖² + ‖x_j‖² − 2 x_iᵀx_j`, the same norms+Gram identity
//! the kernel block assembly uses (`kfds_kernels::eval_block`). The Gram
//! pass goes through the packed SIMD GEMM; the epilogue is the vectorized
//! [`kfds_la::simd::dist_epilogue`] kernel next to the GSKS tiles. Every
//! temporary comes from [`kfds_la::workspace`], so the tile routines are
//! allocation-free on the hot path (this module is on the `kfds-lint`
//! `hot-path-alloc` list).
//!
//! Dispatch follows the repo's kill-switch convention: `KFDS_KNN=scalar`
//! (or `off`/`0`) routes [`crate::neighbors`] onto the legacy per-pair
//! scalar paths, and [`set_knn_blocked`] overrides the environment at
//! runtime for A/B harnesses. [`blocked_tile_count`] counts GEMM tiles:
//! `benchmark/` reports them as `tree.knn_tiles`, and
//! `tests/dispatch_defaults.rs` fails if a default search computes none.
//!
//! # Tolerance model
//!
//! The expanded form carries a cancellation residual of `O(eps · ‖x‖²)`
//! absolute, so tiny distances lose relative accuracy (and can go
//! negative — the epilogue clamps at zero). The neighbor search uses tile
//! distances only to *select* candidates and recomputes the reported
//! distances with the scalar `sq_dist`, so selection agrees with the
//! scalar path unless two distinct candidate distances straddle the k-th
//! boundary within that residual.

use crate::points::PointSet;
use kfds_la::{gemm, simd, workspace, MatMut, MatRef, Trans};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

static BLOCKED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();
static TILES: AtomicU64 = AtomicU64::new(0);

/// Whether the kNN paths route through the blocked GEMM-tile pipeline
/// (env `KFDS_KNN` + runtime override).
#[inline]
pub fn knn_blocked_active() -> bool {
    ENV_INIT.call_once(|| {
        if kfds_switches::KFDS_KNN.is_off() {
            BLOCKED.store(false, Ordering::Relaxed);
        }
    });
    BLOCKED.load(Ordering::Relaxed)
}

/// Enables or disables the blocked kNN pipeline at runtime (overrides
/// `KFDS_KNN`), so benches and tests can A/B both paths in one process.
pub fn set_knn_blocked(on: bool) {
    let _ = knn_blocked_active(); // apply the env default first
    BLOCKED.store(on, Ordering::Relaxed);
}

/// Number of GEMM distance tiles computed since process start — the
/// witness that a search took the blocked path.
pub fn blocked_tile_count() -> u64 {
    TILES.load(Ordering::Relaxed)
}

/// Computes the squared-distance tile between two **contiguous** position
/// ranges of `pts`: `out[i, j] = ‖x_{q.start+i} − x_{c.start+j}‖²`.
///
/// Both coordinate panels are zero-copy views of the column-major point
/// storage (the layout exists for exactly this); `sq_norms` caches
/// `‖x_i‖²` for every point (see [`PointSet::sq_norms_into`]).
///
/// # Panics
/// Panics if `out` is not `q.len() x c.len()` or `sq_norms` shorter than
/// the point count.
pub fn dist_tile_ranges(
    pts: &PointSet,
    sq_norms: &[f64],
    q: Range<usize>,
    c: Range<usize>,
    mut out: MatMut<'_>,
) {
    let d = pts.dim();
    let (m, n) = (q.len(), c.len());
    assert_eq!(out.nrows(), m, "dist_tile_ranges: row mismatch");
    assert_eq!(out.ncols(), n, "dist_tile_ranges: col mismatch");
    assert!(sq_norms.len() >= pts.len(), "dist_tile_ranges: sq_norms too short");
    if m == 0 || n == 0 {
        return;
    }
    let xq = MatRef::from_parts(&pts.as_slice()[q.start * d..q.end * d], d, m, d);
    let xc = MatRef::from_parts(&pts.as_slice()[c.start * d..c.end * d], d, n, d);
    gemm(1.0, xq, Trans::Yes, xc, Trans::No, 0.0, out.rb_mut());
    let qn = &sq_norms[q.start..q.end];
    for j in 0..n {
        simd::dist_epilogue(out.col_mut(j), qn, sq_norms[c.start + j]);
    }
    TILES.fetch_add(1, Ordering::Relaxed);
}

/// Computes the squared-distance tile between a contiguous query range
/// and a gathered candidate list: `out[i, j] = ‖x_{q.start+i} − x_{cands[j]}‖²`.
///
/// The candidate panel is gathered into pooled scratch (one copy per
/// candidate — the price of a scattered column list), then the same
/// Gram-GEMM + norms-epilogue pipeline runs.
///
/// # Panics
/// Panics if `out` is not `q.len() x cands.len()`, `sq_norms` is shorter
/// than the point count, or a candidate id is out of range.
pub fn dist_tile_gather(
    pts: &PointSet,
    sq_norms: &[f64],
    q: Range<usize>,
    cands: &[u32],
    mut out: MatMut<'_>,
) {
    let d = pts.dim();
    let (m, n) = (q.len(), cands.len());
    assert_eq!(out.nrows(), m, "dist_tile_gather: row mismatch");
    assert_eq!(out.ncols(), n, "dist_tile_gather: col mismatch");
    assert!(sq_norms.len() >= pts.len(), "dist_tile_gather: sq_norms too short");
    if m == 0 || n == 0 {
        return;
    }
    let mut xc = workspace::take(d * n);
    for (j, &cid) in cands.iter().enumerate() {
        xc[j * d..(j + 1) * d].copy_from_slice(pts.point(cid as usize));
    }
    let xq = MatRef::from_parts(&pts.as_slice()[q.start * d..q.end * d], d, m, d);
    let xcv = MatRef::from_parts(&xc, d, n, d);
    gemm(1.0, xq, Trans::Yes, xcv, Trans::No, 0.0, out.rb_mut());
    let qn = &sq_norms[q.start..q.end];
    for (j, &cid) in cands.iter().enumerate() {
        simd::dist_epilogue(out.col_mut(j), qn, sq_norms[cid as usize]);
    }
    TILES.fetch_add(1, Ordering::Relaxed);
}

/// Computes the symmetric squared-distance tile among a gathered id list:
/// `out[i, j] = ‖x_{ids[i]} − x_{ids[j]}‖²`.
///
/// This is the approximate path's bucket primitive: every projection-tree
/// bucket scores all its members against each other in one rank-`d` Gram
/// GEMM (the gathered panel is both operands), so candidate scoring is
/// BLAS-3 even though bucket members are scattered in tree order. The
/// diagonal comes out exactly `0.0` (the clamp absorbs the
/// `‖x‖² − ‖x‖²` cancellation).
///
/// # Panics
/// Panics if `out` is not `ids.len() x ids.len()`, `sq_norms` is shorter
/// than the point count, or an id is out of range.
pub fn dist_tile_sym(pts: &PointSet, sq_norms: &[f64], ids: &[u32], mut out: MatMut<'_>) {
    let d = pts.dim();
    let n = ids.len();
    assert_eq!(out.nrows(), n, "dist_tile_sym: row mismatch");
    assert_eq!(out.ncols(), n, "dist_tile_sym: col mismatch");
    assert!(sq_norms.len() >= pts.len(), "dist_tile_sym: sq_norms too short");
    if n == 0 {
        return;
    }
    let mut xc = workspace::take(d * n);
    let mut rn = workspace::take(n);
    for (j, &cid) in ids.iter().enumerate() {
        xc[j * d..(j + 1) * d].copy_from_slice(pts.point(cid as usize));
        rn[j] = sq_norms[cid as usize];
    }
    let xcv = MatRef::from_parts(&xc, d, n, d);
    gemm(1.0, xcv, Trans::Yes, xcv, Trans::No, 0.0, out.rb_mut());
    for j in 0..n {
        simd::dist_epilogue(out.col_mut(j), &rn, rn[j]);
    }
    TILES.fetch_add(1, Ordering::Relaxed);
}

/// Scores one query point against a scattered candidate list:
/// `out[j] = ‖x_q − x_{cands[j]}‖²` via the norms+Gram identity.
///
/// This is the degenerate one-row tile for scattered candidate lists too
/// short (or too irregular) to justify a gathered GEMM panel: an `m = 1`
/// GEMM would waste the packed microkernel's row blocking, so the Gram
/// pass is one SIMD dot per candidate (the coordinate panel is read in
/// place — no gather), with the same clamped epilogue as the big tiles.
///
/// # Panics
/// Panics if `out.len() != cands.len()`, `sq_norms` is shorter than the
/// point count, or a candidate id is out of range.
pub fn dist_row(pts: &PointSet, sq_norms: &[f64], q: usize, cands: &[u32], out: &mut [f64]) {
    assert_eq!(out.len(), cands.len(), "dist_row: output length mismatch");
    assert!(sq_norms.len() >= pts.len(), "dist_row: sq_norms too short");
    if cands.is_empty() {
        return;
    }
    let qp = pts.point(q);
    let qn = sq_norms[q];
    for (o, &c) in out.iter_mut().zip(cands) {
        let g = kfds_la::blas1::dot(qp, pts.point(c as usize));
        *o = (-2.0f64).mul_add(g, qn + sq_norms[c as usize]).max(0.0);
    }
    TILES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::sq_dist;

    fn pts(n: usize, d: usize, seed: u64) -> PointSet {
        let mut state = seed | 1;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
        }
        PointSet::from_col_major(d, data)
    }

    #[test]
    fn range_tile_matches_scalar_distances() {
        let p = pts(40, 7, 5);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let mut out = kfds_la::Mat::zeros(8, 11);
        dist_tile_ranges(&p, &norms, 3..11, 20..31, out.rb_mut());
        for i in 0..8 {
            for j in 0..11 {
                let want = sq_dist(p.point(3 + i), p.point(20 + j));
                let got = out[(i, j)];
                assert!((got - want).abs() <= 1e-12 * (1.0 + want), "({i},{j}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn gather_tile_matches_scalar_distances_and_counts() {
        let p = pts(30, 5, 9);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let cands: Vec<u32> = vec![29, 0, 17, 3, 3];
        let before = blocked_tile_count();
        let mut out = kfds_la::Mat::zeros(6, cands.len());
        dist_tile_gather(&p, &norms, 10..16, &cands, out.rb_mut());
        assert!(blocked_tile_count() > before);
        for i in 0..6 {
            for (j, &c) in cands.iter().enumerate() {
                let want = sq_dist(p.point(10 + i), p.point(c as usize));
                assert!((out[(i, j)] - want).abs() <= 1e-12 * (1.0 + want));
            }
        }
    }

    #[test]
    fn coincident_points_clamp_to_zero() {
        // 16 copies of the same point: every pairwise distance is exactly 0
        // after the clamp, never negative.
        let data: Vec<f64> = (0..16).flat_map(|_| [1.5, -2.25, 0.5]).collect();
        let p = PointSet::from_col_major(3, data);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let mut out = kfds_la::Mat::zeros(16, 16);
        dist_tile_ranges(&p, &norms, 0..16, 0..16, out.rb_mut());
        for v in out.as_slice() {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn sym_tile_matches_scalar_distances_with_exact_diagonal() {
        let p = pts(30, 6, 21);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let ids: Vec<u32> = vec![4, 28, 0, 13, 13, 7];
        let mut out = kfds_la::Mat::zeros(ids.len(), ids.len());
        dist_tile_sym(&p, &norms, &ids, out.rb_mut());
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                let want = sq_dist(p.point(a as usize), p.point(b as usize));
                let got = out[(i, j)];
                assert!((got - want).abs() <= 1e-12 * (1.0 + want), "({i},{j}): {got} vs {want}");
            }
            assert_eq!(out[(i, i)], 0.0);
        }
    }

    #[test]
    fn dist_row_matches_scalar_distances() {
        let p = pts(25, 9, 13);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let cands: Vec<u32> = vec![0, 7, 24, 7, 12];
        let mut row = vec![0.0; cands.len()];
        dist_row(&p, &norms, 4, &cands, &mut row);
        for (j, &c) in cands.iter().enumerate() {
            let want = sq_dist(p.point(4), p.point(c as usize));
            assert!((row[j] - want).abs() <= 1e-12 * (1.0 + want));
        }
    }

    #[test]
    fn empty_tiles_are_noops() {
        let p = pts(10, 3, 2);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let mut out = kfds_la::Mat::zeros(0, 5);
        dist_tile_ranges(&p, &norms, 4..4, 0..5, out.rb_mut());
        let mut out2 = kfds_la::Mat::zeros(3, 0);
        dist_tile_gather(&p, &norms, 0..3, &[], out2.rb_mut());
    }
}
