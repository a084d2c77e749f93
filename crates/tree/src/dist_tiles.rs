//! Distance primitives under the blocked neighbor searches: the fused
//! filter that decides which pairs are worth scoring, and the GEMM tiles
//! that seed its thresholds.
//!
//! Both searches in [`crate::neighbors`] are **filter-and-refine**. A
//! block of queries (a tree leaf, a projection-tree bucket) is packed once
//! into a [`QueryBlock`]; every candidate panel it meets goes through
//! [`kfds_la::simd::dist_filter`], which forms the norms+Gram distance
//! `f = ‖q‖² + ‖c‖² − 2 qᵀc` in registers, compares it with the query's
//! threshold and emits one mask word per (8 queries, candidate) — no
//! distance is stored. The search re-scores each flagged pair with the
//! scalar [`crate::points::sq_dist`] and offers *that* to the query's
//! heap, so heaps only ever hold exact values and the filter's only job is
//! to lose nothing.
//!
//! # The slack
//!
//! `f` carries the cancellation residual of the expanded form: it differs
//! from `sq_dist` by at most `γ·(‖q‖² + ‖c‖²)` with `γ = 2(d + 8)·ε`
//! (derived at `dist_filter`, tested there on all three kernel bodies). A
//! query's threshold is therefore its current k-th-best exact distance
//! plus `slack = γ·(‖q‖² + max‖x‖²)`: every candidate whose `sq_dist` could
//! still enter the heap passes, whatever the SIMD level or the translation
//! of the data — far from the origin the slack grows and more pairs are
//! re-scored, but none is lost. `γ` leaves `12ε` beyond the derivation's
//! `(2d + 3.5)ε`, which also covers rounding the threshold sum itself.
//!
//! # Seed tiles
//!
//! A query's first block would pass everything (its heap is empty, its
//! threshold `+∞`). So the first block of a search — the query leaf
//! against itself, a bucket of the first projection tree — is one GEMM
//! tile in memory ([`dist_tile_ranges`], [`dist_tile_sym`]) from which the
//! search takes each query's k-th smallest *filter* distance: the k
//! candidates under it have `sq_dist ≤ that + slack`, so only candidates
//! with `f ≤ that + 2·slack` can matter and a query re-scores ~k of its
//! first block instead of all of it. Tile values are the same `f` up to
//! summation order, within the same bound.
//!
//! Every temporary comes from [`kfds_la::workspace`], so the routines are
//! allocation-free on the hot path (this module is on the `kfds-lint`
//! `hot-path-alloc` list).
//!
//! Dispatch follows the repo's kill-switch convention: `KFDS_KNN=scalar`
//! (or `off`/`0`) routes [`crate::neighbors`] onto the per-query scalar
//! reference, and [`set_knn_blocked`] overrides the environment at runtime
//! for A/B harnesses. [`blocked_tile_count`] counts block pairs resolved —
//! one per seed tile or filter call: `benchmark/` reports them as
//! `tree.knn_tiles`, and `tests/dispatch_defaults.rs` fails if a default
//! search resolves none.

use crate::points::PointSet;
use kfds_la::{gemm, simd, workspace, MatMut, MatRef, Trans};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

static BLOCKED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();
static TILES: AtomicU64 = AtomicU64::new(0);

/// Whether the kNN paths route through the blocked filter-and-refine
/// pipeline (env `KFDS_KNN` + runtime override).
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

/// Number of block pairs (leaf × leaf, or a bucket against itself)
/// resolved since process start, by a seed tile or a filter call — the
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

/// Computes the symmetric squared-distance tile among a gathered id list:
/// `out[i, j] = ‖x_{ids[i]} − x_{ids[j]}‖²`.
///
/// This is the approximate path's seed primitive: a bucket of the first
/// projection tree scores all its members against each other in one
/// rank-`d` Gram GEMM (the gathered panel is both operands). The diagonal
/// comes out exactly `0.0` (the clamp absorbs the `‖x‖² − ‖x‖²`
/// cancellation).
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
    gather_panel(pts, sq_norms, ids, &mut xc, &mut rn);
    let xcv = MatRef::from_parts(&xc, d, n, d);
    gemm(1.0, xcv, Trans::Yes, xcv, Trans::No, 0.0, out.rb_mut());
    for j in 0..n {
        simd::dist_epilogue(out.col_mut(j), &rn, rn[j]);
    }
    TILES.fetch_add(1, Ordering::Relaxed);
}

/// Copies the points `ids` into the `d × ids.len()` column-major panel
/// `xc` and their squared norms into `rn` — a bucket's scattered members
/// made contiguous for the filter.
pub(crate) fn gather_panel(
    pts: &PointSet,
    sq_norms: &[f64],
    ids: &[u32],
    xc: &mut [f64],
    rn: &mut [f64],
) {
    let d = pts.dim();
    for (j, &id) in ids.iter().enumerate() {
        xc[j * d..(j + 1) * d].copy_from_slice(pts.point(id as usize));
        rn[j] = sq_norms[id as usize];
    }
}

/// A query's slack (module docs): the most its filter distance to any
/// point of a set with squared norms up to `max_norm` can differ from the
/// scalar `sq_dist`.
pub(crate) fn filter_slack(d: usize, q_norm: f64, max_norm: f64) -> f64 {
    2.0 * (d as f64 + 8.0) * f64::EPSILON * (q_norm + max_norm)
}

/// Reads the `m × m` seed tile of a block against itself: for every query
/// `i`, calls `hit(i, j)` for each `j ≠ i` whose filter distance is within
/// `2·slack(i)` of the query's k-th smallest — every candidate of the
/// block that can end among its k nearest (module docs), about k of them.
/// With fewer than `k` candidates all of them hit. Column `i` of the tile
/// stands for query `i`'s distances (contiguous; the tile is symmetric up
/// to summation order, which the slack covers).
pub(crate) fn seed_hits(
    tile: &[f64],
    m: usize,
    k: usize,
    slack: impl Fn(usize) -> f64,
    mut hit: impl FnMut(usize, usize),
) {
    let mut sorted = workspace::take(m);
    for (i, col) in tile.chunks_exact(m).enumerate() {
        let cut = if k < m {
            sorted.copy_from_slice(col);
            sorted[i] = f64::INFINITY;
            let (_, kth, _) = sorted.select_nth_unstable_by(k - 1, f64::total_cmp);
            *kth + 2.0 * slack(i)
        } else {
            f64::INFINITY
        };
        for (j, &f) in col.iter().enumerate() {
            if j != i && f <= cut {
                hit(i, j);
            }
        }
    }
}

/// A block of queries — a tree leaf, a projection-tree bucket — packed
/// once for [`simd::dist_filter`], with the per-query slack and threshold
/// the filter compares against.
pub(crate) struct QueryBlock {
    m: usize,
    /// 8-row groups, dimension-major inside a group; padding rows zero.
    pack: workspace::WsVec,
    norms: workspace::WsVec,
    slack: workspace::WsVec,
    thr: workspace::WsVec,
    masks: workspace::WsIdx,
}

impl QueryBlock {
    /// Packs the `d × m` column-major `panel` (squared norms `norms`);
    /// `max_norm` bounds the squared norm of every candidate the block will
    /// meet. Thresholds start at `+∞`.
    pub(crate) fn new(panel: &[f64], norms: &[f64], max_norm: f64) -> Self {
        const MR: usize = simd::DIST_FILTER_MR;
        let m = norms.len();
        let d = panel.len() / m;
        let rows = m.next_multiple_of(MR);
        let mut pack = workspace::take_zeroed(rows * d);
        for (i, x) in panel.chunks_exact(d).enumerate() {
            let group = &mut pack[i / MR * MR * d..];
            for (k, &v) in x.iter().enumerate() {
                group[k * MR + i % MR] = v;
            }
        }
        let mut padded = workspace::take_zeroed(rows);
        padded[..m].copy_from_slice(norms);
        let mut slack = workspace::take_zeroed(rows);
        for (s, &qn) in slack.iter_mut().zip(norms) {
            *s = filter_slack(d, qn, max_norm);
        }
        let mut thr = workspace::take(rows);
        thr.fill(f64::INFINITY);
        // Mask words for a candidate panel as long as the block itself (a
        // leaf's peers, a bucket against itself); `filter` grows it for more.
        let masks = workspace::take_idx(rows / MR * m);
        QueryBlock { m, pack, norms: padded, slack, thr, masks }
    }

    /// Query `i`'s slack.
    pub(crate) fn slack(&self, i: usize) -> f64 {
        self.slack[i]
    }

    /// Sets query `i`'s threshold from `worst`, its current k-th-best exact
    /// distance (`+∞` while its heap is short).
    pub(crate) fn set_worst(&mut self, i: usize, worst: f64) {
        self.thr[i] = worst + self.slack[i];
    }

    /// Filters the block against a `d × cn.len()` candidate panel (squared
    /// norms `cn`) and calls `hit(i, j)` for every pair the kernel flagged:
    /// query `i`'s filter distance to candidate `j` is at or under its
    /// threshold. Counts one block pair.
    pub(crate) fn filter(&mut self, cand: &[f64], cn: &[f64], mut hit: impl FnMut(usize, usize)) {
        let nc = cn.len();
        if nc == 0 {
            return;
        }
        let words = self.m.div_ceil(simd::DIST_FILTER_MR) * nc;
        if self.masks.len() < words {
            self.masks.resize(words, 0);
        }
        let masks = &mut self.masks[..words];
        simd::dist_filter(self.m, &self.pack, &self.norms, &self.thr, cand, cn, masks);
        TILES.fetch_add(1, Ordering::Relaxed);
        for (g, row) in masks.chunks_exact(nc).enumerate() {
            // Nearly every word is zero: rule them out eight at a time.
            for (c, words) in row.chunks(8).enumerate() {
                if words.iter().fold(0, |any, &w| any | w) == 0 {
                    continue;
                }
                for (j, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        hit(simd::DIST_FILTER_MR * g + bits.trailing_zeros() as usize, 8 * c + j);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }
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
    fn empty_tiles_are_noops() {
        let p = pts(10, 3, 2);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let mut out = kfds_la::Mat::zeros(0, 5);
        dist_tile_ranges(&p, &norms, 4..4, 0..5, out.rb_mut());
        let mut out2 = kfds_la::Mat::zeros(0, 0);
        dist_tile_sym(&p, &norms, &[], out2.rb_mut());
    }

    /// The hits of one filter call, as (query, candidate) pairs.
    fn filter_pairs(blk: &mut QueryBlock, cand: &[f64], cn: &[f64]) -> Vec<(usize, usize)> {
        let mut hits = Vec::new();
        blk.filter(cand, cn, |i, j| hits.push((i, j)));
        hits
    }

    #[test]
    fn query_block_flags_every_pair_under_its_threshold_and_counts_once() {
        // 21 queries (a ragged last group) against 13 candidates, far from
        // the origin so the slack is what keeps the near pairs.
        let mut p = pts(40, 5, 17);
        for i in 0..p.len() {
            for v in p.point_mut(i) {
                *v += 1e6;
            }
        }
        let d = p.dim();
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let max_norm = norms.iter().copied().fold(0.0, f64::max);
        let (q, c) = (2..23, 25..38);
        let panel = |r: &Range<usize>| &p.as_slice()[r.start * d..r.end * d];
        let mut blk = QueryBlock::new(panel(&q), &norms[q.clone()], max_norm);

        // Thresholds start at +inf: everything hits, and the call is counted
        // (exactly once — `tests/dispatch_defaults.rs`, alone in its process).
        let before = blocked_tile_count();
        let all = filter_pairs(&mut blk, panel(&c), &norms[c.clone()]);
        assert!(blocked_tile_count() > before);
        assert_eq!(all.len(), q.len() * c.len());

        // Each query's 4th-smallest exact distance as its k-th best: the
        // four candidates at or under it must all be flagged.
        for i in 0..q.len() {
            let mut ds: Vec<f64> = c.clone().map(|j| p.sq_dist(q.start + i, j)).collect();
            ds.sort_by(f64::total_cmp);
            blk.set_worst(i, ds[3]);
        }
        let hits = filter_pairs(&mut blk, panel(&c), &norms[c.clone()]);
        for i in 0..q.len() {
            let worst = blk.thr[i] - blk.slack(i);
            for j in 0..c.len() {
                if p.sq_dist(q.start + i, c.start + j) <= worst {
                    assert!(hits.contains(&(i, j)), "pair ({i},{j}) lost");
                }
            }
        }
        assert!(hits.iter().all(|&(i, j)| i < q.len() && j < c.len()));
    }

    #[test]
    fn seed_hits_cover_the_k_nearest_of_the_block() {
        let p = pts(50, 6, 3);
        let mut norms = vec![0.0; p.len()];
        p.sq_norms_into(&mut norms);
        let max_norm = norms.iter().copied().fold(0.0, f64::max);
        let (r, k) = (10..37, 5);
        let m = r.len();
        let mut tile = kfds_la::Mat::zeros(m, m);
        dist_tile_ranges(&p, &norms, r.clone(), r.clone(), tile.rb_mut());
        let mut hits = vec![Vec::new(); m];
        let slack = |i: usize| filter_slack(p.dim(), norms[r.start + i], max_norm);
        seed_hits(tile.as_slice(), m, k, slack, |i, j| hits[i].push(j));
        for (i, row) in hits.iter().enumerate() {
            assert!(!row.contains(&i), "query {i} hit itself");
            let mut exact: Vec<(f64, usize)> = (0..m)
                .filter(|&j| j != i)
                .map(|j| (p.sq_dist(r.start + i, r.start + j), j))
                .collect();
            exact.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, j) in &exact[..k] {
                assert!(row.contains(&j), "query {i}: neighbor {j} not seeded");
            }
            assert!(row.len() < 2 * k, "query {i}: {} seeds for k = {k}", row.len());
        }
        // Fewer candidates than k: every other member hits.
        let mut few = Vec::new();
        let mut tiny = kfds_la::Mat::zeros(3, 3);
        dist_tile_ranges(&p, &norms, 0..3, 0..3, tiny.rb_mut());
        seed_hits(tiny.as_slice(), 3, k, slack, |i, j| few.push((i, j)));
        assert_eq!(few.len(), 6);
    }
}
