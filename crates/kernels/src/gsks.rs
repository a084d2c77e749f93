//! GSKS — fused, matrix-free kernel summation (paper §II-D, \[24\]).
//!
//! The two-pass reference streams an `m x n` kernel block through memory
//! twice. GSKS fuses the three stages — rank-`d` Gram update, elementwise
//! kernel evaluation, and the GEMV reduction — inside one register tile:
//! a tile of `K` is produced in registers by the semi-ring rank-`d`
//! update, transformed by the kernel function, contracted against the
//! weights, and discarded. Only `O(md + nd)` memory moves remain and the
//! `m x n` block never exists, which is the paper's 3–30x win over the
//! reference for small `d`.
//!
//! # One tile layout
//!
//! A tile is 8 targets by 8 sources, column-major, with the targets in the
//! vector lanes (`kfds_la::simd::GSKS_MR`), and tiles are formed two row
//! groups at a time:
//!
//! * The targets (at most `s x d` of them in the solver) are packed
//!   dimension-major, 8 rows at a time, by the task that owns those rows.
//! * The sources are read where they lie: each of a tile's 8 columns is
//!   broadcast from the tree-ordered [`PointSet`]. A group of 8 consecutive
//!   indices (every full group of a contiguous `cols` range) is a window of
//!   the point set, no copy. Any other full group is gathered point-major
//!   once per call, and a partial last group is copied into a zero-padded
//!   `8 x d` tail.
//! * [`kfds_la::simd::gsks_gram`] forms the tiles of a pair of row groups
//!   of a band (groups `2p` and `2p + 1`; an odd last group is paired with
//!   itself and the copy dropped) against one source group, a `16 x 8`
//!   register tile with each source coordinate broadcast once for both.
//!   [`Kernel::eval_parts_many`] transforms each tile, and one of two
//!   epilogues consumes it. One weight column goes through
//!   [`kfds_la::simd::gsks_dot`] into eight lane accumulators, tile by
//!   tile. With several, a band first forms every row group's tiles
//!   against one source block into a pooled buffer (a *run*: row group
//!   `g`'s tiles one `8 x 8·tiles` column-major block), then
//!   [`kfds_la::simd::gsks_contract_run`] contracts each pair of row
//!   groups against the block's rows of `U`, holding that pair's `W` in
//!   registers across the whole run. `U` is read and `W` accumulated,
//!   both column-major, in place.
//!
//! # Arithmetic
//!
//! Every output element is one fixed sequence of roundings, whatever tile
//! produced it, so the answer does not depend on the layout, the row
//! grouping or the thread count:
//!
//! * the Gram value is one chain of fused multiply-adds over the
//!   coordinates from `0`;
//! * squared norms: targets through `kfds_la::blas1::nrm2_sq`, per call
//!   (at most `s` rows in the solver); sources as one multiply-then-add
//!   chain, [`PointSet::cached_sq_norms`], chained once per point set and
//!   read by every call after the first;
//! * the kernel transform is `eval_parts_many` elementwise;
//! * one weight column: groups of four columns, each summed from `0`
//!   (`s += k·u`), then `acc += s`;
//! * several: a full 8-row group is one FMA chain per element from `W = 0`
//!   over the columns in ascending order, carried in registers through a
//!   run and in `W` from one run to the next; a partial row group sums
//!   groups of four from `0` and adds each to `W`. Which row groups pair
//!   up in a Gram tile or a run call (it depends on the band split, so on
//!   the thread count) moves no bit.
//!
//! The same holds with SIMD on or off: the portable lanes run the vector
//! bodies' chains. Only [`kfds_la::simd::gsks_dot`] and the full-row
//! contraction complete a last group of four with zero-weight columns: the
//! padded tail makes them kernel values at the origin, finite for finite
//! targets, so they add only signed zeros. Only the sweep's last tile can
//! be partial, so only the last run pads. A partial row group sums only
//! the live columns of the last group. The golden digests in
//! `tests/digests.rs` pin all of this.

use crate::function::Kernel;
use kfds_la::simd::{self, GSKS_MR as MR};
use kfds_la::workspace;
use kfds_la::{MatMut, MatRef};
use kfds_tree::PointSet;

/// Row groups per parallel band at most: a band's packed targets stay in
/// L1 while a block of sources streams past all of them.
const BAND: usize = 4;
/// Bytes of source coordinates and weights per block: a block stays in L2
/// while every row group of a band sweeps it, so a source is read from
/// memory once per band instead of once per row group.
const BLOCK_BYTES: usize = 256 << 10;

/// `true` if `group` is a run of consecutive point indices.
fn is_run(group: &[usize]) -> bool {
    group.windows(2).all(|p| p[1] == p[0] + 1)
}

/// The source side of one summation: where each tile's `MR` points lie.
struct Sources<'a> {
    pts: &'a PointSet,
    cols: &'a [usize],
    /// Point-major copies of the full groups that are not runs, group `g`
    /// at `g * MR * d`; taken only if there is such a group.
    gathered: Option<workspace::WsVec>,
    /// A partial last group, zero-padded to `MR` points.
    tail: workspace::WsVec,
}

impl<'a> Sources<'a> {
    fn new(pts: &'a PointSet, cols: &'a [usize]) -> Self {
        let d = pts.dim();
        let groups = cols.chunks_exact(MR);
        let rest = groups.remainder();
        let mut gathered = groups.clone().any(|g| !is_run(g)).then(|| {
            // Only the gathered groups are written, and only they are read.
            workspace::take(cols.len() / MR * MR * d)
        });
        if let Some(buf) = gathered.as_mut() {
            for (g, dst) in groups.zip(buf.chunks_exact_mut(MR * d)) {
                if !is_run(g) {
                    for (&p, y) in g.iter().zip(dst.chunks_exact_mut(d)) {
                        y.copy_from_slice(pts.point(p));
                    }
                }
            }
        }
        let mut tail = workspace::take(MR * d);
        for (&p, y) in rest.iter().zip(tail.chunks_exact_mut(d)) {
            y.copy_from_slice(pts.point(p));
        }
        // Zeros, not what a recycled release-build buffer held: a stale
        // finite coordinate of ~1e154 or more overflows the pad point's
        // distance to r = ∞, and Matérn-3/2 or the polynomial kernel then
        // reads ∞ · 0 = NaN into the sum through the zero-weight column.
        tail[rest.len() * d..].fill(0.0);
        Sources { pts, cols, gathered, tail }
    }

    /// Tiles across the sources.
    fn groups(&self) -> usize {
        self.cols.len().div_ceil(MR)
    }

    /// The `MR` points of source group `g`, point-major (`MR * d` values).
    fn group(&self, g: usize) -> &[f64] {
        let d = self.pts.dim();
        let idx = &self.cols[g * MR..self.cols.len().min((g + 1) * MR)];
        if idx.len() < MR {
            &self.tail
        } else if is_run(idx) {
            &self.pts.as_slice()[idx[0] * d..(idx[0] + MR) * d]
        } else {
            let buf = self.gathered.as_deref().expect("a full group off a run is gathered");
            &buf[g * MR * d..(g + 1) * MR * d]
        }
    }

    /// Squared norms of every source, zero past the last: the point set's
    /// cached chains ([`PointSet::cached_sq_norms`]), each computed once
    /// per set, not once per call.
    fn norms(&self) -> workspace::WsVec {
        let all = self.pts.cached_sq_norms();
        let mut norms = workspace::take(self.groups() * MR);
        let (live, pad) = norms.split_at_mut(self.cols.len());
        for (n, &p) in live.iter_mut().zip(self.cols) {
            *n = all[p];
        }
        pad.fill(0.0);
        norms
    }
}

/// Row groups `2p` and `2p + 1` of a band as one [`simd::gsks_gram`] pair,
/// from `xp`, their packed targets: an odd last group is paired with
/// itself.
fn pair(xp: &[f64], d: usize) -> [&[f64]; 2] {
    let (x0, x1) = xp.split_at(MR * d);
    [x0, if x1.is_empty() { x0 } else { x1 }]
}

/// Packs one row group's targets dimension-major (`xg[k * MR + r]`, rows
/// past `rows.len()` zero) with their squared norms.
fn pack_targets(pts: &PointSet, rows: &[usize], xg: &mut [f64], norms: &mut [f64; MR]) {
    if rows.len() < MR {
        xg.fill(0.0);
    }
    for (r, &p) in rows.iter().enumerate() {
        let x = pts.point(p);
        for (xk, &v) in xg.chunks_exact_mut(MR).zip(x) {
            xk[r] = v;
        }
        norms[r] = kfds_la::blas1::nrm2_sq(x);
    }
    norms[rows.len()..].fill(0.0);
}

/// Runs `f(g0, w)` on bands of at most `band` row groups of `w` (`g0` the
/// band's first group), halving the rows across the rayon pool.
fn for_each_band<F>(w: MatMut<'_>, g0: usize, band: usize, f: &F)
where
    F: Fn(usize, MatMut<'_>) + Sync,
{
    let groups = w.nrows().div_ceil(MR);
    if groups <= band {
        return f(g0, w);
    }
    let half = groups / 2;
    let (top, bottom) = w.split_at_row(half * MR);
    rayon::join(|| for_each_band(top, g0, band, f), || for_each_band(bottom, g0 + half, band, f));
}

/// `W = K[rows, cols] U` through the one tile layout (the engine under
/// both public entry points): one weight column takes the `gsks_dot`
/// epilogue tile by tile, several one `gsks_contract_run` per pair of row
/// groups and source block.
///
/// The rows go in parallel bands of up to [`BAND`] row groups, and each
/// band sweeps the sources block by block, every row group of the band
/// over one block before the next. A row still meets the source tiles in
/// ascending order, so the blocking moves no bit.
fn sum_tiles<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: MatRef<'_>,
    mut w: MatMut<'_>,
) {
    let nrhs = u.ncols();
    if rows.is_empty() || nrhs == 0 {
        return;
    }
    if cols.is_empty() {
        w.fill(0.0);
        return;
    }
    let d = pts.dim();
    let src = Sources::new(pts, cols);
    let norms = src.norms();
    let band = rows.len().div_ceil(MR).div_ceil(rayon::current_num_threads()).clamp(1, BAND);
    let block = (BLOCK_BYTES / (MR * (d + nrhs) * std::mem::size_of::<f64>())).max(1);
    for_each_band(w, 0, band, &|g0, mut wb| {
        let m = wb.nrows();
        let groups = m.div_ceil(MR);
        let mut xg = workspace::take(groups * MR * d);
        let mut rn = [[0.0f64; MR]; BAND];
        for ((idx, x), n) in
            rows[g0 * MR..g0 * MR + m].chunks(MR).zip(xg.chunks_mut(MR * d)).zip(&mut rn)
        {
            pack_targets(pts, idx, x, n);
        }
        if nrhs == 1 {
            let mut acc = [[0.0f64; MR]; BAND];
            let mut tiles = [[0.0f64; MR * MR]; 2];
            for s0 in (0..src.groups()).step_by(block) {
                let pairs = rn[..groups].chunks(2).zip(acc[..groups].chunks_mut(2));
                for (xp, (np, ap)) in xg.chunks(2 * MR * d).zip(pairs) {
                    for sg in s0..src.groups().min(s0 + block) {
                        let [t0, t1] = &mut tiles;
                        simd::gsks_gram(pair(xp, d), src.group(sg), d, [t0, t1]);
                        let live = sg * MR..cols.len().min((sg + 1) * MR);
                        // The pair's live groups (a self-paired copy has
                        // no norms): each tile as if formed alone.
                        for ((tile, n), a) in tiles.iter_mut().zip(np).zip(ap.iter_mut()) {
                            k.eval_parts_many(tile, &norms[sg * MR..(sg + 1) * MR], n);
                            simd::gsks_dot(tile, &u.col(0)[live.clone()], a);
                        }
                    }
                }
            }
            for (wr, a) in wb.col_mut(0).chunks_mut(MR).zip(&acc) {
                wr.copy_from_slice(&a[..wr.len()]);
            }
            return;
        }
        // Several weight columns: every row group's tiles against one
        // source block, then one run contraction per pair of row groups.
        // The tiles of an odd last group's self-paired copy go to one
        // spare run past the band's, never read.
        wb.fill(0.0);
        let pairs = groups.div_ceil(2);
        let mut tiles = workspace::take(2 * pairs * block.min(src.groups()) * MR * MR);
        for s0 in (0..src.groups()).step_by(block) {
            let run = src.groups().min(s0 + block) - s0;
            let span = run * MR * MR;
            for (xp, (np, kp)) in xg
                .chunks(2 * MR * d)
                .zip(rn[..groups].chunks(2).zip(tiles.chunks_exact_mut(2 * span)))
            {
                let (k0, k1) = kp.split_at_mut(span);
                for (sg, (t0, t1)) in (s0..s0 + run)
                    .zip(k0.chunks_exact_mut(MR * MR).zip(k1.chunks_exact_mut(MR * MR)))
                {
                    let t0: &mut [f64; MR * MR] = t0.try_into().expect("one tile");
                    let t1: &mut [f64; MR * MR] = t1.try_into().expect("one tile");
                    simd::gsks_gram(pair(xp, d), src.group(sg), d, [&mut *t0, &mut *t1]);
                    for (tile, n) in [t0, t1].into_iter().zip(np) {
                        k.eval_parts_many(tile, &norms[sg * MR..(sg + 1) * MR], n);
                    }
                }
            }
            let live = s0 * MR..cols.len().min((s0 + run) * MR);
            for (p, kp) in tiles.chunks(2 * span).enumerate().take(pairs) {
                let pair = wb.rb_mut().submatrix_mut(2 * p * MR..m.min(2 * (p + 1) * MR), 0..nrhs);
                simd::gsks_contract_run(kp, u.submatrix(live.clone(), 0..nrhs), pair);
            }
        }
    });
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
    sum_tiles(k, pts, rows, cols, MatRef::from_col(u), MatMut::from_col(w));
}

/// Fused multi-RHS summation: `W = K[rows, cols] * U` (overwrites `W`),
/// matrix-free. `U` is `cols.len() x nrhs`, `W` is `rows.len() x nrhs`,
/// both read and written where they lie (any column stride).
///
/// One column takes [`sum_fused`]'s single-weight epilogue, so the answer
/// is `sum_fused`'s, bit for bit.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn sum_fused_multi<K: Kernel>(
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: MatRef<'_>,
    w: MatMut<'_>,
) {
    assert_eq!(u.nrows(), cols.len(), "sum_fused_multi: U rows mismatch");
    assert_eq!(w.nrows(), rows.len(), "sum_fused_multi: W rows mismatch");
    assert_eq!(u.ncols(), w.ncols(), "sum_fused_multi: RHS count mismatch");
    sum_tiles(k, pts, rows, cols, u, w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Gaussian, Laplacian};
    use crate::reference::{sum_reference, sum_reference_multi};
    use kfds_la::Mat;

    #[test]
    fn source_pad_reads_back_as_zero() {
        // The pad of a partial last group is written, never inherited: a
        // recycled buffer full of huge finite values must not show through,
        // for every residue of the source count.
        for d in [1, 3, 54] {
            let p = pts(40, d, 7);
            for n in 8..16 {
                let mut dirty = workspace::take(MR * d);
                dirty.fill(1e300);
                drop(dirty);
                let cols: Vec<usize> = (0..n).map(|i| i * 3 % 40).collect();
                let s = Sources::new(&p, &cols);
                let pad = &s.tail[n % MR * d..];
                assert!(pad.iter().all(|v| v.to_bits() == 0), "d={d}, {n} sources: {pad:?}");
            }
        }
    }

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
        // The fused pass against the two-pass reference: one small
        // Laplacian case, then the Gaussian at the solver's shapes — the
        // `d` of the workloads, skeleton ranks `s` as rows, about a leaf's
        // worth of ragged columns, and one or `s` right-hand sides (a
        // solve's `K_{l̃r} U_r`, a factorization's `K_{l̃r} P̂_r`). The two
        // sum each output in different orders; they must agree to
        // `‖W_fused − W_ref‖_F ≤ 1e-13 ‖W_ref‖_F`.
        const REL: f64 = 1e-13;
        fn check<K: Kernel>(k: &K, m: usize, n: usize, d: usize, nrhs: usize) {
            let p = pts(m + n, d, (77 + m + n + d + nrhs) as u64);
            let rows: Vec<usize> = (0..m).collect();
            let cols: Vec<usize> = (m..m + n).collect();
            let u = Mat::from_fn(n, nrhs, |i, j| ((i * 5 + j) as f64 * 0.23).cos());
            let mut w1 = Mat::zeros(m, nrhs);
            let mut w2 = Mat::zeros(m, nrhs);
            sum_reference_multi(k, &p, &rows, &cols, u.rb(), w1.rb_mut());
            sum_fused_multi(k, &p, &rows, &cols, u.rb(), w2.rb_mut());
            let (w1, w2) = (w1.as_slice(), w2.as_slice());
            let diff = w1.iter().zip(w2).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            let norm = w1.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(diff <= REL * norm, "{m} x {n}, d = {d}, nrhs = {nrhs}: {:.2e}", diff / norm);
        }
        check(&Laplacian::new(1.1), 19, 23, 5, 6);
        for d in [16, 54, 64] {
            let k = Gaussian::new(0.5 * (d as f64).sqrt());
            for s in [64, 256] {
                for n in [129, 255] {
                    for nrhs in [1, s] {
                        check(&k, s, n, d, nrhs);
                    }
                }
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
    fn runs_read_in_place_give_the_bits_of_a_gathered_copy() {
        // The complement of a node's range: two runs whose seam falls
        // inside a group, so some groups are read in place, one is
        // gathered and the last is a padded tail. The same points placed
        // in reverse order are all gathered.
        let (n, d) = (60, 5);
        let p = pts(n, d, 21);
        let cols: Vec<usize> = (0..13).chain(20..n).collect();
        let rows: Vec<usize> = (13..20).chain([3, 3, 41]).collect();
        let rev: Vec<usize> = (0..n).rev().collect();
        let q = p.select(&rev);
        let flip = |idx: &[usize]| idx.iter().map(|&i| n - 1 - i).collect::<Vec<_>>();
        let (qrows, qcols) = (flip(&rows), flip(&cols));
        let u = Mat::from_fn(cols.len(), 3, |i, j| ((i * 7 + j) as f64 * 0.3).sin());
        let k = Laplacian::new(0.9);
        let (mut w1, mut w2) = (Mat::zeros(rows.len(), 3), Mat::zeros(rows.len(), 3));
        sum_fused_multi(&k, &p, &rows, &cols, u.rb(), w1.rb_mut());
        sum_fused_multi(&k, &q, &qrows, &qcols, u.rb(), w2.rb_mut());
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w1), bits(&w2));
    }

    #[test]
    fn source_norms_follow_every_change_to_the_point_set() {
        // A summation fills the set's norm cache; each `&mut` method must
        // empty it, so the next summation gives the bits of a set built
        // fresh from the same coordinates. Every change moves a source.
        let (n, d) = (30, 5);
        let k = Laplacian::new(0.9);
        let rows: Vec<usize> = (0..9).collect();
        let u: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let sum = |p: &PointSet| {
            let cols: Vec<usize> = (rows.len()..p.len()).collect();
            let mut w = vec![0.0; rows.len()];
            sum_fused(&k, p, &rows, &cols, &u[..cols.len()], &mut w);
            w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let fresh = |p: &PointSet| PointSet::from_col_major(d, p.as_slice().to_vec());
        type Change = fn(&mut PointSet);
        let changes: [(&str, Change); 3] = [
            ("point_mut", |p| p.point_mut(12)[2] += 3.0),
            ("push", |p| p.push(&vec![0.25; p.dim()])),
            ("normalize", PointSet::normalize),
        ];
        let mut p = pts(n, d, 5);
        for (what, change) in changes {
            let before = sum(&p);
            change(&mut p);
            let (after, want) = (sum(&p), sum(&fresh(&p)));
            assert_ne!(after, before, "{what} moved no output: the test shows nothing");
            assert_eq!(after, want, "{what}: a stale norm was read");
        }
        // Equality reads the coordinates, not whether the cache is filled.
        let q = fresh(&p);
        p.cached_sq_norms();
        assert_eq!(p, q);
        assert_eq!(q, p);
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
