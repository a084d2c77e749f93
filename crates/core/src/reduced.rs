//! The reduced system of an internal node (eq. 8) by block elimination.
//!
//! ```text
//! Z_α = [ I     B_l ]      B_l = K_{l̃r} P̂_{rr̃}   (s_l x s_r)
//!       [ B_r   I   ]      B_r = K_{r̃l} P̂_{ll̃}   (s_r x s_l)
//! ```
//!
//! The identity blocks need no pivots and no storage: eliminating the
//! larger child's block row leaves the smaller child's Schur complement —
//! `S = I − B_r B_l` (`s_r x s_r`) when `s_r ≤ s_l`, `S = I − B_l B_r`
//! (`s_l x s_l`) otherwise — so `Z` is held as `B_l`, `B_r` and the
//! partial-pivoted LU of `S`, `2 s_l s_r + min(s_l, s_r)²` words instead
//! of the `(s_l + s_r)²` of a packed LU, and solved (for `s_r ≤ s_l`; the
//! other side swaps `l` and `r`) by
//!
//! ```text
//! y_r −= B_r y_l;   y_r ← S⁻¹ y_r;   y_l −= B_l y_r
//! ```
//!
//! two GEMMs and one `min(s_l, s_r)` LU solve. `det Z = det S` (the Schur
//! determinant identity), so the log-determinant and its sign are those of
//! `LU(S)`. The §III pivot monitor reads `LU(S)`'s pivots against `Z`'s
//! scale, `max(1, |B_l|, |B_r|)`: the number a packed LU of `Z` reports
//! when no row swap crosses the blocks.
//!
//! The solve runs at every internal node of every solve and takes no
//! scratch at all (`kfds-lint`'s hot-path-alloc rule holds this module to
//! it); the one square matrix the factorization forms comes from
//! [`kfds_la::workspace`] and becomes the LU's storage.

use kfds_kernels::flops;
use kfds_la::{gemm, workspace, LaError, Lu, Mat, MatMut, Trans};

/// `Z_α = [I, B_l; B_r, I]`, factored by block elimination.
#[derive(Debug)]
pub(crate) struct ReducedLu {
    /// `B_l = K_{l̃r} P̂_{rr̃}` (`s_l x s_r`).
    pub(crate) b_l: Mat,
    /// `B_r = K_{r̃l} P̂_{ll̃}` (`s_r x s_l`).
    pub(crate) b_r: Mat,
    /// Whether `S` is the right child's complement `I − B_r B_l`
    /// (`s_r ≤ s_l`) rather than the left's `I − B_l B_r`.
    right: bool,
    /// LU of the Schur complement `S` (`min(s_l, s_r)` square).
    s_lu: Lu,
    /// `min(1, min_k |u_kk|) / max(1, |B_l|, |B_r|)` — see
    /// [`min_pivot_ratio`](Self::min_pivot_ratio).
    min_pivot_ratio: f64,
}

impl ReducedLu {
    /// Forms the smaller child's Schur complement `S` (one GEMM) and
    /// LU-factorizes it, keeping both coupling blocks for the solve.
    ///
    /// # Errors
    /// [`LaError`] from the LU of `S` (exactly singular, or non-finite).
    pub(crate) fn factor(b_l: Mat, b_r: Mat) -> Result<Self, LaError> {
        debug_assert_eq!((b_l.nrows(), b_l.ncols()), (b_r.ncols(), b_r.nrows()));
        let right = b_r.nrows() <= b_l.nrows();
        let (into_s, out_of_s) = if right { (&b_r, &b_l) } else { (&b_l, &b_r) };
        let k = into_s.nrows();
        // Pooled: every element is written by the fill before the GEMM
        // accumulates into it.
        let mut s = workspace::take_mat_detached(k, k);
        s.rb_mut().fill(0.0);
        for i in 0..k {
            s[(i, i)] = 1.0;
        }
        gemm(-1.0, into_s.rb(), Trans::No, out_of_s.rb(), Trans::No, 1.0, s.rb_mut());
        let s_max = s.norm_max();
        let s_lu = Lu::factor(s)?;
        let min_pivot_ratio = if k == 0 {
            1.0
        } else {
            // `Lu` scales its smallest pivot by `|S|`; undo that and scale
            // by `Z`'s largest entry instead (its identity blocks make it at
            // least 1, and their unit pivots cap the minimum at 1).
            let z_max = b_l.norm_max().max(b_r.norm_max()).max(1.0);
            (s_lu.min_pivot_ratio() * s_max).min(1.0) / z_max
        };
        Ok(ReducedLu { b_l, b_r, right, s_lu, min_pivot_ratio })
    }

    /// `s_l`, the left child's rank.
    pub(crate) fn sl(&self) -> usize {
        self.b_l.nrows()
    }

    /// `s_r`, the right child's rank.
    pub(crate) fn sr(&self) -> usize {
        self.b_r.nrows()
    }

    /// Solves `Z X = Y` in place on the `(s_l + s_r) x nrhs` view `y`.
    pub(crate) fn solve_mut(&self, y: MatMut<'_>) {
        debug_assert_eq!(y.nrows(), self.sl() + self.sr());
        let (y_l, y_r) = y.split_at_row(self.sl());
        let (mut y_out, mut y_s, into_s, out_of_s) = if self.right {
            (y_l, y_r, &self.b_r, &self.b_l)
        } else {
            (y_r, y_l, &self.b_l, &self.b_r)
        };
        gemm(-1.0, into_s.rb(), Trans::No, y_out.rb(), Trans::No, 1.0, y_s.rb_mut());
        self.s_lu.solve_mat_mut(y_s.rb_mut());
        gemm(-1.0, out_of_s.rb(), Trans::No, y_s.rb(), Trans::No, 1.0, y_out.rb_mut());
    }

    /// The LU of the Schur complement `S`; `det Z = det S`.
    pub(crate) fn s_lu(&self) -> &Lu {
        &self.s_lu
    }

    /// The smallest pivot of `LU(S)` relative to `Z`'s largest entry
    /// (1 for an empty `S`: no pivot taken).
    pub(crate) fn min_pivot_ratio(&self) -> f64 {
        self.min_pivot_ratio
    }

    /// Words held: both coupling blocks and the LU of `S`.
    pub(crate) fn words(&self) -> usize {
        let k = self.s_lu.dim();
        2 * self.sl() * self.sr() + k * k
    }

    /// Flops of [`factor`](Self::factor): the GEMM forming `S` and `LU(S)`.
    pub(crate) fn factor_flops(sl: usize, sr: usize) -> f64 {
        let (k, o) = (sl.min(sr), sl.max(sr));
        flops::gemm_flops(k, k, o) + flops::lu_flops(k)
    }

    /// Flops of one [`solve_mut`](Self::solve_mut) of `nrhs` columns.
    pub(crate) fn solve_flops(sl: usize, sr: usize, nrhs: usize) -> f64 {
        let (k, o) = (sl.min(sr), sl.max(sr));
        flops::gemm_flops(k, nrhs, o)
            + flops::lu_solve_flops(k, nrhs)
            + flops::gemm_flops(o, nrhs, k)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::STABILITY_THRESHOLD;
    use crate::factor::{factor_z, NodeCost};
    use crate::{factorize, FactorTree, SolverConfig, StorageMode};
    use kfds_askit::{skeletonize, SkelConfig};
    use kfds_kernels::{Gaussian, Kernel};
    use kfds_la::{Lu, Mat};
    use kfds_tree::datasets::uniform_cube;
    use kfds_tree::BallTree;

    /// The packed `[I, b_top; b_bot, I]` — with `(B_l, B_r)`, the dense
    /// oracle `Z` of one node.
    fn packed(b_top: &Mat, b_bot: &Mat) -> Mat {
        let (st, sb) = (b_top.nrows(), b_bot.nrows());
        Mat::from_fn(st + sb, st + sb, |i, j| match (i < st, j < st) {
            (true, true) | (false, false) => f64::from(u8::from(i == j)),
            (true, false) => b_top[(i, j - st)],
            (false, true) => b_bot[(i - st, j)],
        })
    }

    fn rel_diff(got: &Mat, want: &Mat) -> f64 {
        let diff = Mat::from_fn(got.nrows(), got.ncols(), |i, j| got[(i, j)] - want[(i, j)]);
        diff.norm_fro() / want.norm_fro().max(f64::MIN_POSITIVE)
    }

    /// Checks every reduced system of `ft` against the LU of its packed
    /// `Z`; returns the `(s_l, s_r)` shapes it saw and how many of them had
    /// their pivot ratio checked against the packed LU's.
    fn check_against_packed<K: Kernel>(ft: &FactorTree<'_, K>) -> (Vec<(usize, usize)>, usize) {
        let (mut shapes, mut ratios_checked) = (Vec::new(), 0);
        for z in ft.factors().iter().filter_map(|nf| nf.z.as_ref()) {
            let (sl, sr) = (z.sl(), z.sr());
            shapes.push((sl, sr));
            assert_eq!(z.right, sr <= sl, "({sl}, {sr}): S is the smaller child's");
            let dense = Lu::factor(packed(&z.b_l, &z.b_r)).expect("packed Z factors");
            for nrhs in [1, 16] {
                let y = Mat::from_fn(sl + sr, nrhs, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
                let (mut got, mut want) = (y.clone(), y);
                z.solve_mut(got.rb_mut());
                dense.solve_mat_inplace(&mut want);
                let err = rel_diff(&got, &want);
                assert!(err < 1e-12, "({sl}, {sr}) x {nrhs}: rel err {err:.3e}");
            }
            let s_lu = z.s_lu();
            let ld = (s_lu.log_abs_det() - dense.log_abs_det()).abs();
            assert!(
                ld < 1e-12 * (1.0 + dense.log_abs_det().abs()),
                "({sl}, {sr}): log det {ld:.3e}"
            );
            assert_eq!(s_lu.det_sign(), dense.det_sign(), "({sl}, {sr}): det sign");
            assert_eq!(z.words(), 2 * sl * sr + sl.min(sr).pow(2));
            let ratio = z.min_pivot_ratio();
            assert!(ratio.is_finite() && ratio > 0.0, "({sl}, {sr}): pivot ratio {ratio}");
            if sl.min(sr) == 0 {
                assert_eq!(ratio, 1.0, "a 0 x 0 S takes no pivot");
            }
            // Packed in elimination order, `Z`'s LU takes the identity's
            // unit pivots and then `S`'s, unless an entry of the block under
            // the identity beats 1 and swaps rows across the blocks.
            let (b_top, b_bot) = if z.right { (&z.b_l, &z.b_r) } else { (&z.b_r, &z.b_l) };
            if b_bot.norm_max() < 1.0 {
                let want = Lu::factor(packed(b_top, b_bot)).expect("packed Z").min_pivot_ratio();
                let err = (ratio - want).abs() / want;
                assert!(err < 1e-10, "({sl}, {sr}): pivot ratio {ratio:.6e} vs {want:.6e}");
                ratios_checked += 1;
            }
        }
        (shapes, ratios_checked)
    }

    /// Clusters on a line, some so far from the rest that their skeletons
    /// come out empty (the `assembled_operator_skips_rank_zero_frontier_nodes`
    /// layouts), factored through level 1 with stored blocks.
    fn clustered(centers: &[f64]) -> (kfds_askit::SkeletonTree, Gaussian) {
        let n = 512;
        let mut pts = uniform_cube(n, 3, 5);
        for i in 0..n {
            let p = pts.point_mut(i);
            p.iter_mut().for_each(|c| *c *= 0.3);
            p[0] += centers[i % centers.len()];
        }
        let kernel = Gaussian::new(1.0);
        let skel = SkelConfig::default().with_tol(1e-6).with_max_rank(48).with_neighbors(8);
        (skeletonize(BallTree::build(&pts, 32), &kernel, skel.with_max_level(1)), kernel)
    }

    #[test]
    fn reduced_solve_matches_the_packed_lu() {
        let cfg = SolverConfig::default().with_lambda(0.4).with_storage(StorageMode::StoredGemv);
        let (mut shapes, mut ratios_checked) = (Vec::new(), 0);
        for centers in [&[-400.0, 0.0, 1.5, 3.0][..], &[-400.0, 400.0]] {
            let (st, kernel) = clustered(centers);
            let ft = factorize(&st, &kernel, cfg).expect("factorize");
            assert!(ft.is_complete());
            let (s, checked) = check_against_packed(&ft);
            shapes.extend(s);
            ratios_checked += checked;
        }
        assert!(shapes.iter().any(|&(sl, sr)| sl > sr && sr > 0), "{shapes:?}");
        assert!(shapes.iter().any(|&(sl, sr)| sr > sl && sl > 0), "{shapes:?}");
        assert!(shapes.iter().any(|&(sl, sr)| (sl == 0) != (sr == 0)), "{shapes:?}");
        assert!(shapes.contains(&(0, 0)), "{shapes:?}");
        assert!(ratios_checked > shapes.len() / 2, "{ratios_checked} of {shapes:?}");
    }

    /// A near-singular `Z` whose `S` is tiny next to `Z`'s unit scale: the
    /// pivot monitor must read it against `Z`, not against `S` alone (a
    /// `1 x 1` `S` is its own largest entry).
    #[test]
    fn near_singular_reduced_system_is_flagged() {
        for (sl, sr) in [(1, 1), (3, 1), (1, 3)] {
            // B_r B_l = (1 − 1e-14) on the first coordinate, 0 elsewhere.
            let b_l = Mat::from_fn(sl, sr, |i, j| f64::from(u8::from(i == 0 && j == 0)));
            let b_r = Mat::from_fn(sr, sl, |i, j| if i == 0 && j == 0 { 1.0 - 1e-14 } else { 0.0 });
            let mut cost = NodeCost::default();
            let z = factor_z(b_l, b_r, 0, &mut cost).expect("S is not exactly singular");
            let ratio = z.min_pivot_ratio();
            assert!(ratio < STABILITY_THRESHOLD, "({sl}, {sr}): ratio {ratio:.3e}");
            assert_eq!(cost.unstable, 1, "({sl}, {sr})");
            let dense = Lu::factor(packed(&z.b_l, &z.b_r)).expect("packed Z").min_pivot_ratio();
            assert!(
                (ratio - dense).abs() < 1e-3 * dense,
                "({sl}, {sr}): {ratio:.6e} vs {dense:.6e}"
            );
        }
    }
}
