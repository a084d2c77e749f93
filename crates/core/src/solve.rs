//! The `O(N log N)` solve — Algorithm II.3.
//!
//! `K̃_αα^{-1} u = (I − W_α Z_α^{-1} V_α) D_α^{-1} u`: recurse into the
//! children (the `D^{-1}` application), then apply the
//! Sherman–Morrison–Woodbury correction through the reduced system. The
//! `V` matvec runs in the configured storage mode (stored GEMV /
//! recomputed GEMM / fused GSKS — Table IV).
//!
//! The recursion is exposed internally through `SolveCtx` so the
//! `O(N log² N)` baseline (which *is* this recursive solve applied to `s`
//! right-hand sides per node) can drive it over a partially built factor
//! set.

use crate::config::{SolverConfig, StorageMode};
use crate::error::SolverError;
use crate::factor::{FactorTree, NodeFactors};
use kfds_askit::SkeletonTree;
use kfds_kernels::{sum_fused, sum_fused_multi, sum_reference, sum_reference_multi, Kernel};
use kfds_la::blas1::axpy;
use kfds_la::blas2::{gemv, gemv_t};
use kfds_la::{gemm, workspace, Mat, MatRef, Trans};

/// Borrowed solve context: a skeleton tree plus (possibly in-progress)
/// node factors.
pub(crate) struct SolveCtx<'b, K: Kernel> {
    pub st: &'b SkeletonTree,
    pub kernel: &'b K,
    pub config: &'b SolverConfig,
    pub factors: &'b [NodeFactors],
}

impl<K: Kernel> FactorTree<'_, K> {
    pub(crate) fn ctx(&self) -> SolveCtx<'_, K> {
        SolveCtx { st: self.st, kernel: self.kernel, config: &self.config, factors: &self.factors }
    }

    /// Solves `(λI + K̃) x = b` in place (`b` in the tree's permuted
    /// ordering), using the complete direct factorization.
    ///
    /// # Errors
    /// Returns [`SolverError::NotSkeletonized`] if the factorization is
    /// partial (level restriction) — use the hybrid solver then.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), SolverError> {
        let tree = self.st.tree();
        assert_eq!(b.len(), tree.points().len(), "solve: rhs length mismatch");
        if !self.is_complete() {
            return Err(SolverError::NotSkeletonized { node: tree.root() });
        }
        self.ctx().solve_node(tree.root(), b);
        Ok(())
    }

    /// Solves `(λI + K̃) X = B` in place for a multi-column right-hand
    /// side.
    pub fn solve_mat_in_place(&self, b: &mut Mat) -> Result<(), SolverError> {
        let tree = self.st.tree();
        assert_eq!(b.nrows(), tree.points().len(), "solve: rhs rows mismatch");
        if !self.is_complete() {
            return Err(SolverError::NotSkeletonized { node: tree.root() });
        }
        let mut owned = std::mem::replace(b, Mat::zeros(0, 0));
        self.ctx().solve_node_mat(tree.root(), &mut owned);
        *b = owned;
        Ok(())
    }

    /// Convenience wrapper: solve with a right-hand side in *original*
    /// point order, returning the solution in original order.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let tree = self.st.tree();
        let mut bp = tree.permute_vec(b);
        self.solve_in_place(&mut bp)?;
        Ok(tree.unpermute_vec(&bp))
    }
}

impl<K: Kernel> SolveCtx<'_, K> {
    /// Applies `K̃_αα^{-1}` to `u` in place — the recursive Solve of
    /// Algorithm II.3 (`do_recur = true` path).
    pub(crate) fn solve_node(&self, node: usize, u: &mut [f64]) {
        let tree = self.st.tree();
        let nd = tree.node(node);
        debug_assert_eq!(u.len(), nd.len());
        let Some((l, r)) = nd.children else {
            self.factors[node]
                .leaf_lu
                .as_ref()
                .expect("leaf LU missing in factored region")
                .solve_inplace(u);
            return;
        };
        let nl = tree.node(l).len();
        // D^{-1}: independent recursive solves on the children.
        {
            let (ul, ur) = u.split_at_mut(nl);
            rayon::join(|| self.solve_node(l, ul), || self.solve_node(r, ur));
        }
        self.apply_smw_correction(node, l, r, u);
    }

    /// SMW correction `u -= W_α Z_α^{-1} V_α u` for an internal node.
    fn apply_smw_correction(&self, node: usize, l: usize, r: usize, u: &mut [f64]) {
        let tree = self.st.tree();
        let nl = tree.node(l).len();
        let skl = self.st.skeleton(l).expect("children skeletons required");
        let skr = self.st.skeleton(r).expect("children skeletons required");
        let (sl, sr) = (skl.rank(), skr.rank());
        if sl + sr == 0 {
            return; // vanishing off-diagonal coupling
        }
        let z_lu = self.factors[node].z_lu.as_ref().expect("reduced system missing");
        // y = V u = [K_{l̃ r} u_r ; K_{r̃ l} u_l]. Pooled scratch: every
        // element is overwritten below (gemv / summation with beta = 0).
        let mut y = workspace::take(sl + sr);
        {
            let pts = tree.points();
            let (ul, ur) = u.split_at(nl);
            let (ytop, ybot) = y.split_at_mut(sl);
            match self.config.storage {
                StorageMode::StoredGemv => {
                    let v_lr = self.factors[node].v_lr.as_ref().expect("stored V missing");
                    let v_rl = self.factors[node].v_rl.as_ref().expect("stored V missing");
                    gemv(1.0, v_lr.rb(), ur, 0.0, ytop);
                    gemv(1.0, v_rl.rb(), ul, 0.0, ybot);
                }
                StorageMode::RecomputeGemm => {
                    let rc: Vec<usize> = tree.node(r).range().collect();
                    let lc: Vec<usize> = tree.node(l).range().collect();
                    sum_reference(self.kernel, pts, &skl.skeleton, &rc, ur, ytop);
                    sum_reference(self.kernel, pts, &skr.skeleton, &lc, ul, ybot);
                }
                StorageMode::Gsks => {
                    let rc: Vec<usize> = tree.node(r).range().collect();
                    let lc: Vec<usize> = tree.node(l).range().collect();
                    sum_fused(self.kernel, pts, &skl.skeleton, &rc, ur, ytop);
                    sum_fused(self.kernel, pts, &skr.skeleton, &lc, ul, ybot);
                }
            }
        }
        // z = Z^{-1} y.
        z_lu.solve_inplace(&mut y);
        // u -= W z = [P̂_l z_top ; P̂_r z_bot].
        let (ul, ur) = u.split_at_mut(nl);
        self.sub_p_hat_apply(l, &y[..sl], ul);
        self.sub_p_hat_apply(r, &y[sl..], ur);
    }

    /// `out -= P̂_node z`, through the stored factor or the telescoped
    /// recurrence (eq. 10) in [`crate::config::WStorage::Recompute`] mode.
    fn sub_p_hat_apply(&self, node: usize, z: &[f64], out: &mut [f64]) {
        if let Some(p) = self.factors[node].p_hat.as_ref() {
            gemv(-1.0, p.rb(), z, 1.0, out);
        } else {
            let v = self.apply_p_hat(node, z);
            axpy(-1.0, &v, out);
            workspace::give_vec(v);
        }
    }

    /// Applies `P̂_{αα̃} z` without a stored factor, telescoping through
    /// the children (eq. 10):
    /// `P̂_α z = W_α t`, `t = y − Z_α^{-1}(Z_α − I) y`, `y = P_{[l̃r̃]α̃} z`.
    pub(crate) fn apply_p_hat(&self, node: usize, z: &[f64]) -> Vec<f64> {
        if let Some(p) = self.factors[node].p_hat.as_ref() {
            // Pooled storage, detached because the result escapes; the
            // beta = 0 gemv overwrites every element.
            let mut out = workspace::take(p.nrows()).detach();
            gemv(1.0, p.rb(), z, 0.0, &mut out);
            return out;
        }
        let tree = self.st.tree();
        let (l, r) =
            tree.node(node).children.expect("recompute-W: internal node without stored P-hat");
        let sk = self.st.skeleton(node).expect("apply_p_hat on unskeletonized node");
        let (sl, sr) = (
            self.st.skeleton(l).expect("child skeleton").rank(),
            self.st.skeleton(r).expect("child skeleton").rank(),
        );
        // y = P_{[l̃r̃]α̃} z  (proj is s x (sl+sr); we need proj^T z).
        // Pooled scratch, fully overwritten by the beta = 0 products.
        let mut y = workspace::take(sl + sr);
        gemv_t(1.0, sk.proj.rb(), z, 0.0, &mut y);
        // c = Z^{-1} (Z − I) y, with (Z−I)y = [B_l y_bot; B_r y_top].
        let b_l = self.factors[node].b_l.as_ref().expect("recompute-W needs B blocks");
        let b_r = self.factors[node].b_r.as_ref().expect("recompute-W needs B blocks");
        let z_lu = self.factors[node].z_lu.as_ref().expect("reduced system missing");
        let mut c = workspace::take(sl + sr);
        gemv(1.0, b_l.rb(), &y[sl..], 0.0, &mut c[..sl]);
        gemv(1.0, b_r.rb(), &y[..sl], 0.0, &mut c[sl..]);
        z_lu.solve_inplace(&mut c);
        for (yi, ci) in y.iter_mut().zip(c.iter()) {
            *yi -= ci;
        }
        // W t = [P̂_l t_top ; P̂_r t_bot], recursively. The concatenation
        // goes through a pooled take (an `extend_from_slice` would grow —
        // and possibly reallocate — the pooled child buffer, leaking an
        // unpooled allocation on the steady-state solve path).
        let top = self.apply_p_hat(l, &y[..sl]);
        let bot = self.apply_p_hat(r, &y[sl..]);
        let mut out = workspace::take(top.len() + bot.len()).detach();
        out[..top.len()].copy_from_slice(&top);
        out[top.len()..].copy_from_slice(&bot);
        workspace::give_vec(top);
        workspace::give_vec(bot);
        out
    }

    /// Multi-RHS variant of [`apply_p_hat`](Self::apply_p_hat): returns
    /// `P̂_{αα̃} Z` (`|α| x nrhs`). Also used to materialize `P̂` where a
    /// dense factor is required (level-restricted direct assembly).
    pub(crate) fn apply_p_hat_mat(&self, node: usize, zmat: &Mat) -> Mat {
        if let Some(p) = self.factors[node].p_hat.as_ref() {
            let mut out = workspace::take_mat_detached(p.nrows(), zmat.ncols());
            gemm(1.0, p.rb(), Trans::No, zmat.rb(), Trans::No, 0.0, out.rb_mut());
            return out;
        }
        let tree = self.st.tree();
        let (l, r) =
            tree.node(node).children.expect("recompute-W: internal node without stored P-hat");
        let sk = self.st.skeleton(node).expect("apply_p_hat on unskeletonized node");
        let (sl, sr) = (
            self.st.skeleton(l).expect("child skeleton").rank(),
            self.st.skeleton(r).expect("child skeleton").rank(),
        );
        let nrhs = zmat.ncols();
        // Pooled temporaries: y and c are fully overwritten by the beta = 0
        // products below and recycled before returning.
        let mut y = workspace::take_mat_detached(sl + sr, nrhs);
        gemm(1.0, sk.proj.rb(), Trans::Yes, zmat.rb(), Trans::No, 0.0, y.rb_mut());
        let b_l = self.factors[node].b_l.as_ref().expect("recompute-W needs B blocks");
        let b_r = self.factors[node].b_r.as_ref().expect("recompute-W needs B blocks");
        let z_lu = self.factors[node].z_lu.as_ref().expect("reduced system missing");
        let mut c = workspace::take_mat_detached(sl + sr, nrhs);
        gemm(
            1.0,
            b_l.rb(),
            Trans::No,
            y.submatrix(sl..sl + sr, 0..nrhs),
            Trans::No,
            0.0,
            c.rb_mut().submatrix_mut(0..sl, 0..nrhs),
        );
        gemm(
            1.0,
            b_r.rb(),
            Trans::No,
            y.submatrix(0..sl, 0..nrhs),
            Trans::No,
            0.0,
            c.rb_mut().submatrix_mut(sl..sl + sr, 0..nrhs),
        );
        z_lu.solve_mat_inplace(&mut c);
        for j in 0..nrhs {
            for i in 0..sl + sr {
                y[(i, j)] -= c[(i, j)];
            }
        }
        workspace::recycle_mat(c);
        let ytop = workspace::mat_from_view(y.submatrix(0..sl, 0..nrhs));
        let ybot = workspace::mat_from_view(y.submatrix(sl..sl + sr, 0..nrhs));
        workspace::recycle_mat(y);
        let top = self.apply_p_hat_mat(l, &ytop);
        let bot = self.apply_p_hat_mat(r, &ybot);
        workspace::recycle_mat(ytop);
        workspace::recycle_mat(ybot);
        // Stack the halves through a pooled take (`Mat::vcat` allocates
        // fresh storage, which would be the one unpooled allocation per
        // internal node on the steady-state multi-RHS solve path).
        let (nt, nb) = (top.nrows(), bot.nrows());
        let mut out = workspace::take_mat_detached(nt + nb, nrhs);
        for j in 0..nrhs {
            out.col_mut(j)[..nt].copy_from_slice(top.col(j));
            out.col_mut(j)[nt..].copy_from_slice(bot.col(j));
        }
        workspace::recycle_mat(top);
        workspace::recycle_mat(bot);
        out
    }

    /// Multi-RHS variant of [`solve_node`](Self::solve_node); `u` is
    /// `|α| x nrhs`. This is the workhorse of the `O(N log² N)` baseline,
    /// which calls it once per node with `s` right-hand sides.
    pub(crate) fn solve_node_mat(&self, node: usize, u: &mut Mat) {
        let tree = self.st.tree();
        let nd = tree.node(node);
        debug_assert_eq!(u.nrows(), nd.len());
        let nrhs = u.ncols();
        let Some((l, r)) = nd.children else {
            let lu = self.factors[node].leaf_lu.as_ref().expect("leaf LU missing");
            lu.solve_mat_inplace(u);
            return;
        };
        let nl = tree.node(l).len();
        let nr = tree.node(r).len();

        // D^{-1} on both halves; row-halves of a column-major matrix are
        // strided, so work on owned (pooled) copies.
        let mut utop = workspace::mat_from_view(u.submatrix(0..nl, 0..nrhs));
        let mut ubot = workspace::mat_from_view(u.submatrix(nl..nl + nr, 0..nrhs));
        rayon::join(|| self.solve_node_mat(l, &mut utop), || self.solve_node_mat(r, &mut ubot));
        self.smw_correct_mat(node, l, r, &mut utop, &mut ubot);
        for j in 0..nrhs {
            u.col_mut(j)[..nl].copy_from_slice(utop.col(j));
            u.col_mut(j)[nl..].copy_from_slice(ubot.col(j));
        }
        workspace::recycle_mat(utop);
        workspace::recycle_mat(ubot);
    }

    /// The SMW correction step of [`solve_node_mat`](Self::solve_node_mat)
    /// at internal node `node` with children `l`, `r`: given the two
    /// child-solved halves `utop = D_l^{-1} u_l`, `ubot = D_r^{-1} u_r`,
    /// subtracts the low-rank coupling correction in place.
    ///
    /// Factored out so the sharded solve's shared top tree
    /// ([`crate::partition::PartitionedFactor`]) can run the exact same
    /// per-node arithmetic over gathered shard blocks — the operation
    /// sequence is identical to the recursive path, which is what keeps
    /// the sharded answer bitwise-equal to the single-node one.
    pub(crate) fn smw_correct_mat(
        &self,
        node: usize,
        l: usize,
        r: usize,
        utop: &mut Mat,
        ubot: &mut Mat,
    ) {
        let tree = self.st.tree();
        let nrhs = utop.ncols();
        debug_assert_eq!(nrhs, ubot.ncols());
        let nl = utop.nrows();
        let nr = ubot.nrows();
        debug_assert_eq!(nl, tree.node(l).len());
        debug_assert_eq!(nr, tree.node(r).len());
        let skl = self.st.skeleton(l).expect("children skeletons required");
        let skr = self.st.skeleton(r).expect("children skeletons required");
        let (sl, sr) = (skl.rank(), skr.rank());

        if sl + sr == 0 {
            return; // vanishing off-diagonal coupling
        }
        let z_lu = self.factors[node].z_lu.as_ref().expect("reduced system missing");
        let mut y = workspace::take_mat_detached(sl + sr, nrhs);
        // Y = V U = [K_{l̃ r} U_r ; K_{r̃ l} U_l]: two independent products
        // into disjoint row blocks of Y. Near the root they are wide and
        // short (m = s < 2·MC never row-splits inside `gemm`), so the pair
        // is what runs in parallel.
        {
            let (ytop, ybot) = y.rb_mut().split_at_row(sl);
            let (ul, ur) = (utop.rb(), ubot.rb());
            match self.config.storage {
                StorageMode::StoredGemv => {
                    let v_lr = self.factors[node].v_lr.as_ref().expect("stored V missing");
                    let v_rl = self.factors[node].v_rl.as_ref().expect("stored V missing");
                    rayon::join(
                        || gemm(1.0, v_lr.rb(), Trans::No, ur, Trans::No, 0.0, ytop),
                        || gemm(1.0, v_rl.rb(), Trans::No, ul, Trans::No, 0.0, ybot),
                    );
                }
                StorageMode::RecomputeGemm => {
                    let rc: Vec<usize> = tree.node(r).range().collect();
                    let lc: Vec<usize> = tree.node(l).range().collect();
                    let pts = tree.points();
                    rayon::join(
                        || sum_reference_multi(self.kernel, pts, &skl.skeleton, &rc, ur, ytop),
                        || sum_reference_multi(self.kernel, pts, &skr.skeleton, &lc, ul, ybot),
                    );
                }
                StorageMode::Gsks => {
                    let rc: Vec<usize> = tree.node(r).range().collect();
                    let lc: Vec<usize> = tree.node(l).range().collect();
                    let pts = tree.points();
                    rayon::join(
                        || sum_fused_multi(self.kernel, pts, &skl.skeleton, &rc, ur, ytop),
                        || sum_fused_multi(self.kernel, pts, &skr.skeleton, &lc, ul, ybot),
                    );
                }
            }
        }
        z_lu.solve_mat_inplace(&mut y);
        // U -= W Z = [P̂_l Z_top ; P̂_r Z_bot], the halves again independent.
        rayon::join(
            || self.sub_p_hat_apply_mat(l, y.submatrix(0..sl, 0..nrhs), utop),
            || self.sub_p_hat_apply_mat(r, y.submatrix(sl..sl + sr, 0..nrhs), ubot),
        );
        workspace::recycle_mat(y);
    }

    /// `out -= P̂_node Z`, multi-RHS form of
    /// [`sub_p_hat_apply`](Self::sub_p_hat_apply): one GEMM against the
    /// stored factor, or the telescoped recurrence (eq. 10) in
    /// [`crate::config::WStorage::Recompute`] mode.
    fn sub_p_hat_apply_mat(&self, node: usize, z: MatRef<'_>, out: &mut Mat) {
        if let Some(p) = self.factors[node].p_hat.as_ref() {
            gemm(-1.0, p.rb(), Trans::No, z, Trans::No, 1.0, out.rb_mut());
            return;
        }
        let zm = workspace::mat_from_view(z);
        let corr = self.apply_p_hat_mat(node, &zm);
        workspace::recycle_mat(zm);
        for j in 0..out.ncols() {
            for (o, c) in out.col_mut(j).iter_mut().zip(corr.col(j)) {
                *o -= c;
            }
        }
        workspace::recycle_mat(corr);
    }
}
