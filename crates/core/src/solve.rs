//! The `O(N log N)` solve — Algorithm II.3.
//!
//! `K̃_αα^{-1} U = (I − W_α Z_α^{-1} V_α) D_α^{-1} U`: recurse into the
//! children (the `D^{-1}` application), then apply the
//! Sherman–Morrison–Woodbury correction through the reduced system. The
//! `V` product runs in the configured storage mode (stored GEMM /
//! recomputed GEMM / fused GSKS — Table IV). The stored blocks are the
//! coupling blocks of the factor's [`AssembledBlocks`], read in place:
//! any number of λ-factors over one assembly solve against the same
//! `K_{l̃r}` / `K_{r̃l}` memory.
//!
//! There is one rendering of the recursion, over column-major *views*:
//! `SolveCtx::solve_node` takes the `|α| x nrhs` block as a
//! [`MatMut`], hands its two `split_at_row` halves to the children and
//! corrects those same halves in place, so nothing is copied on the way
//! down or up. A single right-hand side is the `n x 1` view of the
//! caller's slice ([`MatMut::from_col`]); the `O(N log² N)` baseline
//! (which *is* this solve applied to `s` right-hand sides per node, over
//! a partially built factor set), the sharded top sweep and the hybrid
//! solver's frontier solves all drive the same routine through
//! `SolveCtx`. Every primitive below it (`gemm`, the LU/Cholesky TRSMs,
//! the multi-RHS summations) takes strided views and picks its own kernel
//! from the shape it is handed — one column reaches a level-2 kernel
//! there, never through a branch here.
//!
//! The steady-state path allocates nothing: temporaries come from
//! [`kfds_la::workspace`] (`kfds-lint`'s hot-path-alloc rule holds this
//! module to it).

use crate::assemble::AssembledBlocks;
use crate::config::{SolverConfig, StorageMode};
use crate::error::SolverError;
use crate::factor::{FactorTree, NodeFactors};
use kfds_askit::SkeletonTree;
use kfds_kernels::{sum_fused_multi, sum_reference_multi, Kernel};
use kfds_la::{gemm, workspace, Mat, MatMut, MatRef, Trans};

/// Borrowed solve context: a skeleton tree plus (possibly in-progress)
/// node factors, and under [`StorageMode::StoredGemv`] the assembly whose
/// coupling blocks are the stored `V`.
pub(crate) struct SolveCtx<'b, K: Kernel> {
    pub st: &'b SkeletonTree,
    pub kernel: &'b K,
    pub config: &'b SolverConfig,
    pub factors: &'b [NodeFactors],
    pub blocks: Option<&'b AssembledBlocks>,
}

/// The one right-hand-side shape check: `got` rows against the problem
/// size `expected`.
pub(crate) fn check_rhs_rows(expected: usize, got: usize) -> Result<(), SolverError> {
    if got == expected {
        Ok(())
    } else {
        Err(SolverError::RhsShape { expected, got })
    }
}

impl<K: Kernel> FactorTree<'_, K> {
    pub(crate) fn ctx(&self) -> SolveCtx<'_, K> {
        SolveCtx {
            st: self.st,
            kernel: self.kernel,
            config: &self.config,
            factors: &self.factors,
            blocks: self.blocks.as_deref(),
        }
    }

    /// Solves `(λI + K̃) X = B` in place on a view (`B` in the tree's
    /// permuted ordering): the entry every public solve goes through.
    fn solve_view(&self, b: MatMut<'_>) -> Result<(), SolverError> {
        let tree = self.st.tree();
        check_rhs_rows(tree.points().len(), b.nrows())?;
        if !self.is_complete() {
            return Err(SolverError::NotSkeletonized { node: tree.root() });
        }
        if b.ncols() > 0 {
            self.ctx().solve_node(tree.root(), b);
        }
        Ok(())
    }

    /// Solves `(λI + K̃) x = b` in place (`b` in the tree's permuted
    /// ordering), using the complete direct factorization. The answer is
    /// column 0 of the one-column blocked solve, bit for bit.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `b.len()` is not the problem size;
    /// [`SolverError::NotSkeletonized`] if the factorization is partial
    /// (level restriction) — use the hybrid solver then.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), SolverError> {
        self.solve_view(MatMut::from_col(b))
    }

    /// Solves `(λI + K̃) X = B` in place for a multi-column right-hand
    /// side.
    ///
    /// # Errors
    /// As [`solve_in_place`](Self::solve_in_place), on `b.nrows()`.
    pub fn solve_mat_in_place(&self, b: &mut Mat) -> Result<(), SolverError> {
        self.solve_view(b.rb_mut())
    }

    /// Convenience wrapper: solve with a right-hand side in *original*
    /// point order, returning the solution in original order.
    ///
    /// # Errors
    /// As [`solve_in_place`](Self::solve_in_place).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let tree = self.st.tree();
        check_rhs_rows(tree.points().len(), b.len())?;
        let mut bp = tree.permute_vec(b);
        self.solve_in_place(&mut bp)?;
        Ok(tree.unpermute_vec(&bp))
    }
}

impl<K: Kernel> SolveCtx<'_, K> {
    /// Applies `K̃_αα^{-1}` to the `|α| x nrhs` view `u` in place — the
    /// recursive Solve of Algorithm II.3 (`do_recur = true` path).
    pub(crate) fn solve_node(&self, node: usize, u: MatMut<'_>) {
        let tree = self.st.tree();
        let nd = tree.node(node);
        debug_assert_eq!(u.nrows(), nd.len());
        let Some((l, r)) = nd.children else {
            self.factors[node]
                .leaf_lu
                .as_ref()
                .expect("leaf LU missing in factored region")
                .solve_mat_mut(u);
            return;
        };
        // D^{-1}: independent recursive solves on the two row halves.
        let (mut ul, mut ur) = u.split_at_row(tree.node(l).len());
        rayon::join(|| self.solve_node(l, ul.rb_mut()), || self.solve_node(r, ur.rb_mut()));
        self.smw_correct(node, l, r, ul, ur);
    }

    /// The SMW correction `U -= W_α Z_α^{-1} V_α U` at internal node
    /// `node` with children `l`, `r`, given the two child-solved halves
    /// `ul = D_l^{-1} U_l`, `ur = D_r^{-1} U_r`.
    ///
    /// Separate from [`solve_node`](Self::solve_node) so the sharded
    /// solve's shared top tree ([`crate::partition::PartitionedFactor`])
    /// runs the same per-node arithmetic over the gathered shard blocks —
    /// which is what keeps the sharded answer bitwise-equal to the
    /// single-node one.
    pub(crate) fn smw_correct(
        &self,
        node: usize,
        l: usize,
        r: usize,
        ul: MatMut<'_>,
        ur: MatMut<'_>,
    ) {
        let tree = self.st.tree();
        let nrhs = ul.ncols();
        debug_assert_eq!(nrhs, ur.ncols());
        debug_assert_eq!(ul.nrows(), tree.node(l).len());
        debug_assert_eq!(ur.nrows(), tree.node(r).len());
        let skl = self.st.skeleton(l).expect("children skeletons required");
        let skr = self.st.skeleton(r).expect("children skeletons required");
        let (sl, sr) = (skl.rank(), skr.rank());

        if sl + sr == 0 {
            return; // vanishing off-diagonal coupling
        }
        let z_lu = self.factors[node].z_lu.as_ref().expect("reduced system missing");
        // Pooled scratch: the beta = 0 products below overwrite all of it.
        let mut y = workspace::take_mat_detached(sl + sr, nrhs);
        // Y = V U = [K_{l̃ r} U_r ; K_{r̃ l} U_l]: two independent products
        // into disjoint row blocks of Y. Near the root they are wide and
        // short (m = s < 2·MC never row-splits inside `gemm`), so the pair
        // is what runs in parallel.
        {
            let (ytop, ybot) = y.rb_mut().split_at_row(sl);
            let (ul, ur) = (ul.rb(), ur.rb());
            match self.config.storage {
                StorageMode::StoredGemv => {
                    let (v_lr, v_rl) =
                        self.blocks.expect("a stored factor has an assembly").coupling(node);
                    rayon::join(
                        || gemm(1.0, v_lr.rb(), Trans::No, ur, Trans::No, 0.0, ytop),
                        || gemm(1.0, v_rl.rb(), Trans::No, ul, Trans::No, 0.0, ybot),
                    );
                }
                storage => {
                    // The matrix-free engines take explicit column lists;
                    // build them in pooled index scratch.
                    let mut rc = workspace::take_idx(ur.nrows());
                    rc.extend(tree.node(r).range());
                    let mut lc = workspace::take_idx(ul.nrows());
                    lc.extend(tree.node(l).range());
                    let (k, pts) = (self.kernel, tree.points());
                    if storage == StorageMode::RecomputeGemm {
                        rayon::join(
                            || sum_reference_multi(k, pts, &skl.skeleton, &rc, ur, ytop),
                            || sum_reference_multi(k, pts, &skr.skeleton, &lc, ul, ybot),
                        );
                    } else {
                        rayon::join(
                            || sum_fused_multi(k, pts, &skl.skeleton, &rc, ur, ytop),
                            || sum_fused_multi(k, pts, &skr.skeleton, &lc, ul, ybot),
                        );
                    }
                }
            }
        }
        z_lu.solve_mat_inplace(&mut y);
        // U -= W Z = [P̂_l Z_top ; P̂_r Z_bot], the halves again independent.
        rayon::join(
            || self.sub_p_hat_apply(l, y.submatrix(0..sl, 0..nrhs), ul),
            || self.sub_p_hat_apply(r, y.submatrix(sl..sl + sr, 0..nrhs), ur),
        );
        workspace::recycle_mat(y);
    }

    /// `out -= P̂_node Z`: one GEMM against the stored factor, or the
    /// telescoped recurrence (eq. 10) in
    /// [`crate::config::WStorage::Recompute`] mode.
    fn sub_p_hat_apply(&self, node: usize, z: MatRef<'_>, mut out: MatMut<'_>) {
        if let Some(p) = self.factors[node].p_hat.as_ref() {
            gemm(-1.0, p.rb(), Trans::No, z, Trans::No, 1.0, out);
            return;
        }
        let corr = self.apply_p_hat(node, z);
        for j in 0..out.ncols() {
            for (o, c) in out.col_mut(j).iter_mut().zip(corr.col(j)) {
                *o -= c;
            }
        }
        workspace::recycle_mat(corr);
    }

    /// Returns `P̂_{αα̃} Z` (`|α| x nrhs`) in pooled storage (hand it back
    /// with [`workspace::recycle_mat`]). Also used to materialize `P̂`
    /// where a dense factor is required (reduced-operator assembly).
    pub(crate) fn apply_p_hat(&self, node: usize, z: MatRef<'_>) -> Mat {
        let mut out = workspace::take_mat_detached(self.st.tree().node(node).len(), z.ncols());
        self.apply_p_hat_into(node, z, out.rb_mut());
        out
    }

    /// `out = P̂_{αα̃} Z` (overwrites `out`): the stored factor when there
    /// is one, otherwise telescoped through the children (eq. 10) —
    /// `P̂_α Z = W_α T`, `T = Y − Z_α^{-1}(Z_α − I) Y`, `Y = P_{[l̃r̃]α̃} Z` —
    /// each child writing its own row half of `out`.
    pub(crate) fn apply_p_hat_into(&self, node: usize, z: MatRef<'_>, out: MatMut<'_>) {
        if let Some(p) = self.factors[node].p_hat.as_ref() {
            gemm(1.0, p.rb(), Trans::No, z, Trans::No, 0.0, out);
            return;
        }
        let tree = self.st.tree();
        let (l, r) =
            tree.node(node).children.expect("recompute-W: internal node without stored P-hat");
        let sk = self.st.skeleton(node).expect("apply_p_hat on unskeletonized node");
        let (sl, sr) = (
            self.st.skeleton(l).expect("child skeleton").rank(),
            self.st.skeleton(r).expect("child skeleton").rank(),
        );
        let nrhs = z.ncols();
        // Pooled temporaries: y and c are fully overwritten by the beta = 0
        // products below and recycled before returning.
        // Y = P_{[l̃r̃]α̃} Z  (proj is s x (sl+sr); we need proj^T Z).
        let mut y = workspace::take_mat_detached(sl + sr, nrhs);
        gemm(1.0, sk.proj.rb(), Trans::Yes, z, Trans::No, 0.0, y.rb_mut());
        // C = Z^{-1} (Z − I) Y, with (Z−I)Y = [B_l Y_bot; B_r Y_top].
        let b_l = self.factors[node].b_l.as_ref().expect("recompute-W needs B blocks");
        let b_r = self.factors[node].b_r.as_ref().expect("recompute-W needs B blocks");
        let z_lu = self.factors[node].z_lu.as_ref().expect("reduced system missing");
        let mut c = workspace::take_mat_detached(sl + sr, nrhs);
        {
            let (ctop, cbot) = c.rb_mut().split_at_row(sl);
            let (ytop, ybot) = (y.submatrix(0..sl, 0..nrhs), y.submatrix(sl..sl + sr, 0..nrhs));
            gemm(1.0, b_l.rb(), Trans::No, ybot, Trans::No, 0.0, ctop);
            gemm(1.0, b_r.rb(), Trans::No, ytop, Trans::No, 0.0, cbot);
        }
        z_lu.solve_mat_inplace(&mut c);
        for j in 0..nrhs {
            for (yi, ci) in y.col_mut(j).iter_mut().zip(c.col(j)) {
                *yi -= ci;
            }
        }
        workspace::recycle_mat(c);
        // W T = [P̂_l T_top ; P̂_r T_bot], recursively.
        let (otop, obot) = out.split_at_row(tree.node(l).len());
        self.apply_p_hat_into(l, y.submatrix(0..sl, 0..nrhs), otop);
        self.apply_p_hat_into(r, y.submatrix(sl..sl + sr, 0..nrhs), obot);
        workspace::recycle_mat(y);
    }
}
