//! The `O(N log N)` direct factorization — Algorithm II.2 with the
//! telescoping of eq. (10).
//!
//! Bottom-up over the tree: leaves LU-factorize `λI + K_αα` and solve for
//! `P̂_{αα̃} = (λI+K_αα)^{-1} P_{αα̃}`; an internal node `α` forms and
//! LU-factorizes the reduced system (eq. 8)
//!
//! ```text
//! Z_α = [ I                  K_{l̃r} P̂_{rr̃} ]
//!       [ K_{r̃l} P̂_{ll̃}   I               ]
//! ```
//!
//! and *telescopes* `P̂_{αα̃}` from the children's `P̂` factors alone
//! (eq. 10) — no subtree traversal, which is precisely the improvement
//! over the `O(N log² N)` scheme of \[36\] (implemented in
//! [`crate::baseline`] for the Table III comparison).
//!
//! The sweep is level-synchronous, as the paper's shared-memory layer
//! schedules it: deepest level first, the nodes of a level as the tasks of
//! one `par_iter`, each running `factor_node` start to finish — a node
//! reads only its children's `P̂`, final since the level below.
//!
//! The sweep evaluates no coupling block: under
//! [`StorageMode::StoredGemv`] the `V` blocks live in the
//! [`AssembledBlocks`] the tree carries — the caller's, or one
//! [`factorize`] assembles first — and are read there by reference, here
//! and in the solve. The leaf diagonals `K_αα`, which the LU overwrites,
//! are all a stored sweep evaluates — whoever assembled.

use crate::assemble::{assemble, assemble_blocks, AssembledBlocks};
use crate::config::{
    FactorStats, LeafFactorization, LevelStats, SolverConfig, StorageMode, WStorage,
};
use crate::error::SolverError;
use kfds_askit::SkeletonTree;
use kfds_kernels::flops;
use kfds_kernels::{eval_symmetric, sum_fused_multi, sum_reference_multi, Kernel};
use kfds_la::{gemm, workspace, Cholesky, Lu, Mat, MatMut, Trans};
use kfds_tree::BallTree;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A factorized leaf diagonal block `λI + K_αα`.
#[derive(Debug)]
pub enum LeafFactor {
    /// Partial-pivoted LU.
    Lu(Lu),
    /// Cholesky (`λI + K` is SPD for PSD kernels).
    Cholesky(Cholesky),
}

impl LeafFactor {
    /// Solves the leaf block in place on a view of the right-hand sides.
    pub fn solve_mat_mut(&self, b: MatMut<'_>) {
        match self {
            LeafFactor::Lu(f) => f.solve_mat_mut(b),
            LeafFactor::Cholesky(f) => f.solve_mat_mut(b),
        }
    }

    /// Conditioning proxy (see the individual factorizations).
    pub fn min_pivot_ratio(&self) -> f64 {
        match self {
            LeafFactor::Lu(f) => f.min_pivot_ratio(),
            LeafFactor::Cholesky(f) => f.min_pivot_ratio(),
        }
    }
}

/// The λ-dependent factors stored at one tree node (the stored `V` blocks
/// are not among them: see [`FactorTree::assembled_blocks`]).
#[derive(Debug, Default)]
pub struct NodeFactors {
    /// Factorization of `λI + K_αα` (leaves only).
    pub leaf_lu: Option<LeafFactor>,
    /// LU of the reduced system `Z_α` (internal nodes in the factored
    /// region).
    pub z_lu: Option<Lu>,
    /// `P̂_{αα̃} = (λI + K̃_αα)^{-1} P_{αα̃}` (`|α| x s`), for
    /// skeletonized nodes.
    pub p_hat: Option<Mat>,
    /// Coupling blocks `B_l = K_{l̃r}P̂_{rr̃}`, `B_r = K_{r̃l}P̂_{ll̃}`
    /// (small, `s x s`) — retained in [`WStorage::Recompute`] so `P̂`
    /// applications can telescope through eq. (10) without storing `P̂`.
    pub b_l: Option<Mat>,
    /// See [`NodeFactors::b_l`].
    pub b_r: Option<Mat>,
}

/// The factorization of `λI + K̃` over a skeleton tree.
pub struct FactorTree<'a, K: Kernel> {
    pub(crate) st: &'a SkeletonTree,
    pub(crate) kernel: &'a K,
    pub(crate) config: SolverConfig,
    pub(crate) factors: Vec<NodeFactors>,
    pub(crate) stats: FactorStats,
    /// The λ-independent kernel blocks this tree was factorized over:
    /// `Some` for every [`StorageMode::StoredGemv`] tree (they hold its
    /// `V` blocks), `None` for the matrix-free modes.
    pub(crate) blocks: Option<Arc<AssembledBlocks>>,
}

/// Per-node accounting folded into [`FactorStats`].
#[derive(Default, Clone, Copy)]
pub(crate) struct NodeCost {
    pub flops: f64,
    pub min_pivot: f64,
    pub unstable: usize,
    pub bytes: usize,
}

impl<'a, K: Kernel> FactorTree<'a, K> {
    /// The skeleton tree this factorization refers to.
    pub fn skeleton_tree(&self) -> &'a SkeletonTree {
        self.st
    }

    /// The kernel function.
    pub fn kernel(&self) -> &'a K {
        self.kernel
    }

    /// The solver configuration (λ, storage mode).
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Factorization diagnostics.
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Per-node factors (indexed like the tree's nodes).
    pub fn factors(&self) -> &[NodeFactors] {
        &self.factors
    }

    /// `true` when the whole matrix can be solved directly (the root's
    /// reduced system exists).
    pub fn is_complete(&self) -> bool {
        let root = self.st.tree().root();
        self.factors[root].z_lu.is_some() || self.st.tree().node(root).is_leaf()
    }

    /// The assembled blocks backing this factorization — the one home of
    /// its stored `V` blocks, so every [`StorageMode::StoredGemv`] tree has
    /// them: the caller's, shared, from [`factorize_with_blocks`] /
    /// [`FactorTree::refactor`]; its own, coupling blocks only, from plain
    /// [`factorize`]. Matrix-free trees carry none.
    pub fn assembled_blocks(&self) -> Option<&Arc<AssembledBlocks>> {
        self.blocks.as_ref()
    }

    /// Re-factorizes at a new `λ` touching **only the linear algebra**:
    /// the diagonal shift, LU/Cholesky factorizations, `P̂` solves, and
    /// reduced systems are redone over this tree's assembly, which the
    /// returned tree shares — no `V` block is re-evaluated or copied, and
    /// further refactors chain for free. A matrix-free tree pays for an
    /// assembly here, once. The leaf diagonals `K_αα` (and no other kernel
    /// block) are evaluated per λ, as in any stored factorization.
    ///
    /// The result uses [`StorageMode::StoredGemv`] regardless of this
    /// tree's storage mode (see [`factorize_with_blocks`]) and is bitwise
    /// identical to `factorize(st, kernel, cfg.with_lambda(lambda)
    /// .with_storage(StoredGemv))`.
    ///
    /// # Errors
    /// Propagates [`SolverError`] from the factorization (a non-finite λ,
    /// or one that makes a leaf block singular).
    pub fn refactor(&self, lambda: f64) -> Result<FactorTree<'a, K>, SolverError> {
        let blocks = match &self.blocks {
            Some(b) => Arc::clone(b),
            None => Arc::new(assemble_blocks(self.st, self.kernel)),
        };
        factorize_with_blocks(self.st, self.kernel, blocks, self.config.with_lambda(lambda))
    }
}

/// Runs the `O(N log N)` factorization of `λI + K̃`.
///
/// All nodes inside the skeletonization frontier are factorized; with a
/// fully skeletonized tree (no level restriction) this includes the root's
/// reduced system and the result is a complete direct factorization. With
/// level restriction the result is the partial factorization consumed by
/// the hybrid solver.
///
/// # Errors
/// [`SolverError::NonFiniteLambda`] for a NaN or infinite `config.lambda`,
/// before anything is evaluated; [`SolverError::Factorization`] when a leaf
/// or reduced system is exactly singular. A finite `λ ≤ 0`, or one below
/// the §III threshold, still factorizes and is reported through
/// [`FactorStats::unstable_factorizations`].
pub fn factorize<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: SolverConfig,
) -> Result<FactorTree<'a, K>, SolverError> {
    factorize_impl(st, kernel, config, None, st.tree().root())
}

/// Runs the λ-dependent half of the factorization over pre-assembled
/// coupling blocks (see [`crate::assemble_blocks`]): the leaf diagonals
/// `K_αα` are the only kernel blocks evaluated, then the diagonal shift,
/// LU/Cholesky factorizations, `P̂` solves, and reduced systems.
///
/// The storage mode is pinned to [`StorageMode::StoredGemv`]: the
/// assembly's coupling blocks *are* the stored `V` blocks — the tree keeps
/// the `Arc` and reads them in place ([`FactorStats::shared_bytes`]); the
/// GSKS fused path would accumulate in another order and break the
/// bitwise contract. The result is bitwise identical to
/// `factorize(st, kernel, config.with_storage(StoredGemv))`.
///
/// # Errors
/// [`SolverError::BlocksMismatch`] if `blocks` was not assembled over
/// this skeleton tree; otherwise exactly like [`factorize`].
pub fn factorize_with_blocks<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    blocks: Arc<AssembledBlocks>,
    config: SolverConfig,
) -> Result<FactorTree<'a, K>, SolverError> {
    blocks.check_compatible(st)?;
    let config = config.with_storage(StorageMode::StoredGemv);
    factorize_impl(st, kernel, config, Some(blocks), st.tree().root())
}

/// The sweep behind [`factorize`] and [`factorize_with_blocks`], over the
/// subtree under `root` (the whole tree, or a rank's share in
/// [`crate::dist`]): factors exist only for that subtree's nodes.
pub(crate) fn factorize_impl<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: SolverConfig,
    blocks: Option<Arc<AssembledBlocks>>,
    root: usize,
) -> Result<FactorTree<'a, K>, SolverError> {
    if !config.lambda.is_finite() {
        return Err(SolverError::NonFiniteLambda { lambda: config.lambda });
    }
    let t0 = Instant::now();
    let tree = st.tree();
    let n_nodes = tree.nodes().len();
    // Stored V lives in the assembly: a caller's is shared, its bytes not
    // this call's; a fresh stored factorization assembles its own first.
    let shared_bytes = blocks.as_ref().map_or(0, |b| b.stats().bytes);
    let own = (blocks.is_none() && config.storage == StorageMode::StoredGemv)
        .then(|| Arc::new(assemble(st, kernel, root)));
    let own_bytes = own.as_ref().map_or(0, |b| b.stats().bytes);
    let blocks = blocks.or(own);
    let mut factors: Vec<NodeFactors> = (0..n_nodes).map(|_| NodeFactors::default()).collect();
    let mut total = NodeCost { min_pivot: f64::INFINITY, bytes: own_bytes, ..Default::default() };
    let mut levels: Vec<LevelStats> = Vec::with_capacity(tree.depth() + 1);
    let under_root = |level: usize| {
        tree.nodes_at_level(level).iter().copied().filter(move |&i| in_subtree(tree, root, i))
    };

    for level in (0..=tree.depth()).rev() {
        let lt0 = Instant::now();
        let level_nodes: Vec<usize> =
            under_root(level).filter(|&i| in_factored_region(st, i)).collect();
        // The nodes of a level are independent: each reads only its
        // children's factors, final since the level below.
        let results: Vec<_> = level_nodes
            .par_iter()
            .map(|&i| factor_node(st, kernel, &config, blocks.as_deref(), &factors, i))
            .collect();
        for (&i, res) in level_nodes.iter().zip(results) {
            let (nf, cost) = res?;
            total.flops += cost.flops;
            total.min_pivot = total.min_pivot.min(cost.min_pivot);
            total.unstable += cost.unstable;
            total.bytes += cost.bytes;
            factors[i] = nf;
        }
        // Recompute-W mode: children's internal P̂ are only needed while
        // building this level; drop them to keep the retained memory at
        // O(sN) (leaves only) instead of O(sN log N).
        if config.w_storage == WStorage::Recompute {
            for i in under_root(level) {
                if let Some((l, r)) = tree.node(i).children {
                    for c in [l, r] {
                        if tree.node(c).children.is_some() {
                            if let Some(p) = factors[c].p_hat.take() {
                                total.bytes -= p.nrows() * p.ncols() * 8;
                            }
                        }
                    }
                }
            }
        }
        if !level_nodes.is_empty() {
            levels.push(LevelStats {
                level,
                nodes: level_nodes.len(),
                seconds: lt0.elapsed().as_secs_f64(),
            });
        }
    }

    let max_rank = (0..n_nodes).filter_map(|i| st.skeleton(i)).map(|s| s.rank()).max().unwrap_or(0);
    let stats = FactorStats {
        seconds: t0.elapsed().as_secs_f64(),
        flops: total.flops,
        min_pivot_ratio: if total.min_pivot.is_finite() { total.min_pivot } else { 1.0 },
        unstable_factorizations: total.unstable,
        max_rank,
        stored_bytes: total.bytes,
        shared_bytes,
        levels,
    };
    Ok(FactorTree { st, kernel, config, factors, stats, blocks })
}

/// `true` when `node` lies in the subtree under `root` (itself
/// included): at or below its level, inside its point range.
pub(crate) fn in_subtree(tree: &BallTree, root: usize, node: usize) -> bool {
    let (r, n) = (tree.node(root), tree.node(node));
    n.level >= r.level && r.begin <= n.begin && n.end <= r.end
}

/// A node is factorized iff it is skeletonized, or it is the root with both
/// children skeletonized (the root needs only its reduced system), or it is
/// a lone root-leaf (tiny trees).
pub(crate) fn in_factored_region(st: &SkeletonTree, node: usize) -> bool {
    if st.is_skeletonized(node) {
        return true;
    }
    let tree = st.tree();
    if node != tree.root() {
        return false;
    }
    match tree.node(node).children {
        Some((l, r)) => st.is_skeletonized(l) && st.is_skeletonized(r),
        None => true, // single-leaf tree: just a dense LU
    }
}

fn factor_node<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    blocks: Option<&AssembledBlocks>,
    factors: &[NodeFactors],
    node: usize,
) -> Result<(NodeFactors, NodeCost), SolverError> {
    let tree = st.tree();
    let nd = tree.node(node);
    match nd.children {
        None => factor_leaf(st, kernel, config, node),
        Some((l, r)) => {
            let p_hat_l = factors[l].p_hat.as_ref().expect("child P-hat missing");
            let p_hat_r = factors[r].p_hat.as_ref().expect("child P-hat missing");
            factor_internal(st, kernel, config, blocks, p_hat_l, p_hat_r, node, l, r)
        }
    }
}

/// Leaf factorization, shared with the baseline (both algorithms treat
/// leaves identically).
pub(crate) fn factor_leaf<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    node: usize,
) -> Result<(NodeFactors, NodeCost), SolverError> {
    let tree = st.tree();
    let nd = tree.node(node);
    let m = nd.len();
    let mut kaa = eval_symmetric(kernel, tree.points(), nd.range());
    let eval_flops = flops::summation_flops(m, m, tree.points().dim(), kernel.flops_per_eval());
    for i in 0..m {
        kaa[(i, i)] += config.lambda;
    }
    let (leaf, factor_flops) = match config.leaf {
        LeafFactorization::Lu => {
            let lu = Lu::factor(kaa).map_err(|e| SolverError::Factorization { node, source: e })?;
            (LeafFactor::Lu(lu), flops::lu_flops(m))
        }
        LeafFactorization::Cholesky => {
            let ch = Cholesky::factor(kaa)
                .map_err(|e| SolverError::Factorization { node, source: e })?;
            (LeafFactor::Cholesky(ch), flops::lu_flops(m) / 2.0)
        }
    };
    let mut cost = NodeCost {
        flops: factor_flops + eval_flops,
        min_pivot: leaf.min_pivot_ratio(),
        unstable: usize::from(leaf.min_pivot_ratio() < config.stability_threshold),
        bytes: m * m * 8,
    };
    // P̂_{αα̃} = (λI + K_αα)^{-1} P_{αα̃}; for root-leaf trees there is no
    // skeleton and no P̂.
    let p_hat = match st.skeleton(node) {
        Some(sk) => {
            let s = sk.rank();
            // `proj` is `s x m`; its transpose is the right-hand side.
            // Pooled: every element is written by the transpose copy.
            let mut p = workspace::take_mat_detached(m, s);
            for j in 0..s {
                for i in 0..m {
                    p[(i, j)] = sk.proj[(j, i)];
                }
            }
            leaf.solve_mat_mut(p.rb_mut());
            cost.flops += flops::lu_solve_flops(m, s);
            cost.bytes += m * s * 8;
            Some(p)
        }
        None => None,
    };
    Ok((NodeFactors { leaf_lu: Some(leaf), p_hat, ..Default::default() }, cost))
}

/// The reduced system of an internal node: off-diagonal coupling blocks
/// `B_l = K_{l̃r} P̂_{rr̃}`, `B_r = K_{r̃l} P̂_{ll̃}`, the LU of
/// `Z = I + VW`.
pub(crate) struct ReducedSystem {
    pub b_l: Mat,
    pub b_r: Mat,
    pub z_lu: Lu,
    pub cost: NodeCost,
}

/// Forms and factorizes the reduced system `Z_α` (eq. 8). Shared between
/// the `O(N log N)` factorization and the `O(N log² N)` baseline — both
/// construct *identical* reduced systems.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_reduced_system<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    blocks: Option<&AssembledBlocks>,
    p_hat_l: &Mat,
    p_hat_r: &Mat,
    node: usize,
    l: usize,
    r: usize,
) -> Result<ReducedSystem, SolverError> {
    let tree = st.tree();
    let pts = tree.points();
    let d = pts.dim();
    let skl = st.skeleton(l).expect("factorable node needs skeletonized children");
    let skr = st.skeleton(r).expect("factorable node needs skeletonized children");
    let (sl, sr) = (skl.rank(), skr.rank());
    let (nl, nr) = (tree.node(l).len(), tree.node(r).len());
    let mut cost = NodeCost { min_pivot: f64::INFINITY, ..Default::default() };

    // B_l = K_{l̃ r} P̂_{rr̃} (s_l x s_r) and B_r = K_{r̃ l} P̂_{ll̃}.
    // Pooled: all three storage modes fully overwrite both blocks
    // (beta = 0 GEMM / `sum_*_multi` overwrite their output).
    let mut b_l = workspace::take_mat_detached(sl, sr);
    let mut b_r = workspace::take_mat_detached(sr, sl);
    match config.storage {
        StorageMode::StoredGemv => {
            let (klr, krl) = blocks.expect("a stored factorization has an assembly").coupling(node);
            gemm(1.0, klr.rb(), Trans::No, p_hat_r.rb(), Trans::No, 0.0, b_l.rb_mut());
            gemm(1.0, krl.rb(), Trans::No, p_hat_l.rb(), Trans::No, 0.0, b_r.rb_mut());
            cost.flops += flops::gemm_flops(sl, sr, nr) + flops::gemm_flops(sr, sl, nl);
        }
        storage => {
            // The matrix-free engines take explicit column lists; build
            // them in pooled index scratch (one per node per factorize).
            let mut r_cols = workspace::take_idx(nr);
            r_cols.extend(tree.node(r).range());
            let mut l_cols = workspace::take_idx(nl);
            l_cols.extend(tree.node(l).range());
            if storage == StorageMode::RecomputeGemm {
                sum_reference_multi(
                    kernel,
                    pts,
                    &skl.skeleton,
                    &r_cols,
                    p_hat_r.rb(),
                    b_l.rb_mut(),
                );
                sum_reference_multi(
                    kernel,
                    pts,
                    &skr.skeleton,
                    &l_cols,
                    p_hat_l.rb(),
                    b_r.rb_mut(),
                );
            } else {
                sum_fused_multi(kernel, pts, &skl.skeleton, &r_cols, p_hat_r.rb(), b_l.rb_mut());
                sum_fused_multi(kernel, pts, &skr.skeleton, &l_cols, p_hat_l.rb(), b_r.rb_mut());
            }
        }
    }
    if !matches!(config.storage, StorageMode::StoredGemv) {
        // One kernel-block evaluation each, plus the multi-RHS reduction.
        cost.flops += flops::summation_flops(sl, nr, d, kernel.flops_per_eval())
            + flops::summation_flops(sr, nl, d, kernel.flops_per_eval())
            + 2.0 * (sl * nr * sr + sr * nl * sl) as f64;
    }

    let z_lu = factor_z(&b_l, &b_r, sl, sr, node, config, &mut cost)?;
    Ok(ReducedSystem { b_l, b_r, z_lu, cost })
}

/// Packs `Z = I + VW` (eq. 8) from the coupling blocks and LU-factorizes
/// it, folding the flop/byte/pivot accounting into `cost` — for this sweep
/// and the distributed levels of [`crate::dist`].
pub(crate) fn factor_z(
    b_l: &Mat,
    b_r: &Mat,
    sl: usize,
    sr: usize,
    node: usize,
    config: &SolverConfig,
    cost: &mut NodeCost,
) -> Result<Lu, SolverError> {
    let zdim = sl + sr;
    let mut z = workspace::take_mat_detached(zdim, zdim);
    z.rb_mut().fill(0.0);
    for i in 0..zdim {
        z[(i, i)] = 1.0;
    }
    for j in 0..sr {
        for i in 0..sl {
            z[(i, sl + j)] = b_l[(i, j)];
        }
    }
    for j in 0..sl {
        for i in 0..sr {
            z[(sl + i, j)] = b_r[(i, j)];
        }
    }
    let z_lu = Lu::factor(z).map_err(|e| SolverError::Factorization { node, source: e })?;
    cost.flops += flops::lu_flops(zdim);
    cost.bytes += zdim * zdim * 8;
    cost.min_pivot = cost.min_pivot.min(z_lu.min_pivot_ratio());
    cost.unstable += usize::from(z_lu.min_pivot_ratio() < config.stability_threshold);
    Ok(z_lu)
}

/// The telescoping factors of eq. (10), `M_c = Pt_c − (Z^{-1}(Z − I) Pt)_c`
/// with `Pt = projᵀ`, so that `P̂_α = [P̂_l M_l ; P̂_r M_r]` — for this
/// sweep and the distributed levels of [`crate::dist`]. Both results are
/// pooled: recycle them.
pub(crate) fn telescope_m(proj: &Mat, b_l: &Mat, b_r: &Mat, z_lu: &Lu) -> (Mat, Mat) {
    let (sl, sr, s) = (b_l.nrows(), b_r.nrows(), proj.nrows());
    // Row-halves of Pt, written straight from the transposed projection —
    // no (s_l + s_r) x s intermediate. Pooled: every element is
    // overwritten before use.
    let mut m_l = workspace::take_mat_detached(sl, s);
    let mut m_r = workspace::take_mat_detached(sr, s);
    for j in 0..s {
        for i in 0..sl {
            m_l[(i, j)] = proj[(j, i)];
        }
        for i in 0..sr {
            m_r[(i, j)] = proj[(j, sl + i)];
        }
    }
    // C = (Z − I) Pt, via the already-formed off-diagonal blocks.
    let mut c = workspace::take_mat_detached(sl + sr, s);
    let (ctop, cbot) = c.rb_mut().split_at_row(sl);
    gemm(1.0, b_l.rb(), Trans::No, m_r.rb(), Trans::No, 0.0, ctop);
    gemm(1.0, b_r.rb(), Trans::No, m_l.rb(), Trans::No, 0.0, cbot);
    // Y = Z^{-1} C.
    z_lu.solve_mat_inplace(&mut c);
    // M_c = Pt_c − Y_c.
    for j in 0..s {
        for i in 0..sl {
            m_l[(i, j)] -= c[(i, j)];
        }
        for i in 0..sr {
            m_r[(i, j)] -= c[(sl + i, j)];
        }
    }
    workspace::recycle_mat(c);
    (m_l, m_r)
}

#[allow(clippy::too_many_arguments)]
fn factor_internal<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    blocks: Option<&AssembledBlocks>,
    p_hat_l: &Mat,
    p_hat_r: &Mat,
    node: usize,
    l: usize,
    r: usize,
) -> Result<(NodeFactors, NodeCost), SolverError> {
    let tree = st.tree();
    let skl = st.skeleton(l).expect("factorable node needs skeletonized children");
    let skr = st.skeleton(r).expect("factorable node needs skeletonized children");
    let (sl, sr) = (skl.rank(), skr.rank());
    let (nl, nr) = (tree.node(l).len(), tree.node(r).len());
    let ReducedSystem { b_l, b_r, z_lu, mut cost } =
        build_reduced_system(st, kernel, config, blocks, p_hat_l, p_hat_r, node, l, r)?;
    let zdim = sl + sr;
    let keep_b = config.w_storage == WStorage::Recompute;
    if keep_b {
        cost.bytes += (sl * sr * 2) * 8;
    }

    // Telescope P̂_{αα̃} (eq. 10) from the children's P̂ — the O(N log N)
    // step that replaces [36]'s subtree traversal.
    let p_hat = match st.skeleton(node) {
        Some(sk) => {
            let s = sk.rank();
            let (m_l, m_r) = telescope_m(&sk.proj, &b_l, &b_r, &z_lu);
            cost.flops += flops::gemm_flops(sl, s, sr)
                + flops::gemm_flops(sr, s, sl)
                + flops::lu_solve_flops(zdim, s);
            // P̂_α = [P̂_l M_l ; P̂_r M_r].
            let mut p = workspace::take_mat_detached(nl + nr, s);
            let (ptop, pbot) = p.rb_mut().split_at_row(nl);
            gemm(1.0, p_hat_l.rb(), Trans::No, m_l.rb(), Trans::No, 0.0, ptop);
            gemm(1.0, p_hat_r.rb(), Trans::No, m_r.rb(), Trans::No, 0.0, pbot);
            workspace::recycle_mat(m_l);
            workspace::recycle_mat(m_r);
            cost.flops += flops::gemm_flops(nl, s, sl) + flops::gemm_flops(nr, s, sr);
            cost.bytes += (nl + nr) * s * 8;
            Some(p)
        }
        None => None,
    };

    let (b_l_keep, b_r_keep) = if keep_b {
        (Some(b_l), Some(b_r))
    } else {
        workspace::recycle_mat(b_l);
        workspace::recycle_mat(b_r);
        (None, None)
    };
    Ok((
        NodeFactors { z_lu: Some(z_lu), p_hat, b_l: b_l_keep, b_r: b_r_keep, ..Default::default() },
        cost,
    ))
}
