//! The `O(N log N)` direct factorization — Algorithm II.2 with the
//! telescoping of eq. (10).
//!
//! Bottom-up over the tree: leaves LU-factorize `λI + K_αα` and solve for
//! `P̂_{αα̃} = (λI+K_αα)^{-1} P_{αα̃}`; an internal node `α` forms the
//! reduced system (eq. 8)
//!
//! ```text
//! Z_α = [ I     B_l ]    B_l = K_{l̃r} P̂_{rr̃}  (s_l x s_r)
//!       [ B_r   I   ]    B_r = K_{r̃l} P̂_{ll̃}  (s_r x s_l)
//!
//!   B_l, B_r ──► S = I − B_r B_l (s_r ≤ s_l) ──► LU(S)      [ReducedLu]
//!                or I − B_l B_r (s_l < s_r)
//!   Pᵀ = projᵀ ((s_l + s_r) x s) ──► M = Z⁻¹ Pᵀ, in place
//!   P̂_α = [ P̂_l M_top ; P̂_r M_bot ]                        (eq. 10)
//! ```
//!
//! factoring `Z_α` by block elimination — its identity blocks take no
//! pivots and no storage (see [`crate::reduced`]) — and *telescopes*
//! `P̂_{αα̃}` from the children's `P̂` factors alone (eq. 10) — no subtree
//! traversal, which is precisely the improvement over the `O(N log² N)`
//! scheme of \[36\] (implemented in [`crate::baseline`] for the Table III
//! comparison).
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
use crate::config::{FactorStats, LevelStats, SolverConfig, StorageMode, STABILITY_THRESHOLD};
use crate::error::SolverError;
use crate::hybrid::ReducedSystem;
use crate::reduced::ReducedLu;
use kfds_askit::SkeletonTree;
use kfds_kernels::flops;
use kfds_kernels::{eval_symmetric, sum_fused_multi, Kernel};
use kfds_la::{gemm, workspace, Lu, Mat, Trans};
use kfds_tree::BallTree;
use rayon::prelude::*;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The λ-dependent factors stored at one tree node (the stored `V` blocks
/// are not among them: see [`FactorTree::assembled_blocks`]). Every
/// factored, skeletonized node holds its `P̂`.
#[derive(Debug, Default)]
pub(crate) struct NodeFactors {
    /// LU of `λI + K_αα` (leaves only).
    pub(crate) leaf_lu: Option<Lu>,
    /// The reduced system `Z_α` — its coupling blocks and the LU of its
    /// Schur complement (internal nodes in the factored region).
    pub(crate) z: Option<ReducedLu>,
    /// `P̂_{αα̃} = (λI + K̃_αα)^{-1} P_{αα̃}` (`|α| x s`), for
    /// skeletonized nodes.
    pub(crate) p_hat: Option<Mat>,
}

impl NodeFactors {
    /// `P̂_{αα̃}` of a factored, skeletonized node.
    pub(crate) fn p_hat(&self) -> &Mat {
        self.p_hat.as_ref().expect("a factored, skeletonized node holds its P-hat")
    }
}

/// Bytes the factors hold — every leaf LU (`dim²`), every reduced system
/// (`2 s_l s_r + min(s_l, s_r)²`: `B_l`, `B_r`, `LU(S)`) and every `P̂` — the one
/// count behind [`FactorStats::stored_bytes`], whichever builder made them.
pub(crate) fn held_bytes(factors: &[NodeFactors]) -> usize {
    let words: usize = (factors.iter())
        .map(|nf| {
            let leaf = nf.leaf_lu.as_ref().map_or(0, |lu| lu.dim() * lu.dim());
            let p_hat = nf.p_hat.as_ref().map_or(0, |p| p.nrows() * p.ncols());
            leaf + nf.z.as_ref().map_or(0, ReducedLu::words) + p_hat
        })
        .sum();
    8 * words
}

/// How a factor tree holds its skeleton tree and kernel: borrowed
/// ([`factorize`]) or owned ([`SharedFactor`](crate::SharedFactor)).
pub(crate) enum Held<'a, T> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Shared(t) => t,
        }
    }
}

// Not derived: `derive(Clone)` would ask for `T: Clone`.
impl<T> Clone for Held<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Held::Borrowed(t) => Held::Borrowed(t),
            Held::Shared(t) => Held::Shared(Arc::clone(t)),
        }
    }
}

/// The factorization of `λI + K̃` over a skeleton tree.
pub struct FactorTree<'a, K: Kernel> {
    pub(crate) st: Held<'a, SkeletonTree>,
    pub(crate) kernel: Held<'a, K>,
    pub(crate) config: SolverConfig,
    pub(crate) factors: Vec<NodeFactors>,
    pub(crate) stats: FactorStats,
    /// The λ-independent kernel blocks this tree was factorized over:
    /// `Some` for every [`StorageMode::StoredGemv`] tree (they hold its
    /// `V` blocks), `None` for the matrix-free mode.
    pub(crate) blocks: Option<Arc<AssembledBlocks>>,
    /// The hybrid solver's frontier layout and reduced operators, built by
    /// the first [`HybridSolver::new`](crate::HybridSolver::new) on this
    /// factor and shared by every later one.
    pub(crate) hybrid: OnceLock<Result<ReducedSystem, SolverError>>,
}

/// Per-node accounting folded into [`FactorStats`].
#[derive(Default, Clone, Copy)]
pub(crate) struct NodeCost {
    pub flops: f64,
    pub min_pivot: f64,
    pub unstable: usize,
}

impl<'a, K: Kernel> FactorTree<'a, K> {
    /// The skeleton tree this factorization refers to.
    pub fn skeleton_tree(&self) -> &SkeletonTree {
        &self.st
    }

    /// The kernel function.
    pub fn kernel(&self) -> &K {
        &self.kernel
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
    pub(crate) fn factors(&self) -> &[NodeFactors] {
        &self.factors
    }

    /// `true` when the whole matrix can be solved directly (the root's
    /// reduced system exists).
    pub fn is_complete(&self) -> bool {
        let root = self.st.tree().root();
        self.factors[root].z.is_some() || self.st.tree().node(root).is_leaf()
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
    /// the diagonal shift, LU factorizations, `P̂` solves, and
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
            None => Arc::new(assemble_blocks(&self.st, &*self.kernel)),
        };
        let (st, kernel, config) = (self.st.clone(), self.kernel.clone(), self.config);
        factorize_impl(st, kernel, config.with_lambda(lambda), Some(blocks), self.st.tree().root())
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
/// or reduced system is exactly singular. A finite `λ ≤ 0` is factorized
/// like any other `λ`: nothing checks its sign, and a factorization at any
/// `λ` is counted in [`FactorStats::unstable_factorizations`] only where a
/// leaf or reduced-system pivot ratio falls below `1e-12` (§III).
pub fn factorize<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: SolverConfig,
) -> Result<FactorTree<'a, K>, SolverError> {
    factorize_impl(Held::Borrowed(st), Held::Borrowed(kernel), config, None, st.tree().root())
}

/// Runs the λ-dependent half of the factorization over pre-assembled
/// coupling blocks (see [`crate::assemble_blocks`]): the leaf diagonals
/// `K_αα` are the only kernel blocks evaluated, then the diagonal shift,
/// LU factorizations, `P̂` solves, and reduced systems.
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
    let root = st.tree().root();
    factorize_impl(Held::Borrowed(st), Held::Borrowed(kernel), config, Some(blocks), root)
}

/// The one entry to the sweep, for borrowed and owned inputs alike, over
/// the subtree under `root` (the whole tree, or a rank's share in
/// [`crate::dist`]): factors exist only for that subtree's nodes. Over an
/// assembly (`blocks`, from [`factorize_with_blocks`],
/// [`FactorTree::refactor`] or [`crate::SharedFactor::refactorize`]),
/// which must fit `st`, the storage mode is pinned to
/// [`StorageMode::StoredGemv`].
pub(crate) fn factorize_impl<'a, K: Kernel>(
    st: Held<'a, SkeletonTree>,
    kernel: Held<'a, K>,
    mut config: SolverConfig,
    blocks: Option<Arc<AssembledBlocks>>,
    root: usize,
) -> Result<FactorTree<'a, K>, SolverError> {
    if let Some(blocks) = &blocks {
        blocks.check_compatible(&st)?;
        config = config.with_storage(StorageMode::StoredGemv);
    }
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
        .then(|| Arc::new(assemble(&st, &*kernel, root)));
    let own_bytes = own.as_ref().map_or(0, |b| b.stats().bytes);
    let blocks = blocks.or(own);
    let mut factors: Vec<NodeFactors> = (0..n_nodes).map(|_| NodeFactors::default()).collect();
    let mut total = NodeCost { min_pivot: f64::INFINITY, ..Default::default() };
    let mut levels: Vec<LevelStats> = Vec::with_capacity(tree.depth() + 1);
    let under_root = |level: usize| {
        tree.nodes_at_level(level).iter().copied().filter(move |&i| in_subtree(tree, root, i))
    };

    for level in (0..=tree.depth()).rev() {
        let lt0 = Instant::now();
        let level_nodes: Vec<usize> =
            under_root(level).filter(|&i| in_factored_region(&st, i)).collect();
        // The nodes of a level are independent: each reads only its
        // children's factors, final since the level below.
        let results: Vec<_> = level_nodes
            .par_iter()
            .map(|&i| factor_node(&st, &*kernel, &config, blocks.as_deref(), &factors, i))
            .collect();
        for (&i, res) in level_nodes.iter().zip(results) {
            let (nf, cost) = res?;
            total.flops += cost.flops;
            total.min_pivot = total.min_pivot.min(cost.min_pivot);
            total.unstable += cost.unstable;
            factors[i] = nf;
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
        stored_bytes: held_bytes(&factors) + own_bytes,
        shared_bytes,
        levels,
    };
    Ok(FactorTree { st, kernel, config, factors, stats, blocks, hybrid: OnceLock::new() })
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
            let (p_hat_l, p_hat_r) = (factors[l].p_hat(), factors[r].p_hat());
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
    let leaf = Lu::factor(kaa).map_err(|e| SolverError::Factorization { node, source: e })?;
    let mut cost = NodeCost {
        flops: flops::lu_flops(m) + eval_flops,
        min_pivot: leaf.min_pivot_ratio(),
        unstable: usize::from(leaf.min_pivot_ratio() < STABILITY_THRESHOLD),
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
            Some(p)
        }
        None => None,
    };
    Ok((NodeFactors { leaf_lu: Some(leaf), p_hat, ..Default::default() }, cost))
}

/// Forms the coupling blocks `B_l = K_{l̃r} P̂_{rr̃}`, `B_r = K_{r̃l} P̂_{ll̃}`
/// and factorizes the reduced system `Z_α` (eq. 8) over them. Shared
/// between the `O(N log N)` factorization and the `O(N log² N)` baseline —
/// both construct *identical* reduced systems.
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
) -> Result<(ReducedLu, NodeCost), SolverError> {
    let tree = st.tree();
    let pts = tree.points();
    let d = pts.dim();
    let skl = st.skeleton(l).expect("factorable node needs skeletonized children");
    let skr = st.skeleton(r).expect("factorable node needs skeletonized children");
    let (sl, sr) = (skl.rank(), skr.rank());
    let (nl, nr) = (tree.node(l).len(), tree.node(r).len());
    let mut cost = NodeCost { min_pivot: f64::INFINITY, ..Default::default() };

    // B_l = K_{l̃ r} P̂_{rr̃} (s_l x s_r) and B_r = K_{r̃ l} P̂_{ll̃}.
    // Pooled: both storage modes fully overwrite both blocks (beta = 0
    // GEMM / `sum_fused_multi` overwrite their output).
    let mut b_l = workspace::take_mat_detached(sl, sr);
    let mut b_r = workspace::take_mat_detached(sr, sl);
    if config.storage == StorageMode::StoredGemv {
        let (klr, krl) = blocks.expect("a stored factorization has an assembly").coupling(node);
        gemm(1.0, klr.rb(), Trans::No, p_hat_r.rb(), Trans::No, 0.0, b_l.rb_mut());
        gemm(1.0, krl.rb(), Trans::No, p_hat_l.rb(), Trans::No, 0.0, b_r.rb_mut());
        cost.flops += flops::gemm_flops(sl, sr, nr) + flops::gemm_flops(sr, sl, nl);
    } else {
        // The fused engine takes explicit column lists; build them in
        // pooled index scratch (one per node per factorize).
        let mut r_cols = workspace::take_idx(nr);
        r_cols.extend(tree.node(r).range());
        let mut l_cols = workspace::take_idx(nl);
        l_cols.extend(tree.node(l).range());
        sum_fused_multi(kernel, pts, &skl.skeleton, &r_cols, p_hat_r.rb(), b_l.rb_mut());
        sum_fused_multi(kernel, pts, &skr.skeleton, &l_cols, p_hat_l.rb(), b_r.rb_mut());
        // One kernel-block evaluation each, plus the multi-RHS reduction.
        cost.flops += flops::summation_flops(sl, nr, d, kernel.flops_per_eval())
            + flops::summation_flops(sr, nl, d, kernel.flops_per_eval())
            + 2.0 * (sl * nr * sr + sr * nl * sl) as f64;
    }

    let z = factor_z(b_l, b_r, node, &mut cost)?;
    Ok((z, cost))
}

/// Factorizes `Z = I + VW` (eq. 8) over its coupling blocks by block
/// elimination ([`ReducedLu::factor`]), folding the flop/pivot accounting
/// of `LU(S)` into `cost` — for this sweep and the distributed levels of
/// [`crate::dist`].
pub(crate) fn factor_z(
    b_l: Mat,
    b_r: Mat,
    node: usize,
    cost: &mut NodeCost,
) -> Result<ReducedLu, SolverError> {
    let (sl, sr) = (b_l.nrows(), b_r.nrows());
    let z =
        ReducedLu::factor(b_l, b_r).map_err(|e| SolverError::Factorization { node, source: e })?;
    cost.flops += ReducedLu::factor_flops(sl, sr);
    cost.min_pivot = cost.min_pivot.min(z.min_pivot_ratio());
    cost.unstable += usize::from(z.min_pivot_ratio() < STABILITY_THRESHOLD);
    Ok(z)
}

/// The telescoping factor of eq. (10), `M = Z⁻¹ Pᵀ` with `Pᵀ = projᵀ`
/// (`(s_l + s_r) x s`), solved in place, so that
/// `P̂_α = [P̂_l M_top ; P̂_r M_bot]` with `M_top` its first `s_l` rows —
/// for this sweep and the distributed levels of [`crate::dist`]. The
/// result is pooled: recycle it.
pub(crate) fn telescope_m(proj: &Mat, z: &ReducedLu) -> Mat {
    let s = proj.nrows();
    // Pooled: every element is written by the transpose copy.
    let mut m = workspace::take_mat_detached(proj.ncols(), s);
    for j in 0..s {
        for (i, v) in m.col_mut(j).iter_mut().enumerate() {
            *v = proj[(j, i)];
        }
    }
    z.solve_mut(m.rb_mut());
    m
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
    let (z, mut cost) =
        build_reduced_system(st, kernel, config, blocks, p_hat_l, p_hat_r, node, l, r)?;

    // Telescope P̂_{αα̃} (eq. 10) from the children's P̂ — the O(N log N)
    // step that replaces [36]'s subtree traversal.
    let p_hat = match st.skeleton(node) {
        Some(sk) => {
            let s = sk.rank();
            let m = telescope_m(&sk.proj, &z);
            cost.flops += ReducedLu::solve_flops(sl, sr, s);
            // P̂_α = [P̂_l M_top ; P̂_r M_bot].
            let mut p = workspace::take_mat_detached(nl + nr, s);
            let (ptop, pbot) = p.rb_mut().split_at_row(nl);
            let (m_top, m_bot) = (m.submatrix(0..sl, 0..s), m.submatrix(sl..sl + sr, 0..s));
            gemm(1.0, p_hat_l.rb(), Trans::No, m_top, Trans::No, 0.0, ptop);
            gemm(1.0, p_hat_r.rb(), Trans::No, m_bot, Trans::No, 0.0, pbot);
            workspace::recycle_mat(m);
            cost.flops += flops::gemm_flops(nl, s, sl) + flops::gemm_flops(nr, s, sr);
            Some(p)
        }
        None => None,
    };
    Ok((NodeFactors { z: Some(z), p_hat, ..Default::default() }, cost))
}
