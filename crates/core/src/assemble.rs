//! The λ-independent assembly stage of the factorization.
//!
//! λ enters the entire pipeline at exactly one line — the diagonal shift
//! `kaa[(i, i)] += λ` in [`crate::factor`] — yet a naive λ-sweep
//! re-evaluates every kernel block per λ. This module splits `factorize`
//! the way Minden–Ho–Damle–Ying separate compression from factorization:
//! [`assemble_blocks`] evaluates, once per (dataset, h, seed), the
//! internal coupling blocks `K_{l̃r}` / `K_{r̃l}` between a node's sibling
//! skeletons — `sN log(N/m)` words, the bulk of what a stored
//! factorization evaluates — and [`crate::factorize_with_blocks`] /
//! [`crate::FactorTree::refactor`] then redo per λ the leaf diagonals
//! `K_αα` (`mN` words, which the LU overwrites anyway) and the linear
//! algebra (diagonal shift, LU/Cholesky, `P̂` solves, reduced systems).
//! The skeleton projections `P_{αα̃}` are *not* duplicated here — they
//! already live λ-independently in the [`SkeletonTree`].
//!
//! **The assembly is the one home of the stored `V` blocks.** Every
//! [`StorageMode::StoredGemv`](crate::StorageMode::StoredGemv) factor
//! carries an `Arc<AssembledBlocks>`; the sweep and the solve read
//! `K_{l̃r}` / `K_{r̃l}` out of it by reference, so any number of λ-factors
//! over one assembly hold the coupling bytes once (§III's `sN log(N/m)`
//! words). A plain stored `factorize` *is* this assembly followed by the
//! same sweep — hence bitwise the blocked path; the two differ only in who
//! owns the `Arc`. (GSKS accumulates in another order than GEMM over a
//! materialized block, so `factorize_with_blocks` pins `StoredGemv`.)
//! Under `KFDS_REFACTOR=off` [`crate::lambda_sweep`] and friends
//! re-assemble and re-factor per λ.

use crate::error::SolverError;
use crate::factor::{in_factored_region, in_subtree};
use kfds_askit::SkeletonTree;
use kfds_kernels::{eval_block_range, flops, Kernel};
use kfds_la::Mat;
use rayon::prelude::*;
use std::sync::OnceLock;
use std::time::Instant;

/// `true` when λ-sweep refactorization over cached [`AssembledBlocks`]
/// is active (the default). `KFDS_REFACTOR=off` (or `=0`), sampled once
/// per process, routes `lambda_sweep`, the GP noise grid, and the serve
/// factor stage back to factorize-from-scratch.
#[inline]
pub fn refactor_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| !kfds_switches::KFDS_REFACTOR.is_off())
}

/// The λ-independent coupling blocks held for one tree node.
#[derive(Debug, Default)]
pub struct NodeBlocks {
    /// `K_{l̃ r}` (`s_l x |r|`) for internal nodes in the factored region.
    pub k_lr: Option<Mat>,
    /// `K_{r̃ l}` (`s_r x |l|`) for internal nodes in the factored region.
    pub k_rl: Option<Mat>,
}

/// Assembly diagnostics, the λ-independent half of what
/// [`crate::FactorStats`] used to account per factorize call.
#[derive(Debug, Default, Clone)]
pub struct AssembleStats {
    /// Wall-clock seconds spent evaluating kernel blocks.
    pub seconds: f64,
    /// Kernel-evaluation flops (the GSKS epilogue cost a refactor skips).
    pub kernel_flops: f64,
    /// Bytes retained by the cached blocks.
    pub bytes: usize,
}

/// The coupling blocks of the factorization of `λI + K̃` — its stored `V`
/// — evaluated once and shared by arbitrarily many λ-factors. Indexed like
/// the skeleton tree's nodes.
#[derive(Debug)]
pub struct AssembledBlocks {
    nodes: Vec<NodeBlocks>,
    stats: AssembleStats,
    /// Point count of the tree these blocks were assembled over, so a
    /// mismatched (tree, blocks) pairing fails fast.
    n_points: usize,
}

impl AssembledBlocks {
    /// Blocks for node `i` (indexed like the tree's nodes).
    pub fn node(&self, i: usize) -> &NodeBlocks {
        &self.nodes[i]
    }

    /// Assembly diagnostics.
    pub fn stats(&self) -> &AssembleStats {
        &self.stats
    }

    /// Number of node slots (equals the tree's node count).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a zero-node store (never produced by
    /// [`assemble_blocks`] on a real tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The stored `V` blocks `(K_{l̃r}, K_{r̃l})` of factored internal node
    /// `i`, where the sweep and the solve read them.
    pub(crate) fn coupling(&self, i: usize) -> (&Mat, &Mat) {
        let nb = &self.nodes[i];
        (
            nb.k_lr.as_ref().expect("stored V block missing from the assembly"),
            nb.k_rl.as_ref().expect("stored V block missing from the assembly"),
        )
    }

    /// Checks that this store can back a factorization over `st`: same
    /// tree, every factored internal node's coupling blocks `s_l x |r|` /
    /// `s_r x |l|` — so an assembly of another skeletonization of the same
    /// points fails here, typed.
    pub(crate) fn check_compatible(&self, st: &SkeletonTree) -> Result<(), SolverError> {
        let tree = st.tree();
        if self.nodes.len() != tree.nodes().len() || self.n_points != tree.points().len() {
            return Err(SolverError::BlocksMismatch { node: tree.root() });
        }
        let shape = |m: &Option<Mat>| m.as_ref().map(|m| (m.nrows(), m.ncols()));
        for (i, nb) in self.nodes.iter().enumerate() {
            let Some((l, r)) = tree.node(i).children.filter(|_| in_factored_region(st, i)) else {
                continue;
            };
            let rank = |c| st.skeleton(c).map(|sk| sk.rank());
            let fits = shape(&nb.k_lr) == rank(l).map(|sl| (sl, tree.node(r).len()))
                && shape(&nb.k_rl) == rank(r).map(|sr| (sr, tree.node(l).len()));
            if !fits {
                return Err(SolverError::BlocksMismatch { node: i });
            }
        }
        Ok(())
    }
}

/// Evaluates the stored `V` blocks of the factorization over `st`: the
/// coupling blocks `K_{l̃r}` / `K_{r̃l}` of every internal node in the
/// factored region. Embarrassingly parallel across nodes (no cross-node
/// dependencies, unlike the factorization itself which sweeps level by
/// level).
pub fn assemble_blocks<K: Kernel>(st: &SkeletonTree, kernel: &K) -> AssembledBlocks {
    assemble(st, kernel, st.tree().root())
}

/// [`assemble_blocks`] restricted to the subtree under `root`.
pub(crate) fn assemble<K: Kernel>(st: &SkeletonTree, kernel: &K, root: usize) -> AssembledBlocks {
    let t0 = Instant::now();
    let tree = st.tree();
    let pts = tree.points();
    let d = pts.dim();
    let per_eval = kernel.flops_per_eval();
    // The children of node `i` when its coupling blocks are to be held.
    let wanted = |i: usize| {
        tree.node(i).children.filter(|_| in_subtree(tree, root, i) && in_factored_region(st, i))
    };
    let nodes: Vec<NodeBlocks> = (0..tree.nodes().len())
        .into_par_iter()
        .map(|i| {
            let Some((l, r)) = wanted(i) else {
                return NodeBlocks::default();
            };
            let skl = st.skeleton(l).expect("factorable node needs skeletonized children");
            let skr = st.skeleton(r).expect("factorable node needs skeletonized children");
            let k_lr = eval_block_range(kernel, pts, &skl.skeleton, tree.node(r).range());
            let k_rl = eval_block_range(kernel, pts, &skr.skeleton, tree.node(l).range());
            NodeBlocks { k_lr: Some(k_lr), k_rl: Some(k_rl) }
        })
        .collect();

    let mut kernel_flops = 0.0;
    let mut bytes = 0usize;
    for nb in &nodes {
        for blk in [&nb.k_lr, &nb.k_rl].into_iter().flatten() {
            kernel_flops += flops::summation_flops(blk.nrows(), blk.ncols(), d, per_eval)
                - 2.0 * (blk.nrows() * blk.ncols()) as f64; // evaluation only, no reduction
            bytes += blk.nrows() * blk.ncols() * 8;
        }
    }
    let stats = AssembleStats { seconds: t0.elapsed().as_secs_f64(), kernel_flops, bytes };
    AssembledBlocks { nodes, stats, n_points: pts.len() }
}
