//! The `O(N log² N)` factorization of INV-ASKIT (Yu et al., IPDPS'16 —
//! reference \[36\] of the paper), for the Table III comparison.
//!
//! The difference to [`crate::factor::factorize`] is a single step: instead
//! of telescoping `P̂_{αα̃}` from the children's `P̂` (eq. 10), each node
//! materializes the full projection `P_{αα̃}` (`|α| x s`) and computes
//! `P̂_{αα̃} = K̃_αα^{-1} P_{αα̃}` with the *recursive* solver — a full
//! subtree traversal per node, which is where the extra `log N` factor
//! comes from. Both algorithms construct exactly the same factorization up
//! to roundoff (asserted in the tests), so Table III is a pure
//! complexity-constant comparison.

use crate::assemble::{assemble_blocks, AssembledBlocks};
use crate::config::{FactorStats, SolverConfig, StorageMode};
use crate::error::SolverError;
use crate::factor::{
    build_reduced_system, held_bytes, in_factored_region, FactorTree, Held, NodeCost, NodeFactors,
};
use crate::reduced::ReducedLu;
use crate::solve::SolveCtx;
use kfds_askit::SkeletonTree;
use kfds_kernels::{flops, Kernel};
use kfds_la::{gemm, Mat, Trans};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Runs the `O(N log² N)` baseline factorization of `λI + K̃`.
///
/// Produces a [`FactorTree`] with the same factors as
/// [`crate::factorize`] (up to roundoff), at the \[36\] complexity, and
/// reports the same [`FactorStats::stored_bytes`] for them.
pub fn factorize_baseline<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: SolverConfig,
) -> Result<FactorTree<'a, K>, SolverError> {
    let t0 = Instant::now();
    let tree = st.tree();
    let n_nodes = tree.nodes().len();
    // As in `factorize`: a stored factorization assembles its V blocks
    // first; the reduced systems and recursive solves read them there.
    let blocks =
        (config.storage == StorageMode::StoredGemv).then(|| Arc::new(assemble_blocks(st, kernel)));
    let mut factors: Vec<NodeFactors> = (0..n_nodes).map(|_| NodeFactors::default()).collect();
    // Full projections P_{αα̃} (|α| x s), materialized as in [36].
    let mut p_full: Vec<Option<Mat>> = (0..n_nodes).map(|_| None).collect();
    let mut total = NodeCost { min_pivot: f64::INFINITY, ..Default::default() };

    for level in (0..=tree.depth()).rev() {
        let level_nodes: Vec<usize> = tree
            .nodes_at_level(level)
            .iter()
            .copied()
            .filter(|&i| in_factored_region(st, i))
            .collect();

        // Pass 1: leaves fully; internal nodes get their reduced system
        // and full projection (no P̂ yet — that needs the own Z in place).
        let pass1: Vec<(usize, Result<Pass1, SolverError>)> = level_nodes
            .par_iter()
            .map(|&i| (i, pass1_node(st, kernel, &config, blocks.as_deref(), &factors, &p_full, i)))
            .collect();
        let mut internal_todo = Vec::new();
        for (i, res) in pass1 {
            let out = res?;
            total.flops += out.cost.flops;
            total.min_pivot = total.min_pivot.min(out.cost.min_pivot);
            total.unstable += out.cost.unstable;
            factors[i] = out.factors;
            if let Some(pf) = out.p_full {
                let is_internal = tree.node(i).children.is_some();
                p_full[i] = Some(pf);
                if is_internal && st.is_skeletonized(i) {
                    internal_todo.push(i);
                }
            }
        }

        // Pass 2 — the [36] step: P̂ = K̃^{-1} P via the recursive solver
        // (full subtree traversal per node).
        let pass2: Vec<(usize, Mat, f64)> = internal_todo
            .par_iter()
            .map(|&i| {
                let mut p = p_full[i].clone().expect("p_full computed in pass 1");
                let ctx = SolveCtx {
                    st,
                    kernel,
                    config: &config,
                    factors: &factors,
                    blocks: blocks.as_deref(),
                };
                ctx.solve_node(i, p.rb_mut());
                let fl = recursive_solve_flops(st, i, p.ncols());
                (i, p, fl)
            })
            .collect();
        for (i, p, fl) in pass2 {
            total.flops += fl;
            factors[i].p_hat = Some(p);
        }
    }

    let max_rank = (0..n_nodes).filter_map(|i| st.skeleton(i)).map(|s| s.rank()).max().unwrap_or(0);
    let stats = FactorStats {
        seconds: t0.elapsed().as_secs_f64(),
        flops: total.flops,
        min_pivot_ratio: if total.min_pivot.is_finite() { total.min_pivot } else { 1.0 },
        unstable_factorizations: total.unstable,
        max_rank,
        // The factors it keeps, counted as `factorize` counts them; the
        // full projections were scratch.
        stored_bytes: held_bytes(&factors) + blocks.as_ref().map_or(0, |b| b.stats().bytes),
        shared_bytes: 0,
        // Not level-synchronous (pass 2 walks whole subtrees); no
        // per-level breakdown.
        levels: Vec::new(),
    };
    let (st, kernel) = (Held::Borrowed(st), Held::Borrowed(kernel));
    Ok(FactorTree { st, kernel, config, factors, stats, blocks, hybrid: OnceLock::new() })
}

struct Pass1 {
    factors: NodeFactors,
    p_full: Option<Mat>,
    cost: NodeCost,
}

fn pass1_node<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    blocks: Option<&AssembledBlocks>,
    factors: &[NodeFactors],
    p_full: &[Option<Mat>],
    node: usize,
) -> Result<Pass1, SolverError> {
    let tree = st.tree();
    let nd = tree.node(node);
    match nd.children {
        None => {
            // Leaves are identical in both algorithms; reuse the
            // O(N log N) code path and record P = proj^T as the full
            // projection.
            let (nf, cost) = crate::factor::factor_leaf(st, kernel, config, node)?;
            let pf = st.skeleton(node).map(|sk| {
                let (s, m) = (sk.rank(), nd.len());
                Mat::from_fn(m, s, |i, j| sk.proj[(j, i)])
            });
            Ok(Pass1 { factors: nf, p_full: pf, cost })
        }
        Some((l, r)) => {
            let (p_hat_l, p_hat_r) = (factors[l].p_hat(), factors[r].p_hat());
            let (z, mut cost) =
                build_reduced_system(st, kernel, config, blocks, p_hat_l, p_hat_r, node, l, r)?;
            // Full projection P_{αα̃} = diag(P_l, P_r) · P_{[l̃r̃]α̃},
            // materialized bottom-up from the children's full projections.
            let pf = match st.skeleton(node) {
                Some(sk) => {
                    let s = sk.rank();
                    let pl = p_full[l].as_ref().expect("child full projection missing");
                    let pr = p_full[r].as_ref().expect("child full projection missing");
                    let (sl, sr) = (pl.ncols(), pr.ncols());
                    let (nl, nr) = (pl.nrows(), pr.nrows());
                    let pt = Mat::from_fn(sl + sr, s, |i, j| sk.proj[(j, i)]);
                    let mut p = Mat::zeros(nl + nr, s);
                    gemm(
                        1.0,
                        pl.rb(),
                        Trans::No,
                        pt.submatrix(0..sl, 0..s),
                        Trans::No,
                        0.0,
                        p.rb_mut().submatrix_mut(0..nl, 0..s),
                    );
                    gemm(
                        1.0,
                        pr.rb(),
                        Trans::No,
                        pt.submatrix(sl..sl + sr, 0..s),
                        Trans::No,
                        0.0,
                        p.rb_mut().submatrix_mut(nl..nl + nr, 0..s),
                    );
                    cost.flops += flops::gemm_flops(nl, s, sl) + flops::gemm_flops(nr, s, sr);
                    Some(p)
                }
                None => None,
            };
            Ok(Pass1 {
                factors: NodeFactors { z: Some(z), ..Default::default() },
                p_full: pf,
                cost,
            })
        }
    }
}

/// Flop estimate of one recursive multi-RHS solve (`nrhs` columns) over the
/// subtree rooted at `node` — the cost the telescoping removes.
fn recursive_solve_flops(st: &SkeletonTree, node: usize, nrhs: usize) -> f64 {
    let tree = st.tree();
    let nd = tree.node(node);
    match nd.children {
        None => flops::lu_solve_flops(nd.len(), nrhs),
        Some((l, r)) => {
            let (sl, sr) = (
                st.skeleton(l).map(|s| s.rank()).unwrap_or(0),
                st.skeleton(r).map(|s| s.rank()).unwrap_or(0),
            );
            let (nl, nr) = (tree.node(l).len(), tree.node(r).len());
            recursive_solve_flops(st, l, nrhs)
                + recursive_solve_flops(st, r, nrhs)
                + 2.0 * ((sl * nr + sr * nl) * nrhs) as f64 // V apply
                + ReducedLu::solve_flops(sl, sr, nrhs) // Z solve
                + 2.0 * ((nl * sl + nr * sr) * nrhs) as f64 // W apply
        }
    }
}
