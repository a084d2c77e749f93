//! Distributed-memory factorization and solve — Algorithms II.4/II.5.
//!
//! Each of `p` ranks (powers of two) owns the subtree rooted at its node
//! of level `log₂ p` and factorizes it independently; the `log₂ p` levels
//! above are *distributed*: the reduced systems `Z_α` live on the local
//! rank `{0}` of each node's communicator, skeleton ids are exchanged
//! between `{0}` and `{q/2}` and broadcast within each half, partial
//! products `K_{r̃{x}} P̂_{{x}l̃}` are computed rank-locally over owned
//! points `{x}` and reduced (paper Fig. 1), and the telescoped `P̂_{αα̃}`
//! is stored as a row slice per rank.
//!
//! Ranks here are threads of the simulated runtime ([`kfds_rt`]); the
//! communication structure (splits, send/recv pairs, reductions,
//! broadcasts) is exactly the paper's — see `DESIGN.md` for the
//! substitution rationale. Point coordinates and skeleton projections are
//! read from the shared [`SkeletonTree`]; everything derived during
//! factorization flows through messages.

use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::factor::{factor_z, factorize_impl, telescope_m, FactorTree, NodeCost};
use kfds_askit::SkeletonTree;
use kfds_kernels::{sum_fused, sum_fused_multi, Kernel};
use kfds_la::{gemm, Lu, Mat, MatMut, Trans};
use kfds_rt::{Comm, World};
use std::time::Instant;

/// Message tags for the distributed factorization/solve.
mod tag {
    use kfds_rt::tags;
    pub const SKEL_EXCHANGE: u32 = tags::DIST_FACTOR.tag(0);
    pub const B_BLOCK: u32 = tags::DIST_FACTOR.tag(1);
    pub const M_BLOCK: u32 = tags::DIST_FACTOR.tag(2);
    pub const Y_TOP: u32 = tags::DIST_SOLVE.tag(0);
    pub const Z_BOT: u32 = tags::DIST_SOLVE.tag(1);
}

/// Per-rank state of one distributed tree level (node `α`).
struct DistLevel {
    /// `true` if this rank sits in the lower half (child `l`).
    lower: bool,
    /// Communicator of node `α` (`q` ranks).
    parent_comm: Comm,
    /// Communicator of this rank's half (`q/2` ranks).
    half_comm: Comm,
    /// Skeleton ids of the left child (received/broadcast).
    skel_l: Vec<usize>,
    /// Skeleton ids of the right child.
    skel_r: Vec<usize>,
    /// Row slice of the child's `P̂` over this rank's points
    /// (`|{x}| x s_c`) — the `W` rows used in the solve correction.
    phat_child: Mat,
    /// LU of `Z_α`; present on the parent communicator's rank 0 only.
    z_lu: Option<Lu>,
}

/// Everything one rank holds after the distributed factorization.
struct RankState<'a, K: Kernel> {
    /// Tree node (at level `log₂ p`) whose subtree this rank owns.
    subtree_root: usize,
    /// Owned point range (permuted positions).
    range: std::ops::Range<usize>,
    /// Local factorization of the owned subtree.
    local: FactorTree<'a, K>,
    /// Distributed levels, deepest first (root last).
    levels: Vec<DistLevel>,
}

/// A distributed factorization of `λI + K̃` across `p` simulated ranks.
pub struct DistSolver<'a, K: Kernel> {
    st: &'a SkeletonTree,
    p: usize,
    ranks: Vec<RankState<'a, K>>,
    factor_seconds: f64,
}

/// Runs the distributed factorization (Algorithm II.4).
///
/// Requirements: `p` is a power of two and the tree is complete down to
/// level `log₂ p` (every level-`log₂ p` node exists), with a fully
/// skeletonized tree (no level restriction).
///
/// # Errors
/// Returns [`SolverError::Partition`] if `p` is not a power of two or the
/// tree does not have exactly `p` nodes at level `log₂ p`.
pub fn dist_factorize<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: SolverConfig,
    p: usize,
) -> Result<DistSolver<'a, K>, SolverError> {
    if !p.is_power_of_two() {
        return Err(SolverError::Partition {
            reason: format!("rank count {p} is not a power of two"),
        });
    }
    let tree = st.tree();
    let lp = p.trailing_zeros() as usize;
    let level_nodes = tree.nodes_at_level(lp);
    if level_nodes.len() != p {
        return Err(SolverError::Partition {
            reason: format!(
                "tree has {} node(s) at level {lp}, need exactly {p} rank-owned subtrees",
                level_nodes.len()
            ),
        });
    }
    let t0 = Instant::now();
    let results: Vec<Result<RankState<'a, K>, SolverError>> = World::run(p, |comm: Comm| {
        let my_node = tree.nodes_at_level(lp)[comm.rank()];
        dist_factor_rank(st, kernel, &config, comm, my_node, lp)
    });
    let mut ranks = Vec::with_capacity(p);
    for r in results {
        ranks.push(r?);
    }
    Ok(DistSolver { st, p, ranks, factor_seconds: t0.elapsed().as_secs_f64() })
}

fn dist_factor_rank<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: &SolverConfig,
    world: Comm,
    my_node: usize,
    lp: usize,
) -> Result<RankState<'a, K>, SolverError> {
    let tree = st.tree();
    // Local phase: factorize the owned subtree (Algorithm II.2).
    let local = factorize_impl(st, kernel, *config, None, my_node)?;

    // Distributed phase: walk up from level lp to the root, splitting the
    // communicator at each level. We process levels bottom-up, so first
    // derive the communicator chain by splitting top-down.
    let mut comms = Vec::with_capacity(lp + 1);
    let mut c = world;
    comms.push(c.clone());
    for _ in 0..lp {
        c = c.split_half();
        comms.push(c.clone());
    }
    // comms[l] is the communicator of this rank's ancestor at level l.
    // Ancestor chain: my_node up to the root.
    let mut ancestors = Vec::with_capacity(lp + 1);
    let mut a = my_node;
    ancestors.push(a);
    while let Some(parent) = tree.node(a).parent {
        a = parent;
        ancestors.push(a);
    }
    assert_eq!(ancestors.len(), lp + 1, "tree must be complete to level log2(p)");

    // The rank's P̂ slice for its current child node, carried upward.
    // With p = 1 there are no distributed levels (and the root has no
    // skeleton/P̂): the local factorization is the whole factorization.
    let my_range = tree.node(my_node).range();
    if lp == 0 {
        return Ok(RankState { subtree_root: my_node, range: my_range, local, levels: Vec::new() });
    }
    let mut phat_child: Mat =
        local.factors()[my_node].p_hat.as_ref().expect("subtree root P-hat").clone();
    let mut levels = Vec::with_capacity(lp);

    for l in (0..lp).rev() {
        let node = ancestors[lp - l]; // ancestor at level l
        let parent_comm = comms[l].clone();
        let half_comm = comms[l + 1].clone();
        let q = parent_comm.size();
        let me = parent_comm.rank();
        let lower = me < q / 2;
        let (lc, rc) = tree.node(node).children.expect("distributed node is internal");

        // --- Skeleton exchange (Fig. 1): {0} <-> {q/2}, then Bcast. ---
        let mut skel_l: Vec<usize>;
        let mut skel_r: Vec<usize>;
        if me == 0 {
            skel_l = st.skeleton(lc).expect("child skeleton").skeleton.clone();
            parent_comm.send_usize(q / 2, tag::SKEL_EXCHANGE, &skel_l);
            skel_r = parent_comm.recv_usize(q / 2, tag::SKEL_EXCHANGE);
        } else if me == q / 2 {
            skel_r = st.skeleton(rc).expect("child skeleton").skeleton.clone();
            skel_l = parent_comm.recv_usize(0, tag::SKEL_EXCHANGE);
            parent_comm.send_usize(0, tag::SKEL_EXCHANGE, &skel_r);
        } else {
            skel_l = Vec::new();
            skel_r = Vec::new();
        }
        // Each half broadcasts the *other* child's skeleton it needs, and
        // its own child's skeleton for the solve phase.
        if lower {
            half_comm.bcast_usize(0, &mut skel_r);
            half_comm.bcast_usize(0, &mut skel_l);
        } else {
            half_comm.bcast_usize(0, &mut skel_l);
            half_comm.bcast_usize(0, &mut skel_r);
        }
        let (sl, sr) = (skel_l.len(), skel_r.len());

        // --- Partial coupling blocks over owned points {x}. ---
        // Lower: K_{r̃ {x}} P̂_{{x} l̃} (s_r x s_l); upper: K_{l̃ {x}} P̂_{{x} r̃}.
        let own_cols: Vec<usize> = my_range.clone().collect();
        let (rows, s_own, s_other) = if lower { (&skel_r, sl, sr) } else { (&skel_l, sr, sl) };
        let mut partial = Mat::zeros(s_other, s_own);
        if s_other > 0 && s_own > 0 {
            sum_fused_multi(
                kernel,
                tree.points(),
                rows,
                &own_cols,
                phat_child.rb(),
                partial.rb_mut(),
            );
        }
        // Reduce within the half; half-root holds the assembled block.
        let red = half_comm.reduce_sum(0, partial.as_slice());

        // --- Assemble and factorize Z on {0} (Algorithm II.4). ---
        let mut z_lu = None;
        let node_sk = st.skeleton(node);
        let s_node = node_sk.map(|s| s.rank()).unwrap_or(0);
        let mut m_block = Mat::zeros(0, 0); // M_c for the telescoping
        if me == 0 {
            let b_r = Mat::from_col_major(sr, sl, red.expect("half root reduction"));
            // B_l arrives from {q/2}.
            let b_l_data = parent_comm.recv_f64(q / 2, tag::B_BLOCK);
            let b_l = Mat::from_col_major(sl, sr, b_l_data);
            // The serial sweep's own Z pack + LU; the per-rank cost
            // accounting it folds in is not reported here.
            let lu = factor_z(&b_l, &b_r, sl, sr, node, config, &mut NodeCost::default())?;
            // Telescoping data M_l, M_r (eq. 10), root level skips it.
            if let Some(sk) = node_sk {
                let (m_l, m_r) = telescope_m(&sk.proj, &b_l, &b_r, &lu);
                parent_comm.send_f64(q / 2, tag::M_BLOCK, m_r.as_slice());
                m_block = m_l;
            }
            z_lu = Some(lu);
        } else if me == q / 2 {
            let b_l_partial = red.expect("half root reduction");
            parent_comm.send_f64(0, tag::B_BLOCK, &b_l_partial);
            if node_sk.is_some() {
                let m_r_data = parent_comm.recv_f64(0, tag::M_BLOCK);
                m_block = Mat::from_col_major(sr, s_node, m_r_data);
            }
        }
        // Broadcast M_c within each half and telescope the P̂ slice.
        if node_sk.is_some() {
            let mut m_data = m_block.as_slice().to_vec();
            half_comm.bcast_f64(0, &mut m_data);
            let s_c = if lower { sl } else { sr };
            let m_c = Mat::from_col_major(s_c, s_node, m_data);
            let mut phat_node = Mat::zeros(phat_child.nrows(), s_node);
            gemm(1.0, phat_child.rb(), Trans::No, m_c.rb(), Trans::No, 0.0, phat_node.rb_mut());
            levels.push(DistLevel {
                lower,
                parent_comm,
                half_comm,
                skel_l,
                skel_r,
                phat_child: std::mem::replace(&mut phat_child, phat_node),
                z_lu,
            });
        } else {
            // Root: no skeleton, no telescoping; the carried slice ends here.
            levels.push(DistLevel {
                lower,
                parent_comm,
                half_comm,
                skel_l,
                skel_r,
                phat_child: phat_child.clone(),
                z_lu,
            });
        }
    }

    Ok(RankState { subtree_root: my_node, range: my_range, local, levels })
}

impl<K: Kernel> DistSolver<'_, K> {
    /// Number of simulated ranks.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Wall-clock seconds of the distributed factorization.
    pub fn factor_seconds(&self) -> f64 {
        self.factor_seconds
    }

    /// Solves `(λI + K̃) x = b` (`b` in the tree's permuted ordering) with
    /// the distributed solver (Algorithm II.5), all ranks in parallel.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.st.tree().points().len();
        assert_eq!(b.len(), n, "dist solve: rhs length mismatch");
        let slices: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.p);
            for rs in &self.ranks {
                let mut u = b[rs.range.clone()].to_vec();
                handles.push(scope.spawn(move || {
                    dist_solve_rank(rs, &mut u);
                    u
                }));
            }
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        });
        let mut x = Vec::with_capacity(n);
        for s in slices {
            x.extend(s);
        }
        x
    }
}

/// Algorithm II.5 for one rank: local solve, then corrections through the
/// distributed levels (deepest first).
fn dist_solve_rank<K: Kernel>(rs: &RankState<'_, K>, u: &mut [f64]) {
    let st = rs.local.skeleton_tree();
    let tree = st.tree();
    let pts = tree.points();
    let kernel = rs.local.kernel();
    // Local D^{-1} on the owned subtree.
    rs.local.ctx().solve_node(rs.subtree_root, MatMut::from_col(u));

    let own_cols: Vec<usize> = rs.range.clone().collect();
    for lvl in &rs.levels {
        let q = lvl.parent_comm.size();
        let me = lvl.parent_comm.rank();
        let (sl, sr) = (lvl.skel_l.len(), lvl.skel_r.len());
        if sl + sr == 0 {
            continue;
        }
        // Partial V apply over owned points: lower ranks contribute to
        // y_bot = K_{r̃ l} u_l, upper ranks to y_top = K_{l̃ r} u_r.
        let rows = if lvl.lower { &lvl.skel_r } else { &lvl.skel_l };
        let mut partial = vec![0.0; rows.len()];
        if !rows.is_empty() {
            sum_fused(kernel, pts, rows, &own_cols, u, &mut partial);
        }
        let red = lvl.half_comm.reduce_sum(0, &partial);

        // Assemble on {0}, solve Z, and scatter the correction weights.
        let mut z_c: Vec<f64>; // this rank's child block of Z^{-1} y
        if me == 0 {
            let y_bot = red.expect("half root");
            let y_top = lvl.parent_comm.recv_f64(q / 2, tag::Y_TOP);
            let mut y = y_top;
            y.extend(y_bot);
            lvl.z_lu.as_ref().expect("Z on rank 0").solve_inplace(&mut y);
            let (z_top, z_bot) = y.split_at(sl);
            lvl.parent_comm.send_f64(q / 2, tag::Z_BOT, z_bot);
            z_c = z_top.to_vec();
        } else if me == q / 2 {
            let y_top = red.expect("half root");
            lvl.parent_comm.send_f64(0, tag::Y_TOP, &y_top);
            z_c = lvl.parent_comm.recv_f64(0, tag::Z_BOT);
        } else {
            z_c = Vec::new();
        }
        lvl.half_comm.bcast_f64(0, &mut z_c);
        // u -= P̂_{x c̃} z_c (rows of W owned by this rank).
        if !z_c.is_empty() {
            kfds_la::blas2::gemv(-1.0, lvl.phat_child.rb(), &z_c, 1.0, u);
        }
    }
}
