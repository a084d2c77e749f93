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
use crate::factor::{factor_z, factorize_impl, telescope_m, FactorTree, Held, NodeCost};
use crate::partition::{rank_owned_cut, Cut};
use crate::reduced::ReducedLu;
use kfds_askit::SkeletonTree;
use kfds_kernels::{sum_fused, sum_fused_multi, Kernel};
use kfds_la::{gemm, workspace, Mat, MatMut, Trans};
use kfds_rt::{Comm, World};
use std::ops::Range;
use std::time::Instant;

/// Message tags for the distributed factorization/solve.
mod tag {
    use kfds_rt::tags;
    pub(super) const SKEL_EXCHANGE: u32 = tags::DIST_FACTOR.tag(0);
    pub(super) const B_BLOCK: u32 = tags::DIST_FACTOR.tag(1);
    pub(super) const M_BLOCK: u32 = tags::DIST_FACTOR.tag(2);
    pub(super) const Y_TOP: u32 = tags::DIST_SOLVE.tag(0);
    pub(super) const Z_BOT: u32 = tags::DIST_SOLVE.tag(1);
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
    /// `Z_α` (coupling blocks and `LU(S)`); present on the parent
    /// communicator's rank 0 only.
    z: Option<ReducedLu>,
}

/// Everything one rank holds after the distributed factorization.
struct RankState<'a, K: Kernel> {
    /// Local factorization of the owned subtree.
    local: FactorTree<'a, K>,
    /// Distributed levels, deepest first (root last).
    levels: Vec<DistLevel>,
}

/// A distributed factorization of `λI + K̃` across `p` simulated ranks.
pub struct DistSolver<'a, K: Kernel> {
    st: &'a SkeletonTree,
    /// Rank `r` owns the subtree `cut.roots[r]`, rows `cut.ranges[r]`.
    cut: Cut,
    ranks: Vec<RankState<'a, K>>,
    factor_seconds: f64,
}

/// Runs the distributed factorization (Algorithm II.4).
///
/// Requirements: `p` is a power of two and the tree is complete down to
/// level `log₂ p` (every level-`log₂ p` node exists), with every node at
/// levels `1..=log₂ p` skeletonized — the rank-owned cut
/// [`PartitionedFactor`](crate::PartitionedFactor) checks too.
///
/// # Errors
/// Returns [`SolverError::Partition`] if `p` is not a power of two or the
/// tree does not have exactly `p` nodes at level `log₂ p`, and
/// [`SolverError::NotSkeletonized`] if a node at levels `1..=log₂ p` has no
/// skeleton (a level restriction `L > 1` with `p > 1`): the ranks telescope
/// every such node's `P̂` up to the root.
pub fn dist_factorize<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: SolverConfig,
    p: usize,
) -> Result<DistSolver<'a, K>, SolverError> {
    let cut = rank_owned_cut(st, p)?;
    let t0 = Instant::now();
    let results: Vec<Result<RankState<'a, K>, SolverError>> = World::run(p, |comm: Comm| {
        let rank = comm.rank();
        dist_factor_rank(st, kernel, &config, comm, cut.roots[rank], &cut.ranges[rank], cut.level)
    });
    let mut ranks = Vec::with_capacity(p);
    for r in results {
        ranks.push(r?);
    }
    Ok(DistSolver { st, cut, ranks, factor_seconds: t0.elapsed().as_secs_f64() })
}

fn dist_factor_rank<'a, K: Kernel>(
    st: &'a SkeletonTree,
    kernel: &'a K,
    config: &SolverConfig,
    world: Comm,
    my_node: usize,
    my_range: &Range<usize>,
    lp: usize,
) -> Result<RankState<'a, K>, SolverError> {
    let tree = st.tree();
    // Local phase: factorize the owned subtree (Algorithm II.2).
    let local = factorize_impl(Held::Borrowed(st), Held::Borrowed(kernel), *config, None, my_node)?;

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
    // `dist_factorize` found the p = 2^lp nodes of level lp: lp + 1 ancestors.
    assert_eq!(ancestors.len(), lp + 1, "tree must be complete to level log2(p)");

    // The rank's P̂ slice for its current child node, carried upward.
    // With p = 1 there are no distributed levels (and the root has no
    // skeleton/P̂): the local factorization is the whole factorization.
    if lp == 0 {
        return Ok(RankState { local, levels: Vec::new() });
    }
    // Level lp >= 1 here, and the cut checked it for skeletons.
    let mut phat_child: Mat = local.factors()[my_node].p_hat().clone();
    let mut levels = Vec::with_capacity(lp);

    for l in (0..lp).rev() {
        let node = ancestors[lp - l]; // ancestor at level l
        let parent_comm = comms[l].clone();
        let half_comm = comms[l + 1].clone();
        let q = parent_comm.size();
        let me = parent_comm.rank();
        let lower = me < q / 2;
        // Levels 0..lp lie above the rank-owned subtrees, so never leaves.
        let (lc, rc) = tree.node(node).children.expect("distributed node is internal");

        // --- Skeleton exchange (Fig. 1): {0} <-> {q/2}, then Bcast. ---
        let mut skel_l: Vec<usize>;
        let mut skel_r: Vec<usize>;
        if me == 0 {
            // The cut checked every node of levels 1..=lp for a skeleton.
            skel_l = st.skeleton(lc).expect("child skeleton").skeleton.clone();
            parent_comm.send_usize(q / 2, tag::SKEL_EXCHANGE, &skel_l);
            skel_r = parent_comm.recv_usize(q / 2, tag::SKEL_EXCHANGE);
        } else if me == q / 2 {
            // As above: the children sit at levels 1..=lp.
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
        let mut z = None;
        let node_sk = st.skeleton(node);
        let s_node = node_sk.map(|s| s.rank()).unwrap_or(0);
        let mut m_block = Mat::zeros(0, 0); // M_c for the telescoping
        if me == 0 {
            // Rank 0 is rank 0 of its half too, the root `reduce_sum` returns to.
            let b_r = Mat::from_col_major(sr, sl, red.expect("half root reduction"));
            // B_l arrives from {q/2}.
            let b_l_data = parent_comm.recv_f64(q / 2, tag::B_BLOCK);
            let b_l = Mat::from_col_major(sl, sr, b_l_data);
            // The serial sweep's own factorization of Z; the per-rank cost
            // accounting it folds in is not reported here.
            let reduced = factor_z(b_l, b_r, node, &mut NodeCost::default())?;
            // Telescoping data M = Z⁻¹Pᵀ (eq. 10), root level skips it:
            // the top s_l rows stay, the bottom s_r go to {q/2}.
            if let Some(sk) = node_sk {
                let m = telescope_m(&sk.proj, &reduced);
                let m_r = m.submatrix(sl..sl + sr, 0..s_node).to_mat();
                parent_comm.send_f64(q / 2, tag::M_BLOCK, m_r.as_slice());
                m_block = m.submatrix(0..sl, 0..s_node).to_mat();
                workspace::recycle_mat(m);
            }
            z = Some(reduced);
        } else if me == q / 2 {
            // Rank q/2 is rank 0 of the upper half, the root of its reduction.
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
                z,
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
                z,
            });
        }
    }

    Ok(RankState { local, levels })
}

impl<K: Kernel> DistSolver<'_, K> {
    /// Number of simulated ranks.
    pub fn ranks(&self) -> usize {
        self.cut.roots.len()
    }

    /// Wall-clock seconds of the distributed factorization.
    pub fn factor_seconds(&self) -> f64 {
        self.factor_seconds
    }

    /// Solves `(λI + K̃) x = b` (`b` in the tree's permuted ordering) with
    /// the distributed solver (Algorithm II.5), all ranks in parallel.
    ///
    /// # Panics
    /// Panics if `b.len()` is not the number of points in the tree.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.st.tree().points().len();
        assert_eq!(b.len(), n, "dist solve: rhs length mismatch");
        let slices: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.ranks.len());
            for ((rs, &root), range) in self.ranks.iter().zip(&self.cut.roots).zip(&self.cut.ranges)
            {
                let mut u = b[range.clone()].to_vec();
                handles.push(scope.spawn(move || {
                    dist_solve_rank(rs, root, range, &mut u);
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
fn dist_solve_rank<K: Kernel>(
    rs: &RankState<'_, K>,
    root: usize,
    range: &Range<usize>,
    u: &mut [f64],
) {
    let st = rs.local.skeleton_tree();
    let tree = st.tree();
    let pts = tree.points();
    let kernel = rs.local.kernel();
    // Local D^{-1} on the owned subtree.
    rs.local.ctx().solve_node(root, MatMut::from_col(u));

    let own_cols: Vec<usize> = range.clone().collect();
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
            lvl.z.as_ref().expect("Z on rank 0").solve_mut(MatMut::from_col(&mut y));
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
