//! The hybrid direct/iterative solver — Algorithms II.6–II.8 (§II-C).
//!
//! With level restriction the frontier `A` holds the deepest skeletonized
//! ancestors; `λI + K̃ = D (I + W V)` where `D = blockdiag(λI + K̃_φφ)`
//! over `φ ∈ A` (factorized directly), `W = D^{-1} blockdiag(P_{φφ̃})`
//! (the frontier `P̂` factors, Algorithm II.7), and `V` stacks the
//! skeleton-row blocks `K_{φ̃, X∖φ}` (Algorithm II.8, evaluated
//! matrix-free). The reduced system `(I + V W) z = V D^{-1} u` of size
//! `r = Σ_φ s_φ ≈ 2^L s` is solved by GMRES; then `x = D^{-1}u − W z`.
//!
//! GMRES runs over one of two renderings of `I + VW`, chosen by size
//! alone: while the dense `8r²` bytes are no more than the partial factor
//! already holds, the operator is assembled once per factor (one kernel
//! pass plus `2rNs` flops — about three matrix-free applications) and every
//! iteration is a `gemv`; beyond that — the paper's regime, where the
//! matrix "exceeds 500 GB" — each iteration is one `W` and one `V`
//! application and nothing above the frontier is stored.
//!
//! `D^{-1}`, `W` and `V` each exist once, over column-major views: every
//! frontier node works on its own row block of the caller's matrix (the
//! `D^{-1}` solves are the recursion of [`crate::solve`] on those blocks),
//! and a single right-hand side is the `n x 1` view of a slice, so
//! [`HybridSolver::solve`] is column 0 of the one-column
//! [`HybridSolver::solve_mat_in_place`], bit for bit.

use crate::error::SolverError;
use crate::factor::FactorTree;
use crate::solve::check_rhs_rows;
use kfds_kernels::{sum_fused_multi, Kernel};
use kfds_krylov::{gmres, DenseOp, FnOp, GmresOptions, LinOp, SolveResult};
use kfds_la::{workspace, Mat, MatMut, MatRef};
use rayon::prelude::*;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A level-restricted hybrid solver built on a partial factorization.
pub struct HybridSolver<'a, 'f, K: Kernel> {
    ft: &'f FactorTree<'a, K>,
    sys: Arc<ReducedSystem>,
}

/// Everything the hybrid solver holds beyond the borrowed factor tree: the
/// frontier layout and, once a solve has needed it, the assembled reduced
/// operator. Behind an `Arc` so an owned factor
/// ([`SharedFactor`](crate::SharedFactor)) keeps one beside its factor
/// tree and every batch solved on that factor shares it.
pub(crate) struct ReducedSystem {
    /// Frontier nodes sorted by their point range.
    frontier: Vec<usize>,
    /// Prefix offsets of each frontier node's skeleton block in the
    /// reduced (skeleton) vector space.
    offsets: Vec<usize>,
    /// Total reduced dimension `Σ_φ s_φ`.
    reduced_dim: usize,
    /// Per frontier node `φ`, the point indices of `X∖φ` in ascending
    /// order: the source list of its `V` block (empty at rank 0).
    complements: Vec<Vec<usize>>,
    /// `I + VW` as a dense matrix, assembled by the first solve the size
    /// rule sends there — never at construction — and at most once.
    dense: OnceLock<Mat>,
}

/// Which rendering of the reduced operator `I + VW` GMRES ran over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReducedOperator {
    /// The dense `reduced_dim²` matrix; one `gemv` per iteration.
    Assembled,
    /// One `W` and one `V` application per iteration; nothing stored.
    MatrixFree,
}

impl fmt::Display for ReducedOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReducedOperator::Assembled => "assembled",
            ReducedOperator::MatrixFree => "matrix-free",
        })
    }
}

/// What the reduced operator of one hybrid solve was and what it cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReducedReport {
    /// The rendering GMRES ran over.
    pub operator: ReducedOperator,
    /// Seconds this call spent assembling it: 0 when an earlier solve on
    /// the same factor already had, and always 0 matrix-free.
    pub assembly_seconds: f64,
    /// Bytes of the dense operator held (0 matrix-free). These sit
    /// outside [`FactorStats::stored_bytes`](crate::FactorStats).
    pub bytes: usize,
}

/// Outcome of a hybrid solve.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// Solution in the tree's permuted ordering.
    pub x: Vec<f64>,
    /// GMRES result for the reduced system (iterations, trace).
    pub gmres: SolveResult,
    /// The reduced operator that GMRES ran over.
    pub reduced: ReducedReport,
}

/// Outcome of a blocked hybrid solve (the solution replaces the
/// right-hand side in place).
#[derive(Clone, Debug)]
pub struct HybridBlockOutcome {
    /// One GMRES result per right-hand-side column.
    pub gmres: Vec<SolveResult>,
    /// The reduced operator every column's GMRES ran over.
    pub reduced: ReducedReport,
}

impl<'a, 'f, K: Kernel> HybridSolver<'a, 'f, K> {
    /// Builds the hybrid solver from a (typically partial) factorization.
    ///
    /// # Errors
    /// [`SolverError::FrontierIncomplete`] if some leaf lies outside the
    /// skeletonization frontier (then `D` would not cover the matrix).
    pub fn new(ft: &'f FactorTree<'a, K>) -> Result<Self, SolverError> {
        let st = ft.skeleton_tree();
        let tree = st.tree();
        for leaf in tree.leaves() {
            if !st.is_skeletonized(leaf) {
                return Err(SolverError::FrontierIncomplete);
            }
        }
        let mut frontier = st.frontier().to_vec();
        frontier.sort_by_key(|&i| tree.node(i).begin);
        // The frontier must partition the point set.
        let mut cursor = 0;
        for &f in &frontier {
            if tree.node(f).begin != cursor {
                return Err(SolverError::FrontierIncomplete);
            }
            cursor = tree.node(f).end;
        }
        if cursor != tree.points().len() {
            return Err(SolverError::FrontierIncomplete);
        }
        let mut offsets = Vec::with_capacity(frontier.len() + 1);
        let mut acc = 0;
        for &f in &frontier {
            offsets.push(acc);
            acc += st.skeleton(f).expect("frontier node skeletonized").rank();
        }
        offsets.push(acc);
        let n = tree.points().len();
        let complements = frontier
            .iter()
            .map(|&f| {
                let nd = tree.node(f);
                if st.skeleton(f).expect("frontier node skeletonized").rank() == 0 {
                    return Vec::new();
                }
                (0..nd.begin).chain(nd.end..n).collect()
            })
            .collect();
        let sys = ReducedSystem {
            frontier,
            offsets,
            reduced_dim: acc,
            complements,
            dense: OnceLock::new(),
        };
        Ok(HybridSolver { ft, sys: Arc::new(sys) })
    }

    /// Rebuilds a solver around the state of an earlier one on the same
    /// factor tree, sharing its layout and assembled operator.
    pub(crate) fn from_shared(ft: &'f FactorTree<'a, K>, sys: Arc<ReducedSystem>) -> Self {
        HybridSolver { ft, sys }
    }

    /// The shareable state, for [`Self::from_shared`].
    pub(crate) fn shared(&self) -> Arc<ReducedSystem> {
        Arc::clone(&self.sys)
    }

    /// Size of the iteratively solved reduced system (`≈ 2^L s`).
    pub fn reduced_dim(&self) -> usize {
        self.sys.reduced_dim
    }

    /// Bytes of the assembled reduced operator held right now: 0 before
    /// the first solve, and always 0 when the solves run matrix-free.
    pub fn reduced_bytes(&self) -> usize {
        self.sys.dense.get().map_or(0, |z| z.nrows() * z.ncols() * 8)
    }

    /// The skeleton tree underlying the factorization.
    pub fn skeleton_tree(&self) -> &'a kfds_askit::SkeletonTree {
        self.ft.skeleton_tree()
    }

    /// The frontier nodes, sorted by point range.
    pub fn frontier(&self) -> &[usize] {
        &self.sys.frontier
    }

    /// Per frontier node `φ`, the ascending point indices of `X∖φ` (empty
    /// at rank 0): the columns of its `V` block.
    pub(crate) fn complements(&self) -> &[Vec<usize>] {
        &self.sys.complements
    }

    /// `D^{-1} U` in place: independent direct solves on the frontier
    /// subtrees (Algorithm II.5/II.3 below the frontier), each on its own
    /// row block of `u`.
    fn apply_dinv(&self, u: MatMut<'_>) {
        let ctx = self.ft.ctx();
        let frontier = &self.sys.frontier;
        self.frontier_row_blocks(u)
            .into_par_iter()
            .enumerate()
            .for_each(|(k, block)| ctx.solve_node(frontier[k], block));
    }

    /// `out[φ] = P̂_φ Z_φ` (Algorithm II.7: `MatVecW` fires only on the
    /// frontier since `P = I` above it); overwrites `out`.
    fn apply_w(&self, z: MatRef<'_>, out: MatMut<'_>) {
        debug_assert_eq!(z.nrows(), self.sys.reduced_dim);
        let nrhs = z.ncols();
        let ctx = self.ft.ctx();
        let ReducedSystem { frontier, offsets, .. } = &*self.sys;
        self.frontier_row_blocks(out).into_par_iter().enumerate().for_each(|(k, block)| {
            // The stored factor, or (recompute-W mode) P̂ telescoped
            // through eq. (10).
            ctx.apply_p_hat_into(
                frontier[k],
                z.submatrix(offsets[k]..offsets[k + 1], 0..nrhs),
                block,
            );
        });
    }

    /// `Y_φ = K_{φ̃, X∖φ} X` for every frontier node (Algorithm II.8:
    /// `MatVecV` over all nodes above and on the frontier), evaluated
    /// matrix-free in one fused summation over `X∖φ` per node, each into
    /// its own row block of the result.
    fn apply_v(&self, x: MatRef<'_>) -> Mat {
        let st = self.ft.skeleton_tree();
        let tree = st.tree();
        let pts = tree.points();
        let kernel = self.ft.kernel();
        let nrhs = x.ncols();
        let ReducedSystem { frontier, offsets, complements, .. } = &*self.sys;
        let mut out = Mat::zeros(self.sys.reduced_dim, nrhs);
        let ranks = offsets.windows(2).map(|w| w[1] - w[0]);
        row_blocks(out.rb_mut(), ranks).into_par_iter().enumerate().for_each(|(k, y)| {
            if y.nrows() == 0 {
                return;
            }
            // X on X∖φ: the two runs either side of φ's range.
            let (nd, rest) = (tree.node(frontier[k]), &complements[k]);
            let mut xr = workspace::take_mat_detached(rest.len(), nrhs);
            for j in 0..nrhs {
                let (src, dst) = (x.col(j), xr.col_mut(j));
                dst[..nd.begin].copy_from_slice(&src[..nd.begin]);
                dst[nd.begin..].copy_from_slice(&src[nd.end..]);
            }
            let sk = st.skeleton(frontier[k]).expect("frontier skeleton");
            sum_fused_multi(kernel, pts, &sk.skeleton, rest, xr.rb(), y);
            workspace::recycle_mat(xr);
        });
        out
    }

    /// `m` (all `N` rows) as one row block per frontier node.
    fn frontier_row_blocks<'m>(&self, m: MatMut<'m>) -> Vec<MatMut<'m>> {
        let tree = self.ft.skeleton_tree().tree();
        row_blocks(m, self.sys.frontier.iter().map(|&f| tree.node(f).len()))
    }

    /// Public probe of `D^{-1}` on one vector (used by the
    /// level-restricted direct solver and the benchmark harnesses).
    pub fn apply_dinv_pub(&self, u: &mut [f64]) {
        self.apply_dinv(MatMut::from_col(u))
    }

    /// Public probe of the `W` application on one vector.
    pub fn apply_w_pub(&self, z: &[f64], out: &mut [f64]) {
        self.apply_w(MatRef::from_col(z), MatMut::from_col(out))
    }

    /// Public probe of the `V` application on one vector.
    pub fn apply_v_pub(&self, x: &[f64]) -> Vec<f64> {
        self.apply_v(MatRef::from_col(x)).into_vec()
    }

    /// `out = (I + V W) z`, matrix-free: one `W` then one `V` application.
    fn apply_reduced(&self, z: &[f64], out: &mut [f64]) {
        let n = self.ft.skeleton_tree().tree().points().len();
        // Pooled: `apply_w` overwrites every row block.
        let mut wz = workspace::take(n);
        self.apply_w_pub(z, &mut wz);
        let vwz = self.apply_v_pub(&wz);
        for i in 0..z.len() {
            out[i] = z[i] + vwz[i];
        }
    }

    /// `I + VW` as a dense `reduced_dim²` matrix, assembled afresh (the
    /// solves keep their own copy; see [`Self::reduced_bytes`]). Block
    /// `(φ, ψ)`, `φ ≠ ψ`, is `K_{φ̃,ψ} P̂_ψ` — one fused summation over
    /// `ψ`'s points with the `s_ψ` columns of `P̂_ψ` as right-hand sides —
    /// and the diagonal blocks are `I`, since `V` excludes a node's own
    /// points. One kernel pass over `K_{φ̃, X∖φ}` plus `2·r·N·s` flops.
    pub fn assemble_reduced(&self) -> Mat {
        let st = self.ft.skeleton_tree();
        let tree = st.tree();
        let pts = tree.points();
        let kernel = self.ft.kernel();
        let ctx = self.ft.ctx();
        let ReducedSystem { frontier, offsets, .. } = &*self.sys;
        let mut z = Mat::identity(self.sys.reduced_dim);
        // One column panel per frontier node ψ, filled in parallel.
        let mut panels = Vec::with_capacity(frontier.len());
        let mut rest = z.rb_mut();
        for (kq, &psi) in frontier.iter().enumerate() {
            let (panel, tail) = rest.split_at_col(offsets[kq + 1] - offsets[kq]);
            panels.push((kq, psi, panel));
            rest = tail;
        }
        panels.into_par_iter().for_each(|(kq, psi, mut panel)| {
            let s_psi = panel.ncols();
            if s_psi == 0 {
                return;
            }
            // Recompute-W mode dropped P̂_ψ: telescope it through eq. (10)
            // applied to the identity (the dense block needs the columns).
            let recomputed;
            let p_hat = match self.ft.factors()[psi].p_hat.as_ref() {
                Some(stored) => stored,
                None => {
                    recomputed = ctx.apply_p_hat(psi, Mat::identity(s_psi).rb());
                    &recomputed
                }
            };
            let psi_points: Vec<usize> = tree.node(psi).range().collect();
            for (kp, &phi) in frontier.iter().enumerate() {
                if kp == kq {
                    continue;
                }
                let sk = st.skeleton(phi).expect("frontier skeleton");
                let block = panel.rb_mut().submatrix_mut(offsets[kp]..offsets[kp + 1], 0..s_psi);
                sum_fused_multi(kernel, pts, &sk.skeleton, &psi_points, p_hat.rb(), block);
            }
        });
        z
    }

    /// The reduced operator is kept as a dense matrix exactly while it is
    /// no larger than the partial factor it sits on. At `L = 3`, `s = 128`
    /// that is 8 MiB beside tens of MiB of factor and GMRES runs on a
    /// `gemv`; at the paper's `L = 7`, `s = 2048` it would be 512 GiB and
    /// only the matrix-free application exists. The factor is everything a
    /// solve reads, `V` blocks shared with an assembly included, so the
    /// rule does not depend on how the tree was built.
    fn assembles(&self) -> bool {
        let r = self.sys.reduced_dim;
        let stats = self.ft.stats();
        r.saturating_mul(r).saturating_mul(8) <= stats.stored_bytes + stats.shared_bytes
    }

    /// Runs `f` over the reduced operator the size rule selects,
    /// assembling it first if this is the first solve to need it.
    fn with_reduced_op<R>(&self, f: impl FnOnce(&dyn LinOp) -> R) -> (R, ReducedReport) {
        if !self.assembles() {
            let op = FnOp::new(self.sys.reduced_dim, |z: &[f64], out: &mut [f64]| {
                self.apply_reduced(z, out)
            });
            let report = ReducedReport {
                operator: ReducedOperator::MatrixFree,
                assembly_seconds: 0.0,
                bytes: 0,
            };
            return (f(&op), report);
        }
        let mut assembly_seconds = 0.0;
        let z = self.sys.dense.get_or_init(|| {
            let t0 = Instant::now();
            let z = self.assemble_reduced();
            assembly_seconds = t0.elapsed().as_secs_f64();
            z
        });
        let report = ReducedReport {
            operator: ReducedOperator::Assembled,
            assembly_seconds,
            bytes: self.reduced_bytes(),
        };
        (f(&DenseOp::new(z.rb())), report)
    }

    /// Solves `(λI + K̃) x = b` (`b` in permuted order) — Algorithm II.6.
    /// The answer is column 0 of the one-column blocked solve, bit for bit.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `b.len()` is not the problem size.
    pub fn solve(&self, b: &[f64], opts: &GmresOptions) -> Result<HybridOutcome, SolverError> {
        let mut x = b.to_vec();
        let mut out = self.solve_view(MatMut::from_col(&mut x), opts)?;
        let gmres = out.gmres.pop().expect("one column, one GMRES result");
        Ok(HybridOutcome { x, gmres, reduced: out.reduced })
    }

    /// Solves `(λI + K̃) X = B` in place for a multi-column right-hand
    /// side (`B` in permuted order) — the blocked form of Algorithm II.6.
    ///
    /// The frontier direct solves (`D^{-1}`), the reduced right-hand side
    /// (`V`), and the final correction (`W`) run blocked over all columns
    /// (GEMM-shaped); the reduced `(I + VW) z = y` systems are solved by
    /// one GMRES per column, the columns in parallel over the one shared
    /// read-only operator.
    ///
    /// # Errors
    /// [`SolverError::RhsShape`] if `b.nrows()` is not the problem size.
    pub fn solve_mat_in_place(
        &self,
        b: &mut Mat,
        opts: &GmresOptions,
    ) -> Result<HybridBlockOutcome, SolverError> {
        self.solve_view(b.rb_mut(), opts)
    }

    /// The one rendering of Algorithm II.6, over a view of the
    /// right-hand sides.
    fn solve_view(
        &self,
        mut b: MatMut<'_>,
        opts: &GmresOptions,
    ) -> Result<HybridBlockOutcome, SolverError> {
        let n = self.ft.skeleton_tree().tree().points().len();
        check_rhs_rows(n, b.nrows())?;
        let nrhs = b.ncols();
        // B <- D^{-1} B, blocked over the frontier.
        self.apply_dinv(b.rb_mut());
        // Reduced right-hand sides Y = V D^{-1} B, one fused pass (empty
        // when every rank is 0).
        let y = self.apply_v(b.rb());
        // (I + V W) z_j = y_j per column.
        let (results, reduced): (Vec<SolveResult>, _) = self.with_reduced_op(|op| {
            (0..nrhs).into_par_iter().map(|j| gmres(op, y.col(j), None, opts)).collect()
        });
        let mut zmat = Mat::zeros(self.sys.reduced_dim, nrhs);
        for (j, gm) in results.iter().enumerate() {
            zmat.col_mut(j).copy_from_slice(&gm.x);
        }
        // X = D^{-1} B − W Z, blocked. Pooled: `apply_w` overwrites every
        // row block.
        let mut wz = workspace::take_mat_detached(n, nrhs);
        self.apply_w(zmat.rb(), wz.rb_mut());
        for j in 0..nrhs {
            for (xi, wi) in b.col_mut(j).iter_mut().zip(wz.col(j)) {
                *xi -= wi;
            }
        }
        workspace::recycle_mat(wz);
        Ok(HybridBlockOutcome { gmres: results, reduced })
    }

    /// Convenience wrapper: right-hand side and solution in *original*
    /// point order.
    pub fn solve_original_order(
        &self,
        b: &[f64],
        opts: &GmresOptions,
    ) -> Result<HybridOutcome, SolverError> {
        let tree = self.ft.skeleton_tree().tree();
        check_rhs_rows(tree.points().len(), b.len())?;
        let bp = tree.permute_vec(b);
        let mut out = self.solve(&bp, opts)?;
        out.x = tree.unpermute_vec(&out.x);
        Ok(out)
    }
}

/// Splits `m` into consecutive row blocks of the given heights (which
/// must sum to at most `m.nrows()`), top to bottom.
fn row_blocks<'m>(m: MatMut<'m>, heights: impl Iterator<Item = usize>) -> Vec<MatMut<'m>> {
    let mut blocks = Vec::with_capacity(heights.size_hint().0);
    let mut rest = m;
    for h in heights {
        let (head, tail) = rest.split_at_row(h);
        blocks.push(head);
        rest = tail;
    }
    blocks
}
