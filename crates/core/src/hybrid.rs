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

use crate::error::SolverError;
use crate::factor::FactorTree;
use kfds_kernels::{sum_fused, sum_fused_multi, Kernel};
use kfds_krylov::{gmres, DenseOp, FnOp, GmresOptions, LinOp, SolveResult};
use kfds_la::{gemm, workspace, Mat, Trans};
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

    /// `D^{-1} u` in place: independent direct solves on the frontier
    /// subtrees (Algorithm II.5/II.3 below the frontier).
    fn apply_dinv(&self, u: &mut [f64]) {
        let tree = self.ft.skeleton_tree().tree();
        let ctx = self.ft.ctx();
        // Frontier ranges partition u; split it into per-node chunks.
        let mut chunks: Vec<(usize, &mut [f64])> = Vec::with_capacity(self.sys.frontier.len());
        let mut rest = u;
        for &f in &self.sys.frontier {
            let len = tree.node(f).len();
            let (head, tail) = rest.split_at_mut(len);
            chunks.push((f, head));
            rest = tail;
        }
        chunks.into_par_iter().for_each(|(f, chunk)| ctx.solve_node(f, chunk));
    }

    /// `out[φ] = P̂_φ z_φ` (Algorithm II.7: `MatVecW` fires only on the
    /// frontier since `P = I` above it).
    fn apply_w(&self, z: &[f64], out: &mut [f64]) {
        debug_assert_eq!(z.len(), self.sys.reduced_dim);
        let tree = self.ft.skeleton_tree().tree();
        let mut chunks: Vec<(usize, usize, &mut [f64])> =
            Vec::with_capacity(self.sys.frontier.len());
        let mut rest = out;
        for (k, &f) in self.sys.frontier.iter().enumerate() {
            let len = tree.node(f).len();
            let (head, tail) = rest.split_at_mut(len);
            chunks.push((k, f, head));
            rest = tail;
        }
        let ctx = self.ft.ctx();
        chunks.into_par_iter().for_each(|(k, f, chunk)| {
            let zk = &z[self.sys.offsets[k]..self.sys.offsets[k + 1]];
            if let Some(p_hat) = self.ft.factors()[f].p_hat.as_ref() {
                kfds_la::blas2::gemv(1.0, p_hat.rb(), zk, 0.0, chunk);
            } else {
                // Recompute-W mode: telescope P̂ through eq. (10).
                chunk.copy_from_slice(&ctx.apply_p_hat(f, zk));
            }
        });
    }

    /// `y_φ = K_{φ̃, X∖φ} x` for every frontier node (Algorithm II.8:
    /// `MatVecV` over all nodes above and on the frontier), evaluated
    /// matrix-free in one summation over `X∖φ` per node.
    fn apply_v(&self, x: &[f64]) -> Vec<f64> {
        let st = self.ft.skeleton_tree();
        let tree = st.tree();
        let pts = tree.points();
        let kernel = self.ft.kernel();
        let segments: Vec<Vec<f64>> = self
            .sys
            .frontier
            .par_iter()
            .zip(self.sys.complements.par_iter())
            .map(|(&f, rest)| {
                let sk = st.skeleton(f).expect("frontier skeleton");
                if sk.rank() == 0 {
                    return Vec::new();
                }
                // x on X∖φ: the two runs either side of φ's range.
                let nd = tree.node(f);
                let mut xr = workspace::take(rest.len());
                xr[..nd.begin].copy_from_slice(&x[..nd.begin]);
                xr[nd.begin..].copy_from_slice(&x[nd.end..]);
                let mut y = vec![0.0; sk.rank()];
                sum_fused(kernel, pts, &sk.skeleton, rest, &xr, &mut y);
                y
            })
            .collect();
        let mut out = Vec::with_capacity(self.sys.reduced_dim);
        for seg in segments {
            out.extend(seg);
        }
        out
    }

    /// Public probe of `D^{-1}` (used by the level-restricted direct
    /// solver and the benchmark harnesses).
    pub fn apply_dinv_pub(&self, u: &mut [f64]) {
        self.apply_dinv(u)
    }

    /// Public probe of the `W` application.
    pub fn apply_w_pub(&self, z: &[f64], out: &mut [f64]) {
        self.apply_w(z, out)
    }

    /// Public probe of the `V` application.
    pub fn apply_v_pub(&self, x: &[f64]) -> Vec<f64> {
        self.apply_v(x)
    }

    /// `out = (I + V W) z`, matrix-free: one `W` then one `V` application.
    fn apply_reduced(&self, z: &[f64], out: &mut [f64]) {
        let n = self.ft.skeleton_tree().tree().points().len();
        let mut wz = vec![0.0; n];
        self.apply_w(z, &mut wz);
        let vwz = self.apply_v(&wz);
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
                    recomputed = ctx.apply_p_hat_mat(psi, &Mat::identity(s_psi));
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
    /// only the matrix-free application exists.
    fn assembles(&self) -> bool {
        let r = self.sys.reduced_dim;
        r.saturating_mul(r).saturating_mul(8) <= self.ft.stats().stored_bytes
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
    pub fn solve(&self, b: &[f64], opts: &GmresOptions) -> Result<HybridOutcome, SolverError> {
        let n = self.ft.skeleton_tree().tree().points().len();
        assert_eq!(b.len(), n, "hybrid solve: rhs length mismatch");
        // v = D^{-1} u.
        let mut v = b.to_vec();
        self.apply_dinv(&mut v);
        // Reduced right-hand side y = V v (empty when every rank is 0).
        let y = self.apply_v(&v);
        // (I + V W) z = y.
        let (gm, reduced) = self.with_reduced_op(|op| gmres(op, &y, None, opts));
        // x = v − W z.
        let mut wz = vec![0.0; n];
        self.apply_w(&gm.x, &mut wz);
        let mut x = v;
        for (xi, wi) in x.iter_mut().zip(&wz) {
            *xi -= wi;
        }
        Ok(HybridOutcome { x, gmres: gm, reduced })
    }

    /// `D^{-1} U` for a multi-column right-hand side: blocked frontier
    /// solves through [`SolveCtx::solve_node_mat`](crate::solve), so the
    /// leaf LU / reduced-system applications run as GEMMs over all
    /// columns at once.
    fn apply_dinv_mat(&self, u: &mut Mat) {
        let tree = self.ft.skeleton_tree().tree();
        let ctx = self.ft.ctx();
        let nrhs = u.ncols();
        let solved: Vec<(usize, Mat)> = self
            .sys
            .frontier
            .par_iter()
            .map(|&f| {
                let nd = tree.node(f);
                let mut m = workspace::mat_from_view(u.submatrix(nd.begin..nd.end, 0..nrhs));
                ctx.solve_node_mat(f, &mut m);
                (f, m)
            })
            .collect();
        for (f, m) in solved {
            let nd = tree.node(f);
            for j in 0..nrhs {
                u.col_mut(j)[nd.begin..nd.end].copy_from_slice(m.col(j));
            }
            workspace::recycle_mat(m);
        }
    }

    /// Multi-RHS `V` application: `Y_φ = K_{φ̃, X∖φ} X` for every frontier
    /// node, as one fused multi-RHS summation over `X∖φ` per node instead
    /// of one single-vector pass per column.
    fn apply_v_mat(&self, x: &Mat) -> Mat {
        let st = self.ft.skeleton_tree();
        let tree = st.tree();
        let pts = tree.points();
        let kernel = self.ft.kernel();
        let nrhs = x.ncols();
        let segments: Vec<Mat> = self
            .sys
            .frontier
            .par_iter()
            .zip(self.sys.complements.par_iter())
            .map(|(&f, rest)| {
                let sk = st.skeleton(f).expect("frontier skeleton");
                let s = sk.rank();
                if s == 0 {
                    return Mat::zeros(0, nrhs);
                }
                let nd = tree.node(f);
                let mut xr = workspace::take_mat_detached(rest.len(), nrhs);
                for j in 0..nrhs {
                    let (src, dst) = (x.col(j), xr.col_mut(j));
                    dst[..nd.begin].copy_from_slice(&src[..nd.begin]);
                    dst[nd.begin..].copy_from_slice(&src[nd.end..]);
                }
                let mut y = workspace::take_mat_detached(s, nrhs);
                sum_fused_multi(kernel, pts, &sk.skeleton, rest, xr.rb(), y.rb_mut());
                workspace::recycle_mat(xr);
                y
            })
            .collect();
        let mut out = Mat::zeros(self.sys.reduced_dim, nrhs);
        for (k, seg) in segments.into_iter().enumerate() {
            let off = self.sys.offsets[k];
            for j in 0..nrhs {
                out.col_mut(j)[off..off + seg.nrows()].copy_from_slice(seg.col(j));
            }
            workspace::recycle_mat(seg);
        }
        out
    }

    /// Multi-RHS `W` application: `out[φ] = P̂_φ Z_φ` per frontier node as
    /// a GEMM over all columns.
    fn apply_w_mat(&self, z: &Mat, out: &mut Mat) {
        debug_assert_eq!(z.nrows(), self.sys.reduced_dim);
        let tree = self.ft.skeleton_tree().tree();
        let nrhs = z.ncols();
        let ctx = self.ft.ctx();
        let indexed: Vec<(usize, usize)> = self.sys.frontier.iter().copied().enumerate().collect();
        let chunks: Vec<(usize, Mat)> = indexed
            .into_par_iter()
            .map(|(k, f)| {
                let zk = workspace::mat_from_view(
                    z.submatrix(self.sys.offsets[k]..self.sys.offsets[k + 1], 0..nrhs),
                );
                let chunk = if let Some(p_hat) = self.ft.factors()[f].p_hat.as_ref() {
                    let mut c = workspace::take_mat_detached(tree.node(f).len(), nrhs);
                    gemm(1.0, p_hat.rb(), Trans::No, zk.rb(), Trans::No, 0.0, c.rb_mut());
                    c
                } else {
                    // Recompute-W mode: telescope P̂ through eq. (10).
                    ctx.apply_p_hat_mat(f, &zk)
                };
                workspace::recycle_mat(zk);
                (f, chunk)
            })
            .collect();
        for (f, chunk) in chunks {
            let nd = tree.node(f);
            for j in 0..nrhs {
                out.col_mut(j)[nd.begin..nd.end].copy_from_slice(chunk.col(j));
            }
            workspace::recycle_mat(chunk);
        }
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
    /// Currently infallible after construction, but kept fallible to match
    /// [`HybridSolver::solve`].
    pub fn solve_mat_in_place(
        &self,
        b: &mut Mat,
        opts: &GmresOptions,
    ) -> Result<HybridBlockOutcome, SolverError> {
        let n = self.ft.skeleton_tree().tree().points().len();
        assert_eq!(b.nrows(), n, "hybrid solve: rhs rows mismatch");
        let nrhs = b.ncols();
        // V_mat = D^{-1} B, blocked over the frontier.
        self.apply_dinv_mat(b);
        // Reduced right-hand sides Y = V D^{-1} B, one fused pass.
        let y = self.apply_v_mat(b);
        // (I + V W) z_j = y_j per column.
        let (results, reduced): (Vec<SolveResult>, _) = self.with_reduced_op(|op| {
            (0..nrhs).into_par_iter().map(|j| gmres(op, y.col(j), None, opts)).collect()
        });
        let mut zmat = Mat::zeros(self.sys.reduced_dim, nrhs);
        for (j, gm) in results.iter().enumerate() {
            zmat.col_mut(j).copy_from_slice(&gm.x);
        }
        // X = D^{-1} B − W Z, blocked.
        let mut wz = Mat::zeros(n, nrhs);
        self.apply_w_mat(&zmat, &mut wz);
        for j in 0..nrhs {
            let col = b.col_mut(j);
            for (xi, wi) in col.iter_mut().zip(wz.col(j)) {
                *xi -= wi;
            }
        }
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
        let bp = tree.permute_vec(b);
        let mut out = self.solve(&bp, opts)?;
        out.x = tree.unpermute_vec(&out.x);
        Ok(out)
    }
}
