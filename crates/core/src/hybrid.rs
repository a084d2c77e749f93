//! The hybrid direct/iterative solver — Algorithms II.6–II.8 (§II-C).
//!
//! With level restriction the frontier `A` holds the deepest skeletonized
//! ancestors; `λI + K̃ = D (I + W V)` where `D = blockdiag(λI + K̃_φφ)`
//! over `φ ∈ A` (factorized directly), `W = D^{-1} blockdiag(P_{φφ̃})`
//! (the frontier `P̂` factors, Algorithm II.7), and `V` stacks the
//! skeleton-row blocks `K_{φ̃, X∖φ}` (Algorithm II.8, evaluated
//! matrix-free — the storage for these blocks above the frontier is
//! exactly what the hybrid scheme avoids). The reduced system
//! `(I + V W) z = V D^{-1} u` of size `Σ_φ s_φ ≈ 2^L s` is solved by
//! GMRES; then `x = D^{-1}u − W z`.

use crate::error::SolverError;
use crate::factor::FactorTree;
use kfds_kernels::{sum_fused, sum_fused_multi, Kernel};
use kfds_krylov::{gmres, FnOp, GmresOptions, SolveResult};
use kfds_la::{gemm, workspace, Mat, Trans};
use rayon::prelude::*;

/// A level-restricted hybrid solver built on a partial factorization.
pub struct HybridSolver<'a, 'f, K: Kernel> {
    ft: &'f FactorTree<'a, K>,
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
}

/// Outcome of a hybrid solve.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// Solution in the tree's permuted ordering.
    pub x: Vec<f64>,
    /// GMRES result for the reduced system (iterations, trace).
    pub gmres: SolveResult,
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
        Ok(HybridSolver { ft, frontier, offsets, reduced_dim: acc, complements })
    }

    /// Size of the iteratively solved reduced system (`≈ 2^L s`).
    pub fn reduced_dim(&self) -> usize {
        self.reduced_dim
    }

    /// The skeleton tree underlying the factorization.
    pub fn skeleton_tree(&self) -> &'a kfds_askit::SkeletonTree {
        self.ft.skeleton_tree()
    }

    /// The frontier nodes, sorted by point range.
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// `D^{-1} u` in place: independent direct solves on the frontier
    /// subtrees (Algorithm II.5/II.3 below the frontier).
    fn apply_dinv(&self, u: &mut [f64]) {
        let tree = self.ft.skeleton_tree().tree();
        let ctx = self.ft.ctx();
        // Frontier ranges partition u; split it into per-node chunks.
        let mut chunks: Vec<(usize, &mut [f64])> = Vec::with_capacity(self.frontier.len());
        let mut rest = u;
        for &f in &self.frontier {
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
        debug_assert_eq!(z.len(), self.reduced_dim);
        let tree = self.ft.skeleton_tree().tree();
        let mut chunks: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(self.frontier.len());
        let mut rest = out;
        for (k, &f) in self.frontier.iter().enumerate() {
            let len = tree.node(f).len();
            let (head, tail) = rest.split_at_mut(len);
            chunks.push((k, f, head));
            rest = tail;
        }
        let ctx = self.ft.ctx();
        chunks.into_par_iter().for_each(|(k, f, chunk)| {
            let zk = &z[self.offsets[k]..self.offsets[k + 1]];
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
            .frontier
            .par_iter()
            .zip(self.complements.par_iter())
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
        let mut out = Vec::with_capacity(self.reduced_dim);
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

    /// Solves `(λI + K̃) x = b` (`b` in permuted order) — Algorithm II.6.
    pub fn solve(&self, b: &[f64], opts: &GmresOptions) -> Result<HybridOutcome, SolverError> {
        let n = self.ft.skeleton_tree().tree().points().len();
        assert_eq!(b.len(), n, "hybrid solve: rhs length mismatch");
        // v = D^{-1} u.
        let mut v = b.to_vec();
        self.apply_dinv(&mut v);
        if self.reduced_dim == 0 {
            return Ok(HybridOutcome {
                x: v,
                gmres: SolveResult {
                    x: vec![],
                    converged: true,
                    iters: 0,
                    residual: 0.0,
                    trace: vec![],
                },
            });
        }
        // Reduced right-hand side y = V v.
        let y = self.apply_v(&v);
        // (I + V W) z = y, matrix-free.
        let op = FnOp::new(self.reduced_dim, |z: &[f64], out: &mut [f64]| {
            let mut wz = vec![0.0; n];
            self.apply_w(z, &mut wz);
            let vwz = self.apply_v(&wz);
            for i in 0..z.len() {
                out[i] = z[i] + vwz[i];
            }
        });
        let gm = gmres(&op, &y, None, opts);
        // x = v − W z.
        let mut wz = vec![0.0; n];
        self.apply_w(&gm.x, &mut wz);
        let mut x = v;
        for (xi, wi) in x.iter_mut().zip(&wz) {
            *xi -= wi;
        }
        Ok(HybridOutcome { x, gmres: gm })
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
            .frontier
            .par_iter()
            .zip(self.complements.par_iter())
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
        let mut out = Mat::zeros(self.reduced_dim, nrhs);
        for (k, seg) in segments.into_iter().enumerate() {
            let off = self.offsets[k];
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
        debug_assert_eq!(z.nrows(), self.reduced_dim);
        let tree = self.ft.skeleton_tree().tree();
        let nrhs = z.ncols();
        let ctx = self.ft.ctx();
        let indexed: Vec<(usize, usize)> = self.frontier.iter().copied().enumerate().collect();
        let chunks: Vec<(usize, Mat)> = indexed
            .into_par_iter()
            .map(|(k, f)| {
                let zk = workspace::mat_from_view(
                    z.submatrix(self.offsets[k]..self.offsets[k + 1], 0..nrhs),
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
    /// GMRES per column (the reduced dimension is `≈ 2^L s`, so this is
    /// the cheap part). Returns one [`SolveResult`] per column.
    ///
    /// # Errors
    /// Currently infallible after construction, but kept fallible to match
    /// [`HybridSolver::solve`].
    pub fn solve_mat_in_place(
        &self,
        b: &mut Mat,
        opts: &GmresOptions,
    ) -> Result<Vec<SolveResult>, SolverError> {
        let n = self.ft.skeleton_tree().tree().points().len();
        assert_eq!(b.nrows(), n, "hybrid solve: rhs rows mismatch");
        let nrhs = b.ncols();
        // V_mat = D^{-1} B, blocked over the frontier.
        self.apply_dinv_mat(b);
        if self.reduced_dim == 0 || nrhs == 0 {
            let done =
                SolveResult { x: vec![], converged: true, iters: 0, residual: 0.0, trace: vec![] };
            return Ok((0..nrhs).map(|_| done.clone()).collect());
        }
        // Reduced right-hand sides Y = V D^{-1} B, one fused pass.
        let y = self.apply_v_mat(b);
        // (I + V W) z_j = y_j per column, matrix-free.
        let op = FnOp::new(self.reduced_dim, |z: &[f64], out: &mut [f64]| {
            let mut wz = vec![0.0; n];
            self.apply_w(z, &mut wz);
            let vwz = self.apply_v(&wz);
            for i in 0..z.len() {
                out[i] = z[i] + vwz[i];
            }
        });
        let mut zmat = Mat::zeros(self.reduced_dim, nrhs);
        let mut results = Vec::with_capacity(nrhs);
        for j in 0..nrhs {
            let gm = gmres(&op, y.col(j), None, opts);
            zmat.col_mut(j).copy_from_slice(&gm.x);
            results.push(gm);
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
        Ok(results)
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
