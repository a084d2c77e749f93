//! Fully direct solver under level restriction — the comparison point of
//! Table V.
//!
//! Where the hybrid solver iterates on the reduced system `(I + VW)`, this
//! variant LU-factorizes it: with the frontier at level `L` the system has
//! dimension `M = Σ_φ s_φ ≈ 2^L s`, so the assembly
//! ([`HybridSolver::assemble_reduced`], the routine the hybrid itself uses
//! while the matrix is small) costs `O(2^L s² N)` work and `O(2^{2L} s²)`
//! memory and the LU `O(2^{3L} s³)` on top — exactly the blow-up the paper
//! quotes ("if we further increase L, the cost of the full factorization
//! can be 1000× in runtime and 30× in storage"), and the reason the
//! hybrid's matrix-free path exists.

use crate::error::SolverError;
use crate::factor::FactorTree;
use crate::hybrid::HybridSolver;
use kfds_kernels::{eval_block, Kernel};
use kfds_la::blas2::gemv;
use kfds_la::{Lu, Mat};
use rayon::prelude::*;

/// A direct solver for the level-restricted factorization: `D` factored
/// per frontier subtree plus a dense LU of the coalesced reduced system.
pub struct LevelRestrictedDirect<'a, 'f, K: Kernel> {
    hybrid: HybridSolver<'a, 'f, K>,
    z_lu: Lu,
    /// Stored frontier `V` row blocks `K_{φ̃, X∖φ}` (per frontier node),
    /// present in [`crate::StorageMode::StoredGemv`] — the `2^L s N`
    /// memory term of the paper's Table V discussion.
    stored_v: Option<Vec<Mat>>,
    /// Seconds spent assembling + factorizing the reduced system (on top
    /// of the partial factorization).
    pub assembly_seconds: f64,
    /// Bytes of the dense reduced system (plus stored `V` blocks if any).
    pub reduced_bytes: usize,
}

impl<'a, 'f, K: Kernel> LevelRestrictedDirect<'a, 'f, K> {
    /// Assembles `Z = I + VW` over the frontier and LU-factorizes it.
    ///
    /// # Errors
    /// Propagates frontier-coverage and singularity failures.
    pub fn new(ft: &'f FactorTree<'a, K>) -> Result<Self, SolverError> {
        let t0 = std::time::Instant::now();
        let hybrid = HybridSolver::new(ft)?;
        let st = ft.skeleton_tree();
        let pts = st.tree().points();
        let m_dim = hybrid.reduced_dim();
        let z_lu = Lu::factor(hybrid.assemble_reduced())
            .map_err(|e| SolverError::Factorization { node: st.tree().root(), source: e })?;
        // Stored mode: materialize the frontier V rows K_{φ̃, X∖φ} so solves
        // use GEMV instead of fused kernel evaluation (the paper's
        // O(2^L s N) storage term).
        let stored_v: Option<Vec<Mat>> = (ft.config().storage == crate::StorageMode::StoredGemv)
            .then(|| {
                hybrid
                    .frontier()
                    .par_iter()
                    .zip(hybrid.complements().par_iter())
                    .map(|(&phi, rest)| {
                        let sk = st.skeleton(phi).expect("frontier skeleton");
                        eval_block(ft.kernel(), pts, &sk.skeleton, rest)
                    })
                    .collect()
            });
        let v_bytes: usize = stored_v.iter().flatten().map(|b| b.nrows() * b.ncols() * 8).sum();
        Ok(LevelRestrictedDirect {
            hybrid,
            z_lu,
            stored_v,
            assembly_seconds: t0.elapsed().as_secs_f64(),
            reduced_bytes: m_dim * m_dim * 8 + v_bytes,
        })
    }

    /// `y = V x` using the stored frontier blocks when available, the
    /// matrix-free path otherwise.
    fn apply_v(&self, x: &[f64]) -> Vec<f64> {
        let Some(blocks) = &self.stored_v else {
            return self.hybrid.apply_v_pub(x);
        };
        let tree = self.hybrid.skeleton_tree().tree();
        let mut out = vec![0.0; self.reduced_dim()];
        let mut rest = out.as_mut_slice();
        for (&phi, blk) in self.hybrid.frontier().iter().zip(blocks) {
            let (y, tail) = rest.split_at_mut(blk.nrows());
            rest = tail;
            if blk.nrows() > 0 {
                // x on X∖φ: the two runs either side of φ's range.
                let nd = tree.node(phi);
                let xr = [&x[..nd.begin], &x[nd.end..]].concat();
                gemv(1.0, blk.rb(), &xr, 0.0, y);
            }
        }
        out
    }

    /// Dimension of the assembled reduced system (`≈ 2^L s`).
    pub fn reduced_dim(&self) -> usize {
        self.hybrid.reduced_dim()
    }

    /// Solves `(λI + K̃) x = b` (`b` in permuted order) with the dense
    /// reduced system: `x = v − W Z^{-1} V v`, `v = D^{-1} b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut v = b.to_vec();
        self.hybrid.apply_dinv_pub(&mut v);
        if self.reduced_dim() == 0 {
            return v;
        }
        let mut y = self.apply_v(&v);
        self.z_lu.solve_inplace(&mut y);
        let mut wz = vec![0.0; b.len()];
        self.hybrid.apply_w_pub(&y, &mut wz);
        for (vi, wi) in v.iter_mut().zip(&wz) {
            *vi -= wi;
        }
        v
    }
}
