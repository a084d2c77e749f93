//! Owned, shareable factorization handles for long-lived services.
//!
//! [`factorize`](crate::factorize) borrows its [`SkeletonTree`] and
//! kernel, which is the right shape for one-shot binaries but not for a
//! serving system that caches factorizations across requests and threads:
//! a cache entry must own everything it needs. [`SharedFactor`] is a [`FactorTree`] that owns
//! its skeleton tree and kernel through `Arc`s, itself behind one `Arc`,
//! so handles clone in O(1) and can be handed to worker threads freely.
//! Everything a factor tree does, a handle does through `Deref`.

use crate::assemble::{assemble_blocks, AssembledBlocks};
use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::factor::{factorize_impl, FactorTree, Held};
use crate::hybrid::{HybridSolver, ReducedReport};
use kfds_askit::SkeletonTree;
use kfds_kernels::Kernel;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use std::ops::Deref;
use std::sync::Arc;

/// The λ-independent half of a factorization, owned and shareable: the
/// skeleton tree, the kernel, and the assembled coupling blocks
/// ([`AssembledBlocks`]). A serving system caches one of these per
/// `(dataset, n, h, seed)` and derives every λ-specific [`SharedFactor`]
/// from it via [`SharedFactor::refactorize`], so a λ sweep pays for tree
/// building, skeletonization, and the coupling blocks exactly once.
pub struct SharedSetup<K: Kernel + 'static> {
    st: Arc<SkeletonTree>,
    kernel: Arc<K>,
    blocks: Arc<AssembledBlocks>,
}

impl<K: Kernel + 'static> Clone for SharedSetup<K> {
    fn clone(&self) -> Self {
        SharedSetup {
            st: Arc::clone(&self.st),
            kernel: Arc::clone(&self.kernel),
            blocks: Arc::clone(&self.blocks),
        }
    }
}

impl<K: Kernel + 'static> SharedSetup<K> {
    /// Assembles the λ-independent coupling blocks over an owned skeleton
    /// tree, producing a self-contained setup handle.
    pub fn build(st: Arc<SkeletonTree>, kernel: Arc<K>) -> Self {
        let blocks = Arc::new(assemble_blocks(&st, kernel.as_ref()));
        SharedSetup { st, kernel, blocks }
    }

    /// The skeleton tree.
    pub fn skeleton_tree(&self) -> &SkeletonTree {
        &self.st
    }

    /// The kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The assembled λ-independent coupling blocks.
    pub fn blocks(&self) -> &Arc<AssembledBlocks> {
        &self.blocks
    }

    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.st.tree().points().len()
    }
}

/// An owned factorization of `λI + K̃`: skeleton tree + kernel + factors
/// behind a single `Arc`. `Clone` is a reference-count bump, so a cache
/// can hand the same factorization to many solve workers.
pub struct SharedFactor<K: Kernel + 'static>(Arc<FactorTree<'static, K>>);

impl<K: Kernel + 'static> Clone for SharedFactor<K> {
    fn clone(&self) -> Self {
        SharedFactor(Arc::clone(&self.0))
    }
}

impl<K: Kernel + 'static> Deref for SharedFactor<K> {
    type Target = FactorTree<'static, K>;

    fn deref(&self) -> &FactorTree<'static, K> {
        &self.0
    }
}

impl<K: Kernel + 'static> SharedFactor<K> {
    /// Runs [`factorize`](crate::factorize) over an owned skeleton tree
    /// and kernel, producing a self-contained handle.
    ///
    /// # Errors
    /// Propagates [`SolverError`] from the factorization.
    pub fn factorize(
        st: Arc<SkeletonTree>,
        kernel: Arc<K>,
        config: SolverConfig,
    ) -> Result<Self, SolverError> {
        let root = st.tree().root();
        let ft = factorize_impl(Held::Shared(st), Held::Shared(kernel), config, None, root)?;
        Ok(SharedFactor(Arc::new(ft)))
    }

    /// Factorizes at a new λ from a [`SharedSetup`] over its assembled
    /// coupling blocks, so only the leaf diagonals are evaluated before
    /// the linear algebra runs (the λ-sweep refactorization path; pins the
    /// stored `V`-block scheme). The factor shares the setup's `V` blocks —
    /// the `Arc`, not a copy — so a cached λ costs its λ-dependent factors
    /// only, and answers bitwise what a [`factorize`](crate::factorize)
    /// under `StoredGemv` at that λ would.
    ///
    /// # Errors
    /// Propagates [`SolverError`] from the factorization.
    pub fn refactorize(setup: &SharedSetup<K>, config: SolverConfig) -> Result<Self, SolverError> {
        let (st, kernel) = (Arc::clone(&setup.st), Arc::clone(&setup.kernel));
        let (root, blocks) = (st.tree().root(), Some(Arc::clone(&setup.blocks)));
        let ft = factorize_impl(Held::Shared(st), Held::Shared(kernel), config, blocks, root)?;
        Ok(SharedFactor(Arc::new(ft)))
    }

    /// The underlying factor tree.
    pub fn factor_tree(&self) -> &FactorTree<'static, K> {
        &self.0
    }

    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.skeleton_tree().tree().points().len()
    }

    /// Number of live handles to this factorization (diagnostic).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Blocked multi-RHS solve in the tree's permuted ordering: the
    /// complete-factorization direct path when available, the blocked
    /// hybrid path (partial factorization + GMRES on the reduced system)
    /// otherwise. This is the dispatch point a batching service uses. The
    /// hybrid path reports the reduced operator its GMRES ran over; the
    /// factor keeps that operator, so only the first batch on a factor can
    /// pay for assembling it.
    ///
    /// # Errors
    /// Propagates [`SolverError`] from either path.
    pub fn solve_block_in_place(
        &self,
        b: &mut Mat,
        gmres: &GmresOptions,
    ) -> Result<Option<ReducedReport>, SolverError> {
        if self.is_complete() {
            return self.solve_mat_in_place(b).map(|()| None);
        }
        let out = HybridSolver::new(&self.0)?.solve_mat_in_place(b, gmres)?;
        Ok(Some(out.reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::factorize;
    use kfds_askit::{skeletonize, SkelConfig};
    use kfds_kernels::Gaussian;
    use kfds_tree::datasets::normal_embedded;
    use kfds_tree::BallTree;

    #[test]
    fn shared_factor_matches_borrowed_factorize() {
        let n = 512;
        let pts = normal_embedded(n, 3, 6, 0.05, 7);
        let kernel = Gaussian::new(1.0);
        let tree = BallTree::build(&pts, 64);
        let st = skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8),
        );
        let cfg = SolverConfig::default().with_lambda(0.7);
        let ft = factorize(&st, &kernel, cfg).expect("borrowed factorize");
        let mut want = vec![0.4; n];
        ft.solve_in_place(&mut want).expect("borrowed solve");

        let shared =
            SharedFactor::factorize(Arc::new(st), Arc::new(Gaussian::new(1.0)), cfg).expect("sf");
        let clone = shared.clone();
        assert!(clone.handle_count() >= 2);
        let mut got = vec![0.4; n];
        clone.solve_in_place(&mut got).expect("shared solve");
        assert_eq!(got, want, "shared handle must reproduce the borrowed solve bitwise");

        // Handles survive moving to another thread and outliving the original.
        drop(shared);
        let th = std::thread::spawn(move || {
            let mut x = vec![1.0; clone.n()];
            clone.solve_in_place(&mut x).expect("cross-thread solve");
            x[0]
        });
        assert!(th.join().expect("join").is_finite());
    }

    #[test]
    fn refactorize_matches_shared_factorize_bitwise() {
        use crate::config::StorageMode;
        let n = 512;
        let pts = normal_embedded(n, 3, 6, 0.05, 11);
        let kernel = Gaussian::new(0.9);
        let tree = BallTree::build(&pts, 64);
        let st = Arc::new(skeletonize(
            tree,
            &kernel,
            SkelConfig::default().with_tol(1e-5).with_max_rank(48).with_neighbors(8),
        ));
        let kernel = Arc::new(kernel);
        let setup = SharedSetup::build(Arc::clone(&st), Arc::clone(&kernel));
        assert_eq!(setup.n(), n);
        // The refactor contract pins stored V-blocks, so the reference
        // factorization must run under the same storage mode.
        let base = SolverConfig::default().with_storage(StorageMode::StoredGemv);
        let lambdas = [1e-3, 0.3, 5.0];
        let (mut wants, mut refactored) = (Vec::new(), Vec::new());
        for lambda in lambdas {
            let cfg = base.with_lambda(lambda);
            let fresh =
                SharedFactor::factorize(Arc::clone(&st), Arc::clone(&kernel), cfg).expect("fresh");
            let mut want = vec![0.25; n];
            fresh.solve_in_place(&mut want).expect("fresh solve");
            wants.push(want);
            refactored.push(SharedFactor::refactorize(&setup, cfg).expect("refactorize"));
        }
        // An owned factor owns what it reads: it outlives the setup and the
        // caller's handles to the skeleton tree and kernel.
        drop((setup, st, kernel));
        for ((lambda, re), want) in lambdas.iter().zip(&refactored).zip(&wants) {
            let mut got = vec![0.25; n];
            re.solve_in_place(&mut got).expect("refactor solve");
            assert_eq!(&got, want, "refactorize must be bitwise at λ={lambda}");
        }
    }
}
