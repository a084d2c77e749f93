//! Solver configuration and factorization diagnostics.

/// How the `V` kernel blocks (`K_{l̃ r}`, `K_{r̃ l}`) are applied during
/// factorization and solves — the three schemes of Table IV (§II-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// Precompute and store every `K_{l̃ r}` block; solves use GEMV.
    /// Fastest solve, `O(sN log N)` memory.
    StoredGemv,
    /// Re-evaluate blocks on demand with the two-pass GEMM pipeline.
    /// `O(sN)` transient memory, slow (the full block is materialized).
    RecomputeGemm,
    /// Matrix-free fused summation (GSKS): `O(1)` extra storage, within a
    /// small factor of the stored-GEMV solve time.
    Gsks,
}

/// How the `W = P̂` projection factors are kept (paper §III, Memory:
/// "Recomputing W with (10) can reduce another sN log(N/m) to sN").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WStorage {
    /// Store `P̂_{αα̃}` densely at every node — `O(sN)` per level.
    Stored,
    /// Store `P̂` only at the leaves plus the tiny per-node coupling
    /// blocks; internal `P̂` applications telescope through eq. (10) at
    /// solve time. Total `O(sN)` instead of `O(sN log N)`.
    Recompute,
}

/// How leaf diagonal blocks `λI + K_αα` are factorized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafFactorization {
    /// Partial-pivoted LU (`GETRF`) — always applicable.
    Lu,
    /// Cholesky (`POTRF`) — half the flops; valid because `λI + K` is
    /// symmetric positive definite for a PSD kernel, and a failed
    /// factorization certifies numerical indefiniteness (a sharper §III
    /// instability detector than the LU pivot monitor).
    Cholesky,
}

/// Configuration of the direct factorization.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Regularizer `λ` in `λI + K`.
    pub lambda: f64,
    /// Kernel-block application scheme.
    pub storage: StorageMode,
    /// Leaf diagonal-block factorization.
    pub leaf: LeafFactorization,
    /// Projection-factor storage scheme.
    pub w_storage: WStorage,
    /// Pivot-ratio threshold below which a node is flagged unstable
    /// (paper §III: `λ` too small relative to `σ_min` of a diagonal
    /// block makes `λI + D` ill-conditioned).
    pub stability_threshold: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            lambda: 1.0,
            storage: StorageMode::Gsks,
            leaf: LeafFactorization::Lu,
            w_storage: WStorage::Stored,
            stability_threshold: 1e-12,
        }
    }
}

impl SolverConfig {
    /// Builder-style setter for `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style setter for the storage mode.
    pub fn with_storage(mut self, storage: StorageMode) -> Self {
        self.storage = storage;
        self
    }

    /// Builder-style setter for the leaf factorization kind.
    pub fn with_leaf(mut self, leaf: LeafFactorization) -> Self {
        self.leaf = leaf;
        self
    }

    /// Builder-style setter for the projection-storage scheme.
    pub fn with_w_storage(mut self, w: WStorage) -> Self {
        self.w_storage = w;
        self
    }
}

/// One level of the factorization sweep: how many nodes it factored —
/// each a task of the level's `par_iter` — and how long the level took.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Tree level (0 = root).
    pub level: usize,
    /// Nodes factored at this level.
    pub nodes: usize,
    /// Wall-clock seconds spent on the level.
    pub seconds: f64,
}

/// Diagnostics gathered during factorization.
#[derive(Clone, Debug, Default)]
pub struct FactorStats {
    /// Wall-clock seconds of the factorization.
    pub seconds: f64,
    /// Explicitly counted floating-point operations.
    pub flops: f64,
    /// Smallest relative pivot over all leaf and reduced-system LUs —
    /// the §III instability detector.
    pub min_pivot_ratio: f64,
    /// Number of LU factorizations whose pivot ratio fell below the
    /// configured threshold.
    pub unstable_factorizations: usize,
    /// Largest skeleton rank encountered.
    pub max_rank: usize,
    /// Bytes this factorization call allocated and the tree keeps alive:
    /// LUs, `P̂`, `Z`, and the stored `V` blocks of a fresh
    /// [`StorageMode::StoredGemv`] `factorize`, which assembles them
    /// itself. A tree over a caller's assembly does not own its `V` blocks
    /// (their owner reports them, [`AssembleStats::bytes`](crate::AssembleStats)),
    /// so `stored_bytes` of any number of trees plus one assembly is the
    /// memory actually held.
    pub stored_bytes: usize,
    /// Bytes of stored `V` blocks read from an assembly shared with the
    /// caller; 0 for a fresh `factorize` and the matrix-free modes.
    /// `stored_bytes + shared_bytes` is what a solve reads, the same
    /// number however the tree was built.
    pub shared_bytes: usize,
    /// Per-level breakdown, root-last (the sweep runs bottom-up). Empty
    /// levels are omitted; builders that are not level-synchronous (the
    /// `O(N log² N)` baseline) leave this empty.
    pub levels: Vec<LevelStats>,
}

impl FactorStats {
    /// GFLOP/s achieved by the factorization.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// `true` when any diagonal or reduced system hit the instability
    /// threshold — the numerically-detected failure mode of run #30.
    pub fn is_unstable(&self) -> bool {
        self.unstable_factorizations > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_gflops() {
        let c = SolverConfig::default().with_lambda(0.5).with_storage(StorageMode::StoredGemv);
        assert_eq!(c.lambda, 0.5);
        assert_eq!(c.storage, StorageMode::StoredGemv);
        let s = FactorStats { seconds: 2.0, flops: 4e9, ..Default::default() };
        assert!((s.gflops() - 2.0).abs() < 1e-12);
        assert!(!s.is_unstable());
    }
}
