//! Solver configuration and factorization diagnostics.

/// How the `V` kernel blocks (`K_{l̃ r}`, `K_{r̃ l}`) are applied during
/// factorization and solves — the stored and the fused scheme of Table IV
/// (§II-D). Table IV's third scheme, re-evaluating each block with the
/// two-pass GEMM pipeline, is not offered: it lost to or tied with the
/// fused pass on every measured shape. [`kfds_kernels::sum_reference_multi`]
/// keeps it as a reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// Precompute and store every `K_{l̃ r}` block; solves use GEMV.
    /// Fastest solve, `O(sN log N)` memory.
    StoredGemv,
    /// Matrix-free fused summation (GSKS): `O(1)` extra storage, within a
    /// small factor of the stored-GEMV solve time.
    Gsks,
}

/// Configuration of the direct factorization.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Regularizer `λ` in `λI + K`.
    pub lambda: f64,
    /// Kernel-block application scheme.
    pub storage: StorageMode,
}

/// Pivot-ratio threshold below which an LU is counted in
/// [`FactorStats::unstable_factorizations`] (paper §III: `λ` too small
/// relative to `σ_min` of a diagonal block makes `λI + D` ill-conditioned).
pub(crate) const STABILITY_THRESHOLD: f64 = 1e-12;

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { lambda: 1.0, storage: StorageMode::Gsks }
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
    /// Explicitly counted floating-point operations. An internal node
    /// counts forming its coupling blocks `B_l`, `B_r`; then, with
    /// `k = min(s_l, s_r)` and `o = max(s_l, s_r)`, `gemm(k, k, o) + lu(k)`
    /// for the smaller child's Schur complement `S` and its LU; then the
    /// in-place `Z⁻¹Pᵀ` of the telescoping (two GEMMs and a `k` LU solve
    /// over `s` columns) and the two `P̂` GEMMs.
    pub flops: f64,
    /// Smallest relative pivot over all leaf LUs and the LUs of the
    /// reduced systems' Schur complements `S` — the §III instability
    /// detector. A leaf LU's pivots are read against its own largest
    /// entry; `LU(S)`'s against `Z`'s, `max(1, |B_l|, |B_r|)`, and capped
    /// at the identity blocks' unit pivots — the ratio a packed LU of `Z`
    /// reads when no row swap crosses its blocks — so that `S ≈ 0` next to
    /// `Z`'s unit scale is flagged however small `S` is. A node with a
    /// rank-0 child has a `0 x 0` `S`, which takes no pivot and reads
    /// `1.0`. A block holding a NaN or an infinity fails the factorization
    /// (`LaError::NonFinite`) rather than reading here as perfectly
    /// conditioned, so the `1.0` this field falls back to only ever stands
    /// for a factorization that took no pivot at all.
    pub min_pivot_ratio: f64,
    /// Number of LU factorizations (leaf blocks and Schur complements)
    /// whose pivot ratio fell below the stability threshold, `1e-12`.
    pub unstable_factorizations: usize,
    /// Largest skeleton rank encountered.
    pub max_rank: usize,
    /// Bytes this factorization call allocated and the tree keeps alive,
    /// read off the factor layout: every leaf LU (`dim²` words), every
    /// reduced system (`B_l`, `B_r` and the LU of `S`:
    /// `2 s_l s_r + min(s_l, s_r)²` words) and every `P̂`, plus the stored `V` blocks of a
    /// fresh [`StorageMode::StoredGemv`] `factorize`, which assembles them
    /// itself. Scratch a builder drops (the baseline's full projections)
    /// is not counted, so the same factors report the same bytes whichever
    /// builder made them. A tree over a caller's assembly does not own its
    /// `V` blocks (their owner reports them,
    /// [`AssembleStats::bytes`](crate::AssembleStats)),
    /// so `stored_bytes` of any number of trees plus one assembly is the
    /// memory actually held.
    pub stored_bytes: usize,
    /// Bytes of stored `V` blocks read from an assembly shared with the
    /// caller; 0 for a fresh `factorize` and the matrix-free mode.
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
