//! Flop accounting for the summation engines and the dense kernels.
//!
//! The paper reports GFLOP/s for `m x n x d` kernel summations (Table I).
//! We count the same way: a rank-`d` Gram update is `2mnd` flops; the
//! elementwise kernel transform and the reduction add `O(mn)`.

/// Flops of one `m x n x d` kernel summation (Gram + kernel + reduction).
pub fn summation_flops(m: usize, n: usize, d: usize, kernel_flops: f64) -> f64 {
    let mn = (m as f64) * (n as f64);
    2.0 * mn * d as f64 + mn * kernel_flops + 2.0 * mn
}

/// Flops of a dense `m x n x k` GEMM.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flops of an `n x n` LU factorization (`2/3 n^3`).
pub fn lu_flops(n: usize) -> f64 {
    2.0 / 3.0 * (n as f64).powi(3)
}

/// Flops of one LU solve with `nrhs` right-hand sides (`2 n^2` each).
pub fn lu_solve_flops(n: usize, nrhs: usize) -> f64 {
    2.0 * (n as f64).powi(2) * nrhs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts_scale() {
        assert_eq!(gemm_flops(10, 10, 10), 2000.0);
        assert!(summation_flops(100, 100, 8, 5.0) > gemm_flops(100, 100, 8));
        assert_eq!(lu_flops(3), 18.0);
        assert_eq!(lu_solve_flops(4, 2), 64.0);
    }
}
