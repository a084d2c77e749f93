//! Property-based tests for the kernel functions and summation engines.

use kfds_kernels::{
    eval_block, kernel_block_gemm, sum_fused, sum_fused_multi, sum_reference, Gaussian, Kernel,
    Laplacian, Matern32,
};
use kfds_la::workspace;
use kfds_tree::PointSet;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the global workspace-pool switch.
static POOL_TOGGLE: Mutex<()> = Mutex::new(());

/// NaN-poisons a spread of pool size classes so stale-data reads surface.
fn poison_pool() {
    for log2 in [5usize, 8, 10, 12, 14] {
        let mut w = workspace::take(1 << log2);
        w.fill(f64::NAN);
    }
}

fn det_points(n: usize, d: usize, seed: u64) -> PointSet {
    let data: Vec<f64> = (0..n * d)
        .map(|i| {
            (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f64) / 250.0 - 2.0
        })
        .collect();
    PointSet::from_col_major(d, data)
}

/// GSKS summation with the pool off, then on (poisoned), must be bitwise
/// identical — the packed-pad zeroing has to mask every stale element.
fn assert_gsks_pool_invariant(n: usize, d: usize, split: usize, nrhs: usize, seed: u64) {
    let pts = det_points(n, d, seed);
    let k = Gaussian::new(1.1);
    let rows: Vec<usize> = (0..split).collect();
    let cols: Vec<usize> = (split..n).collect();
    let u: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.37 + seed as f64).sin()).collect();
    let umat = kfds_la::Mat::from_fn(cols.len(), nrhs, |i, j| ((i * 3 + j) as f64 * 0.29).cos());

    let _guard = POOL_TOGGLE.lock().unwrap();
    workspace::set_pool_enabled(false);
    let mut w_ref = vec![0.0; rows.len()];
    sum_fused(&k, &pts, &rows, &cols, &u, &mut w_ref);
    let mut wm_ref = kfds_la::Mat::zeros(rows.len(), nrhs);
    sum_fused_multi(&k, &pts, &rows, &cols, umat.rb(), wm_ref.rb_mut());

    workspace::set_pool_enabled(true);
    poison_pool();
    let mut w_pool = vec![0.0; rows.len()];
    sum_fused(&k, &pts, &rows, &cols, &u, &mut w_pool);
    let mut wm_pool = kfds_la::Mat::zeros(rows.len(), nrhs);
    sum_fused_multi(&k, &pts, &rows, &cols, umat.rb(), wm_pool.rb_mut());

    for (i, (a, b)) in w_ref.iter().zip(&w_pool).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "single-RHS row {i}: pooled {b} vs unpooled {a}");
    }
    for j in 0..nrhs {
        for i in 0..rows.len() {
            assert_eq!(
                wm_ref[(i, j)].to_bits(),
                wm_pool[(i, j)].to_bits(),
                "multi-RHS ({i},{j}): pooled {} vs unpooled {}",
                wm_pool[(i, j)],
                wm_ref[(i, j)]
            );
        }
    }
}

#[test]
fn pooled_gsks_bitwise_identical_fixed_shapes() {
    // Shapes straddling the GSKS MR/NR = 4 tile edges, including a
    // single-target row and a single-source column.
    for &(n, d, split, nrhs) in
        &[(9usize, 3usize, 1usize, 1usize), (10, 2, 9, 2), (33, 5, 13, 3), (64, 4, 32, 1)]
    {
        assert_gsks_pool_invariant(n, d, split, nrhs, 0xfeed + n as u64);
    }
}

#[test]
fn pooled_gsks_successive_shapes_do_not_alias() {
    // Back-to-back different shapes reuse pooled pads; the zeroed padding
    // tails must isolate each call (checked against the reference engine).
    let _guard = POOL_TOGGLE.lock().unwrap();
    workspace::set_pool_enabled(true);
    poison_pool();
    for &(n, d, split) in &[(40usize, 6usize, 7usize), (12, 2, 5), (29, 8, 20)] {
        let pts = det_points(n, d, 77);
        let k = Laplacian::new(0.8);
        let rows: Vec<usize> = (0..split).collect();
        let cols: Vec<usize> = (split..n).collect();
        let u: Vec<f64> = (0..cols.len()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut w_fused = vec![0.0; rows.len()];
        let mut w_ref = vec![0.0; rows.len()];
        sum_fused(&k, &pts, &rows, &cols, &u, &mut w_fused);
        sum_reference(&k, &pts, &rows, &cols, &u, &mut w_ref);
        for (i, (a, b)) in w_ref.iter().zip(&w_fused).enumerate() {
            assert!(
                (a - b).abs() < 1e-10 * (1.0 + a.abs()),
                "shape ({n},{d},{split}) row {i}: {b} vs {a}"
            );
        }
    }
}

/// RAII guard mirroring the one in `kfds-la`'s props: scalar mode while
/// held, prior mode restored on drop. Use only under [`POOL_TOGGLE`].
struct SimdOff {
    was_active: bool,
}

impl SimdOff {
    fn new() -> Self {
        let was_active = kfds_la::simd::active();
        kfds_la::simd::set_simd_enabled(false);
        SimdOff { was_active }
    }
}

impl Drop for SimdOff {
    fn drop(&mut self) {
        kfds_la::simd::set_simd_enabled(self.was_active);
    }
}

/// Fused summation with the SIMD tile kernel vs the scalar fallback path
/// (which also takes the point-major packing layout) within the relative
/// tolerance of `d`-term reassociation plus the vectorized exponential.
fn assert_gsks_simd_vs_scalar(n: usize, d: usize, split: usize, nrhs: usize, seed: u64) {
    fn check<K: Kernel>(k: &K, n: usize, d: usize, split: usize, nrhs: usize, seed: u64) {
        let pts = det_points(n, d, seed);
        let rows: Vec<usize> = (0..split).collect();
        let cols: Vec<usize> = (split..n).collect();
        let u: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.53 + 0.1).sin()).collect();
        let umat =
            kfds_la::Mat::from_fn(cols.len(), nrhs, |i, j| ((i * 5 + j) as f64 * 0.41).cos());
        let mut w_simd = vec![0.0; rows.len()];
        sum_fused(k, &pts, &rows, &cols, &u, &mut w_simd);
        let mut wm_simd = kfds_la::Mat::zeros(rows.len(), nrhs);
        sum_fused_multi(k, &pts, &rows, &cols, umat.rb(), wm_simd.rb_mut());
        let (w_scalar, wm_scalar) = {
            let _off = SimdOff::new();
            let mut w = vec![0.0; rows.len()];
            sum_fused(k, &pts, &rows, &cols, &u, &mut w);
            let mut wm = kfds_la::Mat::zeros(rows.len(), nrhs);
            sum_fused_multi(k, &pts, &rows, &cols, umat.rb(), wm.rb_mut());
            (w, wm)
        };
        let tol = 1e-12 * (d + cols.len()) as f64;
        for i in 0..rows.len() {
            assert!(
                (w_simd[i] - w_scalar[i]).abs() <= tol * (1.0 + w_scalar[i].abs()),
                "{} ({n},{d},{split}) row {i}: simd {} vs scalar {}",
                k.name(),
                w_simd[i],
                w_scalar[i]
            );
        }
        for j in 0..nrhs {
            for i in 0..rows.len() {
                assert!(
                    (wm_simd[(i, j)] - wm_scalar[(i, j)]).abs()
                        <= tol * (1.0 + wm_scalar[(i, j)].abs()),
                    "{} multi ({i},{j})",
                    k.name()
                );
            }
        }
    }
    check(&Gaussian::new(0.9), n, d, split, nrhs, seed);
    check(&Laplacian::new(1.2), n, d, split, nrhs, seed);
    check(&Matern32::new(0.7), n, d, split, nrhs, seed);
}

#[test]
fn simd_gsks_matches_scalar_edge_tiles() {
    let _guard = POOL_TOGGLE.lock().unwrap();
    // Shapes straddling the 8x4 GSKS tile: partial row tiles (rows < MR),
    // partial column tiles (cols % NR != 0), d from 1 to past a 4-wide
    // register, and nrhs around the contraction kernel's 4-wide RHS step
    // (exact multiple, scalar tail, and below one vector).
    for &(n, d, split, nrhs) in &[
        (3usize, 1usize, 1usize, 1usize),
        (9, 2, 5, 2),
        (12, 3, 8, 1),
        (20, 4, 8, 3),
        (37, 5, 16, 2),
        (40, 4, 24, 4),
        (44, 6, 32, 7),
        (30, 3, 16, 12),
        (48, 8, 24, 1),
        (50, 11, 17, 2),
    ] {
        assert_gsks_simd_vs_scalar(n, d, split, nrhs, 0xbeef + n as u64);
    }
}

/// `sum_fused_multi` on one weight column takes `sum_fused`'s epilogue:
/// the two must agree bit for bit (also through a strided `W` view),
/// with the vector and with the scalar tile kernels, on shapes that leave
/// partial row tiles, partial column tiles, and no columns at all.
#[test]
fn one_column_multi_is_sum_fused_bitwise() {
    fn check(n: usize, d: usize, split: usize, seed: u64) {
        let pts = det_points(n, d, seed);
        let k = Gaussian::new(0.8);
        let rows: Vec<usize> = (0..split).collect();
        let cols: Vec<usize> = (split..n).collect();
        let u: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.61 + 0.2).cos()).collect();
        let mut want = vec![f64::NAN; rows.len()];
        sum_fused(&k, &pts, &rows, &cols, &u, &mut want);
        // W is column 1 of a taller, wider matrix: col_stride > nrows.
        let mut big = kfds_la::Mat::from_fn(rows.len() + 3, 3, |_, _| f64::NAN);
        let umat = kfds_la::MatRef::from_col(&u);
        let w = big.rb_mut().submatrix_mut(2..2 + rows.len(), 1..2);
        sum_fused_multi(&k, &pts, &rows, &cols, umat, w);
        for (i, a) in want.iter().enumerate() {
            let b = big[(2 + i, 1)];
            assert_eq!(a.to_bits(), b.to_bits(), "({n},{d},{split}) row {i}: {b} vs {a}");
        }
    }
    let _guard = POOL_TOGGLE.lock().unwrap();
    // (n, d, split): m = split rows, n - split columns.
    let shapes =
        [(2usize, 1usize, 1usize), (12, 3, 7), (29, 5, 13), (45, 4, 8), (70, 9, 33), (11, 2, 11)];
    for &(n, d, split) in &shapes {
        check(n, d, split, 0xc01 + n as u64);
        let _off = SimdOff::new();
        check(n, d, split, 0xc01 + n as u64);
    }
}

#[test]
fn gsks_coincident_points_no_nan() {
    // Duplicated points make ||x-y||^2 cancel to (possibly slightly
    // negative) zero; the clamp plus the SIMD exp must keep every kernel
    // value finite and the all-coincident sums exactly sum(u) * K(x,x).
    let _guard = POOL_TOGGLE.lock().unwrap();
    let d = 3;
    let n = 13;
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        // Three distinct locations, each repeated several times.
        let base = (i % 3) as f64 * 0.77 - 0.5;
        data.extend_from_slice(&[base, base * 1.3 + 0.1, -base]);
    }
    let pts = PointSet::from_col_major(d, data);
    let rows: Vec<usize> = (0..6).collect();
    let cols: Vec<usize> = (6..n).collect();
    let u: Vec<f64> = (0..cols.len()).map(|i| 0.3 + i as f64 * 0.2).collect();
    fn check<K: Kernel>(k: &K, pts: &PointSet, rows: &[usize], cols: &[usize], u: &[f64]) {
        let mut w = vec![f64::NAN; rows.len()];
        sum_fused(k, pts, rows, cols, u, &mut w);
        let mut w_ref = vec![f64::NAN; rows.len()];
        sum_reference(k, pts, rows, cols, u, &mut w_ref);
        for (i, (a, b)) in w_ref.iter().zip(&w).enumerate() {
            assert!(b.is_finite(), "{} row {i} not finite: {b}", k.name());
            assert!(
                (a - b).abs() < 1e-10 * (1.0 + a.abs()),
                "{} row {i}: fused {b} vs reference {a}",
                k.name()
            );
        }
    }
    check(&Gaussian::new(0.8), &pts, &rows, &cols, &u);
    check(&Laplacian::new(1.1), &pts, &rows, &cols, &u);
    check(&Matern32::new(0.9), &pts, &rows, &cols, &u);
    // Fully degenerate set: every point identical. K = 1 everywhere, so
    // each output row is exactly the weight sum (up to summation order).
    let one = vec![0.25; 4 * d];
    let pts1 = PointSet::from_col_major(d, one);
    fn check_degenerate<K: Kernel>(k: &K, pts1: &PointSet) {
        let mut w = vec![f64::NAN; 2];
        sum_fused(k, pts1, &[0, 1], &[2, 3], &[2.0, -0.5], &mut w);
        for (i, v) in w.iter().enumerate() {
            assert!((v - 1.5).abs() < 1e-12, "{} degenerate row {i}: {v}", k.name());
        }
    }
    check_degenerate(&Gaussian::new(0.8), &pts1);
    check_degenerate(&Laplacian::new(1.1), &pts1);
    check_degenerate(&Matern32::new(0.9), &pts1);
}

fn points_strategy(max_n: usize, max_d: usize) -> impl Strategy<Value = PointSet> {
    (2..=max_n, 1..=max_d).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-3.0f64..3.0, n * d)
            .prop_map(move |data| PointSet::from_col_major(d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_bounded_and_symmetric(pts in points_strategy(12, 5), h in 0.2f64..4.0) {
        let kernels: [&dyn Kernel; 3] =
            [&Gaussian::new(h), &Laplacian::new(h), &Matern32::new(h)];
        for k in kernels {
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    let v = k.eval(pts.point(i), pts.point(j));
                    prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "{} out of range", k.name());
                    let w = k.eval(pts.point(j), pts.point(i));
                    prop_assert!((v - w).abs() < 1e-12, "{} asymmetric", k.name());
                }
                prop_assert!((k.eval(pts.point(i), pts.point(i)) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gaussian_monotone_in_distance(h in 0.3f64..3.0, a in 0.0f64..2.0, b in 0.0f64..2.0) {
        let k = Gaussian::new(h);
        let (near, far) = if a <= b { (a, b) } else { (b, a) };
        let v_near = k.eval(&[0.0], &[near]);
        let v_far = k.eval(&[0.0], &[far]);
        prop_assert!(v_near >= v_far - 1e-15);
    }

    #[test]
    fn engines_agree(pts in points_strategy(24, 6), h in 0.3f64..3.0) {
        let n = pts.len();
        let split = n / 2;
        prop_assume!(split >= 1 && n - split >= 1);
        let rows: Vec<usize> = (0..split).collect();
        let cols: Vec<usize> = (split..n).collect();
        let u: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.7).sin()).collect();
        let k = Gaussian::new(h);
        let mut w1 = vec![0.0; rows.len()];
        let mut w2 = vec![0.0; rows.len()];
        sum_reference(&k, &pts, &rows, &cols, &u, &mut w1);
        sum_fused(&k, &pts, &rows, &cols, &u, &mut w2);
        for (a, b) in w1.iter().zip(&w2) {
            prop_assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()));
        }
        // The GEMM-built block matches direct evaluation too.
        let blk1 = kernel_block_gemm(&k, &pts, &rows, &cols);
        let blk2 = eval_block(&k, &pts, &rows, &cols);
        for j in 0..cols.len() {
            for i in 0..rows.len() {
                prop_assert!((blk1[(i, j)] - blk2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pooled_gsks_bitwise_identical_random(n in 4usize..40, d in 1usize..6, nrhs in 1usize..4, seed in 0u64..500) {
        let split = (n / 2).max(1);
        assert_gsks_pool_invariant(n, d, split, nrhs, seed);
    }

    #[test]
    fn simd_gsks_matches_scalar_random(n in 4usize..40, d in 1usize..8, nrhs in 1usize..10, seed in 0u64..500) {
        let _guard = POOL_TOGGLE.lock().unwrap();
        let split = (n / 2).max(1);
        assert_gsks_simd_vs_scalar(n, d, split, nrhs, seed);
    }

    #[test]
    fn summation_linear_in_weights(pts in points_strategy(16, 4), alpha in -3.0f64..3.0) {
        let n = pts.len();
        let split = n / 2;
        prop_assume!(split >= 1 && n - split >= 1);
        let rows: Vec<usize> = (0..split).collect();
        let cols: Vec<usize> = (split..n).collect();
        let k = Laplacian::new(1.0);
        let u: Vec<f64> = (0..cols.len()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let ua: Vec<f64> = u.iter().map(|v| alpha * v).collect();
        let mut w = vec![0.0; rows.len()];
        let mut wa = vec![0.0; rows.len()];
        sum_fused(&k, &pts, &rows, &cols, &u, &mut w);
        sum_fused(&k, &pts, &rows, &cols, &ua, &mut wa);
        for (a, b) in wa.iter().zip(&w) {
            prop_assert!((a - alpha * b).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }
}
