//! Property-based tests for the dense linear algebra kernels.

// Far too slow under the Miri interpreter (hundreds of proptest cases per
// property); the Miri lane runs the deterministic suite in `miri.rs`.
#![cfg(not(miri))]

use kfds_la::gemm::gemm_packed;
use kfds_la::{gemm, interp_decomp, tri, workspace, Cholesky, ColPivQr, Lu, Mat, Trans};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the global workspace-pool switch so they
/// cannot observe each other's toggles.
static POOL_TOGGLE: Mutex<()> = Mutex::new(());

/// Fills the thread-local pool with NaN-poisoned buffers of assorted
/// classes: any hot path that reads stale pooled data instead of fully
/// overwriting it will surface as a NaN mismatch.
fn poison_pool() {
    for log2 in [5usize, 8, 10, 12, 14, 16] {
        let mut w = workspace::take(1 << log2);
        w.fill(f64::NAN);
    }
}

/// RAII guard: forces the SIMD kill-switch off for a scalar reference run
/// and restores the prior state on drop (including on panic). Must be used
/// while holding [`POOL_TOGGLE`]: the pool-bitwise tests assume the SIMD
/// mode does not flip between their paired runs.
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

/// Runs `gemm` with the SIMD microkernels and with the scalar fallback and
/// asserts agreement within the reassociation/FMA tolerance documented in
/// `kfds_la::simd` (`O(k · eps)` relative to the accumulated magnitude).
fn assert_gemm_simd_vs_scalar(m: usize, k: usize, n: usize, ta: Trans, tb: Trans, seed: u64) {
    let (ar, ac) = if matches!(ta, Trans::Yes) { (k, m) } else { (m, k) };
    let (br, bc) = if matches!(tb, Trans::Yes) { (n, k) } else { (k, n) };
    let a = Mat::from_fn(ar, ac, |i, j| (((i * 7 + j * 3) as u64 + seed) as f64 * 0.19).sin());
    let b = Mat::from_fn(br, bc, |i, j| (((i * 5 + j * 11) as u64 + seed) as f64 * 0.23).cos());
    let mut c_scalar = Mat::from_fn(m, n, |i, j| ((i + 2 * j) as f64 * 0.31).sin());
    let mut c_simd = c_scalar.clone();
    {
        let _off = SimdOff::new();
        gemm(1.25, a.rb(), ta, b.rb(), tb, 0.5, c_scalar.rb_mut());
    }
    gemm(1.25, a.rb(), ta, b.rb(), tb, 0.5, c_simd.rb_mut());
    let tol = 1e-13 * (k as f64 + 2.0);
    for j in 0..n {
        for i in 0..m {
            let (s, v) = (c_scalar[(i, j)], c_simd[(i, j)]);
            assert!(
                (s - v).abs() <= tol * (1.0 + s.abs()),
                "({m},{k},{n}) {ta:?}/{tb:?} at ({i},{j}): simd {v} vs scalar {s}"
            );
        }
    }
}

/// `alpha*op(A)op(B) + beta*C` twice — pool off then pool on (with a
/// poisoned pool) — asserting bitwise-identical results.
fn assert_gemm_pool_invariant(a: &Mat, ta: Trans, b: &Mat, tb: Trans, m: usize, n: usize) {
    let _guard = POOL_TOGGLE.lock().unwrap();
    workspace::set_pool_enabled(false);
    let mut c_ref = Mat::zeros(m, n);
    gemm(1.5, a.rb(), ta, b.rb(), tb, 0.0, c_ref.rb_mut());
    workspace::set_pool_enabled(true);
    poison_pool();
    let mut c_pool = Mat::zeros(m, n);
    gemm(1.5, a.rb(), ta, b.rb(), tb, 0.0, c_pool.rb_mut());
    for j in 0..n {
        for i in 0..m {
            assert_eq!(
                c_ref[(i, j)].to_bits(),
                c_pool[(i, j)].to_bits(),
                "({i},{j}): pooled {} vs unpooled {}",
                c_pool[(i, j)],
                c_ref[(i, j)]
            );
        }
    }
}

#[test]
fn pooled_gemm_bitwise_identical_degenerate_shapes() {
    // m = 0, n = 1, k = 1 and friends: the pool must be a pure pass-through
    // even when requests round up to the minimum size class.
    for &(m, k, n) in &[(0usize, 4usize, 3usize), (1, 1, 1), (5, 1, 7), (1, 9, 1), (3, 2, 0)] {
        let a = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) as f64 * 0.21).sin());
        let b = Mat::from_fn(k, n, |i, j| ((i * 5 + j * 11) as f64 * 0.13).cos());
        assert_gemm_pool_invariant(&a, Trans::No, &b, Trans::No, m, n);
    }
}

#[test]
fn pooled_gemm_bitwise_identical_tall_skinny() {
    // The row-split parallel path with pooled packing panels must agree
    // bitwise with the unpooled run.
    let (m, k, n) = (4096usize, 16usize, 8usize);
    let a = Mat::from_fn(m, k, |i, j| ((i * 13 + j) as f64 * 0.003).sin());
    let b = Mat::from_fn(k, n, |i, j| ((i + j * 17) as f64 * 0.07).cos());
    assert_gemm_pool_invariant(&a, Trans::No, &b, Trans::No, m, n);
}

#[test]
fn successive_pooled_shapes_do_not_alias() {
    // Different shapes back-to-back reuse the same size classes; each call
    // must behave as if its buffers were fresh.
    let _guard = POOL_TOGGLE.lock().unwrap();
    workspace::set_pool_enabled(true);
    poison_pool();
    let shapes = [(30usize, 7usize, 12usize), (4, 40, 2), (128, 3, 64), (7, 7, 7)];
    for &(m, k, n) in &shapes {
        let a = Mat::from_fn(m, k, |i, j| 1.0 + ((i + 2 * j) as f64 * 0.11).sin());
        let b = Mat::from_fn(k, n, |i, j| 1.0 + ((3 * i + j) as f64 * 0.05).cos());
        let c = kfds_la::matmul(&a, &b);
        for j in 0..n {
            for i in 0..m {
                let want: f64 = (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum();
                assert!(
                    (c[(i, j)] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                    "shape ({m},{k},{n}) at ({i},{j}): {} vs {want}",
                    c[(i, j)]
                );
            }
        }
    }
}

#[test]
fn simd_gemm_matches_scalar_edge_tiles() {
    // Shapes straddling the 8x6 register tile: partial rows (m < MR),
    // partial columns (n < NR), and the degenerate k in {0, 1} panels.
    let _guard = POOL_TOGGLE.lock().unwrap();
    let shapes = [
        (1usize, 1usize, 1usize),
        (7, 0, 5),
        (8, 1, 6),
        (5, 3, 2),
        (8, 6, 6),
        (9, 7, 13),
        (16, 5, 12),
        (23, 37, 11),
        (64, 16, 48),
    ];
    for &(m, k, n) in &shapes {
        for ta in [Trans::No, Trans::Yes] {
            for tb in [Trans::No, Trans::Yes] {
                assert_gemm_simd_vs_scalar(m, k, n, ta, tb, 0xabc + m as u64);
            }
        }
    }
}

#[test]
fn simd_gemm_matches_scalar_on_submatrix_views() {
    // Strided views (col_stride > nrows) through the microkernel's ldc
    // handling, writing into an interior window of a larger C.
    let _guard = POOL_TOGGLE.lock().unwrap();
    let big_a = Mat::from_fn(40, 30, |i, j| ((i * 3 + j * 7) as f64 * 0.11).sin());
    let big_b = Mat::from_fn(30, 25, |i, j| ((i * 5 + j) as f64 * 0.17).cos());
    let (m, k, n) = (21, 19, 13);
    let a = big_a.submatrix(4..4 + m, 6..6 + k);
    let b = big_b.submatrix(2..2 + k, 9..9 + n);
    let mut c_scalar = Mat::from_fn(33, 29, |i, j| ((i + j) as f64 * 0.05).sin());
    let mut c_simd = c_scalar.clone();
    {
        let _off = SimdOff::new();
        gemm(
            2.0,
            a,
            Trans::No,
            b,
            Trans::No,
            1.0,
            c_scalar.rb_mut().submatrix_mut(5..5 + m, 3..3 + n),
        );
    }
    gemm(2.0, a, Trans::No, b, Trans::No, 1.0, c_simd.rb_mut().submatrix_mut(5..5 + m, 3..3 + n));
    let tol = 1e-13 * (k as f64 + 2.0);
    for j in 0..29 {
        for i in 0..33 {
            let (s, v) = (c_scalar[(i, j)], c_simd[(i, j)]);
            let inside = (5..5 + m).contains(&i) && (3..3 + n).contains(&j);
            if inside {
                assert!((s - v).abs() <= tol * (1.0 + s.abs()), "({i},{j}): {v} vs {s}");
            } else {
                // Outside the target window both runs must leave C untouched.
                assert_eq!(s.to_bits(), v.to_bits(), "({i},{j}) clobbered outside the view");
            }
        }
    }
}

#[test]
fn simd_blas_matches_scalar() {
    let _guard = POOL_TOGGLE.lock().unwrap();
    for &n in &[1usize, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 100, 1023] {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let tol = 1e-13 * (n as f64 + 2.0);

        let d_simd = kfds_la::blas1::dot(&x, &y);
        let mut ax_simd = y.clone();
        kfds_la::blas1::axpy(0.75, &x, &mut ax_simd);
        let (d_scalar, ax_scalar) = {
            let _off = SimdOff::new();
            let d = kfds_la::blas1::dot(&x, &y);
            let mut ax = y.clone();
            kfds_la::blas1::axpy(0.75, &x, &mut ax);
            (d, ax)
        };
        assert!((d_simd - d_scalar).abs() <= tol * (1.0 + d_scalar.abs()), "dot n={n}");
        for i in 0..n {
            assert!(
                (ax_simd[i] - ax_scalar[i]).abs() <= tol * (1.0 + ax_scalar[i].abs()),
                "axpy n={n} i={i}"
            );
        }
    }
    for &(m, n) in &[
        (1usize, 1usize),
        (3, 5),
        (4, 4),
        (5, 3),
        (8, 4),
        (9, 5),
        (17, 9),
        (33, 7),
        (64, 33),
        (128, 1),
    ] {
        let a = Mat::from_fn(m, n, |i, j| ((i * 3 + j * 5) as f64 * 0.21).sin());
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).cos()).collect();
        let xt: Vec<f64> = (0..m).map(|i| (i as f64 * 0.29).sin()).collect();
        let tol = 1e-13 * (m.max(n) as f64 + 2.0);

        let mut y_simd = vec![0.5; m];
        kfds_la::blas2::gemv(1.5, a.rb(), &x, 0.25, &mut y_simd);
        let mut yt_simd = vec![0.5; n];
        kfds_la::blas2::gemv_t(1.5, a.rb(), &xt, 0.25, &mut yt_simd);
        let (y_scalar, yt_scalar) = {
            let _off = SimdOff::new();
            let mut y = vec![0.5; m];
            kfds_la::blas2::gemv(1.5, a.rb(), &x, 0.25, &mut y);
            let mut yt = vec![0.5; n];
            kfds_la::blas2::gemv_t(1.5, a.rb(), &xt, 0.25, &mut yt);
            (y, yt)
        };
        for i in 0..m {
            assert!(
                (y_simd[i] - y_scalar[i]).abs() <= tol * (1.0 + y_scalar[i].abs()),
                "gemv ({m},{n}) row {i}"
            );
        }
        for j in 0..n {
            assert!(
                (yt_simd[j] - yt_scalar[j]).abs() <= tol * (1.0 + yt_scalar[j].abs()),
                "gemv_t ({m},{n}) row {j}"
            );
        }

        // beta == 0 takes the dedicated multi-column transposed kernels
        // (dgemv_t_avx512 / dgemv_t_avx2); exercise that path too.
        let mut yt0_simd = vec![f64::NAN; n];
        kfds_la::blas2::gemv_t(1.5, a.rb(), &xt, 0.0, &mut yt0_simd);
        let yt0_scalar = {
            let _off = SimdOff::new();
            let mut yt = vec![f64::NAN; n];
            kfds_la::blas2::gemv_t(1.5, a.rb(), &xt, 0.0, &mut yt);
            yt
        };
        for j in 0..n {
            assert!(
                (yt0_simd[j] - yt0_scalar[j]).abs() <= tol * (1.0 + yt0_scalar[j].abs()),
                "gemv_t beta=0 ({m},{n}) row {j}"
            );
        }
    }
}

/// A well-conditioned `n x n` test triangle: `lower` picks which triangle
/// holds the data; the opposite one is NaN, so any read of it shows.
fn triangle(n: usize, lower: bool, seed: usize) -> Mat {
    let off = 0.5 / (n as f64).sqrt();
    Mat::from_fn(n, n, |i, j| {
        if i == j {
            1.5 + ((i + seed) % 7) as f64 * 0.25
        } else if (i > j) == lower {
            off * (((i * 31 + j * 17 + seed) % 101) as f64 * 0.37).sin()
        } else {
            f64::NAN
        }
    })
}

/// `max |got - want| / max |want|` over two equally shaped matrices.
fn max_rel_diff(got: &Mat, want: &Mat) -> f64 {
    let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff =
        got.as_slice().iter().zip(want.as_slice()).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    diff / scale.max(f64::MIN_POSITIVE)
}

#[test]
fn trsm_matches_column_loop_on_strided_views() {
    // The four recursive TRSMs against one TRSV per column, across the
    // leaf boundary (32) and odd splits, with both operands interior
    // windows of larger matrices (col_stride > nrows).
    type Trsv = fn(kfds_la::MatRef<'_>, &mut [f64]);
    type Trsm = fn(kfds_la::MatRef<'_>, kfds_la::MatMut<'_>);
    let variants: [(&str, bool, Trsv, Trsm); 4] = [
        (
            "lower unit",
            true,
            |a, b| tri::solve_lower_inplace(a, true, b),
            |a, b| tri::solve_lower_mat_inplace(a, true, b),
        ),
        (
            "lower",
            true,
            |a, b| tri::solve_lower_inplace(a, false, b),
            |a, b| tri::solve_lower_mat_inplace(a, false, b),
        ),
        ("upper", false, tri::solve_upper_inplace, tri::solve_upper_mat_inplace),
        (
            "lower transposed",
            true,
            tri::solve_lower_transpose_inplace,
            tri::solve_lower_transpose_mat_inplace,
        ),
    ];
    for n in [1usize, 31, 32, 33, 97, 200] {
        for nrhs in [1usize, 3, 4, 16, 17, 64] {
            for (name, lower, trsv, trsm) in variants {
                let mut big_a = Mat::from_fn(n + 5, n + 4, |_, _| f64::NAN);
                let t = triangle(n, lower, n + nrhs);
                for j in 0..n {
                    big_a.col_mut(j + 2)[3..3 + n].copy_from_slice(t.col(j));
                }
                let a = big_a.submatrix(3..3 + n, 2..2 + n);
                let b0 = Mat::from_fn(n, nrhs, |i, j| ((i * 13 + j * 29) as f64 * 0.071).cos());
                let mut want = b0.clone();
                for j in 0..nrhs {
                    trsv(a, want.col_mut(j));
                }
                let mut big_b = Mat::from_fn(n + 7, nrhs + 2, |i, j| (i + j) as f64);
                let untouched = big_b.clone();
                for j in 0..nrhs {
                    big_b.col_mut(j + 1)[4..4 + n].copy_from_slice(b0.col(j));
                }
                trsm(a, big_b.rb_mut().submatrix_mut(4..4 + n, 1..1 + nrhs));
                let got = big_b.submatrix(4..4 + n, 1..1 + nrhs).to_mat();
                let err = max_rel_diff(&got, &want);
                assert!(err <= 1e-12, "{name} n={n} nrhs={nrhs}: rel err {err:.3e}");
                for j in 0..nrhs + 2 {
                    for i in 0..n + 7 {
                        if !((4..4 + n).contains(&i) && (1..1 + nrhs).contains(&j)) {
                            assert_eq!(big_b[(i, j)], untouched[(i, j)], "{name}: wrote outside B");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn factor_solve_mat_columns_match_single_solves() {
    // Column j of the blocked LU / Cholesky solve against the one-vector
    // solve: the same bits while the triangle is a TRSM leaf, 1e-12 above.
    for n in [20usize, 40, 130, 200] {
        let g = Mat::from_fn(n, n, |i, j| (((i * 7 + j * 13) % 53) as f64 * 0.41).sin());
        let mut a = g.clone();
        let mut spd = kfds_la::matmul_op(&g, Trans::Yes, &g, Trans::No);
        for i in 0..n {
            a[(i, i)] += n as f64 * 0.5;
            spd[(i, i)] += n as f64;
        }
        let lu = Lu::factor(a).expect("lu");
        let ch = Cholesky::factor(spd).expect("cholesky");
        let b = Mat::from_fn(n, 5, |i, j| ((i * 3 + j * 11) as f64 * 0.13).cos());
        let (mut x_lu, mut x_ch) = (b.clone(), b.clone());
        lu.solve_mat_inplace(&mut x_lu);
        ch.solve_mat_inplace(&mut x_ch);
        let (mut w_lu, mut w_ch) = (b.clone(), b.clone());
        for j in 0..5 {
            lu.solve_inplace(w_lu.col_mut(j));
            ch.solve_inplace(w_ch.col_mut(j));
        }
        if n <= 32 {
            assert_eq!(x_lu.as_slice(), w_lu.as_slice(), "LU n={n}");
            assert_eq!(x_ch.as_slice(), w_ch.as_slice(), "Cholesky n={n}");
        }
        let (e_lu, e_ch) = (max_rel_diff(&x_lu, &w_lu), max_rel_diff(&x_ch, &w_ch));
        assert!(e_lu <= 1e-12, "LU n={n}: rel err {e_lu:.3e}");
        assert!(e_ch <= 1e-12, "Cholesky n={n}: rel err {e_ch:.3e}");
    }
}

#[test]
fn skinny_gemm_matches_packed() {
    // `gemm` (the unpacked AVX-512 path for n <= 16 where the CPU has it)
    // against the packed path on the same strided views; n = 17 is the far
    // side of the constant, where the two are the same code.
    let _guard = POOL_TOGGLE.lock().unwrap();
    for m in [1usize, 7, 8, 9, 255, 1030] {
        for k in [1usize, 5, 256, 300] {
            let big_a = Mat::from_fn(m + 3, k + 2, |i, j| ((i * 3 + j * 7) as f64 * 0.11).sin());
            let a = big_a.submatrix(2..2 + m, 1..1 + k);
            for n in 1usize..=17 {
                let big_b = Mat::from_fn(k + 4, n + 1, |i, j| ((i * 5 + j) as f64 * 0.17).cos());
                let b = big_b.submatrix(3..3 + k, 1..1 + n);
                let c0 = Mat::from_fn(m + 5, n + 3, |i, j| ((i + 2 * j) as f64 * 0.05).sin());
                for alpha in [1.0, -1.0, 2.5] {
                    for beta in [0.0, 1.0, -0.5] {
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        let win = (4..4 + m, 2..2 + n);
                        let gc = got.rb_mut().submatrix_mut(win.0.clone(), win.1.clone());
                        gemm(alpha, a, Trans::No, b, Trans::No, beta, gc);
                        let wc = want.rb_mut().submatrix_mut(win.0, win.1);
                        gemm_packed(alpha, a, Trans::No, b, Trans::No, beta, wc);
                        let tol = 1e-13 * (k as f64 + 2.0);
                        for j in 0..n + 3 {
                            for i in 0..m + 5 {
                                let (g, w) = (got[(i, j)], want[(i, j)]);
                                if (4..4 + m).contains(&i) && (2..2 + n).contains(&j) {
                                    assert!(
                                        (g - w).abs() <= tol * (1.0 + w.abs()),
                                        "({m},{k},{n}) alpha={alpha} beta={beta} at ({i},{j}): {g} vs {w}"
                                    );
                                } else {
                                    assert_eq!(g.to_bits(), w.to_bits(), "wrote outside C");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn skinny_gemm_column_bits_ignore_company_and_threads() {
    // A column of a skinny product is one FMA chain per element: the same
    // bits computed alone, in any position of any n <= 16 column call, and
    // under any pool size (m = 1100 row-splits under four threads and
    // ends in a partial tile).
    let _guard = POOL_TOGGLE.lock().unwrap();
    let (m, k) = (1100usize, 70usize);
    let a = Mat::from_fn(m, k, |i, j| ((i * 3 + j * 7) as f64 * 0.11).sin());
    let b = Mat::from_fn(k, 16, |i, j| ((i * 5 + j * 13) as f64 * 0.17).cos());
    let c0 = Mat::from_fn(m, 16, |i, j| ((i + 2 * j) as f64 * 0.05).sin());
    let run =
        |b: &Mat, c: &mut Mat| gemm(-1.0, a.rb(), Trans::No, b.rb(), Trans::No, 1.0, c.rb_mut());
    let pool = |t| rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("pool");
    let mut full = c0.clone();
    pool(1).install(|| run(&b, &mut full));
    let mut full4 = c0.clone();
    pool(4).install(|| run(&b, &mut full4));
    assert_eq!(full.as_slice(), full4.as_slice(), "pool sizes 1 and 4 must give identical bits");
    for j in [0usize, 7, 15] {
        for n in 1usize..=16 {
            for pos in 0..n {
                // Column j of B and of C ride at position pos among n - 1
                // unrelated columns.
                let bn =
                    Mat::from_fn(k, n, |i, c| if c == pos { b[(i, j)] } else { (i + c) as f64 });
                let mut cn = Mat::from_fn(m, n, |i, c| if c == pos { c0[(i, j)] } else { 0.25 });
                run(&bn, &mut cn);
                assert_eq!(cn.col(pos), full.col(j), "column {j} at {pos} of {n}");
            }
        }
    }
}

fn mat_strategy(max_dim: usize) -> impl Strategy<Value = Mat> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f64..10.0, m * n)
            .prop_map(move |data| Mat::from_col_major(m, n, data))
    })
}

fn square_mat_strategy(max_dim: usize) -> impl Strategy<Value = Mat> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-10.0f64..10.0, n * n).prop_map(move |data| {
            let mut a = Mat::from_col_major(n, n, data);
            // Diagonal boost keeps the matrices comfortably nonsingular so
            // the solve-accuracy property is well-posed.
            for i in 0..n {
                a[(i, i)] += 20.0;
            }
            a
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_naive(a in mat_strategy(12), b in mat_strategy(12)) {
        // Reshape b so the product is defined: use b's data with a.ncols rows.
        let k = a.ncols();
        let n = b.as_slice().len() / k.max(1);
        prop_assume!(n >= 1);
        let b = Mat::from_col_major(k, n, b.as_slice()[..k * n].to_vec());
        let mut c = Mat::zeros(a.nrows(), n);
        gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, c.rb_mut());
        for j in 0..n {
            for i in 0..a.nrows() {
                let want: f64 = (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum();
                prop_assert!((c[(i, j)] - want).abs() <= 1e-9 * (1.0 + want.abs()));
            }
        }
    }

    #[test]
    fn lu_solves_accurately(a in square_mat_strategy(16), xs in proptest::collection::vec(-5.0f64..5.0, 16)) {
        let n = a.nrows();
        let x_true = &xs[..n];
        let mut b = vec![0.0; n];
        kfds_la::blas2::gemv(1.0, a.rb(), x_true, 0.0, &mut b);
        let f = Lu::factor(a).unwrap();
        let x = f.solve(&b);
        for (u, v) in x.iter().zip(x_true) {
            prop_assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn cpqr_perm_is_bijection(a in mat_strategy(14)) {
        let n = a.ncols();
        let f = ColPivQr::factor_truncated(a, 0.0, usize::MAX);
        let mut seen = vec![false; n];
        for &p in f.perm() {
            prop_assert!(p < n && !seen[p]);
            seen[p] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cpqr_rdiag_nonincreasing(a in mat_strategy(14)) {
        let f = ColPivQr::factor_truncated(a, 0.0, usize::MAX);
        for w in f.rdiag().windows(2) {
            // Column pivoting guarantees this up to roundoff.
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-10));
        }
    }

    #[test]
    fn id_reconstructs_skeleton_columns(a in mat_strategy(12)) {
        let id = interp_decomp(a.clone(), 0.0, usize::MAX);
        let ask = a.select_cols(&id.skeleton);
        let rec = kfds_la::matmul(&ask, &id.proj);
        // With tol = 0 (full rank) the ID must reproduce A exactly
        // (up to roundoff amplified by the triangular solve).
        let scale = a.norm_max().max(1.0);
        let cond_slack = 1e-5; // pivoted QR keeps this moderate for random A
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                prop_assert!(
                    (rec[(i, j)] - a[(i, j)]).abs() <= cond_slack * scale,
                    "({i},{j}): {} vs {}", rec[(i, j)], a[(i, j)]
                );
            }
        }
    }

    #[test]
    fn pooled_gemm_bitwise_identical_random_shapes(m in 0usize..24, k in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
        let a = Mat::from_fn(m, k, |i, j| (((i * 7 + j * 3) as u64 + seed) as f64 * 0.17).sin());
        let b = Mat::from_fn(k, n, |i, j| (((i * 5 + j * 11) as u64 + seed) as f64 * 0.09).cos());
        assert_gemm_pool_invariant(&a, Trans::No, &b, Trans::No, m, n);
        // Transposed operands exercise the other packing loops.
        let at = a.transpose();
        assert_gemm_pool_invariant(&at, Trans::Yes, &b, Trans::No, m, n);
    }

    #[test]
    fn simd_gemm_matches_scalar_random_shapes(m in 1usize..28, k in 0usize..24, n in 1usize..20, seed in 0u64..1000) {
        let _guard = POOL_TOGGLE.lock().unwrap();
        assert_gemm_simd_vs_scalar(m, k, n, Trans::No, Trans::No, seed);
        assert_gemm_simd_vs_scalar(m, k, n, Trans::Yes, Trans::No, seed);
    }

    #[test]
    fn simd_vexp_matches_libm(xs in proptest::collection::vec(-750.0f64..750.0, 0..64)) {
        let _guard = POOL_TOGGLE.lock().unwrap();
        let mut got = xs.clone();
        kfds_la::simd::vexp(&mut got);
        for (x, g) in xs.iter().zip(&got) {
            let want = x.exp();
            if want.is_infinite() {
                prop_assert!(g.is_infinite() && *g > 0.0, "exp({x}): {g} vs inf");
            } else {
                prop_assert!(
                    (g - want).abs() <= 1e-14 * (1.0 + want.abs()),
                    "exp({x}): {g} vs {want}"
                );
            }
        }
    }

    #[test]
    fn gemm_transpose_consistency(a in mat_strategy(10)) {
        // (A^T A) computed two ways must agree.
        let at = a.transpose();
        let g1 = kfds_la::matmul_op(&a, Trans::Yes, &a, Trans::No);
        let g2 = kfds_la::matmul(&at, &a);
        for j in 0..g1.ncols() {
            for i in 0..g1.nrows() {
                prop_assert!((g1[(i, j)] - g2[(i, j)]).abs() < 1e-9 * (1.0 + g1[(i, j)].abs()));
            }
        }
    }
}
