//! Property-based tests for the dense linear algebra kernels.

// Far too slow under the Miri interpreter (hundreds of proptest cases per
// property); the Miri lane runs the deterministic suite in `miri.rs`.
#![cfg(not(miri))]

use kfds_la::gemm::gemm_packed;
use kfds_la::{gemm, interp_decomp, tri, ColPivQr, Lu, Mat, Trans};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the global SIMD switch (or run twice and
/// compare bits) so they cannot observe each other's toggles.
static SIMD_TOGGLE: Mutex<()> = Mutex::new(());

/// RAII guard: turns the vector kernels off for a run of the portable
/// lanes and restores the prior state on drop (including on panic). Must
/// be used while holding [`SIMD_TOGGLE`]: the repeat-bitwise tests assume
/// the SIMD mode does not flip between their paired runs.
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

/// Runs `gemm` with the vector kernels and with the portable lanes and
/// asserts the same bits, at three `(alpha, beta)` pairs: whichever tiles
/// run (the `16 x 12` or `8 x 6` ones, an edge tile, the skinny path), each
/// element is one fused chain, so "is SIMD on?" decides speed, not bits.
fn assert_gemm_simd_vs_scalar(m: usize, k: usize, n: usize, ta: Trans, tb: Trans, seed: u64) {
    let (ar, ac) = if matches!(ta, Trans::Yes) { (k, m) } else { (m, k) };
    let (br, bc) = if matches!(tb, Trans::Yes) { (n, k) } else { (k, n) };
    let a = Mat::from_fn(ar, ac, |i, j| (((i * 7 + j * 3) as u64 + seed) as f64 * 0.19).sin());
    let b = Mat::from_fn(br, bc, |i, j| (((i * 5 + j * 11) as u64 + seed) as f64 * 0.23).cos());
    let c0 = Mat::from_fn(m, n, |i, j| ((i + 2 * j) as f64 * 0.31).sin());
    for (alpha, beta) in [(1.25, 0.5), (1.0, 1.0), (-0.75, 0.0)] {
        let (mut c_scalar, mut c_simd) = (c0.clone(), c0.clone());
        {
            let _off = SimdOff::new();
            gemm(alpha, a.rb(), ta, b.rb(), tb, beta, c_scalar.rb_mut());
        }
        gemm(alpha, a.rb(), ta, b.rb(), tb, beta, c_simd.rb_mut());
        let bad = same_bits(c_simd.as_slice(), c_scalar.as_slice());
        assert_eq!(bad, None, "({m},{k},{n}) {ta:?}/{tb:?} alpha={alpha} beta={beta}");
    }
}

/// `alpha*op(A)op(B)` twice, the second run on buffers the first returned
/// to the pool, asserting a NaN-free result and identical bits. A debug
/// build poisons every pooled take with NaN, so a packing loop that reads
/// a panel edge it did not write shows up here as a NaN.
fn assert_gemm_pool_repeatable(a: &Mat, ta: Trans, b: &Mat, tb: Trans, m: usize, n: usize) {
    let _guard = SIMD_TOGGLE.lock().unwrap();
    let run = || {
        let mut c = Mat::zeros(m, n);
        gemm(1.5, a.rb(), ta, b.rb(), tb, 0.0, c.rb_mut());
        c
    };
    let (first, again) = (run(), run());
    for (e, (x, y)) in first.as_slice().iter().zip(again.as_slice()).enumerate() {
        assert!(!x.is_nan(), "entry {e}: pooled gemm read unwritten scratch");
        assert_eq!(x.to_bits(), y.to_bits(), "entry {e}: repeat {y} vs first {x}");
    }
}

#[test]
fn pooled_gemm_bitwise_identical_degenerate_shapes() {
    // m = 0, n = 1, k = 1 and friends: the pool must be a pure pass-through
    // even when requests round up to the minimum size class.
    for &(m, k, n) in &[(0usize, 4usize, 3usize), (1, 1, 1), (5, 1, 7), (1, 9, 1), (3, 2, 0)] {
        let a = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) as f64 * 0.21).sin());
        let b = Mat::from_fn(k, n, |i, j| ((i * 5 + j * 11) as f64 * 0.13).cos());
        assert_gemm_pool_repeatable(&a, Trans::No, &b, Trans::No, m, n);
    }
}

#[test]
fn pooled_gemm_bitwise_identical_tall_skinny() {
    // The row-split parallel path with pooled packing panels must read
    // only what it packed, and repeat its bits.
    let (m, k, n) = (4096usize, 16usize, 8usize);
    let a = Mat::from_fn(m, k, |i, j| ((i * 13 + j) as f64 * 0.003).sin());
    let b = Mat::from_fn(k, n, |i, j| ((i + j * 17) as f64 * 0.07).cos());
    assert_gemm_pool_repeatable(&a, Trans::No, &b, Trans::No, m, n);
}

#[test]
fn successive_pooled_shapes_do_not_alias() {
    // Different shapes back-to-back reuse the same size classes; each call
    // must behave as if its buffers were fresh.
    let _guard = SIMD_TOGGLE.lock().unwrap();
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
    // Shapes straddling the 8x6 register tile and the 16x12 one: partial
    // rows (m < MR), partial columns (n < NR), the degenerate k in {0, 1}
    // panels, k across a KC block, and the skinny n <= 16 right operands
    // on both sides of the constant.
    let _guard = SIMD_TOGGLE.lock().unwrap();
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
        (33, 300, 16),
        (17, 257, 17),
        (40, 9, 25),
        (300, 4, 3),
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
    let _guard = SIMD_TOGGLE.lock().unwrap();
    let big_a = Mat::from_fn(40, 30, |i, j| ((i * 3 + j * 7) as f64 * 0.11).sin());
    let big_b = Mat::from_fn(30, 25, |i, j| ((i * 5 + j) as f64 * 0.17).cos());
    let (m, k, n) = (21, 19, 13);
    let a = big_a.submatrix(4..4 + m, 6..6 + k);
    let b = big_b.submatrix(2..2 + k, 9..9 + n);
    let c0 = Mat::from_fn(33, 29, |i, j| ((i + j) as f64 * 0.05).sin());
    for (alpha, beta) in [(2.0, 1.0), (-0.5, 0.25)] {
        let (mut c_scalar, mut c_simd) = (c0.clone(), c0.clone());
        {
            let _off = SimdOff::new();
            let win = c_scalar.rb_mut().submatrix_mut(5..5 + m, 3..3 + n);
            gemm(alpha, a, Trans::No, b, Trans::No, beta, win);
        }
        let win = c_simd.rb_mut().submatrix_mut(5..5 + m, 3..3 + n);
        gemm(alpha, a, Trans::No, b, Trans::No, beta, win);
        // The same bits inside the window; outside it C is untouched.
        let bad = same_bits(c_simd.as_slice(), c_scalar.as_slice());
        assert_eq!(bad, None, "alpha={alpha} beta={beta}");
        for j in 0..29 {
            for i in 0..33 {
                if !((5..5 + m).contains(&i) && (3..3 + n).contains(&j)) {
                    assert_eq!(c_simd[(i, j)].to_bits(), c0[(i, j)].to_bits(), "({i},{j})");
                }
            }
        }
    }
}

#[test]
fn simd_blas_matches_scalar() {
    // Every length from 0 to past two 16-element steps, so each tail of
    // the 16-, 8- and 4-element loops, under both lanes: the same bits.
    let _guard = SIMD_TOGGLE.lock().unwrap();
    for n in (0usize..=40).chain([63, 64, 65, 100, 1023]) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let run = || {
            let mut ax = y.clone();
            kfds_la::blas1::axpy(0.75, &x, &mut ax);
            (kfds_la::blas1::dot(&x, &y), ax)
        };
        let (d_simd, ax_simd) = run();
        let (d_scalar, ax_scalar) = {
            let _off = SimdOff::new();
            run()
        };
        assert_eq!(d_simd.to_bits(), d_scalar.to_bits(), "dot n={n}: {d_simd} vs {d_scalar}");
        assert_eq!(same_bits(&ax_simd, &ax_scalar), None, "axpy n={n}");
    }
    // Rows through every m % 4 and m % 8 tail, columns through the 4- and
    // 2-column blocks and what follows them; `x` holds exact zeros and the
    // starting `y` negative zeros, so a column skipped on one lane and not
    // on the other would show.
    let ms = [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 24, 33, 64, 100];
    for m in ms {
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 33] {
            let a = Mat::from_fn(m, n, |i, j| ((i * 3 + j * 5) as f64 * 0.21).sin());
            let x: Vec<f64> =
                (0..n).map(|i| if i % 3 == 1 { 0.0 } else { (i as f64 * 0.43).cos() }).collect();
            let xt: Vec<f64> = (0..m).map(|i| (i as f64 * 0.29).sin()).collect();
            for (alpha, beta) in [(1.5, 0.25), (1.0, 1.0), (-0.5, 0.0)] {
                let run = || {
                    let mut y: Vec<f64> =
                        (0..m).map(|i| if i % 4 == 2 { -0.0 } else { 0.5 }).collect();
                    kfds_la::blas2::gemv(alpha, a.rb(), &x, beta, &mut y);
                    let mut yt = vec![if beta == 0.0 { f64::NAN } else { 0.5 }; n];
                    kfds_la::blas2::gemv_t(alpha, a.rb(), &xt, beta, &mut yt);
                    (y, yt)
                };
                let (y_simd, yt_simd) = run();
                let (y_scalar, yt_scalar) = {
                    let _off = SimdOff::new();
                    run()
                };
                let what = format!("({m},{n}) alpha={alpha} beta={beta}");
                assert_eq!(same_bits(&y_simd, &y_scalar), None, "gemv {what}");
                assert_eq!(same_bits(&yt_simd, &yt_scalar), None, "gemv_t {what}");
            }
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
    // The three recursive TRSMs against one TRSV per column, across the
    // leaf boundary (32) and odd splits, with both operands interior
    // windows of larger matrices (col_stride > nrows).
    type Trsv = fn(kfds_la::MatRef<'_>, &mut [f64]);
    type Trsm = fn(kfds_la::MatRef<'_>, kfds_la::MatMut<'_>);
    let variants: [(&str, bool, Trsv, Trsm); 3] = [
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
    // Column j of the blocked LU solve against the one-vector solve: the
    // same bits while the triangle is a TRSM leaf, 1e-12 above.
    let _guard = SIMD_TOGGLE.lock().unwrap();
    for n in [20usize, 40, 130, 200] {
        let mut a = Mat::from_fn(n, n, |i, j| (((i * 7 + j * 13) % 53) as f64 * 0.41).sin());
        for i in 0..n {
            a[(i, i)] += n as f64 * 0.5;
        }
        let lu = Lu::factor(a).expect("lu");
        let b = Mat::from_fn(n, 5, |i, j| ((i * 3 + j * 11) as f64 * 0.13).cos());
        let mut x = b.clone();
        lu.solve_mat_inplace(&mut x);
        let mut w = b.clone();
        for j in 0..5 {
            lu.solve_inplace(w.col_mut(j));
        }
        if n <= 32 {
            assert_eq!(x.as_slice(), w.as_slice(), "LU n={n}");
        }
        let e = max_rel_diff(&x, &w);
        assert!(e <= 1e-12, "LU n={n}: rel err {e:.3e}");
    }
}

#[test]
fn skinny_gemm_matches_packed() {
    // `gemm` (the unpacked AVX-512 path for n <= 16 where the CPU has it)
    // against the packed path on the same strided views, bit for bit: the
    // skinny path gives each element the packed path's chains. n = 17 is
    // the far side of the constant, where the two are the same code; k =
    // 300 crosses a KC block.
    let _guard = SIMD_TOGGLE.lock().unwrap();
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
                        let diff = got
                            .as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .position(|(g, w)| g.to_bits() != w.to_bits());
                        assert_eq!(diff, None, "({m},{k},{n}) alpha={alpha} beta={beta}");
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
    let _guard = SIMD_TOGGLE.lock().unwrap();
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

/// The oracle the TRSM leaves are held to bit for bit: the substitutions
/// written one `blas1::axpy` per column in every step, with the same
/// recursion split and `gemm` calls around them. (The LU's own oracle is a
/// unit test in `lu.rs`.)
mod axpy_reference {
    use kfds_la::blas1::axpy;
    use kfds_la::{gemm, MatMut, MatRef, Trans};

    #[derive(Clone, Copy, Debug)]
    pub enum Tri {
        Lower { unit: bool },
        Upper,
    }

    pub fn trsv(tri: Tri, a: MatRef<'_>, b: &mut [f64]) {
        let n = a.ncols();
        match tri {
            Tri::Lower { unit } => {
                for j in 0..n {
                    let col = a.col(j);
                    if !unit {
                        b[j] /= col[j];
                    }
                    let xj = b[j];
                    if xj != 0.0 {
                        axpy(-xj, &col[j + 1..], &mut b[j + 1..]);
                    }
                }
            }
            Tri::Upper => {
                for j in (0..n).rev() {
                    let col = a.col(j);
                    b[j] /= col[j];
                    let xj = b[j];
                    if xj != 0.0 {
                        axpy(-xj, &col[..j], &mut b[..j]);
                    }
                }
            }
        }
    }

    pub fn trsm(tri: Tri, a: MatRef<'_>, mut b: MatMut<'_>) {
        let n = a.ncols();
        if n <= 32 {
            for j in 0..b.ncols() {
                trsv(tri, a, b.col_mut(j));
            }
            return;
        }
        let h = (n / 2).next_multiple_of(8);
        let (a11, a22) = (a.submatrix(0..h, 0..h), a.submatrix(h..n, h..n));
        let (mut b1, mut b2) = b.split_at_row(h);
        match tri {
            Tri::Lower { .. } => {
                trsm(tri, a11, b1.rb_mut());
                let a21 = a.submatrix(h..n, 0..h);
                gemm(-1.0, a21, Trans::No, b1.rb(), Trans::No, 1.0, b2.rb_mut());
                trsm(tri, a22, b2);
            }
            Tri::Upper => {
                trsm(tri, a22, b2.rb_mut());
                let a12 = a.submatrix(0..h, h..n);
                gemm(-1.0, a12, Trans::No, b2.rb(), Trans::No, 1.0, b1.rb_mut());
                trsm(tri, a11, b1);
            }
        }
    }
}

/// Bit-for-bit equality, any NaN equal to any other (a NaN's payload is
/// not part of any result this crate promises).
fn same_bits(got: &[f64], want: &[f64]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
        .or((got.len() != want.len()).then_some(0))
}

/// Deterministic fill in `[-1, 1]` where about one entry in `zeros` is an
/// exact `+0.0` or `-0.0` (0 for none), so multipliers of zero occur.
fn fill(m: usize, n: usize, seed: u64, zeros: u64) -> Mat {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = state >> 11;
        match r % zeros.max(1) {
            0 if zeros > 0 => [0.0, -0.0][(r >> 20) as usize % 2],
            _ => (r as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
        }
    })
}

#[test]
fn trsm_leaves_match_the_axpy_reference() {
    // Every leaf row count, the axpy length thresholds (7, 8, 9, 11, 12)
    // among them, a few recursive sizes, and the right-hand side counts the
    // solver produces, on strided windows of larger matrices; the
    // right-hand sides hold zeros of both signs (skipped multipliers) and,
    // in three columns, NaN and infinities.
    let _guard = SIMD_TOGGLE.lock().unwrap();
    use axpy_reference::Tri;
    let sizes: Vec<usize> = (1..=33).chain([40, 47, 64, 97]).collect();
    for simd in [true, false] {
        let _off = (!simd).then(SimdOff::new);
        for &n in &sizes {
            for nrhs in [0usize, 1, 3, 7, 8, 9, 16, 64, 192] {
                for tri in [Tri::Lower { unit: true }, Tri::Lower { unit: false }, Tri::Upper] {
                    let lower = matches!(tri, Tri::Lower { .. });
                    let mut big_a = Mat::from_fn(n + 5, n + 4, |_, _| f64::NAN);
                    let t = triangle(n, lower, n + nrhs);
                    for j in 0..n {
                        big_a.col_mut(j + 2)[3..3 + n].copy_from_slice(t.col(j));
                    }
                    let a = big_a.submatrix(3..3 + n, 2..2 + n);
                    let mut b0 = fill(n, nrhs, (n * 7 + nrhs) as u64, 6);
                    for (c, v) in [(1, f64::NAN), (4, f64::INFINITY), (6, f64::NEG_INFINITY)] {
                        if c < nrhs {
                            b0[(n / 2, c)] = v;
                        }
                    }
                    let mut want = b0.clone();
                    axpy_reference::trsm(tri, a, want.rb_mut());
                    let mut big_b = Mat::from_fn(n + 7, nrhs + 2, |i, j| (i + j) as f64);
                    for j in 0..nrhs {
                        big_b.col_mut(j + 1)[4..4 + n].copy_from_slice(b0.col(j));
                    }
                    let win = big_b.rb_mut().submatrix_mut(4..4 + n, 1..1 + nrhs);
                    match tri {
                        Tri::Lower { unit } => tri::solve_lower_mat_inplace(a, unit, win),
                        Tri::Upper => tri::solve_upper_mat_inplace(a, win),
                    }
                    let got = big_b.submatrix(4..4 + n, 1..1 + nrhs).to_mat();
                    let bad = same_bits(got.as_slice(), want.as_slice());
                    assert_eq!(bad, None, "{tri:?} n={n} nrhs={nrhs} simd={simd}");
                    if nrhs > 0 {
                        // The one-vector solve is the same substitution.
                        let mut v = b0.col(0).to_vec();
                        match tri {
                            Tri::Lower { unit } => tri::solve_lower_inplace(a, unit, &mut v),
                            Tri::Upper => tri::solve_upper_inplace(a, &mut v),
                        }
                        let mut w = b0.col(0).to_vec();
                        axpy_reference::trsv(tri, a, &mut w);
                        assert_eq!(same_bits(&v, &w), None, "{tri:?} trsv n={n} simd={simd}");
                    }
                }
            }
        }
    }
}

/// `x` and the matrix `C` is a window of for the rank-1 tests: row 2 of
/// every third column holds a multiplier drawn from zeros of both signs,
/// NaN, infinities and ordinary values, and `x` an infinity.
fn rank1_case(m: usize, nc: usize, seed: u64) -> (Vec<f64>, Mat) {
    let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, -2.0];
    let mut x: Vec<f64> = fill(m, 1, seed, 0).into_vec();
    if m > 5 {
        x[m / 2] = f64::INFINITY;
    }
    let mut c = fill(m + 9, nc + 3, seed + 1, 5);
    for j in 0..nc + 3 {
        if j % 3 == 0 {
            c[(2, j)] = specials[(j / 3 + seed as usize) % specials.len()];
        }
    }
    (x, c)
}

#[test]
fn rank1_update_matches_one_axpy_per_column() {
    // The kernel against `axpy(-C[p, j], x, C[r0.., j])` column by column
    // with the vector kernels on, across the axpy thresholds, with the
    // multiplier row above and below the updated rows, on a strided
    // window, under both lanes: the same bits whether SIMD is on or off.
    let _guard = SIMD_TOGGLE.lock().unwrap();
    for m in (0..=40).chain([47, 64, 100]) {
        for nc in [0usize, 1, 3, 8, 13] {
            // Multipliers above the updated rows, then below them.
            for (p, r0) in [(2, 3), (2 + m.max(1), 2)] {
                let (x, c0) = rank1_case(m, nc, (m * 31 + nc) as u64);
                let mut want = c0.clone();
                for j in 1..1 + nc {
                    let col = want.col_mut(j);
                    let alpha = -col[p];
                    kfds_la::blas1::axpy(alpha, &x, &mut col[r0..r0 + m]);
                }
                for simd in [true, false] {
                    let _off = (!simd).then(SimdOff::new);
                    let mut got = c0.clone();
                    let win = got.rb_mut().submatrix_mut(0..m + 7, 1..1 + nc);
                    kfds_la::simd::rank1_update(&x, p, r0, win);
                    let bad = same_bits(got.as_slice(), want.as_slice());
                    assert_eq!(bad, None, "m={m} nc={nc} p={p} r0={r0} simd={simd}");
                }
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
        assert_gemm_pool_repeatable(&a, Trans::No, &b, Trans::No, m, n);
        // Transposed operands exercise the other packing loops.
        let at = a.transpose();
        assert_gemm_pool_repeatable(&at, Trans::Yes, &b, Trans::No, m, n);
    }

    #[test]
    fn simd_gemm_matches_scalar_random_shapes(m in 1usize..28, k in 0usize..24, n in 1usize..20, seed in 0u64..1000) {
        let _guard = SIMD_TOGGLE.lock().unwrap();
        assert_gemm_simd_vs_scalar(m, k, n, Trans::No, Trans::No, seed);
        assert_gemm_simd_vs_scalar(m, k, n, Trans::Yes, Trans::No, seed);
    }

    #[test]
    fn simd_vexp_matches_libm(xs in proptest::collection::vec(-750.0f64..750.0, 0..64)) {
        let _guard = SIMD_TOGGLE.lock().unwrap();
        for simd in [true, false] {
            let _off = (!simd).then(SimdOff::new);
            let mut got = xs.clone();
            kfds_la::simd::vexp(&mut got);
            for (x, g) in xs.iter().zip(&got) {
                let want = x.exp();
                if want.is_infinite() {
                    prop_assert!(g.is_infinite() && *g > 0.0, "exp({x}): {g} vs inf, simd={simd}");
                } else {
                    prop_assert!(
                        (g - want).abs() <= 1e-14 * (1.0 + want.abs()),
                        "exp({x}): {g} vs {want}, simd={simd}"
                    );
                }
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
