//! SIMD microkernel A/B micro-benchmarks.
//!
//! Each shape family runs twice — `scalar` (vector kernels disabled via
//! [`kfds_la::simd::set_simd_enabled`], so the portable lanes run the same
//! chains, `mul_add` a libm call on a baseline x86-64 build) and `simd` —
//! so the microkernel win is visible per shape rather than only
//! end-to-end:
//!
//! * `gemm` — square blocks (the skeletonization CPQR/ID working sets),
//!   the tall-skinny panel products dominating the factorization, and the
//!   small `P̂`-apply shapes.
//! * `gemv` — the solve's dominant primitive.
//! * `gsks` — the fused summation at small source dimensions `d`, where
//!   the rank-`d` register tile and the vectorized `exp` epilogue carry
//!   the cost.
//!
//! ```sh
//! cargo bench -p kfds-bench --bench microkernel
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_kernels::{sum_fused, Gaussian};
use kfds_la::{gemm, simd, Mat, Trans};
use kfds_tree::PointSet;
use std::hint::black_box;

fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn rand_points(n: usize, d: usize, seed: u64) -> PointSet {
    let m = rand_mat(d, n, seed);
    PointSet::from_col_major(d, m.into_vec())
}

const MODES: [(&str, bool); 2] = [("scalar", false), ("simd", true)];

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel_gemm");
    group.sample_size(10);
    for &(m, k, n, tag) in &[
        (256usize, 256usize, 256usize, "square_256"),
        (512, 512, 512, "square_512"),
        (4096, 256, 64, "tall_skinny_4096x64"),
        (8192, 16, 8, "panel_apply_8192x8"),
    ] {
        let a = rand_mat(m, k, 1);
        let b = rand_mat(k, n, 2);
        let mut out = Mat::zeros(m, n);
        for (name, on) in MODES {
            group.bench_with_input(BenchmarkId::new(name, tag), &m, |bch, _| {
                simd::set_simd_enabled(on);
                bch.iter(|| {
                    gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, out.rb_mut());
                    black_box(out.as_slice()[0])
                })
            });
        }
    }
    simd::set_simd_enabled(true);
    group.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel_gemv");
    group.sample_size(10);
    for &(m, n) in &[(1024usize, 1024usize), (8192, 128)] {
        let a = rand_mat(m, n, 3);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut y = vec![0.0; m];
        for (name, on) in MODES {
            group.bench_with_input(BenchmarkId::new(name, format!("{m}x{n}")), &m, |bch, _| {
                simd::set_simd_enabled(on);
                bch.iter(|| {
                    kfds_la::blas2::gemv(1.0, a.rb(), &x, 0.0, &mut y);
                    black_box(y[0])
                })
            });
        }
    }
    simd::set_simd_enabled(true);
    group.finish();
}

fn bench_gsks_tiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel_gsks");
    group.sample_size(10);
    let n = 2048usize;
    let k = Gaussian::new(1.0);
    for &d in &[3usize, 8, 16] {
        let pts = rand_points(n, d, 5);
        let rows: Vec<usize> = (0..n / 2).collect();
        let cols: Vec<usize> = (n / 2..n).collect();
        let u: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut w = vec![0.0; rows.len()];
        for (name, on) in MODES {
            group.bench_with_input(BenchmarkId::new(name, format!("d{d}")), &d, |bch, _| {
                simd::set_simd_enabled(on);
                bch.iter(|| {
                    sum_fused(&k, &pts, &rows, &cols, &u, &mut w);
                    black_box(w[0])
                })
            });
        }
    }
    simd::set_simd_enabled(true);
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_gemv, bench_gsks_tiles);
criterion_main!(benches);
