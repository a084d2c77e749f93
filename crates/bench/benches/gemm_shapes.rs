//! Tall-skinny GEMM split-policy micro-benchmark.
//!
//! The factorization's dominant GEMMs are tall and skinny (`P̂` panels:
//! many rows, `s ≤ 128` columns). The original `gemm_parallel` only split
//! over columns (`n > NC_PAR`), leaving those shapes serial; the row-split
//! path bisects over MC-aligned row panels whenever `m ≥ MC_PAR`. This
//! bench compares:
//!
//! * `serial`  — 1-thread pool: the policy keeps every shape sequential.
//! * `row_split` — 4-thread pool on `n ≤ 128` shapes: the new path.
//! * `col_split` — 4-thread pool on `n = 1024` shapes: the pre-existing
//!   column split, as a reference.
//!
//! On a multi-core host `row_split` should approach the core count for
//! `m ≥ 2048`; on a single-CPU container it measures the split overhead
//! instead (expected within a few percent of serial).
//!
//! A second group, `gemm_solve_shapes`, is the A/B behind the
//! `GEMM_SKINNY_N = 16` constant: the three products of the blocked solve
//! (`P̂ z`: 4096x192, `V u`: 192x4096, a mid-tree 1024x160) at
//! `n ∈ {1, 4, 16, 17, 64}` right-hand sides, `gemm` (which takes the
//! unpacked AVX-512 path up to `n = 16`) against `gemm_packed` (the packed
//! path it replaces there), both serial. `n = 17` and `64` are the far
//! side of the constant: both rows run the packed path and must agree.
//!
//! A third, `gemm_factor_shapes`, times `gemm` on one thread at the
//! factorization's shapes (`m x n x k`, flops `2mnk`): the roofline probe's
//! 768³, telescoping `P̂` panels 2048×192×192 and 4096×64×64, the LU
//! trailing updates and TRSM halves 384×192×192 and 128³, a stored-`V`
//! coupling product 896×128×1024 and the kNN seed tile 128×128×54 — the
//! packed path's register tiles, not the skinny one.
//!
//! ```sh
//! cargo bench -p kfds-bench --bench gemm_shapes
//! cargo bench -p kfds-bench --bench gemm_shapes -- gemm_factor_shapes
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_la::gemm::gemm_packed;
use kfds_la::{gemm, Mat, Trans};
use std::hint::black_box;

fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn run_gemm(a: &Mat, b: &Mat, out: &mut Mat) -> f64 {
    gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, out.rb_mut());
    out.as_slice()[0]
}

fn bench_tall_skinny(c: &mut Criterion) {
    let k = 256usize;
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let par = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");

    let mut group = c.benchmark_group("gemm_tall_skinny");
    group.sample_size(10);
    for m in [512usize, 2048, 8192, 16384] {
        for n in [32usize, 64, 128] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let mut out = Mat::zeros(m, n);
            group.bench_with_input(BenchmarkId::new("serial", format!("{m}x{n}")), &m, |bch, _| {
                bch.iter(|| serial.install(|| black_box(run_gemm(&a, &b, &mut out))))
            });
            group.bench_with_input(
                BenchmarkId::new("row_split", format!("{m}x{n}")),
                &m,
                |bch, _| bch.iter(|| par.install(|| black_box(run_gemm(&a, &b, &mut out)))),
            );
        }
    }
    group.finish();

    // Reference: the pre-existing column split on genuinely wide shapes.
    let mut group = c.benchmark_group("gemm_wide");
    group.sample_size(10);
    for m in [2048usize, 8192] {
        let n = 1024usize;
        let a = rand_mat(m, k, 3);
        let b = rand_mat(k, n, 4);
        let mut out = Mat::zeros(m, n);
        group.bench_with_input(BenchmarkId::new("col_split", format!("{m}x{n}")), &m, |bch, _| {
            bch.iter(|| par.install(|| black_box(run_gemm(&a, &b, &mut out))))
        });
    }
    group.finish();
}

fn bench_solve_shapes(c: &mut Criterion) {
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut group = c.benchmark_group("gemm_solve_shapes");
    group.sample_size(20);
    for (m, k) in [(4096usize, 192usize), (192, 4096), (1024, 160)] {
        let a = rand_mat(m, k, 5);
        for n in [1usize, 4, 16, 17, 64] {
            let b = rand_mat(k, n, 6);
            let mut out = Mat::zeros(m, n);
            let id = format!("{m}x{k}x{n}");
            group.bench_with_input(BenchmarkId::new("gemm", &id), &n, |bch, _| {
                bch.iter(|| serial.install(|| black_box(run_gemm(&a, &b, &mut out))))
            });
            group.bench_with_input(BenchmarkId::new("packed", &id), &n, |bch, _| {
                bch.iter(|| {
                    gemm_packed(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, out.rb_mut());
                    black_box(out.as_slice()[0])
                })
            });
        }
    }
    group.finish();
}

fn bench_factor_shapes(c: &mut Criterion) {
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut group = c.benchmark_group("gemm_factor_shapes");
    group.sample_size(10);
    let shapes = [
        (768usize, 768usize, 768usize),
        (2048, 192, 192),
        (4096, 64, 64),
        (384, 192, 192),
        (128, 128, 128),
        (896, 128, 1024),
        (128, 128, 54),
    ];
    for (m, n, k) in shapes {
        let a = rand_mat(m, k, 7);
        let b = rand_mat(k, n, 8);
        let mut out = Mat::zeros(m, n);
        group.bench_with_input(BenchmarkId::new("gemm", format!("{m}x{n}x{k}")), &m, |bch, _| {
            bch.iter(|| serial.install(|| black_box(run_gemm(&a, &b, &mut out))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tall_skinny, bench_solve_shapes, bench_factor_shapes);
criterion_main!(benches);
