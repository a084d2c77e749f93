//! Criterion micro-benchmarks for the kernel-summation engines (Table I's
//! measurement core at a statistically robust micro scale).
//!
//! * `kernel_summation_1K` — 1024 targets against 1024 sources, one weight
//!   vector: Table I's square shape.
//! * `solver_shapes` — the shapes the solver itself hands the engine: a
//!   64-point skeleton (a scattered index list) against a sibling node's
//!   contiguous range of 128, 1024 or 8192 points, with one weight column
//!   (a solve level's `V` product), 2, 4 or 8 (small solve blocks) or 64
//!   (the factorization's `B = K P̂`); and the hybrid's assembly of
//!   `I + VW`: 128 targets against 1024 sources at d = 54 with 128 weight
//!   columns. Each is timed fused and two-pass, so the table answers
//!   whether the fused engine beats the reference at every solver shape.
//! * `contract_shapes` — on one thread, the fused multi-RHS call
//!   (`fused/…`) next to a `gemm` of the same block materialised
//!   (`gemm/…`: `W = K U`, `2 m n nrhs` flops, the contraction's count).
//!   The fused call also forms the block (its Gram tiles and kernel
//!   transform), so the two rows bound how far its contraction is from
//!   GEMM speed.
//!
//! ```text
//! cargo bench -p kfds-bench --bench gsks -- solver_shapes
//! cargo bench -p kfds-bench --bench gsks -- contract_shapes
//! ```
//!
//! An A/B of two builds runs one group alone, alternating the builds, under
//! `RAYON_NUM_THREADS=1`. At the pool's default width `solver_shapes` is
//! not fit for one: on a 2-vCPU host, pair ratios of its n ≤ 1024 rows
//! between two builds spread 0.23–2.6, and one build read a row 713 then
//! 286 µs minutes apart. On one thread most rows agree within 10–20 %
//! over three alternations; a few n = 1024 rows still move up to 1.7×.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_kernels::{
    eval_block, sum_fused, sum_fused_multi, sum_reference, sum_reference_multi, Gaussian,
};
use kfds_la::{gemm, Mat, Trans};
use kfds_tree::datasets::uniform_cube;
use std::hint::black_box;

fn bench_summation(c: &mut Criterion) {
    let n = 1024;
    let kernel = Gaussian::new(1.0);
    let mut group = c.benchmark_group("kernel_summation_1K");
    group.sample_size(10);
    for d in [4usize, 36, 132] {
        let pts = uniform_cube(2 * n, d, d as u64);
        let rows: Vec<usize> = (0..n).collect();
        let cols: Vec<usize> = (n..2 * n).collect();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut w = vec![0.0; n];
        group.bench_with_input(BenchmarkId::new("reference_two_pass", d), &d, |b, _| {
            b.iter(|| {
                sum_reference(&kernel, &pts, &rows, &cols, black_box(&u), &mut w);
                black_box(w[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("gsks_fused", d), &d, |b, _| {
            b.iter(|| {
                sum_fused(&kernel, &pts, &rows, &cols, black_box(&u), &mut w);
                black_box(w[0])
            })
        });
    }
    group.finish();
}

/// Skeleton size: the rank `normal64d_direct` factors at.
const SKELETON: usize = 64;

/// The hybrid's assembly of `I + VW`: `(d, targets, sources, nrhs)`.
const ASSEMBLY: (usize, usize, usize, usize) = (54, 128, 1024, 128);

/// One summation shape: `rows` spread over the sibling `[0, n)`, as a
/// skeleton list is, against the node range `[n, 2n)`.
fn shape(d: usize, m: usize, n: usize) -> (kfds_tree::PointSet, Vec<usize>, Vec<usize>) {
    let pts = uniform_cube(2 * n, d, (d * n) as u64);
    let rows: Vec<usize> = (0..m).map(|i| i * n / m).collect();
    (pts, rows, (n..2 * n).collect())
}

fn bench_solver_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_shapes");
    group.sample_size(10);
    let mut shapes = Vec::new();
    for d in [16usize, 54, 64] {
        for n in [128usize, 1024, 8192] {
            shapes.extend([1usize, 2, 4, 8, 64].map(|nrhs| (d, SKELETON, n, nrhs)));
        }
    }
    shapes.push(ASSEMBLY);
    for (d, m, n, nrhs) in shapes {
        let kernel = Gaussian::new((d as f64).sqrt());
        let (pts, rows, cols) = shape(d, m, n);
        let u = Mat::from_fn(n, nrhs, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let mut w = Mat::zeros(m, nrhs);
        let id = if m == SKELETON {
            format!("d{d}/n{n}/rhs{nrhs}")
        } else {
            format!("d{d}/m{m}/n{n}/rhs{nrhs}")
        };
        group.bench_with_input(BenchmarkId::new("gsks_fused", &id), &n, |b, _| {
            b.iter(|| {
                sum_fused_multi(&kernel, &pts, &rows, &cols, u.rb(), w.rb_mut());
                black_box(w[(0, 0)])
            })
        });
        group.bench_with_input(BenchmarkId::new("reference_two_pass", &id), &n, |b, _| {
            b.iter(|| {
                sum_reference_multi(&kernel, &pts, &rows, &cols, u.rb(), w.rb_mut());
                black_box(w[(0, 0)])
            })
        });
    }
    group.finish();
}

fn bench_contract_shapes(c: &mut Criterion) {
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut group = c.benchmark_group("contract_shapes");
    group.sample_size(20);
    for (d, m, n, nrhs) in
        [ASSEMBLY, (54, SKELETON, 1024, 64), (64, SKELETON, 1024, 64), (54, SKELETON, 1024, 16)]
    {
        let kernel = Gaussian::new((d as f64).sqrt());
        let (pts, rows, cols) = shape(d, m, n);
        let u = Mat::from_fn(n, nrhs, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let block = eval_block(&kernel, &pts, &rows, &cols);
        let mut w = Mat::zeros(m, nrhs);
        let id = format!("d{d}/m{m}/n{n}/rhs{nrhs}");
        group.bench_with_input(BenchmarkId::new("fused", &id), &n, |b, _| {
            b.iter(|| {
                serial.install(|| sum_fused_multi(&kernel, &pts, &rows, &cols, u.rb(), w.rb_mut()));
                black_box(w[(0, 0)])
            })
        });
        group.bench_with_input(BenchmarkId::new("gemm", &id), &n, |b, _| {
            b.iter(|| {
                serial.install(|| {
                    gemm(1.0, block.rb(), Trans::No, u.rb(), Trans::No, 0.0, w.rb_mut())
                });
                black_box(w[(0, 0)])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_summation, bench_solver_shapes, bench_contract_shapes);
criterion_main!(benches);
