//! Criterion micro-benchmarks for the kernel-summation engines (Table I's
//! measurement core at a statistically robust micro scale).
//!
//! * `kernel_summation_1K` — 1024 targets against 1024 sources, one weight
//!   vector: Table I's square shape.
//! * `solver_shapes` — the shapes the solver itself hands the engine: a
//!   64-point skeleton (a scattered index list) against a sibling node's
//!   contiguous range of 128, 1024 or 8192 points, with one weight column
//!   (a solve level's `V` product) or 64 (the factorization's
//!   `B = K P̂`). Each is timed fused and two-pass, so the table answers
//!   whether the fused engine beats the reference at every solver shape.
//!
//! ```text
//! cargo bench -p kfds-bench --bench gsks -- solver_shapes
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_kernels::{sum_fused, sum_fused_multi, sum_reference, sum_reference_multi, Gaussian};
use kfds_la::Mat;
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

fn bench_solver_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_shapes");
    group.sample_size(10);
    for d in [16usize, 54, 64] {
        let kernel = Gaussian::new((d as f64).sqrt());
        for n in [128usize, 1024, 8192] {
            // Sources: the node range [n, 2n). Targets: 64 points spread
            // over the sibling [0, n), as a skeleton list is.
            let pts = uniform_cube(2 * n, d, (d * n) as u64);
            let rows: Vec<usize> = (0..SKELETON).map(|i| i * n / SKELETON).collect();
            let cols: Vec<usize> = (n..2 * n).collect();
            for nrhs in [1usize, 64] {
                let u = Mat::from_fn(n, nrhs, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
                let mut w = Mat::zeros(SKELETON, nrhs);
                let shape = format!("d{d}/n{n}/rhs{nrhs}");
                group.bench_with_input(BenchmarkId::new("gsks_fused", &shape), &n, |b, _| {
                    b.iter(|| {
                        sum_fused_multi(&kernel, &pts, &rows, &cols, u.rb(), w.rb_mut());
                        black_box(w[(0, 0)])
                    })
                });
                group.bench_with_input(
                    BenchmarkId::new("reference_two_pass", &shape),
                    &n,
                    |b, _| {
                        b.iter(|| {
                            sum_reference_multi(&kernel, &pts, &rows, &cols, u.rb(), w.rb_mut());
                            black_box(w[(0, 0)])
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_summation, bench_solver_shapes);
criterion_main!(benches);
