//! The dense LU and its multi-RHS solve against the GEMM of the same flop
//! count, at the shapes the factorization produces.
//!
//! Every leaf block and every reduced system `Z` of a factorization is one
//! `Lu::factor`, and every `P̂` and solve block through it one
//! `Lu::solve_mat_mut` (row swaps, then the unit-lower and the upper TRSM).
//! The TRSMs fold solved blocks in with `gemm` down to a 32-row leaf that
//! runs `simd::rank1_update` once per row; the LU's 48-column panels run it
//! once per column, then one TRSM and one `gemm`. A `gemm` doing the same
//! flops is the roof both should approach. Shapes: the leaf LU (`n = 128`),
//! the reduced systems (`256`, `384` — two ranks of 128 / 192), each at
//! one, a 16-column solve block, and a rank's worth of right-hand sides.
//!
//! * `solve/{n}x{nrhs}` — `Lu::solve_mat_mut` on a factored `n × n`.
//! * `gemm/{n}x{nrhs}`  — `C -= A B` with `A` `n × n`, `B` `n × nrhs`:
//!   `2 n² nrhs` flops, what the two triangular solves do.
//! * `factor/{n}`       — `Lu::factor` (unblocked below 96 rows).
//! * `factor_gemm/{n}`  — `C -= A B` with `A` `n × n/3`, `B` `n/3 × n`:
//!   `2 n³ / 3` flops, the LU's count.
//!
//! All of it on one thread:
//!
//! ```sh
//! cargo bench -p kfds-bench --bench trsm_shapes
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_la::{gemm, Lu, Mat, Trans};
use std::hint::black_box;

/// A diagonally weighted random `m × n` matrix (pivoting still swaps rows:
/// the weight is below the column sums).
fn test_mat(m: usize, n: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(m, n, |i, j| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        r + if i == j { 2.0 } else { 0.0 }
    })
}

fn bench_trsm(c: &mut Criterion) {
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut group = c.benchmark_group("trsm_shapes");
    group.sample_size(20);
    for n in [128usize, 256, 384] {
        let a = test_mat(n, n, n as u64);
        let lu = Lu::factor(a.clone()).expect("nonsingular");
        for nrhs in [1usize, 16, 64, 128, 192] {
            let b0 = Mat::from_fn(n, nrhs, |i, j| ((i + 3 * j) as f64 * 0.01).sin());
            let mut b = b0.clone();
            let id = format!("{n}x{nrhs}");
            group.bench_with_input(BenchmarkId::new("solve", &id), &n, |bch, _| {
                bch.iter(|| {
                    b.as_mut_slice().copy_from_slice(b0.as_slice());
                    serial.install(|| lu.solve_mat_mut(b.rb_mut()));
                    black_box(b.as_slice()[0])
                })
            });
            group.bench_with_input(BenchmarkId::new("gemm", &id), &n, |bch, _| {
                bch.iter(|| {
                    b.as_mut_slice().copy_from_slice(b0.as_slice());
                    serial.install(|| {
                        gemm(-1.0, a.rb(), Trans::No, b0.rb(), Trans::No, 1.0, b.rb_mut())
                    });
                    black_box(b.as_slice()[0])
                })
            });
        }
    }
    for n in [64usize, 128, 256, 384] {
        let a = test_mat(n, n, n as u64 + 1);
        group.bench_with_input(BenchmarkId::new("factor", n), &n, |bch, _| {
            bch.iter(|| {
                let f = serial.install(|| Lu::factor(a.clone()).expect("nonsingular"));
                black_box(f.min_pivot_ratio())
            })
        });
        let (l, r) = (test_mat(n, n / 3, 7), test_mat(n / 3, n, 8));
        let mut out = a.clone();
        group.bench_with_input(BenchmarkId::new("factor_gemm", n), &n, |bch, _| {
            bch.iter(|| {
                out.as_mut_slice().copy_from_slice(a.as_slice());
                serial.install(|| {
                    gemm(-1.0, l.rb(), Trans::No, r.rb(), Trans::No, 1.0, out.rb_mut())
                });
                black_box(out.as_slice()[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trsm);
criterion_main!(benches);
