//! Recursive TRSM against the column-at-a-time loop it replaces.
//!
//! Every multi-RHS LU / Cholesky solve of the factor and solve layers is
//! two triangular solves. They used to run one TRSV (an `axpy` per
//! column of the triangle) per right-hand side; `kfds_la::tri` now halves
//! the triangle and folds each solved block into the rest with one GEMM,
//! down to a 32-row leaf. This bench is the committed A/B at the shapes
//! the solver produces: the leaf LU (`n = 128`), the reduced systems
//! (`n = 320`, `384` — two ranks of 160 / 192) at a 16-column solve block
//! and at an `s`-column factorization panel (`nrhs = 160`).
//!
//! * `trsm`   — `solve_lower_mat_inplace` (unit) then
//!   `solve_upper_mat_inplace`: the two calls of a `GETRS`.
//! * `column` — the same two substitutions, one right-hand side at a time.
//!
//! ```sh
//! cargo bench -p kfds-bench --bench trsm_shapes
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_la::{tri, Mat};
use std::hint::black_box;

/// Packed LU-like factors: unit-lower multipliers below a dominant
/// diagonal, `U` on and above it.
fn packed_factors(n: usize) -> Mat {
    let mut state = 0x9e3779b97f4a7c15u64;
    Mat::from_fn(n, n, |i, j| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        if i == j {
            2.0 + r.abs()
        } else {
            r / n as f64
        }
    })
}

fn bench_trsm(c: &mut Criterion) {
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let mut group = c.benchmark_group("trsm_shapes");
    group.sample_size(20);
    for n in [128usize, 320, 384] {
        let lu = packed_factors(n);
        for nrhs in [16usize, 160] {
            let b0 = Mat::from_fn(n, nrhs, |i, j| ((i + 3 * j) as f64 * 0.01).sin());
            let mut b = b0.clone();
            let id = format!("{n}x{nrhs}");
            group.bench_with_input(BenchmarkId::new("trsm", &id), &n, |bch, _| {
                bch.iter(|| {
                    b.as_mut_slice().copy_from_slice(b0.as_slice());
                    serial.install(|| {
                        tri::solve_lower_mat_inplace(lu.rb(), true, b.rb_mut());
                        tri::solve_upper_mat_inplace(lu.rb(), b.rb_mut());
                    });
                    black_box(b.as_slice()[0])
                })
            });
            group.bench_with_input(BenchmarkId::new("column", &id), &n, |bch, _| {
                bch.iter(|| {
                    b.as_mut_slice().copy_from_slice(b0.as_slice());
                    for j in 0..nrhs {
                        tri::solve_lower_inplace(lu.rb(), true, b.col_mut(j));
                        tri::solve_upper_inplace(lu.rb(), b.col_mut(j));
                    }
                    black_box(b.as_slice()[0])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_trsm);
criterion_main!(benches);
