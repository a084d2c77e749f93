//! Blocked vs unblocked column-pivoted QR on skeletonization shapes.
//!
//! The ID inside `skeletonize_node` factors sampled blocks whose rows are
//! `cols + oversample` and whose columns are a node's points (leaves) or
//! the children's combined skeletons (internal nodes) — tall-ish blocks of
//! a few hundred rows and 64–256 columns, truncated at `max_rank`. This
//! bench compares the BLAS-2 one-reflector path (what `factor_truncated`
//! runs below 48 columns) against the blocked `DLAQPS`-style panel path
//! on those shapes:
//!
//! * `unblocked` — one Householder application to the whole trailing
//!   matrix per pivot step (memory-bound, BLAS-2).
//! * `blocked`   — panels of `NB` pivots, one rank-`NB` GEMM write-back
//!   per panel through the SIMD microkernels (BLAS-3).
//!
//! ```sh
//! cargo bench -p kfds-bench --bench cpqr_shapes
//! ```
//!
//! `gemv_t` times the transposed GEMV the blocked path accumulates each
//! pivot's `F` row with (`blas2::gemv_t`, `beta = 0`: the `dgemv_t_*`
//! body the host dispatches to) at three block shapes of the adaptive
//! CPQR's range, 160 × 128, 288 × 256 and 416 × 384, so one body can be
//! A/B'd against another alone
//! (`cargo bench -p kfds-bench --bench cpqr_shapes -- gemv_t`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_la::blas2::gemv_t;
use kfds_la::{ColPivQr, Mat};
use std::hint::black_box;

fn rand_mat(m: usize, n: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

/// Matrix with geometrically decaying column norms, so truncation at a
/// tolerance exercises the early-exit paths like a real kernel block does.
fn decaying_mat(m: usize, n: usize, base: f64, seed: u64) -> Mat {
    let mut a = rand_mat(m, n, seed);
    for j in 0..n {
        let s = base.powi(j as i32 / 4);
        for v in a.col_mut(j) {
            *v *= s;
        }
    }
    a
}

fn bench_cpqr(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpqr_shapes");
    group.sample_size(10);
    // (m, n, max_rank): leaf blocks, internal skeleton-union blocks, and a
    // full-rank square reference.
    for &(m, n, max_rank) in
        &[(192usize, 128usize, 128usize), (384, 128, 128), (384, 256, 128), (512, 512, 256)]
    {
        let a = decaying_mat(m, n, 0.9, (m * n) as u64);
        group.bench_with_input(
            BenchmarkId::new("unblocked", format!("{m}x{n}_r{max_rank}")),
            &m,
            |bch, _| {
                bch.iter(|| {
                    black_box(
                        ColPivQr::factor_truncated_unblocked(a.clone(), 1e-10, max_rank).rank(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{n}_r{max_rank}")),
            &m,
            |bch, _| {
                bch.iter(|| {
                    black_box(ColPivQr::factor_truncated_blocked(a.clone(), 1e-10, max_rank).rank())
                })
            },
        );
    }
    group.finish();
}

fn bench_gemv_t(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemv_t");
    for &(m, n) in &[(160usize, 128usize), (288, 256), (416, 384)] {
        let a = rand_mat(m, n, (m * n) as u64);
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; n];
        group.bench_function(format!("{m}x{n}"), |bch| {
            bch.iter(|| {
                gemv_t(1.0, a.rb(), &x, 0.0, &mut y);
                black_box(y[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cpqr, bench_gemv_t);
criterion_main!(benches);
