//! Criterion benchmarks: the solve phase under the two storage modes
//! (Table IV's measurement core at micro scale).
//!
//! An A/B of two builds runs the one group alone, alternating the builds,
//! under `RAYON_NUM_THREADS=1`: at the pool's default width the GSKS
//! bench's `solver_shapes` rows, the summations these solves run, spread
//! 0.23–2.6 in pair ratio between two builds on a 2-vCPU host (see
//! `benches/gsks.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{factorize, SolverConfig, StorageMode};
use kfds_kernels::Gaussian;
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::hint::black_box;

fn bench_solve(c: &mut Criterion) {
    let n = 2048;
    let points = normal_embedded(n, 3, 16, 0.05, 7);
    let kernel = Gaussian::new(2.0);
    let tree = BallTree::build(&points, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(0.0).with_max_rank(48).with_neighbors(8),
    );
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();

    let mut group = c.benchmark_group("solve_2K");
    group.sample_size(20);
    for (mode, label) in
        [(StorageMode::StoredGemv, "stored_gemv"), (StorageMode::Gsks, "gsks_fused")]
    {
        let cfg = SolverConfig::default().with_lambda(1.0).with_storage(mode);
        let ft = factorize(&st, &kernel, cfg).expect("factorize");
        group.bench_with_input(BenchmarkId::new("solve", label), &mode, |bch, _| {
            bch.iter(|| {
                let mut x = b.clone();
                ft.solve_in_place(&mut x).expect("solve");
                black_box(x[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
