//! Criterion benchmarks: the two renderings of the hybrid solver's reduced
//! operator `I + VW` at the `covtype_hybrid` shape (n = 8192, d = 54, eight
//! frontier nodes, s = 128, so `reduced_dim` = 1024). `assemble` is paid
//! once per factor and buys `gemv_1024` per GMRES iteration in place of
//! `apply_w_v`: the A/B behind the "≈ 3 applies" of DESIGN.md §5.12 and
//! behind sizing the dense operator against the factor's own bytes. Before
//! the groups it prints how a first and a second `solve` on one solver
//! split into assembly, GMRES and the `D⁻¹` + `V` + `W` remainder.

use criterion::{criterion_group, criterion_main, Criterion};
use kfds_askit::{skeletonize, SkelConfig};
use kfds_core::{factorize, HybridSolver, SolverConfig};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_la::blas2::gemv;
use kfds_tree::datasets::{spec_by_name, table2_standin};
use kfds_tree::BallTree;
use std::hint::black_box;
use std::time::Instant;

fn bench_hybrid_reduced(c: &mut Criterion) {
    let n = 8192;
    let spec = spec_by_name("COVTYPE").expect("COVTYPE is a Table II dataset");
    let points = table2_standin(spec, n, 1);
    let kernel = Gaussian::new(0.2 * (2.0 * spec.d as f64).sqrt());
    let st = skeletonize(
        BallTree::build(&points, 128),
        &kernel,
        SkelConfig::default()
            .with_tol(1e-3)
            .with_max_rank(128)
            .with_neighbors(16)
            .with_max_level(3),
    );
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(0.3)).expect("factorize");
    let hs = HybridSolver::new(&ft).expect("hybrid solver");
    let r = hs.reduced_dim();
    println!(
        "# reduced_dim {r}: dense operator {} bytes, factor {} bytes",
        8 * r * r,
        ft.stats().stored_bytes
    );
    let z: Vec<f64> = (0..r).map(|i| (i as f64 * 0.17).cos()).collect();

    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let opts = GmresOptions { tol: 1e-8, max_iters: 400, restart: 60, reorthogonalize: true };
    for which in ["first", "second"] {
        let t0 = Instant::now();
        let out = hs.solve(&b, &opts).expect("hybrid solve");
        let total = t0.elapsed().as_secs_f64();
        let krylov = out.gmres.trace.last().map_or(0.0, |e| e.seconds);
        let assembly = out.reduced.assembly_seconds;
        println!(
            "# {which} solve {:.1} ms = assembly {:.1} + GMRES {:.1} ({} iterations, {}) + rest {:.1}",
            total * 1e3,
            assembly * 1e3,
            krylov * 1e3,
            out.gmres.iters,
            out.reduced.operator,
            (total - assembly - krylov) * 1e3,
        );
    }

    let mut group = c.benchmark_group("hybrid_reduced_8K");
    group.sample_size(10);
    group.bench_function("assemble", |b| b.iter(|| black_box(hs.assemble_reduced())));
    group.bench_function("apply_w_v", |b| {
        let mut wz = vec![0.0; n];
        b.iter(|| {
            hs.apply_w_pub(black_box(&z), &mut wz);
            black_box(hs.apply_v_pub(&wz))
        })
    });
    group.bench_function("gemv_1024", |b| {
        let dense = hs.assemble_reduced();
        let mut out = vec![0.0; r];
        b.iter(|| {
            gemv(1.0, dense.rb(), black_box(&z), 0.0, &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hybrid_reduced);
criterion_main!(benches);
