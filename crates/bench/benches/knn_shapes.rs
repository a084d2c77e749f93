//! Criterion micro-benchmarks for the blocked vs scalar kNN paths.
//!
//! `knn_shapes` covers both search modes across the shapes the solver
//! harness actually uses: exact leaf-blocked search at moderate ambient
//! dimension (n = 4096, and the three n = 8192 shapes of the `benchmark/`
//! ledger: `lowdim_lambda_sweep`, `covtype_hybrid`, `serve_closed_loop`)
//! and randomized-projection approximate search at d = 64 (the route
//! `harness_skel_config` picks for dim >= 64). Each shape runs under both
//! `KFDS_KNN` states via the runtime override, so one binary reports the
//! A/B pair.
//!
//! `dist_filter` isolates what resolves one 128 x 128 leaf pair (16384
//! pairs per iteration — pairs/s is 16384 over the printed time) once the
//! heaps are full: the GEMM tile in memory plus one heap offer per entry,
//! against the fused filter, its mask scan and an exact re-score of what
//! it flags.

use criterion::{criterion_group, criterion_main, Criterion};
use kfds_la::simd::{dist_filter, DIST_FILTER_MR};
use kfds_la::Mat;
use kfds_tree::datasets::{normal_embedded, spec_by_name, table2_standin};
use kfds_tree::dist_tiles::dist_tile_ranges;
use kfds_tree::{knn_all, knn_approximate, set_knn_blocked, BallTree, PointSet};
use std::hint::black_box;

fn bench_knn_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_shapes");
    group.sample_size(10);

    // Exact leaf-blocked search vs per-query descent: (points, leaf, k).
    let covtype = spec_by_name("COVTYPE").expect("COVTYPE is a Table II dataset");
    let exact: [(PointSet, usize, usize); 5] = [
        (normal_embedded(4096, 4, 16, 0.1, 17), 128, 16),
        (normal_embedded(4096, 8, 54, 0.1, 17), 128, 16),
        (normal_embedded(8192, 4, 16, 0.05, 17), 128, 16),
        (table2_standin(covtype, 8192, 17), 128, 16),
        (normal_embedded(8192, 3, 8, 0.05, 17), 256, 8),
    ];
    for (pts, leaf, k) in &exact {
        let tree = BallTree::build(pts, *leaf);
        let (n, d) = (pts.len(), pts.dim());
        for &blocked in &[true, false] {
            set_knn_blocked(blocked);
            let tag = if blocked { "blocked" } else { "scalar" };
            group.bench_function(format!("exact{k}_n{n}_d{d}_m{leaf}_{tag}"), |b| {
                b.iter(|| black_box(knn_all(&tree, *k).k()))
            });
        }
    }

    // Approximate projection-tree path at d = 64 (8 trees, like the
    // harness), batched projections + filtered buckets vs the scalar path.
    let pts = normal_embedded(8192, 6, 64, 0.1, 17);
    let tree = BallTree::build(&pts, 128);
    for &blocked in &[true, false] {
        set_knn_blocked(blocked);
        let tag = if blocked { "blocked" } else { "scalar" };
        group.bench_function(format!("approx16_t8_n8192_d64_{tag}"), |b| {
            b.iter(|| black_box(knn_approximate(&tree, 16, 8, 42).k()))
        });
    }

    set_knn_blocked(true);
    group.finish();
}

fn bench_dist_filter(c: &mut Criterion) {
    const M: usize = 128;
    let mut group = c.benchmark_group("dist_filter");
    for &d in &[8usize, 16, 54] {
        // Queries 0..128 against candidates 128..256; every query's heap is
        // full, its k-th best being its nearest candidate of this block —
        // the steady state in which nearly every pair is turned away.
        let pts = normal_embedded(2 * M, 4, d, 0.05, 17);
        let norms = pts.sq_norms();
        let max_norm = norms.iter().copied().fold(0.0, f64::max);
        let worst: Vec<f64> = (0..M)
            .map(|i| (M..2 * M).map(|j| pts.sq_dist(i, j)).fold(f64::INFINITY, f64::min))
            .collect();

        let mut tile = Mat::zeros(M, M);
        let mut heaps: Vec<Vec<(f64, u32)>> = worst.iter().map(|&w| vec![(w, 0); 16]).collect();
        group.bench_function(format!("tile_then_heap_offers_d{d}"), |b| {
            b.iter(|| {
                dist_tile_ranges(&pts, &norms, 0..M, M..2 * M, tile.rb_mut());
                for j in 0..M {
                    for (heap, &v) in heaps.iter_mut().zip(tile.col(j)) {
                        if v < heap[0].0 {
                            heap[0] = (v, (M + j) as u32);
                            heap.sort_by(|a, b| b.0.total_cmp(&a.0));
                        }
                    }
                }
                black_box(heaps[0][0].0)
            })
        });

        let mut qpack = vec![0.0; M * d];
        for i in 0..M {
            for (k, &v) in pts.point(i).iter().enumerate() {
                qpack[(i / DIST_FILTER_MR * d + k) * DIST_FILTER_MR + i % DIST_FILTER_MR] = v;
            }
        }
        let gamma = 2.0 * (d as f64 + 8.0) * f64::EPSILON;
        let thr: Vec<f64> = (0..M).map(|i| worst[i] + gamma * (norms[i] + max_norm)).collect();
        let cand = &pts.as_slice()[M * d..];
        let mut masks = vec![0usize; M / DIST_FILTER_MR * M];
        let mut best = worst.clone();
        group.bench_function(format!("filter_scan_rescore_d{d}"), |b| {
            b.iter(|| {
                dist_filter(M, &qpack, &norms[..M], &thr, cand, &norms[M..], &mut masks);
                for (g, row) in masks.chunks_exact(M).enumerate() {
                    for (j, &word) in row.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let i = DIST_FILTER_MR * g + bits.trailing_zeros() as usize;
                            best[i] = best[i].min(pts.sq_dist(i, M + j));
                            bits &= bits - 1;
                        }
                    }
                }
                black_box(best[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_knn_shapes, bench_dist_filter);
criterion_main!(benches);
