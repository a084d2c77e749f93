//! Criterion micro-benchmarks for the blocked kNN searches.
//!
//! `knn_shapes` covers both search modes across the shapes the solver
//! harness actually uses: exact leaf-blocked search at moderate ambient
//! dimension (n = 4096, and the three n = 8192 shapes of the `benchmark/`
//! ledger: `lowdim_lambda_sweep`, `covtype_hybrid`, `serve_closed_loop`)
//! and randomized-projection approximate search at d = 64 (the route
//! `harness_skel_config` picks for dim >= 64).
//!
//! `dist_filter` isolates what resolves one 128 x 128 leaf pair (16384
//! pairs per iteration — pairs/s is 16384 over the printed time) once the
//! heaps are full: the GEMM tile in memory plus one heap offer per entry,
//! against the fused filter, its mask scan and an exact re-score of what
//! it flags.
//!
//! `approx_parts` splits the approximate search at the `normal64d_direct`
//! shape (n = 16384, d = 64, k = 16, 8 trees, buckets of 64) into rows a
//! later change can alternate one at a time: the projection trees alone;
//! one projection tree with its seed pass (a search with one tree); and
//! one bucket of 64 filtered against itself, under each member's 16th
//! nearest distance in the bucket, both ways — one-sided over the full
//! block with each flagged ordered pair re-scored by one `sq_dist`, and
//! two-sided over the upper block triangle (16-row bands) with each
//! flagged unordered pair re-scored once, batched through `sq_dist_sums`.

use criterion::{criterion_group, criterion_main, Criterion};
use kfds_la::simd::{dist_filter, DIST_FILTER_MR};
use kfds_la::Mat;
use kfds_tree::datasets::{normal_embedded, spec_by_name, table2_standin};
use kfds_tree::dist_tiles::dist_tile_ranges;
use kfds_tree::neighbors::projection_buckets;
use kfds_tree::points::{sq_dist, sq_dist_sums};
use kfds_tree::{knn_all, knn_approximate, BallTree, PointSet};
use std::hint::black_box;

fn bench_knn_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_shapes");
    group.sample_size(10);

    // Exact leaf-blocked search: (points, leaf, k).
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
        group.bench_function(format!("exact{k}_n{n}_d{d}_m{leaf}"), |b| {
            b.iter(|| black_box(knn_all(&tree, *k).k()))
        });
    }

    // Approximate projection-tree search at d = 64 (8 trees, like the
    // harness): batched projections + filtered buckets.
    let pts = normal_embedded(8192, 6, 64, 0.1, 17);
    let tree = BallTree::build(&pts, 128);
    group.bench_function("approx16_t8_n8192_d64", |b| {
        b.iter(|| black_box(knn_approximate(&tree, 16, 8, 42).k()))
    });
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
        let no_cthr = vec![f64::NEG_INFINITY; M];
        let mut best = worst.clone();
        group.bench_function(format!("filter_scan_rescore_d{d}"), |b| {
            b.iter(|| {
                dist_filter(M, &qpack, &norms[..M], &thr, cand, &norms[M..], &no_cthr, &mut masks);
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

fn bench_approx_parts(c: &mut Criterion) {
    const K: usize = 16;
    let mut group = c.benchmark_group("approx_parts");
    group.sample_size(10);
    let pts = normal_embedded(16384, 6, 64, 0.1, 17);
    let tree = BallTree::build(&pts, 128);
    let pts = tree.points();
    group.bench_function("projection_trees_t8_n16384_d64", |b| {
        b.iter(|| black_box(projection_buckets(pts, K, 8, 42).1.len()))
    });
    group.bench_function("approx16_t1_n16384_d64", |b| {
        b.iter(|| black_box(knn_approximate(&tree, K, 1, 42).k()))
    });

    // One bucket of the second tree, gathered and packed as the search
    // packs it.
    let mem = &projection_buckets(pts, K, 8, 42).1[1][0];
    let (m, d) = (mem.len(), pts.dim());
    let panel: Vec<f64> = mem.iter().flat_map(|&i| pts.point(i as usize).to_vec()).collect();
    let norms: Vec<f64> = panel.chunks(d).map(|x| x.iter().map(|v| v * v).sum()).collect();
    let max_norm = norms.iter().copied().fold(0.0, f64::max);
    let rows = m.next_multiple_of(DIST_FILTER_MR);
    let mut qpack = vec![0.0; rows * d];
    let mut qn = vec![0.0; rows];
    let mut thr = vec![f64::NEG_INFINITY; rows];
    for i in 0..m {
        for (k, &v) in panel[i * d..(i + 1) * d].iter().enumerate() {
            qpack[(i / DIST_FILTER_MR * d + k) * DIST_FILTER_MR + i % DIST_FILTER_MR] = v;
        }
        qn[i] = norms[i];
        let mut ds: Vec<f64> = (0..m)
            .filter(|&j| j != i)
            .map(|j| pts.sq_dist(mem[i] as usize, mem[j] as usize))
            .collect();
        ds.sort_by(f64::total_cmp);
        let gamma = 2.0 * (d as f64 + 8.0) * f64::EPSILON;
        thr[i] = ds[K - 1] + gamma * (norms[i] + max_norm);
    }
    let point = |i: usize| &panel[i * d..(i + 1) * d];
    let mut masks = vec![0usize; rows / DIST_FILTER_MR * m];
    let none = vec![f64::NEG_INFINITY; m];
    let mut sink = 0.0;
    group.bench_function("bucket64_one_sided_full_d64", |b| {
        b.iter(|| {
            dist_filter(m, &qpack, &qn, &thr, &panel, &norms, &none, &mut masks);
            for (g, row) in masks.chunks_exact(m).enumerate() {
                for (j, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = DIST_FILTER_MR * g + bits.trailing_zeros() as usize;
                        if i != j {
                            sink += sq_dist(point(i), point(j));
                        }
                        bits &= bits - 1;
                    }
                }
            }
            black_box(sink)
        })
    });
    let mut pairs: Vec<usize> = Vec::with_capacity(m * m);
    let mut dist = vec![0.0; m * m];
    group.bench_function("bucket64_two_sided_upper_d64", |b| {
        b.iter(|| {
            pairs.clear();
            for r0 in (0..m).step_by(2 * DIST_FILTER_MR) {
                let band = (2 * DIST_FILTER_MR).min(m - r0);
                let nc = m - r0;
                let words = band.div_ceil(DIST_FILTER_MR) * nc;
                dist_filter(
                    band,
                    &qpack[r0 * d..],
                    &qn[r0..],
                    &thr[r0..],
                    &panel[r0 * d..],
                    &norms[r0..],
                    &thr[r0..m],
                    &mut masks[..words],
                );
                for (g, row) in masks[..words].chunks_exact(nc).enumerate() {
                    for (j, &word) in row.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let i = r0 + DIST_FILTER_MR * g + bits.trailing_zeros() as usize;
                            if i < r0 + j {
                                pairs.extend([i, r0 + j]);
                            }
                            bits &= bits - 1;
                        }
                    }
                }
            }
            let out = &mut dist[..pairs.len() / 2];
            let col = |j: usize| &panel[j * d..][..d];
            sq_dist_sums(|p| col(pairs[2 * p]), |p| col(pairs[2 * p + 1]), out);
            black_box(out.iter().sum::<f64>())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_knn_shapes, bench_dist_filter, bench_approx_parts);
criterion_main!(benches);
