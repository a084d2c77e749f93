//! Deterministic suite for the Miri lane (`ci.sh --miri` runs
//! `cargo miri test -p kfds-la --test miri`).
//!
//! Small, fixed-size exercises of exactly the code where the unsafe
//! reasoning lives: `MatMut` raw-pointer views (element access, disjoint
//! splits, cross-thread sends), the workspace pool's `set_len`
//! round-trips, the portable BLAS paths those views feed, and the GSKS
//! tile kernels' safe wrappers on strided and degenerate views. Under Miri,
//! `simd::cpu_supported()` is hard-wired `false`, so dispatch takes the
//! portable lanes (the same bits as the vector bodies), which the
//! interpreter can check. The suite also runs
//! in every plain `cargo test` (it is fast), keeping it from bitrotting
//! between Miri-capable hosts.

use kfds_la::{blas1, blas2, gemm, Mat, MatMut, Trans};
use kfds_la::{simd, workspace};

#[test]
fn simd_dispatch_is_scalar_under_miri() {
    if cfg!(miri) {
        assert!(!kfds_la::simd::cpu_supported());
        assert!(!kfds_la::simd::avx512_supported());
        assert!(!kfds_la::simd::active());
    }
}

#[test]
fn matmut_views_read_and_write_in_bounds() {
    let mut m = Mat::from_fn(5, 4, |i, j| (i + 10 * j) as f64);
    let mut v = m.rb_mut();
    assert_eq!(v.get(4, 3), 34.0);
    v.set(2, 1, -1.0);
    v.col_mut(0)[0] = 7.0;
    assert_eq!(m[(2, 1)], -1.0);
    assert_eq!(m[(0, 0)], 7.0);
}

#[test]
fn matmut_disjoint_splits_cover_the_matrix() {
    let mut m = Mat::zeros(6, 6);
    {
        let (mut left, mut right) = m.rb_mut().split_at_col(2);
        for j in 0..left.ncols() {
            left.col_mut(j).fill(1.0);
        }
        let (mut top, mut bot) = right.rb_mut().split_at_row(3);
        for j in 0..top.ncols() {
            for i in 0..top.nrows() {
                top.set(i, j, 2.0);
            }
        }
        for j in 0..bot.ncols() {
            for i in 0..bot.nrows() {
                bot.set(i, j, 3.0);
            }
        }
    }
    let mut counts = [0usize; 4];
    for &x in m.as_slice() {
        counts[x as usize] += 1;
    }
    assert_eq!(counts, [0, 12, 12, 12], "splits must tile the matrix exactly");
}

#[test]
fn matmut_halves_solve_on_two_threads() {
    // The `unsafe impl Send for MatMut` contract, exercised: disjoint
    // halves of one allocation written from two scoped threads.
    let mut m = Mat::zeros(4, 8);
    let (mut left, mut right) = m.rb_mut().split_at_col(4);
    std::thread::scope(|s| {
        s.spawn(move || {
            for j in 0..left.ncols() {
                left.col_mut(j).fill(-1.0);
            }
        });
        s.spawn(move || {
            for j in 0..right.ncols() {
                right.col_mut(j).fill(1.0);
            }
        });
    });
    let sum: f64 = m.as_slice().iter().sum();
    assert_eq!(sum, 0.0);
    assert!(m.as_slice().iter().all(|&x| x == -1.0 || x == 1.0));
}

#[test]
fn workspace_pool_roundtrip_reuses_initialized_memory() {
    // take → write → drop (files via `set_len`) → take again: the pool
    // invariant says the recycled buffer is fully initialized.
    let len = 100; // non-power-of-two: exercises class rounding
    {
        let mut w = workspace::take(len);
        assert_eq!(w.len(), len);
        w.fill(3.5);
    }
    let w2 = workspace::take(len);
    assert_eq!(w2.len(), len);
    let _sum: f64 = w2.iter().sum(); // every element must be readable
    drop(w2);

    let z = workspace::take_zeroed(len);
    assert!(z.iter().all(|&x| x == 0.0), "take_zeroed must scrub recycled buffers");
}

#[test]
fn workspace_detached_mat_giveback() {
    let m = workspace::take_mat_detached(5, 5);
    workspace::give_vec(m.into_vec()); // foreign buffer filed back safely
    let back = workspace::take(25);
    assert_eq!(back.len(), 25);
}

#[test]
fn scalar_blas_and_gemm_small_cases() {
    let x = [1.0, 2.0, 3.0, 4.0, 5.0];
    let mut y = [5.0, 4.0, 3.0, 2.0, 1.0];
    assert_eq!(blas1::dot(&x, &y), 35.0);
    blas1::axpy(2.0, &x, &mut y);
    assert_eq!(y, [7.0, 8.0, 9.0, 10.0, 11.0]);
    assert_eq!(blas1::iamax(&y), Some(4));

    let a = Mat::from_fn(3, 2, |i, j| (i + 1) as f64 * (j + 1) as f64);
    let mut out = vec![0.0; 3];
    blas2::gemv(1.0, a.rb(), &[1.0, 1.0], 0.0, &mut out);
    assert_eq!(out, vec![3.0, 6.0, 9.0]);

    let b = Mat::from_fn(2, 3, |i, j| (i == j) as usize as f64);
    let mut c = Mat::zeros(3, 3);
    gemm(1.0, a.rb(), Trans::No, b.rb(), Trans::No, 0.0, c.rb_mut());
    for i in 0..3 {
        for j in 0..2 {
            assert_eq!(c[(i, j)], a[(i, j)]);
        }
        assert_eq!(c[(i, 2)], 0.0);
    }
}

#[test]
fn recursive_trsm_and_skinny_gemm_on_views() {
    // One split of the TRSM recursion (n = 40 > the 32-row leaf) on
    // `split_at_row` views, and a 4-column product on strided windows —
    // the scalar packed path here, the unpacked kernel where AVX-512 runs.
    let n = 40;
    let l = Mat::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Greater => 0.05 * ((i * 3 + j) % 11) as f64,
        std::cmp::Ordering::Equal => 2.0,
        std::cmp::Ordering::Less => f64::NAN,
    });
    let x = Mat::from_fn(n, 3, |i, j| 1.0 + ((i + 2 * j) % 5) as f64);
    // B = L X, formed by hand (the strict upper triangle is poison).
    let mut b = Mat::from_fn(n, 3, |i, j| (0..=i).map(|p| l[(i, p)] * x[(p, j)]).sum());
    kfds_la::tri::solve_lower_mat_inplace(l.rb(), false, b.rb_mut());
    for (got, want) in b.as_slice().iter().zip(x.as_slice()) {
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    // Dyadic entries: every product and partial sum is exact, so the
    // window must hold exactly C - A B under either path.
    let big_a = Mat::from_fn(23, 12, |i, j| (i + 2 * j) as f64 * 0.125);
    let big_b = Mat::from_fn(11, 6, |i, j| (3 * i + j) as f64 * 0.25);
    let mut big_c = Mat::from_fn(22, 7, |i, j| (i * j) as f64);
    let (a, bv) = (big_a.submatrix(2..22, 1..10), big_b.submatrix(1..10, 2..6));
    gemm(-1.0, a, Trans::No, bv, Trans::No, 1.0, big_c.rb_mut().submatrix_mut(1..21, 2..6));
    for j in 0..7 {
        for i in 0..22 {
            let mut want = (i * j) as f64;
            if (1..21).contains(&i) && (2..6).contains(&j) {
                want -= (0..9).map(|p| a.get(i - 1, p) * bv.get(p, j - 2)).sum::<f64>();
            }
            assert_eq!(big_c[(i, j)], want, "({i},{j})");
        }
    }
}

#[test]
fn packed_gemm_on_a_view_wide_enough_for_the_16x12_tile() {
    // A 19 x 25 window of C (col_stride 23) from 19 x 5 and 5 x 25 windows:
    // one 16 x 12 panel pair and its edges where AVX-512 runs (25 columns
    // keep it off the skinny path), the scalar tile under Miri. Dyadic
    // entries make every product and partial sum exact, so each tile must
    // give exactly C + A B, and nothing outside the window may move.
    let big_a = Mat::from_fn(21, 7, |i, j| (i + 3 * j) as f64 * 0.25 - 2.0);
    let big_b = Mat::from_fn(6, 27, |i, j| ((2 * i + j) % 7) as f64 * 0.5 - 1.0);
    let c0 = Mat::from_fn(23, 27, |i, j| ((i * j) % 5) as f64);
    let mut big_c = c0.clone();
    let (a, b) = (big_a.submatrix(1..20, 1..6), big_b.submatrix(0..5, 1..26));
    gemm(1.0, a, Trans::No, b, Trans::No, 1.0, big_c.rb_mut().submatrix_mut(2..21, 1..26));
    for j in 0..27 {
        for i in 0..23 {
            let mut want = c0[(i, j)];
            if (2..21).contains(&i) && (1..26).contains(&j) {
                want += (0..5).map(|p| a.get(i - 2, p) * b.get(p, j - 1)).sum::<f64>();
            }
            assert_eq!(big_c[(i, j)], want, "({i},{j})");
        }
    }
}

#[test]
fn dist_filter_portable_body_stays_inside_its_buffers() {
    // 11 queries (a ragged second group) against 5 candidates in 3-d, on
    // small integers so every distance is exact: the masks must be exactly
    // "distance <= either threshold", and buffers sized to the layout contract —
    // not a word more — must be enough.
    let (m, d, nc) = (11usize, 3usize, 5usize);
    let q = |i: usize, k: usize| ((i * 7 + k * 3) % 5) as f64;
    let c = |j: usize, k: usize| ((j * 2 + k) % 4) as f64;
    let mut qpack = vec![0.0; 16 * d];
    let mut qn = vec![0.0; 16];
    for i in 0..m {
        for k in 0..d {
            qpack[(i / 8 * d + k) * 8 + i % 8] = q(i, k);
            qn[i] += q(i, k) * q(i, k);
        }
    }
    let cand: Vec<f64> = (0..nc * d).map(|x| c(x / d, x % d)).collect();
    let cn: Vec<f64> = cand.chunks(d).map(|p| p.iter().map(|v| v * v).sum()).collect();
    let thr: Vec<f64> =
        (0..16).map(|i| if i < m { (i % 4) as f64 * 3.0 } else { f64::INFINITY }).collect();
    // One-sided (every candidate threshold −∞), then two-sided: candidate
    // thresholds ORed in, the last one +∞ (its whole column flagged, still
    // no padding bit).
    let one_sided = vec![f64::NEG_INFINITY; nc];
    let two_sided: Vec<f64> =
        (0..nc).map(|j| if j + 1 < nc { (j % 3) as f64 * 2.0 } else { f64::INFINITY }).collect();
    for cthr in [&one_sided, &two_sided] {
        let mut masks = vec![usize::MAX; 2 * nc];
        kfds_la::simd::dist_filter(m, &qpack, &qn, &thr, &cand, &cn, cthr, &mut masks);
        for g in 0..2 {
            for j in 0..nc {
                let mut want = 0usize;
                for r in 0..(m - 8 * g).min(8) {
                    let dist: f64 = (0..d).map(|k| (q(8 * g + r, k) - c(j, k)).powi(2)).sum();
                    want |= usize::from(dist <= thr[8 * g + r] || dist <= cthr[j]) << r;
                }
                assert_eq!(masks[g * nc + j], want, "group {g}, candidate {j}");
            }
        }
    }
}

#[test]
fn gsks_kernels_on_views_and_pooled_row_packs() {
    // Small integers throughout, so every product and partial sum is
    // exact and the portable lanes (Miri) and the vector bodies
    // (elsewhere) both equal the naive sums. The sources are a window one
    // point into a 10-point panel, as the engine reads a contiguous run in
    // place, and every operand is exactly 8 x d elements, so a read past
    // its end is outside it.
    let d = 3;
    let panel: Vec<f64> = (0..10 * d).map(|i| ((i * 5) % 7) as f64 - 3.0).collect();
    let ys = &panel[d..9 * d];
    let mut tiles = [[f64::NAN; 64]; 2];
    for round in 0..3 {
        // Two row groups' packs from the pool the way the engine takes
        // them; later rounds get the earlier rounds' buffer back.
        let mut xg = workspace::take(16 * d);
        for (i, x) in xg.iter_mut().enumerate() {
            *x = ((i + round) % 5) as f64 - 2.0;
        }
        let (x0, x1) = xg.split_at(8 * d);
        let [t0, t1] = &mut tiles;
        simd::gsks_gram([x0, x1], ys, d, [t0, t1]);
        for (g, (x, tile)) in [x0, x1].iter().zip(&tiles).enumerate() {
            for c in 0..8 {
                for r in 0..8 {
                    let want: f64 = (0..d).map(|k| x[k * 8 + r] * ys[c * d + k]).sum();
                    assert_eq!(tile[c * 8 + r], want, "round {round}: group {g} ({r},{c})");
                }
            }
        }
    }
    let tile = tiles[0];

    // One weight column: five live columns, a group of four and a padded one.
    let u = [1.0, -2.0, 0.5, 3.0, 2.0];
    let mut acc = [1.0; 8];
    simd::gsks_dot(&tile, &u, &mut acc);
    for (r, a) in acc.iter().enumerate() {
        let want: f64 = 1.0 + (0..5).map(|c| tile[c * 8 + r] * u[c]).sum::<f64>();
        assert_eq!(*a, want, "dot row {r}");
    }

    // Several: a run of two tiles, 13 source columns (the second tile
    // partial), into W of two, one and a half, one, a part and no row
    // groups. U is rows 1..14, columns 1..4 of a 16 x 4 matrix; W is rows
    // 2..2 + rows of a poisoned 19 x 4 one — both col_stride > nrows. The
    // run holds row group g against source column c at g * 128 + c * 8 + r.
    let run: Vec<f64> = (0..2 * 128).map(|i| ((i * 3) % 5) as f64 - 2.0).collect();
    let big_u = Mat::from_fn(16, 4, |i, j| ((i + 3 * j) % 4) as f64 - 1.0);
    let uv = big_u.submatrix(1..14, 1..4);
    for rows in [16usize, 13, 8, 5, 0] {
        let mut big_w = Mat::from_fn(19, 4, |_, _| -7.0);
        simd::gsks_contract_run(&run, uv, big_w.rb_mut().submatrix_mut(2..2 + rows, 1..4));
        for j in 0..4 {
            for i in 0..19 {
                let inside = (2..2 + rows).contains(&i) && j >= 1;
                let want = if inside {
                    let r = i - 2;
                    let kv = |c: usize| run[r / 8 * 128 + c * 8 + r % 8];
                    -7.0 + (0..13).map(|c| kv(c) * uv.get(c, j - 1)).sum::<f64>()
                } else {
                    -7.0
                };
                assert_eq!(big_w[(i, j)], want, "contract rows={rows} ({i},{j})");
            }
        }
    }

    // No right-hand side, and no source column: nothing to do.
    let mut w = Mat::from_fn(16, 2, |_, _| 5.0);
    simd::gsks_contract_run(
        &run,
        big_u.submatrix(0..4, 0..0),
        w.rb_mut().submatrix_mut(0..16, 0..0),
    );
    simd::gsks_contract_run(&[], big_u.submatrix(0..0, 0..2), w.rb_mut());
    assert!(w.as_slice().iter().all(|&x| x == 5.0));
    let mut acc = [2.0; 8];
    simd::gsks_dot(&tile, &[], &mut acc);
    assert_eq!(acc, [2.0; 8]);
}

#[test]
fn rank1_update_on_strided_empty_and_one_column_views() {
    // Small integers and halves: every product and sum is exact, so fused
    // and unfused agree and each body equals the naive update. C is rows
    // 1..12, columns 1..4 of a 14 x 5 matrix (col_stride 14 > 11 rows);
    // its row 0 holds the multipliers, one of them -0.0 (skipped).
    let x = [1.0, -2.0, 3.0, 0.5, 4.0, -1.0, 2.0, 1.0, -3.0];
    let c0 = Mat::from_fn(14, 5, |i, j| match (i, j) {
        (1, 2) => -0.0,
        _ => (i + 3 * j) as f64 - 6.0,
    });
    let mut c = c0.clone();
    simd::rank1_update(&x, 0, 2, c.rb_mut().submatrix_mut(1..12, 1..4));
    for j in 0..5 {
        for i in 0..14 {
            let mut want = c0[(i, j)];
            if (1..4).contains(&j) && (3..12).contains(&i) {
                want += -c0[(1, j)] * x[i - 3];
            }
            assert_eq!(c[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
        }
    }

    // One column, the multipliers below the updated rows.
    let mut col = vec![2.0, 4.0, -1.0, 0.5];
    simd::rank1_update(&x[..3], 3, 0, MatMut::from_col(&mut col));
    assert_eq!(col, [1.5, 5.0, -2.5, 0.5]);

    // No rows, no columns: nothing moves.
    let mut c = c0.clone();
    simd::rank1_update(&[], 0, 1, c.rb_mut().submatrix_mut(0..4, 0..3));
    simd::rank1_update(&x, 0, 1, c.rb_mut().submatrix_mut(0..10, 2..2));
    assert_eq!(c, c0);
}

#[test]
#[should_panic(expected = "row swap out of range")]
fn swap_rows_rejects_out_of_range_indices() {
    // Out of range but still inside the allocation: without the bounds
    // assert this would silently swap elements of the next column.
    let mut m = Mat::zeros(3, 4);
    m.swap_rows(0, 3);
}

#[test]
#[should_panic(expected = "column swap out of range")]
fn swap_cols_rejects_out_of_range_indices() {
    let mut m = Mat::zeros(3, 4);
    m.swap_cols(4, 0);
}

#[test]
#[should_panic(expected = "view out of bounds")]
fn matmut_from_parts_rejects_short_slices() {
    let mut data = vec![0.0; 10];
    let _ = MatMut::from_parts(&mut data, 4, 3, 4); // needs 12
}
