//! Deterministic suite for the Miri lane (`ci.sh --miri` runs
//! `cargo miri test -p kfds-la --test miri`).
//!
//! Small, fixed-size exercises of exactly the code where the unsafe
//! reasoning lives: `MatMut` raw-pointer views (element access, disjoint
//! splits, cross-thread sends), the workspace pool's `set_len`
//! round-trips, and the scalar BLAS paths those views feed. Under Miri,
//! `simd::cpu_supported()` is hard-wired `false`, so dispatch takes the
//! scalar reference paths the interpreter can check. The suite also runs
//! in every plain `cargo test` (it is fast), keeping it from bitrotting
//! between Miri-capable hosts.

use kfds_la::workspace;
use kfds_la::{blas1, blas2, gemm, Mat, MatMut, Trans};

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
fn workspace_mat_and_detached_giveback() {
    let mut wm = workspace::take_mat_zeroed(7, 3);
    wm.col_mut(2)[6] = 9.0;
    assert_eq!(wm.rb().get(6, 2), 9.0);
    drop(wm);

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
fn dist_filter_scalar_body_stays_inside_its_buffers() {
    // 11 queries (a ragged second group) against 5 candidates in 3-d, on
    // small integers so every distance is exact: the masks must be exactly
    // "distance <= threshold", and buffers sized to the layout contract —
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
    let mut masks = vec![usize::MAX; 2 * nc];
    kfds_la::simd::dist_filter(m, &qpack, &qn, &thr, &cand, &cn, &mut masks);
    for g in 0..2 {
        for j in 0..nc {
            let mut want = 0usize;
            for r in 0..(m - 8 * g).min(8) {
                let dist: f64 = (0..d).map(|k| (q(8 * g + r, k) - c(j, k)).powi(2)).sum();
                want |= usize::from(dist <= thr[8 * g + r]) << r;
            }
            assert_eq!(masks[g * nc + j], want, "group {g}, candidate {j}");
        }
    }
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
