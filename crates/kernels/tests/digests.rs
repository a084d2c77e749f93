//! Golden digests of the fused summation engine.
//!
//! `sum_fused` and `sum_fused_multi` promise more than agreement with the
//! two-pass reference: every output element is one fixed sequence of
//! roundings (a Gram value chained over the coordinates, the kernel
//! transform, the weight sums in groups of four columns), whatever tile
//! layout produces it. This file holds the engine to the bits a known-good
//! build produced on a ragged sweep: every residue of `m mod 8` and
//! `n mod 8`, the right-hand-side counts and dimensions the solver meets,
//! contiguous, reversed and scattered source lists, repeated targets, and
//! the Gaussian and Laplacian kernels.
//!
//! One constant, [`VECTOR`], binds both lanes on any host: the vector
//! bodies (AVX2+FMA, where the AVX-512 bodies give the AVX2 bodies' bits)
//! and the portable ones, which run the same chains. It was recorded at
//! commit 74324e4 on an AVX-512 host, the last with the dimension-major
//! source pack and the transposed `U`. On a mismatch the test prints the
//! digest each lane produces.

use kfds_kernels::{sum_fused, sum_fused_multi, Gaussian, Kernel, Laplacian};
use kfds_la::{simd, Mat};
use kfds_tree::PointSet;

/// FNV-1a over the sweep's outputs, SIMD on or off.
const VECTOR: u64 = 0xcd7fb3c7c8d304de;

const NRHS: [usize; 9] = [1, 2, 3, 7, 8, 9, 16, 17, 64];
const DIMS: [usize; 6] = [1, 3, 16, 54, 64, 130];
/// Points in every fixture set: enough for the widest source list.
const POINTS: usize = 1200;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 11
}

fn points(d: usize, seed: u64) -> PointSet {
    let mut state = seed | 1;
    let data = (0..POINTS * d).map(|_| (lcg(&mut state) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
    PointSet::from_col_major(d, data.collect())
}

/// One summation problem of the sweep.
struct Case {
    m: usize,
    n: usize,
    d: usize,
    nrhs: usize,
}

/// The sweep: all 64 residue pairs, each with a dimension and RHS count
/// cycled from the lists, then three solver-sized shapes.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for mr in 0..8 {
        for nr in 0..8 {
            let c = mr * 8 + nr;
            let m = if c % 5 == 0 { mr.max(1) } else { 8 * (c % 3 + 1) + mr };
            let n = 8 * (c % 4) + nr.max(usize::from(c % 4 == 0));
            out.push(Case { m, n, d: DIMS[c % DIMS.len()], nrhs: NRHS[c % NRHS.len()] });
        }
    }
    out.push(Case { m: 64, n: 1027, d: 54, nrhs: 64 });
    out.push(Case { m: 37, n: 517, d: 16, nrhs: 17 });
    out.push(Case { m: 71, n: 258, d: 64, nrhs: 9 });
    out
}

/// The four index layouts of one case: `(rows, cols)`.
fn layouts(case: &Case, seed: u64) -> [(Vec<usize>, Vec<usize>); 4] {
    let (m, n) = (case.m, case.n);
    let base = 3 + (seed as usize % 11);
    let rows: Vec<usize> = (0..m).map(|i| (i * 7 + 1) % POINTS).collect();
    let contiguous: Vec<usize> = (base..base + n).collect();
    let reversed: Vec<usize> = contiguous.iter().rev().copied().collect();
    let mut state = seed;
    let scattered: Vec<usize> = (0..n).map(|_| lcg(&mut state) as usize % POINTS).collect();
    // Repeated targets, some of them also among the sources.
    let repeated: Vec<usize> = (0..m).map(|i| base + (i * 5) % (m / 2 + 1)).collect();
    [
        (rows.clone(), contiguous.clone()),
        (rows.clone(), reversed),
        (rows, scattered),
        (repeated, contiguous),
    ]
}

fn weights(n: usize, nrhs: usize, seed: u64) -> Mat {
    let mut state = seed;
    Mat::from_fn(n, nrhs, |_, _| (lcg(&mut state) as f64 / (1u64 << 53) as f64) - 0.5)
}

/// One-RHS and multi-RHS outputs of one problem.
fn outputs<K: Kernel>(k: &K, pts: &PointSet, rows: &[usize], cols: &[usize], u: &Mat) -> Vec<u64> {
    let mut w = vec![f64::NAN; rows.len()];
    sum_fused(k, pts, rows, cols, u.col(0), &mut w);
    let mut wm = Mat::from_fn(rows.len(), u.ncols(), |_, _| f64::NAN);
    sum_fused_multi(k, pts, rows, cols, u.rb(), wm.rb_mut());
    w.iter().chain(wm.as_slice()).map(|v| v.to_bits()).collect()
}

/// Hashes one problem's outputs into `h`. With `moved` — another set
/// holding point `p` at position `at[p]` — the same points passed at
/// their new positions must give the same bits.
#[allow(clippy::too_many_arguments)]
fn run<K: Kernel>(
    h: &mut Fnv,
    what: &str,
    k: &K,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    u: &Mat,
    moved: Option<(&PointSet, &[usize])>,
) {
    let bits = outputs(k, pts, rows, cols, u);
    bits.iter().for_each(|&b| h.word(b));
    if let Some((other, at)) = moved {
        let map = |idx: &[usize]| idx.iter().map(|&p| at[p]).collect::<Vec<_>>();
        let again = outputs(k, other, &map(rows), &map(cols), u);
        assert_eq!(bits, again, "{what}, {}: a range and the same points as a list", k.name());
    }
}

/// The sweep's digest under whatever arithmetic is active. Along the way,
/// a contiguous source range must give the bits of the same points passed
/// as a scattered list into a permuted copy of the set.
fn sweep_digest() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Position q of a permuted copy holds point `perm[q]`; `at` inverts it.
    let perm: Vec<usize> = (0..POINTS).map(|q| (q * 367 + 11) % POINTS).collect();
    let mut at = vec![0; POINTS];
    perm.iter().enumerate().for_each(|(q, &p)| at[p] = q);
    for (ci, case) in cases().iter().enumerate() {
        let seed = 0x5eed + ci as u64 * 0x9e37_79b9;
        let pts = points(case.d, seed);
        let perm_pts = pts.select(&perm);
        let u = weights(case.n, case.nrhs, seed ^ 0xabc);
        for (li, (rows, cols)) in layouts(case, seed).iter().enumerate() {
            let what = format!("case {ci} (m={}, n={}, d={}) layout {li}", case.m, case.n, case.d);
            let moved = (li == 0).then_some((&perm_pts, &at[..]));
            run(&mut h, &what, &Gaussian::new(0.9), &pts, rows, cols, &u, moved);
            run(&mut h, &what, &Laplacian::new(1.7), &pts, rows, cols, &u, moved);
        }
    }
    h.0
}

#[test]
fn fused_summation_reproduces_the_recorded_bits() {
    // The only test in this binary, so flipping the process-wide SIMD
    // switch races nothing; the prior setting is restored at the end.
    let was_active = simd::active();
    let vector = simd::cpu_supported().then(|| {
        simd::set_simd_enabled(true);
        sweep_digest()
    });
    simd::set_simd_enabled(false);
    let portable = sweep_digest();
    simd::set_simd_enabled(was_active);
    let vector_hex = vector.map_or("not run".into(), |v| format!("{v:#018x}"));
    let got = format!("this build gives {vector_hex} (vector), {portable:#018x} (portable)");
    assert_eq!(portable, VECTOR, "portable lanes: {got}");
    if let Some(vector) = vector {
        assert_eq!(vector, VECTOR, "vector bodies: {got}");
    }
}
