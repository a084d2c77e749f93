//! Golden digests of the blocked solves, and of the skeletons and factors
//! under them.
//!
//! Every equivalence test in this crate compares one of our paths with
//! another; this one compares today's bits with the bits a known-good
//! commit produced, so a change that is meant to move memory only (or to
//! delete a duplicate path) is held to *the same answer*, not to a
//! tolerance. The `skeleton/*` and `factor/*` rows hash what a solve
//! digest sees only from outside: skeleton indices and `proj`, every `P̂`,
//! and the factorization's accounting.
//!
//! One table of 15 rows, [`GOLDEN`], binds in both lanes on every host:
//! with the vector kernels on (any host with AVX2+FMA, AVX-512F or not:
//! every AVX-512 body gives the bits of the AVX2 body beside it, and the
//! skinny GEMM path the packed path's) and with them off, where the
//! portable lanes run the vector chains. The test runs the vector lane
//! where the CPU has it, then the portable one through
//! `kfds_la::simd::set_simd_enabled(false)`, and restores the mode it
//! found.
//!
//! The thread count was checked not to move a bit; the ci lane
//! `RAYON_NUM_THREADS=1` holds the table on one thread, and the
//! `RAYON_NUM_THREADS=3` one on three. No `KFDS_*` variable is read by any
//! crate, so none can move a row.
//!
//! The routes to a stored factor that share an assembly instead of
//! building their own (`factorize_with_blocks`, `FactorTree::refactor`,
//! `SharedFactor::refactorize`) have no constants of their own: their rows
//! are asserted equal to the fresh `direct/StoredGemv` row in each lane.
//!
//! To regenerate after an intended change of arithmetic: run
//! `cargo test -p kfds-core --lib digests`; the failure message prints the
//! table each lane produces in source form.

use crate::{
    factorize, factorize_with_blocks, FactorTree, HybridSolver, PartitionedFactor, SharedFactor,
    SharedSetup, SolverConfig, StorageMode,
};
use kfds_askit::{compute_neighbors, skeletonize, skeletonize_with_neighbors};
use kfds_askit::{SkelConfig, SkeletonTree};
use kfds_kernels::{Gaussian, Kernel};
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_tree::datasets::{normal_embedded, spec_by_name, table2_standin};
use kfds_tree::{BallTree, NeighborLists};
use std::sync::Arc;

const N: usize = 1024;
const NRHS: usize = 8;

/// Every row, in both lanes, on any host. Three groups, in the order
/// [`tables`] and [`normal64d_rows`] produce them. The `knn/normal64d`,
/// `skeleton/normal64d` and `factor/normal64d/Gsks` rows are those
/// recorded on an AVX-512 host (the first two at commit 74324e4, the third
/// at the commit after ce90b77). The other 12 are the bits commit 36f196a
/// gives on an AVX-512 host with its AVX-512-only skinny GEMM path
/// switched off, which is the packed path's arithmetic that the skinny
/// path now gives too; an AVX2-only host gives them with `dgemv_t` reduced
/// in one order, and the portable lanes with every vector chain run in
/// portable code.
const GOLDEN: [(&str, u64); 15] = [
    // The blocked solves.
    ("direct/StoredGemv", 0xcfaafa80d7edbd4a),
    ("direct/Gsks", 0x5de962f7d1d903a8),
    ("hybrid/L2", 0xfa12993f0f19be24),
    ("partition/p4", 0x5de962f7d1d903a8),
    // Skeletons, factors and the solves the group above lacks (a partial
    // factor, ragged tolerance-driven ranks).
    ("skeleton/normal", 0x33bfbba59df9ebb1),
    ("factor/StoredGemv", 0x5701ef6f675046fe),
    ("factor/Gsks", 0xf758374a1e031447),
    ("factor/partial-L2", 0xbec7141a75b663dc),
    ("skeleton/covtype", 0xa7a41cf782a82188),
    ("factor/covtype", 0x91d417e5821d1ed4),
    ("direct/covtype", 0xe22453ccd63a7083),
    // The `normal64d_direct` benchmark shape, at n = 1024: the one set-up
    // that takes the approximate neighbour search (8 projection trees),
    // fixed rank 64 (τ = 0), matrix-free factors.
    ("knn/normal64d", 0x427e74ccd79c91b0),
    ("skeleton/normal64d", 0xec3d48e271469131),
    ("factor/normal64d/Gsks", 0x02e9cff8823b26d6),
    ("direct/normal64d/Gsks", 0xb75c6d53b9440727),
];

/// The `multi_rhs.rs` fixture: n = 1024, leaf 64, τ = 1e-5, s ≤ 64, κ = 8.
fn fixture(max_level: usize) -> (SkeletonTree, Gaussian) {
    let pts = normal_embedded(N, 3, 8, 0.05, 23);
    let kernel = Gaussian::new(1.0);
    let tree = BallTree::build(&pts, 64);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(64)
            .with_neighbors(8)
            .with_max_level(max_level),
    );
    (st, kernel)
}

/// The ragged fixture: the COVTYPE stand-in the `covtype_hybrid` benchmark
/// workload draws from, n = 1024, leaf 32, ranks set by τ = 1e-3 (s ≤ 128) —
/// three levels where almost every node has a shape of its own.
fn covtype_fixture() -> (SkeletonTree, Gaussian) {
    let spec = spec_by_name("COVTYPE").expect("COVTYPE is a Table II dataset");
    let pts = table2_standin(spec, N, 29);
    let kernel = Gaussian::new(0.2 * (2.0 * spec.d as f64).sqrt());
    let tree = BallTree::build(&pts, 32);
    let st = skeletonize(
        tree,
        &kernel,
        SkelConfig::default().with_tol(1e-3).with_max_rank(128).with_neighbors(16),
    );
    (st, kernel)
}

/// The `normal64d_direct` shape: NORMAL, 6 intrinsic dimensions in 64,
/// leaf 128, τ = 0, s = 64, κ = 16 from 8 projection trees, `max_level` 1,
/// Gaussian h = 4; the neighbour lists are returned too.
fn normal64d_fixture() -> (SkeletonTree, NeighborLists, Gaussian) {
    let pts = normal_embedded(N, 6, 64, 0.1, 37);
    let kernel = Gaussian::new(4.0);
    let tree = BallTree::build(&pts, 128);
    let cfg = SkelConfig::default()
        .with_tol(0.0)
        .with_max_rank(64)
        .with_neighbors(16)
        .with_approx_knn(8)
        .with_max_level(1);
    let nn = compute_neighbors(&tree, &cfg);
    let st = skeletonize_with_neighbors(tree, &kernel, cfg, &nn);
    (st, nn, kernel)
}

fn rhs_matrix() -> Mat {
    let mut b = Mat::zeros(N, NRHS);
    for j in 0..NRHS {
        for (i, v) in b.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 3) + 7) % 31) as f64 / 31.0 - 0.5;
        }
    }
    b
}

/// FNV-1a (64-bit) over the little-endian bytes of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every element's bits.
    fn floats(&mut self, values: &[f64]) {
        values.iter().for_each(|v| self.word(v.to_bits()));
    }

    /// Shape, then bits; an absent matrix hashes as one all-ones word.
    fn mat(&mut self, m: Option<&Mat>) {
        match m {
            Some(m) => {
                self.word(m.nrows() as u64);
                self.word(m.ncols() as u64);
                self.floats(m.as_slice());
            }
            None => self.word(u64::MAX),
        }
    }
}

fn fnv1a(values: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.floats(values);
    h.0
}

/// Per point: its neighbours' indices and the distance bits.
fn knn_digest(nn: &NeighborLists, n: usize) -> u64 {
    let mut h = Fnv::new();
    h.word(nn.k() as u64);
    for i in 0..n {
        nn.neighbors(i).iter().for_each(|&j| h.word(u64::from(j)));
        h.floats(nn.distances(i));
    }
    h.0
}

/// Per node: the skeleton's indices and its `proj` (shape and bits).
fn skeleton_digest(st: &SkeletonTree) -> u64 {
    let mut h = Fnv::new();
    for i in 0..st.tree().nodes().len() {
        let Some(sk) = st.skeleton(i) else {
            h.word(u64::MAX);
            h.mat(None);
            continue;
        };
        h.word(sk.rank() as u64);
        sk.skeleton.iter().for_each(|&p| h.word(p as u64));
        h.mat(Some(&sk.proj));
    }
    h.0
}

/// Per node: which dense factors exist, `P̂` and the reduced system's
/// coupling blocks `B_l`, `B_r` (shape and bits); then the accounting
/// every route to these factors must agree on. The LU factors themselves
/// have no accessors — the solve rows hold those.
fn factor_digest<K: Kernel>(ft: &FactorTree<'_, K>) -> u64 {
    let mut h = Fnv::new();
    for nf in ft.factors() {
        h.word(u64::from(nf.leaf_lu.is_some()) | u64::from(nf.z.is_some()) << 1);
        h.mat(nf.p_hat.as_ref());
        h.mat(nf.z.as_ref().map(|z| &z.b_l));
        h.mat(nf.z.as_ref().map(|z| &z.b_r));
    }
    let s = ft.stats();
    h.floats(&[s.flops, s.min_pivot_ratio]);
    for count in [s.stored_bytes, s.shared_bytes, s.unstable_factorizations] {
        h.word(count as u64);
    }
    h.0
}

/// Runs `solve` twice on fresh copies of the right-hand side, asserts the
/// two answers agree bit for bit, and returns the digest.
fn digest_of(name: &str, solve: impl Fn(&mut Mat)) -> u64 {
    let (mut x, mut again) = (rhs_matrix(), rhs_matrix());
    solve(&mut x);
    solve(&mut again);
    assert_eq!(x.as_slice(), again.as_slice(), "{name}: the same solve must reproduce itself");
    fnv1a(x.as_slice())
}

type Rows = Vec<(String, u64)>;

fn direct_digest<K: Kernel>(name: &str, ft: &FactorTree<'_, K>) -> (String, u64) {
    let d = digest_of(name, |b| ft.solve_mat_in_place(b).expect("direct solve"));
    (name.to_string(), d)
}

/// The last four rows of the tables, in table order.
fn normal64d_rows() -> Rows {
    let (st, nn, kernel) = normal64d_fixture();
    let ft = factorize(&st, &kernel, SolverConfig::default().with_lambda(1.0))
        .expect("factorize, normal64d");
    vec![
        ("knn/normal64d".to_string(), knn_digest(&nn, N)),
        ("skeleton/normal64d".to_string(), skeleton_digest(&st)),
        ("factor/normal64d/Gsks".to_string(), factor_digest(&ft)),
        direct_digest("direct/normal64d/Gsks", &ft),
    ]
}

/// The first 11 rows of the tables: the solves, then the skeletons and
/// factors, each group in table order.
fn tables() -> (Rows, Rows) {
    let base = SolverConfig::default().with_lambda(0.5);
    let (mut solves, mut setup) = (Rows::new(), Rows::new());
    let (st, kernel) = fixture(1);
    setup.push(("skeleton/normal".to_string(), skeleton_digest(&st)));
    for storage in [StorageMode::StoredGemv, StorageMode::Gsks] {
        let ft = factorize(&st, &kernel, base.with_storage(storage)).expect("factorize");
        solves.push(direct_digest(&format!("direct/{storage:?}"), &ft));
        setup.push((format!("factor/{storage:?}"), factor_digest(&ft)));
    }
    {
        let (st, kernel) = fixture(2);
        let ft = factorize(&st, &kernel, base).expect("partial factorize");
        let hs = HybridSolver::new(&ft).expect("hybrid solver");
        let opts = GmresOptions::default();
        let d = digest_of("hybrid/L2", |b| {
            hs.solve_mat_in_place(b, &opts).expect("hybrid solve");
        });
        solves.push(("hybrid/L2".to_string(), d));
        // The level-restricted factor under it: the sweep crosses levels
        // with nothing to factor.
        assert!(!ft.is_complete());
        setup.push(("factor/partial-L2".to_string(), factor_digest(&ft)));
    }
    let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), base).expect("shared factor");
    let pf = PartitionedFactor::partition(sf, 4).expect("partition");
    let d = digest_of("partition/p4", |b| pf.solve_mat_in_place(b).expect("partitioned solve"));
    solves.push(("partition/p4".to_string(), d));
    {
        let (st, kernel) = covtype_fixture();
        setup.push(("skeleton/covtype".to_string(), skeleton_digest(&st)));
        let ft = factorize(&st, &kernel, base.with_lambda(0.3)).expect("factorize, ragged ranks");
        setup.push(("factor/covtype".to_string(), factor_digest(&ft)));
        setup.push(direct_digest("direct/covtype", &ft));
    }
    (solves, setup)
}

/// Digests of the stored factors built over a shared assembly; each must
/// equal the fresh `direct/StoredGemv` row of [`tables`].
fn shared_assembly_rows() -> Rows {
    let (st, kernel) = fixture(1);
    let (st, kernel) = (Arc::new(st), Arc::new(kernel));
    let setup = SharedSetup::build(Arc::clone(&st), Arc::clone(&kernel));
    let gmres = GmresOptions::default();
    let cfg = SolverConfig::default().with_lambda(0.5).with_storage(StorageMode::StoredGemv);
    let mut rows = Rows::new();
    let mut push = |name: &str, solve: &dyn Fn(&mut Mat)| {
        rows.push((name.to_string(), digest_of(name, solve)));
    };

    let blocks = Arc::clone(setup.blocks());
    let over = factorize_with_blocks(&st, &*kernel, blocks, cfg).expect("over blocks");
    push("factorize_with_blocks", &|b| over.solve_mat_in_place(b).expect("solve over blocks"));

    let other = factorize(&st, &*kernel, cfg.with_lambda(3.0)).expect("fresh stored");
    let child = other.refactor(0.5).expect("refactor");
    push("refactor", &|b| child.solve_mat_in_place(b).expect("child solve"));

    let sf = SharedFactor::refactorize(&setup, cfg).expect("refactorize");
    push("refactorize", &|b| {
        sf.solve_block_in_place(b, &gmres).expect("shared solve");
    });
    rows
}

/// Puts back the SIMD mode it was made with when dropped, so a lane that
/// panics leaves the process as it found it.
struct RestoreSimd(bool);

impl Drop for RestoreSimd {
    fn drop(&mut self) {
        kfds_la::simd::set_simd_enabled(self.0);
    }
}

#[test]
fn blocked_solve_digests_match_the_recorded_table() {
    let _restore = RestoreSimd(kfds_la::simd::active());
    let lanes = [("vector", true), ("portable", false)];
    let mut msg = String::new();
    for (lane, on) in lanes.into_iter().filter(|&(_, on)| !on || kfds_la::simd::cpu_supported()) {
        kfds_la::simd::set_simd_enabled(on);
        let (solves, setup) = tables();
        let normal64d = normal64d_rows();
        let (_, fresh) = solves.iter().find(|(n, _)| n == "direct/StoredGemv").expect("fresh row");
        for (name, digest) in shared_assembly_rows() {
            assert_eq!(
                digest, *fresh,
                "{lane}: {name} must reproduce direct/StoredGemv bit for bit"
            );
        }
        let got = [solves, setup, normal64d].concat();
        let same = got.len() == GOLDEN.len()
            && got.iter().zip(&GOLDEN).all(|((gn, gd), (wn, wd))| gn == wn && gd == wd);
        if !same {
            msg.push_str(&format!("digests moved; the {lane} lane produces\n"));
            for (name, d) in &got {
                msg.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
            }
        }
    }
    assert!(msg.is_empty(), "{msg}");
}
