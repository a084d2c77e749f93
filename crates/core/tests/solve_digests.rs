//! Golden digests of the blocked solves, and of the skeletons and factors
//! under them.
//!
//! Every equivalence test in this crate compares one of our paths with
//! another; this one compares today's bits with the bits a known-good
//! commit produced, so a change that is meant to move memory only (or to
//! delete a duplicate path) is held to *the same answer*, not to a
//! tolerance. The `skeleton/*` and `factor/*` rows hash what a solve
//! digest sees only from outside: skeleton indices and `proj`, every `P̂` /
//! `B_l` / `B_r`, and the factorization's accounting.
//!
//! The tables are asserted when the scalar kernel bodies run
//! (`KFDS_SIMD=off`, or a host without the vector units), where they do
//! not depend on the host's vector width, and the set-up runs its default
//! arithmetic (`KFDS_CPQR=unblocked` and `KFDS_EVAL_GEMM=off` round the
//! skeletons differently; thread count, `KFDS_REFACTOR`, `KFDS_KNN` and
//! `KFDS_WS_POOL` were checked not to move a bit, and the retired
//! `KFDS_BATCH`, which the ci lane sets, is read by nothing).
//! Otherwise the test only checks that the same solve reproduces itself.
//!
//! The routes to a stored factor that share an assembly instead of
//! building their own (`factorize_with_blocks`, `FactorTree::refactor`,
//! `SharedFactor::refactorize`) have no constants of their own: their rows
//! are asserted equal to the fresh `direct/StoredGemv/*` rows, under any
//! arithmetic.
//!
//! To regenerate after an intended change of arithmetic: run
//! `KFDS_SIMD=off cargo test -p kfds-core --test solve_digests`; the
//! failure message prints both tables in source form.

use kfds_askit::{skeletonize, SkelConfig, SkeletonTree};
use kfds_core::{
    factorize, factorize_with_blocks, FactorTree, HybridSolver, LeafFactorization,
    PartitionedFactor, SharedFactor, SharedSetup, SolverConfig, StorageMode, WStorage,
};
use kfds_kernels::{Gaussian, Kernel};
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_tree::datasets::{normal_embedded, spec_by_name, table2_standin};
use kfds_tree::BallTree;
use std::sync::Arc;

const N: usize = 1024;
const NRHS: usize = 8;

/// Recorded at commit 966662b (PR 19) under `KFDS_SIMD=off`.
const GOLDEN: [(&str, u64); 8] = [
    ("direct/StoredGemv/Stored", 0x119b70d9989921f0),
    ("direct/StoredGemv/Recompute", 0xa64d976951062014),
    ("direct/RecomputeGemm/Stored", 0x119b70d9989921f0),
    ("direct/RecomputeGemm/Recompute", 0xa64d976951062014),
    ("direct/Gsks/Stored", 0xc1c12e062773d4ff),
    ("direct/Gsks/Recompute", 0x3f19190800edd662),
    ("hybrid/L2", 0x142cf354ed0fd538),
    ("partition/p4", 0xc1c12e062773d4ff),
];

/// Skeletons, factors and the solves [`GOLDEN`] lacks (Cholesky leaves,
/// ragged tolerance-driven ranks). Recorded under `KFDS_SIMD=off` at commit
/// 0c24218 (PR 22), the last with a second, level-batched factorization
/// engine: that engine produced these rows, and the per-node sweep that is
/// now the only one was checked there to produce the same.
const GOLDEN_SETUP: [(&str, u64); 13] = [
    ("skeleton/normal", 0x33ecb6ca1ba2371b),
    ("factor/StoredGemv/Stored", 0x495f4f103a9db366),
    ("factor/StoredGemv/Recompute", 0x3d14bfc8b255dc46),
    ("factor/RecomputeGemm/Stored", 0x051bdcc643f79a51),
    ("factor/RecomputeGemm/Recompute", 0xada08e2fa8ca9a79),
    ("factor/Gsks/Stored", 0xe927c096a3ff3a74),
    ("factor/Gsks/Recompute", 0x287ffc1f689662e7),
    ("factor/cholesky", 0x29bbd1e989cd30ee),
    ("direct/cholesky", 0x95e7341ad4894418),
    ("factor/partial-L2/Recompute", 0x32b1ade1346fe8d2),
    ("skeleton/covtype", 0x55a490d32fc576ce),
    ("factor/covtype", 0x10797bdcfd8ca16b),
    ("direct/covtype", 0xaf5ee68a5ec977d5),
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

/// Per node: `P̂`, `B_l`, `B_r` (shape and bits) and which dense factors
/// exist; then the accounting every route to these factors must agree on.
/// The LU / Cholesky factors themselves have no accessors — the solve rows
/// hold those.
fn factor_digest<K: Kernel>(ft: &FactorTree<'_, K>) -> u64 {
    let mut h = Fnv::new();
    for nf in ft.factors() {
        h.word(u64::from(nf.leaf_lu.is_some()) | u64::from(nf.z_lu.is_some()) << 1);
        for m in [&nf.p_hat, &nf.b_l, &nf.b_r] {
            h.mat(m.as_ref());
        }
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

/// The rows of [`GOLDEN`] and of [`GOLDEN_SETUP`], in table order.
fn tables() -> (Rows, Rows) {
    let base = SolverConfig::default().with_lambda(0.5);
    let (mut solves, mut setup) = (Rows::new(), Rows::new());
    let (st, kernel) = fixture(1);
    setup.push(("skeleton/normal".to_string(), skeleton_digest(&st)));
    for storage in [StorageMode::StoredGemv, StorageMode::RecomputeGemm, StorageMode::Gsks] {
        for w in [WStorage::Stored, WStorage::Recompute] {
            let cfg = base.with_storage(storage).with_w_storage(w);
            let ft = factorize(&st, &kernel, cfg).expect("factorize");
            solves.push(direct_digest(&format!("direct/{storage:?}/{w:?}"), &ft));
            setup.push((format!("factor/{storage:?}/{w:?}"), factor_digest(&ft)));
        }
    }
    {
        let cfg = base.with_leaf(LeafFactorization::Cholesky);
        let ft = factorize(&st, &kernel, cfg).expect("factorize, Cholesky leaves");
        setup.push(("factor/cholesky".to_string(), factor_digest(&ft)));
        setup.push(direct_digest("direct/cholesky", &ft));
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
        // Recomputed W under a level restriction: the sweep that drops the
        // children's P̂ also crosses the levels with nothing to factor.
        let ft = factorize(&st, &kernel, base.with_w_storage(WStorage::Recompute))
            .expect("partial factorize, recomputed W");
        assert!(!ft.is_complete());
        setup.push(("factor/partial-L2/Recompute".to_string(), factor_digest(&ft)));
    }
    let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), base).expect("shared factor");
    let pf = PartitionedFactor::partition(sf, 4).expect("partition");
    let d = digest_of("partition/p4", |b| pf.solve_mat_in_place(b));
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

/// Digests of the stored factors built over a shared assembly, each with
/// the name of the fresh row of [`table`] it must equal.
fn shared_assembly_rows() -> Vec<(String, u64, String)> {
    let (st, kernel) = fixture(1);
    let (st, kernel) = (Arc::new(st), Arc::new(kernel));
    let setup = SharedSetup::build(Arc::clone(&st), Arc::clone(&kernel));
    let gmres = GmresOptions::default();
    let mut rows = Vec::new();
    for w in [WStorage::Stored, WStorage::Recompute] {
        let cfg = SolverConfig::default()
            .with_lambda(0.5)
            .with_storage(StorageMode::StoredGemv)
            .with_w_storage(w);
        let fresh_row = format!("direct/StoredGemv/{w:?}");
        let mut push = |name: String, solve: &dyn Fn(&mut Mat)| {
            let d = digest_of(&name, solve);
            rows.push((name, d, fresh_row.clone()));
        };

        let blocks = Arc::clone(setup.blocks());
        let over = factorize_with_blocks(&st, &*kernel, blocks, cfg).expect("over blocks");
        push(format!("factorize_with_blocks/{w:?}"), &|b| {
            over.solve_mat_in_place(b).expect("solve over blocks")
        });

        let other = factorize(&st, &*kernel, cfg.with_lambda(3.0)).expect("fresh stored");
        let child = other.refactor(0.5).expect("refactor");
        push(format!("refactor/{w:?}"), &|b| child.solve_mat_in_place(b).expect("child solve"));

        let sf = SharedFactor::refactorize(&setup, cfg).expect("refactorize");
        push(format!("refactorize/{w:?}"), &|b| {
            sf.solve_block_in_place(b, &gmres).expect("shared solve");
        });
    }
    rows
}

#[test]
fn blocked_solve_digests_match_the_recorded_table() {
    let (solves, setup) = tables();
    for (name, digest, fresh_row) in shared_assembly_rows() {
        let (_, fresh) = solves.iter().find(|(n, _)| *n == fresh_row).expect("fresh row");
        assert_eq!(digest, *fresh, "{name} must reproduce {fresh_row} bit for bit");
    }
    if kfds_la::simd::active()
        || kfds_switches::KFDS_CPQR.is_off()
        || kfds_switches::KFDS_EVAL_GEMM.is_off()
    {
        return; // other arithmetic: run-to-run equality (checked in `digest_of`) is all we hold
    }
    let same = |got: &Rows, want: &[(&str, u64)]| {
        got.len() == want.len()
            && got.iter().zip(want).all(|((gn, gd), (wn, wd))| gn == wn && gd == wd)
    };
    if !same(&solves, &GOLDEN) || !same(&setup, &GOLDEN_SETUP) {
        let mut msg = String::from("digests moved; the tables this build produces are\n");
        for (title, rows) in [("GOLDEN", &solves), ("GOLDEN_SETUP", &setup)] {
            msg.push_str(&format!("{title}:\n"));
            for (name, d) in rows {
                msg.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
            }
        }
        panic!("{msg}");
    }
}
