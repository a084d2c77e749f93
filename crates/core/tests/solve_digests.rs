//! Golden digests of the blocked solves.
//!
//! Every equivalence test in this crate compares one of our paths with
//! another; this one compares today's bits with the bits a known-good
//! commit produced, so a change that is meant to move memory only (or to
//! delete a duplicate path) is held to *the same answer*, not to a
//! tolerance. The table is asserted when the scalar kernel bodies run
//! (`KFDS_SIMD=off`, or a host without the vector units), where it does
//! not depend on the host's vector width, and the set-up runs its default
//! arithmetic (`KFDS_CPQR=unblocked` and `KFDS_EVAL_GEMM=off` round the
//! skeletons differently; thread count, `KFDS_BATCH`, `KFDS_REFACTOR`,
//! `KFDS_KNN` and `KFDS_WS_POOL` were checked not to move a bit).
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
//! failure message prints the whole table in source form.

use kfds_askit::{skeletonize, SkelConfig, SkeletonTree};
use kfds_core::{
    factorize, factorize_with_blocks, HybridSolver, PartitionedFactor, SharedFactor, SharedSetup,
    SolverConfig, StorageMode, WStorage,
};
use kfds_kernels::Gaussian;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_tree::datasets::normal_embedded;
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

fn rhs_matrix() -> Mat {
    let mut b = Mat::zeros(N, NRHS);
    for j in 0..NRHS {
        for (i, v) in b.col_mut(j).iter_mut().enumerate() {
            *v = ((i * (j + 3) + 7) % 31) as f64 / 31.0 - 0.5;
        }
    }
    b
}

/// FNV-1a (64-bit) over the little-endian bytes of every element's bits.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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

fn table() -> Vec<(String, u64)> {
    let base = SolverConfig::default().with_lambda(0.5);
    let mut rows = Vec::new();
    let (st, kernel) = fixture(1);
    for storage in [StorageMode::StoredGemv, StorageMode::RecomputeGemm, StorageMode::Gsks] {
        for w in [WStorage::Stored, WStorage::Recompute] {
            let cfg = base.with_storage(storage).with_w_storage(w);
            let ft = factorize(&st, &kernel, cfg).expect("factorize");
            let name = format!("direct/{storage:?}/{w:?}");
            let d = digest_of(&name, |b| ft.solve_mat_in_place(b).expect("direct solve"));
            rows.push((name, d));
        }
    }
    {
        let (st, kernel) = fixture(2);
        let ft = factorize(&st, &kernel, base).expect("partial factorize");
        let hs = HybridSolver::new(&ft).expect("hybrid solver");
        let opts = GmresOptions::default();
        let d = digest_of("hybrid/L2", |b| {
            hs.solve_mat_in_place(b, &opts).expect("hybrid solve");
        });
        rows.push(("hybrid/L2".to_string(), d));
    }
    let sf = SharedFactor::factorize(Arc::new(st), Arc::new(kernel), base).expect("shared factor");
    let pf = PartitionedFactor::partition(sf, 4).expect("partition");
    let d = digest_of("partition/p4", |b| pf.solve_mat_in_place(b));
    rows.push(("partition/p4".to_string(), d));
    rows
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
    let got = table();
    for (name, digest, fresh_row) in shared_assembly_rows() {
        let (_, fresh) = got.iter().find(|(n, _)| *n == fresh_row).expect("fresh row");
        assert_eq!(digest, *fresh, "{name} must reproduce {fresh_row} bit for bit");
    }
    if kfds_la::simd::active()
        || kfds_switches::KFDS_CPQR.is_off()
        || kfds_switches::KFDS_EVAL_GEMM.is_off()
    {
        return; // other arithmetic: run-to-run equality (checked in `digest_of`) is all we hold
    }
    let matches = got.len() == GOLDEN.len()
        && got.iter().zip(&GOLDEN).all(|((gn, gd), (wn, wd))| gn == wn && gd == wd);
    if !matches {
        let mut msg = String::from("solve digests moved; the table this build produces is\n");
        for (name, d) in &got {
            msg.push_str(&format!("    (\"{name}\", {d:#018x}),\n"));
        }
        panic!("{msg}");
    }
}
