//! Bitwise-equivalence gates for the level-batched execution engine
//! (`KFDS_BATCH`).
//!
//! The batched engine's contract is that batching changes *scheduling*,
//! never arithmetic: every construction and factorization under the
//! batched planner must be bit-for-bit identical to the per-node
//! reference path — same skeletons and projections, same factors, same
//! pivot orders, same flop accounting. These tests force the switch both
//! ways over the same inputs and compare exactly (`==` on `f64` slices,
//! no tolerances).

use kfds_askit::{skeletonize, SkelConfig, SkeletonTree};
use kfds_core::{
    assemble_blocks, factorize, factorize_with_blocks, FactorTree, LeafFactorization, SolverConfig,
    StorageMode, WStorage,
};
use kfds_kernels::Gaussian;
use kfds_la::Mat;
use kfds_tree::datasets::normal_embedded;
use kfds_tree::BallTree;
use std::sync::{Arc, Mutex};

/// Serializes tests that flip the process-wide batch switch (same
/// convention as the setup-mode toggles elsewhere in the workspace).
static BATCH_TOGGLE: Mutex<()> = Mutex::new(());

/// RAII guard forcing the batched or per-node engine, restoring the
/// prior state on drop (including on panic).
struct BatchMode {
    prev: bool,
}

impl BatchMode {
    fn force(on: bool) -> Self {
        let prev = kfds_la::batch_active();
        kfds_la::set_batch_enabled(on);
        BatchMode { prev }
    }
}

impl Drop for BatchMode {
    fn drop(&mut self) {
        kfds_la::set_batch_enabled(self.prev);
    }
}

fn build_skeleton(seed: u64, max_level: usize) -> SkeletonTree {
    let pts = normal_embedded(512, 3, 8, 0.05, seed);
    let tree = BallTree::build(&pts, 48);
    skeletonize(
        tree,
        &Gaussian::new(1.0),
        SkelConfig::default()
            .with_tol(1e-5)
            .with_max_rank(64)
            .with_neighbors(8)
            .with_max_level(max_level),
    )
}

fn assert_mat_eq(a: Option<&Mat>, b: Option<&Mat>, what: &str, node: usize) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.nrows(), b.nrows(), "{what} rows differ at node {node}");
            assert_eq!(a.ncols(), b.ncols(), "{what} cols differ at node {node}");
            assert_eq!(a.as_slice(), b.as_slice(), "{what} not bitwise equal at node {node}");
        }
        _ => panic!("{what} present under one engine only at node {node}"),
    }
}

/// Full bitwise comparison of two factor trees: per-node dense factors,
/// the assemblies that hold their stored `V` blocks, and the aggregate
/// stats.
fn assert_factors_bitwise<K: kfds_kernels::Kernel>(
    batched: &FactorTree<'_, K>,
    reference: &FactorTree<'_, K>,
) {
    let (fa, fb) = (batched.factors(), reference.factors());
    assert_eq!(fa.len(), fb.len());
    for (i, (a, b)) in fa.iter().zip(fb).enumerate() {
        assert_eq!(a.leaf_lu.is_some(), b.leaf_lu.is_some(), "leaf factor presence, node {i}");
        assert_eq!(a.z_lu.is_some(), b.z_lu.is_some(), "Z factor presence, node {i}");
        assert_mat_eq(a.p_hat.as_ref(), b.p_hat.as_ref(), "P-hat", i);
        assert_mat_eq(a.b_l.as_ref(), b.b_l.as_ref(), "B_l", i);
        assert_mat_eq(a.b_r.as_ref(), b.b_r.as_ref(), "B_r", i);
    }
    // The stored V blocks live in the trees' assemblies: both engines
    // must have one exactly in stored mode, block-for-block equal.
    let stored = batched.config().storage == StorageMode::StoredGemv;
    assert_eq!(batched.assembled_blocks().is_some(), stored, "batched engine's assembly");
    assert_eq!(reference.assembled_blocks().is_some(), stored, "per-node engine's assembly");
    if let (Some(ba), Some(bb)) = (batched.assembled_blocks(), reference.assembled_blocks()) {
        assert_eq!(ba.len(), bb.len());
        for i in 0..ba.len() {
            let (a, b) = (ba.node(i), bb.node(i));
            assert_mat_eq(a.k_lr.as_ref(), b.k_lr.as_ref(), "K_lr", i);
            assert_mat_eq(a.k_rl.as_ref(), b.k_rl.as_ref(), "K_rl", i);
        }
    }
    let (sa, sb) = (batched.stats(), reference.stats());
    assert_eq!(sa.flops.to_bits(), sb.flops.to_bits(), "flop accounting diverged");
    assert_eq!(sa.min_pivot_ratio.to_bits(), sb.min_pivot_ratio.to_bits(), "pivot diagnostics");
    assert_eq!(sa.unstable_factorizations, sb.unstable_factorizations);
    assert_eq!(sa.stored_bytes, sb.stored_bytes, "byte accounting diverged");
    assert_eq!(sa.shared_bytes, sb.shared_bytes, "shared-byte accounting diverged");
    assert_eq!(sa.max_rank, sb.max_rank);

    // The factored operators act identically: solves agree bitwise (this
    // also covers the LU/Cholesky factors themselves, which have no
    // public accessors).
    if batched.is_complete() {
        let n = batched.skeleton_tree().tree().points().len();
        let rhs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 0.1).collect();
        let mut xa = rhs.clone();
        let mut xb = rhs;
        batched.solve_in_place(&mut xa).expect("batched solve");
        reference.solve_in_place(&mut xb).expect("reference solve");
        for (j, (a, b)) in xa.iter().zip(&xb).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "solve output differs at row {j}");
        }
    }
}

#[test]
fn skeletonize_batched_matches_per_node_bitwise() {
    let _guard = BATCH_TOGGLE.lock().unwrap();
    for seed in [7, 19] {
        let st_batched = {
            let _mode = BatchMode::force(true);
            build_skeleton(seed, 1)
        };
        let st_ref = {
            let _mode = BatchMode::force(false);
            build_skeleton(seed, 1)
        };
        let n_nodes = st_ref.tree().nodes().len();
        for i in 0..n_nodes {
            match (st_batched.skeleton(i), st_ref.skeleton(i)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.skeleton, b.skeleton, "seed {seed}: skeleton differs, node {i}");
                    assert_eq!(a.proj.nrows(), b.proj.nrows(), "node {i}");
                    assert_eq!(
                        a.proj.as_slice(),
                        b.proj.as_slice(),
                        "seed {seed}: projection not bitwise equal, node {i}"
                    );
                    assert_eq!(a.sigma_est, b.sigma_est, "seed {seed}: sigma estimates, node {i}");
                }
                _ => panic!("seed {seed}: node {i} skeletonized under one engine only"),
            }
        }
    }
}

#[test]
fn factorize_batched_matches_per_node_bitwise_all_modes() {
    let _guard = BATCH_TOGGLE.lock().unwrap();
    let st = {
        let _mode = BatchMode::force(true);
        build_skeleton(11, 1)
    };
    let kernel = Gaussian::new(1.0);
    for storage in [StorageMode::StoredGemv, StorageMode::RecomputeGemm, StorageMode::Gsks] {
        for w_storage in [WStorage::Stored, WStorage::Recompute] {
            let cfg = SolverConfig::default()
                .with_lambda(0.8)
                .with_storage(storage)
                .with_w_storage(w_storage);
            let batched = {
                let _mode = BatchMode::force(true);
                factorize(&st, &kernel, cfg).expect("batched factorize")
            };
            let reference = {
                let _mode = BatchMode::force(false);
                factorize(&st, &kernel, cfg).expect("reference factorize")
            };
            assert_factors_bitwise(&batched, &reference);
        }
    }
}

#[test]
fn factorize_batched_matches_per_node_cholesky_leaves() {
    let _guard = BATCH_TOGGLE.lock().unwrap();
    let st = {
        let _mode = BatchMode::force(true);
        build_skeleton(23, 1)
    };
    let kernel = Gaussian::new(1.0);
    let cfg = SolverConfig::default().with_lambda(1.3).with_leaf(LeafFactorization::Cholesky);
    let batched = {
        let _mode = BatchMode::force(true);
        factorize(&st, &kernel, cfg).expect("batched factorize")
    };
    let reference = {
        let _mode = BatchMode::force(false);
        factorize(&st, &kernel, cfg).expect("reference factorize")
    };
    assert_factors_bitwise(&batched, &reference);
}

#[test]
fn partial_factorization_batched_matches_per_node() {
    // Level restriction leaves whole levels with no factorable nodes;
    // the batched sweep must keep the Recompute-W drop sweep running
    // over them and still match bitwise.
    let _guard = BATCH_TOGGLE.lock().unwrap();
    let st = {
        let _mode = BatchMode::force(true);
        build_skeleton(31, 2)
    };
    let kernel = Gaussian::new(1.0);
    let cfg = SolverConfig::default().with_lambda(0.6).with_w_storage(WStorage::Recompute);
    let batched = {
        let _mode = BatchMode::force(true);
        factorize(&st, &kernel, cfg).expect("batched factorize")
    };
    let reference = {
        let _mode = BatchMode::force(false);
        factorize(&st, &kernel, cfg).expect("reference factorize")
    };
    assert!(!batched.is_complete());
    assert_factors_bitwise(&batched, &reference);
}

#[test]
fn refactor_lambda_grid_batched_matches_per_node_bitwise() {
    let _guard = BATCH_TOGGLE.lock().unwrap();
    let st = {
        let _mode = BatchMode::force(true);
        build_skeleton(43, 1)
    };
    let kernel = Gaussian::new(1.0);
    let cfg = SolverConfig::default();
    for lambda in [0.3, 0.9, 2.7] {
        let batched = {
            let _mode = BatchMode::force(true);
            let blocks = Arc::new(assemble_blocks(&st, &kernel));
            factorize_with_blocks(&st, &kernel, blocks, cfg.with_lambda(lambda))
                .expect("batched refactor")
        };
        let reference = {
            let _mode = BatchMode::force(false);
            let blocks = Arc::new(assemble_blocks(&st, &kernel));
            factorize_with_blocks(&st, &kernel, blocks, cfg.with_lambda(lambda))
                .expect("reference refactor")
        };
        // Cached-block assembly itself must agree bitwise too.
        let (ba, bb) = (
            batched.assembled_blocks().expect("blocks").stats(),
            reference.assembled_blocks().expect("blocks").stats(),
        );
        assert_eq!(ba.kernel_flops.to_bits(), bb.kernel_flops.to_bits());
        assert_eq!(ba.bytes, bb.bytes);
        assert_factors_bitwise(&batched, &reference);
    }
}

#[test]
fn batched_factorization_reports_level_breakdown() {
    let _guard = BATCH_TOGGLE.lock().unwrap();
    let _mode = BatchMode::force(true);
    let st = build_skeleton(3, 1);
    let kernel = Gaussian::new(1.0);
    let ft = factorize(&st, &kernel, SolverConfig::default()).expect("factorize");
    let levels = &ft.stats().levels;
    assert!(!levels.is_empty(), "batched sweep must record per-level stats");
    // Bottom-up: recorded root-last, nodes per level shrink going up.
    for w in levels.windows(2) {
        assert!(w[0].level > w[1].level, "levels must be recorded bottom-up");
    }
    let total_nodes: usize = levels.iter().map(|l| l.nodes).sum();
    assert!(total_nodes >= st.frontier().len());
    for l in levels {
        assert!(l.op_groups > 0, "level {}: no op groups recorded", l.level);
        // Shape grouping must actually batch: never more groups than a
        // couple launches per node (kernel eval + factor + plans).
        assert!(
            l.op_groups <= 6 * l.nodes + 6,
            "level {}: {} groups for {} nodes",
            l.level,
            l.op_groups,
            l.nodes
        );
    }
}
