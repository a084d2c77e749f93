//! The level-batched factorization engine (`KFDS_BATCH`).
//!
//! [`crate::factor`]'s reference path runs every node of a tree level as
//! an independent task inside one `par_iter`, each making its own small
//! kernel-evaluation / GEMM / LU / solve calls with per-call dispatch and
//! pool checkouts. This module executes the same level as a **planned
//! sequence of shape-grouped launches** (the Boukaram–Keyes H² execution
//! model):
//!
//! 1. one batched kernel-block launch per shape group materializes every
//!    leaf `K_αα` of the level. No coupling block is evaluated or copied
//!    here: under `StoredGemv` the planned `B` GEMMs read `K_{l̃r}` /
//!    `K_{r̃l}` from the tree's [`AssembledBlocks`] in place;
//! 2. dense factorizations are grouped by dimension and launched once per
//!    group;
//! 3. every GEMM and multi-RHS solve of the level is collected into a
//!    [`BatchPlan`] and executed group-by-group;
//! 4. the telescope scratch (`M_l`, `M_r`, `C`) for the whole level lives
//!    in two packed [`Arena`]s — one pool checkout per arena per level
//!    instead of three per node.
//!
//! **Bitwise contract:** batching changes scheduling, never arithmetic.
//! Every op runs the identical kernel on identical operands in the same
//! within-op accumulation order as the per-node path: the GEMM never
//! splits its accumulation dimension, and a planned solve makes the one
//! multi-RHS call the per-node engine makes — [`Lu::solve_mat_mut`] /
//! `Cholesky::solve_mat_mut` on the same `MatMut` view (row swaps, then
//! two recursive TRSMs whose splits depend only on the triangle's size).
//! Per-node cost accounting reuses the same expressions in the same
//! sequence — so factors *and* stats are bit-for-bit equal to
//! `KFDS_BATCH=off`. Property tests in `tests/batch_equiv.rs` enforce
//! this.

use crate::assemble::AssembledBlocks;
use crate::config::{SolverConfig, StorageMode, WStorage};
use crate::error::SolverError;
use crate::factor::{self, LeafFactor, NodeCost, NodeFactors, NodeResult};
use kfds_askit::SkeletonTree;
use kfds_kernels::{eval_blocks, flops, BlockSpec, Kernel};
use kfds_la::batch::{Arena, BatchPlan, FactorRef};
use kfds_la::{group_by_shape, workspace, Lu, Mat, MatRef, Trans};
use rayon::prelude::*;

/// Executes one level of the factorization with planned, shape-grouped
/// launches. Returns per-node results in `level_nodes` order plus the
/// number of grouped launches.
pub(crate) fn factor_level_batched<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    blocks: Option<&AssembledBlocks>,
    factors: &[NodeFactors],
    level_nodes: &[usize],
) -> (Vec<NodeResult>, usize) {
    let tree = st.tree();
    let mut out: Vec<Option<NodeResult>> = Vec::with_capacity(level_nodes.len());
    out.resize_with(level_nodes.len(), || None);
    let mut op_groups = 0usize;

    let leaf_pos: Vec<usize> =
        (0..level_nodes.len()).filter(|&p| tree.node(level_nodes[p]).children.is_none()).collect();
    let int_pos: Vec<usize> =
        (0..level_nodes.len()).filter(|&p| tree.node(level_nodes[p]).children.is_some()).collect();

    if !leaf_pos.is_empty() {
        op_groups += run_leaves(st, kernel, config, level_nodes, &leaf_pos, &mut out);
    }
    if !int_pos.is_empty() {
        op_groups += if config.storage == StorageMode::StoredGemv {
            let blocks = blocks.expect("a stored factorization has an assembly");
            run_internals_stored(st, config, blocks, factors, level_nodes, &int_pos, &mut out)
        } else {
            run_internals_grouped(st, kernel, config, factors, level_nodes, &int_pos, &mut out)
        };
    }
    (out.into_iter().map(|r| r.expect("every level node resolved")).collect(), op_groups)
}

fn leaf_ref(leaf: &LeafFactor) -> FactorRef<'_> {
    match leaf {
        LeafFactor::Lu(f) => FactorRef::Lu(f),
        LeafFactor::Cholesky(f) => FactorRef::Cholesky(f),
    }
}

struct LeafState {
    pos: usize,
    node: usize,
    m: usize,
    s: usize,
    leaf: Option<LeafFactor>,
    p: Option<Mat>,
    cost: NodeCost,
    err: Option<SolverError>,
}

/// Leaves of the level: batched `K_αα` materialization, grouped-by-size
/// factorization launches, and one [`BatchPlan`] for every `P̂` solve.
fn run_leaves<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    level_nodes: &[usize],
    leaf_pos: &[usize],
    out: &mut [Option<NodeResult>],
) -> usize {
    let tree = st.tree();
    let pts = tree.points();
    let d = pts.dim();

    // Stage 1 — materialize every leaf's K_αα: one batched kernel launch
    // per shape group. Identical bits to the per-node `eval_symmetric`.
    let specs: Vec<BlockSpec<'_>> = leaf_pos
        .iter()
        .map(|&pos| BlockSpec::Symmetric { range: tree.node(level_nodes[pos]).range() })
        .collect();
    let (mats, mut groups) = eval_blocks(kernel, pts, &specs);
    let mut kaas: Vec<Option<(Mat, f64)>> = mats
        .into_iter()
        .map(|kaa| {
            let m = kaa.nrows();
            Some((kaa, flops::summation_flops(m, m, d, kernel.flops_per_eval())))
        })
        .collect();

    // Stage 2 — λ shift + factorization + P̂ pack, one launch per
    // leaf-size group.
    let ms: Vec<usize> = leaf_pos.iter().map(|&pos| tree.node(level_nodes[pos]).len()).collect();
    let mut staged: Vec<Option<LeafState>> = Vec::with_capacity(leaf_pos.len());
    staged.resize_with(leaf_pos.len(), || None);
    for (_, idxs) in group_by_shape(&ms, |&m| m) {
        groups += 1;
        let items: Vec<(usize, Mat, f64)> = idxs
            .iter()
            .map(|&k| {
                let (kaa, ef) = kaas[k].take().expect("kaa materialized");
                (k, kaa, ef)
            })
            .collect();
        let done: Vec<(usize, LeafState)> = items
            .into_par_iter()
            .map(|(k, kaa, ef)| {
                let pos = leaf_pos[k];
                let node = level_nodes[pos];
                let m = kaa.nrows();
                let state = match factor::leaf_shift_factor(config, node, kaa, ef) {
                    Ok((leaf, cost)) => {
                        let (p, s) = match st.skeleton(node) {
                            Some(sk) => {
                                (Some(factor::pack_proj(&sk.proj, m, sk.rank())), sk.rank())
                            }
                            None => (None, 0),
                        };
                        LeafState { pos, node, m, s, leaf: Some(leaf), p, cost, err: None }
                    }
                    Err(e) => LeafState {
                        pos,
                        node,
                        m,
                        s: 0,
                        leaf: None,
                        p: None,
                        cost: NodeCost::default(),
                        err: Some(e),
                    },
                };
                (k, state)
            })
            .collect();
        for (k, state) in done {
            staged[k] = Some(state);
        }
    }
    let mut states: Vec<LeafState> = staged.into_iter().map(|s| s.expect("leaf staged")).collect();

    // Stage 3 — every P̂ solve of the level in one plan, grouped by
    // (size, rank, factor kind). Accounting mirrors the per-node order:
    // solve flops and P̂ bytes land after the factor cost.
    let mut plan = BatchPlan::new();
    for ls in states.iter_mut() {
        if let (Some(leaf), Some(p)) = (&ls.leaf, &mut ls.p) {
            plan.solve(leaf_ref(leaf), p.rb_mut());
        }
    }
    if !plan.is_empty() {
        groups += plan.execute();
    }
    for ls in &mut states {
        if ls.p.is_some() {
            ls.cost.flops += flops::lu_solve_flops(ls.m, ls.s);
            ls.cost.bytes += ls.m * ls.s * 8;
        }
    }

    for ls in states {
        let res = match ls.err {
            Some(e) => Err(e),
            None => {
                Ok((NodeFactors { leaf_lu: ls.leaf, p_hat: ls.p, ..Default::default() }, ls.cost))
            }
        };
        out[ls.pos] = Some((ls.node, res));
    }
    groups
}

/// Matrix-free storage modes (RecomputeGemm / GSKS): the coupling blocks
/// are never materialized, so there is nothing to split into batched
/// stages — but the nodes still launch once per shape group instead of
/// one task each, keeping the summation kernels' dispatch shape-uniform.
fn run_internals_grouped<K: Kernel>(
    st: &SkeletonTree,
    kernel: &K,
    config: &SolverConfig,
    factors: &[NodeFactors],
    level_nodes: &[usize],
    int_pos: &[usize],
    out: &mut [Option<NodeResult>],
) -> usize {
    let tree = st.tree();
    let mut groups = 0usize;
    struct Info {
        pos: usize,
        node: usize,
        l: usize,
        r: usize,
        key: (usize, usize, usize, usize, usize),
    }
    let infos: Vec<Info> = int_pos
        .iter()
        .map(|&pos| {
            let node = level_nodes[pos];
            let (l, r) = tree.node(node).children.expect("internal node");
            let sl = st.skeleton(l).expect("factorable node needs skeletonized children").rank();
            let sr = st.skeleton(r).expect("factorable node needs skeletonized children").rank();
            let (nl, nr) = (tree.node(l).len(), tree.node(r).len());
            // usize::MAX marks "no parent skeleton" (root reduced system),
            // distinct from a rank-0 skeleton.
            let s = st.skeleton(node).map_or(usize::MAX, |sk| sk.rank());
            Info { pos, node, l, r, key: (sl, sr, nl, nr, s) }
        })
        .collect();
    for (_, idxs) in group_by_shape(&infos, |i| i.key) {
        groups += 1;
        let done: Vec<NodeResult> = idxs
            .par_iter()
            .map(|&k| {
                let i = &infos[k];
                let p_hat_l = factors[i.l].p_hat.as_ref().expect("child P-hat missing");
                let p_hat_r = factors[i.r].p_hat.as_ref().expect("child P-hat missing");
                (
                    i.pos,
                    factor::factor_internal(
                        st, kernel, config, None, p_hat_l, p_hat_r, i.node, i.l, i.r,
                    ),
                )
            })
            .collect();
        for (pos, res) in done {
            let node = level_nodes[pos];
            out[pos] = Some((node, res));
        }
    }
    groups
}

struct IntState {
    pos: usize,
    node: usize,
    l: usize,
    r: usize,
    sl: usize,
    sr: usize,
    nl: usize,
    nr: usize,
    zdim: usize,
    s: usize,
    has_sk: bool,
    b_l: Option<Mat>,
    b_r: Option<Mat>,
    z_lu: Option<Lu>,
    p: Option<Mat>,
    cost: NodeCost,
    err: Option<SolverError>,
}

/// Stored-GEMV internals: the full staged pipeline — planned `B` GEMMs
/// over the assembly's coupling blocks, grouped `Z` factorizations,
/// arena-packed telescope with planned `C`/solve/`P̂` launches.
fn run_internals_stored(
    st: &SkeletonTree,
    config: &SolverConfig,
    blocks: &AssembledBlocks,
    factors: &[NodeFactors],
    level_nodes: &[usize],
    int_pos: &[usize],
    out: &mut [Option<NodeResult>],
) -> usize {
    let tree = st.tree();
    let mut groups = 0usize;

    let mut states: Vec<IntState> = int_pos
        .iter()
        .map(|&pos| {
            let node = level_nodes[pos];
            let (l, r) = tree.node(node).children.expect("internal node");
            let sl = st.skeleton(l).expect("factorable node needs skeletonized children").rank();
            let sr = st.skeleton(r).expect("factorable node needs skeletonized children").rank();
            let (nl, nr) = (tree.node(l).len(), tree.node(r).len());
            let (s, has_sk) = match st.skeleton(node) {
                Some(sk) => (sk.rank(), true),
                None => (0, false),
            };
            IntState {
                pos,
                node,
                l,
                r,
                sl,
                sr,
                nl,
                nr,
                zdim: sl + sr,
                s,
                has_sk,
                b_l: None,
                b_r: None,
                z_lu: None,
                p: None,
                cost: NodeCost { min_pivot: f64::INFINITY, ..Default::default() },
                err: None,
            }
        })
        .collect();

    // Stage 1 — B_l = K_{l̃r} P̂_r, B_r = K_{r̃l} P̂_l over the assembly's
    // coupling blocks, read in place: every GEMM of the level in one plan.
    // Pooled destinations: fully overwritten (beta=0).
    for is in states.iter_mut() {
        is.b_l = Some(workspace::take_mat_detached(is.sl, is.sr));
        is.b_r = Some(workspace::take_mat_detached(is.sr, is.sl));
    }
    {
        let mut plan = BatchPlan::new();
        for is in states.iter_mut() {
            let IntState { node, l, r, b_l, b_r, .. } = is;
            let (klr, krl) = blocks.coupling(*node);
            let p_hat_l = factors[*l].p_hat.as_ref().expect("child P-hat missing");
            let p_hat_r = factors[*r].p_hat.as_ref().expect("child P-hat missing");
            plan.gemm(
                1.0,
                klr.rb(),
                Trans::No,
                p_hat_r.rb(),
                Trans::No,
                0.0,
                b_l.as_mut().expect("b_l").rb_mut(),
            );
            plan.gemm(
                1.0,
                krl.rb(),
                Trans::No,
                p_hat_l.rb(),
                Trans::No,
                0.0,
                b_r.as_mut().expect("b_r").rb_mut(),
            );
        }
        groups += plan.execute();
    }
    for is in states.iter_mut() {
        is.cost.flops +=
            flops::gemm_flops(is.sl, is.sr, is.nr) + flops::gemm_flops(is.sr, is.sl, is.nl);
    }

    // Stage 2 — reduced systems Z = I + VW, one launch per zdim group.
    let zdims: Vec<usize> = states.iter().map(|is| is.zdim).collect();
    for (_, idxs) in group_by_shape(&zdims, |&z| z) {
        groups += 1;
        let done: Vec<(usize, Result<Lu, SolverError>, NodeCost)> = idxs
            .par_iter()
            .map(|&k| {
                let is = &states[k];
                let mut cost = is.cost;
                let res = factor::factor_z(
                    is.b_l.as_ref().expect("b_l"),
                    is.b_r.as_ref().expect("b_r"),
                    is.sl,
                    is.sr,
                    is.node,
                    config,
                    &mut cost,
                );
                (k, res, cost)
            })
            .collect();
        for (k, res, cost) in done {
            states[k].cost = cost;
            match res {
                Ok(z) => states[k].z_lu = Some(z),
                Err(e) => states[k].err = Some(e),
            }
        }
    }
    let keep_b = config.w_storage == WStorage::Recompute;
    for is in states.iter_mut() {
        if is.err.is_none() && keep_b {
            is.cost.bytes += (is.sl * is.sr * 2) * 8;
        }
    }

    // Stage 3 — telescope P̂ (eq. 10) for skeletonized nodes. The level's
    // M_l/M_r and C scratch lives in two packed arenas (one checkout
    // each); two arenas so the read-side M views and the write-side C
    // slots can coexist. Slot layout per telescope node t: arena_m holds
    // [M_l at 2t, M_r at 2t+1], arena_c holds [C at t].
    let tele: Vec<usize> =
        (0..states.len()).filter(|&k| states[k].has_sk && states[k].err.is_none()).collect();
    if !tele.is_empty() {
        let mut arena_m = Arena::new();
        let mut arena_c = Arena::new();
        for &k in &tele {
            let is = &states[k];
            arena_m.plan(is.sl, is.s);
            arena_m.plan(is.sr, is.s);
            arena_c.plan(is.zdim, is.s);
        }
        arena_m.commit();
        arena_c.commit();

        // Pack the transposed projection halves (Pt) into the M arena.
        {
            let mut carved = arena_m.carve();
            carved.par_chunks_mut(2).zip(tele.par_iter()).for_each(|(mm, &k)| {
                let is = &states[k];
                let sk = st.skeleton(is.node).expect("telescope node has skeleton");
                let (ml, mr) = mm.split_at_mut(1);
                let (ml, mr) = (&mut ml[0], &mut mr[0]);
                for j in 0..is.s {
                    for i in 0..is.sl {
                        ml.set(i, j, sk.proj[(j, i)]);
                    }
                    for i in 0..is.sr {
                        mr.set(i, j, sk.proj[(j, is.sl + i)]);
                    }
                }
            });
        }

        // C = (Z − I) Pt via the already-formed off-diagonal blocks: two
        // planned GEMMs per node into the C halves.
        {
            let mut plan = BatchPlan::new();
            for (t, (c, &k)) in arena_c.carve().into_iter().zip(&tele).enumerate() {
                let is = &states[k];
                let (top, bot) = c.split_at_row(is.sl);
                plan.gemm(
                    1.0,
                    is.b_l.as_ref().expect("b_l").rb(),
                    Trans::No,
                    arena_m.view(2 * t + 1),
                    Trans::No,
                    0.0,
                    top,
                );
                plan.gemm(
                    1.0,
                    is.b_r.as_ref().expect("b_r").rb(),
                    Trans::No,
                    arena_m.view(2 * t),
                    Trans::No,
                    0.0,
                    bot,
                );
            }
            groups += plan.execute();
        }

        // Y = Z^{-1} C: every reduced-system solve of the level in one
        // plan (grouped by zdim x s x kind).
        {
            let mut plan = BatchPlan::new();
            for (c, &k) in arena_c.carve().into_iter().zip(&tele) {
                plan.solve(FactorRef::Lu(states[k].z_lu.as_ref().expect("z_lu")), c);
            }
            groups += plan.execute();
        }
        for &k in &tele {
            let is = &mut states[k];
            is.cost.flops += flops::gemm_flops(is.sl, is.s, is.sr)
                + flops::gemm_flops(is.sr, is.s, is.sl)
                + flops::lu_solve_flops(is.zdim, is.s);
        }

        // M = Pt − Y.
        {
            let c_views: Vec<MatRef<'_>> = (0..tele.len()).map(|t| arena_c.view(t)).collect();
            let mut carved = arena_m.carve();
            carved.par_chunks_mut(2).zip(c_views.par_iter().zip(tele.par_iter())).for_each(
                |(mm, (c, &k))| {
                    let is = &states[k];
                    let (ml, mr) = mm.split_at_mut(1);
                    let (ml, mr) = (&mut ml[0], &mut mr[0]);
                    for j in 0..is.s {
                        for i in 0..is.sl {
                            ml.set(i, j, ml.get(i, j) - c.get(i, j));
                        }
                        for i in 0..is.sr {
                            mr.set(i, j, mr.get(i, j) - c.get(is.sl + i, j));
                        }
                    }
                },
            );
        }

        // P̂_α = [P̂_l M_l ; P̂_r M_r]: two planned GEMMs per node into
        // the row halves of the (pooled) output.
        let mut ps: Vec<Mat> = tele
            .iter()
            .map(|&k| {
                let is = &states[k];
                workspace::take_mat_detached(is.nl + is.nr, is.s)
            })
            .collect();
        {
            let mut plan = BatchPlan::new();
            for (t, (p, &k)) in ps.iter_mut().zip(&tele).enumerate() {
                let is = &states[k];
                let p_hat_l = factors[is.l].p_hat.as_ref().expect("child P-hat missing");
                let p_hat_r = factors[is.r].p_hat.as_ref().expect("child P-hat missing");
                let (top, bot) = p.rb_mut().split_at_row(is.nl);
                plan.gemm(1.0, p_hat_l.rb(), Trans::No, arena_m.view(2 * t), Trans::No, 0.0, top);
                plan.gemm(
                    1.0,
                    p_hat_r.rb(),
                    Trans::No,
                    arena_m.view(2 * t + 1),
                    Trans::No,
                    0.0,
                    bot,
                );
            }
            groups += plan.execute();
        }
        for (p, &k) in ps.into_iter().zip(&tele) {
            let is = &mut states[k];
            is.cost.flops +=
                flops::gemm_flops(is.nl, is.s, is.sl) + flops::gemm_flops(is.nr, is.s, is.sr);
            is.cost.bytes += (is.nl + is.nr) * is.s * 8;
            is.p = Some(p);
        }
    }

    // Finalize in level order; a failed Z drops the node's blocks exactly
    // like the per-node early return.
    for is in states {
        let res = match is.err {
            Some(e) => Err(e),
            None => {
                let (b_l, b_r) = (is.b_l.expect("b_l"), is.b_r.expect("b_r"));
                let (b_l_keep, b_r_keep) = if keep_b {
                    (Some(b_l), Some(b_r))
                } else {
                    workspace::recycle_mat(b_l);
                    workspace::recycle_mat(b_r);
                    (None, None)
                };
                Ok((
                    NodeFactors {
                        z_lu: is.z_lu,
                        p_hat: is.p,
                        b_l: b_l_keep,
                        b_r: b_r_keep,
                        ..Default::default()
                    },
                    is.cost,
                ))
            }
        };
        out[is.pos] = Some((is.node, res));
    }
    groups
}
