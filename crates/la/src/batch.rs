//! Level-batched execution of small dense operations.
//!
//! The factorization and skeletonization sweeps execute thousands of
//! *small* dense ops (GEMMs, LU/Cholesky factorizations, multi-RHS
//! triangular solves) whose shapes repeat across the nodes of a tree
//! level. Calling them one node at a time pays per-call dispatch, pool
//! checkout, and rayon task overhead on every op. This module provides
//! the batch seam (Boukaram–Keyes H² execution model, ROADMAP item 4):
//!
//! * [`Arena`] — a plan/commit/carve packed operand store: callers *plan*
//!   every per-node scratch slot of a level first, one pooled checkout
//!   *commits* the whole level, and *carve* hands out disjoint [`MatMut`]
//!   windows (one pool round-trip per level instead of per node);
//! * [`BatchPlan`] — collects [`BatchOp`]s (GEMM, factorized multi-RHS
//!   solves) with their shapes, buckets same-shape ops into groups
//!   preserving insertion order, and executes each group as **one**
//!   parallel launch with a shape-uniform inner loop;
//! * [`batch_active`]/[`set_batch_enabled`] — the `KFDS_BATCH`
//!   kill-switch consumer: `off` routes every consumer back to the
//!   per-node reference path.
//!
//! Batching is a *scheduling* transformation only: every op runs the
//! identical kernel on identical operands, so results are bitwise equal
//! to the per-node path (the GEMM never splits its accumulation
//! dimension, and a batched solve makes the same `solve_mat_mut` call the
//! per-node path makes).

use crate::chol::Cholesky;
use crate::lu::Lu;
use crate::mat::{MatMut, MatRef};
use crate::workspace::{self, WsVec};
use crate::Trans;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static BATCH_ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();

/// `true` when the level-batched execution engine is active (the
/// default). Controlled by the registered `KFDS_BATCH` switch, sampled
/// once per process; [`set_batch_enabled`] overrides at runtime.
#[inline]
pub fn batch_active() -> bool {
    ENV_INIT.call_once(|| {
        if kfds_switches::KFDS_BATCH.is_off() {
            BATCH_ENABLED.store(false, Ordering::Relaxed);
        }
    });
    BATCH_ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables the level-batched engine at runtime (overrides
/// `KFDS_BATCH`). With batching off, skeletonization/assembly/
/// factorization take the per-node `par_iter` reference path —
/// bitwise-identical results, per-node launch overhead. Used by the
/// `level_batch` bench and the A/B property tests.
pub fn set_batch_enabled(on: bool) {
    let _ = batch_active(); // apply the env default first so it cannot clobber us
    BATCH_ENABLED.store(on, Ordering::Relaxed);
}

/// One planned `nrows x ncols` window inside an [`Arena`].
#[derive(Clone, Copy, Debug)]
struct Slot {
    offset: usize,
    nrows: usize,
    ncols: usize,
}

/// A packed per-level operand store with a plan → commit → carve
/// lifecycle:
///
/// 1. [`Arena::plan`] records the shape of every scratch matrix the level
///    needs and returns its slot id (no allocation happens);
/// 2. [`Arena::commit`] performs **one** pooled checkout sized for the
///    whole level;
/// 3. [`Arena::carve`] hands out every slot as a [`MatMut`] at once —
///    provably disjoint windows (sequential `split_at_mut`), so a
///    group-parallel launch can write all of them concurrently; after
///    the mutable phase, [`Arena::view`] re-reads any slot immutably.
///
/// Dropping the arena returns the single buffer to the workspace pool.
pub struct Arena {
    slots: Vec<Slot>,
    len: usize,
    buf: Option<WsVec>,
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl Arena {
    /// An empty arena in the planning phase.
    pub fn new() -> Self {
        // lint:allow(hot-path-alloc): slot metadata, one Vec per level — amortized over every node of the level (the pool handles the f64 payload).
        Arena { slots: Vec::with_capacity(64), len: 0, buf: None }
    }

    /// Plans an `nrows x ncols` column-major slot; returns its id.
    ///
    /// # Panics
    /// Panics if called after [`Arena::commit`].
    pub fn plan(&mut self, nrows: usize, ncols: usize) -> usize {
        assert!(self.buf.is_none(), "Arena::plan after commit");
        let id = self.slots.len();
        self.slots.push(Slot { offset: self.len, nrows, ncols });
        self.len += nrows * ncols;
        id
    }

    /// Number of planned slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total planned elements.
    pub fn planned_len(&self) -> usize {
        self.len
    }

    /// Materializes the arena: one pooled checkout for every planned
    /// slot. Slot contents are arbitrary until written through
    /// [`Arena::carve`].
    pub fn commit(&mut self) {
        assert!(self.buf.is_none(), "Arena::commit called twice");
        self.buf = Some(workspace::take(self.len));
    }

    /// Hands out **all** planned slots as disjoint mutable windows, in
    /// plan order. The disjointness is structural: slots are carved by
    /// sequential `split_at_mut` over strictly increasing offsets
    /// (debug-asserted), so no two returned views alias.
    ///
    /// # Panics
    /// Panics if the arena was not committed.
    pub fn carve(&mut self) -> Vec<MatMut<'_>> {
        let buf = self.buf.as_mut().expect("Arena::carve before commit");
        let mut rest: &mut [f64] = &mut buf[..];
        let mut consumed = 0usize;
        // lint:allow(hot-path-alloc): view headers, one Vec per carve (per level) — not per-op scratch.
        let mut out = Vec::with_capacity(self.slots.len());
        for s in &self.slots {
            // Plan order is offset order; every slot begins exactly where
            // the previous one ended, so the windows partition the buffer.
            debug_assert_eq!(s.offset, consumed, "arena slots must be contiguous and ordered");
            let (head, tail) = rest.split_at_mut(s.nrows * s.ncols);
            out.push(MatMut::from_parts(head, s.nrows, s.ncols, s.nrows));
            consumed += s.nrows * s.ncols;
            rest = tail;
        }
        debug_assert_eq!(consumed, self.len);
        out
    }

    /// Immutable view of one slot (valid after the mutable carve phase
    /// ends).
    pub fn view(&self, slot: usize) -> MatRef<'_> {
        let s = self.slots[slot];
        let buf = self.buf.as_ref().expect("Arena::view before commit");
        MatRef::from_parts(&buf[s.offset..s.offset + s.nrows * s.ncols], s.nrows, s.ncols, s.nrows)
    }
}

/// A factorized square system a batched solve can apply — the two leaf
/// factorization kinds plus the reduced-system LU.
#[derive(Clone, Copy)]
pub enum FactorRef<'a> {
    /// Partial-pivoted LU.
    Lu(&'a Lu),
    /// Cholesky.
    Cholesky(&'a Cholesky),
}

impl FactorRef<'_> {
    fn dim(&self) -> usize {
        match self {
            FactorRef::Lu(f) => f.dim(),
            FactorRef::Cholesky(f) => f.dim(),
        }
    }

    /// In-place multi-RHS solve through the factorization's one view
    /// entry — the same call the owned `solve_mat_inplace` makes.
    fn solve_mat_mut(&self, rhs: MatMut<'_>) {
        match self {
            FactorRef::Lu(f) => f.solve_mat_mut(rhs),
            FactorRef::Cholesky(f) => f.solve_mat_mut(rhs),
        }
    }
}

/// One planned dense op. Shapes are read off the operands when the plan
/// buckets ops into same-shape groups.
pub enum BatchOp<'a> {
    /// `C = alpha * op(A) op(B) + beta * C` through [`crate::gemm`].
    Gemm {
        /// Scale on the product.
        alpha: f64,
        /// Left operand.
        a: MatRef<'a>,
        /// Transposition of `a`.
        ta: Trans,
        /// Right operand.
        b: MatRef<'a>,
        /// Transposition of `b`.
        tb: Trans,
        /// Scale on the destination.
        beta: f64,
        /// Destination.
        c: MatMut<'a>,
    },
    /// Multi-RHS in-place solve `rhs <- A^{-1} rhs` against a factorized
    /// system.
    Solve {
        /// The factorized system.
        f: FactorRef<'a>,
        /// Right-hand sides, overwritten with the solution.
        rhs: MatMut<'a>,
    },
}

/// Shape-bucketing key: op kind + every dimension that determines the
/// inner-loop structure (see [`BatchOp::shape_key`]).
type ShapeKey = (u8, usize, usize, usize, u8);

impl BatchOp<'_> {
    /// Shape-bucketing key: op kind + every dimension that determines the
    /// inner-loop structure. Two ops with equal keys run the identical
    /// instruction schedule, so grouping them keeps the microkernels hot.
    fn shape_key(&self) -> ShapeKey {
        match self {
            BatchOp::Gemm { a, ta, b: _, c, .. } => {
                let k = if matches!(ta, Trans::No) { a.ncols() } else { a.nrows() };
                (0, c.nrows(), c.ncols(), k, 0)
            }
            BatchOp::Solve { f, rhs } => {
                let kind = match f {
                    FactorRef::Lu(_) => 0u8,
                    FactorRef::Cholesky(_) => 1u8,
                };
                (1, f.dim(), rhs.ncols(), 0, kind)
            }
        }
    }

    fn run(self) {
        match self {
            BatchOp::Gemm { alpha, a, ta, b, tb, beta, c } => {
                crate::gemm(alpha, a, ta, b, tb, beta, c);
            }
            BatchOp::Solve { f, rhs } => f.solve_mat_mut(rhs),
        }
    }
}

/// A collected batch of small dense ops, executed group-by-group with one
/// parallel launch per same-shape group.
pub struct BatchPlan<'a> {
    ops: Vec<BatchOp<'a>>,
}

impl Default for BatchPlan<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> BatchPlan<'a> {
    /// An empty plan.
    pub fn new() -> Self {
        // lint:allow(hot-path-alloc): op descriptors, one Vec per plan (per level) — amortized over every op it batches.
        BatchPlan { ops: Vec::with_capacity(64) }
    }

    /// Adds one op to the plan.
    pub fn push(&mut self, op: BatchOp<'a>) {
        self.ops.push(op);
    }

    /// Plans a GEMM (`C = alpha * op(A) op(B) + beta * C`).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &mut self,
        alpha: f64,
        a: MatRef<'a>,
        ta: Trans,
        b: MatRef<'a>,
        tb: Trans,
        beta: f64,
        c: MatMut<'a>,
    ) {
        self.push(BatchOp::Gemm { alpha, a, ta, b, tb, beta, c });
    }

    /// Plans a factorized multi-RHS solve.
    pub fn solve(&mut self, f: FactorRef<'a>, rhs: MatMut<'a>) {
        self.push(BatchOp::Solve { f, rhs });
    }

    /// Number of planned ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no ops are planned.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Executes every planned op, bucketed into same-shape groups (first
    /// occurrence order) with one parallel launch per group. Returns the
    /// number of groups launched.
    ///
    /// Results are bitwise identical to running the ops one by one in
    /// insertion order: the ops of a plan write disjoint destinations by
    /// construction (the borrow checker enforces exclusive `MatMut`s),
    /// and each op's arithmetic is scheduling-invariant.
    pub fn execute(self) -> usize {
        let mut groups: Vec<(ShapeKey, Vec<BatchOp<'a>>)> =
            // lint:allow(hot-path-alloc): bucketing lists, one per execute (per level) — not per-op scratch.
            Vec::with_capacity(8);
        for op in self.ops {
            let key = op.shape_key();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(op),
                None => {
                    // lint:allow(hot-path-alloc): one list per shape group, few per level.
                    let mut g = Vec::with_capacity(16);
                    g.push(op);
                    groups.push((key, g));
                }
            }
        }
        let n_groups = groups.len();
        for (_, group) in groups {
            // One launch per shape group: uniform inner loop, split across
            // threads by rayon. A singleton group runs inline to skip the
            // launch overhead entirely.
            if group.len() == 1 {
                for op in group {
                    op.run();
                }
            } else {
                group.into_par_iter().for_each(BatchOp::run);
            }
        }
        n_groups
    }
}

/// Groups `items` by a shape key, preserving first-occurrence order of
/// groups and insertion order within each group; returns the grouped
/// index lists. The shared bucketing policy for batched launches that
/// cannot be expressed as [`BatchOp`]s (kernel-block evaluation,
/// LU/Cholesky factorization with owned outputs).
pub fn group_by_shape<T, K: PartialEq, F: Fn(&T) -> K>(
    items: &[T],
    key: F,
) -> Vec<(K, Vec<usize>)> {
    // lint:allow(hot-path-alloc): bucketing index lists, one call per level — not per-op scratch.
    let mut groups: Vec<(K, Vec<usize>)> = Vec::with_capacity(8);
    for (i, it) in items.iter().enumerate() {
        let k = key(it);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, idxs)) => idxs.push(i),
            None => {
                // lint:allow(hot-path-alloc): one index list per shape group, few per level.
                let mut idxs = Vec::with_capacity(16);
                idxs.push(i);
                groups.push((k, idxs));
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    #[test]
    fn arena_slots_are_disjoint_and_ordered() {
        let mut a = Arena::new();
        let ids: Vec<usize> =
            [(3usize, 2usize), (4, 4), (1, 5), (2, 2)].iter().map(|&(m, n)| a.plan(m, n)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(a.planned_len(), 6 + 16 + 5 + 4);
        a.commit();
        {
            let mut slots = a.carve();
            assert_eq!(slots.len(), 4);
            // Stamp every slot with its id; overlap would clobber a stamp.
            for (id, s) in slots.iter_mut().enumerate() {
                for j in 0..s.ncols() {
                    for i in 0..s.nrows() {
                        s.set(i, j, id as f64 + 1.0);
                    }
                }
            }
        }
        for (id, &(m, n)) in [(3usize, 2usize), (4, 4), (1, 5), (2, 2)].iter().enumerate() {
            let v = a.view(id);
            assert_eq!((v.nrows(), v.ncols()), (m, n));
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(v.get(i, j), id as f64 + 1.0, "slot {id} clobbered at ({i},{j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "plan after commit")]
    fn arena_rejects_plan_after_commit() {
        let mut a = Arena::new();
        a.plan(2, 2);
        a.commit();
        a.plan(1, 1);
    }

    #[test]
    fn batch_gemm_matches_sequential() {
        let a1 = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.3 - 1.0);
        let b1 = Mat::from_fn(3, 5, |i, j| ((i + 2 * j) as f64 * 0.41).sin());
        let a2 = Mat::from_fn(4, 3, |i, j| ((i * 7 + j) as f64 * 0.2).cos());
        let b2 = Mat::from_fn(3, 5, |i, j| (i as f64) - (j as f64) * 0.5);
        let a3 = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b3 = Mat::from_fn(2, 2, |i, j| (i * 2 + j) as f64 * 0.1);

        // Reference: sequential gemm calls.
        let mut r1 = Mat::zeros(4, 5);
        let mut r2 = Mat::zeros(4, 5);
        let mut r3 = Mat::zeros(2, 2);
        crate::gemm(1.0, a1.rb(), Trans::No, b1.rb(), Trans::No, 0.0, r1.rb_mut());
        crate::gemm(2.0, a2.rb(), Trans::No, b2.rb(), Trans::No, 0.0, r2.rb_mut());
        crate::gemm(1.0, a3.rb(), Trans::No, b3.rb(), Trans::No, 0.0, r3.rb_mut());

        // Batched: two shape groups (4x5x3 twice, 2x2x2 once).
        let mut c1 = Mat::zeros(4, 5);
        let mut c2 = Mat::zeros(4, 5);
        let mut c3 = Mat::zeros(2, 2);
        let mut plan = BatchPlan::new();
        plan.gemm(1.0, a1.rb(), Trans::No, b1.rb(), Trans::No, 0.0, c1.rb_mut());
        plan.gemm(2.0, a2.rb(), Trans::No, b2.rb(), Trans::No, 0.0, c2.rb_mut());
        plan.gemm(1.0, a3.rb(), Trans::No, b3.rb(), Trans::No, 0.0, c3.rb_mut());
        let groups = plan.execute();
        assert_eq!(groups, 2, "two shape groups expected");
        assert_eq!(c1.as_slice(), r1.as_slice());
        assert_eq!(c2.as_slice(), r2.as_slice());
        assert_eq!(c3.as_slice(), r3.as_slice());
    }

    #[test]
    fn batch_solve_matches_sequential() {
        let spd = |seed: usize| {
            let g = Mat::from_fn(4, 4, |i, j| ((i * 5 + j + seed) as f64 * 0.37).sin());
            let mut s = Mat::zeros(4, 4);
            crate::gemm(1.0, g.rb(), Trans::Yes, g.rb(), Trans::No, 0.0, s.rb_mut());
            for i in 0..4 {
                s[(i, i)] += 4.0;
            }
            s
        };
        let lu = Lu::factor(spd(1)).expect("lu");
        let ch = Cholesky::factor(spd(2)).expect("chol");
        let rhs = Mat::from_fn(4, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0) + 0.25);

        let mut want_lu = rhs.clone();
        lu.solve_mat_inplace(&mut want_lu);
        let mut want_ch = rhs.clone();
        ch.solve_mat_inplace(&mut want_ch);

        let mut got_lu = rhs.clone();
        let mut got_ch = rhs.clone();
        let mut plan = BatchPlan::new();
        plan.solve(FactorRef::Lu(&lu), got_lu.rb_mut());
        plan.solve(FactorRef::Cholesky(&ch), got_ch.rb_mut());
        // Lu and Cholesky solves are distinct shape groups.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.execute(), 2);
        assert_eq!(got_lu.as_slice(), want_lu.as_slice());
        assert_eq!(got_ch.as_slice(), want_ch.as_slice());
    }

    #[test]
    fn group_by_shape_preserves_order() {
        let shapes = [(2, 3), (4, 4), (2, 3), (4, 4), (1, 1)];
        let groups = group_by_shape(&shapes, |&s| s);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], ((2, 3), vec![0, 2]));
        assert_eq!(groups[1], ((4, 4), vec![1, 3]));
        assert_eq!(groups[2], ((1, 1), vec![4]));
    }

    #[test]
    fn switch_default_and_override() {
        // Only this test flips the switch in this binary, so `prev` is the
        // default: active unless KFDS_BATCH opts out. The override
        // round-trips.
        let prev = batch_active();
        assert_eq!(prev, !kfds_switches::KFDS_BATCH.is_off());
        set_batch_enabled(false);
        assert!(!batch_active());
        set_batch_enabled(true);
        assert!(batch_active());
        set_batch_enabled(prev);
    }
}
