//! The shard router: partition, RHS-block scatter, partial solve gather,
//! and the shared top-tree sweep.
//!
//! Topology: `p` shard worker threads hold transport ranks `0..p`, the
//! router holds rank `p`. A solve partitions the caller's factor handle
//! (a view: `O(p)` index arithmetic, no copy), then makes a control-plane
//! job broadcast (that [`PartitionedFactor`] + RHS width + a shared
//! outcome record, over crossbeam channels) followed by the data-plane
//! exchange over [`kfds_rt::Transport`]: the router scatters each shard's
//! contiguous RHS row block under [`tags::SHARD_DATA`], every worker
//! solves its rank-owned subtree locally and sends the solved block back,
//! and the router finishes the gathered vector with
//! [`PartitionedFactor::solve_top`] — the shared top-tree corrections. The data plane is serialized under one mutex, so
//! a request's scatter/gather pair can never interleave with another's
//! and tag reuse across requests is safe; workers drain their channel in
//! order, matching the transport's per-pair FIFO guarantee.
//!
//! A failed worker (malformed payload, panicking solve) still sends an
//! (empty, hence malformed) gather block so the router always receives
//! exactly `p` responses and the data plane stays clean; the failure
//! itself travels through the outcome record.
//!
//! The router keeps no factor: the job carries the handle, and each
//! worker drops its clone before it answers, so when `solve` returns the
//! caller's handles are the only ones left.

use crate::stats::{ShardCounters, ShardLane};
use crossbeam::channel::{unbounded, Receiver, Sender};
use kfds_core::{PartitionedFactor, SharedFactor};
use kfds_kernels::Kernel;
use kfds_la::{Mat, MatMut};
use kfds_rt::sync::{LockRank, RankedMutex};
use kfds_rt::{tags, Comm, Transport, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// RHS row-block scatter, router → shard worker.
const SCATTER: u32 = tags::SHARD_DATA.tag(0);
/// Solved row-block gather, shard worker → router.
const GATHER: u32 = tags::SHARD_DATA.tag(1);

/// Why a routed solve failed.
#[derive(Clone, Debug)]
pub enum ShardError {
    /// The router is shut down (or shutting down); no work was dispatched.
    ShuttingDown,
    /// The factorization cannot be split into this router's shard count.
    /// The caller should serve the request on the single-node path
    /// instead — the answer is bitwise the same.
    Unpartitionable(String),
    /// A shard worker failed its local solve; the RHS buffer contents are
    /// unspecified and the request must be reported failed.
    ShardFailed {
        /// First failing shard.
        shard: usize,
        /// The failure it reported.
        msg: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ShuttingDown => write!(f, "shard router is shutting down"),
            ShardError::Unpartitionable(e) => write!(f, "factor cannot be sharded: {e}"),
            ShardError::ShardFailed { shard, msg } => {
                write!(f, "shard {shard} failed its local solve: {msg}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Per-request completion record shared between the router and the `p`
/// workers: every shard must report exactly once (enforced by a
/// debug-mode swap assert — the scatter/gather protocol's exactly-once
/// property), and errors travel back by shard index.
struct RequestOutcome {
    /// 0 = pending, 1 = ok, 2 = failed; one slot per shard.
    marks: Vec<AtomicU8>,
    errs: RankedMutex<Vec<Option<String>>>,
}

impl RequestOutcome {
    fn new(p: usize) -> Self {
        RequestOutcome {
            marks: (0..p).map(|_| AtomicU8::new(0)).collect(),
            errs: RankedMutex::new(LockRank::ShardOutcome, vec![None; p]),
        }
    }

    fn record(&self, shard: usize, err: Option<String>) {
        let code = if err.is_some() { 2 } else { 1 };
        let prev = self.marks[shard].swap(code, Ordering::SeqCst);
        debug_assert_eq!(prev, 0, "shard {shard} completed the same request twice");
        if let Some(msg) = err {
            self.errs.lock()[shard] = Some(msg);
        }
    }

    fn assert_all_reported(&self) {
        for (s, m) in self.marks.iter().enumerate() {
            debug_assert_ne!(
                m.load(Ordering::SeqCst),
                0,
                "shard {s} never reported completion for a gathered request"
            );
        }
    }

    fn error_of(&self, shard: usize) -> String {
        self.errs.lock()[shard].clone().unwrap_or_else(|| "shard solve failed".into())
    }
}

/// Control-plane message to one shard worker.
enum Job<K: Kernel + 'static> {
    Solve { pf: PartitionedFactor<K>, nrhs: usize, outcome: Arc<RequestOutcome> },
    Shutdown,
}

/// The router's half of the data plane, serialized under one mutex so
/// concurrent solves cannot interleave their scatter/gather exchanges.
struct DataPlane {
    ep: Comm,
    closed: bool,
}

/// Routes solve requests across `p` shard workers. Stateless between
/// requests: which factor a request solves on is the caller's business
/// (`kfds-serve` resolves it through its setup and factor caches).
pub struct ShardRouter<K: Kernel + 'static> {
    p: usize,
    plane: RankedMutex<DataPlane>,
    job_txs: Vec<Sender<Job<K>>>,
    workers: RankedMutex<Vec<JoinHandle<()>>>,
    counters: Arc<Vec<ShardCounters>>,
}

impl<K: Kernel + 'static> ShardRouter<K> {
    /// Spawns `p` shard workers (transport ranks `0..p`; the router keeps
    /// rank `p`).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn start(p: usize) -> Self {
        assert!(p > 0, "need at least one shard");
        let mut eps = World::endpoints(p + 1);
        // PANIC-OK: World::endpoints(p + 1) returns exactly p + 1
        // endpoints by contract and p >= 1 is asserted above.
        let router_ep = eps.pop().expect("p + 1 endpoints");
        let counters: Arc<Vec<ShardCounters>> =
            Arc::new((0..p).map(|_| ShardCounters::default()).collect());
        let mut job_txs = Vec::with_capacity(p);
        let mut workers = Vec::with_capacity(p);
        for (shard, ep) in eps.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            job_txs.push(tx);
            let counters = Arc::clone(&counters);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("kfds-shard-{shard}"))
                    .spawn(move || worker_loop(shard, p, ep, rx, counters))
                    // PANIC-OK: thread-spawn failure at router startup is a
                    // resource-exhaustion fault on the control plane, not a
                    // per-request data-plane condition to degrade from.
                    .expect("spawn shard worker"),
            );
        }
        ShardRouter {
            p,
            plane: RankedMutex::new(
                LockRank::RouterDataPlane,
                DataPlane { ep: router_ep, closed: false },
            ),
            job_txs,
            workers: RankedMutex::new(LockRank::RouterControl, workers),
            counters,
        }
    }

    /// Number of shards `p`.
    pub fn shards(&self) -> usize {
        self.p
    }

    /// Solves `(λI + K̃) X = B` in place across the shard group:
    /// partitions `factor`, scatters RHS row blocks, gathers the per-shard
    /// partial solves and applies the shared top tree. Bitwise-identical
    /// to the single-node blocked solve on the same `b`.
    ///
    /// # Errors
    /// [`ShardError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// (no work dispatched, `b` untouched);
    /// [`ShardError::Unpartitionable`] when `factor` cannot split into
    /// `p` shards (`b` untouched — serve the single-node path instead);
    /// [`ShardError::ShardFailed`] when a worker fails (`b`'s contents
    /// are unspecified).
    pub fn solve(&self, factor: &SharedFactor<K>, b: &mut Mat) -> Result<(), ShardError> {
        let plane = self.plane.lock();
        if plane.closed {
            return Err(ShardError::ShuttingDown);
        }
        let pf = PartitionedFactor::partition(factor.clone(), self.p)
            .map_err(|e| ShardError::Unpartitionable(e.to_string()))?;
        assert_eq!(b.nrows(), pf.n(), "routed solve: rhs rows mismatch");
        let nrhs = b.ncols();
        if nrhs == 0 {
            return Ok(());
        }
        let outcome = Arc::new(RequestOutcome::new(self.p));
        for tx in &self.job_txs {
            let job = Job::Solve { pf: pf.clone(), nrhs, outcome: Arc::clone(&outcome) };
            // PANIC-OK: workers only exit after a Shutdown job, which is
            // only sent with `closed` set under this same lock — a
            // disconnected channel here means a worker died outside the
            // protocol (broken invariant), and the serve tier contains the
            // unwind via catch_unwind + key quarantine.
            tx.send(job).expect("shard worker alive while the router is open");
        }
        pf.scatter_rhs(&plane.ep, b, SCATTER);
        let malformed = pf.gather_solutions(&plane.ep, b, GATHER);
        drop(plane);
        outcome.assert_all_reported();
        if let Some(&shard) = malformed.first() {
            return Err(ShardError::ShardFailed { shard, msg: outcome.error_of(shard) });
        }
        pf.solve_top(b);
        Ok(())
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn stats(&self) -> Vec<ShardLane> {
        self.counters.iter().enumerate().map(|(s, c)| c.snapshot(s)).collect()
    }

    /// Stops the workers and joins them. Idempotent; in-flight solves
    /// complete first (they hold the data-plane lock), later `solve`
    /// calls return [`ShardError::ShuttingDown`].
    pub fn shutdown(&self) {
        {
            let mut plane = self.plane.lock();
            if plane.closed {
                return;
            }
            plane.closed = true;
            for tx in &self.job_txs {
                // A worker that already panicked has dropped its receiver;
                // the join below still reaps it.
                let _ = tx.send(Job::Shutdown);
            }
        }
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<K: Kernel + 'static> Drop for ShardRouter<K> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<K: Kernel + 'static>(
    shard: usize,
    p: usize,
    ep: Comm,
    rx: Receiver<Job<K>>,
    counters: Arc<Vec<ShardCounters>>,
) {
    let me = &counters[shard];
    while let Ok(job) = rx.recv() {
        let Job::Solve { pf, nrhs, outcome } = job else {
            break;
        };
        ShardCounters::bump(&me.requests);
        // The router scatters unconditionally after broadcasting the job,
        // so the payload must be consumed even on the failure path below
        // — otherwise it would linger and corrupt the next request.
        let mut payload = ep.recv_block(p, SCATTER);
        let rows = pf.shard_range(shard).len();
        let result: Result<(), String> = if nrhs == 0 || payload.len() != rows * nrhs {
            Err(format!(
                "scatter payload shape mismatch on shard {shard}: got {} values for \
                 {rows} x {nrhs}",
                payload.len()
            ))
        } else {
            // The payload is the shard's row block, column-major: solve on
            // it where it landed and send it back.
            catch_unwind(AssertUnwindSafe(|| {
                pf.solve_local(shard, MatMut::from_parts(&mut payload, rows, nrhs, rows));
            }))
            .map_err(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "local solve panicked".to_string());
                format!("local solve panicked on shard {shard}: {msg}")
            })
        };
        // The job's handle goes before the answer does: once the router has
        // gathered, no worker still holds the factor.
        drop(pf);
        match result {
            Ok(()) => {
                me.rows_solved.fetch_add(payload.len() as u64, Ordering::Relaxed);
                outcome.record(shard, None);
                ep.send_block(p, GATHER, &payload);
            }
            Err(msg) => {
                ShardCounters::bump(&me.errors);
                outcome.record(shard, Some(msg));
                // An empty block is always malformed for nrhs >= 1, so the
                // router sees exactly which shard failed while its gather
                // count stays exact.
                ep.send_block(p, GATHER, &[]);
            }
        }
    }
}
