//! The solve service: a bounded request queue in front of worker threads
//! that coalesce same-key requests into blocked multi-RHS solves.
//!
//! ## Batching policy (adaptive micro-batching)
//!
//! A worker pops the oldest request, then drains every queued request for
//! the *same factorization key* up to `max_batch`. If the batch is not
//! full and the queue still holds work (i.e. the service is under load),
//! the worker lingers for a short window (`linger`) to let concurrent
//! producers top the batch up; when the queue is idle the batch dispatches
//! immediately, so an unloaded service adds no artificial latency. The
//! whole batch is assembled into one `N x batch` matrix and solved with a
//! single blocked application of the factors
//! ([`SharedFactor::solve_block_in_place`]), which is GEMM-shaped work —
//! the amortization the paper's multi-RHS solve exposes.
//!
//! ## Robustness
//!
//! * The queue is bounded: submissions beyond the high-water mark are
//!   rejected with [`ServeError::Overloaded`] at submit time
//!   (backpressure), never silently dropped later.
//! * Every request carries a deadline; requests whose deadline passed
//!   while queued are answered [`ServeError::DeadlineExceeded`] at
//!   dispatch instead of wasting solve work.
//! * A factorization that fails to build — or panics — quarantines its
//!   key in the [`FactorCache`]; subsequent requests for that key fail
//!   fast and every other key keeps being served.
//!
//! The runtime is plain OS threads + mutex/condvar (like `kfds-rt`): no
//! async executor dependency, and solves still use the rayon pool
//! internally.

use crate::cache::{CacheError, FactorCache, FactorKey, SetupCache, SetupKey};
use crate::stats::{Metrics, ServeStats};
use crate::ServeError;
use kfds_core::{PartitionedFactor, SharedFactor, SharedSetup, SolverConfig};
use kfds_kernels::Kernel;
use kfds_krylov::GmresOptions;
use kfds_la::Mat;
use kfds_rt::sync::{LockRank, RankedCondvar, RankedMutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Batcher worker threads draining the queue.
    pub workers: usize,
    /// Maximum right-hand sides coalesced into one blocked solve; `1`
    /// serves every request on its own.
    pub max_batch: usize,
    /// Queue depth beyond which submissions are rejected with
    /// [`ServeError::Overloaded`].
    pub high_water: usize,
    /// Default per-request deadline (submit → response).
    pub default_timeout: Duration,
    /// How long a worker lingers for batch top-up while under load.
    /// Ignored when the queue is idle (immediate dispatch).
    pub linger: Duration,
    /// Ready factorizations retained by the LRU cache.
    pub cache_capacity: usize,
    /// GMRES options for the hybrid (partially factorized) solve path.
    pub gmres: GmresOptions,
    /// Shard-group size: `1` (default) serves every batch on the
    /// single-node blocked path; `p > 1` partitions each complete
    /// factorization into `p` rank-owned subtree shards
    /// ([`PartitionedFactor`]) and solves them in turn on the worker that
    /// took the batch (bitwise-identical answers, one counter lane per
    /// shard).
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 16,
            high_water: 256,
            default_timeout: Duration::from_secs(10),
            linger: Duration::from_micros(500),
            cache_capacity: 4,
            gmres: GmresOptions::default(),
            shards: 1,
        }
    }
}

impl ServeConfig {
    /// Builder-style setter for the worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Builder-style setter for the maximum batch size.
    pub fn with_max_batch(mut self, b: usize) -> Self {
        self.max_batch = b.max(1);
        self
    }

    /// Builder-style setter for the queue high-water mark.
    pub fn with_high_water(mut self, hw: usize) -> Self {
        self.high_water = hw.max(1);
        self
    }

    /// Builder-style setter for the default request timeout.
    pub fn with_default_timeout(mut self, t: Duration) -> Self {
        self.default_timeout = t;
        self
    }

    /// Builder-style setter for the batch top-up linger window.
    pub fn with_linger(mut self, l: Duration) -> Self {
        self.linger = l;
        self
    }

    /// Builder-style setter for the factorization-cache capacity.
    pub fn with_cache_capacity(mut self, c: usize) -> Self {
        self.cache_capacity = c;
        self
    }

    /// Builder-style setter for the shard-group size (`1` disables the
    /// shard tier).
    pub fn with_shards(mut self, p: usize) -> Self {
        self.shards = p.max(1);
        self
    }
}

/// One-shot response slot shared between a worker and a [`Ticket`].
struct ResponseCell {
    slot: RankedMutex<Option<Result<Vec<f64>, ServeError>>>,
    cv: RankedCondvar,
}

impl ResponseCell {
    fn new() -> Arc<Self> {
        Arc::new(ResponseCell {
            slot: RankedMutex::new(LockRank::ServeSlot, None),
            cv: RankedCondvar::new(),
        })
    }

    fn fulfill(&self, r: Result<Vec<f64>, ServeError>) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(r);
        }
        drop(slot);
        self.cv.notify_all();
    }
}

/// Handle to one in-flight solve request; redeem with [`Ticket::wait`].
pub struct Ticket {
    cell: Arc<ResponseCell>,
}

impl Ticket {
    /// Blocks until the service answers.
    ///
    /// # Errors
    /// Whatever the service answered with — see [`ServeError`].
    pub fn wait(self) -> Result<Vec<f64>, ServeError> {
        let mut slot = self.cell.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.cell.cv.wait(slot);
        }
    }
}

struct Request {
    key: FactorKey,
    rhs: Vec<f64>,
    enqueued: Instant,
    deadline: Instant,
    cell: Arc<ResponseCell>,
}

struct QueueState {
    deque: VecDeque<Request>,
    open: bool,
}

/// What the workers share. A factor-cache miss is filled two-level: the
/// key's λ-free [`SetupKey`] resolves the expensive setup ([`SharedSetup`]:
/// tree + skeletonization + assembled kernel blocks) through its own
/// single-flight cache, and each λ pays only [`SharedFactor::refactorize`].
/// A factor-level failure quarantines the λ key alone; the setup entry
/// keeps serving other λ.
struct Shared<K: Kernel + 'static> {
    cfg: ServeConfig,
    queue: RankedMutex<QueueState>,
    cv: RankedCondvar,
    cache: FactorCache<SharedFactor<K>>,
    setups: SetupCache<SharedSetup<K>>,
    #[allow(clippy::type_complexity)]
    builder: Box<dyn Fn(&SetupKey) -> Result<SharedSetup<K>, ServeError> + Send + Sync>,
    /// λ-agnostic solver configuration; each key's λ is stamped in.
    base: SolverConfig,
    metrics: Metrics,
}

impl<K: Kernel + 'static> Shared<K> {
    /// The stats snapshot at queue depth `depth`.
    fn snapshot(&self, depth: usize) -> ServeStats {
        self.metrics.snapshot(
            depth,
            self.cache.ready_len(),
            self.cache.poisoned_len(),
            self.setups.ready_len(),
            self.setups.builds(),
        )
    }
}

/// The batched solve service. Construct with
/// [`SolveService::start_two_level`], submit right-hand sides with
/// [`SolveService::submit`], stop with [`SolveService::shutdown`].
pub struct SolveService<K: Kernel + 'static> {
    shared: Arc<Shared<K>>,
    workers: Vec<JoinHandle<()>>,
}

impl<K: Kernel + 'static> SolveService<K> {
    /// Starts the worker threads of a two-level service: `setup_builder`
    /// maps a λ-free [`SetupKey`] to an owned [`SharedSetup`] (tree +
    /// skeletonization + assembled coupling blocks — built at most once per
    /// setup, single-flight), and every [`FactorKey`] miss then pays only
    /// [`SharedFactor::refactorize`] at `base.with_lambda(key.lambda())`.
    /// A λ sweep therefore runs the setup builder exactly once. A failed
    /// setup build quarantines the setup; a failed refactorization
    /// quarantines its λ key alone.
    pub fn start_two_level(
        cfg: ServeConfig,
        base: SolverConfig,
        setup_builder: impl Fn(&SetupKey) -> Result<SharedSetup<K>, ServeError> + Send + Sync + 'static,
    ) -> Self {
        let lanes = if cfg.shards > 1 { cfg.shards } else { 0 };
        let metrics = Metrics {
            shard_rows: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            ..Metrics::default()
        };
        let shared = Arc::new(Shared {
            cache: FactorCache::new(cfg.cache_capacity, LockRank::FactorCache),
            setups: SetupCache::new(cfg.cache_capacity, LockRank::SetupCache),
            builder: Box::new(setup_builder),
            base,
            cfg,
            queue: RankedMutex::new(
                LockRank::ServeQueue,
                QueueState { deque: VecDeque::new(), open: true },
            ),
            cv: RankedCondvar::new(),
            metrics,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kfds-serve-{i}"))
                    .spawn(move || worker_loop(&sh))
                    // PANIC-OK: thread-spawn failure at service startup is
                    // a resource-exhaustion fault on the control plane,
                    // not a per-request condition to degrade from.
                    .expect("spawn serve worker")
            })
            .collect();
        SolveService { shared, workers }
    }

    /// Submits a solve request (`rhs` in original point order) with the
    /// configured default timeout.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the queue is past the high-water
    /// mark; [`ServeError::ShuttingDown`] after [`SolveService::shutdown`].
    pub fn submit(&self, key: FactorKey, rhs: Vec<f64>) -> Result<Ticket, ServeError> {
        self.submit_with_timeout(key, rhs, self.shared.cfg.default_timeout)
    }

    /// [`SolveService::submit`] with an explicit deadline.
    ///
    /// # Errors
    /// See [`SolveService::submit`].
    pub fn submit_with_timeout(
        &self,
        key: FactorKey,
        rhs: Vec<f64>,
        timeout: Duration,
    ) -> Result<Ticket, ServeError> {
        let m = &self.shared.metrics;
        let mut q = self.shared.queue.lock();
        if !q.open {
            return Err(ServeError::ShuttingDown);
        }
        let depth = q.deque.len();
        if depth >= self.shared.cfg.high_water {
            m.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { depth });
        }
        let now = Instant::now();
        let cell = ResponseCell::new();
        q.deque.push_back(Request {
            key,
            rhs,
            enqueued: now,
            deadline: now + timeout,
            cell: Arc::clone(&cell),
        });
        m.submitted.fetch_add(1, Ordering::Relaxed);
        m.max_queue_depth.fetch_max(depth as u64 + 1, Ordering::Relaxed);
        drop(q);
        self.shared.cv.notify_one();
        Ok(Ticket { cell })
    }

    /// Snapshot of all counters and histograms (including one
    /// [`crate::ShardLane`] per shard when the service is sharded).
    pub fn stats(&self) -> ServeStats {
        let depth = self.shared.queue.lock().deque.len();
        self.shared.snapshot(depth)
    }

    /// How many factorization builders have run (cache diagnostics).
    pub fn factor_builds(&self) -> u64 {
        self.shared.cache.builds()
    }

    /// How many λ-free setup builders have run. A λ sweep over one
    /// dataset/h/seed must leave this at 1.
    pub fn setup_builds(&self) -> u64 {
        self.shared.setups.builds()
    }

    /// Closes the queue, drains it (pending requests are answered
    /// [`ServeError::ShuttingDown`]) and joins the workers.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut q = self.shared.queue.lock();
            q.open = false;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let mut q = self.shared.queue.lock();
        while let Some(req) = q.deque.pop_front() {
            req.cell.fulfill(Err(ServeError::ShuttingDown));
        }
        drop(q);
        self.shared.snapshot(0)
    }
}

/// Drains same-key requests from the queue into `batch` (up to `max`).
fn drain_same_key(q: &mut QueueState, batch: &mut Vec<Request>, max: usize) {
    let key = batch[0].key.clone();
    let mut i = 0;
    while batch.len() < max && i < q.deque.len() {
        if q.deque[i].key == key {
            match q.deque.remove(i) {
                Some(req) => batch.push(req),
                // `i` is bounds-checked by the loop condition; an absent
                // element would mean the deque shrank under our exclusive
                // borrow — stop draining rather than panic.
                None => break,
            }
        } else {
            i += 1;
        }
    }
}

fn worker_loop<K: Kernel + 'static>(sh: &Shared<K>) {
    loop {
        let mut q = sh.queue.lock();
        let head = loop {
            if let Some(r) = q.deque.pop_front() {
                break r;
            }
            if !q.open {
                return;
            }
            let (guard, _) = sh.cv.wait_timeout(q, Duration::from_millis(50));
            q = guard;
        };
        let max_batch = sh.cfg.max_batch.max(1);
        let mut batch = vec![head];
        drain_same_key(&mut q, &mut batch, max_batch);
        // Adaptive window: under load (other work still queued — the
        // producers are outrunning us), linger briefly so concurrent
        // same-key submissions coalesce; when idle, dispatch immediately.
        if batch.len() < max_batch && !q.deque.is_empty() && !sh.cfg.linger.is_zero() {
            let until = Instant::now() + sh.cfg.linger;
            loop {
                let now = Instant::now();
                if now >= until || batch.len() >= max_batch {
                    break;
                }
                let (guard, _) = sh.cv.wait_timeout(q, until - now);
                q = guard;
                drain_same_key(&mut q, &mut batch, max_batch);
            }
        }
        drop(q);
        dispatch(sh, batch);
    }
}

/// Runs one blocked batch. A sharded service (`shards > 1`) partitions
/// the factorization into its rank-owned subtree shards and solves them
/// on this thread ([`PartitionedFactor::solve_mat_in_place`], each shard
/// taking the whole rayon pool in turn) — bitwise-identical to
/// [`SharedFactor::solve_block_in_place`]. A factor the partition refuses
/// (a hybrid, partially factorized one, or a tree too shallow for `p`
/// subtrees) is solved single-node, same bits, and counts in
/// `shard_fallbacks`.
fn solve_batch<K: Kernel + 'static>(
    sh: &Shared<K>,
    sf: &SharedFactor<K>,
    b: &mut Mat,
) -> Result<(), String> {
    if sh.cfg.shards > 1 {
        match PartitionedFactor::partition(sf.clone(), sh.cfg.shards) {
            Ok(pf) => {
                pf.solve_mat_in_place(b).map_err(|e| e.to_string())?;
                for (s, rows) in sh.metrics.shard_rows.iter().enumerate() {
                    let solved = pf.shard_range(s).len() * b.ncols();
                    rows.fetch_add(solved as u64, Ordering::Relaxed);
                }
                return Ok(());
            }
            Err(_) => {
                sh.metrics.shard_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    sf.solve_block_in_place(b, &sh.cfg.gmres).map(|_| ()).map_err(|e| e.to_string())
}

/// Solves one coalesced batch and scatters the per-request responses.
fn dispatch<K: Kernel + 'static>(sh: &Shared<K>, batch: Vec<Request>) {
    let m = &sh.metrics;
    let now = Instant::now();
    // Expire requests whose deadline passed while queued.
    let mut live: Vec<Request> = Vec::with_capacity(batch.len());
    for req in batch {
        m.queue_us.record(now - req.enqueued);
        if now > req.deadline {
            m.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            req.cell.fulfill(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        return;
    }
    let key = live[0].key.clone();
    // Resolve the factorization (single-flight; failures quarantine the λ
    // key). The λ-free setup resolves through its own cache *inside* the
    // factor build closure, so a refactorization failure poisons only this
    // λ — the setup entry keeps serving. `setup_hit` stays `None` unless
    // this call ran the factor builder.
    let mut setup_hit: Option<bool> = None;
    let built = sh.cache.get_or_build(&key, || {
        let skey = SetupKey::from(&key);
        let (setup, s_hit) =
            sh.setups.get_or_build(&skey, || (sh.builder)(&skey)).map_err(|e| match e {
                CacheError::BuildFailed(msg) => ServeError::FactorizationFailed(msg),
                CacheError::Poisoned(msg) => ServeError::Quarantined(msg),
            })?;
        setup_hit = Some(s_hit);
        SharedFactor::refactorize(&setup, sh.base.with_lambda(key.lambda()))
            .map_err(|e| ServeError::FactorizationFailed(e.to_string()))
    });
    let sf = match built {
        Ok((sf, hit)) => {
            if hit {
                m.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                m.cache_misses.fetch_add(1, Ordering::Relaxed);
                match setup_hit {
                    Some(true) => m.setup_hits.fetch_add(1, Ordering::Relaxed),
                    Some(false) | None => m.full_misses.fetch_add(1, Ordering::Relaxed),
                };
                // A miss just ran the factorization: keep its per-level
                // breakdown for the stats snapshot.
                *m.factor_levels.lock() = sf.factor_tree().stats().levels.clone();
            }
            sf
        }
        Err(e) => {
            let err = match e {
                CacheError::BuildFailed(msg) => ServeError::FactorizationFailed(msg),
                CacheError::Poisoned(msg) => ServeError::Quarantined(msg),
            };
            m.errors.fetch_add(live.len() as u64, Ordering::Relaxed);
            for req in live {
                req.cell.fulfill(Err(err.clone()));
            }
            return;
        }
    };
    let n = sf.n();
    // Validate right-hand sides against the resolved problem size, and
    // keep non-finite ones out of the batch: the solve would carry a NaN
    // through to an `Ok` answer.
    let mut valid: Vec<Request> = Vec::with_capacity(live.len());
    for req in live {
        let problem = if req.rhs.len() != n {
            Some(format!("rhs has {} entries, problem size is {n}", req.rhs.len()))
        } else {
            req.rhs
                .iter()
                .position(|v| !v.is_finite())
                .map(|i| format!("rhs entry {i} is not finite ({})", req.rhs[i]))
        };
        match problem {
            None => valid.push(req),
            Some(msg) => {
                m.errors.fetch_add(1, Ordering::Relaxed);
                req.cell.fulfill(Err(ServeError::BadRequest(msg)));
            }
        }
    }
    if valid.is_empty() {
        return;
    }
    let nrhs = valid.len();
    m.batches.fetch_add(1, Ordering::Relaxed);
    m.batch_hist.record(nrhs);
    // Assemble the blocked right-hand side in tree order.
    let tree = sf.skeleton_tree().tree();
    let mut b = Mat::zeros(n, nrhs);
    for (j, req) in valid.iter().enumerate() {
        b.col_mut(j).copy_from_slice(&tree.permute_vec(&req.rhs));
    }
    let t0 = Instant::now();
    let solved = catch_unwind(AssertUnwindSafe(|| {
        let mut b = b;
        solve_batch(sh, &sf, &mut b).map(|()| b)
    }));
    m.solve_us.record(t0.elapsed());
    match solved {
        Ok(Ok(x)) => {
            let done = Instant::now();
            for (j, req) in valid.into_iter().enumerate() {
                let xj = tree.unpermute_vec(x.col(j));
                m.completed.fetch_add(1, Ordering::Relaxed);
                m.total_us.record(done - req.enqueued);
                req.cell.fulfill(Ok(xj));
            }
        }
        Ok(Err(e)) => {
            m.errors.fetch_add(valid.len() as u64, Ordering::Relaxed);
            let err = ServeError::SolveFailed(e);
            for req in valid {
                req.cell.fulfill(Err(err.clone()));
            }
        }
        Err(_) => {
            // A panicking solve means the cached factors are suspect:
            // quarantine the key so the failure cannot recur, and answer
            // the batch.
            sh.cache.poison(&key, "solve panicked on this factorization");
            m.errors.fetch_add(valid.len() as u64, Ordering::Relaxed);
            let err = ServeError::SolveFailed("solve panicked".to_string());
            for req in valid {
                req.cell.fulfill(Err(err.clone()));
            }
        }
    }
}
