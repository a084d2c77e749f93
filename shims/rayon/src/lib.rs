//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access to crates.io, so this shim
//! implements the (small) subset of rayon's API that the workspace uses on
//! top of a shared fixed-size thread pool:
//!
//! - [`join`] — fork/join over two closures;
//! - [`prelude`] — `par_iter` / `into_par_iter` / `par_chunks_mut` with the
//!   `map` / `zip` / `enumerate` / `for_each` / `collect` adaptors;
//! - [`ThreadPoolBuilder`] / [`ThreadPool::install`] — thread-count scoping;
//! - [`current_num_threads`] / [`current_thread_index`].
//!
//! Scheduling model: the pool is N threads wide, N = `RAYON_NUM_THREADS`
//! (default: `available_parallelism`). One global FIFO queue of jobs is
//! served by N − 1 worker threads (none at N = 1) and by the caller: a
//! thread waiting in [`join`] or a parallel iterator pops and runs queued
//! jobs until its own are done, so it is the N-th thread and every job it
//! pushed runs even when no worker is free. Parallel operations *started
//! on a pool worker* (or while a thread is executing a stolen job) run
//! serially in place — nested parallelism never oversubscribes, which is
//! exactly the policy the solver's hot paths rely on (see
//! `kfds-la::gemm`). [`current_thread_index`] returns `Some(_)` precisely
//! in that nested context, so callers can implement the same guard
//! explicitly.
//!
//! [`ThreadPool::install`]`(k)` caps the splits, not the threads that
//! exist: inside it every split is sized for `k` threads, but the jobs
//! still run on the N − 1 workers and the caller. Free threads that fan
//! out at once (several callers of [`join`]) each add themselves to the
//! N − 1 workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

pub mod iter;
pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Registry {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    nthreads: usize,
}

static REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();

thread_local! {
    /// `Some(index)` while this thread is executing pool work (worker
    /// threads permanently; helper threads only while running a stolen job).
    static POOL_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    /// Thread-count override installed by [`ThreadPool::install`].
    static NUM_THREADS_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn registry() -> &'static Arc<Registry> {
    REGISTRY.get_or_init(|| {
        let n = default_threads();
        let reg = Arc::new(Registry {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            nthreads: n,
        });
        // The caller waiting in `join` / `run_batch` drains the queue
        // itself, so it is the N-th thread: N − 1 workers, none at N = 1.
        for i in 0..n - 1 {
            let r = Arc::clone(&reg);
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(&r, i))
                .expect("spawn pool worker");
        }
        reg
    })
}

fn worker_loop(reg: &Registry, index: usize) {
    POOL_INDEX.with(|p| p.set(Some(index)));
    loop {
        let job = {
            let mut q = reg.queue.lock().unwrap();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = reg.cv.wait(q).unwrap();
            }
        };
        job();
    }
}

fn push_job(job: Job) {
    let reg = registry();
    reg.queue.lock().unwrap().push_back(job);
    reg.cv.notify_one();
}

fn try_pop_job() -> Option<Job> {
    registry().queue.lock().unwrap().pop_front()
}

/// Runs a job on the current thread while marked as pool work, so nested
/// parallel operations inside it stay serial.
fn run_marked(job: Job) {
    let prev = POOL_INDEX.with(|p| p.replace(Some(usize::MAX)));
    job();
    POOL_INDEX.with(|p| p.set(prev));
}

/// The number of threads parallel operations may use in this context.
pub fn current_num_threads() -> usize {
    if let Some(n) = NUM_THREADS_OVERRIDE.with(|o| o.get()) {
        return n;
    }
    registry().nthreads
}

/// `Some(index)` when called from inside pool work (a worker thread, or a
/// thread currently executing a stolen job), `None` on free threads.
pub fn current_thread_index() -> Option<usize> {
    POOL_INDEX.with(|p| p.get())
}

/// `true` when a parallel operation started here should actually fan out.
fn should_parallelize() -> bool {
    current_num_threads() > 1 && current_thread_index().is_none()
}

/// Completion latch + first-panic slot shared by the jobs of one batch.
struct BatchState {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl BatchState {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(BatchState {
            remaining: AtomicUsize::new(count),
            panic: Mutex::new(None),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Blocks until every job in the batch has finished, draining the
    /// global queue meanwhile: the waiting caller is the pool's N-th
    /// thread, and the one that runs its own jobs when no worker is free
    /// (at N = 1 there is no worker at all).
    fn wait(&self) {
        loop {
            if self.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(j) = try_pop_job() {
                run_marked(j);
                continue;
            }
            let g = self.lock.lock().unwrap();
            if self.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            let _ = self.cv.wait_timeout(g, Duration::from_millis(1)).unwrap();
        }
    }

    fn resume_panic(&self) {
        if let Some(p) = self.panic.lock().unwrap().take() {
            resume_unwind(p);
        }
    }
}

/// Executes `tasks` to completion, in parallel when this context allows it.
///
/// Soundness of the lifetime erasure: the closures may borrow data from the
/// caller's stack, and this function does not return (not even by panic)
/// until `remaining == 0`, i.e. until every erased closure has finished
/// running.
pub(crate) fn run_batch<'a>(tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
    if tasks.is_empty() {
        return;
    }
    if tasks.len() == 1 || !should_parallelize() {
        for t in tasks {
            t();
        }
        return;
    }
    let state = BatchState::new(tasks.len());
    for t in tasks {
        let st = Arc::clone(&state);
        let job: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
            let r = catch_unwind(AssertUnwindSafe(t));
            if let Err(p) = r {
                st.panic.lock().unwrap().get_or_insert(p);
            }
            st.complete_one();
        });
        // SAFETY: `wait()` below does not return until this closure has run.
        let job: Job = unsafe { std::mem::transmute(job) };
        push_job(job);
    }
    state.wait();
    state.resume_panic();
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, returning both
/// results. Panics are propagated (with `oper_a`'s taking precedence).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if !should_parallelize() {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    let state = BatchState::new(1);
    let slot_a: Mutex<Option<RA>> = Mutex::new(None);
    {
        let st = Arc::clone(&state);
        let slot_ref = &slot_a;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let r = catch_unwind(AssertUnwindSafe(oper_a));
            match r {
                Ok(v) => *slot_ref.lock().unwrap() = Some(v),
                Err(p) => {
                    st.panic.lock().unwrap().get_or_insert(p);
                }
            }
            st.complete_one();
        });
        // SAFETY: `state.wait()` below runs before this frame is left, even
        // when `oper_b` panics (its panic is caught and re-raised after).
        let job: Job = unsafe { std::mem::transmute(job) };
        push_job(job);
    }
    let rb = catch_unwind(AssertUnwindSafe(oper_b));
    state.wait();
    state.resume_panic(); // oper_a's panic wins, like rayon
    let rb = match rb {
        Ok(v) => v,
        Err(p) => resume_unwind(p),
    };
    let ra = slot_a.into_inner().unwrap().expect("join: missing result");
    (ra, rb)
}

/// Builder for a [`ThreadPool`] handle.
///
/// The shim keeps one global pool; a built `ThreadPool` only scopes the
/// *advertised* thread count (what [`current_num_threads`] reports and what
/// gates fan-out) for the duration of [`ThreadPool::install`]. It starts no
/// thread: the jobs run on the global pool's workers and the caller.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (infallible here).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` means the default thread count, matching rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A scoped view of the global pool with a fixed advertised thread count.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `f` with [`current_num_threads`] reporting this pool's size; a
    /// size of 1 forces every parallel operation inside `f` to run serially.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = NUM_THREADS_OVERRIDE.with(|o| o.replace(Some(self.num_threads)));
        struct Reset(Option<usize>);
        impl Drop for Reset {
            fn drop(&mut self) {
                let v = self.0;
                NUM_THREADS_OVERRIDE.with(|o| o.set(v));
            }
        }
        let _reset = Reset(prev);
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_propagates_panic() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            join(|| panic!("boom"), || 0);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn nested_ops_are_serial() {
        // Inside pool work, current_thread_index() is Some and further
        // parallel operations must not fan out.
        let results: Vec<bool> =
            (0..8usize).into_par_iter().map(|_| current_thread_index().is_some()).collect();
        if current_num_threads() > 1 {
            assert!(results.iter().all(|&b| b));
        }
    }

    /// A scope wider than the pool still completes every job it pushes:
    /// the waiting caller runs them, even at `RAYON_NUM_THREADS=1`, where
    /// no worker exists.
    #[test]
    fn install_scopes_thread_count() {
        for k in [1, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(k).build().unwrap();
            pool.install(|| {
                assert_eq!(current_num_threads(), k);
                assert_eq!(sum(0, 10_000), 10_000 * 9_999 / 2);
                let v: Vec<usize> = (0..257usize).into_par_iter().map(|x| 2 * x).collect();
                assert_eq!(v, (0..257).map(|x| 2 * x).collect::<Vec<_>>());
            });
        }
    }

    fn sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            (lo..hi).sum()
        } else {
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
            a + b
        }
    }

    #[test]
    fn deep_recursive_join() {
        assert_eq!(sum(0, 10_000), 10_000 * 9_999 / 2);
    }
}
