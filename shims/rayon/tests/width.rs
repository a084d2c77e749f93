//! The pool is exactly `current_num_threads()` threads wide: the caller
//! waiting in `join` / a parallel iterator is one of them, so no more jobs
//! ever run at once than the thread count every split is sized for.
//!
//! This file holds one test on purpose: it gets a test binary of its own,
//! so no other test's thread drains the queue while it counts.

use rayon::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Jobs running now, and the most that ever ran at once.
struct Width {
    running: AtomicUsize,
    mark: AtomicUsize,
}

impl Width {
    const fn new() -> Self {
        Width { running: AtomicUsize::new(0), mark: AtomicUsize::new(0) }
    }

    /// One leaf: ~20 µs of arithmetic, counted while it runs.
    fn leaf(&self) {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.mark.fetch_max(now, Ordering::SeqCst);
        let mut x = 1.0f64;
        for _ in 0..4000 {
            x = black_box(x * 1.000_001 + 1e-9);
        }
        black_box(x);
        self.running.fetch_sub(1, Ordering::SeqCst);
    }

    fn mark(&self) -> usize {
        self.mark.load(Ordering::SeqCst)
    }
}

fn tree(width: &Width, depth: u32) {
    if depth == 0 {
        width.leaf();
    } else {
        rayon::join(|| tree(width, depth - 1), || tree(width, depth - 1));
    }
}

#[test]
fn no_more_jobs_run_at_once_than_current_num_threads() {
    let n = rayon::current_num_threads();

    let joins = Width::new();
    tree(&joins, 10);
    assert!(
        joins.mark() <= n,
        "depth-10 join: {} leaves ran at once on a pool of {n} threads",
        joins.mark()
    );

    let items = Width::new();
    (0..256usize).into_par_iter().for_each(|_| items.leaf());
    assert!(
        items.mark() <= n,
        "256-item for_each: {} leaves ran at once on a pool of {n} threads",
        items.mark()
    );
}
