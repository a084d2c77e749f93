//! Thread-local workspace pool for hot-path scratch buffers.
//!
//! The factorization and solve phases repeatedly allocate short-lived
//! buffers of a small set of recurring shapes (GEMM packing panels, GSKS
//! coordinate pads, per-node right-hand-side temporaries). Allocating them
//! from the global heap on every call costs `malloc`/`free` traffic and —
//! worse on first touch — page faults inside the timed region. This module
//! keeps freed buffers on per-thread free lists bucketed by power-of-two
//! size class, so steady-state hot paths recycle warm memory instead of
//! allocating.
//!
//! Design notes:
//!
//! * **Thread-local**: each pool is `thread_local!`, so takes and returns
//!   are lock-free. A buffer taken on one thread and dropped on another
//!   simply migrates pools; no cross-thread traffic is required because
//!   the rayon workers that run the hot loops are long-lived.
//! * **Initialized storage only**: a pool miss reserves the full class
//!   capacity but memsets only the requested prefix; the first return
//!   zero-extends to the class length once, after which buffers cycle
//!   through the pool fully initialized. A take truncates to the requested
//!   length (no memset on a pool hit); a return restores the class length
//!   with `set_len`, which is sound because those elements were initialized
//!   when the buffer was filed and `f64` is `Copy` (truncation never drops
//!   or deallocates). Buffers are filed by the floor class of their
//!   *capacity*, so detached buffers with odd lengths return to the class
//!   they were taken from.
//! * **Stale contents by default**: [`take`] returns a buffer with
//!   arbitrary (previous-use) contents, which suits consumers that fully
//!   overwrite it (GEMM packing, GSKS pads). [`take_zeroed`] zero-fills
//!   for consumers that accumulate.
//! * **Poisoned in debug builds**: under `debug_assertions` every buffer
//!   [`take`] hands out, hit or miss, is filled with NaN. A consumer that
//!   reads scratch it did not write then turns its result into NaN in
//!   every debug test (the golden digests included), which is what keeps
//!   pooling from moving a bit. Release builds skip the fill.
//!
//! The [`hits`]/[`misses`] counters are process-global and let tests assert
//! that steady-state factorize/solve allocate nothing: a second run of the
//! same workload must be all hits.

use crate::mat::Mat;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest pooled class: `2^MIN_CLASS_LOG2` elements.
const MIN_CLASS_LOG2: u32 = 5;
/// Largest pooled class: `2^MAX_CLASS_LOG2` elements (16 Mi doubles,
/// 128 MiB). Larger requests fall through to plain allocation.
const MAX_CLASS_LOG2: u32 = 24;
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;
/// Retained buffers per class per thread; excess returns are freed.
const MAX_PER_CLASS: usize = 8;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

struct Pool {
    free: [Vec<Vec<f64>>; NUM_CLASSES],
    /// Index-buffer free lists (`Vec<usize>`), same class geometry. Used
    /// by skeletonization for the per-node column-union lists.
    free_idx: [Vec<Vec<usize>>; NUM_CLASSES],
}

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool {
        free: [const { Vec::new() }; NUM_CLASSES],
        free_idx: [const { Vec::new() }; NUM_CLASSES],
    }) };
}

/// Ceiling class for a request of `len` elements (`class_len >= len`), or
/// `None` if the request is too large to pool.
#[inline]
fn class_for_request(len: usize) -> Option<usize> {
    let bits = len.next_power_of_two().trailing_zeros().max(MIN_CLASS_LOG2);
    if bits > MAX_CLASS_LOG2 {
        None
    } else {
        Some((bits - MIN_CLASS_LOG2) as usize)
    }
}

/// Floor class for a buffer whose allocation holds `cap` elements
/// (`class_len <= cap`), or `None` if it should not be retained.
///
/// Filing by **capacity** (not by initialized length) is what lets a
/// buffer taken for a ceil-class request and returned through
/// `detach()`/[`give_vec`] with a non-power-of-two length land back in
/// the class it was allocated for, so the next identical request hits.
#[inline]
fn class_for_buffer(cap: usize) -> Option<usize> {
    if cap < (1usize << MIN_CLASS_LOG2) {
        return None;
    }
    let bits = usize::BITS - 1 - cap.leading_zeros();
    if bits > MAX_CLASS_LOG2 {
        None // do not hoard giant buffers
    } else {
        Some((bits - MIN_CLASS_LOG2) as usize)
    }
}

#[inline]
fn class_len(class: usize) -> usize {
    1usize << (class as u32 + MIN_CLASS_LOG2)
}

/// Pool invariant: every buffer in `free[class]` has
/// `len >= class_len(class)` and all of its `len` elements initialized.
/// A take therefore only ever *truncates*, and never exposes
/// uninitialized memory.
fn take_raw(len: usize) -> (Vec<f64>, usize) {
    let Some(class) = class_for_request(len) else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return (vec![0.0; len], len);
    };
    let recycled = POOL.with(|p| p.borrow_mut().free[class].pop());
    match recycled {
        Some(mut buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            let init_len = buf.len();
            debug_assert!(init_len >= len);
            buf.truncate(len);
            (buf, init_len)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            // Reserve the full class capacity but initialize (memset) only
            // the requested prefix; the first return zero-extends to the
            // class length once, after which the buffer cycles through the
            // pool with no memset at all.
            let mut buf = Vec::with_capacity(class_len(class));
            buf.resize(len, 0.0);
            (buf, len)
        }
    }
}

/// Common return path: files `buf` into the pool under the floor class of
/// its **capacity**, stored at exactly the class length. `init_len`
/// elements of the allocation are initialized (caller contract); if the
/// class length exceeds that, the gap is zero-extended once, after which
/// the buffer cycles through take/return with no initialization work.
/// (Filed by initialized length, a buffer detached at a non-power-of-two
/// length would land one class down and the next identical take miss.)
fn file_buffer(mut buf: Vec<f64>, init_len: usize) {
    let Some(class) = class_for_buffer(buf.capacity()) else {
        return;
    };
    let cl = class_len(class);
    debug_assert!(init_len <= buf.capacity());
    // Floor-class filing: the allocation always covers its class length,
    // so the resize below never reallocates (the guards rely on buffer
    // identity being stable across pool round-trips).
    debug_assert!(buf.capacity() >= cl);
    // SAFETY: the first `init_len` elements of this allocation were
    // initialized by the taker (resize or full overwrite); the guards only
    // ever truncate (never reallocate, since WsVec exposes no growth API),
    // and `f64` is Copy, so they are intact.
    unsafe { buf.set_len(init_len) };
    if buf.len() < cl {
        buf.resize(cl, 0.0);
    } else {
        buf.truncate(cl);
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.free[class].len() < MAX_PER_CLASS {
            pool.free[class].push(buf);
        }
    });
}

/// Returns a foreign buffer (e.g. a temporary [`Mat`]'s storage) to the
/// current thread's pool. Safe for any vec: only the `len` initialized
/// elements are trusted (the rest is re-zeroed while filing), and the
/// buffer is filed under the class its allocation actually fits.
pub fn give_vec(buf: Vec<f64>) {
    let len = buf.len();
    file_buffer(buf, len);
}

/// A pooled scratch buffer; returns itself to the pool on drop.
///
/// Derefs to `[f64]`. Contents are arbitrary unless obtained through
/// [`take_zeroed`].
pub struct WsVec {
    buf: Vec<f64>,
    /// How many elements of the underlying allocation are initialized;
    /// restored on return so the pool invariant holds.
    init_len: usize,
}

impl WsVec {
    /// Consumes the guard without returning the buffer to the pool,
    /// yielding the underlying storage (e.g. to move into an owned [`Mat`]
    /// that escapes the hot path).
    pub fn detach(mut self) -> Vec<f64> {
        std::mem::take(&mut self.buf)
    }
}

impl Drop for WsVec {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // After detach() the guard holds an empty vec (capacity 0), which
        // must not be "restored" to init_len.
        if self.init_len > 0 && buf.capacity() >= self.init_len {
            file_buffer(buf, self.init_len);
        }
    }
}

impl std::ops::Deref for WsVec {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl std::ops::DerefMut for WsVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

/// Takes a scratch buffer of `len` elements with **arbitrary contents**
/// (all NaN in debug builds). Use when the consumer fully overwrites the
/// buffer before reading.
pub fn take(len: usize) -> WsVec {
    let (mut buf, init_len) = take_raw(len);
    if cfg!(debug_assertions) {
        buf.fill(f64::NAN);
    }
    WsVec { buf, init_len }
}

/// A pooled **index** scratch buffer (`Vec<usize>`); starts empty with at
/// least the requested capacity and returns itself to the pool on drop.
///
/// Unlike [`WsVec`], this derefs to the `Vec` itself so consumers can
/// `push`/`extend` into it (the union-of-children column lists built
/// during skeletonization). Growth past the reserved capacity is allowed —
/// the buffer is refiled by its final capacity.
pub struct WsIdx {
    buf: Vec<usize>,
}

impl std::ops::Deref for WsIdx {
    type Target = Vec<usize>;
    #[inline]
    fn deref(&self) -> &Vec<usize> {
        &self.buf
    }
}

impl std::ops::DerefMut for WsIdx {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<usize> {
        &mut self.buf
    }
}

impl Drop for WsIdx {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        let Some(class) = class_for_buffer(buf.capacity()) else {
            return;
        };
        buf.clear();
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.free_idx[class].len() < MAX_PER_CLASS {
                pool.free_idx[class].push(buf);
            }
        });
    }
}

/// Takes an empty index buffer with capacity for at least `cap` entries.
pub fn take_idx(cap: usize) -> WsIdx {
    let Some(class) = class_for_request(cap.max(1)) else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return WsIdx { buf: Vec::with_capacity(cap) };
    };
    let recycled = POOL.with(|p| p.borrow_mut().free_idx[class].pop());
    match recycled {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            debug_assert!(buf.is_empty() && buf.capacity() >= cap);
            WsIdx { buf }
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            WsIdx { buf: Vec::with_capacity(class_len(class)) }
        }
    }
}

/// Takes a zero-filled scratch buffer of `len` elements.
pub fn take_zeroed(len: usize) -> WsVec {
    let mut w = take(len);
    w.buf.fill(0.0);
    w
}

/// Hands a no-longer-needed owned matrix's storage back to the pool.
pub fn recycle_mat(m: Mat) {
    give_vec(m.into_vec());
}

/// An owned `nrows x ncols` [`Mat`] whose storage comes from the pool and
/// has **arbitrary contents** (all NaN in debug builds). For temporaries
/// that are fully overwritten (e.g. a `beta = 0` GEMM destination) before
/// being read; hand the storage back with [`recycle_mat`] when done.
pub fn take_mat_detached(nrows: usize, ncols: usize) -> Mat {
    Mat::from_col_major(nrows, ncols, take(nrows * ncols).detach())
}

/// Process-global pool hit count (all threads).
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Process-global pool miss count (all threads).
pub fn misses() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

/// Snapshot of `(hits, misses)` for delta measurements around a region.
pub fn stats() -> (u64, u64) {
    (hits(), misses())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_roundtrip_hits() {
        // Warm the pool, then observe a hit for a same-class request.
        let (_, m0) = stats();
        drop(take(100));
        let (h1, _) = stats();
        let w = take(120); // same 128-element class
        assert_eq!(w.len(), 120);
        drop(w);
        let (h2, m2) = stats();
        assert!(h2 > h1, "second take of the class should hit");
        assert!(m2 > m0);
    }

    #[test]
    fn take_zeroed_is_zeroed_after_dirty_use() {
        {
            let mut w = take(64);
            for v in w.iter_mut() {
                *v = 3.25;
            }
        }
        let w = take_zeroed(64);
        assert!(w.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn huge_requests_fall_through() {
        let len = (1usize << 24) + 1;
        let w = take(len);
        assert_eq!(w.len(), len);
        // Dropping it must not poison the pool.
        drop(w);
        let _ = take(32);
    }

    #[test]
    fn detached_roundtrip_hits_same_class() {
        // Regression test for the pooled `matmul` slowdown: take → detach →
        // give_vec with a non-power-of-two length must file the buffer back
        // under the class it was taken from (by capacity), so the same
        // request hits instead of missing forever.
        let len = 300; // ceil class 512; floor class of the *length* is 256
        let v = take(len).detach();
        assert!(v.capacity() >= 512);
        give_vec(v);
        let (h0, _) = stats();
        let w = take(len);
        let (h1, _) = stats();
        assert!(h1 > h0, "detached buffer must be reusable for the same request");
        drop(w);
    }

    #[test]
    fn detach_escapes_pool() {
        let w = take(48);
        let v = w.detach();
        assert_eq!(v.len(), 48);
        let m = Mat::from_col_major(8, 6, v);
        assert_eq!(m.nrows(), 8);
        recycle_mat(m);
    }

    #[test]
    fn idx_pool_roundtrip_hits_and_clears() {
        {
            let mut w = take_idx(100);
            w.extend(0..100);
            assert_eq!(w.len(), 100);
        }
        let (h0, _) = stats();
        let w = take_idx(120); // same 128-entry class
        assert!(w.is_empty(), "recycled index buffer must come back empty");
        assert!(w.capacity() >= 120);
        let (h1, _) = stats();
        assert!(h1 > h0, "second take of the class should hit");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_takes_are_poisoned_hit_or_miss() {
        let all_nan = |v: &[f64]| v.iter().all(|x| x.is_nan());
        {
            let mut w = take(200);
            w.fill(2.5);
        }
        let (h0, m0) = stats();
        let hit = take(180); // same 256-element class as the dirty buffer
        let (h1, _) = stats();
        assert!(h1 > h0, "a same-class take after a return should hit");
        assert!(all_nan(&hit), "a pool hit must come back all-NaN");
        let miss = take(1000); // a class this test's thread never filed
        let (_, m1) = stats();
        assert!(m1 > m0, "a fresh-class take should miss");
        assert!(all_nan(&miss), "a pool miss must come back all-NaN");
        drop((hit, miss));
        let m = take_mat_detached(7, 5);
        assert!(all_nan(m.as_slice()), "a detached matrix must come back all-NaN");
        recycle_mat(m);
        assert!(take_zeroed(180).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn successive_shapes_do_not_alias_logical_len() {
        {
            let mut w = take(256);
            w.fill(1.0);
        }
        let w2 = take(17);
        assert_eq!(w2.len(), 17);
        {
            let w3 = take_zeroed(256);
            assert!(w3.iter().all(|&v| v == 0.0));
        }
    }
}
