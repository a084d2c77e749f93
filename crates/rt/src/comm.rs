//! Communicators, point-to-point messaging and collectives.

use crate::sync::{LockRank, RankedMutex};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed message payload.
#[derive(Clone, Debug)]
enum Payload {
    F64(Vec<f64>),
    Usize(Vec<usize>),
}

#[derive(Debug)]
struct Packet {
    src_world: usize,
    comm_id: u64,
    tag: u32,
    payload: Payload,
}

/// Per-rank incoming mailbox: a channel plus a buffer of packets received
/// out of matching order.
struct Mailbox {
    rx: Receiver<Packet>,
    pending: Vec<Packet>,
}

struct WorldState {
    senders: Vec<Sender<Packet>>,
    mailboxes: Vec<RankedMutex<Mailbox>>,
    next_comm_id: AtomicU64,
}

/// The collection of simulated ranks.
pub struct World;

impl World {
    /// Spawns `p` rank-threads, each running `f` with its world
    /// communicator, and returns the per-rank results in rank order.
    ///
    /// # Panics
    /// Panics if `p == 0`, or propagates a panic from any rank.
    pub fn run<T, F>(p: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        let comms = Self::endpoints(p);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for comm in comms {
                let fref = &f;
                handles.push(scope.spawn(move || fref(comm)));
            }
            // PANIC-OK: World::run's contract is to propagate a rank's
            // panic to the caller (documented above); callers that need
            // containment wrap the whole collective in catch_unwind.
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }

    /// Builds a fresh `p`-rank world and returns its `p` connected
    /// communicator endpoints (endpoint `i` is rank `i`), without
    /// spawning any threads.
    ///
    /// [`World::run`] owns its ranks' lifetimes; `endpoints` hands the
    /// caller the ranks to drive itself — the benchmark's block round-trip
    /// probe is its one user. Endpoints are plain `Clone + Send` values
    /// wired to the same in-process channel fabric `run` uses.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn endpoints(p: usize) -> Vec<Comm> {
        assert!(p > 0, "need at least one rank");
        let mut senders = Vec::with_capacity(p);
        let mut mailboxes = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            mailboxes
                .push(RankedMutex::new(LockRank::RtMailbox, Mailbox { rx, pending: Vec::new() }));
        }
        let state = Arc::new(WorldState { senders, mailboxes, next_comm_id: AtomicU64::new(1) });
        let members: Arc<Vec<usize>> = Arc::new((0..p).collect());
        (0..p)
            .map(|rank| Comm {
                comm_id: 0,
                rank,
                members: Arc::clone(&members),
                world: Arc::clone(&state),
            })
            .collect()
    }
}

/// Minimal point-to-point block transport: rank, size, and one block of
/// `f64`s sent or received under a tag.
///
/// [`Comm`] implements it over the in-process channel world. The
/// benchmark's block round-trip probe times a ping-pong through it; no
/// solver path uses it.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks in the fabric.
    fn size(&self) -> usize;
    /// Sends a block of `f64`s to `dst` under `tag`.
    fn send_block(&self, dst: usize, tag: u32, data: &[f64]);
    /// Receives the block sent by `src` under `tag`.
    fn recv_block(&self, src: usize, tag: u32) -> Vec<f64>;
}

impl Transport for Comm {
    fn rank(&self) -> usize {
        Comm::rank(self)
    }

    fn size(&self) -> usize {
        Comm::size(self)
    }

    fn send_block(&self, dst: usize, tag: u32, data: &[f64]) {
        self.send_f64(dst, tag, data);
    }

    fn recv_block(&self, src: usize, tag: u32) -> Vec<f64> {
        self.recv_f64(src, tag)
    }
}

/// A communicator: an ordered group of ranks with isolated traffic.
///
/// Local rank `i` maps to world rank `members[i]`. All methods take and
/// return *local* ranks, mirroring MPI communicator semantics.
#[derive(Clone)]
pub struct Comm {
    comm_id: u64,
    /// World rank of this process.
    rank: usize,
    members: Arc<Vec<usize>>,
    world: Arc<WorldState>,
}

/// Reserved tag space for collectives (user tags must stay below this).
const COLLECTIVE_TAG: u32 = u32::MAX - 16;

impl Comm {
    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        // PANIC-OK: a Comm is only constructed (endpoints/split_half)
        // with its own world rank in `members`; absence is a torn
        // communicator, unrecoverable at this layer.
        self.members.iter().position(|&w| w == self.rank).expect("rank not in communicator")
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    fn world_rank_of(&self, local: usize) -> usize {
        self.members[local]
    }

    fn send_payload(&self, dst_local: usize, tag: u32, payload: Payload) {
        let dst = self.world_rank_of(dst_local);
        let pkt = Packet { src_world: self.rank, comm_id: self.comm_id, tag, payload };
        // PANIC-OK: the receiving rank's mailbox outlives every endpoint
        // (WorldState is Arc-shared by all Comms); a hung-up channel means
        // the world itself is torn down mid-protocol — unrecoverable here,
        // contained by the serve tier's catch_unwind + quarantine.
        self.world.senders[dst].send(pkt).expect("receiver hung up");
    }

    fn recv_payload(&self, src_local: usize, tag: u32) -> Payload {
        let src_world = self.world_rank_of(src_local);
        let mut mb = self.world.mailboxes[self.rank].lock();
        // First check the out-of-order buffer.
        if let Some(pos) = mb
            .pending
            .iter()
            .position(|p| p.src_world == src_world && p.comm_id == self.comm_id && p.tag == tag)
        {
            return mb.pending.remove(pos).payload;
        }
        loop {
            // PANIC-OK: every sender handle lives in the shared WorldState,
            // so disconnection means the world was dropped while a rank is
            // still blocked in a protocol — a torn world, not a data error.
            let pkt = mb.rx.recv().expect("sender hung up");
            if pkt.src_world == src_world && pkt.comm_id == self.comm_id && pkt.tag == tag {
                return pkt.payload;
            }
            mb.pending.push(pkt);
        }
    }

    /// Sends a vector of `f64` to `dst` (local rank) with `tag`.
    ///
    /// # Panics
    /// Panics if `tag` is in the reserved collective range.
    pub fn send_f64(&self, dst: usize, tag: u32, data: &[f64]) {
        assert!(tag < COLLECTIVE_TAG, "tag in reserved range");
        if cfg!(debug_assertions) {
            crate::tags::assert_registered(tag);
        }
        self.send_payload(dst, tag, Payload::F64(data.to_vec()));
    }

    /// Receives a vector of `f64` from `src` (local rank) with `tag`.
    pub fn recv_f64(&self, src: usize, tag: u32) -> Vec<f64> {
        if cfg!(debug_assertions) {
            crate::tags::assert_registered(tag);
        }
        match self.recv_payload(src, tag) {
            Payload::F64(v) => v,
            // PANIC-OK: a payload-type mismatch under a matched (comm,
            // tag) is a protocol bug (tags are namespace-registered and
            // non-overtaking), not a runtime condition to degrade from.
            other => panic!("type mismatch for tag {tag}: expected f64, got {other:?}"),
        }
    }

    /// Sends a vector of `usize` to `dst` (local rank) with `tag`.
    pub fn send_usize(&self, dst: usize, tag: u32, data: &[usize]) {
        assert!(tag < COLLECTIVE_TAG, "tag in reserved range");
        if cfg!(debug_assertions) {
            crate::tags::assert_registered(tag);
        }
        self.send_payload(dst, tag, Payload::Usize(data.to_vec()));
    }

    /// Receives a vector of `usize` from `src` (local rank) with `tag`.
    pub fn recv_usize(&self, src: usize, tag: u32) -> Vec<usize> {
        if cfg!(debug_assertions) {
            crate::tags::assert_registered(tag);
        }
        match self.recv_payload(src, tag) {
            Payload::Usize(v) => v,
            // PANIC-OK: same protocol-bug reasoning as recv_f64.
            other => panic!("type mismatch for tag {tag}: expected usize, got {other:?}"),
        }
    }

    /// Broadcasts `data` from local rank `root` to every rank (in place).
    ///
    /// In debug builds, a receiver that arrives with a **non-empty**
    /// buffer asserts that its length matches the root's payload — a
    /// mismatch means the ranks disagree about the collective's shape
    /// (the classic silent MPI bug where a straggler's stale buffer
    /// masks a protocol error). An empty buffer means "size unknown,
    /// accept whatever the root sends" — required when the payload
    /// length is itself the information being broadcast (e.g. skeleton
    /// index sets in the distributed factorization).
    pub fn bcast_f64(&self, root: usize, data: &mut Vec<f64>) {
        let me = self.rank();
        if me == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_payload(dst, COLLECTIVE_TAG, Payload::F64(data.clone()));
                }
            }
        } else {
            match self.recv_payload(root, COLLECTIVE_TAG) {
                Payload::F64(v) => {
                    debug_assert!(
                        data.is_empty() || data.len() == v.len(),
                        "bcast_f64 length mismatch: rank {me} pre-sized {}, root {root} sent {}",
                        data.len(),
                        v.len()
                    );
                    *data = v;
                }
                // PANIC-OK: collective payloads use a reserved tag range;
                // a mismatch is a protocol bug.
                other => panic!("bcast type mismatch: {other:?}"),
            }
        }
    }

    /// Broadcasts a `usize` vector from `root` (in place). Same debug
    /// shape check as [`Comm::bcast_f64`].
    pub fn bcast_usize(&self, root: usize, data: &mut Vec<usize>) {
        let me = self.rank();
        if me == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_payload(dst, COLLECTIVE_TAG + 1, Payload::Usize(data.clone()));
                }
            }
        } else {
            match self.recv_payload(root, COLLECTIVE_TAG + 1) {
                Payload::Usize(v) => {
                    debug_assert!(
                        data.is_empty() || data.len() == v.len(),
                        "bcast_usize length mismatch: rank {me} pre-sized {}, root {root} sent {}",
                        data.len(),
                        v.len()
                    );
                    *data = v;
                }
                // PANIC-OK: same reserved-tag protocol-bug reasoning as
                // bcast_f64.
                other => panic!("bcast type mismatch: {other:?}"),
            }
        }
    }

    /// Element-wise sum reduction to local rank `root`; `Some(total)` at
    /// the root, `None` elsewhere.
    pub fn reduce_sum(&self, root: usize, data: &[f64]) -> Option<Vec<f64>> {
        let me = self.rank();
        if me == root {
            let mut acc = data.to_vec();
            for src in 0..self.size() {
                if src != root {
                    match self.recv_payload(src, COLLECTIVE_TAG + 2) {
                        Payload::F64(v) => {
                            assert_eq!(v.len(), acc.len(), "reduce length mismatch");
                            for (a, b) in acc.iter_mut().zip(v) {
                                *a += b;
                            }
                        }
                        // PANIC-OK: same reserved-tag protocol-bug
                        // reasoning as bcast_f64.
                        other => panic!("reduce type mismatch: {other:?}"),
                    }
                }
            }
            Some(acc)
        } else {
            self.send_payload(root, COLLECTIVE_TAG + 2, Payload::F64(data.to_vec()));
            None
        }
    }

    /// Splits the communicator into halves: local ranks `< size/2` form the
    /// lower half, the rest the upper half (the paper's distributed-tree
    /// split, Fig. 1). Both halves get fresh communicator ids agreed upon
    /// collectively, so their traffic cannot collide.
    ///
    /// # Panics
    /// Panics if the communicator has fewer than 2 ranks.
    pub fn split_half(&self) -> Comm {
        let p = self.size();
        assert!(p >= 2, "cannot split a communicator of size {p}");
        let half = p / 2;
        let me = self.rank();
        // Rank 0 draws two fresh ids and broadcasts them; this keeps ids
        // globally unique without a central allocator call per rank.
        let mut ids: Vec<usize> = if me == 0 {
            let base = self.world.next_comm_id.fetch_add(2, Ordering::Relaxed);
            vec![base as usize, base as usize + 1]
        } else {
            vec![0, 0] // pre-sized receive buffer (two fresh ids from rank 0)
        };
        self.bcast_usize(0, &mut ids);
        let lower = me < half;
        let members: Vec<usize> = if lower {
            (0..half).map(|i| self.world_rank_of(i)).collect()
        } else {
            (half..p).map(|i| self.world_rank_of(i)).collect()
        };
        Comm {
            comm_id: ids[if lower { 0 } else { 1 }] as u64,
            rank: self.rank,
            members: Arc::new(members),
            world: Arc::clone(&self.world),
        }
    }
}
