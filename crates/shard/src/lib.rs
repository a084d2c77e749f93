//! # kfds-shard — sharded serve tier for the fast direct solver
//!
//! The paper's distributed Algorithms II.4/II.5 assign each rank a
//! subtree of the hierarchical factorization; this crate brings that
//! ownership shape to the serving layer. A [`ShardRouter`] fronts `p`
//! shard worker threads: each worker owns one rank-owned subtree of a
//! [`kfds_core::PartitionedFactor`] (the tree cut at level `log2 p`),
//! solves its contiguous RHS row block with the exact single-node
//! recursion, and the router stitches the partial solves together
//! through the shared top tree — so the sharded answer is bitwise
//! identical to the unsharded blocked solve.
//!
//! RHS blocks move over [`kfds_rt::Transport`] (the in-process channel
//! [`kfds_rt::Comm`] today; a wire backend later). The tier caches
//! nothing: [`kfds_core::PartitionedFactor::partition`] is index
//! arithmetic over a handle (about a microsecond), so the router
//! partitions the factor each solve is given and the job carries that
//! view to the workers. What is worth keeping — the λ-free setup and the
//! per-λ factorization — is `kfds-serve`'s two-level cache, above this
//! crate.
//!
//! `kfds-serve` mounts this behind the `KFDS_SHARD` registry switch:
//! `sharded(p)` services route complete factorizations through the
//! router and fall back to the single-node path (bitwise the same)
//! when a factor cannot shard or the switch is off.

#![forbid(unsafe_code)]

pub mod router;
pub mod stats;

pub use router::{ShardError, ShardRouter};
pub use stats::ShardLane;
