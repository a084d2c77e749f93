//! # kfds-rt — simulated message-passing runtime
//!
//! The paper's distributed algorithms (II.4/II.5) are written against MPI:
//! point-to-point `Send`/`Recv`, `Bcast`, `Reduce`, and communicators that
//! split at every distributed tree level. This crate provides the same
//! abstractions with ranks backed by OS threads and crossbeam channels, so
//! the distributed factorization/solve run with their exact communication
//! structure on a single machine (see `DESIGN.md`, substitution table).
//!
//! Semantics follow MPI where it matters:
//! * messages between a (sender, receiver) pair are non-overtaking for a
//!   given `(communicator, tag)`;
//! * `split` creates independent sub-communicators whose traffic cannot
//!   collide with the parent's (fresh communicator ids);
//! * collectives are blocking and must be entered by every rank of the
//!   communicator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

mod comm;
pub mod sync;
pub mod tags;

pub use comm::{Comm, Transport, World};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_ranks_and_collects_results() {
        let out = World::run(4, |c: Comm| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn send_recv_roundtrip() {
        World::run(2, |c: Comm| {
            if c.rank() == 0 {
                c.send_f64(1, 7, &[1.0, 2.0, 3.0]);
                let back = c.recv_f64(1, 8);
                assert_eq!(back, vec![6.0]);
            } else {
                let v = c.recv_f64(0, 7);
                assert_eq!(v, vec![1.0, 2.0, 3.0]);
                c.send_f64(0, 8, &[v.iter().sum()]);
            }
        });
    }

    #[test]
    fn messages_non_overtaking_same_tag() {
        World::run(2, |c: Comm| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send_f64(1, 1, &[i as f64]);
                }
            } else {
                for i in 0..10 {
                    assert_eq!(c.recv_f64(0, 1), vec![i as f64]);
                }
            }
        });
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        World::run(2, |c: Comm| {
            if c.rank() == 0 {
                c.send_f64(1, 5, &[5.0]);
                c.send_f64(1, 6, &[6.0]);
            } else {
                // Receive in the opposite order of sending.
                assert_eq!(c.recv_f64(0, 6), vec![6.0]);
                assert_eq!(c.recv_f64(0, 5), vec![5.0]);
            }
        });
    }

    #[test]
    fn bcast_from_root_and_nonzero_root() {
        World::run(4, |c: Comm| {
            let mut v = if c.rank() == 2 { vec![3.0, 4.0] } else { vec![] };
            c.bcast_f64(2, &mut v);
            assert_eq!(v, vec![3.0, 4.0]);
            let mut u = if c.rank() == 0 { vec![9usize, 8] } else { vec![] };
            c.bcast_usize(0, &mut u);
            assert_eq!(u, vec![9, 8]);
        });
    }

    #[test]
    fn reduce_and_allreduce_sum() {
        World::run(4, |c: Comm| {
            let mine = vec![c.rank() as f64, 1.0];
            let r = c.reduce_sum(0, &mine);
            if c.rank() == 0 {
                assert_eq!(r.as_deref(), Some(&[6.0, 4.0][..]), "root gets the reduction");
            } else {
                assert!(r.is_none());
            }
            // The root's total to every rank, into pre-sized buffers.
            let mut a = r.unwrap_or_else(|| vec![0.0; mine.len()]);
            c.bcast_f64(0, &mut a);
            assert_eq!(a, vec![6.0, 4.0]);
        });
    }

    #[test]
    fn split_halves_isolated() {
        World::run(4, |c: Comm| {
            let half = c.split_half();
            assert_eq!(half.size(), 2);
            // Local ranks renumbered from 0 within each half.
            let expected_local = c.rank() % 2;
            assert_eq!(half.rank(), expected_local);
            // A bcast inside a half must not leak into the other half.
            let mut v = if half.rank() == 0 { vec![c.rank() as f64] } else { vec![] };
            half.bcast_f64(0, &mut v);
            let root_world_rank = if c.rank() < 2 { 0.0 } else { 2.0 };
            assert_eq!(v, vec![root_world_rank]);
        });
    }

    #[test]
    fn nested_splits() {
        World::run(8, |c: Comm| {
            let mut comm = c;
            while comm.size() > 1 {
                comm = comm.split_half();
            }
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
        });
    }

    #[test]
    fn endpoints_wire_the_same_fabric_as_run() {
        let eps = World::endpoints(3);
        assert_eq!(eps.len(), 3);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    // Ring pass through the Transport trait surface.
                    let (me, p) = (Transport::rank(&c), Transport::size(&c));
                    if me == 0 {
                        c.send_block(1, tags::TEST.tag(9), &[1.0]);
                        let v = c.recv_block(p - 1, tags::TEST.tag(9));
                        assert_eq!(v, vec![p as f64]);
                    } else {
                        let v = c.recv_block(me - 1, tags::TEST.tag(9));
                        c.send_block((me + 1) % p, tags::TEST.tag(9), &[v[0] + 1.0]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("endpoint thread");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not in any registered TagSpace")]
    fn unregistered_point_to_point_tag_fails_loudly() {
        let eps = World::endpoints(1);
        eps[0].send_f64(0, 4096, &[1.0]);
    }

    #[test]
    fn single_rank_world() {
        World::run(1, |c: Comm| {
            let mut v = vec![1.0];
            c.bcast_f64(0, &mut v);
            assert_eq!(c.reduce_sum(0, &[2.0]), Some(vec![2.0]));
            assert_eq!(c.size(), 1);
        });
    }
}
