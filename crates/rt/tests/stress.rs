//! Stress and property tests for the simulated message-passing runtime.

use kfds_rt::{Comm, World};
use proptest::prelude::*;

#[test]
fn many_interleaved_messages() {
    // A ring exchange repeated many times: every rank sends to its right
    // neighbor and receives from its left one, with payload checksums.
    let p = 6;
    let rounds = 200;
    World::run(p, |c: Comm| {
        let me = c.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        for r in 0..rounds {
            let payload = vec![me as f64, r as f64, (me * r) as f64];
            c.send_f64(right, 3, &payload);
            let got = c.recv_f64(left, 3);
            assert_eq!(got, vec![left as f64, r as f64, (left * r) as f64]);
        }
    });
}

#[test]
fn reduction_tree_matches_sequential() {
    let p = 8;
    let out = World::run(p, |c: Comm| {
        let mine: Vec<f64> = (0..16).map(|i| (c.rank() * 16 + i) as f64).collect();
        // Reduce to rank 0, then broadcast into pre-sized buffers, as the
        // distributed solver does at every level.
        let mut total = c.reduce_sum(0, &mine).unwrap_or_else(|| vec![0.0; mine.len()]);
        c.bcast_f64(0, &mut total);
        total
    });
    let expected: Vec<f64> = (0..16).map(|i| (0..p).map(|r| (r * 16 + i) as f64).sum()).collect();
    for r in out {
        assert_eq!(r, expected);
    }
}

#[test]
fn deep_split_chain_with_collectives_at_every_level() {
    // Mirrors the distributed factorization's communicator usage: split
    // to singletons, run a collective at every level on the way.
    let p = 16;
    World::run(p, |c: Comm| {
        let mut comm = c;
        let mut level = 0;
        while comm.size() > 1 {
            let mut total = comm.reduce_sum(0, &[1.0]).unwrap_or_else(|| vec![0.0]);
            comm.bcast_f64(0, &mut total);
            assert_eq!(total[0] as usize, comm.size(), "level {level}");
            comm = comm.split_half();
            level += 1;
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_point_to_point_schedules(
        p in 2usize..6,
        msgs in proptest::collection::vec((0u32..4, 0usize..8), 1..24),
    ) {
        // Rank 0 sends a random tag sequence to rank 1; rank 1 receives
        // them in a *different* (sorted-by-tag) order. Matching must be
        // exact despite out-of-order receipt.
        let msgs2 = msgs.clone();
        World::run(p, move |c: Comm| {
            if c.rank() == 0 {
                for (i, (tag, len)) in msgs2.iter().enumerate() {
                    let payload: Vec<f64> = (0..*len).map(|k| (i * 10 + k) as f64).collect();
                    // Tags must be unique per (src,dst) for reordered
                    // receives to be well-defined: offset by index.
                    c.send_f64(1, tag + 10 * i as u32, &payload);
                }
            } else if c.rank() == 1 {
                let mut order: Vec<(usize, u32, usize)> = msgs2
                    .iter()
                    .enumerate()
                    .map(|(i, (tag, len))| (i, tag + 10 * i as u32, *len))
                    .collect();
                order.sort_by_key(|&(_, t, _)| std::cmp::Reverse(t));
                for (i, tag, len) in order {
                    let got = c.recv_f64(0, tag);
                    let want: Vec<f64> = (0..len).map(|k| (i * 10 + k) as f64).collect();
                    assert_eq!(got, want);
                }
            }
        });
    }

    #[test]
    fn reduce_root_choice(root in 0usize..5) {
        World::run(5, move |c: Comm| {
            let r = c.reduce_sum(root, &[c.rank() as f64 + 1.0]);
            if c.rank() == root {
                assert_eq!(r.expect("root"), vec![15.0]);
            } else {
                assert!(r.is_none());
            }
        });
    }
}
