//! Debug-build shape checks on the collectives: a broadcast receiver
//! that pre-sized its buffer asserts the length matches the root's
//! payload, so a rank that disagrees about a collective's shape fails
//! loudly instead of silently adopting the root's length. An empty
//! receive buffer opts out ("size unknown") — that is how the
//! distributed factorization broadcasts skeleton sets whose length is
//! itself the message.

use kfds_rt::{Comm, World};

#[test]
fn bcast_with_agreeing_shapes_passes_the_check() {
    let out = World::run(4, |c: Comm| {
        let mut buf = vec![0.0f64; 5];
        if c.rank() == 0 {
            buf = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        }
        c.bcast_f64(0, &mut buf);
        buf
    });
    for ranks in out {
        assert_eq!(ranks, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "shape check is debug-only")]
#[should_panic(expected = "rank panicked")]
fn bcast_length_disagreement_fails_in_debug() {
    World::run(2, |c: Comm| {
        // Rank 1 believes the collective carries 3 elements; rank 0 sends 5.
        let mut buf = if c.rank() == 0 { vec![1.0; 5] } else { vec![0.0; 3] };
        c.bcast_f64(0, &mut buf);
        buf
    });
}

#[test]
fn bcast_into_empty_buffers_adopts_the_roots_length() {
    // Receivers that cannot know the payload length ahead of time pass an
    // empty buffer; the shape check must not fire for them.
    let out = World::run(3, |c: Comm| {
        let mut buf = if c.rank() == 0 { vec![7.0; 4] } else { Vec::new() };
        c.bcast_f64(0, &mut buf);
        buf.len()
    });
    assert_eq!(out, vec![4, 4, 4]);
}

#[test]
fn split_half_agrees_on_ids_with_presized_buffers() {
    let out = World::run(4, |c: Comm| {
        let sub = c.split_half();
        let mut total = sub.reduce_sum(0, &[1.0]).unwrap_or_else(|| vec![0.0]);
        sub.bcast_f64(0, &mut total);
        (sub.rank(), sub.size(), total[0] as usize)
    });
    for (i, (rank, size, total)) in out.into_iter().enumerate() {
        assert_eq!(size, 2);
        assert_eq!(total, 2);
        assert_eq!(rank, i % 2);
    }
}
