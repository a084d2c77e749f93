//! Collection strategies: `collection::vec(element, len)` where `len` is a
//! fixed `usize` or a `Range<usize>` of lengths.

use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Length specification for [`vec()`]: a fixed size or a range of sizes.
pub trait SizeRange {
    fn pick(&self, rng: &mut StdRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "empty length range");
        rng.gen_range(self.clone())
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(*self.start()..*self.end() + 1)
    }
}

/// Strategy for `Vec<S::Value>` with lengths drawn from `L`.
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = self.len.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Mirrors `proptest::collection::vec`.
pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}
