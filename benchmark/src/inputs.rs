//! Everything the workloads feed the program is derived here from the one
//! `--seed`: dataset seeds, right-hand sides, sampled check rows and the
//! key order. The program under test sees only the generated inputs.

/// SplitMix64 step: the harness's only random-number source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent seed for one named input of one workload.
pub fn derive(seed: u64, workload: &str, stream: &str) -> u64 {
    let mut state = seed;
    for b in workload.bytes().chain([b'/']).chain(stream.bytes()) {
        state = splitmix(&mut state) ^ u64::from(b);
    }
    splitmix(&mut state)
}

/// A seeded stream of uniform numbers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (splitmix(&mut self.0) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (splitmix(&mut self.0) % n as u64) as usize
    }

    /// A vector of `n` uniform numbers in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }

    /// `k` distinct sorted indices below `n` (all of them when `k >= n`).
    pub fn sample_rows(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut rows = std::collections::BTreeSet::new();
        while rows.len() < k.min(n) {
            rows.insert(self.below(n));
        }
        rows.into_iter().collect()
    }
}

/// FNV-1a digest over the bit patterns of `values`: what `same seed → same
/// inputs` is checked on.
pub fn digest(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfds_tree::datasets::normal_embedded;

    fn inputs(seed: u64) -> (u64, u64, Vec<usize>) {
        let pts = normal_embedded(256, 3, 8, 0.05, derive(seed, "w", "points"));
        let mut rng = Rng::new(derive(seed, "w", "rhs"));
        let rhs = rng.vector(256);
        (digest(pts.as_slice()), digest(&rhs), rng.sample_rows(256, 16))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(inputs(1), inputs(1));
        let (a, b) = (inputs(1), inputs(2));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        assert_ne!(derive(1, "w", "points"), derive(1, "w", "rhs"));
        assert_ne!(derive(1, "w", "points"), derive(1, "v", "points"));
    }

    #[test]
    fn sampled_rows_are_distinct_sorted_and_in_range() {
        let rows = Rng::new(5).sample_rows(100, 40);
        assert_eq!(rows.len(), 40);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert!(rows.iter().all(|&r| r < 100));
        assert_eq!(Rng::new(5).sample_rows(8, 40).len(), 8);
        let u = Rng::new(9).vector(1000);
        assert!(u.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
