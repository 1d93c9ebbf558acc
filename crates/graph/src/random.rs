//! Reproducible randomness utilities shared across the workspace.
//!
//! Every randomized routine in the reproduction takes an explicit `u64` seed
//! and derives a [`rand_chacha::ChaCha8Rng`] from it, so all experiments are
//! bit-for-bit reproducible and Monte-Carlo trials can be farmed out to
//! worker threads with independent, deterministic streams.

use crate::{Vertex, VertexSet};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The RNG type used throughout the workspace.
pub type WxRng = ChaCha8Rng;

/// Creates the workspace RNG from a seed.
pub fn rng_from_seed(seed: u64) -> WxRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index, so that
/// parallel trials each get an independent deterministic stream.
///
/// Uses the SplitMix64 finalizer, which is a bijection on `u64` and mixes
/// well even for consecutive indices.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a uniformly random subset of `{0..universe}` of exactly `k`
/// elements (a partial Fisher–Yates shuffle of `0..universe`, keeping the
/// first `k` entries).
///
/// # Panics
/// Panics if `k > universe`.
pub fn random_subset_of_size(rng: &mut impl Rng, universe: usize, k: usize) -> VertexSet {
    assert!(k <= universe, "cannot sample {k} elements from {universe}");
    let mut all: Vec<Vertex> = (0..universe).collect();
    all.partial_shuffle(rng, k);
    VertexSet::from_iter(universe, all.into_iter().take(k))
}

/// Samples a uniform random `k`-subset of `{0, …, universe-1}` with `k`
/// draws (Floyd's algorithm) straight into the output bitset, in
/// O(k + universe/64) rather than the O(universe) shuffle behind
/// [`random_subset_of_size`]. Its one caller is the scenario lab's
/// `Induced { size }` source, which draws the inducing vertex set; the
/// candidate sampler uses the dense draw at every n.
///
/// The two samplers consume the rng differently, so they are **not**
/// interchangeable under a fixed seed; callers pick one per use site and
/// stick with it.
pub fn random_subset_of_size_sparse(rng: &mut impl Rng, universe: usize, k: usize) -> VertexSet {
    assert!(k <= universe, "cannot sample {k} elements from {universe}");
    let mut chosen = VertexSet::empty(universe);
    for j in (universe - k)..universe {
        let t = rng.gen_range(0..j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        let xs: Vec<u64> = (0..10).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_seed_is_injective_on_small_ranges() {
        let parent = 7;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(derive_seed(parent, i)));
        }
    }

    #[test]
    fn random_subset_has_requested_size() {
        let mut rng = rng_from_seed(3);
        for k in [0usize, 1, 5, 10] {
            let s = random_subset_of_size(&mut rng, 10, k);
            assert_eq!(s.len(), k);
            assert!(s.iter().all(|v| v < 10));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn random_subset_too_large_panics() {
        let mut rng = rng_from_seed(3);
        random_subset_of_size(&mut rng, 3, 4);
    }
}
