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

/// Samples each element of `{0..universe}` independently with probability
/// `p` — the sampling step at the heart of the decay argument (Lemma 4.2).
pub fn bernoulli_subset(rng: &mut impl Rng, universe: usize, p: f64) -> VertexSet {
    let p = p.clamp(0.0, 1.0);
    VertexSet::from_iter(universe, (0..universe).filter(|_| rng.gen_bool(p)))
}

/// Samples each element of `base` independently with probability `p`,
/// returning a subset of `base` over the same universe.
pub fn bernoulli_subset_of(rng: &mut impl Rng, base: &VertexSet, p: f64) -> VertexSet {
    let p = p.clamp(0.0, 1.0);
    VertexSet::from_iter(base.universe(), base.iter().filter(|_| rng.gen_bool(p)))
}

/// Chooses a uniformly random element of a non-empty slice.
pub fn choose<'a, T>(rng: &mut impl Rng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
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

    #[test]
    fn bernoulli_subset_extremes() {
        let mut rng = rng_from_seed(9);
        assert_eq!(bernoulli_subset(&mut rng, 20, 0.0).len(), 0);
        assert_eq!(bernoulli_subset(&mut rng, 20, 1.0).len(), 20);
        // out-of-range probabilities are clamped rather than panicking
        assert_eq!(bernoulli_subset(&mut rng, 20, 2.0).len(), 20);
        assert_eq!(bernoulli_subset(&mut rng, 20, -1.0).len(), 0);
    }

    #[test]
    fn bernoulli_subset_of_respects_base() {
        let mut rng = rng_from_seed(11);
        let base = VertexSet::from_iter(50, (0..50).step_by(2));
        let sub = bernoulli_subset_of(&mut rng, &base, 0.5);
        assert!(sub.is_subset_of(&base));
    }

    #[test]
    fn bernoulli_probability_roughly_respected() {
        let mut rng = rng_from_seed(123);
        let n = 20_000;
        let s = bernoulli_subset(&mut rng, n, 0.25);
        let frac = s.len() as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "got fraction {frac}");
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = rng_from_seed(5);
        let items = [10, 20, 30];
        for _ in 0..20 {
            assert!(items.contains(choose(&mut rng, &items)));
        }
    }
}
