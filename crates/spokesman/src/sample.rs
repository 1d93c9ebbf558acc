//! The one Bernoulli sampler of the randomized spokesman solvers.
//!
//! Random Decay, Chlamtac–Weinstein and the degree-class solver all draw
//! samples that keep each vertex of a left pool independently with some
//! probability `p`, score each sample by its unique coverage, and return the
//! first sample with the best coverage. [`BernoulliSampler`] does that for
//! all three:
//!
//! - a sample is drawn by the ChaCha generator's bulk kernel
//!   (`fill_masked_decision_bits`) straight into a reused word buffer. The
//!   kernel consumes one `gen_bool(p)` per pool vertex in ascending vertex
//!   order, so the sample is bit for bit the one the scalar filter
//!   `pool.iter().filter(|_| rng.gen_bool(p))` keeps from the same seed;
//! - it is scored in place by [`BipartiteGraph::unique_coverage_of_words`]
//!   on a reused right-side counter array;
//! - the best sample so far is kept as words, and a [`VertexSet`] is built
//!   once, for the winner.

use wx_graph::random::rng_from_seed;
use wx_graph::{BipartiteGraph, VertexSet};

/// Draws and scores Bernoulli samples of left pools of one bipartite graph,
/// keeping the first sample with the best unique coverage (ties keep the
/// earlier sample).
pub(crate) struct BernoulliSampler<'g> {
    g: &'g BipartiteGraph,
    /// The packed decision stream of the current draw.
    decisions: Vec<u64>,
    /// The current sample's bitset words.
    sample: Vec<u64>,
    /// One counter per right vertex, all zero between samples.
    count: Vec<u32>,
    best_coverage: usize,
    best: Vec<u64>,
}

impl<'g> BernoulliSampler<'g> {
    /// A sampler over `g` whose best so far is the empty set, of coverage 0.
    pub(crate) fn new(g: &'g BipartiteGraph) -> Self {
        let words = g.num_left().div_ceil(64);
        BernoulliSampler {
            g,
            decisions: Vec::new(),
            sample: vec![0; words],
            count: vec![0; g.num_right()],
            best_coverage: 0,
            best: vec![0; words],
        }
    }

    /// Draws the sample of `pool` that keeps each member with probability
    /// `p`, from a generator seeded with `seed`, and keeps it if it beats the
    /// best so far.
    ///
    /// # Panics
    /// Panics if `pool` is not a set of left vertices of the graph, or if
    /// `p` is outside `[0, 1]`.
    pub(crate) fn draw(&mut self, pool: &VertexSet, p: f64, seed: u64) {
        assert_eq!(pool.universe(), self.g.num_left(), "pool universe");
        rng_from_seed(seed).fill_masked_decision_bits(
            p,
            pool.as_words(),
            pool.as_words(),
            &mut self.decisions,
            &mut self.sample,
        );
        let coverage = self
            .g
            .unique_coverage_of_words(&self.sample, &mut self.count);
        if coverage > self.best_coverage {
            self.best_coverage = coverage;
            self.best.copy_from_slice(&self.sample);
        }
    }

    /// Scores `set` as one more sample and keeps it if it beats the best so
    /// far.
    ///
    /// # Panics
    /// Panics if `set` is not a set of left vertices of the graph.
    pub(crate) fn offer(&mut self, set: &VertexSet) {
        assert_eq!(set.universe(), self.g.num_left(), "set universe");
        let coverage = self
            .g
            .unique_coverage_of_words(set.as_words(), &mut self.count);
        if coverage > self.best_coverage {
            self.best_coverage = coverage;
            self.best.copy_from_slice(set.as_words());
        }
    }

    /// The first sample with the best unique coverage, or the empty set if
    /// no sample covered anything.
    pub(crate) fn into_best(self) -> VertexSet {
        VertexSet::from_words(self.g.num_left(), self.best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree_class::OPTIMAL_BASE;
    use proptest::prelude::*;
    use rand::Rng;

    /// `p = 1`, the dyadic probabilities `2^{-j}` for `j ≤ 13` and the
    /// degree-class probabilities `c^{-(i+1/2)}`.
    fn probability(index: usize) -> f64 {
        match index {
            0..=13 => 0.5f64.powi(index as i32),
            i => OPTIMAL_BASE.powf(-((i - 14) as f64 + 0.5)),
        }
    }

    /// A bipartite graph with `left` left vertices, each joined to up to
    /// three of 40 right vertices.
    fn graph(left: usize, seed: u64) -> BipartiteGraph {
        let mut rng = rng_from_seed(seed);
        let edges: Vec<(usize, usize)> = (0..left)
            .flat_map(|u| (0..3).map(move |_| u))
            .map(|u| (u, rng.gen_range(0..40)))
            .collect();
        BipartiteGraph::from_edges(left, 40, edges).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every draw is the scalar `gen_bool` filter's sample from the same
        /// seed, scored as `unique_coverage` scores it. Universes run from 0
        /// to 300, across partial tail words, and full or dense pools of more
        /// than 136 members reach the 128-draw bulk batches (after the 8
        /// draws left in the seeded generator's first block) and the scalar
        /// tail after them.
        #[test]
        fn draws_match_the_scalar_gen_bool_filter(universe in 0usize..301,
                                                  pool_kind in 0usize..3,
                                                  p_index in 0usize..26,
                                                  seed in any::<u64>()) {
            let g = graph(universe, seed);
            let pool = match pool_kind {
                0 => VertexSet::full(universe),
                1 => {
                    let mut rng = rng_from_seed(seed ^ 1);
                    VertexSet::from_iter(universe, (0..universe).filter(|_| rng.gen_bool(0.7)))
                }
                _ => VertexSet::empty(universe),
            };
            let p = probability(p_index);
            let mut rng = rng_from_seed(seed);
            let oracle = VertexSet::from_iter(universe, pool.iter().filter(|_| rng.gen_bool(p)));
            let mut sampler = BernoulliSampler::new(&g);
            sampler.draw(&pool, p, seed);
            prop_assert_eq!(VertexSet::from_words(universe, sampler.sample.clone()), oracle.clone());
            prop_assert!(sampler.count.iter().all(|&c| c == 0));
            // The first draw beats the empty start iff it covers anything.
            let coverage = g.unique_coverage(&oracle);
            prop_assert_eq!(sampler.best_coverage, coverage);
            let expected_best = if coverage > 0 { oracle } else { VertexSet::empty(universe) };
            prop_assert_eq!(sampler.into_best(), expected_best);
        }
    }

    #[test]
    fn ties_keep_the_first_best_sample() {
        // Left 0 and left 1 each cover one private right vertex; {0} comes
        // first, so the later {1} of equal coverage does not replace it.
        let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (1, 1)]).unwrap();
        let mut sampler = BernoulliSampler::new(&g);
        sampler.offer(&VertexSet::from_iter(2, [0]));
        sampler.offer(&VertexSet::from_iter(2, [1]));
        assert_eq!(sampler.into_best().to_vec(), vec![0]);
        let sampler = BernoulliSampler::new(&g);
        assert!(sampler.into_best().is_empty());
    }
}
