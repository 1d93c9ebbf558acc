//! The Chlamtac–Weinstein-style baseline (reference \[7\] of the paper).
//!
//! The original wave-expansion approach computes a subset `S' ⊆ S` with
//! `|Γ¹(S')| ≥ |N| / log|S|`, i.e. its loss factor is logarithmic in the
//! *size of S* rather than in the average degree. We implement the natural
//! randomized counterpart — a size-based halving sweep: for every level
//! `i = 0, 1, …, ⌈log₂|S|⌉` sample each left vertex with probability `2^{-i}`
//! and keep the best sample. For any set `S` there is a level at which the
//! expected number of sampled vertices adjacent to a fixed right vertex is
//! `Θ(1)`, giving the `|N|/log|S|` guarantee in expectation. The sweep is
//! Random Decay's, over the whole left side, with the level count set by
//! `|S|` instead of the degree: eight samples per level, each drawn in bulk
//! by the ChaCha kernel (one `gen_bool(2^{-i})` per left vertex, in
//! ascending order) and scored in place, with level 0, which keeps every
//! vertex, scored once.
//!
//! This solver exists as the *comparison point* for experiment E7: the
//! paper's refined solvers ([`crate::RandomDecaySolver`],
//! [`crate::PartitionSolver`]) replace the `log|S|` loss with
//! `log(2·min{δ_N, δ_S})`, which is never worse and is much better on
//! low-average-degree instances with a large left side.

use crate::random_decay::dyadic_sweep;
use crate::sample::BernoulliSampler;
use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use wx_graph::{BipartiteGraph, VertexSet};

/// Size-based halving baseline in the spirit of Chlamtac–Weinstein \[7\].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChlamtacWeinsteinSolver;

impl ChlamtacWeinsteinSolver {
    /// The guarantee of the baseline: `|N⁺| / log₂(2|S|)` where `N⁺` counts
    /// the non-isolated right vertices.
    pub fn guarantee(g: &BipartiteGraph) -> f64 {
        let gamma = (0..g.num_right())
            .filter(|&w| g.right_degree(w) > 0)
            .count();
        let s = g.num_left().max(1);
        gamma as f64 / (2.0 * s as f64).log2().max(1.0)
    }
}

impl SpokesmanSolver for ChlamtacWeinsteinSolver {
    fn solve(&self, g: &BipartiteGraph, seed: u64) -> SpokesmanResult {
        let _span = wx_trace::span("spokesman.chlamtac_weinstein");
        if g.num_left() == 0 || g.num_edges() == 0 {
            return SpokesmanResult::from_subset(
                SolverKind::ChlamtacWeinstein,
                g,
                VertexSet::empty(g.num_left()),
            );
        }
        let levels = (2.0 * g.num_left() as f64).log2().ceil().max(1.0) as u32;
        let mut sampler = BernoulliSampler::new(g);
        dyadic_sweep(&mut sampler, &VertexSet::full(g.num_left()), levels, seed);
        SpokesmanResult::from_subset(SolverKind::ChlamtacWeinstein, g, sampler.into_best())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wx_graph::random::rng_from_seed;

    fn random_instance(seed: u64, s: usize, n: usize, p: f64) -> BipartiteGraph {
        let mut rng = rng_from_seed(seed);
        let mut edges = Vec::new();
        for u in 0..s {
            for w in 0..n {
                if rng.gen_bool(p) {
                    edges.push((u, w));
                }
            }
        }
        BipartiteGraph::from_edges(s, n, edges).unwrap()
    }

    #[test]
    fn star_covered() {
        let g = BipartiteGraph::from_edges(1, 3, (0..3).map(|w| (0, w))).unwrap();
        let r = ChlamtacWeinsteinSolver.solve(&g, 0);
        assert_eq!(r.unique_coverage, 3);
    }

    #[test]
    fn meets_its_own_guarantee_on_random_instances() {
        for seed in 0..12u64 {
            let g = random_instance(seed, 16, 24, 0.3);
            if g.num_edges() == 0 {
                continue;
            }
            let guarantee = ChlamtacWeinsteinSolver::guarantee(&g);
            let r = ChlamtacWeinsteinSolver.solve(&g, seed);
            assert!(
                r.unique_coverage as f64 >= guarantee.floor(),
                "seed {seed}: coverage {} below |N|/log|S| guarantee {guarantee:.2}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let g = random_instance(2, 10, 20, 0.25);
        let a = ChlamtacWeinsteinSolver.solve(&g, 5);
        let b = ChlamtacWeinsteinSolver.solve(&g, 5);
        assert_eq!(a.unique_coverage, b.unique_coverage);
    }

    #[test]
    fn degenerate_instances() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(ChlamtacWeinsteinSolver.solve(&g, 0).unique_coverage, 0);
        let g = BipartiteGraph::from_edges(2, 2, []).unwrap();
        assert_eq!(ChlamtacWeinsteinSolver.solve(&g, 0).unique_coverage, 0);
    }
}
