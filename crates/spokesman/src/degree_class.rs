//! The degree-class solver of Lemmas A.5–A.7 and Corollaries A.8–A.10.
//!
//! Lemma A.5 buckets the right side by degree class `[c^{i-1}, c^i)` and
//! shows that inside a single class a constant fraction `1/(2(1+c))` of the
//! class can be uniquely covered; choosing the largest class and the optimal
//! base `c ≈ 3.59112` yields Corollary A.7's bound
//! `|Γ¹_S(S')| ≥ 0.20087·|N|/log₂Δ`.
//!
//! Our solver follows that outline with the optimal base [`OPTIMAL_BASE`]:
//! for every degree class it builds the restricted instance and solves it
//! with Procedure Partition (which inside a class — where degrees are within
//! a factor `c` of one another — achieves the constant-fraction guarantee),
//! then returns the best subset over all classes. Two Bernoulli samples per
//! class (probability `c^{-(i+1/2)}`) are mixed in as a tie-breaker,
//! mirroring the probabilistic intuition behind the lemma. Each sample is
//! drawn in bulk by the ChaCha kernel (one `gen_bool` per left vertex, in
//! ascending order, the stream a scalar per-vertex filter consumes) and
//! scored in place; the class's Partition subset and its samples compete in
//! one first-best-wins order. The guarantee itself is
//! [`crate::bounds::corollary_a_7_guarantee`].

use crate::partition::procedure_partition;
use crate::sample::BernoulliSampler;
use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use wx_graph::degree::degree_class_buckets;
use wx_graph::random::derive_seed;
use wx_graph::{BipartiteGraph, VertexSet};

/// The base `c` maximizing `f(c) = log₂c / (2(1+c))` (Corollary A.7).
pub const OPTIMAL_BASE: f64 = 3.59112;

/// The value `f(c*) ≈ 0.20087` attained at the optimal base.
pub const OPTIMAL_BASE_VALUE: f64 = 0.20087;

/// Bernoulli samples per degree class, the randomized tie-breaker.
const RANDOM_TRIALS_PER_CLASS: usize = 2;

/// Degree-class solver (Lemmas A.5–A.7).
#[derive(Clone, Copy, Debug, Default)]
pub struct DegreeClassSolver;

impl SpokesmanSolver for DegreeClassSolver {
    fn solve(&self, g: &BipartiteGraph, seed: u64) -> SpokesmanResult {
        let _span = wx_trace::span("spokesman.degree_class");
        if g.num_edges() == 0 {
            return SpokesmanResult::from_subset(
                SolverKind::DegreeClass,
                g,
                VertexSet::empty(g.num_left()),
            );
        }
        let buckets = degree_class_buckets(g, OPTIMAL_BASE);
        let all = VertexSet::full(g.num_left());
        let mut sampler = BernoulliSampler::new(g);
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let candidates = VertexSet::from_iter(g.num_right(), bucket.iter().copied());
            // Deterministic core: Procedure Partition restricted to the class.
            sampler.offer(&procedure_partition(g, &candidates).s_uni);
            // Randomized sweep: sample left vertices with probability close
            // to the reciprocal of the class's typical degree.
            let p = OPTIMAL_BASE.powf(-(i as f64 + 0.5)).clamp(1e-9, 1.0);
            for t in 0..RANDOM_TRIALS_PER_CLASS {
                sampler.draw(&all, p, derive_seed(seed, ((i as u64) << 32) | t as u64));
            }
        }
        SpokesmanResult::from_subset(SolverKind::DegreeClass, g, sampler.into_best())
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
    fn optimal_base_maximizes_f() {
        let f = |c: f64| c.log2() / (2.0 * (1.0 + c));
        let at_opt = f(OPTIMAL_BASE);
        assert!((at_opt - OPTIMAL_BASE_VALUE).abs() < 1e-3);
        for c in [2.0, 3.0, 4.0, 5.0, 10.0] {
            assert!(f(c) <= at_opt + 1e-6, "f({c}) = {} exceeds optimum", f(c));
        }
    }

    #[test]
    fn star_fully_covered() {
        let g = BipartiteGraph::from_edges(1, 4, (0..4).map(|w| (0, w))).unwrap();
        let r = DegreeClassSolver.solve(&g, 0);
        assert_eq!(r.unique_coverage, 4);
    }

    #[test]
    fn meets_corollary_a7_guarantee_on_random_instances() {
        for seed in 0..15u64 {
            let g = random_instance(seed + 70, 14, 30, 0.3);
            if g.num_edges() == 0 {
                continue;
            }
            let gamma = (0..g.num_right())
                .filter(|&w| g.right_degree(w) > 0)
                .count();
            let delta = g.max_degree();
            let guarantee = crate::bounds::corollary_a_7_guarantee(gamma, delta);
            let r = DegreeClassSolver.solve(&g, seed);
            assert!(
                r.unique_coverage as f64 >= guarantee.floor(),
                "seed {seed}: coverage {} below Corollary A.7 guarantee {guarantee:.2}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn skewed_degree_instance_prefers_a_single_class() {
        // Right side has one huge-degree vertex and many degree-1 vertices;
        // the degree-1 class alone already gives near-perfect coverage.
        let s = 8usize;
        let mut edges = Vec::new();
        for u in 0..s {
            edges.push((u, 0)); // vertex 0 has degree s
            edges.push((u, 1 + u)); // private neighbor
        }
        let g = BipartiteGraph::from_edges(s, s + 1, edges).unwrap();
        let r = DegreeClassSolver.solve(&g, 0);
        assert!(
            r.unique_coverage >= s,
            "coverage {} < {s}",
            r.unique_coverage
        );
    }

    #[test]
    fn edgeless_instance() {
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        let r = DegreeClassSolver.solve(&g, 0);
        assert_eq!(r.unique_coverage, 0);
        assert!(r.subset.is_empty());
    }
}
