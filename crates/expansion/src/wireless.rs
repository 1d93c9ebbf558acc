//! Wireless expansion `βw(G)` — per-set primitives (Section 2.2).
//!
//! For a set `S`, the *wireless expansion of `S`* is
//! `max { |Γ¹_S(S')|/|S| : S' ⊆ S }` — the best unique coverage any
//! sub-selection of transmitters can achieve, normalized by `|S|`. The graph
//! quantity `βw(G)` is the minimum of this over all `S` with `|S| ≤ α·n`,
//! computed by the [`crate::engine::MeasurementEngine`] driving the
//! [`crate::engine::Wireless`] measure.
//!
//! Computing the inner maximum is exactly the Spokesman Election problem, so
//! this module keeps the two per-set primitives the engine composes:
//!
//! * [`of_set_exact`] computes it optimally via [`wx_spokesman::ExactSolver`]
//!   (feasible for `|S| ≤ 25`);
//! * [`of_set_lower_bound`] computes a certified *lower bound* via the
//!   polynomial-time [`wx_spokesman::PortfolioSolver`] — sound because any
//!   `S'` certifies `wireless-expansion(S) ≥ |Γ¹_S(S')|/|S|`.
//!
//! Note the asymmetry inherited by sampled engine measurements: for a
//! *single* set the portfolio gives a lower bound, but minimizing that lower
//! bound over sampled sets yields an estimate of `βw(G)` that is neither a
//! strict upper nor lower bound of the true value (the sampling may miss the
//! worst set; the portfolio may undershoot the inner max). The engine's
//! exact strategy resolves both quantifiers exhaustively and is the ground
//! truth used in tests.

use wx_graph::{BipartiteGraph, GraphView, NeighborhoodScratch, VertexSet};
use wx_spokesman::{ExactSolver, PortfolioSolver, SpokesmanSolver};

/// The exact wireless expansion of a single set `S`: the optimal unique
/// coverage over all `S' ⊆ S`, divided by `|S|`. Returns the maximizing
/// subset as well. Infinite for the empty set.
///
/// # Panics
/// Panics if `|S| > 25` (the exact spokesman solver's limit).
pub fn of_set_exact<G: GraphView + ?Sized>(g: &G, s: &VertexSet) -> (f64, VertexSet) {
    of_set_exact_with(g, s, &mut NeighborhoodScratch::new(g.num_vertices()))
}

/// [`of_set_exact`] against a caller-provided scratch (used by the engine to
/// resolve `Γ⁻(S)` for the bipartite view without per-candidate allocation).
pub fn of_set_exact_with<G: GraphView + ?Sized>(
    g: &G,
    s: &VertexSet,
    scratch: &mut NeighborhoodScratch,
) -> (f64, VertexSet) {
    if s.is_empty() {
        return (f64::INFINITY, s.clone());
    }
    let (bip, left_ids, _right_ids) = BipartiteGraph::from_set_in_graph_with(g, s, scratch);
    let (cov, local_subset) = ExactSolver::optimum(&bip);
    let subset = VertexSet::from_iter(g.num_vertices(), local_subset.iter().map(|i| left_ids[i]));
    (cov as f64 / s.len() as f64, subset)
}

/// A certified lower bound on the wireless expansion of a single set `S`,
/// obtained by running a polynomial-time spokesman portfolio on the bipartite
/// view of `S`. Returns the witnessing transmitter subset `S' ⊆ S` (in the
/// original graph's vertex ids).
pub fn of_set_lower_bound<G: GraphView + ?Sized>(
    g: &G,
    s: &VertexSet,
    portfolio: &PortfolioSolver,
    seed: u64,
) -> (f64, VertexSet) {
    of_set_lower_bound_with(
        g,
        s,
        portfolio,
        seed,
        &mut NeighborhoodScratch::new(g.num_vertices()),
    )
}

/// [`of_set_lower_bound`] against a caller-provided scratch.
pub fn of_set_lower_bound_with<G: GraphView + ?Sized>(
    g: &G,
    s: &VertexSet,
    portfolio: &PortfolioSolver,
    seed: u64,
    scratch: &mut NeighborhoodScratch,
) -> (f64, VertexSet) {
    if s.is_empty() {
        return (f64::INFINITY, s.clone());
    }
    let (bip, left_ids, _right_ids) = BipartiteGraph::from_set_in_graph_with(g, s, scratch);
    let result = portfolio.solve(&bip, seed);
    let subset = VertexSet::from_iter(g.num_vertices(), result.subset.iter().map(|i| left_ids[i]));
    (result.unique_coverage as f64 / s.len() as f64, subset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MeasurementEngine, Ordinary, Wireless};
    use crate::sampling::{CandidateSets, SamplerConfig};
    use wx_graph::Graph;
    use wx_graph::GraphBuilder;

    fn complete_plus(k: usize) -> Graph {
        let mut b = GraphBuilder::new(k + 1);
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(i, j).unwrap();
            }
        }
        b.add_edge(k, 0).unwrap();
        b.add_edge(k, 1).unwrap();
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    #[test]
    fn wireless_of_set_on_c_plus_is_positive_even_when_unique_is_zero() {
        let k = 6;
        let g = complete_plus(k);
        let s = g.vertex_set([0, 1, k]);
        assert_eq!(wx_graph::neighborhood::unique_expansion_of_set(&g, &s), 0.0);
        let (w, subset) = of_set_exact(&g, &s);
        // choosing S' = {x} uniquely covers the k-2 other clique vertices
        assert!((w - (k - 2) as f64 / 3.0).abs() < 1e-12);
        assert!(!subset.is_empty());
    }

    #[test]
    fn observation_2_1_sandwich_per_set() {
        // β(S) ≥ βw(S) ≥ βu(S) for every set.
        let g = complete_plus(5);
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 1);
        for s in pool.sets.iter().filter(|s| s.len() <= 8) {
            let ordinary = wx_graph::neighborhood::expansion_of_set(&g, s);
            let unique = wx_graph::neighborhood::unique_expansion_of_set(&g, s);
            let (wireless, _) = of_set_exact(&g, s);
            assert!(
                ordinary + 1e-12 >= wireless,
                "ordinary {ordinary} < wireless {wireless} on {s:?}"
            );
            assert!(
                wireless + 1e-12 >= unique,
                "wireless {wireless} < unique {unique} on {s:?}"
            );
        }
    }

    #[test]
    fn portfolio_lower_bound_never_exceeds_exact() {
        let g = complete_plus(6);
        let pool = CandidateSets::generate(&g, &SamplerConfig::light(), 0.5, 3);
        let portfolio = PortfolioSolver::default();
        for (i, s) in pool.sets.iter().enumerate().filter(|(_, s)| s.len() <= 10) {
            let (lb, _) = of_set_lower_bound(&g, s, &portfolio, i as u64);
            let (ex, _) = of_set_exact(&g, s);
            assert!(lb <= ex + 1e-12, "lower bound {lb} exceeds exact {ex}");
        }
    }

    #[test]
    fn exact_wireless_expansion_of_cycle() {
        // C8, α = 1/2: for a contiguous arc S of 4 vertices, the best S' is
        // the two endpoints, uniquely covering both boundary vertices:
        // wireless expansion of that set = 2/4 = 1/2 — equal to the ordinary
        // expansion (a cycle is so sparse that nothing is lost).
        let g = cycle(8);
        let engine = MeasurementEngine::builder().alpha(0.5).build();
        let wexp = engine.measure(&g, &Wireless::default()).unwrap();
        let oexp = engine.measure(&g, &Ordinary).unwrap();
        assert!((wexp.value - oexp.value).abs() < 1e-12);
    }

    #[test]
    fn engine_estimate_close_to_exact_on_small_graphs() {
        let g = complete_plus(6);
        let engine = MeasurementEngine::builder().alpha(0.5).build();
        let ex = engine.measure(&g, &Wireless::default()).unwrap();
        let est = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(0)
            .seed(11)
            .build()
            .measure(&g, &Wireless::default())
            .unwrap();
        // The estimate minimizes a lower bound over a subset of the sets, so
        // it can land on either side of the truth, but on a 7-vertex graph
        // the portfolio solves the inner problem optimally almost always.
        assert!(
            (est.value - ex.value).abs() <= 0.5 + 1e-9,
            "estimate {} far from exact {}",
            est.value,
            ex.value
        );
    }

    #[test]
    fn empty_set_and_empty_graph() {
        let g = cycle(4);
        let empty = g.empty_vertex_set();
        assert!(of_set_exact(&g, &empty).0.is_infinite());
        assert!(MeasurementEngine::default()
            .measure(&Graph::empty(0), &Wireless::default())
            .is_none());
    }
}
