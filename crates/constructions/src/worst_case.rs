//! The Section 4.3.3 worst-case expander (Theorem 1.2 / Corollary 4.11).
//!
//! Given an arbitrary ordinary `(α, β)`-expander `G` on `n` vertices with
//! maximum degree `Δ`, and a blow-up parameter `0 < ε < 1/2` with
//! `Δ·β ≥ 1/(1−2ε)`, the construction:
//!
//! 1. builds the generalized core graph `G*_S = (S*, N*, E*)` with
//!    `Δ* = ε·Δ` and `β* = β/ε` (Lemma 4.6);
//! 2. adds the vertices of `S*` as *new* vertices on top of `G`;
//! 3. identifies `N*` with an arbitrary subset of `V(G)` and adds the edges
//!    of `E*` accordingly.
//!
//! Claims 4.9 and 4.10 show the result `G̃` is an ordinary
//! `((1−ε)α, (1−ε)β)`-expander whose wireless expansion is
//! `O(β̃ / (ε³·log min{Δ̃/β̃, Δ̃·β̃}))` — i.e. ordinary expanders really can
//! lose the full logarithmic factor of Theorem 1.1.

use crate::generalized_core::GeneralizedCoreGraph;
use wx_graph::{Graph, GraphBuilder, GraphError, Result, VertexSet};
use wx_spokesman::SpokesmanSolver;

/// The worst-case expander `G̃` with its construction data.
#[derive(Clone, Debug)]
pub struct WorstCaseExpander {
    /// The blow-up parameter `ε`.
    pub epsilon: f64,
    /// The base expander's expansion `β` (as supplied by the caller).
    pub base_beta: f64,
    /// The base expander's maximum degree `Δ`.
    pub base_delta: usize,
    /// Number of vertices of the base expander.
    pub base_n: usize,
    /// The generalized core graph that was plugged in.
    pub core: GeneralizedCoreGraph,
    /// The combined graph `G̃` on `base_n + |S*|` vertices: base vertices
    /// keep their ids `0..base_n`, the new `S*` vertices are
    /// `base_n..base_n+|S*|`.
    pub graph: Graph,
    /// The ids (in `G̃`) of the new `S*` vertices.
    pub s_star: VertexSet,
    /// The ids (in `G̃`) of the base vertices playing the role of `N*`.
    pub n_star: VertexSet,
}

impl WorstCaseExpander {
    /// Plugs a generalized core graph on top of the base expander `g`.
    ///
    /// `beta` is the (measured or known) expansion of `g` and is used to set
    /// the core parameters `Δ* = ε·Δ`, `β* = β/ε`. Fails if the parameter
    /// window of Lemma 4.6 is violated or if `g` has fewer vertices than the
    /// core needs for `N*`.
    pub fn plug(g: &Graph, beta: f64, epsilon: f64) -> Result<Self> {
        if !(0.0..0.5).contains(&epsilon) || epsilon == 0.0 {
            return Err(GraphError::invalid(format!(
                "blow-up parameter must satisfy 0 < ε < 1/2, got {epsilon}"
            )));
        }
        let delta = g.max_degree();
        if (delta as f64) * beta < 1.0 / (1.0 - 2.0 * epsilon) {
            return Err(GraphError::invalid(format!(
                "Section 4.3.3 requires Δ·β ≥ 1/(1−2ε); got Δ = {delta}, β = {beta}, ε = {epsilon}"
            )));
        }
        let delta_star = ((epsilon * delta as f64).floor() as usize).max(1);
        let beta_star = beta / epsilon;
        let core = GeneralizedCoreGraph::from_targets(delta_star, beta_star)?;
        let n_star_size = core.graph.num_right();
        if n_star_size > g.num_vertices() {
            return Err(GraphError::invalid(format!(
                "base expander has {} vertices but the core needs |N*| = {n_star_size}",
                g.num_vertices()
            )));
        }
        let s_star_size = core.graph.num_left();
        let base_n = g.num_vertices();
        let total = base_n + s_star_size;

        let mut b = GraphBuilder::new(total);
        for (u, v) in g.edges() {
            b.add_edge(u, v)?;
        }
        // N* is identified with the first |N*| vertices of the base graph
        // ("chosen arbitrarily from V(G)" in the paper).
        for u in 0..s_star_size {
            for &w in core.graph.left_neighbors(u) {
                b.add_edge(base_n + u, w)?;
            }
        }
        let graph = b.build();
        Ok(WorstCaseExpander {
            epsilon,
            base_beta: beta,
            base_delta: delta,
            base_n,
            s_star: VertexSet::from_iter(total, base_n..total),
            n_star: VertexSet::from_iter(total, 0..n_star_size),
            core,
            graph,
        })
    }

    /// The Claim 4.9 expansion of the combined graph: `β̃ = (1−ε)·β`.
    pub fn beta_tilde(&self) -> f64 {
        (1.0 - self.epsilon) * self.base_beta
    }

    /// The Claim 4.9 size-bound parameter: `α̃ = (1−ε)·α` for whatever `α`
    /// the base expander had (returned as the multiplier `1−ε`).
    pub fn alpha_shrink_factor(&self) -> f64 {
        1.0 - self.epsilon
    }

    /// The maximum degree `Δ̃ ≤ (1+ε)·Δ` of the combined graph (measured).
    pub fn delta_tilde(&self) -> usize {
        self.graph.max_degree()
    }

    /// The Claim 4.10 / Corollary 4.11 upper bound on the wireless expansion
    /// of `G̃`.
    pub fn wireless_upper_bound(&self) -> f64 {
        wx_spokesman::bounds::corollary_4_11_upper_bound(
            self.delta_tilde(),
            self.beta_tilde(),
            self.epsilon,
        )
    }

    /// The wireless expansion *of the planted set* `S*`, certified by the
    /// best subset found by the supplied spokesman portfolio (a lower bound)
    /// together with the structural upper bound `|Γ¹| ≤ bound` from the core
    /// graph. Returns `(lower, upper)` normalized by `|S*|`.
    pub fn planted_set_wireless_bounds(&self, seed: u64) -> (f64, f64) {
        let portfolio = wx_spokesman::PortfolioSolver::default();
        let result = portfolio.solve(&self.core.graph, seed);
        let lower = result.unique_coverage as f64 / self.s_star.len() as f64;
        let upper = self.core.unique_coverage_upper_bound() as f64 / self.s_star.len() as f64;
        (lower, upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::random_regular::random_regular_graph;
    use wx_graph::GraphView;

    /// Base: random 32-regular graph on 512 vertices with a conservative
    /// certified expansion β = 0.5 for α = 1/2; ε = 0.35 keeps the Lemma 4.6
    /// parameter window `2e/Δ* ≤ β* ≤ Δ*/(2e)` satisfied (Δ* = 11, β* ≈ 1.43).
    const EPS: f64 = 0.35;

    fn base_expander() -> (Graph, f64) {
        let g = random_regular_graph(512, 32, 7).unwrap();
        (g, 0.5)
    }

    #[test]
    fn plug_produces_expected_shape() {
        let (g, beta) = base_expander();
        let w = WorstCaseExpander::plug(&g, beta, EPS).unwrap();
        assert_eq!(w.base_n, 512);
        assert_eq!(w.graph.num_vertices(), 512 + w.s_star.len());
        assert_eq!(w.s_star.len(), w.core.graph.num_left());
        assert_eq!(w.n_star.len(), w.core.graph.num_right());
        // Δ̃ ≤ Δ + Δ* ≤ (1+ε)Δ
        assert!(w.delta_tilde() <= ((1.0 + EPS) * 32.0).ceil() as usize);
        // β̃ = (1−ε)β
        assert!((w.beta_tilde() - (1.0 - EPS) * 0.5).abs() < 1e-12);
        assert!((w.alpha_shrink_factor() - (1.0 - EPS)).abs() < 1e-12);
    }

    #[test]
    fn planted_set_has_poor_wireless_expansion() {
        let (g, beta) = base_expander();
        let w = WorstCaseExpander::plug(&g, beta, EPS).unwrap();
        let (lower, upper) = w.planted_set_wireless_bounds(3);
        // The structural upper bound must dominate the certified lower bound.
        assert!(lower <= upper + 1e-9);
        // And the planted set's wireless expansion (upper bound) must be
        // bounded by the Corollary 4.11 formula.
        assert!(
            upper <= w.wireless_upper_bound() + 1e-9,
            "upper {upper} vs corollary bound {}",
            w.wireless_upper_bound()
        );
    }

    #[test]
    fn parameter_validation() {
        let (g, beta) = base_expander();
        assert!(WorstCaseExpander::plug(&g, beta, 0.0).is_err());
        assert!(WorstCaseExpander::plug(&g, beta, 0.5).is_err());
        assert!(WorstCaseExpander::plug(&g, 0.001, 0.49).is_err()); // Δ·β too small
                                                                    // degree too small for the core's parameter window
        let tiny = random_regular_graph(16, 4, 1).unwrap();
        // With Δ = 4, ε = 0.25 the core needs Δ* = 1 — the parameter window
        // 2e/Δ* ≤ β* fails, so we get an invalid-parameter error either way.
        assert!(WorstCaseExpander::plug(&tiny, 2.0, 0.25).is_err());
    }

    #[test]
    fn base_graph_edges_are_preserved() {
        let (g, beta) = base_expander();
        let w = WorstCaseExpander::plug(&g, beta, EPS).unwrap();
        for (u, v) in g.edges().take(200) {
            assert!(w.graph.has_edge(u, v));
        }
        // planted vertices only connect into N*
        for u in w.s_star.iter() {
            for &v in w.graph.neighbors(u) {
                assert!(w.n_star.contains(v));
            }
        }
    }
}
