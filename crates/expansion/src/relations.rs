//! The paper's inequalities as checkable predicates.
//!
//! Each function takes *measured* quantities (per-set or per-graph) and
//! evaluates one of the paper's relations, returning a [`RelationCheck`] with
//! the two sides of the inequality so experiment harnesses can report how
//! much slack there is. The integration tests use them (Observation 2.1,
//! Lemma 3.2, Theorem 1.1).

use serde::{Deserialize, Serialize};
use wx_graph::neighborhood::{expansion_of_set, unique_expansion_of_set};
use wx_graph::{Graph, VertexSet};

/// The outcome of checking one inequality: `lhs ≥ rhs` (within `tolerance`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RelationCheck {
    /// A short name of the relation ("observation-2.1", "lemma-3.2", …).
    pub relation: String,
    /// The measured left-hand side.
    pub lhs: f64,
    /// The required right-hand side.
    pub rhs: f64,
    /// Absolute tolerance used for the comparison.
    pub tolerance: f64,
    /// Whether the inequality holds.
    pub holds: bool,
}

impl RelationCheck {
    fn new(relation: &str, lhs: f64, rhs: f64, tolerance: f64) -> Self {
        RelationCheck {
            relation: relation.to_string(),
            lhs,
            rhs,
            tolerance,
            holds: lhs + tolerance >= rhs,
        }
    }
}

/// Observation 2.1 for a single set: `β(S) ≥ βw(S) ≥ βu(S)`.
/// Returns the two chained checks.
pub fn observation_2_1_for_set(g: &Graph, s: &VertexSet) -> Vec<RelationCheck> {
    let beta = expansion_of_set(g, s);
    let (beta_w, _) = crate::wireless::of_set_exact(g, s);
    let beta_u = unique_expansion_of_set(g, s);
    vec![
        RelationCheck::new("observation-2.1: β ≥ βw", beta, beta_w, 1e-9),
        RelationCheck::new("observation-2.1: βw ≥ βu", beta_w, beta_u, 1e-9),
    ]
}

/// Lemma 3.2 for a single set: `βu(S) ≥ 2·β(S) − Δ`.
pub fn lemma_3_2_for_set(g: &Graph, s: &VertexSet) -> RelationCheck {
    let beta = expansion_of_set(g, s);
    let beta_u = unique_expansion_of_set(g, s);
    let delta = g.max_degree() as f64;
    RelationCheck::new("lemma-3.2: βu ≥ 2β − Δ", beta_u, 2.0 * beta - delta, 1e-9)
}

/// Theorem 1.1 for a single set, using the *exact* inner maximization:
/// `βw(S) ≥ β(S) / log₂(2·min{Δ/β(S), Δ·β(S)})` — the paper's bound with the
/// `Ω`-constant taken as 1. The theorem is asymptotic, so harnesses usually
/// pass `constant < 1` to make the check meaningful on small instances; the
/// default here is the paper-shaped constant 1 with the caller able to relax
/// via `constant`.
pub fn theorem_1_1_for_set(g: &Graph, s: &VertexSet, constant: f64) -> RelationCheck {
    let beta = expansion_of_set(g, s);
    let (beta_w, _) = crate::wireless::of_set_exact(g, s);
    let delta = g.max_degree();
    let bound = constant * wx_spokesman::bounds::theorem_1_1_lower_bound(delta, beta);
    RelationCheck::new(
        "theorem-1.1: βw ≥ c·β/log(2·min{Δ/β, Δβ})",
        beta_w,
        bound,
        1e-9,
    )
}

/// Theorem 1.1 for a single set using a polynomial-time *lower bound* on the
/// inner maximization (sound for verifying the theorem: if even the lower
/// bound clears the threshold, the true wireless expansion does too).
pub fn theorem_1_1_for_set_via_portfolio(
    g: &Graph,
    s: &VertexSet,
    constant: f64,
    seed: u64,
) -> RelationCheck {
    let beta = expansion_of_set(g, s);
    let portfolio = wx_spokesman::PortfolioSolver::default();
    let (beta_w_lb, _) = crate::wireless::of_set_lower_bound(g, s, &portfolio, seed);
    let delta = g.max_degree();
    let bound = constant * wx_spokesman::bounds::theorem_1_1_lower_bound(delta, beta);
    RelationCheck::new(
        "theorem-1.1 (portfolio): βw ≥ c·β/log(2·min{Δ/β, Δβ})",
        beta_w_lb,
        bound,
        1e-9,
    )
}

/// Graph-level Observation 2.1: `β ≥ βw ≥ βu` for the measured graph-level
/// quantities supplied by the caller.
pub fn observation_2_1_graph(beta: f64, beta_w: f64, beta_u: f64) -> Vec<RelationCheck> {
    vec![
        RelationCheck::new("observation-2.1 (graph): β ≥ βw", beta, beta_w, 1e-9),
        RelationCheck::new("observation-2.1 (graph): βw ≥ βu", beta_w, beta_u, 1e-9),
    ]
}

/// Lemma 3.1 graph-level check for `d`-regular graphs: given measured
/// `(αu, βu)` and the measured ordinary expansion `β`, verify
/// `β ≥ (1 − 1/d)·βu + (d − λ₂)(1 − αu)/d`.
pub fn lemma_3_1_graph(
    g: &Graph,
    alpha_u: f64,
    beta_u: f64,
    beta: f64,
    seed: u64,
) -> Option<RelationCheck> {
    let bound = crate::spectral::lemma_3_1_bound(g, alpha_u, beta_u, seed)?;
    Some(RelationCheck::new(
        "lemma-3.1: β ≥ (1−1/d)βu + (d−λ₂)(1−αu)/d",
        beta,
        bound,
        1e-6,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::{GraphBuilder, GraphView};

    fn complete(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(i, j).unwrap();
            }
        }
        b.build()
    }

    fn petersen() -> Graph {
        // the Petersen graph: 3-regular, a decent small expander
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        Graph::from_edges(10, outer.into_iter().chain(spokes).chain(inner)).unwrap()
    }

    #[test]
    fn observation_2_1_holds_on_petersen_sets() {
        let g = petersen();
        for s in [
            g.vertex_set([0]),
            g.vertex_set([0, 1]),
            g.vertex_set([0, 2, 5]),
            g.vertex_set([0, 1, 2, 3, 4]),
        ] {
            for check in observation_2_1_for_set(&g, &s) {
                assert!(
                    check.holds,
                    "{}: lhs {} rhs {}",
                    check.relation, check.lhs, check.rhs
                );
            }
        }
    }

    #[test]
    fn lemma_3_2_holds_on_complete_graph_sets() {
        let g = complete(7);
        for s in [
            g.vertex_set([0]),
            g.vertex_set([0, 1]),
            g.vertex_set([0, 1, 2]),
        ] {
            let check = lemma_3_2_for_set(&g, &s);
            assert!(check.holds, "lemma 3.2 failed: {check:?}");
        }
    }

    #[test]
    fn theorem_1_1_holds_on_petersen_sets() {
        let g = petersen();
        for s in [
            g.vertex_set([0, 1]),
            g.vertex_set([0, 2, 5, 7]),
            g.vertex_set([0, 1, 2, 3, 4]),
        ] {
            let check = theorem_1_1_for_set(&g, &s, 1.0);
            assert!(check.holds, "theorem 1.1 failed: {check:?}");
            let check = theorem_1_1_for_set_via_portfolio(&g, &s, 0.5, 3);
            assert!(check.holds, "theorem 1.1 (portfolio) failed: {check:?}");
        }
    }

    #[test]
    fn graph_level_observation() {
        let checks = observation_2_1_graph(2.0, 1.5, 0.5);
        assert!(checks.iter().all(|c| c.holds));
        let bad = observation_2_1_graph(1.0, 1.5, 0.5);
        assert!(!bad[0].holds);
        assert!((bad[0].lhs - bad[0].rhs + 0.5).abs() < 1e-12);
    }

    #[test]
    fn lemma_3_1_on_petersen() {
        let g = petersen();
        // Petersen: d = 3, λ₂ = 1. For αu = 0.2 (sets of ≤ 2 vertices) the
        // exact unique expansion is βu = 2 (two adjacent vertices have 4
        // unique neighbors); β for those sets is also 2.
        let engine = crate::engine::MeasurementEngine::builder()
            .alpha(0.2)
            .build();
        let beta_u = engine
            .measure(&g, &crate::engine::UniqueNeighbor)
            .unwrap()
            .value;
        let beta = engine.measure(&g, &crate::engine::Ordinary).unwrap().value;
        let check = lemma_3_1_graph(&g, 0.2, beta_u, beta, 1).unwrap();
        assert!(check.holds, "{check:?}");
    }

    #[test]
    fn lemma_3_1_rejects_irregular_graphs() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(lemma_3_1_graph(&g, 0.3, 0.0, 1.0, 0).is_none());
    }
}
