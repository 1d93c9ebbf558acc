//! Equivalence property tests for the `GraphView` backends.
//!
//! The whole point of the trait API is that a computation may not care which
//! backend it runs on. These tests pin that contract for the graph
//! substrate: for random graphs and random vertex subsets, every Γ operator
//! (and the raw view interface itself) must produce identical results on
//!
//! * a zero-copy [`SubgraphView`] vs the materialized
//!   [`Graph::induced_subgraph`] output, and
//! * an [`ImplicitGraph`] vs the materialized family graph.
//!
//! The expansion-notion and radio-trial equivalences live next to their
//! crates (`wx-expansion/tests/properties.rs`, `wx-radio/tests/properties.rs`).

use proptest::prelude::*;
use wx_graph::view::{
    materialize, GraphView, ImplicitFamily, ImplicitGraph, SubgraphView, SubsetIndex,
};
use wx_graph::{Graph, NeighborhoodScratch, VertexSet};

/// Strategy: a small random edge list over `n` vertices.
fn edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(n * 3).max(1)).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>()
    })
}

/// Strategy: a random implicit family (all three kinds, parameters kept
/// small so the materialized twin stays cheap).
fn implicit_family() -> impl Strategy<Value = ImplicitGraph> {
    (0usize..3, 1usize..=6, 3usize..=7).prop_map(|(kind, a, b)| match kind {
        0 => ImplicitGraph::hypercube(a).unwrap(),
        // n = 5·b ∈ [15, 35], k = min(a, 2) keeps 2k < n
        1 => ImplicitGraph::new(ImplicitFamily::CyclePower {
            n: 5 * b,
            power: a.min(2),
        })
        .unwrap(),
        _ => ImplicitGraph::new(ImplicitFamily::Torus {
            rows: b,
            cols: a.max(3),
        })
        .unwrap(),
    })
}

/// Asserts that two views describe the same labelled graph, and that every
/// neighborhood-kernel operator agrees on them for the given subsets.
fn assert_views_equivalent<A: GraphView, B: GraphView>(
    a: &A,
    b: &B,
    sets: &[(VertexSet, VertexSet)],
) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.degree_sum(), b.degree_sum());
    assert_eq!(a.max_degree(), b.max_degree());
    assert_eq!(a.min_degree(), b.min_degree());
    for v in 0..a.num_vertices() {
        assert_eq!(a.degree(v), b.degree(v), "degree of {v}");
        let mut na: Vec<usize> = a.neighbors_iter(v).collect();
        let mut nb: Vec<usize> = b.neighbors_iter(v).collect();
        na.sort_unstable();
        nb.sort_unstable();
        assert_eq!(na, nb, "neighbors of {v}");
    }
    let mut scr_a = NeighborhoodScratch::new(0);
    let mut scr_b = NeighborhoodScratch::new(0);
    for (s, s_prime) in sets {
        assert_eq!(
            scr_a.neighborhood(a, s).to_vec(),
            scr_b.neighborhood(b, s).to_vec(),
            "Γ(S)"
        );
        assert_eq!(
            scr_a.external_neighborhood(a, s).to_vec(),
            scr_b.external_neighborhood(b, s).to_vec(),
            "Γ⁻(S)"
        );
        assert_eq!(
            scr_a.unique_neighborhood(a, s).to_vec(),
            scr_b.unique_neighborhood(b, s).to_vec(),
            "Γ¹(S)"
        );
        assert_eq!(
            scr_a.count_external_neighborhood(a, s),
            scr_b.count_external_neighborhood(b, s)
        );
        assert_eq!(
            scr_a.count_unique_neighborhood(a, s),
            scr_b.count_unique_neighborhood(b, s)
        );
        assert_eq!(
            scr_a
                .s_excluding_unique_neighborhood(a, s, s_prime)
                .to_vec(),
            scr_b
                .s_excluding_unique_neighborhood(b, s, s_prime)
                .to_vec(),
            "Γ¹_S(S')"
        );
        assert_eq!(
            scr_a.count_s_excluding_unique(a, s, s_prime),
            scr_b.count_s_excluding_unique(b, s, s_prime)
        );
    }
}

/// Builds `(S, S' ⊆ S)` pairs over a universe of `n` vertices from raw index
/// material.
fn subset_pairs(n: usize, raw: &[(Vec<usize>, Vec<usize>)]) -> Vec<(VertexSet, VertexSet)> {
    raw.iter()
        .map(|(s_raw, sp_raw)| {
            let s = VertexSet::from_iter(n, s_raw.iter().map(|v| v % n.max(1)));
            let members = s.to_vec();
            let s_prime = VertexSet::from_iter(
                n,
                sp_raw
                    .iter()
                    .filter(|_| !members.is_empty())
                    .map(|i| members[i % members.len()]),
            );
            (s, s_prime)
        })
        .filter(|(s, _)| !s.is_empty())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SubgraphView is indistinguishable from the materialized induced
    /// subgraph for every Γ operator and the raw view interface.
    #[test]
    fn subgraph_view_equals_materialized_induced_subgraph(
        edges in edge_list(18),
        keep_raw in prop::collection::vec(0usize..18, 1..18),
        raw_sets in prop::collection::vec(
            (prop::collection::vec(0usize..18, 1..10),
             prop::collection::vec(0usize..18, 0..10)),
            1..5),
    ) {
        let g = Graph::from_edges(18, edges).unwrap();
        let keep = SubsetIndex::new(VertexSet::from_iter(18, keep_raw));
        prop_assume!(!keep.set().is_empty());
        let view = SubgraphView::new(&g, &keep);
        let (mat, ids) = g.induced_subgraph(keep.set());
        prop_assert_eq!(ids, keep.members());
        let k = view.num_vertices();
        let sets = subset_pairs(k, &raw_sets);
        assert_views_equivalent(&view, &mat, &sets);
        // and materializing the view reproduces the induced subgraph exactly
        prop_assert_eq!(materialize(&view), mat);
    }

    /// ImplicitGraph is indistinguishable from its materialized family graph.
    #[test]
    fn implicit_graph_equals_materialized_family(
        implicit in implicit_family(),
        raw_sets in prop::collection::vec(
            (prop::collection::vec(0usize..64, 1..12),
             prop::collection::vec(0usize..64, 0..12)),
            1..5),
    ) {
        let mat = materialize(&implicit);
        let sets = subset_pairs(implicit.num_vertices(), &raw_sets);
        assert_views_equivalent(&implicit, &mat, &sets);
    }

    /// An induced view over an implicit base equals the doubly-materialized
    /// subgraph — the two backends compose.
    #[test]
    fn induced_view_of_implicit_base_composes(
        implicit in implicit_family(),
        keep_raw in prop::collection::vec(0usize..64, 1..16),
    ) {
        let n = implicit.num_vertices();
        let keep = SubsetIndex::new(VertexSet::from_iter(n, keep_raw.iter().map(|v| v % n)));
        prop_assume!(!keep.set().is_empty());
        let view = SubgraphView::new(&implicit, &keep);
        let (mat, _) = materialize(&implicit).induced_subgraph(keep.set());
        prop_assert_eq!(materialize(&view), mat);
    }
}
