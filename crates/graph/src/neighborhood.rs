//! Neighborhood operators from Section 2.1 of the paper.
//!
//! For a graph `G = (V, E)`, a set `S ⊆ V` and a subset `S' ⊆ S`:
//!
//! * `Γ(S)`   — all neighbors of vertices of `S` (may intersect `S`);
//! * `Γ⁻(S)`  — external neighbors, `Γ(S) \ S`;
//! * `Γ¹(S)`  — vertices outside `S` with *exactly one* neighbor in `S`;
//! * `Γ¹_S(S')` — vertices outside `S` with exactly one neighbor in `S'`
//!   (the `S`-excluding unique neighborhood). Note `Γ¹(S) = Γ¹_S(S)`.
//!
//! These are the primitives from which ordinary, unique-neighbor and wireless
//! expansion are all defined.
//!
//! Every function here runs the epoch-stamped counting kernel of
//! [`crate::scratch`] once, against the calling thread's shared
//! [`crate::scratch::NeighborhoodScratch`]: the one-set form for callers
//! that evaluate a few sets. Hot loops that evaluate many sets hold a
//! scratch themselves (or use [`crate::scratch::with_thread_scratch`] once
//! around the whole loop) and call the kernel directly, whose `count_*` and
//! `*_expansion` methods return sizes without materializing sets at all.

use crate::scratch::with_thread_scratch;
use crate::{GraphView, VertexSet};

/// `Γ(S)`: the union of neighborhoods of the vertices of `S` (which may
/// include vertices of `S` itself).
pub fn neighborhood<G: GraphView + ?Sized>(g: &G, s: &VertexSet) -> VertexSet {
    with_thread_scratch(g.num_vertices(), |scr| scr.neighborhood(g, s))
}

/// `Γ⁻(S) = Γ(S) \ S`: the external neighborhood of `S`.
///
/// Each member of `Γ⁻(S)` is inserted exactly once (the kernel's epoch marks
/// skip vertices already seen), so dense sets no longer pay for re-inserting
/// the same neighbor per incident edge.
pub fn external_neighborhood<G: GraphView + ?Sized>(g: &G, s: &VertexSet) -> VertexSet {
    with_thread_scratch(g.num_vertices(), |scr| scr.external_neighborhood(g, s))
}

/// `Γ¹(S)`: vertices outside `S` adjacent to exactly one vertex of `S`.
pub fn unique_neighborhood<G: GraphView + ?Sized>(g: &G, s: &VertexSet) -> VertexSet {
    with_thread_scratch(g.num_vertices(), |scr| scr.unique_neighborhood(g, s))
}

/// `Γ¹_S(S')`: vertices outside `S` adjacent to exactly one vertex of `S'`.
///
/// `s_prime` must be a subset of `s`; this is debug-asserted.
pub fn s_excluding_unique_neighborhood<G: GraphView + ?Sized>(
    g: &G,
    s: &VertexSet,
    s_prime: &VertexSet,
) -> VertexSet {
    with_thread_scratch(g.num_vertices(), |scr| {
        scr.s_excluding_unique_neighborhood(g, s, s_prime)
    })
}

/// The ordinary expansion of a single set, `|Γ⁻(S)| / |S|` (Section 2.1).
/// Returns `f64::INFINITY` for the empty set, matching the convention that
/// the minimum over non-empty sets is what matters.
pub fn expansion_of_set<G: GraphView + ?Sized>(g: &G, s: &VertexSet) -> f64 {
    with_thread_scratch(g.num_vertices(), |scr| scr.external_expansion(g, s))
}

/// The unique-neighbor expansion of a single set, `|Γ¹(S)| / |S|`.
pub fn unique_expansion_of_set<G: GraphView + ?Sized>(g: &G, s: &VertexSet) -> f64 {
    with_thread_scratch(g.num_vertices(), |scr| scr.unique_expansion(g, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// The `C⁺` example of the introduction: a complete graph on `k` vertices
    /// plus an extra source `s0` (vertex index `k`) attached to vertices 0, 1.
    fn c_plus(k: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push((i, j));
            }
        }
        edges.push((k, 0));
        edges.push((k, 1));
        Graph::from_edges(k + 1, edges).unwrap()
    }

    #[test]
    fn gamma_of_vertex_and_set() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(neighborhood(&g, &g.vertex_set([2])).to_vec(), vec![1, 3]);
        let s = g.vertex_set([1, 2]);
        // Γ(S) includes internal neighbors 1, 2 as well as 0 and 3.
        assert_eq!(neighborhood(&g, &s).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(external_neighborhood(&g, &s).to_vec(), vec![0, 3]);
        // an arc of three vertices on C_10 has two external neighbors
        let c10 = Graph::from_edges(10, (0..10).map(|i| (i, (i + 1) % 10))).unwrap();
        let arc = c10.vertex_set([0, 1, 2]);
        assert!((expansion_of_set(&c10, &arc) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unique_neighborhood_on_path() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let s = g.vertex_set([1, 3]);
        // 0 has one neighbor in S (1), 2 has two (1 and 3), 4 has one (3).
        assert_eq!(unique_neighborhood(&g, &s).to_vec(), vec![0, 4]);
        assert_eq!(external_neighborhood(&g, &s).to_vec(), vec![0, 2, 4]);
    }

    #[test]
    fn c_plus_has_good_expansion_but_zero_unique_expansion() {
        // The motivating example: S = {x, y, s0} has unique expansion 0 in C⁺
        // because every vertex of the clique sees both x and y.
        let k = 6;
        let g = c_plus(k);
        let s = g.vertex_set([0, 1, k]);
        assert!(expansion_of_set(&g, &s) > 1.0);
        assert_eq!(unique_neighborhood(&g, &s).len(), 0);
        assert_eq!(unique_expansion_of_set(&g, &s), 0.0);

        // but a subset S' = {x} uniquely covers the rest of the clique:
        let s_prime = g.vertex_set([0]);
        let w = s_excluding_unique_neighborhood(&g, &s, &s_prime);
        assert_eq!(w.len(), k - 2);
    }

    #[test]
    fn s_excluding_operators_ignore_vertices_inside_s() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let s = g.vertex_set([0, 1, 2]);
        let s_prime = g.vertex_set([2]);
        // vertex 3 is the only vertex outside S; it neighbors 2 exactly once.
        assert_eq!(
            s_excluding_unique_neighborhood(&g, &s, &s_prime).to_vec(),
            vec![3]
        );
    }

    #[test]
    fn gamma1_of_s_equals_s_excluding_of_full_s() {
        let g = c_plus(5);
        let s = g.vertex_set([0, 1, 5]);
        assert_eq!(
            unique_neighborhood(&g, &s).to_vec(),
            s_excluding_unique_neighborhood(&g, &s, &s).to_vec()
        );
    }

    #[test]
    fn empty_set_conventions() {
        let g = c_plus(4);
        let empty = g.empty_vertex_set();
        assert!(expansion_of_set(&g, &empty).is_infinite());
        assert!(unique_expansion_of_set(&g, &empty).is_infinite());
        assert_eq!(neighborhood(&g, &empty).len(), 0);
    }

    #[test]
    fn expansion_of_single_vertex() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let s = g.vertex_set([0]);
        assert_eq!(expansion_of_set(&g, &s), 3.0);
        assert_eq!(unique_expansion_of_set(&g, &s), 3.0);
    }
}
