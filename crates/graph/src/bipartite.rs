//! Explicit two-sided bipartite graphs `G_S = (S, N, E_S)`.
//!
//! Section 4.1 of the paper reduces every wireless-expansion question about a
//! set `S` in a general graph `G` to a bipartite graph whose left side is `S`
//! and whose right side is the external neighborhood `N = Γ⁻(S)`; edges
//! internal to `S` or to `N` are irrelevant to the expansion quantities and
//! are dropped. All spokesman-election algorithms (`wx-spokesman`) operate on
//! this representation, and all explicit constructions in Section 4.3 and
//! Appendix A are naturally bipartite.

use crate::scratch::NeighborhoodScratch;
use crate::{Graph, GraphError, GraphView, Result, Vertex, VertexSet};

/// An undirected bipartite graph with explicitly separated sides.
///
/// Left vertices are indexed `0..num_left()`, right vertices `0..num_right()`
/// — the two index spaces are independent. Adjacency is stored in CSR form
/// for both directions so that both `Γ(u)` for `u ∈ S` and `Γ(w, S)` for
/// `w ∈ N` are contiguous slices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BipartiteGraph {
    left_offsets: Vec<usize>,
    left_neighbors: Vec<Vertex>,
    right_offsets: Vec<usize>,
    right_neighbors: Vec<Vertex>,
    num_edges: usize,
}

impl BipartiteGraph {
    /// Constructs a bipartite graph from an edge list; `(u, w)` means left
    /// vertex `u` is adjacent to right vertex `w`.
    pub fn from_edges(
        num_left: usize,
        num_right: usize,
        edges: impl IntoIterator<Item = (Vertex, Vertex)>,
    ) -> Result<Self> {
        let mut b = BipartiteBuilder::new(num_left, num_right);
        for (u, w) in edges {
            b.add_edge(u, w)?;
        }
        Ok(b.build())
    }

    /// Number of vertices on the left side `S`.
    pub fn num_left(&self) -> usize {
        self.left_offsets.len() - 1
    }

    /// Number of vertices on the right side `N`.
    pub fn num_right(&self) -> usize {
        self.right_offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted right-side neighbors of left vertex `u`.
    #[inline]
    pub fn left_neighbors(&self, u: Vertex) -> &[Vertex] {
        &self.left_neighbors[self.left_offsets[u]..self.left_offsets[u + 1]]
    }

    /// Sorted left-side neighbors of right vertex `w`.
    #[inline]
    pub fn right_neighbors(&self, w: Vertex) -> &[Vertex] {
        &self.right_neighbors[self.right_offsets[w]..self.right_offsets[w + 1]]
    }

    /// Degree of left vertex `u`.
    #[inline]
    pub fn left_degree(&self, u: Vertex) -> usize {
        self.left_offsets[u + 1] - self.left_offsets[u]
    }

    /// Degree of right vertex `w`.
    #[inline]
    pub fn right_degree(&self, w: Vertex) -> usize {
        self.right_offsets[w + 1] - self.right_offsets[w]
    }

    /// `true` iff left vertex `u` is adjacent to right vertex `w`.
    pub fn has_edge(&self, u: Vertex, w: Vertex) -> bool {
        if u >= self.num_left() || w >= self.num_right() {
            return false;
        }
        self.left_neighbors(u).binary_search(&w).is_ok()
    }

    /// Maximum degree over left vertices (0 if the left side is empty).
    pub fn max_left_degree(&self) -> usize {
        (0..self.num_left())
            .map(|u| self.left_degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Maximum degree over right vertices (0 if the right side is empty).
    pub fn max_right_degree(&self) -> usize {
        (0..self.num_right())
            .map(|w| self.right_degree(w))
            .max()
            .unwrap_or(0)
    }

    /// Maximum degree over all vertices, the `Δ` of Section 2.1 restricted to
    /// the bipartite view.
    pub fn max_degree(&self) -> usize {
        self.max_left_degree().max(self.max_right_degree())
    }

    /// Average degree `δ_S` of the left side (Section 4.2): total edges
    /// divided by `|S|`. Returns 0.0 for an empty left side.
    pub fn average_left_degree(&self) -> f64 {
        if self.num_left() == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_left() as f64
        }
    }

    /// Average degree `δ_N` of the right side (Section 4.2): total edges
    /// divided by `|N|`. Returns 0.0 for an empty right side.
    pub fn average_right_degree(&self) -> f64 {
        if self.num_right() == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_right() as f64
        }
    }

    /// Iterates over all edges as `(left, right)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.num_left())
            .flat_map(move |u| self.left_neighbors(u).iter().copied().map(move |w| (u, w)))
    }

    /// The set of right-side vertices adjacent to at least one vertex of the
    /// left subset `s_prime` — the `S`-excluding neighborhood `Γ_S(S')`.
    pub fn neighborhood_of_left_subset(&self, s_prime: &VertexSet) -> VertexSet {
        let mut out = VertexSet::empty(self.num_right());
        for u in s_prime.iter() {
            for &w in self.left_neighbors(u) {
                out.insert(w);
            }
        }
        out
    }

    /// Number of right vertices with exactly one neighbor in `s_prime`: the
    /// size of the `S`-excluding unique neighborhood `Γ¹_S(S')` of
    /// Section 2.1.
    pub fn unique_coverage(&self, s_prime: &VertexSet) -> usize {
        self.unique_coverage_of_words(s_prime.as_words(), &mut vec![0; self.num_right()])
    }

    /// [`BipartiteGraph::unique_coverage`] of the left subset whose bitset
    /// words are `words` (laid out as [`VertexSet::as_words`] returns them),
    /// counted on a caller-provided array of one counter per right vertex,
    /// so that repeated scoring (the spokesman samplers score dozens of
    /// samples per solve) allocates nothing.
    ///
    /// The coverage is kept as the counters move: a right vertex going from
    /// 0 to 1 sampled neighbors adds one, going from 1 to 2 removes one.
    /// The update is branch-free: which of the two moves (or neither) a
    /// counter makes is unpredictable, and branching on it made the Random
    /// Decay solve about 1.6× slower on random_regular(4500, 8).
    /// `count` must be all zero on entry and is all zero again on return.
    /// It is cleared by one sweep of the right side: on the bipartite view
    /// of a 2250-vertex set in random_regular(4500, 8) (|N| ≈ 2240) that
    /// sweep is cheaper than a second pass over the subset's edges, at every
    /// sampling probability the spokesman solvers use.
    ///
    /// # Panics
    /// Panics if `count` is shorter than the right side or `words` names a
    /// vertex outside the left side.
    pub fn unique_coverage_of_words(&self, words: &[u64], count: &mut [u32]) -> usize {
        let count = &mut count[..self.num_right()];
        let mut coverage = 0usize;
        for_each_member(words, |u| {
            for &w in self.left_neighbors(u) {
                let c = count[w];
                coverage = coverage + usize::from(c == 0) - usize::from(c == 1);
                count[w] = c.saturating_add(1);
            }
        });
        count.fill(0);
        coverage
    }

    /// Restricts the graph to a subset of the left side and the subset of the
    /// right side it still reaches; returns the induced bipartite graph
    /// together with the original indices of the retained left and right
    /// vertices (in that order).
    pub fn restrict_left(&self, keep: &VertexSet) -> (BipartiteGraph, Vec<Vertex>, Vec<Vertex>) {
        let left_vertices: Vec<Vertex> = keep.to_vec();
        let mut right_used = VertexSet::empty(self.num_right());
        for &u in &left_vertices {
            for &w in self.left_neighbors(u) {
                right_used.insert(w);
            }
        }
        let right_vertices: Vec<Vertex> = right_used.to_vec();
        let mut right_index = vec![usize::MAX; self.num_right()];
        for (i, &w) in right_vertices.iter().enumerate() {
            right_index[w] = i;
        }
        let mut b = BipartiteBuilder::new(left_vertices.len(), right_vertices.len());
        for (i, &u) in left_vertices.iter().enumerate() {
            for &w in self.left_neighbors(u) {
                b.add_edge(i, right_index[w])
                    .expect("restricted edge in range");
            }
        }
        (b.build(), left_vertices, right_vertices)
    }

    /// Flattens the bipartite graph into a plain [`Graph`] on
    /// `num_left() + num_right()` vertices, left vertices first.
    pub fn to_graph(&self) -> Graph {
        let shift = self.num_left();
        let mut b = crate::GraphBuilder::new(self.num_left() + self.num_right());
        for (u, w) in self.edges() {
            b.add_edge(u, w + shift).expect("bipartite edges are valid");
        }
        b.build()
    }

    /// Extracts the bipartite view `G_S = (S, Γ⁻(S), e(S, Γ⁻(S)))` of a set
    /// `S` in a general graph, as prescribed in Section 4.1. Returns the
    /// bipartite graph plus the original vertex ids of the left (members of
    /// `S`, sorted) and right (members of `Γ⁻(S)`, sorted) sides.
    pub fn from_set_in_graph<G: GraphView + ?Sized>(
        g: &G,
        s: &VertexSet,
    ) -> (BipartiteGraph, Vec<Vertex>, Vec<Vertex>) {
        Self::from_set_in_graph_with(g, s, &mut NeighborhoodScratch::new(g.num_vertices()))
    }

    /// [`BipartiteGraph::from_set_in_graph`] against a caller-provided
    /// scratch: the external neighborhood `Γ⁻(S)` is resolved through the
    /// epoch-stamped kernel instead of a fresh bitset plus an O(n) index
    /// array, so repeated bipartite extractions (the wireless measure
    /// evaluates one per candidate set) only allocate the returned graph.
    pub fn from_set_in_graph_with<G: GraphView + ?Sized>(
        g: &G,
        s: &VertexSet,
        scratch: &mut NeighborhoodScratch,
    ) -> (BipartiteGraph, Vec<Vertex>, Vec<Vertex>) {
        let _span = wx_trace::span("graph.bipartite_view");
        let left_vertices: Vec<Vertex> = s.to_vec();
        let right_vertices: Vec<Vertex> = scratch.external_neighborhood_ranked(g, s).to_vec();
        let mut b = BipartiteBuilder::new(left_vertices.len(), right_vertices.len());
        for (i, &u) in left_vertices.iter().enumerate() {
            for w in g.neighbors_iter(u) {
                if !s.contains(w) {
                    b.add_edge(i, scratch.rank_of(w))
                        .expect("in range by construction");
                }
            }
        }
        (b.build(), left_vertices, right_vertices)
    }
}

/// Calls `visit` on the members of a bitset, in increasing order.
#[inline]
fn for_each_member(words: &[u64], mut visit: impl FnMut(Vertex)) {
    for (i, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(i * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Incremental builder for [`BipartiteGraph`]; collapses duplicate edges.
#[derive(Clone, Debug)]
pub struct BipartiteBuilder {
    num_left: usize,
    num_right: usize,
    left_adj: Vec<Vec<Vertex>>,
}

impl BipartiteBuilder {
    /// Creates a builder for a bipartite graph with the given side sizes.
    pub fn new(num_left: usize, num_right: usize) -> Self {
        BipartiteBuilder {
            num_left,
            num_right,
            left_adj: vec![Vec::new(); num_left],
        }
    }

    /// Adds an edge from left vertex `u` to right vertex `w`.
    pub fn add_edge(&mut self, u: Vertex, w: Vertex) -> Result<()> {
        if u >= self.num_left {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.num_left,
            });
        }
        if w >= self.num_right {
            return Err(GraphError::VertexOutOfRange {
                vertex: w,
                n: self.num_right,
            });
        }
        self.left_adj[u].push(w);
        Ok(())
    }

    /// Finalizes into an immutable [`BipartiteGraph`].
    pub fn build(mut self) -> BipartiteGraph {
        let mut right_adj: Vec<Vec<Vertex>> = vec![Vec::new(); self.num_right];
        for list in &mut self.left_adj {
            list.sort_unstable();
            list.dedup();
        }
        for (u, list) in self.left_adj.iter().enumerate() {
            for &w in list {
                right_adj[w].push(u);
            }
        }
        for list in &mut right_adj {
            list.sort_unstable();
        }
        let mut left_offsets = Vec::with_capacity(self.num_left + 1);
        let mut left_neighbors = Vec::new();
        left_offsets.push(0);
        for list in &self.left_adj {
            left_neighbors.extend_from_slice(list);
            left_offsets.push(left_neighbors.len());
        }
        let mut right_offsets = Vec::with_capacity(self.num_right + 1);
        let mut right_neighbors = Vec::new();
        right_offsets.push(0);
        for list in &right_adj {
            right_neighbors.extend_from_slice(list);
            right_offsets.push(right_neighbors.len());
        }
        let num_edges = left_neighbors.len();
        BipartiteGraph {
            left_offsets,
            left_neighbors,
            right_offsets,
            right_neighbors,
            num_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small instance: S = {0,1}, N = {0,1,2}; 0 -> {0,1}, 1 -> {1,2}.
    fn small() -> BipartiteGraph {
        BipartiteGraph::from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn degrees_and_counts() {
        let g = small();
        assert_eq!(g.num_left(), 2);
        assert_eq!(g.num_right(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.left_degree(0), 2);
        assert_eq!(g.right_degree(1), 2);
        assert_eq!(g.max_left_degree(), 2);
        assert_eq!(g.max_right_degree(), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_left_degree() - 2.0).abs() < 1e-12);
        assert!((g.average_right_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = BipartiteGraph::from_edges(1, 1, [(0, 0), (0, 0)]).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert!(BipartiteGraph::from_edges(1, 1, [(0, 1)]).is_err());
        assert!(BipartiteGraph::from_edges(1, 1, [(1, 0)]).is_err());
    }

    #[test]
    fn unique_neighborhood_matches_definition() {
        let g = small();
        let both = VertexSet::from_iter(2, [0, 1]);
        // right vertex 0 covered once (by 0), 1 covered twice, 2 covered once
        assert_eq!(g.unique_coverage(&both), 2);

        let only0 = VertexSet::from_iter(2, [0]);
        assert_eq!(g.unique_coverage(&only0), 2);

        let nothing = VertexSet::empty(2);
        assert_eq!(g.unique_coverage(&nothing), 0);
    }

    #[test]
    fn neighborhood_of_left_subset() {
        let g = small();
        let only1 = VertexSet::from_iter(2, [1]);
        assert_eq!(g.neighborhood_of_left_subset(&only1).to_vec(), vec![1, 2]);
    }

    #[test]
    fn to_graph_flattens() {
        let g = small().to_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 2)); // left 0 -- right 0 (shifted by 2)
        assert!(g.has_edge(1, 4)); // left 1 -- right 2
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn from_set_in_graph_drops_internal_edges() {
        // triangle 0-1-2 plus pendant 3 attached to 2
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let s = g.vertex_set([0, 1, 2]);
        let (bip, left, right) = BipartiteGraph::from_set_in_graph(&g, &s);
        assert_eq!(left, vec![0, 1, 2]);
        assert_eq!(right, vec![3]);
        assert_eq!(bip.num_edges(), 1); // only the edge 2-3 crosses
        assert_eq!(bip.left_degree(2), 1);
        assert_eq!(bip.left_degree(0), 0);
    }

    #[test]
    fn restrict_left_reindexes() {
        let g = small();
        let keep = VertexSet::from_iter(2, [1]);
        let (r, left, right) = g.restrict_left(&keep);
        assert_eq!(left, vec![1]);
        assert_eq!(right, vec![1, 2]);
        assert_eq!(r.num_left(), 1);
        assert_eq!(r.num_right(), 2);
        assert_eq!(r.num_edges(), 2);
        assert!(r.has_edge(0, 0) && r.has_edge(0, 1));
    }

    #[test]
    fn edges_iterator() {
        let g = small();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(1, 2)));
    }

    #[test]
    fn empty_sides_average_degree_is_zero() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(g.average_left_degree(), 0.0);
        assert_eq!(g.average_right_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }
}
