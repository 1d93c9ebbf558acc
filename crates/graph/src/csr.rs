//! The core immutable undirected graph type in compressed-sparse-row form.

use crate::{GraphView, Result, Vertex, VertexSet};

/// An immutable undirected graph on vertices `0..n`, stored in compressed
/// sparse row (CSR) form.
///
/// Each undirected edge `{u, v}` appears in the adjacency list of both `u`
/// and `v`. Adjacency lists are sorted, enabling `O(log deg)` membership
/// tests via [`Graph::has_edge`]. Self-loops are not permitted; parallel
/// edges are collapsed at construction time by [`crate::GraphBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex sorted adjacency lists.
    neighbors: Vec<Vertex>,
    /// Number of undirected edges.
    num_edges: usize,
    /// Minimum degree, computed once at construction. The simulator and
    /// solver hot paths consult the degree extremes per call, so they must
    /// never rescan all vertices.
    min_degree: usize,
    /// Maximum degree `Δ`, computed once at construction.
    max_degree: usize,
}

impl Graph {
    /// Constructs a graph directly from an edge list over `n` vertices.
    ///
    /// Duplicate edges are collapsed and self-loops rejected. This is a
    /// convenience wrapper over [`crate::GraphBuilder`].
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (Vertex, Vertex)>) -> Result<Self> {
        let mut b = crate::GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Internal constructor used by the builder. `adj` must contain, for each
    /// vertex, a sorted, deduplicated adjacency list with no self-loops.
    pub(crate) fn from_sorted_adjacency(adj: Vec<Vec<Vertex>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        let num_edges = neighbors.len() / 2;
        let degrees = adj.iter().map(Vec::len);
        Graph {
            offsets,
            neighbors,
            num_edges,
            min_degree: degrees.clone().min().unwrap_or(0),
            max_degree: degrees.max().unwrap_or(0),
        }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
            min_degree: 0,
            max_degree: 0,
        }
    }

    // `num_vertices`, `num_edges` and `max_degree` stay inherent as well as
    // in `GraphView`: the benchmark harness (`wxbench/src/replay.rs`) calls
    // them on a `Graph` without the trait in scope.

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The maximum degree `Δ(G)` (0 for the empty graph). O(1): the value is
    /// computed at construction, because the radio simulator and the spokesman
    /// solvers consult it on their hot paths.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Iterates over each undirected edge exactly once as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The number of edges with both endpoints in `U`, i.e. `|E(U)|` from the
    /// arboricity definition in Section 2.1.
    pub fn edges_within(&self, u: &VertexSet) -> usize {
        u.iter()
            .map(|v| {
                self.neighbors(v)
                    .iter()
                    .filter(|&&w| w > v && u.contains(w))
                    .count()
            })
            .sum()
    }

    /// The induced subgraph on `U`, together with the mapping from new vertex
    /// indices `0..|U|` back to the original vertex ids.
    pub fn induced_subgraph(&self, u: &VertexSet) -> (Graph, Vec<Vertex>) {
        let vertices: Vec<Vertex> = u.to_vec();
        let mut index_of = vec![usize::MAX; self.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            index_of[v] = i;
        }
        let mut adj: Vec<Vec<Vertex>> = vec![Vec::new(); vertices.len()];
        for (i, &v) in vertices.iter().enumerate() {
            for &w in self.neighbors(v) {
                if u.contains(w) {
                    adj[i].push(index_of[w]);
                }
            }
            adj[i].sort_unstable();
            adj[i].dedup();
        }
        (Graph::from_sorted_adjacency(adj), vertices)
    }

    /// The raw CSR arrays `(offsets, neighbors)` — the exact layout the
    /// `.wxg` writer in [`crate::disk`] streams to disk.
    pub(crate) fn csr_parts(&self) -> (&[usize], &[Vertex]) {
        (&self.offsets, &self.neighbors)
    }
}

impl GraphView for Graph {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, Vertex>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    /// The degree of `v`.
    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    #[inline]
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        self.neighbors(v).iter().copied()
    }

    /// Binary search on `u`'s sorted list.
    fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    fn degree_sum(&self) -> usize {
        2 * self.num_edges
    }

    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    /// O(1), computed at construction like [`Graph::max_degree`].
    fn min_degree(&self) -> usize {
        self.min_degree
    }

    fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    fn memory_bytes(&self) -> usize {
        CSR_HEADER_BYTES
            + std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.neighbors.as_slice())
    }
}

/// Bytes a CSR [`Graph`] is charged on top of its two arrays. Reports carry
/// `graph.memory_bytes`, so this is a fixed figure rather than
/// `size_of::<Graph>()`, which moves with the struct layout; 80 bytes was
/// that size when the figure was first pinned.
pub(crate) const CSR_HEADER_BYTES: usize = 80;

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        // 0 - 1 - 2 - 3
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    /// The disjoint union of `a` and `b`; vertices of `b` are shifted by
    /// `a.num_vertices()`.
    fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
        let shift = a.num_vertices();
        let shifted = b.edges().map(|(u, v)| (u + shift, v + shift));
        Graph::from_edges(shift + b.num_vertices(), a.edges().chain(shifted)).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        assert!(!g.is_regular(2));
    }

    #[test]
    fn neighbors_sorted_and_has_edge() {
        let g = Graph::from_edges(5, [(4, 0), (4, 2), (4, 1), (0, 2)]).unwrap();
        assert_eq!(g.neighbors(4), &[0, 1, 2]);
        assert!(g.has_edge(0, 4));
        assert!(g.has_edge(4, 0));
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_in_and_edge_counts() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]).unwrap();
        let s = g.vertex_set([0, 1, 2]);
        let t = g.vertex_set([3, 4, 5]);
        assert_eq!(g.edges_within(&s), 3); // triangle 0-1, 0-2, 1-2
        assert_eq!(g.edges_within(&t), 2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let (h, map) = g.induced_subgraph(&g.vertex_set([0, 1, 2, 3]));
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 3); // path 0-1-2-3 survives; 5-0 and 3-4 cut
        assert_eq!(map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn disjoint_union_shifts_labels() {
        let a = path4();
        let b = Graph::from_edges(2, [(0, 1)]).unwrap();
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_vertices(), 6);
        assert_eq!(u.num_edges(), 4);
        assert!(u.has_edge(4, 5));
        assert!(!u.has_edge(3, 4));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn check_vertex_errors() {
        assert!(Graph::from_edges(4, [(0, 3)]).is_ok());
        assert!(matches!(
            Graph::from_edges(4, [(0, 4)]),
            Err(crate::GraphError::VertexOutOfRange { vertex: 4, n: 4 })
        ));
    }

    /// Scans the degrees afresh, bypassing the construction-time fields.
    fn fresh_extremes(g: &Graph) -> (usize, usize) {
        let degs: Vec<usize> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        (
            degs.iter().copied().min().unwrap_or(0),
            degs.iter().copied().max().unwrap_or(0),
        )
    }

    #[test]
    fn cached_degree_extremes_match_fresh_scan_after_disjoint_union() {
        // Regression: the extremes are stored per graph, so a derived graph
        // (disjoint_union rebuilds through the builder) must carry its own
        // correct extremes, not a stale copy of an operand's.
        let a = path4(); // degrees 1..2
        let b = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap(); // star, Δ = 4
        let u = disjoint_union(&a, &b);
        assert_eq!((u.min_degree(), u.max_degree()), fresh_extremes(&u));
        assert_eq!(u.max_degree(), 4);
        assert_eq!(u.min_degree(), 1);
        // and the operands' extremes are untouched
        assert_eq!((a.min_degree(), a.max_degree()), fresh_extremes(&a));
        assert_eq!((b.min_degree(), b.max_degree()), fresh_extremes(&b));
        // union with an isolated-vertex graph drops the minimum to zero
        let with_isolated = disjoint_union(&u, &Graph::empty(2));
        assert_eq!(with_isolated.min_degree(), 0);
        assert_eq!(
            (with_isolated.min_degree(), with_isolated.max_degree()),
            fresh_extremes(&with_isolated)
        );
    }
}
