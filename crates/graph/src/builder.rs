//! Incremental graph construction.

use crate::{Graph, GraphError, Result, Vertex};

/// A mutable builder for [`Graph`].
///
/// The builder accepts edges in any order, silently collapses duplicates and
/// rejects self-loops (which are meaningless in the collision model: a
/// transmitting station never "receives" its own message).
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    adj: Vec<Vec<Vertex>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// The number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Duplicate insertions are allowed and collapsed at [`build`](Self::build)
    /// time. Returns an error for out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        Ok(())
    }

    /// Finalizes the builder into an immutable CSR [`Graph`], sorting and
    /// deduplicating every adjacency list.
    pub fn build(mut self) -> Graph {
        for list in &mut self.adj {
            list.sort_unstable();
            list.dedup();
        }
        Graph::from_sorted_adjacency(self.adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;

    impl GraphBuilder {
        /// Number of edge insertions so far (before deduplication).
        fn raw_edge_insertions(&self) -> usize {
            self.adj.iter().map(Vec::len).sum::<usize>() / 2
        }
    }

    #[test]
    fn duplicates_are_collapsed() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.raw_edge_insertions(), 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        ));
        assert!(matches!(
            b.add_edge(9, 0),
            Err(GraphError::VertexOutOfRange { vertex: 9, n: 3 })
        ));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }
}
