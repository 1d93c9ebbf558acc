//! The Boolean hypercube `Q_d`.
//!
//! `Q_d` has `2^d` vertices (bit strings of length `d`), with edges between
//! strings at Hamming distance 1. It is `d`-regular, bipartite, has
//! vertex-expansion `Θ(1/√d)` for half-sized sets (Harper's theorem), and is
//! a convenient "medium arboricity" test case between constant-degree
//! expanders and the dense core-graph instances.

use wx_graph::{Graph, GraphBuilder, GraphError, Result};

/// Checks the dimension [`hypercube_graph`] accepts (`d ≤ 26`, to keep the
/// materialized CSR's memory sane) and returns the vertex count `2^d`.
pub fn check_hypercube(d: usize) -> Result<usize> {
    if d > 26 {
        return Err(GraphError::invalid(format!(
            "hypercube dimension {d} too large (max 26)"
        )));
    }
    Ok(1usize << d)
}

/// Builds the `d`-dimensional hypercube.
pub fn hypercube_graph(d: usize) -> Result<Graph> {
    let n = check_hypercube(d)?;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u)?;
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::GraphView;

    #[test]
    fn sizes_and_regularity() {
        for d in [0usize, 1, 2, 3, 5, 8] {
            let g = hypercube_graph(d).unwrap();
            assert_eq!(g.num_vertices(), 1 << d);
            assert_eq!(g.num_edges(), d * (1 << d) / 2);
            assert!(g.is_regular(d));
        }
    }

    #[test]
    fn q3_is_the_cube() {
        let g = hypercube_graph(3).unwrap();
        assert!(g.has_edge(0b000, 0b001));
        assert!(g.has_edge(0b000, 0b100));
        assert!(!g.has_edge(0b000, 0b011));
        assert_eq!(wx_graph::traversal::diameter(&g), Some(3));
    }

    #[test]
    fn hypercube_is_connected_and_bipartite() {
        let g = hypercube_graph(6).unwrap();
        assert!(wx_graph::traversal::is_connected(&g));
        // bipartite: every edge flips exactly one bit, so joins the two
        // popcount parities
        assert!(g.edges().all(|(u, v)| (u ^ v).count_ones() == 1));
    }

    #[test]
    fn subcube_expansion_matches_harper_intuition() {
        // A (d−1)-dimensional subcube has exactly 2^{d−1} external neighbors:
        // expansion exactly 1 for the half-cube.
        let d = 6;
        let g = hypercube_graph(d).unwrap();
        let half = g.vertex_set(0..(1usize << (d - 1)));
        let exp = wx_graph::neighborhood::expansion_of_set(&g, &half);
        assert!((exp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_limit() {
        assert!(hypercube_graph(27).is_err());
    }
}
