//! The Margulis–Gabber–Galil expander.
//!
//! Vertices are the points of `Z_m × Z_m`; each vertex `(x, y)` is connected
//! to the eight points
//! `(x ± 2y, y)`, `(x ± (2y+1), y)`, `(x, y ± 2x)`, `(x, y ± (2x+1))`
//! (all mod `m`). The resulting multigraph is 8-regular with second
//! eigenvalue bounded away from 8 — one of the simplest fully explicit
//! constant-degree expander families, standing in for the "known
//! constructions of explicit expanders" invoked after Corollary 4.11.
//! We collapse parallel edges and drop self-loops, so small `m` instances
//! have degree slightly below 8.

use wx_graph::{Graph, GraphBuilder, GraphError, Result};

/// Checks the side [`margulis_graph`] accepts (`2 ≤ m ≤ 4096`) and returns
/// the vertex count `m²`.
pub fn check_margulis(m: usize) -> Result<usize> {
    if m < 2 {
        return Err(GraphError::invalid("Margulis construction needs m ≥ 2"));
    }
    if m > 4096 {
        return Err(GraphError::invalid(format!(
            "Margulis grid side {m} too large (max 4096)"
        )));
    }
    Ok(m * m)
}

/// Builds the Margulis–Gabber–Galil graph on `m²` vertices.
pub fn margulis_graph(m: usize) -> Result<Graph> {
    let n = check_margulis(m)?;
    let idx = |x: usize, y: usize| -> usize { x * m + y };
    let mut b = GraphBuilder::new(n);
    for x in 0..m {
        for y in 0..m {
            let v = idx(x, y);
            let targets = [
                idx((x + 2 * y) % m, y),
                idx((x + m - (2 * y) % m) % m, y),
                idx((x + 2 * y + 1) % m, y),
                idx((x + m - (2 * y + 1) % m) % m, y),
                idx(x, (y + 2 * x) % m),
                idx(x, (y + m - (2 * x) % m) % m),
                idx(x, (y + 2 * x + 1) % m),
                idx(x, (y + m - (2 * x + 1) % m) % m),
            ];
            for u in targets {
                if u != v {
                    b.add_edge(v, u)?;
                }
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
    fn sizes_and_degree_bound() {
        for m in [3usize, 5, 8, 16] {
            let g = margulis_graph(m).unwrap();
            assert_eq!(g.num_vertices(), m * m);
            assert!(g.max_degree() <= 16, "degree {}", g.max_degree());
            assert!(g.max_degree() >= 4);
        }
    }

    #[test]
    fn connected_for_reasonable_sizes() {
        for m in [4usize, 7, 12] {
            let g = margulis_graph(m).unwrap();
            assert!(wx_graph::traversal::is_connected(&g), "m = {m}");
        }
    }

    #[test]
    fn has_spectral_gap() {
        let g = margulis_graph(12).unwrap();
        let (l1, l2) = wx_expansion::spectral::top_two_eigenvalues(&g, 0);
        // any fixed constant gap will do for a sanity check
        assert!(l2 < l1 - 0.5, "λ₁ = {l1}, λ₂ = {l2}");
    }

    #[test]
    fn halves_expand() {
        let g = margulis_graph(10).unwrap();
        let s = g.vertex_set(0..50);
        assert!(wx_graph::neighborhood::expansion_of_set(&g, &s) > 0.15);
    }

    #[test]
    fn rejects_degenerate_sizes() {
        assert!(margulis_graph(1).is_err());
        assert!(margulis_graph(5000).is_err());
    }
}
