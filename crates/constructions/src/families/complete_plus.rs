//! The `C⁺` motivating example from the paper's introduction.
//!
//! A complete graph on `k` vertices plus one extra source vertex `s₀`
//! connected to two clique vertices `x` and `y`. The graph is an excellent
//! ordinary expander, but after the first broadcast round the informed set
//! `{s₀, x, y}` has *no* unique neighbors — if all three transmit, every
//! clique vertex hears a collision. A subset (either `{x}` or `{y}`) covers
//! the whole remaining clique uniquely, which is precisely the relaxation
//! wireless expansion captures.

use wx_graph::{Graph, GraphBuilder, GraphError, Result, Vertex};

/// Checks the clique size [`complete_plus_graph`] accepts (`k ≥ 3`) and
/// returns the vertex count `k + 1`.
pub fn check_complete_plus(k: usize) -> Result<usize> {
    if k < 3 {
        return Err(GraphError::invalid(
            "C⁺ needs a clique of at least 3 vertices",
        ));
    }
    k.checked_add(1)
        .ok_or_else(|| GraphError::invalid(format!("C⁺ with a {k}-clique is too large")))
}

/// Builds `C⁺` with a `k`-clique and the source as vertex `k`.
/// Returns the graph and the source vertex id.
pub fn complete_plus_graph(k: usize) -> Result<(Graph, Vertex)> {
    let n = check_complete_plus(k)?;
    let mut b = GraphBuilder::new(n);
    for i in 0..k {
        for j in (i + 1)..k {
            b.add_edge(i, j)?;
        }
    }
    b.add_edge(k, 0)?;
    b.add_edge(k, 1)?;
    Ok((b.build(), k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::neighborhood::{s_excluding_unique_neighborhood, unique_neighborhood};
    use wx_graph::GraphView;

    #[test]
    fn a_clique_size_that_overflows_is_rejected() {
        let err = complete_plus_graph(usize::MAX).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn shape() {
        let (g, src) = complete_plus_graph(6).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(src, 6);
        assert_eq!(g.degree(src), 2);
        assert_eq!(g.degree(0), 6);
        assert_eq!(g.degree(2), 5);
    }

    #[test]
    fn informed_set_after_round_one_has_no_unique_neighbors() {
        let (g, src) = complete_plus_graph(8).unwrap();
        let informed = g.vertex_set([0, 1, src]);
        assert!(unique_neighborhood(&g, &informed).is_empty());
        // but the subset {0} uniquely covers the rest of the clique
        let sub = g.vertex_set([0]);
        assert_eq!(
            s_excluding_unique_neighborhood(&g, &informed, &sub).len(),
            6
        );
    }

    #[test]
    fn rejects_tiny_cliques() {
        assert!(complete_plus_graph(2).is_err());
    }
}
