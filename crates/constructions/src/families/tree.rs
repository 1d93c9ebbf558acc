//! Trees — the arboricity-1 extreme of the low-arboricity family.

use rand::Rng;
use wx_graph::random::rng_from_seed;
use wx_graph::{Graph, GraphBuilder, GraphError, Result};

/// Checks the parameters [`complete_k_ary_tree`] accepts (both positive, at
/// most 4M vertices) and returns the vertex count
/// `1 + k + k² + … + k^{levels−1}`.
pub fn check_k_ary_tree(k: usize, levels: usize) -> Result<usize> {
    if k == 0 || levels == 0 {
        return Err(GraphError::invalid(
            "arity and level count must be positive",
        ));
    }
    // number of vertices: 1 + k + k² + … + k^{levels−1}
    let mut n = 0usize;
    let mut layer = 1usize;
    for _ in 0..levels {
        n = n
            .checked_add(layer)
            .ok_or_else(|| GraphError::invalid("tree too large"))?;
        layer = layer
            .checked_mul(k)
            .ok_or_else(|| GraphError::invalid("tree too large"))?;
        if n > 4_000_000 {
            return Err(GraphError::invalid("tree too large (over 4M vertices)"));
        }
    }
    Ok(n)
}

/// Builds the complete `k`-ary tree with the given number of levels
/// (`levels = 1` is a single root). Vertices are numbered in BFS order.
pub fn complete_k_ary_tree(k: usize, levels: usize) -> Result<Graph> {
    let n = check_k_ary_tree(k, levels)?;
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = (v - 1) / k;
        b.add_edge(v, parent)?;
    }
    Ok(b.build())
}

/// Checks the vertex count [`random_tree`] accepts (at least one) and
/// returns it.
pub fn check_random_tree(n: usize) -> Result<usize> {
    if n == 0 {
        return Err(GraphError::invalid("tree needs at least one vertex"));
    }
    Ok(n)
}

/// Builds a random tree on `n` vertices: vertex `v ≥ 1` attaches to a
/// uniformly random earlier vertex (a random recursive tree).
pub fn random_tree(n: usize, seed: u64) -> Result<Graph> {
    check_random_tree(n)?;
    let mut rng = rng_from_seed(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        b.add_edge(v, parent)?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::arboricity::exact_arboricity_small;
    use wx_graph::traversal::is_connected;
    use wx_graph::GraphView;

    #[test]
    fn complete_binary_tree_shape() {
        let g = complete_k_ary_tree(2, 4).unwrap();
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 14);
        assert!(is_connected(&g));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(14), 1);
    }

    #[test]
    fn ternary_tree_shape() {
        let g = complete_k_ary_tree(3, 3).unwrap();
        assert_eq!(g.num_vertices(), 1 + 3 + 9);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn trees_have_arboricity_one() {
        let g = complete_k_ary_tree(2, 4).unwrap();
        assert_eq!(exact_arboricity_small(&g), 1);
        let r = random_tree(18, 3).unwrap();
        assert_eq!(exact_arboricity_small(&r), 1);
    }

    #[test]
    fn random_tree_is_connected_and_acyclic() {
        let g = random_tree(200, 9).unwrap();
        assert!(is_connected(&g));
        assert_eq!(g.num_edges(), 199);
    }

    #[test]
    fn random_tree_deterministic_per_seed() {
        assert_eq!(random_tree(50, 1).unwrap(), random_tree(50, 1).unwrap());
        assert_ne!(random_tree(50, 1).unwrap(), random_tree(50, 2).unwrap());
    }

    #[test]
    fn degenerate_parameters() {
        assert!(complete_k_ary_tree(0, 2).is_err());
        assert!(complete_k_ary_tree(2, 0).is_err());
        assert!(random_tree(0, 0).is_err());
        assert!(random_tree(1, 0).is_ok());
    }
}
