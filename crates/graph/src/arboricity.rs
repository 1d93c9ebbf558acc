//! Arboricity and maximum-average-degree estimation.
//!
//! Section 2.1 defines the arboricity as
//! `η(G) = max_{U ⊆ V} ⌈|E(U)| / (|U| − 1)⌉`, which is within a factor two of
//! the maximum average degree over induced subgraphs. The paper's corollary
//! for low-arboricity graphs (planar graphs, graphs excluding a fixed minor)
//! says the wireless expansion matches the ordinary expansion up to a
//! constant factor; experiment E9 measures this, so we need a usable
//! arboricity estimate.
//!
//! Exact arboricity needs matroid-union / flow machinery; instead we provide:
//!
//! * [`degeneracy`] — the exact graph degeneracy via the standard
//!   min-degree peeling order. Degeneracy `d` sandwiches arboricity:
//!   `η ≤ d ≤ 2η − 1`, so it is a 2-approximation and is what the paper's
//!   "average degree of the densest subgraph" intuition measures.
//! * [`max_average_degree_lower_bound`] — the densest prefix of the peeling
//!   order, a lower bound on the maximum average degree.
//! * [`arboricity_bounds`] — the sandwich `⌈mad/2⌉ ≤ η ≤ degeneracy`.
//! * [`exact_arboricity_small`] — exact value by enumerating all induced
//!   subgraphs, for graphs with at most ~20 vertices (used in tests to
//!   validate the estimators).

use crate::{Graph, GraphView, VertexSet};

/// Lower/upper bounds on the arboricity, plus the quantities they came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArboricityBounds {
    /// The graph degeneracy (upper bound on arboricity).
    pub degeneracy: usize,
    /// A lower bound on the maximum average degree over induced subgraphs.
    pub max_average_degree: f64,
    /// Lower bound on the arboricity: `⌈mad/2⌉` (and at least 1 if the graph
    /// has an edge).
    pub lower: usize,
    /// Upper bound on the arboricity: the degeneracy.
    pub upper: usize,
}

/// Computes the degeneracy of the graph and the peeling order realizing it.
///
/// The degeneracy is the smallest `d` such that every induced subgraph has a
/// vertex of degree at most `d`; it upper-bounds the arboricity and is
/// computed by repeatedly removing a minimum-degree vertex (bucket queue,
/// `O(n + m)`).
pub fn degeneracy(g: &Graph) -> (usize, Vec<usize>) {
    let n = g.num_vertices();
    if n == 0 {
        return (0, Vec::new());
    }
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let maxdeg = *deg.iter().max().unwrap_or(&0);
    // bucket[d] = stack of vertices currently of degree d
    let mut bucket: Vec<Vec<usize>> = vec![Vec::new(); maxdeg + 1];
    for v in 0..n {
        bucket[deg[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // find the non-empty bucket with smallest degree
        while cursor > 0 && !bucket[cursor - 1].is_empty() {
            cursor -= 1;
        }
        let v = loop {
            while cursor <= maxdeg && bucket[cursor].is_empty() {
                cursor += 1;
            }
            let candidate = bucket[cursor].pop().expect("bucket non-empty");
            if !removed[candidate] && deg[candidate] == cursor {
                break candidate;
            }
            // stale entry; skip (vertex was moved to another bucket or removed)
            if bucket[cursor].is_empty() && cursor <= maxdeg {
                continue;
            }
        };
        removed[v] = true;
        degeneracy = degeneracy.max(deg[v]);
        order.push(v);
        for &u in g.neighbors(v) {
            if !removed[u] {
                deg[u] -= 1;
                bucket[deg[u]].push(u);
                if deg[u] < cursor {
                    cursor = deg[u];
                }
            }
        }
    }
    (degeneracy, order)
}

/// A lower bound on the maximum average degree over induced subgraphs,
/// obtained by scanning suffixes of the degeneracy peeling order (the classic
/// "peel and keep the densest remaining subgraph" 2-approximation for the
/// densest subgraph problem).
pub fn max_average_degree_lower_bound(g: &Graph) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let (_, order) = degeneracy(g);
    // Process the peeling order in reverse: maintain the set of vertices not
    // yet peeled and count internal edges incrementally.
    let mut in_set = vec![false; n];
    let mut edges = 0usize;
    let mut best = 0.0f64;
    let mut size = 0usize;
    for &v in order.iter().rev() {
        edges += g.neighbors(v).iter().filter(|&&u| in_set[u]).count();
        in_set[v] = true;
        size += 1;
        if size > 0 {
            best = best.max(2.0 * edges as f64 / size as f64);
        }
    }
    best
}

/// Arboricity bounds from the degeneracy sandwich.
pub fn arboricity_bounds(g: &Graph) -> ArboricityBounds {
    let (d, _) = degeneracy(g);
    let mad = max_average_degree_lower_bound(g);
    let lower_from_mad = (mad / 2.0).ceil() as usize;
    let lower = if g.num_edges() > 0 {
        lower_from_mad.max(1)
    } else {
        0
    };
    ArboricityBounds {
        degeneracy: d,
        max_average_degree: mad,
        lower,
        upper: d.max(lower),
    }
}

/// Exact arboricity by brute force over all induced subgraphs with at least
/// two vertices. Exponential; intended for validation on graphs with at most
/// ~20 vertices.
///
/// # Panics
/// Panics if the graph has more than 22 vertices.
pub fn exact_arboricity_small(g: &Graph) -> usize {
    let n = g.num_vertices();
    assert!(n <= 22, "exact arboricity limited to 22 vertices, got {n}");
    if g.num_edges() == 0 {
        return 0;
    }
    let mut best = 1usize;
    for mask in 1u32..(1u32 << n) {
        let size = mask.count_ones() as usize;
        if size < 2 {
            continue;
        }
        let set = VertexSet::from_iter(n, (0..n).filter(|&v| (mask >> v) & 1 == 1));
        let e = g.edges_within(&set);
        let val = e.div_ceil(size - 1);
        best = best.max(val);
    }
    best
}

/// The paper's observation (Section 1.2 / 2.1) that for any `(α, β)`-expander
/// with maximum degree `Δ`, the arboricity is at least
/// `min{Δ/β, Δ·β}` — this helper evaluates that lower bound for comparison in
/// experiment E9.
pub fn paper_arboricity_lower_bound(max_degree: usize, beta: f64) -> f64 {
    if beta <= 0.0 {
        return 0.0;
    }
    let d = max_degree as f64;
    (d / beta).min(d * beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn complete(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(i, j).unwrap();
            }
        }
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    #[test]
    fn degeneracy_of_standard_graphs() {
        assert_eq!(degeneracy(&complete(5)).0, 4);
        assert_eq!(degeneracy(&cycle(7)).0, 2);
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(degeneracy(&path).0, 1);
        assert_eq!(degeneracy(&Graph::empty(3)).0, 0);
        assert_eq!(degeneracy(&Graph::empty(0)).0, 0);
    }

    #[test]
    fn peeling_order_covers_all_vertices() {
        let g = complete(6);
        let (_, order) = degeneracy(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn mad_of_complete_graph() {
        let g = complete(6);
        let mad = max_average_degree_lower_bound(&g);
        assert!((mad - 5.0).abs() < 1e-9, "mad = {mad}");
    }

    #[test]
    fn arboricity_bounds_sandwich_exact_value() {
        // Known arboricities: tree -> 1, cycle -> 1 (a single cycle needs 1
        // forest? no: a cycle needs 2 forests? Nash-Williams: ceil(m/(n-1)) =
        // ceil(n/(n-1)) = 2 for a cycle... but a cycle decomposes into a path
        // plus one edge, i.e. 2 forests). K4 -> 2, K5 -> 3.
        for (g, _name) in [
            (complete(4), "K4"),
            (complete(5), "K5"),
            (cycle(6), "C6"),
            (
                Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap(),
                "P5",
            ),
        ] {
            let exact = exact_arboricity_small(&g);
            let bounds = arboricity_bounds(&g);
            assert!(
                bounds.lower <= exact && exact <= bounds.upper,
                "exact {exact} outside [{}, {}]",
                bounds.lower,
                bounds.upper
            );
        }
        assert_eq!(exact_arboricity_small(&complete(4)), 2);
        assert_eq!(exact_arboricity_small(&complete(5)), 3);
        assert_eq!(
            exact_arboricity_small(&Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap()),
            1
        );
        assert_eq!(exact_arboricity_small(&cycle(6)), 2);
    }

    #[test]
    fn exact_arboricity_of_edgeless_graph_is_zero() {
        assert_eq!(exact_arboricity_small(&Graph::empty(4)), 0);
    }

    #[test]
    fn planar_grid_has_small_degeneracy() {
        // 5x5 grid: degeneracy 2, arboricity <= 3 (planar)
        let k = 5usize;
        let mut b = GraphBuilder::new(k * k);
        for r in 0..k {
            for c in 0..k {
                let v = r * k + c;
                if c + 1 < k {
                    b.add_edge(v, v + 1).unwrap();
                }
                if r + 1 < k {
                    b.add_edge(v, v + k).unwrap();
                }
            }
        }
        let g = b.build();
        let bounds = arboricity_bounds(&g);
        assert!(bounds.degeneracy <= 2);
        assert!(bounds.upper <= 3);
    }

    #[test]
    fn paper_lower_bound_behaviour() {
        assert_eq!(paper_arboricity_lower_bound(10, 0.0), 0.0);
        // Δ = 16, β = 4: min(4, 64) = 4
        assert!((paper_arboricity_lower_bound(16, 4.0) - 4.0).abs() < 1e-12);
        // Δ = 16, β = 0.25: min(64, 4) = 4
        assert!((paper_arboricity_lower_bound(16, 0.25) - 4.0).abs() < 1e-12);
    }
}
