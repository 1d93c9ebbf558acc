//! Degree classes.
//!
//! Theorem 1.1's key refinement over the classic decay argument is that the
//! gap between ordinary and wireless expansion is governed by *average*
//! degrees (`δ_S`, `δ_N` of Section 4.2) rather than the maximum degree `Δ`.
//! The degree-class solvers get there by bucketing the right side by degree,
//! which this module provides.

use crate::BipartiteGraph;

/// Buckets the right-side vertices of a bipartite graph by degree class
/// `[c^{i-1}, c^i)` for `i = 1, 2, …` — the partition used in Lemma A.5 and
/// in the dyadic (`c = 2`) argument of Lemma 4.2. Vertices of degree 0 are
/// skipped. Returns the vector of buckets (as right-vertex index lists).
pub fn degree_class_buckets(g: &BipartiteGraph, c: f64) -> Vec<Vec<usize>> {
    assert!(c > 1.0, "degree-class base must exceed 1, got {c}");
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    for w in 0..g.num_right() {
        let d = g.right_degree(w);
        if d == 0 {
            continue;
        }
        // class index i ≥ 1 such that c^{i-1} ≤ d < c^i
        let i = (d as f64).log(c).floor() as usize + 1;
        if buckets.len() < i {
            buckets.resize(i, Vec::new());
        }
        buckets[i - 1].push(w);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_class_buckets_dyadic() {
        // right degrees: 1, 2, 3, 4, 8
        let mut b = crate::BipartiteBuilder::new(8, 5);
        let degs = [1usize, 2, 3, 4, 8];
        for (w, &d) in degs.iter().enumerate() {
            for u in 0..d {
                b.add_edge(u, w).unwrap();
            }
        }
        let g = b.build();
        let buckets = degree_class_buckets(&g, 2.0);
        // classes: [1,2) -> {0}, [2,4) -> {1,2}, [4,8) -> {3}, [8,16) -> {4}
        assert_eq!(buckets[0], vec![0]);
        assert_eq!(buckets[1], vec![1, 2]);
        assert_eq!(buckets[2], vec![3]);
        assert_eq!(buckets[3], vec![4]);
    }

    #[test]
    fn degree_class_skips_isolated() {
        let g = BipartiteGraph::from_edges(1, 3, [(0, 0)]).unwrap();
        let buckets = degree_class_buckets(&g, 2.0);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn degree_class_rejects_bad_base() {
        let g = BipartiteGraph::from_edges(1, 1, [(0, 0)]).unwrap();
        degree_class_buckets(&g, 1.0);
    }
}
