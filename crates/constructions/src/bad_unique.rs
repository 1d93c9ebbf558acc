//! The Lemma 3.3 "bad unique expander" gadget (Figure 1).
//!
//! For parameters `Δ/2 ≤ β ≤ Δ` the gadget is a bipartite graph
//! `G_bad = (S, N, E)` where `S = {v_1, …, v_s}` sits on an implicit cycle,
//! every `v_i` has exactly `Δ` neighbors in `N`, and consecutive vertices
//! `v_i, v_{i+1}` share exactly `Δ − β` neighbors. Consequently:
//!
//! * the ordinary (one-sided) expansion from `S` to `N` is `β`;
//! * every `v_i` has only `2β − Δ` *private* neighbors, so the
//!   unique-neighbor expansion of the full set `S` is exactly `2β − Δ`
//!   (which is 0 when `β = Δ/2`);
//! * the wireless expansion stays at least `max{2β − Δ, Δ/2}` — picking every
//!   other vertex of the cycle recovers `Δ/2` (Remark 1 after Lemma 3.3).
//!
//! Concretely we lay `N` out as `s·β` vertices on a cycle of `β`-blocks and
//! give `v_i` the window of `Δ` consecutive vertices starting at `i·β`.

use wx_graph::{BipartiteGraph, GraphError, Result, VertexSet};

/// The Lemma 3.3 gadget together with its parameters.
#[derive(Clone, Debug)]
pub struct BadUniqueExpander {
    /// Number of left (set-side) vertices `s`.
    pub s: usize,
    /// Left degree `Δ`.
    pub delta: usize,
    /// Target expansion `β` (block stride), with `Δ/2 ≤ β ≤ Δ`.
    pub beta: usize,
    /// The bipartite gadget itself.
    pub graph: BipartiteGraph,
}

impl BadUniqueExpander {
    /// Builds the gadget.
    ///
    /// Requirements: `s ≥ 2`, `1 ≤ β ≤ Δ`, `Δ/2 ≤ β` (so the "private"
    /// count `2β − Δ` is non-negative) and `Δ ≤ (s−1)·β` (so a window never
    /// wraps far enough to overlap vertices other than its two cycle
    /// neighbors).
    pub fn new(s: usize, delta: usize, beta: usize) -> Result<Self> {
        if s < 2 {
            return Err(GraphError::invalid("bad-unique gadget needs s ≥ 2"));
        }
        if beta == 0 || beta > delta {
            return Err(GraphError::invalid(format!(
                "need 1 ≤ β ≤ Δ, got β = {beta}, Δ = {delta}"
            )));
        }
        if 2 * beta < delta {
            return Err(GraphError::invalid(format!(
                "Lemma 3.3 needs β ≥ Δ/2, got β = {beta}, Δ = {delta}"
            )));
        }
        if delta > (s - 1) * beta {
            return Err(GraphError::invalid(format!(
                "need Δ ≤ (s−1)·β so windows only overlap adjacent vertices; got Δ = {delta}, s = {s}, β = {beta}"
            )));
        }
        let num_right = s * beta;
        let mut b = wx_graph::BipartiteBuilder::new(s, num_right);
        for i in 0..s {
            for k in 0..delta {
                let w = (i * beta + k) % num_right;
                b.add_edge(i, w).expect("in range by construction");
            }
        }
        Ok(BadUniqueExpander {
            s,
            delta,
            beta,
            graph: b.build(),
        })
    }

    /// The unique-neighbor expansion of the full set `S`, which Lemma 3.3
    /// shows equals `2β − Δ`.
    pub fn unique_expansion_of_full_set(&self) -> f64 {
        let full = VertexSet::full(self.s);
        self.graph.unique_coverage(&full) as f64 / self.s as f64
    }

    /// The wireless-expansion certificate from Remark 1: taking every other
    /// vertex of the cycle gives `⌊s/2⌋·Δ` uniquely covered vertices as long
    /// as the alternation never places two chosen vertices adjacently, i.e.
    /// coverage per chosen vertex is `Δ`.
    pub fn alternating_subset(&self) -> VertexSet {
        // For odd s the last and first chosen vertices would be cycle
        // neighbors (v_{s-1} and v_0); dropping the last keeps the subset
        // independent on the cycle.
        let take = self.s / 2;
        VertexSet::from_iter(self.s, (0..take).map(|i| 2 * i))
    }

    /// The wireless-expansion value certified by [`Self::alternating_subset`].
    pub fn alternating_certificate(&self) -> f64 {
        let subset = self.alternating_subset();
        self.graph.unique_coverage(&subset) as f64 / self.s as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_matches_lemma_parameters() {
        let g = BadUniqueExpander::new(8, 6, 4).unwrap();
        assert_eq!(g.graph.num_left(), 8);
        assert_eq!(g.graph.num_right(), 32);
        // every left vertex has degree Δ
        for u in 0..8 {
            assert_eq!(g.graph.left_degree(u), 6);
        }
        // consecutive vertices share exactly Δ − β = 2 neighbors
        for i in 0..8 {
            let a: std::collections::HashSet<_> =
                g.graph.left_neighbors(i).iter().copied().collect();
            let b: std::collections::HashSet<_> = g
                .graph
                .left_neighbors((i + 1) % 8)
                .iter()
                .copied()
                .collect();
            assert_eq!(a.intersection(&b).count(), 2, "pair ({i}, {})", (i + 1) % 8);
        }
        // non-consecutive vertices share nothing
        let a: std::collections::HashSet<_> = g.graph.left_neighbors(0).iter().copied().collect();
        let c: std::collections::HashSet<_> = g.graph.left_neighbors(2).iter().copied().collect();
        assert_eq!(a.intersection(&c).count(), 0);
    }

    #[test]
    fn unique_expansion_equals_two_beta_minus_delta() {
        for (s, delta, beta) in [(8usize, 6usize, 4usize), (10, 8, 5), (6, 4, 2), (12, 7, 4)] {
            let g = BadUniqueExpander::new(s, delta, beta).unwrap();
            let expected = (2 * beta - delta) as f64;
            assert!(
                (g.unique_expansion_of_full_set() - expected).abs() < 1e-12,
                "(s={s}, Δ={delta}, β={beta}): got {}",
                g.unique_expansion_of_full_set()
            );
        }
    }

    #[test]
    fn unique_expansion_vanishes_at_beta_half_delta() {
        let g = BadUniqueExpander::new(10, 6, 3).unwrap();
        assert_eq!(g.unique_expansion_of_full_set(), 0.0);
        // ... but the wireless certificate is still ≈ Δ/2 per Remark 1.
        let cert = g.alternating_certificate();
        assert!(cert >= 6.0 / 2.0 * 0.99 - 0.5, "certificate {cert}");
    }

    #[test]
    fn alternating_certificate_approaches_half_delta() {
        let g = BadUniqueExpander::new(64, 8, 4).unwrap();
        // ⌊s/2⌋ chosen vertices, each with all Δ neighbors unique:
        // coverage = 32·8 = 256, divided by s = 64 gives 4 = Δ/2.
        let cert = g.alternating_certificate();
        assert!((cert - 4.0).abs() < 1e-12, "certificate {cert}");
        // the alternating subset really is pairwise non-adjacent on the cycle
        let subset = g.alternating_subset();
        let chosen: Vec<usize> = subset.to_vec();
        for w in chosen.windows(2) {
            assert!(w[1] - w[0] >= 2);
        }
    }

    #[test]
    fn ordinary_expansion_of_full_set_is_beta() {
        let g = BadUniqueExpander::new(8, 6, 4).unwrap();
        let full = VertexSet::full(8);
        let covered = g.graph.neighborhood_of_left_subset(&full).len();
        assert_eq!(covered, 8 * 4); // |N| = s·β, all of it reachable
        assert!((covered as f64 / 8.0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn parameter_validation() {
        assert!(BadUniqueExpander::new(1, 4, 3).is_err());
        assert!(BadUniqueExpander::new(8, 4, 0).is_err());
        assert!(BadUniqueExpander::new(8, 4, 5).is_err());
        assert!(BadUniqueExpander::new(8, 9, 4).is_err()); // β < Δ/2
        assert!(BadUniqueExpander::new(2, 8, 4).is_err()); // Δ > (s−1)β
    }

    #[test]
    fn exact_spokesman_on_small_gadget_matches_remark() {
        // On a small instance the exact wireless expansion of the full set S
        // should be max{2β − Δ, Δ/2} (Remark 1), here max{2, 3} = 3... but the
        // remark's Δ/2 term is an asymptotic statement; on tiny cycles the
        // boundary effects help, so we only check the certificate is at least
        // that value and at most β.
        let g = BadUniqueExpander::new(6, 6, 4).unwrap();
        let exact = wx_spokesman::ExactSolver::optimum(&g.graph).0 as f64 / 6.0;
        assert!(exact + 1e-12 >= (2.0f64 * 4.0 - 6.0).max(3.0));
        assert!(exact <= 4.0 + 1e-12);
    }
}
