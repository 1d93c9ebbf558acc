//! Brute-force optimal spokesman election.
//!
//! Enumerates every subset `S' ⊆ S` and keeps the one with the largest
//! unique coverage. Exponential in `|S|`; used as ground truth in tests and
//! in the small-instance columns of experiments E7/E10, and as the exact
//! wireless-expansion oracle in `wx-expansion`.

use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use wx_graph::{BipartiteGraph, VertexSet};

/// Exhaustive optimal solver. Panics if the left side has more than
/// [`ExactSolver::MAX_LEFT`] vertices.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactSolver;

impl ExactSolver {
    /// The largest left side the exact solver will accept.
    pub const MAX_LEFT: usize = 25;

    /// Returns the optimal unique coverage achievable on `g`, together with a
    /// witness subset.
    pub fn optimum(g: &BipartiteGraph) -> (usize, VertexSet) {
        let s = g.num_left();
        assert!(
            s <= Self::MAX_LEFT,
            "ExactSolver is limited to {} left vertices, got {s}",
            Self::MAX_LEFT
        );
        let mut best_cov = 0usize;
        let mut best_mask = 0u64;
        let mut count = vec![0u32; g.num_right()];
        for mask in 0u64..(1u64 << s) {
            // `mask` is the subset's one bitset word (`s ≤ 25 < 64`).
            let cov = g.unique_coverage_of_words(&[mask], &mut count);
            if cov > best_cov {
                best_cov = cov;
                best_mask = mask;
            }
        }
        let subset = VertexSet::from_iter(s, (0..s).filter(|u| (best_mask >> u) & 1 == 1));
        (best_cov, subset)
    }

    /// `true` if the instance is small enough for the exact solver.
    pub fn is_feasible(g: &BipartiteGraph) -> bool {
        g.num_left() <= Self::MAX_LEFT
    }
}

impl SpokesmanSolver for ExactSolver {
    fn solve(&self, g: &BipartiteGraph, _seed: u64) -> SpokesmanResult {
        let _span = wx_trace::span("spokesman.exact");
        let (_, subset) = Self::optimum(g);
        SpokesmanResult::from_subset(SolverKind::Exact, g, subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_on_star_is_everything() {
        let g = BipartiteGraph::from_edges(1, 5, (0..5).map(|w| (0, w))).unwrap();
        let (cov, subset) = ExactSolver::optimum(&g);
        assert_eq!(cov, 5);
        assert_eq!(subset.to_vec(), vec![0]);
    }

    #[test]
    fn optimum_on_shared_neighborhood_picks_one_side() {
        // two left vertices with identical neighborhoods {0,1,2}: taking both
        // uniquely covers nothing, taking one covers 3.
        let g = BipartiteGraph::from_edges(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
            .unwrap();
        let (cov, subset) = ExactSolver::optimum(&g);
        assert_eq!(cov, 3);
        assert_eq!(subset.len(), 1);
    }

    #[test]
    fn optimum_on_c_plus_like_instance() {
        // S = {x, y, s0}: x and y each see all of N = {0..3}; s0 sees nothing
        // of N (it only sees x and y in the original graph). Best subset: {x}
        // (or {y}), covering 4.
        let mut edges = Vec::new();
        for w in 0..4 {
            edges.push((0, w));
            edges.push((1, w));
        }
        let g = BipartiteGraph::from_edges(3, 4, edges).unwrap();
        let (cov, subset) = ExactSolver::optimum(&g);
        assert_eq!(cov, 4);
        assert_eq!(subset.len(), 1);
    }

    #[test]
    fn optimum_can_be_a_proper_mixed_subset() {
        // left 0 -> {0}, left 1 -> {0, 1}, left 2 -> {2}
        // best is {0 or 1, 2}? {1, 2} covers {0,1,2}\{}: w0 once, w1 once, w2 once = 3
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 2)]).unwrap();
        let (cov, _) = ExactSolver::optimum(&g);
        assert_eq!(cov, 3);
    }

    #[test]
    fn empty_instance() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let (cov, subset) = ExactSolver::optimum(&g);
        assert_eq!(cov, 0);
        assert!(subset.is_empty());
    }

    #[test]
    fn solver_trait_produces_same_value_as_optimum() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 2)]).unwrap();
        let r = ExactSolver.solve(&g, 0);
        assert_eq!(r.unique_coverage, ExactSolver::optimum(&g).0);
        assert_eq!(r.solver, SolverKind::Exact);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_large_instance_panics() {
        let g = BipartiteGraph::from_edges(26, 1, (0..26).map(|u| (u, 0))).unwrap();
        ExactSolver::optimum(&g);
    }

    #[test]
    fn feasibility_check() {
        let small = BipartiteGraph::from_edges(3, 1, [(0, 0)]).unwrap();
        assert!(ExactSolver::is_feasible(&small));
        let big = BipartiteGraph::from_edges(30, 1, [(0, 0)]).unwrap();
        assert!(!ExactSolver::is_feasible(&big));
    }
}
