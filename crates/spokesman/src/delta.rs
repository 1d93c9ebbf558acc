//! Incremental unique-coverage tracking for spokesman subsets.
//!
//! Local search (and any solver that edits a candidate subset one vertex at a
//! time) needs `|Γ¹_S(S')|` after every prospective flip. Re-measuring from
//! scratch costs O(|E|) per flip; [`CoverageTracker`] instead maintains, for
//! every right vertex `w`, the number of chosen left neighbors
//! (`cover_count[w]`), so the *delta* of adding or removing a left vertex `u`
//! is computable in O(deg u):
//!
//! * adding `u`: a right neighbor at count 0 becomes uniquely covered (+1),
//!   one at count 1 loses unique coverage (−1);
//! * removing `u`: count 1 → 0 loses (−1), count 2 → 1 gains (+1).
//!
//! This is the same counter-array idea as the epoch-stamped
//! [`wx_graph::NeighborhoodScratch`] kernel in `wx-graph`, specialized to a
//! *persistent* subset that evolves by single-vertex moves instead of being
//! rebuilt per evaluation. The tracker is the engine behind
//! [`crate::local_search::LocalSearchImprover`] and is exposed so experiment
//! harnesses (and the delta-consistency property tests) can drive move
//! sequences directly.

use wx_graph::{BipartiteGraph, VertexSet};

/// Maintains a subset `S'` of the left side of a bipartite graph together
/// with its unique coverage `|Γ¹_S(S')|`, under O(deg) single-vertex moves.
#[derive(Clone, Debug)]
pub struct CoverageTracker<'g> {
    g: &'g BipartiteGraph,
    chosen: VertexSet,
    /// `cover_count[w]` = number of chosen left neighbors of right vertex `w`.
    cover_count: Vec<u32>,
    coverage: usize,
}

impl<'g> CoverageTracker<'g> {
    /// Builds a tracker for `subset` (one full O(|E(S')|) pass; every later
    /// query is incremental).
    pub fn new(g: &'g BipartiteGraph, subset: &VertexSet) -> Self {
        let mut cover_count = vec![0u32; g.num_right()];
        for u in subset.iter() {
            for &w in g.left_neighbors(u) {
                cover_count[w] += 1;
            }
        }
        let coverage = cover_count.iter().filter(|&&c| c == 1).count();
        CoverageTracker {
            g,
            chosen: subset.clone(),
            cover_count,
            coverage,
        }
    }

    /// The current unique coverage `|Γ¹_S(S')|`.
    pub fn coverage(&self) -> usize {
        self.coverage
    }

    /// `true` if left vertex `u` is currently chosen.
    pub fn contains(&self, u: usize) -> bool {
        self.chosen.contains(u)
    }

    /// The coverage change that *would* result from flipping `u` (adding it
    /// when absent, removing it when present), in O(deg u), without mutating
    /// the tracker.
    pub fn flip_delta(&self, u: usize) -> i64 {
        let adding = !self.chosen.contains(u);
        let mut delta = 0i64;
        for &w in self.g.left_neighbors(u) {
            let c = self.cover_count[w];
            if adding {
                // 0 -> 1 gains a uniquely covered vertex, 1 -> 2 loses one
                if c == 0 {
                    delta += 1;
                } else if c == 1 {
                    delta -= 1;
                }
            } else {
                // 1 -> 0 loses, 2 -> 1 gains
                if c == 1 {
                    delta -= 1;
                } else if c == 2 {
                    delta += 1;
                }
            }
        }
        delta
    }

    /// Flips `u` and applies its delta to the maintained coverage, in one
    /// O(deg u) pass (the delta is derived from each counter as it is
    /// updated). Returns the applied delta.
    pub fn flip(&mut self, u: usize) -> i64 {
        let adding = !self.chosen.contains(u);
        let mut delta = 0i64;
        for &w in self.g.left_neighbors(u) {
            let c = self.cover_count[w];
            if adding {
                if c == 0 {
                    delta += 1;
                } else if c == 1 {
                    delta -= 1;
                }
                self.cover_count[w] = c + 1;
            } else {
                if c == 1 {
                    delta -= 1;
                } else if c == 2 {
                    delta += 1;
                }
                self.cover_count[w] = c - 1;
            }
        }
        if adding {
            self.chosen.insert(u);
        } else {
            self.chosen.remove(u);
        }
        self.coverage = (self.coverage as i64 + delta) as usize;
        delta
    }

    /// Consumes the tracker, returning the subset and its coverage.
    pub fn into_parts(self) -> (VertexSet, usize) {
        (self.chosen, self.coverage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(s: usize) -> BipartiteGraph {
        // left u covers right {u, u+1}
        let mut edges = Vec::new();
        for u in 0..s {
            edges.push((u, u));
            edges.push((u, u + 1));
        }
        BipartiteGraph::from_edges(s, s + 1, edges).unwrap()
    }

    #[test]
    fn tracker_matches_full_recount_after_each_flip() {
        let g = chain(6);
        let mut t = CoverageTracker::new(&g, &VertexSet::empty(g.num_left()));
        // the subset the flips describe, kept independently of the tracker
        let mut chosen = VertexSet::empty(g.num_left());
        assert_eq!(t.coverage(), 0);
        for &u in &[0, 2, 4, 2, 1, 0, 5] {
            let predicted = t.coverage() as i64 + t.flip_delta(u);
            t.flip(u);
            if !chosen.insert(u) {
                chosen.remove(u);
            }
            assert_eq!(t.coverage() as i64, predicted);
            assert_eq!(t.coverage(), g.unique_coverage(&chosen));
        }
    }

    #[test]
    fn flip_delta_does_not_mutate() {
        let g = chain(4);
        let t = CoverageTracker::new(&g, &VertexSet::from_iter(4, [1, 2]));
        let before = t.coverage();
        let _ = t.flip_delta(0);
        let _ = t.flip_delta(1);
        assert_eq!(t.coverage(), before);
        assert!((0..4).all(|u| t.contains(u) == (u == 1 || u == 2)));
    }

    #[test]
    fn into_parts_reports_final_state() {
        let g = chain(3);
        let mut t = CoverageTracker::new(&g, &VertexSet::empty(3));
        t.flip(0);
        t.flip(2);
        let (subset, cov) = t.into_parts();
        assert_eq!(subset.to_vec(), vec![0, 2]);
        assert_eq!(cov, g.unique_coverage(&subset));
    }
}
