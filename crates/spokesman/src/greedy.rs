//! The naive greedy procedure of Lemma A.1.
//!
//! The procedure repeatedly picks a right vertex `v ∈ N_tmp` with the fewest
//! remaining left neighbors, promotes one of those neighbors `w` into the
//! spokesman set `S_uni`, discards the other neighbors of `v` from `S_tmp`
//! (so they can never later collide with the promoted vertex), moves every
//! right vertex whose remaining neighborhood equals `Γ(v, S_tmp)` into
//! `N_uni`, and discards the other right neighbors of `w`.
//!
//! Lemma A.1 shows the resulting `S_uni` uniquely covers at least
//! `|N| / Δ_S` right vertices, where `Δ_S` is the maximum degree of a left
//! vertex.
//!
//! Picks come from a min-heap keyed by `(|Γ(v, S_tmp)|, index)`, so ties
//! go to the lowest index. The remaining degrees only shrink; a pick
//! lowers them only on `Q_v`, so after each pick the vertices of `Q_v`
//! that stay in `N_tmp` are pushed again under their new count, and the
//! superseded entries are skipped when popped. Membership lives in plain state arrays and the
//! per-pick scratch (`Γ(v, S_tmp)` marks, an epoch stamp for `Q_v`) is
//! reused, so the procedure costs `O(m log m)` for `m` edges.

use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wx_graph::{BipartiteGraph, VertexSet};

/// Deterministic greedy solver implementing the procedure from Lemma A.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyMinDegreeSolver;

/// The internal outcome of the Lemma A.1 procedure, exposed for tests and for
/// the experiment harnesses that want to inspect the certified set `N_uni`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreedyOutcome {
    /// The chosen spokesman set `S_uni` (left indices).
    pub s_uni: VertexSet,
    /// The set of right vertices certified to have a unique neighbor in
    /// `S_uni` by the procedure's invariant (I3).
    pub n_uni: VertexSet,
}

impl GreedyOutcome {
    /// Verifies invariant (I3): every vertex of `n_uni` has exactly one
    /// neighbor in `s_uni`. [`GreedyMinDegreeSolver::run`] debug-asserts it
    /// on every outcome it returns.
    pub(crate) fn check_certificate(&self, g: &BipartiteGraph) -> Result<(), String> {
        for w in self.n_uni.iter() {
            let cnt = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_uni.contains(u))
                .count();
            if cnt != 1 {
                return Err(format!(
                    "(I3) violated: vertex {w} of N_uni has {cnt} neighbors in S_uni"
                ));
            }
        }
        Ok(())
    }
}

/// The part a right vertex sits in during the Lemma A.1 procedure.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Right {
    /// Isolated, or discarded from `N_tmp` as a neighbor of a promoted
    /// vertex.
    Out,
    /// In `N_tmp`.
    Tmp,
    /// In `N_uni`.
    Uni,
}

impl GreedyMinDegreeSolver {
    /// Runs the Lemma A.1 procedure and returns the full outcome.
    pub fn run(g: &BipartiteGraph) -> GreedyOutcome {
        let _span = wx_trace::span("spokesman.greedy");
        let num_left = g.num_left();
        let num_right = g.num_right();

        let mut in_s_tmp = vec![true; num_left];
        let mut s_uni = VertexSet::empty(num_left);
        // N_tmp starts as the right vertices with at least one neighbor
        // (isolated right vertices can never be covered).
        let mut right: Vec<Right> = (0..num_right)
            .map(|w| {
                if g.right_degree(w) > 0 {
                    Right::Tmp
                } else {
                    Right::Out
                }
            })
            .collect();
        // remaining[w] = |Γ(w, S_tmp)|, maintained incrementally: when a left
        // vertex leaves S_tmp, each of its right neighbors loses one
        // remaining neighbor (O(deg) per removal).
        let mut remaining: Vec<u32> = (0..num_right).map(|w| g.right_degree(w) as u32).collect();
        let mut queue: BinaryHeap<Reverse<(u32, usize)>> = (0..num_right)
            .filter(|&w| right[w] == Right::Tmp)
            .map(|w| Reverse((remaining[w], w)))
            .collect();
        // Per-pick scratch: `in_gamma_v` marks Γ(v, S_tmp) and is cleared
        // after the pick; `seen[w] == pick` marks Q_v membership.
        let mut in_gamma_v = vec![false; num_left];
        let mut seen = vec![0u32; num_right];
        let mut pick = 0u32;
        let mut gamma_v: Vec<usize> = Vec::new();
        let mut q_prime: Vec<usize> = Vec::new();
        let mut q_double: Vec<usize> = Vec::new();

        // Pick v in N_tmp minimizing |Γ(v, S_tmp)|, lowest index first
        // (invariant I4 ensures the minimum is at least 1).
        while let Some(Reverse((rv, v))) = queue.pop() {
            if right[v] != Right::Tmp || remaining[v] != rv {
                continue; // stale entry
            }
            pick += 1;
            gamma_v.clear();
            gamma_v.extend(
                g.right_neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| in_s_tmp[u]),
            );
            debug_assert_eq!(gamma_v.len(), rv as usize);
            debug_assert!(
                !gamma_v.is_empty(),
                "invariant I4 violated: a vertex of N_tmp lost all its S_tmp neighbors"
            );
            for &u in &gamma_v {
                in_gamma_v[u] = true;
            }

            // Q_v: right vertices of N_tmp incident on at least one vertex of
            // Γ(v, S_tmp); split into Q'_v (identical remaining neighborhood)
            // and Q''_v (the rest). `Γ(w, S_tmp) = Γ(v, S_tmp)` iff the two
            // sets have equal size (the maintained counter) and
            // `Γ(w, S_tmp) ⊆ Γ(v, S_tmp)` — checked without materializing
            // `Γ(w, S_tmp)`.
            q_prime.clear();
            q_double.clear();
            for &u in &gamma_v {
                for &w in g.left_neighbors(u) {
                    if right[w] == Right::Tmp && seen[w] != pick {
                        seen[w] = pick;
                        let identical = remaining[w] as usize == gamma_v.len()
                            && g.right_neighbors(w)
                                .iter()
                                .all(|&x| !in_s_tmp[x] || in_gamma_v[x]);
                        if identical {
                            q_prime.push(w);
                        } else {
                            q_double.push(w);
                        }
                    }
                }
            }
            debug_assert!(q_prime.contains(&v));

            // Promote an arbitrary vertex w of Γ(v, S_tmp) (we take the
            // smallest index for determinism), drop all of Γ(v, S_tmp) from
            // S_tmp.
            let w_star = gamma_v[0];
            s_uni.insert(w_star);
            for &u in &gamma_v {
                in_gamma_v[u] = false;
                in_s_tmp[u] = false;
                for &w in g.left_neighbors(u) {
                    remaining[w] -= 1;
                }
            }

            // Move Q'_v into N_uni; they all neighbor w_star and, because the
            // rest of Γ(v, S_tmp) was discarded, w_star stays their unique
            // neighbor in S_uni forever.
            for &w in &q_prime {
                right[w] = Right::Uni;
            }
            // Remove neighbors of w_star that sit in Q''_v from N_tmp: they
            // are adjacent to the newly promoted w_star, so leaving them in
            // N_tmp would break invariants (I3)/(I4) later. The rest of
            // Q''_v are the only vertices still in N_tmp whose remaining
            // count fell, so they alone are queued again.
            for &w in &q_double {
                if g.has_edge(w_star, w) {
                    right[w] = Right::Out;
                } else {
                    queue.push(Reverse((remaining[w], w)));
                }
            }
        }

        // One promotion per pick, so |S_uni| *is* the number of greedy
        // picks — a scheduling-independent work count.
        wx_trace::count(
            wx_trace::CounterId::SpokesmanGreedyPicks,
            s_uni.len() as u64,
        );
        let outcome = GreedyOutcome {
            s_uni,
            n_uni: VertexSet::from_iter(
                num_right,
                (0..num_right).filter(|&w| right[w] == Right::Uni),
            ),
        };
        debug_assert_eq!(outcome.check_certificate(g), Ok(()));
        outcome
    }

    /// The Lemma A.1 guarantee for an instance: `⌈|N⁺| / Δ_S⌉ / |N|` of the
    /// right side is uniquely covered, where `N⁺` is the set of
    /// non-isolated right vertices. Returns the guaranteed *count*.
    pub fn guaranteed_coverage(g: &BipartiteGraph) -> usize {
        let covered_candidates = (0..g.num_right())
            .filter(|&w| g.right_degree(w) > 0)
            .count();
        let delta_s = g.max_left_degree();
        if delta_s == 0 {
            0
        } else {
            covered_candidates.div_ceil(delta_s)
        }
    }
}

impl SpokesmanSolver for GreedyMinDegreeSolver {
    fn solve(&self, g: &BipartiteGraph, _seed: u64) -> SpokesmanResult {
        let outcome = Self::run(g);
        SpokesmanResult::from_subset(SolverKind::GreedyMinDegree, g, outcome.s_uni)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_instances;
    use proptest::prelude::*;

    /// The selection scan [`GreedyMinDegreeSolver::run`] replaced: every
    /// pick rescans all of `N_tmp` for the first vertex of minimal
    /// remaining degree. Kept unchanged, minus its telemetry, as the oracle
    /// the queue must reproduce set for set.
    fn run_scan(g: &BipartiteGraph) -> GreedyOutcome {
        let num_left = g.num_left();
        let num_right = g.num_right();

        let mut s_tmp = VertexSet::full(num_left);
        let mut s_uni = VertexSet::empty(num_left);
        // N_tmp starts as the right vertices with at least one neighbor
        // (isolated right vertices can never be covered).
        let mut n_tmp =
            VertexSet::from_iter(num_right, (0..num_right).filter(|&w| g.right_degree(w) > 0));
        let mut n_uni = VertexSet::empty(num_right);
        // remaining[w] = |Γ(w, S_tmp)|, maintained incrementally: when a left
        // vertex leaves S_tmp, each of its right neighbors loses one
        // remaining neighbor (O(deg) per removal). This replaces the
        // re-filtered neighborhood counts in the min-degree selection below.
        let mut remaining: Vec<u32> = (0..num_right).map(|w| g.right_degree(w) as u32).collect();

        while !n_tmp.is_empty() {
            // Pick v in N_tmp minimizing |Γ(v, S_tmp)| (invariant I4 ensures
            // this is at least 1).
            let v = n_tmp
                .iter()
                .min_by_key(|&w| remaining[w])
                .expect("n_tmp is non-empty");
            let gamma_v: Vec<usize> = g
                .right_neighbors(v)
                .iter()
                .copied()
                .filter(|&u| s_tmp.contains(u))
                .collect();
            debug_assert_eq!(gamma_v.len(), remaining[v] as usize);
            debug_assert!(
                !gamma_v.is_empty(),
                "invariant I4 violated: a vertex of N_tmp lost all its S_tmp neighbors"
            );

            let gamma_v_set = VertexSet::from_iter(num_left, gamma_v.iter().copied());

            // Q_v: right vertices of N_tmp incident on at least one vertex of
            // Γ(v, S_tmp); split into Q'_v (identical remaining neighborhood)
            // and Q''_v (the rest). `Γ(w, S_tmp) = Γ(v, S_tmp)` iff the two
            // sets have equal size (the maintained counter) and
            // `Γ(w, S_tmp) ⊆ Γ(v, S_tmp)` — checked without materializing
            // `Γ(w, S_tmp)`.
            let mut q_prime: Vec<usize> = Vec::new();
            let mut q_double: Vec<usize> = Vec::new();
            let mut q_seen = VertexSet::empty(num_right);
            for &u in &gamma_v {
                for &w in g.left_neighbors(u) {
                    if n_tmp.contains(w) && q_seen.insert(w) {
                        let identical = remaining[w] as usize == gamma_v.len()
                            && g.right_neighbors(w)
                                .iter()
                                .all(|&x| !s_tmp.contains(x) || gamma_v_set.contains(x));
                        if identical {
                            q_prime.push(w);
                        } else {
                            q_double.push(w);
                        }
                    }
                }
            }
            debug_assert!(q_prime.contains(&v));

            // Promote an arbitrary vertex w of Γ(v, S_tmp) (we take the
            // smallest index for determinism), drop the others from S_tmp.
            let w_star = gamma_v[0];
            let mut drop_from_s_tmp = |u: usize, s_tmp: &mut VertexSet| {
                if s_tmp.remove(u) {
                    for &w in g.left_neighbors(u) {
                        remaining[w] -= 1;
                    }
                }
            };
            drop_from_s_tmp(w_star, &mut s_tmp);
            s_uni.insert(w_star);
            for &u in gamma_v.iter().skip(1) {
                drop_from_s_tmp(u, &mut s_tmp);
            }

            // Move Q'_v into N_uni; they all neighbor w_star and, because the
            // rest of Γ(v, S_tmp) was discarded, w_star stays their unique
            // neighbor in S_uni forever.
            for &w in &q_prime {
                n_tmp.remove(w);
                n_uni.insert(w);
            }
            // Remove neighbors of w_star that sit in Q''_v from N_tmp: they
            // are adjacent to the newly promoted w_star, so leaving them in
            // N_tmp would break invariants (I3)/(I4) later.
            for &w in &q_double {
                if g.has_edge(w_star, w) {
                    n_tmp.remove(w);
                }
            }
        }
        GreedyOutcome { s_uni, n_uni }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The min-queue picks exactly the vertices the scan picks, so
        /// `S_uni` and the certified `N_uni` agree.
        #[test]
        fn min_queue_matches_the_scan_oracle(g in test_instances::instances()) {
            let outcome = GreedyMinDegreeSolver::run(&g);
            prop_assert_eq!(&outcome, &run_scan(&g));
            prop_assert_eq!(outcome.check_certificate(&g), Ok(()));
        }
    }

    #[test]
    fn star_is_fully_covered() {
        let g = BipartiteGraph::from_edges(1, 6, (0..6).map(|w| (0, w))).unwrap();
        let out = GreedyMinDegreeSolver::run(&g);
        out.check_certificate(&g).unwrap();
        assert_eq!(out.n_uni.len(), 6);
        let r = GreedyMinDegreeSolver.solve(&g, 0);
        assert_eq!(r.unique_coverage, 6);
    }

    #[test]
    fn twin_left_vertices_keep_one() {
        // two left vertices with identical neighborhoods; greedy must keep
        // exactly one of them to cover all three right vertices uniquely.
        let g = BipartiteGraph::from_edges(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
            .unwrap();
        let out = GreedyMinDegreeSolver::run(&g);
        out.check_certificate(&g).unwrap();
        assert_eq!(out.s_uni.len(), 1);
        assert_eq!(out.n_uni.len(), 3);
    }

    #[test]
    fn meets_lemma_a1_guarantee_on_random_instances() {
        use rand::Rng;
        let mut rng = wx_graph::random::rng_from_seed(7);
        for trial in 0..30 {
            let s = 3 + (trial % 8);
            let n = 4 + (trial % 13);
            let mut edges = Vec::new();
            for u in 0..s {
                for w in 0..n {
                    if rng.gen_bool(0.3) {
                        edges.push((u, w));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let g = BipartiteGraph::from_edges(s, n, edges).unwrap();
            let out = GreedyMinDegreeSolver::run(&g);
            out.check_certificate(&g).unwrap();
            let guarantee = GreedyMinDegreeSolver::guaranteed_coverage(&g);
            assert!(
                out.n_uni.len() >= guarantee,
                "trial {trial}: greedy covered {} < guarantee {guarantee}",
                out.n_uni.len()
            );
            // the reported unique coverage is at least the certified set size
            let r = GreedyMinDegreeSolver.solve(&g, 0);
            assert!(r.unique_coverage >= out.n_uni.len());
        }
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(2, 2, []).unwrap();
        let out = GreedyMinDegreeSolver::run(&g);
        assert!(out.s_uni.is_empty());
        assert!(out.n_uni.is_empty());
        assert_eq!(GreedyMinDegreeSolver::guaranteed_coverage(&g), 0);
    }

    #[test]
    fn isolated_right_vertices_are_ignored() {
        let g = BipartiteGraph::from_edges(1, 3, [(0, 0)]).unwrap();
        let out = GreedyMinDegreeSolver::run(&g);
        out.check_certificate(&g).unwrap();
        assert_eq!(out.n_uni.len(), 1);
    }

    #[test]
    fn chain_structure() {
        // left u covers right {u, u+1}: classic overlap; optimal unique
        // coverage is achieved by alternating spokesmen.
        let s = 6;
        let mut edges = Vec::new();
        for u in 0..s {
            edges.push((u, u));
            edges.push((u, u + 1));
        }
        let g = BipartiteGraph::from_edges(s, s + 1, edges).unwrap();
        let out = GreedyMinDegreeSolver::run(&g);
        out.check_certificate(&g).unwrap();
        assert!(out.n_uni.len() >= GreedyMinDegreeSolver::guaranteed_coverage(&g));
        assert!(out.n_uni.len() >= s.div_ceil(2));
    }
}
