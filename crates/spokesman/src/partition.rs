//! Procedure Partition (Appendix A.1.2) and the solvers built on top of it.
//!
//! Procedure Partition splits the right side `N` into `N_uni ∪ N_many ∪ N_tmp`
//! and the left side `S` into `S_uni ∪ S_tmp` so that the four *partition
//! conditions* hold:
//!
//! * **(P1)** every vertex of `N_uni` has a unique neighbor in `S_uni`;
//! * **(P2)** every vertex of `N_tmp` has at least one neighbor in `S_tmp`
//!   and no neighbor in `S_uni`;
//! * **(P3)** `|N_uni| ≥ |N_many|`;
//! * **(P4)** either `N_tmp = ∅` or `|E_tmp| ≤ 2·|E_uni|`, where `E_uni`
//!   (resp. `E_tmp`) are the edges between `S_tmp` and `N_uni` (resp.
//!   `N_tmp`).
//!
//! Each round promotes the vertex of `S_tmp` with the largest gain
//! `|N_tmp(v)| − 2·|N_uni(v)|`, breaking ties toward the lowest index, and
//! the procedure stops once the best gain is `≤ 0`. [`procedure_partition`]
//! keeps the gains in an array and a max-heap keyed by
//! `(gain, Reverse(index))` that it updates lazily: a promotion moves only
//! the promoted vertex's right neighbors between parts, and each such move
//! shifts the gains of their unpromoted left neighbors by `+2`
//! (`N_uni → N_many`) or `−3` (`N_tmp → N_uni`). A raised gain is pushed at
//! once; a lowered one stays queued as an over-estimate and is requeued at
//! its current value when it reaches the top. A right vertex moves at most
//! twice, so the whole procedure costs `O(m log m)` for `m` edges, and it
//! promotes exactly the vertices a full rescan per round would.
//!
//! On top of the procedure we implement:
//!
//! * [`PartitionSolver`] in *low-degree* mode — the Lemma A.3 argument:
//!   restrict `N` to the vertices of degree at most `2δ_N` and run the
//!   procedure once, giving `|Γ¹_S(S')| ≥ |N|/(8δ_N)`.
//! * [`PartitionSolver`] in *recursive* mode (the default) — the Lemma A.13
//!   argument: run the procedure, and if `N_tmp` is non-empty recursively
//!   solve the residual instance `(S_tmp, N_tmp)`, returning the better of
//!   `S_uni` and the recursive answer. This achieves the near-optimal
//!   deterministic bound `|Γ¹_S(S')| ≥ |N|/(9·log 2δ_N)`.

use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wx_graph::{BipartiteGraph, VertexSet};

/// The outcome of one run of Procedure Partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// Left vertices promoted to the spokesman set.
    pub s_uni: VertexSet,
    /// Left vertices never promoted.
    pub s_tmp: VertexSet,
    /// Right vertices with a unique neighbor in `s_uni` (condition P1).
    pub n_uni: VertexSet,
    /// Right vertices that once were in `n_uni` but lost uniqueness ("junk").
    pub n_many: VertexSet,
    /// Right vertices never touched (condition P2).
    pub n_tmp: VertexSet,
}

impl PartitionOutcome {
    /// Verifies the four partition conditions; returns an error message for
    /// the first violated condition. [`procedure_partition`] debug-asserts
    /// it on every outcome it returns.
    pub fn check_conditions(
        &self,
        g: &BipartiteGraph,
        candidates: &VertexSet,
    ) -> Result<(), String> {
        // The three right-side parts partition the candidate set.
        let (uni, many, tmp) = (&self.n_uni, &self.n_many, &self.n_tmp);
        if !uni.is_disjoint_from(many) || !tmp.is_disjoint_from(&uni.union(many)) {
            return Err("a right vertex appears in two parts".to_string());
        }
        if uni.union(many).union(tmp) != *candidates {
            return Err("the right parts do not cover exactly the candidates".to_string());
        }
        // (P1)
        for w in self.n_uni.iter() {
            let cnt = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_uni.contains(u))
                .count();
            if cnt != 1 {
                return Err(format!(
                    "(P1) violated: vertex {w} has {cnt} neighbors in S_uni"
                ));
            }
        }
        // (P2)
        for w in self.n_tmp.iter() {
            let in_tmp = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_tmp.contains(u))
                .count();
            let in_uni = g
                .right_neighbors(w)
                .iter()
                .filter(|&&u| self.s_uni.contains(u))
                .count();
            if in_tmp == 0 {
                return Err(format!(
                    "(P2) violated: vertex {w} of N_tmp has no S_tmp neighbor"
                ));
            }
            if in_uni != 0 {
                return Err(format!("(P2) violated: vertex {w} of N_tmp sees S_uni"));
            }
        }
        // (P3)
        if self.n_uni.len() < self.n_many.len() {
            return Err(format!(
                "(P3) violated: |N_uni| = {} < |N_many| = {}",
                self.n_uni.len(),
                self.n_many.len()
            ));
        }
        // (P4)
        if !self.n_tmp.is_empty() {
            let e_uni: usize = self
                .s_tmp
                .iter()
                .map(|u| {
                    g.left_neighbors(u)
                        .iter()
                        .filter(|&&w| self.n_uni.contains(w))
                        .count()
                })
                .sum();
            let e_tmp: usize = self
                .s_tmp
                .iter()
                .map(|u| {
                    g.left_neighbors(u)
                        .iter()
                        .filter(|&&w| self.n_tmp.contains(w))
                        .count()
                })
                .sum();
            if e_tmp > 2 * e_uni {
                return Err(format!(
                    "(P4) violated: |E_tmp| = {e_tmp} > 2·|E_uni| = {}",
                    2 * e_uni
                ));
            }
        }
        Ok(())
    }
}

/// Runs Procedure Partition on the bipartite graph `g`, considering only the
/// right vertices in `candidates` (Lemma A.3 and A.13 both run the procedure
/// on a degree-restricted subset of `N`). Left side is all of `0..num_left`.
///
/// Every candidate must have a neighbor, as every vertex of `N = Γ(S)` does:
/// an isolated candidate never leaves `N_tmp`, which (P2) forbids. The gain
/// queue is described in the [module docs](self); it never holds more than
/// `|S| + m` entries.
pub fn procedure_partition(g: &BipartiteGraph, candidates: &VertexSet) -> PartitionOutcome {
    let num_left = g.num_left();
    let num_right = g.num_right();

    let mut right = vec![Right::Out; num_right];
    for w in candidates.iter() {
        right[w] = Right::Tmp;
    }
    let mut s_uni = VertexSet::empty(num_left);
    let mut gain: Vec<i64> = (0..num_left)
        .map(|u| {
            g.left_neighbors(u)
                .iter()
                .filter(|&&w| right[w] == Right::Tmp)
                .count() as i64
        })
        .collect();
    let mut heap: BinaryHeap<(i64, Reverse<usize>)> = gain
        .iter()
        .enumerate()
        .map(|(u, &gu)| (gu, Reverse(u)))
        .collect();

    // Every unpromoted vertex keeps an entry whose key is at least its
    // gain: a gain that rises is pushed at once, one that falls is requeued
    // only when its over-estimate reaches the top.
    while let Some((gv, Reverse(v))) = heap.pop() {
        if s_uni.contains(v) || gv < gain[v] {
            continue; // superseded by a later push
        }
        if gv > gain[v] {
            heap.push((gain[v], Reverse(v)));
            continue;
        }
        if gv <= 0 {
            break;
        }
        // Promote v: S_tmp → S_uni. Its neighbors in N_uni lose uniqueness
        // (→ N_many: +2 to each unpromoted left neighbor's gain); its
        // neighbors in N_tmp become uniquely covered (→ N_uni: −3).
        s_uni.insert(v);
        for &w in g.left_neighbors(v) {
            let delta = match right[w] {
                Right::Uni => {
                    right[w] = Right::Many;
                    2
                }
                Right::Tmp => {
                    right[w] = Right::Uni;
                    -3
                }
                Right::Many | Right::Out => continue,
            };
            for &u in g.right_neighbors(w) {
                if !s_uni.contains(u) {
                    gain[u] += delta;
                    if delta > 0 {
                        heap.push((gain[u], Reverse(u)));
                    }
                }
            }
        }
    }

    let right_part =
        |want: Right| VertexSet::from_iter(num_right, (0..num_right).filter(|&w| right[w] == want));
    let outcome = PartitionOutcome {
        s_tmp: s_uni.complement(),
        s_uni,
        n_uni: right_part(Right::Uni),
        n_many: right_part(Right::Many),
        n_tmp: right_part(Right::Tmp),
    };
    debug_assert_eq!(outcome.check_conditions(g, candidates), Ok(()));
    outcome
}

/// The part a right vertex sits in during Procedure Partition.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Right {
    /// Not a candidate: never touched and never counted.
    Out,
    /// In `N_tmp`.
    Tmp,
    /// In `N_uni`.
    Uni,
    /// In `N_many`.
    Many,
}

/// Which variant of the partition-based argument to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// Lemma A.3: restrict to right vertices of degree at most `2δ_N`, run
    /// the procedure once. Guarantee `|N|/(8δ_N)`.
    LowDegreeOnce,
    /// Lemma A.13: run the procedure on all of `N`, recursing into the
    /// residual `(S_tmp, N_tmp)` instance. Guarantee `|N|/(9·log 2δ_N)`.
    Recursive,
}

/// Safety cap on recursion depth for [`PartitionMode::Recursive`]; the
/// residual instance shrinks strictly so `log₂|N| + 1` always suffices, but
/// the cap keeps adversarial inputs from deep recursion.
const MAX_DEPTH: usize = 64;

/// Deterministic solver built on Procedure Partition.
#[derive(Clone, Copy, Debug)]
pub struct PartitionSolver {
    /// Which argument (Lemma A.3 or Lemma A.13) to follow.
    pub mode: PartitionMode,
}

impl Default for PartitionSolver {
    fn default() -> Self {
        PartitionSolver {
            mode: PartitionMode::Recursive,
        }
    }
}

impl PartitionSolver {
    /// A solver following the single-pass Lemma A.3 argument.
    pub fn low_degree_once() -> Self {
        PartitionSolver {
            mode: PartitionMode::LowDegreeOnce,
        }
    }

    fn solve_recursive(&self, g: &BipartiteGraph, depth: usize) -> VertexSet {
        let candidates = VertexSet::from_iter(
            g.num_right(),
            (0..g.num_right()).filter(|&w| g.right_degree(w) > 0),
        );
        if candidates.is_empty() || g.num_left() == 0 {
            return VertexSet::empty(g.num_left());
        }
        let outcome = procedure_partition(g, &candidates);
        let mut best_subset = outcome.s_uni.clone();
        let best_cov = g.unique_coverage(&best_subset);

        if self.mode == PartitionMode::Recursive
            && depth < MAX_DEPTH
            && !outcome.n_tmp.is_empty()
            && !outcome.s_tmp.is_empty()
            // guard against non-shrinking recursion (possible only if the
            // first round promoted nothing, which cannot happen when some
            // left vertex has a positive gain; be defensive anyway)
            && outcome.n_tmp.len() < candidates.len()
        {
            // Build the residual instance on (S_tmp, N_tmp) and recurse.
            let s_tmp_vertices: Vec<usize> = outcome.s_tmp.to_vec();
            let n_tmp_vertices: Vec<usize> = outcome.n_tmp.to_vec();
            let mut right_index = vec![usize::MAX; g.num_right()];
            for (i, &w) in n_tmp_vertices.iter().enumerate() {
                right_index[w] = i;
            }
            let mut b = wx_graph::BipartiteBuilder::new(s_tmp_vertices.len(), n_tmp_vertices.len());
            for (i, &u) in s_tmp_vertices.iter().enumerate() {
                for &w in g.left_neighbors(u) {
                    if outcome.n_tmp.contains(w) {
                        b.add_edge(i, right_index[w]).expect("in range");
                    }
                }
            }
            let sub = b.build();
            let rec_local = self.solve_recursive(&sub, depth + 1);
            let rec_subset =
                VertexSet::from_iter(g.num_left(), rec_local.iter().map(|i| s_tmp_vertices[i]));
            if g.unique_coverage(&rec_subset) > best_cov {
                best_subset = rec_subset;
            }
        }
        best_subset
    }

    fn solve_low_degree(&self, g: &BipartiteGraph) -> VertexSet {
        let delta_n = g.average_right_degree();
        let cutoff = (2.0 * delta_n).floor() as usize;
        let candidates = VertexSet::from_iter(
            g.num_right(),
            (0..g.num_right()).filter(|&w| {
                let d = g.right_degree(w);
                d > 0 && d <= cutoff.max(1)
            }),
        );
        if candidates.is_empty() {
            return VertexSet::empty(g.num_left());
        }
        procedure_partition(g, &candidates).s_uni
    }
}

impl SpokesmanSolver for PartitionSolver {
    fn solve(&self, g: &BipartiteGraph, _seed: u64) -> SpokesmanResult {
        let _span = wx_trace::span("spokesman.partition");
        let subset = match self.mode {
            PartitionMode::LowDegreeOnce => self.solve_low_degree(g),
            PartitionMode::Recursive => self.solve_recursive(g, 0),
        };
        SpokesmanResult::from_subset(SolverKind::Partition, g, subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_instances;
    use proptest::prelude::*;
    use rand::Rng;
    use wx_graph::degree::degree_class_buckets;

    /// The selection scan [`procedure_partition`] replaced: every round
    /// rescans all of `S_tmp` for the first vertex of maximal gain. Kept
    /// unchanged as the oracle the gain queue must reproduce set for set.
    fn procedure_partition_scan(g: &BipartiteGraph, candidates: &VertexSet) -> PartitionOutcome {
        let num_left = g.num_left();
        let num_right = g.num_right();

        let mut s_tmp = VertexSet::full(num_left);
        let mut s_uni = VertexSet::empty(num_left);
        let mut n_tmp = candidates.clone();
        let mut n_uni = VertexSet::empty(num_right);
        let mut n_many = VertexSet::empty(num_right);

        loop {
            if s_tmp.is_empty() {
                break;
            }
            // Pick v ∈ S_tmp maximizing gain(v) = |N_tmp(v)| − 2·|N_uni(v)|.
            let mut best: Option<(usize, i64)> = None;
            for u in s_tmp.iter() {
                let mut tmp_cnt = 0i64;
                let mut uni_cnt = 0i64;
                for &w in g.left_neighbors(u) {
                    if n_tmp.contains(w) {
                        tmp_cnt += 1;
                    } else if n_uni.contains(w) {
                        uni_cnt += 1;
                    }
                }
                let gain = tmp_cnt - 2 * uni_cnt;
                match best {
                    None => best = Some((u, gain)),
                    Some((_, bg)) if gain > bg => best = Some((u, gain)),
                    _ => {}
                }
            }
            let (v, gain) = best.expect("s_tmp is non-empty");
            if gain <= 0 {
                break;
            }
            // Promote v: S_tmp → S_uni.
            s_tmp.remove(v);
            s_uni.insert(v);
            // Neighbors of v previously in N_uni lose uniqueness → N_many.
            // Neighbors of v in N_tmp become uniquely covered → N_uni.
            for &w in g.left_neighbors(v) {
                if n_uni.contains(w) {
                    n_uni.remove(w);
                    n_many.insert(w);
                } else if n_tmp.contains(w) {
                    n_tmp.remove(w);
                    n_uni.insert(w);
                }
            }
        }

        PartitionOutcome {
            s_uni,
            s_tmp,
            n_uni,
            n_many,
            n_tmp,
        }
    }

    /// The candidate sets the solvers pass (all non-isolated right
    /// vertices, and each degree class under two bases) plus arbitrary
    /// subsets of the non-isolated right vertices. An isolated candidate
    /// could never leave `N_tmp`, which (P2) forbids.
    fn candidate_sets(g: &BipartiteGraph, seed: u64) -> Vec<VertexSet> {
        let n = g.num_right();
        let coverable: Vec<usize> = (0..n).filter(|&w| g.right_degree(w) > 0).collect();
        let mut sets = vec![VertexSet::from_iter(n, coverable.iter().copied())];
        for base in [2.0, crate::degree_class::OPTIMAL_BASE] {
            sets.extend(
                degree_class_buckets(g, base)
                    .into_iter()
                    .map(|bucket| VertexSet::from_iter(n, bucket)),
            );
        }
        let mut rng = wx_graph::random::rng_from_seed(seed);
        for _ in 0..3 {
            let p: f64 = rng.gen();
            let subset = coverable.iter().copied().filter(|_| rng.gen_bool(p));
            sets.push(VertexSet::from_iter(n, subset));
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The gain queue promotes exactly the vertices the scan promotes,
        /// so all five parts of the outcome agree, on every candidate set.
        #[test]
        fn gain_queue_matches_the_scan_oracle(
            g in test_instances::instances(),
            seed in any::<u64>(),
        ) {
            for candidates in candidate_sets(&g, seed) {
                let outcome = procedure_partition(&g, &candidates);
                prop_assert_eq!(&outcome, &procedure_partition_scan(&g, &candidates));
                prop_assert_eq!(outcome.check_conditions(&g, &candidates), Ok(()));
            }
        }
    }

    fn random_instance(seed: u64, s: usize, n: usize, p: f64) -> BipartiteGraph {
        let mut rng = wx_graph::random::rng_from_seed(seed);
        let mut edges = Vec::new();
        for u in 0..s {
            for w in 0..n {
                if rng.gen_bool(p) {
                    edges.push((u, w));
                }
            }
        }
        BipartiteGraph::from_edges(s, n, edges).unwrap()
    }

    #[test]
    fn partition_conditions_hold_on_random_instances() {
        for seed in 0..25u64 {
            let g = random_instance(seed, 8, 14, 0.25);
            let candidates = VertexSet::from_iter(
                g.num_right(),
                (0..g.num_right()).filter(|&w| g.right_degree(w) > 0),
            );
            let outcome = procedure_partition(&g, &candidates);
            outcome
                .check_conditions(&g, &candidates)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn partition_on_star() {
        let g = BipartiteGraph::from_edges(1, 5, (0..5).map(|w| (0, w))).unwrap();
        let candidates = VertexSet::full(5);
        let outcome = procedure_partition(&g, &candidates);
        outcome.check_conditions(&g, &candidates).unwrap();
        assert_eq!(outcome, procedure_partition_scan(&g, &candidates));
        assert_eq!(outcome.n_uni.len(), 5);
        assert_eq!(outcome.s_uni.len(), 1);
        assert!(outcome.n_tmp.is_empty());
    }

    #[test]
    fn recursive_solver_meets_lemma_a13_guarantee() {
        for seed in 0..20u64 {
            let g = random_instance(seed + 100, 10, 25, 0.3);
            if g.num_edges() == 0 {
                continue;
            }
            let gamma = (0..g.num_right())
                .filter(|&w| g.right_degree(w) > 0)
                .count();
            let delta_n = g.num_edges() as f64 / gamma.max(1) as f64;
            let guarantee = (gamma as f64) / (9.0 * (2.0 * delta_n).log2().max(1.0));
            let r = PartitionSolver::default().solve(&g, 0);
            assert!(
                (r.unique_coverage as f64) >= guarantee.floor(),
                "seed {seed}: coverage {} below Lemma A.13 guarantee {guarantee}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn low_degree_solver_meets_lemma_a3_guarantee() {
        for seed in 0..20u64 {
            let g = random_instance(seed + 500, 12, 20, 0.35);
            if g.num_edges() == 0 {
                continue;
            }
            let gamma = (0..g.num_right())
                .filter(|&w| g.right_degree(w) > 0)
                .count();
            let delta_n = g.num_edges() as f64 / gamma.max(1) as f64;
            let guarantee = gamma as f64 / (8.0 * delta_n.max(1.0));
            let r = PartitionSolver::low_degree_once().solve(&g, 0);
            assert!(
                (r.unique_coverage as f64) >= guarantee.floor(),
                "seed {seed}: coverage {} below Lemma A.3 guarantee {guarantee}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn recursion_beats_or_matches_single_pass() {
        for seed in 0..10u64 {
            let g = random_instance(seed + 900, 10, 30, 0.4);
            // the depth-0 result: one pass over every non-isolated right vertex
            let candidates = VertexSet::from_iter(
                g.num_right(),
                (0..g.num_right()).filter(|&w| g.right_degree(w) > 0),
            );
            let single = g.unique_coverage(&procedure_partition(&g, &candidates).s_uni);
            let rec = PartitionSolver::default().solve(&g, 0);
            assert!(rec.unique_coverage >= single);
        }
    }

    #[test]
    fn empty_and_edgeless_instances() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(PartitionSolver::default().solve(&g, 0).unique_coverage, 0);
        let g = BipartiteGraph::from_edges(3, 3, []).unwrap();
        assert_eq!(PartitionSolver::default().solve(&g, 0).unique_coverage, 0);
        assert_eq!(
            PartitionSolver::low_degree_once()
                .solve(&g, 0)
                .unique_coverage,
            0
        );
    }

    #[test]
    fn twin_heavy_instance() {
        // Many identical left vertices: partition must promote exactly one.
        let mut edges = Vec::new();
        for u in 0..6 {
            for w in 0..4 {
                edges.push((u, w));
            }
        }
        let g = BipartiteGraph::from_edges(6, 4, edges).unwrap();
        let r = PartitionSolver::default().solve(&g, 0);
        assert_eq!(r.unique_coverage, 4);
        let candidates = VertexSet::full(4);
        let outcome = procedure_partition(&g, &candidates);
        assert_eq!(outcome, procedure_partition_scan(&g, &candidates));
        assert_eq!(outcome.s_uni.to_vec(), vec![0]);
    }
}
