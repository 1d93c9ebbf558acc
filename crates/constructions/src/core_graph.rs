//! The Lemma 4.4 core graph (Figure 2).
//!
//! Take a perfect binary tree `T_S` with `s` leaves (`s` a power of two).
//! Each leaf is identified with a vertex of `S`; each tree vertex `v` at
//! level `i` (root = level 0, leaves = level `log₂s`) owns a block `N_v` of
//! `s/2^i` fresh vertices of `N`. A leaf `z ∈ S` is adjacent to every vertex
//! in every block owned by an ancestor of `z` (including `z` itself).
//!
//! Lemma 4.4 establishes:
//!
//! 1. `|S| = s`, `|N| = s·log₂(2s)`;
//! 2. every vertex of `S` has degree `2s − 1`;
//! 3. the maximum degree in `N` is `s` and the average degree of `N` is at
//!    most `2s/log₂(2s)`;
//! 4. every `S' ⊆ S` satisfies `|Γ(S')| ≥ log₂(2s)·|S'|` — ordinary
//!    expansion at least `log₂(2s)`;
//! 5. every `S' ⊆ S` satisfies `|Γ¹_S(S')| ≤ 2s` — wireless coverage at most
//!    a `2/log₂(2s)` fraction of `N`.
//!
//! The same object drives the Section 5 broadcast lower bound: no matter
//! which subset of `S` transmits, at most `2s` vertices of `N` hear the
//! message in any single round.

use wx_graph::{BipartiteBuilder, BipartiteGraph, GraphError, Result, VertexSet};

/// A node of the implicit perfect binary tree, with its block of `N`.
#[derive(Clone, Copy, Debug)]
pub struct TreeBlock {
    /// Level of the node in the tree (root = 0, leaves = `log₂ s`).
    pub level: usize,
    /// First `N`-index of the node's block.
    pub start: usize,
    /// Block size `s / 2^level`.
    pub len: usize,
}

/// The Lemma 4.4 core graph.
#[derive(Clone, Debug)]
pub struct CoreGraph {
    /// Number of leaves `s` (a power of two).
    pub s: usize,
    /// `log₂ s`.
    pub levels: usize,
    /// The bipartite graph: left side `S` = the `s` leaves, right side `N`.
    pub graph: BipartiteGraph,
    /// Per tree-node blocks, indexed by heap index (root = 1, children of
    /// `v` are `2v` and `2v+1`); index 0 is unused.
    pub blocks: Vec<TreeBlock>,
}

impl CoreGraph {
    /// Builds the core graph for `s` leaves. `s` must be a power of two and
    /// at least 1.
    pub fn new(s: usize) -> Result<Self> {
        if s == 0 || !s.is_power_of_two() {
            return Err(GraphError::invalid(format!(
                "core graph needs s to be a positive power of two, got {s}"
            )));
        }
        let levels = s.trailing_zeros() as usize; // log2 s
        let num_right = s * (levels + 1); // s·log₂(2s)

        // Heap-indexed perfect binary tree with 2s − 1 nodes: node 1 is the
        // root, nodes s..2s are the leaves (leaf j of S is node s + j).
        let mut blocks = vec![
            TreeBlock {
                level: 0,
                start: 0,
                len: 0
            };
            2 * s
        ];
        let mut next_start = 0usize;
        for (node, block) in blocks.iter_mut().enumerate().take(2 * s).skip(1) {
            let level = (usize::BITS - 1 - node.leading_zeros()) as usize;
            let len = s >> level;
            *block = TreeBlock {
                level,
                start: next_start,
                len,
            };
            next_start += len;
        }
        debug_assert_eq!(next_start, num_right);

        let mut b = BipartiteBuilder::new(s, num_right);
        for leaf in 0..s {
            // walk from the leaf's heap node up to the root
            let mut node = s + leaf;
            while node >= 1 {
                let blk = blocks[node];
                for w in blk.start..blk.start + blk.len {
                    b.add_edge(leaf, w).expect("in range by construction");
                }
                if node == 1 {
                    break;
                }
                node /= 2;
            }
        }

        Ok(CoreGraph {
            s,
            levels,
            graph: b.build(),
            blocks,
        })
    }

    /// `log₂(2s) = log₂ s + 1`, the ordinary-expansion lower bound of
    /// Lemma 4.4(4).
    pub fn expansion_lower_bound(&self) -> f64 {
        (self.levels + 1) as f64
    }

    /// The Lemma 4.4(5) upper bound on `|Γ¹_S(S')|` for any `S' ⊆ S`: `2s`.
    pub fn unique_coverage_upper_bound(&self) -> usize {
        2 * self.s
    }

    /// The number of right vertices, `s·log₂(2s)`.
    pub fn num_right(&self) -> usize {
        self.graph.num_right()
    }

    /// The block (level, range) of a heap-indexed tree node.
    #[cfg(test)]
    fn block(&self, node: usize) -> TreeBlock {
        self.blocks[node]
    }

    /// Verifies the five structural assertions of Lemma 4.4 that are
    /// checkable in polynomial time (1–3 exactly; 4 and 5 on the provided
    /// subsets). Returns the first violated assertion as an error message.
    pub fn verify_lemma_4_4(&self, subsets: &[VertexSet]) -> std::result::Result<(), String> {
        let s = self.s;
        let log2s = (self.levels + 1) as f64;
        // (1) sizes
        if self.graph.num_left() != s {
            return Err(format!("|S| = {} ≠ s = {s}", self.graph.num_left()));
        }
        if self.graph.num_right() != s * (self.levels + 1) {
            return Err(format!(
                "|N| = {} ≠ s·log 2s = {}",
                self.graph.num_right(),
                s * (self.levels + 1)
            ));
        }
        // (2) left degrees
        for u in 0..s {
            if self.graph.left_degree(u) != 2 * s - 1 {
                return Err(format!(
                    "deg({u}) = {} ≠ 2s − 1 = {}",
                    self.graph.left_degree(u),
                    2 * s - 1
                ));
            }
        }
        // (3) right degrees
        if self.graph.max_right_degree() != s {
            return Err(format!(
                "max right degree {} ≠ s = {s}",
                self.graph.max_right_degree()
            ));
        }
        let avg_right = self.graph.average_right_degree();
        if avg_right > 2.0 * s as f64 / log2s + 1e-9 {
            return Err(format!(
                "average right degree {avg_right} exceeds 2s/log 2s = {}",
                2.0 * s as f64 / log2s
            ));
        }
        // (4) and (5) on the provided subsets
        for s_prime in subsets {
            if s_prime.is_empty() {
                continue;
            }
            let neigh = self.graph.neighborhood_of_left_subset(s_prime).len() as f64;
            if neigh + 1e-9 < log2s * s_prime.len() as f64 {
                return Err(format!(
                    "|Γ(S')| = {neigh} < log(2s)·|S'| = {} for S' of size {}",
                    log2s * s_prime.len() as f64,
                    s_prime.len()
                ));
            }
            let uniq = self.graph.unique_coverage(s_prime);
            if uniq > 2 * s {
                return Err(format!(
                    "|Γ¹_S(S')| = {uniq} > 2s = {} for S' of size {}",
                    2 * s,
                    s_prime.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wx_spokesman::SpokesmanSolver;

    #[test]
    fn sizes_and_degrees_match_lemma() {
        for s in [1usize, 2, 4, 8, 16, 32] {
            let cg = CoreGraph::new(s).unwrap();
            let log2s = cg.levels + 1;
            assert_eq!(cg.graph.num_left(), s);
            assert_eq!(cg.graph.num_right(), s * log2s);
            for u in 0..s {
                assert_eq!(cg.graph.left_degree(u), 2 * s - 1, "s = {s}, leaf {u}");
            }
            assert_eq!(cg.graph.max_right_degree(), s);
            assert!(cg.graph.average_right_degree() <= 2.0 * s as f64 / log2s as f64 + 1e-9);
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CoreGraph::new(0).is_err());
        assert!(CoreGraph::new(3).is_err());
        assert!(CoreGraph::new(12).is_err());
    }

    #[test]
    fn root_block_is_shared_by_all_leaves() {
        let cg = CoreGraph::new(8).unwrap();
        let root = cg.block(1);
        assert_eq!(root.len, 8);
        for w in root.start..root.start + root.len {
            assert_eq!(cg.graph.right_degree(w), 8);
        }
        // leaf blocks are private; leaf `i` is heap node `s + i`
        for leaf in 0..8 {
            let blk = cg.block(cg.s + leaf);
            assert_eq!(blk.len, 1);
            assert_eq!(cg.graph.right_degree(blk.start), 1);
        }
    }

    #[test]
    fn expansion_lower_bound_holds_on_all_singletons_and_random_subsets() {
        let cg = CoreGraph::new(16).unwrap();
        let mut subsets: Vec<VertexSet> = (0..16).map(|v| VertexSet::from_iter(16, [v])).collect();
        let mut rng = wx_graph::random::rng_from_seed(5);
        for _ in 0..40 {
            let k = rng.gen_range(1..=16);
            subsets.push(wx_graph::random::random_subset_of_size(&mut rng, 16, k));
        }
        subsets.push(VertexSet::full(16));
        cg.verify_lemma_4_4(&subsets).unwrap();
    }

    #[test]
    fn consecutive_leaves_expansion_and_full_set_tightness() {
        // The |Γ(S')| ≥ log(2s)·|S'| bound holds for every prefix of
        // consecutive leaves and is met with equality when S' = S (the full
        // leaf set reaches exactly the whole of N, |N| = s·log 2s).
        let cg = CoreGraph::new(16).unwrap();
        for k in [1usize, 2, 4, 8, 16] {
            let s_prime = VertexSet::from_iter(16, 0..k);
            let neigh = cg.graph.neighborhood_of_left_subset(&s_prime).len();
            let bound = (cg.levels + 1) * k;
            assert!(neigh >= bound, "k = {k}: Γ = {neigh} < bound {bound}");
        }
        let full = VertexSet::full(16);
        assert_eq!(
            cg.graph.neighborhood_of_left_subset(&full).len(),
            (cg.levels + 1) * 16
        );
    }

    #[test]
    fn wireless_coverage_upper_bound_is_respected_exactly_on_small_instance() {
        // Exact spokesman optimum on s = 8 must not exceed 2s = 16.
        let cg = CoreGraph::new(8).unwrap();
        let (opt, _) = wx_spokesman::ExactSolver::optimum(&cg.graph);
        assert!(
            opt <= cg.unique_coverage_upper_bound(),
            "optimum {opt} > 2s"
        );
        // ... and the full set S' = S achieves strictly less than |N|.
        let full_cov = cg.graph.unique_coverage(&VertexSet::full(8));
        assert!(full_cov < cg.num_right());
    }

    #[test]
    fn wireless_fraction_decays_like_two_over_log2s() {
        // |Γ¹| / |N| ≤ 2/log(2s): the defining gap of the negative result.
        for s in [4usize, 16, 64] {
            let cg = CoreGraph::new(s).unwrap();
            let bound_fraction = 2.0 / (cg.levels as f64 + 1.0);
            // use the portfolio to get a good S'; even the best found subset
            // must respect the structural upper bound
            let result = wx_spokesman::PortfolioSolver::default().solve(&cg.graph, 7);
            let fraction = result.unique_coverage as f64 / cg.num_right() as f64;
            assert!(
                fraction <= bound_fraction + 1e-9,
                "s = {s}: fraction {fraction} exceeds 2/log2s = {bound_fraction}"
            );
        }
    }

    #[test]
    fn single_leaf_core_graph() {
        let cg = CoreGraph::new(1).unwrap();
        assert_eq!(cg.graph.num_left(), 1);
        assert_eq!(cg.graph.num_right(), 1);
        assert_eq!(cg.graph.left_degree(0), 1);
    }

    #[test]
    fn blocks_partition_the_right_side() {
        let cg = CoreGraph::new(8).unwrap();
        let mut covered = vec![false; cg.num_right()];
        for node in 1..16 {
            let blk = cg.block(node);
            for (w, slot) in covered.iter_mut().enumerate().skip(blk.start).take(blk.len) {
                assert!(!*slot, "block overlap at {w}");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }
}
