//! The randomized decay-style sampler of Lemmas 4.2 and 4.3.
//!
//! Lemma 4.2 (the case `β ≥ 1`, i.e. `|N| ≥ |S|`): restrict attention to the
//! right vertices of degree at most `2δ_N` (at least half of `N`), bucket
//! them dyadically by degree, and for the bucket `N_j` with degrees in
//! `[2^j, 2^{j+1})` sample every left vertex independently with probability
//! `2^{-j}`. Each vertex of `N_j` then has exactly one sampled neighbor with
//! probability at least `e^{-3}`, so some sample uniquely covers
//! `Ω(|N| / log 2δ_N)` vertices.
//!
//! Lemma 4.3 (the case `β < 1`): first restrict the *left* side to vertices
//! of degree at most `2δ_S`, thin it to a subset `S''` with `|S''| ≤ |N'|`
//! that still covers the same neighborhood `N' = Γ(S')` (greedy new-vertex
//! rule), and then apply the Lemma 4.2 sampler to the induced instance.
//!
//! The solver runs both pipelines (they coincide when `β ≥ 1` up to the
//! harmless left-restriction) over every dyadic level and eight independent
//! trials per level, and returns the best subset found. It is the direct
//! implementation of the paper's "extremely simple" randomized solution to
//! the Spokesman Election problem (Section 4.2.1).
//!
//! Every sample is drawn in bulk and scored in place by
//! the crate's one Bernoulli sampler: the ChaCha kernel packs one
//! `gen_bool(2^{-j})` per pool vertex, in ascending order, straight into a
//! word buffer, the very stream the scalar per-vertex filter consumes. Level
//! 0 (`p = 1`) keeps the whole pool in each of its trials, so it is scored
//! once; the first of equal samples wins, so the result is the same.

use crate::sample::BernoulliSampler;
use crate::solver::{SolverKind, SpokesmanResult, SpokesmanSolver};
use wx_graph::random::derive_seed;
use wx_graph::{BipartiteGraph, VertexSet};

/// Independent samples drawn per dyadic probability level, by Random Decay
/// and by [`crate::ChlamtacWeinsteinSolver`]. The paper's existence argument
/// needs only the expectation; a handful of trials gets within noise of it.
const TRIALS_PER_LEVEL: usize = 8;

/// The randomized decay sampler (Lemmas 4.2 and 4.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomDecaySolver;

impl RandomDecaySolver {
    /// Number of dyadic levels to sweep: enough to reach sampling probability
    /// `1/(2·max_degree)`, the lowest level the proof of Lemma 4.2 ever needs.
    fn levels_for(g: &BipartiteGraph) -> u32 {
        let d = g.max_right_degree().max(1) as f64;
        (2.0 * d).log2().ceil().max(1.0) as u32
    }

    /// The Lemma 4.3 preprocessing: restrict the left side to vertices of
    /// degree at most `2δ_S` and thin it so that `|S''| ≤ |Γ(S'')|` while
    /// preserving the covered neighborhood. Returns the thinned left pool.
    pub fn left_restriction_pool(g: &BipartiteGraph) -> VertexSet {
        let delta_s = g.average_left_degree();
        let cutoff = (2.0 * delta_s).floor().max(1.0) as usize;
        let mut pool = VertexSet::empty(g.num_left());
        let mut covered = VertexSet::empty(g.num_right());
        // Iterate over low-degree left vertices and keep a vertex only if it
        // covers a previously uncovered right vertex (the |S''| ≤ |N'| rule
        // in the proof of Lemma 4.3).
        for u in 0..g.num_left() {
            let d = g.left_degree(u);
            if d == 0 || d > cutoff {
                continue;
            }
            let covers_new = g.left_neighbors(u).iter().any(|&w| !covered.contains(w));
            if covers_new {
                pool.insert(u);
                for &w in g.left_neighbors(u) {
                    covered.insert(w);
                }
            }
        }
        pool
    }
}

/// The dyadic sampling sweep of Lemma 4.2, shared with
/// [`crate::ChlamtacWeinsteinSolver`]: for each level `j ≤ max_level` draw
/// `TRIALS_PER_LEVEL` samples that keep each vertex of `pool` with
/// probability `2^{-j}` (sample `t` seeded by `derive_seed(seed, j << 32 | t)`,
/// one draw per pool vertex in ascending order), and offer each to
/// `sampler`, which keeps the first sample with the best unique coverage over
/// the *whole* graph.
///
/// The draws come in bulk through [`BernoulliSampler::draw`]. Level 0 is
/// scored once, as the pool itself: at `p = 1` every draw keeps its vertex
/// (`gen_bool(1.0)` is always true), so its eight samples all equal the pool,
/// and ties keep the first, so the other seven could never win. Each sample
/// has its own seeded generator, so skipping their draws leaves every other
/// level's stream as it was.
pub(crate) fn dyadic_sweep(
    sampler: &mut BernoulliSampler,
    pool: &VertexSet,
    max_level: u32,
    seed: u64,
) {
    sampler.offer(pool);
    for j in 1..=max_level {
        let p = 0.5f64.powi(j as i32);
        for t in 0..TRIALS_PER_LEVEL {
            sampler.draw(pool, p, derive_seed(seed, (j as u64) << 32 | t as u64));
        }
    }
}

impl SpokesmanSolver for RandomDecaySolver {
    fn solve(&self, g: &BipartiteGraph, seed: u64) -> SpokesmanResult {
        let _span = wx_trace::span("spokesman.random_decay");
        if g.num_left() == 0 || g.num_right() == 0 || g.num_edges() == 0 {
            return SpokesmanResult::from_subset(
                SolverKind::RandomDecay,
                g,
                VertexSet::empty(g.num_left()),
            );
        }
        let levels = Self::levels_for(g);
        let mut sampler = BernoulliSampler::new(g);
        // Pipeline A (Lemma 4.2): all left vertices participate.
        let all = VertexSet::full(g.num_left());
        dyadic_sweep(&mut sampler, &all, levels, derive_seed(seed, 0xA));
        // Pipeline B (Lemma 4.3): restrict + thin the left side first. Its
        // samples come after A's, so B wins only by beating A's best.
        let pool = Self::left_restriction_pool(g);
        if !pool.is_empty() {
            dyadic_sweep(&mut sampler, &pool, levels, derive_seed(seed, 0xB));
        }
        SpokesmanResult::from_subset(SolverKind::RandomDecay, g, sampler.into_best())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wx_graph::random::rng_from_seed;

    fn random_instance(seed: u64, s: usize, n: usize, p: f64) -> BipartiteGraph {
        let mut rng = rng_from_seed(seed);
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
    fn star_fully_covered() {
        let g = BipartiteGraph::from_edges(1, 6, (0..6).map(|w| (0, w))).unwrap();
        let r = RandomDecaySolver.solve(&g, 1);
        assert_eq!(r.unique_coverage, 6);
    }

    #[test]
    fn empty_instances() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        assert_eq!(RandomDecaySolver.solve(&g, 0).unique_coverage, 0);
        let g = BipartiteGraph::from_edges(4, 4, []).unwrap();
        assert_eq!(RandomDecaySolver.solve(&g, 0).unique_coverage, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = random_instance(5, 12, 20, 0.3);
        let a = RandomDecaySolver.solve(&g, 77);
        let b = RandomDecaySolver.solve(&g, 77);
        assert_eq!(a.unique_coverage, b.unique_coverage);
        assert_eq!(a.subset.to_vec(), b.subset.to_vec());
    }

    #[test]
    fn different_seeds_still_meet_the_lemma_bound() {
        // Lemma 4.2 expectation bound (with its e^{-3}/2 constant):
        // coverage ≥ |N'| · e^{-3} / ⌈log 4δ_N⌉ is what a single level
        // achieves in expectation; the best-of sweep should clear the
        // conservative floor below on dense random instances.
        for seed in 0..10u64 {
            let g = random_instance(seed + 40, 16, 32, 0.35);
            let gamma = (0..g.num_right())
                .filter(|&w| g.right_degree(w) > 0)
                .count();
            let delta_n = g.num_edges() as f64 / gamma.max(1) as f64;
            let floor =
                (gamma as f64 * (-3.0f64).exp() / (2.0 * (2.0 * delta_n).log2().max(1.0))).floor();
            let r = RandomDecaySolver.solve(&g, seed);
            assert!(
                r.unique_coverage as f64 >= floor,
                "seed {seed}: coverage {} below conservative floor {floor}",
                r.unique_coverage
            );
        }
    }

    #[test]
    fn left_restriction_pool_covers_neighborhood() {
        let g = random_instance(9, 20, 10, 0.25);
        let pool = RandomDecaySolver::left_restriction_pool(&g);
        // The pool must cover every right vertex reachable from low-degree
        // left vertices that the greedy pass saw; in particular it is
        // non-empty whenever the graph has an edge from a low-degree vertex.
        if g.num_edges() > 0 {
            assert!(!pool.is_empty());
        }
        // Thinning rule: |S''| ≤ |Γ(S'')|.
        let covered = g.neighborhood_of_left_subset(&pool);
        assert!(pool.len() <= covered.len().max(1));
    }

    #[test]
    fn solver_reports_its_kind() {
        let g = BipartiteGraph::from_edges(2, 3, [(0, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(
            RandomDecaySolver.solve(&g, 1).solver,
            SolverKind::RandomDecay
        );
    }
}
