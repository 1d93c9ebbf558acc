//! Candidate-set generation for expansion estimation.
//!
//! The expansion notions are minima over exponentially many sets, so on
//! graphs too large for exact enumeration we estimate them by evaluating the
//! per-set quantity on a pool of candidate sets. Every pool holds all `n`
//! singletons, and three generators add larger sets:
//!
//! * **uniform random** subsets of each target size — unbiased but rarely
//!   close to the true minimizer;
//! * **BFS balls** around each (sampled) center — localized sets that tend to
//!   have small boundaries, a classic low-expansion family (the ball at each
//!   radius where it first reaches a power of two, and the largest one);
//! * **adversarial greedy growth** — starting from a vertex, repeatedly add
//!   the outside vertex that *minimizes* the resulting boundary, a local
//!   search towards the minimizing set.
//!
//! The singletons are never built as sets. On a simple graph `{v}` scores
//! `deg(v)` under all three notions, so the engine takes the singleton
//! block's minimum with one O(n) degree scan, and the pool stores only the
//! sets of size ≥ 2. The flat index of a candidate (its position in the pool
//! with the singletons sorted in) is given by [`CandidateSets::flat_index`]
//! and [`CandidateSets::singleton_index`].
//!
//! All generators are deterministic given the seed, and the pool of candidate
//! sets is shared by the ordinary / unique / wireless estimators so their
//! results are directly comparable (Observation 2.1 must hold set-by-set).

use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wx_graph::random::{derive_seed, rng_from_seed};
use wx_graph::traversal::bfs;
use wx_graph::{GraphView, VertexSet};

/// Configuration for the candidate-set sampler: one of two presets,
/// [`SamplerConfig::default`] and [`SamplerConfig::light`]. The size bound
/// `α` is not part of it: the engine owns `α` and passes it to
/// [`CandidateSets::generate`].
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Number of uniform random sets per target size.
    random_sets_per_size: usize,
    /// Target sizes as fractions of `α·n` (e.g. `[0.25, 0.5, 1.0]`).
    size_fractions: Vec<f64>,
    /// Number of BFS-ball centers to sample.
    ball_centers: usize,
    /// Number of adversarial greedy growths to run.
    greedy_growths: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            random_sets_per_size: 16,
            size_fractions: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            ball_centers: 8,
            greedy_growths: 4,
        }
    }
}

impl SamplerConfig {
    /// A lighter configuration for inner loops and sweeps over many graphs.
    pub fn light() -> Self {
        SamplerConfig {
            random_sets_per_size: 4,
            size_fractions: vec![0.25, 0.5, 1.0],
            ball_centers: 3,
            greedy_growths: 2,
        }
    }
}

/// The maximum candidate-set size for a graph on `n` vertices: `⌊α·n⌋`, but
/// at least 1 so that a non-empty graph always has candidates (and 0 for the
/// empty graph). Exact enumeration and sampling share this one cap.
pub fn max_set_size(alpha: f64, n: usize) -> usize {
    ((alpha * n as f64).floor() as usize).max(1).min(n)
}

/// A pool of candidate sets for expansion estimation: the `n` singletons
/// `{0}, …, {n−1}`, held implicitly, and the stored sets of size ≥ 2.
///
/// The pool's *flat order* sorts all of its sets by member list, so the
/// singleton `{v}` comes right before the stored sets whose smallest member
/// is `v`. Stored set `j` thus has flat index `j + min(S_j) + 1`, and the
/// singleton `{v}` has flat index `v + #{j : min(S_j) < v}`. The engine
/// seeds each evaluation and breaks ties by flat index.
#[derive(Clone, Debug)]
pub struct CandidateSets {
    /// The stored candidate sets, each of size `2..=⌊α·n⌋`, sorted by
    /// member list and free of duplicates.
    pub sets: Vec<VertexSet>,
    /// The vertex count `n`, one implicit singleton per vertex.
    num_vertices: usize,
}

impl CandidateSets {
    /// Generates the candidate pool for `g` under `config`, with sets of at
    /// most [`max_set_size`]`(alpha, n)` vertices, seeded by `seed`.
    ///
    /// The singletons cost nothing here: the engine scans them by degree.
    /// The stored sets are `random_sets_per_size` dense uniform draws per
    /// size fraction, the BFS-ball prefixes around `ball_centers` shuffled
    /// centers, and the greedy growths, all up to `⌊α·n⌋` vertices. Balls
    /// and growths each keep at most `log2(α·n) + 2` prefixes, whatever the
    /// diameter, so a pool stores O(log n) sets per generator. Each stored
    /// set is an n-bit [`VertexSet`], so the pool takes O(n) bits per stored
    /// set, and each random draw and each ball costs O(n) time on top of the
    /// volume it touches.
    ///
    /// Each greedy growth takes its next vertex from a lazy min-heap on
    /// marginal boundary cost rather than a scan of the whole boundary, so
    /// it costs O(vol · log vol) in the volume `vol` it touches.
    pub fn generate<G: GraphView + ?Sized>(
        g: &G,
        config: &SamplerConfig,
        alpha: f64,
        seed: u64,
    ) -> Self {
        Self::generate_with(g, config, alpha, seed, grow_greedily)
    }

    /// [`CandidateSets::generate`] with the greedy growth as a parameter,
    /// so the tests can build the same pool with the boundary-scan oracle.
    fn generate_with<G: GraphView + ?Sized>(
        g: &G,
        config: &SamplerConfig,
        alpha: f64,
        seed: u64,
        grow: fn(&G, usize, usize, &mut Vec<VertexSet>),
    ) -> Self {
        let n = g.num_vertices();
        let mut sets: Vec<VertexSet> = Vec::new();
        if n == 0 {
            return CandidateSets {
                sets,
                num_vertices: 0,
            };
        }
        let max_size = max_set_size(alpha, n);
        let mut rng = rng_from_seed(derive_seed(seed, 0));

        // Uniform random sets per target size. Seeds are derived by *nested*
        // derivation — one child seed per size fraction, then one grandchild
        // per set — so the streams stay distinct for any pool size. (A
        // single-level `1000 + fi*131 + t` stride made adjacent size
        // fractions reuse seeds, and hence emit duplicate candidate sets,
        // whenever `random_sets_per_size > 131`.)
        for (fi, &frac) in config.size_fractions.iter().enumerate() {
            let k = ((frac * max_size as f64).round() as usize).clamp(1, max_size);
            let fraction_seed = derive_seed(seed, 1 + fi as u64);
            for t in 0..config.random_sets_per_size {
                let mut trial_rng = rng_from_seed(derive_seed(fraction_seed, t as u64));
                sets.push(wx_graph::random::random_subset_of_size(
                    &mut trial_rng,
                    n,
                    k,
                ));
            }
        }

        // BFS balls around sampled centers, truncated to the size cap.
        let mut centers: Vec<usize> = (0..n).collect();
        centers.shuffle(&mut rng);
        centers.truncate(config.ball_centers);
        for &c in centers.iter() {
            let res = bfs(g, c);
            // Bucket the reachable vertices by distance in one O(n) pass
            // (each bucket in vertex-index order); a per-radius re-scan of
            // the distances was an O(n·diameter) hotspot on high-diameter
            // large-n families.
            let mut layers: Vec<Vec<usize>> = vec![Vec::new(); res.eccentricity + 1];
            for (v, &d) in res.dist.iter().enumerate() {
                if d != usize::MAX {
                    layers[d].push(v);
                }
            }
            // The ball in BFS order, layer by layer until the cap is hit, and
            // the length of each whole-layer prefix.
            let mut ball: Vec<usize> = Vec::new();
            let mut radius_ends: Vec<usize> = Vec::new();
            'outer: for layer in &layers {
                for &v in layer {
                    if ball.len() >= max_size {
                        break 'outer;
                    }
                    ball.push(v);
                }
                radius_ends.push(ball.len());
            }
            // Record the prefix balls (nested candidates) that first reach
            // each power of two, and the largest one: at most
            // log2(max_size) + 2 per center, whatever the diameter.
            let mut next = 1;
            for (r, &end) in radius_ends.iter().enumerate() {
                if end >= next || r + 1 == radius_ends.len() {
                    sets.push(VertexSet::from_iter(n, ball[..end].iter().copied()));
                    next = (end + 1).next_power_of_two();
                }
            }
        }

        // Adversarial greedy growth from seeded starting vertices; see
        // `grow_greedily`. One span covers all of a pool's growths.
        {
            let _span = wx_trace::span("sampler.greedy_growth");
            for t in 0..config.greedy_growths {
                let mut grow_rng = rng_from_seed(derive_seed(seed, 5000 + t as u64));
                let start = grow_rng.gen_range(0..n);
                grow(g, start, max_size, &mut sets);
            }
        }

        // Keep the sets of size 2..=max_size (the singleton block already
        // holds every size-1 set), then sort by member list and dedup.
        sets.retain(|s| s.len() >= 2 && s.len() <= max_size);
        sets.sort_by(|a, b| a.iter().cmp(b.iter()));
        sets.dedup();
        wx_trace::count(wx_trace::CounterId::SamplerDraws, (n + sets.len()) as u64);

        CandidateSets {
            sets,
            num_vertices: n,
        }
    }

    /// Number of candidate sets in the pool: `n` singletons plus the
    /// stored sets.
    pub fn len(&self) -> usize {
        self.num_vertices + self.sets.len()
    }

    /// `true` if the pool is empty (the graph has no vertices).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number `n` of implicit singletons.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The flat index of stored set `j`: `j + min(S_j) + 1`, since exactly
    /// the singletons `{0}, …, {min(S_j)}` sort before it.
    pub fn flat_index(&self, j: usize) -> usize {
        j + smallest_member(&self.sets[j]) + 1
    }

    /// The flat index of the singleton `{v}`: `v` plus the number of stored
    /// sets whose smallest member is below `v`.
    pub fn singleton_index(&self, v: usize) -> usize {
        v + self.sets.partition_point(|s| smallest_member(s) < v)
    }
}

/// The smallest member of a stored (hence non-empty) candidate set.
fn smallest_member(s: &VertexSet) -> usize {
    s.iter().next().unwrap_or(usize::MAX)
}

/// Adversarial greedy growth from `start`: repeatedly adds the boundary
/// vertex with the fewest *fresh* neighbors (neighbors in neither the set
/// nor its boundary), the smallest id among ties, so each step grows the
/// external boundary as little as possible. Stops at `cap` vertices or when
/// the boundary empties, and records the set at every power-of-two size and
/// at `cap` (the prefixes keep the pool small even when a growth runs to
/// thousands of vertices).
///
/// Each step pops a lazy min-heap instead of scanning the boundary, so a
/// growth costs O(vol · log vol) for the volume `vol` it touches. Vertices
/// only ever join `set ∪ boundary`, so a fresh count never increases: it
/// drops by one for each neighbor that enters the boundary, and every drop
/// pushes the new `(fresh, v)` key. A boundary vertex's current key is
/// thus its smallest entry, so the first entry popped for any boundary
/// vertex is the boundary's lexicographic minimum of `(fresh, v)`: the
/// vertex a scan in ascending order picks first. Entries of vertices
/// already in the set are stale and skipped.
fn grow_greedily<G: GraphView + ?Sized>(
    g: &G,
    start: usize,
    cap: usize,
    sets: &mut Vec<VertexSet>,
) {
    let n = g.num_vertices();
    let mut growth = Growth {
        set: VertexSet::empty(n),
        boundary: VertexSet::empty(n),
        fresh: vec![0; n],
        heap: BinaryHeap::new(),
    };
    let mut next = Some(start);
    while let Some(v) = next {
        growth.add(g, v);
        let len = growth.set.len();
        if len.is_power_of_two() || len == cap {
            sets.push(growth.set.clone());
        }
        next = if len < cap { growth.pop_min() } else { None };
    }
}

/// The state of one [`grow_greedily`] run.
struct Growth {
    set: VertexSet,
    boundary: VertexSet,
    /// For each boundary vertex, its neighbors outside `set ∪ boundary`.
    fresh: Vec<u32>,
    /// `(fresh, v)` keys, popped smallest first; see [`grow_greedily`].
    heap: BinaryHeap<Reverse<(u32, usize)>>,
}

impl Growth {
    /// Moves `v` into the set; its outside neighbors join the boundary.
    fn add<G: GraphView + ?Sized>(&mut self, g: &G, v: usize) {
        self.set.insert(v);
        self.boundary.remove(v);
        for u in g.neighbors_iter(v) {
            if !self.set.contains(u) && !self.boundary.contains(u) {
                self.bound(g, u);
            }
        }
    }

    /// Moves the outside vertex `u` into the boundary: each boundary
    /// neighbor loses a fresh neighbor, and `u`'s own count is taken.
    fn bound<G: GraphView + ?Sized>(&mut self, g: &G, u: usize) {
        for w in g.neighbors_iter(u) {
            if self.boundary.contains(w) {
                self.fresh[w] -= 1;
                self.heap.push(Reverse((self.fresh[w], w)));
            }
        }
        self.boundary.insert(u);
        let fresh = g
            .neighbors_iter(u)
            .filter(|&w| !self.set.contains(w) && !self.boundary.contains(w))
            .count();
        self.fresh[u] = fresh as u32;
        self.heap.push(Reverse((self.fresh[u], u)));
    }

    /// The boundary vertex with the fewest fresh neighbors (smallest id
    /// among ties), or `None` once the boundary is empty.
    fn pop_min(&mut self) -> Option<usize> {
        while let Some(Reverse((fresh, v))) = self.heap.pop() {
            if self.boundary.contains(v) {
                debug_assert_eq!(fresh, self.fresh[v], "a live entry carries the current key");
                return Some(v);
            }
        }
        None
    }
}

/// Hard cap on the number of sets [`all_small_sets`] will enumerate
/// (`2^22`, the historical `n ≤ 22` full-enumeration worst case).
pub const EXACT_ENUMERATION_BUDGET: usize = 1 << 22;

/// `Σ_{k=1}^{max_size} C(n, k)`, saturating at `usize::MAX` once it exceeds
/// [`EXACT_ENUMERATION_BUDGET`].
fn count_small_sets(n: usize, max_size: usize) -> usize {
    let mut total = 0usize;
    let mut binom = 1usize; // C(n, 0)
    for k in 1..=max_size.min(n) {
        // running product stays exactly divisible: C(n,k) = C(n,k-1)·(n-k+1)/k
        binom = binom.saturating_mul(n - k + 1) / k;
        total = total.saturating_add(binom);
        if total > EXACT_ENUMERATION_BUDGET {
            return usize::MAX;
        }
    }
    total
}

/// `true` if [`all_small_sets`]`(n, max_size)` stays within
/// [`EXACT_ENUMERATION_BUDGET`] sets.
pub(crate) fn exact_enumeration_fits(n: usize, max_size: usize) -> bool {
    count_small_sets(n, max_size) <= EXACT_ENUMERATION_BUDGET
}

/// Enumerates *every* non-empty subset of `0..n` with size at most
/// `max_size`, for exact expansion computation.
///
/// For `n ≤ 22` this walks all `2^n` bitmasks (preserving the historical
/// enumeration order, which tie-breaking witnesses depend on). For larger
/// `n` it enumerates combinations size by size in lexicographic order, so
/// exact measurement stays feasible on wider graphs whenever the size cap
/// keeps the count under [`EXACT_ENUMERATION_BUDGET`] — e.g. `n = 24` with
/// `⌊α·n⌋ = 3` is ~2.3k sets, not `2^24`.
///
/// # Panics
/// Panics if the enumeration would exceed [`EXACT_ENUMERATION_BUDGET`] sets
/// (callers check first with
/// [`MeasurementEngine::exact_within_budget`](crate::engine::MeasurementEngine::exact_within_budget)).
pub fn all_small_sets(n: usize, max_size: usize) -> Vec<VertexSet> {
    let max_size = max_size.min(n);
    if n <= 22 {
        let mut sets = Vec::new();
        for mask in 1u32..(1u32 << n) {
            let size = mask.count_ones() as usize;
            if size > max_size {
                continue;
            }
            sets.push(VertexSet::from_iter(
                n,
                (0..n).filter(|&v| (mask >> v) & 1 == 1),
            ));
        }
        return sets;
    }
    assert!(
        exact_enumeration_fits(n, max_size),
        "exact enumeration of sets up to size {max_size} over {n} vertices exceeds \
         the budget of {EXACT_ENUMERATION_BUDGET} sets; reduce alpha or sample instead"
    );
    let mut sets = Vec::with_capacity(count_small_sets(n, max_size));
    for k in 1..=max_size {
        let mut comb: Vec<usize> = (0..k).collect();
        loop {
            sets.push(VertexSet::from_iter(n, comb.iter().copied()));
            // advance to the next k-combination in lexicographic order
            let Some(i) = (0..k).rev().find(|&i| comb[i] < n - k + i) else {
                break;
            };
            comb[i] += 1;
            for j in i + 1..k {
                comb[j] = comb[j - 1] + 1;
            }
        }
    }
    sets
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use wx_graph::{Graph, ImplicitFamily, ImplicitGraph};

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    /// The boundary scan [`grow_greedily`] replaced: every step rescans the
    /// whole boundary for the first vertex with the fewest fresh neighbors.
    /// Kept unchanged as the oracle the heap must reproduce set for set.
    fn grow_by_scan<G: GraphView + ?Sized>(
        g: &G,
        start: usize,
        growth_cap: usize,
        sets: &mut Vec<VertexSet>,
    ) {
        let n = g.num_vertices();
        let mut current = VertexSet::from_iter(n, [start]);
        let mut boundary = wx_graph::neighborhood::external_neighborhood(g, &current);
        sets.push(current.clone());
        while current.len() < growth_cap && !boundary.is_empty() {
            // the first boundary vertex with the fewest fresh neighbors
            let fresh = |v: usize| {
                g.neighbors_iter(v)
                    .filter(|&u| !current.contains(u) && !boundary.contains(u))
                    .count()
            };
            let v = boundary
                .iter()
                .min_by_key(|&v| fresh(v))
                .expect("non-empty boundary");
            current.insert(v);
            boundary.remove(v);
            for u in g.neighbors_iter(v) {
                if !current.contains(u) {
                    boundary.insert(u);
                }
            }
            if current.len().is_power_of_two() || current.len() == growth_cap {
                sets.push(current.clone());
            }
        }
    }

    /// A sampler that runs greedy growths only, so the pool is exactly
    /// their recorded prefixes (sorted and deduplicated).
    fn growth_only() -> SamplerConfig {
        SamplerConfig {
            random_sets_per_size: 0,
            size_fractions: vec![],
            ball_centers: 0,
            greedy_growths: 4,
        }
    }

    /// The heap pool and the scan-oracle pool of `g`, member lists in order.
    fn heap_and_scan_pools<G: GraphView + ?Sized>(
        g: &G,
        alpha: f64,
        seed: u64,
    ) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let config = growth_only();
        let members = |pool: CandidateSets| pool.sets.iter().map(|s| s.to_vec()).collect();
        (
            members(CandidateSets::generate(g, &config, alpha, seed)),
            members(CandidateSets::generate_with(
                g,
                &config,
                alpha,
                seed,
                grow_by_scan,
            )),
        )
    }

    /// A random irregular graph on `n` vertices with edges only inside the
    /// residue classes `v % components`: several components, and isolated
    /// vertices when sparse, so growths can exhaust their component before
    /// the cap.
    pub(crate) fn random_graph(n: usize, components: usize, edges: usize, seed: u64) -> Graph {
        let mut rng = rng_from_seed(seed);
        let pairs = (0..edges)
            .map(|_| {
                let u = rng.gen_range(0..n);
                let class = u % components;
                let v = class + components * rng.gen_range(0..(n - class).div_ceil(components));
                (u, v)
            })
            .filter(|&(u, v)| u != v)
            .collect::<Vec<_>>();
        Graph::from_edges(n, pairs).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The heap growth records exactly the scan's sets, on irregular
        /// multi-component graphs whose universes cross 64-bit word
        /// boundaries, for α up to 1: one growth's records before the
        /// pool's sort and dedup, and the whole pool in order.
        #[test]
        fn heap_growth_matches_the_scan_oracle(
            n in 1usize..=200,
            shape in (1usize..=4, 0usize..=4),
            alpha_percent in 1usize..=100,
            seed in any::<u64>(),
        ) {
            let (components, edges_per_vertex) = shape;
            let g = random_graph(n, components, edges_per_vertex * n, seed);
            let alpha = alpha_percent as f64 / 100.0;
            let (start, cap) = ((seed % n as u64) as usize, max_set_size(alpha, n));
            let (mut heap, mut scan) = (Vec::new(), Vec::new());
            grow_greedily(&g, start, cap, &mut heap);
            grow_by_scan(&g, start, cap, &mut scan);
            prop_assert_eq!(heap, scan);
            let (heap, scan) = heap_and_scan_pools(&g, alpha, seed);
            prop_assert_eq!(heap, scan);
        }
    }

    #[test]
    fn heap_growth_matches_the_scan_oracle_on_implicit_families() {
        // Regular families tie often, so the id tie-break decides many
        // steps.
        for g in [
            ImplicitGraph::new(ImplicitFamily::Torus { rows: 3, cols: 50 }).unwrap(),
            ImplicitGraph::new(ImplicitFamily::CyclePower { n: 150, power: 3 }).unwrap(),
            ImplicitGraph::hypercube(7).unwrap(),
        ] {
            let (heap, scan) = heap_and_scan_pools(&g, 1.0, 11);
            assert_eq!(heap, scan, "{g:?}");
        }
        // Q_14 (16 384 vertices) at α = 1/32: growths run to 512 vertices,
        // which keeps the scan oracle cheap.
        let g = ImplicitGraph::hypercube(14).unwrap();
        let (heap, scan) = heap_and_scan_pools(&g, 1.0 / 32.0, 5);
        assert_eq!(heap.iter().map(Vec::len).max(), Some(512));
        assert_eq!(heap, scan);
    }

    #[test]
    fn generated_sets_respect_size_cap() {
        let g = cycle(20);
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 1);
        let cap = max_set_size(0.5, 20);
        assert!(!pool.is_empty());
        for s in &pool.sets {
            assert!(!s.is_empty());
            assert!(s.len() <= cap, "set of size {} exceeds cap {cap}", s.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = cycle(16);
        let cfg = SamplerConfig::light();
        let a = CandidateSets::generate(&g, &cfg, 0.4, 7);
        let b = CandidateSets::generate(&g, &cfg, 0.4, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.sets.iter().zip(b.sets.iter()) {
            assert_eq!(x.to_vec(), y.to_vec());
        }
    }

    #[test]
    fn includes_singletons_when_requested() {
        // Every singleton is in the pool, implicitly: the stored sets have
        // at least two members, and the flat indices of the singletons and
        // the stored sets together number the pool in member-list order.
        let g = cycle(10);
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 3);
        assert!(pool.sets.iter().all(|s| s.len() >= 2));
        assert_eq!(pool.len(), 10 + pool.sets.len());
        let mut flat: Vec<(usize, Vec<usize>)> = (0..10)
            .map(|v| (pool.singleton_index(v), vec![v]))
            .chain((0..pool.sets.len()).map(|j| (pool.flat_index(j), pool.sets[j].to_vec())))
            .collect();
        flat.sort();
        assert!(flat.iter().enumerate().all(|(i, (index, _))| i == *index));
        assert!(flat.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn random_set_seeds_are_distinct_for_large_pools() {
        // Regression: the old single-level derivation
        // `derive_seed(seed, 1000 + fi*131 + t)` collided across adjacent
        // size-fraction indices as soon as random_sets_per_size > 131. The
        // nested derivation must produce pairwise-distinct seeds for every
        // (fraction, set) pair, even for pools far past the old stride.
        let seed = 42u64;
        let fractions = 5usize;
        let sets_per_size = 500usize;
        let mut seen = std::collections::HashSet::new();
        for fi in 0..fractions {
            let fraction_seed = derive_seed(seed, 1 + fi as u64);
            for t in 0..sets_per_size {
                assert!(
                    seen.insert(derive_seed(fraction_seed, t as u64)),
                    "duplicate seed at fraction {fi}, set {t}"
                );
            }
        }
        assert_eq!(seen.len(), fractions * sets_per_size);
    }

    #[test]
    fn oversize_pools_draw_distinct_random_sets() {
        // End to end: with random_sets_per_size past the old 131 stride the
        // generator must not silently emit duplicate candidate sets. Both
        // fractions round to the same target size k = 200, so under the old
        // `1000 + fi*131 + t` derivation the seed collisions between
        // adjacent fractions (fi=0, t ≥ 131 vs fi=1, t − 131) would draw
        // literally identical sets, which the pool's final dedup would then
        // silently drop — shrinking the pool below 2 × 140. With nested
        // derivation every draw is independent and (overwhelmingly) distinct.
        let g = cycle(400);
        let cfg = SamplerConfig {
            random_sets_per_size: 140,
            size_fractions: vec![0.999, 1.0],
            ball_centers: 0,
            greedy_growths: 0,
        };
        let pool = CandidateSets::generate(&g, &cfg, 0.5, 9);
        assert_eq!(
            pool.sets.len(),
            280,
            "candidate sets were lost to seed reuse"
        );
    }

    #[test]
    fn ball_prefixes_stay_logarithmic_on_high_diameter_graphs() {
        // A cycle's ball grows by two vertices per radius, so one prefix per
        // radius would store about n/4 sets per center. The pool keeps the
        // balls that first reach each power of two and the largest one,
        // 2r + 1 = 9999 ≤ ⌊n/2⌋ (the size-1 ball is an implicit singleton).
        let g = ImplicitGraph::new(ImplicitFamily::CyclePower {
            n: 20_000,
            power: 1,
        })
        .unwrap();
        let cfg = SamplerConfig {
            random_sets_per_size: 0,
            size_fractions: vec![],
            ball_centers: 3,
            greedy_growths: 0,
        };
        let pool = CandidateSets::generate(&g, &cfg, 0.5, 7);
        let mut sizes: Vec<usize> = pool.sets.iter().map(VertexSet::len).collect();
        sizes.sort_unstable();
        let per_center = (1..=13).map(|k| (1 << k) + 1).chain([9999]);
        let mut expected: Vec<usize> = per_center.flat_map(|s| [s; 3]).collect();
        expected.sort_unstable();
        assert_eq!(sizes, expected);
    }

    #[test]
    fn threshold_graphs_keep_the_historical_pool_shape() {
        // n singletons, held implicitly, and stored sets up to ⌊α·n⌋.
        let g = cycle(100);
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 1);
        assert_eq!(pool.num_vertices(), 100);
        assert!(pool.sets.iter().all(|s| s.len() >= 2));
        assert_eq!(
            pool.sets.iter().map(|s| s.len()).max().unwrap(),
            max_set_size(0.5, 100)
        );
    }

    #[test]
    fn empty_graph_yields_empty_pool() {
        let g = Graph::empty(0);
        let pool = CandidateSets::generate(&g, &SamplerConfig::default(), 0.5, 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn max_set_size_is_at_least_one() {
        assert_eq!(max_set_size(0.01, 10), 1);
        assert_eq!(max_set_size(0.01, 1000), 10);
    }

    #[test]
    fn max_set_size_on_tiny_graphs() {
        // ⌊α·n⌋ clamped to 1..=n, and 0 on the empty graph (where a clamp to
        // 1..=0 used to panic)
        for (alpha, sizes) in [(0.1, [0, 1, 1]), (0.5, [0, 1, 5]), (1.0, [0, 1, 10])] {
            let got = [0, 1, 10].map(|n| max_set_size(alpha, n));
            assert_eq!(got, sizes, "alpha {alpha}");
        }
    }

    #[test]
    fn all_small_sets_counts() {
        let sets = all_small_sets(4, 4);
        assert_eq!(sets.len(), 15);
        let sets = all_small_sets(4, 2);
        assert_eq!(sets.len(), 4 + 6);
        for s in &sets {
            assert!(s.len() <= 2);
        }
    }

    #[test]
    fn all_small_sets_combination_path_matches_mask_path_counts() {
        // n = 30 with a small cap used to panic; now it enumerates
        // C(30,1) + C(30,2) = 465 sets, each within the cap and deduplicated.
        let sets = all_small_sets(30, 2);
        assert_eq!(sets.len(), 30 + 435);
        let mut seen: Vec<Vec<usize>> = sets.iter().map(|s| s.to_vec()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), sets.len());
        assert!(sets.iter().all(|s| !s.is_empty() && s.len() <= 2));
    }

    #[test]
    fn combination_and_mask_paths_agree_on_the_set_family() {
        // same n, same cap: the two enumeration strategies must produce the
        // same family of sets (order may differ)
        let by_mask: std::collections::BTreeSet<Vec<usize>> =
            all_small_sets(10, 3).iter().map(|s| s.to_vec()).collect();
        // force the combination path through a wider-universe prefix trick:
        // enumerate over 10 vertices via the public API is mask-based, so
        // instead cross-check against the binomial count
        assert_eq!(by_mask.len(), 10 + 45 + 120);
        assert_eq!(super::count_small_sets(10, 3), 10 + 45 + 120);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn all_small_sets_rejects_astronomic_enumeration() {
        all_small_sets(64, 32);
    }
}
