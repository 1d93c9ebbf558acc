//! Epoch-stamped scratch spaces for allocation-free neighborhood kernels.
//!
//! Every expansion notion in the paper reduces to counting vertices by their
//! number of neighbors inside a set: `|Γ⁻(S)|` counts vertices with ≥ 1
//! neighbor in `S`, `|Γ¹(S)|` those with exactly one, and the wireless inner
//! maximization repeats the same count for many subsets `S' ⊆ S`. The
//! original operators in [`crate::neighborhood`] materialized a fresh
//! [`VertexSet`] (an n-bit bitset) — or a fresh `vec![0; n]`
//! counter array — per evaluation, so the measurement engine's hot loop was
//! dominated by allocator churn rather than graph traversal.
//!
//! [`NeighborhoodScratch`] removes that: it owns a `mark` array of epoch tags
//! and a `count` array of in-set-neighbor counters, both sized to the vertex
//! universe and reused forever. "Resetting" the scratch is a single epoch
//! bump (O(1)); an entry is live only while `mark[v]` equals the current
//! epoch, so stale counts from previous evaluations are never observed and
//! never have to be zeroed. A `touched` list records which vertices were
//! written this epoch, so producing counts — and materializing witness sets
//! when a caller asks for one — costs O(work done), never O(n).
//!
//! The neighborhood primitives of Section 2.1 are exposed in two forms:
//!
//! * **counting kernels** (`count_*`) returning only sizes — these are the
//!   zero-allocation fast path the `wx_expansion::engine::MeasurementEngine`
//!   drives millions of times per sweep;
//! * **materializing variants** (without the `count_` prefix) returning a
//!   [`VertexSet`] — used only where an actual witness set is required.
//!
//! The free functions in [`crate::neighborhood`] run this kernel once on
//! the per-thread scratch of [`with_thread_scratch`]: the one-set form of
//! the same code, not a second implementation.

use crate::{GraphView, VertexSet};
use std::cell::RefCell;

/// Reusable scratch space for the neighborhood counting kernels.
///
/// A scratch is tied to no particular graph: [`NeighborhoodScratch::begin`]
/// grows the arrays on demand, so a single scratch can serve graphs of mixed
/// sizes (it only ever grows). All kernel methods reset the scratch
/// themselves; callers just invoke them back to back.
#[derive(Clone, Debug)]
pub struct NeighborhoodScratch {
    /// Current epoch; `mark[v] == epoch` means `v` was touched this epoch.
    epoch: u32,
    /// Epoch tag per vertex.
    mark: Vec<u32>,
    /// Number of in-set neighbors seen for `v`; valid only when
    /// `mark[v] == epoch`.
    count: Vec<u32>,
    /// Vertices touched this epoch, in first-touch order.
    touched: Vec<usize>,
}

impl Default for NeighborhoodScratch {
    fn default() -> Self {
        NeighborhoodScratch::new(0)
    }
}

impl NeighborhoodScratch {
    /// Creates a scratch pre-sized for a universe of `n` vertices.
    pub fn new(n: usize) -> Self {
        NeighborhoodScratch {
            epoch: 0,
            mark: vec![0; n],
            count: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// The current capacity (largest universe served without reallocation).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.mark.len()
    }

    /// Starts a fresh epoch over a universe of `n` vertices: O(1) in steady
    /// state (an epoch bump plus truncating the touched list), O(n) only when
    /// the scratch must grow or the `u32` epoch counter wraps around.
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.count.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One full clear every 2^32 epochs keeps stale tags from aliasing.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    /// Records one in-set neighbor for `u`.
    #[inline]
    fn bump(&mut self, u: usize) {
        if self.mark[u] == self.epoch {
            self.count[u] += 1;
        } else {
            self.mark[u] = self.epoch;
            self.count[u] = 1;
            self.touched.push(u);
        }
    }

    /// Records that `u` was reached, without maintaining a count (for
    /// kernels that only need "at least one neighbor").
    #[inline]
    fn mark_only(&mut self, u: usize) {
        if self.mark[u] != self.epoch {
            self.mark[u] = self.epoch;
            self.touched.push(u);
        }
    }

    /// Core accumulation: counts, for every vertex, its neighbors among
    /// `sources`, excluding touched vertices inside `exclude` when given.
    /// After this, `touched` holds exactly the (non-excluded) vertices with at
    /// least one neighbor in `sources`, and `count` their neighbor counts.
    fn accumulate<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        sources: &VertexSet,
        exclude: Option<&VertexSet>,
    ) {
        self.begin(g.num_vertices());
        match exclude {
            Some(ex) => {
                for v in sources.iter() {
                    for u in g.neighbors_iter(v) {
                        if !ex.contains(u) {
                            self.bump(u);
                        }
                    }
                }
            }
            None => {
                for v in sources.iter() {
                    for u in g.neighbors_iter(v) {
                        self.bump(u);
                    }
                }
            }
        }
    }

    /// [`NeighborhoodScratch::accumulate`] without the per-vertex counters —
    /// the cheaper walk behind `Γ(S)` / `Γ⁻(S)` sizes, where multiplicity is
    /// irrelevant.
    fn accumulate_marks<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        sources: &VertexSet,
        exclude: Option<&VertexSet>,
    ) {
        self.begin(g.num_vertices());
        match exclude {
            Some(ex) => {
                for v in sources.iter() {
                    for u in g.neighbors_iter(v) {
                        if !ex.contains(u) {
                            self.mark_only(u);
                        }
                    }
                }
            }
            None => {
                for v in sources.iter() {
                    for u in g.neighbors_iter(v) {
                        self.mark_only(u);
                    }
                }
            }
        }
    }

    /// `|Γ⁻(S)|`: number of vertices outside `s` with a neighbor in `s`.
    pub fn count_external_neighborhood<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
    ) -> usize {
        self.accumulate_marks(g, s, Some(s));
        self.touched.len()
    }

    /// `|Γ¹(S)|`: number of vertices outside `s` with exactly one neighbor in
    /// `s`.
    pub fn count_unique_neighborhood<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
    ) -> usize {
        self.count_s_excluding_unique(g, s, s)
    }

    /// `|Γ¹_S(S')|`: number of vertices outside `s` with exactly one neighbor
    /// in `s_prime` (which must be a subset of `s`; debug-asserted).
    pub fn count_s_excluding_unique<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
        s_prime: &VertexSet,
    ) -> usize {
        debug_assert!(s_prime.is_subset_of(s), "S' must be a subset of S");
        self.accumulate(g, s_prime, Some(s));
        let (count, epoch) = (&self.count, self.epoch);
        self.touched
            .iter()
            .filter(|&&u| {
                debug_assert_eq!(self.mark[u], epoch);
                count[u] == 1
            })
            .count()
    }

    /// The ordinary expansion of a single set, `|Γ⁻(S)|/|S|`
    /// (`∞` for the empty set, matching [`crate::neighborhood`]).
    pub fn external_expansion<G: GraphView + ?Sized>(&mut self, g: &G, s: &VertexSet) -> f64 {
        if s.is_empty() {
            return f64::INFINITY;
        }
        self.count_external_neighborhood(g, s) as f64 / s.len() as f64
    }

    /// The unique-neighbor expansion of a single set, `|Γ¹(S)|/|S|`
    /// (`∞` for the empty set).
    pub fn unique_expansion<G: GraphView + ?Sized>(&mut self, g: &G, s: &VertexSet) -> f64 {
        if s.is_empty() {
            return f64::INFINITY;
        }
        self.count_unique_neighborhood(g, s) as f64 / s.len() as f64
    }

    /// The members of `Γ⁻(S)`, sorted, borrowed from the scratch (valid until
    /// the next kernel call). Also records each member's rank in the sorted
    /// order so that
    /// [`NeighborhoodScratch::rank_of`] answers "which index is vertex `u`"
    /// in O(1) — the dense-index map behind the bipartite view extraction,
    /// stored in the scratch's own counter array instead of a fresh O(n)
    /// index vector.
    pub fn external_neighborhood_ranked<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
    ) -> &[usize] {
        self.accumulate_marks(g, s, Some(s));
        self.touched.sort_unstable();
        for (i, &u) in self.touched.iter().enumerate() {
            self.count[u] = i as u32;
        }
        &self.touched
    }

    /// The rank assigned to `u` by the last
    /// [`NeighborhoodScratch::external_neighborhood_ranked`] call. Only valid
    /// for members of that result, until the next kernel call (debug-checked
    /// via the epoch tag).
    #[inline]
    pub fn rank_of(&self, u: usize) -> usize {
        debug_assert_eq!(self.mark[u], self.epoch, "rank_of on an unranked vertex");
        self.count[u] as usize
    }

    /// Materializes the touched vertices satisfying `keep(count)` as a
    /// [`VertexSet`] over `universe`.
    fn materialize(&self, universe: usize, keep: impl Fn(u32) -> bool) -> VertexSet {
        VertexSet::from_iter(
            universe,
            self.touched
                .iter()
                .copied()
                .filter(|&u| keep(self.count[u])),
        )
    }

    /// `Γ(S)` as a set.
    pub fn neighborhood<G: GraphView + ?Sized>(&mut self, g: &G, s: &VertexSet) -> VertexSet {
        self.accumulate_marks(g, s, None);
        self.materialize(g.num_vertices(), |_| true)
    }

    /// `Γ⁻(S)` as a set.
    pub fn external_neighborhood<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
    ) -> VertexSet {
        self.accumulate_marks(g, s, Some(s));
        self.materialize(g.num_vertices(), |_| true)
    }

    /// `Γ¹(S)` as a set.
    pub fn unique_neighborhood<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
    ) -> VertexSet {
        self.s_excluding_unique_neighborhood(g, s, s)
    }

    /// `Γ¹_S(S')` as a set (`s_prime ⊆ s` debug-asserted).
    pub fn s_excluding_unique_neighborhood<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        s: &VertexSet,
        s_prime: &VertexSet,
    ) -> VertexSet {
        debug_assert!(s_prime.is_subset_of(s), "S' must be a subset of S");
        self.accumulate(g, s_prime, Some(s));
        self.materialize(g.num_vertices(), |c| c == 1)
    }
}

thread_local! {
    /// One scratch per thread, shared by every kernel wrapper on that thread.
    static THREAD_SCRATCH: RefCell<NeighborhoodScratch> =
        RefCell::new(NeighborhoodScratch::new(0));
}

/// Runs `f` with this thread's shared [`NeighborhoodScratch`], pre-grown to a
/// universe of `n` vertices.
///
/// This is the pool behind the compatibility wrappers in
/// [`crate::neighborhood`] and the candidate-evaluation loop of the
/// `wx-expansion` measurement engine: each worker thread gets its own
/// scratch, so parallel evaluation reuses one allocation per worker instead
/// of allocating per candidate set.
///
/// # Panics
/// Panics if `f` re-enters `with_thread_scratch` on the same thread (the
/// scratch is exclusively borrowed for the duration of `f`). Kernel-level
/// code should take `&mut NeighborhoodScratch` and let only the outermost
/// caller touch the pool.
pub fn with_thread_scratch<R>(n: usize, f: impl FnOnce(&mut NeighborhoodScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.begin(n);
        f(&mut scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn counts_match_materialized_sets() {
        let g = path(6);
        let s = g.vertex_set([1, 3]);
        let mut scr = NeighborhoodScratch::new(0);
        assert_eq!(
            scr.count_external_neighborhood(&g, &s),
            scr.external_neighborhood(&g, &s).len()
        );
        assert_eq!(
            scr.count_unique_neighborhood(&g, &s),
            scr.unique_neighborhood(&g, &s).len()
        );
        let sp = g.vertex_set([1]);
        assert_eq!(
            scr.count_s_excluding_unique(&g, &s, &sp),
            scr.s_excluding_unique_neighborhood(&g, &s, &sp).len()
        );
    }

    #[test]
    fn epochs_isolate_consecutive_evaluations() {
        let g = path(8);
        let mut scr = NeighborhoodScratch::new(8);
        let a = g.vertex_set([0, 1, 2, 3]);
        let b = g.vertex_set([5]);
        assert_eq!(scr.count_external_neighborhood(&g, &a), 1); // {4}
                                                                // the second evaluation must not see counts left over from the first
        assert_eq!(scr.count_unique_neighborhood(&g, &b), 2); // {4, 6}
        assert_eq!(scr.unique_neighborhood(&g, &b).to_vec(), vec![4, 6]);
    }

    #[test]
    fn scratch_grows_across_graphs() {
        let mut scr = NeighborhoodScratch::new(0);
        let small = path(4);
        let s = small.vertex_set([0]);
        assert_eq!(scr.count_external_neighborhood(&small, &s), 1);
        let big = path(100);
        let s = big.vertex_set([50]);
        assert_eq!(scr.count_external_neighborhood(&big, &s), 2);
        assert!(scr.capacity() >= 100);
    }

    #[test]
    fn epoch_wraparound_clears_marks() {
        let g = path(4);
        let s = g.vertex_set([1]);
        let mut scr = NeighborhoodScratch::new(4);
        scr.epoch = u32::MAX - 1;
        assert_eq!(scr.count_external_neighborhood(&g, &s), 2);
        // next begin() wraps the epoch; stale MAX tags must not alias
        assert_eq!(scr.count_external_neighborhood(&g, &s), 2);
        assert_eq!(scr.epoch, 1);
        assert_eq!(scr.count_unique_neighborhood(&g, &s), 2);
    }

    #[test]
    fn sorted_slices_match_materialized_sets() {
        let g =
            Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)]).unwrap();
        let s = g.vertex_set([1, 3]);
        let mut scr = NeighborhoodScratch::default();
        let ext: Vec<usize> = scr.external_neighborhood_ranked(&g, &s).to_vec();
        assert_eq!(ext, scr.external_neighborhood(&g, &s).to_vec());
    }

    #[test]
    fn thread_scratch_is_reused() {
        let g = path(5);
        let s = g.vertex_set([2]);
        let n1 = with_thread_scratch(5, |scr| scr.count_external_neighborhood(&g, &s));
        let n2 = with_thread_scratch(5, |scr| scr.count_external_neighborhood(&g, &s));
        assert_eq!(n1, 2);
        assert_eq!(n1, n2);
    }

    #[test]
    fn empty_set_conventions() {
        let g = path(4);
        let empty = g.empty_vertex_set();
        let mut scr = NeighborhoodScratch::default();
        assert_eq!(scr.count_external_neighborhood(&g, &empty), 0);
        assert!(scr.external_expansion(&g, &empty).is_infinite());
        assert!(scr.unique_expansion(&g, &empty).is_infinite());
    }
}
