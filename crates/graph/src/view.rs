//! The [`GraphView`] trait: one abstract graph interface over every storage
//! backend, plus the two non-CSR backends that ship with it.
//!
//! Historically every subsystem — the neighborhood kernels, the expansion
//! engine, the radio simulator, the spokesman solvers, the scenario lab —
//! was hard-wired to the concrete CSR [`Graph`]. That forced every scenario
//! to fully materialize its graph and every induced-subgraph computation to
//! pay an `O(n + m)` copy. This module decouples the algorithms from the
//! storage layout:
//!
//! * [`GraphView`] — the minimal read-only interface (`num_vertices`,
//!   `degree`, a neighbor iterator, `has_edge`) plus provided degree-stat
//!   methods. Every algorithm crate in the workspace is generic over
//!   `G: GraphView`.
//! * [`Graph`] (CSR) implements it directly and stays the default backend:
//!   existing code and reports are unchanged.
//! * [`SubgraphView`] — a **zero-copy induced subgraph**: a borrowed base
//!   graph plus a borrowed [`SubsetIndex`] (a [`VertexSet`] with its sorted
//!   member list), exposing the induced subgraph on that set with vertices
//!   relabelled `0..|U|` in sorted order — exactly the labelling of
//!   [`Graph::induced_subgraph`], without copying the graph.
//! * [`ImplicitGraph`] — an **implicit backend** whose neighborhoods are
//!   computed on the fly from a closed-form family rule
//!   ([`ImplicitFamily`]): Boolean hypercubes, cycle powers and 2-D tori at
//!   sizes far beyond what a CSR materialization could hold in RAM.
//! * [`crate::mmap::MmapGraph`] — an **out-of-core backend**: the same CSR
//!   layout frozen into a `.wxg` file (see [`crate::disk`]) and served
//!   zero-copy through a memory mapping, for graphs larger than RAM.
//!
//! # Backend matrix
//!
//! | backend                  | storage                  | construction        | own state ([`GraphView::memory_bytes`]) |
//! |--------------------------|--------------------------|---------------------|-----------------------------------------|
//! | [`Graph`] (CSR)          | heap arrays              | build / parse       | struct + both CSR arrays                |
//! | [`SubgraphView`]         | borrows base + index     | O(1)                | struct only (base counted elsewhere)    |
//! | [`ImplicitGraph`]        | closed-form rule         | O(1)                | struct only                             |
//! | [`crate::mmap::MmapGraph`] | memory-mapped `.wxg`   | open + validate     | struct + the mapped file                |
//!
//! # Measuring expansion on an unmaterialized hypercube
//!
//! The measurement engine accepts any `G: GraphView`, so a graph family can
//! be measured without ever materializing its edge lists:
//!
//! ```
//! use wx_expansion::engine::{MeasurementEngine, Ordinary};
//! use wx_expansion::SamplerConfig;
//! use wx_graph::view::{GraphView, ImplicitGraph};
//!
//! // Q_30: over a billion vertices — adjacency answers from O(1) state.
//! let q30 = ImplicitGraph::hypercube(30).unwrap();
//! assert_eq!(q30.num_vertices(), 1 << 30);
//! assert!(q30.has_edge(7, 7 ^ (1 << 20)));
//!
//! // Measure ordinary expansion on an unmaterialized Q_10: the engine only
//! // ever asks the family rule for neighborhoods.
//! let q10 = ImplicitGraph::hypercube(10).unwrap();
//! let engine = MeasurementEngine::builder()
//!     .alpha(0.5)
//!     .exact_up_to(0) // always sample
//!     .sampler(SamplerConfig::light())
//!     .seed(7)
//!     .build();
//! let beta = engine.measure(&q10, &Ordinary).unwrap();
//! assert!(beta.value > 0.0 && !beta.exact);
//! ```
//!
//! # Design notes
//!
//! The trait exposes neighbors through a lending iterator (a generic
//! associated type) rather than a slice, because implicit backends have no
//! slice to lend; for the CSR backend the iterator compiles down to the same
//! slice walk as before. Neighbor iteration order is **unspecified** (the
//! CSR backend yields sorted neighbors, implicit families may not); every
//! kernel in the workspace is order-insensitive. All consumers are generic
//! (monomorphized), so the abstraction costs nothing on the hot paths.

use crate::{Graph, GraphBuilder, GraphError, Result, Vertex, VertexSet};
use serde::{Deserialize, Serialize};

/// A read-only view of an undirected graph on the dense vertex range
/// `0..num_vertices()`.
///
/// This is the abstraction every algorithm in the workspace consumes: the
/// neighborhood kernels ([`crate::scratch`]), the `wx-expansion` measurement
/// engine, the `wx-radio` simulator and the bipartite view the spokesman
/// solvers run on ([`crate::BipartiteGraph::from_set_in_graph`]) are all
/// generic over `G: GraphView`. Implementations must be
/// consistent: `degree(v)` equals the length of `neighbors_iter(v)`,
/// `has_edge(u, v)` is symmetric, and neighbor lists contain no self-loops or
/// duplicates.
///
/// Out-of-range vertices may panic in `degree`/`neighbors_iter` (as the CSR
/// backend does); `has_edge` returns `false` instead.
pub trait GraphView {
    /// The neighbor iterator type for a vertex.
    type Neighbors<'a>: Iterator<Item = Vertex> + 'a
    where
        Self: 'a;

    /// Number of vertices; the vertex universe is `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// The degree of `v`.
    fn degree(&self, v: Vertex) -> usize;

    /// Iterates over the neighbors of `v` (order unspecified; no duplicates,
    /// no self-loops).
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_>;

    /// `true` iff the edge `{u, v}` exists (`false` for out-of-range ids).
    fn has_edge(&self, u: Vertex, v: Vertex) -> bool;

    /// The sum of all degrees, `2|E|`. O(n) by default; backends with edge
    /// counts override it.
    fn degree_sum(&self) -> usize {
        (0..self.num_vertices()).map(|v| self.degree(v)).sum()
    }

    /// Number of undirected edges, `degree_sum() / 2`.
    fn num_edges(&self) -> usize {
        self.degree_sum() / 2
    }

    /// The maximum degree `Δ` (0 for the empty graph). O(n) by default; the
    /// CSR backend answers from its construction-time cache.
    fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The minimum degree (0 for the empty graph). O(n) by default; the CSR
    /// backend answers from its construction-time cache.
    fn min_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// The average degree `2|E|/|V|` (0.0 for the empty graph).
    fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.degree_sum() as f64 / self.num_vertices() as f64
        }
    }

    /// `true` if every vertex has degree exactly `d`.
    fn is_regular(&self, d: usize) -> bool {
        (0..self.num_vertices()).all(|v| self.degree(v) == d)
    }

    /// Iterates over all vertices `0..n`.
    fn vertices(&self) -> std::ops::Range<Vertex> {
        0..self.num_vertices()
    }

    /// A full vertex set over this view's universe.
    fn full_vertex_set(&self) -> VertexSet {
        VertexSet::full(self.num_vertices())
    }

    /// An empty vertex set over this view's universe.
    fn empty_vertex_set(&self) -> VertexSet {
        VertexSet::empty(self.num_vertices())
    }

    /// Builds a vertex set over this view's universe from an iterator.
    fn vertex_set(&self, vs: impl IntoIterator<Item = Vertex>) -> VertexSet
    where
        Self: Sized,
    {
        VertexSet::from_iter(self.num_vertices(), vs)
    }

    /// Resident bytes attributable to this backend's **own** state: the
    /// struct itself plus any storage it owns (CSR arrays, a memory
    /// mapping). Borrowed data — the base graph behind a [`SubgraphView`] —
    /// is not counted here; it is owned, and therefore reported, elsewhere.
    /// O(1) for every backend (exact arrays plus a fixed header for the
    /// CSR backend, exact for the mmap backend, struct size for views and
    /// implicit families).
    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// A reference to a view is a view.
impl<G: GraphView + ?Sized> GraphView for &G {
    type Neighbors<'a>
        = G::Neighbors<'a>
    where
        Self: 'a;

    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    fn degree(&self, v: Vertex) -> usize {
        (**self).degree(v)
    }
    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        (**self).neighbors_iter(v)
    }
    fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        (**self).has_edge(u, v)
    }
    fn degree_sum(&self) -> usize {
        (**self).degree_sum()
    }
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
    fn max_degree(&self) -> usize {
        (**self).max_degree()
    }
    fn min_degree(&self) -> usize {
        (**self).min_degree()
    }
    fn average_degree(&self) -> f64 {
        (**self).average_degree()
    }
    fn is_regular(&self, d: usize) -> bool {
        (**self).is_regular(d)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

/// A vertex set together with its sorted member list: the rank/select index
/// a [`SubgraphView`] translates ids through.
///
/// [`VertexSet`] is a bitset, so "the `i`-th member" and "the rank of `v`"
/// need this list. Build the index once per induced instance (O(n/64 + |U|))
/// and borrow it from every view over that instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetIndex {
    set: VertexSet,
    members: Vec<Vertex>,
}

impl SubsetIndex {
    /// Indexes `set`.
    pub fn new(set: VertexSet) -> Self {
        let members = set.to_vec();
        SubsetIndex { set, members }
    }

    /// The indexed set.
    pub fn set(&self) -> &VertexSet {
        &self.set
    }

    /// The members in increasing order.
    pub fn members(&self) -> &[Vertex] {
        &self.members
    }
}

/// A zero-copy induced subgraph: a borrowed base view plus a borrowed
/// [`SubsetIndex`] of the inducing vertex set.
///
/// The view exposes the subgraph induced on the set with vertices relabelled
/// `0..|U|` in **sorted member order** — the exact labelling
/// [`Graph::induced_subgraph`] produces, so results computed on the view are
/// interchangeable with results computed on the materialized copy (this is
/// property-tested in `tests/view_equivalence.rs`). Construction is O(1):
/// nothing is copied; the sorted member list comes with the index.
///
/// Local→original translation is a slice lookup ([`SubgraphView::original`]);
/// original→local translation is a binary search on the sorted member list,
/// so `neighbors_iter` costs `O(deg_base(v) · log |U|)` and `degree` costs
/// `O(deg_base(v))`. For one-shot and few-shot subgraph computations (the
/// per-candidate bipartite views of the wireless measure, per-subset
/// expansion measurements) this beats the `O(n + m)` materialization.
#[derive(Debug)]
pub struct SubgraphView<'g, G: GraphView + ?Sized> {
    base: &'g G,
    index: &'g SubsetIndex,
}

impl<G: GraphView + ?Sized> Clone for SubgraphView<'_, G> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<G: GraphView + ?Sized> Copy for SubgraphView<'_, G> {}

impl<'g, G: GraphView + ?Sized> SubgraphView<'g, G> {
    /// Creates the view of `base` induced on the set `index` indexes.
    ///
    /// # Panics
    /// Panics if the set's universe does not match the base graph's vertex
    /// count (a set from a different graph would silently alias vertices).
    pub fn new(base: &'g G, index: &'g SubsetIndex) -> Self {
        assert_eq!(
            index.set.universe(),
            base.num_vertices(),
            "vertex set universe must match the base graph"
        );
        SubgraphView { base, index }
    }

    /// The original id of local vertex `i`.
    #[inline]
    pub fn original(&self, i: Vertex) -> Vertex {
        self.index.members[i]
    }
}

impl<G: GraphView + ?Sized> GraphView for SubgraphView<'_, G> {
    type Neighbors<'a>
        = SubgraphNeighbors<'a, G>
    where
        Self: 'a;

    fn num_vertices(&self) -> usize {
        self.index.members.len()
    }

    fn degree(&self, v: Vertex) -> usize {
        self.base
            .neighbors_iter(self.original(v))
            .filter(|&u| self.index.set.contains(u))
            .count()
    }

    fn neighbors_iter(&self, v: Vertex) -> Self::Neighbors<'_> {
        SubgraphNeighbors {
            inner: self.base.neighbors_iter(self.original(v)),
            index: self.index,
        }
    }

    fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let members = &self.index.members;
        match (members.get(u), members.get(v)) {
            (Some(&ou), Some(&ov)) => self.base.has_edge(ou, ov),
            _ => false,
        }
    }
}

/// Neighbor iterator of a [`SubgraphView`]: the base neighbors filtered to
/// the inducing set and mapped to local ids.
pub struct SubgraphNeighbors<'a, G: GraphView + ?Sized + 'a> {
    inner: G::Neighbors<'a>,
    index: &'a SubsetIndex,
}

impl<G: GraphView + ?Sized> Iterator for SubgraphNeighbors<'_, G> {
    type Item = Vertex;

    fn next(&mut self) -> Option<Vertex> {
        for u in self.inner.by_ref() {
            if self.index.set.contains(u) {
                return Some(
                    self.index
                        .members
                        .binary_search(&u)
                        .expect("bitset member is in the member list"),
                );
            }
        }
        None
    }
}

/// A graph family whose adjacency is a closed-form rule — the generator
/// behind [`ImplicitGraph`]. Serializable so scenario specs can name one
/// (`{"Implicit": {"family": {"Hypercube": {"dim": 20}}}}` in `wx-lab`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImplicitFamily {
    /// The Boolean hypercube `Q_dim` on `2^dim` vertices: bit strings with
    /// edges at Hamming distance 1 (`dim`-regular).
    Hypercube {
        /// Dimension (`1 ≤ dim ≤ 32`).
        dim: usize,
    },
    /// The cycle power `C_n^k`: vertices `0..n` with `i ~ j` iff the cyclic
    /// distance is at most `k` (`2k`-regular; requires `2k < n`).
    CyclePower {
        /// Number of vertices.
        n: usize,
        /// Power `k` (each vertex connects to the `k` nearest on both sides).
        power: usize,
    },
    /// The 2-D torus `Z_rows × Z_cols` (4-regular; requires both sides ≥ 3 so
    /// wrap-around neighbors are distinct).
    Torus {
        /// Rows (≥ 3).
        rows: usize,
        /// Columns (≥ 3).
        cols: usize,
    },
}

impl ImplicitFamily {
    /// Number of vertices the family generates.
    pub fn num_vertices(&self) -> usize {
        match *self {
            ImplicitFamily::Hypercube { dim } => 1usize << dim,
            ImplicitFamily::CyclePower { n, .. } => n,
            ImplicitFamily::Torus { rows, cols } => rows * cols,
        }
    }

    /// The (uniform) degree of the family.
    pub fn regular_degree(&self) -> usize {
        match *self {
            ImplicitFamily::Hypercube { dim } => dim,
            ImplicitFamily::CyclePower { power, .. } => 2 * power,
            ImplicitFamily::Torus { .. } => 4,
        }
    }

    /// Checks the family's parameter constraints, including that its vertex
    /// count and degree sum fit in a `usize`, and returns the vertex count.
    pub fn validate(&self) -> Result<usize> {
        match *self {
            ImplicitFamily::Hypercube { dim } => {
                if dim == 0 || dim > 32 {
                    return Err(GraphError::invalid(format!(
                        "implicit hypercube dimension must be in 1..=32, got {dim}"
                    )));
                }
            }
            ImplicitFamily::CyclePower { n, power } => {
                if power == 0 || power.checked_mul(2).is_none_or(|degree| degree >= n) {
                    return Err(GraphError::invalid(format!(
                        "cycle power requires 0 < 2k < n, got n={n}, k={power}"
                    )));
                }
            }
            ImplicitFamily::Torus { rows, cols } => {
                if rows < 3 || cols < 3 {
                    return Err(GraphError::invalid(format!(
                        "torus requires rows, cols ≥ 3, got {rows}x{cols}"
                    )));
                }
                if rows.checked_mul(cols).is_none() {
                    return Err(GraphError::invalid(format!(
                        "torus {rows}x{cols} has more vertices than a usize holds"
                    )));
                }
            }
        }
        let n = self.num_vertices();
        if n.checked_mul(self.regular_degree()).is_none() {
            return Err(GraphError::invalid(format!(
                "{} has a degree sum larger than a usize holds",
                self.label()
            )));
        }
        Ok(n)
    }

    /// A compact human-readable label, e.g. `hypercube(dim=20)`.
    pub fn label(&self) -> String {
        match *self {
            ImplicitFamily::Hypercube { dim } => format!("hypercube(dim={dim})"),
            ImplicitFamily::CyclePower { n, power } => format!("cycle-power(n={n}, k={power})"),
            ImplicitFamily::Torus { rows, cols } => format!("torus({rows}x{cols})"),
        }
    }
}

/// An implicit graph backend: neighborhoods are computed on demand from an
/// [`ImplicitFamily`] rule, so the graph occupies O(1) memory regardless of
/// `n` and scales to sizes where a CSR materialization would exhaust RAM.
///
/// For small instances, [`materialize`] turns any view (including this one)
/// into a CSR [`Graph`]; the equivalence of the two representations is
/// property-tested in `tests/view_equivalence.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImplicitGraph {
    family: ImplicitFamily,
}

impl ImplicitGraph {
    /// Creates the backend for a validated family.
    pub fn new(family: ImplicitFamily) -> Result<Self> {
        family.validate()?;
        Ok(ImplicitGraph { family })
    }

    /// The Boolean hypercube `Q_dim`.
    pub fn hypercube(dim: usize) -> Result<Self> {
        ImplicitGraph::new(ImplicitFamily::Hypercube { dim })
    }

    fn check(&self, v: Vertex) {
        assert!(
            v < self.num_vertices(),
            "vertex {v} out of range for {}",
            self.family.label()
        );
    }
}

impl GraphView for ImplicitGraph {
    type Neighbors<'a> = ImplicitNeighbors;

    fn num_vertices(&self) -> usize {
        self.family.num_vertices()
    }

    fn degree(&self, v: Vertex) -> usize {
        self.check(v);
        self.family.regular_degree()
    }

    fn neighbors_iter(&self, v: Vertex) -> ImplicitNeighbors {
        self.check(v);
        ImplicitNeighbors {
            family: self.family,
            v,
            next: 0,
        }
    }

    fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let n = self.num_vertices();
        if u >= n || v >= n || u == v {
            return false;
        }
        match self.family {
            ImplicitFamily::Hypercube { .. } => (u ^ v).is_power_of_two(),
            ImplicitFamily::CyclePower { n, power } => {
                let d = u.abs_diff(v);
                d.min(n - d) <= power
            }
            ImplicitFamily::Torus { cols, .. } => {
                let (ur, uc) = (u / cols, u % cols);
                let (vr, vc) = (v / cols, v % cols);
                let rows = self.family.num_vertices() / cols;
                let dr = ur.abs_diff(vr);
                let dc = uc.abs_diff(vc);
                let dr = dr.min(rows - dr);
                let dc = dc.min(cols - dc);
                dr + dc == 1
            }
        }
    }

    fn degree_sum(&self) -> usize {
        self.num_vertices() * self.family.regular_degree()
    }

    fn max_degree(&self) -> usize {
        if self.num_vertices() == 0 {
            0
        } else {
            self.family.regular_degree()
        }
    }

    fn min_degree(&self) -> usize {
        self.max_degree()
    }

    fn is_regular(&self, d: usize) -> bool {
        self.num_vertices() == 0 || d == self.family.regular_degree()
    }
}

/// Neighbor iterator of an [`ImplicitGraph`]: the `i`-th neighbor is computed
/// from the family rule when asked for; nothing is stored.
pub struct ImplicitNeighbors {
    family: ImplicitFamily,
    v: Vertex,
    next: usize,
}

impl Iterator for ImplicitNeighbors {
    type Item = Vertex;

    fn next(&mut self) -> Option<Vertex> {
        let i = self.next;
        if i >= self.family.regular_degree() {
            return None;
        }
        self.next += 1;
        Some(match self.family {
            ImplicitFamily::Hypercube { .. } => self.v ^ (1usize << i),
            ImplicitFamily::CyclePower { n, power } => {
                // neighbors v ± j (mod n) for j = 1..=power
                let j = i / 2 + 1;
                debug_assert!(j <= power);
                if i.is_multiple_of(2) {
                    (self.v + j) % n
                } else {
                    (self.v + n - j) % n
                }
            }
            ImplicitFamily::Torus { rows, cols } => {
                let (r, c) = (self.v / cols, self.v % cols);
                let (nr, nc) = match i {
                    0 => ((r + 1) % rows, c),
                    1 => ((r + rows - 1) % rows, c),
                    2 => (r, (c + 1) % cols),
                    _ => (r, (c + cols - 1) % cols),
                };
                nr * cols + nc
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.family.regular_degree() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ImplicitNeighbors {}

/// Materializes any view as a CSR [`Graph`] — the bridge back to the
/// concrete backend for algorithms that genuinely need one (dense spectra,
/// file export) and for the view-equivalence test suites.
pub fn materialize<G: GraphView + ?Sized>(g: &G) -> Graph {
    let n = g.num_vertices();
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for u in g.neighbors_iter(v) {
            if u > v {
                b.add_edge(v, u).expect("view neighbors are in range");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CSR_HEADER_BYTES;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    #[test]
    fn csr_graph_implements_the_view() {
        let g = cycle(6);
        assert_eq!(GraphView::num_vertices(&g), 6);
        assert_eq!(GraphView::degree(&g, 0), 2);
        assert_eq!(GraphView::num_edges(&g), 6);
        assert_eq!(g.degree_sum(), 12);
        let ns: Vec<Vertex> = g.neighbors_iter(0).collect();
        assert_eq!(ns, vec![1, 5]);
        // provided stats agree with the inherent (cached) ones
        assert_eq!(GraphView::max_degree(&g), 2);
        assert_eq!(GraphView::min_degree(&g), 2);
        assert!(GraphView::is_regular(&g, 2));
        // a reference is a view too
        let r = &&g;
        assert_eq!(r.num_vertices(), 6);
        assert_eq!(r.max_degree(), 2);
    }

    #[test]
    fn subgraph_view_matches_materialized_induced_subgraph() {
        let g =
            Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)]).unwrap();
        let s = SubsetIndex::new(g.vertex_set([1, 2, 4, 6]));
        let view = SubgraphView::new(&g, &s);
        let (mat, ids) = g.induced_subgraph(s.set());
        assert_eq!(view.num_vertices(), mat.num_vertices());
        assert_eq!(ids, s.members());
        for v in 0..view.num_vertices() {
            assert_eq!(view.degree(v), mat.degree(v), "degree of {v}");
            let mut ns: Vec<Vertex> = view.neighbors_iter(v).collect();
            ns.sort_unstable();
            assert_eq!(ns, mat.neighbors(v), "neighbors of {v}");
            for u in 0..view.num_vertices() {
                assert_eq!(view.has_edge(v, u), mat.has_edge(v, u));
            }
        }
        assert_eq!(view.num_edges(), mat.num_edges());
        assert_eq!(materialize(&view), mat);
        // local ids translate back to the original members
        assert_eq!(view.original(0), 1);
        assert_eq!(view.original(2), 4);
        assert!(!view.has_edge(0, 99));
    }

    #[test]
    #[should_panic(expected = "universe must match")]
    fn subgraph_view_rejects_foreign_sets() {
        let g = cycle(5);
        let s = SubsetIndex::new(VertexSet::from_iter(4, [0, 1]));
        let _ = SubgraphView::new(&g, &s);
    }

    #[test]
    fn subgraph_of_subgraph_composes() {
        let g = cycle(8);
        let outer_set = SubsetIndex::new(g.vertex_set([0, 1, 2, 3, 4, 5]));
        let outer = SubgraphView::new(&g, &outer_set);
        let inner_set = SubsetIndex::new(VertexSet::from_iter(outer.num_vertices(), [0, 1, 2]));
        let inner = SubgraphView::new(&outer, &inner_set);
        // the path 0-1-2 survives
        assert_eq!(inner.num_vertices(), 3);
        assert_eq!(inner.num_edges(), 2);
        assert!(inner.has_edge(0, 1) && inner.has_edge(1, 2) && !inner.has_edge(0, 2));
    }

    #[test]
    fn implicit_hypercube_matches_closed_form() {
        let q = ImplicitGraph::hypercube(4).unwrap();
        assert_eq!(q.num_vertices(), 16);
        assert_eq!(q.num_edges(), 32);
        assert!(q.is_regular(4));
        assert!(q.has_edge(0b0000, 0b1000));
        assert!(!q.has_edge(0b0000, 0b0011));
        assert!(!q.has_edge(3, 3));
        let mut ns: Vec<Vertex> = q.neighbors_iter(0b0101).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![0b0001, 0b0100, 0b0111, 0b1101]);
        assert_eq!(q.neighbors_iter(0).len(), 4);
    }

    #[test]
    fn implicit_cycle_power_matches_definition() {
        let c = ImplicitGraph::new(ImplicitFamily::CyclePower { n: 10, power: 2 }).unwrap();
        assert_eq!(c.num_vertices(), 10);
        assert!(c.is_regular(4));
        let mut ns: Vec<Vertex> = c.neighbors_iter(0).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2, 8, 9]);
        assert!(c.has_edge(0, 2) && !c.has_edge(0, 3));
        assert!(c.has_edge(9, 1)); // wraps around
    }

    #[test]
    fn implicit_torus_matches_materialized_neighbors() {
        let t = ImplicitGraph::new(ImplicitFamily::Torus { rows: 3, cols: 4 }).unwrap();
        assert_eq!(t.num_vertices(), 12);
        assert!(t.is_regular(4));
        let mut ns: Vec<Vertex> = t.neighbors_iter(0).collect();
        ns.sort_unstable();
        // (0,0): down (1,0)=4, up (2,0)=8, right (0,1)=1, left (0,3)=3
        assert_eq!(ns, vec![1, 3, 4, 8]);
        assert!(t.has_edge(0, 8) && !t.has_edge(0, 5));
    }

    #[test]
    fn family_validation_rejects_bad_parameters() {
        assert!(ImplicitGraph::hypercube(0).is_err());
        assert!(ImplicitGraph::hypercube(33).is_err());
        assert!(ImplicitGraph::new(ImplicitFamily::CyclePower { n: 6, power: 3 }).is_err());
        assert!(ImplicitGraph::new(ImplicitFamily::CyclePower { n: 6, power: 0 }).is_err());
        assert!(ImplicitGraph::new(ImplicitFamily::Torus { rows: 2, cols: 5 }).is_err());
        assert!(ImplicitGraph::new(ImplicitFamily::Torus { rows: 3, cols: 3 }).is_ok());
    }

    fn rejected(family: ImplicitFamily) -> bool {
        matches!(
            ImplicitGraph::new(family),
            Err(GraphError::InvalidParameter(_))
        )
    }

    #[test]
    fn a_cycle_power_whose_degree_overflows_is_rejected() {
        // `2k` wraps to 0 for k = 2^63, which once passed `2k < n`
        assert!(rejected(ImplicitFamily::CyclePower {
            n: 10,
            power: 1 << 63,
        }));
        // `2k < n` holds but the degree sum n·2k does not fit
        assert!(rejected(ImplicitFamily::CyclePower {
            n: usize::MAX,
            power: 1 << 62,
        }));
    }

    #[test]
    fn a_torus_whose_vertex_count_overflows_is_rejected() {
        assert!(rejected(ImplicitFamily::Torus {
            rows: 4_294_967_297,
            cols: 4_294_967_296,
        }));
        // rows·cols fits but the degree sum 4·rows·cols does not
        assert!(rejected(ImplicitFamily::Torus {
            rows: 1 << 31,
            cols: 1 << 31,
        }));
    }

    #[test]
    fn implicit_family_serde_round_trips() {
        let f = ImplicitFamily::CyclePower { n: 100, power: 3 };
        let json = serde_json::to_string(&f).unwrap();
        assert!(json.contains("CyclePower"), "{json}");
        let back: ImplicitFamily = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
        assert_eq!(f.label(), "cycle-power(n=100, k=3)");
    }

    #[test]
    fn materialize_round_trips_the_csr_backend() {
        let g = cycle(9);
        assert_eq!(materialize(&g), g);
    }

    #[test]
    fn huge_implicit_graphs_answer_in_constant_space() {
        // Q_30: over a billion vertices; adjacency still answers instantly.
        let q = ImplicitGraph::hypercube(30).unwrap();
        assert_eq!(q.num_vertices(), 1 << 30);
        assert_eq!(q.degree((1 << 30) - 1), 30);
        assert!(q.has_edge(123_456_789, 123_456_789 ^ (1 << 20)));
    }

    #[test]
    fn memory_bytes_is_exact_for_csr_and_o1_for_views() {
        let g = cycle(9);
        // CSR: fixed header + offsets (n + 1 usizes) + neighbors (2m Vertex)
        let expected = CSR_HEADER_BYTES
            + 10 * std::mem::size_of::<usize>()
            + 18 * std::mem::size_of::<Vertex>();
        assert_eq!(g.memory_bytes(), expected);
        // forwarding through a reference reports the referent
        let by_ref: &Graph = &g;
        assert_eq!(GraphView::memory_bytes(&by_ref), expected);

        // views and implicit families report only their own O(1) state
        let set = SubsetIndex::new(g.full_vertex_set());
        let view = SubgraphView::new(&g, &set);
        assert_eq!(view.memory_bytes(), std::mem::size_of_val(&view));
        let q = ImplicitGraph::hypercube(20).unwrap();
        assert!(q.memory_bytes() <= 64, "implicit state must stay tiny");
    }
}
