//! The unified expansion-measurement engine.
//!
//! # Contract
//!
//! All three of the paper's expansion notions are minima of a per-set
//! quantity over candidate sets `S` with `1 ≤ |S| ≤ ⌊α·n⌋`:
//!
//! * ordinary `β(G)`: `|Γ⁻(S)|/|S|` ([`Ordinary`]);
//! * unique-neighbor `βu(G)`: `|Γ¹(S)|/|S|` ([`UniqueNeighbor`]);
//! * wireless `βw(G)`: `max_{S' ⊆ S} |Γ¹_S(S')|/|S|` ([`Wireless`]).
//!
//! One [`MeasurementEngine`] computes a graph-level expansion value for any
//! [`ExpansionMeasure`]. It owns the size bound `α` (the one cap
//! [`max_set_size`] that exact enumeration and sampling share) and the
//! candidate-set pool, decides between exhaustive enumeration and sampling
//! by one threshold, `exact_up_to`, fans the per-set evaluations out over
//! threads with [`wx_trace::par_map`], and returns a unified
//! [`Measurement`]. Callers that need set-level quantities (e.g. the
//! Observation 2.1 per-set sandwich) use the per-set primitives:
//! `wx_graph::neighborhood::{expansion_of_set, unique_expansion_of_set}`
//! for β and βu, `wireless::{of_set_exact, of_set_lower_bound}` for βw.
//!
//! # Exact or sampled
//!
//! A graph on `n` vertices is measured exactly when `n ≤ exact_up_to`
//! (default 14; `usize::MAX` always enumerates, 0 always samples):
//!
//! * **exact** enumerates every non-empty `S` up to the size cap (feasible
//!   for `n ≤ 22` with any cap, or for larger `n` whenever the number of sets
//!   `Σ_k C(n, k)` stays under the enumeration budget — see
//!   [`crate::sampling::all_small_sets`]; panics when the enumeration would
//!   be astronomically large) and, for [`Wireless`], solves the inner
//!   maximization optimally (feasible for `|S| ≤ ExactSolver::MAX_LEFT`,
//!   checked once against the size cap before the enumeration is built). The
//!   result has `exact = true` and is ground truth.
//! * **sampled** evaluates the shared candidate pool generated from the
//!   engine's [`SamplerConfig`]: every singleton plus the sampled sets of
//!   size ≥ 2. The singletons are not evaluated one by one: `{v}` scores
//!   `deg(v)` under all three notions on a simple graph, so one O(n) degree
//!   scan finds the first vertex of minimum degree, and only that singleton
//!   is evaluated. For [`Ordinary`] and [`UniqueNeighbor`] the result is an
//!   *upper bound* on the true minimum (every evaluated set certifies one);
//!   for [`Wireless`] the inner maximization uses the polynomial-time
//!   spokesman portfolio, so the estimate is neither a strict upper nor lower
//!   bound (see the [`crate::wireless`] module docs for the quantifier
//!   asymmetry).
//!
//! Determinism: every randomized component is derived from the engine's
//! `seed` via `derive_seed`, so measurements are reproducible regardless of
//! the thread count (`RAYON_NUM_THREADS`) and schedule.
//!
//! # Performance: epoch-stamped scratch spaces
//!
//! Candidate evaluation is the engine's hot loop — an exact run visits every
//! set under the size cap and `measure_all` evaluates three measures over a
//! shared pool — so the per-set cost must be pure graph traversal. Each
//! [`ExpansionMeasure::evaluate`] call receives a borrowed
//! [`NeighborhoodScratch`]: the engine draws it from a per-thread pool
//! ([`with_thread_scratch`]), and the measures run their neighborhood
//! counting through its `count_*` kernels, which tag vertices with an epoch
//! stamp instead of allocating fresh sets and reset in O(1) by bumping the
//! epoch. The result: [`Ordinary`] and [`UniqueNeighbor`] perform **no heap
//! allocation per candidate** in steady state, and [`Wireless`] allocates
//! only the bipartite view its spokesman solvers need (the `Γ⁻(S)`
//! resolution inside that construction runs through the same scratch). See
//! `wx_graph::scratch` for the kernel itself.
//!
//! ```
//! use wx_expansion::engine::{MeasurementEngine, Ordinary, UniqueNeighbor, Wireless};
//! use wx_graph::Graph;
//!
//! let g = Graph::from_edges(8, (0..8).map(|i| (i, (i + 1) % 8))).unwrap();
//! let engine = MeasurementEngine::builder().alpha(0.5).seed(7).build();
//! let beta = engine.measure(&g, &Ordinary).unwrap();
//! let beta_w = engine.measure(&g, &Wireless::default()).unwrap();
//! let beta_u = engine.measure(&g, &UniqueNeighbor).unwrap();
//! assert!(beta.exact && beta_w.exact);
//! // Observation 2.1: β ≥ βw ≥ βu.
//! assert!(beta.value + 1e-9 >= beta_w.value);
//! assert!(beta_w.value + 1e-9 >= beta_u.value);
//! ```

use crate::sampling::{
    all_small_sets, exact_enumeration_fits, max_set_size, CandidateSets, SamplerConfig,
};
use serde::{Deserialize, Serialize};
use wx_graph::random::derive_seed;
use wx_graph::scratch::with_thread_scratch;
use wx_graph::{Graph, GraphView, NeighborhoodScratch, VertexSet};
use wx_spokesman::{ExactSolver, PortfolioSolver};
use wx_trace::CounterId;

/// One measured expansion quantity, with provenance.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The measured ratio (the minimum over evaluated candidate sets).
    pub value: f64,
    /// The candidate set attaining it.
    pub witness: VertexSet,
    /// `true` when the candidate enumeration was exhaustive *and* the
    /// per-set evaluation was exact, i.e. the value is ground truth.
    pub exact: bool,
    /// A measure-specific certificate for the witness, when one exists. For
    /// [`Wireless`] this is the transmitter subset `S' ⊆ S` realizing the
    /// inner maximum (or the portfolio's best `S'` in sampled mode); ordinary
    /// and unique-neighbor measures have no certificate beyond the witness.
    pub certificate: Option<VertexSet>,
}

/// The result of one per-set evaluation inside the engine.
#[derive(Clone, Debug)]
pub struct SetEvaluation {
    /// The per-set value of the measure.
    pub value: f64,
    /// Optional certificate (see [`Measurement::certificate`]).
    pub certificate: Option<VertexSet>,
}

impl SetEvaluation {
    /// A certificate-free evaluation.
    pub fn plain(value: f64) -> Self {
        SetEvaluation {
            value,
            certificate: None,
        }
    }
}

/// A per-set expansion quantity the engine can minimize over candidate sets.
///
/// Implementors only define the *set-level* evaluation; enumeration,
/// sampling, parallelism and witness tracking are the engine's job.
///
/// The trait is parameterized by the graph backend `G` (any
/// [`GraphView`]; defaults to the CSR [`Graph`], so `dyn ExpansionMeasure`
/// keeps meaning what it always did). The three built-in measures implement
/// it for **every** backend, which is what lets one engine measure CSR
/// graphs, zero-copy [`wx_graph::SubgraphView`]s and unmaterialized
/// [`wx_graph::ImplicitGraph`] families through the same code path.
pub trait ExpansionMeasure<G: GraphView + ?Sized = Graph>: Sync {
    /// Short name for reports ("ordinary", "unique", "wireless").
    fn name(&self) -> &'static str;

    /// Evaluates the measure on one candidate set.
    ///
    /// `exact` requests the exact per-set value (for measures whose set
    /// quantity is itself an optimization problem); implementations may
    /// panic if that is infeasible for `|s|`. With `exact = false` a
    /// certified lower bound on the set quantity is acceptable. `seed`
    /// drives any internal randomness.
    ///
    /// `scratch` is a borrowed [`NeighborhoodScratch`] the implementation
    /// should run its neighborhood counting through; the engine hands each
    /// worker thread its own scratch, which is what makes the candidate
    /// loop allocation-free in steady state. Implementations must not call
    /// [`with_thread_scratch`] themselves (the pool is already borrowed).
    fn evaluate(
        &self,
        g: &G,
        s: &VertexSet,
        exact: bool,
        seed: u64,
        scratch: &mut NeighborhoodScratch,
    ) -> SetEvaluation;

    /// `true` if `evaluate(.., exact = true, ..)` is feasible for sets of
    /// this size.
    fn exact_feasible_for(&self, set_size: usize) -> bool {
        let _ = set_size;
        true
    }
}

/// Names one of the paper's three expansion notions — the serializable
/// handle declarative callers (the `wx-lab` scenario specs, CLI flags) use
/// to pick an [`ExpansionMeasure`] without constructing one themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NotionKind {
    /// Ordinary expansion `β` ([`Ordinary`]).
    Ordinary,
    /// Unique-neighbor expansion `βu` ([`UniqueNeighbor`]).
    Unique,
    /// Wireless expansion `βw` ([`Wireless`]).
    Wireless,
}

impl NotionKind {
    /// All three notions, in the paper's `β ≥ βw ≥ βu` presentation order.
    pub const ALL: [NotionKind; 3] = [
        NotionKind::Ordinary,
        NotionKind::Wireless,
        NotionKind::Unique,
    ];

    /// The short lowercase name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            NotionKind::Ordinary => "ordinary",
            NotionKind::Unique => "unique",
            NotionKind::Wireless => "wireless",
        }
    }

    /// Parses a [`NotionKind::name`] string (case-insensitive).
    pub fn parse(s: &str) -> Option<NotionKind> {
        match s.to_ascii_lowercase().as_str() {
            "ordinary" | "beta" => Some(NotionKind::Ordinary),
            "unique" | "unique-neighbor" => Some(NotionKind::Unique),
            "wireless" => Some(NotionKind::Wireless),
            _ => None,
        }
    }

    /// Builds the measure this notion names, for any graph backend `G`
    /// (inferred from the engine call site; defaults to the CSR [`Graph`]).
    /// `fast` selects the cheap wireless portfolio ([`Wireless::fast`]) for
    /// inner loops; ordinary and unique measures are unaffected.
    pub fn measure<G: GraphView + ?Sized>(
        self,
        fast: bool,
    ) -> Box<dyn ExpansionMeasure<G> + Send + Sync> {
        match self {
            NotionKind::Ordinary => Box::new(Ordinary),
            NotionKind::Unique => Box::new(UniqueNeighbor),
            NotionKind::Wireless => Box::new(if fast {
                Wireless::fast()
            } else {
                Wireless::default()
            }),
        }
    }
}

impl std::fmt::Display for NotionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Ordinary expansion `|Γ⁻(S)|/|S|`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ordinary;

impl<G: GraphView + ?Sized> ExpansionMeasure<G> for Ordinary {
    fn name(&self) -> &'static str {
        "ordinary"
    }
    fn evaluate(
        &self,
        g: &G,
        s: &VertexSet,
        _exact: bool,
        _seed: u64,
        scratch: &mut NeighborhoodScratch,
    ) -> SetEvaluation {
        SetEvaluation::plain(scratch.external_expansion(g, s))
    }
}

/// Unique-neighbor expansion `|Γ¹(S)|/|S|`.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniqueNeighbor;

impl<G: GraphView + ?Sized> ExpansionMeasure<G> for UniqueNeighbor {
    fn name(&self) -> &'static str {
        "unique"
    }
    fn evaluate(
        &self,
        g: &G,
        s: &VertexSet,
        _exact: bool,
        _seed: u64,
        scratch: &mut NeighborhoodScratch,
    ) -> SetEvaluation {
        SetEvaluation::plain(scratch.unique_expansion(g, s))
    }
}

/// Wireless expansion `max_{S' ⊆ S} |Γ¹_S(S')|/|S|`.
///
/// The inner maximization is the Spokesman Election problem: exact mode uses
/// the exponential [`ExactSolver`] (feasible for
/// `|S| ≤ ExactSolver::MAX_LEFT`), sampled mode a polynomial-time
/// [`PortfolioSolver`] lower bound.
#[derive(Default)]
pub struct Wireless {
    /// The polynomial-time solver portfolio used in sampled mode.
    pub portfolio: PortfolioSolver,
}

impl Wireless {
    /// A cheaper variant using the fast portfolio (greedy + partition only).
    pub fn fast() -> Self {
        Wireless {
            portfolio: PortfolioSolver::fast(),
        }
    }
}

impl<G: GraphView + ?Sized> ExpansionMeasure<G> for Wireless {
    fn name(&self) -> &'static str {
        "wireless"
    }

    fn evaluate(
        &self,
        g: &G,
        s: &VertexSet,
        exact: bool,
        seed: u64,
        scratch: &mut NeighborhoodScratch,
    ) -> SetEvaluation {
        let (value, certificate) = if exact {
            crate::wireless::of_set_exact_with(g, s, scratch)
        } else {
            crate::wireless::of_set_lower_bound_with(g, s, &self.portfolio, seed, scratch)
        };
        SetEvaluation {
            value,
            certificate: Some(certificate),
        }
    }

    fn exact_feasible_for(&self, set_size: usize) -> bool {
        set_size <= ExactSolver::MAX_LEFT
    }
}

/// Builder for [`MeasurementEngine`].
#[derive(Clone, Debug)]
pub struct MeasurementEngineBuilder {
    engine: MeasurementEngine,
}

impl MeasurementEngineBuilder {
    /// Sets the `α` size bound (fraction of `n`; default 0.5), the one cap
    /// exact enumeration and sampling share.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.engine.alpha = alpha;
        self
    }

    /// Measures graphs on at most `exact_up_to` vertices exactly and larger
    /// ones by sampling (default 14; `usize::MAX` always enumerates, 0
    /// always samples).
    pub fn exact_up_to(mut self, exact_up_to: usize) -> Self {
        self.engine.exact_up_to = exact_up_to;
        self
    }

    /// Overrides the sampler configuration (default
    /// [`SamplerConfig::default`]).
    pub fn sampler(mut self, sampler: SamplerConfig) -> Self {
        self.engine.sampler = sampler;
        self
    }

    /// Sets the base seed for all randomized components.
    pub fn seed(mut self, seed: u64) -> Self {
        self.engine.seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> MeasurementEngine {
        self.engine
    }
}

/// The engine: owns candidate-set generation and evaluates any
/// [`ExpansionMeasure`] over it. See the module docs for the contract.
#[derive(Clone, Debug)]
pub struct MeasurementEngine {
    alpha: f64,
    exact_up_to: usize,
    sampler: SamplerConfig,
    seed: u64,
}

impl Default for MeasurementEngine {
    fn default() -> Self {
        MeasurementEngine::builder().build()
    }
}

/// The candidate sets one measurement minimizes over.
enum Candidates {
    /// Every set up to the size cap, evaluated exactly.
    Exact(Vec<VertexSet>),
    /// The sampled pool, evaluated with `exact = false`.
    Sampled(CandidateSets),
}

/// One evaluated candidate: its flat index, its evaluation and its witness
/// (a stored set's position, or the set itself once chosen).
type Scored<W> = (usize, SetEvaluation, W);

/// Keeps the smaller value, and of equal values the smaller flat index, so
/// the minimum does not depend on the order of evaluation.
fn keep_min<W>(a: Scored<W>, b: Scored<W>) -> Scored<W> {
    if b.1.value < a.1.value || (b.1.value == a.1.value && b.0 < a.0) {
        b
    } else {
        a
    }
}

/// The three notions measured over one shared pool, directly comparable
/// set-by-set (Observation 2.1 holds per candidate).
#[derive(Clone, Debug)]
pub struct ExpansionTriple {
    /// Ordinary expansion `β`.
    pub ordinary: Measurement,
    /// Unique-neighbor expansion `βu`.
    pub unique: Measurement,
    /// Wireless expansion `βw`.
    pub wireless: Measurement,
}

impl MeasurementEngine {
    /// Starts a builder with the defaults (`α = 0.5`, `exact_up_to = 14`,
    /// the default sampler, seed `0xC0FFEE`).
    pub fn builder() -> MeasurementEngineBuilder {
        MeasurementEngineBuilder {
            engine: MeasurementEngine {
                alpha: 0.5,
                exact_up_to: 14,
                sampler: SamplerConfig::default(),
                seed: 0xC0FFEE,
            },
        }
    }

    /// The `α` size bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `false` if measuring a graph on `n` vertices would enumerate more
    /// sets than [`crate::sampling::EXACT_ENUMERATION_BUDGET`] (which
    /// [`MeasurementEngine::measure`] and friends panic on).
    pub fn exact_within_budget(&self, n: usize) -> bool {
        n > self.exact_up_to || exact_enumeration_fits(n, max_set_size(self.alpha, n))
    }

    /// Generates the engine's sampled candidate pool for `g` (shared across
    /// measures so their results are comparable set-by-set).
    pub fn candidate_pool<G: GraphView + ?Sized>(&self, g: &G) -> CandidateSets {
        let _span = wx_trace::span("engine.candidate_pool");
        let pool = CandidateSets::generate(g, &self.sampler, self.alpha, self.seed);
        wx_trace::count(CounterId::EnginePoolSets, pool.len() as u64);
        pool
    }

    /// Panics with an informative message when `measure` cannot evaluate
    /// exactly the largest set an exact enumeration of `g` would hold;
    /// checked before the enumeration is built.
    fn check_exact_feasible<G: GraphView + ?Sized, M: ExpansionMeasure<G> + ?Sized>(
        &self,
        g: &G,
        measure: &M,
    ) {
        let n = g.num_vertices();
        let cap = max_set_size(self.alpha, n);
        if n <= self.exact_up_to && !measure.exact_feasible_for(cap) {
            panic!(
                "exact {} measurement infeasible for candidate sets of size {cap}",
                measure.name()
            );
        }
    }

    /// The candidate sets for `g`: the exhaustive enumeration when
    /// `n ≤ exact_up_to`, the sampled pool otherwise. `None` for the empty
    /// graph.
    fn candidate_sets<G: GraphView + ?Sized>(&self, g: &G) -> Option<Candidates> {
        let n = g.num_vertices();
        if n == 0 {
            return None;
        }
        Some(if n <= self.exact_up_to {
            wx_trace::count(CounterId::EngineStrategyExact, 1);
            Candidates::Exact(all_small_sets(n, max_set_size(self.alpha, n)))
        } else {
            wx_trace::count(CounterId::EngineStrategySampled, 1);
            Candidates::Sampled(self.candidate_pool(g))
        })
    }

    /// Measures one expansion notion on `g`. Returns `None` only for the
    /// empty graph (or an empty candidate pool).
    ///
    /// Each call builds its candidate sets; when measuring several notions
    /// on one graph, use [`MeasurementEngine::measure_all`] so the pool is
    /// generated once.
    pub fn measure<G, M>(&self, g: &G, measure: &M) -> Option<Measurement>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        self.check_exact_feasible(g, measure);
        self.minimize(g, measure, &self.candidate_sets(g)?)
    }

    /// The measure's value on every set of `pool`, in flat order (see
    /// [`CandidateSets`]), evaluated over [`wx_trace::par_map`]. A singleton
    /// `{v}` scores `deg(v)`. This is the escape hatch for experiment
    /// harnesses that need per-set statistics beyond the minimum.
    pub fn evaluate_pool<G, M>(&self, g: &G, measure: &M, pool: &CandidateSets) -> Vec<f64>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        let seed = self.seed;
        let eval_one = |j: usize, s: &VertexSet| {
            let i = pool.flat_index(j);
            with_thread_scratch(g.num_vertices(), |scratch| {
                measure.evaluate(g, s, false, derive_seed(seed, i as u64), scratch)
            })
            .value
        };
        let _span = wx_trace::span("engine.evaluate_pool");
        wx_trace::count(CounterId::EngineSetsEvaluated, pool.len() as u64);
        // Shielded: `par_map` runs the evaluations on worker threads *or* on
        // this thread (one thread, or fewer than two sets), so per-set
        // counts inside the measures must be dropped consistently to keep
        // telemetry identical across thread counts.
        let stored = wx_trace::shield(|| wx_trace::par_map(&pool.sets, eval_one));
        let mut values = vec![0.0; pool.len()];
        for v in 0..pool.num_vertices() {
            values[pool.singleton_index(v)] = g.degree(v) as f64;
        }
        for (j, value) in stored.into_iter().enumerate() {
            values[pool.flat_index(j)] = value;
        }
        values
    }

    /// Measures all three notions over one shared pool (or one shared exact
    /// enumeration) — the candidate sets are generated once, so the three
    /// results are comparable set-by-set. `None` for the empty graph.
    pub fn measure_all<G: GraphView + Sync + ?Sized>(
        &self,
        g: &G,
        wireless: &Wireless,
    ) -> Option<ExpansionTriple> {
        self.check_exact_feasible(g, wireless);
        let candidates = self.candidate_sets(g)?;
        Some(ExpansionTriple {
            ordinary: self.minimize(g, &Ordinary, &candidates)?,
            unique: self.minimize(g, &UniqueNeighbor, &candidates)?,
            wireless: self.minimize(g, wireless, &candidates)?,
        })
    }

    /// The core minimization: evaluate every stored set (over
    /// [`wx_trace::par_map`]) and, for a sampled pool, take the singleton
    /// block's minimum by degree; keep the smallest value, ties breaking
    /// toward the smaller flat index, so results are independent of the
    /// thread schedule.
    fn minimize<G, M>(&self, g: &G, measure: &M, candidates: &Candidates) -> Option<Measurement>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        let _span = wx_trace::span("engine.minimize");
        let (sets, pool) = match candidates {
            Candidates::Exact(sets) => (sets.as_slice(), None),
            Candidates::Sampled(pool) => (pool.sets.as_slice(), Some(pool)),
        };
        let exact = pool.is_none();
        let evaluated = pool.map_or(sets.len(), CandidateSets::len);
        wx_trace::count(CounterId::EngineSetsEvaluated, evaluated as u64);
        let (seed, n) = (self.seed, g.num_vertices());
        // one scratch per thread: candidate evaluation allocates
        // nothing for the counting measures in steady state
        let evaluate = |i: usize, s: &VertexSet| {
            with_thread_scratch(n, |scratch| {
                measure.evaluate(g, s, exact, derive_seed(seed, i as u64), scratch)
            })
        };
        let eval_one = |j: usize, s: &VertexSet| {
            let i = pool.map_or(j, |pool| pool.flat_index(j));
            (i, evaluate(i, s), j)
        };
        // The singleton block: `{v}` scores `deg(v)`, so only the first
        // vertex of minimum degree is evaluated, at its flat index's seed.
        let singleton = pool.and_then(|pool| {
            let v = (0..n).min_by_key(|&v| g.degree(v))?;
            Some((pool.singleton_index(v), VertexSet::from_iter(n, [v])))
        });
        // Shielded: `par_map` runs the evaluations on worker threads or (one
        // thread, or fewer than two sets) right here; counts from inside the
        // measures — e.g. the spokesman solves driving a wireless evaluation
        // — must be dropped consistently so telemetry is identical at every
        // thread count.
        let (stored, singleton) = wx_trace::shield(|| {
            let stored = wx_trace::par_map(sets, eval_one)
                .into_iter()
                .reduce(keep_min);
            let singleton = singleton.map(|(i, s)| (i, evaluate(i, &s), s));
            (stored, singleton)
        });
        let stored = stored.map(|(i, eval, j)| (i, eval, sets[j].clone()));
        let (_, eval, witness) = stored.into_iter().chain(singleton).reduce(keep_min)?;
        Some(Measurement {
            value: eval.value,
            witness,
            exact,
            certificate: eval.certificate,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sampling::tests::random_graph;
    use proptest::prelude::*;
    use wx_graph::GraphBuilder;

    pub(crate) fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    /// `C⁺`: a clique on `k` vertices plus a source adjacent to 0 and 1.
    pub(crate) fn complete_plus(k: usize) -> Graph {
        let mut b = GraphBuilder::new(k + 1);
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(i, j).unwrap();
            }
        }
        b.add_edge(k, 0).unwrap();
        b.add_edge(k, 1).unwrap();
        b.build()
    }

    #[test]
    fn notion_kind_round_trips_and_measures() {
        for kind in NotionKind::ALL {
            assert_eq!(NotionKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(NotionKind::parse("WIRELESS"), Some(NotionKind::Wireless));
        assert!(NotionKind::parse("bogus").is_none());

        // the boxed measure drives the engine exactly like the concrete type
        let g = cycle(8);
        let engine = MeasurementEngine::builder().alpha(0.5).build();
        let direct = engine.measure(&g, &Ordinary).unwrap();
        let boxed = engine
            .measure(&g, NotionKind::Ordinary.measure(false).as_ref())
            .unwrap();
        assert_eq!(direct.value, boxed.value);

        let json = serde_json::to_string(&NotionKind::Wireless).unwrap();
        assert_eq!(json, "\"Wireless\"");
        let back: NotionKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, NotionKind::Wireless);
    }

    #[test]
    fn exact_matches_known_cycle_values() {
        let g = cycle(8);
        let engine = MeasurementEngine::builder().alpha(0.5).build();
        let m = engine.measure(&g, &Ordinary).unwrap();
        assert!(m.exact);
        assert!((m.value - 0.5).abs() < 1e-12);
        assert_eq!(m.witness.len(), 4);
        assert!(m.certificate.is_none());
    }

    #[test]
    fn wireless_measurement_carries_certificate() {
        let g = complete_plus(6);
        let engine = MeasurementEngine::builder().alpha(0.5).build();
        let m = engine.measure(&g, &Wireless::default()).unwrap();
        assert!(m.exact);
        assert!(m.value > 0.0);
        let cert = m.certificate.expect("wireless certificate");
        // the certificate is a transmitter subset of the witness
        assert!(cert.iter().all(|v| m.witness.contains(v)));
    }

    #[test]
    fn headline_phenomenon_on_c_plus() {
        // βu = 0 < βw on C⁺ — the paper's motivating separation.
        let g = complete_plus(6);
        let engine = MeasurementEngine::builder().alpha(0.5).build();
        let t = engine.measure_all(&g, &Wireless::default()).unwrap();
        assert_eq!(t.unique.value, 0.0);
        assert!(t.wireless.value > 0.0);
        assert!(t.ordinary.value + 1e-9 >= t.wireless.value);
    }

    #[test]
    fn sampled_mode_upper_bounds_exact_for_ordinary() {
        let g = cycle(12);
        let exact = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(usize::MAX)
            .build()
            .measure(&g, &Ordinary)
            .unwrap();
        let sampled = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(0)
            .seed(3)
            .build()
            .measure(&g, &Ordinary)
            .unwrap();
        assert!(exact.exact && !sampled.exact);
        assert!(sampled.value >= exact.value - 1e-12);
        // the adversarial samplers find the true minimum on a cycle
        assert!((sampled.value - exact.value).abs() < 1e-9);
    }

    #[test]
    fn builder_alpha_is_single_sourced() {
        // the engine's α is the one cap of both the exact enumeration and
        // the sampled pool, whatever the sampler and the setter order
        for engine in [
            MeasurementEngine::builder()
                .alpha(0.2)
                .sampler(SamplerConfig::light())
                .build(),
            MeasurementEngine::builder()
                .sampler(SamplerConfig::default())
                .alpha(0.2)
                .build(),
        ] {
            assert_eq!(engine.alpha(), 0.2);
            let exact = engine.measure(&cycle(10), &Ordinary).unwrap();
            assert!(exact.exact && exact.witness.len() == 2);
            let pool = engine.candidate_pool(&cycle(40));
            assert_eq!(pool.sets.iter().map(VertexSet::len).max(), Some(8));
        }
    }

    #[test]
    fn auto_strategy_switches_on_size() {
        let engine = MeasurementEngine::builder().exact_up_to(10).build();
        assert!(engine.measure(&cycle(10), &Ordinary).unwrap().exact);
        assert!(!engine.measure(&cycle(11), &Ordinary).unwrap().exact);
        assert!(engine.measure(&Graph::empty(0), &Ordinary).is_none());
    }

    #[test]
    fn empty_graph_measures_none() {
        let engine = MeasurementEngine::default();
        assert!(engine.measure(&Graph::empty(0), &Ordinary).is_none());
        assert!(engine
            .measure_all(&Graph::empty(0), &Wireless::default())
            .is_none());
    }

    #[test]
    fn evaluate_pool_preserves_order_and_length() {
        let g = cycle(20);
        let engine = MeasurementEngine::builder().seed(2).build();
        let pool = engine.candidate_pool(&g);
        let values = engine.evaluate_pool(&g, &Ordinary, &pool);
        assert_eq!(values.len(), pool.len());
        // spot-check against the per-set primitive
        for (j, s) in pool.sets.iter().enumerate().take(10) {
            assert_eq!(
                values[pool.flat_index(j)],
                wx_graph::neighborhood::expansion_of_set(&g, s)
            );
        }
        assert!((0..20).all(|v| values[pool.singleton_index(v)] == 2.0));
    }

    /// The pool as the sampler used to store it: the stored sets plus every
    /// singleton as a set, sorted by member list.
    fn materialized(pool: &CandidateSets) -> Vec<VertexSet> {
        let n = pool.num_vertices();
        let mut sets = pool.sets.clone();
        sets.extend((0..n).map(|v| VertexSet::from_iter(n, [v])));
        sets.sort_by(|a, b| a.iter().cmp(b.iter()));
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The singleton scan and the flat-index seeds reproduce, set for
        /// set, the minimum over the materialized pool with each set seeded
        /// by its position: value, witness and certificate, and
        /// `evaluate_pool` in order. The graphs are irregular, with several
        /// components and isolated vertices when sparse.
        #[test]
        fn singleton_scan_matches_the_materialized_pool(
            n in 1usize..=200,
            shape in (1usize..=4, 0usize..=4),
            alpha_percent in 1usize..=100,
            seed in any::<u64>(),
        ) {
            let (components, edges_per_vertex) = shape;
            let g = random_graph(n, components, edges_per_vertex * n, seed);
            let engine = MeasurementEngine::builder()
                .alpha(alpha_percent as f64 / 100.0)
                .exact_up_to(0)
                .sampler(SamplerConfig::light())
                .seed(seed)
                .build();
            let pool = engine.candidate_pool(&g);
            let sets = materialized(&pool);
            prop_assert_eq!(sets.len(), pool.len());
            let (wireless, fast) = (Wireless::default(), Wireless::fast());
            let measures: [&dyn ExpansionMeasure; 4] = [&Ordinary, &UniqueNeighbor, &wireless, &fast];
            for measure in measures {
                let mut scratch = NeighborhoodScratch::new(n);
                let evals: Vec<SetEvaluation> = sets
                    .iter()
                    .enumerate()
                    .map(|(i, s)| measure.evaluate(&g, s, false, derive_seed(seed, i as u64), &mut scratch))
                    .collect();
                let values: Vec<f64> = evals.iter().map(|e| e.value).collect();
                prop_assert_eq!(&engine.evaluate_pool(&g, measure, &pool), &values);
                let mut best = 0;
                for (i, eval) in evals.iter().enumerate() {
                    if eval.value < evals[best].value {
                        best = i;
                    }
                }
                let m = engine.measure(&g, measure).unwrap();
                prop_assert_eq!(m.value, evals[best].value);
                prop_assert_eq!(m.witness.to_vec(), sets[best].to_vec());
                let certificate = |c: &Option<VertexSet>| c.as_ref().map(VertexSet::to_vec);
                prop_assert_eq!(certificate(&m.certificate), certificate(&evals[best].certificate));
            }
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn exact_wireless_panics_beyond_inner_limit() {
        // sets of up to 30 vertices exceed the exact solver's limit; the
        // check runs before the (over-budget) enumeration is built
        let engine = MeasurementEngine::builder()
            .alpha(0.5)
            .exact_up_to(usize::MAX)
            .build();
        let _ = engine.measure(&cycle(60), &Wireless::default());
    }
}
