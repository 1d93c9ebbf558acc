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
//! Historically each notion shipped its own `exact` / `estimate` /
//! `estimate_with_config` entry points; the only blessed way to compute a
//! graph-level expansion value is now one [`MeasurementEngine`] driving any
//! [`ExpansionMeasure`]. The engine owns the candidate-set
//! pool, decides between exhaustive enumeration and sampling per
//! [`MeasureStrategy`], fans the per-set evaluations out over `rayon`
//! (on by default — see [`MeasurementEngineBuilder::parallel`]), and returns
//! a unified [`Measurement`]. The per-notion modules retain only *per-set*
//! primitives (`ordinary::of_set`, `unique::of_set`, `wireless::of_set_exact`,
//! `wireless::of_set_lower_bound`) for callers that need set-level
//! quantities (e.g. the Observation 2.1 per-set sandwich).
//!
//! # Strategy selection rules
//!
//! * [`MeasureStrategy::Exact`] enumerates every non-empty `S` up to the size
//!   cap (feasible for `n ≤ 22` with any cap, or for larger `n` whenever the
//!   number of sets `Σ_k C(n, k)` stays under the enumeration budget — see
//!   [`crate::sampling::all_small_sets`]; panics when the enumeration would
//!   be astronomically large) and, for [`Wireless`], solves the inner
//!   maximization optimally (feasible for `|S| ≤ 25`). The result has
//!   `exact = true` and is ground truth.
//! * [`MeasureStrategy::Sampled`] evaluates the shared candidate pool
//!   generated from the engine's [`SamplerConfig`]. For [`Ordinary`] and
//!   [`UniqueNeighbor`] the result is an *upper bound* on the true minimum
//!   (every evaluated set certifies one); for [`Wireless`] the inner
//!   maximization uses the polynomial-time spokesman portfolio, so the
//!   estimate is neither a strict upper nor lower bound (see the
//!   [`crate::wireless`] module docs for the quantifier asymmetry).
//! * [`MeasureStrategy::Auto`] (the default, with `exact_up_to = 14`) picks
//!   `Exact` when `0 < n ≤ exact_up_to` and `Sampled` otherwise. This is the
//!   same threshold logic `ExpansionProfile` has always used, now in one
//!   place.
//!
//! Determinism: every randomized component is derived from the engine's
//! `seed` via `derive_seed`, so measurements are reproducible regardless of
//! the rayon thread schedule.
//!
//! # Performance: epoch-stamped scratch spaces
//!
//! Candidate evaluation is the engine's hot loop — an exact run visits every
//! set under the size cap and a profile sweep evaluates three measures over a
//! shared pool — so the per-set cost must be pure graph traversal. Each
//! [`ExpansionMeasure::evaluate`] call receives a borrowed
//! [`NeighborhoodScratch`]: the engine draws it from a per-rayon-worker pool
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

use crate::sampling::{all_small_sets, CandidateSets, SamplerConfig};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use wx_graph::random::derive_seed;
use wx_graph::scratch::with_thread_scratch;
use wx_graph::{Graph, GraphView, NeighborhoodScratch, VertexSet};
use wx_spokesman::PortfolioSolver;
use wx_trace::CounterId;

/// How a [`MeasurementEngine`] chooses its candidate sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MeasureStrategy {
    /// Enumerate every non-empty set up to the size cap (ground truth;
    /// requires the enumeration to fit the budget of
    /// [`crate::sampling::all_small_sets`]).
    Exact,
    /// Evaluate the sampled candidate pool.
    Sampled,
    /// `Exact` when `0 < n ≤ exact_up_to`, `Sampled` otherwise.
    Auto {
        /// The exhaustive-enumeration threshold.
        exact_up_to: usize,
    },
}

impl Default for MeasureStrategy {
    fn default() -> Self {
        MeasureStrategy::Auto { exact_up_to: 14 }
    }
}

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
    /// rayon worker its per-thread scratch, which is what makes the candidate
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
        SetEvaluation::plain(crate::ordinary::of_set_with(g, s, scratch))
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
        SetEvaluation::plain(crate::unique::of_set_with(g, s, scratch))
    }
}

/// Wireless expansion `max_{S' ⊆ S} |Γ¹_S(S')|/|S|`.
///
/// The inner maximization is the Spokesman Election problem: exact mode uses
/// the exponential [`wx_spokesman::ExactSolver`] (feasible for
/// `|S| ≤ exact_inner_up_to`), sampled mode a polynomial-time
/// [`PortfolioSolver`] lower bound.
pub struct Wireless {
    /// The polynomial-time solver portfolio used in sampled mode.
    pub portfolio: PortfolioSolver,
    /// Size limit for the exact inner solver.
    pub exact_inner_up_to: usize,
}

impl Default for Wireless {
    fn default() -> Self {
        Wireless {
            portfolio: PortfolioSolver::default(),
            exact_inner_up_to: 25,
        }
    }
}

impl Wireless {
    /// A cheaper variant using the fast portfolio (greedy + partition only).
    pub fn fast() -> Self {
        Wireless {
            portfolio: PortfolioSolver::fast(),
            exact_inner_up_to: 25,
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
        set_size <= self.exact_inner_up_to
    }
}

/// Builder for [`MeasurementEngine`].
#[derive(Clone, Debug)]
pub struct MeasurementEngineBuilder {
    alpha: f64,
    strategy: MeasureStrategy,
    sampler: Option<SamplerConfig>,
    parallel: bool,
    seed: u64,
}

impl MeasurementEngineBuilder {
    /// Sets the `α` size bound (fraction of `n`; default 0.5).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the exact-vs-sampled strategy (default `Auto { exact_up_to: 14 }`).
    pub fn strategy(mut self, strategy: MeasureStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Shorthand for `strategy(MeasureStrategy::Auto { exact_up_to })`.
    pub fn exact_up_to(mut self, exact_up_to: usize) -> Self {
        self.strategy = MeasureStrategy::Auto { exact_up_to };
        self
    }

    /// Overrides the sampler configuration (default: `SamplerConfig` with
    /// the engine's `alpha`). The engine's `alpha` (set via
    /// [`MeasurementEngineBuilder::alpha`], default 0.5) is authoritative:
    /// `build()` stamps it into the sampler, so the sampler's own `alpha`
    /// field is ignored and exact enumeration and sampling always apply the
    /// same size cap.
    pub fn sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Enables or disables rayon-parallel candidate evaluation (default on).
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the base seed for all randomized components.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> MeasurementEngine {
        // the engine's alpha is authoritative: sync the sampler so the
        // exact and sampled paths can never apply different size caps
        let mut sampler = self.sampler.unwrap_or_default();
        sampler.alpha = self.alpha;
        MeasurementEngine {
            alpha: self.alpha,
            strategy: self.strategy,
            sampler,
            parallel: self.parallel,
            seed: self.seed,
        }
    }
}

/// The engine: owns candidate-set generation and evaluates any
/// [`ExpansionMeasure`] over it. See the module docs for the contract.
#[derive(Clone, Debug)]
pub struct MeasurementEngine {
    alpha: f64,
    strategy: MeasureStrategy,
    sampler: SamplerConfig,
    parallel: bool,
    seed: u64,
}

impl Default for MeasurementEngine {
    fn default() -> Self {
        MeasurementEngine::builder().build()
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
    /// Starts a builder with the defaults (`α = 0.5`, auto strategy with
    /// `exact_up_to = 14`, parallel evaluation on, seed `0xC0FFEE`).
    pub fn builder() -> MeasurementEngineBuilder {
        MeasurementEngineBuilder {
            alpha: 0.5,
            strategy: MeasureStrategy::default(),
            sampler: None,
            parallel: true,
            seed: 0xC0FFEE,
        }
    }

    /// The `α` size bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The configured strategy.
    pub fn strategy(&self) -> MeasureStrategy {
        self.strategy
    }

    /// Whether candidate evaluation fans out over rayon.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolves the strategy for a graph on `n` vertices.
    pub fn resolved_strategy(&self, n: usize) -> MeasureStrategy {
        match self.strategy {
            MeasureStrategy::Auto { exact_up_to } => {
                if n > 0 && n <= exact_up_to {
                    MeasureStrategy::Exact
                } else {
                    MeasureStrategy::Sampled
                }
            }
            other => other,
        }
    }

    /// Generates the engine's sampled candidate pool for `g` (shared across
    /// measures so their results are comparable set-by-set).
    pub fn candidate_pool<G: GraphView + ?Sized>(&self, g: &G) -> CandidateSets {
        let _span = wx_trace::span("engine.candidate_pool");
        let pool = CandidateSets::generate(g, &self.sampler, self.seed);
        wx_trace::count(CounterId::EnginePoolSets, pool.sets.len() as u64);
        pool
    }

    /// The maximum candidate-set size for a graph on `n` vertices
    /// (delegated to the sampler, whose `alpha` is kept in sync by the
    /// builder, so exact and sampled modes share one cap).
    fn max_set_size(&self, n: usize) -> usize {
        self.sampler.max_set_size(n)
    }

    /// Resolves the strategy for `g` and materializes the candidate sets it
    /// implies: the exhaustive enumeration (`exact = true`) or the sampled
    /// pool (`exact = false`). `None` for the empty graph.
    fn candidate_sets<G: GraphView + ?Sized>(&self, g: &G) -> Option<(Vec<VertexSet>, bool)> {
        let n = g.num_vertices();
        if n == 0 {
            return None;
        }
        Some(match self.resolved_strategy(n) {
            MeasureStrategy::Exact => {
                wx_trace::count(CounterId::EngineStrategyExact, 1);
                (all_small_sets(n, self.max_set_size(n)), true)
            }
            _ => {
                wx_trace::count(CounterId::EngineStrategySampled, 1);
                (self.candidate_pool(g).sets, false)
            }
        })
    }

    /// Measures one expansion notion on `g`. Returns `None` only for the
    /// empty graph (or an empty candidate pool).
    ///
    /// Each call materializes its candidate sets; when measuring several
    /// notions on one graph, use [`MeasurementEngine::measure_all`] (or an
    /// explicit [`MeasurementEngine::candidate_pool`] with
    /// [`MeasurementEngine::measure_with_pool`]) so the pool is generated
    /// once.
    pub fn measure<G, M>(&self, g: &G, measure: &M) -> Option<Measurement>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        let (sets, exact) = self.candidate_sets(g)?;
        self.minimize(g, measure, &sets, exact)
    }

    /// Measures one notion over an explicit candidate pool (always sampled
    /// semantics: `exact = false`).
    pub fn measure_with_pool<G, M>(
        &self,
        g: &G,
        measure: &M,
        pool: &CandidateSets,
    ) -> Option<Measurement>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        self.minimize(g, measure, &pool.sets, false)
    }

    /// Evaluates the measure on every set of `pool` (in pool order), in
    /// parallel when enabled. This is the escape hatch for experiment
    /// harnesses that need per-set statistics beyond the minimum.
    pub fn evaluate_pool<G, M>(
        &self,
        g: &G,
        measure: &M,
        pool: &CandidateSets,
    ) -> Vec<SetEvaluation>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        let seed = self.seed;
        let eval_one = |(i, s): (usize, &VertexSet)| {
            with_thread_scratch(g.num_vertices(), |scratch| {
                measure.evaluate(g, s, false, derive_seed(seed, i as u64), scratch)
            })
        };
        let _span = wx_trace::span("engine.evaluate_pool");
        wx_trace::count(CounterId::EngineSetsEvaluated, pool.sets.len() as u64);
        // Shielded: rayon may run the evaluations on worker threads *or* on
        // this thread (one-thread pools), so per-set counts inside the
        // measures must be dropped consistently to keep telemetry identical
        // across thread counts.
        wx_trace::shield(|| {
            if self.parallel {
                pool.sets.par_iter().enumerate().map(eval_one).collect()
            } else {
                pool.sets.iter().enumerate().map(eval_one).collect()
            }
        })
    }

    /// Measures several notions over one shared candidate enumeration/pool,
    /// returning measurements in `measures` order. `None` for the empty
    /// graph. This is the general form of [`MeasurementEngine::measure_all`]
    /// for callers that need an arbitrary subset of measures.
    pub fn measure_many<G: GraphView + Sync + ?Sized>(
        &self,
        g: &G,
        measures: &[&dyn ExpansionMeasure<G>],
    ) -> Option<Vec<Measurement>> {
        let (sets, exact) = self.candidate_sets(g)?;
        measures
            .iter()
            .map(|m| self.minimize(g, *m, &sets, exact))
            .collect()
    }

    /// Measures all three notions over one shared pool (or one shared exact
    /// enumeration) — the candidate sets are generated once, so the three
    /// results are comparable set-by-set. `None` for the empty graph.
    pub fn measure_all<G: GraphView + Sync + ?Sized>(
        &self,
        g: &G,
        wireless: &Wireless,
    ) -> Option<ExpansionTriple> {
        let (sets, exact) = self.candidate_sets(g)?;
        Some(ExpansionTriple {
            ordinary: self.minimize(g, &Ordinary, &sets, exact)?,
            unique: self.minimize(g, &UniqueNeighbor, &sets, exact)?,
            wireless: self.minimize(g, wireless, &sets, exact)?,
        })
    }

    /// Searches the candidate sets for one whose measured value falls below
    /// `threshold`, returning the first violating witness (pool order). A
    /// `None` result is evidence, not proof, unless the strategy resolved to
    /// `Exact`.
    pub fn find_violation<G, M>(&self, g: &G, measure: &M, threshold: f64) -> Option<Measurement>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        let _span = wx_trace::span("engine.find_violation");
        let (sets, exact) = self.candidate_sets(g)?;
        self.check_exact_feasible(measure, &sets, exact);
        let seed = self.seed;
        // Shielded like the other evaluation loops: the early-exit `find`
        // makes the number of per-set evaluations data-dependent, so counts
        // from inside the measures must never reach a report.
        wx_trace::shield(|| {
            sets.into_iter()
                .enumerate()
                .map(|(i, s)| {
                    let eval = with_thread_scratch(g.num_vertices(), |scratch| {
                        measure.evaluate(g, &s, exact, derive_seed(seed, i as u64), scratch)
                    });
                    Measurement {
                        value: eval.value,
                        witness: s,
                        exact,
                        certificate: eval.certificate,
                    }
                })
                .find(|m| m.value < threshold)
        })
    }

    /// Panics with an informative message when an exact evaluation would be
    /// infeasible for some candidate set (shared by every exact code path).
    fn check_exact_feasible<G: GraphView + ?Sized, M: ExpansionMeasure<G> + ?Sized>(
        &self,
        measure: &M,
        sets: &[VertexSet],
        exact: bool,
    ) {
        if exact {
            if let Some(s) = sets.iter().find(|s| !measure.exact_feasible_for(s.len())) {
                panic!(
                    "exact {} measurement infeasible for candidate set of size {}",
                    measure.name(),
                    s.len()
                );
            }
        }
    }

    /// The core minimization: evaluate every set (in parallel when enabled)
    /// and keep the smallest value; ties break toward the earlier set, so
    /// results are independent of the thread schedule.
    fn minimize<G, M>(
        &self,
        g: &G,
        measure: &M,
        sets: &[VertexSet],
        exact: bool,
    ) -> Option<Measurement>
    where
        G: GraphView + Sync + ?Sized,
        M: ExpansionMeasure<G> + ?Sized,
    {
        let _span = wx_trace::span("engine.minimize");
        self.check_exact_feasible(measure, sets, exact);
        wx_trace::count(CounterId::EngineSetsEvaluated, sets.len() as u64);
        let seed = self.seed;
        let eval_one = |(i, s): (usize, &VertexSet)| {
            // one scratch per rayon worker: candidate evaluation allocates
            // nothing for the counting measures in steady state
            let eval = with_thread_scratch(g.num_vertices(), |scratch| {
                measure.evaluate(g, s, exact, derive_seed(seed, i as u64), scratch)
            });
            (i, eval)
        };
        let keep_min = |a: (usize, SetEvaluation), b: (usize, SetEvaluation)| {
            if b.1.value < a.1.value || (b.1.value == a.1.value && b.0 < a.0) {
                b
            } else {
                a
            }
        };
        // Shielded: the evaluations run on rayon workers or (one-thread
        // pools) right here; counts from inside the measures — e.g. the
        // spokesman solves driving a wireless evaluation — must be dropped
        // consistently so telemetry is identical at every thread count.
        let best = wx_trace::shield(|| {
            if self.parallel {
                sets.par_iter()
                    .enumerate()
                    .map(eval_one)
                    .reduce_with(keep_min)
            } else {
                sets.iter().enumerate().map(eval_one).reduce(keep_min)
            }
        });
        best.map(|(i, eval)| Measurement {
            value: eval.value,
            witness: sets[i].clone(),
            exact,
            certificate: eval.certificate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn complete_plus(k: usize) -> Graph {
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
            .strategy(MeasureStrategy::Exact)
            .build()
            .measure(&g, &Ordinary)
            .unwrap();
        let sampled = MeasurementEngine::builder()
            .alpha(0.5)
            .strategy(MeasureStrategy::Sampled)
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
    fn parallel_and_sequential_agree() {
        let g = cycle(30);
        let base = MeasurementEngine::builder()
            .alpha(0.5)
            .strategy(MeasureStrategy::Sampled)
            .seed(11);
        for measure in [&Ordinary as &dyn ExpansionMeasure, &UniqueNeighbor] {
            let par = base
                .clone()
                .parallel(true)
                .build()
                .measure(&g, measure)
                .unwrap();
            let seq = base
                .clone()
                .parallel(false)
                .build()
                .measure(&g, measure)
                .unwrap();
            assert_eq!(par.value, seq.value);
            assert_eq!(par.witness.to_vec(), seq.witness.to_vec());
        }
        let w = Wireless::default();
        let par = base.clone().parallel(true).build().measure(&g, &w).unwrap();
        let seq = base
            .clone()
            .parallel(false)
            .build()
            .measure(&g, &w)
            .unwrap();
        assert_eq!(par.value, seq.value);
        assert_eq!(par.witness.to_vec(), seq.witness.to_vec());
    }

    #[test]
    fn builder_alpha_is_single_sourced() {
        // the engine alpha (default 0.5) overrides the sampler's own alpha,
        // so the exact and sampled paths can never apply different size caps
        let engine = MeasurementEngine::builder()
            .sampler(SamplerConfig::light(0.2))
            .build();
        assert!((engine.alpha() - 0.5).abs() < 1e-12);
        assert_eq!(engine.max_set_size(10), 5);
        // .alpha() governs both paths regardless of setter order
        let engine = MeasurementEngine::builder()
            .alpha(0.2)
            .sampler(SamplerConfig::default())
            .build();
        assert!((engine.alpha() - 0.2).abs() < 1e-12);
        assert_eq!(engine.max_set_size(10), 2);
    }

    #[test]
    fn auto_strategy_switches_on_size() {
        let engine = MeasurementEngine::builder().exact_up_to(10).build();
        assert_eq!(engine.resolved_strategy(8), MeasureStrategy::Exact);
        assert_eq!(engine.resolved_strategy(11), MeasureStrategy::Sampled);
        assert_eq!(engine.resolved_strategy(0), MeasureStrategy::Sampled);
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
    fn find_violation_detects_low_expansion() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let engine = MeasurementEngine::builder().seed(5).build();
        // a path is a terrible expander
        assert!(engine.find_violation(&g, &Ordinary, 1.5).is_some());
        assert!(engine.find_violation(&g, &Ordinary, 0.0).is_none());
    }

    #[test]
    fn evaluate_pool_preserves_order_and_length() {
        let g = cycle(20);
        let engine = MeasurementEngine::builder().seed(2).build();
        let pool = engine.candidate_pool(&g);
        let evals = engine.evaluate_pool(&g, &Ordinary, &pool);
        assert_eq!(evals.len(), pool.len());
        // spot-check against the per-set primitive
        for (s, e) in pool.sets.iter().zip(evals.iter()).take(10) {
            assert_eq!(e.value, crate::ordinary::of_set(&g, s));
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn exact_wireless_panics_beyond_inner_limit() {
        let g = cycle(16);
        let engine = MeasurementEngine::builder()
            .alpha(0.5)
            .strategy(MeasureStrategy::Exact)
            .build();
        // |S| up to 8 is fine; pretend the limit is tiny to hit the check
        let w = Wireless {
            portfolio: PortfolioSolver::fast(),
            exact_inner_up_to: 2,
        };
        let _ = engine.measure(&g, &w);
    }
}
