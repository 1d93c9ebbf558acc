//! The scenario runner: spec → deterministic trial plan → parallel
//! execution → aggregated JSON report.
//!
//! # Determinism contract
//!
//! [`Runner::plan`] expands a [`ScenarioSpec`] into a [`TrialPlan`] whose
//! per-trial seeds are derived from the spec's base seed with
//! [`derive_seed`], never from global state. Trial groups fan out over
//! threads with [`wx_trace::par_map`] (as many as `RAYON_NUM_THREADS`
//! allows) but collect **in trial order**, every randomized component
//! inside a trial is seeded from that trial's seed, and aggregated metrics
//! are stored in `BTreeMap`s — so two runs of the same spec produce
//! byte-identical JSON reports regardless of the thread count and
//! schedule.
//!
//! # Execution
//!
//! [`Runner::run_ctx`] has one execution path in two pieces:
//!
//! * **The instance provider** yields, for each trial, the graph instance
//!   it runs on plus the build seed that content-addresses it. A
//!   deterministic source is built once at seed 0 and shared by every
//!   trial. A randomized source is built per trial at
//!   `derive_seed(trial.seed, 0)`. An `Induced { size }` source over a
//!   deterministic base builds the base once and draws only the per-trial
//!   subset, which [`GraphSource::build_backend`] draws through the same
//!   function, so both give the same instance. Builds go through the
//!   context's graph store when one is attached.
//! * **The task executor** runs a group of trials that share one instance:
//!   the graph metadata (and for radio the completion-target BFS) are
//!   computed once per group. Radio groups hold up to [`MAX_LANES`] trials
//!   on a shared instance and one trial otherwise, and every radio trial
//!   simulates as a lane of the bit-sliced engine (`run_lanes_in`), each
//!   lane's trial a function of its trial's task seed alone. Every other
//!   task runs in groups of one.
//!
//! The executor reuses the workspace's fast inner loops: expansion tasks
//! run through the [`MeasurementEngine`]'s per-thread
//! `NeighborhoodScratch` pool, the spokesman task extracts its bipartite
//! views through [`with_thread_scratch`], and radio batches run in the
//! per-thread lane workspace. Backends stay in their native form: implicit
//! sources stay implicit and induced sources run on a zero-copy
//! `SubgraphView`.

use crate::cache::{GraphStore, RunContext, SolutionEntry, SolutionStore};
use crate::canon;
use crate::error::{LabError, Result};
use crate::source::{with_graph_view, BuiltGraph, GraphSource};
use crate::spec::{ScenarioSpec, Task};
use std::collections::BTreeMap;
use std::sync::Arc;
use wx_core::expansion::engine::{MeasurementEngine, Wireless};
use wx_core::expansion::sampling::EXACT_ENUMERATION_BUDGET;
use wx_core::graph::random::{derive_seed, random_subset_of_size, rng_from_seed};
use wx_core::graph::scratch::with_thread_scratch;
use wx_core::graph::{BipartiteGraph, GraphView};
use wx_core::radio::protocols::ProtocolKind;
use wx_core::radio::{
    run_lanes_in, with_thread_lane_workspace, LaneWorkspace, RadioSimulator, SimulatorConfig,
    MAX_LANES,
};
use wx_core::report::{
    fmt_f64, render_table, to_json_pretty, AggregateStats, StatsAccumulator, TableRow,
};
use wx_core::spokesman::SolverKind;

/// One planned trial: its index and its derived seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TrialSpec {
    /// Trial index `0..trials`.
    pub index: usize,
    /// Seed derived from the scenario seed (`derive_seed(spec.seed, index)`).
    pub seed: u64,
}

/// The deterministic expansion of a spec into trials.
#[derive(Clone, Debug)]
pub struct TrialPlan {
    /// The spec the plan was derived from.
    pub spec: ScenarioSpec,
    /// One entry per trial, in execution order.
    pub trials: Vec<TrialSpec>,
}

/// The measured metrics of one executed trial.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TrialRecord {
    /// Trial index.
    pub trial: usize,
    /// The trial's derived seed.
    pub seed: u64,
    /// Metric name → value. Non-finite values serialize as `null` and are
    /// skipped by aggregation.
    pub metrics: BTreeMap<String, f64>,
}

/// The aggregated, serializable result of one scenario run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub name: String,
    /// Scenario description (from the spec).
    pub description: String,
    /// Human-readable graph-source label.
    pub source: String,
    /// Human-readable task label.
    pub task: String,
    /// The base seed.
    pub seed: u64,
    /// Number of executed trials.
    pub trials: usize,
    /// Metric name → aggregate statistics over the trials (streamed through
    /// [`StatsAccumulator`]s, so aggregation memory is bounded regardless of
    /// trial count).
    pub metrics: BTreeMap<String, AggregateStats>,
    /// Deterministic work counters summed over every trial (counter name →
    /// total). Only scheduling-independent counts are recorded — rounds
    /// simulated, candidate sets evaluated, solver flips — and they are
    /// collected whether or not tracing is enabled, so this section is
    /// byte-identical across thread counts and with `--trace` on or off.
    pub telemetry: BTreeMap<String, u64>,
    /// The first raw per-trial records (in trial order), up to
    /// [`DEFAULT_PER_TRIAL_CAP`] of them.
    pub per_trial: Vec<TrialRecord>,
    /// `true` if more trials ran than `per_trial` retains (the aggregates in
    /// `metrics` always cover every trial).
    pub per_trial_truncated: bool,
}

impl ScenarioReport {
    /// Serializes the report to pretty JSON (the `wx` CLI's output format).
    pub fn to_json(&self) -> String {
        to_json_pretty(self)
    }

    /// Renders a human-readable summary table of the aggregated metrics.
    pub fn summary_table(&self) -> String {
        let rows: Vec<TableRow> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                TableRow::new(
                    name.clone(),
                    vec![
                        s.count.to_string(),
                        fmt_f64(s.mean),
                        fmt_f64(s.median),
                        fmt_f64(s.min),
                        fmt_f64(s.max),
                        fmt_f64(s.p95),
                    ],
                )
            })
            .collect();
        render_table(
            &format!(
                "{} — {} · {} · {} trial(s), seed {}",
                self.name, self.source, self.task, self.trials, self.seed
            ),
            &["metric", "count", "mean", "median", "min", "max", "p95"],
            &rows,
        )
    }
}

/// Number of raw per-trial records a report retains. Aggregated metrics
/// always cover every trial; the cap only bounds the verbatim `per_trial`
/// echo so reports for million-trial runs stay small.
pub const DEFAULT_PER_TRIAL_CAP: usize = 1024;

/// Number of trials executed per fan-out batch. Trials stream into the
/// aggregators batch by batch, so peak memory is O(chunk + per-trial cap)
/// records instead of O(trials).
const TRIAL_CHUNK: usize = 256;

/// Executes scenarios. See the module docs for the determinism contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct Runner;

impl Runner {
    /// A runner; its trial groups fan out over [`wx_trace::par_map`].
    pub fn new() -> Runner {
        Runner
    }

    /// Expands a spec into its deterministic trial plan.
    pub fn plan(&self, spec: &ScenarioSpec) -> TrialPlan {
        TrialPlan {
            spec: spec.clone(),
            trials: trial_specs(spec, 0..spec.trials),
        }
    }

    /// Runs a scenario end to end: plan, execute every trial, aggregate.
    ///
    /// Trials execute in fixed-size batches, each batch's [`TrialSpec`]s
    /// derived when the batch is reached, and their metrics stream into
    /// per-key [`StatsAccumulator`]s **in trial order** (preserving the
    /// determinism contract), so runner memory is bounded by the batch size
    /// plus the per-trial record cap — it does not grow with the trial
    /// count.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport> {
        self.run_ctx(spec, &RunContext::default())
    }

    /// [`Runner::run`] with a cache seam: built graphs are looked up in /
    /// retained by `ctx.graphs` (shared via `Arc` instead of rebuilt per
    /// call) and spokesman solves in `ctx.solutions` (a hit skips the
    /// solver and replays its deterministic counters). With both stores
    /// absent this *is* the batch path; with them present report bytes
    /// are unchanged — the caches only shift where artifacts come from.
    /// `wx serve` and sweep runs thread one long-lived
    /// [`ArtifactCache`](crate::cache::ArtifactCache) through here.
    pub fn run_ctx(&self, spec: &ScenarioSpec, ctx: &RunContext<'_>) -> Result<ScenarioReport> {
        spec.validate()?;
        let instances = Instances::new(&spec.source, ctx)?;
        // Radio trials on one shared instance batch into the lanes of one
        // word; every other group is a single trial.
        let group = match (&instances.kind, &spec.task) {
            (InstanceKind::Shared(_), Task::Radio { .. }) => MAX_LANES,
            _ => 1,
        };
        // The counter scope lives *inside* the closure, so counts land on
        // whichever thread `par_map` runs the group on and are summed in
        // deterministic group order by `aggregate`.
        let run_group = |trials: &[TrialSpec]| -> WorkUnit {
            let (records, counters) = wx_trace::with_counters(|| {
                let _span = wx_trace::span("lab.trial");
                execute_group(&instances, &spec.task, trials, ctx)
            });
            let results = match records {
                Ok(records) => records.into_iter().map(Ok).collect(),
                Err(e) => vec![Err(e)],
            };
            (results, counters)
        };
        let chunks = (0..spec.trials).step_by(TRIAL_CHUNK).map(|start| {
            let end = spec.trials.min(start.saturating_add(TRIAL_CHUNK));
            let chunk = trial_specs(spec, start..end);
            let groups: Vec<&[TrialSpec]> = chunk.chunks(group).collect();
            wx_trace::par_map(&groups, |_, g| run_group(g))
        });

        self.aggregate(spec, chunks)
    }

    /// Streams chunked group results into per-metric accumulators **in
    /// trial order** and assembles the report. Each [`WorkUnit`]'s
    /// deterministic counters are summed in the same fixed order into the
    /// report's `telemetry` section.
    fn aggregate<I>(&self, spec: &ScenarioSpec, chunks: I) -> Result<ScenarioReport>
    where
        I: Iterator<Item = Vec<WorkUnit>>,
    {
        let mut accumulators: BTreeMap<String, StatsAccumulator> = BTreeMap::new();
        let mut per_trial: Vec<TrialRecord> = Vec::new();
        let mut per_trial_truncated = false;
        let mut executed = 0usize;
        let mut totals = wx_trace::CounterSet::new();
        for units in chunks {
            for (results, counters) in units {
                totals.merge(&counters);
                for result in results {
                    let record = result?;
                    executed += 1;
                    for (key, value) in &record.metrics {
                        match accumulators.get_mut(key) {
                            Some(acc) => acc.push(*value),
                            None => {
                                let mut acc = StatsAccumulator::new();
                                acc.push(*value);
                                accumulators.insert(key.clone(), acc);
                            }
                        }
                    }
                    if per_trial.len() < DEFAULT_PER_TRIAL_CAP {
                        per_trial.push(record);
                    } else {
                        per_trial_truncated = true;
                    }
                }
            }
        }
        let metrics: BTreeMap<String, AggregateStats> = accumulators
            .into_iter()
            .filter_map(|(key, acc)| acc.finish().map(|stats| (key, stats)))
            .collect();
        let telemetry: BTreeMap<String, u64> = totals
            .iter_nonzero()
            .map(|(name, value)| (name.to_string(), value))
            .collect();

        Ok(ScenarioReport {
            name: spec.name.clone(),
            description: spec.description.clone(),
            source: spec.source.label(),
            task: spec.task.label(),
            seed: spec.seed,
            trials: executed,
            metrics,
            telemetry,
            per_trial,
            per_trial_truncated,
        })
    }
}

/// The planned trials `indices` of `spec`: each trial's seed is
/// `derive_seed(spec.seed, index)`.
fn trial_specs(spec: &ScenarioSpec, indices: std::ops::Range<usize>) -> Vec<TrialSpec> {
    indices
        .map(|index| TrialSpec {
            index,
            seed: derive_seed(spec.seed, index as u64),
        })
        .collect()
}

/// One unit of executed work: a group's trial records plus the
/// deterministic counters captured while they ran.
type WorkUnit = (Vec<Result<TrialRecord>>, wx_trace::CounterSet);

/// One trial's metric map.
type Metrics = BTreeMap<String, f64>;

/// The graph-instance provider: where each trial's graph comes from.
struct Instances<'a> {
    source: &'a GraphSource,
    /// The content address of the source; mixed with a build seed it keys
    /// each instance in the graph store and the solutions solved on it.
    fingerprint: u64,
    graphs: Option<&'a dyn GraphStore>,
    kind: InstanceKind,
}

enum InstanceKind {
    /// A deterministic source: one instance, built at seed 0, shared by
    /// every trial.
    Shared(Arc<BuiltGraph>),
    /// An `Induced { size }` source over a deterministic base: the base is
    /// built once at seed 0 and each trial draws only its O(size) subset,
    /// exactly the subset a full build at the trial's build seed draws.
    SharedBase(Arc<BuiltGraph>),
    /// A randomized source: each trial builds its own instance at
    /// `derive_seed(trial.seed, 0)`.
    PerTrial,
}

impl<'a> Instances<'a> {
    fn new(source: &'a GraphSource, ctx: &RunContext<'a>) -> Result<Instances<'a>> {
        let fingerprint = canon::source_fingerprint(source)?;
        let kind = match source {
            _ if !source.is_randomized() => {
                InstanceKind::Shared(fetch(ctx.graphs, source, fingerprint, 0)?)
            }
            GraphSource::Induced {
                base,
                size: Some(_),
                vertices: None,
            } if !base.is_randomized() => {
                let base_fp = canon::source_fingerprint(base)?;
                InstanceKind::SharedBase(fetch(ctx.graphs, base, base_fp, 0)?)
            }
            _ => InstanceKind::PerTrial,
        };
        Ok(Instances {
            source,
            fingerprint,
            graphs: ctx.graphs,
            kind,
        })
    }

    /// The instance `trial` runs on, and the build seed that addresses it
    /// (0 for a shared instance).
    fn instance(&self, trial: &TrialSpec) -> Result<(Arc<BuiltGraph>, u64)> {
        let seed = derive_seed(trial.seed, 0);
        match &self.kind {
            InstanceKind::Shared(graph) => Ok((Arc::clone(graph), 0)),
            InstanceKind::SharedBase(base) => {
                Ok((Arc::new(self.source.induce(Arc::clone(base), seed)?), seed))
            }
            InstanceKind::PerTrial => {
                let graph = fetch(self.graphs, self.source, self.fingerprint, seed)?;
                Ok((graph, seed))
            }
        }
    }
}

/// Builds `source` at `seed`, through the graph store (keyed by the
/// source's `fingerprint` and `seed`) when one is attached.
fn fetch(
    graphs: Option<&dyn GraphStore>,
    source: &GraphSource,
    fingerprint: u64,
    seed: u64,
) -> Result<Arc<BuiltGraph>> {
    let _span = wx_trace::span("lab.build_graph");
    match graphs {
        Some(store) => store
            .get_or_build(canon::graph_instance_key(fingerprint, seed), &mut || {
                Ok(source.build_backend(seed)?)
            }),
        None => Ok(Arc::new(source.build_backend(seed)?)),
    }
}

/// Executes a group of trials that share one graph instance (the first
/// trial's) and returns their records in trial order. The graph metadata,
/// and for radio the completion-target BFS, are computed once per group.
fn execute_group(
    instances: &Instances<'_>,
    task: &Task,
    trials: &[TrialSpec],
    ctx: &RunContext<'_>,
) -> Result<Vec<TrialRecord>> {
    let Some(first) = trials.first() else {
        return Ok(Vec::new());
    };
    let (graph, instance_seed) = instances.instance(first)?;
    let solve_ctx = ctx.solutions.map(|store| SolveCtx {
        store,
        graph_key: canon::graph_instance_key(instances.fingerprint, instance_seed),
    });
    with_graph_view!(graph.as_ref(), g => {
        // One resident-footprint sample per trial: O(1) on every backend
        // (CSR and mmap know their sizes; views report their own state), so
        // telemetry shows what the chosen backend actually keeps in memory.
        wx_trace::count(
            wx_trace::CounterId::GraphMemoryBytes,
            (trials.len() * g.memory_bytes()) as u64,
        );
        let metrics = execute_task(g, task, trials, solve_ctx.as_ref())?;
        let (n, m, max_degree) = (
            g.num_vertices() as f64,
            g.num_edges() as f64,
            g.max_degree() as f64,
        );
        Ok(trials
            .iter()
            .zip(metrics)
            .map(|(trial, mut metrics)| {
                metrics.insert("graph_n".to_string(), n);
                metrics.insert("graph_m".to_string(), m);
                metrics.insert("graph_max_degree".to_string(), max_degree);
                TrialRecord {
                    trial: trial.index,
                    seed: trial.seed,
                    metrics,
                }
            })
            .collect())
    })
}

/// The solution-cache hook threaded into the spokesman arm of
/// [`execute_task`]: the store plus the content address of the exact graph
/// instance the trial runs on (solution keys are derived from it).
struct SolveCtx<'a> {
    store: &'a dyn SolutionStore,
    graph_key: u64,
}

/// One spokesman solve, through the solution cache when one is attached.
///
/// On a hit the solver is skipped entirely: the cached subset is replayed
/// against the freshly extracted bipartite view (with its coverage
/// recomputed and cross-checked — a stale artifact degrades to a miss)
/// and the cold solve's deterministic counters are re-credited, so both
/// the metric values and the telemetry section of the report are
/// byte-identical to a cold execution. On a miss the solve runs inside a
/// nested counter scope (which transparently merges into the trial's
/// scope) so the captured counters can ride along with the artifact.
fn solve_spokesman(
    solve: Option<&SolveCtx<'_>>,
    kind: SolverKind,
    view: &BipartiteGraph,
    set_size: usize,
    task_seed: u64,
    solver_index: usize,
) -> wx_core::spokesman::SpokesmanResult {
    let child = derive_seed(task_seed, 1 + solver_index as u64);
    let Some(ctx) = solve else {
        return kind.build().solve(view, child);
    };
    let key = canon::solution_key(ctx.graph_key, set_size, task_seed, kind);
    if let Some(entry) = ctx.store.get(key) {
        if entry.artifact.solver == kind {
            if let Some(result) = entry.artifact.rehydrate(view) {
                entry.replay_counters();
                return result;
            }
        }
    }
    let (result, captured) = wx_trace::with_counters(|| kind.build().solve(view, child));
    ctx.store.put(
        key,
        SolutionEntry::new(
            wx_core::spokesman::SolutionArtifact::from_result(&result, view.num_left()),
            &captured,
        ),
    );
    result
}

/// Simulates one radio trial per lane of one bit-sliced batch (at most
/// [`MAX_LANES`] trials) through the lane engine; lane `l` runs with
/// `derive_seed(trials[l].seed, 1)`, and its trial depends on that seed
/// alone.
fn simulate_radio<G: GraphView + Sync + ?Sized>(
    g: &G,
    protocol: ProtocolKind,
    source: usize,
    max_rounds: Option<usize>,
    trials: &[TrialSpec],
) -> Result<Vec<Metrics>> {
    let n = g.num_vertices();
    if source >= n {
        return Err(LabError::invalid(format!(
            "radio source vertex {source} out of range for {n} vertices"
        )));
    }
    let config = SimulatorConfig {
        max_rounds: max_rounds.unwrap_or(10 * n + 100),
        stop_when_complete: true,
    };
    let sim = RadioSimulator::new(g, source, config);
    let _span = wx_trace::span("lab.simulate");
    let mut seeds = [0u64; MAX_LANES];
    for (seed, trial) in seeds.iter_mut().zip(trials) {
        *seed = derive_seed(trial.seed, 1);
    }
    let mut lanes = protocol.build();
    Ok(with_thread_lane_workspace(|ws| {
        run_lanes_in(&sim, &mut *lanes, &seeds[..trials.len()], ws);
        (0..trials.len())
            .map(|lane| lane_metrics(ws, lane))
            .collect()
    }))
}

/// The radio metric map of one finished lane.
fn lane_metrics(ws: &LaneWorkspace, lane: usize) -> Metrics {
    let outcome = ws.lane_outcome(lane);
    let mut metrics = Metrics::new();
    metrics.insert(
        "completed".to_string(),
        if outcome.completed() { 1.0 } else { 0.0 },
    );
    metrics.insert("reachable".to_string(), outcome.reachable as f64);
    if let Some(rounds) = outcome.completed_at {
        metrics.insert("rounds".to_string(), rounds as f64);
    }
    if let Some(half) = ws.lane_rounds_to_reach_fraction(lane, 0.5, outcome.reachable) {
        metrics.insert("rounds_to_half".to_string(), half as f64);
    }
    metrics
}

/// Executes `task` for every trial of a group on one graph instance (any
/// [`GraphView`] backend), returning one metric map per trial in trial
/// order. Radio trials simulate together as the lanes of one bit-sliced
/// batch; every other task runs trial by trial under the trial's task
/// seed.
fn execute_task<G: GraphView + Sync + ?Sized>(
    g: &G,
    task: &Task,
    trials: &[TrialSpec],
    solve: Option<&SolveCtx<'_>>,
) -> Result<Vec<Metrics>> {
    let each = |run: &dyn Fn(u64, &mut Metrics) -> Result<()>| {
        trials
            .iter()
            .map(|trial| {
                let mut metrics = Metrics::new();
                run(derive_seed(trial.seed, 1), &mut metrics)?;
                Ok(metrics)
            })
            .collect()
    };
    match task {
        Task::Measure {
            notion,
            alpha,
            exact_up_to,
            fast,
        } => each(&|seed, metrics| {
            let _span = wx_trace::span("lab.measure");
            let engine = engine_for(*alpha, *exact_up_to, seed, g.num_vertices())?;
            let measure = notion.measure(fast.unwrap_or(false));
            let m = engine
                .measure(g, measure.as_ref())
                .ok_or_else(|| LabError::invalid("cannot measure an empty graph"))?;
            metrics.insert("value".to_string(), m.value);
            metrics.insert("witness_size".to_string(), m.witness.len() as f64);
            metrics.insert("exact".to_string(), if m.exact { 1.0 } else { 0.0 });
            if let Some(cert) = &m.certificate {
                metrics.insert("certificate_size".to_string(), cert.len() as f64);
            }
            Ok(())
        }),
        Task::Profile {
            alpha,
            exact_up_to,
            fast,
        } => each(&|seed, metrics| {
            let _span = wx_trace::span("lab.measure");
            let engine = engine_for(*alpha, *exact_up_to, seed, g.num_vertices())?;
            let wireless = if fast.unwrap_or(false) {
                Wireless::fast()
            } else {
                Wireless::default()
            };
            let t = engine
                .measure_all(g, &wireless)
                .ok_or_else(|| LabError::invalid("cannot profile an empty graph"))?;
            metrics.insert("ordinary".to_string(), t.ordinary.value);
            metrics.insert("wireless".to_string(), t.wireless.value);
            metrics.insert("unique".to_string(), t.unique.value);
            // Theorem 1.1's loss β/βw; non-finite (βw = 0) drops out of the
            // aggregate but stays visible (as null) in the per-trial record.
            metrics.insert(
                "loss_ordinary_over_wireless".to_string(),
                t.ordinary.value / t.wireless.value,
            );
            metrics.insert(
                "gap_wireless_minus_unique".to_string(),
                t.wireless.value - t.unique.value,
            );
            Ok(())
        }),
        Task::Spokesman { set_size, solvers } => each(&|seed, metrics| {
            let n = g.num_vertices();
            if *set_size > n {
                return Err(LabError::invalid(format!(
                    "spokesman set_size {set_size} exceeds the graph's {n} vertices"
                )));
            }
            let mut rng = rng_from_seed(derive_seed(seed, 0));
            let s = random_subset_of_size(&mut rng, n, *set_size);
            let (view, _, _) = with_thread_scratch(n, |scratch| {
                BipartiteGraph::from_set_in_graph_with(g, &s, scratch)
            });
            let kinds: Vec<SolverKind> = solvers
                .clone()
                .unwrap_or_else(|| SolverKind::POLYNOMIAL.to_vec());
            let _span = wx_trace::span("lab.solve");
            let mut best = 0.0f64;
            for (i, kind) in kinds.iter().enumerate() {
                let result = solve_spokesman(solve, *kind, &view, *set_size, seed, i);
                let certificate = result.expansion_certificate(&view);
                metrics.insert(
                    format!("coverage_fraction:{kind}"),
                    result.coverage_fraction(&view),
                );
                metrics.insert(format!("certificate:{kind}"), certificate);
                if certificate.is_finite() {
                    best = best.max(certificate);
                }
            }
            metrics.insert("best_certificate".to_string(), best);
            metrics.insert("right_side".to_string(), view.num_right() as f64);
            Ok(())
        }),
        Task::Radio {
            protocol,
            source_vertex,
            max_rounds,
        } => simulate_radio(
            g,
            *protocol,
            source_vertex.unwrap_or(0),
            *max_rounds,
            trials,
        ),
    }
}

/// The engine a Measure/Profile task runs on a graph of `n` vertices; an
/// exact enumeration over the engine's budget is an invalid spec.
fn engine_for(
    alpha: Option<f64>,
    exact_up_to: Option<usize>,
    seed: u64,
    n: usize,
) -> Result<MeasurementEngine> {
    let mut builder = MeasurementEngine::builder().seed(seed);
    if let Some(alpha) = alpha {
        builder = builder.alpha(alpha);
    }
    if let Some(exact_up_to) = exact_up_to {
        builder = builder.exact_up_to(exact_up_to);
    }
    let engine = builder.build();
    if !engine.exact_within_budget(n) {
        return Err(LabError::invalid(format!(
            "exact enumeration over {n} vertices exceeds the budget of \
             {EXACT_ENUMERATION_BUDGET} candidate sets; lower exact_up_to or alpha"
        )));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GraphSource;
    use wx_core::expansion::engine::NotionKind;
    use wx_core::radio::protocols::ProtocolKind;

    fn measure_spec(trials: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".to_string(),
            description: String::new(),
            source: GraphSource::CompletePlus { k: 6 },
            task: Task::Measure {
                notion: NotionKind::Unique,
                alpha: None,
                exact_up_to: None,
                fast: None,
            },
            trials,
            seed: 3,
        }
    }

    #[test]
    fn implicit_source_runs_every_task_kind_unmaterialized() {
        use wx_core::graph::ImplicitFamily;
        let implicit = GraphSource::Implicit {
            family: ImplicitFamily::Hypercube { dim: 4 },
        };
        let csr = GraphSource::Hypercube { dim: 4 };
        let tasks = [
            Task::Measure {
                notion: NotionKind::Ordinary,
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: None,
            },
            Task::Profile {
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: Some(true),
            },
            Task::Spokesman {
                set_size: 5,
                solvers: Some(vec![SolverKind::GreedyMinDegree]),
            },
            Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
        ];
        for task in tasks {
            let spec = |source: &GraphSource| ScenarioSpec {
                name: "implicit-vs-csr".to_string(),
                description: String::new(),
                source: source.clone(),
                task: task.clone(),
                trials: 2,
                seed: 13,
            };
            let on_implicit = Runner::new().run(&spec(&implicit)).unwrap();
            let on_csr = Runner::new().run(&spec(&csr)).unwrap();
            // every metric must agree exactly — same seeds, same graph,
            // different backend
            assert_eq!(
                on_implicit.metrics,
                on_csr.metrics,
                "task {} diverged between implicit and CSR backends",
                task.label()
            );
        }
    }

    #[test]
    fn induced_source_matches_the_materialized_subgraph() {
        // Induced view of an explicit vertex list vs running on the
        // materialized induced subgraph: identical metrics.
        let base = GraphSource::RandomRegular { n: 32, d: 4 };
        let vertices: Vec<usize> = (0..16).collect();
        let spec = ScenarioSpec {
            name: "induced".to_string(),
            description: String::new(),
            source: GraphSource::Induced {
                base: Box::new(base.clone()),
                size: None,
                vertices: Some(vertices.clone()),
            },
            task: Task::Measure {
                notion: NotionKind::Ordinary,
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: None,
            },
            trials: 1,
            seed: 21,
        };
        let on_view = Runner::new().run(&spec).unwrap();
        assert!(on_view.metrics["graph_n"].mean == 16.0);
        // the materialized path: build the same base per trial and cut it
        // by hand; graph_m must agree with the zero-copy view's edge count
        let g = crate::source::build_csr(&base, derive_seed(derive_seed(21, 0), 0)).unwrap();
        let (mat, _) = g.induced_subgraph(&g.vertex_set(vertices));
        assert_eq!(on_view.metrics["graph_m"].mean, mat.num_edges() as f64);
    }

    #[test]
    fn induced_fast_path_draws_the_same_subsets_as_build_backend() {
        // A shared deterministic base redraws only the subset per trial;
        // each draw must equal what a full build_backend for the same trial
        // seed produces, or reports would silently change.
        let src = GraphSource::Induced {
            base: Box::new(GraphSource::Hypercube { dim: 5 }),
            size: Some(7),
            vertices: None,
        };
        let instances = Instances::new(&src, &RunContext::default()).unwrap();
        assert!(matches!(instances.kind, InstanceKind::SharedBase(_)));
        for trial in Runner::new()
            .plan(&ScenarioSpec {
                source: src.clone(),
                ..measure_spec(3)
            })
            .trials
        {
            let (instance, seed) = instances.instance(&trial).unwrap();
            assert_eq!(seed, derive_seed(trial.seed, 0));
            let (
                BuiltGraph::Induced { index: shared, .. },
                BuiltGraph::Induced { index: full, .. },
            ) = (instance.as_ref(), &src.build_backend(seed).unwrap())
            else {
                panic!("expected induced backends");
            };
            assert_eq!(shared, full);
        }
        // out-of-range sizes fail identically on both paths
        let too_big = GraphSource::Induced {
            base: Box::new(GraphSource::Hypercube { dim: 2 }),
            size: Some(7),
            vertices: None,
        };
        let instances = Instances::new(&too_big, &RunContext::default()).unwrap();
        let trial = TrialSpec { index: 0, seed: 5 };
        assert!(instances.instance(&trial).is_err());
        assert!(too_big.build_backend(derive_seed(5, 0)).is_err());
    }

    #[test]
    fn induced_random_subsets_are_redrawn_per_trial() {
        let spec = ScenarioSpec {
            name: "induced-random".to_string(),
            description: String::new(),
            source: GraphSource::Induced {
                base: Box::new(GraphSource::Hypercube { dim: 4 }),
                size: Some(8),
                vertices: None,
            },
            task: Task::Measure {
                notion: NotionKind::Ordinary,
                alpha: Some(0.5),
                exact_up_to: Some(8),
                fast: None,
            },
            trials: 6,
            seed: 2,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.metrics["graph_n"].mean, 8.0);
        // different trials draw different subsets, so the measured values
        // are not all identical (the hypercube is not vertex-transitive
        // under arbitrary 8-subsets)
        assert!(report.metrics["value"].min < report.metrics["value"].max);
        // and reruns are byte-identical
        let again = Runner::new().run(&spec).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn plan_is_deterministic_and_indexed() {
        let runner = Runner::new();
        let plan = runner.plan(&measure_spec(4));
        assert_eq!(plan.trials.len(), 4);
        assert_eq!(plan.trials[0].index, 0);
        assert_eq!(plan.trials, runner.plan(&measure_spec(4)).trials);
        // distinct derived seeds per trial
        let mut seeds: Vec<u64> = plan.trials.iter().map(|t| t.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn measure_task_reproduces_the_headline_phenomenon() {
        // C⁺ has βu = 0 — every trial must agree exactly.
        let report = Runner::new().run(&measure_spec(3)).unwrap();
        assert_eq!(report.trials, 3);
        let value = &report.metrics["value"];
        assert_eq!(value.count, 3);
        assert_eq!(value.min, 0.0);
        assert_eq!(value.max, 0.0);
        assert_eq!(report.metrics["graph_n"].mean, 7.0);
        assert_eq!(report.per_trial.len(), 3);
    }

    #[test]
    fn reruns_of_a_randomized_source_are_identical() {
        let spec = ScenarioSpec {
            source: GraphSource::RandomRegular { n: 20, d: 3 },
            trials: 4,
            ..measure_spec(4)
        };
        let first = Runner::new().run(&spec).unwrap();
        let second = Runner::new().run(&spec).unwrap();
        assert_eq!(first.to_json(), second.to_json());
    }

    #[test]
    fn cached_reports_are_byte_identical_cold_and_warm() {
        // The cache seam must be invisible in report bytes: batch path,
        // cold cache and two warm runs (graphs + solutions resident) all
        // agree — for both a shared deterministic source and a per-trial
        // randomized one.
        use crate::cache::{ArtifactCache, CacheConfig, RunContext};
        for source in [
            GraphSource::Hypercube { dim: 4 },
            GraphSource::RandomRegular { n: 24, d: 3 },
        ] {
            let spec = ScenarioSpec {
                source,
                task: Task::Spokesman {
                    set_size: 6,
                    solvers: None,
                },
                trials: 3,
                ..measure_spec(9)
            };
            let batch = Runner::new().run(&spec).unwrap();
            let cache = ArtifactCache::new(CacheConfig::default());
            let ctx = RunContext {
                graphs: Some(&cache),
                solutions: Some(&cache),
            };
            let cold = Runner::new().run_ctx(&spec, &ctx).unwrap();
            let warm = Runner::new().run_ctx(&spec, &ctx).unwrap();
            let warm_again = Runner::new().run_ctx(&spec, &ctx).unwrap();
            assert_eq!(batch.to_json(), cold.to_json());
            assert_eq!(batch.to_json(), warm.to_json());
            assert_eq!(batch.to_json(), warm_again.to_json());
            let stats = cache.stats();
            assert!(
                stats.solution_hits > 0,
                "warm runs must hit the solution cache"
            );
            assert!(stats.graph_hits > 0, "warm runs must hit the graph cache");
        }
    }

    #[test]
    fn profile_task_reports_the_sandwich() {
        let spec = ScenarioSpec {
            name: "profile".to_string(),
            description: String::new(),
            source: GraphSource::Hypercube { dim: 3 },
            task: Task::Profile {
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: None,
            },
            trials: 1,
            seed: 1,
        };
        let report = Runner::new().run(&spec).unwrap();
        let beta = report.metrics["ordinary"].mean;
        let beta_w = report.metrics["wireless"].mean;
        let beta_u = report.metrics["unique"].mean;
        assert!(beta + 1e-9 >= beta_w && beta_w + 1e-9 >= beta_u);
    }

    #[test]
    fn spokesman_task_compares_solvers() {
        let spec = ScenarioSpec {
            name: "spokesman".to_string(),
            description: String::new(),
            source: GraphSource::RandomRegular { n: 40, d: 4 },
            task: Task::Spokesman {
                set_size: 10,
                solvers: Some(vec![SolverKind::GreedyMinDegree, SolverKind::Partition]),
            },
            trials: 3,
            seed: 9,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert!(report.metrics.contains_key("certificate:greedy-min-degree"));
        assert!(report.metrics.contains_key("certificate:partition"));
        assert!(report.metrics["best_certificate"].min >= 0.0);
    }

    #[test]
    fn radio_task_aggregates_round_counts() {
        let spec = ScenarioSpec {
            name: "radio".to_string(),
            description: String::new(),
            source: GraphSource::Grid { rows: 4, cols: 4 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
            trials: 5,
            seed: 11,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.metrics["completed"].mean, 1.0);
        assert!(report.metrics["rounds"].min >= 1.0);
        assert_eq!(report.metrics["rounds"].count, 5);
    }

    #[test]
    fn a_huge_trial_count_plans_nothing_up_front() {
        // 2^40 trials would be a 16 TiB plan; each chunk's trials are
        // derived when it is reached, so the first chunk's typed error
        // returns at once.
        let spec = ScenarioSpec {
            source: GraphSource::Hypercube { dim: 3 },
            trials: 1 << 40,
            task: Task::Radio {
                protocol: ProtocolKind::RoundRobin,
                source_vertex: Some(99),
                max_rounds: None,
            },
            ..measure_spec(1)
        };
        let err = Runner::new().run(&spec).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn runtime_validation_errors_are_clean() {
        let too_big = ScenarioSpec {
            task: Task::Spokesman {
                set_size: 1000,
                solvers: None,
            },
            ..measure_spec(1)
        };
        let err = Runner::new().run(&too_big).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        let bad_source = ScenarioSpec {
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: Some(99),
                max_rounds: None,
            },
            ..measure_spec(1)
        };
        let err = Runner::new().run(&bad_source).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        let over_budget = ScenarioSpec {
            source: GraphSource::RandomRegular { n: 40, d: 4 },
            task: Task::Profile {
                alpha: None,
                exact_up_to: Some(40),
                fast: None,
            },
            ..measure_spec(1)
        };
        let err = Runner::new().run(&over_budget).unwrap_err();
        assert!(matches!(err, LabError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn per_trial_records_are_capped_but_aggregates_cover_every_trial() {
        // one trial past the cap, on a shared 16-vertex graph the lane
        // engine runs in 17 batches
        let trials = DEFAULT_PER_TRIAL_CAP + 1;
        let spec = ScenarioSpec {
            name: "radio-capped".to_string(),
            description: String::new(),
            source: GraphSource::Hypercube { dim: 4 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
            trials,
            seed: 3,
        };
        let capped = Runner::new().run(&spec).unwrap();
        assert_eq!(capped.trials, trials);
        assert_eq!(capped.per_trial.len(), DEFAULT_PER_TRIAL_CAP);
        assert!(capped.per_trial_truncated);
        assert_eq!(capped.metrics["reachable"].count, trials);
        // records kept are the first ones, in trial order
        for (i, record) in capped.per_trial.iter().enumerate() {
            assert_eq!(record.trial, i);
        }
        // a run within the cap keeps every record
        let full = Runner::new().run(&measure_spec(6)).unwrap();
        assert!(!full.per_trial_truncated);
        assert_eq!(full.per_trial.len(), 6);
    }

    #[test]
    fn streamed_aggregates_match_batch_aggregation() {
        // radio rounds vary across trials; the streamed stats must equal the
        // batch statistics recomputed from the per-trial records
        let spec = ScenarioSpec {
            name: "radio-stream".to_string(),
            description: String::new(),
            source: GraphSource::RandomRegular { n: 32, d: 4 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: None,
                max_rounds: None,
            },
            trials: 12,
            seed: 5,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.per_trial.len(), 12);
        for (key, stats) in &report.metrics {
            let samples: Vec<f64> = report
                .per_trial
                .iter()
                .filter_map(|r| r.metrics.get(key).copied())
                .collect();
            let batch = wx_core::report::AggregateStats::from_samples(&samples).unwrap();
            assert_eq!(stats.count, batch.count, "{key}");
            assert_eq!(stats.min, batch.min, "{key}");
            assert_eq!(stats.max, batch.max, "{key}");
            assert_eq!(stats.median, batch.median, "{key}");
            assert_eq!(stats.p95, batch.p95, "{key}");
            assert!(
                (stats.mean - batch.mean).abs() <= 1e-9 * (1.0 + batch.mean.abs()),
                "{key}: {} vs {}",
                stats.mean,
                batch.mean
            );
        }
    }

    #[test]
    fn shared_radio_lane_reports_match_run_lanes() {
        // A shared-graph radio scenario goes through the bit-sliced lane
        // engine; every per-trial metric must equal what a direct
        // `run_lanes_in` batch with the same derived seeds produces. 70
        // trials cross a lane batch boundary (64 + a partial batch of 6),
        // and the direct batches are cut differently (32 + 32 + 6), which
        // a lane's trial must not notice.
        use wx_core::radio::{run_lanes_in, LaneWorkspace};
        let spec = ScenarioSpec {
            name: "radio-lanes".to_string(),
            description: String::new(),
            source: GraphSource::Hypercube { dim: 6 },
            task: Task::Radio {
                protocol: ProtocolKind::Decay,
                source_vertex: Some(3),
                max_rounds: None,
            },
            trials: 70,
            seed: 77,
        };
        let report = Runner::new().run(&spec).unwrap();
        assert_eq!(report.per_trial.len(), 70);

        let g = crate::source::build_csr(&GraphSource::Hypercube { dim: 6 }, 0).unwrap();
        let config = SimulatorConfig {
            max_rounds: 10 * g.num_vertices() + 100,
            stop_when_complete: true,
        };
        let sim = RadioSimulator::new(&g, 3, config);
        let mut ws = LaneWorkspace::new(0);
        for batch in report.per_trial.chunks(32) {
            let seeds: Vec<u64> = batch.iter().map(|r| derive_seed(r.seed, 1)).collect();
            run_lanes_in(&sim, &mut *ProtocolKind::Decay.build(), &seeds, &mut ws);
            for (lane, record) in batch.iter().enumerate() {
                assert_eq!(record.seed, derive_seed(77, record.trial as u64));
                let expected = lane_metrics(&ws, lane);
                for key in ["completed", "reachable", "rounds", "rounds_to_half"] {
                    assert_eq!(
                        record.metrics.get(key),
                        expected.get(key),
                        "trial {} {key}",
                        record.trial
                    );
                }
                assert_eq!(record.metrics["graph_n"], 64.0);
            }
        }
        // distinct lanes draw distinct RNG streams: across 70 trials the
        // round counts must not all collapse to one value
        assert!(report.metrics["rounds"].min < report.metrics["rounds"].max);
    }

    #[test]
    fn mmap_sources_measure_identically_to_the_csr_path() {
        let dir = std::env::temp_dir().join("wx-lab-runner-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.edges");
        let wxg = dir.join("g.wxg");
        let g = crate::source::build_csr(&GraphSource::Margulis { m: 4 }, 0).unwrap();
        wx_core::graph::io::save_graph(&g, &edges).unwrap();
        g.write_wxg(&wxg).unwrap();
        let spec = |source: GraphSource| ScenarioSpec {
            name: "mmap-vs-csr".to_string(),
            description: String::new(),
            source,
            task: Task::Measure {
                notion: NotionKind::Wireless,
                alpha: Some(0.5),
                exact_up_to: Some(10),
                fast: Some(true),
            },
            trials: 2,
            seed: 17,
        };
        let file = |path: &std::path::Path| GraphSource::File {
            path: path.to_str().unwrap().to_string(),
        };
        let mmap_source = file(&wxg);
        let text_source = file(&edges);
        let on_mmap = Runner::new().run(&spec(mmap_source.clone())).unwrap();
        let on_text = Runner::new().run(&spec(text_source)).unwrap();
        // identical measurement content: aggregates and raw trial records
        assert_eq!(on_mmap.metrics, on_text.metrics);
        assert_eq!(
            serde_json::to_string(&on_mmap.per_trial).unwrap(),
            serde_json::to_string(&on_text.per_trial).unwrap()
        );
        // telemetry agrees except the resident footprint, which reports
        // what each backend actually holds: trials × memory_bytes
        let mapped = wx_core::graph::MmapGraph::open(&wxg).unwrap();
        assert_eq!(
            on_mmap.telemetry["graph.memory_bytes"],
            2 * mapped.memory_bytes() as u64
        );
        assert_eq!(
            on_text.telemetry["graph.memory_bytes"],
            2 * g.memory_bytes() as u64
        );
        let strip = |t: &BTreeMap<String, u64>| {
            let mut t = t.clone();
            t.remove("graph.memory_bytes");
            t
        };
        assert_eq!(strip(&on_mmap.telemetry), strip(&on_text.telemetry));
        // byte-identical across reruns
        let again = Runner::new().run(&spec(mmap_source)).unwrap();
        assert_eq!(on_mmap.to_json(), again.to_json());
    }

    #[test]
    fn summary_table_lists_every_metric() {
        let report = Runner::new().run(&measure_spec(2)).unwrap();
        let table = report.summary_table();
        for key in report.metrics.keys() {
            assert!(table.contains(key.as_str()), "missing {key} in:\n{table}");
        }
    }
}
