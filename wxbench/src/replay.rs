//! The traced in-process replay.
//!
//! Each request of a stream is replayed the way `wx serve` executes it —
//! parse, spec key, [`Runner::run_ctx`] against an artifact cache with the
//! server's budgets, report serialization — and then the layer calls the
//! runner made inside `run_ctx` are made again from here, each wrapped in
//! a span of this benchmark's own:
//!
//! * graph builds are timed *inside* `run_ctx`, through a [`GraphStore`]
//!   wrapper around the cache, so only the builds the runner really did
//!   (cache misses) count;
//! * bipartite-view extraction, each spokesman solver the runner ran
//!   (solution-cache misses), the measurement engine, the BFS reach and
//!   the radio engines are replayed after `run_ctx` on the same instances.
//!
//! The replayed calls must reproduce every per-trial metric of the served
//! report, which checks that the replay did the runner's work. Whatever
//! `run_ctx` spent outside the program's own layer spans, in the same
//! execution, is `lab.unattributed_s` (see [`run_ctx_coverage`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::Value;
use wx_core::expansion::engine::{MeasurementEngine, Wireless};
use wx_core::graph::random::{derive_seed, random_subset_of_size, rng_from_seed};
use wx_core::graph::scratch::with_thread_scratch;
use wx_core::graph::{BipartiteGraph, Graph};
use wx_core::radio::{
    reachable_from, run_lanes_in, with_thread_lane_workspace, with_thread_workspace,
    RadioSimulator, SimulatorConfig, MAX_LANES,
};
use wx_core::spokesman::{SolverKind, SpokesmanResult};
use wx_lab::cache::{ArtifactCache, GraphStore, RunContext, SolutionEntry, SolutionStore};
use wx_lab::canon;
use wx_lab::runner::{Runner, TrialSpec};
use wx_lab::source::BuiltGraph;
use wx_lab::spec::{ScenarioSpec, Task};
use wx_trace::SpanRecord;

/// Span names this benchmark records. They are prefixed so they never
/// collide with the program's own spans, which nest inside them.
pub mod spans {
    /// `ScenarioSpec::from_json`.
    pub const PARSE: &str = "wxbench.lab.parse";
    /// `canon::spec_key`.
    pub const SPEC_KEY: &str = "wxbench.lab.spec_key";
    /// `Runner::run_ctx`.
    pub const RUN_CTX: &str = "wxbench.lab.run_ctx";
    /// `ScenarioReport::to_json`.
    pub const REPORT_JSON: &str = "wxbench.core.report_json";
    /// `GraphSource::build_backend`, inside `run_ctx`.
    pub const BUILD: &str = "wxbench.constructions.build";
    /// `BipartiteGraph::from_set_in_graph_with`.
    pub const BIPARTITE: &str = "wxbench.graph.bipartite_view";
    /// `reachable_from`.
    pub const REACHABLE: &str = "wxbench.graph.reachable";
    /// `MeasurementEngine::measure` / `measure_all`.
    pub const MEASURE: &str = "wxbench.expansion.measure";
    /// `run_lanes_in`.
    pub const LANES: &str = "wxbench.radio.lanes";
    /// `RadioSimulator::run_in`.
    pub const SCALAR: &str = "wxbench.radio.scalar";
    /// The program's own engine spans, read inside [`MEASURE`]: drawing
    /// the candidate pool, and evaluating every candidate set for the
    /// minimum.
    pub const CANDIDATE_POOL: &str = "engine.candidate_pool";
    /// See [`CANDIDATE_POOL`].
    pub const MINIMIZE: &str = "engine.minimize";
    /// The program's own spans around the layer calls `run_ctx` makes:
    /// graph builds, measurement, the solver loop and the radio
    /// simulation. What `run_ctx` spends outside them is
    /// `lab.unattributed_s`.
    pub const PROGRAM_LAYERS: [&str; 4] = [
        "lab.build_graph",
        "lab.measure",
        "lab.solve",
        "lab.simulate",
    ];

    /// The span around `SolverKind::build().solve` for `kind`.
    pub fn solver(kind: wx_core::spokesman::SolverKind) -> &'static str {
        use wx_core::spokesman::SolverKind as K;
        match kind {
            K::Exact => "wxbench.spokesman.exact",
            K::RandomDecay => "wxbench.spokesman.random_decay",
            K::Partition => "wxbench.spokesman.partition",
            K::GreedyMinDegree => "wxbench.spokesman.greedy_min_degree",
            K::DegreeClass => "wxbench.spokesman.degree_class",
            K::ChlamtacWeinstein => "wxbench.spokesman.chlamtac_weinstein",
            K::Portfolio => "wxbench.spokesman.portfolio",
        }
    }
}

/// A span's self time: its duration minus the durations of its nearest
/// reported descendants. Spans that are not reported are transparent —
/// their time belongs to the nearest reported ancestor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelfTime {
    /// The span name.
    pub name: &'static str,
    /// The name of the nearest reported ancestor, if any.
    pub parent: Option<&'static str>,
    /// Whole duration in nanoseconds.
    pub dur_nanos: u64,
    /// Duration minus the reported children's durations.
    pub self_nanos: u64,
}

/// Self times of the spans `reported` selects. Nesting is recovered per
/// thread from start order and depth: a span's parent is the latest-
/// starting span one level shallower on the same thread.
pub fn self_times(spans: &[SpanRecord], reported: impl Fn(&str) -> bool) -> Vec<SelfTime> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_nanos, spans[i].depth));
    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    // open[d] = the latest span seen at depth d on the current thread
    let mut open: Vec<Option<usize>> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            open.clear();
            tid = Some(s.tid);
        }
        let depth = s.depth as usize;
        open.resize(depth, None);
        parent[i] = depth.checked_sub(1).and_then(|d| open[d]);
        open.push(Some(i));
    }
    let reported_parent = |mut i: usize| -> Option<usize> {
        while let Some(p) = parent[i] {
            if reported(spans[p].name) {
                return Some(p);
            }
            i = p;
        }
        None
    };
    let mut children_nanos = vec![0u64; spans.len()];
    let mut out_parent = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if reported(s.name) {
            if let Some(p) = reported_parent(i) {
                children_nanos[p] += s.dur_nanos;
                out_parent[i] = Some(spans[p].name);
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| reported(s.name))
        .map(|(i, s)| SelfTime {
            name: s.name,
            parent: out_parent[i],
            dur_nanos: s.dur_nanos,
            self_nanos: s.dur_nanos.saturating_sub(children_nanos[i]),
        })
        .collect()
}

/// The whole duration of the [`spans::RUN_CTX`] spans of `trace`, and the
/// part of it the program's layer spans ([`spans::PROGRAM_LAYERS`]) cover,
/// both in nanoseconds. The runner may execute trials on rayon's pool,
/// on another thread than `run_ctx`'s, so a layer span counts where its
/// interval lies inside a `run_ctx` interval; overlapping layer spans
/// count once.
pub fn run_ctx_coverage(trace: &[SpanRecord]) -> (u64, u64) {
    let (mut whole, mut covered) = (0, 0);
    for run in trace.iter().filter(|s| s.name == spans::RUN_CTX) {
        let end = run.start_nanos + run.dur_nanos;
        let mut layers: Vec<(u64, u64)> = trace
            .iter()
            .filter(|s| spans::PROGRAM_LAYERS.contains(&s.name))
            .map(|s| (s.start_nanos, s.start_nanos + s.dur_nanos))
            .filter(|&(a, b)| a >= run.start_nanos && b <= end)
            .collect();
        layers.sort_unstable();
        let mut reach = run.start_nanos;
        for (a, b) in layers {
            covered += b.saturating_sub(a.max(reach));
            reach = reach.max(b);
        }
        whole += run.dur_nanos;
    }
    (whole, covered)
}

/// The spans the per-layer metrics are read from: this benchmark's own,
/// plus the engine's pool spans.
pub fn is_reported(name: &str) -> bool {
    name.starts_with("wxbench.") || name == spans::CANDIDATE_POOL || name == spans::MINIMIZE
}

/// A [`GraphStore`]/[`SolutionStore`] in front of the service's cache that
/// times the builds the runner does and remembers what one request used.
struct Recorder<'a> {
    cache: &'a ArtifactCache,
    graphs: Mutex<Vec<(u64, Arc<BuiltGraph>)>>,
    solution_misses: Mutex<Vec<u64>>,
    builds: AtomicU64,
}

impl<'a> Recorder<'a> {
    fn new(cache: &'a ArtifactCache) -> Recorder<'a> {
        Recorder {
            cache,
            graphs: Mutex::new(Vec::new()),
            solution_misses: Mutex::new(Vec::new()),
            builds: AtomicU64::new(0),
        }
    }

    fn graph(&self, key: u64) -> Option<Arc<BuiltGraph>> {
        let graphs = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
        graphs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, g)| Arc::clone(g))
    }

    fn solved(&self, key: u64) -> bool {
        let misses = self
            .solution_misses
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        misses.contains(&key)
    }
}

impl GraphStore for Recorder<'_> {
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> wx_lab::Result<BuiltGraph>,
    ) -> wx_lab::Result<Arc<BuiltGraph>> {
        let graph = GraphStore::get_or_build(self.cache, key, &mut || {
            let _span = wx_trace::span(spans::BUILD);
            self.builds.fetch_add(1, Ordering::Relaxed);
            build()
        })?;
        self.graphs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((key, Arc::clone(&graph)));
        Ok(graph)
    }
}

impl SolutionStore for Recorder<'_> {
    fn get(&self, key: u64) -> Option<Arc<SolutionEntry>> {
        let entry = SolutionStore::get(self.cache, key);
        if entry.is_none() {
            self.solution_misses
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(key);
        }
        entry
    }

    fn put(&self, key: u64, entry: SolutionEntry) {
        SolutionStore::put(self.cache, key, entry);
    }
}

/// What one replayed request left behind besides its spans.
pub struct Replayed {
    /// Graph builds the runner did.
    pub builds: u64,
    /// The report's deterministic telemetry counters.
    pub telemetry: BTreeMap<String, u64>,
    /// Live lane-rounds and `64 × batch rounds` over the lane batches.
    pub lane_rounds: (u64, u64),
}

/// Executes one request as the service does, against `cache`, without
/// replaying layers: the untimed warm-up path.
pub fn execute(cache: &ArtifactCache, spec: &ScenarioSpec) -> Result<String, String> {
    let ctx = RunContext {
        graphs: Some(cache),
        solutions: Some(cache),
    };
    Runner::new()
        .run_ctx(spec, &ctx)
        .map(|r| r.to_json())
        .map_err(|e| e.to_string())
}

/// Replays one request (see the module docs) and checks the in-process
/// report bytes and every replayed per-trial metric against `served`.
pub fn replay(cache: &ArtifactCache, body: &str, served: &str) -> Result<Replayed, String> {
    let spec = {
        let _span = wx_trace::span(spans::PARSE);
        ScenarioSpec::from_json(body, "replayed request")
    }
    .map_err(|e| e.to_string())?;
    {
        let _span = wx_trace::span(spans::SPEC_KEY);
        canon::spec_key(&spec)
    }
    .map_err(|e| e.to_string())?;
    let recorder = Recorder::new(cache);
    let ctx = RunContext {
        graphs: Some(&recorder),
        solutions: Some(&recorder),
    };
    let report = {
        let _span = wx_trace::span(spans::RUN_CTX);
        Runner::new().run_ctx(&spec, &ctx)
    }
    .map_err(|e| e.to_string())?;
    let json = {
        let _span = wx_trace::span(spans::REPORT_JSON);
        report.to_json()
    };
    if json != served {
        return Err(format!(
            "{}: in-process report differs from the served one",
            spec.name
        ));
    }

    let (records, lane_rounds) = replay_layers(&spec, &recorder)?;
    let served: Value = serde_json::from_str(served).map_err(|e| format!("served report: {e}"))?;
    let per_trial = match served.get("per_trial") {
        Some(Value::Seq(trials)) => trials,
        _ => return Err("served report has no per_trial".into()),
    };
    if per_trial.len() != records.len() {
        return Err(format!(
            "{}: replayed {} trials, served {}",
            spec.name,
            records.len(),
            per_trial.len()
        ));
    }
    for (t, (mine, theirs)) in records.iter().zip(per_trial).enumerate() {
        let theirs = theirs
            .get("metrics")
            .and_then(Value::as_map)
            .ok_or("served trial has no metrics")?;
        let same = theirs.len() == mine.len()
            && theirs.iter().all(|(k, v)| match (mine.get(k), v) {
                (Some(m), Value::Null) => !m.is_finite(),
                (Some(m), v) => v.as_f64() == Some(*m),
                (None, _) => false,
            });
        if !same {
            return Err(format!(
                "{} trial {t}: replayed metrics {mine:?} differ from the served ones",
                spec.name
            ));
        }
    }
    Ok(Replayed {
        builds: recorder.builds.load(Ordering::Relaxed),
        telemetry: report.telemetry.clone(),
        lane_rounds,
    })
}

type Metrics = BTreeMap<String, f64>;

/// The runner's defaults for optional task knobs (`wx_lab::runner`).
const DEFAULT_ALPHA: f64 = 0.5;
const DEFAULT_EXACT_UP_TO: usize = 14;

/// Replays the layer calls `run_ctx` made for `spec`, returning one metric
/// map per trial plus the lane-occupancy counts.
fn replay_layers(
    spec: &ScenarioSpec,
    rec: &Recorder<'_>,
) -> Result<(Vec<Metrics>, (u64, u64)), String> {
    let fp = canon::source_fingerprint(&spec.source).map_err(|e| e.to_string())?;
    let shared = !spec.source.is_randomized();
    let trials = Runner::new().plan(spec).trials;
    let instance = |trial: &TrialSpec| -> Result<(u64, Arc<BuiltGraph>), String> {
        let seed = if shared {
            0
        } else {
            derive_seed(trial.seed, 0)
        };
        let key = canon::graph_instance_key(fp, seed);
        rec.graph(key)
            .map(|g| (key, g))
            .ok_or_else(|| format!("{}: runner never fetched instance {key:016x}", spec.name))
    };

    if let (true, Task::Radio { .. }) = (shared, &spec.task) {
        let (_, built) = instance(&trials[0])?;
        return lanes(spec, csr(&built)?, &trials);
    }
    let mut records = Vec::with_capacity(trials.len());
    for trial in &trials {
        let (key, built) = instance(trial)?;
        let g = csr(&built)?;
        let mut metrics = task(spec, g, key, derive_seed(trial.seed, 1), rec)?;
        meta(&mut metrics, g);
        records.push(metrics);
    }
    Ok((records, (0, 0)))
}

fn csr(built: &BuiltGraph) -> Result<&Graph, String> {
    match built {
        BuiltGraph::Csr(g) => Ok(g),
        _ => Err("the replay covers CSR instances only".into()),
    }
}

fn meta(metrics: &mut Metrics, g: &Graph) {
    metrics.insert("graph_n".into(), g.num_vertices() as f64);
    metrics.insert("graph_m".into(), g.num_edges() as f64);
    metrics.insert("graph_max_degree".into(), g.max_degree() as f64);
}

fn flag(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn radio_config(g: &Graph, max_rounds: Option<usize>) -> SimulatorConfig {
    SimulatorConfig {
        max_rounds: max_rounds.unwrap_or(10 * g.num_vertices() + 100),
        stop_when_complete: true,
    }
}

/// The per-trial layer calls of one task on one instance.
fn task(
    spec: &ScenarioSpec,
    g: &Graph,
    graph_key: u64,
    seed: u64,
    rec: &Recorder<'_>,
) -> Result<Metrics, String> {
    let mut metrics = Metrics::new();
    let engine = |alpha: Option<f64>, exact_up_to: Option<usize>| {
        MeasurementEngine::builder()
            .alpha(alpha.unwrap_or(DEFAULT_ALPHA))
            .exact_up_to(exact_up_to.unwrap_or(DEFAULT_EXACT_UP_TO))
            .seed(seed)
            .build()
    };
    match &spec.task {
        Task::Measure {
            notion,
            alpha,
            exact_up_to,
            fast,
        } => {
            let engine = engine(*alpha, *exact_up_to);
            let measure = notion.measure::<Graph>(fast.unwrap_or(false));
            let m = {
                let _span = wx_trace::span(spans::MEASURE);
                engine.measure(g, measure.as_ref())
            }
            .ok_or("empty graph")?;
            metrics.insert("value".into(), m.value);
            metrics.insert("witness_size".into(), m.witness.len() as f64);
            metrics.insert("exact".into(), flag(m.exact));
            if let Some(cert) = &m.certificate {
                metrics.insert("certificate_size".into(), cert.len() as f64);
            }
        }
        Task::Profile {
            alpha,
            exact_up_to,
            fast,
        } => {
            let engine = engine(*alpha, *exact_up_to);
            let wireless = if fast.unwrap_or(false) {
                Wireless::fast()
            } else {
                Wireless::default()
            };
            let t = {
                let _span = wx_trace::span(spans::MEASURE);
                engine.measure_all(g, &wireless)
            }
            .ok_or("empty graph")?;
            metrics.insert("ordinary".into(), t.ordinary.value);
            metrics.insert("wireless".into(), t.wireless.value);
            metrics.insert("unique".into(), t.unique.value);
            metrics.insert(
                "loss_ordinary_over_wireless".into(),
                t.ordinary.value / t.wireless.value,
            );
            metrics.insert(
                "gap_wireless_minus_unique".into(),
                t.wireless.value - t.unique.value,
            );
        }
        Task::Spokesman { set_size, solvers } => {
            let n = g.num_vertices();
            let s = random_subset_of_size(&mut rng_from_seed(derive_seed(seed, 0)), n, *set_size);
            let (view, _, _) = {
                let _span = wx_trace::span(spans::BIPARTITE);
                with_thread_scratch(n, |scratch| {
                    BipartiteGraph::from_set_in_graph_with(g, &s, scratch)
                })
            };
            let kinds = solvers
                .clone()
                .unwrap_or_else(|| SolverKind::POLYNOMIAL.to_vec());
            let mut best = 0.0f64;
            for (i, kind) in kinds.iter().enumerate() {
                let key = canon::solution_key(graph_key, *set_size, seed, *kind);
                let result = solution(rec, key, *kind, &view, derive_seed(seed, 1 + i as u64));
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
            metrics.insert("best_certificate".into(), best);
            metrics.insert("right_side".into(), view.num_right() as f64);
        }
        Task::Radio {
            protocol,
            source_vertex,
            max_rounds,
        } => {
            let source = source_vertex.unwrap_or(0);
            let reachable = {
                let _span = wx_trace::span(spans::REACHABLE);
                reachable_from(g, source)
            };
            let sim =
                RadioSimulator::with_reachable(g, source, radio_config(g, *max_rounds), reachable);
            let mut proto = protocol.build();
            let (outcome, half) = with_thread_workspace(|ws| {
                let outcome = {
                    let _span = wx_trace::span(spans::SCALAR);
                    sim.run_in(&mut proto, seed, ws)
                };
                (outcome, ws.rounds_to_reach_fraction(0.5, outcome.reachable))
            });
            metrics.insert("completed".into(), flag(outcome.completed()));
            metrics.insert("reachable".into(), outcome.reachable as f64);
            if let Some(rounds) = outcome.completed_at {
                metrics.insert("rounds".into(), rounds as f64);
            }
            if let Some(half) = half {
                metrics.insert("rounds_to_half".into(), half as f64);
            }
        }
    }
    Ok(metrics)
}

/// The solver's result: solved again under its span where the runner
/// solved (a solution-cache miss), rehydrated from the cache where the
/// runner did.
fn solution(
    rec: &Recorder<'_>,
    key: u64,
    kind: SolverKind,
    view: &BipartiteGraph,
    seed: u64,
) -> SpokesmanResult {
    if !rec.solved(key) {
        let cached = SolutionStore::get(rec.cache, key).and_then(|e| e.artifact.rehydrate(view));
        if let Some(result) = cached {
            return result;
        }
    }
    let _span = wx_trace::span(spans::solver(kind));
    kind.build().solve(view, seed)
}

/// The shared-graph radio path: one reach BFS per request, then bit-sliced
/// batches of up to 64 trials.
fn lanes(
    spec: &ScenarioSpec,
    g: &Graph,
    trials: &[TrialSpec],
) -> Result<(Vec<Metrics>, (u64, u64)), String> {
    let Task::Radio {
        protocol,
        source_vertex,
        max_rounds,
    } = &spec.task
    else {
        return Err("lane replay of a non-radio task".into());
    };
    let source = source_vertex.unwrap_or(0);
    let reachable = {
        let _span = wx_trace::span(spans::REACHABLE);
        reachable_from(g, source)
    };
    let sim = RadioSimulator::with_reachable(g, source, radio_config(g, *max_rounds), reachable);
    let mut records = Vec::with_capacity(trials.len());
    let (mut live, mut capacity) = (0u64, 0u64);
    for batch in trials.chunks(MAX_LANES) {
        let seeds: Vec<u64> = batch.iter().map(|t| derive_seed(t.seed, 1)).collect();
        let mut proto = protocol.build_lanes();
        with_thread_lane_workspace(|ws| {
            {
                let _span = wx_trace::span(spans::LANES);
                run_lanes_in(&sim, &mut *proto, &seeds, ws);
            }
            let mut longest = 0u64;
            for lane in 0..batch.len() {
                let outcome = ws.lane_outcome(lane);
                live += outcome.rounds_simulated as u64;
                longest = longest.max(outcome.rounds_simulated as u64);
                let mut metrics = Metrics::new();
                metrics.insert("completed".into(), flag(outcome.completed()));
                metrics.insert("reachable".into(), outcome.reachable as f64);
                if let Some(rounds) = outcome.completed_at {
                    metrics.insert("rounds".into(), rounds as f64);
                }
                if let Some(half) = ws.lane_rounds_to_reach_fraction(lane, 0.5, outcome.reachable) {
                    metrics.insert("rounds_to_half".into(), half as f64);
                }
                meta(&mut metrics, g);
                records.push(metrics);
            }
            capacity += MAX_LANES as u64 * longest;
        });
    }
    Ok((records, (live, capacity)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, depth: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name,
            tid: 0,
            depth,
            start_nanos: start,
            dur_nanos: end - start,
        }
    }

    #[test]
    fn self_time_is_span_minus_reported_children() {
        let trace = vec![
            span("wxbench.outer", 0, 0, 100),
            span("wxbench.a", 1, 10, 30),
            span("wxbench.b", 1, 40, 70),
            // a program span the benchmark does not report: transparent
            span("program.inner", 2, 50, 60),
            span("wxbench.d", 3, 52, 55),
            span("wxbench.next", 0, 100, 140),
        ];
        let times = self_times(&trace, |n| n.starts_with("wxbench."));
        let get = |name: &str| times.iter().find(|t| t.name == name).unwrap();
        assert_eq!(get("wxbench.outer").self_nanos, 100 - 20 - 30);
        assert_eq!(get("wxbench.a").self_nanos, 20);
        assert_eq!(get("wxbench.b").self_nanos, 30 - 3);
        assert_eq!(get("wxbench.d").self_nanos, 3);
        assert_eq!(get("wxbench.d").parent, Some("wxbench.b"));
        assert_eq!(get("wxbench.next").self_nanos, 40);
        assert_eq!(get("wxbench.next").parent, None);
        assert!(times.iter().all(|t| t.name != "program.inner"));
        // self times of a tree add up to its root's duration
        let tree: u64 = times
            .iter()
            .filter(|t| t.name != "wxbench.next")
            .map(|t| t.self_nanos)
            .sum();
        assert_eq!(tree, 100);
    }

    #[test]
    fn threads_nest_independently() {
        let mut other = span("wxbench.other", 1, 20, 25);
        other.tid = 1;
        let trace = vec![span("wxbench.root", 0, 0, 50), other];
        let times = self_times(&trace, |_| true);
        assert_eq!(times[0].self_nanos, 50);
        assert_eq!(
            times[1].parent, None,
            "a depth-1 span on another thread has no parent here"
        );
    }

    #[test]
    fn run_ctx_coverage_counts_program_layers_inside_run_ctx_once() {
        let on = |tid, mut s: SpanRecord| {
            s.tid = tid;
            s
        };
        let trace = vec![
            span(spans::RUN_CTX, 0, 100, 200),
            span("lab.build_graph", 1, 105, 120),
            span(spans::BUILD, 2, 106, 119),
            // trials on a pool thread, at depth 0 there
            on(1, span("lab.trial", 0, 125, 190)),
            on(1, span("lab.solve", 1, 130, 160)),
            on(1, span("lab.measure", 1, 150, 170)),
            // a replayed call after run_ctx: outside it
            span("lab.simulate", 0, 210, 240),
        ];
        // 15 for the build, then 130..170 once: 40
        assert_eq!(run_ctx_coverage(&trace), (100, 15 + 40));
        assert_eq!(run_ctx_coverage(&trace[1..]), (0, 0));
    }

    #[test]
    fn replay_reproduces_served_reports_and_attributes_builds() {
        use crate::workload::Workload;
        let cache = ArtifactCache::new(Default::default());
        for w in Workload::ALL {
            let spec = w.request(5, if w == Workload::Interactive { 2 } else { 0 });
            let small = ScenarioSpec {
                source: match &spec.source {
                    wx_lab::source::GraphSource::RandomRegular { d, .. } => {
                        wx_lab::source::GraphSource::RandomRegular { n: 96, d: *d }
                    }
                    _ => wx_lab::source::GraphSource::Margulis { m: 8 },
                },
                task: match spec.task {
                    Task::Spokesman { solvers, .. } => Task::Spokesman {
                        set_size: 24,
                        solvers,
                    },
                    task => task,
                },
                ..spec
            };
            let body = serde_json::to_string(&small).unwrap();
            let served = Runner::new().run(&small).unwrap().to_json();
            let cold = replay(&cache, &body, &served).unwrap();
            assert!(cold.builds >= 1, "{}: a cold request builds", w.name());
            let warm = replay(&cache, &body, &served).unwrap();
            assert_eq!(warm.builds, 0, "{}: a repeated request hits", w.name());
            assert!(replay(&cache, &body, &served.replace("\"trials\"", "\"trial\"")).is_err());
        }
    }
}
