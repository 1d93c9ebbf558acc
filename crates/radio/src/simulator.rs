//! The synchronous collision-model simulator.

use crate::protocols::BroadcastProtocol;
use crate::workspace::TrialWorkspace;
use wx_graph::random::{rng_from_seed, WxRng};
use wx_graph::{Graph, GraphView, Vertex, VertexSet};

/// Read-only view of the simulation state handed to protocols each round.
///
/// Distributed protocols should only consult fields a real processor would
/// know (its own informed status, the round number, global parameters `n`
/// and `D`); centralized schedules (the spokesman broadcast) may use the
/// whole view. The simulator does not police this — the distinction is
/// documented per protocol.
#[derive(Debug)]
pub struct RoundView<'a, G: GraphView + ?Sized = Graph> {
    /// The underlying network (any [`GraphView`] backend).
    pub graph: &'a G,
    /// The current round number (the first round is 0).
    pub round: usize,
    /// The broadcast source.
    pub source: Vertex,
    /// Vertices that currently hold the message.
    pub informed: &'a VertexSet,
    /// Vertices that first received the message in the previous round.
    pub newly_informed: &'a VertexSet,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimulatorConfig {
    /// Hard cap on the number of rounds simulated.
    pub max_rounds: usize,
    /// Stop as soon as every vertex reachable from the source is informed.
    pub stop_when_complete: bool,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            max_rounds: 10_000,
            stop_when_complete: true,
        }
    }
}

/// The radio-network simulator.
///
/// Graph and source are fixed per simulator, so the completion target (the
/// number of vertices reachable from the source) is computed **once** at
/// construction and cached — a 10k-trial ensemble on one simulator performs
/// one BFS, not 10k. [`RadioSimulator::run_in`] runs one trial in a
/// [`TrialWorkspace`], which ensembles reuse so that trials allocate nothing.
pub struct RadioSimulator<'a, G: GraphView + ?Sized = Graph> {
    graph: &'a G,
    source: Vertex,
    config: SimulatorConfig,
    /// Cached number of vertices reachable from `source` (the completion
    /// target); computed by one BFS in the constructor.
    reachable: usize,
}

impl<'a, G: GraphView + ?Sized> RadioSimulator<'a, G> {
    /// Creates a simulator for broadcasting from `source` on `graph`.
    ///
    /// Runs one BFS to determine the completion target; every subsequent
    /// trial reuses the cached count.
    pub fn new(graph: &'a G, source: Vertex, config: SimulatorConfig) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        let reachable = reachable_from(graph, source);
        RadioSimulator {
            graph,
            source,
            config,
            reachable,
        }
    }

    /// Creates a simulator with an externally computed reachable count,
    /// skipping the constructor BFS entirely. The caller vouches that
    /// `reachable` is the number of vertices reachable from `source` (a
    /// wrong value only affects completion detection, not safety). Used by
    /// batch drivers that already ran a BFS on the shared graph.
    pub fn with_reachable(
        graph: &'a G,
        source: Vertex,
        config: SimulatorConfig,
        reachable: usize,
    ) -> Self {
        assert!(source < graph.num_vertices(), "source out of range");
        RadioSimulator {
            graph,
            source,
            config,
            reachable,
        }
    }

    /// The number of vertices reachable from the source (the completion
    /// target). Cached at construction — calling this in a loop is free.
    pub fn reachable_count(&self) -> usize {
        self.reachable
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'a G {
        self.graph
    }

    /// The broadcast source.
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// The simulator configuration (round cap and stopping rule) — shared by
    /// the scalar loop and the bit-sliced lane engine in [`crate::bitslice`].
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Runs the protocol until completion or the round cap, reusing the
    /// buffers in `ws` — the streaming trial engine's inner loop.
    ///
    /// After the first call on a given graph size, subsequent calls perform
    /// **no** n-sized allocations: the informed/newly-informed bitsets, the
    /// transmitter buffer, the first-informed array, the per-round counts and
    /// the receiver-resolution scratch all live in the workspace, and the
    /// completion target comes from the BFS cached at construction. Per-trial
    /// setup is a targeted reset proportional to the previous trial's
    /// informed count, plus reseeding the protocol rng.
    ///
    /// `seed` drives the protocol's randomness and nothing else (the
    /// simulator itself is deterministic). The returned [`TrialOutcome`] is
    /// a constant-size summary; the full trajectory
    /// ([`TrialWorkspace::informed_per_round`],
    /// [`TrialWorkspace::first_informed_round`]) remains readable from `ws`
    /// until the next run overwrites it.
    pub fn run_in(
        &self,
        protocol: &mut dyn BroadcastProtocol<G>,
        seed: u64,
        ws: &mut TrialWorkspace,
    ) -> TrialOutcome {
        let _span = wx_trace::span("radio.trial");
        let mut rng: WxRng = rng_from_seed(seed);
        ws.reset(self.graph.num_vertices(), self.source);
        let target = self.reachable;
        let mut completed_at = None;

        protocol.reset(self.graph, self.source);

        for round in 0..self.config.max_rounds {
            ws.step(self.graph, self.source, round, protocol, &mut rng);
            wx_trace::event_value("radio.newly_informed", ws.newly.len() as u64);
            if ws.informed.len() == target && completed_at.is_none() {
                // record the *first* completion round; with
                // stop_when_complete = false the simulation keeps running but
                // the completion round must not advance with it
                completed_at = Some(round + 1);
                if self.config.stop_when_complete {
                    break;
                }
            }
        }

        // Scheduling-independent work counts: identical values whether the
        // trial ran here or as a bit-lane of the sliced engine.
        let rounds_simulated = ws.informed_per_round.len() - 1;
        wx_trace::count(
            wx_trace::CounterId::RadioRoundsSimulated,
            rounds_simulated as u64,
        );
        wx_trace::count(
            wx_trace::CounterId::RadioInformedFinal,
            ws.informed.len() as u64,
        );
        TrialOutcome {
            reachable: target,
            informed: ws.informed.len(),
            completed_at,
            rounds_simulated,
        }
    }
}

/// The number of vertices reachable from `source` in `graph` (one BFS) —
/// the completion-target definition. [`RadioSimulator::new`] computes it
/// once per simulator; batch drivers that share a graph across many
/// simulators compute it here once and pass it to
/// [`RadioSimulator::with_reachable`].
pub fn reachable_from<G: GraphView + ?Sized>(graph: &G, source: Vertex) -> usize {
    wx_graph::traversal::bfs(graph, source)
        .dist
        .iter()
        .filter(|&&d| d != usize::MAX)
        .count()
}

/// Constant-size summary of one [`RadioSimulator::run_in`] trial — everything
/// an online aggregator needs; the n-sized trajectory stays in the
/// [`TrialWorkspace`] (or, for a lane, the [`crate::LaneWorkspace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Number of vertices reachable from the source (the completion target).
    pub reachable: usize,
    /// Number of vertices informed when the run stopped.
    pub informed: usize,
    /// The round at which the last reachable vertex became informed, if the
    /// broadcast completed within the round cap.
    pub completed_at: Option<usize>,
    /// Number of rounds actually simulated.
    pub rounds_simulated: usize,
}

impl TrialOutcome {
    /// `true` if every reachable vertex was informed.
    pub fn completed(&self) -> bool {
        self.completed_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::naive::NaiveFlooding;
    use crate::protocols::round_robin::RoundRobin;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    /// One trial in a fresh workspace, which keeps the trajectory.
    fn run(
        sim: &RadioSimulator<'_>,
        protocol: &mut dyn BroadcastProtocol,
        seed: u64,
    ) -> (TrialOutcome, TrialWorkspace) {
        let mut ws = TrialWorkspace::new(0);
        let outcome = sim.run_in(protocol, seed, &mut ws);
        (outcome, ws)
    }

    #[test]
    fn step_applies_collision_rule() {
        use wx_graph::neighborhood::unique_neighborhood;
        // star: center 0 with leaves 1..=3
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        // single transmitter: all neighbors receive
        let recv = unique_neighborhood(&g, &g.vertex_set([0]));
        assert_eq!(recv.to_vec(), vec![1, 2, 3]);
        // two leaves transmit: the center hears a collision, nothing received
        let recv = unique_neighborhood(&g, &g.vertex_set([1, 2]));
        assert!(recv.is_empty());
        // one leaf transmits: only the center receives
        let recv = unique_neighborhood(&g, &g.vertex_set([1]));
        assert_eq!(recv.to_vec(), vec![0]);
        // a transmitter does not receive even if a neighbor transmits
        let recv = unique_neighborhood(&g, &g.vertex_set([0, 1]));
        assert_eq!(recv.to_vec(), vec![2, 3]);
    }

    #[test]
    fn naive_flooding_completes_on_a_path() {
        // On a path there are never two informed neighbors of the frontier
        // vertex, so naive flooding advances one hop per round.
        let g = path(6);
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let (outcome, ws) = run(&sim, &mut NaiveFlooding, 1);
        assert_eq!(outcome.completed_at, Some(5));
        assert_eq!(ws.first_informed_round()[5], Some(5));
    }

    #[test]
    fn naive_flooding_stalls_on_c_plus() {
        // The introduction's example: after round 1 the informed set is
        // {s0, x, y}; from round 2 on every clique vertex hears ≥ 2
        // transmitters, so naive flooding never finishes.
        let (g, src) = wx_constructions::families::complete_plus_graph(6).unwrap();
        let sim = RadioSimulator::new(
            &g,
            src,
            SimulatorConfig {
                max_rounds: 50,
                stop_when_complete: true,
            },
        );
        let (outcome, ws) = run(&sim, &mut NaiveFlooding, 1);
        assert_eq!(outcome.completed_at, None);
        assert_eq!(ws.informed_per_round().last().copied(), Some(3));
    }

    #[test]
    fn round_robin_always_completes() {
        let (g, src) = wx_constructions::families::complete_plus_graph(6).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let (outcome, ws) = run(&sim, &mut RoundRobin, 1);
        assert!(outcome.completed_at.is_some());
        assert_eq!(ws.informed_per_round().last().copied(), Some(7));
    }

    #[test]
    fn unreachable_vertices_do_not_block_completion() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        assert_eq!(sim.reachable_count(), 3);
        let (outcome, ws) = run(&sim, &mut NaiveFlooding, 0);
        assert_eq!(outcome.completed_at, Some(2));
        assert!(ws.first_informed_round()[3].is_none());
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_must_be_valid() {
        let g = path(3);
        RadioSimulator::new(&g, 3, SimulatorConfig::default());
    }

    #[test]
    fn run_in_is_identical_in_fresh_and_reused_workspaces() {
        use crate::protocols::decay::DecayProtocol;
        let g = wx_constructions::families::random_regular_graph(48, 4, 7).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let mut ws = TrialWorkspace::new(0);
        for seed in 0..6u64 {
            let (fresh, fresh_ws) = run(&sim, &mut DecayProtocol, seed);
            let reused = sim.run_in(&mut DecayProtocol, seed, &mut ws);
            assert_eq!(fresh.completed_at, reused.completed_at);
            assert_eq!(fresh.rounds_simulated, reused.rounds_simulated);
            assert_eq!(fresh_ws.informed_per_round(), ws.informed_per_round());
            assert_eq!(
                fresh_ws.first_informed_round()[..48],
                ws.first_informed_round()[..48]
            );
            assert_eq!(
                reused.informed,
                ws.informed_per_round().last().copied().unwrap()
            );
        }
        // the workspace never regrew past the graph size
        assert_eq!(ws.capacity(), 48);
    }

    #[test]
    fn completed_at_records_the_first_completion_round_without_early_stop() {
        // with stop_when_complete = false the simulation keeps running past
        // completion; completed_at must stay pinned to the first completion
        // round instead of advancing with every subsequent full round
        let g = path(4);
        let sim = RadioSimulator::new(
            &g,
            0,
            SimulatorConfig {
                max_rounds: 50,
                stop_when_complete: false,
            },
        );
        let (outcome, _) = run(&sim, &mut NaiveFlooding, 0);
        assert_eq!(outcome.completed_at, Some(3));
        assert_eq!(outcome.rounds_simulated, 50);
    }

    #[test]
    fn with_reachable_skips_the_bfs_but_behaves_identically() {
        let g = path(6);
        let plain = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let hinted = RadioSimulator::with_reachable(&g, 0, SimulatorConfig::default(), 6);
        assert_eq!(plain.reachable_count(), hinted.reachable_count());
        let (a, a_ws) = run(&plain, &mut NaiveFlooding, 1);
        let (b, b_ws) = run(&hinted, &mut NaiveFlooding, 1);
        assert_eq!(a.completed_at, b.completed_at);
        assert_eq!(a_ws.informed_per_round(), b_ws.informed_per_round());
    }
}
