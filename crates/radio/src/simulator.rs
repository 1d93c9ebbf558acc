//! The synchronous collision-model simulator.

use wx_graph::{Graph, GraphView, Vertex};

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

/// The radio-network simulator: a graph, a broadcast source and a
/// configuration, which [`crate::run_lanes_in`] runs trials on.
///
/// Graph and source are fixed per simulator, so the completion target (the
/// number of vertices reachable from the source) is computed **once** at
/// construction and cached — a 10k-trial ensemble on one simulator performs
/// one BFS, not 10k.
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

    /// The simulator configuration (round cap and stopping rule).
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
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

/// Constant-size summary of one trial (one lane of a
/// [`crate::run_lanes_in`] batch) — everything an online aggregator needs;
/// the n-sized trajectory stays in the [`crate::LaneWorkspace`].
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
    use crate::oracle::one_lane;
    use crate::protocols::ProtocolKind;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
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
        // the lane engine applies the same rule: flooding from the center
        // informs every leaf in round 1
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let trial = one_lane(&sim, ProtocolKind::NaiveFlooding, 0);
        assert_eq!(
            trial.first_informed_round,
            vec![Some(0), Some(1), Some(1), Some(1)]
        );
    }

    #[test]
    fn naive_flooding_completes_on_a_path() {
        // On a path there are never two informed neighbors of the frontier
        // vertex, so naive flooding advances one hop per round.
        let g = path(6);
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let trial = one_lane(&sim, ProtocolKind::NaiveFlooding, 1);
        assert_eq!(trial.outcome.completed_at, Some(5));
        assert_eq!(trial.first_informed_round[5], Some(5));
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
        let trial = one_lane(&sim, ProtocolKind::NaiveFlooding, 1);
        assert_eq!(trial.outcome.completed_at, None);
        assert_eq!(trial.informed_per_round.last().copied(), Some(3));
    }

    #[test]
    fn round_robin_always_completes() {
        let (g, src) = wx_constructions::families::complete_plus_graph(6).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let trial = one_lane(&sim, ProtocolKind::RoundRobin, 1);
        assert!(trial.outcome.completed_at.is_some());
        assert_eq!(trial.informed_per_round.last().copied(), Some(7));
    }

    #[test]
    fn unreachable_vertices_do_not_block_completion() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        assert_eq!(sim.reachable_count(), 3);
        let trial = one_lane(&sim, ProtocolKind::NaiveFlooding, 0);
        assert_eq!(trial.outcome.completed_at, Some(2));
        assert!(trial.first_informed_round[3].is_none());
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_must_be_valid() {
        let g = path(3);
        RadioSimulator::new(&g, 3, SimulatorConfig::default());
    }

    #[test]
    fn run_in_is_identical_in_fresh_and_reused_workspaces() {
        use crate::bitslice::LaneWorkspace;
        let g = wx_constructions::families::random_regular_graph(48, 4, 7).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let mut ws = LaneWorkspace::new(0);
        for seed in 0..6u64 {
            let fresh = one_lane(&sim, ProtocolKind::Decay, seed);
            let reused = sim.run_in(&mut *ProtocolKind::Decay.build(), seed, &mut ws);
            assert_eq!(fresh.outcome, reused);
            assert_eq!(
                fresh,
                crate::oracle::Trial::of_lane(&ws, 0, g.num_vertices())
            );
        }
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
        let outcome = one_lane(&sim, ProtocolKind::NaiveFlooding, 0).outcome;
        assert_eq!(outcome.completed_at, Some(3));
        assert_eq!(outcome.rounds_simulated, 50);
    }

    #[test]
    fn with_reachable_skips_the_bfs_but_behaves_identically() {
        let g = path(6);
        let plain = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let hinted = RadioSimulator::with_reachable(&g, 0, SimulatorConfig::default(), 6);
        assert_eq!(plain.reachable_count(), hinted.reachable_count());
        assert_eq!(
            one_lane(&plain, ProtocolKind::NaiveFlooding, 1),
            one_lane(&hinted, ProtocolKind::NaiveFlooding, 1)
        );
    }
}
