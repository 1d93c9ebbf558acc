//! Property-based tests for the radio simulator: the collision rule and the
//! simulation bookkeeping, pinned against their definitions on random graphs
//! and random transmitter sets.

use proptest::prelude::*;
use wx_graph::{Graph, GraphView, VertexSet};
use wx_radio::{
    run_lanes_in, LaneWorkspace, ProtocolKind, RadioSimulator, SimulatorConfig, TrialOutcome,
};

/// One trial's record, read through the lane workspace's public accessors.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: TrialOutcome,
    /// Per vertex, the round it was first informed.
    first_informed_round: Vec<Option<usize>>,
    /// Informed count after each round, counted from `first_informed_round`.
    informed_per_round: Vec<usize>,
}

/// One trial of `kind` under `seed`, as a 1-lane batch.
fn run<G: GraphView + ?Sized>(sim: &RadioSimulator<'_, G>, kind: ProtocolKind, seed: u64) -> Run {
    let mut ws = LaneWorkspace::new(0);
    run_lanes_in(sim, &mut *kind.build(), &[seed], &mut ws);
    let outcome = ws.lane_outcome(0);
    let first_informed_round: Vec<Option<usize>> = (0..sim.graph().num_vertices())
        .map(|v| ws.lane_first_informed_round(0, v))
        .collect();
    let mut informed_per_round = vec![0; outcome.rounds_simulated + 1];
    for &r in first_informed_round.iter().flatten() {
        informed_per_round[r] += 1;
    }
    for r in 1..informed_per_round.len() {
        informed_per_round[r] += informed_per_round[r - 1];
    }
    Run {
        outcome,
        first_informed_round,
        informed_per_round,
    }
}

fn edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(n * 3).max(1)).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The collision rule, literally: a vertex receives iff it is silent and
    /// exactly one neighbor transmits.
    #[test]
    fn step_matches_collision_rule(edges in edge_list(14),
                                   tx in prop::collection::btree_set(0usize..14, 0..10)) {
        let g = Graph::from_edges(14, edges).unwrap();
        let transmitters = VertexSet::from_iter(14, tx.iter().copied());
        let received = wx_graph::neighborhood::unique_neighborhood(&g, &transmitters);
        for v in 0..14 {
            let transmitting_neighbors = g
                .neighbors(v)
                .iter()
                .filter(|&&u| transmitters.contains(u))
                .count();
            let should_receive = !transmitters.contains(v) && transmitting_neighbors == 1;
            prop_assert_eq!(received.contains(v), should_receive,
                "vertex {} (tx neighbors = {})", v, transmitting_neighbors);
        }
    }

    /// Simulation bookkeeping: the informed count is monotone, matches the
    /// first-informed-round records, never exceeds the reachable count, and
    /// the source is informed at round 0.
    #[test]
    fn outcome_bookkeeping_is_consistent(edges in edge_list(12), seed in 0u64..100, proto_id in 0usize..3) {
        let g = Graph::from_edges(12, edges).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig {
            max_rounds: 200,
            stop_when_complete: true,
        });
        let kind = [ProtocolKind::NaiveFlooding, ProtocolKind::RoundRobin, ProtocolKind::Decay][proto_id];
        let Run { outcome, first_informed_round, informed_per_round } = run(&sim, kind, seed);

        prop_assert_eq!(first_informed_round[0], Some(0));
        prop_assert!(informed_per_round.windows(2).all(|w| w[1] >= w[0]));
        prop_assert!(informed_per_round.iter().all(|&c| c <= outcome.reachable));
        prop_assert_eq!(outcome.informed, *informed_per_round.last().unwrap());
        // every informed vertex (other than the source) is reachable and has
        // an informed-round no larger than the number of simulated rounds
        let dist = wx_graph::traversal::bfs(&g, 0).dist;
        for (v, round) in first_informed_round.iter().enumerate() {
            if let Some(r) = round {
                prop_assert!(*r <= outcome.rounds_simulated);
                if v != 0 {
                    prop_assert!(dist[v] != usize::MAX);
                    prop_assert!(*r >= dist[v],
                        "vertex {} informed at round {} faster than its distance", v, r);
                }
            }
        }
        if let Some(done) = outcome.completed_at {
            prop_assert_eq!(*informed_per_round.last().unwrap(), outcome.reachable);
            prop_assert!(done <= outcome.rounds_simulated);
        }
    }

    /// Round-robin and any single-transmitter schedule can never suffer a
    /// collision: every round informs at most Δ new vertices.
    #[test]
    fn round_robin_has_no_collisions(edges in edge_list(12), seed in 0u64..20) {
        let g = Graph::from_edges(12, edges).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig {
            max_rounds: 400,
            stop_when_complete: true,
        });
        let Run { outcome, informed_per_round, .. } = run(&sim, ProtocolKind::RoundRobin, seed);
        let delta = g.max_degree();
        for w in informed_per_round.windows(2) {
            prop_assert!(w[1] - w[0] <= delta.max(1));
        }
        // round-robin always completes on the source's component within n
        // rounds per BFS layer
        prop_assert!(outcome.completed_at.is_some());
    }

    /// Backend equivalence: a full radio trial (decay — rng-driven, so any
    /// divergence in iteration order would show — plus the deterministic
    /// protocols) produces identical outcomes on a zero-copy `SubgraphView`
    /// vs the materialized induced subgraph.
    #[test]
    fn full_trial_agrees_on_subgraph_view_vs_materialized(
        edges in edge_list(16),
        keep_raw in prop::collection::btree_set(0usize..16, 2..12),
        seed in 0u64..50,
    ) {
        let g = Graph::from_edges(16, edges).unwrap();
        let keep = wx_graph::SubsetIndex::new(VertexSet::from_iter(16, keep_raw.iter().copied()));
        let view = wx_graph::SubgraphView::new(&g, &keep);
        let (mat, _) = g.induced_subgraph(keep.set());
        let config = SimulatorConfig { max_rounds: 300, stop_when_complete: true };
        let sim_view = RadioSimulator::new(&view, 0, config.clone());
        let sim_mat = RadioSimulator::new(&mat, 0, config);
        prop_assert_eq!(sim_view.reachable_count(), sim_mat.reachable_count());
        for kind in [ProtocolKind::Decay, ProtocolKind::NaiveFlooding] {
            prop_assert_eq!(run(&sim_view, kind, seed), run(&sim_mat, kind, seed));
        }
    }

    /// Backend equivalence: a full decay trial on an `ImplicitGraph` equals
    /// the trial on the materialized family graph, bit for bit.
    #[test]
    fn full_trial_agrees_on_implicit_vs_materialized(
        n in 8usize..40,
        seed in 0u64..50,
    ) {
        let implicit = wx_graph::ImplicitGraph::new(wx_graph::ImplicitFamily::CyclePower { n, power: 2 }).unwrap();
        let mat = wx_graph::view::materialize(&implicit);
        let config = SimulatorConfig { max_rounds: 500, stop_when_complete: true };
        let sim_implicit = RadioSimulator::new(&implicit, 0, config.clone());
        let sim_mat = RadioSimulator::new(&mat, 0, config);
        prop_assert_eq!(sim_implicit.reachable_count(), sim_mat.reachable_count());
        // the centralized spokesman schedule exercises the bipartite-view
        // extraction on both backends
        for kind in [ProtocolKind::Decay, ProtocolKind::Spokesman] {
            prop_assert_eq!(run(&sim_implicit, kind, seed), run(&sim_mat, kind, seed));
        }
    }
}
