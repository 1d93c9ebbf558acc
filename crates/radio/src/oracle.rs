//! The scalar collision model, the reference every lane of the engine is
//! tested against.
//!
//! One trial at a time, straight from the definitions: the informed set is
//! a [`VertexSet`], each round's transmitters are chosen from it as the
//! protocol's definition says, and the receivers are the
//! [`unique_neighborhood`] of the transmitters (a silent vertex with
//! exactly one transmitting neighbor). Decay draws one `gen_bool(2^{-i})`
//! per informed vertex, in ascending vertex order, from the trial's own
//! stream; the deterministic protocols never touch the stream. Lane `l` of
//! a [`crate::run_lanes_in`] batch must equal [`run`] under `seeds[l]`,
//! bit for bit.

#![cfg(test)]

use crate::bitslice::{run_lanes_in, LaneWorkspace};
use crate::protocols::decay::phase_length;
use crate::protocols::{spokesman, ProtocolKind};
use crate::simulator::{RadioSimulator, TrialOutcome};
use rand::Rng;
use wx_graph::neighborhood::unique_neighborhood;
use wx_graph::random::rng_from_seed;
use wx_graph::{GraphView, VertexSet};

/// One trial's whole record.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Trial {
    pub(crate) outcome: TrialOutcome,
    /// `informed_per_round[r]` = informed count after `r` rounds.
    pub(crate) informed_per_round: Vec<usize>,
    /// Per vertex, the round it was first informed (`None` if never).
    pub(crate) first_informed_round: Vec<Option<usize>>,
}

impl Trial {
    /// Lane `lane` of the last batch run in `ws`, on an `n`-vertex graph.
    pub(crate) fn of_lane(ws: &LaneWorkspace, lane: usize, n: usize) -> Trial {
        Trial {
            outcome: ws.lane_outcome(lane),
            informed_per_round: ws.lane_informed_per_round(lane).to_vec(),
            first_informed_round: (0..n)
                .map(|v| ws.lane_first_informed_round(lane, v))
                .collect(),
        }
    }
}

/// One trial of `kind` on the lane engine: a 1-lane batch in a fresh
/// workspace.
pub(crate) fn one_lane<G: GraphView + ?Sized>(
    sim: &RadioSimulator<'_, G>,
    kind: ProtocolKind,
    seed: u64,
) -> Trial {
    let mut ws = LaneWorkspace::new(0);
    run_lanes_in(sim, &mut *kind.build(), &[seed], &mut ws);
    Trial::of_lane(&ws, 0, sim.graph().num_vertices())
}

/// One trial of `kind` on `sim` under `seed`, by the scalar model.
pub(crate) fn run<G: GraphView + ?Sized>(
    sim: &RadioSimulator<'_, G>,
    kind: ProtocolKind,
    seed: u64,
) -> Trial {
    let (graph, config) = (sim.graph(), sim.config());
    let n = graph.num_vertices();
    let mut rng = rng_from_seed(seed);
    let mut informed = VertexSet::empty(n);
    informed.insert(sim.source());
    let mut first_informed_round = vec![None; n];
    first_informed_round[sim.source()] = Some(0);
    let mut informed_per_round = vec![1];
    let mut completed_at = None;
    for round in 0..config.max_rounds {
        let transmitters = match kind {
            ProtocolKind::NaiveFlooding => informed.clone(),
            ProtocolKind::RoundRobin => {
                VertexSet::from_iter(n, Some(round % n).filter(|&v| informed.contains(v)))
            }
            ProtocolKind::Decay => {
                let p = 0.5f64.powi((round % phase_length(n)) as i32);
                VertexSet::from_iter(n, informed.iter().filter(|_| rng.gen_bool(p)))
            }
            ProtocolKind::Spokesman => spokesman::transmitters(graph, &informed, round),
        };
        for v in unique_neighborhood(graph, &transmitters).iter() {
            if informed.insert(v) {
                first_informed_round[v] = Some(round + 1);
            }
        }
        informed_per_round.push(informed.len());
        if informed.len() == sim.reachable_count() && completed_at.is_none() {
            completed_at = Some(round + 1);
            if config.stop_when_complete {
                break;
            }
        }
    }
    Trial {
        outcome: TrialOutcome {
            reachable: sim.reachable_count(),
            informed: informed.len(),
            completed_at,
            rounds_simulated: informed_per_round.len() - 1,
        },
        informed_per_round,
        first_informed_round,
    }
}

mod tests {
    use super::*;
    use crate::bitslice::MAX_LANES;
    use crate::simulator::SimulatorConfig;
    use proptest::prelude::*;
    use wx_graph::random::derive_seed;
    use wx_graph::{Graph, ImplicitFamily, ImplicitGraph, SubgraphView, SubsetIndex};

    /// Every protocol × lanes {1, 2, 64} × both stopping rules on `g` from
    /// source 0, one reused workspace: each lane equals the oracle's trial
    /// under the lane's seed.
    fn check_lanes<G: GraphView + ?Sized>(
        g: &G,
        base: u64,
        ws: &mut LaneWorkspace,
    ) -> Result<(), TestCaseError> {
        let seeds: Vec<u64> = (0..MAX_LANES as u64)
            .map(|l| derive_seed(base, l))
            .collect();
        for kind in ProtocolKind::ALL {
            for stop_when_complete in [true, false] {
                let config = SimulatorConfig {
                    max_rounds: 40,
                    stop_when_complete,
                };
                let sim = RadioSimulator::new(g, 0, config);
                // Only decay reads its seed: a deterministic protocol's
                // trial is the same under every seed, so one oracle run
                // stands for all lanes.
                let width = if kind == ProtocolKind::Decay {
                    MAX_LANES
                } else {
                    1
                };
                let expected: Vec<Trial> = seeds[..width]
                    .iter()
                    .map(|&seed| run(&sim, kind, seed))
                    .collect();
                for lanes in [1, 2, MAX_LANES] {
                    run_lanes_in(&sim, &mut *kind.build(), &seeds[..lanes], ws);
                    for lane in 0..lanes {
                        prop_assert_eq!(
                            &Trial::of_lane(ws, lane, g.num_vertices()),
                            &expected[lane.min(width - 1)],
                            "{} lanes={} lane={} stop={}",
                            kind,
                            lanes,
                            lane,
                            stop_when_complete
                        );
                    }
                }
            }
        }
        Ok(())
    }

    fn edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
        prop::collection::vec((0..n, 0..n), 0..n * 3).prop_map(|pairs| {
            pairs
                .into_iter()
                .filter(|(u, v)| u != v)
                .collect::<Vec<_>>()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The lane engine against the scalar model on random small CSR
        /// graphs, zero-copy induced subgraphs of them, and implicit
        /// cycle powers.
        #[test]
        fn lanes_match_the_oracle(
            edges in edge_list(14),
            keep in prop::collection::btree_set(0usize..14, 1..12),
            cycle_power in (8usize..24, 1usize..4),
            base in any::<u64>(),
        ) {
            let mut ws = LaneWorkspace::new(0);
            let g = Graph::from_edges(14, edges).unwrap();
            check_lanes(&g, base, &mut ws)?;
            let keep = SubsetIndex::new(VertexSet::from_iter(14, keep));
            check_lanes(&SubgraphView::new(&g, &keep), base, &mut ws)?;
            let (n, power) = cycle_power;
            let implicit = ImplicitGraph::new(ImplicitFamily::CyclePower { n, power }).unwrap();
            check_lanes(&implicit, base, &mut ws)?;
        }
    }
}
