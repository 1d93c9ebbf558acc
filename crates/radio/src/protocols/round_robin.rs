//! Deterministic round-robin broadcast.
//!
//! Vertex `v` transmits (when informed) only in rounds `r` with
//! `r ≡ v (mod n)`. At most one vertex transmits per round, so collisions
//! are impossible and broadcast always completes — in `O(n·D)` rounds, the
//! trivially correct but slow deterministic baseline against which the decay
//! and spokesman protocols are compared.

use crate::bitslice::{LaneProtocol, LaneView};
use wx_graph::GraphView;

/// Round-robin single-transmitter schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl<G: GraphView + ?Sized> LaneProtocol<G> for RoundRobin {
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        let n = view.graph.num_vertices();
        let turn = view.round % n;
        // Last round's turn stops transmitting (before round 0 every word is
        // zero), then this round's turn transmits where it is informed.
        transmit[(turn + n - 1) % n] = 0;
        transmit[turn] = view.informed[turn] & view.live;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::run_lanes;
    use crate::simulator::{RadioSimulator, SimulatorConfig};
    use wx_graph::Graph;

    #[test]
    fn at_most_one_transmitter_per_round() {
        let g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1))).unwrap();
        let informed = [0b11, 0b01, 0b11, 0, 0b10, 0b11];
        let mut transmit = [0u64; 6];
        for round in 0..12 {
            let view = LaneView {
                graph: &g,
                round,
                live: 0b11,
                informed: &informed,
                open: &[u64::MAX; 6],
            };
            RoundRobin.fill_transmitters(&view, &mut transmit);
            // only this round's turn may transmit, in its informed lanes
            let turn = round % 6;
            for (v, &word) in transmit.iter().enumerate() {
                assert_eq!(word, if v == turn { informed[v] } else { 0 });
            }
        }
    }

    #[test]
    fn completes_on_collision_heavy_graphs() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let outcome = run_lanes(&sim, &mut RoundRobin, &[0])[0];
        assert!(outcome.completed_at.is_some());
        // the bound is at most n rounds per BFS layer
        assert!(outcome.completed_at.unwrap() <= g.num_vertices() * 3);
    }
}
