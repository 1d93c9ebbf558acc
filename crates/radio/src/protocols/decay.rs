//! The Bar-Yehuda–Goldreich–Itai decay protocol \[5\].
//!
//! Time is divided into phases of `k = ⌈log₂ n⌉ + 1` rounds. In the `i`-th
//! round of each phase (`i = 0, …, k−1`), every informed vertex transmits
//! independently with probability `2^{-i}`. For any uninformed vertex with
//! `d ≥ 1` informed neighbors there is a round in each phase where the
//! expected number of transmitting neighbors is `Θ(1)`, so it receives the
//! message within `O(log n)` phases with constant probability per phase —
//! the classical randomized broadcast that the paper's decay-style argument
//! (Lemma 4.2) is an offline, existential analogue of.

use crate::protocols::BroadcastProtocol;
use crate::simulator::RoundView;
use rand::Rng;
use wx_graph::random::WxRng;
use wx_graph::{GraphView, VertexSet};

/// The number of rounds per decay phase on an `n`-vertex graph,
/// `⌈log₂ n⌉ + 1` (the standard choice when only `n` is known). Shared by
/// the scalar protocol and [`crate::bitslice::LaneDecay`].
pub(crate) fn phase_length(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize + 1
}

/// The decay protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecayProtocol;

impl<G: GraphView + ?Sized> BroadcastProtocol<G> for DecayProtocol {
    fn name(&self) -> &'static str {
        "decay"
    }

    fn transmitters_into(&mut self, view: &RoundView<'_, G>, rng: &mut WxRng, out: &mut VertexSet) {
        let i = view.round % phase_length(view.graph.num_vertices());
        let p = 0.5f64.powi(i as i32);
        // Iterate the informed bitset directly (members are sorted, so the
        // inserts below append in order) — no boxed iterator, no `to_vec`,
        // no per-round allocation.
        for v in view.informed.iter() {
            if rng.gen_bool(p) {
                out.insert(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{RadioSimulator, SimulatorConfig};
    use crate::workspace::TrialWorkspace;

    #[test]
    fn completes_on_c_plus_where_flooding_stalls() {
        let (g, src) = wx_constructions::families::complete_plus_graph(10).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let mut ws = TrialWorkspace::new(0);
        let outcomes: Vec<_> = (0..10)
            .map(|seed| sim.run_in(&mut DecayProtocol, seed, &mut ws))
            .collect();
        let completed = outcomes.iter().filter(|o| o.completed()).count();
        assert_eq!(completed, 10, "decay failed on C⁺: {outcomes:?}");
    }

    #[test]
    fn phase_length_defaults_to_log_n() {
        assert_eq!(phase_length(16), 5);
        assert_eq!(phase_length(1024), 11);
    }

    #[test]
    fn first_round_of_each_phase_transmits_everything() {
        // with probability 2^0 = 1, every informed vertex transmits in the
        // first round of a phase regardless of the rng
        let g = wx_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let informed = g.vertex_set([0, 1]);
        let newly = g.vertex_set([1]);
        let view = RoundView {
            graph: &g,
            round: 0,
            source: 0,
            informed: &informed,
            newly_informed: &newly,
        };
        let mut rng = wx_graph::random::rng_from_seed(5);
        let mut t = VertexSet::empty(4);
        DecayProtocol.transmitters_into(&view, &mut rng, &mut t);
        assert_eq!(t.to_vec(), vec![0, 1]);
    }

    #[test]
    fn completes_reasonably_fast_on_random_regular_graphs() {
        let g = wx_constructions::families::random_regular_graph(128, 6, 3).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let mut ws = TrialWorkspace::new(0);
        let rounds: Vec<_> = (0..5)
            .filter_map(|seed| sim.run_in(&mut DecayProtocol, seed, &mut ws).completed_at)
            .collect();
        assert_eq!(rounds.len(), 5);
        // D = O(log n) here; decay should finish well within a few hundred rounds
        assert!(*rounds.iter().max().unwrap() < 500, "{rounds:?}");
    }
}
