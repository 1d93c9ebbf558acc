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

use crate::bitslice::{transpose64, LaneProtocol, LaneView};
use wx_graph::random::{rng_from_seed, WxRng};
use wx_graph::GraphView;

/// The number of rounds per decay phase on an `n`-vertex graph,
/// `⌈log₂ n⌉ + 1` (the standard choice when only `n` is known).
pub(crate) fn phase_length(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize + 1
}

/// The decay protocol, one RNG stream per lane.
///
/// Per round it builds the eligibility matrix (informed ∧ live), transposes
/// it 64×64-tile by tile into per-lane vertex masks, and asks each lane's
/// RNG for its Bernoulli decisions in one bulk call that deposits straight
/// into the mask positions — consuming exactly one draw per eligible vertex
/// in ascending vertex order, the stream of one `gen_bool(2^{-i})` per
/// informed vertex.
#[derive(Debug, Default)]
pub struct DecayProtocol {
    rngs: Vec<WxRng>,
    lanes: usize,
    tiles: usize,
    /// Per-lane eligibility masks, `[lane][tile]` flattened.
    lane_masks: Vec<u64>,
    /// Per-lane decision words aligned with `lane_masks`.
    lane_out: Vec<u64>,
    /// Packed decision stream scratch for the bulk RNG call.
    scratch: Vec<u64>,
}

impl<G: GraphView + ?Sized> LaneProtocol<G> for DecayProtocol {
    fn reset(&mut self, graph: &G, seeds: &[u64]) {
        self.lanes = seeds.len();
        self.tiles = graph.num_vertices().div_ceil(64);
        self.rngs.clear();
        for &s in seeds {
            self.rngs.push(rng_from_seed(s));
        }
        self.lane_masks.resize(self.lanes * self.tiles, 0);
        self.lane_out.resize(self.lanes * self.tiles, 0);
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        let n = view.graph.num_vertices();
        let i = view.round % phase_length(n);
        let p = 0.5f64.powi(i as i32);
        let tiles = self.tiles;

        // Eligibility matrix → per-lane vertex masks, one 64×64 bit
        // transpose per vertex tile.
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut any = 0u64;
            for (word, &informed) in tile.iter_mut().zip(&view.informed[base..base + height]) {
                *word = informed & view.live;
                any |= *word;
            }
            if any == 0 {
                for l in 0..self.lanes {
                    self.lane_masks[l * tiles + t] = 0;
                }
            } else {
                transpose64(&mut tile);
                for (l, &word) in tile.iter().enumerate().take(self.lanes) {
                    self.lane_masks[l * tiles + t] = word;
                }
            }
        }

        // One bulk Bernoulli call per lane: deposits each decision onto its
        // eligible vertex, consuming exactly one draw per set mask bit in
        // ascending vertex order.
        for l in 0..self.lanes {
            self.rngs[l].fill_masked_decision_bits(
                p,
                &self.lane_masks[l * tiles..(l + 1) * tiles],
                &mut self.scratch,
                &mut self.lane_out[l * tiles..(l + 1) * tiles],
            );
        }

        // Per-lane decisions → lane-major transmitter words (the inverse
        // transpose).
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut any = 0u64;
            for (l, word) in tile.iter_mut().enumerate().take(self.lanes) {
                *word = self.lane_out[l * tiles + t];
                any |= *word;
            }
            if any == 0 {
                transmit[base..base + height]
                    .iter_mut()
                    .for_each(|w| *w = 0);
            } else {
                transpose64(&mut tile);
                transmit[base..base + height].copy_from_slice(&tile[..height]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::run_lanes;
    use crate::simulator::{RadioSimulator, SimulatorConfig};

    #[test]
    fn completes_on_c_plus_where_flooding_stalls() {
        let (g, src) = wx_constructions::families::complete_plus_graph(10).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..10).collect();
        let outcomes = run_lanes(&sim, &mut DecayProtocol::default(), &seeds);
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
        // with probability 2^0 = 1, every informed vertex of every live lane
        // transmits in the first round of a phase regardless of the rng;
        // retired lanes stay silent
        let g = wx_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let informed = [0b111, 0b011, 0b100, 0];
        let mut protocol = DecayProtocol::default();
        LaneProtocol::reset(&mut protocol, &g, &[5, 6, 7]);
        let view = LaneView {
            graph: &g,
            round: 0,
            live: 0b101,
            informed: &informed,
        };
        let mut transmit = [u64::MAX; 4];
        protocol.fill_transmitters(&view, &mut transmit);
        assert_eq!(transmit, [0b101, 0b001, 0b100, 0]);
    }

    #[test]
    fn completes_reasonably_fast_on_random_regular_graphs() {
        let g = wx_constructions::families::random_regular_graph(128, 6, 3).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..5).collect();
        let rounds: Vec<_> = run_lanes(&sim, &mut DecayProtocol::default(), &seeds)
            .iter()
            .filter_map(|o| o.completed_at)
            .collect();
        assert_eq!(rounds.len(), 5);
        // D = O(log n) here; decay should finish well within a few hundred rounds
        assert!(*rounds.iter().max().unwrap() < 500, "{rounds:?}");
    }
}
