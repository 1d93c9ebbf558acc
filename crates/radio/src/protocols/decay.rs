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
/// Per round it builds the eligibility matrix (informed ∧ live) and the
/// wanted matrix (eligible ∧ open), transposes both 64×64-tile by tile into
/// per-lane vertex masks, and asks each lane's RNG for its Bernoulli
/// decisions in one bulk call that deposits straight into the mask
/// positions. Each call consumes exactly one draw per eligible vertex in
/// ascending vertex order, the stream of one `gen_bool(2^{-i})` per
/// informed vertex, but computes only the draws of wanted vertices: an
/// eligible vertex that is not open transmits to no effect, so its decision
/// is left clear.
#[derive(Debug, Default)]
pub struct DecayProtocol {
    rngs: Vec<WxRng>,
    lanes: usize,
    tiles: usize,
    /// Per-lane eligibility masks, `[lane][tile]` flattened.
    lane_masks: Vec<u64>,
    /// Per-lane wanted masks (eligible and open) aligned with `lane_masks`.
    lane_wanted: Vec<u64>,
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
        self.lane_wanted.resize(self.lanes * self.tiles, 0);
        self.lane_out.resize(self.lanes * self.tiles, 0);
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        let n = view.graph.num_vertices();
        let i = view.round % phase_length(n);
        let p = 0.5f64.powi(i as i32);
        let tiles = self.tiles;

        // Eligibility and wanted matrices → per-lane vertex masks, one
        // transposed 64×64 bit tile each per vertex tile.
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut wanted = [0u64; 64];
            let words = view.informed[base..base + height]
                .iter()
                .zip(&view.open[base..base + height]);
            for ((word, want), (&informed, &open)) in tile.iter_mut().zip(&mut wanted).zip(words) {
                *word = informed & view.live;
                *want = *word & open;
            }
            lane_rows(&mut tile, self.lanes, &mut self.lane_masks[t..], tiles);
            lane_rows(&mut wanted, self.lanes, &mut self.lane_wanted[t..], tiles);
        }

        // One bulk Bernoulli call per lane: deposits each wanted decision
        // onto its vertex, consuming exactly one draw per eligible vertex in
        // ascending vertex order.
        for l in 0..self.lanes {
            let (from, to) = (l * tiles, (l + 1) * tiles);
            self.rngs[l].fill_masked_decision_bits(
                p,
                &self.lane_masks[from..to],
                &self.lane_wanted[from..to],
                &mut self.scratch,
                &mut self.lane_out[from..to],
            );
        }

        // Per-lane decisions → lane-major transmitter words (the inverse
        // transpose).
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut rows = [0u64; 64];
            for (l, row) in rows.iter_mut().enumerate().take(self.lanes) {
                *row = self.lane_out[l * tiles + t];
            }
            vertex_words(&mut rows, self.lanes, &mut transmit[base..base + height]);
        }
    }
}

/// Batches of at most this many lanes move single bits between a tile and
/// its lane rows; wider ones run the whole 64×64 transpose.
const NARROW_LANES: usize = 4;

/// Writes row `l` of the transposed `tile` (bit `l` of each of its 64
/// words, in word order) to `rows[l * stride]` for every lane `l < lanes`.
/// An all-zero tile, or one whose words are all equal, needs no transpose.
fn lane_rows(tile: &mut [u64; 64], lanes: usize, rows: &mut [u64], stride: usize) {
    let (any, all) = tile
        .iter()
        .fold((0, u64::MAX), |(any, all), &w| (any | w, all & w));
    if any == all {
        for l in 0..lanes {
            rows[l * stride] = 0u64.wrapping_sub(any >> l & 1);
        }
    } else if lanes <= NARROW_LANES {
        for l in 0..lanes {
            rows[l * stride] = tile
                .iter()
                .enumerate()
                .fold(0, |row, (i, &w)| row | (w >> l & 1) << i);
        }
    } else {
        transpose64(tile);
        for l in 0..lanes {
            rows[l * stride] = tile[l];
        }
    }
}

/// The inverse of [`lane_rows`]: word `i` of `words` gets bit `i` of each
/// of the first `lanes` rows (the others are zero) as its lane bits.
fn vertex_words(rows: &mut [u64; 64], lanes: usize, words: &mut [u64]) {
    if rows[..lanes].iter().all(|&r| r == 0) {
        words.iter_mut().for_each(|w| *w = 0);
    } else if lanes <= NARROW_LANES {
        for (i, word) in words.iter_mut().enumerate() {
            *word = rows[..lanes]
                .iter()
                .enumerate()
                .fold(0, |word, (l, &r)| word | (r >> i & 1) << l);
        }
    } else {
        transpose64(rows);
        words.copy_from_slice(&rows[..words.len()]);
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
            open: &[u64::MAX; 4],
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
