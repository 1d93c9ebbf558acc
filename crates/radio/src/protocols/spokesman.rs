//! Centralized spokesman-schedule broadcast.
//!
//! This protocol is the algorithmic payoff of wireless expansion: in every
//! round, take the current informed set `S`, build the bipartite view
//! `(S, Γ⁻(S))`, run the fast spokesman portfolio
//! ([`PortfolioSolver::fast`]: Procedure Partition and the minimum-degree
//! greedy) to pick the subset `S' ⊆ S` with (approximately) maximum unique
//! coverage, and have exactly `S'` transmit. If the network is an `(αw, βw)`-wireless expander, every
//! such round informs at least `βw·|S|` new vertices while `|S| ≤ αw·n`, so
//! the informed set grows geometrically — this is the broadcast framework of
//! Chlamtac–Weinstein \[7\] with the paper's improved spokesman bounds plugged
//! in.
//!
//! The schedule is *centralized* (it needs the topology); it serves as the
//! algorithmic upper bound the distributed decay protocol is compared
//! against, and as the optimal-schedule adversary in the Section-5
//! lower-bound experiment (even this schedule cannot beat `Ω(D·log(n/D))` on
//! the broadcast chain).

use crate::bitslice::{LaneProtocol, LaneView};
use wx_graph::{BipartiteGraph, GraphView, VertexSet};
use wx_spokesman::{PortfolioSolver, SpokesmanSolver};

/// Centralized spokesman-schedule broadcast protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpokesmanBroadcast;

impl<G: GraphView + ?Sized> LaneProtocol<G> for SpokesmanBroadcast {
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        // The schedule is deterministic, so every live lane holds the same
        // informed set: solve once, on the lowest live lane's.
        let lane = view.live.trailing_zeros();
        let n = view.graph.num_vertices();
        let informed =
            VertexSet::from_iter(n, (0..n).filter(|&v| view.informed[v] >> lane & 1 == 1));
        let chosen = transmitters(view.graph, &informed, view.round);
        // Every word is rewritten, which also clears last round's choice.
        for (v, word) in transmit.iter_mut().enumerate() {
            *word = if chosen.contains(v) { view.live } else { 0 };
        }
    }
}

/// The vertices that transmit in round `round` when `informed` holds the
/// message: the fast portfolio's choice on the informed vertices that still
/// have an uninformed neighbor, or no vertex once none has.
pub(crate) fn transmitters<G: GraphView + ?Sized>(
    graph: &G,
    informed: &VertexSet,
    round: usize,
) -> VertexSet {
    let mut out = VertexSet::empty(graph.num_vertices());
    // Frontier-only optimization: restrict S to informed vertices with at
    // least one uninformed neighbor. Their S-excluding unique coverage is
    // unaffected (interior vertices contribute no external edges) and the
    // spokesman instance shrinks dramatically on large graphs.
    let frontier = crate::protocols::useful_transmitters(graph, informed);
    let Some(first) = frontier.iter().next() else {
        return out;
    };
    let (bip, left_ids, _right_ids) = BipartiteGraph::from_set_in_graph(graph, informed);
    // Map the frontier into the bipartite instance's left indices and
    // restrict to it.
    let mut keep = VertexSet::empty(bip.num_left());
    for (i, &orig) in left_ids.iter().enumerate() {
        if frontier.contains(orig) {
            keep.insert(i);
        }
    }
    let (restricted, kept_left, _) = bip.restrict_left(&keep);
    let seed = wx_graph::random::derive_seed(0xB40ADCA57, round as u64);
    let result = PortfolioSolver::fast().solve(&restricted, seed);
    // Translate back: restricted index -> bipartite left index (via
    // `kept_left`) -> original vertex id (via `left_ids`).
    for local in result.subset.iter() {
        out.insert(left_ids[kept_left[local]]);
    }
    // Never return an empty transmitter set while uninformed neighbors
    // remain (could happen if the solver finds zero unique coverage):
    // fall back to a single frontier vertex, which always informs
    // someone... unless that someone has other informed neighbors — in
    // which case any single transmitter is still the safest fallback.
    if out.is_empty() {
        out.insert(first);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::run_lanes;
    use crate::protocols::decay::DecayProtocol;
    use crate::protocols::naive::NaiveFlooding;
    use crate::simulator::{RadioSimulator, SimulatorConfig};

    #[test]
    fn completes_on_c_plus_in_a_few_rounds() {
        let (g, src) = wx_constructions::families::complete_plus_graph(12).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let outcome = run_lanes(&sim, &mut SpokesmanBroadcast, &[1])[0];
        assert!(outcome.completed_at.is_some());
        assert!(
            outcome.completed_at.unwrap() <= 4,
            "spokesman schedule took {} rounds on C⁺",
            outcome.completed_at.unwrap()
        );
        // while naive flooding never completes
        assert_eq!(
            run_lanes(&sim, &mut NaiveFlooding, &[1])[0].completed_at,
            None
        );
    }

    #[test]
    fn beats_decay_on_expanders() {
        let g = wx_constructions::families::random_regular_graph(128, 6, 11).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let spokesman = run_lanes(&sim, &mut SpokesmanBroadcast, &[3])[0];
        let seeds: Vec<u64> = (0..5).collect();
        let decay_rounds: Vec<usize> = run_lanes(&sim, &mut DecayProtocol::default(), &seeds)
            .iter()
            .filter_map(|o| o.completed_at)
            .collect();
        assert!(spokesman.completed_at.is_some());
        assert!(!decay_rounds.is_empty());
        let decay_mean = decay_rounds.iter().sum::<usize>() as f64 / decay_rounds.len() as f64;
        assert!(
            (spokesman.completed_at.unwrap() as f64) <= decay_mean,
            "spokesman {} vs decay mean {}",
            spokesman.completed_at.unwrap(),
            decay_mean
        );
    }

    #[test]
    fn transmitters_are_always_informed_and_nonempty_while_incomplete() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let n = g.num_vertices();
        // lanes 1 and 2 are live and (the schedule being deterministic)
        // agree on {0, 1, src}; lane 0 has retired with a different state
        let mut informed = vec![0b001u64; n];
        for v in [0, 1, src] {
            informed[v] = 0b111;
        }
        let view = LaneView {
            graph: &g,
            round: 1,
            live: 0b110,
            informed: &informed,
            open: &vec![u64::MAX; n],
        };
        let mut transmit = vec![u64::MAX; n];
        SpokesmanBroadcast.fill_transmitters(&view, &mut transmit);
        let chosen: Vec<usize> = (0..n).filter(|&v| transmit[v] != 0).collect();
        assert!(chosen.iter().all(|&v| transmit[v] == 0b110));
        assert!(chosen.iter().all(|&v| [0, 1, src].contains(&v)));
        // on C⁺ the chosen subset must be a single clique vertex ({x} or {y})
        assert_eq!(chosen.len(), 1);
        assert!(chosen[0] == 0 || chosen[0] == 1);
    }
}
