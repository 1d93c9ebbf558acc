//! Broadcast protocols for the radio collision model.
//!
//! | Protocol | Knowledge | Paper role |
//! |----------|-----------|------------|
//! | [`naive::NaiveFlooding`] | local | the strawman the introduction rules out (stalls on `C⁺`) |
//! | [`round_robin::RoundRobin`] | ids + `n` | slow but collision-free deterministic baseline |
//! | [`decay::DecayProtocol`] | `n` | the Bar-Yehuda–Goldreich–Itai decay protocol \[5\], the classical `O(D·log n + log² n)`-style randomized broadcast |
//! | [`spokesman::SpokesmanBroadcast`] | centralized | transmits from the subset a Spokesman-Election solver picks — the algorithmic content of wireless expansion (and of the Chlamtac–Weinstein broadcast framework \[7\]) |

pub mod decay;
pub mod naive;
pub mod round_robin;
pub mod spokesman;

use crate::bitslice::LaneProtocol;
use serde::{Deserialize, Serialize};
use wx_graph::{GraphView, VertexSet};

/// Identifies a protocol in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Every informed vertex transmits every round.
    NaiveFlooding,
    /// Vertex `v` transmits only in rounds `≡ v (mod n)`.
    RoundRobin,
    /// The randomized decay protocol.
    Decay,
    /// Centralized spokesman-schedule broadcast.
    Spokesman,
}

impl ProtocolKind {
    /// Every protocol kind, in the module table's order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::NaiveFlooding,
        ProtocolKind::RoundRobin,
        ProtocolKind::Decay,
        ProtocolKind::Spokesman,
    ];

    /// The short name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::NaiveFlooding => "naive-flooding",
            ProtocolKind::RoundRobin => "round-robin",
            ProtocolKind::Decay => "decay",
            ProtocolKind::Spokesman => "spokesman",
        }
    }

    /// Parses a [`ProtocolKind::name`] string (case-insensitive; also
    /// accepts the bare aliases `naive` and `flooding`).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s.to_ascii_lowercase().as_str() {
            "naive-flooding" | "naive" | "flooding" => Some(ProtocolKind::NaiveFlooding),
            "round-robin" | "roundrobin" => Some(ProtocolKind::RoundRobin),
            "decay" => Some(ProtocolKind::Decay),
            "spokesman" | "spokesman-schedule" => Some(ProtocolKind::Spokesman),
            _ => None,
        }
    }

    /// Builds a fresh default-configured instance of this protocol — the
    /// by-name factory declarative callers (scenario specs, CLI flags) use.
    /// Generic over the graph backend the protocol will run on (inferred
    /// from the simulator; defaults to the CSR [`wx_graph::Graph`]).
    pub fn build<G: GraphView + ?Sized>(self) -> Box<dyn LaneProtocol<G>> {
        match self {
            ProtocolKind::NaiveFlooding => Box::new(naive::NaiveFlooding),
            ProtocolKind::RoundRobin => Box::new(round_robin::RoundRobin),
            ProtocolKind::Decay => Box::new(decay::DecayProtocol::default()),
            ProtocolKind::Spokesman => Box::new(spokesman::SpokesmanBroadcast),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The informed vertices that still have at least one uninformed neighbor
/// (transmitting from anywhere else is pointless).
pub(crate) fn useful_transmitters<G: GraphView + ?Sized>(
    graph: &G,
    informed: &VertexSet,
) -> VertexSet {
    VertexSet::from_iter(
        graph.num_vertices(),
        informed
            .iter()
            .filter(|&v| graph.neighbors_iter(v).any(|u| !informed.contains(u))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::run_lanes;
    use crate::simulator::{RadioSimulator, SimulatorConfig};
    use wx_graph::Graph;

    #[test]
    fn useful_transmitters_excludes_interior_vertices() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let informed = g.vertex_set([0, 1, 2]);
        // only vertex 2 has an uninformed neighbor (3)
        assert_eq!(useful_transmitters(&g, &informed).to_vec(), vec![2]);
    }

    #[test]
    fn all_protocols_complete_on_a_small_tree() {
        let g = wx_constructions::families::complete_k_ary_tree(2, 4).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        for kind in ProtocolKind::ALL {
            let outcome = run_lanes(&sim, &mut *kind.build(), &[42])[0];
            assert!(
                outcome.completed_at.is_some(),
                "{kind} did not complete on the binary tree"
            );
        }
    }

    #[test]
    fn protocol_kind_parse_round_trips() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            ProtocolKind::parse("naive"),
            Some(ProtocolKind::NaiveFlooding)
        );
        assert_eq!(
            ProtocolKind::parse("spokesman-schedule"),
            Some(ProtocolKind::Spokesman)
        );
        assert!(ProtocolKind::parse("carrier-pigeon").is_none());
    }
}
