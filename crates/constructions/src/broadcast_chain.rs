//! The Section 5 broadcast-lower-bound chain.
//!
//! To show that radio broadcast needs `Ω(D·log(n/D))` rounds, the paper takes
//! `D/2` copies `G¹_S, …, G^{D/2}_S` of the core graph (each on roughly
//! `n/D` vertices), connects a root `rt = rt₀` to all of `S¹`, samples a
//! random vertex `rt_i` from each `Nⁱ`, and connects `rt_i` to all of
//! `S^{i+1}`. The message must pass through every `rt_i` in order
//! (Observation 5.2), and by Corollary 5.1 each hop costs `Ω(log(n/D))`
//! rounds in expectation — the randomly planted relay is unlikely to be among
//! the few vertices any single transmission pattern can uniquely cover.
//!
//! [`BroadcastChain`] materializes the whole graph and records the special
//! vertices (the root, the per-stage relays, and the per-stage `S`/`N`
//! vertex ranges) so the radio-network experiments can measure per-hop and
//! total broadcast times.

use crate::core_graph::CoreGraph;
use rand::Rng;
use wx_graph::random::rng_from_seed;
use wx_graph::{Graph, GraphBuilder, GraphError, Result, Vertex, VertexSet};

/// One stage (copy of the core graph) in the chain.
#[derive(Clone, Debug)]
pub struct ChainStage {
    /// Vertex ids (in the chain graph) of this stage's `S` side.
    pub s_vertices: Vec<Vertex>,
    /// Vertex ids (in the chain graph) of this stage's `N` side.
    pub n_vertices: Vec<Vertex>,
    /// The relay `rt_i` sampled uniformly from `n_vertices`.
    pub relay: Vertex,
}

/// The Section 5 chain of core graphs.
#[derive(Clone, Debug)]
pub struct BroadcastChain {
    /// Core-graph leaf count `s` used for every stage.
    pub s: usize,
    /// Number of stages (`D/2` in the paper's notation).
    pub num_stages: usize,
    /// The broadcast source `rt₀`.
    pub root: Vertex,
    /// Per-stage bookkeeping.
    pub stages: Vec<ChainStage>,
    /// The complete chain graph.
    pub graph: Graph,
}

impl BroadcastChain {
    /// Builds a chain of `num_stages` core graphs with `s` leaves each; the
    /// per-stage relays are sampled with `seed`.
    pub fn new(s: usize, num_stages: usize, seed: u64) -> Result<Self> {
        if num_stages == 0 {
            return Err(GraphError::invalid("chain needs at least one stage"));
        }
        let core = CoreGraph::new(s)?;
        let per_stage_s = core.graph.num_left();
        let per_stage_n = core.graph.num_right();
        let per_stage = per_stage_s + per_stage_n;
        let total = 1 + num_stages * per_stage;
        let mut rng = rng_from_seed(seed);

        let mut b = GraphBuilder::new(total);
        let root: Vertex = 0;
        let mut stages = Vec::with_capacity(num_stages);
        for stage in 0..num_stages {
            let base = 1 + stage * per_stage;
            let s_vertices: Vec<Vertex> = (0..per_stage_s).map(|i| base + i).collect();
            let n_vertices: Vec<Vertex> =
                (0..per_stage_n).map(|i| base + per_stage_s + i).collect();
            // internal core-graph edges
            for (u, w) in core.graph.edges() {
                b.add_edge(s_vertices[u], n_vertices[w])?;
            }
            // connect the previous relay (or the root) to every vertex of S
            let prev: Vertex = if stage == 0 {
                root
            } else {
                let prev_stage: &ChainStage = &stages[stage - 1];
                prev_stage.relay
            };
            for &sv in &s_vertices {
                b.add_edge(prev, sv)?;
            }
            let relay = n_vertices[rng.gen_range(0..per_stage_n)];
            stages.push(ChainStage {
                s_vertices,
                n_vertices,
                relay,
            });
        }

        Ok(BroadcastChain {
            s,
            num_stages,
            root,
            stages,
            graph: b.build(),
        })
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The paper's diameter estimate for the chain: `D + 2` where
    /// `D = 2·num_stages` (each stage contributes a hop into `S` and a hop
    /// into `N`).
    pub fn nominal_diameter(&self) -> usize {
        2 * self.num_stages + 2
    }

    /// The Section-5 reference lower bound `num_stages·log₂(2s)/4` on the
    /// expected broadcast time (from Corollary 5.1: each relay hop needs at
    /// least `(log 2s)/4 + 1` rounds with constant probability).
    pub fn reference_lower_bound(&self) -> f64 {
        let log2s = (self.s.trailing_zeros() + 1) as f64;
        self.num_stages as f64 * log2s / 4.0
    }

    /// The set of relays, in order.
    pub fn relays(&self) -> Vec<Vertex> {
        self.stages.iter().map(|st| st.relay).collect()
    }

    /// The `S` side of stage `i` as a [`VertexSet`] over the chain graph.
    pub fn stage_s_set(&self, i: usize) -> VertexSet {
        VertexSet::from_iter(
            self.num_vertices(),
            self.stages[i].s_vertices.iter().copied(),
        )
    }

    /// The `N` side of stage `i` as a [`VertexSet`] over the chain graph.
    pub fn stage_n_set(&self, i: usize) -> VertexSet {
        VertexSet::from_iter(
            self.num_vertices(),
            self.stages[i].n_vertices.iter().copied(),
        )
    }

    /// Corollary 5.1 structural check: for any subset `S'` of stage `i`'s `S`
    /// side, the number of stage-`i` `N` vertices hearing a collision-free
    /// transmission is at most `2s`.
    pub fn verify_per_round_coverage_bound(
        &self,
        i: usize,
        subsets: &[VertexSet],
    ) -> std::result::Result<(), String> {
        let s_set = self.stage_s_set(i);
        let n_set = self.stage_n_set(i);
        for s_prime in subsets {
            if !s_prime.is_subset_of(&s_set) {
                return Err("subset is not contained in the stage's S side".to_string());
            }
            let uniq = wx_graph::neighborhood::s_excluding_unique_neighborhood(
                &self.graph,
                &s_set,
                s_prime,
            );
            let uniq_in_stage = uniq.intersection(&n_set).len();
            if uniq_in_stage > 2 * self.s {
                return Err(format!(
                    "stage {i}: {uniq_in_stage} uniquely covered N vertices exceeds 2s = {}",
                    2 * self.s
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wx_graph::GraphView;

    #[test]
    fn chain_shape() {
        let chain = BroadcastChain::new(8, 4, 1).unwrap();
        let per_stage = 8 + 8 * 4;
        assert_eq!(chain.num_vertices(), 1 + 4 * per_stage);
        assert_eq!(chain.stages.len(), 4);
        assert_eq!(chain.relays().len(), 4);
        // the root is adjacent to exactly the first stage's S side
        assert_eq!(chain.graph.degree(chain.root), 8);
        for &sv in &chain.stages[0].s_vertices {
            assert!(chain.graph.has_edge(chain.root, sv));
        }
    }

    #[test]
    fn relays_connect_consecutive_stages() {
        let chain = BroadcastChain::new(4, 3, 2).unwrap();
        for i in 0..2 {
            let relay = chain.stages[i].relay;
            assert!(chain.stages[i].n_vertices.contains(&relay));
            for &sv in &chain.stages[i + 1].s_vertices {
                assert!(
                    chain.graph.has_edge(relay, sv),
                    "relay {relay} not connected to stage {} vertex {sv}",
                    i + 1
                );
            }
        }
        // the last relay has no outgoing stage
        let last_relay = chain.stages[2].relay;
        let next_stage_start = chain.stages[2].n_vertices.last().unwrap() + 1;
        assert!(chain
            .graph
            .neighbors(last_relay)
            .iter()
            .all(|&v| v < next_stage_start));
    }

    #[test]
    fn diameter_close_to_nominal() {
        let chain = BroadcastChain::new(4, 3, 3).unwrap();
        let diam = wx_graph::traversal::diameter(&chain.graph).unwrap();
        let nominal = chain.nominal_diameter();
        assert!(
            diam <= nominal + 2 && diam + 4 >= nominal,
            "diameter {diam} vs nominal {nominal}"
        );
    }

    #[test]
    fn message_must_pass_through_relays_in_order() {
        // Observation 5.2: removing relay rt_i disconnects the root from
        // stage i+1.
        let chain = BroadcastChain::new(4, 3, 4).unwrap();
        let relay0 = chain.stages[0].relay;
        let keep = VertexSet::from_iter(
            chain.num_vertices(),
            (0..chain.num_vertices()).filter(|&v| v != relay0),
        );
        let (sub, map) = chain.graph.induced_subgraph(&keep);
        let root_new = map.iter().position(|&v| v == chain.root).unwrap();
        let target_old = chain.stages[1].s_vertices[0];
        let target_new = map.iter().position(|&v| v == target_old).unwrap();
        assert_eq!(
            wx_graph::traversal::bfs(&sub, root_new).dist[target_new],
            usize::MAX
        );
    }

    #[test]
    fn per_round_coverage_bound_holds() {
        let chain = BroadcastChain::new(8, 2, 5).unwrap();
        let s_set = chain.stage_s_set(0);
        let mut rng = wx_graph::random::rng_from_seed(11);
        let mut subsets = vec![s_set.clone()];
        for _ in 0..20 {
            let k = rng.gen_range(1..=8);
            let members: Vec<usize> = s_set.to_vec();
            let chosen = wx_graph::random::random_subset_of_size(&mut rng, members.len(), k);
            subsets.push(VertexSet::from_iter(
                chain.num_vertices(),
                chosen.iter().map(|i| members[i]),
            ));
        }
        chain.verify_per_round_coverage_bound(0, &subsets).unwrap();
    }

    #[test]
    fn reference_lower_bound_grows_with_stages_and_size() {
        let a = BroadcastChain::new(8, 2, 1)
            .unwrap()
            .reference_lower_bound();
        let b = BroadcastChain::new(8, 8, 1)
            .unwrap()
            .reference_lower_bound();
        let c = BroadcastChain::new(64, 2, 1)
            .unwrap()
            .reference_lower_bound();
        assert!(b > a);
        assert!(c > a);
    }

    #[test]
    fn parameter_validation_and_determinism() {
        assert!(BroadcastChain::new(8, 0, 0).is_err());
        assert!(BroadcastChain::new(6, 2, 0).is_err()); // s not a power of two
        let x = BroadcastChain::new(4, 2, 9).unwrap();
        let y = BroadcastChain::new(4, 2, 9).unwrap();
        assert_eq!(x.relays(), y.relays());
    }
}
