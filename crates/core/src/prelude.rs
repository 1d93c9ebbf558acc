//! The convenience prelude: `use wx_core::prelude::*;`.

pub use crate::report::{render_table, TableRow};

pub use wx_graph::{
    BipartiteBuilder, BipartiteGraph, Graph, GraphBuilder, GraphError, GraphView, ImplicitFamily,
    ImplicitGraph, SubgraphView, Vertex, VertexSet,
};

pub use wx_expansion::{
    engine::{
        ExpansionMeasure, ExpansionTriple, Measurement, MeasurementEngine,
        MeasurementEngineBuilder, NotionKind, Ordinary, UniqueNeighbor, Wireless,
    },
    sampling::{CandidateSets, SamplerConfig},
};

pub use wx_spokesman::{
    ChlamtacWeinsteinSolver, DegreeClassSolver, ExactSolver, GreedyMinDegreeSolver,
    PartitionSolver, PortfolioSolver, RandomDecaySolver, SolverKind, SpokesmanResult,
    SpokesmanSolver,
};

pub use wx_constructions::{
    families::{
        complete_k_ary_tree, complete_plus_graph, grid_graph, hypercube_graph, margulis_graph,
        random_left_regular_bipartite, random_regular_graph, random_tree, torus_graph,
    },
    BadUniqueExpander, BroadcastChain, CoreGraph, GeneralizedCoreGraph, WorstCaseExpander,
};

pub use wx_radio::{
    protocols::{
        decay::DecayProtocol, naive::NaiveFlooding, round_robin::RoundRobin,
        spokesman::SpokesmanBroadcast,
    },
    LaneProtocol, RadioSimulator, SimulatorConfig,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_compiles_and_names_resolve() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        let _engine = MeasurementEngine::builder().sampler(SamplerConfig::light());
        let _solver = PortfolioSolver::default();
        let _proto = DecayProtocol::default();
        let core = CoreGraph::new(4).unwrap();
        assert_eq!(core.graph.num_left(), 4);
    }
}
