//! The common solver interface, result type and the best-of portfolio.

use serde::{Deserialize, Serialize};
use wx_graph::{BipartiteGraph, VertexSet};

/// Identifies which algorithm produced a [`SpokesmanResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolverKind {
    /// Brute-force optimum over all subsets of `S`.
    Exact,
    /// The randomized decay-style sampler of Lemmas 4.2 / 4.3.
    RandomDecay,
    /// Procedure Partition (Appendix A.1.2) with the recursive refinement of
    /// Lemma A.13.
    Partition,
    /// The naive minimum-degree greedy procedure of Lemma A.1.
    GreedyMinDegree,
    /// The degree-class solver of Lemmas A.5–A.7.
    DegreeClass,
    /// The Chlamtac–Weinstein-style baseline achieving `|N|/log|S|`.
    ChlamtacWeinstein,
    /// The best result among a portfolio of solvers.
    Portfolio,
}

impl SolverKind {
    /// Every polynomial-time solver kind (the exact solver is excluded: it
    /// is exponential and only feasible for `|S| ≤ ExactSolver::MAX_LEFT`).
    pub const POLYNOMIAL: [SolverKind; 6] = [
        SolverKind::RandomDecay,
        SolverKind::Partition,
        SolverKind::GreedyMinDegree,
        SolverKind::DegreeClass,
        SolverKind::ChlamtacWeinstein,
        SolverKind::Portfolio,
    ];

    /// Parses a solver's display name (case-insensitive).
    pub fn parse(s: &str) -> Option<SolverKind> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Some(SolverKind::Exact),
            "random-decay" | "decay" => Some(SolverKind::RandomDecay),
            "partition" => Some(SolverKind::Partition),
            "greedy-min-degree" | "greedy" => Some(SolverKind::GreedyMinDegree),
            "degree-class" => Some(SolverKind::DegreeClass),
            "chlamtac-weinstein" => Some(SolverKind::ChlamtacWeinstein),
            "portfolio" => Some(SolverKind::Portfolio),
            _ => None,
        }
    }

    /// Builds a default-configured instance of the solver this kind names —
    /// the by-name factory declarative callers (scenario specs, CLI flags)
    /// use. Note [`SolverKind::Exact`] yields the exponential brute-force
    /// solver, which panics on instances with more than
    /// [`crate::ExactSolver::MAX_LEFT`] left vertices.
    pub fn build(self) -> Box<dyn SpokesmanSolver + Send + Sync> {
        match self {
            SolverKind::Exact => Box::new(crate::exact::ExactSolver),
            SolverKind::RandomDecay => Box::new(crate::random_decay::RandomDecaySolver),
            SolverKind::Partition => Box::new(crate::partition::PartitionSolver::default()),
            SolverKind::GreedyMinDegree => Box::new(crate::greedy::GreedyMinDegreeSolver),
            SolverKind::DegreeClass => Box::new(crate::degree_class::DegreeClassSolver),
            SolverKind::ChlamtacWeinstein => {
                Box::new(crate::chlamtac_weinstein::ChlamtacWeinsteinSolver)
            }
            SolverKind::Portfolio => Box::new(PortfolioSolver::default()),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SolverKind::Exact => "exact",
            SolverKind::RandomDecay => "random-decay",
            SolverKind::Partition => "partition",
            SolverKind::GreedyMinDegree => "greedy-min-degree",
            SolverKind::DegreeClass => "degree-class",
            SolverKind::ChlamtacWeinstein => "chlamtac-weinstein",
            SolverKind::Portfolio => "portfolio",
        };
        write!(f, "{name}")
    }
}

/// The outcome of a spokesman-election solve: a subset `S' ⊆ S` and the size
/// of its `S`-excluding unique neighborhood `|Γ¹_S(S')|`.
#[derive(Clone, Debug)]
pub struct SpokesmanResult {
    /// Which solver produced this result.
    pub solver: SolverKind,
    /// The chosen subset of the left side (indices into `0..g.num_left()`).
    pub subset: VertexSet,
    /// `|Γ¹_S(S')|`: number of right vertices with exactly one neighbor in
    /// the subset.
    pub unique_coverage: usize,
}

impl SpokesmanResult {
    /// Builds a result from a subset, computing its unique coverage.
    pub fn from_subset(solver: SolverKind, g: &BipartiteGraph, subset: VertexSet) -> Self {
        let unique_coverage = g.unique_coverage(&subset);
        SpokesmanResult {
            solver,
            subset,
            unique_coverage,
        }
    }

    /// The achieved fraction of `N` that is uniquely covered,
    /// `|Γ¹_S(S')| / |N|` (0.0 when `N` is empty).
    pub fn coverage_fraction(&self, g: &BipartiteGraph) -> f64 {
        if g.num_right() == 0 {
            0.0
        } else {
            self.unique_coverage as f64 / g.num_right() as f64
        }
    }

    /// The wireless-expansion certificate this result provides for the
    /// underlying set `S`: `|Γ¹_S(S')| / |S|` (infinity when `S` is empty).
    pub fn expansion_certificate(&self, g: &BipartiteGraph) -> f64 {
        if g.num_left() == 0 {
            f64::INFINITY
        } else {
            self.unique_coverage as f64 / g.num_left() as f64
        }
    }

    /// Returns whichever of two results has the larger unique coverage
    /// (ties keep `self`).
    pub fn better_of(self, other: SpokesmanResult) -> SpokesmanResult {
        if other.unique_coverage > self.unique_coverage {
            other
        } else {
            self
        }
    }
}

/// The common interface implemented by every spokesman-election algorithm.
pub trait SpokesmanSolver {
    /// Computes a subset `S' ⊆ S` of the left side of `g` together with its
    /// unique coverage. `seed` drives any internal randomness; deterministic
    /// solvers ignore it.
    fn solve(&self, g: &BipartiteGraph, seed: u64) -> SpokesmanResult;
}

/// Runs several solvers and keeps the best result.
///
/// The default portfolio contains every polynomial-time solver in this crate
/// (the exact solver is excluded because it is exponential); it is the
/// recommended way to obtain a strong lower-bound certificate on the wireless
/// expansion of a set.
pub struct PortfolioSolver {
    solvers: Vec<Box<dyn SpokesmanSolver + Send + Sync>>,
}

impl Default for PortfolioSolver {
    fn default() -> Self {
        PortfolioSolver {
            solvers: vec![
                Box::new(crate::random_decay::RandomDecaySolver),
                Box::new(crate::partition::PartitionSolver::default()),
                Box::new(crate::greedy::GreedyMinDegreeSolver),
                Box::new(crate::degree_class::DegreeClassSolver),
                Box::new(crate::chlamtac_weinstein::ChlamtacWeinsteinSolver),
                // single-start polish: the portfolio already runs partition
                // and decay directly, so re-running them as local-search
                // starts (the multi-start default) would double their cost
                Box::new(crate::local_search::LocalSearchSolver::wrapping(Box::new(
                    crate::greedy::GreedyMinDegreeSolver,
                ))),
            ],
        }
    }
}

impl PortfolioSolver {
    /// A cheap portfolio (greedy + partition only) for inner loops where the
    /// randomized solvers would dominate runtime.
    pub fn fast() -> Self {
        PortfolioSolver {
            solvers: vec![
                Box::new(crate::partition::PartitionSolver::default()),
                Box::new(crate::greedy::GreedyMinDegreeSolver),
            ],
        }
    }

    /// Number of solvers in the portfolio.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// `true` if the portfolio contains no solvers.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }

    /// Runs every solver and returns all results (in portfolio order).
    pub fn solve_all(&self, g: &BipartiteGraph, seed: u64) -> Vec<SpokesmanResult> {
        self.solvers
            .iter()
            .enumerate()
            .map(|(i, s)| s.solve(g, wx_graph::random::derive_seed(seed, i as u64)))
            .collect()
    }
}

impl SpokesmanSolver for PortfolioSolver {
    fn solve(&self, g: &BipartiteGraph, seed: u64) -> SpokesmanResult {
        let _span = wx_trace::span("spokesman.portfolio");
        let mut best: Option<SpokesmanResult> = None;
        for r in self.solve_all(g, seed) {
            best = Some(match best {
                None => r,
                Some(b) => b.better_of(r),
            });
        }
        let mut best = best.unwrap_or_else(|| {
            SpokesmanResult::from_subset(SolverKind::Portfolio, g, VertexSet::empty(g.num_left()))
        });
        best.solver = SolverKind::Portfolio;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::GraphView;

    /// Solves for `s` inside `g` through the bipartite view `G_S`, with the
    /// subset translated back to `g`'s vertex ids.
    fn solve_in<G: GraphView + ?Sized>(
        solver: &dyn SpokesmanSolver,
        g: &G,
        s: &VertexSet,
        seed: u64,
    ) -> SpokesmanResult {
        let (bip, left_ids, _) = BipartiteGraph::from_set_in_graph(g, s);
        let mut result = solver.solve(&bip, seed);
        result.subset =
            VertexSet::from_iter(g.num_vertices(), result.subset.iter().map(|i| left_ids[i]));
        result
    }

    fn star_instance() -> BipartiteGraph {
        // one left vertex connected to 4 right vertices
        BipartiteGraph::from_edges(1, 4, (0..4).map(|w| (0, w))).unwrap()
    }

    #[test]
    fn result_from_subset_computes_coverage() {
        let g = star_instance();
        let r = SpokesmanResult::from_subset(SolverKind::Exact, &g, VertexSet::from_iter(1, [0]));
        assert_eq!(r.unique_coverage, 4);
        assert!((r.coverage_fraction(&g) - 1.0).abs() < 1e-12);
        assert!((r.expansion_certificate(&g) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn better_of_prefers_larger_coverage() {
        let g = star_instance();
        let empty = SpokesmanResult::from_subset(SolverKind::Exact, &g, VertexSet::empty(1));
        let full =
            SpokesmanResult::from_subset(SolverKind::Exact, &g, VertexSet::from_iter(1, [0]));
        assert_eq!(empty.clone().better_of(full.clone()).unique_coverage, 4);
        assert_eq!(full.clone().better_of(empty).unique_coverage, 4);
    }

    #[test]
    fn portfolio_runs_and_labels_result() {
        let g = star_instance();
        let p = PortfolioSolver::default();
        assert!(!p.is_empty());
        let r = p.solve(&g, 1);
        assert_eq!(r.solver, SolverKind::Portfolio);
        assert_eq!(r.unique_coverage, 4);
        let all = p.solve_all(&g, 1);
        assert_eq!(all.len(), p.len());
    }

    #[test]
    fn fast_portfolio_is_smaller() {
        assert!(PortfolioSolver::fast().len() < PortfolioSolver::default().len());
    }

    #[test]
    fn solver_kind_display_names() {
        assert_eq!(SolverKind::RandomDecay.to_string(), "random-decay");
        assert_eq!(SolverKind::Partition.to_string(), "partition");
        assert_eq!(SolverKind::Exact.to_string(), "exact");
    }

    #[test]
    fn solver_kind_parse_and_build_round_trip() {
        let g = star_instance();
        for kind in SolverKind::POLYNOMIAL {
            assert_eq!(SolverKind::parse(&kind.to_string()), Some(kind));
            let r = kind.build().solve(&g, 3);
            assert_eq!(r.solver, kind);
            assert_eq!(r.unique_coverage, 4, "{kind} missed the star optimum");
        }
        assert_eq!(SolverKind::parse("exact"), Some(SolverKind::Exact));
        assert_eq!(SolverKind::Exact.build().solve(&g, 0).unique_coverage, 4);
        assert!(SolverKind::parse("simulated-annealing").is_none());
    }

    #[test]
    fn traced_solves_record_one_span_per_solver() {
        // Own the process-global tracer for the whole record+drain window.
        let _session = wx_trace::exclusive();
        let _ = wx_trace::take_trace();
        wx_trace::enable();
        let g = star_instance();
        for kind in SolverKind::POLYNOMIAL {
            kind.build().solve(&g, 5);
        }
        SolverKind::Exact.build().solve(&g, 5);
        let s = VertexSet::from_iter(4, [0, 1]);
        let path = wx_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        solve_in(&crate::greedy::GreedyMinDegreeSolver, &path, &s, 5);
        wx_trace::disable();
        let trace = wx_trace::take_trace();
        for (kind, span) in [
            (SolverKind::RandomDecay, "spokesman.random_decay"),
            (SolverKind::Partition, "spokesman.partition"),
            (SolverKind::GreedyMinDegree, "spokesman.greedy"),
            (SolverKind::DegreeClass, "spokesman.degree_class"),
            (
                SolverKind::ChlamtacWeinstein,
                "spokesman.chlamtac_weinstein",
            ),
            (SolverKind::Portfolio, "spokesman.portfolio"),
            (SolverKind::Exact, "spokesman.exact"),
        ] {
            assert!(trace.phase_count(span) >= 1, "{kind} recorded no `{span}`");
        }
        assert!(trace.phase_count("graph.bipartite_view") >= 1);
    }

    #[test]
    fn solve_in_graph_accepts_any_backend() {
        use wx_graph::view::{
            materialize, ImplicitFamily, ImplicitGraph, SubgraphView, SubsetIndex,
        };
        use wx_graph::Graph;

        // C_12^2 as an implicit backend vs its CSR materialization: greedy
        // and local-search must certify the same unique coverage on both.
        let implicit = ImplicitGraph::new(ImplicitFamily::CyclePower { n: 12, power: 2 }).unwrap();
        let csr: Graph = materialize(&implicit);
        let s = VertexSet::from_iter(12, [0, 1, 2, 3]);
        let greedy = crate::greedy::GreedyMinDegreeSolver;
        let polish = crate::local_search::LocalSearchSolver::default();
        let a = solve_in(&greedy, &implicit, &s, 3);
        let b = solve_in(&greedy, &csr, &s, 3);
        assert_eq!(a.unique_coverage, b.unique_coverage);
        assert!(a.subset.iter().all(|v| s.contains(v)), "original-id subset");
        let a = solve_in(&polish, &implicit, &s, 3);
        let b = solve_in(&polish, &csr, &s, 3);
        assert_eq!(a.unique_coverage, b.unique_coverage);

        // and on a zero-copy induced view of a larger graph
        let big = materialize(
            &ImplicitGraph::new(ImplicitFamily::CyclePower { n: 30, power: 2 }).unwrap(),
        );
        let keep = SubsetIndex::new(VertexSet::from_iter(30, 0..15));
        let view = SubgraphView::new(&big, &keep);
        let s_local = VertexSet::from_iter(view.num_vertices(), [2, 3, 4]);
        let (mat, _) = big.induced_subgraph(keep.set());
        let on_view = solve_in(&greedy, &view, &s_local, 9);
        let on_mat = solve_in(&greedy, &mat, &s_local, 9);
        assert_eq!(on_view.unique_coverage, on_mat.unique_coverage);
        assert_eq!(on_view.subset.to_vec(), on_mat.subset.to_vec());
    }

    #[test]
    fn coverage_fraction_of_empty_right_side() {
        let g = BipartiteGraph::from_edges(1, 0, []).unwrap();
        let r = SpokesmanResult::from_subset(SolverKind::Exact, &g, VertexSet::from_iter(1, [0]));
        assert_eq!(r.coverage_fraction(&g), 0.0);
    }
}
