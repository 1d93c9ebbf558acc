//! Property-based tests for the Spokesman Election solvers: validity of the
//! returned subsets, honesty of the reported coverage, and the exact solver
//! as ground truth on tiny instances.

use proptest::prelude::*;
use wx_graph::{BipartiteGraph, VertexSet};
use wx_spokesman::{
    ChlamtacWeinsteinSolver, CoverageTracker, DegreeClassSolver, ExactSolver,
    GreedyMinDegreeSolver, LocalSearchSolver, PartitionSolver, PortfolioSolver, RandomDecaySolver,
    SolverKind, SpokesmanSolver,
};

fn bipartite(s: usize, n: usize) -> impl Strategy<Value = BipartiteGraph> {
    prop::collection::vec((0..s, 0..n), 0..(s * n / 2).max(1))
        .prop_map(move |edges| BipartiteGraph::from_edges(s, n, edges).expect("edges are in range"))
}

fn all_solvers() -> Vec<Box<dyn SpokesmanSolver>> {
    vec![
        Box::new(ExactSolver),
        Box::new(RandomDecaySolver),
        Box::new(PartitionSolver::default()),
        Box::new(PartitionSolver::low_degree_once()),
        Box::new(GreedyMinDegreeSolver),
        Box::new(DegreeClassSolver),
        Box::new(ChlamtacWeinsteinSolver),
        Box::new(LocalSearchSolver::default()),
        Box::new(PortfolioSolver::fast()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every solver returns a valid subset with honestly computed coverage
    /// that never exceeds the exact optimum, and the optimum itself never
    /// exceeds the number of non-isolated right vertices.
    #[test]
    fn solvers_are_sound_against_the_exact_optimum(g in bipartite(8, 14), seed in 0u64..1000) {
        let (opt, witness) = ExactSolver::optimum(&g);
        prop_assert_eq!(g.unique_coverage(&witness), opt);
        let coverable = (0..g.num_right()).filter(|&w| g.right_degree(w) > 0).count();
        prop_assert!(opt <= coverable);
        for solver in all_solvers() {
            let r = solver.solve(&g, seed);
            prop_assert!(r.subset.iter().all(|u| u < g.num_left()));
            prop_assert_eq!(r.unique_coverage, g.unique_coverage(&r.subset));
            prop_assert!(r.unique_coverage <= opt,
                "{} exceeded the optimum", r.solver);
        }
    }

    /// Determinism: the deterministic solvers ignore the seed entirely; every
    /// polynomial solver, the randomized ones included, returns the same
    /// subset for a fixed seed.
    #[test]
    fn determinism_contract(g in bipartite(7, 12), seed in 0u64..500) {
        for solver in [&GreedyMinDegreeSolver as &dyn SpokesmanSolver,
                       &PartitionSolver::default(),
                       &PartitionSolver::low_degree_once()] {
            let a = solver.solve(&g, seed);
            let b = solver.solve(&g, seed.wrapping_add(17));
            prop_assert_eq!(a.subset.to_vec(), b.subset.to_vec(),
                "{} is supposed to ignore the seed", a.solver);
        }
        for kind in SolverKind::POLYNOMIAL {
            let solver = kind.build();
            let a = solver.solve(&g, seed);
            let b = solver.solve(&g, seed);
            prop_assert_eq!(a.subset.to_vec(), b.subset.to_vec(),
                "{} is not reproducible for a fixed seed", kind);
        }
    }

    /// Monotonicity of the objective itself: adding isolated right vertices
    /// changes nothing; duplicating a right vertex cannot reduce optimal
    /// coverage.
    #[test]
    fn objective_is_stable_under_padding(g in bipartite(6, 10)) {
        let (opt, _) = ExactSolver::optimum(&g);
        // pad with isolated right vertices
        let padded = BipartiteGraph::from_edges(
            g.num_left(),
            g.num_right() + 3,
            g.edges(),
        ).unwrap();
        prop_assert_eq!(ExactSolver::optimum(&padded).0, opt);
        // duplicate right vertex 0 (if it exists): optimum cannot drop
        if g.num_right() > 0 {
            let dup_id = g.num_right();
            let mut edges: Vec<(usize, usize)> = g.edges().collect();
            for &u in g.right_neighbors(0) {
                edges.push((u, dup_id));
            }
            let dup = BipartiteGraph::from_edges(g.num_left(), g.num_right() + 1, edges).unwrap();
            prop_assert!(ExactSolver::optimum(&dup).0 >= opt);
        }
    }

    /// Incremental-delta consistency: over an arbitrary move sequence, the
    /// local-search [`CoverageTracker`]'s O(deg v) delta evaluation and its
    /// maintained coverage agree with a full re-measurement
    /// (`BipartiteGraph::unique_coverage`) after every single flip.
    #[test]
    fn delta_evaluation_agrees_with_full_remeasurement(
        g in bipartite(9, 15),
        moves in prop::collection::vec(0usize..9, 1..60),
        start in prop::collection::btree_set(0usize..9, 0..9),
    ) {
        let start_set = VertexSet::from_iter(g.num_left(), start.iter().copied());
        let mut tracker = CoverageTracker::new(&g, &start_set);
        prop_assert_eq!(tracker.coverage(), g.unique_coverage(&start_set));
        // the subset the moves describe, kept independently of the tracker
        let mut chosen = start_set.clone();
        for &u in &moves {
            let was_chosen = tracker.contains(u);
            let before = tracker.coverage() as i64;
            let predicted = tracker.flip_delta(u);
            let applied = tracker.flip(u);
            prop_assert_eq!(predicted, applied);
            prop_assert_eq!(tracker.contains(u), !was_chosen);
            if !chosen.insert(u) {
                chosen.remove(u);
            }
            // the maintained coverage matches a from-scratch re-measurement
            let full = g.unique_coverage(&chosen);
            prop_assert_eq!(tracker.coverage(), full,
                "delta path drifted from full re-measurement after flipping {u}");
            prop_assert_eq!(before + applied, full as i64);
        }
    }

    /// The Lemma A.13 guarantee holds for the recursive partition solver on
    /// arbitrary random instances (not just the structured ones in the unit
    /// tests).
    #[test]
    fn partition_meets_lemma_a13_on_arbitrary_instances(g in bipartite(10, 18), seed in 0u64..100) {
        let gamma = (0..g.num_right()).filter(|&w| g.right_degree(w) > 0).count();
        if gamma == 0 {
            return Ok(());
        }
        let delta_n = g.num_edges() as f64 / gamma as f64;
        let guarantee = wx_spokesman::bounds::lemma_a_13_guarantee(gamma, delta_n);
        let r = PartitionSolver::default().solve(&g, seed);
        prop_assert!(r.unique_coverage as f64 >= guarantee.floor(),
            "coverage {} below Lemma A.13 guarantee {guarantee}", r.unique_coverage);
    }
}
