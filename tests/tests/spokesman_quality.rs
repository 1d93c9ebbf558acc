//! Cross-solver quality checks for the Spokesman Election portfolio
//! (Section 4.2.1 / Appendix A): every solver respects its guarantee, no
//! polynomial-time solver beats the exact optimum, and the paper's solvers
//! dominate the Chlamtac–Weinstein baseline where they should.

use proptest::prelude::*;
use wx_integration_tests::random_bipartite;
use wx_spokesman::bounds;
use wx_spokesman::{
    ChlamtacWeinsteinSolver, DegreeClassSolver, ExactSolver, GreedyMinDegreeSolver,
    PartitionSolver, PortfolioSolver, RandomDecaySolver, SpokesmanSolver,
};

fn solvers() -> Vec<Box<dyn SpokesmanSolver>> {
    vec![
        Box::new(RandomDecaySolver),
        Box::new(PartitionSolver::default()),
        Box::new(PartitionSolver::low_degree_once()),
        Box::new(GreedyMinDegreeSolver),
        Box::new(DegreeClassSolver),
        Box::new(ChlamtacWeinsteinSolver),
        Box::new(PortfolioSolver::default()),
    ]
}

#[test]
fn no_solver_beats_the_exact_optimum_on_small_instances() {
    for seed in 0..15u64 {
        let g = random_bipartite(9, 16, 0.3, seed);
        let (opt, _) = ExactSolver::optimum(&g);
        for solver in solvers() {
            let r = solver.solve(&g, seed);
            assert!(
                r.unique_coverage <= opt,
                "seed {seed}: {} reported {} > optimum {opt}",
                r.solver,
                r.unique_coverage
            );
            // the reported coverage must be honest: recompute from the subset
            assert_eq!(r.unique_coverage, g.unique_coverage(&r.subset));
            assert!(r.subset.iter().all(|u| u < g.num_left()));
        }
    }
}

#[test]
fn portfolio_matches_the_best_member_and_often_the_optimum() {
    let mut optimal_hits = 0usize;
    let trials = 12u64;
    for seed in 0..trials {
        let g = random_bipartite(10, 20, 0.35, 100 + seed);
        let (opt, _) = ExactSolver::optimum(&g);
        let portfolio = PortfolioSolver::default();
        let best_member = portfolio
            .solve_all(&g, seed)
            .into_iter()
            .map(|r| r.unique_coverage)
            .max()
            .unwrap_or(0);
        let combined = portfolio.solve(&g, seed).unique_coverage;
        assert_eq!(combined, best_member);
        if combined == opt {
            optimal_hits += 1;
        }
    }
    // The portfolio should find the true optimum on most small instances.
    assert!(
        optimal_hits as f64 >= 0.5 * trials as f64,
        "portfolio matched the optimum only {optimal_hits}/{trials} times"
    );
}

#[test]
fn deterministic_guarantees_hold_on_structured_instances() {
    // Core graph, bad-unique gadget, skewed instances: the Appendix A solvers
    // must meet their stated bounds on all of them.
    let instances: Vec<(&str, wx_graph::BipartiteGraph)> = vec![
        (
            "core-32",
            wx_constructions::CoreGraph::new(32).unwrap().graph,
        ),
        (
            "gadget-24-8-5",
            wx_constructions::BadUniqueExpander::new(24, 8, 5)
                .unwrap()
                .graph,
        ),
        (
            "random-left-regular",
            wx_constructions::families::random_left_regular_bipartite(30, 60, 6, 3).unwrap(),
        ),
    ];
    for (name, g) in instances {
        let gamma = (0..g.num_right())
            .filter(|&w| g.right_degree(w) > 0)
            .count();
        let delta_n = g.num_edges() as f64 / gamma.max(1) as f64;

        let partition = PartitionSolver::default().solve(&g, 1);
        assert!(
            partition.unique_coverage as f64
                >= bounds::lemma_a_13_guarantee(gamma, delta_n).floor(),
            "{name}: partition below Lemma A.13"
        );

        let greedy = GreedyMinDegreeSolver.solve(&g, 1);
        assert!(
            greedy.unique_coverage as f64
                >= bounds::lemma_a_1_guarantee(gamma, g.max_left_degree()).floor(),
            "{name}: greedy below Lemma A.1"
        );

        let low_degree = PartitionSolver::low_degree_once().solve(&g, 1);
        assert!(
            low_degree.unique_coverage as f64
                >= bounds::lemma_a_3_guarantee(gamma, delta_n).floor(),
            "{name}: single-pass partition below Lemma A.3"
        );

        let cw = ChlamtacWeinsteinSolver.solve(&g, 1);
        assert!(
            cw.unique_coverage as f64 >= ChlamtacWeinsteinSolver::guarantee(&g).floor() * 0.99,
            "{name}: baseline below |N|/log|S|"
        );
    }
}

#[test]
fn paper_solvers_dominate_the_baseline_on_low_degree_wide_instances() {
    // The whole point of Section 4.2.1: when |S| is large but the average
    // degree is small, the paper's bound |N|/log(2δ) is much stronger than
    // the baseline's |N|/log|S|. On such instances the portfolio should
    // cover at least as much as the baseline actually achieves.
    for seed in 0..5u64 {
        let g =
            wx_constructions::families::random_left_regular_bipartite(200, 400, 2, seed).unwrap();
        let portfolio = PortfolioSolver::default().solve(&g, seed).unique_coverage;
        let baseline = ChlamtacWeinsteinSolver.solve(&g, seed).unique_coverage;
        // Both solvers are randomized (and the portfolio re-seeds its members
        // internally), so allow a small noise margin rather than demanding
        // strict dominance on every seed.
        assert!(
            portfolio as f64 >= 0.9 * baseline as f64,
            "seed {seed}: portfolio {portfolio} well below baseline {baseline}"
        );
        // and the paper's loss factor log(2δ_N) is genuinely smaller than the
        // baseline's log|S| on this wide, sparse instance (the constants in
        // the explicit guarantees differ, so we compare the loss factors —
        // which is what Section 4.2.1 claims).
        let gamma = (0..g.num_right())
            .filter(|&w| g.right_degree(w) > 0)
            .count();
        let delta_n = g.num_edges() as f64 / gamma as f64;
        assert!((2.0 * delta_n).log2() < (g.num_left() as f64).log2());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Solver outputs are always valid subsets with honestly reported
    /// coverage, for arbitrary random instances.
    #[test]
    fn solver_outputs_are_valid(seed in 0u64..10_000, s in 1usize..14, n in 1usize..24, p in 0.05f64..0.7) {
        let g = random_bipartite(s, n, p, seed);
        for solver in solvers() {
            let r = solver.solve(&g, seed);
            prop_assert!(r.subset.iter().all(|u| u < s));
            prop_assert_eq!(r.unique_coverage, g.unique_coverage(&r.subset));
            prop_assert!(r.unique_coverage <= n);
        }
    }
}
