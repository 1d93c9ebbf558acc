//! Spokesman Election solver comparison (the Section 4.2.1 workload).
//!
//! Generates several bipartite instances — random left-regular graphs, the
//! Lemma 3.3 bad-unique gadget, and the Lemma 4.4 core graph — and runs every
//! solver in the crate on each, printing the achieved unique coverage next to
//! the theoretical guarantees. On small instances the exact optimum is also
//! shown.
//!
//! Run with `cargo run -p wx-examples --bin spokesman_election [seed]`.

use wx_core::prelude::*;
use wx_core::report::{fmt_f64, render_table, TableRow};
use wx_examples::{section, seed_from_args};

fn solve_all(name: &str, g: &BipartiteGraph, seed: u64, rows: &mut Vec<TableRow>) {
    let gamma = (0..g.num_right())
        .filter(|&w| g.right_degree(w) > 0)
        .count();
    let delta_n = if gamma > 0 {
        g.num_edges() as f64 / gamma as f64
    } else {
        0.0
    };
    let solvers: Vec<(&str, Box<dyn SpokesmanSolver>)> = vec![
        ("random-decay", Box::new(RandomDecaySolver)),
        ("partition", Box::new(PartitionSolver::default())),
        ("greedy", Box::new(GreedyMinDegreeSolver)),
        ("degree-class", Box::new(DegreeClassSolver)),
        ("chlamtac-weinstein", Box::new(ChlamtacWeinsteinSolver)),
    ];
    for (label, solver) in solvers {
        let r = solver.solve(g, seed);
        rows.push(TableRow::new(
            format!("{name}/{label}"),
            vec![
                r.unique_coverage.to_string(),
                fmt_f64(r.coverage_fraction(g)),
                fmt_f64(wx_core::spokesman::bounds::lemma_a_13_guarantee(
                    gamma, delta_n,
                )),
                fmt_f64(wx_core::spokesman::bounds::lemma_a_1_guarantee(
                    gamma,
                    g.max_left_degree(),
                )),
            ],
        ));
    }
    if ExactSolver::is_feasible(g) {
        let r = ExactSolver.solve(g, seed);
        rows.push(TableRow::new(
            format!("{name}/EXACT"),
            vec![
                r.unique_coverage.to_string(),
                fmt_f64(r.coverage_fraction(g)),
                "-".to_string(),
                "-".to_string(),
            ],
        ));
    }
}

fn main() {
    let seed = seed_from_args(11);
    let mut rows = Vec::new();

    section("Instances");
    let random = random_left_regular_bipartite(20, 60, 4, seed).expect("valid");
    println!("random 4-left-regular bipartite: |S| = 20, |N| = 60");
    let gadget = BadUniqueExpander::new(16, 8, 5).expect("valid");
    println!("Lemma 3.3 gadget: s = 16, Δ = 8, β = 5 (unique expansion 2β−Δ = 2)");
    let core = CoreGraph::new(16).expect("valid");
    println!("Lemma 4.4 core graph: s = 16, |N| = {}", core.num_right());

    solve_all("random", &random, seed, &mut rows);
    solve_all("gadget", &gadget.graph, seed, &mut rows);
    solve_all("core16", &core.graph, seed, &mut rows);

    section("Results");
    println!(
        "{}",
        render_table(
            "Spokesman Election — coverage vs. guarantees",
            &[
                "instance/solver",
                "covered",
                "fraction",
                "A.13 bound",
                "A.1 bound"
            ],
            &rows
        )
    );
    println!("All solvers must sit at or above the deterministic guarantees;");
    println!("the decay/partition solvers should clearly beat the Chlamtac–Weinstein");
    println!("baseline on the core graph, whose coverable fraction is only 2/log 2s.");
}
