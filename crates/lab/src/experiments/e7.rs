//! E7 — Section 4.2.1: the Spokesman Election solver comparison.
//!
//! Runs every solver on a battery of bipartite instances (random
//! left-regular, skewed-degree, the Lemma 3.3 gadget, core graphs), reporting
//! achieved coverage, the fraction of `N` covered, and — when the instance
//! is small enough — the exact optimum. Per-solver time is a benchmark
//! metric (`spokesman.<solver>_s` in `wxbench`), never report bytes.

use crate::error::Result;
use crate::registry::SweepOptions;
use wx_core::prelude::*;
use wx_core::report::{fmt_f64, render_table, TableRow};

fn skewed_instance(s: usize, seed: u64) -> Result<BipartiteGraph> {
    // one hub right vertex adjacent to everything plus private neighbors
    let mut b = BipartiteBuilder::new(s, s + 1);
    for u in 0..s {
        b.add_edge(u, 0)?;
        b.add_edge(u, 1 + u)?;
    }
    let _ = seed;
    Ok(b.build())
}

/// Runs the experiment and returns the report text.
pub fn run(opts: &SweepOptions) -> Result<String> {
    let mut instances: Vec<(String, BipartiteGraph)> = vec![
        (
            "random d=3 20x60".to_string(),
            random_left_regular_bipartite(20, 60, 3, opts.seed)?,
        ),
        ("skewed s=16".to_string(), skewed_instance(16, opts.seed)?),
        (
            "gadget Δ=8 β=5".to_string(),
            BadUniqueExpander::new(16, 8, 5)?.graph,
        ),
        ("core s=16".to_string(), CoreGraph::new(16)?.graph),
    ];
    if !opts.quick {
        instances.push((
            "random d=4 200x400".to_string(),
            random_left_regular_bipartite(200, 400, 4, opts.seed ^ 1)?,
        ));
        instances.push((
            "random d=8 500x500".to_string(),
            random_left_regular_bipartite(500, 500, 8, opts.seed ^ 2)?,
        ));
        instances.push(("core s=128".to_string(), CoreGraph::new(128)?.graph));
    }

    let mut rows = Vec::new();
    for (name, g) in &instances {
        let solvers: Vec<(&str, Box<dyn SpokesmanSolver>)> = vec![
            ("random-decay", Box::new(RandomDecaySolver)),
            ("partition", Box::new(PartitionSolver::default())),
            ("greedy", Box::new(GreedyMinDegreeSolver)),
            ("degree-class", Box::new(DegreeClassSolver)),
            ("chlamtac-weinstein", Box::new(ChlamtacWeinsteinSolver)),
            ("portfolio", Box::new(PortfolioSolver::default())),
        ];
        let exact = if ExactSolver::is_feasible(g) && g.num_left() <= 20 {
            Some(ExactSolver::optimum(g).0)
        } else {
            None
        };
        for (label, solver) in solvers {
            let r = solver.solve(g, opts.seed);
            rows.push(TableRow::new(
                format!("{name} / {label}"),
                vec![
                    r.unique_coverage.to_string(),
                    fmt_f64(r.coverage_fraction(g)),
                    match exact {
                        Some(o) => o.to_string(),
                        None => "-".to_string(),
                    },
                ],
            ));
        }
    }

    let mut out = render_table(
        "E7: Spokesman Election solvers (coverage, fraction of N, optimum)",
        &["instance / solver", "covered", "fraction", "exact opt"],
        &rows,
    );
    out.push_str(
        "\nExpected: on every instance the portfolio matches the best member and is\n\
         close to the exact optimum where known; the paper's solvers (decay,\n\
         partition) match or beat the Chlamtac–Weinstein baseline, with the\n\
         largest margins on wide low-degree instances; on the core graph every\n\
         solver is capped at a 2/log(2s) fraction (that is the point of E4).\n",
    );
    Ok(out)
}
