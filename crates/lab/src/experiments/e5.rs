//! E5 — Lemmas 4.6–4.8: generalized core graphs at arbitrary expansion.
//!
//! Sweeps target pairs `(Δ*, β*)`, builds the generalized core graph for
//! each, re-verifies the Lemma 4.6 assertions on random subsets, and reports
//! the realized sizes, the structural coverage bound, and the Lemma 4.6(3)
//! fraction `4/log₂(min{Δ*/β*, Δ*·β*})`.

use crate::error::{LabError, Result};
use crate::registry::SweepOptions;
use wx_core::prelude::*;
use wx_core::report::{fmt_f64, render_table, TableRow};

/// Runs the experiment and returns the report text.
pub fn run(opts: &SweepOptions) -> Result<String> {
    let targets: &[(usize, f64)] = if opts.quick {
        &[(32, 2.0), (64, 0.5)]
    } else {
        &[
            (32, 2.0),
            (64, 0.5),
            (64, 4.0),
            (128, 8.0),
            (128, 1.0),
            (256, 16.0),
            (256, 0.25),
        ]
    };
    let mut rows = Vec::new();
    for &(delta_star, beta_star) in targets {
        let g = match GeneralizedCoreGraph::from_targets(delta_star, beta_star) {
            Ok(g) => g,
            Err(e) => {
                rows.push(TableRow::new(
                    format!("Δ*={delta_star} β*={beta_star}"),
                    vec![
                        format!("rejected: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ],
                ));
                continue;
            }
        };
        // verification on random subsets
        let mut rng = wx_core::graph::random::rng_from_seed(opts.seed);
        let mut subsets = vec![VertexSet::full(g.graph.num_left())];
        for _ in 0..15 {
            use rand::Rng;
            let k = rng.gen_range(1..=g.graph.num_left());
            subsets.push(wx_core::graph::random::random_subset_of_size(
                &mut rng,
                g.graph.num_left(),
                k,
            ));
        }
        g.verify(&subsets).map_err(LabError::Experiment)?;

        let frac_bound = g.unique_coverage_upper_bound() as f64 / g.graph.num_right() as f64;
        let lemma_frac = 4.0
            / wx_core::spokesman::bounds::min_degree_ratio(g.target_delta, g.target_beta)
                .log2()
                .max(1.0);
        let found = PortfolioSolver::fast()
            .solve(&g.graph, opts.seed)
            .unique_coverage;
        rows.push(TableRow::new(
            format!("Δ*={delta_star} β*={beta_star}"),
            vec![
                format!("{:?}", g.scaling),
                format!("{}x{}", g.graph.num_left(), g.graph.num_right()),
                fmt_f64(g.realized_expansion_lower_bound()),
                format!("{found} / {}", g.unique_coverage_upper_bound()),
                fmt_f64(frac_bound),
                fmt_f64(lemma_frac),
            ],
        ));
    }
    let mut out = render_table(
        "E5: generalized core graphs (Lemmas 4.6-4.8)",
        &[
            "targets",
            "scaling",
            "|S*|x|N*|",
            "realized β",
            "coverage found / cap",
            "cap fraction",
            "Lemma 4.6 fraction",
        ],
        &rows,
    );
    out.push_str(
        "\nExpected: realized β ≥ β*, the found coverage never exceeds the structural\n\
         cap, and the cap fraction of N* is at most the Lemma 4.6(3) value\n\
         4/log₂(min{Δ*/β*, Δ*·β*}).\n",
    );
    Ok(out)
}
